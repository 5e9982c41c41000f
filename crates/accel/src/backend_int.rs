//! Fully integer execution backend: the deployment path of the paper.
//!
//! [`IntegerBackend`] executes a calibrated QUQ model the way the QUA +
//! SFUs would: GEMM operands are encoded as QUBs and multiplied on the
//! integer dot-product path (Eq. 5); Softmax/GELU/LayerNorm inputs take the
//! SFU load path (`d = D << n_sh`) and are evaluated by the integer-only
//! kernels of [`crate::intfunc`]. Floating point appears only at operation
//! boundaries to carry scales between sites — in hardware these are the
//! precomputed `M/2^N` requantization constants of Eq. 2.
//!
//! Differential expectation (tested in the integration suite): logits agree
//! closely with the fake-quantization [`quq_core::QuantBackend`] path, and
//! top-1 predictions agree with FP32 at the same rate.

use crate::intfunc;
use quq_core::calib::{Coverage, Operand, ParamKey};
use quq_core::dot;
use quq_core::pipeline::PtqTables;
use quq_core::qub::{QubCodec, QubTensor};
use quq_core::scheme::QuqParams;
use quq_tensor::{linalg, IntTensor, Tensor};
use quq_vit::backend::{Backend, BackendError, OpSite, Result};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Shared per-site cache of QUB-encoded weights.
///
/// Without it, every image re-encodes every layer weight from FP32 *and*
/// re-decodes it inside every GEMM. With it, each weight site is encoded
/// once, together with its pre-shifted `i16` panel
/// ([`QubTensor::preshifted`]), and every subsequent image reuses both —
/// the software analogue of weights living on-chip in the paper's
/// accelerator. Clone the [`Arc`] into each worker's backend to share the
/// cache across parallel evaluation.
#[derive(Debug, Default)]
pub struct WeightQubCache {
    entries: Mutex<BTreeMap<OpSite, Arc<QubTensor>>>,
}

impl WeightQubCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Recovers the cache lock even if a panicking thread poisoned it: every
    /// map entry is inserted fully formed, so the cache is always consistent.
    fn entries(&self) -> MutexGuard<'_, BTreeMap<OpSite, Arc<QubTensor>>> {
        self.entries.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Number of weight sites encoded so far.
    pub fn len(&self) -> usize {
        self.entries().len()
    }

    /// Whether no site has been encoded yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Pre-populates a cache from a stored artifact's QUB records, skipping
    /// the per-site encode entirely — the cold-start path. Each record is
    /// checksum-verified (once) by the store as it is read; on an mmap-backed
    /// artifact the QUB wire bytes are parsed straight out of the mapped
    /// pages with no intermediate copy, and compressed records decode lazily
    /// on this first touch. The pre-shifted panel is built here so the first
    /// inference pays no decode cost.
    pub fn from_artifact(
        artifact: &quq_store::Artifact,
    ) -> std::result::Result<Self, quq_store::StoreError> {
        crate::cost::install_tile_prior();
        let cache = Self::new();
        {
            let mut entries = cache.entries();
            for site in artifact.qub_sites() {
                let qub = artifact.load_qub(site)?;
                qub.preshifted();
                entries.insert(site, Arc::new(qub));
            }
        }
        Ok(cache)
    }

    /// Returns the encoded weight for `site`, encoding it (bytes and packed
    /// panel) on first use. The lock is held across the encode so
    /// concurrent workers never duplicate the work.
    fn get_or_encode(&self, site: OpSite, params: QuqParams, w: &Tensor) -> Arc<QubTensor> {
        let mut entries = self.entries();
        if let Some(hit) = entries.get(&site) {
            quq_obs::add("cache.weight_qub.hit", 1);
            return Arc::clone(hit);
        }
        quq_obs::add("cache.weight_qub.miss", 1);
        let qw = Arc::new(QubCodec::new(params).encode_tensor(w));
        entries.insert(site, Arc::clone(&qw));
        qw
    }
}

/// Integer-only execution over calibrated QUQ tables.
///
/// Construction fails at first use (with [`BackendError::MissingParams`])
/// when the tables were calibrated with a non-QUQ method, since only QUQ
/// fits carry the structured parameters the integer paths need.
#[derive(Debug)]
pub struct IntegerBackend<'a> {
    tables: &'a PtqTables,
    weights: Arc<WeightQubCache>,
}

impl<'a> IntegerBackend<'a> {
    /// Wraps calibrated tables with a private weight cache.
    pub fn new(tables: &'a PtqTables) -> Self {
        Self::with_cache(tables, Arc::new(WeightQubCache::new()))
    }

    /// Wraps calibrated tables sharing `weights` with other backends (e.g.
    /// one backend per evaluation worker over one model's weights).
    pub fn with_cache(tables: &'a PtqTables, weights: Arc<WeightQubCache>) -> Self {
        // Any process running integer GEMMs should tune them with the
        // hardware-derived prior rather than the built-in default.
        crate::cost::install_tile_prior();
        Self { tables, weights }
    }

    /// A handle to the weight cache (for sharing with further backends).
    pub fn weight_cache(&self) -> Arc<WeightQubCache> {
        Arc::clone(&self.weights)
    }

    fn coverage(&self) -> Coverage {
        self.tables.config().coverage
    }

    fn act_params(&self, site: OpSite, operand: Operand) -> Result<QuqParams> {
        let key = ParamKey { site, operand };
        self.tables
            .activation(&key)
            .and_then(|q| q.quq_params().copied())
            .ok_or(BackendError::MissingParams(site))
    }

    fn weight_params(&self, site: OpSite) -> Result<QuqParams> {
        self.tables
            .weight_quantizer(&site)
            .and_then(|q| q.quq_params().copied())
            .ok_or(BackendError::MissingParams(site))
    }

    /// SFU load path: quantizes a float tensor to `(integers, scale)` where
    /// value ≈ integer × scale — exactly what [`crate::sim::Qua::sfu_load`]
    /// produces from a QUB stream, encoded straight to the integers.
    fn sfu_quantize(&self, site: OpSite, operand: Operand, x: &Tensor) -> Result<(IntTensor, f32)> {
        let codec = QubCodec::new(self.act_params(site, operand)?);
        Ok((codec.encode_scaled(x), codec.base_delta()))
    }

    /// Integer GEMM `C = A·Bᵀ` over already-encoded QUB operands, returning
    /// the rescaled float result. Runs on the pre-shifted packed kernel
    /// ([`dot::matmul_nt_qub`]).
    fn int_matmul_nt_qub(&self, qa: &QubTensor, qb: &QubTensor) -> Result<Tensor> {
        let accs = dot::matmul_nt_qub(qa, qb);
        let scale = qa.base_delta * qb.base_delta;
        let data: Vec<f32> = accs.into_iter().map(|v| v as f32 * scale).collect();
        Tensor::from_vec(data, &[qa.shape[0], qb.shape[0]]).map_err(BackendError::from)
    }

    /// Integer GEMM `C = A·Bᵀ` encoding both operands fresh (the
    /// activation × activation case: neither operand recurs across images).
    fn int_matmul_nt(
        &self,
        a_params: QuqParams,
        b_params: QuqParams,
        a: &Tensor,
        b: &Tensor,
    ) -> Result<Tensor> {
        let qa = QubCodec::new(a_params).encode_tensor(a);
        let qb = QubCodec::new(b_params).encode_tensor(b);
        self.int_matmul_nt_qub(&qa, &qb)
    }
}

impl Backend for IntegerBackend<'_> {
    fn linear(
        &mut self,
        site: OpSite,
        x: &Tensor,
        w: &Tensor,
        bias: Option<&Tensor>,
    ) -> Result<Tensor> {
        if !self.coverage().covers(site.kind) {
            return Ok(linalg::linear(x, w, bias)?);
        }
        let a_params = self.act_params(site, Operand::Input)?;
        let w_params = self.weight_params(site)?;
        // Flatten leading axes like linalg::linear does.
        let (rows, cols) = x.as_matrix().map_err(BackendError::from)?;
        let x2 = x.reshape(&[rows, cols]).map_err(BackendError::from)?;
        let w_src = self.tables.original_weight(&site).unwrap_or(w);
        // Weights recur image after image: encode them once.
        let qw = self.weights.get_or_encode(site, w_params, w_src);
        let qa = QubCodec::new(a_params).encode_tensor(&x2);
        let y = self.int_matmul_nt_qub(&qa, &qw)?;
        let y = match bias {
            Some(b) => y.add_bias(b).map_err(BackendError::from)?,
            None => y,
        };
        let mut shape = x.shape().to_vec();
        *shape.last_mut().expect("rank >= 1") = w.shape()[0];
        y.into_reshape(&shape).map_err(BackendError::from)
    }

    fn matmul(&mut self, site: OpSite, a: &Tensor, b: &Tensor) -> Result<Tensor> {
        if !self.coverage().covers(site.kind) {
            return Ok(linalg::matmul(a, b)?);
        }
        let a_params = self.act_params(site, Operand::Input)?;
        let b_params = self.act_params(site, Operand::InputB)?;
        // A[m,k]·B[k,n] = A·(Bᵀ)ᵀ: feed Bᵀ to the NT kernel.
        let bt = b.transpose().map_err(BackendError::from)?;
        self.int_matmul_nt(a_params, b_params, a, &bt)
    }

    fn matmul_nt(&mut self, site: OpSite, a: &Tensor, b: &Tensor) -> Result<Tensor> {
        if !self.coverage().covers(site.kind) {
            return Ok(linalg::matmul_nt(a, b)?);
        }
        let a_params = self.act_params(site, Operand::Input)?;
        let b_params = self.act_params(site, Operand::InputB)?;
        self.int_matmul_nt(a_params, b_params, a, b)
    }

    fn softmax(&mut self, site: OpSite, x: &Tensor) -> Result<Tensor> {
        if !self.coverage().covers(site.kind) {
            return Ok(quq_tensor::nn::softmax(x)?);
        }
        let (rows, cols) = x.as_matrix().map_err(BackendError::from)?;
        let (ints, scale) = self.sfu_quantize(site, Operand::Input, x)?;
        let ints = ints.reshape(&[rows, cols]).map_err(BackendError::from)?;
        let probs_fx = intfunc::i_softmax(&ints, scale);
        let out = probs_fx.to_f32(1.0 / intfunc::ONE as f32);
        out.into_reshape(x.shape()).map_err(BackendError::from)
    }

    fn gelu(&mut self, site: OpSite, x: &Tensor) -> Result<Tensor> {
        if !self.coverage().covers(site.kind) {
            return Ok(quq_tensor::nn::gelu_tensor(x));
        }
        let (ints, scale) = self.sfu_quantize(site, Operand::Input, x)?;
        Ok(intfunc::i_gelu(&ints, scale).to_f32(scale))
    }

    fn layer_norm(&mut self, site: OpSite, x: &Tensor, g: &Tensor, b: &Tensor) -> Result<Tensor> {
        if !self.coverage().covers(site.kind) {
            return Ok(quq_tensor::nn::layer_norm(x, g, b, 1e-6)?);
        }
        let (ints, _scale) = self.sfu_quantize(site, Operand::Input, x)?;
        // Output scale sized so ±4·max|γ| + max|β| fits an 8-bit-ish range.
        let g_max = g.data().iter().fold(0.0f32, |a, &v| a.max(v.abs()));
        let b_max = b.data().iter().fold(0.0f32, |a, &v| a.max(v.abs()));
        let out_scale = ((4.0 * g_max + b_max) / 127.0).max(1e-6);
        Ok(intfunc::i_layer_norm(&ints, g, b, out_scale).to_f32(out_scale))
    }

    fn add(&mut self, site: OpSite, a: &Tensor, b: &Tensor) -> Result<Tensor> {
        if !self.coverage().covers(site.kind) {
            return Ok(a.add(b)?);
        }
        // The SFU adder sums the two decoded integer streams after scale
        // alignment; numerically this equals adding the dequantized values.
        let (ia, sa) = self.sfu_quantize(site, Operand::Input, a)?;
        let (ib, sb) = self.sfu_quantize(site, Operand::InputB, b)?;
        ia.to_f32(sa)
            .add(&ib.to_f32(sb))
            .map_err(BackendError::from)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quq_core::pipeline::{calibrate, PtqConfig};
    use quq_core::QuqMethod;
    use quq_vit::{Dataset, ModelConfig, VitModel};

    fn setup(cfg: PtqConfig) -> (VitModel, PtqTables, Dataset) {
        let model = VitModel::synthesize(ModelConfig::test_config(), 33);
        let calib = Dataset::calibration(model.config(), 4, 1);
        let tables = calibrate(&QuqMethod::without_optimization(), &model, &calib, cfg).unwrap();
        let eval = Dataset::teacher_labeled(&model, 12, 2).unwrap();
        (model, tables, eval)
    }

    #[test]
    fn integer_backend_runs_full_quantization() {
        let (model, tables, _) = setup(PtqConfig::full_w8a8());
        let img = model.config().dummy_image(0.3);
        let mut be = IntegerBackend::new(&tables);
        let logits = model.forward(&img, &mut be).unwrap();
        assert!(logits.data().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn integer_logits_track_fake_quant_logits() {
        let (model, tables, _) = setup(PtqConfig::full_w8a8());
        let img = model.config().dummy_image(-0.2);
        let mut int_be = IntegerBackend::new(&tables);
        let int_logits = model.forward(&img, &mut int_be).unwrap();
        let mut fq_be = tables.backend();
        let fq_logits = model.forward(&img, &mut fq_be).unwrap();
        let cos = quq_tensor::stats::cosine_similarity(&int_logits, &fq_logits).unwrap();
        assert!(cos > 0.95, "cosine {cos}");
    }

    #[test]
    fn integer_backend_preserves_accuracy_at_8_bit() {
        let (model, tables, eval) = setup(PtqConfig::full_w8a8());
        let mut be = IntegerBackend::new(&tables);
        let acc = quq_vit::evaluate(&model, &mut be, &eval).unwrap();
        assert!(acc >= 0.7, "integer-path agreement {acc}");
    }

    #[test]
    fn weight_cache_fills_once_and_is_shareable() {
        let (model, tables, _) = setup(PtqConfig::full_w8a8());
        let cache = Arc::new(WeightQubCache::new());
        assert!(cache.is_empty());
        let img = model.config().dummy_image(0.3);
        let mut be = IntegerBackend::with_cache(&tables, Arc::clone(&cache));
        let first = model.forward(&img, &mut be).unwrap();
        let filled = cache.len();
        assert!(filled > 0, "forward must populate the weight cache");
        // A second backend sharing the cache reuses every entry and
        // produces bit-identical logits.
        let mut be2 = IntegerBackend::with_cache(&tables, be.weight_cache());
        let second = model.forward(&img, &mut be2).unwrap();
        assert_eq!(first.data(), second.data());
        assert_eq!(cache.len(), filled, "no re-encoding on reuse");
    }

    #[test]
    fn cached_and_fresh_backends_agree_bitwise() {
        let (model, tables, _) = setup(PtqConfig::full_w8a8());
        let img = model.config().dummy_image(-0.1);
        let mut fresh = IntegerBackend::new(&tables);
        let mut again = IntegerBackend::new(&tables);
        let a = model.forward(&img, &mut fresh).unwrap();
        let b = model.forward(&img, &mut again).unwrap();
        assert_eq!(a.data(), b.data());
    }

    #[test]
    fn non_quq_tables_are_rejected() {
        // A method whose fits are plain uniform quantizers: no QuqParams,
        // so the integer path must refuse with MissingParams.
        #[derive(Debug)]
        struct UniformOnly;
        impl quq_core::quantizer::QuantMethod for UniformOnly {
            fn name(&self) -> &'static str {
                "uniform-only"
            }
            fn fit_activation(
                &self,
                samples: &[f32],
                bits: u32,
            ) -> Box<dyn quq_core::FittedQuantizer> {
                Box::new(quq_core::UniformQuantizer::fit_min_max(bits, samples))
            }
        }
        let model = VitModel::synthesize(ModelConfig::test_config(), 33);
        let calib = Dataset::calibration(model.config(), 2, 1);
        let tables = calibrate(&UniformOnly, &model, &calib, PtqConfig::full_w8a8()).unwrap();
        let mut be = IntegerBackend::new(&tables);
        let err = model
            .forward(&model.config().dummy_image(0.1), &mut be)
            .unwrap_err();
        assert!(matches!(err, BackendError::MissingParams(_)), "{err:?}");
    }
}
