//! Functional simulator of the quadruplet uniform accelerator (QUA) —
//! the Fig. 6 architecture, bit-accurate.
//!
//! The simulator executes GEMMs over QUB streams exactly as the hardware
//! would: decoding units (DU) turn QUBs into `(D, n_sh)` pairs (Eq. 6/7),
//! the PE array multiply-shift-accumulates (Eq. 5), and quantization units
//! (QU) rescale accumulators and re-encode output QUBs. A cycle model for
//! an output-stationary tiled dataflow provides performance estimates.
//!
//! Differential property (tested below and in the integration suite): the
//! simulator's integer arithmetic agrees exactly with the software reference
//! in `quq_core::dot`, and an all-uniform (Mode D, equal scales) QUA run
//! degenerates to the BaseQ accelerator — the paper's compatibility claim.

use quq_core::qub::{decode_qub, Decoded, QubCodec, QubTensor};
use quq_core::scheme::QuqParams;
use quq_tensor::IntTensor;

/// PE-array geometry and operand width of one QUA instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Qua {
    /// PE rows.
    pub rows: usize,
    /// PE columns.
    pub cols: usize,
    /// Operand bit-width `b`.
    pub bits: u32,
}

/// Execution statistics of one GEMM.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GemmStats {
    /// Multiply-accumulate operations performed.
    pub macs: u64,
    /// Output tiles processed.
    pub tiles: u64,
    /// Estimated cycles (output-stationary: per tile, `k` accumulation
    /// cycles plus array fill/drain).
    pub cycles: u64,
    /// QUB decodes performed by the DUs.
    pub decodes: u64,
    /// Requantizations performed by the QUs.
    pub requants: u64,
}

impl GemmStats {
    /// MACs per cycle actually sustained.
    pub fn utilization(&self, qua: &Qua) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        self.macs as f64 / (self.cycles as f64 * (qua.rows * qua.cols) as f64)
    }
}

impl Qua {
    /// Creates a QUA instance.
    ///
    /// # Panics
    ///
    /// Panics for zero-sized arrays or unsupported bit-widths.
    pub fn new(rows: usize, cols: usize, bits: u32) -> Self {
        assert!(rows > 0 && cols > 0, "array must be non-empty");
        assert!((2..=8).contains(&bits), "bit-width {bits} outside 2..=8");
        Self { rows, cols, bits }
    }

    /// Executes `C[m,n] = requantize(A[m,k] · B[n,k]ᵀ)` over QUB streams.
    ///
    /// `a` is the activation tensor `[m, k]`, `w` the weight tensor `[n, k]`
    /// (linear-layer layout), `out_params` the output tensor's QUQ
    /// parameters. Returns the output QUB tensor and cycle statistics.
    ///
    /// # Panics
    ///
    /// Panics when shapes are incompatible or operand widths disagree with
    /// the array's configured width.
    pub fn gemm(
        &self,
        a: &QubTensor,
        w: &QubTensor,
        out_params: &QuqParams,
    ) -> (QubTensor, GemmStats) {
        assert_eq!(
            a.bits, self.bits,
            "activation width {} != array width {}",
            a.bits, self.bits
        );
        assert_eq!(
            w.bits, self.bits,
            "weight width {} != array width {}",
            w.bits, self.bits
        );
        assert_eq!(a.shape.len(), 2, "activations must be rank 2");
        assert_eq!(w.shape.len(), 2, "weights must be rank 2");
        let (m, k) = (a.shape[0], a.shape[1]);
        let (n, k2) = (w.shape[0], w.shape[1]);
        assert_eq!(k, k2, "inner dimensions differ: {k} vs {k2}");

        // DU stage: decode every operand once (streamed row-/column-wise).
        let ad: Vec<Decoded> = a
            .bytes
            .iter()
            .map(|&b| decode_qub(b, a.fc, a.bits))
            .collect();
        let wd: Vec<Decoded> = w
            .bytes
            .iter()
            .map(|&b| decode_qub(b, w.fc, w.bits))
            .collect();

        // PE stage: tiled output-stationary multiply-shift-accumulate.
        let mut acc = vec![0i64; m * n];
        let row_tiles = m.div_ceil(self.rows);
        let col_tiles = n.div_ceil(self.cols);
        let mut stats = GemmStats {
            decodes: (ad.len() + wd.len()) as u64,
            tiles: (row_tiles * col_tiles) as u64,
            ..GemmStats::default()
        };
        for rt in 0..row_tiles {
            for ct in 0..col_tiles {
                let r_end = ((rt + 1) * self.rows).min(m);
                let c_end = ((ct + 1) * self.cols).min(n);
                for i in rt * self.rows..r_end {
                    for j in ct * self.cols..c_end {
                        let mut s = 0i64;
                        for p in 0..k {
                            let x = ad[i * k + p];
                            let y = wd[j * k + p];
                            s += ((x.d as i64) * (y.d as i64)) << (x.n_sh + y.n_sh);
                        }
                        acc[i * n + j] = s;
                        stats.macs += k as u64;
                    }
                }
                stats.cycles += (k + self.rows + self.cols) as u64;
            }
        }

        // QU stage: rescale and re-encode with the output parameters.
        let codec = QubCodec::new(*out_params);
        let scale = a.base_delta * w.base_delta;
        let bytes: Vec<u8> = acc
            .iter()
            .map(|&s| codec.quantize(s as f32 * scale))
            .collect();
        stats.requants = bytes.len() as u64;
        let out = QubTensor::new(bytes, vec![m, n], codec.fc(), self.bits, codec.base_delta());
        (out, stats)
    }

    /// The SFU data-loading path (§4.2): decodes a QUB stream into plain
    /// integers `d = D << n_sh` so LayerNorm/Softmax/GELU hardware built for
    /// uniform quantization can process QUQ tensors unchanged.
    pub fn sfu_load(&self, t: &QubTensor) -> IntTensor {
        t.decode_scaled()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quq_core::dot::{accumulator_value, matmul_nt_qub};
    use quq_core::relax::Pra;
    use quq_core::scheme::QuqParams;
    use quq_tensor::rng::OutlierMixture;
    use quq_tensor::Tensor;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn random_qub(seed: u64, shape: [usize; 2], bits: u32) -> QubTensor {
        let mut rng = StdRng::seed_from_u64(seed);
        let vals = OutlierMixture::new(0.05, 0.7, 0.02).sample_vec(&mut rng, shape[0] * shape[1]);
        let params = Pra::with_defaults(bits).run(&vals).params;
        let t = Tensor::from_vec(vals, &shape).unwrap();
        QubCodec::new(params).encode_tensor(&t)
    }

    #[test]
    fn simulator_matches_software_reference_bit_exactly() {
        for bits in [4u32, 6, 8] {
            let a = random_qub(1, [7, 33], bits);
            let w = random_qub(2, [5, 33], bits);
            let out_params = QuqParams::uniform(bits, 0.25).unwrap();
            let qua = Qua::new(4, 4, bits);
            let (c, stats) = qua.gemm(&a, &w, &out_params);
            // Reference accumulators.
            let reference = matmul_nt_qub(&a, &w);
            let codec = QubCodec::new(out_params);
            for (i, &acc) in reference.iter().enumerate() {
                let expect = codec.encode(out_params.quantize(accumulator_value(
                    acc,
                    a.base_delta,
                    w.base_delta,
                )));
                assert_eq!(c.bytes[i], expect, "bits {bits}, element {i}");
            }
            assert_eq!(stats.macs, 7 * 5 * 33);
            assert_eq!(stats.requants, 35);
        }
    }

    #[test]
    fn uniform_mode_degenerates_to_baseq_accelerator() {
        // With Mode D equal-scale operands, every n_sh is zero: the QUA's
        // dataflow is exactly a plain integer accelerator.
        let params = QuqParams::uniform(8, 0.5).unwrap();
        let codec = QubCodec::new(params);
        let a = codec.encode_tensor(&Tensor::from_vec(vec![0.5, -1.0, 1.5, 2.0], &[2, 2]).unwrap());
        for d in a.decode_pairs() {
            assert_eq!(d.n_sh, 0, "uniform mode must not shift");
        }
        let qua = Qua::new(2, 2, 8);
        let (c, _) = qua.gemm(&a, &a, &params);
        // C = A·Aᵀ: C[0,0] = 0.5² + (−1)² = 1.25; C[0,1] = 0.75 − 2 = −1.25.
        let dec = c.dequantize();
        assert!(
            (dec.data()[0] - 1.25).abs() <= 0.25 + 1e-6,
            "C00 = {}",
            dec.data()[0]
        );
        assert!(
            (dec.data()[1] - -1.25).abs() <= 0.25 + 1e-6,
            "C01 = {}",
            dec.data()[1]
        );
    }

    #[test]
    fn cycle_model_counts_tiles() {
        let a = random_qub(3, [16, 64], 6);
        let w = random_qub(4, [16, 64], 6);
        let out_params = QuqParams::uniform(6, 0.5).unwrap();
        let qua = Qua::new(8, 8, 6);
        let (_, stats) = qua.gemm(&a, &w, &out_params);
        assert_eq!(stats.tiles, 4);
        assert_eq!(stats.cycles, 4 * (64 + 8 + 8));
        let util = stats.utilization(&qua);
        assert!(util > 0.5 && util <= 1.0, "utilization {util}");
    }

    #[test]
    fn sfu_load_matches_dequantization() {
        let t = random_qub(5, [4, 4], 8);
        let qua = Qua::new(2, 2, 8);
        let ints = qua.sfu_load(&t);
        let float = t.dequantize();
        for (i, &d) in ints.data().iter().enumerate() {
            assert!((d as f32 * t.base_delta - float.data()[i]).abs() < 1e-6);
        }
    }

    #[test]
    #[should_panic(expected = "inner dimensions differ")]
    fn gemm_rejects_shape_mismatch() {
        let a = random_qub(6, [2, 3], 8);
        let w = random_qub(7, [2, 4], 8);
        let qua = Qua::new(2, 2, 8);
        let _ = qua.gemm(&a, &w, &QuqParams::uniform(8, 1.0).unwrap());
    }

    #[test]
    #[should_panic(expected = "width")]
    fn gemm_rejects_width_mismatch() {
        let a = random_qub(8, [2, 3], 6);
        let w = random_qub(9, [2, 3], 6);
        let qua = Qua::new(2, 2, 8);
        let _ = qua.gemm(&a, &w, &QuqParams::uniform(8, 1.0).unwrap());
    }
}
