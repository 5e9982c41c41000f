//! Quadruplet uniform bytes (QUBs) and FC registers — paper §4.1.
//!
//! A *b*-bit QUB is `{flag, payload}` where the flag bit `E_{b−1}` selects
//! the fine (`1`) or coarse (`0`) encoding space and the payload is the
//! `p = b − 1` low bits. Two per-tensor 8-bit **FC registers** describe how
//! to interpret each space (paper Fig. 5):
//!
//! ```text
//! bit 7    : space contains both signs (split/signed payload)
//! bit 6    : if not split, 1 = the merged side is negative
//! bits 5..3: n_sh for the negative subrange (log2 Δ_neg/Δ)
//! bits 2..0: n_sh for the positive subrange (log2 Δ_pos/Δ)
//! ```
//!
//! Decoding (Eq. 6/7) turns a QUB into a signed integer `D` plus a shift
//! `n_sh`, such that the represented value is `D · 2^{n_sh} · Δ`. Crucially,
//! decode uses *only* the byte and the FC registers — exactly what the
//! hardware decoding unit sees.

use crate::scheme::{LaneQuantizer, QuqCode, QuqParams, SpaceLayout};
use quq_tensor::linalg::isa::{self, Isa};
use quq_tensor::linalg::PANEL_K_ALIGN;
use quq_tensor::{I16Tensor, IntTensor, Tensor};
use std::sync::{Arc, OnceLock};

/// The pair of per-tensor FC registers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FcRegisters {
    /// Register describing the fine encoding space (`f7..f0`).
    pub fine: u8,
    /// Register describing the coarse encoding space (`c7..c0`).
    pub coarse: u8,
}

fn encode_space(space: SpaceLayout, base: f32) -> u8 {
    // Each n_sh field is 3 bits wide (Fig. 5), so the register can only
    // describe scale ratios up to 2^7 over the base Δ. Eq. 4 plus the PRA
    // construction guarantee fitted parameters stay in range; a ratio
    // outside it cannot be represented and silently masking it (`& 0x7`)
    // would alias e.g. 2^8 onto 2^0. Debug builds reject such layouts;
    // release builds saturate at the widest representable ratio.
    let sh = |d: f32| -> u8 {
        let ratio = (d / base).log2().round();
        debug_assert!(
            (0.0..=7.0).contains(&ratio),
            "scale ratio 2^{ratio} does not fit the 3-bit n_sh field (Δ = {d}, base = {base})"
        );
        ratio.clamp(0.0, 7.0) as u8
    };
    match space {
        SpaceLayout::Split { neg, pos } => 0x80 | (sh(neg) << 3) | sh(pos),
        SpaceLayout::MergedNeg { delta } => 0x40 | (sh(delta) << 3),
        SpaceLayout::MergedPos { delta } => sh(delta),
    }
}

impl FcRegisters {
    /// Derives the FC registers from a parameter set and its base scale.
    pub fn from_params(params: &QuqParams) -> Self {
        let base = params.base_delta();
        Self {
            fine: encode_space(params.fine(), base),
            coarse: encode_space(params.coarse(), base),
        }
    }
}

/// Reconstructs a space layout from one FC register and the base scale —
/// the inverse of the register encoding, showing that `(b, FC, Δ)` is a
/// *complete* description of a QUQ tensor's quantizer.
fn decode_space(reg: u8, base: f32) -> SpaceLayout {
    let sh_neg = ((reg >> 3) & 0x7) as f32;
    let sh_pos = (reg & 0x7) as f32;
    if reg & 0x80 != 0 {
        SpaceLayout::Split {
            neg: base * sh_neg.exp2(),
            pos: base * sh_pos.exp2(),
        }
    } else if reg & 0x40 != 0 {
        SpaceLayout::MergedNeg {
            delta: base * sh_neg.exp2(),
        }
    } else {
        SpaceLayout::MergedPos {
            delta: base * sh_pos.exp2(),
        }
    }
}

/// Rebuilds full [`QuqParams`] from the wire description `(bits, FC
/// registers, base Δ)` — what a consumer of a serialized QUB stream does.
///
/// # Errors
///
/// Returns [`crate::scheme::InvalidParams`] for invalid widths or scales.
pub fn params_from_fc(
    bits: u32,
    fc: FcRegisters,
    base_delta: f32,
) -> Result<QuqParams, crate::scheme::InvalidParams> {
    QuqParams::new(
        bits,
        decode_space(fc.fine, base_delta),
        decode_space(fc.coarse, base_delta),
    )
}

/// A decoded QUB: the signed integer `D` and shift `n_sh` of Eq. 7.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Decoded {
    /// Signed payload value `D` (fits the *b*-bit signed range).
    pub d: i32,
    /// Shift count `n_sh` (0..=7).
    pub n_sh: u32,
}

impl Decoded {
    /// The represented integer `D · 2^{n_sh}` (value in units of `Δ_base`).
    ///
    /// For every bit-width the format supports (b ≤ 8), `|D| ≤ 2^{b−1} ≤
    /// 128` and `n_sh ≤ 7`, so the pre-shifted value is bounded by 2^14 and
    /// fits an `i16`. The packed GEMM pipeline stores panels of these
    /// values as `i16` ([`QubTensor::decode_preshifted`]); a future
    /// bit-width bump past 8 would overflow that panel format, so debug
    /// builds assert the bound here.
    pub fn scaled(&self) -> i32 {
        let v = self.d << self.n_sh;
        debug_assert!(
            i16::try_from(v).is_ok(),
            "pre-shifted value {v} (D = {}, n_sh = {}) overflows the i16 panel format",
            self.d,
            self.n_sh
        );
        v
    }
}

/// Encoder/decoder between [`QuqCode`]s, QUB bytes, and [`Decoded`]
/// integers for one tensor's parameter set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QubCodec {
    params: QuqParams,
    fc: FcRegisters,
    lanes: LaneQuantizer,
    /// `2^{n_sh}` per subrange, `[fine, coarse]` × `[neg, pos]`, read from
    /// the FC registers exactly as [`decode_qub`] reads them.
    scale: [[f32; 2]; 2],
    /// `2^p`: the flag bit's weight in a QUB byte.
    flag: f32,
}

impl QubCodec {
    /// Builds the codec for a parameter set.
    pub fn new(params: QuqParams) -> Self {
        let fc = FcRegisters::from_params(&params);
        let scale = |reg: u8| {
            let pow2 = |sh: u8| (1u32 << (sh & 0x7)) as f32;
            [pow2(reg >> 3), pow2(reg)]
        };
        Self {
            params,
            fc,
            lanes: params.lanes(),
            scale: [scale(fc.fine), scale(fc.coarse)],
            flag: (1u32 << params.payload_bits()) as f32,
        }
    }

    /// The underlying parameters.
    pub fn params(&self) -> &QuqParams {
        &self.params
    }

    /// The FC registers shipped with the tensor.
    pub fn fc(&self) -> FcRegisters {
        self.fc
    }

    /// The base scale `Δ` shipped with the tensor.
    pub fn base_delta(&self) -> f32 {
        self.params.base_delta()
    }

    /// Packs a [`QuqCode`] into a *b*-bit QUB (stored in the low bits of a
    /// byte; for b = 8 the byte layout matches the paper exactly).
    pub fn encode(&self, code: QuqCode) -> u8 {
        let p = self.params.payload_bits();
        let mask = (1u16 << p) - 1;
        let payload = (code.code as i16 as u16) & mask;
        (((code.fine as u16) << p) | payload) as u8
    }

    /// Decodes a QUB into `(D, n_sh)` using only the byte and the FC
    /// registers — Eq. 6/7, the hardware decoding-unit function.
    pub fn decode(&self, qub: u8) -> Decoded {
        decode_qub(qub, self.fc, self.params.bits())
    }

    /// Quantizes a real value straight to its QUB byte.
    pub fn quantize(&self, x: f32) -> u8 {
        self.encode_element(x).0
    }

    /// Reconstructs the real value of a QUB byte.
    pub fn dequantize(&self, qub: u8) -> f32 {
        self.decode(qub).scaled() as f32 * self.base_delta()
    }

    /// One element of every encoder: the QUB byte of `x` and its
    /// pre-shifted integer `D << n_sh` — what [`decode_qub`] and
    /// [`Decoded::scaled`] return for that byte, computed without it.
    ///
    /// Both are formed in `f32`, where every intermediate is an exact
    /// integer below 2^15: the payload is the code's low `p` bits (`code`
    /// plus `2^p` when negative), the flag adds `2^p`.
    #[inline(always)]
    fn encode_element(&self, x: f32) -> (u8, i32) {
        let (fine, code) = self.lanes.lane(x);
        let neg = code < 0.0;
        let [[fine_neg, fine_pos], [coarse_neg, coarse_pos]] = self.scale;
        let pow2 = match (fine, neg) {
            (true, true) => fine_neg,
            (true, false) => fine_pos,
            (false, true) => coarse_neg,
            (false, false) => coarse_pos,
        };
        let flag = self.flag;
        let payload = if neg { code + flag } else { code };
        let byte = if fine { payload + flag } else { payload };
        (small_int(byte) as u8, small_int(code * pow2))
    }

    /// Encodes a whole tensor to QUB bytes (row-major, one byte per value).
    ///
    /// The same pass emits the pre-shifted `i16` panel
    /// ([`QubTensor::preshifted`], padded like it) onto the result, so a
    /// GEMM operand is never decoded back from its bytes.
    pub fn encode_tensor(&self, t: &Tensor) -> QubTensor {
        let _span = quq_obs::span("qub.encode");
        let x = t.data();
        let kernels = EncodeKernels::resolve();
        let mut bytes = vec![0u8; x.len()];
        let panel = match *t.shape() {
            [rows, k] => {
                let kp = padded_k(k);
                let mut panel = vec![0i16; rows * kp];
                for ((x, bytes), panel) in x
                    .chunks_exact(k.max(1))
                    .zip(bytes.chunks_exact_mut(k.max(1)))
                    .zip(panel.chunks_exact_mut(kp.max(1)))
                {
                    kernels.bytes_i16(self, x, bytes, &mut panel[..k]);
                }
                I16Tensor::from_vec(panel, &[rows, kp])
            }
            _ => {
                let mut panel = vec![0i16; x.len()];
                kernels.bytes_i16(self, x, &mut bytes, &mut panel);
                I16Tensor::from_vec(panel, t.shape())
            }
        };
        let qt = QubTensor::new(
            bytes,
            t.shape().to_vec(),
            self.fc,
            self.params.bits(),
            self.base_delta(),
        );
        let _ = qt.panel.0.set(Arc::new(panel.expect("sized")));
        qt
    }

    /// Encodes a whole tensor straight to its pre-shifted integers
    /// `D << n_sh` (units of `Δ_base`) — the SFU load path. Equals
    /// `encode_tensor(t).decode_scaled()` without the bytes.
    pub fn encode_scaled(&self, t: &Tensor) -> IntTensor {
        let _span = quq_obs::span("qub.encode");
        let mut out = vec![0i32; t.len()];
        EncodeKernels::resolve().i32(self, t.data(), &mut out);
        IntTensor::from_vec(out, t.shape()).expect("sized")
    }
}

/// An integer-valued `v` with `|v| < 2^22` as `i32`: after adding
/// 1.5·2^23 the integer sits in the low mantissa bits. Unlike `as i32`,
/// whose saturation LLVM lowers lane by lane, this stays one vector add and
/// one integer subtract.
#[inline(always)]
fn small_int(v: f32) -> i32 {
    const SHIFTER: f32 = 12_582_912.0;
    (v + SHIFTER).to_bits() as i32 - SHIFTER.to_bits() as i32
}

/// Runs [`QubCodec::encode_element`] over `x`, writing bytes and `i16`
/// pre-shifted values. Inlined into each per-ISA wrapper below, so one
/// element function is compiled once per lane width.
#[inline(always)]
fn bytes_i16_body(codec: &QubCodec, x: &[f32], bytes: &mut [u8], panel: &mut [i16]) {
    // A local copy keeps the constants in registers: selects between
    // fields behind a reference compile to per-lane gathers instead.
    let codec = *codec;
    let (bytes, panel) = (&mut bytes[..x.len()], &mut panel[..x.len()]);
    for i in 0..x.len() {
        let (b, v) = codec.encode_element(x[i]);
        bytes[i] = b;
        panel[i] = v as i16;
    }
}

/// Runs [`QubCodec::encode_element`] over `x`, writing `i32` pre-shifted
/// values only.
#[inline(always)]
fn i32_body(codec: &QubCodec, x: &[f32], out: &mut [i32]) {
    let codec = *codec;
    let out = &mut out[..x.len()];
    for i in 0..x.len() {
        out[i] = codec.encode_element(x[i]).1;
    }
}

/// Stamps one ISA's encode wrappers: the shared bodies compiled with that
/// ISA's target features, so the loop vectorizes to its lane width.
macro_rules! encode_wrappers {
    ($name:ident $(, $feat:literal)?) => {
        mod $name {
            use super::QubCodec;

            /// # Safety
            ///
            /// The host must support this ISA's target features.
            $(#[target_feature(enable = $feat)])?
            pub(super) unsafe fn bytes_i16(
                codec: &QubCodec,
                x: &[f32],
                bytes: &mut [u8],
                panel: &mut [i16],
            ) {
                super::bytes_i16_body(codec, x, bytes, panel)
            }

            /// # Safety
            ///
            /// The host must support this ISA's target features.
            $(#[target_feature(enable = $feat)])?
            pub(super) unsafe fn i32(codec: &QubCodec, x: &[f32], out: &mut [i32]) {
                super::i32_body(codec, x, out)
            }
        }
    };
}

encode_wrappers!(portable);
#[cfg(target_arch = "x86_64")]
encode_wrappers!(avx2, "avx2");
#[cfg(target_arch = "x86_64")]
encode_wrappers!(avx512, "avx512f,avx512bw");
#[cfg(target_arch = "aarch64")]
encode_wrappers!(neon, "neon");

/// The encode loops compiled for one ISA.
#[derive(Clone, Copy)]
struct EncodeKernels {
    bytes_i16: unsafe fn(&QubCodec, &[f32], &mut [u8], &mut [i16]),
    i32: unsafe fn(&QubCodec, &[f32], &mut [i32]),
}

impl EncodeKernels {
    /// The loops for `isa`.
    ///
    /// # Panics
    ///
    /// Panics when the host does not support `isa`: the wrappers' target
    /// features must be present for the calls below to be sound.
    fn for_isa(isa: Isa) -> Self {
        assert!(
            isa::supported().contains(&isa),
            "{} encode requested on a host without it",
            isa.name()
        );
        match isa {
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2 => Self {
                bytes_i16: avx2::bytes_i16,
                i32: avx2::i32,
            },
            #[cfg(target_arch = "x86_64")]
            Isa::Avx512 | Isa::Avx512Vnni => Self {
                bytes_i16: avx512::bytes_i16,
                i32: avx512::i32,
            },
            #[cfg(target_arch = "aarch64")]
            Isa::Neon => Self {
                bytes_i16: neon::bytes_i16,
                i32: neon::i32,
            },
            _ => Self {
                bytes_i16: portable::bytes_i16,
                i32: portable::i32,
            },
        }
    }

    /// The loops for [`isa::resolve`]: the best supported ISA, or the one
    /// `QUQ_FORCE_ISA` pins (the same choice the GEMM makes).
    fn resolve() -> Self {
        Self::for_isa(isa::resolve())
    }

    fn bytes_i16(self, codec: &QubCodec, x: &[f32], bytes: &mut [u8], panel: &mut [i16]) {
        // SAFETY: `for_isa` built these loops only after checking the host
        // supports their ISA, so their target features are present.
        unsafe { (self.bytes_i16)(codec, x, bytes, panel) }
    }

    fn i32(self, codec: &QubCodec, x: &[f32], out: &mut [i32]) {
        // SAFETY: as in `bytes_i16`.
        unsafe { (self.i32)(codec, x, out) }
    }
}

/// Row stride of a rank-2 pre-shifted panel with `k` logical columns:
/// `k` rounded up to [`PANEL_K_ALIGN`].
fn padded_k(k: usize) -> usize {
    k.div_ceil(PANEL_K_ALIGN.max(1)) * PANEL_K_ALIGN
}

/// Stateless QUB decode: byte + FC registers + bit-width only (what the
/// hardware DU computes).
pub fn decode_qub(qub: u8, fc: FcRegisters, bits: u32) -> Decoded {
    let p = bits - 1;
    let flag_fine = (qub >> p) & 1 == 1;
    let payload = (qub & ((1u16 << p) as u8).wrapping_sub(1)) as i32;
    let reg = if flag_fine { fc.fine } else { fc.coarse };
    let split = reg & 0x80 != 0;
    let d = if split {
        // Signed p-bit payload: sign-extend from bit p−1.
        if payload & (1 << (p - 1)) != 0 {
            payload - (1 << p)
        } else {
            payload
        }
    } else if reg & 0x40 != 0 {
        // Merged negative: {1, payload} as (p+1)-bit two's complement.
        payload - (1 << p)
    } else {
        // Merged positive: plain unsigned payload.
        payload
    };
    let n_sh = if d < 0 { (reg >> 3) & 0x7 } else { reg & 0x7 } as u32;
    Decoded { d, n_sh }
}

/// Builds the pre-shift decode table for one `(FC, b)` description: entry
/// `q` is `decode_qub(q).scaled()` narrowed to the `i16` panel format. A
/// QUB stream decodes by indexing this table — the software analogue of the
/// hardware decoding unit's combinational output, amortized over the whole
/// tensor.
///
/// # Panics
///
/// Panics when any pre-shifted value exceeds the `i16` range, which Eq. 4
/// rules out for b ≤ 8 (see [`Decoded::scaled`]).
pub fn preshift_lut(fc: FcRegisters, bits: u32) -> Vec<i16> {
    quq_obs::add("qub.lut_builds", 1);
    (0..1u32 << bits)
        .map(|q| {
            let v = decode_qub(q as u8, fc, bits).scaled();
            i16::try_from(v).expect("pre-shifted QUB value must fit the i16 panel format")
        })
        .collect()
}

/// Lazily-built pre-shifted decode panel attached to a [`QubTensor`].
///
/// The panel is derived data (a pure function of bytes + FC + bits), so the
/// cache is invisible to equality, survives clones, and is shared across
/// threads once built. Layer weights in particular are decoded once per
/// model rather than once per image per GEMM.
#[derive(Debug, Default)]
pub struct DecodeCache(OnceLock<Arc<I16Tensor>>);

impl Clone for DecodeCache {
    fn clone(&self) -> Self {
        let fresh = OnceLock::new();
        if let Some(panel) = self.0.get() {
            let _ = fresh.set(Arc::clone(panel));
        }
        Self(fresh)
    }
}

impl PartialEq for DecodeCache {
    fn eq(&self, _other: &Self) -> bool {
        // Derived data: two tensors with equal bytes/FC/bits always decode
        // to the same panel, so cache state never distinguishes tensors.
        true
    }
}

/// A tensor of QUB bytes plus the sideband data a consumer needs: FC
/// registers, bit-width and base scale. This is exactly the wire format the
/// accelerator streams (paper Fig. 5/6).
#[derive(Debug, Clone, PartialEq)]
pub struct QubTensor {
    /// QUB bytes, row-major.
    pub bytes: Vec<u8>,
    /// Logical shape.
    pub shape: Vec<usize>,
    /// Per-tensor FC registers.
    pub fc: FcRegisters,
    /// QUB bit-width `b`.
    pub bits: u32,
    /// Base scale factor `Δ`.
    pub base_delta: f32,
    /// Lazily-built pre-shifted decode panel (derived, never serialized).
    pub(crate) panel: DecodeCache,
}

impl QubTensor {
    /// Assembles a tensor from its wire parts.
    ///
    /// # Panics
    ///
    /// Panics when `bytes.len()` differs from the product of `shape`.
    pub fn new(
        bytes: Vec<u8>,
        shape: Vec<usize>,
        fc: FcRegisters,
        bits: u32,
        base_delta: f32,
    ) -> Self {
        assert_eq!(
            bytes.len(),
            shape.iter().product::<usize>(),
            "byte count must match shape"
        );
        Self {
            bytes,
            shape,
            fc,
            bits,
            base_delta,
            panel: DecodeCache::default(),
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// Whether the tensor is empty.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// Decodes every byte to `D · 2^{n_sh}` integers (units of `Δ_base`).
    pub fn decode_scaled(&self) -> IntTensor {
        self.decode_preshifted().to_i32()
    }

    /// Decodes every byte to `(D, n_sh)` pairs.
    pub fn decode_pairs(&self) -> Vec<Decoded> {
        self.bytes
            .iter()
            .map(|&b| decode_qub(b, self.fc, self.bits))
            .collect()
    }

    /// Decodes every byte to a pre-shifted packed panel: `D << n_sh` stored
    /// as `i16` (2 bytes/element, no shift left for the inner loop). Decode
    /// goes through [`preshift_lut`], one table index per element.
    pub fn decode_preshifted(&self) -> I16Tensor {
        let _span = quq_obs::span("qub.decode_preshifted");
        let lut = preshift_lut(self.fc, self.bits);
        let data = self.bytes.iter().map(|&b| lut[b as usize]).collect();
        I16Tensor::from_vec(data, &self.shape).expect("sized")
    }

    /// The pre-shifted packed panel, cached per tensor (interior-mutable;
    /// shared by clones made after it is set). [`QubCodec::encode_tensor`]
    /// emits it alongside the bytes, so encoded operands never decode;
    /// tensors assembled from wire bytes (a stored artifact) decode at most
    /// once. The integer GEMM path calls this for both operands.
    ///
    /// Rank-2 panels are stored with their row stride zero-padded up to
    /// [`quq_tensor::linalg::PANEL_K_ALIGN`] elements (the widest SIMD
    /// step), so the GEMM's vector main loops never touch a remainder
    /// path. The pad contributes exactly `0` to every dot product; the
    /// logical tensor ([`QubTensor::decode_preshifted`], and through it
    /// the SFU-side `decode_scaled`) stays unpadded. The padded stride is
    /// the panel's `shape()[1]`.
    pub fn preshifted(&self) -> Arc<I16Tensor> {
        Arc::clone(self.panel.0.get_or_init(|| {
            let unpadded = self.decode_preshifted();
            let &[rows, k] = unpadded.shape() else {
                return Arc::new(unpadded);
            };
            let kp = padded_k(k);
            if kp == k {
                return Arc::new(unpadded);
            }
            let mut padded = vec![0i16; rows * kp];
            for (src, dst) in unpadded
                .data()
                .chunks_exact(k)
                .zip(padded.chunks_exact_mut(kp))
            {
                dst[..k].copy_from_slice(src);
            }
            Arc::new(I16Tensor::from_vec(padded, &[rows, kp]).expect("sized"))
        }))
    }

    /// Reconstructs the real-valued tensor.
    pub fn dequantize(&self) -> Tensor {
        self.decode_scaled().to_f32(self.base_delta)
    }

    /// Memory footprint in bits (payload only, excluding the two FC
    /// registers and the base scale): `len · b`.
    pub fn payload_bits_total(&self) -> usize {
        self.len() * self.bits as usize
    }
}

#[cfg(test)]
mod encode_equivalence;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relax::Pra;
    use crate::scheme::SpaceLayout;
    use quq_tensor::rng::OutlierMixture;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn all_mode_params(bits: u32) -> Vec<QuqParams> {
        vec![
            // Mode A
            QuqParams::new(
                bits,
                SpaceLayout::Split {
                    neg: 0.01,
                    pos: 0.02,
                },
                SpaceLayout::Split {
                    neg: 0.16,
                    pos: 0.08,
                },
            )
            .unwrap(),
            // Mode B (positive)
            QuqParams::new(
                bits,
                SpaceLayout::MergedPos { delta: 0.01 },
                SpaceLayout::MergedPos { delta: 0.08 },
            )
            .unwrap(),
            // Mode B (negative)
            QuqParams::new(
                bits,
                SpaceLayout::MergedNeg { delta: 0.01 },
                SpaceLayout::MergedNeg { delta: 0.04 },
            )
            .unwrap(),
            // Mode C
            QuqParams::new(
                bits,
                SpaceLayout::Split {
                    neg: 0.04,
                    pos: 0.01,
                },
                SpaceLayout::MergedPos { delta: 0.08 },
            )
            .unwrap(),
            // Mode D / uniform
            QuqParams::uniform(bits, 0.05).unwrap(),
        ]
    }

    #[test]
    fn fc_registers_encode_layout() {
        let p = QuqParams::new(
            8,
            SpaceLayout::Split {
                neg: 0.01,
                pos: 0.02,
            },
            SpaceLayout::Split {
                neg: 0.16,
                pos: 0.08,
            },
        )
        .unwrap();
        let fc = FcRegisters::from_params(&p);
        // Fine: split, shifts (0, 1) → 1000_0001.
        assert_eq!(fc.fine, 0b1000_0001);
        // Coarse: split, shifts (4, 3) → 1010_0011.
        assert_eq!(fc.coarse, 0b1010_0011);
    }

    #[test]
    fn fc_registers_merged_sides() {
        let p = QuqParams::new(
            8,
            SpaceLayout::MergedNeg { delta: 0.02 },
            SpaceLayout::MergedNeg { delta: 0.08 },
        )
        .unwrap();
        let fc = FcRegisters::from_params(&p);
        assert_eq!(fc.fine, 0b0100_0000); // merged-neg, shift 0 in bits 5..3
        assert_eq!(fc.coarse, 0b0101_0000); // merged-neg, shift 2
    }

    #[test]
    fn roundtrip_code_to_byte_to_decoded_all_modes_all_bits() {
        for bits in [4u32, 6, 8] {
            for params in all_mode_params(bits) {
                let codec = QubCodec::new(params);
                // Sweep a dense grid of values including extremes.
                for i in -3000..3000 {
                    let x = i as f32 * 0.004;
                    let code = params.quantize(x);
                    let byte = codec.encode(code);
                    // The byte fits in b bits.
                    assert!(
                        (byte as u32) < (1u32 << bits),
                        "byte {byte} overflows {bits} bits"
                    );
                    let dec = codec.decode(byte);
                    assert_eq!(dec.d, code.code, "D mismatch at x = {x} ({params:?})");
                    assert_eq!(
                        dec.n_sh,
                        params.shift_for(code),
                        "shift mismatch at x = {x}"
                    );
                    // Eq. 7: the reconstructed value matches dequantize.
                    let recon = dec.scaled() as f32 * codec.base_delta();
                    let expect = params.dequantize(code);
                    assert!(
                        (recon - expect).abs() <= 1e-5 * expect.abs().max(1.0),
                        "value mismatch at {x}: {recon} vs {expect}"
                    );
                }
            }
        }
    }

    #[test]
    fn exhaustive_byte_decode_is_total_for_8_bit() {
        // Every possible byte must decode without panicking for every mode,
        // and D must fit an i8-like range (the paper's 8-bit signed claim).
        for params in all_mode_params(8) {
            let codec = QubCodec::new(params);
            for byte in 0..=255u8 {
                let dec = codec.decode(byte);
                assert!(
                    (-128..=127).contains(&dec.d),
                    "D = {} out of i8 range",
                    dec.d
                );
                assert!(dec.n_sh <= 7);
            }
        }
    }

    #[test]
    fn decoded_d_fits_signed_bits_wide_multiplier() {
        // §4.1: a b-bit signed multiplier accommodates QUBs in any mode.
        for bits in [4u32, 6, 8] {
            let lo = -(1i32 << (bits - 1));
            let hi = (1i32 << (bits - 1)) - 1;
            for params in all_mode_params(bits) {
                let codec = QubCodec::new(params);
                for byte in 0..(1u16 << bits) {
                    let dec = codec.decode(byte as u8);
                    assert!(
                        dec.d >= lo && dec.d <= hi,
                        "{bits}-bit D = {} outside [{lo}, {hi}]",
                        dec.d
                    );
                }
            }
        }
    }

    #[test]
    fn tensor_roundtrip_preserves_fake_quantization() {
        let mut rng = StdRng::seed_from_u64(9);
        let values = OutlierMixture::new(0.05, 0.8, 0.02).sample_vec(&mut rng, 4096);
        let params = Pra::with_defaults(8).run(&values).params;
        let codec = QubCodec::new(params);
        let t = Tensor::from_vec(values.clone(), &[64, 64]).unwrap();
        let qt = codec.encode_tensor(&t);
        assert_eq!(qt.len(), 4096);
        assert_eq!(qt.payload_bits_total(), 4096 * 8);
        let back = qt.dequantize();
        let direct = params.fake_quantize_tensor(&t);
        for (a, b) in back.data().iter().zip(direct.data()) {
            assert!((a - b).abs() <= 1e-4 * b.abs().max(1.0), "{a} vs {b}");
        }
    }

    #[test]
    fn preshifted_panel_matches_pairwise_decode() {
        for bits in [4u32, 6, 8] {
            for params in all_mode_params(bits) {
                let codec = QubCodec::new(params);
                let mut rng = StdRng::seed_from_u64(41);
                let vals = OutlierMixture::new(0.05, 0.6, 0.02).sample_vec(&mut rng, 256);
                let qt = codec.encode_tensor(&Tensor::from_vec(vals, &[16, 16]).unwrap());
                let panel = qt.decode_preshifted();
                let pairs = qt.decode_pairs();
                assert_eq!(panel.len(), pairs.len());
                for (p, d) in panel.data().iter().zip(&pairs) {
                    assert_eq!(*p as i32, d.scaled(), "bits {bits}");
                }
                // And the i32 path agrees elementwise.
                assert_eq!(qt.decode_scaled().data(), panel.to_i32().data());
            }
        }
    }

    #[test]
    fn preshift_lut_covers_every_byte() {
        for bits in [4u32, 6, 8] {
            for params in all_mode_params(bits) {
                let codec = QubCodec::new(params);
                let lut = preshift_lut(codec.fc(), bits);
                assert_eq!(lut.len(), 1 << bits);
                for (q, &v) in lut.iter().enumerate() {
                    assert_eq!(v as i32, codec.decode(q as u8).scaled());
                }
            }
        }
    }

    #[test]
    fn preshifted_cache_decodes_once_and_survives_clones() {
        let params = QuqParams::uniform(8, 0.25).unwrap();
        let codec = QubCodec::new(params);
        let t = Tensor::from_vec(vec![0.25, -0.5, 1.0, 0.0], &[2, 2]).unwrap();
        let qt = codec.encode_tensor(&t);
        let first = qt.preshifted();
        let second = qt.preshifted();
        assert!(Arc::ptr_eq(&first, &second), "cache must hit");
        // A clone made after the first decode shares the same panel.
        let cloned = qt.clone();
        assert!(Arc::ptr_eq(&first, &cloned.preshifted()));
        // Cache state never affects equality.
        let fresh = codec.encode_tensor(&t);
        assert_eq!(fresh, qt);
    }

    #[test]
    #[should_panic(expected = "byte count")]
    fn qub_tensor_new_rejects_shape_mismatch() {
        let fc = FcRegisters { fine: 0, coarse: 0 };
        let _ = QubTensor::new(vec![0u8; 3], vec![2, 2], fc, 8, 0.1);
    }

    #[test]
    fn six_bit_qub_uses_low_six_bits() {
        let params = Pra::with_defaults(6)
            .run(&[-1.0, -0.02, 0.01, 0.03, 1.2])
            .params;
        let codec = QubCodec::new(params);
        let t = Tensor::from_vec(vec![-1.0, 0.0, 0.5], &[3]).unwrap();
        let qt = codec.encode_tensor(&t);
        assert!(qt.bytes.iter().all(|&b| b < 64));
    }
}
