//! The lane encoder against the per-element search it replaced.
//!
//! [`oracle`] is the closure-based body `QuqParams::quantize` had before the
//! branch-free [`crate::scheme::LaneQuantizer`], with one change: finite
//! values beyond the representable range clip to the extreme codes, as
//! infinities always did. Every test here demands byte-for-byte agreement
//! on every ISA the host supports, plus agreement of the directly emitted
//! `i16` panel and `i32` SFU integers with a decode of those bytes.
//!
//! `QUQ_FORCE_ISA` additionally pins the ISA [`QubCodec::encode_tensor`]
//! resolves, so `scripts/check.sh` runs this module once per ISA.

use super::*;
use crate::relax::Pra;
use crate::scheme::{QuqCode, QuqParams, SpaceLayout};
use proptest::prelude::*;
use quq_tensor::rng::OutlierMixture;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The reference quantizer: nearest of the fine candidate, the coarse
/// candidate and the zero code, searched with a closure.
fn oracle(params: &QuqParams, x: f32) -> QuqCode {
    if x.is_nan() {
        return params.nearest_to_zero();
    }
    let beyond_max = params.max_representable().is_some_and(|m| x > m);
    let beyond_min = params.min_representable().is_some_and(|m| x < m);
    if x.is_infinite() || beyond_max || beyond_min {
        return params.extreme_code(x > 0.0);
    }
    let p = params.payload_bits();
    let neg = x < 0.0;
    let pick = |space: &SpaceLayout| -> Option<(f32, (i32, i32))> {
        if neg {
            Some((space.neg_delta()?, space.neg_code_range(p)?))
        } else {
            Some((space.pos_delta()?, space.pos_code_range(p)?))
        }
    };
    let mut best: Option<(QuqCode, f32, f32)> = None; // (code, err, |value|)
    let mut consider = |code: QuqCode, value: f32| {
        let err = (x - value).abs();
        let mag = value.abs();
        let better = match &best {
            None => true,
            // Tie-break toward the smaller magnitude (the zero side),
            // then toward the fine space for determinism.
            Some((bc, berr, bmag)) => {
                err < *berr - 1e-12
                    || ((err - *berr).abs() <= 1e-12
                        && (mag < *bmag || (mag == *bmag && code.fine && !bc.fine)))
            }
        };
        if better {
            best = Some((code, err, mag));
        }
    };
    for (is_fine, space) in [(true, &params.fine()), (false, &params.coarse())] {
        if let Some((d, (lo, hi))) = pick(space) {
            let c = ((x / d).round_ties_even() as i64).clamp(lo as i64, hi as i64) as i32;
            consider(
                QuqCode {
                    fine: is_fine,
                    code: c,
                },
                c as f32 * d,
            );
        }
    }
    let zero = params.nearest_to_zero();
    consider(zero, params.dequantize(zero));
    best.expect("at least the zero candidate exists").0
}

/// Modes A, B±, C (coarse merged to either side) and D at `bits`.
fn mode_params(bits: u32) -> Vec<QuqParams> {
    let split = |neg, pos| SpaceLayout::Split { neg, pos };
    [
        (split(0.01, 0.02), split(0.16, 0.16)),
        (split(0.01, 0.02), split(0.16, 0.08)),
        (
            SpaceLayout::MergedPos { delta: 0.01 },
            SpaceLayout::MergedPos { delta: 0.08 },
        ),
        (
            SpaceLayout::MergedNeg { delta: 0.01 },
            SpaceLayout::MergedNeg { delta: 0.04 },
        ),
        (split(0.04, 0.01), SpaceLayout::MergedPos { delta: 0.08 }),
        (split(0.01, 0.02), SpaceLayout::MergedNeg { delta: 1.28 }),
        (
            SpaceLayout::MergedPos { delta: 0.05 },
            SpaceLayout::MergedNeg { delta: 0.05 },
        ),
        (
            SpaceLayout::MergedNeg { delta: 0.03 },
            SpaceLayout::MergedPos { delta: 0.24 },
        ),
    ]
    .into_iter()
    .map(|(fine, coarse)| QuqParams::new(bits, fine, coarse).unwrap())
    .collect()
}

fn all_mode_params() -> Vec<QuqParams> {
    (2..=8).flat_map(mode_params).collect()
}

/// `x` moved `n` ulps along the total order of finite floats.
fn ulps(x: f32, n: i32) -> f32 {
    let key = |v: f32| {
        let b = v.to_bits() as i32;
        if b < 0 {
            i32::MIN - b
        } else {
            b
        }
    };
    let k = key(x).saturating_add(n);
    let b = if k < 0 { i32::MIN - k } else { k };
    f32::from_bits(b as u32)
}

/// Special values, plus ±64 ulps around each of them, every quantization
/// point, every midpoint between adjacent points, and every midpoint of
/// each subrange's own grid (its rounding boundaries, one step past each
/// end included).
fn edge_values(params: &QuqParams) -> Vec<f32> {
    let mut centers = vec![
        0.0f32,
        -0.0,
        f32::MIN_POSITIVE,
        -f32::MIN_POSITIVE,
        f32::MAX,
        f32::MIN,
    ];
    let points = params.quantization_points();
    centers.extend(&points);
    centers.extend(points.windows(2).map(|w| (w[0] + w[1]) / 2.0));
    let p = params.payload_bits();
    for space in [params.fine(), params.coarse()] {
        let sides = [
            space.neg_delta().zip(space.neg_code_range(p)),
            space.pos_delta().zip(space.pos_code_range(p)),
        ];
        for (d, (lo, hi)) in sides.into_iter().flatten() {
            centers.extend((lo - 1..=hi).map(|c| (c as f32 + 0.5) * d));
        }
    }
    let mut values = vec![
        f32::NAN,
        -f32::NAN,
        f32::from_bits(0x7fc0_0001),
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::from_bits(1),
        f32::from_bits(0x8000_0001),
        f32::from_bits(0x007f_ffff),
        -1e-40,
    ];
    for c in centers {
        values.extend((-64..=64).map(|n| ulps(c, n)));
    }
    values
}

/// Asserts every encoder agrees with [`oracle`] on `values`: the scalar
/// `quantize`, the byte and pre-shifted outputs of each supported ISA's
/// loops, and `encode_tensor`/`encode_scaled` on the resolved ISA.
fn check_against_oracle(params: &QuqParams, values: &[f32]) {
    let codec = QubCodec::new(*params);
    let want: Vec<u8> = values
        .iter()
        .map(|&x| codec.encode(oracle(params, x)))
        .collect();
    for (&x, &w) in values.iter().zip(&want) {
        let got = params.quantize(x);
        assert_eq!(
            codec.encode(got),
            w,
            "quantize({x:e}) = {got:?}, oracle {:?} ({params:?})",
            oracle(params, x)
        );
    }
    let want_scaled: Vec<i32> = want.iter().map(|&b| codec.decode(b).scaled()).collect();
    for &isa in isa::supported() {
        let kernels = EncodeKernels::for_isa(isa);
        let mut bytes = vec![0u8; values.len()];
        let mut panel = vec![0i16; values.len()];
        let mut ints = vec![0i32; values.len()];
        kernels.bytes_i16(&codec, values, &mut bytes, &mut panel);
        kernels.i32(&codec, values, &mut ints);
        for i in 0..values.len() {
            assert_eq!(
                (bytes[i], panel[i] as i32, ints[i]),
                (want[i], want_scaled[i], want_scaled[i]),
                "{}: x = {:e} ({params:?})",
                isa.name(),
                values[i]
            );
        }
    }
    let t = Tensor::from_vec(values.to_vec(), &[values.len()]).unwrap();
    let qt = codec.encode_tensor(&t);
    assert_eq!(qt.bytes, want);
    assert_eq!(qt.preshifted().data(), qt.decode_preshifted().data());
    assert_eq!(codec.encode_scaled(&t).data(), &want_scaled[..]);
}

#[test]
fn oracle_clips_huge_finite_values() {
    let params = mode_params(8)[0];
    assert_eq!(oracle(&params, 1e9), oracle(&params, f32::INFINITY));
    assert_eq!(
        oracle(&params, 1e9),
        QuqCode {
            fine: false,
            code: 63
        }
    );
    assert_eq!(oracle(&params, -1e9), oracle(&params, f32::NEG_INFINITY));
}

#[test]
fn lane_encoders_match_oracle_on_edge_values() {
    for params in all_mode_params() {
        check_against_oracle(&params, &edge_values(&params));
    }
}

/// Tiny scales put candidate errors inside the 1e-12 tie window; huge ones
/// reach f32 overflow (at 2.5e36 some extreme codes dequantize to ±∞).
#[test]
fn lane_encoders_match_oracle_at_extreme_scales() {
    for factor in [1e-9f32, 2.5e36] {
        for params in mode_params(3).into_iter().chain(mode_params(8)) {
            let params = params.scaled(factor);
            check_against_oracle(&params, &edge_values(&params));
        }
    }
}

#[test]
fn every_remainder_lane_matches() {
    let mut rng = StdRng::seed_from_u64(12);
    let mix = OutlierMixture::new(0.05, 0.8, 0.02);
    for params in mode_params(6).into_iter().chain(mode_params(8)) {
        let codec = QubCodec::new(params);
        for len in 0..=33usize {
            let values = mix.sample_vec(&mut rng, len);
            check_against_oracle(&params, &values);
            // Rank 2: every row's tail lanes, and the padded panel equal to
            // the one decoded from the bytes.
            for rows in [1usize, 3] {
                let values = mix.sample_vec(&mut rng, rows * len);
                let t = Tensor::from_vec(values, &[rows, len]).unwrap();
                let emitted = codec.encode_tensor(&t);
                let decoded = QubTensor::new(
                    emitted.bytes.clone(),
                    emitted.shape.clone(),
                    emitted.fc,
                    emitted.bits,
                    emitted.base_delta,
                );
                assert_eq!(
                    emitted.preshifted().shape(),
                    decoded.preshifted().shape(),
                    "rows {rows}, len {len}"
                );
                assert_eq!(emitted.preshifted().data(), decoded.preshifted().data());
                assert_eq!(
                    codec.encode_scaled(&t).data(),
                    emitted.decode_scaled().data()
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn pra_params_match_oracle_on_random_bit_patterns(
        seed in any::<u64>(),
        bits in 2u32..=8,
        patterns in prop::collection::vec(any::<u32>(), 0..300),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let outlier = rng.gen_range(0.0f32..0.2);
        let samples = OutlierMixture::new(outlier, 2.0, 0.05).sample_vec(&mut rng, 256);
        let params = Pra::with_defaults(bits).run(&samples).params;
        let mut values: Vec<f32> = patterns.into_iter().map(f32::from_bits).collect();
        // Bit patterns are mostly huge or tiny; add the calibrated range.
        values.extend(samples.iter().take(64));
        check_against_oracle(&params, &values);
    }
}

/// Every one of the 2^32 bit patterns, on a PRA fit and the Mode A set.
/// Minutes in release:
/// `cargo test --release -p quq-core -- --ignored every_f32`.
#[test]
#[ignore = "full 2^32 sweep; minutes in release"]
fn every_f32_matches_oracle() {
    let mut rng = StdRng::seed_from_u64(3);
    let samples = OutlierMixture::new(0.05, 0.8, 0.02).sample_vec(&mut rng, 4096);
    let fitted = Pra::with_defaults(6).run(&samples).params;
    for params in [fitted, mode_params(8)[0]] {
        let codec = QubCodec::new(params);
        let kernels: Vec<_> = isa::supported()
            .iter()
            .map(|&i| EncodeKernels::for_isa(i))
            .collect();
        const CHUNK: u64 = 1 << 16;
        let workers = 2u64;
        std::thread::scope(|s| {
            for w in 0..workers {
                let (codec, kernels) = (&codec, &kernels);
                s.spawn(move || {
                    let mut values = vec![0f32; CHUNK as usize];
                    let mut bytes = vec![0u8; CHUNK as usize];
                    let mut panel = vec![0i16; CHUNK as usize];
                    let mut start = w * CHUNK;
                    while start < 1 << 32 {
                        for (i, v) in values.iter_mut().enumerate() {
                            *v = f32::from_bits((start + i as u64) as u32);
                        }
                        let want: Vec<u8> = values
                            .iter()
                            .map(|&x| codec.encode(oracle(&params, x)))
                            .collect();
                        for k in kernels {
                            k.bytes_i16(codec, &values, &mut bytes, &mut panel);
                            assert_eq!(bytes, want, "chunk at {start:#x} ({params:?})");
                            for (&b, &v) in bytes.iter().zip(&panel) {
                                assert_eq!(v as i32, codec.decode(b).scaled());
                            }
                        }
                        start += workers * CHUNK;
                    }
                });
            }
        });
    }
}
