//! Golden pin of QUB encode semantics.
//!
//! Digests of every weight QUB byte and of the integer-backend logits of
//! four seeded images, recorded with the original per-element search
//! encoder. Any encoder rewrite must reproduce them exactly: perfbench only
//! compares parallel against serial runs of the *same* code, so it cannot
//! catch an encode that changes what a value quantizes to.
//!
//! `QUQ_FORCE_ISA` pins the encode kernel as well as the GEMM, so running
//! this suite once per `--list-isas` entry (as `scripts/check.sh` does)
//! checks every lane width against the same digests.
//!
//! ```text
//! cargo test -p quq-accel --test golden_pin                       # test model
//! cargo test --release -p quq-accel --test golden_pin -- --ignored  # ViT-S
//! ```

use quq_accel::IntegerBackend;
use quq_core::pipeline::{calibrate, PtqConfig};
use quq_core::{QubCodec, QuqMethod};
use quq_vit::{Dataset, ModelConfig, ModelId, VitModel};

/// FNV-1a, 64-bit: a stable digest with no dependency to pin.
fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// `(weight QUB digest, logits digest)` of `config` synthesized with
/// `model_seed`, calibrated with QUQ (no optimization) at `ptq`, and run
/// through the integer backend on four images of `image_seed`.
fn digests(config: ModelConfig, model_seed: u64, ptq: PtqConfig, image_seed: u64) -> (u64, u64) {
    let model = VitModel::synthesize(config, model_seed);
    let calib = Dataset::calibration(model.config(), 4, 3);
    let tables = calibrate(&QuqMethod::without_optimization(), &model, &calib, ptq).unwrap();

    let mut weights = FNV_OFFSET;
    let mut sites = 0;
    for (site, q) in tables.weight_quantizers() {
        let params = *q.quq_params().expect("QUQ weight fit");
        let w = tables
            .original_weight(site)
            .expect("calibration records weights");
        let qt = QubCodec::new(params).encode_tensor(w);
        fnv1a(&mut weights, &[qt.fc.fine, qt.fc.coarse, qt.bits as u8]);
        fnv1a(&mut weights, &qt.bytes);
        sites += 1;
    }
    assert!(sites > 0, "no weight sites pinned");

    let images = Dataset::calibration(model.config(), 4, image_seed);
    let mut logits = FNV_OFFSET;
    let mut be = IntegerBackend::new(&tables);
    for img in &images.images {
        let out = model.forward(img, &mut be).unwrap();
        for v in out.data() {
            fnv1a(&mut logits, &v.to_bits().to_le_bytes());
        }
    }
    (weights, logits)
}

fn check(name: &str, got: (u64, u64), want: (u64, u64)) {
    assert_eq!(
        got, want,
        "{name}: (weight QUB digest, logits digest) = ({:#018x}, {:#018x}), pinned ({:#018x}, {:#018x})",
        got.0, got.1, want.0, want.1
    );
}

#[test]
fn test_model_w8a8_digests_are_pinned() {
    let got = digests(ModelConfig::test_config(), 33, PtqConfig::full_w8a8(), 7);
    check(
        "test model W8A8",
        got,
        (0x158c_c1bb_f714_7640, 0xb16d_ed3f_181d_1d1f),
    );
}

#[test]
fn test_model_w6a6_digests_are_pinned() {
    let got = digests(ModelConfig::test_config(), 33, PtqConfig::full_w6a6(), 7);
    check(
        "test model W6A6",
        got,
        (0xf7e0_8f8d_278f_32a7, 0x3798_8634_3be2_9831),
    );
}

#[test]
#[ignore = "ViT-S scale: run in release (scripts/check.sh)"]
fn vit_s_w6a6_digests_are_pinned() {
    let got = digests(
        ModelConfig::eval_scale(ModelId::VitS),
        20240623,
        PtqConfig::full_w6a6(),
        7,
    );
    check(
        "ViT-S W6A6",
        got,
        (0x3aa6_63c8_9dac_6898, 0x8873_4673_9e59_dcd2),
    );
}
