//! `offline-int`: the integer ViT-S evaluated in memory, no server, no
//! store. Encode, GEMM, SFU and forward glue do almost all the work.
//!
//! Untraced, the run alternates `evaluate_parallel` rounds of the integer
//! backend (sharing one `WeightQubCache`) and the FP32 backend over the
//! same seeded images for the whole run. A capturing probe times each
//! image from patch embedding to head (its latency while the pool is
//! saturated) and checks every logit bit for bit against a
//! `pool::run_serial` forward of the same image.
//!
//! Traced, it times image-at-a-time forwards (so the inclusive `quq-obs`
//! histograms growing during an op belong to that op) in rounds that
//! alternate an untraced and a traced pass over the same images; the ratio
//! of their wall times is `obs.trace_overhead`.

use crate::common::{bits, calibrate_w6a6, image_set, secs, vit_s, Outcome, Tally};
use crate::layers::{self, Traced};
use crate::stats;
use crate::trace::{fingerprint, Captured, Probe, Recorder, SpanRec};
use quq_accel::{IntegerBackend, WeightQubCache};
use quq_core::pipeline::PtqTables;
use quq_tensor::pool;
use quq_vit::{evaluate_parallel, Backend, Dataset, Fp32Backend, VitModel};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Images in the seeded set (one `evaluate_parallel` round).
pub const IMAGES: usize = 32;
/// Set-up repetitions; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;
/// Integer rounds needed for a p95 per-image latency with ten samples
/// beyond it (7 × 32 = 224 images).
pub const MIN_ROUNDS: usize = 7;

struct Fixture {
    model: VitModel,
    tables: PtqTables,
    cache: Arc<WeightQubCache>,
    images: Dataset,
    /// Patch-matrix fingerprint → image index.
    index: HashMap<u64, usize>,
    int_ref: Vec<Vec<u32>>,
    fp32_ref: Vec<Vec<u32>>,
}

impl Fixture {
    fn int(&self) -> IntegerBackend<'_> {
        IntegerBackend::with_cache(&self.tables, Arc::clone(&self.cache))
    }

    /// Checks captured forwards against `reference` (every image exactly
    /// once, every logit bit-identical); returns per-image latencies, ms.
    fn check(&self, captured: &Captured, reference: &[Vec<u32>], tally: &mut Tally) -> Vec<f64> {
        let got = std::mem::take(&mut *captured.lock().expect("capture lock"));
        let mut seen = vec![0u32; reference.len()];
        for (key, logits, _) in &got {
            match self.index.get(key) {
                Some(&i) => {
                    seen[i] += 1;
                    if bits(logits) != reference[i] {
                        tally.failed += 1;
                    }
                }
                None => tally.failed += 1,
            }
        }
        tally.attempted += reference.len() as u64;
        tally.failed += seen.iter().filter(|&&c| c != 1).count() as u64;
        got.iter().map(|g| g.2 * 1e3).collect()
    }
}

/// Synthesize + calibrate + weight-cache warm: what an offline user pays
/// before the first image.
fn setup() -> (VitModel, PtqTables, Arc<WeightQubCache>) {
    let model = vit_s();
    let tables = calibrate_w6a6(&model);
    let cache = Arc::new(WeightQubCache::new());
    let warm = model.config().dummy_image(0.25);
    model
        .forward(
            &warm,
            &mut IntegerBackend::with_cache(&tables, Arc::clone(&cache)),
        )
        .expect("warm forward");
    (model, tables, cache)
}

fn fixture(seed: u64, reps: usize, out: &mut Outcome) -> Fixture {
    let mut built = None;
    for _ in 0..reps {
        let t0 = Instant::now();
        built = Some(setup());
        out.setups.push(secs(t0));
    }
    let (model, tables, cache) = built.expect("at least one set-up");
    let images = image_set(&model, IMAGES, seed);
    let index = images
        .images
        .iter()
        .enumerate()
        .map(|(i, img)| (fingerprint(&model.patchify(img)), i))
        .collect();
    let mut fx = Fixture {
        model,
        tables,
        cache,
        images,
        index,
        int_ref: Vec::new(),
        fp32_ref: Vec::new(),
    };
    let (int_ref, fp32_ref) = pool::run_serial(|| {
        let int = fx
            .images
            .images
            .iter()
            .map(|img| {
                bits(
                    fx.model
                        .forward(img, &mut fx.int())
                        .expect("forward")
                        .data(),
                )
            })
            .collect();
        let fp = fx
            .images
            .images
            .iter()
            .map(|img| {
                bits(
                    fx.model
                        .forward(img, &mut Fp32Backend::new())
                        .expect("forward")
                        .data(),
                )
            })
            .collect();
        (int, fp)
    });
    fx.int_ref = int_ref;
    fx.fp32_ref = fp32_ref;
    fx
}

/// One `evaluate_parallel` round through a capturing probe; returns img/s
/// and the per-image latencies, ms.
fn round<B: Backend, F: Fn() -> B + Sync>(
    fx: &Fixture,
    make: F,
    reference: &[Vec<u32>],
    tally: &mut Tally,
) -> (f64, Vec<f64>) {
    let cap: Captured = Arc::new(Mutex::new(Vec::new()));
    let t0 = Instant::now();
    evaluate_parallel(
        &fx.model,
        || Probe::new(make(), Some(Arc::clone(&cap)), None),
        &fx.images,
    )
    .expect("evaluate");
    let rate = IMAGES as f64 / secs(t0);
    (rate, fx.check(&cap, reference, tally))
}

/// Runs the workload; see the module docs.
pub fn run(seed: u64, seconds: f64, trace: bool) -> Outcome {
    if trace {
        return run_traced(seed, seconds);
    }
    let mut out = Outcome::default();
    let fx = fixture(seed, SETUP_REPS, &mut out);
    println!(
        "offline-int: {IMAGES} images, pool threads {}",
        pool::num_threads()
    );

    let (mut int_t, mut fp_t) = (Tally::new("int rounds"), Tally::new("fp32 rounds"));
    let (mut int_rates, mut fp_rates, mut lat) = (Vec::new(), Vec::new(), Vec::new());
    let t0 = Instant::now();
    while int_rates.len() < MIN_ROUNDS || secs(t0) < seconds {
        let (rate, ms) = round(&fx, || fx.int(), &fx.int_ref, &mut int_t);
        int_rates.push(rate);
        lat.extend(ms);
        fp_rates.push(round(&fx, Fp32Backend::new, &fx.fp32_ref, &mut fp_t).0);
    }

    let int_rate = stats::median(&int_rates).unwrap_or(0.0);
    let fp_rate = stats::median(&fp_rates).unwrap_or(0.0);
    let rounds = int_rates.len();
    out.push(
        "latency_ms",
        stats::tail(&lat, 90.0).unwrap_or(0.0),
        "ms",
        lat.len(),
        "per-image integer forward inside the rounds (patch embed → head), p90",
    );
    out.push(
        "forward_p50_ms",
        stats::median(&lat).unwrap_or(0.0),
        "ms",
        lat.len(),
        "per-image integer forward inside the rounds, median",
    );
    out.push(
        "forward_p95_ms",
        stats::tail(&lat, 95.0).unwrap_or(0.0),
        "ms",
        lat.len(),
        "per-image integer forward inside the rounds, p95",
    );
    let note =
        format!("integer backend, median of {rounds} evaluate_parallel rounds of {IMAGES} images");
    out.push("offline_int_img_per_s", int_rate, "img/s", rounds, &note);
    out.push(
        "offline_fp32_img_per_s",
        fp_rate,
        "img/s",
        fp_rates.len(),
        "fp32 backend, same images, median of rounds",
    );
    out.push(
        "int_vs_fp32",
        int_rate / fp_rate.max(f64::MIN_POSITIVE),
        "ratio",
        rounds,
        "offline_int_img_per_s ÷ offline_fp32_img_per_s (item-1 bar: ≥ 1)",
    );
    out.tallies.extend([int_t, fp_t]);
    out
}

fn run_traced(seed: u64, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    let fx = fixture(seed, 1, &mut out);
    let rec = Arc::new(Recorder::new());
    let mut tally = Tally::new("traced int");
    let (mut plain_s, mut traced_s) = (Vec::new(), Vec::new());
    let mut forwards = Vec::new();
    let before = quq_obs::snapshot();
    let t0 = Instant::now();
    while traced_s.len() < 2 || secs(t0) < 0.8 * seconds {
        let ts = Instant::now();
        for (i, img) in fx.images.images.iter().enumerate() {
            let logits = fx.model.forward(img, &mut fx.int()).expect("forward");
            tally.attempted += 1;
            tally.failed += u64::from(bits(logits.data()) != fx.int_ref[i]);
        }
        plain_s.push(secs(ts));

        quq_obs::set_enabled(true);
        let ts = Instant::now();
        for (i, img) in fx.images.images.iter().enumerate() {
            let mut probe = Probe::new(fx.int(), None, Some(Arc::clone(&rec)));
            let id = rec.reserve();
            probe.set_parent(id, i as u64);
            let start = rec.now_ns();
            let logits = fx.model.forward(img, &mut probe).expect("forward");
            let end = rec.now_ns();
            rec.record(SpanRec {
                id,
                parent: 0,
                name: "vit.forward",
                item: i as u64,
                start_ns: start,
                end_ns: end,
            });
            forwards.push((1.0, (end - start) as f64 * 1e-9));
            tally.attempted += 1;
            tally.failed += u64::from(bits(logits.data()) != fx.int_ref[i]);
        }
        traced_s.push(secs(ts));
        quq_obs::set_enabled(false);
    }
    let obs = quq_obs::snapshot().delta_since(&before);
    let ops = rec.op_totals();
    let gap = layers::model_layers(
        &mut out,
        &Traced {
            ops: &ops,
            obs: &obs,
            forwards: &forwards,
        },
    );
    if gap > layers::SELFTIME_TOLERANCE {
        out.problem(format!(
            "self-time rows miss the forward time by {:.2}%",
            gap * 100.0
        ));
    }

    // FP32 reference pass: only its GEMM time feeds a per-layer row.
    let fp_before = quq_obs::snapshot();
    quq_obs::set_enabled(true);
    let mut fp_tally = Tally::new("traced fp32");
    for (i, img) in fx.images.images.iter().enumerate() {
        let logits = fx
            .model
            .forward(img, &mut Fp32Backend::new())
            .expect("forward");
        fp_tally.attempted += 1;
        fp_tally.failed += u64::from(bits(logits.data()) != fx.fp32_ref[i]);
    }
    quq_obs::set_enabled(false);
    let fp = quq_obs::snapshot().delta_since(&fp_before);
    let fp_gemm =
        (fp.hist_sum("gemm.matmul") + fp.hist_sum("gemm.matmul_nt")) as f64 * 1e-9 / IMAGES as f64;
    if let Some(m) = out
        .metrics
        .iter_mut()
        .find(|m| m.name == "tensor.fp32_gemm_s")
    {
        m.value = fp_gemm;
        m.samples = IMAGES;
        m.note = "obs gemm.matmul + gemm.matmul_nt of the fp32 backend, per image".into();
    }

    let overhead = stats::median(&traced_s).unwrap_or(0.0) / stats::median(&plain_s).unwrap_or(1.0);
    out.push(
        "obs.trace_overhead",
        overhead,
        "ratio",
        traced_s.len(),
        "traced ÷ untraced wall time of the same image-at-a-time pass",
    );
    out.tallies.extend([tally, fp_tally]);
    crate::report::write_trace(&rec, "offline-int", seed);
    out
}
