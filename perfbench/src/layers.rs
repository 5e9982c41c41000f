//! The metric lists the benchmark reports and the per-layer builder shared
//! by every traced workload.
//!
//! Per-layer times and counts are **per image forwarded** while tracing
//! (so runs of different length compare), except where the name says
//! otherwise (`_ms` latencies, ratios, `_max`). A layer a workload bypasses
//! reports 0.

use crate::common::{Metric, Outcome};
use crate::stats;
use crate::trace::OpTotals;
use quq_obs::Snapshot;
use std::collections::BTreeMap;

/// End-to-end metrics, `(name, unit)`, reported by every untraced run.
/// Each names one quantity per workload (see the README's table): the
/// workload's headline latency, chosen as its steadiest user-visible
/// timing on a shared 2-core host, and its set-up time.
pub const END_TO_END: [(&str, &str); 2] = [("latency_ms", "ms"), ("setup_s", "s")];

/// The accel ops the probe times, as span names.
pub const OPS: [&str; 7] = [
    "accel.linear",
    "accel.matmul",
    "accel.matmul_nt",
    "accel.softmax",
    "accel.gelu",
    "accel.layer_norm",
    "accel.add",
];

/// Per-layer metrics, `(name, unit)`, listed in `BENCHMARK.json` and
/// reported on the last line of every traced run: the model-side layers,
/// which every gated workload exercises.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut v = named(&[
        ("core.encode_s", "s"),
        ("core.encode_calls", "count"),
        ("core.encode_share", "ratio"),
        ("core.decode_s", "s"),
        ("core.lut_builds", "count"),
        ("tensor.int_gemm_s", "s"),
        ("tensor.int_gemm_calls", "count"),
        ("tensor.gemm_macs", "count"),
        ("tensor.gemm_bytes", "bytes"),
        ("tensor.pool_jobs", "count"),
        ("tensor.pool_steals", "count"),
        ("tensor.tune_hit_ratio", "ratio"),
    ]);
    for op in OPS {
        v.push((format!("{op}_s"), "s"));
        v.push((format!("{op}_calls"), "count"));
        v.push((format!("{op}_self_s"), "s"));
    }
    v.extend(named(&[
        ("accel.sfu_s", "s"),
        ("accel.weight_cache_hit_ratio", "ratio"),
        ("vit.forward_s", "s"),
        ("vit.forward_tail_s", "s"),
        ("vit.glue_s", "s"),
        ("vit.batch_rows", "count"),
        ("vit.selftime_gap", "ratio"),
        ("obs.trace_overhead", "ratio"),
    ]));
    v
}

/// Per-layer metrics a traced run prints and writes to its report but
/// that are not in `BENCHMARK.json`: layers one gated workload bypasses by
/// design, so they read exactly 0 on every run of it.
pub fn report_only_layers() -> Vec<(String, &'static str)> {
    named(&[
        ("tensor.fp32_gemm_s", "s"),
        ("store.save_s", "s"),
        ("store.open_s", "s"),
        ("store.load_all_s", "s"),
        ("store.cache_fill_s", "s"),
        ("store.bytes_read", "bytes"),
        ("store.chunk_loads", "count"),
        ("serve.queue_wait_interactive_ms", "ms"),
        ("serve.queue_wait_batch_ms", "ms"),
        ("serve.batch_mean", "count"),
        ("serve.server_e2e_ms", "ms"),
        ("serve.client_overhead_ms", "ms"),
        ("serve.shed_ratio", "ratio"),
        ("serve.deadline_ratio", "ratio"),
        ("serve.queue_depth_max", "count"),
        ("serve.write_pauses", "count"),
        ("gen.lag_p50_ms", "ms"),
        ("gen.lag_max_ms", "ms"),
        ("gen.backlog_growth", "count"),
    ])
}

fn named(list: &[(&str, &'static str)]) -> Vec<(String, &'static str)> {
    list.iter().map(|&(n, u)| (n.to_string(), u)).collect()
}

/// Stated tolerance for the self-time check: the per-layer self-time rows
/// must add up to `vit.forward_s` (per image, summed) within this share.
pub const SELFTIME_TOLERANCE: f64 = 0.02;

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

fn hist_count(d: &Snapshot, name: &str) -> u64 {
    d.hists
        .iter()
        .filter(|h| h.name == name)
        .map(|h| h.count)
        .sum()
}

/// What a traced pass measured below the model: probe op totals, the
/// `quq-obs` delta over the traced window, and one `(images, seconds)`
/// entry per timed forward call.
pub struct Traced<'a> {
    /// Probe totals per accel op span name.
    pub ops: &'a BTreeMap<&'static str, OpTotals>,
    /// `quq-obs` snapshot delta over the traced window.
    pub obs: &'a Snapshot,
    /// `(images in the call, seconds)` per forward / forward_batch call.
    pub forwards: &'a [(f64, f64)],
}

/// Adds the quq-core, quq-tensor, quq-accel and quq-vit rows, per image,
/// and prints the self-time table. Returns the self-time gap.
pub fn model_layers(out: &mut Outcome, t: &Traced<'_>) -> f64 {
    let images: f64 = t.forwards.iter().map(|f| f.0).sum::<f64>().max(1.0);
    let calls = t.forwards.len();
    let per = |ns: u64| ns as f64 * 1e-9 / images;
    let mut inside = crate::trace::Inside::default();
    let mut op_span_ns = 0u64;
    for op in OPS {
        let o = t.ops.get(op).copied().unwrap_or_default();
        out.push(
            &format!("{op}_s"),
            per(o.span_ns),
            "s",
            o.calls as usize,
            "inclusive span, per image",
        );
        out.push(
            &format!("{op}_calls"),
            o.calls as f64 / images,
            "count",
            o.calls as usize,
            "per image",
        );
        out.push(
            &format!("{op}_self_s"),
            per(o.self_ns()),
            "s",
            o.calls as usize,
            "span minus core/tensor/sfu time inside it, per image",
        );
        inside.encode_ns += o.inside.encode_ns;
        inside.decode_ns += o.inside.decode_ns;
        inside.int_gemm_ns += o.inside.int_gemm_ns;
        inside.fp32_gemm_ns += o.inside.fp32_gemm_ns;
        inside.sfu_ns += o.inside.sfu_ns;
        op_span_ns += o.span_ns;
    }
    let d = t.obs;
    let forward_total: f64 = t.forwards.iter().map(|f| f.1).sum();
    let per_image: Vec<f64> = t.forwards.iter().map(|f| f.1 / f.0.max(1.0)).collect();
    let forward_s = stats::median(&per_image).unwrap_or(0.0);
    let (tail_p, tail_v) = stats::highest_tail(&per_image).unwrap_or((0.0, 0.0));
    let glue_s = (forward_total - op_span_ns as f64 * 1e-9).max(0.0) / images;

    let encode_s = per(inside.encode_ns);
    out.push(
        "core.encode_s",
        encode_s,
        "s",
        calls,
        "obs qub.encode (inclusive), per image",
    );
    out.push(
        "core.encode_calls",
        hist_count(d, "qub.encode") as f64 / images,
        "count",
        calls,
        "obs qub.encode, per image",
    );
    let mean_forward = forward_total / images;
    out.push(
        "core.encode_share",
        if mean_forward > 0.0 {
            encode_s / mean_forward
        } else {
            0.0
        },
        "ratio",
        calls,
        &format!("core.encode_s ÷ mean forward time per image ({mean_forward:.6} s)"),
    );
    out.push(
        "core.decode_s",
        per(inside.decode_ns),
        "s",
        calls,
        "obs qub.decode_preshifted (inclusive), per image",
    );
    out.push(
        "core.lut_builds",
        d.counter_total("qub.lut_builds") as f64 / images,
        "count",
        calls,
        "obs qub.lut_builds, per image",
    );
    out.push(
        "tensor.int_gemm_s",
        per(inside.int_gemm_ns),
        "s",
        calls,
        "obs gemm.i16_nt + gemm.int_matmul (inclusive), per image",
    );
    out.push(
        "tensor.int_gemm_calls",
        hist_count(d, "gemm.i16_nt") as f64 / images,
        "count",
        calls,
        "obs gemm.i16_nt, per image",
    );
    out.push(
        "tensor.gemm_macs",
        d.counter_total("gemm.macs") as f64 / images,
        "count",
        calls,
        "obs gemm.macs (from shapes), per image",
    );
    out.push(
        "tensor.gemm_bytes",
        d.counter_total("gemm.bytes") as f64 / images,
        "bytes",
        calls,
        "obs gemm.bytes (compulsory traffic from shapes), per image",
    );
    out.push(
        "tensor.fp32_gemm_s",
        per(inside.fp32_gemm_ns),
        "s",
        calls,
        "obs gemm.matmul + gemm.matmul_nt (inclusive), per image",
    );
    out.push(
        "tensor.pool_jobs",
        d.counter_total("pool.jobs") as f64 / images,
        "count",
        calls,
        "obs pool.jobs, per image",
    );
    out.push(
        "tensor.pool_steals",
        d.counter_total("pool.steals") as f64 / images,
        "count",
        calls,
        "obs pool.steals, per image",
    );
    let (hits, searches) = (
        d.counter_total("tune.hits"),
        d.counter_total("tune.searches"),
    );
    out.push(
        "tensor.tune_hit_ratio",
        ratio(hits, hits + searches),
        "ratio",
        (hits + searches) as usize,
        "tune.hits ÷ (hits + searches)",
    );
    out.push(
        "accel.sfu_s",
        per(inside.sfu_ns),
        "s",
        calls,
        "obs sfu.* (inclusive), per image",
    );
    let (wh, wm) = (
        d.counter_total("cache.weight_qub.hit"),
        d.counter_total("cache.weight_qub.miss"),
    );
    out.push(
        "accel.weight_cache_hit_ratio",
        ratio(wh, wh + wm),
        "ratio",
        (wh + wm) as usize,
        "cache.weight_qub hit ÷ (hit + miss)",
    );
    out.push(
        "vit.forward_s",
        forward_s,
        "s",
        calls,
        "median forward time per image",
    );
    out.push(
        "vit.forward_tail_s",
        tail_v,
        "s",
        calls,
        &format!("p{tail_p} forward time per image"),
    );
    out.push(
        "vit.glue_s",
        glue_s,
        "s",
        calls,
        "forward minus the sum of op spans, per image",
    );
    out.push(
        "vit.batch_rows",
        images / calls.max(1) as f64,
        "count",
        calls,
        "images per forward call",
    );

    // Self-time table: disjoint rows whose sum should be the forward time.
    let mut rows: Vec<(String, f64)> = vec![
        ("quq-core   encode".into(), encode_s),
        ("quq-core   decode".into(), per(inside.decode_ns)),
        ("quq-tensor int GEMM".into(), per(inside.int_gemm_ns)),
        ("quq-tensor f32 GEMM".into(), per(inside.fp32_gemm_ns)),
        ("quq-accel  SFU".into(), per(inside.sfu_ns)),
    ];
    for op in OPS {
        let o = t.ops.get(op).copied().unwrap_or_default();
        rows.push((format!("quq-accel  {} self", &op[6..]), per(o.self_ns())));
    }
    rows.push(("quq-vit    glue".into(), glue_s));
    let sum: f64 = rows.iter().map(|r| r.1).sum();
    let gap = if mean_forward > 0.0 {
        (sum - mean_forward).abs() / mean_forward
    } else {
        0.0
    };
    println!(
        "self-time per image (rows must sum to the forward time within {:.0}%):",
        SELFTIME_TOLERANCE * 100.0
    );
    for (name, v) in &rows {
        let share = if mean_forward > 0.0 {
            v / mean_forward * 100.0
        } else {
            0.0
        };
        println!("  {name:<28} {:>10.3} ms {share:>6.1}%", v * 1e3);
    }
    println!(
        "  {:<28} {:>10.3} ms  vs forward {:.3} ms (gap {:.2}%)",
        "sum",
        sum * 1e3,
        mean_forward * 1e3,
        gap * 100.0
    );
    out.push(
        "vit.selftime_gap",
        gap,
        "ratio",
        calls,
        "|Σ self-time rows − forward| ÷ forward",
    );
    gap
}

/// Fills every per-layer metric the workload did not report with 0: the
/// workload bypasses that layer.
pub fn fill_bypassed(out: &mut Outcome) {
    for (name, unit) in per_layer().into_iter().chain(report_only_layers()) {
        if out.get(&name).is_none() {
            out.metrics.push(Metric {
                name,
                value: 0.0,
                unit,
                samples: 0,
                note: "layer bypassed by this workload".to_string(),
            });
        }
    }
}
