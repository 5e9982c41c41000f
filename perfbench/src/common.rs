//! The fixed system under test and the bookkeeping every workload shares:
//! model and calibration settings, seeded image sets, per-phase tallies and
//! the metric list a run reports.

use quq_core::pipeline::{calibrate, PtqConfig, PtqTables};
use quq_core::quantizer::QuqMethod;
use quq_vit::{Dataset, ModelConfig, ModelId, VitModel};
use std::time::Instant;

/// Weight-synthesis seed of the model under test.
pub const MODEL_SEED: u64 = 20240623;

/// The integer ViT-S under test, weights synthesized in memory.
pub fn vit_s() -> VitModel {
    VitModel::synthesize(ModelConfig::eval_scale(ModelId::VitS), MODEL_SEED)
}

/// The small model the front-end workload serves.
pub fn test_model() -> VitModel {
    VitModel::synthesize(ModelConfig::test_config(), MODEL_SEED)
}

/// Calibrates `model` with QUQ (no optimization) at full W6A6.
///
/// # Panics
///
/// Panics if calibration fails (it does not on the fixed models).
pub fn calibrate_w6a6(model: &VitModel) -> PtqTables {
    let calib = Dataset::calibration(model.config(), 4, 3);
    calibrate(
        &QuqMethod::without_optimization(),
        model,
        &calib,
        PtqConfig::full_w6a6(),
    )
    .expect("calibration")
}

/// A seeded, teacher-labeled image set: the workload's only input.
///
/// # Panics
///
/// Panics if the FP32 labeling forward fails (it does not).
pub fn image_set(model: &VitModel, n: usize, seed: u64) -> Dataset {
    Dataset::teacher_labeled(model, n, seed).expect("image set")
}

/// Bit patterns of a logits vector, for exact comparison.
pub fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Seconds since `t0`.
pub fn secs(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64()
}

/// Outcome counts of one workload phase.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Tally {
    /// Phase name.
    pub phase: String,
    /// Images or requests attempted.
    pub attempted: u64,
    /// Transport errors, ERROR replies, missing replies and logits that
    /// are not bit-identical to the reference.
    pub failed: u64,
    /// OVERLOADED and DEADLINE refusals (not failures).
    pub refused: u64,
}

impl Tally {
    /// An empty tally for `phase`.
    pub fn new(phase: &str) -> Self {
        Self {
            phase: phase.to_string(),
            ..Self::default()
        }
    }
}

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as printed and as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Samples the value was computed from.
    pub samples: usize,
    /// What the value is on this workload.
    pub note: String,
}

/// Everything one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Reported metrics: end-to-end ones, the issue-named aliases, and in
    /// a traced run the per-layer ones.
    pub metrics: Vec<Metric>,
    /// Per-phase outcome counts.
    pub tallies: Vec<Tally>,
    /// Output or validity checks that failed, human-readable.
    pub problems: Vec<String>,
    /// Set-up repetitions each took this long, seconds.
    pub setups: Vec<f64>,
}

impl Outcome {
    /// Adds a metric.
    pub fn push(&mut self, name: &str, value: f64, unit: &'static str, samples: usize, note: &str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
            samples,
            note: note.to_string(),
        });
    }

    /// The metric called `name`, if reported.
    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// Records a failed check.
    pub fn problem(&mut self, msg: impl Into<String>) {
        self.problems.push(msg.into());
    }
}
