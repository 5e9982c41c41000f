//! Layer-wise grid-search optimization of QUQ parameters — the "Hessian-based
//! optimization" of paper §6.1.
//!
//! PTQ4ViT-style PTQ refines each layer's scale factors by grid search,
//! scoring candidates with a Hessian-guided distance. Without a training
//! graph we cannot form the true Hessian; the substitute is a diagonal
//! *Hessian proxy*: quantization error weighted by `1 + x²/E[x²]`, which —
//! like the Gauss–Newton diagonal it approximates — penalizes error on
//! large-magnitude (influential) activations more than error near zero.
//! DESIGN.md §2 documents this substitution.

use crate::relax::{Pra, PraConfig};
use crate::scheme::QuqParams;

/// Objective used to score grid-search candidates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Objective {
    /// Plain mean squared error.
    Mse,
    /// Magnitude-weighted MSE (the Hessian-diagonal proxy).
    HessianProxy,
}

/// Cap on the per-element proxy weight: without it, extreme outliers in
/// long-tailed tensors (weights of 100×+) would dominate the objective and
/// push the search toward protecting the far tail at any bulk cost.
const WEIGHT_CAP: f64 = 9.0;

/// Scores an arbitrary scalar fake-quantizer on the calibration sample
/// (lower is better). Shared by QUQ's grid search and the baselines that
/// also use Hessian-guided search (PTQ4ViT).
pub fn score_fn(fq: impl Fn(f32) -> f32, samples: &[f32], objective: Objective) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    match objective {
        Objective::Mse => {
            samples
                .iter()
                .map(|&x| {
                    let d = (x - fq(x)) as f64;
                    d * d
                })
                .sum::<f64>()
                / samples.len() as f64
        }
        Objective::HessianProxy => {
            let mean_sq =
                samples.iter().map(|&x| (x as f64).powi(2)).sum::<f64>() / samples.len() as f64;
            let norm = mean_sq.max(1e-20);
            samples
                .iter()
                .map(|&x| {
                    let d = (x - fq(x)) as f64;
                    d * d * (1.0 + ((x as f64).powi(2) / norm).min(WEIGHT_CAP))
                })
                .sum::<f64>()
                / samples.len() as f64
        }
    }
}

/// Scores a QUQ candidate on the calibration sample (lower is better).
pub fn score(params: &QuqParams, samples: &[f32], objective: Objective) -> f64 {
    let lanes = params.lanes();
    score_fn(|x| lanes.fake_quantize(x), samples, objective)
}

/// The quantile grid explored around the configured `q_init`.
const Q_GRID: [f32; 5] = [0.999, 0.99, 0.98, 0.97, 0.95];
/// The global scale multipliers explored around each PRA solution.
const SCALE_GRID: [f32; 5] = [0.8, 0.9, 1.0, 1.1, 1.2];
/// Grid search fits on at most this many samples (sub-sampled evenly).
const FIT_CAP: usize = 16_384;

/// Grid search around the PRA solution: candidate quantiles × global scale
/// multipliers, scored by `objective`. The PRA-with-defaults solution is
/// always in the candidate set, so the result is never worse than plain PRA
/// under the chosen objective.
pub fn grid_search_quq(
    samples: &[f32],
    bits: u32,
    base: PraConfig,
    objective: Objective,
) -> QuqParams {
    let thinned: Vec<f32>;
    let fit_samples = if samples.len() > FIT_CAP {
        let stride = samples.len() / FIT_CAP;
        thinned = samples.iter().copied().step_by(stride.max(1)).collect();
        &thinned[..]
    } else {
        samples
    };
    let mut best = Pra::new(bits, base).run(fit_samples).params;
    let mut best_score = score(&best, fit_samples, objective);
    // Uniform special case (§3.2: "the performance of QUQ for any type of
    // data will not be inferior to that of symmetric uniform quantization").
    let uniform_delta = crate::uniform::UniformQuantizer::fit_min_max(bits, fit_samples).delta();
    if let Ok(uniform) = QuqParams::uniform(bits, uniform_delta) {
        let sc = score(&uniform, fit_samples, objective);
        if sc < best_score {
            best_score = sc;
            best = uniform;
        }
    }
    for q in Q_GRID {
        let cfg = PraConfig {
            q_init: q,
            q_acceptable: base.q_acceptable.min(q),
            ..base
        };
        let fitted = Pra::new(bits, cfg).run(fit_samples).params;
        for s in SCALE_GRID {
            let cand = fitted.scaled(s);
            let sc = score(&cand, fit_samples, objective);
            if sc < best_score {
                best_score = sc;
                best = cand;
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use quq_tensor::rng::OutlierMixture;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sample(seed: u64, n: usize) -> Vec<f32> {
        let mut rng = StdRng::seed_from_u64(seed);
        OutlierMixture::new(0.03, 0.5, 0.01).sample_vec(&mut rng, n)
    }

    #[test]
    fn grid_search_never_worse_than_pra_under_mse() {
        for seed in 0..4 {
            let s = sample(seed, 8000);
            for bits in [4u32, 6, 8] {
                let pra = Pra::with_defaults(bits).run(&s).params;
                let opt = grid_search_quq(&s, bits, PraConfig::default(), Objective::Mse);
                assert!(
                    score(&opt, &s, Objective::Mse) <= score(&pra, &s, Objective::Mse) * 1.001,
                    "seed {seed}, bits {bits}"
                );
            }
        }
    }

    #[test]
    fn hessian_proxy_emphasizes_outliers() {
        // A quantizer that clips outliers hard scores worse under the proxy
        // than under plain MSE, relative to one that keeps them.
        let s = sample(9, 8000);
        let keeping = Pra::with_defaults(8).run(&s).params;
        let clipping = keeping.scaled(0.05); // tiny scales clip the tail
        let mse_ratio = score(&clipping, &s, Objective::Mse) / score(&keeping, &s, Objective::Mse);
        let hes_ratio = score(&clipping, &s, Objective::HessianProxy)
            / score(&keeping, &s, Objective::HessianProxy);
        assert!(
            hes_ratio > mse_ratio,
            "proxy should penalize clipping more: {hes_ratio} vs {mse_ratio}"
        );
    }

    #[test]
    fn grid_search_handles_large_samples_by_thinning() {
        let s = sample(10, 80_000);
        let p = grid_search_quq(&s, 6, PraConfig::default(), Objective::HessianProxy);
        assert!(p.mse(&s) < 1e-2);
    }

    #[test]
    fn score_empty_is_zero() {
        let p = QuqParams::uniform(8, 0.1).unwrap();
        assert_eq!(score(&p, &[], Objective::Mse), 0.0);
        assert_eq!(score(&p, &[], Objective::HessianProxy), 0.0);
    }
}
