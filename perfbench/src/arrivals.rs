//! Seeded open-loop arrival schedules: Poisson arrivals (exponential gaps)
//! with a per-request class and image drawn from the same stream, so one
//! workload seed fixes the whole schedule and nothing else does.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One scheduled request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Arrival {
    /// Due time in seconds from the phase start.
    pub at: f64,
    /// Interactive (tenant `a`) when true, batch (tenant `b`) otherwise.
    pub interactive: bool,
    /// Index into the workload's image set.
    pub image: usize,
}

/// Poisson arrivals at `rate` per second over `seconds`, each interactive
/// with probability `interactive_share`, images drawn uniformly from
/// `0..images`. Equal arguments give equal schedules.
pub fn poisson(
    seed: u64,
    rate: f64,
    seconds: f64,
    interactive_share: f64,
    images: usize,
) -> Vec<Arrival> {
    assert!(rate > 0.0 && images > 0, "rate and image count must be > 0");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::new();
    let mut at = 0.0f64;
    loop {
        // 1 − U lies in (0, 1], so the log is finite.
        let u: f64 = rng.gen();
        at += -(1.0 - u).ln() / rate;
        if at >= seconds {
            return out;
        }
        let interactive = rng.gen::<f64>() < interactive_share;
        let image = rng.gen_range(0..images);
        out.push(Arrival {
            at,
            interactive,
            image,
        });
    }
}

/// Evenly spaced arrivals at `rate` per second over `seconds` (a fixed-rate
/// open loop), images drawn from `seed`.
pub fn fixed_rate(seed: u64, rate: f64, seconds: f64, images: usize) -> Vec<Arrival> {
    assert!(rate > 0.0 && images > 0, "rate and image count must be > 0");
    let mut rng = StdRng::seed_from_u64(seed);
    let n = (rate * seconds).floor() as usize;
    (0..n)
        .map(|i| Arrival {
            at: i as f64 / rate,
            interactive: true,
            image: rng.gen_range(0..images),
        })
        .collect()
}
