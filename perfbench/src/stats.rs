//! Order statistics used by every report: median, quartiles (the same
//! definition as Python's `statistics.quantiles(values, n=4)`), and the
//! percentile rule — a timing's tail is reported at the highest percentile
//! that still has at least [`TAIL_MIN_BEYOND`] samples beyond it.

/// Samples a tail percentile must have strictly beyond it to be reported.
pub const TAIL_MIN_BEYOND: usize = 10;

/// The percentile ladder the tail rule climbs, ascending.
pub const LADDER: [f64; 5] = [50.0, 90.0, 95.0, 99.0, 99.9];

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `values` (mean of the two middle values for even counts);
/// `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let v = sorted(values);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// First, second and third quartile by the "exclusive" method of Python's
/// `statistics.quantiles(values, n=4)`; `None` with fewer than two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let ld = values.len();
    if ld < 2 {
        return None;
    }
    let data = sorted(values);
    let (n, m) = (4usize, ld + 1);
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..n) {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        *slot = (data[j - 1] * (n as f64 - delta) + data[j] * delta) / n as f64;
    }
    Some(out)
}

/// 1-based nearest rank of the `p`-th percentile among `n` samples. The
/// product is rounded to 1e-9 first so that, e.g., 99.9% of 10 000 is
/// rank 9990 and not 9991 through floating-point error.
fn rank(n: usize, p: f64) -> usize {
    let exact = (p / 100.0) * n as f64;
    ((exact * 1e9).round() / 1e9).ceil() as usize
}

/// Nearest-rank `p`-th percentile (`0 < p ≤ 100`); `None` when empty.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let v = sorted(values);
    Some(v[rank(v.len(), p).clamp(1, v.len()) - 1])
}

/// Samples strictly beyond the nearest-rank `p`-th percentile of `n`.
pub fn beyond(n: usize, p: f64) -> usize {
    n - rank(n, p).clamp(1, n.max(1))
}

/// Whether `n` samples support reporting the `p`-th percentile.
pub fn supports(n: usize, p: f64) -> bool {
    n > 0 && beyond(n, p) >= TAIL_MIN_BEYOND
}

/// The percentile rule: the highest percentile of [`LADDER`] with at least
/// [`TAIL_MIN_BEYOND`] samples beyond it, with its value.
pub fn highest_tail(values: &[f64]) -> Option<(f64, f64)> {
    LADDER
        .iter()
        .rev()
        .find(|&&p| supports(values.len(), p))
        .and_then(|&p| percentile(values, p).map(|v| (p, v)))
}

/// A fixed tail percentile, only when the sample count supports it.
pub fn tail(values: &[f64], p: f64) -> Option<f64> {
    supports(values.len(), p)
        .then(|| percentile(values, p))
        .flatten()
}
