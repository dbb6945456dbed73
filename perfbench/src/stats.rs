//! Order statistics over timing samples.

/// Nearest-rank percentile of `xs` (`p` in [0, 100]); 0 when empty. The
/// same rank rule as `fewner_obs::SpanStats::percentile_ns`.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p.clamp(0.0, 100.0) / 100.0 * (sorted.len() - 1) as f64).round() as usize;
    sorted[rank]
}

/// The median of `xs`; 0 when empty.
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 50.0)
}

/// Samples lying strictly beyond the `p`-th percentile's rank — a
/// percentile is only named where at least ten samples lie beyond it.
pub fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        return 0;
    }
    let rank = (p / 100.0 * (n - 1) as f64).round() as usize;
    n - 1 - rank
}

/// Prints a timing's median and `p`-th percentile with its sample count,
/// noting when fewer than ten samples lie beyond the percentile.
pub fn print_timing(name: &str, xs: &[f64], p: f64) {
    let note = if beyond(xs.len(), p) >= 10 {
        ""
    } else {
        ", too few samples to name the tail"
    };
    println!(
        "  {name}_ms_p50 {:.4} ms, {name}_ms_p{p:.0} {:.4} ms (n={}{note})",
        median(xs),
        percentile(xs, p),
        xs.len()
    );
}

/// The median over `blocks` equal time slices of `[0, wall)` of the rate
/// at which work completes, in amount per second. Each piece of work
/// `(start, end, amount)`, timed from send to reply so `end > start`,
/// counts in the slices it overlaps in proportion to the overlap, so a
/// slice's rate has no rounding step of one piece. A stall then costs one
/// slice, not the whole phase's rate.
pub fn block_rate(work: &[(f64, f64, f64)], wall: f64, blocks: usize) -> f64 {
    let width = wall / blocks as f64;
    let mut sums = vec![0.0; blocks];
    for &(start, end, amount) in work {
        for (i, sum) in sums.iter_mut().enumerate() {
            let (lo, hi) = (i as f64 * width, (i + 1) as f64 * width);
            let overlap = end.min(hi) - start.max(lo);
            if overlap > 0.0 {
                *sum += amount * overlap / (end - start);
            }
        }
    }
    let rates: Vec<f64> = sums.iter().map(|s| s / width).collect();
    median(&rates)
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank() {
        let xs: Vec<f64> = (1..=101).map(f64::from).collect();
        assert_eq!(median(&xs), 51.0);
        assert_eq!(percentile(&xs, 99.0), 100.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(beyond(1000, 99.0), 10);
        assert_eq!(beyond(100, 90.0), 10);
    }

    #[test]
    fn block_rate_is_the_median_slice() {
        // Slices of 1 s carrying 3, 1 and 2 units: the median is 2/s. The
        // piece spanning [0.5, 1.5) counts half in each of its slices.
        let work = [
            (0.1, 0.2, 2.0),
            (0.5, 1.5, 2.0),
            (2.1, 2.3, 1.0),
            (2.4, 2.6, 1.0),
        ];
        assert_eq!(block_rate(&work, 3.0, 3), 2.0);
    }
}
