//! Sample summaries: quantiles, medians and interval unions.

/// Linear-interpolated quantile (`p` in `[0, 1]`) of unsorted samples; 0
/// for an empty set.
pub fn quantile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = p.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Total length covered by a set of `[start, end)` intervals, overlaps
/// counted once.
pub fn union_len(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for &(s, e) in intervals.iter() {
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(median(&v), 6.0);
        assert_eq!(quantile(&v, 0.9), 10.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn union_counts_overlaps_once() {
        assert_eq!(union_len(&mut [(0, 10), (5, 15), (20, 25)]), 20);
        assert_eq!(union_len(&mut []), 0);
    }
}
