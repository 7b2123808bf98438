//! Order statistics over small `f64` samples.

fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Median with the two middle values averaged; 0 for an empty sample.
pub fn median(v: &[f64]) -> f64 {
    let s = sorted(v);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// The smallest sample; 0 for an empty sample. Every run-to-run
/// difference of a deterministic operation on this kind of machine is
/// time the machine added — a shared host runs the same instructions
/// up to 1.9× slower for seconds to minutes at a stretch — so the
/// fastest repetition is the one nearest the program's own cost, and
/// the only order statistic that does not follow the share of a run the
/// host spent slow.
pub fn fastest(v: &[f64]) -> f64 {
    v.iter().copied().reduce(f64::min).unwrap_or(0.0)
}

/// [`fastest`] of each column of `rows` (one row per pass or cycle, one
/// column per distinct operation). As wide as the shortest row.
pub fn column_fastest(rows: &[&[f64]]) -> Vec<f64> {
    let width = rows.iter().map(|r| r.len()).min().unwrap_or(0);
    (0..width)
        .map(|i| fastest(&rows.iter().map(|r| r[i]).collect::<Vec<_>>()))
        .collect()
}

/// Nearest-rank percentile (`p` in `(0, 1]`): the smallest sample with at
/// least `p` of the samples at or below it. 0 for an empty sample.
pub fn percentile(v: &[f64], p: f64) -> f64 {
    let s = sorted(v);
    if s.is_empty() {
        return 0.0;
    }
    let rank = (s.len() as f64 * p).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the exclusive method), which is what the driver's spread
/// check uses. Needs at least two samples.
pub fn quartiles(v: &[f64]) -> (f64, f64) {
    let s = sorted(v);
    let n = s.len();
    assert!(n >= 2, "quartiles need at least two samples");
    let at = |k: usize| {
        let pos = (n + 1) * k;
        let j = (pos / 4).clamp(1, n - 1);
        let frac = pos as f64 / 4.0 - j as f64;
        s[j - 1] + (s[j] - s[j - 1]) * frac
    };
    (at(1), at(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentile() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.95), 190.0); // ten samples beyond
        assert_eq!(percentile(&v, 0.5), 100.0);
    }

    #[test]
    fn column_fastest_takes_each_operation_at_its_best_pass() {
        let rows: [&[f64]; 3] = [&[3.0, 10.0], &[9.0, 90.0], &[2.0, 20.0, 5.0]];
        assert_eq!(column_fastest(&rows), vec![2.0, 10.0]);
        assert!(column_fastest(&[]).is_empty());
        assert_eq!(fastest(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 2.0, 8.0, 4.0]), (1.5, 12.0));
    }
}
