//! Planted-motif corpora with ground truth.
//!
//! [`planted_corpus`] embeds a known pattern — time-stretched and
//! noised — into background noise and returns the exact plant
//! locations, so `tests/recall.rs` can measure the title claim's recall
//! exactly.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use warptree_core::sequence::{Occurrence, SeqId, SequenceStore};

fn normal(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

fn gauss(t: f64, mu: f64, sigma: f64) -> f64 {
    (-(t - mu) * (t - mu) / (2.0 * sigma * sigma)).exp()
}

/// One synthetic heartbeat sampled with `width` points (P wave, QRS
/// complex, T wave): the default planted pattern.
fn heartbeat(width: usize, amplitude: f64) -> Vec<f64> {
    (0..width)
        .map(|i| {
            let t = i as f64 / width as f64;
            let p = 0.15 * gauss(t, 0.18, 0.035);
            let q = -0.2 * gauss(t, 0.40, 0.018);
            let r = 1.0 * gauss(t, 0.46, 0.016);
            let s = -0.25 * gauss(t, 0.52, 0.018);
            let tw = 0.35 * gauss(t, 0.75, 0.06);
            amplitude * (p + q + r + s + tw)
        })
        .collect()
}

/// Configuration of the planted-motif generator.
#[derive(Debug, Clone)]
pub struct PlantConfig {
    /// Number of background sequences.
    pub sequences: usize,
    /// Length of each sequence.
    pub len: usize,
    /// The pattern to plant (its canonical form).
    pub pattern: Vec<f64>,
    /// How many plants to embed (spread round-robin over sequences).
    pub plants: usize,
    /// Time-stretch range: each plant is resampled to
    /// `pattern.len() × factor` with `factor ∈ [lo, hi]`.
    pub stretch: (f64, f64),
    /// Additive noise on planted values.
    pub noise_std: f64,
    /// Background random-walk step standard deviation.
    pub background_std: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for PlantConfig {
    fn default() -> Self {
        Self {
            sequences: 10,
            len: 300,
            pattern: heartbeat(20, 10.0),
            plants: 12,
            stretch: (0.7, 1.5),
            noise_std: 0.05,
            background_std: 2.0,
            seed: 0x91A_0001,
        }
    }
}

/// Linearly resamples `pattern` to `n` points.
pub fn resample(pattern: &[f64], n: usize) -> Vec<f64> {
    assert!(!pattern.is_empty() && n >= 1);
    if pattern.len() == 1 {
        return vec![pattern[0]; n];
    }
    (0..n)
        .map(|i| {
            let t = if n == 1 {
                0.0
            } else {
                i as f64 * (pattern.len() - 1) as f64 / (n - 1) as f64
            };
            let j = (t.floor() as usize).min(pattern.len() - 2);
            let frac = t - j as f64;
            pattern[j] * (1.0 - frac) + pattern[j + 1] * frac
        })
        .collect()
}

/// Generates background random walks with time-stretched, noised copies
/// of the pattern planted at known locations. Returns the store and the
/// plant occurrences.
pub fn planted_corpus(cfg: &PlantConfig) -> (SequenceStore, Vec<Occurrence>) {
    assert!(!cfg.pattern.is_empty());
    assert!(cfg.stretch.0 > 0.0 && cfg.stretch.0 <= cfg.stretch.1);
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    // Background walks.
    let mut seqs: Vec<Vec<f64>> = (0..cfg.sequences)
        .map(|_| {
            let mut v = rng.gen_range(0.0..50.0);
            (0..cfg.len)
                .map(|_| {
                    let out = v;
                    v += normal(&mut rng) * cfg.background_std;
                    out
                })
                .collect()
        })
        .collect();
    // Plants, round-robin, at non-overlapping slots.
    let mut truth = Vec::new();
    for p in 0..cfg.plants {
        let t = p % cfg.sequences;
        let factor = rng.gen_range(cfg.stretch.0..=cfg.stretch.1);
        let plen = ((cfg.pattern.len() as f64 * factor).round() as usize).clamp(2, cfg.len / 2);
        let slot = cfg.len / (cfg.plants / cfg.sequences + 1).max(1);
        let base = (p / cfg.sequences) * slot.max(plen + 1);
        if base + plen > cfg.len {
            continue; // does not fit; skip rather than overlap
        }
        let mut plant = resample(&cfg.pattern, plen);
        for v in &mut plant {
            *v += normal(&mut rng) * cfg.noise_std;
        }
        seqs[t][base..base + plen].copy_from_slice(&plant);
        truth.push(Occurrence::new(SeqId(t as u32), base as u32, plen as u32));
    }
    (SequenceStore::from_values(seqs), truth)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heartbeat_has_r_peak() {
        let b = heartbeat(30, 1.0);
        let (imax, max) =
            b.iter().enumerate().fold(
                (0, f64::MIN),
                |(bi, bv), (i, &v)| {
                    if v > bv {
                        (i, v)
                    } else {
                        (bi, bv)
                    }
                },
            );
        // The R peak is near 46 % of the beat and dominates.
        assert!((0.35..0.6).contains(&(imax as f64 / 30.0)));
        assert!(max > 0.8);
    }

    #[test]
    fn resample_endpoints_and_length() {
        let p = [0.0, 10.0, 20.0];
        for n in [2usize, 3, 7, 50] {
            let r = resample(&p, n);
            assert_eq!(r.len(), n);
            assert!((r[0] - 0.0).abs() < 1e-9);
            assert!((r[n - 1] - 20.0).abs() < 1e-9);
            // Monotone input stays monotone under linear resampling.
            for w in r.windows(2) {
                assert!(w[0] <= w[1] + 1e-9);
            }
        }
        assert_eq!(resample(&[5.0], 4), vec![5.0; 4]);
    }

    #[test]
    fn planted_corpus_embeds_patterns() {
        let cfg = PlantConfig {
            sequences: 4,
            len: 200,
            plants: 8,
            noise_std: 0.0,
            ..Default::default()
        };
        let (store, truth) = planted_corpus(&cfg);
        assert_eq!(store.len(), 4);
        assert!(!truth.is_empty());
        for occ in &truth {
            let sub = store.occurrence_values(*occ);
            let expected = resample(&cfg.pattern, occ.len as usize);
            for (a, b) in sub.iter().zip(&expected) {
                assert!((a - b).abs() < 1e-9, "noiseless plant verbatim");
            }
        }
        // Plants vary in length (time stretching).
        let lens: std::collections::HashSet<u32> = truth.iter().map(|o| o.len).collect();
        assert!(lens.len() > 1);
    }

    #[test]
    fn planted_corpus_deterministic() {
        let cfg = PlantConfig::default();
        let (a, ta) = planted_corpus(&cfg);
        let (b, tb) = planted_corpus(&cfg);
        assert_eq!(ta, tb);
        for (id, s) in a.iter() {
            assert_eq!(s.values(), b.get(id).values());
        }
    }
}
