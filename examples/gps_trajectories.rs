//! Multivariate search (paper §8): find where a 2-D movement pattern
//! occurs inside GPS-like trajectories, regardless of the speed it was
//! walked at.
//!
//! ```text
//! cargo run --release --example gps_trajectories
//! ```
//!
//! Each trajectory is a sequence of (x, y) points. Points are
//! grid-categorized per dimension; the combined cell index is an
//! ordinary symbol, so the very same suffix-tree machinery indexes the
//! multivariate data — exactly the extension the paper sketches.

use std::sync::Arc;
use warptree::core::multivariate::{mv_seq_scan, mv_sim_search, GridAlphabet, MvSequence, MvStore};
use warptree::prelude::*;

/// Where the planted loops start.
const PLAZA: (f64, f64) = (60.0, 40.0);

/// Deterministic pseudo-noise.
struct Noise(u64);
impl Noise {
    fn next(&mut self) -> f64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((self.0 >> 33) as f64 / (1u64 << 31) as f64) - 1.0
    }
}

/// A loop around the block: right, up, left, down — walked with `speed`
/// points per side.
fn block_loop(origin: (f64, f64), side: f64, speed: usize) -> Vec<f64> {
    let mut pts = Vec::new();
    let legs = [(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0)];
    let (mut x, mut y) = origin;
    for (dx, dy) in legs {
        for _ in 0..speed {
            pts.extend_from_slice(&[x, y]);
            x += dx * side / speed as f64;
            y += dy * side / speed as f64;
        }
    }
    pts
}

fn main() {
    let mut noise = Noise(0x6F5);
    let mut store = MvStore::new();

    // Build 8 trajectories: random wandering with a "block loop" planted
    // in three of them, each walked at a different speed.
    let mut planted = Vec::new();
    for t in 0..8 {
        let mut pts: Vec<f64> = Vec::new();
        let (mut x, mut y) = (50.0 + t as f64 * 3.0, 40.0);
        let wander = |pts: &mut Vec<f64>, x: &mut f64, y: &mut f64, n: usize, noise: &mut Noise| {
            for _ in 0..n {
                pts.extend_from_slice(&[*x, *y]);
                *x += noise.next() * 2.0;
                *y += noise.next() * 2.0;
            }
        };
        wander(&mut pts, &mut x, &mut y, 30, &mut noise);
        if t % 3 == 0 {
            // Everyone loops around the same plaza, at their own pace.
            let speed = 4 + t; // different walking speeds
            let start = pts.len() / 2;
            pts.extend(block_loop(PLAZA, 20.0, speed));
            planted.push((t, start, speed));
        }
        wander(&mut pts, &mut x, &mut y, 30, &mut noise);
        store.push(MvSequence::new(2, pts));
    }
    println!(
        "{} trajectories, {} points total; loop planted in {:?} \
         (trajectory, point offset, pts/side)",
        store.len(),
        store.seqs().iter().map(|s| s.len()).sum::<usize>(),
        planted
    );

    // The query: the canonical plaza loop at 6 points per side. Time
    // warping handles differing *speeds*; translation invariance would
    // need normal-form preprocessing (the paper's related work [11]),
    // so the loops share the plaza's coordinate frame.
    let query = MvSequence::new(2, block_loop(PLAZA, 20.0, 6));

    let grid = GridAlphabet::equal_length(store.seqs(), 12).unwrap();
    let cat = Arc::new(store.encode(&grid));
    let tree = DiskTree::from_tree(&build_sparse(cat));
    println!(
        "grid: {} × {} cells; sparse tree over grid symbols",
        grid.axes()[0].len(),
        grid.axes()[1].len(),
    );

    // The planted loops trace the same path, only resampled: a modest ε
    // per point suffices.
    let eps = 1.5 * query.len() as f64;
    let params = SearchParams::with_epsilon(eps);
    let t0 = std::time::Instant::now();
    let (answers, stats) = mv_sim_search(&tree, &grid, &store, &query, &params);
    println!(
        "index search: {} answers in {:.2?} ({} candidates verified)",
        answers.len(),
        t0.elapsed(),
        stats.postprocessed
    );

    // Verify against the multivariate scan.
    let mut scan_stats = SearchStats::default();
    let t0 = std::time::Instant::now();
    let scan = mv_seq_scan(&store, &query, &params, &mut scan_stats);
    println!(
        "exact scan:   {} answers in {:.2?}",
        scan.len(),
        t0.elapsed()
    );
    assert_eq!(answers.occurrence_set(), scan.occurrence_set());

    // Report the best match per trajectory.
    let mut best: std::collections::HashMap<SeqId, Match> = std::collections::HashMap::new();
    for m in answers.matches() {
        best.entry(m.occ.seq)
            .and_modify(|b| {
                if m.dist < b.dist {
                    *b = *m;
                }
            })
            .or_insert(*m);
    }
    let mut ranked: Vec<Match> = best.into_values().collect();
    ranked.sort_by(|a, b| a.dist.partial_cmp(&b.dist).unwrap());
    println!("\nbest loop match per trajectory:");
    for m in &ranked {
        println!(
            "  {}  {} points  dist/point {:.2}",
            m.occ,
            m.occ.len,
            m.dist / m.occ.len as f64
        );
    }
    let found: std::collections::HashSet<u32> = ranked.iter().map(|m| m.occ.seq.0).collect();
    for (t, _, _) in &planted {
        assert!(
            found.contains(&(*t as u32)),
            "planted loop in trajectory {t} not found"
        );
    }
    println!(
        "\nall {} planted loops found despite different walking speeds ✓",
        planted.len()
    );
}
