//! Property tests for the time-warping distance kernel (paper §3).

use proptest::prelude::*;
use warptree_core::dtw::{
    dtw, dtw_early_abandon, dtw_naive_recursive, dtw_windowed, WarpTable, BLOCK_ROWS,
};

fn seq(max_len: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec((-50i32..50).prop_map(|v| v as f64 * 0.25), 1..max_len)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The DP implementation equals Definition 1's direct recursion.
    #[test]
    fn dp_equals_definition((a, b) in (seq(7), seq(7))) {
        prop_assert!((dtw(&a, &b) - dtw_naive_recursive(&a, &b)).abs() < 1e-9);
    }

    /// `D_tw` is symmetric and zero iff the warped shapes coincide.
    #[test]
    fn symmetry_and_identity((a, b) in (seq(12), seq(12))) {
        prop_assert_eq!(dtw(&a, &b), dtw(&b, &a));
        prop_assert_eq!(dtw(&a, &a), 0.0);
        prop_assert!(dtw(&a, &b) >= 0.0);
    }

    /// Stretching either sequence by duplicating elements never changes
    /// the distance-zero relation (the paper's intro example,
    /// generalized): duplicated elements warp onto the original.
    #[test]
    fn duplication_invariance(a in seq(10), dup_at in 0usize..10) {
        let i = dup_at % a.len();
        let mut stretched = a.clone();
        stretched.insert(i, a[i]);
        prop_assert_eq!(dtw(&a, &stretched), 0.0);
    }

    /// Theorem 1: appending rows never lowers the row minimum.
    #[test]
    fn theorem1_monotone_row_minimum((q, data) in (seq(8), seq(20))) {
        let mut t = WarpTable::new(&q, None);
        let mut prev = 0.0f64;
        for &v in &data {
            let s = t.push_value(v);
            prop_assert!(s.min + 1e-12 >= prev);
            prev = s.min;
        }
    }

    /// The filter's row blocks are `push_row_with`'s rows bit for bit —
    /// `RowStat`, every cell, `cells_computed` — for blocks of 1 to 4
    /// rows of which the last 0 to 3 are retracted and pushed again, for
    /// no window and windows 0, 1 and 8, through rows past the band, and
    /// again after a backtrack, on the table and on a fork of it.
    #[test]
    fn base_row_push_is_push_row_with(
        (q, data) in (seq(10), seq(30)),
        window in 0usize..4,
        blocks in prop::collection::vec((1usize..=BLOCK_ROWS, 0usize..BLOCK_ROWS), 1..12),
        keep in 0usize..30,
    ) {
        let w = [None, Some(0u32), Some(1), Some(8)][window];
        let base_rows: Vec<Vec<f64>> =
            data.iter().map(|&v| q.iter().map(|&x| (x - v).abs()).collect()).collect();
        // Pushes `order` (indices into `data`) onto both tables, cycling
        // through `blocks`: `size` rows at once, then `back` of them
        // retracted (at least one kept) and pushed with the next block.
        let replay = |by_cell: &mut WarpTable, by_block: &mut WarpTable, order: &[usize]| {
            let mut plan = blocks.iter().cycle();
            let mut i = 0;
            while i < order.len() {
                let &(size, back) = plan.next().expect("cycle never ends");
                let size = size.min(order.len() - i);
                let kept = size - back.min(size - 1);
                let bases: Vec<&[f64]> =
                    order[i..i + size].iter().map(|&j| &base_rows[j][..]).collect();
                let got = by_block.push_base_rows(&bases).to_vec();
                prop_assert_eq!(got.len(), size);
                by_block.retract(by_block.depth() - (size - kept) as u32);
                for (stat, &j) in got.iter().zip(&order[i..i + kept]) {
                    let v = data[j];
                    let want = by_cell.push_row_with(|x| (x - v).abs());
                    prop_assert_eq!(want.dist.to_bits(), stat.dist.to_bits());
                    prop_assert_eq!(want.min.to_bits(), stat.min.to_bits());
                }
                prop_assert_eq!(&*by_cell, &*by_block);
                i += kept;
            }
        };
        let mut by_cell = WarpTable::new(&q, w);
        let mut by_block = WarpTable::new(&q, w);
        let forward: Vec<usize> = (0..data.len()).collect();
        replay(&mut by_cell, &mut by_block, &forward);
        let keep = (keep % (data.len() + 1)) as u32;
        by_cell.truncate(keep);
        by_block.truncate(keep);
        let (mut cell_fork, mut block_fork) = (by_cell.fork(), by_block.fork());
        let backward: Vec<usize> = forward.iter().rev().copied().collect();
        replay(&mut by_cell, &mut by_block, &backward);
        replay(&mut cell_fork, &mut block_fork, &backward);
    }

    /// Early abandoning is exactly "distance ≤ ε" as a predicate.
    #[test]
    fn early_abandon_is_threshold_predicate(
        (a, b) in (seq(8), seq(8)),
        eps_i in 0u32..40,
    ) {
        let eps = eps_i as f64 * 0.5;
        let full = dtw(&a, &b);
        match dtw_early_abandon(&a, &b, eps) {
            Some(d) => {
                prop_assert!((d - full).abs() < 1e-9);
                prop_assert!(d <= eps);
            }
            None => prop_assert!(full > eps),
        }
    }

    /// A Sakoe–Chiba band can only forbid paths: windowed ≥ unwindowed,
    /// and widening the band is monotone.
    #[test]
    fn window_monotonicity((a, b) in (seq(8), seq(8)), w in 0u32..6) {
        let unconstrained = dtw(&a, &b);
        let tight = dtw_windowed(&a, &b, w);
        let loose = dtw_windowed(&a, &b, w + 2);
        prop_assert!(tight + 1e-12 >= loose);
        prop_assert!(loose + 1e-12 >= unconstrained);
        // A band covering the whole table is exact.
        let full_band =
            dtw_windowed(&a, &b, (a.len() + b.len()) as u32);
        prop_assert!((full_band - unconstrained).abs() < 1e-9);
    }

    /// Truncate/push round-trips restore identical table state.
    #[test]
    fn truncate_roundtrip(
        (q, data) in (seq(6), seq(12)),
        cut in 0usize..12,
    ) {
        let mut t = WarpTable::new(&q, None);
        let mut stats = Vec::new();
        for &v in &data {
            stats.push(t.push_value(v));
        }
        let cut = cut % data.len();
        t.truncate(cut as u32);
        for (i, &v) in data[cut..].iter().enumerate() {
            let s = t.push_value(v);
            prop_assert_eq!(s, stats[cut + i]);
        }
    }
}

/// The paper's §1 claim: `D_tw` violates the triangle inequality — a
/// concrete witness, which is why metric access methods are unusable.
#[test]
fn triangle_inequality_violation_witness() {
    // The counterexample family from Yi/Jagadish/Faloutsos:
    let a = [1.0];
    let b = [1.0, 2.0];
    let c = [2.0, 2.0];
    let ab = dtw(&a, &b); // 1
    let bc = dtw(&b, &c); // 1
    let ac = dtw(&a, &c); // 2
    assert_eq!((ab, bc, ac), (1.0, 1.0, 2.0));
    // Not violated yet; stretch c to make warping cheap between b,c but
    // expensive between a,c.
    let c2 = [2.0, 2.0, 2.0, 2.0, 2.0];
    let ab = dtw(&a, &b);
    let bc2 = dtw(&b, &c2);
    let ac2 = dtw(&a, &c2);
    assert!(
        ac2 > ab + bc2,
        "expected triangle violation: {ac2} <= {ab} + {bc2}"
    );
}
