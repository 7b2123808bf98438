//! The disk tree against the in-memory reference over random grid
//! corpora. Harness in `tests/matrix/mod.rs`.

mod matrix;

use matrix::*;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Full and sparse disk trees answer like the in-memory tree and the
    /// sequential scan.
    #[test]
    fn disk_tree_searches_equal_memory(corpus in grid_corpus()) {
        let disk = Config { backend: Backend::DiskTree, cat: Cat::MaxEntropy, ..BASE };
        let sweep = Sweep::of(disk).vary(&[false, true], |c, v| c.sparse = v);
        Lab::new(corpus).pinned(sweep);
    }
}
