//! Writing an in-memory suffix tree to the disk format.
//!
//! Nodes are emitted in post-order (children before parents) so every
//! child offset is known when its parent record is serialized; the
//! stream — a file, or the in-memory image the incremental builder
//! merges — is produced in one sequential pass, and the root offset is
//! back-patched into the header at the end.

use std::path::Path;

use warptree_suffix::{NodeId, SuffixTree, ROOT};

use crate::error::Result;
use crate::format::{encode_node, Header, HEADER_SIZE};
use crate::pager::{PagedWriter, Sink};
use crate::vfs::{RealVfs, Vfs};

/// Serializes `tree` to `path`, returning the logical file length in
/// bytes (the paper's "index size").
pub fn write_tree(tree: &SuffixTree, path: &Path) -> Result<u64> {
    write_tree_with(&RealVfs, tree, path)
}

/// [`write_tree`] through an explicit [`Vfs`].
pub fn write_tree_with(vfs: &dyn Vfs, tree: &SuffixTree, path: &Path) -> Result<u64> {
    write_file(vfs, path, |w| encode_tree(tree, w))
}

/// Writes one tree file to `path`: what `fill` writes behind a zeroed
/// header, the header it returns patched in last. Every tree file is
/// written through here; returns the logical length.
pub(crate) fn write_file(
    vfs: &dyn Vfs,
    path: &Path,
    fill: impl FnOnce(&mut PagedWriter) -> Result<Header>,
) -> Result<u64> {
    let mut w = PagedWriter::create_with(vfs, path)?;
    let header = fill(&mut w)?;
    w.finish(&[(0, header.encode())])
}

/// A tree file's logical bytes held in memory — header included, no
/// page CRCs or padding — and its header.
pub(crate) type TreeImage = (Vec<u8>, Header);

/// The image of what `encode` writes behind a zeroed header, the
/// header it returns patched in.
pub(crate) fn image(encode: impl FnOnce(&mut Vec<u8>) -> Result<Header>) -> Result<TreeImage> {
    let mut bytes = Vec::new();
    let header = encode(&mut bytes)?;
    bytes[..HEADER_SIZE as usize].copy_from_slice(&header.encode());
    Ok((bytes, header))
}

/// Writes `tree`'s records to `w` behind a zeroed header, returning
/// the header to patch in.
pub(crate) fn encode_tree(tree: &SuffixTree, w: &mut impl Sink) -> Result<Header> {
    assert!(
        tree.is_finalized(),
        "finalize() must run before writing a tree"
    );
    // Reserve the header; the real one is patched in at the end.
    w.write(&[0u8; HEADER_SIZE as usize])?;

    // Iterative post-order: each frame is (node, next child index,
    // offsets of already-written children).
    type Frame = (NodeId, usize, Vec<(u32, u64)>);
    let mut node_count: u64 = 0;
    let mut root_offset: u64 = 0;
    let mut stack: Vec<Frame> = vec![(ROOT, 0, Vec::new())];
    // One record's suffix entries and encoding, reused for every node.
    let (mut suffixes, mut record) = (Vec::new(), Vec::new());
    while let Some((node, child_idx, mut child_offsets)) = stack.pop() {
        let n = tree.node(node);
        if child_idx < n.children.len() {
            let child = n.children[child_idx];
            stack.push((node, child_idx + 1, child_offsets));
            stack.push((child, 0, Vec::new()));
            continue;
        }
        // All children written: children offsets arrive in order because
        // each completed child pushes onto its parent's frame below.
        child_offsets.sort_by_key(|&(sym, _)| sym);
        suffixes.clear();
        suffixes.extend(n.suffixes.iter().map(|s| (s.seq, s.start, s.lead_run)));
        record.clear();
        encode_node(
            &mut record,
            (n.label.seq, n.label.start, n.label.len),
            n.suffix_count,
            n.max_lead_run,
            &[&suffixes],
            &child_offsets,
        );
        let offset = w.position();
        w.write(&record)?;
        node_count += 1;
        if node == ROOT {
            root_offset = offset;
        } else if let Some(parent) = stack.last_mut() {
            let first = tree.node(node).first;
            parent.2.push((first, offset));
        }
    }

    Ok(Header {
        sparse: tree.is_sparse(),
        alphabet_len: tree.cat().alphabet_len(),
        node_count,
        suffix_count: tree.suffix_count(),
        root_offset,
        depth_limit: tree.depth_limit(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::DiskTree;
    use std::sync::Arc;
    use warptree_core::categorize::CatStore;
    use warptree_core::search::IndexBackend;
    use warptree_suffix::{build_full, build_sparse};

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("warptree-writer-{}-{}", std::process::id(), name));
        p
    }

    #[test]
    fn write_open_roundtrip_full() {
        let cat = Arc::new(CatStore::from_symbols(
            vec![vec![0, 1, 2, 1, 2, 1], vec![2, 2, 0]],
            3,
        ));
        let tree = build_full(cat.clone());
        let path = tmp("full");
        let size = write_tree(&tree, &path).unwrap();
        assert!(size > HEADER_SIZE);
        let disk = DiskTree::open(&path, cat).unwrap();
        assert_eq!(disk.header().node_count, tree.node_count() as u64);
        assert_eq!(disk.suffix_count(), tree.suffix_count());
        assert!(!disk.is_sparse());
        // Structural equality through the materialization path.
        let back = disk.to_mem().unwrap();
        back.check_invariants();
        assert_eq!(back.canonical(), tree.canonical());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn write_open_roundtrip_sparse() {
        let cat = Arc::new(CatStore::from_symbols(vec![vec![0, 0, 0, 1, 1, 2]], 3));
        let tree = build_sparse(cat.clone());
        let path = tmp("sparse");
        write_tree(&tree, &path).unwrap();
        let disk = DiskTree::open(&path, cat).unwrap();
        assert!(disk.is_sparse());
        assert_eq!(disk.suffix_count(), 3);
        assert_eq!(
            disk.visit(disk.root(), &mut Vec::new()).max_lead_run,
            tree.node(ROOT).max_lead_run
        );
        let back = disk.to_mem().unwrap();
        assert_eq!(back.canonical(), tree.canonical());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn alphabet_mismatch_rejected() {
        let cat = Arc::new(CatStore::from_symbols(vec![vec![0, 1]], 2));
        let tree = build_full(cat.clone());
        let path = tmp("alpha");
        write_tree(&tree, &path).unwrap();
        let other = Arc::new(CatStore::from_symbols(vec![vec![0, 1]], 5));
        assert!(DiskTree::open(&path, other).is_err());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn trait_traversal_matches_mem() {
        let cat = Arc::new(CatStore::from_symbols(
            vec![vec![0, 1, 0, 1, 1], vec![1, 0, 0]],
            2,
        ));
        let tree = build_full(cat.clone());
        let path = tmp("trav");
        write_tree(&tree, &path).unwrap();
        let disk = DiskTree::open(&path, cat).unwrap();
        // Same multiset of suffixes below the root.
        let suffixes = tree.suffixes_below(ROOT).into_iter();
        let mut mem_suffixes: Vec<_> = suffixes.map(|s| (s.seq, s.start, s.lead_run)).collect();
        let mut disk_suffixes = Vec::new();
        disk.for_each_suffix_below(disk.root(), &mut |s, p, r| disk_suffixes.push((s, p, r)));
        mem_suffixes.sort();
        disk_suffixes.sort();
        assert_eq!(mem_suffixes, disk_suffixes);
        std::fs::remove_file(&path).unwrap();
    }
}
