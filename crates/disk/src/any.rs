//! Backend dispatch for disk-resident indexes.
//!
//! The manifest records which [`BackendKind`] a directory was committed
//! under; [`AnyIndex`] is the runtime counterpart — one value that holds
//! either a [`DiskTree`] or a [`DiskEsa`] and serves queries through
//! [`IndexBackend`] by dispatching per call, to the tree or straight to
//! the ESA's in-memory [`EsaIndex`](warptree_esa::EsaIndex). Every
//! layer above the file formats (snapshots, segment fan-out, the
//! scrubber, the facade, the server) works with `AnyIndex` and stays
//! backend-agnostic; the match lives here, once.
//!
//! Traversal-visible behavior is identical across variants — that is
//! the ESA's isomorphism contract (see `warptree-esa`) — so the
//! dispatch changes *where* bytes live, never *what* a query answers.

use std::path::Path;
use std::sync::Arc;

use warptree_core::categorize::CatStore;
use warptree_core::search::{BackendKind, IndexBackend, MapChildren, NodeVisit};
use warptree_core::sequence::SeqId;
use warptree_esa::EsaNode;

use crate::error::{DiskError, Result};
use crate::esa::{DiskEsa, EsaHeader};
use crate::format::{DiskTree, Header};
use crate::pager::{read_pages, IoStats, Pages};
use crate::vfs::Vfs;

/// What a committed index's 64-byte header records of its shape: all
/// that append, heal and compaction need to build a segment that
/// matches it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IndexShape {
    /// Alphabet length the symbols were drawn from.
    pub alphabet_len: u32,
    /// `true` when only the §6.1 suffix subset is stored.
    pub sparse: bool,
    /// Answer-length cap of a §8-truncated tree (`None` = full).
    pub depth_limit: Option<u32>,
}

/// The 64-byte header of either index format.
pub(crate) trait IndexHeader: Sized {
    /// Parses and validates the header bytes.
    fn parse(buf: &[u8]) -> Result<Self>;
    /// What the header records of the index's shape.
    fn shape(&self) -> IndexShape;
}

impl IndexHeader for Header {
    fn parse(buf: &[u8]) -> Result<Self> {
        Header::decode(buf)
    }

    fn shape(&self) -> IndexShape {
        IndexShape {
            alphabet_len: self.alphabet_len,
            sparse: self.sparse,
            depth_limit: self.depth_limit,
        }
    }
}

impl IndexHeader for EsaHeader {
    fn parse(buf: &[u8]) -> Result<Self> {
        EsaHeader::decode(buf)
    }

    fn shape(&self) -> IndexShape {
        IndexShape {
            alphabet_len: self.alphabet_len,
            sparse: self.sparse,
            depth_limit: None,
        }
    }
}

/// The first half of opening an index file of either format: its
/// first `pages` pages, read by [`read_pages`], its header, whose
/// alphabet must be `alphabet` when one is given, and its file name —
/// the segment identity its errors and reports carry. A header page
/// that fails its CRC is a [`DiskError::CorruptionDetected`] naming the
/// file; a later page that fails is left to the caller, in
/// [`Pages::bad`].
pub(crate) fn open_headed<H: IndexHeader>(
    vfs: &dyn Vfs,
    path: &Path,
    pages: u64,
    alphabet: Option<u32>,
) -> Result<(Pages, H, String)> {
    let pages = read_pages(vfs, path, pages)?;
    if pages.bad == Some(0) {
        return Err(DiskError::CorruptPage { page: 0 }.in_file(path));
    }
    let header = H::parse(&pages.bytes)?;
    let file = header.shape().alphabet_len;
    if let Some(store) = alphabet.filter(|&store| store != file) {
        return Err(DiskError::BadHeader(format!(
            "alphabet mismatch: file {file} vs store {store}"
        )));
    }
    let name = path.file_name().map(|n| n.to_string_lossy().into_owned());
    Ok((pages, header, name.unwrap_or_default()))
}

/// The shape of the `backend` index at `path`, read from its header
/// alone (one page, whatever the size of the index).
pub fn index_shape(vfs: &dyn Vfs, path: &Path, backend: BackendKind) -> Result<IndexShape> {
    Ok(match backend {
        BackendKind::Tree => open_headed::<Header>(vfs, path, 1, None)?.1.shape(),
        BackendKind::Esa => open_headed::<EsaHeader>(vfs, path, 1, None)?.1.shape(),
    })
}

/// A disk-resident index of either backend, opened per the manifest's
/// recorded [`BackendKind`].
pub enum AnyIndex {
    /// The suffix-tree file format (`WARPTREE`).
    Tree(DiskTree),
    /// The enhanced-suffix-array file format (`WARPESA`).
    Esa(DiskEsa),
}

impl std::fmt::Debug for AnyIndex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AnyIndex")
            .field("kind", &self.kind().as_str())
            .field("source", &self.source())
            .finish()
    }
}

/// Node handle of [`AnyIndex`]: tags which backend it came from.
/// Mixing handles across backends is a logic error and panics.
#[derive(Debug, Clone, Copy)]
pub enum AnyNode {
    /// A tree node (file offset of its record).
    Tree(u64),
    /// An ESA node (interval record or leaf entry).
    Esa(EsaNode),
}

impl AnyNode {
    fn tree(self) -> u64 {
        match self {
            AnyNode::Tree(n) => n,
            AnyNode::Esa(_) => unreachable!("esa node handle passed to a tree backend"),
        }
    }

    fn esa(self) -> EsaNode {
        match self {
            AnyNode::Esa(n) => n,
            AnyNode::Tree(_) => unreachable!("tree node handle passed to an esa backend"),
        }
    }
}

impl AnyIndex {
    /// Opens `path` as `backend`, against the categorized store its
    /// labels reference. Either backend reads its file whole, here, and
    /// no page after.
    pub fn open_with(
        vfs: &dyn Vfs,
        path: &Path,
        cat: Arc<CatStore>,
        backend: BackendKind,
    ) -> Result<Self> {
        match backend {
            BackendKind::Tree => DiskTree::open_with(vfs, path, cat).map(AnyIndex::Tree),
            BackendKind::Esa => DiskEsa::open_with(vfs, path, cat).map(AnyIndex::Esa),
        }
    }

    /// The backend this index was opened as.
    pub fn kind(&self) -> BackendKind {
        match self {
            AnyIndex::Tree(_) => BackendKind::Tree,
            AnyIndex::Esa(_) => BackendKind::Esa,
        }
    }

    /// The underlying tree, when this is the tree backend.
    pub fn as_tree(&self) -> Option<&DiskTree> {
        match self {
            AnyIndex::Tree(t) => Some(t),
            AnyIndex::Esa(_) => None,
        }
    }

    /// The underlying ESA, when this is the esa backend.
    pub fn as_esa(&self) -> Option<&DiskEsa> {
        match self {
            AnyIndex::Tree(_) => None,
            AnyIndex::Esa(e) => Some(e),
        }
    }

    /// The tree file header, when this is the tree backend.
    pub fn tree_header(&self) -> Option<Header> {
        self.as_tree().map(|t| t.header())
    }

    /// The file name this index was opened from (its segment identity).
    pub fn source(&self) -> &str {
        match self {
            AnyIndex::Tree(t) => t.source(),
            AnyIndex::Esa(e) => e.source(),
        }
    }

    /// The categorized store the labels reference.
    pub fn cat(&self) -> &Arc<CatStore> {
        match self {
            AnyIndex::Tree(t) => t.cat(),
            AnyIndex::Esa(e) => e.esa().cat(),
        }
    }

    /// What the open read: every page of the file, once. No query
    /// reads a page, so the counts never move after the open.
    pub fn io_stats(&self) -> IoStats {
        match self {
            AnyIndex::Tree(t) => t.io_stats(),
            AnyIndex::Esa(e) => e.io_stats(),
        }
    }

    /// Always `(0, 0)`: there is no decoded-node cache. Kept only so the
    /// repo benchmark, which still reads it, builds; ROADMAP item 1a
    /// deletes it.
    pub fn node_cache_stats(&self) -> (u64, u64) {
        (0, 0)
    }

    /// The parse step of a committed index file's check (the one `verify`
    /// and scrub run): opens `path` as `backend`, which validates an
    /// ESA's arrays whole, and decodes every record of a tree
    /// ([`DiskTree::verify_records`]).
    pub fn check(
        vfs: &dyn Vfs,
        path: &Path,
        cat: Arc<CatStore>,
        backend: BackendKind,
    ) -> Result<()> {
        match Self::open_with(vfs, path, cat, backend)? {
            AnyIndex::Tree(t) => t.verify_records(),
            AnyIndex::Esa(_) => Ok(()),
        }
    }

    /// Counts a tree page that failed its CRC at open into `reg`. An
    /// ESA that fails one does not open, so it has nothing to count.
    pub fn instrument(&self, reg: &warptree_obs::MetricsRegistry) {
        if let AnyIndex::Tree(t) = self {
            t.instrument(reg)
        }
    }

    /// Internal record count: tree node records, or ESA interval
    /// records (the structural size stat `info --deep` reports).
    pub fn record_count(&self) -> u64 {
        match self {
            AnyIndex::Tree(t) => t.header().node_count,
            AnyIndex::Esa(e) => e.header().rec_count,
        }
    }

    /// Resident bytes the index holds to serve queries: the tree its
    /// logical file bytes, the ESA exactly its three flat arrays.
    pub fn resident_bytes(&self) -> u64 {
        match self {
            AnyIndex::Tree(t) => t.logical_len(),
            AnyIndex::Esa(e) => e.esa().resident_bytes(),
        }
    }
}

impl IndexBackend for AnyIndex {
    type Node = AnyNode;

    fn root(&self) -> AnyNode {
        match self {
            AnyIndex::Tree(t) => AnyNode::Tree(t.root()),
            AnyIndex::Esa(e) => AnyNode::Esa(e.esa().root()),
        }
    }

    fn visit(&self, n: AnyNode, children: &mut impl Extend<AnyNode>) -> NodeVisit<'_> {
        match self {
            AnyIndex::Tree(t) => t.visit(n.tree(), &mut MapChildren::new(children, AnyNode::Tree)),
            AnyIndex::Esa(e) => e
                .esa()
                .visit(n.esa(), &mut MapChildren::new(children, AnyNode::Esa)),
        }
    }

    fn for_each_suffix_below(&self, n: AnyNode, f: &mut dyn FnMut(SeqId, u32, u32)) {
        match self {
            AnyIndex::Tree(t) => t.for_each_suffix_below(n.tree(), f),
            AnyIndex::Esa(e) => e.esa().for_each_suffix_below(n.esa(), f),
        }
    }

    fn for_each_suffix_at(&self, n: AnyNode, f: &mut dyn FnMut(SeqId, u32, u32)) {
        match self {
            AnyIndex::Tree(t) => t.for_each_suffix_at(n.tree(), f),
            AnyIndex::Esa(e) => e.esa().for_each_suffix_at(n.esa(), f),
        }
    }

    fn is_sparse(&self) -> bool {
        match self {
            AnyIndex::Tree(t) => t.is_sparse(),
            AnyIndex::Esa(e) => e.esa().is_sparse(),
        }
    }

    fn suffix_count(&self) -> u64 {
        match self {
            AnyIndex::Tree(t) => IndexBackend::suffix_count(t),
            AnyIndex::Esa(e) => e.esa().suffix_count(),
        }
    }

    fn backend_kind(&self) -> BackendKind {
        self.kind()
    }

    fn depth_limit(&self) -> Option<u32> {
        match self {
            AnyIndex::Tree(t) => t.depth_limit(),
            AnyIndex::Esa(e) => e.esa().depth_limit(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::esa::write_esa_with;
    use crate::vfs::RealVfs;
    use crate::writer::write_tree_with;
    use warptree_esa::EsaIndex;
    use warptree_suffix::build_full;

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("warptree-any-{}-{}", std::process::id(), name));
        p
    }

    #[test]
    fn dispatch_presents_identical_traversals() {
        let cat = Arc::new(CatStore::from_symbols(
            vec![vec![0, 1, 0, 1, 1], vec![1, 0, 0]],
            2,
        ));
        let tree_path = tmp("tree");
        write_tree_with(&RealVfs, &build_full(cat.clone()), &tree_path).unwrap();
        let esa_path = tmp("esa");
        write_esa_with(&RealVfs, &EsaIndex::build(cat.clone(), false), &esa_path).unwrap();

        let tree =
            AnyIndex::open_with(&RealVfs, &tree_path, cat.clone(), BackendKind::Tree).unwrap();
        let esa = AnyIndex::open_with(&RealVfs, &esa_path, cat, BackendKind::Esa).unwrap();
        assert_eq!(tree.kind(), BackendKind::Tree);
        assert_eq!(esa.kind(), BackendKind::Esa);
        assert!(tree.as_tree().is_some() && tree.as_esa().is_none());
        assert!(esa.as_esa().is_some() && esa.as_tree().is_none());

        let mut a = Vec::new();
        tree.for_each_suffix_below(tree.root(), &mut |s, p, r| a.push((s, p, r)));
        let mut b = Vec::new();
        esa.for_each_suffix_below(esa.root(), &mut |s, p, r| b.push((s, p, r)));
        assert_eq!(a, b, "suffix enumeration order must match across backends");
        assert_eq!(
            IndexBackend::suffix_count(&tree),
            IndexBackend::suffix_count(&esa)
        );
        assert!(esa.resident_bytes() > 0);
        // Both files pass the committed-file check, and their headers
        // give the same shape.
        for (path, backend) in [
            (&tree_path, BackendKind::Tree),
            (&esa_path, BackendKind::Esa),
        ] {
            AnyIndex::check(&RealVfs, path, tree.cat().clone(), backend).unwrap();
            let shape = index_shape(&RealVfs, path, backend).unwrap();
            assert_eq!(
                (shape.alphabet_len, shape.sparse, shape.depth_limit),
                (2, false, None)
            );
        }

        std::fs::remove_file(&tree_path).unwrap();
        std::fs::remove_file(&esa_path).unwrap();
    }

    #[test]
    fn opening_a_file_as_the_wrong_backend_is_typed() {
        let cat = Arc::new(CatStore::from_symbols(vec![vec![0, 1]], 2));
        let esa_path = tmp("wrongway");
        write_esa_with(&RealVfs, &EsaIndex::build(cat.clone(), false), &esa_path).unwrap();
        let err = AnyIndex::open_with(&RealVfs, &esa_path, cat, BackendKind::Tree).unwrap_err();
        assert!(matches!(
            err,
            DiskError::UnsupportedBackend { ref found } if found == "esa"
        ));
        std::fs::remove_file(&esa_path).unwrap();
    }
}
