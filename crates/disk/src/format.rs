//! On-disk suffix-tree file format.
//!
//! A tree file is a paged stream (see [`pager`](crate::pager)) holding a
//! fixed-size header followed by node records written in post-order —
//! children always precede their parent, so the file is produced in a
//! single sequential pass and the root is the last record, back-patched
//! into the header.
//!
//! ```text
//! header (64 bytes, logical offset 0):
//!   magic   [u8;8] = "WARPTREE"
//!   version u32    = 1
//!   flags   u32      bit 0: sparse tree
//!   alpha   u32      alphabet length the symbols were drawn from
//!   node_count   u64
//!   suffix_count u64
//!   root_offset  u64
//!   depth_limit  u32  (0 = untruncated; see paper §8)
//!   reserved     [u8;16] (zero)
//!
//! node record:
//!   label_seq u32, label_start u32, label_len u32   (edge entering node)
//!   suffix_count u64                                (at or below)
//!   max_lead_run u32                                (at or below)
//!   n_suffixes u32, n_children u32
//!   n_suffixes × { seq u32, start u32, lead_run u32 }
//!   n_children × { first_symbol u32, offset u64 }   (sorted by symbol)
//! ```
//!
//! All integers are little-endian. Every page carries a CRC-32, and a
//! tree is read whole at open, so corruption anywhere in the file is
//! detected there. A CRC only vouches for the bytes, not for who wrote
//! them, so the open also checks every record once
//! ([`DiskTree::open_with`]): [`NodeView::decode`]'s checks against the
//! file and the store it indexes, and that every child is the start of
//! an earlier record. A well-checksummed hostile record opens the tree
//! damaged, as a typed [`DiskError::BadRecord`], before any query; a
//! query reads the checked records in place and checks nothing again.
//! The §4.1 merge, which opens no tree, checks each record it reads
//! through [`NodeView::decode`].

use std::path::Path;
use std::sync::Arc;

use warptree_core::categorize::{CatStore, Symbol};
use warptree_core::search::{IndexBackend, NodeVisit};
use warptree_core::sequence::SeqId;
use warptree_suffix::SuffixTree;

use crate::any::open_headed;
use crate::error::{DiskError, Result};
use crate::pager::{IoStats, PAGE_DATA};
use crate::vfs::{RealVfs, Vfs};
use crate::writer::{encode_tree, image, write_file};

/// Size of the file header in logical bytes.
pub const HEADER_SIZE: u64 = 64;
/// Header magic bytes.
pub const MAGIC: &[u8; 8] = b"WARPTREE";
/// Current format version.
pub const VERSION: u32 = 1;

/// Decoded file header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Header {
    /// `true` when the tree stores only the §6.1 suffix subset.
    pub sparse: bool,
    /// Alphabet length the symbols were drawn from.
    pub alphabet_len: u32,
    /// Total node records in the file.
    pub node_count: u64,
    /// Total stored suffixes.
    pub suffix_count: u64,
    /// Logical offset of the root node record.
    pub root_offset: u64,
    /// Answer-length cap of a §8-truncated tree (`None` = full).
    pub depth_limit: Option<u32>,
}

impl Header {
    /// Serializes the header into its 64-byte form.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(HEADER_SIZE as usize);
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        out.extend_from_slice(&(self.sparse as u32).to_le_bytes());
        out.extend_from_slice(&self.alphabet_len.to_le_bytes());
        out.extend_from_slice(&self.node_count.to_le_bytes());
        out.extend_from_slice(&self.suffix_count.to_le_bytes());
        out.extend_from_slice(&self.root_offset.to_le_bytes());
        out.extend_from_slice(&self.depth_limit.unwrap_or(0).to_le_bytes());
        out.resize(HEADER_SIZE as usize, 0);
        out
    }

    /// Parses and validates a 64-byte header.
    pub fn decode(buf: &[u8]) -> Result<Self> {
        if buf.len() < HEADER_SIZE as usize {
            return Err(DiskError::BadHeader("truncated header".into()));
        }
        if &buf[0..8] != MAGIC {
            if &buf[0..8] == crate::esa::ESA_MAGIC {
                // A tree-only code path opened a file committed by the
                // esa backend: name the mismatch instead of "bad magic"
                // so callers (and operators) see what happened.
                return Err(DiskError::UnsupportedBackend {
                    found: "esa".into(),
                });
            }
            return Err(DiskError::BadHeader("bad magic".into()));
        }
        let version = u32::from_le_bytes(buf[8..12].try_into().unwrap());
        if version != VERSION {
            return Err(DiskError::BadHeader(format!(
                "unsupported version {version}"
            )));
        }
        let flags = u32::from_le_bytes(buf[12..16].try_into().unwrap());
        Ok(Header {
            sparse: flags & 1 != 0,
            alphabet_len: u32::from_le_bytes(buf[16..20].try_into().unwrap()),
            node_count: u64::from_le_bytes(buf[20..28].try_into().unwrap()),
            suffix_count: u64::from_le_bytes(buf[28..36].try_into().unwrap()),
            root_offset: u64::from_le_bytes(buf[36..44].try_into().unwrap()),
            depth_limit: match u32::from_le_bytes(buf[44..48].try_into().unwrap()) {
                0 => None,
                d => Some(d),
            },
        })
    }
}

/// A node record copied out of the tree ([`NodeView::to_node`]), for
/// readers that hold several records at once (`to_mem`, tests).
/// Cheap to clone: the variable-length body is one shared allocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DiskNode {
    /// Edge label entering this node: `(seq, start, len)`, a range
    /// [`NodeView::decode`] checked against the store.
    pub label: (SeqId, u32, u32),
    /// Stored suffixes at or below this node.
    pub suffix_count: u64,
    /// Maximum leading-run length at or below this node.
    pub max_lead_run: u32,
    n_suffixes: u32,
    /// The record body, one 12-byte entry each: `n_suffixes ×
    /// [seq, start, lead_run]`, then per child `[first_symbol, offset
    /// low word, offset high word]`.
    entries: Arc<[[u32; 3]]>,
}

impl DiskNode {
    /// Suffix labels attached to this node: `(seq, start, lead_run)`.
    pub fn suffixes(&self) -> impl ExactSizeIterator<Item = (SeqId, u32, u32)> + '_ {
        let own = &self.entries[..self.n_suffixes as usize];
        own.iter().map(|e| (SeqId(e[0]), e[1], e[2]))
    }

    /// Children as `(first_symbol, node_offset)`, sorted by symbol.
    pub fn children(&self) -> impl ExactSizeIterator<Item = (Symbol, u64)> + '_ {
        let kids = &self.entries[self.n_suffixes as usize..];
        kids.iter()
            .map(|e| (e[0], u64::from(e[1]) | u64::from(e[2]) << 32))
    }
}

/// Fixed-size prefix of a node record.
const NODE_HEAD: usize = 32;
/// Size of one suffix or child entry of a node record.
const NODE_ENTRY: usize = 12;

/// Serializes a node record onto the end of `out`: the edge label
/// entering the node, its subtree annotations, the suffixes attached to
/// it — given as runs written back to back — and its children
/// `(first_symbol, offset)` in symbol order. A writer that emits many
/// records reuses one buffer.
pub fn encode_node(
    out: &mut Vec<u8>,
    label: (SeqId, u32, u32),
    suffix_count: u64,
    max_lead_run: u32,
    suffixes: &[&[(SeqId, u32, u32)]],
    children: &[(Symbol, u64)],
) {
    let n_suffixes: usize = suffixes.iter().map(|run| run.len()).sum();
    out.reserve(NODE_HEAD + NODE_ENTRY * (n_suffixes + children.len()));
    out.extend_from_slice(&label.0 .0.to_le_bytes());
    out.extend_from_slice(&label.1.to_le_bytes());
    out.extend_from_slice(&label.2.to_le_bytes());
    out.extend_from_slice(&suffix_count.to_le_bytes());
    out.extend_from_slice(&max_lead_run.to_le_bytes());
    out.extend_from_slice(&(n_suffixes as u32).to_le_bytes());
    out.extend_from_slice(&(children.len() as u32).to_le_bytes());
    for &(seq, start, run) in suffixes.iter().copied().flatten() {
        out.extend_from_slice(&seq.0.to_le_bytes());
        out.extend_from_slice(&start.to_le_bytes());
        out.extend_from_slice(&run.to_le_bytes());
    }
    for (first, offset) in children {
        out.extend_from_slice(&first.to_le_bytes());
        out.extend_from_slice(&offset.to_le_bytes());
    }
}

/// A checked node record read in place: a borrowed view over the
/// tree's bytes. A traversal reads a record through this and copies
/// nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeView<'a> {
    /// Exactly the record: its head, then `n_suffixes + n_children`
    /// entries.
    bytes: &'a [u8],
    n_suffixes: usize,
}

#[inline]
fn word(bytes: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap())
}

fn overrun(offset: u64) -> String {
    format!("node at {offset} overruns the file")
}

impl<'a> NodeView<'a> {
    /// Decodes the node record at logical `offset` of `file`, the
    /// logical bytes of a tree file over `cat`.
    ///
    /// The bytes passed their page CRCs but are otherwise untrusted, and
    /// everything a reader later takes from the view is checked here,
    /// once. A record is [`DiskError::BadRecord`] when
    ///
    /// * it overruns the file;
    /// * its edge label is not a range of a sequence of `cat` (every
    ///   label is handed to the traversal as a borrowed slice of that
    ///   sequence);
    /// * a child does not precede it in the file — children are written
    ///   before their parent, and a traversal that only ever moves to
    ///   smaller offsets cannot be sent round a cycle;
    /// * a suffix entry `(seq, start, lead_run)` is not a position of
    ///   `cat` with a run that fits behind it (`seq < cat.len()`,
    ///   `start < |seq|`, `1 ≤ lead_run ≤ |seq| − start`) — the entries
    ///   become the occurrences post-processing slices the store with.
    ///
    /// The open of a [`DiskTree`] runs the same checks over every record
    /// and adds one: a child must be the start of a record.
    pub fn decode(file: &'a [u8], offset: u64, cat: &CatStore) -> Result<Self> {
        let node = Self::at(file, offset).ok_or_else(|| overrun(offset));
        let seq_len = |seq: SeqId| cat.seqs().get(seq.0 as usize).map_or(0, |s| s.len() as u64);
        node.and_then(|node| node.check(offset, seq_len, |_| true).map(|()| node))
            .map_err(DiskError::BadRecord)
    }

    /// The record at `offset` of `file`, sized by its counts, its fields
    /// unchecked; `None` when it overruns the file.
    #[inline]
    fn at(file: &'a [u8], offset: u64) -> Option<Self> {
        // Bound the record by the file before anything is sized by it.
        let bytes = file.get(usize::try_from(offset).ok()?..)?;
        let head = bytes.get(..NODE_HEAD)?;
        let n_suffixes = word(head, 24) as usize;
        let entries = n_suffixes as u64 + u64::from(word(head, 28));
        let total = NODE_HEAD as u64 + NODE_ENTRY as u64 * entries;
        Some(NodeView {
            bytes: bytes.get(..usize::try_from(total).ok()?)?,
            n_suffixes,
        })
    }

    /// [`decode`](Self::decode)'s checks of the record at `offset`
    /// against the store's sequence lengths (`seq_len`, 0 for a sequence
    /// the store does not have); `is_record` must also hold of each
    /// child. A failure is the [`DiskError::BadRecord`] message.
    #[inline]
    fn check(
        &self,
        offset: u64,
        seq_len: impl Fn(SeqId) -> u64,
        is_record: impl Fn(u64) -> bool,
    ) -> std::result::Result<(), String> {
        let (seq, start, len) = self.label();
        if len != 0 && start as u64 + len as u64 > seq_len(seq) {
            return Err(format!(
                "node at {offset}: label ({}, {start}, {len}) is outside the corpus",
                seq.0
            ));
        }
        for (seq, start, run) in self.suffixes() {
            let room = seq_len(seq).saturating_sub(start as u64);
            if run == 0 || run as u64 > room {
                return Err(format!(
                    "node at {offset}: suffix ({}, {start}, run {run}) is outside the corpus",
                    seq.0
                ));
            }
        }
        for (_, child) in self.children() {
            if child >= offset {
                return Err(format!(
                    "node at {offset}: child at {child} does not precede it"
                ));
            }
            if !is_record(child) {
                return Err(format!(
                    "node at {offset}: child at {child} is not the start of a record"
                ));
            }
        }
        Ok(())
    }

    /// Edge label entering this node: `(seq, start, len)`.
    pub fn label(&self) -> (SeqId, u32, u32) {
        let b = self.bytes;
        (SeqId(word(b, 0)), word(b, 4), word(b, 8))
    }

    /// Stored suffixes at or below this node.
    pub fn suffix_count(&self) -> u64 {
        u64::from_le_bytes(self.bytes[12..20].try_into().unwrap())
    }

    /// Maximum leading-run length at or below this node.
    pub fn max_lead_run(&self) -> u32 {
        word(self.bytes, 20)
    }

    /// The record body, 12 bytes an entry: the suffixes, then the children.
    fn entries(&self) -> std::slice::ChunksExact<'a, u8> {
        self.bytes[NODE_HEAD..].chunks_exact(NODE_ENTRY)
    }

    /// Number of suffix labels attached to this node.
    pub fn attached(&self) -> u32 {
        self.n_suffixes as u32
    }

    /// Suffix labels attached to this node: `(seq, start, lead_run)`.
    pub fn suffixes(&self) -> impl Iterator<Item = (SeqId, u32, u32)> + 'a {
        let own = self.entries().take(self.n_suffixes);
        own.map(|e| (SeqId(word(e, 0)), word(e, 4), word(e, 8)))
    }

    /// Children as `(first_symbol, node_offset)`, sorted by symbol.
    pub fn children(&self) -> impl Iterator<Item = (Symbol, u64)> + 'a {
        let kids = self.entries().skip(self.n_suffixes);
        kids.map(|e| {
            (
                word(e, 0),
                u64::from(word(e, 4)) | u64::from(word(e, 8)) << 32,
            )
        })
    }

    /// The record as an owned [`DiskNode`].
    pub fn to_node(&self) -> DiskNode {
        DiskNode {
            label: self.label(),
            suffix_count: self.suffix_count(),
            max_lead_run: self.max_lead_run(),
            n_suffixes: self.n_suffixes as u32,
            entries: self
                .entries()
                .map(|e| [word(e, 0), word(e, 4), word(e, 8)])
                .collect(),
        }
    }
}

/// What the open of a [`DiskTree`] found wrong with its file: the tree
/// then serves nothing.
#[derive(Debug)]
enum Damage {
    /// A page after the header failed its CRC.
    Page(u64),
    /// A record failed its checks (the [`DiskError::BadRecord`] message).
    Record(String),
}

/// A suffix tree as its file's bytes, query-ready through
/// [`IndexBackend`]: the logical bytes of a file, read whole and
/// CRC-checked at [`open`](Self::open), or of a built tree
/// ([`from_tree`](Self::from_tree)); every record checked once, and
/// every node record read in place on each visit. It is the one query
/// implementation of a tree.
pub struct DiskTree {
    /// The logical bytes of the file (an opened file's final page's
    /// padding included).
    bytes: Vec<u8>,
    cat: Arc<CatStore>,
    header: Header,
    /// File name this tree was opened from — the segment identity its
    /// damage is reported under (empty for a tree made in memory).
    source: String,
    damage: Option<Damage>,
}

impl DiskTree {
    /// Opens a tree file against the categorized store its labels
    /// reference.
    pub fn open(path: &Path, cat: Arc<CatStore>) -> Result<Self> {
        Self::open_with(&RealVfs, path, cat)
    }

    /// [`open`](Self::open) through an explicit [`Vfs`]: one read of
    /// the whole file, then one pass that checks each of its records
    /// (see the module docs). A header page that fails its CRC fails the
    /// open as a [`DiskError::CorruptionDetected`] naming the file. A
    /// later page that fails, or a record that fails its checks, opens
    /// the tree [`damaged`](Self::damage): it serves nothing, and a
    /// snapshot answers by scan instead.
    pub fn open_with(vfs: &dyn Vfs, path: &Path, cat: Arc<CatStore>) -> Result<Self> {
        let (pages, header, source) =
            open_headed::<Header>(vfs, path, u64::MAX, Some(cat.alphabet_len()))?;
        Ok(Self::checked(pages.bytes, header, cat, source, pages.bad))
    }

    /// The tree a built [`SuffixTree`] encodes to, held in memory: the
    /// logical bytes [`write_tree`](crate::writer::write_tree) would
    /// commit, checked record by record as an open checks a file's. The
    /// pointer tree is a build structure; this is how it is queried.
    pub fn from_tree(tree: &SuffixTree) -> Self {
        let (bytes, header) =
            image(|w| encode_tree(tree, w)).expect("an encode into memory does not fail");
        Self::checked(bytes, header, tree.cat().clone(), String::new(), None)
    }

    /// The tail of every way to make a tree: a page that failed its CRC
    /// at open, or else the record pass over `bytes`, decides its damage.
    fn checked(
        bytes: Vec<u8>,
        header: Header,
        cat: Arc<CatStore>,
        source: String,
        bad_page: Option<u64>,
    ) -> Self {
        let damage = match bad_page {
            Some(page) => Some(Damage::Page(page)),
            None => check_records(&bytes, &header, &cat)
                .err()
                .map(Damage::Record),
        };
        Self {
            bytes,
            cat,
            header,
            source,
            damage,
        }
    }

    /// Writes this tree to `path` as a tree file (the way the builder
    /// writes a lone batch's image), returning its logical length (an
    /// opened file's padding is written back as it was read).
    pub fn write_with(&self, vfs: &dyn Vfs, path: &Path) -> Result<u64> {
        write_file(vfs, path, |w| {
            w.write(&self.bytes)?;
            Ok(self.header)
        })
    }

    /// The file name this tree was opened from (its segment identity;
    /// empty for a tree made in memory).
    pub fn source(&self) -> &str {
        &self.source
    }

    /// What the open found wrong, if anything: the page that failed its
    /// CRC ([`DiskError::CorruptPage`]) or the record that failed its
    /// checks ([`DiskError::BadRecord`]). A damaged tree reads no record
    /// and answers no query.
    pub fn damage(&self) -> Option<DiskError> {
        self.damage.as_ref().map(|d| match d {
            Damage::Page(page) => DiskError::CorruptPage { page: *page },
            Damage::Record(m) => DiskError::BadRecord(m.clone()),
        })
    }

    /// The file header.
    pub fn header(&self) -> Header {
        self.header
    }

    /// The categorized store the labels reference.
    pub fn cat(&self) -> &Arc<CatStore> {
        &self.cat
    }

    /// What the open read: every page of the file, once.
    pub fn io_stats(&self) -> IoStats {
        IoStats {
            pages_read: (self.bytes.len() / PAGE_DATA) as u64,
            cache_hits: 0,
        }
    }

    /// The logical bytes this tree serves: a file's (its final page's
    /// zero padding included), or the image a built tree encodes to.
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Logical length of the file in bytes (the paper's "index size"),
    /// all of which the tree holds.
    pub fn logical_len(&self) -> u64 {
        self.bytes.len() as u64
    }

    /// Counts a page that failed its CRC at open into `reg`'s
    /// `disk.read_crc_fail`, a name every tree of a directory shares.
    pub fn instrument(&self, reg: &warptree_obs::MetricsRegistry) {
        if let Some(Damage::Page(_)) = self.damage {
            reg.counter("disk.read_crc_fail").incr();
        }
    }

    /// Reads the node record at `offset` as an owned [`DiskNode`],
    /// through [`NodeView::decode`]'s checks (the offset is the
    /// caller's). A damaged tree reads none: its [`damage`](Self::damage).
    pub fn read_node(&self, offset: u64) -> Result<DiskNode> {
        if let Some(e) = self.damage() {
            return Err(e);
        }
        Ok(NodeView::decode(&self.bytes, offset, &self.cat)?.to_node())
    }

    /// The record at `offset`, one the open checked: a child or the root
    /// of this undamaged tree.
    #[inline]
    fn node(&self, offset: u64) -> NodeView<'_> {
        NodeView::at(&self.bytes, offset).expect("a record the open checked")
    }

    /// The symbols of a checked node's edge label (the root's is empty).
    fn label_symbols(&self, (seq, start, len): (SeqId, u32, u32)) -> &[Symbol] {
        if len == 0 {
            return &[];
        }
        &self.cat.seq(seq)[start as usize..(start + len) as usize]
    }

    /// Materializes the whole file back into an in-memory
    /// [`warptree_suffix::SuffixTree`]: what the merge and writer tests
    /// compare round trips with.
    pub fn to_mem(&self) -> Result<warptree_suffix::SuffixTree> {
        use warptree_suffix::{LabelRef, SuffixLabel, SuffixTree, ROOT};
        let mut tree = SuffixTree::empty(self.cat.clone(), self.header.sparse);
        if let Some(limit) = self.header.depth_limit {
            tree.set_depth_limit(limit);
        }
        // (disk offset, mem parent)
        let mut stack = vec![(self.header.root_offset, ROOT)];
        let mut first = true;
        while let Some((off, parent)) = stack.pop() {
            let dn = self.read_node(off)?;
            let mem = if first {
                first = false;
                ROOT
            } else {
                let id = tree.alloc(LabelRef {
                    seq: dn.label.0,
                    start: dn.label.1,
                    len: dn.label.2,
                });
                tree.attach(parent, id);
                id
            };
            for (seq, start, run) in dn.suffixes() {
                tree.node_mut(mem).suffixes.push(SuffixLabel {
                    seq,
                    start,
                    lead_run: run,
                });
            }
            for (_, coff) in dn.children() {
                stack.push((coff, mem));
            }
        }
        tree.finalize();
        Ok(tree)
    }
}

/// Checks every record of `bytes`, a tree file with `header` over `cat`,
/// once, in file order: [`NodeView::decode`]'s checks, and that every
/// child is the start of a record before its parent. Records lie back
/// to back from the header on, written post-order, so the walk must
/// meet the header's `node_count` records and end on the one at
/// `root_offset`; every record is 4-aligned, so one bit per 4-byte word
/// marks the starts it has passed. Each step passes at least one record
/// head, so the work is bounded by the file's length.
///
/// Every offset a traversal reads comes from the root or a checked
/// child, so a tree that passes reads its records unchecked.
fn check_records(bytes: &[u8], header: &Header, cat: &CatStore) -> std::result::Result<(), String> {
    let lens: Vec<u64> = cat.seqs().iter().map(|s| s.len() as u64).collect();
    let seq_len = |seq: SeqId| lens.get(seq.0 as usize).copied().unwrap_or(0);
    // One bit per 4-byte word of the file, set at each record start
    // passed: a word of `starts` and the bit in it.
    let mut starts = vec![0u64; bytes.len().div_ceil(256)];
    let bit = |at: u64| ((at / 256) as usize, 1u64 << (at / 4 % 64));
    let Header {
        node_count,
        root_offset,
        ..
    } = *header;
    let (mut at, mut count) = (HEADER_SIZE, 1);
    loop {
        let node = NodeView::at(bytes, at).ok_or_else(|| overrun(at))?;
        // `check` asks only of a child before `at`, inside the file.
        let is_record = |child: u64| {
            let (word, mask) = bit(child);
            child.is_multiple_of(4) && starts[word] & mask != 0
        };
        node.check(at, seq_len, is_record)?;
        if at >= root_offset {
            break;
        }
        let (word, mask) = bit(at);
        starts[word] |= mask;
        at += node.bytes.len() as u64;
        count += 1;
    }
    if (at, count) != (root_offset, node_count) {
        return Err(format!(
            "{count} records end at {at}, not the header's {node_count} at {root_offset}"
        ));
    }
    Ok(())
}

impl IndexBackend for DiskTree {
    type Node = u64;

    /// The root record. A damaged tree answers no query: this panics
    /// (a snapshot answers by scan instead, and never asks it).
    fn root(&self) -> u64 {
        if let Some(e) = self.damage() {
            panic!("query over the damaged tree {}: {e}", self.source);
        }
        self.header.root_offset
    }

    fn visit(&self, n: u64, children: &mut impl Extend<u64>) -> NodeVisit<'_> {
        // The one record read of a node visit, in place.
        let node = self.node(n);
        children.extend(node.children().map(|(_, off)| off));
        NodeVisit {
            label: self.label_symbols(node.label()),
            max_lead_run: node.max_lead_run(),
            suffix_count: Some(node.suffix_count()),
            attached: node.attached(),
        }
    }

    fn for_each_suffix_at(&self, n: u64, f: &mut dyn FnMut(SeqId, u32, u32)) {
        for (seq, start, run) in self.node(n).suffixes() {
            f(seq, start, run);
        }
    }

    fn for_each_suffix_below(&self, n: u64, f: &mut dyn FnMut(SeqId, u32, u32)) {
        let mut stack = vec![n];
        while let Some(off) = stack.pop() {
            let node = self.node(off);
            for (seq, start, run) in node.suffixes() {
                f(seq, start, run);
            }
            stack.extend(node.children().map(|(_, coff)| coff));
        }
    }

    fn is_sparse(&self) -> bool {
        self.header.sparse
    }

    fn suffix_count(&self) -> u64 {
        self.header.suffix_count
    }

    fn depth_limit(&self) -> Option<u32> {
        self.header.depth_limit
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One record, encoded on its own.
    fn encoded(
        label: (SeqId, u32, u32),
        suffix_count: u64,
        max_lead_run: u32,
        suffixes: &[(SeqId, u32, u32)],
        children: &[(Symbol, u64)],
    ) -> Vec<u8> {
        let mut out = Vec::new();
        let runs = [suffixes];
        encode_node(&mut out, label, suffix_count, max_lead_run, &runs, children);
        out
    }

    /// The labels of the records at `kids`, in order.
    fn labels(t: &DiskTree, kids: &[u64]) -> Vec<Vec<Symbol>> {
        let label = |&k: &u64| t.visit(k, &mut Vec::new()).label.to_vec();
        kids.iter().map(label).collect()
    }

    /// The labels of `n`'s children in the pointer tree, in order.
    fn mem_labels(mem: &SuffixTree, n: warptree_suffix::NodeId) -> Vec<Vec<Symbol>> {
        let label = |&c: &warptree_suffix::NodeId| mem.label_symbols(mem.node(c).label).to_vec();
        mem.node(n).children.iter().map(label).collect()
    }

    #[test]
    fn trait_view_matches_tree() {
        use warptree_suffix::ROOT;
        let c = Arc::new(CatStore::from_symbols(
            vec![vec![0, 0, 1, 2], vec![1, 1, 1]],
            3,
        ));
        let mem = warptree_suffix::build_full_naive(c);
        let t = DiskTree::from_tree(&mem);
        assert_eq!(t.damage().map(|e| e.to_string()), None);
        assert_eq!(IndexBackend::suffix_count(&t), 7);
        assert!(!IndexBackend::is_sparse(&t));
        let mut kids = Vec::new();
        let root = t.visit(t.root(), &mut kids);
        assert_eq!(labels(&t, &kids), mem_labels(&mem, ROOT));
        assert!(root.label.is_empty());
        assert_eq!(root.suffix_count, Some(7));
        assert_eq!(root.max_lead_run, 3);
        // A visit appends: what the buffer held stays in place.
        let below = kids.len();
        let first = t.visit(kids[0], &mut kids);
        let mem_first = mem.node(ROOT).children[0];
        assert_eq!(first.label, mem.label_symbols(mem.node(mem_first).label));
        assert!(!first.label.is_empty());
        assert_eq!(labels(&t, &kids[below..]), mem_labels(&mem, mem_first));
        let mut count = 0;
        t.for_each_suffix_below(t.root(), &mut |_, _, _| count += 1);
        assert_eq!(count, 7);
    }

    #[test]
    fn sparse_trait_view() {
        let c = Arc::new(CatStore::from_symbols(vec![vec![0, 0, 0, 1]], 2));
        let t = DiskTree::from_tree(&warptree_suffix::build_sparse(c));
        assert!(IndexBackend::is_sparse(&t));
        assert_eq!(IndexBackend::suffix_count(&t), 2); // suffixes at 0 and 3
        assert_eq!(t.visit(t.root(), &mut Vec::new()).max_lead_run, 3);
    }

    #[test]
    fn header_roundtrip() {
        let h = Header {
            sparse: true,
            alphabet_len: 42,
            node_count: 7,
            suffix_count: 5,
            root_offset: 4096,
            depth_limit: Some(17),
        };
        let enc = h.encode();
        assert_eq!(enc.len(), HEADER_SIZE as usize);
        assert_eq!(Header::decode(&enc).unwrap(), h);
    }

    #[test]
    fn header_rejects_bad_magic_and_version() {
        let h = Header {
            sparse: false,
            alphabet_len: 1,
            node_count: 1,
            suffix_count: 0,
            root_offset: HEADER_SIZE,
            depth_limit: None,
        };
        let mut enc = h.encode();
        enc[0] = b'X';
        assert!(matches!(Header::decode(&enc), Err(DiskError::BadHeader(_))));
        let mut enc2 = h.encode();
        enc2[8] = 99;
        assert!(matches!(
            Header::decode(&enc2),
            Err(DiskError::BadHeader(_))
        ));
        assert!(matches!(
            Header::decode(&enc2[..10]),
            Err(DiskError::BadHeader(_))
        ));
    }

    /// A `file_len`-byte file with `record` at `offset` (cut at the
    /// end of the file) and zeros around it.
    fn file_with(record: &[u8], offset: u64, file_len: u64) -> Vec<u8> {
        let mut file = vec![0u8; file_len as usize];
        let at = offset as usize;
        let fits = record.len().min(file.len() - at);
        file[at..at + fits].copy_from_slice(&record[..fits]);
        file
    }

    #[test]
    fn node_record_roundtrip_via_encode() {
        let cat = CatStore::from_symbols(vec![vec![0; 4], vec![1; 4], vec![2; 4], vec![0; 12]], 3);
        let label = (SeqId(3), 7, 5);
        let suffixes = [(SeqId(3), 7, 2), (SeqId(1), 0, 1)];
        let children = [(0, 64), (5, 200)];
        let enc = encoded(label, 9, 4, &suffixes, &children);
        assert_eq!(enc.len(), 32 + 12 * 2 + 12 * 2);
        // The head fields lay out as documented.
        assert_eq!(u32::from_le_bytes(enc[0..4].try_into().unwrap()), 3);
        assert_eq!(u32::from_le_bytes(enc[8..12].try_into().unwrap()), 5);
        assert_eq!(u64::from_le_bytes(enc[12..20].try_into().unwrap()), 9);
        assert_eq!(u32::from_le_bytes(enc[24..28].try_into().unwrap()), 2);
        assert_eq!(u32::from_le_bytes(enc[28..32].try_into().unwrap()), 2);
        // A child offset is a whole little-endian u64, high word last.
        let far = encoded(label, 9, 4, &[], &[(5, (1 << 32) + 128)]);
        assert_eq!(&far[32..], [5, 0, 0, 0, 128, 0, 0, 0, 1, 0, 0, 0]);

        // Trailing bytes (the rest of the file) are not the record's.
        let offset = 1000;
        let file = file_with(&enc, offset, 4096);
        let view = NodeView::decode(&file, offset, &cat).unwrap();
        assert_eq!(view.bytes, &enc[..]);
        assert_eq!(
            (view.label(), view.suffix_count(), view.max_lead_run()),
            (label, 9, 4)
        );
        assert_eq!(view.suffixes().collect::<Vec<_>>(), suffixes);
        assert_eq!(view.children().collect::<Vec<_>>(), children);
        // The owned record is the view, copied out.
        let node = view.to_node();
        assert_eq!(
            (node.label, node.suffix_count, node.max_lead_run),
            (label, 9, 4)
        );
        assert_eq!(node.suffixes().collect::<Vec<_>>(), suffixes);
        assert_eq!(node.children().collect::<Vec<_>>(), children);
    }

    #[test]
    fn hostile_records_are_typed_errors() {
        let cat = CatStore::from_symbols(vec![vec![0, 1, 2, 1]], 3);
        let decode = |enc: &[u8], offset, file_len| {
            NodeView::decode(&file_with(enc, offset, file_len), offset, &cat).map(|_| true)
        };
        let bad = |enc: &[u8], offset: u64, file_len: u64| match decode(enc, offset, file_len) {
            Err(DiskError::BadRecord(m)) => m,
            other => panic!("expected BadRecord, got {other:?}"),
        };
        let ok = encoded((SeqId(0), 1, 3), 1, 1, &[(SeqId(0), 1, 1)], &[(2, 64)]);
        assert!(decode(&ok, 128, 4096).unwrap());
        // Counts that run past the end of the file, before any of the
        // body is looked at (or allocated for).
        assert!(bad(&ok, 128, 128 + ok.len() as u64 - 1).contains("overruns"));
        let mut huge = ok.clone();
        huge[24..28].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(bad(&huge, 128, 4096).contains("overruns"));
        assert!(bad(&ok[..8], 4090, 4096).contains("overruns"));
        // An offset at or past the end of the file.
        for offset in [4096, u64::MAX] {
            let file = file_with(&ok, 128, 4096);
            assert!(matches!(
                NodeView::decode(&file, offset, &cat),
                Err(DiskError::BadRecord(m)) if m.contains("overruns")
            ));
        }
        // Labels that are not a range of a sequence of the store.
        for label in [(SeqId(1), 0, 1), (SeqId(0), 2, 3), (SeqId(0), u32::MAX, 2)] {
            let enc = encoded(label, 1, 1, &[], &[]);
            assert!(bad(&enc, 128, 4096).contains("outside the corpus"));
        }
        // A child at or after its parent.
        for child in [128, 4000] {
            let enc = encoded((SeqId(0), 0, 1), 1, 1, &[], &[(0, child)]);
            assert!(bad(&enc, 128, 4096).contains("does not precede"));
        }
        // The root's empty label names no sequence.
        let root = encoded((SeqId(9), 9, 0), 0, 0, &[], &[]);
        assert!(decode(&root, 64, 4096).unwrap());
        // Suffix entries that are not a position of the store with its
        // run behind it: no such sequence, a start at or past the end, a
        // run of zero, a run past the end (the store is <0, 1, 2, 1>).
        for suffix in [
            (SeqId(1), 0, 1),
            (SeqId(u32::MAX), 0, 1),
            (SeqId(0), 4, 1),
            (SeqId(0), u32::MAX, 1),
            (SeqId(0), 1, 0),
            (SeqId(0), 1, 4),
            (SeqId(0), 3, u32::MAX),
        ] {
            // Behind an honest entry, so the check reaches every one.
            let enc = encoded((SeqId(0), 0, 1), 2, 1, &[(SeqId(0), 0, 1), suffix], &[]);
            assert!(
                bad(&enc, 128, 4096).contains("suffix"),
                "{suffix:?} must be refused"
            );
        }
        // The last position with a run of one, and a run to the end, fit.
        let edge = [(SeqId(0), 3, 1), (SeqId(0), 1, 3)];
        let enc = encoded((SeqId(0), 0, 1), 2, 3, &edge, &[]);
        assert!(decode(&enc, 128, 4096).unwrap());
    }
}
