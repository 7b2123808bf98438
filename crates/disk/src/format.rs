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
//! All integers are little-endian. Every page carries a CRC-32, so
//! corruption anywhere in the file is detected on first touch. A CRC
//! only vouches for the bytes, not for who wrote them: [`NodeView::decode`]
//! — the one decoder, which every reader of a record goes through — also
//! checks each record against the file and the store it indexes (see its
//! docs), so a well-checksummed hostile record is a typed
//! [`DiskError::BadRecord`], never an out-of-range slice.

use std::path::Path;
use std::sync::Arc;

use parking_lot::Mutex;
use warptree_core::categorize::{CatStore, Symbol};
use warptree_core::search::{IndexBackend, NodeVisit};
use warptree_core::sequence::SeqId;

use crate::any::open_headed;
use crate::error::{DiskError, Result};
use crate::lru::LruCache;
use crate::pager::{IoStats, PagedReader, PAGE_DATA};
use crate::vfs::{RealVfs, Vfs};

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

/// A node record copied out of its page ([`NodeView::to_node`]), for
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

/// A checked node record read in place: a borrowed view over the bytes
/// of its page frame (or of a gathered copy, for a record that straddles
/// pages). A traversal reads a record through this and copies nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeView<'a> {
    /// Exactly the record: its head, then `n_suffixes + n_children`
    /// entries.
    bytes: &'a [u8],
    n_suffixes: usize,
}

/// What [`NodeView::decode`] made of the bytes it was given.
#[derive(Debug, PartialEq, Eq)]
pub enum Decoded<'a> {
    /// The whole record was there.
    Node(NodeView<'a>),
    /// The record needs this many bytes from its offset on (at most the
    /// rest of the file): the caller gathers them and decodes again.
    Short(usize),
}

#[inline]
fn word(bytes: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap())
}

impl<'a> NodeView<'a> {
    /// Decodes the node record at logical `offset` of a `file_len`-byte
    /// tree file over `cat`, from `bytes` — the file's content from
    /// `offset` on, as much of it as the caller has at hand (typically
    /// the rest of the record's page).
    ///
    /// The bytes passed their page CRC but are otherwise untrusted, and
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
    pub fn decode(
        bytes: &'a [u8],
        offset: u64,
        file_len: u64,
        cat: &CatStore,
    ) -> Result<Decoded<'a>> {
        // The record's length, as far as the bytes at hand tell it: the
        // head's, until the head is there to give the entry counts. Bound
        // it by the file before anything is sized by it.
        let entries = if bytes.len() < NODE_HEAD {
            0
        } else {
            word(bytes, 24) as u64 + word(bytes, 28) as u64
        };
        let total = NODE_HEAD as u64 + NODE_ENTRY as u64 * entries;
        if offset + total > file_len {
            return Err(DiskError::BadRecord(format!(
                "node at {offset} overruns the file"
            )));
        }
        let total = total as usize;
        if bytes.len() < total {
            return Ok(Decoded::Short(total));
        }
        let node = NodeView {
            bytes: &bytes[..total],
            n_suffixes: word(bytes, 24) as usize,
        };
        // A sequence the store does not have holds no position.
        let seq_len = |seq: SeqId| {
            if (seq.0 as usize) < cat.len() {
                cat.seq(seq).len() as u64
            } else {
                0
            }
        };
        let (seq, start, len) = node.label();
        if len != 0 && start as u64 + len as u64 > seq_len(seq) {
            return Err(DiskError::BadRecord(format!(
                "node at {offset}: label ({}, {start}, {len}) is outside the corpus",
                seq.0
            )));
        }
        for (seq, start, run) in node.suffixes() {
            let room = seq_len(seq).saturating_sub(start as u64);
            if run == 0 || run as u64 > room {
                return Err(DiskError::BadRecord(format!(
                    "node at {offset}: suffix ({}, {start}, run {run}) is outside the corpus",
                    seq.0
                )));
            }
        }
        if let Some((_, child)) = node.children().find(|&(_, child)| child >= offset) {
            return Err(DiskError::BadRecord(format!(
                "node at {offset}: child at {child} does not precede it"
            )));
        }
        Ok(Decoded::Node(node))
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

/// Panic payload used to abort a tree traversal on an unreadable node.
///
/// The [`IndexBackend`] trait's walk callbacks are infallible, so a
/// mid-traversal read failure cannot return an `Err` through them.
/// Instead the failing [`DiskTree`] records the page that failed (see
/// [`DiskTree::take_read_error`]) and unwinds with this marker;
/// [`DirSnapshot::query_with`](crate::DirSnapshot::query_with) catches
/// the unwind, records the tree as damaged and answers the query by
/// sequential scan over the corpus instead.
pub(crate) struct TreeReadAbort;

/// A disk-resident suffix tree, query-ready through
/// [`IndexBackend`]. All reads verify page CRCs; a traversal reads node
/// records in place, on their page frames.
pub struct DiskTree {
    reader: PagedReader,
    cat: Arc<CatStore>,
    header: Header,
    /// Owned records [`read_node`](Self::read_node) handed out, by
    /// offset. A query never looks here.
    nodes: Mutex<LruCache<u64, DiskNode>>,
    /// File name this tree was opened from — the segment identity a
    /// failed read is reported under.
    source: String,
    /// The page of the first read failure observed during a traversal
    /// (set by [`must_read`](Self::must_read) before unwinding).
    read_error: Mutex<Option<u64>>,
}

impl DiskTree {
    /// Opens a tree file against the categorized store its labels
    /// reference. `cache_pages` sizes the page buffer pool;
    /// `cache_nodes` the decoded-node cache.
    pub fn open(
        path: &Path,
        cat: Arc<CatStore>,
        cache_pages: usize,
        cache_nodes: usize,
    ) -> Result<Self> {
        Self::open_with(&RealVfs, path, cat, cache_pages, cache_nodes)
    }

    /// [`open`](Self::open) through an explicit [`Vfs`].
    pub fn open_with(
        vfs: &dyn Vfs,
        path: &Path,
        cat: Arc<CatStore>,
        cache_pages: usize,
        cache_nodes: usize,
    ) -> Result<Self> {
        let (reader, header, source) =
            open_headed(vfs, path, cache_pages, Some(cat.alphabet_len()))?;
        Ok(Self {
            reader,
            cat,
            header,
            nodes: Mutex::new(LruCache::new(cache_nodes.max(1))),
            source,
            read_error: Mutex::new(None),
        })
    }

    /// The file name this tree was opened from (its segment identity).
    pub fn source(&self) -> &str {
        &self.source
    }

    /// Takes the page of the read failure recorded by an aborted
    /// traversal, if any.
    pub(crate) fn take_read_error(&self) -> Option<u64> {
        self.read_error.lock().take()
    }

    /// Reads the node at `offset` through `f`, or aborts the traversal:
    /// the failing page is recorded on this tree — the one that failed
    /// its CRC, or the one holding the record that does not decode —
    /// and the stack unwinds with [`TreeReadAbort`] for the fan-out
    /// layer to catch.
    fn must_read<R>(&self, offset: u64, f: impl FnOnce(NodeView<'_>) -> R) -> R {
        match self.with_node(offset, f) {
            Ok(r) => r,
            Err(e) => self.abort(offset, e),
        }
    }

    /// The failing half of [`must_read`](Self::must_read), kept out of
    /// the traversal's hot loop.
    #[cold]
    #[inline(never)]
    fn abort(&self, offset: u64, e: DiskError) -> ! {
        let page = match e {
            DiskError::CorruptPage { page } => page,
            _ => offset / PAGE_DATA as u64,
        };
        self.read_error.lock().get_or_insert(page);
        // An expected unwind, caught by the fan-out: no panic hook, so
        // nothing is printed.
        std::panic::resume_unwind(Box::new(TreeReadAbort))
    }

    /// Decodes every record of the file through [`NodeView::decode`], in
    /// file order: the tree's part of the committed-file check. Records
    /// lie back to back from the header on, written post-order, so the
    /// walk must meet the header's `node_count` records and end on the
    /// one at `root_offset`. Each step passes at least one record head,
    /// so the work is bounded by the file's length.
    pub fn verify_records(&self) -> Result<()> {
        let Header {
            node_count,
            root_offset,
            ..
        } = self.header;
        let (mut at, mut count) = (HEADER_SIZE, 1);
        while at < root_offset {
            at += self.with_node(at, |node| node.bytes.len() as u64)?;
            count += 1;
        }
        self.with_node(at, |_| ())?;
        if (at, count) != (root_offset, node_count) {
            return Err(DiskError::BadRecord(format!(
                "{count} records end at {at}, not the header's {node_count} at {root_offset}"
            )));
        }
        Ok(())
    }

    /// The file header.
    pub fn header(&self) -> Header {
        self.header
    }

    /// The categorized store the labels reference.
    pub fn cat(&self) -> &Arc<CatStore> {
        &self.cat
    }

    /// Page-level I/O counters.
    pub fn io_stats(&self) -> IoStats {
        self.reader.io_stats()
    }

    /// Logical length of the file in bytes (the paper's "index size").
    pub fn logical_len(&self) -> u64 {
        self.reader.logical_len()
    }

    /// Decoded-node cache hit/miss totals, `(hits, misses)`.
    pub fn node_cache_stats(&self) -> (u64, u64) {
        let nodes = self.nodes.lock();
        (nodes.hits(), nodes.misses())
    }

    /// Forwards this tree's cache traffic into `reg` as well: the
    /// decoded-node cache as `disk.node_cache.{hits,misses}` and the
    /// page buffer pool as `disk.page_cache.{hits,misses}`, names every
    /// tree of a directory shares (their counts sum there). Lookups made
    /// before the call are not replayed into `reg`; the tree's own
    /// [`io_stats`](Self::io_stats) and
    /// [`node_cache_stats`](Self::node_cache_stats) go on reporting this
    /// tree's traffic alone.
    pub fn instrument(&self, reg: &warptree_obs::MetricsRegistry) {
        self.nodes.lock().set_counters(
            reg.counter("disk.node_cache.hits"),
            reg.counter("disk.node_cache.misses"),
        );
        self.reader
            .meter_cache(reg, "disk.page_cache.hits", "disk.page_cache.misses");
        self.reader.meter_crc_failures(reg, "disk.read_crc_fail");
    }

    /// Runs `f` over the node record at `offset`, checked by
    /// [`NodeView::decode`].
    ///
    /// A record that ends inside its page — all but a few per file — is
    /// read where it lies, in one page visit: `f` runs on the frame,
    /// under the pool's lock, and must not read from this tree. One that
    /// runs on is gathered into a buffer first, one more page visit for
    /// each further page it reaches.
    pub(crate) fn with_node<R>(&self, offset: u64, f: impl FnOnce(NodeView<'_>) -> R) -> Result<R> {
        let file_len = self.reader.logical_len();
        // Taken by whichever of the two decodes below finds the record whole.
        let mut f = Some(f);
        let mut record = Vec::new();
        let in_place: Result<Option<R>> = self.reader.with_page_tail(offset, |tail| {
            Ok(match NodeView::decode(tail, offset, file_len, &self.cat)? {
                Decoded::Node(node) => f.take().map(|f| f(node)),
                Decoded::Short(_) => {
                    record.extend_from_slice(tail);
                    None
                }
            })
        })?;
        if let Some(out) = in_place? {
            return Ok(out);
        }
        // The gather: the next page whole, until the record is — it ends
        // somewhere on the last one, and decoding takes no more than it.
        loop {
            match NodeView::decode(&record, offset, file_len, &self.cat)? {
                Decoded::Node(node) => {
                    return Ok((f.take().expect("the page tail was short"))(node));
                }
                Decoded::Short(_) => {
                    let at = offset + record.len() as u64;
                    self.reader
                        .with_page_tail(at, |tail| record.extend_from_slice(tail))?;
                }
            }
        }
    }

    /// Reads (or re-uses) the node record at `offset` as an owned
    /// [`DiskNode`]: the checked [`NodeView`] a traversal reads, copied out.
    pub fn read_node(&self, offset: u64) -> Result<DiskNode> {
        if let Some(n) = self.nodes.lock().get(&offset) {
            return Ok(n.clone());
        }
        let node = self.with_node(offset, |view| view.to_node())?;
        self.nodes.lock().insert(offset, node.clone());
        Ok(node)
    }

    /// The symbols of a decoded node's edge label (a range
    /// [`NodeView::decode`] checked; the root's is empty).
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

impl IndexBackend for DiskTree {
    type Node = u64;

    fn root(&self) -> u64 {
        self.header.root_offset
    }

    fn visit(&self, n: u64, children: &mut impl Extend<u64>) -> NodeVisit<'_> {
        // The one record read of a node visit, in place on its page.
        self.must_read(n, |node| {
            children.extend(node.children().map(|(_, off)| off));
            NodeVisit {
                label: self.label_symbols(node.label()),
                max_lead_run: node.max_lead_run(),
                suffix_count: Some(node.suffix_count()),
                attached: node.attached(),
            }
        })
    }

    fn for_each_suffix_at(&self, n: u64, f: &mut dyn FnMut(SeqId, u32, u32)) {
        self.must_read(n, |node| {
            for (seq, start, run) in node.suffixes() {
                f(seq, start, run);
            }
        });
    }

    fn for_each_suffix_below(&self, n: u64, f: &mut dyn FnMut(SeqId, u32, u32)) {
        let mut stack = vec![n];
        while let Some(off) = stack.pop() {
            self.must_read(off, |node| {
                for (seq, start, run) in node.suffixes() {
                    f(seq, start, run);
                }
                stack.extend(node.children().map(|(_, coff)| coff));
            });
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

    #[test]
    fn node_record_roundtrip_via_encode() {
        let cat = CatStore::from_symbols(vec![vec![0; 4], vec![1; 4], vec![2; 4], vec![0; 12]], 3);
        let label = (SeqId(3), 7, 5);
        let suffixes = [(SeqId(3), 7, 2), (SeqId(1), 0, 1)];
        let children = [(0, 64), (5, (1 << 32) + 128)];
        let enc = encoded(label, 9, 4, &suffixes, &children);
        assert_eq!(enc.len(), 32 + 12 * 2 + 12 * 2);
        // The head fields lay out as documented.
        assert_eq!(u32::from_le_bytes(enc[0..4].try_into().unwrap()), 3);
        assert_eq!(u32::from_le_bytes(enc[8..12].try_into().unwrap()), 5);
        assert_eq!(u64::from_le_bytes(enc[12..20].try_into().unwrap()), 9);
        assert_eq!(u32::from_le_bytes(enc[24..28].try_into().unwrap()), 2);
        assert_eq!(u32::from_le_bytes(enc[28..32].try_into().unwrap()), 2);

        let (offset, file_len) = (1 << 33, (1 << 33) + 4096);
        let Decoded::Node(view) = NodeView::decode(&enc, offset, file_len, &cat).unwrap() else {
            panic!("the whole record was given");
        };
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
        // Trailing bytes (the rest of the page) are not the record's.
        let mut page = enc.clone();
        page.extend_from_slice(&[0xAB; 40]);
        assert_eq!(
            NodeView::decode(&page, offset, file_len, &cat).unwrap(),
            Decoded::Node(view)
        );
        // A page tail too short for the head, then for the body, asks
        // for exactly what is missing.
        assert_eq!(
            NodeView::decode(&enc[..31], offset, file_len, &cat).unwrap(),
            Decoded::Short(32)
        );
        assert_eq!(
            NodeView::decode(&enc[..40], offset, file_len, &cat).unwrap(),
            Decoded::Short(enc.len())
        );
    }

    #[test]
    fn hostile_records_are_typed_errors() {
        let cat = CatStore::from_symbols(vec![vec![0, 1, 2, 1]], 3);
        let decode = |enc: &[u8], offset, file_len| {
            NodeView::decode(enc, offset, file_len, &cat).map(|d| matches!(d, Decoded::Node(_)))
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
