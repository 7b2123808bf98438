//! On-disk enhanced-suffix-array file format.
//!
//! An ESA file persists the three flat arrays of a
//! [`warptree_esa::EsaIndex`] — SA entries, LCP-interval records, and
//! the packed child table — through the same CRC'd pager as the tree
//! format, so `verify`, scrub, quarantine and the commit protocol
//! compose unchanged. Like a tree, [`DiskEsa::open_with`] reads the file
//! whole through the CRC-checked read path; unlike a tree, it then
//! parses the arrays (12 bytes per suffix, 28 per interval, 4 per child
//! edge) and keeps those instead of the bytes. Corruption therefore
//! surfaces at *open* time as a typed [`DiskError`] naming the file,
//! which the scrub/quarantine machinery treats like a damaged tree
//! page. A CRC vouches
//! for bytes, not for who wrote them, so the loaded arrays are also
//! checked against the corpus ([`EsaIndex::validate`]) before any query
//! walks them: a forged count, child slice or entry is a
//! [`DiskError::BadRecord`] at open, never a panic or an abort later.
//!
//! ```text
//! header (64 bytes, logical offset 0):
//!   magic   [u8;8] = "WARPESA\0"
//!   version u32    = 1
//!   flags   u32      bit 0: sparse index
//!   alpha   u32      alphabet length the symbols were drawn from
//!   entry_count u64  stored suffixes (SA entries)
//!   rec_count   u64  LCP-interval records
//!   child_count u64  packed child-table slots
//!   root        u32  index of the root interval record
//!   reserved    [u8;12] (zero)
//!
//! body (sequential, little-endian):
//!   entry_count × { seq u32, start u32, lead u32 }
//!   rec_count   × { lo u32, hi u32, depth u32, child_off u32,
//!                   child_count u32, attached u32, max_run u32 }
//!   child_count × { tag u32 }   (high bit = leaf entry index)
//! ```
//!
//! Every page carries a CRC-32, so corruption anywhere in the file is
//! detected at open.

use std::path::Path;
use std::sync::Arc;

use warptree_core::categorize::CatStore;
use warptree_core::sequence::SeqId;
use warptree_esa::{Entry, EsaIndex, IntervalRec};

use crate::any::open_headed;
use crate::error::{DiskError, Result};
use crate::pager::{IoStats, PagedWriter};
use crate::vfs::{RealVfs, Vfs};

/// Size of the ESA file header in logical bytes.
pub const ESA_HEADER_SIZE: u64 = 64;
/// ESA header magic bytes.
pub const ESA_MAGIC: &[u8; 8] = b"WARPESA\0";
/// Current ESA format version.
pub const ESA_VERSION: u32 = 1;

const ENTRY_BYTES: u64 = 12;
const REC_BYTES: u64 = 28;
const CHILD_BYTES: u64 = 4;

/// Decoded ESA file header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EsaHeader {
    /// `true` when only the §6.1 suffix subset is stored.
    pub sparse: bool,
    /// Alphabet length the symbols were drawn from.
    pub alphabet_len: u32,
    /// Stored suffixes (SA entries).
    pub entry_count: u64,
    /// LCP-interval records.
    pub rec_count: u64,
    /// Packed child-table slots.
    pub child_count: u64,
    /// Index of the root interval record.
    pub root: u32,
}

impl EsaHeader {
    /// Serializes the header into its 64-byte form.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(ESA_HEADER_SIZE as usize);
        out.extend_from_slice(ESA_MAGIC);
        out.extend_from_slice(&ESA_VERSION.to_le_bytes());
        out.extend_from_slice(&(self.sparse as u32).to_le_bytes());
        out.extend_from_slice(&self.alphabet_len.to_le_bytes());
        out.extend_from_slice(&self.entry_count.to_le_bytes());
        out.extend_from_slice(&self.rec_count.to_le_bytes());
        out.extend_from_slice(&self.child_count.to_le_bytes());
        out.extend_from_slice(&self.root.to_le_bytes());
        out.resize(ESA_HEADER_SIZE as usize, 0);
        out
    }

    /// Parses and validates a 64-byte header.
    pub fn decode(buf: &[u8]) -> Result<Self> {
        if buf.len() < ESA_HEADER_SIZE as usize {
            return Err(DiskError::BadHeader("truncated header".into()));
        }
        if &buf[0..8] != ESA_MAGIC {
            if &buf[0..8] == crate::format::MAGIC {
                return Err(DiskError::UnsupportedBackend {
                    found: "tree".into(),
                });
            }
            return Err(DiskError::BadHeader("bad magic".into()));
        }
        let version = u32::from_le_bytes(buf[8..12].try_into().unwrap());
        if version != ESA_VERSION {
            return Err(DiskError::BadHeader(format!(
                "unsupported esa version {version}"
            )));
        }
        let flags = u32::from_le_bytes(buf[12..16].try_into().unwrap());
        Ok(EsaHeader {
            sparse: flags & 1 != 0,
            alphabet_len: u32::from_le_bytes(buf[16..20].try_into().unwrap()),
            entry_count: u64::from_le_bytes(buf[20..28].try_into().unwrap()),
            rec_count: u64::from_le_bytes(buf[28..36].try_into().unwrap()),
            child_count: u64::from_le_bytes(buf[36..44].try_into().unwrap()),
            root: u32::from_le_bytes(buf[44..48].try_into().unwrap()),
        })
    }
}

/// Serializes `esa` to `path` through the CRC'd pager, returning the
/// logical file length in bytes.
pub fn write_esa(esa: &EsaIndex, path: &Path) -> Result<u64> {
    write_esa_with(&RealVfs, esa, path)
}

/// [`write_esa`] through an explicit [`Vfs`].
pub fn write_esa_with(vfs: &dyn Vfs, esa: &EsaIndex, path: &Path) -> Result<u64> {
    let raw = esa.raw();
    let header = EsaHeader {
        sparse: raw.sparse,
        alphabet_len: esa.cat().alphabet_len(),
        entry_count: raw.entries.len() as u64,
        rec_count: raw.recs.len() as u64,
        child_count: raw.children.len() as u64,
        root: raw.root,
    };
    let mut w = PagedWriter::create_with(vfs, path)?;
    w.write(&header.encode())?;
    let mut buf = Vec::with_capacity(64 * 1024);
    for e in raw.entries {
        buf.extend_from_slice(&e.seq.0.to_le_bytes());
        buf.extend_from_slice(&e.start.to_le_bytes());
        buf.extend_from_slice(&e.lead.to_le_bytes());
        if buf.len() >= 64 * 1024 {
            w.write(&buf)?;
            buf.clear();
        }
    }
    for r in raw.recs {
        for v in [
            r.lo,
            r.hi,
            r.depth,
            r.child_off,
            r.child_count,
            r.attached,
            r.max_run,
        ] {
            buf.extend_from_slice(&v.to_le_bytes());
        }
        if buf.len() >= 64 * 1024 {
            w.write(&buf)?;
            buf.clear();
        }
    }
    for &c in raw.children {
        buf.extend_from_slice(&c.to_le_bytes());
        if buf.len() >= 64 * 1024 {
            w.write(&buf)?;
            buf.clear();
        }
    }
    w.write(&buf)?;
    w.finish(&[])
}

/// A disk-resident enhanced suffix array, opened: its flat arrays,
/// parsed and validated at open. The file is read once, there, and no
/// reader outlives the open; queries walk [`esa`](Self::esa).
pub struct DiskEsa {
    header: EsaHeader,
    esa: EsaIndex,
    /// File name this index was opened from (its segment identity).
    source: String,
    /// Pages the open read.
    pages: u64,
}

impl DiskEsa {
    /// Opens an ESA file against the categorized store its entries
    /// reference.
    pub fn open(path: &Path, cat: Arc<CatStore>) -> Result<Self> {
        Self::open_with(&RealVfs, path, cat)
    }

    /// [`open`](Self::open) through an explicit [`Vfs`]. A page that
    /// fails its CRC, header or body, is a
    /// [`DiskError::CorruptionDetected`] naming the file.
    pub fn open_with(vfs: &dyn Vfs, path: &Path, cat: Arc<CatStore>) -> Result<Self> {
        let (pages, header, source) =
            open_headed::<EsaHeader>(vfs, path, u64::MAX, Some(cat.alphabet_len()))?;
        let page_count = pages.count();
        let file = pages.verified(path)?;
        // A forged count must not wrap the sum past the overrun check and
        // size an allocation by it.
        let end = [
            (header.entry_count, ENTRY_BYTES),
            (header.rec_count, REC_BYTES),
            (header.child_count, CHILD_BYTES),
        ]
        .into_iter()
        .try_fold(ESA_HEADER_SIZE, |end, (count, bytes)| {
            count.checked_mul(bytes)?.checked_add(end)
        });
        let Some(end) = end.filter(|&end| end <= file.len() as u64) else {
            return Err(DiskError::BadRecord("esa arrays overrun the file".into()));
        };
        // The arrays lie back to back behind the header: one little-endian
        // word at a time.
        let body = &file[ESA_HEADER_SIZE as usize..end as usize];
        let mut words =
            (body.chunks_exact(4)).map(|w| u32::from_le_bytes(w.try_into().expect("4 bytes")));
        let mut word = || words.next().expect("the header's counts size the body");
        let entries = (0..header.entry_count)
            .map(|_| Entry {
                seq: SeqId(word()),
                start: word(),
                lead: word(),
            })
            .collect();
        let recs = (0..header.rec_count)
            .map(|_| IntervalRec {
                lo: word(),
                hi: word(),
                depth: word(),
                child_off: word(),
                child_count: word(),
                attached: word(),
                max_run: word(),
            })
            .collect();
        let children = (0..header.child_count).map(|_| word()).collect();

        let esa = EsaIndex::from_raw(cat, header.sparse, entries, recs, children, header.root);
        esa.validate()
            .map_err(|m| DiskError::BadRecord(format!("esa {m}")))?;
        Ok(Self {
            header,
            esa,
            source,
            pages: page_count,
        })
    }

    /// What the open read: every page of the file, once.
    pub fn io_stats(&self) -> IoStats {
        IoStats {
            pages_read: self.pages,
            cache_hits: 0,
        }
    }

    /// The file header.
    pub fn header(&self) -> EsaHeader {
        self.header
    }

    /// The file name this index was opened from.
    pub fn source(&self) -> &str {
        &self.source
    }

    /// The in-memory index serving queries.
    pub fn esa(&self) -> &EsaIndex {
        &self.esa
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use warptree_core::categorize::CatStore;
    use warptree_core::search::{BackendKind, IndexBackend};

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("warptree-esa-{}-{}", std::process::id(), name));
        p
    }

    fn sample_cat() -> Arc<CatStore> {
        Arc::new(CatStore::from_symbols(
            vec![vec![0, 1, 2, 1, 2, 1], vec![2, 2, 0], vec![1, 1, 1, 1]],
            3,
        ))
    }

    #[test]
    fn esa_header_roundtrip() {
        let h = EsaHeader {
            sparse: true,
            alphabet_len: 42,
            entry_count: 9,
            rec_count: 5,
            child_count: 11,
            root: 4,
        };
        let enc = h.encode();
        assert_eq!(enc.len(), ESA_HEADER_SIZE as usize);
        assert_eq!(EsaHeader::decode(&enc).unwrap(), h);
        let mut bad = enc.clone();
        bad[0] = b'X';
        assert!(matches!(
            EsaHeader::decode(&bad),
            Err(DiskError::BadHeader(_))
        ));
        let mut wrong_version = enc;
        wrong_version[8] = 99;
        assert!(matches!(
            EsaHeader::decode(&wrong_version),
            Err(DiskError::BadHeader(_))
        ));
    }

    #[test]
    fn esa_header_names_a_tree_file_as_a_backend_mismatch() {
        let tree_header = crate::format::Header {
            sparse: false,
            alphabet_len: 3,
            node_count: 1,
            suffix_count: 1,
            root_offset: 64,
            depth_limit: None,
        };
        let err = EsaHeader::decode(&tree_header.encode()).unwrap_err();
        assert!(matches!(
            err,
            DiskError::UnsupportedBackend { ref found } if found == "tree"
        ));
    }

    #[test]
    fn write_open_roundtrip_preserves_traversal() {
        for sparse in [false, true] {
            let cat = sample_cat();
            let esa = EsaIndex::build(cat.clone(), sparse);
            let path = tmp(&format!("roundtrip-{sparse}"));
            let len = write_esa(&esa, &path).unwrap();
            assert!(len > ESA_HEADER_SIZE);
            let disk = DiskEsa::open(&path, cat.clone()).unwrap();
            let back_esa = disk.esa();
            assert_eq!(back_esa.is_sparse(), sparse);
            assert_eq!(back_esa.suffix_count(), esa.suffix_count());
            assert_eq!(back_esa.validate(), Ok(()));
            // Identical suffix enumeration order end to end.
            let mut mem = Vec::new();
            esa.for_each_suffix_below(esa.root(), &mut |s, p, r| mem.push((s, p, r)));
            let mut back = Vec::new();
            back_esa.for_each_suffix_below(back_esa.root(), &mut |s, p, r| back.push((s, p, r)));
            assert_eq!(mem, back);
            assert_eq!(back_esa.resident_bytes(), esa.resident_bytes());
            // Its header alone gives the shape, and the file passes the
            // committed-file check.
            let shape = crate::any::index_shape(&RealVfs, &path, BackendKind::Esa).unwrap();
            assert_eq!((shape.alphabet_len, shape.sparse), (3, sparse));
            crate::any::AnyIndex::check(&RealVfs, &path, cat, BackendKind::Esa).unwrap();
            std::fs::remove_file(&path).unwrap();
        }
    }

    #[test]
    fn alphabet_mismatch_rejected() {
        let cat = sample_cat();
        let esa = EsaIndex::build(cat, false);
        let path = tmp("alpha");
        write_esa(&esa, &path).unwrap();
        let other = Arc::new(CatStore::from_symbols(vec![vec![0, 1]], 7));
        assert!(DiskEsa::open(&path, other).is_err());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corrupt_page_detected_at_open() {
        let cat = sample_cat();
        let esa = EsaIndex::build(cat.clone(), false);
        let path = tmp("corrupt");
        write_esa(&esa, &path).unwrap();
        // Flip a byte inside the array region: the CRC-checked read at
        // open must refuse the file, naming it.
        let mut raw = std::fs::read(&path).unwrap();
        let mid = 128;
        raw[mid] ^= 0x5a;
        std::fs::write(&path, &raw).unwrap();
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        assert!(matches!(
            DiskEsa::open(&path, cat),
            Err(DiskError::CorruptionDetected { file, page: 0 }) if file == name
        ));
        std::fs::remove_file(&path).unwrap();
    }

    /// Opens `path`, which must fail as a typed `BadRecord`; returns its
    /// message.
    fn bad_record(path: &Path, cat: Arc<CatStore>) -> String {
        match DiskEsa::open(path, cat) {
            Err(DiskError::BadRecord(m)) => m,
            other => panic!("expected a BadRecord, got {:?}", other.map(|_| ())),
        }
    }

    #[test]
    fn forged_header_counts_are_a_bad_record_not_an_abort() {
        let cat = sample_cat();
        let path = tmp("forged-header");
        // 2^62 entries of 12 bytes wrap the product to 0, and
        // 1 + ⌊2^64 / 28⌋ records wrap the sum: either passed a wrapping
        // overrun check and sized a `Vec` no allocator can give.
        for (entry_count, rec_count) in [(1 << 62, 1), (1, u64::MAX / REC_BYTES)] {
            let header = EsaHeader {
                sparse: false,
                alphabet_len: 3,
                entry_count,
                rec_count,
                child_count: 0,
                root: 0,
            };
            let mut w = PagedWriter::create(&path).unwrap();
            w.write(&header.encode()).unwrap();
            w.write(&[0; 64]).unwrap();
            w.finish(&[]).unwrap();
            let m = bad_record(&path, cat.clone());
            assert!(m.contains("overrun"), "{m}");
        }
        std::fs::remove_file(&path).unwrap();
    }

    /// Arrays that pass their page CRCs yet would send a query out of
    /// bounds, round a cycle or past the corpus are refused at open.
    #[test]
    fn forged_arrays_are_a_bad_record_at_open() {
        type Forge = fn(&mut [Entry], &mut [IntervalRec], &mut [u32]);
        // Records are written post-order: the root is the last one.
        let forgeries: [(&str, Forge); 7] = [
            ("child slice", |_, r, _| {
                r.last_mut().unwrap().child_off = u32::MAX - 1
            }),
            ("child slice", |_, r, _| {
                r.last_mut().unwrap().child_count = 1000
            }),
            ("precede", |_, r, c| {
                let root = r.len() - 1;
                let kid = c.iter_mut().rev().find(|k| **k >> 31 == 0).unwrap();
                *kid = root as u32;
            }),
            ("outside the corpus", |e, _, _| e[0].seq = SeqId(99)),
            ("outside the corpus", |e, _, _| e[0].start = 1000),
            ("outside the corpus", |e, _, _| e[0].lead = 0),
            ("max_run", |_, r, _| r.last_mut().unwrap().max_run += 1),
        ];
        let cat = sample_cat();
        let good = EsaIndex::build(cat.clone(), false);
        let path = tmp("forged-arrays");
        for (want, forge) in forgeries {
            let raw = good.raw();
            let (mut e, mut r, mut c) = (
                raw.entries.to_vec(),
                raw.recs.to_vec(),
                raw.children.to_vec(),
            );
            forge(&mut e, &mut r, &mut c);
            let forged = EsaIndex::from_raw(cat.clone(), false, e, r, c, raw.root);
            assert!(forged.validate().is_err(), "{want}");
            write_esa(&forged, &path).unwrap();
            let m = bad_record(&path, cat.clone());
            assert!(m.contains(want), "{want}: {m}");
        }
        std::fs::remove_file(&path).unwrap();
    }
}
