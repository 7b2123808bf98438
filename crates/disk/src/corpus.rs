//! Corpus file: persistent storage of the sequence database and its
//! categorization.
//!
//! A corpus file holds the original numeric sequences plus the alphabet
//! (category boundaries and observed bounds) so an index can be reopened
//! without re-deriving the categorization. The stored boundaries are
//! *authoritative* — the alphabet is reconstructed directly from them,
//! never re-derived from the data, so appending sequences later (which
//! would shift e.g. maximum-entropy quantiles) cannot invalidate an
//! existing index. The categorized symbol sequences are not stored; they
//! are re-encoded deterministically from the boundaries on load.
//!
//! ```text
//! paged stream:
//!   magic   [u8;8] = "WARPCORP", version u32 = 2
//!   method  u32    (0 EL, 1 ME, 2 singleton, 3 k-means)
//!   n_categories u32
//!   n_sequences  u32
//!   n_categories × { lo f64, hi f64, lb f64, ub f64 }
//!   n_sequences  × { name_len u32, name_len × u8 (UTF-8; 0 = unnamed),
//!                    len u32, len × f64 }
//! ```
//!
//! One decoder, `parse`, reads the stream's bytes once and trusts no
//! count in them: each is checked against the bytes left before
//! anything is sized by it, so a forged one is a typed error, not an
//! allocation. Loading is `parse` plus materializing the store. An
//! append (`append_corpus_with`) is `parse` plus a copy: the
//! committed sequence records go forward as the bytes `parse` checked,
//! behind a re-encoded header with the widened bounds, and only the new
//! sequences are serialized — so an append's codec work is `O(new)`,
//! and its file is the one [`save_corpus`] would write for the union.

use std::ops::Range;
use std::path::Path;
use std::sync::Arc;

use warptree_core::categorize::{Alphabet, CatStore, CategorizationMethod, Category};
use warptree_core::sequence::{Sequence, SequenceStore};

use crate::cursor::Cursor;
use crate::error::{DiskError, Result};
use crate::pager::{PagedReader, PagedWriter};
use crate::vfs::{RealVfs, Vfs};

const MAGIC: &[u8; 8] = b"WARPCORP";
const VERSION: u32 = 2;

/// Categorization methods by their code in the file (0 EL, 1 ME, 2
/// singleton, 3 k-means).
const METHODS: [CategorizationMethod; 4] = [
    CategorizationMethod::EqualLength,
    CategorizationMethod::MaxEntropy,
    CategorizationMethod::Singleton,
    CategorizationMethod::KMeans,
];

/// Longest sequence name, in UTF-8 bytes, a corpus file holds: the
/// writers refuse a longer one and the decoder a longer length.
pub(crate) const MAX_NAME_BYTES: usize = 4096;

/// Saves the store and alphabet to `path`, returning the file's logical
/// size in bytes.
pub fn save_corpus(store: &SequenceStore, alphabet: &Alphabet, path: &Path) -> Result<u64> {
    save_corpus_with(&RealVfs, store, alphabet, path)
}

/// [`save_corpus`] through an explicit [`Vfs`]. A name longer than
/// `MAX_NAME_BYTES` (4,096 bytes) is a [`DiskError::BadRecord`] before
/// `path` is created.
pub fn save_corpus_with(
    vfs: &dyn Vfs,
    store: &SequenceStore,
    alphabet: &Alphabet,
    path: &Path,
) -> Result<u64> {
    check_names(store)?;
    let mut w = PagedWriter::create_with(vfs, path)?;
    write_header(&mut w, alphabet, store.len())?;
    let mut record = Vec::new();
    for (id, s) in store.iter() {
        write_record(
            &mut w,
            &mut record,
            store.name(id).unwrap_or(""),
            s.values(),
        )?;
    }
    w.finish(&[])
}

/// Writes at `to` the committed corpus at `from` extended by `new`,
/// returning the alphabet widened over `new` and the number of
/// sequences `from` held (the first new id).
///
/// The committed corpus is read through the CRC-checked pager and
/// [`parse`]d — every check [`load_corpus_with`] makes — but never
/// decoded: its sequence records are copied as the bytes `parse`
/// checked, up to where the last one ends. Only `new` is serialized,
/// unnamed, as an append has always stored it. The file is byte for
/// byte what [`save_corpus_with`] writes for the union under the
/// widened alphabet. Errors come before `to` is created.
pub(crate) fn append_corpus_with(
    vfs: &dyn Vfs,
    from: &Path,
    new: &SequenceStore,
    to: &Path,
) -> Result<(Alphabet, usize)> {
    check_names(new)?;
    let raw = read_stream(vfs, from)?;
    let parsed = parse(&raw, |_, _| {})?;
    let old = parsed.sequences;
    if old + new.len() > u32::MAX as usize {
        return Err(DiskError::BadRecord(
            "corpus sequence count overflows".into(),
        ));
    }
    let mut alphabet = Alphabet::from_parts(parsed.categories, parsed.method);
    alphabet.widen(new);
    let mut w = PagedWriter::create_with(vfs, to)?;
    write_header(&mut w, &alphabet, old + new.len())?;
    w.write(&raw[parsed.records])?;
    let mut record = Vec::new();
    for (_, s) in new.iter() {
        write_record(&mut w, &mut record, "", s.values())?;
    }
    w.finish(&[])?;
    Ok((alphabet, old))
}

/// Refuses a store holding a name longer than [`MAX_NAME_BYTES`]: a
/// file holding one could not be opened again.
fn check_names(store: &SequenceStore) -> Result<()> {
    let long = |(id, _)| store.name(id).is_some_and(|n| n.len() > MAX_NAME_BYTES);
    if store.iter().any(long) {
        return Err(DiskError::BadRecord(format!(
            "sequence name longer than {MAX_NAME_BYTES} bytes"
        )));
    }
    Ok(())
}

/// The header and the category block, as one write.
fn write_header(w: &mut PagedWriter, alphabet: &Alphabet, sequences: usize) -> Result<()> {
    let method = METHODS.iter().position(|&m| m == alphabet.method());
    let method = method.expect("every method has a code") as u32;
    let mut head = Vec::with_capacity(24 + 32 * alphabet.len());
    head.extend_from_slice(MAGIC);
    for word in [VERSION, method, alphabet.len() as u32, sequences as u32] {
        head.extend_from_slice(&word.to_le_bytes());
    }
    for c in alphabet.categories() {
        for v in [c.lo, c.hi, c.lb, c.ub] {
            head.extend_from_slice(&v.to_le_bytes());
        }
    }
    w.write(&head)
}

/// One sequence record, encoded into `buf` and written as one slice.
fn write_record(w: &mut PagedWriter, buf: &mut Vec<u8>, name: &str, values: &[f64]) -> Result<()> {
    buf.clear();
    buf.extend_from_slice(&(name.len() as u32).to_le_bytes());
    buf.extend_from_slice(name.as_bytes());
    buf.extend_from_slice(&(values.len() as u32).to_le_bytes());
    let at = buf.len();
    buf.resize(at + 8 * values.len(), 0);
    for (out, v) in buf[at..].chunks_exact_mut(8).zip(values) {
        out.copy_from_slice(&v.to_le_bytes());
    }
    w.write(buf)
}

/// Loads a corpus file: the sequence store, the alphabet, and the
/// re-derived categorized store.
pub fn load_corpus(path: &Path) -> Result<(SequenceStore, Alphabet, Arc<CatStore>)> {
    load_corpus_with(&RealVfs, path)
}

/// [`load_corpus`] through an explicit [`Vfs`]: [`parse`] plus
/// materializing what it checked.
pub fn load_corpus_with(
    vfs: &dyn Vfs,
    path: &Path,
) -> Result<(SequenceStore, Alphabet, Arc<CatStore>)> {
    let raw = read_stream(vfs, path)?;
    let mut store = SequenceStore::new();
    let parsed = parse(&raw, |name, values| {
        let seq = Sequence::new(values.chunks_exact(8).map(le_f64).collect());
        match name {
            "" => store.push(seq),
            name => store.push_named(seq, name),
        };
    })?;
    let alphabet = Alphabet::from_parts(parsed.categories, parsed.method);
    let cat = Arc::new(alphabet.encode_store(&store));
    Ok((store, alphabet, cat))
}

/// The logical bytes of the paged file at `path`, every page
/// CRC-checked, read once. A page that fails its CRC is a
/// [`DiskError::CorruptionDetected`] naming the file.
fn read_stream(vfs: &dyn Vfs, path: &Path) -> Result<Vec<u8>> {
    let r = PagedReader::open_with(vfs, path, 2)?;
    let mut raw = vec![0u8; r.logical_len() as usize];
    r.read_exact_at(0, &mut raw).map_err(|e| e.in_file(path))?;
    Ok(raw)
}

/// The little-endian `f64` in the 8 bytes of `c`.
fn le_f64(c: &[u8]) -> f64 {
    f64::from_le_bytes(c.try_into().expect("8 bytes"))
}

/// What [`parse`] checked: the alphabet's parts, the sequence count,
/// and the byte range the sequence records fill.
struct Parsed {
    method: CategorizationMethod,
    categories: Vec<Category>,
    sequences: usize,
    records: Range<usize>,
}

/// The one corpus decoder. Checks the logical stream `raw` whole, and
/// trusts no count in it: each is checked against the bytes left
/// before anything is sized by it. Names are at most
/// [`MAX_NAME_BYTES`] and UTF-8, values finite, categories non-empty,
/// ordered, with `lo ≤ hi` and `lb ≤ ub`. Each sequence record is
/// handed to `record` in order, as its name and the bytes of its
/// checked values.
fn parse<'a>(raw: &'a [u8], mut record: impl FnMut(&'a str, &'a [u8])) -> Result<Parsed> {
    let mut cur = Cursor::new(raw, DiskError::BadRecord);
    if cur.take(8)? != MAGIC {
        return Err(DiskError::BadHeader("not a corpus file".into()));
    }
    let version = cur.u32()?;
    if version != VERSION {
        return Err(DiskError::BadHeader(format!(
            "unsupported corpus version {version}"
        )));
    }
    let code = cur.u32()?;
    let method = *(METHODS.get(code as usize))
        .ok_or_else(|| DiskError::BadHeader(format!("unknown categorization method {code}")))?;
    let n_cats = cur.u32()? as usize;
    let n_seqs = cur.u32()? as usize;
    let bounds = cur.f64s(n_cats.saturating_mul(4))?;
    let categories: Vec<Category> = (bounds.chunks_exact(4))
        .map(|b| Category {
            lo: b[0],
            hi: b[1],
            lb: b[2],
            ub: b[3],
        })
        .collect();
    let first = cur.pos();
    for _ in 0..n_seqs {
        let name = cur.text(MAX_NAME_BYTES, "sequence name")?;
        let len = cur.u32()? as usize;
        let values = cur.take(len.saturating_mul(8))?;
        if !values.chunks_exact(8).all(|c| le_f64(c).is_finite()) {
            return Err(DiskError::BadRecord("non-finite value in corpus".into()));
        }
        record(name, values);
    }
    if categories.is_empty() {
        return Err(DiskError::BadRecord("corpus has no categories".into()));
    }
    if categories.iter().any(|c| !(c.lo <= c.hi && c.lb <= c.ub)) {
        return Err(DiskError::BadRecord("category bounds out of order".into()));
    }
    if categories.windows(2).any(|w| w[0].lo > w[1].lo) {
        return Err(DiskError::BadRecord("categories not ordered".into()));
    }
    Ok(Parsed {
        method,
        categories,
        sequences: n_seqs,
        records: first..cur.pos(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("warptree-corpus-{}-{}", std::process::id(), name))
    }

    #[test]
    fn roundtrip_equal_length() {
        let store = SequenceStore::from_values(vec![vec![1.0, 5.0, 9.0, 2.5], vec![3.0, 3.0]]);
        let alpha = Alphabet::equal_length(&store, 4).unwrap();
        let cat = alpha.encode_store(&store);
        let path = tmp("el");
        save_corpus(&store, &alpha, &path).unwrap();
        let (s2, a2, c2) = load_corpus(&path).unwrap();
        assert_eq!(s2.len(), store.len());
        for (id, s) in store.iter() {
            assert_eq!(s2.get(id).values(), s.values());
        }
        assert_eq!(a2.len(), alpha.len());
        assert_eq!(a2.method(), alpha.method());
        assert_eq!(c2.seqs(), cat.seqs());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn roundtrip_all_methods() {
        let store = SequenceStore::from_values(vec![(0..40)
            .map(|i| (i as f64 * 1.37).sin() * 10.0)
            .collect()]);
        for alpha in [
            Alphabet::equal_length(&store, 5).unwrap(),
            Alphabet::max_entropy(&store, 5).unwrap(),
            Alphabet::singleton(&store).unwrap(),
            Alphabet::kmeans(&store, 5, 50).unwrap(),
        ] {
            let path = tmp(&format!("method-{}", alpha.method()));
            save_corpus(&store, &alpha, &path).unwrap();
            let (_, a2, c2) = load_corpus(&path).unwrap();
            assert_eq!(a2.method(), alpha.method());
            assert_eq!(c2.seqs(), alpha.encode_store(&store).seqs());
            std::fs::remove_file(&path).unwrap();
        }
    }

    #[test]
    fn names_roundtrip() {
        let mut store = SequenceStore::new();
        store.push_named(Sequence::new(vec![1.0, 2.0]), "AAPL");
        store.push(Sequence::new(vec![3.0]));
        let alpha = Alphabet::equal_length(&store, 2).unwrap();
        let path = tmp("names");
        save_corpus(&store, &alpha, &path).unwrap();
        let (s2, _, _) = load_corpus(&path).unwrap();
        use warptree_core::sequence::SeqId;
        assert_eq!(s2.name(SeqId(0)), Some("AAPL"));
        assert_eq!(s2.name(SeqId(1)), None);
        std::fs::remove_file(&path).unwrap();
    }

    /// Overwrites the corpus bytes at logical offset `at` (on the first
    /// page) with `bytes` and re-seals the page CRC, as a forger would.
    fn forge(path: &Path, at: usize, bytes: &[u8]) {
        use crate::pager::{PAGE_DATA, PAGE_SIZE};
        let mut raw = std::fs::read(path).unwrap();
        raw[at..at + bytes.len()].copy_from_slice(bytes);
        let crc = crate::crc::crc32(&raw[..PAGE_DATA]);
        raw[PAGE_DATA..PAGE_SIZE].copy_from_slice(&crc.to_le_bytes());
        std::fs::write(path, &raw).unwrap();
    }

    /// A count forged to `u32::MAX` behind a re-sealed page CRC — the
    /// category count, or one sequence's length — asks the decoder for
    /// up to 128 GiB. It must come back as a typed error, sized by the
    /// bytes the file has, never as an allocation of what it claims.
    #[test]
    fn forged_counts_are_typed_errors_not_allocations() {
        let store = SequenceStore::from_values(vec![vec![1.0, 5.0, 9.0], vec![3.0, 3.0]]);
        let alpha = Alphabet::equal_length(&store, 4).unwrap();
        // Logical offsets, all on the first page: the header's
        // `n_categories`, then the first sequence's `len`, behind its
        // empty name.
        let first_len_at = 24 + 32 * alpha.len() + 4;
        let path = tmp("forged");
        for at in [16, first_len_at] {
            save_corpus(&store, &alpha, &path).unwrap();
            forge(&path, at, &u32::MAX.to_le_bytes());
            match load_corpus(&path) {
                Err(DiskError::BadRecord(m)) => assert_eq!(m, "truncated", "offset {at}"),
                other => panic!(
                    "offset {at}: expected a BadRecord, got {:?}",
                    other.map(|_| ())
                ),
            }
        }
        // No categories at all: an alphabet needs at least one.
        let mut w = PagedWriter::create(&path).unwrap();
        w.write(MAGIC).unwrap();
        for word in [VERSION, 0, 0, 0] {
            w.write(&word.to_le_bytes()).unwrap();
        }
        w.finish(&[]).unwrap();
        match load_corpus(&path) {
            Err(DiskError::BadRecord(m)) => assert_eq!(m, "corpus has no categories"),
            other => panic!("expected a BadRecord, got {:?}", other.map(|_| ())),
        }
        std::fs::remove_file(&path).unwrap();
    }

    /// An append decodes the committed corpus through the loader's one
    /// decoder, so each defect the loader refuses — forged behind a
    /// re-sealed CRC, one at a time — is the append's `BadRecord` too,
    /// and the append commits nothing: same generation, no temporary.
    #[test]
    fn append_keeps_the_loaders_checks() {
        use crate::manifest::{build_dir_with, resolve_dir_with};
        use crate::segment::append_segment;
        use warptree_core::sequence::SeqId;
        let mut store = SequenceStore::new();
        store.push_named(Sequence::new(vec![1.0, 5.0, 9.0]), "AB");
        store.push(Sequence::new(vec![3.0, 3.0, 7.0]));
        let alpha = Alphabet::equal_length(&store, 4).unwrap();
        // Logical offsets: the category block, then the first record's
        // name length, name, value count and first value.
        let records = 24 + 32 * alpha.len();
        let (name_at, len_at) = (records + 4, records + 6);
        let nan = f64::NAN.to_le_bytes();
        let forgeries: [(&str, usize, &[u8]); 4] = [
            ("truncated", len_at, &u32::MAX.to_le_bytes()),
            ("non-finite value in corpus", len_at + 4, &nan),
            ("sequence name is not UTF-8", name_at, &[0xFF, 0xFE]),
            // The second category's lower boundary below the first's.
            (
                "categories not ordered",
                24 + 32,
                &(-1e300f64).to_le_bytes(),
            ),
        ];
        let batch = SequenceStore::from_values(vec![vec![2.0, 4.0]]);
        for (what, at, bytes) in forgeries {
            let dir = tmp(&format!("append-forged-{}", at));
            let _ = std::fs::remove_dir_all(&dir);
            let kind = crate::merge::TreeKind::Sparse;
            build_dir_with(
                crate::vfs::real_vfs(),
                &store,
                &alpha,
                kind,
                1,
                1,
                None,
                &dir,
            )
            .unwrap();
            let before = resolve_dir_with(&RealVfs, &dir).unwrap();
            assert_eq!(
                load_corpus(&before.corpus_path).unwrap().0.name(SeqId(0)),
                Some("AB")
            );
            forge(&before.corpus_path, at, bytes);
            for result in [
                load_corpus(&before.corpus_path).map(|_| ()),
                append_segment(&dir, &batch).map(|_| ()),
            ] {
                match result {
                    Err(DiskError::BadRecord(m)) => assert_eq!(m, what),
                    other => panic!("{what}: expected a BadRecord, got {other:?}"),
                }
            }
            let after = resolve_dir_with(&RealVfs, &dir).unwrap();
            assert_eq!(after.generation, before.generation, "{what}");
            for entry in std::fs::read_dir(&dir).unwrap() {
                let name = entry.unwrap().file_name();
                assert!(
                    !name.to_string_lossy().ends_with(".tmp"),
                    "{what}: {name:?}"
                );
            }
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    /// A name is at most `MAX_NAME_BYTES` on both sides: the longest
    /// round-trips, one byte more is refused before the file exists.
    #[test]
    fn name_limit_is_shared_by_writer_and_loader() {
        use warptree_core::sequence::SeqId;
        let path = tmp("long-name");
        for len in [MAX_NAME_BYTES, MAX_NAME_BYTES + 1] {
            let _ = std::fs::remove_file(&path);
            let mut store = SequenceStore::new();
            store.push_named(Sequence::new(vec![1.0, 2.0]), "n".repeat(len));
            let alpha = Alphabet::equal_length(&store, 2).unwrap();
            let saved = save_corpus(&store, &alpha, &path);
            if len == MAX_NAME_BYTES {
                saved.unwrap();
                let (s2, _, _) = load_corpus(&path).unwrap();
                assert_eq!(s2.name(SeqId(0)).map(str::len), Some(len));
            } else {
                assert!(matches!(saved, Err(DiskError::BadRecord(_))), "{saved:?}");
                assert!(!path.exists(), "a refused corpus left a file");
            }
        }
    }

    #[test]
    fn rejects_non_corpus_file() {
        let path = tmp("garbage");
        let mut w = PagedWriter::create(&path).unwrap();
        w.write(b"NOTACORP").unwrap();
        w.finish(&[]).unwrap();
        assert!(matches!(load_corpus(&path), Err(DiskError::BadHeader(_))));
        std::fs::remove_file(&path).unwrap();
    }
}
