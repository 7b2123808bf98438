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
//! The decoder reads the stream's bytes once and trusts no count in
//! them: each is checked against the bytes left before anything is
//! sized by it, so a forged one is a typed error, not an allocation.

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

/// Saves the store and alphabet to `path`, returning the file's logical
/// size in bytes.
pub fn save_corpus(store: &SequenceStore, alphabet: &Alphabet, path: &Path) -> Result<u64> {
    save_corpus_with(&RealVfs, store, alphabet, path)
}

/// [`save_corpus`] through an explicit [`Vfs`].
pub fn save_corpus_with(
    vfs: &dyn Vfs,
    store: &SequenceStore,
    alphabet: &Alphabet,
    path: &Path,
) -> Result<u64> {
    let mut w = PagedWriter::create_with(vfs, path)?;
    w.write(MAGIC)?;
    w.write(&VERSION.to_le_bytes())?;
    let method = METHODS.iter().position(|&m| m == alphabet.method());
    w.write(&(method.expect("every method has a code") as u32).to_le_bytes())?;
    w.write(&(alphabet.len() as u32).to_le_bytes())?;
    w.write(&(store.len() as u32).to_le_bytes())?;
    for c in alphabet.categories() {
        for v in [c.lo, c.hi, c.lb, c.ub] {
            w.write(&v.to_le_bytes())?;
        }
    }
    for (id, s) in store.iter() {
        let name = store.name(id).unwrap_or("");
        w.write(&(name.len() as u32).to_le_bytes())?;
        w.write(name.as_bytes())?;
        w.write(&(s.len() as u32).to_le_bytes())?;
        for &v in s.values() {
            w.write(&v.to_le_bytes())?;
        }
    }
    w.finish(&[])
}

/// Loads a corpus file: the sequence store, the alphabet, and the
/// re-derived categorized store.
pub fn load_corpus(path: &Path) -> Result<(SequenceStore, Alphabet, Arc<CatStore>)> {
    load_corpus_with(&RealVfs, path)
}

/// [`load_corpus`] through an explicit [`Vfs`].
pub fn load_corpus_with(
    vfs: &dyn Vfs,
    path: &Path,
) -> Result<(SequenceStore, Alphabet, Arc<CatStore>)> {
    let r = PagedReader::open_with(vfs, path, 2)?;
    // The logical bytes, read once: every count below is bounded by the
    // bytes there are before anything is sized by it.
    let mut raw = vec![0u8; r.logical_len() as usize];
    r.read_exact_at(0, &mut raw)?;
    let mut cur = Cursor::new(&raw, DiskError::BadRecord);
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
    let n_seqs = cur.u32()?;
    let bounds = cur.f64s(n_cats.saturating_mul(4))?;
    let categories: Vec<Category> = (bounds.chunks_exact(4))
        .map(|b| Category {
            lo: b[0],
            hi: b[1],
            lb: b[2],
            ub: b[3],
        })
        .collect();
    let mut store = SequenceStore::new();
    for _ in 0..n_seqs {
        let name = cur.text(4096, "sequence name")?;
        let len = cur.u32()? as usize;
        let values = cur.f64s(len)?;
        if values.iter().any(|v| !v.is_finite()) {
            return Err(DiskError::BadRecord("non-finite value in corpus".into()));
        }
        match name {
            "" => store.push(Sequence::new(values)),
            name => store.push_named(Sequence::new(values), name),
        };
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
    let alphabet = Alphabet::from_parts(categories, method);
    let cat = Arc::new(alphabet.encode_store(&store));
    Ok((store, alphabet, cat))
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

    /// A count forged to `u32::MAX` behind a re-sealed page CRC — the
    /// category count, or one sequence's length — asks the decoder for
    /// up to 128 GiB. It must come back as a typed error, sized by the
    /// bytes the file has, never as an allocation of what it claims.
    #[test]
    fn forged_counts_are_typed_errors_not_allocations() {
        use crate::pager::{PAGE_DATA, PAGE_SIZE};
        let store = SequenceStore::from_values(vec![vec![1.0, 5.0, 9.0], vec![3.0, 3.0]]);
        let alpha = Alphabet::equal_length(&store, 4).unwrap();
        // Logical offsets, all on the first page: the header's
        // `n_categories`, then the first sequence's `len`, behind its
        // empty name.
        let first_len_at = 24 + 32 * alpha.len() + 4;
        let path = tmp("forged");
        for at in [16, first_len_at] {
            save_corpus(&store, &alpha, &path).unwrap();
            let mut raw = std::fs::read(&path).unwrap();
            raw[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
            let crc = crate::crc::crc32(&raw[..PAGE_DATA]);
            raw[PAGE_DATA..PAGE_SIZE].copy_from_slice(&crc.to_le_bytes());
            std::fs::write(&path, &raw).unwrap();
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
