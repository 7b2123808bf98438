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
//!   magic   [u8;8] = "WARPCORP", version u32 = 3
//!   method  u32    (0 EL, 1 ME, 2 singleton, 3 k-means)
//!   n_categories u32
//!   n_sequences  u32
//!   decimals     u32    (d in 0..=9; u32::MAX = raw)
//!   n_categories × { lo f64, hi f64, lb f64, ub f64 }
//!   n_sequences  × { name_len u32, name_len × u8 (UTF-8; 0 = unnamed),
//!                    len u32, len × value }
//!   value, scaled: zigzag-LEB128 varint of k_i − k_{i−1} (k_{−1} = 0),
//!                  the value being k_i as f64 / 10^d, |k_i| ≤ 2^53
//!   value, raw:    f64
//! ```
//!
//! The writer picks the smallest `d` at which every value is `k / 10^d`
//! bit for bit — one IEEE division, correctly rounded, gives back the
//! stored double — and stores the values raw when no `d` does. A corpus
//! of prices in whole cents takes one or two bytes a value instead of
//! eight. The one exception to bit for bit is `-0.0`: it is on every
//! grid as `k = 0` and loads as `+0.0`. No distance changes, since
//! `|q − (−0)| = |q − 0|`, and one stray `-0.0` does not store a whole
//! corpus raw. Version 2 files, the same stream without the `decimals` word
//! and with raw values, still load.
//!
//! One decoder, `parse`, reads the stream's bytes once and trusts no
//! count in them: each is checked against the bytes left before
//! anything is sized by it, so a forged one is a typed error, not an
//! allocation. Loading is `parse` decoding into the store. An append
//! (`append_corpus_with`) is `parse` checking every record without
//! decoding it, plus a copy: when the new values sit on the committed
//! scale, the committed sequence records go forward as the bytes
//! `parse` checked, behind a re-encoded header with the widened bounds,
//! and only the new sequences are encoded. A batch on a finer grid or
//! on none, or a version 2 file, has the union decoded and encoded once
//! at its own scale. Either way the file is the one [`save_corpus`]
//! would write for the union.

use std::ops::Range;
use std::path::Path;
use std::sync::Arc;

use warptree_core::categorize::{Alphabet, CatStore, CategorizationMethod, Category};
use warptree_core::sequence::{Sequence, SequenceStore};

use crate::cursor::Cursor;
use crate::error::{DiskError, Result};
use crate::pager::{read_pages, read_stream, PagedWriter};
use crate::vfs::{RealVfs, Vfs};

const MAGIC: &[u8; 8] = b"WARPCORP";
const VERSION: u32 = 3;
/// The last version without the `decimals` word: its values are raw.
const VERSION_RAW: u32 = 2;
/// The `decimals` word of a corpus stored as raw doubles.
const RAW: u32 = u32::MAX;
/// The finest scale a corpus is stored at.
const MAX_DECIMALS: u32 = 9;
/// `10^d` for each scale, every one an exact double.
const POW10: [f64; 10] = [1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9];
/// The largest `|k|` of a scaled value: every integer up to it is an
/// exact double.
const MAX_K: i64 = 1 << 53;
/// The longest LEB128 encoding of a `u64`.
const MAX_VARINT: usize = 10;
/// The bytes of a version 3 header, before the category block.
const HEADER_BYTES: usize = 28;

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

/// One sequence as the codec sees it: its name (`""` when unnamed) and
/// its values.
type Record<'a> = (&'a str, &'a [f64]);

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
    let mut body = Vec::new();
    let decimals = encode(&records(store), &mut body);
    let mut w = PagedWriter::create_with(vfs, path)?;
    write_header(&mut w, alphabet, store.len(), decimals)?;
    w.write(&body)?;
    w.finish(&[])
}

/// Writes at `to` the committed corpus at `from` extended by `new`,
/// returning the alphabet widened over `new` and the number of
/// sequences `from` held (the first new id).
///
/// The committed corpus is read through the CRC-checked pager and
/// [`parse`]d — every check [`load_corpus_with`] makes — but not
/// decoded. When every new value sits on its scale, its sequence
/// records are copied as the bytes `parse` checked, up to where the
/// last one ends, and only `new` is serialized. Otherwise — a finer
/// grid, values on none, or a version 2 file — the union is decoded
/// and encoded once at its own scale. Either way the file is byte for
/// byte what [`save_corpus_with`] writes for the union under the
/// widened alphabet, names included. Errors come before `to` is
/// created.
pub(crate) fn append_corpus_with(
    vfs: &dyn Vfs,
    from: &Path,
    new: &SequenceStore,
    to: &Path,
) -> Result<(Alphabet, usize)> {
    check_names(new)?;
    let raw = read_stream(vfs, from)?;
    let parsed = parse(&raw, None)?;
    let old = parsed.sequences;
    if old + new.len() > u32::MAX as usize {
        return Err(DiskError::BadRecord(
            "corpus sequence count overflows".into(),
        ));
    }
    let mut alphabet = Alphabet::from_parts(parsed.categories, parsed.method);
    alphabet.widen(new);
    let batch = records(new);
    let mut body = Vec::new();
    let carried =
        parsed.version == VERSION && encode_at(&batch, parsed.decimals, &mut body).is_ok();
    let decimals = match carried {
        true => parsed.decimals,
        false => {
            let mut union = SequenceStore::new();
            parse(&raw, Some(&mut union))?;
            let mut all = records(&union);
            all.extend(batch);
            body.clear();
            encode(&all, &mut body)
        }
    };
    let mut w = PagedWriter::create_with(vfs, to)?;
    write_header(&mut w, &alphabet, old + new.len(), decimals)?;
    if carried {
        w.write(&raw[parsed.records])?;
    }
    w.write(&body)?;
    w.finish(&[])?;
    Ok((alphabet, old))
}

/// `store` as a version 2 file: no `decimals` word, every value raw —
/// a corpus as builds before version 3 wrote it.
#[cfg(test)]
pub(crate) fn save_corpus_v2(
    store: &SequenceStore,
    alphabet: &Alphabet,
    path: &Path,
) -> Result<u64> {
    let mut w = PagedWriter::create(path)?;
    let method = METHODS.iter().position(|&m| m == alphabet.method());
    w.write(MAGIC)?;
    for word in [
        VERSION_RAW,
        method.unwrap() as u32,
        alphabet.len() as u32,
        store.len() as u32,
    ] {
        w.write(&word.to_le_bytes())?;
    }
    for c in alphabet.categories() {
        for v in [c.lo, c.hi, c.lb, c.ub] {
            w.write(&v.to_le_bytes())?;
        }
    }
    let mut body = Vec::new();
    encode_at(&records(store), None, &mut body).expect("raw holds every value");
    w.write(&body)?;
    w.finish(&[])
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

/// The sequences of `store`, in id order, as codec records.
fn records(store: &SequenceStore) -> Vec<Record<'_>> {
    let record = |(id, s)| (store.name(id).unwrap_or(""), Sequence::values(s));
    store.iter().map(record).collect()
}

/// The header and the category block, as one write.
fn write_header(
    w: &mut PagedWriter,
    alphabet: &Alphabet,
    sequences: usize,
    decimals: Option<u32>,
) -> Result<()> {
    let method = METHODS.iter().position(|&m| m == alphabet.method());
    let method = method.expect("every method has a code") as u32;
    let mut head = Vec::with_capacity(HEADER_BYTES + 32 * alphabet.len());
    head.extend_from_slice(MAGIC);
    let decimals = decimals.unwrap_or(RAW);
    for word in [
        VERSION,
        method,
        alphabet.len() as u32,
        sequences as u32,
        decimals,
    ] {
        head.extend_from_slice(&word.to_le_bytes());
    }
    for c in alphabet.categories() {
        for v in [c.lo, c.hi, c.lb, c.ub] {
            head.extend_from_slice(&v.to_le_bytes());
        }
    }
    w.write(&head)
}

/// Encodes `records` into `body` at the smallest scale every value is
/// on, and returns it; `None` — raw — when there is none. Each scale
/// tried is one pass: the first value off its grid restarts the pass at
/// the next scale that value is on.
fn encode(records: &[Record], body: &mut Vec<u8>) -> Option<u32> {
    let mut d = 0;
    loop {
        body.clear();
        let Err(off) = encode_at(records, Some(d), body) else {
            return Some(d);
        };
        match (d + 1..=MAX_DECIMALS).find(|&e| on_grid(off, e).is_some()) {
            Some(e) => d = e,
            None => {
                body.clear();
                encode_at(records, None, body).expect("raw holds every value");
                return None;
            }
        }
    }
}

/// Appends `records` to `body` with their values at `decimals` (`None`:
/// raw). Stops at the first value off that grid and hands it back,
/// leaving `body` for the caller to clear.
fn encode_at(
    records: &[Record],
    decimals: Option<u32>,
    body: &mut Vec<u8>,
) -> std::result::Result<(), f64> {
    for &(name, values) in records {
        body.extend_from_slice(&(name.len() as u32).to_le_bytes());
        body.extend_from_slice(name.as_bytes());
        body.extend_from_slice(&(values.len() as u32).to_le_bytes());
        let Some(d) = decimals else {
            let at = body.len();
            body.resize(at + 8 * values.len(), 0);
            for (out, v) in body[at..].chunks_exact_mut(8).zip(values) {
                out.copy_from_slice(&v.to_le_bytes());
            }
            continue;
        };
        // Room for the longest varints, a block of values at a time:
        // the writes go to a slice, not through the `Vec`'s length.
        let mut prev = 0i64;
        for block in values.chunks(64) {
            let at = body.len();
            body.resize(at + MAX_VARINT * block.len(), 0);
            let out = &mut body[at..];
            let mut n = 0;
            for &v in block {
                let k = on_grid(v, d).ok_or(v)?;
                n += put_varint(&mut out[n..], zigzag(k - prev));
                prev = k;
            }
            body.truncate(at + n);
        }
    }
    Ok(())
}

/// Writes the LEB128 varint of `z` at the start of `out`, which has
/// room for the longest, and returns its length. One and two bytes
/// take the fast path, which writes both and counts one or two, with
/// no branch on which.
#[inline(always)]
fn put_varint(out: &mut [u8], mut z: u64) -> usize {
    if z < 1 << 14 {
        let two = u8::from(z >= 0x80);
        out[0] = z as u8 & 0x7f | two << 7;
        out[1] = (z >> 7) as u8;
        return 1 + usize::from(two);
    }
    let mut n = 0;
    while z >= 0x80 {
        out[n] = z as u8 | 0x80;
        z >>= 7;
        n += 1;
    }
    out[n] = z as u8;
    n + 1
}

/// The integer `k`, `|k| ≤ 2^53`, with `k as f64 / 10^d` equal to `v`
/// bit for bit, if there is one — or equal as a number, which `-0.0`
/// is to `k = 0` and no other double is to anything it is not bit for
/// bit.
#[inline]
fn on_grid(v: f64, d: u32) -> Option<i64> {
    let p = POW10[d as usize];
    let x = v * p;
    let k = if x.abs() < (1u64 << 52) as f64 {
        (x + 0.5f64.copysign(x)) as i64
    } else if x.abs() <= (MAX_K + 2) as f64 {
        // Past 2^52 every double is an integer already.
        x as i64
    } else {
        return None;
    };
    match k.abs() <= MAX_K && k as f64 / p == v {
        true => Some(k),
        false => near_grid(v, p, k),
    }
}

/// The neighbour of `k` that [`on_grid`] looks for: `v · 10^d` carries
/// the rounding of `v` and of the product, up to two units near 2^53.
#[cold]
fn near_grid(v: f64, p: f64, k: i64) -> Option<i64> {
    let exact = |k: i64| k.abs() <= MAX_K && k as f64 / p == v;
    [k - 1, k + 1, k - 2, k + 2].into_iter().find(|&k| exact(k))
}

/// Loads a corpus file: the sequence store, the alphabet, and the
/// re-derived categorized store.
pub fn load_corpus(path: &Path) -> Result<(SequenceStore, Alphabet, Arc<CatStore>)> {
    load_corpus_with(&RealVfs, path)
}

/// [`load_corpus`] through an explicit [`Vfs`]: [`parse`] decoding
/// into the store.
pub fn load_corpus_with(
    vfs: &dyn Vfs,
    path: &Path,
) -> Result<(SequenceStore, Alphabet, Arc<CatStore>)> {
    let raw = read_stream(vfs, path)?;
    let mut store = SequenceStore::new();
    let parsed = parse(&raw, Some(&mut store))?;
    let alphabet = Alphabet::from_parts(parsed.categories, parsed.method);
    let cat = Arc::new(alphabet.encode_store(&store));
    Ok((store, alphabet, cat))
}

/// The scale the corpus at `path` stores its values at: `Some(d)` for
/// delta varints of multiples of `10^-d`, `None` for raw doubles (every
/// version 2 file). Reads the header alone.
pub fn corpus_decimals(path: &Path) -> Result<Option<u32>> {
    let head = read_pages(&RealVfs, path, 1)?.verified(path)?;
    Ok(header(&mut Cursor::new(&head, DiskError::BadRecord))?.decimals)
}

/// The little-endian `f64` in the 8 bytes of `c`.
fn le_f64(c: &[u8]) -> f64 {
    f64::from_le_bytes(c.try_into().expect("8 bytes"))
}

/// The words before the category block.
struct Header {
    version: u32,
    method: CategorizationMethod,
    categories: usize,
    sequences: usize,
    decimals: Option<u32>,
}

/// Reads the [`Header`]: a version 2 file has no `decimals` word.
fn header(cur: &mut Cursor) -> Result<Header> {
    if cur.take(8)? != MAGIC {
        return Err(DiskError::BadHeader("not a corpus file".into()));
    }
    let version = cur.u32()?;
    if version != VERSION && version != VERSION_RAW {
        return Err(DiskError::BadHeader(format!(
            "unsupported corpus version {version}"
        )));
    }
    let code = cur.u32()?;
    let method = *(METHODS.get(code as usize))
        .ok_or_else(|| DiskError::BadHeader(format!("unknown categorization method {code}")))?;
    let categories = cur.u32()? as usize;
    let sequences = cur.u32()? as usize;
    let decimals = match version {
        VERSION_RAW => None,
        _ => match cur.u32()? {
            RAW => None,
            d if d <= MAX_DECIMALS => Some(d),
            d => {
                return Err(DiskError::BadHeader(format!(
                    "corpus decimals {d} out of range"
                )))
            }
        },
    };
    Ok(Header {
        version,
        method,
        categories,
        sequences,
        decimals,
    })
}

/// What [`parse`] checked: the alphabet's parts, the sequence count,
/// how the values are stored, and the byte range the sequence records
/// fill.
struct Parsed {
    method: CategorizationMethod,
    categories: Vec<Category>,
    sequences: usize,
    version: u32,
    decimals: Option<u32>,
    records: Range<usize>,
}

/// The one corpus decoder. Checks the logical stream `raw` whole, and
/// trusts no count in it: each is checked against the bytes left
/// before anything is sized by it. Names are at most
/// [`MAX_NAME_BYTES`] and UTF-8, raw values finite, scaled values at
/// most ten bytes each and within `2^53` units, categories non-empty,
/// ordered, with `lo ≤ hi` and `lb ≤ ub`. With `into`, each sequence is
/// decoded and pushed onto it in order; without, none is.
fn parse(raw: &[u8], mut into: Option<&mut SequenceStore>) -> Result<Parsed> {
    let mut cur = Cursor::new(raw, DiskError::BadRecord);
    let head = header(&mut cur)?;
    let bounds = cur.f64s(head.categories.saturating_mul(4))?;
    let categories: Vec<Category> = (bounds.chunks_exact(4))
        .map(|b| Category {
            lo: b[0],
            hi: b[1],
            lb: b[2],
            ub: b[3],
        })
        .collect();
    let first = cur.pos();
    for _ in 0..head.sequences {
        let name = cur.text(MAX_NAME_BYTES, "sequence name")?;
        let len = cur.u32()? as usize;
        let values = match (head.decimals, into.is_some()) {
            (None, false) => raw_values(&mut cur, len).map(|_| None)?,
            (None, true) => Some(raw_values(&mut cur, len)?.map(le_f64).collect()),
            (Some(_), false) => check_scaled(&mut cur, len).map(|_| None)?,
            (Some(d), true) => Some(decode_scaled(&mut cur, len, d)?),
        };
        if let (Some(store), Some(values)) = (into.as_deref_mut(), values) {
            let seq = Sequence::new(values);
            match name {
                "" => store.push(seq),
                name => store.push_named(seq, name),
            };
        }
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
        method: head.method,
        categories,
        sequences: head.sequences,
        version: head.version,
        decimals: head.decimals,
        records: first..cur.pos(),
    })
}

/// The bytes of `len` raw values at `cur`, each checked finite.
fn raw_values<'a>(cur: &mut Cursor<'a>, len: usize) -> Result<std::slice::ChunksExact<'a, u8>> {
    let values = cur.take(len.saturating_mul(8))?.chunks_exact(8);
    if !values.clone().all(|c| le_f64(c).is_finite()) {
        return Err(DiskError::BadRecord("non-finite value in corpus".into()));
    }
    Ok(values)
}

/// `delta` with its sign in the low bit, so that a small magnitude
/// makes a short varint either way.
#[inline(always)]
fn zigzag(delta: i64) -> u64 {
    ((delta << 1) ^ (delta >> 63)) as u64
}

/// The signed delta a zigzag varint `z` holds.
#[inline(always)]
fn unzigzag(z: u64) -> i64 {
    (z >> 1) as i64 ^ -((z & 1) as i64)
}

/// Refuses a record whose running totals reached past `2^53`: `top` is
/// the largest `|k|` among them. The first total to overflow `i64`
/// follows one within `2^53`, so it wraps to a magnitude of at least
/// `2^63 − 2^53` and is refused too.
fn check_top(top: u64) -> Result<()> {
    match top <= MAX_K as u64 {
        true => Ok(()),
        false => Err(DiskError::BadRecord("corpus value out of range".into())),
    }
}

/// Every value takes a byte at least: a count past the bytes left is
/// refused before anything is sized by it.
fn check_count(cur: &Cursor, len: usize) -> Result<()> {
    match len <= cur.remaining() {
        true => Ok(()),
        false => Err(DiskError::BadRecord("truncated".into())),
    }
}

/// Checks `len` scaled values at `cur` without building them: the
/// values of a `()` slice are nothing, and it allocates nothing.
fn check_scaled(cur: &mut Cursor, len: usize) -> Result<()> {
    check_count(cur, len)?;
    read_scaled(cur, &mut vec![(); len], |_| ())
}

/// Decodes `len` scaled values at `cur`, one division each.
fn decode_scaled(cur: &mut Cursor, len: usize, d: u32) -> Result<Vec<f64>> {
    check_count(cur, len)?;
    let p = POW10[d as usize];
    let mut values = vec![0.0; len];
    read_scaled(cur, &mut values, |k| k as f64 / p)?;
    Ok(values)
}

/// Reads as many deltas at `cur` as `out` has slots, and fills each
/// with `value` of its running total `k`; a total past `2^53` is
/// refused. Four varints at a time when they are short.
#[inline(always)]
fn read_scaled<T>(cur: &mut Cursor, out: &mut [T], value: impl Fn(i64) -> T) -> Result<()> {
    // A local copy keeps the position in a register: through `cur`,
    // every varint would store it and load it back.
    let mut at = *cur;
    let (mut k, mut top) = (0i64, 0);
    let mut next = |z: u64| {
        k = k.wrapping_add(unzigzag(z));
        top = top.max(k.unsigned_abs());
        value(k)
    };
    let mut slots = out.chunks_exact_mut(4);
    for four in &mut slots {
        match at.four_short_varints() {
            Some(zs) => {
                for (v, z) in four.iter_mut().zip(zs) {
                    *v = next(z);
                }
            }
            None => {
                for v in four {
                    *v = next(at.varint()?);
                }
            }
        }
    }
    for v in slots.into_remainder() {
        *v = next(at.varint()?);
    }
    *cur = at;
    check_top(top)
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

    use crate::pager::{PAGE_DATA, PAGE_SIZE};

    /// Overwrites the corpus bytes at logical offset `at` (on the first
    /// page) with `bytes` and re-seals the page CRC, as a forger would.
    fn forge(path: &Path, at: usize, bytes: &[u8]) {
        let mut raw = std::fs::read(path).unwrap();
        raw[at..at + bytes.len()].copy_from_slice(bytes);
        let crc = crate::crc::crc32(&raw[..PAGE_DATA]);
        raw[PAGE_DATA..PAGE_SIZE].copy_from_slice(&crc.to_le_bytes());
        std::fs::write(path, &raw).unwrap();
    }

    /// A count forged to `u32::MAX` behind a re-sealed page CRC — the
    /// category count, or one sequence's length, raw or scaled — asks
    /// the decoder for up to 128 GiB. It must come back as a typed
    /// error, sized by the bytes the file has, never as an allocation
    /// of what it claims.
    #[test]
    fn forged_counts_are_typed_errors_not_allocations() {
        let path = tmp("forged");
        for values in [vec![1.0, 5.0, 9.0], vec![1.0, 5.0, 1.0 / 3.0]] {
            let store = SequenceStore::from_values(vec![values, vec![3.0, 3.0]]);
            let alpha = Alphabet::equal_length(&store, 4).unwrap();
            // Logical offsets, all on the first page: the header's
            // `n_categories`, then the first sequence's `len`, behind
            // its empty name.
            let first_len_at = HEADER_BYTES + 32 * alpha.len() + 4;
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
        }
        // No categories at all: an alphabet needs at least one.
        let mut w = PagedWriter::create(&path).unwrap();
        w.write(MAGIC).unwrap();
        for word in [VERSION, 0, 0, 0, RAW] {
            w.write(&word.to_le_bytes()).unwrap();
        }
        w.finish(&[]).unwrap();
        match load_corpus(&path) {
            Err(DiskError::BadRecord(m)) => assert_eq!(m, "corpus has no categories"),
            other => panic!("expected a BadRecord, got {:?}", other.map(|_| ())),
        }
        std::fs::remove_file(&path).unwrap();
    }

    /// The kind and message of a refusal.
    fn refusal(e: &DiskError) -> (&'static str, String) {
        match e {
            DiskError::BadRecord(m) => ("BadRecord", m.clone()),
            DiskError::BadHeader(m) => ("BadHeader", m.clone()),
            other => panic!("expected a typed refusal, got {other:?}"),
        }
    }

    /// An append checks the committed corpus through the loader's one
    /// decoder, so each defect the loader refuses — forged behind a
    /// re-sealed CRC, one at a time, in a raw and in a scaled corpus —
    /// is the append's refusal too, and the append commits nothing:
    /// same generation, no temporary.
    #[test]
    fn append_keeps_the_loaders_checks() {
        use crate::manifest::{build_dir_with, resolve_dir_with};
        use crate::segment::append_segment;
        use warptree_core::sequence::SeqId;
        type Forgery = (&'static str, &'static str, usize, Vec<u8>);
        // Two records, the first named "AB": `records` is where they
        // start, then its name length, name, value count and values.
        let corpus = |last: f64| {
            let mut store = SequenceStore::new();
            store.push_named(Sequence::new(vec![1.0, 5.0, 9.0]), "AB");
            store.push(Sequence::new(vec![3.0, 3.0, last]));
            let alpha = Alphabet::equal_length(&store, 4).unwrap();
            let records = HEADER_BYTES + 32 * alpha.len();
            (store, alpha, records)
        };
        // Raw: the last value is on no decimal grid.
        let (raw_store, raw_alpha, records) = corpus(1.0 / 3.0);
        let (name_at, len_at) = (records + 4, records + 6);
        let raw_forgeries: Vec<Forgery> = vec![
            (
                "BadRecord",
                "truncated",
                len_at,
                u32::MAX.to_le_bytes().to_vec(),
            ),
            (
                "BadRecord",
                "non-finite value in corpus",
                len_at + 4,
                f64::NAN.to_le_bytes().to_vec(),
            ),
            (
                "BadRecord",
                "sequence name is not UTF-8",
                name_at,
                vec![0xFF, 0xFE],
            ),
            // The second category's lower boundary below the first's.
            (
                "BadRecord",
                "categories not ordered",
                HEADER_BYTES + 32,
                (-1e300f64).to_le_bytes().to_vec(),
            ),
        ];
        // Scaled at d = 0: the first record's values are the varints
        // 02 08 08; the second record's count follows 13 bytes on.
        let (scaled_store, scaled_alpha, records) = corpus(700.0);
        let values_at = records + 10;
        let second_len_at = records + 13 + 4;
        let past_the_stream = (PAGE_DATA - (second_len_at + 4) + 1) as u32;
        let beyond = ((MAX_K + 1) << 1) as u64;
        let mut out_of_range = Vec::new();
        let mut z = beyond;
        while z >= 0x80 {
            out_of_range.push(z as u8 | 0x80);
            z >>= 7;
        }
        out_of_range.push(z as u8);
        let scaled_forgeries: Vec<Forgery> = vec![
            (
                "BadRecord",
                "truncated",
                records + 6,
                u32::MAX.to_le_bytes().to_vec(),
            ),
            (
                "BadRecord",
                "varint longer than 10 bytes",
                values_at,
                vec![0xFF; 11],
            ),
            (
                "BadRecord",
                "corpus value out of range",
                values_at,
                out_of_range,
            ),
            // One value more than the stream has bytes left.
            (
                "BadRecord",
                "truncated",
                second_len_at,
                past_the_stream.to_le_bytes().to_vec(),
            ),
            (
                "BadHeader",
                "corpus decimals 10 out of range",
                24,
                10u32.to_le_bytes().to_vec(),
            ),
            (
                "BadHeader",
                "corpus decimals 4294967294 out of range",
                24,
                (u32::MAX - 1).to_le_bytes().to_vec(),
            ),
        ];
        let batch = SequenceStore::from_values(vec![vec![2.0, 4.0]]);
        let cases = [
            ("raw", raw_store, raw_alpha, raw_forgeries),
            ("scaled", scaled_store, scaled_alpha, scaled_forgeries),
        ];
        for (mode, store, alpha, forgeries) in cases {
            for (kind, what, at, bytes) in forgeries {
                let context = format!("{mode}: {what} at {at}");
                let dir = tmp(&format!("append-forged-{mode}-{at}"));
                let _ = std::fs::remove_dir_all(&dir);
                let tree = crate::merge::TreeKind::Sparse;
                let vfs = crate::vfs::real_vfs();
                build_dir_with(vfs, &store, &alpha, tree, 1, 1, None, &dir).unwrap();
                let before = resolve_dir_with(&RealVfs, &dir).unwrap();
                let (loaded, _, _) = load_corpus(&before.corpus_path).unwrap();
                assert_eq!(loaded.name(SeqId(0)), Some("AB"), "{context}");
                assert_eq!(loaded.get(SeqId(1)).values(), store.get(SeqId(1)).values());
                let decimals = corpus_decimals(&before.corpus_path).unwrap();
                assert_eq!(decimals, (mode == "scaled").then_some(0), "{context}");
                forge(&before.corpus_path, at, &bytes);
                for result in [
                    load_corpus(&before.corpus_path).map(|_| ()),
                    append_segment(&dir, &batch).map(|_| ()),
                ] {
                    let err = result.expect_err(&context);
                    assert_eq!(refusal(&err), (kind, what.to_string()), "{context}");
                }
                let after = resolve_dir_with(&RealVfs, &dir).unwrap();
                assert_eq!(after.generation, before.generation, "{context}");
                for entry in std::fs::read_dir(&dir).unwrap() {
                    let name = entry.unwrap().file_name();
                    assert!(
                        !name.to_string_lossy().ends_with(".tmp"),
                        "{context}: {name:?}"
                    );
                }
                std::fs::remove_dir_all(&dir).unwrap();
            }
        }
    }

    /// Saves `store` and loads it back, asserting every value and name
    /// bit for bit; returns the scale the file recorded.
    fn roundtrip(store: &SequenceStore, path: &Path) -> Option<u32> {
        let alpha = Alphabet::equal_length(store, 3).unwrap();
        save_corpus(store, &alpha, path).unwrap();
        let (back, _, _) = load_corpus(path).unwrap();
        assert_eq!(back.len(), store.len());
        for (id, s) in store.iter() {
            // Bit for bit, but for `-0.0`, which loads as `+0.0`.
            let bits = |v: &[f64]| v.iter().map(|v| (v + 0.0).to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(back.get(id).values()), bits(s.values()), "{id}");
            assert_eq!(back.name(id), store.name(id), "{id}");
        }
        corpus_decimals(path).unwrap()
    }

    /// The smallest scale every value of `store` is on, by brute force.
    fn smallest_scale(store: &SequenceStore) -> Option<u32> {
        let on = |d| {
            store
                .iter()
                .all(|(_, s)| s.values().iter().all(|&v| on_grid(v, d).is_some()))
        };
        (0..=MAX_DECIMALS).find(|&d| on(d))
    }

    /// Random stores on every grid `d = 0..=9` and off every grid,
    /// named and unnamed, with empty and one-value sequences: each
    /// loads back bit for bit, stored at the smallest scale its values
    /// are all on.
    #[test]
    fn every_scale_roundtrips_bit_for_bit() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(45);
        let path = tmp("scales");
        for case in 0..120 {
            let d = case % 11;
            let mut store = SequenceStore::new();
            for i in 0..rng.gen_range(1..6usize) {
                let len = [0, 1, 2, 40][rng.gen_range(0..4usize)];
                let span = [100i64, 1 << 20, MAX_K][rng.gen_range(0..3usize)];
                let values: Vec<f64> = (0..len)
                    .map(|_| match d {
                        10 => rng.gen_range(-1e3..1e3),
                        d => rng.gen_range(-span..=span) as f64 / POW10[d],
                    })
                    .collect();
                match i % 2 {
                    0 => store.push_named(Sequence::new(values), format!("s{i}")),
                    _ => store.push(Sequence::new(values)),
                };
            }
            if store.total_len() == 0 {
                store.push(Sequence::new(vec![0.5]));
            }
            let stored = roundtrip(&store, &path);
            assert_eq!(stored, smallest_scale(&store), "case {case}");
            if d < 10 {
                assert!(
                    stored.is_some_and(|s| s <= d as u32),
                    "case {case}: {stored:?}"
                );
            }
        }
        std::fs::remove_file(&path).unwrap();
    }

    /// The edges of the scales: `-0.0` and `|k|` past `2^53` are stored
    /// raw, `|k|` up to `2^53` scaled, at any `d`.
    #[test]
    fn scale_edges_roundtrip() {
        let path = tmp("edges");
        let max = MAX_K as f64;
        let cases: [(Vec<f64>, Option<u32>); 10] = [
            (vec![1.0, 2.0, 3.0], Some(0)),
            (vec![19.99, 20.0, 0.01], Some(2)),
            (vec![1.0, 3.5], Some(1)),
            (vec![1e-9, -2e-9], Some(9)),
            (vec![1e-10], None),
            (vec![0.0, -0.0], Some(0)),
            (vec![-0.0, 19.99], Some(2)),
            (vec![max - 1.0, max, -max, 0.0], Some(0)),
            // 2^53 + 1 rounds to 2^53 + 2, past the scale's reach.
            (vec![max + 2.0], None),
            (vec![(MAX_K - 1) as f64 / 100.0, -max / 100.0], Some(2)),
        ];
        for (values, want) in cases {
            let mut store = SequenceStore::new();
            store.push(Sequence::new(values.clone()));
            store.push_named(Sequence::new(Vec::new()), "empty");
            assert_eq!(roundtrip(&store, &path), want, "{values:?}");
        }
        std::fs::remove_file(&path).unwrap();
    }

    /// A whole-cent corpus with one `-0.0` among its values is stored at
    /// two decimals, byte for byte the file of its `+0.0` twin, and the
    /// two answer a query alike (both are saved with the twin's
    /// alphabet: the codec is what is under test).
    #[test]
    fn a_negative_zero_keeps_the_corpus_on_its_grid() {
        use warptree_core::search::{seq_scan, SearchParams, SearchStats, SeqScanMode};
        let cents = |i: i64| (0..60).map(move |j| ((i * 37 + j * 11) % 401 - 200) as f64 / 100.0);
        let mut values: Vec<Vec<f64>> = (0..8).map(|i| cents(i).collect()).collect();
        values[3][10] = 0.0;
        let twin = SequenceStore::from_values(values.clone());
        values[3][10] = -0.0;
        let signed = SequenceStore::from_values(values);
        let alphabet = Alphabet::max_entropy(&twin, 8).unwrap();
        let (a, b) = (tmp("zero-signed"), tmp("zero-twin"));
        save_corpus(&signed, &alphabet, &a).unwrap();
        save_corpus(&twin, &alphabet, &b).unwrap();
        assert_eq!(corpus_decimals(&a).unwrap(), Some(2));
        assert!(std::fs::read(&a).unwrap() == std::fs::read(&b).unwrap());
        let q = [0.05, -0.1, 0.0, 0.3];
        let params = SearchParams::with_epsilon(0.5);
        let answers = |store: &SequenceStore| {
            seq_scan(
                store,
                &q,
                &params,
                SeqScanMode::Full,
                &mut SearchStats::default(),
            )
            .occurrence_set()
        };
        let want = answers(&twin);
        assert!(!want.is_empty());
        assert_eq!(answers(&signed), want);
        assert_eq!(answers(&load_corpus(&a).unwrap().0), want);
        std::fs::remove_file(&a).unwrap();
        std::fs::remove_file(&b).unwrap();
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
