//! The shard manifest: a CRC'd, generational record of how a corpus is
//! partitioned across shard index directories.
//!
//! Sharding assigns each sequence to exactly one shard by **contiguous
//! global ranges**: shard *i* owns global sequence ids
//! `[start_seq, start_seq + seq_count)`, and a shard's local id `j`
//! names global sequence `start_seq + j`. The coordinator only needs
//! this offset to translate shard answers back into corpus-wide ids,
//! which keeps the cross-shard merge identical to the in-process
//! segment merge (`SegmentMeta` uses the same `{start_seq, seq_count}`
//! idiom for tail segments inside one directory).
//!
//! The `SHARDS` file follows the `MANIFEST` format discipline: magic,
//! version, little-endian fields, length-prefixed strings, and a CRC32
//! tail; commits go through `SHARDS.tmp` → fsync → rename → directory
//! fsync, so a crash leaves either the old or the new manifest in
//! force, never a torn one.

use std::path::Path;

use crate::crc::crc32;
use crate::cursor::Cursor;
use crate::error::{DiskError, Result};
use crate::vfs::{TempGuard, Vfs};

/// File name of the shard manifest inside the sharding root directory.
pub const SHARD_MANIFEST_NAME: &str = "SHARDS";

const SHARD_MAGIC: &[u8; 8] = b"WARPSHRD";
const SHARD_VERSION: u32 = 1;

/// One shard's slice of the corpus.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardMeta {
    /// Subdirectory (relative to the sharding root) holding the
    /// shard's index directory.
    pub dir: String,
    /// First global sequence id owned by this shard.
    pub start_seq: u32,
    /// Number of sequences assigned at partition time.
    pub seq_count: u32,
    /// Total values (suffix positions) assigned at partition time —
    /// the coordinator's fallback for `suffixes_total` when a shard is
    /// down before it was ever polled.
    pub values: u64,
}

/// The committed shard layout of a corpus.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardManifest {
    /// Bumped on every layout change (initial partition = 1).
    pub generation: u64,
    /// Shards in global sequence order.
    pub shards: Vec<ShardMeta>,
}

impl ShardManifest {
    /// Validates the invariants the coordinator's merge relies on:
    /// at least one shard, and shard ranges that tile the global id
    /// space contiguously from 0 with no gaps, overlaps, or empty
    /// shards.
    pub fn validate(&self) -> Result<()> {
        let bad = |m: String| DiskError::BadManifest(m);
        if self.shards.is_empty() {
            return Err(bad("shard manifest has no shards".into()));
        }
        let mut next = 0u32;
        for (i, s) in self.shards.iter().enumerate() {
            if s.seq_count == 0 {
                return Err(bad(format!("shard {i} ({}) is empty", s.dir)));
            }
            if s.start_seq != next {
                return Err(bad(format!(
                    "shard {i} ({}) starts at {} but the previous shard ends at {next}",
                    s.dir, s.start_seq
                )));
            }
            next = next
                .checked_add(s.seq_count)
                .ok_or_else(|| bad(format!("shard {i} ({}) overflows sequence ids", s.dir)))?;
        }
        Ok(())
    }

    /// Total sequences across all shards.
    pub fn total_sequences(&self) -> u64 {
        self.shards.iter().map(|s| s.seq_count as u64).sum()
    }

    /// Total values across all shards at partition time.
    pub fn total_values(&self) -> u64 {
        self.shards.iter().map(|s| s.values).sum()
    }

    /// The shard owning global sequence `seq`, when any.
    pub fn owner_of(&self, seq: u32) -> Option<usize> {
        self.shards
            .iter()
            .position(|s| seq >= s.start_seq && (seq - s.start_seq) < s.seq_count)
    }

    fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64);
        out.extend_from_slice(SHARD_MAGIC);
        out.extend_from_slice(&SHARD_VERSION.to_le_bytes());
        out.extend_from_slice(&self.generation.to_le_bytes());
        out.extend_from_slice(&(self.shards.len() as u32).to_le_bytes());
        for s in &self.shards {
            out.extend_from_slice(&(s.dir.len() as u32).to_le_bytes());
            out.extend_from_slice(s.dir.as_bytes());
            out.extend_from_slice(&s.start_seq.to_le_bytes());
            out.extend_from_slice(&s.seq_count.to_le_bytes());
            out.extend_from_slice(&s.values.to_le_bytes());
        }
        let crc = crc32(&out);
        out.extend_from_slice(&crc.to_le_bytes());
        out
    }

    fn decode(raw: &[u8]) -> Result<Self> {
        let bad = |m: &str| DiskError::BadManifest(m.into());
        if raw.len() < 4 {
            return Err(bad("truncated"));
        }
        let (body, tail) = raw.split_at(raw.len() - 4);
        let stored = u32::from_le_bytes(tail.try_into().unwrap());
        if crc32(body) != stored {
            return Err(bad("checksum mismatch"));
        }
        let mut cur = Cursor::new(body, DiskError::BadManifest);
        if cur.take(8)? != SHARD_MAGIC {
            return Err(bad("not a shard manifest"));
        }
        let version = cur.u32()?;
        if version != SHARD_VERSION {
            return Err(bad(&format!(
                "unsupported shard manifest version {version}"
            )));
        }
        let generation = cur.u64()?;
        let count = cur.u32()? as usize;
        if count > 4096 {
            return Err(bad("implausible shard count"));
        }
        let mut shards = Vec::with_capacity(count);
        for _ in 0..count {
            shards.push(ShardMeta {
                dir: cur.text(4096, "directory name")?.to_string(),
                start_seq: cur.u32()?,
                seq_count: cur.u32()?,
                values: cur.u64()?,
            });
        }
        if !cur.is_done() {
            return Err(bad("trailing bytes"));
        }
        let m = Self { generation, shards };
        m.validate()?;
        Ok(m)
    }
}

/// Reads the shard manifest under `dir`; `Ok(None)` when none exists.
pub fn read_shard_manifest_with(vfs: &dyn Vfs, dir: &Path) -> Result<Option<ShardManifest>> {
    let path = dir.join(SHARD_MANIFEST_NAME);
    if !vfs.exists(&path) {
        return Ok(None);
    }
    let file = vfs.open(&path)?;
    let len = file.len()?;
    if len > 64 * 1024 {
        return Err(DiskError::BadManifest("implausibly large".into()));
    }
    let mut raw = vec![0u8; len as usize];
    file.read_at(0, &mut raw)?;
    ShardManifest::decode(&raw).map(Some)
}

/// [`read_shard_manifest_with`] over the real filesystem.
pub fn read_shard_manifest(dir: &Path) -> Result<Option<ShardManifest>> {
    read_shard_manifest_with(&crate::vfs::RealVfs, dir)
}

/// Writes `m` as the directory's shard manifest: `SHARDS.tmp`, fsync,
/// rename, directory fsync. The rename is the commit point. Rejects
/// layouts that fail [`ShardManifest::validate`] before touching disk.
pub fn write_shard_manifest_with(vfs: &dyn Vfs, dir: &Path, m: &ShardManifest) -> Result<()> {
    m.validate()?;
    let tmp = dir.join(format!("{SHARD_MANIFEST_NAME}.tmp"));
    let mut guard = TempGuard::new(vfs, vec![tmp.clone()]);
    let mut file = vfs.create(&tmp)?;
    file.write_at(0, &m.encode())?;
    file.sync()?;
    drop(file);
    vfs.rename(&tmp, &dir.join(SHARD_MANIFEST_NAME))?;
    guard.defuse();
    vfs.sync_dir(dir)?;
    Ok(())
}

/// [`write_shard_manifest_with`] over the real filesystem.
pub fn write_shard_manifest(dir: &Path, m: &ShardManifest) -> Result<()> {
    write_shard_manifest_with(&crate::vfs::RealVfs, dir, m)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vfs::RealVfs;
    use proptest::prelude::*;

    fn sample() -> ShardManifest {
        ShardManifest {
            generation: 1,
            shards: vec![
                ShardMeta {
                    dir: "shard-0000".into(),
                    start_seq: 0,
                    seq_count: 3,
                    values: 120,
                },
                ShardMeta {
                    dir: "shard-0001".into(),
                    start_seq: 3,
                    seq_count: 2,
                    values: 81,
                },
            ],
        }
    }

    #[test]
    fn round_trips_through_encode_decode() {
        let m = sample();
        assert_eq!(ShardManifest::decode(&m.encode()).unwrap(), m);
        assert_eq!(m.total_sequences(), 5);
        assert_eq!(m.total_values(), 201);
        assert_eq!(m.owner_of(0), Some(0));
        assert_eq!(m.owner_of(2), Some(0));
        assert_eq!(m.owner_of(3), Some(1));
        assert_eq!(m.owner_of(4), Some(1));
        assert_eq!(m.owner_of(5), None);
    }

    #[test]
    fn detects_corruption_via_crc() {
        let mut raw = sample().encode();
        let mid = raw.len() / 2;
        raw[mid] ^= 0x40;
        assert!(matches!(
            ShardManifest::decode(&raw),
            Err(DiskError::BadManifest(_))
        ));
        // Truncation is also caught.
        let good = sample().encode();
        assert!(ShardManifest::decode(&good[..good.len() - 1]).is_err());
    }

    #[test]
    fn validation_rejects_broken_layouts() {
        let mut gap = sample();
        gap.shards[1].start_seq = 4;
        assert!(gap.validate().is_err());
        let mut overlap = sample();
        overlap.shards[1].start_seq = 2;
        assert!(overlap.validate().is_err());
        let mut empty_shard = sample();
        empty_shard.shards[1].seq_count = 0;
        assert!(empty_shard.validate().is_err());
        let none = ShardManifest {
            generation: 1,
            shards: Vec::new(),
        };
        assert!(none.validate().is_err());
        let mut hole_at_zero = sample();
        hole_at_zero.shards[0].start_seq = 1;
        assert!(hole_at_zero.validate().is_err());
    }

    /// Seals `body` with its CRC32 tail, as `encode` does: what a hostile
    /// writer, not a failing disk, leaves behind.
    fn sealed(mut body: Vec<u8>) -> Vec<u8> {
        let crc = crc32(&body);
        body.extend_from_slice(&crc.to_le_bytes());
        body
    }

    /// A body up to and including the shard count.
    fn head(count: u32) -> Vec<u8> {
        let mut out = SHARD_MAGIC.to_vec();
        out.extend_from_slice(&SHARD_VERSION.to_le_bytes());
        out.extend_from_slice(&1u64.to_le_bytes());
        out.extend_from_slice(&count.to_le_bytes());
        out
    }

    /// `decode` makes a typed `BadManifest` of `raw`, or a valid
    /// manifest inside the caps that re-encodes to exactly `raw`.
    fn assert_decode_is_total(raw: &[u8]) {
        match ShardManifest::decode(raw) {
            Ok(m) => {
                assert!(m.shards.len() <= 4096);
                assert!(m.shards.iter().all(|s| s.dir.len() <= 4096));
                assert!(m.validate().is_ok());
                assert_eq!(m.encode(), raw);
            }
            Err(e) => assert!(matches!(e, DiskError::BadManifest(_)), "{e:?}"),
        }
    }

    /// A count or length word: small, either side of the 4096 caps, or
    /// anything.
    fn word() -> impl Strategy<Value = u32> {
        (0u8..3, 0u32..8, any::<u32>()).prop_map(|(kind, small, wild)| match kind {
            0 => small,
            1 => 4092 + small,
            _ => wild,
        })
    }

    fn manifest_strategy() -> impl Strategy<Value = ShardManifest> {
        const DIRS: [&str; 4] = ["shard-0000", "", "é/..", "s"];
        let shard = (0usize..DIRS.len(), 1u32..1000, any::<u64>());
        (any::<u64>(), prop::collection::vec(shard, 1..=6)).prop_map(|(generation, shards)| {
            let mut start_seq = 0;
            let shards = shards
                .into_iter()
                .map(|(dir, seq_count, values)| {
                    let meta = ShardMeta {
                        dir: DIRS[dir].into(),
                        start_seq,
                        seq_count,
                        values,
                    };
                    start_seq += seq_count;
                    meta
                })
                .collect();
            ShardManifest { generation, shards }
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn every_valid_manifest_round_trips(m in manifest_strategy()) {
            prop_assert_eq!(ShardManifest::decode(&m.encode()).unwrap(), m);
        }

        /// Arbitrary bodies, bodies with hostile count and length words
        /// and arbitrary record bytes, and valid manifests with a byte
        /// overwritten or cut short — each re-sealed with a valid CRC.
        #[test]
        fn decode_survives_hostile_bodies_behind_a_valid_crc(
            noise in prop::collection::vec(any::<u8>(), 0..=96),
            count in word(),
            records in prop::collection::vec(
                (word(), prop::collection::vec(any::<u8>(), 0..=24)),
                0..=4,
            ),
            m in manifest_strategy(),
            at in any::<usize>(),
            byte in any::<u8>(),
        ) {
            assert_decode_is_total(&sealed(noise));

            let mut forged = head(count);
            for (len, rest) in records {
                forged.extend_from_slice(&len.to_le_bytes());
                forged.extend_from_slice(&rest);
            }
            assert_decode_is_total(&sealed(forged));

            let mut body = m.encode();
            body.truncate(body.len() - 4);
            let mut mangled = body.clone();
            mangled[at % body.len()] = byte;
            assert_decode_is_total(&sealed(mangled));
            for cut in 0..body.len() {
                assert_decode_is_total(&sealed(body[..cut].to_vec()));
            }
        }
    }

    /// Counts past the caps are refused before anything is sized by
    /// them.
    #[test]
    fn decode_refuses_words_past_the_caps() {
        for count in [4097, u32::MAX] {
            match ShardManifest::decode(&sealed(head(count))) {
                Err(DiskError::BadManifest(m)) => assert!(m.contains("shard count"), "{m}"),
                other => panic!("{other:?}"),
            }
        }
        for len in [4097u32, u32::MAX] {
            let mut body = head(1);
            body.extend_from_slice(&len.to_le_bytes());
            match ShardManifest::decode(&sealed(body)) {
                Err(DiskError::BadManifest(m)) => assert!(m.contains("name length"), "{m}"),
                other => panic!("{other:?}"),
            }
        }
    }

    #[test]
    fn commits_atomically_through_tmp_rename() {
        let dir = std::env::temp_dir().join(format!("warpshard-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let m = sample();
        write_shard_manifest_with(&RealVfs, &dir, &m).unwrap();
        // No tmp file survives a successful commit.
        assert!(!dir.join("SHARDS.tmp").exists());
        let back = read_shard_manifest_with(&RealVfs, &dir).unwrap().unwrap();
        assert_eq!(back, m);
        // Overwrite with a newer generation; the reader sees it.
        let mut newer = m.clone();
        newer.generation = 2;
        write_shard_manifest_with(&RealVfs, &dir, &newer).unwrap();
        let back = read_shard_manifest_with(&RealVfs, &dir).unwrap().unwrap();
        assert_eq!(back.generation, 2);
        // Missing manifest reads as None, not an error.
        let empty = dir.join("nope");
        std::fs::create_dir_all(&empty).unwrap();
        assert_eq!(read_shard_manifest_with(&RealVfs, &empty).unwrap(), None);
        std::fs::remove_dir_all(&dir).ok();
    }
}
