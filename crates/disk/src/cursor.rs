//! A bounds-checked reader over the bytes of a file already read whole:
//! the `MANIFEST`, `SHARDS` and corpus decoders all go through it. Every
//! length is checked against what is left before anything is sized by
//! it, so a count forged behind a valid CRC is a typed error — never an
//! allocation the bytes cannot back, and never an out-of-range slice.

use crate::error::{DiskError, Result};

#[derive(Clone, Copy)]
pub(crate) struct Cursor<'a> {
    body: &'a [u8],
    pos: usize,
    /// How the format types a body it refuses (`BadManifest`,
    /// `BadRecord`).
    bad: fn(String) -> DiskError,
}

impl<'a> Cursor<'a> {
    pub(crate) fn new(body: &'a [u8], bad: fn(String) -> DiskError) -> Self {
        Self { body, pos: 0, bad }
    }

    /// `message` as this format's error.
    fn bad(&self, message: &str) -> DiskError {
        (self.bad)(message.into())
    }

    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if n > self.body.len() - self.pos {
            return Err(self.bad("truncated"));
        }
        let s = &self.body[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N]> {
        Ok(self.take(N)?.try_into().expect("take(N) yields N bytes"))
    }

    pub(crate) fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    pub(crate) fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    /// `n` little-endian `f64`s.
    pub(crate) fn f64s(&mut self, n: usize) -> Result<Vec<f64>> {
        let raw = self.take(n.saturating_mul(8))?;
        let values = raw.chunks_exact(8).map(|c| c.try_into().expect("8 bytes"));
        Ok(values.map(f64::from_le_bytes).collect())
    }

    /// A length-prefixed UTF-8 string of at most `max` bytes; `what`
    /// names it in the errors.
    pub(crate) fn text(&mut self, max: usize, what: &str) -> Result<&'a str> {
        let len = self.u32()? as usize;
        if len > max {
            return Err(self.bad(&format!("implausible {what} length")));
        }
        let raw = self.take(len)?;
        std::str::from_utf8(raw).map_err(|_| self.bad(&format!("{what} is not UTF-8")))
    }

    /// An unsigned LEB128 varint: seven bits a byte, low group first,
    /// at most ten bytes. A one-byte varint takes the fast path.
    #[inline(always)]
    pub(crate) fn varint(&mut self) -> Result<u64> {
        if let Some(&b) = self.body.get(self.pos).filter(|&&b| b < 0x80) {
            self.pos += 1;
            return Ok(u64::from(b));
        }
        // The slow path takes the bytes by value: a cursor it borrowed
        // could not stay in registers across a caller's loop.
        match long_varint(&self.body[self.pos..]) {
            Ok((v, len)) => {
                self.pos += len;
                Ok(v)
            }
            Err(message) => Err(self.bad(message)),
        }
    }

    /// The next four varints, when each is one or two bytes: one load
    /// of the eight bytes that hold them, and no branch per varint. A
    /// varint of three bytes or more has two continuation bytes in a
    /// row; if any of the four is one, they are among the eight, and
    /// this reads nothing.
    #[inline(always)]
    pub(crate) fn four_short_varints(&mut self) -> Option<[u64; 4]> {
        let word = self.body.get(self.pos..self.pos + 8)?;
        let w = u64::from_le_bytes(word.try_into().expect("8 bytes"));
        let more = w & 0x8080_8080_8080_8080;
        if more & (more >> 8) != 0 {
            return None;
        }
        let mut out = [0; 4];
        let mut at = 0;
        for v in &mut out {
            let x = w >> at;
            let two = (x >> 7) & 1;
            *v = x & 0x7f | (x >> 1) & 0x3f80 & two.wrapping_neg();
            at += 8 + 8 * two;
        }
        self.pos += (at / 8) as usize;
        Some(out)
    }

    /// How many bytes are left to read.
    pub(crate) fn remaining(&self) -> usize {
        self.body.len() - self.pos
    }

    /// How many bytes have been read.
    #[cfg(test)]
    pub(crate) fn pos(&self) -> usize {
        self.pos
    }

    /// Whether every byte has been read.
    pub(crate) fn is_done(&self) -> bool {
        self.pos == self.body.len()
    }
}

/// The varint at the start of `bytes` and its length in bytes.
#[cold]
fn long_varint(bytes: &[u8]) -> std::result::Result<(u64, usize), &'static str> {
    let mut v = 0u64;
    for (i, &b) in bytes.iter().enumerate() {
        if i == 9 && b >= 0x80 {
            return Err("varint longer than 10 bytes");
        }
        if i == 9 && b > 1 {
            return Err("varint overflows 64 bits");
        }
        v |= u64::from(b & 0x7f) << (7 * i);
        if b < 0x80 {
            return Ok((v, i + 1));
        }
    }
    Err("truncated")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn varint(bytes: &[u8]) -> Result<(u64, usize)> {
        let mut cur = Cursor::new(bytes, DiskError::BadRecord);
        Ok((cur.varint()?, cur.pos()))
    }

    fn refused(bytes: &[u8]) -> String {
        match varint(bytes) {
            Err(DiskError::BadRecord(m)) => m,
            other => panic!("expected a BadRecord, got {other:?}"),
        }
    }

    #[test]
    fn varints_decode_to_ten_bytes_and_no_further() {
        assert_eq!(varint(&[0x7f, 0xff]).unwrap(), (0x7f, 1));
        assert_eq!(varint(&[0xf2, 0x0a]).unwrap(), (1394, 2));
        let mut max = vec![0xff; 9];
        max.push(0x01);
        assert_eq!(varint(&max).unwrap(), (u64::MAX, 10));
        assert_eq!(refused(&[0x80, 0x80]), "truncated");
        assert_eq!(refused(&[]), "truncated");
        assert_eq!(refused(&[0xff; 11]), "varint longer than 10 bytes");
        max[9] = 0x02;
        assert_eq!(refused(&max), "varint overflows 64 bits");
    }

    #[test]
    fn four_short_varints_or_none() {
        let bytes = [0x05, 0xf2, 0x0a, 0x7f, 0x80, 0x01, 0x33, 0xff];
        let mut cur = Cursor::new(&bytes, DiskError::BadRecord);
        assert_eq!(cur.four_short_varints(), Some([5, 1394, 0x7f, 0x80]));
        assert_eq!(cur.pos(), 6);
        // A three-byte varint among the eight: nothing is read.
        let bytes = [0x05, 0x80, 0x80, 0x01, 0x01, 0x01, 0x01, 0x01];
        let mut cur = Cursor::new(&bytes, DiskError::BadRecord);
        assert_eq!(cur.four_short_varints(), None);
        assert_eq!(cur.pos(), 0);
        assert_eq!(
            Cursor::new(&bytes[..7], DiskError::BadRecord).four_short_varints(),
            None
        );
    }
}
