//! A bounds-checked reader over the bytes of a file already read whole:
//! the `MANIFEST`, `SHARDS` and corpus decoders all go through it. Every
//! length is checked against what is left before anything is sized by
//! it, so a count forged behind a valid CRC is a typed error — never an
//! allocation the bytes cannot back, and never an out-of-range slice.

use crate::error::{DiskError, Result};

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

    /// How many bytes have been read.
    pub(crate) fn pos(&self) -> usize {
        self.pos
    }

    /// Whether every byte has been read.
    pub(crate) fn is_done(&self) -> bool {
        self.pos == self.body.len()
    }
}
