//! CRC-32 (IEEE 802.3) checksums for page integrity.
//!
//! Implemented in-house (table-driven, reflected polynomial `0xEDB88320`)
//! to keep the crate dependency-free; every page of a tree or corpus file
//! carries a CRC so torn writes and bit rot are detected at read time.
//!
//! The checksum is computed eight bytes a step ("slicing-by-8"): table
//! `k` holds the CRC of a byte followed by `k` zero bytes, so the eight
//! lookups of one step are independent of each other and only the final
//! XOR sits on the loop's dependency chain. Every page that misses the
//! buffer pool pays for one CRC over
//! [`PAGE_DATA`](crate::pager::PAGE_DATA) bytes — hundreds of pages on a
//! query whose working set does not fit the pool — so the checksum's
//! throughput is query latency.

/// `TABLES[k][b]`: CRC register after feeding byte `b` and then `k`
/// zero bytes into a zero register. `TABLES[0]` is the classic table.
static TABLES: [[u32; 256]; 8] = {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            bit += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = t[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        k += 1;
    }
    t
};

/// CRC-32 of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    let t = &TABLES;
    let mut c = 0xFFFF_FFFFu32;
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let lo = c ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][w[4] as usize]
            ^ t[2][w[5] as usize]
            ^ t[1][w[6] as usize]
            ^ t[0][w[7] as usize];
    }
    for &b in words.remainder() {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pager::PAGE_DATA;

    /// The one-byte-a-step definition, kept as the oracle the sliced
    /// implementation is pinned to.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in data {
            c ^= b as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
        }
        c ^ 0xFFFF_FFFF
    }

    #[test]
    fn known_vectors() {
        // Standard IEEE CRC-32 test vectors.
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn sensitive_to_single_bit() {
        let a = crc32(b"hello world");
        let mut data = b"hello world".to_vec();
        data[3] ^= 1;
        assert_ne!(a, crc32(&data));
    }

    #[test]
    fn sliced_matches_bytewise_reference() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize
        };
        let buf: Vec<u8> = (0..PAGE_DATA + 64).map(|_| next() as u8).collect();
        // Every length around the 8-byte step, at every alignment.
        for len in 0..=64 {
            for start in 0..8 {
                let s = &buf[start..start + len];
                assert_eq!(crc32(s), crc32_bytewise(s), "len {len} start {start}");
            }
        }
        // A page payload: a multiple of 4 that is not a multiple of 8.
        assert_eq!(crc32(&buf[..PAGE_DATA]), crc32_bytewise(&buf[..PAGE_DATA]));
        for _ in 0..200 {
            let start = next() % buf.len();
            let len = next() % (buf.len() - start + 1);
            let s = &buf[start..start + len];
            assert_eq!(crc32(s), crc32_bytewise(s), "start {start} len {len}");
        }
    }
}
