//! CRC-32 (IEEE 802.3) checksums for page integrity.
//!
//! Implemented in-house (reflected polynomial `0xEDB88320`) to keep the
//! crate dependency-free; every page of a tree or corpus file carries a
//! CRC so torn writes and bit rot are detected at read time. Every page
//! that misses the buffer pool pays for one CRC over
//! [`PAGE_DATA`](crate::pager::PAGE_DATA) bytes — hundreds of pages on a
//! query whose working set does not fit the pool — so the checksum's
//! throughput is query latency.
//!
//! [`crc32`] runs one of two kernels, chosen at run time by the CPU
//! alone (no flag, feature or build setting selects one):
//!
//! * **Carry-less-multiply folding** (Gopal et al., Intel, *Fast CRC
//!   Computation for Generic Polynomials Using PCLMULQDQ*, 2009), on
//!   x86_64 CPUs where `is_x86_feature_detected!` finds `pclmulqdq` and
//!   `sse4.1`, for inputs of at least [`FOLD_MIN`] bytes. Four 128-bit
//!   lanes fold 64 bytes a step, merge into one that folds 16 bytes a
//!   step, and a Barrett reduction brings the remainder to 32 bits; the
//!   last `len % 16` bytes (12 of a page payload) go through the table
//!   loop. 0.35–0.40 µs a page payload against 5.3–5.9 µs for the
//!   tables (2-core Xeon with AVX-512).
//! * **Slicing-by-8** everywhere else — short inputs, other targets,
//!   CPUs without the instructions. Table `k` holds the CRC of a byte
//!   followed by `k` zero bytes, so the eight lookups of one step are
//!   independent of each other and only the final XOR sits on the loop's
//!   dependency chain.
//!
//! Both compute the same CRC bit for bit; the tests pin each to the
//! one-bit-a-step definition.

/// Shortest input the folding kernel takes: its four lanes start full.
const FOLD_MIN: usize = 64;

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

/// Whether this CPU runs [`clmul::update`]: the one place the kernel is
/// chosen.
#[cfg(target_arch = "x86_64")]
fn cpu_folds() -> bool {
    is_x86_feature_detected!("pclmulqdq") && is_x86_feature_detected!("sse4.1")
}

/// CRC-32 of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if data.len() >= FOLD_MIN && cpu_folds() {
        // SAFETY: `cpu_folds()` just found `pclmulqdq` and `sse4.1` on
        // this CPU with `is_x86_feature_detected!`.
        return !unsafe { clmul::update(!0, data) };
    }
    !sliced(!0, data)
}

/// Feeds `data` into the CRC register `crc` eight bytes a step.
fn sliced(mut crc: u32, data: &[u8]) -> u32 {
    let t = &TABLES;
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][w[4] as usize]
            ^ t[2][w[5] as usize]
            ^ t[1][w[6] as usize]
            ^ t[0][w[7] as usize];
    }
    for &b in words.remainder() {
        crc = t[0][((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    crc
}

/// The PCLMULQDQ folding kernel.
///
/// In the reflected domain a 128-bit lane moves `n` bits forward with
/// its remainder unchanged when its two 64-bit halves are carry-less
/// multiplied by `x^(n+32) mod P` and `x^(n−32) mod P` and the products
/// XORed: the `k` pairs below, for `n` = 512 (four lanes, 64 bytes a
/// step) and `n` = 128 (one lane, 16 bytes). Each constant is the 32-bit
/// remainder bit-reflected and shifted left by one, the layout
/// `pclmulqdq` wants for reflected operands.
#[cfg(target_arch = "x86_64")]
mod clmul {
    use std::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi32_si128, _mm_extract_epi32,
        _mm_loadu_si128, _mm_set_epi64x, _mm_setr_epi32, _mm_srli_si128, _mm_xor_si128,
    };

    /// `x^(4·128+32) mod P`: folds a lane 64 bytes on (low half).
    pub(super) const K1: i64 = 0x0001_5444_2BD4;
    /// `x^(4·128−32) mod P`: folds a lane 64 bytes on (high half).
    pub(super) const K2: i64 = 0x0001_C6E4_1596;
    /// `x^(128+32) mod P`: folds a lane 16 bytes on (low half).
    pub(super) const K3: i64 = 0x0001_7519_97D0;
    /// `x^(128−32) mod P`: folds a lane 16 bytes on (high half).
    pub(super) const K4: i64 = 0x0000_CCAA_009E;
    /// `x^64 mod P`: reduces the 96 bits left after 128 → 64 to 64.
    pub(super) const K5: i64 = 0x0001_63CD_6124;
    /// `P(x)` itself, reflected (33 bits).
    pub(super) const P: i64 = 0x0001_DB71_0641;
    /// Barrett's `μ = x^64 div P(x)`, reflected (33 bits).
    pub(super) const MU: i64 = 0x0001_F701_1641;

    /// The 16 bytes of `block` as one lane.
    #[inline(always)]
    fn load(block: &[u8; 16]) -> __m128i {
        // SAFETY: `block` is 16 readable bytes and `loadu` has no
        // alignment requirement; SSE2 is part of the x86_64 baseline.
        unsafe { _mm_loadu_si128(block.as_ptr().cast()) }
    }

    /// `lane` moved forward by the constant pair `k` (low, high) and
    /// XORed onto `next`, the lane that far on.
    #[inline]
    #[target_feature(enable = "pclmulqdq")]
    fn fold(lane: __m128i, k: __m128i, next: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128::<0x00>(lane, k);
        let hi = _mm_clmulepi64_si128::<0x11>(lane, k);
        _mm_xor_si128(_mm_xor_si128(lo, hi), next)
    }

    /// Feeds `data` (at least [`FOLD_MIN`](super::FOLD_MIN) bytes) into
    /// the CRC register `crc`: the 16-byte blocks by folding, the tail
    /// of fewer than 16 bytes through [`sliced`](super::sliced).
    ///
    /// # Safety
    ///
    /// The caller must have detected `pclmulqdq` and `sse4.1` on the
    /// running CPU (`is_x86_feature_detected!`).
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    pub(super) unsafe fn update(crc: u32, data: &[u8]) -> u32 {
        let (blocks, tail) = data.as_chunks::<16>();
        let (quads, singles) = blocks.as_chunks::<4>();
        let (first, quads) = quads
            .split_first()
            .expect("the folding kernel takes at least 64 bytes");

        // Four lanes, the register folded into the first, 64 bytes a step.
        let mut lanes = first.each_ref().map(load);
        lanes[0] = _mm_xor_si128(lanes[0], _mm_cvtsi32_si128(crc as i32));
        let k1k2 = _mm_set_epi64x(K2, K1);
        for quad in quads {
            for (lane, block) in lanes.iter_mut().zip(quad) {
                *lane = fold(*lane, k1k2, load(block));
            }
        }

        // One lane, 16 bytes a step.
        let k3k4 = _mm_set_epi64x(K4, K3);
        let mut acc = lanes[0];
        for &lane in &lanes[1..] {
            acc = fold(acc, k3k4, lane);
        }
        for block in singles {
            acc = fold(acc, k3k4, load(block));
        }

        // 128 → 64 bits: the low half folds onto the high by 64 bits,
        // then the low 32 bits of that onto the rest by 32.
        let low32 = _mm_setr_epi32(!0, 0, !0, 0);
        let x = _mm_xor_si128(
            _mm_srli_si128::<8>(acc),
            _mm_clmulepi64_si128::<0x10>(acc, k3k4),
        );
        let x = _mm_xor_si128(
            _mm_srli_si128::<4>(x),
            _mm_clmulepi64_si128::<0x00>(_mm_and_si128(x, low32), _mm_set_epi64x(0, K5)),
        );

        // Barrett: q = (low 32 bits of x) · μ, truncated to 32 bits;
        // x ⊕ q · P leaves the CRC in bits 32..64.
        let poly = _mm_set_epi64x(MU, P);
        let q = _mm_clmulepi64_si128::<0x10>(_mm_and_si128(x, low32), poly);
        let qp = _mm_clmulepi64_si128::<0x00>(_mm_and_si128(q, low32), poly);
        let folded = _mm_extract_epi32::<1>(_mm_xor_si128(x, qp)) as u32;

        super::sliced(folded, tail)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pager::{PAGE_DATA, PAGE_SIZE};

    /// The one-bit-a-step definition, kept as the oracle every kernel is
    /// pinned to.
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

    /// Checks `kernel` against [`crc32_bytewise`] on every length
    /// `min_len..=256` at every start alignment 0..16, on a page payload
    /// and a whole page at 16 alignments, and on 500 random slices of a
    /// 3-page buffer.
    fn pin_to_bytewise(name: &str, min_len: usize, kernel: impl Fn(&[u8]) -> u32) {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize
        };
        let buf: Vec<u8> = (0..3 * PAGE_SIZE).map(|_| next() as u8).collect();
        let check = |start: usize, len: usize| {
            let s = &buf[start..start + len];
            assert_eq!(
                kernel(s),
                crc32_bytewise(s),
                "{name}: start {start} len {len}"
            );
        };
        for len in (min_len..=256).chain([PAGE_DATA, PAGE_SIZE]) {
            for start in 0..16 {
                check(start, len);
            }
        }
        for _ in 0..500 {
            let start = next() % buf.len();
            let len = min_len.max(next() % (buf.len() - start + 1));
            check(start.min(buf.len() - len), len);
        }
    }

    #[test]
    fn known_vectors() {
        // Standard IEEE CRC-32 test vectors.
        let vectors: [(&[u8], u32); 3] = [
            (b"", 0x0000_0000),
            (b"123456789", 0xCBF4_3926),
            (b"The quick brown fox jumps over the lazy dog", 0x414F_A339),
        ];
        for (data, want) in vectors {
            assert_eq!(crc32(data), want);
            assert_eq!(!sliced(!0, data), want);
            assert_eq!(crc32_bytewise(data), want);
        }
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
        pin_to_bytewise("sliced", 0, |s| !sliced(!0, s));
    }

    #[test]
    fn crc32_matches_bytewise_reference() {
        pin_to_bytewise("crc32", 0, crc32);
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn folded_matches_bytewise_reference() {
        if !cpu_folds() {
            return;
        }
        // SAFETY: `cpu_folds()` just found `pclmulqdq` and `sse4.1`.
        pin_to_bytewise("folded", FOLD_MIN, |s| !unsafe { clmul::update(!0, s) });
    }

    /// `crc32` folds exactly when the CPU has both instructions: never
    /// without them, and never falling back to the tables unnoticed
    /// with them (≈ 5 µs on every page miss).
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn crc32_folds_when_the_cpu_can() {
        let detected = is_x86_feature_detected!("pclmulqdq") && is_x86_feature_detected!("sse4.1");
        assert_eq!(cpu_folds(), detected);
    }

    /// The fold constants are what their docs say: `x^n mod P(x)` (and
    /// `x^64 div P(x)`), bit-reflected and shifted left by one.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn fold_constants_are_reflected_powers_of_x() {
        // P(x) in the normal (unreflected) domain, x^32 implied.
        const POLY: u64 = 0x04C1_1DB7;
        let x_pow_mod = |n: u32| -> u32 {
            let mut r: u64 = 1;
            for _ in 0..n {
                r <<= 1;
                if r & (1 << 32) != 0 {
                    r ^= (1 << 32) | POLY;
                }
            }
            r as u32
        };
        let k = |n: u32| ((x_pow_mod(n).reverse_bits() as u64) << 1) as i64;
        assert_eq!(clmul::K1, k(4 * 128 + 32));
        assert_eq!(clmul::K2, k(4 * 128 - 32));
        assert_eq!(clmul::K3, k(128 + 32));
        assert_eq!(clmul::K4, k(128 - 32));
        assert_eq!(clmul::K5, k(64));
        assert_eq!(
            clmul::P,
            (((1u64 << 32) | POLY).reverse_bits() >> 31) as i64
        );
        // μ = x^64 div P(x) by long division, 33 bits, reflected.
        let (mut rem, mut mu) = (1u128 << 64, 0u64);
        for bit in (0..=32).rev() {
            if rem & (1 << (bit + 32)) != 0 {
                mu |= 1 << bit;
                rem ^= ((1u128 << 32) | POLY as u128) << bit;
            }
        }
        assert_eq!(clmul::MU, (mu.reverse_bits() >> 31) as i64);
    }
}
