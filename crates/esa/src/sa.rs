//! Linear-time suffix-array and LCP-array construction.
//!
//! [`suffix_array`] is the skew (DC3) algorithm of Kärkkäinen & Sanders:
//! recursively sort the mod-1/mod-2 suffixes via radix-sorted triples,
//! derive the mod-0 order, and merge — O(n) over an integer alphabet.
//! [`lcp_array`] is Kasai's O(n) longest-common-prefix construction.
//!
//! Both operate on `u32` texts with every value `>= 1`; zero is reserved
//! internally as DC3's padding symbol.

/// Suffix array of `text` (all values `>= 1`): the start positions of
/// the suffixes of `text` in ascending lexicographic order.
pub fn suffix_array(text: &[u32]) -> Vec<u32> {
    let n = text.len();
    match n {
        0 => return Vec::new(),
        1 => return vec![0],
        _ => {}
    }
    debug_assert!(text.iter().all(|&c| c >= 1), "symbol 0 is DC3 padding");
    let mut s: Vec<usize> = text.iter().map(|&c| c as usize).collect();
    let k = *s.iter().max().unwrap();
    s.extend_from_slice(&[0, 0, 0]);
    let mut sa = vec![0usize; n + 3];
    skew(&s, &mut sa, n, k);
    sa[..n].iter().map(|&p| p as u32).collect()
}

/// One stable counting-sort pass: sorts the indices of `a` into `b` by
/// the key `r[a[i]]`, keys in `0..=k`.
fn radix_pass(a: &[usize], b: &mut [usize], r: &[usize], n: usize, k: usize) {
    let mut c = vec![0usize; k + 1];
    for &x in &a[..n] {
        c[r[x]] += 1;
    }
    let mut sum = 0;
    for ci in c.iter_mut() {
        let t = *ci;
        *ci = sum;
        sum += t;
    }
    for &x in &a[..n] {
        b[c[r[x]]] = x;
        c[r[x]] += 1;
    }
}

fn leq2(a1: usize, a2: usize, b1: usize, b2: usize) -> bool {
    a1 < b1 || (a1 == b1 && a2 <= b2)
}

fn leq3(a1: usize, a2: usize, a3: usize, b1: usize, b2: usize, b3: usize) -> bool {
    a1 < b1 || (a1 == b1 && leq2(a2, a3, b2, b3))
}

/// The recursive skew step. Requires `n >= 2`, `s[n] == s[n+1] ==
/// s[n+2] == 0`, and all of `s[..n]` in `1..=k`.
fn skew(s: &[usize], sa: &mut [usize], n: usize, k: usize) {
    let n0 = n.div_ceil(3);
    let n1 = (n + 1) / 3;
    let n2 = n / 3;
    // When n % 3 == 1 a dummy mod-1 suffix keeps the halves balanced.
    let n02 = n0 + n2;
    let mut s12 = vec![0usize; n02 + 3];
    let mut sa12 = vec![0usize; n02 + 3];
    let mut s0 = vec![0usize; n0];
    let mut sa0 = vec![0usize; n0];

    let mut j = 0;
    for i in 0..n + (n0 - n1) {
        if i % 3 != 0 {
            s12[j] = i;
            j += 1;
        }
    }

    // LSB-first radix sort of the mod-1/mod-2 triples.
    radix_pass(&s12, &mut sa12, &s[2..], n02, k);
    radix_pass(&sa12, &mut s12, &s[1..], n02, k);
    radix_pass(&s12, &mut sa12, s, n02, k);

    // Name the triples by rank.
    let mut name = 0usize;
    let (mut c0, mut c1, mut c2) = (usize::MAX, usize::MAX, usize::MAX);
    for &p in &sa12[..n02] {
        if s[p] != c0 || s[p + 1] != c1 || s[p + 2] != c2 {
            name += 1;
            c0 = s[p];
            c1 = s[p + 1];
            c2 = s[p + 2];
        }
        if p % 3 == 1 {
            s12[p / 3] = name;
        } else {
            s12[p / 3 + n0] = name;
        }
    }

    if name < n02 {
        // Ranks collide: recurse on the half-length renamed string.
        skew(&s12, &mut sa12, n02, name);
        for i in 0..n02 {
            s12[sa12[i]] = i + 1;
        }
    } else {
        // Ranks are already unique: invert them directly.
        for i in 0..n02 {
            sa12[s12[i] - 1] = i;
        }
    }

    // Sort mod-0 suffixes by (first char, rank of following mod-1).
    j = 0;
    for &r in &sa12[..n02] {
        if r < n0 {
            s0[j] = 3 * r;
            j += 1;
        }
    }
    radix_pass(&s0, &mut sa0, s, n0, k);

    // Merge the two sorted halves.
    let mut p = 0usize;
    let mut t = n0 - n1;
    let mut out = 0usize;
    let get_i = |t: usize, sa12: &[usize]| {
        if sa12[t] < n0 {
            sa12[t] * 3 + 1
        } else {
            (sa12[t] - n0) * 3 + 2
        }
    };
    while out < n {
        let i = get_i(t, &sa12);
        let j0 = sa0[p];
        let take12 = if sa12[t] < n0 {
            leq2(s[i], s12[sa12[t] + n0], s[j0], s12[j0 / 3])
        } else {
            leq3(
                s[i],
                s[i + 1],
                s12[sa12[t] - n0 + 1],
                s[j0],
                s[j0 + 1],
                s12[j0 / 3 + n0],
            )
        };
        if take12 {
            sa[out] = i;
            t += 1;
            out += 1;
            if t == n02 {
                while p < n0 {
                    sa[out] = sa0[p];
                    p += 1;
                    out += 1;
                }
            }
        } else {
            sa[out] = j0;
            p += 1;
            out += 1;
            if p == n0 {
                while t < n02 {
                    sa[out] = get_i(t, &sa12);
                    t += 1;
                    out += 1;
                }
            }
        }
    }
}

/// Kasai's algorithm: `lcp[i]` is the length of the longest common
/// prefix of the suffixes at `sa[i-1]` and `sa[i]` (`lcp[0] == 0`).
pub fn lcp_array(text: &[u32], sa: &[u32]) -> Vec<u32> {
    let n = sa.len();
    let mut rank = vec![0u32; n];
    for (i, &p) in sa.iter().enumerate() {
        rank[p as usize] = i as u32;
    }
    let mut lcp = vec![0u32; n];
    let mut h = 0usize;
    for i in 0..n {
        let r = rank[i] as usize;
        if r == 0 {
            h = 0;
            continue;
        }
        let j = sa[r - 1] as usize;
        while i + h < n && j + h < n && text[i + h] == text[j + h] {
            h += 1;
        }
        lcp[r] = h as u32;
        h = h.saturating_sub(1);
    }
    lcp
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_sa(text: &[u32]) -> Vec<u32> {
        let mut sa: Vec<u32> = (0..text.len() as u32).collect();
        sa.sort_by(|&a, &b| text[a as usize..].cmp(&text[b as usize..]));
        sa
    }

    fn naive_lcp(text: &[u32], sa: &[u32]) -> Vec<u32> {
        let mut lcp = vec![0u32; sa.len()];
        for i in 1..sa.len() {
            let a = &text[sa[i - 1] as usize..];
            let b = &text[sa[i] as usize..];
            lcp[i] = a.iter().zip(b).take_while(|(x, y)| x == y).count() as u32;
        }
        lcp
    }

    #[test]
    fn dc3_matches_naive_on_edge_cases() {
        let cases: Vec<Vec<u32>> = vec![
            vec![],
            vec![5],
            vec![2, 1],
            vec![1, 2],
            vec![1, 1],
            vec![1, 1, 1, 1, 1],
            vec![3, 1, 4, 1, 5, 9, 2, 6],
            vec![2, 2, 1, 2, 2, 1, 2, 2, 1],
            vec![1, 2, 3, 1, 2, 3, 1, 2],
        ];
        for text in cases {
            assert_eq!(suffix_array(&text), naive_sa(&text), "text {text:?}");
        }
    }

    #[test]
    fn dc3_and_kasai_match_naive_on_pseudorandom_texts() {
        // xorshift-driven sweep: many lengths × small alphabets (small
        // alphabets maximize repeats, the structurally hard case).
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for len in 0..48u64 {
            for alpha in 1..5u64 {
                let text: Vec<u32> = (0..len).map(|_| 1 + (next() % alpha) as u32).collect();
                let sa = suffix_array(&text);
                assert_eq!(sa, naive_sa(&text), "text {text:?}");
                assert_eq!(
                    lcp_array(&text, &sa),
                    naive_lcp(&text, &sa),
                    "text {text:?}"
                );
            }
        }
    }

    #[test]
    fn kasai_on_known_text() {
        // "banana" over integers: b=3 a=1 n=4.
        let text = vec![3, 1, 4, 1, 4, 1];
        let sa = suffix_array(&text);
        assert_eq!(sa, vec![5, 3, 1, 0, 4, 2]);
        assert_eq!(lcp_array(&text, &sa), vec![0, 1, 3, 0, 0, 2]);
    }
}
