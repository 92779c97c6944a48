//! Reflected Gray codes.
//!
//! The hypercube label assignment of §6.3,
//! `ℓ(d_{n-1}…d_0) = Σ (c_i d̄_i + c̄_i d_i)·2^i` with
//! `c_i = d_{n-1} ⊕ … ⊕ d_{i+1}`, is exactly the *inverse* of the binary
//! reflected Gray code: bit `i` of `ℓ(v)` is the XOR of bits `i..n-1` of
//! `v`, so the node visited at position `ℓ` along the Hamiltonian path is
//! `gray_encode(ℓ)`. This module provides both directions plus the
//! generalized radix-`k` reflected Gray code used to label k-ary n-cubes.

/// Binary reflected Gray code of `i`: consecutive values differ in one bit.
#[inline]
pub fn gray_encode(i: usize) -> usize {
    i ^ (i >> 1)
}

/// Inverse of [`gray_encode`]: the position of address `g` in the Gray
/// sequence. This is the dissertation's hypercube label assignment `ℓ`.
#[inline]
pub fn gray_decode(g: usize) -> usize {
    // b_i = g_i ⊕ g_{i+1} ⊕ … ⊕ g_{n-1}: a prefix XOR from the top bit,
    // folded in log₂(bits) doubling shifts.
    let mut b = g;
    let mut shift = 1;
    while shift < usize::BITS {
        b ^= b >> shift;
        shift <<= 1;
    }
    b
}

/// Digits (dimension 0 first) of the `i`-th word of the radix-`k`
/// reflected Gray code over `n` digits.
///
/// Consecutive words differ by ±1 in exactly one digit, so the sequence is
/// a Hamiltonian path of the k-ary n-cube mesh (and of the torus, whose
/// links are a superset).
pub fn kary_gray_digits(mut i: usize, k: usize, n: u32) -> Vec<usize> {
    debug_assert!(k >= 2);
    // Reflected construction: digit d of the Gray word equals the base
    // digit when the sum of the more significant *Gray* digits is even,
    // and its reflection k−1−b when that sum is odd. For k = 2 this
    // telescopes to the classic g_d = b_d ⊕ b_{d+1}.
    let mut base = Vec::with_capacity(n as usize);
    for _ in 0..n {
        base.push(i % k);
        i /= k;
    }
    // base[d] is digit d (LSD first). Process from most significant down.
    let mut gray = vec![0usize; n as usize];
    let mut parity = 0usize; // sum of Gray digits above the current one
    for d in (0..n as usize).rev() {
        let g = if parity.is_multiple_of(2) {
            base[d]
        } else {
            k - 1 - base[d]
        };
        gray[d] = g;
        parity += g;
    }
    gray
}

/// Inverse of [`kary_gray_digits`]: the index of a Gray word given its
/// digits (dimension 0 first).
pub fn kary_gray_index(gray: &[usize], k: usize) -> usize {
    let n = gray.len();
    let mut i = 0usize;
    let mut parity = 0usize;
    for d in (0..n).rev() {
        let g = gray[d];
        let b = if parity.is_multiple_of(2) {
            g
        } else {
            k - 1 - g
        };
        i = i * k + b;
        parity += g;
    }
    i
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gray_roundtrip() {
        for i in 0..4096 {
            assert_eq!(gray_decode(gray_encode(i)), i);
        }
    }

    #[test]
    fn consecutive_grays_differ_in_one_bit() {
        for i in 0..4095usize {
            let d = gray_encode(i) ^ gray_encode(i + 1);
            assert_eq!(d.count_ones(), 1, "i={i}");
        }
    }

    #[test]
    fn gray_cycle_wraps_for_powers_of_two() {
        // The Gray sequence over n bits is a Hamiltonian *cycle*: last and
        // first codes differ in one bit too.
        for n in 1..10u32 {
            let m = 1usize << n;
            let d = gray_encode(0) ^ gray_encode(m - 1);
            assert_eq!(d.count_ones(), 1, "n={n}");
        }
    }

    #[test]
    fn matches_dissertation_table_5_3() {
        // Table 5.3: Hamilton cycle of a 4-cube in visit order.
        let expected = [
            0b0000, 0b0001, 0b0011, 0b0010, 0b0110, 0b0111, 0b0101, 0b0100, 0b1100, 0b1101, 0b1111,
            0b1110, 0b1010, 0b1011, 0b1001, 0b1000,
        ];
        for (i, &addr) in expected.iter().enumerate() {
            assert_eq!(gray_encode(i), addr, "position {i}");
            assert_eq!(gray_decode(addr), i);
        }
    }

    #[test]
    fn paper_formula_matches_gray_decode() {
        // ℓ(d_{n-1}…d_0) = Σ (c_i ⊕ d_i) 2^i with c_i the XOR of the bits
        // above i (c_{n-1} = 0).
        let n = 8u32;
        for v in 0..(1usize << n) {
            let mut l = 0usize;
            for i in 0..n {
                let mut c = 0usize;
                for j in (i + 1)..n {
                    c ^= v >> j & 1;
                }
                let d = v >> i & 1;
                l |= (c ^ d) << i;
            }
            assert_eq!(l, gray_decode(v), "v={v:#b}");
        }
    }

    #[test]
    fn kary_gray_is_hamiltonian_path_of_digit_space() {
        for (k, n) in [(3usize, 3u32), (4, 3), (5, 2), (2, 6)] {
            let total = k.pow(n);
            let mut seen = vec![false; total];
            let mut prev: Option<Vec<usize>> = None;
            for i in 0..total {
                let g = kary_gray_digits(i, k, n);
                // Index roundtrip.
                assert_eq!(kary_gray_index(&g, k), i, "k={k} n={n} i={i}");
                // All digits in range; word unique.
                let as_num = g.iter().rev().fold(0, |a, &d| a * k + d);
                assert!(!seen[as_num], "duplicate word at {i}");
                seen[as_num] = true;
                // Differs from predecessor by ±1 in exactly one digit.
                if let Some(p) = prev {
                    let diffs: Vec<usize> = (0..n as usize).filter(|&d| p[d] != g[d]).collect();
                    assert_eq!(diffs.len(), 1, "k={k} n={n} i={i}");
                    let d = diffs[0];
                    assert_eq!(p[d].abs_diff(g[d]), 1, "k={k} n={n} i={i}");
                }
                prev = Some(g);
            }
            assert!(seen.iter().all(|&s| s));
        }
    }

    #[test]
    fn binary_kary_matches_binary_gray() {
        for i in 0..256 {
            let digits = kary_gray_digits(i, 2, 8);
            let word = digits.iter().rev().fold(0, |a, &d| a * 2 + d);
            assert_eq!(word, gray_encode(i));
        }
    }
}
