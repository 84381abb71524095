//! Morton (Z-order) encoding and comparison.
//!
//! The paper's MCOO / MCOO3 formats sort nonzeros by the Morton code of
//! their dense coordinates — the bit-interleaving of the coordinate words.
//! Formats like HiCOO and ALTO use this ordering to improve locality for
//! mode-agnostic tensor computations.
//!
//! Two entry points:
//!
//! * [`morton_encode`] materializes the interleaved code (useful up to a
//!   total of 128 bits, i.e. 64 bits per coordinate across 2 dims or 42
//!   bits across 3);
//! * [`morton_cmp`] compares two coordinate tuples in Z-order *without*
//!   materializing codes, using the classic most-significant-differing-bit
//!   trick, so it works for any rank and full 63-bit coordinates.

use std::cmp::Ordering;

/// Returns `true` when the most significant set bit of `x ^ y` is higher
/// than that of any lower-order difference — i.e. `msb(x) < msb(x ^ y)`
/// with `x < y`. This is Chan's `less_msb` predicate.
#[inline]
fn less_msb(x: u64, y: u64) -> bool {
    x < y && x < (x ^ y)
}

/// Compares two coordinate tuples in Morton (Z-curve) order.
///
/// Coordinates must be non-negative; the comparison is exact for values up
/// to `2^63 - 1` and any rank.
///
/// # Panics
/// Panics when the tuples have different lengths or contain negative
/// coordinates (debug builds only for the sign check).
pub fn morton_cmp(a: &[i64], b: &[i64]) -> Ordering {
    assert_eq!(a.len(), b.len(), "morton_cmp rank mismatch");
    // Find the dimension whose coordinate pair differs in the highest bit;
    // the tuple order is decided by that dimension. On msb ties the later
    // dimension wins, matching `morton_encode` which interleaves dimension
    // `d` at bit `b * rank + d` (later dimensions are more significant
    // within each bit group).
    let mut top_dim = 0usize;
    let mut top_xor = 0u64;
    for (d, (&x, &y)) in a.iter().zip(b.iter()).enumerate() {
        debug_assert!(x >= 0 && y >= 0, "morton coordinates must be non-negative");
        let xor = (x as u64) ^ (y as u64);
        if xor != 0 && !less_msb(xor, top_xor) {
            top_dim = d;
            top_xor = xor;
        }
    }
    if top_xor == 0 {
        Ordering::Equal
    } else {
        a[top_dim].cmp(&b[top_dim])
    }
}

/// Interleaves the low `bits` bits of each coordinate into a single Morton
/// code, dimension 0 contributing the least-significant bit of each group.
///
/// `rank * bits` must not exceed 128.
///
/// # Panics
/// Panics when the product of rank and `bits` exceeds 128 or any
/// coordinate does not fit in `bits` bits.
pub fn morton_encode(coords: &[i64], bits: u32) -> u128 {
    let rank = coords.len() as u32;
    assert!(rank * bits <= 128, "morton code would exceed 128 bits");
    let mut code: u128 = 0;
    for (d, &c) in coords.iter().enumerate() {
        assert!(c >= 0, "morton coordinates must be non-negative");
        assert!(
            bits == 64 || (c as u128) < (1u128 << bits),
            "coordinate {c} does not fit in {bits} bits"
        );
        if let Some(spread) = SPREAD.get(rank as usize - 1) {
            // A byte at a time: byte `k` of `c` lands at bit `8 * k * rank`.
            for k in 0..bits.div_ceil(8).min(8) {
                let byte = (c as u64 >> (8 * k)) as u8;
                code |= (spread[byte as usize] as u128) << (8 * k * rank + d as u32);
            }
        } else {
            let c = c as u128;
            for b in 0..bits {
                code |= ((c >> b) & 1) << (b * rank + d as u32);
            }
        }
    }
    code
}

/// `SPREAD[r - 1][b]` has bit `i` of byte `b` at bit `i * r`: one byte of
/// a coordinate interleaved for rank `r`.
static SPREAD: [[u32; 256]; 4] = {
    let mut t = [[0u32; 256]; 4];
    let mut r = 0;
    while r < 4 {
        let mut b = 0;
        while b < 256 {
            let mut i = 0;
            while i < 8 {
                if (b >> i) & 1 == 1 {
                    t[r][b] |= 1 << (i * (r + 1));
                }
                i += 1;
            }
            b += 1;
        }
        r += 1;
    }
    t
};

/// Number of bits needed to Morton-encode coordinates below `extent`.
pub fn bits_for_extent(extent: usize) -> u32 {
    usize::BITS - extent.saturating_sub(1).leading_zeros()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_interleaves_known_codes() {
        // Dim 0 takes the even bits: (5, 9) = (0b0101, 0b1001) interleaves
        // to 0b1001_0011, and (1023, 511) sets the low 19 bits.
        for &(i, j, code) in
            &[(0i64, 0i64, 0u128), (1, 0, 1), (0, 1, 2), (5, 9, 147), (1023, 511, (1 << 19) - 1)]
        {
            assert_eq!(morton_encode(&[i, j], 10), code, "({i}, {j})");
        }
    }

    #[test]
    fn encode_matches_bitwise_interleave() {
        let bitwise = |coords: &[i64], bits: u32| {
            let rank = coords.len() as u32;
            let mut code = 0u128;
            for (d, &c) in coords.iter().enumerate() {
                for b in 0..bits {
                    code |= ((c as u128 >> b) & 1) << (b * rank + d as u32);
                }
            }
            code
        };
        let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
        for rank in 1..=5u32 {
            let bits = (128 / rank).min(63);
            for _ in 0..200 {
                let coords: Vec<i64> = (0..rank)
                    .map(|_| {
                        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                        ((x >> 1) >> (63 - bits)) as i64
                    })
                    .collect();
                assert_eq!(morton_encode(&coords, bits), bitwise(&coords, bits), "{coords:?}");
            }
        }
        assert_eq!(morton_encode(&[i64::MAX], 64), i64::MAX as u128);
    }

    #[test]
    fn cmp_agrees_with_encoded_order_2d() {
        let pts: Vec<[i64; 2]> = (0..16)
            .flat_map(|i| (0..16).map(move |j| [i, j]))
            .collect();
        for a in &pts {
            for b in &pts {
                let ea = morton_encode(a, 8);
                let eb = morton_encode(b, 8);
                assert_eq!(
                    morton_cmp(a, b),
                    ea.cmp(&eb),
                    "disagreement at {a:?} vs {b:?}"
                );
            }
        }
    }

    #[test]
    fn cmp_agrees_with_encoded_order_3d() {
        let pts: Vec<[i64; 3]> = (0..6)
            .flat_map(|i| (0..6).flat_map(move |j| (0..6).map(move |k| [i, j, k])))
            .collect();
        for a in &pts {
            for b in &pts {
                let ea = morton_encode(a, 8);
                let eb = morton_encode(b, 8);
                assert_eq!(morton_cmp(a, b), ea.cmp(&eb));
            }
        }
    }

    #[test]
    fn z_curve_visits_quadrants_in_order() {
        // The 2x2 Z curve is (0,0), (1,0), (0,1), (1,1) when dim 0 holds
        // the low interleaved bit (row = dim 0 varies fastest in the pair).
        let mut pts = vec![[0i64, 0], [0, 1], [1, 0], [1, 1]];
        pts.sort_by(|a, b| morton_cmp(a, b));
        assert_eq!(pts, vec![[0, 0], [1, 0], [0, 1], [1, 1]]);
    }

    #[test]
    fn bits_for_extent_bounds() {
        assert_eq!(bits_for_extent(1), 0);
        assert_eq!(bits_for_extent(2), 1);
        assert_eq!(bits_for_extent(3), 2);
        assert_eq!(bits_for_extent(1024), 10);
        assert_eq!(bits_for_extent(1025), 11);
    }

    #[test]
    fn equal_tuples_compare_equal() {
        assert_eq!(morton_cmp(&[3, 4, 5], &[3, 4, 5]), Ordering::Equal);
    }
}
