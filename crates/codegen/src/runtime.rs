//! Runtime support for generated inspectors: the environment binding
//! uninterpreted functions to index arrays, and the `OrderedList`
//! permutation abstraction of §3.2 of the paper.
//!
//! The paper's synthesized code for COO→MCOO is:
//!
//! ```c
//! P = new OrderedList(2, 1, MORTON(), "<");
//! for (int c0 = 0; c0 < NNZ; c0++) {
//!     P.insert(row1(c0), col1(c0));
//! }
//! ```
//!
//! [`OrderedList`] implements that abstraction: keys are inserted in source
//! order, `finalize` sorts them with the declared comparator (insertion
//! order breaks ties, as in a stable sort), and `rank` retrieves the
//! re-ordered position of a nonzero — the permutation `P`.
//!
//! The paper notes that rank retrieval "incurs overhead". Here keys are
//! stored a column per dimension, `finalize` packs each key once into an
//! integer and radix-sorts the packed words (`sort_keys`), and it records
//! the rank of every insertion position. Synthesized inspectors query `P`
//! with the keys they inserted, in the order they inserted them, so the
//! interpreter compares each query in place with the key at a cursor and
//! answers from that array by position; only other queries build a hash
//! index.

use std::borrow::Cow;
use std::cmp::Ordering;
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::{Arc, OnceLock};

use crate::morton::{morton_cmp, morton_encode};

/// A fast non-cryptographic hasher (Fx-style multiply-xor) for the rank
/// index that answers out-of-order `rank` queries.
#[derive(Default)]
pub struct FxHasher {
    hash: u64,
}

const FX_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.hash = (self.hash.rotate_left(5) ^ b as u64).wrapping_mul(FX_SEED);
        }
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.hash = (self.hash.rotate_left(5) ^ v).wrapping_mul(FX_SEED);
    }

    #[inline]
    fn write_i64(&mut self, v: i64) {
        self.write_u64(v as u64);
    }
}

type FxBuild = BuildHasherDefault<FxHasher>;

/// Maximum key width supported by [`OrderedList`].
pub const MAX_KEY_WIDTH: usize = 4;

/// Fixed-width key buffer used by the rank index.
type KeyBuf = [i64; MAX_KEY_WIDTH];

/// Key → rank map for queries that cannot be answered by position.
type RankIndex = HashMap<KeyBuf, i64, FxBuild>;

fn key_buf(key: &[i64]) -> KeyBuf {
    let mut buf = [i64::MIN; MAX_KEY_WIDTH];
    buf[..key.len()].copy_from_slice(key);
    buf
}

/// A built-in key order with an integer encoding, for [`sort_keys`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum KeyOrder {
    /// Lexicographic over the key tuple.
    Lexicographic,
    /// Morton / Z-order over the key tuple.
    Morton,
}

/// Visits positions `0..n` in the order of their keys, breaking ties by
/// position — the order a stable sort gives. Column `d` of position `p`'s
/// key is `cols[d][p]`; every column holds `n` entries. `visit(p,
/// new_key)` is called once per position, in that order; `new_key` is
/// `false` exactly when `p`'s key equals the previously visited one.
///
/// A few linear passes over the columns do the work. The first finds each
/// column's range. The second encodes each key as one integer whose order
/// is the key order, with the position in the low bits: lexicographic
/// columns as offsets from the column minimum (so negative keys work),
/// concatenated; Morton keys as their interleaved code. When the packed
/// words fit a `u64` and are not already increasing, a stable LSD radix
/// sort over the code bits orders them ([`radix_sort`]). Wider words sort
/// as `u128` with `sort_unstable`, and keys too wide for 128 bits fall
/// back to a comparator sort with the same tie-break. Equal keys get equal
/// codes, so duplicates are neighbours.
///
/// # Panics
/// Panics when the number of columns is not in `1..=MAX_KEY_WIDTH` or
/// their lengths differ, and on negative Morton coordinates.
pub(crate) fn sort_keys(cols: &[&[i64]], order: KeyOrder, mut visit: impl FnMut(usize, bool)) {
    let w = cols.len();
    assert!((1..=MAX_KEY_WIDTH).contains(&w), "key width must be in 1..={MAX_KEY_WIDTH}");
    let n = cols[0].len();
    assert!(cols.iter().all(|c| c.len() == n), "key columns must have equal lengths");
    if n < 2 {
        if n == 1 {
            visit(0, true);
        }
        return;
    }
    let pos_bits = u64::BITS - (n as u64 - 1).leading_zeros();
    // Each column's range: lexicographic columns are coded as offsets from
    // their minimum, Morton coordinates as they are, in `bits[d]` bits.
    let (mut lo, mut bits) = ([0i64; MAX_KEY_WIDTH], [0u32; MAX_KEY_WIDTH]);
    for (d, col) in cols.iter().enumerate() {
        let (min, max) = col.iter().fold((i64::MAX, i64::MIN), |(a, b), &k| (a.min(k), b.max(k)));
        let span = match order {
            KeyOrder::Lexicographic => {
                lo[d] = min;
                max.wrapping_sub(min) as u64
            }
            KeyOrder::Morton => {
                assert!(min >= 0, "morton coordinates must be non-negative");
                max as u64
            }
        };
        bits[d] = u64::BITS - span.leading_zeros();
    }
    if order == KeyOrder::Morton {
        // Interleaving gives every coordinate the widest one's bits.
        let b = bits[..w].iter().copied().max().unwrap_or(0);
        bits[..w].fill(b);
    }
    let code_bits: u32 = bits[..w].iter().sum();
    let tuple = |p: usize| -> KeyBuf {
        let mut t = [0; MAX_KEY_WIDTH];
        for (slot, col) in t.iter_mut().zip(cols) {
            *slot = col[p];
        }
        t
    };
    match code_bits + pos_bits {
        0..=64 => {
            let mut words = pack_u64(cols, order, &lo, &bits, pos_bits);
            if !words.is_sorted() {
                radix_sort(&mut words, pos_bits, code_bits);
            }
            visit_packed(&words, pos_bits, &mut visit);
        }
        65..=128 => {
            let code = |p: usize| match order {
                KeyOrder::Lexicographic => (0..w).fold(0u128, |c, d| {
                    c << bits[d] | cols[d][p].wrapping_sub(lo[d]) as u64 as u128
                }),
                KeyOrder::Morton => morton_encode(&tuple(p)[..w], bits[0]),
            };
            let mut words: Vec<u128> = (0..n).map(|p| code(p) << pos_bits | p as u128).collect();
            if !words.is_sorted() {
                words.sort_unstable();
            }
            visit_packed(&words, pos_bits, &mut visit);
        }
        _ => {
            let cmp: fn(&[i64], &[i64]) -> Ordering = match order {
                KeyOrder::Lexicographic => <[i64]>::cmp,
                KeyOrder::Morton => morton_cmp,
            };
            comparator_sort(n, w, tuple, cmp, &mut visit);
        }
    }
}

/// The packed `u64` words of [`sort_keys`]: each key's code above its
/// position, built one column at a time. `bits` gives each column's code
/// width; `code_bits + pos_bits` is at most 64, and a zero-width column
/// contributes nothing (so no shift reaches 64).
fn pack_u64(
    cols: &[&[i64]],
    order: KeyOrder,
    lo: &KeyBuf,
    bits: &[u32; MAX_KEY_WIDTH],
    pos_bits: u32,
) -> Vec<u64> {
    /// `words[p] |= f(col[p])`, a loop the compiler can vectorize.
    fn or_each(words: &mut [u64], col: &[i64], f: impl Fn(i64) -> u64) {
        for (x, &k) in words.iter_mut().zip(col) {
            *x |= f(k);
        }
    }
    let mut words: Vec<u64> = (0..cols[0].len() as u64).collect();
    match order {
        KeyOrder::Lexicographic => {
            // The last column is the least significant.
            let mut shift = pos_bits;
            for (d, col) in cols.iter().enumerate().rev().filter(|&(d, _)| bits[d] > 0) {
                let base = lo[d];
                or_each(&mut words, col, |k| (k.wrapping_sub(base) as u64) << shift);
                shift += bits[d];
            }
        }
        KeyOrder::Morton if bits[0] > 0 => {
            // Dimension `d` takes bit `b * w + d` of the code for its bit `b`.
            for (d, col) in cols.iter().enumerate() {
                let s = pos_bits + d as u32;
                match cols.len() {
                    1 => or_each(&mut words, col, |k| (k as u64) << s),
                    2 => or_each(&mut words, col, |k| spread2(k as u64) << s),
                    3 => or_each(&mut words, col, |k| spread3(k as u64) << s),
                    _ => or_each(&mut words, col, |k| spread4(k as u64) << s),
                }
            }
        }
        KeyOrder::Morton => {}
    }
    words
}

/// Bit `i` of `x` (below 2^32) moved to bit `2i`.
#[inline(always)]
fn spread2(mut x: u64) -> u64 {
    x = (x | x << 16) & 0x0000_ffff_0000_ffff;
    x = (x | x << 8) & 0x00ff_00ff_00ff_00ff;
    x = (x | x << 4) & 0x0f0f_0f0f_0f0f_0f0f;
    x = (x | x << 2) & 0x3333_3333_3333_3333;
    (x | x << 1) & 0x5555_5555_5555_5555
}

/// Bit `i` of `x` (below 2^21) moved to bit `3i`.
#[inline(always)]
fn spread3(mut x: u64) -> u64 {
    x = (x | x << 32) & 0x001f_0000_0000_ffff;
    x = (x | x << 16) & 0x001f_0000_ff00_00ff;
    x = (x | x << 8) & 0x100f_00f0_0f00_f00f;
    x = (x | x << 4) & 0x10c3_0c30_c30c_30c3;
    (x | x << 2) & 0x1249_2492_4924_9249
}

/// Bit `i` of `x` (below 2^16) moved to bit `4i`.
#[inline(always)]
fn spread4(mut x: u64) -> u64 {
    x = (x | x << 24) & 0x0000_00ff_0000_00ff;
    x = (x | x << 12) & 0x000f_000f_000f_000f;
    x = (x | x << 6) & 0x0303_0303_0303_0303;
    (x | x << 3) & 0x1111_1111_1111_1111
}

/// Sorts `words` stably by their bits `lo..lo + bits` (`bits >= 1`,
/// `lo + bits <= 64`): a least-significant-digit radix sort. Digits are
/// at most `log2(n)` bits (and at most 11), so a pass's histogram never
/// outgrows the input, and the code's bits are split evenly among the
/// passes. One read pass counts every digit; a digit that all words share
/// costs no pass. The scratch buffer is as long as `words`.
fn radix_sort(words: &mut Vec<u64>, lo: u32, bits: u32) {
    let n = words.len();
    let widest = n.ilog2().clamp(1, 11);
    let digit = bits.div_ceil(bits.div_ceil(widest));
    let (buckets, mask) = (1usize << digit, (1u64 << digit) - 1);
    let shifts: Vec<u32> = (lo..lo + bits).step_by(digit as usize).collect();
    let mut counts = vec![0usize; shifts.len() * buckets];
    for &x in words.iter() {
        for (c, &s) in counts.chunks_exact_mut(buckets).zip(&shifts) {
            c[(x >> s & mask) as usize] += 1;
        }
    }
    let mut scratch = vec![0u64; n];
    for (c, &s) in counts.chunks_exact_mut(buckets).zip(&shifts) {
        if c[(words[0] >> s & mask) as usize] == n {
            continue;
        }
        let mut start = 0;
        for c in c.iter_mut() {
            (*c, start) = (start, start + *c);
        }
        for &x in words.iter() {
            let b = &mut c[(x >> s & mask) as usize];
            scratch[*b] = x;
            *b += 1;
        }
        std::mem::swap(words, &mut scratch);
    }
}

/// An unsigned word holding a key code above a `pos_bits`-bit position.
trait PackedWord: Copy + Eq {
    /// The code and the position packed into `self`.
    fn split(self, pos_bits: u32) -> (Self, usize);
}

impl PackedWord for u64 {
    #[inline(always)]
    fn split(self, pos_bits: u32) -> (Self, usize) {
        (self >> pos_bits, (self & ((1 << pos_bits) - 1)) as usize)
    }
}

impl PackedWord for u128 {
    #[inline(always)]
    fn split(self, pos_bits: u32) -> (Self, usize) {
        (self >> pos_bits, (self & ((1 << pos_bits) - 1)) as usize)
    }
}

/// Visits the positions of sorted packed words, flagging each whose code
/// differs from the previous one's.
fn visit_packed<K: PackedWord>(words: &[K], pos_bits: u32, visit: &mut impl FnMut(usize, bool)) {
    let mut prev = None;
    for &k in words {
        let (c, p) = k.split(pos_bits);
        visit(p, prev != Some(c));
        prev = Some(c);
    }
}

/// The fallback of [`sort_keys`]: a comparator sort of the positions.
fn comparator_sort(
    n: usize,
    w: usize,
    tuple: impl Fn(usize) -> KeyBuf,
    cmp: impl Fn(&[i64], &[i64]) -> Ordering,
    visit: &mut impl FnMut(usize, bool),
) {
    let mut perm: Vec<usize> = (0..n).collect();
    perm.sort_unstable_by(|&a, &b| cmp(&tuple(a)[..w], &tuple(b)[..w]).then(a.cmp(&b)));
    let mut prev = None;
    for p in perm {
        let t = tuple(p);
        visit(p, prev != Some(t));
        prev = Some(t);
    }
}

/// A shared user-defined comparison function over integer key tuples.
pub type CmpFn = Arc<dyn Fn(&[i64], &[i64]) -> Ordering + Send + Sync>;

/// Comparison semantics of an [`OrderedList`].
#[derive(Clone)]
pub enum ListOrder {
    /// Keep insertion order (no reordering quantifier on the destination).
    Insertion,
    /// Lexicographic over the key tuple.
    Lexicographic,
    /// Morton / Z-order over the key tuple.
    Morton,
    /// User-defined comparison function (the paper requires full
    /// definitions for functions appearing only in universal quantifiers).
    Custom(CmpFn),
}

impl fmt::Debug for ListOrder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ListOrder::Insertion => write!(f, "Insertion"),
            ListOrder::Lexicographic => write!(f, "Lexicographic"),
            ListOrder::Morton => write!(f, "Morton"),
            ListOrder::Custom(_) => write!(f, "Custom(..)"),
        }
    }
}

/// Errors raised by [`OrderedList`] operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ListError {
    /// Key width differs from the declared width.
    WidthMismatch {
        /// Declared width.
        expect: usize,
        /// Provided width.
        got: usize,
    },
    /// `rank`/`key_col` called before `finalize`.
    NotFinalized,
    /// `insert` called after `finalize`.
    AlreadyFinalized,
    /// `rank` key was never inserted.
    UnknownKey(Vec<i64>),
    /// Column index out of range in `key_col`.
    BadColumn(usize),
}

impl fmt::Display for ListError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ListError::WidthMismatch { expect, got } => {
                write!(f, "key width mismatch: expected {expect}, got {got}")
            }
            ListError::NotFinalized => write!(f, "ordered list not finalized"),
            ListError::AlreadyFinalized => write!(f, "ordered list already finalized"),
            ListError::UnknownKey(k) => write!(f, "key {k:?} not present"),
            ListError::BadColumn(c) => write!(f, "key column {c} out of range"),
        }
    }
}

impl std::error::Error for ListError {}

/// The permutation abstraction: an insert-then-sort list of integer keys
/// with rank retrieval.
#[derive(Debug, Clone)]
pub struct OrderedList {
    width: usize,
    unique: bool,
    order: ListOrder,
    /// Keys in insertion order, one column per key dimension (the first
    /// `width` are used).
    cols: [Vec<i64>; MAX_KEY_WIDTH],
    finalized: bool,
    /// After finalize: the insertion position holding each rank's key.
    sorted: Vec<usize>,
    /// After finalize: the rank of the key at each insertion position.
    pos_rank: Vec<i64>,
    /// The insertion position `rank_next` checks first.
    cursor: usize,
    /// Key → rank, built on the first query not answered by position.
    index: OnceLock<RankIndex>,
}

impl OrderedList {
    /// Creates a list of `width`-column keys ordered by `order`. With
    /// `unique`, duplicate keys collapse at finalize (used to build DIA's
    /// `off` array, where many nonzeros share one diagonal).
    ///
    /// # Panics
    /// Panics when `width` is zero or exceeds [`MAX_KEY_WIDTH`].
    pub fn new(width: usize, order: ListOrder, unique: bool) -> Self {
        assert!(
            (1..=MAX_KEY_WIDTH).contains(&width),
            "key width must be in 1..={MAX_KEY_WIDTH}"
        );
        OrderedList {
            width,
            unique,
            order,
            cols: Default::default(),
            finalized: false,
            sorted: Vec::new(),
            pos_rank: Vec::new(),
            cursor: 0,
            index: OnceLock::new(),
        }
    }

    /// Declared key width.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Inserts a key in source order.
    ///
    /// # Errors
    /// Fails when the width differs from the declaration or the list is
    /// already finalized.
    pub fn insert(&mut self, key: &[i64]) -> Result<(), ListError> {
        for (col, &k) in self.key_columns(key.len())?.iter_mut().zip(key) {
            col.push(k);
        }
        Ok(())
    }

    /// The key columns, for a caller about to append keys of `width`
    /// columns, one to each: the checks of [`OrderedList::insert`], made
    /// once for any number of keys.
    ///
    /// # Errors
    /// Same as [`OrderedList::insert`].
    pub(crate) fn key_columns(&mut self, width: usize) -> Result<&mut [Vec<i64>], ListError> {
        if self.finalized {
            return Err(ListError::AlreadyFinalized);
        }
        if width != self.width {
            return Err(ListError::WidthMismatch { expect: self.width, got: width });
        }
        Ok(&mut self.cols[..width])
    }

    /// The key columns, as slices; the first `width` hold the keys.
    fn columns(&self) -> [&[i64]; MAX_KEY_WIDTH] {
        std::array::from_fn(|d| self.cols[d].as_slice())
    }

    /// The key inserted at position `p`.
    fn key_at(&self, p: usize) -> KeyBuf {
        let mut buf = [i64::MIN; MAX_KEY_WIDTH];
        for (slot, col) in buf.iter_mut().zip(&self.cols[..self.width]) {
            *slot = col[p];
        }
        buf
    }

    /// Sorts the keys by the declared comparator (insertion order breaks
    /// ties), optionally deduplicates, and records the rank of every
    /// insertion position. Duplicate keys all take the rank of their first
    /// occurrence in sorted order. Idempotent once called.
    ///
    /// Lexicographic and Morton lists sort packed keys (`sort_keys`) and
    /// find duplicates as equal neighbours. Insertion-order lists need no
    /// ordering sort (a key's rank is its first insertion position) and
    /// find duplicates with the same lexicographic sort. Custom comparators
    /// run a stable comparator sort and find duplicates with the rank
    /// index, which they therefore build eagerly.
    pub fn finalize(&mut self) {
        if self.finalized {
            return;
        }
        let (w, n, unique) = (self.width, self.len(), self.unique);
        let cols = self.columns();
        let cols = &cols[..w];
        let mut sorted = Vec::with_capacity(n);
        let mut pos_rank = vec![0i64; n];
        match &self.order {
            ListOrder::Lexicographic | ListOrder::Morton => {
                let order = match self.order {
                    ListOrder::Morton => KeyOrder::Morton,
                    _ => KeyOrder::Lexicographic,
                };
                let mut run_rank = 0;
                sort_keys(cols, order, |p, new_key| {
                    if new_key {
                        run_rank = sorted.len() as i64;
                    }
                    if new_key || !unique {
                        sorted.push(p);
                    }
                    pos_rank[p] = run_rank;
                });
            }
            ListOrder::Insertion => {
                // First pass: each position's first occurrence, which is the
                // first of its run because ties break by position.
                let mut first = 0;
                sort_keys(cols, KeyOrder::Lexicographic, |p, new_key| {
                    if new_key {
                        first = p;
                    }
                    pos_rank[p] = first as i64;
                });
                if unique {
                    // Compact: a first occurrence's rank counts the first
                    // occurrences before it; a repeat's first occurrence
                    // lies earlier and is already renumbered.
                    for p in 0..n {
                        let f = pos_rank[p] as usize;
                        if f == p {
                            pos_rank[p] = sorted.len() as i64;
                            sorted.push(p);
                        } else {
                            pos_rank[p] = pos_rank[f];
                        }
                    }
                } else {
                    sorted.extend(0..n);
                }
            }
            ListOrder::Custom(cmp) => {
                let mut idx: Vec<usize> = (0..n).collect();
                idx.sort_by(|&a, &b| cmp(&self.key_at(a)[..w], &self.key_at(b)[..w]));
                let mut index = RankIndex::with_capacity_and_hasher(n, FxBuild::default());
                for (i, &p) in idx.iter().enumerate() {
                    let next = if unique { sorted.len() } else { i } as i64;
                    let entry = index.entry(self.key_at(p));
                    if matches!(entry, Entry::Vacant(_)) || !unique {
                        sorted.push(p);
                    }
                    pos_rank[p] = *entry.or_insert(next);
                }
                self.index = OnceLock::from(index);
            }
        }
        self.sorted = sorted;
        self.pos_rank = pos_rank;
        self.finalized = true;
    }

    /// Number of (unique) keys; before finalize, the raw insertion count.
    pub fn len(&self) -> usize {
        if self.finalized {
            self.sorted.len()
        } else {
            self.cols[0].len()
        }
    }

    /// Returns `true` when no keys are present.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Retrieves the re-ordered position of `key` — the permutation
    /// `P(key)` — from the rank index, which the first such query builds.
    ///
    /// # Errors
    /// Fails before finalize or for unknown keys.
    pub fn rank(&self, key: &[i64]) -> Result<i64, ListError> {
        self.rank_check(key.len())?;
        let index = self.index.get_or_init(|| {
            let mut index = RankIndex::with_capacity_and_hasher(self.len(), FxBuild::default());
            for (p, &r) in self.pos_rank.iter().enumerate() {
                index.entry(self.key_at(p)).or_insert(r);
            }
            index
        });
        index.get(&key_buf(key)).copied().ok_or_else(|| ListError::UnknownKey(key.to_vec()))
    }

    /// The checks every rank query of `width` columns makes first, in
    /// [`OrderedList::rank`]'s order; a caller ranking many keys of one
    /// width makes them once.
    ///
    /// # Errors
    /// [`ListError::NotFinalized`], then [`ListError::WidthMismatch`].
    pub(crate) fn rank_check(&self, width: usize) -> Result<(), ListError> {
        if !self.finalized {
            return Err(ListError::NotFinalized);
        }
        if width != self.width {
            return Err(ListError::WidthMismatch { expect: self.width, got: width });
        }
        Ok(())
    }

    /// [`OrderedList::rank`] for a caller that queries the keys it
    /// inserted, in insertion order, after [`OrderedList::rank_check`]
    /// passed for the list's width; column `d` of the key is `key(d)`.
    /// When the key equals, in place, the key inserted at the cursor,
    /// returns that position's rank and advances the cursor (wrapping to
    /// the first position after the last), without touching the rank
    /// index. Any other query falls back to [`OrderedList::rank`]. The
    /// result is the same either way.
    ///
    /// # Errors
    /// [`ListError::UnknownKey`] for a key never inserted.
    #[inline]
    pub(crate) fn rank_next(&mut self, key: impl Fn(usize) -> i64) -> Result<i64, ListError> {
        let p = self.cursor;
        let n = self.pos_rank.len();
        if p < n && self.cols[..self.width].iter().enumerate().all(|(d, c)| c[p] == key(d)) {
            self.cursor = if p + 1 == n { 0 } else { p + 1 };
            return Ok(self.pos_rank[p]);
        }
        let mut buf = [0; MAX_KEY_WIDTH];
        for (d, slot) in buf[..self.width].iter_mut().enumerate() {
            *slot = key(d);
        }
        self.rank(&buf[..self.width])
    }

    /// The ranks of `keys.len()` consecutive cursor queries at once, when
    /// the keys are exactly the ones inserted at the cursor onwards
    /// (`keys[d]` is column `d`, after [`OrderedList::rank_check`] passed):
    /// writes them to `out`, advances the cursor past them, and returns
    /// `true`. Otherwise changes nothing and returns `false`; the caller
    /// then asks one key at a time.
    pub(crate) fn rank_run(&mut self, keys: &[&[i64]], out: &mut [i64]) -> bool {
        let (p, m, n) = (self.cursor, out.len(), self.pos_rank.len());
        let Some(ranks) = self.pos_rank.get(p..p + m) else { return false };
        if !keys.iter().zip(&self.cols).all(|(k, c)| k[..m] == c[p..p + m]) {
            return false;
        }
        out.copy_from_slice(ranks);
        self.cursor = if p + m == n { 0 } else { p + m };
        true
    }

    /// Value of key column `dim` at sorted position `pos`.
    ///
    /// # Errors
    /// Fails before finalize or for a column out of range.
    pub fn key_col(&self, pos: usize, dim: usize) -> Result<i64, ListError> {
        if !self.finalized {
            return Err(ListError::NotFinalized);
        }
        if dim >= self.width {
            return Err(ListError::BadColumn(dim));
        }
        Ok(self.cols[dim][self.sorted[pos]])
    }
}

/// The runtime environment a generated inspector executes against:
/// symbolic constants, integer index arrays (the uninterpreted functions),
/// f64 data spaces, and ordered lists.
///
/// Index and data arrays are [`Cow`] slices so containers bind without
/// copying: the source matrix's arrays enter as `Cow::Borrowed` in O(1),
/// and the interpreter clones an array only on its first write
/// (copy-on-write). Arrays the inspector allocates itself are
/// `Cow::Owned`, so extracting a freshly produced output is an O(1) move
/// (see [`RtEnv::take_uf`]) rather than a full clone.
#[derive(Debug, Default)]
pub struct RtEnv<'a> {
    /// Symbolic constants such as `NR`, `NC`, `NNZ`; inspectors may add
    /// more (e.g. `ND`) during execution.
    pub syms: BTreeMap<String, i64>,
    /// Index arrays keyed by UF name.
    pub ufs: BTreeMap<String, Cow<'a, [i64]>>,
    /// Data arrays keyed by data-space name.
    pub data: BTreeMap<String, Cow<'a, [f64]>>,
    /// Ordered lists keyed by name; must be declared (inserted here)
    /// before executing programs that reference them.
    pub lists: BTreeMap<String, OrderedList>,
    /// The most bytes a run may allocate for the index and data arrays
    /// its program allocates (`None` = unlimited); an allocation past it
    /// fails with `ExecError::OverBudget`. Bound arrays and ordered lists
    /// are not counted.
    pub budget: Option<u64>,
}

impl<'a> RtEnv<'a> {
    /// Creates an empty environment.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets a symbolic constant (builder style).
    pub fn with_sym(mut self, name: impl Into<String>, v: i64) -> Self {
        self.syms.insert(name.into(), v);
        self
    }

    /// Binds an index array (builder style); accepts an owned `Vec` or a
    /// borrowed slice (zero-copy).
    pub fn with_uf(mut self, name: impl Into<String>, v: impl Into<Cow<'a, [i64]>>) -> Self {
        self.ufs.insert(name.into(), v.into());
        self
    }

    /// Binds a data array (builder style); accepts an owned `Vec` or a
    /// borrowed slice (zero-copy).
    pub fn with_data(mut self, name: impl Into<String>, v: impl Into<Cow<'a, [f64]>>) -> Self {
        self.data.insert(name.into(), v.into());
        self
    }

    /// Declares an ordered list (builder style).
    pub fn with_list(mut self, name: impl Into<String>, l: OrderedList) -> Self {
        self.lists.insert(name.into(), l);
        self
    }

    /// Removes an index array and returns it owned — O(1) for arrays the
    /// inspector produced (`Cow::Owned`), a clone only for arrays still
    /// borrowed from the caller.
    pub fn take_uf(&mut self, name: &str) -> Option<Vec<i64>> {
        self.ufs.remove(name).map(Cow::into_owned)
    }

    /// Removes a data array and returns it owned; same cost profile as
    /// [`RtEnv::take_uf`].
    pub fn take_data(&mut self, name: &str) -> Option<Vec<f64>> {
        self.data.remove(name).map(Cow::into_owned)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A cursor query, as the interpreter makes it.
    fn cursor_rank(l: &mut OrderedList, key: &[i64]) -> Result<i64, ListError> {
        l.rank_check(key.len())?;
        l.rank_next(|d| key[d])
    }

    #[test]
    fn insertion_order_list_keeps_order() {
        let mut l = OrderedList::new(2, ListOrder::Insertion, false);
        l.insert(&[5, 1]).unwrap();
        l.insert(&[2, 9]).unwrap();
        l.finalize();
        assert_eq!(l.rank(&[5, 1]).unwrap(), 0);
        assert_eq!(l.rank(&[2, 9]).unwrap(), 1);
    }

    #[test]
    fn lexicographic_sort_and_rank() {
        let mut l = OrderedList::new(2, ListOrder::Lexicographic, false);
        for k in [[2i64, 3], [0, 1], [2, 0], [1, 7]] {
            l.insert(&k).unwrap();
        }
        l.finalize();
        assert_eq!(l.rank(&[0, 1]).unwrap(), 0);
        assert_eq!(l.rank(&[1, 7]).unwrap(), 1);
        assert_eq!(l.rank(&[2, 0]).unwrap(), 2);
        assert_eq!(l.rank(&[2, 3]).unwrap(), 3);
        assert_eq!(l.len(), 4);
    }

    #[test]
    fn unique_list_dedups_like_dia_offsets() {
        let mut l = OrderedList::new(1, ListOrder::Lexicographic, true);
        for k in [3i64, -1, 3, 0, -1, 3] {
            l.insert(&[k]).unwrap();
        }
        l.finalize();
        assert_eq!(l.len(), 3);
        assert_eq!(l.key_col(0, 0).unwrap(), -1);
        assert_eq!(l.key_col(1, 0).unwrap(), 0);
        assert_eq!(l.key_col(2, 0).unwrap(), 3);
        assert_eq!(l.rank(&[-1]).unwrap(), 0);
        assert_eq!(l.rank(&[3]).unwrap(), 2);
    }

    #[test]
    fn morton_list_orders_by_z_curve() {
        let mut l = OrderedList::new(2, ListOrder::Morton, false);
        // Z-order on 2x2: (0,0) (1,0) (0,1) (1,1).
        for k in [[1i64, 1], [0, 1], [1, 0], [0, 0]] {
            l.insert(&k).unwrap();
        }
        l.finalize();
        assert_eq!(l.rank(&[0, 0]).unwrap(), 0);
        assert_eq!(l.rank(&[1, 0]).unwrap(), 1);
        assert_eq!(l.rank(&[0, 1]).unwrap(), 2);
        assert_eq!(l.rank(&[1, 1]).unwrap(), 3);
    }

    #[test]
    fn custom_comparator() {
        // Reverse lexicographic.
        let cmp: CmpFn = Arc::new(|a, b| b.cmp(a));
        let mut l = OrderedList::new(1, ListOrder::Custom(cmp), false);
        for k in [1i64, 3, 2] {
            l.insert(&[k]).unwrap();
        }
        l.finalize();
        assert_eq!(l.rank(&[3]).unwrap(), 0);
        assert_eq!(l.rank(&[1]).unwrap(), 2);
    }

    #[test]
    fn errors_are_reported() {
        let mut l = OrderedList::new(2, ListOrder::Lexicographic, false);
        assert_eq!(
            l.insert(&[1]),
            Err(ListError::WidthMismatch { expect: 2, got: 1 })
        );
        assert_eq!(l.rank(&[1, 2]), Err(ListError::NotFinalized));
        l.insert(&[1, 2]).unwrap();
        l.finalize();
        assert_eq!(l.insert(&[3, 4]), Err(ListError::AlreadyFinalized));
        assert_eq!(l.rank(&[9, 9]), Err(ListError::UnknownKey(vec![9, 9])));
        assert_eq!(l.key_col(0, 5), Err(ListError::BadColumn(5)));
    }

    #[test]
    fn in_order_queries_never_build_the_index() {
        let keys = [[3i64, 1], [0, 2], [3, 1], [-4, 9], [0, 0]];
        let mut l = OrderedList::new(2, ListOrder::Lexicographic, false);
        for k in &keys {
            l.insert(k).unwrap();
        }
        l.finalize();
        for _ in 0..2 {
            let ranks: Vec<i64> = keys.iter().map(|k| cursor_rank(&mut l, k).unwrap()).collect();
            assert_eq!(ranks, vec![3, 2, 3, 0, 1]);
        }
        assert!(l.index.get().is_none());
        // Out of order: the cursor expects keys[0], so the index is built.
        assert_eq!(cursor_rank(&mut l, &keys[1]), Ok(2));
        assert!(l.index.get().is_some());
    }

    #[test]
    fn sort_keys_packs_negative_and_wide_keys() {
        let cols: [&[i64]; 2] = [&[5, -7, 5, i64::MIN, -7], &[0, 3, -1, i64::MAX, 3]];
        let mut seen = Vec::new();
        sort_keys(&cols, KeyOrder::Lexicographic, |p, new| seen.push((p, new)));
        assert_eq!(seen, vec![(3, true), (1, true), (4, false), (2, true), (0, true)]);
    }

    /// `sort_keys`'s visits, and the comparator sort's (ties by position),
    /// over the same key columns.
    fn visits_and_reference(cols: &[Vec<i64>], order: KeyOrder) -> [Vec<(usize, bool)>; 2] {
        let cols: Vec<&[i64]> = cols.iter().map(Vec::as_slice).collect();
        let (mut got, mut want) = (Vec::new(), Vec::new());
        sort_keys(&cols, order, |p, new| got.push((p, new)));
        let tuple = |p: usize| {
            let mut t = [0; MAX_KEY_WIDTH];
            for (slot, col) in t.iter_mut().zip(&cols) {
                *slot = col[p];
            }
            t
        };
        let cmp: fn(&[i64], &[i64]) -> Ordering = match order {
            KeyOrder::Lexicographic => <[i64]>::cmp,
            KeyOrder::Morton => morton_cmp,
        };
        comparator_sort(cols[0].len(), cols.len(), tuple, cmp, &mut |p, new| want.push((p, new)));
        [got, want]
    }

    /// `n` rows of `w` columns, drawn from `0..span` (shifted to straddle
    /// zero for lexicographic keys), then left as drawn, sorted, reversed
    /// or made all equal.
    fn shaped_keys(w: usize, n: usize, span: i64, shape: usize, order: KeyOrder) -> Vec<Vec<i64>> {
        let mut x = (w * 7919 + n) as u64 | 1;
        let shift = if order == KeyOrder::Lexicographic { span / 2 } else { 0 };
        let mut rows: Vec<Vec<i64>> = (0..n)
            .map(|_| {
                (0..w)
                    .map(|_| {
                        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                        ((x >> 33) as i64).rem_euclid(span) - shift
                    })
                    .collect()
            })
            .collect();
        match shape {
            0 => {}
            1 | 2 => {
                match order {
                    KeyOrder::Lexicographic => rows.sort(),
                    KeyOrder::Morton => rows.sort_by(|a, b| morton_cmp(a, b)),
                }
                if shape == 2 {
                    rows.reverse();
                }
            }
            _ => {
                let first = rows[0].clone();
                rows.iter_mut().for_each(|r| r.clone_from(&first));
            }
        }
        (0..w).map(|d| rows.iter().map(|r| r[d]).collect()).collect()
    }

    /// The packed code and radix sort against the comparator sort: every
    /// width, both orders, `n` on both sides of the digit-width (`2^k`)
    /// and position-bit (`2^k + 1`) boundaries, and drawn, sorted,
    /// reversed and all-equal keys with many, some and few repeats.
    #[test]
    fn sort_keys_matches_the_comparator_sort() {
        for w in 1..=MAX_KEY_WIDTH {
            for n in [1, 2, 3, 4, 5, 255, 256, 257, 1024, 1025, 2048, 2049, 4097] {
                for order in [KeyOrder::Lexicographic, KeyOrder::Morton] {
                    for span in [1, 5, 1000, 1 << 40] {
                        for shape in 0..4 {
                            let cols = shaped_keys(w, n, span, shape, order);
                            let [got, want] = visits_and_reference(&cols, order);
                            let case = format!("w {w}, n {n}, {order:?}, span {span}");
                            assert_eq!(got, want, "{case}, shape {shape}");
                        }
                    }
                }
            }
        }
    }

    /// Keys whose packed words need exactly 64 bits take the `u64` path and
    /// one bit more the `u128` path; extreme keys the comparator sort.
    /// Each column's range is pinned by planting its ends.
    #[test]
    fn sort_keys_at_the_word_boundaries() {
        // (width, order, bits per column, n): `n = 1024` packs positions in
        // 10 bits and `n = 2048` in 11.
        let cases = [
            (2, KeyOrder::Lexicographic, 27, 1024),
            (2, KeyOrder::Lexicographic, 27, 2048),
            (1, KeyOrder::Lexicographic, 54, 1024),
            (1, KeyOrder::Lexicographic, 54, 2048),
            (4, KeyOrder::Lexicographic, 13, 4096),
            (4, KeyOrder::Lexicographic, 13, 4097),
            (2, KeyOrder::Morton, 27, 1024),
            (2, KeyOrder::Morton, 27, 2048),
            (3, KeyOrder::Morton, 18, 1024),
            (3, KeyOrder::Morton, 18, 2048),
            (4, KeyOrder::Morton, 13, 4096),
            (4, KeyOrder::Morton, 13, 4097),
        ];
        for (w, order, bits, n) in cases {
            let mut cols = shaped_keys(w, n, 1 << bits, 0, order);
            for col in &mut cols {
                let base = col.iter().min().copied().unwrap_or(0).min(0);
                col[0] = base;
                col[n - 1] = base + (1 << bits) - 1;
            }
            let [got, want] = visits_and_reference(&cols, order);
            assert_eq!(got, want, "w {w}, {order:?}, {bits} bits, n {n}");
        }
        // Negative and extreme lexicographic keys, and Morton coordinates
        // up to `i64::MAX`.
        let extremes = [i64::MIN, -1, 0, 1, i64::MAX];
        for w in 1..=MAX_KEY_WIDTH {
            let lex: Vec<Vec<i64>> =
                (0..w).map(|d| (0..257).map(|p| extremes[(p * (d + 2)) % 5]).collect()).collect();
            let [got, want] = visits_and_reference(&lex, KeyOrder::Lexicographic);
            assert_eq!(got, want, "lexicographic, w {w}");
            let z: Vec<Vec<i64>> =
                lex.iter().map(|c| c.iter().map(|&k| k.max(0)).collect()).collect();
            let [got, want] = visits_and_reference(&z, KeyOrder::Morton);
            assert_eq!(got, want, "Morton, w {w}");
        }
    }

    type Model = (Vec<Vec<i64>>, HashMap<Vec<i64>, i64>);

    /// The semantics `OrderedList` must keep, restated as directly as
    /// possible: a stable comparator sort, then ranks from a
    /// first-occurrence hash map (`unique` skips repeated keys). Returns
    /// the sorted keys and the rank of each key.
    fn model(keys: &[Vec<i64>], order: &ListOrder, unique: bool) -> Model {
        let mut idx: Vec<usize> = (0..keys.len()).collect();
        match order {
            ListOrder::Insertion => {}
            ListOrder::Lexicographic => idx.sort_by(|&a, &b| keys[a].cmp(&keys[b])),
            ListOrder::Morton => idx.sort_by(|&a, &b| morton_cmp(&keys[a], &keys[b])),
            ListOrder::Custom(f) => idx.sort_by(|&a, &b| f(&keys[a], &keys[b])),
        }
        let mut sorted = Vec::new();
        let mut ranks = HashMap::new();
        for &p in &idx {
            let k = &keys[p];
            if !unique || !ranks.contains_key(k) {
                ranks.entry(k.clone()).or_insert(sorted.len() as i64);
                sorted.push(k.clone());
            }
        }
        (sorted, ranks)
    }

    /// Maps raw draws to keys: `scale` 0 gives many duplicates, 1 a
    /// moderate range, 2 extremes that force the `u128` and comparator
    /// paths. Morton keys stay non-negative.
    fn key_value(x: u64, scale: usize, morton: bool) -> i64 {
        match (scale, morton) {
            (0, false) => (x % 7) as i64 - 3,
            (0, true) => (x % 4) as i64,
            (1, false) => (x % 2001) as i64 - 1000,
            (1, true) => (x % 5000) as i64,
            (_, false) => [i64::MIN, -1, 0, 1, i64::MAX][(x % 5) as usize],
            (_, true) => [0, 1, 1 << 40, i64::MAX][(x % 4) as usize],
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(400))]
        #[test]
        fn ordered_list_matches_stable_sort_and_first_occurrence_map(
            w in 1usize..=4,
            which in 0usize..4,
            unique in proptest::prelude::any::<bool>(),
            scale in 0usize..3,
            raw in proptest::collection::vec(proptest::prelude::any::<u64>(), 0..120),
        ) {
            let order = match which {
                0 => ListOrder::Insertion,
                1 => ListOrder::Lexicographic,
                2 => ListOrder::Morton,
                // Ties between different keys, so equal keys need not be
                // neighbours after the sort.
                _ => ListOrder::Custom(Arc::new(|a: &[i64], b: &[i64]| {
                    b[a.len() - 1].cmp(&a[a.len() - 1])
                })),
            };
            let morton = which == 2;
            let keys: Vec<Vec<i64>> = raw
                .chunks_exact(w)
                .map(|c| c.iter().map(|&x| key_value(x, scale, morton)).collect())
                .collect();
            let (want_sorted, want_rank) = model(&keys, &order, unique);

            let mut l = OrderedList::new(w, order, unique);
            for k in &keys {
                l.insert(k).unwrap();
            }
            l.finalize();
            proptest::prop_assert_eq!(l.len(), want_sorted.len());
            for (pos, k) in want_sorted.iter().enumerate() {
                let got: Vec<i64> = (0..w).map(|d| l.key_col(pos, d).unwrap()).collect();
                proptest::prop_assert_eq!(&got, k);
            }

            let want: Vec<i64> = keys.iter().map(|k| want_rank[k]).collect();
            let mut forward = l.clone();
            for pass in 0..2 {
                let got: Vec<i64> =
                    keys.iter().map(|k| cursor_rank(&mut forward, k).unwrap()).collect();
                proptest::prop_assert_eq!(&got, &want, "pass {}", pass);
            }
            let mut reversed = l.clone();
            for (k, r) in keys.iter().zip(&want).rev() {
                proptest::prop_assert_eq!(cursor_rank(&mut reversed, k), Ok(*r));
            }
            for (k, r) in keys.iter().zip(&want) {
                proptest::prop_assert_eq!(l.rank(k), Ok(*r));
            }

            let unknown: Vec<i64> = (0..w as i64).map(|d| 7 + d).collect();
            if !want_rank.contains_key(&unknown) {
                let err = Err(ListError::UnknownKey(unknown.clone()));
                proptest::prop_assert_eq!(l.rank(&unknown), err.clone());
                proptest::prop_assert_eq!(cursor_rank(&mut forward, &unknown), err);
            }
        }
    }

    #[test]
    fn env_builders() {
        let env = RtEnv::new()
            .with_sym("NNZ", 4)
            .with_uf("row1", vec![0, 0, 1, 1])
            .with_data("A", vec![1.0, 2.0, 3.0, 4.0])
            .with_list("P", OrderedList::new(2, ListOrder::Lexicographic, false));
        assert_eq!(env.syms["NNZ"], 4);
        assert_eq!(env.ufs["row1"].len(), 4);
        assert_eq!(env.data["A"].len(), 4);
        assert!(env.lists.contains_key("P"));
    }
}
