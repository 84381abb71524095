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
//! The paper notes that rank retrieval "incurs overhead". Here `finalize`
//! sorts each key once as a packed integer (`sort_keys`) and records the
//! rank of every insertion position. Synthesized inspectors query `P` with
//! the keys they inserted, in the order they inserted them, so the
//! interpreter answers from that array by position; only other queries
//! build a hash index.

use std::borrow::Cow;
use std::cmp::Ordering;
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::{Arc, OnceLock};

use crate::morton::{bits_for_extent, morton_cmp, morton_encode};

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

/// Visits positions `0..n` in the order of their `w`-column keys (`key(p,
/// d)` is column `d` of position `p`), breaking ties by position — the
/// order a stable sort gives. `visit(p, new_key)` is called once per
/// position, in that order; `new_key` is `false` exactly when `p`'s key
/// equals the previously visited one.
///
/// Each key is encoded once as an integer whose order is the key order:
/// lexicographic columns as offsets from the column minimum (so negative
/// keys work), concatenated; Morton keys as their interleaved code. The
/// position goes in the low bits and the packed words are sorted with
/// `sort_unstable`, as `u64` when they fit and `u128` otherwise. Keys too
/// wide for 128 bits fall back to a comparator sort with the same
/// tie-break. Equal keys get equal codes, so duplicates are neighbours.
/// Lexicographic keys already in order skip the sort.
///
/// # Panics
/// Panics when `w` is not in `1..=MAX_KEY_WIDTH`, and on negative Morton
/// coordinates.
pub(crate) fn sort_keys(
    n: usize,
    w: usize,
    order: KeyOrder,
    key: impl Fn(usize, usize) -> i64,
    mut visit: impl FnMut(usize, bool),
) {
    assert!((1..=MAX_KEY_WIDTH).contains(&w), "key width must be in 1..={MAX_KEY_WIDTH}");
    if n == 0 {
        return;
    }
    let pos_bits = u64::BITS - (n as u64 - 1).leading_zeros();
    let tuple = |p: usize| -> KeyBuf {
        let mut t = [0; MAX_KEY_WIDTH];
        for (d, slot) in t[..w].iter_mut().enumerate() {
            *slot = key(p, d);
        }
        t
    };
    match order {
        KeyOrder::Lexicographic => {
            // Keys that arrive in order (row-major sources, ELL slots) need
            // no sort.
            if (1..n).all(|p| tuple(p - 1) <= tuple(p)) {
                return visit_runs(0..n, tuple, &mut visit);
            }
            let (mut lo, mut hi) = ([i64::MAX; MAX_KEY_WIDTH], [i64::MIN; MAX_KEY_WIDTH]);
            for p in 0..n {
                for d in 0..w {
                    let k = key(p, d);
                    lo[d] = lo[d].min(k);
                    hi[d] = hi[d].max(k);
                }
            }
            let mut bits = [0u32; MAX_KEY_WIDTH];
            for d in 0..w {
                bits[d] = u64::BITS - (hi[d].wrapping_sub(lo[d]) as u64).leading_zeros();
            }
            let code = |p: usize| {
                (0..w).fold(0u128, |c, d| {
                    c << bits[d] | key(p, d).wrapping_sub(lo[d]) as u64 as u128
                })
            };
            let code_bits = bits[..w].iter().sum();
            if !packed_sort(n, code_bits, pos_bits, code, &mut visit) {
                comparator_sort(n, w, tuple, <[i64]>::cmp, &mut visit);
            }
        }
        KeyOrder::Morton => {
            let mut max = 0;
            for p in 0..n {
                for d in 0..w {
                    max = max.max(key(p, d));
                }
            }
            let bits = bits_for_extent(max as usize + 1);
            let code_bits = w as u32 * bits;
            let code = |p: usize| morton_encode(&tuple(p)[..w], bits);
            if code_bits > 128 || !packed_sort(n, code_bits, pos_bits, code, &mut visit) {
                comparator_sort(n, w, tuple, morton_cmp, &mut visit);
            }
        }
    }
}

/// An unsigned word holding a key code above a `pos_bits`-bit position.
trait PackedWord: Copy + Ord {
    fn pack(code: u128, pos: usize, pos_bits: u32) -> Self;
    /// The `(code, position)` pair packed into `self`.
    fn unpack(self, pos_bits: u32) -> (u128, usize);
}

impl PackedWord for u64 {
    #[inline]
    fn pack(code: u128, pos: usize, pos_bits: u32) -> Self {
        (code as u64) << pos_bits | pos as u64
    }

    #[inline]
    fn unpack(self, pos_bits: u32) -> (u128, usize) {
        ((self >> pos_bits) as u128, (self & ((1 << pos_bits) - 1)) as usize)
    }
}

impl PackedWord for u128 {
    #[inline]
    fn pack(code: u128, pos: usize, pos_bits: u32) -> Self {
        code << pos_bits | pos as u128
    }

    #[inline]
    fn unpack(self, pos_bits: u32) -> (u128, usize) {
        (self >> pos_bits, (self & ((1 << pos_bits) - 1)) as usize)
    }
}

/// The packed-key sort of [`sort_keys`] in the narrowest word that holds
/// `code_bits + pos_bits`; `false` (nothing visited) when none does.
fn packed_sort(
    n: usize,
    code_bits: u32,
    pos_bits: u32,
    code: impl Fn(usize) -> u128,
    visit: &mut impl FnMut(usize, bool),
) -> bool {
    fn run<K: PackedWord>(
        n: usize,
        pos_bits: u32,
        code: impl Fn(usize) -> u128,
        visit: &mut impl FnMut(usize, bool),
    ) {
        let mut keys: Vec<K> = (0..n).map(|p| K::pack(code(p), p, pos_bits)).collect();
        keys.sort_unstable();
        let mut prev = None;
        for k in keys {
            let (c, p) = k.unpack(pos_bits);
            visit(p, prev != Some(c));
            prev = Some(c);
        }
    }
    match code_bits + pos_bits {
        0..=64 => run::<u64>(n, pos_bits, code, visit),
        65..=128 => run::<u128>(n, pos_bits, code, visit),
        _ => return false,
    }
    true
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
    visit_runs(perm, tuple, visit);
}

/// Visits the positions of `perm` in order, flagging each whose key
/// differs from the previous one's.
fn visit_runs(
    perm: impl IntoIterator<Item = usize>,
    tuple: impl Fn(usize) -> KeyBuf,
    visit: &mut impl FnMut(usize, bool),
) {
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
    /// Keys in insertion order, `width` columns each.
    rows: Vec<i64>,
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
            rows: Vec::new(),
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

    /// Returns `true` once [`OrderedList::finalize`] has run.
    pub fn is_finalized(&self) -> bool {
        self.finalized
    }

    /// Inserts a key in source order.
    ///
    /// # Errors
    /// Fails when the width differs from the declaration or the list is
    /// already finalized.
    pub fn insert(&mut self, key: &[i64]) -> Result<(), ListError> {
        if self.finalized {
            return Err(ListError::AlreadyFinalized);
        }
        if key.len() != self.width {
            return Err(ListError::WidthMismatch { expect: self.width, got: key.len() });
        }
        self.rows.extend_from_slice(key);
        Ok(())
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
        let rows = &self.rows;
        let key = |p: usize, d: usize| rows[p * w + d];
        let mut sorted = Vec::with_capacity(n);
        let mut pos_rank = vec![0i64; n];
        match &self.order {
            ListOrder::Lexicographic | ListOrder::Morton => {
                let order = match self.order {
                    ListOrder::Morton => KeyOrder::Morton,
                    _ => KeyOrder::Lexicographic,
                };
                let mut run_rank = 0;
                sort_keys(n, w, order, key, |p, new_key| {
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
                sort_keys(n, w, KeyOrder::Lexicographic, key, |p, new_key| {
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
                let row = |p: usize| &rows[p * w..p * w + w];
                let mut idx: Vec<usize> = (0..n).collect();
                idx.sort_by(|&a, &b| cmp(row(a), row(b)));
                let mut index = RankIndex::with_capacity_and_hasher(n, FxBuild::default());
                for (i, &p) in idx.iter().enumerate() {
                    let next = if unique { sorted.len() } else { i } as i64;
                    let entry = index.entry(key_buf(row(p)));
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
            self.rows.len() / self.width
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
        if !self.finalized {
            return Err(ListError::NotFinalized);
        }
        if key.len() != self.width {
            return Err(ListError::WidthMismatch { expect: self.width, got: key.len() });
        }
        let index = self.index.get_or_init(|| {
            let w = self.width;
            let mut index = RankIndex::with_capacity_and_hasher(self.len(), FxBuild::default());
            for (p, &r) in self.pos_rank.iter().enumerate() {
                index.entry(key_buf(&self.rows[p * w..p * w + w])).or_insert(r);
            }
            index
        });
        index.get(&key_buf(key)).copied().ok_or_else(|| ListError::UnknownKey(key.to_vec()))
    }

    /// [`OrderedList::rank`] for a caller that queries the keys it
    /// inserted, in insertion order: when `key` is the key inserted at the
    /// cursor, returns that position's rank and advances the cursor
    /// (wrapping to the first position after the last), without touching
    /// the rank index. Any other query falls back to
    /// [`OrderedList::rank`]. The result is the same either way.
    ///
    /// # Errors
    /// Same as [`OrderedList::rank`].
    pub(crate) fn rank_next(&mut self, key: &[i64]) -> Result<i64, ListError> {
        let (w, p) = (self.width, self.cursor);
        if self.finalized && self.rows.get(p * w..p * w + w) == Some(key) {
            self.cursor = if p + 1 == self.pos_rank.len() { 0 } else { p + 1 };
            return Ok(self.pos_rank[p]);
        }
        self.rank(key)
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
        Ok(self.rows[self.sorted[pos] * self.width + dim])
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
            let ranks: Vec<i64> = keys.iter().map(|k| l.rank_next(k).unwrap()).collect();
            assert_eq!(ranks, vec![3, 2, 3, 0, 1]);
        }
        assert!(l.index.get().is_none());
        // Out of order: the cursor expects keys[0], so the index is built.
        assert_eq!(l.rank_next(&keys[1]), Ok(2));
        assert!(l.index.get().is_some());
    }

    #[test]
    fn sort_keys_packs_negative_and_wide_keys() {
        let cols: [&[i64]; 2] = [&[5, -7, 5, i64::MIN, -7], &[0, 3, -1, i64::MAX, 3]];
        let mut seen = Vec::new();
        sort_keys(5, 2, KeyOrder::Lexicographic, |p, d| cols[d][p], |p, new| seen.push((p, new)));
        assert_eq!(seen, vec![(3, true), (1, true), (4, false), (2, true), (0, true)]);
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
                let got: Vec<i64> = keys.iter().map(|k| forward.rank_next(k).unwrap()).collect();
                proptest::prop_assert_eq!(&got, &want, "pass {}", pass);
            }
            let mut reversed = l.clone();
            for (k, r) in keys.iter().zip(&want).rev() {
                proptest::prop_assert_eq!(reversed.rank_next(k), Ok(*r));
            }
            for (k, r) in keys.iter().zip(&want) {
                proptest::prop_assert_eq!(l.rank(k), Ok(*r));
            }

            let unknown: Vec<i64> = (0..w as i64).map(|d| 7 + d).collect();
            if !want_rank.contains_key(&unknown) {
                let err = Err(ListError::UnknownKey(unknown.clone()));
                proptest::prop_assert_eq!(l.rank(&unknown), err.clone());
                proptest::prop_assert_eq!(forward.rank_next(&unknown), err);
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
