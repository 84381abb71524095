//! The one checker of format invariants. Each format's invariants are
//! written once here, one function per container: its descriptor's UF
//! domains and ranges (array lengths, pointer ends, index bounds) and
//! universal quantifiers (monotone pointers, the container's own nonzero
//! order, zero padding). Validating constructors and `validate()`
//! methods (`CsrMatrix::new`, `MortonCooMatrix::validate`, …) call these
//! functions, and every extractor and native kernel builds its output
//! through those constructors, so outputs and inputs share one checker.
//!
//! **Inputs** carry two more obligations, passed as arguments to the
//! same functions by [`validate_matrix`] and [`validate_tensor`]: values
//! must be finite, and coordinate storage must follow the *source
//! descriptor's* order key, strictly. The static plan verifier
//! (`sparse-analyze`) proves a synthesized inspector correct **under the
//! descriptor's universal quantifiers**; those are *assumptions about the
//! input*, and a caller can hand the engine a `CsrMatrix` whose public
//! fields violate every one of them. Every obligation the verifier
//! assumed is checked here against the concrete container *before
//! binding*. Input checks dispatch on the descriptor's [`FormatKind`]
//! and [`OrderKey`], never on the container alone, so the same
//! `CooMatrix` is accepted under an unordered `COO` descriptor but
//! rejected under `SCOO` when its nonzeros are out of row-major order.
//!
//! A violation is a [`ValidationError`] naming the failed [`InputCheck`],
//! for an input and an output alike (the engine reports the latter as
//! `RunError::Format`). Validation is `O(nnz)` with small constants
//! (single pass per array, no allocation); ROADMAP item 8 records its
//! measured share of the conversions it guards.

use std::sync::OnceLock;

use spf_codegen::morton::morton_cmp;
use spf_ir::order::{Comparator, OrderKey};

use crate::containers::{Coords, CscMatrix, CsrMatrix, DiaMatrix, EllMatrix, MatrixRef, TensorRef};
use crate::descriptors::FormatDescriptor;
use crate::FormatKind;

/// The named format checks, each the dynamic counterpart of a static
/// verifier obligation (see [`InputCheck::static_counterpart`]). Input
/// and output checks share these names.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InputCheck {
    /// Parallel arrays must have consistent (declared) lengths.
    ArrayLengths,
    /// A pointer array must start at 0 and end at `NNZ` (its declared
    /// range in Table 1).
    PointerEnds,
    /// A pointer array must be non-decreasing (its monotonic universal
    /// quantifier).
    PointerMonotone,
    /// Every stored index must lie inside the declared dense bounds
    /// (the UF's declared range).
    IndexBounds,
    /// Nonzeros must respect the descriptor's reordering universal
    /// quantifier (row-major, column-major, Morton, …).
    Ordering,
    /// A strict ordering quantifier forbids two nonzeros at the same
    /// coordinates.
    DuplicateCoordinate,
    /// Stored values must be finite (no NaN/±Inf — they break the
    /// bit-exactness contract of every downstream comparison).
    ValueFinite,
    /// Padding slots (ELL sentinel slots, DIA out-of-matrix positions)
    /// must hold zero, and ELL padding must trail the row.
    PaddingZero,
}

impl InputCheck {
    /// Stable kebab-case name, used in error messages and logs.
    pub fn as_str(self) -> &'static str {
        match self {
            InputCheck::ArrayLengths => "array-lengths",
            InputCheck::PointerEnds => "pointer-ends",
            InputCheck::PointerMonotone => "pointer-monotone",
            InputCheck::IndexBounds => "index-bounds",
            InputCheck::Ordering => "ordering",
            InputCheck::DuplicateCoordinate => "duplicate-coordinate",
            InputCheck::ValueFinite => "value-finite",
            InputCheck::PaddingZero => "padding-zero",
        }
    }

    /// The static-verifier diagnostic whose *assumption* this runtime
    /// check discharges, when one exists. The verifier proves the plan
    /// correct given the obligation; this check establishes the
    /// obligation for a concrete input. `None` marks checks with no
    /// static counterpart (they guard runtime-only hazards).
    pub fn static_counterpart(self) -> Option<&'static str> {
        match self {
            InputCheck::ArrayLengths => Some("SA005"),
            InputCheck::PointerEnds => Some("SA004"),
            InputCheck::PointerMonotone => Some("SA006"),
            InputCheck::IndexBounds => Some("SA003"),
            InputCheck::Ordering | InputCheck::DuplicateCoordinate => Some("SA007"),
            InputCheck::ValueFinite | InputCheck::PaddingZero => None,
        }
    }
}

impl std::fmt::Display for InputCheck {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A violated format obligation: which check failed, and where.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ValidationError {
    /// The failed check.
    pub check: InputCheck,
    /// Human-readable specifics (offending index, observed value, …).
    pub detail: String,
}

impl ValidationError {
    fn new(check: InputCheck, detail: impl Into<String>) -> Self {
        ValidationError { check, detail: detail.into() }
    }
}

impl std::fmt::Display for ValidationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}", self.check, self.detail)
    }
}

impl std::error::Error for ValidationError {}

/// Which stored values a check accepts. A container may hold NaN/±Inf;
/// the engine refuses them as input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Values {
    /// Any `f64`: a container's own invariant.
    Any,
    /// Finite values only: an engine input.
    Finite,
}

/// The reordering quantifier a coordinate check enforces.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Order<'a> {
    /// No order: unordered COO.
    Unordered,
    /// The Morton containers' own Z-order. Only a decrease violates it;
    /// repeated coordinates are allowed.
    MortonRepeats,
    /// A descriptor's key, strictly: equal coordinates are a duplicate.
    Key(&'a OrderKey),
}

impl<'a> Order<'a> {
    fn of(desc: &'a FormatDescriptor) -> Self {
        desc.order.as_ref().map_or(Order::Unordered, Order::Key)
    }

    /// The key and its strictness, for a container of `rank` dimensions.
    fn key(self, rank: usize) -> Option<(&'a OrderKey, bool)> {
        match self {
            Order::Unordered => None,
            Order::MortonRepeats => Some((morton_key(rank), false)),
            Order::Key(k) => Some((k, true)),
        }
    }
}

/// The bare-coordinate Morton key over 2 or 3 dimensions.
fn morton_key(rank: usize) -> &'static OrderKey {
    static KEYS: OnceLock<[OrderKey; 2]> = OnceLock::new();
    &KEYS.get_or_init(|| [OrderKey::morton(2), OrderKey::morton(3)])[usize::from(rank == 3)]
}

/// Validates any rank-2 container against the obligations of `desc`:
/// the container's own invariants, plus finite values and, for
/// coordinate storage, the descriptor's order key.
///
/// Dispatches on the descriptor's structural [`FormatKind`] exactly like
/// the bind layer: coordinate-kind descriptors accept both `Coo` and
/// `MortonCoo` containers (the storage is identical; ordering is the
/// *descriptor's* claim and is checked here against `desc`'s
/// [`OrderKey`]). A descriptor/container pairing with no bind path is
/// *not* this module's concern and passes through (`Ok`): the dispatch
/// layer reports it as an unsupported conversion.
///
/// # Errors
/// Returns the first violated obligation.
pub fn validate_matrix(
    desc: &FormatDescriptor,
    m: MatrixRef<'_>,
) -> Result<(), ValidationError> {
    let v = Values::Finite;
    match (desc.kind(), m) {
        (FormatKind::Coo | FormatKind::SortedCoo | FormatKind::MortonCoo, m) => {
            m.coo().map_or(Ok(()), |c| validate_coords(desc, c))
        }
        (FormatKind::Csr, MatrixRef::Csr(c)) => validate_csr(c, v),
        (FormatKind::Csc, MatrixRef::Csc(c)) => validate_csc(c, v),
        (FormatKind::Dia, MatrixRef::Dia(d)) => validate_dia(d, v),
        (FormatKind::Ell, MatrixRef::Ell(e)) => validate_ell(e, v),
        // Kind/container mismatch or unsupported kind: the bind layer
        // owns that error.
        _ => Ok(()),
    }
}

/// Validates any order-3 container against the obligations of `desc`;
/// tensor analogue of [`validate_matrix`].
///
/// # Errors
/// Returns the first violated obligation.
pub fn validate_tensor(
    desc: &FormatDescriptor,
    t: TensorRef<'_>,
) -> Result<(), ValidationError> {
    match desc.kind() {
        FormatKind::Coo3 | FormatKind::MortonCoo3 => validate_coords(desc, t.coo3()),
        _ => Ok(()),
    }
}

/// Validates coordinate storage of any rank against the obligations of a
/// coordinate descriptor `desc`: array lengths, bounds, finite values and
/// `desc`'s order key, strictly. Engine inputs and coordinate outputs
/// (COO, SCOO, MCOO and their order-3 forms) both go through it.
///
/// # Errors
/// Returns the first violated obligation.
pub fn validate_coords<const R: usize>(
    desc: &FormatDescriptor,
    c: &impl Coords<R>,
) -> Result<(), ValidationError> {
    validate_coo(c, Order::of(desc), Values::Finite)
}

/// `0 <= v < extent` as one unsigned compare: a negative `v` reads as at
/// least 2^63, and capping the extent there keeps absurd extents exact.
/// Inlinable across crates, where [`validate_coords`] is instantiated.
#[inline]
fn in_bounds(v: i64, extent: usize) -> bool {
    (v as u64) < (extent as u64).min(1 << 63)
}

/// Parallel arrays (`what` names them, `/`-separated) share one length.
fn check_lengths(what: &str, lens: &[usize]) -> Result<(), ValidationError> {
    if lens.windows(2).all(|w| w[0] == w[1]) {
        return Ok(());
    }
    let lens: Vec<String> = lens.iter().map(ToString::to_string).collect();
    Err(ValidationError::new(
        InputCheck::ArrayLengths,
        format!("{what} lengths differ: {}", lens.join("/")),
    ))
}

/// Strictly increasing indices within one segment (`what` describes it,
/// built only on failure): a repeat is a duplicate, a decrease is out of
/// order.
fn check_increasing(idx: &[i64], what: &dyn Fn() -> String) -> Result<(), ValidationError> {
    let Some(p) = idx.windows(2).position(|w| w[0] >= w[1]) else {
        return Ok(());
    };
    let (a, b) = (idx[p], idx[p + 1]);
    Err(if a == b {
        ValidationError::new(InputCheck::DuplicateCoordinate, format!("{} repeats {a}", what()))
    } else {
        ValidationError::new(
            InputCheck::Ordering,
            format!("{} not increasing: {a} then {b}", what()),
        )
    })
}

fn check_finite(values: Values, vals: &[f64], what: &str) -> Result<(), ValidationError> {
    if values == Values::Any {
        return Ok(());
    }
    match vals.iter().position(|v| !v.is_finite()) {
        None => Ok(()),
        Some(p) => Err(ValidationError::new(
            InputCheck::ValueFinite,
            format!("{what}[{p}] = {} is not finite", vals[p]),
        )),
    }
}

/// Evaluates one [`OrderKey`] dimension at a dense coordinate, in `i128`
/// so corrupt-but-bounds-checked coordinates can never overflow.
fn eval_key_dim(coeffs: &[i64], constant: i64, coords: &[i64]) -> i128 {
    let mut acc = constant as i128;
    for (c, x) in coeffs.iter().zip(coords) {
        acc += (*c as i128) * (*x as i128);
    }
    acc
}

/// Compares two nonzeros' dense coordinates under `key`. Returns `None`
/// for user-defined comparators, which cannot be evaluated structurally.
fn key_cmp(key: &OrderKey, a: &[i64], b: &[i64]) -> Option<std::cmp::Ordering> {
    match &key.comparator {
        Comparator::Lexicographic => {
            for dim in &key.dims {
                let ka = eval_key_dim(&dim.coeffs, dim.constant, a);
                let kb = eval_key_dim(&dim.coeffs, dim.constant, b);
                match ka.cmp(&kb) {
                    std::cmp::Ordering::Equal => continue,
                    other => return Some(other),
                }
            }
            Some(std::cmp::Ordering::Equal)
        }
        Comparator::Morton => {
            // Catalog Morton keys are identity coordinates; evaluate the
            // affine form anyway so shifted keys stay honest. Coordinates
            // are bounds-checked before ordering runs, so the i64
            // narrowing cannot truncate.
            let ka: Vec<i64> = key
                .dims
                .iter()
                .map(|d| eval_key_dim(&d.coeffs, d.constant, a) as i64)
                .collect();
            let kb: Vec<i64> = key
                .dims
                .iter()
                .map(|d| eval_key_dim(&d.coeffs, d.constant, b) as i64)
                .collect();
            Some(morton_cmp(&ka, &kb))
        }
        Comparator::UserFn(_) => None,
    }
}

/// If every dimension of `key` is a bare coordinate (unit coefficient,
/// zero constant) below `rank`, returns the coordinate positions and
/// how many there are. This is every catalog key; it makes the per-pair
/// comparison a handful of `i64` compares instead of generic affine
/// evaluation.
fn identity_dims(key: &OrderKey, rank: usize) -> Option<([usize; 3], usize)> {
    let mut pos = [0; 3];
    if key.dims.len() > pos.len() {
        return None;
    }
    for (t, d) in key.dims.iter().enumerate() {
        if d.constant != 0 {
            return None;
        }
        let mut unit = None;
        for (p, &c) in d.coeffs.iter().enumerate() {
            match c {
                0 => {}
                1 if unit.is_none() && p < rank => unit = Some(p),
                _ => return None,
            }
        }
        pos[t] = unit?;
    }
    Some((pos, key.dims.len()))
}

/// Checks the reordering quantifier
/// `∀ n1 < n2 : key(n1) < key(n2)` over adjacent nonzeros.
///
/// `coords(n)` yields the dense coordinates of nonzero `n` (already
/// bounds-checked). A `strict` quantifier also forbids equal keys over
/// *identical coordinates* — a duplicate nonzero.
fn check_order<const R: usize>(
    key: &OrderKey,
    strict: bool,
    nnz: usize,
    coords: impl Fn(usize) -> [i64; R],
) -> Result<(), ValidationError> {
    match (&key.comparator, identity_dims(key, R)) {
        // User-defined comparator: not checkable.
        (Comparator::UserFn(_), _) => Ok(()),
        (Comparator::Lexicographic, Some((pos, len))) => sweep(key, strict, nnz, coords, |a, b| {
            let first_difference = pos[..len].iter().map(|&p| a[p].cmp(&b[p])).find(|o| o.is_ne());
            Some(first_difference.unwrap_or(std::cmp::Ordering::Equal))
        }),
        // The catalog's Morton keys: every coordinate, in order.
        (Comparator::Morton, Some((pos, len))) if pos[..len].iter().copied().eq(0..R) => {
            sweep(key, strict, nnz, coords, |a, b| Some(morton_cmp(a, b)))
        }
        _ => sweep(key, strict, nnz, coords, |a, b| key_cmp(key, a, b)),
    }
}

/// The adjacent-pair sweep of [`check_order`], monomorphized per
/// comparison so the hot loop carries no dispatch. `cmp` returns `None`
/// for a key it cannot evaluate.
fn sweep<const R: usize>(
    key: &OrderKey,
    strict: bool,
    nnz: usize,
    coords: impl Fn(usize) -> [i64; R],
    cmp: impl Fn(&[i64; R], &[i64; R]) -> Option<std::cmp::Ordering>,
) -> Result<(), ValidationError> {
    if nnz < 2 {
        return Ok(());
    }
    let mut prev = coords(0);
    for n in 1..nnz {
        let cur = coords(n);
        match cmp(&prev, &cur) {
            None => return Ok(()),
            Some(std::cmp::Ordering::Greater) => {
                return Err(ValidationError::new(
                    InputCheck::Ordering,
                    format!(
                        "nonzeros {} and {n} are out of {} order ({prev:?} then {cur:?})",
                        n - 1,
                        key.comparator
                    ),
                ));
            }
            Some(std::cmp::Ordering::Equal) if strict && prev == cur => {
                return Err(ValidationError::new(
                    InputCheck::DuplicateCoordinate,
                    format!(
                        "nonzeros {} and {n} share coordinates {prev:?} under a strict order",
                        n - 1
                    ),
                ));
            }
            Some(_) => {}
        }
        prev = cur;
    }
    Ok(())
}

/// The orders the fused sweep of [`validate_coo`] checks over `R`
/// coordinates.
#[derive(Debug, Clone, Copy)]
enum Fused<const R: usize> {
    /// No order: unordered storage.
    None,
    /// Strictly increasing lexicographic keys over all `R` coordinates,
    /// the most significant first. Equal keys then mean identical
    /// coordinates, a duplicate, so strictness is the key's own.
    Lex([usize; R]),
    /// Z-order over the coordinates in order: strictly increasing for a
    /// descriptor's key, non-decreasing for the Morton containers' own.
    Morton { strict: bool },
}

impl<const R: usize> Fused<R> {
    /// The fused form of `order`, or `None` when only the per-pair
    /// comparison can check it.
    fn of(order: Order<'_>) -> Option<Self> {
        match order {
            Order::Unordered => Some(Fused::None),
            Order::MortonRepeats => Some(Fused::Morton { strict: false }),
            Order::Key(k) => match (&k.comparator, identity_dims(k, R)) {
                (Comparator::Lexicographic, Some((pos, len)))
                    if len == R && (0..R).all(|d| pos[..R].contains(&d)) =>
                {
                    Some(Fused::Lex(std::array::from_fn(|t| pos[t])))
                }
                (Comparator::Morton, Some((pos, len))) if pos[..len].iter().copied().eq(0..R) => {
                    Some(Fused::Morton { strict: true })
                }
                _ => None,
            },
        }
    }
}

/// `a` strictly before `b` in the lexicographic order that compares
/// coordinates `pos[0]`, `pos[1]`, … in turn, without branches: from the
/// least significant coordinate up, each decides unless it ties, when the
/// less significant verdict stands.
#[inline(always)]
fn lex_before<const R: usize>(a: [i64; R], b: [i64; R], pos: [usize; R]) -> bool {
    let mut before = false;
    for &p in pos.iter().rev() {
        before = (a[p] < b[p]) | ((a[p] == b[p]) & before);
    }
    before
}

/// `a` before `b` in Z-order (`strict`), or not after it, without
/// branches: the dimension whose coordinates differ in the highest bit
/// decides, and on a tie the later dimension wins, as in `morton_cmp` and
/// `morton_encode`. Coordinates are non-negative once bounds-checked; on
/// others the answer is meaningless but well defined.
#[inline(always)]
fn z_before<const R: usize>(a: [i64; R], b: [i64; R], strict: bool) -> bool {
    let (mut top, mut x, mut y) = ((a[0] ^ b[0]) as u64, a[0], b[0]);
    for d in 1..R {
        let xor = (a[d] ^ b[d]) as u64;
        // Unless `xor`'s highest bit lies below `top`'s, which is then
        // set in `top & !xor` and makes it the larger.
        let take = xor >= (top & !xor);
        top = if take { xor } else { top };
        x = if take { a[d] } else { x };
        y = if take { b[d] } else { y };
    }
    (x < y) | (!strict & (x == y))
}

/// One pass over coordinate storage: every coordinate in bounds and,
/// when `finite`, every value finite. It accumulates one flag without
/// branches, and all arrays stream in together: on inputs that come from
/// memory rather than cache, one pass per column read 5.3-5.9 ns/nnz for
/// 40k-entry COO, against 3.4. Both loops index by position, which lets
/// the optimizer drop the column bounds checks; a single loop testing
/// `finite` per entry read 0.3 ns/nnz more on unordered COO.
#[inline(always)]
fn bounded_ok<const R: usize>(
    at: impl Fn(usize) -> [i64; R],
    extents: [usize; R],
    val: &[f64],
    finite: bool,
) -> bool {
    let in_extents = |x: [i64; R]| (0..R).fold(true, |ok, d| ok & in_bounds(x[d], extents[d]));
    if finite {
        (0..val.len()).zip(val).fold(true, |ok, (n, v)| ok & in_extents(at(n)) & v.is_finite())
    } else {
        (0..val.len()).fold(true, |ok, n| ok & in_extents(at(n)))
    }
}

/// [`bounded_ok`] with each entry also `before` the next, in the same
/// pass.
#[inline(always)]
fn ordered_ok<const R: usize>(
    at: impl Fn(usize) -> [i64; R],
    extents: [usize; R],
    val: &[f64],
    finite: bool,
    before: impl Fn([i64; R], [i64; R]) -> bool,
) -> bool {
    let mut ok = true;
    let mut prev = None;
    for (n, v) in (0..val.len()).zip(val) {
        let x = at(n);
        for d in 0..R {
            ok &= in_bounds(x[d], extents[d]);
        }
        ok &= !finite | v.is_finite();
        if let Some(p) = prev {
            ok &= before(p, x);
        }
        prev = Some(x);
    }
    ok
}

/// Coordinate storage of any rank (COO, COO3, and the Morton containers'
/// storage): array lengths, coordinate bounds, the given `order`, and
/// `values`.
pub(crate) fn validate_coo<const R: usize, C: Coords<R>>(
    c: &C,
    order: Order<'_>,
    values: Values,
) -> Result<(), ValidationError> {
    let (cols, extents, val) = (c.coords(), c.extents(), c.values());
    let nnz = val.len();
    if cols.iter().any(|col| col.len() != nnz) {
        let lens: Vec<usize> = cols.iter().map(|col| col.len()).chain([nnz]).collect();
        check_lengths(C::ARRAYS, &lens)?;
    }
    // Every column is `nnz` long now; slicing says so to the optimizer,
    // which then drops the bounds checks of `at`.
    let cols = cols.map(|col| &col[..nnz]);
    let at = move |n: usize| -> [i64; R] { std::array::from_fn(|d| cols[d][n]) };
    // Fast path for unordered storage and the catalog's orders. Branch-light
    // sweeps accumulate a single validity flag (`&`, not `&&`, so the loops
    // vectorize) and read the values only when they must be finite; the
    // precise per-check loops below run only when something failed, to
    // locate and describe it.
    if let Some(fused) = Fused::<R>::of(order) {
        let finite = values == Values::Finite;
        let ok = match fused {
            Fused::None => bounded_ok(at, extents, val, finite),
            Fused::Lex(pos) => {
                ordered_ok(at, extents, val, finite, |a, b| lex_before(a, b, pos))
            }
            // Z-order in a pass of its own: fused into the bounds pass it
            // read 11-13 ns/nnz on 40k-entry MCOO inputs, against 7.
            Fused::Morton { strict } => {
                let bounded = bounded_ok(at, extents, val, finite);
                bounded & (1..nnz).fold(true, |ok, n| ok & z_before(at(n - 1), at(n), strict))
            }
        };
        if ok {
            return Ok(());
        }
    }
    for n in 0..nnz {
        let x = at(n);
        if (0..R).any(|d| !in_bounds(x[d], extents[d])) {
            let coords: Vec<String> = x.iter().map(ToString::to_string).collect();
            let dims: Vec<String> = extents.iter().map(ToString::to_string).collect();
            return Err(ValidationError::new(
                InputCheck::IndexBounds,
                format!("nonzero {n} at ({}) outside {}", coords.join(", "), dims.join("x")),
            ));
        }
    }
    check_finite(values, val, "val")?;
    if let Some((key, strict)) = order.key(R) {
        check_order(key, strict, nnz, at)?;
    }
    Ok(())
}

/// Shared pointer-array obligations: length `n_major + 1`, ends `0..=nnz`,
/// non-decreasing. Afterwards slicing by adjacent entries is safe.
fn validate_pointer(
    ptr: &[i64],
    n_major: usize,
    nnz: usize,
    what: &str,
) -> Result<(), ValidationError> {
    // `len - 1` rather than `n_major + 1`, so an absurd `n_major` cannot
    // overflow.
    if ptr.len().checked_sub(1) != Some(n_major) {
        return Err(ValidationError::new(
            InputCheck::ArrayLengths,
            format!("{what} has length {}, expected {n_major} + 1", ptr.len()),
        ));
    }
    let first = ptr[0];
    let last = ptr[n_major];
    if first != 0 || last != nnz as i64 {
        return Err(ValidationError::new(
            InputCheck::PointerEnds,
            format!("{what} spans {first}..={last}, expected 0..={nnz}"),
        ));
    }
    if let Some(p) = ptr.windows(2).position(|w| w[0] > w[1]) {
        return Err(ValidationError::new(
            InputCheck::PointerMonotone,
            format!("{what}[{p}] = {} exceeds {what}[{}] = {}", ptr[p], p + 1, ptr[p + 1]),
        ));
    }
    Ok(())
}

/// Shared compressed-format obligations for the minor index array:
/// bounds, strict intra-segment ordering, no duplicates. The pointer is
/// already validated, so the window slicing is in-bounds.
fn validate_compressed_minor(
    ptr: &[i64],
    idx: &[i64],
    extent: usize,
    what: &str,
) -> Result<(), ValidationError> {
    for (n, &j) in idx.iter().enumerate() {
        if !in_bounds(j, extent) {
            return Err(ValidationError::new(
                InputCheck::IndexBounds,
                format!("{what}[{n}] = {j} outside 0..{extent}"),
            ));
        }
    }
    for w in 0..ptr.len() - 1 {
        let (s, e) = (ptr[w] as usize, ptr[w + 1] as usize);
        check_increasing(&idx[s..e], &|| format!("{what} segment {w}"))?;
    }
    Ok(())
}

/// CSR: pointer shape and monotonicity, column bounds, strictly
/// increasing columns within a row.
pub(crate) fn validate_csr(m: &CsrMatrix, values: Values) -> Result<(), ValidationError> {
    check_lengths("CSR col/val", &[m.col.len(), m.val.len()])?;
    validate_pointer(&m.rowptr, m.nr, m.val.len(), "CSR rowptr")?;
    validate_compressed_minor(&m.rowptr, &m.col, m.nc, "CSR col")?;
    check_finite(values, &m.val, "val")
}

/// CSC: the transpose-ordered twin of [`validate_csr`].
pub(crate) fn validate_csc(m: &CscMatrix, values: Values) -> Result<(), ValidationError> {
    check_lengths("CSC row/val", &[m.row.len(), m.val.len()])?;
    validate_pointer(&m.colptr, m.nc, m.val.len(), "CSC colptr")?;
    validate_compressed_minor(&m.colptr, &m.row, m.nr, "CSC row")?;
    check_finite(values, &m.val, "val")
}

/// DIA: data length `nd * nr`, strictly increasing offsets inside the
/// matrix, and zero padding outside it.
pub(crate) fn validate_dia(m: &DiaMatrix, values: Values) -> Result<(), ValidationError> {
    let nd = m.off.len();
    // A saturated product exceeds every possible array length.
    check_lengths("DIA nd * nr/data", &[nd.saturating_mul(m.nr), m.data.len()])?;
    check_increasing(&m.off, &|| "DIA off".to_string())?;
    for (d, &o) in m.off.iter().enumerate() {
        // Declared range of `off` in Table 1: -NR < o < NC.
        if o <= -(m.nr.min(i64::MAX as usize) as i64) || o >= m.nc as i64 {
            return Err(ValidationError::new(
                InputCheck::IndexBounds,
                format!("DIA off[{d}] = {o} outside -{} < o < {}", m.nr, m.nc),
            ));
        }
    }
    check_finite(values, &m.data, "data")?;
    for i in 0..m.nr {
        for (d, &o) in m.off.iter().enumerate() {
            let j = i as i64 + o;
            if (j < 0 || j >= m.nc as i64) && m.data[i * nd + d] != 0.0 {
                return Err(ValidationError::new(
                    InputCheck::PaddingZero,
                    format!("DIA out-of-matrix slot (row {i}, diagonal {d}) holds a nonzero"),
                ));
            }
        }
    }
    Ok(())
}

/// ELL: slot arrays of length `nr * width`, column bounds, strictly
/// increasing columns within a row, and zero padding trailing each row.
pub(crate) fn validate_ell(m: &EllMatrix, values: Values) -> Result<(), ValidationError> {
    let slots = m.nr.saturating_mul(m.width);
    check_lengths("ELL nr * width/col/data", &[slots, m.col.len(), m.data.len()])?;
    check_finite(values, &m.data, "data")?;
    for i in 0..m.nr {
        let row = &m.col[i * m.width..(i + 1) * m.width];
        let mut seen_pad = false;
        for (s, &j) in row.iter().enumerate() {
            if j < 0 {
                seen_pad = true;
                if m.data[i * m.width + s] != 0.0 {
                    return Err(ValidationError::new(
                        InputCheck::PaddingZero,
                        format!("ELL padded slot (row {i}, slot {s}) holds a nonzero"),
                    ));
                }
                continue;
            }
            if seen_pad {
                return Err(ValidationError::new(
                    InputCheck::PaddingZero,
                    format!("ELL row {i} has an occupied slot {s} after padding"),
                ));
            }
            if !in_bounds(j, m.nc) {
                return Err(ValidationError::new(
                    InputCheck::IndexBounds,
                    format!("ELL col (row {i}, slot {s}) = {j} outside 0..{}", m.nc),
                ));
            }
            if s > 0 {
                check_increasing(&row[s - 1..=s], &|| format!("ELL row {i} col"))?;
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::descriptors;
    use crate::containers::{Coo3Tensor, CooMatrix, MortonCooMatrix};

    fn coo_sorted() -> CooMatrix {
        CooMatrix::from_triplets(
            3,
            4,
            vec![0, 0, 1, 2],
            vec![0, 2, 3, 0],
            vec![1.0, 2.0, 3.0, 4.0],
        )
        .unwrap()
    }

    #[test]
    fn accepts_valid_inputs_under_matching_descriptors() {
        let coo = coo_sorted();
        validate_matrix(&descriptors::coo(), MatrixRef::Coo(&coo)).unwrap();
        validate_matrix(&descriptors::scoo(), MatrixRef::Coo(&coo)).unwrap();
        let csr = CsrMatrix::from_coo(&coo);
        validate_matrix(&descriptors::csr(), MatrixRef::Csr(&csr)).unwrap();
        let csc = CscMatrix::from_coo(&coo);
        validate_matrix(&descriptors::csc(), MatrixRef::Csc(&csc)).unwrap();
        let ell = EllMatrix::from_coo(&coo);
        validate_matrix(&descriptors::ell(), MatrixRef::Ell(&ell)).unwrap();
        let dia = DiaMatrix::from_coo(&coo);
        validate_matrix(&descriptors::dia(), MatrixRef::Dia(&dia)).unwrap();
        let mcoo = MortonCooMatrix::from_coo(&coo);
        validate_matrix(&descriptors::mcoo(), MatrixRef::MortonCoo(&mcoo)).unwrap();
    }

    #[test]
    fn order_obligation_is_the_descriptors_not_the_containers() {
        // Unsorted nonzeros: fine under COO, an ordering violation under
        // SCOO, and a Morton violation under MCOO.
        let coo =
            CooMatrix::from_triplets(3, 3, vec![2, 0], vec![0, 1], vec![1.0, 2.0]).unwrap();
        validate_matrix(&descriptors::coo(), MatrixRef::Coo(&coo)).unwrap();
        let err = validate_matrix(&descriptors::scoo(), MatrixRef::Coo(&coo)).unwrap_err();
        assert_eq!(err.check, InputCheck::Ordering);
        let err = validate_matrix(&descriptors::mcoo(), MatrixRef::Coo(&coo)).unwrap_err();
        assert_eq!(err.check, InputCheck::Ordering);
    }

    #[test]
    fn duplicate_coordinates_rejected_under_strict_orders() {
        let coo = CooMatrix::from_triplets(
            3,
            3,
            vec![1, 1],
            vec![2, 2],
            vec![1.0, 2.0],
        )
        .unwrap();
        // Unordered COO does not look for repeats. They pass, and no plan
        // sums them: list plans collapse them onto one slot and COO->DIA
        // keeps the last value (ROADMAP item 1).
        validate_matrix(&descriptors::coo(), MatrixRef::Coo(&coo)).unwrap();
        let err = validate_matrix(&descriptors::scoo(), MatrixRef::Coo(&coo)).unwrap_err();
        assert_eq!(err.check, InputCheck::DuplicateCoordinate);
    }

    #[test]
    fn csr_obligations() {
        let mut csr = CsrMatrix::from_coo(&coo_sorted());
        csr.rowptr[1] = 3;
        csr.rowptr[2] = 2; // non-monotone
        let err = validate_matrix(&descriptors::csr(), MatrixRef::Csr(&csr)).unwrap_err();
        assert_eq!(err.check, InputCheck::PointerMonotone);

        let mut csr = CsrMatrix::from_coo(&coo_sorted());
        csr.col[0] = 99;
        let err = validate_matrix(&descriptors::csr(), MatrixRef::Csr(&csr)).unwrap_err();
        assert_eq!(err.check, InputCheck::IndexBounds);

        let mut csr = CsrMatrix::from_coo(&coo_sorted());
        csr.col[1] = csr.col[0];
        let err = validate_matrix(&descriptors::csr(), MatrixRef::Csr(&csr)).unwrap_err();
        assert_eq!(err.check, InputCheck::DuplicateCoordinate);

        let mut csr = CsrMatrix::from_coo(&coo_sorted());
        csr.val.pop();
        let err = validate_matrix(&descriptors::csr(), MatrixRef::Csr(&csr)).unwrap_err();
        assert_eq!(err.check, InputCheck::ArrayLengths);

        let mut csr = CsrMatrix::from_coo(&coo_sorted());
        *csr.rowptr.last_mut().unwrap() += 1;
        let err = validate_matrix(&descriptors::csr(), MatrixRef::Csr(&csr)).unwrap_err();
        assert_eq!(err.check, InputCheck::PointerEnds);
    }

    #[test]
    fn non_finite_values_rejected() {
        let mut coo = coo_sorted();
        coo.val[2] = f64::NAN;
        let err = validate_matrix(&descriptors::coo(), MatrixRef::Coo(&coo)).unwrap_err();
        assert_eq!(err.check, InputCheck::ValueFinite);

        let mut csc = CscMatrix::from_coo(&coo_sorted());
        csc.val[0] = f64::INFINITY;
        let err = validate_matrix(&descriptors::csc(), MatrixRef::Csc(&csc)).unwrap_err();
        assert_eq!(err.check, InputCheck::ValueFinite);
    }

    #[test]
    fn dia_and_ell_padding_obligations() {
        let mut dia = DiaMatrix::from_coo(&coo_sorted());
        dia.data.pop();
        let err = validate_matrix(&descriptors::dia(), MatrixRef::Dia(&dia)).unwrap_err();
        assert_eq!(err.check, InputCheck::ArrayLengths);

        // Nonzero in an out-of-matrix DIA slot.
        let dia = DiaMatrix { nr: 2, nc: 2, off: vec![1], data: vec![5.0, 7.0] };
        let err = validate_matrix(&descriptors::dia(), MatrixRef::Dia(&dia)).unwrap_err();
        assert_eq!(err.check, InputCheck::PaddingZero);

        let mut ell = EllMatrix::from_coo(&coo_sorted());
        // Interior padding: make slot 0 a sentinel while slot 1 stays.
        ell.col[0] = -1;
        ell.data[0] = 0.0;
        let err = validate_matrix(&descriptors::ell(), MatrixRef::Ell(&ell)).unwrap_err();
        assert_eq!(err.check, InputCheck::PaddingZero);
    }

    #[test]
    fn tensor_obligations() {
        let t = Coo3Tensor::from_coords(
            (2, 2, 2),
            vec![1, 0],
            vec![0, 1],
            vec![0, 1],
            vec![1.0, 2.0],
        )
        .unwrap();
        validate_tensor(&descriptors::coo3(), TensorRef::Coo3(&t)).unwrap();
        let err = validate_tensor(&descriptors::scoo3(), TensorRef::Coo3(&t)).unwrap_err();
        assert_eq!(err.check, InputCheck::Ordering);

        let mut short = t.clone();
        short.i2.pop();
        let err = validate_tensor(&descriptors::coo3(), TensorRef::Coo3(&short)).unwrap_err();
        assert_eq!(err.check, InputCheck::ArrayLengths);
    }

    #[test]
    fn mismatched_pairings_pass_through_to_dispatch() {
        // CSR container under a COO descriptor: not validation's call.
        let csr = CsrMatrix::from_coo(&coo_sorted());
        validate_matrix(&descriptors::coo(), MatrixRef::Csr(&csr)).unwrap();
    }

    #[test]
    fn bounds_hold_at_extreme_extents() {
        assert!(in_bounds(0, 1) && !in_bounds(1, 1) && !in_bounds(-1, 1));
        assert!(in_bounds(i64::MAX, usize::MAX) && !in_bounds(-1, usize::MAX));
        assert!(!in_bounds(i64::MIN, usize::MAX) && !in_bounds(0, 0));
    }

    #[test]
    fn static_counterparts_are_stable() {
        assert_eq!(InputCheck::PointerMonotone.static_counterpart(), Some("SA006"));
        assert_eq!(InputCheck::Ordering.static_counterpart(), Some("SA007"));
        assert_eq!(InputCheck::ValueFinite.static_counterpart(), None);
        assert_eq!(InputCheck::PointerMonotone.as_str(), "pointer-monotone");
    }
}
