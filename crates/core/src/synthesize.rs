//! The inspector synthesis algorithm (§3.2 of the paper) and its
//! optimization pipeline (§3.3).
//!
//! Given a source and a destination [`FormatDescriptor`], synthesis:
//!
//! 1. **inverts** the destination sparse-to-dense map and inserts the
//!    permutation `P`,
//! 2. **composes** it with the source map (`R = dst⁻¹ ∘ src`),
//! 3. solves each **unknown UF** from its constraints (Cases 1–5, see
//!    [`crate::analysis`]), emitting SPF statements that populate it,
//! 4. **enforces universal quantifiers** — reordering quantifiers through
//!    the `OrderedList` sort, monotonic quantifiers through an
//!    enforcement sweep,
//! 5. generates the **copy** statement over the composed relation.
//!
//! The result is a naive SPF [`Computation`] — a sparse loop chain — that
//! the §3.3 optimization pipeline then improves: redundancy removal,
//! *identity-permutation elimination* (when the source order implies the
//! destination order, `P.rank(...)` collapses to the source position and
//! dead-code elimination deletes the whole permutation chain — the
//! paper's COO→CSR fast path) or, for padded sources such as ELL, its
//! replacement by a compaction counter, and loop fusion. How a Case-5
//! find variable (DIA's `d`) is recovered is a [`Membership`] option: a
//! direct inverse map by default, or the paper's linear search and its
//! Figure 3 binary-search rewrite.

use std::fmt;

use sparse_formats::descriptors::{domain_alloc_size, range_max};
use sparse_formats::FormatDescriptor;
use spf_computation::{
    optimize as spf_optimize, Computation, FindSpec, Kernel, ListOrderSpec, LowerError,
    Stmt,
};
use spf_ir::Atom;
use spf_ir::constraint::Constraint;
use spf_ir::expr::{LinExpr, UfCall, VarId};
use spf_ir::formula::{Relation, Set};
use spf_ir::order::Comparator;
use spf_ir::uf::{Monotonicity, UfEnvironment, UfSignature};

use crate::analysis::{
    analyze_destination, AnalysisError, DstAnalysis, DstVarKind, MembershipRule,
};

/// How the copy loop recovers a Case-5 find variable (DIA's `d` in
/// `off(d) = j - i`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Membership {
    /// The paper's linear search, which "tries every iteration to find
    /// the d".
    Linear = 0,
    /// Binary search, when the searched UF's monotonic quantifier
    /// licenses it (Figure 3); linear otherwise.
    Binary = 1,
    /// A dense inverse map over the UF's declared range, read once per
    /// nonzero: TACO's direct diagonal map. It needs a strictly
    /// increasing UF whose range is an interval bounded by size symbols;
    /// other UFs are searched as under `Binary`.
    #[default]
    Direct = 2,
}

/// Options controlling synthesis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SynthesisOptions {
    /// Run the §3.3 optimization pipeline (redundancy removal, identity
    /// permutation elimination + DCE, fusion).
    pub optimize: bool,
    /// How Case-5 find variables are recovered.
    pub membership: Membership,
}

impl Default for SynthesisOptions {
    fn default() -> Self {
        SynthesisOptions { optimize: true, membership: Membership::Direct }
    }
}

/// Errors raised by synthesis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SynthesisError {
    /// The source format has no executable scan (e.g. DIA as source).
    SourceNotScannable(String),
    /// Destination analysis failed.
    Analysis(AnalysisError),
    /// The destination requires more than one search variable.
    MultipleFindVars,
    /// A Case-5 UF's domain size is not a plain symbol that synthesis can
    /// set from the collected list length.
    NonSymbolicListLen(String),
    /// A UF signature lacks the domain/range information synthesis needs.
    MissingDomainInfo(String),
    /// The destination order key has fewer than two dimensions (rank
    /// lookups need composite keys).
    DegenerateOrderKey,
    /// Source and destination have different dense ranks.
    RankMismatch {
        /// Source rank.
        src: usize,
        /// Destination rank.
        dst: usize,
    },
    /// Lowering the synthesized computation failed.
    Lower(LowerError),
}

impl fmt::Display for SynthesisError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SynthesisError::SourceNotScannable(n) => {
                write!(f, "format `{n}` is not supported as a conversion source")
            }
            SynthesisError::Analysis(e) => write!(f, "destination analysis: {e}"),
            SynthesisError::MultipleFindVars => {
                write!(f, "more than one search variable in the destination")
            }
            SynthesisError::NonSymbolicListLen(uf) => {
                write!(f, "domain size of `{uf}` is not a plain symbol")
            }
            SynthesisError::MissingDomainInfo(uf) => {
                write!(f, "missing domain/range declaration for `{uf}`")
            }
            SynthesisError::DegenerateOrderKey => {
                write!(f, "destination order key must have at least two dimensions")
            }
            SynthesisError::RankMismatch { src, dst } => {
                write!(f, "dense rank mismatch: source {src} vs destination {dst}")
            }
            SynthesisError::Lower(e) => write!(f, "lowering: {e}"),
        }
    }
}

impl std::error::Error for SynthesisError {}

impl From<AnalysisError> for SynthesisError {
    fn from(e: AnalysisError) -> Self {
        SynthesisError::Analysis(e)
    }
}

impl From<LowerError> for SynthesisError {
    fn from(e: LowerError) -> Self {
        SynthesisError::Lower(e)
    }
}

/// How the destination position of each nonzero is obtained.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PermutationKind {
    /// No permutation needed: destination order unconstrained, or the
    /// source order implies it. Positions are source positions.
    Identity,
    /// An `OrderedList` permutation `P` sorted with the given comparator.
    Ordered {
        /// Comparator specification.
        order: ListOrderSpec,
        /// Number of key columns.
        width: usize,
    },
}

/// A synthesized conversion: the naive and optimized computations plus
/// everything needed to inspect or execute them.
#[derive(Debug, Clone)]
pub struct SynthesizedConversion {
    /// Source descriptor.
    pub src: FormatDescriptor,
    /// Destination descriptor.
    pub dst: FormatDescriptor,
    /// The composed relation `R_{A_src -> A_dst}` (for inspection; the
    /// paper's step 2).
    pub composed: Relation,
    /// The destination analysis (constraint classification; Table 2).
    pub analysis: DstAnalysis,
    /// The synthesized computation (optimized when the options say so).
    pub computation: Computation,
    /// The naive computation before optimization, kept for ablation.
    pub naive: Computation,
    /// How destination positions are produced in the *naive* computation
    /// (the paper always generates `P` for ordered destinations).
    pub permutation: PermutationKind,
    /// `true` when optimization proved the permutation is the identity
    /// (source order implies destination order) and removed it.
    pub identity_eliminated: bool,
    /// Signatures of UFs *introduced by synthesis*: facts the static
    /// verifier may assume. `P`'s range is `[0, NNZ)`, a rank among the
    /// scanned nonzeros. A direct membership map adds its presence array
    /// (values in `[0, 1]`), its sweep counter and its inverse map (both
    /// with values in `[0, ND)`).
    pub synth_ufs: UfEnvironment,
    /// Human-readable solve order, e.g.
    /// `["P", "col2", "rowptr", "copy"]`.
    pub plan: Vec<String>,
}

/// Name of the synthesized permutation list.
pub const PERM_NAME: &str = "P";

/// Prefix for Case-5 value-collection lists (`L_off` etc.).
pub const LIST_PREFIX: &str = "L_";

/// Prefix for a direct membership map's presence array (`M_off`).
const MARK_PREFIX: &str = "M_";

/// Prefix for a direct membership map's sweep counter (`C_off`).
const COUNTER_PREFIX: &str = "C_";

/// Name of the find variable; a direct map's inverse is `d_of`.
const FIND_VAR: &str = "d";

/// A Case-5 membership `uf(d) = value` recovered through a dense inverse
/// map over the UF's declared range `[lo, lo + extent)`.
struct DirectMap {
    uf: String,
    /// Inclusive lower end of the range.
    lo: LinExpr,
    /// Number of values in the range.
    extent: LinExpr,
    /// The UF's domain size symbol (DIA's `ND`).
    size: LinExpr,
    /// The inserted value, over destination tuple variables.
    value: LinExpr,
    mark: String,
    counter: String,
    inverse: String,
}

impl DirectMap {
    /// The map for `m` when its UF is strictly increasing and its range
    /// is an interval whose ends are sums of size symbols and constants.
    fn new(dst: &FormatDescriptor, m: &MembershipRule) -> Result<Option<Self>, SynthesisError> {
        let sig = dst
            .ufs
            .get(&m.uf)
            .ok_or_else(|| SynthesisError::MissingDomainInfo(m.uf.clone()))?;
        if sig.monotonicity != Some(Monotonicity::Increasing) {
            return Ok(None);
        }
        let Some((lo, hi)) = range_interval(sig) else { return Ok(None) };
        let size = domain_alloc_size(sig)
            .ok_or_else(|| SynthesisError::MissingDomainInfo(m.uf.clone()))?;
        Ok(Some(DirectMap {
            uf: m.uf.clone(),
            extent: hi.sub(&lo).add(&LinExpr::constant(1)),
            lo,
            size,
            value: m.value.clone(),
            mark: format!("{MARK_PREFIX}{}", m.uf),
            counter: format!("{COUNTER_PREFIX}{}", m.uf),
            inverse: format!("{FIND_VAR}_of"),
        }))
    }

    /// `{ [e, d] : 0 <= e < extent && mark(e) >= 1 && d = counter(e) }`:
    /// the ascending sweep over the present values, `d` counting them.
    fn sweep_space(&self) -> Set {
        let sweep = interval("e", LinExpr::zero(), self.extent.clone());
        let mut space = extend_tuple(&sweep, FIND_VAR);
        let e = || vec![LinExpr::var(VarId(0))];
        for conj in space.conjunctions_mut() {
            conj.add(Constraint::ge(
                LinExpr::uf(UfCall::new(self.mark.clone(), e())),
                LinExpr::constant(1),
            ));
            conj.add(Constraint::eq(
                LinExpr::var(VarId(1)),
                LinExpr::uf(UfCall::new(self.counter.clone(), e())),
            ));
        }
        space
    }
}

/// Synthesizes the conversion from `src` to `dst`.
///
/// # Errors
/// Returns a [`SynthesisError`] when either descriptor falls outside the
/// supported fragment.
pub fn synthesize(
    src: &FormatDescriptor,
    dst: &FormatDescriptor,
    options: SynthesisOptions,
) -> Result<SynthesizedConversion, SynthesisError> {
    if src.rank != dst.rank {
        return Err(SynthesisError::RankMismatch { src: src.rank, dst: dst.rank });
    }
    let scan = src
        .scan
        .as_ref()
        .ok_or_else(|| SynthesisError::SourceNotScannable(src.name.clone()))?;
    let analysis = analyze_destination(dst)?;

    // Step 1 + 2: invert the destination map and compose with the source
    // map. (The permutation constraint `P(i,j) = [n2, ii, jj]` is tracked
    // as metadata — see `PermutationKind` — because `P` is tuple-valued.)
    let mut composed = dst.sparse_to_dense.inverse().compose(&src.sparse_to_dense);
    composed.simplify();

    // Which find variables exist?
    let find_vars: Vec<usize> = analysis
        .var_kinds
        .iter()
        .enumerate()
        .filter_map(|(idx, k)| matches!(k, DstVarKind::Find { .. }).then_some(idx))
        .collect();
    if find_vars.len() > 1 {
        return Err(SynthesisError::MultipleFindVars);
    }
    let direct = match (options.membership, analysis.memberships.as_slice()) {
        (Membership::Direct, [m]) => DirectMap::new(dst, m)?,
        _ => None,
    };

    let scan_arity = scan.set.arity() as usize;
    let needs_position = analysis
        .var_kinds
        .iter()
        .any(|k| matches!(k, DstVarKind::Position));

    // The copy/write iteration space: the source scan set, extended with a
    // position variable `p` when the destination stores by rank. `p` is
    // defined by `p = P(key...)` when the destination carries a reordering
    // quantifier, else by the source data index.
    let mut copy_space = scan.set.clone();
    let p_pos = scan_arity; // tuple position of `p` when present
    let permutation = match (&dst.order, needs_position) {
        (_, false) => PermutationKind::Identity,
        // An unordered destination keeps the source order; when the
        // source data index enumerates nonzeros densely it doubles as the
        // rank, otherwise an insertion-ordered permutation compacts the
        // gaps (padded sources like ELL).
        (None, true) if src.contiguous_data => PermutationKind::Identity,
        (None, true) => PermutationKind::Ordered {
            order: ListOrderSpec::Insertion,
            width: src.rank,
        },
        (Some(key), true) => {
            if key.dims.len() < 2 {
                return Err(SynthesisError::DegenerateOrderKey);
            }
            PermutationKind::Ordered {
                order: comparator_spec(&key.comparator),
                width: key.dims.len(),
            }
        }
    };
    if needs_position {
        copy_space = extend_tuple(&copy_space, "p");
        let def = match &permutation {
            PermutationKind::Ordered { .. } => {
                // p = P(key dims over dense coordinates); for an
                // insertion-ordered permutation the key is simply the
                // dense coordinate tuple.
                let args = match &dst.order {
                    Some(key) => key_exprs(key, &scan.dense_pos),
                    None => scan
                        .dense_pos
                        .iter()
                        .map(|&pos| LinExpr::var(VarId(pos as u32)))
                        .collect(),
                };
                LinExpr::uf(UfCall::new(PERM_NAME, args))
            }
            PermutationKind::Identity => scan.data_index.clone(),
        };
        add_eq(&mut copy_space, VarId(p_pos as u32), def);
    }

    // Maps a destination-tuple expression into the copy space: aliases go
    // to their dense coordinate's scan position, the position variable to
    // `p`, find variables to the (single) appended find position.
    let dst_arity = dst.sparse_to_dense.in_arity() as usize;
    let find_tuple_pos = copy_space.arity() as usize; // appended by FindSpec
    let map_dst_expr = |e: &LinExpr| -> LinExpr {
        e.map_vars(&mut |v: VarId| {
            let idx = v.index();
            if idx < dst_arity {
                match &analysis.var_kinds[idx] {
                    DstVarKind::DenseAlias(d) => LinExpr::var(VarId(scan.dense_pos[*d] as u32)),
                    DstVarKind::Position => LinExpr::var(VarId(p_pos as u32)),
                    DstVarKind::Find { .. } => LinExpr::var(VarId(find_tuple_pos as u32)),
                }
            } else {
                // Dense coordinate.
                LinExpr::var(VarId(scan.dense_pos[idx - dst_arity] as u32))
            }
        })
    };

    // A direct map binds the find variable as one more tuple position:
    // `d = d_of(value - lo)`.
    if let Some(dm) = &direct {
        copy_space = extend_tuple(&copy_space, FIND_VAR);
        let slot = map_dst_expr(&dm.value).sub(&dm.lo);
        let def = LinExpr::uf(UfCall::new(dm.inverse.clone(), vec![slot]));
        add_eq(&mut copy_space, VarId(find_tuple_pos as u32), def);
    }

    let mut comp = Computation::new();
    let mut plan = Vec::new();
    let empty = Set::universe(vec![]);

    // --- Setup: allocations and list declarations -----------------------
    for w in &analysis.writes {
        let sig = dst
            .ufs
            .get(&w.uf)
            .ok_or_else(|| SynthesisError::MissingDomainInfo(w.uf.clone()))?;
        let size = domain_alloc_size(sig)
            .ok_or_else(|| SynthesisError::MissingDomainInfo(w.uf.clone()))?;
        comp.add_stmt(Stmt::new(
            format!("alloc {}", w.uf),
            Kernel::UfAlloc { uf: w.uf.clone(), size, init: LinExpr::constant(0) },
            empty.clone(),
        ));
    }
    // Pointer UFs: allocate once per UF, initialized to the range maximum
    // (the "+infinity" for min updates).
    let mut ptr_ufs: Vec<String> = analysis.bounds.iter().map(|b| b.uf.clone()).collect();
    ptr_ufs.sort();
    ptr_ufs.dedup();
    for uf in &ptr_ufs {
        let sig = dst
            .ufs
            .get(uf)
            .ok_or_else(|| SynthesisError::MissingDomainInfo(uf.clone()))?;
        let size = domain_alloc_size(sig)
            .ok_or_else(|| SynthesisError::MissingDomainInfo(uf.clone()))?;
        let init = range_max(sig)
            .ok_or_else(|| SynthesisError::MissingDomainInfo(uf.clone()))?;
        comp.add_stmt(Stmt::new(
            format!("alloc {uf}"),
            Kernel::UfAlloc { uf: uf.clone(), size, init },
            empty.clone(),
        ));
    }
    if let PermutationKind::Ordered { order, width } = &permutation {
        comp.add_stmt(Stmt::new(
            format!("declare permutation {PERM_NAME}"),
            Kernel::ListDecl {
                list: PERM_NAME.into(),
                width: *width,
                order: order.clone(),
                unique: false,
            },
            empty.clone(),
        ));
    }
    if let Some(dm) = &direct {
        // One spare slot keeps the size non-negative when the range is
        // empty (DIA's `NR + NC - 1` on a 0 × 0 shape).
        let size = dm.extent.add(&LinExpr::constant(1));
        for uf in [&dm.mark, &dm.inverse] {
            comp.add_stmt(Stmt::new(
                format!("alloc {uf}"),
                Kernel::UfAlloc { uf: uf.clone(), size: size.clone(), init: LinExpr::zero() },
                empty.clone(),
            ));
        }
        comp.add_stmt(Stmt::new(
            format!("declare counter {}", dm.counter),
            Kernel::CounterDecl { counter: dm.counter.clone(), bucket: None },
            empty.clone(),
        ));
    }
    for m in analysis.memberships.iter().filter(|_| direct.is_none()) {
        let sig = dst
            .ufs
            .get(&m.uf)
            .ok_or_else(|| SynthesisError::MissingDomainInfo(m.uf.clone()))?;
        // Strictly increasing quantifier => sorted unique list.
        let (order, unique) = match sig.monotonicity {
            Some(Monotonicity::Increasing) => (ListOrderSpec::Lexicographic, true),
            Some(Monotonicity::NonDecreasing) => (ListOrderSpec::Lexicographic, false),
            None => (ListOrderSpec::Insertion, true),
        };
        comp.add_stmt(Stmt::new(
            format!("declare value list for {}", m.uf),
            Kernel::ListDecl {
                list: format!("{LIST_PREFIX}{}", m.uf),
                width: 1,
                order,
                unique,
            },
            empty.clone(),
        ));
    }

    // --- Permutation population (paper: P is processed first) -----------
    if let PermutationKind::Ordered { .. } = &permutation {
        plan.push(PERM_NAME.to_string());
        let args = match &dst.order {
            Some(key) => key_exprs(key, &scan.dense_pos),
            None => scan
                .dense_pos
                .iter()
                .map(|&pos| LinExpr::var(VarId(pos as u32)))
                .collect(),
        };
        comp.add_stmt(Stmt::new(
            format!("insert into {PERM_NAME}"),
            Kernel::ListInsert { list: PERM_NAME.into(), args },
            scan.set.clone(),
        ));
        comp.add_stmt(Stmt::new(
            format!("finalize {PERM_NAME} (enforce reordering quantifier)"),
            Kernel::ListFinalize { list: PERM_NAME.into() },
            empty.clone(),
        ));
    }

    // --- Case 5 by a direct map: mark the present values, then sweep them
    // in ascending order, numbering each; the numbering is the inverse map
    // and the count sets the domain size (DIA: ND).
    if let Some(dm) = &direct {
        plan.push(dm.uf.clone());
        comp.add_stmt(Stmt::new(
            format!("mark values of {}", dm.uf),
            Kernel::UfWrite {
                uf: dm.mark.clone(),
                idx: map_dst_expr(&dm.value).sub(&dm.lo),
                value: LinExpr::constant(1),
            },
            scan.set.clone(),
        ));
        let sweep = dm.sweep_space();
        let (e, d) = (LinExpr::var(VarId(0)), LinExpr::var(VarId(1)));
        comp.add_stmt(Stmt::new(
            format!("number values of {} in ascending order", dm.uf),
            Kernel::UfWrite { uf: dm.inverse.clone(), idx: e.clone(), value: d.clone() },
            sweep.clone(),
        ));
        let sym = size_symbol(&dm.size)
            .ok_or_else(|| SynthesisError::NonSymbolicListLen(dm.uf.clone()))?;
        comp.add_stmt(Stmt::new(
            format!("set {sym} = {}", dm.counter),
            Kernel::SymSet { sym, value: LinExpr::sym(dm.counter.clone()) },
            empty.clone(),
        ));
        comp.add_stmt(Stmt::new(
            format!("alloc {}", dm.uf),
            Kernel::UfAlloc { uf: dm.uf.clone(), size: dm.size.clone(), init: LinExpr::zero() },
            empty.clone(),
        ));
        comp.add_stmt(Stmt::new(
            format!("materialize {} (enforce monotonic quantifier)", dm.uf),
            Kernel::UfWrite { uf: dm.uf.clone(), idx: d, value: e.add(&dm.lo) },
            sweep,
        ));
    }

    // --- Case 5: collect membership values, materialize, set symbols ----
    for m in analysis.memberships.iter().filter(|_| direct.is_none()) {
        plan.push(m.uf.clone());
        let list = format!("{LIST_PREFIX}{}", m.uf);
        comp.add_stmt(Stmt::new(
            format!("collect values of {}", m.uf),
            Kernel::ListInsert {
                list: list.clone(),
                args: vec![map_dst_expr(&m.value)],
            },
            scan.set.clone(),
        ));
        comp.add_stmt(Stmt::new(
            format!("finalize values of {} (enforce monotonic quantifier)", m.uf),
            Kernel::ListFinalize { list: list.clone() },
            empty.clone(),
        ));
        comp.add_stmt(Stmt::new(
            format!("materialize {}", m.uf),
            Kernel::ListToUf { list: list.clone(), dim: 0, uf: m.uf.clone() },
            empty.clone(),
        ));
        // The UF's domain size must be a plain symbol we can now set
        // (DIA: ND = |off|).
        let sig = dst
            .ufs
            .get(&m.uf)
            .ok_or_else(|| SynthesisError::MissingDomainInfo(m.uf.clone()))?;
        let size = domain_alloc_size(sig)
            .ok_or_else(|| SynthesisError::MissingDomainInfo(m.uf.clone()))?;
        let sym =
            size_symbol(&size).ok_or_else(|| SynthesisError::NonSymbolicListLen(m.uf.clone()))?;
        comp.add_stmt(Stmt::new(
            format!("set {sym} = |{}|", m.uf),
            Kernel::SymSetListLen { sym, list },
            empty.clone(),
        ));
    }

    // --- Destination data allocation ------------------------------------
    comp.add_stmt(Stmt::new(
        format!("alloc {}", dst.data_name),
        Kernel::DataAlloc { arr: dst.data_name.clone(), size_factors: dst.data_size.clone() },
        empty.clone(),
    ));

    // --- The write + copy loop over the (extended) source scan ----------
    let find_spec = if let (Some(&fv), None) = (find_vars.first(), &direct) {
        let DstVarKind::Find { uf } = &analysis.var_kinds[fv] else { unreachable!() };
        let m = analysis
            .memberships
            .iter()
            .find(|m| m.var == fv)
            .ok_or_else(|| SynthesisError::MissingDomainInfo(uf.clone()))?;
        let sig = dst
            .ufs
            .get(uf)
            .ok_or_else(|| SynthesisError::MissingDomainInfo(uf.clone()))?;
        let size = domain_alloc_size(sig)
            .ok_or_else(|| SynthesisError::MissingDomainInfo(uf.clone()))?;
        let binary = options.membership != Membership::Linear
            && sig.monotonicity == Some(Monotonicity::Increasing);
        Some(FindSpec {
            var: FIND_VAR.into(),
            uf: uf.clone(),
            lo: LinExpr::constant(0),
            hi: size,
            target: map_dst_expr(&m.value),
            binary,
        })
    } else {
        None
    };

    for w in &analysis.writes {
        plan.push(w.uf.clone());
        let stmt = Stmt::new(
            format!("populate {}", w.uf),
            Kernel::UfWrite {
                uf: w.uf.clone(),
                idx: map_dst_expr(&w.arg),
                value: map_dst_expr(&w.value),
            },
            copy_space.clone(),
        );
        comp.add_stmt(stmt);
    }
    for b in &analysis.bounds {
        if !plan.contains(&b.uf) {
            plan.push(b.uf.clone());
        }
        let kernel = if b.is_min {
            Kernel::UfMin {
                uf: b.uf.clone(),
                idx: map_dst_expr(&b.arg),
                value: map_dst_expr(&b.value),
            }
        } else {
            Kernel::UfMax {
                uf: b.uf.clone(),
                idx: map_dst_expr(&b.arg),
                // Case 3: uf(arg) >= value  =>  max update with value.
                value: map_dst_expr(&b.value),
            }
        };
        comp.add_stmt(Stmt::new(
            format!(
                "bound {} ({})",
                b.uf,
                if b.is_min { "case 2: min" } else { "case 3: max" }
            ),
            kernel,
            copy_space.clone(),
        ));
    }
    plan.push("copy".into());
    let mut copy_stmt = Stmt::new(
        "copy data",
        Kernel::Copy {
            dst: dst.data_name.clone(),
            dst_idx: map_dst_expr(&analysis.data_index),
            src: src.data_name.clone(),
            src_idx: scan_index_in_copy_space(&scan.data_index),
        },
        copy_space.clone(),
    );
    if let Some(f) = find_spec {
        copy_stmt = copy_stmt.with_find(f);
    }
    comp.add_stmt(copy_stmt);

    // --- Monotonic quantifier enforcement sweeps ------------------------
    for uf in &ptr_ufs {
        let sig = dst
            .ufs
            .get(uf)
            .ok_or_else(|| SynthesisError::MissingDomainInfo(uf.clone()))?;
        if sig.monotonicity.is_none() {
            continue;
        }
        // Backward sweep uf[size-2-e] = min(uf[size-2-e], uf[size-1-e])
        // over e in [0, size-1): repairs entries never min-updated
        // (empty rows) while preserving populated ones.
        let size = domain_alloc_size(sig)
            .ok_or_else(|| SynthesisError::MissingDomainInfo(uf.clone()))?;
        let mut sweep_space = Set::universe(vec!["e".into()]);
        {
            let conj = &mut sweep_space.conjunctions_mut()[0];
            conj.add(Constraint::ge(LinExpr::var(VarId(0)), LinExpr::zero()));
            conj.add(Constraint::lt(
                LinExpr::var(VarId(0)),
                size.add(&LinExpr::constant(-1)),
            ));
        }
        let idx = size.add(&LinExpr::constant(-2)).sub(&LinExpr::var(VarId(0)));
        let next = size.add(&LinExpr::constant(-1)).sub(&LinExpr::var(VarId(0)));
        comp.add_stmt(Stmt::new(
            format!("enforce monotonic quantifier on {uf}"),
            Kernel::UfMin {
                uf: uf.clone(),
                idx,
                value: LinExpr::uf(UfCall::new(uf.clone(), vec![next])),
            },
            sweep_space,
        ));
    }

    // --- Live-out and optimization ---------------------------------------
    for uf in dst.uf_names() {
        comp.mark_live(uf);
    }
    comp.mark_live(dst.data_name.clone());
    for s in &dst.extra_syms {
        comp.mark_live(s.clone());
    }

    let naive = comp.clone();
    let mut identity_eliminated = false;
    if options.optimize {
        // When the source scan already visits nonzeros in destination
        // order, `P` needs no sort. From contiguous storage it is the
        // identity: replace its rank lookups with the source position and
        // let DCE delete the chain. From padded storage it is a
        // compaction counter; an unordered destination keeps the scan
        // order, so the same holds there.
        let scan_order = matches!(&permutation, PermutationKind::Ordered { .. })
            && match (&src.order, &dst.order) {
                (Some(s), Some(d)) => s.implies(d),
                (_, None) => !src.contiguous_data,
                _ => false,
            };
        // Otherwise, when nonzeros that share the destination key's
        // leading dimension already come in destination order, `P` is a
        // compaction counter with one bucket per value of that dimension.
        let bucket = match (&permutation, &src.order, &dst.order) {
            (PermutationKind::Ordered { .. }, Some(s), Some(d)) => d.bucket_dim(s),
            _ => None,
        };
        if scan_order && src.contiguous_data {
            eliminate_identity_permutation(&mut comp, &scan.data_index);
            identity_eliminated = true;
        } else if scan_order {
            count_permutation(&mut comp);
        } else if let Some(dim) = bucket {
            let key = LinExpr::var(VarId(scan.dense_pos[dim] as u32));
            let extent = LinExpr::sym(dst.dim_syms[dim].clone());
            let p = LinExpr::var(VarId(p_pos as u32));
            place_by_buckets(&mut comp, dst, &key, &extent, &p);
        }
        spf_optimize(&mut comp);
    }

    // Facts about synthesis-introduced UFs, for the static verifier: the
    // permutation `P` is a rank into a finalized list (or a count) with
    // one entry per scanned nonzero, so its values lie in `[0, NNZ)`.
    // (Padded sources like ELL filter their padding in the scan set, and
    // `NNZ` is bound to the actual nonzero count, so the cardinality
    // equality holds for every scannable source.) A direct map's sweep
    // numbers the `ND` present values, so the counter and the inverse map
    // hold values in `[0, ND)`.
    let mut synth_ufs = UfEnvironment::new();
    if let Some(n) = comp.counter_bucket(PERM_NAME) {
        // A bucketed `P` holds counts, then bucket starts, then cursors:
        // every slot in `[0, n]` holds a value in `[0, NNZ]`.
        let nnz = LinExpr::sym(src.nnz_sym.clone());
        synth_ufs.insert(UfSignature {
            name: PERM_NAME.into(),
            arity: 1,
            domain: interval("x", LinExpr::zero(), n.add(&LinExpr::constant(1))),
            range: interval("r", LinExpr::zero(), nnz.add(&LinExpr::constant(1))),
            monotonicity: None,
        });
    } else if let PermutationKind::Ordered { width, .. } = &permutation {
        synth_ufs.insert(UfSignature {
            name: PERM_NAME.into(),
            arity: *width,
            domain: Set::universe((0..*width).map(|k| format!("k{k}")).collect()),
            range: interval("r", LinExpr::zero(), LinExpr::sym(src.nnz_sym.clone())),
            monotonicity: None,
        });
    }
    if let Some(dm) = &direct {
        let values = [
            (&dm.mark, LinExpr::constant(2)),
            (&dm.counter, dm.size.clone()),
            (&dm.inverse, dm.size.clone()),
        ];
        for (name, end) in values {
            synth_ufs.insert(UfSignature {
                name: name.clone(),
                arity: 1,
                domain: interval("x", LinExpr::zero(), dm.extent.clone()),
                range: interval("v", LinExpr::zero(), end),
                monotonicity: None,
            });
        }
    }

    Ok(SynthesizedConversion {
        src: src.clone(),
        dst: dst.clone(),
        composed,
        analysis,
        computation: comp,
        naive,
        permutation,
        identity_eliminated,
        synth_ufs,
        plan,
    })
}

/// Rewrites every `p = P(...)` definition to `p = source position`,
/// leaving the permutation unreferenced so dead-code elimination removes
/// it — the optimization behind the paper's COO→CSR result.
fn eliminate_identity_permutation(comp: &mut Computation, src_data_index: &LinExpr) {
    for stmt in &mut comp.stmts {
        let arity = stmt.iter_space.tuple().len();
        for conj in stmt.iter_space.conjunctions_mut() {
            for c in &mut conj.constraints {
                if c.mentions_uf(PERM_NAME) {
                    // The constraint is `p - P(...) = 0` with `p` the last
                    // tuple position; rebuild it as `p - src_index = 0`.
                    let p = VarId((arity - 1) as u32);
                    *c = Constraint::eq(LinExpr::var(p), src_data_index.clone());
                }
            }
        }
    }
    // Re-simplify spaces (sort constraints) so structural equality for
    // fusion still holds across statements.
    for stmt in &mut comp.stmts {
        stmt.iter_space.simplify();
    }
}

/// Replaces the permutation list `P` by a compaction counter: the insert
/// loop and the finalize go, and each `p = P(...)` binding in the copy
/// loop takes the next count instead of a rank.
fn count_permutation(comp: &mut Computation) {
    comp.stmts.retain(|s| {
        !matches!(&s.kernel,
            Kernel::ListInsert { list, .. } | Kernel::ListFinalize { list } if list == PERM_NAME)
    });
    for s in &mut comp.stmts {
        if matches!(&s.kernel, Kernel::ListDecl { list, .. } if list == PERM_NAME) {
            s.label = format!("declare compaction counter {PERM_NAME}");
            s.kernel = Kernel::CounterDecl { counter: PERM_NAME.into(), bucket: None };
        }
    }
}

/// Replaces the sorted permutation `P` by counting placement, a
/// compaction counter with one cursor per value of the bucket `key`
/// (over the scan tuple) in `[0, extent)`: the insert loop becomes a
/// histogram `P[key + 1] += 1`, the finalize a prefix sum that turns the
/// counts into bucket starts, and each `p = P(...)` binding takes the next
/// cursor of its bucket, `p = P(key)`. A pointer array that the copy loop
/// bounds by `ptr(key) <= p` is then the prefix sum itself: it is copied
/// from `P` before the copy loop, and its min/max updates and repair
/// sweep go.
fn place_by_buckets(
    comp: &mut Computation,
    dst: &FormatDescriptor,
    key: &LinExpr,
    extent: &LinExpr,
    p: &LinExpr,
) {
    let slot = |off: i64| LinExpr::var(VarId(0)).add(&LinExpr::constant(off));
    let read = |e: LinExpr| LinExpr::uf(UfCall::new(PERM_NAME, vec![e]));
    let slots = extent.add(&LinExpr::constant(1));
    let is_pointer = |uf: &str| {
        dst.ufs.get(uf).is_some_and(|sig| {
            sig.monotonicity == Some(Monotonicity::NonDecreasing)
                && domain_alloc_size(sig).as_ref() == Some(&slots)
        })
    };
    let pointers: Vec<String> = comp
        .stmts
        .iter()
        .filter_map(|s| match &s.kernel {
            Kernel::UfMin { uf, idx, value } if idx == key && value == p && is_pointer(uf) => {
                Some(uf.clone())
            }
            _ => None,
        })
        .collect();
    let mut out = Vec::with_capacity(comp.stmts.len());
    for mut s in std::mem::take(&mut comp.stmts) {
        match &s.kernel {
            Kernel::ListDecl { list, .. } if list == PERM_NAME => {
                s.label = format!("declare compaction counter {PERM_NAME} with {extent} buckets");
                s.kernel = Kernel::CounterDecl {
                    counter: PERM_NAME.into(),
                    bucket: Some(extent.clone()),
                };
            }
            Kernel::ListInsert { list, .. } if list == PERM_NAME => {
                let at = key.add(&LinExpr::constant(1));
                s.label = format!("count nonzeros per bucket of {PERM_NAME}");
                s.kernel = Kernel::UfWrite {
                    uf: PERM_NAME.into(),
                    idx: at.clone(),
                    value: read(at).add(&LinExpr::constant(1)),
                };
            }
            Kernel::ListFinalize { list } if list == PERM_NAME => {
                s.label = format!("prefix-sum {PERM_NAME} into bucket starts");
                s.kernel = Kernel::UfWrite {
                    uf: PERM_NAME.into(),
                    idx: slot(1),
                    value: read(slot(1)).add(&read(slot(0))),
                };
                s.iter_space = interval("e", LinExpr::zero(), extent.clone());
                out.push(s);
                for uf in &pointers {
                    out.push(Stmt::new(
                        format!("populate {uf} as the prefix sum of counts"),
                        Kernel::UfWrite { uf: uf.clone(), idx: slot(0), value: read(slot(0)) },
                        interval("e", LinExpr::zero(), slots.clone()),
                    ));
                }
                continue;
            }
            Kernel::UfMin { uf, .. } | Kernel::UfMax { uf, .. } if pointers.contains(uf) => {
                continue
            }
            _ => {}
        }
        for conj in s.iter_space.conjunctions_mut() {
            for c in &mut conj.constraints {
                if c.mentions_uf(PERM_NAME) {
                    *c = Constraint::eq(p.clone(), read(key.clone()));
                }
            }
        }
        out.push(s);
    }
    comp.stmts = out;
}

/// The destination order key dims as expressions over the scan tuple.
fn key_exprs(key: &spf_ir::OrderKey, dense_pos: &[usize]) -> Vec<LinExpr> {
    key.dims
        .iter()
        .map(|d| {
            let mut e = LinExpr::constant(d.constant);
            for (dim, c) in d.coeffs.iter().enumerate() {
                if *c != 0 {
                    e.add_assign(&LinExpr::var(VarId(dense_pos[dim] as u32)).scaled(*c));
                }
            }
            e
        })
        .collect()
}

fn comparator_spec(c: &Comparator) -> ListOrderSpec {
    match c {
        Comparator::Lexicographic => ListOrderSpec::Lexicographic,
        Comparator::Morton => ListOrderSpec::Morton,
        Comparator::UserFn(name) => ListOrderSpec::Custom(name.clone()),
    }
}

/// The source data index is already expressed over the scan tuple, whose
/// positions are unchanged inside the copy space (extensions append).
fn scan_index_in_copy_space(e: &LinExpr) -> LinExpr {
    e.clone()
}

/// The symbol `s` when `size` is exactly `s` (DIA: `ND`).
fn size_symbol(size: &LinExpr) -> Option<String> {
    match size.terms.as_slice() {
        [(1, Atom::Sym(s))] if size.constant == 0 => Some(s.clone()),
        _ => None,
    }
}

/// `{ [var] : lo <= var < hi }`.
fn interval(var: &str, lo: LinExpr, hi: LinExpr) -> Set {
    let mut s = Set::universe(vec![var.into()]);
    let conj = &mut s.conjunctions_mut()[0];
    conj.add(Constraint::ge(LinExpr::var(VarId(0)), lo));
    conj.add(Constraint::lt(LinExpr::var(VarId(0)), hi));
    s
}

/// The inclusive ends `(lo, hi)` of a UF's declared range when it is one
/// interval whose ends are sums of symbols and constants (DIA's
/// `-NR < o < NC` gives `(1 - NR, NC - 1)`).
fn range_interval(sig: &UfSignature) -> Option<(LinExpr, LinExpr)> {
    let [conj] = sig.range.conjunctions() else { return None };
    let v = VarId(0);
    let (mut lo, mut hi) = (None, None);
    for c in &conj.constraints {
        let spf_ir::Constraint::Geq(e) = c else { return None };
        let mut rest = e.clone();
        rest.terms.retain(|(_, a)| !matches!(a, Atom::Var(w) if *w == v));
        if !rest.terms.iter().all(|(_, a)| matches!(a, Atom::Sym(_))) {
            return None;
        }
        // `o + rest >= 0` bounds `o` below by `-rest`; `rest - o >= 0`
        // bounds it above by `rest`.
        match e.coeff_of_var(v) {
            1 if lo.is_none() => lo = Some(rest.scaled(-1)),
            -1 if hi.is_none() => hi = Some(rest),
            _ => return None,
        }
    }
    Some((lo?, hi?))
}

/// Appends a fresh tuple variable to a set.
fn extend_tuple(s: &Set, name: &str) -> Set {
    let mut tuple = s.tuple().to_vec();
    tuple.push(name.to_string());
    let new_arity = tuple.len() as u32;
    let conjs = s
        .conjunctions()
        .iter()
        .map(|c| {
            let mut nc = spf_ir::Conjunction::new(new_arity);
            for e in c.exists() {
                nc.fresh_exist(e.clone());
            }
            // Existing var ids keep their positions: tuple vars 0..n stay,
            // old existentials shift up by one.
            let old_arity = s.arity();
            for con in &c.constraints {
                nc.add(con.map_vars(&mut |v: VarId| {
                    if v.0 < old_arity {
                        LinExpr::var(v)
                    } else {
                        LinExpr::var(VarId(v.0 + 1))
                    }
                }));
            }
            nc
        })
        .collect();
    Set::from_conjunctions(tuple, conjs)
}

/// Adds the equality `var = def` to every conjunction of a set.
fn add_eq(s: &mut Set, var: VarId, def: LinExpr) {
    for conj in s.conjunctions_mut() {
        conj.add(Constraint::eq(LinExpr::var(var), def.clone()));
    }
}
