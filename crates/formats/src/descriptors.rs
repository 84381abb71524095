//! Sparse format descriptors — §3.1 and Table 1 of the paper.
//!
//! A [`FormatSpec`] packages everything the synthesis algorithm needs
//! about a format:
//!
//! * the **sparse-to-dense map** (a [`Relation`] from the sparse iteration
//!   space to dense coordinates),
//! * the **data access relation** (sparse iteration space → data index),
//! * the **domain and range of every uninterpreted function** (a
//!   [`UfEnvironment`] of [`UfSignature`]s, including monotonicity
//!   properties), and
//! * the **universal quantifiers**: monotonic quantifiers live on the UF
//!   signatures; reordering quantifiers are captured semantically as an
//!   [`OrderKey`] over the dense coordinates.
//!
//! Additionally each descriptor that can act as a conversion *source*
//! carries a [`ScanInfo`]: an executable iteration set over
//! `[sparse positions..., dense coords...]` whose loop nest enumerates the
//! stored nonzeros (this is what the sparse-to-dense map denotes,
//! pre-simplified so the code generator can scan it directly).
//!
//! A [`FormatDescriptor`] is a spec frozen behind an [`Arc`] together
//! with its structural fingerprint, computed once when the descriptor is
//! built. Descriptors are immutable: the catalog constructors,
//! `FormatSpec { .. }.into()`, [`FormatDescriptor::edit`] and
//! [`FormatDescriptor::with_suffix`] are the only ways to obtain one, so
//! a fingerprint can never go stale and a plan-cache lookup never
//! re-renders a descriptor.

use std::collections::BTreeMap;
use std::fmt::{self, Write as _};
use std::ops::Deref;
use std::sync::Arc;

use spf_ir::expr::{Atom, LinExpr, VarId};
use spf_ir::formula::{Relation, Set};
use spf_ir::order::{KeyDim, OrderKey};
use spf_ir::parser::{parse_relation, parse_set};
use spf_ir::uf::{Monotonicity, UfEnvironment, UfSignature};

/// How to iterate a format as a conversion source.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScanInfo {
    /// Iteration set over `[sparse..., dense...]`; scanning it visits each
    /// stored nonzero once with the dense coordinates bound.
    pub set: Set,
    /// Tuple position of each dense coordinate (`dense_pos[d]` = where
    /// dense dimension `d` lives in `set`'s tuple).
    pub dense_pos: Vec<usize>,
    /// Source data index of the current nonzero, over `set`'s tuple.
    pub data_index: LinExpr,
}

/// A complete sparse tensor format description (one row of Table 1), as
/// plain editable data. Freeze it into a [`FormatDescriptor`] with
/// `.into()` to use it for synthesis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FormatSpec {
    /// Format name, e.g. `"CSR"`.
    pub name: String,
    /// Dense rank (2 for matrices, 3 for order-3 tensors).
    pub rank: usize,
    /// The sparse-to-dense map `R_{A_fmt -> A_D}`.
    pub sparse_to_dense: Relation,
    /// The data access relation `D_{I_fmt -> A_fmt}`.
    pub data_access: Relation,
    /// Source-side executable iteration information; `None` for formats
    /// not yet supported as sources (e.g. DIA, whose stored entries
    /// include padding).
    pub scan: Option<ScanInfo>,
    /// Signatures of this format's uninterpreted functions.
    pub ufs: UfEnvironment,
    /// The reordering universal quantifier, as an order over dense
    /// coordinates; `None` when nonzero order is unconstrained.
    pub order: Option<OrderKey>,
    /// Name of the data array (e.g. `"Acsr"`).
    pub data_name: String,
    /// Size of the data array as a product of factors over symbolic
    /// constants (products let DIA declare `ND * NR`).
    pub data_size: Vec<LinExpr>,
    /// Shape symbols per dense dimension, e.g. `["NR", "NC"]`.
    pub dim_syms: Vec<String>,
    /// The nonzero-count symbol (shared by all formats of one tensor).
    pub nnz_sym: String,
    /// Symbols owned by this format that synthesis must produce when it
    /// is the destination (e.g. DIA's `ND`).
    pub extra_syms: Vec<String>,
    /// Per dense dimension, the UF of this format that stores that
    /// coordinate directly, if any (e.g. COO: `[row1, col1]`). Used to
    /// render reordering quantifiers in the paper's notation.
    pub coord_ufs: Vec<Option<String>>,
    /// `true` when the data index enumerates the stored nonzeros densely
    /// (`0..NNZ` with no gaps) — COO/CSR/CSC-style layouts. Padded
    /// layouts (ELL, DIA) set `false`; synthesis then may not substitute
    /// the source data index for a destination rank.
    pub contiguous_data: bool,
}

/// A frozen [`FormatSpec`] and its structural fingerprint. Clones share
/// the spec; fields read through `Deref`, and no method hands out a
/// mutable spec, so the fingerprint always describes the spec it sits
/// beside.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FormatDescriptor {
    // First, so the derived `PartialEq` compares fingerprints before
    // walking the specs.
    fingerprint: u64,
    spec: Arc<FormatSpec>,
}

impl From<FormatSpec> for FormatDescriptor {
    fn from(spec: FormatSpec) -> Self {
        FormatDescriptor {
            fingerprint: spec.structural_hash(),
            spec: Arc::new(spec),
        }
    }
}

impl Deref for FormatDescriptor {
    type Target = FormatSpec;

    fn deref(&self) -> &FormatSpec {
        &self.spec
    }
}

/// The classification of a descriptor onto a runtime container family,
/// derived from the descriptor's *structure* (monotonic pointer UFs,
/// stored-coordinate UFs, data contiguity, and order key) rather than its
/// name. Generic bind/extract dispatch keys on this.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FormatKind {
    /// Unordered coordinate storage ([`crate::CooMatrix`]).
    Coo,
    /// Lexicographically ordered coordinate storage (row- or column-major;
    /// container is still [`crate::CooMatrix`]).
    SortedCoo,
    /// Morton-ordered coordinate storage ([`crate::MortonCooMatrix`]).
    MortonCoo,
    /// Compressed rows ([`crate::CsrMatrix`]).
    Csr,
    /// Compressed columns ([`crate::CscMatrix`]).
    Csc,
    /// Diagonal storage ([`crate::DiaMatrix`]).
    Dia,
    /// Padded slot-per-row storage ([`crate::EllMatrix`]).
    Ell,
    /// Order-3 coordinate storage ([`crate::Coo3Tensor`]), sorted or not.
    Coo3,
    /// Morton-ordered order-3 coordinates ([`crate::MortonCoo3Tensor`]).
    MortonCoo3,
    /// No runtime container maps onto this descriptor (e.g. BCSR, whose
    /// blocked map is outside the synthesizable fragment).
    Unsupported,
}

/// FNV-1a, the stable structural hash behind
/// [`FormatDescriptor::fingerprint`]. Not `DefaultHasher`: descriptor
/// fingerprints key the conversion-engine plan cache and must be
/// identical across processes and builds.
#[derive(Debug, Clone)]
pub struct StructuralHasher {
    state: u64,
}

impl StructuralHasher {
    /// Fresh hasher at the FNV-1a offset basis.
    pub fn new() -> Self {
        StructuralHasher { state: 0xcbf2_9ce4_8422_2325 }
    }

    /// Absorbs raw bytes.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= b as u64;
            self.state = self.state.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    /// Absorbs a length-prefixed string (prefixing prevents adjacent
    /// fields from sliding into each other).
    pub fn write_str(&mut self, s: &str) {
        self.write_u64(s.len() as u64);
        self.write(s.as_bytes());
    }

    /// Absorbs a value's `Display` rendering without materializing it as
    /// a `String`. Framed by a trailing length, equivalent in collision
    /// resistance to [`StructuralHasher::write_str`]'s leading one.
    pub fn write_display(&mut self, value: impl fmt::Display) {
        struct Absorb<'a> {
            h: &'a mut StructuralHasher,
            n: u64,
        }
        impl fmt::Write for Absorb<'_> {
            fn write_str(&mut self, s: &str) -> fmt::Result {
                self.h.write(s.as_bytes());
                self.n += s.len() as u64;
                Ok(())
            }
        }
        let mut sink = Absorb { h: self, n: 0 };
        let _ = write!(sink, "{value}");
        let n = sink.n;
        self.write_u64(n);
    }

    /// Absorbs a `u64`.
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// The accumulated 64-bit hash.
    pub fn finish(&self) -> u64 {
        self.state
    }
}

impl Default for StructuralHasher {
    fn default() -> Self {
        StructuralHasher::new()
    }
}

impl FormatDescriptor {
    /// A stable 64-bit fingerprint of this descriptor's *structural
    /// content*: the sparse-to-dense and data-access relations, every UF
    /// signature (name, domain, range, monotonicity), the scan info, the
    /// order key, and the shape/data symbols.
    ///
    /// Two clones always agree; any structural edit (changing a UF
    /// domain, the order key, a relation constraint, …) changes the
    /// fingerprint. The conversion engine keys its plan cache on this, so
    /// the hash is deterministic across processes (FNV-1a over canonical
    /// renderings, never pointer or `HashMap`-order identity). It is
    /// computed once, when the descriptor is built; this is a field read.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// A new descriptor: a copy of this one's spec with `f` applied,
    /// fingerprinted afresh.
    pub fn edit(&self, f: impl FnOnce(&mut FormatSpec)) -> FormatDescriptor {
        let mut spec = FormatSpec::clone(self);
        f(&mut spec);
        spec.into()
    }

    /// Returns a copy with every UF name, the data name, and the
    /// format-owned symbols suffixed by `suffix` — used when source and
    /// destination formats would otherwise share names (e.g. COO →
    /// sorted-COO).
    pub fn with_suffix(&self, suffix: &str) -> FormatDescriptor {
        self.edit(|spec| spec.add_suffix(suffix))
    }
}

impl FormatSpec {
    /// The text-rendering structural hash behind
    /// [`FormatDescriptor::fingerprint`]; run once per built descriptor.
    fn structural_hash(&self) -> u64 {
        // Deliberately skips `self.name`: the fingerprint captures what
        // the descriptor *means*, so renaming a format (or reusing a
        // descriptor under another label) still hits the same cached plan.
        let mut h = StructuralHasher::new();
        h.write_u64(self.rank as u64);
        h.write_display(&self.sparse_to_dense);
        h.write_display(&self.data_access);
        match &self.scan {
            None => h.write_u64(0),
            Some(scan) => {
                h.write_u64(1);
                h.write_display(&scan.set);
                h.write_u64(scan.dense_pos.len() as u64);
                for &p in &scan.dense_pos {
                    h.write_u64(p as u64);
                }
                h.write_display(&scan.data_index);
            }
        }
        // UfEnvironment iterates in deterministic (name) order.
        h.write_u64(self.ufs.iter().count() as u64);
        for sig in self.ufs.iter() {
            h.write_str(&sig.name);
            h.write_u64(sig.arity as u64);
            h.write_display(&sig.domain);
            h.write_display(&sig.range);
            match sig.monotonicity {
                None => h.write_u64(0),
                Some(m) => {
                    h.write_u64(1);
                    h.write_display(m);
                }
            }
        }
        match &self.order {
            None => h.write_u64(0),
            Some(k) => {
                h.write_u64(1);
                h.write_display(k);
            }
        }
        h.write_str(&self.data_name);
        h.write_u64(self.data_size.len() as u64);
        for e in &self.data_size {
            h.write_display(e);
        }
        h.write_u64(self.dim_syms.len() as u64);
        for s in &self.dim_syms {
            h.write_str(s);
        }
        h.write_str(&self.nnz_sym);
        h.write_u64(self.extra_syms.len() as u64);
        for s in &self.extra_syms {
            h.write_str(s);
        }
        h.write_u64(self.coord_ufs.len() as u64);
        for c in &self.coord_ufs {
            match c {
                None => h.write_u64(0),
                Some(n) => {
                    h.write_u64(1);
                    h.write_str(n);
                }
            }
        }
        h.write_u64(self.contiguous_data as u64);
        h.finish()
    }

    /// Classifies this descriptor onto a runtime container family (see
    /// [`FormatKind`]) from its structure alone.
    pub fn kind(&self) -> FormatKind {
        use spf_ir::order::Comparator;
        let pointer = self
            .ufs
            .iter()
            .find(|s| s.monotonicity == Some(spf_ir::uf::Monotonicity::NonDecreasing));
        let increasing = self
            .ufs
            .iter()
            .any(|s| s.monotonicity == Some(spf_ir::uf::Monotonicity::Increasing));
        match self.rank {
            2 => {
                if pointer.is_some() {
                    // Compressed along one dimension: the stored
                    // coordinate UF says which.
                    if self.coord_ufs.get(1).is_some_and(Option::is_some) {
                        FormatKind::Csr
                    } else if self.coord_ufs.first().is_some_and(Option::is_some) {
                        FormatKind::Csc
                    } else {
                        FormatKind::Unsupported
                    }
                } else if !self.contiguous_data {
                    // Padded layouts: DIA declares a strictly increasing
                    // offset UF, ELL a plain padded column UF.
                    if increasing && self.extra_syms.len() == 1 {
                        FormatKind::Dia
                    } else if self.extra_syms.len() == 1 {
                        FormatKind::Ell
                    } else {
                        FormatKind::Unsupported
                    }
                } else if self.coord_ufs.iter().all(Option::is_some) {
                    match &self.order {
                        None => FormatKind::Coo,
                        Some(k) if k.comparator == Comparator::Morton => FormatKind::MortonCoo,
                        Some(_) => FormatKind::SortedCoo,
                    }
                } else {
                    FormatKind::Unsupported
                }
            }
            3 => {
                if !self.contiguous_data || !self.coord_ufs.iter().all(Option::is_some) {
                    return FormatKind::Unsupported;
                }
                match &self.order {
                    Some(k) if k.comparator == Comparator::Morton => FormatKind::MortonCoo3,
                    _ => FormatKind::Coo3,
                }
            }
            _ => FormatKind::Unsupported,
        }
    }

    /// Renders the paper's universal-quantifier column for this format:
    /// the reordering quantifier (if any) followed by each monotonic
    /// quantifier.
    pub fn quantifier_texts(&self) -> Vec<String> {
        let mut out = Vec::new();
        if let Some(order) = &self.order {
            let coord_names: Vec<String> = self
                .coord_ufs
                .iter()
                .enumerate()
                .map(|(d, u)| u.clone().unwrap_or_else(|| format!("d{d}")))
                .collect();
            out.push(order.quantifier_text(&coord_names));
        }
        for sig in self.ufs.iter() {
            if let Some(m) = sig.monotonicity {
                out.push(m.quantifier_text(&sig.name));
            }
        }
        out
    }

    /// Renders the full Table-1 row (maps, domains/ranges, quantifiers).
    pub fn table1_row(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!("Format: {}\n", self.name));
        s.push_str(&format!("  R_{{A_{} -> A_D}} = {}\n", self.name, self.sparse_to_dense));
        s.push_str(&format!(
            "  D_{{I_{} -> A_{}}} = {}\n",
            self.name, self.name, self.data_access
        ));
        for sig in self.ufs.iter() {
            s.push_str(&format!(
                "  domain({}) = {}, range({}) = {}\n",
                sig.name, sig.domain, sig.name, sig.range
            ));
        }
        for q in self.quantifier_texts() {
            s.push_str(&format!("  {q}\n"));
        }
        s
    }

    /// All uninterpreted-function names of this format.
    pub fn uf_names(&self) -> Vec<String> {
        self.ufs.iter().map(|s| s.name.clone()).collect()
    }

    /// Suffixes every UF name, the data name, and the format-owned
    /// symbols by `suffix` (see [`FormatDescriptor::with_suffix`]).
    fn add_suffix(&mut self, suffix: &str) {
        let mut map: BTreeMap<String, String> = BTreeMap::new();
        for name in self.uf_names() {
            map.insert(name.clone(), format!("{name}{suffix}"));
        }
        for sym in &self.extra_syms {
            map.insert(sym.clone(), format!("{sym}{suffix}"));
        }
        self.name = format!("{}{suffix}", self.name);
        self.data_name = format!("{}{suffix}", self.data_name);
        rename_in_relation(&mut self.sparse_to_dense, &map);
        rename_in_relation(&mut self.data_access, &map);
        if let Some(scan) = &mut self.scan {
            rename_in_set(&mut scan.set, &map);
            scan.data_index = rename_in_expr(&scan.data_index, &map);
        }
        self.data_size = self.data_size.iter().map(|e| rename_in_expr(e, &map)).collect();
        let mut ufs = UfEnvironment::new();
        for sig in self.ufs.iter() {
            let mut sig = sig.clone();
            sig.name = map[&sig.name].clone();
            // Domains/ranges mention shared shape symbols only; rename
            // format-owned symbols inside them too.
            rename_in_set(&mut sig.domain, &map);
            rename_in_set(&mut sig.range, &map);
            ufs.insert(sig);
        }
        self.ufs = ufs;
        for s in &mut self.extra_syms {
            if let Some(n) = map.get(s) {
                s.clone_from(n);
            }
        }
        for n in self.coord_ufs.iter_mut().flatten() {
            if let Some(m) = map.get(n) {
                n.clone_from(m);
            }
        }
    }
}

/// Renames UF calls and symbols in an expression per `map`.
fn rename_in_expr(e: &LinExpr, map: &BTreeMap<String, String>) -> LinExpr {
    fn rename_atom(a: &Atom, map: &BTreeMap<String, String>) -> Atom {
        match a {
            Atom::Var(v) => Atom::Var(*v),
            Atom::Sym(s) => Atom::Sym(map.get(s).cloned().unwrap_or_else(|| s.clone())),
            Atom::Uf(u) => {
                let name = map.get(&u.name).cloned().unwrap_or_else(|| u.name.clone());
                Atom::Uf(spf_ir::UfCall::new(
                    name,
                    u.args.iter().map(|x| rename_in_expr(x, map)).collect(),
                ))
            }
            Atom::Prod(fs) => Atom::Prod(fs.iter().map(|x| rename_atom(x, map)).collect()),
        }
    }
    let mut out = LinExpr::constant(e.constant);
    for (c, a) in &e.terms {
        out.terms.push((*c, rename_atom(a, map)));
    }
    out.canonicalize();
    out
}

/// Renames UF calls and symbols throughout a set.
pub fn rename_in_set(s: &mut Set, map: &BTreeMap<String, String>) {
    for conj in s.conjunctions_mut() {
        for c in &mut conj.constraints {
            *c.expr_mut() = rename_in_expr(c.expr(), map);
        }
    }
}

/// Renames UF calls and symbols throughout a relation.
pub fn rename_in_relation(r: &mut Relation, map: &BTreeMap<String, String>) {
    for conj in r.conjunctions_mut() {
        for c in &mut conj.constraints {
            *c.expr_mut() = rename_in_expr(c.expr(), map);
        }
    }
}

/// Extracts the (exclusive) allocation size of a unary UF from its domain
/// set: the tightest upper bound plus one. E.g. `{[x] : 0 <= x <= NR}`
/// gives `NR + 1`, `{[x] : 0 <= x < NNZ}` gives `NNZ`.
pub fn domain_alloc_size(sig: &UfSignature) -> Option<LinExpr> {
    let conj = sig.domain.conjunctions().first()?;
    let v = VarId(0);
    let mut best: Option<LinExpr> = None;
    for c in &conj.constraints {
        let spf_ir::Constraint::Geq(e) = c else { continue };
        if e.coeff_of_var(v) == -1 && !e.var_inside_uf(v) {
            // -x + rest >= 0  =>  x <= rest  =>  size = rest + 1
            let mut rest = e.clone();
            rest.terms.retain(|(_, a)| !matches!(a, Atom::Var(w) if *w == v));
            let size = rest.add(&LinExpr::constant(1));
            // Prefer the first (descriptors declare a single upper bound).
            if best.is_none() {
                best = Some(size);
            }
        }
    }
    best
}

/// Extracts the initialization value for min-style population of a UF:
/// the (inclusive) maximum of its range, used as the "+infinity" initial
/// value. E.g. range `{[y] : 0 <= y <= NNZ}` gives `NNZ`.
pub fn range_max(sig: &UfSignature) -> Option<LinExpr> {
    let conj = sig.range.conjunctions().first()?;
    let v = VarId(0);
    for c in &conj.constraints {
        let spf_ir::Constraint::Geq(e) = c else { continue };
        if e.coeff_of_var(v) == -1 && !e.var_inside_uf(v) {
            let mut rest = e.clone();
            rest.terms.retain(|(_, a)| !matches!(a, Atom::Var(w) if *w == v));
            return Some(rest);
        }
    }
    None
}

// The three parsers below consume only string literals baked into this
// module (the Table 1 catalog); a parse failure is a typo-in-the-source
// class of bug that every descriptor unit test hits immediately, so
// panicking is correct and the no-panic lint is waived.

#[allow(clippy::expect_used)]
fn sig(
    name: &str,
    domain: &str,
    range: &str,
    mono: Option<Monotonicity>,
) -> UfSignature {
    UfSignature::parse(name, domain, range, mono).expect("static signature parses")
}

#[allow(clippy::expect_used)]
fn simplified_set(src: &str) -> Set {
    let mut s = parse_set(src).expect("static set parses");
    s.simplify();
    s
}

#[allow(clippy::expect_used)]
fn rel(src: &str) -> Relation {
    parse_relation(src).expect("static relation parses")
}

/// The COO descriptor (Table 1, row `COO`): unordered coordinate storage
/// with UFs `row1`, `col1`.
pub fn coo() -> FormatDescriptor {
    let mut ufs = UfEnvironment::new();
    ufs.insert(sig("row1", "{ [x] : 0 <= x < NNZ }", "{ [i] : 0 <= i < NR }", None));
    ufs.insert(sig("col1", "{ [x] : 0 <= x < NNZ }", "{ [j] : 0 <= j < NC }", None));
    FormatSpec {
        name: "COO".into(),
        rank: 2,
        sparse_to_dense: rel(
            "{ [n, ii, jj] -> [i, j] : row1(n) = i && col1(n) = j && ii = i && jj = j \
             && 0 <= i < NR && 0 <= j < NC && 0 <= n < NNZ }",
        ),
        data_access: rel("{ [n, ii, jj] -> [d0] : d0 = n }"),
        scan: Some(ScanInfo {
            set: simplified_set(
                "{ [n, i, j] : i = row1(n) && j = col1(n) && 0 <= n < NNZ }",
            ),
            dense_pos: vec![1, 2],
            data_index: LinExpr::var(VarId(0)),
        }),
        ufs,
        order: None,
        data_name: "Acoo".into(),
        data_size: vec![LinExpr::sym("NNZ")],
        dim_syms: vec!["NR".into(), "NC".into()],
        nnz_sym: "NNZ".into(),
        extra_syms: vec![],
        coord_ufs: vec![Some("row1".into()), Some("col1".into())],
        contiguous_data: true,
    }
    .into()
}

/// Sorted COO: the paper's evaluation source ("COO is assumed to be
/// sorted lexicographically row first") — COO plus a lexicographic
/// reordering quantifier.
pub fn scoo() -> FormatDescriptor {
    coo().edit(|d| {
        d.name = "SCOO".into();
        d.order = Some(OrderKey::row_major(2));
    })
}

/// The CSR descriptor (Table 1, row `CSR`): monotonic `rowptr` plus
/// row-major-ordered `col2`.
pub fn csr() -> FormatDescriptor {
    let mut ufs = UfEnvironment::new();
    ufs.insert(sig(
        "rowptr",
        "{ [x] : 0 <= x <= NR }",
        "{ [n] : 0 <= n <= NNZ }",
        Some(Monotonicity::NonDecreasing),
    ));
    ufs.insert(sig("col2", "{ [x] : 0 <= x < NNZ }", "{ [j] : 0 <= j < NC }", None));
    FormatSpec {
        name: "CSR".into(),
        rank: 2,
        sparse_to_dense: rel(
            "{ [ii, k, jj] -> [i, j] : ii = i && jj = j && col2(k) = j \
             && 0 <= ii < NR && rowptr(ii) <= k < rowptr(ii + 1) }",
        ),
        data_access: rel("{ [ii, k, jj] -> [d0] : d0 = k }"),
        scan: Some(ScanInfo {
            set: simplified_set(
                "{ [i, k, j] : 0 <= i < NR && rowptr(i) <= k < rowptr(i + 1) \
                 && j = col2(k) }",
            ),
            dense_pos: vec![0, 2],
            data_index: LinExpr::var(VarId(1)),
        }),
        ufs,
        order: Some(OrderKey::row_major(2)),
        data_name: "Acsr".into(),
        data_size: vec![LinExpr::sym("NNZ")],
        dim_syms: vec!["NR".into(), "NC".into()],
        nnz_sym: "NNZ".into(),
        extra_syms: vec![],
        coord_ufs: vec![None, Some("col2".into())],
        contiguous_data: true,
    }
    .into()
}

/// The CSC descriptor (Table 1, row `CSC`): monotonic `colptr` plus
/// column-major-ordered `row`.
pub fn csc() -> FormatDescriptor {
    let mut ufs = UfEnvironment::new();
    ufs.insert(sig(
        "colptr",
        "{ [x] : 0 <= x <= NC }",
        "{ [n] : 0 <= n <= NNZ }",
        Some(Monotonicity::NonDecreasing),
    ));
    ufs.insert(sig("row", "{ [x] : 0 <= x < NNZ }", "{ [i] : 0 <= i < NR }", None));
    FormatSpec {
        name: "CSC".into(),
        rank: 2,
        sparse_to_dense: rel(
            "{ [jj, k, ii] -> [i, j] : jj = j && ii = i && row(k) = i \
             && 0 <= jj < NC && colptr(jj) <= k < colptr(jj + 1) }",
        ),
        data_access: rel("{ [jj, k, ii] -> [d0] : d0 = k }"),
        scan: Some(ScanInfo {
            set: simplified_set(
                "{ [j, k, i] : 0 <= j < NC && colptr(j) <= k < colptr(j + 1) \
                 && i = row(k) }",
            ),
            dense_pos: vec![2, 0],
            data_index: LinExpr::var(VarId(1)),
        }),
        ufs,
        // Column-major: sort by (j, i).
        order: Some(OrderKey::lex(vec![KeyDim::coord(2, 1), KeyDim::coord(2, 0)])),
        data_name: "Acsc".into(),
        data_size: vec![LinExpr::sym("NNZ")],
        dim_syms: vec!["NR".into(), "NC".into()],
        nnz_sym: "NNZ".into(),
        extra_syms: vec![],
        coord_ufs: vec![Some("row".into()), None],
        contiguous_data: true,
    }
    .into()
}

/// The DIA descriptor (Table 1, row `DIA`): strictly increasing `off`
/// with dense per-diagonal storage addressed `kd = ND * ii + d`.
pub fn dia() -> FormatDescriptor {
    let mut ufs = UfEnvironment::new();
    ufs.insert(sig(
        "off",
        "{ [x] : 0 <= x < ND }",
        "{ [o] : 0 - NR < o && o < NC }",
        Some(Monotonicity::Increasing),
    ));
    FormatSpec {
        name: "DIA".into(),
        rank: 2,
        sparse_to_dense: rel(
            "{ [ii, d, jj] -> [i, j] : i = ii && 0 <= i < NR && 0 <= d < ND \
             && j = i + off(d) && 0 <= j < NC && jj = j }",
        ),
        data_access: rel("{ [ii, d, jj] -> [kd] : kd = ND * ii + d }"),
        // DIA stores padding, so it is not supported as a conversion
        // source in this release.
        scan: None,
        ufs,
        order: None,
        data_name: "Adia".into(),
        data_size: vec![LinExpr::sym("ND"), LinExpr::sym("NR")],
        dim_syms: vec!["NR".into(), "NC".into()],
        nnz_sym: "NNZ".into(),
        extra_syms: vec!["ND".into()],
        coord_ufs: vec![None, None],
        contiguous_data: false,
    }
    .into()
}

/// DIA with an executable scan, for *executor* generation (SpMV over the
/// diagonal layout). Not usable as a conversion source: DIA stores
/// explicit zeros (padding inside the matrix), so a conversion would
/// copy them; an executor merely multiplies them by zero.
pub fn dia_executable() -> FormatDescriptor {
    dia().edit(|d| {
        d.scan = Some(ScanInfo {
            set: simplified_set(
                "{ [i, dd, j] : 0 <= i < NR && 0 <= dd < ND && j = i + off(dd) \
                 && 0 <= j < NC }",
            ),
            dense_pos: vec![0, 2],
            data_index: {
                let i = LinExpr::var(VarId(0));
                let dd = LinExpr::var(VarId(1));
                i.mul_expr(&LinExpr::sym("ND")).add(&dd)
            },
        });
    })
}

/// The MCOO descriptor (Table 1, row `MCOO`): COO sorted by the Morton
/// code of `(i, j)` — the reordering universal quantifier that motivates
/// the paper.
pub fn mcoo() -> FormatDescriptor {
    let mut ufs = UfEnvironment::new();
    ufs.insert(sig("rowm", "{ [x] : 0 <= x < NNZ }", "{ [i] : 0 <= i < NR }", None));
    ufs.insert(sig("colm", "{ [x] : 0 <= x < NNZ }", "{ [j] : 0 <= j < NC }", None));
    FormatSpec {
        name: "MCOO".into(),
        rank: 2,
        sparse_to_dense: rel(
            "{ [n, ii, jj] -> [i, j] : rowm(n) = i && colm(n) = j && ii = i && jj = j \
             && 0 <= i < NR && 0 <= j < NC && 0 <= n < NNZ }",
        ),
        data_access: rel("{ [n, ii, jj] -> [d0] : d0 = n }"),
        scan: Some(ScanInfo {
            set: simplified_set(
                "{ [n, i, j] : i = rowm(n) && j = colm(n) && 0 <= n < NNZ }",
            ),
            dense_pos: vec![1, 2],
            data_index: LinExpr::var(VarId(0)),
        }),
        ufs,
        order: Some(OrderKey::morton(2)),
        data_name: "Amcoo".into(),
        data_size: vec![LinExpr::sym("NNZ")],
        dim_syms: vec!["NR".into(), "NC".into()],
        nnz_sym: "NNZ".into(),
        extra_syms: vec![],
        coord_ufs: vec![Some("rowm".into()), Some("colm".into())],
        contiguous_data: true,
    }
    .into()
}

/// The COO3D descriptor (Table 1, row `COO3D`).
pub fn coo3() -> FormatDescriptor {
    let mut ufs = UfEnvironment::new();
    ufs.insert(sig("row1", "{ [x] : 0 <= x < NNZ }", "{ [i] : 0 <= i < NR }", None));
    ufs.insert(sig("col1", "{ [x] : 0 <= x < NNZ }", "{ [j] : 0 <= j < NC }", None));
    ufs.insert(sig("z1", "{ [x] : 0 <= x < NNZ }", "{ [k] : 0 <= k < NZ }", None));
    FormatSpec {
        name: "COO3D".into(),
        rank: 3,
        sparse_to_dense: rel(
            "{ [n, ii, jj, kk] -> [i, j, k] : row1(n) = i && col1(n) = j && z1(n) = k \
             && ii = i && jj = j && kk = k && 0 <= i < NR && 0 <= j < NC \
             && 0 <= k < NZ && 0 <= n < NNZ }",
        ),
        data_access: rel("{ [n, ii, jj, kk] -> [d0] : d0 = n }"),
        scan: Some(ScanInfo {
            set: simplified_set(
                "{ [n, i, j, k] : i = row1(n) && j = col1(n) && k = z1(n) \
                 && 0 <= n < NNZ }",
            ),
            dense_pos: vec![1, 2, 3],
            data_index: LinExpr::var(VarId(0)),
        }),
        ufs,
        order: None,
        data_name: "Acoo3".into(),
        data_size: vec![LinExpr::sym("NNZ")],
        dim_syms: vec!["NR".into(), "NC".into(), "NZ".into()],
        nnz_sym: "NNZ".into(),
        extra_syms: vec![],
        coord_ufs: vec![Some("row1".into()), Some("col1".into()), Some("z1".into())],
        contiguous_data: true,
    }
    .into()
}

/// Sorted COO3D: lexicographically ordered source tensor, as assumed by
/// the Table 4 experiment.
pub fn scoo3() -> FormatDescriptor {
    coo3().edit(|d| {
        d.name = "SCOO3".into();
        d.order = Some(OrderKey::row_major(3));
    })
}

/// The MCOO3 descriptor (Table 1, row `MCOO3`): Morton-ordered order-3
/// COO — the destination of the Table 4 reordering experiment.
pub fn mcoo3() -> FormatDescriptor {
    let mut ufs = UfEnvironment::new();
    ufs.insert(sig("rowm", "{ [x] : 0 <= x < NNZ }", "{ [i] : 0 <= i < NR }", None));
    ufs.insert(sig("colm", "{ [x] : 0 <= x < NNZ }", "{ [j] : 0 <= j < NC }", None));
    ufs.insert(sig("zm", "{ [x] : 0 <= x < NNZ }", "{ [k] : 0 <= k < NZ }", None));
    FormatSpec {
        name: "MCOO3".into(),
        rank: 3,
        sparse_to_dense: rel(
            "{ [n, ii, jj, kk] -> [i, j, k] : rowm(n) = i && colm(n) = j && zm(n) = k \
             && ii = i && jj = j && kk = k && 0 <= i < NR && 0 <= j < NC \
             && 0 <= k < NZ && 0 <= n < NNZ }",
        ),
        data_access: rel("{ [n, ii, jj, kk] -> [d0] : d0 = n }"),
        scan: Some(ScanInfo {
            set: simplified_set(
                "{ [n, i, j, k] : i = rowm(n) && j = colm(n) && k = zm(n) \
                 && 0 <= n < NNZ }",
            ),
            dense_pos: vec![1, 2, 3],
            data_index: LinExpr::var(VarId(0)),
        }),
        ufs,
        order: Some(OrderKey::morton(3)),
        data_name: "Amcoo3".into(),
        data_size: vec![LinExpr::sym("NNZ")],
        dim_syms: vec!["NR".into(), "NC".into(), "NZ".into()],
        nnz_sym: "NNZ".into(),
        extra_syms: vec![],
        coord_ufs: vec![Some("rowm".into()), Some("colm".into()), Some("zm".into())],
        contiguous_data: true,
    }
    .into()
}

/// The ELL descriptor — an extension beyond the paper's Table 1: padded
/// slot storage with `W` (`ELLW`) entries per row, addressed
/// `kd = ELLW * ii + s`. The padding sentinel (`col = -1`) keeps the
/// iteration space guarded by `0 <= j`. Supported as a conversion
/// *source*; destination support would require per-row slot counters,
/// which the paper's Cases 1–5 do not cover (documented in DESIGN.md).
pub fn ell() -> FormatDescriptor {
    let mut ufs = UfEnvironment::new();
    ufs.insert(sig(
        "ellcol",
        "{ [x] : 0 <= x < ELLW * NR }",
        "{ [j] : 0 - 1 <= j < NC }",
        None,
    ));
    FormatSpec {
        name: "ELL".into(),
        rank: 2,
        sparse_to_dense: rel(
            "{ [ii, ss, jj] -> [i, j] : ii = i && jj = j && ellcol(ELLW * ii + ss) = j \
             && 0 <= ii < NR && 0 <= ss < ELLW && 0 <= j < NC }",
        ),
        data_access: rel("{ [ii, ss, jj] -> [kd] : kd = ELLW * ii + ss }"),
        scan: Some(ScanInfo {
            set: simplified_set(
                "{ [i, s, j] : 0 <= i < NR && 0 <= s < ELLW \
                 && j = ellcol(ELLW * i + s) && 0 <= j }",
            ),
            dense_pos: vec![0, 2],
            data_index: {
                let i = LinExpr::var(VarId(0));
                let s_var = LinExpr::var(VarId(1));
                i.mul_expr(&LinExpr::sym("ELLW")).add(&s_var)
            },
        }),
        ufs,
        order: Some(OrderKey::row_major(2)),
        data_name: "Aell".into(),
        data_size: vec![LinExpr::sym("ELLW"), LinExpr::sym("NR")],
        dim_syms: vec!["NR".into(), "NC".into()],
        nnz_sym: "NNZ".into(),
        extra_syms: vec!["ELLW".into()],
        coord_ufs: vec![None, None],
        contiguous_data: false,
    }
    .into()
}

/// The BCSR descriptor (Figure 1's blocked format) — display-only: the
/// blocked sparse-to-dense map needs integer division (`bi = i / BH`),
/// which is outside the affine-with-UFs fragment, so BCSR participates in
/// Table-1 rendering, the descriptor lint and the static verifier, but
/// not (yet) synthesis or execution.
pub fn bcsr(bh: i64, bw: i64) -> FormatDescriptor {
    let mut ufs = UfEnvironment::new();
    ufs.insert(sig(
        "browptr",
        "{ [x] : 0 <= x <= NBR }",
        "{ [n] : 0 <= n <= NB }",
        Some(Monotonicity::NonDecreasing),
    ));
    ufs.insert(sig("bcol", "{ [x] : 0 <= x < NB }", "{ [bj] : 0 <= bj < NBC }", None));
    FormatSpec {
        name: format!("BCSR{bh}x{bw}"),
        rank: 2,
        // Block coordinates appear as explicit tuple variables with the
        // residues r, c: i = BH * bi + r, j = BW * bj + c.
        sparse_to_dense: rel(&format!(
            "{{ [bi, kb, r, c] -> [i, j] : i = {bh} * bi + r && j = {bw} * bcol(kb) + c \
             && 0 <= bi < NBR && browptr(bi) <= kb < browptr(bi + 1) \
             && 0 <= r < {bh} && 0 <= c < {bw} && 0 <= i < NR && 0 <= j < NC }}"
        )),
        data_access: rel(&format!(
            "{{ [bi, kb, r, c] -> [kd] : kd = {bh} * {bw} * kb + {bw} * r + c }}"
        )),
        scan: None,
        ufs,
        order: None,
        data_name: "Abcsr".into(),
        data_size: vec![LinExpr::sym("NB"), LinExpr::constant(bh * bw)],
        dim_syms: vec!["NR".into(), "NC".into()],
        nnz_sym: "NNZ".into(),
        extra_syms: vec!["NBR".into(), "NBC".into(), "NB".into()],
        coord_ufs: vec![None, None],
        contiguous_data: false,
    }
    .into()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_roundtrip_all_descriptors() {
        for d in [coo(), scoo(), csr(), csc(), dia(), mcoo(), coo3(), scoo3(), mcoo3()] {
            // Maps parse back from their own display.
            let printed = d.sparse_to_dense.to_string();
            let back = parse_relation(&printed).unwrap();
            assert_eq!(back.in_arity(), d.sparse_to_dense.in_arity(), "{}", d.name);
            assert_eq!(back.out_arity(), d.rank as u32, "{}", d.name);
            // The row renders without panicking and mentions the name.
            assert!(d.table1_row().contains(&d.name));
        }
    }

    #[test]
    fn scan_sets_are_existential_free() {
        for d in [coo(), scoo(), csr(), csc(), mcoo(), coo3(), scoo3(), mcoo3()] {
            let scan = d.scan.as_ref().expect("scan info");
            for conj in scan.set.conjunctions() {
                assert!(conj.exists().is_empty(), "{}", d.name);
            }
            assert_eq!(scan.dense_pos.len(), d.rank);
        }
    }

    #[test]
    fn alloc_sizes_from_domains() {
        let c = csr();
        let rowptr = c.ufs.get("rowptr").unwrap();
        let size = domain_alloc_size(rowptr).unwrap();
        // {0 <= x <= NR} => NR + 1
        assert_eq!(size, LinExpr::sym("NR").add(&LinExpr::constant(1)));
        let col2 = c.ufs.get("col2").unwrap();
        assert_eq!(domain_alloc_size(col2).unwrap(), LinExpr::sym("NNZ"));
    }

    #[test]
    fn range_max_gives_min_init() {
        let c = csr();
        let rowptr = c.ufs.get("rowptr").unwrap();
        // range {0 <= n <= NNZ} => init for min-population is NNZ.
        assert_eq!(range_max(rowptr).unwrap(), LinExpr::sym("NNZ"));
    }

    #[test]
    fn order_keys_match_paper() {
        assert!(scoo().order.clone().unwrap().implies(&csr().order.clone().unwrap()));
        assert!(!scoo().order.clone().unwrap().implies(&csc().order.clone().unwrap()));
        assert_eq!(
            mcoo().order.clone().unwrap().comparator,
            spf_ir::order::Comparator::Morton
        );
    }

    #[test]
    fn quantifier_text_for_mcoo() {
        let texts = mcoo().quantifier_texts();
        assert_eq!(texts.len(), 1);
        assert!(texts[0].contains("MORTON(rowm(n1), colm(n1))"));
    }

    #[test]
    fn csr_quantifiers_include_monotonic_rowptr() {
        let texts = csr().quantifier_texts();
        assert!(texts.iter().any(|t| t.contains("rowptr(e1) <= rowptr(e2)")));
    }

    #[test]
    fn suffix_renaming_is_consistent() {
        let d = coo().with_suffix("_dst");
        assert_eq!(d.name, "COO_dst");
        assert!(d.ufs.contains("row1_dst"));
        assert!(!d.ufs.contains("row1"));
        assert!(d.sparse_to_dense.to_string().contains("row1_dst(n)"));
        assert_eq!(d.data_name, "Acoo_dst");
        // Shared shape symbols stay shared.
        assert!(d.sparse_to_dense.to_string().contains("NR"));
    }

    #[test]
    fn ell_descriptor_scans_and_renders() {
        let d = ell();
        assert!(d.scan.is_some());
        assert!(d.table1_row().contains("ellcol"));
        // The data index is the product-form ELLW * i + s.
        let scan = d.scan.clone().unwrap();
        assert!(format!("{}", scan.data_index).contains("ELLW"));
    }

    #[test]
    fn bcsr_descriptor_renders_table1_row() {
        let d = bcsr(2, 3);
        assert_eq!(d.name, "BCSR2x3");
        let row = d.table1_row();
        assert!(row.contains("browptr"));
        assert!(row.contains("2 * bi"));
        assert!(d.scan.is_none());
        // Monotonic quantifier present.
        assert!(d
            .quantifier_texts()
            .iter()
            .any(|t| t.contains("browptr(e1) <= browptr(e2)")));
    }

    #[test]
    fn dia_data_size_is_nd_times_nr() {
        let d = dia();
        assert_eq!(
            d.data_size,
            vec![LinExpr::sym("ND"), LinExpr::sym("NR")]
        );
    }
}
