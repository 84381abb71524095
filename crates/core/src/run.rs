//! Executing synthesized conversions on real tensors: binding runtime
//! containers into the interpreter environment by their descriptor's UF
//! names, running the compiled inspector, and extracting the destination
//! container.

use std::borrow::Cow;
use std::fmt;
use std::time::Instant;

use sparse_formats::{
    AnyMatrix, AnyTensor, Coords, CscMatrix, CsrMatrix, DiaMatrix, EllMatrix, FormatDescriptor,
    FormatKind, MatrixRef, MortonCoo3Tensor, MortonCooMatrix, TensorRef, ValidationError,
};
use sparse_obs::{Span, Stage, Subscriber};
use spf_codegen::interp::{ExecError, ExecStats};
use spf_codegen::runtime::RtEnv;
use spf_computation::{Compiled, ComparatorRegistry};

use crate::synthesize::{
    synthesize, SynthesisError, SynthesisOptions, SynthesizedConversion,
};

/// Errors raised while running a conversion.
#[derive(Debug)]
pub enum RunError {
    /// Synthesis failed.
    Synthesis(SynthesisError),
    /// Execution failed.
    Exec(ExecError),
    /// The produced destination data violates the format's invariants
    /// (this would indicate a synthesis or kernel bug). The error names
    /// the failed check with the same [`sparse_formats::InputCheck`]
    /// vocabulary as input validation.
    Format(ValidationError),
    /// A name expected in the environment after execution is missing.
    MissingOutput(String),
    /// The descriptor is malformed for its structural kind (missing
    /// coordinate UF, pointer UF, or extra symbol). Binding and
    /// extraction report this instead of panicking so callers can feed
    /// untrusted descriptors through the dispatch layer.
    Descriptor(String),
    /// The descriptor/container pairing has no dispatch path: the
    /// descriptor's [`FormatKind`] is unsupported, the input container
    /// does not match the source descriptor, or the destination kind has
    /// no extractor.
    Unsupported(String),
    /// The input container violates a quantifier obligation of its
    /// source descriptor (non-monotone pointer, out-of-bounds index,
    /// unsorted coordinates, …). `check` names the failed runtime check
    /// (see `sparse_formats::validate::InputCheck::as_str`).
    InvalidInput {
        /// Stable kebab-case name of the failed check.
        check: &'static str,
        /// Human-readable specifics (offending index, observed value).
        detail: String,
    },
    /// An allocation of the plan would take the run past its memory
    /// budget (the interpreter's `ExecError::OverBudget`).
    ResourceExhausted {
        /// The array whose allocation was refused (e.g. `"Adia"`).
        what: String,
        /// Bytes the run had allocated, plus the refused allocation
        /// (`u64::MAX` when that sum overflows).
        needed: u64,
        /// The configured budget in bytes.
        budget: u64,
    },
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::Synthesis(e) => write!(f, "synthesis: {e}"),
            RunError::Exec(e) => write!(f, "execution: {e}"),
            RunError::Format(e) => write!(f, "invalid output: {e}"),
            RunError::MissingOutput(n) => write!(f, "missing output `{n}`"),
            RunError::Descriptor(what) => write!(f, "malformed descriptor: {what}"),
            RunError::Unsupported(what) => write!(f, "unsupported dispatch: {what}"),
            RunError::InvalidInput { check, detail } => {
                write!(f, "invalid input [{check}]: {detail}")
            }
            RunError::ResourceExhausted { what, needed, budget } => write!(
                f,
                "resource exhausted: allocating `{what}` needs {needed} bytes, budget is {budget}"
            ),
        }
    }
}

impl std::error::Error for RunError {}

impl From<SynthesisError> for RunError {
    fn from(e: SynthesisError) -> Self {
        RunError::Synthesis(e)
    }
}

impl From<ExecError> for RunError {
    fn from(e: ExecError) -> Self {
        match e {
            ExecError::OverBudget { name, needed, budget } => {
                RunError::ResourceExhausted { what: name, needed, budget }
            }
            e => RunError::Exec(e),
        }
    }
}

/// A failed *input* check. Output sites map their errors explicitly with
/// `.map_err(RunError::Format)`.
impl From<ValidationError> for RunError {
    fn from(e: ValidationError) -> Self {
        RunError::InvalidInput { check: e.check.as_str(), detail: e.detail }
    }
}

/// A synthesized, compiled, ready-to-run conversion.
pub struct Conversion {
    /// The synthesis result (inspect `computation`, `composed`, `plan`).
    pub synth: SynthesizedConversion,
    compiled: Compiled,
    comparators: ComparatorRegistry,
    /// The native kernels registered for the descriptors' fingerprint
    /// pair.
    kernels: Kernels,
}

/// The registry's kernels for one conversion, by rank.
struct Kernels {
    matrix: Option<crate::kernels::MatrixKernelFn>,
    tensor: Option<crate::kernels::TensorKernelFn>,
}

impl Conversion {
    /// Synthesizes and compiles the conversion from `src` to `dst`.
    ///
    /// A destination that shares an index-array, data or symbol name with
    /// `src` (COO and SCOO share all of theirs) is alpha-renamed first
    /// (`with_suffix("_d")`, see `synth.dst`): a plan over shared names
    /// would allocate its outputs over its inputs.
    ///
    /// A native kernel the [`crate::kernels::KernelRegistry`] holds for
    /// this exact `(src, dst)` fingerprint pair is resolved here; callers
    /// opt into it via [`Conversion::run_matrix_kernel`].
    ///
    /// # Errors
    /// Propagates synthesis and lowering failures.
    pub fn new(
        src: &FormatDescriptor,
        dst: &FormatDescriptor,
        options: SynthesisOptions,
    ) -> Result<Self, RunError> {
        let dst = apart(src, dst);
        let synth = synthesize(src, &dst, options)?;
        let compiled = synth.computation.lower().map_err(SynthesisError::Lower)?;
        let reg = crate::kernels::KernelRegistry::global();
        let (s, d) = (src.fingerprint(), dst.fingerprint());
        let kernels = Kernels {
            matrix: reg.matrix_kernel(s, d),
            tensor: reg.tensor_kernel(s, d),
        };
        Ok(Conversion {
            synth,
            compiled,
            comparators: ComparatorRegistry::new(),
            kernels,
        })
    }

    /// True when a native kernel is registered for this conversion's
    /// fingerprint pair (rank-2 or order-3).
    pub fn has_kernel(&self) -> bool {
        self.kernels.matrix.is_some() || self.kernels.tensor.is_some()
    }

    /// Runs the native kernel for this conversion, or `None` when no
    /// kernel is registered for the fingerprint pair.
    ///
    /// The input must already satisfy the source descriptor's validation
    /// obligations — kernels assume them the same way the interpreter's
    /// verified plan does. An `Err` from the kernel (including its own
    /// decline on inputs whose semantics it cannot reproduce, e.g.
    /// duplicate coordinates) means the caller should fall back to
    /// [`Conversion::run_observed`]; it never means the conversion
    /// itself is impossible.
    pub fn run_matrix_kernel<'a>(
        &self,
        m: impl Into<MatrixRef<'a>>,
    ) -> Option<Result<AnyMatrix, RunError>> {
        self.kernels.matrix.map(|k| k(m.into()))
    }

    /// Order-3 analogue of [`Conversion::run_matrix_kernel`].
    pub fn run_tensor_kernel<'a>(
        &self,
        t: impl Into<TensorRef<'a>>,
    ) -> Option<Result<AnyTensor, RunError>> {
        self.kernels.tensor.map(|k| k(t.into()))
    }

    /// Replaces this conversion's native rank-2 kernel (or installs one
    /// where none was registered). This is a **fault-injection and
    /// benchmarking hook**: the engine's kernel-path accounting (panic
    /// containment, decline fallback, declined-time attribution) can only
    /// be regression-tested against kernels with known pathological
    /// behavior, which the built-in registry rightly refuses to carry.
    /// Production code paths never call this; the
    /// [`crate::kernels::KernelRegistry`] lookup is the only source of
    /// real kernels.
    pub fn override_matrix_kernel(&mut self, kernel: crate::kernels::MatrixKernelFn) {
        self.kernels.matrix = Some(kernel);
    }

    /// Registers a user-defined comparator for `ListOrderSpec::Custom`
    /// order keys.
    pub fn register_comparator(
        &mut self,
        name: impl Into<String>,
        cmp: spf_codegen::runtime::CmpFn,
    ) {
        self.comparators.insert(name.into(), cmp);
    }

    /// Emits the synthesized inspector as C code.
    pub fn emit_c(&self) -> String {
        self.compiled.emit_c(&self.c_name())
    }

    /// Emits the synthesized inspector as a complete, compilable C99
    /// translation unit (prelude + `OrderedList` runtime + globals +
    /// function).
    pub fn emit_c_program(&self) -> String {
        self.compiled.emit_c_program(&self.c_name())
    }

    /// The emitted C function's name, `<src>_to_<dst>`.
    fn c_name(&self) -> String {
        let (src, dst) = (&self.synth.src.name, &self.synth.dst.name);
        format!("{}_to_{}", src.to_lowercase(), dst.to_lowercase())
    }

    /// Runs the compiled inspector against a pre-populated environment.
    ///
    /// # Errors
    /// Propagates interpreter errors.
    pub fn execute_env(&self, env: &mut RtEnv<'_>) -> Result<ExecStats, RunError> {
        Ok(self.compiled.execute(env, &self.comparators)?)
    }

    /// [`Conversion::execute_env`] with [`ExecStats`] counting compiled
    /// out — the hot-path variant.
    ///
    /// # Errors
    /// Propagates interpreter errors.
    pub fn execute_env_quiet(&self, env: &mut RtEnv<'_>) -> Result<(), RunError> {
        Ok(self.compiled.execute_quiet(env, &self.comparators)?)
    }

    /// Converts any rank-2 matrix: validates `m` against the *source*
    /// descriptor's quantifier obligations, binds it under the source
    /// descriptor's names, runs the inspector with [`ExecStats`] counting
    /// on, and extracts the container the *destination* descriptor's
    /// [`FormatKind`] calls for.
    ///
    /// Inputs are untrusted: the static verifier only proves the plan
    /// correct *assuming* the source obligations hold, so they are
    /// established here first (see `sparse_formats::validate`).
    ///
    /// # Errors
    /// Returns [`RunError::InvalidInput`] on a violated obligation; fails
    /// when `m`'s container does not match the source descriptor, when
    /// either kind has no dispatch rule, and on execution or output
    /// validation failures.
    pub fn run_matrix<'a>(
        &self,
        m: impl Into<MatrixRef<'a>>,
    ) -> Result<(AnyMatrix, ExecStats), RunError> {
        self.run_counted(m.into())
    }

    /// Converts any order-3 tensor; the tensor analogue of
    /// [`Conversion::run_matrix`] (input validated first).
    ///
    /// # Errors
    /// Same contract as [`Conversion::run_matrix`].
    pub fn run_tensor<'a>(
        &self,
        t: impl Into<TensorRef<'a>>,
    ) -> Result<(AnyTensor, ExecStats), RunError> {
        self.run_counted(t.into())
    }

    /// [`Conversion::run_matrix`] and [`Conversion::run_tensor`], for
    /// either rank.
    fn run_counted<'a, I: Operand<'a>>(
        &self,
        input: I,
    ) -> Result<(I::Output, ExecStats), RunError> {
        input.validate(&self.synth.src)?;
        let mut env = RtEnv::new();
        input.bind(&mut env, &self.synth.src)?;
        let stats = self.execute_env(&mut env)?;
        Ok((input.extract(&mut env, &self.synth.dst)?, stats))
    }

    /// The engine's interpreter path, for either rank: binds `input`
    /// (which the caller has already validated), runs the inspector with
    /// [`ExecStats`] counting compiled out and its own allocations held
    /// to `budget` bytes ([`RtEnv::budget`]), and extracts the
    /// destination container. It emits `interp` and `extract` stage spans
    /// into `obs` keyed by the caller's `pair` plan fingerprint; pass a
    /// [`sparse_obs::NoopSubscriber`] for the uninstrumented hot path.
    ///
    /// # Errors
    /// Same contract as [`Conversion::run_matrix`], minus
    /// [`RunError::InvalidInput`], plus [`RunError::ResourceExhausted`]
    /// when an allocation would exceed `budget`.
    pub fn run_observed<'a, I: Operand<'a>>(
        &self,
        input: I,
        budget: Option<u64>,
        pair: u64,
        obs: &dyn Subscriber,
    ) -> Result<I::Output, RunError> {
        let mut env = RtEnv { budget, ..RtEnv::new() };
        input.bind(&mut env, &self.synth.src)?;
        let t0 = Instant::now();
        let executed = self.execute_env_quiet(&mut env);
        let nanos = t0.elapsed().as_nanos() as u64;
        obs.span(Span { stage: Stage::Interp, pair, nanos, ok: executed.is_ok() });
        executed?;
        let t1 = Instant::now();
        let out = input.extract(&mut env, &self.synth.dst);
        let nanos = t1.elapsed().as_nanos() as u64;
        obs.span(Span { stage: Stage::Extract, pair, nanos, ok: out.is_ok() });
        out
    }
}

/// `dst`, alpha-renamed when it shares an index-array, data or symbol
/// name with `src`: the destination [`Conversion::new`] synthesizes and
/// looks kernels up under.
pub(crate) fn apart<'d>(src: &FormatDescriptor, dst: &'d FormatDescriptor) -> Cow<'d, FormatDescriptor> {
    let names = |d: &FormatDescriptor| {
        let mut names = d.uf_names();
        names.push(d.data_name.clone());
        names.extend(d.extra_syms.iter().cloned());
        names
    };
    let taken = names(src);
    let mut dst = Cow::Borrowed(dst);
    while names(&dst).iter().any(|n| taken.contains(n)) {
        dst = Cow::Owned(dst.with_suffix("_d"));
    }
    dst
}

/// A borrowed container the one execution path converts: the
/// rank-specific step behind each stage, implemented by [`MatrixRef`]
/// and [`TensorRef`]. [`Conversion::run_observed`] and the engine's run
/// are written once over it.
pub trait Operand<'a>: Copy {
    /// The owned container a conversion returns.
    type Output;
    /// Stored-entry count.
    fn nnz(self) -> usize;
    /// Checks the source descriptor's obligations
    /// ([`sparse_formats::validate_matrix`] / `validate_tensor`).
    ///
    /// # Errors
    /// Returns the first violated obligation.
    fn validate(self, src: &FormatDescriptor) -> Result<(), ValidationError>;
    /// Runs the conversion's native kernel of this rank, if it has one.
    fn run_kernel(self, conv: &Conversion) -> Option<Result<Self::Output, RunError>>;
    /// Binds the container under the source descriptor's names
    /// ([`bind_matrix`] / [`bind_tensor`]).
    ///
    /// # Errors
    /// Same contract as [`bind_matrix`].
    fn bind(self, env: &mut RtEnv<'a>, src: &FormatDescriptor) -> Result<(), RunError>;
    /// Extracts the destination container, with this input's extents
    /// ([`extract_matrix`] / [`extract_tensor`]).
    ///
    /// # Errors
    /// Same contract as [`extract_matrix`].
    fn extract(self, env: &mut RtEnv<'_>, dst: &FormatDescriptor)
        -> Result<Self::Output, RunError>;
}

impl<'a> Operand<'a> for MatrixRef<'a> {
    type Output = AnyMatrix;
    fn nnz(self) -> usize {
        MatrixRef::nnz(&self)
    }
    fn validate(self, src: &FormatDescriptor) -> Result<(), ValidationError> {
        sparse_formats::validate_matrix(src, self)
    }
    fn run_kernel(self, conv: &Conversion) -> Option<Result<AnyMatrix, RunError>> {
        conv.run_matrix_kernel(self)
    }
    fn bind(self, env: &mut RtEnv<'a>, src: &FormatDescriptor) -> Result<(), RunError> {
        bind_matrix(env, src, self)
    }
    fn extract(self, env: &mut RtEnv<'_>, dst: &FormatDescriptor) -> Result<AnyMatrix, RunError> {
        let (nr, nc) = self.dims();
        extract_matrix(env, dst, nr, nc)
    }
}

impl<'a> Operand<'a> for TensorRef<'a> {
    type Output = AnyTensor;
    fn nnz(self) -> usize {
        TensorRef::nnz(&self)
    }
    fn validate(self, src: &FormatDescriptor) -> Result<(), ValidationError> {
        sparse_formats::validate_tensor(src, self)
    }
    fn run_kernel(self, conv: &Conversion) -> Option<Result<AnyTensor, RunError>> {
        conv.run_tensor_kernel(self)
    }
    fn bind(self, env: &mut RtEnv<'a>, src: &FormatDescriptor) -> Result<(), RunError> {
        bind_tensor(env, src, self)
    }
    fn extract(self, env: &mut RtEnv<'_>, dst: &FormatDescriptor) -> Result<AnyTensor, RunError> {
        extract_tensor(env, dst, self.dims())
    }
}

/// Binds any rank-2 container as the conversion source, dispatching on
/// the *descriptor's* structural kind and checking that the container
/// matches it. Coordinate-kind descriptors (COO, sorted COO, Morton COO)
/// accept either a bare [`sparse_formats::CooMatrix`] or a
/// [`MortonCooMatrix`] — the storage is identical; ordering is the
/// descriptor's claim.
///
/// Binding is zero-copy: every index/data array enters the environment as
/// a borrowed `Cow` slice, so the cost is O(1) per array regardless of
/// `nnz`; the interpreter clones an array only if the plan writes to it.
///
/// # Errors
/// Returns [`RunError::Unsupported`] on a kind/container mismatch and
/// [`RunError::Descriptor`] when the descriptor lacks a name the container
/// needs.
pub fn bind_matrix<'a>(
    env: &mut RtEnv<'a>,
    desc: &FormatDescriptor,
    m: MatrixRef<'a>,
) -> Result<(), RunError> {
    match (desc.kind(), m.coo(), m) {
        (FormatKind::Coo | FormatKind::SortedCoo | FormatKind::MortonCoo, Some(c), _) => {
            bind_coo(env, desc, c)
        }
        (FormatKind::Csr, _, MatrixRef::Csr(c)) => {
            bind_compressed(env, desc, [c.nr, c.nc], &c.rowptr, (1, &c.col), &c.val)
        }
        (FormatKind::Csc, _, MatrixRef::Csc(c)) => {
            bind_compressed(env, desc, [c.nr, c.nc], &c.colptr, (0, &c.row), &c.val)
        }
        (FormatKind::Dia, _, MatrixRef::Dia(d)) => bind_dia(env, desc, d),
        (FormatKind::Ell, _, MatrixRef::Ell(e)) => bind_ell(env, desc, e),
        (kind, ..) => Err(cannot_bind(m.label(), desc, kind)),
    }
}

/// Binds any order-3 container as the conversion source; tensor analogue
/// of [`bind_matrix`].
///
/// # Errors
/// Same contract as [`bind_matrix`].
pub fn bind_tensor<'a>(
    env: &mut RtEnv<'a>,
    desc: &FormatDescriptor,
    t: TensorRef<'a>,
) -> Result<(), RunError> {
    match desc.kind() {
        FormatKind::Coo3 | FormatKind::MortonCoo3 => bind_coo(env, desc, t.coo3()),
        kind => Err(cannot_bind(t.label(), desc, kind)),
    }
}

fn cannot_bind(label: &str, desc: &FormatDescriptor, kind: FormatKind) -> RunError {
    RunError::Unsupported(format!(
        "cannot bind `{label}` input under source descriptor `{}` (kind {kind:?})",
        desc.name
    ))
}

/// Extracts whichever rank-2 container the destination descriptor's
/// structural kind calls for, validating format invariants. Coordinate
/// destinations (COO, SCOO, MCOO) are checked against the destination
/// descriptor, including its order key.
///
/// # Errors
/// Fails on missing outputs, invariant violations, or a destination kind
/// with no extractor (ELL destinations are outside the synthesizable
/// fragment: the padded width `ELLW` is not produced by the inspector).
pub fn extract_matrix(
    env: &mut RtEnv<'_>,
    desc: &FormatDescriptor,
    nr: usize,
    nc: usize,
) -> Result<AnyMatrix, RunError> {
    match desc.kind() {
        FormatKind::Coo | FormatKind::SortedCoo => {
            Ok(AnyMatrix::Coo(extract_coo(env, desc, [nr, nc])?))
        }
        FormatKind::MortonCoo => {
            Ok(AnyMatrix::MortonCoo(MortonCooMatrix { coo: extract_coo(env, desc, [nr, nc])? }))
        }
        FormatKind::Csr => Ok(AnyMatrix::Csr(extract_compressed(env, desc, 1, |p, i, v| {
            CsrMatrix::new(nr, nc, p, i, v)
        })?)),
        FormatKind::Csc => Ok(AnyMatrix::Csc(extract_compressed(env, desc, 0, |p, i, v| {
            CscMatrix::new(nr, nc, p, i, v)
        })?)),
        FormatKind::Dia => Ok(AnyMatrix::Dia(extract_dia(env, desc, nr, nc)?)),
        kind => Err(RunError::Unsupported(format!(
            "no extractor for destination descriptor `{}` (kind {kind:?})",
            desc.name
        ))),
    }
}

/// Extracts whichever order-3 container the destination descriptor's
/// structural kind calls for; tensor analogue of [`extract_matrix`].
///
/// # Errors
/// Fails on missing outputs, invariant violations, or an unsupported
/// destination kind.
pub fn extract_tensor(
    env: &mut RtEnv<'_>,
    desc: &FormatDescriptor,
    (nr, nc, nz): (usize, usize, usize),
) -> Result<AnyTensor, RunError> {
    match desc.kind() {
        FormatKind::Coo3 => Ok(AnyTensor::Coo3(extract_coo(env, desc, [nr, nc, nz])?)),
        FormatKind::MortonCoo3 => Ok(AnyTensor::MortonCoo3(MortonCoo3Tensor {
            coo: extract_coo(env, desc, [nr, nc, nz])?,
        })),
        kind => Err(RunError::Unsupported(format!(
            "no tensor extractor for destination descriptor `{}` (kind {kind:?})",
            desc.name
        ))),
    }
}

fn dims_to_env(env: &mut RtEnv<'_>, desc: &FormatDescriptor, dims: &[usize], nnz: usize) {
    for (sym, &d) in desc.dim_syms.iter().zip(dims) {
        env.syms.insert(sym.clone(), d as i64);
    }
    env.syms.insert(desc.nnz_sym.clone(), nnz as i64);
}

/// The coordinate UF of dimension `d` a binding/extraction needs, or a
/// typed error when the descriptor has no UF at that dimension (too few
/// entries, or an uncompressed `None` slot).
fn coord_uf(desc: &FormatDescriptor, d: usize) -> Result<String, RunError> {
    desc.coord_ufs.get(d).and_then(Clone::clone).ok_or_else(|| {
        RunError::Descriptor(format!(
            "descriptor `{}` has no dimension-{d} coordinate UF (coord_ufs[{d}] is absent)",
            desc.name
        ))
    })
}

/// The descriptor's pointer UF (the monotonic one), or a typed error for
/// descriptors without one.
fn pointer_uf(desc: &FormatDescriptor) -> Result<String, RunError> {
    desc.ufs
        .iter()
        .find(|s| s.monotonicity.is_some())
        .map(|s| s.name.clone())
        .ok_or_else(|| {
            RunError::Descriptor(format!(
                "descriptor `{}` declares no monotonic pointer UF",
                desc.name
            ))
        })
}

/// The descriptor's sole layout UF (ELL column slots, DIA offsets).
fn sole_uf(desc: &FormatDescriptor, role: &str) -> Result<String, RunError> {
    desc.ufs.iter().next().map(|s| s.name.clone()).ok_or_else(|| {
        RunError::Descriptor(format!("descriptor `{}` declares no {role} UF", desc.name))
    })
}

/// The descriptor's `i`-th extra symbol (ELL width, DIA diagonal count).
fn extra_sym(desc: &FormatDescriptor, i: usize, role: &str) -> Result<String, RunError> {
    desc.extra_syms.get(i).cloned().ok_or_else(|| {
        RunError::Descriptor(format!(
            "descriptor `{}` has no {role} symbol (extra_syms[{i}] is absent)",
            desc.name
        ))
    })
}

/// Binds coordinate storage of any rank under the descriptor's names
/// (coordinate UFs from `coord_ufs`, data under `data_name`).
fn bind_coo<'a, const R: usize>(
    env: &mut RtEnv<'a>,
    desc: &FormatDescriptor,
    c: &'a impl Coords<R>,
) -> Result<(), RunError> {
    dims_to_env(env, desc, &c.extents(), c.values().len());
    for (d, col) in c.coords().into_iter().enumerate() {
        env.ufs.insert(coord_uf(desc, d)?, Cow::Borrowed(col));
    }
    env.data.insert(desc.data_name.clone(), Cow::Borrowed(c.values()));
    Ok(())
}

/// Binds a compressed matrix (CSR, CSC) under the descriptor's names:
/// its pointer, the index column of dimension `d`, and the values.
fn bind_compressed<'a>(
    env: &mut RtEnv<'a>,
    desc: &FormatDescriptor,
    dims: [usize; 2],
    ptr: &'a [i64],
    (d, idx): (usize, &'a [i64]),
    val: &'a [f64],
) -> Result<(), RunError> {
    dims_to_env(env, desc, &dims, val.len());
    env.ufs.insert(pointer_uf(desc)?, Cow::Borrowed(ptr));
    env.ufs.insert(coord_uf(desc, d)?, Cow::Borrowed(idx));
    env.data.insert(desc.data_name.clone(), Cow::Borrowed(val));
    Ok(())
}

/// Binds an ELL matrix under the descriptor's names (padded slot layout:
/// `ellcol`, data, and the `ELLW` width symbol; `NNZ` is the *actual*
/// nonzero count, excluding padding).
fn bind_ell<'a>(
    env: &mut RtEnv<'a>,
    desc: &FormatDescriptor,
    m: &'a EllMatrix,
) -> Result<(), RunError> {
    // stored_nnz (not to_coo) so a corrupt container cannot index
    // out of bounds before the interpreter's own bounds checks run.
    dims_to_env(env, desc, &[m.nr, m.nc], m.stored_nnz());
    env.syms.insert(extra_sym(desc, 0, "padded width")?, m.width as i64);
    env.ufs.insert(sole_uf(desc, "column slot")?, Cow::Borrowed(&m.col[..]));
    env.data.insert(desc.data_name.clone(), Cow::Borrowed(&m.data[..]));
    Ok(())
}

/// Binds a DIA matrix under the descriptor's names (`off`, the data
/// block, and the `ND` symbol).
fn bind_dia<'a>(
    env: &mut RtEnv<'a>,
    desc: &FormatDescriptor,
    m: &'a DiaMatrix,
) -> Result<(), RunError> {
    // stored_nnz (not to_coo) so a corrupt container cannot index
    // out of bounds before the interpreter's own bounds checks run.
    dims_to_env(env, desc, &[m.nr, m.nc], m.stored_nnz());
    env.syms.insert(extra_sym(desc, 0, "diagonal count")?, m.nd() as i64);
    env.ufs.insert(sole_uf(desc, "offset")?, Cow::Borrowed(&m.off[..]));
    env.data.insert(desc.data_name.clone(), Cow::Borrowed(&m.data[..]));
    Ok(())
}

// Extraction removes the array from the environment: inspector-produced
// outputs are `Cow::Owned`, making this an O(1) move rather than a clone.
fn take_uf(env: &mut RtEnv<'_>, name: &str) -> Result<Vec<i64>, RunError> {
    env.take_uf(name)
        .ok_or_else(|| RunError::MissingOutput(name.to_string()))
}

fn take_data(env: &mut RtEnv<'_>, name: &str) -> Result<Vec<f64>, RunError> {
    env.take_data(name)
        .ok_or_else(|| RunError::MissingOutput(name.to_string()))
}

/// Extracts a compressed matrix (CSR, CSC) written under `desc`'s
/// names: `build` validates its pointer, the index column of dimension
/// `d`, and the values.
fn extract_compressed<T>(
    env: &mut RtEnv<'_>,
    desc: &FormatDescriptor,
    d: usize,
    build: impl FnOnce(Vec<i64>, Vec<i64>, Vec<f64>) -> Result<T, ValidationError>,
) -> Result<T, RunError> {
    let ptr = take_uf(env, &pointer_uf(desc)?)?;
    let idx = take_uf(env, &coord_uf(desc, d)?)?;
    build(ptr, idx, take_data(env, &desc.data_name)?).map_err(RunError::Format)
}

/// Extracts coordinate storage of any rank written under `desc`'s
/// names, checked against the destination descriptor's obligations in
/// one pass: lengths, bounds, values and, for a sorted or Morton
/// destination, its strict order.
fn extract_coo<const R: usize, C: Coords<R>>(
    env: &mut RtEnv<'_>,
    desc: &FormatDescriptor,
    extents: [usize; R],
) -> Result<C, RunError> {
    let mut cols: [Vec<i64>; R] = std::array::from_fn(|_| Vec::new());
    for (d, col) in cols.iter_mut().enumerate() {
        *col = take_uf(env, &coord_uf(desc, d)?)?;
    }
    let coo = C::from_parts(extents, cols, take_data(env, &desc.data_name)?);
    sparse_formats::validate_coords(desc, &coo).map_err(RunError::Format)?;
    Ok(coo)
}

/// Extracts a (validated) DIA matrix.
fn extract_dia(
    env: &mut RtEnv<'_>,
    desc: &FormatDescriptor,
    nr: usize,
    nc: usize,
) -> Result<DiaMatrix, RunError> {
    let off = take_uf(env, &sole_uf(desc, "offset")?)?;
    let data = take_data(env, &desc.data_name)?;
    DiaMatrix::new(nr, nc, off, data).map_err(RunError::Format)
}
