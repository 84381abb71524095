//! Executing synthesized conversions on real tensors: binding runtime
//! containers into the interpreter environment by their descriptor's UF
//! names, running the compiled inspector, and extracting the destination
//! container.

use std::borrow::Cow;
use std::fmt;
use std::sync::OnceLock;
use std::time::Instant;

use sparse_formats::{
    AnyMatrix, AnyTensor, Coo3Tensor, CooMatrix, CscMatrix, CsrMatrix, DiaMatrix, EllMatrix,
    FormatDescriptor, FormatKind, MatrixRef, MortonCoo3Tensor, MortonCooMatrix, TensorRef,
    ValidationError,
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
    /// Admission control refused the conversion: the estimated output
    /// footprint exceeds the configured memory budget.
    ResourceExhausted {
        /// What blew up (e.g. `"dia output"`, `"ell output"`).
        what: String,
        /// Estimated bytes the conversion would allocate.
        needed: u64,
        /// The configured budget in bytes.
        budget: u64,
    },
    /// A batch deadline expired before this item started executing.
    DeadlineExceeded {
        /// The configured per-batch deadline.
        deadline: std::time::Duration,
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
                "resource exhausted: {what} needs ~{needed} bytes, budget is {budget}"
            ),
            RunError::DeadlineExceeded { deadline } => {
                write!(f, "deadline exceeded: batch budget {deadline:?} expired before start")
            }
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
        RunError::Exec(e)
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
    /// pair, looked up on first use: a caller that never asks for a
    /// kernel never renders the fingerprints.
    kernels: OnceLock<Kernels>,
}

/// The registry's kernels for one conversion, by rank.
#[derive(Clone, Copy)]
struct Kernels {
    matrix: Option<crate::kernels::MatrixKernelFn>,
    tensor: Option<crate::kernels::TensorKernelFn>,
}

impl Conversion {
    /// Synthesizes and compiles the conversion from `src` to `dst`.
    ///
    /// A native kernel the [`crate::kernels::KernelRegistry`] holds for
    /// this exact `(src, dst)` fingerprint pair is resolved on first use;
    /// callers opt into it via [`Conversion::run_matrix_kernel`].
    ///
    /// # Errors
    /// Propagates synthesis and lowering failures.
    pub fn new(
        src: &FormatDescriptor,
        dst: &FormatDescriptor,
        options: SynthesisOptions,
    ) -> Result<Self, RunError> {
        let synth = synthesize(src, dst, options)?;
        let compiled = synth.computation.lower().map_err(SynthesisError::Lower)?;
        Ok(Conversion {
            synth,
            compiled,
            comparators: ComparatorRegistry::new(),
            kernels: OnceLock::new(),
        })
    }

    fn kernels(&self) -> Kernels {
        *self.kernels.get_or_init(|| {
            let reg = crate::kernels::KernelRegistry::global();
            let (src, dst) = (self.synth.src.fingerprint(), self.synth.dst.fingerprint());
            Kernels { matrix: reg.matrix_kernel(src, dst), tensor: reg.tensor_kernel(src, dst) }
        })
    }

    /// True when a native kernel is registered for this conversion's
    /// fingerprint pair (rank-2 or order-3).
    pub fn has_kernel(&self) -> bool {
        let k = self.kernels();
        k.matrix.is_some() || k.tensor.is_some()
    }

    /// Runs the native kernel for this conversion, or `None` when no
    /// kernel is registered for the fingerprint pair.
    ///
    /// The input must already satisfy the source descriptor's validation
    /// obligations — kernels assume them the same way the interpreter's
    /// verified plan does. An `Err` from the kernel (including its own
    /// decline on inputs whose semantics it cannot reproduce, e.g.
    /// duplicate coordinates) means the caller should fall back to
    /// [`Conversion::run_matrix_observed`]; it never means the conversion
    /// itself is impossible.
    pub fn run_matrix_kernel<'a>(
        &self,
        m: impl Into<MatrixRef<'a>>,
    ) -> Option<Result<AnyMatrix, RunError>> {
        self.kernels().matrix.map(|k| k(m.into()))
    }

    /// Order-3 analogue of [`Conversion::run_matrix_kernel`].
    pub fn run_tensor_kernel<'a>(
        &self,
        t: impl Into<TensorRef<'a>>,
    ) -> Option<Result<AnyTensor, RunError>> {
        self.kernels().tensor.map(|k| k(t.into()))
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
        let tensor = self.kernels().tensor;
        self.kernels = OnceLock::from(Kernels { matrix: Some(kernel), tensor });
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
        self.compiled.emit_c(&format!(
            "{}_to_{}",
            self.synth.src.name.to_lowercase(),
            self.synth.dst.name.to_lowercase()
        ))
    }

    /// Emits the synthesized inspector as a complete, compilable C99
    /// translation unit (prelude + `OrderedList` runtime + globals +
    /// function).
    pub fn emit_c_program(&self) -> String {
        self.compiled.emit_c_program(&format!(
            "{}_to_{}",
            self.synth.src.name.to_lowercase(),
            self.synth.dst.name.to_lowercase()
        ))
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
        let m = m.into();
        sparse_formats::validate_matrix(&self.synth.src, m)?;
        let (nr, nc) = m.dims();
        let mut env = RtEnv::new();
        bind_matrix(&mut env, &self.synth.src, m)?;
        let stats = self.execute_env(&mut env)?;
        let out = extract_matrix(&mut env, &self.synth.dst, nr, nc)?;
        Ok((out, stats))
    }

    /// The engine's interpreter path: binds `m` (which the caller has
    /// already validated), runs the inspector with [`ExecStats`] counting
    /// compiled out, and extracts the destination container, emitting
    /// `interp` and `extract` stage spans into `obs` keyed by the
    /// caller's `pair` plan fingerprint. Pass a
    /// [`sparse_obs::NoopSubscriber`] for the uninstrumented hot path.
    ///
    /// # Errors
    /// Same contract as [`Conversion::run_matrix`], minus
    /// [`RunError::InvalidInput`].
    pub fn run_matrix_observed<'a>(
        &self,
        m: impl Into<MatrixRef<'a>>,
        pair: u64,
        obs: &dyn Subscriber,
    ) -> Result<AnyMatrix, RunError> {
        let m = m.into();
        let (nr, nc) = m.dims();
        let mut env = RtEnv::new();
        bind_matrix(&mut env, &self.synth.src, m)?;
        self.execute_observed(env, pair, obs, |env, dst| extract_matrix(env, dst, nr, nc))
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
        let t = t.into();
        sparse_formats::validate_tensor(&self.synth.src, t)?;
        let dims = t.dims();
        let mut env = RtEnv::new();
        bind_tensor(&mut env, &self.synth.src, t)?;
        let stats = self.execute_env(&mut env)?;
        let out = extract_tensor(&mut env, &self.synth.dst, dims)?;
        Ok((out, stats))
    }

    /// Order-3 analogue of [`Conversion::run_matrix_observed`].
    ///
    /// # Errors
    /// Same contract as [`Conversion::run_matrix_observed`].
    pub fn run_tensor_observed<'a>(
        &self,
        t: impl Into<TensorRef<'a>>,
        pair: u64,
        obs: &dyn Subscriber,
    ) -> Result<AnyTensor, RunError> {
        let t = t.into();
        let dims = t.dims();
        let mut env = RtEnv::new();
        bind_tensor(&mut env, &self.synth.src, t)?;
        self.execute_observed(env, pair, obs, |env, dst| extract_tensor(env, dst, dims))
    }

    /// The stages both observed runs share: runs the inspector over a
    /// bound `env` and extracts the destination container, timing each
    /// and emitting its `interp` or `extract` span into `obs`.
    fn execute_observed<'a, T>(
        &self,
        mut env: RtEnv<'a>,
        pair: u64,
        obs: &dyn Subscriber,
        extract: impl FnOnce(&mut RtEnv<'a>, &FormatDescriptor) -> Result<T, RunError>,
    ) -> Result<T, RunError> {
        let t0 = Instant::now();
        let executed = self.execute_env_quiet(&mut env);
        let nanos = t0.elapsed().as_nanos() as u64;
        obs.span(Span { stage: Stage::Interp, pair, nanos, ok: executed.is_ok() });
        executed?;
        let t1 = Instant::now();
        let out = extract(&mut env, &self.synth.dst);
        let nanos = t1.elapsed().as_nanos() as u64;
        obs.span(Span { stage: Stage::Extract, pair, nanos, ok: out.is_ok() });
        out
    }
}

/// Binds any rank-2 container as the conversion source, dispatching on
/// the *descriptor's* structural kind and checking that the container
/// matches it. Coordinate-kind descriptors (COO, sorted COO, Morton COO)
/// accept either a bare [`CooMatrix`] or a [`MortonCooMatrix`] — the
/// storage is identical; ordering is the descriptor's claim.
///
/// Binding is zero-copy: every index/data array enters the environment as
/// a borrowed `Cow` slice, so the cost is O(1) per array regardless of
/// `nnz`; the interpreter clones an array only if the plan writes to it.
///
/// # Errors
/// Returns [`RunError::Unsupported`] on a kind/container mismatch.
pub fn bind_matrix<'a>(
    env: &mut RtEnv<'a>,
    desc: &FormatDescriptor,
    m: MatrixRef<'a>,
) -> Result<(), RunError> {
    let kind = desc.kind();
    match (kind, m) {
        (FormatKind::Coo | FormatKind::SortedCoo | FormatKind::MortonCoo, MatrixRef::Coo(c)) => {
            bind_coo(env, desc, c)?;
        }
        (
            FormatKind::Coo | FormatKind::SortedCoo | FormatKind::MortonCoo,
            MatrixRef::MortonCoo(mc),
        ) => {
            bind_coo(env, desc, &mc.coo)?;
        }
        (FormatKind::Csr, MatrixRef::Csr(c)) => bind_csr(env, desc, c)?,
        (FormatKind::Csc, MatrixRef::Csc(c)) => bind_csc(env, desc, c)?,
        (FormatKind::Dia, MatrixRef::Dia(d)) => bind_dia(env, desc, d)?,
        (FormatKind::Ell, MatrixRef::Ell(e)) => bind_ell(env, desc, e)?,
        (kind, m) => {
            return Err(RunError::Unsupported(format!(
                "cannot bind `{}` input under source descriptor `{}` (kind {kind:?})",
                m.label(),
                desc.name
            )))
        }
    }
    Ok(())
}

/// Binds any order-3 container as the conversion source; tensor analogue
/// of [`bind_matrix`].
///
/// # Errors
/// Returns [`RunError::Unsupported`] on a kind/container mismatch.
pub fn bind_tensor<'a>(
    env: &mut RtEnv<'a>,
    desc: &FormatDescriptor,
    t: TensorRef<'a>,
) -> Result<(), RunError> {
    let kind = desc.kind();
    match (kind, t) {
        (FormatKind::Coo3 | FormatKind::MortonCoo3, TensorRef::Coo3(c)) => {
            bind_coo3(env, desc, c)?;
        }
        (FormatKind::Coo3 | FormatKind::MortonCoo3, TensorRef::MortonCoo3(mc)) => {
            bind_coo3(env, desc, &mc.coo)?;
        }
        (kind, t) => {
            return Err(RunError::Unsupported(format!(
                "cannot bind `{}` input under source descriptor `{}` (kind {kind:?})",
                t.label(),
                desc.name
            )))
        }
    }
    Ok(())
}

/// Extracts whichever rank-2 container the destination descriptor's
/// structural kind calls for, validating format invariants (including the
/// Morton-order quantifier for Morton destinations).
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
            Ok(AnyMatrix::Coo(extract_coo(env, desc, nr, nc)?))
        }
        FormatKind::MortonCoo => {
            let coo = take_coo(env, desc, nr, nc)?;
            Ok(AnyMatrix::MortonCoo(MortonCooMatrix::new(coo).map_err(RunError::Format)?))
        }
        FormatKind::Csr => Ok(AnyMatrix::Csr(extract_csr(env, desc, nr, nc)?)),
        FormatKind::Csc => Ok(AnyMatrix::Csc(extract_csc(env, desc, nr, nc)?)),
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
    dims: (usize, usize, usize),
) -> Result<AnyTensor, RunError> {
    match desc.kind() {
        FormatKind::Coo3 => Ok(AnyTensor::Coo3(extract_coo3(env, desc, dims)?)),
        FormatKind::MortonCoo3 => {
            let coo = take_coo3(env, desc, dims)?;
            Ok(AnyTensor::MortonCoo3(MortonCoo3Tensor::new(coo).map_err(RunError::Format)?))
        }
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

/// The coordinate UF a binding/extraction needs, or a typed error when
/// the descriptor has no UF at that dimension (too few entries, or an
/// uncompressed `None` slot).
fn coord_uf(desc: &FormatDescriptor, d: usize, role: &str) -> Result<String, RunError> {
    desc.coord_ufs.get(d).and_then(Clone::clone).ok_or_else(|| {
        RunError::Descriptor(format!(
            "descriptor `{}` has no {role} (coord_ufs[{d}] is absent)",
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

/// Binds a COO matrix under the descriptor's names (coordinate UFs from
/// `coord_ufs`, data under `data_name`).
///
/// # Errors
/// Returns [`RunError::Descriptor`] if the descriptor lacks row/column
/// coordinate UFs.
pub fn bind_coo<'a>(
    env: &mut RtEnv<'a>,
    desc: &FormatDescriptor,
    m: &'a CooMatrix,
) -> Result<(), RunError> {
    dims_to_env(env, desc, &[m.nr, m.nc], m.nnz());
    let row = coord_uf(desc, 0, "row UF")?;
    let col = coord_uf(desc, 1, "column UF")?;
    env.ufs.insert(row, Cow::Borrowed(&m.row[..]));
    env.ufs.insert(col, Cow::Borrowed(&m.col[..]));
    env.data.insert(desc.data_name.clone(), Cow::Borrowed(&m.val[..]));
    Ok(())
}

/// Binds an order-3 COO tensor.
///
/// # Errors
/// Returns [`RunError::Descriptor`] if any of the three mode UFs is
/// absent.
pub fn bind_coo3<'a>(
    env: &mut RtEnv<'a>,
    desc: &FormatDescriptor,
    t: &'a Coo3Tensor,
) -> Result<(), RunError> {
    dims_to_env(env, desc, &[t.nr, t.nc, t.nz], t.nnz());
    let u0 = coord_uf(desc, 0, "mode-0 UF")?;
    let u1 = coord_uf(desc, 1, "mode-1 UF")?;
    let u2 = coord_uf(desc, 2, "mode-2 UF")?;
    env.ufs.insert(u0, Cow::Borrowed(&t.i0[..]));
    env.ufs.insert(u1, Cow::Borrowed(&t.i1[..]));
    env.ufs.insert(u2, Cow::Borrowed(&t.i2[..]));
    env.data.insert(desc.data_name.clone(), Cow::Borrowed(&t.val[..]));
    Ok(())
}

/// Binds a CSR matrix under the descriptor's names.
///
/// # Errors
/// Returns [`RunError::Descriptor`] without a pointer or column UF.
pub fn bind_csr<'a>(
    env: &mut RtEnv<'a>,
    desc: &FormatDescriptor,
    m: &'a CsrMatrix,
) -> Result<(), RunError> {
    dims_to_env(env, desc, &[m.nr, m.nc], m.nnz());
    env.ufs.insert(pointer_uf(desc)?, Cow::Borrowed(&m.rowptr[..]));
    let col = coord_uf(desc, 1, "column UF")?;
    env.ufs.insert(col, Cow::Borrowed(&m.col[..]));
    env.data.insert(desc.data_name.clone(), Cow::Borrowed(&m.val[..]));
    Ok(())
}

/// Binds an ELL matrix under the descriptor's names (padded slot layout:
/// `ellcol`, data, and the `ELLW` width symbol; `NNZ` is the *actual*
/// nonzero count, excluding padding).
///
/// # Errors
/// Returns [`RunError::Descriptor`] without a column UF or width symbol.
pub fn bind_ell<'a>(
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

/// Binds a DIA matrix under the descriptor's names (for executor use:
/// `off`, the data block, and the `ND` symbol).
///
/// # Errors
/// Returns [`RunError::Descriptor`] without an offset UF or diagonal
/// count symbol.
pub fn bind_dia<'a>(
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

/// Binds a CSC matrix under the descriptor's names.
///
/// # Errors
/// Returns [`RunError::Descriptor`] without a pointer or row UF.
pub fn bind_csc<'a>(
    env: &mut RtEnv<'a>,
    desc: &FormatDescriptor,
    m: &'a CscMatrix,
) -> Result<(), RunError> {
    dims_to_env(env, desc, &[m.nr, m.nc], m.nnz());
    env.ufs.insert(pointer_uf(desc)?, Cow::Borrowed(&m.colptr[..]));
    let row = coord_uf(desc, 0, "row UF")?;
    env.ufs.insert(row, Cow::Borrowed(&m.row[..]));
    env.data.insert(desc.data_name.clone(), Cow::Borrowed(&m.val[..]));
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

/// Extracts a (validated) CSR matrix written under `desc`'s names.
///
/// # Errors
/// Fails on missing outputs or invariant violations.
pub fn extract_csr(
    env: &mut RtEnv<'_>,
    desc: &FormatDescriptor,
    nr: usize,
    nc: usize,
) -> Result<CsrMatrix, RunError> {
    let rowptr = take_uf(env, &pointer_uf(desc)?)?;
    let col = take_uf(env, &coord_uf(desc, 1, "column UF")?)?;
    let val = take_data(env, &desc.data_name)?;
    CsrMatrix::new(nr, nc, rowptr, col, val).map_err(RunError::Format)
}

/// Extracts a (validated) CSC matrix.
///
/// # Errors
/// Fails on missing outputs or invariant violations.
pub fn extract_csc(
    env: &mut RtEnv<'_>,
    desc: &FormatDescriptor,
    nr: usize,
    nc: usize,
) -> Result<CscMatrix, RunError> {
    let colptr = take_uf(env, &pointer_uf(desc)?)?;
    let row = take_uf(env, &coord_uf(desc, 0, "row UF")?)?;
    let val = take_data(env, &desc.data_name)?;
    CscMatrix::new(nr, nc, colptr, row, val).map_err(RunError::Format)
}

/// The coordinate arrays written under `desc`'s names, not yet
/// validated: the Morton extractors check them once, together with
/// their order.
fn take_coo(
    env: &mut RtEnv<'_>,
    desc: &FormatDescriptor,
    nr: usize,
    nc: usize,
) -> Result<CooMatrix, RunError> {
    let row = take_uf(env, &coord_uf(desc, 0, "row UF")?)?;
    let col = take_uf(env, &coord_uf(desc, 1, "column UF")?)?;
    let val = take_data(env, &desc.data_name)?;
    Ok(CooMatrix { nr, nc, row, col, val })
}

/// Extracts a (validated) COO matrix.
///
/// # Errors
/// Fails on missing outputs or invariant violations.
pub fn extract_coo(
    env: &mut RtEnv<'_>,
    desc: &FormatDescriptor,
    nr: usize,
    nc: usize,
) -> Result<CooMatrix, RunError> {
    let CooMatrix { row, col, val, .. } = take_coo(env, desc, nr, nc)?;
    CooMatrix::from_triplets(nr, nc, row, col, val).map_err(RunError::Format)
}

/// Order-3 analogue of [`take_coo`].
fn take_coo3(
    env: &mut RtEnv<'_>,
    desc: &FormatDescriptor,
    (nr, nc, nz): (usize, usize, usize),
) -> Result<Coo3Tensor, RunError> {
    let i0 = take_uf(env, &coord_uf(desc, 0, "mode-0 UF")?)?;
    let i1 = take_uf(env, &coord_uf(desc, 1, "mode-1 UF")?)?;
    let i2 = take_uf(env, &coord_uf(desc, 2, "mode-2 UF")?)?;
    let val = take_data(env, &desc.data_name)?;
    Ok(Coo3Tensor { nr, nc, nz, i0, i1, i2, val })
}

/// Extracts a (validated) order-3 COO tensor.
///
/// # Errors
/// Fails on missing outputs or invariant violations.
pub fn extract_coo3(
    env: &mut RtEnv<'_>,
    desc: &FormatDescriptor,
    dims: (usize, usize, usize),
) -> Result<Coo3Tensor, RunError> {
    let Coo3Tensor { i0, i1, i2, val, .. } = take_coo3(env, desc, dims)?;
    Coo3Tensor::from_coords(dims, i0, i1, i2, val).map_err(RunError::Format)
}

/// Extracts a (validated) DIA matrix.
///
/// # Errors
/// Fails on missing outputs or invariant violations.
pub fn extract_dia(
    env: &mut RtEnv<'_>,
    desc: &FormatDescriptor,
    nr: usize,
    nc: usize,
) -> Result<DiaMatrix, RunError> {
    let off = take_uf(env, &sole_uf(desc, "offset")?)?;
    let data = take_data(env, &desc.data_name)?;
    DiaMatrix::new(nr, nc, off, data).map_err(RunError::Format)
}
