//! The conversion-engine serving layer.
//!
//! `sparse-synthesis` answers "given a source and destination format
//! descriptor, synthesize an inspector and run it once". This crate turns
//! that into a long-lived service:
//!
//! * **Plan caching** — synthesis costs orders of magnitude more than
//!   executing the resulting inspector on small/medium inputs, so the
//!   engine caches compiled [`Conversion`] plans keyed by a *structural*
//!   fingerprint of `(source, destination, options)`. Equal-by-structure
//!   descriptors share a plan regardless of name or instance identity;
//!   a warm cache performs **zero** synthesis. The cache is an LRU with
//!   configurable capacity and synthesize-exactly-once semantics under
//!   concurrency (see [`cache`]).
//! * **Generic dispatch** — [`Engine::convert`] accepts any
//!   [`AnyMatrix`] and returns whichever container the destination
//!   descriptor's structural [`FormatKind`](sparse_formats::FormatKind)
//!   calls for; no per-pair entry points.
//! * **Batch parallelism** — [`Engine::convert_batch`] fans a slice of
//!   inputs over scoped worker threads that share one cached plan
//!   (`Arc<Conversion>`); each execution builds its own interpreter
//!   environment, and outputs come back in input order.
//! * **Plan verification** — with [`EngineConfig::verify_plans`], every
//!   freshly synthesized plan runs through the `sparse-analyze` static
//!   verifier at synthesis time: plans with error-severity findings are
//!   refused (and never cached), and batch fan-out is gated on the
//!   verifier's dependence verdict.
//! * **Native kernel backend** — conversions whose plan is *statically
//!   verified* may be served by a fused hand-optimized kernel from the
//!   [`sparse_synthesis::KernelRegistry`] instead of the SPF-IR
//!   interpreter, keyed by the pair's structural fingerprints, unless a
//!   memory budget is set.
//!   Kernels are bit-identical to the interpreter (differential-tested);
//!   any miss, decline, or contained kernel panic falls back to the
//!   interpreter transparently — fallback is never an error.
//! * **Memory budget** — with [`EngineConfig::memory_budget`], the
//!   interpreter holds the bytes each plan allocates to the budget and
//!   refuses the first allocation past it.
//! * **Observability** — [`Engine::stats`] snapshots hit/miss/eviction
//!   counters, conversion and nnz totals, kernel hits vs interpreter
//!   fallbacks, verification outcomes, and cumulative synthesis vs
//!   execution vs kernel time; every counter increments at exactly one
//!   trigger site (see the README's stats-semantics table). Beyond the
//!   counters, the engine emits structured telemetry through the
//!   `sparse-obs` layer: a [`Subscriber`] receives one [`Span`] per
//!   completed stage (`plan`, `verify`, `validate`, `kernel`, `interp`,
//!   `extract`), exceptional occurrences land in a
//!   lock-free [`EventRing`] (dumpable via [`Engine::events_dump`]),
//!   per-pair latency/nnz histograms accumulate behind
//!   [`Engine::pair_histograms`], and [`Engine::metrics_text`] renders
//!   everything as a Prometheus-style text page with stable metric
//!   names. The default [`NoopSubscriber`] keeps the instrumented hot
//!   path within noise of the uninstrumented one.
//!
//! ```
//! use sparse_engine::Engine;
//! use sparse_formats::{descriptors, AnyMatrix, CooMatrix};
//!
//! let engine = Engine::new();
//! let coo = CooMatrix::from_triplets(
//!     2, 2, vec![0, 1], vec![1, 0], vec![1.0, 2.0],
//! ).unwrap();
//! let src = descriptors::coo();
//! let dst = descriptors::csr();
//! let out = engine.convert(&src, &dst, &AnyMatrix::Coo(coo)).unwrap();
//! assert!(matches!(out, AnyMatrix::Csr(_)));
//! // A second conversion reuses the cached plan: no synthesis.
//! assert_eq!(engine.stats().plans_synthesized, 1);
//! ```

#![warn(missing_docs)]
// No panicking escape hatches in production code: every failure must
// surface as a typed error (tests may assert freely; see clippy.toml).
#![deny(clippy::unwrap_used)]
#![deny(clippy::expect_used)]

pub mod cache;
mod stats;

use std::borrow::Cow;
use std::fmt;
use std::ops::Deref;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

use sparse_analyze::AnalysisReport;
use sparse_formats::descriptors::StructuralHasher;
use sparse_formats::{AnyMatrix, AnyTensor, FormatDescriptor, ValidationError};
use sparse_obs::{Event, EventKind, EventRing, PairHistograms, PairSnapshot, Span, Stage};
use sparse_synthesis::{Conversion, RunError, SynthesisOptions};

use cache::{panic_message, Lookup, PlanCache};
use stats::StatsInner;
pub use sparse_obs::{CollectingSubscriber, NoopSubscriber, Subscriber};
pub use stats::EngineStats;

/// A cached plan: the compiled conversion plus (when the engine runs with
/// [`EngineConfig::verify_plans`]) the static verification report that
/// admitted it into the cache. Derefs to [`Conversion`], so existing
/// callers of [`Engine::plan`] keep working unchanged.
pub struct Plan {
    /// The compiled conversion.
    pub conversion: Conversion,
    /// The verifier's report; `None` when verification is off. Plans with
    /// error-severity findings are rejected before caching, so a present
    /// report is always clean.
    pub verification: Option<AnalysisReport>,
    /// The plan's cache key (structural fingerprints of `(src, dst)`,
    /// options, and the verification flag). Spans, events, and per-pair
    /// histograms are keyed by this value so telemetry can be correlated
    /// back to a specific pair.
    pub pair: u64,
}

impl Plan {
    /// A human-readable `"SRC->DST"` label for this plan's pair, used by
    /// the per-pair histograms and the metrics exposition.
    pub fn pair_label(&self) -> String {
        format!("{}->{}", self.conversion.synth.src.name, self.conversion.synth.dst.name)
    }
}

impl Deref for Plan {
    type Target = Conversion;

    fn deref(&self) -> &Conversion {
        &self.conversion
    }
}

/// Errors raised by the engine.
#[derive(Debug)]
pub enum EngineError {
    /// Synthesizing or lowering the plan failed. Carried as the rendered
    /// message because failures are cached briefly and shared across
    /// threads.
    Plan(String),
    /// Running a plan failed (input validation, memory budget, dispatch
    /// mismatch, execution, or output validation).
    Run(RunError),
    /// A worker panicked mid-conversion; the panic was contained at the
    /// item boundary (`catch_unwind`) and carries the rendered payload.
    /// The engine — cache, stats, sibling batch items — remains fully
    /// usable.
    Panicked(String),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Plan(m) => write!(f, "planning failed: {m}"),
            EngineError::Run(e) => write!(f, "conversion failed: {e}"),
            EngineError::Panicked(m) => write!(f, "conversion panicked (contained): {m}"),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<RunError> for EngineError {
    fn from(e: RunError) -> Self {
        EngineError::Run(e)
    }
}

/// Capacity of every engine's exceptional-event ring. When full, the
/// oldest event is overwritten and the dropped-event counter increments;
/// writers never block.
const EVENT_CAPACITY: usize = 1024;

/// Engine construction knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineConfig {
    /// Maximum number of cached plans (LRU beyond this). Minimum 1.
    pub capacity: usize,
    /// Worker threads for [`Engine::convert_batch`]. `0` means "use
    /// available parallelism".
    pub threads: usize,
    /// Synthesis options baked into every plan this engine builds (and
    /// into the cache key, so engines with different options never share
    /// a fingerprint).
    pub options: SynthesisOptions,
    /// Run the static verifier on every freshly synthesized plan. Plans
    /// with error-severity findings are refused (and never cached), and
    /// [`Engine::convert_batch`] only fans work across threads when the
    /// verifier proved a parallel loop; unverified engines keep the
    /// historical trust-the-synthesizer behavior.
    pub verify_plans: bool,
    /// Budget in bytes for the arrays each conversion's plan allocates
    /// (default `None` = unlimited): destination arrays and scratch such
    /// as pointer cursors and DIA's diagonal map, summed over the run.
    /// The interpreter checks each allocation against it before asking
    /// the allocator, and refuses the first one past it with
    /// [`RunError::ResourceExhausted`] naming the array — e.g. an
    /// antidiagonal matrix headed for DIA (`ND × NR` slots). A budgeted
    /// conversion never takes a native kernel, which allocates outside
    /// the interpreter.
    pub memory_budget: Option<u64>,
    /// Per-batch wall-clock deadline (default `None` = unlimited). Items
    /// not yet *started* when it expires fail with
    /// [`RunError::DeadlineExceeded`]; items already executing run to
    /// completion.
    pub batch_deadline: Option<Duration>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            capacity: 64,
            threads: 0,
            options: SynthesisOptions::default(),
            verify_plans: false,
            memory_budget: None,
            batch_deadline: None,
        }
    }
}

impl EngineConfig {
    fn effective_threads(&self) -> usize {
        if self.threads > 0 {
            self.threads
        } else {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        }
    }
}

/// A thread-safe conversion service with a shared plan cache.
///
/// Cheap to share by reference across threads (`&Engine` is all the batch
/// workers use); every method takes `&self`.
pub struct Engine {
    config: EngineConfig,
    cache: PlanCache<Plan>,
    stats: StatsInner,
    subscriber: Arc<dyn Subscriber>,
    events: EventRing,
    pairs: PairHistograms,
}

impl Default for Engine {
    fn default() -> Self {
        Engine::new()
    }
}

// The whole point of the engine is to be shared across threads; keep
// that guarantee from regressing (e.g. an `Rc` sneaking back into
// `Conversion`'s comparators).
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Engine>();
};

impl Engine {
    /// An engine with [`EngineConfig::default`].
    pub fn new() -> Self {
        Engine::with_config(EngineConfig::default())
    }

    /// An engine with explicit configuration and the default
    /// [`NoopSubscriber`] (counters, event ring, and histograms still
    /// record; only the subscriber callbacks are skipped).
    pub fn with_config(config: EngineConfig) -> Self {
        Engine::with_subscriber(config, Arc::new(NoopSubscriber))
    }

    /// An engine with explicit configuration and a span/event
    /// [`Subscriber`]. The subscriber runs inline on the conversion hot
    /// path (concurrently from every batch worker), so implementations
    /// must be cheap and non-blocking.
    pub fn with_subscriber(config: EngineConfig, subscriber: Arc<dyn Subscriber>) -> Self {
        Engine {
            cache: PlanCache::new(config.capacity),
            events: EventRing::new(EVENT_CAPACITY),
            config,
            stats: StatsInner::default(),
            subscriber,
            pairs: PairHistograms::new(),
        }
    }

    /// This engine's configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// The cache key for a `(src, dst, options)` triple: both structural
    /// descriptor fingerprints plus the option flags. Exposed so callers
    /// can correlate engine behavior with specific pairs.
    pub fn plan_fingerprint(
        src: &FormatDescriptor,
        dst: &FormatDescriptor,
        options: SynthesisOptions,
    ) -> u64 {
        let mut h = StructuralHasher::new();
        h.write_u64(src.fingerprint());
        h.write_u64(dst.fingerprint());
        h.write_u64(options.optimize as u64);
        h.write_u64(options.membership as u64);
        h.finish()
    }

    /// Returns the compiled plan for `src → dst` under this engine's
    /// options, synthesizing at most once per cached lifetime of the
    /// pair. Under [`EngineConfig::verify_plans`], freshly synthesized
    /// plans additionally run through the static verifier, and plans with
    /// error-severity findings are refused *at synthesis time*.
    ///
    /// # Errors
    /// Propagates synthesis/lowering failures and verification rejections
    /// (neither is cached: a later call retries).
    pub fn plan(
        &self,
        src: &FormatDescriptor,
        dst: &FormatDescriptor,
    ) -> Result<Arc<Plan>, EngineError> {
        let options = self.config.options;
        let verify = self.config.verify_plans;
        // The verification flag changes what a cached entry *is* (plans
        // carry their report), so it is part of the key.
        let key = {
            let mut h = StructuralHasher::new();
            h.write_u64(Engine::plan_fingerprint(src, dst, options));
            h.write_u64(verify as u64);
            h.finish()
        };
        StatsInner::add(&self.stats.plan_lookups, 1);
        let t0 = Instant::now();
        let lookup = self.cache.get_or_insert_with(key, || {
            // Contain synthesizer/verifier panics here so the engine's
            // counters stay exact; the cache's own catch_unwind is the
            // backstop for builders it doesn't control.
            match catch_unwind(AssertUnwindSafe(|| self.build_plan(src, dst, options, verify, key)))
            {
                Ok(built) => built,
                Err(payload) => {
                    StatsInner::add(&self.stats.panics_caught, 1);
                    StatsInner::add(&self.stats.plan_failures, 1);
                    self.note(EventKind::PlanFailed, key, 0, 0);
                    Err(format!("plan construction panicked: {}", panic_message(&*payload)))
                }
            }
        });
        // Hits and misses each have their own counter, incremented here
        // at the site where the outcome is known — never derived from
        // `lookups - misses`, which reported transient garbage whenever
        // a snapshot raced an in-flight lookup.
        let out = match lookup {
            Lookup::Hit(plan) => {
                StatsInner::add(&self.stats.cache_hits, 1);
                Ok(plan)
            }
            Lookup::Miss(plan) => {
                StatsInner::add(&self.stats.cache_misses, 1);
                Ok(plan)
            }
            Lookup::Failed(msg) => {
                StatsInner::add(&self.stats.cache_misses, 1);
                Err(EngineError::Plan(msg))
            }
        };
        self.stage(Stage::Plan, key, t0.elapsed().as_nanos() as u64, out.is_ok());
        out
    }

    /// The cache-miss path of [`Engine::plan`]: synthesize, lower, and
    /// (optionally) verify one plan, with stats accounting.
    fn build_plan(
        &self,
        src: &FormatDescriptor,
        dst: &FormatDescriptor,
        options: SynthesisOptions,
        verify: bool,
        pair: u64,
    ) -> Result<Plan, String> {
        let t0 = Instant::now();
        let built = Conversion::new(src, &apart(src, dst), options).map_err(|e| e.to_string());
        StatsInner::add(&self.stats.synth_time, t0.elapsed().as_nanos() as u64);
        match &built {
            Ok(_) => StatsInner::add(&self.stats.plans_synthesized, 1),
            Err(_) => {
                StatsInner::add(&self.stats.plan_failures, 1);
                self.note(EventKind::PlanFailed, pair, t0.elapsed().as_nanos() as u64, 0);
            }
        }
        built.and_then(|conversion| {
            if !verify {
                return Ok(Plan { conversion, verification: None, pair });
            }
            let t1 = Instant::now();
            let report = sparse_analyze::verify(&conversion.synth);
            let verify_nanos = t1.elapsed().as_nanos() as u64;
            StatsInner::add(&self.stats.plans_verified, 1);
            self.stage(Stage::Verify, pair, verify_nanos, report.is_clean());
            if !report.is_clean() {
                StatsInner::add(&self.stats.plans_rejected, 1);
                self.note(EventKind::PlanRejected, pair, verify_nanos, 0);
                return Err(format!(
                    "plan verification failed for {}:\n{}",
                    report.pair,
                    report.render_errors()
                ));
            }
            if report.has_parallel_loop() {
                StatsInner::add(&self.stats.parallel_plans, 1);
            }
            Ok(Plan { conversion, verification: Some(report), pair })
        })
    }

    /// Records one exceptional occurrence: into the engine's own ring
    /// (always) and out to the subscriber (when enabled).
    fn note(&self, kind: EventKind, pair: u64, nanos: u64, nnz: u64) {
        let event = Event { kind, pair, nanos, nnz };
        self.events.push(event);
        if self.subscriber.enabled() {
            self.subscriber.event(event);
        }
    }

    /// Converts one matrix from `src` to `dst`, returning the container
    /// the destination descriptor calls for.
    ///
    /// # Errors
    /// Fails on planning failures, a source/container mismatch, or
    /// execution/validation errors.
    pub fn convert(
        &self,
        src: &FormatDescriptor,
        dst: &FormatDescriptor,
        input: &AnyMatrix,
    ) -> Result<AnyMatrix, EngineError> {
        let plan = self.plan(src, dst)?;
        self.execute(&plan, input)
    }

    /// Converts one order-3 tensor from `src` to `dst`.
    ///
    /// # Errors
    /// Same contract as [`Engine::convert`].
    pub fn convert_tensor(
        &self,
        src: &FormatDescriptor,
        dst: &FormatDescriptor,
        input: &AnyTensor,
    ) -> Result<AnyTensor, EngineError> {
        let plan = self.plan(src, dst)?;
        self.execute(&plan, input)
    }

    /// Converts a batch of matrices from `src` to `dst` across this
    /// engine's worker threads, with **per-item fault isolation**: every
    /// input gets its own `Result`, in input order, and one corrupted or
    /// panicking item never discards its siblings' completed work.
    ///
    /// The plan is synthesized (or fetched) once and shared; inputs are
    /// split into contiguous chunks, one scoped thread per chunk, and
    /// each conversion builds its own interpreter environment. Worker
    /// panics are contained at the item boundary and surface as
    /// [`EngineError::Panicked`] for that item alone.
    ///
    /// Items whose parallel-path attempt fails with a *transient* error
    /// (execution fault or contained panic — not a validation, budget,
    /// dispatch, or deadline rejection) are retried **once** on the
    /// sequential reference path; each retry counts as a
    /// `degraded_conversions` stat.
    ///
    /// With [`EngineConfig::batch_deadline`] set, items not yet started
    /// when the deadline expires fail with [`RunError::DeadlineExceeded`]
    /// (already-running items complete); expired items are not retried.
    ///
    /// Under [`EngineConfig::verify_plans`], fan-out is gated on the
    /// verifier's dependence verdict: only plans with a statically proved
    /// parallel loop run across multiple workers, everything else falls
    /// back to one worker. (Batch elements are independent either way;
    /// the verdict is the engine's evidence that the plan's inspector
    /// behaves deterministically enough to be worth scheduling freely.)
    ///
    /// # Errors
    /// The outer `Err` is reserved for planning failures (there is no
    /// per-item work to preserve without a plan). Everything after
    /// planning is reported per item.
    pub fn convert_batch(
        &self,
        src: &FormatDescriptor,
        dst: &FormatDescriptor,
        inputs: &[AnyMatrix],
    ) -> Result<Vec<Result<AnyMatrix, EngineError>>, EngineError> {
        let plan = self.plan(src, dst)?;
        if inputs.is_empty() {
            return Ok(Vec::new());
        }
        let deadline = self.config.batch_deadline.map(|d| (d, Instant::now() + d));
        let proved_parallel = match &plan.verification {
            Some(report) => report.has_parallel_loop(),
            None => !self.config.verify_plans,
        };
        let max_workers = if proved_parallel { self.config.effective_threads() } else { 1 };
        let workers = max_workers.clamp(1, inputs.len());

        let mut results: Vec<Result<AnyMatrix, EngineError>> = if workers == 1 {
            inputs.iter().map(|m| self.execute_deadlined(&plan, m, deadline)).collect()
        } else {
            let chunk = inputs.len().div_ceil(workers);
            let mut slots: Vec<Option<Result<AnyMatrix, EngineError>>> = Vec::new();
            slots.resize_with(inputs.len(), || None);
            std::thread::scope(|scope| {
                for (in_chunk, out_chunk) in inputs.chunks(chunk).zip(slots.chunks_mut(chunk)) {
                    let plan = &plan;
                    scope.spawn(move || {
                        for (input, out) in in_chunk.iter().zip(out_chunk.iter_mut()) {
                            *out = Some(self.execute_deadlined(plan, input, deadline));
                        }
                    });
                }
            });
            // Per-item catch_unwind means workers always write their
            // slots; an empty slot would indicate a harness bug, reported
            // as a typed per-item error rather than a panic.
            let filled: Vec<_> = slots
                .into_iter()
                .map(|r| {
                    r.unwrap_or_else(|| {
                        Err(EngineError::Panicked("batch slot never written".to_string()))
                    })
                })
                .collect();
            filled
        };

        // Degraded retry: transient parallel-path failures get one
        // sequential attempt. Deterministic rejections (invalid input,
        // budget, dispatch, deadline) would fail identically and are
        // not retried.
        if workers > 1 {
            for (input, slot) in inputs.iter().zip(results.iter_mut()) {
                if slot.as_ref().is_err_and(transient) {
                    StatsInner::add(&self.stats.degraded_conversions, 1);
                    *slot = self.execute(&plan, input);
                }
            }
        }

        let failed = results.iter().filter(|r| r.is_err()).count();
        StatsInner::add(&self.stats.items_failed, failed as u64);
        Ok(results)
    }

    /// One batch item: fail fast with [`RunError::DeadlineExceeded`] when
    /// the batch deadline has already expired, execute otherwise.
    fn execute_deadlined(
        &self,
        plan: &Plan,
        input: &AnyMatrix,
        deadline: Option<(Duration, Instant)>,
    ) -> Result<AnyMatrix, EngineError> {
        if let Some((budget, at)) = deadline {
            if Instant::now() >= at {
                StatsInner::add(&self.stats.deadline_expired, 1);
                self.note(EventKind::DeadlineExpired, plan.pair, 0, input.nnz() as u64);
                return Err(EngineError::Run(RunError::DeadlineExceeded { deadline: budget }));
            }
        }
        self.execute(plan, input)
    }

    /// A point-in-time snapshot of this engine's counters.
    pub fn stats(&self) -> EngineStats {
        self.stats.snapshot(&self.cache)
    }

    /// The engine's exceptional-event ring buffer: kernel panics and
    /// declines, failed runs, rejected inputs, plan failures. Lock-free,
    /// fixed-size, drop-oldest; [`EventRing::dump`] renders it as text.
    pub fn events(&self) -> &EventRing {
        &self.events
    }

    /// A structured-text dump of the exceptional-event log (newest ring
    /// contents plus recorded/dropped totals) for debugging failed
    /// conversions.
    pub fn events_dump(&self) -> String {
        self.events.dump()
    }

    /// Point-in-time copies of every `(src, dst)` pair's latency and nnz
    /// histograms, sorted by pair label. Only *successful* conversions
    /// record here (latency is end-to-end: validation + execution).
    pub fn pair_histograms(&self) -> Vec<PairSnapshot> {
        self.pairs.snapshot()
    }

    /// This engine's counters, event-log totals, and per-pair histograms
    /// rendered as a Prometheus-style text page. Metric and label names
    /// are **stable API** (snapshot-tested): dashboards may key on them.
    pub fn metrics_text(&self) -> String {
        let mut page = sparse_obs::expo::MetricsText::new();
        self.stats().expose(&mut page);
        page.counter(
            "engine_events_recorded_total",
            "Exceptional events recorded.",
            self.events.recorded(),
        );
        page.counter(
            "engine_events_dropped_total",
            "Exceptional events dropped by the ring.",
            self.events.dropped(),
        );
        let pairs = self.pairs.snapshot();
        for (i, snap) in pairs.iter().enumerate() {
            page.summary(
                "engine_pair_latency_nanoseconds",
                "End-to-end successful-conversion latency per pair.",
                &[("pair", &snap.label)],
                &snap.latency_nanos,
                i == 0,
            );
        }
        for (i, snap) in pairs.iter().enumerate() {
            page.summary(
                "engine_pair_nnz",
                "Input stored-entry counts per pair.",
                &[("pair", &snap.label)],
                &snap.nnz,
                i == 0,
            );
        }
        page.finish()
    }

    /// Drops every cached plan (counters are kept).
    pub fn clear_cache(&self) {
        self.cache.clear();
    }

    /// The one execution path behind [`Engine::convert`],
    /// [`Engine::convert_tensor`] and every batch item, for either rank:
    /// validate → kernel attempt → interpreter (which holds the plan's
    /// allocations to the memory budget), the last two under
    /// `catch_unwind`. The panic guards make this the engine's fault
    /// boundary — nothing downstream of it can take out a caller.
    fn execute<I: Operand>(&self, plan: &Plan, input: &I) -> Result<I, EngineError> {
        let pair = plan.pair;
        let nnz = input.nnz() as u64;
        let started = Instant::now();
        let t0 = Instant::now();
        let checked = input.validate(&plan.synth.src);
        self.stage(Stage::Validate, pair, t0.elapsed().as_nanos() as u64, checked.is_ok());
        if let Err(e) = checked {
            StatsInner::add(&self.stats.inputs_rejected, 1);
            self.note(EventKind::InputRejected, pair, 0, nnz);
            return Err(EngineError::Run(e.into()));
        }
        if self.kernel_eligible(plan) {
            let t0 = Instant::now();
            let hit = catch_unwind(AssertUnwindSafe(|| input.run_kernel(plan)));
            let kernel_nanos = t0.elapsed().as_nanos() as u64;
            if let Some(out) = self.settle_kernel_attempt(hit, pair, kernel_nanos, nnz) {
                self.pairs.record(
                    pair,
                    || plan.pair_label(),
                    started.elapsed().as_nanos() as u64,
                    nnz,
                );
                return Ok(out);
            }
            // Declined, missing, or panicked: fall through to the
            // interpreter — fallback is never an error. The attempt's
            // cost and cause were attributed by `settle_kernel_attempt`.
        }
        let t0 = Instant::now();
        let budget = self.config.memory_budget;
        let out = catch_unwind(AssertUnwindSafe(|| {
            input.run_observed(plan, budget, pair, &*self.subscriber)
        }));
        let exec_nanos = t0.elapsed().as_nanos() as u64;
        StatsInner::add(&self.stats.exec_time, exec_nanos);
        match out {
            Ok(Ok(out)) => {
                StatsInner::add(&self.stats.conversions, 1);
                StatsInner::add(&self.stats.interp_fallbacks, 1);
                StatsInner::add(&self.stats.nnz_moved, nnz);
                self.pairs.record(
                    pair,
                    || plan.pair_label(),
                    started.elapsed().as_nanos() as u64,
                    nnz,
                );
                Ok(out)
            }
            // A budget refusal rejects the input, like validation: the
            // plan stopped at an allocation, before any entry moved.
            Ok(Err(e @ RunError::ResourceExhausted { .. })) => {
                StatsInner::add(&self.stats.inputs_rejected, 1);
                self.note(EventKind::AdmissionRejected, pair, exec_nanos, nnz);
                Err(EngineError::Run(e))
            }
            Ok(Err(e)) => {
                StatsInner::add(&self.stats.conversions_failed, 1);
                self.note(EventKind::RunFailed, pair, exec_nanos, nnz);
                Err(EngineError::Run(e))
            }
            Err(payload) => {
                StatsInner::add(&self.stats.conversions_failed, 1);
                StatsInner::add(&self.stats.panics_caught, 1);
                self.note(EventKind::InterpPanic, pair, exec_nanos, nnz);
                Err(EngineError::Panicked(panic_message(&*payload)))
            }
        }
    }

    /// Settles one guarded kernel attempt, attributing its cost and
    /// outcome: a hit counts `kernels_hit`/`conversions` and returns the
    /// output; a decline or contained panic counts its own stat, banks
    /// the attempt's wall time under `kernel_declined_time` (so stage
    /// times still sum to wall time), emits an event, and returns `None`
    /// so the caller falls back to the interpreter. An earlier regime
    /// collapsed all three non-hit cases into a silent fall-through,
    /// dropping both the panic count and the attempt's time.
    fn settle_kernel_attempt<T>(
        &self,
        attempt: std::thread::Result<Option<Result<T, RunError>>>,
        pair: u64,
        kernel_nanos: u64,
        nnz: u64,
    ) -> Option<T> {
        let out = match attempt {
            Ok(Some(Ok(out))) => {
                StatsInner::add(&self.stats.kernels_hit, 1);
                StatsInner::add(&self.stats.conversions, 1);
                StatsInner::add(&self.stats.nnz_moved, nnz);
                Some(out)
            }
            Ok(Some(Err(_declined))) => {
                StatsInner::add(&self.stats.kernel_declines, 1);
                self.note(EventKind::KernelDecline, pair, kernel_nanos, nnz);
                None
            }
            // A kernel registered for the other rank only: nothing ran,
            // nothing to account.
            Ok(None) => return None,
            Err(_payload) => {
                StatsInner::add(&self.stats.kernel_panics, 1);
                StatsInner::add(&self.stats.panics_caught, 1);
                self.note(EventKind::KernelPanic, pair, kernel_nanos, nnz);
                None
            }
        };
        self.stage(Stage::Kernel, pair, kernel_nanos, out.is_some());
        out
    }

    /// Reports one completed stage: banks its time under the stage's
    /// counter (`verify_time`; `validate_time` for validation;
    /// `kernel_time` for a kernel hit, `kernel_declined_time`
    /// for a decline or contained panic; nothing for `plan`) and emits
    /// its span when the subscriber is enabled.
    fn stage(&self, stage: Stage, pair: u64, nanos: u64, ok: bool) {
        let time = match stage {
            Stage::Verify => Some(&self.stats.verify_time),
            Stage::Validate => Some(&self.stats.validate_time),
            Stage::Kernel if ok => Some(&self.stats.kernel_time),
            Stage::Kernel => Some(&self.stats.kernel_declined_time),
            Stage::Plan | Stage::Interp | Stage::Extract => None,
        };
        if let Some(counter) = time {
            StatsInner::add(counter, nanos);
        }
        if self.subscriber.enabled() {
            self.subscriber.span(Span { stage, pair, nanos, ok });
        }
    }

    /// The kernel-backend gate: a native kernel may serve a conversion
    /// only when the plan carries a clean static-verification report, a
    /// kernel is registered for the pair's structural fingerprints, and
    /// no memory budget is set — kernels allocate outside the
    /// interpreter, where the budget is enforced. Everything else
    /// interprets.
    fn kernel_eligible(&self, plan: &Plan) -> bool {
        self.config.memory_budget.is_none() && plan.verification.is_some() && plan.has_kernel()
    }
}

/// `dst`, alpha-renamed when it shares an index-array, data or symbol
/// name with `src` (COO and SCOO share all of theirs): a plan over shared
/// names would allocate its outputs over its inputs.
fn apart<'d>(src: &FormatDescriptor, dst: &'d FormatDescriptor) -> Cow<'d, FormatDescriptor> {
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

/// A container [`Engine::execute`] converts: the rank-specific step
/// behind each stage of the one execution path, with one impl per rank.
trait Operand: Sized {
    fn nnz(&self) -> usize;
    fn validate(&self, src: &FormatDescriptor) -> Result<(), ValidationError>;
    fn run_kernel(&self, plan: &Conversion) -> Option<Result<Self, RunError>>;
    fn run_observed(
        &self,
        plan: &Conversion,
        budget: Option<u64>,
        pair: u64,
        obs: &dyn Subscriber,
    ) -> Result<Self, RunError>;
}

impl Operand for AnyMatrix {
    fn nnz(&self) -> usize {
        AnyMatrix::nnz(self)
    }
    fn validate(&self, src: &FormatDescriptor) -> Result<(), ValidationError> {
        sparse_formats::validate_matrix(src, self.as_ref())
    }
    fn run_kernel(&self, plan: &Conversion) -> Option<Result<Self, RunError>> {
        plan.run_matrix_kernel(self.as_ref())
    }
    fn run_observed(
        &self,
        plan: &Conversion,
        budget: Option<u64>,
        pair: u64,
        obs: &dyn Subscriber,
    ) -> Result<Self, RunError> {
        plan.run_matrix_budgeted(self.as_ref(), budget, pair, obs)
    }
}

impl Operand for AnyTensor {
    fn nnz(&self) -> usize {
        AnyTensor::nnz(self)
    }
    fn validate(&self, src: &FormatDescriptor) -> Result<(), ValidationError> {
        sparse_formats::validate_tensor(src, self.as_ref())
    }
    fn run_kernel(&self, plan: &Conversion) -> Option<Result<Self, RunError>> {
        plan.run_tensor_kernel(self.as_ref())
    }
    fn run_observed(
        &self,
        plan: &Conversion,
        budget: Option<u64>,
        pair: u64,
        obs: &dyn Subscriber,
    ) -> Result<Self, RunError> {
        plan.run_tensor_budgeted(self.as_ref(), budget, pair, obs)
    }
}

/// Whether a per-item failure is worth one sequential retry: execution
/// faults and contained panics may be scheduling artifacts; validation,
/// budget, dispatch, and deadline rejections are deterministic
/// functions of the input and would fail identically.
fn transient(e: &EngineError) -> bool {
    match e {
        EngineError::Panicked(_) => true,
        EngineError::Plan(_) => false,
        EngineError::Run(run) => matches!(
            run,
            RunError::Exec(_) | RunError::Format(_) | RunError::MissingOutput(_)
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparse_formats::descriptors::{self, ScanInfo};
    use sparse_formats::CooMatrix;
    use sparse_formats::FormatSpec;
    use spf_ir::order::{Comparator, KeyDim, OrderKey};
    use spf_ir::{parse_relation, parse_set, LinExpr, UfSignature, VarId};

    /// A COO-like destination ordered by a user-defined comparator — the
    /// one catalog mechanism that runs arbitrary caller code inside the
    /// interpreter, and therefore the engine's only genuine panic vector
    /// now that binds and validation are typed-error-complete.
    fn userfn_dst() -> FormatDescriptor {
        let mut ufs = spf_ir::UfEnvironment::new();
        ufs.insert(
            UfSignature::parse("rowx", "{ [x] : 0 <= x < NNZ }", "{ [i] : 0 <= i < NR }", None)
                .unwrap(),
        );
        ufs.insert(
            UfSignature::parse("colx", "{ [x] : 0 <= x < NNZ }", "{ [j] : 0 <= j < NC }", None)
                .unwrap(),
        );
        let mut scan_set =
            parse_set("{ [n, i, j] : i = rowx(n) && j = colx(n) && 0 <= n < NNZ }").unwrap();
        scan_set.simplify();
        FormatSpec {
            name: "XCOO".into(),
            rank: 2,
            sparse_to_dense: parse_relation(
                "{ [n, ii, jj] -> [i, j] : rowx(n) = i && colx(n) = j && ii = i && jj = j \
                 && 0 <= n < NNZ }",
            )
            .unwrap(),
            data_access: parse_relation("{ [n, ii, jj] -> [d0] : d0 = n }").unwrap(),
            scan: Some(ScanInfo {
                set: scan_set,
                dense_pos: vec![1, 2],
                data_index: LinExpr::var(VarId(0)),
            }),
            ufs,
            order: Some(OrderKey {
                comparator: Comparator::UserFn("EXPLODES".into()),
                dims: vec![KeyDim::coord(2, 0), KeyDim::coord(2, 1)],
            }),
            data_name: "Ax".into(),
            data_size: vec![LinExpr::sym("NNZ")],
            dim_syms: vec!["NR".into(), "NC".into()],
            nnz_sym: "NNZ".into(),
            extra_syms: vec![],
            coord_ufs: vec![Some("rowx".into()), Some("colx".into())],
            contiguous_data: true,
        }
        .into()
    }

    #[test]
    fn execution_panic_is_contained_as_typed_error() {
        let engine = Engine::new();
        let mut conversion =
            Conversion::new(&descriptors::scoo(), &userfn_dst(), SynthesisOptions::default())
                .unwrap();
        conversion.register_comparator(
            "EXPLODES",
            Arc::new(|_: &[i64], _: &[i64]| panic!("comparator exploded")),
        );
        let plan = Plan { conversion, verification: None, pair: 0 };
        let input = AnyMatrix::Coo(
            CooMatrix::from_triplets(
                4,
                4,
                vec![0, 1, 2, 3],
                vec![1, 0, 3, 2],
                vec![1.0, 2.0, 3.0, 4.0],
            )
            .unwrap(),
        );

        let err = engine.execute(&plan, &input).unwrap_err();
        match err {
            EngineError::Panicked(m) => assert!(m.contains("comparator exploded"), "{m}"),
            other => panic!("expected a contained panic, got: {other}"),
        }
        let stats = engine.stats();
        assert_eq!(stats.panics_caught, 1, "the panic must be counted");
        assert_eq!(stats.conversions, 0, "a panicked execution is not a conversion");
        assert_eq!(stats.conversions_failed, 1, "it is a failed conversion");
        assert_eq!(stats.interp_fallbacks, 0, "fallbacks count successes only");
        assert_eq!(stats.nnz_moved, 0, "panicked conversions move no nnz");

        // The engine — cache, counters, later converts — survives intact.
        let out = engine
            .convert(&descriptors::scoo(), &descriptors::csr(), &input)
            .unwrap();
        assert!(matches!(out, AnyMatrix::Csr(_)));
        assert_eq!(engine.stats().panics_caught, 1);
    }

    /// A kernel-eligible plan for scoo -> csr (clean verification report
    /// attached) whose native kernel is replaced by `kernel` through the
    /// fault-injection hook.
    fn kernel_plan(kernel: sparse_synthesis::MatrixKernelFn) -> Plan {
        let mut conversion =
            Conversion::new(&descriptors::scoo(), &descriptors::csr(), SynthesisOptions::default())
                .unwrap();
        let report = sparse_analyze::verify(&conversion.synth);
        assert!(report.is_clean(), "scoo -> csr must verify cleanly");
        conversion.override_matrix_kernel(kernel);
        Plan { conversion, verification: Some(report), pair: 42 }
    }

    fn sorted_input() -> AnyMatrix {
        AnyMatrix::Coo(
            CooMatrix::from_triplets(
                4,
                4,
                vec![0, 1, 2, 3],
                vec![1, 0, 3, 2],
                vec![1.0, 2.0, 3.0, 4.0],
            )
            .unwrap(),
        )
    }

    /// Regression: a panicking kernel used to be swallowed by the
    /// `if let Ok(Some(Ok(..)))` fall-through — no `panics_caught`, no
    /// event, no time attributed. The fallback behavior (interpreter
    /// answers, caller sees success) is pinned unchanged.
    #[test]
    fn panicking_kernel_is_counted_and_falls_back() {
        let engine = Engine::new();
        let plan = kernel_plan(|_| panic!("kernel exploded"));
        assert!(engine.kernel_eligible(&plan), "the test must exercise the kernel gate");

        let out = engine.execute(&plan, &sorted_input()).unwrap();
        assert!(matches!(out, AnyMatrix::Csr(_)), "fallback must still answer");
        let stats = engine.stats();
        assert_eq!(stats.kernel_panics, 1, "the kernel panic must be counted");
        assert_eq!(stats.panics_caught, 1, "and roll up into panics_caught");
        assert_eq!(stats.kernels_hit, 0);
        assert_eq!(stats.conversions, 1, "the interpreter completed the conversion");
        assert_eq!(stats.interp_fallbacks, 1);
        assert_eq!(stats.conversions_failed, 0, "a contained kernel panic is not a failure");
        assert!(engine.events_dump().contains("kernel-panic"), "{}", engine.events_dump());
    }

    /// Regression: a declining kernel's probe time used to be dropped on
    /// the floor (`t0` was only banked on a hit), so per-conversion stage
    /// times did not sum to wall time.
    #[test]
    fn declining_kernel_time_is_attributed() {
        let engine = Engine::new();
        let plan = kernel_plan(|_| {
            std::thread::sleep(Duration::from_millis(5));
            Err(RunError::Unsupported("declined by test".into()))
        });

        let out = engine.execute(&plan, &sorted_input()).unwrap();
        assert!(matches!(out, AnyMatrix::Csr(_)));
        let stats = engine.stats();
        assert_eq!(stats.kernel_declines, 1);
        assert_eq!(stats.kernels_hit, 0);
        assert_eq!(stats.kernel_time, Duration::ZERO, "no hit, no kernel_time");
        assert!(
            stats.kernel_declined_time >= Duration::from_millis(5),
            "the declined attempt's {:?} must be attributed",
            stats.kernel_declined_time
        );
        assert_eq!(stats.conversions, 1);
        assert_eq!(stats.interp_fallbacks, 1);
        assert_eq!(stats.panics_caught, 0, "declining is not a panic");
        assert!(engine.events_dump().contains("kernel-decline"), "{}", engine.events_dump());
    }
}
