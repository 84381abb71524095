//! Engine counters: lock-free atomics updated on the hot path, snapshot
//! into a plain [`EngineStats`] value on demand.
//!
//! Every counter is declared once, as a row of the table at the bottom
//! of this file: its `EngineStats` field (doc, name, type), where its
//! value comes from, and its metric name and help text. The table
//! generates the atomics in [`StatsInner`], the snapshot, the
//! `EngineStats` fields and the counter section of
//! `Engine::metrics_text`, which renders the rows in table order. Adding
//! a counter means one row plus its increment site.
//!
//! Every counter increments at exactly one site, at the moment the thing
//! it counts actually happens — no counter is ever *derived* from other
//! counters (an earlier `cache_hits = lookups - misses` formula reported
//! garbage whenever a snapshot raced an in-flight lookup).
//! The README's stats-semantics table documents each counter's trigger
//! condition; tests assert the cross-counter invariants.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use sparse_obs::expo::MetricsText;

use crate::cache::PlanCache;

/// A row's value type: how it is read from its atomic (a count, or a
/// `Duration` banked as nanoseconds) and rendered as an integer sample.
trait Value {
    fn from_atomic(raw: u64) -> Self;
    fn exposed(&self) -> u64;
}

impl Value for u64 {
    fn from_atomic(raw: u64) -> Self {
        raw
    }
    fn exposed(&self) -> u64 {
        *self
    }
}

impl Value for usize {
    fn from_atomic(raw: u64) -> Self {
        raw as usize
    }
    fn exposed(&self) -> u64 {
        *self as u64
    }
}

impl Value for Duration {
    fn from_atomic(raw: u64) -> Self {
        Duration::from_nanos(raw)
    }
    fn exposed(&self) -> u64 {
        self.as_nanos() as u64
    }
}

/// Declares [`StatsInner`] with one atomic per engine-counted row; rows
/// read from the plan cache (`= PlanCache::..`) get none.
macro_rules! atomics {
    ([$($counted:ident)*]) => {
        /// Internal atomic counters; one instance per [`crate::Engine`].
        #[derive(Debug, Default)]
        pub(crate) struct StatsInner {
            $(pub $counted: AtomicU64,)*
        }
    };
    ([$($counted:ident)*] $field:ident [] $($rest:tt)*) => {
        atomics!([$($counted)* $field] $($rest)*);
    };
    ([$($counted:ident)*] $field:ident [$src:path] $($rest:tt)*) => {
        atomics!([$($counted)*] $($rest)*);
    };
}

/// One row's snapshot value: its own atomic, or its plan-cache reader.
macro_rules! load {
    ([] $inner:ident.$field:ident, $cache:ident) => {
        Value::from_atomic($inner.$field.load(Ordering::Relaxed))
    };
    ([$src:path] $inner:ident.$field:ident, $cache:ident) => {
        $src($cache)
    };
}

/// Expands the counter table (see the module doc).
macro_rules! engine_stats {
    (
        $(#[$meta:meta])*
        pub struct EngineStats {
            $(
                $(#[$doc:meta])*
                $field:ident: $ty:ty $(= $src:path)? => $expo:ident($metric:literal, $help:literal),
            )*
        }
    ) => {
        $(#[$meta])*
        pub struct EngineStats {
            $($(#[$doc])* pub $field: $ty,)*
        }

        atomics!([] $($field [$($src)?])*);

        impl StatsInner {
            pub fn add(counter: &AtomicU64, v: u64) {
                counter.fetch_add(v, Ordering::Relaxed);
            }

            pub fn snapshot<P>(&self, cache: &PlanCache<P>) -> EngineStats {
                EngineStats { $($field: load!([$($src)?] self.$field, cache),)* }
            }
        }

        impl EngineStats {
            /// Renders every row, in table order, as one metric.
            pub(crate) fn expose(&self, page: &mut MetricsText) {
                $(page.$expo($metric, $help, Value::exposed(&self.$field));)*
            }
        }
    };
}

engine_stats! {
    /// A point-in-time snapshot of an engine's counters.
    ///
    /// Counters are monotone over the engine's lifetime (except
    /// `cached_plans`, which tracks current occupancy), so rates can be
    /// computed by differencing two snapshots. Each counter has its own
    /// atomic incremented at its trigger site; none is derived, so a
    /// snapshot taken mid-flight never reports impossible combinations
    /// (though unrelated counters may of course be mid-update relative to
    /// each other).
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct EngineStats {
        /// Plan lookups received (`Engine::plan` calls, including the
        /// implicit one in every convert). `plan_lookups == cache_hits +
        /// cache_misses` once all in-flight lookups resolve.
        plan_lookups: u64 => counter("engine_plan_lookups_total", "Plan lookups received."),
        /// Plan lookups answered from the cache without synthesizing.
        /// Counted at the hit site, never derived from other counters.
        cache_hits: u64 => counter("engine_cache_hits_total",
            "Plan lookups answered from the cache."),
        /// Plan lookups that missed the cache: this thread synthesized, or
        /// observed a (briefly cached) synthesis failure.
        cache_misses: u64 => counter("engine_cache_misses_total",
            "Plan lookups that synthesized or observed a failure."),
        /// Plans dropped to make room under the capacity limit.
        cache_evictions: u64 = PlanCache::evictions => counter("engine_cache_evictions_total",
            "Plans dropped under the capacity limit."),
        /// Plans currently resident in the cache.
        cached_plans: usize = PlanCache::len => gauge("engine_cached_plans",
            "Plans currently resident."),
        /// Plans built by the synthesizer (equivalently: cache misses that
        /// succeeded and were admitted). A warm cache leaves this unchanged.
        plans_synthesized: u64 => counter("engine_plans_synthesized_total",
            "Plans built by the synthesizer."),
        /// Plan constructions that failed in synthesis/lowering (verifier
        /// rejections count separately under `plans_rejected`).
        plan_failures: u64 => counter("engine_plan_failures_total",
            "Plan constructions that failed."),
        /// Plans run through the static verifier (only under
        /// `EngineConfig::verify_plans`).
        plans_verified: u64 => counter("engine_plans_verified_total",
            "Plans run through the static verifier."),
        /// Plans the verifier rejected with error-severity diagnostics;
        /// rejected plans are never cached.
        plans_rejected: u64 => counter("engine_plans_rejected_total",
            "Plans the verifier refused."),
        /// Conversions that **completed successfully** (each batch element
        /// counts once). Failed or panicked executions count under
        /// `conversions_failed` instead, and pre-execution refusals under
        /// `inputs_rejected` — an earlier regime counted attempts here,
        /// which made `conversions` disagree with the number of outputs
        /// actually produced.
        conversions: u64 => counter("engine_conversions_total",
            "Conversions that completed successfully."),
        /// Executions that started and then failed: a typed interpreter
        /// error or a contained panic. Refusals (validation, memory budget)
        /// are *not* counted here.
        conversions_failed: u64 => counter("engine_conversions_failed_total",
            "Executions that started and then failed or panicked."),
        /// Total stored entries moved across all successful conversions
        /// (input nnz, padding excluded).
        nnz_moved: u64 => counter("engine_nnz_moved_total",
            "Stored entries moved by successful conversions."),
        /// Conversions served by a native fused kernel (only behind a
        /// verified plan, validated inputs and no memory budget). Every successful conversion
        /// is either a kernel hit or an interpreter execution: `kernels_hit +
        /// interp_fallbacks == conversions` always holds.
        kernels_hit: u64 => counter("engine_kernels_hit_total",
            "Conversions served by a native kernel."),
        /// Kernel attempts that declined the input (returned an error); the
        /// interpreter answered instead. Declines are not failures — the
        /// conversion's outcome is whatever the interpreter produced.
        kernel_declines: u64 => counter("engine_kernel_declines_total",
            "Kernel attempts that declined the input."),
        /// Kernel attempts that panicked; the panic was contained, counted
        /// (also under `panics_caught`), and the interpreter answered
        /// instead. An earlier regime swallowed these entirely.
        kernel_panics: u64 => counter("engine_kernel_panics_total",
            "Kernel attempts that panicked (contained)."),
        /// Successful conversions executed by the SPF-IR interpreter —
        /// because no kernel is registered for the pair, the plan was not
        /// verified, a memory budget is set, or a kernel declined/panicked
        /// on the input. Falling back is never an error.
        interp_fallbacks: u64 => counter("engine_interp_fallbacks_total",
            "Successful conversions executed by the interpreter."),
        /// Inputs refused before any entry moved: validation failures
        /// (`RunError::InvalidInput`) plus memory-budget refusals
        /// (`RunError::ResourceExhausted`, raised at the plan allocation
        /// that would exceed the budget). Refused inputs count neither as
        /// `conversions` nor as `conversions_failed`.
        inputs_rejected: u64 => counter("engine_inputs_rejected_total",
            "Inputs refused before execution (validation or admission)."),
        /// Batch items whose result was an error. Includes rejected,
        /// failed, and panicked items; single `convert` calls are not
        /// counted here.
        items_failed: u64 => counter("engine_items_failed_total",
            "Batch items whose result was an error."),
        /// Worker panics contained at an isolation boundary: per-item
        /// `catch_unwind` around the interpreter, the kernel attempt guard
        /// (also counted under `kernel_panics`), the plan builder, or the
        /// join of a batch worker thread.
        panics_caught: u64 => counter("engine_panics_caught_total",
            "Panics contained at an isolation boundary."),
        /// Cumulative wall time spent in synthesis + lowering.
        synth_time: Duration => counter("engine_synth_nanoseconds_total",
            "Wall time in synthesis and lowering."),
        /// Cumulative wall time spent in static plan verification.
        verify_time: Duration => counter("engine_verify_nanoseconds_total",
            "Wall time in static plan verification."),
        /// Cumulative wall time spent validating inputs against source
        /// descriptors.
        validate_time: Duration => counter("engine_validate_nanoseconds_total",
            "Wall time in input validation."),
        /// Cumulative wall time spent executing inspectors (summed across
        /// batch workers, so it can exceed wall-clock under parallelism).
        /// Kernel executions are counted separately in `kernel_time`.
        exec_time: Duration => counter("engine_exec_nanoseconds_total",
            "Wall time in interpreter execution."),
        /// Cumulative wall time spent in native kernels that *hit*
        /// (produced the output).
        kernel_time: Duration => counter("engine_kernel_nanoseconds_total",
            "Wall time in native kernels that hit."),
        /// Cumulative wall time spent in kernel attempts that declined or
        /// panicked before the interpreter took over. Separately attributed
        /// so per-conversion stage times sum to wall time — an earlier
        /// regime silently dropped this time on the floor.
        kernel_declined_time: Duration => counter("engine_kernel_declined_nanoseconds_total",
            "Wall time in kernel attempts that declined or panicked."),
    }
}
