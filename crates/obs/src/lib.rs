//! # sparse-obs
//!
//! The observability layer the conversion engine and the core executor
//! emit into. The paper's pitch is that synthesized inspectors are
//! *inspectable* — SPF-IR stages you can see and optimize — and this
//! crate extends that visibility into the runtime: every conversion is a
//! sequence of named stages (`plan`, `verify`, `validate`, `kernel`,
//! `interp`, `extract`), and each stage's outcome and duration
//! is observable without making the hot path block or allocate.
//!
//! Three mechanisms, all dependency-free:
//!
//! * **Spans** — a [`Subscriber`] receives one [`Span`] per completed
//!   stage (stage name, pair fingerprint, nanoseconds, outcome). The
//!   default [`NoopSubscriber`] compiles to a virtual call that does
//!   nothing, keeping the instrumented hot path within noise of the
//!   uninstrumented one (asserted in the `engine_cache` bench).
//! * **Event ring** — a lock-free fixed-size ring buffer of [`Event`]s
//!   (kernel panics, declined kernels, failed runs, rejected inputs).
//!   Writers never block and never allocate: when the ring is full the
//!   oldest event is overwritten and a dropped-event counter increments.
//!   [`EventRing::dump`] renders a structured-text log for debugging
//!   failed conversions.
//! * **Histograms** — log-bucketed, mergeable [`Histogram`]s with
//!   p50/p95/p99 accessors, grouped per `(src, dst)` fingerprint by
//!   [`PairHistograms`], rendered by the Prometheus-style text
//!   [`expo::MetricsText`] builder.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
// The ring and histograms sit on the engine's hot path; a panic here
// would defeat the engine's fault containment.
#![deny(clippy::unwrap_used)]
#![deny(clippy::expect_used)]

pub mod expo;
mod hist;
mod ring;

use std::sync::Mutex;

pub use hist::{Histogram, PairHistograms, PairSnapshot};
pub use ring::EventRing;

/// The named stages of one conversion, in pipeline order. Stage names
/// are **stable**: they appear in metric names, span records, and the
/// README's stats-semantics table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Plan acquisition: cache lookup plus (on a miss) synthesis and
    /// lowering.
    Plan,
    /// Static plan verification (`sparse-analyze`), when enabled.
    Verify,
    /// Input validation against the source descriptor's quantifier
    /// obligations.
    Validate,
    /// A native-kernel execution attempt (hit, decline, or contained
    /// panic).
    Kernel,
    /// SPF-IR interpreter execution of the synthesized inspector.
    Interp,
    /// Destination-container extraction and output validation.
    Extract,
}

impl Stage {
    /// Every stage, in pipeline order.
    pub const ALL: [Stage; 6] = [
        Stage::Plan,
        Stage::Verify,
        Stage::Validate,
        Stage::Kernel,
        Stage::Interp,
        Stage::Extract,
    ];

    /// The stage's stable name.
    pub fn as_str(self) -> &'static str {
        match self {
            Stage::Plan => "plan",
            Stage::Verify => "verify",
            Stage::Validate => "validate",
            Stage::Kernel => "kernel",
            Stage::Interp => "interp",
            Stage::Extract => "extract",
        }
    }
}

impl std::fmt::Display for Stage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One completed stage of one conversion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Which stage completed.
    pub stage: Stage,
    /// The plan fingerprint of the `(src, dst)` pair being converted
    /// (0 when no plan is in scope yet).
    pub pair: u64,
    /// Wall time the stage took, in nanoseconds.
    pub nanos: u64,
    /// Whether the stage succeeded. A declined kernel and a failed
    /// validation both report `ok: false`; what happens next (fallback
    /// vs typed error) is the engine's policy, not the span's.
    pub ok: bool,
}

/// What went wrong (or sideways), for the event log. Events are the
/// *exceptional* path — successful conversions emit spans only. The
/// discriminant is the kind's stable ring code.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u64)]
pub enum EventKind {
    /// A native kernel panicked; the panic was contained and the
    /// interpreter answered instead.
    KernelPanic = 1,
    /// A native kernel declined the input (e.g. duplicate coordinates);
    /// the interpreter answered instead.
    KernelDecline = 2,
    /// The interpreter path panicked; contained as a typed error.
    InterpPanic = 3,
    /// The interpreter path returned a typed execution error.
    RunFailed = 4,
    /// Input validation rejected the container before execution.
    InputRejected = 5,
    /// An allocation of the plan would have exceeded the memory budget.
    AdmissionRejected = 6,
    /// Plan synthesis or lowering failed.
    PlanFailed = 7,
    /// The static verifier rejected a freshly synthesized plan.
    PlanRejected = 8,
}

/// Every kind with its stable kebab-case name, in code order (checked
/// at compile time below), so `KINDS[code - 1]` is the kind of `code`.
const KINDS: [(EventKind, &str); 8] = [
    (EventKind::KernelPanic, "kernel-panic"),
    (EventKind::KernelDecline, "kernel-decline"),
    (EventKind::InterpPanic, "interp-panic"),
    (EventKind::RunFailed, "run-failed"),
    (EventKind::InputRejected, "input-rejected"),
    (EventKind::AdmissionRejected, "admission-rejected"),
    (EventKind::PlanFailed, "plan-failed"),
    (EventKind::PlanRejected, "plan-rejected"),
];

const _: () = {
    let mut i = 0;
    while i < KINDS.len() {
        assert!(KINDS[i].0 as usize == i + 1, "KINDS must list the kinds in code order");
        i += 1;
    }
};

impl EventKind {
    fn code(self) -> u64 {
        self as u64
    }

    fn from_code(code: u64) -> Option<EventKind> {
        let index = usize::try_from(code).ok()?.checked_sub(1)?;
        KINDS.get(index).map(|&(kind, _)| kind)
    }

    /// The kind's stable kebab-case name.
    pub fn as_str(self) -> &'static str {
        KINDS[self as usize - 1].1
    }
}

impl std::fmt::Display for EventKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One exceptional occurrence. Fixed-size and `Copy` by design: an event
/// must fit a lock-free ring slot, so it carries fingerprints and
/// numbers, never strings — the dump renders them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// What happened.
    pub kind: EventKind,
    /// The plan fingerprint of the `(src, dst)` pair (0 when unknown).
    pub pair: u64,
    /// Nanoseconds spent in the failing stage, when measured (else 0).
    pub nanos: u64,
    /// The input's stored-entry count, when known (else 0).
    pub nnz: u64,
}

/// Receives spans and events from an instrumented engine. Implementations
/// must be cheap and non-blocking: they run inline on the conversion hot
/// path, concurrently from every engine worker thread.
pub trait Subscriber: Send + Sync {
    /// Whether this subscriber wants anything at all. The engine still
    /// feeds its own ring and histograms when this is `false`; it only
    /// skips the subscriber calls themselves.
    fn enabled(&self) -> bool {
        true
    }

    /// One stage of one conversion completed.
    fn span(&self, span: Span);

    /// Something exceptional happened.
    fn event(&self, event: Event);
}

/// The default subscriber: drops everything, reports itself disabled.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoopSubscriber;

impl Subscriber for NoopSubscriber {
    fn enabled(&self) -> bool {
        false
    }

    fn span(&self, _span: Span) {}

    fn event(&self, _event: Event) {}
}

/// A subscriber that records everything it sees into memory — the
/// reference implementation, used by tests and the observability example
/// to assert exactly which stages ran.
#[derive(Debug, Default)]
pub struct CollectingSubscriber {
    spans: Mutex<Vec<Span>>,
    events: Mutex<Vec<Event>>,
}

impl CollectingSubscriber {
    /// An empty collector.
    pub fn new() -> Self {
        CollectingSubscriber::default()
    }

    /// Every span recorded so far, in arrival order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().unwrap_or_else(|e| e.into_inner()).clone()
    }

    /// Every event recorded so far, in arrival order.
    pub fn events(&self) -> Vec<Event> {
        self.events.lock().unwrap_or_else(|e| e.into_inner()).clone()
    }

    /// Spans for one stage, in arrival order.
    pub fn spans_for(&self, stage: Stage) -> Vec<Span> {
        self.spans().into_iter().filter(|s| s.stage == stage).collect()
    }
}

impl Subscriber for CollectingSubscriber {
    fn span(&self, span: Span) {
        self.spans.lock().unwrap_or_else(|e| e.into_inner()).push(span);
    }

    fn event(&self, event: Event) {
        self.events.lock().unwrap_or_else(|e| e.into_inner()).push(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_names_are_stable() {
        let names: Vec<&str> = Stage::ALL.iter().map(|s| s.as_str()).collect();
        assert_eq!(
            names,
            ["plan", "verify", "validate", "kernel", "interp", "extract"]
        );
    }

    #[test]
    fn event_kind_codes_round_trip() {
        for kind in [
            EventKind::KernelPanic,
            EventKind::KernelDecline,
            EventKind::InterpPanic,
            EventKind::RunFailed,
            EventKind::InputRejected,
            EventKind::AdmissionRejected,
            EventKind::PlanFailed,
            EventKind::PlanRejected,
        ] {
            assert_eq!(EventKind::from_code(kind.code()), Some(kind));
        }
        assert_eq!(EventKind::from_code(0), None);
        assert_eq!(EventKind::from_code(99), None);
    }

    #[test]
    fn collecting_subscriber_records_in_order() {
        let sub = CollectingSubscriber::new();
        assert!(sub.enabled());
        sub.span(Span { stage: Stage::Validate, pair: 7, nanos: 10, ok: true });
        sub.span(Span { stage: Stage::Interp, pair: 7, nanos: 20, ok: true });
        sub.event(Event { kind: EventKind::KernelDecline, pair: 7, nanos: 5, nnz: 3 });
        assert_eq!(sub.spans().len(), 2);
        assert_eq!(sub.spans_for(Stage::Interp).len(), 1);
        assert_eq!(sub.events()[0].kind, EventKind::KernelDecline);
    }

    #[test]
    fn noop_subscriber_is_disabled() {
        assert!(!NoopSubscriber.enabled());
    }
}
