//! Observability contracts: stage spans cover the conversion pipeline,
//! exceptional events land in the ring and the subscriber, and the
//! Prometheus-style exposition is snapshot-stable (metric names are API).

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

use sparse_engine::{CollectingSubscriber, Engine, EngineConfig, EngineStats};
use sparse_formats::descriptors;
use sparse_formats::{AnyMatrix, CooMatrix};
use sparse_obs::{EventKind, Span, Stage};

/// Sorted row-major, 5 stored entries.
fn sample() -> AnyMatrix {
    AnyMatrix::Coo(
        CooMatrix::from_triplets(
            4,
            5,
            vec![0, 0, 1, 2, 3],
            vec![1, 3, 0, 2, 4],
            vec![1.0, 2.0, 3.0, 4.0, 5.0],
        )
        .unwrap(),
    )
}

/// Row-major sortedness violated (the `scoo` source claims it).
fn unsorted() -> AnyMatrix {
    AnyMatrix::Coo(
        CooMatrix::from_triplets(4, 5, vec![3, 0], vec![0, 1], vec![1.0, 2.0]).unwrap(),
    )
}

#[test]
fn interp_path_emits_spans_for_every_stage() {
    let collector = Arc::new(CollectingSubscriber::new());
    let engine = Engine::with_subscriber(EngineConfig::default(), collector.clone());
    engine
        .convert(&descriptors::scoo(), &descriptors::csr(), &sample())
        .unwrap();

    // Default engine (no verification, no budget): plan, validate,
    // interp, extract — in that order, all ok, all on one pair key.
    let spans = collector.spans();
    let stages: Vec<Stage> = spans.iter().map(|s| s.stage).collect();
    assert_eq!(stages, [Stage::Plan, Stage::Validate, Stage::Interp, Stage::Extract]);
    assert!(spans.iter().all(|s| s.ok), "every stage succeeded: {spans:?}");
    let pair = spans[0].pair;
    assert_ne!(pair, 0, "the plan fingerprint keys the spans");
    assert!(spans.iter().all(|s| s.pair == pair), "one conversion, one pair: {spans:?}");
    assert!(collector.events().is_empty(), "success emits no events");
}

#[test]
fn kernel_path_emits_kernel_span_instead_of_interp() {
    let collector = Arc::new(CollectingSubscriber::new());
    let engine = Engine::with_subscriber(
        EngineConfig { verify_plans: true, ..Default::default() },
        collector.clone(),
    );
    engine
        .convert(&descriptors::scoo(), &descriptors::csr(), &sample())
        .unwrap();
    assert_eq!(engine.stats().kernels_hit, 1, "scoo -> csr must be kernel-backed");

    let kernel = collector.spans_for(Stage::Kernel);
    assert_eq!(kernel.len(), 1);
    assert!(kernel[0].ok);
    assert!(collector.spans_for(Stage::Interp).is_empty(), "the kernel answered");
    assert_eq!(collector.spans_for(Stage::Verify).len(), 1, "fresh plan was verified");
}

#[test]
fn rejected_input_reaches_ring_and_subscriber() {
    let collector = Arc::new(CollectingSubscriber::new());
    let engine = Engine::with_subscriber(EngineConfig::default(), collector.clone());
    let err = engine
        .convert(&descriptors::scoo(), &descriptors::csr(), &unsorted())
        .unwrap_err();
    assert!(err.to_string().contains("ordering"), "{err}");

    let events = collector.events();
    assert_eq!(events.len(), 1);
    assert_eq!(events[0].kind, EventKind::InputRejected);
    assert_eq!(events[0].nnz, 2, "the event carries the input's nnz");
    assert_eq!(engine.events().recorded(), 1);
    let dump = engine.events_dump();
    assert!(dump.contains("input-rejected"), "{dump}");
    // The validate span reports the failure; no execution stage ran.
    let validate = collector.spans_for(Stage::Validate);
    assert_eq!(validate.len(), 1);
    assert!(!validate[0].ok);
    assert!(collector.spans_for(Stage::Interp).is_empty());
}

/// Total nanoseconds of the collected spans that satisfy `keep`.
fn span_time(spans: &[Span], keep: impl Fn(&Span) -> bool) -> Duration {
    Duration::from_nanos(spans.iter().filter(|s| keep(s)).map(|s| s.nanos).sum())
}

/// Every unlabelled sample line of the exposition as `name -> value`.
fn samples(text: &str) -> BTreeMap<String, u64> {
    text.lines()
        .filter(|l| !l.starts_with('#') && !l.contains('{'))
        .map(|l| {
            let (name, value) = l.split_once(' ').unwrap();
            (name.to_string(), value.parse().unwrap())
        })
        .collect()
}

/// Each counter's metric name and the `EngineStats` field it must show,
/// written out independently of the engine's own table.
fn expected_samples(s: &EngineStats, recorded: u64, dropped: u64) -> BTreeMap<String, u64> {
    let nanos = |d: Duration| d.as_nanos() as u64;
    [
        ("engine_plan_lookups_total", s.plan_lookups),
        ("engine_cache_hits_total", s.cache_hits),
        ("engine_cache_misses_total", s.cache_misses),
        ("engine_cache_evictions_total", s.cache_evictions),
        ("engine_cached_plans", s.cached_plans as u64),
        ("engine_plans_synthesized_total", s.plans_synthesized),
        ("engine_plan_failures_total", s.plan_failures),
        ("engine_plans_verified_total", s.plans_verified),
        ("engine_plans_rejected_total", s.plans_rejected),
        ("engine_conversions_total", s.conversions),
        ("engine_conversions_failed_total", s.conversions_failed),
        ("engine_nnz_moved_total", s.nnz_moved),
        ("engine_kernels_hit_total", s.kernels_hit),
        ("engine_kernel_declines_total", s.kernel_declines),
        ("engine_kernel_panics_total", s.kernel_panics),
        ("engine_interp_fallbacks_total", s.interp_fallbacks),
        ("engine_inputs_rejected_total", s.inputs_rejected),
        ("engine_items_failed_total", s.items_failed),
        ("engine_panics_caught_total", s.panics_caught),
        ("engine_synth_nanoseconds_total", nanos(s.synth_time)),
        ("engine_verify_nanoseconds_total", nanos(s.verify_time)),
        ("engine_validate_nanoseconds_total", nanos(s.validate_time)),
        ("engine_exec_nanoseconds_total", nanos(s.exec_time)),
        ("engine_kernel_nanoseconds_total", nanos(s.kernel_time)),
        ("engine_kernel_declined_nanoseconds_total", nanos(s.kernel_declined_time)),
        ("engine_events_recorded_total", recorded),
        ("engine_events_dropped_total", dropped),
    ]
    .into_iter()
    .map(|(name, value)| (name.to_string(), value))
    .collect()
}

/// The three views of an engine agree exactly: each stage-time counter
/// is the sum of its stage's spans, and every counter line of the
/// exposition shows its `EngineStats` field.
fn assert_views_agree(engine: &Engine, collector: &CollectingSubscriber) -> EngineStats {
    let s = engine.stats();
    let spans = collector.spans();
    let stage = |want: Stage| move |s: &Span| s.stage == want;
    assert_eq!(span_time(&spans, stage(Stage::Verify)), s.verify_time);
    assert_eq!(span_time(&spans, stage(Stage::Validate)), s.validate_time);
    assert_eq!(span_time(&spans, |s| s.stage == Stage::Kernel && s.ok), s.kernel_time);
    assert_eq!(
        span_time(&spans, |s| s.stage == Stage::Kernel && !s.ok),
        s.kernel_declined_time
    );
    let text = engine.metrics_text();
    assert_eq!(
        samples(&text),
        expected_samples(&s, engine.events().recorded(), engine.events().dropped()),
        "exposition:\n{text}"
    );
    s
}

/// Covers a kernel hit, a kernel decline, an interpreted pair and a
/// rejected input on one verified engine, and a memory-budget refusal on
/// a second one (a budgeted engine takes no kernel).
#[test]
fn spans_counters_and_exposition_agree() {
    let collector = Arc::new(CollectingSubscriber::new());
    let engine = Engine::with_subscriber(
        EngineConfig { verify_plans: true, ..Default::default() },
        collector.clone(),
    );
    let (scoo, coo, csr, dia) =
        (descriptors::scoo(), descriptors::coo(), descriptors::csr(), descriptors::dia());

    // Kernel hit.
    engine.convert(&scoo, &csr, &sample()).unwrap();
    // Kernel decline: duplicate coordinates in an unordered COO source.
    // Only the decline is under test; the interpreter's answer collapses
    // the duplicates into a CSR row that fails the output check.
    let dup = CooMatrix::from_triplets(
        3,
        3,
        vec![1, 0, 1, 2],
        vec![2, 1, 2, 0],
        vec![1.0, 2.0, 3.0, 4.0],
    )
    .unwrap();
    assert!(engine.convert(&coo, &csr, &AnyMatrix::Coo(dup)).is_err());
    // Interpreted pair: no kernel covers DIA.
    engine.convert(&scoo, &dia, &sample()).unwrap();
    // Rejected input.
    assert!(engine.convert(&scoo, &csr, &unsorted()).is_err());
    let s = assert_views_agree(&engine, &collector);
    assert_eq!(
        (s.kernels_hit, s.kernel_declines, s.interp_fallbacks, s.inputs_rejected),
        (1, 1, 1, 1),
        "the workload must reach every path: {s:?}"
    );

    // Budget refusal: an antidiagonal puts every entry on its own
    // diagonal, 64 × 64 DIA slots against a 10 000-byte budget.
    let collector = Arc::new(CollectingSubscriber::new());
    let engine = Engine::with_subscriber(
        EngineConfig { memory_budget: Some(10_000), ..Default::default() },
        collector.clone(),
    );
    let n = 64;
    let anti = CooMatrix::from_triplets(
        n,
        n,
        (0..n as i64).collect(),
        (0..n as i64).rev().collect(),
        vec![1.0; n],
    )
    .unwrap();
    assert!(engine.convert(&scoo, &dia, &AnyMatrix::Coo(anti)).is_err());
    engine.convert(&scoo, &dia, &sample()).unwrap();
    let s = assert_views_agree(&engine, &collector);
    assert_eq!((s.inputs_rejected, s.conversions_failed, s.conversions), (1, 0, 1), "{s:?}");
    assert!(
        collector.spans_for(Stage::Interp).iter().any(|s| !s.ok),
        "the refusal emits a failed interp span"
    );
    assert!(
        collector.events().iter().any(|e| e.kind == EventKind::AdmissionRejected),
        "the refusal emits an admission-rejected event"
    );
}

/// Replaces every digit run with `N` so the snapshot is independent of
/// measured latencies while still pinning every metric name, label,
/// help string, and line ordering.
fn normalize(text: &str) -> String {
    let mut out = String::new();
    let mut in_digits = false;
    for c in text.chars() {
        if c.is_ascii_digit() {
            if !in_digits {
                out.push('N');
            }
            in_digits = true;
        } else {
            in_digits = false;
            out.push(c);
        }
    }
    out
}

#[test]
fn metrics_text_is_snapshot_stable() {
    let engine = Engine::new();
    let (src, dst) = (descriptors::scoo(), descriptors::csr());
    engine.convert(&src, &dst, &sample()).unwrap();
    engine.convert(&src, &dst, &sample()).unwrap();
    assert!(engine.convert(&src, &dst, &unsorted()).is_err());

    let text = engine.metrics_text();
    // Exact counter lines first — these are deterministic.
    for line in [
        "engine_plan_lookups_total 3",
        "engine_cache_hits_total 2",
        "engine_cache_misses_total 1",
        "engine_plans_synthesized_total 1",
        "engine_conversions_total 2",
        "engine_conversions_failed_total 0",
        "engine_interp_fallbacks_total 2",
        "engine_inputs_rejected_total 1",
        "engine_nnz_moved_total 10",
        "engine_events_recorded_total 1",
        "engine_events_dropped_total 0",
        "engine_pair_latency_nanoseconds_count{pair=\"SCOO->CSR\"} 2",
        "engine_pair_nnz_sum{pair=\"SCOO->CSR\"} 10",
    ] {
        assert!(text.lines().any(|l| l == line), "missing `{line}` in:\n{text}");
    }
    // Then the full page, digit-normalized: metric names, help strings,
    // label sets, and ordering are all stable API.
    assert_eq!(normalize(&text), SNAPSHOT, "full exposition drifted:\n{text}");
}

const SNAPSHOT: &str = "\
# HELP engine_plan_lookups_total Plan lookups received.
# TYPE engine_plan_lookups_total counter
engine_plan_lookups_total N
# HELP engine_cache_hits_total Plan lookups answered from the cache.
# TYPE engine_cache_hits_total counter
engine_cache_hits_total N
# HELP engine_cache_misses_total Plan lookups that synthesized or observed a failure.
# TYPE engine_cache_misses_total counter
engine_cache_misses_total N
# HELP engine_cache_evictions_total Plans dropped under the capacity limit.
# TYPE engine_cache_evictions_total counter
engine_cache_evictions_total N
# HELP engine_cached_plans Plans currently resident.
# TYPE engine_cached_plans gauge
engine_cached_plans N
# HELP engine_plans_synthesized_total Plans built by the synthesizer.
# TYPE engine_plans_synthesized_total counter
engine_plans_synthesized_total N
# HELP engine_plan_failures_total Plan constructions that failed.
# TYPE engine_plan_failures_total counter
engine_plan_failures_total N
# HELP engine_plans_verified_total Plans run through the static verifier.
# TYPE engine_plans_verified_total counter
engine_plans_verified_total N
# HELP engine_plans_rejected_total Plans the verifier refused.
# TYPE engine_plans_rejected_total counter
engine_plans_rejected_total N
# HELP engine_conversions_total Conversions that completed successfully.
# TYPE engine_conversions_total counter
engine_conversions_total N
# HELP engine_conversions_failed_total Executions that started and then failed or panicked.
# TYPE engine_conversions_failed_total counter
engine_conversions_failed_total N
# HELP engine_nnz_moved_total Stored entries moved by successful conversions.
# TYPE engine_nnz_moved_total counter
engine_nnz_moved_total N
# HELP engine_kernels_hit_total Conversions served by a native kernel.
# TYPE engine_kernels_hit_total counter
engine_kernels_hit_total N
# HELP engine_kernel_declines_total Kernel attempts that declined the input.
# TYPE engine_kernel_declines_total counter
engine_kernel_declines_total N
# HELP engine_kernel_panics_total Kernel attempts that panicked (contained).
# TYPE engine_kernel_panics_total counter
engine_kernel_panics_total N
# HELP engine_interp_fallbacks_total Successful conversions executed by the interpreter.
# TYPE engine_interp_fallbacks_total counter
engine_interp_fallbacks_total N
# HELP engine_inputs_rejected_total Inputs refused before execution (validation or admission).
# TYPE engine_inputs_rejected_total counter
engine_inputs_rejected_total N
# HELP engine_items_failed_total Batch items whose result was an error.
# TYPE engine_items_failed_total counter
engine_items_failed_total N
# HELP engine_panics_caught_total Panics contained at an isolation boundary.
# TYPE engine_panics_caught_total counter
engine_panics_caught_total N
# HELP engine_synth_nanoseconds_total Wall time in synthesis and lowering.
# TYPE engine_synth_nanoseconds_total counter
engine_synth_nanoseconds_total N
# HELP engine_verify_nanoseconds_total Wall time in static plan verification.
# TYPE engine_verify_nanoseconds_total counter
engine_verify_nanoseconds_total N
# HELP engine_validate_nanoseconds_total Wall time in input validation.
# TYPE engine_validate_nanoseconds_total counter
engine_validate_nanoseconds_total N
# HELP engine_exec_nanoseconds_total Wall time in interpreter execution.
# TYPE engine_exec_nanoseconds_total counter
engine_exec_nanoseconds_total N
# HELP engine_kernel_nanoseconds_total Wall time in native kernels that hit.
# TYPE engine_kernel_nanoseconds_total counter
engine_kernel_nanoseconds_total N
# HELP engine_kernel_declined_nanoseconds_total Wall time in kernel attempts that declined or panicked.
# TYPE engine_kernel_declined_nanoseconds_total counter
engine_kernel_declined_nanoseconds_total N
# HELP engine_events_recorded_total Exceptional events recorded.
# TYPE engine_events_recorded_total counter
engine_events_recorded_total N
# HELP engine_events_dropped_total Exceptional events dropped by the ring.
# TYPE engine_events_dropped_total counter
engine_events_dropped_total N
# HELP engine_pair_latency_nanoseconds End-to-end successful-conversion latency per pair.
# TYPE engine_pair_latency_nanoseconds summary
engine_pair_latency_nanoseconds{pair=\"SCOO->CSR\",quantile=\"N.N\"} N
engine_pair_latency_nanoseconds{pair=\"SCOO->CSR\",quantile=\"N.N\"} N
engine_pair_latency_nanoseconds{pair=\"SCOO->CSR\",quantile=\"N.N\"} N
engine_pair_latency_nanoseconds_count{pair=\"SCOO->CSR\"} N
engine_pair_latency_nanoseconds_sum{pair=\"SCOO->CSR\"} N
# HELP engine_pair_nnz Input stored-entry counts per pair.
# TYPE engine_pair_nnz summary
engine_pair_nnz{pair=\"SCOO->CSR\",quantile=\"N.N\"} N
engine_pair_nnz{pair=\"SCOO->CSR\",quantile=\"N.N\"} N
engine_pair_nnz{pair=\"SCOO->CSR\",quantile=\"N.N\"} N
engine_pair_nnz_count{pair=\"SCOO->CSR\"} N
engine_pair_nnz_sum{pair=\"SCOO->CSR\"} N
";
