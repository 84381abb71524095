//! Concurrency contracts: N threads hammering one engine synthesize a
//! shared plan exactly once, and `convert_batch` agrees element-for-
//! element with sequential `convert`.

use std::collections::HashSet;
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;

use sparse_engine::{Engine, EngineConfig, Subscriber};
use sparse_formats::descriptors;
use sparse_formats::{AnyMatrix, CooMatrix};
use sparse_obs::{Event, Span, Stage};

fn sample_scoo(nr: usize, nc: usize, stride: usize, salt: u64) -> CooMatrix {
    let mut row = Vec::new();
    let mut col = Vec::new();
    let mut val = Vec::new();
    for k in (0..nr * nc).step_by(stride) {
        row.push((k / nc) as i64);
        col.push((k % nc) as i64);
        val.push((k as u64 * 31 + salt) as f64);
    }
    CooMatrix::from_triplets(nr, nc, row, col, val).unwrap()
}

#[test]
fn n_threads_synthesize_exactly_once() {
    const THREADS: usize = 8;
    const CONVERTS: usize = 10;
    let engine = Engine::new();
    let src = descriptors::scoo();
    let dst = descriptors::csr();

    std::thread::scope(|s| {
        for t in 0..THREADS {
            let engine = &engine;
            let src = &src;
            let dst = &dst;
            s.spawn(move || {
                let input = AnyMatrix::Coo(sample_scoo(12, 12, 3, t as u64));
                for _ in 0..CONVERTS {
                    let out = engine.convert(src, dst, &input).unwrap();
                    assert!(matches!(out, AnyMatrix::Csr(_)));
                }
            });
        }
    });

    let stats = engine.stats();
    assert_eq!(
        stats.plans_synthesized, 1,
        "{THREADS} threads x {CONVERTS} converts must share one synthesis"
    );
    assert_eq!(stats.cache_misses, 1);
    assert_eq!(stats.cache_hits, (THREADS * CONVERTS) as u64 - 1);
    assert_eq!(stats.conversions, (THREADS * CONVERTS) as u64);
}

/// Regression: `cache_hits` used to be *derived* at snapshot time as
/// `plan_lookups - (plans_synthesized + plan_failures)`, so a snapshot
/// racing an in-flight lookup (lookup counted, outcome not yet) reported
/// phantom hits. Two contracts pin the fix:
///
/// 1. A pair that always fails synthesis can never produce a hit, in any
///    snapshot, no matter when it is taken (a sampler thread asserts
///    this while workers hammer the failing pair — under the derived
///    formula it trips within a few iterations).
/// 2. At rest, hits are exact: after a barrier-aligned stampede on one
///    pair, exactly one lookup missed and every other one hit.
#[test]
fn cache_hit_counter_is_exact_not_derived() {
    const WORKERS: usize = 4;
    const LOOKUPS: usize = 50;
    let engine = Engine::new();
    // DIA has no executable scan, so DIA-as-source always fails
    // synthesis; failures are never cached, so every lookup is a miss.
    let src = descriptors::dia();
    let dst = descriptors::csr();
    use std::sync::atomic::{AtomicUsize, Ordering};
    let remaining = AtomicUsize::new(WORKERS);

    std::thread::scope(|s| {
        for _ in 0..WORKERS {
            s.spawn(|| {
                for _ in 0..LOOKUPS {
                    assert!(engine.plan(&src, &dst).is_err());
                }
                remaining.fetch_sub(1, Ordering::Relaxed);
            });
        }
        // The sampler races snapshots against in-flight lookups until the
        // last worker retires.
        s.spawn(|| {
            while remaining.load(Ordering::Relaxed) > 0 {
                let sample = engine.stats();
                assert_eq!(
                    sample.cache_hits, 0,
                    "a pair that never synthesizes can never hit (sampled mid-flight)"
                );
                std::hint::spin_loop();
            }
        });
    });

    let stats = engine.stats();
    assert_eq!(stats.cache_hits, 0);
    assert_eq!(stats.cache_misses, (WORKERS * LOOKUPS) as u64);
    assert_eq!(stats.plan_lookups, stats.cache_hits + stats.cache_misses);

    // Contract 2: barrier-aligned stampede on a pair that synthesizes.
    const THREADS: usize = 8;
    let engine = Engine::new();
    let src = descriptors::scoo();
    let dst = descriptors::csr();
    let barrier = std::sync::Barrier::new(THREADS);
    std::thread::scope(|s| {
        for _ in 0..THREADS {
            s.spawn(|| {
                barrier.wait();
                engine.plan(&src, &dst).unwrap();
            });
        }
    });
    let stats = engine.stats();
    assert_eq!(stats.plan_lookups, THREADS as u64);
    assert_eq!(stats.cache_misses, 1, "exactly one thread ran the builder");
    assert_eq!(stats.cache_hits, THREADS as u64 - 1, "every other thread hit");
    assert_eq!(stats.plans_synthesized, 1);
}

#[test]
fn batch_matches_sequential_element_for_element() {
    let src = descriptors::scoo();
    let dst = descriptors::csr();
    let inputs: Vec<AnyMatrix> = (0..13)
        .map(|i| AnyMatrix::Coo(sample_scoo(10 + i, 9 + i, 2 + i % 3, i as u64)))
        .collect();

    let sequential = Engine::new();
    let expected: Vec<AnyMatrix> = inputs
        .iter()
        .map(|m| sequential.convert(&src, &dst, m).unwrap())
        .collect();

    // Verified engines fan out too: batch items are independent, so the
    // verifier's report plays no part in scheduling.
    for threads in [1, 2, 4, 32] {
        for verify_plans in [false, true] {
            let workers = Arc::new(WorkerThreads::default());
            let parallel = Engine::with_subscriber(
                EngineConfig { threads, verify_plans, ..Default::default() },
                workers.clone(),
            );
            let got: Vec<AnyMatrix> = parallel
                .convert_batch(&src, &dst, &inputs)
                .unwrap()
                .into_iter()
                .map(|r| r.unwrap())
                .collect();
            let case = format!("threads={threads} verify_plans={verify_plans}");
            assert_eq!(got, expected, "{case}: order or content diverged");
            let stats = parallel.stats();
            assert_eq!(stats.plans_synthesized, 1, "{case}");
            assert_eq!(stats.plans_verified, verify_plans as u64, "{case}");
            assert_eq!(stats.conversions, inputs.len() as u64, "{case}");
            assert_eq!(stats.items_failed, 0, "{case}");
            assert_eq!(stats.panics_caught, 0, "{case}");
            let used = workers.0.lock().unwrap().len();
            assert_eq!(used, threads.min(inputs.len()), "{case}: one thread per chunk");
        }
    }
}

/// Records every thread that ran a conversion's validation stage.
#[derive(Default)]
struct WorkerThreads(Mutex<HashSet<ThreadId>>);

impl Subscriber for WorkerThreads {
    fn span(&self, span: Span) {
        if span.stage == Stage::Validate {
            self.0.lock().unwrap().insert(std::thread::current().id());
        }
    }

    fn event(&self, _event: Event) {}
}

#[test]
fn batch_handles_empty_and_single_inputs() {
    let engine = Engine::new();
    let src = descriptors::scoo();
    let dst = descriptors::csc();
    assert!(engine.convert_batch(&src, &dst, &[]).unwrap().is_empty());
    let one = vec![AnyMatrix::Coo(sample_scoo(7, 7, 2, 0))];
    let got = engine.convert_batch(&src, &dst, &one).unwrap();
    assert_eq!(got.len(), 1);
    assert_eq!(
        *got[0].as_ref().unwrap(),
        engine.convert(&src, &dst, &one[0]).unwrap()
    );
}

/// Regression test: `convert_batch` used to propagate the first error and
/// discard every sibling's completed work. One bad item must now cost
/// exactly one slot — deterministically, at its own index.
#[test]
fn batch_preserves_completed_work_around_a_failing_item() {
    let engine = Engine::with_config(EngineConfig { threads: 4, ..Default::default() });
    let src = descriptors::scoo();
    let dst = descriptors::csr();
    // Item 3 has the wrong container for the source descriptor; its
    // siblings must convert anyway, in order, every time.
    let mut inputs: Vec<AnyMatrix> = (0..6)
        .map(|i| AnyMatrix::Coo(sample_scoo(8, 8, 2, i)))
        .collect();
    let csr = sparse_formats::CsrMatrix::from_coo(&sample_scoo(8, 8, 2, 0));
    inputs.insert(3, AnyMatrix::Csr(csr));

    let first = engine.convert_batch(&src, &dst, &inputs).unwrap();
    let second = engine.convert_batch(&src, &dst, &inputs).unwrap();
    for results in [&first, &second] {
        assert_eq!(results.len(), 7);
        for (i, r) in results.iter().enumerate() {
            if i == 3 {
                let msg = r.as_ref().unwrap_err().to_string();
                assert!(msg.contains("csr"), "{msg}");
            } else {
                assert!(matches!(r.as_ref().unwrap(), AnyMatrix::Csr(_)), "item {i}");
            }
        }
    }
    let errs: Vec<String> = [&first, &second]
        .iter()
        .map(|r| r[3].as_ref().unwrap_err().to_string())
        .collect();
    assert_eq!(errs[0], errs[1], "per-item errors must be deterministic");
    let stats = engine.stats();
    assert_eq!(stats.items_failed, 2, "one failed item per batch run");
    assert_eq!(stats.panics_caught, 0);
}
