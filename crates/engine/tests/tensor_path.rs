//! Order-3 tensor contracts for `Engine::convert_tensor`: it emits the
//! same stage spans, refuses the same bad inputs, and enforces the same
//! memory budget as the rank-2 `Engine::convert`.

use std::sync::Arc;

use sparse_engine::{CollectingSubscriber, Engine, EngineConfig, EngineError};
use sparse_formats::descriptors;
use sparse_formats::{AnyTensor, Coo3Tensor, MortonCoo3Tensor};
use sparse_obs::{EventKind, Stage};
use sparse_synthesis::RunError;

/// Lexicographically sorted, 5 stored entries in a 6 x 5 x 7 box.
fn sample() -> Coo3Tensor {
    Coo3Tensor::from_coords(
        (6, 5, 7),
        vec![0, 1, 1, 3, 5],
        vec![2, 0, 4, 1, 3],
        vec![1, 6, 0, 2, 5],
        vec![1.0, 2.0, 3.0, 4.0, 5.0],
    )
    .unwrap()
}

fn stages(collector: &CollectingSubscriber) -> Vec<Stage> {
    collector.spans().iter().map(|s| s.stage).collect()
}

#[test]
fn interpreted_tensor_conversion_emits_every_stage_span() {
    let collector = Arc::new(CollectingSubscriber::new());
    let engine = Engine::with_subscriber(EngineConfig::default(), collector.clone());
    let t = sample();
    let out = engine
        .convert_tensor(&descriptors::coo3(), &descriptors::mcoo3(), &AnyTensor::Coo3(t.clone()))
        .unwrap();
    assert_eq!(out, AnyTensor::MortonCoo3(MortonCoo3Tensor::from_coo3(&t)));

    assert_eq!(
        stages(&collector),
        [Stage::Plan, Stage::Validate, Stage::Interp, Stage::Extract]
    );
    let spans = collector.spans();
    assert!(spans.iter().all(|s| s.ok), "every stage succeeded: {spans:?}");
    assert!(spans.iter().all(|s| s.pair == spans[0].pair), "one pair key: {spans:?}");
    let stats = engine.stats();
    assert_eq!(stats.conversions, 1);
    assert_eq!(stats.interp_fallbacks, 1);
    assert_eq!(stats.nnz_moved, 5);
}

#[test]
fn verified_tensor_conversion_takes_the_kernel_span() {
    let collector = Arc::new(CollectingSubscriber::new());
    let engine = Engine::with_subscriber(
        EngineConfig { verify_plans: true, ..Default::default() },
        collector.clone(),
    );
    engine
        .convert_tensor(&descriptors::scoo3(), &descriptors::mcoo3(), &AnyTensor::Coo3(sample()))
        .unwrap();
    assert_eq!(engine.stats().kernels_hit, 1, "scoo3 -> mcoo3 must be kernel-backed");

    let kernel = collector.spans_for(Stage::Kernel);
    assert_eq!(kernel.len(), 1);
    assert!(kernel[0].ok);
    assert!(collector.spans_for(Stage::Interp).is_empty(), "the kernel answered");
    assert!(collector.spans_for(Stage::Extract).is_empty(), "kernels build their own output");
}

#[test]
fn out_of_range_tensor_index_is_refused_before_execution() {
    let collector = Arc::new(CollectingSubscriber::new());
    let engine = Engine::with_subscriber(EngineConfig::default(), collector.clone());
    let mut t = sample();
    t.i2[3] = t.nz as i64; // one past the mode-2 extent
    let err = engine
        .convert_tensor(&descriptors::coo3(), &descriptors::mcoo3(), &AnyTensor::Coo3(t))
        .unwrap_err();
    match err {
        EngineError::Run(RunError::InvalidInput { check, .. }) => {
            assert_eq!(check, "index-bounds");
        }
        other => panic!("expected an index-bounds rejection, got: {other}"),
    }

    let stats = engine.stats();
    assert_eq!(stats.inputs_rejected, 1);
    assert_eq!(stats.conversions, 0);
    assert_eq!(stats.conversions_failed, 0, "a refused input never started executing");
    let events = collector.events();
    assert_eq!(events.len(), 1);
    assert_eq!(events[0].kind, EventKind::InputRejected);
    assert!(engine.events_dump().contains("input-rejected"), "{}", engine.events_dump());
    let validate = collector.spans_for(Stage::Validate);
    assert_eq!(validate.len(), 1);
    assert!(!validate[0].ok);
    assert!(collector.spans_for(Stage::Interp).is_empty(), "nothing executed");
}

#[test]
fn memory_budget_refuses_a_tensor_conversion() {
    let engine = Engine::with_config(EngineConfig { memory_budget: Some(1), ..Default::default() });
    let err = engine
        .convert_tensor(&descriptors::coo3(), &descriptors::mcoo3(), &AnyTensor::Coo3(sample()))
        .unwrap_err();
    match err {
        EngineError::Run(RunError::ResourceExhausted { needed, budget, .. }) => {
            assert_eq!(budget, 1);
            assert!(needed > budget, "{needed} must exceed the budget");
        }
        other => panic!("expected ResourceExhausted, got: {other}"),
    }
    let stats = engine.stats();
    assert_eq!(stats.inputs_rejected, 1);
    assert_eq!(stats.conversions, 0);
    assert!(engine.events_dump().contains("admission-rejected"), "{}", engine.events_dump());
}
