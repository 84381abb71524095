//! Morton (Z-order) tensor reordering — the paper's running example and
//! the Table-4 experiment: convert a lexicographically sorted order-3
//! COO tensor into Morton-ordered MCOO3 for mode-agnostic locality (the
//! ordering HiCOO and ALTO build on).
//!
//! ```text
//! cargo run --release --example morton_reorder
//! ```

use std::time::Instant;

use sparse_synth::baselines::hicoo_morton_sort3;
use sparse_synth::formats::{descriptors, AnyTensor, MortonCoo3Tensor};
use sparse_synth::matgen::skewed_tensor;
use sparse_synth::synthesis::{Conversion, SynthesisOptions};

fn main() {
    let src = descriptors::scoo3();
    let dst = descriptors::mcoo3();

    // The reordering universal quantifier that motivates the paper:
    println!("MCOO3 reordering quantifier:");
    for q in dst.quantifier_texts() {
        println!("  {q}");
    }

    let conv =
        Conversion::new(&src, &dst, SynthesisOptions::default()).expect("synthesizes");
    println!("\nSynthesized inspector:\n{}", conv.emit_c());

    // A skewed random tensor standing in for the FROSTT data (see
    // DESIGN.md, "Substitutions").
    let t = skewed_tensor((5_000, 5_000, 15_000), 25_000, 7);
    println!("tensor: 5000 x 5000 x 15000 (darpa-shaped), nnz = {}", t.nnz());

    // Synthesized conversion.
    let t0 = Instant::now();
    let (ours, _) = conv.run_tensor(&t).expect("conversion runs");
    let ours_time = t0.elapsed();
    let AnyTensor::MortonCoo3(ours) = ours else { panic!("expected MCOO3, got {}", ours.label()) };

    // The hand-written HiCOO-style comparator.
    let t0 = Instant::now();
    let hicoo = hicoo_morton_sort3(&t, 7);
    let hicoo_time = t0.elapsed();

    ours.validate().expect("Morton order holds");
    hicoo.validate().expect("Morton order holds");

    // Both orderings agree coordinate-by-coordinate.
    assert_eq!(ours.coo.i0, hicoo.coo.i0);
    assert_eq!(ours.coo.i1, hicoo.coo.i1);
    assert_eq!(ours.coo.i2, hicoo.coo.i2);

    // And the reordered tensor computes the same TTV as the reference.
    let x: Vec<f64> = (0..15_000).map(|k| (k % 7) as f64).collect();
    let reference = MortonCoo3Tensor::from_coo3(&t);
    assert_eq!(ours.coo.ttv_mode2(&x), reference.coo.ttv_mode2(&x));

    println!(
        "\nsynthesized: {:.1} ms | hand-written HiCOO-style: {:.1} ms | ratio {:.2}x",
        ours_time.as_secs_f64() * 1e3,
        hicoo_time.as_secs_f64() * 1e3,
        ours_time.as_secs_f64() / hicoo_time.as_secs_f64()
    );
    println!(
        "(the paper reports a 1.64x geomean slowdown for the synthesized \
         whole-tensor sort vs HiCOO's blocked sort — Table 4; here the \
         synthesized side additionally pays the interpreter substrate tax, \
         so the measured ratio is larger — the *direction* is what the \
         experiment reproduces)"
    );
}
