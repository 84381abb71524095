//! Workspace-level integration tests: the full descriptor → synthesis →
//! optimization → execution pipeline on realistic matrices from the
//! synthetic evaluation suite, checked against the reference conversions.

use sparse_synth::baselines::{self, Library};
use sparse_synth::formats::{
    descriptors, AnyMatrix, AnyTensor, CooMatrix, CscMatrix, CsrMatrix, DiaMatrix,
};
use sparse_synth::matgen::suite::{table3_suite, table4_suite};
use sparse_synth::synthesis::{Conversion, Membership, SynthesisOptions};

const SCALE: usize = 1024;

fn suite_matrices() -> Vec<(String, CooMatrix)> {
    table3_suite()
        .into_iter()
        .map(|s| (s.name.to_string(), s.generate(SCALE)))
        .collect()
}

#[test]
fn coo_to_csr_whole_suite() {
    let conv = Conversion::new(
        &descriptors::scoo(),
        &descriptors::csr(),
        SynthesisOptions::default(),
    )
    .unwrap();
    for (name, coo) in suite_matrices() {
        let (got, _) = conv.run_matrix(&coo).unwrap();
        assert_eq!(got, AnyMatrix::from(CsrMatrix::from_coo(&coo)), "{name}");
    }
}

#[test]
fn coo_to_csc_whole_suite() {
    let conv = Conversion::new(
        &descriptors::scoo(),
        &descriptors::csc(),
        SynthesisOptions::default(),
    )
    .unwrap();
    for (name, coo) in suite_matrices() {
        let (got, _) = conv.run_matrix(&coo).unwrap();
        assert_eq!(got, AnyMatrix::from(CscMatrix::from_coo(&coo)), "{name}");
    }
}

#[test]
fn csr_to_csc_whole_suite() {
    let conv = Conversion::new(
        &descriptors::csr(),
        &descriptors::csc(),
        SynthesisOptions::default(),
    )
    .unwrap();
    for (name, coo) in suite_matrices() {
        let csr = CsrMatrix::from_coo(&coo);
        let (got, _) = conv.run_matrix(&csr).unwrap();
        assert_eq!(got, AnyMatrix::from(CscMatrix::from_csr(&csr)), "{name}");
    }
}

#[test]
fn coo_to_dia_banded_suite_linear_and_binary() {
    for membership in [Membership::Linear, Membership::Binary, Membership::Direct] {
        let conv = Conversion::new(
            &descriptors::scoo(),
            &descriptors::dia(),
            SynthesisOptions { optimize: true, membership },
        )
        .unwrap();
        for spec in table3_suite() {
            if !spec.dia_friendly() {
                continue;
            }
            let coo = spec.generate(SCALE);
            let (got, _) = conv.run_matrix(&coo).unwrap();
            let want = AnyMatrix::from(DiaMatrix::from_coo(&coo));
            assert_eq!(got, want, "{} {membership:?}", spec.name);
        }
    }
}

#[test]
fn coo3_to_mcoo3_tensor_suite() {
    let conv = Conversion::new(
        &descriptors::scoo3(),
        &descriptors::mcoo3(),
        SynthesisOptions::default(),
    )
    .unwrap();
    for spec in table4_suite() {
        let t = spec.generate(SCALE * 32);
        let (got, _) = conv.run_tensor(&t).unwrap();
        let AnyTensor::MortonCoo3(got) = got else { panic!("expected MCOO3, got {}", got.label()) };
        got.validate().unwrap();
        // Agreement with the hand-written HiCOO comparator: identical
        // coordinate sequences.
        let want = baselines::hicoo_morton_sort3(&t, 7);
        assert_eq!(got.coo.i0, want.coo.i0, "{}", spec.name);
        assert_eq!(got.coo.i1, want.coo.i1, "{}", spec.name);
        assert_eq!(got.coo.i2, want.coo.i2, "{}", spec.name);
    }
}

#[test]
fn baselines_agree_with_synthesized_on_suite_sample() {
    // Synthesized code, baseline models, and reference conversions all
    // produce the same CSR on a sample of the suite.
    let conv = Conversion::new(
        &descriptors::scoo(),
        &descriptors::csr(),
        SynthesisOptions::default(),
    )
    .unwrap();
    for (name, coo) in suite_matrices().into_iter().take(6) {
        let (ours, _) = conv.run_matrix(&coo).unwrap();
        for lib in Library::ALL {
            let routine = baselines::coo_to_csr(lib);
            let (theirs, _) = baselines::run_coo_to_csr(&routine, &coo).unwrap();
            assert_eq!(ours, AnyMatrix::from(theirs), "{name} vs {}", lib.name());
        }
    }
}

#[test]
fn spmv_is_preserved_across_all_conversions() {
    // The semantic acid test: y = A x is identical no matter which format
    // the synthesized code produced.
    let spec = &table3_suite()[7]; // shyy161, banded
    let coo = spec.generate(SCALE);
    let x: Vec<f64> = (0..coo.nc).map(|k| ((k % 13) as f64) - 6.0).collect();
    let want = coo.spmv(&x);

    let close = |a: &[f64], b: &[f64]| {
        a.iter().zip(b).all(|(p, q)| (p - q).abs() < 1e-9)
    };

    let convert = |dst, options| {
        Conversion::new(&descriptors::scoo(), &dst, options).unwrap().run_matrix(&coo).unwrap().0
    };

    let AnyMatrix::Csr(csr) = convert(descriptors::csr(), SynthesisOptions::default()) else {
        panic!("expected CSR")
    };
    assert!(close(&csr.spmv(&x), &want));

    let AnyMatrix::Csc(csc) = convert(descriptors::csc(), SynthesisOptions::default()) else {
        panic!("expected CSC")
    };
    assert!(close(&csc.spmv(&x), &want));

    let binary = SynthesisOptions { optimize: true, membership: Membership::Binary };
    let AnyMatrix::Dia(dia) = convert(descriptors::dia(), binary) else {
        panic!("expected DIA")
    };
    assert!(close(&dia.spmv(&x), &want));
}

#[test]
fn chained_conversions_round_trip() {
    // COO -> CSR -> CSC -> (to_coo) equals the column-sorted original:
    // chains of synthesized conversions compose.
    let coo = table3_suite()[5].generate(SCALE); // dixmaanl
    let to_csr = Conversion::new(
        &descriptors::scoo(),
        &descriptors::csr(),
        SynthesisOptions::default(),
    )
    .unwrap();
    let to_csc = Conversion::new(
        &descriptors::csr(),
        &descriptors::csc(),
        SynthesisOptions::default(),
    )
    .unwrap();
    let (csr, _) = to_csr.run_matrix(&coo).unwrap();
    let (csc, _) = to_csc.run_matrix(&csr).unwrap();
    let AnyMatrix::Csc(csc) = csc else { panic!("expected CSC, got {}", csc.label()) };
    assert_eq!(csc.to_dense(), coo.to_dense());
}

#[test]
fn emitted_c_is_stable_for_the_papers_running_example() {
    // Golden test: the COO -> MCOO inspector shape from §3.2 of the
    // paper (OrderedList declaration, insertion loop, rank-based copy).
    let conv = Conversion::new(
        &descriptors::scoo(),
        &descriptors::mcoo(),
        SynthesisOptions::default(),
    )
    .unwrap();
    let c = conv.emit_c();
    let expected_lines = [
        "// P = new OrderedList(2, MORTON, unique=false)",
        "P.insert(i, j);",
        "P.finalize();",
        "int p = P.rank(i, j);",
        "rowm[p] = i;",
        "colm[p] = j;",
        "Amcoo[p] = Acoo[n];",
    ];
    for line in expected_lines {
        assert!(c.contains(line), "missing `{line}` in:\n{c}");
    }
}
