//! Plan-shape golden: for every ordered catalog pair the engine
//! benchmark converts, the statement labels of the optimized
//! computation, in order. A plan change shows here pair by pair, so a
//! change meant for some plans proves structurally that the others are
//! untouched.

use sparse_formats::{descriptors as d, FormatDescriptor};
use sparse_synthesis::{synthesize, PermutationKind, SynthesisOptions};

/// The 31 matrix and 6 tensor pairs, enumerated and alpha-renamed as the
/// engine benchmark does.
fn pairs() -> Vec<(FormatDescriptor, FormatDescriptor)> {
    let matrix_src = [d::coo(), d::scoo(), d::csr(), d::csc(), d::mcoo(), d::ell()];
    let matrix_dst = [d::coo(), d::scoo(), d::csr(), d::csc(), d::dia(), d::mcoo()];
    let tensor = [d::coo3(), d::scoo3(), d::mcoo3()];
    let mut out = Vec::new();
    for (sources, dests) in [
        (&matrix_src[..], &matrix_dst[..]),
        (&tensor[..], &tensor[..]),
    ] {
        for src in sources {
            for dst in dests {
                if src.name == dst.name {
                    continue;
                }
                let dst = if src.uf_names().iter().any(|n| dst.uf_names().contains(n)) {
                    dst.with_suffix("_v")
                } else {
                    dst.clone()
                };
                out.push((src.clone(), dst));
            }
        }
    }
    out
}

fn render() -> String {
    let mut out = String::new();
    for (src, dst) in pairs() {
        let plan = synthesize(&src, &dst, SynthesisOptions::default()).unwrap();
        out.push_str(&format!("{} -> {}\n", src.name, dst.name));
        for s in &plan.computation.stmts {
            out.push_str(&format!("  {}\n", s.label));
        }
    }
    out
}

#[test]
fn optimized_plan_labels_per_pair() {
    let got = render();
    assert_eq!(pairs().len(), 37);
    assert!(
        got == GOLDEN,
        "plan shapes changed; the labels now read:\n{got}"
    );
    // CSR -> COO copies through the identity permutation (`p = k`): an
    // unordered destination over a contiguous source needs no `P`.
    let csr_coo = synthesize(&d::csr(), &d::coo(), SynthesisOptions::default()).unwrap();
    assert!(matches!(csr_coo.permutation, PermutationKind::Identity));
}

/// How each pair's loops run on the interpreter: chunked (a perfect
/// nest counts as two loops) or one iteration at a time on the op loop.
/// A plan change that takes a loop off the chunked path shows here.
#[test]
fn loops_run_chunked_per_pair() {
    let mut got = String::new();
    for (src, dst) in pairs() {
        let plan = synthesize(&src, &dst, SynthesisOptions::default()).unwrap();
        let n = plan.computation.lower().unwrap().program().loop_counts();
        got.push_str(&format!(
            "{} -> {}: {} chunked, {} op loop\n",
            src.name, dst.name, n.chunked, n.op_loop
        ));
    }
    assert!(got == LOOPS, "loop shapes changed; they now read:\n{got}");
}

const LOOPS: &str = "\
COO -> SCOO_v: 2 chunked, 0 op loop
COO -> CSR: 2 chunked, 1 op loop
COO -> CSC: 2 chunked, 1 op loop
COO -> DIA: 4 chunked, 0 op loop
COO -> MCOO: 2 chunked, 0 op loop
SCOO -> COO_v: 1 chunked, 0 op loop
SCOO -> CSR: 1 chunked, 1 op loop
SCOO -> CSC: 3 chunked, 1 op loop
SCOO -> DIA: 4 chunked, 0 op loop
SCOO -> MCOO: 2 chunked, 0 op loop
CSR -> COO: 2 chunked, 0 op loop
CSR -> SCOO: 2 chunked, 0 op loop
CSR -> CSC: 5 chunked, 1 op loop
CSR -> DIA: 6 chunked, 0 op loop
CSR -> MCOO: 4 chunked, 0 op loop
CSC -> COO: 2 chunked, 0 op loop
CSC -> SCOO: 4 chunked, 1 op loop
CSC -> CSR: 5 chunked, 1 op loop
CSC -> DIA: 6 chunked, 0 op loop
CSC -> MCOO: 4 chunked, 0 op loop
MCOO -> COO: 1 chunked, 0 op loop
MCOO -> SCOO: 2 chunked, 1 op loop
MCOO -> CSR: 3 chunked, 1 op loop
MCOO -> CSC: 3 chunked, 1 op loop
MCOO -> DIA: 4 chunked, 0 op loop
ELL -> COO: 2 chunked, 0 op loop
ELL -> SCOO: 2 chunked, 0 op loop
ELL -> CSR: 2 chunked, 1 op loop
ELL -> CSC: 5 chunked, 1 op loop
ELL -> DIA: 6 chunked, 0 op loop
ELL -> MCOO: 4 chunked, 0 op loop
COO3D -> SCOO3_v: 2 chunked, 0 op loop
COO3D -> MCOO3: 2 chunked, 0 op loop
SCOO3 -> COO3D_v: 1 chunked, 0 op loop
SCOO3 -> MCOO3: 2 chunked, 0 op loop
MCOO3 -> COO3D: 1 chunked, 0 op loop
MCOO3 -> SCOO3: 2 chunked, 0 op loop
";

const GOLDEN: &str = "\
COO -> SCOO_v
  alloc row1_v
  alloc col1_v
  declare permutation P
  insert into P
  finalize P (enforce reordering quantifier)
  alloc Acoo_v
  populate row1_v
  populate col1_v
  copy data
COO -> CSR
  alloc col2
  alloc rowptr
  declare permutation P
  insert into P
  finalize P (enforce reordering quantifier)
  alloc Acsr
  populate col2
  bound rowptr (case 2: min)
  copy data
  enforce monotonic quantifier on rowptr
COO -> CSC
  alloc row
  alloc colptr
  declare permutation P
  insert into P
  finalize P (enforce reordering quantifier)
  alloc Acsc
  populate row
  bound colptr (case 2: min)
  copy data
  enforce monotonic quantifier on colptr
COO -> DIA
  alloc M_off
  alloc d_of
  declare counter C_off
  mark values of off
  number values of off in ascending order
  set ND = C_off
  alloc off
  materialize off (enforce monotonic quantifier)
  alloc Adia
  copy data
COO -> MCOO
  alloc rowm
  alloc colm
  declare permutation P
  insert into P
  finalize P (enforce reordering quantifier)
  alloc Amcoo
  populate rowm
  populate colm
  copy data
SCOO -> COO_v
  alloc row1_v
  alloc col1_v
  alloc Acoo_v
  populate row1_v
  populate col1_v
  copy data
SCOO -> CSR
  alloc col2
  alloc rowptr
  alloc Acsr
  populate col2
  bound rowptr (case 2: min)
  copy data
  enforce monotonic quantifier on rowptr
SCOO -> CSC
  alloc row
  alloc colptr
  declare compaction counter P with NC buckets
  count nonzeros per bucket of P
  prefix-sum P into bucket starts
  populate colptr as the prefix sum of counts
  alloc Acsc
  populate row
  copy data
SCOO -> DIA
  alloc M_off
  alloc d_of
  declare counter C_off
  mark values of off
  number values of off in ascending order
  set ND = C_off
  alloc off
  materialize off (enforce monotonic quantifier)
  alloc Adia
  copy data
SCOO -> MCOO
  alloc rowm
  alloc colm
  declare permutation P
  insert into P
  finalize P (enforce reordering quantifier)
  alloc Amcoo
  populate rowm
  populate colm
  copy data
CSR -> COO
  alloc row1
  alloc col1
  alloc Acoo
  populate row1
  populate col1
  copy data
CSR -> SCOO
  alloc row1
  alloc col1
  alloc Acoo
  populate row1
  populate col1
  copy data
CSR -> CSC
  alloc row
  alloc colptr
  declare compaction counter P with NC buckets
  count nonzeros per bucket of P
  prefix-sum P into bucket starts
  populate colptr as the prefix sum of counts
  alloc Acsc
  populate row
  copy data
CSR -> DIA
  alloc M_off
  alloc d_of
  declare counter C_off
  mark values of off
  number values of off in ascending order
  set ND = C_off
  alloc off
  materialize off (enforce monotonic quantifier)
  alloc Adia
  copy data
CSR -> MCOO
  alloc rowm
  alloc colm
  declare permutation P
  insert into P
  finalize P (enforce reordering quantifier)
  alloc Amcoo
  populate rowm
  populate colm
  copy data
CSC -> COO
  alloc row1
  alloc col1
  alloc Acoo
  populate row1
  populate col1
  copy data
CSC -> SCOO
  alloc row1
  alloc col1
  declare compaction counter P with NR buckets
  count nonzeros per bucket of P
  prefix-sum P into bucket starts
  alloc Acoo
  populate row1
  populate col1
  copy data
CSC -> CSR
  alloc col2
  alloc rowptr
  declare compaction counter P with NR buckets
  count nonzeros per bucket of P
  prefix-sum P into bucket starts
  populate rowptr as the prefix sum of counts
  alloc Acsr
  populate col2
  copy data
CSC -> DIA
  alloc M_off
  alloc d_of
  declare counter C_off
  mark values of off
  number values of off in ascending order
  set ND = C_off
  alloc off
  materialize off (enforce monotonic quantifier)
  alloc Adia
  copy data
CSC -> MCOO
  alloc rowm
  alloc colm
  declare permutation P
  insert into P
  finalize P (enforce reordering quantifier)
  alloc Amcoo
  populate rowm
  populate colm
  copy data
MCOO -> COO
  alloc row1
  alloc col1
  alloc Acoo
  populate row1
  populate col1
  copy data
MCOO -> SCOO
  alloc row1
  alloc col1
  declare compaction counter P with NR buckets
  count nonzeros per bucket of P
  prefix-sum P into bucket starts
  alloc Acoo
  populate row1
  populate col1
  copy data
MCOO -> CSR
  alloc col2
  alloc rowptr
  declare compaction counter P with NR buckets
  count nonzeros per bucket of P
  prefix-sum P into bucket starts
  populate rowptr as the prefix sum of counts
  alloc Acsr
  populate col2
  copy data
MCOO -> CSC
  alloc row
  alloc colptr
  declare compaction counter P with NC buckets
  count nonzeros per bucket of P
  prefix-sum P into bucket starts
  populate colptr as the prefix sum of counts
  alloc Acsc
  populate row
  copy data
MCOO -> DIA
  alloc M_off
  alloc d_of
  declare counter C_off
  mark values of off
  number values of off in ascending order
  set ND = C_off
  alloc off
  materialize off (enforce monotonic quantifier)
  alloc Adia
  copy data
ELL -> COO
  alloc row1
  alloc col1
  declare compaction counter P
  alloc Acoo
  populate row1
  populate col1
  copy data
ELL -> SCOO
  alloc row1
  alloc col1
  declare compaction counter P
  alloc Acoo
  populate row1
  populate col1
  copy data
ELL -> CSR
  alloc col2
  alloc rowptr
  declare compaction counter P
  alloc Acsr
  populate col2
  bound rowptr (case 2: min)
  copy data
  enforce monotonic quantifier on rowptr
ELL -> CSC
  alloc row
  alloc colptr
  declare compaction counter P with NC buckets
  count nonzeros per bucket of P
  prefix-sum P into bucket starts
  populate colptr as the prefix sum of counts
  alloc Acsc
  populate row
  copy data
ELL -> DIA
  alloc M_off
  alloc d_of
  declare counter C_off
  mark values of off
  number values of off in ascending order
  set ND = C_off
  alloc off
  materialize off (enforce monotonic quantifier)
  alloc Adia
  copy data
ELL -> MCOO
  alloc rowm
  alloc colm
  declare permutation P
  insert into P
  finalize P (enforce reordering quantifier)
  alloc Amcoo
  populate rowm
  populate colm
  copy data
COO3D -> SCOO3_v
  alloc row1_v
  alloc col1_v
  alloc z1_v
  declare permutation P
  insert into P
  finalize P (enforce reordering quantifier)
  alloc Acoo3_v
  populate row1_v
  populate col1_v
  populate z1_v
  copy data
COO3D -> MCOO3
  alloc rowm
  alloc colm
  alloc zm
  declare permutation P
  insert into P
  finalize P (enforce reordering quantifier)
  alloc Amcoo3
  populate rowm
  populate colm
  populate zm
  copy data
SCOO3 -> COO3D_v
  alloc row1_v
  alloc col1_v
  alloc z1_v
  alloc Acoo3_v
  populate row1_v
  populate col1_v
  populate z1_v
  copy data
SCOO3 -> MCOO3
  alloc rowm
  alloc colm
  alloc zm
  declare permutation P
  insert into P
  finalize P (enforce reordering quantifier)
  alloc Amcoo3
  populate rowm
  populate colm
  populate zm
  copy data
MCOO3 -> COO3D
  alloc row1
  alloc col1
  alloc z1
  alloc Acoo3
  populate row1
  populate col1
  populate z1
  copy data
MCOO3 -> SCOO3
  alloc row1
  alloc col1
  alloc z1
  declare permutation P
  insert into P
  finalize P (enforce reordering quantifier)
  alloc Acoo3
  populate row1
  populate col1
  populate z1
  copy data
";
