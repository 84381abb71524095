//! Compiles the emitted C99 inspectors with the system C compiler and
//! runs them, verifying the *generated source code* — not just the
//! interpreter — against the reference conversions. Skipped when no `cc`
//! is available.

use std::io::Write as _;
use std::process::Command;

use sparse_formats::descriptors;
use sparse_formats::{CooMatrix, CscMatrix, CsrMatrix, DiaMatrix, EllMatrix, MortonCooMatrix};
use sparse_synthesis::{Conversion, Membership, SynthesisOptions};

fn cc_available() -> bool {
    Command::new("cc")
        .arg("--version")
        .output()
        .map(|o| o.status.success())
        .unwrap_or(false)
}

fn fixture() -> CooMatrix {
    let mut m = CooMatrix::from_triplets(
        6,
        7,
        vec![0, 0, 1, 2, 2, 4, 5, 5],
        vec![1, 4, 2, 0, 5, 4, 3, 6],
        vec![1.5, 2.0, -3.0, 4.0, 5.5, 6.0, 7.0, -8.0],
    )
    .unwrap();
    m.sort_row_major();
    m
}

/// Renders a C array literal.
fn c_ints(v: &[i64]) -> String {
    v.iter().map(|x| x.to_string()).collect::<Vec<_>>().join(", ")
}

fn c_doubles(v: &[f64]) -> String {
    v.iter().map(|x| format!("{x:?}")).collect::<Vec<_>>().join(", ")
}

/// Compiles `program` + `main_body` and returns the run's stdout lines.
fn compile_and_run(test_name: &str, program: &str, main_body: &str) -> Vec<String> {
    let dir = std::env::temp_dir().join(format!("sparse_synth_cc_{test_name}"));
    std::fs::create_dir_all(&dir).unwrap();
    let src_path = dir.join("prog.c");
    let bin_path = dir.join("prog");
    let mut f = std::fs::File::create(&src_path).unwrap();
    writeln!(f, "#include <stdio.h>").unwrap();
    writeln!(f, "{program}").unwrap();
    writeln!(f, "int main(void) {{\n{main_body}\n  return 0;\n}}").unwrap();
    drop(f);
    let out = Command::new("cc")
        .arg("-O1")
        .arg("-std=c99")
        .arg(&src_path)
        .arg("-o")
        .arg(&bin_path)
        .output()
        .expect("cc runs");
    assert!(
        out.status.success(),
        "cc failed:\n{}\nsource:\n{}",
        String::from_utf8_lossy(&out.stderr),
        std::fs::read_to_string(&src_path).unwrap()
    );
    let run = Command::new(&bin_path).output().expect("binary runs");
    assert!(run.status.success(), "binary failed");
    String::from_utf8(run.stdout)
        .unwrap()
        .lines()
        .map(str::to_string)
        .collect()
}

/// Assignments for the shape symbols, restricted to the ones the emitted
/// program actually declares (optimization can make NR/NC dead).
fn sym_assigns(program: &str, syms: &[(&str, usize)]) -> String {
    syms.iter()
        .filter(|(name, _)| program.contains(&format!("int {name};")))
        .map(|(name, v)| format!("  {name} = {v};"))
        .collect::<Vec<_>>()
        .join("\n")
}

fn parse_ints(line: &str) -> Vec<i64> {
    line.split_whitespace().map(|t| t.parse().unwrap()).collect()
}

fn parse_doubles(line: &str) -> Vec<f64> {
    line.split_whitespace().map(|t| t.parse().unwrap()).collect()
}

#[test]
fn compiled_c_coo_to_csr_matches_reference() {
    if !cc_available() {
        eprintln!("skipping: no C compiler");
        return;
    }
    let coo = fixture();
    let conv = Conversion::new(
        &descriptors::scoo(),
        &descriptors::csr(),
        SynthesisOptions::default(),
    )
    .unwrap();
    let program = conv.emit_c_program();
    let assigns = sym_assigns(
        &program,
        &[("NR", coo.nr), ("NC", coo.nc), ("NNZ", coo.nnz())],
    );
    let main_body = format!(
        r#"
{assigns}
  static int row1_s[] = {{{rows}}};
  static int col1_s[] = {{{cols}}};
  static double acoo_s[] = {{{vals}}};
  row1 = row1_s; col1 = col1_s; Acoo = acoo_s;
  scoo_to_csr();
  for (int i = 0; i <= NR; i++) printf("%d ", rowptr[i]);
  printf("\n");
  for (int n = 0; n < NNZ; n++) printf("%d ", col2[n]);
  printf("\n");
  for (int n = 0; n < NNZ; n++) printf("%.17g ", Acsr[n]);
  printf("\n");"#,
        rows = c_ints(&coo.row),
        cols = c_ints(&coo.col),
        vals = c_doubles(&coo.val),
    );
    let lines = compile_and_run("coo_csr", &program, &main_body);
    let want = CsrMatrix::from_coo(&coo);
    assert_eq!(parse_ints(&lines[0]), want.rowptr);
    assert_eq!(parse_ints(&lines[1]), want.col);
    assert_eq!(parse_doubles(&lines[2]), want.val);
}

#[test]
fn compiled_c_coo_to_mcoo_matches_reference() {
    if !cc_available() {
        eprintln!("skipping: no C compiler");
        return;
    }
    let coo = fixture();
    let conv = Conversion::new(
        &descriptors::scoo(),
        &descriptors::mcoo(),
        SynthesisOptions::default(),
    )
    .unwrap();
    let program = conv.emit_c_program();
    assert!(program.contains("ol_init(&P, 2, ol_cmp_morton, 0);"), "{program}");
    let assigns = sym_assigns(
        &program,
        &[("NR", coo.nr), ("NC", coo.nc), ("NNZ", coo.nnz())],
    );
    let main_body = format!(
        r#"
{assigns}
  static int row1_s[] = {{{rows}}};
  static int col1_s[] = {{{cols}}};
  static double acoo_s[] = {{{vals}}};
  row1 = row1_s; col1 = col1_s; Acoo = acoo_s;
  scoo_to_mcoo();
  for (int n = 0; n < NNZ; n++) printf("%d ", rowm[n]);
  printf("\n");
  for (int n = 0; n < NNZ; n++) printf("%d ", colm[n]);
  printf("\n");
  for (int n = 0; n < NNZ; n++) printf("%.17g ", Amcoo[n]);
  printf("\n");"#,
        rows = c_ints(&coo.row),
        cols = c_ints(&coo.col),
        vals = c_doubles(&coo.val),
    );
    let lines = compile_and_run("coo_mcoo", &program, &main_body);
    let want = MortonCooMatrix::from_coo(&coo);
    assert_eq!(parse_ints(&lines[0]), want.coo.row);
    assert_eq!(parse_ints(&lines[1]), want.coo.col);
    assert_eq!(parse_doubles(&lines[2]), want.coo.val);
}

/// Compiles `conv` (a COO or SCOO -> DIA plan, function `name`), feeds it
/// `coo` and checks `ND`, `off` and every data slot against the reference.
fn check_dia(conv: &Conversion, name: &str, coo: &CooMatrix) {
    let program = conv.emit_c_program();
    let assigns = sym_assigns(
        &program,
        &[("NR", coo.nr), ("NC", coo.nc), ("NNZ", coo.nnz())],
    );
    let main_body = format!(
        r#"
{assigns}
  static int row1_s[] = {{{rows}}};
  static int col1_s[] = {{{cols}}};
  static double acoo_s[] = {{{vals}}};
  row1 = row1_s; col1 = col1_s; Acoo = acoo_s;
  {name}();
  printf("%d\n", ND);
  for (int d = 0; d < ND; d++) printf("%d ", off[d]);
  printf("\n");
  for (int q = 0; q < ND * NR; q++) printf("%.17g ", Adia[q]);
  printf("\n");"#,
        rows = c_ints(&coo.row),
        cols = c_ints(&coo.col),
        vals = c_doubles(&coo.val),
    );
    let lines = compile_and_run(name, &program, &main_body);
    let want = DiaMatrix::from_coo(coo);
    assert_eq!(parse_ints(&lines[0]), vec![want.nd() as i64]);
    assert_eq!(parse_ints(&lines[1]), want.off);
    assert_eq!(parse_doubles(&lines[2]), want.data);
}

#[test]
fn compiled_c_coo_to_dia_binary_matches_reference() {
    if !cc_available() {
        eprintln!("skipping: no C compiler");
        return;
    }
    let conv = Conversion::new(
        &descriptors::scoo(),
        &descriptors::dia(),
        SynthesisOptions { optimize: true, membership: Membership::Binary },
    )
    .unwrap();
    assert!(conv.emit_c_program().contains("binary search"));
    check_dia(&conv, "scoo_to_dia", &fixture());
}

/// The default COO -> DIA plan searches nothing: no value list, no find
/// loop, just the presence map, the counted sweeps and one `d_of` read
/// per nonzero. Its C runs on shuffled input, including both corner
/// diagonals of the non-square fixture.
#[test]
fn compiled_c_coo_to_dia_direct_matches_reference() {
    if !cc_available() {
        eprintln!("skipping: no C compiler");
        return;
    }
    let conv =
        Conversion::new(&descriptors::coo(), &descriptors::dia(), SynthesisOptions::default())
            .unwrap();
    let program = conv.emit_c_program();
    let body = &program[program.find("void coo_to_dia(void)").unwrap()..];
    assert!(!body.contains("L_off") && !body.contains("for (int d"), "{body}");
    assert!(body.contains("int d = d_of["), "{body}");
    let mut coo = fixture();
    coo.row.extend([5, 0]);
    coo.col.extend([0, 6]);
    coo.val.extend([9.0, 10.0]);
    coo.permute(&[9, 3, 0, 7, 2, 8, 5, 1, 6, 4]);
    check_dia(&conv, "coo_to_dia", &coo);
}

/// The default ELL -> COO plan numbers the non-padding slots with a
/// compaction counter (`int p = P; P = (p + 1);`): no `P.insert`, no
/// `P.finalize`. Its C must reproduce the reference in row-major order.
#[test]
fn compiled_c_ell_to_coo_counter_matches_reference() {
    if !cc_available() {
        eprintln!("skipping: no C compiler");
        return;
    }
    let coo = fixture();
    let ell = EllMatrix::from_coo(&coo);
    let conv =
        Conversion::new(&descriptors::ell(), &descriptors::coo(), SynthesisOptions::default())
            .unwrap();
    let program = conv.emit_c_program();
    assert!(!program.contains("P.insert") && !program.contains("P.finalize"), "{program}");
    assert!(program.contains("int p = P;"), "{program}");
    let assigns = sym_assigns(
        &program,
        &[("NR", ell.nr), ("NC", ell.nc), ("NNZ", coo.nnz()), ("ELLW", ell.width)],
    );
    let main_body = format!(
        r#"
{assigns}
  static int ellcol_s[] = {{{cols}}};
  static double aell_s[] = {{{vals}}};
  ellcol = ellcol_s; Aell = aell_s;
  ell_to_coo();
  for (int n = 0; n < NNZ; n++) printf("%d ", row1[n]);
  printf("\n");
  for (int n = 0; n < NNZ; n++) printf("%d ", col1[n]);
  printf("\n");
  for (int n = 0; n < NNZ; n++) printf("%.17g ", Acoo[n]);
  printf("\n");"#,
        cols = c_ints(&ell.col),
        vals = c_doubles(&ell.data),
    );
    let lines = compile_and_run("ell_coo", &program, &main_body);
    assert_eq!(parse_ints(&lines[0]), coo.row);
    assert_eq!(parse_ints(&lines[1]), coo.col);
    assert_eq!(parse_doubles(&lines[2]), coo.val);
}

/// Asserts that `program` places nonzeros by counting: cursors read and
/// advanced per bucket (`int p = P[...]`), no `OrderedList` calls.
fn assert_counting(program: &str, name: &str) {
    let body = &program[program.find(&format!("void {name}(void)")).unwrap()..];
    assert!(!body.contains("P.insert") && !body.contains("P.finalize"), "{body}");
    assert!(!body.contains("ol_"), "{body}");
    assert!(body.contains("int p = P["), "{body}");
}

/// The default CSR -> CSC plan is a counting transpose: a histogram of
/// columns, a prefix sum that is `colptr`, and per-column cursors.
#[test]
fn compiled_c_csr_to_csc_counting_matches_reference() {
    if !cc_available() {
        eprintln!("skipping: no C compiler");
        return;
    }
    let coo = fixture();
    let csr = CsrMatrix::from_coo(&coo);
    let conv =
        Conversion::new(&descriptors::csr(), &descriptors::csc(), SynthesisOptions::default())
            .unwrap();
    let program = conv.emit_c_program();
    assert_counting(&program, "csr_to_csc");
    let assigns = sym_assigns(
        &program,
        &[("NR", coo.nr), ("NC", coo.nc), ("NNZ", coo.nnz())],
    );
    let main_body = format!(
        r#"
{assigns}
  static int rowptr_s[] = {{{ptr}}};
  static int col2_s[] = {{{cols}}};
  static double acsr_s[] = {{{vals}}};
  rowptr = rowptr_s; col2 = col2_s; Acsr = acsr_s;
  csr_to_csc();
  for (int j = 0; j <= NC; j++) printf("%d ", colptr[j]);
  printf("\n");
  for (int n = 0; n < NNZ; n++) printf("%d ", row[n]);
  printf("\n");
  for (int n = 0; n < NNZ; n++) printf("%.17g ", Acsc[n]);
  printf("\n");"#,
        ptr = c_ints(&csr.rowptr),
        cols = c_ints(&csr.col),
        vals = c_doubles(&csr.val),
    );
    let lines = compile_and_run("csr_csc", &program, &main_body);
    let want = CscMatrix::from_coo(&coo);
    assert_eq!(parse_ints(&lines[0]), want.colptr);
    assert_eq!(parse_ints(&lines[1]), want.row);
    assert_eq!(parse_doubles(&lines[2]), want.val);
}

/// The default CSC -> SCOO plan has no pointer to fill: the counter's
/// `NR + 1` cursors are its only scratch, and the output is row-major.
#[test]
fn compiled_c_csc_to_scoo_counting_matches_reference() {
    if !cc_available() {
        eprintln!("skipping: no C compiler");
        return;
    }
    let coo = fixture();
    let csc = CscMatrix::from_coo(&coo);
    let conv =
        Conversion::new(&descriptors::csc(), &descriptors::scoo(), SynthesisOptions::default())
            .unwrap();
    let program = conv.emit_c_program();
    assert_counting(&program, "csc_to_scoo");
    let assigns = sym_assigns(
        &program,
        &[("NR", coo.nr), ("NC", coo.nc), ("NNZ", coo.nnz())],
    );
    let main_body = format!(
        r#"
{assigns}
  static int colptr_s[] = {{{ptr}}};
  static int row_s[] = {{{rows}}};
  static double acsc_s[] = {{{vals}}};
  colptr = colptr_s; row = row_s; Acsc = acsc_s;
  csc_to_scoo();
  for (int n = 0; n < NNZ; n++) printf("%d ", row1[n]);
  printf("\n");
  for (int n = 0; n < NNZ; n++) printf("%d ", col1[n]);
  printf("\n");
  for (int n = 0; n < NNZ; n++) printf("%.17g ", Acoo[n]);
  printf("\n");"#,
        ptr = c_ints(&csc.colptr),
        rows = c_ints(&csc.row),
        vals = c_doubles(&csc.val),
    );
    let lines = compile_and_run("csc_scoo", &program, &main_body);
    assert_eq!(parse_ints(&lines[0]), coo.row);
    assert_eq!(parse_ints(&lines[1]), coo.col);
    assert_eq!(parse_doubles(&lines[2]), coo.val);
}
