//! Catalog-wide static-analysis gate: lints every format descriptor and
//! verifies the synthesized plan for every synthesizable ordered pair.
//!
//! `scripts/check.sh` runs this as a zero-diagnostics gate — the process
//! exits nonzero if any descriptor lint or plan verification produces an
//! error- or warning-severity diagnostic. Notes (e.g. SA009 on a UF the
//! prover has no signature for) are counted but do not fail the gate.
//!
//! ```text
//! cargo run --release --example lint_descriptor
//! ```

use std::time::{Duration, Instant};

use sparse_analyze::{lint_descriptor, verify, Severity};
use sparse_formats::{descriptors, FormatDescriptor};
use sparse_synthesis::{synthesize, SynthesisOptions};

fn catalog() -> Vec<FormatDescriptor> {
    vec![
        descriptors::coo(),
        descriptors::scoo(),
        descriptors::csr(),
        descriptors::csc(),
        descriptors::dia(),
        descriptors::mcoo(),
        descriptors::ell(),
        descriptors::bcsr(2, 2),
        descriptors::coo3(),
        descriptors::scoo3(),
        descriptors::mcoo3(),
    ]
}

fn main() {
    let mut errors = 0usize;
    let mut warnings = 0usize;
    let mut notes = 0usize;
    let mut tally = |sev: Severity| match sev {
        Severity::Error => errors += 1,
        Severity::Warning => warnings += 1,
        Severity::Note => notes += 1,
    };

    println!("== descriptor lints ==");
    for d in catalog() {
        let diags = lint_descriptor(&d);
        println!(
            "  {:10} {}",
            d.name,
            if diags.is_empty() { "clean" } else { "DIAGNOSTICS" }
        );
        for diag in &diags {
            tally(diag.severity);
            println!("{}", indent(&diag.render()));
        }
    }

    println!("\n== plan verification over synthesizable pairs ==");
    let mut pairs = 0usize;
    let mut synth_total = Duration::ZERO;
    let mut verify_total = Duration::ZERO;
    for src in catalog() {
        if src.scan.is_none() {
            continue; // not usable as a conversion source (e.g. DIA)
        }
        for dst in catalog() {
            if src.rank != dst.rank || src.name == dst.name {
                continue;
            }
            // Same-family conversions (e.g. coo -> scoo) reuse UF names;
            // rename the destination the way the conversion layer does.
            let dst = if src.uf_names().iter().any(|n| dst.uf_names().contains(n)) {
                dst.with_suffix("_v")
            } else {
                dst
            };
            let t0 = Instant::now();
            let conv = match synthesize(&src, &dst, SynthesisOptions::default()) {
                Ok(c) => c,
                Err(_) => continue, // outside the synthesizable fragment
            };
            synth_total += t0.elapsed();
            let t1 = Instant::now();
            let report = verify(&conv);
            let dt = t1.elapsed();
            verify_total += dt;
            pairs += 1;
            println!(
                "  {:24} {:9} {} error(s), {} warning(s), {:.1?}",
                report.pair,
                if report.is_clean() && report.warning_count() == 0 {
                    "clean"
                } else {
                    "DIAGNOSTICS"
                },
                report.error_count(),
                report.warning_count(),
                dt,
            );
            for diag in &report.diagnostics {
                tally(diag.severity);
                if diag.severity > Severity::Note {
                    println!("{}", indent(&diag.render()));
                }
            }
        }
    }

    println!(
        "\n{pairs} pairs verified; synthesis {synth_total:.1?}, verification {verify_total:.1?}"
    );
    println!("{errors} error(s), {warnings} warning(s), {notes} note(s)");
    if errors + warnings > 0 {
        eprintln!("lint_descriptor: FAILED (errors or warnings present)");
        std::process::exit(1);
    }
    println!("lint_descriptor: OK");
}

fn indent(text: &str) -> String {
    text.lines().map(|l| format!("      {l}")).collect::<Vec<_>>().join("\n")
}
