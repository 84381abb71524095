//! Properties of the descriptor fingerprint (the plan-cache key) and the
//! structural [`FormatKind`] classification: fingerprints are pinned to
//! fixed values, stable across clones, computed once and equal to a fresh
//! construction's, pairwise distinct across the shipped format catalog,
//! and sensitive to structural edits (UF domains, order keys, relations).

use proptest::prelude::*;
use sparse_formats::descriptors as d;
use sparse_formats::{FormatDescriptor, FormatKind, FormatSpec};
use spf_ir::order::{Comparator, KeyDim, OrderKey};
use spf_ir::parser::parse_set;

/// Every shipped descriptor, labelled. `dia_executable` is the same
/// format as `dia` with a scan attached, so it is structurally distinct
/// too.
fn catalog() -> Vec<(&'static str, FormatDescriptor)> {
    vec![
        ("coo", d::coo()),
        ("scoo", d::scoo()),
        ("csr", d::csr()),
        ("csc", d::csc()),
        ("dia", d::dia()),
        ("dia_executable", d::dia_executable()),
        ("ell", d::ell()),
        ("mcoo", d::mcoo()),
        ("bcsr", d::bcsr(2, 2)),
        ("coo3", d::coo3()),
        ("scoo3", d::scoo3()),
        ("mcoo3", d::mcoo3()),
    ]
}

/// The catalog's fingerprints. They key the engine's plan cache, name
/// kernel registrations and feed `Engine::plan_fingerprint`, so a change
/// to the hash or to a catalog descriptor's structure shows here first.
const PINNED: [(&str, u64); 12] = [
    ("coo", 0xab70_0245_7bea_869f),
    ("scoo", 0x6b86_6f78_c5bc_d619),
    ("csr", 0x1bb3_5fd1_b2d6_b139),
    ("csc", 0x8251_8c5a_1452_8541),
    ("dia", 0x2d80_e665_b5ec_d104),
    ("dia_executable", 0xae92_361d_a2cc_e0e3),
    ("ell", 0x299e_55a0_33ae_fc2a),
    ("mcoo", 0x070f_21db_57bd_7606),
    ("bcsr", 0xca7b_2126_5e14_95c2),
    ("coo3", 0x5d16_211a_e09c_932c),
    ("scoo3", 0x6397_9758_5eb9_5008),
    ("mcoo3", 0x609d_f426_5bcb_17c7),
];

#[test]
fn catalog_fingerprints_are_pinned() {
    for ((name, desc), (pname, fp)) in catalog().iter().zip(PINNED) {
        assert_eq!(*name, pname, "catalog/pin order");
        assert_eq!(desc.fingerprint(), fp, "{name}: fingerprint moved");
    }
}

#[test]
fn memoized_fingerprint_matches_fresh_construction() {
    for (name, desc) in catalog() {
        for desc in [desc.clone(), desc.with_suffix("_v")] {
            let fresh = FormatDescriptor::from(FormatSpec::clone(&desc));
            assert_eq!(
                desc.fingerprint(),
                fresh.fingerprint(),
                "{name}: memo is stale"
            );
            assert_eq!(
                desc.edit(|_| {}).fingerprint(),
                desc.fingerprint(),
                "{name}"
            );
        }
    }
}

#[test]
fn fingerprints_pairwise_distinct_across_catalog() {
    let cat = catalog();
    for (i, (na, a)) in cat.iter().enumerate() {
        for (nb, b) in cat.iter().skip(i + 1) {
            assert_ne!(
                a.fingerprint(),
                b.fingerprint(),
                "{na} and {nb} must not collide"
            );
        }
    }
}

#[test]
fn fingerprint_ignores_display_name() {
    let a = d::csr();
    let renamed = a.edit(|s| s.name = "csr_renamed".into());
    assert_eq!(renamed.name, "csr_renamed");
    assert_eq!(
        renamed.fingerprint(),
        a.fingerprint(),
        "renaming a format is not structural"
    );
}

#[test]
fn kind_classifies_every_shipped_descriptor() {
    use FormatKind::*;
    let expected = [
        ("coo", Coo),
        ("scoo", SortedCoo),
        ("csr", Csr),
        ("csc", Csc),
        ("dia", Dia),
        ("dia_executable", Dia),
        ("ell", Ell),
        ("mcoo", MortonCoo),
        ("bcsr", Unsupported),
        ("coo3", Coo3),
        ("scoo3", Coo3),
        ("mcoo3", MortonCoo3),
    ];
    let cat = catalog();
    for ((name, desc), (ename, ekind)) in cat.iter().zip(expected.iter()) {
        assert_eq!(name, ename, "catalog/expectation order");
        assert_eq!(desc.kind(), *ekind, "{name} misclassified");
    }
}

#[test]
fn with_suffix_preserves_kind() {
    for (name, desc) in catalog() {
        assert_eq!(
            desc.with_suffix("_dst").kind(),
            desc.kind(),
            "{name}: suffixing UF names must not change the kind"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn fingerprint_stable_across_clones(idx in 0usize..12) {
        let (_, desc) = catalog().swap_remove(idx);
        let copy = desc.clone();
        prop_assert_eq!(desc.fingerprint(), copy.fingerprint());
        // And deterministic across repeated evaluation.
        prop_assert_eq!(desc.fingerprint(), desc.fingerprint());
    }

    #[test]
    fn fingerprint_changes_when_uf_domain_changes(idx in 0usize..12, bound in 1i64..1000) {
        let (_, desc) = catalog().swap_remove(idx);
        let Some(sig) = desc.ufs.iter().next().cloned() else {
            // bcsr-like descriptors always declare UFs; guard anyway.
            return Ok(());
        };
        let mut sig = sig;
        sig.domain = parse_set(&format!("{{ [x] : 0 <= x <= {bound} }}")).unwrap();
        prop_assume!(sig.domain != desc.ufs.get(&sig.name).unwrap().domain);
        let edited = desc.edit(|s| s.ufs.insert(sig));
        prop_assert_ne!(desc.fingerprint(), edited.fingerprint());
    }

    #[test]
    fn fingerprint_changes_when_order_changes(idx in 0usize..12) {
        let (_, desc) = catalog().swap_remove(idx);
        // Replace the order spec with something no shipped format uses.
        let new_order = OrderKey {
            comparator: Comparator::UserFn("FP_TEST_CMP".into()),
            dims: vec![KeyDim::affine(vec![7; desc.rank], 3)],
        };
        prop_assume!(desc.order.as_ref() != Some(&new_order));
        let edited = desc.edit(|s| s.order = Some(new_order));
        prop_assert_ne!(desc.fingerprint(), edited.fingerprint());
    }

    #[test]
    fn fingerprint_changes_when_monotonicity_dropped(idx in 0usize..12) {
        let (_, desc) = catalog().swap_remove(idx);
        let Some(sig) = desc
            .ufs
            .iter()
            .find(|s| s.monotonicity.is_some())
            .cloned()
        else {
            return Ok(()); // format has no monotonic UF (e.g. COO)
        };
        let mut sig = sig;
        sig.monotonicity = None;
        let edited = desc.edit(|s| s.ufs.insert(sig));
        prop_assert_ne!(desc.fingerprint(), edited.fingerprint());
    }
}
