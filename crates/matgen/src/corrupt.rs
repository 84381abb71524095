//! Systematic input corruption for fault-injection testing.
//!
//! The hardened execution layer promises that *no* input container —
//! however mangled its public fields — can panic the engine: every
//! corruption must surface as a typed error (or, for benign edge cases,
//! a correct result). This module produces the mangled containers: each
//! [`Corruption`] class violates one specific quantifier obligation of
//! the container's catalog descriptor, by mutating public fields so no
//! validating constructor can interfere.
//!
//! Classes are applied per container via [`corrupt_matrix`]; a class
//! that has no meaningful realization for a container (e.g. swapping
//! pointer entries in a pointerless COO) returns `None` so harnesses
//! can skip it rather than mistake "inapplicable" for "tolerated".

use sparse_formats::{AnyMatrix, CooMatrix, CscMatrix, CsrMatrix, EllMatrix, MortonCooMatrix};

/// One way to mangle a container. All classes except [`Corruption::Empty`]
/// produce an *invalid* input under the container's catalog descriptor
/// (sorted descriptors for coordinate containers); `Empty` is the benign
/// edge case — a valid zero-nonzero matrix that must convert successfully.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Corruption {
    /// Shorten one parallel array (length mismatch).
    TruncateArray,
    /// Swap two distinct pointer-array entries (breaks monotonicity).
    SwapPointerPair,
    /// Drive one stored index negative.
    NegativeIndex,
    /// Push one stored index past its declared bound.
    OversizedIndex,
    /// Repeat a coordinate a strict ordering quantifier forbids.
    DuplicateCoordinate,
    /// Replace one stored value with NaN.
    NonFiniteValue,
    /// Append a spurious trailing element to one array (length mismatch).
    ExtraLength,
    /// Not a corruption: replace the matrix with a *valid* empty one of
    /// the same dims. Conversions must succeed.
    Empty,
}

impl Corruption {
    /// Every class, in a stable order for exhaustive sweeps.
    pub const ALL: [Corruption; 8] = [
        Corruption::TruncateArray,
        Corruption::SwapPointerPair,
        Corruption::NegativeIndex,
        Corruption::OversizedIndex,
        Corruption::DuplicateCoordinate,
        Corruption::NonFiniteValue,
        Corruption::ExtraLength,
        Corruption::Empty,
    ];

    /// `true` for classes that produce a *valid* input (the engine must
    /// succeed); `false` for genuine corruption (the engine must return
    /// a typed error).
    pub fn is_benign(self) -> bool {
        matches!(self, Corruption::Empty)
    }
}

impl std::fmt::Display for Corruption {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{self:?}")
    }
}

/// Applies `class` to a copy of `m`, mutating public fields directly (no
/// validating constructor runs). Returns `None` when the class has no
/// realization for this container — too few nonzeros, no pointer array,
/// no row with enough entries.
pub fn corrupt_matrix(m: &AnyMatrix, class: Corruption) -> Option<AnyMatrix> {
    match m {
        AnyMatrix::Coo(c) => corrupt_coo(c, class).map(AnyMatrix::Coo),
        AnyMatrix::MortonCoo(mc) => {
            // Same storage as COO; the Morton ordering quantifier is the
            // descriptor's, so coordinate corruption applies unchanged.
            corrupt_coo(&mc.coo, class)
                .map(|coo| AnyMatrix::MortonCoo(MortonCooMatrix { coo }))
        }
        AnyMatrix::Csr(c) => corrupt_csr(c, class).map(AnyMatrix::Csr),
        AnyMatrix::Csc(c) => corrupt_csc(c, class).map(AnyMatrix::Csc),
        AnyMatrix::Ell(e) => corrupt_ell(e, class).map(AnyMatrix::Ell),
        // DIA is not a conversion source in the catalog (no executable
        // scan), so there is nothing to feed the engine.
        AnyMatrix::Dia(_) => None,
    }
}

fn corrupt_coo(m: &CooMatrix, class: Corruption) -> Option<CooMatrix> {
    let mut m = m.clone();
    match class {
        Corruption::TruncateArray => {
            if m.val.is_empty() {
                return None;
            }
            m.val.pop();
        }
        Corruption::SwapPointerPair => return None, // no pointer array
        Corruption::NegativeIndex => {
            *m.row.first_mut()? = -3;
        }
        Corruption::OversizedIndex => {
            *m.col.first_mut()? = m.nc as i64 + 7;
        }
        Corruption::DuplicateCoordinate => {
            if m.row.len() < 2 {
                return None;
            }
            m.row[1] = m.row[0];
            m.col[1] = m.col[0];
        }
        Corruption::NonFiniteValue => {
            *m.val.first_mut()? = f64::NAN;
        }
        Corruption::ExtraLength => {
            m.row.push(0);
        }
        Corruption::Empty => {
            m.row.clear();
            m.col.clear();
            m.val.clear();
        }
    }
    Some(m)
}

fn corrupt_csr(m: &CsrMatrix, class: Corruption) -> Option<CsrMatrix> {
    let mut m = m.clone();
    match class {
        Corruption::TruncateArray => {
            if m.val.is_empty() {
                return None;
            }
            m.val.pop();
        }
        Corruption::SwapPointerPair => {
            // Swap the first pair of *distinct* interior entries so the
            // pointer is provably non-monotone (or has broken ends).
            let w = m.rowptr.windows(2).position(|w| w[0] != w[1])?;
            m.rowptr.swap(w, w + 1);
        }
        Corruption::NegativeIndex => {
            *m.col.first_mut()? = -1;
        }
        Corruption::OversizedIndex => {
            *m.col.first_mut()? = m.nc as i64 + 9;
        }
        Corruption::DuplicateCoordinate => {
            // Needs a row with at least two entries.
            let w = m.rowptr.windows(2).position(|w| w[1] - w[0] >= 2)?;
            let s = m.rowptr[w] as usize;
            m.col[s + 1] = m.col[s];
        }
        Corruption::NonFiniteValue => {
            *m.val.first_mut()? = f64::NAN;
        }
        Corruption::ExtraLength => {
            m.col.push(0);
        }
        Corruption::Empty => {
            m.rowptr = vec![0; m.nr + 1];
            m.col.clear();
            m.val.clear();
        }
    }
    Some(m)
}

fn corrupt_csc(m: &CscMatrix, class: Corruption) -> Option<CscMatrix> {
    let mut m = m.clone();
    match class {
        Corruption::TruncateArray => {
            if m.val.is_empty() {
                return None;
            }
            m.val.pop();
        }
        Corruption::SwapPointerPair => {
            let w = m.colptr.windows(2).position(|w| w[0] != w[1])?;
            m.colptr.swap(w, w + 1);
        }
        Corruption::NegativeIndex => {
            *m.row.first_mut()? = -2;
        }
        Corruption::OversizedIndex => {
            *m.row.first_mut()? = m.nr as i64 + 11;
        }
        Corruption::DuplicateCoordinate => {
            let w = m.colptr.windows(2).position(|w| w[1] - w[0] >= 2)?;
            let s = m.colptr[w] as usize;
            m.row[s + 1] = m.row[s];
        }
        Corruption::NonFiniteValue => {
            *m.val.first_mut()? = f64::NAN;
        }
        Corruption::ExtraLength => {
            m.row.push(0);
        }
        Corruption::Empty => {
            m.colptr = vec![0; m.nc + 1];
            m.row.clear();
            m.val.clear();
        }
    }
    Some(m)
}

fn corrupt_ell(m: &EllMatrix, class: Corruption) -> Option<EllMatrix> {
    let mut m = m.clone();
    // The first occupied slot, for classes that mangle one entry.
    let occupied = m.col.iter().position(|&j| j >= 0);
    match class {
        Corruption::TruncateArray => {
            if m.data.is_empty() {
                return None;
            }
            m.data.pop();
        }
        Corruption::SwapPointerPair => return None, // no pointer array
        Corruption::NegativeIndex => {
            // A sentinel column with a nonzero value: "negative index"
            // in ELL terms is a padding-contract violation.
            let s = occupied?;
            m.col[s] = -1;
            m.data[s] = 5.0;
        }
        Corruption::OversizedIndex => {
            let s = occupied?;
            m.col[s] = m.nc as i64 + 3;
        }
        Corruption::DuplicateCoordinate => {
            // Needs a row with two occupied slots.
            let row = (0..m.nr).find(|&i| {
                let lo = i * m.width;
                m.col.get(lo..lo + m.width)
                    .is_some_and(|r| r.iter().filter(|&&j| j >= 0).count() >= 2)
            })?;
            let lo = row * m.width;
            m.col[lo + 1] = m.col[lo];
        }
        Corruption::NonFiniteValue => {
            let s = occupied?;
            m.data[s] = f64::NAN;
        }
        Corruption::ExtraLength => {
            m.col.push(0);
        }
        Corruption::Empty => {
            m.width = 0;
            m.col.clear();
            m.data.clear();
        }
    }
    Some(m)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparse_formats::descriptors;
    use sparse_formats::{validate_matrix, InputCheck, ValidationError};

    fn sample() -> CooMatrix {
        CooMatrix::from_triplets(
            4,
            5,
            vec![0, 0, 1, 2, 3],
            vec![1, 3, 0, 2, 4],
            vec![1.0, 2.0, 3.0, 4.0, 5.0],
        )
        .unwrap()
    }

    /// Each malicious class must actually produce an input the validator
    /// rejects under the container's catalog descriptor, and `Empty` must
    /// produce one it accepts — otherwise the fault-injection suite
    /// would be asserting against no-op corruption.
    #[test]
    fn classes_produce_invalid_inputs_by_construction() {
        let coo = sample();
        let containers: Vec<(AnyMatrix, _)> = vec![
            (AnyMatrix::Coo(coo.clone()), descriptors::scoo()),
            (AnyMatrix::Csr(CsrMatrix::from_coo(&coo)), descriptors::csr()),
            (AnyMatrix::Csc(CscMatrix::from_coo(&coo)), descriptors::csc()),
            (AnyMatrix::Ell(EllMatrix::from_coo(&coo)), descriptors::ell()),
            (AnyMatrix::MortonCoo(MortonCooMatrix::from_coo(&coo)), descriptors::mcoo()),
        ];
        for (container, desc) in &containers {
            for class in Corruption::ALL {
                let Some(bad) = corrupt_matrix(container, class) else {
                    continue;
                };
                let verdict = validate_matrix(desc, bad.as_ref());
                if class.is_benign() {
                    assert!(
                        verdict.is_ok(),
                        "{class} on {} should be valid: {verdict:?}",
                        container.label()
                    );
                } else {
                    assert!(
                        verdict.is_err(),
                        "{class} on {} escaped the validator",
                        container.label()
                    );
                }
            }
        }
    }

    /// The container's own check: its `validate()`, or for bare COO (which
    /// has none) its validating constructor.
    fn own_check(m: &AnyMatrix) -> Result<(), ValidationError> {
        match m {
            AnyMatrix::Coo(c) => {
                CooMatrix::from_triplets(c.nr, c.nc, c.row.clone(), c.col.clone(), c.val.clone())
                    .map(drop)
            }
            AnyMatrix::MortonCoo(mc) => mc.validate(),
            AnyMatrix::Csr(c) => c.validate(),
            AnyMatrix::Csc(c) => c.validate(),
            AnyMatrix::Dia(d) => d.validate(),
            AnyMatrix::Ell(e) => e.validate(),
        }
    }

    /// The input-only obligations: the check the input validator names
    /// where the container's own check accepts.
    fn input_only(source: &str, class: Corruption) -> Option<InputCheck> {
        match (source, class) {
            // A container may hold NaN; an engine input may not.
            (_, Corruption::NonFiniteValue) => Some(InputCheck::ValueFinite),
            // Bare COO storage has no order of its own; the SCOO
            // descriptor's strict row-major key forbids the repeat.
            ("scoo", Corruption::DuplicateCoordinate) => Some(InputCheck::DuplicateCoordinate),
            // The Morton containers tolerate repeated coordinates; the
            // MCOO descriptor's strict key does not.
            ("mcoo", Corruption::DuplicateCoordinate) => Some(InputCheck::DuplicateCoordinate),
            _ => None,
        }
    }

    /// Container checks and input checks are one checker: on every class
    /// and every catalog source container they name the same check, or
    /// differ exactly by an input-only obligation.
    #[test]
    fn container_and_input_checks_agree() {
        let coo = sample();
        let sources: Vec<(&str, AnyMatrix, _)> = vec![
            ("coo", AnyMatrix::Coo(coo.clone()), descriptors::coo()),
            ("scoo", AnyMatrix::Coo(coo.clone()), descriptors::scoo()),
            ("mcoo", AnyMatrix::MortonCoo(MortonCooMatrix::from_coo(&coo)), descriptors::mcoo()),
            ("csr", AnyMatrix::Csr(CsrMatrix::from_coo(&coo)), descriptors::csr()),
            ("csc", AnyMatrix::Csc(CscMatrix::from_coo(&coo)), descriptors::csc()),
            ("ell", AnyMatrix::Ell(EllMatrix::from_coo(&coo)), descriptors::ell()),
        ];
        let mut compared = 0;
        for (source, container, desc) in &sources {
            for class in Corruption::ALL {
                let Some(bad) = corrupt_matrix(container, class) else {
                    continue;
                };
                let own = own_check(&bad).err().map(|e| e.check);
                let input = validate_matrix(desc, bad.as_ref()).err().map(|e| e.check);
                if class.is_benign() {
                    assert_eq!((own, input), (None, None), "{class} on {source}");
                }
                match input_only(source, class) {
                    Some(check) => {
                        assert_eq!(own, None, "{class} on {source}: container rejects");
                        assert_eq!(input, Some(check), "{class} on {source}");
                    }
                    None => assert_eq!(own, input, "{class} on {source}"),
                }
                compared += 1;
            }
        }
        assert!(compared >= 36, "only {compared} class/source pairs realized");
    }

    #[test]
    fn applicability_is_reported_not_faked() {
        let coo = AnyMatrix::Coo(sample());
        assert!(corrupt_matrix(&coo, Corruption::SwapPointerPair).is_none());
        let empty = AnyMatrix::Coo(
            CooMatrix::from_triplets(3, 3, vec![], vec![], vec![]).unwrap(),
        );
        assert!(corrupt_matrix(&empty, Corruption::TruncateArray).is_none());
        assert!(corrupt_matrix(&empty, Corruption::NegativeIndex).is_none());
    }
}
