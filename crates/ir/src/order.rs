//! Total orders on nonzeros: the semantic core of the paper's *reordering
//! universal quantifiers*.
//!
//! Every reordering quantifier in Table 1 of the paper orders the nonzeros
//! of a format by a key computed from their **dense coordinates**:
//!
//! * sorted COO / CSR order nonzeros by `(i, j)` lexicographically,
//! * CSC by `(j, i)`,
//! * DIA's `off` array by the diagonal index `j - i`,
//! * MCOO / MCOO3 by `MORTON(i, j, ...)` — a user-defined comparison
//!   function.
//!
//! [`OrderKey`] captures exactly this: a tuple of affine functions of the
//! dense coordinates, compared lexicographically or through a user-defined
//! comparator. Synthesis compares source and destination keys: when the
//! source order *implies* the destination order, the permutation `P` is the
//! identity and dead-code elimination removes it (the paper's COO→CSR fast
//! path).

use std::fmt;

/// An affine function of the dense coordinates: `constant + Σ coeff·dᵢ`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct KeyDim {
    /// One coefficient per dense dimension.
    pub coeffs: Vec<i64>,
    /// Constant offset.
    pub constant: i64,
}

impl KeyDim {
    /// The dense coordinate `d` itself.
    pub fn coord(dims: usize, d: usize) -> Self {
        let mut coeffs = vec![0; dims];
        coeffs[d] = 1;
        KeyDim { coeffs, constant: 0 }
    }

    /// An arbitrary affine combination.
    pub fn affine(coeffs: Vec<i64>, constant: i64) -> Self {
        KeyDim { coeffs, constant }
    }

    /// Evaluates the key dimension at a dense coordinate.
    pub fn eval(&self, coords: &[usize]) -> i64 {
        debug_assert_eq!(coords.len(), self.coeffs.len());
        self.constant
            + self
                .coeffs
                .iter()
                .zip(coords)
                .map(|(c, x)| c * *x as i64)
                .sum::<i64>()
    }
}

impl fmt::Display for KeyDim {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let names = ["i", "j", "k", "l", "m"];
        let mut first = true;
        for (d, c) in self.coeffs.iter().enumerate() {
            if *c == 0 {
                continue;
            }
            let name = names.get(d).copied().unwrap_or("?");
            if first {
                if *c == -1 {
                    write!(f, "-{name}")?;
                } else if *c == 1 {
                    write!(f, "{name}")?;
                } else {
                    write!(f, "{c}{name}")?;
                }
                first = false;
            } else if *c < 0 {
                if *c == -1 {
                    write!(f, " - {name}")?;
                } else {
                    write!(f, " - {}{name}", -c)?;
                }
            } else if *c == 1 {
                write!(f, " + {name}")?;
            } else {
                write!(f, " + {c}{name}")?;
            }
        }
        if first {
            write!(f, "{}", self.constant)?;
        } else if self.constant > 0 {
            write!(f, " + {}", self.constant)?;
        } else if self.constant < 0 {
            write!(f, " - {}", -self.constant)?;
        }
        Ok(())
    }
}

/// How the tuple of [`KeyDim`] values is compared.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Comparator {
    /// Lexicographic comparison of the key tuple.
    Lexicographic,
    /// Morton (Z-order) comparison: compare bit-interleavings of the key
    /// tuple. This is the paper's `MORTON` user-defined function.
    Morton,
    /// A named user-defined comparison function; the runtime must provide
    /// its implementation (the paper requires full definitions for
    /// functions appearing only in universal quantifiers).
    UserFn(String),
}

impl fmt::Display for Comparator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Comparator::Lexicographic => write!(f, "LEX"),
            Comparator::Morton => write!(f, "MORTON"),
            Comparator::UserFn(name) => write!(f, "{name}"),
        }
    }
}

/// The total order a format imposes on its nonzeros, as a function of
/// their dense coordinates.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct OrderKey {
    /// Comparison semantics.
    pub comparator: Comparator,
    /// Key tuple, evaluated per nonzero from its dense coordinates.
    pub dims: Vec<KeyDim>,
}

impl OrderKey {
    /// Lexicographic order over the listed key dimensions.
    pub fn lex(dims: Vec<KeyDim>) -> Self {
        OrderKey { comparator: Comparator::Lexicographic, dims }
    }

    /// Row-major (`i`, `j`, ...) lexicographic order over `rank` dense
    /// dimensions.
    pub fn row_major(rank: usize) -> Self {
        OrderKey::lex((0..rank).map(|d| KeyDim::coord(rank, d)).collect())
    }

    /// Morton (Z-order) over the dense coordinates.
    pub fn morton(rank: usize) -> Self {
        OrderKey {
            comparator: Comparator::Morton,
            dims: (0..rank).map(|d| KeyDim::coord(rank, d)).collect(),
        }
    }

    /// Returns `true` when data sorted by `self` is necessarily also sorted
    /// by `other`.
    ///
    /// The check is syntactic but sound: identical keys imply each other,
    /// and for lexicographic comparisons a key implies any *prefix* of
    /// itself. Morton/user-defined orders imply only themselves. A `false`
    /// result merely means a permutation must be synthesized.
    pub fn implies(&self, other: &OrderKey) -> bool {
        if self.comparator != other.comparator {
            return false;
        }
        match self.comparator {
            Comparator::Lexicographic => {
                other.dims.len() <= self.dims.len()
                    && self.dims[..other.dims.len()] == other.dims[..]
            }
            Comparator::Morton | Comparator::UserFn(_) => self.dims == other.dims,
        }
    }

    /// The order among nonzeros that share the value of `dim`, when it is
    /// again an order key over the remaining dimensions.
    ///
    /// A lexicographic key compares the tied component equal, so the rest
    /// keep their lexicographic order. A 2-D Morton order with one
    /// coordinate fixed is increasing in the other, which is that
    /// coordinate's lexicographic order. A Morton order of higher rank
    /// restricted this way interleaves the remaining coordinates, so it
    /// stays a Morton order (and implies no lexicographic key). `None`
    /// when `dim` is not one of the key's dimensions, or for user-defined
    /// comparators, whose restriction is unknown.
    pub fn ties_on(&self, dim: &KeyDim) -> Option<OrderKey> {
        let at = self.dims.iter().position(|d| d == dim)?;
        let mut rest = self.dims.clone();
        rest.remove(at);
        match self.comparator {
            Comparator::Lexicographic => Some(OrderKey::lex(rest)),
            Comparator::Morton if rest.len() == 1 => Some(OrderKey::lex(rest)),
            Comparator::Morton => Some(OrderKey { comparator: Comparator::Morton, dims: rest }),
            Comparator::UserFn(_) => None,
        }
    }

    /// The dense dimension whose buckets put nonzeros that arrive in
    /// `source` order into `self`'s order: `self`'s leading dimension
    /// `k0`, when `self` is lexicographic, `k0` is a plain coordinate, and
    /// `source`, among nonzeros that share `k0`, implies the rest of
    /// `self`. Counting placement needs exactly this.
    pub fn bucket_dim(&self, source: &OrderKey) -> Option<usize> {
        let k0 = self.dims.first()?;
        let rank = k0.coeffs.len();
        let dim = (0..rank).find(|&d| *k0 == KeyDim::coord(rank, d))?;
        let ordered = self.comparator == Comparator::Lexicographic
            && source.ties_on(k0)?.implies(&self.ties_on(k0)?);
        ordered.then_some(dim)
    }

    /// Renders the paper's reordering-quantifier notation, e.g.
    /// `forall n1, n2 : n1 < n2 <=> MORTON(row(n1), col(n1)) < MORTON(row(n2), col(n2))`.
    pub fn quantifier_text(&self, coord_ufs: &[String]) -> String {
        let render = |v: &str| -> String {
            let args: Vec<String> = self
                .dims
                .iter()
                .map(|d| {
                    // Substitute each dense coordinate with its UF applied
                    // to the position variable where the key is a plain
                    // coordinate; otherwise print the affine form over the
                    // coordinate UFs.
                    let mut parts = Vec::new();
                    for (k, c) in d.coeffs.iter().enumerate() {
                        if *c == 0 {
                            continue;
                        }
                        let base = coord_ufs
                            .get(k)
                            .map(|u| format!("{u}({v})"))
                            .unwrap_or_else(|| format!("d{k}({v})"));
                        match *c {
                            1 => parts.push(base),
                            -1 => parts.push(format!("-{base}")),
                            c => parts.push(format!("{c}*{base}")),
                        }
                    }
                    let mut s = parts.join(" + ").replace("+ -", "- ");
                    if d.constant != 0 {
                        s.push_str(&format!(" + {}", d.constant));
                    }
                    if s.is_empty() {
                        s = d.constant.to_string();
                    }
                    s
                })
                .collect();
            match &self.comparator {
                Comparator::Lexicographic => format!("({})", args.join(", ")),
                Comparator::Morton => format!("MORTON({})", args.join(", ")),
                Comparator::UserFn(f) => format!("{f}({})", args.join(", ")),
            }
        };
        format!(
            "forall n1, n2 : n1 < n2 <=> {} < {}",
            render("n1"),
            render("n2")
        )
    }
}

impl fmt::Display for OrderKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[", self.comparator)?;
        for (k, d) in self.dims.iter().enumerate() {
            if k > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{d}")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_major_implies_prefix() {
        let rm = OrderKey::row_major(2);
        let row_only = OrderKey::lex(vec![KeyDim::coord(2, 0)]);
        assert!(rm.implies(&row_only));
        assert!(!row_only.implies(&rm));
        assert!(rm.implies(&rm));
    }

    #[test]
    fn csc_not_implied_by_row_major() {
        let rm = OrderKey::row_major(2);
        let cm = OrderKey::lex(vec![KeyDim::coord(2, 1), KeyDim::coord(2, 0)]);
        assert!(!rm.implies(&cm));
        assert!(!cm.implies(&rm));
    }

    #[test]
    fn morton_implies_only_itself() {
        let m2 = OrderKey::morton(2);
        let rm = OrderKey::row_major(2);
        assert!(m2.implies(&m2));
        assert!(!m2.implies(&rm));
        assert!(!rm.implies(&m2));
        let m3 = OrderKey::morton(3);
        assert!(!m2.implies(&m3));
    }

    #[test]
    fn ties_on_drops_the_shared_dimension() {
        let (i, j) = (KeyDim::coord(2, 0), KeyDim::coord(2, 1));
        let csc = OrderKey::lex(vec![j.clone(), i.clone()]);
        let rows_in_col = OrderKey::lex(vec![i.clone()]);
        // Row-major data grouped by column is ordered by row within it.
        assert_eq!(OrderKey::row_major(2).ties_on(&j), Some(rows_in_col.clone()));
        assert!(OrderKey::row_major(2).ties_on(&j).unwrap().implies(&csc.ties_on(&j).unwrap()));
        // A 2-D Morton order with one coordinate fixed increases in the other.
        assert_eq!(OrderKey::morton(2).ties_on(&j), Some(rows_in_col));
        assert_eq!(OrderKey::morton(2).ties_on(&i), Some(OrderKey::lex(vec![j.clone()])));
        // A 3-D Morton order with one coordinate fixed is a 2-D Morton
        // order, not a lexicographic one.
        let m3 = OrderKey::morton(3).ties_on(&KeyDim::coord(3, 0)).unwrap();
        assert_eq!(m3.comparator, Comparator::Morton);
        let rest = OrderKey::lex(vec![KeyDim::coord(3, 1), KeyDim::coord(3, 2)]);
        assert!(!m3.implies(&rest));
        // Not a key dimension, or an opaque comparator: unknown.
        assert_eq!(OrderKey::lex(vec![i.clone()]).ties_on(&j), None);
        let f = Comparator::UserFn("f".into());
        let user = OrderKey { comparator: f, dims: vec![i.clone(), j] };
        assert_eq!(user.ties_on(&i), None);
    }

    #[test]
    fn bucket_dim_is_the_leading_coordinate_when_ties_are_ordered() {
        let (i, j) = (KeyDim::coord(2, 0), KeyDim::coord(2, 1));
        let csc = OrderKey::lex(vec![j.clone(), i.clone()]);
        assert_eq!(csc.bucket_dim(&OrderKey::row_major(2)), Some(1));
        assert_eq!(OrderKey::row_major(2).bucket_dim(&csc), Some(0));
        assert_eq!(csc.bucket_dim(&OrderKey::morton(2)), Some(1));
        // Morton destinations and 3-D Morton sources do not qualify.
        assert_eq!(OrderKey::morton(2).bucket_dim(&OrderKey::row_major(2)), None);
        assert_eq!(OrderKey::row_major(3).bucket_dim(&OrderKey::morton(3)), None);
        // Nor does a leading dimension that is not a plain coordinate.
        let diagonal = OrderKey::lex(vec![KeyDim::affine(vec![-1, 1], 0), i]);
        assert_eq!(diagonal.bucket_dim(&OrderKey::row_major(2)), None);
    }

    #[test]
    fn key_dim_eval() {
        // j - i at (i=3, j=10) is 7.
        let d = KeyDim::affine(vec![-1, 1], 0);
        assert_eq!(d.eval(&[3, 10]), 7);
        assert_eq!(KeyDim::coord(2, 0).eval(&[3, 10]), 3);
    }

    #[test]
    fn display_forms() {
        let dia = OrderKey::lex(vec![KeyDim::affine(vec![-1, 1], 0)]);
        assert_eq!(dia.to_string(), "LEX[-i + j]");
        let m = OrderKey::morton(2);
        assert_eq!(m.to_string(), "MORTON[i, j]");
    }

    #[test]
    fn quantifier_text_matches_paper() {
        let m = OrderKey::morton(2);
        let t = m.quantifier_text(&["row_m".into(), "col_m".into()]);
        assert_eq!(
            t,
            "forall n1, n2 : n1 < n2 <=> MORTON(row_m(n1), col_m(n1)) < MORTON(row_m(n2), col_m(n2))"
        );
    }
}
