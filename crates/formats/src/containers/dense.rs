//! Dense matrix/tensor helpers used as conversion oracles in tests.

use std::fmt;

/// A dense row-major matrix of `f64`.
#[derive(Debug, Clone, PartialEq)]
pub struct DenseMatrix {
    /// Number of rows.
    pub nr: usize,
    /// Number of columns.
    pub nc: usize,
    /// Row-major values, length `nr * nc`.
    pub vals: Vec<f64>,
}

impl DenseMatrix {
    /// Creates an all-zero matrix.
    pub fn zeros(nr: usize, nc: usize) -> Self {
        DenseMatrix { nr, nc, vals: vec![0.0; nr * nc] }
    }

    /// Value at `(i, j)`.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        self.vals[i * self.nc + j]
    }

    /// Sets the value at `(i, j)`.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: f64) {
        self.vals[i * self.nc + j] = v;
    }

    /// Dense matrix–vector product `y = A x`.
    ///
    /// # Panics
    /// Panics when `x.len() != nc`.
    #[allow(clippy::needless_range_loop)] // index math mirrors the kernels
    pub fn spmv(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.nc);
        let mut y = vec![0.0; self.nr];
        for i in 0..self.nr {
            let mut acc = 0.0;
            for j in 0..self.nc {
                acc += self.get(i, j) * x[j];
            }
            y[i] = acc;
        }
        y
    }
}

impl fmt::Display for DenseMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.nr {
            for j in 0..self.nc {
                if j > 0 {
                    write!(f, " ")?;
                }
                write!(f, "{:6.2}", self.get(i, j))?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_set_roundtrip() {
        let mut m = DenseMatrix::zeros(2, 3);
        m.set(1, 2, 5.0);
        assert_eq!(m.get(1, 2), 5.0);
        assert_eq!(m.get(0, 0), 0.0);
        assert_eq!(m.vals.iter().filter(|v| **v != 0.0).count(), 1);
    }

    #[test]
    fn spmv_matches_hand_computation() {
        let m = DenseMatrix { nr: 2, nc: 2, vals: vec![1.0, 2.0, 3.0, 4.0] };
        assert_eq!(m.spmv(&[1.0, 1.0]), vec![3.0, 7.0]);
    }
}
