//! Principal Component Analysis.
//!
//! Paper §VI-A: "PCA method merges close-related variables into as few new
//! variables as possible and makes them pairwise unrelated" — the monitor
//! runs PCA on heartbeat samples of per-resource pressure/latency ratios
//! and derives the weights `w₁…wₙ` that the deployment controller plugs
//! into Eq. 6. This module is the generic PCA; the weight derivation
//! policy lives in `amoeba-core::monitor`.

use crate::eigen::symmetric_eigen;
use crate::matrix::Matrix;

/// PCA configuration.
///
/// # Examples
///
/// ```
/// use amoeba_linalg::{Matrix, Pca};
///
/// // Two perfectly correlated columns: one principal component
/// // explains everything.
/// let rows: Vec<Vec<f64>> = (0..20)
///     .map(|i| vec![i as f64, 2.0 * i as f64])
///     .collect();
/// let model = Pca::default().fit(&Matrix::from_nested(&rows)).unwrap();
/// assert_eq!(model.retained, 1);
/// let w = model.variable_importance();
/// assert!((w.iter().sum::<f64>() - 1.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone)]
pub struct Pca {
    /// Standardise columns to z-scores before the covariance step.
    /// Pressure columns have wildly different scales (CPU share vs MB/s),
    /// so the monitor always sets this.
    pub standardize: bool,
    /// Keep the smallest number of components whose cumulative explained
    /// variance reaches this fraction (paper: "select the principal
    /// components that can cover the most variance of the data").
    pub variance_threshold: f64,
}

impl Default for Pca {
    fn default() -> Self {
        Pca {
            standardize: true,
            variance_threshold: 0.85,
        }
    }
}

/// A fitted PCA model.
#[derive(Debug, Clone)]
pub struct PcaModel {
    /// Column means of the training data (for projecting new samples).
    pub means: Vec<f64>,
    /// Column standard deviations (1.0 when standardisation was off or the
    /// column was constant).
    pub scales: Vec<f64>,
    /// All eigenvalues of the covariance matrix, descending.
    pub eigenvalues: Vec<f64>,
    /// All principal axes as matrix columns, same order as `eigenvalues`.
    pub components: Matrix,
    /// How many leading components reach the variance threshold.
    pub retained: usize,
}

impl Pca {
    /// Fit a model to `data` (rows = samples, cols = variables). Returns
    /// `None` when there are fewer than two samples or no variables, or
    /// when the data contain non-finite values.
    pub fn fit(&self, data: &Matrix) -> Option<PcaModel> {
        self.fit_rows(data.as_slice(), data.cols())
    }

    /// [`Pca::fit`] over a flat row-major slice of `cols` columns, so a
    /// caller that keeps its samples in one buffer fits them in place.
    /// The column means and deviations are computed once and passed on,
    /// and no `rows × cols` intermediate is built; every sum still runs
    /// over the rows in order, so the model is bit-identical to the
    /// [`column_means`](crate::column_means) /
    /// [`standardize`](crate::standardize) /
    /// [`covariance_matrix`](crate::covariance_matrix) composition.
    /// Panics if `data.len()` is not a multiple of `cols`.
    pub fn fit_rows(&self, data: &[f64], cols: usize) -> Option<PcaModel> {
        if cols == 0 {
            return None;
        }
        assert_eq!(data.len() % cols, 0, "ragged row-major data");
        if data.len() / cols < 2 || !data.iter().all(|x| x.is_finite()) {
            return None;
        }
        let means = means_of(data, cols);
        // `x / 1.0` is exact, so a divisor of 1 centres only.
        let scales = if self.standardize {
            scales_of(data, cols, &means)
        } else {
            vec![1.0; cols]
        };
        let cov = prepared_covariance(data, cols, &means, &scales);
        let eig = symmetric_eigen(&cov)?;
        // Numerical noise can push tiny eigenvalues slightly negative.
        let eigenvalues: Vec<f64> = eig.values.iter().map(|&l| l.max(0.0)).collect();
        let total: f64 = eigenvalues.iter().sum();
        let retained = if total <= 0.0 {
            // Degenerate (all-constant) data: keep one component so the
            // caller always has a direction to work with.
            1
        } else {
            let mut acc = 0.0;
            let mut k = 0;
            for &l in &eigenvalues {
                acc += l;
                k += 1;
                if acc / total >= self.variance_threshold {
                    break;
                }
            }
            k
        };
        Some(PcaModel {
            means,
            scales,
            eigenvalues,
            components: eig.vectors,
            retained,
        })
    }
}

impl PcaModel {
    /// Fraction of total variance explained by each component.
    pub fn explained_variance_ratio(&self) -> Vec<f64> {
        let total: f64 = self.eigenvalues.iter().sum();
        if total <= 0.0 {
            return vec![0.0; self.eigenvalues.len()];
        }
        self.eigenvalues.iter().map(|&l| l / total).collect()
    }

    /// Loadings (|entries| of the principal axes) of the `k`-th component.
    pub fn loadings(&self, k: usize) -> Vec<f64> {
        (0..self.components.rows())
            .map(|row| self.components[(row, k)])
            .collect()
    }

    /// Project one observation onto the retained components.
    pub fn project(&self, sample: &[f64]) -> Vec<f64> {
        assert_eq!(sample.len(), self.means.len(), "sample dimension");
        let z: Vec<f64> = sample
            .iter()
            .zip(self.means.iter().zip(&self.scales))
            .map(|(&x, (&m, &s))| (x - m) / s)
            .collect();
        (0..self.retained)
            .map(|k| self.loadings(k).iter().zip(&z).map(|(a, b)| a * b).sum())
            .collect()
    }

    /// Variance-weighted absolute loadings across the retained components,
    /// normalised to sum to 1. This is the "merge correlated variables,
    /// weight by importance" signal the contention monitor turns into the
    /// Eq. 6 weights: a variable that loads heavily on the dominant
    /// components receives a large weight.
    pub fn variable_importance(&self) -> Vec<f64> {
        let p = self.means.len();
        let mut imp = vec![0.0; p];
        for k in 0..self.retained {
            let lam = self.eigenvalues.get(k).copied().unwrap_or(0.0);
            for (j, l) in self.loadings(k).iter().enumerate() {
                imp[j] += lam * l.abs();
            }
        }
        let total: f64 = imp.iter().sum();
        if total > 0.0 {
            for v in &mut imp {
                *v /= total;
            }
        } else {
            // No variance anywhere: fall back to uniform weights, exactly
            // the Amoeba-NoM behaviour.
            for v in &mut imp {
                *v = 1.0 / p as f64;
            }
        }
        imp
    }
}

// The fit's statistics over a flat row-major slice of `p` columns and at
// least two rows. Each one stands in for a public function of
// `crate::stats` inside the fit and sums over the rows in the same order,
// so the fit stays bit-identical to that composition (the tests check it).

/// Per-column means, as [`column_means`](crate::column_means).
fn means_of(data: &[f64], p: usize) -> Vec<f64> {
    let n = data.len() / p;
    let mut means = vec![0.0; p];
    for row in data.chunks_exact(p) {
        for (m, &x) in means.iter_mut().zip(row) {
            *m += x;
        }
    }
    for m in &mut means {
        *m /= n as f64;
    }
    means
}

/// The divisors [`standardize`](crate::standardize) applies: each
/// column's sample standard deviation around `means`, or 1 for a
/// constant column.
fn scales_of(data: &[f64], p: usize, means: &[f64]) -> Vec<f64> {
    let n = data.len() / p;
    let mut vars = vec![0.0; p];
    for row in data.chunks_exact(p) {
        for ((v, &x), &m) in vars.iter_mut().zip(row).zip(means) {
            let d = x - m;
            *v += d * d;
        }
    }
    vars.iter()
        .map(|v| (v / (n as f64 - 1.0)).sqrt())
        .map(|s| if s > 0.0 { s } else { 1.0 })
        .collect()
}

/// [`covariance_matrix`](crate::covariance_matrix) of the prepared
/// columns `(x − means) / scales` without materialising them: one pass
/// for their column means, one to accumulate the upper triangle, each
/// recomputing a prepared value by the same two operations.
fn prepared_covariance(data: &[f64], p: usize, means: &[f64], scales: &[f64]) -> Matrix {
    let n = data.len() / p;
    let prepare = |row: &[f64], j: usize| (row[j] - means[j]) / scales[j];
    let mut prepared_means = vec![0.0; p];
    for row in data.chunks_exact(p) {
        for (j, m) in prepared_means.iter_mut().enumerate() {
            *m += prepare(row, j);
        }
    }
    for m in &mut prepared_means {
        *m /= n as f64;
    }
    let mut cov = Matrix::zeros(p, p);
    let mut d = vec![0.0; p];
    for row in data.chunks_exact(p) {
        for (j, dj) in d.iter_mut().enumerate() {
            *dj = prepare(row, j) - prepared_means[j];
        }
        for (a, &da) in d.iter().enumerate() {
            for (b, &db) in d.iter().enumerate().skip(a) {
                cov[(a, b)] += da * db;
            }
        }
    }
    let denom = n as f64 - 1.0;
    for a in 0..p {
        for b in a..p {
            let v = cov[(a, b)] / denom;
            cov[(a, b)] = v;
            cov[(b, a)] = v;
        }
    }
    cov
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Samples along the direction (1, 2) with tiny orthogonal noise.
    fn line_data() -> Matrix {
        let mut rows = Vec::new();
        for i in 0..50 {
            let t = i as f64 / 10.0;
            let noise = if i % 2 == 0 { 0.01 } else { -0.01 };
            rows.push(vec![t + noise * 2.0, 2.0 * t - noise]);
        }
        Matrix::from_nested(&rows)
    }

    #[test]
    fn first_component_captures_a_line() {
        let pca = Pca {
            standardize: false,
            variance_threshold: 0.85,
        };
        let model = pca.fit(&line_data()).unwrap();
        let ratio = model.explained_variance_ratio();
        assert!(ratio[0] > 0.999, "ratio {ratio:?}");
        assert_eq!(model.retained, 1);
        // Axis parallel to (1, 2)/sqrt(5).
        let l = model.loadings(0);
        let norm = (l[0] * l[0] + l[1] * l[1]).sqrt();
        let dir = (l[0] / norm, l[1] / norm);
        let expected = (1.0 / 5.0f64.sqrt(), 2.0 / 5.0f64.sqrt());
        let dot = (dir.0 * expected.0 + dir.1 * expected.1).abs();
        assert!(dot > 0.999, "dot {dot}");
    }

    #[test]
    fn explained_variance_sums_to_one() {
        let model = Pca::default().fit(&line_data()).unwrap();
        let s: f64 = model.explained_variance_ratio().iter().sum();
        assert!((s - 1.0).abs() < 1e-9);
    }

    #[test]
    fn retained_respects_threshold() {
        // Two equally strong independent directions: one component only
        // explains ~50%, so an 0.85 threshold keeps both.
        let mut rows = Vec::new();
        for i in 0..40 {
            let a = if i % 2 == 0 { 1.0 } else { -1.0 };
            let b = if (i / 2) % 2 == 0 { 1.0 } else { -1.0 };
            rows.push(vec![a, b]);
        }
        let model = Pca::default().fit(&Matrix::from_nested(&rows)).unwrap();
        assert_eq!(model.retained, 2);
    }

    #[test]
    fn projection_of_training_mean_is_zero() {
        let model = Pca::default().fit(&line_data()).unwrap();
        let proj = model.project(&model.means.clone());
        for v in proj {
            assert!(v.abs() < 1e-9);
        }
    }

    #[test]
    fn variable_importance_sums_to_one_and_tracks_loading() {
        let model = Pca {
            standardize: false,
            variance_threshold: 0.85,
        }
        .fit(&line_data())
        .unwrap();
        let imp = model.variable_importance();
        assert!((imp.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        // Direction (1,2): the second variable matters ~2x as much.
        assert!(imp[1] > imp[0]);
        assert!((imp[1] / imp[0] - 2.0).abs() < 0.1, "{imp:?}");
    }

    #[test]
    fn constant_data_falls_back_to_uniform_importance() {
        let m = Matrix::from_rows(3, 3, &[1.0; 9]);
        let model = Pca::default().fit(&m).unwrap();
        let imp = model.variable_importance();
        for v in imp {
            assert!((v - 1.0 / 3.0).abs() < 1e-12);
        }
    }

    #[test]
    fn rejects_degenerate_inputs() {
        assert!(Pca::default().fit(&Matrix::zeros(1, 3)).is_none());
        assert!(Pca::default().fit(&Matrix::zeros(5, 0)).is_none());
        let nan = Matrix::from_rows(2, 1, &[1.0, f64::NAN]);
        assert!(Pca::default().fit(&nan).is_none());
    }

    #[test]
    fn standardized_pca_is_scale_invariant() {
        let data = line_data();
        // Multiply the second column by 1000.
        let mut scaled = data.clone();
        for i in 0..scaled.rows() {
            scaled[(i, 1)] *= 1000.0;
        }
        let m1 = Pca::default().fit(&data).unwrap();
        let m2 = Pca::default().fit(&scaled).unwrap();
        let r1 = m1.explained_variance_ratio();
        let r2 = m2.explained_variance_ratio();
        assert!((r1[0] - r2[0]).abs() < 1e-9, "{r1:?} vs {r2:?}");
    }

    /// The fit as the composition of the public statistics functions:
    /// the specification [`Pca::fit`] must reproduce bit for bit.
    fn composed_fit(pca: &Pca, data: &Matrix) -> Option<PcaModel> {
        use crate::stats::{column_means, column_std_devs, covariance_matrix, standardize};
        if data.rows() < 2 || data.cols() == 0 || !data.as_slice().iter().all(|x| x.is_finite()) {
            return None;
        }
        let means = column_means(data);
        let stds = column_std_devs(data);
        let prepared = if pca.standardize {
            standardize(data)
        } else {
            let mut c = data.clone();
            for i in 0..c.rows() {
                for (j, m) in means.iter().enumerate() {
                    c[(i, j)] -= m;
                }
            }
            c
        };
        let eig = symmetric_eigen(&covariance_matrix(&prepared))?;
        let eigenvalues: Vec<f64> = eig.values.iter().map(|&l| l.max(0.0)).collect();
        let total: f64 = eigenvalues.iter().sum();
        let mut retained = 1;
        if total > 0.0 {
            let mut acc = 0.0;
            for (k, &l) in eigenvalues.iter().enumerate() {
                acc += l;
                retained = k + 1;
                if acc / total >= pca.variance_threshold {
                    break;
                }
            }
        }
        let scales = stds
            .iter()
            .map(|&s| if pca.standardize && s > 0.0 { s } else { 1.0 })
            .collect();
        Some(PcaModel {
            means,
            scales,
            eigenvalues,
            components: eig.vectors,
            retained,
        })
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    fn assert_bit_identical(pca: &Pca, data: &Matrix) {
        let fast = pca.fit(data);
        let slow = composed_fit(pca, data);
        match (fast, slow) {
            (None, None) => {}
            (Some(f), Some(s)) => {
                assert_eq!(bits(&f.means), bits(&s.means), "means");
                assert_eq!(bits(&f.scales), bits(&s.scales), "scales");
                assert_eq!(bits(&f.eigenvalues), bits(&s.eigenvalues), "eigenvalues");
                assert_eq!(
                    bits(f.components.as_slice()),
                    bits(s.components.as_slice()),
                    "components"
                );
                assert_eq!(f.retained, s.retained);
                assert_eq!(
                    bits(&f.variable_importance()),
                    bits(&s.variable_importance())
                );
            }
            (f, s) => panic!("fit {:?} vs composition {:?}", f.is_some(), s.is_some()),
        }
    }

    #[test]
    fn fit_is_bit_identical_to_the_public_composition() {
        let mut constant_col = line_data();
        for i in 0..constant_col.rows() {
            constant_col[(i, 0)] = 0.25;
        }
        let signed_zeros = Matrix::from_rows(4, 2, &[0.0, -0.0, -0.0, 1.0, 0.0, 0.0, -0.0, 2.0]);
        let cases = [
            line_data(),
            constant_col,
            signed_zeros,
            Matrix::from_rows(3, 3, &[1.0; 9]),
            Matrix::zeros(1, 3),
            Matrix::from_rows(2, 1, &[1.0, f64::NAN]),
        ];
        for standardize in [true, false] {
            let pca = Pca {
                standardize,
                variance_threshold: 0.85,
            };
            for data in &cases {
                assert_bit_identical(&pca, data);
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(64))]

        #[test]
        fn random_fits_are_bit_identical_to_the_public_composition(
            cols in 1usize..6,
            rows in 2usize..80,
            standardize in 0u8..2,
            seed in 0u64..u64::MAX,
        ) {
            // A cheap deterministic value stream with repeats, zeros and
            // wide magnitudes, so constant columns and cancellation occur.
            let mut x = seed | 1;
            let data: Vec<f64> = (0..rows * cols)
                .map(|_| {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    match x % 5 {
                        0 => 0.0,
                        1 => (x % 7) as f64 * 0.1,
                        _ => (x >> 11) as f64 / (1u64 << 53) as f64 * 10f64.powi((x % 6) as i32),
                    }
                })
                .collect();
            let pca = Pca {
                standardize: standardize == 1,
                variance_threshold: 0.85,
            };
            assert_bit_identical(&pca, &Matrix::from_rows(rows, cols, &data));
        }
    }

    #[test]
    fn three_resource_heartbeat_shape() {
        // Model what the monitor feeds in: CPU and memory pressure move
        // together, IO is independent. PC1 should merge cpu+mem.
        let mut rows = Vec::new();
        for i in 0..60 {
            let cpu = (i % 10) as f64 / 10.0;
            let mem = cpu * 0.9 + 0.05;
            // io is constant within each 10-sample block and cycles with a
            // 60-sample period, so it is exactly uncorrelated with the
            // period-10 cpu/mem pattern over these 60 samples.
            let io = ((i / 10) % 6) as f64 / 6.0;
            rows.push(vec![cpu, mem, io]);
        }
        let model = Pca::default().fit(&Matrix::from_nested(&rows)).unwrap();
        // cpu & mem load together on PC1.
        let l0 = model.loadings(0);
        assert!(l0[0].signum() == l0[1].signum());
        assert!(l0[0].abs() > 0.5 && l0[1].abs() > 0.5);
        assert!(l0[2].abs() < 0.3, "io should not load on PC1: {l0:?}");
    }
}
