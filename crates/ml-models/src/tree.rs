//! CART regression tree with variance-reduction splits.
//!
//! The building block of both the random forest and the gradient-boosted
//! ensemble. Splits minimize the weighted sum of child variances; candidate
//! thresholds come from per-feature *presorted* columns, and features can be
//! subsampled per split (`max_features`) for forest decorrelation.
//!
//! Split finding never sorts inside the tree: [`FeatureOrders`] argsorts
//! every feature column once per design matrix and keeps the column's values
//! in that sorted order next to the row indices. A fit expands both to its
//! (possibly bootstrapped) sample multiset, the split scan reads each
//! candidate feature's values as one contiguous slice, and each split keeps
//! every feature sorted by stably partitioning its indices and values
//! together into the two children in one pass — O(d·n) per node instead of
//! O(d·n·log n), with no gathers from the row-major matrix. Because the
//! same design matrix backs every tree of a forest and every round of a
//! booster, the argsort is paid once per ensemble fit, not once per node.
//!
//! These fits are small (a few milliseconds for a 100×5 window matrix) and
//! run many at a time: [`crate::MultiOutputRegressor`] fits one ensemble per
//! forecast-horizon output on the shared worker pool, and a forest fits its
//! trees there too.

use autoai_linalg::{Matrix, Rng64};

use crate::api::{MlError, Regressor};

/// Hyperparameters of a regression tree.
#[derive(Debug, Clone)]
pub struct DecisionTreeConfig {
    /// Maximum depth (root = depth 0).
    pub max_depth: usize,
    /// Minimum samples required to split a node.
    pub min_samples_split: usize,
    /// Minimum samples in each leaf.
    pub min_samples_leaf: usize,
    /// Features considered per split (`None` = all).
    pub max_features: Option<usize>,
    /// RNG seed for feature subsampling.
    pub seed: u64,
}

impl Default for DecisionTreeConfig {
    fn default() -> Self {
        Self {
            max_depth: 12,
            min_samples_split: 2,
            min_samples_leaf: 1,
            max_features: None,
            seed: 0,
        }
    }
}

#[derive(Debug, Clone)]
enum Node {
    Leaf {
        value: f64,
    },
    Split {
        feature: usize,
        threshold: f64,
        left: usize,
        right: usize,
    },
}

/// Feature-major presorted columns: feature `f` occupies
/// `[f·len, (f+1)·len)` of both arrays, its row indices ascending by value
/// and the matching values alongside.
#[derive(Clone)]
struct SortedColumns {
    idx: Vec<usize>,
    val: Vec<f64>,
    /// Entries per feature.
    len: usize,
    /// Number of features.
    features: usize,
}

impl SortedColumns {
    /// Positions of feature `f`'s node span `[lo, hi)` in both arrays.
    fn span(&self, f: usize, lo: usize, hi: usize) -> std::ops::Range<usize> {
        f * self.len + lo..f * self.len + hi
    }

    /// Row indices and values of feature `f` over the node span `[lo, hi)`.
    fn segment(&self, f: usize, lo: usize, hi: usize) -> (&[usize], &[f64]) {
        let span = self.span(f, lo, hi);
        (
            self.idx.get(span.clone()).unwrap_or_default(),
            self.val.get(span).unwrap_or_default(),
        )
    }
}

/// Per-feature argsort of a design matrix, with each column's values stored
/// in sorted order, shareable across every tree of a forest and every round
/// of a booster fitted on the same matrix.
///
/// Sorting is the dominant cost of naive CART split finding; computing the
/// order once here and letting each fit expand it to its bootstrap multiset
/// turns per-node split finding into a linear scan over contiguous values.
pub struct FeatureOrders {
    /// Row indices sorted ascending by each feature (`total_cmp`, so NaNs
    /// sort last and ties keep row order), with the values in that order.
    columns: SortedColumns,
}

impl FeatureOrders {
    /// Argsort every column of `x`.
    pub fn compute(x: &Matrix) -> Self {
        let (n, d) = (x.nrows(), x.ncols());
        let mut columns = SortedColumns {
            idx: Vec::with_capacity(n * d),
            val: Vec::with_capacity(n * d),
            len: n,
            features: d,
        };
        let mut col = Vec::with_capacity(n);
        let mut ord = Vec::with_capacity(n);
        for f in 0..d {
            col.clear();
            col.extend((0..n).map(|r| x[(r, f)]));
            ord.clear();
            ord.extend(0..n);
            ord.sort_by(|&a, &b| col[a].total_cmp(&col[b]));
            columns.val.extend(ord.iter().map(|&i| col[i]));
            columns.idx.extend_from_slice(&ord);
        }
        Self { columns }
    }

    /// The sorted columns of the sample multiset `counts` (row `i` drawn
    /// `counts[i]` times, `total` draws in all): a row drawn k times appears
    /// k times, in sorted position, in every feature.
    fn expand(&self, counts: &[usize], total: usize) -> SortedColumns {
        if total == self.columns.len && counts.iter().all(|&c| c == 1) {
            // no resampling (e.g. boosting without row subsampling): the
            // shared columns ARE this fit's columns
            return self.columns.clone();
        }
        let mut out = SortedColumns {
            idx: Vec::with_capacity(total * self.columns.features),
            val: Vec::with_capacity(total * self.columns.features),
            len: total,
            features: self.columns.features,
        };
        for (&i, &v) in self.columns.idx.iter().zip(&self.columns.val) {
            for _ in 0..counts[i] {
                out.idx.push(i);
                out.val.push(v);
            }
        }
        out
    }
}

/// Reusable per-fit buffers. One allocation set serves the whole tree.
struct Scratch {
    /// Candidate features of the node being split.
    features: Vec<usize>,
    /// Targets gathered in one feature's sorted order for the split scan.
    ys: Vec<f64>,
    /// `side[row] == true` ⇔ the row goes to the left child of the split
    /// currently being applied; filled once per split so partitioning the
    /// d features does d·n byte lookups.
    side: Vec<bool>,
    /// Partition staging for the right child's indices and values.
    right_idx: Vec<usize>,
    right_val: Vec<f64>,
}

/// A fitted CART regression tree.
#[derive(Debug, Clone)]
pub struct DecisionTreeRegressor {
    config: DecisionTreeConfig,
    nodes: Vec<Node>,
}

impl DecisionTreeRegressor {
    /// New tree with default hyperparameters.
    pub fn new() -> Self {
        Self::with_config(DecisionTreeConfig::default())
    }

    /// New tree with explicit hyperparameters.
    pub fn with_config(config: DecisionTreeConfig) -> Self {
        Self {
            config,
            nodes: Vec::new(),
        }
    }

    /// Fit on the samples selected by `indices` (bootstrap support).
    pub fn fit_indices(&mut self, x: &Matrix, y: &[f64], indices: &[usize]) -> Result<(), MlError> {
        let shared = FeatureOrders::compute(x);
        self.fit_indices_presorted(x, y, indices, &shared)
    }

    /// [`Self::fit_indices`] with the per-feature argsort of `x` supplied by
    /// the caller, so an ensemble pays for sorting once instead of per tree.
    /// Split values are read from `shared`, which must have been computed
    /// from this `x`.
    pub fn fit_indices_presorted(
        &mut self,
        x: &Matrix,
        y: &[f64],
        indices: &[usize],
        shared: &FeatureOrders,
    ) -> Result<(), MlError> {
        if indices.is_empty() {
            return Err(MlError::new("decision tree: no training samples"));
        }
        if x.nrows() != y.len() {
            return Err(MlError::new("decision tree: X/y row mismatch"));
        }
        if shared.columns.len != x.nrows() || shared.columns.features != x.ncols() {
            return Err(MlError::new(
                "decision tree: feature orders were computed for a different matrix",
            ));
        }
        let mut counts = vec![0usize; x.nrows()];
        for &i in indices {
            if i >= counts.len() {
                return Err(MlError::new("decision tree: sample index out of range"));
            }
            counts[i] += 1;
        }
        let mut columns = shared.expand(&counts, indices.len());
        self.nodes.clear();
        let mut rng = Rng64::seed_from_u64(self.config.seed);
        let mut scratch = Scratch {
            features: Vec::with_capacity(x.ncols()),
            ys: Vec::with_capacity(indices.len()),
            side: vec![false; x.nrows()],
            right_idx: Vec::with_capacity(indices.len()),
            right_val: Vec::with_capacity(indices.len()),
        };
        self.build(y, &mut columns, 0, indices.len(), 0, &mut rng, &mut scratch);
        Ok(())
    }

    /// Recursively grow the tree over the node occupying `[lo, hi)` of every
    /// feature's sorted column; returns the new node's index. Children are
    /// carved out by stable in-place partition, so the whole build allocates
    /// nothing beyond the shared scratch.
    #[allow(clippy::too_many_arguments)]
    fn build(
        &mut self,
        y: &[f64],
        columns: &mut SortedColumns,
        lo: usize,
        hi: usize,
        depth: usize,
        rng: &mut Rng64,
        scratch: &mut Scratch,
    ) -> usize {
        let n = hi - lo;
        let (base, _) = columns.segment(0, lo, hi);
        let mean = base.iter().map(|&i| y[i]).sum::<f64>() / (n.max(1)) as f64;
        let node_var: f64 = base.iter().map(|&i| (y[i] - mean) * (y[i] - mean)).sum();

        let make_leaf = |nodes: &mut Vec<Node>| {
            nodes.push(Node::Leaf { value: mean });
            nodes.len() - 1
        };

        if depth >= self.config.max_depth
            || n < self.config.min_samples_split
            || n < 2 * self.config.min_samples_leaf
            || node_var < 1e-12
        {
            return make_leaf(&mut self.nodes);
        }

        // choose candidate features
        let d = columns.features;
        let Scratch { features, ys, .. } = &mut *scratch;
        features.clear();
        features.extend(0..d);
        if let Some(mf) = self.config.max_features {
            if mf < d {
                rng.shuffle(features);
                features.truncate(mf.max(1));
            }
        }

        // best split: minimize sum of child SSEs via a prefix scan over each
        // feature's presorted values, with the targets gathered into
        // contiguous scratch so the scan runs branch-light over two slices
        let mut best: Option<(usize, f64, f64)> = None; // (feature, threshold, score)
        let min_leaf = self.config.min_samples_leaf;
        for &f in features.iter() {
            let (order, vals) = columns.segment(f, lo, hi);
            ys.clear();
            ys.extend(order.iter().map(|&i| y[i]));
            let total_sum: f64 = ys.iter().sum();
            let total_sq: f64 = ys.iter().map(|v| v * v).sum();
            let mut sum_l = 0.0;
            let mut sq_l = 0.0;
            for (k, (pair, &yi)) in vals.windows(2).zip(ys.iter()).enumerate() {
                sum_l += yi;
                sq_l += yi * yi;
                // no split between equal feature values
                let (v_cur, v_next) = (pair[0], pair[1]);
                if v_next - v_cur < 1e-12 {
                    continue;
                }
                if (k + 1) < min_leaf || (n - k - 1) < min_leaf {
                    continue;
                }
                let n_l = (k + 1) as f64;
                let n_r = (n - k - 1) as f64;
                let sse_l = sq_l - sum_l * sum_l / n_l;
                let sum_r = total_sum - sum_l;
                let sse_r = (total_sq - sq_l) - sum_r * sum_r / n_r;
                let score = sse_l + sse_r;
                if best.as_ref().is_none_or(|&(_, _, s)| score < s - 1e-12) {
                    best = Some((f, (v_cur + v_next) / 2.0, score));
                }
            }
        }

        let Some((feature, threshold, score)) = best else {
            return make_leaf(&mut self.nodes);
        };
        if score >= node_var - 1e-12 {
            // no variance reduction
            return make_leaf(&mut self.nodes);
        }

        // evaluate the split predicate once per sample, on the chosen
        // feature's contiguous values
        let Scratch {
            side,
            right_idx,
            right_val,
            ..
        } = scratch;
        let (order, vals) = columns.segment(feature, lo, hi);
        let mut mid = 0usize;
        for (&i, &v) in order.iter().zip(vals) {
            let left = v <= threshold;
            if let Some(s) = side.get_mut(i) {
                *s = left;
            }
            mid += left as usize;
        }
        if mid == 0 || mid == n {
            return make_leaf(&mut self.nodes);
        }
        // stable-partition every feature's indices and values together in
        // one pass: left samples compact in place, right ones go through
        // the staging buffers. Stability keeps each child's segments sorted,
        // so no re-sort is ever needed below.
        for f in 0..d {
            let span = columns.span(f, lo, hi);
            let (Some(idx), Some(val)) =
                (columns.idx.get_mut(span.clone()), columns.val.get_mut(span))
            else {
                continue;
            };
            right_idx.clear();
            right_val.clear();
            let mut w = 0usize;
            for k in 0..n {
                let (i, v) = (idx[k], val[k]);
                if side.get(i).copied().unwrap_or_default() {
                    idx[w] = i;
                    val[w] = v;
                    w += 1;
                } else {
                    right_idx.push(i);
                    right_val.push(v);
                }
            }
            idx[w..].copy_from_slice(right_idx);
            val[w..].copy_from_slice(right_val);
        }
        // reserve our slot before recursing
        let slot = self.nodes.len();
        self.nodes.push(Node::Leaf { value: mean });
        let left = self.build(y, columns, lo, lo + mid, depth + 1, rng, scratch);
        let right = self.build(y, columns, lo + mid, hi, depth + 1, rng, scratch);
        self.nodes[slot] = Node::Split {
            feature,
            threshold,
            left,
            right,
        };
        slot
    }

    /// Number of nodes in the fitted tree.
    pub fn n_nodes(&self) -> usize {
        self.nodes.len()
    }
}

impl Default for DecisionTreeRegressor {
    fn default() -> Self {
        Self::new()
    }
}

impl Regressor for DecisionTreeRegressor {
    fn fit(&mut self, x: &Matrix, y: &[f64]) -> Result<(), MlError> {
        let indices: Vec<usize> = (0..x.nrows()).collect();
        self.fit_indices(x, y, &indices)
    }

    fn predict_row(&self, row: &[f64]) -> f64 {
        assert!(!self.nodes.is_empty(), "DecisionTree::predict before fit");
        let mut cur = 0usize;
        loop {
            match &self.nodes[cur] {
                Node::Leaf { value } => return *value,
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    cur = if row[*feature] <= *threshold {
                        *left
                    } else {
                        *right
                    };
                }
            }
        }
    }

    fn name(&self) -> &'static str {
        "decision_tree"
    }

    fn clone_unfitted(&self) -> Box<dyn Regressor> {
        Box::new(Self::with_config(self.config.clone()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn step_data() -> (Matrix, Vec<f64>) {
        // y = 1 for x < 5, y = 10 for x >= 5
        let rows: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64]).collect();
        let y: Vec<f64> = (0..20).map(|i| if i < 5 { 1.0 } else { 10.0 }).collect();
        (Matrix::from_rows(&rows), y)
    }

    #[test]
    fn splits_step_function_exactly() {
        let (x, y) = step_data();
        let mut t = DecisionTreeRegressor::new();
        t.fit(&x, &y).unwrap();
        assert_eq!(t.predict_row(&[2.0]), 1.0);
        assert_eq!(t.predict_row(&[7.0]), 10.0);
        assert_eq!(t.predict_row(&[4.4]), 1.0);
        assert_eq!(t.predict_row(&[4.6]), 10.0);
    }

    #[test]
    fn depth_zero_gives_mean_leaf() {
        let (x, y) = step_data();
        let cfg = DecisionTreeConfig {
            max_depth: 0,
            ..Default::default()
        };
        let mut t = DecisionTreeRegressor::with_config(cfg);
        t.fit(&x, &y).unwrap();
        let mean = y.iter().sum::<f64>() / y.len() as f64;
        assert!((t.predict_row(&[0.0]) - mean).abs() < 1e-12);
        assert_eq!(t.n_nodes(), 1);
    }

    #[test]
    fn constant_target_single_leaf() {
        let x = Matrix::from_rows(&[vec![1.0], vec![2.0], vec![3.0]]);
        let mut t = DecisionTreeRegressor::new();
        t.fit(&x, &[5.0, 5.0, 5.0]).unwrap();
        assert_eq!(t.n_nodes(), 1);
        assert_eq!(t.predict_row(&[99.0]), 5.0);
    }

    #[test]
    fn min_samples_leaf_respected() {
        let (x, y) = step_data();
        let cfg = DecisionTreeConfig {
            min_samples_leaf: 8,
            ..Default::default()
        };
        let mut t = DecisionTreeRegressor::with_config(cfg);
        t.fit(&x, &y).unwrap();
        // the only pure split (at 5) would create a 5-sample leaf; with
        // min_samples_leaf=8 any split must keep >= 8 on each side
        // → tree can still split but both leaves have >= 8 samples.
        // verify indirectly: prediction at x=0 mixes some high values
        let p = t.predict_row(&[0.0]);
        assert!(
            p > 1.0,
            "leaf constrained to >= 8 samples must mix classes, got {p}"
        );
    }

    #[test]
    fn two_feature_selection() {
        // only feature 1 matters: y = 100 * x1
        let rows: Vec<Vec<f64>> = (0..30)
            .map(|i| vec![(i % 3) as f64, if i < 15 { 0.0 } else { 1.0 }])
            .collect();
        let y: Vec<f64> = rows.iter().map(|r| 100.0 * r[1]).collect();
        let x = Matrix::from_rows(&rows);
        let mut t = DecisionTreeRegressor::new();
        t.fit(&x, &y).unwrap();
        assert_eq!(t.predict_row(&[2.0, 0.0]), 0.0);
        assert_eq!(t.predict_row(&[0.0, 1.0]), 100.0);
    }

    #[test]
    fn nonlinear_function_approximation() {
        let rows: Vec<Vec<f64>> = (0..200).map(|i| vec![i as f64 / 20.0]).collect();
        let y: Vec<f64> = rows.iter().map(|r| (r[0]).sin()).collect();
        let x = Matrix::from_rows(&rows);
        let mut t = DecisionTreeRegressor::new();
        t.fit(&x, &y).unwrap();
        let mut max_err = 0.0f64;
        for (r, truth) in rows.iter().zip(&y) {
            max_err = max_err.max((t.predict_row(r) - truth).abs());
        }
        assert!(max_err < 0.05, "max in-sample error {max_err}");
    }

    #[test]
    fn empty_fit_rejected() {
        let x = Matrix::zeros(0, 1);
        let mut t = DecisionTreeRegressor::new();
        assert!(t.fit(&x, &[]).is_err());
    }
}
