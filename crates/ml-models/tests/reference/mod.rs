//! A naive reference CART and a tie-heavy design generator, shared by the
//! kernel parity tests and the kernels bench smoke.
//!
//! The reference re-sorts every node's samples per candidate feature — the
//! textbook O(d·n·log n) algorithm — but scores splits with exactly the
//! rules of [`autoai_ml_models::DecisionTreeRegressor`]: prefix sums in
//! sorted order with ties kept in row order, `sum²/n` SSE terms, the
//! `1e-12` tie and improvement tests, midpoint thresholds, leaf means over
//! the samples sorted by feature 0, and the same feature-subsampling RNG
//! stream. A correct presorted kernel therefore matches it bit for bit.

#![allow(dead_code)]

use autoai_linalg::{Matrix, Rng64};
use autoai_ml_models::DecisionTreeConfig;

enum RefNode {
    Leaf(f64),
    Split {
        feature: usize,
        threshold: f64,
        left: usize,
        right: usize,
    },
}

/// A CART tree grown by [`ReferenceTree::fit`].
pub struct ReferenceTree {
    nodes: Vec<RefNode>,
}

impl ReferenceTree {
    /// Grow a tree on the sample multiset `indices` (duplicates allowed).
    pub fn fit(x: &Matrix, y: &[f64], indices: &[usize], cfg: &DecisionTreeConfig) -> Self {
        let mut rows = indices.to_vec();
        rows.sort_unstable();
        let mut tree = Self { nodes: Vec::new() };
        let mut rng = Rng64::seed_from_u64(cfg.seed);
        tree.grow(x, y, rows, 0, cfg, &mut rng);
        tree
    }

    /// `rows` sorted ascending by feature `f`, ties in row order.
    fn sorted_by(x: &Matrix, rows: &[usize], f: usize) -> Vec<usize> {
        let mut ord = rows.to_vec();
        ord.sort_by(|&a, &b| x[(a, f)].total_cmp(&x[(b, f)]));
        ord
    }

    /// Grow the node holding `rows` (sorted by row index); returns its slot.
    fn grow(
        &mut self,
        x: &Matrix,
        y: &[f64],
        rows: Vec<usize>,
        depth: usize,
        cfg: &DecisionTreeConfig,
        rng: &mut Rng64,
    ) -> usize {
        let n = rows.len();
        let base = Self::sorted_by(x, &rows, 0);
        let mean = base.iter().map(|&i| y[i]).sum::<f64>() / n.max(1) as f64;
        let node_var: f64 = base.iter().map(|&i| (y[i] - mean) * (y[i] - mean)).sum();
        if depth >= cfg.max_depth
            || n < cfg.min_samples_split
            || n < 2 * cfg.min_samples_leaf
            || node_var < 1e-12
        {
            self.nodes.push(RefNode::Leaf(mean));
            return self.nodes.len() - 1;
        }

        let d = x.ncols();
        let mut features: Vec<usize> = (0..d).collect();
        if let Some(mf) = cfg.max_features {
            if mf < d {
                rng.shuffle(&mut features);
                features.truncate(mf.max(1));
            }
        }

        let mut best: Option<(usize, f64, f64)> = None;
        for &f in &features {
            let ord = Self::sorted_by(x, &rows, f);
            let vals: Vec<f64> = ord.iter().map(|&i| x[(i, f)]).collect();
            let ys: Vec<f64> = ord.iter().map(|&i| y[i]).collect();
            let total_sum: f64 = ys.iter().sum();
            let total_sq: f64 = ys.iter().map(|v| v * v).sum();
            let (mut sum_l, mut sq_l) = (0.0, 0.0);
            for k in 0..n - 1 {
                sum_l += ys[k];
                sq_l += ys[k] * ys[k];
                if vals[k + 1] - vals[k] < 1e-12 {
                    continue;
                }
                let (n_l, n_r) = (k + 1, n - k - 1);
                if n_l < cfg.min_samples_leaf || n_r < cfg.min_samples_leaf {
                    continue;
                }
                let sum_r = total_sum - sum_l;
                let score = (sq_l - sum_l * sum_l / n_l as f64)
                    + ((total_sq - sq_l) - sum_r * sum_r / n_r as f64);
                if best.is_none_or(|(_, _, s)| score < s - 1e-12) {
                    best = Some((f, (vals[k] + vals[k + 1]) / 2.0, score));
                }
            }
        }

        let Some((feature, threshold, score)) = best else {
            self.nodes.push(RefNode::Leaf(mean));
            return self.nodes.len() - 1;
        };
        let (left_rows, right_rows): (Vec<usize>, Vec<usize>) =
            rows.iter().partition(|&&i| x[(i, feature)] <= threshold);
        if score >= node_var - 1e-12 || left_rows.is_empty() || right_rows.is_empty() {
            self.nodes.push(RefNode::Leaf(mean));
            return self.nodes.len() - 1;
        }
        let slot = self.nodes.len();
        self.nodes.push(RefNode::Leaf(mean));
        let left = self.grow(x, y, left_rows, depth + 1, cfg, rng);
        let right = self.grow(x, y, right_rows, depth + 1, cfg, rng);
        self.nodes[slot] = RefNode::Split {
            feature,
            threshold,
            left,
            right,
        };
        slot
    }

    /// Node count, comparable with `DecisionTreeRegressor::n_nodes`.
    pub fn n_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Route one feature row to its leaf value.
    pub fn predict_row(&self, row: &[f64]) -> f64 {
        let mut cur = 0;
        loop {
            match self.nodes[cur] {
                RefNode::Leaf(v) => return v,
                RefNode::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    cur = if row[feature] <= threshold {
                        left
                    } else {
                        right
                    }
                }
            }
        }
    }
}

/// An `n × d` design with heavy ties: each column draws from a small grid
/// of values (with a random width per column), and every few columns is
/// continuous.
pub fn tied_design(rng: &mut Rng64, n: usize, d: usize) -> Matrix {
    let levels: Vec<usize> = (0..d).map(|_| rng.gen_range(2..12)).collect();
    Matrix::from_vec(
        n,
        d,
        (0..n * d)
            .map(|k| {
                let c = levels[k % d];
                if k % d == 2 {
                    rng.range_f64(-3.0, 3.0)
                } else {
                    rng.gen_range(0..c) as f64 * 0.5 - 1.0
                }
            })
            .collect(),
    )
}

/// Targets with structure in the first columns plus noise.
pub fn targets(rng: &mut Rng64, x: &Matrix) -> Vec<f64> {
    (0..x.nrows())
        .map(|r| {
            let row = x.row(r);
            let a = row.first().copied().unwrap_or(0.0);
            let b = row.get(1).copied().unwrap_or(0.0);
            3.0 * a - b * b + rng.range_f64(-0.5, 0.5)
        })
        .collect()
}

/// Bit pattern of `predict_row` over every row of `probe`.
pub fn prediction_bits(probe: &Matrix, predict: impl Fn(&[f64]) -> f64) -> Vec<u64> {
    (0..probe.nrows())
        .map(|r| predict(probe.row(r)).to_bits())
        .collect()
}
