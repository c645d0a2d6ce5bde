//! MSCN [25] — "Learned Cardinalities: Estimating Correlated Joins with Deep
//! Learning" — in the simplified form the paper uses (§4.1: "we use a
//! simplified version here by removing the ... bitmap inputs").
//!
//! The model is set-based: a shared per-table MLP embeds each table's
//! predicate block, the embeddings are average-pooled, a join MLP embeds the
//! join-condition indicator, and a head MLP regresses `ln(1+card)` from the
//! concatenation. For single-table CE the join module is disabled.
//!
//! ## Flat feature layout
//!
//! Warper requires a flat feature vector per query (`m` = "input size to M",
//! paper Table 3). [`MscnFeaturizer`] lays out:
//!
//! ```text
//! [ block_0 | block_1 | ... | block_{T-1} | join_onehot (J) ]
//! block_t = [ presence_flag | table_onehot (T) | padded predicate feats (F) ]
//! ```

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use warper_linalg::Matrix;
use warper_nn::{Activation, Adam, LrSchedule, Mlp, Optimizer};
use warper_query::{Featurizer, JoinQuery, RangePredicate};

use crate::{from_target, to_target, CardinalityEstimator, LabeledExample, UpdateKind};

/// Architecture and training hyperparameters for [`Mscn`].
#[derive(Debug, Clone, Copy, serde::Serialize, serde::Deserialize)]
pub struct MscnConfig {
    /// Number of tables in the schema.
    pub n_tables: usize,
    /// Padded per-table predicate feature width `F`.
    pub feat_width: usize,
    /// Number of join-indicator slots `J` (0 disables the join module).
    pub join_dim: usize,
    /// Hidden width of the set modules.
    pub hidden: usize,
    /// Epochs for initial fit.
    pub fit_epochs: usize,
    /// Epochs per fine-tuning update.
    pub update_epochs: usize,
    /// Mini-batch size (paper: 32).
    pub batch: usize,
    /// Learning-rate schedule (paper: 1e-3).
    pub lr: LrSchedule,
}

impl MscnConfig {
    /// Sensible defaults for a schema of `n_tables` tables with at most
    /// `feat_width` predicate features per table.
    pub fn new(n_tables: usize, feat_width: usize, join_dim: usize) -> Self {
        Self {
            n_tables,
            feat_width,
            join_dim,
            hidden: 32,
            fit_epochs: 40,
            update_epochs: 4,
            batch: 32,
            lr: LrSchedule::paper_default(),
        }
    }

    /// Width of one table block.
    pub fn block_width(&self) -> usize {
        1 + self.n_tables + self.feat_width
    }

    /// Total flat feature dimension.
    pub fn feature_dim(&self) -> usize {
        self.n_tables * self.block_width() + self.join_dim
    }
}

/// Reusable per-sub-network workspaces for [`Mscn`] training steps.
#[derive(Default)]
struct MscnScratch {
    pred: warper_nn::Workspace,
    join: warper_nn::Workspace,
    head: warper_nn::Workspace,
}

/// The MSCN model.
#[derive(Clone)]
pub struct Mscn {
    cfg: MscnConfig,
    pred_net: Mlp,
    join_net: Option<Mlp>,
    head: Mlp,
    opt_pred: Adam,
    opt_join: Adam,
    opt_head: Adam,
    rng: StdRng,
    seed: u64,
}

impl Mscn {
    /// Creates an untrained MSCN.
    pub fn new(cfg: MscnConfig, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let pred_net = Mlp::new(
            &[cfg.block_width(), cfg.hidden, cfg.hidden],
            Activation::Relu,
            Activation::Relu,
            &mut rng,
        );
        let join_net = (cfg.join_dim > 0).then(|| {
            Mlp::new(
                &[cfg.join_dim, cfg.hidden, cfg.hidden],
                Activation::Relu,
                Activation::Relu,
                &mut rng,
            )
        });
        let head_in = cfg.hidden + if cfg.join_dim > 0 { cfg.hidden } else { 0 };
        let head = Mlp::new(
            &[head_in, cfg.hidden * 2, 1],
            Activation::Relu,
            Activation::Identity,
            &mut rng,
        );
        Self {
            cfg,
            pred_net,
            join_net,
            head,
            opt_pred: Adam::new(),
            opt_join: Adam::new(),
            opt_head: Adam::new(),
            rng,
            seed,
        }
    }

    /// Decomposes into persisted parts.
    pub fn parts(&self) -> (MscnConfig, Mlp, Option<Mlp>, Mlp, u64) {
        (
            self.cfg,
            self.pred_net.clone(),
            self.join_net.clone(),
            self.head.clone(),
            self.seed,
        )
    }

    /// Rebuilds from persisted parts (fresh optimizer state).
    pub fn from_parts(
        cfg: MscnConfig,
        pred_net: Mlp,
        join_net: Option<Mlp>,
        head: Mlp,
        seed: u64,
    ) -> Self {
        Self {
            cfg,
            pred_net,
            join_net,
            head,
            opt_pred: Adam::new(),
            opt_join: Adam::new(),
            opt_head: Adam::new(),
            rng: StdRng::seed_from_u64(seed),
            seed,
        }
    }

    /// The model's configuration.
    pub fn config(&self) -> &MscnConfig {
        &self.cfg
    }

    /// Splits a batch of flat features into the stacked table blocks
    /// (`(B·T) × block_w`) and the join block (`B × J`).
    fn split(&self, x: &Matrix) -> (Matrix, Option<Matrix>) {
        let b = x.rows();
        let t = self.cfg.n_tables;
        let bw = self.cfg.block_width();
        let mut blocks = Matrix::zeros(b * t, bw);
        for r in 0..b {
            let row = x.row(r);
            for ti in 0..t {
                blocks
                    .row_mut(r * t + ti)
                    .copy_from_slice(&row[ti * bw..(ti + 1) * bw]);
            }
        }
        let join = (self.cfg.join_dim > 0).then(|| {
            let mut j = Matrix::zeros(b, self.cfg.join_dim);
            for r in 0..b {
                j.row_mut(r).copy_from_slice(&x.row(r)[t * bw..]);
            }
            j
        });
        (blocks, join)
    }

    /// Forward pass for a batch of flat feature rows.
    fn forward_batch(&self, x: &Matrix) -> Matrix {
        let (blocks, join) = self.split(x);
        let b = x.rows();
        let t = self.cfg.n_tables;
        let h = self.cfg.hidden;
        let units = self.pred_net.forward(&blocks); // (B·T) × H
        let mut pooled = Matrix::zeros(b, h);
        for r in 0..b {
            for ti in 0..t {
                let u = units.row(r * t + ti);
                let p = pooled.row_mut(r);
                for c in 0..h {
                    p[c] += u[c] / t as f64;
                }
            }
        }
        let head_in = match (&self.join_net, join) {
            (Some(jn), Some(jx)) => {
                let ju = jn.forward(&jx); // B × H
                let mut cat = Matrix::zeros(b, 2 * h);
                for r in 0..b {
                    cat.row_mut(r)[..h].copy_from_slice(pooled.row(r));
                    cat.row_mut(r)[h..].copy_from_slice(ju.row(r));
                }
                cat
            }
            _ => pooled,
        };
        self.head.forward(&head_in)
    }

    /// One training step on a mini-batch; returns the loss. Each sub-network
    /// keeps its layer intermediates and gradients in its own entry of
    /// `scratch`, so repeated steps reuse every buffer.
    fn train_step(&mut self, x: &Matrix, y: &Matrix, lr: f64, scratch: &mut MscnScratch) -> f64 {
        let (blocks, join) = self.split(x);
        let b = x.rows();
        let t = self.cfg.n_tables;
        let h = self.cfg.hidden;

        let mut pooled = Matrix::zeros(b, h);
        {
            let units = self.pred_net.forward_ws(&blocks, &mut scratch.pred);
            for r in 0..b {
                for ti in 0..t {
                    let u = units.row(r * t + ti);
                    let p = pooled.row_mut(r);
                    for c in 0..h {
                        p[c] += u[c] / t as f64;
                    }
                }
            }
        }
        let has_join = match (&self.join_net, &join) {
            (Some(jn), Some(jx)) => {
                jn.forward_ws(jx, &mut scratch.join);
                true
            }
            _ => false,
        };
        let head_in = if has_join {
            let ju = scratch.join.output();
            let mut cat = Matrix::zeros(b, 2 * h);
            for r in 0..b {
                cat.row_mut(r)[..h].copy_from_slice(pooled.row(r));
                cat.row_mut(r)[h..].copy_from_slice(ju.row(r));
            }
            cat
        } else {
            pooled
        };
        self.head.forward_ws(&head_in, &mut scratch.head);
        let loss = scratch.head.mse(y);
        self.head.backprop_ws(&mut scratch.head, true);

        // Split head-input gradient back into pooled and join parts.
        let dhead_in = scratch.head.input_grad();
        let mut dpooled = Matrix::zeros(b, h);
        if has_join {
            let dj = scratch.join.output_grad_mut();
            dj.ensure_shape(b, h);
            for r in 0..b {
                dpooled.row_mut(r).copy_from_slice(&dhead_in.row(r)[..h]);
                dj.row_mut(r).copy_from_slice(&dhead_in.row(r)[h..]);
            }
        } else {
            for r in 0..b {
                dpooled.row_mut(r).copy_from_slice(dhead_in.row(r));
            }
        }

        // Pooling backward: each table unit receives dpooled / T.
        let dunits = scratch.pred.output_grad_mut();
        dunits.ensure_shape(b * t, h);
        for r in 0..b {
            for ti in 0..t {
                let src = dpooled.row(r);
                let dst = dunits.row_mut(r * t + ti);
                for c in 0..h {
                    dst[c] = src[c] / t as f64;
                }
            }
        }
        self.pred_net.backprop_ws(&mut scratch.pred, false);

        self.opt_head.step(&mut self.head, &scratch.head.grads, lr);
        self.opt_pred
            .step(&mut self.pred_net, &scratch.pred.grads, lr);
        if has_join {
            if let Some(jn) = &mut self.join_net {
                jn.backprop_ws(&mut scratch.join, false);
                self.opt_join.step(jn, &scratch.join.grads, lr);
            }
        }
        loss
    }

    fn train(&mut self, examples: &[LabeledExample], epochs: usize) {
        if examples.is_empty() {
            return;
        }
        let x = Matrix::from_rows(
            &examples
                .iter()
                .map(|e| e.features.clone())
                .collect::<Vec<_>>(),
        );
        let y = Matrix::from_rows(
            &examples
                .iter()
                .map(|e| vec![to_target(e.card)])
                .collect::<Vec<_>>(),
        );
        let mut scratch = MscnScratch::default();
        let mut bx = Matrix::default();
        let mut by = Matrix::default();
        let mut idx: Vec<usize> = (0..examples.len()).collect();
        for epoch in 0..epochs {
            let lr = self.cfg.lr.lr(epoch);
            idx.shuffle(&mut self.rng);
            for chunk in idx.chunks(self.cfg.batch) {
                bx.gather_rows(&x, chunk);
                by.gather_rows(&y, chunk);
                self.train_step(&bx, &by, lr, &mut scratch);
            }
        }
    }
}

impl CardinalityEstimator for Mscn {
    crate::clone_snapshot_impl!();

    fn feature_dim(&self) -> usize {
        self.cfg.feature_dim()
    }

    fn estimate(&self, features: &[f64]) -> f64 {
        let x = Matrix::from_vec(1, features.len(), features.to_vec());
        from_target(self.forward_batch(&x).get(0, 0))
    }

    fn estimate_many(&self, queries: &[&[f64]]) -> Vec<f64> {
        if queries.is_empty() {
            return Vec::new();
        }
        let d = self.cfg.feature_dim();
        let mut data = Vec::with_capacity(queries.len() * d);
        for q in queries {
            data.extend_from_slice(q);
        }
        let x = Matrix::from_vec(queries.len(), d, data);
        let out = self.forward_batch(&x);
        (0..queries.len())
            .map(|i| from_target(out.get(i, 0)))
            .collect()
    }

    fn fit(&mut self, examples: &[LabeledExample]) {
        self.opt_pred.reset();
        self.opt_join.reset();
        self.opt_head.reset();
        self.train(examples, self.cfg.fit_epochs);
    }

    fn update(&mut self, examples: &[LabeledExample]) {
        self.train(examples, self.cfg.update_epochs);
    }

    fn update_kind(&self) -> UpdateKind {
        UpdateKind::FineTune
    }

    fn name(&self) -> &'static str {
        "MSCN"
    }
}

/// Maps predicates/joins over a fixed schema to MSCN's flat feature layout.
#[derive(Debug, Clone)]
pub struct MscnFeaturizer {
    featurizers: Vec<Featurizer>,
    join_dim: usize,
    feat_width: usize,
}

impl MscnFeaturizer {
    /// Builds over per-table [`Featurizer`]s; `join_dim` is the number of
    /// distinct join conditions in the schema (0 for single-table CE).
    pub fn new(featurizers: Vec<Featurizer>, join_dim: usize) -> Self {
        let feat_width = featurizers.iter().map(Featurizer::dim).max().unwrap_or(0);
        Self {
            featurizers,
            join_dim,
            feat_width,
        }
    }

    /// The matching model configuration.
    pub fn config(&self) -> MscnConfig {
        MscnConfig::new(self.featurizers.len(), self.feat_width, self.join_dim)
    }

    fn block(&self, out: &mut [f64], table: usize, pred: &RangePredicate) {
        let t = self.featurizers.len();
        let bw = 1 + t + self.feat_width;
        let base = table * bw;
        out[base] = 1.0; // presence flag
        out[base + 1 + table] = 1.0; // table one-hot
        let feats = self.featurizers[table].featurize(pred);
        out[base + 1 + t..base + 1 + t + feats.len()].copy_from_slice(&feats);
    }

    /// Featurizes a set of per-table predicates plus active join ids.
    ///
    /// # Panics
    /// Panics on out-of-range table or join ids.
    pub fn featurize(&self, preds: &[(usize, &RangePredicate)], joins: &[usize]) -> Vec<f64> {
        let t = self.featurizers.len();
        let bw = 1 + t + self.feat_width;
        let mut out = vec![0.0; t * bw + self.join_dim];
        for &(table, pred) in preds {
            assert!(table < t, "table id {table} out of range");
            self.block(&mut out, table, pred);
        }
        for &j in joins {
            assert!(j < self.join_dim, "join id {j} out of range");
            out[t * bw + j] = 1.0;
        }
        out
    }

    /// Featurizes a single-table query (table 0 by convention).
    pub fn featurize_single(&self, pred: &RangePredicate) -> Vec<f64> {
        self.featurize(&[(0, pred)], &[])
    }

    /// Featurizes a two-table [`JoinQuery`] where the left predicate is on
    /// `left_table` and the right on `right_table`, using join slot `join_id`.
    pub fn featurize_join(
        &self,
        q: &JoinQuery,
        left_table: usize,
        right_table: usize,
        join_id: usize,
    ) -> Vec<f64> {
        self.featurize(
            &[(left_table, &q.left_pred), (right_table, &q.right_pred)],
            &[join_id],
        )
    }

    /// Inverse mapping: recovers per-table predicates (unconstrained for
    /// absent tables) and the active join ids from a — possibly generated —
    /// flat feature vector. Presence flags and join slots are thresholded at
    /// 0.5.
    ///
    /// # Panics
    /// Panics if `feat.len()` differs from [`MscnConfig::feature_dim`].
    pub fn defeaturize(&self, feat: &[f64]) -> (Vec<Option<RangePredicate>>, Vec<usize>) {
        let t = self.featurizers.len();
        let bw = 1 + t + self.feat_width;
        assert_eq!(
            feat.len(),
            t * bw + self.join_dim,
            "feature length mismatch"
        );
        let mut preds = Vec::with_capacity(t);
        for table in 0..t {
            let base = table * bw;
            if feat[base] < 0.5 {
                preds.push(None);
                continue;
            }
            let f = &self.featurizers[table];
            let d = f.dim();
            preds.push(Some(f.defeaturize(&feat[base + 1 + t..base + 1 + t + d])));
        }
        let joins = (0..self.join_dim)
            .filter(|j| feat[t * bw + j] > 0.5)
            .collect();
        (preds, joins)
    }

    /// Canonicalizes a raw (generated/perturbed) feature vector: each
    /// present table block is re-sparsified to its `max_cols` most selective
    /// columns and re-encoded; flags snap to exact 0/1.
    pub fn canonicalize(&self, feat: &[f64], max_cols: usize) -> Vec<f64> {
        let (preds, joins) = self.defeaturize(feat);
        let present: Vec<(usize, RangePredicate)> = preds
            .into_iter()
            .enumerate()
            .filter_map(|(t, p)| {
                p.map(|p| {
                    (
                        t,
                        p.keep_most_selective(self.featurizers[t].domains(), max_cols),
                    )
                })
            })
            .collect();
        let refs: Vec<(usize, &RangePredicate)> = present.iter().map(|(t, p)| (*t, p)).collect();
        self.featurize(&refs, &joins)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;
    use warper_query::{join_count, Annotator};
    use warper_storage::tpch::{generate_tpch, TpchScale};

    #[test]
    fn feature_layout_dimensions() {
        let cfg = MscnConfig::new(2, 12, 1);
        assert_eq!(cfg.block_width(), 15);
        assert_eq!(cfg.feature_dim(), 31);
        let m = Mscn::new(cfg, 1);
        assert_eq!(m.feature_dim(), 31);
        assert_eq!(m.name(), "MSCN");
        assert_eq!(m.update_kind(), UpdateKind::FineTune);
    }

    #[test]
    fn featurizer_blocks_and_flags() {
        let f = MscnFeaturizer::new(
            vec![
                Featurizer::from_domains(vec![(0.0, 1.0), (0.0, 1.0)]),
                Featurizer::from_domains(vec![(0.0, 1.0)]),
            ],
            2,
        );
        let cfg = f.config();
        assert_eq!(cfg.n_tables, 2);
        assert_eq!(cfg.feat_width, 4); // max(2·2, 2·1)
        let p = RangePredicate::new(vec![0.2], vec![0.8]);
        let v = f.featurize(&[(1, &p)], &[1]);
        assert_eq!(v.len(), cfg.feature_dim());
        let bw = cfg.block_width();
        // Table 0 block is all zeros (absent).
        assert!(v[..bw].iter().all(|&x| x == 0.0));
        // Table 1 block: presence + one-hot slot 1 set.
        assert_eq!(v[bw], 1.0);
        assert_eq!(v[bw + 2], 1.0);
        // Join slot 1 set.
        assert_eq!(v[2 * bw + 1], 1.0);
    }

    #[test]
    fn featurize_defeaturize_roundtrip() {
        let f = MscnFeaturizer::new(
            vec![
                Featurizer::from_domains(vec![(0.0, 10.0), (5.0, 25.0)]),
                Featurizer::from_domains(vec![(0.0, 100.0)]),
            ],
            2,
        );
        let p0 = RangePredicate::new(vec![2.0, 10.0], vec![8.0, 20.0]);
        let p1 = RangePredicate::new(vec![30.0], vec![70.0]);
        let v = f.featurize(&[(0, &p0), (1, &p1)], &[1]);
        let (preds, joins) = f.defeaturize(&v);
        assert_eq!(preds[0].as_ref().unwrap(), &p0);
        assert_eq!(preds[1].as_ref().unwrap(), &p1);
        assert_eq!(joins, vec![1]);
        // Absent table decodes to None.
        let v2 = f.featurize(&[(1, &p1)], &[]);
        let (preds2, joins2) = f.defeaturize(&v2);
        assert!(preds2[0].is_none());
        assert!(joins2.is_empty());
    }

    #[test]
    fn canonicalize_restores_valid_layout() {
        let f = MscnFeaturizer::new(
            vec![Featurizer::from_domains(vec![
                (0.0, 1.0),
                (0.0, 1.0),
                (0.0, 1.0),
            ])],
            1,
        );
        let p = RangePredicate::new(vec![0.2, 0.0, 0.4], vec![0.4, 1.0, 0.6]);
        let mut v = f.featurize(&[(0, &p)], &[0]);
        // Corrupt with soft values everywhere.
        for x in v.iter_mut() {
            *x = (*x + 0.3).min(0.9);
        }
        let canon = f.canonicalize(&v, 1);
        let (preds, joins) = f.defeaturize(&canon);
        let sparse = preds[0].as_ref().unwrap();
        // Exactly ≤1 constrained column remains; flags are exact.
        let constrained = sparse.constrained_columns(&[(0.0, 1.0); 3]);
        assert!(constrained.len() <= 1);
        assert_eq!(joins, vec![0]);
        assert_eq!(canon[0], 1.0); // presence flag snapped
    }

    #[test]
    fn single_table_mscn_learns() {
        // Train on simple 1-column range predicates over TPC-H lineitem.
        let t = generate_tpch(TpchScale { orders: 3_000 }, 2);
        let feat = Featurizer::from_table(&t.lineitem);
        let mf = MscnFeaturizer::new(vec![feat.clone()], 0);
        let a = Annotator::new();
        let mut rng = StdRng::seed_from_u64(3);
        let domains = feat.domains().to_vec();
        let make = |rng: &mut StdRng| {
            let c = rng.random_range(1..domains.len()); // skip the key column
            let (lo, hi) = domains[c];
            let x1 = rng.random_range(lo..=hi);
            let x2 = rng.random_range(lo..=hi);
            let p = RangePredicate::unconstrained(&domains).with_range(c, x1.min(x2), x1.max(x2));
            let card = a.count(&t.lineitem, &p) as f64;
            LabeledExample::new(mf.featurize_single(&p), card)
        };
        let train: Vec<_> = (0..600).map(|_| make(&mut rng)).collect();
        let test: Vec<_> = (0..80).map(|_| make(&mut rng)).collect();
        let mut m = Mscn::new(mf.config(), 11);
        m.fit(&train);
        let gmq = {
            let logs: f64 = test
                .iter()
                .map(|e| {
                    let g = m.estimate(&e.features).max(10.0);
                    let t = e.card.max(10.0);
                    (g / t).max(t / g).ln()
                })
                .sum();
            (logs / test.len() as f64).exp()
        };
        assert!(gmq < 4.0, "single-table MSCN GMQ {gmq}");
    }

    #[test]
    fn join_mscn_runs_end_to_end() {
        let t = generate_tpch(TpchScale { orders: 1_500 }, 4);
        let lf = Featurizer::from_table(&t.lineitem);
        let of = Featurizer::from_table(&t.orders);
        let mf = MscnFeaturizer::new(vec![lf.clone(), of.clone()], 1);
        let mut rng = StdRng::seed_from_u64(5);
        let ldom = lf.domains().to_vec();
        let odom = of.domains().to_vec();
        let make = |rng: &mut StdRng| {
            let (lo, hi) = ldom[1];
            let x1 = rng.random_range(lo..=hi);
            let x2 = rng.random_range(lo..=hi);
            let q = JoinQuery {
                left_pred: RangePredicate::unconstrained(&ldom).with_range(
                    1,
                    x1.min(x2),
                    x1.max(x2),
                ),
                right_pred: RangePredicate::unconstrained(&odom),
                left_key: 0,
                right_key: 0,
            };
            let card = join_count(&t.lineitem, &t.orders, &q) as f64;
            LabeledExample::new(mf.featurize_join(&q, 0, 1, 0), card)
        };
        let train: Vec<_> = (0..300).map(|_| make(&mut rng)).collect();
        let test: Vec<_> = (0..40).map(|_| make(&mut rng)).collect();
        let mut m = Mscn::new(mf.config(), 21);
        m.fit(&train);
        // Sanity: estimates finite and within a broad band of truth.
        for e in &test {
            let est = m.estimate(&e.features);
            assert!(est.is_finite() && est >= 0.0);
        }
    }

    #[test]
    fn gradient_check_tiny_mscn() {
        // Finite-difference check through pooling + head (no join module).
        let cfg = MscnConfig {
            fit_epochs: 1,
            ..MscnConfig::new(2, 3, 0)
        };
        let mut m = Mscn::new(cfg, 7);
        let dim = cfg.feature_dim();
        let x = Matrix::from_rows(&[(0..dim).map(|i| 0.1 * i as f64).collect::<Vec<_>>()]);
        let y = Matrix::from_rows(&[vec![2.0]]);
        // Capture loss before/after a step with tiny lr: loss must go down.
        let before = {
            let out = m.forward_batch(&x);
            warper_nn::loss::mse(&out, &y).0
        };
        let mut scratch = MscnScratch::default();
        for _ in 0..50 {
            m.train_step(&x, &y, 0.01, &mut scratch);
        }
        let after = {
            let out = m.forward_batch(&x);
            warper_nn::loss::mse(&out, &y).0
        };
        assert!(after < before * 0.5, "before {before} after {after}");
    }
}
