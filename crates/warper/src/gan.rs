//! The generator `G`, discriminator `D`, and the two training tasks of
//! paper §3.3.
//!
//! * `update_AutoEncoder` (drifts c1/c3, and offline pre-training §3.5):
//!   `q, gt → E → z → G → q̂`, minimizing the L1 reconstruction loss
//!   `L_AE = |q − q̂|` (Eq. 1) over *all* pool records.
//! * `update_MultiTask` (drift c2): the three-class GAN. The discriminator
//!   minimizes `CE(l, D(E(q)))` over pool records; the generator minimizes
//!   `CE(D(E(G(z+ε))), new)` — it wants its synthetic predicates classified
//!   as belonging to the *new* workload. Three classes {gen, new, train}
//!   instead of the classic two because `train` "can be sufficiently
//!   different from new" (§3.3).

use rand::rngs::StdRng;
use rand::Rng;
use warper_linalg::sampling::standard_normal;
use warper_linalg::Matrix;
use warper_nn::guard::{check_grads, DivergenceError, LossTracker};
use warper_nn::loss::softmax;
use warper_nn::{Activation, Adam, Mlp, Optimizer, Workspace};

use crate::config::WarperConfig;
use crate::encoder::Encoder;
use crate::pool::{QueryPool, Source};

/// The GAN pair (G, D) plus their optimizers; the encoder's optimizer also
/// lives here because both tasks train `E` jointly.
#[derive(Clone)]
pub struct Gan {
    generator: Mlp,
    discriminator: Mlp,
    opt_g: Adam,
    opt_d: Adam,
    opt_e: Adam,
}

/// Weight of the adversarial generator loss relative to the reconstruction
/// anchor in `update_MultiTask`.
const ADV_WEIGHT: f64 = 0.3;

/// Discriminator loss below which the D side of the game counts as "won".
const COLLAPSE_D_LOSS: f64 = 0.02;

/// Generator loss above which the G side counts as starved. `−ln(p)` at
/// `p(new) = e⁻⁶ ≈ 0.25%` — far past any useful training signal.
const COLLAPSE_G_LOSS: f64 = 6.0;

/// Consecutive collapsed iterations before `update_multi_task` gives up.
const COLLAPSE_PATIENCE: usize = 3;

/// Loss summary of one `update_*` call.
#[derive(Debug, Clone, Copy, Default)]
pub struct TrainStats {
    /// Final reconstruction loss (auto-encoder task).
    pub ae_loss: f64,
    /// Final generator loss (GAN task).
    pub gen_loss: f64,
    /// Final discriminator loss (GAN task).
    pub discr_loss: f64,
    /// Iterations actually run (early stop may cut `n_i` short).
    pub iterations: usize,
}

impl Gan {
    /// Builds G (`|z| → 128 → 128 → 128 → m`, Leaky ReLU) and D
    /// (a single `|z| → 3` layer), per Table 3.
    pub fn new(feature_dim: usize, cfg: &WarperConfig, rng: &mut StdRng) -> Self {
        let generator = Mlp::new(
            &[
                cfg.embed_dim,
                cfg.hidden,
                cfg.hidden,
                cfg.hidden,
                feature_dim,
            ],
            Activation::LeakyRelu(0.01),
            Activation::Identity,
            rng,
        );
        let discriminator = Mlp::new(
            &[cfg.embed_dim, 3],
            Activation::Identity,
            Activation::Identity,
            rng,
        );
        Self {
            generator,
            discriminator,
            opt_g: Adam::new(),
            opt_d: Adam::new(),
            opt_e: Adam::new(),
        }
    }

    /// The generator network.
    pub fn generator(&self) -> &Mlp {
        &self.generator
    }

    /// The discriminator network.
    pub fn discriminator(&self) -> &Mlp {
        &self.discriminator
    }

    /// Decomposes into persisted parts (optimizer state is transient).
    pub fn parts(&self) -> (Mlp, Mlp) {
        (self.generator.clone(), self.discriminator.clone())
    }

    /// Rebuilds from persisted parts with fresh optimizer state.
    pub fn from_parts(generator: Mlp, discriminator: Mlp) -> Self {
        Self {
            generator,
            discriminator,
            opt_g: Adam::new(),
            opt_d: Adam::new(),
            opt_e: Adam::new(),
        }
    }

    /// Generates `n` synthetic feature vectors from `z + ε`, where the base
    /// `z` are sampled from `base_zs` (embeddings of previously seen
    /// predicates — in c2, the new workload's) and `ε ~ N(0, σ²)` with σ the
    /// per-dimension std of those embeddings (§3.2). Outputs are clamped to
    /// the [0, 1] feature box.
    pub fn generate(
        &self,
        base_zs: &[Vec<f64>],
        sigma: &[f64],
        n: usize,
        rng: &mut StdRng,
    ) -> Vec<Vec<f64>> {
        if base_zs.is_empty() || n == 0 {
            return Vec::new();
        }
        let inputs: Vec<Vec<f64>> = (0..n)
            .map(|_| {
                let base = &base_zs[rng.random_range(0..base_zs.len())];
                base.iter()
                    .zip(sigma)
                    .map(|(z, s)| z + s * standard_normal(rng))
                    .collect()
            })
            .collect();
        let out = self.generator.forward(&Matrix::from_rows(&inputs));
        (0..out.rows())
            .map(|r| out.row(r).iter().map(|v| v.clamp(0.0, 1.0)).collect())
            .collect()
    }

    /// Scores every pool record with the discriminator: fills `l'` (argmax
    /// class) and `s'` (probability of the `new` class). Assumes `z` is
    /// fresh (call [`Encoder::refresh_pool`] first).
    pub fn score_pool(&self, pool: &mut QueryPool) {
        // Records without a fresh embedding are left unscored rather than
        // panicking the control loop; refresh_pool normally prevents this.
        let with_z: Vec<(usize, Vec<f64>)> = pool
            .records()
            .iter()
            .enumerate()
            .filter_map(|(i, r)| r.z.clone().map(|z| (i, z)))
            .collect();
        if with_z.is_empty() {
            return;
        }
        let zs: Vec<Vec<f64>> = with_z.iter().map(|(_, z)| z.clone()).collect();
        let logits = self.discriminator.forward(&Matrix::from_rows(&zs));
        let probs = softmax(&logits);
        for (row_i, &(rec_i, _)) in with_z.iter().enumerate() {
            let row = probs.row(row_i);
            let argmax = row
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
                .map(|(i, _)| i)
                .unwrap_or(Source::Gen.class_index());
            let rec = &mut pool.records_mut()[rec_i];
            rec.predicted = Some(Source::from_class_index(argmax));
            rec.score = Some(row[Source::New.class_index()]);
            rec.entropy = Some(row.iter().filter(|&&p| p > 0.0).map(|&p| -p * p.ln()).sum());
        }
    }

    /// `update_AutoEncoder` (§3.3): trains `E` and `G` as an auto-encoder
    /// for `epochs` passes over the pool. Returns the final loss.
    ///
    /// Divergence (non-finite loss/gradient, loss explosion) aborts with a
    /// typed error *before* the offending optimizer step, so the batch that
    /// diverged never touches the weights. Earlier batches of the same call
    /// may already have stepped — callers that need all-or-nothing semantics
    /// snapshot `E`/`G` first (the controller does).
    pub fn update_auto_encoder(
        &mut self,
        encoder: &mut Encoder,
        pool: &QueryPool,
        cfg: &WarperConfig,
        epochs: usize,
        rng: &mut StdRng,
    ) -> Result<TrainStats, DivergenceError> {
        let n = pool.len();
        if n == 0 {
            return Ok(TrainStats::default());
        }
        let mut stats = TrainStats::default();
        let mut tracker = LossTracker::new("auto-encoder");
        // Stage all encoder inputs and reconstruction targets once; batches
        // are row gathers, and both networks keep their intermediates in
        // workspaces reused across every batch and epoch.
        let inputs: Vec<Vec<f64>> = pool
            .records()
            .iter()
            .map(|r| {
                let gt = if r.gt_stale { None } else { r.gt };
                encoder.input_row(&r.features, gt)
            })
            .collect();
        let targets: Vec<Vec<f64>> = pool.records().iter().map(|r| r.features.clone()).collect();
        let all_x = Matrix::from_rows(&inputs);
        let all_t = Matrix::from_rows(&targets);
        let mut ws_e = Workspace::new();
        let mut ws_g = Workspace::new();
        let mut x = Matrix::default();
        let mut t = Matrix::default();
        let mut idx: Vec<usize> = (0..n).collect();
        for _epoch in 0..epochs {
            // Fisher–Yates shuffle.
            for i in (1..idx.len()).rev() {
                idx.swap(i, rng.random_range(0..=i));
            }
            for chunk in idx.chunks(cfg.batch) {
                x.gather_rows(&all_x, chunk);
                t.gather_rows(&all_t, chunk);

                let z = encoder.net().forward_ws(&x, &mut ws_e);
                self.generator.forward_ws(z, &mut ws_g);
                let loss = ws_g.l1(&t);
                tracker.observe(stats.iterations, loss)?;
                self.generator.backprop_ws(&mut ws_g, true);
                ws_e.output_grad_mut().copy_from(ws_g.input_grad());
                encoder.net().backprop_ws(&mut ws_e, false);
                check_grads("auto-encoder", stats.iterations, &ws_g.grads)?;
                check_grads("auto-encoder", stats.iterations, &ws_e.grads)?;
                self.opt_g.step(&mut self.generator, &ws_g.grads, cfg.lr);
                self.opt_e.step(encoder.net_mut(), &ws_e.grads, cfg.lr);
                stats.ae_loss = loss;
                stats.iterations += 1;
            }
        }
        Ok(stats)
    }

    /// `update_MultiTask` (§3.3): one GAN phase of up to `cfg.n_i`
    /// iterations with early stop on loss convergence (§3.5). Each iteration
    /// runs a discriminator step over a mixed pool batch and a generator
    /// step through frozen `E`/`D`.
    /// Divergence and adversarial collapse abort with a typed error before
    /// the offending optimizer step (same contract as
    /// [`Gan::update_auto_encoder`]).
    pub fn update_multi_task(
        &mut self,
        encoder: &mut Encoder,
        pool: &QueryPool,
        cfg: &WarperConfig,
        rng: &mut StdRng,
    ) -> Result<TrainStats, DivergenceError> {
        let n = pool.len();
        let mut stats = TrainStats::default();
        if n == 0 {
            return Ok(stats);
        }
        // Base embeddings of the new workload for the generator's input.
        let new_rows: Vec<(Vec<f64>, Option<f64>)> = pool
            .records()
            .iter()
            .filter(|r| r.source == Source::New)
            .map(|r| (r.features.clone(), if r.gt_stale { None } else { r.gt }))
            .collect();
        if new_rows.is_empty() {
            return Ok(stats);
        }

        // One workspace per network, shared by every stage of every
        // iteration; a stage's gradients are consumed (stepped or discarded)
        // before the next stage reuses the buffers.
        let mut ws_e = Workspace::new();
        let mut ws_g = Workspace::new();
        let mut ws_d = Workspace::new();
        let mut prev_loss = f64::INFINITY;
        let mut flat_iters = 0;
        let mut ae_tracker = LossTracker::new("gan/auto-encoder");
        let mut d_tracker = LossTracker::new("gan/discriminator");
        let mut g_tracker = LossTracker::new("gan/generator");
        let mut collapse_iters = 0;
        for iter in 0..cfg.n_i {
            // Recompute new-workload embeddings with the current encoder.
            let new_z = encoder.embed_batch(&new_rows);
            let base_zs: Vec<Vec<f64>> = (0..new_z.rows()).map(|r| new_z.row(r).to_vec()).collect();
            let sigma = Encoder::embedding_std(&base_zs);

            // --- Discriminator step over a mixed batch (real + generated).
            let half = cfg.batch / 2;
            let real_idx: Vec<usize> = (0..half).map(|_| rng.random_range(0..n)).collect();
            let mut inputs: Vec<Vec<f64>> = Vec::with_capacity(cfg.batch);
            let mut labels: Vec<usize> = Vec::with_capacity(cfg.batch);
            let mut real_feats: Vec<Vec<f64>> = Vec::with_capacity(half);
            for &i in &real_idx {
                let r = &pool.records()[i];
                let gt = if r.gt_stale { None } else { r.gt };
                inputs.push(encoder.input_row(&r.features, gt));
                labels.push(r.source.class_index());
                real_feats.push(r.features.clone());
            }

            // --- Task-1 anchor: one auto-encoder step on the real half.
            // "Multi-task" (§3.3): without the reconstruction objective the
            // generator's only signal is the class logits, whose degenerate
            // optima are not valid predicates; the AE task keeps G a decoder
            // of the embedding space.
            {
                let x_real = Matrix::from_rows(&inputs[..real_feats.len()]);
                let t_real = Matrix::from_rows(&real_feats);
                let z_r = encoder.net().forward_ws(&x_real, &mut ws_e);
                self.generator.forward_ws(z_r, &mut ws_g);
                let ae_loss = ws_g.l1(&t_real);
                ae_tracker.observe(iter, ae_loss)?;
                self.generator.backprop_ws(&mut ws_g, true);
                ws_e.output_grad_mut().copy_from(ws_g.input_grad());
                encoder.net().backprop_ws(&mut ws_e, false);
                check_grads("gan/auto-encoder", iter, &ws_g.grads)?;
                check_grads("gan/auto-encoder", iter, &ws_e.grads)?;
                self.opt_g.step(&mut self.generator, &ws_g.grads, cfg.lr);
                self.opt_e.step(encoder.net_mut(), &ws_e.grads, cfg.lr);
                stats.ae_loss = ae_loss;
            }
            for q in self.generate(&base_zs, &sigma, cfg.batch - half, rng) {
                inputs.push(encoder.input_row(&q, None));
                labels.push(Source::Gen.class_index());
            }
            // The encoder is frozen here: it is trained only by the
            // reconstruction task above, so the embedding space that G
            // decodes from stays stable while D learns to separate sources
            // within it. D is a single linear layer (Table 3), so it takes a
            // larger learning rate and a couple of steps per iteration to
            // keep pace with the drifting embeddings.
            let x = Matrix::from_rows(&inputs);
            let mut d_loss = 0.0;
            {
                let z = encoder.net().forward_ws(&x, &mut ws_e);
                for _ in 0..2 {
                    self.discriminator.forward_ws(z, &mut ws_d);
                    let loss = ws_d.softmax_cross_entropy(&labels);
                    d_tracker.observe(iter, loss)?;
                    self.discriminator.backprop_ws(&mut ws_d, false);
                    check_grads("gan/discriminator", iter, &ws_d.grads)?;
                    self.opt_d
                        .step(&mut self.discriminator, &ws_d.grads, 5.0 * cfg.lr);
                    d_loss = loss;
                }
            }

            // --- Generator step: z+ε → G → q_gen → E → z' → D → 'new'.
            let gen_inputs: Vec<Vec<f64>> = (0..cfg.batch)
                .map(|_| {
                    let base = &base_zs[rng.random_range(0..base_zs.len())];
                    base.iter()
                        .zip(&sigma)
                        .map(|(zv, s)| zv + s * standard_normal(rng))
                        .collect()
                })
                .collect();
            let zin = Matrix::from_rows(&gen_inputs);
            // Route through E with the label slots zeroed (generated queries
            // have no gt). Build E inputs by appending two zero columns.
            let (grows, gcols, e_in) = {
                let qgen = self.generator.forward_ws(&zin, &mut ws_g);
                let mut e_in = Matrix::zeros(qgen.rows(), qgen.cols() + 2);
                for r in 0..qgen.rows() {
                    e_in.row_mut(r)[..qgen.cols()].copy_from_slice(qgen.row(r));
                }
                (qgen.rows(), qgen.cols(), e_in)
            };
            let z2 = encoder.net().forward_ws(&e_in, &mut ws_e);
            self.discriminator.forward_ws(z2, &mut ws_d);
            let g_loss = ws_d.softmax_cross_entropy(&vec![Source::New.class_index(); grows]);
            // The adversarial gradient is down-weighted relative to the
            // reconstruction task so it steers G without erasing its decoder
            // behaviour (a collapsed G defeats the purpose of generation).
            g_tracker.observe(iter, g_loss)?;
            ws_d.output_grad_mut().scale_inplace(ADV_WEIGHT);
            // Freeze D and E: run their backward passes only for the input
            // gradients; the parameter gradients in their workspaces are
            // simply never stepped.
            self.discriminator.backprop_ws(&mut ws_d, true);
            ws_e.output_grad_mut().copy_from(ws_d.input_grad());
            encoder.net().backprop_ws(&mut ws_e, true);
            // Drop the two label columns to get ∂L/∂q_gen.
            let dqgen = ws_g.output_grad_mut();
            dqgen.ensure_shape(grows, gcols);
            for r in 0..grows {
                dqgen
                    .row_mut(r)
                    .copy_from_slice(&ws_e.input_grad().row(r)[..gcols]);
            }
            self.generator.backprop_ws(&mut ws_g, false);
            check_grads("gan/generator", iter, &ws_g.grads)?;
            self.opt_g.step(&mut self.generator, &ws_g.grads, cfg.lr);

            stats.discr_loss = d_loss;
            stats.gen_loss = g_loss;
            stats.iterations = iter + 1;

            // Adversarial collapse: a discriminator that wins decisively for
            // several consecutive iterations starves the generator of
            // gradient — further iterations only burn budget (or worse).
            if d_loss < COLLAPSE_D_LOSS && g_loss > COLLAPSE_G_LOSS {
                collapse_iters += 1;
                if collapse_iters >= COLLAPSE_PATIENCE {
                    return Err(DivergenceError::Collapse {
                        task: "gan",
                        iteration: iter,
                        d_loss,
                        g_loss,
                    });
                }
            } else {
                collapse_iters = 0;
            }

            // Early stop when the combined loss flattens (§3.5).
            let total = d_loss + g_loss;
            if (prev_loss - total).abs() < 1e-3 * prev_loss.abs().max(1e-9) {
                flat_iters += 1;
                if flat_iters >= 3 {
                    break;
                }
            } else {
                flat_iters = 0;
            }
            prev_loss = total;
        }
        Ok(stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn small_cfg() -> WarperConfig {
        WarperConfig {
            embed_dim: 6,
            hidden: 24,
            n_i: 25,
            batch: 16,
            ..Default::default()
        }
    }

    fn pool_with_two_clusters(n: usize) -> QueryPool {
        // Train near 0.2, new near 0.8 in a 4-d feature space.
        let train: Vec<(Vec<f64>, f64)> = (0..n)
            .map(|i| (vec![0.2 + 0.001 * (i % 7) as f64; 4], 100.0))
            .collect();
        let mut pool = QueryPool::from_training_set(&train);
        let arrived: Vec<(Vec<f64>, Option<f64>)> = (0..n)
            .map(|i| (vec![0.8 + 0.001 * (i % 5) as f64; 4], Some(50.0)))
            .collect();
        pool.append_new(&arrived);
        pool
    }

    #[test]
    fn auto_encoder_reduces_reconstruction_loss() {
        let cfg = small_cfg();
        let mut rng = StdRng::seed_from_u64(3);
        let mut enc = Encoder::new(4, cfg.hidden, cfg.embed_dim, &mut rng);
        let mut gan = Gan::new(4, &cfg, &mut rng);
        let pool = pool_with_two_clusters(40);
        let first = gan
            .update_auto_encoder(&mut enc, &pool, &cfg, 1, &mut rng)
            .unwrap();
        let last = gan
            .update_auto_encoder(&mut enc, &pool, &cfg, 30, &mut rng)
            .unwrap();
        assert!(
            last.ae_loss < first.ae_loss,
            "{} !< {}",
            last.ae_loss,
            first.ae_loss
        );
        assert!(last.ae_loss < 0.1, "ae loss {}", last.ae_loss);
    }

    #[test]
    fn generated_queries_resemble_new_workload() {
        let cfg = small_cfg();
        let mut rng = StdRng::seed_from_u64(7);
        let mut enc = Encoder::new(4, cfg.hidden, cfg.embed_dim, &mut rng);
        let mut gan = Gan::new(4, &cfg, &mut rng);
        let pool = pool_with_two_clusters(60);
        // Pre-train AE then run the GAN task a few rounds.
        gan.update_auto_encoder(&mut enc, &pool, &cfg, 20, &mut rng)
            .unwrap();
        for _ in 0..4 {
            gan.update_multi_task(&mut enc, &pool, &cfg, &mut rng)
                .unwrap();
        }
        let new_rows: Vec<(Vec<f64>, Option<f64>)> = pool
            .records()
            .iter()
            .filter(|r| r.source == Source::New)
            .map(|r| (r.features.clone(), r.gt))
            .collect();
        let z = enc.embed_batch(&new_rows);
        let base: Vec<Vec<f64>> = (0..z.rows()).map(|r| z.row(r).to_vec()).collect();
        let sigma = Encoder::embedding_std(&base);
        let gen = gan.generate(&base, &sigma, 50, &mut rng);
        assert_eq!(gen.len(), 50);
        // Generated features should sit nearer the new cluster (0.8) than
        // the train cluster (0.2) on average.
        let mean: f64 = gen.iter().flat_map(|g| g.iter()).sum::<f64>() / (50.0 * 4.0);
        assert!(mean > 0.5, "generated mean {mean}");
        // And stay inside the feature box.
        assert!(gen
            .iter()
            .all(|g| g.iter().all(|&v| (0.0..=1.0).contains(&v))));
    }

    #[test]
    fn discriminator_learns_to_separate_sources() {
        let cfg = small_cfg();
        let mut rng = StdRng::seed_from_u64(12);
        let mut enc = Encoder::new(4, cfg.hidden, cfg.embed_dim, &mut rng);
        let mut gan = Gan::new(4, &cfg, &mut rng);
        let mut pool = pool_with_two_clusters(60);
        gan.update_auto_encoder(&mut enc, &pool, &cfg, 20, &mut rng)
            .unwrap();
        for _ in 0..6 {
            gan.update_multi_task(&mut enc, &pool, &cfg, &mut rng)
                .unwrap();
        }
        enc.refresh_pool(&mut pool);
        gan.score_pool(&mut pool);
        // At GAN equilibrium gen ≈ new, so D may swap those two labels; what
        // Warper relies on is that the `new` region scores higher s' =
        // P(new) than the `train` region, and that train is rarely mistaken
        // for new.
        let mean_score = |src: Source| {
            let scores: Vec<f64> = pool
                .records()
                .iter()
                .filter(|r| r.source == src)
                .map(|r| r.score.unwrap())
                .collect();
            scores.iter().sum::<f64>() / scores.len() as f64
        };
        for r in pool.records() {
            let s = r.score.unwrap();
            assert!((0.0..=1.0).contains(&s));
        }
        let s_new = mean_score(Source::New);
        let s_train = mean_score(Source::Train);
        assert!(
            s_new > s_train + 0.1,
            "P(new): new-workload {s_new:.3} vs train {s_train:.3}"
        );
        let train_as_new = pool
            .records()
            .iter()
            .filter(|r| r.source == Source::Train && r.predicted == Some(Source::New))
            .count();
        let train_total = pool.count_of(Source::Train);
        assert!(
            train_as_new * 3 < train_total,
            "{train_as_new}/{train_total} train→new"
        );
    }

    #[test]
    fn empty_pool_is_safe() {
        let cfg = small_cfg();
        let mut rng = StdRng::seed_from_u64(1);
        let mut enc = Encoder::new(4, cfg.hidden, cfg.embed_dim, &mut rng);
        let mut gan = Gan::new(4, &cfg, &mut rng);
        let pool = QueryPool::new();
        let s1 = gan
            .update_auto_encoder(&mut enc, &pool, &cfg, 3, &mut rng)
            .unwrap();
        let s2 = gan
            .update_multi_task(&mut enc, &pool, &cfg, &mut rng)
            .unwrap();
        assert_eq!(s1.iterations, 0);
        assert_eq!(s2.iterations, 0);
        assert!(gan.generate(&[], &[], 5, &mut rng).is_empty());
    }

    #[test]
    fn early_stop_respects_n_i_bound() {
        let cfg = WarperConfig {
            n_i: 5,
            ..small_cfg()
        };
        let mut rng = StdRng::seed_from_u64(2);
        let mut enc = Encoder::new(4, cfg.hidden, cfg.embed_dim, &mut rng);
        let mut gan = Gan::new(4, &cfg, &mut rng);
        let pool = pool_with_two_clusters(30);
        let stats = gan
            .update_multi_task(&mut enc, &pool, &cfg, &mut rng)
            .unwrap();
        assert!(stats.iterations <= 5);
        assert!(stats.iterations >= 1);
    }
}
