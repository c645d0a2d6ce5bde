//! The adaptation step and the background worker that drives it.
//!
//! A serving deployment keeps two copies of the model: the frozen
//! [`ModelSnapshot`] the workers answer from, and a private copy the
//! adaptation side retrains. [`AdaptStep`] is one shard's Algorithm 1
//! invocation: probe the table for drift, write-ahead log the labeled
//! arrivals, run one supervised step — checkpoint → invoke → validate →
//! commit or roll back — and, only on the commit path, snapshot the updated
//! model and publish it to the shard's [`SnapshotCell`]. Rolled-back steps
//! publish nothing: the serving side keeps answering from the last good
//! generation.
//!
//! [`AdaptWorker`] runs that step on a background thread. Arrived queries
//! stream into a bounded inbox ([`AdaptWorker::observe`] — never blocking
//! the serving path; a full inbox drops the *observation*, never the
//! request). Once `invoke_every` observations accumulate (or `max_wait`
//! elapses with at least one), the worker runs one step. The synchronous
//! replay (`crate::replay`) runs the same step at its segment barriers.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;
use warper_ce::{CardinalityEstimator, Precision};
use warper_core::detect::{CanarySet, ProbeStats, SketchProbe};
use warper_core::{
    derive_seed, seed_stream, ArrivedQuery, CommitHook, FeatureMap, Supervisor, SupervisorConfig,
    WarperController,
};
use warper_durable::DurableStore;
use warper_query::{Annotator, RangePredicate};
use warper_storage::Table;

use crate::fleet::ShardAdapt;
use crate::queue::BatchQueue;
use crate::snapshot::{ModelSnapshot, SnapshotCell};

/// Durably log labeled arrivals before an invocation consumes them.
/// Best-effort: a failed append keeps the label usable in memory — it is
/// simply not crash-protected (and is counted in the store's stats).
fn log_labeled_arrivals(store: &Mutex<DurableStore>, arrived: &[ArrivedQuery]) {
    let mut s = store.lock().unwrap_or_else(PoisonError::into_inner);
    for q in arrived {
        if let Some(gt) = q.gt {
            let _ = s.append_label(&q.features, gt, true);
        }
    }
}

/// Durably log the labels an annotation round produced.
fn log_annotations(store: &Mutex<DurableStore>, feats: &[Vec<f64>], labels: &[Option<f64>]) {
    let mut s = store.lock().unwrap_or_else(PoisonError::into_inner);
    for (f, l) in feats.iter().zip(labels) {
        if let Some(gt) = l {
            let _ = s.append_label(f, *gt, false);
        }
    }
}

/// Adaptation-loop knobs.
#[derive(Debug, Clone, Copy)]
pub struct AdaptConfig {
    /// Supervisor policy for the checkpoint/validate/commit cycle.
    pub supervisor: SupervisorConfig,
    /// Observations per invocation (n_t): the worker batches this many
    /// arrivals into one adaptation step.
    pub invoke_every: usize,
    /// Invoke with a partial batch after this long with ≥ 1 observation
    /// queued (bounds staleness under a trickle of arrivals).
    pub max_wait: Duration,
    /// Inbox bound; observations beyond it are dropped, not queued.
    pub inbox_capacity: usize,
    /// Canary predicates for data-drift telemetry.
    pub canaries: usize,
    /// Master seed (the worker draws from its [`seed_stream::ADAPT`]
    /// stream).
    pub seed: u64,
    /// Serving precision requested for published snapshots. Quantized
    /// copies are admitted per commit only after the GMQ drift gate
    /// (`crate::quant`, budget `supervisor.quant_gmq_tolerance`) passes;
    /// otherwise the f64 model serves.
    pub precision: Precision,
}

impl Default for AdaptConfig {
    fn default() -> Self {
        Self {
            supervisor: SupervisorConfig::default(),
            invoke_every: 40,
            max_wait: Duration::from_millis(50),
            inbox_capacity: 4096,
            canaries: 8,
            seed: 7,
            precision: Precision::F32,
        }
    }
}

/// What the worker did over its lifetime.
#[derive(Debug, Clone, Copy, Default)]
pub struct AdaptStats {
    /// Supervised invocations run.
    pub invocations: usize,
    /// Invocations that committed.
    pub commits: usize,
    /// Invocations rolled back to their checkpoint.
    pub rollbacks: usize,
    /// Snapshots published to the cell (= commits unless the model cannot
    /// snapshot or a committed state failed re-validation).
    pub published: usize,
    /// Committed steps that could not be published.
    pub publish_failures: usize,
    /// Commits whose quantized serving copy failed the GMQ drift gate and
    /// fell back to f64 (the commit itself still published).
    pub quant_refusals: usize,
    /// Observations dropped by the full inbox.
    pub dropped_observations: usize,
    /// Queries annotated by the adaptation loop.
    pub annotated: usize,
    /// Synthetic queries generated.
    pub generated: usize,
    /// Wall-clock seconds inside supervised invocations.
    pub adapt_secs: f64,
    /// Sketch fast-path decision counters (how many telemetry probes were
    /// answered without an exact canary rescan).
    pub probe: ProbeStats,
}

/// Handle to the running worker thread.
pub struct AdaptWorker {
    inbox: Arc<BatchQueue<ArrivedQuery>>,
    dropped: Arc<AtomicUsize>,
    handle: JoinHandle<AdaptStats>,
}

impl AdaptWorker {
    /// Spawns the worker over one shard's adaptation side; committed
    /// updates are snapshotted into `cell`. The worker reads the shard's
    /// table (telemetry + annotation) under short-lived read locks, so a
    /// drift mutator holding the write lock never waits on a whole
    /// retraining step. With a store, annotation labels are write-ahead
    /// logged as they are paid for, and every committed invocation counts
    /// toward the store's checkpoint cadence.
    pub fn spawn(a: ShardAdapt, cell: Arc<SnapshotCell<ModelSnapshot>>) -> Self {
        let inbox = Arc::new(BatchQueue::new(a.cfg.inbox_capacity.max(1)));
        let dropped = Arc::new(AtomicUsize::new(0));
        let worker_inbox = Arc::clone(&inbox);
        let handle = std::thread::Builder::new()
            .name("serve-adapt".into())
            .spawn(move || worker_main(a, cell, &worker_inbox))
            .expect("spawn adaptation worker");
        Self {
            inbox,
            dropped,
            handle,
        }
    }

    /// Feeds one arrived query to the loop. Never blocks: a full inbox
    /// drops the observation and the serving path moves on.
    pub fn observe(&self, q: ArrivedQuery) {
        if self.inbox.try_push(q).is_err() {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Closes the inbox, lets the worker drain it, and returns its stats.
    pub fn finish(self) -> AdaptStats {
        self.inbox.close();
        match self.handle.join() {
            Ok(stats) => AdaptStats {
                dropped_observations: self.dropped.load(Ordering::Relaxed),
                ..stats
            },
            Err(e) => std::panic::resume_unwind(e),
        }
    }
}

fn worker_main(
    a: ShardAdapt,
    cell: Arc<SnapshotCell<ModelSnapshot>>,
    inbox: &BatchQueue<ArrivedQuery>,
) -> AdaptStats {
    let (invoke_every, max_wait) = (a.cfg.invoke_every.max(1), a.cfg.max_wait);
    let mut step = AdaptStep::new(a, cell);
    let mut batch: Vec<ArrivedQuery> = Vec::new();
    while inbox.pop_batch(invoke_every, max_wait, &mut batch) {
        step.run(&batch);
    }
    step.finish()
}

/// One shard's adaptation step: the supervisor with its publication hook,
/// the telemetry probe and canaries, and the running stats. Both the
/// background [`AdaptWorker`] and the synchronous replay barriers
/// (`crate::replay`) drive adaptation through [`AdaptStep::run`].
pub(crate) struct AdaptStep {
    ctl: WarperController,
    model: Box<dyn CardinalityEstimator>,
    table: Arc<RwLock<Table>>,
    fmap: FeatureMap,
    store: Option<Arc<Mutex<DurableStore>>>,
    sup: Supervisor,
    annotator: Annotator,
    probe: SketchProbe,
    canaries: CanarySet,
    stats: AdaptStats,
    published: Arc<AtomicUsize>,
    publish_failures: Arc<AtomicUsize>,
    quant_refusals: Arc<AtomicUsize>,
}

impl AdaptStep {
    /// Wires the supervisor's commit hook to `cell` and baselines the
    /// telemetry on the shard's table. A controller recovered from a
    /// checkpoint carries the sketch baseline its model was trained
    /// against — resuming from it means drift that happened across the
    /// restart is still seen. A fresh controller baselines on the table as
    /// it stands now.
    pub(crate) fn new(a: ShardAdapt, cell: Arc<SnapshotCell<ModelSnapshot>>) -> Self {
        let ShardAdapt {
            mut ctl,
            model,
            table,
            fmap,
            cfg,
            store,
        } = a;
        let published = Arc::new(AtomicUsize::new(0));
        let publish_failures = Arc::new(AtomicUsize::new(0));
        let quant_refusals = Arc::new(AtomicUsize::new(0));
        let sup = Supervisor::new(cfg.supervisor).with_commit_hook(publish_hook(
            cell,
            Arc::clone(&published),
            Arc::clone(&publish_failures),
            Arc::clone(&quant_refusals),
            store.clone(),
            cfg.precision,
            cfg.supervisor.quant_gmq_tolerance,
        ));
        let mut rng = StdRng::seed_from_u64(derive_seed(cfg.seed, seed_stream::ADAPT));
        let (probe, canaries) = {
            let t = table.read().unwrap_or_else(PoisonError::into_inner);
            let probe = match ctl.sketch_baseline() {
                Some(b) => SketchProbe::from_baseline(b.clone(), ctl.config()),
                None => SketchProbe::new(&t, ctl.config()),
            };
            (probe, CanarySet::new(&t, cfg.canaries, &mut rng))
        };
        // The baseline rides every checkpoint the supervisor cuts from here on.
        ctl.set_sketch_baseline(Some(probe.baseline().clone()));
        Self {
            ctl,
            model,
            table,
            fmap,
            store,
            sup,
            annotator: Annotator::new(),
            probe,
            canaries,
            stats: AdaptStats::default(),
            published,
            publish_failures,
            quant_refusals,
        }
    }

    /// One supervised invocation over `arrived`: probe the table, WAL-log
    /// the labeled arrivals, invoke (annotating — and logging — what it
    /// asks for), and count the outcome.
    pub(crate) fn run(&mut self, arrived: &[ArrivedQuery]) {
        let telemetry = {
            let t = self.table.read().unwrap_or_else(PoisonError::into_inner);
            self.probe.telemetry(&t, &self.canaries)
        };
        let (table, fmap, annotator, store) =
            (&self.table, &self.fmap, &self.annotator, &self.store);
        let mut annotate = |qs: &[Vec<f64>]| -> Vec<Option<f64>> {
            let preds: Vec<RangePredicate> = qs.iter().map(|f| fmap.defeaturize(f)).collect();
            let labels: Vec<Option<f64>> = {
                let t = table.read().unwrap_or_else(PoisonError::into_inner);
                annotator
                    .count_batch(&t, &preds)
                    .into_iter()
                    .map(|c| Some(c as f64))
                    .collect()
            };
            if let Some(store) = store {
                log_annotations(store, qs, &labels);
            }
            labels
        };
        if let Some(store) = store {
            log_labeled_arrivals(store, arrived);
        }
        let t0 = Instant::now();
        let report = self.sup.invoke(
            &mut self.ctl,
            self.model.as_mut(),
            arrived,
            &telemetry,
            &mut annotate,
        );
        self.stats.adapt_secs += t0.elapsed().as_secs_f64();
        self.stats.invocations += 1;
        self.stats.annotated += report.annotated;
        self.stats.generated += report.generated;
        if report.rollback.is_some() {
            self.stats.rollbacks += 1;
        } else {
            self.stats.commits += 1;
        }
    }

    /// Fully handled whatever drift occurred: rebaselines the probe on the
    /// table as it stands and parks the new baseline in the controller (so
    /// a successor recovered from the final checkpoint starts quiet), then
    /// returns the step's lifetime stats.
    pub(crate) fn finish(mut self) -> AdaptStats {
        {
            let t = self.table.read().unwrap_or_else(PoisonError::into_inner);
            self.probe.rebaseline(&t);
        }
        self.ctl
            .set_sketch_baseline(Some(self.probe.baseline().clone()));
        AdaptStats {
            probe: self.probe.stats,
            published: self.published.load(Ordering::Relaxed),
            publish_failures: self.publish_failures.load(Ordering::Relaxed),
            quant_refusals: self.quant_refusals.load(Ordering::Relaxed),
            ..self.stats
        }
    }
}

/// Builds the publication hook: on every commit, snapshot the model,
/// quantize-and-gate the serving copy at the requested precision,
/// re-validate the controller state, and swap the cell. Durability always
/// receives the full f64 model — quantization is serving-only.
fn publish_hook(
    cell: Arc<SnapshotCell<ModelSnapshot>>,
    published: Arc<AtomicUsize>,
    failures: Arc<AtomicUsize>,
    quant_refusals: Arc<AtomicUsize>,
    store: Option<Arc<Mutex<DurableStore>>>,
    precision: Precision,
    quant_tolerance: f64,
) -> CommitHook {
    Box::new(move |state, model| {
        let next_gen = cell.version() + 1;
        let ok = model
            .snapshot()
            .and_then(|full| {
                let probes = crate::quant::probe_features(state);
                let refs: Vec<&[f64]> = probes.iter().map(Vec::as_slice).collect();
                let (serving, served, outcome) = crate::quant::prepare_serving_model(
                    model,
                    full,
                    precision,
                    &refs,
                    quant_tolerance,
                );
                if matches!(outcome, crate::quant::QuantOutcome::Refused(_)) {
                    quant_refusals.fetch_add(1, Ordering::Relaxed);
                }
                ModelSnapshot::committed(next_gen, serving, state)
                    .ok()
                    .map(|snap| snap.with_precision(served))
            })
            .map(|snap| cell.publish(snap));
        match ok {
            Some(_) => published.fetch_add(1, Ordering::Relaxed),
            None => failures.fetch_add(1, Ordering::Relaxed),
        };
        if let Some(store) = &store {
            let mut s = store.lock().unwrap_or_else(PoisonError::into_inner);
            // A failed checkpoint is retried at the next commit; the WAL
            // keeps every acked label durable in the meantime.
            let _ = s.note_commit(state, Some(model));
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;
    use warper_core::runner::ModelKind;
    use warper_core::{prepare_single_table, WarperConfig};
    use warper_storage::{generate, DatasetKind};
    use warper_workload::QueryGenerator;

    fn small_warper_cfg() -> WarperConfig {
        WarperConfig {
            embed_dim: 6,
            hidden: 24,
            n_i: 5,
            pretrain_epochs: 2,
            gamma: 80,
            n_p: 40,
            ..Default::default()
        }
    }

    #[test]
    fn worker_publishes_only_committed_generations() {
        let table = generate(DatasetKind::Prsa, 2_000, 5);
        let prepared = prepare_single_table(&table, "w1", ModelKind::LmMlp, 250, 11).unwrap();
        let ctl = WarperController::new(
            prepared.fmap.dim(),
            &prepared.training_set,
            prepared.baseline_gmq,
            small_warper_cfg(),
            derive_seed(11, seed_stream::STRATEGY),
        )
        .with_canonicalizer(prepared.fmap.make_canonicalizer());

        let serving = prepared.model.snapshot().expect("LmMlp snapshots");
        let cell = Arc::new(SnapshotCell::new(ModelSnapshot::initial(serving)));
        let shared = Arc::new(RwLock::new(table.clone()));
        let worker = AdaptWorker::spawn(
            ShardAdapt {
                ctl,
                model: prepared.model,
                table: shared,
                fmap: prepared.fmap.clone(),
                cfg: AdaptConfig {
                    invoke_every: 30,
                    max_wait: Duration::from_millis(5),
                    seed: 11,
                    ..Default::default()
                },
                store: None,
            },
            Arc::clone(&cell),
        );

        // Feed two invocations' worth of drifted-workload arrivals.
        let mut rng = StdRng::seed_from_u64(3);
        let mut gen = QueryGenerator::try_from_notation(&table, "w4").unwrap();
        for p in gen.generate_many(60, &mut rng) {
            worker.observe(ArrivedQuery {
                features: prepared.fmap.featurize(&p),
                gt: Some(rng.random_range(1.0..500.0)),
            });
        }
        let stats = worker.finish();
        assert!(stats.invocations >= 1, "{stats:?}");
        assert_eq!(stats.invocations, stats.commits + stats.rollbacks);
        assert_eq!(stats.published + stats.publish_failures, stats.commits);
        assert_eq!(stats.publish_failures, 0, "LmMlp snapshots must publish");
        // The cell advanced exactly once per published commit, and the
        // published model answers.
        assert_eq!(cell.version(), stats.published as u64);
        let (v, snap) = cell.load();
        assert_eq!(snap.generation, v);
        let q = vec![0.5; snap.model.feature_dim()];
        assert!(snap.model.estimate(&q).is_finite());
        assert_eq!(stats.dropped_observations, 0);
    }

    #[test]
    fn full_inbox_drops_observations_instead_of_blocking() {
        let table = generate(DatasetKind::Prsa, 1_200, 6);
        let prepared = prepare_single_table(&table, "w1", ModelKind::LmMlp, 150, 5).unwrap();
        let ctl = WarperController::new(
            prepared.fmap.dim(),
            &prepared.training_set,
            prepared.baseline_gmq,
            small_warper_cfg(),
            derive_seed(5, seed_stream::STRATEGY),
        );
        let serving = prepared.model.snapshot().expect("LmMlp snapshots");
        let cell = Arc::new(SnapshotCell::new(ModelSnapshot::initial(serving)));
        let shared = Arc::new(RwLock::new(table.clone()));
        let worker = AdaptWorker::spawn(
            ShardAdapt {
                ctl,
                model: prepared.model,
                table: shared,
                fmap: prepared.fmap.clone(),
                cfg: AdaptConfig {
                    invoke_every: 1_000_000, // never invoke: everything queues
                    max_wait: Duration::from_secs(60),
                    inbox_capacity: 8,
                    seed: 5,
                    ..Default::default()
                },
                store: None,
            },
            cell,
        );
        let dim = prepared.fmap.dim();
        let t0 = Instant::now();
        for i in 0..100 {
            worker.observe(ArrivedQuery {
                features: vec![(i % 7) as f64; dim],
                gt: None,
            });
        }
        // 92 drops, zero waiting.
        assert!(t0.elapsed() < Duration::from_secs(5));
        let stats = worker.finish();
        assert_eq!(stats.dropped_observations, 92);
    }
}
