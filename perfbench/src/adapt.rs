//! The traced adaptation step. Traced runs drive each adapting shard's step
//! from here, making the same public calls in the same order as the
//! serving crate's own adaptation worker, with a span around each stage:
//!
//! `warper.detect` (`SketchProbe::telemetry`) → `warper.invoke`
//! (`Supervisor::invoke`), and inside it `query.annotate`
//! (`Annotator::count_batch`), `durable.wal` (`DurableStore::append_label`)
//! and, from the commit hook, `quant.gate` (`prepare_serving_model`),
//! `fleet.publish` (`SnapshotCell::publish`) and `durable.checkpoint`
//! (`DurableStore::note_commit`).
//!
//! Untraced runs leave adaptation to the fleet's own `AdaptWorker`.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use warper_core::detect::{CanarySet, SketchProbe};
use warper_core::{derive_seed, seed_stream, ArrivedQuery, CommitHook, Supervisor};
use warper_durable::DurableStore;
use warper_query::{Annotator, RangePredicate};
use warper_serve::{
    prepare_serving_model, probe_features, AdaptStats, BatchQueue, ModelSnapshot, QuantOutcome,
    ShardAdapt, SnapshotCell,
};

use crate::trace::span;

/// One shard's benchmark-driven adaptation loop.
pub struct Adapter {
    pub shard: u32,
    inbox: Arc<BatchQueue<ArrivedQuery>>,
    dropped: Arc<AtomicUsize>,
    handle: JoinHandle<AdaptStats>,
}

impl Adapter {
    pub fn spawn(shard: u32, a: ShardAdapt, cell: Arc<SnapshotCell<ModelSnapshot>>) -> Self {
        let inbox = Arc::new(BatchQueue::new(a.cfg.inbox_capacity.max(1)));
        let dropped = Arc::new(AtomicUsize::new(0));
        let worker_inbox = Arc::clone(&inbox);
        let handle = std::thread::Builder::new()
            .name(format!("bench-adapt-{shard}"))
            .spawn(move || step_loop(shard, a, cell, worker_inbox))
            .expect("spawn adaptation loop");
        Self {
            shard,
            inbox,
            dropped,
            handle,
        }
    }

    pub fn observe(&self, q: ArrivedQuery) {
        if self.inbox.try_push(q).is_err() {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    pub fn finish(self) -> (u32, AdaptStats) {
        self.inbox.close();
        let mut stats = self.handle.join().expect("adaptation loop");
        stats.dropped_observations = self.dropped.load(Ordering::Relaxed);
        (self.shard, stats)
    }
}

fn log_labels(store: &Mutex<DurableStore>, feats: &[Vec<f64>], labels: &[Option<f64>], arrival: bool) {
    let mut s = store.lock().unwrap_or_else(PoisonError::into_inner);
    for (f, l) in feats.iter().zip(labels) {
        if let Some(gt) = l {
            let _ = s.append_label(f, *gt, arrival);
        }
    }
}

#[derive(Default)]
struct HookCounts {
    published: AtomicUsize,
    failures: AtomicUsize,
    refusals: AtomicUsize,
}

fn commit_hook(
    cell: Arc<SnapshotCell<ModelSnapshot>>,
    counts: Arc<HookCounts>,
    store: Option<Arc<Mutex<DurableStore>>>,
    cfg: warper_serve::AdaptConfig,
) -> CommitHook {
    Box::new(move |state, model| {
        let next_gen = cell.version() + 1;
        let gated = span("quant.gate", 0, || {
            model.snapshot().map(|full| {
                let probes = probe_features(state);
                let refs: Vec<&[f64]> = probes.iter().map(Vec::as_slice).collect();
                prepare_serving_model(
                    model,
                    full,
                    cfg.precision,
                    &refs,
                    cfg.supervisor.quant_gmq_tolerance,
                )
            })
        });
        let published = span("fleet.publish", 0, || {
            gated.and_then(|(serving, served, outcome)| {
                if matches!(outcome, QuantOutcome::Refused(_)) {
                    counts.refusals.fetch_add(1, Ordering::Relaxed);
                }
                ModelSnapshot::committed(next_gen, serving, state)
                    .ok()
                    .map(|snap| cell.publish(snap.with_precision(served)))
            })
        });
        match published {
            Some(_) => counts.published.fetch_add(1, Ordering::Relaxed),
            None => counts.failures.fetch_add(1, Ordering::Relaxed),
        };
        if let Some(store) = &store {
            span("durable.checkpoint", 0, || {
                let mut s = store.lock().unwrap_or_else(PoisonError::into_inner);
                let _ = s.note_commit(state, Some(model));
            });
        }
    })
}

static INVOCATION: AtomicU64 = AtomicU64::new(1);

fn step_loop(
    shard: u32,
    a: ShardAdapt,
    cell: Arc<SnapshotCell<ModelSnapshot>>,
    inbox: Arc<BatchQueue<ArrivedQuery>>,
) -> AdaptStats {
    let ShardAdapt {
        mut ctl,
        mut model,
        table,
        fmap,
        cfg,
        store,
    } = a;
    let counts = Arc::new(HookCounts::default());
    let mut sup = Supervisor::new(cfg.supervisor).with_commit_hook(commit_hook(
        cell,
        Arc::clone(&counts),
        store.clone(),
        cfg,
    ));
    let annotator = Annotator::new();
    let mut rng = StdRng::seed_from_u64(derive_seed(cfg.seed, seed_stream::ADAPT));
    let (mut probe, canaries) = {
        let t = table.read().unwrap_or_else(PoisonError::into_inner);
        let probe = match ctl.sketch_baseline() {
            Some(b) => SketchProbe::from_baseline(b.clone(), ctl.config()),
            None => SketchProbe::new(&t, ctl.config()),
        };
        (probe, CanarySet::new(&t, cfg.canaries, &mut rng))
    };
    ctl.set_sketch_baseline(Some(probe.baseline().clone()));

    let mut stats = AdaptStats::default();
    let mut batch: Vec<ArrivedQuery> = Vec::new();
    while inbox.pop_batch(cfg.invoke_every.max(1), cfg.max_wait, &mut batch) {
        let id = INVOCATION.fetch_add(1, Ordering::Relaxed) | (u64::from(shard) << 48);
        let telemetry = span("warper.detect", id, || {
            let t = table.read().unwrap_or_else(PoisonError::into_inner);
            probe.telemetry(&t, &canaries)
        });
        let mut annotate = |qs: &[Vec<f64>]| -> Vec<Option<f64>> {
            let labels: Vec<Option<f64>> = span("query.annotate", 0, || {
                let preds: Vec<RangePredicate> = qs.iter().map(|f| fmap.defeaturize(f)).collect();
                let t = table.read().unwrap_or_else(PoisonError::into_inner);
                annotator
                    .count_batch(&t, &preds)
                    .into_iter()
                    .map(|c| Some(c as f64))
                    .collect()
            });
            if let Some(store) = &store {
                span("durable.wal", 0, || log_labels(store, qs, &labels, false));
            }
            labels
        };
        if let Some(store) = &store {
            let feats: Vec<Vec<f64>> = batch.iter().map(|q| q.features.clone()).collect();
            let labels: Vec<Option<f64>> = batch.iter().map(|q| q.gt).collect();
            span("durable.wal", id, || log_labels(store, &feats, &labels, true));
        }
        let t0 = Instant::now();
        let report = span("warper.invoke", id, || {
            sup.invoke(&mut ctl, model.as_mut(), &batch, &telemetry, &mut annotate)
        });
        stats.adapt_secs += t0.elapsed().as_secs_f64();
        stats.invocations += 1;
        stats.annotated += report.annotated;
        stats.generated += report.generated;
        if report.rollback.is_some() {
            stats.rollbacks += 1;
        } else {
            stats.commits += 1;
        }
    }
    {
        let t = table.read().unwrap_or_else(PoisonError::into_inner);
        probe.rebaseline(&t);
        ctl.set_sketch_baseline(Some(probe.baseline().clone()));
    }
    stats.probe = probe.stats;
    stats.published = counts.published.load(Ordering::Relaxed);
    stats.publish_failures = counts.failures.load(Ordering::Relaxed);
    stats.quant_refusals = counts.refusals.load(Ordering::Relaxed);
    stats
}
