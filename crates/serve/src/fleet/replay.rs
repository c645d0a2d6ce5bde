//! Multi-tenant fleet load generator.
//!
//! One fleet replay: train a base model offline once, start a
//! [`Fleet`](super::Fleet) whose shards all serve clones of that base
//! snapshot (the sharing the cross-shard packer exploits), then have
//! `clients` closed-loop threads replay a pre-generated query stream whose
//! shard assignment is Zipf-skewed — shard 0 is the hottest tenant and the
//! tail thins polynomially, the shape real multi-tenant traffic has.
//!
//! # Determinism
//!
//! Queries come from the [`seed_stream::LOADGEN`] stream and shard
//! assignments from the [`seed_stream::SHARD`] stream of the master seed,
//! both pre-generated before serving starts. Without adaptation every
//! answer comes from the generation-0 base snapshot, and batched inference
//! is bit-identical to per-query inference (PR 6), so *which* pack a
//! request rides in — across runs, client counts, worker counts, and
//! packing on/off — cannot change its answer:
//! [`FleetReport::estimates_checksum`] reproduces exactly. With
//! [`FleetReplaySpec::adapt_shards`] > 0 the adapting shards publish their
//! own generations free-running, trading that reproducibility for realism
//! on those shards only.

use std::sync::{Arc, Mutex, PoisonError, RwLock};
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use warper_ce::{CardinalityEstimator, Precision};
use warper_core::runner::ModelKind;
use warper_core::{
    derive_seed, prepare_single_table, seed_stream, ArrivedQuery, WarperConfig, WarperController,
    WarperError, WarperState,
};
use warper_durable::{DurabilityConfig, DurableStore, RecoveryReport, Vfs, VfsError};
use warper_metrics::{gmq, LatencyHistogram, PAPER_THETA};
use warper_query::{Annotator, RangePredicate};
use warper_storage::{Table, TableSketch};
use warper_workload::{QueryGenerator, ZipfSampler};

use crate::adapt::{AdaptConfig, AdaptStats};
use crate::replay::{checksum, durability_report, DurabilityReport};
use crate::service::ServeError;
use crate::snapshot::ModelSnapshot;

use super::{
    DriftRanker, Fleet, FleetConfig, FleetStats, ShardAdapt, ShardDrift, ShardKey, ShardSpec,
    ShardStats,
};

/// Opens the durable state directory of one shard — typically a
/// [`warper_durable::StdVfs`] over `state_dir/{key.dir_name()}` in
/// deployments, a [`warper_durable::ScopedVfs`] over one shared in-memory
/// VFS in tests.
pub type VfsFactory = Box<dyn Fn(&ShardKey) -> Result<Arc<dyn Vfs>, VfsError> + Send + Sync>;

/// Per-shard crash-safe persistence for a fleet replay.
///
/// Every *adapting* shard (`adapt_shards`) gets its own store from
/// [`VfsFactory`] — its own WAL and checkpoint lineage, recovered
/// independently at open. A shard that resumes from a prior image seeds its
/// adaptation controller (and adaptation-side model) from that image; its
/// serving cell still starts from the shared base snapshot and republishes
/// on the shard's first commit. Non-adapting shards are stateless replicas
/// of the base model and persist nothing.
pub struct FleetDurable {
    /// Checkpoint cadence and friends, applied to every shard store.
    pub cfg: DurabilityConfig,
    /// Factory yielding each shard's state directory.
    pub vfs_for: VfsFactory,
}

/// A full fleet replay specification.
pub struct FleetReplaySpec {
    /// Number of `(tenant, table)` shards.
    pub shards: usize,
    /// CE model every shard serves (one offline training run).
    pub model: ModelKind,
    /// Workload notation for training and replay.
    pub mix: String,
    /// Offline training-set size.
    pub n_train: usize,
    /// Requests to replay across the whole fleet.
    pub n_queries: usize,
    /// Concurrent closed-loop client threads.
    pub clients: usize,
    /// Zipf exponent of the shard-popularity skew (0 = uniform).
    pub zipf_s: f64,
    /// Fleet shape (workers, packing, fairness quantum, ...).
    pub fleet: FleetConfig,
    /// Warper controller configuration (adapting shards only).
    pub warper: WarperConfig,
    /// The first `adapt_shards` shards run online adaptation (and own a
    /// durable lineage when [`FleetReplaySpec::durable`] is set).
    pub adapt_shards: usize,
    /// The first `drift_shards` *adapting* shards have data drift applied to
    /// their tables before serving starts, with intensity decreasing by
    /// shard id — the scenario the sketch-driven [`DriftRanker`] triages.
    pub drift_shards: usize,
    /// Global annotation budget split across adapting shards by drift rank
    /// (each shard's `n_p` becomes its grant). 0 keeps every shard's
    /// configured `n_p` untouched.
    pub annotation_budget: usize,
    /// Adaptation knobs; each shard's worker is re-seeded from the
    /// [`seed_stream::SHARD`] stream by shard id.
    pub adapt: AdaptConfig,
    /// Master seed; all randomness derives from its named streams.
    pub seed: u64,
    /// Serving precision (quantize-and-gate, as in single-shard replay).
    pub precision: Precision,
    /// Ground-truth spot checks over the served stream (0 disables).
    pub spot_checks: usize,
    /// Per-shard crash-safe state directories. `None` runs in memory.
    pub durable: Option<FleetDurable>,
}

impl Default for FleetReplaySpec {
    fn default() -> Self {
        Self {
            shards: 8,
            model: ModelKind::LmMlp,
            mix: "w1".into(),
            n_train: 400,
            n_queries: 1_000,
            clients: 4,
            zipf_s: 1.1,
            fleet: FleetConfig::default(),
            warper: WarperConfig::default(),
            adapt_shards: 0,
            drift_shards: 0,
            annotation_budget: 0,
            adapt: AdaptConfig::default(),
            seed: 7,
            precision: Precision::F32,
            spot_checks: 0,
            durable: None,
        }
    }
}

/// One shard's slice of the replay outcome.
#[derive(Debug, Clone)]
pub struct ShardReport {
    /// Who the shard serves.
    pub key: ShardKey,
    /// The shard's counters at shutdown.
    pub stats: ShardStats,
    /// Served requests per wall-clock second, this shard only.
    pub qps: f64,
}

/// Everything a fleet replay measured.
pub struct FleetReport {
    /// Shards in the fleet.
    pub shards: usize,
    /// Requests answered with an estimate, fleet-wide.
    pub served: usize,
    /// Requests shed (admission or deadline), fleet-wide.
    pub shed: usize,
    /// Requests that failed for any other reason.
    pub errors: usize,
    /// Merged per-request latency (nanoseconds).
    pub latency: LatencyHistogram,
    /// Wall-clock seconds for the serving phase.
    pub wall_secs: f64,
    /// Served requests per wall-clock second, fleet-wide.
    pub throughput_qps: f64,
    /// Order-independent FNV checksum over `(index, estimate bits)` of all
    /// served requests (see module docs for when it reproduces).
    pub estimates_checksum: u64,
    /// Fleet counters: packing, GEMM grouping, shed splits.
    pub fleet: FleetStats,
    /// Per-shard counters, indexed by shard id.
    pub per_shard: Vec<ShardReport>,
    /// Adaptation stats of each adapting shard.
    pub adapt: Vec<(u32, AdaptStats)>,
    /// Sketch-measured drift of each adapting shard, worst first (see
    /// [`DriftRanker::rank`]); empty when no shard adapts.
    pub drift: Vec<ShardDrift>,
    /// Annotation-budget grants per shard, in `drift` order. Empty when
    /// [`FleetReplaySpec::annotation_budget`] is 0.
    pub annotation_grants: Vec<(u32, usize)>,
    /// Durability activity of each shard that owned a store.
    pub durability: Vec<(u32, DurabilityReport)>,
    /// GMQ of spot-checked served estimates vs fresh ground truth.
    pub spot_gmq: Option<f64>,
}

/// Runs one fleet replay against `table`.
///
/// All shards serve the same schema in this harness (one offline training
/// run shared fleet-wide — the multi-schema generalization only multiplies
/// preparation cost, not serving behavior). Errors on invalid workload
/// notation, a model that cannot snapshot, or a durable store that cannot
/// open.
pub fn run_fleet_replay(table: &Table, spec: &FleetReplaySpec) -> Result<FleetReport, WarperError> {
    let shards = spec.shards.max(1);
    let n = spec.n_queries;
    let durable_err =
        |e: warper_durable::DurabilityError| WarperError::InvalidState(format!("durable: {e}"));

    // ---- Offline phase: one training run, pre-generated streams.
    let prepared = prepare_single_table(table, &spec.mix, spec.model, spec.n_train, spec.seed)?;
    let fmap = prepared.fmap.clone();
    let base_model = prepared.model;

    let mut loadgen = StdRng::seed_from_u64(derive_seed(spec.seed, seed_stream::LOADGEN));
    let mut qgen = QueryGenerator::try_from_notation(table, &spec.mix)?;
    let preds: Vec<RangePredicate> = qgen.generate_many(n, &mut loadgen);
    let feats: Vec<Vec<f64>> = preds.iter().map(|p| fmap.featurize(p)).collect();

    // Shard assignment draws from its own stream: changing the shard count
    // or skew never perturbs the queries themselves.
    let mut shard_rng = StdRng::seed_from_u64(derive_seed(spec.seed, seed_stream::SHARD));
    let zipf = ZipfSampler::new(shards, spec.zipf_s);
    let assign: Vec<u32> = (0..n).map(|_| zipf.sample(&mut shard_rng) as u32).collect();

    // ---- Base serving snapshot, quantize-gated once, shared by every
    // shard through one Arc (what makes cross-shard packing possible).
    let snapshot_err = || {
        WarperError::InvalidState(format!(
            "{} cannot snapshot; serving requires an immutable copy",
            base_model.name()
        ))
    };
    let serving = base_model.snapshot().ok_or_else(snapshot_err)?;
    let probe_refs: Vec<&[f64]> = prepared
        .training_set
        .iter()
        .map(|(f, _)| f.as_slice())
        .collect();
    let (serving, precision, _) = crate::quant::prepare_serving_model(
        base_model.as_ref(),
        serving,
        spec.precision,
        &probe_refs,
        spec.adapt.supervisor.quant_gmq_tolerance,
    );
    drop(probe_refs);
    let base_snap = Arc::new(ModelSnapshot::initial(serving).with_precision(precision));

    // ---- Per-shard specs. One base controller is trained (GAN pretrain is
    // the expensive part) and cloned per adapting shard; each worker is
    // re-seeded per shard so adaptation randomness stays stream-separated.
    let n_adapt = spec.adapt_shards.min(shards);

    // ---- Per-shard tables + sketch drift triage. Every adapting shard
    // owns a clone of the base table. The ranker baselines each shard on
    // its pre-drift sketch rollup, the first `drift_shards` tables are
    // mutated with intensity decreasing by shard id, and the global
    // annotation budget is granted worst-drift-first — all from merged
    // sketches, without rescanning a single shard.
    let n_drift = spec.drift_shards.min(n_adapt);
    let mut ranker = DriftRanker::new();
    let mut shard_tables: Vec<Arc<RwLock<Table>>> = Vec::with_capacity(n_adapt);
    let mut pre_drift: Vec<TableSketch> = Vec::with_capacity(n_adapt);
    {
        let mut drift_rng = StdRng::seed_from_u64(derive_seed(spec.seed, seed_stream::DRIFT));
        for id in 0..n_adapt {
            let mut t = table.clone();
            let base = t.table_sketch().as_ref().clone();
            ranker.baseline(id as u32, base.clone());
            if id < n_drift {
                // Intensity ladder: shard 0 is always the worst hit.
                let frac = 0.5 / (id as f64 + 1.0);
                warper_storage::drift::update_rows(&mut t, frac, 0.6, &mut drift_rng);
            }
            pre_drift.push(base);
            shard_tables.push(Arc::new(RwLock::new(t)));
        }
    }
    let current: Vec<(u32, TableSketch)> = shard_tables
        .iter()
        .enumerate()
        .map(|(id, t)| {
            let t = t.read().unwrap_or_else(PoisonError::into_inner);
            (id as u32, t.table_sketch().as_ref().clone())
        })
        .collect();
    let drift_rank = ranker.rank(&current);
    let annotation_grants = if spec.annotation_budget > 0 {
        DriftRanker::allocate(&drift_rank, spec.annotation_budget)
    } else {
        Vec::new()
    };
    let base_state: Option<WarperState> = if n_adapt > 0 {
        let ctl = crate::replay::build_controller(
            &fmap,
            &prepared.training_set,
            prepared.baseline_gmq,
            spec.warper,
            spec.seed,
        );
        Some(ctl.to_state())
    } else {
        None
    };
    let shard_seed_root = derive_seed(spec.seed, seed_stream::SHARD);
    let mut specs: Vec<ShardSpec> = Vec::with_capacity(shards);
    let mut durable_shards: Vec<(u32, Arc<Mutex<DurableStore>>, Option<RecoveryReport>)> =
        Vec::new();
    for id in 0..shards {
        let key = ShardKey::new(format!("tenant-{id:04}"), "main");
        let adapt = if id < n_adapt {
            let (store, rec_state, rec_model, rec_report) = match &spec.durable {
                Some(d) => {
                    let vfs = (d.vfs_for)(&key)
                        .map_err(|e| WarperError::InvalidState(format!("shard {key}: vfs: {e}")))?;
                    let (s, rec) = DurableStore::open(vfs, d.cfg).map_err(durable_err)?;
                    let store = Arc::new(Mutex::new(s));
                    match rec {
                        Some(rec) => (Some(store), Some(rec.state), rec.model, Some(rec.report)),
                        None => (Some(store), None, None, None),
                    }
                }
                None => (None, None, None, None),
            };
            let grant = annotation_grants
                .iter()
                .find(|&&(s, _)| s == id as u32)
                .map(|&(_, g)| g);
            let mut state = match rec_state {
                Some(state) => state,
                None => base_state
                    .clone()
                    .unwrap_or_else(|| unreachable!("base state exists when n_adapt > 0")),
            };
            // The shard's slice of the global annotation budget becomes its
            // per-invocation annotation cap.
            if let Some(g) = grant {
                state.cfg.n_p = g;
            }
            let mut ctl =
                WarperController::from_state(state)?.with_canonicalizer(fmap.make_canonicalizer());
            // A fresh controller adopts the shard's pre-drift sketch rollup
            // as its baseline, so the worker's probe sees the pre-serving
            // drift as c1 drift; a recovered one keeps its own.
            if ctl.sketch_baseline().is_none() {
                ctl.set_sketch_baseline(Some(pre_drift[id].clone()));
            }
            let model: Box<dyn CardinalityEstimator> = match rec_model {
                Some(m) if m.feature_dim() == fmap.dim() => m,
                _ => base_model.snapshot().ok_or_else(snapshot_err)?,
            };
            // A fresh lineage gets an immediate base checkpoint so labels
            // logged before the first commit have a snapshot to replay onto.
            if let Some(store) = &store {
                let mut s = store.lock().unwrap_or_else(PoisonError::into_inner);
                if s.seq() == 0 {
                    let _ = s.checkpoint(&ctl.to_state(), Some(model.as_ref()));
                }
            }
            if let Some(store) = &store {
                durable_shards.push((id as u32, Arc::clone(store), rec_report));
            }
            Some(ShardAdapt {
                ctl,
                model,
                table: Arc::clone(&shard_tables[id]),
                fmap: fmap.clone(),
                cfg: AdaptConfig {
                    seed: derive_seed(shard_seed_root, id as u64),
                    precision: spec.precision,
                    ..spec.adapt
                },
                store,
            })
        } else {
            None
        };
        specs.push(ShardSpec {
            key,
            snapshot: Arc::clone(&base_snap),
            adapt,
        });
    }
    let keys: Vec<ShardKey> = specs.iter().map(|s| s.key.clone()).collect();

    // ---- Serve.
    #[derive(Default)]
    struct ClientLog {
        hist: LatencyHistogram,
        results: Vec<(usize, u64)>,
        shed: usize,
        errors: usize,
    }
    let fleet = Fleet::start(specs, spec.fleet);
    let handle = fleet.handle();
    let clients = spec.clients.max(1);
    let start = Instant::now();
    let logs: Vec<ClientLog> = std::thread::scope(|s| {
        let fleet = &fleet;
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let handle = handle.clone();
                let feats = &feats;
                let assign = &assign;
                s.spawn(move || {
                    let mut log = ClientLog::default();
                    for idx in (0..n).filter(|i| i % clients == c) {
                        let t0 = Instant::now();
                        match handle.estimate(assign[idx], feats[idx].clone()) {
                            Ok(est) => {
                                log.hist.record_duration(t0.elapsed());
                                log.results.push((idx, est.value.to_bits()));
                                if n_adapt > 0 {
                                    fleet.observe(
                                        assign[idx],
                                        ArrivedQuery {
                                            features: feats[idx].clone(),
                                            gt: None,
                                        },
                                    );
                                }
                            }
                            Err(ServeError::Shed | ServeError::ShedDeadline) => log.shed += 1,
                            Err(_) => log.errors += 1,
                        }
                    }
                    log
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("fleet client"))
            .collect()
    });
    let wall_secs = start.elapsed().as_secs_f64();
    let (fleet_stats, shard_stats, adapt) = fleet.shutdown();

    // ---- Durability summaries (workers and adapters have joined).
    let durability: Vec<(u32, DurabilityReport)> = durable_shards
        .iter()
        .map(|(id, store, rec)| (*id, durability_report(store, rec.as_ref())))
        .collect();

    // ---- Merge client logs.
    let mut latency = LatencyHistogram::new();
    let mut results: Vec<(usize, u64)> = Vec::with_capacity(n);
    let (mut shed, mut errors) = (0usize, 0usize);
    for log in logs {
        latency.merge(&log.hist);
        results.extend(log.results);
        shed += log.shed;
        errors += log.errors;
    }
    results.sort_unstable_by_key(|&(idx, _)| idx);

    // ---- Ground-truth spot checks over the served stream.
    let spot_gmq = if spec.spot_checks > 0 && !results.is_empty() {
        let annotator = Annotator::new();
        let stride = (results.len() / spec.spot_checks).max(1);
        let picked: Vec<&(usize, u64)> = results.iter().step_by(stride).collect();
        let checked: Vec<RangePredicate> =
            picked.iter().map(|(idx, _)| preds[*idx].clone()).collect();
        let actuals: Vec<f64> = annotator
            .count_batch(table, &checked)
            .into_iter()
            .map(|c| c as f64)
            .collect();
        let ests: Vec<f64> = picked
            .iter()
            .map(|(_, bits)| f64::from_bits(*bits))
            .collect();
        Some(gmq(&ests, &actuals, PAPER_THETA))
    } else {
        None
    };

    let served = results.len();
    let per_shard = keys
        .into_iter()
        .zip(shard_stats)
        .map(|(key, stats)| ShardReport {
            key,
            qps: stats.served as f64 / wall_secs.max(1e-9),
            stats,
        })
        .collect();
    Ok(FleetReport {
        shards,
        served,
        shed,
        errors,
        estimates_checksum: checksum(&results),
        latency,
        wall_secs,
        throughput_qps: served as f64 / wall_secs.max(1e-9),
        fleet: fleet_stats,
        per_shard,
        adapt,
        drift: drift_rank,
        annotation_grants,
        durability,
        spot_gmq,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use warper_storage::{generate, DatasetKind};

    #[test]
    fn fleet_replay_serves_everything_with_zipf_skew() {
        let table = generate(DatasetKind::Prsa, 1_500, 5);
        let spec = FleetReplaySpec {
            shards: 16,
            n_train: 200,
            n_queries: 400,
            clients: 4,
            spot_checks: 20,
            seed: 13,
            ..Default::default()
        };
        let rep = run_fleet_replay(&table, &spec).unwrap();
        assert_eq!(rep.served, 400);
        assert_eq!(rep.shed, 0);
        assert_eq!(rep.errors, 0);
        assert_eq!(rep.per_shard.len(), 16);
        assert_eq!(rep.latency.count(), 400);
        // Zipf skew: the hottest tenant dominates the coldest.
        let hot = rep.per_shard[0].stats.served;
        let cold = rep.per_shard[15].stats.served;
        assert!(hot > cold, "zipf head {hot} vs tail {cold}");
        // Counters reconcile.
        let sum: u64 = rep.per_shard.iter().map(|s| s.stats.served).sum();
        assert_eq!(sum, 400);
        assert_eq!(rep.fleet.served, 400);
        assert_eq!(rep.fleet.packed_requests, 400);
        // Every shard still shares the base snapshot: all sub-batches pack
        // into single-GEMM groups, so packs ≥ groups and efficiency ≥ 1.
        assert!(rep.fleet.gemm_groups <= rep.fleet.sub_batches);
        assert!(rep.fleet.pack_efficiency() >= 1.0);
        let gmq = rep.spot_gmq.unwrap();
        assert!(gmq >= 1.0 && gmq.is_finite());
    }

    #[test]
    fn drift_triage_is_deterministic_and_budget_conserving() {
        let table = generate(DatasetKind::Prsa, 1_500, 5);
        let spec = || FleetReplaySpec {
            shards: 6,
            adapt_shards: 3,
            drift_shards: 2,
            annotation_budget: 120,
            n_train: 120,
            n_queries: 150,
            clients: 2,
            warper: WarperConfig {
                embed_dim: 6,
                hidden: 16,
                n_i: 4,
                pretrain_epochs: 2,
                gamma: 80,
                n_p: 40,
                ..Default::default()
            },
            seed: 17,
            ..Default::default()
        };
        let a = run_fleet_replay(&table, &spec()).unwrap();
        let b = run_fleet_replay(&table, &spec()).unwrap();
        // Worst-first by the intensity ladder: shard 0 leads, the undrifted
        // adapting shard trails at exactly zero.
        assert_eq!(a.drift.len(), 3);
        assert_eq!(a.drift[0].shard, 0);
        assert_eq!(a.drift[1].shard, 1);
        assert!(a.drift[0].score > a.drift[1].score);
        assert_eq!(a.drift[2].shard, 2);
        assert_eq!(a.drift[2].score, 0.0);
        assert!(a.drift[0].changed_fraction > 0.4);
        // Deterministic across runs: identical ranking and grants.
        for (x, y) in a.drift.iter().zip(&b.drift) {
            assert_eq!(x.shard, y.shard);
            assert_eq!(x.score.to_bits(), y.score.to_bits());
        }
        assert_eq!(a.annotation_grants, b.annotation_grants);
        // The budget is spent exactly, worst shards first; the quiet shard
        // gets nothing.
        let total: usize = a.annotation_grants.iter().map(|&(_, g)| g).sum();
        assert_eq!(total, 120);
        let grant = |s: u32| {
            a.annotation_grants
                .iter()
                .find(|&&(id, _)| id == s)
                .map(|&(_, g)| g)
                .unwrap()
        };
        assert!(grant(0) > grant(1));
        assert_eq!(grant(2), 0);
    }

    #[test]
    fn packing_is_bit_identical_to_unpacked_and_reproducible() {
        let table = generate(DatasetKind::Higgs, 1_200, 3);
        let spec = |packing: bool| FleetReplaySpec {
            shards: 12,
            n_train: 150,
            n_queries: 300,
            clients: 3,
            zipf_s: 1.3,
            fleet: FleetConfig {
                packing,
                ..FleetConfig::default()
            },
            seed: 29,
            ..Default::default()
        };
        let packed = run_fleet_replay(&table, &spec(true)).unwrap();
        let packed2 = run_fleet_replay(&table, &spec(true)).unwrap();
        let unpacked = run_fleet_replay(&table, &spec(false)).unwrap();
        assert_eq!(packed.served, 300);
        assert_eq!(unpacked.served, 300);
        assert_eq!(
            packed.estimates_checksum, packed2.estimates_checksum,
            "same spec must replay bit-identically"
        );
        assert_eq!(
            packed.estimates_checksum, unpacked.estimates_checksum,
            "packing must not change a single answer"
        );
        // Unpacked runs one GEMM per sub-batch by construction.
        assert_eq!(unpacked.fleet.gemm_groups, unpacked.fleet.sub_batches);
    }
}
