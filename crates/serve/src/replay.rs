//! Load-generator / replay harness.
//!
//! One replay: train a model offline ([`prepare_single_table`]), start a
//! one-shard [`Fleet`] over its snapshot, then have `clients` threads replay
//! a pre-generated query stream against it — optionally paced by an
//! [`ArrivalProcess`], optionally hitting a mid-run [`DriftEvent`], and
//! optionally adapting online ([`AdaptMode`]). Per-request latency lands in
//! per-client [`LatencyHistogram`]s (merged at the end), and every served
//! estimate is folded into an order-independent checksum so two replays can
//! be compared bit-for-bit.
//!
//! # Determinism
//!
//! Query streams are generated *before* the run from the
//! [`seed_stream::LOADGEN`] and [`seed_stream::DRIFT`] streams of the
//! master seed, so what arrives never depends on thread timing. Batched
//! inference is bit-identical to per-query inference (the GEMM accumulates
//! each output row in the same order regardless of batch size), so *which*
//! micro-batch a request lands in cannot change its answer — only the model
//! generation serving it can. [`AdaptMode::Synchronous`] therefore pins the
//! whole replay: adaptation runs only at segment barriers (every
//! `invoke_every` queries and at the drift point), where every in-flight
//! request has drained, so each query is answered by a deterministic
//! generation and [`ReplayReport::estimates_checksum`] reproduces exactly —
//! for any client count. [`AdaptMode::Background`] trades that for
//! free-running adaptation (the latency-realistic mode).

use std::sync::{Arc, Mutex, PoisonError, RwLock};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;
use warper_ce::{CardinalityEstimator, Precision};
use warper_core::runner::{DataDriftKind, ModelKind};
use warper_core::{
    derive_seed, prepare_single_table, seed_stream, ArrivedQuery, FeatureMap, SupervisorConfig,
    WarperConfig, WarperController, WarperError,
};
use warper_durable::{DurabilityConfig, DurableStore, RecoveryReport, Vfs};
use warper_metrics::{gmq, LatencyHistogram, PAPER_THETA};
use warper_query::{Annotator, RangePredicate};
use warper_storage::Table;
use warper_workload::{ArrivalProcess, QueryGenerator};

use crate::adapt::{AdaptConfig, AdaptStats, AdaptStep};
use crate::fleet::{Fleet, FleetConfig, FleetStats, ShardAdapt, ShardKey, ShardSpec};
use crate::service::ServeError;
use crate::snapshot::ModelSnapshot;

/// What changes mid-run.
#[derive(Debug, Clone)]
pub enum DriftKind {
    /// The table is mutated (c1).
    Data(DataDriftKind),
    /// Later queries come from a different workload mix (c2/c3).
    Workload {
        /// Post-drift workload notation, e.g. `"w45"`.
        new_mix: String,
    },
}

/// A drift injected after `at_query` requests have been served.
#[derive(Debug, Clone)]
pub struct DriftEvent {
    /// Request index at which the drift lands (a segment barrier).
    pub at_query: usize,
    /// What drifts.
    pub kind: DriftKind,
}

/// How the model adapts during the replay.
pub enum AdaptMode {
    /// No adaptation: the initial snapshot serves everything.
    None,
    /// Free-running background worker (the deployment shape): arrivals
    /// stream into its inbox and committed updates hot-swap mid-traffic.
    Background(AdaptConfig),
    /// Adaptation only at segment barriers, every `invoke_every` queries —
    /// the bit-deterministic mode.
    Synchronous {
        /// Supervisor policy.
        supervisor: SupervisorConfig,
        /// Barrier spacing in queries.
        invoke_every: usize,
    },
}

/// Crash-safe persistence for a replay: where the state directory lives and
/// how often supervisor commits checkpoint.
///
/// When set, the replay opens the directory before serving: a prior run's
/// checkpoint + WAL resume the controller (and the serving model, when the
/// snapshot carried one), every annotation label is write-ahead logged, and
/// the supervisor's commit hook drives periodic checkpoints. The same
/// directory handed to a later replay resumes with zero acknowledged-label
/// loss.
pub struct DurableReplay {
    /// State directory (a [`warper_durable::StdVfs`] in deployments, a
    /// [`warper_durable::MemVfs`] / [`warper_durable::FailpointVfs`] in
    /// tests).
    pub vfs: Arc<dyn Vfs>,
    /// Checkpoint cadence and friends.
    pub cfg: DurabilityConfig,
}

/// A full replay specification.
pub struct ReplaySpec {
    /// CE model to serve.
    pub model: ModelKind,
    /// Training/pre-drift workload notation.
    pub mix: String,
    /// Offline training-set size.
    pub n_train: usize,
    /// Requests to replay.
    pub n_queries: usize,
    /// Concurrent client threads.
    pub clients: usize,
    /// Mid-run drift, if any.
    pub drift: Option<DriftEvent>,
    /// Adaptation mode.
    pub adapt: AdaptMode,
    /// Shape of the one-shard fleet that serves the replay.
    pub fleet: FleetConfig,
    /// Warper controller configuration (adaptation modes only).
    pub warper: WarperConfig,
    /// Master seed; all randomness derives from its named streams.
    pub seed: u64,
    /// Open-loop pacing. `None` replays closed-loop at full speed.
    pub pace: Option<ArrivalProcess>,
    /// Ground-truth spot checks per phase (0 disables).
    pub spot_checks: usize,
    /// Crash-safe state directory. `None` runs purely in memory.
    pub durable: Option<DurableReplay>,
    /// Serving precision: every published snapshot (including the initial
    /// one) is quantized to this and GMQ-gated against its f64 source;
    /// failures fall back to f64. Training stays f64 regardless.
    pub precision: Precision,
}

impl Default for ReplaySpec {
    fn default() -> Self {
        Self {
            model: ModelKind::LmMlp,
            mix: "w1".into(),
            n_train: 400,
            n_queries: 1_000,
            clients: 4,
            drift: None,
            adapt: AdaptMode::None,
            fleet: FleetConfig::single_tenant(),
            warper: WarperConfig::default(),
            seed: 7,
            pace: None,
            spot_checks: 0,
            durable: None,
            precision: Precision::F32,
        }
    }
}

/// What the durability layer did during one replay (one per store in a
/// fleet replay).
#[derive(Debug, Clone, Default)]
pub struct DurabilityReport {
    /// Whether the state directory held a prior image the replay resumed.
    pub resumed: bool,
    /// Snapshot sequence recovery restored from (0 when not resumed).
    pub resumed_from_seq: u64,
    /// Corrupt snapshots skipped before a good one was found.
    pub corrupt_snapshots: usize,
    /// WAL records replayed into the pool on top of the snapshot.
    pub wal_records_replayed: usize,
    /// Whether recovery truncated a corrupt WAL tail.
    pub wal_truncated: bool,
    /// Wall-clock seconds recovery took (0 when not resumed).
    pub recovery_secs: f64,
    /// Pool size right after recovery.
    pub restored_pool_len: usize,
    /// Usable labels in the pool right after recovery.
    pub restored_pool_labeled: usize,
    /// Checkpoints published during this replay.
    pub checkpoints: usize,
    /// Checkpoint attempts that failed (retried at the next commit).
    pub checkpoint_failures: usize,
    /// Labels acknowledged into the WAL during this replay.
    pub wal_appends: usize,
    /// Label appends that failed (label kept in memory, not crash-safe).
    pub wal_append_failures: usize,
    /// Newest checkpoint sequence when the replay ended.
    pub final_seq: u64,
    /// Wall-clock seconds writing checkpoints.
    pub checkpoint_secs: f64,
    /// Wall-clock seconds appending to the WAL.
    pub wal_secs: f64,
}

/// Summarizes `store`'s activity, plus the recovery it opened with (if it
/// resumed a prior image). Call once the adaptation side has joined.
pub(crate) fn durability_report(
    store: &Mutex<DurableStore>,
    rec: Option<&RecoveryReport>,
) -> DurabilityReport {
    let s = store.lock().unwrap_or_else(PoisonError::into_inner);
    let stats = s.stats();
    let mut d = DurabilityReport {
        resumed: rec.is_some(),
        final_seq: s.seq(),
        checkpoints: stats.checkpoints,
        checkpoint_failures: stats.checkpoint_failures,
        wal_appends: stats.wal_appends,
        wal_append_failures: stats.wal_append_failures,
        checkpoint_secs: stats.checkpoint_secs,
        wal_secs: stats.wal_secs,
        ..DurabilityReport::default()
    };
    if let Some(rec) = rec {
        d.resumed_from_seq = rec.snapshot_seq;
        d.corrupt_snapshots = rec.corrupt_snapshots;
        d.wal_records_replayed = rec.wal_records_replayed;
        d.wal_truncated = rec.wal_truncated;
        d.recovery_secs = rec.recovery_secs;
        d.restored_pool_len = rec.pool_len;
        d.restored_pool_labeled = rec.pool_labeled;
    }
    d
}

/// Everything a replay measured.
#[derive(Debug, Clone)]
pub struct ReplayReport {
    /// Requests answered with an estimate.
    pub served: usize,
    /// Requests shed by admission control.
    pub shed: usize,
    /// Requests that failed for any other reason.
    pub errors: usize,
    /// Merged per-request latency (nanoseconds).
    pub latency: LatencyHistogram,
    /// Wall-clock seconds for the serving phase (excludes offline
    /// preparation).
    pub wall_secs: f64,
    /// Served requests per wall-clock second.
    pub throughput_qps: f64,
    /// Model generations published during the run.
    pub generations_published: u64,
    /// Largest `cell version − serving generation` any response observed.
    pub max_staleness: u64,
    /// Order-independent FNV checksum over `(index, estimate bits)` of all
    /// served requests — equal checksums mean bit-identical estimate
    /// streams.
    pub estimates_checksum: u64,
    /// GMQ of served estimates vs fresh ground truth, pre-drift phase.
    pub spot_gmq_pre: Option<f64>,
    /// Same for the post-drift phase.
    pub spot_gmq_post: Option<f64>,
    /// Precision the final published snapshot served at. Equals the
    /// requested [`ReplaySpec::precision`] unless the quantized copy was
    /// refused by the GMQ gate (or the model has no quantized path), in
    /// which case the f64 fallback served.
    pub precision: Precision,
    /// Counters of the serving fleet (batching, shed, rejects).
    pub fleet: FleetStats,
    /// Adaptation stats (adaptation modes only).
    pub adapt: Option<AdaptStats>,
    /// Durability layer activity (only with [`ReplaySpec::durable`]).
    pub durability: Option<DurabilityReport>,
}

/// What one client thread collected.
#[derive(Default)]
struct ClientLog {
    hist: LatencyHistogram,
    results: Vec<(usize, u64)>,
    shed: usize,
    errors: usize,
    max_staleness: u64,
}

/// FNV-1a over the served `(index, bits)` pairs, sorted by index first so
/// the digest is independent of client interleaving.
pub(crate) fn checksum(results: &[(usize, u64)]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut fold = |x: u64| {
        for b in x.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for &(idx, bits) in results {
        fold(idx as u64);
        fold(bits);
    }
    h
}

pub(crate) fn build_controller(
    fmap: &FeatureMap,
    training_set: &[(Vec<f64>, f64)],
    baseline_gmq: f64,
    warper: WarperConfig,
    seed: u64,
) -> WarperController {
    WarperController::new(
        fmap.dim(),
        training_set,
        baseline_gmq,
        warper,
        derive_seed(seed, seed_stream::STRATEGY),
    )
    .with_canonicalizer(fmap.make_canonicalizer())
}

/// Runs one replay against `table`.
///
/// Errors on invalid workload notation or a model that cannot snapshot
/// (serving requires an immutable copy to publish).
pub fn run_replay(table: &Table, spec: &ReplaySpec) -> Result<ReplayReport, WarperError> {
    let n = spec.n_queries;
    let drift_at = spec.drift.as_ref().map(|d| d.at_query.min(n)).unwrap_or(n);

    // ---- Offline phase: train the model, pre-generate the query streams.
    let prepared = prepare_single_table(table, &spec.mix, spec.model, spec.n_train, spec.seed)?;
    let fmap = prepared.fmap.clone();

    let mut loadgen = StdRng::seed_from_u64(derive_seed(spec.seed, seed_stream::LOADGEN));
    let mut gen1 = QueryGenerator::try_from_notation(table, &spec.mix)?;
    let mut preds: Vec<RangePredicate> = gen1.generate_many(drift_at, &mut loadgen);

    // The post-drift table is materialized up front (same DRIFT-stream RNG
    // the live swap uses), so phase-2 queries can be pre-generated against
    // the exact data they will run on.
    let drifted_table: Option<Table> = match spec.drift.as_ref().map(|d| &d.kind) {
        Some(DriftKind::Data(kind)) => {
            let mut t = table.clone();
            let mut rng = StdRng::seed_from_u64(derive_seed(spec.seed, seed_stream::DRIFT));
            kind.apply(&mut t, &mut rng);
            Some(t)
        }
        Some(DriftKind::Workload { .. }) => Some(table.clone()),
        None => None,
    };
    if let (Some(drift), Some(post)) = (spec.drift.as_ref(), drifted_table.as_ref()) {
        let mix2 = match &drift.kind {
            DriftKind::Workload { new_mix } => new_mix.as_str(),
            DriftKind::Data(_) => spec.mix.as_str(),
        };
        let mut gen2 = QueryGenerator::try_from_notation(post, mix2)?;
        preds.extend(gen2.generate_many(n - drift_at, &mut loadgen));
    }
    let feats: Vec<Vec<f64>> = preds.iter().map(|p| fmap.featurize(p)).collect();

    // ---- Durable state directory: recover a prior run's image, if any.
    let durable_err =
        |e: warper_durable::DurabilityError| WarperError::InvalidState(format!("durable: {e}"));
    let mut recovery: Option<RecoveryReport> = None;
    let mut recovered_state = None;
    let mut recovered_model = None;
    let store: Option<Arc<Mutex<DurableStore>>> = match &spec.durable {
        None => None,
        Some(d) => {
            let (s, rec) = DurableStore::open(Arc::clone(&d.vfs), d.cfg).map_err(durable_err)?;
            if let Some(rec) = rec {
                recovery = Some(rec.report);
                recovered_state = Some(rec.state);
                recovered_model = rec.model;
            }
            Some(Arc::new(Mutex::new(s)))
        }
    };

    // ---- Serving state: snapshot for the workers, original for adaptation.
    // A recovered model (same feature space) resumes serving; otherwise the
    // freshly trained one takes over and the recovered controller state
    // still seeds adaptation.
    let adapt_model: Box<dyn CardinalityEstimator> = match recovered_model {
        Some(m) if m.feature_dim() == fmap.dim() => m,
        _ => prepared.model,
    };
    let serving = adapt_model.snapshot().ok_or_else(|| {
        WarperError::InvalidState(format!(
            "{} cannot snapshot; serving requires an immutable copy",
            adapt_model.name()
        ))
    })?;
    // Quantize-and-gate the initial snapshot at the requested precision,
    // probing with the offline training set (the pool is not built yet).
    let quant_tolerance = match &spec.adapt {
        AdaptMode::Background(cfg) => cfg.supervisor.quant_gmq_tolerance,
        AdaptMode::Synchronous { supervisor, .. } => supervisor.quant_gmq_tolerance,
        AdaptMode::None => SupervisorConfig::default().quant_gmq_tolerance,
    };
    let probe_refs: Vec<&[f64]> = prepared
        .training_set
        .iter()
        .map(|(f, _)| f.as_slice())
        .collect();
    let (serving, initial_precision, _) = crate::quant::prepare_serving_model(
        adapt_model.as_ref(),
        serving,
        spec.precision,
        &probe_refs,
        quant_tolerance,
    );
    drop(probe_refs);
    let snapshot = Arc::new(ModelSnapshot::initial(serving).with_precision(initial_precision));
    let shared = Arc::new(RwLock::new(table.clone()));
    let annotator = Annotator::new();

    // ---- Adaptation side. Background mode hands it to the fleet's worker;
    // synchronous mode runs the same step at the segment barriers, seeded
    // from the spec so the whole replay reproduces.
    let adapt_cfg = match &spec.adapt {
        AdaptMode::None => None,
        AdaptMode::Background(cfg) => Some(AdaptConfig {
            seed: spec.seed,
            precision: spec.precision,
            ..*cfg
        }),
        AdaptMode::Synchronous { supervisor, .. } => Some(AdaptConfig {
            supervisor: *supervisor,
            canaries: spec.warper.canaries,
            seed: spec.seed,
            precision: spec.precision,
            ..AdaptConfig::default()
        }),
    };
    let adapt = match adapt_cfg {
        None => None,
        Some(cfg) => {
            // The controller resumes from the recovered image when one
            // exists (its pool already contains every replayed label).
            let ctl = match recovered_state {
                Some(state) => WarperController::from_state(state)?
                    .with_canonicalizer(fmap.make_canonicalizer()),
                None => build_controller(
                    &fmap,
                    &prepared.training_set,
                    prepared.baseline_gmq,
                    spec.warper,
                    spec.seed,
                ),
            };
            // A fresh directory gets an immediate base checkpoint so labels
            // logged before the first commit have a snapshot to replay onto.
            if let Some(store) = &store {
                let mut s = store.lock().unwrap_or_else(PoisonError::into_inner);
                if s.seq() == 0 {
                    let _ = s.checkpoint(&ctl.to_state(), Some(adapt_model.as_ref()));
                }
            }
            Some(ShardAdapt {
                ctl,
                model: adapt_model,
                table: Arc::clone(&shared),
                fmap: fmap.clone(),
                cfg,
                store: store.clone(),
            })
        }
    };
    let background = matches!(spec.adapt, AdaptMode::Background(_));
    let (worker_adapt, barrier_adapt) = if background {
        (adapt, None)
    } else {
        (None, adapt)
    };

    // ---- Segment plan: barriers at the drift point and (synchronous mode)
    // every `invoke_every` queries.
    let mut boundaries: Vec<usize> = vec![0, drift_at, n];
    if let AdaptMode::Synchronous { invoke_every, .. } = &spec.adapt {
        let step = (*invoke_every).max(1);
        boundaries.extend((1..).map(|k| k * step).take_while(|&b| b < n));
    }
    boundaries.sort_unstable();
    boundaries.dedup();

    let fleet = Fleet::start(
        vec![ShardSpec {
            key: ShardKey::new("replay", "main"),
            snapshot,
            adapt: worker_adapt,
        }],
        spec.fleet,
    );
    let cell = Arc::clone(fleet.cell(0).expect("one-shard fleet"));
    let mut barrier_step = barrier_adapt.map(|a| AdaptStep::new(a, Arc::clone(&cell)));
    let handle = fleet.handle();
    let clients = spec.clients.max(1);
    let start = Instant::now();
    let mut logs: Vec<ClientLog> = Vec::with_capacity(clients);

    for w in boundaries.windows(2) {
        let (seg_start, seg_end) = (w[0], w[1]);
        if seg_start == seg_end {
            continue;
        }
        // Serve the segment from `clients` threads, striped by index.
        let seg_logs: Vec<ClientLog> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..clients)
                .map(|c| {
                    let handle = handle.clone();
                    let (fleet, cell, feats) = (&fleet, &cell, &feats);
                    s.spawn(move || {
                        let mut log = ClientLog::default();
                        for idx in (seg_start..seg_end).filter(|i| i % clients == c) {
                            if let Some(p) = &spec.pace {
                                let due =
                                    Duration::from_secs_f64(idx as f64 / p.rate_per_sec.max(1e-9));
                                if let Some(wait) = due.checked_sub(start.elapsed()) {
                                    std::thread::sleep(wait);
                                }
                            }
                            let t0 = Instant::now();
                            match handle.estimate(0, feats[idx].clone()) {
                                Ok(est) => {
                                    log.hist.record_duration(t0.elapsed());
                                    log.results.push((idx, est.value.to_bits()));
                                    let stale = cell.version().saturating_sub(est.generation);
                                    log.max_staleness = log.max_staleness.max(stale);
                                    if background {
                                        fleet.observe(
                                            0,
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
                .map(|h| h.join().expect("client"))
                .collect()
        });
        logs.extend(seg_logs);

        // Barrier work: drift lands, then synchronous adaptation runs.
        if seg_end == drift_at {
            if let Some(post) = drifted_table.as_ref() {
                let mut t = shared.write().unwrap_or_else(PoisonError::into_inner);
                *t = post.clone();
            }
        }
        if let Some(step) = &mut barrier_step {
            let arrived: Vec<ArrivedQuery> = (seg_start..seg_end)
                .map(|idx| ArrivedQuery {
                    features: feats[idx].clone(),
                    gt: None,
                })
                .collect();
            step.run(&arrived);
        }
    }

    let wall_secs = start.elapsed().as_secs_f64();
    let (fleet_stats, _, worker_stats) = fleet.shutdown();
    let adapt_stats = match barrier_step {
        Some(step) => Some(step.finish()),
        None => worker_stats.into_iter().next().map(|(_, a)| a),
    };
    // The adaptation side has joined; the store is idle.
    let durability = store.map(|store| durability_report(&store, recovery.as_ref()));

    // ---- Merge client logs.
    let mut latency = LatencyHistogram::new();
    let mut results: Vec<(usize, u64)> = Vec::with_capacity(n);
    let (mut shed, mut errors, mut max_staleness) = (0usize, 0usize, 0u64);
    for log in logs {
        latency.merge(&log.hist);
        results.extend(log.results);
        shed += log.shed;
        errors += log.errors;
        max_staleness = max_staleness.max(log.max_staleness);
    }
    results.sort_unstable_by_key(|&(idx, _)| idx);

    // ---- Ground-truth spot checks: GMQ of what was actually served vs
    // fresh counts on the table of each phase.
    let spot = |lo: usize, hi: usize, t: &Table| -> Option<f64> {
        if spec.spot_checks == 0 || lo >= hi {
            return None;
        }
        let slice: Vec<&(usize, u64)> = results
            .iter()
            .filter(|(idx, _)| (lo..hi).contains(idx))
            .collect();
        if slice.is_empty() {
            return None;
        }
        let stride = (slice.len() / spec.spot_checks).max(1);
        let picked: Vec<&(usize, u64)> = slice.iter().step_by(stride).copied().collect();
        let checked: Vec<RangePredicate> =
            picked.iter().map(|(idx, _)| preds[*idx].clone()).collect();
        let actuals: Vec<f64> = annotator
            .count_batch(t, &checked)
            .into_iter()
            .map(|c| c as f64)
            .collect();
        let ests: Vec<f64> = picked
            .iter()
            .map(|(_, bits)| f64::from_bits(*bits))
            .collect();
        Some(gmq(&ests, &actuals, PAPER_THETA))
    };
    let spot_gmq_pre = spot(0, drift_at, table);
    let spot_gmq_post = drifted_table
        .as_ref()
        .and_then(|post| spot(drift_at, n, post));

    let served = results.len();
    Ok(ReplayReport {
        served,
        shed,
        errors,
        estimates_checksum: checksum(&results),
        latency,
        wall_secs,
        throughput_qps: served as f64 / wall_secs.max(1e-9),
        generations_published: cell.version(),
        precision: cell.load().1.precision,
        max_staleness,
        spot_gmq_pre,
        spot_gmq_post,
        fleet: fleet_stats,
        adapt: adapt_stats,
        durability,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use warper_storage::{generate, DatasetKind};

    fn small_warper() -> WarperConfig {
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
    fn plain_replay_serves_everything() {
        let table = generate(DatasetKind::Prsa, 1_500, 5);
        let spec = ReplaySpec {
            n_train: 200,
            n_queries: 300,
            clients: 3,
            spot_checks: 20,
            seed: 13,
            ..Default::default()
        };
        let rep = run_replay(&table, &spec).unwrap();
        assert_eq!(rep.served, 300);
        assert_eq!(rep.shed, 0);
        assert_eq!(rep.errors, 0);
        assert_eq!(rep.generations_published, 0);
        assert_eq!(rep.max_staleness, 0);
        assert_eq!(rep.latency.count(), 300);
        assert!(rep.throughput_qps > 0.0);
        let pre = rep.spot_gmq_pre.unwrap();
        assert!(pre >= 1.0 && pre.is_finite());
        assert!(rep.spot_gmq_post.is_none(), "no drift, no post phase");
    }

    #[test]
    fn drift_with_background_adaptation_hot_swaps_without_errors() {
        let table = generate(DatasetKind::Prsa, 2_000, 6);
        let spec = ReplaySpec {
            n_train: 250,
            n_queries: 400,
            clients: 4,
            drift: Some(DriftEvent {
                at_query: 200,
                kind: DriftKind::Workload {
                    new_mix: "w4".into(),
                },
            }),
            adapt: AdaptMode::Background(AdaptConfig {
                invoke_every: 60,
                max_wait: Duration::from_millis(10),
                ..Default::default()
            }),
            warper: small_warper(),
            seed: 17,
            ..Default::default()
        };
        let rep = run_replay(&table, &spec).unwrap();
        assert_eq!(rep.errors, 0);
        assert_eq!(rep.served + rep.shed, 400);
        let adapt = rep.adapt.unwrap();
        assert!(adapt.invocations >= 1, "{adapt:?}");
        assert_eq!(adapt.publish_failures, 0);
        assert_eq!(rep.generations_published, adapt.published as u64);
    }

    #[test]
    fn synchronous_replay_is_bit_deterministic_across_runs_and_client_counts() {
        let table = generate(DatasetKind::Prsa, 1_500, 7);
        let spec = |clients: usize| ReplaySpec {
            n_train: 200,
            n_queries: 240,
            clients,
            drift: Some(DriftEvent {
                at_query: 120,
                kind: DriftKind::Data(DataDriftKind::SortTruncate { col: 1 }),
            }),
            adapt: AdaptMode::Synchronous {
                supervisor: SupervisorConfig::default(),
                invoke_every: 80,
            },
            warper: small_warper(),
            seed: 23,
            ..Default::default()
        };
        let a = run_replay(&table, &spec(1)).unwrap();
        let b = run_replay(&table, &spec(1)).unwrap();
        let c = run_replay(&table, &spec(3)).unwrap();
        assert_eq!(a.served, 240);
        assert_eq!(a.shed + a.errors, 0);
        assert_eq!(
            a.estimates_checksum, b.estimates_checksum,
            "same spec must replay bit-identically"
        );
        assert_eq!(
            a.estimates_checksum, c.estimates_checksum,
            "client count must not change the estimate stream"
        );
        let adapt = a.adapt.unwrap();
        assert!(adapt.invocations >= 2, "{adapt:?}");
        assert_eq!(adapt.invocations, adapt.commits + adapt.rollbacks);
        assert_eq!(adapt.published + adapt.publish_failures, adapt.commits);
        assert_eq!(a.generations_published, adapt.published as u64);
    }
}
