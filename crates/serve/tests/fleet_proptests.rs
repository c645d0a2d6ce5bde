//! Fleet-level properties: packing soundness, shed accounting, and
//! per-shard durable resume.
//!
//! The headline property is **packing bit-identity**: a cross-shard packed
//! batch must answer every request with exactly the bits that shard's
//! snapshot would produce serving its own batch alone. The packer groups by
//! snapshot `Arc` identity and PR 6 guarantees batch-invariant kernels, so
//! this must hold on every backend — the CI portable job re-runs this file
//! with SIMD disabled (`RUSTFLAGS="" CARGO_TARGET_DIR=target/portable`) to
//! cover the scalar kernels with the same properties.

use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use warper_ce::{CardinalityEstimator, LabeledExample, UpdateKind};
use warper_core::runner::ModelKind;
use warper_core::{prepare_single_table, WarperConfig};
use warper_durable::{DurabilityConfig, MemVfs, ScopedVfs, Vfs};
use warper_serve::{
    prepare_serving_model, run_fleet_replay, Fleet, FleetConfig, FleetDurable, FleetReplaySpec,
    ModelSnapshot, Precision, ServeError, ShardKey, ShardSpec,
};
use warper_storage::{generate, DatasetKind};
use warper_workload::QueryGenerator;

// ---------------------------------------------------------------------------
// Fixture: one real quantized LmMlp, one diverged sibling, a feature pool
// ---------------------------------------------------------------------------

struct Fixture {
    /// Pool of featurized queries the proptest draws from.
    feats: Vec<Vec<f64>>,
    /// The shared base snapshot (quantized when the gate admits it) — what
    /// every base shard serves through one `Arc`.
    base: Arc<ModelSnapshot>,
    /// A *diverged* snapshot: different training seed, different weights,
    /// different `Arc`. A shard serving this must pack alone.
    alt: Arc<ModelSnapshot>,
}

fn fixture() -> &'static Fixture {
    static FX: OnceLock<Fixture> = OnceLock::new();
    FX.get_or_init(|| {
        let table = generate(DatasetKind::Prsa, 1_000, 4);
        let prepared = prepare_single_table(&table, "w1", ModelKind::LmMlp, 150, 11)
            .expect("fixture training");
        let mut rng = StdRng::seed_from_u64(5);
        let mut qgen = QueryGenerator::try_from_notation(&table, "w1").expect("fixture workload");
        let feats: Vec<Vec<f64>> = qgen
            .generate_many(64, &mut rng)
            .iter()
            .map(|p| prepared.fmap.featurize(p))
            .collect();
        let probes: Vec<&[f64]> = prepared
            .training_set
            .iter()
            .map(|(f, _)| f.as_slice())
            .collect();
        let serving = prepared.model.snapshot().expect("LmMlp snapshots");
        // Infinite tolerance: always admit the quantized copy, so the
        // packed path runs the int8 kernels wherever they are compiled in.
        let (serving, precision, _) = prepare_serving_model(
            prepared.model.as_ref(),
            serving,
            Precision::Int8,
            &probes,
            f64::INFINITY,
        );
        let base = Arc::new(ModelSnapshot::initial(serving).with_precision(precision));
        let alt_prep = prepare_single_table(&table, "w1", ModelKind::LmMlp, 150, 23)
            .expect("fixture alt training");
        let alt = Arc::new(ModelSnapshot::initial(
            alt_prep.model.snapshot().expect("LmMlp snapshots"),
        ));
        Fixture { feats, base, alt }
    })
}

// ---------------------------------------------------------------------------
// Packing bit-identity
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig { cases: 10 })]

    /// Arbitrary shard counts, per-shard batches, and one optionally
    /// diverged shard: every fleet answer is bitwise the answer the shard's
    /// own snapshot gives its batch in isolation.
    #[test]
    fn cross_shard_packs_are_bit_identical_to_isolated_serving(
        picks in prop::collection::vec(prop::collection::vec(0usize..64, 0..8), 2..6),
        diverge_flag in 0u8..2,
    ) {
        let diverge_last = diverge_flag == 1;
        let fx = fixture();
        let n_shards = picks.len();
        let snap_of = |shard: usize| -> &Arc<ModelSnapshot> {
            if diverge_last && shard == n_shards - 1 { &fx.alt } else { &fx.base }
        };
        let specs = (0..n_shards)
            .map(|i| ShardSpec {
                key: ShardKey::new(format!("tenant-{i}"), "main"),
                snapshot: Arc::clone(snap_of(i)),
                adapt: None,
            })
            .collect();
        let fleet = Fleet::start(specs, FleetConfig {
            workers: 2,
            pack_linger: Duration::from_millis(2),
            ..FleetConfig::default()
        });
        let handle = fleet.handle();

        // One thread per request so shards genuinely queue and pack.
        let answers: Vec<(usize, usize, u64)> = std::thread::scope(|s| {
            let mut joins = Vec::new();
            for (shard, idxs) in picks.iter().enumerate() {
                for &q in idxs {
                    let handle = handle.clone();
                    joins.push(s.spawn(move || {
                        let est = handle
                            .estimate(shard as u32, fx.feats[q].clone())
                            .expect("base fleet never sheds here");
                        (shard, q, est.value.to_bits())
                    }));
                }
            }
            joins.into_iter().map(|j| j.join().expect("client")).collect()
        });

        // Oracle: each shard's batch served alone by its own snapshot.
        for shard in 0..n_shards {
            let mine: Vec<&(usize, usize, u64)> =
                answers.iter().filter(|(s, _, _)| *s == shard).collect();
            let batch: Vec<&[f64]> =
                mine.iter().map(|(_, q, _)| fx.feats[*q].as_slice()).collect();
            let alone = snap_of(shard).model.estimate_many(&batch);
            for ((_, q, bits), expect) in mine.iter().zip(alone) {
                prop_assert_eq!(
                    *bits,
                    expect.to_bits(),
                    "shard {} query {} diverged from isolated serving",
                    shard,
                    q
                );
            }
        }

        let total: u64 = picks.iter().map(|v| v.len() as u64).sum();
        let stats = fleet.stats();
        prop_assert_eq!(stats.served, total);
        prop_assert_eq!(stats.packed_requests, total);
        prop_assert_eq!(stats.shed + stats.shed_deadline + stats.rejected, 0);
        drop(fleet);
    }
}

// ---------------------------------------------------------------------------
// Admission vs deadline shed accounting
// ---------------------------------------------------------------------------

/// A deliberately slow toy model: holds each estimate long enough that a
/// tiny admission queue must overflow under concurrent offered load.
/// Answers `base + f[0]`.
struct SlowModel {
    delay: Duration,
    base: f64,
}

impl CardinalityEstimator for SlowModel {
    fn feature_dim(&self) -> usize {
        2
    }
    fn estimate(&self, f: &[f64]) -> f64 {
        if !self.delay.is_zero() {
            std::thread::sleep(self.delay);
        }
        self.base + f[0]
    }
    fn fit(&mut self, _e: &[LabeledExample]) {}
    fn update(&mut self, _e: &[LabeledExample]) {}
    fn update_kind(&self) -> UpdateKind {
        UpdateKind::FineTune
    }
    fn name(&self) -> &'static str {
        "slow-toy"
    }
}

fn toy_fleet(n_shards: usize, delay: Duration, cfg: FleetConfig) -> Fleet {
    let specs = (0..n_shards)
        .map(|i| ShardSpec {
            key: ShardKey::new(format!("toy-{i}"), "main"),
            snapshot: Arc::new(ModelSnapshot::initial(Box::new(SlowModel {
                delay,
                base: 100.0,
            }))),
            adapt: None,
        })
        .collect();
    Fleet::start(specs, cfg)
}

#[test]
fn unknown_shard_is_rejected_not_shed() {
    let fleet = toy_fleet(2, Duration::ZERO, FleetConfig::default());
    let handle = fleet.handle();
    match handle.estimate(7, vec![0.1, 0.2]) {
        Err(ServeError::UnknownShard { shard: 7 }) => {}
        other => panic!("expected UnknownShard, got {other:?}"),
    }
    let stats = fleet.stats();
    assert_eq!(stats.shed + stats.shed_deadline + stats.served, 0);
}

#[test]
fn zero_queue_deadline_counts_every_request_as_deadline_shed() {
    let fleet = toy_fleet(
        1,
        Duration::ZERO,
        FleetConfig {
            workers: 1,
            queue_deadline: Some(Duration::ZERO),
            ..FleetConfig::default()
        },
    );
    let handle = fleet.handle();
    for _ in 0..20 {
        match handle.estimate(0, vec![0.3, 0.4]) {
            Err(ServeError::ShedDeadline) => {}
            other => panic!("expected ShedDeadline, got {other:?}"),
        }
    }
    let (stats, per_shard, _) = fleet.shutdown();
    assert_eq!(stats.served, 0);
    assert_eq!(stats.shed, 0, "deadline sheds must not leak into admission");
    assert_eq!(stats.shed_deadline, 20);
    assert_eq!(per_shard[0].shed_deadline, 20);
}

#[test]
fn queue_overflow_counts_as_admission_shed_only() {
    // Each estimate holds the single worker 20ms; 6 producers hammer a
    // capacity-1 queue, so most pushes find it full and shed at admission.
    let fleet = toy_fleet(
        1,
        Duration::from_millis(20),
        FleetConfig {
            workers: 1,
            per_shard_queue: 1,
            max_packed_batch: 1,
            quantum: 1,
            pack_linger: Duration::ZERO,
            ..FleetConfig::default()
        },
    );
    let handle = fleet.handle();
    let outcomes = Arc::new(Mutex::new((0u64, 0u64))); // (served, shed)
    std::thread::scope(|s| {
        for _ in 0..6 {
            let handle = handle.clone();
            let outcomes = Arc::clone(&outcomes);
            s.spawn(move || {
                for _ in 0..5 {
                    match handle.estimate(0, vec![0.5, 0.6]) {
                        Ok(_) => outcomes.lock().unwrap().0 += 1,
                        Err(ServeError::Shed) => outcomes.lock().unwrap().1 += 1,
                        Err(e) => panic!("unexpected error: {e:?}"),
                    }
                }
            });
        }
    });
    let (served, shed) = *outcomes.lock().unwrap();
    let (stats, per_shard, _) = fleet.shutdown();
    assert_eq!(served + shed, 30);
    assert_eq!(stats.served, served);
    assert_eq!(stats.shed, shed, "client-visible sheds must match counters");
    assert!(shed > 0, "capacity-1 queue under 6 producers must overflow");
    assert_eq!(
        stats.shed_deadline, 0,
        "admission sheds must not leak into the deadline counter"
    );
    assert_eq!(per_shard[0].shed, shed);
}

// ---------------------------------------------------------------------------
// One-shard fleets: the single-tenant serving core
// ---------------------------------------------------------------------------

#[test]
fn feature_dim_mismatch_is_rejected_for_that_request_only() {
    let fleet = toy_fleet(1, Duration::ZERO, FleetConfig::single_tenant());
    let handle = fleet.handle();
    assert_eq!(
        handle.estimate(0, vec![0.0; 5]),
        Err(ServeError::FeatureDim {
            expected: 2,
            got: 5
        })
    );
    assert_eq!(handle.estimate(0, vec![1.0, 0.0]).unwrap().value, 101.0);
    let (stats, _, _) = fleet.shutdown();
    assert_eq!(stats.rejected, 1);
    assert_eq!(stats.served, 1);
}

#[test]
fn requests_after_shutdown_are_closed_not_hung() {
    let fleet = toy_fleet(1, Duration::ZERO, FleetConfig::single_tenant());
    let handle = fleet.handle();
    drop(fleet);
    assert_eq!(handle.estimate(0, vec![0.0; 2]), Err(ServeError::Closed));
}

#[test]
fn published_snapshot_takes_over_new_requests() {
    let fleet = toy_fleet(1, Duration::ZERO, FleetConfig::single_tenant());
    let handle = fleet.handle();
    assert_eq!(handle.estimate(0, vec![0.0; 2]).unwrap().value, 100.0);
    fleet.cell(0).unwrap().publish(ModelSnapshot {
        generation: 1,
        model: Box::new(SlowModel {
            delay: Duration::ZERO,
            base: 5.0,
        }),
        precision: Precision::F64,
    });
    let est = handle.estimate(0, vec![0.0; 2]).unwrap();
    assert_eq!(est.value, 5.0);
    assert_eq!(est.generation, 1);
}

// ---------------------------------------------------------------------------
// Per-shard durable resume through the replay harness
// ---------------------------------------------------------------------------

fn durable_fleet_spec(mem: &MemVfs, seed: u64) -> FleetReplaySpec {
    let mem = mem.clone();
    FleetReplaySpec {
        shards: 4,
        adapt_shards: 2,
        n_train: 150,
        n_queries: 160,
        clients: 2,
        warper: WarperConfig {
            embed_dim: 6,
            hidden: 16,
            n_i: 5,
            pretrain_epochs: 2,
            gamma: 80,
            n_p: 40,
            ..Default::default()
        },
        seed,
        durable: Some(FleetDurable {
            cfg: DurabilityConfig {
                checkpoint_every: 1,
            },
            vfs_for: Box::new(move |key: &ShardKey| {
                Ok(
                    Arc::new(ScopedVfs::new(Arc::new(mem.clone()), &key.dir_name())?)
                        as Arc<dyn Vfs>,
                )
            }),
        }),
        ..Default::default()
    }
}

#[test]
fn fleet_replay_resumes_every_adapting_shard_from_its_own_lineage() {
    let table = generate(DatasetKind::Poker, 1_200, 4);
    let mem = MemVfs::new();

    let first = run_fleet_replay(&table, &durable_fleet_spec(&mem, 41)).expect("first fleet run");
    assert_eq!(first.durability.len(), 2, "both adapting shards own stores");
    for (id, d) in &first.durability {
        assert!(!d.resumed, "shard {id}: first run starts a fresh lineage");
        assert!(d.checkpoints > 0, "shard {id}: base checkpoint must land");
    }
    mem.power_cut();

    let second = run_fleet_replay(&table, &durable_fleet_spec(&mem, 43)).expect("second fleet run");
    assert_eq!(second.served + second.shed, 160);
    assert_eq!(second.durability.len(), 2);
    for (id, d) in &second.durability {
        assert!(d.resumed, "shard {id}: second run must resume its lineage");
        assert!(
            d.restored_pool_len > 0,
            "shard {id}: resumed pool must be non-empty"
        );
    }

    // The two lineages stayed disjoint in the shared directory.
    let names = mem.list().expect("list");
    let k0 = ShardKey::new("tenant-0000", "main").dir_name();
    let k1 = ShardKey::new("tenant-0001", "main").dir_name();
    assert!(names.iter().any(|n| n.starts_with(&format!("{k0}#"))));
    assert!(names.iter().any(|n| n.starts_with(&format!("{k1}#"))));
    for n in &names {
        assert!(
            n.starts_with(&format!("{k0}#")) || n.starts_with(&format!("{k1}#")),
            "unscoped file {n:?} in the fleet state directory"
        );
    }
}
