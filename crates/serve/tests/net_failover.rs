//! Fault-injected failover suite for the networked estimation service.
//!
//! The replication invariant under test (DESIGN.md §11): once
//! `append_label_replicated` returns [`AckLevel::Replicated`], that label
//! survives failover — it is recoverable from the *standby's* directory —
//! and the standby only ever promotes through full recovery of a validated
//! image. The suite drives the production connection handler
//! (`serve_connection`) and standby applier over in-memory duplex pipes
//! wrapped in [`FailpointNet`], cutting / delaying / tearing / garbling the
//! replication link at a chosen operation, then recovers the standby's
//! directory and checks every replicated-acked label is present.
//!
//! The deterministic tests and a small fault subset always run; the
//! kill-at-every-op sweep for every fault kind and the larger randomized
//! schedules are behind `--features faults` (same convention as
//! `warper-durable`'s crash_recovery suite).

use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock, PoisonError};
use std::time::{Duration, Instant};

use warper_ce::lm::LmLinear;
use warper_core::{WarperConfig, WarperController, WarperState};
use warper_durable::{DurabilityConfig, DurableStore, MemVfs};
use warper_serve::net::{
    mem_pair, serve_connection, AckLevel, AckMode, ByteStream, FailpointNet, FrameConn, Msg,
    NetFailPlan, NetFaultKind, NetServerConfig, ReplHub, ReplicatedStore, Role, ServerCore,
    StandbyApplier, NET_PROTO,
};
use warper_serve::{Fleet, FleetConfig, ModelSnapshot, ShardKey, ShardSpec, SnapshotCell};

/// A one-shard fleet serving a fresh `LmLinear` — the estimate side of a
/// node whose replication link is under test.
fn linear_fleet(cfg: FleetConfig) -> Fleet {
    Fleet::start(
        vec![ShardSpec {
            key: ShardKey::new("node", "main"),
            snapshot: Arc::new(ModelSnapshot::initial(Box::new(LmLinear::new(4)))),
            adapt: None,
        }],
        cfg,
    )
}

/// One healthy controller state, built once (controller construction
/// pre-trains the GAN — too slow to repeat per fault schedule).
fn base_state() -> &'static WarperState {
    static STATE: OnceLock<WarperState> = OnceLock::new();
    STATE.get_or_init(|| {
        let cfg = WarperConfig {
            embed_dim: 6,
            hidden: 16,
            n_i: 8,
            pretrain_epochs: 2,
            gamma: 100,
            ..Default::default()
        };
        let train: Vec<(Vec<f64>, f64)> = (0..40)
            .map(|i| (vec![0.2 + 0.001 * (i % 7) as f64; 4], 300.0))
            .collect();
        WarperController::new(4, &train, 1.5, cfg, 42).to_state()
    })
}

type Label = (Vec<f64>, f64);

fn label_for(step: usize) -> Label {
    (
        vec![
            0.30 + 0.002 * (step % 50) as f64,
            0.40,
            0.50,
            0.60 + 0.001 * (step / 50) as f64,
        ],
        1_000.0 + step as f64,
    )
}

fn label_key(features: &[f64], gt: f64) -> (Vec<u64>, u64) {
    (features.iter().map(|v| v.to_bits()).collect(), gt.to_bits())
}

const LABELS: usize = 8;
const CHECKPOINT_EVERY_LABELS: usize = 3;

/// What one primary → faulty-link → standby run produced.
struct Scenario {
    /// Labels acknowledged at [`AckLevel::Replicated`] before the fault.
    replicated: Vec<Label>,
    /// The standby's directory, exactly as the link death left it.
    standby_vfs: MemVfs,
    /// The standby's applier, for the promotion-gate check.
    applier: StandbyApplier,
    /// Byte-stream operations the standby performed (the sweep bound).
    ops: u64,
}

/// Run the production pipeline over an in-memory link with an optional
/// injected fault: a replicated `DurableStore` behind `serve_connection`
/// on one end, a `StandbyApplier` loop on the other, and a driver thread
/// appending labels in `AckMode::Replicated` with periodic checkpoints.
fn run_scenario(plan: Option<NetFailPlan>, n_labels: usize) -> Scenario {
    let primary_vfs = MemVfs::new();
    let (store, _) = DurableStore::open(Arc::new(primary_vfs.clone()), DurabilityConfig::default())
        .expect("fresh primary dir opens");
    let hub = Arc::new(ReplHub::new());
    let repl = ReplicatedStore::new(store, Arc::clone(&hub), Duration::from_millis(150));
    let mut state = base_state().clone();
    let model = LmLinear::new(4);
    {
        // Startup checkpoint after the tap is installed, so the oldest hub
        // entry a subscriber fetches is a full snapshot (node.rs does the
        // same).
        let mut s = repl.store.lock().unwrap_or_else(PoisonError::into_inner);
        s.checkpoint(&state, Some(&model))
            .expect("startup checkpoint");
    }

    // The handler needs a live fleet handle even though this scenario
    // never sends estimate traffic over the replication link.
    let fleet = linear_fleet(FleetConfig {
        workers: 1,
        ..FleetConfig::single_tenant()
    });
    let core = ServerCore::new_fleet(fleet.handle(), true, Some(Arc::clone(&hub)));
    let cfg = NetServerConfig {
        read_deadline: Duration::from_secs(2),
        write_deadline: Duration::from_secs(2),
        hello_deadline: Duration::from_secs(2),
        repl_poll: Duration::from_millis(5),
    };
    let (srv, cli) = mem_pair();
    let kill = srv.try_clone().expect("mem stream clones");
    let server = {
        let core = Arc::clone(&core);
        std::thread::spawn(move || serve_connection(srv, &core, &cfg))
    };

    // Standby: subscribe through the failpoint, validate-and-apply, ack.
    // Any link error abandons the link (production reconnects; here the
    // death point *is* the experiment).
    let standby_vfs = MemVfs::new();
    let dead = Arc::new(AtomicBool::new(false));
    let standby = {
        let dead = Arc::clone(&dead);
        let svfs = Arc::new(standby_vfs.clone());
        std::thread::spawn(move || {
            let mut fp = match plan {
                Some(p) => FailpointNet::with_plan(cli, p),
                None => FailpointNet::new(cli),
            };
            let _ = fp.set_read_deadline(Some(Duration::from_secs(2)));
            let _ = fp.set_write_deadline(Some(Duration::from_secs(2)));
            let scell = Arc::new(SnapshotCell::new(ModelSnapshot::initial(Box::new(
                LmLinear::new(4),
            ))));
            let mut applier = StandbyApplier::new(svfs, scell);
            let mut conn = FrameConn::new(fp);
            let subscribed = conn
                .send(&Msg::Hello {
                    role: Role::Standby,
                    proto: NET_PROTO,
                })
                .and_then(|()| conn.send(&Msg::ReplAck { watermark: 0 }));
            if subscribed.is_ok() {
                // Any non-Repl message or link error kills the loop.
                while let Ok(Msg::Repl { idx, event }) = conn.recv() {
                    if idx <= applier.watermark() {
                        continue;
                    }
                    if applier.apply(idx, &event).is_err() {
                        break;
                    }
                    let ack = Msg::ReplAck {
                        watermark: applier.watermark(),
                    };
                    if conn.send(&ack).is_err() {
                        break;
                    }
                }
            }
            dead.store(true, Ordering::Release);
            let ops = conn.stream().ops();
            (applier, ops)
        })
    };

    // Drive: replicated appends mirrored into the checkpointed state,
    // exactly like the serving commit hook. Once the standby is known
    // dead, fall back to local acks so the run stays fast — those labels
    // carry no replication guarantee.
    let mut replicated = Vec::new();
    for step in 0..n_labels {
        let (features, gt) = label_for(step);
        let mode = if dead.load(Ordering::Acquire) {
            AckMode::Local
        } else {
            AckMode::Replicated
        };
        if let Ok(AckLevel::Replicated) = repl.append_label_replicated(&features, gt, true, mode) {
            replicated.push((features.clone(), gt));
        }
        state.pool.append_new(&[(features, Some(gt))]);
        if (step + 1) % CHECKPOINT_EVERY_LABELS == 0 {
            let mut s = repl.store.lock().unwrap_or_else(PoisonError::into_inner);
            let _ = s.checkpoint(&state, Some(&model));
        }
    }

    // The crash: sever the link without draining, then collect both ends.
    core.stop();
    kill.shutdown();
    let (applier, ops) = standby.join().expect("standby thread joins");
    let _ = server.join();
    fleet.shutdown();
    Scenario {
        replicated,
        standby_vfs,
        applier,
        ops,
    }
}

/// The invariant: recover the standby's directory (after a simulated power
/// cut dropping unsynced bytes) and check it validates and holds every
/// replicated-acked label.
fn check_invariant(sc: &Scenario, context: &str) {
    sc.standby_vfs.power_cut();
    let (_, recovered) = DurableStore::open(
        Arc::new(sc.standby_vfs.clone()),
        DurabilityConfig::default(),
    )
    .unwrap_or_else(|e| panic!("{context}: standby recovery failed: {e}"));
    let Some(rec) = recovered else {
        assert!(
            sc.replicated.is_empty(),
            "{context}: {} replicated-acked labels but the standby has no recoverable image",
            sc.replicated.len()
        );
        return;
    };
    rec.state
        .validate()
        .unwrap_or_else(|e| panic!("{context}: standby recovered an invalid state: {e}"));
    if !sc.replicated.is_empty() {
        assert!(
            rec.model.is_some(),
            "{context}: standby image must carry a serving model for promotion"
        );
    }
    let have: HashSet<(Vec<u64>, u64)> = rec
        .state
        .pool
        .records()
        .iter()
        .filter_map(|r| r.gt.map(|g| label_key(&r.features, g)))
        .collect();
    for (features, gt) in &sc.replicated {
        assert!(
            have.contains(&label_key(features, *gt)),
            "{context}: replicated-acked label gt={gt} lost on the standby \
             (recovered snap {}, {} wal records)",
            rec.report.snapshot_seq,
            rec.report.wal_records_replayed
        );
    }
}

/// The promotion gate: a standby with a validated checkpoint promotes
/// through full recovery; one without refuses — and replication acks can
/// only exist once the gate is open.
fn check_promotion_gate(sc: &mut Scenario, context: &str) {
    let promoted = sc.applier.promote(DurabilityConfig::default());
    if sc.applier.promotable() {
        let p = promoted
            .unwrap_or_else(|e| panic!("{context}: promotable standby failed to promote: {e}"));
        assert!(p.generation >= 1, "{context}: promotion publishes a model");
    } else {
        assert!(
            promoted.is_err(),
            "{context}: standby without a validated checkpoint must refuse promotion"
        );
        assert!(
            sc.replicated.is_empty(),
            "{context}: replicated acks require an applied (validated) checkpoint"
        );
    }
}

// ---------------------------------------------------------------------------
// Deterministic tests (always run)
// ---------------------------------------------------------------------------

#[test]
fn clean_link_replicates_and_promotes_every_label() {
    let mut sc = run_scenario(None, LABELS);
    assert_eq!(
        sc.replicated.len(),
        LABELS,
        "healthy link must replicate-ack every label"
    );
    assert!(sc.ops > 0, "counting failpoint saw the traffic");
    check_invariant(&sc, "clean link");
    check_promotion_gate(&mut sc, "clean link");
}

#[test]
fn fault_subset_never_loses_a_replicated_ack() {
    // A spread of early / hello-phase / steady-state ops; the full
    // kill-at-every-op sweep runs under --features faults.
    for kind in [
        NetFaultKind::Cut,
        NetFaultKind::Delay,
        NetFaultKind::Torn,
        NetFaultKind::Garbage,
    ] {
        for at_op in [0, 1, 2, 4, 7, 12] {
            let plan = NetFailPlan { at_op, kind };
            let mut sc = run_scenario(Some(plan), LABELS);
            let context = format!("{kind:?}@op{at_op}");
            check_invariant(&sc, &context);
            check_promotion_gate(&mut sc, &context);
        }
    }
}

#[test]
fn clients_get_typed_errors_and_never_hang_across_link_faults() {
    use std::collections::VecDeque;
    use std::sync::Mutex;
    use warper_serve::net::{Dialer, EstimateClient, NetError, RetryPolicy};

    /// Dials spin up a fresh `serve_connection` thread over a mem pipe;
    /// queued fault plans poison successive connections.
    struct MemDialer {
        cores: Vec<Arc<ServerCore>>,
        cfg: NetServerConfig,
        plans: Arc<Mutex<VecDeque<NetFailPlan>>>,
    }
    impl Dialer for MemDialer {
        fn endpoints(&self) -> usize {
            self.cores.len()
        }
        fn dial(&mut self, endpoint: usize) -> Result<Box<dyn ByteStream>, NetError> {
            let (srv, cli) = mem_pair();
            let core = Arc::clone(&self.cores[endpoint]);
            let cfg = self.cfg;
            std::thread::spawn(move || serve_connection(srv, &core, &cfg));
            let plan = self
                .plans
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .pop_front();
            Ok(match plan {
                Some(p) => Box::new(FailpointNet::with_plan(cli, p)),
                None => Box::new(cli),
            })
        }
    }

    let fleet = linear_fleet(FleetConfig::single_tenant());
    let core = ServerCore::new_fleet(fleet.handle(), true, None);
    let cfg = NetServerConfig {
        read_deadline: Duration::from_millis(500),
        write_deadline: Duration::from_millis(500),
        hello_deadline: Duration::from_millis(500),
        repl_poll: Duration::from_millis(10),
    };
    let policy = RetryPolicy {
        max_attempts: 4,
        base_backoff: Duration::from_millis(2),
        max_backoff: Duration::from_millis(10),
        op_deadline: Duration::from_millis(300),
    };
    // Worst case per call: every attempt burns a full op deadline plus a
    // maximal backoff (plus scheduling slack).
    let per_call_bound = Duration::from_secs(3);

    // One faulty connection per kind, interleaved with healthy ones.
    let plans: VecDeque<NetFailPlan> = [
        NetFaultKind::Cut,
        NetFaultKind::Delay,
        NetFaultKind::Torn,
        NetFaultKind::Garbage,
    ]
    .into_iter()
    .map(|kind| NetFailPlan { at_op: 3, kind })
    .collect();
    let dialer = MemDialer {
        cores: vec![Arc::clone(&core)],
        cfg,
        plans: Arc::new(Mutex::new(plans)),
    };
    let mut client = EstimateClient::new(Box::new(dialer), policy, 0xBEEF);

    let mut ok = 0u32;
    for i in 0..12 {
        let t0 = Instant::now();
        let res = client.estimate(&[0.25, 0.5, 0.75, 0.125]);
        let took = t0.elapsed();
        assert!(
            took < per_call_bound,
            "call {i} exceeded the retry bound: {took:?} ({res:?})"
        );
        if res.is_ok() {
            ok += 1;
        }
        // Shed/Rejected/Unavailable/Disconnected are all typed outcomes;
        // reaching here at all proves the call did not hang.
    }
    assert!(
        ok >= 8,
        "bounded retry must absorb the four injected faults (ok={ok}/12)"
    );
    core.stop();
    fleet.shutdown();
}

// ---------------------------------------------------------------------------
// Exhaustive sweeps and randomized schedules (--features faults)
// ---------------------------------------------------------------------------

/// Kill the replication link at *every* reachable byte-stream operation,
/// for every fault kind, and prove the invariant each time. The bound
/// comes from a counting-mode run of the same workload.
#[cfg(feature = "faults")]
#[test]
fn kill_at_every_op_for_every_fault_kind() {
    let clean = run_scenario(None, LABELS);
    assert_eq!(clean.replicated.len(), LABELS);
    let total_ops = clean.ops;
    assert!(total_ops > 10, "sweep bound is implausibly small");
    for kind in [
        NetFaultKind::Cut,
        NetFaultKind::Delay,
        NetFaultKind::Torn,
        NetFaultKind::Garbage,
    ] {
        for at_op in 0..total_ops {
            let plan = NetFailPlan { at_op, kind };
            let mut sc = run_scenario(Some(plan), LABELS);
            let context = format!("sweep {kind:?}@op{at_op}/{total_ops}");
            check_invariant(&sc, &context);
            check_promotion_gate(&mut sc, &context);
        }
    }
}

mod random_schedules {
    use super::*;
    use proptest::prelude::*;

    fn kind_from(ix: usize) -> NetFaultKind {
        [
            NetFaultKind::Cut,
            NetFaultKind::Delay,
            NetFaultKind::Torn,
            NetFaultKind::Garbage,
        ][ix % 4]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(if cfg!(feature = "faults") { 32 } else { 6 }))]

        /// Random (op, fault, label-count) schedules: replicated acks
        /// survive, and promotion is gated on a validated checkpoint.
        #[test]
        fn replicated_acks_survive_any_single_link_fault(
            at_op in 0u64..48,
            kind_ix in 0usize..4,
            n_labels in 3usize..10,
        ) {
            let plan = NetFailPlan { at_op, kind: kind_from(kind_ix) };
            let mut sc = run_scenario(Some(plan), n_labels);
            let context = format!("prop {:?}@op{at_op} n={n_labels}", plan.kind);
            check_invariant(&sc, &context);
            check_promotion_gate(&mut sc, &context);
        }
    }
}
