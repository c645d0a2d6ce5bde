//! Pins of the single-tenant serving output.
//!
//! Two end-to-end digests are compared with constants, so any change to
//! the serving core that moves a single served bit fails here:
//!
//! * the synchronous-replay estimate checksum (drift + barrier
//!   adaptation), served at f64;
//! * the network load generator's checksum against a primary node.
//!
//! Both run on the f64 paths only. The f64 training and inference kernels
//! are bit-identical at every SIMD tier (DESIGN.md §3.7), so the constants
//! do not depend on the host — ci.sh also runs this file on the portable
//! build.

use std::sync::Arc;
use std::time::Duration;

use warper_core::runner::{DataDriftKind, ModelKind};
use warper_core::{SupervisorConfig, WarperConfig};
use warper_durable::MemVfs;
use warper_serve::net::{run_net_loadgen, NetLoadSpec, PrimaryNode, PrimarySpec, RetryPolicy};
use warper_serve::{run_replay, AdaptMode, DriftEvent, DriftKind, Precision, ReplaySpec};
use warper_storage::{generate, DatasetKind};

/// `estimates_checksum` of the synchronous replay below.
const SYNC_REPLAY_CHECKSUM: u64 = 0x8767_e74c_c0e7_49c0;

/// `NetLoadReport::checksum` of the load run below.
const NET_LOADGEN_CHECKSUM: u64 = 0x4c05_5e8d_9db6_5e23;

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
fn synchronous_replay_checksum_is_pinned() {
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
        precision: Precision::F64,
        ..Default::default()
    };
    for clients in [1, 3] {
        let rep = run_replay(&table, &spec(clients)).unwrap();
        assert_eq!(rep.served, 240);
        assert_eq!(rep.shed + rep.errors, 0);
        assert_eq!(
            rep.estimates_checksum, SYNC_REPLAY_CHECKSUM,
            "synchronous replay moved ({clients} clients): {:#x}",
            rep.estimates_checksum
        );
    }
}

#[test]
fn net_loadgen_checksum_is_pinned() {
    let table = generate(DatasetKind::Prsa, 1_200, 7);
    let primary = PrimaryNode::start(
        &table,
        Arc::new(MemVfs::new()),
        "127.0.0.1:0",
        PrimarySpec {
            n_train: 120,
            seed: 11,
            warper: WarperConfig {
                embed_dim: 6,
                hidden: 16,
                n_i: 4,
                pretrain_epochs: 1,
                gamma: 60,
                n_p: 30,
                ..Default::default()
            },
            ..Default::default()
        },
    )
    .expect("primary starts");
    let rep = run_net_loadgen(
        &table,
        &NetLoadSpec {
            endpoints: vec![primary.addr().to_string()],
            clients: 3,
            n_queries: 60,
            mix: "w1".into(),
            model: ModelKind::LmMlp,
            seed: 77,
            policy: RetryPolicy {
                max_attempts: 6,
                base_backoff: Duration::from_millis(2),
                max_backoff: Duration::from_millis(40),
                op_deadline: Duration::from_millis(500),
            },
            connect_timeout: Duration::from_millis(250),
            ..Default::default()
        },
    )
    .expect("load run");
    primary.shutdown();
    // Nothing was observed, so every answer came from generation 0.
    assert_eq!(rep.ok, 60, "every query answered: {rep:?}");
    assert_eq!(
        rep.checksum, NET_LOADGEN_CHECKSUM,
        "primary's answers moved: {:#x}",
        rep.checksum
    );
}
