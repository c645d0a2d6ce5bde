//! End-to-end TCP coverage: a real primary + warm standby over loopback
//! sockets, the deterministic network load generator, and a live failover.
//!
//! Two properties pinned here:
//!
//! * **Determinism over the network**: two `run_net_loadgen` runs with the
//!   same seed against equivalent primaries produce the same FNV checksum —
//!   seed threading (`LOADGEN` for queries, `derive_seed(NET, client)` for
//!   per-connection jitter) makes the distributed run bit-reproducible
//!   regardless of thread interleaving.
//! * **Failover**: killing the primary mid-run promotes the standby through
//!   the full recovery path, and clients holding both endpoints rotate onto
//!   it and keep getting answers — typed refusals in between, never hangs.

use std::sync::Arc;
use std::time::Duration;

use warper_ce::{CardinalityEstimator, LabeledExample, UpdateKind};
use warper_core::runner::ModelKind;
use warper_core::WarperConfig;
use warper_durable::{DurabilityConfig, MemVfs};
use warper_serve::net::{
    run_net_loadgen, AckMode, ClientError, EstimateClient, NetLoadSpec, NetServer, NetServerConfig,
    PrimaryNode, PrimarySpec, RetryPolicy, ServerCore, StandbyConfig, StandbyNode, TcpDialer,
};
use warper_serve::{Fleet, FleetConfig, ModelSnapshot, ShardKey, ShardSpec};
use warper_storage::{generate, DatasetKind, Table};

fn small_table() -> Table {
    generate(DatasetKind::Prsa, 1_200, 7)
}

fn quick_spec(seed: u64) -> PrimarySpec {
    PrimarySpec {
        n_train: 120,
        seed,
        warper: WarperConfig {
            embed_dim: 6,
            hidden: 16,
            n_i: 4,
            pretrain_epochs: 1,
            gamma: 60,
            n_p: 30,
            ..Default::default()
        },
        fleet: FleetConfig {
            workers: 2,
            ..FleetConfig::single_tenant()
        },
        ..Default::default()
    }
}

fn load_spec(endpoints: Vec<String>, seed: u64, n_queries: usize) -> NetLoadSpec {
    NetLoadSpec {
        endpoints,
        clients: 3,
        n_queries,
        mix: "w1".into(),
        model: ModelKind::LmMlp,
        seed,
        policy: RetryPolicy {
            max_attempts: 6,
            base_backoff: Duration::from_millis(2),
            max_backoff: Duration::from_millis(40),
            op_deadline: Duration::from_millis(500),
        },
        connect_timeout: Duration::from_millis(250),
        ..Default::default()
    }
}

/// Same seed, same servers ⇒ same checksum, across distinct multi-client
/// runs and across distinct (identically trained) primaries.
#[test]
fn loadgen_checksum_is_reproducible_across_runs_and_primaries() {
    let table = small_table();
    let p1 = PrimaryNode::start(
        &table,
        Arc::new(MemVfs::new()),
        "127.0.0.1:0",
        quick_spec(11),
    )
    .expect("primary 1 starts");

    let spec = load_spec(vec![p1.addr().to_string()], 77, 60);
    let a = run_net_loadgen(&table, &spec).expect("run a");
    let b = run_net_loadgen(&table, &spec).expect("run b");
    assert_eq!(a.ok, 60, "every query answered: {a:?}");
    assert_eq!(b.ok, 60, "every query answered: {b:?}");
    assert_eq!(
        a.checksum, b.checksum,
        "same seed, same server ⇒ bit-identical estimates"
    );

    // A separately trained primary from the same spec seed answers with the
    // same model — the checksum is a property of (seed, training), not of
    // one process instance.
    let p2 = PrimaryNode::start(
        &table,
        Arc::new(MemVfs::new()),
        "127.0.0.1:0",
        quick_spec(11),
    )
    .expect("primary 2 starts");
    let spec2 = load_spec(vec![p2.addr().to_string()], 77, 60);
    let c = run_net_loadgen(&table, &spec2).expect("run c");
    assert_eq!(a.checksum, c.checksum, "retrained twin diverged");

    // Different loadgen seed ⇒ different queries ⇒ (almost surely) a
    // different checksum; guards against a constant/no-op checksum.
    let spec3 = load_spec(vec![p1.addr().to_string()], 78, 60);
    let d = run_net_loadgen(&table, &spec3).expect("run d");
    assert_ne!(a.checksum, d.checksum, "checksum ignores the query stream");

    p1.shutdown();
    p2.shutdown();
}

/// Kill the primary while a standby replicates from it: the standby
/// promotes through full recovery and a loadgen holding both endpoints
/// rotates onto it and keeps being served.
#[test]
fn failover_promotes_standby_and_clients_rotate_onto_it() {
    let table = small_table();
    let primary = PrimaryNode::start(
        &table,
        Arc::new(MemVfs::new()),
        "127.0.0.1:0",
        quick_spec(13),
    )
    .expect("primary starts");
    let primary_addr = primary.addr().to_string();

    let standby_vfs = Arc::new(MemVfs::new());
    let standby = StandbyNode::start(
        standby_vfs,
        "127.0.0.1:0",
        primary_addr.clone(),
        StandbyConfig {
            net: NetServerConfig {
                read_deadline: Duration::from_millis(400),
                ..Default::default()
            },
            durability: DurabilityConfig::default(),
            connect_timeout: Duration::from_millis(200),
            reconnect_attempts: 3,
            reconnect_backoff: Duration::from_millis(20),
            auto_promote: true,
            ..Default::default()
        },
    )
    .expect("standby starts");

    // Replicate a few durable labels; every ack must reach the standby.
    for i in 0..5u64 {
        let level = primary
            .append_label(
                &[i as f64, 0.5, -1.0, 2.0],
                (i + 1) as f64,
                AckMode::Replicated,
            )
            .expect("replicated append");
        assert_eq!(
            level,
            warper_serve::net::AckLevel::Replicated,
            "standby must ack label {i}"
        );
    }
    let lag = primary.lag();
    assert_eq!(
        lag.acked, lag.published,
        "after synchronous appends the standby is caught up: {lag:?}"
    );
    assert_eq!(lag.ops_behind, 0, "caught-up standby has zero lag: {lag:?}");

    // While both are up, the standby refuses estimates (NotPrimary) and the
    // client rotates back to the primary — standby first in the endpoint
    // list makes the rotation path the common case.
    let both = load_spec(
        vec![standby.addr().to_string(), primary_addr.clone()],
        5,
        30,
    );
    let warm = run_net_loadgen(&table, &both).expect("warm run");
    assert_eq!(warm.ok, 30, "all served while primary is up: {warm:?}");
    assert!(
        warm.client.rotations > 0,
        "clients must have rotated off the refusing standby: {:?}",
        warm.client
    );

    // Crash the primary (connections severed, port closed).
    primary.shutdown();

    // The standby declares the link lost and promotes through recovery.
    assert!(
        standby.wait_promoted(Duration::from_secs(10)),
        "standby never promoted: {:?}",
        standby.state()
    );
    let state = standby.state();
    assert!(
        state.validated_seq > 0,
        "promotion without a validated ckpt"
    );
    let promotion = state.promotion.as_ref().expect("recovery report recorded");
    assert!(
        promotion.snapshot_seq > 0,
        "promotion must recover from a real snapshot: {promotion:?}"
    );
    assert_eq!(promotion.corrupt_snapshots, 0, "replicated image was clean");

    // Clients still holding the dead primary's address rotate onto the
    // promoted standby and get answers.
    let after = load_spec(vec![primary_addr, standby.addr().to_string()], 6, 30);
    let post = run_net_loadgen(&table, &after).expect("post-failover run");
    assert_eq!(
        post.ok + post.shed,
        30,
        "every query answered or typed-shed after failover: {post:?}"
    );
    assert!(post.ok > 0, "promoted standby served nothing: {post:?}");
    assert_eq!(post.disconnected, 0, "bounded retries exhausted: {post:?}");

    let report = standby.shutdown();
    assert!(report.state.promoted_generation.is_some());
}

// ---------------------------------------------------------------------------
// Fleet over TCP: shard routing on the wire
// ---------------------------------------------------------------------------

/// A shard-identifying toy: shard `i`'s model answers `1000 * (i + 1) +
/// f[0]`, so a wire roundtrip proves which shard served it.
struct ShardToy {
    base: f64,
}

impl CardinalityEstimator for ShardToy {
    fn feature_dim(&self) -> usize {
        2
    }
    fn estimate(&self, f: &[f64]) -> f64 {
        self.base + f[0]
    }
    fn fit(&mut self, _e: &[LabeledExample]) {}
    fn update(&mut self, _e: &[LabeledExample]) {}
    fn update_kind(&self) -> UpdateKind {
        UpdateKind::FineTune
    }
    fn name(&self) -> &'static str {
        "shard-toy"
    }
}

fn toy_fleet(n_shards: usize, cfg: FleetConfig) -> Fleet {
    let specs = (0..n_shards)
        .map(|i| ShardSpec {
            key: ShardKey::new(format!("tenant-{i}"), "main"),
            snapshot: Arc::new(ModelSnapshot::initial(Box::new(ShardToy {
                base: 1_000.0 * (i + 1) as f64,
            }))),
            adapt: None,
        })
        .collect();
    Fleet::start(specs, cfg)
}

fn tcp_client(addr: &str, seed: u64) -> EstimateClient {
    EstimateClient::new(
        Box::new(TcpDialer {
            endpoints: vec![addr.to_string()],
            connect_timeout: Duration::from_millis(250),
        }),
        RetryPolicy {
            max_attempts: 4,
            base_backoff: Duration::from_millis(2),
            max_backoff: Duration::from_millis(20),
            op_deadline: Duration::from_millis(500),
        },
        seed,
    )
}

/// `EstimateReqShard` routes to the addressed shard; the v1 `EstimateReq`
/// stays valid and lands on shard 0; an unknown shard comes back as a typed
/// refusal, not a retry loop.
#[test]
fn fleet_shard_routing_works_over_tcp() {
    let fleet = toy_fleet(3, FleetConfig::default());
    let core = ServerCore::new_fleet(fleet.handle(), true, None);
    let server =
        NetServer::bind("127.0.0.1:0", core, NetServerConfig::default()).expect("fleet binds");
    let mut client = tcp_client(server.local_addr(), 3);

    for shard in 0..3u32 {
        let est = client
            .estimate_shard(shard, &[0.25, 0.5])
            .unwrap_or_else(|e| panic!("shard {shard}: {e}"));
        let want = 1_000.0 * (shard + 1) as f64 + 0.25;
        assert_eq!(est.value.to_bits(), want.to_bits(), "shard {shard} routing");
    }

    // v1 compatibility: a shard-less EstimateReq is shard 0.
    let est = client.estimate(&[0.25, 0.5]).expect("v1 estimate");
    assert_eq!(est.value.to_bits(), (1_000.25f64).to_bits());

    // Unknown shard: typed refusal surfaced directly, no endpoint rotation.
    match client.estimate_shard(9, &[0.25, 0.5]) {
        Err(ClientError::UnknownShard(9)) => {}
        other => panic!("expected UnknownShard(9), got {other:?}"),
    }
    assert_eq!(client.stats().rotations, 0, "refusal must not rotate");

    let stats = server.shutdown();
    assert_eq!(stats.requests, 5);
    assert_eq!(stats.shed + stats.shed_deadline, 0);
    drop(fleet);
}

/// The server's NetStats split admission sheds from deadline sheds: a fleet
/// with a zero queue deadline sheds every admitted request as
/// `ShedDeadline` on the wire, and only that counter moves.
#[test]
fn deadline_sheds_are_split_from_admission_sheds_on_the_wire() {
    let fleet = toy_fleet(
        1,
        FleetConfig {
            workers: 1,
            queue_deadline: Some(Duration::ZERO),
            ..FleetConfig::default()
        },
    );
    let core = ServerCore::new_fleet(fleet.handle(), true, None);
    let server =
        NetServer::bind("127.0.0.1:0", core, NetServerConfig::default()).expect("fleet binds");
    let mut client = tcp_client(server.local_addr(), 4);

    for _ in 0..10 {
        match client.estimate_shard(0, &[0.1, 0.2]) {
            Err(ClientError::Shed) => {}
            other => panic!("expected Shed, got {other:?}"),
        }
    }
    assert_eq!(client.stats().shed, 10, "client sees every shed");

    let stats = server.shutdown();
    assert_eq!(stats.requests, 10);
    assert_eq!(stats.shed_deadline, 10, "all sheds were deadline sheds");
    assert_eq!(stats.shed, 0, "no admission shed leaked into the split");
    let (fleet_stats, _, _) = fleet.shutdown();
    assert_eq!(fleet_stats.shed_deadline, 10);
    assert_eq!(fleet_stats.shed, 0);
}
