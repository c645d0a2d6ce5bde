//! Standing the program up the way a user meets it, and taking it down:
//! offline training, the quantize gate, per-shard adaptation and
//! durability, `Fleet::start`, and a `NetServer` in front of the fleet.

use std::path::PathBuf;
use std::sync::{Arc, Mutex, PoisonError, RwLock};
use std::time::{Duration, Instant};

use warper_ce::{CardinalityEstimator, Precision};
use warper_core::runner::ModelKind;
use warper_core::{
    derive_seed, prepare_single_table, seed_stream, ArrivedQuery, WarperConfig, WarperController,
};
use warper_durable::{DurabilityConfig, DurabilityStats, DurableStore, StdVfs, Vfs};
use warper_serve::net::{ClientStats, Dialer, NetStats, ServerCore, TcpDialer};
use warper_serve::{
    prepare_serving_model, AdaptConfig, AdaptStats, EstimateClient, Fleet, FleetConfig,
    FleetStats, ModelSnapshot, NetServer, NetServerConfig, RetryPolicy, ShardAdapt,
    ShardKey, ShardSpec, ShardStats,
};
use warper_storage::{generate, DatasetKind, Table};

use crate::adapt::Adapter;
use crate::trace::{TraceCe, TraceDialer, TraceVfs, VfsCounters};

/// The fixed dataset every workload serves: PRSA, 10k rows. The table and
/// the offline model are the same on every run; `--seed` varies the
/// traffic, the shard popularity draw and the drift mutations.
const ROWS: usize = 10_000;
const DATASET_SEED: u64 = 7;
const N_TRAIN: usize = 400;
/// Where durable shards keep their state, relative to the working
/// directory; each set-up gets a fresh subdirectory, removed at teardown.
const STATE_ROOT: &str = ".perfbench-state";

pub fn dataset() -> Table {
    generate(DatasetKind::Prsa, ROWS, DATASET_SEED)
}

/// The serving-scale controller (small modules keep retraining short).
pub fn warper_config() -> WarperConfig {
    WarperConfig {
        embed_dim: 8,
        hidden: 32,
        n_i: 6,
        pretrain_epochs: 3,
        gamma: 200,
        n_p: 60,
        ..Default::default()
    }
}

pub struct StackSpec {
    pub shards: usize,
    /// The first `adapting` shards adapt online.
    pub adapting: usize,
    /// Adapting shards keep a WAL and checkpoints on `StdVfs`.
    pub durable: bool,
    /// Install the tracing seams and drive adaptation from the benchmark.
    pub traced: bool,
    pub adapt: AdaptConfig,
    pub seed: u64,
}

/// The running program plus the handles the benchmark observes it through.
pub struct Stack {
    pub fleet: Fleet,
    pub server: NetServer,
    /// The shared base snapshot every shard starts on.
    pub base: Arc<ModelSnapshot>,
    /// Adapting shards' tables, indexed by shard id.
    pub tables: Vec<Arc<RwLock<Table>>>,
    pub stores: Vec<Arc<Mutex<DurableStore>>>,
    pub vfs: Option<Arc<VfsCounters>>,
    state_dir: Option<PathBuf>,
    /// Benchmark-driven adaptation loops (traced runs only).
    adapters: Vec<Adapter>,
    traced: bool,
    /// Seconds the set-up took.
    pub setup_s: f64,
}

/// Everything the program's own stats said at teardown.
pub struct Finished {
    pub net: NetStats,
    pub fleet: FleetStats,
    pub shards: Vec<ShardStats>,
    pub adapt: Vec<(u32, AdaptStats)>,
    pub durable: Vec<DurabilityStats>,
    pub vfs: Option<Arc<VfsCounters>>,
}

impl Stack {
    /// Builds the stack over `table` and times it, from the generated table
    /// to the moment the first request may be sent.
    pub fn start(table: &Table, spec: &StackSpec) -> Self {
        let t0 = Instant::now();
        let prepared = prepare_single_table(table, "w1", ModelKind::LmMlp, N_TRAIN, DATASET_SEED)
            .expect("offline training");
        let fmap = prepared.fmap.clone();
        let full = prepared.model.snapshot().expect("LM-MLP snapshots");
        let probes: Vec<&[f64]> = prepared
            .training_set
            .iter()
            .map(|(f, _)| f.as_slice())
            .collect();
        let (serving, precision, _) = prepare_serving_model(
            prepared.model.as_ref(),
            full,
            Precision::F32,
            &probes,
            spec.adapt.supervisor.quant_gmq_tolerance,
        );
        let serving: Box<dyn CardinalityEstimator> = if spec.traced {
            Box::new(TraceCe { inner: serving })
        } else {
            serving
        };
        let base = Arc::new(ModelSnapshot::initial(serving).with_precision(precision));

        let state_dir = (spec.durable && spec.adapting > 0).then(fresh_state_dir);
        let vfs_counters = (spec.traced && state_dir.is_some()).then(Arc::default);
        let base_state = (spec.adapting > 0).then(|| {
            WarperController::new(
                fmap.dim(),
                &prepared.training_set,
                prepared.baseline_gmq,
                warper_config(),
                derive_seed(DATASET_SEED, seed_stream::STRATEGY),
            )
            .to_state()
        });
        let shard_seed_root = derive_seed(spec.seed, seed_stream::SHARD);
        let mut tables = Vec::new();
        let mut stores = Vec::new();
        let mut specs = Vec::with_capacity(spec.shards);
        let mut traced_adapts = Vec::new();
        for id in 0..spec.shards {
            let key = ShardKey::new(format!("tenant-{id:04}"), "main");
            let adapt = match &base_state {
                Some(state) if id < spec.adapting => {
                    let ctl = WarperController::from_state(state.clone())
                        .expect("base controller state")
                        .with_canonicalizer(fmap.make_canonicalizer());
                    let model = prepared.model.snapshot().expect("LM-MLP snapshots");
                    let shard_table = Arc::new(RwLock::new(table.clone()));
                    tables.push(Arc::clone(&shard_table));
                    let store = state_dir.as_ref().map(|root| {
                        let dir = root.join(key.dir_name());
                        let std_vfs: Arc<dyn Vfs> =
                            Arc::new(StdVfs::open(&dir).expect("state directory"));
                        let vfs: Arc<dyn Vfs> = match &vfs_counters {
                            Some(c) => Arc::new(TraceVfs {
                                inner: std_vfs,
                                counters: Arc::clone(c),
                            }),
                            None => std_vfs,
                        };
                        let (mut s, _) = DurableStore::open(vfs, DurabilityConfig::default())
                            .expect("open durable store");
                        // A fresh lineage checkpoints its base state at once,
                        // so labels logged before the first commit replay.
                        s.checkpoint(&ctl.to_state(), Some(model.as_ref()))
                            .expect("base checkpoint");
                        let s = Arc::new(Mutex::new(s));
                        stores.push(Arc::clone(&s));
                        s
                    });
                    Some(ShardAdapt {
                        ctl,
                        model,
                        table: shard_table,
                        fmap: fmap.clone(),
                        cfg: AdaptConfig {
                            seed: derive_seed(shard_seed_root, id as u64),
                            ..spec.adapt
                        },
                        store,
                    })
                }
                _ => None,
            };
            // Traced runs drive the adaptation step themselves; the fleet
            // then sees a shard without an adaptation worker.
            let adapt = match adapt {
                Some(a) if spec.traced => {
                    traced_adapts.push((id as u32, a));
                    None
                }
                other => other,
            };
            specs.push(ShardSpec {
                key,
                snapshot: Arc::clone(&base),
                adapt,
            });
        }
        let fleet = Fleet::start(specs, FleetConfig::default());
        let adapters = traced_adapts
            .into_iter()
            .map(|(id, a)| {
                let cell = Arc::clone(fleet.cell(id).expect("adapting shard exists"));
                Adapter::spawn(id, a, cell)
            })
            .collect();
        let core = ServerCore::new_fleet(fleet.handle(), true, None);
        let server = NetServer::bind("127.0.0.1:0", core, NetServerConfig::default())
            .expect("bind loopback");
        Stack {
            fleet,
            server,
            base,
            tables,
            stores,
            vfs: vfs_counters,
            state_dir,
            adapters,
            traced: spec.traced,
            setup_s: t0.elapsed().as_secs_f64(),
        }
    }

    /// A client on its own connection; `conn` seeds its retry jitter.
    pub fn client(&self, seed: u64, conn: u64) -> EstimateClient {
        let addr = self.server.local_addr().to_string();
        let dialer: Box<dyn Dialer> = if self.traced {
            Box::new(TraceDialer {
                addr,
                connect_timeout: Duration::from_secs(2),
            })
        } else {
            Box::new(TcpDialer {
                endpoints: vec![addr],
                connect_timeout: Duration::from_secs(2),
            })
        };
        EstimateClient::new(
            dialer,
            RetryPolicy::default(),
            derive_seed(derive_seed(seed, seed_stream::NET), conn),
        )
    }

    /// Feeds one served query to shard `id`'s adaptation loop.
    pub fn observe(&self, id: u32, features: &[f64]) {
        let q = ArrivedQuery {
            features: features.to_vec(),
            gt: None,
        };
        match self.adapters.iter().find(|a| a.shard == id) {
            Some(a) => a.observe(q),
            None => self.fleet.observe(id, q),
        }
    }

    /// Stops the server, the fleet and every adaptation loop (clients must
    /// be dropped first), and removes the state directory.
    pub fn finish(self) -> Finished {
        let net = self.server.shutdown();
        let traced: Vec<(u32, AdaptStats)> = self.adapters.into_iter().map(Adapter::finish).collect();
        let (fleet, shards, mut adapt) = self.fleet.shutdown();
        adapt.extend(traced);
        adapt.sort_by_key(|(id, _)| *id);
        let durable = self
            .stores
            .iter()
            .map(|s| s.lock().unwrap_or_else(PoisonError::into_inner).stats())
            .collect();
        drop(self.stores);
        if let Some(dir) = &self.state_dir {
            let _ = std::fs::remove_dir_all(dir);
        }
        Finished {
            net,
            fleet,
            shards,
            adapt,
            durable,
            vfs: self.vfs,
        }
    }
}

fn fresh_state_dir() -> PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static N: AtomicU64 = AtomicU64::new(0);
    let dir = PathBuf::from(STATE_ROOT).join(format!(
        "{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Removes the state root if no other run still uses it.
pub fn cleanup_state_root() {
    let _ = std::fs::remove_dir(STATE_ROOT);
}

/// Sums client counters across connections.
pub fn sum_clients(stats: &[ClientStats]) -> ClientStats {
    let mut t = ClientStats::default();
    for s in stats {
        t.requests += s.requests;
        t.ok += s.ok;
        t.shed += s.shed;
        t.reconnects += s.reconnects;
        t.rotations += s.rotations;
        t.net_errors += s.net_errors;
        t.backoff_secs += s.backoff_secs;
    }
    t
}

/// Peak resident set of this process in MiB (`VmHWM`), 0 if unknown.
pub fn peak_rss_mb() -> f64 {
    status_mb("VmHWM:")
}

/// Current resident set of this process in MiB (`VmRSS`), 0 if unknown.
pub fn rss_mb() -> f64 {
    status_mb("VmRSS:")
}

/// A size field of `/proc/self/status` in MiB, 0 if unknown.
fn status_mb(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(field))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Cumulative `(steal, total)` CPU time of the host in clock ticks, from
/// `/proc/stat` (zeros where unavailable). Steal is time the hypervisor
/// ran someone else while this VM had work: it inflates every wall-clock
/// figure of a run and is reported so such runs can be told apart.
pub fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let Some(cpu) = stat.lines().next().filter(|l| l.starts_with("cpu ")) else {
        return (0, 0);
    };
    let v: Vec<u64> = cpu
        .split_whitespace()
        .skip(1)
        .filter_map(|x| x.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal ...
    (v.get(7).copied().unwrap_or(0), v.iter().take(8).sum())
}

/// Resets the peak-RSS watermark so the next pass reports its own peak.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}
