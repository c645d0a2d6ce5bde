//! Multi-tenant fleet benchmark: cross-shard batch packing at 128 shards.
//!
//! The fleet's headline claim: when a hundred-plus small tenants each see
//! too little traffic to fill a batch on their own, packing their pending
//! requests into one GEMM per layer recovers the batching win a single hot
//! service gets for free. Measured (and asserted) here:
//!
//! 1. **Packing ≥ 2× the naive deployment.** The same Zipf-skewed
//!    closed-loop load over 128 shards, served by one packed fleet (two
//!    shared workers) vs 128 independent one-shard [`Fleet`]s (one worker
//!    each — the single-tenant deployment). The independent fleets see
//!    mostly batch-of-1 traffic on the tail shards, so per-request GEMM
//!    and wake overhead dominates; the packed fleet answers the same tail
//!    inside shared packs. Aggregate qps must be ≥ 2×.
//! 2. **Packing beats the same fleet unpacked.** With `packing: false`
//!    the identical dispatcher answers each shard's sub-batch with its own
//!    `estimate_many` — the fleet machinery minus the one optimization.
//!    The gap isolates what cross-shard packing itself buys.
//!
//! Run with `cargo bench --bench fleet` (release profile). Writes
//! `BENCH_fleet.json` at the workspace root in addition to printing.

use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use warper_ce::lm::{LmMlp, LmMlpParams};
use warper_ce::CardinalityEstimator;
use warper_metrics::LatencyHistogram;
use warper_serve::{Fleet, FleetConfig, FleetStats, ModelSnapshot, ShardKey, ShardSpec};
use warper_workload::ZipfSampler;

const SHARDS: usize = 128;
const DIM: usize = 32;
const CLIENTS: usize = 64;
const QUERIES: usize = 16_000;
const ZIPF_S: f64 = 1.1;

fn hist_json(hist: &LatencyHistogram) -> serde_json::Value {
    let (p50, p95, p99, max) = hist.summary_scaled(1_000.0);
    serde_json::json!({
        "p50_us": p50,
        "p95_us": p95,
        "p99_us": p99,
        "max_us": max,
        "mean_us": hist.mean() / 1_000.0,
    })
}

/// Closed-loop drive of `work` from [`CLIENTS`] threads: client `c` takes
/// every `CLIENTS`-th request. Returns aggregate qps and merged latency.
fn drive(
    work: &[(u32, Vec<f64>)],
    estimate: impl Fn(u32, Vec<f64>) + Sync,
) -> (f64, LatencyHistogram) {
    let t0 = Instant::now();
    let mut latency = LatencyHistogram::new();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let estimate = &estimate;
                s.spawn(move || {
                    let mut hist = LatencyHistogram::new();
                    for (shard, f) in work.iter().skip(c).step_by(CLIENTS) {
                        let sent = Instant::now();
                        estimate(*shard, f.clone());
                        hist.record_duration(sent.elapsed());
                    }
                    hist
                })
            })
            .collect();
        for h in handles {
            latency.merge(&h.join().expect("client thread"));
        }
    });
    let qps = work.len() as f64 / t0.elapsed().as_secs_f64();
    (qps, latency)
}

/// One fleet run over `work`; every shard serves the same snapshot through
/// one shared `Arc`, exactly as a base-model fleet deploys.
fn fleet_run(
    model: &LmMlp,
    packing: bool,
    work: &[(u32, Vec<f64>)],
) -> (f64, LatencyHistogram, FleetStats) {
    let snap = Arc::new(ModelSnapshot::initial(
        model.snapshot().expect("LmMlp snapshots"),
    ));
    let specs: Vec<ShardSpec> = (0..SHARDS)
        .map(|i| ShardSpec {
            key: ShardKey::new(format!("tenant-{i:04}"), "main"),
            snapshot: Arc::clone(&snap),
            adapt: None,
        })
        .collect();
    let fleet = Fleet::start(
        specs,
        FleetConfig {
            workers: 2,
            per_shard_queue: 256,
            packing,
            ..FleetConfig::default()
        },
    );
    let handle = fleet.handle();
    let (qps, latency) = drive(work, |shard, f| {
        handle.estimate(shard, f).expect("closed loop never sheds");
    });
    let (stats, _, _) = fleet.shutdown();
    (qps, latency, stats)
}

/// The naive deployment: one independent one-shard fleet per tenant, each
/// with its own worker, queue, snapshot, and (tiny) batches.
fn independent_run(model: &LmMlp, work: &[(u32, Vec<f64>)]) -> (f64, LatencyHistogram) {
    let fleets: Vec<Fleet> = (0..SHARDS)
        .map(|i| {
            Fleet::start(
                vec![ShardSpec {
                    key: ShardKey::new(format!("tenant-{i:04}"), "main"),
                    snapshot: Arc::new(ModelSnapshot::initial(
                        model.snapshot().expect("LmMlp snapshots"),
                    )),
                    adapt: None,
                }],
                FleetConfig {
                    workers: 1,
                    per_shard_queue: 256,
                    max_packed_batch: 64,
                    quantum: 64,
                    pack_linger: Duration::from_micros(200),
                    ..FleetConfig::default()
                },
            )
        })
        .collect();
    let handles: Vec<_> = fleets.iter().map(Fleet::handle).collect();
    let (qps, latency) = drive(work, |shard, f| {
        handles[shard as usize]
            .estimate(0, f)
            .expect("closed loop never sheds");
    });
    for f in fleets {
        f.shutdown();
    }
    (qps, latency)
}

fn main() {
    // A production-sized MLP: the per-query forward pass re-reads the whole
    // weight matrix, so batch size decides throughput.
    let model = LmMlp::new(
        DIM,
        LmMlpParams {
            hidden: [512, 256],
            ..Default::default()
        },
        17,
    );

    // Zipf-skewed multi-tenant stream: shard 0 is hot, the long tail sees
    // a handful of queries each — the regime packing exists for.
    let mut rng = StdRng::seed_from_u64(17);
    let zipf = ZipfSampler::new(SHARDS, ZIPF_S);
    let work: Vec<(u32, Vec<f64>)> = (0..QUERIES)
        .map(|_| {
            let shard = zipf.sample(&mut rng) as u32;
            (shard, (0..DIM).map(|_| rng.random_f64()).collect())
        })
        .collect();
    let tail_shards = {
        let mut counts = vec![0usize; SHARDS];
        for (s, _) in &work {
            counts[*s as usize] += 1;
        }
        counts.iter().filter(|&&c| c > 0 && c < CLIENTS).count()
    };

    let (packed_qps, packed_lat, packed_stats) = fleet_run(&model, true, &work);
    let (unpacked_qps, unpacked_lat, unpacked_stats) = fleet_run(&model, false, &work);
    let (naive_qps, naive_lat) = independent_run(&model, &work);

    let speedup_vs_naive = packed_qps / naive_qps;
    let speedup_vs_unpacked = packed_qps / unpacked_qps;
    let (_, _, packed_p99, _) = packed_lat.summary_scaled(1_000.0);
    let (_, _, naive_p99, _) = naive_lat.summary_scaled(1_000.0);
    println!(
        "fleet @ {SHARDS} zipf(s={ZIPF_S}) shards ({tail_shards} tail shards), {QUERIES} queries, \
         {CLIENTS} clients:"
    );
    println!(
        "  packed fleet:   {packed_qps:.0} qps  p99 {packed_p99:.0} us  \
         mean gemm batch {:.1} (sub-batch {:.1}, efficiency {:.2})",
        packed_stats.mean_gemm_batch(),
        packed_stats.mean_sub_batch(),
        packed_stats.pack_efficiency(),
    );
    println!(
        "  unpacked fleet: {unpacked_qps:.0} qps  mean gemm batch {:.1}  -> packing {speedup_vs_unpacked:.2}x",
        unpacked_stats.mean_gemm_batch(),
    );
    println!(
        "  128 independent one-shard fleets: {naive_qps:.0} qps  p99 {naive_p99:.0} us  \
         -> fleet {speedup_vs_naive:.2}x"
    );

    assert_eq!(
        packed_stats.served as usize, QUERIES,
        "packed fleet dropped requests"
    );
    assert!(
        speedup_vs_naive >= 2.0,
        "packed fleet {packed_qps:.0} qps below the 2x bar over {SHARDS} independent \
         one-shard fleets at {naive_qps:.0} qps ({speedup_vs_naive:.2}x)"
    );
    assert!(
        packed_stats.mean_gemm_batch() > unpacked_stats.mean_gemm_batch(),
        "packing failed to grow GEMM batches ({:.1} vs {:.1} unpacked)",
        packed_stats.mean_gemm_batch(),
        unpacked_stats.mean_gemm_batch(),
    );

    let root = serde_json::json!({
        "bench": "crates/bench/benches/fleet.rs",
        "shards": SHARDS,
        "zipf_s": ZIPF_S,
        "tail_shards": tail_shards,
        "queries": QUERIES,
        "clients": CLIENTS,
        "model": "lm-mlp 32->512->256->1",
        "fleet_workers": 2,
        "packed_qps": packed_qps,
        "unpacked_qps": unpacked_qps,
        "independent_qps": naive_qps,
        "speedup_vs_independent": speedup_vs_naive,
        "speedup_vs_unpacked": speedup_vs_unpacked,
        "packed_mean_gemm_batch": packed_stats.mean_gemm_batch(),
        "packed_mean_sub_batch": packed_stats.mean_sub_batch(),
        "packed_pack_efficiency": packed_stats.pack_efficiency(),
        "unpacked_mean_gemm_batch": unpacked_stats.mean_gemm_batch(),
        "packed_latency": hist_json(&packed_lat),
        "unpacked_latency": hist_json(&unpacked_lat),
        "independent_latency": hist_json(&naive_lat),
    });

    let json = serde_json::to_string_pretty(&root).unwrap();
    let mut dir = std::env::current_dir().unwrap();
    while !dir.join("Cargo.lock").exists() {
        if !dir.pop() {
            break;
        }
    }
    let path = dir.join("BENCH_fleet.json");
    std::fs::write(&path, json).unwrap();
    println!("wrote {}", path.display());
}
