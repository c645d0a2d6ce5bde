//! Serve a cardinality estimator under live traffic while it adapts.
//!
//! A multithreaded estimation service answers requests from a hot-swappable
//! model snapshot while a background worker runs the Warper adaptation loop
//! on the observed query stream. Mid-run the workload drifts (w1-style
//! range predicates become w4-style); the supervisor retrains, validates,
//! and commits new model generations, which are published to readers
//! without ever blocking a request.
//!
//! Run with: `cargo run --release --example serve_replay`

use std::time::Duration;

use warper_repro::prelude::*;
use warper_repro::serve::{run_replay, AdaptConfig, AdaptMode, DriftEvent, DriftKind, ReplaySpec};

fn main() {
    // 1. A PRSA-like table and a model trained offline on a w1 workload.
    let table = generate(DatasetKind::Prsa, 8_000, 7);
    println!("dataset: {:?}", table.profile());

    // 2. Replay 4000 requests from 6 concurrent clients. Halfway through,
    //    the workload drifts to w4; a background adaptation worker watches
    //    the stream and hot-swaps committed model generations.
    let spec = ReplaySpec {
        n_train: 400,
        n_queries: 4_000,
        clients: 6,
        drift: Some(DriftEvent {
            at_query: 2_000,
            kind: DriftKind::Workload {
                new_mix: "w4".into(),
            },
        }),
        adapt: AdaptMode::Background(AdaptConfig {
            invoke_every: 200,
            max_wait: Duration::from_millis(10),
            ..Default::default()
        }),
        warper: WarperConfig {
            embed_dim: 8,
            hidden: 32,
            n_i: 6,
            pretrain_epochs: 3,
            gamma: 200,
            n_p: 60,
            ..Default::default()
        },
        seed: 7,
        spot_checks: 30,
        ..Default::default()
    };
    println!(
        "\nreplaying {} requests with a mid-run workload drift...",
        spec.n_queries
    );
    let rep = run_replay(&table, &spec).expect("valid replay spec");

    // 3. Serving behavior: every request answered, none stalled.
    let (p50, p95, p99, max) = rep.latency.summary_scaled(1_000.0);
    println!(
        "served {} / shed {} / errors {} at {:.0} qps (mean batch {:.1})",
        rep.served,
        rep.shed,
        rep.errors,
        rep.throughput_qps,
        rep.fleet.mean_gemm_batch()
    );
    println!("latency: p50 {p50:.0}us  p95 {p95:.0}us  p99 {p99:.0}us  max {max:.0}us");

    // 4. Adaptation behavior: generations hot-swapped behind live traffic.
    let adapt = rep.adapt.expect("background mode reports stats");
    println!(
        "adaptation: {} invocations, {} commits, {} rollbacks -> {} generations \
         published (max staleness {})",
        adapt.invocations,
        adapt.commits,
        adapt.rollbacks,
        rep.generations_published,
        rep.max_staleness
    );
    if let (Some(pre), Some(post)) = (rep.spot_gmq_pre, rep.spot_gmq_post) {
        println!("spot-check GMQ: {pre:.2} pre-drift, {post:.2} post-drift");
    }
    println!("estimate checksum: {:016x}", rep.estimates_checksum);
}
