//! `warper` — command-line driver for the reproduction.
//!
//! ```text
//! warper adapt   --dataset prsa --train w12 --new w345 --model lm-mlp \
//!                --strategy warper [--rows N] [--seed S] [--compare-ft]
//! warper gamma   --dataset prsa [--rows N] [--seed S]
//! warper gaps    [--orders N] [--seed S]
//! warper serve   --dataset prsa --mix w1 --queries 1000 --clients 4 \
//!                [--drift-at N] [--new w4] [--sync] [--smoke] [--seed S] \
//!                [--precision f64|f32|int8] [--state-dir DIR] \
//!                [--checkpoint-every N]
//! warper serve   --shards 128 [--zipf 1.1] [--adapt-shards K] \
//!                [--workers N] [--no-pack] [--state-dir DIR] [--smoke]
//! warper serve   --listen 127.0.0.1:7071 [--state-dir DIR] [--duration S]
//! warper serve   --listen 127.0.0.1:7071 --shards 128 [--duration S]
//! warper serve   --standby-of 127.0.0.1:7071 [--listen ADDR] \
//!                [--state-dir DIR] [--duration S]
//! warper loadgen --dataset prsa --queries 2000 [--rate QPS] [--seed S]
//! warper loadgen --tenants 128 [--zipf 1.1] [--queries N] [--clients N]
//! warper loadgen --connect 127.0.0.1:7071[,ADDR2] --queries 2000 \
//!                [--clients N] [--tenants 128] [--zipf 1.1] [--seed S]
//! warper datasets
//! ```
//!
//! Argument parsing is hand-rolled (this workspace takes no CLI
//! dependencies); every flag has a sane default, so `warper adapt` alone
//! runs the headline PRSA experiment.

use std::collections::HashMap;
use std::process::ExitCode;

use rand::rngs::StdRng;
use rand::SeedableRng;
use warper_repro::prelude::*;
use warper_repro::qo::{Executor, Scenario, SpjTemplate};
use warper_repro::storage::tpch::{generate_tpch, TpchScale};
use warper_repro::warper::gamma::estimate_gamma;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, flags)) = parse(&args) else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    match cmd.as_str() {
        "adapt" => cmd_adapt(&flags),
        "gamma" => cmd_gamma(&flags),
        "gaps" => cmd_gaps(&flags),
        "serve" => cmd_serve(&flags),
        "loadgen" => cmd_loadgen(&flags),
        "datasets" => cmd_datasets(),
        _ => {
            eprintln!("unknown command {cmd:?}\n{USAGE}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage:
  warper adapt   [--dataset prsa|poker|higgs] [--train w12] [--new w345]
                 [--model lm-mlp|lm-gbt|lm-ply|lm-rbf|mscn]
                 [--strategy ft|mix|aug|hem|warper] [--rows N] [--seed S]
                 [--compare-ft]
  warper gamma   [--dataset prsa|poker|higgs] [--rows N] [--seed S]
  warper gaps    [--orders N] [--seed S]
  warper serve   [--dataset prsa|poker|higgs] [--mix w1] [--queries N]
                 [--clients N] [--drift-at N] [--new w4 | --data-drift]
                 [--sync] [--invoke-every N] [--smoke] [--rows N] [--seed S]
                 [--precision f64|f32|int8] [--state-dir DIR]
                 [--checkpoint-every N]
  warper serve   --shards N [--zipf S] [--adapt-shards K] [--drift-shards D]
                 [--annotation-budget B] [--workers N] [--no-pack]
                 [--queries N] [--clients N] [--state-dir DIR]
                 [--checkpoint-every N] [--smoke] [--seed S]
                   multi-tenant fleet: one shard per (tenant, table), shared
                   worker pool, cross-shard batch packing; the first D
                   adapting shards drift pre-serving and B annotations are
                   granted worst-drift-first from the merged sketches
  warper serve   --listen ADDR [--state-dir DIR] [--duration SECS]
                 [--dataset ...] [--mix w1] [--rows N] [--seed S]
                   networked primary: replicated durability + TCP front-end
  warper serve   --listen ADDR --shards N [--workers N] [--no-pack]
                 [--duration SECS]
                   networked fleet: shard-addressed requests over TCP
  warper serve   --standby-of ADDR [--listen ADDR] [--state-dir DIR]
                 [--duration SECS] [--no-auto-promote]
                   warm standby: replicates, promotes when the primary dies
  warper loadgen [--dataset prsa|poker|higgs] [--mix w1] [--queries N]
                 [--clients N] [--rate QPS] [--batch N] [--rows N] [--seed S]
                 [--precision f64|f32|int8]
  warper loadgen --tenants N [--zipf S] [--queries N] [--clients N]
                   Zipf-skewed multi-tenant load against an in-process fleet
  warper loadgen --connect ADDR[,ADDR2...] [--queries N] [--clients N]
                 [--tenants N] [--zipf S] [--dataset ...] [--mix w1]
                 [--rows N] [--seed S]
                   networked clients with bounded retry + endpoint rotation
  warper datasets";

/// Splits `[cmd, --k, v, --flag, ...]` into the command and a flag map
/// (valueless flags map to "true").
fn parse(args: &[String]) -> Option<(String, HashMap<String, String>)> {
    let mut it = args.iter();
    let cmd = it.next()?.clone();
    let mut flags = HashMap::new();
    let mut pending: Option<String> = None;
    for a in it {
        if let Some(key) = a.strip_prefix("--") {
            if let Some(prev) = pending.take() {
                flags.insert(prev, "true".to_string());
            }
            pending = Some(key.to_string());
        } else if let Some(key) = pending.take() {
            flags.insert(key, a.clone());
        } else {
            eprintln!("unexpected positional argument {a:?}");
            return None;
        }
    }
    if let Some(prev) = pending {
        flags.insert(prev, "true".to_string());
    }
    Some((cmd, flags))
}

fn dataset_of(flags: &HashMap<String, String>) -> Option<DatasetKind> {
    match flags.get("dataset").map(String::as_str).unwrap_or("prsa") {
        "prsa" => Some(DatasetKind::Prsa),
        "poker" => Some(DatasetKind::Poker),
        "higgs" => Some(DatasetKind::Higgs),
        other => {
            eprintln!("unknown dataset {other:?} (prsa|poker|higgs)");
            None
        }
    }
}

/// Parses `--precision` (default f32 — the gated SIMD serving path).
fn precision_of(flags: &HashMap<String, String>) -> Option<warper_repro::serve::Precision> {
    match flags.get("precision") {
        None => Some(warper_repro::serve::Precision::F32),
        Some(v) => match v.parse() {
            Ok(p) => Some(p),
            Err(e) => {
                eprintln!("{e}");
                None
            }
        },
    }
}

fn num<T: std::str::FromStr>(flags: &HashMap<String, String>, key: &str, default: T) -> Option<T> {
    match flags.get(key) {
        None => Some(default),
        Some(v) => match v.parse() {
            Ok(x) => Some(x),
            Err(_) => {
                eprintln!("--{key} expects a number, got {v:?}");
                None
            }
        },
    }
}

fn cmd_adapt(flags: &HashMap<String, String>) -> ExitCode {
    let Some(kind) = dataset_of(flags) else {
        return ExitCode::FAILURE;
    };
    let Some(rows) = num(flags, "rows", kind.default_rows()) else {
        return ExitCode::FAILURE;
    };
    let Some(seed) = num(flags, "seed", 7u64) else {
        return ExitCode::FAILURE;
    };
    let model = match flags.get("model").map(String::as_str).unwrap_or("lm-mlp") {
        "lm-mlp" => ModelKind::LmMlp,
        "lm-gbt" => ModelKind::LmGbt,
        "lm-ply" => ModelKind::LmPly,
        "lm-rbf" => ModelKind::LmRbf,
        "mscn" => ModelKind::Mscn,
        other => {
            eprintln!("unknown model {other:?}");
            return ExitCode::FAILURE;
        }
    };
    let strategy = match flags
        .get("strategy")
        .map(String::as_str)
        .unwrap_or("warper")
    {
        "ft" => StrategyKind::Ft,
        "mix" => StrategyKind::Mix,
        "aug" => StrategyKind::Aug,
        "hem" => StrategyKind::Hem,
        "warper" => StrategyKind::Warper,
        other => {
            eprintln!("unknown strategy {other:?}");
            return ExitCode::FAILURE;
        }
    };
    let train = flags.get("train").cloned().unwrap_or_else(|| "w12".into());
    let new = flags.get("new").cloned().unwrap_or_else(|| "w345".into());
    if Mix::parse(&train).is_none() || Mix::parse(&new).is_none() {
        eprintln!("workloads must be w-notation mixtures like w12 or w345");
        return ExitCode::FAILURE;
    }

    let table = generate(kind, rows, seed);
    let setup = DriftSetup::Workload {
        train: train.clone(),
        new: new.clone(),
    };
    let cfg = RunnerConfig {
        seed,
        ..Default::default()
    };
    println!(
        "{} ({} rows), {train} → {new}, model {}, strategy {}",
        kind.name(),
        rows,
        model.name(),
        strategy.name()
    );

    let res = match run_single_table(&table, &setup, model, strategy, &cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("run failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    print_run(&res);
    if flags.contains_key("compare-ft") && strategy != StrategyKind::Ft {
        let ft = match run_single_table(&table, &setup, model, StrategyKind::Ft, &cfg) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("FT comparison run failed: {e}");
                return ExitCode::FAILURE;
            }
        };
        print_run(&ft);
        let alpha = ft.curve.initial_gmq().unwrap_or(1.0);
        let beta = ft
            .curve
            .best_gmq()
            .unwrap_or(1.0)
            .min(res.curve.best_gmq().unwrap_or(1.0));
        let s = relative_speedups(&ft.curve, &res.curve, alpha, beta);
        println!(
            "speedup vs FT: Δ.5={:.1}x Δ.8={:.1}x Δ1={:.1}x",
            s.d05, s.d08, s.d10
        );
    }
    ExitCode::SUCCESS
}

fn print_run(res: &RunResult) {
    let pts: Vec<String> = res
        .curve
        .points()
        .iter()
        .map(|(q, g)| format!("{q:.0}→{g:.2}"))
        .collect();
    println!(
        "{:<8} δ_m={:.2} δ_js={:.2} gen={} anno={}  GMQ: {}",
        res.strategy,
        res.delta_m,
        res.delta_js,
        res.generated_total,
        res.annotated_total,
        pts.join(" ")
    );
}

fn cmd_gamma(flags: &HashMap<String, String>) -> ExitCode {
    let Some(kind) = dataset_of(flags) else {
        return ExitCode::FAILURE;
    };
    let Some(rows) = num(flags, "rows", kind.default_rows()) else {
        return ExitCode::FAILURE;
    };
    let Some(seed) = num(flags, "seed", 7u64) else {
        return ExitCode::FAILURE;
    };

    let table = generate(kind, rows, seed);
    let f = Featurizer::from_table(&table);
    let a = Annotator::new();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut gen = QueryGenerator::from_notation(&table, "w12");
    let corpus: Vec<LabeledExample> = gen
        .generate_many(1600, &mut rng)
        .iter()
        .map(|p| LabeledExample::new(f.featurize(p), a.count(&table, p) as f64))
        .collect();
    let holdout: Vec<LabeledExample> = gen
        .generate_many(200, &mut rng)
        .iter()
        .map(|p| LabeledExample::new(f.featurize(p), a.count(&table, p) as f64))
        .collect();
    let dim = f.dim();
    let est = estimate_gamma(
        &move || {
            Box::new(warper_repro::ce::lm::LmMlp::new(
                dim,
                warper_repro::ce::lm::LmMlpParams::default(),
                9,
            ))
        },
        &corpus,
        &holdout,
        &[100, 200, 400, 800, 1600],
        0.05,
    );
    println!(
        "learning curve on {} ({} rows, w12 workload):",
        kind.name(),
        rows
    );
    for p in &est.curve {
        println!("  {:>5} training queries → GMQ {:.2}", p.train_size, p.gmq);
    }
    println!("estimated γ = {}", est.gamma);
    ExitCode::SUCCESS
}

fn cmd_gaps(flags: &HashMap<String, String>) -> ExitCode {
    let Some(orders) = num(flags, "orders", 20_000usize) else {
        return ExitCode::FAILURE;
    };
    let Some(seed) = num(flags, "seed", 9u64) else {
        return ExitCode::FAILURE;
    };
    let tables = generate_tpch(TpchScale { orders }, seed);
    let mut rng = StdRng::seed_from_u64(seed);
    println!("plan-choice latency gaps on TPC-H-like tables ({orders} orders):");
    for scenario in Scenario::all() {
        let mut template = SpjTemplate::new(&tables, scenario, "w1");
        let executor = Executor::new(scenario);
        let gap = template
            .draw_many(100, &mut rng)
            .iter()
            .map(|q| executor.latency_gap(&q.actual))
            .fold(0.0, f64::max);
        println!("  {:<22} {gap:.1}x", scenario.name());
    }
    ExitCode::SUCCESS
}

/// Shared replay-report printer for `serve` / `loadgen`.
fn print_replay(rep: &warper_repro::serve::ReplayReport) {
    let (p50, p95, p99, max) = rep.latency.summary_scaled(1_000.0);
    println!(
        "served={} shed={} errors={} throughput={:.0} qps  mean_batch={:.1}",
        rep.served,
        rep.shed,
        rep.errors,
        rep.throughput_qps,
        rep.fleet.mean_gemm_batch()
    );
    println!("latency µs: p50={p50:.0} p95={p95:.0} p99={p99:.0} max={max:.0}");
    println!(
        "generations={} max_staleness={} precision={}",
        rep.generations_published, rep.max_staleness, rep.precision
    );
    if let Some(g) = rep.spot_gmq_pre {
        println!("spot GMQ pre-drift:  {g:.2}");
    }
    if let Some(g) = rep.spot_gmq_post {
        println!("spot GMQ post-drift: {g:.2}");
    }
    if let Some(a) = &rep.adapt {
        println!(
            "adaptation: invocations={} commits={} rollbacks={} published={} \
             quant_refusals={} annotated={} generated={} ({:.1}s)",
            a.invocations,
            a.commits,
            a.rollbacks,
            a.published,
            a.quant_refusals,
            a.annotated,
            a.generated,
            a.adapt_secs
        );
    }
    if let Some(d) = &rep.durability {
        if d.resumed {
            println!(
                "durability: resumed from checkpoint {} (+{} WAL labels{}) in {:.3}s, \
                 pool={} restored",
                d.resumed_from_seq,
                d.wal_records_replayed,
                if d.wal_truncated {
                    ", corrupt tail truncated"
                } else {
                    ""
                },
                d.recovery_secs,
                d.restored_pool_len,
            );
        } else {
            println!("durability: fresh state directory");
        }
        println!(
            "durability: checkpoints={} (failures={}, {:.3}s) wal_appends={} \
             (failures={}, {:.3}s) final_seq={}",
            d.checkpoints,
            d.checkpoint_failures,
            d.checkpoint_secs,
            d.wal_appends,
            d.wal_append_failures,
            d.wal_secs,
            d.final_seq,
        );
    }
    println!("estimates checksum: {:016x}", rep.estimates_checksum);
}

/// Opens `--state-dir` as a [`StdVfs`], or a fresh in-memory Vfs when the
/// flag is absent (ephemeral node).
fn vfs_of(
    flags: &HashMap<String, String>,
) -> Option<std::sync::Arc<dyn warper_repro::durable::Vfs>> {
    use warper_repro::durable::{MemVfs, StdVfs};
    match flags.get("state-dir") {
        None => Some(std::sync::Arc::new(MemVfs::new())),
        Some(dir) => match StdVfs::open(dir) {
            Ok(vfs) => Some(std::sync::Arc::new(vfs)),
            Err(e) => {
                eprintln!("cannot open state dir {dir:?}: {e}");
                None
            }
        },
    }
}

/// `warper serve --listen ADDR`: a networked primary — trained model,
/// background adaptation, replicated durable store, TCP front-end.
fn cmd_serve_primary(flags: &HashMap<String, String>) -> ExitCode {
    use warper_repro::durable::DurabilityConfig;
    use warper_repro::serve::net::{PrimaryNode, PrimarySpec};

    let Some(kind) = dataset_of(flags) else {
        return ExitCode::FAILURE;
    };
    let Some(rows) = num(flags, "rows", kind.default_rows().min(10_000)) else {
        return ExitCode::FAILURE;
    };
    let Some(seed) = num(flags, "seed", 7u64) else {
        return ExitCode::FAILURE;
    };
    let Some(duration) = num(flags, "duration", 0u64) else {
        return ExitCode::FAILURE;
    };
    let Some(checkpoint_every) = num(flags, "checkpoint-every", 4usize) else {
        return ExitCode::FAILURE;
    };
    let Some(vfs) = vfs_of(flags) else {
        return ExitCode::FAILURE;
    };
    let listen = flags.get("listen").cloned().unwrap_or_default();
    let mix = flags.get("mix").cloned().unwrap_or_else(|| "w1".into());

    let table = generate(kind, rows, seed);
    let spec = PrimarySpec {
        mix,
        seed,
        durability: DurabilityConfig { checkpoint_every },
        ..Default::default()
    };
    let node = match PrimaryNode::start(&table, vfs, &listen, spec) {
        Ok(n) => n,
        Err(e) => {
            eprintln!("primary failed to start: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "primary serving {} ({rows} rows) on {}",
        kind.name(),
        node.addr()
    );
    let t0 = std::time::Instant::now();
    loop {
        std::thread::sleep(std::time::Duration::from_secs(1));
        let lag = node.lag();
        if lag.published > 0 {
            println!(
                "repl: published={} acked={} ops_behind={} secs_behind={:.3}",
                lag.published, lag.acked, lag.ops_behind, lag.secs_behind
            );
        }
        if duration > 0 && t0.elapsed().as_secs() >= duration {
            break;
        }
    }
    let rep = node.shutdown();
    println!(
        "primary done: {} requests, {} ok, {} shed, {} deadline trips; \
         replicated {} mutations ({} acked)",
        rep.net.requests,
        rep.net.responses_ok,
        rep.net.shed,
        rep.net.deadline_trips,
        rep.repl.published,
        rep.repl.acked
    );
    ExitCode::SUCCESS
}

/// `warper serve --standby-of ADDR`: a warm standby that replicates the
/// primary's durable state and promotes itself when the link is lost.
fn cmd_serve_standby(flags: &HashMap<String, String>) -> ExitCode {
    use warper_repro::serve::net::{StandbyConfig, StandbyNode};

    let Some(duration) = num(flags, "duration", 0u64) else {
        return ExitCode::FAILURE;
    };
    let Some(vfs) = vfs_of(flags) else {
        return ExitCode::FAILURE;
    };
    let primary = flags.get("standby-of").cloned().unwrap_or_default();
    let listen = flags
        .get("listen")
        .cloned()
        .unwrap_or_else(|| "127.0.0.1:0".into());
    let cfg = StandbyConfig {
        auto_promote: !flags.contains_key("no-auto-promote"),
        ..Default::default()
    };
    let node = match StandbyNode::start(vfs, &listen, primary.clone(), cfg) {
        Ok(n) => n,
        Err(e) => {
            eprintln!("standby failed to start: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("standby of {primary} listening on {}", node.addr());
    let t0 = std::time::Instant::now();
    let mut was_promoted = false;
    loop {
        std::thread::sleep(std::time::Duration::from_secs(1));
        let st = node.state();
        println!(
            "standby: watermark={} validated_seq={} snapshots={} wal_frames={} rejected={}",
            st.watermark,
            st.validated_seq,
            st.stats.snapshots_applied,
            st.stats.wal_frames_applied,
            st.stats.rejected_ops
        );
        if node.promoted() && !was_promoted {
            was_promoted = true;
            println!("PROMOTED: serving on {}", node.addr());
        }
        if duration > 0 && t0.elapsed().as_secs() >= duration {
            break;
        }
    }
    let rep = node.shutdown();
    println!(
        "standby done: applied {} snapshots + {} wal frames (rejected {}), promoted={}",
        rep.state.stats.snapshots_applied,
        rep.state.stats.wal_frames_applied,
        rep.state.stats.rejected_ops,
        rep.state.promoted_generation.is_some()
    );
    ExitCode::SUCCESS
}

/// Fleet replay-report printer for `serve --shards` / `loadgen --tenants`:
/// aggregate throughput, split shed counters (admission vs deadline),
/// packing efficiency, and a per-shard hot-spot table.
fn print_fleet(rep: &warper_repro::serve::FleetReport) {
    let f = &rep.fleet;
    let (p50, p95, p99, max) = rep.latency.summary_scaled(1_000.0);
    println!(
        "shards={} served={} shed={} deadline_shed={} rejected={} errors={} \
         throughput={:.0} qps ({:.1}s)",
        rep.shards,
        rep.served,
        f.shed,
        f.shed_deadline,
        f.rejected,
        rep.errors,
        rep.throughput_qps,
        rep.wall_secs
    );
    println!("latency µs: p50={p50:.0} p95={p95:.0} p99={p99:.0} max={max:.0}");
    println!(
        "packing: gemm_groups={} packed_requests={} mean_gemm_batch={:.1} \
         mean_sub_batch={:.1} pack_efficiency={:.2} deadline_trips={}",
        f.gemm_groups,
        f.packed_requests,
        f.mean_gemm_batch(),
        f.mean_sub_batch(),
        f.pack_efficiency(),
        f.deadline_trips
    );
    let mut hot: Vec<(usize, &warper_repro::serve::ShardReport)> =
        rep.per_shard.iter().enumerate().collect();
    hot.sort_by(|a, b| b.1.stats.served.cmp(&a.1.stats.served).then(a.0.cmp(&b.0)));
    println!("hottest shards (of {}):", rep.per_shard.len());
    for (id, s) in hot.iter().take(8) {
        println!(
            "  #{id:<4} {:<20} served={:<6} shed={} deadline_shed={} qps={:.0} \
             mean_sub_batch={:.1} gen={}",
            s.key.to_string(),
            s.stats.served,
            s.stats.shed,
            s.stats.shed_deadline,
            s.qps,
            s.stats.mean_sub_batch(),
            s.stats.generation
        );
    }
    for (id, a) in &rep.adapt {
        println!(
            "shard #{id} adaptation: invocations={} commits={} rollbacks={} \
             published={} annotated={} generated={} ({:.1}s)",
            a.invocations,
            a.commits,
            a.rollbacks,
            a.published,
            a.annotated,
            a.generated,
            a.adapt_secs
        );
    }
    if !rep.drift.is_empty() {
        println!("shard drift (sketch-ranked, worst first):");
        let grant_of = |shard: u32| {
            rep.annotation_grants
                .iter()
                .find(|&&(id, _)| id == shard)
                .map(|&(_, g)| g)
        };
        for d in &rep.drift {
            let grant = grant_of(d.shard)
                .map(|g| format!(" grant={g}"))
                .unwrap_or_default();
            println!(
                "  #{:<4} score={:.3} changed={:.3} distinct_shift={:.3} hh_churn={:.3}{}",
                d.shard, d.score, d.changed_fraction, d.distinct_shift, d.hh_churn, grant
            );
        }
    }
    for (id, d) in &rep.durability {
        println!(
            "shard #{id} durability: resumed={} checkpoints={} wal_appends={} final_seq={}",
            d.resumed, d.checkpoints, d.wal_appends, d.final_seq
        );
    }
    if let Some(g) = rep.spot_gmq {
        println!("spot GMQ: {g:.2}");
    }
    println!("estimates checksum: {:016x}", rep.estimates_checksum);
}

/// In-process multi-tenant fleet replay. `serve --shards N` and
/// `loadgen --tenants N` both land here — the flag name differs, the
/// harness does not (`shards_key` selects which one carries the count).
fn cmd_fleet_replay(flags: &HashMap<String, String>, shards_key: &str) -> ExitCode {
    use std::sync::Arc;

    use warper_repro::durable::{DurabilityConfig, StdVfs, Vfs};
    use warper_repro::serve::{run_fleet_replay, FleetConfig, FleetDurable, FleetReplaySpec};

    let Some(kind) = dataset_of(flags) else {
        return ExitCode::FAILURE;
    };
    let Some(rows) = num(flags, "rows", kind.default_rows().min(10_000)) else {
        return ExitCode::FAILURE;
    };
    let Some(seed) = num(flags, "seed", 7u64) else {
        return ExitCode::FAILURE;
    };
    let Some(shards) = num(flags, shards_key, 8usize) else {
        return ExitCode::FAILURE;
    };
    let Some(zipf_s) = num(flags, "zipf", 1.1f64) else {
        return ExitCode::FAILURE;
    };
    let Some(adapt_shards) = num(flags, "adapt-shards", 0usize) else {
        return ExitCode::FAILURE;
    };
    let Some(drift_shards) = num(flags, "drift-shards", 0usize) else {
        return ExitCode::FAILURE;
    };
    let Some(annotation_budget) = num(flags, "annotation-budget", 0usize) else {
        return ExitCode::FAILURE;
    };
    let Some(queries) = num(flags, "queries", 2_000usize) else {
        return ExitCode::FAILURE;
    };
    let Some(clients) = num(flags, "clients", 4usize) else {
        return ExitCode::FAILURE;
    };
    let Some(checkpoint_every) = num(flags, "checkpoint-every", 4usize) else {
        return ExitCode::FAILURE;
    };
    let Some(precision) = precision_of(flags) else {
        return ExitCode::FAILURE;
    };
    let default_fleet = FleetConfig::default();
    let Some(workers) = num(flags, "workers", default_fleet.workers) else {
        return ExitCode::FAILURE;
    };
    let mix = flags.get("mix").cloned().unwrap_or_else(|| "w1".into());

    // Per-shard durable lineages live under `state_dir/{shard-tenant-table}`
    // ([`StdVfs::open`] creates the subdirectory).
    let durable = flags.get("state-dir").cloned().map(|dir| FleetDurable {
        cfg: DurabilityConfig { checkpoint_every },
        vfs_for: Box::new(move |key: &warper_repro::serve::ShardKey| {
            StdVfs::open(format!("{dir}/{}", key.dir_name())).map(|v| Arc::new(v) as Arc<dyn Vfs>)
        }),
    });
    let spec = FleetReplaySpec {
        shards,
        zipf_s,
        adapt_shards,
        drift_shards,
        annotation_budget,
        mix,
        n_queries: queries,
        clients,
        fleet: FleetConfig {
            workers,
            packing: !flags.contains_key("no-pack"),
            ..default_fleet
        },
        // Serving-scale controller, as in `cmd_serve`: small modules keep
        // per-shard retraining steps short.
        warper: WarperConfig {
            embed_dim: 8,
            hidden: 32,
            n_i: 6,
            pretrain_epochs: 3,
            gamma: 200,
            n_p: 60,
            ..Default::default()
        },
        seed,
        precision,
        durable,
        ..Default::default()
    };

    println!(
        "{} ({rows} rows), {queries} queries over {shards} shards \
         (zipf s={zipf_s}, {clients} clients, {workers} workers, packing {})",
        kind.name(),
        if spec.fleet.packing { "on" } else { "off" },
    );
    let table = generate(kind, rows, seed);
    let rep = match run_fleet_replay(&table, &spec) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("fleet replay failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    print_fleet(&rep);

    if flags.contains_key("smoke") {
        // CI smoke gate: every request answered (no admission or deadline
        // sheds at this load), nothing errored, and packing actually packed.
        let f = &rep.fleet;
        let mut failures = Vec::new();
        if rep.errors != 0 {
            failures.push(format!("{} fleet errors", rep.errors));
        }
        if f.shed != 0 {
            failures.push(format!("{} requests admission-shed at idle load", f.shed));
        }
        if f.shed_deadline != 0 {
            failures.push(format!(
                "{} requests deadline-shed at idle load",
                f.shed_deadline
            ));
        }
        if rep.served != queries {
            failures.push(format!("served {}/{queries}", rep.served));
        }
        if spec.fleet.packing && f.pack_efficiency() < 1.0 {
            failures.push(format!(
                "pack efficiency {:.2} below 1.0 with packing on",
                f.pack_efficiency()
            ));
        }
        if !failures.is_empty() {
            eprintln!("SMOKE FAILED: {}", failures.join("; "));
            return ExitCode::FAILURE;
        }
        println!("smoke OK");
    }
    ExitCode::SUCCESS
}

/// `warper serve --listen ADDR --shards N`: a networked fleet — N shards
/// sharing one base snapshot behind a shard-routing TCP front-end
/// (`EstimateReqShard` on the wire; plain v1 requests land on shard 0).
fn cmd_serve_fleet_net(flags: &HashMap<String, String>) -> ExitCode {
    use std::sync::Arc;

    use warper_repro::serve::net::{NetServer, NetServerConfig, ServerCore};
    use warper_repro::serve::{
        prepare_serving_model, Fleet, FleetConfig, ModelSnapshot, ShardKey, ShardSpec,
    };

    let Some(kind) = dataset_of(flags) else {
        return ExitCode::FAILURE;
    };
    let Some(rows) = num(flags, "rows", kind.default_rows().min(10_000)) else {
        return ExitCode::FAILURE;
    };
    let Some(seed) = num(flags, "seed", 7u64) else {
        return ExitCode::FAILURE;
    };
    let Some(duration) = num(flags, "duration", 0u64) else {
        return ExitCode::FAILURE;
    };
    let Some(shards) = num(flags, "shards", 8u32) else {
        return ExitCode::FAILURE;
    };
    let Some(precision) = precision_of(flags) else {
        return ExitCode::FAILURE;
    };
    let default_fleet = FleetConfig::default();
    let Some(workers) = num(flags, "workers", default_fleet.workers) else {
        return ExitCode::FAILURE;
    };
    let mix = flags.get("mix").cloned().unwrap_or_else(|| "w1".into());
    let listen = flags.get("listen").cloned().unwrap_or_default();

    let table = generate(kind, rows, seed);
    let prepared =
        match warper_repro::warper::prepare_single_table(&table, &mix, ModelKind::LmMlp, 400, seed)
        {
            Ok(p) => p,
            Err(e) => {
                eprintln!("training failed: {e}");
                return ExitCode::FAILURE;
            }
        };
    let Some(serving) = prepared.model.snapshot() else {
        eprintln!(
            "{} cannot snapshot; serving requires an immutable copy",
            prepared.model.name()
        );
        return ExitCode::FAILURE;
    };
    let probe: Vec<&[f64]> = prepared
        .training_set
        .iter()
        .map(|(f, _)| f.as_slice())
        .collect();
    let (serving, precision, _) =
        prepare_serving_model(prepared.model.as_ref(), serving, precision, &probe, 0.05);
    let snap = Arc::new(ModelSnapshot::initial(serving).with_precision(precision));
    let specs: Vec<ShardSpec> = (0..shards)
        .map(|i| ShardSpec {
            key: ShardKey::new(format!("tenant-{i:04}"), "main"),
            snapshot: Arc::clone(&snap),
            adapt: None,
        })
        .collect();
    let fleet = Fleet::start(
        specs,
        FleetConfig {
            workers,
            packing: !flags.contains_key("no-pack"),
            ..default_fleet
        },
    );
    let core = ServerCore::new_fleet(fleet.handle(), true, None);
    let server = match NetServer::bind(&listen, core, NetServerConfig::default()) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("fleet server failed to bind {listen:?}: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "fleet serving {shards} shards of {} ({rows} rows) on {}",
        kind.name(),
        server.local_addr()
    );
    let t0 = std::time::Instant::now();
    loop {
        std::thread::sleep(std::time::Duration::from_secs(1));
        if duration > 0 && t0.elapsed().as_secs() >= duration {
            break;
        }
    }
    let net = server.shutdown();
    let (stats, _, _) = fleet.shutdown();
    println!(
        "fleet done: {} requests, {} ok, shed={} deadline_shed={} unknown_shard_rejects={}",
        net.requests, net.responses_ok, net.shed, net.shed_deadline, stats.rejected
    );
    println!(
        "packing: gemm_groups={} mean_gemm_batch={:.1} pack_efficiency={:.2}",
        stats.gemm_groups,
        stats.mean_gemm_batch(),
        stats.pack_efficiency()
    );
    ExitCode::SUCCESS
}

fn cmd_serve(flags: &HashMap<String, String>) -> ExitCode {
    use std::sync::Arc;

    use warper_repro::durable::{DurabilityConfig, StdVfs};
    use warper_repro::serve::{
        run_replay, AdaptConfig, AdaptMode, DriftEvent, DriftKind, DurableReplay, ReplaySpec,
    };
    use warper_repro::warper::supervisor::SupervisorConfig;

    // Dispatch: `--standby-of` wins (a standby may also `--listen`), then
    // `--listen` starts a networked node (`--shards` makes it a fleet),
    // then `--shards` alone runs the in-process fleet replay; only a bare
    // invocation falls through to the single-tenant replay harness.
    if flags.contains_key("standby-of") {
        return cmd_serve_standby(flags);
    }
    if flags.contains_key("listen") {
        if flags.contains_key("shards") {
            return cmd_serve_fleet_net(flags);
        }
        return cmd_serve_primary(flags);
    }
    if flags.contains_key("shards") {
        return cmd_fleet_replay(flags, "shards");
    }

    let Some(kind) = dataset_of(flags) else {
        return ExitCode::FAILURE;
    };
    let Some(rows) = num(flags, "rows", kind.default_rows().min(10_000)) else {
        return ExitCode::FAILURE;
    };
    let Some(seed) = num(flags, "seed", 7u64) else {
        return ExitCode::FAILURE;
    };
    let Some(queries) = num(flags, "queries", 1_000usize) else {
        return ExitCode::FAILURE;
    };
    let Some(clients) = num(flags, "clients", 4usize) else {
        return ExitCode::FAILURE;
    };
    let Some(invoke_every) = num(flags, "invoke-every", 100usize) else {
        return ExitCode::FAILURE;
    };
    let Some(precision) = precision_of(flags) else {
        return ExitCode::FAILURE;
    };
    let mix = flags.get("mix").cloned().unwrap_or_else(|| "w1".into());
    let drift_at = match num(flags, "drift-at", 0usize) {
        Some(n) => n,
        None => return ExitCode::FAILURE,
    };
    let drift = (drift_at > 0).then(|| DriftEvent {
        at_query: drift_at,
        kind: if flags.contains_key("data-drift") {
            DriftKind::Data(DataDriftKind::SortTruncate { col: 1 })
        } else {
            DriftKind::Workload {
                new_mix: flags.get("new").cloned().unwrap_or_else(|| "w4".into()),
            }
        },
    });
    let adapt = if flags.contains_key("sync") {
        AdaptMode::Synchronous {
            supervisor: SupervisorConfig::default(),
            invoke_every,
        }
    } else {
        AdaptMode::Background(AdaptConfig {
            invoke_every,
            ..Default::default()
        })
    };
    // Serving-scale controller: small modules keep retraining steps short.
    let warper_cfg = WarperConfig {
        embed_dim: 8,
        hidden: 32,
        n_i: 6,
        pretrain_epochs: 3,
        gamma: 200,
        n_p: 60,
        ..Default::default()
    };
    let Some(checkpoint_every) = num(flags, "checkpoint-every", 4usize) else {
        return ExitCode::FAILURE;
    };
    let durable = match flags.get("state-dir") {
        None => None,
        Some(dir) => match StdVfs::open(dir) {
            Ok(vfs) => Some(DurableReplay {
                vfs: Arc::new(vfs),
                cfg: DurabilityConfig { checkpoint_every },
            }),
            Err(e) => {
                eprintln!("cannot open state dir {dir:?}: {e}");
                return ExitCode::FAILURE;
            }
        },
    };

    let spec = ReplaySpec {
        mix,
        n_train: 400,
        n_queries: queries,
        clients,
        drift,
        adapt,
        warper: warper_cfg,
        seed,
        spot_checks: 25,
        durable,
        precision,
        ..Default::default()
    };

    println!(
        "{} ({rows} rows), serving {queries} queries from {clients} clients ({})",
        kind.name(),
        if flags.contains_key("sync") {
            "synchronous adaptation"
        } else {
            "background adaptation"
        },
    );
    let table = generate(kind, rows, seed);
    let rep = match run_replay(&table, &spec) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("replay failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    print_replay(&rep);

    if flags.contains_key("smoke") {
        // CI smoke gate: everything answered, nothing shed at this load,
        // nothing errored, and tail latency within a generous bound.
        let (_, _, p99, _) = rep.latency.summary_scaled(1_000.0);
        let mut failures = Vec::new();
        if rep.errors != 0 {
            failures.push(format!("{} serve errors", rep.errors));
        }
        if rep.shed != 0 {
            failures.push(format!("{} requests shed at idle load", rep.shed));
        }
        if rep.served != queries {
            failures.push(format!("served {}/{queries}", rep.served));
        }
        if p99 > 250_000.0 {
            failures.push(format!("p99 {p99:.0}µs above generous 250ms bound"));
        }
        if let Some(a) = &rep.adapt {
            if a.invocations == 0 {
                failures.push("adaptation never ran".into());
            }
        }
        if !failures.is_empty() {
            eprintln!("SMOKE FAILED: {}", failures.join("; "));
            return ExitCode::FAILURE;
        }
        println!("smoke OK");
    }
    ExitCode::SUCCESS
}

/// `warper loadgen --connect ADDR[,ADDR2]`: deterministic multi-client
/// load against networked servers, with bounded retry and rotation.
fn cmd_loadgen_net(flags: &HashMap<String, String>) -> ExitCode {
    use warper_repro::serve::net::{run_net_loadgen, NetLoadSpec};

    let Some(kind) = dataset_of(flags) else {
        return ExitCode::FAILURE;
    };
    let Some(rows) = num(flags, "rows", kind.default_rows().min(10_000)) else {
        return ExitCode::FAILURE;
    };
    let Some(seed) = num(flags, "seed", 7u64) else {
        return ExitCode::FAILURE;
    };
    let Some(queries) = num(flags, "queries", 2_000usize) else {
        return ExitCode::FAILURE;
    };
    let Some(clients) = num(flags, "clients", 4usize) else {
        return ExitCode::FAILURE;
    };
    let Some(tenants) = num(flags, "tenants", 0u32) else {
        return ExitCode::FAILURE;
    };
    let Some(zipf_s) = num(flags, "zipf", 1.1f64) else {
        return ExitCode::FAILURE;
    };
    let endpoints: Vec<String> = flags
        .get("connect")
        .map(|s| s.split(',').map(str::to_string).collect())
        .unwrap_or_default();
    let mix = flags.get("mix").cloned().unwrap_or_else(|| "w1".into());

    // The table must match the server's `--dataset/--rows/--seed` so the
    // featurization (and therefore the checksum) lines up.
    let table = generate(kind, rows, seed);
    let spec = NetLoadSpec {
        endpoints,
        clients,
        n_queries: queries,
        mix,
        seed,
        tenants,
        zipf_s,
        ..Default::default()
    };
    println!(
        "{} ({rows} rows), {queries} queries from {clients} networked clients → {:?}",
        kind.name(),
        spec.endpoints
    );
    let rep = match run_net_loadgen(&table, &spec) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("loadgen failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let (p50, p95, p99, max) = rep.latency.summary_scaled(1_000.0);
    println!(
        "ok={} shed={} rejected={} unavailable={} disconnected={} ({:.1}s)",
        rep.ok,
        rep.shed,
        rep.rejected,
        rep.unavailable,
        rep.disconnected,
        rep.elapsed.as_secs_f64()
    );
    println!("latency µs: p50={p50:.0} p95={p95:.0} p99={p99:.0} max={max:.0}");
    println!(
        "transport: reconnects={} rotations={} net_errors={} backoff={:.2}s \
         max_success_gap={:.3}s",
        rep.client.reconnects,
        rep.client.rotations,
        rep.client.net_errors,
        rep.client.backoff_secs,
        rep.max_success_gap.as_secs_f64()
    );
    println!("estimates checksum: {:016x}", rep.checksum);
    ExitCode::SUCCESS
}

fn cmd_loadgen(flags: &HashMap<String, String>) -> ExitCode {
    use warper_repro::serve::{run_replay, FleetConfig, ReplaySpec};

    if flags.contains_key("connect") {
        return cmd_loadgen_net(flags);
    }
    if flags.contains_key("tenants") {
        return cmd_fleet_replay(flags, "tenants");
    }

    let Some(kind) = dataset_of(flags) else {
        return ExitCode::FAILURE;
    };
    let Some(rows) = num(flags, "rows", kind.default_rows().min(10_000)) else {
        return ExitCode::FAILURE;
    };
    let Some(seed) = num(flags, "seed", 7u64) else {
        return ExitCode::FAILURE;
    };
    let Some(queries) = num(flags, "queries", 2_000usize) else {
        return ExitCode::FAILURE;
    };
    let Some(clients) = num(flags, "clients", 4usize) else {
        return ExitCode::FAILURE;
    };
    let Some(batch) = num(flags, "batch", 64usize) else {
        return ExitCode::FAILURE;
    };
    let Some(rate) = num(flags, "rate", 0.0f64) else {
        return ExitCode::FAILURE;
    };
    let Some(precision) = precision_of(flags) else {
        return ExitCode::FAILURE;
    };
    let mix = flags.get("mix").cloned().unwrap_or_else(|| "w1".into());

    let spec = ReplaySpec {
        mix,
        n_train: 400,
        n_queries: queries,
        clients,
        fleet: FleetConfig {
            max_packed_batch: batch,
            ..FleetConfig::single_tenant()
        },
        precision,
        seed,
        pace: (rate > 0.0).then(|| ArrivalProcess {
            rate_per_sec: rate,
            period_secs: queries as f64 / rate,
        }),
        ..Default::default()
    };

    println!(
        "{} ({rows} rows), load-generating {queries} queries from {clients} clients{}",
        kind.name(),
        if rate > 0.0 {
            format!(" at {rate} qps")
        } else {
            " (closed loop)".into()
        },
    );
    let table = generate(kind, rows, seed);
    let rep = match run_replay(&table, &spec) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("loadgen failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    print_replay(&rep);
    ExitCode::SUCCESS
}

fn cmd_datasets() -> ExitCode {
    for kind in DatasetKind::all() {
        let t = generate(kind, kind.default_rows(), 7);
        println!("{:?}", t.profile());
    }
    ExitCode::SUCCESS
}
