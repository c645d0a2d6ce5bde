//! Turning a pass into named metrics: the end-to-end ones a user sees, and
//! the per-layer ones from the traced pass.

use std::collections::HashMap;

use crate::acct::{
    self, generation_regressions, Tally, median, percentile, windowed, windowed_latency_us, Outcome,
};

/// Window of the latency percentiles (each window's percentile, median
/// over windows).
const LAT_WINDOW: u64 = 1_000_000_000;

use crate::trace::{self_times, Span};
use crate::workloads::{self, Inputs, Pass, Workload, SLOT};

/// A named metric with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn m(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
    }
}

/// A correctness check: how many items it covered, how many violated it.
#[derive(Debug, Clone)]
pub struct Check {
    pub name: &'static str,
    pub checked: u64,
    pub violations: u64,
}

/// Every end-to-end metric, in report order. Every workload reports each
/// of them, and none of them reads 0 on a run that serves.
pub const E2E: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("lat_p50_us", "us"),
    ("served_frac", "ratio"),
    ("rss_mb", "MiB"),
];

/// What clients saw beyond the end-to-end metrics, in report order. These
/// figures either exist on some workloads only (0 elsewhere) or spread too
/// much from run to run on a shared 2-vCPU host to carry a regression
/// bound; the traced run reports them as the per-layer `served.*` metrics.
pub const SERVED: [(&str, &str); 9] = [
    ("qps", "req/s"),
    ("lat_p90_us", "us"),
    ("lat_p99_us", "us"),
    ("pre_gmq", "gmq"),
    ("gmq_post", "gmq"),
    ("recover_s", "s"),
    ("write_p50_us", "us"),
    ("write_p99_us", "us"),
    ("peak_rss_mb", "MiB"),
];

/// End-to-end metrics of one pass, its correctness checks, and the
/// [`SERVED`] figures.
pub fn end_to_end(inp: &Inputs, pass: &Pass) -> (Vec<Metric>, Vec<Check>, Vec<Metric>) {
    let open = pass.all_open();
    let tally = Tally::of(&pass.requests());
    let lat_us = |q: f64| windowed_latency_us(&open, pass.t0, pass.open_end, LAT_WINDOW, q);
    let mut vals: HashMap<&str, f64> = HashMap::new();
    vals.insert("setup_s", median(&pass.setup_s));
    vals.insert("lat_p50_us", lat_us(50.0));
    vals.insert("lat_p90_us", lat_us(90.0));
    vals.insert("lat_p99_us", lat_us(99.0));
    vals.insert("served_frac", tally.served_frac());
    vals.insert("rss_mb", median(&pass.rss_mb));
    vals.insert("peak_rss_mb", pass.peak_rss_mb);
    if !pass.closed.is_empty() {
        // Each closed-loop slot's throughput; the median over slots.
        let qps = windowed(
            &pass.closed,
            pass.t0,
            pass.open_end,
            SLOT,
            |r| r.sent,
            |w| {
                let ok = w.iter().filter(|r| r.outcome == Outcome::Ok).count() as f64;
                let from = w.iter().map(|r| r.sent).min().unwrap_or(0);
                let to = w.iter().map(|r| r.done).max().unwrap_or(from);
                ok * 1e9 / to.saturating_sub(from).max(1) as f64
            },
        );
        vals.insert("qps", qps);
    }
    let write_lat: Vec<f64> = pass
        .writes
        .iter()
        .map(|w| (w.released - w.due) as f64 / 1e3)
        .collect();
    vals.insert("write_p50_us", p(&write_lat, 50.0));
    vals.insert("write_p99_us", p(&write_lat, 99.0));
    let mut checks = Vec::new();
    if inp.workload != Workload::ServeZipf {
        let acc = workloads::accuracy(inp, pass);
        vals.insert("pre_gmq", acc.pre_gmq);
        vals.insert("gmq_post", acc.gmq_post);
        vals.insert("recover_s", acc.recover_s);
        checks.push(Check {
            name: "post-drift estimates scored against truth",
            checked: acc.scored as u64,
            violations: u64::from(acc.scored == 0),
        });
    }
    let named = |list: &[(&str, &'static str)]| -> Vec<Metric> {
        list.iter()
            .map(|&(name, unit)| m(name, vals.get(name).copied().unwrap_or(0.0), unit))
            .collect()
    };
    let (metrics, served) = (named(&E2E), named(&SERVED));

    // Bit identity: every serve-zipf answer equals the base serving model's
    // own estimate, over TCP and in process alike.
    if inp.workload == Workload::ServeZipf {
        let mut checked = 0;
        let mut bad = 0;
        for r in open.iter().chain(&pass.closed).chain(&pass.inproc) {
            if r.outcome == Outcome::Ok {
                checked += 1;
                bad += u64::from(r.value.to_bits() != pass.reference[r.query]);
            }
        }
        checks.push(Check {
            name: "answers bit-identical to the base serving model",
            checked,
            violations: bad,
        });
    }
    // Generations per shard never decrease, per connection in reply order.
    let shards = pass.fin.shards.len();
    let mut regress = 0;
    let mut checked = 0;
    for conn in &pass.open {
        regress += generation_regressions(conn, shards);
        checked += conn.len() as u64;
    }
    regress += generation_regressions(&pass.closed, shards);
    checked += pass.closed.len() as u64;
    checks.push(Check {
        name: "served generations never decrease per shard",
        checked,
        violations: regress,
    });
    (metrics, checks, served)
}

fn p(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        percentile(values, q)
    }
}

fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Links request spans (carrying one feature key) to the GEMM span that
/// answered them: the first `ce.estimate_many` holding the key that starts
/// inside the request span. Returns `(request span, ce span)` index pairs.
fn link_ce(spans: &[Span], request: &str) -> Vec<(usize, usize)> {
    let mut by_key: HashMap<u64, Vec<usize>> = HashMap::new();
    for (i, s) in spans.iter().enumerate() {
        if s.name == "ce.estimate_many" {
            for &k in &s.keys {
                by_key.entry(k).or_default().push(i);
            }
        }
    }
    spans
        .iter()
        .enumerate()
        .filter(|(_, s)| s.name == request)
        .filter_map(|(i, s)| {
            let k = *s.keys.first()?;
            by_key
                .get(&k)?
                .iter()
                .copied()
                .find(|&c| spans[c].start >= s.start && spans[c].end <= s.end)
                .map(|c| (i, c))
        })
        .collect()
}

/// Per-layer metrics from an untraced and a traced pass of one workload.
pub fn per_layer(inp: &Inputs, plain: &Pass, traced: &Pass) -> Vec<Metric> {
    let spans = &traced.spans;
    let selfs = self_times(spans);
    let durs = |name: &str| -> Vec<f64> {
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur() as f64)
            .collect()
    };
    let self_of = |name: &str| -> Vec<f64> {
        spans
            .iter()
            .zip(&selfs)
            .filter(|(s, _)| s.name == name)
            .map(|(_, &t)| t as f64)
            .collect()
    };
    // Folds from +0.0: an empty float `sum()` is -0.0.
    let sum = |v: &[f64]| v.iter().fold(0.0, |a, b| a + b);
    let mut out = Vec::new();

    // net
    let net = traced.fin.net;
    let client = durs("client.request");
    let fleet_est = durs("fleet.estimate");
    let net_self = if fleet_est.is_empty() {
        0.0
    } else {
        (p(&client, 50.0) - p(&fleet_est, 50.0)) / 1e3
    };
    out.push(m("net.requests", net.requests as f64, "count"));
    out.push(m(
        "net.refused",
        (net.shed + net.shed_deadline + net.rejected + net.unavailable) as f64,
        "count",
    ));
    out.push(m(
        "net.retries",
        (traced.clients.reconnects + traced.clients.net_errors) as f64,
        "count",
    ));
    out.push(m("net.deadline_trips", net.deadline_trips as f64, "count"));
    out.push(m("net.write_us", p(&durs("net.write"), 50.0) / 1e3, "us"));
    out.push(m("net.self_us", net_self, "us"));

    // fleet
    let f = traced.fin.fleet;
    let inproc_links = link_ce(spans, "fleet.estimate");
    let waits: Vec<f64> = inproc_links
        .iter()
        .map(|&(r, c)| (spans[c].start - spans[r].start) as f64 / 1e3)
        .collect();
    let fleet_self: Vec<f64> = inproc_links
        .iter()
        .map(|&(r, c)| (spans[r].dur().saturating_sub(spans[c].dur())) as f64 / 1e3)
        .collect();
    let ce_per_req: Vec<f64> = inproc_links
        .iter()
        .map(|&(_, c)| spans[c].dur() as f64 / 1e3)
        .collect();
    out.push(m("fleet.packs", f.packs as f64, "count"));
    out.push(m("fleet.gemm_groups", f.gemm_groups as f64, "count"));
    out.push(m("fleet.gemm_batch", f.mean_gemm_batch(), "rows"));
    out.push(m("fleet.pack_efficiency", f.pack_efficiency(), "ratio"));
    out.push(m("fleet.shed", (f.shed + f.shed_deadline) as f64, "count"));
    out.push(m("fleet.wait_p50_us", p(&waits, 50.0), "us"));
    out.push(m("fleet.wait_p99_us", p(&waits, 99.0), "us"));
    out.push(m("fleet.self_us", p(&fleet_self, 50.0), "us"));

    // ce
    let ce: Vec<&Span> = spans
        .iter()
        .filter(|s| s.name == "ce.estimate_many")
        .collect();
    let ce_rows: usize = ce.iter().map(|s| s.keys.len()).sum();
    let ce_busy_ns: u64 = ce.iter().map(|s| s.dur()).sum();
    out.push(m("ce.calls", ce.len() as f64, "count"));
    out.push(m("ce.rows", ce_rows as f64, "count"));
    out.push(m("ce.busy_ms", ce_busy_ns as f64 / 1e6, "ms"));
    out.push(m("ce.us_per_row", ratio(ce_busy_ns as f64 / 1e3, ce_rows as f64), "us"));
    out.push(m("ce.inference_ms", f.inference_nanos as f64 / 1e6, "ms"));

    // adapt: the fleet's own AdaptWorker, from the untraced pass.
    let timed_s = (plain.end - plain.t0) as f64 / 1e9;
    let a = &plain.fin.adapt;
    let tot = |g: fn(&warper_serve::AdaptStats) -> f64| a.iter().fold(0.0, |acc, (_, s)| acc + g(s));
    let invocations = tot(|s| s.invocations as f64);
    let commits = tot(|s| s.commits as f64);
    let adapt_secs = tot(|s| s.adapt_secs);
    let step_ms = ratio(adapt_secs * 1e3, invocations);
    out.push(m("adapt.invocations", invocations, "count"));
    out.push(m("adapt.commits", commits, "count"));
    out.push(m("adapt.rollbacks", tot(|s| s.rollbacks as f64), "count"));
    out.push(m("adapt.commit_ratio", ratio(commits, invocations), "ratio"));
    out.push(m("adapt.published", tot(|s| s.published as f64), "count"));
    out.push(m("adapt.dropped", tot(|s| s.dropped_observations as f64), "count"));
    out.push(m("adapt.labels", tot(|s| s.annotated as f64), "count"));
    out.push(m("adapt.generated", tot(|s| s.generated as f64), "count"));
    out.push(m("adapt.step_ms", step_ms, "ms"));
    out.push(m(
        "adapt.busy_frac",
        ratio(adapt_secs, timed_s * a.len() as f64),
        "ratio",
    ));

    // warper / query / quant / durable: traced stages.
    let inv_ids: Vec<u64> = spans
        .iter()
        .filter(|s| s.name == "warper.invoke")
        .map(|s| s.id)
        .collect();
    let n_inv = inv_ids.len() as f64;
    let probe = traced
        .fin
        .adapt
        .iter()
        .fold((0, 0, 0), |acc, (_, s)| {
            (
                acc.0 + s.probe.fast_negatives,
                acc.1 + s.probe.fast_positives,
                acc.2 + s.probe.rescans,
            )
        });
    let detect = durs("warper.detect");
    let invoke_self = self_of("warper.invoke");
    let annotate = durs("query.annotate");
    out.push(m("warper.detect_us", p(&detect, 50.0) / 1e3, "us"));
    out.push(m("warper.probe_quiet", probe.0 as f64, "count"));
    out.push(m("warper.probe_sketch", probe.1 as f64, "count"));
    out.push(m("warper.probe_rescan", probe.2 as f64, "count"));
    out.push(m("warper.invoke_ms", mean(&invoke_self) / 1e6, "ms"));
    out.push(m("query.annotate_ms", ratio(sum(&annotate), n_inv) / 1e6, "ms"));
    let traced_labels = traced
        .fin
        .adapt
        .iter()
        .fold(0.0, |acc, (_, s)| acc + s.annotated as f64);
    out.push(m(
        "query.labels_per_s",
        ratio(traced_labels, sum(&annotate) / 1e9),
        "1/s",
    ));
    let gate = durs("quant.gate");
    out.push(m("quant.gate_ms", mean(&gate) / 1e6, "ms"));
    out.push(m(
        "quant.refusals",
        traced
            .fin
            .adapt
            .iter()
            .fold(0.0, |acc, (_, s)| acc + s.quant_refusals as f64),
        "count",
    ));
    let d = traced.fin.durable.iter().fold((0, 0, 0.0, 0), |acc, s| {
        (
            acc.0 + s.wal_appends,
            acc.1 + s.checkpoints,
            acc.2 + s.checkpoint_secs,
            acc.3 + s.checkpoint_failures + s.wal_append_failures,
        )
    });
    let wal = durs("durable.wal");
    let vfs = traced.fin.vfs.as_ref();
    let load = |c: Option<&std::sync::atomic::AtomicU64>| {
        c.map_or(0.0, |c| c.load(std::sync::atomic::Ordering::Relaxed) as f64)
    };
    out.push(m("durable.wal_appends", d.0 as f64, "count"));
    out.push(m("durable.wal_us", ratio(sum(&wal) / 1e3, d.0 as f64), "us"));
    out.push(m("durable.checkpoints", d.1 as f64, "count"));
    out.push(m("durable.checkpoint_ms", ratio(d.2 * 1e3, d.1 as f64), "ms"));
    out.push(m("durable.fsyncs", load(vfs.map(|v| &v.fsyncs)), "count"));
    out.push(m("durable.bytes_written", load(vfs.map(|v| &v.bytes)), "bytes"));
    out.push(m("durable.failures", d.3 as f64, "count"));

    // storage
    let lock_wait: Vec<f64> = traced
        .writes
        .iter()
        .map(|w| (w.locked - w.asked) as f64 / 1e3)
        .collect();
    let mutate = durs("storage.mutate");
    out.push(m("storage.lock_wait_p50_us", p(&lock_wait, 50.0), "us"));
    out.push(m("storage.lock_wait_p99_us", p(&lock_wait, 99.0), "us"));
    out.push(m("storage.mutate_us", p(&mutate, 50.0) / 1e3, "us"));
    out.push(m(
        "storage.rows_changed",
        traced
            .writes
            .iter()
            .fold(0.0, |acc, w| acc + w.rows_changed as f64),
        "rows",
    ));

    // What clients saw in the untraced pass, beyond the end-to-end metrics.
    let (plain_e2e, _, plain_served) = end_to_end(inp, plain);
    for f in &plain_served {
        out.push(m(&format!("served.{}", f.name), f.value, f.unit));
    }

    // Generator lag and stage sums.
    out.push(m("host.steal_frac", plain.steal_frac.max(traced.steal_frac), "ratio"));
    out.push(m("gen.lag_p99_us", acct::gen_lag_us(&traced.all_open(), 99.0), "us"));
    let request_remainder = if fleet_est.is_empty() {
        0.0
    } else {
        p(&client, 50.0) / 1e3 - net_self - p(&fleet_self, 50.0) - p(&ce_per_req, 50.0)
    };
    out.push(m("stage.request_remainder_us", request_remainder, "us"));
    let stage_ms = if n_inv == 0.0 {
        0.0
    } else {
        (sum(&detect)
            + sum(&annotate)
            + sum(&wal)
            + sum(&invoke_self)
            + sum(&gate)
            + sum(&durs("fleet.publish"))
            + sum(&durs("durable.checkpoint")))
            / n_inv
            / 1e6
    };
    let inv_remainder = if n_inv == 0.0 { 0.0 } else { step_ms - stage_ms };
    out.push(m("stage.invocation_remainder_ms", inv_remainder, "ms"));

    // Tracing overhead: traced minus untraced, per end-to-end metric and
    // per served figure.
    let (traced_e2e, _, traced_served) = end_to_end(inp, traced);
    let plain_all = plain_e2e.iter().chain(&plain_served);
    for (u, t) in plain_all.zip(traced_e2e.iter().chain(&traced_served)) {
        out.push(m(&format!("overhead.{}", u.name), t.value - u.value, u.unit));
    }
    out
}
