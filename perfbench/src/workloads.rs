//! The three workloads. Each one generates every input from the seed before
//! the timed phase, stands the program up, drives it over TCP, checks the
//! answers, and scores what was served.

use std::sync::{Arc, PoisonError, RwLock};
use std::time::Duration;

use rand::rngs::StdRng;
use rand::SeedableRng;
use warper_core::runner::ModelKind;
use warper_core::{derive_seed, seed_stream, FeatureMap};
use warper_query::Annotator;
use warper_serve::net::ClientStats;
use warper_serve::{AdaptConfig, EstimateClient, FleetHandle};
use warper_storage::{drift, ChangeLog, Table};
use warper_workload::{QueryGenerator, ZipfSampler};

use crate::acct::{self, Outcome, RecoverRule, Req, Scored};
use crate::env::{self, Finished, Stack, StackSpec};
use crate::load::{closed_loop, open_loop, schedule, wait_until, Planned, Sent};
use crate::trace::{self, feature_key, now_ns, span_with, Span};

/// Set-ups per pass; `setup_s` is their median. Half come before the
/// timed phase, the timed phase runs on the next one, and the rest come
/// after it, so a slow spell of the host weighs on a few of them only.
pub const SETUPS: usize = 31;
/// Period of the resident-set samples taken through the timed phase.
const RSS_EVERY: u64 = 50_000_000;
/// Queries pre-generated per mix; streams cycle through them.
const POOL: usize = 4096;
/// Zipf exponent of shard popularity.
const ZIPF_S: f64 = 1.1;

/// `serve-zipf`: 64 shards on one base snapshot, no adaptation.
const ZIPF_SHARDS: usize = 64;
/// The timed phase alternates closed-loop and open-loop slots of this
/// length (closed first), so a slow spell of a shared host lands on both
/// phases instead of on one of them.
pub const SLOT: u64 = 1_000_000_000;
/// Offered rate of the open-loop slots: about a quarter of the closed-loop
/// `qps` measured on the parent (2 vCPU), where tail latency is steady.
const ZIPF_RATE: f64 = 1_200.0;

/// `drift-recover`: 8 shards, shard 0 adapts durably.
const DRIFT_SHARDS: usize = 8;
const DRIFT_RATE: f64 = 800.0;
/// When shard 0 drifts, as a share of the timed phase.
const DRIFT_AT_SHARE: f64 = 0.3;
/// Rows `update_rows` re-centres at the drift, and by how much.
const DRIFT_FRAC: f64 = 0.3;
const DRIFT_SHIFT: f64 = 0.6;
const DRIFT_INVOKE_EVERY: usize = 20;
pub const RECOVER: RecoverRule = RecoverRule {
    window: 100,
    factor: 1.5,
};

/// `write-churn`: 16 shards, the first 4 adapt in memory.
const CHURN_SHARDS: usize = 16;
const CHURN_ADAPTING: usize = 4;
const CHURN_RATE: f64 = 1_000.0;
const CHURN_WRITE_RATE: f64 = 100.0;
/// Writes start after this share of the timed phase (warm-up).
const CHURN_WARMUP_SHARE: f64 = 0.2;
const CHURN_APPEND_ROWS: usize = 10;
const CHURN_UPDATE_FRAC: f64 = 0.001;
const CHURN_INVOKE_EVERY: usize = 40;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ServeZipf,
    DriftRecover,
    WriteChurn,
}

impl Workload {
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "serve-zipf" => Some(Workload::ServeZipf),
            "drift-recover" => Some(Workload::DriftRecover),
            "write-churn" => Some(Workload::WriteChurn),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeZipf => "serve-zipf",
            Workload::DriftRecover => "drift-recover",
            Workload::WriteChurn => "write-churn",
        }
    }
}

/// Every input of a run, generated from the seed before anything is timed.
pub struct Inputs {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub table: Table,
    /// Feature vectors; `Planned::query` indexes here.
    pub feats: Vec<Vec<f64>>,
    /// Per generator thread: the open-loop plan, due times relative to the
    /// start of the timed phase.
    pub open: Vec<Vec<Planned>>,
    /// Per connection: the queries the closed-loop slots cycle through
    /// (serve-zipf only).
    pub closed: Vec<Vec<Planned>>,
    /// Closed-loop slots as `[start, end)` offsets into the timed phase.
    pub closed_slots: Vec<(u64, u64)>,
    /// Write batches (write-churn) or the drift (drift-recover).
    pub writes: Vec<PlannedWrite>,
}

#[derive(Debug, Clone, Copy)]
pub enum WriteKind {
    Append(usize),
    Update(f64, f64),
}

#[derive(Debug, Clone, Copy)]
pub struct PlannedWrite {
    /// Due time relative to the start of the timed phase.
    pub due: u64,
    /// Adapting shard whose table takes the write.
    pub shard: u32,
    pub kind: WriteKind,
    /// Seed of the mutator's rng, so the write can be replayed for truth.
    pub rng_seed: u64,
}

impl PlannedWrite {
    fn apply(&self, t: &mut Table) {
        let mut rng = StdRng::seed_from_u64(self.rng_seed);
        match self.kind {
            WriteKind::Append(n) => drift::append_rows(t, n, 0.05, &mut rng),
            WriteKind::Update(frac, shift) => drift::update_rows(t, frac, shift, &mut rng),
        }
    }
}

fn pool(table: &Table, fmap: &FeatureMap, mix: &str, rng: &mut StdRng) -> Vec<Vec<f64>> {
    let mut gen = QueryGenerator::try_from_notation(table, mix).expect("workload mix");
    gen.generate_many(POOL, rng)
        .iter()
        .map(|p| fmap.featurize(p))
        .collect()
}

/// Closed-loop slots of a timed phase of `secs_ns`: every other slot,
/// starting with the first, on serve-zipf; none elsewhere.
fn closed_slots(workload: Workload, secs_ns: u64) -> Vec<(u64, u64)> {
    if workload != Workload::ServeZipf {
        return Vec::new();
    }
    let slots = (secs_ns / SLOT).max(2);
    (0..slots)
        .step_by(2)
        .map(|k| (k * SLOT, (k + 1) * SLOT))
        .collect()
}

/// Maps a time on the open-loop clock (which skips closed slots) to an
/// offset into the timed phase.
fn open_to_wall(closed: &[(u64, u64)], mut t: u64) -> u64 {
    // Start of the open stretch `t` is being walked through.
    let mut wall = 0;
    for &(s, e) in closed {
        let gap = s.saturating_sub(wall);
        if t < gap {
            return wall + t;
        }
        t -= gap;
        wall = e;
    }
    wall + t
}

/// Inverse of [`open_to_wall`] for times outside closed slots.
fn wall_to_open(closed: &[(u64, u64)], t: u64) -> u64 {
    let skipped: u64 = closed
        .iter()
        .map(|&(s, e)| e.min(t).saturating_sub(s))
        .sum();
    t - skipped
}

/// Round-robin split of one stream over `threads` generator threads.
fn split(plan: Vec<Planned>, threads: usize) -> Vec<Vec<Planned>> {
    let mut out = vec![Vec::new(); threads];
    for (k, p) in plan.into_iter().enumerate() {
        out[k % threads].push(p);
    }
    out
}

impl Inputs {
    pub fn generate(workload: Workload, seed: u64, seconds: f64) -> Self {
        let table = env::dataset();
        let fmap = FeatureMap::new(&table, ModelKind::LmMlp);
        let mut qrng = StdRng::seed_from_u64(derive_seed(seed, seed_stream::LOADGEN));
        let mut srng = StdRng::seed_from_u64(derive_seed(seed, seed_stream::SHARD));
        let mut feats = pool(&table, &fmap, "w1", &mut qrng);
        let secs_ns = (seconds * 1e9) as u64;
        let closed_slots = closed_slots(workload, secs_ns);
        let open_secs = seconds - closed_slots.len() as f64 * SLOT as f64 / 1e9;
        let (shards, rate) = match workload {
            Workload::ServeZipf => (ZIPF_SHARDS, ZIPF_RATE),
            Workload::DriftRecover => (DRIFT_SHARDS, DRIFT_RATE),
            Workload::WriteChurn => (CHURN_SHARDS, CHURN_RATE),
        };
        let zipf = ZipfSampler::new(shards, ZIPF_S);
        let n = (rate * open_secs) as usize;
        let drift_at = (DRIFT_AT_SHARE * secs_ns as f64) as u64;
        if workload == Workload::DriftRecover {
            feats.extend(pool(&table, &fmap, "w4", &mut qrng));
        }
        let stream: Vec<Planned> = schedule(0, rate, n)
            .enumerate()
            .map(|(k, due)| {
                let shard = zipf.sample(&mut srng) as u32;
                // Shard 0's mix switches to w4 at the drift.
                let w4 = workload == Workload::DriftRecover && shard == 0 && due >= drift_at;
                Planned {
                    due: open_to_wall(&closed_slots, due),
                    shard,
                    query: (k % POOL) + if w4 { POOL } else { 0 },
                }
            })
            .collect();
        let (open, closed) = match workload {
            Workload::ServeZipf => {
                let closed: Vec<Planned> = (0..POOL)
                    .map(|q| Planned {
                        due: 0,
                        shard: zipf.sample(&mut srng) as u32,
                        query: q,
                    })
                    .collect();
                (split(stream, 2), split(closed, 2))
            }
            Workload::DriftRecover => (split(stream, 2), Vec::new()),
            Workload::WriteChurn => (vec![stream], Vec::new()),
        };
        let mut wrng = StdRng::seed_from_u64(derive_seed(seed, seed_stream::DRIFT));
        let writes = match workload {
            Workload::ServeZipf => Vec::new(),
            Workload::DriftRecover => vec![PlannedWrite {
                due: drift_at,
                shard: 0,
                kind: WriteKind::Update(DRIFT_FRAC, DRIFT_SHIFT),
                rng_seed: rand::Rng::random_range(&mut wrng, 0..u64::MAX),
            }],
            Workload::WriteChurn => {
                let start = (CHURN_WARMUP_SHARE * secs_ns as f64) as u64;
                let n = (CHURN_WRITE_RATE * seconds * (1.0 - CHURN_WARMUP_SHARE)) as usize;
                schedule(start, CHURN_WRITE_RATE, n)
                    .enumerate()
                    .map(|(k, due)| PlannedWrite {
                        due,
                        shard: (k % CHURN_ADAPTING) as u32,
                        kind: if (k / CHURN_ADAPTING) % 2 == 0 {
                            WriteKind::Append(CHURN_APPEND_ROWS)
                        } else {
                            WriteKind::Update(CHURN_UPDATE_FRAC, DRIFT_SHIFT)
                        },
                        rng_seed: rand::Rng::random_range(&mut wrng, 0..u64::MAX),
                    })
                    .collect()
            }
        };
        Inputs {
            workload,
            seed,
            seconds,
            table,
            feats,
            open,
            closed,
            closed_slots,
            writes,
        }
    }

    fn stack_spec(&self, traced: bool) -> StackSpec {
        let (shards, adapting, durable, invoke_every) = match self.workload {
            Workload::ServeZipf => (ZIPF_SHARDS, 0, false, 1),
            Workload::DriftRecover => (DRIFT_SHARDS, 1, true, DRIFT_INVOKE_EVERY),
            Workload::WriteChurn => (CHURN_SHARDS, CHURN_ADAPTING, false, CHURN_INVOKE_EVERY),
        };
        StackSpec {
            shards,
            adapting,
            durable,
            traced,
            // Invocations fire on full batches only, so which observations
            // form a step follows the request stream, not the clock.
            adapt: AdaptConfig {
                invoke_every,
                max_wait: Duration::from_secs(2),
                ..AdaptConfig::default()
            },
            seed: self.seed,
        }
    }
}

/// One write as it happened (times are [`now_ns`] readings).
#[derive(Debug, Clone, Copy)]
pub struct DoneWrite {
    pub plan: usize,
    pub due: u64,
    /// When the writer asked for the table's write lock.
    pub asked: u64,
    pub locked: u64,
    pub released: u64,
    pub rows_changed: u64,
}

/// Everything one pass over a workload observed.
pub struct Pass {
    pub setup_s: Vec<f64>,
    /// Start of the timed phase.
    pub t0: u64,
    /// End of the open loop's schedule.
    pub open_end: u64,
    pub end: u64,
    pub closed: Vec<Req>,
    /// Open-loop requests per connection, in send order.
    pub open: Vec<Vec<Req>>,
    /// In-process replay requests (traced serve-zipf only).
    pub inproc: Vec<Req>,
    pub writes: Vec<DoneWrite>,
    pub fin: Finished,
    pub clients: ClientStats,
    pub spans: Vec<Span>,
    pub peak_rss_mb: f64,
    /// Resident set sampled every [`RSS_EVERY`] ns through the timed phase.
    pub rss_mb: Vec<f64>,
    /// Share of the host's CPU time stolen by the hypervisor during the
    /// timed phase.
    pub steal_frac: f64,
    /// Bits of the base serving model's own answer per query (serve-zipf).
    pub reference: Vec<u64>,
}

impl Pass {
    pub fn all_open(&self) -> Vec<Req> {
        self.open.iter().flatten().copied().collect()
    }

    /// Every request of the pass: open loop, closed loop, in process.
    pub fn requests(&self) -> Vec<Req> {
        let mut all = self.all_open();
        all.extend_from_slice(&self.closed);
        all.extend_from_slice(&self.inproc);
        all
    }
}

fn send_tcp(client: &mut EstimateClient, feats: &[Vec<f64>], p: &Planned, id: u64) -> Sent {
    let f = &feats[p.query];
    let (r, _) = span_with(
        "client.request",
        id,
        || vec![feature_key(f)],
        || client.estimate_shard(p.shard, f),
    );
    let r = r.map(|e| (e.value, e.generation));
    let outcome = Outcome::of_client(&r.as_ref().map(|v| v.0).map_err(Clone::clone));
    let (value, generation) = r.unwrap_or((f64::NAN, 0));
    (outcome, value, generation)
}

fn send_inproc(h: &FleetHandle, feats: &[Vec<f64>], p: &Planned, id: u64) -> Sent {
    let f = &feats[p.query];
    let (r, _) = span_with(
        "fleet.estimate",
        id,
        || vec![feature_key(f)],
        || h.estimate(p.shard, f.clone()),
    );
    let r = r.map(|e| (e.value, e.generation));
    let outcome = Outcome::of_fleet(&r.map(|v| v.0));
    let (value, generation) = r.unwrap_or((f64::NAN, 0));
    (outcome, value, generation)
}

fn shifted(plan: &[Planned], start: u64) -> Vec<Planned> {
    plan.iter()
        .map(|p| Planned {
            due: p.due + start,
            ..*p
        })
        .collect()
}

/// Set-ups (and teardowns) of stacks nobody sends to; their times.
fn extra_setups(inp: &Inputs, spec: &StackSpec, n: usize) -> Vec<f64> {
    (0..n)
        .map(|_| {
            let s = Stack::start(&inp.table, spec);
            let secs = s.setup_s;
            s.finish();
            secs
        })
        .collect()
}

/// Runs one pass: `SETUPS` set-ups, with the timed phase on the middle one.
pub fn run_pass(inp: &Inputs, traced: bool) -> Pass {
    env::reset_peak_rss();
    let spec = inp.stack_spec(traced);
    let mut setup_s = extra_setups(inp, &spec, SETUPS / 2);
    let stack = Stack::start(&inp.table, &spec);
    setup_s.push(stack.setup_s);
    if traced {
        trace::start();
    }
    let secs_ns = (inp.seconds * 1e9) as u64;
    let n_conns = inp.open.len();
    let mut clients: Vec<EstimateClient> = (0..n_conns)
        .map(|c| stack.client(inp.seed, c as u64))
        .collect();
    let t0 = now_ns() + 1_000_000;
    let ticks0 = env::cpu_ticks();

    // The timed phase: on each connection, closed-loop slots (serve-zipf)
    // interleaved with the open-loop plan; the drift or the write stream
    // runs beside it on this thread.
    let feats = &inp.feats;
    let stack_ref = &stack;
    let (per_conn, writes, rss_mb): (Vec<(Vec<Req>, Vec<Req>)>, Vec<DoneWrite>, Vec<f64>) =
        std::thread::scope(|s| {
            let hs: Vec<_> = clients
                .iter_mut()
                .zip(&inp.open)
                .enumerate()
                .map(|(c, (client, plan))| {
                    let plan = shifted(plan, t0);
                    let pool = inp.closed.get(c).map_or(&[][..], Vec::as_slice);
                    let slots = &inp.closed_slots;
                    let workload = inp.workload;
                    s.spawn(move || {
                        let mut id = (c as u64 + 1) << 40;
                        let mut send = |p: &Planned| {
                            id += 1;
                            let sent = send_tcp(client, feats, p, id);
                            let adapting = match workload {
                                Workload::ServeZipf => false,
                                Workload::DriftRecover => p.shard == 0,
                                Workload::WriteChurn => (p.shard as usize) < CHURN_ADAPTING,
                            };
                            if adapting && sent.0 == Outcome::Ok {
                                stack_ref.observe(p.shard, &feats[p.query]);
                            }
                            sent
                        };
                        let (mut open, mut closed) = (Vec::new(), Vec::new());
                        let (mut next, mut cursor) = (0, c);
                        for &(from, to) in slots {
                            let upto = next + plan[next..].partition_point(|p| p.due < t0 + from);
                            open.extend(open_loop(&plan[next..upto], &mut send));
                            next = upto;
                            wait_until(t0 + from);
                            closed.extend(closed_loop(pool, &mut cursor, t0 + to, &mut send));
                        }
                        open.extend(open_loop(&plan[next..], &mut send));
                        (open, closed)
                    })
                })
                .collect();
            let sampler = s.spawn(move || {
                let mut rss = Vec::new();
                let mut at = t0;
                while at < t0 + secs_ns {
                    wait_until(at);
                    rss.push(env::rss_mb());
                    at += RSS_EVERY;
                }
                rss
            });
            let writes = apply_writes(&inp.writes, &stack_ref.tables, t0);
            let per_conn = hs.into_iter().map(|h| h.join().expect("client")).collect();
            (per_conn, writes, sampler.join().expect("rss sampler"))
        });
    let (open, closed): (Vec<Vec<Req>>, Vec<Vec<Req>>) = per_conn.into_iter().unzip();
    let closed: Vec<Req> = closed.concat();
    let open_end = t0 + secs_ns;
    let mut end = now_ns();

    // In-process replay of the same open-loop stream (traced serve-zipf):
    // the split between `net` and `fleet`.
    let mut inproc = Vec::new();
    if traced && inp.workload == Workload::ServeZipf {
        let handle = stack.fleet.handle();
        let start = now_ns() + 1_000_000;
        let logs: Vec<Vec<Req>> = std::thread::scope(|s| {
            let hs: Vec<_> = inp
                .open
                .iter()
                .enumerate()
                .map(|(c, plan)| {
                    // Back to back on the open-loop clock: the closed slots
                    // are left out.
                    let plan: Vec<Planned> = plan
                        .iter()
                        .map(|p| Planned {
                            due: start + wall_to_open(&inp.closed_slots, p.due),
                            ..*p
                        })
                        .collect();
                    let handle = handle.clone();
                    s.spawn(move || {
                        let mut id = (c as u64 + 1) << 40 | 2 << 32;
                        open_loop(&plan, |p| {
                            id += 1;
                            send_inproc(&handle, feats, p, id)
                        })
                    })
                })
                .collect();
            hs.into_iter().map(|h| h.join().expect("replay")).collect()
        });
        inproc = logs.concat();
        end = now_ns();
    }

    let ticks1 = env::cpu_ticks();
    let steal_frac = (ticks1.0 - ticks0.0) as f64 / (ticks1.1 - ticks0.1).max(1) as f64;
    let spans = if traced { trace::stop() } else { Vec::new() };
    let client_stats: Vec<ClientStats> = clients.iter().map(EstimateClient::stats).collect();
    drop(clients);
    let peak_rss_mb = env::peak_rss_mb();
    // The base serving model's own answers, for the bit-identity check.
    let reference = if inp.workload == Workload::ServeZipf {
        inp.feats
            .iter()
            .map(|f| stack.base.model.estimate(f).to_bits())
            .collect()
    } else {
        Vec::new()
    };
    let fin = stack.finish();
    setup_s.extend(extra_setups(inp, &spec, SETUPS - setup_s.len()));
    Pass {
        setup_s,
        t0,
        open_end,
        end,
        closed,
        open,
        inproc,
        writes,
        fin,
        clients: env::sum_clients(&client_stats),
        spans,
        peak_rss_mb,
        rss_mb,
        steal_frac,
        reference,
    }
}

/// Applies the planned writes at their due times, each under its table's
/// write lock, and records when the lock was taken and released.
fn apply_writes(plan: &[PlannedWrite], tables: &[Arc<RwLock<Table>>], start: u64) -> Vec<DoneWrite> {
    plan.iter()
        .enumerate()
        .map(|(i, w)| {
            let due = start + w.due;
            wait_until(due);
            let table = &tables[w.shard as usize];
            let asked = now_ns();
            let (mut guard, _) = span_with("storage.lock_wait", 0, Vec::new, || {
                table.write().unwrap_or_else(PoisonError::into_inner)
            });
            let locked = now_ns();
            let (rows, log) = (guard.num_rows(), ChangeLog::mark(&guard));
            span_with("storage.mutate", 0, Vec::new, || w.apply(&mut guard));
            let rows_changed = (log.changed_fraction(&guard) * rows as f64).round() as u64;
            let released = now_ns();
            drop(guard);
            DoneWrite {
                plan: i,
                due,
                asked,
                locked,
                released,
                rows_changed,
            }
        })
        .collect()
}

/// Ground truth for every answered request to an adapting shard: the
/// table is rebuilt write by write, and each request is counted against the
/// version visible when it was sent.
pub fn truths(inp: &Inputs, pass: &Pass, reqs: &[Req]) -> Vec<Option<f64>> {
    let annotator = Annotator::new();
    let fmap = FeatureMap::new(&inp.table, ModelKind::LmMlp);
    let adapting = match inp.workload {
        Workload::ServeZipf => 0,
        Workload::DriftRecover => 1,
        Workload::WriteChurn => CHURN_ADAPTING,
    };
    let mut out = vec![None; reqs.len()];
    for shard in 0..adapting as u32 {
        let writes: Vec<&DoneWrite> = pass
            .writes
            .iter()
            .filter(|w| inp.writes[w.plan].shard == shard)
            .collect();
        let released: Vec<u64> = writes.iter().map(|w| w.released).collect();
        // Requests of this shard grouped by the version they saw.
        let mut by_version: Vec<Vec<usize>> = vec![Vec::new(); writes.len() + 1];
        for (i, r) in reqs.iter().enumerate() {
            if r.shard == shard && r.outcome == Outcome::Ok {
                by_version[acct::version_at(&released, r.sent)].push(i);
            }
        }
        let mut table = inp.table.clone();
        for (v, idx) in by_version.iter().enumerate() {
            if v > 0 {
                inp.writes[writes[v - 1].plan].apply(&mut table);
            }
            if idx.is_empty() {
                continue;
            }
            let preds: Vec<_> = idx
                .iter()
                .map(|&i| fmap.defeaturize(&inp.feats[reqs[i].query]))
                .collect();
            for (&i, c) in idx.iter().zip(annotator.count_batch(&table, &preds)) {
                out[i] = Some(c as f64);
            }
        }
    }
    out
}

/// Served accuracy of a drifting workload: `gmq_post` over the adapting
/// shards after the first write, plus shard 0's pre-drift GMQ and timeline.
pub struct Accuracy {
    pub gmq_post: f64,
    pub pre_gmq: f64,
    pub recover_s: f64,
    pub scored: usize,
}

pub fn accuracy(inp: &Inputs, pass: &Pass) -> Accuracy {
    let mut reqs = pass.all_open();
    reqs.sort_by_key(|r| r.sent);
    let truth = truths(inp, pass, &reqs);
    let drift = pass.writes.first().map_or(pass.end, |w| w.due);
    let mut post = Vec::new();
    let mut pre0 = Vec::new();
    let mut timeline: Vec<Scored> = Vec::new();
    for (r, t) in reqs.iter().zip(&truth) {
        let Some(t) = *t else { continue };
        if r.sent >= drift {
            post.push((r.value, t));
        } else if r.shard == 0 {
            pre0.push((r.value, t));
        }
        if r.shard == 0 {
            timeline.push(acct::scored(r.sent, r.done, r.value, t));
        }
    }
    let pre_gmq = acct::gmq_of(&pre0);
    Accuracy {
        gmq_post: acct::gmq_of(&post),
        pre_gmq,
        recover_s: acct::recover_secs(&timeline, drift, pass.end, pre_gmq, RECOVER),
        scored: post.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use warper_query::RangePredicate;

    fn req(query: usize, shard: u32, sent: u64) -> Req {
        Req {
            query,
            shard,
            due: sent,
            sent,
            done: sent + 10,
            prev_back: true,
            outcome: Outcome::Ok,
            value: 1.0,
            generation: 0,
        }
    }

    fn pass_with(writes: Vec<DoneWrite>, open: Vec<Req>) -> Pass {
        Pass {
            setup_s: vec![0.0],
            t0: 0,
            open_end: 10_000,
            end: 10_000,
            closed: Vec::new(),
            open: vec![open],
            inproc: Vec::new(),
            writes,
            fin: Finished {
                net: Default::default(),
                fleet: Default::default(),
                shards: Vec::new(),
                adapt: Vec::new(),
                durable: Vec::new(),
                vfs: None,
            },
            clients: ClientStats::default(),
            spans: Vec::new(),
            peak_rss_mb: 0.0,
            rss_mb: Vec::new(),
            steal_frac: 0.0,
            reference: Vec::new(),
        }
    }

    #[test]
    fn truth_at_a_write_boundary_follows_the_release() {
        let mut inp = Inputs::generate(Workload::WriteChurn, 3, 2.0);
        // A predicate that matches every row: its truth is the row count,
        // which the first append (to shard 0's table) moves.
        let first = inp
            .writes
            .iter()
            .position(|w| w.shard == 0 && matches!(w.kind, WriteKind::Append(_)))
            .expect("an append to shard 0");
        let WriteKind::Append(extra) = inp.writes[first].kind else {
            unreachable!()
        };
        let fmap = FeatureMap::new(&inp.table, ModelKind::LmMlp);
        let all = fmap.featurize(&RangePredicate::unconstrained(&inp.table.domains()));
        inp.feats.push(all);
        let q = inp.feats.len() - 1;
        let released = 5_000;
        let write = DoneWrite {
            plan: first,
            due: 4_000,
            asked: 4_000,
            locked: 4_500,
            released,
            rows_changed: extra as u64,
        };
        let reqs = vec![
            req(q, 0, released - 1),
            req(q, 0, released),
            // Another shard's table never took the write.
            req(q, 1, released + 1),
            // Non-adapting shards are not scored.
            req(q, 7, released + 1),
        ];
        let pass = pass_with(vec![write], reqs.clone());
        let t = truths(&inp, &pass, &reqs);
        let rows = inp.table.num_rows() as f64;
        assert_eq!(t, vec![Some(rows), Some(rows + extra as f64), Some(rows), None]);
    }

    #[test]
    fn open_clock_skips_closed_slots() {
        let slots = closed_slots(Workload::ServeZipf, 4 * SLOT);
        assert_eq!(slots, vec![(0, SLOT), (2 * SLOT, 3 * SLOT)]);
        assert_eq!(open_to_wall(&slots, 0), SLOT);
        assert_eq!(open_to_wall(&slots, SLOT / 2), SLOT + SLOT / 2);
        assert_eq!(open_to_wall(&slots, SLOT + 7), 3 * SLOT + 7);
        for t in [0, 5, SLOT - 1, SLOT, SLOT + 3] {
            assert_eq!(wall_to_open(&slots, open_to_wall(&slots, t)), t);
        }
        assert!(closed_slots(Workload::DriftRecover, 4 * SLOT).is_empty());
        assert_eq!(open_to_wall(&[], 42), 42);
    }
}
