//! The benchmark's own accounting, kept free of I/O so it can be tested on
//! synthetic timelines: request outcomes, latency from due time, failure
//! tallies, served accuracy, recovery time, and which table version a
//! request is scored against.

use warper_metrics::{gmq, q_error, PAPER_THETA};
use warper_serve::net::ClientError;
use warper_serve::ServeError;

/// How one request ended. Everything but `Ok` counts as failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Answered with a finite estimate.
    Ok,
    /// Shed at admission or for aging past the queue deadline.
    Shed,
    /// Refused for a malformed request.
    Rejected,
    /// Refused because no endpoint (or no such shard) is serving.
    Unavailable,
    /// Transport or protocol failure after the client's retries.
    ClientError,
    /// Answered, but the estimate is NaN or infinite.
    NonFinite,
}

impl Outcome {
    /// Classifies a TCP client result.
    pub fn of_client(r: &Result<f64, ClientError>) -> Self {
        match r {
            Ok(v) if v.is_finite() => Outcome::Ok,
            Ok(_) => Outcome::NonFinite,
            Err(ClientError::Shed) => Outcome::Shed,
            Err(ClientError::Rejected { .. }) => Outcome::Rejected,
            Err(ClientError::Unavailable | ClientError::UnknownShard(_)) => Outcome::Unavailable,
            Err(ClientError::Disconnected(_) | ClientError::Protocol(_)) => Outcome::ClientError,
        }
    }

    /// Classifies an in-process fleet result.
    pub fn of_fleet(r: &Result<f64, ServeError>) -> Self {
        match r {
            Ok(v) if v.is_finite() => Outcome::Ok,
            Ok(_) => Outcome::NonFinite,
            Err(ServeError::Shed | ServeError::ShedDeadline) => Outcome::Shed,
            Err(ServeError::FeatureDim { .. }) => Outcome::Rejected,
            Err(ServeError::UnknownShard { .. }) => Outcome::Unavailable,
            Err(ServeError::Closed) => Outcome::ClientError,
        }
    }
}

/// One request as the generator saw it. Times are nanoseconds since the
/// run's epoch.
#[derive(Debug, Clone, Copy)]
pub struct Req {
    /// Index into the pre-generated query stream.
    pub query: usize,
    /// Shard addressed.
    pub shard: u32,
    /// When the request was due.
    pub due: u64,
    /// When it was actually sent.
    pub sent: u64,
    /// When its reply (or failure) came back.
    pub done: u64,
    /// Whether the previous request on the same connection had already
    /// returned by this one's due time (only then does `sent - due` measure
    /// the generator rather than the program).
    pub prev_back: bool,
    pub outcome: Outcome,
    /// Estimate bits (`Ok` and `NonFinite` only).
    pub value: f64,
    /// Snapshot generation that served it.
    pub generation: u64,
}

impl Req {
    /// Latency from due time; a failed request never met any limit.
    pub fn latency_ns(&self) -> f64 {
        if self.outcome == Outcome::Ok {
            self.done.saturating_sub(self.due) as f64
        } else {
            f64::INFINITY
        }
    }
}

/// Failure counts by kind.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub shed: u64,
    pub rejected: u64,
    pub unavailable: u64,
    pub client_errors: u64,
    pub non_finite: u64,
}

impl Tally {
    pub fn of(reqs: &[Req]) -> Self {
        let mut t = Tally::default();
        for r in reqs {
            t.attempted += 1;
            match r.outcome {
                Outcome::Ok => {}
                Outcome::Shed => t.shed += 1,
                Outcome::Rejected => t.rejected += 1,
                Outcome::Unavailable => t.unavailable += 1,
                Outcome::ClientError => t.client_errors += 1,
                Outcome::NonFinite => t.non_finite += 1,
            }
        }
        t
    }

    pub fn failed(&self) -> u64 {
        self.shed + self.rejected + self.unavailable + self.client_errors + self.non_finite
    }

    /// Share of attempted requests answered with a finite estimate:
    /// `1 - failed / attempted` (1.0 for an empty run).
    pub fn served_frac(&self) -> f64 {
        if self.attempted == 0 {
            1.0
        } else {
            1.0 - self.failed() as f64 / self.attempted as f64
        }
    }
}

/// Nearest-rank percentile (`p` in 0..=100) of unsorted values; infinite
/// values sort last. `NaN` for an empty slice.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// Latency percentile from due time, in microseconds.
#[cfg(test)]
pub fn latency_us(reqs: &[Req], p: f64) -> f64 {
    let lat: Vec<f64> = reqs.iter().map(Req::latency_ns).collect();
    percentile(&lat, p) / 1e3
}

/// Median over consecutive `width`-ns windows of `[start, end)` (only
/// whole windows) of a statistic of the values falling in each window.
/// `at` places a value on the timeline. A stall on a shared host then
/// moves one window's figure, not the reported median.
pub fn windowed<T>(
    items: &[T],
    start: u64,
    end: u64,
    width: u64,
    at: impl Fn(&T) -> u64,
    stat: impl Fn(&[&T]) -> f64,
) -> f64 {
    let n = (end.saturating_sub(start) / width.max(1)) as usize;
    let mut bins: Vec<Vec<&T>> = (0..n).map(|_| Vec::new()).collect();
    for it in items {
        let t = at(it);
        if t >= start {
            if let Some(b) = bins.get_mut(((t - start) / width) as usize) {
                b.push(it);
            }
        }
    }
    let per: Vec<f64> = bins
        .iter()
        .filter(|b| !b.is_empty())
        .map(|b| stat(b))
        .collect();
    median(&per)
}

/// Latency percentile from due time in microseconds, as the median over
/// `width`-ns windows of each window's percentile.
pub fn windowed_latency_us(reqs: &[Req], start: u64, end: u64, width: u64, p: f64) -> f64 {
    windowed(reqs, start, end, width, |r| r.due, |w| {
        let lat: Vec<f64> = w.iter().map(|r| r.latency_ns()).collect();
        percentile(&lat, p) / 1e3
    })
}

/// Generator lag percentile in microseconds: send time minus due time,
/// over requests whose predecessor had already returned (0 if none).
pub fn gen_lag_us(reqs: &[Req], p: f64) -> f64 {
    let lag: Vec<f64> = reqs
        .iter()
        .filter(|r| r.prev_back)
        .map(|r| r.sent.saturating_sub(r.due) as f64 / 1e3)
        .collect();
    if lag.is_empty() {
        0.0
    } else {
        percentile(&lag, p)
    }
}

/// GMQ (θ = `PAPER_THETA`) of `(estimate, truth)` pairs; 1.0 when empty.
pub fn gmq_of(pairs: &[(f64, f64)]) -> f64 {
    let (ests, truths): (Vec<f64>, Vec<f64>) = pairs.iter().copied().unzip();
    gmq(&ests, &truths, PAPER_THETA)
}

/// One scored estimate on a timeline: when it was sent and its q-error.
#[derive(Debug, Clone, Copy)]
pub struct Scored {
    pub sent: u64,
    pub done: u64,
    pub q: f64,
}

pub fn scored(sent: u64, done: u64, est: f64, truth: f64) -> Scored {
    Scored {
        sent,
        done,
        q: q_error(est, truth, PAPER_THETA),
    }
}

/// Recovery rule of `drift-recover`: the rolling GMQ over the last `window`
/// estimates sent after the drift first falls within `factor` × the
/// pre-drift GMQ.
#[derive(Debug, Clone, Copy)]
pub struct RecoverRule {
    pub window: usize,
    pub factor: f64,
}

/// Seconds from `drift` until the rule holds, judged at the reply time of
/// the window's last estimate. `timeline` must be ordered by send time. A
/// run that never recovers reports the whole post-drift time
/// (`end - drift`).
pub fn recover_secs(
    timeline: &[Scored],
    drift: u64,
    end: u64,
    pre_gmq: f64,
    rule: RecoverRule,
) -> f64 {
    let limit_ln = (pre_gmq * rule.factor).ln();
    let post: Vec<&Scored> = timeline.iter().filter(|s| s.sent >= drift).collect();
    let w = rule.window.max(1);
    let mut sum = 0.0;
    for (i, s) in post.iter().enumerate() {
        sum += s.q.ln();
        if i >= w {
            sum -= post[i - w].q.ln();
        }
        if i + 1 >= w && sum / w as f64 <= limit_ln {
            return s.done.saturating_sub(drift) as f64 / 1e9;
        }
    }
    end.saturating_sub(drift) as f64 / 1e9
}

/// How many table mutations were visible at `sent`, given the times their
/// writers released the table lock (sorted ascending). A mutation released
/// at or before the send time counts: the request is scored against the
/// table as the program could see it when the request left.
pub fn version_at(released: &[u64], sent: u64) -> usize {
    released.partition_point(|&r| r <= sent)
}

/// Per-shard generation order check over replies in the order one
/// connection received them: returns the number of decreases seen.
pub fn generation_regressions(reqs: &[Req], shards: usize) -> u64 {
    let mut last = vec![0u64; shards];
    let mut bad = 0;
    for r in reqs.iter().filter(|r| r.outcome == Outcome::Ok) {
        let l = &mut last[r.shard as usize];
        if r.generation < *l {
            bad += 1;
        }
        *l = (*l).max(r.generation);
    }
    bad
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(outcome: Outcome) -> Req {
        Req {
            query: 0,
            shard: 0,
            due: 0,
            sent: 0,
            done: 1_000,
            prev_back: true,
            outcome,
            value: 1.0,
            generation: 0,
        }
    }

    #[test]
    fn each_refusal_kind_counts_as_failed() {
        let reqs = [
            req(Outcome::Ok),
            req(Outcome::Ok),
            req(Outcome::Shed),
            req(Outcome::Rejected),
            req(Outcome::Unavailable),
            req(Outcome::ClientError),
            req(Outcome::NonFinite),
            req(Outcome::Ok),
        ];
        let t = Tally::of(&reqs);
        assert_eq!(t.attempted, 8);
        assert_eq!(
            (t.shed, t.rejected, t.unavailable, t.client_errors, t.non_finite),
            (1, 1, 1, 1, 1)
        );
        assert_eq!(t.failed(), 5);
        assert!((t.served_frac() - 3.0 / 8.0).abs() < 1e-12);
    }

    #[test]
    fn client_and_fleet_results_map_to_outcomes() {
        assert_eq!(Outcome::of_client(&Ok(3.0)), Outcome::Ok);
        assert_eq!(Outcome::of_client(&Ok(f64::NAN)), Outcome::NonFinite);
        assert_eq!(Outcome::of_client(&Ok(f64::INFINITY)), Outcome::NonFinite);
        assert_eq!(Outcome::of_client(&Err(ClientError::Shed)), Outcome::Shed);
        assert_eq!(
            Outcome::of_client(&Err(ClientError::Rejected {
                expected: 3,
                got: 2
            })),
            Outcome::Rejected
        );
        assert_eq!(
            Outcome::of_client(&Err(ClientError::UnknownShard(9))),
            Outcome::Unavailable
        );
        assert_eq!(
            Outcome::of_client(&Err(ClientError::Disconnected("x".into()))),
            Outcome::ClientError
        );
        assert_eq!(
            Outcome::of_fleet(&Err(ServeError::ShedDeadline)),
            Outcome::Shed
        );
        assert_eq!(Outcome::of_fleet(&Err(ServeError::Closed)), Outcome::ClientError);
    }

    #[test]
    fn failed_requests_sit_beyond_every_latency_percentile() {
        let mut reqs: Vec<Req> = (0..99).map(|_| req(Outcome::Ok)).collect();
        reqs.push(req(Outcome::Shed));
        assert_eq!(latency_us(&reqs, 99.0), 1.0);
        assert!(latency_us(&reqs, 100.0).is_infinite());
    }

    #[test]
    fn windowed_median_ignores_one_stalled_window() {
        // Five 1 s windows; the third holds a 50 ms stall.
        let mut reqs = Vec::new();
        for w in 0..5u64 {
            for k in 0..100u64 {
                let mut r = req(Outcome::Ok);
                r.due = w * 1_000_000_000 + k * 10_000_000;
                r.done = r.due + if w == 2 { 50_000_000 } else { 400_000 };
                reqs.push(r);
            }
        }
        let p99 = windowed_latency_us(&reqs, 0, 5_000_000_000, 1_000_000_000, 99.0);
        assert_eq!(p99, 400.0);
        // The overall p99 sits inside the stall.
        assert_eq!(latency_us(&reqs, 99.0), 50_000.0);
        // A partial trailing window is not counted.
        let n = windowed(&reqs, 0, 2_500_000_000, 1_000_000_000, |r| r.due, |w| w.len() as f64);
        assert_eq!(n, 100.0);
    }

    #[test]
    fn generator_lag_skips_requests_queued_behind_a_slow_reply() {
        let mut a = req(Outcome::Ok);
        a.due = 100;
        a.sent = 2_100;
        let mut b = a;
        b.prev_back = false;
        b.sent = 900_000;
        assert_eq!(gen_lag_us(&[a, b], 100.0), 2.0);
    }

    fn timeline(qs: &[f64], step: u64) -> Vec<Scored> {
        qs.iter()
            .enumerate()
            .map(|(i, &q)| Scored {
                sent: i as u64 * step,
                done: i as u64 * step + 10,
                q,
            })
            .collect()
    }

    #[test]
    fn recovery_is_first_full_window_back_within_the_factor() {
        // Pre-drift q = 2 (GMQ 2); drift at t = 1 s makes q = 10, and from
        // the 16th post-drift estimate on q = 2 again.
        let step = 100_000_000; // 0.1 s
        let mut qs = vec![2.0; 10];
        qs.extend(vec![10.0; 15]);
        qs.extend(vec![2.0; 20]);
        let tl = timeline(&qs, step);
        let drift = 10 * step;
        let rule = RecoverRule {
            window: 4,
            factor: 1.2,
        };
        let pre = gmq_of(&qs[..10].iter().map(|&q| (q * 100.0, 100.0)).collect::<Vec<_>>());
        assert!((pre - 2.0).abs() < 1e-9);
        // The window ending at index 27 still holds one q = 10 (GMQ 2.99 >
        // 2.4); the first passing one ends at index 28: 18 steps after the
        // drift, plus its reply delay.
        let secs = recover_secs(&tl, drift, 45 * step, pre, rule);
        assert!((secs - (18.0 * 0.1 + 10e-9)).abs() < 1e-9, "{secs}");
    }

    #[test]
    fn a_run_that_never_recovers_reports_all_post_drift_time() {
        let step = 100_000_000;
        let mut qs = vec![2.0; 10];
        qs.extend(vec![10.0; 30]);
        let tl = timeline(&qs, step);
        let rule = RecoverRule {
            window: 4,
            factor: 1.5,
        };
        let secs = recover_secs(&tl, 10 * step, 40 * step, 2.0, rule);
        assert!((secs - 3.0).abs() < 1e-12);
        // Too few post-drift estimates to fill one window: also never.
        let secs = recover_secs(&tl[..12], 10 * step, 12 * step, 100.0, rule);
        assert!((secs - 0.2).abs() < 1e-12);
    }

    #[test]
    fn gmq_post_scores_each_estimate_against_its_truth() {
        // q-errors 2 and 8 → GMQ 4.
        let g = gmq_of(&[(20.0, 10.0), (100.0, 800.0)]);
        assert!((g - 4.0).abs() < 1e-9);
        assert_eq!(gmq_of(&[]), 1.0);
    }

    #[test]
    fn truth_version_switches_exactly_at_the_write_release() {
        let released = [1_000, 5_000, 5_000, 9_000];
        assert_eq!(version_at(&released, 0), 0);
        assert_eq!(version_at(&released, 999), 0);
        assert_eq!(version_at(&released, 1_000), 1);
        assert_eq!(version_at(&released, 4_999), 1);
        // Two writes released at the same instant land together.
        assert_eq!(version_at(&released, 5_000), 3);
        assert_eq!(version_at(&released, 10_000), 4);
        assert_eq!(version_at(&[], 10), 0);
    }

    #[test]
    fn generation_regressions_are_counted_per_shard() {
        let mut a = req(Outcome::Ok);
        a.generation = 2;
        let mut b = a;
        b.shard = 1;
        b.generation = 0;
        let mut c = a;
        c.generation = 1;
        assert_eq!(generation_regressions(&[a, b], 2), 0);
        assert_eq!(generation_regressions(&[a, b, c], 2), 1);
    }
}
