//! Load generation: closed and open loops over pre-generated requests.
//!
//! The program only ever receives requests generated before the timed phase
//! starts. An open loop times each request from when it was *due*, so a
//! stall charges its wait to every request that came due behind it.

use std::time::Duration;

use crate::acct::{Outcome, Req};
use crate::trace::now_ns;

/// One scheduled request: when it is due (open loop only), which shard it
/// addresses and which pre-generated query it carries.
#[derive(Debug, Clone, Copy)]
pub struct Planned {
    pub due: u64,
    pub shard: u32,
    pub query: usize,
}

/// What a send returned: outcome, estimate, serving generation.
pub type Sent = (Outcome, f64, u64);

/// Sleeps until `due` (a [`now_ns`] reading). The last stretch is a yield
/// loop, because a plain sleep overshoots by tens of microseconds.
pub fn wait_until(due: u64) {
    const SPIN_NS: u64 = 60_000;
    let now = now_ns();
    if due > now + SPIN_NS {
        std::thread::sleep(Duration::from_nanos(due - now - SPIN_NS));
    }
    while now_ns() < due {
        std::thread::yield_now();
    }
}

/// Sends `plan` in order, each request no earlier than its due time, and
/// records every request.
pub fn open_loop(plan: &[Planned], mut send: impl FnMut(&Planned) -> Sent) -> Vec<Req> {
    let mut out = Vec::with_capacity(plan.len());
    let mut prev_done = 0u64;
    for p in plan {
        wait_until(p.due);
        let sent = now_ns();
        let (outcome, value, generation) = send(p);
        let done = now_ns();
        out.push(Req {
            query: p.query,
            shard: p.shard,
            due: p.due,
            sent,
            done,
            prev_back: prev_done <= p.due,
            outcome,
            value,
            generation,
        });
        prev_done = done;
    }
    out
}

/// Sends requests back to back from `plan` until `until`, cycling from
/// `*cursor` (advanced past what was sent); each request is due when the
/// previous one returns.
pub fn closed_loop(
    plan: &[Planned],
    cursor: &mut usize,
    until: u64,
    mut send: impl FnMut(&Planned) -> Sent,
) -> Vec<Req> {
    let mut out = Vec::new();
    if plan.is_empty() {
        return out;
    }
    loop {
        let sent = now_ns();
        if sent >= until {
            break;
        }
        let p = &plan[*cursor % plan.len()];
        *cursor += 1;
        let (outcome, value, generation) = send(p);
        out.push(Req {
            query: p.query,
            shard: p.shard,
            due: sent,
            sent,
            done: now_ns(),
            prev_back: true,
            outcome,
            value,
            generation,
        });
    }
    out
}

/// Evenly spaced due times for `n` requests at `rate` per second starting
/// at `start`.
pub fn schedule(start: u64, rate: f64, n: usize) -> impl Iterator<Item = u64> {
    let step = 1e9 / rate;
    (0..n).map(move |k| start + (k as f64 * step) as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_due_during_a_stall_carry_its_wait() {
        // 1 ms apart; the third send stalls 20 ms. Requests due during the
        // stall are sent late and their latency counts from their due time.
        let start = now_ns() + 2_000_000;
        let plan: Vec<Planned> = schedule(start, 1_000.0, 30)
            .enumerate()
            .map(|(i, due)| Planned {
                due,
                shard: 0,
                query: i,
            })
            .collect();
        let reqs = open_loop(&plan, |p| {
            if p.query == 2 {
                std::thread::sleep(Duration::from_millis(20));
            }
            (Outcome::Ok, 1.0, 0)
        });
        let stall_end = reqs[2].done;
        for r in &reqs[3..] {
            if r.due < stall_end {
                // Sent only once the stall ended, and charged from due.
                assert!(r.sent >= stall_end);
                assert!(r.latency_ns() >= (stall_end - r.due) as f64);
                assert!(!r.prev_back, "queued behind the stall");
            }
        }
        // Request 3 was due 1 ms into a 20 ms stall: ≥ 19 ms of latency.
        assert!(reqs[3].latency_ns() >= 19e6);
        // Requests due after the stall are on time again.
        let late = reqs.iter().filter(|r| r.due > stall_end + 1_000_000).count();
        assert!(late > 0);
        assert!(reqs
            .iter()
            .filter(|r| r.due > stall_end + 1_000_000)
            .all(|r| r.prev_back));
    }

    #[test]
    fn closed_loop_cycles_the_plan_until_the_deadline() {
        let plan = [
            Planned {
                due: 0,
                shard: 0,
                query: 0,
            },
            Planned {
                due: 0,
                shard: 1,
                query: 1,
            },
        ];
        let until = now_ns() + 5_000_000;
        let mut cursor = 1;
        let reqs = closed_loop(&plan, &mut cursor, until, |_| {
            std::thread::sleep(Duration::from_micros(200));
            (Outcome::Ok, 1.0, 0)
        });
        assert!(reqs.len() > 4);
        assert!(reqs.iter().all(|r| r.due == r.sent && r.sent < until));
        // Starts at the cursor and cycles.
        assert_eq!((reqs[0].query, reqs[1].query, reqs[2].query), (1, 0, 1));
        assert_eq!(cursor, 1 + reqs.len());
    }
}
