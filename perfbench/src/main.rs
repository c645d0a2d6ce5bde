//! The repository benchmark: TCP fleet serving, drift recovery and write
//! churn, measured end to end and per layer. See `perfbench/README.md`.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve-zipf|drift-recover|write-churn \
//!     --seed N --seconds S --trace 0|1
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//! The exit code is non-zero on a usage error or a failed correctness
//! check.

mod acct;
mod adapt;
mod env;
mod load;
mod metrics;
mod trace;
mod workloads;

use std::process::ExitCode;

use metrics::{Check, Metric};
use workloads::{Inputs, Workload};

/// A seed kept out of every tuning run, for validating later claims.
const HELD_OUT_SEED: u64 = 90_001;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(val).ok_or(format!("unknown workload {val}"))?)
            }
            "--seed" => seed = Some(val.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = val.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                // A traced run halves it, and serve-zipf needs at least one
                // closed and one open slot per pass.
                if !(4.0..=120.0).contains(&s) {
                    return Err("--seconds must be in [4, 120]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// The commit the checkout was built from, if it is a git checkout.
fn git_rev() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".into()),
        None if !head.is_empty() => head.to_string(),
        None => "unknown".into(),
    }
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "1e300".into()
    }
}

fn print_result(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_num(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: --workload serve-zipf|drift-recover|write-churn --seed N \
                 [--seconds S] [--trace 0|1]"
            );
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "provenance: workload={} seed={} held_out_seed={HELD_OUT_SEED} seconds={} trace={} \
         nproc={nproc} simd={} git_rev={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        warper_linalg::gemm32::active_backend_name(),
        git_rev(),
    );

    // A traced run makes an untraced and a traced pass of half the time.
    let pass_secs = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let inputs = Inputs::generate(args.workload, args.seed, pass_secs);
    let plain = workloads::run_pass(&inputs, false);
    let (e2e, mut checks, served) = metrics::end_to_end(&inputs, &plain);
    let mut requests = plain.requests();
    let mut lag = acct::gen_lag_us(&plain.all_open(), 99.0);
    let reported = if args.trace {
        let traced = workloads::run_pass(&inputs, true);
        let (_, traced_checks, _) = metrics::end_to_end(&inputs, &traced);
        checks.extend(traced_checks);
        requests.extend(traced.requests());
        lag = lag.max(acct::gen_lag_us(&traced.all_open(), 99.0));
        metrics::per_layer(&inputs, &plain, &traced)
    } else {
        e2e.clone()
    };
    env::cleanup_state_root();
    let tally = acct::Tally::of(&requests);

    for m in &e2e {
        println!("e2e {:<14} {:>14.4} {}", m.name, m.value, m.unit);
    }
    for m in &served {
        println!("served {:<14} {:>14.4} {}", m.name, m.value, m.unit);
    }
    if args.trace {
        for m in &reported {
            println!("layer {:<32} {:>14.4} {}", m.name, m.value, m.unit);
        }
    }
    println!(
        "failures: attempted={} shed={} rejected={} unavailable={} client_errors={} non_finite={}",
        tally.attempted,
        tally.shed,
        tally.rejected,
        tally.unavailable,
        tally.client_errors,
        tally.non_finite
    );
    println!(
        "generator: gen.lag_us p99={lag:.1}; host: steal_frac={:.3}",
        plain.steal_frac
    );
    let correct = checks.iter().all(|c: &Check| c.violations == 0);
    for c in &checks {
        println!(
            "check {:<52} checked={} violations={} {}",
            c.name,
            c.checked,
            c.violations,
            if c.violations == 0 { "ok" } else { "FAILED" }
        );
    }
    print_result(correct, tally.attempted.max(1), tally.failed(), &reported);
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
