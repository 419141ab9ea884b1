//! FRAppE serving benchmark: one traffic mix, driven over loopback
//! against a self-hosted `frappe-net` edge on the paper-scale world.
//!
//! ```text
//! cargo run --release --manifest-path servebench/Cargo.toml -- \
//!     --workload classify_hot|ingest_mixed|swap_under_load \
//!     --seed N --seconds S --trace 0|1
//! ```
//!
//! With `--trace 0` the run prints every end-to-end metric; with
//! `--trace 1` it prints every per-layer metric instead.
//! The last line of standard output is the JSON result. See README.md.

mod check;
mod deploy;
mod layers;
mod report;
mod stats;
mod sys;
mod traffic;
mod wire;
mod workloads;

use std::process::ExitCode;

use deploy::{stand_up, Inputs};
use report::{result_line, END_TO_END, LAYERS, WORKLOADS};
use stats::median;
use workloads::Outcome;

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 7;
/// Seconds one run measures when `--seconds` is not given; the same
/// value as `run_seconds` in BENCHMARK.json.
pub const RUN_SECONDS: f64 = 20.0;

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(*WORKLOADS.iter().find(|w| **w == value).ok_or_else(|| {
                        format!("unknown workload {value:?}; one of {WORKLOADS:?}")
                    })?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value:?}"))?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err(format!("--seconds must be in (0, 60], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(RUN_SECONDS),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("servebench: {e}");
            eprintln!(
                "usage: servebench --workload NAME --seed N --seconds S --trace 0|1 (workloads: {WORKLOADS:?})"
            );
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(code) => code,
        Err(e) => {
            println!("run failed: {e}");
            println!("{}", result_line(false, 1, 1, &[]));
            ExitCode::from(1)
        }
    }
}

/// The value measured for each of `names`, in that order; NaN where
/// nothing was measured (which makes the run invalid).
fn select(
    names: impl Iterator<Item = &'static str>,
    measured: &[(&'static str, f64)],
) -> Vec<(&'static str, f64)> {
    names
        .map(|name| {
            let value = measured
                .iter()
                .find(|(n, _)| *n == name)
                .map_or(f64::NAN, |(_, v)| *v);
            (name, value)
        })
        .collect()
}

fn run(args: &Args) -> Result<ExitCode, String> {
    println!(
        "servebench: workload {} seed {} seconds {} trace {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "host: available_parallelism {}, scoring engine {}, build profile {}",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        frappe::scoring::describe(),
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
    );
    let inputs = Inputs::generate(args.seed);
    sys::trim_heap();
    println!(
        "inputs: seed {}, {} tracked apps, {} events in {} batches, {} labelled rows \
         (generated in {:.1} s, not counted in setup_s)",
        inputs.seed,
        inputs.apps.len(),
        inputs.events.len(),
        inputs.batches.len(),
        inputs.samples.len(),
        inputs.generate_s
    );

    let setups = if args.trace { 1 } else { SETUPS };
    let mut setup_s = Vec::new();
    // `rss_mb` is what the first set-up added to the resident inputs.
    // Later set-ups refill pages their predecessors left resident, so
    // their own growth understates what a deployment holds.
    let mut rss_mb = f64::NAN;
    let mut deployment = None;
    for i in 0..setups {
        drop(deployment.take());
        sys::trim_heap();
        let baseline = sys::rss_mib();
        let (d, report) = stand_up(&inputs, None)?;
        sys::trim_heap();
        let resident = sys::rss_mib();
        if i == 0 {
            rss_mb = resident - baseline;
        }
        println!(
            "setup {}: {:.3} s (backlog replay {:.3} s, cache warm-up {:.3} s), \
             rss {resident:.1} MiB, {baseline:.1} MiB before it",
            i + 1,
            report.seconds,
            report.replay_s,
            report.warm_s,
        );
        setup_s.push(report.seconds);
        deployment = Some(d);
    }
    let deployment = deployment.expect("at least one set-up ran");
    let served = deployment.service.model_handle().current();
    println!(
        "served model: version {}, {} support vectors; tracked by the service: {}",
        served.version(),
        served.model().support_vector_count(),
        deployment.service.tracked_apps().len()
    );
    drop(served);

    let mut outcome: Outcome = match args.workload {
        "classify_hot" => workloads::classify_hot(&deployment, &inputs, args.seconds)?,
        "ingest_mixed" => workloads::ingest_mixed(&deployment, &inputs, args.seconds)?,
        _ => workloads::swap_under_load(&deployment, &inputs, args.seconds, args.trace)?,
    };
    if deployment.service.tracked_apps().len() != inputs.apps.len() {
        outcome
            .invalid
            .push("the service does not track every app of the stream".into());
    }

    let metrics = if args.trace {
        let layers = layers::per_layer(
            args.workload,
            &deployment,
            &inputs,
            &mut outcome,
            args.seconds,
        )?;
        select(LAYERS.iter().map(|d| d.name), &layers)
    } else {
        let tally = &outcome.tally;
        let success = 1.0 - tally.failed() as f64 / tally.attempted.max(1) as f64;
        let mut all = outcome.e2e.clone();
        all.push(("success_ratio", success));
        all.push(("setup_s", median(&setup_s)));
        all.push(("rss_mb", rss_mb));
        select(END_TO_END.iter().map(|d| d.name), &all)
    };

    for note in &outcome.notes {
        println!("{note}");
    }
    println!("operations: {}", outcome.tally.describe());
    for example in &outcome.tally.examples {
        println!("  failure: {example}");
    }
    if outcome.tally.incorrect() > 0 {
        outcome
            .invalid
            .push(format!("{} wrong outputs", outcome.tally.incorrect()));
    }
    if let Some((name, _)) = metrics.iter().find(|(_, v)| !v.is_finite()) {
        outcome.invalid.push(format!("{name} was not measured"));
    }
    if args.trace {
        for (name, value) in &metrics {
            let def = LAYERS.iter().find(|d| d.name == *name).expect("defined");
            println!(
                "layer {name} = {value:.3} {} ({} is better) [{}] -> should move {} on {}",
                def.unit,
                def.better,
                def.call,
                def.moves,
                def.on.join(", ")
            );
        }
    } else {
        for (name, value) in &metrics {
            let def = END_TO_END
                .iter()
                .find(|d| d.name == *name)
                .expect("defined");
            println!(
                "metric {name} = {value:.3} {} ({} is better)",
                def.unit, def.better
            );
        }
    }

    drop(deployment);
    let correct = outcome.invalid.is_empty();
    for why in &outcome.invalid {
        println!("INVALID: {why}");
    }
    let reported: &[(&str, f64)] = if correct { &metrics } else { &[] };
    println!(
        "{}",
        result_line(
            correct,
            outcome.tally.attempted,
            outcome.tally.failed(),
            reported
        )
    );
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}
