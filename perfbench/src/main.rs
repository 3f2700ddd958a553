//! End-to-end and per-layer benchmark of the served store and the
//! recovery engine.
//!
//! ```text
//! perfbench --workload <kv-steady|kv-crash|engine-replay> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! Each invocation runs one workload in its own process, checks the
//! program's outputs with the correctness oracles, and prints one JSON
//! object as its last line of standard output: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`. It exits
//! non-zero when a check fails. `README.md` beside this crate describes
//! the workloads and metrics.

mod client;
mod kv;
mod replay;
mod report;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

#[global_allocator]
static GLOBAL: trace::CountingAlloc = trace::CountingAlloc;

/// Command-line arguments.
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?.max(1)),
            "--trace" => trace = Some(num()? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

/// A run that has not finished after this long is stopped by the
/// watchdog with a non-zero exit, naming the phase it was stuck in.
const WATCHDOG: Duration = Duration::from_secs(170);

static EPOCH: OnceLock<Instant> = OnceLock::new();
static PHASE: Mutex<&str> = Mutex::new("start");

/// Announce the run's next phase on standard error.
fn phase(name: &'static str) {
    *PHASE.lock().expect("phase lock") = name;
    let at = EPOCH.get().map_or(0.0, |e| e.elapsed().as_secs_f64());
    eprintln!("[{at:7.2} s] {name}");
}

/// Stop the process if the run outlives [`WATCHDOG`]. The thread is
/// detached on purpose: it only ever ends the process.
fn start_watchdog() {
    std::thread::spawn(|| {
        std::thread::sleep(WATCHDOG);
        let stuck = *PHASE
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        eprintln!(
            "perfbench: watchdog: still in phase '{stuck}' after {} s",
            WATCHDOG.as_secs()
        );
        std::process::exit(3);
    });
}

/// Where a traced run writes its spans.
fn trace_path(workload: &str, seed: u64) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("traces")
        .join(format!("{workload}-seed{seed}.jsonl"))
}

/// Write a traced run's spans, reporting (not failing on) errors.
fn write_spans(rec: &trace::Recorder, workload: &str, seed: u64) {
    let path = trace_path(workload, seed);
    match rec.write(&path) {
        Ok(()) => eprintln!("spans written to {}", path.display()),
        Err(e) => eprintln!("could not write spans to {}: {e}", path.display()),
    }
}

fn main() -> ExitCode {
    let epoch = *EPOCH.get_or_init(Instant::now);
    start_watchdog();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let result = match args.workload.as_str() {
        "kv-steady" => kv::run(
            &args.workload,
            &kv::STEADY,
            args.seed,
            args.seconds,
            args.trace,
            epoch,
        ),
        "kv-crash" => kv::run(
            &args.workload,
            &kv::CRASH,
            args.seed,
            args.seconds,
            args.trace,
            epoch,
        ),
        "engine-replay" => replay::run(args.seed, args.seconds, args.trace, epoch),
        other => Err(format!("unknown workload {other}")),
    };
    let mut report = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match trace::peak_rss_mb() {
        Ok(mb) => report.metrics.insert("peak_rss_mb", mb),
        Err(e) => {
            eprintln!("perfbench: peak RSS: {e}");
            return ExitCode::from(2);
        }
    };
    println!("{}", report.line(args.trace));
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
