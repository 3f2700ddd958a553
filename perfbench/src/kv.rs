//! The served-store workloads: an open-loop, heavy-tailed request
//! stream against a `ServiceCluster` over loopback TCP, driven by the
//! benchmark's own client and audited by both oracles.

use std::collections::HashMap;
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use dg_apps::{SvcOp, SvcRequest};
use dg_core::{DgConfig, EngineView, ProcessId};
use dg_harness::loadgen::{self, Arrival, LoadConfig, LoadOp};
use dg_harness::oracle::{self, Violation};
use dg_harness::service_oracle::{self, ServiceJournal};
use dg_service::{RunConfig, ServiceCluster, ServiceOptions};

use crate::client::{self, Planned, Worker, POLICY};
use crate::report::{self, ratio, Metrics, Report};
use crate::stats::{self, Watched};
use crate::trace::{self, micros, timed, Recorder, Span};

/// One served-store workload.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Replicas.
    pub n: usize,
    /// Node event-loop threads (`None`: one per node).
    pub node_threads: Option<usize>,
    /// Offered load, requests per second.
    pub rate: f64,
    /// Logical client sessions. Each writes only its own key and
    /// reads any of 256. The service remembers its last 128 replies per
    /// session; few sessions let those windows fill during the warm-up,
    /// so the checkpointed state, and with it latency, is steady while
    /// the run measures.
    pub sessions: u64,
    /// Share of requests that are writes.
    pub write_fraction: f64,
    /// Crash replica 1 for this long at the middle of the measured
    /// phase.
    pub crash: Option<Duration>,
    /// Requests due in this prefix warm the service up; they count
    /// towards set-up, not towards the latency figures.
    pub warmup: Duration,
}

/// Healthy service, read-mostly: front door, router and the
/// timer-bound commit wait do most of the work. The rate leaves most of
/// a 2-core host idle, so the latency figures show the service's timers
/// and hops rather than a run queue that grows whenever other tenants
/// take CPU.
pub const STEADY: Spec = Spec {
    n: 4,
    node_threads: None,
    rate: 2_000.0,
    sessions: 128,
    write_fraction: 0.1,
    crash: None,
    warmup: Duration::from_secs(2),
};

/// A replica crash under a write-heavy load on a larger group: restart,
/// tokens over the dissemination tree, rollback and retransmission.
pub const CRASH: Spec = Spec {
    n: 16,
    node_threads: Some(2),
    rate: 1_500.0,
    sessions: 32,
    write_fraction: 0.5,
    crash: Some(Duration::from_millis(300)),
    warmup: Duration::from_secs(3),
};

/// The crashed replica; clients never use its front.
const CRASHED: ProcessId = ProcessId(1);

/// Latency and stall figures are taken per window of this many seconds
/// of the measured phase: at `kv-crash`'s rate a window holds 1500
/// requests, 15 of them beyond its 99th percentile.
const WINDOW_S: u64 = 1;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

/// Interval between status probes in a traced run.
const PROBE_EVERY: Duration = Duration::from_millis(20);

/// Bound on waiting for the group to go quiet after the load.
const QUIESCE_LIMIT: Duration = Duration::from_secs(30);

/// The engines' configuration: 2 ms group-commit flush, 8 ms stability
/// gossip, retransmission, garbage collection and reliable tokens.
fn engine_config() -> DgConfig {
    DgConfig::fast_test()
        .with_retransmit(true)
        .with_gossip(8_000)
        .with_gc(true)
        .with_history_gc(true)
        .with_reliable_tokens(true)
}

/// The load description for `seed`: the offered rate over the warm-up
/// plus `seconds`.
fn load_config(spec: &Spec, seed: u64, seconds: u64) -> LoadConfig {
    let span = spec.warmup.as_secs_f64() + seconds as f64;
    LoadConfig {
        write_fraction: spec.write_fraction,
        ..LoadConfig::open(seed, spec.sessions, (spec.rate * span) as u64, spec.rate)
    }
}

/// Turn arrivals into per-connection plans. The schedule's time axis is
/// stretched so its requests fill exactly `[0, end_us)`: the heavy-tailed
/// shape is kept, and every seed offers the same mean rate. Request ids
/// and written values rise per session, and sessions are pinned to
/// connections so answers come back on the connection that reads them.
fn build_plans(arrivals: &[Arrival], end_us: u64, conns: usize) -> Vec<Vec<Planned>> {
    let span = arrivals.last().map_or(1, |a| a.at_us + 1) as f64;
    let stretch = end_us as f64 / span;
    let mut plans: Vec<Vec<Planned>> = vec![Vec::new(); conns];
    let mut next: HashMap<u64, (u64, u64)> = HashMap::new();
    for a in arrivals {
        let (req, val) = next.entry(a.session).or_insert((1, 1));
        let op = match a.op {
            LoadOp::Write { key, delete: true } => SvcOp::Del { key },
            LoadOp::Write { key, delete: false } => {
                *val += 1;
                SvcOp::Put {
                    key,
                    value: *val - 1,
                }
            }
            LoadOp::Read { key } => SvcOp::Get { key },
        };
        let request = SvcRequest {
            client: a.session,
            req: *req,
            op,
        };
        *req += 1;
        let due_us = (a.at_us as f64 * stretch) as u64;
        plans[(a.session % conns as u64) as usize].push(Planned::new(due_us, request));
    }
    plans
}

/// Everything set up and ready for the client clock to start.
struct Ready {
    svc: ServiceCluster,
    plans: Vec<Vec<Planned>>,
    fronts: Vec<SocketAddr>,
    conns: Vec<TcpStream>,
    scheduled: u64,
}

/// Schedule, launch, connect.
fn set_up(
    spec: &Spec,
    cfg: &LoadConfig,
    end_us: u64,
    conns: usize,
    rec: &mut Option<Recorder>,
    m: &mut Metrics,
) -> Result<Ready, String> {
    let (arrivals, schedule_s) = timed(rec, "loadgen.schedule", Some("setup"), || {
        loadgen::schedule(cfg)
    });
    m.insert("loadgen.schedule_s", schedule_s);
    let plans = build_plans(&arrivals, end_us, conns);
    let scheduled = plans.iter().map(|p| p.len() as u64).sum();
    let (svc, _) = timed(rec, "service.launch_opts", Some("setup"), || {
        ServiceCluster::launch_opts(
            spec.n,
            engine_config(),
            None,
            ServiceOptions {
                run: RunConfig {
                    node_threads: spec.node_threads,
                    ..RunConfig::default()
                },
                ..ServiceOptions::default()
            },
        )
    });
    let svc = svc.map_err(|e| format!("launch: {e}"))?;
    let (all, _) = timed(rec, "service.fronts", Some("setup"), || svc.fronts());
    let fronts: Vec<SocketAddr> = all
        .iter()
        .enumerate()
        .filter(|&(i, _)| spec.crash.is_none() || i != CRASHED.index())
        .map(|(_, a)| *a)
        .collect();
    let mut streams = Vec::with_capacity(conns);
    for w in 0..conns {
        let s =
            TcpStream::connect(fronts[w % fronts.len()]).map_err(|e| format!("connect: {e}"))?;
        s.set_nodelay(true).map_err(|e| format!("nodelay: {e}"))?;
        streams.push(s);
    }
    Ok(Ready {
        svc,
        plans,
        fronts,
        conns: streams,
        scheduled,
    })
}

/// What the status probes of a traced run saw.
#[derive(Default)]
struct Probes {
    wait_ms: Vec<f64>,
    pending_outputs: Vec<f64>,
    in_flight: Vec<f64>,
}

/// Run one served-store workload.
#[allow(clippy::too_many_lines)]
pub fn run(
    name: &str,
    spec: &Spec,
    seed: u64,
    seconds: u64,
    traced: bool,
    epoch: Instant,
) -> Result<Report, String> {
    let mut rec = traced.then(|| Recorder::new(epoch));
    let mut m = Metrics::new();
    let conns = cores().min(2);
    let cfg = load_config(spec, seed, seconds);
    let warm_us = micros(spec.warmup);
    let end_us = warm_us + seconds * 1_000_000;

    // Set up several times; the last set-up is the one measured.
    let mut setups = Vec::with_capacity(SETUPS);
    for _ in 1..SETUPS {
        crate::phase("set-up");
        let t = Instant::now();
        let ready = set_up(spec, &cfg, end_us, conns, &mut None, &mut m)?;
        setups.push(t.elapsed().as_secs_f64());
        drop(ready.conns);
        // Shutting a cluster down within milliseconds of its launch can
        // livelock the node threads; a quiet group shuts down cleanly.
        crate::phase("set-up quiesce");
        if !ready.svc.quiesce(QUIESCE_LIMIT) {
            return Err("a set-up cluster did not quiesce".into());
        }
        crate::phase("set-up shutdown");
        ready.svc.shutdown();
    }
    crate::phase("set-up");
    let setup_from = Instant::now();
    let ready = set_up(spec, &cfg, end_us, conns, &mut rec, &mut m)?;
    setups.push(setup_from.elapsed().as_secs_f64());
    m.insert(
        "setup_s",
        stats::median(&setups) + spec.warmup.as_secs_f64(),
    );

    let Ready {
        svc,
        plans,
        fronts,
        conns: streams,
        scheduled,
    } = ready;
    let workers: Vec<Worker<'_>> = plans
        .iter()
        .zip(streams)
        .enumerate()
        .map(|(w, (plan, s))| {
            Worker::new(
                plan,
                fronts.clone(),
                w,
                Some(s),
                POLICY,
                seed ^ (w as u64 + 1),
            )
        })
        .collect();

    crate::phase("load");
    let start = Instant::now();
    if let Some(r) = rec.as_mut() {
        r.layer("setup", None, setup_from, start);
    }
    let load_end = start + Duration::from_micros(end_us);
    let measure_from = start + spec.warmup;
    let mut probes = Probes::default();
    // CPU time and stolen time at the start and end of the measured
    // phase.
    let mut usage_from = None;
    let mut usage_to = None;
    let outcomes: Vec<client::Outcome> = std::thread::scope(|scope| {
        let handles: Vec<_> = workers
            .into_iter()
            .map(|w| scope.spawn(move || w.run(start)))
            .collect();
        let crash_at = start + spec.warmup + Duration::from_secs(seconds) / 2;
        let mut crashed = spec.crash.is_none();
        loop {
            let now = Instant::now();
            if usage_from.is_none() && now >= measure_from {
                usage_from = Some(usage());
            }
            if !crashed && now >= crash_at {
                let downtime = spec.crash.expect("crash workload");
                timed(&mut rec, "service.crash", Some("load"), || {
                    svc.crash(CRASHED, downtime)
                });
                crashed = true;
            }
            if now >= load_end {
                usage_to = Some(usage());
                break;
            }
            if traced {
                let (statuses, wait) = timed(&mut rec, "service.statuses", Some("load"), || {
                    svc.statuses()
                });
                probes.wait_ms.push(wait * 1e3);
                probes
                    .pending_outputs
                    .push(statuses.iter().map(|s| s.pending_outputs as f64).sum());
                probes
                    .in_flight
                    .push(statuses.iter().map(|s| s.svc_in_flight as f64).sum());
            }
            let mut next = if crashed {
                load_end
            } else {
                crash_at.min(load_end)
            };
            if usage_from.is_none() {
                next = next.min(measure_from);
            }
            let nap = if traced {
                PROBE_EVERY
            } else {
                Duration::from_millis(50)
            };
            std::thread::sleep(next.saturating_duration_since(Instant::now()).min(nap));
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("client worker panicked"))
            .collect()
    });
    let drained = Instant::now();
    let drained_us = micros(drained - start);
    let (cpu_from, steal_from) =
        usage_from.ok_or("no usage sample at the measured phase's start")??;
    let (cpu_to, steal_to) = usage_to.ok_or("no usage sample at the measured phase's end")??;
    crate::phase("quiesce");
    if let Some(r) = rec.as_mut() {
        r.layer("load", None, start, drained);
    }

    let final_statuses = traced.then(|| svc.statuses());
    let (quiesced, quiesce_s) = timed(&mut rec, "service.quiesce", Some("teardown"), || {
        svc.quiesce(QUIESCE_LIMIT)
    });
    m.insert("netrun.quiesce_s", quiesce_s);
    crate::phase("shutdown");
    let ((engines, replicas), _) = timed(&mut rec, "service.shutdown", Some("teardown"), || {
        svc.shutdown()
    });
    crate::phase("check");

    // Correctness: both oracles, quiescence, the rollback bound and the
    // session protocol.
    let mut journal = ServiceJournal::default();
    let mut protocol_errors = 0;
    for o in &outcomes {
        journal.acked_writes.extend(&o.journal.acked_writes);
        journal.unacked_writes.extend(&o.journal.unacked_writes);
        journal.observed_gets.extend(&o.journal.observed_gets);
        journal.responses.extend(&o.journal.responses);
        protocol_errors += o.protocol_errors;
    }
    let views: Vec<&dyn EngineView> = engines.iter().map(|e| e as &dyn EngineView).collect();
    let mut violations: Vec<Violation> = Vec::new();
    let (_, check_s) = timed(&mut rec, "oracle.check", Some("teardown"), || {
        service_oracle::check_service(&journal, &replicas, &mut violations);
        oracle::check_views(&views, &mut violations);
    });
    m.insert("oracle.check_s", check_s);
    if let Some(r) = rec.as_mut() {
        r.layer("teardown", None, drained, Instant::now());
    }
    if !quiesced {
        violations.push(Violation("the replica group did not quiesce".into()));
    }
    let max_rb = report::max_rollbacks_per_failure(&views);
    if max_rb > 1 {
        violations.push(Violation(format!(
            "a process rolled back {max_rb} times for one failure"
        )));
    }
    if protocol_errors > 0 {
        violations.push(Violation(format!(
            "{protocol_errors} replies broke the session protocol"
        )));
    }
    for v in &violations {
        eprintln!("violation: {}", v.0);
    }

    // End-to-end figures over requests due in the measured phase.
    let miss_ms = POLICY.deadline.as_secs_f64() * 1e3;
    let mut latencies = Vec::new();
    let window_count = seconds.div_ceil(WINDOW_S);
    let mut windows: Vec<Vec<Option<f64>>> = vec![Vec::new(); window_count as usize];
    let mut send_lag = Vec::new();
    let mut watched = Vec::new();
    let mut sends = 0u64;
    for (plan, o) in plans.iter().zip(&outcomes) {
        for (p, f) in plan.iter().zip(&o.fates) {
            sends += u64::from(f.sends);
            if let Some(r) = rec.as_mut() {
                r.push(Span {
                    name: "client.request",
                    id: (p.request.client, p.request.req),
                    parent: Some("load"),
                    start_us: r.us(start) + p.due_us,
                    end_us: r.us(start) + f.ack_us.unwrap_or(drained_us),
                });
            }
            if p.due_us < warm_us {
                continue;
            }
            let latency = f.ack_us.map(|a| a.saturating_sub(p.due_us) as f64 / 1e3);
            latencies.push(latency);
            windows[((p.due_us - warm_us) / (WINDOW_S * 1_000_000)) as usize].push(latency);
            if let Some(s) = f.first_send_us {
                send_lag.push(s.saturating_sub(p.due_us) as f64 / 1e3);
            }
            if usize::from(p.request.op.key()) % spec.n == CRASHED.index() {
                watched.push(Watched {
                    due_us: p.due_us,
                    ack_us: f.ack_us,
                });
            }
        }
    }
    let attempted = latencies.len() as u64;
    let acked = latencies.iter().flatten().count() as u64;
    let per_window = |q: f64| -> Vec<f64> {
        windows
            .iter()
            .map(|w| stats::latency_quantile(w, q, miss_ms))
            .collect()
    };
    let w50 = per_window(0.5);
    let w99 = per_window(0.99);
    let show = |v: &[f64]| {
        v.iter()
            .map(|x| format!("{x:.1}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    eprintln!("{name}: p50 ms per {WINDOW_S} s window: {}", show(&w50));
    eprintln!("{name}: p99 ms per {WINDOW_S} s window: {}", show(&w99));
    let p50 = quiet(&w50);
    let goodput = acked as f64 / seconds as f64;
    m.insert("latency_p50_ms", p50);
    m.insert("goodput_ops_s", goodput);

    // Figures only the traced run reports; README.md says why they
    // carry no bound. First, CPU time of the whole process (service and
    // client) per request due in the measured phase, not counting time
    // the hypervisor steals.
    m.insert(
        "process.cpu_us_per_op",
        ratio(cpu_to.saturating_sub(cpu_from) as f64, attempted as f64),
    );
    let steal_share = ratio(
        steal_to.saturating_sub(steal_from) as f64,
        seconds as f64 * 100.0 * cores() as f64,
    );
    eprintln!(
        "{name}: the hypervisor stole {:.1}% of the host's CPU time during the measured phase",
        steal_share * 100.0
    );
    m.insert("traced.latency_p99_ms", quiet(&w99));
    // With a crash, the longest stall on the crashed replica's keys is
    // the outage. Without one, the same measure per window, taken like
    // the latencies: the stall those keys see in a quiet window.
    let unavail_us = if spec.crash.is_some() {
        stats::longest_stall_us(&watched, warm_us, end_us.max(drained_us)) as f64
    } else {
        let stalls: Vec<f64> = (0..window_count)
            .map(|w| {
                let from = warm_us + w * WINDOW_S * 1_000_000;
                let to = (from + WINDOW_S * 1_000_000).min(end_us);
                let inside: Vec<Watched> = watched
                    .iter()
                    .copied()
                    .filter(|r| (from..to).contains(&r.due_us))
                    .collect();
                stats::longest_stall_us(&inside, from, to) as f64
            })
            .collect();
        quiet(&stalls)
    };
    m.insert("traced.unavail_ms", unavail_us / 1e3);
    m.insert("traced.latency_p50_ms", p50);
    m.insert("traced.goodput_ops_s", goodput);

    // Per-layer figures.
    let ops = scheduled as f64;
    m.insert(
        "client.send_lag_p99_ms",
        stats::quantile(&mut send_lag, 0.99),
    );
    m.insert(
        "client.retries_per_op",
        ratio(sends.saturating_sub(scheduled) as f64, ops),
    );
    m.insert(
        "client.failed_frac",
        ratio((attempted - acked) as f64, attempted as f64),
    );
    let statuses = final_statuses.unwrap_or_default();
    let batches = total(&statuses, |s| s.svc_batch_hist.iter().sum());
    m.insert(
        "service.batch_mean",
        ratio(total(&statuses, |s| s.svc_admitted), batches),
    );
    m.insert(
        "service.shed_per_op",
        ratio(total(&statuses, |s| s.svc_shed), ops),
    );
    m.insert(
        "service.in_flight_p99",
        stats::quantile(&mut probes.in_flight, 0.99),
    );
    m.insert(
        "service.slow_disconnects",
        total(&statuses, |s| s.svc_slow_disconnects),
    );
    m.insert(
        "netrun.probe_wait_p50_ms",
        stats::quantile(&mut probes.wait_ms, 0.5),
    );
    m.insert(
        "netrun.probe_wait_p99_ms",
        stats::quantile(&mut probes.wait_ms, 0.99),
    );
    m.insert(
        "netrun.frames_dropped",
        total(&statuses, |s| s.frames_dropped),
    );
    m.insert(
        "output.pending_p50",
        stats::quantile(&mut probes.pending_outputs, 0.5),
    );
    let run_s = drained_us as f64 / 1e6;
    report::engine_layers(&views, ops, run_s, &mut m);
    for name in [
        "engine.deliver_app_ns",
        "engine.deliver_control_ns",
        "engine.tick_checkpoint_us",
        "engine.tick_flush_ns",
        "engine.tick_gossip_ns",
        "engine.restart_us",
        "engine.allocs_per_input",
    ] {
        m.insert(name, 0.0);
    }

    if let Some(r) = rec {
        crate::write_spans(&r, name, seed);
    }
    let sheds: u64 = outcomes.iter().map(|o| o.sheds).sum();
    let failovers: u64 = outcomes.iter().map(|o| o.failovers).sum();
    let hints: u64 = outcomes.iter().map(|o| o.retry_hints).sum();
    eprintln!(
        "{name}: {attempted} measured, {acked} acked, {sends} sends for {scheduled} requests, \
         {sheds} shed, {hints} retry hints, {failovers} failovers, {} violations",
        violations.len()
    );
    Ok(Report {
        correct: violations.is_empty(),
        attempted,
        failed: attempted - acked,
        metrics: m,
    })
}

/// A per-window figure as the service shows it when the host lets it
/// run: the 25th percentile over the measured phase's windows. Other
/// tenants of the host take CPU from the service in bursts of seconds
/// (a pure spin loop on a 2-core host varied ±30% from second to
/// second), so a median over windows moves with the host's load rather
/// than with the program.
fn quiet(per_window: &[f64]) -> f64 {
    let mut v = per_window.to_vec();
    stats::quantile(&mut v, 0.25)
}

/// The process's CPU time (µs) and the host's stolen time (ticks) so
/// far.
fn usage() -> Result<(u64, u64), String> {
    let cpu = trace::process_cpu_us().map_err(|e| format!("CPU time: {e}"))?;
    let steal = trace::steal_ticks().map_err(|e| format!("stolen time: {e}"))?;
    Ok((cpu, steal))
}

/// CPUs of the host.
fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |c| c.get())
}

/// Sum `f` over `items`.
fn total<T>(items: &[T], f: impl Fn(&T) -> u64) -> f64 {
    items.iter().map(|t| f(t) as f64).sum()
}
