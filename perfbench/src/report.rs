//! The metric catalogue, the result line, and the per-layer figures
//! read from the engines after a run.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use dg_core::EngineView;

/// Metric values by name.
pub type Metrics = BTreeMap<&'static str, f64>;

/// End-to-end metrics, reported by every untraced run: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("goodput_ops_s", "ops/s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, reported by every traced run: `(name, unit)`. A
/// layer a workload does not exercise reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("client.send_lag_p99_ms", "ms"),
    ("client.retries_per_op", "ratio"),
    ("client.failed_frac", "ratio"),
    ("loadgen.schedule_s", "s"),
    ("service.batch_mean", "count"),
    ("service.shed_per_op", "ratio"),
    ("service.in_flight_p99", "count"),
    ("service.slow_disconnects", "count"),
    ("netrun.probe_wait_p50_ms", "ms"),
    ("netrun.probe_wait_p99_ms", "ms"),
    ("netrun.frames_dropped", "count"),
    ("netrun.quiesce_s", "s"),
    ("engine.inputs_per_op", "ratio"),
    ("engine.msgs_per_op", "ratio"),
    ("engine.deliver_app_ns", "ns"),
    ("engine.deliver_control_ns", "ns"),
    ("engine.tick_checkpoint_us", "us"),
    ("engine.tick_flush_ns", "ns"),
    ("engine.tick_gossip_ns", "ns"),
    ("engine.restart_us", "us"),
    ("engine.allocs_per_input", "ratio"),
    ("engine.token_msgs_per_failure", "ratio"),
    ("engine.rollbacks", "count"),
    ("engine.msgs_replayed", "count"),
    ("engine.outputs_rolled_back", "count"),
    ("engine.max_rollbacks_per_failure", "count"),
    ("ftvc.piggyback_bytes_per_msg", "B"),
    ("ftvc.delta_stamp_frac", "ratio"),
    ("history.records_max", "count"),
    ("output.pending_p50", "count"),
    ("output.commits_per_op", "ratio"),
    ("storage.flushes_per_s", "1/s"),
    ("storage.log_bytes_per_op", "B"),
    ("storage.ckpts_per_s", "1/s"),
    ("oracle.check_s", "s"),
    ("process.cpu_us_per_op", "us"),
    ("traced.latency_p50_ms", "ms"),
    ("traced.latency_p99_ms", "ms"),
    ("traced.goodput_ops_s", "ops/s"),
    ("traced.unavail_ms", "ms"),
];

/// One run's result.
#[derive(Debug, Default)]
pub struct Report {
    /// Every correctness check passed.
    pub correct: bool,
    /// Operations attempted in the measured phase.
    pub attempted: u64,
    /// Of those, failed (all of them when a check failed).
    pub failed: u64,
    /// Every metric the run measured, end-to-end and per layer.
    pub metrics: Metrics,
}

impl Report {
    /// The result line: the catalogue's metrics for this kind of run,
    /// in catalogue order.
    ///
    /// # Panics
    ///
    /// Panics if the run left one of them unmeasured or not finite.
    pub fn line(&self, traced: bool) -> String {
        let catalogue = if traced { PER_LAYER } else { END_TO_END };
        let attempted = self.attempted.max(1);
        let failed = if self.correct { self.failed } else { attempted };
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{",
            self.correct
        );
        for (k, (name, unit)) in catalogue.iter().enumerate() {
            let value = *self
                .metrics
                .get(name)
                .unwrap_or_else(|| panic!("metric {name} was not measured"));
            assert!(value.is_finite(), "metric {name} is not finite: {value}");
            let sep = if k == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}

/// `num / den`, or 0 when there is nothing to divide by.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Per-layer figures the engines' own counters hold after a run: engine
/// work, the recovery path, clock piggybacks, history, output commit and
/// storage. `ops` is the run's operation count and `seconds` its
/// duration.
pub fn engine_layers(views: &[&dyn EngineView], ops: f64, seconds: f64, m: &mut Metrics) {
    let sum = |f: &dyn Fn(&dg_core::ProcessStats) -> u64| -> f64 {
        views.iter().map(|v| f(v.stats()) as f64).sum()
    };
    let msgs = sum(&|s| s.messages_sent);
    let failures = sum(&|s| s.restarts);
    m.insert("engine.inputs_per_op", ratio(sum(&|s| s.inputs), ops));
    m.insert("engine.msgs_per_op", ratio(msgs, ops));
    m.insert(
        "engine.token_msgs_per_failure",
        ratio(sum(&|s| s.token_wire_msgs), failures),
    );
    m.insert("engine.rollbacks", sum(&|s| s.rollbacks));
    m.insert("engine.msgs_replayed", sum(&|s| s.messages_replayed));
    m.insert(
        "engine.outputs_rolled_back",
        sum(&|s| s.outputs_rolled_back),
    );
    m.insert(
        "engine.max_rollbacks_per_failure",
        max_rollbacks_per_failure(views) as f64,
    );
    m.insert(
        "ftvc.piggyback_bytes_per_msg",
        ratio(sum(&|s| s.piggyback_bytes), msgs),
    );
    let delta = sum(&|s| s.stamp_delta_sends);
    m.insert(
        "ftvc.delta_stamp_frac",
        ratio(delta, delta + sum(&|s| s.stamp_full_sends)),
    );
    m.insert(
        "history.records_max",
        views
            .iter()
            .map(|v| v.history().total_records())
            .max()
            .unwrap_or(0) as f64,
    );
    m.insert(
        "output.commits_per_op",
        ratio(sum(&|s| s.outputs_committed), ops),
    );
    m.insert("storage.flushes_per_s", ratio(sum(&|s| s.flushes), seconds));
    m.insert(
        "storage.log_bytes_per_op",
        ratio(sum(&|s| s.log_bytes_flushed), ops),
    );
    m.insert(
        "storage.ckpts_per_s",
        ratio(sum(&|s| s.checkpoints_taken), seconds),
    );
}

/// The most rollbacks any one process made for any one failure — the
/// paper bounds it by 1.
pub fn max_rollbacks_per_failure(views: &[&dyn EngineView]) -> u64 {
    views
        .iter()
        .map(|v| v.stats().max_rollbacks_per_failure())
        .max()
        .unwrap_or(0)
}
