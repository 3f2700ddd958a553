//! Protocol configuration.

use dg_storage::StorageCosts;
use serde::{Deserialize, Serialize};

/// Tunables of a [`crate::DgProcess`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DgConfig {
    /// Interval between periodic checkpoints (microseconds).
    pub checkpoint_interval: u64,
    /// Interval between asynchronous log flushes (microseconds). This is
    /// the "optimism knob": a long interval means fast failure-free runs
    /// but more lost work per failure (experiment E5).
    pub flush_interval: u64,
    /// Storage latencies charged to the simulation schedule.
    pub costs: StorageCosts,
    /// Enable the send-history retransmission extension (paper, Remark
    /// 1): tokens carry the restored state's full clock and peers resend
    /// messages the failed process lost from its volatile log.
    pub retransmit_lost: bool,
    /// Interval for gossiping stability frontiers, enabling output commit
    /// and garbage collection (paper Remarks). `None` disables gossip.
    ///
    /// With gossip on, each flush also pushes the new own stable entry
    /// to every peer that received an `App` message since the previous
    /// push ([`crate::ProcessStats::frontier_pushes`]). An output whose
    /// dependencies came over direct messages therefore commits within
    /// about one flush interval plus one hop, whatever this interval
    /// is. Periodic gossip is the backstop: it carries indirect
    /// dependencies and drives garbage collection and send-log pruning.
    pub gossip_interval: Option<u64>,
    /// Reclaim checkpoints, log prefixes and history records that the
    /// gossiped global stability frontier proves unnecessary (paper,
    /// Remark 2 / Wang et al.). Requires `gossip_interval`.
    pub garbage_collect: bool,
    /// Reclaim history-table records of dead (token-covered) versions
    /// once the gossiped frontiers show their originator has moved on —
    /// the paper's Section 6.9 channel-flush condition, approximated by
    /// the frontier gossip. Bounds `History::total_records()` in long
    /// runs with recurring failures (the netrun soak configuration).
    /// Requires `gossip_interval`.
    pub history_gc: bool,
    /// Reliable token delivery: acknowledge every received token and
    /// retransmit unacknowledged tokens with exponential backoff. The
    /// paper assumes a reliable control plane; this sublayer *implements*
    /// that assumption over lossy channels, so it is off in the base
    /// configuration and required whenever the network drops control
    /// messages.
    pub reliable_tokens: bool,
    /// Initial retransmission timeout for unacknowledged tokens
    /// (microseconds). Doubles on every retry.
    pub token_retry_timeout: u64,
    /// Upper bound on the exponential backoff (microseconds).
    pub token_backoff_cap: u64,
    /// Jitter applied to every token retransmission delay, as the
    /// percentage of the nominal backoff that may be shaved off
    /// (`0..=100`). The actual delay is drawn deterministically from
    /// `[backoff * (100 - pct) / 100, backoff]` by hashing the retrying
    /// process, the token identity and the attempt number — decorrelating
    /// the retry schedules of processes that armed their timers in
    /// lockstep (e.g. when a partition heals), without giving the engine
    /// an RNG. `0` restores the exact unjittered schedule.
    pub token_retry_jitter_pct: u8,
    /// Give up retransmitting a pending token after this many retry
    /// rounds (the original broadcast not counted), dropping the
    /// acknowledgement obligation and counting
    /// `ProcessStats::token_retries_exhausted`. `None` retries forever —
    /// the default, since quiescence-based suites rely on pending tokens
    /// draining to zero only via acknowledgement.
    pub token_retry_limit: Option<u32>,
    /// Write periodic checkpoints as *delta frames* against the previous
    /// checkpoint (dirty clock entries, changed sections) instead of full
    /// images, rebasing on a full frame every
    /// [`DgConfig::full_checkpoint_every`] frames. Deltas are charged the
    /// (cheaper) `sync_write` cost and report honest per-section byte
    /// counts through [`crate::ProcessStats`]. Off in the base
    /// configuration — the paper's protocol writes full checkpoints.
    pub delta_checkpoints: bool,
    /// With [`DgConfig::delta_checkpoints`] on: rebase with a full frame
    /// every this many checkpoints (the full frame itself counts, so `8`
    /// means one full then seven deltas). Bounds the chain a recovery
    /// must replay and the blast radius of a corrupt base frame.
    pub full_checkpoint_every: u32,
    /// Price (and, on byte-moving runtimes, encode) piggybacked send
    /// stamps as v3 dirty-index deltas against the per-receiver floor —
    /// O(Δ) components per message instead of O(n). Pure metadata
    /// compression: the receiver reconstructs the identical full clock,
    /// so protocol behaviour is unchanged. On by default.
    pub delta_stamps: bool,
    /// Disseminate recovery tokens and stability gossip along
    /// deterministic k-ary spanning trees instead of all-to-all
    /// broadcast, cutting per-failure control traffic from O(n²) to
    /// O(n) messages. Tokens use a tree rooted at the originator and
    /// fall back to the reliable-delivery sublayer's direct
    /// retransmissions when a tree edge is lost (so the tree is only
    /// used when [`DgConfig::reliable_tokens`] is on and `n - 1`
    /// exceeds the fanout — otherwise broadcast is already optimal).
    /// Frontier gossip travels as aggregated [`crate::Wire::FrontierVec`]
    /// vectors along a static tree plus one rotating fallback peer per
    /// tick (eventual delivery even if the tree is partitioned). On by
    /// default.
    pub tree_dissemination: bool,
    /// Fanout `k` of the dissemination trees (children per node).
    pub tree_fanout: u16,
    /// Group output-commit stability sweeps: a gossiped frontier
    /// advance mostly just marks the pending-output buffer dirty, and
    /// the O(pending · n) stability scan (plus garbage collection) runs
    /// once per flush/gossip tick instead of once per received
    /// frontier frame. Under broadcast gossip each round delivers n−1
    /// advancing frontiers, so grouping cuts the sweep cost by about
    /// that factor. Commit latency stays bounded by the flush interval:
    /// the first bare frontier (a flush push, see
    /// [`DgConfig::gossip_interval`], or a broadcast-gossip frame)
    /// received in a flush interval sweeps on receipt, later ones in
    /// the interval are swept by the flush tick, and a flush that
    /// advances the own stable entry sweeps too. Off in the base
    /// configuration — the serving runtime (`dg-service`) turns it on.
    pub grouped_commit: bool,
}

impl DgConfig {
    /// A configuration with everything optional disabled — the base
    /// protocol exactly as in Figure 4.
    pub fn base() -> DgConfig {
        DgConfig {
            checkpoint_interval: 50_000,
            flush_interval: 5_000,
            costs: StorageCosts::disk(),
            retransmit_lost: false,
            gossip_interval: None,
            garbage_collect: false,
            history_gc: false,
            reliable_tokens: false,
            token_retry_timeout: 2_000,
            token_backoff_cap: 64_000,
            token_retry_jitter_pct: 25,
            token_retry_limit: None,
            delta_checkpoints: false,
            full_checkpoint_every: 8,
            delta_stamps: true,
            tree_dissemination: true,
            tree_fanout: 4,
            grouped_commit: false,
        }
    }

    /// The base protocol with free storage — for tests that isolate
    /// protocol logic from latency effects.
    pub fn fast_test() -> DgConfig {
        DgConfig {
            costs: StorageCosts::free(),
            checkpoint_interval: 10_000,
            flush_interval: 2_000,
            ..DgConfig::base()
        }
    }

    /// Builder-style checkpoint interval.
    #[must_use]
    pub fn checkpoint_every(mut self, us: u64) -> DgConfig {
        self.checkpoint_interval = us;
        self
    }

    /// Builder-style flush interval.
    #[must_use]
    pub fn flush_every(mut self, us: u64) -> DgConfig {
        self.flush_interval = us;
        self
    }

    /// Builder-style storage costs.
    #[must_use]
    pub fn with_costs(mut self, costs: StorageCosts) -> DgConfig {
        self.costs = costs;
        self
    }

    /// Builder-style retransmission toggle.
    #[must_use]
    pub fn with_retransmit(mut self, on: bool) -> DgConfig {
        self.retransmit_lost = on;
        self
    }

    /// Builder-style gossip interval.
    #[must_use]
    pub fn with_gossip(mut self, interval: u64) -> DgConfig {
        self.gossip_interval = Some(interval);
        self
    }

    /// Builder-style garbage-collection toggle (implies gossip must be
    /// enabled to have any effect).
    #[must_use]
    pub fn with_gc(mut self, on: bool) -> DgConfig {
        self.garbage_collect = on;
        self
    }

    /// Builder-style history-GC toggle (implies gossip must be enabled
    /// to have any effect).
    #[must_use]
    pub fn with_history_gc(mut self, on: bool) -> DgConfig {
        self.history_gc = on;
        self
    }

    /// Builder-style reliable-token toggle.
    #[must_use]
    pub fn with_reliable_tokens(mut self, on: bool) -> DgConfig {
        self.reliable_tokens = on;
        self
    }

    /// Builder-style token retransmission timing: initial retry timeout
    /// and backoff cap, both in microseconds.
    ///
    /// # Panics
    ///
    /// Panics if `initial` is zero or `cap < initial`.
    #[must_use]
    pub fn token_retry(mut self, initial: u64, cap: u64) -> DgConfig {
        assert!(initial > 0, "retry timeout must be positive");
        assert!(cap >= initial, "backoff cap below initial timeout");
        self.token_retry_timeout = initial;
        self.token_backoff_cap = cap;
        self
    }

    /// Builder-style retransmission jitter (percentage of the nominal
    /// backoff that may be shaved off each retry delay).
    ///
    /// # Panics
    ///
    /// Panics if `pct > 100`.
    #[must_use]
    pub fn token_jitter(mut self, pct: u8) -> DgConfig {
        assert!(pct <= 100, "jitter percentage above 100");
        self.token_retry_jitter_pct = pct;
        self
    }

    /// Builder-style delta-checkpoint toggle.
    #[must_use]
    pub fn with_delta_checkpoints(mut self, on: bool) -> DgConfig {
        self.delta_checkpoints = on;
        self
    }

    /// Builder-style full-frame rebase period for delta checkpoints.
    ///
    /// # Panics
    ///
    /// Panics if `every` is zero.
    #[must_use]
    pub fn full_every(mut self, every: u32) -> DgConfig {
        assert!(every > 0, "full-checkpoint period must be positive");
        self.full_checkpoint_every = every;
        self
    }

    /// Builder-style delta-send-stamp toggle.
    #[must_use]
    pub fn with_delta_stamps(mut self, on: bool) -> DgConfig {
        self.delta_stamps = on;
        self
    }

    /// Builder-style tree-dissemination toggle.
    #[must_use]
    pub fn with_tree_dissemination(mut self, on: bool) -> DgConfig {
        self.tree_dissemination = on;
        self
    }

    /// Builder-style dissemination-tree fanout.
    ///
    /// # Panics
    ///
    /// Panics if `k` is zero.
    #[must_use]
    pub fn with_tree_fanout(mut self, k: u16) -> DgConfig {
        assert!(k > 0, "tree fanout must be positive");
        self.tree_fanout = k;
        self
    }

    /// Builder-style grouped-commit toggle (defer output-commit
    /// stability sweeps to flush/gossip ticks).
    #[must_use]
    pub fn with_grouped_commit(mut self, on: bool) -> DgConfig {
        self.grouped_commit = on;
        self
    }

    /// Builder-style retransmission cap: give up on a pending token
    /// after `limit` retry rounds.
    ///
    /// # Panics
    ///
    /// Panics if `limit` is zero (use `None` semantics — the default —
    /// to retry forever).
    #[must_use]
    pub fn token_retry_cap(mut self, limit: u32) -> DgConfig {
        assert!(limit > 0, "retry limit must be positive");
        self.token_retry_limit = Some(limit);
        self
    }
}

impl Default for DgConfig {
    fn default() -> Self {
        DgConfig::base()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_compose() {
        let c = DgConfig::base()
            .checkpoint_every(1)
            .flush_every(2)
            .with_costs(StorageCosts::free())
            .with_retransmit(true)
            .with_gossip(9)
            .with_gc(true);
        assert_eq!(c.checkpoint_interval, 1);
        assert_eq!(c.flush_interval, 2);
        assert_eq!(c.costs, StorageCosts::free());
        assert!(c.retransmit_lost);
        assert_eq!(c.gossip_interval, Some(9));
        assert!(c.garbage_collect);
    }

    #[test]
    fn base_is_pure_figure_4() {
        let c = DgConfig::base();
        assert!(!c.retransmit_lost);
        assert!(c.gossip_interval.is_none());
        assert!(!c.garbage_collect);
        assert!(!c.reliable_tokens);
    }

    #[test]
    fn token_retry_builder() {
        let c = DgConfig::base()
            .with_reliable_tokens(true)
            .token_retry(500, 8_000);
        assert!(c.reliable_tokens);
        assert_eq!(c.token_retry_timeout, 500);
        assert_eq!(c.token_backoff_cap, 8_000);
    }

    #[test]
    #[should_panic(expected = "backoff cap below initial timeout")]
    fn token_retry_validates_cap() {
        let _ = DgConfig::base().token_retry(1_000, 10);
    }

    #[test]
    fn jitter_and_retry_cap_builders() {
        let c = DgConfig::base().token_jitter(40).token_retry_cap(7);
        assert_eq!(c.token_retry_jitter_pct, 40);
        assert_eq!(c.token_retry_limit, Some(7));
        assert_eq!(DgConfig::base().token_retry_limit, None);
    }

    #[test]
    #[should_panic(expected = "jitter percentage above 100")]
    fn jitter_validates_pct() {
        let _ = DgConfig::base().token_jitter(101);
    }

    #[test]
    #[should_panic(expected = "retry limit must be positive")]
    fn retry_cap_rejects_zero() {
        let _ = DgConfig::base().token_retry_cap(0);
    }

    #[test]
    fn delta_checkpoint_builders() {
        let base = DgConfig::base();
        assert!(!base.delta_checkpoints);
        assert_eq!(base.full_checkpoint_every, 8);
        let c = base.with_delta_checkpoints(true).full_every(4);
        assert!(c.delta_checkpoints);
        assert_eq!(c.full_checkpoint_every, 4);
    }

    #[test]
    #[should_panic(expected = "full-checkpoint period must be positive")]
    fn full_every_rejects_zero() {
        let _ = DgConfig::base().full_every(0);
    }

    #[test]
    fn metadata_compression_defaults_on() {
        let c = DgConfig::base();
        assert!(c.delta_stamps);
        assert!(c.tree_dissemination);
        assert_eq!(c.tree_fanout, 4);
        let off = c.with_delta_stamps(false).with_tree_dissemination(false);
        assert!(!off.delta_stamps);
        assert!(!off.tree_dissemination);
        assert_eq!(DgConfig::base().with_tree_fanout(2).tree_fanout, 2);
    }

    #[test]
    fn grouped_commit_defaults_off() {
        assert!(!DgConfig::base().grouped_commit);
        assert!(DgConfig::base().with_grouped_commit(true).grouped_commit);
    }

    #[test]
    #[should_panic(expected = "tree fanout must be positive")]
    fn tree_fanout_rejects_zero() {
        let _ = DgConfig::base().with_tree_fanout(0);
    }
}
