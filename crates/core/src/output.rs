//! Output commit (paper Remark: "Before committing an output to the
//! environment, a process must make sure that it will never rollback the
//! current state or lose it in a failure").
//!
//! An output is held in a volatile pending buffer until every component
//! of its dependency clock is provably **stable**: either at-or-below the
//! owning process's gossiped stable frontier (same version), or — for
//! older versions — at-or-below the restoration point announced by that
//! version's token (a recovered state is rebuilt from stable storage and
//! can never be lost again).

use std::collections::HashSet;

use dg_ftvc::{Entry, Ftvc, ProcessId};
use serde::{Deserialize, Serialize};

use crate::history::{History, HistoryRecord, RecordKind};

/// Identity of an output: the producing delivery's own clock entry plus
/// an index within that delivery. Deterministic across replays, which is
/// what makes exactly-once commit possible.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct OutputId {
    /// Producer's own `(version, ts)` at emission.
    pub entry: Entry,
    /// Index among outputs of the same delivery.
    pub index: u32,
}

/// An output waiting for its dependencies to become stable.
#[derive(Debug, Clone)]
pub struct PendingOutput<M> {
    /// Identity (stable across replay).
    pub id: OutputId,
    /// The value to release.
    pub value: M,
    /// Dependency clock at emission.
    pub clock: Ftvc,
}

/// `true` iff dependency `dep` on process `j` is stable given `j`'s
/// gossiped frontier and the local history's token records.
pub(crate) fn entry_is_stable(
    dep: Entry,
    frontier: Entry,
    history: &History,
    j: ProcessId,
) -> bool {
    use std::cmp::Ordering;
    match dep.version.cmp(&frontier.version) {
        Ordering::Equal => dep.ts <= frontier.ts,
        Ordering::Less => matches!(
            history.record(j, dep.version),
            Some(HistoryRecord { kind: RecordKind::Token, ts }) if dep.ts <= ts
        ),
        Ordering::Greater => false,
    }
}

/// Buffer of pending (volatile) and committed (stable) outputs.
///
/// Committed outputs model writes to the external world: they are
/// released exactly once, survive crashes, and are deduplicated by
/// [`OutputId`] when replay re-emits the producing states.
#[derive(Debug, Clone)]
pub struct OutputBuffer<M> {
    pending: Vec<PendingOutput<M>>,
    committed: Vec<(OutputId, M)>,
    committed_ids: HashSet<OutputId>,
    /// Reused survivor buffer for [`OutputBuffer::try_commit_into`]:
    /// still-unstable outputs are drained into it and swapped back, so
    /// the steady-state sweep allocates nothing once both vectors have
    /// grown to the high-water mark.
    scratch: Vec<PendingOutput<M>>,
}

impl<M: Clone> Default for OutputBuffer<M> {
    fn default() -> Self {
        OutputBuffer::new()
    }
}

impl<M: Clone> OutputBuffer<M> {
    /// An empty buffer.
    pub fn new() -> OutputBuffer<M> {
        OutputBuffer {
            pending: Vec::new(),
            committed: Vec::new(),
            committed_ids: HashSet::new(),
            scratch: Vec::new(),
        }
    }

    /// Queue an output. Returns `false` (and does nothing) if this id was
    /// already committed — the replay-deduplication path.
    pub fn emit(&mut self, id: OutputId, value: M, clock: Ftvc) -> bool {
        if self.committed_ids.contains(&id) {
            return false;
        }
        // A replay may also re-emit something still pending.
        if self.pending.iter().any(|p| p.id == id) {
            return false;
        }
        self.pending.push(PendingOutput { id, value, clock });
        true
    }

    /// Commit every pending output whose dependencies are stable under
    /// `frontiers` (one entry per process) and `history`. Returns the
    /// newly committed values in order.
    pub fn try_commit(&mut self, frontiers: &[Entry], history: &History) -> Vec<M> {
        let mut released = Vec::new();
        self.try_commit_into(frontiers, history, &mut released);
        released
    }

    /// Batched release: like [`OutputBuffer::try_commit`], but appends
    /// the newly committed values (in order) to a caller-owned buffer
    /// and returns how many were released. With a reused `released`
    /// buffer the steady-state sweep is allocation-free: survivors move
    /// through the internal scratch vector (capacity retained across
    /// calls), the id set and commit log only grow amortized, and the
    /// values themselves are cloned into caller storage that has already
    /// reached its high-water capacity.
    pub fn try_commit_into(
        &mut self,
        frontiers: &[Entry],
        history: &History,
        released: &mut Vec<M>,
    ) -> usize {
        let before = released.len();
        debug_assert!(self.scratch.is_empty());
        for p in self.pending.drain(..) {
            let stable = p
                .clock
                .iter()
                .all(|(j, dep)| entry_is_stable(dep, frontiers[j.index()], history, j));
            if stable {
                self.committed_ids.insert(p.id);
                released.push(p.value.clone());
                self.committed.push((p.id, p.value));
            } else {
                self.scratch.push(p);
            }
        }
        std::mem::swap(&mut self.pending, &mut self.scratch);
        released.len() - before
    }

    /// Crash: pending outputs are volatile and vanish; committed outputs
    /// are stable and survive. (Replay re-emits the recoverable ones.)
    pub fn crash(&mut self) -> usize {
        let lost = self.pending.len();
        self.pending.clear();
        lost
    }

    /// Rollback for failure token `(j, token)`: drop exactly the pending
    /// outputs whose producing state is an orphan of that failure —
    /// Lemma 3 applied to the output's dependency clock. Non-orphan
    /// pending outputs survive: dependencies only grow along a process
    /// trajectory, so everything emitted at or before the rollback point
    /// is still valid, and the rollback replay only re-emits from its
    /// checkpoint forward — clearing the whole buffer would silently
    /// lose any older output whose commit gossip had not yet caught up.
    /// Returns how many pending outputs were dropped.
    pub fn discard_orphans(&mut self, j: ProcessId, token: Entry) -> usize {
        let before = self.pending.len();
        self.pending.retain(|p| {
            let dep = p.clock.entry(j);
            dep.version != token.version || dep.ts <= token.ts
        });
        before - self.pending.len()
    }

    /// Outputs committed so far, in commit order.
    pub fn committed(&self) -> impl Iterator<Item = &M> {
        self.committed.iter().map(|(_, v)| v)
    }

    /// `true` once the output `id` has been committed.
    pub fn is_committed(&self, id: &OutputId) -> bool {
        self.committed_ids.contains(id)
    }

    /// Number of committed outputs.
    pub fn committed_len(&self) -> usize {
        self.committed.len()
    }

    /// Number of pending outputs.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Iterate pending outputs (for diagnostics).
    pub fn pending(&self) -> impl Iterator<Item = &PendingOutput<M>> {
        self.pending.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dg_ftvc::Version;

    fn id(v: u32, ts: u64, index: u32) -> OutputId {
        OutputId {
            entry: Entry::new(v, ts),
            index,
        }
    }

    fn clock(parts: &[(u32, u64)]) -> Ftvc {
        Ftvc::from_parts(ProcessId(0), parts)
    }

    #[test]
    fn commit_waits_for_frontiers() {
        let history = History::new(ProcessId(0), 2);
        let mut buf = OutputBuffer::new();
        buf.emit(id(0, 3, 0), "out", clock(&[(0, 3), (0, 5)]));
        // P1's frontier is behind the dependency.
        let frontiers = [Entry::new(0, 3), Entry::new(0, 4)];
        assert!(buf.try_commit(&frontiers, &history).is_empty());
        // Frontier catches up.
        let frontiers = [Entry::new(0, 3), Entry::new(0, 5)];
        assert_eq!(buf.try_commit(&frontiers, &history), vec!["out"]);
        assert_eq!(buf.committed_len(), 1);
        assert_eq!(buf.pending_len(), 0);
    }

    #[test]
    fn cross_version_dependency_needs_token_coverage() {
        let mut history = History::new(ProcessId(0), 2);
        let mut buf = OutputBuffer::new();
        // Depends on (v0, ts5) of P1, but P1 is already at version 1.
        buf.emit(id(0, 1, 0), "x", clock(&[(0, 1), (0, 5)]));
        let frontiers = [Entry::new(0, 9), Entry::new(1, 0)];
        // No token record: cannot prove (0,5) survived the failure.
        assert!(buf.try_commit(&frontiers, &history).is_empty());
        // Token says P1 recovered through ts 4: the dependency was lost.
        history.record_token(ProcessId(1), Entry::new(0, 4));
        assert!(buf.try_commit(&frontiers, &history).is_empty());
        // Token through ts 5: dependency recovered; commit.
        history.record_token(ProcessId(1), Entry::new(0, 5));
        assert_eq!(buf.try_commit(&frontiers, &history), vec!["x"]);
    }

    #[test]
    fn replay_emission_is_deduplicated() {
        let history = History::new(ProcessId(0), 1);
        let mut buf = OutputBuffer::new();
        assert!(buf.emit(id(0, 2, 0), 7u32, clock(&[(0, 2)])));
        let frontiers = [Entry::new(0, 9)];
        assert_eq!(buf.try_commit(&frontiers, &history), vec![7]);
        // Replay re-emits the same output: rejected.
        assert!(!buf.emit(id(0, 2, 0), 7u32, clock(&[(0, 2)])));
        assert_eq!(buf.committed_len(), 1);
        assert_eq!(buf.pending_len(), 0);
    }

    #[test]
    fn pending_reemission_is_deduplicated() {
        let mut buf = OutputBuffer::new();
        assert!(buf.emit(id(0, 2, 0), 7u32, clock(&[(0, 2)])));
        assert!(!buf.emit(id(0, 2, 0), 7u32, clock(&[(0, 2)])));
        assert_eq!(buf.pending_len(), 1);
    }

    #[test]
    fn batched_release_appends_and_keeps_survivors() {
        let history = History::new(ProcessId(0), 2);
        let mut buf = OutputBuffer::new();
        buf.emit(id(0, 1, 0), "early", clock(&[(0, 1), (0, 2)]));
        buf.emit(id(0, 2, 0), "late", clock(&[(0, 2), (0, 9)]));
        let mut released = vec!["prior"];
        // Only the first output's dependencies are stable.
        let frontiers = [Entry::new(0, 5), Entry::new(0, 5)];
        assert_eq!(buf.try_commit_into(&frontiers, &history, &mut released), 1);
        assert_eq!(released, vec!["prior", "early"]);
        assert_eq!(buf.pending_len(), 1);
        // The survivor commits once the frontier catches up; the buffer
        // keeps accumulating in order.
        let frontiers = [Entry::new(0, 9), Entry::new(0, 9)];
        assert_eq!(buf.try_commit_into(&frontiers, &history, &mut released), 1);
        assert_eq!(released, vec!["prior", "early", "late"]);
        assert_eq!(buf.pending_len(), 0);
        assert_eq!(buf.committed_len(), 2);
    }

    #[test]
    fn crash_loses_pending_keeps_committed() {
        let history = History::new(ProcessId(0), 1);
        let mut buf = OutputBuffer::new();
        buf.emit(id(0, 1, 0), "a", clock(&[(0, 1)]));
        let frontiers = [Entry::new(0, 9)];
        buf.try_commit(&frontiers, &history);
        buf.emit(id(0, 2, 0), "b", clock(&[(0, 2)]));
        assert_eq!(buf.crash(), 1);
        assert_eq!(buf.committed().copied().collect::<Vec<_>>(), vec!["a"]);
    }

    #[test]
    fn future_version_dependency_never_stable() {
        let history = History::new(ProcessId(0), 1);
        // Frontier still at version 0, dependency claims version 1.
        assert!(!entry_is_stable(
            Entry {
                version: Version(1),
                ts: 0
            },
            Entry::new(0, 100),
            &history,
            ProcessId(0)
        ));
    }
}
