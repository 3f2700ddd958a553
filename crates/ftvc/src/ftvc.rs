//! The fault-tolerant vector clock of Figure 2 of the paper.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::arena::PooledEntries;
use crate::{CausalOrder, Entry, ProcessId, Version};

/// A fault-tolerant vector clock (FTVC).
///
/// One component per process; each component is an [`Entry`]
/// `(version, timestamp)` compared lexicographically. The owner's own
/// component carries its current incarnation and local logical time.
///
/// The five clock operations follow Figure 2 of the paper:
///
/// * [`Ftvc::new`] — initialize: every component `(0,0)`, own timestamp `1`.
/// * [`Ftvc::stamp_for_send`] — return the clock to piggyback, then
///   increment the own timestamp.
/// * [`Ftvc::observe`] — componentwise join with an incoming clock, then
///   increment the own timestamp.
/// * [`Ftvc::restart`] — after a *failure*: increment the own version and
///   reset the own timestamp to zero. Requires only the previous version
///   number, which survives failures in the checkpoint.
/// * [`Ftvc::rolled_back`] — after a *rollback* (no failure): increment the
///   own timestamp; the version is unchanged.
///
/// # Examples
///
/// ```
/// use dg_ftvc::{Ftvc, ProcessId, CausalOrder};
///
/// let mut p0 = Ftvc::new(ProcessId(0), 2);
/// let mut p1 = Ftvc::new(ProcessId(1), 2);
/// let m = p0.stamp_for_send();
/// p1.observe(&m);
/// assert_eq!(p0.causal_compare(&p1), CausalOrder::Concurrent); // p0 ticked past m
/// assert!(m.happened_before(&p1));
/// ```
#[derive(Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Ftvc {
    owner: ProcessId,
    entries: EntryStore,
    /// XOR of [`component_digest`] over every `(index, entry)` pair —
    /// maintained incrementally by every mutation, so reading the digest
    /// of an `n`-component clock is O(1) instead of the O(n) hash the
    /// message-id path used to pay per receive. The XOR combiner is what
    /// makes O(Δ) maintenance possible: changing component `i` from `old`
    /// to `new` is `digest ^= component_digest(i, old) ^
    /// component_digest(i, new)`, independent of every other component.
    digest: u64,
    /// Encoded size of the clock under [`crate::wire::encode_ftvc`],
    /// maintained incrementally like the digest: mutating component `i`
    /// adjusts the cache by the varint-length difference of that one
    /// component. Turns the per-message piggyback accounting (two O(n)
    /// varint scans per delivered message before this cache) into an
    /// O(1) read.
    wire_len: u32,
}

/// Mixes one `(index, entry)` triple into a 64-bit word (a chained
/// splitmix64 finalizer). Each field passes through a full mix before the
/// next is folded in, so `(version, ts)` pairs that XOR to the same value
/// — the failure mode of naive word-XOR digests — land far apart.
#[inline]
fn component_digest(i: usize, e: Entry) -> u64 {
    #[inline]
    fn mix(mut x: u64) -> u64 {
        x ^= x >> 30;
        x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x ^= x >> 27;
        x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^ (x >> 31)
    }
    let mut h = mix(i as u64 ^ 0x9e37_79b9_7f4a_7c15);
    h = mix(h ^ u64::from(e.version.0));
    mix(h ^ e.ts)
}

/// The digest of a component slice, computed from scratch — the
/// reference the incremental maintenance must agree with.
fn slice_digest(entries: &[Entry]) -> u64 {
    entries
        .iter()
        .enumerate()
        .fold(0, |d, (i, &e)| d ^ component_digest(i, e))
}

/// Encoded varint size of one `(version, ts)` component — the unit the
/// incremental wire-length cache is maintained in.
#[inline]
fn entry_wire_len(e: Entry) -> u32 {
    (crate::wire::varint_len(u64::from(e.version.0)) + crate::wire::varint_len(e.ts)) as u32
}

/// Full encoded size of a clock, computed from scratch — the reference
/// value the incremental wire-length cache must always equal (and what
/// [`crate::wire::ftvc_wire_len`] measures independently).
fn slice_wire_len(owner: ProcessId, entries: &[Entry]) -> u32 {
    (crate::wire::varint_len(entries.len() as u64) + crate::wire::varint_len(u64::from(owner.0)))
        as u32
        + entries.iter().map(|&e| entry_wire_len(e)).sum::<u32>()
}

impl Clone for Ftvc {
    fn clone(&self) -> Ftvc {
        Ftvc {
            owner: self.owner,
            entries: self.entries.clone(),
            digest: self.digest,
            wire_len: self.wire_len,
        }
    }

    /// Copy-on-send into an existing clock buffer: spilled (heap) clocks
    /// reuse the destination's allocation, inline clocks are flat copies
    /// either way.
    fn clone_from(&mut self, source: &Ftvc) {
        self.owner = source.owner;
        self.entries.clone_from(&source.entries);
        self.digest = source.digest;
        self.wire_len = source.wire_len;
    }
}

/// Maximum system size stored inline (no heap allocation) by an
/// [`Ftvc`]. Larger clocks spill to a heap vector.
pub const INLINE_CLOCK_CAP: usize = 8;

/// Backing storage for clock components: a fixed inline array for small
/// systems (`n <= INLINE_CLOCK_CAP`), a pooled heap buffer above.
///
/// The protocol's hot path clones a clock on every send (the piggybacked
/// stamp), every delivery log append, and every queued output. Storing
/// small clocks inline makes each of those clones a flat copy — no
/// allocator traffic — which is what the engine's steady-state
/// zero-allocation contract rests on (see DESIGN.md, "Hot-path memory
/// discipline"). Spilled clocks reach the same steady state through the
/// thread-local buffer pool in [`crate::arena`]: clones take a recycled
/// buffer, drops park it for the next clone.
///
/// Equality and hashing go through [`EntryStore::as_slice`], so the
/// unused tail of the inline array can never influence observable
/// behaviour, and an inline store equals a heap store with the same
/// logical components.
#[derive(Debug, Serialize, Deserialize)]
enum EntryStore {
    Inline {
        len: u8,
        buf: [Entry; INLINE_CLOCK_CAP],
    },
    Heap(PooledEntries),
}

impl EntryStore {
    /// `n` components, all [`Entry::ZERO`].
    fn zeroed(n: usize) -> EntryStore {
        if n <= INLINE_CLOCK_CAP {
            EntryStore::Inline {
                len: n as u8,
                buf: [Entry::ZERO; INLINE_CLOCK_CAP],
            }
        } else {
            EntryStore::Heap(PooledEntries::filled(n, Entry::ZERO))
        }
    }

    #[inline]
    fn as_slice(&self) -> &[Entry] {
        match self {
            EntryStore::Inline { len, buf } => &buf[..*len as usize],
            EntryStore::Heap(v) => v.as_slice(),
        }
    }

    #[inline]
    fn as_mut_slice(&mut self) -> &mut [Entry] {
        match self {
            EntryStore::Inline { len, buf } => &mut buf[..*len as usize],
            EntryStore::Heap(v) => v.as_mut_slice(),
        }
    }
}

impl Clone for EntryStore {
    fn clone(&self) -> EntryStore {
        match self {
            EntryStore::Inline { len, buf } => EntryStore::Inline {
                len: *len,
                buf: *buf,
            },
            EntryStore::Heap(v) => EntryStore::Heap(v.clone()),
        }
    }

    /// Reuse the destination's heap buffer when both sides have spilled,
    /// so `clone_from` on large clocks is copy-on-send into a pooled
    /// buffer rather than a fresh allocation.
    fn clone_from(&mut self, source: &EntryStore) {
        match (&mut *self, source) {
            (EntryStore::Heap(dst), EntryStore::Heap(src)) => {
                dst.clone_from(src);
            }
            (dst, src) => *dst = src.clone(),
        }
    }
}

impl PartialEq for EntryStore {
    fn eq(&self, other: &EntryStore) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for EntryStore {}

impl std::hash::Hash for EntryStore {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl Ftvc {
    /// Create the initial clock of `owner` in an `n`-process system:
    /// all components `(0,0)` except the owner's timestamp, which is `1`
    /// (Figure 2, *Initialize*).
    ///
    /// # Panics
    ///
    /// Panics if `owner.index() >= n`.
    pub fn new(owner: ProcessId, n: usize) -> Ftvc {
        assert!(
            owner.index() < n,
            "owner {owner} out of range for {n}-process system"
        );
        let mut entries = EntryStore::zeroed(n);
        entries.as_mut_slice()[owner.index()].ts = 1;
        let digest = slice_digest(entries.as_slice());
        let wire_len = slice_wire_len(owner, entries.as_slice());
        Ftvc {
            owner,
            entries,
            digest,
            wire_len,
        }
    }

    /// The process that owns (locally advances) this clock.
    #[inline]
    pub fn owner(&self) -> ProcessId {
        self.owner
    }

    /// Number of components (processes in the system).
    #[inline]
    pub fn len(&self) -> usize {
        self.entries.as_slice().len()
    }

    /// `true` iff the clock has no components (never true for a clock
    /// built with [`Ftvc::new`]).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.entries.as_slice().is_empty()
    }

    /// The component for process `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    #[inline]
    pub fn entry(&self, p: ProcessId) -> Entry {
        self.entries.as_slice()[p.index()]
    }

    /// The owner's own component.
    #[inline]
    pub fn own_entry(&self) -> Entry {
        self.entries.as_slice()[self.owner.index()]
    }

    /// The owner's current version (incarnation number).
    #[inline]
    pub fn version(&self) -> Version {
        self.own_entry().version
    }

    /// All components in process-id order.
    #[inline]
    pub fn entries(&self) -> &[Entry] {
        self.entries.as_slice()
    }

    /// A 64-bit digest of all components, read in O(1): it is maintained
    /// incrementally at every clock mutation, never recomputed from the
    /// full clock. Two clocks with equal components always have equal
    /// digests; unequal clocks collide with probability ~2⁻⁶⁴ per pair.
    /// The engine uses it as the message-identity discriminator
    /// (`MsgId::clock_digest`) and in state digests.
    #[inline]
    pub fn digest(&self) -> u64 {
        self.digest
    }

    /// Recompute the digest from scratch — the O(n) reference value the
    /// incremental cache must always equal. Exposed for property tests
    /// and debug assertions; production paths read [`Ftvc::digest`].
    pub fn full_clock_digest(&self) -> u64 {
        slice_digest(self.entries.as_slice())
    }

    /// Encoded size of this clock under [`crate::wire::encode_ftvc`],
    /// read in O(1) from the incrementally maintained cache. Always
    /// equals [`crate::wire::ftvc_wire_len`], which recomputes it by
    /// scanning (the reference the property tests pin against).
    #[inline]
    pub fn wire_len(&self) -> usize {
        self.wire_len as usize
    }

    /// Overwrite component `i` with `new`, keeping the digest and
    /// wire-length caches in step — the single funnel every mutation
    /// goes through.
    #[inline]
    fn set_entry(&mut self, i: usize, new: Entry) {
        let slot = &mut self.entries.as_mut_slice()[i];
        self.digest ^= component_digest(i, *slot) ^ component_digest(i, new);
        self.wire_len = self.wire_len - entry_wire_len(*slot) + entry_wire_len(new);
        *slot = new;
    }

    /// Advance the owner's timestamp by one (digest-maintaining).
    #[inline]
    fn tick_own(&mut self) {
        let own = self.owner.index();
        let mut e = self.entries.as_slice()[own];
        e.ts += 1;
        self.set_entry(own, e);
    }

    /// Iterate `(process, entry)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (ProcessId, Entry)> + '_ {
        self.entries
            .as_slice()
            .iter()
            .enumerate()
            .map(|(i, &e)| (ProcessId(i as u16), e))
    }

    /// Clock value to piggyback on an outgoing message; advances the own
    /// timestamp afterwards (Figure 2, *Send message*).
    #[must_use = "the returned stamp must be piggybacked on the message"]
    pub fn stamp_for_send(&mut self) -> Ftvc {
        let stamp = self.clone();
        self.tick_own();
        stamp
    }

    /// Merge an incoming clock: componentwise [`Entry::join`], then advance
    /// the own timestamp (Figure 2, *Receive message*).
    ///
    /// # Panics
    ///
    /// Panics if the clocks have different lengths.
    pub fn observe(&mut self, incoming: &Ftvc) {
        assert_eq!(
            self.len(),
            incoming.len(),
            "cannot merge clocks of different system sizes"
        );
        let theirs = incoming.entries.as_slice();
        for (i, &their) in theirs.iter().enumerate() {
            let mine = self.entries.as_slice()[i];
            let joined = mine.join(their);
            if joined != mine {
                self.set_entry(i, joined);
            }
        }
        self.tick_own();
    }

    /// [`Ftvc::observe`], additionally appending to `changed` the index
    /// of every non-own component the join actually moved. The engine's
    /// full-merge delivery path uses this to feed the send journal that
    /// prices delta send-stamps in O(Δ) — it learns which components are
    /// dirty as a byproduct of the merge, with no extra scan.
    ///
    /// # Panics
    ///
    /// Panics if the clocks have different lengths.
    pub fn observe_recording(&mut self, incoming: &Ftvc, changed: &mut Vec<u16>) {
        assert_eq!(
            self.len(),
            incoming.len(),
            "cannot merge clocks of different system sizes"
        );
        let own = self.owner.index();
        let theirs = incoming.entries.as_slice();
        for (i, &their) in theirs.iter().enumerate() {
            let mine = self.entries.as_slice()[i];
            let joined = mine.join(their);
            if joined != mine {
                self.set_entry(i, joined);
                if i != own {
                    changed.push(i as u16);
                }
            }
        }
        self.tick_own();
    }

    /// Append to `out` the indices of components where `self` and
    /// `floor` disagree, in ascending order.
    ///
    /// This is the Δ-extraction step of the O(Δ) delivery path: the
    /// receiver keeps the last clock it merged from each sender (its
    /// *comparison frontier*) and only the components that moved since
    /// then need the join/orphan/obsolete machinery. The scan itself is
    /// a branch-light linear pass over plain `(u32, u64)` pairs — cheap
    /// compared to the table probes it saves.
    ///
    /// # Panics
    ///
    /// Panics if the clocks have different lengths.
    pub fn diff_indices_into(&self, floor: &Ftvc, out: &mut Vec<u16>) {
        assert_eq!(
            self.len(),
            floor.len(),
            "cannot diff clocks of different system sizes"
        );
        for (i, (a, b)) in self
            .entries
            .as_slice()
            .iter()
            .zip(floor.entries.as_slice())
            .enumerate()
        {
            if a != b {
                out.push(i as u16);
            }
        }
    }

    /// Merge only the listed components of `incoming` (componentwise
    /// [`Entry::join`]), then advance the own timestamp — the O(Δ)
    /// counterpart of [`Ftvc::observe`].
    ///
    /// Sound only when every component **not** listed in `dirty`
    /// satisfies `incoming[i] <= self[i]`, i.e. the join would be a
    /// no-op there. The engine guarantees this by diffing `incoming`
    /// against a per-sender floor clock it has already merged (clock
    /// components only grow between failures, and the floor cache is
    /// invalidated on every rollback/restart). Debug builds verify the
    /// precondition; release builds trust it.
    ///
    /// # Panics
    ///
    /// Panics if the clocks have different lengths or an index in
    /// `dirty` is out of range.
    pub fn observe_at(&mut self, incoming: &Ftvc, dirty: &[u16]) {
        assert_eq!(
            self.len(),
            incoming.len(),
            "cannot merge clocks of different system sizes"
        );
        debug_assert!(
            {
                let mut dirty_iter = dirty.iter().peekable();
                self.entries
                    .as_slice()
                    .iter()
                    .zip(incoming.entries.as_slice())
                    .enumerate()
                    .all(|(i, (mine, theirs))| {
                        if dirty_iter.peek() == Some(&&(i as u16)) {
                            dirty_iter.next();
                            true
                        } else {
                            theirs <= mine
                        }
                    })
            },
            "observe_at precondition violated: an unlisted component of \
             the incoming clock exceeds the local clock"
        );
        let theirs = incoming.entries.as_slice();
        for &i in dirty {
            let i = i as usize;
            let mine = self.entries.as_slice()[i];
            let joined = mine.join(theirs[i]);
            if joined != mine {
                self.set_entry(i, joined);
            }
        }
        self.tick_own();
    }

    /// Transition after the owner restarts from a **failure**: the own
    /// version increments and the own timestamp resets to zero
    /// (Figure 2, *On Restart*).
    pub fn restart(&mut self) {
        let own = self.owner.index();
        let old = self.entries.as_slice()[own];
        self.set_entry(own, Entry::new(old.version.next().0, 0));
    }

    /// Transition after the owner **rolls back** (orphan recovery, no
    /// failure): the own timestamp increments, the version is unchanged
    /// (Figure 2, *On Rollback*).
    pub fn rolled_back(&mut self) {
        self.tick_own();
    }

    /// Raise the own timestamp above `ts`; a no-op when it already is.
    /// The version is unchanged. A process that rolled back uses it to
    /// skip past timestamps of its discarded states, so that no new
    /// state reuses a `(version, ts)` label it may already have
    /// announced as stable.
    pub fn advance_own_past(&mut self, ts: u64) {
        let own = self.owner.index();
        let mut e = self.entries.as_slice()[own];
        if e.ts <= ts {
            e.ts = ts + 1;
            self.set_entry(own, e);
        }
    }

    /// Compare two clocks under the vector partial order
    /// `c1 < c2 iff (forall i: c1[i] <= c2[i]) and (exists j: c1[j] < c2[j])`.
    ///
    /// By Theorem 1 of the paper, for *useful* states (neither lost nor
    /// orphan) this coincides with the extended happened-before relation.
    ///
    /// # Panics
    ///
    /// Panics if the clocks have different lengths.
    pub fn causal_compare(&self, other: &Ftvc) -> CausalOrder {
        assert_eq!(
            self.len(),
            other.len(),
            "cannot compare clocks of different system sizes"
        );
        self.entries
            .as_slice()
            .iter()
            .zip(other.entries.as_slice())
            .map(|(a, b)| a.cmp(b))
            .fold(CausalOrder::Equal, CausalOrder::fold)
    }

    /// `true` iff `self < other` in the vector partial order.
    #[inline]
    pub fn happened_before(&self, other: &Ftvc) -> bool {
        self.causal_compare(other).is_before()
    }

    /// `true` iff the two clocks are causally concurrent.
    #[inline]
    pub fn concurrent_with(&self, other: &Ftvc) -> bool {
        self.causal_compare(other).is_concurrent()
    }

    /// Raw constructor for tests and scenario replays: build a clock from
    /// explicit `(version, ts)` pairs.
    ///
    /// # Panics
    ///
    /// Panics if `owner.index() >= parts.len()`.
    pub fn from_parts(owner: ProcessId, parts: &[(u32, u64)]) -> Ftvc {
        assert!(owner.index() < parts.len());
        let mut entries = EntryStore::zeroed(parts.len());
        for (slot, &(v, t)) in entries.as_mut_slice().iter_mut().zip(parts) {
            *slot = Entry::new(v, t);
        }
        let digest = slice_digest(entries.as_slice());
        let wire_len = slice_wire_len(owner, entries.as_slice());
        Ftvc {
            owner,
            entries,
            digest,
            wire_len,
        }
    }
}

impl fmt::Display for Ftvc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, e) in self.entries.as_slice().iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            write!(f, "{e}")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initialization_matches_figure_2() {
        let c = Ftvc::new(ProcessId(1), 3);
        assert_eq!(c.entry(ProcessId(0)), Entry::new(0, 0));
        assert_eq!(c.entry(ProcessId(1)), Entry::new(0, 1));
        assert_eq!(c.entry(ProcessId(2)), Entry::new(0, 0));
        assert_eq!(c.version(), Version(0));
    }

    #[test]
    fn send_returns_pre_increment_stamp() {
        let mut c = Ftvc::new(ProcessId(0), 2);
        let stamp = c.stamp_for_send();
        assert_eq!(stamp.entry(ProcessId(0)), Entry::new(0, 1));
        assert_eq!(c.entry(ProcessId(0)), Entry::new(0, 2));
    }

    #[test]
    fn observe_joins_and_ticks() {
        let mut a = Ftvc::new(ProcessId(0), 3);
        let mut b = Ftvc::new(ProcessId(1), 3);
        let m = a.stamp_for_send();
        b.observe(&m);
        // b took a's component and ticked its own.
        assert_eq!(b.entry(ProcessId(0)), Entry::new(0, 1));
        assert_eq!(b.entry(ProcessId(1)), Entry::new(0, 2));
        assert_eq!(b.entry(ProcessId(2)), Entry::new(0, 0));
    }

    #[test]
    fn observe_prefers_higher_version_even_with_lower_ts() {
        let mut a = Ftvc::from_parts(ProcessId(0), &[(0, 5), (0, 9)]);
        let incoming = Ftvc::from_parts(ProcessId(1), &[(0, 2), (1, 1)]);
        a.observe(&incoming);
        // Version 1 with ts 1 beats version 0 with ts 9.
        assert_eq!(a.entry(ProcessId(1)), Entry::new(1, 1));
        assert_eq!(a.entry(ProcessId(0)), Entry::new(0, 6));
    }

    #[test]
    fn restart_bumps_version_resets_ts() {
        let mut c = Ftvc::from_parts(ProcessId(0), &[(0, 7), (2, 3)]);
        c.restart();
        assert_eq!(c.own_entry(), Entry::new(1, 0));
        // Other components untouched.
        assert_eq!(c.entry(ProcessId(1)), Entry::new(2, 3));
    }

    #[test]
    fn rollback_ticks_without_version_change() {
        let mut c = Ftvc::from_parts(ProcessId(0), &[(1, 4), (0, 0)]);
        c.rolled_back();
        assert_eq!(c.own_entry(), Entry::new(1, 5));
    }

    #[test]
    fn message_chain_creates_happened_before() {
        let mut a = Ftvc::new(ProcessId(0), 3);
        let mut b = Ftvc::new(ProcessId(1), 3);
        let mut c = Ftvc::new(ProcessId(2), 3);
        let m1 = a.stamp_for_send();
        b.observe(&m1);
        let m2 = b.stamp_for_send();
        c.observe(&m2);
        assert!(m1.happened_before(&c));
        assert!(a.concurrent_with(&b) || a.happened_before(&b));
    }

    #[test]
    fn independent_clocks_are_concurrent() {
        let mut a = Ftvc::new(ProcessId(0), 2);
        let mut b = Ftvc::new(ProcessId(1), 2);
        let _ = a.stamp_for_send();
        let _ = b.stamp_for_send();
        assert!(a.concurrent_with(&b));
        assert_eq!(a.causal_compare(&b).reverse(), b.causal_compare(&a));
    }

    #[test]
    fn display_formats_entries() {
        let c = Ftvc::from_parts(ProcessId(0), &[(0, 1), (1, 2)]);
        assert_eq!(c.to_string(), "[(0,1) (1,2)]");
    }

    #[test]
    #[should_panic(expected = "different system sizes")]
    fn comparing_mismatched_sizes_panics() {
        let a = Ftvc::new(ProcessId(0), 2);
        let b = Ftvc::new(ProcessId(0), 3);
        let _ = a.causal_compare(&b);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn owner_out_of_range_panics() {
        let _ = Ftvc::new(ProcessId(5), 3);
    }

    #[test]
    fn inline_and_heap_stores_agree_across_the_boundary() {
        // The same logical clock value must behave identically whether it
        // sits inline (n <= INLINE_CLOCK_CAP) or on the heap.
        for n in [
            2,
            INLINE_CLOCK_CAP - 1,
            INLINE_CLOCK_CAP,
            INLINE_CLOCK_CAP + 1,
            32,
        ] {
            let mut a = Ftvc::new(ProcessId(0), n);
            let mut b = Ftvc::new(ProcessId((n - 1) as u16), n);
            let stamp = a.stamp_for_send();
            b.observe(&stamp);
            assert_eq!(b.len(), n);
            assert_eq!(b.entry(ProcessId(0)), Entry::new(0, 1));
            assert!(stamp.happened_before(&b));
            // Equality and hashing see only the logical components.
            let copy = Ftvc::from_parts(
                b.owner(),
                &b.iter()
                    .map(|(_, e)| (e.version.0, e.ts))
                    .collect::<Vec<_>>(),
            );
            assert_eq!(copy, b);
            use std::collections::hash_map::DefaultHasher;
            use std::hash::{Hash, Hasher};
            let digest = |c: &Ftvc| {
                let mut h = DefaultHasher::new();
                c.hash(&mut h);
                h.finish()
            };
            assert_eq!(digest(&copy), digest(&b));
        }
    }

    #[test]
    fn clone_from_reuses_heap_capacity() {
        let n = INLINE_CLOCK_CAP + 4;
        let mut src = Ftvc::new(ProcessId(0), n);
        let _ = src.stamp_for_send();
        let mut dst = Ftvc::new(ProcessId(1), n);
        dst.clone_from(&src);
        assert_eq!(dst, src);
        assert_eq!(dst.owner(), src.owner());
    }

    #[test]
    fn cached_wire_len_tracks_reference_scan() {
        // The incremental wire-length cache must equal the O(n) scan
        // after any mix of mutations, across varint-width boundaries
        // (ts crossing 127, version bumps) and the inline/heap split.
        for n in [3, INLINE_CLOCK_CAP, 12] {
            let mut a = Ftvc::new(ProcessId(0), n);
            let mut b = Ftvc::new(ProcessId((n - 1) as u16), n);
            for i in 0..300u64 {
                let stamp = a.stamp_for_send();
                b.observe(&stamp);
                if i % 50 == 0 {
                    b.restart();
                }
                if i % 70 == 0 {
                    a.rolled_back();
                }
                for c in [&a, &b, &stamp] {
                    assert_eq!(c.wire_len(), crate::wire::ftvc_wire_len(c));
                    assert_eq!(c.digest(), c.full_clock_digest());
                }
            }
        }
    }

    #[test]
    fn figure_1_prefix_replay() {
        // Replays the pre-failure prefix of Figure 1 from the paper and
        // checks the boxed clock values.
        let mut p0 = Ftvc::new(ProcessId(0), 3);
        let mut p1 = Ftvc::new(ProcessId(1), 3);
        let mut p2 = Ftvc::new(ProcessId(2), 3);

        // s00: P0 at (0,1)(0,0)(0,0); sends to P1.
        assert_eq!(
            p0.entries(),
            Ftvc::from_parts(ProcessId(0), &[(0, 1), (0, 0), (0, 0)]).entries()
        );
        let m_01 = p0.stamp_for_send();
        // s11: P1 receives -> (0,1)(0,2)(0,0)
        p1.observe(&m_01);
        assert_eq!(
            p1,
            Ftvc::from_parts(ProcessId(1), &[(0, 1), (0, 2), (0, 0)])
        );
        // P2 independent at (0,0)(0,0)(0,1).
        assert_eq!(
            p2,
            Ftvc::from_parts(ProcessId(2), &[(0, 0), (0, 0), (0, 1)])
        );
        // P1 fails after s12; restores s11's clock and restarts.
        let mut restored = p1.clone();
        restored.restart();
        // r10 clock: (0,1)(1,0)(0,0)
        assert_eq!(
            restored,
            Ftvc::from_parts(ProcessId(1), &[(0, 1), (1, 0), (0, 0)])
        );
        let _ = p2.stamp_for_send();
    }
}
