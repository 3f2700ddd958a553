//! Regression test for delta-checkpoint chains (ISSUE 7): a restart
//! must restore from the newest *usable* chain — every delta back to an
//! intact full base — even when the newest frames, including the base
//! full frame itself, are corrupt. The discriminating observable is the
//! replay count: restoring from an older checkpoint replays a longer
//! stable-log suffix, and the final state must still be exact.
//!
//! Chain built here (with `full_every(3)`): F0 D1 D2 F3 D4. Two storage
//! faults take out D4 and then F3; recovery must land on D2 — usable
//! because D2 ← D1 ← F0 all verify — and replay three logged
//! deliveries, not one.

use dg_core::{
    timers, Application, DgConfig, Effect, Effects, Engine, EngineView, Input, ProcessId,
    ProtocolEngine, StorageFault, Version, Wire,
};

/// Order-sensitive accumulator: replaying deliveries out of order or
/// twice produces a different digest.
#[derive(Clone)]
struct Counter {
    sum: u64,
}

impl Application for Counter {
    type Msg = u64;

    fn on_start(&mut self, _me: ProcessId, _n: usize) -> Effects<u64> {
        Effects::none()
    }

    fn on_message(
        &mut self,
        _me: ProcessId,
        _from: ProcessId,
        msg: &u64,
        _n: usize,
    ) -> Effects<u64> {
        self.sum = self.sum.wrapping_mul(31).wrapping_add(*msg);
        Effects::none()
    }

    fn digest(&self) -> u64 {
        self.sum
    }
}

type Fx = Effect<Wire<u64>, u64>;

/// The app envelope an injected send produced, addressed to `to`.
fn wire_to(effects: Vec<Fx>, to: ProcessId) -> Wire<u64> {
    effects
        .into_iter()
        .find_map(|e| match e {
            Effect::Send { to: t, wire, .. } if t == to => Some(wire),
            _ => None,
        })
        .expect("an injected send produces a wire message")
}

fn config() -> DgConfig {
    DgConfig::fast_test()
        .with_delta_checkpoints(true)
        .full_every(3)
}

#[test]
fn restart_restores_from_older_chain_when_newest_base_frame_is_corrupt() {
    let p0 = ProcessId(0);
    let p1 = ProcessId(1);
    let mut a = Engine::new(p0, 2, Counter { sum: 0 }, config());
    let mut b = Engine::new(p1, 2, Counter { sum: 0 }, config());
    let mut now = 0;
    a.handle(Input::Start { now });
    b.handle(Input::Start { now });
    // The initial checkpoint is always a full frame.
    assert_eq!(EngineView::stats(&a).checkpoints_full, 1);
    assert_eq!(EngineView::stats(&a).checkpoints_delta, 0);

    // Build the chain F0 D1 D2 F3 D4: four deliveries, each followed by
    // a checkpoint tick (which also flushes the log, making every
    // delivery up to D4 stable).
    for k in 1..=4u64 {
        now += 100;
        let wire = wire_to(
            b.handle(Input::AppSend {
                to: p0,
                payload: k,
                now,
            }),
            p0,
        );
        a.handle(Input::Deliver {
            from: p1,
            wire,
            now,
        });
        now += 100;
        a.handle(Input::Tick {
            kind: timers::CHECKPOINT,
            now,
        });
    }
    assert_eq!(a.checkpoint_count(), 5, "F0 D1 D2 F3 D4");
    assert_eq!(EngineView::stats(&a).checkpoints_full, 2, "F0 and F3");
    assert_eq!(EngineView::stats(&a).checkpoints_delta, 3, "D1 D2 D4");
    assert!(EngineView::stats(&a).checkpoint_bytes_full > 0);
    assert!(EngineView::stats(&a).checkpoint_bytes_delta > 0);

    // A fifth delivery lands after D4; an explicit flush makes it
    // stable so the replay below must reproduce it too.
    now += 100;
    let wire = wire_to(
        b.handle(Input::AppSend {
            to: p0,
            payload: 5,
            now,
        }),
        p0,
    );
    a.handle(Input::Deliver {
        from: p1,
        wire,
        now,
    });
    now += 100;
    a.handle(Input::Tick {
        kind: timers::FLUSH,
        now,
    });

    let pre_sum = a.app().digest();

    // Storage faults: the first takes out D4, the second the base full
    // frame F3. The newest usable checkpoint is now D2, whose chain
    // D2 ← D1 ← F0 is intact.
    assert!(a
        .handle(Input::Fault(StorageFault::CorruptLatestCheckpoint))
        .is_empty());
    assert!(a
        .handle(Input::Fault(StorageFault::CorruptLatestCheckpoint))
        .is_empty());

    a.handle(Input::Crash);
    now += 1_000;
    let effects = a.handle(Input::Restart { now });
    assert!(
        effects.iter().any(|e| matches!(
            e,
            Effect::Broadcast {
                wire: Wire::Token(_)
            }
        )),
        "a restart announces itself with a token"
    );

    // Restoring from D2 (state after two deliveries) replays the three
    // stable deliveries logged past its frame — had the damaged D4/F3
    // frames been used, only one would replay.
    assert_eq!(EngineView::stats(&a).messages_replayed, 3);
    assert_eq!(EngineView::stats(&a).restarts, 1);
    assert_eq!(EngineView::version(&a), Version(1));
    // Nothing was lost: every delivery was stable, so replay rebuilds
    // the exact pre-crash application state; the new incarnation starts
    // its own clock entry at (version 1, ts 0) per Figure 2.
    assert_eq!(a.app().digest(), pre_sum);
    assert_eq!(a.clock().entry(p0).version, Version(1));
}

#[test]
fn storage_fault_forces_a_full_rebase_frame() {
    let p0 = ProcessId(0);
    let p1 = ProcessId(1);
    let mut a = Engine::new(p0, 2, Counter { sum: 0 }, config());
    let mut b = Engine::new(p1, 2, Counter { sum: 0 }, config());
    let mut now = 0;
    a.handle(Input::Start { now }); // F0
    b.handle(Input::Start { now });
    now += 100;
    let wire = wire_to(
        b.handle(Input::AppSend {
            to: p0,
            payload: 7,
            now,
        }),
        p0,
    );
    a.handle(Input::Deliver {
        from: p1,
        wire,
        now,
    });
    now += 100;
    a.handle(Input::Tick {
        kind: timers::CHECKPOINT,
        now,
    }); // D1
    assert_eq!(EngineView::stats(&a).checkpoints_delta, 1);

    // Damage the newest frame: the engine can no longer trust its
    // cached image, so the next frame must rebase as a full frame even
    // though the rebase period has not elapsed.
    a.handle(Input::Fault(StorageFault::CorruptLatestCheckpoint));
    now += 100;
    a.handle(Input::Tick {
        kind: timers::CHECKPOINT,
        now,
    });
    assert_eq!(
        EngineView::stats(&a).checkpoints_full,
        2,
        "F0 and the rebase"
    );
    assert_eq!(
        EngineView::stats(&a).checkpoints_delta,
        1,
        "no delta over damage"
    );
}

#[test]
fn per_section_bytes_account_for_every_frame_byte() {
    let p0 = ProcessId(0);
    let p1 = ProcessId(1);
    let mut a = Engine::new(p0, 2, Counter { sum: 0 }, config());
    let mut b = Engine::new(p1, 2, Counter { sum: 0 }, config());
    let mut now = 0;
    a.handle(Input::Start { now });
    b.handle(Input::Start { now });
    // One delivery dirties the state, then the process idles through six
    // checkpoint intervals: F0, then D1 D2 F3 D4 D5 F6. Idle deltas are
    // near-empty; the periodic full rebases re-encode everything.
    now += 100;
    let wire = wire_to(
        b.handle(Input::AppSend {
            to: p0,
            payload: 77,
            now,
        }),
        p0,
    );
    a.handle(Input::Deliver {
        from: p1,
        wire,
        now,
    });
    for _ in 0..6 {
        now += 100;
        a.handle(Input::Tick {
            kind: timers::CHECKPOINT,
            now,
        });
    }
    let s = EngineView::stats(&a);
    assert_eq!(
        s.checkpoints_taken,
        s.checkpoints_full + s.checkpoints_delta
    );
    // Frame overhead: a full frame spends 1 byte on its kind tag, a
    // delta frame 1 + 8 (tag plus base id); everything else is section
    // payload, and the per-section counters must account for it exactly.
    let sections = s.checkpoint_bytes_clock
        + s.checkpoint_bytes_app
        + s.checkpoint_bytes_meta
        + s.checkpoint_bytes_dedup
        + s.checkpoint_bytes_pending;
    let overhead = s.checkpoints_full + 9 * s.checkpoints_delta;
    assert_eq!(
        sections + overhead,
        s.checkpoint_bytes_full + s.checkpoint_bytes_delta
    );
    // Deltas earn their keep: on this workload the average delta frame
    // is smaller than the average full frame.
    assert!(
        s.checkpoint_bytes_delta / s.checkpoints_delta
            < s.checkpoint_bytes_full / s.checkpoints_full
    );
}

/// `a` delivers a message that depends on a state `b` loses in a crash,
/// then receives `b`'s restart token: `a` rolls back. Returns `a` and
/// the effects of the rollback.
fn rolled_back(config: DgConfig) -> (Engine<Counter>, Vec<Fx>) {
    let p0 = ProcessId(0);
    let p1 = ProcessId(1);
    let mut a = Engine::new(p0, 2, Counter { sum: 0 }, config);
    let mut b = Engine::new(p1, 2, Counter { sum: 0 }, config);
    let mut now = 0;
    a.handle(Input::Start { now });
    b.handle(Input::Start { now });
    // A send's stamp is the state before it, so the second send depends
    // on b's state after the first, which no flush makes durable.
    for payload in [1, 2] {
        now += 100;
        let wire = wire_to(
            b.handle(Input::AppSend {
                to: p0,
                payload,
                now,
            }),
            p0,
        );
        if payload == 2 {
            a.handle(Input::Deliver {
                from: p1,
                wire,
                now,
            });
        }
    }
    now += 100;
    a.handle(Input::Tick {
        kind: timers::CHECKPOINT,
        now,
    });
    b.handle(Input::Crash);
    now += 100;
    let token = b
        .handle(Input::Restart { now })
        .into_iter()
        .find_map(|e| match e {
            Effect::Broadcast {
                wire: w @ Wire::Token(_),
            } => Some(w),
            _ => None,
        })
        .expect("a restart announces itself with a token");
    now += 100;
    let effects = a.handle(Input::Deliver {
        from: p1,
        wire: token,
        now,
    });
    assert_eq!(EngineView::stats(&a).rollbacks, 1);
    (a, effects)
}

fn checkpoint_bytes(effects: &[Fx]) -> Vec<u64> {
    effects
        .iter()
        .filter_map(|e| match e {
            Effect::Checkpoint { bytes, .. } => Some(*bytes),
            _ => None,
        })
        .collect()
}

#[test]
fn rollback_checkpoint_is_a_charged_full_frame() {
    // With output commit a rollback pins its post-rollback state in a
    // checkpoint. It is stored and charged like any other frame, so the
    // frame counters still add up.
    let (a, effects) = rolled_back(config().with_gossip(1_000_000));
    let s = EngineView::stats(&a);
    let frame = checkpoint_bytes(&effects);
    assert_eq!(frame.len(), 1, "one frame per rollback");
    assert!(frame[0] > 0);
    assert_eq!(s.checkpoints_full, 2, "F0 and the rollback frame");
    assert_eq!(s.checkpoints_delta, 1, "D1");
    assert_eq!(
        s.checkpoints_taken,
        s.checkpoints_full + s.checkpoints_delta
    );

    // The base protocol takes no checkpoint on an ordinary rollback.
    let (a, effects) = rolled_back(config());
    assert!(checkpoint_bytes(&effects).is_empty());
    let s = EngineView::stats(&a);
    assert_eq!(s.checkpoints_taken, 2, "F0 D1");
    assert_eq!(
        s.checkpoints_taken,
        s.checkpoints_full + s.checkpoints_delta
    );
}
