//! Eager frontier push: output commit waits on flushes, not on gossip.
//!
//! Each flush sends the process's new stable entry to every peer that
//! received an `App` message from it since the previous push, so an
//! output at the receiver commits one flush and one hop after its
//! dependency became durable. These tests drive engines by hand, with
//! no runtime: the gossip timer is never fired, so any commit they see
//! came from a flush.

use dg_core::engine::{timers, Effect, Engine, Input, ProtocolEngine};
use dg_core::{Application, DgConfig, Effects, EngineView, Entry, ProcessId, Wire};

/// Emits every received value as an external output; sends nothing.
#[derive(Clone)]
struct Echo;

impl Application for Echo {
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
        Effects::output(*msg)
    }
}

type Eff = Effect<Wire<u64>, u64>;

const A: ProcessId = ProcessId(0);
const B: ProcessId = ProcessId(1);
const C: ProcessId = ProcessId(2);

/// Output commit on, with a gossip interval no test ever reaches.
/// `tree` picks the periodic gossip's shape, which a push must not
/// depend on.
fn served(grouped: bool, tree: bool) -> DgConfig {
    DgConfig::fast_test()
        .with_gossip(1_000_000)
        .with_grouped_commit(grouped)
        .with_tree_dissemination(tree)
}

/// Every combination of grouped commit and gossip tree.
fn all_modes() -> [(bool, bool); 4] {
    [(true, true), (true, false), (false, true), (false, false)]
}

/// `n` started engines.
fn cluster(n: usize, config: DgConfig) -> Vec<Engine<Echo>> {
    (0..n)
        .map(|p| {
            let mut e = Engine::new(ProcessId(p as u16), n, Echo, config);
            e.handle(Input::Start { now: 0 });
            e
        })
        .collect()
}

fn flush(e: &mut Engine<Echo>, now: u64) -> Vec<Eff> {
    e.handle(Input::Tick {
        kind: timers::FLUSH,
        now,
    })
}

fn request(e: &mut Engine<Echo>, to: ProcessId, payload: u64, now: u64) -> Wire<u64> {
    let effects = e.handle(Input::AppSend { to, payload, now });
    effects
        .into_iter()
        .find_map(|x| match x {
            Effect::Send { wire, .. } => Some(wire),
            _ => None,
        })
        .expect("the request leaves")
}

/// The `Frontier` pushes among `effects`, as (destination, subject).
fn pushes(effects: &[Eff]) -> Vec<(ProcessId, ProcessId)> {
    effects
        .iter()
        .filter_map(|x| match x {
            Effect::Send {
                to,
                wire: Wire::Frontier(p, _),
                control,
            } => {
                assert!(control, "a push travels on the control plane");
                Some((*to, *p))
            }
            _ => None,
        })
        .collect()
}

fn commits(effects: &[Eff]) -> Vec<u64> {
    effects
        .iter()
        .filter_map(|x| match x {
            Effect::Commit { outputs, .. } => Some(outputs.clone()),
            _ => None,
        })
        .flatten()
        .collect()
}

/// The push from `from`'s flush, delivered to `to`.
fn deliver_push(
    to: &mut Engine<Echo>,
    from: ProcessId,
    flush_effects: &[Eff],
    now: u64,
) -> Vec<Eff> {
    let wire = flush_effects
        .iter()
        .find_map(|x| match x {
            Effect::Send {
                to: dest,
                wire: w @ Wire::Frontier(..),
                ..
            } if *dest == to.id() => Some(w.clone()),
            _ => None,
        })
        .expect("the flush pushes to the request's destination");
    to.handle(Input::Deliver { from, wire, now })
}

#[test]
fn request_output_commits_after_both_flushes_without_gossip() {
    // Either flush may come first; the output commits at the second.
    // With two processes periodic gossip would never use the tree.
    for ((grouped, tree), n, a_flushes_first) in all_modes()
        .into_iter()
        .flat_map(|m| [(m, 2), (m, 3)])
        .flat_map(|(m, n)| [(m, n, true), (m, n, false)])
    {
        let case = format!("grouped={grouped} tree={tree} n={n} a_flushes_first={a_flushes_first}");
        let mut e = cluster(n, served(grouped, tree));
        let wire = request(&mut e[0], B, 7, 10);
        e[1].handle(Input::Deliver {
            from: A,
            wire,
            now: 20,
        });
        assert_eq!(e[1].pending_outputs(), 1);
        let released = if a_flushes_first {
            let a_flush = flush(&mut e[0], 30);
            let on_push = deliver_push(&mut e[1], A, &a_flush, 40);
            assert!(commits(&on_push).is_empty(), "{case}: B not durable");
            commits(&flush(&mut e[1], 50))
        } else {
            assert!(
                commits(&flush(&mut e[1], 30)).is_empty(),
                "{case}: A not durable"
            );
            let a_flush = flush(&mut e[0], 40);
            commits(&deliver_push(&mut e[1], A, &a_flush, 50))
        };
        assert_eq!(released, vec![7], "{case}");
        assert_eq!(e[1].pending_outputs(), 0, "{case}");
        assert_eq!(e[1].stats().outputs_committed, 1, "{case}");
    }
}

#[test]
fn grouped_commit_sweeps_on_at_most_one_push_per_flush_interval() {
    for (grouped, tree) in all_modes() {
        let case = format!("grouped={grouped} tree={tree}");
        let mut e = cluster(3, served(grouped, tree));
        // C holds one output from A and one from B, and its own state
        // is durable: only the senders' flushes are missing.
        for (i, from, payload) in [(0, A, 1), (1, B, 2)] {
            let wire = request(&mut e[i], C, payload, 10);
            e[2].handle(Input::Deliver {
                from,
                wire,
                now: 20,
            });
        }
        assert!(commits(&flush(&mut e[2], 30)).is_empty(), "{case}");
        let a_flush = flush(&mut e[0], 40);
        let b_flush = flush(&mut e[1], 40);
        assert_eq!(commits(&deliver_push(&mut e[2], A, &a_flush, 50)), vec![1]);
        let on_second = commits(&deliver_push(&mut e[2], B, &b_flush, 51));
        if grouped {
            // The interval's sweep is spent: the flush tick runs this one.
            assert!(on_second.is_empty(), "{case}");
            assert_eq!(commits(&flush(&mut e[2], 60)), vec![2], "{case}");
        } else {
            assert_eq!(on_second, vec![2], "{case}");
        }
        assert_eq!(e[2].pending_outputs(), 0, "{case}");
    }
}

#[test]
fn pushes_go_only_to_app_destinations_and_only_after_sends() {
    let mut e = cluster(4, served(true, true));
    request(&mut e[0], B, 1, 10);
    request(&mut e[0], B, 2, 11);
    request(&mut e[0], C, 3, 12);
    let first = flush(&mut e[0], 20);
    assert_eq!(
        pushes(&first),
        vec![(B, A), (C, A)],
        "one push per distinct destination"
    );
    assert_eq!(e[0].stats().frontier_pushes, 2);

    // No send since the last push: the own entry did not advance and
    // nothing is pushed.
    assert!(pushes(&flush(&mut e[0], 30)).is_empty());
    assert_eq!(e[0].stats().frontier_pushes, 2);

    // A new send re-arms exactly its destination.
    request(&mut e[0], C, 4, 40);
    assert_eq!(pushes(&flush(&mut e[0], 50)), vec![(C, A)]);
    assert_eq!(e[0].stats().frontier_pushes, 3);
}

#[test]
fn base_protocol_never_pushes() {
    let mut e = cluster(3, DgConfig::fast_test());
    request(&mut e[0], B, 1, 10);
    request(&mut e[0], C, 2, 11);
    assert!(pushes(&flush(&mut e[0], 20)).is_empty());
    assert_eq!(e[0].stats().frontier_pushes, 0);
}

#[test]
fn crash_clears_the_pending_pushes() {
    let mut e = cluster(3, served(true, true));
    request(&mut e[0], B, 1, 10);
    e[0].handle(Input::Crash);
    e[0].handle(Input::Restart { now: 20 });
    assert!(
        pushes(&flush(&mut e[0], 30)).is_empty(),
        "a send lost in the crash earns no push"
    );
    assert_eq!(e[0].stats().frontier_pushes, 0);
}

#[test]
fn own_flush_alone_releases_an_output() {
    // The remote dependency becomes stable first, through a push, or
    // through a gossip vector (swept at once without grouped commit).
    // B's own flush is then the only event left, and no remote frontier
    // advances after it: the flush itself must sweep.
    for ((grouped, tree), by_push) in all_modes()
        .into_iter()
        .flat_map(|m| [(m, true), (m, false)])
    {
        let case = format!("grouped={grouped} tree={tree} by_push={by_push}");
        let mut e = cluster(3, served(grouped, tree));
        let wire = request(&mut e[0], B, 9, 10);
        e[1].handle(Input::Deliver {
            from: A,
            wire,
            now: 20,
        });
        let a_flush = flush(&mut e[0], 30);
        let learned = if by_push {
            deliver_push(&mut e[1], A, &a_flush, 40)
        } else {
            let mut vector = vec![Entry::ZERO; 3];
            vector[A.index()] = a_stable(&a_flush);
            e[1].handle(Input::Deliver {
                from: A,
                wire: Wire::FrontierVec(vector),
                now: 40,
            })
        };
        assert!(commits(&learned).is_empty(), "{case}");
        assert_eq!(e[1].pending_outputs(), 1, "{case}");
        assert_eq!(commits(&flush(&mut e[1], 50)), vec![9], "{case}");
    }
}

#[test]
fn own_checkpoint_alone_releases_an_output() {
    // As above, but B's own states become durable through a checkpoint
    // (which flushes the log) instead of a flush.
    let mut e = cluster(3, served(true, true));
    let wire = request(&mut e[0], B, 9, 10);
    e[1].handle(Input::Deliver {
        from: A,
        wire,
        now: 20,
    });
    let a_flush = flush(&mut e[0], 30);
    assert!(commits(&deliver_push(&mut e[1], A, &a_flush, 40)).is_empty());
    let on_checkpoint = e[1].handle(Input::Tick {
        kind: timers::CHECKPOINT,
        now: 50,
    });
    assert_eq!(commits(&on_checkpoint), vec![9]);
}

/// The stable entry A's flush pushed.
fn a_stable(flush_effects: &[Eff]) -> Entry {
    flush_effects
        .iter()
        .find_map(|x| match x {
            Effect::Send {
                wire: Wire::Frontier(_, entry),
                ..
            } => Some(*entry),
            _ => None,
        })
        .expect("A's flush pushes its entry")
}

/// The token a restart broadcasts.
fn token_of(restart_effects: &[Eff]) -> Wire<u64> {
    restart_effects
        .iter()
        .find_map(|x| match x {
            Effect::Broadcast {
                wire: w @ Wire::Token(_),
            } => Some(w.clone()),
            _ => None,
        })
        .expect("a restart broadcasts its token")
}

#[test]
fn rollback_never_reuses_a_label_announced_stable() {
    let mut e = cluster(3, served(true, true));
    // B depends on a state of C that C's crash will lose (a send's
    // stamp is the state before it, so the lost state is C's second).
    request(&mut e[2], A, 4, 9);
    let wire = request(&mut e[2], B, 5, 10);
    e[1].handle(Input::Deliver {
        from: C,
        wire,
        now: 20,
    });
    // B's flush makes that state durable, and gossip announces it.
    flush(&mut e[1], 30);
    let gossip = e[1].handle(Input::Tick {
        kind: timers::GOSSIP,
        now: 35,
    });
    let announced = gossip
        .iter()
        .find_map(|x| match x {
            Effect::Send {
                wire: Wire::FrontierVec(v),
                ..
            } => Some(v[B.index()]),
            _ => None,
        })
        .expect("tree gossip announces B's stable entry");
    e[2].handle(Input::Crash);
    let token = token_of(&e[2].handle(Input::Restart { now: 40 }));
    e[1].handle(Input::Deliver {
        from: C,
        wire: token,
        now: 50,
    });
    assert_eq!(e[1].stats().rollbacks, 1, "B was an orphan of C's failure");
    let after = e[1].clock().own_entry();
    assert!(
        after > announced,
        "the post-rollback state {after:?} reuses announced label {announced:?}"
    );
    // The post-rollback label is durable: a crash right away restores it.
    e[1].handle(Input::Crash);
    let Wire::Token(t) = token_of(&e[1].handle(Input::Restart { now: 60 })) else {
        unreachable!()
    };
    assert!(
        t.entry >= after,
        "restart restored {:?}, below the post-rollback {after:?}",
        t.entry
    );
}
