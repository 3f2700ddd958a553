//! The benchmark's own open-loop client.
//!
//! One worker drives one pipelined connection through a pre-built plan
//! of requests, each with the time it is due. A request is sent when it
//! falls due, whether or not earlier ones were answered, and its latency
//! runs from the due time — not from the send — so a stall anywhere,
//! in the service or in this client, is charged to every request queued
//! behind it. How late the client sent is recorded separately (send
//! lag), as the validity guard on every latency figure.
//!
//! Retries follow the service's own `ServiceClient`: an attempt that
//! sees no answer within the attempt timeout, or is shed, waits a
//! capped, jittered exponential backoff and is re-sent with the same
//! request id; a connection that breaks or goes silent fails over to the
//! next front. A request still unanswered at its deadline is abandoned.
//! Every answer and abandonment lands in a `ServiceJournal`, the witness
//! the service oracle audits.

use std::collections::HashMap;
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use dg_apps::{SvcOp, SvcReply, SvcRequest};
use dg_harness::service_oracle::{ReadRecord, ResponseRecord, ServiceJournal, WriteRecord};
use dg_service::wire::{self, FillRead, FrameBuffer, ServerFrame};

use crate::trace::micros;

/// Retry constants. They are fixed so runs stay comparable.
#[derive(Debug, Clone, Copy)]
pub struct Policy {
    /// How long one attempt waits for its answer.
    pub attempt_timeout: Duration,
    /// First backoff delay; doubles per spent attempt.
    pub backoff_base: Duration,
    /// Backoff ceiling.
    pub backoff_cap: Duration,
    /// Abandon a request this long after it fell due.
    pub deadline: Duration,
}

/// The benchmark's policy: `ServiceClient`'s attempt timeout and
/// backoff, with a deadline short enough to bound a run.
pub const POLICY: Policy = Policy {
    attempt_timeout: Duration::from_millis(400),
    backoff_base: Duration::from_millis(2),
    backoff_cap: Duration::from_millis(128),
    deadline: Duration::from_secs(10),
};

/// One request of the plan.
#[derive(Debug, Clone)]
pub struct Planned {
    /// When the request falls due, microseconds after the client starts.
    pub due_us: u64,
    /// The request itself.
    pub request: SvcRequest,
    /// Its encoded frame, built before the clock starts.
    pub frame: Vec<u8>,
}

impl Planned {
    /// Plan `request` due at `due_us`.
    pub fn new(due_us: u64, request: SvcRequest) -> Planned {
        Planned {
            due_us,
            frame: wire::encode_request(&request),
            request,
        }
    }
}

/// What happened to one planned request, on the client's clock
/// (microseconds after start).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Fate {
    /// First send.
    pub first_send_us: Option<u64>,
    /// Committed answer received; `None` if abandoned or never sent.
    pub ack_us: Option<u64>,
    /// Times the request was put on the wire.
    pub sends: u32,
}

/// One worker's results.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Per planned request, in plan order.
    pub fates: Vec<Fate>,
    /// What the worker witnessed, for the service oracle.
    pub journal: ServiceJournal,
    /// Shed notices received.
    pub sheds: u64,
    /// Unattributable retry hints received.
    pub retry_hints: u64,
    /// Connections given up (broken or silent) for the next front.
    pub failovers: u64,
    /// Replies the session protocol never sends (`Stale`).
    pub protocol_errors: u64,
}

/// Per-request retry state.
#[derive(Debug, Clone, Copy)]
struct Slot {
    last_send: Instant,
    retry_at: Option<Instant>,
    attempts: u32,
    done: bool,
}

/// A worker ready to drive its plan: all bookkeeping is allocated
/// before the clock starts.
pub struct Worker<'a> {
    plan: &'a [Planned],
    index: HashMap<(u64, u64), usize>,
    fronts: Vec<SocketAddr>,
    cursor: usize,
    conn: Option<TcpStream>,
    policy: Policy,
    rng: u64,
}

impl<'a> Worker<'a> {
    /// A worker for `plan` (sorted by due time) that starts on
    /// `fronts[first]` over `conn` — connected already, or `None` to
    /// connect when the clock starts — and fails over along `fronts`.
    pub fn new(
        plan: &'a [Planned],
        fronts: Vec<SocketAddr>,
        first: usize,
        conn: Option<TcpStream>,
        policy: Policy,
        seed: u64,
    ) -> Worker<'a> {
        assert!(!fronts.is_empty(), "a worker needs a front");
        let index = plan
            .iter()
            .enumerate()
            .map(|(i, p)| ((p.request.client, p.request.req), i))
            .collect();
        Worker {
            plan,
            index,
            cursor: first % fronts.len(),
            fronts,
            conn,
            policy,
            rng: seed | 1,
        }
    }

    /// Jittered backoff after `attempts` spent attempts: uniform in
    /// `[nominal / 2, nominal]`, nominal doubling up to the cap.
    fn backoff(&mut self, attempts: u32) -> Duration {
        let nominal = self
            .policy
            .backoff_base
            .saturating_mul(1u32 << attempts.min(16))
            .min(self.policy.backoff_cap);
        let hi = micros(nominal).max(1);
        let lo = (hi / 2).max(1);
        Duration::from_micros(lo + splitmix(&mut self.rng) % (hi - lo + 1))
    }

    fn connect(&mut self) -> Option<TcpStream> {
        let s = TcpStream::connect(self.fronts[self.cursor]).ok()?;
        s.set_nodelay(true).ok()?;
        Some(s)
    }

    /// A front that stops reading must not block the client: a write
    /// that cannot finish within an attempt timeout breaks the
    /// connection.
    fn bound_writes(&self, s: &TcpStream) -> bool {
        s.set_write_timeout(Some(self.policy.attempt_timeout))
            .is_ok()
    }

    fn fail_over(&mut self, out: &mut Outcome) {
        self.conn = None;
        self.cursor = (self.cursor + 1) % self.fronts.len();
        out.failovers += 1;
    }

    /// Drive the plan from `start` until every request is answered or
    /// abandoned.
    #[allow(clippy::too_many_lines)]
    pub fn run(mut self, start: Instant) -> Outcome {
        let plan = self.plan;
        let policy = self.policy;
        let mut out = Outcome {
            fates: vec![Fate::default(); plan.len()],
            ..Outcome::default()
        };
        let mut slots = vec![
            Slot {
                last_send: start,
                retry_at: None,
                attempts: 0,
                done: false,
            };
            plan.len()
        ];
        let due_at = |i: usize| start + Duration::from_micros(plan[i].due_us);
        let hard_stop = plan.last().map_or(start, |p| {
            start + Duration::from_micros(p.due_us) + policy.deadline + Duration::from_secs(5)
        });
        let mut outstanding: Vec<usize> = Vec::with_capacity(4096);
        let mut next = 0usize;
        let mut sendbuf: Vec<u8> = Vec::with_capacity(64 * 1024);
        let mut frames = FrameBuffer::new();
        let mut last_frame = start;
        let mut read_timeout: Option<Duration> = None;
        let mut conn = self.conn.take().filter(|s| self.bound_writes(s));

        while next < plan.len() || !outstanding.is_empty() {
            let now = Instant::now();
            if now > hard_stop {
                for &i in &outstanding {
                    abandon(&mut out, &plan[i]);
                }
                break;
            }

            // 1. Send everything that has fallen due.
            while next < plan.len() && due_at(next) <= now {
                sendbuf.extend_from_slice(&plan[next].frame);
                slots[next].last_send = now;
                out.fates[next].first_send_us = Some(micros(now - start));
                out.fates[next].sends = 1;
                outstanding.push(next);
                next += 1;
            }

            // 2. Retire answered requests, abandon the hopeless, back
            //    off spent attempts and re-send those whose backoff ran.
            let mut k = 0;
            while k < outstanding.len() {
                let i = outstanding[k];
                if slots[i].done {
                    outstanding.swap_remove(k);
                    continue;
                }
                if now >= due_at(i) + policy.deadline {
                    slots[i].done = true;
                    abandon(&mut out, &plan[i]);
                    outstanding.swap_remove(k);
                    continue;
                }
                match slots[i].retry_at {
                    Some(at) if at <= now => {
                        sendbuf.extend_from_slice(&plan[i].frame);
                        let s = &mut slots[i];
                        s.retry_at = None;
                        s.last_send = now;
                        s.attempts += 1;
                        out.fates[i].sends += 1;
                    }
                    None if now >= slots[i].last_send + policy.attempt_timeout => {
                        let wait = self.backoff(slots[i].attempts);
                        slots[i].retry_at = Some(now + wait);
                    }
                    _ => {}
                }
                k += 1;
            }

            // 3. Connect (or fail over) and put the batch on the wire.
            //    A new connection re-sends everything outstanding: the
            //    old one's answers are lost with it.
            if conn.is_none() {
                let Some(s) = self.connect().filter(|s| self.bound_writes(s)) else {
                    self.fail_over(&mut out);
                    std::thread::sleep(Duration::from_millis(2));
                    continue;
                };
                sendbuf.clear();
                for &i in &outstanding {
                    sendbuf.extend_from_slice(&plan[i].frame);
                    if slots[i].last_send < now {
                        out.fates[i].sends += 1;
                    }
                    slots[i].last_send = now;
                    slots[i].retry_at = None;
                }
                frames = FrameBuffer::new();
                read_timeout = None;
                last_frame = now;
                conn = Some(s);
            }
            let s = conn.as_mut().expect("connected above");
            if !sendbuf.is_empty() {
                let written = s.write_all(&sendbuf);
                sendbuf.clear();
                if written.is_err() {
                    conn = None;
                    self.fail_over(&mut out);
                    continue;
                }
            }

            // 4. Wait for answers until the next request falls due (at
            //    most 1 ms, so retries and deadlines stay on time).
            let wait = if next < plan.len() {
                due_at(next).saturating_duration_since(Instant::now())
            } else {
                Duration::from_millis(1)
            }
            .clamp(Duration::from_micros(100), Duration::from_millis(1));
            // A stream without a read timeout would block until the
            // next byte, however late: always set one, and re-set it
            // only when it moves by more than 100 µs.
            if read_timeout.is_none_or(|t| wait.abs_diff(t) > Duration::from_micros(100)) {
                if s.set_read_timeout(Some(wait)).is_err() {
                    conn = None;
                    self.fail_over(&mut out);
                    continue;
                }
                read_timeout = Some(wait);
            }
            let mut broken = false;
            match frames.fill(s) {
                Ok(FillRead::Data) => {
                    let at = Instant::now();
                    last_frame = at;
                    loop {
                        let body = match frames.next_frame() {
                            Ok(Some(body)) => body,
                            Ok(None) => break,
                            Err(_) => {
                                broken = true;
                                break;
                            }
                        };
                        match wire::decode_server(body.to_vec()) {
                            Ok(ServerFrame::Reply { client, req, reply }) => {
                                out.journal.responses.push(ResponseRecord {
                                    client,
                                    req,
                                    summary: reply_summary(reply),
                                });
                                if let Some(&i) = self.index.get(&(client, req)) {
                                    if !slots[i].done {
                                        slots[i].done = true;
                                        out.fates[i].ack_us = Some(micros(at - start));
                                        settle(&mut out, &plan[i].request, reply);
                                    }
                                }
                            }
                            Ok(ServerFrame::Shed { client, req }) => {
                                out.sheds += 1;
                                if let Some(&i) = self.index.get(&(client, req)) {
                                    if !slots[i].done && slots[i].retry_at.is_none() {
                                        let wait = self.backoff(slots[i].attempts);
                                        slots[i].retry_at = Some(at + wait);
                                    }
                                }
                            }
                            // Carries no request id, so no in-flight
                            // request can be charged with it; the
                            // attempt timeout covers it.
                            Ok(ServerFrame::Retry) => out.retry_hints += 1,
                            Err(_) => {
                                broken = true;
                                break;
                            }
                        }
                    }
                }
                Ok(FillRead::IdleTimeout) => {
                    // A front that answers nothing for a whole attempt
                    // timeout while requests wait is treated as gone.
                    let now = Instant::now();
                    broken = !outstanding.is_empty()
                        && now.duration_since(last_frame) >= policy.attempt_timeout;
                }
                Ok(FillRead::Eof) | Err(_) => broken = true,
            }
            if broken {
                conn = None;
                self.fail_over(&mut out);
            }
        }
        out
    }
}

/// SplitMix64 step: the jitter source, seeded per worker.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Condense a reply into one comparable word, as the service's own
/// clients do, so the oracle's determinism check compares like with
/// like.
fn reply_summary(reply: SvcReply) -> u64 {
    match reply {
        SvcReply::Written => 0,
        SvcReply::NotFound => 1,
        SvcReply::Stale => 2,
        SvcReply::Value(v) => v.wrapping_mul(5).wrapping_add(3),
    }
}

/// Record an acknowledged request in the journal.
fn settle(out: &mut Outcome, request: &SvcRequest, reply: SvcReply) {
    let (client, req, key) = (request.client, request.req, request.op.key());
    match (request.op, reply) {
        (_, SvcReply::Stale) => out.protocol_errors += 1,
        (SvcOp::Put { value, .. }, _) => out.journal.acked_writes.push(WriteRecord {
            client,
            req,
            key,
            value: Some(value),
        }),
        (SvcOp::Del { .. }, _) => out.journal.acked_writes.push(WriteRecord {
            client,
            req,
            key,
            value: None,
        }),
        (SvcOp::Get { .. }, reply) => out.journal.observed_gets.push(ReadRecord {
            client,
            req,
            key,
            value: match reply {
                SvcReply::Value(v) => Some(v),
                _ => None,
            },
        }),
    }
}

/// Record an abandoned request: an issued write's fate is indeterminate,
/// which the oracle treats as a wildcard.
fn abandon(out: &mut Outcome, p: &Planned) {
    let r = &p.request;
    let value = match r.op {
        SvcOp::Put { value, .. } => Some(value),
        SvcOp::Del { .. } => None,
        SvcOp::Get { .. } => return,
    };
    out.journal.unacked_writes.push(WriteRecord {
        client: r.client,
        req: r.req,
        key: r.op.key(),
        value,
    });
}

#[cfg(test)]
mod tests {
    use std::net::TcpListener;
    use std::thread;

    use super::*;

    /// A one-connection server that answers every request with
    /// `Written`, except that once `stall_after` has passed since its
    /// first request it stops for `stall` before answering anything more.
    fn stalling_server(
        stall_after: Duration,
        stall: Duration,
    ) -> (SocketAddr, thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let handle = thread::spawn(move || {
            let (mut s, _) = listener.accept().expect("accept");
            let mut frames = FrameBuffer::new();
            let mut first: Option<Instant> = None;
            let mut stalled = false;
            let mut reply = Vec::new();
            loop {
                match frames.fill(&mut s) {
                    Ok(FillRead::Data) => {}
                    Ok(FillRead::IdleTimeout) => continue,
                    Ok(FillRead::Eof) | Err(_) => return,
                }
                reply.clear();
                while let Ok(Some(body)) = frames.next_frame() {
                    let r = wire::decode_request_slice(body).expect("request");
                    let t0 = *first.get_or_insert_with(Instant::now);
                    if !stalled && t0.elapsed() >= stall_after {
                        stalled = true;
                        thread::sleep(stall);
                    }
                    wire::encode_server_into(
                        &ServerFrame::Reply {
                            client: r.client,
                            req: r.req,
                            reply: SvcReply::Written,
                        },
                        &mut reply,
                    );
                }
                if s.write_all(&reply).is_err() {
                    return;
                }
            }
        });
        (addr, handle)
    }

    /// One put every millisecond for `ms` milliseconds.
    fn steady_plan(ms: u64) -> Vec<Planned> {
        (0..ms)
            .map(|i| {
                Planned::new(
                    i * 1_000,
                    SvcRequest {
                        client: 1,
                        req: i + 1,
                        op: SvcOp::Put {
                            key: 1,
                            value: i + 1,
                        },
                    },
                )
            })
            .collect()
    }

    fn latency_us(p: &Planned, f: &Fate) -> u64 {
        f.ack_us.expect("answered") - p.due_us
    }

    #[test]
    fn a_server_stall_is_charged_to_the_requests_queued_behind_it() {
        let stall = Duration::from_millis(150);
        let (addr, server) = stalling_server(Duration::from_millis(50), stall);
        let plan = steady_plan(300);
        let out = Worker::new(&plan, vec![addr], 0, None, POLICY, 7).run(Instant::now());
        server.join().expect("server");
        assert!(out.fates.iter().all(|f| f.ack_us.is_some()), "all answered");
        // The client kept sending on schedule through the stall...
        for (p, f) in plan.iter().zip(&out.fates) {
            let lag = f.first_send_us.expect("sent") - p.due_us;
            assert!(
                lag < 20_000,
                "request due at {} µs sent {lag} µs late",
                p.due_us
            );
        }
        // ...and a request due early in the stall waited for its end:
        // the one due at 60 ms is answered no earlier than ~200 ms.
        let queued = &plan[60];
        assert!(latency_us(queued, &out.fates[60]) >= 130_000);
        // Requests due after the stall are fast again.
        assert!(latency_us(&plan[290], &out.fates[290]) < 30_000);
        // The journal holds every acknowledged write.
        assert_eq!(out.journal.acked_writes.len(), plan.len());
    }

    #[test]
    fn a_late_client_is_charged_from_the_due_time() {
        // The client starts 100 ms behind its schedule, as if it had
        // stalled itself: every request due in that window is sent late,
        // and its latency must include the lateness.
        let (addr, server) = stalling_server(Duration::from_secs(3600), Duration::ZERO);
        let plan = steady_plan(150);
        let start = Instant::now() - Duration::from_millis(100);
        let out = Worker::new(&plan, vec![addr], 0, None, POLICY, 7).run(start);
        server.join().expect("server");
        let first = &out.fates[0];
        let lag = first.first_send_us.expect("sent") - plan[0].due_us;
        assert!(
            lag >= 100_000,
            "the send lag shows the client's lateness ({lag} µs)"
        );
        assert!(
            latency_us(&plan[0], first) >= lag,
            "latency runs from the due time"
        );
        assert!(latency_us(&plan[149], &out.fates[149]) < 30_000);
    }
}
