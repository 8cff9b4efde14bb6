//! Open-loop UDP load generator for `serve-10k-live`.
//!
//! Independent clients make an open loop: request `i` is due at
//! `start + i / rate` whether or not earlier replies came back, so a
//! stall in the server shows up as queueing delay on the requests
//! behind it. Two client threads share one socket: a sender that
//! sleeps until each due time (and sends at once when it is already
//! late), and a receiver blocked in `recv_from`, which also re-sends a
//! request left without a reply for [`RETRY_AFTER`]. Latency is timed from
//! each request's *due* time; the sender's own lateness is reported
//! separately, so a reader can tell the client's delay from the
//! server's.

use crate::spans::Tracer;
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};
use std::collections::{BTreeSet, VecDeque};
use std::net::{SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Query verbs, in the loadgen mix's order.
pub const VERBS: [&str; 4] = ["ROUTE", "LINKS", "REACH", "INFO"];

/// A seeded request trace: the loadgen verb mix (70% ROUTE, 15% LINKS,
/// 10% REACH, 5% INFO) over uniformly drawn nodes, request `i` carrying
/// id `i`. A pure function of its arguments.
pub fn trace(seed: u64, stream: u64, count: usize, nodes: usize) -> Vec<(usize, String)> {
    let mut rng = SmallRng::seed_from_u64(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    (0..count)
        .map(|id| {
            let draw = rng.random_range(0..100u32);
            let node = rng.random_range(0..nodes);
            let verb = match draw {
                0..=69 => 0,
                70..=84 => 1,
                85..=94 => 2,
                _ => 3,
            };
            let text = if verb == 3 {
                format!("{id} INFO")
            } else {
                format!("{id} {} {node}", VERBS[verb])
            };
            (verb, text)
        })
        .collect()
}

/// What one open-loop phase observed.
#[derive(Default)]
pub struct Phase {
    /// Requests offered.
    pub requests: u64,
    /// Latency of each `OK` reply from its request's due time, µs.
    pub latency_us: Vec<f64>,
    /// How late the sender put each request on the wire, µs.
    pub late_us: Vec<f64>,
    /// Replies that were not `<id> OK ...` for a known id.
    pub errors: u64,
    /// Requests with no reply after every retry.
    pub lost: u64,
    /// Requests sent again because no reply came within
    /// [`RETRY_AFTER`].
    pub retries: u64,
    /// Distinct `step=` values seen in replies.
    pub steps: BTreeSet<u64>,
}

/// A request with no reply this long after it was sent is sent again,
/// as a UDP client must: the server drops requests when its socket
/// buffer overflows during a step burst. Its latency still counts from
/// the first due time, so a retried request lands in the tail.
pub const RETRY_AFTER: Duration = Duration::from_millis(100);
/// Retries per request before it counts as lost.
const MAX_RETRIES: u32 = 2;
/// Request spans recorded in a traced run: one request in this many.
const SPAN_SAMPLE: usize = 16;
/// Send-time slot of a request not yet sent.
const UNSENT: u64 = u64::MAX;

/// One reply: when it arrived, whether it was `OK` with a step, and
/// the step.
type Reply = (Instant, bool, u64);

/// Parses `<id> OK step=<s> ...`; `None` when the id is unreadable.
fn parse_reply(text: &str) -> Option<(usize, bool, u64)> {
    let mut parts = text.split_ascii_whitespace();
    let id = parts.next()?.parse::<usize>().ok()?;
    let ok = parts.next() == Some("OK");
    let step = parts.next().and_then(|t| t.strip_prefix("step=")).and_then(|s| s.parse().ok());
    Some((id, ok && step.is_some(), step.unwrap_or(0)))
}

/// Offers `requests` to `addr` at `rate` per second.
///
/// # Errors
///
/// Socket set-up failures.
pub fn run(
    addr: SocketAddr,
    requests: &[(usize, String)],
    rate: f64,
    tracer: &Tracer,
    parent: u64,
) -> std::io::Result<Phase> {
    let socket = UdpSocket::bind("127.0.0.1:0")?;
    let receiver = socket.try_clone()?;
    // The read timeout only wakes the receiver to retry and to notice
    // the end of the phase; replies are taken as they arrive.
    receiver.set_read_timeout(Some(Duration::from_millis(20)))?;
    let n = requests.len();
    let start = Instant::now() + Duration::from_millis(5);
    let due = |i: usize| start + Duration::from_secs_f64(i as f64 / rate);
    // Nanoseconds after `start` at which each request was first sent.
    let sent_at: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(UNSENT)).collect();
    let (late_us, (replies, retries)) = std::thread::scope(|scope| {
        let sender = scope.spawn(|| {
            let mut late = Vec::with_capacity(n);
            for (i, (_, text)) in requests.iter().enumerate() {
                let due = due(i);
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                let now = Instant::now();
                late.push(now.saturating_duration_since(due).as_secs_f64() * 1e6);
                // A failed send is retried like a dropped one.
                let _ = socket.send_to(text.as_bytes(), addr);
                // Release, paired with the receiver's Acquire: a request
                // it sees as sent has really been handed to the kernel.
                let nanos = now.saturating_duration_since(start).as_nanos() as u64;
                sent_at[i].store(nanos, Ordering::Release);
            }
            late
        });
        let recv = scope.spawn(|| {
            let mut got: Vec<Option<Reply>> = vec![None; n];
            let mut received = 0usize;
            // Requests before `scan` have had their first-retry check.
            let mut scan = 0usize;
            // Retried requests in resend order: (id, resent at, retries).
            let mut pending: VecDeque<(usize, Instant, u32)> = VecDeque::new();
            let mut retries = 0u64;
            let mut buf = [0u8; 2048];
            while received < n {
                if let Ok((len, _)) = receiver.recv_from(&mut buf) {
                    let at = Instant::now();
                    let text = std::str::from_utf8(&buf[..len]).unwrap_or("");
                    if let Some((id, ok, step)) = parse_reply(text) {
                        if let Some(slot @ None) = got.get_mut(id) {
                            received += 1;
                            *slot = Some((at, ok, step));
                        }
                    }
                }
                let now = Instant::now();
                let mut resend: Vec<(usize, u32)> = Vec::new();
                while scan < n {
                    let sent = sent_at[scan].load(Ordering::Acquire);
                    if sent == UNSENT || start + Duration::from_nanos(sent) + RETRY_AFTER > now {
                        break;
                    }
                    if got[scan].is_none() {
                        resend.push((scan, 1));
                    }
                    scan += 1;
                }
                while let Some(&(id, at, attempt)) = pending.front() {
                    if at + RETRY_AFTER > now {
                        break;
                    }
                    pending.pop_front();
                    if got[id].is_none() && attempt < MAX_RETRIES {
                        resend.push((id, attempt + 1));
                    }
                }
                for (id, attempt) in resend {
                    let _ = receiver.send_to(requests[id].1.as_bytes(), addr);
                    pending.push_back((id, now, attempt));
                    retries += 1;
                }
                // Every request was sent, waited for, and retried.
                if scan == n && pending.is_empty() {
                    break;
                }
            }
            (got, retries)
        });
        let late = sender.join().expect("sender thread panicked");
        let got = recv.join().expect("receiver thread panicked");
        (late, got)
    });
    let mut phase = Phase { requests: n as u64, late_us, retries, ..Phase::default() };
    for (i, reply) in replies.iter().enumerate() {
        match reply {
            None => phase.lost += 1,
            Some((at, true, step)) => {
                let due = due(i);
                phase.latency_us.push(at.saturating_duration_since(due).as_secs_f64() * 1e6);
                phase.steps.insert(*step);
                if i % SPAN_SAMPLE == 0 {
                    tracer.record(
                        &format!("serve.query.{}", VERBS[requests[i].0]),
                        parent,
                        due,
                        *at,
                    );
                }
            }
            Some(_) => phase.errors += 1,
        }
    }
    Ok(phase)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_is_a_pure_function_of_its_seed() {
        let a = trace(7, 1, 5_000, 10_000);
        assert_eq!(a, trace(7, 1, 5_000, 10_000));
        assert_ne!(a, trace(8, 1, 5_000, 10_000));
        assert_ne!(a, trace(7, 2, 5_000, 10_000));
        for (i, (verb, text)) in a.iter().enumerate() {
            assert!(text.starts_with(&format!("{i} {}", VERBS[*verb])), "{text}");
        }
    }

    #[test]
    fn trace_follows_the_loadgen_mix() {
        let t = trace(3, 0, 20_000, 100);
        let share = |v: usize| t.iter().filter(|(verb, _)| *verb == v).count() as f64 / 20_000.0;
        assert!((share(0) - 0.70).abs() < 0.02);
        assert!((share(1) - 0.15).abs() < 0.02);
        assert!((share(2) - 0.10).abs() < 0.02);
        assert!((share(3) - 0.05).abs() < 0.02);
    }

    #[test]
    fn replies_parse_by_id_status_and_step() {
        assert_eq!(parse_reply("7 OK step=12 topo=3 seq=4 reach 1"), Some((7, true, 12)));
        assert_eq!(parse_reply("7 ERR unknown verb"), Some((7, false, 0)));
        assert_eq!(parse_reply("x OK step=1"), None);
    }

    /// A server that drops the first copy of every request: each one is
    /// answered after one retry, so nothing is lost.
    #[test]
    fn a_dropped_request_is_retried_not_lost() {
        let server = UdpSocket::bind("127.0.0.1:0").unwrap();
        server.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
        let addr = server.local_addr().unwrap();
        let requests = trace(1, 0, 20, 10);
        let answering = std::thread::spawn(move || {
            let mut seen = std::collections::HashSet::new();
            let mut buf = [0u8; 256];
            let mut answered = 0;
            while answered < 20 {
                let (len, peer) = server.recv_from(&mut buf).expect("request within 2 s");
                let text = std::str::from_utf8(&buf[..len]).unwrap();
                let id = text.split_whitespace().next().unwrap().to_string();
                if !seen.insert(id.clone()) {
                    server.send_to(format!("{id} OK step=1 x").as_bytes(), peer).unwrap();
                    answered += 1;
                }
            }
        });
        let off = Tracer::new(false, String::new());
        let phase = run(addr, &requests, 1_000.0, &off, 0).unwrap();
        answering.join().unwrap();
        assert_eq!((phase.requests, phase.lost, phase.errors, phase.retries), (20, 0, 0, 20));
        assert!(phase.latency_us.iter().all(|&us| us >= RETRY_AFTER.as_micros() as f64));
    }

    #[test]
    fn every_request_parses_on_the_wire() {
        for (_, text) in trace(11, 0, 1_000, 50) {
            assert!(agentnet_serve::wire::parse(&text).is_ok(), "{text}");
        }
    }
}
