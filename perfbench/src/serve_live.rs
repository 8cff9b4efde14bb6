//! `serve-10k-live`: an in-process `Server` on the 10k preset, stepping
//! continuously while an open-loop client offers the loadgen verb mix
//! at two fixed rates.
//!
//! `radio` and `core` run here on a step thread that shares the cores
//! with the query workers and the client, so a change that speeds up
//! stepping by taking more cores can make queries slower. `serve` is
//! measured only here.

use crate::loadgen::{self, Phase};
use crate::lockstep::{self, Lockstep};
use crate::machine;
use crate::out::Out;
use crate::spans::{Tracer, ROOT};
use crate::stats::Dist;
use crate::Args;
use agentnet_baselines::zoo::{build_protocol, ZooParams};
use agentnet_core::routing::{ProtocolKind, RouteIndex};
use agentnet_engine::{Metrics, Step};
use agentnet_radio::NetworkBuilder;
use agentnet_serve::wire::{self, Request};
use agentnet_serve::{MapSnapshot, ServeConfig, Server, SnapshotCell};
use std::collections::BTreeSet;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Nodes in the scaled preset.
pub const NODES: usize = 10_000;
/// Steps before serving begins.
const WARMUP_STEPS: u64 = 50;
/// Pause after each serving step.
const STEP_INTERVAL: Duration = Duration::from_millis(100);
/// Server start-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Offered rates, requests per second. `HEAVY` stays below what two
/// shared cores sustain: at 20 000/s a busy neighbour made the server's
/// socket buffer overflow (up to 0.75% of requests retried) and the p99
/// jump five-fold, so the tail measured the neighbour, not the program.
const LIGHT: f64 = 5_000.0;
const HEAVY: f64 = 10_000.0;
/// Steps of the replica's traced window.
const REPLICA_STEPS: u64 = 100;
/// Calls timed per serve-layer microtiming.
const TIMED_CALLS: usize = 20_000;

fn config(seed: u64, metrics: Metrics) -> ServeConfig {
    ServeConfig {
        nodes: NODES,
        protocol: ProtocolKind::Agents,
        params: ZooParams::default(),
        seed,
        warmup_steps: WARMUP_STEPS,
        steps: u64::MAX,
        step_interval: STEP_INTERVAL,
        query_threads: machine::nproc(),
        metrics,
        ..ServeConfig::default()
    }
}

/// Runs one open-loop phase of `seconds` at `rate` against `server`.
fn phase(
    server: &Server,
    seed: u64,
    stream: u64,
    rate: f64,
    seconds: f64,
    tracer: &Tracer,
    name: &str,
) -> Result<Phase, String> {
    let requests = loadgen::trace(seed, stream, (rate * seconds).ceil() as usize, NODES);
    let span = tracer.begin(name, ROOT);
    let result = loadgen::run(server.udp_addr(), &requests, rate, tracer, span.id);
    tracer.end(span);
    result.map_err(|e| format!("{name}: client socket failed: {e}"))
}

/// Counts a phase's operations and failures.
fn check_phase(out: &mut Out, name: &str, p: &Phase) {
    out.attempt(p.requests);
    out.fail(p.errors, format!("{name}: {} error or malformed replies", p.errors));
    out.fail(p.lost, format!("{name}: {} requests got no reply", p.lost));
}

fn latency(p: &Phase) -> Dist {
    Dist::new(p.latency_us.clone())
}

fn check_live(out: &mut Out, server: &Server, steps: &BTreeSet<u64>) {
    out.check(steps.len() > 1, || {
        format!("serve-10k-live: replies saw {} distinct steps; the map was not live", steps.len())
    });
    let valid = server.snapshot().validate();
    out.check(valid.is_ok(), || format!("serve-10k-live: live snapshot invalid: {valid:?}"));
}

pub fn run(args: &Args, out: &mut Out, tracer: &Tracer) -> Result<(), String> {
    let mut setup = Vec::new();
    let mut server = None;
    for _ in 0..SETUPS {
        let (started, d) =
            tracer.time("setup", ROOT, || Server::start(config(args.seed, Metrics::disabled())));
        setup.push(d.as_secs_f64());
        if let Some(previous) = server.replace(started.map_err(|e| e.to_string())?) {
            previous.shutdown();
        }
    }
    out.setup(setup);
    let server = server.ok_or("no server started")?;
    let off = Tracer::new(false, String::new());

    if !tracer.on() {
        let light = phase(&server, args.seed, 1, LIGHT, args.seconds / 2.0, &off, "light")?;
        let heavy = phase(&server, args.seed, 2, HEAVY, args.seconds / 2.0, &off, "heavy")?;
        check_phase(out, "light", &light);
        check_phase(out, "heavy", &heavy);
        let steps: BTreeSet<u64> = light.steps.union(&heavy.steps).copied().collect();
        check_live(out, &server, &steps);
        server.shutdown();
        let (l, h) = (latency(&light), latency(&heavy));
        out.set_n("op_p50_ms", h.p(50.0) / 1e3, h.n());
        out.set_n("op_tail_ms", h.p(99.0) / 1e3, h.n());
        out.note(format!(
            "serve-10k-live: query_p50_us.light = {} us, query_p99_us.light = {} us (n={})",
            l.p(50.0),
            l.p(99.0),
            l.n()
        ));
        out.note(format!(
            "serve-10k-live: query_p50_us.heavy = {} us, query_p99_us.heavy = {} us (n={})",
            h.p(50.0),
            h.p(99.0),
            h.n()
        ));
        out.note(format!(
            "serve-10k-live: steps seen = {}, retried requests = {} light + {} heavy",
            steps.len(),
            light.retries,
            heavy.retries
        ));
        return Ok(());
    }

    // Traced run: an untraced heavy phase as the overhead baseline, then
    // a server recording its own metrics, with request spans on.
    let baseline = phase(&server, args.seed, 2, HEAVY, args.seconds / 2.0, &off, "heavy")?;
    check_phase(out, "baseline heavy", &baseline);
    server.shutdown();
    let metrics = Metrics::enabled();
    let server = Server::start(config(args.seed, metrics.clone())).map_err(|e| e.to_string())?;
    let light = phase(&server, args.seed, 1, LIGHT, args.seconds / 2.0, tracer, "serve.light")?;
    let heavy = phase(&server, args.seed, 2, HEAVY, args.seconds / 2.0, tracer, "serve.heavy")?;
    check_phase(out, "light", &light);
    check_phase(out, "heavy", &heavy);
    let steps: BTreeSet<u64> = light.steps.union(&heavy.steps).copied().collect();
    check_live(out, &server, &steps);
    server.shutdown();
    let counters = metrics.snapshot().counters;
    let counter = |name: &str| counters.get(name).copied().unwrap_or(0) as f64;
    out.set("serve.queries_total", counter("serve_queries_total"));
    out.set("serve.errors_total", counter("serve_query_errors_total"));
    out.set("serve.snapshot_rejects_total", counter("serve_snapshot_rejects_total"));
    out.set("serve.steps_seen", steps.len() as f64);
    let l = latency(&light);
    out.set_n("serve.light.query_p50_us", l.p(50.0), l.n());
    out.set_n("serve.light.query_p99_us", l.p(99.0), l.n());
    let late = Dist::new(light.late_us.iter().chain(&heavy.late_us).copied().collect());
    out.set_n("gen.late_us_p50", late.p(50.0), late.n());
    out.set_n("gen.late_us_p99", late.p(99.0), late.n());
    out.set("gen.retries", (light.retries + heavy.retries) as f64);
    out.set("trace.overhead_frac", latency(&heavy).p(50.0) / latency(&baseline).p(50.0) - 1.0);
    Ok(())
}

/// Times the serve layer's calls on a same-seed replica of the served
/// protocol, stepped in lockstep with a twin network: `serve.step_ms`,
/// `serve.capture_ms`, `serve.publish_us`, `serve.load_ns` and
/// `serve.respond_ns.*`. Returns the replica's lockstep window.
pub fn replica(seed: u64, out: &mut Out, tracer: &Tracer) -> Result<Lockstep, String> {
    let span = tracer.begin("serve.replica", ROOT);
    let build = || NetworkBuilder::scaled_preset(NODES).build(seed).map_err(|e| e.to_string());
    let mut protocol = build_protocol(ProtocolKind::Agents, build()?, &ZooParams::default(), seed)?;
    let mut twin = build()?;
    let off = Tracer::new(false, String::new());
    let warm =
        lockstep::run(protocol.as_mut(), &mut twin, 0, WARMUP_STEPS, &off, ROOT, |_, _, _| {});
    out.check(warm.mismatches == 0, || "serve replica: twin diverged during warmup".to_string());
    let mut index = RouteIndex::new(protocol.network().node_count());
    let cell = SnapshotCell::new(MapSnapshot::capture(
        protocol.as_ref(),
        &mut index,
        Step::new(WARMUP_STEPS),
    ));
    let (mut capture_ms, mut publish_us, mut rejects) = (Vec::new(), Vec::new(), 0u64);
    let lock = lockstep::run(
        protocol.as_mut(),
        &mut twin,
        WARMUP_STEPS,
        REPLICA_STEPS,
        tracer,
        span.id,
        |p, stepped, iter| {
            let (snap, d) = tracer.time("serve.capture", iter, || {
                MapSnapshot::capture(&*p, &mut index, Step::new(stepped))
            });
            capture_ms.push(d.as_secs_f64() * 1e3);
            let (published, d) = tracer.time("serve.publish", iter, || cell.publish(snap));
            publish_us.push(d.as_secs_f64() * 1e6);
            rejects += u64::from(published.is_err());
        },
    );
    out.check(rejects == 0, || format!("serve replica: {rejects} publishes rejected"));
    let snap = cell.load();
    let valid = snap.validate();
    out.check(valid.is_ok(), || format!("serve replica: snapshot invalid: {valid:?}"));
    out.check(snap.header().step == WARMUP_STEPS + REPLICA_STEPS, || {
        "serve replica: final snapshot is not the last step's".to_string()
    });
    let step = Dist::new(lock.step_ms.clone());
    out.set_n("serve.step_ms_p50", step.p(50.0), step.n());
    let capture = Dist::new(capture_ms);
    out.set_n("serve.capture_ms_p50", capture.p(50.0), capture.n());
    let publish = Dist::new(publish_us);
    out.set_n("serve.publish_us_p50", publish.p(50.0), publish.n());

    let load_span = tracer.begin("serve.load", span.id);
    let load: Vec<f64> = (0..TIMED_CALLS)
        .map(|_| {
            let started = Instant::now();
            black_box(cell.load());
            started.elapsed().as_nanos() as f64
        })
        .collect();
    tracer.end(load_span);
    let load = Dist::new(load);
    out.set_n("serve.load_ns_p50", load.p(50.0), load.n());

    let respond_span = tracer.begin("serve.wire", span.id);
    let mut by_verb: [Vec<f64>; 4] = Default::default();
    let mut bad = 0u64;
    for (_, text) in loadgen::trace(seed, 2, TIMED_CALLS, NODES) {
        let started = Instant::now();
        let parsed = wire::parse(black_box(&text));
        let reply = parsed.map(|(id, req)| (id, req, wire::respond(id, req, &snap)));
        let ns = started.elapsed().as_nanos() as f64;
        match reply {
            Ok((id, req, reply)) if reply.starts_with(&format!("{id} OK ")) => {
                let verb = match req {
                    Request::Route(_) => 0,
                    Request::Links(_) => 1,
                    Request::Reach(_) => 2,
                    Request::Info => 3,
                };
                by_verb[verb].push(ns);
            }
            _ => bad += 1,
        }
    }
    tracer.end(respond_span);
    out.check(bad == 0, || format!("serve replica: {bad} generated requests were not answered OK"));
    for (verb, samples) in ["route", "links", "reach", "info"].iter().zip(by_verb) {
        let d = Dist::new(samples);
        out.set_n(&format!("serve.respond_ns.{verb}"), d.p(50.0), d.n());
    }
    tracer.end(span);
    Ok(lock)
}
