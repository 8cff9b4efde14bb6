//! `step-100k`: the paper's oldest-node agents arm on the 100k-node
//! scaled preset, timed per `protocol.step`.
//!
//! `radio` does nearly all of the work here and the protocol almost
//! none, so this is where a change to `WirelessNetwork::advance` shows.

use crate::lockstep;
use crate::out::Out;
use crate::spans::{Tracer, ROOT};
use crate::stats::Dist;
use crate::Args;
use agentnet_baselines::zoo::{build_protocol, ZooParams};
use agentnet_core::routing::{ProtocolKind, RoutingProtocol};
use agentnet_engine::Step;
use agentnet_radio::NetworkBuilder;
use std::time::{Duration, Instant};

/// Nodes in the scaled preset.
pub const NODES: usize = 100_000;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 9;
/// Untimed steps before timing starts.
const WARMUP_STEPS: u64 = 5;
/// Steps of the traced lockstep window (a fixed count, so its work
/// counts repeat exactly for a seed).
const TRACED_STEPS: u64 = 40;

fn build(seed: u64) -> Result<Box<dyn RoutingProtocol>, String> {
    let net = NetworkBuilder::scaled_preset(NODES).build(seed).map_err(|e| e.to_string())?;
    build_protocol(ProtocolKind::Agents, net, &ZooParams::default(), seed)
}

/// Steps from `from` until `seconds` have passed; returns each step's
/// wall time in ms and the next step index.
fn measure(protocol: &mut dyn RoutingProtocol, from: u64, seconds: f64) -> (Vec<f64>, u64) {
    let mut samples = Vec::new();
    let mut k = from;
    let started = Instant::now();
    let budget = Duration::from_secs_f64(seconds);
    while samples.is_empty() || started.elapsed() < budget {
        let t = Instant::now();
        protocol.step(Step::new(k));
        samples.push(t.elapsed().as_secs_f64() * 1e3);
        k += 1;
    }
    (samples, k)
}

/// Checks a protocol that has executed exactly `steps` steps.
fn check_protocol(out: &mut Out, protocol: &dyn RoutingProtocol, steps: u64) {
    out.check(protocol.validate_tables(Step::new(steps)).is_ok(), || {
        format!("step-100k: validate_tables failed after {steps} steps")
    });
    let advances = protocol.network().stats().advances;
    out.check(advances == steps && protocol.network().now() == Step::new(steps), || {
        format!("step-100k: network advanced {advances} times in {steps} protocol steps")
    });
}

pub fn run(args: &Args, out: &mut Out, tracer: &Tracer) -> Result<(), String> {
    let keep = if tracer.on() { 2 } else { 1 };
    let mut kept = Vec::new();
    let mut setup = Vec::new();
    for i in 0..SETUPS {
        let (protocol, d) = tracer.time("setup", ROOT, || build(args.seed));
        setup.push(d.as_secs_f64());
        let protocol = protocol?;
        if i < keep {
            kept.push(protocol);
        }
    }
    out.setup(setup);

    // The end-to-end measurement, untraced even in a traced run.
    let mut protocol = kept.pop().ok_or("no protocol was built")?;
    for k in 0..WARMUP_STEPS {
        protocol.step(Step::new(k));
    }
    let seconds = if tracer.on() { args.seconds / 2.0 } else { args.seconds };
    let (samples, steps) = measure(protocol.as_mut(), WARMUP_STEPS, seconds);
    out.attempt(samples.len() as u64);
    check_protocol(out, protocol.as_ref(), steps);
    let step = Dist::new(samples);
    out.set_n("op_p50_ms", step.p(50.0), step.n());
    out.set_n("op_tail_ms", step.p(90.0), step.n());
    out.note(format!(
        "step-100k: step_ms_p50 = {} ms, step_ms_p90 = {} ms (n={})",
        step.p(50.0),
        step.p(90.0),
        step.n()
    ));
    drop(protocol);
    if !tracer.on() {
        return Ok(());
    }

    // The traced window: a fresh same-seed protocol and its twin.
    let off = Tracer::new(false, String::new());
    let mut protocol = kept.pop().ok_or("no protocol was built")?;
    let mut twin =
        NetworkBuilder::scaled_preset(NODES).build(args.seed).map_err(|e| e.to_string())?;
    let span = tracer.begin("step-100k.lockstep", ROOT);
    let off_lock =
        lockstep::run(protocol.as_mut(), &mut twin, 0, WARMUP_STEPS, &off, ROOT, |_, _, _| {});
    let lock = lockstep::run(
        protocol.as_mut(),
        &mut twin,
        WARMUP_STEPS,
        TRACED_STEPS,
        tracer,
        span.id,
        |_, _, _| {},
    );
    tracer.end(span);
    out.check(off_lock.mismatches == 0, || "step-100k: twin diverged during warmup".to_string());
    check_protocol(out, protocol.as_ref(), WARMUP_STEPS + TRACED_STEPS);
    lock.emit(out, "step-100k");
    let traced = Dist::new(lock.iter_ms.clone());
    out.set("trace.overhead_frac", traced.p(50.0) / step.p(50.0) - 1.0);
    Ok(())
}
