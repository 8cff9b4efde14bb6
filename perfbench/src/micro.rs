//! Paper-scale microtimings of public `step` calls.
//!
//! These run in every traced run. They time the calls the smoke suite's
//! cells make, on the paper's own inputs (the 300-node mapping digraph
//! and the 250-node routing network), so they move only `paper-smoke`'s
//! suite time.

use crate::lockstep::{self, Lockstep};
use crate::out::Out;
use crate::spans::Tracer;
use crate::stats::Dist;
use agentnet_baselines::zoo::{build_protocol, ZooParams};
use agentnet_core::mapping::{MappingConfig, MappingSim};
use agentnet_core::policy::{MappingPolicy, RoutingPolicy};
use agentnet_core::routing::{ProtocolKind, RoutingConfig, RoutingProtocol, RoutingSim};
use agentnet_engine::{Step, TimeStepSim};
use agentnet_experiments::{
    paper_mapping_graph, paper_routing_network, ROUTING_STEPS, TOPOLOGY_SEED,
};
use std::time::Instant;

/// Mapping steps timed (a conscientious 15-agent population, as in
/// fig3, maps the paper's graph in a few hundred steps; later steps
/// keep walking the completed map).
const MAPPING_STEPS: u64 = 3_000;

/// Times every step of a `steps`-step run, in microseconds.
fn step_us(steps: u64, mut step: impl FnMut(Step)) -> Dist {
    let mut samples = Vec::with_capacity(steps as usize);
    for k in 0..steps {
        let started = Instant::now();
        step(Step::new(k));
        samples.push(started.elapsed().as_secs_f64() * 1e6);
    }
    Dist::new(samples)
}

/// Records `core.mapping_step_us`, `core.routing_step_us` and
/// `zoo.<arm>.step_us`, and returns the paper-scale agents-arm lockstep
/// window (the radio/core split of a routing cell).
pub fn run(seed: u64, out: &mut Out, tracer: &Tracer, parent: u64) -> Result<Lockstep, String> {
    let span = tracer.begin("micro.paper_scale", parent);
    let mut mapping = MappingSim::new(
        paper_mapping_graph(),
        MappingConfig::new(MappingPolicy::Conscientious, 15),
        seed,
    )
    .map_err(|e| e.to_string())?;
    let (d, _) =
        tracer.time("core.mapping", span.id, || step_us(MAPPING_STEPS, |k| mapping.step(k)));
    out.set_n("core.mapping_step_us", d.p(50.0), d.n());

    let build = || paper_routing_network().build(TOPOLOGY_SEED).map_err(|e| e.to_string());
    let config = RoutingConfig::new(RoutingPolicy::OldestNode, 100);
    let mut routing = RoutingSim::new(build()?, config, seed).map_err(|e| e.to_string())?;
    let mut twin = build()?;
    let window = tracer.begin("core.routing", span.id);
    let lock =
        lockstep::run(&mut routing, &mut twin, 0, ROUTING_STEPS, tracer, window.id, |_, _, _| {});
    tracer.end(window);
    let routing_us = Dist::new(lock.step_ms.iter().map(|ms| ms * 1e3).collect());
    out.set_n("core.routing_step_us", routing_us.p(50.0), routing_us.n());
    out.check(routing.validate_tables(Step::new(ROUTING_STEPS)).is_ok(), || {
        "paper-scale agents arm: routing tables invalid".to_string()
    });

    for kind in ProtocolKind::ALL {
        let mut arm = build_protocol(kind, build()?, &ZooParams::default(), seed)?;
        let name = format!("zoo.{}.step_us", kind.name());
        let (d, _) = tracer.time(&name, span.id, || step_us(ROUTING_STEPS, |k| arm.step(k)));
        out.set_n(&name, d.p(50.0), d.n());
        out.check(arm.validate_tables(Step::new(ROUTING_STEPS)).is_ok(), || {
            format!("paper-scale {kind} arm: routing tables invalid")
        });
    }
    tracer.end(span);
    Ok(lock)
}
