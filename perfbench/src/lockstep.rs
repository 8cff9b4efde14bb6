//! Splitting a protocol step into its `radio` and `core` parts.
//!
//! A protocol step advances its own network and then runs the protocol.
//! The benchmark cannot time the inner `advance` call without changing
//! the program, so it builds a *twin* `WirelessNetwork` from the same
//! builder and seed and advances it in lockstep: the twin's `advance`
//! time stands for the radio part, the rest of the step is the
//! protocol's self time, and the twin's `NetStats` deltas are the radio
//! layer's work counts. The twin must stay on the same topology as the
//! protocol's network after every step; a divergence is a failed check.

use crate::out::Out;
use crate::spans::Tracer;
use crate::stats::Dist;
use agentnet_core::routing::RoutingProtocol;
use agentnet_engine::Step;
use agentnet_graph::{NodeId, Point2};
use agentnet_radio::{NetStats, WirelessNetwork};
use std::mem::size_of;

/// What a lockstep window measured.
#[derive(Default)]
pub struct Lockstep {
    /// Wall time of each `protocol.step`, ms.
    pub step_ms: Vec<f64>,
    /// Wall time of each twin `advance`, ms.
    pub advance_ms: Vec<f64>,
    /// Wall time of each whole traced iteration (step, twin, and the
    /// caller's per-step work), ms.
    pub iter_ms: Vec<f64>,
    /// Twin `NetStats` accumulated over the window.
    pub stats: NetStats,
    /// Steps on which the twin's topology differed from the protocol's.
    pub mismatches: u64,
    /// Link-table bytes derived over the window, computed from array
    /// sizes (see [`rebuild_bytes`]), not measured.
    pub bytes_computed: f64,
    /// Directed links at the end of the window.
    pub edges: usize,
    /// Installed route entries at the end of the window.
    pub route_entries: usize,
    /// Route-table writes during the window.
    pub table_writes: u64,
    /// Agent migrations during the window.
    pub migrations: u64,
}

/// Bytes one link rebuild writes, from array sizes: the derived
/// out-rows, the committed out- and in-rows (`3 * edges` node ids), and
/// the per-node snapshot columns (two position copies and one range).
pub fn rebuild_bytes(nodes: usize, edges: usize) -> f64 {
    let rows = 3 * edges * size_of::<NodeId>();
    let columns = nodes * (2 * size_of::<Point2>() + size_of::<f64>());
    (rows + columns) as f64
}

/// `after - before`, field by field.
fn delta(after: NetStats, before: NetStats) -> NetStats {
    NetStats {
        advances: after.advances - before.advances,
        link_rebuilds: after.link_rebuilds - before.link_rebuilds,
        topology_bumps: after.topology_bumps - before.topology_bumps,
        links_formed: after.links_formed - before.links_formed,
        links_broken: after.links_broken - before.links_broken,
        battery_decay_steps: after.battery_decay_steps - before.battery_decay_steps,
        grid_cell_clamps: after.grid_cell_clamps - before.grid_cell_clamps,
        grid_incremental_updates: after.grid_incremental_updates - before.grid_incremental_updates,
    }
}

/// Steps `protocol` and `twin` together for `steps` steps, starting at
/// step `from`. `after` runs once per step, after both advanced, inside
/// the iteration's span (its id is the third argument).
pub fn run(
    protocol: &mut dyn RoutingProtocol,
    twin: &mut WirelessNetwork,
    from: u64,
    steps: u64,
    tracer: &Tracer,
    parent: u64,
    mut after: impl FnMut(&mut dyn RoutingProtocol, u64, u64),
) -> Lockstep {
    let mut out = Lockstep::default();
    let writes_before = protocol.overhead();
    let stats_before = twin.stats();
    let nodes = twin.node_count();
    for k in from..from + steps {
        let iter = tracer.begin("step", parent);
        let iter_id = iter.id;
        let ((), step) = tracer.time("core.protocol.step", iter_id, || protocol.step(Step::new(k)));
        let rebuilds = twin.stats().link_rebuilds;
        let ((), advance) = tracer.time("radio.advance(twin)", iter_id, || twin.advance());
        let edges = twin.links().edge_count();
        let rebuilt = twin.stats().link_rebuilds - rebuilds;
        out.bytes_computed += rebuilt as f64 * rebuild_bytes(nodes, edges);
        if twin.topology_version() != protocol.network().topology_version()
            || edges != protocol.network().links().edge_count()
        {
            out.mismatches += 1;
        }
        after(protocol, k + 1, iter_id);
        out.step_ms.push(step.as_secs_f64() * 1e3);
        out.advance_ms.push(advance.as_secs_f64() * 1e3);
        out.iter_ms.push(tracer.end(iter).as_secs_f64() * 1e3);
    }
    let writes = protocol.overhead();
    out.stats = delta(twin.stats(), stats_before);
    out.edges = twin.links().edge_count();
    out.route_entries = protocol.route_entries();
    out.table_writes = writes.table_writes - writes_before.table_writes;
    out.migrations = writes.migrations - writes_before.migrations;
    out
}

impl Lockstep {
    /// Records the `radio.*` and `core.*` per-layer metrics of this
    /// window, and its twin-topology check.
    pub fn emit(&self, out: &mut Out, what: &str) {
        out.check(self.mismatches == 0 && !self.step_ms.is_empty(), || {
            format!(
                "{what}: twin topology diverged from the protocol's network on {} of {} steps",
                self.mismatches,
                self.step_ms.len()
            )
        });
        let step = Dist::new(self.step_ms.clone());
        let advance = Dist::new(self.advance_ms.clone());
        let self_ms: Vec<f64> =
            self.step_ms.iter().zip(&self.advance_ms).map(|(s, a)| s - a).collect();
        let self_ms = Dist::new(self_ms);
        out.set_n("radio.advance_ms_p50", advance.p(50.0), advance.n());
        out.set("radio.advance_share", advance.sum() / step.sum().max(f64::MIN_POSITIVE));
        out.set("radio.links_formed", self.stats.links_formed as f64);
        out.set("radio.links_broken", self.stats.links_broken as f64);
        out.set("radio.topology_bumps", self.stats.topology_bumps as f64);
        out.set("radio.link_rebuilds", self.stats.link_rebuilds as f64);
        out.set("radio.grid_incremental_updates", self.stats.grid_incremental_updates as f64);
        out.set("radio.grid_cell_clamps", self.stats.grid_cell_clamps as f64);
        out.set("radio.edges", self.edges as f64);
        out.set("radio.bytes_computed", self.bytes_computed);
        out.set_n("core.step_self_ms_p50", self_ms.p(50.0), self_ms.n());
        out.set("core.route_entries", self.route_entries as f64);
        out.set("core.table_writes", self.table_writes as f64);
        out.set("core.migrations", self.migrations as f64);
        out.note(format!(
            "{what}: {} lockstep steps, grid_incremental_updates={} (battery decay steps {})",
            self.step_ms.len(),
            self.stats.grid_incremental_updates,
            self.stats.battery_decay_steps
        ));
    }
}
