//! The `repro bench` kernel suite.
//!
//! Each kernel times one steady-state hot path of the simulators on the
//! paper's fixed topologies ([`TOPOLOGY_SEED`]), so successive runs are
//! comparable. Results are packaged as a
//! [`BenchReport`](agentnet_engine::perf::BenchReport) and gated against
//! a committed baseline on calibration-normalized timings (see
//! [`agentnet_engine::perf`] for the normalization rationale).

use crate::{paper_mapping_graph, paper_routing_network, TOPOLOGY_SEED};
use agentnet_core::mapping::{MappingConfig, MappingSim};
use agentnet_core::policy::{MappingPolicy, RoutingPolicy};
use agentnet_core::routing::{
    AntNetConfig, AntNetSim, RouteIndex, RoutingConfig, RoutingProtocol, RoutingSim,
};
use agentnet_engine::perf::{
    calibration_kernel, time_kernel, utc_date_string, BenchOptions, BenchReport, CALIBRATION_KERNEL,
};
use agentnet_engine::sim::{Step, TimeStepSim};
use agentnet_graph::geometry::{Point2, Rect};
use agentnet_radio::{NetworkBuilder, SpatialGrid};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::hint::black_box;

/// Network advances timed per bench iteration.
const ADVANCES_PER_ITER: u64 = 64;

/// Simulation steps timed per bench iteration.
const STEPS_PER_ITER: u64 = 16;

/// Scaling-preset kernels: name, node count, advances per iteration
/// (scaled down with population so one iteration stays OS-timeable
/// without taking seconds at 100k).
const SCALED_KERNELS: &[(&str, usize, u64)] = &[
    ("sharded_advance_1k", 1_000, 8),
    ("sharded_advance_10k", 10_000, 2),
    ("sharded_advance_100k", 100_000, 1),
];

/// Cell size for the grid kernel: the scaled presets' pinned base
/// radio range, i.e. the cell size the network layer derives.
const GRID_CELL: f64 = 101.0;

/// Every kernel of the default suite, in suite order (calibration
/// first). The CLI checks `--filter` patterns against this list so a
/// filter matching nothing is a hard error instead of a vacuous run.
pub fn kernel_names() -> Vec<&'static str> {
    let mut names = vec![
        CALIBRATION_KERNEL,
        "wireless_advance_static",
        "wireless_advance_mobile",
        "routing_step",
        "route_revalidation",
        "antnet_step",
        "mapping_step",
        "shard_rebuild",
    ];
    names.extend(SCALED_KERNELS.iter().map(|&(name, _, _)| name));
    names.push("grid_rebuild_single_100k");
    names
}

/// Runs the full kernel suite and returns the stamped report.
pub fn run_kernels(opts: BenchOptions, unix_seconds: u64) -> BenchReport {
    run_kernels_matching(opts, unix_seconds, &|_| true)
}

/// Runs the kernels whose names pass `keep` (the calibration kernel is
/// always timed — without it nothing normalizes), skipping the setup of
/// filtered-out kernels entirely, and returns the stamped report.
///
/// The kernels:
///
/// * `calibration` — the pure-CPU normalization workload.
/// * `wireless_advance_static` — [`WirelessNetwork::advance`] on the
///   paper routing network with every non-gateway node stationary and
///   mains-powered: the steady state the allocation-free fast path
///   targets (no movement, no battery decay, links unchanged).
/// * `wireless_advance_mobile` — the same network with the paper's
///   mobile fraction: movement, link recomputation, grid rebuild.
/// * `routing_step` — full [`RoutingSim`] steps (decide / move /
///   exchange / revalidate) on the paper network.
/// * `antnet_step` — full [`AntNetSim`] steps (evaporate / move ants /
///   deposit / revalidate) on the paper network: the zoo's heaviest
///   per-step arm (per-candidate pheromone scans).
/// * `mapping_step` — full [`MappingSim`] steps on the paper graph.
/// * `route_revalidation` — a forced full [`RouteIndex`] resync plus
///   reverse-BFS connectivity on a warmed routing state.
/// * `shard_rebuild` — a forced full link rebuild (grid + out-row
///   derivation with inline churn + in-list restore) on the 1k scaling
///   preset, sharded across the machine's cores.
/// * `sharded_advance_{1k,10k,100k}` — [`WirelessNetwork::advance`] on
///   the scaling presets with sharding at the machine's core count:
///   the deterministic parallel step this crate's scaling work targets.
/// * `grid_rebuild_single_100k` — the spatial grid's counting-sort
///   re-index over a 100k preset-density scatter, in isolation: no
///   network build, so it is cheap to set up.
///
/// [`WirelessNetwork::advance`]: agentnet_radio::WirelessNetwork::advance
pub fn run_kernels_matching(
    opts: BenchOptions,
    unix_seconds: u64,
    keep: &dyn Fn(&str) -> bool,
) -> BenchReport {
    let mut report = BenchReport::new(utc_date_string(unix_seconds), opts);

    report.kernels.push(time_kernel(CALIBRATION_KERNEL, opts, || {
        black_box(calibration_kernel());
    }));

    if keep("wireless_advance_static") {
        let mut stationary = paper_routing_network()
            .mobile_fraction(0.0)
            .build(TOPOLOGY_SEED)
            .expect("paper routing topology must build");
        stationary.advance(); // settle: first advance builds the caches
        report.kernels.push(time_kernel("wireless_advance_static", opts, || {
            for _ in 0..ADVANCES_PER_ITER {
                stationary.advance();
            }
            black_box(stationary.topology_version());
        }));
    }

    if keep("wireless_advance_mobile") {
        let mut mobile = paper_routing_network()
            .build(TOPOLOGY_SEED)
            .expect("paper routing topology must build");
        report.kernels.push(time_kernel("wireless_advance_mobile", opts, || {
            for _ in 0..ADVANCES_PER_ITER {
                mobile.advance();
            }
            black_box(mobile.topology_version());
        }));
    }

    if keep("routing_step") || keep("route_revalidation") {
        let net = paper_routing_network().build(TOPOLOGY_SEED).expect("paper routing topology");
        let config = RoutingConfig::new(RoutingPolicy::OldestNode, 100);
        let mut routing =
            RoutingSim::new(net, config, TOPOLOGY_SEED).expect("valid routing config");
        let mut now = 0u64;
        if keep("routing_step") {
            report.kernels.push(time_kernel("routing_step", opts, || {
                for _ in 0..STEPS_PER_ITER {
                    routing.step(Step::new(now));
                    now += 1;
                }
                black_box(routing.connectivity_series().values().last().copied());
            }));
        }
        if keep("route_revalidation") {
            // Route revalidation in isolation: clone the warmed routing
            // state's tables and force a from-scratch index resync every
            // iteration by alternating the version stamp.
            let n = routing.network().node_count();
            let tables: Vec<_> =
                (0..n).map(|v| routing.table(agentnet_graph::NodeId::new(v)).clone()).collect();
            let mut is_gateway = vec![false; n];
            for &g in routing.network().gateways() {
                is_gateway[g.index()] = true;
            }
            let live = routing.live_gateways().to_vec();
            let mut index = RouteIndex::new(n);
            let mut version = 0u64;
            report.kernels.push(time_kernel("route_revalidation", opts, || {
                // A single resync is ~10µs — too short to time against OS
                // noise, so batch like the step kernels.
                for _ in 0..STEPS_PER_ITER {
                    index.refresh(&tables, routing.network().links(), &is_gateway, version);
                    version = version.wrapping_add(1);
                    black_box(index.connected_fraction(&live));
                }
            }));
        }
    }

    if keep("antnet_step") {
        let net = paper_routing_network().build(TOPOLOGY_SEED).expect("paper routing topology");
        let config = AntNetConfig::new(100);
        let mut antnet = AntNetSim::new(net, config, TOPOLOGY_SEED).expect("valid antnet config");
        let mut now = 0u64;
        report.kernels.push(time_kernel("antnet_step", opts, || {
            for _ in 0..STEPS_PER_ITER {
                antnet.step(Step::new(now));
                now += 1;
            }
            black_box(antnet.connectivity_series().values().last().copied());
        }));
    }

    if keep("mapping_step") {
        let graph = paper_mapping_graph();
        let config = MappingConfig::new(MappingPolicy::Conscientious, 15);
        let mut mapping =
            MappingSim::new(graph, config, TOPOLOGY_SEED).expect("valid mapping config");
        let mut now = 0u64;
        report.kernels.push(time_kernel("mapping_step", opts, || {
            for _ in 0..STEPS_PER_ITER {
                mapping.step(Step::new(now));
                now += 1;
            }
            black_box(mapping.is_done());
        }));
    }

    let shards = machine_shards();

    if keep("shard_rebuild") {
        let mut net = NetworkBuilder::preset_1k()
            .advance_shards(shards)
            .build(TOPOLOGY_SEED)
            .expect("1k scaling preset must build");
        report.kernels.push(time_kernel("shard_rebuild", opts, || {
            net.refresh_links();
            black_box(net.topology_version());
        }));
    }

    for &(name, nodes, advances) in SCALED_KERNELS {
        if !keep(name) {
            continue;
        }
        let mut net = NetworkBuilder::scaled_preset(nodes)
            .advance_shards(shards)
            .build(TOPOLOGY_SEED)
            .expect("scaling preset must build");
        net.advance(); // settle: first advance warms grid and row scratch
        report.kernels.push(time_kernel(name, opts, || {
            for _ in 0..advances {
                net.advance();
            }
            black_box(net.topology_version());
        }));
    }

    if keep("grid_rebuild_single_100k") {
        let (arena, pts) = grid_points(100_000);
        let mut grid = SpatialGrid::build(arena, GRID_CELL, &pts).expect("finite grid geometry");
        report.kernels.push(time_kernel("grid_rebuild_single_100k", opts, || {
            grid.rebuild(arena, GRID_CELL, &pts).expect("finite grid geometry");
            black_box(grid.cell_count());
        }));
    }

    report
}

/// Deterministic uniform scatter at the scaled presets' density (250
/// nodes per km², arena side growing with `sqrt(nodes)`), without the
/// cost of building a full network.
fn grid_points(nodes: usize) -> (Rect, Vec<Point2>) {
    let side = 1000.0 * (nodes as f64 / 250.0).sqrt();
    let arena = Rect::square(side);
    let mut rng = StdRng::seed_from_u64(TOPOLOGY_SEED);
    let pts = (0..nodes)
        .map(|_| Point2::new(rng.random_range(0.0..side), rng.random_range(0.0..side)))
        .collect();
    (arena, pts)
}

/// Shard count for the scaling kernels: one per available core, so the
/// bench reflects what the machine can actually do. Determinism is not
/// at stake — results are bitwise identical at any shard count.
fn machine_shards() -> usize {
    std::thread::available_parallelism().map(std::num::NonZeroUsize::get).unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The largest workloads are excluded here: building the 10k/100k
    /// networks in a debug-profile unit test costs tens of seconds
    /// without exercising any wiring the smaller kernels don't.
    fn debug_sized(name: &str) -> bool {
        name != "sharded_advance_10k" && name != "sharded_advance_100k"
    }

    #[test]
    fn kernel_suite_is_complete_and_timed() {
        let opts = BenchOptions { warmup: 0, iters: 1 };
        let report = run_kernels_matching(opts, 1_785_931_200, &debug_sized);
        assert_eq!(report.date, "2026-08-05");
        let names: Vec<&str> = report.kernels.iter().map(|k| k.kernel.as_str()).collect();
        assert_eq!(
            names,
            [
                CALIBRATION_KERNEL,
                "wireless_advance_static",
                "wireless_advance_mobile",
                "routing_step",
                "route_revalidation",
                "antnet_step",
                "mapping_step",
                "shard_rebuild",
                "sharded_advance_1k",
                "grid_rebuild_single_100k",
            ]
        );
        for k in &report.kernels {
            assert!(k.ns_per_iter > 0.0, "{} not timed", k.kernel);
            assert!(report.normalized(&k.kernel).is_some(), "{} not normalizable", k.kernel);
        }
    }

    #[test]
    fn kernel_names_lists_the_suite_in_order() {
        // `kernel_names` is the CLI's zero-match oracle: it must agree
        // with what an unfiltered run would actually time, in order.
        let opts = BenchOptions { warmup: 0, iters: 1 };
        let report = run_kernels_matching(opts, 1_785_931_200, &debug_sized);
        let timed: Vec<&str> = report.kernels.iter().map(|k| k.kernel.as_str()).collect();
        let expected: Vec<&'static str> =
            kernel_names().into_iter().filter(|n| debug_sized(n)).collect();
        assert_eq!(timed, expected);
    }

    #[test]
    fn filtered_run_always_keeps_calibration() {
        let opts = BenchOptions { warmup: 0, iters: 1 };
        let report = run_kernels_matching(opts, 1_785_931_200, &|n| n == "shard_rebuild");
        let names: Vec<&str> = report.kernels.iter().map(|k| k.kernel.as_str()).collect();
        assert_eq!(names, [CALIBRATION_KERNEL, "shard_rebuild"]);
        assert!(report.normalized("shard_rebuild").is_some());
    }
}
