//! Property-based tests for the wireless substrate.

use agentnet_graph::geometry::{Point2, Rect};
use agentnet_graph::{DiGraph, NodeId};
use agentnet_radio::mobility::Motion;
use agentnet_radio::{
    BatteryModel, BatteryState, MobilityKind, NetworkBuilder, SpatialGrid, WirelessNetwork,
};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeSet;

/// The link digraph by definition: every ordered pair tested with the
/// coverage predicate, no spatial index involved.
fn brute_force_links(net: &WirelessNetwork) -> DiGraph {
    let nodes = net.nodes();
    let mut g = DiGraph::new(nodes.len());
    for a in &nodes {
        for b in &nodes {
            if a.id != b.id && a.covers(b.position) {
                g.add_edge(a.id, b.id);
            }
        }
    }
    g
}

/// Directed edges of `new` missing from `old`, and of `old` missing
/// from `new`.
fn set_difference(new: &DiGraph, old: &DiGraph) -> (u64, u64) {
    let count = |a: &DiGraph, b: &DiGraph| {
        (0..a.node_count())
            .map(NodeId::new)
            .map(|v| a.out_neighbors(v).iter().filter(|&&to| !b.has_edge(v, to)).count() as u64)
            .sum::<u64>()
    };
    (count(new, old), count(old, new))
}

proptest! {
    #[test]
    fn grid_candidates_are_a_superset_of_the_in_range_set(
        width in 10.0f64..200.0,
        height in 10.0f64..200.0,
        cell in 1.0f64..50.0,
        radius in 0.0f64..80.0,
        points in proptest::collection::vec((0.0f64..1.5, 0.0f64..1.5), 0..60),
        center in (-0.5f64..1.5, -0.5f64..1.5),
    ) {
        let arena = Rect::new(width, height);
        // Scale the unit-ish samples onto (and beyond) the arena; a
        // factor above 1 or below 0 lands outside it.
        let points: Vec<Point2> = points
            .iter()
            .map(|&(fx, fy)| Point2::new((fx - 0.25) * width, (fy - 0.25) * height))
            .collect();
        let center = Point2::new((center.0) * width, (center.1) * height);

        let grid = SpatialGrid::build(arena, cell, &points).expect("finite geometry");
        let candidates: BTreeSet<usize> = grid.candidates_within(center, radius).collect();
        let in_range: BTreeSet<usize> = points
            .iter()
            .enumerate()
            .filter(|(_, p)| center.distance(**p) <= radius)
            .map(|(i, _)| i)
            .collect();
        prop_assert!(
            in_range.is_subset(&candidates),
            "grid missed in-range points {:?} (candidates {:?}, center {center}, r {radius})",
            in_range.difference(&candidates).collect::<Vec<_>>(),
            candidates,
        );
    }

    /// The exact range query reads the grid's cell-ordered coordinate
    /// columns; after a build and after an in-place rebuild of the same
    /// grid over moved points at a different cell size it must return
    /// exactly the points the distance predicate accepts, for radii from
    /// zero to several cells.
    #[test]
    fn grid_exact_query_matches_brute_force(
        width in 10.0f64..200.0,
        cell in 1.0f64..40.0,
        recell in 1.0f64..40.0,
        points in proptest::collection::vec((-0.2f64..1.2, -0.2f64..1.2), 0..80),
        moves in proptest::collection::vec((0usize..80, -0.3f64..0.3, -0.3f64..0.3), 0..12),
        queries in proptest::collection::vec((-0.2f64..1.2, -0.2f64..1.2, 0.0f64..3.0), 1..8),
    ) {
        let arena = Rect::new(width, width * 0.7);
        let mut points: Vec<Point2> = points
            .iter()
            .map(|&(fx, fy)| Point2::new(fx * width, fy * width * 0.7))
            .collect();
        let check = |grid: &SpatialGrid, cell: f64, points: &[Point2]| {
            for &(fx, fy, cells) in &queries {
                let center = Point2::new(fx * width, fy * width * 0.7);
                let radius = cells * cell;
                let mut found = Vec::new();
                grid.for_each_within(center, radius, |i| found.push(i));
                found.sort_unstable();
                let expected: Vec<usize> = (0..points.len())
                    .filter(|&i| center.distance_sq(points[i]) <= radius * radius)
                    .collect();
                prop_assert_eq!(found, expected, "center {} radius {}", center, radius);
            }
            Ok::<(), TestCaseError>(())
        };
        let mut grid = SpatialGrid::build(arena, cell, &points).expect("finite geometry");
        check(&grid, cell, &points)?;
        for &(i, dx, dy) in &moves {
            if let Some(p) = points.get_mut(i) {
                *p = Point2::new(p.x + dx * width, p.y + dy * width);
            }
        }
        grid.rebuild(arena, recell, &points).expect("finite geometry");
        check(&grid, recell, &points)?;
    }

    #[test]
    fn battery_charge_is_monotone_nonincreasing_and_floored(
        per_step in 0.0f64..0.2,
        floor in 0.0f64..0.9,
        steps in 1usize..500,
    ) {
        let mut b = BatteryState::new(BatteryModel::Linear { per_step, floor });
        let mut last = b.charge();
        for _ in 0..steps {
            b.step();
            prop_assert!(b.charge() <= last + 1e-12);
            prop_assert!(b.charge() >= floor - 1e-12);
            last = b.charge();
        }
    }

    #[test]
    fn exponential_battery_never_exceeds_linear_floor_rules(
        rate in 0.0f64..0.5,
        floor in 0.0f64..0.9,
        steps in 1usize..200,
    ) {
        let mut b = BatteryState::new(BatteryModel::Exponential { rate, floor });
        for _ in 0..steps {
            b.step();
        }
        prop_assert!(b.charge() <= 1.0 && b.charge() >= floor - 1e-12);
        prop_assert!(b.range_factor() <= 1.0);
    }

    #[test]
    fn random_velocity_motion_stays_in_arena(
        seed in 0u64..500,
        speed_lo in 0.0f64..5.0,
        speed_hi_delta in 0.0f64..10.0,
        width in 10.0f64..500.0,
        height in 10.0f64..500.0,
        steps in 1usize..400,
    ) {
        let arena = Rect::new(width, height);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut motion =
            Motion::sample_random_velocity((speed_lo, speed_lo + speed_hi_delta), &mut rng);
        let mut p = Point2::new(width / 2.0, height / 2.0);
        for _ in 0..steps {
            p = motion.advance(p, arena, &mut rng);
            prop_assert!(arena.contains(p), "escaped to {p}");
        }
    }

    #[test]
    fn waypoint_motion_stays_in_arena_and_progresses(
        seed in 0u64..500,
        speed in 0.5f64..20.0,
        steps in 1usize..300,
    ) {
        let arena = Rect::square(200.0);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut motion = Motion::sample_random_waypoint((speed, speed), 2, arena, &mut rng);
        let mut p = Point2::new(100.0, 100.0);
        for _ in 0..steps {
            let next = motion.advance(p, arena, &mut rng);
            prop_assert!(arena.contains(next));
            // A single hop never exceeds the sampled speed.
            prop_assert!(p.distance(next) <= speed + 1e-9);
            p = next;
        }
    }

    #[test]
    fn builder_produces_consistent_networks(
        seed in 0u64..64,
        nodes in 10usize..60,
        gateways in 0usize..5,
    ) {
        let gateways = gateways.min(nodes / 2);
        let net = NetworkBuilder::new(nodes)
            .gateways(gateways)
            .min_initial_reachability(0.0)
            .build(seed)
            .unwrap();
        prop_assert_eq!(net.node_count(), nodes);
        prop_assert_eq!(net.gateways().len(), gateways);
        // Node ids are dense and ordered.
        for (i, node) in net.nodes().iter().enumerate() {
            prop_assert_eq!(node.id.index(), i);
            prop_assert!(node.nominal_range > 0.0);
            prop_assert!(net.arena().contains(node.position));
        }
        // Links agree with the coverage predicate.
        for node in net.nodes() {
            for &to in net.links().out_neighbors(node.id) {
                prop_assert!(node.covers(net.node(to).position));
            }
        }
    }

    #[test]
    fn advancing_preserves_node_count_and_arena(seed in 0u64..32, steps in 1usize..30) {
        let mut net = NetworkBuilder::new(30)
            .gateways(2)
            .min_initial_reachability(0.0)
            .build(seed)
            .unwrap();
        let n = net.node_count();
        for _ in 0..steps {
            net.advance();
            prop_assert_eq!(net.node_count(), n);
            for node in net.nodes() {
                prop_assert!(net.arena().contains(node.position));
                prop_assert!(node.battery.charge() <= 1.0);
            }
        }
    }

    #[test]
    fn sharded_step_is_byte_identical_to_sequential(
        seed in 0u64..48,
        nodes in 2usize..80,
        shards_raw in 0usize..16,
        mobile in 0.0f64..1.0,
        steps in 1usize..20,
    ) {
        // Shard counts cover 1, mid-range, and far above the node count.
        let shards = match shards_raw {
            0 => 1,
            15 => 200,
            s => s + 1,
        };
        let build = |s: usize| {
            NetworkBuilder::new(nodes)
                .gateways((nodes / 10).min(3))
                .mobile_fraction(mobile)
                .min_initial_reachability(0.0)
                .advance_shards(s)
                .build(seed)
                .unwrap()
        };
        let mut sequential = build(1);
        let mut sharded = build(shards);
        for _ in 0..steps {
            sequential.advance();
            sharded.advance();
            prop_assert_eq!(sharded.links(), sequential.links());
            prop_assert_eq!(sharded.topology_version(), sequential.topology_version());
            prop_assert_eq!(sharded.stats(), sequential.stats());
            prop_assert_eq!(sharded.grid_cells(), sequential.grid_cells());
        }
        prop_assert_eq!(sharded.nodes(), sequential.nodes());
    }

    /// Differential check of the whole link pipeline: after every
    /// advance, `links()` equals the all-pairs derivation, and the churn
    /// counters grow by exactly the set difference from the previous
    /// step's links. Covers gateway boosts up to 3x, every mobility
    /// model, decaying and mains batteries, nodes teleported out of the
    /// arena, and 1-4 advance shards.
    #[test]
    fn links_match_brute_force_derivation(
        seed in 0u64..1_000,
        nodes in 2usize..90,
        gateways_raw in 0usize..8,
        mobile in 0.0f64..1.0,
        boost in 1.0f64..3.0,
        heterogeneity in 0.0f64..0.6,
        side in 100.0f64..1500.0,
        range_frac in 0.02f64..0.4,
        mobility_raw in 0usize..3,
        mains in 0usize..2,
        shards in 1usize..5,
        steps in 1usize..12,
        teleports in proptest::collection::vec(
            (0usize..12, 0usize..90, -1.0f64..2.0, -1.0f64..2.0),
            0..6,
        ),
    ) {
        let mobility = [
            MobilityKind::RandomVelocity,
            MobilityKind::RandomWaypoint,
            MobilityKind::GaussMarkov,
        ][mobility_raw];
        let battery = if mains == 1 { BatteryModel::Mains } else { BatteryModel::paper_mobile() };
        let mut net = NetworkBuilder::new(nodes)
            .gateways(gateways_raw.min(nodes))
            .mobile_fraction(mobile)
            .gateway_range_boost(boost)
            .range_heterogeneity(heterogeneity)
            .arena(Rect::square(side))
            .base_range(side * range_frac)
            .mobility(mobility)
            .mobile_battery(battery)
            .min_initial_reachability(0.0)
            .advance_shards(shards)
            .build(seed)
            .unwrap();
        prop_assert_eq!(net.links(), &brute_force_links(&net));
        for step in 0..steps {
            for &(at, i, fx, fy) in &teleports {
                if at == step && i < nodes {
                    net.node_mut(NodeId::new(i)).position = Point2::new(fx * side, fy * side);
                }
            }
            let before_links = net.links().clone();
            let before = net.stats();
            net.advance();
            prop_assert_eq!(net.links(), &brute_force_links(&net), "step {}", step);
            let after = net.stats();
            let (formed, broken) = set_difference(net.links(), &before_links);
            prop_assert_eq!(after.links_formed - before.links_formed, formed, "step {}", step);
            prop_assert_eq!(after.links_broken - before.links_broken, broken, "step {}", step);
            let bumped = after.topology_bumps - before.topology_bumps;
            prop_assert_eq!(bumped, u64::from(formed + broken > 0), "step {}", step);
            prop_assert_eq!(net.links().check_consistency(), Ok(()));
        }
    }

    #[test]
    fn stationary_nodes_never_move(seed in 0u64..32) {
        let mut net = NetworkBuilder::new(30)
            .gateways(2)
            .mobile_fraction(0.3)
            .min_initial_reachability(0.0)
            .build(seed)
            .unwrap();
        let before: Vec<_> = net
            .nodes()
            .iter()
            .filter(|n| !n.kind.is_mobile())
            .map(|n| (n.id, n.position))
            .collect();
        for _ in 0..10 {
            net.advance();
        }
        for (id, pos) in before {
            prop_assert_eq!(net.node(id).position, pos);
        }
    }
}
