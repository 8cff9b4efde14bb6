//! Golden digest of the wireless substrate's observable state.
//!
//! Link derivation is a pure speed kernel: any rewrite of it must leave
//! the links, `topology_version` and every [`NetStats`] counter
//! byte-identical. These tests pin an FNV-1a hash of exactly that state
//! after 20 steps of a scaled preset, so a semantic drift in the radio
//! layer fails `cargo test` itself instead of only surfacing as changed
//! figure reports.
//!
//! If a change is *meant* to alter the substrate's behaviour, recompute
//! the constants below and say why in the change log.

use agentnet::graph::NodeId;
use agentnet::radio::{BatteryModel, NetStats, NetworkBuilder, WirelessNetwork};

/// Steps taken before digesting.
const STEPS: usize = 20;
/// Preset size: large enough for multi-row grid scans and gateway
/// boosts, small enough to run in about a second in a debug build.
const NODES: usize = 3_000;

/// 64-bit FNV-1a, spelled out so the digest never depends on a
/// standard-library hasher whose output may change between releases.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Hashes every out-row (length-prefixed), the topology version and
/// every stats counter. The exhaustive destructuring makes a new
/// `NetStats` field a compile error here until it is digested too.
fn digest(net: &WirelessNetwork) -> u64 {
    let mut h = Fnv::new();
    let links = net.links();
    h.u64(links.node_count() as u64);
    for i in 0..links.node_count() {
        let row = links.out_neighbors(NodeId::new(i));
        h.u64(row.len() as u64);
        for to in row {
            h.u64(to.index() as u64);
        }
    }
    h.u64(net.topology_version());
    let NetStats {
        advances,
        link_rebuilds,
        topology_bumps,
        links_formed,
        links_broken,
        battery_decay_steps,
        grid_cell_clamps,
        grid_incremental_updates,
    } = net.stats();
    for v in [
        advances,
        link_rebuilds,
        topology_bumps,
        links_formed,
        links_broken,
        battery_decay_steps,
        grid_cell_clamps,
        grid_incremental_updates,
    ] {
        h.u64(v);
    }
    h.0
}

fn run(builder: &NetworkBuilder, seed: u64) -> WirelessNetwork {
    let mut net = builder.build(seed).expect("preset builds");
    for _ in 0..STEPS {
        net.advance();
    }
    net
}

#[test]
fn scaled_preset_digest_is_pinned() {
    let net = run(&NetworkBuilder::scaled_preset(NODES), 7);
    assert!(net.stats().links_formed > 0 && net.stats().links_broken > 0);
    assert_eq!(digest(&net), 11_593_310_732_171_441_986, "scaled preset digest drifted");
}

#[test]
fn sharded_scaled_preset_digest_matches_sequential() {
    let sharded = run(&NetworkBuilder::scaled_preset(NODES).advance_shards(3), 7);
    let sequential = run(&NetworkBuilder::scaled_preset(NODES), 7);
    assert_eq!(digest(&sharded), digest(&sequential));
}

#[test]
fn low_mobility_preset_digest_is_pinned() {
    // 2% mobile under mains power: no battery decays, so the grid's
    // cell size never drifts, yet the movers force a link rebuild on
    // every step.
    let builder = NetworkBuilder::scaled_preset(NODES)
        .mobile_fraction(0.02)
        .mobile_battery(BatteryModel::Mains);
    let net = run(&builder, 11);
    assert_eq!(net.stats().battery_decay_steps, 0, "mains power must not decay");
    assert_eq!(net.stats().link_rebuilds, STEPS as u64, "every step must rebuild links");
    assert_eq!(digest(&net), 11_962_965_941_726_775_906, "low-mobility preset digest drifted");
}
