//! Steady-state allocation accounting for [`WirelessNetwork::advance`].
//!
//! The acceptance criterion of the allocation-free hot path: on an
//! all-stationary, mains-powered network, `advance()` must not touch
//! the heap once its caches are warm — no grid rebuild, no link
//! recomputation, no scratch growth. A counting global allocator
//! (allowed here: the lib crate forbids unsafe, integration tests are
//! separate crates) measures exactly that.
//!
//! The test harness runs the tests of this file on parallel threads, so
//! the allocator counts only allocations made by a thread inside its
//! own [`measuring`] window; a sibling test allocating at the same time
//! cannot leak into the count.
//!
//! [`WirelessNetwork::advance`]: agentnet_radio::WirelessNetwork::advance

use agentnet_radio::NetworkBuilder;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Wraps the system allocator, counting every allocation and
/// reallocation the current thread makes while it is measuring.
struct CountingAlloc;

thread_local! {
    /// `Some(count)` while this thread is inside [`measuring`]. A const
    /// initializer with no destructor: reading it never allocates, so
    /// the allocator itself may touch it.
    static ALLOCATIONS: Cell<Option<u64>> = const { Cell::new(None) };
}

fn count_one() {
    // `try_with` fails only during thread teardown, which is never
    // inside a measuring window.
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get().map(|n| n + 1)));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }
}

/// Runs `f` and returns how many allocations this thread made during it.
fn measuring(f: impl FnOnce()) -> u64 {
    ALLOCATIONS.with(|c| c.set(Some(0)));
    f();
    ALLOCATIONS.with(|c| c.replace(None)).unwrap_or(0)
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn steady_state_advance_performs_zero_heap_allocations() {
    // The paper routing network with nobody moving and mains power
    // everywhere: after one settling advance the topology can never
    // change again.
    let mut net = NetworkBuilder::paper_routing()
        .mobile_fraction(0.0)
        .build(42)
        .expect("paper routing topology must build");

    // Warm the caches: the first advance builds the spatial grid, the
    // snapshots and the double-buffered link graphs.
    net.advance();
    let version = net.topology_version();

    let allocations = measuring(|| {
        for _ in 0..100 {
            net.advance();
        }
    });

    assert_eq!(
        allocations, 0,
        "steady-state advance must be allocation-free, saw {allocations} allocations"
    );
    assert_eq!(net.topology_version(), version, "stationary topology must not change");
}

#[test]
fn measuring_window_counts_this_threads_allocations() {
    // Guards against a counter that went blind: allocations inside the
    // window are seen, and ones outside it (or on other threads) are not.
    let inside = measuring(|| drop(std::hint::black_box(vec![0u8; 64])));
    assert_eq!(inside, 1);
    // Warm the runtime's lazily initialised spawn state first, so both
    // windows below pay exactly the same spawn-side allocations.
    let _ = std::thread::spawn(|| ()).join();
    let other_thread = measuring(|| {
        let _ = std::thread::spawn(|| drop(std::hint::black_box(vec![0u8; 64]))).join();
    });
    let spawn_only = measuring(|| {
        let _ = std::thread::spawn(|| ()).join();
    });
    assert_eq!(other_thread, spawn_only, "another thread's allocations must not count");
}

#[test]
fn mobile_advance_still_recomputes_links() {
    // Control for the test above: with mobile nodes the fast path must
    // NOT be taken, so the topology keeps evolving.
    let mut net =
        NetworkBuilder::paper_routing().build(42).expect("paper routing topology must build");
    net.advance();
    let version = net.topology_version();
    for _ in 0..20 {
        net.advance();
    }
    assert!(net.topology_version() > version, "mobile topology must keep changing");
}
