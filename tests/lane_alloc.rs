//! A lane-batched run allocates per run, not per node.
//!
//! The batched wrappers keep their per-node K-wide fields in one
//! node-major slab (`dc_core::lanes`), so building the state, running the
//! cycles and gathering the answers make a fixed number of allocator
//! calls however many nodes the machine has. Before the slab, every node
//! owned one `Vec` per field: a D_8 prefix run made 163,853 calls. This
//! suite pins the count with a counting wrapper around the system
//! allocator, as `dc-simulator`'s `zero_alloc` suite does for cycles.
//!
//! It lives in its own integration-test binary so the
//! `#[global_allocator]` swap and the process-wide counter do not
//! interfere with other suites. The single `#[test]` keeps the counter
//! free of other tests' threads.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use dc_core::ops::Sum;
use dc_core::prefix::dualcube::{batched_d_prefix_reusing, Step5Mode};
use dc_core::prefix::hypercube::batched_cube_prefix;
use dc_core::prefix::PrefixKind;
use dc_core::sort::dualcube::batched_d_sort_reusing;
use dc_core::sort::SortOrder;
use dc_simulator::{with_default_exec, ExecMode, ScheduleBank};
use dc_topology::{DualCube, Hypercube, RecDualCube, Topology};

/// Counts every allocator call that hands out (or moves) memory.
struct CountingAlloc;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocator calls made by `f`, minimised over three repetitions: the
/// process-wide counter also sees one-shot allocations of the test
/// harness, which can land in at most one window (see `zero_alloc` in
/// `dc-simulator` for the full argument).
fn calls(mut f: impl FnMut()) -> u64 {
    (0..3)
        .map(|_| {
            let before = ALLOC_CALLS.load(Ordering::SeqCst);
            f();
            ALLOC_CALLS.load(Ordering::SeqCst) - before
        })
        .min()
        .expect("three repetitions")
}

fn inputs(lanes: usize, nodes: usize) -> Vec<Vec<Sum>> {
    (0..lanes)
        .map(|k| (0..nodes as i64).map(|i| Sum(i * 3 - k as i64)).collect())
        .collect()
}

/// Calls of one warm `batched_d_prefix_reusing` run on D_n with K lanes.
fn warm_prefix_calls(n: u32, lanes: usize) -> u64 {
    let d = DualCube::new(n);
    let inputs = inputs(lanes, d.num_nodes());
    let mut bank = ScheduleBank::new();
    let mut run = || {
        batched_d_prefix_reusing(
            &d,
            &inputs,
            PrefixKind::Inclusive,
            Step5Mode::PaperFaithful,
            ExecMode::Sequential,
            &mut bank,
        )
    };
    run(); // warms the bank
    calls(|| drop(run()))
}

/// Calls of one `batched_cube_prefix` run on Q_m with K lanes.
fn cube_prefix_calls(m: u32, lanes: usize) -> u64 {
    let q = Hypercube::new(m);
    let inputs = inputs(lanes, q.num_nodes());
    calls(|| drop(batched_cube_prefix(&q, &inputs, PrefixKind::Inclusive)))
}

/// Calls of one warm `batched_d_sort_reusing` run on the recursive D_n
/// with K lanes.
fn warm_sort_calls(n: u32, lanes: usize) -> u64 {
    let rec = RecDualCube::new(n);
    let keys: Vec<Vec<u64>> = (0..lanes as u64)
        .map(|k| {
            (0..rec.num_nodes() as u64)
                .map(|r| (r * 7919 + k) % 1009)
                .collect()
        })
        .collect();
    let mut bank = ScheduleBank::new();
    let mut run = || {
        batched_d_sort_reusing(
            &rec,
            &keys,
            SortOrder::Ascending,
            ExecMode::Sequential,
            &mut bank,
        )
    };
    run(); // warms the bank
    calls(|| drop(run()))
}

#[test]
fn batched_runs_allocate_per_run_not_per_node() {
    with_default_exec(ExecMode::Sequential, || {
        // A warm prefix run replays every cycle, so its count depends on
        // K alone (14 + K when this was written): D_6 has 8× the nodes
        // and two more cluster dimensions than D_4, and the same count.
        for lanes in [1, 8] {
            let small = warm_prefix_calls(4, lanes);
            let large = warm_prefix_calls(6, lanes);
            assert_eq!(
                small, large,
                "K={lanes}: a warm prefix run allocated {small} times on D_4 \
                 but {large} times on D_6"
            );
        }
        // A cube run has no bank: it compiles one schedule and labels one
        // phase per dimension, so its count may grow by a few calls per
        // dimension, never with the nodes (Q_10 has 16× Q_6's).
        for lanes in [1, 8] {
            let small = cube_prefix_calls(6, lanes);
            let large = cube_prefix_calls(10, lanes);
            assert!(
                large <= small + 4 * (10 - 6),
                "K={lanes}: a cube prefix run allocated {small} times on Q_6 \
                 but {large} times on Q_10"
            );
        }
        // A sort run labels two phases per level; beyond that its count
        // is per run. At 2048 nodes it must stay under one call per 32.
        for lanes in [1, 8] {
            let nodes = RecDualCube::new(6).num_nodes() as u64;
            let large = warm_sort_calls(6, lanes);
            assert!(
                large < nodes / 32,
                "K={lanes}: a warm sort run on {nodes} nodes allocated {large} times"
            );
        }
    });
}
