//! Exact allocation gate for warm campaign runs.
//!
//! Heap allocations per run are a pure function of (plan, seed) and of
//! the code, not of the machine's speed, so they give a deterministic
//! performance gate where wall-clock throughput can only be advisory.
//! The counting allocator below counts per thread, so tests running in
//! parallel in this binary do not leak into each other's counts.
//!
//! Each plan is booted once, warmed by one run (memoized inputs and
//! references are built on first use), and then 32 fixed seeds are run
//! on this thread. The ceilings sit about 10% above the measured counts;
//! a change that copies on the ARMOR message or checkpoint path again
//! fails here.

use ree_inject::{execute_warm_checked, ErrorModel, NetFault, RunPlan, Target};
use ree_sim::{SimDuration, SimTime};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: allocations during thread teardown are not counted.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; counting touches only a const-initialised thread-local
// `Cell`, which neither allocates nor unwinds.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

const SCENARIO_SEED: u64 = 20020401;
const SEED0: u64 = 20020401;
const RUNS: u64 = 32;

/// Allocations per warm run, about 10% above the measured 2,912 and
/// 5,453 (6,303 and 14,058 before messages and checkpoint images were
/// shared instead of copied).
const REGISTER_CEILING: u64 = 3_200;
const FTM_PARTITION_CEILING: u64 = 6_000;

fn texture(
    target: Target,
    model: ErrorModel,
    timeout_s: u64,
    net_faults: Vec<NetFault>,
) -> RunPlan {
    RunPlan {
        scenario: ree_apps::Scenario::single_texture(SCENARIO_SEED),
        target,
        model,
        timeout: SimTime::from_secs(timeout_s),
        net_faults,
    }
}

/// Register flips into the texture application (the heaviest Table 2
/// protocol): checkpoint commits on every ARMOR send, no restores.
fn register_plan() -> RunPlan {
    texture(Target::App, ErrorModel::Register, 220, vec![])
}

/// SIGINT into the FTM with a 2 s partition at detection: recovery and
/// checkpoint restore on nearly every run.
fn ftm_partition_plan() -> RunPlan {
    texture(
        Target::Ftm,
        ErrorModel::Sigint,
        320,
        vec![NetFault::partition_on_recovery(
            vec![vec![0, 1], vec![2, 3]],
            SimDuration::from_secs(2),
        )],
    )
}

/// Mean heap allocations per warm run over `RUNS` fixed seeds, after one
/// warm-up run.
fn allocs_per_run(plan: &RunPlan) -> u64 {
    let geometry = plan.geometry();
    let snapshot = plan.boot_snapshot();
    execute_warm_checked(plan, &geometry, &snapshot, SEED0 - 1).expect("warm-up run completes");
    let before = allocs();
    for seed in SEED0..SEED0 + RUNS {
        execute_warm_checked(plan, &geometry, &snapshot, seed).expect("run completes");
    }
    (allocs() - before) / RUNS
}

#[test]
fn register_allocations_per_run_stay_below_ceiling() {
    let per_run = allocs_per_run(&register_plan());
    eprintln!("register: {per_run} allocations per run");
    assert!(
        per_run <= REGISTER_CEILING,
        "register: {per_run} allocations per run > {REGISTER_CEILING}"
    );
}

#[test]
fn ftm_partition_allocations_per_run_stay_below_ceiling() {
    let per_run = allocs_per_run(&ftm_partition_plan());
    eprintln!("ftm_partition: {per_run} allocations per run");
    assert!(
        per_run <= FTM_PARTITION_CEILING,
        "ftm_partition: {per_run} allocations per run > {FTM_PARTITION_CEILING}"
    );
}
