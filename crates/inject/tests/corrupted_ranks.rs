//! Regression: a heap flip into the FTM's `app_param` record can set an
//! application's `ranks` to millions. The `app-restart-needed` handler
//! used to send one reliable STOP_APP per rank before the element's
//! assertion rejected the record, so seed 196643 of the Table 7 FTM plan
//! exhausted host memory instead of finishing.

use ree_apps::Scenario;
use ree_inject::{execute, ErrorModel, FailureClass, RunPlan, RunResult, Target};
use ree_sim::SimTime;

const SEED: u64 = 196_643;

/// The Table 7 FTM plan, with or without the elements' assertions.
fn run(assertions: bool) -> RunResult {
    let mut scenario = Scenario::single_texture(0);
    scenario.sift.assertions_enabled = assertions;
    let plan = RunPlan {
        scenario,
        target: Target::Ftm,
        model: ErrorModel::Heap,
        timeout: SimTime::from_secs(400),
        net_faults: vec![],
    };
    execute(&plan, SEED)
}

#[test]
fn corrupted_rank_count_fires_the_assertion_without_flooding() {
    let result = run(true);
    assert_eq!(result.induced, Some(FailureClass::Assertion), "{result:?}");
    assert!(result.recovered(), "the FTM recovers from its assertion: {result:?}");
}

#[test]
fn corrupted_rank_count_without_assertions_crashes_the_ftm() {
    let result = run(false);
    assert_eq!(result.induced, Some(FailureClass::SegFault), "{result:?}");
    assert!(result.recovered(), "the FTM recovers from the crash: {result:?}");
}
