//! The four workloads: their plans, their inputs as a function of the
//! seed, their set-up, and one measured round of each with its output
//! check.

use crate::util::digest;
use ree_apps::BootSnapshot;
use ree_dist::{distribute, DistOptions, DistReport};
use ree_inject::{
    execute_warm_checked, ArmReport, Campaign, CampaignError, ErrorModel, NetFault, RunGeometry,
    RunPlan, RunResult, StoppingRule, Target,
};
use ree_mc::{model_check, McBounds, McReport};
use ree_sim::{SimDuration, SimTime};
use std::time::Instant;

/// Distinct pinned input sets; `--seed n` selects set `n % SETS`.
pub const SETS: u64 = 32;
/// Runs per round of the campaign workloads (and per `distribute` call).
pub const ROUND_RUNS: u32 = 1024;
/// `model_check` calls per round of `mc_sigint`.
pub const MC_SEEDS: u64 = 16;
/// Seed blocks of a set, each one round's seeds and each pinned.
pub const BLOCKS: u64 = 4;
/// Threads (and dist worker processes) a workload may use: the
/// reference machine's core count.
pub const THREADS: usize = 2;
/// Distinct adaptive campaigns of `time_to_ci_s` per set, each pinned.
pub const CI_SAMPLES: u64 = 5;
const BASE_SEED: u64 = 20020401;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Register,
    FtmPartition,
    DistRegister,
    McSigint,
}

impl Workload {
    pub const ALL: [Workload; 4] =
        [Workload::Register, Workload::FtmPartition, Workload::DistRegister, Workload::McSigint];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Register => "register",
            Workload::FtmPartition => "ftm_partition",
            Workload::DistRegister => "dist_register",
            Workload::McSigint => "mc_sigint",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Blocks the measured loop cycles through. Every sample is timed
    /// again on each pass and its fastest time kept, so fewer blocks
    /// give each sample more passes; one block of 1024 runs still has
    /// ten beyond its p99.
    pub fn blocks(self) -> u64 {
        match self {
            Workload::Register | Workload::FtmPartition | Workload::DistRegister => 1,
            Workload::McSigint => BLOCKS,
        }
    }
}

/// Scenario seed of every plan. It selects the boot, which is part of
/// the workload's definition: on `ftm_partition` some boots halve the
/// detections per run and cut simulated time by two thirds, so it is
/// held fixed and `--seed` varies the run seeds only.
pub const SCENARIO_SEED: u64 = BASE_SEED;

/// What one `--seed` selects: a workload's pinned input set.
#[derive(Clone, Copy, Debug)]
pub struct Inputs {
    pub workload: Workload,
    pub set: u64,
    /// First run seed.
    pub seed0: u64,
}

impl Inputs {
    pub fn new(workload: Workload, seed: u64) -> Inputs {
        let set = seed % SETS;
        Inputs { workload, set, seed0: BASE_SEED + (set << 20) }
    }

    /// The workload's plan.
    pub fn plan(&self) -> RunPlan {
        plan(self.workload)
    }

    /// Seeds of the round of block `block` (one seed per
    /// `model_check` call for `mc_sigint`).
    pub fn round_seeds(&self, block: u64) -> std::ops::Range<u64> {
        let n = match self.workload {
            Workload::McSigint => MC_SEEDS,
            _ => u64::from(ROUND_RUNS),
        };
        let start = self.seed0 + block * n;
        start..start + n
    }
}

/// The plan each workload runs.
pub fn plan(workload: Workload) -> RunPlan {
    let texture = |target, model, timeout_s, net_faults| RunPlan {
        scenario: ree_apps::Scenario::single_texture(SCENARIO_SEED),
        target,
        model,
        timeout: SimTime::from_secs(timeout_s),
        net_faults,
    };
    match workload {
        Workload::Register | Workload::DistRegister => {
            texture(Target::App, ErrorModel::Register, 220, vec![])
        }
        Workload::FtmPartition => texture(
            Target::Ftm,
            ErrorModel::Sigint,
            320,
            vec![NetFault::partition_on_recovery(
                vec![vec![0, 1], vec![2, 3]],
                SimDuration::from_secs(2),
            )],
        ),
        Workload::McSigint => ree_mc::presets::two_node_sigint_plan(SCENARIO_SEED),
    }
}

/// A plan made ready to run: validated, inputs and references
/// memoized, geometry derived, cluster booted.
pub struct Ready {
    pub plan: RunPlan,
    pub geometry: RunGeometry,
    pub snapshot: BootSnapshot,
}

/// Everything a campaign does once before its first run can start.
pub fn set_up(plan: &RunPlan) -> Result<Ready, CampaignError> {
    plan.validate()?;
    let scenario = &plan.scenario;
    scenario.warm_inputs();
    let t = &scenario.texture;
    for (slot, job) in scenario.jobs.iter().enumerate().filter(|(_, j)| j.app == "texture") {
        for image in 0..t.images {
            let reference = ree_apps::verify::texture_reference(
                &job.app,
                slot as u32,
                image,
                t.image_px,
                t.tile_px,
                t.clusters,
            );
            std::hint::black_box(reference);
        }
    }
    Ok(Ready { plan: plan.clone(), geometry: plan.geometry(), snapshot: plan.boot_snapshot() })
}

/// Options of every `distribute` call: `THREADS` worker processes.
pub fn dist_options() -> DistOptions {
    DistOptions::new(THREADS)
}

/// One `distribute` call's outcome after its output check.
pub struct DistCall {
    pub report: DistReport,
    pub secs: f64,
    /// Empty when the report completed in the pool and its aggregate is
    /// byte-identical to the in-process one.
    pub problem: Option<String>,
}

/// Runs `runs` seeds from `seed0` through the worker pool and checks the
/// aggregate against `expected`, the in-process `Campaign::aggregate`
/// over the same seeds.
pub fn dist_call(
    plan: &RunPlan,
    runs: u32,
    seed0: u64,
    options: &DistOptions,
    expected: &str,
) -> Result<DistCall, String> {
    let t = Instant::now();
    let report = distribute(plan, runs, seed0, options).map_err(|e| e.to_string())?;
    let secs = t.elapsed().as_secs_f64();
    let problem = if !report.completed() || report.fell_back {
        Some(format!(
            "distribute: {}/{} runs folded, fell back: {}, warnings: {:?}",
            report.runs_folded, report.runs_total, report.fell_back, report.warnings
        ))
    } else if format!("{:?}", report.aggregate) != expected {
        Some("distribute: aggregate differs from Campaign::aggregate".to_owned())
    } else {
        None
    };
    Ok(DistCall { report, secs, problem })
}

/// `Debug` rendering of the in-process aggregate over the same seeds —
/// the reference a distributed aggregate must equal byte for byte.
pub fn expected_aggregate(plan: &RunPlan, runs: u32, seed0: u64) -> String {
    format!("{:?}", Campaign::new(plan).runs(runs).seed(seed0).threads(THREADS).aggregate())
}

/// One warm run per seed on this thread, each timed.
pub fn campaign_round(
    ready: &Ready,
    seeds: std::ops::Range<u64>,
) -> Vec<(Result<RunResult, CampaignError>, f64)> {
    seeds
        .map(|seed| {
            let t = Instant::now();
            let r = execute_warm_checked(&ready.plan, &ready.geometry, &ready.snapshot, seed);
            (r, t.elapsed().as_secs_f64() * 1e3)
        })
        .collect()
}

/// A `model_check` call's report (or panic message) and host ms.
pub type McCall = (Result<McReport, String>, f64);

/// One `model_check` call per seed at paper bounds, on this thread,
/// each timed. Returns, in seed order, each call's report (or panic
/// message) and its host ms.
pub fn mc_round(seeds: std::ops::Range<u64>) -> Vec<McCall> {
    let plan = plan(Workload::McSigint);
    seeds
        .map(|seed| {
            let t = Instant::now();
            let report = mc_call(&plan, seed, &McBounds::paper());
            (report, t.elapsed().as_secs_f64() * 1e3)
        })
        .collect()
}

/// `model_check`, with a panic reported as an error.
pub fn mc_call(plan: &RunPlan, seed: u64, bounds: &McBounds) -> Result<McReport, String> {
    std::panic::catch_unwind(|| model_check(plan, seed, bounds))
        .map_err(|_| format!("model_check panicked on seed {seed}"))
}

/// The counts of a model-checking report that must repeat exactly.
fn mc_counts(r: &McReport) -> [u64; 9] {
    [
        r.explored,
        r.branch_nodes,
        r.forks,
        r.pruned,
        r.deepest as u64,
        r.sterile,
        r.discarded,
        u64::from(r.budget_exhausted),
        r.recovered,
    ]
}

/// Digest of a round of model-checking reports (counts and escapes).
pub fn mc_digest<'a>(reports: impl IntoIterator<Item = &'a Result<McReport, String>>) -> String {
    digest(reports.into_iter().map(|r| r.as_ref().map(|r| (mc_counts(r), r.escapes.len()))))
}

/// Threads of the `time_to_ci` campaign pool. One, because at two the
/// figure doubled and halved with the host's readiness to run the
/// second vCPU after a single-threaded round (README.md, "Why
/// `time_to_ci_s` runs on one thread"); the outcome is the same at
/// either count.
const CI_THREADS: usize = 1;

/// Host seconds for the adaptive engine to reach a ±2% Wilson
/// half-width at 95% on the recovery rate of `plan` from `seed0`, with a
/// 512-run budget.
pub fn time_to_ci(plan: &RunPlan, seed0: u64) -> (f64, ArmReport) {
    let rule = StoppingRule::default().half_width(0.02).max_runs(512);
    let t = Instant::now();
    let report = Campaign::new(plan).seed(seed0).threads(CI_THREADS).adaptive(&rule);
    (t.elapsed().as_secs_f64(), report)
}

/// The seed of the `i`th `time_to_ci` campaign.
pub fn ci_seed(inputs: &Inputs, i: u64) -> u64 {
    inputs.seed0 + i * 512
}

/// Digest of an adaptive report's outcome.
pub fn ci_digest(r: &ArmReport) -> String {
    digest([(r.runs, r.target_met, r.half_width)])
}
