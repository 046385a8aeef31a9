//! Campaign benchmark of the REE SIFT reproduction. See README.md.
//!
//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! prints a human-readable report and, as its last line, one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. It exits non-zero when an output check fails.
//!
//! `perfbench --pin --workload <name>` prints the workload's lines of
//! `pins.txt`, one per input set.

mod layers;
mod pins;
mod setup;
mod trace;
mod util;
mod workload;

use std::process::ExitCode;
use std::time::Instant;
use util::{median, percentile};
use workload::{Inputs, Workload, BLOCKS, CI_SAMPLES, ROUND_RUNS, SETS};

const USAGE: &str = "usage: perfbench --workload <register|ftm_partition|dist_register|mc_sigint> \
                     [--seed N] [--seconds S] [--trace 0|1] | --pin --workload W";
/// Set-ups timed per run for `setup_s`, spread evenly over the
/// measured loop so that they meet the same machine conditions as the
/// rounds.
const SETUP_SAMPLES: usize = 96;
/// Share of the samples re-timed after each round: the slowest by
/// their best so far. A sample whose every pass met a slow host would
/// otherwise stay among the slowest and set `run_ms_p99`; re-timed, it
/// drops out once it meets a quiet one, and a sample that is slow by
/// itself stays.
const TAIL_SHARE: f64 = 0.03;
/// Times the tail is re-timed after each round.
const TAIL_PASSES: usize = 8;
/// Share of the measured loop's time given to `time_to_ci` campaigns.
const CI_SHARE: f64 = 0.25;
/// Pins keys of the `BLOCKS` rounds' output digests.
const DIGEST_KEYS: [&str; BLOCKS as usize] = ["digest0", "digest1", "digest2", "digest3"];
/// Pins keys of the `CI_SAMPLES` adaptive campaigns' outcomes.
const CI_KEYS: [&str; CI_SAMPLES as usize] = ["ci0", "ci1", "ci2", "ci3", "ci4"];
/// `--seed` when none is given: the seed to develop a change on.
const DEFAULT_SEED: u64 = 0;

#[derive(Clone, Copy)]
enum Mode {
    Bench { trace: bool },
    SetupProbe,
    Pin,
}

struct Args {
    mode: Mode,
    inputs: Inputs,
    seed: u64,
    seconds: f64,
}

fn parse_args() -> Result<Args, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<Option<String>, String> {
        match args.iter().position(|a| a == flag) {
            None => Ok(None),
            Some(i) => args.get(i + 1).cloned().map(Some).ok_or(format!("{flag} needs a value")),
        }
    };
    let name = value("--workload")?.ok_or("--workload is required")?;
    let workload = Workload::parse(&name).ok_or(format!("unknown workload {name:?}"))?;
    let seed = match value("--seed")? {
        Some(s) => s.parse().map_err(|_| format!("--seed {s:?} is not an unsigned integer"))?,
        None => DEFAULT_SEED,
    };
    let seconds: f64 = match value("--seconds")? {
        Some(s) => s.parse().ok().filter(|s: &f64| *s >= 0.0).ok_or("--seconds must be >= 0")?,
        None => 10.0,
    };
    let trace = match value("--trace")?.as_deref() {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    let flag = |f: &str| args.iter().any(|a| a == f);
    let mode = if flag("--setup-probe") {
        Mode::SetupProbe
    } else if flag("--pin") {
        Mode::Pin
    } else {
        Mode::Bench { trace }
    };
    Ok(Args { mode, inputs: Inputs::new(workload, seed), seed, seconds })
}

/// What a run measured and checked.
#[derive(Default)]
struct Outcome {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    metrics: Vec<(&'static str, f64, &'static str)>,
    /// One line per metric for the human-readable report.
    notes: Vec<String>,
}

impl Outcome {
    fn metric(&mut self, name: &'static str, value: f64, unit: &'static str, note: String) {
        self.metrics.push((name, value, unit));
        self.notes.push(format!("{name:<26} {value:>14.6} {unit:<6} {note}"));
    }

    fn check(&mut self, inputs: Inputs, key: &'static str, got: String, runs: u64) {
        let mismatches = pins::check(inputs.workload.name(), inputs.set, &[(key, got)]);
        if !mismatches.is_empty() {
            self.failed += runs;
            self.problems.extend(mismatches);
        }
    }
}

/// What a workload's rounds run on.
enum Round {
    Campaign(Box<workload::Ready>),
    /// Per block, the `Debug` rendering of the in-process aggregate.
    Dist(Vec<String>),
    Mc,
}

/// One timed sample of a round: a run, a `model_check` call on
/// `mc_sigint`, a whole `distribute` call on `dist_register`.
#[derive(Clone, Copy)]
struct Sample {
    ms: f64,
    /// Completed runs it holds (explored executions on `mc_sigint`).
    runs: u64,
}

/// One round's measurements and outputs.
struct RoundOut {
    /// In seed order (one per call on `dist_register`).
    samples: Vec<Sample>,
    /// Digest of the round's outputs, to compare with the block's pin.
    digest: String,
    /// Digest of each sample's output, to compare a re-timed sample with.
    outputs: Vec<String>,
    /// Runs that completed and whose outputs the digest covers.
    completed: u64,
}

impl Round {
    /// A round on each of the first `blocks` blocks of `inputs`.
    fn new(inputs: Inputs, blocks: u64) -> Result<Round, String> {
        let plan = inputs.plan();
        Ok(match inputs.workload {
            Workload::Register | Workload::FtmPartition => {
                Round::Campaign(Box::new(workload::set_up(&plan).map_err(|e| e.to_string())?))
            }
            Workload::DistRegister => Round::Dist(
                (0..blocks)
                    .map(|b| {
                        let seed0 = inputs.round_seeds(b).start;
                        workload::expected_aggregate(&plan, ROUND_RUNS, seed0)
                    })
                    .collect(),
            ),
            Workload::McSigint => Round::Mc,
        })
    }

    /// Runs block `block`'s round; failures go to `o`.
    fn run(&self, inputs: Inputs, block: u64, o: &mut Outcome) -> Result<RoundOut, String> {
        let n = u64::from(ROUND_RUNS);
        let seeds = inputs.round_seeds(block);
        match self {
            Round::Campaign(ready) => {
                let round = workload::campaign_round(ready, seeds);
                let problems: Vec<String> = round
                    .iter()
                    .filter_map(|(r, _)| r.as_ref().err())
                    .map(|e| e.to_string())
                    .collect();
                let panicked = problems.len() as u64;
                o.attempted += n;
                o.failed += panicked;
                o.problems.extend(problems);
                Ok(RoundOut {
                    samples: round
                        .iter()
                        .map(|(r, ms)| Sample { ms: *ms, runs: u64::from(r.is_ok()) })
                        .collect(),
                    digest: util::digest(round.iter().map(|(r, _)| r)),
                    outputs: round.iter().map(|(r, _)| util::digest([r])).collect(),
                    completed: n - panicked,
                })
            }
            Round::Dist(expected) => {
                let expected = &expected[block as usize];
                let options = workload::dist_options();
                let call = workload::dist_call(
                    &inputs.plan(),
                    ROUND_RUNS,
                    seeds.start,
                    &options,
                    expected,
                )?;
                o.attempted += n;
                let completed = if let Some(problem) = call.problem {
                    o.failed += n;
                    o.problems.push(problem);
                    0
                } else {
                    n
                };
                Ok(RoundOut {
                    samples: vec![Sample { ms: call.secs * 1e3, runs: completed }],
                    digest: util::digest([expected]),
                    outputs: vec![util::digest([expected])],
                    completed,
                })
            }
            Round::Mc => {
                let round = workload::mc_round(seeds);
                let escaped = round
                    .iter()
                    .filter(|(r, _)| r.as_ref().is_ok_and(|r| !r.escapes.is_empty()))
                    .count();
                let panicked: Vec<String> =
                    round.iter().filter_map(|(r, _)| r.as_ref().err()).cloned().collect();
                if escaped > 0 {
                    o.problems.push(format!("model_check: {escaped} calls with escapes"));
                }
                let failed = (panicked.len() + escaped) as u64;
                o.problems.extend(panicked);
                o.attempted += round.len() as u64;
                o.failed += failed;
                Ok(RoundOut {
                    samples: round
                        .iter()
                        .map(|(r, ms)| Sample {
                            ms: *ms,
                            runs: r.as_ref().map_or(0, |r| r.explored),
                        })
                        .collect(),
                    digest: workload::mc_digest(round.iter().map(|(r, _)| r)),
                    outputs: round.iter().map(|(r, _)| workload::mc_digest([r])).collect(),
                    completed: round.len() as u64 - failed,
                })
            }
        }
    }

    /// Times sample `i` of block `block` again, alone, and returns it
    /// with the digest of its output; `None` on `dist_register`, whose
    /// samples are whole `distribute` calls.
    fn retime(&self, inputs: Inputs, block: u64, i: usize) -> Option<(Sample, String)> {
        let seed = inputs.round_seeds(block).start + i as u64;
        match self {
            Round::Campaign(ready) => {
                let (r, ms) = workload::campaign_round(ready, seed..seed + 1).pop()?;
                Some((Sample { ms, runs: u64::from(r.is_ok()) }, util::digest([&r])))
            }
            Round::Mc => {
                let (r, ms) = workload::mc_round(seed..seed + 1).pop()?;
                let runs = r.as_ref().map_or(0, |r| r.explored);
                Some((Sample { ms, runs }, workload::mc_digest([&r])))
            }
            Round::Dist(_) => None,
        }
    }
}

/// The fastest time seen for each of a fixed list of items timed
/// again and again: the samples of a round, or a `time_to_ci` campaign.
/// The host this benchmark was tuned on changes speed by up to half
/// within seconds (CPU time moves with wall time, so it is not stolen
/// time), and a pass's speed depends on when it ran. Timing every item
/// on several passes and keeping each one's fastest reads the program
/// at the host's quiet speed.
struct Fastest<T> {
    best: Vec<Option<T>>,
    passes: Vec<u32>,
}

impl<T: Copy> Fastest<T> {
    fn new(items: usize) -> Fastest<T> {
        Fastest { best: vec![None; items], passes: vec![0; items] }
    }

    /// Records a timing of item `i`, kept if faster than its best.
    fn record(&mut self, i: usize, value: T, ms: impl Fn(&T) -> f64) {
        self.passes[i] += 1;
        if self.best[i].as_ref().is_none_or(|b| ms(&value) < ms(b)) {
            self.best[i] = Some(value);
        }
    }

    /// The `k` items with the slowest best so far, slowest first.
    fn slowest(&self, k: usize, ms: impl Fn(&T) -> f64) -> Vec<usize> {
        let mut timed: Vec<(usize, f64)> =
            self.best.iter().enumerate().filter_map(|(i, b)| Some((i, ms(b.as_ref()?)))).collect();
        timed.sort_by(|a, b| b.1.total_cmp(&a.1));
        timed.into_iter().take(k).map(|(i, _)| i).collect()
    }

    fn all_timed(&self) -> bool {
        self.passes.iter().all(|&p| p > 0)
    }

    fn values(&self) -> impl Iterator<Item = T> + '_ {
        self.best.iter().flatten().copied()
    }

    /// Fewest and most passes over the items.
    fn pass_range(&self) -> (u32, u32) {
        let min = self.passes.iter().min().copied().unwrap_or(0);
        (min, self.passes.iter().max().copied().unwrap_or(0))
    }
}

/// The untraced run: end-to-end metrics. Each pass of the measured
/// loop runs a round on the next of the workload's blocks; then times
/// the `TAIL_SHARE` of samples with the slowest best again, alone,
/// `TAIL_PASSES` times; then the next of the `time_to_ci` campaigns
/// until campaigns have had `CI_SHARE` of the time so far; then the
/// set-ups that are due, so all of them see the same machine
/// conditions. A pass starts while less than half of the longest pass
/// would run past `seconds`, and until every sample and every campaign
/// has been timed once.
fn untraced(inputs: Inputs, seconds: f64) -> Result<Outcome, String> {
    let w = inputs.workload;
    let blocks = w.blocks();
    let ci_plan = workload::plan(Workload::Register);
    let mut o = Outcome::default();
    let round = Round::new(inputs, blocks)?;
    let per_block = match w {
        Workload::McSigint => workload::MC_SEEDS as usize,
        Workload::DistRegister => 1,
        _ => ROUND_RUNS as usize,
    };
    let mut runs = Fastest::<Sample>::new(blocks as usize * per_block);
    let mut outputs: Vec<Option<String>> = vec![None; runs.best.len()];
    let mut ci = Fastest::<f64>::new(CI_SAMPLES as usize);
    let mut ci_runs = vec![0; CI_SAMPLES as usize];
    let mut setup = Vec::with_capacity(SETUP_SAMPLES);
    let start = Instant::now();
    let (mut pass, mut ci_done) = (0, 0);
    let (mut longest_pass, mut ci_secs) = (0.0_f64, 0.0);
    while !runs.all_timed()
        || !ci.all_timed()
        || start.elapsed().as_secs_f64() + longest_pass / 2.0 < seconds
    {
        let t = Instant::now();
        let block = pass % blocks;
        let out = round.run(inputs, block, &mut o)?;
        o.check(inputs, DIGEST_KEYS[block as usize], out.digest, out.completed);
        for (i, (sample, output)) in out.samples.into_iter().zip(out.outputs).enumerate() {
            let i = block as usize * per_block + i;
            runs.record(i, sample, |s| s.ms);
            outputs[i].get_or_insert(output);
        }
        let tail = (runs.best.len() as f64 * TAIL_SHARE).ceil() as usize;
        for _ in 0..TAIL_PASSES {
            for i in runs.slowest(tail, |s| s.ms) {
                let (b, j) = ((i / per_block) as u64, i % per_block);
                let Some((sample, output)) = round.retime(inputs, b, j) else { break };
                o.attempted += 1;
                if outputs[i].as_ref() != Some(&output) {
                    o.failed += 1;
                    o.problems.push(format!("sample {j} of block {b}: re-timed output differs"));
                }
                runs.record(i, sample, |s| s.ms);
            }
        }
        while ci_secs <= CI_SHARE * start.elapsed().as_secs_f64() || !ci.all_timed() {
            let i = ci_done % CI_SAMPLES;
            let (secs, report) = workload::time_to_ci(&ci_plan, workload::ci_seed(&inputs, i));
            let ci_runs_now = u64::from(report.runs);
            o.attempted += ci_runs_now;
            o.check(inputs, CI_KEYS[i as usize], workload::ci_digest(&report), ci_runs_now);
            ci.record(i as usize, secs, |s| *s);
            ci_runs[i as usize] = report.runs;
            ci_secs += secs;
            ci_done += 1;
        }
        let share = start.elapsed().as_secs_f64() / seconds.max(f64::MIN_POSITIVE);
        let due = ((SETUP_SAMPLES as f64 * share).ceil() as usize).min(SETUP_SAMPLES);
        while setup.len() < due {
            setup.push(setup::sample(inputs)?);
        }
        longest_pass = longest_pass.max(t.elapsed().as_secs_f64());
        pass += 1;
    }
    while setup.len() < SETUP_SAMPLES {
        setup.push(setup::sample(inputs)?);
    }
    let rss = util::peak_rss_mb().ok_or("cannot read peak RSS")?;

    let best: Vec<Sample> = runs.values().collect();
    let latency: Vec<f64> = match w {
        Workload::DistRegister => best.iter().map(|s| s.ms / s.runs.max(1) as f64).collect(),
        _ => best.iter().map(|s| s.ms).collect(),
    };
    let total_ms: f64 = best.iter().map(|s| s.ms).sum();
    let total_runs: u64 = best.iter().map(|s| s.runs).sum();
    let (fewest, most) = runs.pass_range();
    let sample_note = match w {
        Workload::McSigint => format!("{} model_check calls", latency.len()),
        Workload::DistRegister => {
            format!("{} seed blocks, per run of each 1024-run distribute call", latency.len())
        }
        _ => format!("{} seeds", latency.len()),
    };
    let fastest_note = format!("fastest of {fewest}..={most} passes each, over {sample_note}");
    let setup_note = match w {
        Workload::DistRegister => "worker pool start-ups",
        _ => "set-ups, each in a fresh process",
    };
    o.metric("setup_s", median(&setup), "s", format!("median of {} {setup_note}", setup.len()));
    let rate_unit = match w {
        Workload::McSigint => "explored executions",
        _ => "runs",
    };
    o.metric(
        "runs_per_s",
        total_runs as f64 * 1e3 / total_ms,
        "1/s",
        format!("{total_runs} {rate_unit} over the summed {fastest_note}"),
    );
    o.metric("run_ms_p50", median(&latency), "ms", format!("median; {fastest_note}"));
    o.metric("run_ms_p99", percentile(&latency, 99.0), "ms", format!("p99; {fastest_note}"));
    // The mean, not the median: a set's campaigns stop after 128 or
    // 160 runs, and the median would jump by a quarter with the mix.
    let ci_best: Vec<f64> = ci.values().collect();
    let (fewest, most) = ci.pass_range();
    o.metric(
        "time_to_ci_s",
        ci_best.iter().sum::<f64>() / ci_best.len().max(1) as f64,
        "s",
        format!(
            "±2% at 95%; mean over {} campaigns of {}..={} runs, fastest of {fewest}..={most} \
             passes each",
            ci_best.len(),
            ci_runs.iter().min().unwrap_or(&0),
            ci_runs.iter().max().unwrap_or(&0)
        ),
    );
    o.metric("peak_rss_mb", rss, "MiB", "largest of this process and its children".to_owned());
    let failed_frac = o.failed as f64 / o.attempted.max(1) as f64;
    o.metric(
        "completed_frac",
        1.0 - failed_frac,
        "frac",
        format!("{} of {} attempted", o.attempted - o.failed.min(o.attempted), o.attempted),
    );
    o.notes.push(format!(
        "{:<26} {failed_frac:>14.6} {:<6} {} failed",
        "failed_frac", "frac", o.failed
    ));
    Ok(o)
}

/// The traced run: per-layer metrics, spans written to `spans`.
fn traced(inputs: Inputs, seconds: f64, spans: &str) -> Result<Outcome, String> {
    let ready = workload::set_up(&inputs.plan()).map_err(|e| e.to_string())?;
    let t = layers::run(inputs, &ready, seconds, true);
    let mut o = Outcome {
        attempted: t.attempted,
        failed: t.failed,
        problems: t.problems,
        ..Outcome::default()
    };
    for (name, value, unit) in t.metrics {
        o.metric(name, value, unit, String::new());
    }
    match t.tracer.write_jsonl(std::path::Path::new(spans)) {
        Ok(()) => o.notes.push(format!("{} spans written to {spans}", t.tracer.len())),
        Err(e) => o.notes.push(format!("spans not written to {spans}: {e}")),
    }
    Ok(o)
}

/// Prints the pins line of every input set of `workload`.
fn pin(workload: Workload) -> Result<(), String> {
    for set in 0..SETS {
        let inputs = Inputs::new(workload, set);
        let plan = inputs.plan();
        let round = Round::new(inputs, BLOCKS)?;
        let mut o = Outcome::default();
        let mut values = Vec::new();
        for block in 0..BLOCKS {
            values.push((DIGEST_KEYS[block as usize], round.run(inputs, block, &mut o)?.digest));
        }
        if !o.problems.is_empty() {
            return Err(o.problems.join("\n"));
        }
        let ci_plan = workload::plan(Workload::Register);
        let ci = (0..CI_SAMPLES).map(|i| {
            let report = workload::time_to_ci(&ci_plan, workload::ci_seed(&inputs, i)).1;
            (CI_KEYS[i as usize], workload::ci_digest(&report))
        });
        let ready = workload::set_up(&plan).map_err(|e| e.to_string())?;
        let traced = layers::run(inputs, &ready, 0.0, false);
        if !traced.problems.is_empty() {
            return Err(traced.problems.join("\n"));
        }
        values.extend(ci);
        values.extend(traced.counts);
        println!("{}", pins::line(inputs.workload.name(), set, &values));
    }
    Ok(())
}

fn json(correct: bool, o: &Outcome) -> String {
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.attempted,
        o.failed,
        metrics.join(", ")
    )
}

/// Runs this invocation again as a child and passes on its exit code.
/// `peak_rss_mb` reads the peak of the finished children, and a process
/// that `cargo run` replaced by `exec` carries the peak of the compiler
/// processes cargo waited for; its child starts with none.
fn rerun_in_child() -> ExitCode {
    let status = std::env::current_exe()
        .and_then(|exe| std::process::Command::new(exe).args(std::env::args_os().skip(1)).status());
    match status.map(|s| s.code()) {
        Ok(Some(code)) => ExitCode::from(u8::try_from(code).unwrap_or(1)),
        Ok(None) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perfbench: cannot re-run in a child: {e}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    // A worker of a `dist_register` pool is this binary re-executed.
    ree_dist::run_worker_if_spawned();
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if matches!(args.mode, Mode::Bench { trace: false }) && util::inherited_children_peak() {
        return rerun_in_child();
    }
    let inputs = args.inputs;
    let result = match args.mode {
        Mode::SetupProbe => {
            let t = Instant::now();
            workload::set_up(&inputs.plan())
                .map(|_| println!("{}", t.elapsed().as_secs_f64()))
                .map_err(|e| e.to_string())
        }
        Mode::Pin => pin(inputs.workload),
        Mode::Bench { trace } => {
            println!(
                "workload {} seed {} (input set {} of {SETS}, first run seed {}), {} s, trace {}",
                inputs.workload.name(),
                args.seed,
                inputs.set,
                inputs.seed0,
                args.seconds,
                u8::from(trace)
            );
            let outcome = if trace {
                let spans =
                    format!("perfbench/out/spans-{}-{}.jsonl", inputs.workload.name(), args.seed);
                traced(inputs, args.seconds, &spans)
            } else {
                untraced(inputs, args.seconds)
            };
            outcome
                .map(|o| {
                    for line in &o.notes {
                        println!("{line}");
                    }
                    for p in &o.problems {
                        eprintln!("CHECK FAILED: {p}");
                    }
                    let correct = o.problems.is_empty()
                        && o.failed == 0
                        && o.metrics.iter().all(|(_, v, _)| v.is_finite());
                    println!("{}", json(correct, &o));
                    correct
                })
                .and_then(
                    |correct| if correct { Ok(()) } else { Err("output checks failed".to_owned()) },
                )
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
