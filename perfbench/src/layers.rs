//! The traced run: per-layer counts and times, from spans the benchmark
//! records around its own calls into each crate.
//!
//! A pass runs, under root spans:
//! - `setup`: a boot (`apps.boot`) and one image through the texture
//!   kernels (`apps.texture_image`);
//! - `mc.call` (on `mc_sigint`, one per seed, the workload's own calls)
//!   or `mc.smoke` (elsewhere, one `McBounds::smoke` check of the
//!   workload's plan without its network faults, a separate call);
//! - `dist.call` (on `dist_register`): one `distribute` of the probe
//!   seeds;
//! - `run`, once per probe seed: the injected run as the campaign makes
//!   it (`inject.execute_warm_checked`), and separate calls on the same
//!   inputs for what that call hides — the fork (`apps.fork`), a state
//!   digest of it (`os.state_digest`), its fault-free continuation
//!   (`os.fault_free_run`), and the run again (`inject.execute_warm_full`)
//!   for its finished cluster, which is classified (`inject.classify`)
//!   and whose checkpoint images are decoded (`armor.ckpt_decode`);
//! - `batch`, once per 16 results: the dist wire codec on a `BatchDone`
//!   of them (`dist.encode`, `dist.decode`).
//!
//! Counts come from the first pass, are pinned, and must repeat exactly
//! on every later pass.

use crate::pins;
use crate::trace::Tracer;
use crate::util::{median, Fnv};
use crate::workload::{self, Inputs, Ready, Workload};
use ree_armor::CheckpointBuffer;
use ree_dist::{decode_msg, encode_frame_msg, Msg};
use ree_inject::{
    classify_system_failure, execute_warm_checked, execute_warm_full, verify_outputs, Aggregate,
    RunResult,
};
use ree_mc::{McBounds, McReport};
use ree_os::{NodeId, Trace, TraceEvent};
use std::hint::black_box;
use std::time::Instant;

/// Injected runs per pass (one `distribute` call's worth on
/// `dist_register`, the first seeds of the round).
pub const PROBE_RUNS: u64 = 128;
/// Results per `BatchDone` frame, as `DistOptions::new` batches them.
const WIRE_BATCH: usize = 16;

const DETECTIONS: [TraceEvent; 6] = [
    TraceEvent::HangDetected,
    TraceEvent::CrashDetected,
    TraceEvent::AppHangDetected,
    TraceEvent::AppCrashDetected,
    TraceEvent::FtmFailureDetected,
    TraceEvent::NodeFailureDetected,
];

fn sift_counts(trace: &Trace) -> (u64, u64) {
    let detections = DETECTIONS.iter().map(|&e| trace.count_of(e)).sum();
    (detections, trace.count_of(TraceEvent::RecoveryCompleted))
}

/// Per-run work counts, summed over one pass. Deterministic.
#[derive(Clone, Default, PartialEq)]
struct Counts {
    runs: u64,
    results: Vec<String>,
    events: u64,
    sim_us: u64,
    trace_records: u64,
    packets: u64,
    bytes: u64,
    net_faults: u64,
    ckpt_writes: u64,
    ckpt_bytes: u64,
    ckpt_images: u64,
    ckpt_undecodable: u64,
    detections: u64,
    recoveries: u64,
    recovery_s: f64,
    recovery_n: u64,
    injections: u64,
    wire_bytes: u64,
    wire_results: u64,
    mc_calls: u64,
    mc_explored: u64,
    mc_forks: u64,
    mc_pruned: u64,
    dist_requeued: u64,
    dist_fallback: u64,
}

impl Counts {
    fn pinned_values(&self) -> Vec<(&'static str, String)> {
        let mut v = vec![("t.digest", crate::util::digest(&self.results))];
        for (k, n) in [
            ("t.runs", self.runs),
            ("sim.events", self.events),
            ("sim.us", self.sim_us),
            ("os.trace_records", self.trace_records),
            ("net.packets", self.packets),
            ("net.bytes", self.bytes),
            ("net.faults", self.net_faults),
            ("armor.ckpt_writes", self.ckpt_writes),
            ("armor.ckpt_bytes", self.ckpt_bytes),
            ("armor.ckpt_images", self.ckpt_images),
            ("armor.ckpt_undecodable", self.ckpt_undecodable),
            ("sift.detections", self.detections),
            ("sift.recoveries", self.recoveries),
            ("sift.recovery_n", self.recovery_n),
            ("inject.injections", self.injections),
            ("dist.wire_bytes", self.wire_bytes),
            ("dist.wire_results", self.wire_results),
            ("dist.requeued", self.dist_requeued),
            ("dist.fallback_runs", self.dist_fallback),
            ("mc.calls", self.mc_calls),
            ("mc.explored", self.mc_explored),
            ("mc.forks", self.mc_forks),
            ("mc.pruned", self.mc_pruned),
        ] {
            v.push((k, n.to_string()));
        }
        v.push(("sift.recovery_s", format!("{:?}", self.recovery_s)));
        v
    }
}

/// Snapshot-time values that per-run counts are measured from.
struct Base {
    trace_len: usize,
    sift: (u64, u64),
    ckpt: (u64, u64),
    booted_us: u64,
}

fn ckpt_totals(running: &mut ree_apps::Running) -> (u64, u64) {
    (0..running.cluster.node_count()).fold((0, 0), |(w, b), n| {
        let disk = running.cluster.ramdisk(NodeId(n as u16));
        (w + disk.writes(), b + disk.bytes_written())
    })
}

/// Decodes every checkpoint image left on the nodes' RAM disks; returns
/// `(images, undecodable)`.
fn decode_checkpoints(running: &mut ree_apps::Running) -> (u64, u64) {
    let mut counts = (0, 0);
    for n in 0..running.cluster.node_count() {
        let disk = running.cluster.ramdisk(NodeId(n as u16));
        for path in disk.paths().filter(|p| p.starts_with("ckpt/")) {
            let image = disk.read(path).expect("listed path exists");
            counts.0 += 1;
            counts.1 += u64::from(black_box(CheckpointBuffer::decode(image)).is_err());
        }
    }
    counts
}

/// Events a fork executes to completion (or its plan's timeout) with no
/// fault injected, counted by the `run_until_pred` predicate.
fn fault_free_events(running: &mut ree_apps::Running, horizon: ree_sim::SimTime) -> u64 {
    let (mut calls, mut seen, mut done) = (0u64, u64::MAX, false);
    running.cluster.run_until_pred(horizon, |c| {
        calls += 1;
        let fs = c.remote_fs_ref();
        if fs.version() != seen {
            seen = fs.version();
            done = fs.peek("scc/alldone").is_some();
        }
        done
    });
    // The predicate also runs once before the first event.
    calls - 1
}

/// One image's filter bank and k-means through the public kernels, on
/// the scenario's first texture input.
fn texture_image(scenario: &ree_apps::Scenario) -> usize {
    use ree_apps::filters::{assemble_features, filter_tiles, NUM_FILTERS};
    let t = &scenario.texture;
    let seed = ree_apps::texture::texture_image_seed("texture", 0, 0);
    let image = ree_apps::synth::mars_surface_shared(t.image_px, seed);
    let n_tiles = (t.image_px / t.tile_px).pow(2);
    let per_filter: Vec<_> =
        (0..NUM_FILTERS).map(|f| filter_tiles(&image, f, 0..n_tiles, t.tile_px)).collect();
    let features = assemble_features(&per_filter, n_tiles);
    ree_apps::kmeans::kmeans(&features, NUM_FILTERS, t.clusters, 50).iterations
}

struct Pass<'a> {
    inputs: Inputs,
    ready: &'a Ready,
    base: Base,
    /// In-process aggregate of the probe seeds (`dist_register`).
    dist_expected: Option<String>,
    mc_plan: ree_inject::RunPlan,
    problems: Vec<String>,
    failed: u64,
    attempted: u64,
}

impl Pass<'_> {
    fn run(&mut self, tr: &mut Tracer, pass: u64) -> Counts {
        let mut c = Counts::default();
        let plan = &self.ready.plan;
        tr.root("setup", pass, |tr| {
            let snapshot = tr.span("apps.boot", |_| plan.boot_snapshot());
            tr.span("bench.drop", |_| drop(snapshot));
            black_box(tr.span("apps.texture_image", |_| texture_image(&plan.scenario)));
        });
        if self.inputs.workload == Workload::McSigint {
            for seed in self.inputs.round_seeds(0) {
                let report = tr.root("mc.call", seed, |tr| {
                    tr.span("mc.model_check", |_| workload::mc_call(plan, seed, &McBounds::paper()))
                });
                self.absorb_mc(&mut c, report);
            }
        } else {
            let report = tr.root("mc.smoke", pass, |tr| {
                tr.span("mc.model_check", |_| {
                    workload::mc_call(&self.mc_plan, self.inputs.seed0, &McBounds::smoke())
                })
            });
            self.absorb_mc(&mut c, report);
        }
        if let Some(expected) = &self.dist_expected {
            let call = tr.root("dist.call", pass, |tr| {
                tr.span("dist.distribute", |_| {
                    workload::dist_call(
                        plan,
                        PROBE_RUNS as u32,
                        self.inputs.seed0,
                        &workload::dist_options(),
                        expected,
                    )
                })
            });
            self.attempted += PROBE_RUNS;
            match call {
                Ok(call) => {
                    c.dist_requeued += call.report.ledger.requeued;
                    c.dist_fallback += call.report.ledger.fallback_runs;
                    if let Some(p) = call.problem {
                        self.failed += PROBE_RUNS;
                        self.problems.push(p);
                    }
                }
                Err(e) => {
                    self.failed += PROBE_RUNS;
                    self.problems.push(e);
                }
            }
        }
        let mut agg = Aggregate::default();
        let mut batch = Vec::with_capacity(WIRE_BATCH);
        for seed in self.inputs.seed0..self.inputs.seed0 + self.probe_runs() {
            if let Some(result) = self.run_one(tr, seed, &mut c, &mut agg) {
                batch.push(result);
            }
            if batch.len() == WIRE_BATCH {
                self.wire(tr, std::mem::take(&mut batch), &mut c);
            }
        }
        if !batch.is_empty() {
            self.wire(tr, batch, &mut c);
        }
        black_box(agg);
        c
    }

    fn probe_runs(&self) -> u64 {
        match self.inputs.workload {
            Workload::McSigint => workload::MC_SEEDS,
            _ => PROBE_RUNS,
        }
    }

    fn absorb_mc(&mut self, c: &mut Counts, report: Result<McReport, String>) {
        self.attempted += 1;
        let report = match report {
            Ok(report) => report,
            Err(e) => {
                self.failed += 1;
                self.problems.push(e);
                return;
            }
        };
        c.mc_calls += 1;
        c.mc_explored += report.explored;
        c.mc_forks += report.forks;
        c.mc_pruned += report.pruned;
        if !report.escapes.is_empty() {
            self.failed += 1;
            self.problems.push(format!("model_check: {} escapes", report.escapes.len()));
        }
    }

    fn run_one(
        &mut self,
        tr: &mut Tracer,
        seed: u64,
        c: &mut Counts,
        agg: &mut Aggregate,
    ) -> Option<RunResult> {
        let Ready { plan, geometry, snapshot } = self.ready;
        self.attempted += 1;
        tr.root("run", seed, |tr| {
            let mut fork = tr.span("apps.fork", |_| snapshot.fork(seed));
            tr.span("os.state_digest", |_| {
                let mut h = Fnv::new();
                fork.cluster.write_state_digest(&mut h);
                black_box(std::hash::Hasher::finish(&h));
            });
            let events =
                tr.span("os.fault_free_run", |_| fault_free_events(&mut fork, plan.timeout));
            tr.span("bench.drop", |_| drop(fork));
            let checked = tr.span("inject.execute_warm_checked", |_| {
                execute_warm_checked(plan, geometry, snapshot, seed)
            });
            let result = match checked {
                Ok(r) => r,
                Err(e) => {
                    self.failed += 1;
                    self.problems.push(e.to_string());
                    c.results.push(format!("{e:?}"));
                    return None;
                }
            };
            let (again, mut running) = tr.span("inject.execute_warm_full", |_| {
                execute_warm_full(plan, geometry, snapshot, seed)
            });
            tr.span("inject.classify", |_| {
                black_box((
                    verify_outputs(&running, &plan.scenario),
                    classify_system_failure(&running),
                ))
            });
            let (images, undecodable) =
                tr.span("armor.ckpt_decode", |_| decode_checkpoints(&mut running));
            tr.span("bench.inspect", |_| {
                if again != result {
                    self.failed += 1;
                    self.problems.push(format!("seed {seed}: repeated run differs"));
                }
                let base = &self.base;
                let trace = running.cluster.trace();
                let (detections, recoveries) = sift_counts(trace);
                let records = trace.len();
                let (writes, bytes) = ckpt_totals(&mut running);
                let net = running.cluster.network();
                c.runs += 1;
                c.results.push(format!("{result:?}"));
                c.events += events;
                c.sim_us += running.cluster.now().as_micros() - base.booted_us;
                c.trace_records += (records - base.trace_len) as u64;
                c.packets += net.packets_sent();
                c.bytes += net.bytes_sent();
                c.net_faults += u64::from(result.net_faults_applied);
                c.ckpt_writes += writes - base.ckpt.0;
                c.ckpt_bytes += bytes - base.ckpt.1;
                c.ckpt_images += images;
                c.ckpt_undecodable += undecodable;
                c.detections += detections - base.sift.0;
                c.recoveries += recoveries - base.sift.1;
                c.recovery_s += result.recovery_times.iter().sum::<f64>();
                c.recovery_n += result.recovery_times.len() as u64;
                c.injections += u64::from(result.injections);
            });
            tr.span("stats.accept", |_| agg.accept(&result));
            tr.span("bench.drop", |_| drop(running));
            Some(result)
        })
    }

    /// Encodes `results` as the `BatchDone` frame a worker would send,
    /// decodes it back, and checks the round trip. The run id is the
    /// batch's first seed.
    fn wire(&mut self, tr: &mut Tracer, results: Vec<RunResult>, c: &mut Counts) {
        let (n, first) = (results.len() as u64, results[0].seed);
        let msg = Msg::BatchDone { batch: 0, results };
        tr.root("batch", first, |tr| {
            let frame = tr.span("dist.encode", |_| encode_frame_msg(&msg));
            let back =
                tr.span("dist.decode", |_| decode_msg(&frame[ree_dist::frame::HEADER_LEN..]));
            tr.span("bench.check", |_| {
                let same = match (&msg, back) {
                    (Msg::BatchDone { results: a, .. }, Ok(Msg::BatchDone { results: b, .. })) => {
                        *a == b
                    }
                    _ => false,
                };
                if !same {
                    self.failed += n;
                    self.problems.push("dist wire round trip changed a BatchDone".to_owned());
                }
                c.wire_bytes += frame.len() as u64;
                c.wire_results += n;
            });
        });
    }
}

/// Result of the traced run.
pub struct Traced {
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// The first pass's counts, as pinned.
    pub counts: Vec<(&'static str, String)>,
    pub tracer: Tracer,
}

/// Runs passes for at least `seconds` (and at least one) and derives
/// the per-layer metrics. With `check_pins` off (for `--pin`), the
/// counts are returned unchecked.
pub fn run(inputs: Inputs, ready: &Ready, seconds: f64, check_pins: bool) -> Traced {
    let mut probe = ready.snapshot.fork(inputs.seed0);
    let base = Base {
        trace_len: probe.cluster.trace().len(),
        sift: sift_counts(probe.cluster.trace()),
        ckpt: ckpt_totals(&mut probe),
        booted_us: ready.snapshot.booted_to().as_micros(),
    };
    drop(probe);
    let mut mc_plan = ready.plan.clone();
    mc_plan.net_faults.clear();
    let dist_expected = (inputs.workload == Workload::DistRegister)
        .then(|| workload::expected_aggregate(&ready.plan, PROBE_RUNS as u32, inputs.seed0));
    let mut p = Pass {
        inputs,
        ready,
        base,
        dist_expected,
        mc_plan,
        problems: Vec::new(),
        failed: 0,
        attempted: 0,
    };
    let mut tr = Tracer::new();
    let start = Instant::now();
    let mut first: Option<Counts> = None;
    let mut passes = 0u64;
    while passes == 0 || start.elapsed().as_secs_f64() < seconds {
        let counts = p.run(&mut tr, passes);
        passes += 1;
        match &first {
            None => {
                if check_pins {
                    let name = inputs.workload.name();
                    p.problems.extend(pins::check(name, inputs.set, &counts.pinned_values()));
                }
                first = Some(counts);
            }
            Some(f) if *f != counts => {
                p.problems.push(format!("pass {passes}: counts differ from the first pass"));
            }
            Some(_) => {}
        }
    }
    let wall_ns = start.elapsed().as_nanos() as f64;
    let span_ns = crate::trace::span_cost_ns();
    let c = first.expect("at least one pass ran");
    let per = |n: u64, d: u64| n as f64 / d.max(1) as f64;
    let med = |name: &str| median(&tr.durations(name));
    let total = |name: &str| tr.durations(name).iter().sum::<f64>();
    let (child_cov, _) = tr.child_coverage(None);
    let (_, run_cov_min) = tr.child_coverage(Some("run"));
    let metrics = vec![
        ("sim.events_per_run", per(c.events, c.runs), "count"),
        ("sim.sim_s_per_run", per(c.sim_us, c.runs) / 1e6, "sim_s"),
        ("os.ns_per_event", total("os.fault_free_run") / (c.events * passes).max(1) as f64, "ns"),
        ("os.trace_records_per_run", per(c.trace_records, c.runs), "count"),
        ("os.state_digest_us", med("os.state_digest") / 1e3, "us"),
        ("net.packets_per_run", per(c.packets, c.runs), "count"),
        ("net.bytes_per_run", per(c.bytes, c.runs), "B"),
        ("net.faults_applied_per_run", per(c.net_faults, c.runs), "count"),
        ("armor.ckpt_writes_per_run", per(c.ckpt_writes, c.runs), "count"),
        ("armor.ckpt_bytes_per_run", per(c.ckpt_bytes, c.runs), "B"),
        ("armor.ckpt_images_per_run", per(c.ckpt_images, c.runs), "count"),
        ("armor.ckpt_decode_us", med("armor.ckpt_decode") / 1e3, "us"),
        ("sift.detections_per_run", per(c.detections, c.runs), "count"),
        ("sift.recoveries_per_run", per(c.recoveries, c.runs), "count"),
        ("sift.recovery_sim_s", c.recovery_s / c.recovery_n.max(1) as f64, "sim_s"),
        ("apps.boot_ms", med("apps.boot") / 1e6, "ms"),
        ("apps.fork_us", med("apps.fork") / 1e3, "us"),
        ("apps.texture_image_ms", med("apps.texture_image") / 1e6, "ms"),
        ("inject.run_ms", med("inject.execute_warm_checked") / 1e6, "ms"),
        ("inject.classify_us", med("inject.classify") / 1e3, "us"),
        ("inject.injections_per_run", per(c.injections, c.runs), "count"),
        ("stats.accept_us", med("stats.accept") / 1e3, "us"),
        ("dist.wire_bytes_per_result", per(c.wire_bytes, c.wire_results), "B"),
        (
            "dist.encode_us_per_result",
            total("dist.encode") / 1e3 / (c.wire_results * passes).max(1) as f64,
            "us",
        ),
        (
            "dist.decode_us_per_result",
            total("dist.decode") / 1e3 / (c.wire_results * passes).max(1) as f64,
            "us",
        ),
        ("dist.requeued", c.dist_requeued as f64, "count"),
        ("dist.fallback_runs", c.dist_fallback as f64, "count"),
        ("mc.explored", per(c.mc_explored, c.mc_calls), "count"),
        ("mc.forks", per(c.mc_forks, c.mc_calls), "count"),
        ("mc.pruned", per(c.mc_pruned, c.mc_calls), "count"),
        (
            "mc.ms_per_execution",
            total("mc.model_check") / 1e6 / (c.mc_explored * passes).max(1) as f64,
            "ms",
        ),
        ("trace.span_cost_ns", span_ns, "ns"),
        ("trace.overhead_frac", span_ns * tr.len() as f64 / wall_ns, "frac"),
        ("trace.child_coverage", child_cov, "frac"),
        ("trace.run_coverage_min", run_cov_min, "frac"),
        ("trace.root_coverage", tr.root_ns() as f64 / wall_ns, "frac"),
        ("trace.spans_per_pass", tr.len() as f64 / passes as f64, "count"),
    ];
    Traced {
        attempted: p.attempted,
        failed: p.failed,
        problems: p.problems,
        metrics,
        counts: c.pinned_values(),
        tracer: tr,
    }
}
