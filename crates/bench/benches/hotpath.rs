//! Micro-benchmarks for the simulation hot path introduced by the
//! allocation-free kernel refactor: indexed-heap event-queue operations
//! and typed trace appends.
//!
//! These pin the per-operation costs that the end-to-end
//! `campaign_bench` binary measures in aggregate; a regression here
//! shows up before it has drowned in whole-campaign noise.

use criterion::{criterion_group, criterion_main, Criterion};
use ree_armor::{CheckpointBuffer, Fields, Value};
use ree_os::{Pid, Trace, TraceDetail, TraceEvent, TraceKind};
use ree_sim::{EventQueue, SimTime};
use std::hint::black_box;

fn hotpath(c: &mut Criterion) {
    let mut group = c.benchmark_group("hotpath");

    group.bench_function("queue_schedule_pop_churn", |b| {
        // Steady-state simulator shape: a standing population of pending
        // events with interleaved schedule/pop.
        let mut q = EventQueue::new();
        for i in 0..256u64 {
            q.schedule(SimTime::from_micros(i * 7), i);
        }
        let mut t = 256u64 * 7;
        b.iter(|| {
            let popped = q.pop().expect("standing population");
            t += 13;
            q.schedule(SimTime::from_micros(t), popped.2);
            black_box(popped.0)
        });
    });

    group.bench_function("queue_cancel_o_log_n", |b| {
        // Schedule + cancel, the timer-heavy ARMOR pattern: cancellation
        // must physically remove the entry (no tombstone rot).
        let mut q = EventQueue::new();
        for i in 0..256u64 {
            q.schedule(SimTime::from_micros(i * 7), i);
        }
        let mut t = 256u64 * 7;
        b.iter(|| {
            t += 13;
            let h = q.schedule(SimTime::from_micros(t), t);
            black_box(q.cancel(h))
        });
    });

    group.bench_function("queue_peek_time", |b| {
        let mut q = EventQueue::new();
        for i in 0..256u64 {
            q.schedule(SimTime::from_micros(i * 7), i);
        }
        b.iter(|| black_box(q.peek_time()));
    });

    group.bench_function("trace_push_typed_detail", |b| {
        // The per-delivery record: label + pid captured by value, no
        // formatting.
        let mut trace = Trace::new();
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            if trace.len() >= 300_000 {
                trace.clear();
            }
            trace.push(
                SimTime::from_micros(i),
                Some(Pid(3)),
                TraceKind::Message,
                TraceDetail::Deliver { label: "armor-wire", from: Pid(7) },
            );
        });
    });

    group.bench_function("trace_push_event_typed_detail", |b| {
        let mut trace = Trace::new();
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            if trace.len() >= 300_000 {
                trace.clear();
            }
            trace.push_event(
                SimTime::from_micros(i),
                Some(Pid(3)),
                TraceKind::Recovery,
                TraceEvent::RecoveryCompleted,
                TraceDetail::AppRecovered { slot: 0, attempt: 1 },
            );
        });
    });

    group.bench_function("trace_render_100", |b| {
        // The deferred cost: rendering happens only on the debug path.
        let mut trace = Trace::new();
        for i in 0..100u64 {
            trace.push(
                SimTime::from_micros(i),
                Some(Pid(3)),
                TraceKind::Message,
                TraceDetail::Deliver { label: "armor-wire", from: Pid(7) },
            );
        }
        b.iter(|| black_box(trace.render().len()));
    });

    group.bench_function("snapshot_fork", |b| {
        // The per-run cost a warm campaign pays before injecting
        // anything: fork the boot snapshot (CoW storage and frozen
        // trace make this a deep copy of live state only) and reseed.
        let plan = ree_inject::RunPlan {
            scenario: ree_apps::Scenario::single_texture(11),
            target: ree_inject::Target::App,
            model: ree_inject::ErrorModel::Register,
            timeout: SimTime::from_secs(220),
            net_faults: vec![],
        };
        let snapshot = plan.boot_snapshot();
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            black_box(snapshot.fork(seed))
        });
    });

    group.bench_function("fork_cow_write", |b| {
        // First storage write after a fork: the one write that pays the
        // copy-on-write unsharing of the remote file table.
        let plan = ree_inject::RunPlan {
            scenario: ree_apps::Scenario::single_texture(11),
            target: ree_inject::Target::App,
            model: ree_inject::ErrorModel::Register,
            timeout: SimTime::from_secs(220),
            net_faults: vec![],
        };
        let snapshot = plan.boot_snapshot();
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            let mut run = snapshot.fork(seed);
            run.cluster.remote_fs().write("bench/cow", vec![0xA5; 64]);
            black_box(run.cluster.remote_fs_ref().peek("bench/cow").map(<[u8]>::len))
        });
    });

    group.bench_function("ckpt_encode_dirty", |b| {
        // The per-send commit after one element changed: incremental
        // encode patches the dirty span of the cached image instead of
        // rebuilding the whole stable-storage image.
        let names = ["element0", "element1", "element2", "element3", "element4", "element5"];
        let states: Vec<(&'static str, Fields)> = (0..6)
            .map(|i| {
                let mut f = Fields::new();
                f.set("id", Value::U64(i));
                f.set("count", Value::U64(0));
                f.set("peer", Value::Str("armor-peer".into()));
                (names[i as usize], f)
            })
            .collect();
        let mut ckpt = CheckpointBuffer::new(states.iter().map(|(n, f)| (*n, f)));
        let _ = ckpt.encode();
        let mut f = states[2].1.clone();
        let mut n = 0u64;
        b.iter(|| {
            n += 1;
            f.set("count", Value::U64(n));
            ckpt.update("element2", &f);
            black_box(ckpt.encode().len())
        });
    });

    group.bench_function("ckpt_update_unchanged", |b| {
        // The other commit-path win: an element whose state carries the
        // stamp its region was encoded from costs one stamp compare, no
        // encode, no copy and no dirty span.
        let mut f = Fields::new();
        f.set("id", Value::U64(1));
        f.set("peer", Value::Str("armor-peer".into()));
        let mut ckpt = CheckpointBuffer::new([("element", &f)]);
        let _ = ckpt.encode();
        b.iter(|| black_box(ckpt.update("element", &f)));
    });

    group.finish();
}

criterion_group!(benches, hotpath);
criterion_main!(benches);
