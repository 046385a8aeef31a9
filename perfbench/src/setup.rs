//! `setup_s`: what a workload does once before its first run can start,
//! timed as often as a run has time for.
//!
//! Inputs and references are memoized per process, so an in-process
//! workload's set-up is timed in a fresh process of this binary
//! (`--setup-probe`). On `dist_register` it is the start-up of a worker
//! pool, driven over the `ree_dist` wire protocol as the supervisor
//! drives it: plan validation, spawning `THREADS` workers (this binary,
//! re-executed), the `Hello`/`Ready` handshake and the `Plan` each
//! worker validates and boots, up to the last `PlanAccepted`. The pool
//! is shut down after the clock stops.

use crate::workload::{Inputs, Workload, THREADS};
use ree_dist::{decode_msg, encode_frame_msg, Decoder, Msg, PROTO_VERSION};
use ree_inject::RunPlan;
use std::io::{Read, Write};
use std::process::{Child, Command, Stdio};
use std::time::Instant;

/// One set-up of `inputs`, host seconds.
pub fn sample(inputs: Inputs) -> Result<f64, String> {
    match inputs.workload {
        Workload::DistRegister => pool_start(&inputs.plan()),
        _ => fresh_process(inputs),
    }
}

fn fresh_process(inputs: Inputs) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--setup-probe", "--workload", inputs.workload.name()])
        .args(["--seed", &inputs.set.to_string()])
        .output()
        .map_err(|e| format!("set-up probe: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    match stdout.lines().last().map(str::parse::<f64>) {
        Some(Ok(secs)) if out.status.success() => Ok(secs),
        _ => Err(format!(
            "set-up probe failed ({}): {}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        )),
    }
}

fn pool_start(plan: &RunPlan) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let t = Instant::now();
    plan.validate().map_err(|e| e.to_string())?;
    let plan_frame = encode_frame_msg(&Msg::Plan { plan: Box::new(plan.clone()) });
    let mut pool = Vec::with_capacity(THREADS);
    for worker in 0..THREADS {
        let child = Command::new(&exe)
            .env(ree_dist::worker::ENV_WORKER_ID, worker.to_string())
            .env(ree_dist::worker::ENV_INCARNATION, "0")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("worker spawn: {e}"));
        match child {
            Ok(child) => pool.push(child),
            Err(e) => {
                shut_down(pool);
                return Err(e);
            }
        }
    }
    let started = std::thread::scope(|s| {
        let handshakes: Vec<_> =
            pool.iter_mut().map(|child| s.spawn(|| handshake(child, &plan_frame))).collect();
        handshakes
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|_| Err("handshake thread panicked".to_owned())))
            .collect::<Result<Vec<()>, String>>()
    });
    let secs = t.elapsed().as_secs_f64();
    shut_down(pool);
    started.map(|_| secs)
}

/// `Hello` → `Ready`, then `Plan` → `PlanAccepted`, on one worker.
fn handshake(child: &mut Child, plan_frame: &[u8]) -> Result<(), String> {
    let stdin = child.stdin.as_mut().ok_or("worker stdin not piped")?;
    let stdout = child.stdout.as_mut().ok_or("worker stdout not piped")?;
    let mut write = |frame: &[u8]| stdin.write_all(frame).and_then(|()| stdin.flush());
    write(&encode_frame_msg(&Msg::Hello { proto: PROTO_VERSION }))
        .map_err(|e| format!("hello: {e}"))?;
    let mut decoder = Decoder::new();
    let mut chunk = [0u8; 4096];
    loop {
        let payload = match decoder.next_frame() {
            Ok(Some(payload)) => payload,
            Ok(None) => {
                let n = stdout.read(&mut chunk).map_err(|e| format!("worker read: {e}"))?;
                if n == 0 {
                    return Err("worker exited during start-up".to_owned());
                }
                decoder.feed(&chunk[..n]);
                continue;
            }
            Err(e) => return Err(format!("worker frame: {e:?}")),
        };
        match decode_msg(&payload).map_err(|e| format!("worker message: {e:?}"))? {
            Msg::Ready { proto, .. } if proto == PROTO_VERSION => {
                write(plan_frame).map_err(|e| format!("plan: {e}"))?
            }
            Msg::PlanAccepted => return Ok(()),
            other => return Err(format!("unexpected worker message during start-up: {other:?}")),
        }
    }
}

/// Asks each worker to stop, closes its pipes and waits for it to exit.
fn shut_down(pool: Vec<Child>) {
    let shutdown = encode_frame_msg(&Msg::Shutdown);
    for mut child in pool {
        if let Some(mut stdin) = child.stdin.take() {
            let _ = stdin.write_all(&shutdown).and_then(|()| stdin.flush());
        }
        if child.wait().is_err() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}
