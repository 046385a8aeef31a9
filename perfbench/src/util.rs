//! Digests and order statistics.

use std::fmt::{Debug, Write as _};

/// FNV-1a, 64-bit. Kept here rather than borrowed from a crate under
/// test, so a change to the program cannot move the benchmark's digests.
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

impl std::hash::Hasher for Fnv {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
}

impl std::fmt::Write for Fnv {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        std::hash::Hasher::write(self, s.as_bytes());
        Ok(())
    }
}

/// Digest of the `Debug` rendering of each item, in order. `Debug`
/// prints floats in shortest round-trip form, so equal digests mean
/// bit-equal values.
pub fn digest<T: Debug>(items: impl IntoIterator<Item = T>) -> String {
    let mut h = Fnv::new();
    for item in items {
        write!(h, "{item:?};").expect("hashing never fails");
    }
    h.hex()
}

/// Nearest-rank percentile `p` (0..=100) of unsorted samples.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v.get(rank.max(1) - 1).copied().unwrap_or(0.0)
}

pub fn median(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Peak resident set size, MiB: the larger of this process's
/// (`VmHWM`) and that of its largest finished child (`getrusage`), so
/// that `dist_register` workers and set-up probes count.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let own_kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(own_kb.max(children_peak_kb()?) / 1024.0)
}

/// `struct rusage` of 64-bit Linux: two `timeval`s, then 14 `long`s of
/// which `ru_maxrss` (KiB) is the first.
#[repr(C)]
struct Rusage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

const RUSAGE_CHILDREN: i32 = -1;

/// True when this process already has finished children on record
/// before it started any: it was `exec`ed by a process that had them.
pub fn inherited_children_peak() -> bool {
    children_peak_kb().is_some_and(|kb| kb > 0.0)
}

/// Peak RSS of the largest waited-for child, KiB.
fn children_peak_kb() -> Option<f64> {
    let mut usage = Rusage { utime: [0; 2], stime: [0; 2], maxrss: 0, rest: [0; 13] };
    // SAFETY: `usage` is a valid, writable `struct rusage`.
    let rc = unsafe { getrusage(RUSAGE_CHILDREN, &mut usage) };
    (rc == 0).then_some(usage.maxrss as f64)
}
