//! Pinned digests and deterministic counters, per workload and input
//! set, from `pins.txt` (compiled in).
//!
//! Each non-comment line is `<workload> <set> key=value ...`. The
//! untraced run checks `digest` (its round's outputs) and `ci` (its
//! adaptive campaigns' outcomes); the traced run checks every other key.
//! Regenerate with `--pin` (see README.md) only for a change that is
//! meant to alter simulated behaviour.

use std::collections::BTreeMap;

const PINS: &str = include_str!("../pins.txt");

/// The pinned `key → value` map of one workload and set.
pub fn pinned(workload: &str, set: u64) -> BTreeMap<&'static str, &'static str> {
    let set = set.to_string();
    PINS.lines()
        .filter(|l| !l.starts_with('#'))
        .map(|l| l.split_whitespace())
        .filter_map(|mut f| (f.next() == Some(workload) && f.next() == Some(&set)).then_some(f))
        .flat_map(|f| f.filter_map(|kv| kv.split_once('=')))
        .collect()
}

/// Compares measured `values` with the pins of `workload`/`set`;
/// returns one line per key that differs or has no pin.
pub fn check(workload: &str, set: u64, values: &[(&str, String)]) -> Vec<String> {
    let pins = pinned(workload, set);
    values
        .iter()
        .filter_map(|(key, got)| match pins.get(key) {
            Some(want) if want == got => None,
            Some(want) => {
                Some(format!("behaviour change: {workload} set {set} {key} = {got}, pinned {want}"))
            }
            None => Some(format!("{workload} set {set} has no pin for {key} (measured {got})")),
        })
        .collect()
}

/// Renders one pins line.
pub fn line(workload: &str, set: u64, values: &[(&str, String)]) -> String {
    let mut out = format!("{workload} {set}");
    for (k, v) in values {
        out.push_str(&format!(" {k}={v}"));
    }
    out
}
