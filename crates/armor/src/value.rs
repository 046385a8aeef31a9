//! Dynamic element state: typed values that can be checkpointed,
//! assertion-checked, and bit-flipped.
//!
//! ARMOR elements keep their private state as [`Fields`] — an ordered map
//! of named [`Value`]s. One representation serves three mechanisms that
//! the paper couples tightly:
//!
//! * **microcheckpointing** (§3.4): `Fields` serialise to a compact wire
//!   image copied into the element's checkpoint-buffer region;
//! * **heap injection** (§7): a bit flip lands in a *real leaf value* and
//!   propagates through genuine protocol logic (e.g. a flipped daemon ID
//!   in `node_mgmt` routes a message to daemon 0);
//! * **assertions** (§3.3): range/validity checks run over the same state
//!   the injector corrupts, so detection coverage is meaningful.
//!
//! Pointer-class fields ([`Value::Ptr`]) model structural linkage: the
//! paper found "crash failures were most often caused by segmentation
//! faults raised when a corrupted pointer was dereferenced" (§7.2), so a
//! corrupted `Ptr` crashes the ARMOR the next time the owning element
//! touches its state.

use ree_os::FieldKind;
use ree_sim::SimRng;
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// A dynamically typed state value.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// Boolean flag.
    Bool(bool),
    /// Unsigned integer (counters, identifiers).
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Floating-point datum.
    F64(f64),
    /// UTF-8 text (hostnames, executable paths).
    Str(String),
    /// Structural pointer; corruption crashes on next dereference.
    Ptr(u64),
    /// Ordered list.
    List(Vec<Value>),
    /// Named sub-structure.
    Map(BTreeMap<String, Value>),
}

impl Value {
    /// The paper's pointer/data field classification (§7.2).
    pub fn kind(&self) -> FieldKind {
        match self {
            Value::Ptr(_) => FieldKind::Pointer,
            _ => FieldKind::Data,
        }
    }

    /// Number of leaf values inside this value (1 for scalars).
    pub fn leaf_count(&self) -> usize {
        match self {
            Value::List(items) => items.iter().map(Value::leaf_count).sum(),
            Value::Map(map) => map.values().map(Value::leaf_count).sum(),
            _ => 1,
        }
    }

    /// True if this value contains a pointer leaf misaligned w.r.t.
    /// `align` (recursive, allocation-free).
    pub fn has_misaligned_ptr(&self, align: u64) -> bool {
        match self {
            Value::Ptr(p) => p % align != 0,
            Value::List(items) => items.iter().any(|v| v.has_misaligned_ptr(align)),
            Value::Map(map) => map.values().any(|v| v.has_misaligned_ptr(align)),
            _ => false,
        }
    }

    /// Flips one uniformly chosen bit of this leaf value. For containers
    /// this is a no-op (callers pick leaves via [`Fields::leaf_paths`]).
    pub fn flip_bit(&mut self, rng: &mut SimRng) {
        match self {
            Value::Bool(b) => *b = !*b,
            Value::U64(v) | Value::Ptr(v) => *v ^= 1u64 << rng.below(64),
            Value::I64(v) => *v ^= 1i64 << rng.below(64),
            Value::F64(v) => {
                let bits = v.to_bits() ^ (1u64 << rng.below(64));
                *v = f64::from_bits(bits);
            }
            Value::Str(s) => {
                if s.is_empty() {
                    s.push('\u{1}');
                } else {
                    // Flip a low bit of one byte, re-validating UTF-8 by
                    // replacement so the value stays a legal string while
                    // still being wrong.
                    let mut bytes = s.clone().into_bytes();
                    let i = rng.index(bytes.len());
                    bytes[i] ^= 1 << rng.below(7) as u8;
                    *s = String::from_utf8_lossy(&bytes).into_owned();
                }
            }
            Value::List(_) | Value::Map(_) => {}
        }
    }

    /// Convenience accessor.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::U64(v) => Some(*v),
            _ => None,
        }
    }

    /// Convenience accessor.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Convenience accessor.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Convenience accessor.
    pub fn as_list(&self) -> Option<&[Value]> {
        match self {
            Value::List(v) => Some(v),
            _ => None,
        }
    }

    /// Convenience accessor.
    pub fn as_map(&self) -> Option<&BTreeMap<String, Value>> {
        match self {
            Value::Map(m) => Some(m),
            _ => None,
        }
    }
}

/// The named state of one element: an ordered map of values.
///
/// Field names are `Cow<'static, str>`: literal names (the common case)
/// are stored without allocating, names decoded from an image are owned.
/// Either way the map orders them as `str`, so encoding and leaf order
/// do not depend on which kind a name is.
///
/// Every `Fields` also carries a **mutation stamp**, renewed from a
/// process-wide counter by every `&mut` method. Two values with equal
/// stamps therefore have equal contents (a clone keeps its original's
/// stamp until either is mutated), which lets the microcheckpoint skip
/// re-encoding state no handler touched. Equality and `Debug` ignore the
/// stamp.
///
/// # Examples
///
/// ```
/// use ree_armor::{Fields, Value};
/// let mut f = Fields::new();
/// f.set("restart_count", Value::U64(0));
/// assert_eq!(f.get("restart_count").and_then(|v| v.as_u64()), Some(0));
/// ```
#[derive(Clone, Default)]
pub struct Fields {
    entries: BTreeMap<Cow<'static, str>, Value>,
    /// Mutation stamp; 0 only for a never-mutated (hence empty) value.
    stamp: u64,
}

/// Source of mutation stamps (see [`Fields`]). Stamps only need to be
/// unique, so no ordering with other memory is required.
static NEXT_STAMP: AtomicU64 = AtomicU64::new(1);

impl PartialEq for Fields {
    fn eq(&self, other: &Self) -> bool {
        self.entries == other.entries
    }
}

impl std::fmt::Debug for Fields {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Fields").field("entries", &self.entries).finish()
    }
}

impl Fields {
    /// Creates empty state.
    pub fn new() -> Self {
        Fields::default()
    }

    /// The mutation stamp: equal stamps imply equal contents.
    pub(crate) fn stamp(&self) -> u64 {
        self.stamp
    }

    /// Gives this value a stamp no other value holds (called by every
    /// `&mut` method before it changes anything).
    fn renew(&mut self) {
        self.stamp = NEXT_STAMP.fetch_add(1, Ordering::Relaxed);
    }

    /// Sets (inserting or replacing) a field.
    pub fn set(&mut self, name: impl Into<Cow<'static, str>>, value: Value) {
        self.renew();
        self.entries.insert(name.into(), value);
    }

    /// Reads a field.
    pub fn get(&self, name: &str) -> Option<&Value> {
        self.entries.get(name)
    }

    /// Mutable field access.
    pub fn get_mut(&mut self, name: &str) -> Option<&mut Value> {
        self.renew();
        self.entries.get_mut(name)
    }

    /// Removes a field.
    pub fn remove(&mut self, name: &str) -> Option<Value> {
        self.renew();
        self.entries.remove(name)
    }

    /// Number of top-level fields.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if no fields are present.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates over `(name, value)` pairs in name order.
    /// Names come as stored, so copying a literal name stays free.
    pub fn iter(&self) -> impl Iterator<Item = (&Cow<'static, str>, &Value)> {
        self.entries.iter()
    }

    /// Unsigned-integer field helper.
    pub fn u64(&self, name: &str) -> Option<u64> {
        self.get(name).and_then(Value::as_u64)
    }

    /// Increments an integer field (creating it at 0), returning the new
    /// value, or `None` if the existing field is not an integer.
    pub fn bump(&mut self, name: impl Into<Cow<'static, str>>) -> Option<u64> {
        self.renew();
        match self.entries.entry(name.into()).or_insert(Value::U64(0)) {
            Value::U64(v) => {
                *v = v.wrapping_add(1);
                Some(*v)
            }
            _ => None,
        }
    }

    /// Enumerates the paths of all leaf values with their field kinds.
    /// Paths use `/` separators (`table/hostA`, `list/3`).
    ///
    /// Allocates one `String` per leaf — injection/debugging use only;
    /// per-event checks use the allocation-free walkers below.
    pub fn leaf_paths(&self) -> Vec<(String, FieldKind)> {
        let mut out = Vec::new();
        for (name, value) in &self.entries {
            collect_leaves(name, value, &mut out);
        }
        out
    }

    /// Number of leaf values — the allocation-free size used by the wire
    /// model (previously built every path string just to count them).
    pub fn leaf_count(&self) -> usize {
        self.entries.values().map(Value::leaf_count).sum()
    }

    /// True if any pointer-class leaf is misaligned with respect to
    /// `align` — the per-event structural-pointer fault check, walking
    /// the state without building paths.
    pub fn has_misaligned_ptr(&self, align: u64) -> bool {
        self.entries.values().any(|v| v.has_misaligned_ptr(align))
    }

    /// Flips one bit in a leaf selected uniformly among leaves matching
    /// `want` (or all leaves when `want` is `None`). Returns the path and
    /// kind of the leaf hit, or `None` if no matching leaf exists.
    pub fn flip_random_leaf(
        &mut self,
        rng: &mut SimRng,
        want: Option<FieldKind>,
    ) -> Option<(String, FieldKind)> {
        let leaves: Vec<(String, FieldKind)> = self
            .leaf_paths()
            .into_iter()
            .filter(|(_, k)| want.is_none() || want == Some(*k))
            .collect();
        if leaves.is_empty() {
            return None;
        }
        let (path, kind) = leaves[rng.index(leaves.len())].clone();
        let value = self.resolve_mut(&path)?;
        value.flip_bit(rng);
        Some((path, kind))
    }

    /// Resolves a `/`-separated leaf path to its value.
    pub fn resolve(&self, path: &str) -> Option<&Value> {
        let mut parts = path.split('/');
        let first = parts.next()?;
        let mut cur = self.entries.get(first)?;
        for part in parts {
            cur = match cur {
                Value::List(items) => items.get(part.parse::<usize>().ok()?)?,
                Value::Map(map) => map.get(part)?,
                _ => return None,
            };
        }
        Some(cur)
    }

    /// Mutable variant of [`Fields::resolve`].
    pub fn resolve_mut(&mut self, path: &str) -> Option<&mut Value> {
        self.renew();
        let mut parts = path.split('/');
        let first = parts.next()?;
        let mut cur = self.entries.get_mut(first)?;
        for part in parts {
            cur = match cur {
                Value::List(items) => items.get_mut(part.parse::<usize>().ok()?)?,
                Value::Map(map) => map.get_mut(part)?,
                _ => return None,
            };
        }
        Some(cur)
    }
}

fn collect_leaves(prefix: &str, value: &Value, out: &mut Vec<(String, FieldKind)>) {
    match value {
        Value::List(items) => {
            for (i, item) in items.iter().enumerate() {
                collect_leaves(&format!("{prefix}/{i}"), item, out);
            }
        }
        Value::Map(map) => {
            for (k, v) in map {
                collect_leaves(&format!("{prefix}/{k}"), v, out);
            }
        }
        _ => out.push((prefix.to_owned(), value.kind())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Fields {
        let mut f = Fields::new();
        f.set("count", Value::U64(3));
        f.set("host", Value::Str("nodeA".into()));
        f.set("link", Value::Ptr(0xdead));
        let mut table = BTreeMap::new();
        table.insert("a".to_owned(), Value::U64(1));
        table.insert("b".to_owned(), Value::U64(2));
        f.set("table", Value::Map(table));
        f.set("list", Value::List(vec![Value::F64(1.5), Value::Bool(true)]));
        f
    }

    #[test]
    fn get_set_roundtrip() {
        let f = sample();
        assert_eq!(f.u64("count"), Some(3));
        assert_eq!(f.get("host").unwrap().as_str(), Some("nodeA"));
        assert_eq!(f.resolve("table/b").unwrap().as_u64(), Some(2));
        assert_eq!(f.resolve("list/1").unwrap().as_bool(), Some(true));
        assert!(f.resolve("list/9").is_none());
        assert!(f.resolve("count/x").is_none());
    }

    #[test]
    fn leaf_paths_enumerate_nested_leaves_with_kinds() {
        let f = sample();
        let leaves = f.leaf_paths();
        assert_eq!(leaves.len(), 7);
        let ptr_leaves: Vec<_> = leaves.iter().filter(|(_, k)| *k == FieldKind::Pointer).collect();
        assert_eq!(ptr_leaves.len(), 1);
        assert_eq!(ptr_leaves[0].0, "link");
    }

    #[test]
    fn flip_data_leaf_changes_state() {
        let mut f = sample();
        let before = f.clone();
        let mut rng = SimRng::new(1);
        let (path, kind) = f.flip_random_leaf(&mut rng, Some(FieldKind::Data)).unwrap();
        assert_eq!(kind, FieldKind::Data);
        assert_ne!(path, "link");
        assert_ne!(f, before, "a data flip must alter some leaf");
    }

    #[test]
    fn flip_pointer_leaf_targets_ptr() {
        let mut f = sample();
        let mut rng = SimRng::new(2);
        let (path, kind) = f.flip_random_leaf(&mut rng, Some(FieldKind::Pointer)).unwrap();
        assert_eq!(kind, FieldKind::Pointer);
        assert_eq!(path, "link");
        assert_ne!(f.resolve("link").unwrap().as_u64(), Some(0xdead));
    }

    #[test]
    fn flip_on_empty_target_returns_none() {
        let mut f = Fields::new();
        f.set("x", Value::U64(1));
        let mut rng = SimRng::new(3);
        assert!(f.flip_random_leaf(&mut rng, Some(FieldKind::Pointer)).is_none());
    }

    #[test]
    fn bump_counts() {
        let mut f = Fields::new();
        assert_eq!(f.bump("n"), Some(1));
        assert_eq!(f.bump("n"), Some(2));
        f.set("s", Value::Str("x".into()));
        assert_eq!(f.bump("s"), None);
    }

    #[test]
    fn f64_bit_flip_changes_bits() {
        let mut v = Value::F64(1.0);
        let mut rng = SimRng::new(4);
        let before = match v {
            Value::F64(x) => x.to_bits(),
            _ => unreachable!(),
        };
        v.flip_bit(&mut rng);
        let after = match v {
            Value::F64(x) => x.to_bits(),
            _ => unreachable!(),
        };
        assert_eq!((before ^ after).count_ones(), 1);
    }

    #[test]
    fn str_flip_keeps_valid_utf8() {
        let mut rng = SimRng::new(5);
        for _ in 0..100 {
            let mut v = Value::Str("hostname-17".into());
            v.flip_bit(&mut rng);
            if let Value::Str(s) = &v {
                assert!(std::str::from_utf8(s.as_bytes()).is_ok());
            }
        }
    }

    #[test]
    fn every_mutation_renews_the_stamp() {
        let base = sample();
        let mutations: [fn(&mut Fields); 6] = [
            |f| f.set("count", Value::U64(4)),
            |f| *f.get_mut("count").unwrap() = Value::U64(5),
            |f| assert!(f.remove("count").is_some()),
            |f| assert_eq!(f.bump("count"), Some(4)),
            |f| *f.resolve_mut("table/a").unwrap() = Value::U64(6),
            |f| assert!(f.flip_random_leaf(&mut SimRng::new(7), None).is_some()),
        ];
        for mutate in mutations {
            let mut f = base.clone();
            assert_eq!(f.stamp(), base.stamp(), "a clone keeps the stamp");
            mutate(&mut f);
            assert_ne!(f.stamp(), base.stamp());
            assert_ne!(f, base);
        }
    }

    #[test]
    fn stamps_are_unique_across_threads() {
        let mut stamps: Vec<u64> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..4)
                .map(|_| {
                    scope.spawn(|| {
                        (0..500)
                            .map(|i| {
                                let mut f = Fields::new();
                                f.set("n", Value::U64(i));
                                f.stamp()
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            workers.into_iter().flat_map(|w| w.join().expect("worker finishes")).collect()
        });
        stamps.sort_unstable();
        stamps.dedup();
        assert_eq!(stamps.len(), 2000);
    }

    #[test]
    fn equality_and_debug_ignore_the_stamp() {
        let a = sample();
        let b = sample();
        assert_ne!(a.stamp(), b.stamp());
        assert_eq!(a, b);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }

    #[test]
    fn ptr_is_pointer_kind_everything_else_data() {
        assert_eq!(Value::Ptr(0).kind(), FieldKind::Pointer);
        assert_eq!(Value::U64(0).kind(), FieldKind::Data);
        assert_eq!(Value::Str(String::new()).kind(), FieldKind::Data);
    }
}
