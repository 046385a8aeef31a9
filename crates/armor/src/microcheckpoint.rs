//! Microcheckpointing (§3.4, Figure 4, and \[36\]).
//!
//! "Microcheckpointing leverages the modular element composition of the
//! ARMOR process to incrementally checkpoint state on an
//! element-by-element basis. After each event delivery, the state of the
//! affected element is copied to a checkpoint buffer within the ARMOR
//! process. Each element is assigned a disjoint region within the
//! checkpoint buffer. … When the ARMOR decides to make the checkpoint
//! permanent, it copies the checkpoint buffer to stable storage."
//!
//! Two properties matter for the paper's results and are enforced here:
//!
//! 1. **Only the element that processed the event is snapshotted.**
//!    Incidental corruption of *other* elements is not captured, so a
//!    clean copy survives in the buffer — why assertions + rollback
//!    prevented 58% of would-be system failures (Table 9).
//! 2. **Commit happens on every message transmission**, keeping the
//!    global checkpoint set consistent so a single process rolls back.

use crate::wire::{decode_fields, encode_fields_into, take, take_u32, DecodeError};
use crate::Fields;
use bytes::BytesMut;
use std::sync::Arc;

/// The in-process checkpoint buffer: one disjoint region per element,
/// with an **incrementally maintained** stable-storage image.
///
/// Two commit-path costs used to scale with total state size on every
/// reliable ARMOR send: re-encoding the touched element and rebuilding
/// the whole stable-storage image. Both are incremental, and the image
/// is shared rather than copied:
///
/// * [`CheckpointBuffer::update`] skips encoding when the state's
///   mutation stamp (see [`Fields`]) equals the one the region last
///   encoded — no handler touched it. Otherwise it encodes into a
///   reusable scratch buffer and, when the bytes equal the region's
///   current image, skips the copy and leaves the region clean.
/// * [`CheckpointBuffer::encode`] keeps the assembled image from the
///   previous commit as an `Arc` and hands out that `Arc`: a commit with
///   no dirty region returns the same image, and a dirty commit copies
///   the image into the one stable storage released at the previous
///   write, then patches only the dirty spans. Region offsets are stable
///   because regions are disjoint and fixed at construction; only a
///   region changing *length* forces a full rebuild (which also
///   refreshes every offset).
///
/// Regions are addressed by construction-order index through a sorted
/// name→index table, replacing the linear `String` compare per event.
#[derive(Debug, Clone, Default)]
pub struct CheckpointBuffer {
    regions: Vec<Region>,
    /// Sorted `(element name, region index)` lookup table.
    by_name: Vec<(&'static str, u32)>,
    /// The assembled stable-storage image as of the last commit
    /// (empty until the first commit), shared with stable storage.
    assembled: Arc<Vec<u8>>,
    /// The image of the commit before, which stable storage releases
    /// when it stores `assembled`: the next dirty commit reuses it
    /// instead of allocating.
    spare: Arc<Vec<u8>>,
    /// True when a region's image changed length since the last commit,
    /// invalidating every cached offset.
    needs_rebuild: bool,
    /// Reusable per-update encode scratch.
    scratch: BytesMut,
    updates: u64,
    clean_updates: u64,
    commits: u64,
    patched_commits: u64,
}

#[derive(Debug, Clone, Default)]
struct Region {
    element: &'static str,
    image: Vec<u8>,
    /// Mutation stamp of the state `image` was encoded from.
    stamp: u64,
    /// Byte offset of `image` within `assembled` (valid while
    /// `needs_rebuild` is false and `assembled` is non-empty).
    offset: usize,
    /// Image changed since the last commit.
    dirty: bool,
}

impl CheckpointBuffer {
    /// Creates a buffer with one region per element name, seeded from the
    /// provided initial states.
    pub fn new<'a>(elements: impl IntoIterator<Item = (&'static str, &'a Fields)>) -> Self {
        let mut scratch = BytesMut::with_capacity(256);
        let regions: Vec<Region> = elements
            .into_iter()
            .map(|(name, state)| {
                scratch.clear();
                encode_fields_into(state, &mut scratch);
                Region {
                    element: name,
                    image: scratch.to_vec(),
                    stamp: state.stamp(),
                    offset: 0,
                    dirty: true,
                }
            })
            .collect();
        let mut by_name: Vec<(&'static str, u32)> =
            regions.iter().enumerate().map(|(i, r)| (r.element, i as u32)).collect();
        // Duplicate names keep construction order within the sorted
        // table, so the *first* constructed region wins lookups —
        // matching the old linear scan's semantics.
        by_name.sort_unstable();
        by_name.dedup_by(|later, first| later.0 == first.0);
        CheckpointBuffer {
            regions,
            by_name,
            assembled: Arc::default(),
            spare: Arc::default(),
            needs_rebuild: true,
            scratch,
            updates: 0,
            clean_updates: 0,
            commits: 0,
            patched_commits: 0,
        }
    }

    /// Number of regions.
    pub fn region_count(&self) -> usize {
        self.regions.len()
    }

    /// Looks up a region by element name (sorted table, no linear
    /// `String` scan).
    fn region_index(&self, element: &str) -> Option<usize> {
        self.by_name
            .binary_search_by(|(name, _)| name.cmp(&element))
            .ok()
            .map(|i| self.by_name[i].1 as usize)
    }

    /// Copies `state` into the region of `element` — the per-event
    /// microcheckpoint step. Returns `false` if the element is unknown.
    ///
    /// The update is a no-op (region stays clean for the next commit)
    /// when `state` carries the stamp the region was last encoded from,
    /// or when re-encoding it into a reusable scratch buffer gives an
    /// image byte-identical to the region's current one.
    pub fn update(&mut self, element: &str, state: &Fields) -> bool {
        let Some(i) = self.region_index(element) else { return false };
        self.updates += 1;
        let region = &mut self.regions[i];
        if region.stamp == state.stamp() {
            self.clean_updates += 1;
            return true;
        }
        region.stamp = state.stamp();
        self.scratch.clear();
        encode_fields_into(state, &mut self.scratch);
        if region.image.as_slice() == &self.scratch[..] {
            self.clean_updates += 1;
            return true;
        }
        if region.image.len() != self.scratch.len() {
            self.needs_rebuild = true;
        }
        region.image.clear();
        region.image.extend_from_slice(&self.scratch);
        region.dirty = true;
        true
    }

    /// The current image of one region (for tests/inspection).
    pub fn region_image(&self, element: &str) -> Option<&[u8]> {
        self.region_index(element).map(|i| self.regions[i].image.as_slice())
    }

    /// Serialises the whole buffer into a stable-storage image.
    ///
    /// Incremental: the image assembled at the previous commit is kept,
    /// and only regions whose state changed since then are re-written
    /// into their (stable) spans. A region that changed length triggers
    /// a full rebuild. With no dirty region the previous image itself is
    /// returned.
    pub fn encode(&mut self) -> Arc<Vec<u8>> {
        self.commits += 1;
        if self.needs_rebuild || self.assembled.is_empty() {
            self.rebuild_assembled();
        } else {
            self.patched_commits += 1;
            if self.regions.iter().any(|r| r.dirty) {
                let assembled = unshare(&mut self.assembled, &mut self.spare, true);
                for region in self.regions.iter_mut().filter(|r| r.dirty) {
                    assembled[region.offset..region.offset + region.image.len()]
                        .copy_from_slice(&region.image);
                    region.dirty = false;
                }
            }
        }
        Arc::clone(&self.assembled)
    }

    /// Rebuilds the assembled image from scratch, refreshing every
    /// region's cached offset.
    fn rebuild_assembled(&mut self) {
        let total: usize =
            4 + self.regions.iter().map(|r| 8 + r.element.len() + r.image.len()).sum::<usize>();
        let buf = unshare(&mut self.assembled, &mut self.spare, false);
        buf.clear();
        buf.reserve(total);
        buf.extend_from_slice(&(self.regions.len() as u32).to_be_bytes());
        for region in &mut self.regions {
            buf.extend_from_slice(&(region.element.len() as u32).to_be_bytes());
            buf.extend_from_slice(region.element.as_bytes());
            buf.extend_from_slice(&(region.image.len() as u32).to_be_bytes());
            region.offset = buf.len();
            buf.extend_from_slice(&region.image);
            region.dirty = false;
        }
        self.needs_rebuild = false;
    }

    /// Decodes a stable-storage image into `(element, state)` pairs.
    ///
    /// # Errors
    ///
    /// Fails on truncated or structurally invalid images — the caller
    /// treats this as "no usable checkpoint" and cold-starts.
    pub fn decode(image: &[u8]) -> Result<Vec<(String, Fields)>, DecodeError> {
        let mut buf = image;
        let n = take_u32(&mut buf)? as usize;
        let mut out = Vec::with_capacity(n.min(256));
        for _ in 0..n {
            let name_len = take_u32(&mut buf)? as usize;
            let name = std::str::from_utf8(take(&mut buf, name_len)?)
                .map_err(|_| DecodeError::BadUtf8)?
                .to_owned();
            let img_len = take_u32(&mut buf)? as usize;
            let fields = decode_fields(take(&mut buf, img_len)?)?;
            out.push((name, fields));
        }
        Ok(out)
    }

    /// Count of per-event region updates performed.
    pub fn updates(&self) -> u64 {
        self.updates
    }

    /// Count of updates whose encoded image was unchanged (no copy, no
    /// dirty mark).
    pub fn clean_updates(&self) -> u64 {
        self.clean_updates
    }

    /// Count of stable-storage commits.
    pub fn commits(&self) -> u64 {
        self.commits
    }

    /// Count of commits served by patching dirty spans of the cached
    /// image instead of rebuilding it.
    pub fn patched_commits(&self) -> u64 {
        self.patched_commits
    }
}

/// Mutable access to the image for the next commit. While stable storage
/// (or a fork) still shares `assembled`, it becomes the new `spare`, and
/// the old spare — released by storage at the last write — takes its
/// place, with `assembled`'s bytes copied in when `keep` is set. A fresh
/// buffer is allocated only when the spare is shared as well (the first
/// commit after a fork).
fn unshare<'a>(
    assembled: &'a mut Arc<Vec<u8>>,
    spare: &mut Arc<Vec<u8>>,
    keep: bool,
) -> &'a mut Vec<u8> {
    if Arc::get_mut(assembled).is_none() {
        if Arc::get_mut(spare).is_none() {
            *spare = Arc::default();
        }
        std::mem::swap(assembled, spare);
        if keep {
            Arc::get_mut(assembled).expect("spare unshared above").clone_from(spare);
        }
    }
    Arc::get_mut(assembled).expect("unshared above")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Value;

    fn fields(n: u64) -> Fields {
        let mut f = Fields::new();
        f.set("v", Value::U64(n));
        f
    }

    #[test]
    fn update_touches_only_named_region() {
        let a = fields(1);
        let b = fields(2);
        let mut buf = CheckpointBuffer::new([("a", &a), ("b", &b)]);
        let b_before = buf.region_image("b").unwrap().to_vec();

        buf.update("a", &fields(99));
        assert_eq!(buf.region_image("b").unwrap(), b_before.as_slice(), "region b untouched");
        let decoded = CheckpointBuffer::decode(&buf.encode()).unwrap();
        assert_eq!(decoded[0].1.u64("v"), Some(99));
        assert_eq!(decoded[1].1.u64("v"), Some(2));
    }

    #[test]
    fn unknown_element_update_rejected() {
        let a = fields(1);
        let mut buf = CheckpointBuffer::new([("a", &a)]);
        assert!(!buf.update("zzz", &fields(5)));
    }

    #[test]
    fn encode_decode_roundtrip() {
        let a = fields(7);
        let b = fields(8);
        let mut buf = CheckpointBuffer::new([("alpha", &a), ("beta", &b)]);
        let image = buf.encode();
        let decoded = CheckpointBuffer::decode(&image).unwrap();
        assert_eq!(decoded.len(), 2);
        assert_eq!(decoded[0].0, "alpha");
        assert_eq!(decoded[1].0, "beta");
        assert_eq!(decoded[0].1.u64("v"), Some(7));
    }

    #[test]
    fn truncated_image_fails_decode() {
        let a = fields(1);
        let mut buf = CheckpointBuffer::new([("a", &a)]);
        let image = buf.encode();
        assert!(CheckpointBuffer::decode(&image[..image.len() / 2]).is_err());
    }

    #[test]
    fn incidental_corruption_not_captured() {
        // The paper's key protection: element B's state is corrupted in
        // memory, but since B never processed an event, its buffer region
        // still holds the clean image — rollback recovers B.
        let a = fields(1);
        let mut b_state = fields(2);
        let mut buf = CheckpointBuffer::new([("a", &a), ("b", &b_state)]);
        // Corrupt B's live state *without* an event being processed.
        b_state.set("v", Value::U64(0xDEAD));
        // A processes an event; only A's region updates.
        buf.update("a", &fields(10));
        let decoded = CheckpointBuffer::decode(&buf.encode()).unwrap();
        let b_restored = &decoded.iter().find(|(n, _)| n == "b").unwrap().1;
        assert_eq!(b_restored.u64("v"), Some(2), "clean pre-corruption image survives");
    }

    #[test]
    fn counters() {
        let a = fields(1);
        let mut buf = CheckpointBuffer::new([("a", &a)]);
        buf.update("a", &fields(2));
        buf.update("a", &fields(3));
        let _ = buf.encode();
        assert_eq!(buf.updates(), 2);
        assert_eq!(buf.commits(), 1);
        assert_eq!(buf.region_count(), 1);
    }

    /// From-scratch reference image for the given (name, state) pairs.
    fn reference_image(states: &[(&'static str, &Fields)]) -> Arc<Vec<u8>> {
        CheckpointBuffer::new(states.iter().copied()).encode()
    }

    #[test]
    fn patched_commit_equals_full_rebuild() {
        let a0 = fields(1);
        let b0 = fields(2);
        let mut buf = CheckpointBuffer::new([("a", &a0), ("b", &b0)]);
        let _ = buf.encode(); // first commit assembles the cache
                              // Same-length change: the second commit patches in place.
        let a1 = fields(0xAB);
        buf.update("a", &a1);
        let image = buf.encode();
        assert_eq!(image, reference_image(&[("a", &a1), ("b", &b0)]));
        assert_eq!(buf.patched_commits(), 1, "second commit must patch, not rebuild");
    }

    #[test]
    fn length_change_falls_back_to_full_rebuild() {
        let mut a = Fields::new();
        a.set("s", Value::Str("ab".into()));
        let b = fields(2);
        let mut buf = CheckpointBuffer::new([("a", &a), ("b", &b)]);
        let _ = buf.encode();
        // Growing the string changes the region's encoded length; every
        // later offset shifts, so the commit must rebuild.
        let mut a2 = Fields::new();
        a2.set("s", Value::Str("a-much-longer-string".into()));
        buf.update("a", &a2);
        let patched_before = buf.patched_commits();
        let image = buf.encode();
        assert_eq!(image, reference_image(&[("a", &a2), ("b", &b)]));
        assert_eq!(buf.patched_commits(), patched_before, "length change must rebuild");
        // And patching resumes on the refreshed offsets afterwards.
        let mut a3 = Fields::new();
        a3.set("s", Value::Str("a-MUCH-longer-string".into()));
        buf.update("a", &a3);
        let image = buf.encode();
        assert_eq!(image, reference_image(&[("a", &a3), ("b", &b)]));
        assert_eq!(buf.patched_commits(), patched_before + 1);
    }

    #[test]
    fn unchanged_state_update_is_clean() {
        let a = fields(7);
        let mut buf = CheckpointBuffer::new([("a", &a)]);
        let first = buf.encode();
        // Re-checkpointing identical state skips the copy and leaves the
        // region clean for the next commit.
        assert!(buf.update("a", &fields(7)));
        assert_eq!(buf.clean_updates(), 1);
        assert_eq!(buf.encode(), first);
    }

    #[test]
    fn duplicate_region_names_resolve_to_first_constructed() {
        // The old linear scan returned the first matching region; the
        // sorted index must preserve that.
        let a0 = fields(1);
        let a1 = fields(2);
        let mut buf = CheckpointBuffer::new([("dup", &a0), ("dup", &a1)]);
        let first = buf.region_image("dup").unwrap().to_vec();
        let mut only_first = CheckpointBuffer::new([("dup", &a0)]);
        let only_image = only_first.encode();
        // Layout: u32 count, u32 name_len, "dup", u32 img_len, image.
        assert_eq!(first.as_slice(), &only_image[4 + 4 + 3 + 4..], "first region wins lookups");
        buf.update("dup", &fields(9));
        let decoded = CheckpointBuffer::decode(&buf.encode()).unwrap();
        assert_eq!(decoded[0].1.u64("v"), Some(9), "update lands in the first region");
        assert_eq!(decoded[1].1.u64("v"), Some(2), "second region untouched");
    }
}
