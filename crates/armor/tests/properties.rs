//! Property-based tests on the ARMOR architecture's core invariants.

use proptest::prelude::*;
use ree_armor::{
    decode_fields, encode_fields, ArmorEvent, ArmorId, CheckpointBuffer, DecodeError, Fields,
    Inbound, ReliableComm, Value, WirePacket,
};
use ree_sim::{SimDuration, SimRng, SimTime};
use std::sync::Arc;

fn arb_value() -> impl Strategy<Value = Value> {
    let leaf = prop_oneof![
        any::<bool>().prop_map(Value::Bool),
        any::<u64>().prop_map(Value::U64),
        any::<i64>().prop_map(Value::I64),
        any::<f64>().prop_filter("total order", |f| !f.is_nan()).prop_map(Value::F64),
        "[a-z0-9_/.-]{0,24}".prop_map(Value::Str),
        (0u64..1 << 40).prop_map(|v| Value::Ptr(v * 4096)),
    ];
    leaf.prop_recursive(3, 32, 8, |inner| {
        prop_oneof![
            proptest::collection::vec(inner.clone(), 0..6).prop_map(Value::List),
            proptest::collection::btree_map("[a-z]{1,6}", inner, 0..6).prop_map(Value::Map),
        ]
    })
}

fn arb_fields() -> impl Strategy<Value = Fields> {
    proptest::collection::btree_map("[a-z_]{1,10}", arb_value(), 0..8).prop_map(|m| {
        let mut f = Fields::new();
        for (k, v) in m {
            f.set(k, v);
        }
        f
    })
}

/// One step of an element's life between microcheckpoints: every `&mut`
/// method of [`Fields`], a clone of another element's state, a whole-state
/// replacement by a decoded image or by an older copy, and the
/// checkpoint operations.
#[derive(Debug)]
enum Op {
    Set(usize, String, Value),
    GetMut(usize, String, Value),
    Remove(usize, String),
    Bump(usize, String),
    ResolveMut(usize, usize, Value),
    Flip(usize, u64),
    CloneFrom(usize, usize),
    Decoded(usize),
    Save(usize),
    Restore(usize),
    Update(usize),
    Commit,
}

fn arb_op() -> impl Strategy<Value = Op> {
    // Few names and indices, and updates and commits weighted up, so
    // mutations often hit a field a commit has already captured.
    let name = || "[ab]";
    let idx = || 0usize..3;
    prop_oneof![
        (idx(), name(), arb_value()).prop_map(|(i, n, v)| Op::Set(i, n, v)),
        (idx(), name(), arb_value()).prop_map(|(i, n, v)| Op::GetMut(i, n, v)),
        (idx(), name()).prop_map(|(i, n)| Op::Remove(i, n)),
        (idx(), name()).prop_map(|(i, n)| Op::Bump(i, n)),
        (idx(), any::<usize>(), arb_value()).prop_map(|(i, l, v)| Op::ResolveMut(i, l, v)),
        (idx(), any::<u64>()).prop_map(|(i, seed)| Op::Flip(i, seed)),
        (idx(), idx()).prop_map(|(i, j)| Op::CloneFrom(i, j)),
        idx().prop_map(Op::Decoded),
        idx().prop_map(Op::Save),
        idx().prop_map(Op::Restore),
        idx().prop_map(Op::Update),
        idx().prop_map(Op::Update),
        idx().prop_map(Op::Update),
        any::<bool>().prop_map(|_| Op::Commit),
        any::<bool>().prop_map(|_| Op::Commit),
    ]
}

proptest! {
    /// Checkpoint wire format round-trips arbitrary element state.
    #[test]
    fn fields_encode_decode_roundtrip(fields in arb_fields()) {
        let bytes = encode_fields(&fields);
        let back = decode_fields(&bytes).expect("well-formed image decodes");
        prop_assert_eq!(fields, back);
    }

    /// Bit flips never make state unreadable: a flipped leaf still
    /// encodes/decodes (semantic corruption, not structural).
    #[test]
    fn flipped_fields_still_encode(fields in arb_fields(), seed in any::<u64>()) {
        let mut fields = fields;
        let mut rng = SimRng::new(seed);
        let _ = fields.flip_random_leaf(&mut rng, None);
        let bytes = encode_fields(&fields);
        prop_assert!(decode_fields(&bytes).is_ok());
    }

    /// Decoding never panics on arbitrary bytes: a checkpoint image is
    /// exactly what injected faults corrupt, so garbage must come back
    /// as a typed error (or, by chance, a well-formed value).
    #[test]
    fn decode_never_panics_on_arbitrary_bytes(
        bytes in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        let _: Result<Fields, DecodeError> = decode_fields(&bytes);
    }

    /// Every strict prefix of a valid image is rejected as truncated
    /// rather than panicking or reading past the end.
    #[test]
    fn truncated_images_never_panic(fields in arb_fields(), cut in any::<usize>()) {
        let bytes = encode_fields(&fields);
        let cut = cut % bytes.len();
        prop_assert_eq!(decode_fields(&bytes[..cut]), Err(DecodeError::Truncated));
    }

    /// Bit flips in the encoded image (tags, lengths, payload) never
    /// panic the decoder.
    #[test]
    fn bit_flipped_images_never_panic(
        fields in arb_fields(),
        flips in proptest::collection::vec(any::<usize>(), 1..4),
    ) {
        let mut bytes = encode_fields(&fields);
        for bit in flips {
            let bit = bit % (bytes.len() * 8);
            bytes[bit / 8] ^= 1 << (bit % 8);
        }
        let _: Result<Fields, DecodeError> = decode_fields(&bytes);
    }

    /// The checkpoint buffer's regions are disjoint: updating one element
    /// never perturbs another's stored image.
    #[test]
    fn checkpoint_regions_are_disjoint(
        a in arb_fields(),
        b in arb_fields(),
        a2 in arb_fields(),
    ) {
        let mut buf = CheckpointBuffer::new([("a", &a), ("b", &b)]);
        let b_before = buf.region_image("b").unwrap().to_vec();
        buf.update("a", &a2);
        prop_assert_eq!(buf.region_image("b").unwrap(), b_before.as_slice());
        let decoded = CheckpointBuffer::decode(&buf.encode()).unwrap();
        let restored_a = &decoded.iter().find(|(n, _)| n == "a").unwrap().1;
        prop_assert_eq!(restored_a, &a2);
    }

    /// Reliable messaging delivers every message exactly once under
    /// arbitrary loss and duplication of packets/acks.
    #[test]
    fn comm_exactly_once_under_loss(
        n_msgs in 1usize..12,
        drops in proptest::collection::vec(any::<bool>(), 1..40),
        seed in any::<u64>(),
    ) {
        let mut rng = SimRng::new(seed);
        let mut sender = ReliableComm::new(ArmorId(1), SimDuration::from_secs(1));
        let mut receiver = ReliableComm::new(ArmorId(2), SimDuration::from_secs(1));
        let mut delivered: Vec<u64> = Vec::new();
        // Send all messages; the "network" drops per the drops mask.
        let mut in_flight: Vec<ree_armor::WirePacket> = (0..n_msgs)
            .map(|i| {
                sender.send(
                    SimTime::ZERO,
                    ArmorId(2),
                    vec![ArmorEvent::new("m").with("i", Value::U64(i as u64))],
                )
            })
            .collect();
        let mut now = SimTime::ZERO;
        for round in 0..60 {
            let mut acks = Vec::new();
            for (k, pkt) in in_flight.drain(..).enumerate() {
                let dropped = drops[(round + k) % drops.len()] && round < 30;
                if dropped {
                    continue;
                }
                match receiver.on_packet(pkt) {
                    Inbound::Deliver(msg) => {
                        delivered.push(msg.events[0].u64("i").unwrap());
                        let ack = receiver.acknowledge(&msg);
                        // Acks can also be dropped.
                        if !(drops[(round * 7 + k) % drops.len()] && round < 30) {
                            acks.push(ack);
                        }
                    }
                    Inbound::DuplicateReAck(ack) => acks.push(ack),
                    _ => {}
                }
            }
            for ack in acks {
                let _ = sender.on_packet(ack);
            }
            now += SimDuration::from_secs(2);
            in_flight = sender.tick(now);
            if sender.pending_count() == 0 {
                break;
            }
            let _ = rng.next_u64();
        }
        prop_assert_eq!(sender.pending_count(), 0, "all messages eventually acked");
        let mut sorted = delivered.clone();
        sorted.sort_unstable();
        sorted.dedup();
        prop_assert_eq!(sorted.len(), delivered.len(), "no duplicates delivered");
        prop_assert_eq!(delivered.len(), n_msgs, "every message delivered");
    }

    /// Incremental commits are indistinguishable from from-scratch
    /// encoding under arbitrary event sequences: every interleaving of
    /// region updates (including unchanged-state re-updates and
    /// length-changing updates, which exercise the clean-skip and
    /// full-rebuild paths) and commits must produce exactly the image a
    /// freshly built buffer over the same final states produces.
    #[test]
    fn incremental_encode_matches_from_scratch(
        ops in proptest::collection::vec(
            (0usize..3, arb_fields(), any::<bool>(), any::<bool>()),
            1..24,
        ),
    ) {
        let names = ["alpha", "beta", "gamma"];
        let empty = Fields::new();
        let mut live = CheckpointBuffer::new(names.iter().map(|n| (*n, &empty)));
        let mut states: Vec<Fields> = vec![Fields::new(); names.len()];
        let reference = |states: &[Fields]| {
            CheckpointBuffer::new(names.iter().zip(states).map(|(n, s)| (*n, s))).encode()
        };
        for (idx, fields, reuse_current, commit) in ops {
            // `reuse_current` re-checkpoints the unchanged state — the
            // clean-update path that must not dirty the region.
            let next = if reuse_current { states[idx].clone() } else { fields };
            prop_assert!(live.update(names[idx], &next));
            states[idx] = next;
            if commit {
                prop_assert_eq!(live.encode(), reference(&states));
            }
        }
        prop_assert_eq!(live.encode(), reference(&states));
    }

    /// A region whose encoded image changes length mid-sequence (string
    /// growth) keeps later regions' spans correct.
    #[test]
    fn incremental_encode_survives_length_changes(
        grow_by in 1usize..48,
        tail in arb_fields(),
    ) {
        let mut a = Fields::new();
        a.set("s", Value::Str("x".into()));
        let b = Fields::new();
        let mut live = CheckpointBuffer::new([("a", &a), ("b", &b)]);
        let _ = live.encode();
        let mut a2 = Fields::new();
        a2.set("s", Value::Str("x".repeat(1 + grow_by)));
        live.update("a", &a2);
        live.update("b", &tail);
        let incremental = live.encode();
        let reference = CheckpointBuffer::new([("a", &a2), ("b", &tail)]).encode();
        prop_assert_eq!(incremental, reference);
    }

    /// Sequence rebasing preserves monotonicity (reincarnation safety).
    #[test]
    fn rebase_is_monotone(bases in proptest::collection::vec(0u64..1 << 30, 1..10)) {
        let mut comm = ReliableComm::new(ArmorId(1), SimDuration::from_secs(1));
        let mut last_seq = 0;
        for base in bases {
            comm.rebase(base);
            let pkt = comm.send(SimTime::ZERO, ArmorId(2), vec![ArmorEvent::new("x")]);
            if let ree_armor::WirePacket::Data(m) = pkt {
                prop_assert!(m.seq > last_seq);
                prop_assert!(m.seq > base);
                last_seq = m.seq;
            }
        }
    }

    /// `CheckpointBuffer::decode` never panics on arbitrary bytes: a
    /// stable-storage image is exactly what injected faults corrupt.
    #[test]
    fn checkpoint_decode_never_panics_on_arbitrary_bytes(
        bytes in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        let _: Result<Vec<(String, Fields)>, DecodeError> = CheckpointBuffer::decode(&bytes);
    }

    /// Every strict prefix of a committed image is rejected as
    /// truncated, and bit flips in it come back as `Ok` or a typed error.
    #[test]
    fn damaged_checkpoint_images_never_panic(
        a in arb_fields(),
        b in arb_fields(),
        cut in any::<usize>(),
        flips in proptest::collection::vec(any::<usize>(), 1..4),
    ) {
        let image = CheckpointBuffer::new([("a", &a), ("b", &b)]).encode();
        prop_assert_eq!(
            CheckpointBuffer::decode(&image[..cut % image.len()]),
            Err(DecodeError::Truncated)
        );
        let mut flipped = image.to_vec();
        for bit in flips {
            let bit = bit % (flipped.len() * 8);
            flipped[bit / 8] ^= 1 << (bit % 8);
        }
        let _: Result<Vec<(String, Fields)>, DecodeError> = CheckpointBuffer::decode(&flipped);
    }

    /// The mutation stamp never lets a stale region through, and the
    /// shared image is never changed behind a holder's back: under any
    /// interleaving of `Fields` mutations, clones, whole-state
    /// replacements, updates and commits, every commit returns exactly
    /// the image a fresh buffer builds from the states as last updated,
    /// and every image handed out earlier still reads as it did.
    #[test]
    fn stamped_updates_and_shared_images_match_from_scratch(
        ops in proptest::collection::vec(arb_op(), 1..64),
    ) {
        let names = ["alpha", "beta", "gamma"];
        let mut states: Vec<Fields> = vec![Fields::new(); names.len()];
        let mut saved = states.clone();
        let mut checkpointed = states.clone();
        let mut live = CheckpointBuffer::new(names.iter().zip(&states).map(|(n, s)| (*n, s)));
        let reference = |states: &[Fields]| {
            CheckpointBuffer::new(names.iter().zip(states).map(|(n, s)| (*n, s))).encode()
        };
        let mut handed_out: Vec<(Arc<Vec<u8>>, Vec<u8>)> = Vec::new();
        for op in ops {
            match op {
                Op::Set(i, name, value) => states[i].set(name, value),
                Op::GetMut(i, name, value) => {
                    if let Some(v) = states[i].get_mut(&name) {
                        *v = value;
                    }
                }
                Op::Remove(i, name) => {
                    let _ = states[i].remove(&name);
                }
                Op::Bump(i, name) => {
                    let _ = states[i].bump(name);
                }
                Op::ResolveMut(i, leaf, value) => {
                    let paths = states[i].leaf_paths();
                    if !paths.is_empty() {
                        let path = &paths[leaf % paths.len()].0;
                        *states[i].resolve_mut(path).expect("listed leaf resolves") = value;
                    }
                }
                Op::Flip(i, seed) => {
                    let _ = states[i].flip_random_leaf(&mut SimRng::new(seed), None);
                }
                Op::CloneFrom(i, j) => states[i] = states[j].clone(),
                Op::Decoded(i) => {
                    let image = live.encode();
                    let decoded = CheckpointBuffer::decode(&image).expect("own image decodes");
                    states[i] = decoded[i].1.clone();
                    handed_out.push((Arc::clone(&image), image.to_vec()));
                }
                Op::Save(i) => saved[i] = states[i].clone(),
                Op::Restore(i) => states[i] = saved[i].clone(),
                Op::Update(i) => {
                    prop_assert!(live.update(names[i], &states[i]));
                    checkpointed[i] = states[i].clone();
                }
                Op::Commit => {
                    let image = live.encode();
                    prop_assert_eq!(&image, &reference(&checkpointed));
                    handed_out.push((Arc::clone(&image), image.to_vec()));
                }
            }
        }
        prop_assert_eq!(live.encode(), reference(&checkpointed));
        for (image, bytes) in &handed_out {
            prop_assert_eq!(image.as_slice(), bytes.as_slice());
        }
    }

    /// A reliable message is immutable once sent: changing the state its
    /// events were built from does not reach the retransmissions, which
    /// share the original events instead of copying them.
    #[test]
    fn retransmission_carries_the_original_events(
        state in arb_fields(),
        later in arb_fields(),
        retransmits in 1usize..4,
    ) {
        let mut state = state;
        let mut sender = ReliableComm::new(ArmorId(1), SimDuration::from_secs(1));
        let events = vec![ArmorEvent { tag: "state-report", fields: state.clone() }];
        let original = events.clone();
        let WirePacket::Data(first) = sender.send(SimTime::ZERO, ArmorId(2), events) else {
            panic!("a send builds a data packet");
        };
        for (name, value) in later.iter() {
            state.set(name.clone(), value.clone());
        }
        let _ = state.bump("generation");
        for k in 1..=retransmits {
            let due = sender.tick(SimTime::from_secs(k as u64));
            prop_assert_eq!(due.len(), 1);
            let Some(WirePacket::Data(again)) = due.into_iter().next() else {
                panic!("a retransmission is a data packet");
            };
            prop_assert_eq!(again.seq, first.seq);
            prop_assert_eq!(again.events.as_slice(), original.as_slice());
            prop_assert!(Arc::ptr_eq(&again.events, &first.events), "events shared, not copied");
        }
    }
}
