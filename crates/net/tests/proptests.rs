//! Property-based wire-format validation: encode/decode round-trips for
//! arbitrary messages, and decoding must never panic on arbitrary bytes
//! (a malformed or hostile frame yields `None`, not a crash).

use bytes::Bytes;
use proptest::prelude::*;

use dsud_net::{AggReply, Cover, LinkError, Message, TupleBlock, TupleMsg};
use dsud_uncertain::{SubspaceMask, TupleId};

fn arb_tuple_msg() -> impl Strategy<Value = TupleMsg> {
    (
        any::<u32>(),
        any::<u64>(),
        prop::collection::vec(-1e6f64..1e6, 1..6),
        0.01f64..=1.0,
        0.0f64..=1.0,
    )
        .prop_map(|(site, seq, values, prob, local_prob)| TupleMsg {
            id: TupleId::new(site, seq),
            values,
            prob,
            local_prob,
        })
}

fn arb_message() -> impl Strategy<Value = Message> {
    prop_oneof![
        (0.01f64..=1.0, 1u64..=64, any::<bool>()).prop_map(|(q, bits, counted)| Message::Start {
            q,
            mask: SubspaceMask::try_from_bits(bits).unwrap(),
            counted,
        }),
        Just(Message::RequestNext),
        arb_tuple_msg().prop_map(Message::Feedback),
        Just(Message::Upload(None)),
        arb_tuple_msg().prop_map(|t| Message::Upload(Some(t))),
        (0.0f64..=1.0, any::<u64>())
            .prop_map(|(survival, pruned)| Message::SurvivalReply { survival, pruned }),
        arb_tuple_msg().prop_map(Message::NotifyInsert),
        arb_tuple_msg().prop_map(Message::NotifyDelete),
        prop::collection::vec(arb_tuple_msg(), 0..5).prop_map(Message::ReplicaSync),
        arb_tuple_msg().prop_map(Message::ReplicaAdd),
        arb_tuple_msg().prop_map(Message::ReplicaRemove),
        arb_tuple_msg().prop_map(Message::RegionQuery),
        prop::collection::vec(arb_tuple_msg(), 0..5).prop_map(Message::RegionReply),
        arb_tuple_msg().prop_map(Message::InjectInsert),
        arb_tuple_msg().prop_map(Message::InjectDelete),
        Just(Message::Ack),
        arb_tuple_msg().prop_map(Message::UploadLast),
        Just(Message::CoverRequest),
        arb_cover().prop_map(Message::Cover),
    ]
}

/// A dominance cover of 0 to 8 points in 1 to 5 dimensions.
fn arb_cover() -> impl Strategy<Value = Cover> {
    (1usize..6).prop_flat_map(|dims| {
        prop::collection::vec(prop::collection::vec(-1e6f64..1e6, dims..dims + 1), 0..8)
            .prop_map(move |rows| Cover::new(dims, rows.concat()))
    })
}

/// Tuples sharing one dimensionality, as a columnar block requires.
fn arb_rows() -> impl Strategy<Value = Vec<TupleMsg>> {
    (1usize..6).prop_flat_map(|dims| {
        prop::collection::vec(
            (any::<u32>(), any::<u64>(), prop::collection::vec(-1e6f64..1e6, dims..dims + 1)),
            0..5,
        )
        .prop_map(|rows| {
            rows.into_iter()
                .map(|(site, seq, values)| TupleMsg {
                    id: TupleId::new(site, seq),
                    values,
                    prob: 0.5,
                    local_prob: 0.25,
                })
                .collect::<Vec<_>>()
        })
    })
}

/// A bare draw or drawn reply in either wire layout.
fn arb_draw_frame() -> impl Strategy<Value = Message> {
    let survivals = || (prop::collection::vec(0.0f64..=1.0, 0..6), any::<u64>());
    prop_oneof![
        arb_rows().prop_map(|rows| Message::Draw(Box::new(Message::FeedbackBatch(rows)))),
        arb_rows().prop_map(|rows| {
            Message::Draw(Box::new(Message::FeedbackBatchC(TupleBlock::from_msgs(&rows))))
        }),
        arb_rows().prop_map(|rows| Message::DrawDeferred(Box::new(Message::FeedbackBatch(rows)))),
        arb_rows().prop_map(|rows| {
            Message::DrawDeferred(Box::new(Message::FeedbackBatchC(TupleBlock::from_msgs(&rows))))
        }),
        (survivals(), prop::collection::vec(arb_tuple_msg(), 0..2), any::<bool>()).prop_map(
            |((survivals, pruned), next, last)| Message::Drawn {
                survivals: Box::new(Message::SurvivalBatchReply { survivals, pruned }),
                drained: last || next.is_empty(),
                next: next.into_iter().next(),
            }
        ),
        (survivals(), prop::collection::vec(arb_tuple_msg(), 0..2), any::<bool>()).prop_map(
            |((survivals, pruned), next, last)| Message::Drawn {
                survivals: Box::new(Message::SurvivalBatchReplyC { survivals, pruned }),
                drained: last || next.is_empty(),
                next: next.into_iter().next(),
            }
        ),
    ]
}

/// A draw frame bare, tagged, or routed through a tree aggregator's
/// scatter (requests) or merged replies (replies).
fn arb_routed_draw() -> impl Strategy<Value = Message> {
    (arb_draw_frame(), 0u32..4, any::<u64>()).prop_map(|(msg, route, id)| match route {
        0 => msg,
        1 => Message::Tagged { query_id: id, inner: Box::new(msg) },
        2 if matches!(msg, Message::Draw(_) | Message::DrawDeferred(_)) => {
            Message::AggScatter { parts: vec![(3, Message::RequestNext), (7, msg)] }
        }
        _ => Message::AggReplies {
            replies: vec![(3, AggReply::Err(LinkError::Timeout)), (7, AggReply::Ok(Box::new(msg)))],
        },
    })
}

/// A counted start or its `Started` reply (exhausted or with an upload),
/// bare, tagged, or routed through a tree aggregator's broadcast
/// (requests) or merged replies (replies).
fn arb_routed_start() -> impl Strategy<Value = Message> {
    let frame = prop_oneof![
        (0.01f64..=1.0, 1u64..=64).prop_map(|(q, bits)| Message::Start {
            q,
            mask: SubspaceMask::try_from_bits(bits).unwrap(),
            counted: true,
        }),
        (any::<u32>(), prop::collection::vec(arb_tuple_msg(), 0..2)).prop_map(|(pending, next)| {
            Message::Started { pending, next: next.into_iter().next() }
        }),
    ];
    (frame, 0u32..3, any::<u64>()).prop_map(|(msg, route, id)| match route {
        0 => msg,
        1 => Message::Tagged { query_id: id, inner: Box::new(msg) },
        _ if matches!(msg, Message::Start { .. }) => {
            Message::AggBroadcast { sites: vec![3, 7], inner: Box::new(msg) }
        }
        _ => Message::AggReplies {
            replies: vec![(3, AggReply::Err(LinkError::Timeout)), (7, AggReply::Ok(Box::new(msg)))],
        },
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn encode_decode_roundtrips(msg in arb_message()) {
        let bytes = msg.encode();
        prop_assert_eq!(bytes.len(), msg.encoded_len());
        let back = Message::decode(bytes).expect("well-formed frame");
        prop_assert_eq!(back, msg);
    }

    #[test]
    fn decoding_arbitrary_bytes_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
        // Must return Some or None, never panic.
        let _ = Message::decode(Bytes::from(bytes));
    }

    #[test]
    fn truncated_valid_frames_are_rejected(msg in arb_message(), cut in 0usize..64) {
        let bytes = msg.encode();
        if cut < bytes.len() && bytes.len() > 1 {
            let truncated = bytes.slice(0..bytes.len() - 1 - (cut % (bytes.len() - 1)));
            if truncated.len() < bytes.len() {
                prop_assert!(Message::decode(truncated).is_none());
            }
        }
    }

    #[test]
    fn draw_frames_roundtrip_bare_tagged_and_aggregated(msg in arb_routed_draw()) {
        let bytes = msg.encode();
        prop_assert_eq!(bytes.len(), msg.encoded_len());
        prop_assert_eq!(Message::decode_slice(&bytes), Some(msg));
    }

    #[test]
    fn malformed_draw_truncations_are_rejected_at_every_offset(msg in arb_routed_draw()) {
        let bytes = msg.encode();
        for cut in 0..bytes.len() {
            prop_assert!(Message::decode_slice(&bytes[..cut]).is_none());
        }
    }

    #[test]
    fn malformed_draw_bytes_never_panic(
        tag in prop_oneof![
            Just(34u8), Just(35u8), Just(36u8), Just(41u8),
            Just(44u8), Just(45u8), Just(46u8), Just(47u8),
        ],
        body in prop::collection::vec(any::<u8>(), 0..256),
    ) {
        // Random bodies behind each draw tag: Some or None, never a panic.
        let frame: Vec<u8> = std::iter::once(tag).chain(body).collect();
        let _ = Message::decode_slice(&frame);
    }

    #[test]
    fn refill_flag_and_cover_frames_reject_every_truncation(
        msg in prop_oneof![
            arb_tuple_msg().prop_map(Message::UploadLast),
            arb_cover().prop_map(Message::Cover),
        ],
        query_id in any::<u64>(),
    ) {
        let msg: Message = msg;
        let tagged = Message::Tagged { query_id, inner: Box::new(msg.clone()) };
        for msg in [msg, tagged] {
            let bytes = msg.encode();
            prop_assert_eq!(bytes.len(), msg.encoded_len());
            prop_assert_eq!(Message::decode_slice(&bytes), Some(msg));
            for cut in 0..bytes.len() {
                prop_assert!(Message::decode_slice(&bytes[..cut]).is_none());
            }
        }
    }

    /// A refill reply with held factors round-trips bare, tagged and
    /// aggregated. Its factors carry no count (the coordinator knows how
    /// many it is owed), so a cut is rejected unless it falls on a factor
    /// boundary, where it decodes to the same upload with fewer factors —
    /// which the coordinator's count check rejects.
    #[test]
    fn refilled_frames_roundtrip_and_cuts_lose_whole_factors(
        survivals in prop::collection::vec(0.0f64..=1.0, 1..6),
        next in prop::collection::vec(arb_tuple_msg(), 0..2),
        last in any::<bool>(),
        query_id in any::<u64>(),
    ) {
        let next = next.into_iter().next();
        let drained = last || next.is_none();
        let msg = Message::Refilled { survivals: survivals.clone(), next: next.clone(), drained };
        let tagged = Message::Tagged { query_id, inner: Box::new(msg.clone()) };
        let merged = Message::AggReplies { replies: vec![(2, AggReply::Ok(Box::new(msg.clone())))] };
        for routed in [tagged, merged] {
            let bytes = routed.encode();
            prop_assert_eq!(bytes.len(), routed.encoded_len());
            prop_assert_eq!(Message::decode_slice(&bytes), Some(routed));
        }
        let bytes = msg.encode();
        prop_assert_eq!(Message::decode_slice(&bytes), Some(msg));
        for cut in 0..bytes.len() {
            match Message::decode_slice(&bytes[..cut]) {
                None => {}
                Some(Message::Refilled { survivals: kept, next: n, drained: d }) => {
                    prop_assert!(kept.len() < survivals.len());
                    prop_assert_eq!(&kept[..], &survivals[..kept.len()]);
                    prop_assert_eq!((n, d), (next.clone(), drained));
                }
                Some(other) => prop_assert!(false, "cut {} decoded to {:?}", cut, other),
            }
        }
    }

    #[test]
    fn start_frames_roundtrip_bare_tagged_and_aggregated(msg in arb_routed_start()) {
        let bytes = msg.encode();
        prop_assert_eq!(bytes.len(), msg.encoded_len());
        prop_assert_eq!(Message::decode_slice(&bytes), Some(msg));
    }

    #[test]
    fn malformed_start_truncations_are_rejected_at_every_offset(msg in arb_routed_start()) {
        let bytes = msg.encode();
        for cut in 0..bytes.len() {
            prop_assert!(Message::decode_slice(&bytes[..cut]).is_none());
        }
    }

    #[test]
    fn malformed_start_bytes_never_panic(
        tag in prop_oneof![Just(37u8), Just(38u8), Just(39u8)],
        body in prop::collection::vec(any::<u8>(), 0..256),
    ) {
        // Random bodies behind each start tag: Some or None, never a panic.
        let frame: Vec<u8> = std::iter::once(tag).chain(body).collect();
        let _ = Message::decode_slice(&frame);
    }
}

/// Every tag byte up to the highest the protocol assigns (48), plus 49.
const TAGS: std::ops::RangeInclusive<u8> = 0..=49;
/// The tags no frame may decode under: 16/17 (the retired grid synopsis),
/// 33 (the retired sketch reply) and 49 (never assigned).
const DEAD_TAGS: [u8; 4] = [16, 17, 33, 49];

/// `tail` behind `tag`, bare and behind a [`Message::Tagged`] header.
fn malformed_frames(tag: u8, query_id: u64, tail: &[u8]) -> [Vec<u8>; 2] {
    let bare: Vec<u8> = std::iter::once(tag).chain(tail.iter().copied()).collect();
    let mut tagged = vec![dsud_net::wire::TAG_TAGGED];
    tagged.extend_from_slice(&query_id.to_be_bytes());
    tagged.extend_from_slice(&bare);
    [bare, tagged]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn malformed_frames_under_every_tag_decode_or_reject(
        query_id in any::<u64>(),
        tail in prop::collection::vec(any::<u8>(), 0..96),
    ) {
        for tag in TAGS {
            for frame in malformed_frames(tag, query_id, &tail) {
                // Some or None, never a panic; whatever decodes must encode
                // back to a frame of its advertised length.
                if let Some(msg) = Message::decode_slice(&frame) {
                    prop_assert!(!DEAD_TAGS.contains(&tag), "tag {tag} decoded to {msg:?}");
                    prop_assert_eq!(msg.encode().len(), msg.encoded_len());
                }
            }
        }
    }
}
