//! Property tests for the `.runpack` wire codec.
//!
//! Mirrors the feedserve protocol's hardening suite: round-trips are
//! lossless, every truncation of a valid pack is rejected with a typed
//! error, hostile varints never overshift, and decoding arbitrary
//! bytes is total (no panics).

use phishsim_runpack::pack::{RunEvents, RunPack, StateSnapshot};
use phishsim_runpack::wire::{get_varint, put_varint, PackError};
use phishsim_runpack::{batch_digest, record_digest};
use phishsim_simnet::{ObsKind, ObsRecord, SimTime, SpanId};
use proptest::prelude::*;

fn name_strategy() -> impl Strategy<Value = String> {
    prop_oneof![
        Just("browser.visit".to_string()),
        Just("browser.fetch".to_string()),
        Just("engine.report".to_string()),
        Just("retry.attempt".to_string()),
        Just("feed.sync".to_string()),
        "[a-z]{1,8}",
    ]
}

fn record_strategy() -> impl Strategy<Value = ObsRecord> {
    (
        (any::<u32>(), any::<u32>(), 0u8..3),
        (any::<u64>(), proptest::option::of(any::<u64>())),
        name_strategy(),
        "[a-z]{1,6}",
    )
        .prop_map(|((at, seq, tag), (id, parent), name, actor)| {
            // Raw span ids on the wire use 0 as the parent sentinel, so
            // generated ids/parents stay nonzero (the emitter guarantees
            // this via `.max(1)`).
            let id = SpanId::from_raw(id.max(1));
            let kind = match tag {
                0 => ObsKind::SpanStart {
                    id,
                    parent: parent.map(|p| SpanId::from_raw(p.max(1))),
                    name,
                    actor,
                },
                1 => ObsKind::SpanEnd { id },
                _ => ObsKind::Point { name, actor },
            };
            ObsRecord {
                at: SimTime::from_millis(u64::from(at)),
                seq: u64::from(seq),
                kind,
            }
        })
}

fn pack_strategy() -> impl Strategy<Value = RunPack> {
    (
        "[a-z_]{1,12}",
        "[a-z0-9:{}\",]{0,40}",
        proptest::collection::vec(
            (
                "[a-z:0-9]{1,10}",
                proptest::collection::vec(record_strategy(), 0..30),
            ),
            0..4,
        ),
        proptest::collection::vec((any::<u32>(), "[a-z.]{1,12}", "[a-z0-9{}\"]{0,30}"), 0..4),
    )
        .prop_map(|(experiment, json, runs, snaps)| RunPack {
            experiment,
            config_json: json.clone(),
            faults_json: "null".to_string(),
            runs: runs
                .into_iter()
                .enumerate()
                .map(|(i, (label, events))| RunEvents {
                    // Labels must be unique within a pack.
                    label: format!("{label}:{i}"),
                    events,
                })
                .collect(),
            metrics_json: json.clone(),
            snapshots: snaps
                .into_iter()
                .map(|(at, layer, state)| StateSnapshot {
                    at: SimTime::from_millis(u64::from(at)),
                    layer,
                    state,
                })
                .collect(),
            result_json: json,
        })
}

proptest! {
    /// Encode → decode is the identity on canonicalized packs, and
    /// re-encoding the decoded pack is byte-identical.
    #[test]
    fn pack_round_trip(pack in pack_strategy()) {
        let bytes = pack.encode();
        let decoded = RunPack::decode(&bytes).unwrap();
        prop_assert_eq!(&decoded, &pack.canonicalized());
        prop_assert_eq!(decoded.encode(), bytes);
        prop_assert_eq!(decoded.root_digest(), pack.root_digest());
    }

    /// Every proper prefix of a valid pack fails to decode — no
    /// truncation is silently accepted.
    #[test]
    fn every_truncation_rejected(pack in pack_strategy()) {
        let bytes = pack.encode();
        for len in 0..bytes.len() {
            prop_assert!(
                RunPack::decode(&bytes[..len]).is_err(),
                "prefix of {} / {} bytes decoded",
                len,
                bytes.len()
            );
        }
    }

    /// Flipping any single byte of the payload area is caught — by a
    /// digest mismatch or by a framing error, never by silent success
    /// with different content.
    #[test]
    fn single_byte_corruption_never_silent(pack in pack_strategy(), victim in any::<u16>()) {
        let bytes = pack.encode();
        let mut corrupt = bytes.clone();
        let idx = usize::from(victim) % corrupt.len();
        corrupt[idx] ^= 0x01;
        match RunPack::decode(&corrupt) {
            Err(_) => {}
            Ok(decoded) => {
                // A flip inside a length varint can occasionally
                // re-frame into a valid pack; it must not decode to
                // *different* content while claiming validity — the
                // digests pin the payloads.
                prop_assert_eq!(decoded, pack.canonicalized());
            }
        }
    }

    /// Decoding arbitrary bytes never panics.
    #[test]
    fn decode_is_total(bytes in proptest::collection::vec(any::<u8>(), 0..300)) {
        let _ = RunPack::decode(&bytes);
    }

    /// Hostile all-continuation varints: Truncated below the cap,
    /// Overflow at it, cursor never past 10.
    #[test]
    fn varint_all_continuation_bytes_rejected(len in 0usize..64) {
        let hostile = vec![0x80u8; len];
        let mut pos = 0;
        let got = get_varint(&hostile, &mut pos);
        if len < 10 {
            prop_assert_eq!(got, Err(PackError::Truncated));
        } else {
            prop_assert_eq!(got, Err(PackError::Overflow));
            prop_assert_eq!(pos, 10);
        }
    }

    /// Varint round-trip and truncation detection at every cut.
    #[test]
    fn varint_round_trip_and_truncation(v in any::<u64>()) {
        let mut buf = Vec::new();
        put_varint(&mut buf, v);
        for cut in 0..buf.len() {
            let mut pos = 0;
            prop_assert_eq!(get_varint(&buf[..cut], &mut pos), Err(PackError::Truncated));
        }
        let mut pos = 0;
        prop_assert_eq!(get_varint(&buf, &mut pos), Ok(v));
        prop_assert_eq!(pos, buf.len());
    }

    /// The rolling digest is order-insensitive and content-sensitive.
    #[test]
    fn batch_digest_commutes(events in proptest::collection::vec(record_strategy(), 1..40)) {
        let forward = batch_digest(&events);
        let mut reversed = events.clone();
        reversed.reverse();
        prop_assert_eq!(forward, batch_digest(&reversed));
        // Dropping one record changes the digest (XOR removes its term).
        let shorter = &events[..events.len() - 1];
        if record_digest(&events[events.len() - 1]) != 0 {
            prop_assert_ne!(forward, batch_digest(shorter));
        }
    }
}
