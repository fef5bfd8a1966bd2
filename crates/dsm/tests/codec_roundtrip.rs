//! Wire-codec coverage: every `Msg` and `Reply` variant must survive
//! encode → decode bit-exactly into the exact bytes pinned below,
//! decoding must never panic on truncated, flipped or random bytes (typed
//! `DsmError` only), and frames must decode identically regardless of
//! delivery order or duplication — the codec is stateless, which is what
//! lets the transport layer dedup above it.

use genomedsm_dsm::codec::{check_malformed, decode_msg, decode_reply, encode_msg, encode_reply};
use genomedsm_dsm::msg::{Msg, Notice, Patch, Patches, Reply};
use genomedsm_dsm::{DsmError, FrameWriter};

fn notices() -> Vec<Notice> {
    vec![
        Notice {
            page: 0,
            writer: 0,
            home: 0,
        },
        Notice {
            page: u64::MAX,
            writer: 7,
            home: 3,
        },
    ]
}

/// One representative of every request variant, with edge-case payloads.
fn all_msgs() -> Vec<Msg> {
    vec![
        Msg::GetPage {
            page: 42,
            from: 3,
            epoch: 9,
        },
        Msg::Diff {
            page: u64::MAX,
            from: 7,
            patches: [
                Patch {
                    offset: 0,
                    data: vec![],
                },
                Patch {
                    offset: 4090,
                    data: vec![0xff; 300],
                },
            ]
            .into_iter()
            .collect(),
            epoch: 1,
        },
        Msg::Diff {
            page: 0,
            from: 0,
            patches: [].into_iter().collect(),
            epoch: 0,
        },
        Msg::Acquire {
            lock: u32::MAX,
            from: 0,
            last_seq: u64::MAX,
        },
        Msg::Release {
            lock: 3,
            from: 1,
            notices: notices(),
        },
        Msg::SetCv {
            cv: 0,
            from: 5,
            notices: vec![],
        },
        Msg::WaitCv {
            cv: 11,
            from: 2,
            last_seq: 17,
        },
        Msg::Barrier {
            from: 6,
            notices: notices(),
        },
        Msg::MigrationNotice {
            epoch: 4,
            incoming: vec![1, 2, u64::MAX],
        },
        Msg::MigrateOut { page: 12, to: 5 },
        Msg::AdoptPage {
            page: 9,
            data: vec![7; 4096],
        },
        Msg::Shutdown,
        Msg::Obituary {
            node: 7,
            incarnation: 1,
        },
        Msg::Rejoin {
            node: 7,
            incarnation: 2,
            admit_at_round: 19,
            stride: 4,
        },
    ]
}

/// One representative of every reply variant.
fn all_replies() -> Vec<Reply> {
    vec![
        Reply::Page {
            page: 3,
            data: vec![1, 2, 3],
        },
        Reply::Page {
            page: 0,
            data: vec![],
        },
        Reply::DiffAck,
        Reply::LockGranted {
            notices: notices(),
            seq: 88,
        },
        Reply::CvGranted {
            notices: vec![],
            seq: 0,
        },
        Reply::BarrierDone {
            notices: notices(),
            migrations: vec![(5, 1), (u64::MAX, 7)],
            dead: vec![],
        },
        Reply::BarrierDone {
            notices: vec![],
            migrations: vec![],
            dead: vec![2, 5],
        },
        Reply::NodeFailed { node: 6 },
        Reply::RejoinAck {
            round: 9,
            dead: vec![2, 5],
            migrations: vec![(17, 3), (u64::MAX, 0)],
        },
        Reply::RejoinAck {
            round: 0,
            dead: vec![],
            migrations: vec![],
        },
    ]
}

#[test]
fn every_msg_variant_roundtrips() {
    assert_eq!(all_msgs().len(), MSG_GOLDEN.len());
    for (m, want) in all_msgs().into_iter().zip(MSG_GOLDEN) {
        let frame = encode_msg(&m);
        assert_eq!(golden(&frame), want, "frame of {m:?} changed");
        assert_eq!(decode_msg(&frame).unwrap(), m, "roundtrip failed for {m:?}");
    }
}

#[test]
fn every_reply_variant_roundtrips() {
    assert_eq!(all_replies().len(), REPLY_GOLDEN.len());
    for (r, want) in all_replies().into_iter().zip(REPLY_GOLDEN) {
        let frame = encode_reply(&r);
        assert_eq!(golden(&frame), want, "frame of {r:?} changed");
        assert_eq!(
            decode_reply(&frame).unwrap(),
            r,
            "roundtrip failed for {r:?}"
        );
    }
}

#[test]
fn duplicated_and_reordered_delivery_decodes_identically() {
    // The codec is stateless: a retransmitted or queue-delayed frame
    // decodes to the same message no matter where it lands in the
    // delivery order. Simulate a shuffled, duplicated delivery schedule.
    let frames: Vec<(Msg, Vec<u8>)> = all_msgs()
        .into_iter()
        .map(|m| {
            let f = encode_msg(&m);
            (m, f)
        })
        .collect();
    let n = frames.len();
    // Deterministic "network schedule": each frame delivered twice, in a
    // stride permutation of the send order.
    for round in 0..2 {
        for k in 0..n {
            let i = (k * 5 + round * 3) % n;
            let (msg, frame) = &frames[i];
            assert_eq!(&decode_msg(frame).unwrap(), msg);
        }
    }
}

#[test]
fn every_variant_meets_the_malformed_frame_contract() {
    // Truncations, single-byte flips and seeded garbage: typed errors,
    // never a panic or an allocation blow-up.
    for m in all_msgs() {
        check_malformed::<Msg>(&encode_msg(&m)).unwrap_or_else(|e| panic!("{m:?}: {e}"));
    }
    for r in all_replies() {
        check_malformed::<Reply>(&encode_reply(&r)).unwrap_or_else(|e| panic!("{r:?}: {e}"));
    }
}

#[test]
fn a_diff_whose_last_run_overruns_the_frame_is_refused() {
    // Two runs fit the count's guard (12 bytes each at least), but the
    // second claims 100 data bytes and only 5 follow.
    let mut w = FrameWriter::default();
    w.u8(1); // Msg::Diff
    w.u64(3); // page
    w.u64(1); // from
    w.u64(0); // epoch
    w.u64(2); // run count
    w.u32(0);
    w.bytes(&[1, 2, 3]);
    w.u32(64);
    w.u64(100);
    for b in 0..5 {
        w.u8(b);
    }
    let err = decode_msg(&w.finish()).expect_err("an overrunning run decodes");
    assert!(
        matches!(err, DsmError::Truncated { .. } | DsmError::Oversize { .. }),
        "{err:?}"
    );
}

#[test]
fn a_thousand_run_diff_roundtrips() {
    let patches: Patches = (0..1_000u32)
        .map(|i| Patch {
            offset: i * 4,
            data: vec![i as u8; 1 + i as usize % 3],
        })
        .collect();
    let data: usize = patches.runs().map(|(_, d)| d.len()).sum();
    let m = Msg::Diff {
        page: 77,
        from: 2,
        patches,
        epoch: 5,
    };
    let frame = encode_msg(&m);
    // Tag, page, from, epoch, count; each run an offset, a length and its
    // bytes; the checksum.
    assert_eq!(frame.len(), 1 + 4 * 8 + 1_000 * 12 + data + 4);
    assert_eq!(decode_msg(&frame).unwrap(), m);
    assert_eq!(m.wire_size(), 32 + 1_000 * 8 + data);
}

/// A frame as lowercase hex, each run of eight or more equal bytes written
/// `[bb*n]` so a 4 KiB page stays a short golden string.
fn golden(frame: &[u8]) -> String {
    let mut out = String::new();
    let mut rest = frame;
    while let Some(&b) = rest.first() {
        let run = rest.iter().take_while(|&&x| x == b).count();
        if run >= 8 {
            out += &format!("[{b:02x}*{run}]");
        } else {
            out += &format!("{b:02x}").repeat(run);
        }
        rest = &rest[run..];
    }
    out
}

/// The exact frames of [`all_msgs`], in order (see [`golden`]). Frozen:
/// a codec change that moves one byte of a request breaks peers built
/// from an older tree.
const MSG_GOLDEN: [&str; 14] = [
    "002a000000000000000300000000000000090000000000000036000000",
    "01[ff*8]0700000000000000010000000000000002[00*19]fa0f00002c01000000000000[ff*300]0d340100",
    "01[00*32]01000000",
    "02ffffffff[00*8][ff*8]f60b0000",
    "0303000000010000000000000002[00*31][ff*8]070000000000000003000000000000000b080000",
    "040000000005[00*15]09000000",
    "050b0000000200000000000000110000000000000023000000",
    "06060000000000000002[00*31][ff*8]0700000000000000030000000000000010080000",
    "070400000000000000030000000000000001000000000000000200000000000000[ff*8]09080000",
    "080c00000000000000050000000000000019000000",
    "0909[00*8]10000000000000[07*4096]22700000",
    "0a0a000000",
    "0c07000000000000000100000014000000",
    "0e070000000000000002000000130000000000000004000000000000002e000000",
];

/// The exact frames of [`all_replies`], in order.
const REPLY_GOLDEN: [&str; 10] = [
    "80030000000000000003000000000000000102038c000000",
    "80[00*16]80000000",
    "8181000000",
    "82580000000000000002[00*31][ff*8]07000000000000000300000000000000de080000",
    "83[00*16]83000000",
    "8402[00*31][ff*8]07000000000000000300000000000000020000000000000005000000000000000100000000000000[ff*8]07[00*15]8f100000",
    "84[00*16]0200000000000000020000000000000005000000000000008d000000",
    "8506000000000000008b000000",
    "870900000000000000020000000000000002000000000000000500000000000000020000000000000011000000000000000300000000000000[ff*8][00*8]a7080000",
    "87[00*24]87000000",
];
