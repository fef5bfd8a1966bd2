//! Satellite-3 hostile-input coverage for the UDP receive path: every
//! truncated, oversized, bit-flipped, or plain-garbage datagram must
//! surface as a typed `DsmError` plus a stat counter — never a panic,
//! never a hang — both through the pure parser and through a real
//! socket being blasted mid-run.

use genomedsm_dsm::codec::encode_msg;
use genomedsm_dsm::msg::{Envelope, Msg};
use genomedsm_dsm::transport::udp::{Datagram, TPT_ACK, TPT_DATA};
use genomedsm_dsm::{
    from_frame, ClusterCtx, ClusterManifest, DsmConfig, DsmSystem, FaultPlan, FrameWriter, Node,
    RetransmitPolicy, Transport, TransportStats, UdpTransport, CHAN_DAEMON, CHAN_REQ,
};
use proptest::prelude::*;
use std::net::UdpSocket;
use std::time::{Duration, Instant};

/// A syntactically valid data datagram built by hand, field by field, so
/// the tests check the transport against DESIGN.md §5.12's wire format
/// rather than against its own encoder.
fn valid_data_frame(session: u64, from: usize, chan: u8, seq: u64, payload: &[u8]) -> Vec<u8> {
    data_frame(session, from, chan, seq, 0, payload)
}

/// [`valid_data_frame`] carrying request id `env_seq`.
fn data_frame(
    session: u64,
    from: usize,
    chan: u8,
    seq: u64,
    env_seq: u64,
    payload: &[u8],
) -> Vec<u8> {
    let mut w = FrameWriter::default();
    w.u8(TPT_DATA);
    w.u64(session);
    w.usize(from);
    w.u8(chan);
    w.u64(seq);
    w.u32(0); // frag_idx
    w.u32(1); // frag_count
    w.u64(env_seq);
    w.u64(0); // arrive_ns
    w.bytes(payload);
    w.finish()
}

fn valid_ack_frame(session: u64, from: usize, chan: u8, seq: u64) -> Vec<u8> {
    let mut w = FrameWriter::default();
    w.u8(TPT_ACK);
    w.u64(session);
    w.usize(from);
    w.u8(chan);
    w.u64(seq);
    w.finish()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Arbitrary bytes: the parser returns Ok or a typed error, never
    /// panics. (A random blob passing the length+checksum gate is
    /// astronomically unlikely but would still be structurally valid.)
    #[test]
    fn parser_is_total_on_garbage(bytes in proptest::collection::vec(0u8..=255, 0..256)) {
        let _ = from_frame::<Datagram>(&bytes);
    }

    /// Single bit flips anywhere in a valid frame are always rejected:
    /// the additive checksum cannot absorb a one-byte change.
    #[test]
    fn single_byte_flips_never_parse(
        seq in 0u64..1000,
        idx in 0usize..64,
        bit in 0u8..8,
    ) {
        let frame = valid_data_frame(7, 1, 0, seq, &[0xab; 32]);
        let mut bad = frame.clone();
        let at = idx % bad.len();
        bad[at] ^= 1 << bit;
        prop_assert!(from_frame::<Datagram>(&bad).is_err(), "flip at {at} accepted");
    }

    /// Truncations at every prefix length are typed errors.
    #[test]
    fn truncations_never_parse(cut_seed in 0u64..10_000) {
        let frame = valid_ack_frame(3, 0, 1, 99);
        let cut = (cut_seed as usize) % frame.len();
        prop_assert!(from_frame::<Datagram>(&frame[..cut]).is_err());
    }

    /// Frames that re-checksum correctly after appending garbage still
    /// fail (trailing bytes are part of the checksummed region, and the
    /// reader demands full consumption).
    #[test]
    fn oversized_frames_never_parse(extra in proptest::collection::vec(0u8..=255, 1..64)) {
        let mut frame = valid_data_frame(1, 0, 2, 5, b"xyz");
        frame.extend_from_slice(&extra);
        prop_assert!(from_frame::<Datagram>(&frame).is_err());
    }
}

#[test]
fn hand_built_frames_parse_back() {
    // The hand encoder above matches the transport's real decoder — the
    // premise all the negative tests rest on.
    match from_frame::<Datagram>(&valid_data_frame(9, 2, 1, 44, b"hello")) {
        Ok(Datagram::Data(d)) => {
            assert_eq!((d.session, d.from, d.chan, d.seq), (9, 2, 1, 44));
            assert_eq!(d.payload, b"hello");
        }
        other => panic!("expected Data, got {other:?}"),
    }
    match from_frame::<Datagram>(&valid_ack_frame(9, 1, 0, 7)) {
        Ok(Datagram::Ack(a)) => assert_eq!((a.session, a.from, a.chan, a.seq), (9, 1, 0, 7)),
        other => panic!("expected Ack, got {other:?}"),
    }
}

fn unknown_tag_frame() -> Vec<u8> {
    let mut w = FrameWriter::default();
    w.u8(0x13);
    w.finish()
}

fn fresh_manifest(n: usize) -> ClusterManifest {
    let holds: Vec<UdpSocket> = (0..n)
        .map(|_| UdpSocket::bind("127.0.0.1:0").expect("bind ephemeral"))
        .collect();
    let nodes = holds
        .iter()
        .map(|s| s.local_addr().expect("local addr"))
        .collect();
    drop(holds);
    ClusterManifest::new(nodes)
}

/// Blasts a live cluster's rank-0 socket with every category of hostile
/// datagram while a real run is in flight: the run must complete with
/// correct results and the garbage must show up in the drop counters.
#[test]
fn live_socket_survives_garbage_blast() {
    const SESSION: u64 = 77;
    let manifest = fresh_manifest(2);
    let target = manifest.nodes[0];

    let mut rank_handles = Vec::new();
    for rank in 0..2 {
        let manifest = manifest.clone();
        rank_handles.push(std::thread::spawn(move || {
            let ctx = ClusterCtx::new(rank, manifest, SESSION).expect("ctx");
            let config = DsmConfig::new(2).cluster(ctx);
            DsmSystem::run_wire(config, |node: &mut Node| {
                let v = node.alloc_vec::<i64>(512);
                node.barrier();
                // Enough rounds that the blast overlaps the run.
                for round in 0..30 {
                    node.lock(0);
                    let x = node.vec_get(&v, 0);
                    node.vec_set(&v, 0, x + 1);
                    node.unlock(0);
                    node.vec_set(&v, 1 + node.id() * 32 + (round % 32), round as i64);
                    node.barrier();
                }
                let s: i64 = node.vec_read_range(&v, 0..512).iter().sum();
                node.barrier();
                s
            })
        }));
    }

    // The attacker: raw garbage, truncated frames, corrupted frames,
    // stale sessions, impossible senders — all at rank 0's real socket.
    let attacker = UdpSocket::bind("127.0.0.1:0").expect("bind attacker");
    let mut corrupted = valid_data_frame(SESSION, 1, 0, 0, &[1; 64]);
    let mid = corrupted.len() / 2;
    corrupted[mid] ^= 0xff;
    // Well-formed in every layer and carrying a body no peer could send,
    // on the same link as the forged `Shutdown` below, after it: the
    // transport takes seq 1, 2, ... in order, and since it drops the
    // `Shutdown` itself the daemon sees request ids 0, 1, ... . Each one
    // used to kill rank 0's daemon (an index or an assertion) or, the
    // obituary, finish its barriers one arrival short.
    let forged_bodies = [
        Msg::GetPage {
            page: 0,
            from: 99,
            epoch: 0,
        },
        Msg::Obituary {
            node: 99,
            incarnation: 0,
        },
        Msg::MigrateOut { page: 0, to: 99 },
        Msg::AdoptPage {
            page: 0,
            data: vec![0; 8],
        },
        Msg::Release {
            lock: 0,
            from: 1,
            notices: Vec::new(),
        },
        Msg::Barrier {
            from: 1,
            notices: Vec::new(),
        },
    ];
    let forged = forged_bodies
        .iter()
        .zip(1..)
        .map(|(msg, seq)| data_frame(SESSION, 1, CHAN_DAEMON, seq, seq - 1, &encode_msg(msg)));
    let volleys: Vec<Vec<u8>> = vec![
        vec![0xde, 0xad, 0xbe, 0xef],
        vec![],
        vec![0; 1400],
        valid_data_frame(SESSION, 1, 0, 3, b"x")[..10].to_vec(), // truncated
        corrupted,                                               // checksum fails
        valid_data_frame(SESSION + 1, 1, 0, 0, b"stale"),        // wrong session
        valid_data_frame(SESSION, 9, 0, 0, b"badfrom"),          // rank out of range
        valid_data_frame(SESSION, 1, 7, 0, b"badchan"),          // unknown channel
        valid_ack_frame(SESSION + 2, 1, 0, 0),                   // stale ack
        unknown_tag_frame(),                                     // unknown tag
        // Well-formed in every layer, on a link (daemon 1 → daemon 0) this
        // run never uses, so seq 0 is in order: a forged launcher
        // `Shutdown`. Delivered, it would end rank 0's daemon and hang
        // both ranks.
        valid_data_frame(SESSION, 1, CHAN_DAEMON, 0, &encode_msg(&Msg::Shutdown)),
    ]
    .into_iter()
    .chain(forged)
    .collect();
    for _ in 0..40 {
        for v in &volleys {
            let _ = attacker.send_to(v, target);
        }
        std::thread::yield_now();
    }

    let runs: Vec<_> = rank_handles
        .into_iter()
        .map(|h| h.join().expect("rank panicked under garbage blast"))
        .collect();
    // Correctness unharmed: both ranks agree and the lock counter holds.
    assert_eq!(runs[0].results, runs[1].results);
    let expect: i64 = 2 * 30 + (0..30i64).map(|r| r % 32).sum::<i64>() * 2;
    assert_eq!(runs[0].results[0], expect);
    // The hostile input was seen and counted on rank 0 (malformed +
    // stale categories both fold into `malformed_dropped`; the corrupted
    // frame lands in `corrupt_dropped`).
    let s0 = &runs[0].stats[0];
    assert!(
        s0.malformed_dropped > 0,
        "garbage blast left no malformed_dropped trace: {s0:?}"
    );
    assert!(
        s0.corrupt_dropped > 0,
        "corrupted frame was not counted: {s0:?}"
    );
}

/// Polls `t`'s counters until `done` holds; panics after five seconds.
fn await_stats(t: &UdpTransport, done: impl Fn(&TransportStats) -> bool) -> TransportStats {
    let start = Instant::now();
    loop {
        let stats = t.stats();
        if done(&stats) {
            return stats;
        }
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "stuck at {stats:?}"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// An ack naming a rank out of range, this rank itself, or an unknown
/// channel is malformed exactly as a data datagram with that header is:
/// each one counts once in `malformed_dropped` and reaches no window, so
/// the frame it names stays unacked and keeps being retransmitted.
#[test]
fn bad_header_acks_are_malformed_and_reach_no_window() {
    const SESSION: u64 = 5;
    // Rank 1 is this test's socket; rank 0 is a real transport.
    let peer = UdpSocket::bind("127.0.0.1:0").expect("bind peer");
    let mut manifest = fresh_manifest(1);
    manifest.nodes.push(peer.local_addr().expect("peer addr"));
    let ctx = ClusterCtx::new(0, manifest, SESSION).expect("ctx");
    let policy = RetransmitPolicy::default();
    let mut t = UdpTransport::bind(&ctx, policy, &FaultPlan::quiet(0)).expect("bind rank 0");
    let wiring = t.wiring(0);
    let msg = Msg::Obituary {
        node: 0,
        incarnation: 0,
    };
    let (arrive, src, seq) = (Duration::ZERO, 0, 0);
    let env = Envelope {
        msg,
        arrive,
        src,
        seq,
    };
    wiring.daemon_tx[1].send(env).expect("send");
    let mut buf = [0u8; 2048];
    let (n, rank0) = peer.recv_from(&mut buf).expect("rank 0 transmits");
    match from_frame::<Datagram>(&buf[..n]) {
        Ok(Datagram::Data(d)) => assert_eq!((d.chan, d.seq), (CHAN_REQ, 0)),
        other => panic!("expected data, got {other:?}"),
    }
    let bad = [(9, CHAN_REQ), (0, CHAN_REQ), (1, 7)];
    for (from, chan) in bad {
        let ack = valid_ack_frame(SESSION, from, chan, 0);
        peer.send_to(&ack, rank0).expect("send ack");
    }
    let stats = await_stats(&t, |s| s.malformed_dropped >= 3);
    let retransmits = stats.retransmits;
    await_stats(&t, |s| s.retransmits > retransmits);
    // The real ack drains the window, so the shutdown does not wait.
    let ack = valid_ack_frame(SESSION, 1, CHAN_REQ, 0);
    peer.send_to(&ack, rank0).expect("send the real ack");
    await_stats(&t, |s| s.datagrams_received == 4);
    drop(wiring);
    t.shutdown();
    let stats = t.stats();
    assert_eq!(stats.malformed_dropped, 3, "{stats:?}");
}
