//! Wire-codec properties across every algorithm message type, plus the
//! CONGEST bandwidth cross-check.
//!
//! Three guarantees are pinned here:
//!
//! * **Round-trip identity** — random messages of every `NodeAlgorithm`
//!   message type survive encode → decode unchanged, and their encoded
//!   payload occupies **exactly** `MessageSize::bit_size()` bits, so the
//!   wire carries precisely what the simulator's accounting charges.
//! * **Malformed input safety** — truncated and corrupted frames, mutated
//!   sealed data frames (through `FrameBuffer` and `read_frame`), Peers
//!   frames, `ShardPlan` bytes, Output frame payloads and stamped trace
//!   payloads come back as errors, never panics, and so do mutated
//!   `RunMetrics` and `RoundRow` JSONL rows.
//! * **Bandwidth cross-check** — the paper algorithms' messages, pushed
//!   through the codec, never encode wider than the `max_message_bits` the
//!   simulator recorded for the run (and hence stay within the E12
//!   `BandwidthReport` bound).  A codec that silently fattened messages
//!   past the CONGEST bound fails here.

use proptest::prelude::*;

use dcme_baselines::degree_plus_one::{self, D1Message};
use dcme_baselines::locally_iterative::ColorMsg;
use dcme_baselines::luby::LubyMessage;
use dcme_baselines::ultrafast::{self, UltrafastMessage};
use dcme_coloring::list::{self, ListMessage};
use dcme_coloring::reduction::InputColor;
use dcme_coloring::trial::{self, TrialMessage};
use dcme_coloring::TrialConfig;
use dcme_congest::transport::{parse_peers, write_peers};
use dcme_congest::wire::{
    decode_payload, encode_payload, for_each_data_entry, read_frame, DataFrameBuilder, Frame,
    FrameBuffer,
};
use dcme_congest::{
    decode_output_payload, decode_stamped, encode_output_payload, encode_stamped, BandwidthReport,
    ExecutionMode, FaultKind, MessageSize, PhaseTimings, RoundRow, RunMetrics, ShardPlan,
    TraceEvent, TracePhase, WireMessage,
};
use dcme_graphs::coloring::Coloring;
use dcme_graphs::generators;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Encode → decode must be the identity, and the payload must be bit-exact.
fn assert_round_trip<M: WireMessage + MessageSize + PartialEq + core::fmt::Debug>(msg: &M) {
    let (bits, aux, bytes) = encode_payload(msg);
    assert_eq!(
        bits as u64,
        msg.bit_size(),
        "encoded payload width must equal the accounted bit_size for {msg:?}"
    );
    let back: M = decode_payload(bits, aux, &bytes)
        .unwrap_or_else(|e| panic!("decode of freshly encoded {msg:?} failed: {e}"));
    assert_eq!(&back, msg);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random messages of every algorithm message type round-trip.
    #[test]
    fn all_message_types_round_trip(a in 0u64..1_000_000, b in 0u64..1_000_000, raw in 0u64..u64::MAX) {
        assert_round_trip(&raw);
        assert_round_trip(&TrialMessage::Active { input_color: a });
        assert_round_trip(&TrialMessage::Adopted { color: b });
        assert_round_trip(&ListMessage::Propose { color: a, priority: b });
        assert_round_trip(&ListMessage::Finalized { color: a });
        assert_round_trip(&LubyMessage::Propose(a));
        assert_round_trip(&LubyMessage::Final(b));
        assert_round_trip(&ColorMsg(a));
        assert_round_trip(&InputColor(b));
        assert_round_trip(&dcme_coloring::elimination::CurrentColor(a));
        assert_round_trip(&UltrafastMessage::Try { color: a });
        assert_round_trip(&UltrafastMessage::Adopt { color: b });
        assert_round_trip(&UltrafastMessage::Fallback { color: a, id: b });
        assert_round_trip(&D1Message::Propose { color: a, priority: b });
        assert_round_trip(&D1Message::Finalized { color: a });
    }

    /// Truncating or corrupting a sealed data frame yields errors, never
    /// panics, at every cut point and byte position.
    #[test]
    fn truncated_and_corrupted_frames_are_errors(a in 0u64..100_000, b in 0u64..100_000) {
        let mut builder = DataFrameBuilder::new();
        builder.push(3, 0, &ListMessage::Propose { color: a, priority: b });
        builder.push(9, 1, &ListMessage::Finalized { color: b });
        let mut sealed = Vec::new();
        builder.seal(5, 0, 1, &mut sealed);
        let mut fb = FrameBuffer::new();
        fb.feed(&sealed);
        let frame = fb.next_frame().expect("well-formed").expect("complete");
        // The intact frame decodes.
        let mut n = 0;
        for_each_data_entry::<ListMessage>(&frame.payload, |_, _, _| n += 1).expect("intact");
        prop_assert_eq!(n, 2);
        // Every truncation is an error, not a panic.
        for cut in 0..frame.payload.len() {
            prop_assert!(
                for_each_data_entry::<ListMessage>(&frame.payload[..cut], |_, _, _| {}).is_err(),
                "truncation at {} must be an error", cut
            );
        }
        // Every single-byte corruption is handled without panicking (it may
        // decode to a different valid message, or error — never crash).
        for i in 0..frame.payload.len() {
            let mut corrupted = frame.payload.clone();
            corrupted[i] ^= 0x55;
            let _ = for_each_data_entry::<ListMessage>(&corrupted, |_, _, _| {});
        }
    }

    /// The randomized baselines' frames survive the same truncation /
    /// corruption torture (their `Fallback` / `Propose` payloads carry two
    /// variable-width fields split by the aux byte — the shape most easily
    /// broken by framing bugs).
    #[test]
    fn randomized_baseline_frames_are_corruption_safe(a in 0u64..100_000, b in 0u64..100_000) {
        let mut builder = DataFrameBuilder::new();
        builder.push(1, 0, &UltrafastMessage::Try { color: a });
        builder.push(2, 1, &UltrafastMessage::Fallback { color: a, id: b });
        builder.push(3, 2, &UltrafastMessage::Adopt { color: b });
        let mut sealed = Vec::new();
        builder.seal(2, 1, 0, &mut sealed);
        let mut fb = FrameBuffer::new();
        fb.feed(&sealed);
        let frame = fb.next_frame().expect("well-formed").expect("complete");
        let mut n = 0;
        for_each_data_entry::<UltrafastMessage>(&frame.payload, |_, _, _| n += 1).expect("intact");
        prop_assert_eq!(n, 3);
        for cut in 0..frame.payload.len() {
            prop_assert!(
                for_each_data_entry::<UltrafastMessage>(&frame.payload[..cut], |_, _, _| {})
                    .is_err(),
                "truncation at {} must be an error", cut
            );
        }
        for i in 0..frame.payload.len() {
            let mut corrupted = frame.payload.clone();
            corrupted[i] ^= 0x55;
            let _ = for_each_data_entry::<UltrafastMessage>(&corrupted, |_, _, _| {});
        }

        let mut builder = DataFrameBuilder::new();
        builder.push(7, 0, &D1Message::Propose { color: a, priority: b });
        builder.push(8, 1, &D1Message::Finalized { color: b });
        let mut sealed = Vec::new();
        builder.seal(3, 0, 1, &mut sealed);
        let mut fb = FrameBuffer::new();
        fb.feed(&sealed);
        let frame = fb.next_frame().expect("well-formed").expect("complete");
        for cut in 0..frame.payload.len() {
            prop_assert!(
                for_each_data_entry::<D1Message>(&frame.payload[..cut], |_, _, _| {}).is_err(),
                "truncation at {} must be an error", cut
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20_000))]

    /// A worker decodes its `ShardPlan` from bytes another process sent.
    /// Valid plan bytes with bytes overwritten, bits flipped, the tail cut
    /// off or garbage appended must decode to an error or to a plan that
    /// re-encodes to exactly those bytes, never panic.
    #[test]
    fn mutated_plan_bytes_decode_or_fail_cleanly(
        n in 0usize..12,
        shards in 1usize..4,
        seed in 0u64..u64::MAX,
    ) {
        let ring = |emit: &mut dyn FnMut(usize, usize)| {
            (0..n).filter(|_| n > 2).for_each(|i| emit(i, (i + 1) % n));
        };
        let mut bytes = ShardPlan::from_edge_stream(n, shards, ring).unwrap().to_bytes();
        mutate(&mut bytes, &mut StdRng::seed_from_u64(seed));
        if let Ok(plan) = ShardPlan::from_bytes(&bytes) {
            prop_assert_eq!(plan.to_bytes(), bytes);
        }
    }

    /// The coordinator decodes each worker's Output frame payload from
    /// bytes another process sent.  Every registry counter and output
    /// round-trips, and mutated payloads decode or return an `io::Error`,
    /// never panic.
    #[test]
    fn mutated_output_payloads_decode_or_fail_cleanly(
        nodes in 0usize..6,
        first in 0usize..1000,
        seed in 0u64..u64::MAX,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut shard = RunMetrics::default();
        for (i, c) in RunMetrics::COUNTERS.iter().enumerate() {
            // Distinct, and every third one at the top of the range.
            let i = i as u64;
            *(c.get_mut)(&mut shard) = if i % 3 == 0 { u64::MAX - i } else { 1_000_003 * (i + 1) };
        }
        shard.phase_nanos = PhaseTimings {
            send: rng.random_range(0..u64::MAX),
            deliver: 7,
            receive: u64::MAX,
        };
        let outputs: Vec<u64> = (0..nodes).map(|_| rng.random_range(0..u64::MAX)).collect();
        let mut bytes = encode_output_payload(&shard, first, outputs.iter().copied());
        let mut back = Vec::new();
        let decoded = decode_output_payload::<u64>(&bytes, |node, out| {
            back.push((node, out));
            Ok(())
        });
        prop_assert_eq!(decoded.unwrap(), shard);
        prop_assert_eq!(back, (first..).zip(outputs).collect::<Vec<_>>());

        mutate(&mut bytes, &mut rng);
        let _ = decode_output_payload::<u64>(&bytes, |_, _| Ok(()));
    }

    /// Workers read data frames from bytes another process sent: through
    /// a `FrameBuffer` on the nonblocking mesh, through `read_frame` on a
    /// blocking link.  A mutated sealed frame, fed to the buffer in random
    /// pieces, yields frames or an error, never a panic, and both readers
    /// yield the same complete frames before they stop.
    #[test]
    fn mutated_data_frames_decode_or_fail_cleanly(
        entries in 0usize..4,
        seed in 0u64..u64::MAX,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut builder = DataFrameBuilder::new();
        for sender in 0..entries as u32 {
            let msg = ListMessage::Propose {
                color: rng.random_range(0..1000u64),
                priority: rng.random_range(0..u64::MAX),
            };
            builder.push(rng.random_range(0..u32::MAX), sender, &msg);
        }
        let mut bytes = Vec::new();
        builder.seal(rng.random_range(0..u64::MAX), 0, 1, &mut bytes);
        mutate(&mut bytes, &mut rng);

        // Blocking reads, until the first error (running out of bytes too).
        let mut blocking = Vec::new();
        let mut rest = &bytes[..];
        while let Ok(frame) = read_frame(&mut rest) {
            blocking.push(frame);
        }
        // Buffered reads, until a frame is incomplete at the end or bad.
        let (mut fb, mut buffered, mut fed) = (FrameBuffer::new(), Vec::new(), 0);
        loop {
            match fb.next_frame() {
                Ok(Some(frame)) => buffered.push(frame),
                Ok(None) if fed < bytes.len() => {
                    let to = rng.random_range(fed + 1..bytes.len() + 1);
                    fb.feed(&bytes[fed..to]);
                    fed = to;
                }
                Ok(None) | Err(_) => break,
            }
        }
        prop_assert_eq!(&buffered, &blocking);
        for frame in &buffered {
            let _ = for_each_data_entry::<ListMessage>(&frame.payload, |_, _, _| {});
        }
    }

    /// Workers and the coordinator exchange mesh addresses in Peers frames.
    /// A mutated frame, or a frame with a mutated payload, decodes to an
    /// error or to a peer list that re-encodes to exactly that payload,
    /// never a panic.
    #[test]
    fn mutated_peers_frames_decode_or_fail_cleanly(
        count in 0usize..4,
        seed in 0u64..u64::MAX,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let peers: Vec<(u16, String)> = (0..count)
            .map(|_| {
                let (len, wide) = (rng.random_range(0..24usize), rng.random_bool(0.3));
                let addr = (0..len)
                    .map(|_| char::from(rng.random_range(b' '..b'~')))
                    .chain(wide.then_some('ü'))
                    .collect();
                (rng.random_range(0..u16::MAX), addr)
            })
            .collect();
        let frame_of = |peers: &[(u16, String)]| {
            let mut bytes = Vec::new();
            write_peers(&mut bytes, 1, 0, peers).unwrap();
            bytes
        };
        let mut bytes = frame_of(&peers);
        let intact = read_frame(&mut &bytes[..]).unwrap();
        prop_assert_eq!(parse_peers(&intact).unwrap(), peers);

        let payload = {
            let mut payload = intact.payload.clone();
            mutate(&mut payload, &mut rng);
            payload
        };
        if let Ok(list) = parse_peers(&Frame { payload: payload.clone(), ..intact }) {
            let again = read_frame(&mut &frame_of(&list)[..]).unwrap();
            prop_assert_eq!(again.payload, payload);
        }
        mutate(&mut bytes, &mut rng);
        if let Ok(frame) = read_frame(&mut &bytes[..]) {
            let _ = parse_peers(&frame);
        }
    }

    /// The coordinator decodes each worker's stamped trace from bytes
    /// another process sent.  Every event kind round-trips, and a mutated
    /// payload decodes to an error or to events that re-encode to as many
    /// bytes, never a panic.
    #[test]
    fn mutated_stamped_traces_decode_or_fail_cleanly(
        count in 0usize..6,
        seed in 0u64..u64::MAX,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let events: Vec<(u64, TraceEvent)> = (0..count)
            .map(|_| (rng.random_range(0..u64::MAX), random_event(&mut rng)))
            .collect();
        let mut bytes = encode_stamped(&events);
        prop_assert_eq!(decode_stamped(&bytes).unwrap(), events);
        mutate(&mut bytes, &mut rng);
        if let Ok(events) = decode_stamped(&bytes) {
            prop_assert_eq!(encode_stamped(&events).len(), bytes.len());
        }
    }

    /// `exp_diff` reads JSONL rows from files anyone may edit: mutated
    /// `RunMetrics` and `RoundRow` lines parse or return an error, never
    /// panic.
    #[test]
    fn mutated_jsonl_rows_parse_or_fail_cleanly(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let metrics = RunMetrics {
            rounds: 3,
            messages: u64::MAX,
            active_per_round: vec![4, 2, 1],
            shard_phase_nanos: vec![PhaseTimings::default(); 2],
            ..RunMetrics::default()
        };
        let row = RoundRow {
            round: 2,
            wall_nanos: u64::MAX,
            ..RoundRow::default()
        };
        for line in [metrics.to_json("a/\"b\""), row.to_json("a/\"b\"")] {
            let mut bytes = line.into_bytes();
            mutate(&mut bytes, &mut rng);
            let text = String::from_utf8_lossy(&bytes);
            let _ = RunMetrics::from_json(&text);
            let _ = RoundRow::from_json(&text);
        }
    }
}

/// One trace event of a random kind, with random fields.
fn random_event(rng: &mut StdRng) -> TraceEvent {
    let mut n = || rng.random_range(0..u64::MAX);
    let (round, a, b, c, d) = (n(), n() as usize, n() as usize, n(), n());
    let phase = [TracePhase::Send, TracePhase::Deliver, TracePhase::Receive][(c % 3) as usize];
    let kind = [
        FaultKind::Dropped,
        FaultKind::Duplicated,
        FaultKind::Delayed { rounds: d },
        FaultKind::Retransmitted,
        FaultKind::PartitionDropped,
        FaultKind::PartitionDeferred { until_round: d },
    ][(c % 6) as usize];
    match rng.random_range(0..12u32) {
        0 => TraceEvent::RunStart {
            nodes: a,
            shards: b,
        },
        1 => TraceEvent::RunEnd { rounds: round },
        2 => TraceEvent::RoundStart { round, active: a },
        3 => TraceEvent::RoundEnd {
            round,
            active: a,
            nanos: c,
        },
        4 => TraceEvent::PhaseStart {
            round,
            shard: a,
            phase,
        },
        5 => TraceEvent::PhaseEnd {
            round,
            shard: a,
            phase,
            nanos: d,
        },
        6 => TraceEvent::ShardFlush {
            round,
            shard: a,
            wire_bytes: c,
            nanos: d,
        },
        7 => TraceEvent::ShardDrain {
            round,
            shard: a,
            nanos: c,
            stale: d,
        },
        8 => TraceEvent::ShardRound {
            round,
            shard: a,
            messages: c,
            bits: d,
            cross: round ^ c,
        },
        9 => TraceEvent::Fault {
            round,
            from: a,
            to: b,
            kind,
        },
        10 => TraceEvent::WorkerStart { shard: a },
        _ => TraceEvent::WorkerEnd { shard: b },
    }
}

/// Applies one or two random mutations to `bytes`: a byte overwritten, a
/// bit flipped, the tail cut off, or garbage appended.
fn mutate(bytes: &mut Vec<u8>, rng: &mut StdRng) {
    for _ in 0..rng.random_range(1..3u32) {
        let kind = if bytes.is_empty() {
            3
        } else {
            rng.random_range(0..4u32)
        };
        match kind {
            0 => {
                let i = rng.random_range(0..bytes.len());
                bytes[i] = rng.random_range(0..256u32) as u8;
            }
            1 => {
                let i = rng.random_range(0..bytes.len());
                bytes[i] ^= 1 << rng.random_range(0..8u32);
            }
            2 => bytes.truncate(rng.random_range(0..bytes.len())),
            _ => {
                let extra = rng.random_range(1..9usize);
                bytes.extend((0..extra).map(|_| rng.random_range(0..256u32) as u8));
            }
        }
    }
}

/// Satellite check: the mother algorithm's messages, wire-encoded, stay
/// within the `max_message_bits` the simulator recorded — and hence within
/// the E12 CONGEST bound.
#[test]
fn trial_messages_encode_within_recorded_bandwidth() {
    let n = 220;
    let g = generators::random_regular(n, 8, 13);
    let input = Coloring::from_ids(n);
    let out = trial::run(&g, &input, TrialConfig::proper(1)).expect("trial run");
    let report = BandwidthReport::check(n, &out.metrics, 4);
    assert!(report.within_congest, "{report}");

    // Every message the run actually transmitted: each node broadcasts
    // `Active{input}` while uncolored (all do in round 0) and announces
    // `Adopted{color}` exactly once.
    let mut messages: Vec<TrialMessage> = (0..n as u64)
        .map(|c| TrialMessage::Active { input_color: c })
        .collect();
    messages.extend(
        out.coloring()
            .colors()
            .iter()
            .map(|&color| TrialMessage::Adopted { color }),
    );
    for msg in &messages {
        let (bits, _, _) = encode_payload(msg);
        assert_eq!(bits as u64, msg.bit_size());
        assert!(
            bits as u64 <= out.metrics.max_message_bits,
            "codec fattened {msg:?} to {bits} bits, past the recorded max of {}",
            out.metrics.max_message_bits
        );
        assert!(bits as u64 <= report.allowed_bits);
    }
}

/// The same cross-check for the list-coloring routine's messages.
#[test]
fn list_messages_encode_within_recorded_bandwidth() {
    let n = 150;
    let g = generators::random_regular(n, 6, 29);
    let delta = 6u64;
    let lists: Vec<Vec<u64>> = (0..n).map(|_| (0..=delta).collect()).collect();
    let priorities: Vec<u64> = (0..n as u64).collect();
    let out = list::list_coloring(&g, &lists, &priorities, ExecutionMode::Sequential)
        .expect("list coloring");
    let report = BandwidthReport::check(n, &out.metrics, 4);
    assert!(report.within_congest, "{report}");

    // Round 0 transmits `Propose{0, id}` from every node; every node later
    // announces `Finalized{color}`.
    let mut messages: Vec<ListMessage> = priorities
        .iter()
        .map(|&priority| ListMessage::Propose { color: 0, priority })
        .collect();
    messages.extend(
        out.coloring
            .colors()
            .iter()
            .map(|&color| ListMessage::Finalized { color }),
    );
    for msg in &messages {
        let (bits, _, _) = encode_payload(msg);
        assert_eq!(bits as u64, msg.bit_size());
        assert!(
            bits as u64 <= out.metrics.max_message_bits,
            "codec fattened {msg:?} past the recorded max"
        );
    }
}

/// The same cross-check for the randomized baselines: every encoded payload
/// fits the declared `MessageSize`, messages known to have been transmitted
/// stay within the recorded `max_message_bits`, the recorded maximum never
/// exceeds the worst message the algorithm can legally emit, and the whole
/// run respects the E12 CONGEST bound.
#[test]
fn randomized_baseline_messages_encode_within_recorded_bandwidth() {
    use dcme_congest::wire::color_width;

    let n = 200;
    let g = generators::random_regular(n, 8, 37);
    let delta = u64::from(g.max_degree());

    let uf = dcme_baselines::ultrafast_coloring(&g, 5, ExecutionMode::Sequential);
    let report = BandwidthReport::check(n, &uf.metrics, 4);
    assert!(report.within_congest, "{report}");
    // Every node announced `Adopt{final color}` — those messages were
    // really transmitted, so they must fit the recorded maximum.
    for &color in uf.coloring.colors() {
        let msg = UltrafastMessage::Adopt { color };
        let (bits, _, _) = encode_payload(&msg);
        assert_eq!(bits as u64, msg.bit_size());
        assert!(
            bits as u64 <= uf.metrics.max_message_bits,
            "codec fattened {msg:?} past the recorded max of {}",
            uf.metrics.max_message_bits
        );
    }
    // The recorded maximum is itself bounded by the widest legal message:
    // a fallback proposal of the largest color by the largest id.
    let worst = UltrafastMessage::Fallback {
        color: delta,
        id: n as u64 - 1,
    };
    assert!(uf.metrics.max_message_bits <= worst.bit_size());
    assert_eq!(
        worst.bit_size(),
        2 + u64::from(color_width(delta)) + u64::from(color_width(n as u64 - 1))
    );

    let d1 = dcme_baselines::degree_plus_one_coloring(&g, 5, ExecutionMode::Sequential);
    let report = BandwidthReport::check(n, &d1.metrics, 4);
    assert!(report.within_congest, "{report}");
    // Node `v` proposed its final color with priority `v` (the winning
    // proposal) and announced it — both messages were really transmitted.
    for (v, &color) in d1.coloring.colors().iter().enumerate() {
        for msg in [
            D1Message::Propose {
                color,
                priority: v as u64,
            },
            D1Message::Finalized { color },
        ] {
            let (bits, _, _) = encode_payload(&msg);
            assert_eq!(bits as u64, msg.bit_size());
            assert!(
                bits as u64 <= d1.metrics.max_message_bits,
                "codec fattened {msg:?} past the recorded max of {}",
                d1.metrics.max_message_bits
            );
        }
    }
    let worst = D1Message::Propose {
        color: delta,
        priority: n as u64 - 1,
    };
    assert!(d1.metrics.max_message_bits <= worst.bit_size());

    // Declared-vs-encoded equality also holds for the cap checks above via
    // `ultrafast::round_cap` / `degree_plus_one::round_cap` runs; pin the
    // caps as the unconditional bounds the drivers promise.
    assert!(uf.metrics.rounds <= ultrafast::round_cap(n));
    assert!(d1.metrics.rounds <= degree_plus_one::round_cap(n));
}
