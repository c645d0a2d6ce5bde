//! Wire-protocol hardening suite: codec fuzzing, backpressure surfacing,
//! and the golden fixture pinning the v1 format.
//!
//! * **Fuzz**: arbitrary bytes through `decode` and through the framed
//!   `FrameConn::recv` path yield typed errors or valid messages — never a
//!   panic, and never an allocation driven by a hostile length field (the
//!   length is capped before any buffer is sized).
//! * **Canonical codec**: any payload that decodes re-encodes to the same
//!   bytes, and any message round-trips bit-exactly (including NaN
//!   feature values, which travel as raw bits).
//! * **Backpressure on the wire**: a full `BatchQueue` maps directly to
//!   `Msg::Shed`, counted in both `NetStats` and `FleetStats`; a
//!   connection that misses its read deadline trips the counters in both.
//! * **Golden fixture**: `tests/fixtures/wire_v1.hex` holds one canonical
//!   frame per message variant; the production framer must reproduce each
//!   byte-for-byte. Changing the format requires a `NET_PROTO` bump.

use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::Duration;

use proptest::prelude::*;
use warper_ce::{CardinalityEstimator, LabeledExample, UpdateKind};
use warper_durable::DurableEvent;
use warper_serve::net::{
    decode, encode, mem_pair, serve_connection, ByteStream, FrameConn, Msg, NetError,
    NetServerConfig, Refusal, Role, ServerCore, MAX_NET_FRAME, NET_PROTO,
};
use warper_serve::{Fleet, FleetConfig, ModelSnapshot, ShardKey, ShardSpec};

// ---------------------------------------------------------------------------
// Codec fuzzing
// ---------------------------------------------------------------------------

/// Every message variant with fields derived from one xorshift64* stream —
/// arbitrary bit patterns (NaN features included) without needing a
/// combinator-style strategy library.
fn msgs_from_seed(seed: u64, nf: usize, nb: usize) -> Vec<Msg> {
    let mut s = seed | 1;
    let mut next = move || {
        s ^= s >> 12;
        s ^= s << 25;
        s ^= s >> 27;
        s.wrapping_mul(0x2545_F491_4F6C_DD1D)
    };
    let features: Vec<f64> = (0..nf).map(|_| f64::from_bits(next())).collect();
    let frame: Vec<u8> = (0..nb).map(|_| next() as u8).collect();
    let snapshot: Vec<u8> = (0..nb).map(|_| next() as u8).collect();
    let carry: Vec<u8> = (0..nb / 2).map(|_| next() as u8).collect();
    vec![
        Msg::Hello {
            role: if next() & 1 == 0 {
                Role::Client
            } else {
                Role::Standby
            },
            proto: next() as u16,
        },
        Msg::EstimateReq {
            id: next(),
            features,
        },
        Msg::EstimateOk {
            id: next(),
            value_bits: next(),
            generation: next(),
            batch: next() as u32,
        },
        Msg::Shed { id: next() },
        Msg::Rejected {
            id: next(),
            expected: next() as u32,
            got: next() as u32,
        },
        Msg::Unavailable {
            id: next(),
            reason: if next() & 1 == 0 {
                Refusal::NotPrimary
            } else {
                Refusal::ShuttingDown
            },
        },
        Msg::Repl {
            idx: next(),
            event: DurableEvent::WalAppend {
                wal_seq: next(),
                frame,
            },
        },
        Msg::Repl {
            idx: next(),
            event: DurableEvent::Checkpoint {
                seq: next(),
                snapshot,
                carry,
            },
        },
        Msg::ReplAck { watermark: next() },
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Arbitrary bytes never panic the decoder; success implies the input
    /// was the canonical encoding (the codec has no redundant encodings).
    #[test]
    fn decode_arbitrary_bytes_is_total_and_canonical(payload in prop::collection::vec(0u8..=255, 0..512)) {
        if let Ok(msg) = decode(&payload) {
            prop_assert_eq!(encode(&msg), payload);
        }
    }

    /// Every message variant round-trips bit-exactly (NaN features
    /// included: values travel as raw `f64` bits).
    #[test]
    fn every_message_roundtrips(seed in 0u64..u64::MAX, nf in 0usize..24, nb in 0usize..96) {
        for msg in msgs_from_seed(seed, nf, nb) {
            let enc = encode(&msg);
            prop_assert!(enc.len() as u64 <= MAX_NET_FRAME as u64);
            let dec = decode(&enc);
            prop_assert!(dec.is_ok(), "own encoding must decode: {:?}", dec);
            prop_assert_eq!(encode(&dec.unwrap()), enc);
        }
    }

    /// Arbitrary bytes shoved through the framed transport produce a valid
    /// message or a typed error — `FrameConn::recv` never panics and never
    /// allocates from an unchecked length word.
    #[test]
    fn framed_transport_survives_arbitrary_bytes(raw in prop::collection::vec(0u8..=255, 0..256)) {
        let (mut a, b) = mem_pair();
        a.write_all(&raw).expect("mem pipe accepts bytes");
        drop(a); // close: the reader sees EOF after `raw`
        let mut conn = FrameConn::new(b);
        conn.stream_mut()
            .set_read_deadline(Some(Duration::from_millis(200)))
            .expect("deadline set");
        // Drain until EOF or error; each step must be a typed outcome.
        for _ in 0..8 {
            match conn.recv() {
                Ok(_) => continue,
                Err(NetError::Closed) => break,
                Err(NetError::Corrupt(_) | NetError::Cut(_) | NetError::TimedOut | NetError::Io(_)) => break,
            }
        }
    }

    /// A hostile length header is rejected before any allocation, no
    /// matter what over-cap 32-bit length it claims.
    #[test]
    fn oversized_lengths_are_rejected_before_allocation(len in (MAX_NET_FRAME + 1)..=u32::MAX) {
        let (mut a, b) = mem_pair();
        let mut header = Vec::new();
        header.extend_from_slice(&len.to_le_bytes());
        header.extend_from_slice(&0u32.to_le_bytes());
        a.write_all(&header).expect("header written");
        let mut conn = FrameConn::new(b);
        conn.stream_mut()
            .set_read_deadline(Some(Duration::from_millis(200)))
            .expect("deadline set");
        prop_assert!(matches!(conn.recv(), Err(NetError::Corrupt(_))));
    }
}

// ---------------------------------------------------------------------------
// Backpressure surfacing: Shed and deadline trips on the wire + counters
// ---------------------------------------------------------------------------

/// A model whose estimates block on a gate, so the test controls exactly
/// when the worker drains the queue.
#[derive(Clone)]
struct GatedModel {
    gate: Arc<(Mutex<bool>, Condvar)>,
}

impl GatedModel {
    fn new() -> Self {
        Self {
            gate: Arc::new((Mutex::new(false), Condvar::new())),
        }
    }
    fn open(&self) {
        let (lock, cv) = &*self.gate;
        *lock.lock().unwrap_or_else(PoisonError::into_inner) = true;
        cv.notify_all();
    }
}

impl CardinalityEstimator for GatedModel {
    fn feature_dim(&self) -> usize {
        4
    }
    fn estimate(&self, _f: &[f64]) -> f64 {
        let (lock, cv) = &*self.gate;
        let mut open = lock.lock().unwrap_or_else(PoisonError::into_inner);
        while !*open {
            let (g, timeout) = cv
                .wait_timeout(open, Duration::from_secs(10))
                .unwrap_or_else(PoisonError::into_inner);
            open = g;
            if timeout.timed_out() {
                break;
            }
        }
        42.0
    }
    fn fit(&mut self, _e: &[LabeledExample]) {}
    fn update(&mut self, _e: &[LabeledExample]) {}
    fn update_kind(&self) -> UpdateKind {
        UpdateKind::FineTune
    }
    fn name(&self) -> &'static str {
        "gated"
    }
    fn snapshot(&self) -> Option<Box<dyn CardinalityEstimator>> {
        Some(Box::new(self.clone()))
    }
}

fn dial_client(core: &Arc<ServerCore>, cfg: NetServerConfig) -> FrameConn<impl ByteStream> {
    let (srv, mut cli) = mem_pair();
    let core = Arc::clone(core);
    std::thread::spawn(move || serve_connection(srv, &core, &cfg));
    cli.set_read_deadline(Some(Duration::from_secs(5)))
        .expect("deadline set");
    let mut conn = FrameConn::new(cli);
    conn.send(&Msg::Hello {
        role: Role::Client,
        proto: NET_PROTO,
    })
    .expect("hello sent");
    conn
}

/// A one-shard fleet serving `model`.
fn one_shard_fleet(model: GatedModel, cfg: FleetConfig) -> Fleet {
    Fleet::start(
        vec![ShardSpec {
            key: ShardKey::new("wire", "main"),
            snapshot: Arc::new(ModelSnapshot::initial(Box::new(model))),
            adapt: None,
        }],
        cfg,
    )
}

/// A full `BatchQueue` surfaces as `Msg::Shed` on the wire — the request is
/// dropped at admission, never buffered — and the shed is counted in both
/// the network and fleet stats.
#[test]
fn full_queue_sheds_on_the_wire_and_in_both_counters() {
    let model = GatedModel::new();
    let fleet = one_shard_fleet(
        model.clone(),
        FleetConfig {
            workers: 1,
            per_shard_queue: 1,
            max_packed_batch: 1,
            ..Default::default()
        },
    );
    let core = ServerCore::new_fleet(fleet.handle(), true, None);
    let cfg = NetServerConfig::default();

    // Request 1: the worker pops it and blocks inside the gated model.
    let mut c1 = dial_client(&core, cfg);
    c1.send(&Msg::EstimateReq {
        id: 1,
        features: vec![0.5; 4],
    })
    .expect("req 1 sent");
    std::thread::sleep(Duration::from_millis(100));

    // Request 2: sits in the (capacity-1) queue.
    let mut c2 = dial_client(&core, cfg);
    c2.send(&Msg::EstimateReq {
        id: 2,
        features: vec![0.5; 4],
    })
    .expect("req 2 sent");
    std::thread::sleep(Duration::from_millis(100));

    // Request 3: the queue is full — shed, directly onto the wire.
    let mut c3 = dial_client(&core, cfg);
    c3.send(&Msg::EstimateReq {
        id: 3,
        features: vec![0.5; 4],
    })
    .expect("req 3 sent");
    assert_eq!(c3.recv().expect("shed response"), Msg::Shed { id: 3 });

    // Open the gate: the two admitted requests complete normally.
    model.open();
    assert!(matches!(
        c1.recv().expect("resp 1"),
        Msg::EstimateOk { id: 1, .. }
    ));
    assert!(matches!(
        c2.recv().expect("resp 2"),
        Msg::EstimateOk { id: 2, .. }
    ));

    let net = core.stats();
    assert_eq!(net.shed, 1, "exactly one request shed on the wire");
    assert_eq!(net.responses_ok, 2);
    let (svc, _, _) = fleet.shutdown();
    assert_eq!(svc.shed, 1, "the shed also lands in FleetStats");
    assert_eq!(svc.served, 2);
}

/// A silent client trips the per-connection read deadline: the server
/// closes the connection and the trip is counted in `NetStats` *and*
/// `FleetStats` (the deadline is part of the fleet's backpressure story,
/// not just the transport's).
#[test]
fn deadline_trips_surface_in_net_and_fleet_stats() {
    let fleet = one_shard_fleet(GatedModel::new(), FleetConfig::single_tenant());
    let core = ServerCore::new_fleet(fleet.handle(), true, None);
    let cfg = NetServerConfig {
        read_deadline: Duration::from_millis(60),
        write_deadline: Duration::from_millis(200),
        hello_deadline: Duration::from_millis(200),
        repl_poll: Duration::from_millis(10),
    };

    // Hello, then silence: the read deadline must close the connection.
    let mut conn = dial_client(&core, cfg);
    let resp = conn.recv();
    assert!(
        matches!(resp, Err(NetError::Closed) | Err(NetError::Cut(_))),
        "server must close a silent connection, got {resp:?}"
    );

    let deadline = std::time::Instant::now() + Duration::from_secs(2);
    while core.stats().deadline_trips == 0 && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(core.stats().deadline_trips, 1, "trip counted in NetStats");
    let (svc, _, _) = fleet.shutdown();
    assert_eq!(svc.deadline_trips, 1, "trip counted in FleetStats");
}

// ---------------------------------------------------------------------------
// Golden wire fixture
// ---------------------------------------------------------------------------

fn parse_hex(s: &str) -> Vec<u8> {
    assert!(s.len().is_multiple_of(2), "odd hex length");
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).expect("hex digit"))
        .collect()
}

/// Every fixture frame decodes through the production framed transport to
/// a v1 message, and re-sending that message reproduces the frame
/// byte-for-byte. This pins the wire format: any codec or framing change
/// breaks here and requires a `NET_PROTO` bump plus a new fixture.
#[test]
fn golden_wire_fixture_roundtrips_byte_exact() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/wire_v1.hex");
    let fixture = std::fs::read_to_string(path).expect("fixture file present");
    let mut seen = 0usize;
    for line in fixture.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (name, hex) = line.split_once(' ').expect("fixture line: <name> <hex>");
        let frame = parse_hex(hex);

        // Decode through the production framed transport.
        let (mut a, b) = mem_pair();
        a.write_all(&frame).expect("fixture frame written");
        let mut conn = FrameConn::new(b);
        conn.stream_mut()
            .set_read_deadline(Some(Duration::from_millis(500)))
            .expect("deadline set");
        let msg = conn
            .recv()
            .unwrap_or_else(|e| panic!("fixture {name}: frame rejected: {e}"));

        // Re-encode through the production framer; must be byte-exact.
        let (c, mut d) = mem_pair();
        let mut out = FrameConn::new(c);
        out.send(&msg).expect("fixture message re-sent");
        drop(out);
        let mut echoed = Vec::new();
        let mut buf = [0u8; 256];
        d.set_read_deadline(Some(Duration::from_millis(500)))
            .expect("deadline set");
        loop {
            match d.read_some(&mut buf) {
                Ok(0) => break,
                Ok(n) => echoed.extend_from_slice(&buf[..n]),
                Err(e) => panic!("fixture {name}: raw read failed: {e}"),
            }
        }
        assert_eq!(
            echoed, frame,
            "fixture {name}: production framing diverged from the pinned v1 bytes"
        );
        seen += 1;
    }
    assert_eq!(seen, 14, "fixture must cover every message variant");
}
