//! Wire-protocol robustness sweep (fuzz-style, deterministic seeds) —
//! the serving-layer mirror of `crates/cct/tests/robustness.rs`.
//!
//! The hardening claim is the same and absolute: *no* crafted byte
//! stream makes either side of the protocol panic or hang. A corpus of
//! valid frames is ground three ways — truncation at every offset,
//! a single-bit flip at every position, and outright random bytes —
//! through the frame reader and both body parsers; a live server then
//! takes the same abuse over real sockets, bounded by its read timeout.

use std::io::{Cursor, Write};
use std::net::TcpStream;
use std::time::Duration;

use dcp_cct::{encode, Cct, Frame, ROOT};
use dcp_core::metrics::WIDTH;
use dcp_core::stored::{encode_bundle, StoredBundle};
use dcp_serve::wire::{
    encode_request, encode_response, parse_request, parse_response, read_frame, write_frame,
    Request, Response, MAX_FRAME,
};
use dcp_serve::{Client, Router, RouterConfig, Server, ServerConfig, ServeError};
use dcp_support::bytes::BytesMut;
use dcp_support::rng::SmallRng;

fn frame_bytes(k: u8, body: &[u8]) -> Vec<u8> {
    let mut wire = Vec::new();
    write_frame(&mut wire, k, body).expect("write");
    wire
}

/// A small but non-trivial bundle: one heap tree, names, a hint, an
/// allocation record.
fn sample_bundle() -> StoredBundle {
    let mut t = Cct::new(WIDTH);
    let hm = t.child(ROOT, Frame::HeapMarker);
    let p = t.child(hm, Frame::Proc(0));
    let s = t.child(p, Frame::Stmt(0x40));
    t.add(s, 0, 17);
    t.add(s, 1, 400);
    let mut b = StoredBundle::default();
    b.profiles[1].push(encode(&t));
    b.names.insert(Frame::Proc(0), "main".into());
    b.names.insert(Frame::Stmt(0x40), "main:480".into());
    b.names.insert(Frame::Root, "<program root>".into());
    b.names.insert(Frame::HeapMarker, "heap data accesses".into());
    b.hints.insert(0x40, "S_diag_j".into());
    b.alloc_info.push((vec![Frame::HeapMarker, Frame::Proc(0)], 1, 8192, 1));
    b.stats.samples = 17;
    b
}

/// Valid frames in both directions: every request kind (ingest with a
/// real bundle) and both response kinds.
fn corpus() -> Vec<(bool, Vec<u8>)> {
    let bundle = encode_bundle(&sample_bundle());
    let reqs = [
        Request::Ping,
        Request::Stats,
        Request::Shutdown,
        Request::Query("ranking nw latency 10".into()),
        Request::Ingest { set: "nw".into(), seq: Some(3), bundle: bundle.clone() },
        Request::Ingest { set: "π-set".into(), seq: None, bundle: bundle.clone() },
        // The routed kinds ride the same frame grind as everything else.
        Request::Epoch("nw".into()),
        Request::Partial("π-set".into()),
    ];
    let mut out = Vec::new();
    for r in reqs {
        let (k, body) = encode_request(&r);
        out.push((true, frame_bytes(k, &body)));
    }
    let partial = dcp_serve::encode_set_partial(&dcp_serve::SetPartial {
        epoch: 1,
        bundles: 1,
        blob_bytes: bundle.len() as u64,
        state: bundle,
    });
    for r in [
        Response::Ok("VARIABLE RANKING metric LATENCY (total 400)\n".into()),
        Response::Err(8, "unknown profile set 'nope'".into()),
        Response::Data(partial),
    ] {
        let (k, body) = encode_response(&r);
        out.push((false, frame_bytes(k, &body)));
    }
    out
}

/// Run a mutated frame through read + the appropriate parser. The
/// assertion is reaching the end: typed error or benign parse, never a
/// panic or a hang.
fn grind(is_request: bool, wire: &[u8]) {
    let mut cur = Cursor::new(wire.to_vec());
    if let Ok(Some((k, body))) = read_frame(&mut cur, MAX_FRAME) {
        let _ = if is_request {
            parse_request(k, body).map(|_| ())
        } else {
            parse_response(k, body).map(|_| ())
        };
    }
}

#[test]
fn every_truncation_is_a_typed_error() {
    for (is_request, wire) in corpus() {
        for cut in 0..wire.len() {
            let mut cur = Cursor::new(wire[..cut].to_vec());
            match read_frame(&mut cur, MAX_FRAME) {
                Ok(None) => assert_eq!(cut, 0, "only the empty prefix is a clean EOF"),
                Err(ServeError::Truncated) => {}
                other => panic!("cut at {cut}: expected Truncated, got {other:?}"),
            }
        }
        // Sanity: the whole frame reads and parses.
        grind(is_request, &wire);
        let mut cur = Cursor::new(wire.clone());
        let (k, body) = read_frame(&mut cur, MAX_FRAME).expect("read").expect("frame");
        if is_request {
            parse_request(k, body).expect("corpus requests are valid");
        } else {
            parse_response(k, body).expect("corpus responses are valid");
        }
    }
}

#[test]
fn every_single_bit_flip_is_handled() {
    // A flip may still parse (a flipped byte inside a query string is
    // just a different query) but must never panic or hang. Flips in
    // the magic must always be rejected as BadMagic.
    for (is_request, wire) in corpus() {
        for pos in 0..wire.len() {
            for bit in 0..8u8 {
                let mut mutated = wire.clone();
                mutated[pos] ^= 1 << bit;
                if pos < 4 {
                    let mut cur = Cursor::new(mutated);
                    assert!(
                        matches!(read_frame(&mut cur, MAX_FRAME), Err(ServeError::BadMagic)),
                        "flip at byte {pos} bit {bit} must be BadMagic"
                    );
                    continue;
                }
                grind(is_request, &mutated);
            }
        }
    }
}

#[test]
fn random_bytes_never_panic() {
    // Pure fuzz against the frame reader, with and without a valid
    // magic prefix.
    let mut g = SmallRng::seed_from_u64(0xd_c95);
    for case in 0..4096 {
        let len = g.gen_range(0usize..120);
        let mut raw = Vec::with_capacity(len + 4);
        if case % 2 == 0 {
            raw.extend_from_slice(b"DCPS");
        }
        for _ in 0..len {
            raw.push((g.next_u64() & 0xff) as u8);
        }
        let mut cur = Cursor::new(raw);
        if let Ok(Some((k, body))) = read_frame(&mut cur, MAX_FRAME) {
            let _ = parse_request(k, body.clone()).map(|_| ());
            let _ = parse_response(k, body).map(|_| ());
        }
    }
}

#[test]
fn mutated_ingest_bodies_reach_a_typed_bundle_error() {
    // Flips inside the embedded bundle must surface as Codec errors (or
    // parse as a different-but-valid bundle), never panic — the server
    // decodes every ingest body in full before touching the store.
    let (k, body) = encode_request(&Request::Ingest {
        set: "s".into(),
        seq: None,
        bundle: encode_bundle(&sample_bundle()),
    });
    for pos in 0..body.len() {
        let mut mutated = body.as_slice().to_vec();
        mutated[pos] ^= 1;
        let mut buf = BytesMut::with_capacity(mutated.len());
        buf.put_slice(&mutated);
        if let Ok(Request::Ingest { bundle, .. }) = parse_request(k, buf.freeze()) {
            let _ = dcp_core::stored::decode_bundle(bundle);
        }
    }
}

fn spawn_server() -> (String, std::thread::JoinHandle<()>) {
    let server = Server::bind(ServerConfig {
        read_timeout: Duration::from_millis(500),
        sessions: 2,
        ..ServerConfig::default()
    })
    .expect("bind");
    let addr = server.local_addr().expect("addr");
    let handle = std::thread::spawn(move || server.serve().expect("serve"));
    (addr, handle)
}

fn shutdown(addr: &str, handle: std::thread::JoinHandle<()>) {
    Client::connect(addr).expect("connect").shutdown().expect("shutdown");
    handle.join().expect("join");
}

#[test]
fn live_server_survives_garbage_and_half_frames() {
    // The daemon, and a router in front of it: both binaries' client
    // sides take the same abuse.
    let (shard, shard_handle) = spawn_server();
    let router = Router::bind(RouterConfig {
        shards: vec![vec![shard.clone()]],
        read_timeout: Duration::from_millis(500),
        sessions: 2,
        ..RouterConfig::default()
    })
    .expect("bind router");
    let routed = router.local_addr().expect("router addr");
    let router_handle = std::thread::spawn(move || router.serve().expect("route"));
    for addr in [&shard, &routed] {
        survives_garbage_and_half_frames(addr);
    }
    shutdown(&routed, router_handle);
    shutdown(&shard, shard_handle);
}

fn survives_garbage_and_half_frames(addr: &str) {
    // Garbage bytes: the server answers with an ERR frame or closes;
    // either way this returns within the timeout instead of hanging.
    let mut s = TcpStream::connect(addr).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(5))).expect("timeout");
    s.write_all(b"GET / HTTP/1.1\r\n\r\n").expect("write garbage");
    // Closed on us is also acceptable.
    if let Ok(Some((k, body))) = read_frame(&mut s, MAX_FRAME) {
        match parse_response(k, body).expect("parseable response") {
            Response::Err(code, _) => assert_eq!(code, ServeError::BadMagic.code()),
            ok => panic!("garbage must not succeed: {ok:?}"),
        }
    }
    drop(s);

    // Half a frame then silence: the per-connection read timeout (500ms
    // here) reclaims the session thread; the server keeps serving.
    let mut s = TcpStream::connect(addr).expect("connect");
    let wire = frame_bytes(dcp_serve::wire::kind::QUERY, b"sets");
    s.write_all(&wire[..5]).expect("half frame");
    std::thread::sleep(Duration::from_millis(700));

    // An oversized length prefix is refused with a typed error.
    let mut s2 = TcpStream::connect(addr).expect("connect");
    s2.set_read_timeout(Some(Duration::from_secs(5))).expect("timeout");
    let mut huge = Vec::new();
    huge.extend_from_slice(b"DCPS");
    huge.push(dcp_serve::wire::kind::QUERY);
    huge.extend_from_slice(&u32::MAX.to_be_bytes());
    s2.write_all(&huge).expect("huge header");
    if let Ok(Some((k, body))) = read_frame(&mut s2, MAX_FRAME) {
        match parse_response(k, body).expect("parseable") {
            Response::Err(code, _) => {
                assert_eq!(code, ServeError::FrameTooLarge { len: 0, max: 0 }.code())
            }
            ok => panic!("oversized frame must not succeed: {ok:?}"),
        }
    }
    drop(s2);
    drop(s);

    // The server is still healthy after all of the above.
    let mut c = Client::connect(addr).expect("connect");
    assert_eq!(c.ping().expect("ping"), "pong");
    assert!(c.query("sets").expect("sets").starts_with("PROFILE SETS"));
}

#[test]
fn live_server_rejects_mutated_ingests_without_dying() {
    let (addr, handle) = spawn_server();
    let bundle = encode_bundle(&sample_bundle());
    let mut g = SmallRng::seed_from_u64(0xbad_1d3a);
    for _ in 0..64 {
        let mut mutated = bundle.as_slice().to_vec();
        // Flip a byte beyond the magic so the mutation lands in the
        // payload, not the DCPB header check alone.
        let pos = g.gen_range(0usize..mutated.len());
        mutated[pos] ^= 1 << g.gen_range(0u32..8);
        let mut buf = BytesMut::with_capacity(mutated.len());
        buf.put_slice(&mutated);
        let mut c = Client::connect(&addr).expect("connect");
        // Either a typed rejection or (rarely) a benign parse — never a
        // dead server.
        let _ = c.ingest("fuzz", None, buf.freeze());
    }
    let mut c = Client::connect(&addr).expect("connect");
    assert_eq!(c.ping().expect("ping"), "pong");
    let stats = c.stats().expect("stats");
    assert!(stats.contains("SERVE STATS"), "{stats}");
    drop(c);
    shutdown(&addr, handle);
}

#[test]
fn wal_file_grind_recovers_a_valid_prefix_and_never_panics() {
    // The durable-store mirror of the frame grind above: every
    // truncation of the write-ahead log and a bit flip at every byte
    // must recover exactly the records in front of the damage — typed
    // errors only, never a panic, never a record past the damage.
    use dcp_core::stored::decode_bundle;
    use dcp_serve::{Durability, ProfileStore, StoreConfig};

    let dir = std::env::temp_dir().join(format!("dcp-robust-wal-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let raw_bundle = encode_bundle(&sample_bundle());
    let wire = raw_bundle.len() as u64;
    let mut store = ProfileStore::new(StoreConfig::default());
    let (mut dur, _) = Durability::open(&dir, 0, &mut store).expect("open");
    for seq in 0..3u64 {
        let t = store.prepare_ingest("w", Some(seq), wire).expect("prepare");
        dur.log_ingest("w", t, wire, &raw_bundle).expect("log");
        store.apply_ingest("w", t, wire, decode_bundle(raw_bundle.clone()).expect("bundle"));
    }
    drop(dur);
    let wal_path = dir.join("ingest.wal");
    let full = std::fs::read(&wal_path).expect("read");

    // Record boundaries: header is 5 bytes, each record is a u32 body
    // length + u64 checksum + body.
    let mut bounds = vec![5usize];
    let mut at = 5usize;
    while at < full.len() {
        let body = u32::from_be_bytes(full[at..at + 4].try_into().expect("4")) as usize;
        at += 12 + body;
        bounds.push(at);
    }
    assert_eq!(bounds.len(), 4, "three records");
    // Records in front of byte `pos`: the last boundary at or before it.
    let prefix_records = |pos: usize| bounds.iter().filter(|&&b| b <= pos).count() as u64 - 1;

    let recover = |mutated: &[u8]| -> Result<(u64, Option<ServeError>), ServeError> {
        std::fs::write(&wal_path, mutated).expect("write");
        let mut st = ProfileStore::new(StoreConfig::default());
        let (_d, report) = Durability::open(&dir, 0, &mut st)?;
        Ok((report.replayed, report.tail_error))
    };

    // Zero-length file: a clean empty log.
    let (replayed, tail) = recover(b"").expect("empty recovers");
    assert_eq!(replayed, 0);
    assert!(tail.is_none());

    // Every truncation: exactly the complete records survive; a cut
    // inside a record is reported as typed tail damage.
    for cut in 0..full.len() {
        let (replayed, tail) = recover(&full[..cut]).expect("truncation recovers");
        if cut < 5 {
            assert_eq!(replayed, 0, "cut {cut}");
            continue;
        }
        assert_eq!(replayed, prefix_records(cut), "cut {cut}");
        if bounds.contains(&cut) {
            assert!(tail.is_none(), "cut {cut} is a record boundary");
        } else {
            assert!(
                matches!(tail, Some(ServeError::WalCorrupt { .. })),
                "cut {cut} must be typed tail damage"
            );
        }
    }

    // Every byte, one bit flip: header damage is refused outright
    // (that file is no longer ours); record damage recovers the
    // records in front of it and reports the rest as a damaged tail.
    for pos in 0..full.len() {
        let mut mutated = full.clone();
        mutated[pos] ^= 0x04;
        match recover(&mutated) {
            Err(ServeError::WalCorrupt { offset: 0, .. }) => {
                assert!(pos < 5, "only header flips are refused, flip at {pos}")
            }
            Err(e) => panic!("flip at {pos}: unexpected error {e}"),
            Ok((replayed, tail)) => {
                assert!(pos >= 5, "header flip at {pos} must be refused");
                assert_eq!(replayed, prefix_records(pos), "flip at {pos}");
                assert!(tail.is_some(), "flip at {pos} must report the damaged tail");
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn client_times_out_on_a_silent_server() {
    // A listener that accepts and never replies: the client's read
    // timeout turns the stall into a typed Io error instead of a hang.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();
    let keep = std::thread::spawn(move || {
        let (_s, _) = listener.accept().expect("accept");
        std::thread::sleep(Duration::from_secs(2));
    });
    let mut c =
        Client::connect_with_timeout(&addr, Duration::from_millis(200)).expect("connect");
    match c.ping() {
        Err(ServeError::Io(_)) => {}
        other => panic!("expected Io timeout, got {other:?}"),
    }
    keep.join().expect("join");
}

/// A scripted shard: accepts one connection, answers each request
/// frame with the next raw byte string from the script (not necessarily
/// a valid frame), then CLOSES. The immediate close matters: a mutated
/// script can leave the router mid-read (a truncated or length-extended
/// frame), and the EOF is what unblocks it right away instead of its
/// read timeout. The short read timeout here bounds the converse case —
/// the router waiting on a frame the fake never finished while the fake
/// waits for a request the router will never send.
fn fake_shard(script: Vec<Vec<u8>>) -> (String, std::thread::JoinHandle<()>) {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind fake shard");
    let addr = listener.local_addr().expect("addr").to_string();
    let handle = std::thread::spawn(move || {
        let Ok((mut s, _)) = listener.accept() else { return };
        let _ = s.set_read_timeout(Some(Duration::from_millis(300)));
        for resp in script {
            match read_frame(&mut s, MAX_FRAME) {
                Ok(Some(_)) => {
                    if s.write_all(&resp).is_err() {
                        return;
                    }
                }
                _ => return,
            }
        }
    });
    (addr, handle)
}

/// Run one query against a router fronting a scripted shard; returns
/// the client-visible result after tearing the router down.
fn routed_query_against(script: Vec<Vec<u8>>, q: &str) -> Result<String, ServeError> {
    let (shard_addr, shard_handle) = fake_shard(script);
    let router = Router::bind(RouterConfig {
        shards: vec![vec![shard_addr]],
        sessions: 1,
        read_timeout: Duration::from_secs(5),
        ..RouterConfig::default()
    })
    .expect("bind router");
    let addr = router.local_addr().expect("addr");
    let rhandle = std::thread::spawn(move || router.serve().expect("route"));
    let mut cl = Client::connect(&addr).expect("connect");
    let result = cl.query(q);
    cl.shutdown().expect("shutdown");
    drop(cl);
    rhandle.join().expect("router join");
    shard_handle.join().expect("fake shard join");
    result
}

#[test]
fn routed_frames_ground_end_to_end_never_yield_wrong_but_ok() {
    // The router↔shard conversation for one view query is two frames
    // back: an OK epoch and a DATA partial. Grind that script — every
    // truncation, a bit flip at every byte, random bytes — through a
    // LIVE router: the client must see either the exact golden response
    // or a typed error. A mutated exchange that silently changes the
    // response bytes would break the distributed determinism contract;
    // the partial checksum is what rules it out.
    use dcp_serve::{handle_query, ProfileStore, StoreConfig};

    let mut store = ProfileStore::new(StoreConfig::default());
    let raw = encode_bundle(&sample_bundle());
    let decoded = dcp_core::stored::decode_bundle(raw.clone()).expect("bundle");
    store.ingest("s", Some(0), raw.len() as u64, decoded).expect("ingest");
    let golden = handle_query(&mut store, "export s heap").expect("golden");
    let epoch_frame = frame_bytes(dcp_serve::wire::kind::OK, b"1");
    let partial_frame =
        frame_bytes(dcp_serve::wire::kind::DATA, store.partial("s").expect("partial").as_slice());

    // Sanity: the unmutated script serves the golden bytes.
    let ok = routed_query_against(vec![epoch_frame.clone(), partial_frame.clone()], "export s heap")
        .expect("clean script must serve");
    assert_eq!(ok, golden);

    // An error is typed by construction; reaching it is the claim.
    let check = |script: Vec<Vec<u8>>, what: String| {
        if let Ok(text) = routed_query_against(script, "export s heap") {
            assert_eq!(text, golden, "{what}: wrong-but-OK response");
        }
    };

    // Every truncation of either response frame.
    for cut in 0..epoch_frame.len() {
        check(vec![epoch_frame[..cut].to_vec()], format!("epoch frame cut at {cut}"));
    }
    for cut in 0..partial_frame.len() {
        check(
            vec![epoch_frame.clone(), partial_frame[..cut].to_vec()],
            format!("partial frame cut at {cut}"),
        );
    }
    // A single-bit flip at every byte of the exchange (one bit per
    // position live; the payload-level grinds cover all eight).
    for pos in 0..epoch_frame.len() {
        let mut mutated = epoch_frame.clone();
        mutated[pos] ^= 1 << (pos % 8);
        check(vec![mutated, partial_frame.clone()], format!("epoch frame flip at {pos}"));
    }
    for pos in 0..partial_frame.len() {
        let mut mutated = partial_frame.clone();
        mutated[pos] ^= 1 << (pos % 8);
        check(vec![epoch_frame.clone(), mutated], format!("partial frame flip at {pos}"));
    }
}

#[test]
fn router_survives_random_byte_shards() {
    // Pure fuzz on the routed path: shards that answer with random
    // bytes must produce typed errors, never a hang, never an OK.
    let mut g = SmallRng::seed_from_u64(0x70_0735);
    for case in 0..24 {
        let len = g.gen_range(1usize..96);
        let mut raw = Vec::with_capacity(len + 4);
        if case % 2 == 0 {
            raw.extend_from_slice(b"DCPS");
        }
        for _ in 0..len {
            raw.push((g.next_u64() & 0xff) as u8);
        }
        let result = routed_query_against(vec![raw], "ranking s samples");
        assert!(result.is_err(), "case {case}: garbage shard must not produce an OK response");
    }
}

#[test]
fn corrupt_partial_payloads_reconstruct_typed_never_panic() {
    // Arbitrary counters and garbage state behind a VALID checksum:
    // decode succeeds (the frame is authentic), reconstruct must still
    // fail typed — the state bundle is re-validated end to end.
    use dcp_serve::{decode_set_partial, encode_set_partial, SetPartial};
    let mut g = SmallRng::seed_from_u64(0x09a9_71a1);
    for _ in 0..256 {
        let len = g.gen_range(0usize..64);
        let mut state = Vec::with_capacity(len);
        for _ in 0..len {
            state.push((g.next_u64() & 0xff) as u8);
        }
        let mut buf = BytesMut::with_capacity(len);
        buf.put_slice(&state);
        let p = SetPartial {
            epoch: g.next_u64(),
            bundles: g.next_u64(),
            blob_bytes: g.next_u64(),
            state: buf.freeze(),
        };
        let wire = encode_set_partial(&p);
        let decoded = decode_set_partial(wire).expect("authentic payload decodes");
        assert_eq!(decoded, p);
        // Random state bytes are not a valid DCPB bundle: typed error.
        assert!(decoded.reconstruct().is_err());
    }
}

/// Drive a 2-deep windowed ingest (two pushes, then drain) against a
/// scripted fake server and report exactly what the client saw: inner
/// per-ack results in order, or the outer error that ended the window.
fn windowed_push_against(
    script: Vec<Vec<u8>>,
) -> Result<Vec<Result<dcp_serve::Ack, ServeError>>, ServeError> {
    let (addr, handle) = fake_shard(script);
    let mut cl =
        Client::connect_with_timeout(&addr, Duration::from_millis(400)).expect("connect fake");
    let bundle = encode_bundle(&sample_bundle());
    let mut pipe = cl.pipeline(2);
    let mut acks = Vec::new();
    let mut outer = None;
    for seq in 0..2u64 {
        match pipe.push("s", Some(seq), bundle.clone()) {
            Ok(Some(a)) => acks.push(a),
            Ok(None) => {}
            Err(e) => {
                outer = Some(e);
                break;
            }
        }
    }
    let result = match outer {
        Some(e) => Err(e),
        None => match pipe.drain() {
            Ok(rest) => {
                acks.extend(rest);
                Ok(acks)
            }
            Err(e) => Err(e),
        },
    };
    drop(cl);
    handle.join().expect("fake server join");
    result
}

#[test]
fn windowed_ingest_ack_grind_never_pairs_a_wrong_ack() {
    // The ack stream is the only thing pairing a pipelined push with
    // its outcome, so grind it: swapped, duplicated, out-of-window,
    // malformed, and binary acks must each surface as the typed
    // AckMismatch; ERR frames relay as inner typed refusals with the
    // window still moving; truncations and bit flips end in a typed
    // error or an ack that still names the expected (set, seq) — never
    // a silently mispaired accept.
    let ack_frame = |seq: u64| {
        frame_bytes(
            dcp_serve::wire::kind::OK,
            format!("ingested set=s seq={seq} epoch={}", seq + 1).as_bytes(),
        )
    };
    let mismatch = |what: &str, r: Result<Vec<Result<dcp_serve::Ack, ServeError>>, ServeError>| {
        match r {
            Err(ServeError::AckMismatch(_)) => {}
            other => panic!("{what}: expected AckMismatch, got {other:?}"),
        }
    };

    // Golden: in-order acks pair cleanly.
    let acks = windowed_push_against(vec![ack_frame(0), ack_frame(1)]).expect("clean ack stream");
    let acks: Vec<dcp_serve::Ack> = acks.into_iter().map(|a| a.expect("clean ack")).collect();
    assert_eq!(acks.len(), 2);
    for (i, a) in acks.iter().enumerate() {
        assert_eq!((a.set.as_str(), a.seq, a.epoch), ("s", i as u64, i as u64 + 1));
    }

    // Pairing violations, each one fatal and typed.
    mismatch("swapped acks", windowed_push_against(vec![ack_frame(1), ack_frame(0)]));
    mismatch("duplicate ack", windowed_push_against(vec![ack_frame(0), ack_frame(0)]));
    mismatch("out-of-window seq", windowed_push_against(vec![ack_frame(7), ack_frame(1)]));
    mismatch(
        "ack for a foreign set",
        windowed_push_against(vec![
            frame_bytes(dcp_serve::wire::kind::OK, b"ingested set=other seq=0 epoch=1"),
            ack_frame(1),
        ]),
    );
    mismatch(
        "malformed ack text",
        windowed_push_against(vec![
            frame_bytes(dcp_serve::wire::kind::OK, b"welcome to the jungle"),
            ack_frame(1),
        ]),
    );
    mismatch(
        "binary frame as ack",
        windowed_push_against(vec![
            frame_bytes(dcp_serve::wire::kind::DATA, b"\x01\x02\x03"),
            ack_frame(1),
        ]),
    );

    // A server-side refusal is an inner typed relay; the next ack still
    // pairs and the window keeps moving.
    let (k, body) = encode_response(&Response::Err(8, "unknown profile set 's'".into()));
    let err_frame = frame_bytes(k, &body);
    let got = windowed_push_against(vec![err_frame, ack_frame(1)]).expect("window survives ERR");
    assert_eq!(got.len(), 2);
    assert_eq!(got[0].as_ref().expect_err("refusal relays typed").code(), 8);
    assert_eq!(got[1].as_ref().expect("second ack pairs").seq, 1);

    // Every truncation of the first ack frame: the stream ends in a
    // typed outer error (EOF mid-frame or mid-stream), never an ack.
    let first = ack_frame(0);
    for cut in 0..first.len() {
        match windowed_push_against(vec![first[..cut].to_vec()]) {
            Err(_) => {}
            Ok(acks) => panic!("ack frame cut at {cut}: unexpected acks {acks:?}"),
        }
    }

    // A single-bit flip at every byte (one bit per position live, as in
    // the routed grind): any surviving ack must still name the pushed
    // (set, seq) — the epoch is the server's claim, not a pairing field.
    for pos in 0..first.len() {
        let mut mutated = first.clone();
        mutated[pos] ^= 1 << (pos % 8);
        match windowed_push_against(vec![mutated, ack_frame(1)]) {
            Err(_) => {}
            Ok(acks) => {
                for (i, a) in acks.iter().enumerate() {
                    if let Ok(a) = a {
                        assert_eq!(
                            (a.set.as_str(), a.seq),
                            ("s", i as u64),
                            "flip at {pos}: a mispaired ack survived"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn oversized_client_frame_is_bounded() {
    // A max_frame smaller than the bundle: the reader refuses before
    // allocating, client-side, symmetric with the server check.
    let bundle = encode_bundle(&sample_bundle());
    let (k, body) = encode_request(&Request::Ingest { set: "s".into(), seq: None, bundle });
    let wire = frame_bytes(k, &body);
    let mut cur = Cursor::new(wire);
    match read_frame(&mut cur, 16) {
        Err(ServeError::FrameTooLarge { max: 16, .. }) => {}
        other => panic!("expected FrameTooLarge, got {other:?}"),
    }
}
