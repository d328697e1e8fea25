//! Loopback end-to-end: real sockets, concurrent clients, and the
//! determinism contract — a profile set assembled by a racing client
//! pool serves trees byte-identical to one `merge_encoded` fold over
//! the same blobs in sequence order.

use std::time::Duration;

use dcp_cct::{encode, merge_encoded, Cct, Frame, ROOT};
use dcp_core::metrics::{StorageClass, WIDTH};
use dcp_core::stored::{encode_bundle, StoredBundle};
use dcp_serve::{Client, Server, ServerConfig, ServeError};
use dcp_support::bytes::Bytes;
use dcp_support::pool;

fn spawn_server(config: ServerConfig) -> (String, std::thread::JoinHandle<()>) {
    let server = Server::bind(config).expect("bind");
    let addr = server.local_addr().expect("addr");
    let handle = std::thread::spawn(move || server.serve().expect("serve"));
    (addr, handle)
}

fn shutdown(addr: &str, handle: std::thread::JoinHandle<()>) {
    Client::connect(addr).expect("connect").shutdown().expect("shutdown");
    handle.join().expect("join");
}

/// A distinct small bundle per `seed`: a heap tree and a static tree
/// whose shapes overlap across seeds (so merging actually folds paths)
/// but whose values differ (so ordering mistakes change bytes).
fn bundle(seed: u64) -> StoredBundle {
    let mut heap = Cct::new(WIDTH);
    let hm = heap.child(ROOT, Frame::HeapMarker);
    let p = heap.child(hm, Frame::Proc(seed % 3));
    let s = heap.child(p, Frame::Stmt(0x100 + seed % 5));
    heap.add(s, 0, 1 + seed);
    heap.add(s, 1, 100 * (seed + 1));
    let mut stat = Cct::new(WIDTH);
    let v = stat.child(ROOT, Frame::StaticVar(seed % 2));
    stat.add(v, 0, seed + 7);
    let mut b = StoredBundle::default();
    b.profiles[StorageClass::Heap.idx()].push(encode(&heap));
    b.profiles[StorageClass::Static.idx()].push(encode(&stat));
    b.names.insert(Frame::Proc(seed % 3), format!("proc_{}", seed % 3));
    b.names.insert(Frame::StaticVar(seed % 2), format!("g_{}", seed % 2));
    b.stats.samples = 1 + seed;
    b
}

fn hex(raw: &[u8]) -> String {
    raw.iter().map(|b| format!("{b:02x}")).collect()
}

#[test]
fn concurrent_ingest_is_byte_identical_to_sequential_merge() {
    let (addr, handle) = spawn_server(ServerConfig::default());
    // A client pool sized like the compute pool, racing over real
    // sockets; client-assigned sequence numbers pin the merge order.
    let clients = pool::parallelism().max(2);
    let per_client = 4usize;
    let total = clients * per_client;
    let bundles: Vec<StoredBundle> = (0..total as u64).map(bundle).collect();
    let encoded: Vec<Bytes> = bundles.iter().map(encode_bundle).collect();

    let mut threads = Vec::new();
    for c in 0..clients {
        let addr = addr.clone();
        // Client c takes every clients-th sequence number, so commits
        // interleave across connections instead of arriving in runs.
        let mine: Vec<(u64, Bytes)> = (0..total)
            .filter(|i| i % clients == c)
            .map(|i| (i as u64, encoded[i].clone()))
            .collect();
        threads.push(std::thread::spawn(move || {
            let mut cl = Client::connect(&addr).expect("connect");
            for (seq, blob) in mine {
                cl.ingest("race", Some(seq), blob).expect("ingest");
            }
        }));
    }
    for t in threads {
        t.join().expect("client thread");
    }

    let mut cl = Client::connect(&addr).expect("connect");
    for class in [StorageClass::Heap, StorageClass::Static] {
        // Reference: one sequential merge over the same blobs in
        // sequence order — the offline ground truth.
        let blobs: Vec<Bytes> = bundles
            .iter()
            .flat_map(|b| b.profiles[class.idx()].iter().cloned())
            .collect();
        let reference = merge_encoded(blobs, WIDTH).expect("reference merge");
        let name = match class {
            StorageClass::Heap => "heap",
            _ => "static",
        };
        let served = cl.query(&format!("export race {name}")).expect("export");
        assert_eq!(
            served,
            hex(&encode(&reference)),
            "served {name} tree differs from the sequential merge"
        );
    }
    // All committed: no sequence gap left behind.
    let sets = cl.query("sets").expect("sets");
    assert!(sets.contains(&format!("race bundles={total} epoch={total} gap=0")), "{sets}");
    drop(cl);
    shutdown(&addr, handle);
}

#[test]
fn out_of_order_and_gapped_ingest_commits_deterministically() {
    let (addr, handle) = spawn_server(ServerConfig::default());
    let mut cl = Client::connect(&addr).expect("connect");
    let bundles: Vec<StoredBundle> = (0..5u64).map(bundle).collect();
    // Send 4, 2, 0, 3, 1: nothing commits past the first gap until the
    // gap fills; the final tree must still equal sequential order.
    for &i in &[4usize, 2, 0, 3, 1] {
        cl.ingest("ooo", Some(i as u64), encode_bundle(&bundles[i])).expect("ingest");
    }
    let blobs: Vec<Bytes> = bundles
        .iter()
        .flat_map(|b| b.profiles[StorageClass::Heap.idx()].iter().cloned())
        .collect();
    let reference = merge_encoded(blobs, WIDTH).expect("reference");
    let served = cl.query("export ooo heap").expect("export");
    assert_eq!(served, hex(&encode(&reference)));
    drop(cl);
    shutdown(&addr, handle);
}

#[test]
fn byte_budget_rejection_is_typed_and_sticky() {
    let (addr, handle) = spawn_server(ServerConfig {
        byte_budget: 1, // everything real is over budget
        ..ServerConfig::default()
    });
    let mut cl = Client::connect(&addr).expect("connect");
    let err = cl.ingest("s", None, encode_bundle(&bundle(0))).expect_err("over budget");
    assert_eq!(err.code(), ServeError::BudgetExceeded { budget: 0, stored: 0, requested: 0 }.code());
    // Nothing was stored: the set does not exist.
    let err = cl.query("ranking s samples").expect_err("set must not exist");
    assert_eq!(err.code(), ServeError::UnknownSet(String::new()).code());
    let stats = cl.stats().expect("stats");
    assert!(stats.contains("bytes_stored 0"), "{stats}");
    drop(cl);
    shutdown(&addr, handle);
}

#[test]
fn duplicate_sequence_is_rejected() {
    let (addr, handle) = spawn_server(ServerConfig::default());
    let mut cl = Client::connect(&addr).expect("connect");
    cl.ingest("s", Some(0), encode_bundle(&bundle(0))).expect("first");
    let err = cl.ingest("s", Some(0), encode_bundle(&bundle(1))).expect_err("dup");
    assert_eq!(err.code(), ServeError::DuplicateSeq(0).code());
    drop(cl);
    shutdown(&addr, handle);
}

#[test]
fn empty_set_is_served_with_defined_views() {
    // The served face of the merge_encoded(vec![], w) edge: a set whose
    // only bundle carries zero profile blobs renders every view.
    let (addr, handle) = spawn_server(ServerConfig::default());
    let mut cl = Client::connect(&addr).expect("connect");
    cl.ingest("empty", None, encode_bundle(&StoredBundle::default())).expect("ingest");
    for q in [
        "ranking empty samples",
        "topdown empty heap latency",
        "bottomup empty remote",
        "flat empty heap tlb",
        "vars empty stores",
        "diff empty empty samples",
        "export empty heap",
    ] {
        let resp = cl.query(q).unwrap_or_else(|e| panic!("{q}: {e}"));
        assert!(!resp.is_empty(), "{q} returned nothing");
    }
    // The empty heap tree exports as a root-only profile, not garbage.
    let served = cl.query("export empty heap").expect("export");
    assert_eq!(served, hex(&encode(&Cct::new(WIDTH))));
    drop(cl);
    shutdown(&addr, handle);
}

#[test]
fn cache_hits_and_stats_are_visible_over_the_wire() {
    let (addr, handle) = spawn_server(ServerConfig::default());
    let mut cl = Client::connect(&addr).expect("connect");
    cl.ingest("s", None, encode_bundle(&bundle(0))).expect("ingest");
    let r1 = cl.query("ranking s samples").expect("first");
    let r2 = cl.query("ranking s samples").expect("second");
    assert_eq!(r1, r2, "cached response must be byte-identical");
    let stats = cl.stats().expect("stats");
    assert!(stats.contains("ingests 1"), "{stats}");
    assert!(stats.contains("cache_hits 1"), "{stats}");
    assert!(stats.contains("latency_us[query]"), "{stats}");
    assert!(stats.contains("latency_us[ingest]"), "{stats}");
    // Ingest invalidates: the same query recomputes under the new epoch.
    cl.ingest("s", None, encode_bundle(&bundle(1))).expect("ingest 2");
    let r3 = cl.query("ranking s samples").expect("third");
    assert_ne!(r1, r3, "epoch bump must change the served ranking");
    drop(cl);
    shutdown(&addr, handle);
}

#[test]
fn incremental_read_counters_prove_dirty_class_tracking() {
    // The ISSUE's counter-asserted claim: a snapshot after an ingest
    // touching exactly one class rebuilds exactly one class, and
    // same-epoch queries reuse the snapshot outright.
    let (addr, handle) = spawn_server(ServerConfig::default());
    let mut cl = Client::connect(&addr).expect("connect");
    let mut heap = Cct::new(WIDTH);
    let hm = heap.child(ROOT, Frame::HeapMarker);
    heap.add(hm, 0, 3);
    let mut b = StoredBundle::default();
    b.profiles[StorageClass::Heap.idx()].push(encode(&heap));
    b.stats.samples = 1;
    cl.ingest("inc", None, encode_bundle(&b)).expect("ingest");
    // The first query folds exactly the one dirty class.
    cl.query("ranking inc samples").expect("query");
    let stats = cl.stats().expect("stats");
    assert!(stats.contains("dirty_class_rebuilds 1"), "{stats}");
    assert!(stats.contains("snapshot_reuse 0"), "{stats}");
    assert!(stats.contains("partial_reuse 0"), "{stats}");
    // A different query at the same epoch reuses the snapshot — no new
    // rebuild.
    cl.query("vars inc samples").expect("query 2");
    let stats = cl.stats().expect("stats");
    assert!(stats.contains("snapshot_reuse 1"), "{stats}");
    assert!(stats.contains("dirty_class_rebuilds 1"), "{stats}");
    // A second heap-only ingest dirties only the heap class again.
    cl.ingest("inc", None, encode_bundle(&b)).expect("ingest 2");
    cl.query("ranking inc samples").expect("query 3");
    let stats = cl.stats().expect("stats");
    assert!(stats.contains("dirty_class_rebuilds 2"), "{stats}");
    drop(cl);
    shutdown(&addr, handle);
}

#[test]
fn panicking_session_does_not_take_the_daemon_down() {
    // Regression: the store lock used to be a poisoning std Mutex
    // unwrapped with `expect("store poisoned")`. One panic while holding
    // it killed every later session on the poison, while the accept loop
    // kept queueing sockets nobody would drain — new clients hung. The
    // state now sits behind a poison-recovering lock.
    let server = Server::bind(ServerConfig::default()).expect("bind");
    let addr = server.local_addr().expect("addr");
    let state = server.state_handle();
    let handle = std::thread::spawn(move || server.serve().expect("serve"));
    let mut cl = Client::connect(&addr).expect("connect");
    cl.ingest("s", Some(0), encode_bundle(&bundle(0))).expect("ingest");
    let before = cl.query("export s heap").expect("export");

    // Inject exactly what a buggy session would do: panic while holding
    // the state lock.
    let poisoner = std::thread::spawn(move || {
        let _guard = state.lock();
        panic!("injected panic while holding the store lock");
    });
    assert!(poisoner.join().is_err(), "holder must have panicked");

    // The daemon still serves — same bytes — and still takes writes.
    let mut cl = Client::connect(&addr).expect("connect after panic");
    assert_eq!(cl.ping().expect("ping"), "pong");
    assert_eq!(cl.query("export s heap").expect("export after panic"), before);
    cl.ingest("s", Some(1), encode_bundle(&bundle(1))).expect("ingest after panic");
    drop(cl);
    shutdown(&addr, handle);
}

#[test]
fn mixing_sequence_disciplines_is_refused_not_stranded() {
    // Regression: an arrival-order ingest into a set with an open
    // sequence gap used to be assigned `last pending key + 1` — a slot
    // behind the gap, silently withheld from every query. It is now a
    // typed refusal, and pure arrival-order sets commit immediately.
    let (addr, handle) = spawn_server(ServerConfig::default());
    let mut cl = Client::connect(&addr).expect("connect");
    cl.ingest("m", Some(5), encode_bundle(&bundle(0))).expect("buffered behind gap");
    let err = cl.ingest("m", None, encode_bundle(&bundle(1))).expect_err("mixed modes");
    assert_eq!(
        err.code(),
        ServeError::SeqModeMismatch { set: String::new(), explicit: true }.code()
    );
    // Arrival-order sets are never stranded: each ingest commits at
    // once and is immediately visible.
    for i in 0..3u64 {
        cl.ingest("arr", None, encode_bundle(&bundle(i))).expect("arrival");
        let sets = cl.query("sets").expect("sets");
        assert!(
            sets.contains(&format!("arr bundles={} epoch={} gap=0", i + 1, i + 1)),
            "ingest {i} must be committed, not buffered: {sets}"
        );
    }
    drop(cl);
    shutdown(&addr, handle);
}

#[test]
fn reorder_buffer_cap_is_typed_and_visible_in_stats() {
    // Regression: the reorder buffer was unbounded and never refunded —
    // a client buffering far-future sequence numbers could hold memory
    // hostage forever with no trace in `stats`.
    let one = encode_bundle(&bundle(0)).len() as u64;
    let (addr, handle) = spawn_server(ServerConfig {
        pending_cap: one,
        ..ServerConfig::default()
    });
    let mut cl = Client::connect(&addr).expect("connect");
    cl.ingest("s", Some(10), encode_bundle(&bundle(0))).expect("fits under cap");
    let err = cl.ingest("s", Some(11), encode_bundle(&bundle(1))).expect_err("over cap");
    assert_eq!(
        err.code(),
        ServeError::PendingCapExceeded { cap: 0, pending: 0, requested: 0 }.code()
    );
    let stats = cl.stats().expect("stats");
    assert!(stats.contains(&format!("pending_bytes {one}")), "{stats}");
    assert!(stats.contains(&format!("gap=1 gap_bytes={one}")), "{stats}");
    // Filling the gap refunds the charge and buffering works again.
    for s in 0..10u64 {
        cl.ingest("s", Some(s), encode_bundle(&bundle(s))).expect("fills");
    }
    let stats = cl.stats().expect("stats");
    assert!(stats.contains("pending_bytes 0"), "{stats}");
    // Same-sized bundle as the first (encoded size varies with seed):
    // it fits again because the commit refunded the whole charge.
    cl.ingest("s", Some(12), encode_bundle(&bundle(0))).expect("refunded buffer");
    drop(cl);
    shutdown(&addr, handle);
}

#[test]
fn restart_mid_stream_resumes_byte_identical() {
    // Satellite round trip for the durability layer: stop a durable
    // daemon mid-stream, restart it over the same data directory, push
    // the rest, and the served trees must equal the sequential golden
    // over the full bundle list — plus a second daemon that never
    // restarted must agree response-for-response.
    let dir = std::env::temp_dir().join(format!("dcp-loopback-restart-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let durable = || ServerConfig {
        data_dir: Some(dir.clone()),
        snapshot_every: 2, // exercise snapshot + wal-tail recovery
        ..ServerConfig::default()
    };
    let total = 6u64;
    let bundles: Vec<StoredBundle> = (0..total).map(bundle).collect();

    let (addr, handle) = spawn_server(durable());
    let mut cl = Client::connect(&addr).expect("connect");
    for (i, b) in bundles.iter().take(3).enumerate() {
        cl.ingest("w", Some(i as u64), encode_bundle(b)).expect("ingest");
    }
    drop(cl);
    shutdown(&addr, handle);

    let (addr, handle) = spawn_server(durable());
    let mut cl = Client::connect(&addr).expect("connect");
    let sets = cl.query("sets").expect("sets");
    assert!(sets.contains("w bundles=3 epoch=3 gap=0"), "recovered state: {sets}");
    for (i, b) in bundles.iter().enumerate().skip(3) {
        cl.ingest("w", Some(i as u64), encode_bundle(b)).expect("ingest after restart");
    }

    // Golden 1: the offline sequential merge.
    let blobs: Vec<Bytes> = bundles
        .iter()
        .flat_map(|b| b.profiles[StorageClass::Heap.idx()].iter().cloned())
        .collect();
    let reference = merge_encoded(blobs, WIDTH).expect("reference");
    assert_eq!(cl.query("export w heap").expect("export"), hex(&encode(&reference)));

    // Golden 2: an uncrashed, memory-only daemon fed the same stream.
    let (gaddr, ghandle) = spawn_server(ServerConfig::default());
    let mut gcl = Client::connect(&gaddr).expect("connect golden");
    for (i, b) in bundles.iter().enumerate() {
        gcl.ingest("w", Some(i as u64), encode_bundle(b)).expect("golden ingest");
    }
    for q in ["export w heap", "export w static", "ranking w samples", "vars w samples", "sets"] {
        assert_eq!(
            cl.query(q).expect(q),
            gcl.query(q).expect(q),
            "restarted daemon diverges from the uncrashed one on {q:?}"
        );
    }
    drop(gcl);
    shutdown(&gaddr, ghandle);
    drop(cl);
    shutdown(&addr, handle);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Push `bundles` into the daemon at `addr` from two racing clients,
/// each taking every other explicit sequence number. `window` 0 awaits
/// every ack before the next push; otherwise each client keeps that
/// many pushes in flight.
fn push_interleaved(addr: &str, set: &str, bundles: &[Bytes], window: usize) {
    let clients = 2;
    let threads: Vec<_> = (0..clients)
        .map(|c| {
            let (addr, set) = (addr.to_string(), set.to_string());
            let mine: Vec<(u64, Bytes)> = (c..bundles.len())
                .step_by(clients)
                .map(|i| (i as u64, bundles[i].clone()))
                .collect();
            std::thread::spawn(move || {
                let mut cl = Client::connect(&addr).expect("connect");
                if window == 0 {
                    for (seq, blob) in mine {
                        cl.ingest(&set, Some(seq), blob).expect("ingest");
                    }
                    return;
                }
                let mut pipe = cl.pipeline(window);
                for (seq, blob) in mine {
                    if let Some(ack) = pipe.push(&set, Some(seq), blob).expect("push") {
                        ack.expect("ingest refused");
                    }
                }
                for ack in pipe.drain().expect("drain") {
                    ack.expect("ingest refused");
                }
            })
        })
        .collect();
    for t in threads {
        t.join().expect("ingest client");
    }
}

#[test]
fn group_commit_serves_the_same_bytes_as_per_record_fsync_and_memory() {
    // The write discipline must never reach the served bytes: one
    // fsync per record with strict acks, group commit fed by pipelined
    // windows, and no WAL at all answer every view identically.
    let bundles: Vec<Bytes> = (0..24u64).map(|s| encode_bundle(&bundle(s))).collect();
    let queries =
        ["export g heap", "export g static", "ranking g samples", "vars g samples", "sets"];
    let dir = std::env::temp_dir().join(format!("dcp-loopback-group-{}", std::process::id()));
    let durable = ServerConfig { data_dir: Some(dir.clone()), ..ServerConfig::default() };
    // Per-record fsync means no socket batching either.
    let per_record = ServerConfig { group_commit: false, ingest_group: 1, ..durable.clone() };
    let memory = ServerConfig::default();
    let mut served = Vec::new();
    for (mode, config, window) in
        [("per-record", per_record, 0), ("group", durable, 8), ("memory", memory, 0)]
    {
        let _ = std::fs::remove_dir_all(&dir);
        let (addr, handle) = spawn_server(config);
        push_interleaved(&addr, "g", &bundles, window);
        let mut cl = Client::connect(&addr).expect("connect");
        let answers: Vec<String> = queries.iter().map(|q| cl.query(q).expect(q)).collect();
        let stats = cl.stats().expect("stats");
        assert_eq!(
            stats.contains("wal_batches "),
            mode == "group",
            "{mode}: only the group-commit daemon runs the batcher: {stats}"
        );
        drop(cl);
        shutdown(&addr, handle);
        served.push((mode, answers));
    }
    let _ = std::fs::remove_dir_all(&dir);
    assert!(served[0].1[4].contains("g bundles=24 epoch=24 gap=0"), "{}", served[0].1[4]);
    for (mode, answers) in &served[1..] {
        for (q, (want, got)) in queries.iter().zip(served[0].1.iter().zip(answers)) {
            assert_eq!(got, want, "{mode} daemon diverges from per-record fsync on {q:?}");
        }
    }
}

#[test]
fn shutdown_drains_and_refuses_new_work() {
    let (addr, handle) = spawn_server(ServerConfig::default());
    let mut a = Client::connect(&addr).expect("connect a");
    let mut b = Client::connect(&addr).expect("connect b");
    a.ingest("s", None, encode_bundle(&bundle(0))).expect("ingest");
    assert_eq!(b.shutdown().expect("shutdown"), "draining");
    // The already-open connection gets a typed refusal for new queries.
    match a.query("ranking s samples") {
        Err(e) => assert_eq!(e.code(), ServeError::ShuttingDown.code()),
        Ok(_) => panic!("draining server must refuse new queries"),
    }
    drop(a);
    drop(b);
    // serve() returns: every worker joined, nothing left hanging.
    handle.join().expect("join");
    // And the port is actually released.
    assert!(
        Client::connect_with_timeout(&addr, Duration::from_millis(200))
            .and_then(|mut c| c.ping())
            .is_err(),
        "daemon must be gone after drain"
    );
}

#[test]
fn pipelined_ingest_is_byte_identical_to_serial_and_refusals_stay_in_window() {
    // Two daemons, same bundle stream: one fed with strict
    // request/response, one through a 5-deep pipelined window. The ack
    // texts must match push for push and the served trees must match
    // byte for byte — the window changes scheduling, never outcomes.
    let (addr_a, handle_a) = spawn_server(ServerConfig::default());
    let (addr_b, handle_b) = spawn_server(ServerConfig::default());
    let total = 12u64;
    let bundles: Vec<StoredBundle> = (0..total).map(bundle).collect();
    let encoded: Vec<Bytes> = bundles.iter().map(encode_bundle).collect();

    let mut ca = Client::connect(&addr_a).expect("connect serial");
    let mut serial_acks = Vec::new();
    for (i, blob) in encoded.iter().enumerate() {
        serial_acks.push(ca.ingest("w", Some(i as u64), blob.clone()).expect("serial ingest"));
    }

    let mut cb = Client::connect(&addr_b).expect("connect pipelined");
    let mut pipe = cb.pipeline(5);
    let mut acks = Vec::new();
    for (i, blob) in encoded.iter().enumerate() {
        if let Some(ack) = pipe.push("w", Some(i as u64), blob.clone()).expect("push") {
            acks.push(ack.expect("windowed ingest refused"));
        }
    }
    for ack in pipe.drain().expect("drain") {
        acks.push(ack.expect("windowed ingest refused"));
    }
    assert_eq!(acks.len(), serial_acks.len(), "every push is acked exactly once");
    for (a, serial) in acks.iter().zip(&serial_acks) {
        assert_eq!(
            &dcp_serve::format_ingest_ack(&a.set, a.seq, a.epoch),
            serial,
            "windowed ack text diverges from the serial daemon's"
        );
    }

    // A mid-window refusal is an inner typed error and the window keeps
    // moving: the duplicate is refused, the fresh push lands.
    let mut pipe = cb.pipeline(4);
    assert!(pipe.push("w", Some(3), encoded[3].clone()).expect("push dup").is_none());
    assert!(pipe.push("w", Some(total), encoded[0].clone()).expect("push fresh").is_none());
    let results = pipe.drain().expect("drain survives a refusal");
    assert_eq!(results.len(), 2);
    match &results[0] {
        Err(e) if e.code() == ServeError::DuplicateSeq(0).code() => {}
        other => panic!("duplicate push must relay DuplicateSeq, got {other:?}"),
    }
    assert_eq!(results[1].as_ref().expect("fresh push lands").seq, total);
    ca.ingest("w", Some(total), encoded[0].clone()).expect("serial mirror");

    for q in ["export w heap", "export w static", "sets"] {
        let a = ca.query(q).expect("serial query");
        let b = cb.query(q).expect("pipelined query");
        assert_eq!(a, b, "{q:?} diverges between serial and pipelined ingest");
    }
    let sets = cb.query("sets").expect("sets");
    let n = total + 1;
    assert!(sets.contains(&format!("w bundles={n} epoch={n} gap=0")), "{sets}");

    drop(ca);
    drop(cb);
    shutdown(&addr_a, handle_a);
    shutdown(&addr_b, handle_b);
}
