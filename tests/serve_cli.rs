//! The serving subcommands as a user drives them: `memgaze serve`,
//! `memgaze route`, `memgaze push` and `memgaze query` as real
//! processes.
//!
//! * The CLI's push and query paths serve the same bytes as the
//!   in-process store, whether the push is strict request/response or
//!   pipelined (the daemon then reads ahead and group-commits), and
//!   whether a daemon or a replicated, multi-group router answers.
//! * The daemon's accept loop rides out descriptor exhaustion: it backs
//!   off instead of exiting, and serves again once sockets close.

use std::io::{BufRead, BufReader};
use std::net::TcpStream;
use std::process::{Child, Command, Output, Stdio};
use std::time::{Duration, Instant};

use dcp_core::prelude::*;
use dcp_core::{bundle_from_measurement, encode_bundle};
use dcp_machine::{MarkedEvent, PmuConfig};
use dcp_serve::{handle_query, ProfileStore, RouterConfig, StoreConfig};
use dcp_support::ring::HashRing;
use dcp_workloads::nw::{build, world, NwConfig, NwVariant};

/// Every view kind over one set.
const VIEWS: [&str; 6] = [
    "ranking {} remote 5",
    "topdown {} heap remote",
    "bottomup {} remote",
    "flat {} heap latency 5",
    "vars {} latency",
    "export {} heap",
];

/// Start a process through `cmd` and read its stdout up to the
/// `<banner><addr>` line.
fn spawn_banner(mut cmd: Command, banner: &str) -> (Child, String) {
    cmd.stdout(Stdio::piped()).stderr(Stdio::null());
    let mut child = cmd.spawn().expect("spawn");
    let mut reader = BufReader::new(child.stdout.take().expect("stdout"));
    let mut line = String::new();
    reader.read_line(&mut line).expect("read banner");
    let addr = line.trim().strip_prefix(banner).expect("banner").to_string();
    (child, addr)
}

/// `memgaze serve` on an ephemeral port.
fn spawn_serve() -> (Child, String) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_memgaze"));
    cmd.args(["serve", "--addr", "127.0.0.1:0"]);
    spawn_banner(cmd, "serving on ")
}

fn memgaze(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_memgaze")).args(args).output().expect("run memgaze")
}

/// Run `memgaze <args>`, require success, and return its stdout.
fn memgaze_ok(args: &[&str]) -> String {
    let out = memgaze(args);
    assert!(out.status.success(), "memgaze {args:?}: {}", String::from_utf8_lossy(&out.stderr));
    String::from_utf8(out.stdout).expect("utf8 stdout")
}

/// `memgaze query <addr> <q>`'s stdout.
fn query(addr: &str, q: &str) -> String {
    let words: Vec<&str> = q.split(' ').collect();
    memgaze_ok(&[&["query", addr][..], &words].concat())
}

/// An in-process store fed, under each of `sets`, the bundles that
/// `memgaze push <addr> <set> nw` sends.
fn golden_store(sets: &[&str]) -> ProfileStore {
    let cfg = NwConfig::small(NwVariant::Original);
    let prog = build(&cfg);
    let mut w = world(&cfg);
    w.sim.pmu =
        Some(PmuConfig::Marked { event: MarkedEvent::DataFromRmem, threshold: 8, skid: 2 });
    let run = run_profiled(&prog, &w, ProfilerConfig::default());
    let mut golden = ProfileStore::new(StoreConfig::default());
    for set in sets {
        for m in &run.measurements {
            let wire = encode_bundle(&bundle_from_measurement(&prog, m));
            let bundle = dcp_core::stored::decode_bundle(wire.clone()).expect("bundle");
            golden.ingest(set, None, wire.len() as u64, bundle).expect("golden ingest");
        }
    }
    golden
}

/// Ask `addr` to drain and require the process to exit 0.
fn drain(addr: &str, mut child: Child) {
    assert_eq!(query(addr, "shutdown"), "draining\n");
    let status = child.wait().expect("wait");
    assert!(status.success(), "clean drain must exit 0, got {status}");
}

#[test]
fn cli_push_and_query_serve_the_in_process_bytes_at_any_window() {
    let (child, addr) = spawn_serve();
    memgaze_ok(&["push", &addr, "w1", "nw", "--window", "1"]);
    // Views of w8 race its pipelined push. They may miss the set or see
    // any prefix of it; the gate is the quiesced bytes below.
    let mut push = Command::new(env!("CARGO_BIN_EXE_memgaze"))
        .args(["push", &addr, "w8", "nw", "--window", "8"])
        .stdout(Stdio::null())
        .spawn()
        .expect("spawn windowed push");
    while push.try_wait().expect("poll push").is_none() {
        memgaze(&["query", &addr, "topdown", "w8", "heap", "remote"]);
    }
    assert!(push.wait().expect("wait push").success(), "windowed push failed");

    // Every view kind, on both sets: the two pushes serve the same
    // bytes, and those are the in-process store's.
    let mut golden = golden_store(&["w1", "w8"]);
    let mut want = |q: &str| format!("{}\n", handle_query(&mut golden, q).expect(q));
    for view in VIEWS {
        let (q1, q8) = (view.replace("{}", "w1"), view.replace("{}", "w8"));
        let got = query(&addr, &q1);
        assert_eq!(got, query(&addr, &q8), "{view:?}: --window 1 and --window 8 sets differ");
        assert_eq!(got, want(&q1), "{q1:?} differs from the in-process store");
    }
    for q in ["diff w1 w8 remote", "sets"] {
        assert_eq!(query(&addr, q), want(q), "{q:?} differs from the in-process store");
    }

    // A typed server error is reported alone, without the usage text.
    let unknown = memgaze(&["query", &addr, "ranking", "nosuchset", "remote"]);
    let stderr = String::from_utf8_lossy(&unknown.stderr);
    assert_eq!(unknown.status.code(), Some(1), "{stderr}");
    assert!(stderr.starts_with("error: ") && !stderr.contains("usage:"), "{stderr}");

    assert_eq!(query(&addr, "ping"), "pong\n");
    let stats = query(&addr, "stats");
    assert!(stats.lines().any(|l| l.starts_with("dirty_class_rebuilds ")), "{stats}");
    drain(&addr, child);
}

#[test]
fn cli_push_and_query_through_a_replicated_two_group_router() {
    let shards: Vec<(Child, String)> = (0..4).map(|_| spawn_serve()).collect();
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_memgaze"));
    cmd.args(["route", "--addr", "127.0.0.1:0"]);
    cmd.args(["--shard", &format!("{},{}", shards[0].1, shards[1].1)]);
    cmd.args(["--shard", &format!("{},{}", shards[2].1, shards[3].1)]);
    let (router, raddr) = spawn_banner(cmd, "routing on ");
    // Two sets the ring places on different groups.
    let ring = HashRing::new(2, RouterConfig::default().vnodes);
    let other = (0..)
        .map(|i| format!("nw{i}"))
        .find(|s| ring.owner(s.as_bytes()) != ring.owner(b"nw"))
        .expect("a set on the other group");
    let sets = ["nw", other.as_str()];
    for set in sets {
        memgaze_ok(&["push", &raddr, set, "nw", "--window", "8"]);
    }

    let mut golden = golden_store(&sets);
    let mut want = |q: &str| format!("{}\n", handle_query(&mut golden, q).expect(q));
    let views = VIEWS.iter().flat_map(|v| sets.map(|s| v.replace("{}", s)));
    for q in views.chain([format!("diff nw {other} remote"), "sets".to_string()]) {
        assert_eq!(query(&raddr, &q), want(&q), "{q:?} through the router differs");
    }
    assert_eq!(query(&raddr, "ping"), "pong\n");
    let stats = query(&raddr, "stats");
    assert!(stats.starts_with("ROUTER STATS\nshards 2\nreplicas 2,2\n"), "{stats}");
    assert!(stats.contains("\nshard_unreachable 0\n"), "{stats}");

    // The router drains first; the shards keep serving until drained.
    drain(&raddr, router);
    for (child, addr) in shards {
        drain(&addr, child);
    }
}

#[test]
#[cfg(target_os = "linux")]
fn accept_loop_backs_off_when_descriptors_run_out() {
    const LIMIT: usize = 32;
    let mut cmd = Command::new("sh");
    cmd.args([
        "-c",
        &format!("ulimit -n {LIMIT} && exec \"$0\" serve --addr 127.0.0.1:0 --sessions 2"),
        env!("CARGO_BIN_EXE_memgaze"),
    ]);
    let (mut child, addr) = spawn_banner(cmd, "serving on ");
    // More idle clients than the daemon has descriptors: two sit in
    // sessions, the rest queue until accept runs out of descriptors.
    let idle: Vec<TcpStream> =
        (0..48).map(|_| TcpStream::connect(&addr).expect("connect idle client")).collect();
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        if let Some(status) = child.try_wait().expect("poll daemon") {
            panic!("daemon exited with {status} when its descriptors ran out");
        }
        let fds = std::fs::read_dir(format!("/proc/{}/fd", child.id())).map(|d| d.count());
        if fds.is_ok_and(|n| n >= LIMIT) {
            break;
        }
        assert!(Instant::now() < deadline, "daemon never reached its descriptor limit");
        std::thread::sleep(Duration::from_millis(10));
    }
    drop(idle);

    // Once the clients are gone the daemon frees their sockets and
    // serves again.
    assert_eq!(query(&addr, "ping"), "pong\n");
    drain(&addr, child);
}
