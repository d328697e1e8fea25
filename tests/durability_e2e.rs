//! Kill-anywhere crash-injection differential: a durable daemon is
//! aborted after every possible write-ahead-log append (clean kills and
//! torn final writes), restarted over the same data directory, finished
//! off, and must then answer every query with bytes identical to a
//! never-crashed golden store fed the same bundles — for all five
//! Table-1 workloads at once.
//!
//! The daemon runs as a real subprocess (`memgaze serve --data-dir …`)
//! so `process::abort` kills a real OS process mid-fsync-sequence; the
//! crash point is injected via the `DCP_WAL_CRASH_AFTER` /
//! `DCP_WAL_CRASH_MODE` hooks the WAL reads at open. The stream is
//! pushed through a 4-deep pipelined window, so the daemon's
//! group-commit batcher folds neighbouring appends into shared fsyncs
//! and the sweep's kill points land both **inside** a batch (records
//! after the crash record are lost wholesale) and **between a group's
//! fsync and its acks** (durable-but-unacknowledged records the replay
//! must keep and the re-push must refuse as duplicates). Two
//! invariants per kill point:
//!
//! 1. **Acked implies durable**: every ingest acknowledged before the
//!    kill is present after recovery (epoch per set ≥ acks per set).
//! 2. **Byte-identical completion**: re-pushing the full stream (the
//!    already-durable prefix answers `DuplicateSeq`) yields query
//!    responses equal to the uncrashed golden, byte for byte.

use std::collections::HashMap;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};

use dcp_core::prelude::*;
use dcp_core::{bundle_from_measurement, encode_bundle};
use dcp_machine::{MarkedEvent, PmuConfig};
use dcp_serve::{handle_query, Client, ProfileStore, ServeError, StoreConfig};
use dcp_support::bytes::Bytes;
use dcp_workloads as wl;

const WORKLOADS: [&str; 5] = ["amg2006", "sweep3d", "lulesh", "streamcluster", "nw"];

/// Profile one Table-1 workload (small config, original variant) and
/// encode one bundle per rank — the same stream `memgaze push` sends.
fn bundles_for(workload: &str) -> Vec<Bytes> {
    let rmem = PmuConfig::Marked { event: MarkedEvent::DataFromRmem, threshold: 8, skid: 2 };
    let ibs = PmuConfig::Ibs { period: 128, skid: 2 };
    let (prog, mut world, pmu) = match workload {
        "amg2006" => {
            let cfg = wl::amg2006::AmgConfig::small(wl::amg2006::AmgVariant::Original);
            (wl::amg2006::build(&cfg), wl::amg2006::world(&cfg), rmem)
        }
        "sweep3d" => {
            let cfg = wl::sweep3d::SweepConfig::small(wl::sweep3d::SweepVariant::Original);
            (wl::sweep3d::build(&cfg), wl::sweep3d::world(&cfg), ibs)
        }
        "lulesh" => {
            let cfg = wl::lulesh::LuleshConfig::small(wl::lulesh::LuleshVariant::ORIGINAL);
            (wl::lulesh::build(&cfg), wl::lulesh::world(&cfg), ibs)
        }
        "streamcluster" => {
            let cfg = wl::streamcluster::ScConfig::small(wl::streamcluster::ScVariant::Original);
            (wl::streamcluster::build(&cfg), wl::streamcluster::world(&cfg), rmem)
        }
        "nw" => {
            let cfg = wl::nw::NwConfig::small(wl::nw::NwVariant::Original);
            (wl::nw::build(&cfg), wl::nw::world(&cfg), rmem)
        }
        other => panic!("unknown workload {other}"),
    };
    world.sim.pmu = Some(pmu);
    let run = run_profiled(&prog, &world, ProfilerConfig::default());
    run.measurements
        .iter()
        .map(|m| encode_bundle(&bundle_from_measurement(&prog, m)))
        .collect()
}

/// One query of every substantive kind over the five sets, plus a
/// cross-set diff and the live `sets` listing.
fn queries() -> Vec<String> {
    let mut q: Vec<String> = vec!["sets".into(), "diff nw streamcluster remote".into()];
    for w in WORKLOADS {
        q.push(format!("export {w} heap"));
        q.push(format!("ranking {w} latency 8"));
        q.push(format!("vars {w} samples"));
    }
    q
}

fn spawn_daemon(
    dir: &Path,
    snapshot_every: u64,
    crash_after: Option<u64>,
    torn: bool,
) -> (Child, String, String) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_memgaze"));
    cmd.args([
        "serve",
        "--addr",
        "127.0.0.1:0",
        "--data-dir",
        dir.to_str().expect("utf8 dir"),
        "--snapshot-every",
        &snapshot_every.to_string(),
    ]);
    cmd.stdout(Stdio::piped()).stderr(Stdio::null());
    cmd.env_remove("DCP_WAL_CRASH_AFTER").env_remove("DCP_WAL_CRASH_MODE");
    if let Some(n) = crash_after {
        cmd.env("DCP_WAL_CRASH_AFTER", n.to_string());
        if torn {
            cmd.env("DCP_WAL_CRASH_MODE", "torn");
        }
    }
    let mut child = cmd.spawn().expect("spawn daemon");
    let mut reader = BufReader::new(child.stdout.take().expect("stdout"));
    let mut recovery = String::new();
    let addr = loop {
        let mut line = String::new();
        if reader.read_line(&mut line).expect("read stdout") == 0 {
            panic!("daemon exited before binding");
        }
        match line.trim().strip_prefix("serving on ") {
            Some(a) => break a.to_string(),
            None => recovery = line.trim().to_string(),
        }
    };
    (child, addr, recovery)
}

/// Push the stream through a 4-deep pipelined window until the daemon
/// dies (or the stream ends), so group-commit batches form at the kill
/// point. Returns acks per set — only acks actually read back count;
/// every one of them must survive the crash.
fn push_until_death(addr: &str, stream: &[(&'static str, u64, Bytes)]) -> HashMap<String, u64> {
    let mut acked: HashMap<String, u64> = HashMap::new();
    let mut acks_read = 0usize;
    let Ok(mut client) = Client::connect(addr) else {
        return acked;
    };
    let mut pipe = client.pipeline(4);
    let mut alive = true;
    for (set, seq, blob) in stream {
        match pipe.push(set, Some(*seq), blob.clone()) {
            Ok(Some(ack)) => {
                acks_read += 1;
                if let Ok(a) = ack {
                    *acked.entry(a.set).or_default() += 1;
                }
            }
            Ok(None) => {}
            Err(_) => {
                alive = false;
                break;
            }
        }
    }
    if alive {
        // An Err here means it died while the trailing window drained.
        if let Ok(acks) = pipe.drain() {
            for a in acks.into_iter().flatten() {
                *acked.entry(a.set).or_default() += 1;
            }
            return acked;
        }
    }
    // The kill may have only torn this connection — and either way the
    // trailing window's acks were never read. One reconnect, resuming
    // serially from the first item whose ack is unread; a DuplicateSeq
    // refusal proves that item was durable before the crash but was
    // never acknowledged, so it still does not count.
    let Ok(mut client) = Client::connect(addr) else {
        return acked;
    };
    for (set, seq, blob) in &stream[acks_read..] {
        match client.ingest(set, Some(*seq), blob.clone()) {
            Ok(_) => *acked.entry(set.to_string()).or_default() += 1,
            Err(e) if e.code() == ServeError::DuplicateSeq(0).code() => {}
            Err(_) => break, // daemon is gone
        }
    }
    acked
}

fn epochs_of(sets_response: &str) -> HashMap<String, u64> {
    // Lines look like: `name bundles=N epoch=E gap=G gap_bytes=B`.
    sets_response
        .lines()
        .filter_map(|l| {
            let mut words = l.split_whitespace();
            let name = words.next()?;
            let epoch = words.find_map(|w| w.strip_prefix("epoch="))?;
            Some((name.to_string(), epoch.parse().ok()?))
        })
        .collect()
}

#[test]
fn killed_anywhere_recovers_byte_identical_to_the_uncrashed_golden() {
    // The interleaved ingest stream: round-robin across the five sets,
    // client-assigned sequence numbers in order within each set.
    // Each small config yields only a rank or two; replay every set's
    // measurement list three times (distinct seqs) so the WAL is long
    // enough to put kill points in every snapshot window.
    let per_set: Vec<(&'static str, Vec<Bytes>)> = WORKLOADS
        .iter()
        .map(|w| {
            let once = bundles_for(w);
            let thrice: Vec<Bytes> =
                once.iter().cycle().take(once.len() * 3).cloned().collect();
            (*w, thrice)
        })
        .collect();
    let mut stream: Vec<(&'static str, u64, Bytes)> = Vec::new();
    let widest = per_set.iter().map(|(_, b)| b.len()).max().expect("sets");
    for i in 0..widest {
        for (set, bundles) in &per_set {
            if let Some(b) = bundles.get(i) {
                stream.push((set, i as u64, b.clone()));
            }
        }
    }
    let total = stream.len() as u64;
    assert!(total >= 10, "need a real sweep, got {total} appends");

    // The uncrashed golden: an in-process store fed the same stream.
    let mut golden = ProfileStore::new(StoreConfig::default());
    for (set, seq, blob) in &stream {
        let bundle = dcp_core::stored::decode_bundle(blob.clone()).expect("bundle");
        golden.ingest(set, Some(*seq), blob.len() as u64, bundle).expect("golden ingest");
    }
    let golden_responses: Vec<(String, String)> = queries()
        .into_iter()
        .map(|q| {
            let r = handle_query(&mut golden, &q).expect("golden query");
            (q, r)
        })
        .collect();

    // Kill points: after every append (clean), and a torn final write
    // at every third point. snapshot_every=3 lands kills in every
    // snapshot window: before the first, between snapshot and truncate
    // coverage, and on the log tail after the latest snapshot.
    let mut kill_points: Vec<(u64, bool)> = (1..=total).map(|n| (n, false)).collect();
    kill_points.extend((1..=total).step_by(3).map(|n| (n, true)));

    let base = std::env::temp_dir().join(format!("dcp-kill-sweep-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    for (n, torn) in kill_points {
        let dir: PathBuf = base.join(format!("n{n}{}", if torn { "-torn" } else { "" }));

        // Phase 1: daemon wired to abort at append n; push until it dies.
        let (mut child, addr, _) = spawn_daemon(&dir, 3, Some(n), torn);
        let acked = push_until_death(&addr, &stream);
        let status = child.wait().expect("wait crashed daemon");
        assert!(!status.success(), "kill point {n} (torn={torn}): daemon must have aborted");

        // Phase 2: restart over the same directory, no crash hooks.
        let (mut child, addr, recovery) = spawn_daemon(&dir, 3, None, false);
        assert!(
            recovery.starts_with("recovered "),
            "kill point {n} (torn={torn}): missing recovery report, got {recovery:?}"
        );
        let mut client = Client::connect(&addr).expect("connect recovered daemon");

        // Invariant 1: acked implies durable.
        let epochs = epochs_of(&client.query("sets").expect("sets"));
        for (set, acks) in &acked {
            let epoch = epochs.get(set).copied().unwrap_or(0);
            assert!(
                epoch >= *acks,
                "kill point {n} (torn={torn}): set {set} acked {acks} but recovered epoch {epoch}"
            );
        }

        // Finish the stream; the durable prefix answers DuplicateSeq.
        for (set, seq, blob) in &stream {
            match client.ingest(set, Some(*seq), blob.clone()) {
                Ok(_) => {}
                Err(e) if e.code() == ServeError::DuplicateSeq(0).code() => {}
                Err(e) => panic!("kill point {n} (torn={torn}): re-push {set}#{seq}: {e}"),
            }
        }

        // Invariant 2: byte-identical to the uncrashed golden.
        for (q, want) in &golden_responses {
            let got = client.query(q).expect("query recovered daemon");
            assert_eq!(
                &got, want,
                "kill point {n} (torn={torn}): {q:?} diverges from the uncrashed golden"
            );
        }
        client.shutdown().expect("shutdown");
        drop(client);
        let status = child.wait().expect("wait recovered daemon");
        assert!(status.success(), "kill point {n} (torn={torn}): clean drain must exit 0");
    }
    let _ = std::fs::remove_dir_all(&base);
}
