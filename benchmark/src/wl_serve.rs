//! The three serving workloads: encode -> push -> merge -> query over
//! loopback against an in-process `Server::bind`/`serve` with two
//! sessions.
//!
//! All three are **closed loops** with at most two client connections
//! (the host has two cores): a push waits for its ack (inside a 16-deep
//! window, as `memgaze push --window 16` does), a dashboard refresh — six
//! views requested together — waits for its six replies.
//!
//! * `serve_ingest_durable` — daemon with a data directory, group commit
//!   on, no periodic snapshots. Two clients, one profile set each, push a
//!   seeded interleaving of small (Streamcluster node) and large (AMG
//!   node) bundles with explicit sequence numbers. WAL enqueue and fsync
//!   wait, validate-decode and fold dominate; nothing reads.
//! * `serve_query_racing` — memory-only daemon. Client A keeps a 16-deep
//!   ingest window in flight while client B refreshes the six-view mix
//!   with a short pause, so each refresh lands on a fresh epoch:
//!   snapshot, dirty-class fold and render under the store lock dominate,
//!   and reader and writer contend.
//! * `serve_query_warm` — memory-only daemon preloaded in set-up; two
//!   clients refresh the seeded six-view mix over two static sets. Response
//!   cache, wire framing and the session loop dominate; fold, snapshot
//!   and WAL are idle: the bypass workload for every store or WAL change.
//!
//! Output checks: every ack is an accept; every view response equals
//! what a serially-fed in-process `ProfileStore` renders (checked on
//! every response when the set is static, on the quiesced set when it was
//! racing); in traced runs the staged replay's final state equals the
//! daemon's `partial`.
//!
//! Traced runs replay every operation's steps in process, against a
//! private `ProfileStore` fed the same inputs in the same order, with a
//! span around each step; the loopback run's per-operation latency minus
//! the staged steps' self times is what the sockets, the thread hand-off
//! and the lock wait cost (`serve.unattributed_us`).

use std::collections::VecDeque;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use dcp_core::stored::{decode_bundle, encode_bundle, StoredAccumulator};
use dcp_serve::wal::WalRecord;
use dcp_serve::wire::{
    encode_request, encode_response, parse_request, parse_response, read_frame, write_frame,
    Request, Response, MAX_FRAME,
};
use dcp_serve::{
    format_ingest_ack, handle_query, parse_query, render_view, Client, Durability, ParsedQuery,
    ProfileStore, Router, RouterConfig, ServeError, Server, ServerConfig, StoreConfig, ViewPlan,
};
use dcp_support::bytes::Bytes;

use crate::host::{dir_bytes, scratch_dir, timed_passes, timed_setup};
use crate::inputs::{push_stream, query_schedule, view_queries, Bundles, Push, SETS};
use crate::metric::{trace_overhead, Metric, Outcome};
use crate::sizes::Sizes;
use crate::stats::{median, percentile_sorted, tail_percentile, TAILS};
use crate::trace::Recorder;
use crate::workload::Ctx;

/// Client connections, and so daemon sessions: the host has two cores.
const CLIENTS: usize = 2;

/// Polling clients of `serve_query_warm`. One, not two: with two polling
/// clients and two session threads on two cores the scheduler settles
/// into one of two placements for seconds at a time, and calibration
/// showed the query rate and the median latency differ by 20 to 30 %
/// between runs — wider than any bound the driver's contract allows. One
/// client against one session thread, a core each, repeats within a few
/// percent while the host is quiet.
const WARM_CLIENTS: usize = 1;

/// Operation-id bit of the `handle_query` probes beside a staged replay.
const HANDLED_OPS: u64 = 1 << 48;

// ---------------------------------------------------------------- daemon

/// An in-process daemon serving on its own thread.
struct Daemon {
    addr: String,
    thread: JoinHandle<Result<(), ServeError>>,
}

impl Daemon {
    fn spawn(config: ServerConfig) -> Self {
        let server = Server::bind(config).expect("bind the daemon on a loopback port");
        let addr = server.local_addr().expect("bound address");
        Self {
            addr,
            thread: std::thread::spawn(move || server.serve()),
        }
    }

    fn memory_only() -> Self {
        Self::spawn(ServerConfig {
            sessions: CLIENTS,
            ..ServerConfig::default()
        })
    }

    fn connect(&self) -> Client {
        Client::connect(&self.addr).expect("connect to the in-process daemon")
    }

    /// Ask for the drain and wait until every session has ended.
    fn stop(self) {
        self.connect().shutdown().expect("shutdown request");
        self.thread
            .join()
            .expect("daemon thread")
            .expect("daemon drained cleanly");
    }
}

// --------------------------------------------------------------- clients

/// What one client thread saw: send and completion time of each timed
/// operation (a push, or a refresh of six views; nanoseconds since the
/// pass origin), and how many pushes or queries it made and how many
/// were refused or answered wrongly.
#[derive(Default)]
struct ClientLog {
    start_ns: Vec<u64>,
    end_ns: Vec<u64>,
    ops: u64,
    failed: u64,
}

impl ClientLog {
    fn latencies_ms(&self) -> impl Iterator<Item = f64> + '_ {
        self.start_ns
            .iter()
            .zip(&self.end_ns)
            .map(|(s, e)| (e - s) as f64 / 1e6)
    }
}

/// Push `pushes` through one connection with `window` outstanding.
///
/// A push's latency runs from the moment its frame was written to the
/// moment its ack had been read. The last `window` acks come back from
/// one `drain` call with no time of their own, so they count as
/// operations but give no latency sample.
fn push_windowed(addr: &str, pushes: &[Push], window: usize, origin: Instant) -> ClientLog {
    let mut client = Client::connect(addr).expect("connect a pushing client");
    let mut pipe = client.pipeline(window);
    let mut log = ClientLog {
        ops: pushes.len() as u64,
        ..ClientLog::default()
    };
    let mut sent: VecDeque<u64> = VecDeque::with_capacity(window + 1);
    for p in pushes {
        let acked = pipe
            .push(SETS[p.set], Some(p.seq), p.bundle.clone())
            .expect("loopback transport while pushing");
        let now = origin.elapsed().as_nanos() as u64;
        if let Some(ack) = acked {
            log.start_ns.push(
                sent.pop_front()
                    .expect("an ack implies an outstanding push"),
            );
            log.end_ns.push(now);
            log.failed += u64::from(ack.is_err());
        }
        sent.push_back(now);
    }
    for ack in pipe.drain().expect("loopback transport while draining") {
        log.failed += u64::from(ack.is_err());
    }
    log
}

/// Views a dashboard asks for in one refresh.
const REFRESH: usize = 6;

/// Poll like a dashboard: a **refresh** writes the next [`REFRESH`]
/// queries of `schedule` back to back, then reads their replies, then
/// pauses `think`. A refresh is the closed loop's operation (its latency
/// runs from the first write to the last reply); every reply counts as
/// an answered query. With `until` the schedule repeats until the flag
/// is raised (and at least once); without, it runs once. With `expect`,
/// a reply that differs from the reference counts as failed.
///
/// One view per round trip would mostly time how long the sandbox takes
/// to wake a halted core (see the README's limits); six in flight keep
/// the session thread busy for a refresh at a time.
fn poll_refreshes(
    addr: &str,
    queries: &[String],
    schedule: &[usize],
    think: Duration,
    until: Option<&AtomicBool>,
    expect: Option<&[String]>,
    origin: Instant,
) -> ClientLog {
    let mut stream = TcpStream::connect(addr).expect("connect a polling client");
    stream.set_nodelay(true).expect("set TCP_NODELAY");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("set a read timeout");
    let mut log = ClientLog::default();
    'outer: loop {
        for refresh in schedule.chunks(REFRESH) {
            let start = origin.elapsed().as_nanos() as u64;
            for &q in refresh {
                let (kind, body) = encode_request(&Request::Query(queries[q].clone()));
                write_frame(&mut stream, kind, &body).expect("loopback transport while polling");
            }
            for &q in refresh {
                let reply = read_frame(&mut stream, MAX_FRAME)
                    .expect("loopback transport while polling")
                    .and_then(|(kind, body)| parse_response(kind, body).ok());
                let ok = match (reply, expect) {
                    (Some(Response::Ok(text)), Some(want)) => text == want[q],
                    (Some(Response::Ok(_)), None) => true,
                    _ => false,
                };
                log.ops += 1;
                log.failed += u64::from(!ok);
            }
            log.end_ns.push(origin.elapsed().as_nanos() as u64);
            log.start_ns.push(start);
            if until.is_some_and(|done| done.load(Ordering::Acquire)) {
                break 'outer;
            }
            if !think.is_zero() {
                std::thread::sleep(think);
            }
        }
        if until.is_none() {
            break;
        }
    }
    log
}

// ------------------------------------------------------------- reference

/// Feed `pushes` serially, in sequence order per set, into a private
/// in-process store: what every daemon must agree with.
fn reference_store(pushes: &[&[Push]]) -> ProfileStore {
    let mut store = ProfileStore::new(StoreConfig::default());
    for stream in pushes {
        for p in stream.iter() {
            let bundle =
                decode_bundle(p.bundle.clone()).expect("a bundle this process made decodes");
            store
                .ingest(SETS[p.set], Some(p.seq), p.bundle.len() as u64, bundle)
                .expect("the reference store accepts the stream");
        }
    }
    store
}

/// Queries, and what a serially-fed reference store answers to each.
struct Views {
    queries: Vec<String>,
    want: Vec<String>,
}

impl Views {
    fn of(store: &mut ProfileStore, queries: Vec<String>) -> Self {
        let want = queries
            .iter()
            .map(|q| handle_query(store, q).expect("the reference store answers every view"))
            .collect();
        Self { queries, want }
    }
}

/// Ask the daemon for every query and count the answers that differ.
fn check_views(out: &mut Outcome, daemon: &Daemon, views: &Views, when: &str) {
    let mut client = daemon.connect();
    for (q, want) in views.queries.iter().zip(&views.want) {
        let got = client.query(q);
        out.check(got.as_ref().is_ok_and(|g| g == want), || {
            format!("{when}: {q:?} differs from the serially-fed reference store")
        });
    }
}

// ------------------------------------------------------- latency summary

/// One pass's latency samples, kept as the percentiles the harness may
/// report (the samples themselves would make the harness, not the
/// daemon, the process's peak memory).
#[derive(Clone, Copy)]
struct PassLatency {
    n: usize,
    /// Milliseconds at each of [`TAILS`], in that order.
    at: [f64; TAILS.len()],
}

impl PassLatency {
    fn of(logs: &[&ClientLog]) -> Self {
        let mut ms: Vec<f64> = logs.iter().flat_map(|l| l.latencies_ms()).collect();
        ms.sort_by(f64::total_cmp);
        let at = if ms.is_empty() {
            [0.0; TAILS.len()]
        } else {
            TAILS.map(|(p, _)| percentile_sorted(&ms, p))
        };
        Self { n: ms.len(), at }
    }
}

/// Per-pass latency percentiles of one operation kind.
struct Latencies {
    per_pass: Vec<PassLatency>,
}

impl Latencies {
    /// The percentile every pass can support: the highest with at least
    /// ten samples beyond it in the smallest pass.
    fn tail(&self) -> f64 {
        tail_percentile(self.per_pass.iter().map(|p| p.n).min().unwrap_or(0))
    }

    /// The `p`-th percentile of each pass (`p` is one of [`TAILS`]).
    fn per_pass_percentile(&self, p: f64) -> Vec<f64> {
        let column = TAILS
            .iter()
            .position(|(q, _)| *q == p)
            .expect("a reported percentile");
        self.per_pass.iter().map(|pass| pass.at[column]).collect()
    }

    /// Median over passes of the per-pass median, in milliseconds.
    fn median_ms(&self) -> f64 {
        median(&self.per_pass_percentile(50.0))
    }

    /// Push the end-to-end pair, and the pipeline-specific pair under
    /// `prefix` (`..._p99` only when the passes support a 99th).
    fn report(&self, out: &mut Outcome, prefix: &str) {
        let p50 = self.per_pass_percentile(50.0);
        let tail = self.tail();
        let tails = self.per_pass_percentile(tail);
        out.push(Metric::of("op_ms_p50", &p50));
        out.push(Metric::of("op_ms_tail", &tails));
        out.push(Metric::of(&format!("{prefix}_ms_p50"), &p50));
        if tail >= 99.0 {
            out.push(Metric::of(&format!("{prefix}_ms_p99"), &tails));
        }
        out.notes.push(format!(
            "op_ms_tail is the p{tail} of each pass ({} to {} latency samples a pass)",
            self.per_pass.iter().map(|p| p.n).min().unwrap_or(0),
            self.per_pass.iter().map(|p| p.n).max().unwrap_or(0),
        ));
    }
}

/// Read `key <number>` out of the daemon's stats text.
fn stat(stats: &str, key: &str) -> f64 {
    stats
        .lines()
        .find_map(|l| l.strip_prefix(key)?.strip_prefix(' ')?.trim().parse().ok())
        .unwrap_or(0.0)
}

fn share(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

/// Median loopback round trip of a `PING`, in microseconds.
fn ping_rtt_us(addr: &str, samples: usize) -> Vec<f64> {
    let mut client = Client::connect(addr).expect("connect for ping");
    client.ping().expect("ping");
    (0..samples)
        .map(|_| {
            let t0 = Instant::now();
            client.ping().expect("ping");
            t0.elapsed().as_secs_f64() * 1e6
        })
        .collect()
}

// ------------------------------------------------------- staged replays

/// Where a staged ingest logs: nowhere, or a private WAL.
struct StagedWal {
    /// Held so the directory's log stays open for the replay's life.
    _durability: Durability,
    wal: Arc<dcp_serve::WalShared>,
}

/// The in-process side of the staged replay: the private store, and the
/// frame buffer the "socket" steps write to and read from.
struct Staged {
    store: ProfileStore,
    wal: Option<StagedWal>,
    frame: Vec<u8>,
}

impl Staged {
    fn new(data_dir: Option<&std::path::Path>) -> Self {
        let mut store = ProfileStore::new(StoreConfig::default());
        let wal = data_dir.map(|dir| {
            let (durability, _) =
                Durability::open(dir, 0, &mut store).expect("open the staged replay's WAL");
            let wal = durability.wal();
            StagedWal {
                _durability: durability,
                wal,
            }
        });
        Self {
            store,
            wal,
            frame: Vec::new(),
        }
    }

    /// Client encode, frame write + read, server parse: the wire steps
    /// every request pays. Returns the request as the server parsed it.
    fn wire_in(&mut self, rec: &mut Recorder, op: u64, req: &Request) -> Request {
        let id = rec.begin("serve.wire_encode_request", op);
        let (kind, body) = encode_request(req);
        rec.end(id);
        let id = rec.begin("serve.wire_frame_rw", op);
        self.frame.clear();
        write_frame(&mut self.frame, kind, &body).expect("write a frame to memory");
        let (kind, body) = read_frame(&mut self.frame.as_slice(), MAX_FRAME)
            .expect("read the frame back")
            .expect("one whole frame");
        rec.end(id);
        let id = rec.begin("serve.wire_parse_request", op);
        let parsed = parse_request(kind, body).expect("parse the request");
        rec.end(id);
        parsed
    }

    fn wire_out(&mut self, rec: &mut Recorder, op: u64, resp: &Response) {
        let id = rec.begin("serve.wire_encode_response", op);
        std::hint::black_box(encode_response(resp));
        rec.end(id);
    }

    /// One push, step by step, the way a session commits it.
    fn ingest(&mut self, rec: &mut Recorder, op: u64, p: &Push) {
        let root = rec.begin("serve.op.ingest", op);
        let req = Request::Ingest {
            set: SETS[p.set].to_string(),
            seq: Some(p.seq),
            bundle: p.bundle.clone(),
        };
        let Request::Ingest {
            set,
            seq,
            bundle: wire,
        } = self.wire_in(rec, op, &req)
        else {
            unreachable!("an ingest frame parses as an ingest")
        };
        let id = rec.begin("core.bundle_decode", op);
        let bundle = decode_bundle(wire.clone()).expect("decode the bundle");
        rec.end(id);
        let id = rec.begin("serve.store_prepare", op);
        let wire_len = wire.len() as u64;
        let ticket = self
            .store
            .prepare_ingest(&set, seq, wire_len)
            .expect("the store accepts the push");
        rec.end(id);
        if let Some(w) = &self.wal {
            let id = rec.begin("serve.wal_enqueue", op);
            let t = w.wal.enqueue(&WalRecord {
                set: set.clone(),
                mode: ticket.mode,
                seq: ticket.seq,
                wire_bytes: wire_len,
                bundle: wire.clone(),
            });
            rec.end(id);
            let id = rec.begin("serve.wal_commit", op);
            w.wal.commit(t).expect("the staged WAL commits");
            rec.end(id);
        }
        let id = rec.begin("serve.store_apply", op);
        let (seq, epoch) = self.store.apply_ingest(&set, ticket, wire_len, bundle);
        rec.end(id);
        self.wire_out(rec, op, &Response::Ok(format_ingest_ack(&set, seq, epoch)));
        rec.end(root);
    }

    /// One view query, step by step: parse, snapshot, render.
    fn query_steps(&mut self, rec: &mut Recorder, op: u64, q: &str) {
        let root = rec.begin("serve.op.query", op);
        let Request::Query(text) = self.wire_in(rec, op, &Request::Query(q.to_string())) else {
            unreachable!("a query frame parses as a query")
        };
        let id = rec.begin("serve.query_parse", op);
        let ParsedQuery::View(view) = parse_query(&text).expect("parse the query") else {
            unreachable!("the mix holds view queries only")
        };
        rec.end(id);
        let id = rec.begin("serve.store_snapshot", op);
        let snap = self
            .store
            .snapshot(&view.sets[0])
            .expect("snapshot the set");
        rec.end(id);
        let id = rec.begin(view_span(&view.plan), op);
        let text = render_view(&view.plan, &[snap]);
        rec.end(id);
        self.wire_out(rec, op, &Response::Ok(text));
        rec.end(root);
    }

    /// One query through `handle_query`, cache and all, under a root span
    /// called `root`.
    fn query_handled(
        &mut self,
        rec: &mut Recorder,
        op: u64,
        q: &str,
        root: &'static str,
        span: &'static str,
    ) {
        let root = rec.begin(root, op);
        let Request::Query(text) = self.wire_in(rec, op, &Request::Query(q.to_string())) else {
            unreachable!("a query frame parses as a query")
        };
        let id = rec.begin(span, op);
        let out = handle_query(&mut self.store, &text).expect("the staged store answers");
        rec.end(id);
        self.wire_out(rec, op, &Response::Ok(out));
        rec.end(root);
    }
}

fn view_span(plan: &ViewPlan) -> &'static str {
    match plan {
        ViewPlan::Ranking { .. } => "core.view_ranking",
        ViewPlan::TopDown { .. } => "core.view_topdown",
        ViewPlan::BottomUp { .. } => "core.view_bottomup",
        ViewPlan::Flat { .. } => "core.view_flat",
        _ => "core.view_other",
    }
}

/// Push the median self time, in microseconds, of each `(metric, span)`.
/// A span the replay never opened leaves its metric to read 0.
fn push_span_medians(out: &mut Outcome, rec: &Recorder, pairs: &[(&str, &str)]) {
    for (metric, span) in pairs {
        let us: Vec<f64> = rec.self_ns_of(span).iter().map(|ns| ns / 1e3).collect();
        if !us.is_empty() {
            out.push(Metric::of(metric, &us));
        }
    }
}

const WIRE_SPANS: [(&str, &str); 3] = [
    ("serve.wire_encode_request_us", "serve.wire_encode_request"),
    ("serve.wire_parse_request_us", "serve.wire_parse_request"),
    ("serve.wire_frame_rw_us", "serve.wire_frame_rw"),
];

/// `serve.unattributed_us`: the loopback operation's median latency
/// minus the sum of the staged operation's median self times (the root
/// span's own included).
fn push_unattributed(out: &mut Outcome, rec: &Recorder, loopback_ms: f64, root: &str) {
    let own = rec.self_times_ns();
    let spans = rec.spans();
    // Sum self time per staged operation, then take the median over ops.
    let mut per_op: std::collections::BTreeMap<u64, f64> = std::collections::BTreeMap::new();
    let staged_ops: std::collections::BTreeSet<u64> = spans
        .iter()
        .filter(|s| s.name == root)
        .map(|s| s.op)
        .collect();
    for (s, t) in spans.iter().zip(&own) {
        if staged_ops.contains(&s.op) && (s.name == root || s.parent.is_some()) {
            *per_op.entry(s.op).or_default() += *t as f64;
        }
    }
    if per_op.is_empty() {
        return;
    }
    let staged_us = median(&per_op.values().map(|ns| ns / 1e3).collect::<Vec<_>>());
    out.push(Metric::one(
        "serve.unattributed_us",
        loopback_ms * 1e3 - staged_us,
    ));
}

/// Record each client operation of a traced pass as a span. The clients
/// read their clocks against the pass's `origin`; spans count from the
/// recorder's.
fn add_client_spans(
    rec: &mut Recorder,
    name: &'static str,
    pass: usize,
    origin: Instant,
    logs: &[&ClientLog],
) {
    let offset = origin.saturating_duration_since(rec.origin()).as_nanos() as u64;
    for (c, log) in logs.iter().enumerate() {
        for (i, (s, e)) in log.start_ns.iter().zip(&log.end_ns).enumerate() {
            let op = ((pass as u64) << 40) | ((c as u64) << 32) | i as u64;
            rec.add(name, op, offset + s, offset + e);
        }
    }
}

/// What the harness keeps of one loopback pass once the clients' logs
/// have been summarised (and, traced, recorded as spans).
struct PassSummary {
    secs: f64,
    latency: PassLatency,
}

fn rates(passes: &[PassSummary], ops: impl Fn(&PassSummary) -> f64) -> Vec<f64> {
    passes.iter().map(|p| ops(p) / p.secs).collect()
}

// ------------------------------------------------- serve_ingest_durable

struct DurableInputs {
    /// One stream per client; client `c` owns set `c`.
    streams: Vec<Vec<Push>>,
    user_bytes: u64,
}

/// What one durable pass leaves behind besides its clients' logs.
struct DurablePass {
    origin: Instant,
    secs: f64,
    logs: Vec<ClientLog>,
    disk_bytes: u64,
    stats: String,
    partials: Vec<Result<Bytes, ServeError>>,
}

fn durable_pass(
    inputs: &DurableInputs,
    views: &Views,
    sizes: &Sizes,
    tag: &str,
    out: &mut Outcome,
) -> DurablePass {
    let dir = scratch_dir(tag);
    let daemon = Daemon::spawn(ServerConfig {
        sessions: CLIENTS,
        data_dir: Some(dir.clone()),
        group_commit: true,
        snapshot_every: 0,
        ..ServerConfig::default()
    });
    let gate = Barrier::new(CLIENTS + 1);
    let origin = Instant::now();
    let addr = daemon.addr.as_str();
    let (secs, logs) = std::thread::scope(|s| {
        let handles: Vec<_> = inputs
            .streams
            .iter()
            .map(|stream| {
                let gate = &gate;
                s.spawn(move || {
                    gate.wait();
                    push_windowed(addr, stream, sizes.ingest_window, origin)
                })
            })
            .collect();
        gate.wait();
        let t0 = Instant::now();
        let logs: Vec<ClientLog> = handles
            .into_iter()
            .map(|h| h.join().expect("pushing client"))
            .collect();
        (t0.elapsed().as_secs_f64(), logs)
    });
    let pushes: u64 = logs.iter().map(|l| l.ops).sum();
    out.count_ops(pushes, logs.iter().map(|l| l.failed).sum(), "pushes");
    // Bytes on disk once the last ack is in, before the clean-shutdown
    // snapshot rewrites the directory.
    let disk_bytes = dir_bytes(&dir);
    let mut client = daemon.connect();
    let stats = client.stats().expect("stats");
    let partials = SETS.iter().map(|s| client.partial(s)).collect();
    drop(client);
    check_views(out, &daemon, views, tag);
    daemon.stop();
    let _ = std::fs::remove_dir_all(&dir);
    DurablePass {
        origin,
        secs,
        logs,
        disk_bytes,
        stats,
        partials,
    }
}

pub fn run_ingest_durable(ctx: &mut Ctx) -> Outcome {
    let mut out = Outcome::default();
    let (sizes, seed) = (ctx.sizes, ctx.seed);
    let (inputs, setup_secs) = timed_setup(
        Duration::from_secs_f64(sizes.setup_budget_s),
        || {
            let bundles = Bundles::make(&sizes);
            let streams: Vec<Vec<Push>> = (0..CLIENTS)
                .map(|c| {
                    push_stream(
                        &bundles,
                        c,
                        sizes.durable_pushes_per_client,
                        sizes.large_every,
                        seed,
                    )
                })
                .collect();
            let user_bytes = streams
                .iter()
                .flatten()
                .map(|p| p.bundle.len() as u64)
                .sum();
            DurableInputs {
                streams,
                user_bytes,
            }
        },
        drop,
    );
    let streams: Vec<&[Push]> = inputs.streams.iter().map(Vec::as_slice).collect();
    let views = Views::of(
        &mut reference_store(&streams),
        SETS.iter().flat_map(|s| view_queries(s)).collect(),
    );
    let pushes: u64 = inputs.streams.iter().map(|s| s.len() as u64).sum();

    // Untimed warm-up pass (page cache, allocator, listener).
    durable_pass(&inputs, &views, &sizes, "durable-warm-up", &mut out);

    let traced = ctx.traced();
    let (seconds, min_passes) = ctx.pass_budget();
    let rec = &mut ctx.rec;
    let mut untraced_secs = Vec::new();
    let mut last = None;
    let passes: Vec<PassSummary> = timed_passes(seconds, min_passes, |i| {
        let p = durable_pass(
            &inputs,
            &views,
            &sizes,
            &format!("durable-pass-{i}"),
            &mut out,
        );
        let logs: Vec<&ClientLog> = p.logs.iter().collect();
        let summary = PassSummary {
            secs: p.secs,
            latency: PassLatency::of(&logs),
        };
        if traced {
            add_client_spans(rec, "serve.client.push", i, p.origin, &logs);
            untraced_secs.push(
                durable_pass(
                    &inputs,
                    &views,
                    &sizes,
                    &format!("durable-untraced-{i}"),
                    &mut out,
                )
                .secs,
            );
        }
        last = Some((p.disk_bytes, p.stats, p.partials));
        summary
    });
    let (disk_bytes, stats, partials) = last.expect("at least one pass");
    let latencies = Latencies {
        per_pass: passes.iter().map(|p| p.latency).collect(),
    };

    if !traced {
        let rates = rates(&passes, |_| pushes as f64);
        out.push(Metric::of("setup_s", &setup_secs));
        out.push(Metric::of("work_per_s", &rates));
        out.push(Metric::of("ingest_per_s", &rates));
        latencies.report(&mut out, "ingest_ack");
        out.push(Metric::one("output_bytes", disk_bytes as f64));
        out.push(Metric::one(
            "disk_bytes_per_user_byte",
            disk_bytes as f64 / inputs.user_bytes as f64,
        ));
    } else {
        // Staged replay: the two clients' streams interleaved one push
        // each, which preserves the per-set order the daemon committed.
        let dir = scratch_dir("durable-staged");
        let mut staged = Staged::new(Some(&dir));
        let longest = inputs.streams.iter().map(Vec::len).max().unwrap_or(0);
        let mut op = 0u64;
        for i in 0..longest {
            for stream in &inputs.streams {
                if let Some(p) = stream.get(i) {
                    staged.ingest(rec, op, p);
                    op += 1;
                }
            }
        }
        for (set, daemon_partial) in SETS.iter().zip(&partials) {
            let ours = staged.store.partial(set).expect("staged partial");
            out.check(daemon_partial.as_ref().is_ok_and(|d| *d == ours), || {
                format!(
                    "set {set}: the staged replay's final state differs from the daemon's partial"
                )
            });
        }
        drop(staged);
        let _ = std::fs::remove_dir_all(&dir);

        push_span_medians(&mut out, rec, &WIRE_SPANS);
        push_span_medians(
            &mut out,
            rec,
            &[
                ("core.bundle_decode_us", "core.bundle_decode"),
                ("serve.store_prepare_us", "serve.store_prepare"),
                ("serve.store_apply_us", "serve.store_apply"),
                ("serve.wal_enqueue_us", "serve.wal_enqueue"),
                ("serve.wal_commit_us", "serve.wal_commit"),
            ],
        );
        push_unattributed(&mut out, rec, latencies.median_ms(), "serve.op.ingest");

        let (batches, records) = (stat(&stats, "wal_batches"), stat(&stats, "wal_records"));
        out.push(Metric::one(
            "serve.wal_records_per_batch",
            share(records, batches),
        ));
        out.push(Metric::one(
            "serve.wal_max_batch",
            stat(&stats, "wal_max_batch"),
        ));
        out.push(Metric::one(
            "serve.wal_fsyncs_per_ingest",
            share(batches, stat(&stats, "ingests")),
        ));
        let daemon = Daemon::memory_only();
        out.push(Metric::of(
            "serve.ping_rtt_us",
            &ping_rtt_us(&daemon.addr, sizes.rtt_samples),
        ));
        daemon.stop();
        let secs: Vec<f64> = passes.iter().map(|p| p.secs).collect();
        out.push(trace_overhead(&secs, &untraced_secs));
    }
    out.notes.push(format!(
        "{pushes} pushes ({} user bytes) per pass from {CLIENTS} clients, window {}",
        inputs.user_bytes, sizes.ingest_window
    ));
    out
}

// --------------------------------------------------- serve_query_racing

struct RacingInputs {
    /// The writer's stream into set 0; the first push primes the set.
    stream: Vec<Push>,
    /// Indices into the six views, six to a refresh.
    schedule: Vec<usize>,
}

struct RacingPass {
    origin: Instant,
    secs: f64,
    reader: ClientLog,
    stats: String,
    partial: Result<Bytes, ServeError>,
}

fn racing_pass(
    inputs: &RacingInputs,
    views: &Views,
    sizes: &Sizes,
    tag: &str,
    out: &mut Outcome,
) -> RacingPass {
    let daemon = Daemon::memory_only();
    // Prime outside the timed window so no reader races an empty store.
    let (first, rest) = inputs
        .stream
        .split_first()
        .expect("a racing stream has pushes");
    daemon
        .connect()
        .ingest(SETS[first.set], Some(first.seq), first.bundle.clone())
        .expect("prime the set");
    let done = AtomicBool::new(false);
    let gate = Barrier::new(CLIENTS + 1);
    let origin = Instant::now();
    let addr = daemon.addr.as_str();
    let (secs, writer, reader) = std::thread::scope(|s| {
        let w = s.spawn(|| {
            gate.wait();
            let log = push_windowed(addr, rest, sizes.ingest_window, origin);
            done.store(true, Ordering::Release);
            log
        });
        let r = s.spawn(|| {
            gate.wait();
            // A dashboard's pause between refreshes: long enough that the
            // writer has committed since the last reply, so every refresh
            // lands on a fresh epoch and pays the cold read path.
            let think = Duration::from_micros(sizes.racing_think_us);
            poll_refreshes(
                addr,
                &views.queries,
                &inputs.schedule,
                think,
                Some(&done),
                None,
                origin,
            )
        });
        gate.wait();
        let t0 = Instant::now();
        let writer = w.join().expect("racing writer");
        let secs = t0.elapsed().as_secs_f64();
        (secs, writer, r.join().expect("racing reader"))
    });
    out.count_ops(writer.ops, writer.failed, "racing pushes");
    out.count_ops(reader.ops, reader.failed, "racing queries");
    let mut client = daemon.connect();
    let stats = client.stats().expect("stats");
    let partial = client.partial(SETS[0]);
    // A second fetch at the same epoch: the per-epoch partial cache.
    let again = client.partial(SETS[0]);
    out.check(
        again.is_ok() && again.as_ref().ok() == partial.as_ref().ok(),
        || format!("{tag}: two partial fetches at one epoch differ"),
    );
    let reuse_after = stat(&client.stats().expect("stats"), "partial_reuse");
    drop(client);
    check_views(out, &daemon, views, &format!("{tag}, quiesced"));
    daemon.stop();
    let stats = format!("{stats}\npartial_reuse_after {reuse_after}");
    RacingPass {
        origin,
        secs,
        reader,
        stats,
        partial,
    }
}

pub fn run_query_racing(ctx: &mut Ctx) -> Outcome {
    let mut out = Outcome::default();
    let (sizes, seed) = (ctx.sizes, ctx.seed);
    let (inputs, setup_secs) = timed_setup(
        Duration::from_secs_f64(sizes.setup_budget_s),
        || {
            let bundles = Bundles::make(&sizes);
            RacingInputs {
                stream: push_stream(&bundles, 0, sizes.racing_pushes, sizes.large_every, seed),
                schedule: query_schedule(6, 4096, seed ^ 0x9e7),
            }
        },
        drop,
    );
    let views = Views::of(
        &mut reference_store(&[&inputs.stream]),
        view_queries(SETS[0]).to_vec(),
    );
    let pushes = inputs.stream.len() as f64 - 1.0;

    racing_pass(&inputs, &views, &sizes, "racing warm-up", &mut out);

    let traced = ctx.traced();
    let (seconds, min_passes) = ctx.pass_budget();
    let rec = &mut ctx.rec;
    let mut untraced_secs = Vec::new();
    let mut last = None;
    let mut queries_per_pass = Vec::new();
    let passes: Vec<PassSummary> = timed_passes(seconds, min_passes, |i| {
        let p = racing_pass(
            &inputs,
            &views,
            &sizes,
            &format!("racing pass {i}"),
            &mut out,
        );
        let summary = PassSummary {
            secs: p.secs,
            latency: PassLatency::of(&[&p.reader]),
        };
        queries_per_pass.push(p.reader.ops as f64);
        if traced {
            add_client_spans(rec, "serve.client.query", i, p.origin, &[&p.reader]);
            untraced_secs.push(
                racing_pass(
                    &inputs,
                    &views,
                    &sizes,
                    &format!("racing untraced {i}"),
                    &mut out,
                )
                .secs,
            );
        }
        last = Some((p.stats, p.partial));
        summary
    });
    let (stats, partial) = last.expect("at least one pass");
    let latencies = Latencies {
        per_pass: passes.iter().map(|p| p.latency).collect(),
    };

    if !traced {
        // The reader stops with the writer, so both rates share the
        // writer's wall time.
        let query_rates: Vec<f64> = passes
            .iter()
            .zip(&queries_per_pass)
            .map(|(p, q)| q / p.secs)
            .collect();
        out.push(Metric::of("setup_s", &setup_secs));
        out.push(Metric::of("work_per_s", &query_rates));
        out.push(Metric::of("query_per_s", &query_rates));
        out.push(Metric::of("ingest_per_s", &rates(&passes, |_| pushes)));
        latencies.report(&mut out, "query");
        out.push(Metric::one(
            "output_bytes",
            partial.as_ref().map_or(0.0, |p| p.len() as f64),
        ));
    } else {
        // Staged replay: the writer's pushes with one refresh of the
        // schedule after every `stride` of them — the ratio the loopback
        // pass ran at, so a staged refresh folds as many pending bundles
        // as a real one did. A second store takes the same pushes and
        // answers through `handle_query`, cold then warm.
        let refreshes = median(&queries_per_pass) / REFRESH as f64;
        let stride = (pushes / refreshes.max(1.0)).round().max(1.0) as usize;
        let mut steps = Staged::new(None);
        let mut handled = Staged::new(None);
        let mut quiet = Recorder::new(false);
        let mut refreshes_due = inputs.schedule.chunks(REFRESH).cycle();
        let mut probes = 0usize;
        for (i, p) in inputs.stream.iter().enumerate() {
            let op = i as u64;
            steps.ingest(rec, 2 * op, p);
            handled.ingest(&mut quiet, 0, p);
            if (i + 1) % stride != 0 {
                continue;
            }
            let refresh = refreshes_due.next().expect("a cycled schedule never ends");
            let root = rec.begin("serve.op.refresh", 2 * op + 1);
            for &q in refresh {
                steps.query_steps(rec, 2 * op + 1, &views.queries[q]);
            }
            rec.end(root);
            let id = rec.begin("serve.store_partial", 2 * op + 1);
            steps.store.partial(SETS[0]).expect("staged partial");
            rec.end(id);
            if probes < sizes.staged_ops {
                // An id space of their own: these are not steps of the
                // staged refresh above.
                probes += 1;
                let (op, q) = (HANDLED_OPS | op, &views.queries[refresh[0]]);
                handled.query_handled(rec, op, q, "serve.op.query_handled", "serve.query_cold");
                handled.query_handled(rec, op, q, "serve.op.query_handled", "serve.query_warm");
            }
        }
        let ours = steps.store.partial(SETS[0]).expect("staged partial");
        out.check(partial.as_ref().is_ok_and(|d| *d == ours), || {
            "the staged replay's final state differs from the daemon's partial".to_string()
        });

        push_span_medians(&mut out, rec, &WIRE_SPANS);
        push_span_medians(
            &mut out,
            rec,
            &[
                ("serve.store_prepare_us", "serve.store_prepare"),
                ("serve.store_apply_us", "serve.store_apply"),
                ("serve.store_partial_us", "serve.store_partial"),
                ("serve.query_cold_us", "serve.query_cold"),
                ("serve.query_warm_us", "serve.query_warm"),
                ("core.view_ranking_us", "core.view_ranking"),
                ("core.view_topdown_us", "core.view_topdown"),
                ("core.view_bottomup_us", "core.view_bottomup"),
                ("core.view_flat_us", "core.view_flat"),
            ],
        );
        // Per refresh, not per view: the first view of a refresh pays the
        // fold, the other five share its snapshot.
        let snapshot_us: Vec<f64> = rec
            .self_ns_per_op("serve.store_snapshot")
            .iter()
            .map(|ns| ns / 1e3)
            .collect();
        out.push(Metric::of("serve.store_snapshot_us", &snapshot_us));
        push_unattributed(&mut out, rec, latencies.median_ms(), "serve.op.refresh");
        accumulator_layers(&mut out, rec, &inputs.stream, &sizes);

        let misses = stat(&stats, "cache_misses");
        out.push(Metric::one(
            "serve.cache_hit_rate",
            stat(&stats, "cache_hit_rate"),
        ));
        out.push(Metric::one(
            "serve.snapshot_reuse_share",
            share(stat(&stats, "snapshot_reuse"), misses),
        ));
        // Two partial fetches were made after the pass, at one epoch.
        out.push(Metric::one(
            "serve.partial_reuse_share",
            share(stat(&stats, "partial_reuse_after"), 2.0),
        ));
        out.push(Metric::one(
            "serve.dirty_class_rebuilds_per_ingest",
            share(
                stat(&stats, "dirty_class_rebuilds"),
                stat(&stats, "ingests"),
            ),
        ));
        let secs: Vec<f64> = passes.iter().map(|p| p.secs).collect();
        out.push(trace_overhead(&secs, &untraced_secs));
    }
    out.notes.push(format!(
        "{pushes} racing pushes per pass (window {}), {} to {} queries a pass in refreshes of \
         {REFRESH}, {} us between refreshes",
        sizes.ingest_window,
        queries_per_pass
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min),
        queries_per_pass.iter().copied().fold(0.0, f64::max),
        sizes.racing_think_us,
    ));
    out
}

/// dcp-core's accumulator and bundle codec, driven directly: what a fold,
/// a dirty and a clean snapshot, and a state encoding cost on this set.
fn accumulator_layers(out: &mut Outcome, rec: &mut Recorder, stream: &[Push], sizes: &Sizes) {
    let mut acc = StoredAccumulator::new();
    let mut snapshots = 0u64;
    for (i, p) in stream.iter().take(sizes.staged_ops).enumerate() {
        let op = i as u64;
        let id = rec.begin("core.bundle_decode", op);
        let bundle = decode_bundle(p.bundle.clone()).expect("decode");
        rec.end(id);
        let id = rec.begin("core.bundle_encode", op);
        std::hint::black_box(encode_bundle(&bundle).len());
        rec.end(id);
        let id = rec.begin("core.acc_ingest_fold", op);
        acc.ingest(bundle.clone());
        acc.fold().expect("fold");
        rec.end(id);
        // Dirty: a snapshot that has to fold what was just ingested.
        acc.ingest(bundle);
        let id = rec.begin("core.acc_snapshot_dirty", op);
        std::hint::black_box(acc.snapshot().expect("snapshot").stats().samples);
        rec.end(id);
        // Clean: nothing ingested since.
        let id = rec.begin("core.acc_snapshot_clean", op);
        std::hint::black_box(acc.snapshot().expect("snapshot").stats().samples);
        rec.end(id);
        snapshots += 2;
        let id = rec.begin("core.acc_encode_state", op);
        std::hint::black_box(acc.encode_state().expect("encode_state").len());
        rec.end(id);
    }
    push_span_medians(
        out,
        rec,
        &[
            ("core.bundle_decode_us", "core.bundle_decode"),
            ("core.bundle_encode_us", "core.bundle_encode"),
            ("core.acc_ingest_fold_us", "core.acc_ingest_fold"),
            ("core.acc_snapshot_dirty_us", "core.acc_snapshot_dirty"),
            ("core.acc_snapshot_clean_us", "core.acc_snapshot_clean"),
            ("core.acc_encode_state_us", "core.acc_encode_state"),
        ],
    );
    out.push(Metric::one(
        "core.acc_dirty_rebuilds_per_snapshot",
        share(acc.dirty_rebuilds() as f64, snapshots as f64),
    ));
}

// ----------------------------------------------------- serve_query_warm

struct WarmInputs {
    daemon: Daemon,
    /// The preload streams, one per set: what the reference store is fed.
    streams: Vec<Vec<Push>>,
    /// One schedule per client over the twelve queries.
    schedules: Vec<Vec<usize>>,
}

fn warm_pass(
    inputs: &WarmInputs,
    views: &Views,
    out: &mut Outcome,
) -> (Instant, f64, Vec<ClientLog>) {
    let gate = Barrier::new(WARM_CLIENTS + 1);
    let origin = Instant::now();
    let addr = inputs.daemon.addr.as_str();
    let (secs, logs) = std::thread::scope(|s| {
        let handles: Vec<_> = inputs
            .schedules
            .iter()
            .map(|schedule| {
                let gate = &gate;
                s.spawn(move || {
                    gate.wait();
                    poll_refreshes(
                        addr,
                        &views.queries,
                        schedule,
                        Duration::ZERO,
                        None,
                        Some(&views.want),
                        origin,
                    )
                })
            })
            .collect();
        gate.wait();
        let t0 = Instant::now();
        let logs: Vec<ClientLog> = handles
            .into_iter()
            .map(|h| h.join().expect("polling client"))
            .collect();
        (t0.elapsed().as_secs_f64(), logs)
    });
    out.count_ops(
        logs.iter().map(|l| l.ops).sum(),
        logs.iter().map(|l| l.failed).sum(),
        "warm queries",
    );
    (origin, secs, logs)
}

pub fn run_query_warm(ctx: &mut Ctx) -> Outcome {
    let mut out = Outcome::default();
    let (sizes, seed) = (ctx.sizes, ctx.seed);
    let (inputs, setup_secs) = timed_setup(
        Duration::from_secs_f64(sizes.setup_budget_s),
        || {
            let bundles = Bundles::make(&sizes);
            // The preload is the same for every seed (the seed orders the
            // polls), so the responses and their sizes are too.
            let streams: Vec<Vec<Push>> = (0..SETS.len())
                .map(|set| {
                    push_stream(
                        &bundles,
                        set,
                        sizes.warm_preload_per_set,
                        sizes.large_every,
                        0,
                    )
                })
                .collect();
            let daemon = Daemon::memory_only();
            let mut client = daemon.connect();
            for p in streams.iter().flatten() {
                client
                    .ingest(SETS[p.set], Some(p.seq), p.bundle.clone())
                    .expect("preload the daemon");
            }
            drop(client);
            let schedules = (0..WARM_CLIENTS)
                .map(|c| {
                    query_schedule(
                        2 * 6,
                        sizes.warm_queries_per_client,
                        seed ^ (0x3a + c as u64),
                    )
                })
                .collect();
            WarmInputs {
                daemon,
                streams,
                schedules,
            }
        },
        |extra| extra.daemon.stop(),
    );
    let streams: Vec<&[Push]> = inputs.streams.iter().map(Vec::as_slice).collect();
    let mut reference = reference_store(&streams);
    let views = Views::of(
        &mut reference,
        SETS.iter().flat_map(|s| view_queries(s)).collect(),
    );
    let per_pass = (WARM_CLIENTS * sizes.warm_queries_per_client) as f64;

    // Untimed warm-up pass: fills the response cache.
    warm_pass(&inputs, &views, &mut out);

    let traced = ctx.traced();
    let (seconds, min_passes) = ctx.pass_budget();
    let rec = &mut ctx.rec;
    let mut untraced_secs = Vec::new();
    let passes: Vec<PassSummary> = timed_passes(seconds, min_passes, |i| {
        let (origin, secs, logs) = warm_pass(&inputs, &views, &mut out);
        let logs: Vec<&ClientLog> = logs.iter().collect();
        if traced {
            add_client_spans(rec, "serve.client.query", i, origin, &logs);
            untraced_secs.push(warm_pass(&inputs, &views, &mut out).1);
        }
        PassSummary {
            secs,
            latency: PassLatency::of(&logs),
        }
    });
    let latencies = Latencies {
        per_pass: passes.iter().map(|p| p.latency).collect(),
    };

    if !traced {
        let rates = rates(&passes, |_| per_pass);
        out.push(Metric::of("setup_s", &setup_secs));
        out.push(Metric::of("work_per_s", &rates));
        out.push(Metric::of("query_per_s", &rates));
        latencies.report(&mut out, "query");
        out.push(Metric::one(
            "output_bytes",
            views.want.iter().map(|w| w.len() as f64).sum(),
        ));
    } else {
        // Staged replay against the reference store (already fed the
        // same inputs in the same order): the first poll of each view
        // was the cold one, every later poll hits the response cache.
        let mut staged = Staged {
            store: reference,
            wal: None,
            frame: Vec::new(),
        };
        for (i, refresh) in inputs.schedules[0]
            .chunks(REFRESH)
            .take(sizes.staged_ops)
            .enumerate()
        {
            let root = rec.begin("serve.op.refresh", i as u64);
            for &q in refresh {
                staged.query_handled(
                    rec,
                    i as u64,
                    &views.queries[q],
                    "serve.op.query",
                    "serve.query_warm",
                );
            }
            rec.end(root);
        }
        push_span_medians(&mut out, rec, &WIRE_SPANS);
        push_span_medians(
            &mut out,
            rec,
            &[("serve.query_warm_us", "serve.query_warm")],
        );
        push_unattributed(&mut out, rec, latencies.median_ms(), "serve.op.refresh");

        let stats = inputs.daemon.connect().stats().expect("stats");
        out.push(Metric::one(
            "serve.cache_hit_rate",
            stat(&stats, "cache_hit_rate"),
        ));
        out.push(Metric::of(
            "serve.ping_rtt_us",
            &ping_rtt_us(&inputs.daemon.addr, sizes.rtt_samples),
        ));
        let routed = router_overhead_us(&inputs.daemon.addr, &views, &sizes, &mut out);
        out.push(Metric::one("serve.router_overhead_us", routed));
        let secs: Vec<f64> = passes.iter().map(|p| p.secs).collect();
        out.push(trace_overhead(&secs, &untraced_secs));
    }
    out.notes.push(format!(
        "{per_pass} queries per pass in refreshes of {REFRESH} from {WARM_CLIENTS} clients over {} views \
         of {} preloaded bundles",
        views.queries.len(),
        inputs.streams.iter().map(Vec::len).sum::<usize>(),
    ));
    inputs.daemon.stop();
    out
}

/// Median warm query latency through a router (one group, one replica)
/// in front of the daemon, minus the median straight to the daemon.
fn router_overhead_us(shard: &str, views: &Views, sizes: &Sizes, out: &mut Outcome) -> f64 {
    let (queries, want) = (&views.queries, &views.want);
    let router = Router::bind(RouterConfig {
        shards: vec![vec![shard.to_string()]],
        sessions: 1,
        ..RouterConfig::default()
    })
    .expect("bind the router");
    let addr = router.local_addr().expect("router address");
    let thread = std::thread::spawn(move || router.serve());

    let median_us = |addr: &str, out: &mut Outcome| -> f64 {
        let mut client = Client::connect(addr).expect("connect");
        // The first round is not measured: it fills the cache on this path.
        let mut lat = Vec::with_capacity(sizes.rtt_samples);
        for i in 0..sizes.rtt_samples + queries.len() {
            let q = i % queries.len();
            let t0 = Instant::now();
            let resp = client.query(&queries[q]);
            let us = t0.elapsed().as_secs_f64() * 1e6;
            out.check(resp.as_ref().is_ok_and(|r| *r == want[q]), || {
                format!("{addr}: {:?} differs from the reference", queries[q])
            });
            if i >= queries.len() {
                lat.push(us);
            }
        }
        median(&lat)
    };
    let direct = median_us(shard, out);
    let routed = median_us(&addr, out);
    Client::connect(&addr)
        .expect("connect")
        .shutdown()
        .expect("shut the router down");
    thread
        .join()
        .expect("router thread")
        .expect("router drained cleanly");
    routed - direct
}
