//! The daemon: a TCP accept loop feeding a bounded session pool.
//!
//! Sessions run on dedicated OS threads — deliberately NOT on the
//! compute pool. A session blocks on socket reads, so as a pool task it
//! would hold a worker for the connection's lifetime and starve compute
//! (and under `DCP_THREADS=0` the pool has no workers at all). No
//! request path uses the compute pool: a snapshot fold streams the
//! pending blobs through `merge_encoded` on the session's own thread.
//!
//! Robustness posture per connection: a read timeout bounds how long a
//! quiet peer can hold a session thread, `MAX_FRAME` bounds allocation,
//! and every decode failure turns into one best-effort ERR frame before
//! the connection closes. The shared state sits behind a
//! poison-recovering [`dcp_support::sync::Mutex`]: a panicking session
//! must not take the whole daemon down with it (with a poisoning lock,
//! every later session dies on the poison while the accept loop keeps
//! queueing sockets nobody will drain — the loopback regression test
//! pins the recovery). A SHUTDOWN control frame flips the drain flag:
//! the acceptor stops taking sockets, in-flight sessions finish their
//! current request, and `serve()` joins every worker before returning —
//! no request is abandoned mid-response.
//!
//! With a data directory configured, ingests are durable and the fsync
//! cost is amortized by **group commit**: a session decodes its bundles
//! outside the state lock, then under one short critical section
//! validates each one, enqueues its record into the shared WAL batcher
//! ([`crate::wal::WalShared`]), and applies the delta; the ack is
//! written only after the flush covering the record lands, which keeps
//! ack-implies-durable exact while one `write+fsync` covers every
//! record concurrent sessions enqueued. Sessions also batch at the
//! socket: when a windowed client has pipelined more INGEST frames,
//! they are drained, decoded, and committed as one group, so the lock
//! is taken once and the fsync once for the whole window. Setting
//! [`ServerConfig::group_commit`] to false restores the strict
//! one-fsync-per-record ordering (append+fsync under the lock before
//! apply); `tests/loopback.rs` pins both orderings byte-identical.

use std::io::ErrorKind;
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dcp_core::stored::{decode_bundle, StoredBundle};
use dcp_support::bytes::Bytes;
use dcp_support::sync::Mutex;

use crate::error::ServeError;
use crate::query::handle_query;
use crate::store::{ProfileStore, StoreConfig};
use crate::wal::{Durability, WalRecord, WalShared};
use crate::wire::{
    encode_response, format_ingest_ack, read_frame, write_frame, Request, Response, MAX_FRAME,
};

/// Cap on the bytes one session gathers into a single ingest group from
/// its socket read-ahead (the record count is bounded by
/// [`ServerConfig::ingest_group`]).
const GROUP_READ_BYTES: usize = 8 << 20;

/// Everything tunable about a daemon instance.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Listen address; use port 0 for an ephemeral port.
    pub addr: String,
    /// Store byte budget (see [`StoreConfig`]).
    pub byte_budget: u64,
    /// Per-set reorder-buffer byte cap (see [`StoreConfig`]).
    pub pending_cap: u64,
    /// Largest frame body accepted.
    pub max_frame: u64,
    /// Per-connection socket read timeout.
    pub read_timeout: Duration,
    /// Concurrent session threads.
    pub sessions: usize,
    /// Response-cache bounds.
    pub cache_entries: usize,
    pub cache_bytes: usize,
    /// Durable state directory. `None` serves from memory only.
    pub data_dir: Option<PathBuf>,
    /// Snapshot-and-truncate the log every N ingests (0 = only on
    /// clean shutdown). Ignored without a data directory.
    pub snapshot_every: u64,
    /// Coalesce concurrent WAL appends into one fsync (group commit).
    /// False restores the one-fsync-per-record baseline. Ignored
    /// without a data directory.
    pub group_commit: bool,
    /// Most INGEST frames one session drains from its socket into a
    /// single decode+commit group (a windowed client's pipelined
    /// pushes). 1 disables socket batching.
    pub ingest_group: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        let store = StoreConfig::default();
        Self {
            addr: "127.0.0.1:0".to_string(),
            byte_budget: store.byte_budget,
            pending_cap: store.pending_cap,
            max_frame: MAX_FRAME,
            read_timeout: Duration::from_secs(10),
            sessions: 4,
            cache_entries: store.cache_entries,
            cache_bytes: store.cache_bytes,
            data_dir: None,
            snapshot_every: 0,
            group_commit: true,
            ingest_group: 64,
        }
    }
}

/// The state every session shares under one lock: the store and, when
/// durability is on, the open log. One lock for both because the WAL
/// append order must match the store apply order exactly.
pub struct ServerState {
    pub store: ProfileStore,
    durability: Option<Durability>,
}

/// A bound, not-yet-serving daemon. `bind` then `local_addr` then
/// `serve` (which blocks until a SHUTDOWN frame arrives).
pub struct Server {
    listener: TcpListener,
    config: ServerConfig,
    state: Arc<Mutex<ServerState>>,
    /// The shared WAL handle sessions group-commit through; `None` when
    /// serving from memory or when `group_commit` is off.
    wal: Option<Arc<WalShared>>,
    recovery: Option<String>,
    shutdown: Arc<AtomicBool>,
}

impl Server {
    /// Bind the listener and, with a data directory configured, recover
    /// the store from snapshot + log before serving anything.
    pub fn bind(config: ServerConfig) -> Result<Self, ServeError> {
        let listener = TcpListener::bind(&config.addr)?;
        let mut store = ProfileStore::new(StoreConfig {
            byte_budget: config.byte_budget,
            pending_cap: config.pending_cap,
            cache_entries: config.cache_entries,
            cache_bytes: config.cache_bytes,
        });
        let mut recovery = None;
        let durability = match &config.data_dir {
            None => None,
            Some(dir) => {
                let (dur, report) = Durability::open(dir, config.snapshot_every, &mut store)?;
                recovery = Some(report.render());
                Some(dur)
            }
        };
        let wal = match &durability {
            Some(dur) if config.group_commit => Some(dur.wal()),
            _ => None,
        };
        Ok(Self {
            listener,
            config,
            state: Arc::new(Mutex::new(ServerState { store, durability })),
            wal,
            recovery,
            shutdown: Arc::new(AtomicBool::new(false)),
        })
    }

    /// The actually-bound address (resolves port 0).
    pub fn local_addr(&self) -> Result<String, ServeError> {
        Ok(self.listener.local_addr()?.to_string())
    }

    /// What recovery found at bind time, when durability is on.
    pub fn recovery_report(&self) -> Option<&str> {
        self.recovery.as_deref()
    }

    /// A handle that flips the drain flag from another thread (tests
    /// and embedders; remote clients use the SHUTDOWN frame).
    pub fn shutdown_handle(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.shutdown)
    }

    /// The shared state, for embedders and fault-injection tests.
    pub fn state_handle(&self) -> Arc<Mutex<ServerState>> {
        Arc::clone(&self.state)
    }

    /// Accept and serve until shutdown, then drain. Blocks the calling
    /// thread for the daemon's whole life.
    pub fn serve(self) -> Result<(), ServeError> {
        self.listener.set_nonblocking(true)?;
        let (tx, rx): (Sender<TcpStream>, Receiver<TcpStream>) = channel();
        let rx = Arc::new(Mutex::new(rx));
        let mut workers = Vec::with_capacity(self.config.sessions.max(1));
        for _ in 0..self.config.sessions.max(1) {
            let rx = Arc::clone(&rx);
            let state = Arc::clone(&self.state);
            let wal = self.wal.clone();
            let shutdown = Arc::clone(&self.shutdown);
            let timeout = self.config.read_timeout;
            let max_frame = self.config.max_frame;
            let ingest_group = self.config.ingest_group.max(1);
            workers.push(std::thread::spawn(move || loop {
                // Holding the receiver lock only while waiting keeps the
                // other session threads free to pull their own sockets.
                let next = {
                    let guard = rx.lock();
                    guard.recv()
                };
                match next {
                    Ok(stream) => {
                        handle_conn(stream, &state, &wal, &shutdown, timeout, max_frame, ingest_group)
                    }
                    Err(_) => return, // sender dropped: drain complete
                }
            }));
        }
        // Nonblocking accept poll so the drain flag is honoured even
        // when no client ever connects again.
        while !self.shutdown.load(Ordering::SeqCst) {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    if tx.send(stream).is_err() {
                        break;
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e.into()),
            }
        }
        // Dropping the sender ends every worker's recv loop once the
        // queued sockets (in-flight sessions) are fully served.
        drop(tx);
        for w in workers {
            let _ = w.join();
        }
        // Clean shutdown: fold the store into a snapshot so the next
        // start replays nothing. Best effort — the log already has
        // everything, so a failure here costs restart time, not data.
        let mut st = self.state.lock();
        let ServerState { store, durability } = &mut *st;
        if let Some(dur) = durability {
            if let Err(e) = dur.snapshot_now(store) {
                eprintln!("memgaze-serve: shutdown snapshot failed: {e}");
            }
        }
        Ok(())
    }
}

fn respond(stream: &mut TcpStream, resp: &Response) -> Result<(), ServeError> {
    let (k, body) = encode_response(resp);
    write_frame(stream, k, &body)
}

fn err_response(e: &ServeError) -> Response {
    Response::Err(e.code(), e.to_string())
}

/// What interrupted a session's ingest read-ahead: the next frame was
/// not an ingest (serve it on the next loop turn), the stream hit EOF,
/// or reading/parsing failed.
enum Followup {
    None,
    Eof,
    Request(Request),
    Error(ServeError),
}

/// Does the socket have bytes ready to read right now? Used by the
/// ingest read-ahead: never block waiting for more of a window, only
/// drain what the client has already pipelined.
fn socket_has_data(stream: &TcpStream) -> bool {
    if stream.set_nonblocking(true).is_err() {
        return false;
    }
    let mut probe = [0u8; 1];
    let ready = matches!(stream.peek(&mut probe), Ok(n) if n > 0);
    // A socket stuck nonblocking would break the normal read path;
    // treat failure to restore as no-data so the caller falls back to
    // the blocking read and surfaces the error there.
    if stream.set_nonblocking(false).is_err() {
        return false;
    }
    ready
}

/// Serve one connection until clean EOF, protocol error, or shutdown.
fn handle_conn(
    mut stream: TcpStream,
    state: &Arc<Mutex<ServerState>>,
    wal: &Option<Arc<WalShared>>,
    shutdown: &Arc<AtomicBool>,
    timeout: Duration,
    max_frame: u64,
    ingest_group: usize,
) {
    // The listener is nonblocking for the shutdown poll; make sure the
    // accepted socket is not (inheritance is platform-dependent). No
    // Nagle: responses are single frames and latency is the product.
    if stream.set_nonblocking(false).is_err()
        || stream.set_read_timeout(Some(timeout)).is_err()
        || stream.set_nodelay(true).is_err()
    {
        return;
    }
    // A non-ingest frame found by the ingest read-ahead waits here for
    // the next loop turn.
    let mut carried: Option<Request> = None;
    loop {
        let req = match carried.take() {
            Some(r) => r,
            None => {
                let frame = match read_frame(&mut stream, max_frame) {
                    Ok(Some(f)) => f,
                    Ok(None) => return, // clean EOF at a frame boundary
                    Err(e) => {
                        // Best effort: the peer may already be gone.
                        let _ = respond(&mut stream, &err_response(&e));
                        return;
                    }
                };
                match parse(frame) {
                    Ok(r) => r,
                    Err(e) => {
                        let _ = respond(&mut stream, &err_response(&e));
                        // An unparseable frame means we may have lost
                        // framing sync; do not trust the rest of the
                        // stream.
                        return;
                    }
                }
            }
        };
        let draining = shutdown.load(Ordering::SeqCst);
        let resp = match req {
            Request::Ping => Response::Ok("pong".to_string()),
            Request::Stats => {
                let start = Instant::now();
                let mut st = state.lock();
                let mut text = st.store.stats_text();
                if let Some(w) = wal {
                    // Coalescing counters: how many fsyncs the group
                    // commit actually paid for how many records.
                    let b = w.batch_stats();
                    text.push_str(&format!(
                        "\nwal_batches {}\nwal_records {}\nwal_max_batch {}",
                        b.batches, b.records, b.max_batch
                    ));
                }
                st.store.record("stats", start.elapsed().as_micros() as u64);
                Response::Ok(text)
            }
            Request::Query(q) => {
                if draining {
                    err_response(&ServeError::ShuttingDown)
                } else {
                    let start = Instant::now();
                    let mut st = state.lock();
                    let out = handle_query(&mut st.store, &q);
                    st.store.record("query", start.elapsed().as_micros() as u64);
                    match out {
                        Ok(text) => Response::Ok(text),
                        Err(e) => err_response(&e),
                    }
                }
            }
            Request::Ingest { set, seq, bundle } => {
                if draining {
                    err_response(&ServeError::ShuttingDown)
                } else {
                    // Gather the group: this frame plus every INGEST
                    // frame the client has already pipelined onto the
                    // socket, bounded by count and bytes.
                    let mut group_bytes = bundle.len();
                    let mut group = vec![(set, seq, bundle)];
                    let mut followup = Followup::None;
                    while group.len() < ingest_group
                        && group_bytes < GROUP_READ_BYTES
                        && socket_has_data(&stream)
                    {
                        match read_frame(&mut stream, max_frame) {
                            Ok(Some(f)) => match parse(f) {
                                Ok(Request::Ingest { set, seq, bundle }) => {
                                    group_bytes += bundle.len();
                                    group.push((set, seq, bundle));
                                }
                                Ok(other) => {
                                    followup = Followup::Request(other);
                                    break;
                                }
                                Err(e) => {
                                    followup = Followup::Error(e);
                                    break;
                                }
                            },
                            Ok(None) => {
                                followup = Followup::Eof;
                                break;
                            }
                            Err(e) => {
                                followup = Followup::Error(e);
                                break;
                            }
                        }
                    }
                    // Every frame gathered so far was well-formed, so
                    // its ack (or per-item error) goes out in request
                    // order before any read-ahead failure is reported.
                    for resp in ingest_group_responses(state, wal, group) {
                        if respond(&mut stream, &resp).is_err() {
                            return;
                        }
                    }
                    match followup {
                        Followup::None => continue,
                        Followup::Eof => return,
                        Followup::Request(r) => {
                            carried = Some(r);
                            continue;
                        }
                        Followup::Error(e) => {
                            let _ = respond(&mut stream, &err_response(&e));
                            return;
                        }
                    }
                }
            }
            Request::Epoch(set) => {
                // Read path like Query: refused while draining so a
                // router never caches against a dying shard's epoch.
                if draining {
                    err_response(&ServeError::ShuttingDown)
                } else {
                    let start = Instant::now();
                    let mut st = state.lock();
                    let out = st
                        .store
                        .epoch(&set)
                        .ok_or_else(|| ServeError::UnknownSet(set.clone()));
                    st.store.record("epoch", start.elapsed().as_micros() as u64);
                    match out {
                        Ok(e) => Response::Ok(e.to_string()),
                        Err(e) => err_response(&e),
                    }
                }
            }
            Request::Partial(set) => {
                if draining {
                    err_response(&ServeError::ShuttingDown)
                } else {
                    let start = Instant::now();
                    let mut st = state.lock();
                    let out = st.store.partial(&set);
                    st.store.record("partial", start.elapsed().as_micros() as u64);
                    match out {
                        Ok(bytes) => Response::Data(bytes),
                        Err(e) => err_response(&e),
                    }
                }
            }
            Request::Shutdown => {
                shutdown.store(true, Ordering::SeqCst);
                let _ = respond(&mut stream, &Response::Ok("draining".to_string()));
                return;
            }
        };
        if respond(&mut stream, &resp).is_err() {
            return;
        }
    }
}

/// Commit one gathered ingest group and build its in-order responses:
/// decode every bundle outside the state lock, validate/enqueue/apply
/// each under one short critical section, then — with every lock
/// released — wait for the group's covering fsync before any ack is
/// built. One lock acquisition and (with group commit) one fsync for
/// the whole group.
fn ingest_group_responses(
    state: &Arc<Mutex<ServerState>>,
    wal: &Option<Arc<WalShared>>,
    group: Vec<(String, Option<u64>, Bytes)>,
) -> Vec<Response> {
    let start = Instant::now();
    // Decode (full validation) outside the state lock so a big bundle
    // never stalls concurrent queries or sessions.
    let decoded: Vec<Result<StoredBundle, ServeError>> =
        group.iter().map(|(_, _, w)| decode_bundle(w.clone()).map_err(ServeError::Codec)).collect();
    let mut results: Vec<Result<(u64, u64), ServeError>> = Vec::with_capacity(group.len());
    let mut last_ticket = None;
    {
        let mut st = state.lock();
        for ((set, seq, wire), dec) in group.iter().zip(decoded) {
            results.push(match dec {
                Err(e) => Err(e),
                Ok(b) => durable_ingest(&mut st, wal, set, *seq, wire, b, &mut last_ticket),
            });
        }
    }
    // Ack-implies-durable: nothing is acknowledged until the flush
    // covering the group's last ticket (and so every earlier one) has
    // landed. Waiting happens outside every lock, so concurrent
    // sessions keep validating and enqueuing into the next batch.
    if let (Some(w), Some(t)) = (wal.as_ref(), last_ticket) {
        if let Err(e) = w.commit(t) {
            // Applied but not provably durable: refuse the ack. The
            // batcher stays poisoned, so no later ingest can be acked
            // either — restart recovery re-derives the valid prefix.
            for r in results.iter_mut().filter(|r| r.is_ok()) {
                *r = Err(e.clone());
            }
        }
    }
    {
        let mut st = state.lock();
        let per_item = start.elapsed().as_micros() as u64 / group.len().max(1) as u64;
        for _ in 0..group.len() {
            st.store.record("ingest", per_item);
        }
    }
    group
        .iter()
        .zip(results)
        .map(|((set, _, _), r)| match r {
            Ok((seq, epoch)) => Response::Ok(format_ingest_ack(set, seq, epoch)),
            Err(e) => err_response(&e),
        })
        .collect()
}

/// Validate, log, apply — in that order. A refused ingest touches
/// neither the log nor the store; a logged ingest is applied
/// unconditionally (apply cannot fail), so the log never runs ahead of
/// the store. With group commit the log append is an enqueue whose
/// fsync the caller awaits before acking; without it, the record is
/// fsynced right here, strictly before apply.
fn durable_ingest(
    st: &mut ServerState,
    wal: &Option<Arc<WalShared>>,
    set: &str,
    seq: Option<u64>,
    wire: &Bytes,
    bundle: StoredBundle,
    last_ticket: &mut Option<u64>,
) -> Result<(u64, u64), ServeError> {
    let wire_len = wire.len() as u64;
    let ticket = st.store.prepare_ingest(set, seq, wire_len)?;
    match (&mut st.durability, wal) {
        (Some(_), Some(w)) => {
            // Enqueue under the state lock: the log order is exactly
            // the apply order, which replay relies on.
            *last_ticket = Some(w.enqueue(&WalRecord {
                set: set.to_string(),
                mode: ticket.mode,
                seq: ticket.seq,
                wire_bytes: wire_len,
                bundle: wire.clone(),
            }));
        }
        (Some(dur), None) => dur.log_ingest(set, ticket, wire_len, wire)?,
        (None, _) => {}
    }
    let out = st.store.apply_ingest(set, ticket, wire_len, bundle);
    if let Some(dur) = &mut st.durability {
        if let Err(e) = dur.note_applied(&mut st.store) {
            // The ingest is durable in the log (or will be before its
            // ack); a failed snapshot only costs replay time on the
            // next start.
            eprintln!("memgaze-serve: snapshot failed: {e}");
        }
    }
    Ok(out)
}

fn parse((k, body): (u8, dcp_support::bytes::Bytes)) -> Result<Request, ServeError> {
    crate::wire::parse_request(k, body)
}
