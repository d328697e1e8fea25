//! The daemon: the shared session loop (`session.rs`) over one
//! profile store.
//!
//! No request path uses the compute pool: a snapshot fold streams the
//! pending blobs through `merge_encoded` on the session's own thread.
//! The shared state sits behind a poison-recovering
//! [`dcp_support::sync::Mutex`]: a panicking session must not take the
//! whole daemon down with it (with a poisoning lock, every later session
//! dies on the poison while the accept loop keeps queueing sockets
//! nobody will drain — the loopback regression test pins the recovery).
//! Each STATS, QUERY, EPOCH or PARTIAL request takes that lock once.
//! After the drain, [`Server::serve`] folds a durable store into a
//! snapshot so the next start replays nothing.
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

use std::net::TcpListener;
use std::path::PathBuf;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::{Duration, Instant};

use dcp_core::stored::{decode_bundle, StoredBundle};
use dcp_support::bytes::Bytes;
use dcp_support::sync::Mutex;

use crate::error::ServeError;
use crate::query::handle_query;
use crate::session::{self, err_response, Handler, IngestItem};
use crate::store::{ProfileStore, StoreConfig};
use crate::wal::{Durability, WalRecord, WalShared};
use crate::wire::{format_ingest_ack, Request, Response};

/// Everything tunable about a daemon instance.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Listen address; use port 0 for an ephemeral port.
    pub addr: String,
    /// Store byte budget (see [`StoreConfig`]).
    pub byte_budget: u64,
    /// Per-set reorder-buffer byte cap (see [`StoreConfig`]).
    pub pending_cap: u64,
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
    /// pushes), within an 8 MiB cap on the group's bytes. 1 disables
    /// socket batching.
    pub ingest_group: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        let store = StoreConfig::default();
        Self {
            addr: "127.0.0.1:0".to_string(),
            byte_budget: store.byte_budget,
            pending_cap: store.pending_cap,
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
    daemon: Arc<Daemon>,
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
        let daemon = Daemon {
            state: Arc::new(Mutex::new(ServerState { store, durability })),
            wal,
            ingest_group: config.ingest_group,
        };
        Ok(Self {
            listener,
            config,
            daemon: Arc::new(daemon),
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
        Arc::clone(&self.daemon.state)
    }

    /// Accept and serve until shutdown, then drain. Blocks the calling
    /// thread for the daemon's whole life.
    pub fn serve(self) -> Result<(), ServeError> {
        let served = session::serve(
            &self.listener,
            &self.daemon,
            self.config.sessions,
            self.config.read_timeout,
            &self.shutdown,
        );
        // Clean shutdown: fold the store into a snapshot so the next
        // start replays nothing. Best effort — the log already has
        // everything, so a failure here costs restart time, not data.
        let mut st = self.daemon.state.lock();
        let ServerState { store, durability } = &mut *st;
        if let Some(dur) = durability {
            if let Err(e) = dur.snapshot_now(store) {
                eprintln!("memgaze-serve: shutdown snapshot failed: {e}");
            }
        }
        served
    }
}

/// What the daemon's sessions share: the state and, with group commit,
/// the WAL batcher they commit through.
struct Daemon {
    state: Arc<Mutex<ServerState>>,
    /// `None` when serving from memory or when `group_commit` is off.
    wal: Option<Arc<WalShared>>,
    ingest_group: usize,
}

impl Handler for Daemon {
    type Session = ();

    fn session(&self) {}

    fn ingest_group(&self) -> usize {
        self.ingest_group
    }

    /// Commit one gathered ingest group and build its in-order
    /// responses: decode every bundle outside the state lock,
    /// validate/enqueue/apply each under one short critical section,
    /// then — with every lock released — wait for the group's covering
    /// fsync before any ack is built. One lock acquisition and (with
    /// group commit) one fsync for the whole group.
    fn ingest(&self, _: &mut (), group: Vec<IngestItem>) -> Vec<Response> {
        let start = Instant::now();
        // Decode (full validation) outside the state lock so a big
        // bundle never stalls concurrent queries or sessions.
        let decoded: Vec<Result<StoredBundle, ServeError>> = group
            .iter()
            .map(|(_, _, w)| decode_bundle(w.clone()).map_err(ServeError::Codec))
            .collect();
        let mut results: Vec<Result<(u64, u64), ServeError>> = Vec::with_capacity(group.len());
        let mut last_ticket = None;
        {
            let mut st = self.state.lock();
            for ((set, seq, wire), dec) in group.iter().zip(decoded) {
                results.push(match dec {
                    Err(e) => Err(e),
                    Ok(b) => self.durable_ingest(&mut st, set, *seq, wire, b, &mut last_ticket),
                });
            }
        }
        // Ack-implies-durable: nothing is acknowledged until the flush
        // covering the group's last ticket (and so every earlier one)
        // has landed. Waiting happens outside every lock, so concurrent
        // sessions keep validating and enqueuing into the next batch.
        if let (Some(w), Some(t)) = (self.wal.as_ref(), last_ticket) {
            if let Err(e) = w.commit(t) {
                // Applied but not provably durable: refuse the ack. The
                // batcher stays poisoned, so no later ingest can be
                // acked either — restart recovery re-derives the valid
                // prefix.
                for r in results.iter_mut().filter(|r| r.is_ok()) {
                    *r = Err(e.clone());
                }
            }
        }
        {
            let mut st = self.state.lock();
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

    /// One state-lock acquisition per request, latency recorded under
    /// the request's kind while the lock is held.
    fn request(&self, _: &mut (), req: Request) -> Response {
        let start = Instant::now();
        let mut st = self.state.lock();
        let (kind, out) = match req {
            Request::Stats => {
                let mut text = st.store.stats_text();
                if let Some(w) = &self.wal {
                    // Coalescing counters: how many fsyncs the group
                    // commit actually paid for how many records.
                    let b = w.batch_stats();
                    text.push_str(&format!(
                        "\nwal_batches {}\nwal_records {}\nwal_max_batch {}",
                        b.batches, b.records, b.max_batch
                    ));
                }
                ("stats", Ok(Response::Ok(text)))
            }
            Request::Query(q) => ("query", handle_query(&mut st.store, &q).map(Response::Ok)),
            Request::Epoch(set) => (
                "epoch",
                st.store
                    .epoch(&set)
                    .map(|e| Response::Ok(e.to_string()))
                    .ok_or(ServeError::UnknownSet(set)),
            ),
            Request::Partial(set) => ("partial", st.store.partial(&set).map(Response::Data)),
            other => unreachable!("the session loop answers {other:?} itself"),
        };
        st.store.record(kind, start.elapsed().as_micros() as u64);
        out.unwrap_or_else(|e| err_response(&e))
    }
}

impl Daemon {
    /// Validate, log, apply — in that order. A refused ingest touches
    /// neither the log nor the store; a logged ingest is applied
    /// unconditionally (apply cannot fail), so the log never runs ahead
    /// of the store. With group commit the log append is an enqueue
    /// whose fsync the caller awaits before acking; without it, the
    /// record is fsynced right here, strictly before apply.
    fn durable_ingest(
        &self,
        st: &mut ServerState,
        set: &str,
        seq: Option<u64>,
        wire: &Bytes,
        bundle: StoredBundle,
        last_ticket: &mut Option<u64>,
    ) -> Result<(u64, u64), ServeError> {
        let wire_len = wire.len() as u64;
        let ticket = st.store.prepare_ingest(set, seq, wire_len)?;
        match (&mut st.durability, &self.wal) {
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
                // The ingest is durable in the log (or will be before
                // its ack); a failed snapshot only costs replay time on
                // the next start.
                eprintln!("memgaze-serve: snapshot failed: {e}");
            }
        }
        Ok(out)
    }
}
