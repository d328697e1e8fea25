//! The router: one coherent query surface over N shard daemons.
//!
//! Placement is whole-set: a consistent-hash ring over the set *name*
//! ([`dcp_support::ring::HashRing`]) assigns every profile set to one
//! shard group, and that shard runs the set's entire sequential fold.
//! This is what keeps the distributed reduction tree byte-identical to
//! a single daemon — `cct::merge` is bracket-independent but
//! order-sensitive, so splitting one set's bundle stream across shards
//! would change the merged creation order. The tree simply grows one
//! more level: ranks → shard accumulators → router combiner.
//!
//! Per request:
//!
//! * **Ingest** fans to every replica of the owning shard group
//!   **concurrently** (R-way replication for read availability): each
//!   replica's leg runs on its own scoped thread, so the fan-out costs
//!   one replica round trip, not R. The first definitive response in
//!   fixed replica order is relayed — completion order never changes
//!   the answer; replicas that fail at the transport level are skipped
//!   and counted. Only if *no* replica answers does the client see
//!   [`ServeError::ShardUnreachable`].
//! * **Query** parses with the same [`crate::query::parse_query`] a
//!   daemon uses, resolves each set's owner on the ring, fetches the
//!   sets' epochs (retrying across replicas), and consults a response
//!   cache keyed on the query text plus the vector of shard epochs —
//!   the PR 5 cache, one level up. On a miss it fetches each set's
//!   [`crate::store::SetPartial`], reconstructs the accumulator
//!   (`StoredAccumulator::restore` is proven byte-identical
//!   mid-stream), and renders through the shared
//!   [`crate::query::render_view`] combiner. `sets` fans to every
//!   group and merges the name-sorted rows.
//! * Shard-typed errors (unknown set, duplicate seq, budget…) are
//!   relayed **verbatim at the wire level** — code and message exactly
//!   as the shard sent them. Re-rendering a reconstructed error would
//!   double-wrap its display text and break byte-identity with a
//!   single daemon.
//!
//! Availability posture: a replica that dies mid-conversation surfaces
//! as a transport error, the router retries the surviving replicas,
//! and the response bytes do not change (the failover e2e SIGKILLs a
//! replica mid-storm and compares against an uncrashed golden). A
//! replica that was down for writes is *not* back-filled — re-pushing
//! the stream heals it (duplicate seqs answer `DuplicateSeq`), the
//! same recovery story the durable daemon uses.
//!
//! Sessions: the router runs the daemon's session loop
//! (`session.rs`) with `Core` as its handler. Each session
//! pools one shard connection per replica address, and ingest is never
//! read ahead — every INGEST fans out on its own.

use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dcp_support::ring::HashRing;
use dcp_support::stats::LatencyHistogram;
use dcp_support::sync::Mutex;
use dcp_support::{FxHashMap, LruCache};

use crate::client::Client;
use crate::error::ServeError;
use crate::query::{parse_query, render_view, ParsedQuery, ViewQuery};
use crate::session::{self, err_response, Handler, IngestItem};
use crate::store::{decode_set_partial, CacheKey};
use crate::wire::{Request, Response};

/// Everything tunable about a router instance.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Listen address; use port 0 for an ephemeral port.
    pub addr: String,
    /// Shard groups: `shards[g]` is the replica address list of group
    /// `g`, which owns the ring's shard id `g`.
    pub shards: Vec<Vec<String>>,
    /// Virtual nodes per shard on the placement ring.
    pub vnodes: u32,
    /// Socket read timeout, client-facing and shard-facing.
    pub read_timeout: Duration,
    /// Concurrent session threads.
    pub sessions: usize,
    /// Response-cache bounds (keyed on query + shard epoch vector).
    pub cache_entries: usize,
    pub cache_bytes: usize,
}

impl Default for RouterConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            shards: Vec::new(),
            vnodes: 64,
            read_timeout: Duration::from_secs(10),
            sessions: 4,
            cache_entries: 512,
            cache_bytes: 16 * 1024 * 1024,
        }
    }
}

/// How a routed sub-request failed.
enum RouteError {
    /// A shard answered with a typed error; relay code + message
    /// verbatim so the client sees exactly what a single daemon would
    /// have sent.
    Relay(u16, String),
    /// The router itself failed (shard unreachable, ring mismatch,
    /// partial-merge failure, bad client query).
    Local(ServeError),
}

impl From<ServeError> for RouteError {
    fn from(e: ServeError) -> Self {
        RouteError::Local(e)
    }
}

/// Mutable shared state: the response cache, the per-set reconstruction
/// cache, and latency histograms.
struct Inner {
    cache: LruCache<CacheKey, String>,
    /// Reconstructed set snapshots keyed by name, valid for one shard
    /// epoch: a cold *query* (new text, same data) reuses the previous
    /// reconstruction instead of re-fetching and re-decoding the
    /// partial — the router-side twin of the shard's per-epoch snapshot
    /// cache.
    recon: FxHashMap<String, (u64, Arc<dcp_core::stored::StoredProfiles>)>,
    latency: FxHashMap<&'static str, LatencyHistogram>,
}

/// Everything the session threads share.
struct Core {
    config: RouterConfig,
    ring: HashRing,
    inner: Mutex<Inner>,
    /// Round-robin start cursor for replica selection.
    cursor: AtomicUsize,
    ingests: AtomicU64,
    queries: AtomicU64,
    /// Transport-level replica failures that were retried elsewhere.
    retries: AtomicU64,
    /// Requests that exhausted every replica of a shard.
    shard_unreachable: AtomicU64,
    /// Placement disagreements detected at fan-in.
    ring_mismatch: AtomicU64,
    /// Shard partials that failed to decode or recombine.
    partial_merge: AtomicU64,
    /// Cached reconstructions reused at render time (no decode, no
    /// restore).
    snapshot_reuse: AtomicU64,
    /// Partial fetches skipped outright because the cached
    /// reconstruction already matched the set's epoch.
    partial_reuse: AtomicU64,
    /// Class trees materialized by fresh partial reconstructions — the
    /// work the reconstruction cache exists to avoid.
    dirty_class_rebuilds: AtomicU64,
}

/// Per-session shard connection pool: one cached [`Client`] per replica
/// address, dropped (and re-dialed on next use) after any transport
/// failure.
struct Conns {
    map: FxHashMap<String, Client>,
    timeout: Duration,
}

impl Conns {
    fn call(&mut self, addr: &str, req: &Request) -> Result<Response, ServeError> {
        let (conn, out) = call_replica(self.map.remove(addr), addr, self.timeout, req);
        if let Some(c) = conn {
            self.map.insert(addr.to_string(), c);
        }
        out
    }
}

/// One call to one replica: dial if no pooled connection came along,
/// make the call, and hand a still-healthy connection back for
/// re-pooling (a failed one is dropped — the stream may have lost
/// framing sync and must never be reused).
fn call_replica(
    conn: Option<Client>,
    addr: &str,
    timeout: Duration,
    req: &Request,
) -> (Option<Client>, Result<Response, ServeError>) {
    let mut c = match conn {
        Some(c) => c,
        None => match Client::connect_with_timeout(addr, timeout) {
            Ok(c) => c,
            Err(e) => return (None, Err(e)),
        },
    };
    match c.call_raw(req) {
        Ok(resp) => (Some(c), Ok(resp)),
        Err(e) => (None, Err(e)),
    }
}

impl Core {
    /// Try `req` against the replicas of `group`, starting round-robin
    /// and failing over on transport errors. Any well-formed response —
    /// OK, DATA, or a typed ERR — is definitive and returned.
    fn with_replica(&self, conns: &mut Conns, group: usize, req: &Request) -> Result<Response, RouteError> {
        let replicas = &self.config.shards[group];
        let start = self.cursor.fetch_add(1, Ordering::Relaxed) % replicas.len();
        let mut last = String::new();
        for k in 0..replicas.len() {
            let addr = &replicas[(start + k) % replicas.len()];
            match conns.call(addr, req) {
                Ok(resp) => return Ok(resp),
                Err(e) => {
                    self.retries.fetch_add(1, Ordering::Relaxed);
                    last = format!("{addr}: {e}");
                }
            }
        }
        self.shard_unreachable.fetch_add(1, Ordering::Relaxed);
        Err(RouteError::Local(ServeError::ShardUnreachable(format!(
            "shard {group}: all {} replicas failed; last: {last}",
            replicas.len()
        ))))
    }

    /// Expect OK text from a routed sub-request (epoch, sets).
    fn expect_ok(resp: Response, what: &str, group: usize) -> Result<String, RouteError> {
        match resp {
            Response::Ok(text) => Ok(text),
            Response::Err(code, msg) => Err(RouteError::Relay(code, msg)),
            Response::Data(_) => Err(RouteError::Local(ServeError::PartialMerge(format!(
                "shard {group}: binary response to a {what} request"
            )))),
        }
    }

    /// Fan one ingest to every replica of the owning group
    /// **concurrently** — the write amplification of R-way replication
    /// costs one replica round trip, not R sequential ones. Aggregation
    /// stays in fixed replica order so completion order never changes
    /// the relayed answer: first OK wins; with no OK, the first typed
    /// error is relayed; with neither, the shard is unreachable.
    fn route_ingest(&self, conns: &mut Conns, (set, seq, bundle): IngestItem) -> Result<Response, RouteError> {
        self.ingests.fetch_add(1, Ordering::Relaxed);
        let group = self.ring.owner(set.as_bytes()) as usize;
        let req = &Request::Ingest { set, seq, bundle };
        let replicas = &self.config.shards[group];
        let timeout = conns.timeout;
        // Each replica's pooled connection travels into its thread and
        // comes back to the pool if still healthy.
        let pooled: Vec<Option<Client>> =
            replicas.iter().map(|a| conns.map.remove(a.as_str())).collect();
        let outcomes: Vec<(Option<Client>, Result<Response, ServeError>)> = if replicas.len() == 1
        {
            // A single replica gains nothing from a thread spawn.
            let conn = pooled.into_iter().next().expect("one replica");
            vec![call_replica(conn, &replicas[0], timeout, req)]
        } else {
            std::thread::scope(|s| {
                let handles: Vec<_> = pooled
                    .into_iter()
                    .zip(replicas)
                    .map(|(conn, addr)| s.spawn(move || call_replica(conn, addr, timeout, req)))
                    .collect();
                handles.into_iter().map(|h| h.join().expect("replica thread")).collect()
            })
        };
        let mut first_ok: Option<String> = None;
        let mut first_err: Option<(u16, String)> = None;
        let mut last = String::new();
        for (addr, (conn, outcome)) in replicas.iter().zip(outcomes) {
            if let Some(c) = conn {
                conns.map.insert(addr.clone(), c);
            }
            match outcome {
                Ok(Response::Ok(text)) => {
                    if first_ok.is_none() {
                        first_ok = Some(text);
                    }
                }
                Ok(Response::Err(code, msg)) => {
                    if first_err.is_none() {
                        first_err = Some((code, msg));
                    }
                }
                Ok(Response::Data(_)) => {
                    self.retries.fetch_add(1, Ordering::Relaxed);
                    last = format!("{addr}: binary response to an ingest");
                }
                Err(e) => {
                    self.retries.fetch_add(1, Ordering::Relaxed);
                    last = format!("{addr}: {e}");
                }
            }
        }
        if let Some(text) = first_ok {
            return Ok(Response::Ok(text));
        }
        if let Some((code, msg)) = first_err {
            return Err(RouteError::Relay(code, msg));
        }
        self.shard_unreachable.fetch_add(1, Ordering::Relaxed);
        Err(RouteError::Local(ServeError::ShardUnreachable(format!(
            "shard {group}: all {} replicas failed; last: {last}",
            replicas.len()
        ))))
    }

    /// Fan `sets` to every group and merge the rows. Each shard lists
    /// only the sets it owns; the merged, name-sorted listing is
    /// byte-identical to a single daemon holding every set. A set
    /// listed by a group the ring does not map it to is a typed
    /// [`ServeError::RingMismatch`] — placement drift must never be
    /// papered over.
    fn route_sets(&self, conns: &mut Conns) -> Result<String, RouteError> {
        let req = Request::Query("sets".to_string());
        let mut rows: Vec<(String, String)> = Vec::new();
        for group in 0..self.config.shards.len() {
            let resp = self.with_replica(conns, group, &req)?;
            let text = Self::expect_ok(resp, "sets", group)?;
            let body = text.strip_prefix("PROFILE SETS\n").ok_or_else(|| {
                self.partial_merge.fetch_add(1, Ordering::Relaxed);
                ServeError::PartialMerge(format!("shard {group}: malformed sets listing"))
            })?;
            for line in body.lines() {
                let name = line.split(" bundles=").next().unwrap_or(line).to_string();
                let owner = self.ring.owner(name.as_bytes()) as usize;
                if owner != group {
                    self.ring_mismatch.fetch_add(1, Ordering::Relaxed);
                    return Err(RouteError::Local(ServeError::RingMismatch(format!(
                        "set '{name}' listed by shard {group} but owned by shard {owner}"
                    ))));
                }
                rows.push((name, line.to_string()));
            }
        }
        rows.sort();
        let mut out = String::from("PROFILE SETS\n");
        for (_, line) in rows {
            out.push_str(&line);
            out.push('\n');
        }
        Ok(out)
    }

    /// Scatter-gather one view query: epochs → cache → partials →
    /// reconstruct → the shared combiner.
    fn route_view(&self, conns: &mut Conns, q: &str, view: &ViewQuery) -> Result<String, RouteError> {
        let groups: Vec<usize> =
            view.sets.iter().map(|s| self.ring.owner(s.as_bytes()) as usize).collect();
        // Resolve every set's epoch first: the epoch vector is the
        // cache key, so a warm query never moves partial bytes at all.
        let mut epochs = [0u64; 2];
        for (i, (set, group)) in view.sets.iter().zip(&groups).enumerate() {
            let resp = self.with_replica(conns, *group, &Request::Epoch(set.clone()))?;
            let text = Self::expect_ok(resp, "epoch", *group)?;
            epochs[i] = text.trim().parse().map_err(|_| {
                self.partial_merge.fetch_add(1, Ordering::Relaxed);
                ServeError::PartialMerge(format!(
                    "shard {group}: malformed epoch response {text:?} for set '{set}'"
                ))
            })?;
        }
        let key = CacheKey { query: q.to_string(), epochs };
        if let Some(hit) = self.inner.lock().cache.get(&key).cloned() {
            return Ok(hit);
        }
        // Miss: resolve each set's renderable snapshot. A cached
        // reconstruction at the set's current epoch is reused without
        // moving partial bytes at all; otherwise the partial is fetched
        // and rebuilt. An ingest may race ahead of the epoch fetch; the
        // partial's own epoch is what the response actually reflects, so
        // the cache entry is keyed under it.
        let mut snaps = Vec::with_capacity(view.sets.len());
        for (i, (set, group)) in view.sets.iter().zip(&groups).enumerate() {
            if let Some(snap) = self.reconstructed(set, epochs[i]) {
                self.partial_reuse.fetch_add(1, Ordering::Relaxed);
                self.snapshot_reuse.fetch_add(1, Ordering::Relaxed);
                snaps.push(snap);
                continue;
            }
            let resp = self.with_replica(conns, *group, &Request::Partial(set.clone()))?;
            let bytes = match resp {
                Response::Data(bytes) => bytes,
                Response::Err(code, msg) => return Err(RouteError::Relay(code, msg)),
                Response::Ok(_) => {
                    self.partial_merge.fetch_add(1, Ordering::Relaxed);
                    return Err(RouteError::Local(ServeError::PartialMerge(format!(
                        "shard {group}: text response to a partial request for set '{set}'"
                    ))));
                }
            };
            let partial = decode_set_partial(bytes).map_err(|e| {
                self.partial_merge.fetch_add(1, Ordering::Relaxed);
                ServeError::PartialMerge(format!("set '{set}' from shard {group}: {e}"))
            })?;
            epochs[i] = partial.epoch;
            // A racing session may have reconstructed this epoch while
            // the partial was in flight.
            if let Some(snap) = self.reconstructed(set, partial.epoch) {
                self.snapshot_reuse.fetch_add(1, Ordering::Relaxed);
                snaps.push(snap);
                continue;
            }
            let profiles = partial.reconstruct().map_err(|e| {
                self.partial_merge.fetch_add(1, Ordering::Relaxed);
                ServeError::PartialMerge(format!("set '{set}' from shard {group}: {e}"))
            })?;
            self.dirty_class_rebuilds
                .fetch_add(dcp_core::metrics::CLASSES as u64, Ordering::Relaxed);
            let snap = Arc::new(profiles);
            self.inner
                .lock()
                .recon
                .insert(set.clone(), (partial.epoch, Arc::clone(&snap)));
            snaps.push(snap);
        }
        let response = render_view(&view.plan, &snaps);
        let key = CacheKey { query: q.to_string(), epochs };
        let mut inner = self.inner.lock();
        let cost = key.query.len() + response.len();
        inner.cache.insert(key, response.clone(), cost);
        Ok(response)
    }

    /// The cached reconstruction of `set`, if it is at `epoch`.
    fn reconstructed(&self, set: &str, epoch: u64) -> Option<Arc<dcp_core::stored::StoredProfiles>> {
        let inner = self.inner.lock();
        inner.recon.get(set).filter(|(e, _)| *e == epoch).map(|(_, s)| Arc::clone(s))
    }

    fn route_query(&self, conns: &mut Conns, q: &str) -> Result<String, RouteError> {
        self.queries.fetch_add(1, Ordering::Relaxed);
        match parse_query(q)? {
            ParsedQuery::Sets => self.route_sets(conns),
            ParsedQuery::View(view) => self.route_view(conns, q, &view),
        }
    }

    /// Proxy an epoch or partial request to the owning shard, verbatim
    /// both ways — a router can therefore stand in for a shard, and
    /// smart clients can resolve placement through it.
    fn route_proxy(&self, conns: &mut Conns, set: &str, req: &Request) -> Result<Response, RouteError> {
        let group = self.ring.owner(set.as_bytes()) as usize;
        self.with_replica(conns, group, req)
    }

    /// The router's own stats report. Deterministic ordering, same
    /// shape as the daemon's (`ROUTER STATS` header instead).
    fn stats_text(&self) -> String {
        let mut out = String::from("ROUTER STATS\n");
        out.push_str(&format!("shards {}\n", self.config.shards.len()));
        let replicas: Vec<String> =
            self.config.shards.iter().map(|g| g.len().to_string()).collect();
        out.push_str(&format!("replicas {}\n", replicas.join(",")));
        out.push_str(&format!("ring_vnodes {}\n", self.ring.vnodes()));
        out.push_str(&format!("ring_points {}\n", self.ring.point_count()));
        out.push_str(&format!("ingests {}\n", self.ingests.load(Ordering::Relaxed)));
        out.push_str(&format!("queries {}\n", self.queries.load(Ordering::Relaxed)));
        out.push_str(&format!("retries {}\n", self.retries.load(Ordering::Relaxed)));
        out.push_str(&format!(
            "shard_unreachable {}\n",
            self.shard_unreachable.load(Ordering::Relaxed)
        ));
        out.push_str(&format!("ring_mismatch {}\n", self.ring_mismatch.load(Ordering::Relaxed)));
        out.push_str(&format!("partial_merge {}\n", self.partial_merge.load(Ordering::Relaxed)));
        out.push_str(&format!("snapshot_reuse {}\n", self.snapshot_reuse.load(Ordering::Relaxed)));
        out.push_str(&format!("partial_reuse {}\n", self.partial_reuse.load(Ordering::Relaxed)));
        out.push_str(&format!(
            "dirty_class_rebuilds {}\n",
            self.dirty_class_rebuilds.load(Ordering::Relaxed)
        ));
        let inner = self.inner.lock();
        out.push_str(&format!(
            "cache_hits {}\ncache_misses {}\ncache_hit_rate {:.3}\ncache_entries {}\ncache_bytes {}\n",
            inner.cache.hits(),
            inner.cache.misses(),
            inner.cache.hit_rate(),
            inner.cache.len(),
            inner.cache.bytes()
        ));
        let mut kinds: Vec<&&'static str> = inner.latency.keys().collect();
        kinds.sort();
        for k in kinds {
            out.push_str(&format!("latency_us[{k}] {}\n", inner.latency[*k].render()));
        }
        for (g, group) in self.config.shards.iter().enumerate() {
            out.push_str(&format!("shard[{g}] replicas={} {}\n", group.len(), group.join(",")));
        }
        out
    }

    fn record(&self, kind: &'static str, micros: u64) {
        self.inner.lock().latency.entry(kind).or_default().record(micros);
    }
}

/// A bound, not-yet-serving router. `bind` then `local_addr` then
/// `serve` (which blocks until a SHUTDOWN frame arrives). Shutting the
/// router down drains only the router; shard daemons keep serving.
pub struct Router {
    listener: TcpListener,
    core: Arc<Core>,
    shutdown: Arc<AtomicBool>,
}

impl Router {
    /// Validate the topology and bind the listener. An invalid ring
    /// configuration is a typed [`ServeError::RingMismatch`]: a router
    /// that started with a broken topology would misplace every set.
    pub fn bind(config: RouterConfig) -> Result<Self, ServeError> {
        if config.shards.is_empty() {
            return Err(ServeError::RingMismatch("router needs at least one shard group".into()));
        }
        let mut seen = std::collections::BTreeSet::new();
        for (g, group) in config.shards.iter().enumerate() {
            if group.is_empty() {
                return Err(ServeError::RingMismatch(format!("shard group {g} has no replicas")));
            }
            for addr in group {
                if !seen.insert(addr.clone()) {
                    return Err(ServeError::RingMismatch(format!(
                        "replica address {addr} appears twice in the topology"
                    )));
                }
            }
        }
        if config.vnodes == 0 {
            return Err(ServeError::RingMismatch("ring needs at least one virtual node".into()));
        }
        let listener = TcpListener::bind(&config.addr)?;
        let ring = HashRing::new(config.shards.len() as u32, config.vnodes);
        let cache = LruCache::new(config.cache_entries, config.cache_bytes);
        let core = Core {
            config,
            ring,
            inner: Mutex::new(Inner {
                cache,
                recon: FxHashMap::default(),
                latency: FxHashMap::default(),
            }),
            cursor: AtomicUsize::new(0),
            ingests: AtomicU64::new(0),
            queries: AtomicU64::new(0),
            retries: AtomicU64::new(0),
            shard_unreachable: AtomicU64::new(0),
            ring_mismatch: AtomicU64::new(0),
            partial_merge: AtomicU64::new(0),
            snapshot_reuse: AtomicU64::new(0),
            partial_reuse: AtomicU64::new(0),
            dirty_class_rebuilds: AtomicU64::new(0),
        };
        Ok(Self {
            listener,
            core: Arc::new(core),
            shutdown: Arc::new(AtomicBool::new(false)),
        })
    }

    /// The actually-bound address (resolves port 0).
    pub fn local_addr(&self) -> Result<String, ServeError> {
        Ok(self.listener.local_addr()?.to_string())
    }

    /// A handle that flips the drain flag from another thread.
    pub fn shutdown_handle(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.shutdown)
    }

    /// The shard group the ring assigns `set` to (tests and tooling).
    pub fn owner_of(&self, set: &str) -> usize {
        self.core.ring.owner(set.as_bytes()) as usize
    }

    /// Accept and serve until shutdown, then drain, through the same
    /// session loop as [`crate::server::Server::serve`].
    pub fn serve(self) -> Result<(), ServeError> {
        let (sessions, timeout) = (self.core.config.sessions, self.core.config.read_timeout);
        session::serve(&self.listener, &self.core, sessions, timeout, &self.shutdown)
    }
}

fn route_err(e: RouteError) -> Response {
    match e {
        RouteError::Relay(code, msg) => Response::Err(code, msg),
        RouteError::Local(e) => err_response(&e),
    }
}

/// Shard connections are pooled per session and re-dialed lazily after
/// any transport failure. Ingest is never read ahead: each one fans out
/// on its own.
impl Handler for Core {
    type Session = Conns;

    fn session(&self) -> Conns {
        Conns { map: FxHashMap::default(), timeout: self.config.read_timeout }
    }

    fn ingest_group(&self) -> usize {
        1
    }

    fn ingest(&self, conns: &mut Conns, group: Vec<IngestItem>) -> Vec<Response> {
        group
            .into_iter()
            .map(|item| {
                let start = Instant::now();
                let out = self.route_ingest(conns, item);
                self.record("ingest", start.elapsed().as_micros() as u64);
                out.unwrap_or_else(route_err)
            })
            .collect()
    }

    fn request(&self, conns: &mut Conns, req: Request) -> Response {
        let start = Instant::now();
        let (kind, out) = match &req {
            Request::Stats => ("stats", Ok(Response::Ok(self.stats_text()))),
            Request::Query(q) => ("query", self.route_query(conns, q).map(Response::Ok)),
            Request::Epoch(set) | Request::Partial(set) => {
                ("proxy", self.route_proxy(conns, set, &req))
            }
            other => unreachable!("the session loop answers {other:?} itself"),
        };
        self.record(kind, start.elapsed().as_micros() as u64);
        out.unwrap_or_else(route_err)
    }
}
