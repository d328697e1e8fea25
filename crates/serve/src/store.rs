//! The profile store: named sets with incremental ingest, a byte
//! budget, epochs, and the response cache.
//!
//! Each named set wraps a [`StoredAccumulator`] plus a reorder buffer.
//! A set commits to one **sequencing discipline** on its first ingest:
//! *client-assigned* sequence numbers (the store commits only the
//! contiguous sequence prefix, buffering gaps, so a fixed (set, seq)
//! assignment produces the same merged bytes no matter how the network
//! interleaves connections) or *arrival order* (every ingest is
//! assigned the next commit slot and commits immediately — an
//! arrival-order ingest can never be stranded behind a gap). Mixing the
//! two in one set is a typed error: assigning arrival-order bundles a
//! slot behind someone else's gap would silently withhold them from
//! every query, which is exactly the bug this rule removed.
//!
//! The reorder buffer is bounded: out-of-order bytes held for an unfilled
//! gap are capped per set (`pending_cap`), refunded as the gap fills, and
//! reported in `stats_text` — one stalled client cannot hold budget
//! hostage forever.
//!
//! Every committed ingest advances the set's **epoch**. Query responses
//! are cached keyed by `(query, epoch)`; an ingest therefore never
//! serves a stale response — superseded entries simply age out of the
//! LRU. A byte budget bounds the store: an ingest that would exceed it
//! is rejected with a typed error before any state changes.
//!
//! Ingest is split into [`prepare_ingest`](ProfileStore::prepare_ingest)
//! (every check, no mutation) and
//! [`apply_ingest`](ProfileStore::apply_ingest) (mutation, infallible)
//! so the durability layer in [`crate::wal`] can slot the write-ahead
//! append between them. Under group commit that "append" is an enqueue
//! into the shared WAL batcher: validate, enqueue, mutate — and the ack
//! waits outside the store lock for the batched fsync that covers the
//! record. A prepared-and-applied ingest may therefore be briefly
//! visible to queries before it is durable, but it is never *acked*
//! first, which is the exact contract the kill-anywhere differential
//! checks (an unacked ingest is allowed to vanish in a crash; an acked
//! one never does). With group commit off, the strict validate → fsync
//! → mutate ordering is preserved.

use std::collections::BTreeMap;
use std::sync::Arc;

use dcp_cct::codec::{get_slice, get_varint, put_varint};
use dcp_cct::CodecError;
use dcp_core::stored::{
    decode_bundle, encode_bundle, StoredAccumulator, StoredBundle, StoredProfiles,
};
use dcp_support::bytes::{Bytes, BytesMut};
use dcp_support::stats::LatencyHistogram;
use dcp_support::{FxHashMap, LruCache};

use crate::error::ServeError;

/// Store sizing.
#[derive(Debug, Clone)]
pub struct StoreConfig {
    /// Cap on total ingested bundle bytes across all sets.
    pub byte_budget: u64,
    /// Cap on out-of-order bytes buffered per set awaiting a gap fill.
    pub pending_cap: u64,
    /// Response cache entry cap.
    pub cache_entries: usize,
    /// Response cache byte cap.
    pub cache_bytes: usize,
}

impl Default for StoreConfig {
    fn default() -> Self {
        Self {
            byte_budget: 256 * 1024 * 1024,
            pending_cap: 64 * 1024 * 1024,
            cache_entries: 512,
            cache_bytes: 16 * 1024 * 1024,
        }
    }
}

/// Cache key: the query text plus the epoch of each profile set it
/// reads (0 for unused slots). A new epoch keys new entries; old ones
/// can never hit again and age out of the LRU.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CacheKey {
    pub query: String,
    pub epochs: [u64; 2],
}

/// The sequencing discipline a set committed to on first ingest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IngestMode {
    /// Server assigns the next commit slot; commits immediately.
    Arrival,
    /// Client assigns sequence numbers; gaps buffer.
    Explicit,
}

/// A validated-but-not-applied ingest: the resolved commit slot and the
/// discipline it was resolved under. Produced by
/// [`ProfileStore::prepare_ingest`], consumed by
/// [`ProfileStore::apply_ingest`]; the WAL logs exactly these fields so
/// replay re-applies the same slot deterministically.
#[derive(Debug, Clone, Copy)]
pub struct IngestTicket {
    pub mode: IngestMode,
    pub seq: u64,
}

struct ProfileSet {
    acc: StoredAccumulator,
    /// Out-of-order bundles (with their charged wire bytes) waiting for
    /// the sequence gap to fill.
    pending: BTreeMap<u64, (StoredBundle, u64)>,
    /// Sum of the wire bytes currently held in `pending`.
    pending_bytes: u64,
    /// Next sequence number to commit.
    next_seq: u64,
    epoch: u64,
    mode: IngestMode,
    snapshot: Option<Arc<StoredProfiles>>,
    /// Encoded [`SetPartial`] for the current epoch (router scatter-
    /// gather); invalidated together with `snapshot` on every commit.
    partial: Option<Bytes>,
}

impl ProfileSet {
    fn new(mode: IngestMode) -> Self {
        Self {
            acc: StoredAccumulator::new(),
            pending: BTreeMap::new(),
            pending_bytes: 0,
            next_seq: 0,
            epoch: 0,
            mode,
            snapshot: None,
            partial: None,
        }
    }
}

/// One row of [`ProfileStore::list_sets`].
pub struct SetRow {
    pub name: String,
    pub bundles: u64,
    pub epoch: u64,
    pub gap: usize,
    pub gap_bytes: u64,
}

/// Everything the durability layer persists about one set: identity,
/// sequencing state, the folded accumulator re-encoded as one bundle,
/// and the raw reorder buffer.
pub struct SetDump {
    pub name: String,
    pub mode: IngestMode,
    pub next_seq: u64,
    pub epoch: u64,
    pub bundles: u64,
    pub blob_bytes: u64,
    pub state: Bytes,
    /// `(seq, wire_bytes, encoded bundle)` for every buffered entry.
    pub pending: Vec<(u64, u64, Bytes)>,
}

/// A shard-local partial result: one set's committed accumulator state
/// re-encoded as a single bundle, plus the counters needed to resume
/// the merge elsewhere. This is what a `PARTIAL` frame carries from a
/// shard to the router, which reconstructs the accumulator with
/// [`StoredAccumulator::restore`] and renders through the same view
/// code as a single daemon — `to_bundle`/`restore` is proven
/// byte-identical mid-stream, so the distributed reduction tree
/// (ranks → shard accumulators → router) answers with the exact bytes
/// a single instance would.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SetPartial {
    /// The commit epoch this partial reflects (router cache keying).
    pub epoch: u64,
    /// Bundles folded into `state` so far.
    pub bundles: u64,
    /// Sum of profile blob bytes folded in (capacity pre-sizing).
    pub blob_bytes: u64,
    /// The folded accumulator as one encoded DCPB bundle.
    pub state: Bytes,
}

/// Magic for the encoded [`SetPartial`] payload: "DCPP".
pub const PARTIAL_MAGIC: [u8; 4] = *b"DCPP";

/// Checksum over an encoded partial (everything in front of the
/// trailing checksum itself): partials cross the network between two
/// trusting processes, and a flipped bit inside the state bundle could
/// otherwise decode as a *different valid bundle* — a wrong-but-OK
/// response, the one failure mode byte-identity cannot tolerate.
fn partial_checksum(prefix: &[u8]) -> u64 {
    use std::hash::Hasher as _;
    let mut h = dcp_support::FxHasher::default();
    h.write(prefix);
    h.finish()
}

/// Serialize a [`SetPartial`] for a `DATA` response frame.
pub fn encode_set_partial(p: &SetPartial) -> Bytes {
    let mut buf = BytesMut::new();
    buf.put_slice(&PARTIAL_MAGIC);
    put_varint(&mut buf, p.epoch);
    put_varint(&mut buf, p.bundles);
    put_varint(&mut buf, p.blob_bytes);
    put_varint(&mut buf, p.state.len() as u64);
    buf.put_slice(&p.state);
    let prefix = buf.freeze();
    let sum = partial_checksum(prefix.as_slice());
    let mut framed = BytesMut::with_capacity(prefix.len() + 8);
    framed.put_slice(prefix.as_slice());
    framed.put_slice(&sum.to_be_bytes());
    framed.freeze()
}

/// Decode a [`SetPartial`] payload defensively: bad magic, truncation,
/// trailing garbage, and any checksum mismatch are typed errors, never
/// panics — routed frames go through the same robustness grind as the
/// rest of the protocol, and the checksum turns *every* in-flight bit
/// flip into a typed [`ServeError::PartialMerge`].
pub fn decode_set_partial(body: Bytes) -> Result<SetPartial, ServeError> {
    if body.len() < 8 {
        return Err(ServeError::Truncated);
    }
    let (prefix, tail) = body.as_slice().split_at(body.len() - 8);
    let expect = u64::from_be_bytes(tail.try_into().expect("8-byte tail"));
    if partial_checksum(prefix) != expect {
        return Err(ServeError::PartialMerge(format!(
            "checksum mismatch over {} payload bytes",
            prefix.len()
        )));
    }
    let mut body = body.slice(0..body.len() - 8);
    let magic = get_slice(&mut body, 4).map_err(|_| ServeError::Truncated)?;
    if magic.as_slice() != PARTIAL_MAGIC {
        return Err(ServeError::Codec(CodecError::BadMagic));
    }
    let field = |e: CodecError| match e {
        CodecError::Truncated => ServeError::Truncated,
        other => ServeError::Codec(other),
    };
    let epoch = get_varint(&mut body).map_err(field)?;
    let bundles = get_varint(&mut body).map_err(field)?;
    let blob_bytes = get_varint(&mut body).map_err(field)?;
    let state_len = get_varint(&mut body).map_err(field)?;
    if state_len > body.remaining() as u64 {
        return Err(ServeError::Truncated);
    }
    let state = get_slice(&mut body, state_len as usize).map_err(field)?;
    if body.has_remaining() {
        return Err(ServeError::Codec(CodecError::BadCount(body.remaining() as u64)));
    }
    Ok(SetPartial { epoch, bundles, blob_bytes, state })
}

impl SetPartial {
    /// Reconstruct the renderable profiles this partial describes. The
    /// state bundle is re-validated end to end (`decode_bundle` rejects
    /// anything malformed), so a corrupt partial can never produce a
    /// wrong-but-OK response — it fails typed here.
    pub fn reconstruct(&self) -> Result<StoredProfiles, ServeError> {
        let bundle = decode_bundle(self.state.clone())?;
        let mut acc = StoredAccumulator::restore(bundle, self.bundles, self.blob_bytes);
        Ok(acc.snapshot()?)
    }
}

/// The whole server state behind one lock: sets, cache, counters.
pub struct ProfileStore {
    config: StoreConfig,
    sets: FxHashMap<String, ProfileSet>,
    cache: LruCache<CacheKey, String>,
    bytes_stored: u64,
    ingests: u64,
    queries: u64,
    /// Snapshot requests answered from the per-epoch cache (no fold, no
    /// tree handout — a pure Arc bump).
    snapshot_reuse: u64,
    /// Partial fetches answered from the per-epoch encoded cache.
    partial_reuse: u64,
    latency: FxHashMap<&'static str, LatencyHistogram>,
}

impl ProfileStore {
    pub fn new(config: StoreConfig) -> Self {
        let cache = LruCache::new(config.cache_entries, config.cache_bytes);
        Self {
            config,
            sets: FxHashMap::default(),
            cache,
            bytes_stored: 0,
            ingests: 0,
            queries: 0,
            snapshot_reuse: 0,
            partial_reuse: 0,
            latency: FxHashMap::default(),
        }
    }

    /// Validate one ingest without mutating anything: budget, sequencing
    /// discipline, duplicate slot, reorder-buffer cap. On success the
    /// returned ticket pins the commit slot this ingest will take.
    pub fn prepare_ingest(
        &self,
        set: &str,
        seq: Option<u64>,
        wire_bytes: u64,
    ) -> Result<IngestTicket, ServeError> {
        if self.bytes_stored.saturating_add(wire_bytes) > self.config.byte_budget {
            return Err(ServeError::BudgetExceeded {
                budget: self.config.byte_budget,
                stored: self.bytes_stored,
                requested: wire_bytes,
            });
        }
        let mode = match seq {
            Some(_) => IngestMode::Explicit,
            None => IngestMode::Arrival,
        };
        let (next_seq, pending_bytes, buffered_dup) = match self.sets.get(set) {
            Some(entry) => {
                if entry.mode != mode {
                    return Err(ServeError::SeqModeMismatch {
                        set: set.to_string(),
                        explicit: entry.mode == IngestMode::Explicit,
                    });
                }
                let dup = seq.is_some_and(|s| entry.pending.contains_key(&s));
                (entry.next_seq, entry.pending_bytes, dup)
            }
            None => (0, 0, false),
        };
        // Arrival order takes the next commit slot — always gap-free, so
        // it commits immediately and can never be stranded behind an
        // out-of-order buffer someone else left open.
        let resolved = match seq {
            Some(s) => {
                if s < next_seq || buffered_dup {
                    return Err(ServeError::DuplicateSeq(s));
                }
                s
            }
            None => next_seq,
        };
        if resolved > next_seq
            && pending_bytes.saturating_add(wire_bytes) > self.config.pending_cap
        {
            return Err(ServeError::PendingCapExceeded {
                cap: self.config.pending_cap,
                pending: pending_bytes,
                requested: wire_bytes,
            });
        }
        Ok(IngestTicket { mode, seq: resolved })
    }

    /// Apply a prepared ingest. Infallible by construction — everything
    /// that can be refused was refused in `prepare_ingest`. Returns the
    /// committed-or-buffered sequence number and the set's epoch after
    /// the ingest.
    pub fn apply_ingest(
        &mut self,
        set: &str,
        ticket: IngestTicket,
        wire_bytes: u64,
        bundle: StoredBundle,
    ) -> (u64, u64) {
        let entry = self
            .sets
            .entry(set.to_string())
            .or_insert_with(|| ProfileSet::new(ticket.mode));
        entry.pending.insert(ticket.seq, (bundle, wire_bytes));
        entry.pending_bytes += wire_bytes;
        // Commit the contiguous prefix in sequence order — the only
        // order that ever reaches the accumulator. Committed entries
        // refund their reorder-buffer charge.
        while let Some((b, w)) = entry.pending.remove(&entry.next_seq) {
            entry.pending_bytes -= w;
            entry.acc.ingest(b);
            entry.next_seq += 1;
            entry.epoch += 1;
            entry.snapshot = None;
            entry.partial = None;
        }
        self.bytes_stored += wire_bytes;
        self.ingests += 1;
        (ticket.seq, entry.epoch)
    }

    /// Add one decoded bundle to `set`. `wire_bytes` is the encoded
    /// bundle size, charged against the byte budget. Returns the
    /// committed-or-buffered sequence number and the set's epoch after
    /// the ingest.
    pub fn ingest(
        &mut self,
        set: &str,
        seq: Option<u64>,
        wire_bytes: u64,
        bundle: StoredBundle,
    ) -> Result<(u64, u64), ServeError> {
        let ticket = self.prepare_ingest(set, seq, wire_bytes)?;
        Ok(self.apply_ingest(set, ticket, wire_bytes, bundle))
    }

    /// Re-apply one write-ahead-log record during recovery. Records the
    /// snapshot already covers (slot below the commit watermark, or
    /// sitting in the restored reorder buffer) are skipped — that makes
    /// replay idempotent across the snapshot/truncate crash window.
    /// Returns whether the record was applied. Budget and cap checks are
    /// deliberately absent: the record was accepted once.
    pub fn replay_ingest(
        &mut self,
        set: &str,
        mode: IngestMode,
        seq: u64,
        wire_bytes: u64,
        bundle: StoredBundle,
    ) -> Result<bool, ServeError> {
        let entry = self.sets.entry(set.to_string()).or_insert_with(|| ProfileSet::new(mode));
        if entry.mode != mode {
            return Err(ServeError::SeqModeMismatch {
                set: set.to_string(),
                explicit: entry.mode == IngestMode::Explicit,
            });
        }
        if seq < entry.next_seq || entry.pending.contains_key(&seq) {
            return Ok(false);
        }
        self.apply_ingest(set, IngestTicket { mode, seq }, wire_bytes, bundle);
        Ok(true)
    }

    /// Recreate one set from a durable snapshot record.
    #[allow(clippy::too_many_arguments)]
    pub fn restore_set(
        &mut self,
        name: String,
        mode: IngestMode,
        next_seq: u64,
        epoch: u64,
        bundles: u64,
        blob_bytes: u64,
        state: StoredBundle,
        pending: Vec<(u64, u64, StoredBundle)>,
    ) {
        let mut set = ProfileSet::new(mode);
        set.acc = StoredAccumulator::restore(state, bundles, blob_bytes);
        set.next_seq = next_seq;
        set.epoch = epoch;
        for (seq, wire, bundle) in pending {
            set.pending_bytes += wire;
            set.pending.insert(seq, (bundle, wire));
        }
        self.sets.insert(name, set);
    }

    /// Restore the store-wide counters a snapshot carries.
    pub fn restore_counters(&mut self, bytes_stored: u64, ingests: u64) {
        self.bytes_stored = bytes_stored;
        self.ingests = ingests;
    }

    /// Fold every set and dump the durable state of the whole store,
    /// sorted by name. The heavy part (the per-class fold + re-encode)
    /// is the price of truncating the log.
    pub fn dump_sets(&mut self) -> Result<Vec<SetDump>, ServeError> {
        let mut out = Vec::with_capacity(self.sets.len());
        let mut names: Vec<String> = self.sets.keys().cloned().collect();
        names.sort();
        for name in names {
            let entry = self.sets.get_mut(&name).expect("listed name");
            // The incremental splice is pinned byte-identical to the full
            // re-encode, so durable snapshots ride the cache too.
            let state = entry.acc.encode_state()?;
            let pending = entry
                .pending
                .iter()
                .map(|(&seq, (b, w))| (seq, *w, encode_bundle(b)))
                .collect();
            out.push(SetDump {
                name,
                mode: entry.mode,
                next_seq: entry.next_seq,
                epoch: entry.epoch,
                bundles: entry.acc.bundles(),
                blob_bytes: entry.acc.blob_bytes(),
                state,
                pending,
            });
        }
        Ok(out)
    }

    /// The set's current epoch (0 if it does not exist — the empty set
    /// is served as epoch 0 rather than an error on the query path that
    /// wants it; resolution of unknown names is the query layer's call).
    pub fn epoch(&self, set: &str) -> Option<u64> {
        self.sets.get(set).map(|s| s.epoch)
    }

    /// A renderable snapshot of `set` at its current epoch. Snapshots
    /// are cached per epoch; a cold epoch folds only the classes the
    /// commits actually touched and hands out shared trees for the rest.
    pub fn snapshot(&mut self, set: &str) -> Result<Arc<StoredProfiles>, ServeError> {
        let entry = self
            .sets
            .get_mut(set)
            .ok_or_else(|| ServeError::UnknownSet(set.to_string()))?;
        if let Some(s) = &entry.snapshot {
            self.snapshot_reuse += 1;
            return Ok(Arc::clone(s));
        }
        // Bundles were validated at decode time, so a fold error here is
        // unreachable in practice; surface it typed anyway.
        let snap = Arc::new(entry.acc.snapshot()?);
        entry.snapshot = Some(Arc::clone(&snap));
        Ok(snap)
    }

    /// The named set's shard-local partial, encoded for a `DATA` frame.
    /// Cached per epoch alongside the snapshot; a cold epoch re-encodes
    /// only the dirty classes and splices cached bytes for the rest.
    pub fn partial(&mut self, set: &str) -> Result<Bytes, ServeError> {
        let entry = self
            .sets
            .get_mut(set)
            .ok_or_else(|| ServeError::UnknownSet(set.to_string()))?;
        if let Some(p) = &entry.partial {
            self.partial_reuse += 1;
            return Ok(p.clone());
        }
        let state = entry.acc.encode_state()?;
        let encoded = encode_set_partial(&SetPartial {
            epoch: entry.epoch,
            bundles: entry.acc.bundles(),
            blob_bytes: entry.acc.blob_bytes(),
            state,
        });
        entry.partial = Some(encoded.clone());
        Ok(encoded)
    }

    /// Sorted per-set rows for the `sets` query and the stats report.
    pub fn list_sets(&self) -> Vec<SetRow> {
        let mut rows: Vec<SetRow> = self
            .sets
            .iter()
            .map(|(n, s)| SetRow {
                name: n.clone(),
                bundles: s.acc.bundles(),
                epoch: s.epoch,
                gap: s.pending.len(),
                gap_bytes: s.pending_bytes,
            })
            .collect();
        rows.sort_by(|a, b| a.name.cmp(&b.name));
        rows
    }

    pub fn cache_get(&mut self, key: &CacheKey) -> Option<String> {
        self.cache.get(key).cloned()
    }

    pub fn cache_put(&mut self, key: CacheKey, response: String) {
        let cost = key.query.len() + response.len();
        self.cache.insert(key, response, cost);
    }

    /// Record one served request of `kind` taking `micros`.
    pub fn record(&mut self, kind: &'static str, micros: u64) {
        self.latency.entry(kind).or_default().record(micros);
        if kind == "query" {
            self.queries += 1;
        }
    }

    pub fn note_query(&mut self) {
        self.queries += 1;
    }

    /// The `/metrics`-style stats report. Deterministic ordering; the
    /// counters themselves obviously advance between calls.
    pub fn stats_text(&self) -> String {
        let mut out = String::from("SERVE STATS\n");
        out.push_str(&format!("ingests {}\n", self.ingests));
        out.push_str(&format!("queries {}\n", self.queries));
        let merges: u64 = self.sets.values().map(|s| s.acc.folds()).sum();
        out.push_str(&format!("merges {}\n", merges));
        out.push_str(&format!("snapshot_reuse {}\n", self.snapshot_reuse));
        out.push_str(&format!("partial_reuse {}\n", self.partial_reuse));
        let dirty: u64 = self.sets.values().map(|s| s.acc.dirty_rebuilds()).sum();
        out.push_str(&format!("dirty_class_rebuilds {}\n", dirty));
        out.push_str(&format!("bytes_stored {}\n", self.bytes_stored));
        out.push_str(&format!("byte_budget {}\n", self.config.byte_budget));
        let pending: u64 = self.sets.values().map(|s| s.pending_bytes).sum();
        out.push_str(&format!("pending_bytes {}\n", pending));
        out.push_str(&format!("pending_cap {}\n", self.config.pending_cap));
        out.push_str(&format!("sets {}\n", self.sets.len()));
        out.push_str(&format!(
            "cache_hits {}\ncache_misses {}\ncache_hit_rate {:.3}\ncache_entries {}\ncache_bytes {}\n",
            self.cache.hits(),
            self.cache.misses(),
            self.cache.hit_rate(),
            self.cache.len(),
            self.cache.bytes()
        ));
        let mut kinds: Vec<&&'static str> = self.latency.keys().collect();
        kinds.sort();
        for k in kinds {
            out.push_str(&format!("latency_us[{k}] {}\n", self.latency[*k].render()));
        }
        for r in self.list_sets() {
            out.push_str(&format!(
                "set[{}] bundles={} epoch={} gap={} gap_bytes={}\n",
                r.name, r.bundles, r.epoch, r.gap, r.gap_bytes
            ));
        }
        out
    }

    pub fn bytes_stored(&self) -> u64 {
        self.bytes_stored
    }

    pub fn ingests(&self) -> u64 {
        self.ingests
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcp_core::metrics::StorageClass;
    use dcp_core::stored::encode_bundle;

    fn bundle() -> (StoredBundle, u64) {
        // A metadata-only bundle is enough to drive the store machinery.
        let mut b = StoredBundle::default();
        b.stats.samples = 1;
        let wire = encode_bundle(&b).len() as u64;
        (b, wire)
    }

    #[test]
    fn out_of_order_seqs_commit_in_order() {
        let mut st = ProfileStore::new(StoreConfig::default());
        let (b, w) = bundle();
        // seq 1 arrives first: buffered, epoch stays 0.
        let (s1, e1) = st.ingest("a", Some(1), w, b.clone()).expect("buffered");
        assert_eq!((s1, e1), (1, 0));
        // seq 0 fills the gap: both commit, epoch jumps to 2.
        let (s0, e0) = st.ingest("a", Some(0), w, b.clone()).expect("commits");
        assert_eq!((s0, e0), (0, 2));
        let snap = st.snapshot("a").expect("snapshot");
        assert_eq!(snap.stats().samples, 2);
    }

    #[test]
    fn duplicate_seq_is_typed() {
        let mut st = ProfileStore::new(StoreConfig::default());
        let (b, w) = bundle();
        st.ingest("a", Some(0), w, b.clone()).expect("first");
        assert_eq!(st.ingest("a", Some(0), w, b.clone()), Err(ServeError::DuplicateSeq(0)));
        // Buffered duplicates are caught too.
        st.ingest("a", Some(5), w, b.clone()).expect("buffered");
        assert_eq!(st.ingest("a", Some(5), w, b), Err(ServeError::DuplicateSeq(5)));
    }

    #[test]
    fn arrival_order_commits_immediately_never_strands() {
        // Regression: an arrival-order ingest used to be assigned
        // `pending.last_key + 1`, landing *behind* any open gap and
        // silently withheld from every query. Arrival order now takes
        // the next commit slot and commits at once.
        let mut st = ProfileStore::new(StoreConfig::default());
        let (b, w) = bundle();
        for i in 0..3 {
            let (seq, epoch) = st.ingest("a", None, w, b.clone()).expect("arrival");
            assert_eq!((seq, epoch), (i, i + 1), "every arrival ingest commits immediately");
        }
        assert_eq!(st.snapshot("a").expect("snap").stats().samples, 3);
    }

    #[test]
    fn mixing_sequence_disciplines_is_typed() {
        let mut st = ProfileStore::new(StoreConfig::default());
        let (b, w) = bundle();
        // Explicit-mode set with an open gap: an arrival-order ingest is
        // refused instead of being stranded behind the gap.
        st.ingest("e", Some(5), w, b.clone()).expect("buffered");
        assert_eq!(
            st.ingest("e", None, w, b.clone()),
            Err(ServeError::SeqModeMismatch { set: "e".into(), explicit: true })
        );
        // Nothing was charged or recorded for the refused ingest.
        assert_eq!(st.ingests(), 1);
        // And the reverse direction on an arrival-mode set.
        st.ingest("a", None, w, b.clone()).expect("arrival");
        assert_eq!(
            st.ingest("a", Some(7), w, b),
            Err(ServeError::SeqModeMismatch { set: "a".into(), explicit: false })
        );
    }

    #[test]
    fn pending_cap_bounds_the_reorder_buffer_and_refunds_on_commit() {
        let (b, w) = bundle();
        let mut st = ProfileStore::new(StoreConfig {
            pending_cap: w * 2,
            ..StoreConfig::default()
        });
        // Two buffered entries fit under the cap; the third is refused.
        st.ingest("a", Some(10), w, b.clone()).expect("buffered");
        st.ingest("a", Some(11), w, b.clone()).expect("buffered");
        let err = st.ingest("a", Some(12), w, b.clone()).expect_err("cap");
        assert_eq!(
            err,
            ServeError::PendingCapExceeded { cap: w * 2, pending: w * 2, requested: w }
        );
        let stats = st.stats_text();
        assert!(stats.contains(&format!("pending_bytes {}", w * 2)), "{stats}");
        assert!(stats.contains(&format!("gap=2 gap_bytes={}", w * 2)), "{stats}");
        // An in-order ingest still lands: the cap only bounds buffering.
        st.ingest("a", Some(0), w, b.clone()).expect("commits");
        // Filling the gap refunds the buffer; buffering works again.
        for s in 1..=9 {
            st.ingest("a", Some(s), w, b.clone()).expect("fills");
        }
        let stats = st.stats_text();
        assert!(stats.contains("pending_bytes 0"), "{stats}");
        st.ingest("a", Some(13), w, b).expect("buffer space refunded");
    }

    #[test]
    fn budget_rejection_is_typed_and_mutation_free() {
        let (b, w) = bundle();
        let mut st = ProfileStore::new(StoreConfig {
            byte_budget: w * 2,
            ..StoreConfig::default()
        });
        st.ingest("a", None, w, b.clone()).expect("fits");
        st.ingest("a", None, w, b.clone()).expect("fits");
        let err = st.ingest("a", None, w, b).expect_err("over budget");
        assert!(matches!(err, ServeError::BudgetExceeded { .. }));
        assert_eq!(st.ingests(), 2);
        assert_eq!(st.bytes_stored(), w * 2);
        assert_eq!(st.epoch("a"), Some(2));
    }

    #[test]
    fn snapshot_is_cached_per_epoch_and_invalidated_on_ingest() {
        let mut st = ProfileStore::new(StoreConfig::default());
        let (b, w) = bundle();
        st.ingest("a", None, w, b.clone()).expect("ingest");
        let s1 = st.snapshot("a").expect("snap");
        let s2 = st.snapshot("a").expect("snap again");
        assert!(Arc::ptr_eq(&s1, &s2), "same epoch reuses the snapshot");
        st.ingest("a", None, w, b).expect("ingest");
        let s3 = st.snapshot("a").expect("snap after ingest");
        assert!(!Arc::ptr_eq(&s1, &s3), "new epoch, new snapshot");
        assert!(!s3.export(StorageClass::Heap).is_empty());
    }

    #[test]
    fn unknown_set_is_typed() {
        let mut st = ProfileStore::new(StoreConfig::default());
        assert_eq!(st.snapshot("nope").err(), Some(ServeError::UnknownSet("nope".into())));
    }

    #[test]
    fn dump_restore_roundtrips_sequencing_state() {
        let (b, w) = bundle();
        let mut st = ProfileStore::new(StoreConfig::default());
        st.ingest("a", Some(0), w, b.clone()).expect("commits");
        st.ingest("a", Some(3), w, b.clone()).expect("buffers");
        st.ingest("z", None, w, b).expect("arrival");
        let dumps = st.dump_sets().expect("dump");
        assert_eq!(dumps.len(), 2);
        assert_eq!(dumps[0].name, "a");
        assert_eq!(dumps[0].next_seq, 1);
        assert_eq!(dumps[0].pending.len(), 1);
        assert_eq!(dumps[0].pending[0].0, 3);
        assert!(matches!(dumps[0].mode, IngestMode::Explicit));
        assert!(matches!(dumps[1].mode, IngestMode::Arrival));

        let mut re = ProfileStore::new(StoreConfig::default());
        re.restore_counters(st.bytes_stored(), st.ingests());
        for d in dumps {
            let state = dcp_core::stored::decode_bundle(d.state.clone()).expect("state");
            let pending = d
                .pending
                .iter()
                .map(|(s, wb, raw)| {
                    (*s, *wb, dcp_core::stored::decode_bundle(raw.clone()).expect("pending"))
                })
                .collect();
            re.restore_set(
                d.name, d.mode, d.next_seq, d.epoch, d.bundles, d.blob_bytes, state, pending,
            );
        }
        assert_eq!(re.bytes_stored(), st.bytes_stored());
        assert_eq!(re.epoch("a"), st.epoch("a"));
        assert_eq!(re.epoch("z"), st.epoch("z"));
        // The restored reorder buffer still commits when the gap fills.
        let (b, w) = bundle();
        for s in 1..=2 {
            re.ingest("a", Some(s), w, b.clone()).expect("fills");
        }
        assert_eq!(re.epoch("a"), Some(4), "buffered seq 3 committed after the gap filled");
        let stats = re.stats_text();
        assert!(stats.contains("set[a] bundles=4"), "{stats}");
    }

    #[test]
    fn partial_roundtrip_reconstructs_byte_identical_state() {
        let mut st = ProfileStore::new(StoreConfig::default());
        let (b, w) = bundle();
        st.ingest("a", None, w, b.clone()).expect("ingest");
        st.ingest("a", None, w, b.clone()).expect("ingest");
        let encoded = st.partial("a").expect("partial");
        let again = st.partial("a").expect("partial again");
        assert_eq!(encoded, again, "partials are cached per epoch");
        let p = decode_set_partial(encoded).expect("decode");
        assert_eq!(p.epoch, 2);
        assert_eq!(p.bundles, 2);
        let rebuilt = p.reconstruct().expect("reconstruct");
        let local = st.snapshot("a").expect("snapshot");
        assert_eq!(rebuilt.stats().samples, local.stats().samples);
        assert_eq!(
            rebuilt.export(StorageClass::Heap),
            local.export(StorageClass::Heap),
            "reconstructed partial must render the exact local bytes"
        );
        // A new commit invalidates the cached partial.
        st.ingest("a", None, w, b).expect("ingest");
        let p2 = decode_set_partial(st.partial("a").expect("partial")).expect("decode");
        assert_eq!(p2.epoch, 3);
        // Unknown sets are typed, like snapshots.
        assert_eq!(st.partial("nope").err(), Some(ServeError::UnknownSet("nope".into())));
    }

    #[test]
    fn partial_decode_rejects_damage_typed() {
        let p = SetPartial {
            epoch: 7,
            bundles: 3,
            blob_bytes: 99,
            state: encode_bundle(&StoredBundle::default()),
        };
        let wire = encode_set_partial(&p);
        assert_eq!(decode_set_partial(wire.clone()).expect("roundtrip"), p);
        // Every truncation is typed.
        for cut in 0..wire.len() {
            let mut short = BytesMut::new();
            short.put_slice(&wire.as_slice()[..cut]);
            assert!(decode_set_partial(short.freeze()).is_err(), "cut at {cut}");
        }
        // Trailing garbage is typed.
        let mut long = BytesMut::new();
        long.put_slice(wire.as_slice());
        long.put_u8(0);
        assert!(decode_set_partial(long.freeze()).is_err());
        // Every single-bit flip anywhere in the payload is caught by
        // the trailing checksum — a flipped state byte must never
        // decode as a different-but-valid partial (wrong-but-OK).
        for pos in 0..wire.len() {
            for bit in 0..8u8 {
                let mut bad = wire.as_slice().to_vec();
                bad[pos] ^= 1 << bit;
                let mut buf = BytesMut::new();
                buf.put_slice(&bad);
                match decode_set_partial(buf.freeze()) {
                    Err(ServeError::PartialMerge(_)) => {}
                    other => panic!("flip at {pos}.{bit}: expected checksum refusal, got {other:?}"),
                }
            }
        }
        // Wrong magic (with a recomputed, valid checksum) is typed as
        // BadMagic — the not-our-payload case, not the damage case.
        let mut bad = wire.as_slice()[..wire.len() - 8].to_vec();
        bad[0] ^= 0x20;
        let mut buf = BytesMut::new();
        buf.put_slice(&bad);
        let sum = partial_checksum(&bad);
        buf.put_slice(&sum.to_be_bytes());
        assert_eq!(
            decode_set_partial(buf.freeze()),
            Err(ServeError::Codec(CodecError::BadMagic))
        );
    }

    #[test]
    fn response_cache_hits_by_epoch() {
        let mut st = ProfileStore::new(StoreConfig::default());
        let k0 = CacheKey { query: "ranking a latency".into(), epochs: [1, 0] };
        assert!(st.cache_get(&k0).is_none());
        st.cache_put(k0.clone(), "resp".into());
        assert_eq!(st.cache_get(&k0).as_deref(), Some("resp"));
        // A new epoch is a different key: miss.
        let k1 = CacheKey { query: "ranking a latency".into(), epochs: [2, 0] };
        assert!(st.cache_get(&k1).is_none());
        let stats = st.stats_text();
        assert!(stats.contains("cache_hits 1"), "{stats}");
        assert!(stats.contains("cache_misses 2"), "{stats}");
    }
}
