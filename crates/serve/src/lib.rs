//! dcp-serve — a serving layer over the reduction tree.
//!
//! The offline pipeline measures, encodes, and merges profiles in one
//! process. This crate puts a daemon in front of the same machinery:
//! clients stream encoded profile bundles to named **profile sets**
//! over a length-prefixed TCP protocol; the store folds them with the
//! incremental streaming merge; view queries (top-down, bottom-up,
//! flat, ranking, variable-centric, two-profile diff) render from the
//! merged trees through the exact view code the CLI uses, behind an
//! LRU response cache invalidated by ingest epochs.
//!
//! Layering (hermetic, `std::net` only):
//!
//! ```text
//! client.rs  — blocking client; windowed pipelined ingest (W
//!              outstanding pushes, acks matched FIFO by set/seq)
//! wire.rs    — "DCPS" frames + request/response bodies (DCP2 varints)
//! session.rs — the one session loop both binaries run: accept poll,
//!              session threads, graceful drain, frame read + parse,
//!              ingest read-ahead groups, PING/SHUTDOWN, drain refusals
//! server.rs  — the daemon's handler: one store lock per request,
//!              group-commit acks, post-drain snapshot
//! router.rs  — the router's handler: scatter-gather over N shard
//!              daemons; ingest fans to replicas concurrently
//! query.rs   — verb language -> parse / fetch / render combiner split
//! store.rs   — named sets, seq reorder, epochs, budget, LRU cache,
//!              shard partials ("DCPP") for the distributed tree
//! wal.rs     — write-ahead log + snapshots; byte-identical recovery;
//!              group-commit batcher amortizing fsync across sessions
//! error.rs   — one typed error across all of the above
//! ```
//!
//! Scale-out: [`router`] places whole profile sets on shard daemons
//! via a consistent-hash ring, replicates ingest R ways, and merges
//! shard partials through the same reduction tree — responses are
//! byte-identical to a single daemon holding every set.
//!
//! Determinism contract: with client-assigned sequence numbers, the
//! merged profile a set serves is byte-identical to
//! one `merge_encoded` fold over the same bundles in sequence order,
//! no matter how many connections raced — the loopback e2e test pins
//! this end to end. With a data directory configured the contract
//! extends through crashes: a daemon killed at any instant and
//! restarted answers every query with the same bytes an uncrashed one
//! would (see [`wal`]).

pub mod client;
pub mod error;
pub mod query;
pub mod router;
pub mod server;
mod session;
pub mod store;
pub mod wal;
pub mod wire;

pub use client::{Ack, Client, IngestPipeline};
pub use error::ServeError;
pub use query::{handle_query, parse_query, render_sets, render_view, ParsedQuery, ViewPlan, ViewQuery};
pub use router::{Router, RouterConfig};
pub use server::{Server, ServerConfig};
pub use store::{
    decode_set_partial, encode_set_partial, CacheKey, IngestMode, ProfileStore, SetPartial,
    StoreConfig,
};
pub use wal::{Durability, RecoveryReport, WalShared};
pub use wire::{format_ingest_ack, parse_ingest_ack, Request, Response, MAX_FRAME};
