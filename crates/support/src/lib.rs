//! # dcp-support — in-tree runtime machinery for the memgaze workspace
//!
//! The workspace builds with **zero registry dependencies** so that
//! `cargo build --release --offline && cargo test -q --offline` works
//! from a clean checkout with no network. Profiling infrastructure that
//! owns its runtime machinery keeps overhead and behaviour predictable
//! (the same argument PROMPT and DINAMITE make for controlling their
//! instrumentation runtimes); it also makes every cycle the profiler
//! charges to the monitored program auditable in-tree.
//!
//! Provided here, replacing what the workspace previously imported from
//! the registry:
//!
//! * [`rng`] — a seedable SplitMix64-seeded xoshiro256++ PRNG
//!   (replaces `rand::SmallRng` in the PMU jitter models),
//! * [`hash`] — an FxHash-style hasher with [`FxHashMap`]/[`FxHashSet`]
//!   aliases (replaces `rustc-hash`),
//! * [`bytes`] — big-endian byte reader/writer buffers (replaces
//!   `bytes` in the profile codec and trace collector),
//! * [`pool`] — a shared thread pool whose one primitive is a flat
//!   parallel-for, exposed as the ordered maps [`pool::par_map`] and
//!   [`pool::par_map_mut`] (replaces `rayon` in profile encoding, the
//!   epoch scheduler's shards and the world runner),
//! * [`prop`] — a minimal property-testing framework with the
//!   [`props!`](crate::props) macro (replaces `proptest`),
//! * [`ring`] — a consistent-hash ring ([`HashRing`]) for stable
//!   set → shard placement in the sharded serving tier,
//! * [`sync`] — a poison-recovering [`sync::Mutex`] for always-on
//!   services (replaces `parking_lot::Mutex` where poisoning is the
//!   wrong failure mode — see the serve daemon's availability story),
//! * [`batch`] — a leader/follower [`GroupCommit`] batcher that
//!   coalesces concurrent durable appends into one bounded flush (the
//!   serve daemon's group-commit WAL is built on it).
//!
//! Everything is deterministic where the consumer needs determinism: the
//! PRNG is a pure function of its seed, the hasher has no random state,
//! property cases derive their seeds from the test name, and the pool's
//! `par_map`/`par_map_mut` return results in input order regardless of
//! how work is scheduled.

pub mod batch;
pub mod bytes;
pub mod cache;
pub mod hash;
pub mod pool;
pub mod prop;
pub mod ring;
pub mod rng;
pub mod stats;
pub mod sync;

pub use batch::{BatchStats, GroupCommit};
pub use cache::LruCache;
pub use hash::{FxHashMap, FxHashSet, FxHasher};
pub use ring::HashRing;
pub use rng::SmallRng;
pub use stats::LatencyHistogram;
