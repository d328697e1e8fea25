//! Epoch-parallel access pipeline: shard-private fast path plus ordered
//! commit of shared-resource interactions.
//!
//! The scheduler splits each quantum window into an *epoch*. Within an
//! epoch, every NUMA domain's core-private hardware (L1/L2, TLB,
//! prefetcher, prefetch MSHRs) advances in parallel against a frozen
//! snapshot of the node-shared state (L3s, DRAM controllers, the
//! interconnect, the coherence version table). Any access that needs the
//! shared state is priced *optimistically* from the snapshot and recorded
//! as a [`DeferredAccess`]; the scheduler commits those records
//! sequentially in `(cycle, thread, seq)` order, where the real L3
//! lookups, DRAM queueing and interconnect occupancy happen. Contention
//! is therefore a pure function of simulated time, never of host
//! scheduling — runs are bit-identical at every `DCP_THREADS` value
//! because the shard pipeline itself is the only code path (a pool with
//! zero workers runs the same shards sequentially in shard order).
//!
//! Coherence during an epoch uses a per-shard [`VersionOverlay`]: a
//! shard's own stores are visible to it immediately; other shards keep
//! reading the frozen base table until the commit merges every overlay in
//! deterministic order. Cross-shard store visibility thus lags by at most
//! one epoch window — the store-buffer/invalidation-delay analogy real
//! hardware exhibits, applied at a coarser grain.

use dcp_support::FxHashMap;

use crate::access::{AccessKind, AccessResult, DataSource, Machine, MachineStats, PF_BUDGET};
use crate::cache::{Cache, EpochKey, VersionOverlay, VersionTable};
use crate::config::MachineConfig;
use crate::dram::Dram;
use crate::interconnect::Interconnect;
use crate::mshr::{PfEntry, PfMshr};
use crate::prefetch::{Predictions, Prefetcher};
use crate::tlb::Tlb;
use crate::topology::{CoreId, DomainId};
use crate::Cycles;

/// Slots in each shard's page→slab memo for frozen-base version reads
/// (power of two).
const MEMO_SLOTS: usize = 256;

/// Per-domain state that survives across epochs: the shard's version
/// overlay (drained at each commit) and its stamp-validated memo over the
/// frozen base table. Owned by [`Machine`] so allocations are reused.
#[derive(Debug)]
pub struct ShardEpochState {
    pub(crate) overlay: VersionOverlay,
    /// `(page, slab + 1, stamp)` entries; validated against `stamp`, so
    /// stale epochs self-invalidate without clearing. The stamp wraps at
    /// `u32::MAX` epochs — far beyond any simulated run.
    memo: Vec<(u64, u32, u32)>,
    stamp: u32,
}

impl ShardEpochState {
    fn new() -> Self {
        Self {
            overlay: VersionOverlay::default(),
            memo: vec![(0, 0, 0); MEMO_SLOTS],
            stamp: 0,
        }
    }
}

/// Read-only snapshot of the node-shared state, valid for one epoch.
/// Shared by every shard running in parallel.
#[derive(Debug)]
pub struct FrozenNode<'a> {
    cfg: &'a MachineConfig,
    l3: &'a [Cache],
    dram: &'a Dram,
    interconnect: &'a Interconnect,
    versions: &'a VersionTable,
    pcore_of: &'a [u32],
    domain_of: &'a [u32],
    line_bits: u32,
    page_bits: u32,
}

impl FrozenNode<'_> {
    /// NUMA domain (= shard index) of a hardware thread; the scheduler
    /// routes each simulated thread's work to this shard.
    #[inline]
    pub fn domain_of(&self, core: CoreId) -> u32 {
        self.domain_of[core.0 as usize]
    }

    /// Cache line address of a byte address.
    #[inline]
    pub fn line_of(&self, vaddr: u64) -> u64 {
        vaddr >> self.line_bits
    }
}

/// A shared-state interaction deferred to the commit phase: everything
/// [`Machine::commit_access`] needs to resolve the true data source and
/// latency at the recorded simulated time.
#[derive(Debug, Clone, Copy)]
pub struct DeferredAccess {
    pub core: CoreId,
    pub line: u64,
    /// Coherence version the access was resolved at (overlay-inclusive —
    /// the version the thread's own program order implies).
    pub version: u32,
    pub home: DomainId,
    /// Effective request time: thread clock plus pre-resolution latency.
    pub now: Cycles,
    /// Pre-resolution latency (TLB walk), re-charged by commit so the
    /// returned latency is the full end-to-end figure.
    pub base: u32,
}

/// What one shard-side access produced. `result` is what the thread
/// observes immediately (optimistic when `deferred` is set); the
/// scheduler turns the other fields into ordered commit events.
#[derive(Debug, Clone, Copy)]
pub struct ShardAccessOutcome {
    pub result: AccessResult,
    /// Present when the access needs the shared state; commit returns the
    /// actual `(latency, source)` and the scheduler folds the signed
    /// difference vs. `result.latency` into the thread clock as a carry.
    pub deferred: Option<DeferredAccess>,
    /// `(line, version)` the commit phase must install in the accessing
    /// domain's L3 (prefetch-resolved accesses fill L3 commit-side).
    pub l3_fill: Option<(u64, u32)>,
    /// Prefetches launched: commit consumes DRAM/link occupancy for each,
    /// at home `result.home` and time `pf_now`.
    pub pf_issued: u8,
    pub pf_now: Cycles,
}

/// One NUMA domain's private slice of the machine for one epoch: the
/// L1/L2/TLB/prefetcher/MSHR state of its cores plus a fresh stats block.
/// Safe to drive from any host worker — it borrows no shared state
/// mutably.
#[derive(Debug)]
pub struct MachineShard<'a> {
    pub domain: u32,
    pcore_base: usize,
    l1: &'a mut [Cache],
    l2: &'a mut [Cache],
    tlb: &'a mut [Tlb],
    prefetch: &'a mut [Prefetcher],
    pfbuf: &'a mut [PfMshr],
    ep: &'a mut ShardEpochState,
    /// Counters accumulated shard-side this epoch; the scheduler merges
    /// them into the machine-wide block in shard order at commit.
    pub stats: MachineStats,
}

impl MachineShard<'_> {
    /// Coherence version of `line` as this shard sees it: its own
    /// overlay if it stored to the line this epoch, else the frozen base.
    #[inline]
    fn version_of(&mut self, fz: &FrozenNode, line: u64) -> u32 {
        match self.ep.overlay.local(line) {
            Some(v) => v,
            None => fz.versions.version_memoized(line, &mut self.ep.memo, self.ep.stamp),
        }
    }

    #[inline]
    fn fill_private(&mut self, pcore: usize, line: u64, version: u32) {
        self.l2[pcore].fill(line, version);
        self.l1[pcore].fill(line, version);
    }

    /// Predicted remote-L3 owner against the frozen snapshot (same rule
    /// as [`Machine`]'s directory check, read-only).
    fn remote_owner_est(&self, fz: &FrozenNode, line: u64, version: u32) -> Option<DomainId> {
        if version == 0 {
            return None;
        }
        let w = self.ep.overlay.last_writer(fz.versions, line)?;
        if w != self.domain && fz.l3[w as usize].probe(line, version) {
            Some(DomainId(w))
        } else {
            None
        }
    }

    /// Execute one memory access through the shard-private hierarchy.
    /// Mirrors [`Machine::access`] stage for stage; every stage that
    /// would touch node-shared state instead prices itself from the
    /// frozen snapshot and defers, or records a commit obligation.
    /// `key` orders this access's commit events within the epoch.
    #[allow(clippy::too_many_arguments)]
    pub fn access(
        &mut self,
        fz: &FrozenNode,
        core: CoreId,
        vaddr: u64,
        kind: AccessKind,
        home: DomainId,
        pc: u64,
        now: Cycles,
        key: EpochKey,
    ) -> ShardAccessOutcome {
        debug_assert_eq!(fz.domain_of[core.0 as usize], self.domain, "core routed to wrong shard");
        let pcore = fz.pcore_of[core.0 as usize] as usize - self.pcore_base;
        let my = DomainId(self.domain);
        let line = vaddr >> fz.line_bits;
        let version = self.version_of(fz, line);

        let mut latency: u32 = 0;
        let vpn = vaddr >> fz.page_bits;
        let tlb_miss = !self.tlb[pcore].access(vpn);
        if tlb_miss {
            latency += fz.cfg.tlb_miss_penalty;
            self.stats.tlb_misses += 1;
        }
        let base = latency;
        let now_req = now + base as Cycles;

        let mut deferred = None;
        let mut l3_fill = None;

        let source = if self.l1[pcore].lookup(line, version) {
            latency += fz.cfg.l1.latency;
            self.stats.l1_hits += 1;
            DataSource::L1
        } else if self.l2[pcore].lookup(line, version) {
            latency += fz.cfg.l2.latency;
            self.l1[pcore].fill(line, version);
            self.stats.l2_hits += 1;
            DataSource::L2
        } else if fz.l3[self.domain as usize].probe(line, version) {
            // Present in the frozen own-L3: optimistically an L3 hit. The
            // actual lookup (LRU movement, possible eviction by earlier
            // commit events) settles at commit.
            latency += fz.cfg.l3.latency;
            self.fill_private(pcore, line, version);
            deferred =
                Some(DeferredAccess { core, line, version, home, now: now_req, base });
            DataSource::L3
        } else if let Some(pf) =
            self.pfbuf[pcore].remove(line).filter(|e| e.version == version)
        {
            // In-flight prefetch: entirely core-private, resolves now.
            // The L3 install it implies happens commit-side.
            let now_eff = now + latency as Cycles;
            self.fill_private(pcore, line, version);
            l3_fill = Some((line, version));
            if pf.ready <= now_eff {
                latency += fz.cfg.l2.latency;
                self.stats.prefetch_hidden += 1;
                DataSource::L2
            } else {
                let wait = (pf.ready - now_eff).min(u32::MAX as Cycles) as u32;
                latency = latency.saturating_add(wait.max(fz.cfg.l2.latency));
                self.stats.prefetch_late += 1;
                match pf.src {
                    DataSource::RemoteDram => self.stats.remote_dram += 1,
                    _ => self.stats.local_dram += 1,
                }
                pf.src
            }
        } else if let Some(owner) = self.remote_owner_est(fz, line, version) {
            let hop = fz.interconnect.traverse_est(&fz.cfg.topology, my, owner, now_req);
            latency = latency
                .saturating_add(fz.cfg.remote_cache_latency)
                .saturating_add(hop.min(u32::MAX as Cycles) as u32);
            self.fill_private(pcore, line, version);
            deferred =
                Some(DeferredAccess { core, line, version, home, now: now_req, base });
            DataSource::RemoteL3
        } else {
            let queue = fz.dram.backlog(home.0, now_req);
            latency = latency
                .saturating_add(fz.cfg.dram_latency)
                .saturating_add(queue.min(u32::MAX as Cycles) as u32);
            let src = if home == my {
                DataSource::LocalDram
            } else {
                let hop = fz.interconnect.traverse_est(&fz.cfg.topology, my, home, now_req);
                latency = latency.saturating_add(hop.min(u32::MAX as Cycles) as u32);
                DataSource::RemoteDram
            };
            self.fill_private(pcore, line, version);
            deferred =
                Some(DeferredAccess { core, line, version, home, now: now_req, base });
            src
        };

        if kind == AccessKind::Store {
            let nv = self.ep.overlay.bump(fz.versions, line, self.domain, key);
            self.fill_private(pcore, line, nv);
            self.stats.stores += 1;
        } else {
            self.stats.loads += 1;
        }

        // Train the prefetcher against the frozen snapshot. Ready times
        // use the estimated (non-consuming) queue/hop delays; the commit
        // phase consumes the real occupancy once per launched prefetch.
        let mut pf_issued = 0u8;
        let now_eff = now + latency as Cycles;
        let mut preds = Predictions::new();
        self.prefetch[pcore].observe(pc, vaddr, fz.cfg.line_size, &mut preds);
        if !preds.is_empty() {
            for &p in preds.as_slice() {
                let pl = p >> fz.line_bits;
                let pv = self.version_of(fz, pl);
                if self.pfbuf[pcore].contains(pl)
                    || self.l2[pcore].probe(pl, pv)
                    || fz.l3[self.domain as usize].probe(pl, pv)
                {
                    continue;
                }
                if self.pfbuf[pcore].len() >= PF_BUDGET {
                    self.pfbuf[pcore].retain(|_, e| e.ready > now_eff);
                    if self.pfbuf[pcore].len() >= PF_BUDGET {
                        continue;
                    }
                }
                if fz.dram.backlog(home.0, now_eff) > 64 * fz.cfg.dram_service as Cycles {
                    continue;
                }
                let queue = fz.dram.backlog(home.0, now_eff);
                let (hop, src) = if home == my {
                    (0, DataSource::LocalDram)
                } else {
                    (
                        fz.interconnect.traverse_est(&fz.cfg.topology, my, home, now_eff),
                        DataSource::RemoteDram,
                    )
                };
                let ready = now_eff + fz.cfg.dram_latency as Cycles + queue + hop;
                self.pfbuf[pcore].insert(pl, PfEntry { ready, version: pv, src });
                self.stats.prefetch_fills += 1;
                pf_issued += 1;
            }
        }

        self.stats.accesses += 1;
        if deferred.is_none() {
            // Deferred latency is known only at commit, which adds the
            // actual figure to the machine-wide block directly.
            self.stats.total_latency += latency as u64;
        }
        ShardAccessOutcome {
            result: AccessResult { latency, source, tlb_miss, home },
            deferred,
            l3_fill,
            pf_issued,
            pf_now: now_eff,
        }
    }
}

impl Machine {
    /// Open an epoch: freeze the node-shared state and hand out one
    /// [`MachineShard`] per NUMA domain. The borrows are disjoint, so the
    /// shards can run on separate host workers while the snapshot is
    /// shared read-only.
    pub fn split_epoch(&mut self) -> (FrozenNode<'_>, Vec<MachineShard<'_>>) {
        let domains = self.cfg.topology.domains as usize;
        if self.epoch.len() != domains {
            self.epoch.resize_with(domains, ShardEpochState::new);
        }
        for e in &mut self.epoch {
            e.stamp = e.stamp.wrapping_add(1);
        }
        let cpd = self.cfg.topology.cores_per_domain as usize;
        let Machine {
            cfg,
            line_bits,
            page_bits,
            pcore_of,
            domain_of,
            l1,
            l2,
            l3,
            tlb,
            prefetch,
            dram,
            interconnect,
            versions,
            pfbuf,
            epoch,
            ..
        } = self;
        let fz = FrozenNode {
            cfg,
            l3: l3.as_slice(),
            dram,
            interconnect,
            versions,
            pcore_of: pcore_of.as_slice(),
            domain_of: domain_of.as_slice(),
            line_bits: *line_bits,
            page_bits: *page_bits,
        };
        let shards = l1
            .chunks_mut(cpd)
            .zip(l2.chunks_mut(cpd))
            .zip(tlb.chunks_mut(cpd))
            .zip(prefetch.chunks_mut(cpd))
            .zip(pfbuf.chunks_mut(cpd))
            .zip(epoch.iter_mut())
            .enumerate()
            .map(|(d, (((((l1, l2), tlb), prefetch), pfbuf), ep))| MachineShard {
                domain: d as u32,
                pcore_base: d * cpd,
                l1,
                l2,
                tlb,
                prefetch,
                pfbuf,
                ep,
                stats: MachineStats::default(),
            })
            .collect();
        (fz, shards)
    }

    /// Commit one deferred access at its recorded simulated time: the
    /// real L3 lookup, directory check, DRAM queueing and interconnect
    /// traversal. Returns the actual end-to-end `(latency, source)`.
    pub fn commit_access(&mut self, d: &DeferredAccess) -> (u32, DataSource) {
        let my = DomainId(self.domain_of[d.core.0 as usize]);
        let mut latency = d.base;
        let source = if self.l3[my.0 as usize].lookup(d.line, d.version) {
            latency += self.cfg.l3.latency;
            self.stats.l3_hits += 1;
            DataSource::L3
        } else if let Some(owner) = self.remote_l3_owner(d.line, d.version, my) {
            let hop = self.interconnect.traverse(&self.cfg.topology, my, owner, d.now);
            latency = latency
                .saturating_add(self.cfg.remote_cache_latency)
                .saturating_add(hop.min(u32::MAX as Cycles) as u32);
            self.l3[my.0 as usize].fill(d.line, d.version);
            self.stats.remote_l3_hits += 1;
            DataSource::RemoteL3
        } else {
            let queue = self.dram.request(d.home.0, d.now);
            latency = latency
                .saturating_add(self.cfg.dram_latency)
                .saturating_add(queue.min(u32::MAX as Cycles) as u32);
            let src = if d.home == my {
                self.stats.local_dram += 1;
                DataSource::LocalDram
            } else {
                let hop =
                    self.interconnect.traverse(&self.cfg.topology, my, d.home, d.now);
                latency = latency.saturating_add(hop.min(u32::MAX as Cycles) as u32);
                self.stats.remote_dram += 1;
                DataSource::RemoteDram
            };
            self.l3[my.0 as usize].fill(d.line, d.version);
            src
        };
        self.stats.total_latency += latency as u64;
        (latency, source)
    }

    /// Install a line in `domain`'s L3 (prefetch-resolved accesses defer
    /// their L3 install here so parallel shards never touch the L3s).
    pub fn commit_l3_fill(&mut self, domain: u32, line: u64, version: u32) {
        self.l3[domain as usize].fill(line, version);
    }

    /// Consume DRAM and interconnect occupancy for `n` prefetches
    /// launched by domain `from` toward `home` at simulated time `now`.
    pub fn commit_prefetches(&mut self, from: DomainId, home: DomainId, now: Cycles, n: u32) {
        for _ in 0..n {
            self.dram.request(home.0, now);
            if home != from {
                self.interconnect.traverse(&self.cfg.topology, from, home, now);
            }
        }
    }

    /// Merge every shard's version overlay back into the base table, in
    /// deterministic line order with cross-shard conflicts resolved by
    /// the largest commit key (last writer in simulated time). The
    /// winner's L3 receives the line at its final version, mirroring the
    /// serial pipeline's post-store fill.
    pub fn commit_epoch_versions(&mut self) {
        if self.epoch.iter().all(|e| e.overlay.is_empty()) {
            return;
        }
        // line -> (total bumps, winning writer, winning key)
        let mut merged: FxHashMap<u64, (u32, u32, EpochKey)> = FxHashMap::default();
        for ep in &mut self.epoch {
            for (line, e) in ep.overlay.drain() {
                merged
                    .entry(line)
                    .and_modify(|m| {
                        m.0 += e.bumps;
                        if e.key > m.2 {
                            m.1 = e.writer;
                            m.2 = e.key;
                        }
                    })
                    .or_insert((e.bumps, e.writer, e.key));
            }
        }
        for (line, (bumps, writer, _)) in merged {
            let v = self.versions.apply_bumps(line, bumps, writer);
            self.l3[writer as usize].fill(line, v);
        }
    }

    /// Fold a shard's epoch counters into the machine-wide block.
    pub fn merge_stats(&mut self, o: &MachineStats) {
        self.stats.merge(o);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Run one access through the epoch pipeline with an immediate
    /// commit, returning what the serial pipeline would have returned.
    /// The access is alone in its epoch, so its commit key needs no
    /// sequence tiebreak.
    fn epoch_access(
        m: &mut Machine,
        core: CoreId,
        vaddr: u64,
        kind: AccessKind,
        home: DomainId,
        pc: u64,
        now: Cycles,
    ) -> AccessResult {
        let dom = m.topology().domain_of(core).0 as usize;
        let (fz, mut shards) = m.split_epoch();
        let out = shards[dom].access(&fz, core, vaddr, kind, home, pc, now, (now, core.0, 0));
        let stats: Vec<MachineStats> = shards.iter().map(|s| s.stats.clone()).collect();
        drop(shards);
        for s in &stats {
            m.merge_stats(s);
        }
        let mut r = out.result;
        if let Some(d) = out.deferred {
            let (lat, src) = m.commit_access(&d);
            r.latency = lat;
            r.source = src;
        }
        if let Some((line, v)) = out.l3_fill {
            m.commit_l3_fill(dom as u32, line, v);
        }
        if out.pf_issued > 0 {
            let from = DomainId(dom as u32);
            m.commit_prefetches(from, home, out.pf_now, out.pf_issued as u32);
        }
        m.commit_epoch_versions();
        r
    }

    /// With prefetch-defeating strides, the epoch pipeline committed
    /// per-access is *exactly* the serial pipeline: same latencies, same
    /// sources, same machine-wide counters, access by access.
    #[test]
    fn epoch_pipeline_matches_serial_without_prefetch() {
        let mut serial = Machine::new(MachineConfig::tiny_test());
        let mut epoch = Machine::new(MachineConfig::tiny_test());
        let mut t = 0u64;
        for i in 0..400u64 {
            let core = CoreId((i % 4) as u32);
            let kind = if i % 3 == 0 { AccessKind::Store } else { AccessKind::Load };
            let home = DomainId((i % 2) as u32);
            // Page-crossing stride: the prefetcher never trains, so the
            // snapshot-priced prefetch path (the one deliberate deviation
            // from serial timing) stays cold.
            let vaddr = 0x10_0000 + (i % 60) * 8192;
            let a = serial.access(core, vaddr, kind, home, 7, t);
            let b = epoch_access(&mut epoch, core, vaddr, kind, home, 7, t);
            assert_eq!(a.latency, b.latency, "access {i}");
            assert_eq!(a.source, b.source, "access {i}");
            assert_eq!(a.tlb_miss, b.tlb_miss, "access {i}");
            t += a.latency as u64 + 1;
        }
        assert_eq!(format!("{:?}", serial.stats()), format!("{:?}", epoch.stats()));
        assert_eq!(serial.dram_histogram(), epoch.dram_histogram());
    }

    /// A store committed in one epoch is visible (and remote-L3-sourced)
    /// to another socket in the next epoch.
    #[test]
    fn cross_shard_store_visible_next_epoch() {
        let mut m = Machine::new(MachineConfig::tiny_test());
        // Core 0 (domain 0) writes; commits immediately.
        epoch_access(&mut m, CoreId(0), 0x4000, AccessKind::Store, DomainId(0), 1, 0);
        // Core 2 (domain 1) reads next epoch: cache-to-cache transfer.
        let r = epoch_access(&mut m, CoreId(2), 0x4000, AccessKind::Load, DomainId(0), 2, 50);
        assert_eq!(r.source, DataSource::RemoteL3);
    }

    /// Two shards storing to the same line in one epoch: versions sum,
    /// the later commit key wins the directory entry.
    #[test]
    fn conflicting_stores_resolve_by_commit_key() {
        let mut m = Machine::new(MachineConfig::tiny_test());
        let line = 0x8000u64 >> m.config().line_size.trailing_zeros();
        {
            let (fz, mut shards) = m.split_epoch();
            // Domain 1 stores at cycle 5, domain 0 at cycle 10: domain 0
            // is the last writer in simulated time.
            shards[1].access(
                &fz, CoreId(2), 0x8000, AccessKind::Store, DomainId(1), 1, 5, (5, 2, 0),
            );
            shards[0].access(
                &fz, CoreId(0), 0x8000, AccessKind::Store, DomainId(0), 1, 10, (10, 0, 0),
            );
        }
        m.commit_epoch_versions();
        assert_eq!(m.versions.version(line), 2, "both bumps must land");
        assert_eq!(m.versions.last_writer(line), Some(0), "later key wins");
    }

    /// Within one epoch a shard sees its own stores immediately but not
    /// another shard's (bounded coherence lag).
    #[test]
    fn overlay_isolates_shards_within_epoch() {
        let mut m = Machine::new(MachineConfig::tiny_test());
        let (fz, mut shards) = m.split_epoch();
        shards[0].access(&fz, CoreId(0), 0x9000, AccessKind::Store, DomainId(0), 1, 0, (0, 0, 0));
        // Own shard re-reads: L1 hit at the bumped version.
        let own = shards[0]
            .access(&fz, CoreId(0), 0x9000, AccessKind::Load, DomainId(0), 1, 10, (10, 0, 1))
            .result;
        assert_eq!(own.source, DataSource::L1);
        // Other shard still sees the frozen base (version 0) and goes to
        // DRAM rather than a cache-to-cache transfer.
        let other = shards[1]
            .access(&fz, CoreId(2), 0x9000, AccessKind::Load, DomainId(0), 1, 10, (10, 2, 0))
            .result;
        assert_eq!(other.source, DataSource::RemoteDram);
    }
}
