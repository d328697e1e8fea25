//! Performance monitoring unit model: one sampling engine for both of
//! the paper's hardware disciplines (§3).
//!
//! * **Instruction-based sampling** (AMD family 10h, after DEC's
//!   ProfileMe): every ~`period` retired ops the PMU tags one op and
//!   records, as it retires, its precise IP, the effective address of its
//!   memory operand, latency, and the memory-hierarchy response.
//!
//! * **Marked-event sampling** (IBM POWER5+/POWER7): the PMU counts
//!   occurrences of one marked event (e.g. `PM_MRK_DATA_FROM_RMEM`, a
//!   load satisfied from remote memory); every ~`threshold` occurrences it
//!   latches the sampled instruction address (SIAR) and sampled data
//!   address (SDAR). Only matching memory ops can be sampled, so
//!   `PM_MRK_DATA_FROM_RMEM` yields a profile of remote accesses only —
//!   how the paper's NUMA case studies isolate remote-access hot spots.
//!
//! Both are one countdown over counted ops with a skid: the interrupt
//! lands `skid` retired ops after the tag, so the signal-context IP
//! differs from the tagged op's IP and the profiler must use the
//! recorded precise IP (§4.1.2). The two differ only in data [`Pmu::new`]
//! derives from [`PmuConfig`]: which ops count (every op, or memory ops
//! whose source matches the event), the period jitter (±1/8 above 8, or
//! ±1/4 above 2 — real tools randomize the period so sampling cannot
//! resonate with loop bodies), the seed salt of the deterministic
//! per-core jitter RNG, and the [`SampleOrigin`] stamped on each
//! [`Sample`].

use dcp_support::rng::SmallRng;

use crate::access::{AccessResult, DataSource};
use crate::topology::CoreId;

/// A marked event selecting which data sources increment the POWER7-style
/// counter. Names follow the `PM_MRK_DATA_FROM_*` convention.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MarkedEvent {
    /// Data sourced from own-core L2.
    DataFromL2,
    /// Data sourced from own-socket L3.
    DataFromL3,
    /// Data sourced from a remote socket's cache.
    DataFromRL3,
    /// Data sourced from local DRAM.
    DataFromLmem,
    /// Data sourced from remote DRAM — the paper's NUMA event of choice.
    DataFromRmem,
    /// Data sourced from any DRAM (local or remote).
    DataFromMem,
}

impl MarkedEvent {
    /// Does an access with this data source count toward the event?
    pub fn matches(self, source: DataSource) -> bool {
        match self {
            MarkedEvent::DataFromL2 => source == DataSource::L2,
            MarkedEvent::DataFromL3 => source == DataSource::L3,
            MarkedEvent::DataFromRL3 => source == DataSource::RemoteL3,
            MarkedEvent::DataFromLmem => source == DataSource::LocalDram,
            MarkedEvent::DataFromRmem => source == DataSource::RemoteDram,
            MarkedEvent::DataFromMem => source.is_dram(),
        }
    }

    /// Display name in the POWER7 style.
    pub fn name(self) -> &'static str {
        match self {
            MarkedEvent::DataFromL2 => "PM_MRK_DATA_FROM_L2",
            MarkedEvent::DataFromL3 => "PM_MRK_DATA_FROM_L3",
            MarkedEvent::DataFromRL3 => "PM_MRK_DATA_FROM_RL3",
            MarkedEvent::DataFromLmem => "PM_MRK_DATA_FROM_LMEM",
            MarkedEvent::DataFromRmem => "PM_MRK_DATA_FROM_RMEM",
            MarkedEvent::DataFromMem => "PM_MRK_DATA_FROM_MEM",
        }
    }
}

/// Which sampling mechanism produced a sample.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SampleOrigin {
    Ibs,
    Marked(MarkedEvent),
}

/// One PMU sample, as delivered to the profiler's signal handler.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub origin: SampleOrigin,
    /// Precise IP of the monitored instruction (IBS op record / SIAR).
    pub precise_ip: u64,
    /// IP at which the interrupt was delivered; differs from `precise_ip`
    /// by the skid. A naive profiler that attributes to this address
    /// mis-attributes samples.
    pub signal_ip: u64,
    /// Effective data address (IBS linear address / SDAR); `None` for
    /// sampled instructions that do not access memory.
    pub ea: Option<u64>,
    /// Access latency in cycles (0 for non-memory samples).
    pub latency: u32,
    /// Memory-hierarchy response, if a memory op.
    pub source: Option<DataSource>,
    pub tlb_miss: bool,
    pub is_store: bool,
    /// Hardware thread the sample was taken on.
    pub core: CoreId,
}

/// A retired-operation record fed to the PMU by the execution engine.
#[derive(Debug, Clone, Copy)]
pub struct OpRecord<'a> {
    pub ip: u64,
    pub core: CoreId,
    /// Memory operand details, if the op accessed memory.
    pub mem: Option<(&'a AccessResult, u64, bool)>, // (result, ea, is_store)
}

/// Configuration for one core's PMU.
#[derive(Debug, Clone, Copy)]
pub enum PmuConfig {
    /// Instruction-based sampling every ~`period` retired ops.
    Ibs { period: u64, skid: u32 },
    /// Marked-event sampling: one sample per `threshold` matching events.
    Marked { event: MarkedEvent, threshold: u64, skid: u32 },
}

/// One core's sampling engine (see the module docs).
#[derive(Debug, Clone)]
pub struct Pmu {
    /// Stamped on every sample; a marked origin also restricts counting
    /// to memory ops whose source matches its event.
    origin: SampleOrigin,
    /// Mean counted ops between tags (IBS period / marked threshold).
    period: u64,
    /// Periods at or below `.0` are exact; above it the period is
    /// jittered by ±`period >> .1`.
    jitter: (u64, u32),
    skid: u32,
    /// Counted ops left until the next tag (always at least 1).
    countdown: u64,
    /// A tagged sample waiting out its skid, with the ops still to go.
    pending: Option<(Sample, u32)>,
    rng: SmallRng,
    samples: u64,
    tagged_last: bool,
}

impl Pmu {
    /// Build a PMU from configuration. `seed` keeps the period jitter
    /// deterministic yet decorrelated across cores.
    ///
    /// # Panics
    /// Panics if the period (threshold) is zero.
    pub fn new(cfg: PmuConfig, seed: u64) -> Self {
        let (origin, period, skid, jitter, salt) = match cfg {
            PmuConfig::Ibs { period, skid } => {
                (SampleOrigin::Ibs, period, skid, (8, 3), 0x1b50_dead_beefu64.rotate_left(7))
            }
            PmuConfig::Marked { event, threshold, skid } => {
                (SampleOrigin::Marked(event), threshold, skid, (2, 2), 0x0dd_ba11)
            }
        };
        assert!(period > 0, "sampling period must be positive");
        let mut pmu = Self {
            origin,
            period,
            jitter,
            skid,
            countdown: 0,
            pending: None,
            rng: SmallRng::seed_from_u64(seed ^ salt),
            samples: 0,
            tagged_last: false,
        };
        pmu.countdown = pmu.jittered();
        pmu
    }

    fn jittered(&mut self) -> u64 {
        let (floor, shift) = self.jitter;
        if self.period <= floor {
            return self.period;
        }
        let spread = self.period >> shift;
        self.period - spread + self.rng.gen_range(0..=2 * spread)
    }

    /// Feed one retired op; returns a sample when the PMU raises its
    /// interrupt (at this op, after any skid).
    pub fn observe_op(&mut self, op: OpRecord<'_>) -> Option<Sample> {
        self.observe(1, op.ip, op.core, op.mem)
    }

    /// Feed a batch of `n` retired non-memory ops at `ip` in one call
    /// (loop bookkeeping, arithmetic bursts). At most one sample is
    /// delivered per batch; IBS tags at most one op per period anyway, so
    /// for `n` well below the period this loses nothing. Non-memory ops
    /// never count toward a marked event but do drain a pending skid.
    pub fn observe_quiet(&mut self, n: u64, ip: u64, core: CoreId) -> Option<Sample> {
        if n == 0 {
            return None;
        }
        self.observe(n, ip, core, None)
    }

    fn observe(
        &mut self,
        n: u64,
        ip: u64,
        core: CoreId,
        mem: Option<(&AccessResult, u64, bool)>,
    ) -> Option<Sample> {
        self.tagged_last = false;
        // A tagged sample waiting out its skid takes priority; the counter
        // does not run while the interrupt is pending (hardware serializes
        // op records the same way).
        if let Some((sample, remaining)) = self.pending.take() {
            if u64::from(remaining) < n {
                self.samples += 1;
                return Some(Sample { signal_ip: ip, ..sample });
            }
            self.pending = Some((sample, remaining - n as u32));
            return None;
        }
        if let SampleOrigin::Marked(event) = self.origin {
            if !mem.is_some_and(|(res, ..)| event.matches(res.source)) {
                return None;
            }
        }
        if self.countdown > n {
            self.countdown -= n;
            return None;
        }
        self.countdown = self.jittered();

        // Tag this op (latch SIAR/SDAR).
        self.tagged_last = true;
        let mut sample = Sample {
            origin: self.origin,
            precise_ip: ip,
            signal_ip: ip,
            ea: None,
            latency: 0,
            source: None,
            tlb_miss: false,
            is_store: false,
            core,
        };
        if let Some((res, ea, is_store)) = mem {
            sample.ea = Some(ea);
            sample.latency = res.latency;
            sample.source = Some(res.source);
            sample.tlb_miss = res.tlb_miss;
            sample.is_store = is_store;
        }
        if self.skid == 0 {
            self.samples += 1;
            return Some(sample);
        }
        self.pending = Some((sample, self.skid - 1));
        None
    }

    /// Did the most recent observe call tag a new sample (as opposed to
    /// merely counting, or delivering one tagged earlier)? When true, the
    /// pending sample's captured latency/source came from the op just
    /// fed — the execution engine uses this to correct provisional values
    /// before delivery.
    #[inline]
    pub fn just_tagged(&self) -> bool {
        self.tagged_last
    }

    /// Total samples delivered.
    pub fn samples_taken(&self) -> u64 {
        self.samples
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::DomainId;

    fn ibs(period: u64, skid: u32, seed: u64) -> Pmu {
        Pmu::new(PmuConfig::Ibs { period, skid }, seed)
    }

    fn marked(event: MarkedEvent, threshold: u64, skid: u32) -> Pmu {
        Pmu::new(PmuConfig::Marked { event, threshold, skid }, 1)
    }

    fn res(latency: u32, source: DataSource) -> AccessResult {
        AccessResult { latency, source, tlb_miss: false, home: DomainId(0) }
    }

    fn feed_n(pmu: &mut Pmu, n: u64, base_ip: u64) -> Vec<Sample> {
        let r = res(42, DataSource::LocalDram);
        (base_ip..base_ip + n)
            .filter_map(|ip| {
                pmu.observe_op(OpRecord { ip, core: CoreId(0), mem: Some((&r, 0xabcd, false)) })
            })
            .collect()
    }

    #[test]
    fn sampling_rate_approximates_period() {
        let n = feed_n(&mut ibs(100, 0, 7), 100_000, 0).len() as f64;
        assert!((n - 1000.0).abs() < 100.0, "got {n} samples for period 100");
    }

    #[test]
    fn skid_shifts_signal_ip_but_not_precise_ip() {
        let samples = feed_n(&mut ibs(10, 3, 1), 1000, 0);
        assert!(!samples.is_empty());
        for s in &samples {
            assert_eq!(s.signal_ip, s.precise_ip + 3, "skid must be 3 ops");
        }
    }

    #[test]
    fn zero_skid_delivers_inline() {
        for s in &feed_n(&mut ibs(10, 0, 1), 100, 0) {
            assert_eq!(s.signal_ip, s.precise_ip);
        }
    }

    #[test]
    fn non_memory_ops_sampled_without_ea() {
        let mut pmu = ibs(5, 0, 3);
        let mut got = 0;
        for i in 0..100u64 {
            if let Some(s) = pmu.observe_op(OpRecord { ip: i, core: CoreId(1), mem: None }) {
                assert_eq!(s.ea, None);
                assert_eq!(s.source, None);
                assert_eq!(s.origin, SampleOrigin::Ibs);
                got += 1;
            }
        }
        assert!(got > 10);
    }

    #[test]
    fn deterministic_for_same_seed() {
        let sa = feed_n(&mut ibs(37, 2, 99), 10_000, 0);
        let sb = feed_n(&mut ibs(37, 2, 99), 10_000, 0);
        assert_eq!(sa.len(), sb.len());
        for (x, y) in sa.iter().zip(&sb) {
            assert_eq!(x.precise_ip, y.precise_ip);
        }
    }

    #[test]
    fn different_seeds_decorrelate() {
        let ips = |seed| -> Vec<u64> {
            feed_n(&mut ibs(37, 0, seed), 10_000, 0).iter().map(|s| s.precise_ip).collect()
        };
        assert_ne!(ips(1), ips(2));
    }

    #[test]
    fn captures_latency_and_source() {
        let r = res(42, DataSource::LocalDram);
        let op = OpRecord { ip: 5, core: CoreId(0), mem: Some((&r, 0xabcd, true)) };
        let s = ibs(1, 0, 0).observe_op(op).expect("period 1 samples every op");
        assert_eq!(s.latency, 42);
        assert_eq!(s.source, Some(DataSource::LocalDram));
        assert!(s.is_store);
        assert_eq!(s.ea, Some(0xabcd));
    }

    #[test]
    #[should_panic]
    fn zero_period_panics() {
        let _ = ibs(0, 0, 0);
    }

    /// Regression snapshot: the jittered IBS sample stream for a fixed
    /// seed. The PRNG behind period jitter is part of the profiler's
    /// observable behavior — a PRNG change silently reshuffles every
    /// profile, so the exact tag points for seed 42 are pinned here.
    #[test]
    fn ibs_sample_stream_snapshot_for_seed_42() {
        let samples = feed_n(&mut ibs(100, 2, 42), 2000, 0);
        let ips: Vec<u64> = samples.iter().map(|s| s.precise_ip).collect();
        assert_eq!(
            ips,
            [101, 211, 306, 401, 499, 595, 709, 817, 923, 1013, 1120, 1222, 1329, 1437, 1547,
             1643, 1751, 1862, 1966],
        );
        for s in &samples {
            assert_eq!(s.signal_ip, s.precise_ip + 2, "skid of 2 ops");
        }
    }

    #[test]
    fn only_matching_sources_count() {
        let mut pmu = marked(MarkedEvent::DataFromRmem, 2, 0);
        let local = res(100, DataSource::LocalDram);
        let remote = res(100, DataSource::RemoteDram);
        for i in 0..10u64 {
            let s = pmu.observe_op(OpRecord {
                ip: i,
                core: CoreId(0),
                mem: Some((&local, 0x10, false)),
            });
            assert!(s.is_none(), "local accesses must never sample DATA_FROM_RMEM");
        }
        let mut got = 0;
        for i in 0..10u64 {
            if pmu
                .observe_op(OpRecord { ip: i, core: CoreId(0), mem: Some((&remote, 0x20, false)) })
                .is_some()
            {
                got += 1;
            }
        }
        assert_eq!(got, 5, "threshold 2 samples every other matching event");
    }

    #[test]
    fn siar_sdar_latched_from_triggering_op() {
        let mut pmu = marked(MarkedEvent::DataFromRmem, 1, 0);
        let remote = res(100, DataSource::RemoteDram);
        let s = pmu
            .observe_op(OpRecord { ip: 0x77, core: CoreId(3), mem: Some((&remote, 0x1234, true)) })
            .expect("threshold 1 fires immediately");
        assert_eq!(s.precise_ip, 0x77);
        assert_eq!(s.ea, Some(0x1234));
        assert!(s.is_store);
        assert_eq!(s.origin, SampleOrigin::Marked(MarkedEvent::DataFromRmem));
    }

    #[test]
    fn marked_skid_delays_delivery_and_sets_signal_ip() {
        let mut pmu = marked(MarkedEvent::DataFromMem, 1, 2);
        let dram = res(100, DataSource::LocalDram);
        assert!(pmu
            .observe_op(OpRecord { ip: 1, core: CoreId(0), mem: Some((&dram, 0x8, false)) })
            .is_none());
        // Two more ops (even non-memory) drain the skid.
        assert!(pmu.observe_op(OpRecord { ip: 2, core: CoreId(0), mem: None }).is_none());
        let s = pmu
            .observe_op(OpRecord { ip: 3, core: CoreId(0), mem: None })
            .expect("delivered after skid");
        assert_eq!(s.precise_ip, 1);
        assert_eq!(s.signal_ip, 3);
    }

    #[test]
    fn from_mem_matches_both_dram_sources() {
        let mut pmu = marked(MarkedEvent::DataFromMem, 1, 0);
        for src in [DataSource::LocalDram, DataSource::RemoteDram] {
            let r = res(100, src);
            assert!(pmu
                .observe_op(OpRecord { ip: 0, core: CoreId(0), mem: Some((&r, 0, false)) })
                .is_some());
        }
        let l3 = res(100, DataSource::L3);
        assert!(pmu
            .observe_op(OpRecord { ip: 0, core: CoreId(0), mem: Some((&l3, 0, false)) })
            .is_none());
    }

    #[test]
    fn event_name_strings() {
        assert_eq!(MarkedEvent::DataFromRmem.name(), "PM_MRK_DATA_FROM_RMEM");
        assert_eq!(MarkedEvent::DataFromL3.name(), "PM_MRK_DATA_FROM_L3");
    }

    #[test]
    #[should_panic]
    fn zero_threshold_panics() {
        let _ = marked(MarkedEvent::DataFromRmem, 0, 0);
    }

    /// Regression snapshot: the jittered marked-event sample stream for a
    /// fixed seed. Pins the PRNG behind threshold jitter — a PRNG change
    /// would silently reshuffle which remote accesses get sampled.
    #[test]
    fn marked_sample_stream_snapshot_for_seed_42() {
        let cfg = PmuConfig::Marked { event: MarkedEvent::DataFromRmem, threshold: 8, skid: 0 };
        let mut pmu = Pmu::new(cfg, 42);
        let remote = res(100, DataSource::RemoteDram);
        let mut ips = Vec::new();
        for i in 0..200u64 {
            if let Some(s) =
                pmu.observe_op(OpRecord { ip: i, core: CoreId(0), mem: Some((&remote, i, false)) })
            {
                ips.push(s.precise_ip);
            }
        }
        assert_eq!(ips, [9, 19, 28, 38, 48, 55, 63, 70, 80, 90, 98, 106, 113, 123, 132, 138,
                         146, 152, 158, 166, 176, 186, 194]);
        assert_eq!(pmu.samples_taken(), 23);
    }

    /// Delivered `(precise_ip, signal_ip, source)` triples and the stream
    /// positions at which a sample was tagged.
    type Stream = (Vec<(u64, u64, Option<DataSource>)>, Vec<u64>);

    const R: Option<DataSource> = Some(DataSource::RemoteDram);
    const L: Option<DataSource> = Some(DataSource::LocalDram);
    const N: Option<DataSource> = None;

    /// Feed one fixed mixed stream: loads and stores sourced from local
    /// and remote DRAM, non-memory ops and quiet batches of 1–20 ops.
    fn mixed_stream(mut pmu: Pmu) -> Stream {
        let local = res(40, DataSource::LocalDram);
        let remote = res(300, DataSource::RemoteDram);
        let (mut delivered, mut tagged) = (Vec::new(), Vec::new());
        for i in 0..400u64 {
            let mem = |res| Some((res, 0x1000 + 8 * i, i % 3 == 0));
            let op = |mem| OpRecord { ip: i, core: CoreId(0), mem };
            let s = match i % 7 {
                0 | 3 => pmu.observe_op(op(mem(&remote))),
                1 | 5 => pmu.observe_op(op(mem(&local))),
                2 => pmu.observe_op(op(None)),
                _ => pmu.observe_quiet(1 + (i * 13) % 20, i, CoreId(0)),
            };
            if pmu.just_tagged() {
                tagged.push(i);
            }
            if let Some(s) = s {
                delivered.push((s.precise_ip, s.signal_ip, s.source));
            }
        }
        (delivered, tagged)
    }

    /// Regression snapshot of the IBS engine on a stream that mixes every
    /// op kind: counting through quiet batches, skid drained by a batch,
    /// and the `just_tagged` positions the shard uses for its fix slot.
    #[test]
    fn ibs_mixed_stream_snapshot() {
        let (delivered, tagged) =
            mixed_stream(Pmu::new(PmuConfig::Ibs { period: 37, skid: 2 }, 42));
        assert_eq!(
            delivered,
            [
                (7, 9, R), (23, 25, N), (33, 34, L), (46, 48, N), (60, 62, N), (69, 71, N),
                (83, 85, N), (95, 97, N), (109, 111, N), (122, 123, R), (132, 134, N),
                (146, 148, N), (161, 163, R), (172, 174, N), (186, 188, N), (199, 201, R),
                (209, 211, N), (223, 225, N), (235, 237, N), (249, 251, N), (263, 265, N),
                (277, 279, N), (290, 291, R), (305, 307, N), (321, 323, N), (333, 335, N),
                (349, 351, N), (362, 363, L), (375, 377, N), (389, 391, N)
            ]
        );
        assert_eq!(
            tagged,
            [
                7, 23, 33, 46, 60, 69, 83, 95, 109, 122, 132, 146, 161, 172, 186, 199, 209, 223,
                235, 249, 263, 277, 290, 305, 321, 333, 349, 362, 375, 389
            ]
        );
    }

    /// Regression snapshot of the marked engine on the same stream: only
    /// remote memory ops count, quiet batches never count but do deliver.
    #[test]
    fn marked_mixed_stream_snapshot() {
        let cfg = PmuConfig::Marked { event: MarkedEvent::DataFromRmem, threshold: 8, skid: 1 };
        let (delivered, tagged) = mixed_stream(Pmu::new(cfg, 42));
        assert_eq!(
            delivered,
            [
                (31, 32, R), (66, 67, R), (98, 99, R), (133, 134, R), (168, 169, R), (192, 193, R),
                (220, 221, R), (245, 246, R), (280, 281, R), (315, 316, R), (343, 344, R),
                (371, 372, R), (395, 396, R)
            ]
        );
        assert_eq!(tagged, [31, 66, 98, 133, 168, 192, 220, 245, 280, 315, 343, 371, 395]);
    }
}
