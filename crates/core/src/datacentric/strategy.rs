//! Overhead-control strategies for variable tracking (§4.1.3).
//!
//! Tracking heap allocations is the expensive part of data-centric
//! measurement: each wrapped `malloc` must capture a full calling
//! context. The paper reports that naive tracking inflates AMG2006 by
//! 150% and describes three mitigations, all modeled here:
//!
//! 1. **Size threshold** — allocations under 4 KB are not tracked (their
//!    frees still are, cheaply, so nothing is misattributed).
//! 2. **Fast context read** — inline assembly instead of `getcontext`
//!    to capture the initial unwind context.
//! 3. **Trampoline** — mark the least-common-ancestor frame of temporally
//!    adjacent allocations so each unwind only walks the changed suffix.
//!
//! The reproduction's A1 experiment (`reproduce A1`) toggles these knobs
//! and regenerates the paper's 150% → <10% overhead reduction.

use dcp_machine::Cycles;
use dcp_runtime::FrameInfo;

/// Which overhead-control strategies are active.
#[derive(Debug, Clone, Copy)]
pub struct TrackingPolicy {
    /// Do not track allocations smaller than this many bytes (paper: 4K).
    pub min_tracked_bytes: u64,
    /// Use the marker/trampoline technique for incremental unwinds.
    pub trampoline: bool,
    /// Read the initial unwind context with inline assembly instead of
    /// libc `getcontext`.
    pub fast_context: bool,
}

impl Default for TrackingPolicy {
    fn default() -> Self {
        Self { min_tracked_bytes: 4096, trampoline: true, fast_context: true }
    }
}

impl TrackingPolicy {
    /// Naive tracking: everything the paper says *not* to do.
    pub fn naive() -> Self {
        Self { min_tracked_bytes: 0, trampoline: false, fast_context: false }
    }
}

/// Simulated costs of the profiler's own machinery, charged to monitored
/// threads through the observer-hook return values.
#[derive(Debug, Clone, Copy)]
pub struct ProfCosts {
    /// Signal delivery + PMU register reads per sample.
    pub sample_base: u32,
    /// Walking one frame during a sample unwind (binary analysis path).
    pub unwind_frame: u32,
    /// Variable-map lookup per sample.
    pub map_lookup: u32,
    /// CCT path insertion per sample.
    pub cct_insert: u32,
    /// Wrapper entry/exit per malloc-family call.
    pub alloc_wrap: u32,
    /// Capturing the initial unwind context via libc `getcontext`.
    pub getcontext_slow: u32,
    /// Capturing it with inline assembly.
    pub getcontext_fast: u32,
    /// Walking one frame during an *allocation* unwind.
    pub alloc_unwind_frame: u32,
    /// Wrapper cost per free (no unwinding; §4.1.3).
    pub free_wrap: u32,
}

impl Default for ProfCosts {
    fn default() -> Self {
        Self {
            sample_base: 600,
            unwind_frame: 70,
            map_lookup: 90,
            cct_insert: 130,
            alloc_wrap: 180,
            getcontext_slow: 900,
            getcontext_fast: 90,
            alloc_unwind_frame: 160,
            free_wrap: 70,
        }
    }
}

/// Trampoline state: the cached unwind of the previous allocation.
#[derive(Debug, Default)]
pub struct UnwindCache {
    /// Frame tokens of the last full unwind, root to leaf.
    tokens: Vec<u64>,
}

/// Result of an allocation-context capture.
#[derive(Debug)]
pub struct CaptureOutcome {
    /// Frames actually walked by the unwinder.
    pub frames_walked: usize,
    /// Overhead cycles to charge the allocating thread.
    pub cost: Cycles,
}

impl UnwindCache {
    pub fn new() -> Self {
        Self::default()
    }

    /// Capture the calling context of an allocation given the live stack,
    /// applying the policy's trampoline/fast-context strategies. Returns
    /// the cost and updates the cache.
    pub fn capture(
        &mut self,
        frames: &[FrameInfo],
        policy: &TrackingPolicy,
        costs: &ProfCosts,
    ) -> CaptureOutcome {
        let ctx_cost =
            if policy.fast_context { costs.getcontext_fast } else { costs.getcontext_slow };
        let walked = if policy.trampoline {
            // Walk from the leaf toward the root until we meet a frame
            // whose token matches the cached unwind at the same depth —
            // that frame is below the marker, so the prefix is known.
            let mut common = 0;
            for (i, f) in frames.iter().enumerate() {
                if self.tokens.get(i) == Some(&f.token) {
                    common = i + 1;
                } else {
                    break;
                }
            }
            frames.len() - common
        } else {
            frames.len()
        };
        self.tokens.clear();
        self.tokens.extend(frames.iter().map(|f| f.token));
        CaptureOutcome {
            frames_walked: walked,
            cost: costs.alloc_wrap as Cycles
                + ctx_cost as Cycles
                + walked as Cycles * costs.alloc_unwind_frame as Cycles,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcp_runtime::{Ip, ProcId};

    fn frames(tokens: &[u64]) -> Vec<FrameInfo> {
        tokens
            .iter()
            .map(|&t| FrameInfo { proc: ProcId(0), call_site: Some(Ip(t)), token: t })
            .collect()
    }

    #[test]
    fn naive_policy_walks_everything() {
        let mut cache = UnwindCache::new();
        let costs = ProfCosts::default();
        let policy = TrackingPolicy::naive();
        let st = frames(&[1, 2, 3, 4, 5]);
        let o1 = cache.capture(&st, &policy, &costs);
        assert_eq!(o1.frames_walked, 5);
        // Same stack again: still walks everything without the trampoline.
        let o2 = cache.capture(&st, &policy, &costs);
        assert_eq!(o2.frames_walked, 5);
        assert!(o2.cost > costs.getcontext_slow as u64);
    }

    #[test]
    fn trampoline_walks_only_suffix() {
        let mut cache = UnwindCache::new();
        let costs = ProfCosts::default();
        let policy = TrackingPolicy::default();
        let o1 = cache.capture(&frames(&[1, 2, 3, 4, 5]), &policy, &costs);
        assert_eq!(o1.frames_walked, 5, "cold cache walks all");
        // Identical stack: nothing to walk.
        let o2 = cache.capture(&frames(&[1, 2, 3, 4, 5]), &policy, &costs);
        assert_eq!(o2.frames_walked, 0);
        // Sibling call at depth 4: walk two frames (changed suffix).
        let o3 = cache.capture(&frames(&[1, 2, 3, 9, 10]), &policy, &costs);
        assert_eq!(o3.frames_walked, 2);
        assert!(o3.cost < o1.cost);
    }

    #[test]
    fn fast_context_is_cheaper() {
        let costs = ProfCosts::default();
        let st = frames(&[1, 2, 3]);
        let slow = UnwindCache::new().capture(
            &st,
            &TrackingPolicy { fast_context: false, ..TrackingPolicy::default() },
            &costs,
        );
        let fast = UnwindCache::new().capture(&st, &TrackingPolicy::default(), &costs);
        assert!(fast.cost + (costs.getcontext_slow - costs.getcontext_fast) as u64 == slow.cost);
    }

    #[test]
    fn token_reuse_does_not_false_match() {
        // Frames popped and re-pushed get fresh tokens, so a same-depth
        // different-frame stack never matches the cache.
        let mut cache = UnwindCache::new();
        let costs = ProfCosts::default();
        let policy = TrackingPolicy::default();
        cache.capture(&frames(&[1, 2, 3]), &policy, &costs);
        let o = cache.capture(&frames(&[1, 7, 8]), &policy, &costs);
        assert_eq!(o.frames_walked, 2);
    }
}
