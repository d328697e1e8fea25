//! Inputs the workloads are fed: profile bundles made by real simulated
//! runs, and the seeded schedules that order them.
//!
//! The simulated programs are fixed; the seed only orders and mixes what
//! they produced. The same seed gives the same inputs.

use dcp_core::prelude::*;
use dcp_core::{bundle_from_measurement, encode_bundle};
use dcp_support::bytes::Bytes;
use dcp_support::rng::SmallRng;
use dcp_workloads::streamcluster::{self, ScConfig, ScVariant};

use crate::sizes::Sizes;
use crate::wl_sim::amg_case;

/// The two bundle shapes the serving workloads push.
pub struct Bundles {
    /// A Streamcluster node: a few kilobytes.
    pub small: Bytes,
    /// AMG nodes: tens of kilobytes each (wide heap and static trees).
    pub large: Vec<Bytes>,
}

impl Bundles {
    /// Profile one Streamcluster run and one AMG run and package every
    /// node's measurement as a self-describing bundle.
    pub fn make(sizes: &Sizes) -> Self {
        let sc = if sizes.bundle_sc_paper {
            ScConfig::paper(ScVariant::Original)
        } else {
            ScConfig::small(ScVariant::Original)
        };
        let prog = streamcluster::build(&sc);
        let mut world = streamcluster::world(&sc);
        world.sim.pmu = Some(dcp_bench::rmem_sampling(4));
        let run = run_profiled(&prog, &world, ProfilerConfig::default());
        let small = encode_bundle(&bundle_from_measurement(&prog, &run.measurements[0]));

        let amg = amg_case(&sizes.bundle_amg);
        let run = run_profiled(&amg.prog, &amg.world, ProfilerConfig::default());
        let large = run
            .measurements
            .iter()
            .map(|m| encode_bundle(&bundle_from_measurement(&amg.prog, m)))
            .collect();
        Self { small, large }
    }

    /// The `i`-th bundle of a stream in which one in `large_every` is
    /// large: the mix is fixed, so byte totals do not depend on the seed.
    pub fn pick(&self, i: usize, large_every: usize) -> &Bytes {
        if i % large_every == large_every - 1 {
            &self.large[(i / large_every) % self.large.len()]
        } else {
            &self.small
        }
    }
}

/// One push of a schedule: which bundle goes to which slot.
#[derive(Debug, Clone)]
pub struct Push {
    pub set: usize,
    pub seq: u64,
    pub bundle: Bytes,
}

/// A per-set push stream: `count` bundles with explicit sequence numbers
/// `0..count`, small and large in a fixed ratio but in seeded order.
pub fn push_stream(
    bundles: &Bundles,
    set: usize,
    count: usize,
    large_every: usize,
    seed: u64,
) -> Vec<Push> {
    let mut order: Vec<usize> = (0..count).collect();
    shuffle(&mut order, seed ^ (0x9e37 + set as u64));
    order
        .into_iter()
        .enumerate()
        .map(|(seq, i)| Push {
            set,
            seq: seq as u64,
            bundle: bundles.pick(i, large_every).clone(),
        })
        .collect()
}

/// Fisher-Yates with the in-tree generator.
pub fn shuffle<T>(items: &mut [T], seed: u64) {
    let mut g = SmallRng::seed_from_u64(seed);
    for i in (1..items.len()).rev() {
        let j = g.gen_range(0usize..i + 1);
        items.swap(i, j);
    }
}

/// Profile-set names of the serving workloads.
pub const SETS: [&str; 2] = ["alpha", "beta"];

/// The six-view mix a dashboard polls, for one set: `ranking` twice (two
/// metrics), `topdown`, `bottomup`, `flat`, `vars`.
pub fn view_queries(set: &str) -> [String; 6] {
    [
        format!("ranking {set} remote 12"),
        format!("ranking {set} samples 12"),
        format!("topdown {set} heap remote"),
        format!("bottomup {set} remote"),
        format!("flat {set} heap remote 12"),
        format!("vars {set} remote"),
    ]
}

/// A seeded schedule of `count` indices into a query list of `n`.
pub fn query_schedule(n: usize, count: usize, seed: u64) -> Vec<usize> {
    let mut g = SmallRng::seed_from_u64(seed);
    (0..count).map(|_| g.gen_range(0usize..n)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        let mut a: Vec<u32> = (0..100).collect();
        let mut b = a.clone();
        shuffle(&mut a, 7);
        shuffle(&mut b, 7);
        assert_eq!(a, b, "same seed, same order");
        let mut c: Vec<u32> = (0..100).collect();
        shuffle(&mut c, 8);
        assert_ne!(a, c, "another seed, another order");
        a.sort_unstable();
        assert_eq!(a, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn query_schedule_repeats_for_a_seed() {
        assert_eq!(query_schedule(6, 50, 3), query_schedule(6, 50, 3));
        assert!(query_schedule(6, 50, 3).iter().all(|&i| i < 6));
    }
}
