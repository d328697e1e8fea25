//! Integration tests of the measurement→serialization→merge pipeline on
//! real profiler output (not synthetic trees).

use dcp_cct::{decode, encode, encode_v1, merge_encoded, merge_sequential};
use dcp_core::prelude::*;
use dcp_core::MeasurementData;
use dcp_machine::{MachineConfig, PmuConfig};
use dcp_runtime::ir::ex::*;
use dcp_runtime::{Program, ProgramBuilder, SimConfig, WorldConfig};

fn program() -> Program {
    let mut b = ProgramBuilder::new("pipe");
    let region = b.outlined("work", 2, |p| {
        let (buf, len) = (p.param(0), p.param(1));
        p.omp_for(c(0), l(len), |p, i| {
            p.line(30);
            p.load(l(buf), mul(l(i), c(16)), 8);
            p.compute(2);
        });
    });
    let main = b.proc("main", 0, |p| {
        let buf = p.calloc(c(128 * 8192), "data");
        p.parallel(region, vec![l(buf), c(8192)]);
        p.free(l(buf));
    });
    b.build(main)
}

fn run() -> (u64, Vec<MeasurementData>) {
    let prog = program();
    let mut sim = SimConfig::new(MachineConfig::power7_node());
    sim.omp_threads = 16;
    sim.pmu = Some(PmuConfig::Ibs { period: 48, skid: 2 });
    let w = WorldConfig::single_node(sim, 1);
    let r = run_profiled(&prog, &w, ProfilerConfig::default());
    (r.stats.samples, r.measurements)
}

#[test]
fn real_profiles_roundtrip_through_codec() {
    let (_, measurements) = run();
    let mut trees = 0;
    for m in &measurements {
        for class in &m.profiles {
            for tree in class {
                let bytes = encode(tree);
                let back = decode(bytes).expect("decodes");
                assert_eq!(tree.canonical(), back.canonical());
                trees += 1;
            }
        }
    }
    assert!(trees >= 4, "expected several per-thread trees, got {trees}");
}

#[test]
fn merge_conserves_real_metrics() {
    let (samples, measurements) = run();
    // Flatten all heap trees and merge; totals must survive.
    let heap_trees: Vec<_> =
        measurements.into_iter().flat_map(|mut m| std::mem::take(&mut m.profiles[1])).collect();
    let per_tree_samples: u64 = heap_trees.iter().map(|t| t.total(0)).sum();
    let per_tree_latency: u64 = heap_trees.iter().map(|t| t.total(1)).sum();
    let merged = merge_sequential(heap_trees, dcp_core::METRIC_WIDTH);
    assert_eq!(merged.total(0), per_tree_samples);
    assert_eq!(merged.total(1), per_tree_latency);
    assert!(per_tree_samples <= samples);
    assert!(per_tree_samples > 0);
}

#[test]
fn profiled_runs_are_deterministic() {
    let (s1, m1) = run();
    let (s2, m2) = run();
    assert_eq!(s1, s2, "sample counts must match run to run");
    // Thread-by-thread canonical equality of the heap trees.
    let canon = |ms: &[MeasurementData]| -> Vec<_> {
        ms.iter()
            .flat_map(|m| m.profiles[1].iter())
            .map(|t| t.canonical())
            .collect::<Vec<_>>()
    };
    assert_eq!(canon(&m1), canon(&m2));
}

#[test]
fn merged_profile_is_compact() {
    // Per-thread profiles of the same parallel region coalesce: the
    // merged tree must be far smaller than the concatenation (the §2.2
    // scalability argument).
    let (_, measurements) = run();
    let heap_trees: Vec<_> =
        measurements.into_iter().flat_map(|mut m| std::mem::take(&mut m.profiles[1])).collect();
    let n_trees = heap_trees.len();
    let sum_nodes: usize = heap_trees.iter().map(|t| t.len()).sum();
    let merged = merge_sequential(heap_trees, dcp_core::METRIC_WIDTH);
    assert!(n_trees >= 8);
    assert!(
        merged.len() * (n_trees / 2) < sum_nodes,
        "merged {} nodes vs {} total across {} trees",
        merged.len(),
        sum_nodes,
        n_trees
    );
}

#[test]
fn v2_profiles_are_smaller_and_v1_still_decodes() {
    let (_, measurements) = run();
    let mut v1_total = 0usize;
    let mut v2_total = 0usize;
    for m in &measurements {
        for class in &m.profiles {
            for tree in class {
                let v1 = encode_v1(tree);
                let v2 = encode(tree);
                // Size comparison over trees with actual content; on
                // near-empty trees both formats are a fixed-size header.
                if tree.len() >= 8 {
                    v2_total += v2.len();
                    v1_total += v1.len();
                }
                // Backward compatibility: the legacy format decodes to
                // the same tree as the compact one.
                let from_v1 = decode(v1).expect("v1 decodes");
                let from_v2 = decode(v2).expect("v2 decodes");
                assert_eq!(from_v1.canonical(), from_v2.canonical());
            }
        }
    }
    assert!(v1_total > 0, "expected non-trivial per-thread trees");
    assert!(
        v2_total * 10 <= v1_total * 7,
        "v2 ({v2_total} B) must be well under v1 ({v1_total} B) on real profiles"
    );
}

#[test]
fn streamed_merge_of_real_profiles_is_byte_identical() {
    let (_, measurements) = run();
    let heap_trees: Vec<_> =
        measurements.into_iter().flat_map(|mut m| std::mem::take(&mut m.profiles[1])).collect();
    let blobs: Vec<_> = heap_trees.iter().map(encode).collect();
    let in_mem = merge_sequential(heap_trees, dcp_core::METRIC_WIDTH);
    let streamed = merge_encoded(blobs, dcp_core::METRIC_WIDTH).expect("valid profiles");
    assert_eq!(encode(&streamed), encode(&in_mem));
}

#[test]
fn streamed_analysis_matches_in_memory_analysis() {
    // End-to-end: profile → encode (with names) → stream-merge → analyze
    // must be observably identical to the all-in-memory path.
    let prog = program();
    let mut sim = SimConfig::new(MachineConfig::power7_node());
    sim.omp_threads = 16;
    sim.pmu = Some(PmuConfig::Ibs { period: 48, skid: 2 });
    let w = WorldConfig::single_node(sim, 1);

    let direct = run_profiled(&prog, &w, ProfilerConfig::default()).analyze(&prog);
    let streamed = run_profiled(&prog, &w, ProfilerConfig::default())
        .analyze_streamed(&prog)
        .expect("freshly encoded profiles are valid");

    let dv = direct.variables(Metric::Latency);
    let sv = streamed.variables(Metric::Latency);
    assert!(!dv.is_empty());
    assert_eq!(dv.len(), sv.len());
    for (d, s) in dv.iter().zip(&sv) {
        assert_eq!(d.name, s.name);
        assert_eq!(d.metrics, s.metrics);
        assert_eq!(d.alloc_count, s.alloc_count);
        assert_eq!(d.alloc_site, s.alloc_site);
    }
    for &c in StorageClass::ALL.iter() {
        assert_eq!(direct.tree(c).canonical(), streamed.tree(c).canonical());
    }
}

#[test]
fn profile_bytes_scale_sublinearly_with_work() {
    // 4x the work must not produce anywhere near 4x the profile bytes —
    // profiles grow with distinct contexts, not with execution length.
    let size_for = |iters: i64| {
        let mut b = ProgramBuilder::new("pipe");
        let main = b.proc("main", 0, |p| {
            let buf = p.calloc(c(1 << 18), "data");
            p.for_(c(0), c(iters), |p, i| {
                p.line(9);
                p.load(l(buf), rem(mul(l(i), c(61)), c(1 << 15)), 8);
            });
            p.free(l(buf));
        });
        let prog = b.build(main);
        let mut sim = SimConfig::new(MachineConfig::magny_cours());
        sim.pmu = Some(PmuConfig::Ibs { period: 32, skid: 1 });
        let w = WorldConfig::single_node(sim, 1);
        run_profiled(&prog, &w, ProfilerConfig::default()).profile_bytes
    };
    let small = size_for(10_000);
    let large = size_for(40_000);
    assert!(large < small * 2, "profile bytes {small} -> {large} must stay compact");
}
