//! `analyze_merge`: the post-mortem path, encode beside decode.
//!
//! Set-up profiles scaled-down runs of the two simulated programs and
//! replicates each node's measurement as R "ranks" in seeded order. One
//! timed pass then does what shipping R ranks' data to the analyzer
//! does: `encode_measurement` on every rank (the write side),
//! `dcp_cct::validate` on every blob, `Analysis::analyze_encoded` (the
//! streamed reduction-tree merge), then the `ranking`, `top_down` and
//! `bottom_up` views. dcp-cct does most of the work; the simulator and
//! the sockets do none. Encode runs beside decode so that a codec change
//! that speeds one and slows the other shows.
//!
//! Output check: the streamed result re-encodes to the same bytes, class
//! by class, as the in-memory `Analysis::analyze` of the same ranks; and
//! every pass renders the same views.

use std::hash::Hasher;
use std::time::Duration;

use dcp_cct::{decode, encode, encode_v1, validate};
use dcp_core::analyze::{encode_measurement, Analysis, EncodedMeasurement};
use dcp_core::metrics::{Metric as ProfMetric, StorageClass};
use dcp_core::prelude::*;
use dcp_core::profiler::MeasurementData;
use dcp_runtime::Program;
use dcp_support::FxHasher;

use crate::host::{timed_passes, timed_setup};
use crate::inputs::shuffle;
use crate::metric::{trace_overhead, Metric, Outcome};
use crate::sizes::Sizes;
use crate::trace::Recorder;
use crate::wl_sim::{amg_case, sweep_case, SimCase};
use crate::workload::Ctx;

/// One program's measurements, replicated as ranks.
struct Input {
    prog: Program,
    ranks: Vec<MeasurementData>,
}

fn clone_measurement(m: &MeasurementData) -> MeasurementData {
    MeasurementData {
        profiles: m.profiles.clone(),
        alloc_info: m.alloc_info.clone(),
        stats: m.stats.clone(),
    }
}

fn make_inputs(sizes: &Sizes, seed: u64) -> Vec<Input> {
    [
        sweep_case(&sizes.analyze_sweep),
        amg_case(&sizes.analyze_amg),
    ]
    .into_iter()
    .enumerate()
    .map(|(i, SimCase { prog, world })| {
        let run = run_profiled(&prog, &world, ProfilerConfig::default());
        let mut ranks: Vec<MeasurementData> = (0..sizes.analyze_replicas)
            .flat_map(|_| run.measurements.iter().map(clone_measurement))
            .collect();
        shuffle(&mut ranks, seed ^ (0xa11a + i as u64));
        Input { prog, ranks }
    })
    .collect()
}

/// What one pass leaves behind for the checks and the counts.
struct PassResult {
    /// Encoded (v2) bytes that went through validate and merge.
    bytes: u64,
    /// Nodes across every input tree (roots included).
    input_nodes: u64,
    /// Nodes across the merged per-class trees.
    merged_nodes: u64,
    /// Hash of the rendered views.
    views: u64,
    /// `encode` of each merged class tree, per input.
    merged: Vec<Vec<dcp_support::bytes::Bytes>>,
}

fn one_pass(inputs: &[Input], rec: &mut Recorder, op: u64) -> PassResult {
    let mut r = PassResult {
        bytes: 0,
        input_nodes: 0,
        merged_nodes: 0,
        views: 0,
        merged: Vec::new(),
    };
    let mut views = FxHasher::default();
    for input in inputs {
        let id = rec.begin("cct.encode", op);
        let encoded: Vec<EncodedMeasurement> = input
            .ranks
            .iter()
            .map(|m| encode_measurement(&input.prog, m))
            .collect();
        rec.end(id);

        let id = rec.begin("cct.validate", op);
        for blob in encoded.iter().flat_map(|m| m.profiles.iter().flatten()) {
            let summary = validate(blob.clone()).expect("a blob this process encoded validates");
            r.bytes += blob.len() as u64;
            r.input_nodes += summary.nodes as u64;
        }
        rec.end(id);

        let id = rec.begin("cct.merge_streamed", op);
        let analysis =
            Analysis::analyze_encoded(&input.prog, encoded).expect("validated blobs merge");
        rec.end(id);

        let id = rec.begin("core.view_ranking", op);
        views.write(ranking(&analysis, ProfMetric::Latency, 12).as_bytes());
        rec.end(id);
        let id = rec.begin("core.view_topdown", op);
        views.write(
            top_down(
                &analysis,
                StorageClass::Heap,
                ProfMetric::Latency,
                TopDownOpts::default(),
            )
            .as_bytes(),
        );
        rec.end(id);
        let id = rec.begin("core.view_bottomup", op);
        views.write(bottom_up(&analysis, ProfMetric::Latency).as_bytes());
        rec.end(id);

        let merged: Vec<_> = StorageClass::ALL
            .iter()
            .map(|&c| encode(analysis.tree(c)))
            .collect();
        r.merged_nodes += StorageClass::ALL
            .iter()
            .map(|&c| analysis.tree(c).len() as u64)
            .sum::<u64>();
        r.merged.push(merged);
    }
    r.views = views.finish();
    r
}

pub fn run(ctx: &mut Ctx) -> Outcome {
    let mut out = Outcome::default();
    let (sizes, seed) = (ctx.sizes, ctx.seed);
    let (inputs, setup_secs) = timed_setup(
        Duration::from_secs_f64(sizes.setup_budget_s),
        || make_inputs(&sizes, seed),
        drop,
    );

    // Untimed warm-up pass; its result is the reference the timed passes
    // must repeat.
    let mut off = Recorder::new(false);
    let reference = one_pass(&inputs, &mut off, 0);

    let traced = ctx.traced();
    let (seconds, min_passes) = ctx.pass_budget();
    let rec = &mut ctx.rec;
    let mut untraced_secs = Vec::new();
    let rounds = sizes.analyze_rounds.max(1);
    let passes = timed_passes(seconds, min_passes, |i| {
        // A timed pass is `rounds` runs of the pipeline, reported as the
        // mean seconds of one, so that a pass is long enough for its
        // time to repeat.
        let t0 = std::time::Instant::now();
        let mut r = one_pass(&inputs, rec, (i * rounds) as u64 + 1);
        for round in 1..rounds {
            let again = one_pass(&inputs, rec, (i * rounds + round) as u64 + 1);
            if again.views != r.views || again.merged != r.merged {
                // Any round that disagrees fails the pass's check below.
                r.views = !reference.views;
            }
        }
        let secs = t0.elapsed().as_secs_f64() / rounds as f64;
        if traced {
            // The same rounds with the recorder off: tracing's own cost.
            let t0 = std::time::Instant::now();
            for _ in 0..rounds {
                one_pass(&inputs, &mut off, 0);
            }
            untraced_secs.push(t0.elapsed().as_secs_f64() / rounds as f64);
        }
        (secs, r)
    });
    for (i, (_, r)) in passes.iter().enumerate() {
        out.check(
            r.views == reference.views && r.merged == reference.merged,
            || format!("pass {i}: merged trees or rendered views differ from the warm-up pass"),
        );
    }

    // Streamed against in-memory, class by class.
    for (input, streamed) in inputs.iter().zip(&reference.merged) {
        let inmem = Analysis::analyze(
            &input.prog,
            input.ranks.iter().map(clone_measurement).collect(),
        );
        for (&class, bytes) in StorageClass::ALL.iter().zip(streamed) {
            out.check(&encode(inmem.tree(class)) == bytes, || {
                format!(
                    "{}: streamed merge of class {} encodes differently from the in-memory merge",
                    input.prog.modules[0].name,
                    class.name()
                )
            });
        }
    }

    let pass_secs: Vec<f64> = passes.iter().map(|(s, _)| *s).collect();
    let bytes = reference.bytes as f64;
    if !traced {
        let rates: Vec<f64> = pass_secs.iter().map(|s| bytes / s).collect();
        let pass_ms: Vec<f64> = pass_secs.iter().map(|s| s * 1e3).collect();
        out.push(Metric::of("setup_s", &setup_secs));
        out.push(Metric::of("work_per_s", &rates));
        out.push(Metric::of("op_ms_p50", &pass_ms));
        out.push(Metric::of("op_ms_tail", &pass_ms));
        out.push(Metric::one("output_bytes", bytes));
        out.push(Metric::of(
            "analyze_mib_per_s",
            &rates
                .iter()
                .map(|r| r / (1 << 20) as f64)
                .collect::<Vec<_>>(),
        ));
    } else {
        let nodes = reference.input_nodes as f64;
        let per_node = |rec: &Recorder, name: &str| -> Vec<f64> {
            rec.self_ns_of(name).iter().map(|ns| ns / nodes).collect()
        };
        out.push(Metric::of(
            "cct.encode_ns_per_node",
            &per_node(rec, "cct.encode"),
        ));
        out.push(Metric::of(
            "cct.validate_ns_per_node",
            &per_node(rec, "cct.validate"),
        ));
        out.push(Metric::of(
            "cct.merge_streamed_ns_per_node",
            &per_node(rec, "cct.merge_streamed"),
        ));
        for (metric, span) in [
            ("core.view_ranking_us", "core.view_ranking"),
            ("core.view_topdown_us", "core.view_topdown"),
            ("core.view_bottomup_us", "core.view_bottomup"),
        ] {
            let us: Vec<f64> = rec.self_ns_of(span).iter().map(|ns| ns / 1e3).collect();
            out.push(Metric::of(metric, &us));
        }
        out.push(trace_overhead(&pass_secs, &untraced_secs));

        // The two stages a pass does not contain: full decode, and the
        // in-memory merge the streamed one replaced.
        let blobs: Vec<dcp_support::bytes::Bytes> = inputs
            .iter()
            .flat_map(|input| {
                input.ranks.iter().flat_map(|m| {
                    encode_measurement(&input.prog, m)
                        .profiles
                        .into_iter()
                        .flatten()
                })
            })
            .collect();
        for rep in 0..sizes.micro_reps as u64 {
            let id = rec.begin("cct.decode", rep);
            for b in &blobs {
                std::hint::black_box(decode(b.clone()).expect("decode").len());
            }
            rec.end(id);
            let cloned: Vec<Vec<MeasurementData>> = inputs
                .iter()
                .map(|i| i.ranks.iter().map(clone_measurement).collect())
                .collect();
            let id = rec.begin("cct.merge_inmem", rep);
            for (input, ranks) in inputs.iter().zip(cloned) {
                std::hint::black_box(Analysis::analyze(&input.prog, ranks).stats.samples);
            }
            rec.end(id);
        }
        out.push(Metric::of(
            "cct.decode_ns_per_node",
            &per_node(rec, "cct.decode"),
        ));
        out.push(Metric::of(
            "cct.merge_inmem_ns_per_node",
            &per_node(rec, "cct.merge_inmem"),
        ));

        let v1_bytes: u64 = inputs
            .iter()
            .flat_map(|i| i.ranks.iter())
            .flat_map(|m| m.profiles.iter().flatten())
            .map(|t| encode_v1(t).len() as u64)
            .sum();
        // Named blobs carry a string table v1 has no room for; compare
        // the plain v2 encoding of the same trees.
        let v2_plain: u64 = inputs
            .iter()
            .flat_map(|i| i.ranks.iter())
            .flat_map(|m| m.profiles.iter().flatten())
            .map(|t| encode(t).len() as u64)
            .sum();
        out.push(Metric::one("cct.bytes_per_node", bytes / nodes));
        out.push(Metric::one(
            "cct.v2_over_v1_bytes",
            v2_plain as f64 / v1_bytes.max(1) as f64,
        ));
        out.push(Metric::one(
            "cct.merged_nodes_per_input_node",
            reference.merged_nodes as f64 / nodes,
        ));
    }
    out.notes.push(format!(
        "{} ranks ({} + {}), {} encoded bytes and {} input nodes per pass, {} merged nodes",
        inputs.iter().map(|i| i.ranks.len()).sum::<usize>(),
        inputs[0].ranks.len(),
        inputs[1].ranks.len(),
        reference.bytes,
        reference.input_nodes,
        reference.merged_nodes,
    ));
    out
}
