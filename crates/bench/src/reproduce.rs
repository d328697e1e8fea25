//! The paper's evaluation as one table of experiments.
//!
//! Each [`Experiment`] asks a [`Lab`] for the simulations it needs,
//! renders its measured numbers beside the paper's as a markdown block,
//! and states the paper's shape claims as predicates over those numbers.
//! The `reproduce` binary prints the blocks; with `--check` it compares
//! each with the block committed between the same markers in
//! `EXPERIMENTS.md` ([`verify`]) and fails, naming the experiment, on any
//! false claim or changed byte. The prose around the blocks stays
//! hand-written.

use std::collections::HashMap;
use std::fmt::Write as _;

use dcp_cct::{Frame, NodeId, ROOT};
use dcp_core::prelude::*;
use dcp_core::ProfiledRun;
use dcp_machine::{MachineConfig, PmuConfig};
use dcp_runtime::ir::ex::*;
use dcp_runtime::{
    run_world, NullObserver, Program, ProgramBuilder, SimConfig, WorldConfig, WorldReport,
};
use dcp_workloads::{
    amg2006 as amg, cluster, lulesh, micro, nw, streamcluster as sc, sweep3d as sw,
};

use crate::{ibs_sampling, rmem_sampling};

/// Problem scale: the paper-size configs `EXPERIMENTS.md` records, or the
/// `small` configs the tier-1 test runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Paper,
    Small,
}

/// One workload world, named by its full configuration.
#[derive(Debug, Clone)]
enum Setup {
    Amg(amg::AmgConfig),
    Sweep(sw::SweepConfig),
    Lulesh(lulesh::LuleshConfig),
    Sc(sc::ScConfig),
    Nw(nw::NwConfig),
    Cluster(cluster::ClusterConfig),
}

impl Setup {
    fn build(&self) -> (Program, WorldConfig) {
        match self {
            Setup::Amg(c) => (amg::build(c), amg::world(c)),
            Setup::Sweep(c) => (sw::build(c), sw::world(c)),
            Setup::Lulesh(c) => (lulesh::build(c), lulesh::world(c)),
            Setup::Sc(c) => (sc::build(c), sc::world(c)),
            Setup::Nw(c) => (nw::build(c), nw::world(c)),
            Setup::Cluster(c) => (cluster::build(c), cluster::world(c)),
        }
    }
}

/// Runs the simulations the experiments ask for.
///
/// Bare (unprofiled) runs are memoised: T1, T2, the figures and S1 need
/// the same original and fixed worlds, and a bare run is a pure function
/// of its world. The key is the `Debug` rendering of the full workload
/// config, which derived `Debug` makes field-complete, so two worlds
/// share a run only if every field of their configs agrees (A1's
/// allocation-storm AMG is not T1's AMG). Profiled runs differ in
/// sampling or profiler config between experiments, so they are never
/// repeated and not kept.
pub struct Lab {
    size: Size,
    bare: HashMap<String, WorldReport<NullObserver>>,
}

impl Lab {
    pub fn new(size: Size) -> Self {
        Self { size, bare: HashMap::new() }
    }

    fn scale<V, C>(&self, paper: fn(V) -> C, small: fn(V) -> C, variant: V) -> C {
        match self.size {
            Size::Paper => paper(variant),
            Size::Small => small(variant),
        }
    }

    fn amg(&self, v: amg::AmgVariant) -> Setup {
        Setup::Amg(self.scale(amg::AmgConfig::paper, amg::AmgConfig::small, v))
    }

    fn sweep(&self, v: sw::SweepVariant) -> Setup {
        Setup::Sweep(self.scale(sw::SweepConfig::paper, sw::SweepConfig::small, v))
    }

    fn lulesh(&self, v: lulesh::LuleshVariant) -> Setup {
        Setup::Lulesh(self.scale(lulesh::LuleshConfig::paper, lulesh::LuleshConfig::small, v))
    }

    fn sc(&self, v: sc::ScVariant) -> Setup {
        Setup::Sc(self.scale(sc::ScConfig::paper, sc::ScConfig::small, v))
    }

    fn nw(&self, v: nw::NwVariant) -> Setup {
        Setup::Nw(self.scale(nw::NwConfig::paper, nw::NwConfig::small, v))
    }

    fn cluster(&self, p: cluster::ClusterPattern) -> Setup {
        let paper = |p| cluster::ClusterConfig::scaled(p, 32);
        Setup::Cluster(self.scale(paper, cluster::ClusterConfig::small, p))
    }

    /// The bare run of `setup`, simulated on first request.
    fn bare(&mut self, setup: &Setup) -> &WorldReport<NullObserver> {
        self.bare.entry(format!("{setup:?}")).or_insert_with(|| {
            let (prog, world) = setup.build();
            run_world(&prog, &world, |_| NullObserver).expect("workload worlds are well-formed")
        })
    }

    fn wall(&mut self, setup: &Setup) -> u64 {
        self.bare(setup).wall
    }

    fn profile(
        &self,
        setup: &Setup,
        pmu: PmuConfig,
        pcfg: ProfilerConfig,
    ) -> (Program, ProfiledRun) {
        let (prog, mut world) = setup.build();
        world.sim.pmu = Some(pmu);
        let run = run_profiled(&prog, &world, pcfg);
        (prog, run)
    }
}

/// What one experiment measured: markdown tables and shape claims.
#[derive(Default)]
pub struct Report {
    body: String,
    claims: Vec<Claim>,
}

/// One shape claim of the paper, as a predicate evaluated on this run.
#[derive(Debug)]
pub struct Claim {
    pub text: &'static str,
    pub holds: bool,
    /// Why the claim is weaker than the paper's; printed beside it.
    deviation: Option<&'static str>,
    /// Why the claim only holds at paper size; the `small` run skips it.
    pub paper_only: Option<&'static str>,
}

impl Claim {
    pub fn deviation(&mut self, why: &'static str) -> &mut Self {
        self.deviation = Some(why);
        self
    }

    pub fn paper_only(&mut self, why: &'static str) -> &mut Self {
        self.paper_only = Some(why);
        self
    }

    /// Whether the claim is checked at `size`.
    fn counts(&self, size: Size) -> bool {
        size == Size::Paper || self.paper_only.is_none()
    }
}

impl Report {
    /// Start a markdown table; `head` is its header cells joined by `|`.
    pub fn table(&mut self, head: &str) {
        if !self.body.is_empty() {
            self.body.push('\n');
        }
        let columns = head.split('|').count();
        let _ = writeln!(self.body, "| {head} |\n|{}", " --- |".repeat(columns));
    }

    /// One table row; `cells` joined by `|`.
    pub fn row(&mut self, cells: String) {
        let _ = writeln!(self.body, "| {cells} |");
    }

    /// A line of measured values outside any table.
    pub fn line(&mut self, text: String) {
        let _ = writeln!(self.body, "\n{text}");
    }

    /// State a claim; `holds` is its predicate's value on this run.
    pub fn claim(&mut self, text: &'static str, holds: bool) -> &mut Claim {
        self.claims.push(Claim { text, holds, deviation: None, paper_only: None });
        self.claims.last_mut().expect("just pushed")
    }

    pub fn claims(&self) -> &[Claim] {
        &self.claims
    }

    /// The claims that fail at `size`; a paper-size-only claim does not
    /// count against a `small` run.
    pub fn failures(&self, size: Size) -> impl Iterator<Item = &Claim> {
        self.claims.iter().filter(move |c| !c.holds && c.counts(size))
    }

    /// The block `EXPERIMENTS.md` holds for experiment `id`.
    pub fn render(&self, id: &str, size: Size) -> String {
        let mut out = format!("<!-- reproduce {id} -->\n{}\n", self.body);
        for c in &self.claims {
            let mark = match (c.holds, c.counts(size)) {
                (true, _) => "✔",
                (false, true) => "✘",
                (false, false) => "–",
            };
            let _ = write!(out, "- {mark} {}", c.text);
            if let Some(why) = c.deviation {
                let _ = write!(out, " *Deviation:* {why}");
            }
            out.push('\n');
        }
        let _ = writeln!(out, "<!-- /reproduce {id} -->");
        out
    }
}

/// One paper artifact: its id in DESIGN.md's experiment index, and how
/// to measure it.
pub struct Experiment {
    pub id: &'static str,
    pub measure: fn(&mut Lab) -> Report,
}

/// Every artifact of the paper's evaluation, in `EXPERIMENTS.md` order.
pub const EXPERIMENTS: &[Experiment] = &[
    Experiment { id: "T1", measure: table1 },
    Experiment { id: "T2", measure: table2 },
    Experiment { id: "F1", measure: fig1 },
    Experiment { id: "F2", measure: fig2 },
    Experiment { id: "F4/5", measure: fig4_5 },
    Experiment { id: "F6/7", measure: fig6_7 },
    Experiment { id: "F8/9", measure: fig8_9 },
    Experiment { id: "F10", measure: fig10 },
    Experiment { id: "F11", measure: fig11 },
    Experiment { id: "A1", measure: ablation_tracking },
    Experiment { id: "A2", measure: ablation_skid },
    Experiment { id: "S1", measure: speedups },
];

/// The block between `id`'s markers in `doc`, markers included.
pub fn committed_block<'d>(doc: &'d str, id: &str) -> Option<&'d str> {
    let open = format!("<!-- reproduce {id} -->\n");
    let close = format!("<!-- /reproduce {id} -->\n");
    let start = doc.find(&open)?;
    let end = start + doc[start..].find(&close)? + close.len();
    Some(&doc[start..end])
}

/// Everything wrong with experiment `id`'s measured `report` against the
/// committed document `doc`: each false claim, and a block that differs
/// from the committed one. Every error names the experiment.
pub fn verify(id: &str, report: &Report, size: Size, doc: &str) -> Vec<String> {
    let mut errors: Vec<String> =
        report.failures(size).map(|c| format!("{id}: claim does not hold: {}", c.text)).collect();
    let measured = report.render(id, size);
    match committed_block(doc, id) {
        None => errors.push(format!("{id}: EXPERIMENTS.md has no block for this experiment")),
        Some(committed) if committed != measured => {
            let (old, new) = committed
                .lines()
                .zip(measured.lines())
                .find(|(a, b)| a != b)
                .unwrap_or(("<block length>", "<block length>"));
            errors.push(format!("{id}: EXPERIMENTS.md has `{old}`, measured `{new}`"));
        }
        Some(_) => {}
    }
    errors
}

fn pct(part: u64, whole: u64) -> f64 {
    100.0 * part as f64 / whole.max(1) as f64
}

/// How much faster `new` is than `old`, in percent.
fn speedup(old: u64, new: u64) -> f64 {
    100.0 * (old as f64 - new as f64) / old.max(1) as f64
}

/// Share (percent of the grand total) of the variable named `name`.
fn var_share(vars: &[VarSummary], name: &str, metric: Metric, grand: u64) -> f64 {
    vars.iter().find(|v| v.name == name).map_or(0.0, |v| pct(v.metrics[metric.col()], grand))
}

/// Access sites (statement leaves) under `node` of `class`'s tree with
/// their `metric` values, hottest first.
fn sites(a: &Analysis, class: StorageClass, metric: Metric, node: NodeId) -> Vec<(String, u64)> {
    let tree = a.tree(class);
    let mut out = Vec::new();
    let mut stack = vec![node];
    while let Some(n) = stack.pop() {
        stack.extend(tree.children(n));
        let v = tree.metrics(n)[metric.col()];
        if v > 0 && matches!(tree.frame(n), Frame::Stmt(_)) {
            out.push((a.resolve_frame(tree.frame(n)), v));
        }
    }
    out.sort_by(|x, y| y.1.cmp(&x.1).then_with(|| x.0.cmp(&y.0)));
    out
}

fn table1(lab: &mut Lab) -> Report {
    const MRK: &str = "PM_MRK_DATA_FROM_RMEM";
    let rows = [
        ("AMG2006", MRK, 9.6, lab.amg(amg::AmgVariant::Original), rmem_sampling(16)),
        ("Sweep3D", "AMD IBS", 2.3, lab.sweep(sw::SweepVariant::Original), ibs_sampling(16384)),
        ("LULESH", "AMD IBS", 12.0, lab.lulesh(lulesh::LuleshVariant::ORIGINAL), ibs_sampling(64)),
        ("Streamcluster", MRK, 8.0, lab.sc(sc::ScVariant::Original), rmem_sampling(2)),
        ("NW", MRK, 3.9, lab.nw(nw::NwVariant::Original), rmem_sampling(6)),
    ];
    let mut r = Report::default();
    r.table(
        "code | events | overhead (paper) | overhead | profiler share | samples \
         | profile B (v2) | profile B (v1) | trace B",
    );
    let (mut overheads, mut shares) = (Vec::new(), Vec::new());
    let (mut v1, mut v2, mut trace) = (0, 0, 0);
    for (code, events, paper, setup, pmu) in rows {
        let base = lab.wall(&setup);
        let (_, run) = lab.profile(&setup, pmu, ProfilerConfig::default());
        let overhead = -speedup(base, run.wall);
        // Profiler cycles as a share of all cycles the monitored threads
        // executed (retired ops + memory latency + the profiler itself).
        let work: u64 = run.nodes.iter().map(|n| n.ops + n.machine_stats.total_latency).sum();
        let prof = run.stats.overhead_cycles;
        let share = pct(prof, prof + work);
        r.row(format!(
            "{code} | {events} | +{paper}% | +{overhead:.1}% | {share:.1}% | {} | {} | {} | {}",
            run.stats.samples, run.profile_bytes, run.profile_bytes_v1, run.trace_bytes
        ));
        overheads.push(overhead);
        shares.push(share);
        (v1, v2, trace) =
            (v1 + run.profile_bytes_v1, v2 + run.profile_bytes, trace + run.trace_bytes);
    }
    r.line(format!(
        "Totals: v2 {v2} B, v1 {v1} B ({:.1}% saved); MemProf-style traces {trace} B \
         ({}x the v2 profiles).",
        100.0 - pct(v2 as u64, v1 as u64),
        trace / v2.max(1)
    ));

    r.table("cluster workload | hottest link | msgs | util | mean queue delay | max queue delay | stalls");
    for (name, pattern) in [
        ("cluster_halo", cluster::ClusterPattern::Halo),
        ("cluster_hypercube", cluster::ClusterPattern::Hypercube),
    ] {
        let (_, run) =
            lab.profile(&lab.cluster(pattern), ibs_sampling(128), ProfilerConfig::default());
        let net = run.net.as_ref().expect("cluster worlds have a fabric");
        for (label, s) in net.hottest_links(3) {
            r.row(format!(
                "{name} | {label} | {} | {:.1}% | {:.1} | {} | {}",
                s.msgs,
                pct(s.busy, net.horizon),
                s.queue_delay_sum as f64 / s.msgs.max(1) as f64,
                s.queue_delay_max,
                s.stalls
            ));
        }
    }

    let band = |x: &f64| (2.3..=12.0).contains(x);
    let positive = overheads.iter().all(|&o| o > 0.0 && o <= 12.0);
    r.claim("every overhead is positive and at most the paper's 12%", positive);
    r.claim(
        "AMG2006, Sweep3D and LULESH overheads lie in the paper's 2.3–12% band",
        overheads[..3].iter().all(band),
    )
    .paper_only(
        "sampling rates are set per benchmark for the paper-size runs; small AMG samples too \
         sparsely to reach the band.",
    );
    r.claim(
        "Streamcluster's and NW's profiler cycle shares lie in the 2.3–12% band",
        shares[3..].iter().all(band),
    )
    .deviation(
        "the paper's band is wall-clock overhead, and theirs falls below it: the profiler's \
         added cycles do not lengthen these runs' critical path, so the band is checked on the \
         cycle share instead.",
    )
    .paper_only(
        "at small size NW's dense remote-event sampling lifts its cycle share above the band.",
    );
    r.claim("wire-format v2 profiles are at least 40% smaller than v1 in total", v2 * 10 <= v1 * 6);
    r.claim(
        "MemProf-style traces are at least 10x the compact profiles in total",
        trace >= 10 * v2,
    );
    r
}

fn table2(lab: &mut Lab) -> Report {
    let mut r = Report::default();
    r.table("variant | init | setup | solver | whole");
    r.row("paper original (s) | 26 | 420 | 105 | 551".into());
    r.row("paper numactl (s) | 52 | 426 | 87 | 565".into());
    r.row("paper libnuma (s) | 28 | 421 | 80 | 529".into());
    let mut m = Vec::new();
    for (name, variant) in [
        ("original", amg::AmgVariant::Original),
        ("numactl", amg::AmgVariant::NumactlInterleave),
        ("libnuma", amg::AmgVariant::LibnumaSelective),
    ] {
        let setup = lab.amg(variant);
        let run = lab.bare(&setup);
        let phase = |p| run.phase_wall(p).unwrap_or_else(|| panic!("AMG phase {p:?} missing"));
        let [init, setup, solver] = ["initialization", "setup", "solver"].map(phase);
        r.row(format!("measured {name} (cycles) | {init} | {setup} | {solver} | {}", run.wall));
        m.push([init, setup, solver, run.wall]);
    }
    let (o, n, l) = (m[0], m[1], m[2]);
    r.line(format!(
        "Initialization dilation: numactl {:.2}x (paper 2.00x), libnuma {:.2}x (paper 1.08x). \
         Solver speed-up: numactl {:.1}% (paper 17.1%), libnuma {:.1}% (paper 23.8%).",
        n[0] as f64 / o[0] as f64,
        l[0] as f64 / o[0] as f64,
        speedup(o[2], n[2]),
        speedup(o[2], l[2]),
    ));
    r.claim("numactl dilates initialization more than libnuma does", n[0] > l[0] && l[0] >= o[0]);
    let setup_same = [n[1], l[1]].iter().all(|&s| speedup(o[1], s).abs() <= 2.0);
    r.claim("setup is unaffected by either (within 2%)", setup_same);
    r.claim("both fixes speed up the solver", n[2] < o[2] && l[2] < o[2]);
    r.claim("whole program: libnuma < original < numactl", l[3] < o[3] && o[3] < n[3]).paper_only(
        "the small config runs one solve iteration, too few for libnuma's faster solver to repay \
         its slower initialization.",
    );
    r
}

/// A micro-benchmark run on one magny-cours node with IBS every 64 ops.
fn micro_run(prog: &Program) -> ProfiledRun {
    let mut w = micro::world();
    w.sim.pmu = Some(ibs_sampling(64));
    run_profiled(prog, &w, ProfilerConfig::default())
}

fn fig1(_: &mut Lab) -> Report {
    let prog = micro::fig1_line_decomposition(&micro::Fig1Config::default());
    let a = micro_run(&prog).analyze(&prog);
    let vars = a.variables(Metric::Latency);
    let lat = |v: &VarSummary| v.metrics[Metric::Latency.col()];
    let line4: u64 = vars.iter().map(lat).sum();
    let mut r = Report::default();
    r.table("variable | share of line 4's sampled latency | samples");
    for v in vars.iter().filter(|v| lat(v) > 0) {
        let samples = v.metrics[Metric::Samples.col()];
        r.row(format!("{} | {:.1}% | {samples}", v.name, pct(lat(v), line4)));
    }
    let c = vars.iter().find(|v| v.name == "C").map_or(0, lat);
    r.claim(
        "C, the gathered array, carries more of line 4's latency than A, B and idx together",
        2 * c > line4,
    );
    r
}

fn fig2(_: &mut Lab) -> Report {
    let prog = micro::fig2_alloc_loop(100, 8192, 60_000);
    let run = micro_run(&prog);
    let mut r = Report::default();
    r.table("quantity | measured");
    r.row(format!("allocations wrapped | {}", run.stats.allocs_seen));
    r.row(format!("allocations tracked (>= 4 KiB) | {}", run.stats.allocs_tracked));
    let a = run.analyze(&prog);
    let samples = |v: &VarSummary| v.metrics[Metric::Samples.col()];
    let vars: Vec<_> = a
        .variables(Metric::Samples)
        .into_iter()
        .filter(|v| v.class == StorageClass::Heap && samples(v) > 0)
        .collect();
    r.row(format!("heap variables in the profile | {}", vars.len()));
    for v in &vars {
        r.row(format!("`{}`: blocks / samples | {} / {}", v.name, v.alloc_count, samples(v)));
    }
    r.claim(
        "the 100 allocations at one call path appear as one heap variable with 100 blocks",
        vars.len() == 1 && vars[0].alloc_count == 100,
    );
    r
}

fn fig4_5(lab: &mut Lab) -> Report {
    let setup = lab.amg(amg::AmgVariant::Original);
    let (prog, run) = lab.profile(&setup, rmem_sampling(8), ProfilerConfig::default());
    let a = run.analyze(&prog);
    let m = Metric::Remote;
    let grand = a.grand_total(m);
    let vars: Vec<_> =
        a.variables(m).into_iter().filter(|v| v.class == StorageClass::Heap).collect();
    let share = |v: &VarSummary| pct(v.metrics[m.col()], grand);
    let listed = |vs: &[VarSummary]| {
        vs.iter().map(|v| format!("{} {:.1}%", v.name, share(v))).collect::<Vec<_>>().join(", ")
    };
    let (top, rest) = vars.split_at(2.min(vars.len()));
    let s_diag_j = vars.iter().find(|v| v.name == "S_diag_j").expect("AMG allocates S_diag_j");
    let site =
        sites(&a, StorageClass::Heap, m, s_diag_j.node).into_iter().next().unwrap_or_default();
    let heap = a.class_pct(StorageClass::Heap, m);

    let mut r = Report::default();
    r.table("quantity | paper | measured");
    r.row(format!("heap share of remote accesses | 94.9% | {heap:.1}%"));
    r.row(format!("top variables | S_diag_j 22.2% | {}", listed(top)));
    r.row(format!("further arrays (Fig. 5) | six more >7% | {}", listed(rest)));
    r.row(format!(
        "S_diag_j's hottest access | 19.3% (+2.9%) in OpenMP-outlined solve loops | `{}` {:.1}%",
        site.0,
        pct(site.1, grand)
    ));
    r.claim("heap data carries at least 90% of remote accesses", heap >= 90.0);
    r.claim(
        "S_diag_j is one of the two hottest variables",
        top.iter().any(|v| v.name == "S_diag_j"),
    )
    .deviation(
        "the paper has S_diag_j alone on top; here S_diag_data, which the same relaxation \
         loop streams, edges it out.",
    );
    let six_more = vars.iter().filter(|v| v.name != "S_diag_j" && share(v) >= 3.0).count() >= 6;
    r.claim("six more arrays each carry at least 3% of remote accesses", six_more).deviation(
        "the paper's six exceed 7%; here S_diag_j and S_diag_data take most of the remote \
         traffic, so the other arrays sit lower.",
    );
    r.claim(
        "S_diag_j's hottest access is in the OpenMP-outlined relaxation loop",
        site.0.starts_with("hypre_BoomerAMGRelax$$OL$$"),
    );
    r
}

fn fig6_7(lab: &mut Lab) -> Report {
    let orig = lab.sweep(sw::SweepVariant::Original);
    let (prog, run) = lab.profile(&orig, ibs_sampling(128), ProfilerConfig::default());
    let a = run.analyze(&prog);
    let m = Metric::Latency;
    let grand = a.grand_total(m);
    let vars = a.variables(m);
    let [flux, src, face] = ["Flux", "Src", "Face"].map(|n| var_share(&vars, n, m, grand));
    let hot = sites(&a, StorageClass::Heap, m, ROOT).into_iter().next().unwrap_or_default();
    let heap = a.class_pct(StorageClass::Heap, m);
    let fix = speedup(lab.wall(&orig), lab.wall(&lab.sweep(sw::SweepVariant::Transposed)));

    let mut r = Report::default();
    r.table("quantity | paper | measured");
    r.row(format!("heap share of latency | 97.4% | {heap:.1}%"));
    r.row(format!("Flux / Src / Face | 39.4 / 39.1 / 14.6% | {flux:.1} / {src:.1} / {face:.1}%"));
    let hot_share = pct(hot.1, grand);
    r.row(format!(
        "hottest access (Fig. 7) | Flux at line 480, 28.6% | `{}` {hot_share:.1}%",
        hot.0
    ));
    r.row(format!("transposition speed-up | 15% | {fix:.1}%"));
    r.claim("heap data carries at least 90% of latency", heap >= 90.0);
    r.claim("Flux > Src > Face", flux > src && src > face).paper_only(
        "Flux and Src are streamed by the same loop and nearly tie (the paper's margin is 0.3 \
         points); at small size the tie falls to Src.",
    );
    r.claim("the hottest access is Flux's, at sweep:480", hot.0 == "sweep:480");
    r.claim("transposing the arrays speeds the program up", fix > 0.0);
    r
}

fn fig8_9(lab: &mut Lab) -> Report {
    use lulesh::LuleshVariant as V;
    const SMALL: &str = "small LULESH shrinks f_elem 16x but the node arrays only 4x, so latency \
                         shifts from f_elem to the node arrays.";
    let orig = lab.lulesh(V::ORIGINAL);
    let (prog, run) = lab.profile(&orig, ibs_sampling(128), ProfilerConfig::default());
    let a = run.analyze(&prog);
    let m = Metric::Latency;
    let grand = a.grand_total(m);
    let vars = a.variables(m);
    let arrays: Vec<f64> =
        lulesh::HEAP_ARRAYS.iter().map(|n| var_share(&vars, n, m, grand)).collect();
    let (lo, hi) = arrays.iter().fold((f64::MAX, 0.0f64), |(lo, hi), &x| (lo.min(x), hi.max(x)));
    let top_static = vars.iter().find(|v| v.class == StorageClass::Static);
    let f_elem = var_share(&vars, "f_elem", m, grand);
    let [heap, stat] = [StorageClass::Heap, StorageClass::Static].map(|c| a.class_pct(c, m));
    let [heap_remote, stat_remote] =
        [StorageClass::Heap, StorageClass::Static].map(|c| a.class_pct(c, Metric::Remote));
    let o = lab.wall(&orig);
    let [i, t, b] =
        [V::INTERLEAVED, V::TRANSPOSED, V::BOTH].map(|v| speedup(o, lab.wall(&lab.lulesh(v))));

    let mut r = Report::default();
    r.table("quantity | paper | measured");
    r.row(format!("heap share of latency | 66.8% | {heap:.1}%"));
    r.row(format!(
        "heap / static share of remote DRAM | 94.2% / — | {heap_remote:.1}% / {stat_remote:.1}%"
    ));
    r.row(format!("node arrays (each) | 3.0–9.4% | {lo:.1}–{hi:.1}% ({} arrays)", arrays.len()));
    r.row(format!("static share of latency | 23.6% | {stat:.1}%"));
    r.row(format!("f_elem share of latency | 17% | {f_elem:.1}%"));
    r.row(format!("interleave fix | 13% | {i:.1}%"));
    r.row(format!("f_elem transposition | 2.2% | {t:.1}%"));
    r.row(format!("both fixes | — | {b:.1}%"));
    r.claim(
        "heap data carries most of the latency, and statics most of the rest",
        heap > 50.0 && stat > 100.0 - heap - stat,
    );
    r.claim("heap data carries most remote DRAM accesses", heap_remote > 50.0).deviation(
        "the paper's heap share is 94.2%; here the static f_elem's accesses are remote too \
         (static share in the table).",
    );
    r.claim("every node array carries 3–12% of latency", lo >= 3.0 && hi <= 12.0)
        .deviation(
            "the paper's upper end is 9.4%; the model's equal-sized node arrays are its only \
             heap data, so they split the larger heap share evenly.",
        )
        .paper_only(SMALL);
    r.claim(
        "f_elem is the hottest static variable, with at least 10% of all latency",
        top_static.is_some_and(|v| v.name == "f_elem") && f_elem >= 10.0,
    )
    .paper_only(SMALL);
    r.claim(
        "interleaving is the big fix; f_elem transposition is a single-digit win",
        i > t && t > 0.0 && t < 10.0,
    )
    .paper_only(SMALL);
    r
}

fn fig10(lab: &mut Lab) -> Report {
    let orig = lab.sc(sc::ScVariant::Original);
    let (prog, run) = lab.profile(&orig, rmem_sampling(8), ProfilerConfig::default());
    let a = run.analyze(&prog);
    let m = Metric::Remote;
    let grand = a.grand_total(m);
    let vars = a.variables(m);
    let [block, point] = ["block", "point.p"].map(|n| var_share(&vars, n, m, grand));
    let block_node = vars.iter().find(|v| v.name == "block").expect("SC allocates block").node;
    let dist: Vec<f64> = sites(&a, StorageClass::Heap, m, block_node)
        .into_iter()
        .filter(|(name, _)| name == "dist:175")
        .map(|(_, v)| pct(v, grand))
        .collect();
    let heap = a.class_pct(StorageClass::Heap, m);
    let fix = speedup(lab.wall(&orig), lab.wall(&lab.sc(sc::ScVariant::ParallelFirstTouch)));

    let mut r = Report::default();
    r.table("quantity | paper | measured");
    r.row(format!("heap share of remote accesses | 98.2% | {heap:.1}%"));
    r.row(format!("block | 92.6% | {block:.1}%"));
    r.row(format!("point.p | 5.5% | {point:.1}%"));
    let contexts = dist.iter().map(|s| format!("{s:.1}%")).collect::<Vec<_>>().join(" + ");
    r.row(format!("block's contexts reaching dist:175 | 55.5% + 37% | {contexts}"));
    r.row(format!("parallel first-touch speed-up | 28% | {fix:.1}%"));
    r.claim("heap data carries at least 90% of remote accesses", heap >= 90.0);
    r.claim(
        "block is the hottest variable, with at least 90% of remote accesses",
        vars.first().is_some_and(|v| v.name == "block") && block >= 90.0,
    );
    r.claim(
        "block's accesses reach dist:175 from two parallel contexts, each with at least 20% of \
         remote accesses",
        dist.len() == 2 && dist.iter().all(|&s| s >= 20.0),
    );
    r.claim("parallel first touch speeds the program up", fix > 0.0);
    r
}

fn fig11(lab: &mut Lab) -> Report {
    let orig = lab.nw(nw::NwVariant::Original);
    let (prog, run) = lab.profile(&orig, rmem_sampling(8), ProfilerConfig::default());
    let a = run.analyze(&prog);
    let m = Metric::Remote;
    let grand = a.grand_total(m);
    let vars = a.variables(m);
    let [refer, items] = ["referrence", "input_itemsets"].map(|n| var_share(&vars, n, m, grand));
    let mut lines: Vec<String> =
        sites(&a, StorageClass::Heap, m, ROOT).into_iter().map(|s| s.0).collect();
    lines.sort();
    lines.dedup();
    let heap = a.class_pct(StorageClass::Heap, m);
    let fix = speedup(lab.wall(&orig), lab.wall(&lab.nw(nw::NwVariant::Interleaved)));

    let mut r = Report::default();
    r.table("quantity | paper | measured");
    r.row(format!("heap share of remote accesses | 90.9% | {heap:.1}%"));
    r.row(format!("referrence | 61.4% | {refer:.1}%"));
    r.row(format!("input_itemsets | 29.5% | {items:.1}%"));
    r.row(format!("access sites | kernel lines 163–165 | `{}`", lines.join("`, `")));
    r.row(format!("interleave speed-up | 53% | {fix:.1}%"));
    r.claim("heap data carries at least 90% of remote accesses", heap >= 90.0);
    r.claim(
        "referrence, then input_itemsets, are the two hottest variables",
        vars.len() >= 2 && vars[0].name == "referrence" && vars[1].name == "input_itemsets",
    );
    let in_kernel = |l: &String| {
        l.strip_prefix("_Z7runTestiPPc$$OL$$:")
            .and_then(|n| n.parse::<u32>().ok())
            .is_some_and(|n| (163..=165).contains(&n))
    };
    r.claim(
        "every heap access site is in the outlined kernel's lines 163–165",
        lines.iter().all(in_kernel),
    );
    r.claim("interleaved allocation speeds the program up", fix > 0.0);
    r
}

/// AMG with its allocation storm emphasized (the paper's point is that
/// AMG allocates at high frequency).
fn storm(lab: &Lab) -> Setup {
    let Setup::Amg(mut cfg) = lab.amg(amg::AmgVariant::Original) else { unreachable!() };
    cfg.setup_allocs = 12_000;
    cfg.solve_iters = 2;
    Setup::Amg(cfg)
}

fn ablation_tracking(lab: &mut Lab) -> Report {
    let storm = storm(lab);
    let base = lab.wall(&storm);
    let policy = |min_tracked_bytes, trampoline, fast_context| TrackingPolicy {
        min_tracked_bytes,
        trampoline,
        fast_context,
    };
    let combos = [
        ("naive (track all, slow context, full unwind)", "+150%", TrackingPolicy::naive()),
        ("+ 4 KB threshold", "—", policy(4096, false, false)),
        ("+ fast context", "—", policy(0, false, true)),
        ("+ trampoline (and fast context)", "—", policy(0, true, true)),
        ("all three", "<10%", TrackingPolicy::default()),
    ];
    let mut r = Report::default();
    r.table("strategy | paper | overhead | allocations tracked | unwound frames");
    let mut ovh = Vec::new();
    for (name, paper, tracking) in combos {
        let pcfg = ProfilerConfig { tracking, ..ProfilerConfig::default() };
        let (_, run) = lab.profile(&storm, rmem_sampling(64), pcfg);
        let o = -speedup(base, run.wall);
        let s = &run.stats;
        r.row(format!(
            "{name} | {paper} | +{o:.1}% | {} / {} | {}",
            s.allocs_tracked, s.allocs_seen, s.unwind_frames
        ));
        ovh.push(o);
    }
    let (naive, threshold, fast, trampoline, all) = (ovh[0], ovh[1], ovh[2], ovh[3], ovh[4]);
    r.claim("naive tracking more than doubles the run time", naive > 100.0);
    r.claim(
        "the 4 KB threshold is the decisive lever: alone it beats fast context and trampoline",
        threshold < fast && threshold < trampoline,
    );
    r.claim(
        "naive tracking costs at least 5x as much as all three strategies together",
        naive >= 5.0 * all,
    )
    .deviation(
        "the paper's all-three overhead is below 10%; ours also includes the marked-event \
         sampling cost, which the paper's tracking-only number excludes.",
    );
    r
}

fn ablation_skid(_: &mut Lab) -> Report {
    // One scattered (hot) load at line 5, followed by three ALU ops.
    let mut b = ProgramBuilder::new("skid");
    let main = b.proc("main", 0, |p| {
        let buf = p.calloc(c(1 << 20), "hot");
        p.for_(c(0), c(120_000), |p, i| {
            p.line(5);
            p.load(l(buf), rem(mul(l(i), c(8191)), c(1 << 17)), 8);
            for line in 6..=8 {
                p.line(line);
                p.compute(1);
            }
        });
        p.free(l(buf));
    });
    let prog = b.build(main);
    let on_load = |skid, skid_correction| {
        let mut sim = SimConfig::new(MachineConfig::magny_cours());
        sim.pmu = Some(PmuConfig::Ibs { period: 64, skid });
        let w = WorldConfig::single_node(sim, 1);
        let pcfg = ProfilerConfig { skid_correction, ..ProfilerConfig::default() };
        let a = run_profiled(&prog, &w, pcfg).analyze(&prog);
        let all = sites(&a, StorageClass::Heap, Metric::Samples, ROOT);
        let hit: u64 = all.iter().filter(|(n, _)| n == "main:5").map(|s| s.1).sum();
        pct(hit, all.iter().map(|s| s.1).sum())
    };
    let mut r = Report::default();
    r.table("skid (ops) | heap samples on the load, correction ON | correction OFF");
    let (mut on, mut off) = (Vec::new(), Vec::new());
    for skid in [0u32, 2, 4] {
        on.push(on_load(skid, true));
        off.push(on_load(skid, false));
        r.row(format!("{skid} | {:.1}% | {:.1}%", on[on.len() - 1], off[off.len() - 1]));
    }
    r.claim(
        "with correction ON, at least 80% of heap samples stay on the load at every skid",
        on.iter().all(|&x| x >= 80.0),
    );
    r.claim(
        "with correction OFF, under 10% stay on it at every non-zero skid",
        off[1..].iter().all(|&x| x < 10.0),
    );
    r
}

fn speedups(lab: &mut Lab) -> Report {
    use lulesh::LuleshVariant as L;
    use nw::NwVariant as N;
    use sc::ScVariant as S;
    use sw::SweepVariant as W;
    let mut solver = |v| {
        let setup = lab.amg(v);
        lab.bare(&setup).phase_wall("solver").expect("AMG records a solver phase")
    };
    let amg_fix =
        speedup(solver(amg::AmgVariant::Original), solver(amg::AmgVariant::LibnumaSelective));
    let pairs = [
        ("Sweep3D transposition", "15%", lab.sweep(W::Original), lab.sweep(W::Transposed)),
        ("LULESH interleaved heap", "13%", lab.lulesh(L::ORIGINAL), lab.lulesh(L::INTERLEAVED)),
        ("LULESH f_elem transposition", "2.2%", lab.lulesh(L::ORIGINAL), lab.lulesh(L::TRANSPOSED)),
        (
            "Streamcluster parallel first touch",
            "28%",
            lab.sc(S::Original),
            lab.sc(S::ParallelFirstTouch),
        ),
        ("NW interleaved allocation", "53%", lab.nw(N::Original), lab.nw(N::Interleaved)),
    ];
    let mut rows = vec![("AMG2006 solver (libnuma)", "23.8%", amg_fix)];
    for (name, paper, old, new) in pairs {
        rows.push((name, paper, speedup(lab.wall(&old), lab.wall(&new))));
    }
    let mut r = Report::default();
    r.table("fix | paper | measured");
    for (name, paper, s) in &rows {
        r.row(format!("{name} | {paper} | {s:.1}%"));
    }
    r.claim("every fix wins", rows.iter().all(|x| x.2 > 0.0));
    let smallest = rows.iter().all(|x| x.2 >= rows[3].2);
    r.claim("LULESH's f_elem transposition is the smallest win", smallest);
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The memo keys on the whole config: A1's allocation-storm AMG and
    /// T1's AMG share workload, variant and size, yet are two runs.
    #[test]
    fn memo_keeps_the_storm_apart_from_the_plain_amg_world() {
        let mut lab = Lab::new(Size::Small);
        let (plain, storm) = (lab.amg(amg::AmgVariant::Original), storm(&lab));
        let (a, b) = (lab.wall(&plain), lab.wall(&storm));
        assert_ne!(a, b, "the storm world must not reuse the plain AMG run");
        assert_eq!(lab.wall(&plain), a);
        assert_eq!(lab.bare.len(), 2);
    }
}
