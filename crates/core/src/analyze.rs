//! Post-mortem analysis (§4.2).
//!
//! The analyzer gathers the per-thread profiles from every node's
//! profiler, merges them per storage class with the scalable reduction
//! tree, and resolves frames against the program's symbol tables and
//! line maps — producing the [`Analysis`] the presentation views render.

use dcp_cct::{
    encode_named, merge_encoded, merge_sequential, Cct, CodecError, Frame, NodeId,
    ProfileNames, ROOT,
};
use dcp_runtime::ir::{Ip, ProcId, Program};
use dcp_support::bytes::Bytes;
use dcp_support::FxHashMap;

use crate::metrics::{Metric, StorageClass, CLASSES, WIDTH};
use crate::profiler::{MeasurementData, ProfStats};

/// Resolve one CCT frame to a display string against `program`'s symbol
/// tables (free-function form, shared by [`Analysis::resolve_frame`] and
/// the profile-name builder).
pub fn resolve_frame_name(program: &Program, f: Frame) -> String {
    match f {
        Frame::Root => "<program root>".to_string(),
        Frame::Proc(p) => program.proc(ProcId(p as u32)).name.clone(),
        Frame::CallSite(ip) | Frame::Stmt(ip) => program.render_ip(Ip(ip)),
        Frame::StaticVar(h) => {
            let handle = crate::datacentric::StaticHandle(h);
            let m = program.module(handle.module());
            m.statics
                .get(handle.sym() as usize)
                .map(|s| s.name.clone())
                .unwrap_or_else(|| format!("<static {h:#x}>"))
        }
        Frame::HeapMarker => "heap data accesses".to_string(),
    }
}

/// Build the v2 name section for one profile: every procedure and
/// static-variable frame in the tree gets its symbol name, so the
/// encoded profile is self-describing away from the producing program.
/// (Call sites and statements stay numeric — the line map renders them.)
pub fn profile_names(program: &Program, cct: &Cct) -> ProfileNames {
    let mut names = ProfileNames::default();
    for id in 0..cct.len() as u32 {
        let f = cct.frame(NodeId(id));
        if matches!(f, Frame::Proc(_) | Frame::StaticVar(_)) && names.lookup(f).is_none() {
            names.name(f, &resolve_frame_name(program, f));
        }
    }
    names
}

/// A node's measurement data with every profile serialized to the v2
/// wire format — what would travel over the wire (or sit on disk) in a
/// real multi-node run, and what [`Analysis::analyze_encoded`] consumes
/// without ever materializing more than the merge accumulators.
pub struct EncodedMeasurement {
    /// `profiles[class][i]` — the i-th thread's encoded tree.
    pub profiles: [Vec<Bytes>; CLASSES],
    /// Allocation metadata, unchanged from [`MeasurementData`].
    pub alloc_info: Vec<(Vec<Frame>, u64, u64, u64)>,
    pub stats: ProfStats,
}

/// Serialize one node's measurement data to the v2 wire format with
/// frame names resolved against `program`.
///
/// Per-thread trees are independent and `par_map` returns results
/// positionally, so the encode fans out over the host pool while the
/// byte streams stay identical at any `DCP_THREADS`.
pub fn encode_measurement(program: &Program, m: &MeasurementData) -> EncodedMeasurement {
    let profiles = std::array::from_fn(|class| {
        dcp_support::pool::par_map(&m.profiles[class], |t| {
            encode_named(t, &profile_names(program, t))
        })
    });
    EncodedMeasurement { profiles, alloc_info: m.alloc_info.clone(), stats: m.stats.clone() }
}

/// One variable with its aggregate (inclusive) metrics — a row of the
/// paper's variable-centric views.
#[derive(Debug, Clone)]
pub struct VarSummary {
    /// Display name: the symbol name for statics; for heap variables, the
    /// source-level hint at the allocation site (falling back to the
    /// allocation site's `proc:line`).
    pub name: String,
    pub class: StorageClass,
    /// The variable's dummy node in its class tree.
    pub node: NodeId,
    /// Inclusive metric vector at the variable node.
    pub metrics: [u64; WIDTH],
    /// For heap variables: how many blocks this allocation path produced.
    pub alloc_count: u64,
    /// For heap variables: total requested bytes.
    pub alloc_bytes: u64,
    /// For heap variables: how many blocks were zero-filled (`calloc`).
    pub alloc_zeroed: u64,
    /// Resolved allocation site (`proc:line`), empty for statics.
    pub alloc_site: String,
    /// Resolved call site that invoked the allocation wrapper (the
    /// deepest `CallSite` on the allocation path), empty for statics or
    /// direct allocations.
    pub caller_site: String,
}

/// Where frame and source-hint strings come from when rendering a
/// profile. [`Analysis`] resolves against the live [`Program`]; the
/// serving layer's stored profiles resolve against name tables carried
/// in the profile bundle — by construction the same strings, so every
/// view renders identically from either source.
pub trait SymbolSource {
    /// Display string for one frame.
    fn frame_name(&self, f: Frame) -> String;
    /// The source-level variable hint at an instruction, if any
    /// (`S_diag_j = hypre_CAlloc(...)` records `S_diag_j` at that line).
    fn hint(&self, ip: u64) -> Option<String>;
}

/// A merged, per-storage-class profile that the presentation views can
/// render: the class trees plus allocation metadata plus symbols. Both
/// the in-process [`Analysis`] and the server-side stored evaluator
/// implement this, so `topdown`/`bottomup`/`flat`/`ranking`/`variables`
/// /`compare` are written once.
pub trait ProfileView: SymbolSource {
    /// The merged tree for one storage class.
    fn class_tree(&self, c: StorageClass) -> &Cct;

    /// Allocation metadata by allocation path.
    fn alloc_map(&self) -> &FxHashMap<Vec<Frame>, (u64, u64, u64)>;

    /// Total of `metric` within one storage class.
    fn class_total(&self, c: StorageClass, metric: Metric) -> u64 {
        self.class_tree(c).total(metric.col())
    }

    /// Total of `metric` across all storage classes.
    fn grand_total(&self, metric: Metric) -> u64 {
        StorageClass::ALL.iter().map(|&c| self.class_total(c, metric)).sum()
    }

    /// Fraction (0–100) of `metric` attributed to class `c`.
    fn class_pct(&self, c: StorageClass, metric: Metric) -> f64 {
        let total = self.grand_total(metric);
        if total == 0 {
            return 0.0;
        }
        100.0 * self.class_total(c, metric) as f64 / total as f64
    }

    /// Enumerate all variables (heap + static) with inclusive metrics,
    /// sorted descending by `sort_by`.
    fn variables(&self, sort_by: Metric) -> Vec<VarSummary>
    where
        Self: Sized,
    {
        variables_impl(self, sort_by)
    }
}

/// The display name of a heap variable identified by its allocation
/// path: the builder-supplied hint at the allocation site if present,
/// else the allocation site itself. Returns `(name, alloc_site)`.
fn heap_var_name<S: SymbolSource + ?Sized>(sym: &S, alloc_path: &[Frame]) -> (String, String) {
    let site = alloc_path.iter().rev().find_map(|f| match f {
        Frame::Stmt(_) => Some(*f),
        _ => None,
    });
    let site_str = site.map(|f| sym.frame_name(f)).unwrap_or_default();
    // The source-level variable name can sit either at the allocation
    // statement itself or at a call site of an allocation wrapper
    // higher up the path (`S_diag_j = hypre_CAlloc(...)`); prefer the
    // deepest hint.
    for f in alloc_path.iter().rev() {
        if let Frame::Stmt(ip) | Frame::CallSite(ip) = f {
            if let Some(hint) = sym.hint(*ip) {
                return (hint, site_str);
            }
        }
    }
    if site_str.is_empty() {
        ("<heap>".to_string(), site_str)
    } else {
        (site_str.clone(), site_str)
    }
}

/// Shared body of [`ProfileView::variables`].
fn variables_impl<V: ProfileView + ?Sized>(view: &V, sort_by: Metric) -> Vec<VarSummary> {
    let mut out = Vec::new();

    // Static variables: StaticVar dummy nodes at the root of the
    // static tree.
    let st = view.class_tree(StorageClass::Static);
    let inc: Vec<Vec<u64>> = (0..WIDTH).map(|m| st.inclusive(m)).collect();
    for n in st.children(ROOT) {
        if let Frame::StaticVar(_) = st.frame(n) {
            let mut metrics = [0u64; WIDTH];
            for m in 0..WIDTH {
                metrics[m] = inc[m][n.0 as usize];
            }
            out.push(VarSummary {
                name: view.frame_name(st.frame(n)),
                class: StorageClass::Static,
                node: n,
                metrics,
                alloc_count: 0,
                alloc_bytes: 0,
                alloc_zeroed: 0,
                alloc_site: String::new(),
                caller_site: String::new(),
            });
        }
    }

    // Heap variables: HeapMarker nodes; the path above the marker is
    // the allocation path that identifies the variable.
    let ht = view.class_tree(StorageClass::Heap);
    let hinc: Vec<Vec<u64>> = (0..WIDTH).map(|m| ht.inclusive(m)).collect();
    for n in ht.preorder() {
        if ht.frame(n) == Frame::HeapMarker {
            let alloc_path = ht.path_to(ht.parent(n));
            let (name, alloc_site) = heap_var_name(view, &alloc_path);
            let caller_site = alloc_path
                .iter()
                .rev()
                .find_map(|f| match f {
                    Frame::CallSite(_) => Some(view.frame_name(*f)),
                    _ => None,
                })
                .unwrap_or_default();
            let (count, bytes, zeroed) =
                view.alloc_map().get(&alloc_path).copied().unwrap_or((0, 0, 0));
            let mut metrics = [0u64; WIDTH];
            for m in 0..WIDTH {
                metrics[m] = hinc[m][n.0 as usize];
            }
            out.push(VarSummary {
                name,
                class: StorageClass::Heap,
                node: n,
                metrics,
                alloc_count: count,
                alloc_bytes: bytes,
                alloc_zeroed: zeroed,
                alloc_site,
                caller_site,
            });
        }
    }

    out.sort_by(|a, b| {
        b.metrics[sort_by.col()]
            .cmp(&a.metrics[sort_by.col()])
            .then_with(|| a.name.cmp(&b.name))
    });
    out
}

/// Variable-level differential report between two profiles of the same
/// program (e.g. before/after an optimization): for each variable name,
/// the change in `metric`. The paper's workflow — measure, fix,
/// re-measure — reads this to confirm the fix removed the cost it
/// targeted and nothing regressed. The two sides may come from
/// different view implementations (an in-process [`Analysis`] against a
/// server-stored profile renders the same bytes).
pub fn compare_report<A, B>(before: &A, after: &B, metric: Metric) -> String
where
    A: ProfileView + ?Sized,
    B: ProfileView + ?Sized,
{
    let mut names: Vec<String> = Vec::new();
    let mut rows: FxHashMap<String, (u64, u64)> = FxHashMap::default();
    for v in variables_impl(before, metric) {
        if !rows.contains_key(&v.name) {
            names.push(v.name.clone());
        }
        rows.entry(v.name).or_insert((0, 0)).0 += v.metrics[metric.col()];
    }
    for v in variables_impl(after, metric) {
        if !rows.contains_key(&v.name) {
            names.push(v.name.clone());
        }
        rows.entry(v.name).or_insert((0, 0)).1 += v.metrics[metric.col()];
    }
    names.sort_by_key(|n| {
        let (b, a) = rows[n];
        std::cmp::Reverse((a as i64 - b as i64).unsigned_abs())
    });
    let mut out = format!(
        "DIFFERENTIAL ({}): before {} -> after {}\n",
        metric.name(),
        before.grand_total(metric),
        after.grand_total(metric)
    );
    out.push_str(&format!("{:<24} {:>12} {:>12} {:>12}\n", "VARIABLE", "BEFORE", "AFTER", "DELTA"));
    for n in names {
        let (b, a) = rows[&n];
        if b == 0 && a == 0 {
            continue;
        }
        out.push_str(&format!("{n:<24} {b:>12} {a:>12} {:>+12}\n", a as i64 - b as i64));
    }
    out
}

/// Merged, symbol-resolved measurement of one program run.
pub struct Analysis<'p> {
    program: &'p Program,
    trees: [Cct; CLASSES],
    alloc_info: FxHashMap<Vec<Frame>, (u64, u64, u64)>,
    pub stats: ProfStats,
}

impl<'p> Analysis<'p> {
    /// Merge the measurement data of every node.
    pub fn analyze(program: &'p Program, measurements: Vec<MeasurementData>) -> Self {
        let mut per_class: [Vec<Cct>; CLASSES] = std::array::from_fn(|_| Vec::new());
        let mut alloc_info: FxHashMap<Vec<Frame>, (u64, u64, u64)> = FxHashMap::default();
        let mut stats = ProfStats::default();
        for m in measurements {
            let mut profiles = m.profiles;
            for (i, v) in profiles.iter_mut().enumerate() {
                per_class[i].append(v);
            }
            for (path, count, bytes, zeroed) in m.alloc_info {
                let e = alloc_info.entry(path).or_insert((0, 0, 0));
                e.0 += count;
                e.1 += bytes;
                e.2 += zeroed;
            }
            stats.merge(&m.stats);
        }
        let mut it = per_class.into_iter();
        let trees = std::array::from_fn(|_| {
            merge_sequential(it.next().expect("CLASSES trees"), WIDTH)
        });
        Self { program, trees, alloc_info, stats }
    }

    /// Merge *encoded* measurement data: each per-class profile list is
    /// folded out-of-core by [`merge_encoded`], so peak memory holds one
    /// merged profile per class — never all the decoded input profiles
    /// at once. The result is indistinguishable from
    /// [`Analysis::analyze`] on the corresponding decoded data; a
    /// malformed profile surfaces as a typed [`CodecError`].
    pub fn analyze_encoded(
        program: &'p Program,
        measurements: Vec<EncodedMeasurement>,
    ) -> Result<Self, CodecError> {
        let mut per_class: [Vec<Bytes>; CLASSES] = std::array::from_fn(|_| Vec::new());
        let mut alloc_info: FxHashMap<Vec<Frame>, (u64, u64, u64)> = FxHashMap::default();
        let mut stats = ProfStats::default();
        for m in measurements {
            let mut profiles = m.profiles;
            for (i, v) in profiles.iter_mut().enumerate() {
                per_class[i].append(v);
            }
            for (path, count, bytes, zeroed) in m.alloc_info {
                let e = alloc_info.entry(path).or_insert((0, 0, 0));
                e.0 += count;
                e.1 += bytes;
                e.2 += zeroed;
            }
            stats.merge(&m.stats);
        }
        let mut it = per_class.into_iter();
        let mut trees = Vec::with_capacity(CLASSES);
        for blobs in &mut it {
            trees.push(merge_encoded(blobs, WIDTH)?);
        }
        let trees: [Cct; CLASSES] =
            trees.try_into().unwrap_or_else(|_| unreachable!("exactly CLASSES trees"));
        Ok(Self { program, trees, alloc_info, stats })
    }

    /// The merged tree for one storage class.
    pub fn tree(&self, c: StorageClass) -> &Cct {
        &self.trees[c.idx()]
    }

    /// The program being analyzed.
    pub fn program(&self) -> &'p Program {
        self.program
    }

    /// Total of `metric` within one storage class.
    pub fn class_total(&self, c: StorageClass, metric: Metric) -> u64 {
        ProfileView::class_total(self, c, metric)
    }

    /// Total of `metric` across all storage classes.
    pub fn grand_total(&self, metric: Metric) -> u64 {
        ProfileView::grand_total(self, metric)
    }

    /// Fraction (0–100) of `metric` attributed to class `c`.
    pub fn class_pct(&self, c: StorageClass, metric: Metric) -> f64 {
        ProfileView::class_pct(self, c, metric)
    }

    /// Resolve one frame to a display string.
    pub fn resolve_frame(&self, f: Frame) -> String {
        resolve_frame_name(self.program, f)
    }

    /// Enumerate all variables (heap + static) with inclusive metrics,
    /// sorted descending by `sort_by`.
    pub fn variables(&self, sort_by: Metric) -> Vec<VarSummary> {
        variables_impl(self, sort_by)
    }

    /// Variable-level differential report against another analysis of
    /// the same program (see [`compare_report`]).
    pub fn compare(&self, after: &Analysis<'_>, metric: Metric) -> String {
        compare_report(self, after, metric)
    }

    /// Allocation metadata by path (diagnostics/tests).
    pub fn alloc_info(&self) -> &FxHashMap<Vec<Frame>, (u64, u64, u64)> {
        &self.alloc_info
    }
}

impl SymbolSource for Analysis<'_> {
    fn frame_name(&self, f: Frame) -> String {
        resolve_frame_name(self.program, f)
    }

    fn hint(&self, ip: u64) -> Option<String> {
        let hint = self.program.line_info(Ip(ip)).hint;
        if hint.is_empty() {
            None
        } else {
            Some(hint.to_string())
        }
    }
}

impl ProfileView for Analysis<'_> {
    fn class_tree(&self, c: StorageClass) -> &Cct {
        &self.trees[c.idx()]
    }

    fn alloc_map(&self) -> &FxHashMap<Vec<Frame>, (u64, u64, u64)> {
        &self.alloc_info
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiler::{Profiler, ProfilerConfig};
    use dcp_machine::pmu::SampleOrigin;
    use dcp_machine::{CoreId, DataSource, Sample};
    use dcp_runtime::ir::ex::*;
    use dcp_runtime::observer::{AllocEvent, ModuleEvent, NodeObserver, ThreadView};
    use dcp_runtime::{FrameInfo, ProgramBuilder};

    /// Build a tiny program whose procs/lines back the frames we fake.
    fn program() -> dcp_runtime::Program {
        let mut b = ProgramBuilder::new("exe");
        b.static_array("f_elem", 4096);
        let main = b.proc("main", 0, |p| {
            p.line(175);
            let a = p.calloc(c(8192), "S_diag_j");
            p.line(480);
            p.load(l(a), c(0), 8);
        });
        b.build(main)
    }

    fn fake_stack() -> Vec<FrameInfo> {
        vec![FrameInfo { proc: ProcId(0), call_site: None, token: 0 }]
    }

    fn sample(ea: u64, ip: u64, latency: u32, src: DataSource) -> Sample {
        Sample {
            origin: SampleOrigin::Ibs,
            precise_ip: ip,
            signal_ip: ip,
            ea: Some(ea),
            latency,
            source: Some(src),
            tlb_miss: false,
            is_store: false,
            core: CoreId(0),
        }
    }

    #[test]
    fn variables_ranked_with_names_resolved() {
        let prog = program();
        let mut p = Profiler::new(ProfilerConfig::default());
        // Load module 0 for rank 0 so statics resolve.
        p.on_module(&ModuleEvent::Loaded {
            module: dcp_runtime::ModuleId(0),
            def: &prog.modules[0],
            rank: 0,
        });
        let stack = fake_stack();
        let view = ThreadView {
            rank: 0,
            thread: 0,
            core: CoreId(0),
            clock: 0,
            frames: &stack,
            leaf_ip: Ip(0),
        };
        // Heap variable allocated at main stmt 0 (line 175, hint S_diag_j).
        let alloc_ip = Ip::new(dcp_runtime::ModuleId(0), ProcId(0), 0);
        p.on_alloc(
            &AllocEvent { addr: 0x10_0000, bytes: 8192, zeroed: true, ip: alloc_ip },
            &view,
        );
        let access_ip = Ip::new(dcp_runtime::ModuleId(0), ProcId(0), 1);
        for _ in 0..10 {
            p.on_sample(&sample(0x10_0010, access_ip.0, 300, DataSource::RemoteDram), &view);
        }
        // Static variable access (f_elem is at the module's static base).
        let static_addr = dcp_runtime::layout::global(0, prog.modules[0].statics[0].addr);
        for _ in 0..4 {
            p.on_sample(&sample(static_addr, access_ip.0, 100, DataSource::LocalDram), &view);
        }

        let analysis = Analysis::analyze(&prog, vec![p.into_measurement()]);
        let vars = analysis.variables(Metric::Latency);
        assert_eq!(vars.len(), 2);
        assert_eq!(vars[0].name, "S_diag_j");
        assert_eq!(vars[0].class, StorageClass::Heap);
        assert_eq!(vars[0].metrics[Metric::Samples.col()], 10);
        assert_eq!(vars[0].metrics[Metric::Latency.col()], 3000);
        assert_eq!(vars[0].metrics[Metric::Remote.col()], 10);
        assert_eq!(vars[0].alloc_count, 1);
        assert!(vars[0].alloc_site.contains("main:175"));
        assert_eq!(vars[1].name, "f_elem");
        assert_eq!(vars[1].class, StorageClass::Static);
        assert_eq!(vars[1].metrics[Metric::Samples.col()], 4);
    }

    #[test]
    fn class_percentages_sum_to_100() {
        let prog = program();
        let mut p = Profiler::new(ProfilerConfig::default());
        p.on_module(&ModuleEvent::Loaded {
            module: dcp_runtime::ModuleId(0),
            def: &prog.modules[0],
            rank: 0,
        });
        let stack = fake_stack();
        let view = ThreadView {
            rank: 0,
            thread: 0,
            core: CoreId(0),
            clock: 0,
            frames: &stack,
            leaf_ip: Ip(0),
        };
        let access_ip = Ip::new(dcp_runtime::ModuleId(0), ProcId(0), 1);
        // 3 unknown samples + 1 static sample.
        for _ in 0..3 {
            p.on_sample(&sample(0x77_0000_0000, access_ip.0, 10, DataSource::L1), &view);
        }
        let static_addr = dcp_runtime::layout::global(0, prog.modules[0].statics[0].addr);
        p.on_sample(&sample(static_addr, access_ip.0, 10, DataSource::L1), &view);

        let a = Analysis::analyze(&prog, vec![p.into_measurement()]);
        let total: f64 = StorageClass::ALL
            .iter()
            .map(|&c| a.class_pct(c, Metric::Samples))
            .sum();
        assert!((total - 100.0).abs() < 1e-9);
        assert!((a.class_pct(StorageClass::Unknown, Metric::Samples) - 75.0).abs() < 1e-9);
    }

    #[test]
    fn merging_two_nodes_coalesces_same_variable() {
        let prog = program();
        let make = |rank: u32| {
            let mut p = Profiler::new(ProfilerConfig::default());
            let stack = fake_stack();
            let view = ThreadView {
                rank,
                thread: 0,
                core: CoreId(0),
                clock: 0,
                frames: &stack,
                leaf_ip: Ip(0),
            };
            let alloc_ip = Ip::new(dcp_runtime::ModuleId(0), ProcId(0), 0);
            let base = dcp_runtime::layout::global(rank, 0x10_0000);
            p.on_alloc(
                &AllocEvent { addr: base, bytes: 8192, zeroed: true, ip: alloc_ip },
                &view,
            );
            let access_ip = Ip::new(dcp_runtime::ModuleId(0), ProcId(0), 1);
            p.on_sample(&sample(base + 8, access_ip.0, 100, DataSource::RemoteDram), &view);
            p.into_measurement()
        };
        // Two ranks (on two "nodes") allocate from the same call path:
        // post-mortem they are ONE variable (§4.2).
        let a = Analysis::analyze(&prog, vec![make(0), make(1)]);
        let vars = a.variables(Metric::Samples);
        assert_eq!(vars.len(), 1, "same allocation path coalesces across processes");
        assert_eq!(vars[0].metrics[Metric::Samples.col()], 2);
        assert_eq!(vars[0].alloc_count, 2);
    }

    /// One rank's worth of measurement data with both a heap and a
    /// static variable (shared by the encoded-path tests).
    fn measured(prog: &dcp_runtime::Program) -> crate::profiler::MeasurementData {
        let mut p = Profiler::new(ProfilerConfig::default());
        p.on_module(&ModuleEvent::Loaded {
            module: dcp_runtime::ModuleId(0),
            def: &prog.modules[0],
            rank: 0,
        });
        let stack = fake_stack();
        let view = ThreadView {
            rank: 0,
            thread: 0,
            core: CoreId(0),
            clock: 0,
            frames: &stack,
            leaf_ip: Ip(0),
        };
        let alloc_ip = Ip::new(dcp_runtime::ModuleId(0), ProcId(0), 0);
        p.on_alloc(
            &AllocEvent { addr: 0x10_0000, bytes: 8192, zeroed: true, ip: alloc_ip },
            &view,
        );
        let access_ip = Ip::new(dcp_runtime::ModuleId(0), ProcId(0), 1);
        for _ in 0..6 {
            p.on_sample(&sample(0x10_0010, access_ip.0, 200, DataSource::RemoteDram), &view);
        }
        let static_addr = dcp_runtime::layout::global(0, prog.modules[0].statics[0].addr);
        for _ in 0..3 {
            p.on_sample(&sample(static_addr, access_ip.0, 100, DataSource::LocalDram), &view);
        }
        p.into_measurement()
    }

    #[test]
    fn encoded_analysis_matches_in_memory_analysis() {
        let prog = program();
        let ms: Vec<_> = (0..3).map(|_| measured(&prog)).collect();
        let encoded: Vec<EncodedMeasurement> =
            ms.iter().map(|m| encode_measurement(&prog, m)).collect();

        let direct = Analysis::analyze(&prog, ms);
        let streamed = Analysis::analyze_encoded(&prog, encoded).expect("valid profiles");

        for &c in StorageClass::ALL.iter() {
            assert_eq!(
                streamed.tree(c).canonical(),
                direct.tree(c).canonical(),
                "class {c:?} trees must agree"
            );
        }
        let dv = direct.variables(Metric::Latency);
        let sv = streamed.variables(Metric::Latency);
        assert_eq!(dv.len(), sv.len());
        for (d, s) in dv.iter().zip(&sv) {
            assert_eq!(d.name, s.name);
            assert_eq!(d.metrics, s.metrics);
            assert_eq!(d.alloc_count, s.alloc_count);
        }
        assert_eq!(direct.stats.samples, streamed.stats.samples);
    }

    #[test]
    fn encoded_profiles_carry_symbol_names() {
        // The v2 name section makes a profile self-describing: the
        // symbol names survive without access to the program.
        let prog = program();
        let m = measured(&prog);
        let enc = encode_measurement(&prog, &m);
        let static_blobs = &enc.profiles[StorageClass::Static.idx()];
        assert!(!static_blobs.is_empty());
        let (tree, names) = dcp_cct::decode_named(static_blobs[0].clone()).expect("decodes");
        let var = tree
            .children(ROOT)
            .find(|&n| matches!(tree.frame(n), Frame::StaticVar(_)))
            .expect("static variable node");
        assert_eq!(names.lookup(tree.frame(var)), Some("f_elem"));
    }

    #[test]
    fn corrupt_encoded_profile_is_a_typed_error() {
        let prog = program();
        let mut enc = encode_measurement(&prog, &measured(&prog));
        let class = StorageClass::Heap.idx();
        let good = enc.profiles[class][0].clone();
        enc.profiles[class][0] = good.slice(0..good.len() - 1);
        let err = match Analysis::analyze_encoded(&prog, vec![enc]) {
            Ok(_) => panic!("truncated profile must not analyze"),
            Err(e) => e,
        };
        assert_eq!(err, dcp_cct::CodecError::Truncated);
    }
}
