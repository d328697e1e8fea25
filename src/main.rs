//! `memgaze` — command-line front end.
//!
//! Run one of the bundled workload models under the data-centric
//! profiler and print the requested views, like driving `hpcrun` +
//! `hpcviewer` from a terminal:
//!
//! ```sh
//! memgaze streamcluster --report ranking,topdown,advice
//! memgaze amg2006 --variant libnuma --metric remote --report ranking
//! memgaze nw --compare interleaved        # differential vs the fix
//! memgaze sweep3d --report flat --metric latency
//! ```
//!
//! The serving subcommands put a daemon in front of the same pipeline:
//!
//! ```sh
//! memgaze serve --addr 127.0.0.1:7811 &
//! memgaze push 127.0.0.1:7811 nw nw                 # profile + ingest
//! memgaze push 127.0.0.1:7811 nw-fix nw --variant interleaved
//! memgaze query 127.0.0.1:7811 ranking nw remote
//! memgaze query 127.0.0.1:7811 diff nw nw-fix remote
//! memgaze query 127.0.0.1:7811 shutdown
//! ```

use std::process::ExitCode;

use dcp_core::prelude::*;
use dcp_core::view::flat;
use dcp_machine::{MarkedEvent, PmuConfig};
use dcp_runtime::{Program, WorldConfig};

struct Args {
    workload: String,
    variant: String,
    compare: Option<String>,
    metric: Metric,
    reports: Vec<String>,
}

/// Why a subcommand failed. A bad command line is followed by the
/// usage text; a failure while running (a refused bind, a dead daemon,
/// a typed server error) is reported alone.
enum Fail {
    Usage(String),
    Run(String),
}

/// A bare message is a command-line error; failures while running go
/// through [`run_err`].
impl From<String> for Fail {
    fn from(e: String) -> Self {
        Fail::Usage(e)
    }
}

impl From<&str> for Fail {
    fn from(e: &str) -> Self {
        Fail::Usage(e.to_string())
    }
}

fn run_err(e: impl std::fmt::Display) -> Fail {
    Fail::Run(e.to_string())
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: memgaze <workload> [options]\n\
         \n\
         workloads: amg2006 | sweep3d | lulesh | streamcluster | nw | fig1 | fig2\n\
         options:\n\
           --variant <name>     workload variant (default: original)\n\
                                amg2006: original|numactl|libnuma\n\
                                sweep3d: original|transposed\n\
                                lulesh:  original|interleaved|transposed|both\n\
                                streamcluster: original|firsttouch\n\
                                nw:      original|interleaved\n\
           --compare <variant>  also run <variant> and print a differential\n\
           --metric <m>         samples|latency|remote|tlb (default by workload)\n\
           --report <list>      comma list: ranking,topdown,bottomup,flat,advice\n\
                                (default: ranking,topdown)\n\
         \n\
         usage: memgaze serve [--addr host:port] [--budget bytes] [--sessions n]\n\
                              [--data-dir path] [--snapshot-every n]\n\
                              [--pending-cap bytes]\n\
           run the profile-serving daemon; prints `serving on <addr>` once\n\
           bound (port 0 picks an ephemeral port) and blocks until a\n\
           shutdown request drains it\n\
           --data-dir enables crash-safe durability: every ingest is\n\
           written ahead to <path>/ingest.wal before it is applied, and\n\
           the store is recovered from <path> on start (a `recovered ...`\n\
           line reports what was found); --snapshot-every folds the store\n\
           into <path>/store.snap and truncates the log every n ingests\n\
           (default 0: snapshot only on clean drain); --pending-cap\n\
           bounds per-set out-of-order buffering\n\
         \n\
         usage: memgaze route [--addr host:port] --shard a1[,a2...] [--shard ...]\n\
                              [--vnodes n] [--sessions n]\n\
           run the scatter-gather router over running shard daemons;\n\
           each --shard names one shard group as a comma list of replica\n\
           addresses; prints `routing on <addr>` once bound and blocks\n\
           until a shutdown request drains it (shards keep serving)\n\
         \n\
         usage: memgaze push <addr> <set> <workload> [--variant <name>]\n\
                              [--window n]\n\
           profile <workload> locally and ingest every node's bundle into\n\
           profile set <set> on the daemon at <addr>; --window keeps up\n\
           to n pushes in flight (default 1: strict request/response),\n\
           which feeds the daemon's group-commit batcher from one\n\
           connection\n\
         \n\
         usage: memgaze query <addr> <query...>\n\
           one request against the daemon; queries:\n\
             ranking <set> <metric> [limit]     topdown <set> <class> <metric>\n\
             bottomup <set> <metric>            flat <set> <class> <metric> [limit]\n\
             vars <set> <metric>                diff <set-a> <set-b> <metric>\n\
             export <set> <class>               sets\n\
           plus the control words: ping | stats | shutdown\n\
           metrics: samples|latency|remote|tlb|stores\n\
           classes: static|heap|stack|unknown|nomem"
    );
    ExitCode::from(2)
}

/// `memgaze serve [--addr a] [--budget n] [--sessions n] [--data-dir p]
/// [--snapshot-every n] [--pending-cap n]`.
fn run_serve(args: &[String]) -> Result<(), Fail> {
    let mut cfg = dcp_serve::ServerConfig::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let val = |it: &mut std::slice::Iter<'_, String>| {
            it.next().cloned().ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--addr" => cfg.addr = val(&mut it)?,
            "--budget" => {
                cfg.byte_budget =
                    val(&mut it)?.parse().map_err(|e| format!("bad --budget: {e}"))?
            }
            "--sessions" => {
                cfg.sessions = val(&mut it)?.parse().map_err(|e| format!("bad --sessions: {e}"))?
            }
            "--data-dir" => cfg.data_dir = Some(val(&mut it)?.into()),
            "--snapshot-every" => {
                cfg.snapshot_every =
                    val(&mut it)?.parse().map_err(|e| format!("bad --snapshot-every: {e}"))?
            }
            "--pending-cap" => {
                cfg.pending_cap =
                    val(&mut it)?.parse().map_err(|e| format!("bad --pending-cap: {e}"))?
            }
            other => return Err(format!("unknown serve flag {other:?}").into()),
        }
    }
    let server = dcp_serve::Server::bind(cfg).map_err(run_err)?;
    if let Some(report) = server.recovery_report() {
        println!("{report}");
    }
    println!("serving on {}", server.local_addr().map_err(run_err)?);
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    server.serve().map_err(run_err)
}

/// `memgaze route [--addr a] --shard a1[,a2...] [--shard ...] [--vnodes n]
/// [--sessions n]`.
fn run_route(args: &[String]) -> Result<(), Fail> {
    let mut cfg = dcp_serve::RouterConfig::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let val = |it: &mut std::slice::Iter<'_, String>| {
            it.next().cloned().ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--addr" => cfg.addr = val(&mut it)?,
            "--shard" => {
                let group: Vec<String> =
                    val(&mut it)?.split(',').map(str::trim).map(str::to_string).collect();
                cfg.shards.push(group);
            }
            "--vnodes" => {
                cfg.vnodes = val(&mut it)?.parse().map_err(|e| format!("bad --vnodes: {e}"))?
            }
            "--sessions" => {
                cfg.sessions = val(&mut it)?.parse().map_err(|e| format!("bad --sessions: {e}"))?
            }
            other => return Err(format!("unknown route flag {other:?}").into()),
        }
    }
    if cfg.shards.is_empty() {
        return Err("route needs at least one --shard group".into());
    }
    let router = dcp_serve::Router::bind(cfg).map_err(run_err)?;
    println!("routing on {}", router.local_addr().map_err(run_err)?);
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    router.serve().map_err(run_err)
}

/// `memgaze push <addr> <set> <workload> [--variant v] [--window n]`.
fn run_push(args: &[String]) -> Result<(), Fail> {
    let [addr, set, workload, rest @ ..] = args else {
        return Err("push needs <addr> <set> <workload>".into());
    };
    let mut variant = "original".to_string();
    let mut window: usize = 1;
    let mut it = rest.iter();
    while let Some(flag) = it.next() {
        let val = |it: &mut std::slice::Iter<'_, String>| {
            it.next().cloned().ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--variant" => variant = val(&mut it)?,
            "--window" => {
                window = val(&mut it)?.parse().map_err(|e| format!("bad --window: {e}"))?
            }
            _ => return Err("push options: [--variant <name>] [--window n]".into()),
        }
    }
    let (prog, mut world, pmu) = setup(workload, &variant)?;
    world.sim.pmu = Some(pmu);
    let run = run_profiled(&prog, &world, ProfilerConfig::default());
    let mut client = dcp_serve::Client::connect(addr).map_err(run_err)?;
    // One bundle per node, pushed in node order over one connection —
    // the same union order the in-process analyzer uses.
    if window <= 1 {
        for m in &run.measurements {
            let bundle = dcp_core::encode_bundle(&dcp_core::bundle_from_measurement(&prog, m));
            let reply = client.ingest(set, None, bundle).map_err(run_err)?;
            println!("{reply}");
        }
        return Ok(());
    }
    // Windowed: keep up to `window` pushes in flight so the daemon's
    // group-commit batcher can fold their WAL appends into one fsync.
    // Any per-bundle refusal fails the push with the relayed error.
    let mut pipe = client.pipeline(window);
    let print_ack = |ack: Result<dcp_serve::Ack, dcp_serve::ServeError>| -> Result<(), Fail> {
        let ack = ack.map_err(run_err)?;
        println!("{}", dcp_serve::format_ingest_ack(&ack.set, ack.seq, ack.epoch));
        Ok(())
    };
    for m in &run.measurements {
        let bundle = dcp_core::encode_bundle(&dcp_core::bundle_from_measurement(&prog, m));
        if let Some(ack) = pipe.push(set, None, bundle).map_err(run_err)? {
            print_ack(ack)?;
        }
    }
    for ack in pipe.drain().map_err(run_err)? {
        print_ack(ack)?;
    }
    Ok(())
}

/// `memgaze query <addr> <words...>` — also `ping`, `stats`, `shutdown`.
fn run_query(args: &[String]) -> Result<(), Fail> {
    let [addr, words @ ..] = args else {
        return Err("query needs <addr> <query...>".into());
    };
    if words.is_empty() {
        return Err("query needs <addr> <query...>".into());
    }
    let mut client = dcp_serve::Client::connect(addr).map_err(run_err)?;
    let reply = match (words[0].as_str(), words.len()) {
        ("ping", 1) => client.ping(),
        ("stats", 1) => client.stats(),
        ("shutdown", 1) => client.shutdown(),
        _ => client.query(&words.join(" ")),
    };
    println!("{}", reply.map_err(run_err)?);
    Ok(())
}

fn parse() -> Result<Args, ()> {
    let mut it = std::env::args().skip(1);
    let workload = it.next().ok_or(())?;
    let mut a = Args {
        workload,
        variant: "original".into(),
        compare: None,
        metric: Metric::Remote,
        reports: vec!["ranking".into(), "topdown".into()],
    };
    let mut metric_set = false;
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--variant" => a.variant = it.next().ok_or(())?,
            "--compare" => a.compare = Some(it.next().ok_or(())?),
            "--metric" => {
                a.metric = match it.next().ok_or(())?.as_str() {
                    "samples" => Metric::Samples,
                    "latency" => Metric::Latency,
                    "remote" => Metric::Remote,
                    "tlb" => Metric::TlbMiss,
                    _ => return Err(()),
                };
                metric_set = true;
            }
            "--report" => {
                a.reports = it.next().ok_or(())?.split(',').map(str::to_string).collect()
            }
            _ => return Err(()),
        }
    }
    // Latency is the natural default for the IBS-profiled workloads.
    if !metric_set && matches!(a.workload.as_str(), "sweep3d" | "lulesh" | "fig1" | "fig2") {
        a.metric = Metric::Latency;
    }
    Ok(a)
}

/// Build (program, world, pmu) for a workload/variant pair.
fn setup(workload: &str, variant: &str) -> Result<(Program, WorldConfig, PmuConfig), String> {
    use dcp_workloads as wl;
    let rmem = PmuConfig::Marked { event: MarkedEvent::DataFromRmem, threshold: 8, skid: 2 };
    let ibs = PmuConfig::Ibs { period: 128, skid: 2 };
    match workload {
        "amg2006" => {
            let v = match variant {
                "original" => wl::amg2006::AmgVariant::Original,
                "numactl" => wl::amg2006::AmgVariant::NumactlInterleave,
                "libnuma" => wl::amg2006::AmgVariant::LibnumaSelective,
                other => return Err(format!("unknown amg2006 variant {other:?}")),
            };
            let cfg = wl::amg2006::AmgConfig::small(v);
            Ok((wl::amg2006::build(&cfg), wl::amg2006::world(&cfg), rmem))
        }
        "sweep3d" => {
            let v = match variant {
                "original" => wl::sweep3d::SweepVariant::Original,
                "transposed" => wl::sweep3d::SweepVariant::Transposed,
                other => return Err(format!("unknown sweep3d variant {other:?}")),
            };
            let cfg = wl::sweep3d::SweepConfig::small(v);
            Ok((wl::sweep3d::build(&cfg), wl::sweep3d::world(&cfg), ibs))
        }
        "lulesh" => {
            let v = match variant {
                "original" => wl::lulesh::LuleshVariant::ORIGINAL,
                "interleaved" => wl::lulesh::LuleshVariant::INTERLEAVED,
                "transposed" => wl::lulesh::LuleshVariant::TRANSPOSED,
                "both" => wl::lulesh::LuleshVariant::BOTH,
                other => return Err(format!("unknown lulesh variant {other:?}")),
            };
            let cfg = wl::lulesh::LuleshConfig::small(v);
            Ok((wl::lulesh::build(&cfg), wl::lulesh::world(&cfg), ibs))
        }
        "streamcluster" => {
            let v = match variant {
                "original" => wl::streamcluster::ScVariant::Original,
                "firsttouch" => wl::streamcluster::ScVariant::ParallelFirstTouch,
                other => return Err(format!("unknown streamcluster variant {other:?}")),
            };
            let cfg = wl::streamcluster::ScConfig::small(v);
            Ok((wl::streamcluster::build(&cfg), wl::streamcluster::world(&cfg), rmem))
        }
        "nw" => {
            let v = match variant {
                "original" => wl::nw::NwVariant::Original,
                "interleaved" => wl::nw::NwVariant::Interleaved,
                other => return Err(format!("unknown nw variant {other:?}")),
            };
            let cfg = wl::nw::NwConfig::small(v);
            Ok((wl::nw::build(&cfg), wl::nw::world(&cfg), rmem))
        }
        "fig1" => {
            let prog = wl::micro::fig1_line_decomposition(&wl::micro::Fig1Config::default());
            Ok((prog, wl::micro::world(), PmuConfig::Ibs { period: 64, skid: 2 }))
        }
        "fig2" => {
            let prog = wl::micro::fig2_alloc_loop(100, 8192, 60_000);
            Ok((prog, wl::micro::world(), PmuConfig::Ibs { period: 64, skid: 2 }))
        }
        other => Err(format!("unknown workload {other:?}")),
    }
}

fn run(args: &Args) -> Result<(), String> {
    let (prog, mut world, pmu) = setup(&args.workload, &args.variant)?;
    world.sim.pmu = Some(pmu);
    let run = run_profiled(&prog, &world, ProfilerConfig::default());
    println!(
        "# {} ({}): wall {} cycles, {} samples, profile {} bytes, memory-boundedness {:.2}",
        args.workload,
        args.variant,
        run.wall,
        run.stats.samples,
        run.profile_bytes,
        run.memory_boundedness()
    );
    if !run.is_memory_bound() {
        println!("# note: not strongly memory-bound; data-centric analysis may be uninteresting");
    }
    println!();
    let wall = run.wall;
    let analysis = run.analyze(&prog);
    for report in &args.reports {
        match report.as_str() {
            "ranking" => println!("{}", ranking(&analysis, args.metric, 12)),
            "topdown" => println!(
                "{}",
                top_down(&analysis, StorageClass::Heap, args.metric, TopDownOpts::default())
            ),
            "bottomup" => println!("{}", bottom_up(&analysis, args.metric)),
            "flat" => println!("{}", flat(&analysis, StorageClass::Heap, args.metric, 12)),
            "advice" => println!(
                "{}",
                render_advice(&advise(&analysis, args.metric, &AdvisorConfig::default()))
            ),
            other => return Err(format!("unknown report {other:?}")),
        }
    }
    if let Some(cv) = &args.compare {
        let _ = wall;
        // Unprofiled walls for an honest speedup number.
        let (bprog, bworld, _) = setup(&args.workload, &args.variant)?;
        let (base_wall, _, _) = dcp_core::run_baseline(&bprog, &bworld);
        let (cprog, cworld, cpmu) = setup(&args.workload, cv)?;
        let (cmp_wall, _, _) = dcp_core::run_baseline(&cprog, &cworld);
        println!(
            "# compare vs {cv} (unprofiled walls): {} -> {} cycles ({:+.1}%)",
            base_wall,
            cmp_wall,
            100.0 * (cmp_wall as f64 - base_wall as f64) / base_wall as f64
        );
        let mut cworld = cworld;
        cworld.sim.pmu = Some(cpmu);
        let crun = run_profiled(&cprog, &cworld, ProfilerConfig::default());
        let cananalysis = crun.analyze(&cprog);
        println!("{}", analysis.compare(&cananalysis, args.metric));
    }
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let sub = match argv.first().map(String::as_str) {
        Some("serve") => Some(run_serve(&argv[1..])),
        Some("route") => Some(run_route(&argv[1..])),
        Some("push") => Some(run_push(&argv[1..])),
        Some("query") => Some(run_query(&argv[1..])),
        _ => None,
    };
    if let Some(result) = sub {
        return match result {
            Ok(()) => ExitCode::SUCCESS,
            Err(Fail::Usage(e)) => {
                eprintln!("error: {e}");
                usage()
            }
            Err(Fail::Run(e)) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let Ok(args) = parse() else { return usage() };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            usage()
        }
    }
}
