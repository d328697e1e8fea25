//! reproduce — regenerate and check the measured blocks of EXPERIMENTS.md.
//!
//! Usage: `reproduce [--check] [<id>...]`
//!
//! Runs every experiment of `dcp_bench::reproduce::EXPERIMENTS` at paper
//! size (or only the given ids, e.g. `T1 F4/5`) and prints each one's
//! markdown block, markers included, to stdout. To refresh
//! EXPERIMENTS.md, replace a block with the printed one. With `--check`
//! nothing is printed to stdout; instead every block is compared with
//! the committed one, and the process exits non-zero, naming the
//! experiment, on any false claim or changed byte. Host timings go to
//! stderr only, so stdout is deterministic.

use std::time::Instant;

use dcp_bench::reproduce::{verify, Lab, Size, EXPERIMENTS};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let check = args.iter().any(|a| a == "--check");
    let ids: Vec<&str> = args.iter().map(String::as_str).filter(|a| *a != "--check").collect();
    if let Some(bad) = ids.iter().find(|id| !EXPERIMENTS.iter().any(|e| e.id == **id)) {
        let known: Vec<&str> = EXPERIMENTS.iter().map(|e| e.id).collect();
        eprintln!("reproduce: unknown experiment {bad:?} (known: {})", known.join(" "));
        std::process::exit(2);
    }
    let doc = if check {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../EXPERIMENTS.md");
        std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {path}: {e}"))
    } else {
        String::new()
    };

    let mut lab = Lab::new(Size::Paper);
    let mut errors = Vec::new();
    let t0 = Instant::now();
    for e in EXPERIMENTS.iter().filter(|e| ids.is_empty() || ids.contains(&e.id)) {
        let t = Instant::now();
        let report = (e.measure)(&mut lab);
        eprintln!("reproduce: {:<5} {:>7.1} s", e.id, t.elapsed().as_secs_f64());
        if check {
            errors.extend(verify(e.id, &report, Size::Paper, &doc));
        } else {
            print!("{}", report.render(e.id, Size::Paper));
        }
    }
    eprintln!("reproduce: total {:.1} s", t0.elapsed().as_secs_f64());
    for err in &errors {
        eprintln!("reproduce: {err}");
    }
    if !errors.is_empty() {
        std::process::exit(1);
    }
}
