//! Stress test for the pool's parallel-for at fixed worker counts.
//!
//! The pool reads `DCP_THREADS` once per process, so the driver tests
//! re-run this test binary as a child per setting, and each child runs
//! only `pool_stress_workload`. That test also runs in-process at the
//! default pool size. Every result is checked against the sequential
//! answer.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::{Command, Output};
use std::sync::atomic::{AtomicUsize, Ordering};

use dcp_support::pool::{par_map, par_map_mut, parallelism};
use dcp_support::SmallRng;

/// Run `pool_stress_workload` alone in a child process at `threads`.
fn child(threads: &str) -> Output {
    Command::new(std::env::current_exe().expect("test binary path"))
        .args(["--exact", "pool_stress_workload", "--nocapture"])
        .env("DCP_THREADS", threads)
        .output()
        .expect("spawn child test process")
}

#[test]
fn pool_stress_at_2_and_8_workers() {
    for threads in ["2", "8"] {
        let out = child(threads);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            out.status.success() && stdout.contains("1 passed"),
            "stress child at DCP_THREADS={threads} failed:\n{stdout}\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
}

#[test]
fn pool_rejects_unparsable_dcp_threads() {
    let out = child("abc");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "DCP_THREADS=abc must fail at start-up");
    assert!(stderr.contains("abc"), "the panic must name the value:\n{stderr}");
}

/// Uneven work: the cost of `x` grows with `x % 997`.
fn work(x: u64) -> u64 {
    let mut h = x;
    for _ in 0..x % 997 {
        h = h.wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(17) ^ x;
    }
    h
}

fn uneven_items(rng: &mut SmallRng, max_len: usize) -> Vec<u64> {
    let n = rng.gen_range(0..=max_len);
    (0..n).map(|_| rng.next_u64() >> 40).collect()
}

/// Panics raised by the seeded-panic section; the hook counts them so
/// that each one is seen to be raised exactly once.
static BOOMS: AtomicUsize = AtomicUsize::new(0);

#[test]
fn pool_stress_workload() {
    let slots = parallelism();
    if let Some(v) = std::env::var_os("DCP_THREADS") {
        let want: usize = v.to_str().and_then(|s| s.parse().ok()).expect("numeric DCP_THREADS");
        assert_eq!(slots, want.max(1), "pool size must follow DCP_THREADS");
    }
    let mut rng = SmallRng::seed_from_u64(0x5eed);
    let (mut calls, mut indices) = (0usize, 0usize);

    // Flat maps of uneven length over uneven work.
    for _ in 0..8_000 {
        let items = uneven_items(&mut rng, 56);
        let got = par_map(&items, |&x| work(x));
        assert_eq!(got, items.iter().map(|&x| work(x)).collect::<Vec<_>>());
        calls += 1;
        indices += items.len();
    }

    // Nested maps: each row of a mutable map runs its own `par_map`.
    for _ in 0..1_000 {
        let rows = rng.gen_range(1..=8usize);
        let mut m: Vec<Vec<u64>> = (0..rows).map(|_| uneven_items(&mut rng, 16)).collect();
        let want_m: Vec<Vec<u64>> =
            m.iter().map(|r| r.iter().map(|&x| work(x)).collect()).collect();
        let want_xor: Vec<u64> = want_m.iter().map(|r| r.iter().fold(0, |a, &b| a ^ b)).collect();
        let got_xor = par_map_mut(&mut m, |row| {
            let w = par_map(row, |&x| work(x));
            row.copy_from_slice(&w);
            w.iter().fold(0, |a, &b| a ^ b)
        });
        assert_eq!((got_xor, &m), (want_xor, &want_m));
        calls += 1 + rows;
        indices += rows + m.iter().map(Vec::len).sum::<usize>();
    }

    // Four threads making top-level calls at the same time.
    let per_thread: Vec<(usize, usize)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..4u64)
            .map(|t| {
                s.spawn(move || {
                    let mut rng = SmallRng::seed_from_u64(t);
                    let mut n = 0;
                    for _ in 0..2_000 {
                        let items = uneven_items(&mut rng, 24);
                        let got = par_map(&items, |&x| work(x));
                        assert_eq!(got, items.iter().map(|&x| work(x)).collect::<Vec<_>>());
                        n += items.len();
                    }
                    (2_000, n)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("caller thread")).collect()
    });
    calls += per_thread.iter().map(|p| p.0).sum::<usize>();
    indices += per_thread.iter().map(|p| p.1).sum::<usize>();

    // A panic at a seeded index surfaces once, after every other index
    // has run.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let msg = info.payload().downcast_ref::<String>();
        if msg.is_some_and(|m| m.starts_with("stress boom")) {
            BOOMS.fetch_add(1, Ordering::SeqCst);
        } else {
            default_hook(info);
        }
    }));
    let panicking_calls = 300;
    for _ in 0..panicking_calls {
        let n = rng.gen_range(1..=64usize);
        let bad = rng.gen_range(0..n);
        let items: Vec<usize> = (0..n).collect();
        let ran = AtomicUsize::new(0);
        let r = catch_unwind(AssertUnwindSafe(|| {
            par_map(&items, |&i| {
                if i == bad {
                    panic!("stress boom at {i}");
                }
                ran.fetch_add(1, Ordering::SeqCst);
                work(i as u64)
            })
        }));
        let payload = r.expect_err("the seeded panic must propagate");
        assert_eq!(payload.downcast_ref::<String>(), Some(&format!("stress boom at {bad}")));
        assert_eq!(ran.load(Ordering::SeqCst), n - 1, "every other index must have run");
        calls += 1;
        indices += n;
    }
    let _ = std::panic::take_hook();
    assert_eq!(BOOMS.load(Ordering::SeqCst), panicking_calls, "each seeded panic raised once");

    assert!(calls >= 20_000 && indices >= 200_000, "{calls} calls over {indices} indices");
}
