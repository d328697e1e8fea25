//! Shared thread pool: one parallel-for over `0..n`, and the ordered
//! parallel maps built on it.
//!
//! This is the in-tree replacement for the `rayon` primitives the
//! workspace used. Every caller is a flat indexed map: [`par_map`]
//! encodes per-thread profiles, and [`par_map_mut`] runs the epoch
//! scheduler's per-domain shards and the world runner's nodes.
//!
//! Design: a fixed set of worker threads parks on a pool-owned condvar.
//! A parallel call publishes one descriptor — the index count `n`, a
//! claim counter, a settle counter and a lifetime-erased pointer to the
//! caller's per-index closure — and wakes up to `n - 1` workers. The
//! caller and the woken workers claim indices with `fetch_add` until the
//! claim counter passes `n`, and bump the settle counter after each
//! claimed index has run. Once every index is claimed the caller
//! unpublishes the descriptor, then waits on a second pool-owned condvar
//! until the settle count reaches `n`. Every wait re-checks its condition
//! under the pool lock, so no wake-up is lost and none is timed.
//!
//! At most one descriptor is published at a time. A call made from
//! inside a pool task (on a worker, or in the caller's own share of a
//! published call) runs inline, and so does a top-level call made while
//! another call's descriptor is published, a call over fewer than two
//! indices, and every call on a pool with no workers. Inline means the
//! same claim loop over an unpublished descriptor. Results are
//! positional, so no path can change observable output.
//!
//! Panics: every index runs under `catch_unwind`. Only after all `n`
//! indices have settled is the panic of the lowest panicking index
//! re-raised in the caller, so a panicking index never strands another.
//!
//! The pool size comes from `DCP_THREADS` (0 forces fully sequential
//! execution) or the available parallelism. A `DCP_THREADS` that is not
//! a whole number panics at first use of the pool, naming the value.

use std::any::Any;
use std::cell::Cell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicPtr, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread;

/// The caller's per-index closure, with its lifetime erased so that a
/// published [`Task`] can name it.
type Body = &'static (dyn Fn(usize) + Sync);

/// One parallel-for. Workers co-own it through an `Arc` cloned under
/// the pool lock; only the closure behind `body` lives on the caller's
/// stack.
struct Task {
    n: usize,
    /// Points at the caller's `&dyn Fn` local. An `AtomicPtr` only so
    /// that the descriptor is `Send + Sync`; it is never stored to.
    body: AtomicPtr<Body>,
    /// Next index to claim; values `>= n` mean nothing is left. Claims
    /// publish no data, so `Relaxed` suffices: the read-modify-write alone
    /// hands each index to exactly one executor.
    next: AtomicUsize,
    /// Indices that have finished running, panicked or not. Executors
    /// increment it `AcqRel` after their index's writes; the caller's
    /// `Acquire` load of `n` makes all of them visible before it returns.
    settled: AtomicUsize,
    /// The lowest panicking index and its payload.
    panic: Mutex<Option<(usize, Box<dyn Any + Send>)>>,
}

impl Task {
    /// Claim and run indices until none is left. Returns whether this
    /// executor settled the last index.
    fn run(&self) -> bool {
        let mut last = false;
        loop {
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= self.n {
                return last;
            }
            // SAFETY: `body` points at the `&dyn Fn` argument of the
            // `for_each_index` call that made this task. That call does
            // not return, nor unwind (every index runs under
            // `catch_unwind`), until `settled` reaches `n`. We claimed
            // `i < n`, and `settled` cannot reach `n` before our own
            // increment for `i` below, which comes after the last use of
            // `body`. A late executor that claims `i >= n` never gets here.
            let body: &(dyn Fn(usize) + Sync) = unsafe { *self.body.load(Ordering::Relaxed) };
            if let Err(payload) = catch_unwind(AssertUnwindSafe(|| body(i))) {
                let mut slot = self.panic.lock().expect("panic slot");
                if slot.as_ref().is_none_or(|(j, _)| i < *j) {
                    *slot = Some((i, payload));
                }
            }
            last = self.settled.fetch_add(1, Ordering::AcqRel) + 1 == self.n;
        }
    }
}

struct State {
    /// The published call, if any.
    task: Option<Arc<Task>>,
    /// Bumped on every publish, so a worker takes each task once.
    generation: u64,
}

struct Pool {
    state: Mutex<State>,
    /// Workers wait here for a new generation.
    work: Condvar,
    /// Callers wait here for their task to settle.
    done: Condvar,
    workers: usize,
}

thread_local! {
    /// Set on pool workers, and on a caller while it runs its share of a
    /// published call: a parallel call made there runs inline.
    static IN_TASK: Cell<bool> = const { Cell::new(false) };
}

fn pool() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| {
        let workers = match std::env::var_os("DCP_THREADS") {
            None => thread::available_parallelism().map_or(1, |n| n.get()),
            Some(v) => v.to_str().and_then(|s| s.parse().ok()).unwrap_or_else(|| {
                panic!("DCP_THREADS={v:?} is not a thread count (a whole number, 0 = sequential)")
            }),
        }
        .saturating_sub(1);
        for i in 0..workers {
            thread::Builder::new()
                .name(format!("dcp-pool-{i}"))
                .spawn(worker_loop)
                .expect("spawn pool worker");
        }
        Pool {
            state: Mutex::new(State { task: None, generation: 0 }),
            work: Condvar::new(),
            done: Condvar::new(),
            workers,
        }
    })
}

fn worker_loop() {
    let p = pool();
    IN_TASK.set(true);
    let mut seen = 0;
    loop {
        let task = {
            let mut s = p.state.lock().expect("pool lock");
            loop {
                if s.generation != seen {
                    if let Some(t) = &s.task {
                        seen = s.generation;
                        break Arc::clone(t);
                    }
                }
                s = p.work.wait(s).expect("pool lock");
            }
        };
        if task.run() {
            let _s = p.state.lock().expect("pool lock");
            p.done.notify_all();
        }
    }
}

/// Number of threads that can run work simultaneously (workers plus the
/// calling thread itself).
pub fn parallelism() -> usize {
    pool().workers + 1
}

/// Run `body(i)` for every `i` in `0..n`, potentially in parallel, and
/// return once all of them have run. A panic in any of them is re-raised
/// here after all `n` have settled.
fn for_each_index(n: usize, body: &(dyn Fn(usize) + Sync)) {
    let p = pool();
    let task = Arc::new(Task {
        n,
        body: AtomicPtr::new((&body as *const &(dyn Fn(usize) + Sync)).cast::<Body>().cast_mut()),
        next: AtomicUsize::new(0),
        settled: AtomicUsize::new(0),
        panic: Mutex::new(None),
    });
    let published = n > 1 && p.workers > 0 && !IN_TASK.get() && {
        let mut s = p.state.lock().expect("pool lock");
        let free = s.task.is_none();
        if free {
            s.task = Some(Arc::clone(&task));
            s.generation += 1;
        }
        free
    };
    if published {
        for _ in 0..p.workers.min(n - 1) {
            p.work.notify_one();
        }
        IN_TASK.set(true);
        task.run();
        IN_TASK.set(false);
        let mut s = p.state.lock().expect("pool lock");
        s.task = None;
        while task.settled.load(Ordering::Acquire) < n {
            s = p.done.wait(s).expect("pool lock");
        }
    } else {
        task.run();
    }
    let panic = task.panic.lock().expect("panic slot").take();
    if let Some((_, payload)) = panic {
        resume_unwind(payload);
    }
}

/// Run `f` once per input on the pool, returning results in input order.
fn map_each<I: Send, R: Send>(
    inputs: impl Iterator<Item = I>,
    f: impl Fn(I) -> R + Sync,
) -> Vec<R> {
    let inputs: Vec<Mutex<Option<I>>> = inputs.map(|x| Mutex::new(Some(x))).collect();
    let outputs: Vec<Mutex<Option<R>>> = inputs.iter().map(|_| Mutex::new(None)).collect();
    for_each_index(inputs.len(), &|i| {
        let x = inputs[i].lock().expect("input slot").take().expect("each index runs once");
        let r = f(x);
        *outputs[i].lock().expect("output slot") = Some(r);
    });
    outputs
        .into_iter()
        .map(|r| r.into_inner().expect("output slot").expect("every index ran"))
        .collect()
}

/// Map `f` over `items` in parallel, returning results in input order.
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    map_each(items.iter(), f)
}

/// Map `f` over mutable `items` in parallel, returning results in input
/// order. Each index borrows only its own item, so callers can hand out
/// disjoint mutable state (a node, a shard) per index.
pub fn par_map_mut<T, R, F>(items: &mut [T], f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(&mut T) -> R + Sync,
{
    map_each(items.iter_mut(), f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn par_map_returns_every_result() {
        let out = par_map(&[0, 1], |&i| (i == 0).then_some(2 + 2).ok_or_else(|| "ok".to_string()));
        let (a, b) = (out[0].clone().unwrap(), out[1].clone().unwrap_err());
        assert_eq!(a, 4);
        assert_eq!(b, "ok");
    }

    #[test]
    fn par_map_nests_deeply() {
        fn sum(lo: u64, hi: u64) -> u64 {
            if hi - lo <= 64 {
                return (lo..hi).sum();
            }
            let mid = lo + (hi - lo) / 2;
            par_map(&[(lo, mid), (mid, hi)], |&(a, b)| sum(a, b)).into_iter().sum()
        }
        assert_eq!(sum(0, 100_000), 100_000 * 99_999 / 2);
    }

    #[test]
    fn par_map_borrows_stack_data() {
        let xs = vec![1u64, 2, 3, 4];
        let ys = vec![10u64, 20];
        let sums = par_map(&[&xs, &ys], |v| v.iter().sum::<u64>());
        assert_eq!((sums[0], sums[1]), (10, 30));
        drop((xs, ys)); // still owned here
    }

    #[test]
    fn last_index_panic_propagates() {
        let r = std::panic::catch_unwind(|| {
            par_map(&[0, 1], |&i| -> i32 {
                if i == 1 {
                    panic!("right boom");
                }
                1
            });
        });
        let p = r.expect_err("must propagate");
        let msg = p.downcast_ref::<&str>().copied().unwrap_or("");
        assert_eq!(msg, "right boom");
    }

    #[test]
    fn first_index_panic_propagates_after_the_rest_settle() {
        let right_ran = AtomicUsize::new(0);
        let r = std::panic::catch_unwind(AssertUnwindSafe(|| {
            par_map(&[0, 1], |&i| {
                if i == 0 {
                    panic!("left boom");
                }
                right_ran.fetch_add(1, Ordering::SeqCst)
            });
        }));
        assert!(r.is_err());
        assert_eq!(right_ran.load(Ordering::SeqCst), 1, "right side must still run");
    }

    #[test]
    fn every_index_panicking_does_not_deadlock() {
        let r = std::panic::catch_unwind(|| {
            par_map(&[0, 1], |&i| -> i32 { panic!("{}", if i == 0 { "left" } else { "right" }) });
        });
        assert!(r.is_err());
    }

    #[test]
    fn panics_propagate_through_nested_maps() {
        let r = std::panic::catch_unwind(|| {
            par_map(&[0, 1], |&i| {
                if i == 0 {
                    par_map(&[0, 1], |&j| -> i32 {
                        if j == 1 {
                            panic!("deep boom");
                        }
                        1
                    });
                }
                2
            });
        });
        assert!(r.is_err());
    }

    #[test]
    fn par_map_preserves_order() {
        let items: Vec<u64> = (0..1000).collect();
        let out = par_map(&items, |&x| x * 3);
        assert_eq!(out, (0..1000).map(|x| x * 3).collect::<Vec<_>>());
    }

    #[test]
    fn par_map_mut_mutates_and_preserves_order() {
        let mut items: Vec<u64> = (0..500).collect();
        let out = par_map_mut(&mut items, |x| {
            *x += 1;
            *x * 2
        });
        assert_eq!(items, (1..=500).collect::<Vec<_>>());
        assert_eq!(out, (1..=500).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn many_more_tasks_than_workers() {
        // Oversubscription: far more indices than pool threads.
        let items: Vec<u64> = (0..4096).collect();
        let out = par_map(&items, |&x| {
            // A little nested parallelism inside each task.
            par_map(&[x, x + 1], |&y| y).into_iter().sum::<u64>()
        });
        let want: Vec<u64> = (0..4096).map(|x| 2 * x + 1).collect();
        assert_eq!(out, want);
    }

    #[test]
    fn empty_and_singleton_maps() {
        let empty: Vec<u32> = Vec::new();
        assert!(par_map(&empty, |&x| x).is_empty());
        assert_eq!(par_map(&[7u32], |&x| x + 1), vec![8]);
    }

    /// The maps' reduction order must be stable under pool
    /// oversubscription — 512 tasks folded with a deliberately
    /// non-commutative operation give the exact sequential answer every
    /// time, for any worker count (`scripts/verify.sh` also runs the
    /// pool tests at 0 and 8 workers).
    #[test]
    fn reduction_order_stable_under_oversubscription() {
        let items: Vec<u64> = (1..=512).collect();
        // Non-commutative, non-associative-looking fold over an order
        // fingerprint: any reordering changes the result.
        let fold = |a: u64, b: u64| a.wrapping_mul(31).wrapping_add(b);
        let expect = items.iter().map(|&x| x * 7).reduce(fold).unwrap();
        for _ in 0..8 {
            let got = par_map(&items, |&x| x * 7).into_iter().reduce(fold).unwrap();
            assert_eq!(got, expect, "reduction order must not depend on scheduling");
        }
        // Same stability for the mutable form over indexed chunks: chunk
        // results come back in chunk order.
        for _ in 0..8 {
            let mut v: Vec<u64> = (1..=512).collect();
            let mut chunks: Vec<(usize, &mut [u64])> = v.chunks_mut(3).enumerate().collect();
            let per_chunk = par_map_mut(&mut chunks, |(idx, c)| {
                (*idx as u64).wrapping_mul(131).wrapping_add(c.iter().sum::<u64>())
            });
            let folded = per_chunk.into_iter().reduce(fold).unwrap();
            let mut w: Vec<u64> = (1..=512).collect();
            let seq: Vec<u64> = w
                .chunks_mut(3)
                .enumerate()
                .map(|(i, c)| (i as u64).wrapping_mul(131).wrapping_add(c.iter().sum::<u64>()))
                .collect();
            assert_eq!(folded, seq.into_iter().reduce(fold).unwrap());
        }
    }
}
