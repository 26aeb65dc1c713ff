//! Minimal data-parallel helpers, pool-backed by default.
//!
//! Every helper funnels through [`run_threads`], which executes parallel
//! regions on the persistent [`crate::pool::ThreadPool`] unless the caller
//! scopes in [`ExecEngine::SpawnPerCall`] (the seed's spawn-and-join
//! behaviour, kept for baseline measurement and A/B testing).

use std::cell::Cell;
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

/// Work-distribution policy for a parallel loop — the host realization of
/// the paper's `OMP for schedule` machine choice (`M11`) and chunk size
/// (`M12`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Scheduler {
    /// Contiguous static ranges, one per thread (`schedule(static)`).
    #[default]
    Static,
    /// Threads grab `grain`-sized chunks from a shared cursor
    /// (`schedule(dynamic, grain)`).
    Dynamic {
        /// Chunk size each thread claims at a time.
        grain: usize,
    },
}

impl Scheduler {
    /// Runs `work` over `0..n` on `threads` threads under this policy.
    pub fn for_each<F>(&self, n: usize, threads: usize, work: F)
    where
        F: Fn(std::ops::Range<usize>) + Sync,
    {
        self.for_each_worker(n, threads, |_, range| work(range));
    }

    /// Like [`Scheduler::for_each`] but also hands `work` the index of the
    /// worker executing the chunk (`0..threads`), so callers can keep
    /// per-worker state — local frontier buffers, scratch arrays — without
    /// locks. A worker may receive many chunks under dynamic scheduling.
    pub fn for_each_worker<F>(&self, n: usize, threads: usize, work: F)
    where
        F: Fn(usize, std::ops::Range<usize>) + Sync,
    {
        match *self {
            Scheduler::Static => {
                let threads = threads.max(1).min(n.max(1));
                let chunk = n.div_ceil(threads);
                run_threads(threads, |t| {
                    let lo = t * chunk;
                    let hi = ((t + 1) * chunk).min(n);
                    if lo < hi {
                        work(t, lo..hi);
                    }
                });
            }
            Scheduler::Dynamic { grain } => {
                let cursor = AtomicUsize::new(0);
                let grain = grain.max(1);
                run_threads(threads, |t| loop {
                    let start = cursor.fetch_add(grain, Ordering::Relaxed);
                    if start >= n {
                        break;
                    }
                    let end = start.saturating_add(grain).min(n);
                    work(t, start..end);
                });
            }
        }
    }
}

/// Which execution engine parallel regions run on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecEngine {
    /// The persistent [`crate::pool::ThreadPool`]: workers are spawned once
    /// and parked between regions (the default).
    #[default]
    Pooled,
    /// Fresh OS threads per region via scoped spawn — the seed behaviour,
    /// kept as the baseline for `exp_engine_speedup`.
    SpawnPerCall,
}

thread_local! {
    static ENGINE: Cell<ExecEngine> = const { Cell::new(ExecEngine::Pooled) };
}

/// The engine parallel regions entered from this thread currently use.
pub fn current_engine() -> ExecEngine {
    ENGINE.with(Cell::get)
}

/// Runs `f` with all parallel regions entered from this thread executing on
/// `engine`, restoring the previous engine afterwards (also on panic).
pub fn with_engine<R>(engine: ExecEngine, f: impl FnOnce() -> R) -> R {
    struct Restore(ExecEngine);
    impl Drop for Restore {
        fn drop(&mut self) {
            ENGINE.with(|e| e.set(self.0));
        }
    }
    let _restore = Restore(ENGINE.with(|e| e.replace(engine)));
    f()
}

/// Runs `work` on `threads` workers, each receiving its worker index.
/// Dispatches to the persistent pool or to spawn-per-call scoped threads
/// according to [`current_engine`]; either way this is a full barrier.
///
/// # Panics
///
/// Propagates panics from worker threads.
pub fn run_threads<F>(threads: usize, work: F)
where
    F: Fn(usize) + Sync,
{
    let threads = threads.max(1);
    if threads == 1 {
        work(0);
        return;
    }
    match current_engine() {
        ExecEngine::Pooled => crate::pool::ThreadPool::global().run(threads, work),
        ExecEngine::SpawnPerCall => run_threads_spawn(threads, work),
    }
}

/// The seed's spawn-and-join realization of a parallel region: `threads`
/// fresh scoped OS threads, created and joined inside the call.
pub fn run_threads_spawn<F>(threads: usize, work: F)
where
    F: Fn(usize) + Sync,
{
    let threads = threads.max(1);
    if threads == 1 {
        work(0);
        return;
    }
    crossbeam::thread::scope(|s| {
        for t in 0..threads {
            let work = &work;
            s.spawn(move |_| work(t));
        }
    })
    .expect("kernel worker thread panicked");
}

/// Splits `0..n` into `threads` contiguous ranges and runs `work(range)` in
/// parallel. Ranges are balanced to within one element.
pub fn par_ranges<F>(n: usize, threads: usize, work: F)
where
    F: Fn(std::ops::Range<usize>) + Sync,
{
    Scheduler::Static.for_each(n, threads, work);
}

/// Dynamic work distribution: threads grab `grain`-sized chunks of `0..n`
/// from a shared cursor (the "OMP dynamic schedule" of the paper's M11).
/// The cursor is an `AtomicUsize`, so `n` near `u32::MAX` and grains larger
/// than `u32::MAX` are handled without wrapping or truncation.
pub fn par_dynamic<F>(n: usize, threads: usize, grain: usize, work: F)
where
    F: Fn(std::ops::Range<usize>) + Sync,
{
    Scheduler::Dynamic { grain }.for_each(n, threads, work);
}

/// Evaluates `f(i)` for every `i` in `0..n` on up to `threads` workers and
/// returns the results in index order. Workers claim indices one at a time
/// from a shared cursor, so only *who* computes an index is racy, never
/// what it yields or where it lands: for a pure `f` the output is
/// identical at any thread count. This is the slot evaluator of the
/// deterministic round drivers (chaos, fleet).
///
/// `f` must not enter another parallel region: the pool runs one region at
/// a time and its region lock is not reentrant, so a nested region from
/// inside `f` deadlocks.
pub fn par_map<T, F>(n: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    par_dynamic(n, threads.min(n.max(1)), 1, |range| {
        for i in range {
            let value = f(i);
            *slots[i].lock().expect("a slot lock guards one store") = Some(value);
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("a slot lock guards one store")
                .expect("every index evaluated")
        })
        .collect()
}

/// Splits `data` into `threads` contiguous chunks and runs
/// `work(offset, chunk)` in parallel, where `offset` is the chunk's start
/// index in `data`. Each chunk is an exclusive `&mut` — the pool-friendly
/// replacement for spawning scoped threads over `chunks_mut`.
pub fn par_chunks_mut<T, F>(data: &mut [T], threads: usize, work: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    let n = data.len();
    if n == 0 {
        return;
    }
    let threads = threads.max(1).min(n);
    let chunk = n.div_ceil(threads);
    struct Base<T>(*mut T);
    // SAFETY: workers only dereference disjoint ranges of the allocation.
    unsafe impl<T: Send> Sync for Base<T> {}
    impl<T> Base<T> {
        // Accessor so closures capture the whole (Sync) wrapper rather
        // than the raw-pointer field (2021 disjoint capture).
        fn get(&self) -> *mut T {
            self.0
        }
    }
    let base = Base(data.as_mut_ptr());
    run_threads(threads, |t| {
        let lo = t * chunk;
        let hi = ((t + 1) * chunk).min(n);
        if lo < hi {
            // SAFETY: each worker index runs exactly once, so the
            // `lo..hi` ranges partition `data` into non-overlapping
            // slices; the barrier in `run_threads` keeps `data` borrowed
            // for the whole region.
            let slice = unsafe { std::slice::from_raw_parts_mut(base.get().add(lo), hi - lo) };
            work(lo, slice);
        }
    });
}

/// Atomically lowers `slot` to `min(slot, value)` for f32 bit-packed in
/// `AtomicU32`. Returns `true` if the value was lowered.
///
/// Relies on the fact that for non-negative finite f32 values the bit pattern
/// ordering matches numeric ordering.
pub fn atomic_min_f32(slot: &AtomicU32, value: f32) -> bool {
    debug_assert!(value >= 0.0, "atomic_min_f32 requires non-negative values");
    let new_bits = value.to_bits();
    let mut cur = slot.load(Ordering::Relaxed);
    loop {
        if f32::from_bits(cur) <= value {
            return false;
        }
        match slot.compare_exchange_weak(cur, new_bits, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return true,
            Err(actual) => cur = actual,
        }
    }
}

/// Atomically adds `value` to an f32 bit-packed in `AtomicU32`.
pub fn atomic_add_f32(slot: &AtomicU32, value: f32) {
    let mut cur = slot.load(Ordering::Relaxed);
    loop {
        let next = (f32::from_bits(cur) + value).to_bits();
        match slot.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(actual) => cur = actual,
        }
    }
}

/// Atomically adds `value` to an f64 bit-packed in `AtomicU64` — the
/// double-precision reduction primitive PageRank's dangling-mass phase uses
/// instead of a hand-rolled CAS loop at every call site.
pub fn atomic_add_f64(slot: &AtomicU64, value: f64) {
    let mut cur = slot.load(Ordering::Relaxed);
    loop {
        let next = (f64::from_bits(cur) + value).to_bits();
        match slot.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(actual) => cur = actual,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn par_ranges_covers_everything_once() {
        let n = 1003;
        let hits: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(0)).collect();
        par_ranges(n, 7, |r| {
            for i in r {
                hits[i].fetch_add(1, Ordering::Relaxed);
            }
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn par_dynamic_covers_everything_once() {
        let n = 501;
        let hits: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(0)).collect();
        par_dynamic(n, 5, 16, |r| {
            for i in r {
                hits[i].fetch_add(1, Ordering::Relaxed);
            }
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn par_dynamic_survives_grain_beyond_u32() {
        // Regression: the seed's `AtomicU32` cursor truncated `grain as u32`
        // and wrapped for large `n`; a grain past `u32::MAX` must now cover
        // the range in one claim instead of re-running chunks forever.
        let n = 257;
        let grain = u32::MAX as usize + 10;
        let hits: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(0)).collect();
        par_dynamic(n, 4, grain, |r| {
            for i in r {
                hits[i].fetch_add(1, Ordering::Relaxed);
            }
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn par_dynamic_cursor_does_not_overflow_on_huge_grains() {
        // `start + grain` saturates instead of overflowing `usize`.
        let n = 12;
        let hits: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(0)).collect();
        par_dynamic(n, 3, usize::MAX, |r| {
            for i in r {
                hits[i].fetch_add(1, Ordering::Relaxed);
            }
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn single_thread_runs_inline() {
        let count = AtomicUsize::new(0);
        run_threads(1, |t| {
            assert_eq!(t, 0);
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn atomic_min_lowers_concurrently() {
        let slot = AtomicU32::new(f32::INFINITY.to_bits());
        run_threads(8, |t| {
            atomic_min_f32(&slot, 100.0 - t as f32);
        });
        assert_eq!(f32::from_bits(slot.load(Ordering::Relaxed)), 93.0);
    }

    #[test]
    fn atomic_min_refuses_higher_values() {
        let slot = AtomicU32::new(1.0f32.to_bits());
        assert!(!atomic_min_f32(&slot, 2.0));
        assert_eq!(f32::from_bits(slot.load(Ordering::Relaxed)), 1.0);
    }

    #[test]
    fn atomic_add_sums_concurrently() {
        let slot = AtomicU32::new(0.0f32.to_bits());
        run_threads(4, |_| {
            for _ in 0..100 {
                atomic_add_f32(&slot, 1.0);
            }
        });
        assert_eq!(f32::from_bits(slot.load(Ordering::Relaxed)), 400.0);
    }

    #[test]
    fn atomic_add_f64_sums_concurrently() {
        let slot = AtomicU64::new(0.0f64.to_bits());
        run_threads(4, |_| {
            for _ in 0..250 {
                atomic_add_f64(&slot, 0.5);
            }
        });
        assert_eq!(f64::from_bits(slot.load(Ordering::Relaxed)), 500.0);
    }

    #[test]
    fn par_ranges_with_zero_items_is_noop() {
        par_ranges(0, 4, |_| panic!("no work expected"));
    }

    #[test]
    fn par_map_returns_results_in_index_order_at_any_thread_count() {
        let want: Vec<usize> = (0..97).map(|i| i * i).collect();
        for threads in [1, 2, 5, 200] {
            assert_eq!(par_map(97, threads, |i| i * i), want, "threads={threads}");
        }
        assert!(par_map(0, 4, |i| i).is_empty());
    }

    #[test]
    fn par_chunks_mut_partitions_exactly() {
        let mut data = vec![0usize; 1003];
        par_chunks_mut(&mut data, 7, |offset, chunk| {
            for (i, slot) in chunk.iter_mut().enumerate() {
                *slot = offset + i + 1;
            }
        });
        // Every element written exactly once with its own index.
        assert!(data.iter().enumerate().all(|(i, &v)| v == i + 1));
    }

    #[test]
    fn par_chunks_mut_handles_empty_and_tiny() {
        let mut empty: Vec<u32> = Vec::new();
        par_chunks_mut(&mut empty, 4, |_, _| panic!("no work expected"));
        let mut tiny = vec![0u32; 2];
        par_chunks_mut(&mut tiny, 8, |offset, chunk| {
            for slot in chunk.iter_mut() {
                *slot = offset as u32 + 10;
            }
        });
        assert_eq!(tiny, vec![10, 11]);
    }

    #[test]
    fn schedulers_cover_everything_once() {
        for sched in [Scheduler::Static, Scheduler::Dynamic { grain: 7 }] {
            let n = 333;
            let hits: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(0)).collect();
            sched.for_each(n, 5, |r| {
                for i in r {
                    hits[i].fetch_add(1, Ordering::Relaxed);
                }
            });
            assert!(
                hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
                "{sched:?}"
            );
        }
    }

    #[test]
    fn for_each_worker_reports_valid_indices() {
        for sched in [Scheduler::Static, Scheduler::Dynamic { grain: 16 }] {
            let threads = 5;
            let n = 400;
            let hits: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(0)).collect();
            sched.for_each_worker(n, threads, |worker, r| {
                assert!(worker < threads, "{sched:?}: worker {worker}");
                for i in r {
                    hits[i].fetch_add(1, Ordering::Relaxed);
                }
            });
            assert!(
                hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
                "{sched:?}"
            );
        }
    }

    #[test]
    fn engines_produce_identical_coverage() {
        for engine in [ExecEngine::Pooled, ExecEngine::SpawnPerCall] {
            with_engine(engine, || {
                assert_eq!(current_engine(), engine);
                let n = 512;
                let hits: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(0)).collect();
                par_ranges(n, 4, |r| {
                    for i in r {
                        hits[i].fetch_add(1, Ordering::Relaxed);
                    }
                });
                assert!(
                    hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
                    "{engine:?}"
                );
            });
        }
        assert_eq!(current_engine(), ExecEngine::Pooled);
    }

    #[test]
    fn with_engine_restores_on_unwind() {
        let result = std::panic::catch_unwind(|| {
            with_engine(ExecEngine::SpawnPerCall, || panic!("scoped"));
        });
        assert!(result.is_err());
        assert_eq!(current_engine(), ExecEngine::Pooled);
    }

    #[test]
    fn default_scheduler_is_static() {
        assert_eq!(Scheduler::default(), Scheduler::Static);
    }

    #[test]
    fn default_engine_is_pooled() {
        assert_eq!(ExecEngine::default(), ExecEngine::Pooled);
    }
}
