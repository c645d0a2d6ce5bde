//! Minimal work-stealing-free worker pool over scoped threads.
//!
//! One atomic counter hands out task indices; each worker keeps its results
//! in a thread-local vector and they are stitched back into input order after
//! the scope joins. No mutexes, no channels — determinism comes from results
//! being keyed by index, not from scheduling.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// The host's available parallelism, or `None` if the platform cannot say.
///
/// `std::thread::available_parallelism` re-reads the affinity mask and the
/// cgroup CPU quota on every call; the answer is read once per process and
/// cached here, since the kernels and the annotator ask on every product
/// and every construction.
pub fn available_threads() -> Option<usize> {
    static THREADS: OnceLock<Option<usize>> = OnceLock::new();
    *THREADS.get_or_init(|| {
        std::thread::available_parallelism()
            .ok()
            .map(std::num::NonZeroUsize::get)
    })
}

/// Runs `task(0..n_tasks)` across at most `threads` scoped workers and
/// returns the results in task order.
///
/// With `threads <= 1` (or a single task) everything runs on the calling
/// thread with zero synchronization. Workers claim indices with a single
/// `AtomicUsize::fetch_add`, so an idle worker never blocks a busy one.
///
/// # Panics
/// Propagates a panic from any task after the scope joins.
pub fn run_indexed<R, F>(n_tasks: usize, threads: usize, task: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let threads = threads.max(1).min(n_tasks);
    if threads <= 1 {
        return (0..n_tasks).map(task).collect();
    }

    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<R>> = (0..n_tasks).map(|_| None).collect();
    crossbeam::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let (next, task) = (&next, &task);
                scope.spawn(move |_| {
                    let mut local = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n_tasks {
                            break;
                        }
                        local.push((i, task(i)));
                    }
                    local
                })
            })
            .collect();
        for handle in handles {
            for (i, r) in handle.join().expect("pool worker panicked") {
                slots[i] = Some(r);
            }
        }
    })
    .expect("pool scope panicked");
    slots
        .into_iter()
        .map(|r| r.expect("task not run"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_in_task_order() {
        for threads in [1, 2, 3, 8, 100] {
            let got = run_indexed(17, threads, |i| i * i);
            assert_eq!(
                got,
                (0..17).map(|i| i * i).collect::<Vec<_>>(),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn zero_tasks() {
        let got: Vec<usize> = run_indexed(0, 4, |i| i);
        assert!(got.is_empty());
    }

    #[test]
    fn every_index_claimed_exactly_once() {
        use std::sync::atomic::AtomicU32;
        let calls: Vec<AtomicU32> = (0..64).map(|_| AtomicU32::new(0)).collect();
        run_indexed(64, 8, |i| calls[i].fetch_add(1, Ordering::Relaxed));
        assert!(calls.iter().all(|c| c.load(Ordering::Relaxed) == 1));
    }
}
