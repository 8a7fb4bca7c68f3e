//! The one parallel job pool: independent jobs on scoped worker threads,
//! results in job-index order. The repro harness runs its sweep cells and
//! the fuzz sweep its cases through it, so both outputs are byte-identical
//! for every worker count.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

/// Run `count` independent jobs on up to `jobs` worker threads and return
/// their results in job-index order.
///
/// Workers pull indices from a shared atomic counter (work stealing), so
/// uneven cell costs balance across threads. Results travel back over a
/// channel tagged with their index and are reassembled in order, which makes
/// the output independent of scheduling: callers observe exactly what a
/// serial `(0..count).map(f)` would produce. With `jobs <= 1` (or a single
/// job) the closure runs inline on the caller's thread. A panicking job
/// propagates the panic to the caller once the scope joins.
pub fn run_jobs<T, F>(jobs: usize, count: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if jobs <= 1 || count <= 1 {
        return (0..count).map(f).collect();
    }
    let workers = jobs.min(count);
    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<T>> = (0..count).map(|_| None).collect();
    std::thread::scope(|scope| {
        let (tx, rx) = mpsc::channel::<(usize, T)>();
        for _ in 0..workers {
            let tx = tx.clone();
            let next = &next;
            let f = &f;
            scope.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= count {
                    break;
                }
                let result = f(i);
                if tx.send((i, result)).is_err() {
                    break;
                }
            });
        }
        drop(tx);
        for (i, result) in rx {
            slots[i] = Some(result);
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.expect("every job index completed"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_jobs_preserves_order() {
        let parallel = run_jobs(4, 37, |i| i * i);
        let serial = run_jobs(1, 37, |i| i * i);
        assert_eq!(parallel, (0..37).map(|i| i * i).collect::<Vec<_>>());
        assert_eq!(parallel, serial);
    }

    #[test]
    fn run_jobs_handles_edge_counts() {
        assert!(run_jobs(4, 0, |i| i).is_empty());
        assert_eq!(run_jobs(8, 1, |i| i + 1), vec![1]);
        assert_eq!(run_jobs(0, 3, |i| i), vec![0, 1, 2]);
    }
}
