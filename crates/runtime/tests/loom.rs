//! Model-checked (or, with the in-repo shim, stress-checked) concurrency
//! tests for the bounded MPMC ring (push/pop/steal handoffs) and for the
//! single-writer progress counters the run terminates on.
//!
//! Written against the `loom` API: each test wraps a tiny concurrent body
//! in `loom::model`. With upstream loom (swap the workspace path dependency
//! and build with `RUSTFLAGS="--cfg loom"`) the bodies are explored
//! exhaustively; with the offline `shims/loom` stand-in each body re-runs
//! `LOOM_STRESS_ITERS` times (default 200) on real threads. Bodies are kept
//! to ≤3 threads and a handful of operations so exhaustive exploration
//! stays tractable when the real checker is in play.

use hcq_runtime::progress::Progress;
use hcq_runtime::ring::Ring;
use loom::sync::Arc;
use loom::thread;

/// Pop with bounded retries — under the shim, a concurrent producer may
/// not have published yet; under real loom, yielding lets the scheduler
/// explore the producer's steps.
fn pop_eventually(ring: &Ring<u32>) -> u32 {
    loop {
        if let Some(v) = ring.try_pop() {
            return v;
        }
        thread::yield_now();
    }
}

#[test]
fn spsc_handoff_preserves_order() {
    loom::model(|| {
        let ring: Arc<Ring<u32>> = Arc::new(Ring::new(2));
        let producer = {
            let ring = ring.clone();
            thread::spawn(move || {
                for v in [10, 11, 12] {
                    let mut item = v;
                    while let Err(back) = ring.try_push(item) {
                        item = back;
                        thread::yield_now();
                    }
                }
            })
        };
        let got = [
            pop_eventually(&ring),
            pop_eventually(&ring),
            pop_eventually(&ring),
        ];
        producer.join().unwrap();
        assert_eq!(got, [10, 11, 12], "SPSC order is FIFO");
        assert_eq!(ring.try_pop(), None);
    });
}

#[test]
fn steal_races_with_owner_without_loss_or_duplication() {
    loom::model(|| {
        let ring: Arc<Ring<u32>> = Arc::new(Ring::new(4));
        ring.try_push(1).unwrap();
        ring.try_push(2).unwrap();
        // The "owner" and a "thief" race over the same two items: exactly
        // one of them gets each item, none are lost or duplicated.
        let thief = {
            let ring = ring.clone();
            thread::spawn(move || ring.try_pop())
        };
        let own = ring.try_pop();
        let stolen = thief.join().unwrap();
        let mut got: Vec<u32> = own.into_iter().chain(stolen).collect();
        got.sort_unstable();
        match got.len() {
            // The thief may observe head before the owner's claim settles
            // and see "empty"; the item stays claimable.
            1 => assert_eq!(got[0], 1, "a lone pop gets the oldest item"),
            2 => assert_eq!(got, [1, 2], "both items handed out exactly once"),
            n => panic!("{n} pops from 2 items"),
        }
        // Whatever raced, the remainder drains without loss.
        let mut rest: Vec<u32> = std::iter::from_fn(|| ring.try_pop()).collect();
        got.append(&mut rest);
        got.sort_unstable();
        assert_eq!(got, [1, 2]);
    });
}

#[test]
fn concurrent_producers_conserve_into_one_consumer() {
    loom::model(|| {
        let ring: Arc<Ring<u32>> = Arc::new(Ring::new(2));
        let producers: Vec<_> = [100u32, 200u32]
            .into_iter()
            .map(|base| {
                let ring = ring.clone();
                thread::spawn(move || {
                    let mut item = base;
                    while let Err(back) = ring.try_push(item) {
                        item = back;
                        thread::yield_now();
                    }
                })
            })
            .collect();
        let mut got = [pop_eventually(&ring), pop_eventually(&ring)];
        for p in producers {
            p.join().unwrap();
        }
        got.sort_unstable();
        assert_eq!(got, [100, 200], "each push consumed exactly once");
        assert_eq!(ring.try_pop(), None);
    });
}

/// `Shard::run`'s protocol on shard 0's inbox, every arrival fanning out to
/// `COPIES` copies: publish at the top of the turn, pop (the owner draining,
/// the thief stealing — the same ring operation), exit on `drained()`.
/// Returns the copies this worker completed.
fn worker(shard: usize, inbox: &Ring<u32>, progress: &Progress) -> u64 {
    let (mut done, mut published) = (0, 0);
    loop {
        if done != published {
            progress.publish(shard, done);
            published = done;
        }
        if inbox.try_pop().is_some() {
            // Popped and completed, but unpublished until the next turn.
            done += COPIES;
            continue;
        }
        if progress.drained() {
            // Legal only once every copy of the run has a published outcome
            // — in particular not while the sibling holds a popped arrival.
            assert_eq!((progress.injected(), progress.backlog()), (TOTAL, 0));
            return done;
        }
        thread::yield_now();
    }
}

const COPIES: u64 = 2;
const TOTAL: u64 = 2 * COPIES;

#[test]
fn workers_exit_exactly_when_every_injected_copy_is_published() {
    loom::model(|| {
        let inbox: Arc<Ring<u32>> = Arc::new(Ring::new(2));
        let progress = Arc::new(Progress::new(2));
        let workers: Vec<_> = (0..2)
            .map(|shard| {
                let (inbox, progress) = (inbox.clone(), progress.clone());
                thread::spawn(move || worker(shard, &inbox, &progress))
            })
            .collect();
        // Ingest: account for an arrival's copies, then push it.
        for arrival in 0..2 {
            progress.set_injected((arrival as u64 + 1) * COPIES);
            let mut item = arrival;
            while let Err(back) = inbox.try_push(item) {
                item = back;
                thread::yield_now();
            }
        }
        progress.finish_ingest();
        let completed: u64 = workers.into_iter().map(|w| w.join().unwrap()).sum();
        assert_eq!(completed, progress.injected(), "every worker exited");
        assert_eq!(progress.backlog(), 0);
    });
}
