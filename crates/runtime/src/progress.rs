//! Single-writer progress counters: the run's termination test, with no
//! read-modify-write anywhere. `injected`
//! is stored only by the ingest thread, *before* the ring push it accounts
//! for; `completed[i]` only by shard `i`; each sits on its own cache line.
//! Atomics route through `loom` under `--cfg loom`, as in [`crate::ring`].

#[cfg(loom)]
use loom::sync::atomic::{AtomicBool, AtomicU64, Ordering};
#[cfg(not(loom))]
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use crate::ring::CacheAligned;

/// Copies injected, copies completed per shard, and the end-of-ingest flag.
pub struct Progress {
    injected: CacheAligned<AtomicU64>,
    completed: Box<[CacheAligned<AtomicU64>]>,
    ingest_done: AtomicBool,
}

impl Progress {
    /// Counters for `shards` workers, all zero.
    pub fn new(shards: usize) -> Self {
        let zero = || CacheAligned(AtomicU64::new(0));
        Progress {
            injected: zero(),
            completed: (0..shards).map(|_| zero()).collect(),
            ingest_done: AtomicBool::new(false),
        }
    }

    /// Ingest only: the running total of injected copies.
    pub fn set_injected(&self, total: u64) {
        self.injected.0.store(total, Ordering::Release);
    }

    /// Ingest only: nothing more will be injected.
    pub fn finish_ingest(&self) {
        self.ingest_done.store(true, Ordering::Release);
    }

    /// `shard` only: its running total of copies emitted, dropped or shed.
    pub fn publish(&self, shard: usize, total: u64) {
        self.completed[shard].0.store(total, Ordering::Release);
    }

    /// Copies injected so far.
    pub fn injected(&self) -> u64 {
        self.injected.0.load(Ordering::Acquire)
    }

    /// Injected copies with no published outcome yet. `completed` is read
    /// first: a copy's `set_injected` happens-before its `publish` (through
    /// the ring), so the later `injected` load covers every completion summed
    /// and the difference never underflows.
    pub fn backlog(&self) -> u64 {
        let outcomes = self.completed.iter().map(|c| c.0.load(Ordering::Acquire));
        let done: u64 = outcomes.sum();
        self.injected() - done
    }

    /// The exit test. `ingest_done` is read first: once it is seen,
    /// `injected` is final, so a zero backlog cannot be a lull between two
    /// arrivals — every copy the run will ever inject has a published outcome.
    pub fn drained(&self) -> bool {
        self.ingest_done.load(Ordering::Acquire) && self.backlog() == 0
    }
}
