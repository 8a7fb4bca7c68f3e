//! A lock-free bounded MPMC ring: the index-queue channel between the
//! ingest thread and the query shards, and the surface work stealing pops
//! from.
//!
//! The design is the classic bounded MPMC queue built from a power-of-two
//! slot array where each slot carries its own sequence number (the same
//! family as SNIPPETS' scq/ncq index queues: producers and consumers agree
//! on slot ownership through per-slot counters rather than a shared lock).
//! A producer claims slot `tail & mask` when the slot's sequence equals
//! `tail`; a consumer claims slot `head & mask` when the sequence equals
//! `head + 1`. Claim, write/read the payload, then publish by bumping the
//! sequence — every handoff is a single acquire/release pair per side.
//!
//! `try_push`/`try_pop` never block and never spin unboundedly: a full ring
//! returns the value to the caller (admission backpressure is the caller's
//! policy decision), an empty ring returns `None` (the shard goes on to
//! steal or park).
//!
//! Under `--cfg loom` the atomics and cells route through the `loom` crate
//! so the push/pop/steal handoff can be model-checked (exhaustively with
//! upstream loom; as a seeded stress run with the in-repo `shims/loom`
//! stand-in — see that crate's docs for the distinction).

#[cfg(loom)]
use loom::cell::UnsafeCell as PayloadCell;
#[cfg(loom)]
use loom::sync::atomic::{AtomicUsize, Ordering};

#[cfg(not(loom))]
use std::sync::atomic::{AtomicUsize, Ordering};

/// `loom::cell::UnsafeCell`-compatible wrapper over the std cell, so the
/// ring body is written once against the closure API.
#[cfg(not(loom))]
#[derive(Debug, Default)]
struct PayloadCell<T>(std::cell::UnsafeCell<T>);

#[cfg(not(loom))]
impl<T> PayloadCell<T> {
    fn new(v: T) -> Self {
        PayloadCell(std::cell::UnsafeCell::new(v))
    }

    fn with_mut<R>(&self, f: impl FnOnce(*mut T) -> R) -> R {
        f(self.0.get())
    }
}

/// Pad to a cache line so the producer and consumer cursors do not
/// false-share.
#[repr(align(64))]
pub(crate) struct CacheAligned<T>(pub(crate) T);

struct Slot<T> {
    /// Slot state: `seq == lap` ⇒ free for the producer whose tail is
    /// `lap`; `seq == lap + 1` ⇒ holds the value pushed at tail `lap`.
    seq: AtomicUsize,
    val: PayloadCell<Option<T>>,
}

/// Bounded lock-free MPMC ring. `T` crosses threads by value.
pub struct Ring<T> {
    slots: Box<[Slot<T>]>,
    mask: usize,
    tail: CacheAligned<AtomicUsize>,
    head: CacheAligned<AtomicUsize>,
}

// The payload cells are only written by the thread that won the slot's
// sequence CAS and only read by the thread that observed the published
// sequence — the per-slot acquire/release pair orders every access.
unsafe impl<T: Send> Send for Ring<T> {}
unsafe impl<T: Send> Sync for Ring<T> {}

impl<T> Ring<T> {
    /// A ring with capacity `capacity.next_power_of_two()` (at least 2).
    pub fn new(capacity: usize) -> Self {
        let cap = capacity.next_power_of_two().max(2);
        let slots = (0..cap)
            .map(|i| Slot {
                seq: AtomicUsize::new(i),
                val: PayloadCell::new(None),
            })
            .collect::<Vec<_>>()
            .into_boxed_slice();
        Ring {
            slots,
            mask: cap - 1,
            tail: CacheAligned(AtomicUsize::new(0)),
            head: CacheAligned(AtomicUsize::new(0)),
        }
    }

    /// Number of slots.
    pub fn capacity(&self) -> usize {
        self.mask + 1
    }

    /// Push `v`, or hand it back when the ring is full.
    pub fn try_push(&self, v: T) -> Result<(), T> {
        let mut tail = self.tail.0.load(Ordering::Relaxed);
        loop {
            let slot = &self.slots[tail & self.mask];
            let seq = slot.seq.load(Ordering::Acquire);
            let diff = (seq as isize).wrapping_sub(tail as isize);
            if diff == 0 {
                // Free slot for this lap: claim it.
                match self.tail.0.compare_exchange_weak(
                    tail,
                    tail.wrapping_add(1),
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        slot.val.with_mut(|p| unsafe { *p = Some(v) });
                        slot.seq.store(tail.wrapping_add(1), Ordering::Release);
                        return Ok(());
                    }
                    Err(t) => tail = t,
                }
            } else if diff < 0 {
                // The slot still holds the value from one lap ago: full.
                return Err(v);
            } else {
                // Another producer claimed this tail; reload.
                tail = self.tail.0.load(Ordering::Relaxed);
            }
        }
    }

    /// Pop the oldest value, or `None` when the ring is empty. Safe from
    /// any thread — work stealing is just `try_pop` by a non-owner.
    pub fn try_pop(&self) -> Option<T> {
        let mut head = self.head.0.load(Ordering::Relaxed);
        loop {
            let slot = &self.slots[head & self.mask];
            let seq = slot.seq.load(Ordering::Acquire);
            let diff = (seq as isize).wrapping_sub(head.wrapping_add(1) as isize);
            if diff == 0 {
                // Published value for this lap: claim it.
                match self.head.0.compare_exchange_weak(
                    head,
                    head.wrapping_add(1),
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        let v = slot.val.with_mut(|p| unsafe { (*p).take() });
                        // Free the slot for the producer one lap ahead.
                        slot.seq
                            .store(head.wrapping_add(self.mask + 1), Ordering::Release);
                        debug_assert!(v.is_some(), "claimed slot holds a value");
                        return v;
                    }
                    Err(h) => head = h,
                }
            } else if diff < 0 {
                // Nothing published at head: empty (or a producer is
                // mid-publish; the caller retries on its next loop).
                return None;
            } else {
                // Another consumer claimed this head; reload.
                head = self.head.0.load(Ordering::Relaxed);
            }
        }
    }

    /// Approximate occupancy (racy by nature; used for idle heuristics and
    /// gauges only).
    pub fn approx_len(&self) -> usize {
        let tail = self.tail.0.load(Ordering::Relaxed);
        let head = self.head.0.load(Ordering::Relaxed);
        tail.wrapping_sub(head)
    }

    /// Racy emptiness check (see [`Ring::approx_len`]).
    pub fn is_empty(&self) -> bool {
        self.approx_len() == 0
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;

    #[test]
    fn fifo_within_capacity() {
        let r: Ring<u32> = Ring::new(4);
        assert_eq!(r.capacity(), 4);
        assert!(r.is_empty());
        for i in 0..4 {
            r.try_push(i).unwrap();
        }
        assert_eq!(r.try_push(99), Err(99), "full ring hands the value back");
        for i in 0..4 {
            assert_eq!(r.try_pop(), Some(i));
        }
        assert_eq!(r.try_pop(), None);
    }

    #[test]
    fn capacity_rounds_up_to_power_of_two() {
        assert_eq!(Ring::<u8>::new(0).capacity(), 2);
        assert_eq!(Ring::<u8>::new(3).capacity(), 4);
        assert_eq!(Ring::<u8>::new(8).capacity(), 8);
    }

    #[test]
    fn wraps_many_laps() {
        let r: Ring<usize> = Ring::new(2);
        for lap in 0..1000 {
            r.try_push(lap).unwrap();
            r.try_push(lap + 1_000_000).unwrap();
            assert_eq!(r.try_pop(), Some(lap));
            assert_eq!(r.try_pop(), Some(lap + 1_000_000));
        }
        assert!(r.is_empty());
    }

    #[test]
    fn concurrent_producers_consumers_conserve_items() {
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::sync::Arc;
        const PER_PRODUCER: u64 = 20_000;
        let ring: Arc<Ring<u64>> = Arc::new(Ring::new(64));
        let sum = Arc::new(AtomicU64::new(0));
        let count = Arc::new(AtomicU64::new(0));
        let producers: Vec<_> = (0..2)
            .map(|p| {
                let ring = ring.clone();
                std::thread::spawn(move || {
                    for i in 0..PER_PRODUCER {
                        let mut v = p * PER_PRODUCER + i;
                        loop {
                            match ring.try_push(v) {
                                Ok(()) => break,
                                Err(back) => {
                                    v = back;
                                    std::thread::yield_now();
                                }
                            }
                        }
                    }
                })
            })
            .collect();
        let consumers: Vec<_> = (0..2)
            .map(|_| {
                let ring = ring.clone();
                let sum = sum.clone();
                let count = count.clone();
                std::thread::spawn(move || loop {
                    match ring.try_pop() {
                        Some(v) => {
                            sum.fetch_add(v, Ordering::Relaxed);
                            count.fetch_add(1, Ordering::Relaxed);
                        }
                        None => {
                            if count.load(Ordering::Relaxed) == 2 * PER_PRODUCER {
                                break;
                            }
                            std::thread::yield_now();
                        }
                    }
                })
            })
            .collect();
        for p in producers {
            p.join().unwrap();
        }
        for c in consumers {
            c.join().unwrap();
        }
        let n = 2 * PER_PRODUCER;
        assert_eq!(count.load(Ordering::Relaxed), n);
        assert_eq!(sum.load(Ordering::Relaxed), n * (n - 1) / 2);
    }
}
