//! Harness-side tracing: timers around calls into a layer's public
//! boundary, aggregated into spans of [`CALLS_PER_SPAN`] calls each.
//!
//! Per-call spans would cost more memory than the calls cost time (a policy
//! `on_enqueue` is ~20 ns), so one span covers a run of consecutive calls at
//! the same boundary: first start, last end, summed busy time and call
//! count. Spans stay in memory and travel to the parent in the slice result;
//! the parent writes them once, at exit.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use crate::json;

/// Calls aggregated into one span.
pub const CALLS_PER_SPAN: u64 = 4096;

/// One aggregated span. Times are nanoseconds since the slice's epoch; the
/// parent span is always the slice itself.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub layer: &'static str,
    pub first_start_ns: u64,
    pub last_end_ns: u64,
    pub busy_ns: u64,
    pub count: u64,
}

impl Span {
    pub fn to_json(&self, workload: &str, slice: u64) -> String {
        format!(
            "{{\"name\":{},\"layer\":{},\"workload\":{},\"slice\":{},\"parent\":\"slice\",\
             \"first_start_ns\":{},\"last_end_ns\":{},\"busy_ns\":{},\"count\":{}}}",
            json::string(self.name),
            json::string(self.layer),
            json::string(workload),
            slice,
            self.first_start_ns,
            self.last_end_ns,
            self.busy_ns,
            self.count
        )
    }
}

/// Timer state for one boundary (e.g. `Policy::select`).
#[derive(Debug)]
pub struct Boundary {
    name: &'static str,
    layer: &'static str,
    epoch: Instant,
    open: Option<Span>,
    busy_ns: u64,
    count: u64,
    spans: Vec<Span>,
}

/// Shared handle: the wrapper that times the calls is moved into the
/// program under test, the harness keeps a clone to read the totals.
pub type Shared = Rc<RefCell<Boundary>>;

impl Boundary {
    pub fn shared(name: &'static str, layer: &'static str, epoch: Instant) -> Shared {
        Rc::new(RefCell::new(Boundary {
            name,
            layer,
            epoch,
            open: None,
            busy_ns: 0,
            count: 0,
            spans: Vec::new(),
        }))
    }

    /// Record one call that ran from `start` to `end`.
    pub fn record(&mut self, start: Instant, end: Instant) {
        let s = start.duration_since(self.epoch).as_nanos() as u64;
        let e = end.duration_since(self.epoch).as_nanos() as u64;
        let busy = e - s;
        self.busy_ns += busy;
        self.count += 1;
        let span = self.open.get_or_insert(Span {
            name: self.name,
            layer: self.layer,
            first_start_ns: s,
            last_end_ns: e,
            busy_ns: 0,
            count: 0,
        });
        span.last_end_ns = e;
        span.busy_ns += busy;
        span.count += 1;
        if span.count == CALLS_PER_SPAN {
            self.spans.extend(self.open.take());
        }
    }

    /// Calls recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Busy time with the timer's own cost taken out: every recorded
    /// interval contains one back-to-back timer pair.
    pub fn busy_ns_net(&self, timer_pair_ns: f64) -> f64 {
        (self.busy_ns as f64 - self.count as f64 * timer_pair_ns).max(0.0)
    }

    /// Net nanoseconds per recorded call.
    pub fn ns_per_call(&self, timer_pair_ns: f64) -> f64 {
        self.busy_ns_net(timer_pair_ns) / self.count.max(1) as f64
    }

    /// Close the open span and hand all spans over.
    pub fn take_spans(&mut self) -> Vec<Span> {
        self.spans.extend(self.open.take());
        std::mem::take(&mut self.spans)
    }
}

/// Time one call through a shared boundary.
#[inline]
pub fn timed<R>(b: &Shared, f: impl FnOnce() -> R) -> R {
    let start = Instant::now();
    let r = f();
    let end = Instant::now();
    b.borrow_mut().record(start, end);
    r
}

/// Cost of one back-to-back `Instant::now()` pair in nanoseconds: what
/// [`timed`] adds to every interval it measures. Median of 9 batches.
pub fn timer_pair_ns() -> f64 {
    const PAIRS: u32 = 20_000;
    let mut per_pair: Vec<f64> = (0..9)
        .map(|_| {
            let mut total = 0u128;
            for _ in 0..PAIRS {
                let a = Instant::now();
                let b = Instant::now();
                total += b.duration_since(a).as_nanos();
            }
            total as f64 / f64::from(PAIRS)
        })
        .collect();
    per_pair.sort_by(f64::total_cmp);
    per_pair[per_pair.len() / 2]
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn boundary_aggregates_calls_into_spans() {
        let epoch = Instant::now();
        let b = Boundary::shared("select", "hcq-core", epoch);
        let calls = CALLS_PER_SPAN + 10;
        for i in 0..calls {
            let s = epoch + Duration::from_nanos(100 * i);
            b.borrow_mut().record(s, s + Duration::from_nanos(30));
        }
        let mut b = b.borrow_mut();
        assert_eq!(b.count(), calls);
        assert_eq!(b.busy_ns_net(10.0), (calls * 20) as f64);
        assert_eq!(b.ns_per_call(10.0), 20.0);
        assert_eq!(b.busy_ns_net(1e9), 0.0);
        let spans = b.take_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].count, CALLS_PER_SPAN);
        assert_eq!(spans[0].first_start_ns, 0);
        assert_eq!(spans[0].last_end_ns, 100 * (CALLS_PER_SPAN - 1) + 30);
        assert_eq!(spans[1].count, 10);
        assert_eq!(spans[1].busy_ns, 300);
        assert!(b.take_spans().is_empty());
    }

    #[test]
    fn timed_passes_the_result_through() {
        let b = Boundary::shared("x", "y", Instant::now());
        assert_eq!(timed(&b, || 41 + 1), 42);
        assert_eq!(b.borrow().count(), 1);
        assert!(timer_pair_ns() > 0.0);
    }
}
