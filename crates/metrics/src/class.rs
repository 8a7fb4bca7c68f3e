//! Per-class QoS breakdown (Figure 11).
//!
//! The paper defines a query class by the cost class and selectivity of its
//! operators and studies how each policy treats each class — revealing, for
//! example, HR's unfairness to low-selectivity low-cost queries. This module
//! keeps a [`QosAccumulator`] per [`QueryTag`].

use std::collections::BTreeMap;

use hcq_common::Nanos;
use hcq_plan::QueryTag;

use crate::accumulator::{QosAccumulator, QosSummary};

/// Per-class metric accumulators.
///
/// A caller resolves a class's [`slot`](Self::slot) once and records by
/// index. Outputs walk the ordered index, so classes come out in
/// [`QueryTag`] order whatever order they were registered in, and a class
/// that never recorded is not reported.
#[derive(Debug, Clone, Default)]
pub struct ClassBreakdown {
    index: BTreeMap<QueryTag, usize>,
    slots: Vec<QosAccumulator>,
}

impl ClassBreakdown {
    /// An empty breakdown.
    pub fn new() -> Self {
        ClassBreakdown::default()
    }

    /// The slot of class `tag`, registering the class on first sight.
    pub fn slot(&mut self, tag: QueryTag) -> usize {
        let next = self.slots.len();
        let slot = *self.index.entry(tag).or_insert(next);
        if slot == next {
            self.slots.push(QosAccumulator::new());
        }
        slot
    }

    /// Record an emission into a slot obtained from [`slot`](Self::slot).
    #[inline]
    pub fn record_slot(&mut self, slot: usize, response: Nanos, slowdown: f64) {
        self.slots[slot].record(response, slowdown);
    }

    /// The classes that recorded at least one emission, in tag order.
    fn seen(&self) -> impl Iterator<Item = (QueryTag, &QosAccumulator)> {
        self.index
            .iter()
            .map(|(&tag, &slot)| (tag, &self.slots[slot]))
            .filter(|(_, acc)| acc.count() > 0)
    }

    /// Summaries in (cost_class, selectivity_bucket) order.
    pub fn summaries(&self) -> Vec<(QueryTag, QosSummary)> {
        self.seen().map(|(tag, acc)| (tag, acc.summary())).collect()
    }

    /// Summaries restricted to one cost class, ordered by selectivity bucket
    /// — exactly the Figure 11 slice ("low-cost queries, varying
    /// selectivity").
    pub fn by_cost_class(&self, cost_class: u8) -> Vec<(u8, QosSummary)> {
        self.seen()
            .filter(|(tag, _)| tag.cost_class == cost_class)
            .map(|(tag, acc)| (tag.selectivity_bucket, acc.summary()))
            .collect()
    }

    /// Total over all classes.
    pub fn overall(&self) -> QosSummary {
        let mut total = QosAccumulator::new();
        for (_, acc) in self.seen() {
            total.merge(acc);
        }
        total.summary()
    }

    /// Number of distinct classes seen.
    pub fn class_count(&self) -> usize {
        self.seen().count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tag(c: u8, s: u8) -> QueryTag {
        QueryTag {
            cost_class: c,
            selectivity_bucket: s,
        }
    }

    fn ms(n: u64) -> Nanos {
        Nanos::from_millis(n)
    }

    fn record(b: &mut ClassBreakdown, tag: QueryTag, response: Nanos, slowdown: f64) {
        let slot = b.slot(tag);
        b.record_slot(slot, response, slowdown);
    }

    #[test]
    fn classes_are_separated() {
        let mut b = ClassBreakdown::new();
        record(&mut b, tag(0, 1), ms(10), 2.0);
        record(&mut b, tag(0, 1), ms(20), 4.0);
        record(&mut b, tag(2, 5), ms(30), 10.0);
        assert_eq!(b.class_count(), 2);
        let sums = b.summaries();
        assert_eq!(sums[0].0, tag(0, 1));
        assert_eq!(sums[0].1.count, 2);
        assert!((sums[0].1.avg_slowdown - 3.0).abs() < 1e-12);
        assert_eq!(sums[1].0, tag(2, 5));
        assert_eq!(sums[1].1.count, 1);
    }

    #[test]
    fn cost_class_slice_ordered_by_bucket() {
        let mut b = ClassBreakdown::new();
        record(&mut b, tag(0, 9), ms(1), 9.0);
        record(&mut b, tag(0, 2), ms(1), 2.0);
        record(&mut b, tag(1, 0), ms(1), 1.0);
        record(&mut b, tag(0, 5), ms(1), 5.0);
        let slice = b.by_cost_class(0);
        assert_eq!(
            slice.iter().map(|(b, _)| *b).collect::<Vec<_>>(),
            vec![2, 5, 9]
        );
        assert!(slice.iter().all(|(_, s)| s.count == 1));
    }

    #[test]
    fn overall_matches_flat_accumulation() {
        let mut b = ClassBreakdown::new();
        let mut flat = QosAccumulator::new();
        for i in 0..20u64 {
            let t = tag((i % 3) as u8, (i % 7) as u8);
            record(&mut b, t, ms(i + 1), i as f64);
            flat.record(ms(i + 1), i as f64);
        }
        let (o, f) = (b.overall(), flat.summary());
        assert_eq!(o.count, f.count);
        assert!((o.avg_slowdown - f.avg_slowdown).abs() < 1e-12);
        assert!((o.l2_slowdown - f.l2_slowdown).abs() < 1e-9);
        assert_eq!(o.max_slowdown, f.max_slowdown);
    }

    #[test]
    fn registered_but_silent_slot_stays_invisible() {
        let mut b = ClassBreakdown::new();
        let silent = b.slot(tag(0, 4));
        let loud = b.slot(tag(0, 7));
        assert_ne!(silent, loud);
        assert_eq!(b.slot(tag(0, 4)), silent, "registration is idempotent");
        b.record_slot(loud, ms(3), 1.5);
        assert_eq!(b.class_count(), 1);
        assert_eq!(b.summaries().len(), 1);
        assert_eq!(b.summaries()[0].0, tag(0, 7));
        assert_eq!(
            b.by_cost_class(0)
                .iter()
                .map(|(s, _)| *s)
                .collect::<Vec<_>>(),
            vec![7]
        );
        assert_eq!(b.overall().count, 1);
    }

    /// Slots registered out of key order, recorded by slot: every output is
    /// bit-equal to one ordered map of accumulators fed the same sequence.
    #[test]
    fn slots_match_the_ordered_map_bit_for_bit() {
        let tags = [tag(2, 1), tag(0, 9), tag(1, 3), tag(0, 2), tag(2, 0)];
        let mut b = ClassBreakdown::new();
        let slots = tags.map(|t| b.slot(t));
        let mut map: BTreeMap<QueryTag, QosAccumulator> = BTreeMap::new();
        for i in 0..500u64 {
            let k = (i * 7 % 5) as usize;
            let (response, slowdown) = (Nanos(1 + i * 997), 1.0 + (i * i % 1013) as f64 / 7.0);
            b.record_slot(slots[k], response, slowdown);
            map.entry(tags[k]).or_default().record(response, slowdown);
        }
        let want: Vec<_> = map.iter().map(|(&t, acc)| (t, acc.summary())).collect();
        assert_eq!(b.summaries(), want);
        let mut total = QosAccumulator::new();
        map.values().for_each(|acc| total.merge(acc));
        let (got, want) = (b.overall(), total.summary());
        assert_eq!(got.count, want.count);
        for (g, w) in [
            (got.avg_response_ms, want.avg_response_ms),
            (got.avg_slowdown, want.avg_slowdown),
            (got.l2_slowdown, want.l2_slowdown),
            (got.max_slowdown, want.max_slowdown),
        ] {
            assert_eq!(g.to_bits(), w.to_bits());
        }
    }

    #[test]
    fn empty_breakdown() {
        let b = ClassBreakdown::new();
        assert_eq!(b.class_count(), 0);
        assert_eq!(b.overall().count, 0);
        assert!(b.by_cost_class(0).is_empty());
    }
}
