//! Input generation. Everything here is a pure function of
//! `(seed, input index)`; the program under test receives only what these
//! functions return.

use hcq_aqsios::{Cmp, Predicate, Record, RtOp, RtPlan};
use hcq_common::{det, Nanos, StreamId};
use hcq_streams::{ArrivalSource, PoissonSource};
use hcq_workload::{
    multi_stream, single_stream, MultiStreamConfig, PaperWorkload, SingleStreamConfig,
};

/// §8: five cost classes, utilization 0.9, virtual mean inter-arrival 10 ms.
pub const COST_CLASSES: u8 = 5;
pub const UTILIZATION: f64 = 0.9;
pub const MEAN_GAP: Nanos = Nanos::from_millis(10);

/// What one draw is for. Each purpose gets an independent stream of the
/// slice's seed, so adding a draw for one never shifts another.
#[derive(Debug, Clone, Copy)]
enum Draw {
    Plan = 1,
    Source = 2,
    Coins = 3,
    Records = 4,
    Schedule = 5,
    Queries = 6,
}

/// The seed of one slice's inputs: slices of one run differ in `input`,
/// workloads do not enter, so `sim_hnr` and `sim_bsd` see identical plans,
/// arrivals and coins.
pub fn slice_seed(seed: u64, input: u64) -> u64 {
    det::mix2(seed, input)
}

fn draw(slice_seed: u64, what: Draw) -> u64 {
    det::mix2(slice_seed, what as u64)
}

/// Inputs of a `hcq_engine::simulate` / `hcq_runtime::run` call.
pub struct SimInputs {
    pub workload: PaperWorkload,
    /// One Poisson source seed per stream of the workload.
    pub source_seeds: Vec<u64>,
    /// `SimConfig::seed` / `RuntimeConfig::seed`: attribute values and
    /// selectivity coins.
    pub coin_seed: u64,
}

impl SimInputs {
    /// §8 single-stream population of `queries` select→join→project queries.
    pub fn single_stream(slice_seed: u64, queries: usize) -> Self {
        let workload = single_stream(&SingleStreamConfig {
            queries,
            cost_classes: COST_CLASSES,
            utilization: UTILIZATION,
            mean_gap: MEAN_GAP,
            seed: draw(slice_seed, Draw::Plan),
        })
        .expect("valid single-stream configuration");
        Self::around(workload, slice_seed)
    }

    /// §9.1.7 two-stream window-join population (100 queries, 1–10 s).
    pub fn multi_stream(slice_seed: u64, queries: usize) -> Self {
        let workload = multi_stream(&MultiStreamConfig {
            queries,
            seed: draw(slice_seed, Draw::Plan),
            ..MultiStreamConfig::paper(UTILIZATION, MEAN_GAP)
        })
        .expect("valid multi-stream configuration");
        Self::around(workload, slice_seed)
    }

    fn around(workload: PaperWorkload, slice_seed: u64) -> Self {
        let source = draw(slice_seed, Draw::Source);
        SimInputs {
            source_seeds: (0..workload.streams.len() as u64)
                .map(|s| det::mix2(source, s))
                .collect(),
            coin_seed: draw(slice_seed, Draw::Coins),
            workload,
        }
    }

    /// Fresh Poisson sources, one per stream (sources are consumed by a run).
    pub fn sources(&self) -> Vec<Box<dyn ArrivalSource>> {
        self.source_seeds
            .iter()
            .map(|&s| Box::new(PoissonSource::new(MEAN_GAP, s)) as Box<dyn ArrivalSource>)
            .collect()
    }
}

/// Queries registered with the `Dsms`.
pub const DSMS_QUERIES: usize = 32;
/// Record field 0 is uniform in `[0, FIELD_RANGE)`.
pub const FIELD_RANGE: i64 = 1000;
/// Cost estimate of a class-0 operator; class `i` costs `2^i` times that.
const DSMS_UNIT_COST: Nanos = Nanos::from_nanos(100);

/// One `Dsms` query: `select(f0 >= threshold) -> project[0, 1]`.
#[derive(Debug, Clone, PartialEq)]
pub struct DsmsQuery {
    pub threshold: i64,
    pub selectivity: f64,
    pub cost_class: u8,
}

impl DsmsQuery {
    pub fn plan(&self) -> RtPlan {
        let cost = Nanos::from_nanos(DSMS_UNIT_COST.as_nanos() << self.cost_class);
        RtPlan::single(
            StreamId::new(0),
            vec![
                RtOp::select(
                    Predicate::new(0, Cmp::Ge, self.threshold),
                    cost,
                    self.selectivity,
                ),
                RtOp::project(vec![0, 1], cost),
            ],
        )
    }
}

/// The query population: selectivities U[0.1, 1], five cost classes (§8).
pub fn dsms_queries(slice_seed: u64) -> Vec<DsmsQuery> {
    let base = draw(slice_seed, Draw::Queries);
    (0..DSMS_QUERIES as u64)
        .map(|i| {
            let selectivity = 0.1 + 0.9 * det::unit_f64(det::mix2(base, 2 * i));
            DsmsQuery {
                threshold: ((1.0 - selectivity) * FIELD_RANGE as f64).round() as i64,
                selectivity,
                cost_class: det::unit_range(
                    det::mix2(base, 2 * i + 1),
                    0,
                    u64::from(COST_CLASSES) - 1,
                ) as u8,
            }
        })
        .collect()
}

/// Field 0 of record `seq`: the attribute every select tests.
pub fn record_value(slice_seed: u64, seq: u64) -> i64 {
    det::unit_range(
        det::mix2(draw(slice_seed, Draw::Records), seq),
        0,
        FIELD_RANGE as u64 - 1,
    ) as i64
}

/// Record `seq`: `[value, seq, payload, payload]`. The sequence number in
/// field 1 survives the projection, so an emission names its input.
pub fn record(slice_seed: u64, seq: u64) -> Record {
    let v = record_value(slice_seed, seq);
    Record::new(vec![v, seq as i64, v ^ 0x55, seq as i64 + v])
}

/// Open-loop send schedule: `n` Poisson due times at `rate_per_s`, in
/// nanoseconds from the start of the slice.
pub fn open_schedule(slice_seed: u64, n: usize, rate_per_s: f64) -> Vec<u64> {
    let base = draw(slice_seed, Draw::Schedule);
    let mean_gap_ns = 1e9 / rate_per_s;
    let mut t = 0.0f64;
    (0..n as u64)
        .map(|i| {
            // Inverse-CDF exponential gap; 1 - u is in (0, 1].
            let u = det::unit_f64(det::mix2(base, i));
            t += -mean_gap_ns * (1.0 - u).ln();
            t as u64
        })
        .collect()
}

/// How many of the records `0..n` each query emits — computed straight from
/// the generated values and thresholds, without the `Dsms`.
pub fn reference_emissions(slice_seed: u64, queries: &[DsmsQuery], n: u64) -> Vec<u64> {
    let mut per_query = vec![0u64; queries.len()];
    for seq in 0..n {
        let v = record_value(slice_seed, seq);
        for (count, q) in per_query.iter_mut().zip(queries) {
            *count += u64::from(v >= q.threshold);
        }
    }
    per_query
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_are_a_pure_function_of_the_seed() {
        let (a, b) = (slice_seed(1, 0), slice_seed(1, 0));
        assert_eq!(dsms_queries(a), dsms_queries(b));
        assert_eq!(open_schedule(a, 500, 5e4), open_schedule(b, 500, 5e4));
        assert_eq!(record(a, 17), record(b, 17));
        let (x, y) = (
            SimInputs::single_stream(a, 20),
            SimInputs::single_stream(b, 20),
        );
        assert_eq!(x.source_seeds, y.source_seeds);
        assert_eq!(x.coin_seed, y.coin_seed);
        assert_eq!(x.workload.k_ns, y.workload.k_ns);
    }

    #[test]
    fn generators_differ_across_seeds_and_inputs() {
        for (a, b) in [
            (slice_seed(1, 0), slice_seed(2, 0)),
            (slice_seed(1, 0), slice_seed(1, 1)),
        ] {
            assert_ne!(dsms_queries(a), dsms_queries(b));
            assert_ne!(open_schedule(a, 500, 5e4), open_schedule(b, 500, 5e4));
            assert_ne!(
                (0..64).map(|s| record_value(a, s)).collect::<Vec<_>>(),
                (0..64).map(|s| record_value(b, s)).collect::<Vec<_>>()
            );
            let (x, y) = (
                SimInputs::single_stream(a, 20),
                SimInputs::single_stream(b, 20),
            );
            assert_ne!(x.source_seeds, y.source_seeds);
            assert_ne!(x.coin_seed, y.coin_seed);
            assert_ne!(x.workload.k_ns, y.workload.k_ns);
        }
    }

    #[test]
    fn schedule_is_sorted_at_the_requested_rate() {
        let due = open_schedule(slice_seed(3, 0), 20_000, 5e4);
        assert!(due.windows(2).all(|w| w[0] <= w[1]));
        let rate = due.len() as f64 / (*due.last().unwrap() as f64 / 1e9);
        assert!((rate / 5e4 - 1.0).abs() < 0.03, "rate {rate}");
    }

    #[test]
    fn query_draws_follow_section_8() {
        let qs = dsms_queries(slice_seed(5, 0));
        assert_eq!(qs.len(), DSMS_QUERIES);
        for q in &qs {
            assert!((0.1..=1.0).contains(&q.selectivity));
            assert!(q.cost_class < COST_CLASSES);
            assert!((0..=FIELD_RANGE).contains(&q.threshold));
            q.plan().validate().unwrap();
        }
        let reference = reference_emissions(slice_seed(5, 0), &qs, 4_000);
        for (q, &got) in qs.iter().zip(&reference) {
            let want = q.selectivity * 4_000.0;
            assert!((got as f64 - want).abs() < 0.1 * want + 40.0);
        }
    }
}
