//! The metric names of `BENCHMARK.json`, with their units and directions.
//! Later issues cite these names; `tests/contract.rs` holds this table and
//! the JSON file to each other.

use crate::workloads::Workload;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Higher,
    }
}

/// End-to-end metrics, every one reported by every workload (README.md
/// gives each workload's definition). `failed_share` is not among them: it
/// is 0 on a healthy tree, and the result line carries it as
/// `failed`/`attempted`.
pub const END_TO_END: [MetricDef; 6] = [
    lower("setup_s", "s"),
    higher("throughput_tps", "1/s"),
    lower("latency_p50_us", "us"),
    lower("avg_slowdown", "ratio"),
    lower("l2_slowdown", "ratio"),
    lower("peak_rss_mb", "MiB"),
];

/// By how much of the parent's median an end-to-end metric may get worse
/// before a change counts as a regression — the `bound` of
/// `BENCHMARK.json`, calibrated from the sets under `calibration/` (see
/// README.md: one bound per metric, so the noisiest workload sets it).
pub const BOUNDS: [(&str, f64); 6] = [
    ("setup_s", 0.25),
    ("throughput_tps", 0.25),
    ("latency_p50_us", 0.25),
    ("avg_slowdown", 0.20),
    ("l2_slowdown", 0.25),
    ("peak_rss_mb", 0.20),
];

pub fn bound(name: &str) -> Option<f64> {
    BOUNDS.iter().find(|(n, _)| *n == name).map(|(_, b)| *b)
}

/// Per-layer metrics of the traced run.
pub const PER_LAYER: [MetricDef; 82] = [
    // hcq-streams
    lower("streams.poisson_next_ns", "ns"),
    // hcq-workload / hcq-plan
    lower("workload.single_stream_build_ms", "ms"),
    lower("workload.multi_stream_build_ms", "ms"),
    // hcq-core, in situ at q = 500
    lower("core.hnr.enqueue_ns", "ns"),
    lower("core.hnr.select_ns", "ns"),
    lower("core.hnr.ops_per_point", "count"),
    lower("core.bsd.enqueue_ns", "ns"),
    lower("core.bsd.select_ns", "ns"),
    lower("core.bsd.evals_per_point", "count"),
    // hcq-core, isolated
    lower("core.cbsd_log.select_ns", "ns"),
    lower("core.bsd.point_ns.q100k", "ns"),
    lower("core.cbsd_log.point_ns.q100k", "ns"),
    lower("core.cbsd_logscan.point_ns.q100k", "ns"),
    lower("core.cbsd_uni.point_ns.q100k", "ns"),
    lower("core.cbsd_log.evals_per_point.q100k", "count"),
    lower("core.cbsd_log.bytes_per_query.q100k", "bytes"),
    higher("core.cbsd_log.digest_eq_logscan.q100k", "count"),
    lower("core.pdt_priority_ns", "ns"),
    // hcq-engine
    lower("engine.model_build_ms", "ms"),
    lower("engine.queues_push_pop_ns", "ns"),
    lower("engine.exec_unary_ns", "ns"),
    lower("engine.exec_arrival_key_ns", "ns"),
    lower("engine.shed_victim_ns", "ns"),
    lower("engine.sched_points_per_copy.sim_hnr", "count"),
    lower("engine.sched_points_per_copy.sim_bsd", "count"),
    lower("engine.sched_points_per_copy.sim_join", "count"),
    lower("engine.avg_pending.sim_hnr", "count"),
    lower("engine.avg_pending.sim_bsd", "count"),
    lower("engine.avg_pending.sim_join", "count"),
    lower("engine.peak_pending.sim_hnr", "count"),
    lower("engine.peak_pending.sim_bsd", "count"),
    lower("engine.peak_pending.sim_join", "count"),
    lower("engine.sim_loop_remainder_ns.sim_hnr", "ns"),
    lower("engine.sim_loop_remainder_ns.sim_bsd", "ns"),
    lower("engine.sim_loop_remainder_ns.sim_join", "ns"),
    higher("engine.explained_share.sim_hnr", "ratio"),
    higher("engine.explained_share.sim_bsd", "ratio"),
    higher("engine.explained_share.sim_join", "ratio"),
    lower("engine.trace_on_ratio", "ratio"),
    lower("engine.telemetry_on_ratio", "ratio"),
    // hcq-join
    lower("join.insert_ns", "ns"),
    lower("join.probe_ns", "ns"),
    lower("join.expire_ns", "ns"),
    lower("join.matches_per_probe", "count"),
    // hcq-metrics
    lower("metrics.qos_record_ns", "ns"),
    lower("metrics.histogram_record_ns", "ns"),
    lower("metrics.telemetry_snapshot_us", "us"),
    // hcq-runtime
    lower("runtime.ring_pair_ns", "ns"),
    lower("runtime.ring_xthread_ns", "ns"),
    lower("runtime.setup_ms", "ms"),
    lower("runtime.selections_per_copy", "count"),
    lower("runtime.response_avg_ms", "ms"),
    lower("runtime.slow_slice_share", "ratio"),
    lower("runtime.loop_remainder_ns", "ns"),
    // hcq-aqsios
    lower("aqsios.push_ns", "ns"),
    lower("aqsios.run_once_ns", "ns"),
    lower("aqsios.clock_reads_per_copy", "count"),
    lower("aqsios.latency_p90_us", "us"),
    lower("aqsios.latency_p99_us", "us"),
    lower("aqsios.latency_p999_us", "us"),
    lower("aqsios.gen_lag_p99_us", "us"),
    lower("aqsios.max_pending", "count"),
    lower("aqsios.drain_tail_ms", "ms"),
    // harness / host
    lower("host.spin_ref_ns", "ns"),
    lower("host.pingpong_ns", "ns"),
    lower("host.timer_pair_ns", "ns"),
    lower("bench.trace_overhead_ratio", "ratio"),
    // size
    lower("loc.aqsios", "lines"),
    lower("loc.bench", "lines"),
    lower("loc.check", "lines"),
    lower("loc.common", "lines"),
    lower("loc.core", "lines"),
    lower("loc.engine", "lines"),
    lower("loc.inspect", "lines"),
    lower("loc.join", "lines"),
    lower("loc.metrics", "lines"),
    lower("loc.plan", "lines"),
    lower("loc.repro", "lines"),
    lower("loc.runtime", "lines"),
    lower("loc.streams", "lines"),
    lower("loc.workload", "lines"),
    lower("loc.total", "lines"),
];

/// The `BENCHMARK.json` name of what a slice of `workload` recorded under
/// `key`, when that workload is the metric's source.
pub fn layer_name(workload: Workload, key: &str) -> Option<String> {
    use Workload::*;
    let per_workload = || Some(format!("{key}.{}", workload.name()));
    match (workload, key) {
        (SimHnr, "core.enqueue_ns") => Some("core.hnr.enqueue_ns".into()),
        (SimHnr, "core.select_ns") => Some("core.hnr.select_ns".into()),
        (SimHnr, "core.ops_per_point") => Some("core.hnr.ops_per_point".into()),
        (SimBsd, "core.enqueue_ns") => Some("core.bsd.enqueue_ns".into()),
        (SimBsd, "core.select_ns") => Some("core.bsd.select_ns".into()),
        (SimBsd, "core.evals_per_point") => Some("core.bsd.evals_per_point".into()),
        (
            SimHnr,
            "streams.poisson_next_ns"
            | "engine.queues_push_pop_ns"
            | "engine.exec_unary_ns"
            | "engine.exec_arrival_key_ns",
        ) => Some(key.into()),
        (
            SimHnr | SimBsd | SimJoin,
            "engine.sched_points_per_copy" | "engine.avg_pending" | "engine.peak_pending",
        ) => per_workload(),
        (SimJoin, "metrics.qos_record_ns" | "metrics.histogram_record_ns") => Some(key.into()),
        (SimJoin, k) if k.starts_with("join.") => Some(key.into()),
        (RtSaturate, k) if k.starts_with("runtime.") => Some(key.into()),
        (DsmsDrain, "aqsios.push_ns" | "aqsios.run_once_ns" | "aqsios.clock_reads_per_copy") => {
            Some(key.into())
        }
        (DsmsOpen, k)
            if k.starts_with("aqsios.")
                && !matches!(
                    k,
                    "aqsios.push_ns" | "aqsios.run_once_ns" | "aqsios.clock_reads_per_copy"
                ) =>
        {
            Some(key.into())
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut seen = HashSet::new();
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(seen.insert(m.name), "{} listed twice", m.name);
            assert!(m.name.len() <= 64 && m.unit.len() <= 16);
            assert!(m.name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(m
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
    }

    #[test]
    fn slice_keys_map_to_listed_metrics() {
        let listed: HashSet<&str> = PER_LAYER.iter().map(|m| m.name).collect();
        for (w, key) in [
            (Workload::SimHnr, "core.select_ns"),
            (Workload::SimBsd, "core.evals_per_point"),
            (Workload::SimJoin, "join.probe_ns"),
            (Workload::SimJoin, "engine.peak_pending"),
            (Workload::RtSaturate, "runtime.ring_xthread_ns"),
            (Workload::DsmsDrain, "aqsios.push_ns"),
            (Workload::DsmsOpen, "aqsios.latency_p99_us"),
        ] {
            let name = layer_name(w, key).unwrap();
            assert!(listed.contains(name.as_str()), "{name}");
        }
        assert_eq!(
            layer_name(Workload::SimBsd, "engine.queues_push_pop_ns"),
            None
        );
        assert_eq!(layer_name(Workload::DsmsOpen, "aqsios.push_ns"), None);
        assert_eq!(layer_name(Workload::SimHnr, "budget.core"), None);
    }
}
