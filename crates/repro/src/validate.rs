//! The reproduction scorecard: every §9 claim as a programmatic check.
//!
//! `repro validate` runs the workloads once and prints PASS/FAIL per claim,
//! so a reader can audit the reproduction in one command instead of eyeing
//! figures. Checks are *orderings and relative gaps* — the reproduction
//! targets — not absolute values.

use hcq_core::{ClusterConfig, PolicyKind, SharingStrategy};
use hcq_engine::SimReport;

use crate::exhibits::{fig12_cell, table1_values, table2_cell};
use crate::harness::{run_jobs, ExpConfig};
use crate::table::AsciiTable;

/// One claim's outcome.
#[derive(Debug, Clone)]
pub struct ClaimResult {
    /// Short claim id, e.g. `fig5.hnr_best_avg_slowdown`.
    pub id: &'static str,
    /// What the paper asserts.
    pub claim: &'static str,
    /// Whether the reproduction exhibits it.
    pub pass: bool,
    /// Measured evidence (human-readable).
    pub evidence: String,
}

/// Run the whole scorecard. Returns the results and prints a table.
pub fn validate(cfg: &ExpConfig) -> Vec<ClaimResult> {
    let mut results = Vec::new();
    let util = 0.95;

    println!(
        "running scorecard workloads ({} queries, {} arrivals)...",
        cfg.queries, cfg.arrivals
    );
    // The seven single-stream runs are independent cells; fan them out on
    // the harness job pool (order fixed by the `kinds` list, so results are
    // identical at any job count).
    let kinds = [
        PolicyKind::Hnr,
        PolicyKind::Hr,
        PolicyKind::Srpt,
        PolicyKind::RoundRobin,
        PolicyKind::Fcfs,
        PolicyKind::Lsf,
        PolicyKind::Bsd,
    ];
    let mut reports =
        run_jobs(cfg.jobs, kinds.len(), |i| cfg.run_single(util, kinds[i])).into_iter();
    let (hnr, hr, srpt, rr, fcfs, lsf, bsd) = (
        reports.next().unwrap(),
        reports.next().unwrap(),
        reports.next().unwrap(),
        reports.next().unwrap(),
        reports.next().unwrap(),
        reports.next().unwrap(),
        reports.next().unwrap(),
    );

    let mut check = |id, claim, pass: bool, evidence: String| {
        results.push(ClaimResult {
            id,
            claim,
            pass,
            evidence,
        });
    };

    check(
        "table1.exact",
        "Example 1 reproduces HR=(12.25, 3.875), HNR=(13.0, 2.9) exactly",
        {
            let t1 = table1_values();
            (t1.0 - 12.25).abs() < 1e-9
                && (t1.1 - 3.875).abs() < 1e-9
                && (t1.2 - 13.0).abs() < 1e-9
                && (t1.3 - 2.9).abs() < 1e-9
        },
        "see `repro table1`".into(),
    );
    check(
        "fig5.hnr_best_avg_slowdown",
        "HNR gives the lowest average slowdown (vs HR, SRPT, RR, FCFS)",
        hnr.qos.avg_slowdown < hr.qos.avg_slowdown
            && hnr.qos.avg_slowdown < srpt.qos.avg_slowdown
            && hnr.qos.avg_slowdown < rr.qos.avg_slowdown
            && hnr.qos.avg_slowdown < fcfs.qos.avg_slowdown,
        format!(
            "HNR {:.0} | HR {:.0} | SRPT {:.0} | RR {:.0} | FCFS {:.0}",
            hnr.qos.avg_slowdown,
            hr.qos.avg_slowdown,
            srpt.qos.avg_slowdown,
            rr.qos.avg_slowdown,
            fcfs.qos.avg_slowdown
        ),
    );
    check(
        "fig6.hr_best_response_small_gap",
        "HR gives the lowest average response time; HNR within ~10%",
        hr.qos.avg_response_ms <= hnr.qos.avg_response_ms
            && hnr.qos.avg_response_ms <= hr.qos.avg_response_ms * 1.10,
        format!(
            "HR {:.1}ms | HNR {:.1}ms ({:+.1}%)",
            hr.qos.avg_response_ms,
            hnr.qos.avg_response_ms,
            (hnr.qos.avg_response_ms / hr.qos.avg_response_ms - 1.0) * 100.0
        ),
    );
    check(
        "fig7.lsf_best_max_slowdown",
        "LSF gives a far lower maximum slowdown than HNR",
        lsf.qos.max_slowdown < hnr.qos.max_slowdown * 0.6,
        format!(
            "LSF {:.0} | HNR {:.0} ({:.0}% lower)",
            lsf.qos.max_slowdown,
            hnr.qos.max_slowdown,
            (1.0 - lsf.qos.max_slowdown / hnr.qos.max_slowdown) * 100.0
        ),
    );
    check(
        "fig8.bsd_between_on_max",
        "BSD's maximum slowdown sits between LSF's and HNR's",
        lsf.qos.max_slowdown <= bsd.qos.max_slowdown
            && bsd.qos.max_slowdown <= hnr.qos.max_slowdown,
        format!(
            "LSF {:.0} ≤ BSD {:.0} ≤ HNR {:.0}",
            lsf.qos.max_slowdown, bsd.qos.max_slowdown, hnr.qos.max_slowdown
        ),
    );
    check(
        "fig9.bsd_between_on_avg",
        "BSD's average slowdown sits between HNR's and LSF's",
        hnr.qos.avg_slowdown <= bsd.qos.avg_slowdown
            && bsd.qos.avg_slowdown <= lsf.qos.avg_slowdown,
        format!(
            "HNR {:.0} ≤ BSD {:.0} ≤ LSF {:.0}",
            hnr.qos.avg_slowdown, bsd.qos.avg_slowdown, lsf.qos.avg_slowdown
        ),
    );
    check(
        "fig10.bsd_best_l2",
        "BSD gives the lowest ℓ2 norm of slowdowns",
        bsd.qos.l2_slowdown < hnr.qos.l2_slowdown && bsd.qos.l2_slowdown < lsf.qos.l2_slowdown,
        format!(
            "BSD {:.2e} | HNR {:.2e} | LSF {:.2e}",
            bsd.qos.l2_slowdown, hnr.qos.l2_slowdown, lsf.qos.l2_slowdown
        ),
    );

    // Figure 11: class bias.
    let bias = |r: &SimReport| -> Option<f64> {
        let classes = r.classes.by_cost_class(0);
        if classes.len() < 2 {
            return None;
        }
        Some(classes.first().unwrap().1.avg_slowdown / classes.last().unwrap().1.avg_slowdown)
    };
    match (bias(&hr), bias(&hnr), bias(&bsd)) {
        (Some(bhr), Some(bhnr), Some(bbsd)) => check(
            "fig11.bias_ordering",
            "HR is most biased against low-selectivity low-cost queries",
            bhr > bhnr && bhr > bbsd,
            format!("bias HR {bhr:.1}x | HNR {bhnr:.1}x | BSD {bbsd:.1}x"),
        ),
        _ => check(
            "fig11.bias_ordering",
            "HR is most biased against low-selectivity low-cost queries",
            false,
            "too few populated classes at this scale; rerun with --queries ≥ 100".into(),
        ),
    }

    // Figure 12: multi-stream, on the exhibit's own 0.9 cells.
    {
        let [jb, jh, jr] = [PolicyKind::Bsd, PolicyKind::Hnr, PolicyKind::RoundRobin]
            .map(|k| fig12_cell(cfg, 0.9, k));
        check(
            "fig12.bsd_best_multistream",
            "BSD gives the lowest ℓ2 for window-join queries, far below RR",
            jb.qos.l2_slowdown <= jh.qos.l2_slowdown
                && jb.qos.l2_slowdown * 2.0 < jr.qos.l2_slowdown,
            format!(
                "BSD {:.2e} | HNR {:.2e} | RR {:.2e} ({:.1}x)",
                jb.qos.l2_slowdown,
                jh.qos.l2_slowdown,
                jr.qos.l2_slowdown,
                jr.qos.l2_slowdown / jb.qos.l2_slowdown
            ),
        );
    }

    // Figures 13–14: the implementation story under charged overhead.
    {
        let charged = |kind| cfg.run_single_with(util, kind, |c| c.with_overhead(true));
        let naive = charged(PolicyKind::Bsd);
        let best = charged(PolicyKind::Clustered(ClusterConfig::logarithmic(8)));
        let hypo = cfg.run_single(util, PolicyKind::Bsd);
        check(
            "fig14.clustering_recovers_naive_loss",
            "charged naive BSD is far worse than hypothetical; the §6 machinery recovers most of it",
            naive.qos.l2_slowdown > hypo.qos.l2_slowdown * 3.0
                && best.qos.l2_slowdown < naive.qos.l2_slowdown * 0.5,
            format!(
                "naive {:.2e} | clustered {:.2e} | hypothetical {:.2e}",
                naive.qos.l2_slowdown, best.qos.l2_slowdown, hypo.qos.l2_slowdown
            ),
        );
    }

    // Table 2: sharing strategies, on the exhibit's own HNR cells.
    {
        let [max, sum, pdt] = [
            SharingStrategy::Max,
            SharingStrategy::Sum,
            SharingStrategy::Pdt,
        ]
        .map(|s| table2_cell(cfg, s, PolicyKind::Hnr));
        check(
            "table2.pdt_best",
            "the PDT strategy beats Max and Sum on HNR average slowdown",
            pdt.qos.avg_slowdown <= max.qos.avg_slowdown
                && pdt.qos.avg_slowdown <= sum.qos.avg_slowdown,
            format!(
                "PDT {:.0} | Sum {:.0} | Max {:.0}",
                pdt.qos.avg_slowdown, sum.qos.avg_slowdown, max.qos.avg_slowdown
            ),
        );
    }

    // Print the scorecard.
    let mut t = AsciiTable::new(vec!["claim", "status", "evidence"]);
    for r in &results {
        t.row(vec![
            r.id.to_string(),
            if r.pass {
                "PASS".into()
            } else {
                "FAIL".to_string()
            },
            r.evidence.clone(),
        ]);
    }
    println!("== scorecard ==\n{}", t.render());
    let passed = results.iter().filter(|r| r.pass).count();
    println!("{passed}/{} claims reproduced", results.len());
    results
}
