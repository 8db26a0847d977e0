//! The `analyze` subcommand: bottleneck attribution per query × design.
//!
//! Runs every workload query under the three paper designs with the
//! stall-blame recorder attached, then derives the analysis artifacts
//! from each ledger: dominant causes, the critical path over the plan
//! DAG, and analytical what-if estimates (no re-simulation). Emits a
//! deterministic `q100-blame-v1` JSON document — byte-identical at any
//! `--jobs` setting — plus a human-readable top-bottlenecks table.

use std::fmt::Write as _;

use q100_core::exec::endpoint_name;
use q100_core::trace::{critical_path, what_ifs, BlameCause, BlameReport, CriticalPath, WhatIf};
use q100_core::TileKind;

use crate::pool;
use crate::runner::{paper_designs, Workload};

/// One query's attribution under one design.
pub struct QueryAnalysis {
    /// Query name.
    pub query: String,
    /// Simulated cycles (bit-identical to the untraced sweeps).
    pub cycles: u64,
    /// The per-node cycle ledger.
    pub report: BlameReport,
    /// Longest active-cycle chain through the plan DAG.
    pub critical_path: CriticalPath,
    /// Analytical resource-relaxation estimates.
    pub what_ifs: Vec<WhatIf>,
}

/// One paper design's analyses, in workload order.
pub struct DesignAnalysis {
    /// Design name (`LowPower`/`Pareto`/`HighPerf`).
    pub design: String,
    /// Per-query analyses.
    pub queries: Vec<QueryAnalysis>,
}

/// The full attribution study.
pub struct AnalyzeStudy {
    /// ISO date the study ran (respects `SOURCE_DATE_EPOCH`).
    pub date: String,
    /// Scale factor the workload was prepared at.
    pub scale: f64,
    /// Per-design analyses, in `paper_designs()` order.
    pub designs: Vec<DesignAnalysis>,
}

/// Display names of the tile kinds, indexed by kind discriminant.
fn kind_names() -> Vec<&'static str> {
    (0..TileKind::COUNT).map(endpoint_name).collect()
}

/// Today's civil date as `YYYY-MM-DD`, from `SOURCE_DATE_EPOCH` when
/// set (reproducible builds) else the system clock. No external date
/// crate: the Gregorian conversion below is the standard
/// days-from-epoch algorithm.
fn today() -> String {
    let secs = std::env::var("SOURCE_DATE_EPOCH")
        .ok()
        .and_then(|v| v.trim().parse::<u64>().ok())
        .unwrap_or_else(|| {
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map_or(0, |d| d.as_secs())
        });
    let (y, m, d) = civil_from_days(secs / 86_400);
    format!("{y:04}-{m:02}-{d:02}")
}

/// Converts days since 1970-01-01 to a (year, month, day) civil date
/// (Howard Hinnant's `civil_from_days`).
fn civil_from_days(days: u64) -> (u64, u64, u64) {
    let z = days + 719_468;
    let era = z / 146_097;
    let doe = z % 146_097;
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    (if m <= 2 { y + 1 } else { y }, m, d)
}

/// Runs the attribution study over every (design, query) point, fanned
/// out across the worker pool with deterministic result ordering.
#[must_use]
pub fn study(workload: &Workload, scale: f64) -> AnalyzeStudy {
    let designs = paper_designs();
    let points: Vec<(usize, usize)> =
        (0..designs.len()).flat_map(|d| (0..workload.queries.len()).map(move |q| (d, q))).collect();
    let names = kind_names();
    let analyses = pool::parallel_map_metered(
        &points,
        |&(d, q)| {
            let prepared = &workload.queries[q];
            let (outcome, report) = workload.simulate_blamed(prepared, &designs[d].1);
            report.check_invariant().unwrap_or_else(|e| {
                panic!("{}/{}: blame invariant violated: {e}", designs[d].0, prepared.query.name)
            });
            QueryAnalysis {
                query: prepared.query.name.to_string(),
                cycles: outcome.cycles,
                critical_path: critical_path(&report),
                what_ifs: what_ifs(&report, &names),
                report,
            }
        },
        Some(workload.metrics()),
    );
    let per = workload.queries.len();
    let mut chunks = analyses.into_iter();
    let designs = designs
        .iter()
        .map(|(name, _)| DesignAnalysis {
            design: (*name).to_string(),
            queries: chunks.by_ref().take(per.max(1)).collect(),
        })
        .collect();
    AnalyzeStudy { date: today(), scale, designs }
}

impl AnalyzeStudy {
    /// Renders the study as a `q100-blame-v1` JSON document. Every
    /// field is deterministic: simulated cycles, ledger sums, and
    /// analytical estimates only — no wall-clock.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"schema\": \"q100-blame-v1\",");
        let _ = writeln!(out, "  \"date\": \"{}\",", self.date);
        let _ = writeln!(out, "  \"scale\": {},", self.scale);
        out.push_str("  \"designs\": [\n");
        for (d, design) in self.designs.iter().enumerate() {
            let _ = writeln!(out, "    {{\"design\": \"{}\", \"queries\": [", design.design);
            for (q, qa) in design.queries.iter().enumerate() {
                let totals = qa.report.cause_totals();
                let causes: Vec<String> = BlameCause::ALL
                    .iter()
                    .map(|c| format!("\"{}\": {:.3}", c.name(), totals[c.index()]))
                    .collect();
                let cp_nodes: Vec<String> =
                    qa.critical_path.nodes.iter().map(ToString::to_string).collect();
                let wi: Vec<String> = qa
                    .what_ifs
                    .iter()
                    .map(|w| {
                        format!(
                            "{{\"label\": \"{}\", \"saved_cycles\": {:.3}, \
                             \"est_cycles\": {}, \"delta_pct\": {:.3}}}",
                            w.label, w.saved_cycles, w.est_cycles, w.delta_pct
                        )
                    })
                    .collect();
                let _ = write!(
                    out,
                    "      {{\"query\": \"{}\", \"cycles\": {}, \
                     \"active_cycles\": {:.3},\n       \"causes\": {{{}}},\n       \
                     \"critical_path\": {{\"nodes\": [{}], \"cycles\": {:.3}, \
                     \"fraction\": {:.6}}},\n       \"what_if\": [{}]}}",
                    qa.query,
                    qa.cycles,
                    qa.report.active_total(),
                    causes.join(", "),
                    cp_nodes.join(", "),
                    qa.critical_path.cycles,
                    qa.critical_path.fraction,
                    wi.join(", ")
                );
                out.push_str(if q + 1 < design.queries.len() { ",\n" } else { "\n" });
            }
            out.push_str("    ]}");
            out.push_str(if d + 1 < self.designs.len() { ",\n" } else { "\n" });
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Renders the human-readable top-bottlenecks table: per design ×
    /// query, the three dominant causes (as share of the full per-node
    /// ledger), the critical-path fraction, and the best what-if.
    #[must_use]
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        out.push_str("Bottleneck attribution (top causes per query x design)\n");
        for design in &self.designs {
            let _ = writeln!(out, "\n== {} ==", design.design);
            let _ = writeln!(
                out,
                "{:<6} {:>12} {:>10}  {:<52} best what-if",
                "query", "cycles", "crit.path", "top causes (% of ledger)"
            );
            for qa in &design.queries {
                let ledger: f64 = qa.report.cycles as f64 * qa.report.nodes.len().max(1) as f64;
                let mut top: Vec<(BlameCause, f64)> = qa.report.top_causes();
                top.truncate(3);
                let causes: Vec<String> = top
                    .iter()
                    .map(|&(c, v)| format!("{} {:.1}%", c.name(), v / ledger.max(1.0) * 100.0))
                    .collect();
                let best = qa
                    .what_ifs
                    .iter()
                    .max_by(|a, b| a.saved_cycles.total_cmp(&b.saved_cycles))
                    .filter(|w| w.saved_cycles > 0.0)
                    .map_or("-".to_string(), |w| {
                        format!("{} => est {:+.1}%", w.label, w.delta_pct)
                    });
                let _ = writeln!(
                    out,
                    "{:<6} {:>12} {:>10.3}  {:<52} {}",
                    qa.query,
                    qa.cycles,
                    qa.critical_path.fraction,
                    causes.join(", "),
                    best
                );
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use q100_core::trace::validate_blame_json;

    #[test]
    fn civil_date_conversion_is_correct() {
        assert_eq!(civil_from_days(0), (1970, 1, 1));
        assert_eq!(civil_from_days(19_723), (2024, 1, 1)); // leap year start
        assert_eq!(civil_from_days(19_782), (2024, 2, 29)); // leap day
        assert_eq!(civil_from_days(20_666), (2026, 8, 1));
    }

    #[test]
    fn study_json_is_job_count_independent_and_valid() {
        let run = |jobs: usize| {
            pool::set_jobs(Some(jobs));
            let w = Workload::prepare_subset(0.002, &["q6", "q1"]);
            let s = study(&w, 0.002);
            pool::set_jobs(None);
            (s.to_json(), s.render_table())
        };
        let (json_serial, table_serial) = run(1);
        let (json_jobs, table_jobs) = run(4);
        assert_eq!(json_serial, json_jobs, "analyze JSON must not depend on --jobs");
        assert_eq!(table_serial, table_jobs);
        validate_blame_json(&json_serial).unwrap();
        assert!(table_serial.contains("== Pareto =="));
    }
}
