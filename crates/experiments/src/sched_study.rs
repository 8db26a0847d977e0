//! Scheduling algorithm comparison (Section 3.4, Figures 19–22):
//! naive vs. data-aware vs. semi-exhaustive, by completion time and by
//! spill volume relative to the query's input/output volume.

use q100_core::{SchedulerKind, SimConfig, SimOutcome};

use crate::runner::{paper_designs, Workload};

/// The three algorithms in paper order.
pub const SCHEDULERS: [SchedulerKind; 3] =
    [SchedulerKind::Naive, SchedulerKind::DataAware, SchedulerKind::SemiExhaustive];

/// Per-query outcome of one scheduler on one design.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SchedOutcome {
    /// Completion time in ms.
    pub runtime_ms: f64,
    /// Spilled bytes.
    pub spill_bytes: u64,
    /// Spill volume / (input + output volume) — Figure 21's metric.
    pub spill_ratio: f64,
}

/// The full study for one design.
#[derive(Debug, Clone)]
pub struct SchedStudy {
    /// Design name.
    pub design: String,
    /// Query names.
    pub queries: Vec<&'static str>,
    /// `outcomes[scheduler][query]`, scheduler order as [`SCHEDULERS`].
    pub outcomes: Vec<Vec<SchedOutcome>>,
}

impl SchedStudy {
    /// Average runtime normalized to naive (Figure 20's bars).
    #[must_use]
    pub fn avg_runtime_vs_naive(&self, scheduler: usize) -> f64 {
        let total: f64 = self.outcomes[scheduler].iter().map(|o| o.runtime_ms).sum();
        let naive: f64 = self.outcomes[0].iter().map(|o| o.runtime_ms).sum();
        total / naive
    }

    /// Average spill volume normalized to naive (Figure 22's bars).
    #[must_use]
    pub fn avg_spill_vs_naive(&self, scheduler: usize) -> f64 {
        let total: f64 = self.outcomes[scheduler].iter().map(|o| o.spill_bytes as f64).sum();
        let naive: f64 = self.outcomes[0].iter().map(|o| o.spill_bytes as f64).sum();
        if naive == 0.0 {
            1.0
        } else {
            total / naive
        }
    }

    /// Renders the study (per-query and averages).
    #[must_use]
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "# Scheduler study on {} (normalized to naive)", self.design);
        let _ = write!(out, "{:>5}", "query");
        for s in SCHEDULERS {
            let _ = write!(out, " {:>16}", format!("{s} time"));
        }
        let _ = write!(out, " {:>16}", "spill ratios");
        out.push('\n');
        for (qi, q) in self.queries.iter().enumerate() {
            let _ = write!(out, "{q:>5}");
            for si in 0..SCHEDULERS.len() {
                let r = self.outcomes[si][qi].runtime_ms / self.outcomes[0][qi].runtime_ms;
                let _ = write!(out, " {r:>16.3}");
            }
            let ratios: Vec<String> = (0..SCHEDULERS.len())
                .map(|si| format!("{:.2}", self.outcomes[si][qi].spill_ratio))
                .collect();
            let _ = write!(out, " {:>16}", ratios.join("/"));
            out.push('\n');
        }
        let _ = writeln!(
            out,
            "avg time vs naive: data-aware {:.3}, semi-exhaustive {:.3}",
            self.avg_runtime_vs_naive(1),
            self.avg_runtime_vs_naive(2)
        );
        let _ = writeln!(
            out,
            "avg spill vs naive: data-aware {:.3}, semi-exhaustive {:.3}",
            self.avg_spill_vs_naive(1),
            self.avg_spill_vs_naive(2)
        );
        out
    }
}

/// Runs the scheduler study on one design. The three schedulers'
/// simulations run as one flat parallel sweep.
#[must_use]
pub fn study(workload: &Workload, design: &str, base: &SimConfig) -> SchedStudy {
    let configs: Vec<SimConfig> =
        SCHEDULERS.iter().map(|&kind| base.clone().with_scheduler(kind)).collect();
    let outcomes = workload
        .sweep(&configs)
        .iter()
        .map(|group| {
            group
                .iter()
                .map(|o: &SimOutcome| SchedOutcome {
                    runtime_ms: o.runtime_ms(),
                    spill_bytes: o.timing.spill_bytes,
                    spill_ratio: o.spill_ratio(),
                })
                .collect()
        })
        .collect();
    SchedStudy { design: design.to_string(), queries: workload.names(), outcomes }
}

/// Runs the study on all three paper designs (Figures 20/22 aggregate
/// across designs).
#[must_use]
pub fn study_all_designs(workload: &Workload) -> Vec<SchedStudy> {
    paper_designs().into_iter().map(|(name, config)| study(workload, name, &config)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn data_aware_beats_or_matches_naive_on_spills() {
        let w = Workload::prepare_subset(0.003, &["q1", "q5", "q10"]);
        let s = study(&w, "LowPower", &SimConfig::low_power());
        assert!(
            s.avg_spill_vs_naive(1) <= 1.02,
            "data-aware spills more than naive on average: {}",
            s.avg_spill_vs_naive(1)
        );
    }

    #[test]
    fn semi_exhaustive_minimizes_spills_overall() {
        let w = Workload::prepare_subset(0.003, &["q4", "q6", "q12"]);
        let s = study(&w, "LowPower", &SimConfig::low_power());
        assert!(
            s.avg_spill_vs_naive(2) <= s.avg_spill_vs_naive(1) + 0.05,
            "semi-exhaustive should be at least close to data-aware"
        );
    }

    #[test]
    fn render_mentions_all_schedulers() {
        let w = Workload::prepare_subset(0.002, &["q6"]);
        let s = study(&w, "Pareto", &SimConfig::pareto());
        let text = s.render();
        assert!(text.contains("naive"));
        assert!(text.contains("semi-exhaustive"));
    }
}
