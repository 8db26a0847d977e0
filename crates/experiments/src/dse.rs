//! The 150-configuration design space exploration (Figure 6).
//!
//! Tiny tiles are pinned at their Table 2 maximum useful counts; the
//! ALU (1–5), partitioner (1–5), and sorter (1–6) are swept, giving the
//! paper's 150 configurations. Each is evaluated by total TPC-H runtime
//! against its provisioned power, and the LowPower / Pareto / HighPerf
//! designs are selected from the resulting cloud.

use q100_core::{SimConfig, TileMix};

use crate::runner::Workload;

/// One evaluated configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct DesignPoint {
    /// ALU / partitioner / sorter counts (tiny tiles are pinned).
    pub alus: u32,
    /// Partitioner count.
    pub partitioners: u32,
    /// Sorter count.
    pub sorters: u32,
    /// Tile + NoC power in W (the x-axis of Figure 6).
    pub power_w: f64,
    /// Total suite runtime in ms (the y-axis of Figure 6).
    pub runtime_ms: f64,
}

impl DesignPoint {
    /// Performance per Watt (1 / (runtime × power)); the Pareto design
    /// maximizes this.
    #[must_use]
    pub fn perf_per_watt(&self) -> f64 {
        1.0 / (self.runtime_ms * self.power_w)
    }
}

/// The whole exploration.
#[derive(Debug, Clone, PartialEq)]
pub struct DesignSpace {
    /// All evaluated points (ALU-major order).
    pub points: Vec<DesignPoint>,
}

impl DesignSpace {
    /// The minimum-power point (the paper's LowPower pick).
    ///
    /// # Panics
    ///
    /// Panics if the space is empty.
    #[must_use]
    pub fn low_power(&self) -> &DesignPoint {
        self.points
            .iter()
            .min_by(|a, b| {
                a.power_w.total_cmp(&b.power_w).then(a.runtime_ms.total_cmp(&b.runtime_ms))
            })
            .expect("non-empty design space")
    }

    /// The minimum-runtime point (the paper's HighPerf pick).
    ///
    /// # Panics
    ///
    /// Panics if the space is empty.
    #[must_use]
    pub fn high_perf(&self) -> &DesignPoint {
        self.points
            .iter()
            .min_by(|a, b| {
                a.runtime_ms.total_cmp(&b.runtime_ms).then(a.power_w.total_cmp(&b.power_w))
            })
            .expect("non-empty design space")
    }

    /// The point maximizing performance per Watt (the paper's Pareto
    /// pick).
    ///
    /// # Panics
    ///
    /// Panics if the space is empty.
    #[must_use]
    pub fn pareto(&self) -> &DesignPoint {
        self.points
            .iter()
            .max_by(|a, b| a.perf_per_watt().total_cmp(&b.perf_per_watt()))
            .expect("non-empty design space")
    }

    /// Points on the Pareto-optimal frontier (no other point is both
    /// faster and lower power), sorted by power.
    #[must_use]
    pub fn frontier(&self) -> Vec<&DesignPoint> {
        let mut frontier: Vec<&DesignPoint> = self
            .points
            .iter()
            .filter(|p| {
                !self.points.iter().any(|q| {
                    q.power_w <= p.power_w
                        && q.runtime_ms <= p.runtime_ms
                        && (q.power_w < p.power_w || q.runtime_ms < p.runtime_ms)
                })
            })
            .collect();
        frontier.sort_by(|a, b| a.power_w.total_cmp(&b.power_w));
        frontier
    }

    /// Renders the scatter as CSV (`alus,partitioners,sorters,power_w,runtime_ms`).
    #[must_use]
    pub fn to_csv(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("alus,partitioners,sorters,power_w,runtime_ms\n");
        for p in &self.points {
            let _ = writeln!(
                out,
                "{},{},{},{:.4},{:.4}",
                p.alus, p.partitioners, p.sorters, p.power_w, p.runtime_ms
            );
        }
        out
    }

    /// Renders a summary naming the three selected designs.
    #[must_use]
    pub fn render_summary(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "# Design space: {} configurations", self.points.len());
        for (label, p) in [
            ("LowPower", self.low_power()),
            ("Pareto  ", self.pareto()),
            ("HighPerf", self.high_perf()),
        ] {
            let _ = writeln!(
                out,
                "{label}: {} ALU, {} partitioner, {} sorter -> {:.3} W, {:.3} ms",
                p.alus, p.partitioners, p.sorters, p.power_w, p.runtime_ms
            );
        }
        let _ = writeln!(out, "Pareto frontier: {} points", self.frontier().len());
        out
    }
}

/// Power charged per configuration in Figure 6: tiles plus the 30% NoC
/// overhead (stream buffers are provisioned per selected design, not
/// per swept point).
#[must_use]
pub fn design_power_w(mix: &TileMix) -> f64 {
    mix.tile_power_w() * (1.0 + q100_core::power::NOC_OVERHEAD_FRACTION)
}

/// Explores the full ALU×partitioner×sorter space over a prepared
/// workload. All 150 × |queries| simulation points run as one flat
/// parallel sweep; results come back in ALU-major order regardless of
/// the job count.
#[must_use]
pub fn explore(workload: &Workload) -> DesignSpace {
    let mut counts = Vec::with_capacity(150);
    let mut configs = Vec::with_capacity(150);
    for alus in 1..=5 {
        for partitioners in 1..=5 {
            for sorters in 1..=6 {
                counts.push((alus, partitioners, sorters));
                configs.push(SimConfig::new(TileMix::with_swept(alus, partitioners, sorters)));
            }
        }
    }
    let runtimes = workload.sweep_total_runtime_ms(&configs);
    let points = counts
        .iter()
        .zip(&configs)
        .zip(runtimes)
        .map(|((&(alus, partitioners, sorters), config), runtime_ms)| DesignPoint {
            alus,
            partitioners,
            sorters,
            power_w: design_power_w(&config.mix),
            runtime_ms,
        })
        .collect();
    DesignSpace { points }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_space() -> DesignSpace {
        DesignSpace {
            points: vec![
                DesignPoint {
                    alus: 1,
                    partitioners: 1,
                    sorters: 1,
                    power_w: 0.3,
                    runtime_ms: 10.0,
                },
                DesignPoint { alus: 2, partitioners: 1, sorters: 1, power_w: 0.4, runtime_ms: 6.0 },
                DesignPoint { alus: 3, partitioners: 1, sorters: 1, power_w: 0.6, runtime_ms: 5.5 },
                DesignPoint { alus: 3, partitioners: 2, sorters: 1, power_w: 0.7, runtime_ms: 7.0 },
            ],
        }
    }

    #[test]
    fn selections_pick_extremes_and_balance() {
        let s = tiny_space();
        assert_eq!(s.low_power().power_w, 0.3);
        assert_eq!(s.high_perf().runtime_ms, 5.5);
        assert_eq!(s.pareto().alus, 2, "best perf/W is the middle point");
    }

    #[test]
    fn frontier_excludes_dominated_points() {
        let s = tiny_space();
        let f = s.frontier();
        assert_eq!(f.len(), 3, "the (0.7, 7.0) point is dominated");
        assert!(f.iter().all(|p| !(p.power_w == 0.7 && p.runtime_ms == 7.0)));
    }

    #[test]
    fn explore_small_space_orders_runtime_sensibly() {
        // A reduced exploration (2 queries) must still show the minimal
        // mix is no faster than the maximal one.
        let w = Workload::prepare_subset(0.002, &["q1", "q6"]);
        let space = explore(&w);
        assert_eq!(space.points.len(), 150);
        let lp =
            space.points.iter().find(|p| (p.alus, p.partitioners, p.sorters) == (1, 1, 1)).unwrap();
        let hp =
            space.points.iter().find(|p| (p.alus, p.partitioners, p.sorters) == (5, 5, 6)).unwrap();
        assert!(hp.runtime_ms <= lp.runtime_ms);
        assert!(hp.power_w > lp.power_w);
    }

    #[test]
    fn csv_has_header_and_rows() {
        let s = tiny_space();
        let csv = s.to_csv();
        assert!(csv.starts_with("alus,"));
        assert_eq!(csv.lines().count(), 5);
    }
}
