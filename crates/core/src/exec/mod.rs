//! Execution: functional semantics, timing model, and the simulator
//! facade combining them.

pub mod blame;
mod data;
pub mod functional;
pub mod plan;
mod report;
pub mod timing;

pub use blame::BlameRecorder;
pub use data::{Catalog, Data, MemoryCatalog};
pub use functional::{execute, execute_lean, FunctionalRun, GraphProfile, NodeProfile};
pub use plan::{PlanCache, SimScratch, StagePlan};
pub use timing::{
    bytes_per_cycle_to_gbps, endpoint_name, gbps_to_bytes_per_cycle, jump_enabled,
    set_jump_enabled, BwStats, ConnMatrix, TimingResult, ENDPOINTS, MEMORY_ENDPOINT,
};

use q100_trace::TraceSink;

use std::sync::Arc;

use q100_columnar::Table;

use crate::config::SimConfig;
use crate::error::Result;
use crate::exec::plan::{MemoKey, MemoRun};
use crate::isa::graph::QueryGraph;
use crate::power;
use crate::sched::{self, Schedule};

/// The complete outcome of simulating one query on one Q100
/// configuration: functional results, schedule, timing, and energy.
#[derive(Debug, Clone)]
pub struct SimOutcome {
    /// End-to-end cycles at 315 MHz.
    pub cycles: u64,
    /// The schedule that was executed (shared with the compiled
    /// [`StagePlan`] it ran from).
    pub schedule: Arc<Schedule>,
    /// Detailed timing (bandwidth traces, busy cycles, spills).
    pub timing: TimingResult,
    /// The query's result streams (sink outputs).
    pub results: Vec<Arc<Data>>,
    /// The configuration simulated.
    pub config: SimConfig,
}

impl SimOutcome {
    /// Runtime in milliseconds.
    #[must_use]
    pub fn runtime_ms(&self) -> f64 {
        self.timing.runtime_ms()
    }

    /// Energy in millijoules (tiles + NoC + stream buffers).
    #[must_use]
    pub fn energy_mj(&self) -> f64 {
        power::energy_mj(&self.timing.busy_cycles, self.cycles, &self.config)
    }

    /// Average power in watts over the query (energy / runtime).
    #[must_use]
    pub fn avg_power_w(&self) -> f64 {
        let ms = self.runtime_ms();
        if ms <= 0.0 {
            0.0
        } else {
            self.energy_mj() / ms
        }
    }

    /// Slowdown relative to a baseline cycle count (e.g. the fault-free
    /// run of the same query). Returns 1.0 when the baseline is zero so
    /// degenerate queries never divide by zero.
    #[must_use]
    pub fn slowdown_vs(&self, baseline_cycles: u64) -> f64 {
        if baseline_cycles == 0 {
            1.0
        } else {
            self.cycles as f64 / baseline_cycles as f64
        }
    }

    /// Renders a human-readable execution report (timeline, tile
    /// activity, memory traffic, hottest links).
    #[must_use]
    pub fn render_report(&self, graph: &QueryGraph) -> String {
        report::render_report(self, graph)
    }

    /// Spilled bytes relative to the query's input+output volume
    /// (Figure 21's metric).
    #[must_use]
    pub fn spill_ratio(&self) -> f64 {
        let io = self.timing.input_bytes + self.timing.output_bytes;
        if io == 0 {
            0.0
        } else {
            self.timing.spill_bytes as f64 / io as f64
        }
    }

    /// The single-table result of a single-sink query.
    ///
    /// # Errors
    ///
    /// Returns an error when the query has multiple sinks (see
    /// [`FunctionalRun::result_table`]).
    pub fn result_table(&self) -> Result<Table> {
        // Reconstruct via the stored sink streams.
        if self.results.len() == 1 {
            return match self.results[0].as_ref() {
                Data::Tab(t) => Ok(t.clone()),
                Data::Col(c) => Ok(Table::new(vec![c.clone()])?),
            };
        }
        Err(crate::error::CoreError::BadOperands {
            node: 0,
            reason: format!("query has {} result streams, expected 1", self.results.len()),
        })
    }
}

/// The Q100 simulator: functional execution, scheduling, and timing in
/// one call.
///
/// # Example
///
/// ```
/// use q100_columnar::{Column, Table, Value};
/// use q100_core::{CmpOp, MemoryCatalog, QueryGraph, SimConfig, Simulator, TileMix};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let sales = Table::new(vec![Column::from_ints("qty", vec![5, 12, 7, 30])])?;
/// let catalog = MemoryCatalog::new(vec![("sales".to_string(), sales)]);
///
/// let mut b = QueryGraph::builder("demo");
/// let qty = b.col_select_base("sales", "qty");
/// let big = b.bool_gen_const(qty, CmpOp::Gt, Value::Int(10));
/// let _out = b.col_filter(qty, big);
/// let graph = b.finish()?;
///
/// let config = SimConfig::pareto();
/// let outcome = Simulator::new(&config).run(&graph, &catalog)?;
/// assert!(outcome.cycles > 0);
/// assert!(outcome.energy_mj() > 0.0);
/// # Ok(())
/// # }
/// ```
///
/// The simulator borrows its configuration, so sweeping thousands of
/// `(query, config)` points never clones a `SimConfig` on the hot path.
#[derive(Debug, Clone, Copy)]
pub struct Simulator<'a> {
    config: &'a SimConfig,
}

impl<'a> Simulator<'a> {
    /// Creates a simulator for the given configuration.
    #[must_use]
    pub fn new(config: &'a SimConfig) -> Self {
        Simulator { config }
    }

    /// The configuration in use.
    #[must_use]
    pub fn config(&self) -> &SimConfig {
        self.config
    }

    /// Functionally executes, schedules, and times `graph` against
    /// `catalog` — the one-call entry point.
    ///
    /// # Errors
    ///
    /// Propagates graph validation, execution, scheduling, and
    /// configuration errors.
    pub fn run(&self, graph: &QueryGraph, catalog: &dyn Catalog) -> Result<SimOutcome> {
        // Lean execution: intermediates are dropped as consumed, so the
        // peak footprint tracks the largest working set, not the whole
        // dataflow history.
        let functional = functional::execute_lean(graph, catalog)?;
        let plan = self.plan(graph, &functional.profile)?;
        self.run_planned(&plan, &functional, graph, &mut SimScratch::new())
    }

    /// Validates the configuration, schedules `graph` on its tile mix
    /// with its scheduler, validates the schedule, and compiles the
    /// [`StagePlan`] the timing layer runs from. Sweeps that revisit a
    /// (query, scheduler, mix) memoize this step in a [`PlanCache`].
    ///
    /// # Errors
    ///
    /// Propagates configuration, scheduling, and schedule validation
    /// errors.
    pub fn plan(&self, graph: &QueryGraph, profile: &GraphProfile) -> Result<StagePlan> {
        self.config.validate()?;
        let schedule = sched::schedule(self.config.scheduler, graph, &self.config.mix, profile)?;
        schedule.validate(graph, &self.config.mix)?;
        StagePlan::compile(graph, Arc::new(schedule), profile)
    }

    /// Times a query from a pre-compiled [`StagePlan`], reusing
    /// `scratch` for all mutable simulation state — the sweep hot path.
    /// The plan's schedule was validated when it was compiled, so no
    /// per-run validation is repeated here.
    ///
    /// # Errors
    ///
    /// Propagates configuration errors.
    pub fn run_planned(
        &self,
        plan: &StagePlan,
        functional: &FunctionalRun,
        graph: &QueryGraph,
        scratch: &mut SimScratch,
    ) -> Result<SimOutcome> {
        self.run_observed(plan, functional, graph, scratch, None, None)
    }

    /// [`run_planned`](Self::run_planned) with observers attached:
    /// `sink` receives structured [`q100_trace::TraceEvent`]s from the
    /// timing layer, and `blame` classifies every node's cycles into a
    /// stall-blame ledger (turn it into a [`q100_trace::BlameReport`]
    /// with [`BlameRecorder::report`]). Neither observer perturbs the
    /// simulated cycles: the quantum-jump fast path stays armed while
    /// recording blame (jumped segments bulk-fold their per-quantum
    /// blame), and only a sink forces pure stepping.
    ///
    /// A run with no observer and no derate is served from the plan's
    /// memo when the plan was already timed under the same bandwidth
    /// caps, point-to-point links and jump mode: the configuration is
    /// still validated, and `scratch`'s run counters are set to those of
    /// the memoized run. Every other run simulates, and a fault-free,
    /// unobserved one is memoized. Memo fills are single-flight: workers
    /// racing on one plan and key simulate it once, the rest wait for
    /// that result.
    ///
    /// # Errors
    ///
    /// As [`run_planned`](Self::run_planned).
    pub fn run_observed(
        &self,
        plan: &StagePlan,
        functional: &FunctionalRun,
        graph: &QueryGraph,
        scratch: &mut SimScratch,
        sink: Option<&mut (dyn TraceSink + '_)>,
        blame: Option<&mut BlameRecorder>,
    ) -> Result<SimOutcome> {
        let memo_key = match (&sink, &blame) {
            (None, None) => MemoKey::of(self.config, scratch),
            _ => None,
        };
        let timing = match memo_key {
            Some(key) => {
                self.config.validate()?;
                plan.memo
                    .get_or_try_insert_with(key, || -> Result<MemoRun> {
                        let timing = timing::simulate_plan(plan, self.config, scratch, None, None)?;
                        Ok(MemoRun::new(timing, scratch))
                    })?
                    .restore(scratch)
            }
            None => timing::simulate_plan(plan, self.config, scratch, sink, blame)?,
        };
        Ok(SimOutcome {
            cycles: timing.cycles,
            results: functional.results(graph),
            schedule: Arc::clone(plan.schedule()),
            timing,
            config: self.config.clone(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TileMix;
    use crate::isa::ops::CmpOp;
    use q100_columnar::{Column, Value};

    fn fixture() -> (QueryGraph, MemoryCatalog) {
        let t = Table::new(vec![Column::from_ints("x", (0..5000).collect::<Vec<_>>())]).unwrap();
        let cat = MemoryCatalog::new(vec![("t".into(), t)]);
        let mut b = QueryGraph::builder("pipe");
        let x = b.col_select_base("t", "x");
        let c = b.bool_gen_const(x, CmpOp::Lt, Value::Int(100));
        let _f = b.col_filter(x, c);
        (b.finish().unwrap(), cat)
    }

    /// Runs the fixture through [`Simulator::plan`] and
    /// [`Simulator::run_observed`] with the given observers attached.
    fn observed(
        config: &SimConfig,
        g: &QueryGraph,
        cat: &MemoryCatalog,
        sink: Option<&mut (dyn TraceSink + '_)>,
        blame: Option<&mut BlameRecorder>,
    ) -> SimOutcome {
        let functional = functional::execute_lean(g, cat).unwrap();
        let sim = Simulator::new(config);
        let plan = sim.plan(g, &functional.profile).unwrap();
        sim.run_observed(&plan, &functional, g, &mut SimScratch::new(), sink, blame).unwrap()
    }

    #[test]
    fn simulator_end_to_end() {
        let (g, cat) = fixture();
        let out = Simulator::new(&SimConfig::pareto()).run(&g, &cat).unwrap();
        assert!(out.cycles > 0);
        assert!(out.energy_mj() > 0.0);
        assert!(out.avg_power_w() > 0.0);
        assert_eq!(out.results.len(), 1);
        let t = out.result_table().unwrap();
        assert_eq!(t.row_count(), 100);
    }

    #[test]
    fn faster_designs_never_slower() {
        let (g, cat) = fixture();
        let lp = Simulator::new(&SimConfig::low_power()).run(&g, &cat).unwrap();
        let hp = Simulator::new(&SimConfig::high_perf()).run(&g, &cat).unwrap();
        assert!(hp.cycles <= lp.cycles);
    }

    #[test]
    fn run_planned_reuses_functional_run() {
        let (g, cat) = fixture();
        let functional = functional::execute(&g, &cat).unwrap();
        let config = SimConfig::new(TileMix::uniform(4));
        let sim = Simulator::new(&config);
        let plan = sim.plan(&g, &functional.profile).unwrap();
        let a = sim.run_planned(&plan, &functional, &g, &mut SimScratch::new()).unwrap();
        let b = sim.run(&g, &cat).unwrap();
        assert_eq!(a.cycles, b.cycles);
    }

    #[test]
    fn traced_run_matches_untraced_and_is_deterministic() {
        use q100_trace::{RingRecorder, TraceEvent};

        let (g, cat) = fixture();
        // A tight mix forces multiple stages so every event variant can
        // appear (stage boundaries, spill volumes, link peaks).
        let config = SimConfig::new(TileMix::uniform(1));
        let untraced = Simulator::new(&config).run(&g, &cat).unwrap();

        let mut rec = RingRecorder::new();
        let traced = observed(&config, &g, &cat, Some(&mut rec), None);
        assert_eq!(traced.cycles, untraced.cycles, "tracing must not perturb timing");
        assert_eq!(rec.dropped(), 0);

        let events = rec.events();
        let begins = events.iter().filter(|e| matches!(e, TraceEvent::TinstBegin { .. })).count();
        let ends = events.iter().filter(|e| matches!(e, TraceEvent::TinstEnd { .. })).count();
        assert_eq!(begins, traced.schedule.stages());
        assert_eq!(ends, traced.schedule.stages());
        assert!(events.iter().any(|e| matches!(e, TraceEvent::TileBusy { .. })));
        assert!(events.iter().any(|e| matches!(e, TraceEvent::StageMem { .. })));

        // Same query, same config: byte-identical event stream.
        let mut rec2 = RingRecorder::new();
        let _ = observed(&config, &g, &cat, Some(&mut rec2), None);
        assert_eq!(events, rec2.events());
    }

    #[test]
    fn attributed_run_matches_plain_and_balances() {
        use q100_trace::{RingRecorder, TraceEvent};

        let (g, cat) = fixture();
        // Tight mix: multiple stages, so TileWait/Drained spans appear.
        let config = SimConfig::new(TileMix::uniform(1));
        let plain = Simulator::new(&config).run(&g, &cat).unwrap();
        let attributed = |sink: Option<&mut (dyn TraceSink + '_)>| {
            let mut recorder = BlameRecorder::new();
            let out = observed(&config, &g, &cat, sink, Some(&mut recorder));
            let report = recorder.report(&out.timing, &config.mix);
            (out, report)
        };
        let (out, report) = attributed(None);
        assert_eq!(out.cycles, plain.cycles, "blame recording must not perturb timing");
        assert_eq!(report.cycles, out.cycles);
        assert!(!report.nodes.is_empty());
        report.check_invariant().unwrap();
        // Attribution is deterministic.
        let (_, again) = attributed(None);
        assert_eq!(report.nodes, again.nodes);

        // Both observers at once: neither perturbs timing, the ledger
        // still balances, and the event stream is the sink-only one
        // plus the recorder's blame counter samples.
        let mut sink_only = RingRecorder::new();
        let _ = observed(&config, &g, &cat, Some(&mut sink_only), None);
        let mut both = RingRecorder::new();
        let (out, report) = attributed(Some(&mut both));
        assert_eq!(out.cycles, plain.cycles, "sink + blame must not perturb timing");
        report.check_invariant().unwrap();
        assert_eq!(report.nodes, again.nodes);
        let (blame_samples, rest): (Vec<_>, Vec<_>) =
            both.events().into_iter().partition(|e| matches!(e, TraceEvent::BlameSample { .. }));
        assert!(!blame_samples.is_empty());
        assert_eq!(rest, sink_only.events());
    }

    #[test]
    fn plan_cache_single_flight_keeps_sched_call_count_deterministic() {
        use crate::config::SchedulerKind;
        use crate::{CacheStats, ScheduleCache};

        let (g, cat) = fixture();
        let functional = functional::execute(&g, &cat).unwrap();
        let sched_cache = ScheduleCache::new();
        let plans = PlanCache::new();
        let n = 8;
        std::thread::scope(|s| {
            for _ in 0..n {
                s.spawn(|| {
                    plans
                        .get_or_compile(
                            0,
                            SchedulerKind::DataAware,
                            &g,
                            &TileMix::uniform(1),
                            &functional.profile,
                            &sched_cache,
                        )
                        .unwrap();
                });
            }
        });
        assert_eq!(plans.stats(), CacheStats { hits: n - 1, misses: 1 });
        // The schedule cache was consulted exactly once no matter how
        // the threads interleaved: late arrivals for an in-flight key
        // wait for its compile instead of re-issuing it. (Before
        // single-flight, a racing pair issued two schedule lookups and
        // the per-figure `schedule cache:` stdout line became
        // timing-dependent.)
        assert_eq!(sched_cache.stats(), CacheStats { hits: 0, misses: 1 });
    }

    /// Times `plan` under `config` on a fresh scratch with jumps on or
    /// off, returning the timing and the scratch's three run counters.
    fn timed(
        config: &SimConfig,
        plan: &StagePlan,
        g: &QueryGraph,
        functional: &FunctionalRun,
        jump: bool,
    ) -> (TimingResult, [u64; 3]) {
        let mut scratch = SimScratch::new();
        scratch.jump_enabled = jump;
        let out = Simulator::new(config).run_planned(plan, functional, g, &mut scratch).unwrap();
        (out.timing, [scratch.jumps, scratch.jumped_quanta, scratch.stepped_quanta])
    }

    #[test]
    fn memoized_run_matches_fresh_simulation_per_jump_mode() {
        let (g, cat) = fixture();
        let functional = functional::execute_lean(&g, &cat).unwrap();
        let config = SimConfig::new(TileMix::uniform(1));
        let sim = Simulator::new(&config);
        let plan = sim.plan(&g, &functional.profile).unwrap();
        for jump in [true, false] {
            let fresh_plan = sim.plan(&g, &functional.profile).unwrap();
            let fresh = timed(&config, &fresh_plan, &g, &functional, jump);
            let first = timed(&config, &plan, &g, &functional, jump);
            let reused = timed(&config, &plan, &g, &functional, jump);
            assert_eq!(first, fresh);
            assert_eq!(reused, fresh, "a memoized result must equal a fresh simulation");
        }
        // One entry per jump mode: a stepped run is never served the
        // jumped run's counters, nor the other way round.
        assert_eq!(plan.memo.len(), 2);
        let (_, jumped) = timed(&config, &plan, &g, &functional, true);
        let (_, stepped) = timed(&config, &plan, &g, &functional, false);
        assert!(jumped[0] > 0, "the fixture must engage the quantum-jump fast path");
        assert_eq!(stepped[..2], [0, 0]);
        assert_eq!(stepped[2], jumped[1] + jumped[2]);

        // Distinct bandwidth caps are distinct keys; past the capacity
        // the oldest-inserted ones are evicted.
        for i in 0..80 {
            let capped = config.clone().with_bandwidth(crate::config::Bandwidth {
                noc_gbps: Some(1.0 + f64::from(i)),
                ..crate::config::Bandwidth::ideal()
            });
            let _ = timed(&capped, &plan, &g, &functional, true);
        }
        assert_eq!(plan.memo.len(), 64);
        assert_eq!(plan.memo.evictions(), 82 - 64);
        // The first key inserted was evicted: it simulates again, to the
        // same result and counters.
        let misses = plan.memo.stats().misses;
        let fresh_plan = sim.plan(&g, &functional.profile).unwrap();
        let fresh = timed(&config, &fresh_plan, &g, &functional, true);
        assert_eq!(timed(&config, &plan, &g, &functional, true), fresh);
        assert_eq!(plan.memo.stats().misses, misses + 1);
    }

    #[test]
    fn racing_workers_simulate_a_plan_key_once() {
        use crate::CacheStats;

        let (g, cat) = fixture();
        let functional = functional::execute_lean(&g, &cat).unwrap();
        let config = SimConfig::new(TileMix::uniform(1));
        let sim = Simulator::new(&config);
        let fresh_plan = sim.plan(&g, &functional.profile).unwrap();
        let fresh = timed(&config, &fresh_plan, &g, &functional, true);
        let plan = sim.plan(&g, &functional.profile).unwrap();
        let workers = 8;
        let start = std::sync::Barrier::new(workers);
        let runs: Vec<_> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    s.spawn(|| {
                        start.wait();
                        timed(&config, &plan, &g, &functional, true)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for run in runs {
            assert_eq!(run, fresh, "every worker must see the fresh run and its counters");
        }
        assert_eq!(
            plan.memo.stats(),
            CacheStats { hits: workers as u64 - 1, misses: 1 },
            "the kernel must run once per (plan, key)"
        );
    }

    #[test]
    fn observed_and_derated_runs_bypass_the_memo() {
        use q100_trace::RingRecorder;

        let (g, cat) = fixture();
        let functional = functional::execute_lean(&g, &cat).unwrap();
        let config = SimConfig::new(TileMix::uniform(1));
        let sim = Simulator::new(&config);
        let plan = sim.plan(&g, &functional.profile).unwrap();
        let mut scratch = SimScratch::new();
        let mut observed = |sink: Option<&mut (dyn TraceSink + '_)>,
                            blame: Option<&mut BlameRecorder>| {
            sim.run_observed(&plan, &functional, &g, &mut scratch, sink, blame).unwrap()
        };

        // Observed runs neither fill the memo...
        let mut first = RingRecorder::new();
        let cycles = observed(Some(&mut first), None).cycles;
        let mut recorder = BlameRecorder::new();
        let out = observed(None, Some(&mut recorder));
        assert_eq!(out.cycles, cycles);
        let ledger = recorder.report(&out.timing, &config.mix);
        assert_eq!(plan.memo.len(), 0);
        // ...nor read it once it holds this key: the sink still
        // receives the full event stream and the recorder the full
        // ledger on a repeated call.
        assert_eq!(observed(None, None).cycles, cycles);
        assert_eq!(plan.memo.len(), 1);
        let mut again = RingRecorder::new();
        assert_eq!(observed(Some(&mut again), None).cycles, cycles);
        assert!(!again.events().is_empty());
        assert_eq!(again.events(), first.events());
        let mut recorder = BlameRecorder::new();
        let out = observed(None, Some(&mut recorder));
        let ledger_again = recorder.report(&out.timing, &config.mix);
        assert!(!ledger_again.nodes.is_empty());
        ledger_again.check_invariant().unwrap();
        assert_eq!(ledger_again.nodes, ledger.nodes);
        assert_eq!(plan.memo.len(), 1);

        // A derated config (even one derating nothing) always simulates.
        let mut derated = config.clone();
        derated.derate = Some(crate::resilience::Derate::none());
        let out =
            Simulator::new(&derated).run_planned(&plan, &functional, &g, &mut scratch).unwrap();
        assert_eq!(out.cycles, cycles);
        assert_eq!(plan.memo.len(), 1);
    }

    #[test]
    fn invalid_config_errors_even_when_memoized() {
        let (g, cat) = fixture();
        let functional = functional::execute_lean(&g, &cat).unwrap();
        let config = SimConfig::new(TileMix::uniform(1));
        let plan = Simulator::new(&config).plan(&g, &functional.profile).unwrap();
        let _ = timed(&config, &plan, &g, &functional, true);
        assert_eq!(plan.memo.len(), 1);
        // Same caps, links and jump mode, so the same memo key.
        let mut invalid = config.clone();
        invalid.read_buffers = 0;
        let run =
            Simulator::new(&invalid).run_planned(&plan, &functional, &g, &mut SimScratch::new());
        assert!(matches!(run, Err(crate::error::CoreError::BadConfig(_))));
    }

    #[test]
    fn plan_cache_shares_plans_between_equal_schedules() {
        use crate::config::SchedulerKind;
        use crate::{CacheStats, ScheduleCache};

        // Two filters in a row: one of each tile kind runs them in two
        // stages, more tiles in one.
        let (_, cat) = fixture();
        let mut b = QueryGraph::builder("two-filters");
        let x = b.col_select_base("t", "x");
        let lt = b.bool_gen_const(x, CmpOp::Lt, Value::Int(100));
        let small = b.col_filter(x, lt);
        let gt = b.bool_gen_const(small, CmpOp::Gt, Value::Int(10));
        let _ = b.col_filter(small, gt);
        let g = b.finish().unwrap();
        let functional = functional::execute(&g, &cat).unwrap();
        let sched_cache = ScheduleCache::new();
        let plans = PlanCache::new();
        let plan = |mix: TileMix| {
            plans
                .get_or_compile(
                    0,
                    SchedulerKind::DataAware,
                    &g,
                    &mix,
                    &functional.profile,
                    &sched_cache,
                )
                .unwrap()
        };
        let (wide, wider, tight) =
            (plan(TileMix::uniform(4)), plan(TileMix::uniform(8)), plan(TileMix::uniform(1)));
        assert_eq!(wide.schedule(), wider.schedule());
        assert!(Arc::ptr_eq(&wide, &wider), "equal schedules must share one plan");
        assert_ne!(wide.schedule(), tight.schedule());
        assert!(!Arc::ptr_eq(&wide, &tight));
        // Sharing leaves the per-key counters alone: three keys, three
        // misses, and a revisit is a hit.
        assert_eq!(plans.stats(), CacheStats { hits: 0, misses: 3 });
        assert_eq!(plans.len(), 3);
        assert!(Arc::ptr_eq(&plan(TileMix::uniform(8)), &wide));
        assert_eq!(plans.stats(), CacheStats { hits: 1, misses: 3 });
        assert_eq!(sched_cache.stats(), CacheStats { hits: 0, misses: 3 });
    }

    #[test]
    fn spill_ratio_zero_for_single_stage() {
        let (g, cat) = fixture();
        let out = Simulator::new(&SimConfig::new(TileMix::uniform(8))).run(&g, &cat).unwrap();
        assert_eq!(out.schedule.stages(), 1);
        assert_eq!(out.spill_ratio(), 0.0);
    }
}
