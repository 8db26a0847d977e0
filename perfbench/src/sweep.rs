//! The `dse` and `bwsweep` workloads: flat sweeps of (config, query)
//! simulations through the schedule cache, the plan cache and the
//! timing kernel, in the order the `q100-experiments` figures run them.

use std::collections::HashSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use q100_core::{
    Bandwidth, PlanCache, ScheduleCache, SchedulerKind, SimConfig, SimScratch, Simulator,
    StagePlan, TileMix,
};

use crate::clock::Laps;
use crate::prepare::{Prepared, PreparedQuery};
use crate::span::{Layer, Spans};

/// The Figure 6 design space: ALU 1–5 × partitioner 1–5 × sorter 1–6,
/// ALU-major, at ideal bandwidth.
#[must_use]
pub fn dse_configs() -> Vec<SimConfig> {
    let mut configs = Vec::with_capacity(150);
    for alus in 1..=5 {
        for partitioners in 1..=5 {
            for sorters in 1..=6 {
                configs.push(SimConfig::new(TileMix::with_swept(alus, partitioners, sorters)));
            }
        }
    }
    configs
}

/// The Figure 13, 16 and 17 bandwidth sweeps back to back: per axis,
/// the ideal HighPerf baseline, then each paper design under four caps
/// and uncapped.
#[must_use]
pub fn bwsweep_configs() -> Vec<SimConfig> {
    let axes: [(&str, [f64; 4]); 3] = [
        ("NoC", [5.0, 10.0, 15.0, 20.0]),
        ("MemRead", [10.0, 20.0, 30.0, 40.0]),
        ("MemWrite", [5.0, 10.0, 15.0, 20.0]),
    ];
    let designs = [SimConfig::low_power(), SimConfig::pareto(), SimConfig::high_perf()];
    let mut configs = Vec::with_capacity(48);
    for (axis, caps) in axes {
        configs.push(SimConfig::high_perf().with_bandwidth(Bandwidth::ideal()));
        for design in &designs {
            for cap in caps.iter().copied().map(Some).chain([None]) {
                let bandwidth = match axis {
                    "NoC" => Bandwidth { noc_gbps: cap, ..Bandwidth::ideal() },
                    "MemRead" => Bandwidth { mem_read_gbps: cap, ..Bandwidth::ideal() },
                    _ => Bandwidth { mem_write_gbps: cap, ..Bandwidth::ideal() },
                };
                configs.push(design.clone().with_bandwidth(bandwidth));
            }
        }
    }
    configs
}

/// The deterministic counters of one pass. Equal on every pass of a
/// run, traced or not.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SweepCounters {
    /// Simulations attempted.
    pub ops: u64,
    /// Simulations that returned an error or panicked.
    pub failed: u64,
    /// Total simulated cycles.
    pub sim_cycles: u64,
    /// Fused quantum jumps taken.
    pub jumps: u64,
    /// Quanta skipped by jumps.
    pub jumped_quanta: u64,
    /// Quanta stepped one at a time.
    pub stepped_quanta: u64,
    /// Plan-cache hits.
    pub plan_hits: u64,
    /// Plan-cache misses (plans compiled).
    pub plan_misses: u64,
    /// Schedule-cache hits made by the plan cache itself, without the
    /// lookups the harness adds by scheduling new keys first.
    pub sched_hits: u64,
    /// Schedule-cache misses (schedules computed).
    pub sched_misses: u64,
}

/// The program caches one pass uses, created empty for every pass.
#[derive(Default)]
struct Caches {
    sched: ScheduleCache,
    plans: PlanCache,
    /// Keys already seen, so the harness knows a plan lookup will miss.
    seen: HashSet<(usize, SchedulerKind, TileMix)>,
}

/// One measured pass over every (config, query) point.
pub struct SweepPass {
    /// The pass's counters.
    pub counters: SweepCounters,
    /// Simulated cycles of every op, in op order (`None` if it failed).
    pub cycles: Vec<Option<u64>>,
    /// Calibrated time of every op, in ns (see [`crate::clock`]).
    pub op_ns: Vec<u64>,
    /// Host time of the ops, summed, in ns.
    pub host_ns: u64,
}

/// Resolves the compiled plan of `(query, config)`. On a key's first
/// sight the harness schedules it through the schedule cache before
/// asking the plan cache, so scheduling and compilation time apart; the
/// plan cache then finds that schedule with one more lookup, which
/// [`run_pass`] subtracts from the schedule-cache hits it reports.
///
/// # Errors
///
/// Propagates scheduling and compilation errors.
fn resolve_plan(
    caches: &mut Caches,
    tag: usize,
    p: &PreparedQuery,
    config: &SimConfig,
    spans: &Spans,
) -> q100_core::Result<Arc<StagePlan>> {
    let (kind, mix, profile) = (config.scheduler, &config.mix, &p.functional.profile);
    if caches.seen.insert((tag, kind, *mix)) {
        spans.time(Layer::Sched, || {
            caches.sched.get_or_schedule(tag as u64, kind, &p.graph, mix, profile)
        })?;
    }
    spans.time(Layer::Plan, || {
        caches.plans.get_or_compile(tag as u64, kind, &p.graph, mix, profile, &caches.sched)
    })
}

/// Runs every query under every config, config-major, on cold caches
/// and a fresh scratch, timing each op.
#[must_use]
pub fn run_pass(prep: &Prepared, configs: &[SimConfig], spans: &Spans) -> SweepPass {
    let mut caches = Caches::default();
    let mut scratch = SimScratch::new();
    let mut counters = SweepCounters::default();
    let mut cycles = Vec::with_capacity(configs.len() * prep.queries.len());
    let mut laps = Laps::start();
    for config in configs {
        for (tag, p) in prep.queries.iter().enumerate() {
            counters.ops += 1;
            let op = catch_unwind(AssertUnwindSafe(|| {
                let plan = resolve_plan(&mut caches, tag, p, config, spans)?;
                spans.time(Layer::Timing, || {
                    Simulator::new(config).run_planned(&plan, &p.functional, &p.graph, &mut scratch)
                })
            }));
            laps.lap();
            match op {
                Ok(Ok(outcome)) => {
                    counters.sim_cycles += outcome.cycles;
                    counters.jumps += scratch.jumps;
                    counters.jumped_quanta += scratch.jumped_quanta;
                    counters.stepped_quanta += scratch.stepped_quanta;
                    cycles.push(Some(outcome.cycles));
                }
                Ok(Err(_)) | Err(_) => {
                    counters.failed += 1;
                    cycles.push(None);
                }
            }
        }
    }
    let (plan, sched) = (caches.plans.stats(), caches.sched.stats());
    counters.plan_hits = plan.hits;
    counters.plan_misses = plan.misses;
    counters.sched_misses = sched.misses;
    counters.sched_hits = sched.hits.saturating_sub(plan.misses);
    let (op_ns, host_ns) = laps.take();
    SweepPass { counters, cycles, op_ns, host_ns }
}

/// Re-simulates the ops at `sample` (indices into the pass's op order)
/// with the quantum-jump fast path off on this scratch only, and
/// returns one line per op whose cycles differ from the jumped run.
pub fn jump_step_check(
    prep: &Prepared,
    configs: &[SimConfig],
    pass: &SweepPass,
    sample: &[usize],
) -> Vec<String> {
    let per = prep.queries.len();
    let mut caches = Caches::default();
    let mut stepping = SimScratch::new();
    stepping.jump_enabled = false;
    let mut errors = Vec::new();
    for &op in sample {
        let (config, tag) = (&configs[op / per], op % per);
        let p = &prep.queries[tag];
        let stepped = resolve_plan(&mut caches, tag, p, config, &Spans::off()).and_then(|plan| {
            Simulator::new(config).run_planned(&plan, &p.functional, &p.graph, &mut stepping)
        });
        let jumped = pass.cycles[op];
        match stepped {
            Ok(o) if Some(o.cycles) == jumped => {}
            Ok(o) => errors.push(format!(
                "op {op} ({}): jumped {jumped:?} cycles, stepped {}",
                p.query.name, o.cycles
            )),
            Err(e) => errors.push(format!("op {op} ({}): stepped run failed: {e}", p.query.name)),
        }
    }
    errors
}
