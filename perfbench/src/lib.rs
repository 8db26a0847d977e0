//! # `q100-perfbench`: the repository's end-to-end and per-layer benchmark
//!
//! Three workloads drive the public functions of `q100-tpch`,
//! `q100-core`, `q100-dbms` and `q100-serve`:
//!
//! * `dse` — the Figure 6 design space (150 tile mixes × 19 queries),
//! * `bwsweep` — the Figure 13/16/17 bandwidth sweeps (912 simulations),
//! * `soak` — the `serve --soak` chaos cell (5000 requests).
//!
//! A run sets up, then repeats whole passes of the workload on cold
//! program caches until the requested seconds are spent, timing more
//! set-ups between the passes ([`SETUP_REPEATS`] in all), in calibrated
//! time ([`clock`]). It checks
//! every output and reports either the end-to-end
//! metrics (untraced) or the per-layer metrics (traced: untraced and
//! traced passes alternate, the traced ones record [`span`]s). The
//! harness runs on one thread.

pub mod clock;
pub mod prepare;
pub mod soak;
pub mod span;
pub mod sweep;

use std::collections::HashMap;
use std::fmt::Write as _;
use std::time::Instant;

use prepare::Prepared;
use span::{Layer, LayerTimes, Span, Spans};

/// The default `--seed`, the repository's usual seed. It generates the
/// same database and soak stream as the `q100-experiments` CLI.
pub const DEFAULT_SEED: u64 = 42;

/// A seed reserved for confirming claims: do not tune against it.
pub const HELD_OUT_SEED: u64 = 7919;

/// Set-ups per run, spread over the run's passes. `setup_s` times each
/// of a set-up's calls (datagen, each graph build, ...) and sums each
/// call's median over the repeats.
pub const SETUP_REPEATS: usize = 9;

/// Ops per run re-simulated with the quantum-jump fast path off.
pub const SPOT_CHECKS: usize = 48;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The Figure 6 design-space sweep.
    Dse,
    /// The Figure 13/16/17 bandwidth sweeps.
    Bwsweep,
    /// The chaos-soak serving cell.
    Soak,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 3] = [Workload::Dse, Workload::Bwsweep, Workload::Soak];

    /// Parses a workload name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::Dse => "dse",
            Workload::Bwsweep => "bwsweep",
            Workload::Soak => "soak",
        }
    }

    /// TPC-H scale factor.
    #[must_use]
    pub fn scale(self) -> f64 {
        match self {
            Workload::Dse => 0.01,
            Workload::Bwsweep => 0.02,
            Workload::Soak => 0.005,
        }
    }

    /// `sim_cycles` at [`DEFAULT_SEED`].
    #[must_use]
    pub fn reference_sim_cycles(self) -> u64 {
        match self {
            Workload::Dse => 354_257_840,
            Workload::Bwsweep => 280_108_742,
            Workload::Soak => 207_652_691,
        }
    }

    /// The band every seed's `sim_cycles` must fall in: the reference
    /// ±10%, the cycle gate of `compare-bench`. Other seeds stay within
    /// ±3%, so leaving the band means the model changed.
    #[must_use]
    pub fn sim_cycles_band(self) -> (f64, f64) {
        let reference = self.reference_sim_cycles() as f64;
        (reference * 0.9, reference * 1.1)
    }
}

/// The database seed for a benchmark seed: [`DEFAULT_SEED`] maps to
/// `q100_tpch::DEFAULT_SEED`, the seed of every other tool in the
/// repository, and each other seed to another database.
#[must_use]
pub fn db_seed(seed: u64) -> u64 {
    q100_tpch::DEFAULT_SEED ^ seed ^ DEFAULT_SEED
}

/// What one run does.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Input seed (database and soak stream).
    pub seed: u64,
    /// Seconds of passes to measure (at least one pass always runs).
    pub seconds: f64,
    /// Report per-layer metrics from alternating traced passes.
    pub trace: bool,
}

impl Options {
    /// Passes of each kind to run even when `seconds` runs out first:
    /// at least three untraced passes, so ops/s is a median; traced runs
    /// alternate two of each kind.
    fn min_passes(&self) -> usize {
        if self.trace {
            2
        } else {
            3
        }
    }
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// A run's result.
#[derive(Debug, Clone)]
pub struct Report {
    /// Ops attempted over all passes.
    pub attempted: u64,
    /// Failed ops plus failed checks.
    pub failed: u64,
    /// Every failure, one line each.
    pub errors: Vec<String>,
    /// The metrics: end-to-end when untraced, per-layer when traced.
    pub metrics: Vec<Metric>,
    /// Human-readable description of the run's inputs.
    pub echo: String,
}

impl Report {
    /// Whether every op and every check succeeded.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The value of metric `name`.
    #[must_use]
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.name == name).map(|m| m.value)
    }

    /// The one-line JSON result.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// End-to-end metric names and units, in report order.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("ops_per_s", "ops/s"),
    ("peak_rss_mb", "MiB"),
    ("sim_cycles", "cycles"),
    ("p99_latency_cycles", "cycles"),
    ("goodput", "fraction"),
];

/// Per-layer metric names and units, in report order.
pub const PER_LAYER: [(&str, &str); 41] = [
    ("tpch.generate_s", "s"),
    ("tpch.graph_build_s", "s"),
    ("functional.execute_s", "s"),
    ("dbms.run_s", "s"),
    ("serve.device_build_s", "s"),
    ("sched.calls", "count"),
    ("sched.busy_s", "s"),
    ("sched.cache_hits", "count"),
    ("sched.cache_misses", "count"),
    ("plan.compiles", "count"),
    ("plan.busy_s", "s"),
    ("plan.cache_hits", "count"),
    ("plan.cache_misses", "count"),
    ("plan.hit_ratio", "fraction"),
    ("timing.sims", "count"),
    ("timing.busy_s", "s"),
    ("timing.share", "fraction"),
    ("timing.sim_p50_ms", "ms"),
    ("timing.sim_p99_ms", "ms"),
    ("timing.sim_samples", "count"),
    ("timing.jumps", "count"),
    ("timing.jumped_quanta", "count"),
    ("timing.stepped_quanta", "count"),
    ("timing.jump_coverage", "fraction"),
    ("timing.ns_per_quantum", "ns"),
    ("serve.busy_s", "s"),
    ("serve.self_s", "s"),
    ("serve.cost_attempts", "count"),
    ("serve.unique_classes", "count"),
    ("serve.unique_sims", "count"),
    ("serve.sims_saved_ratio", "fraction"),
    ("resilience.cost_cache_hits", "count"),
    ("resilience.cost_cache_misses", "count"),
    ("serve.completed", "count"),
    ("serve.shed", "count"),
    ("serve.degraded", "count"),
    ("serve.deadline_missed", "count"),
    ("serve.retries", "count"),
    ("serve.breaker_opens", "count"),
    ("trace.overhead_ratio", "fraction"),
    ("trace.traced_passes", "count"),
];

/// Metric values by name; a metric never set reads 0.
#[derive(Debug, Default)]
struct Values(HashMap<&'static str, f64>);

impl Values {
    fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }

    fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// The metrics of `table`, in its order.
    fn emit(&self, table: &[(&'static str, &'static str)]) -> Vec<Metric> {
        table.iter().map(|&(name, unit)| Metric { name, value: self.get(name), unit }).collect()
    }
}

/// The median of `values` (0 when empty).
#[must_use]
fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile `p` of `sorted` (0 when empty).
#[must_use]
fn percentile<T: Copy + Default>(sorted: &[T], p: f64) -> T {
    if sorted.is_empty() {
        return T::default();
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Ratio `a / b`, 0 when `b` is 0.
fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// The process's peak resident set (`VmHWM`), in MiB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Timed passes of one kind (traced or untraced). Every pass runs the
/// same ops in the same order, timed in segments of calibrated time
/// (one per op; see [`clock`]).
#[derive(Default)]
struct Group {
    /// Ops per pass.
    ops: u64,
    /// Each pass's calibrated segment times, in ns.
    segments: Vec<Vec<u64>>,
}

impl Group {
    /// Ops per second of the group's passes.
    fn rate(&self) -> f64 {
        ratio(self.ops as f64, segment_median_ns(&self.segments) * 1e-9)
    }
}

/// The sum over segments of each segment's median time across `runs`
/// (each run a list of segment times, in ns, in the same order), so a
/// burst of host noise that slows a segment in fewer than half of the
/// runs does not count.
fn segment_median_ns(runs: &[Vec<u64>]) -> f64 {
    let longest = runs.iter().map(Vec::len).max().unwrap_or(0);
    (0..longest)
        .map(|i| {
            median(&runs.iter().filter_map(|r| r.get(i)).map(|&t| t as f64).collect::<Vec<_>>())
        })
        .sum()
}

/// What the measured passes of a run found.
#[derive(Default)]
struct Passes {
    untraced: Group,
    traced: Group,
    /// Host time of each traced pass, in s, and its layer totals.
    traced_layers: Vec<(f64, LayerTimes)>,
    /// Duration of every traced timing span, in ms.
    sim_ms: Vec<f64>,
    attempted: u64,
    failed: u64,
}

impl Passes {
    /// Records a pass: its ops, failures, calibrated segment times, host
    /// time in ns, and spans when traced.
    fn record(
        &mut self,
        ops: u64,
        failed: u64,
        segments: Vec<u64>,
        host_ns: u64,
        spans: Option<Vec<Span>>,
    ) {
        self.attempted += ops;
        self.failed += failed;
        let group = if let Some(spans) = spans {
            self.traced_layers.push((host_ns as f64 * 1e-9, LayerTimes::of(&spans)));
            self.sim_ms.extend(
                spans
                    .iter()
                    .filter(|s| s.layer == Layer::Timing)
                    .map(|s| s.duration_ns() as f64 * 1e-6),
            );
            &mut self.traced
        } else {
            &mut self.untraced
        };
        group.ops = ops;
        group.segments.push(segments);
    }

    /// Median over traced passes of `f(host seconds, layers)`.
    fn traced_median(&self, f: impl Fn(f64, &LayerTimes) -> f64) -> f64 {
        median(&self.traced_layers.iter().map(|(w, t)| f(*w, t)).collect::<Vec<_>>())
    }

    /// Whether another pass is due: until `seconds` have passed and
    /// each kind of pass the run reports has run its minimum times.
    fn more(&self, opts: &Options, started: Instant) -> bool {
        started.elapsed().as_secs_f64() < opts.seconds
            || self.untraced.segments.len() < opts.min_passes()
            || (opts.trace && self.traced.segments.len() < opts.min_passes())
    }
}

/// The recorder for pass `i`: traced runs trace every second pass.
fn pass_spans(opts: &Options, i: usize) -> Spans {
    if opts.trace && i % 2 == 1 {
        Spans::on()
    } else {
        Spans::off()
    }
}

/// Runs the benchmark.
#[must_use]
pub fn run(opts: &Options) -> Report {
    let w = opts.workload;
    let mut errors = Vec::new();
    let mut values = Values::default();

    // The kept set-up; the others run between the passes and after.
    let mut setups = Setups::new(w, opts.seed);
    let (prep, software) = match setups.time() {
        Ok(s) => s,
        Err(e) => return failed_setup(opts, e),
    };

    let mut between = Between { opts, started: Instant::now(), setups: &mut setups };
    let passes = match w {
        Workload::Dse | Workload::Bwsweep => {
            let configs =
                if w == Workload::Dse { sweep::dse_configs() } else { sweep::bwsweep_configs() };
            run_sweep(&mut between, &prep, &configs, &mut values, &mut errors)
        }
        Workload::Soak => run_soak(&mut between, &prep, &software, &mut values, &mut errors),
    };
    if w != Workload::Soak {
        // `set_up` checked the soak's rows; the sweeps check them here.
        prepare::run_software(&prep, &Spans::off(), &mut errors);
    }
    setups.catch_up(1.0, &mut errors);
    values.set("setup_s", segment_median_ns(&setups.segments) * 1e-9);
    for (name, layer) in [
        ("tpch.generate_s", Layer::Generate),
        ("tpch.graph_build_s", Layer::GraphBuild),
        ("functional.execute_s", Layer::Execute),
        ("dbms.run_s", Layer::Dbms),
        ("serve.device_build_s", Layer::DeviceBuild),
    ] {
        values
            .set(name, median(&setups.layers.iter().map(|t| t.busy_s(layer)).collect::<Vec<_>>()));
    }

    let (lo, hi) = w.sim_cycles_band();
    let sim_cycles = values.get("sim_cycles");
    if !(lo..=hi).contains(&sim_cycles) {
        errors.push(format!("sim_cycles {sim_cycles} outside the pinned band [{lo}, {hi}]"));
    }
    values.set("ops_per_s", passes.untraced.rate());

    // Per-layer times from the traced passes.
    for (name, layer) in [
        ("sched.busy_s", Layer::Sched),
        ("plan.busy_s", Layer::Plan),
        ("timing.busy_s", Layer::Timing),
    ] {
        values.set(name, passes.traced_median(|_, t| t.busy_s(layer)));
    }
    // The harness's calibration loop runs inside the serve span.
    values.set(
        "serve.busy_s",
        passes.traced_median(|_, t| t.busy_s(Layer::Serve) - t.busy_s(Layer::Clock)),
    );
    values.set("serve.self_s", passes.traced_median(|_, t| t.self_s(Layer::Serve)));
    values
        .set("timing.share", passes.traced_median(|wall, t| ratio(t.busy_s(Layer::Timing), wall)));
    let mut sim_ms = passes.sim_ms.clone();
    sim_ms.sort_by(f64::total_cmp);
    values.set("timing.sim_p50_ms", percentile(&sim_ms, 50.0));
    values.set("timing.sim_p99_ms", percentile(&sim_ms, 99.0));
    values.set("timing.sim_samples", sim_ms.len() as f64);
    values.set("trace.overhead_ratio", ratio(passes.traced.rate(), passes.untraced.rate()));
    values.set("trace.traced_passes", passes.traced.segments.len() as f64);

    let passes_run = passes.untraced.segments.len() + passes.traced.segments.len();
    let echo = format!(
        "perfbench: workload={} seed={} db_seed={:#x} sf={} requests={} jobs=1 nproc={} \
         seconds={} passes={passes_run} trace={}",
        w.name(),
        opts.seed,
        db_seed(opts.seed),
        w.scale(),
        if w == Workload::Soak { soak::REQUESTS } else { 0 },
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        opts.seconds,
        u8::from(opts.trace),
    );
    let table: &[(&str, &str)] = if opts.trace { &PER_LAYER } else { &END_TO_END };
    Report {
        attempted: passes.attempted.max(1),
        failed: passes.failed + errors.len() as u64,
        errors,
        metrics: values.emit(table),
        echo,
    }
}

/// The run's timed set-ups. Each top-level span of a set-up is one
/// segment of `setup_s`, in calibrated time (see [`clock`]); the output
/// checks between them are not timed.
struct Setups {
    workload: Workload,
    seed: u64,
    spans: Spans,
    /// Each set-up's calibrated segment times, in ns.
    segments: Vec<Vec<u64>>,
    /// Each set-up's layer totals.
    layers: Vec<LayerTimes>,
}

impl Setups {
    fn new(workload: Workload, seed: u64) -> Self {
        let spans = Spans::calibrated();
        Setups { workload, seed, spans, segments: Vec::new(), layers: Vec::new() }
    }

    /// One timed set-up.
    fn time(&mut self) -> Result<(Prepared, Vec<q100_dbms::SoftwareCost>), String> {
        let setup = set_up(self.workload, self.seed, &self.spans);
        self.segments.push(self.spans.take_laps());
        self.layers.push(LayerTimes::of(&self.spans.take()));
        setup
    }

    /// Runs set-ups until `share` of the [`SETUP_REPEATS`] after the
    /// first have run, so the set-ups spread over the run's passes and a
    /// slow spell of the host slows few of them.
    fn catch_up(&mut self, share: f64, errors: &mut Vec<String>) {
        let due = 1 + (share.clamp(0.0, 1.0) * (SETUP_REPEATS - 1) as f64) as usize;
        while self.segments.len() < due {
            if let Err(e) = self.time() {
                errors.push(e);
            }
        }
    }
}

/// What runs between two passes.
struct Between<'a> {
    opts: &'a Options,
    /// When the passes started.
    started: Instant,
    setups: &'a mut Setups,
}

impl Between<'_> {
    /// Called after pass `i`. After the first pass it reads the peak
    /// resident set: every pass does the same work on cold caches, and
    /// the set-ups that follow are not the workload's memory. Then it
    /// runs the set-ups due by now.
    fn after_pass(&mut self, i: usize, values: &mut Values, errors: &mut Vec<String>) {
        if i == 0 {
            match peak_rss_mb() {
                Some(mb) => values.set("peak_rss_mb", mb),
                None => errors.push("cannot read VmHWM from /proc/self/status".to_string()),
            }
        }
        let share = if self.opts.seconds > 0.0 {
            self.started.elapsed().as_secs_f64() / self.opts.seconds
        } else {
            1.0
        };
        self.setups.catch_up(share, errors);
    }
}

/// One set-up: the database, the prepared queries and, for
/// `soak`, the software baselines and a Pareto device (dropped: every
/// pass builds its own).
fn set_up(
    w: Workload,
    seed: u64,
    spans: &Spans,
) -> Result<(Prepared, Vec<q100_dbms::SoftwareCost>), String> {
    let prep = prepare::prepare(w.scale(), db_seed(seed), spans)?;
    if w != Workload::Soak {
        return Ok((prep, Vec::new()));
    }
    let mut errors = Vec::new();
    let software = prepare::run_software(&prep, spans, &mut errors);
    if let Some(e) = errors.into_iter().next() {
        return Err(e);
    }
    spans
        .time(Layer::DeviceBuild, || soak::build_device(&prep, &software))
        .map_err(|e| format!("Pareto device build failed: {e}"))?;
    Ok((prep, software))
}

/// The report of a run whose set-up failed.
fn failed_setup(opts: &Options, error: String) -> Report {
    Report {
        attempted: 1,
        failed: 1,
        errors: vec![error],
        metrics: Vec::new(),
        echo: format!(
            "perfbench: workload={} seed={} set-up failed",
            opts.workload.name(),
            opts.seed
        ),
    }
}

/// Measures sweep passes, checks them, and sets the sweep's metrics.
fn run_sweep(
    between: &mut Between<'_>,
    prep: &Prepared,
    configs: &[q100_core::SimConfig],
    values: &mut Values,
    errors: &mut Vec<String>,
) -> Passes {
    let mut passes = Passes::default();
    let mut first: Option<sweep::SweepPass> = None;
    let opts = between.opts;
    let mut i = 0;
    while passes.more(opts, between.started) {
        let spans = pass_spans(opts, i);
        let mut pass = sweep::run_pass(prep, configs, &spans);
        let c = pass.counters;
        let traced = spans.enabled().then(|| spans.take());
        passes.record(c.ops, c.failed, std::mem::take(&mut pass.op_ns), pass.host_ns, traced);
        match &first {
            None => first = Some(pass),
            Some(f) if f.counters != c || f.cycles != pass.cycles => {
                errors.push(format!("pass {i} counters differ from pass 0: {c:?}"));
            }
            Some(_) => {}
        }
        between.after_pass(i, values, errors);
        i += 1;
    }
    let pass = first.expect("at least one pass");
    let ops = pass.cycles.len();
    let sample: Vec<usize> = (0..SPOT_CHECKS as u64)
        .map(|k| (q100_serve::mix_seed(opts.seed, &[0x57e9, k]) % ops as u64) as usize)
        .collect();
    errors.extend(sweep::jump_step_check(prep, configs, &pass, &sample));

    let c = pass.counters;
    let mut cycles: Vec<u64> = pass.cycles.iter().flatten().copied().collect();
    cycles.sort_unstable();
    values.set("sim_cycles", c.sim_cycles as f64);
    values.set("p99_latency_cycles", percentile(&cycles, 99.0) as f64);
    values.set("goodput", ratio(cycles.len() as f64, c.ops as f64));
    set_caches(values, [c.sched_hits, c.sched_misses], [c.plan_hits, c.plan_misses]);
    values.set("timing.sims", (c.ops - c.failed) as f64);
    set_quanta(values, &passes, c.jumps, c.jumped_quanta, c.stepped_quanta);
    passes
}

/// Sets the schedule- and plan-cache counters from `[hits, misses]`;
/// every miss is one schedule computed or one plan compiled.
fn set_caches(
    values: &mut Values,
    [sched_hits, sched_misses]: [u64; 2],
    [plan_hits, plan_misses]: [u64; 2],
) {
    values.set("sched.calls", sched_misses as f64);
    values.set("sched.cache_hits", sched_hits as f64);
    values.set("sched.cache_misses", sched_misses as f64);
    values.set("plan.compiles", plan_misses as f64);
    values.set("plan.cache_hits", plan_hits as f64);
    values.set("plan.cache_misses", plan_misses as f64);
    values.set("plan.hit_ratio", ratio(plan_hits as f64, (plan_hits + plan_misses) as f64));
}

/// Sets the quantum counters and the host time per simulated quantum.
fn set_quanta(values: &mut Values, passes: &Passes, jumps: u64, jumped: u64, stepped: u64) {
    let quanta = (jumped + stepped) as f64;
    values.set("timing.jumps", jumps as f64);
    values.set("timing.jumped_quanta", jumped as f64);
    values.set("timing.stepped_quanta", stepped as f64);
    values.set("timing.jump_coverage", ratio(jumped as f64, quanta));
    values.set(
        "timing.ns_per_quantum",
        passes.traced_median(|_, t| ratio(t.busy_s(Layer::Timing) * 1e9, quanta)),
    );
}

/// Measures soak passes, checks them, and sets the soak's metrics.
fn run_soak(
    between: &mut Between<'_>,
    prep: &Prepared,
    software: &[q100_dbms::SoftwareCost],
    values: &mut Values,
    errors: &mut Vec<String>,
) -> Passes {
    let mut passes = Passes::default();
    let mut first: Option<soak::SoakPass> = None;
    // The latest pass's device, kept for the quanta count; the one
    // before is freed first so peak RSS holds one device.
    let mut device: Option<q100_serve::Q100Device<'_>> = None;
    let opts = between.opts;
    let mut i = 0;
    while passes.more(opts, between.started) {
        let spans = pass_spans(opts, i);
        drop(device.take());
        // Every pass serves from a fresh device: its caches start cold.
        let fresh = match soak::build_device(prep, software) {
            Ok(d) => device.insert(d),
            Err(e) => {
                errors.push(format!("Pareto device build failed: {e}"));
                break;
            }
        };
        let mut pass = soak::run_pass(fresh, opts.seed, soak::REQUESTS, &spans);
        let failed = if pass.report.is_ok() { 0 } else { soak::REQUESTS as u64 };
        let traced = spans.enabled().then(|| spans.take());
        let segments = std::mem::take(&mut pass.segment_ns);
        passes.record(soak::REQUESTS as u64, failed, segments, pass.host_ns, traced);
        match &first {
            None => first = Some(pass),
            Some(f) if f.counters != pass.counters || f.report != pass.report => {
                errors.push(format!("pass {i} report or counters differ from pass 0"));
            }
            Some(_) => {}
        }
        between.after_pass(i, values, errors);
        i += 1;
    }
    let (Some(pass), Some(device)) = (first, device) else { return passes };
    let report = match pass.report {
        Ok(r) => r,
        Err(e) => {
            errors.push(e);
            return passes;
        }
    };
    let c = pass.counters;
    let interactive = report.tenants.first().map_or(0, |t| t.p99_latency_cycles);
    let makespan = report.outcomes.iter().map(|o| o.finish).max().unwrap_or(0);
    values.set("sim_cycles", makespan as f64);
    values.set("p99_latency_cycles", interactive as f64);
    values.set("goodput", ratio(report.completed as f64, report.offered as f64));
    set_caches(values, [c.sched_hits, c.sched_misses], [c.plan_hits, c.plan_misses]);
    values.set("timing.sims", c.sims as f64);
    values.set("serve.cost_attempts", report.cost_attempts as f64);
    values.set("serve.unique_classes", report.cost_unique_classes as f64);
    values.set("serve.unique_sims", c.cost_misses as f64);
    values.set(
        "serve.sims_saved_ratio",
        1.0 - ratio(c.cost_misses as f64, report.cost_attempts as f64),
    );
    values.set("resilience.cost_cache_hits", c.cost_hits as f64);
    values.set("resilience.cost_cache_misses", c.cost_misses as f64);
    values.set("serve.completed", report.completed as f64);
    values.set("serve.shed", report.shed as f64);
    values.set("serve.degraded", report.degraded as f64);
    values.set("serve.deadline_missed", report.deadline_missed as f64);
    values.set("serve.retries", report.retries as f64);
    values.set("serve.breaker_opens", report.breaker_opens as f64);
    if c.sims != c.cost_misses {
        errors
            .push(format!("{} class simulations for {} cost-cache misses", c.sims, c.cost_misses));
    }
    if opts.trace {
        match soak::count_quanta(&device, opts.seed, soak::REQUESTS, c.cost_misses) {
            Ok(q) => set_quanta(values, &passes, q.jumps, q.jumped_quanta, q.stepped_quanta),
            Err(e) => errors.push(e),
        }
    }
    passes
}
