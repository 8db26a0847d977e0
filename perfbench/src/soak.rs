//! The `soak` workload: the chaos-soak cell of `q100-experiments serve
//! --soak` — the Pareto design under heavy load (0.6× the mean service
//! gap) at a 20% fault rate, three tenants, an open loop in simulated
//! time.

use std::collections::HashSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;

use q100_core::{CostKey, FaultScenario, ServiceCost, SimConfig, SimScratch, Simulator};
use q100_dbms::SoftwareCost;
use q100_experiments::serve::{policy, tenants, LOADS};
use q100_serve::{
    generate_requests, mix_seed, run_service_on, Parallelism, Q100Device, ServePolicy, ServeReport,
    ServiceQuery, TenantSpec,
};

use crate::clock::Laps;
use crate::prepare::Prepared;
use crate::span::{Layer, Spans};

/// Offered requests per pass.
pub const REQUESTS: usize = 5000;
/// Injected fault rate.
pub const FAULT_RATE: f64 = 0.2;

/// Builds the Pareto serving device over the prepared queries.
///
/// # Errors
///
/// Returns the device's error when a query cannot be scheduled healthy.
pub fn build_device<'w>(
    prep: &'w Prepared,
    software: &[SoftwareCost],
) -> q100_core::Result<Q100Device<'w>> {
    let queries = prep
        .queries
        .iter()
        .zip(software)
        .map(|(p, &software)| ServiceQuery {
            name: p.query.name.to_string(),
            graph: &p.graph,
            functional: &p.functional,
            software,
        })
        .collect();
    Q100Device::new(SimConfig::pareto(), queries)
}

/// The soak's tenants, policy and stream seed for `device`, exactly as
/// `q100-experiments serve --soak --seed <seed>` derives them.
#[must_use]
pub fn traffic(device: &Q100Device<'_>, seed: u64) -> (Vec<TenantSpec>, ServePolicy, u64) {
    let mean = device.mean_baseline_cycles();
    let specs = tenants(mean, device.queries().len(), LOADS[1].1);
    (specs, policy(mean, FAULT_RATE), mix_seed(seed, &[1, 1, 0x50ac]))
}

/// The deterministic counters of one pass. Equal on every pass of a
/// run, traced or not.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SoakCounters {
    /// Class simulations `run_service_on` handed to the harness.
    pub sims: u64,
    /// Service-cost cache hits.
    pub cost_hits: u64,
    /// Service-cost cache misses (unique simulations).
    pub cost_misses: u64,
    /// Schedules computed while serving.
    pub sched_misses: u64,
    /// Schedule-cache hits while serving.
    pub sched_hits: u64,
    /// Plans compiled while serving.
    pub plan_misses: u64,
    /// Plan-cache hits while serving.
    pub plan_hits: u64,
}

/// One measured pass: a fresh device serving the whole stream.
pub struct SoakPass {
    /// Calibrated time of `run_service_on` in segments, in ns (see
    /// [`crate::clock`]): the serve engine's own work up to each round
    /// of class simulations, each simulation of the round, and so on to
    /// the end.
    pub segment_ns: Vec<u64>,
    /// Host time of `run_service_on`, in ns.
    pub host_ns: u64,
    /// The report, or why serving failed.
    pub report: Result<ServeReport, String>,
    /// The pass's counters.
    pub counters: SoakCounters,
}

/// Runs each class simulation `run_service_on` fans out, in order, on
/// the calling thread, and ends a segment before and after each one.
struct TimedSerial<'a> {
    spans: &'a Spans,
    laps: Mutex<Laps>,
    /// Simulations run.
    sims: Mutex<u64>,
}

impl TimedSerial<'_> {
    /// Ends a segment. The calibration loop runs inside the serve span,
    /// so it gets a span of its own, which the serve layer's times leave
    /// out.
    fn lap(&self) {
        self.spans.time(Layer::Clock, || self.laps.lock().expect("segment timer poisoned").lap());
    }
}

impl Parallelism for TimedSerial<'_> {
    fn run(&self, n: usize, f: &(dyn Fn(usize) -> u64 + Sync)) -> Vec<u64> {
        *self.sims.lock().expect("sim counter poisoned") += n as u64;
        let cycles = (0..n)
            .map(|i| {
                self.lap();
                self.spans.time(Layer::Timing, || f(i))
            })
            .collect();
        self.lap();
        cycles
    }
}

/// Serves `requests` requests of the soak stream on `device`, which
/// must be fresh (its caches hold only what `Q100Device::new` put
/// there).
#[must_use]
pub fn run_pass(device: &Q100Device<'_>, seed: u64, requests: usize, spans: &Spans) -> SoakPass {
    let (specs, policy, stream_seed) = traffic(device, seed);
    let (sched0, plan0) = (device.sched_cache().stats(), device.plan_cache().stats());
    let par = TimedSerial { spans, laps: Mutex::new(Laps::start()), sims: Mutex::default() };
    let report = catch_unwind(AssertUnwindSafe(|| {
        spans.time(Layer::Serve, || {
            run_service_on(device, &specs, &policy, stream_seed, requests, None, None, &par)
        })
    }));
    par.lap();
    let (segment_ns, host_ns) = par.laps.into_inner().expect("segment timer poisoned").take();
    let sims = par.sims.into_inner().expect("sim counter poisoned");
    let (sched, plan, cost) =
        (device.sched_cache().stats(), device.plan_cache().stats(), device.cost_cache().stats());
    let counters = SoakCounters {
        sims,
        cost_hits: cost.hits,
        cost_misses: cost.misses,
        sched_misses: sched.misses - sched0.misses,
        sched_hits: sched.hits - sched0.hits,
        plan_misses: plan.misses - plan0.misses,
        plan_hits: plan.hits - plan0.hits,
    };
    let report = report.map_err(|_| "run_service_on panicked".to_string()).and_then(|r| {
        r.check_invariants().map_err(|e| format!("serve invariant violated: {e}"))?;
        Ok(r)
    });
    SoakPass { segment_ns, host_ns, report, counters }
}

/// Quantum counters of the soak's unique class simulations.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SoakQuanta {
    /// Classes re-simulated (must equal the cost-cache misses).
    pub sims: u64,
    /// Fused quantum jumps taken.
    pub jumps: u64,
    /// Quanta skipped by jumps.
    pub jumped_quanta: u64,
    /// Quanta stepped one at a time.
    pub stepped_quanta: u64,
}

/// Counts the quanta of the soak's class simulations, which
/// `run_service_on` runs on scratches it does not expose: walks the
/// stream's attempts as the serve engine resolves them (attempt `k + 1`
/// only for requests whose attempt `k` failed), and re-simulates every
/// class the cost cache had to simulate on a harness scratch. Each
/// re-simulation must reproduce the cached cost. Call it after
/// [`run_pass`] on the same device; it perturbs the device's cache
/// statistics.
///
/// # Errors
///
/// Returns a description of the first disagreement with the serve
/// engine.
pub fn count_quanta(
    device: &Q100Device<'_>,
    seed: u64,
    requests: usize,
    expected_sims: u64,
) -> Result<SoakQuanta, String> {
    let (specs, policy, stream_seed) = traffic(device, seed);
    let requests = generate_requests(stream_seed, &specs, requests);
    let config = device.config();
    let healthy: HashSet<(usize, CostKey)> = (0..device.queries().len())
        .map(|q| (q, device.probe_cost(q, &FaultScenario::default()).key))
        .collect();
    let mut simulated = HashSet::new();
    let mut scratch = SimScratch::new();
    let mut quanta = SoakQuanta::default();
    let mut scenario = FaultScenario::default();
    let mut candidates: Vec<usize> = (0..requests.len()).collect();
    for attempt in 1..=u64::from(policy.max_attempts.max(1)) {
        let mut failed = Vec::new();
        for &i in &candidates {
            let req = &requests[i];
            scenario.generate_into(mix_seed(req.seed, &[attempt]), policy.fault_rate, &config.mix);
            let probe = device.probe_cost(req.query, &scenario);
            let cost = match probe.known {
                Some(cost) => cost,
                None => {
                    let cost = device
                        .cost_cache()
                        .get(req.query as u64, &probe.key)
                        .ok_or_else(|| format!("request {i}: class missing from the cost cache"))?;
                    let qk = (req.query, probe.key);
                    if !healthy.contains(&qk) && simulated.insert(qk) {
                        let fresh = simulate_class(device, req.query, &probe.key, &mut scratch);
                        match (fresh, cost) {
                            (Ok(c), ServiceCost::Cycles(k)) if c == k => {}
                            (Err(_), ServiceCost::Failed) => {}
                            (fresh, cost) => {
                                return Err(format!(
                                "request {i}: re-simulation gave {fresh:?}, cache holds {cost:?}"
                            ))
                            }
                        }
                        quanta.sims += 1;
                        quanta.jumps += scratch.jumps;
                        quanta.jumped_quanta += scratch.jumped_quanta;
                        quanta.stepped_quanta += scratch.stepped_quanta;
                    }
                    cost
                }
            };
            if cost == ServiceCost::Failed {
                failed.push(i);
            }
        }
        candidates = failed;
    }
    if quanta.sims != expected_sims {
        return Err(format!(
            "re-simulated {} classes, the serve engine simulated {expected_sims}",
            quanta.sims
        ));
    }
    Ok(quanta)
}

/// One class simulation, as `Q100Device::class_cost` runs it, on
/// `scratch`.
fn simulate_class(
    device: &Q100Device<'_>,
    query: usize,
    key: &CostKey,
    scratch: &mut SimScratch,
) -> Result<u64, String> {
    let q = &device.queries()[query];
    let mut config = device.config().clone();
    config.mix = key.mix;
    config.derate = key.derate();
    let plan = device
        .plan_cache()
        .get_or_compile(
            query as u64,
            config.scheduler,
            q.graph,
            &key.mix,
            &q.functional.profile,
            device.sched_cache(),
        )
        .map_err(|e| format!("{}: plan for a served class failed: {e}", q.name))?;
    Simulator::new(&config)
        .run_planned(&plan, q.functional, q.graph, scratch)
        .map(|o| o.cycles)
        .map_err(|e| format!("{}: class simulation failed: {e}", q.name))
}
