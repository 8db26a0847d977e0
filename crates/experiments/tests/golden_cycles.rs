//! Golden-cycle regression pins: exact simulated cycle counts for q1,
//! q6 and q14 at SF 0.01 under the three paper designs, under those
//! designs with 5 and 10 GB/s NoC links, derated by injected faults, and
//! as total request latency of the serve chaos-soak cell. Any
//! timing-model change — intended or not — shows up here as an exact
//! diff, and the quantum-jump fast path is checked bit-for-bit against
//! pure stepping on the same compiled plans.

use q100_core::{Bandwidth, SimScratch, Simulator};
use q100_experiments::{paper_designs, serve, Workload};

/// The pinned scale factor.
const SCALE: f64 = 0.01;

/// Exact cycle counts per query under (LowPower, Pareto, HighPerf).
/// Regenerate by running this test and copying the printed actuals —
/// but only after convincing yourself the timing model *should* have
/// changed.
const GOLDEN: [(&str, [u64; 3]); 3] = [
    ("q1", [735_584, 401_624, 401_624]),
    ("q6", [244_126, 61_988, 61_988]),
    ("q14", [90_994, 70_978, 70_160]),
];

#[test]
fn paper_design_cycles_are_pinned() {
    let names: Vec<&str> = GOLDEN.iter().map(|(q, _)| *q).collect();
    let w = Workload::prepare_subset(SCALE, &names);
    let mut actual = Vec::new();
    for (prepared, (name, _)) in w.queries.iter().zip(&GOLDEN) {
        let mut cycles = [0u64; 3];
        for (i, (_, config)) in paper_designs().iter().enumerate() {
            cycles[i] = w.simulate(prepared, config).cycles;
        }
        actual.push((*name, cycles));
    }
    assert_eq!(actual, GOLDEN.to_vec(), "golden cycle counts diverged; actuals: {actual:?}");
}

/// NoC-capped golden pins: exact cycles per query under (q1, q6, q14)
/// for each paper design with every NoC link capped at 5 and then
/// 10 GB/s and memory bandwidth left ideal — the two tightest limits of
/// the Figure 13 sweep. Regenerate like `GOLDEN`.
const GOLDEN_NOC: [(&str, f64, [u64; 3]); 6] = [
    ("LowPower", 5.0, [573_152, 244_126, 86_258]),
    ("LowPower", 10.0, [495_072, 244_126, 85_874]),
    ("Pareto", 5.0, [336_920, 61_988, 68_802]),
    ("Pareto", 10.0, [258_840, 61_988, 68_418]),
    ("HighPerf", 5.0, [336_920, 61_988, 67_984]),
    ("HighPerf", 10.0, [258_840, 61_988, 67_600]),
];

#[test]
fn noc_capped_cycles_are_pinned() {
    let names: Vec<&str> = GOLDEN.iter().map(|(q, _)| *q).collect();
    let w = Workload::prepare_subset(SCALE, &names);
    let mut actual = Vec::new();
    for (design, config) in paper_designs() {
        for noc_gbps in [5.0, 10.0] {
            let capped = config
                .clone()
                .with_bandwidth(Bandwidth { noc_gbps: Some(noc_gbps), ..Bandwidth::ideal() });
            let cycles: Vec<u64> =
                w.queries.iter().map(|p| w.simulate(p, &capped).cycles).collect();
            actual.push((design, noc_gbps, [cycles[0], cycles[1], cycles[2]]));
        }
    }
    assert_eq!(
        actual,
        GOLDEN_NOC.to_vec(),
        "NoC-capped golden cycles diverged; actuals: {actual:?}"
    );
}

/// Serve golden pin: total request latency, Σ(finish − arrival) in
/// cycles, of the chaos-soak cell (Pareto, heavy load, 20% faults) for
/// 120 requests at seed 42 over the pinned queries. The cell runs the
/// admission, deadline, retry and breaker policies over derated
/// resilient timing, so a change in any of them shows here. Regenerate
/// like `GOLDEN`.
const GOLDEN_SOAK_LATENCY: u64 = 1_425_631_590;

#[test]
fn serve_soak_latency_is_pinned() {
    let names: Vec<&str> = GOLDEN.iter().map(|(q, _)| *q).collect();
    let w = Workload::prepare_subset(SCALE, &names);
    let study = serve::soak(&w, 42, 120);
    let latency: u64 = study.cells[0].report.outcomes.iter().map(|o| o.finish - o.arrival).sum();
    assert_eq!(latency, GOLDEN_SOAK_LATENCY, "serve soak latency diverged");
}

/// Golden blame pins: the dominant stall cause — and its blamed cycle
/// total, rounded — per pinned query × (LowPower, Pareto, HighPerf).
/// Every ledger is also rebalanced against the invariant and against
/// the unblamed cycle count, so an attribution-rule change (intended or
/// not) shows up as an exact diff here. Regenerate like `GOLDEN`.
const GOLDEN_BLAME: [(&str, [(&str, u64); 3]); 3] = [
    ("q1", [("tile_wait", 58_484_390), ("tile_wait", 27_221_844), ("tile_wait", 27_162_402)]),
    ("q6", [("tile_wait", 3_138_532), ("tile_wait", 602_740), ("tile_wait", 543_042)]),
    ("q14", [("tile_wait", 5_558_876), ("tile_wait", 4_604_512), ("tile_wait", 4_569_972)]),
];

#[test]
fn paper_design_blame_is_pinned() {
    let names: Vec<&str> = GOLDEN_BLAME.iter().map(|(q, _)| *q).collect();
    let w = Workload::prepare_subset(SCALE, &names);
    let mut actual = Vec::new();
    for (prepared, (name, _)) in w.queries.iter().zip(&GOLDEN_BLAME) {
        let mut rows = Vec::new();
        for (_, config) in paper_designs() {
            let (outcome, report) = w.simulate_blamed(prepared, &config);
            assert_eq!(
                outcome.cycles,
                w.simulate(prepared, &config).cycles,
                "{name}: blame recording must not perturb timing"
            );
            report.check_invariant().unwrap_or_else(|e| panic!("{name}: {e}"));
            let (cause, cycles) = report.top_causes()[0];
            rows.push((cause.name(), cycles.round() as u64));
        }
        actual.push((*name, [rows[0], rows[1], rows[2]]));
    }
    assert_eq!(actual, GOLDEN_BLAME.to_vec(), "golden blame pins diverged; actuals: {actual:?}");
}

/// Derated golden pins: exact cycle counts for the pinned queries on
/// the Pareto design under a 10%-rate fault scenario (seeded per
/// query), running through the full resilience path — killed tiles
/// reschedule, surviving tiles and links derate, and the event-horizon
/// solver folds the derated quanta. Regenerate like `GOLDEN`.
const GOLDEN_DERATED: [(&str, u64); 3] = [("q1", 582_302), ("q6", 61_988), ("q14", 77_826)];

#[test]
fn derated_pareto_cycles_are_pinned() {
    let names: Vec<&str> = GOLDEN_DERATED.iter().map(|(q, _)| *q).collect();
    let w = Workload::prepare_subset(SCALE, &names);
    let (_, pareto) = &paper_designs()[1];
    let mut actual = Vec::new();
    for (qi, (prepared, (name, _))) in w.queries.iter().zip(&GOLDEN_DERATED).enumerate() {
        let scenario = q100_core::FaultScenario::generate(0x9E37 + qi as u64, 0.10, &pareto.mix);
        let out = w
            .simulate_resilient(prepared, pareto, &scenario)
            .unwrap_or_else(|e| panic!("{name}: derated run unschedulable: {e}"));
        actual.push((*name, out.outcome.cycles));
    }
    assert_eq!(
        actual,
        GOLDEN_DERATED.to_vec(),
        "derated golden cycle counts diverged; actuals: {actual:?}"
    );
    let jump = w.jump_stats();
    assert!(jump.jumped_quanta > 0, "no derated run engaged the quantum-jump fast path");
}

/// On the real TPC-H workload, a jumped simulation must be
/// bit-identical to pure stepping of the same compiled plan, and the
/// fast path must actually engage somewhere in this workload. The
/// analytic event-horizon solver jumps under provisioned bandwidth
/// caps too, but the longest certified segments come from the paper
/// designs' mixes under ideal bandwidth — the fig6 design-space
/// configuration — so this check uses those on the two queries whose
/// long steady-state stages dominate fig6 engagement (q20 and q21).
#[test]
fn quantum_jump_is_bit_identical_on_tpch() {
    let w = Workload::prepare_subset(SCALE, &["q20", "q21"]);
    let mut jumped_quanta = 0u64;
    for prepared in &w.queries {
        for (design, capped) in paper_designs() {
            let config = q100_core::SimConfig::new(capped.mix);
            let sim = Simulator::new(&config);
            let plan = sim.plan(&prepared.graph, &prepared.functional.profile).unwrap();
            let mut scratch = SimScratch::new();
            let timed = |scratch: &mut SimScratch| {
                sim.run_planned(&plan, &prepared.functional, &prepared.graph, scratch)
                    .unwrap()
                    .timing
            };
            let jumped = timed(&mut scratch);
            jumped_quanta += scratch.jumped_quanta;
            scratch.jump_enabled = false;
            let stepped = timed(&mut scratch);
            assert_eq!(jumped, stepped, "{design}/{}", prepared.query.name);
        }
    }
    assert!(jumped_quanta > 0, "no (query, design) engaged the quantum-jump fast path");
}
