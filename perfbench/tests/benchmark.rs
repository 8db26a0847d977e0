//! Tests of the benchmark itself: tracing does not change what the
//! program computes, the workloads reproduce what `q100-experiments`
//! prints for the same figures, and metric names are well formed.
//!
//! The full-size tests run one pass of each workload, about 20 s with
//! `--release`.

use q100_perfbench::prepare::{prepare, run_software, Prepared};
use q100_perfbench::span::Spans;
use q100_perfbench::{db_seed, soak, sweep, Workload, DEFAULT_SEED};

/// The workload's database at the default seed, every query prepared.
fn prepared(workload: Workload) -> Prepared {
    prepare(workload.scale(), db_seed(DEFAULT_SEED), &Spans::off()).unwrap()
}

/// One cold-cache pass of a sweep workload at the default seed.
fn sweep_pass(workload: Workload, configs: &[q100_core::SimConfig]) -> sweep::SweepPass {
    let pass = sweep::run_pass(&prepared(workload), configs, &Spans::off());
    assert_eq!(pass.counters.failed, 0);
    assert!(pass.cycles.iter().all(Option::is_some));
    assert_eq!(pass.counters.sim_cycles, workload.reference_sim_cycles());
    pass
}

#[test]
fn tracing_leaves_sweep_counters_and_cycles_unchanged() {
    let prep = prepare(0.002, db_seed(DEFAULT_SEED), &Spans::off()).unwrap();
    let mut configs = sweep::dse_configs();
    configs.truncate(12);
    configs.extend(sweep::bwsweep_configs());
    let plain = sweep::run_pass(&prep, &configs, &Spans::off());
    let spans = Spans::on();
    let traced = sweep::run_pass(&prep, &configs, &spans);
    assert_eq!(plain.counters, traced.counters);
    assert_eq!(plain.cycles, traced.cycles);
    assert_eq!(plain.counters.failed, 0);
    assert!(!spans.take().is_empty());
    let sample: Vec<usize> = (0..plain.cycles.len()).step_by(37).collect();
    assert_eq!(sweep::jump_step_check(&prep, &configs, &plain, &sample), Vec::<String>::new());
}

#[test]
fn tracing_leaves_the_serve_report_unchanged() {
    let prep = prepare(0.002, db_seed(DEFAULT_SEED), &Spans::off()).unwrap();
    let mut errors = Vec::new();
    let software = run_software(&prep, &Spans::off(), &mut errors);
    assert_eq!(errors, Vec::<String>::new());
    let serve = |spans: &Spans| {
        let device = soak::build_device(&prep, &software).unwrap();
        let pass = soak::run_pass(&device, DEFAULT_SEED, 300, spans);
        let quanta = soak::count_quanta(&device, DEFAULT_SEED, 300, pass.counters.cost_misses);
        (pass.report.unwrap(), pass.counters, quanta.unwrap())
    };
    let plain = serve(&Spans::off());
    let traced = serve(&Spans::on());
    assert_eq!(plain, traced);
    assert_eq!(plain.1.sims, plain.1.cost_misses);
    assert!(plain.2.jumped_quanta + plain.2.stepped_quanta > 0);
}

/// `q100-experiments --sf 0.01 --jobs 1 fig6`.
#[test]
fn dse_reproduces_fig6_counters() {
    let c = sweep_pass(Workload::Dse, &sweep::dse_configs()).counters;
    assert_eq!(
        (c.ops, c.plan_misses, c.plan_hits, c.sched_misses, c.sched_hits),
        (2850, 2850, 0, 2850, 0)
    );
    assert_eq!((c.jumps, c.jumped_quanta, c.stepped_quanta), (198_865, 5_300_665, 199_645));
    assert_eq!(c.sim_cycles, 354_257_840);
}

/// `q100-experiments --sf 0.02 --jobs 1 fig13 fig16 fig17`: the sums
/// of the three figures' cache and jump lines.
#[test]
fn bwsweep_reproduces_fig13_16_17_counters() {
    let c = sweep_pass(Workload::Bwsweep, &sweep::bwsweep_configs()).counters;
    assert_eq!(
        (c.ops, c.plan_misses, c.plan_hits, c.sched_misses, c.sched_hits),
        (912, 57, 247 + 304 + 304, 57, 0)
    );
    assert_eq!((c.jumps, c.jumped_quanta, c.stepped_quanta), (125_316, 3_547_151, 806_202));
}

/// `q100-experiments --sf 0.005 --jobs 1 serve --soak --requests 5000
/// --seed 42 --out soak.json`: the cell, `unique_sims` and the cost
/// cache. (The CLI's plan and schedule cache lines also count the two
/// other designs' devices, which the soak never serves from.)
#[test]
fn soak_reproduces_the_serve_soak_json() {
    let prep = prepared(Workload::Soak);
    let mut errors = Vec::new();
    let software = run_software(&prep, &Spans::off(), &mut errors);
    assert_eq!(errors, Vec::<String>::new());
    let device = soak::build_device(&prep, &software).unwrap();
    let pass = soak::run_pass(&device, DEFAULT_SEED, soak::REQUESTS, &Spans::off());
    let (c, r) = (pass.counters, pass.report.unwrap());
    assert_eq!(
        (r.completed, r.shed, r.degraded, r.deadline_missed, r.retries, r.breaker_opens),
        (2752, 586, 1, 1661, 151, 0)
    );
    assert_eq!((r.cost_attempts, r.cost_unique_classes), (5226, 4921));
    assert_eq!((c.sims, c.cost_hits, c.cost_misses), (4724, 19, 4724));
    assert_eq!(
        (r.offered, r.admitted, r.shed, r.shed_queue_full, r.shed_breaker),
        (5000, 4414, 586, 586, 0)
    );
    assert_eq!(r.fallback.runs, 2248);
    let tenants: Vec<_> = r
        .tenants
        .iter()
        .map(|t| {
            (t.name.as_str(), t.offered, t.completed, t.p50_latency_cycles, t.p99_latency_cycles)
        })
        .collect();
    assert_eq!(
        tenants,
        [
            ("interactive", 2500, 552, 2_580_877, 12_331_052),
            ("analytics", 1250, 1102, 307_002, 3_587_316),
            ("batch", 1250, 1098, 302_499, 3_032_995),
        ]
    );
}

#[test]
fn metric_names_are_well_formed_and_match_benchmark_json() {
    let manifest =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json")).unwrap();
    let tables = [&q100_perfbench::END_TO_END[..], &q100_perfbench::PER_LAYER[..]];
    let names: Vec<&str> = tables.iter().flat_map(|t| t.iter().map(|m| m.0)).collect();
    for (name, unit) in tables.iter().flat_map(|t| t.iter()) {
        assert!(
            name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
            "bad metric name {name}"
        );
        assert!(name.len() <= 64 && name.starts_with(|c: char| c.is_ascii_alphanumeric()));
        assert!(unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        assert!(
            manifest.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
            "{name} ({unit}) missing from BENCHMARK.json"
        );
    }
    let mut unique = names.clone();
    unique.sort_unstable();
    unique.dedup();
    assert_eq!(unique.len(), names.len(), "metric names must be unique");
    let declared = manifest.matches("\"name\": ").count();
    assert_eq!(
        declared,
        names.len() + Workload::ALL.len(),
        "BENCHMARK.json declares other metrics"
    );
    for w in Workload::ALL {
        assert!(manifest.contains(&format!("\"name\": \"{}\"", w.name())));
    }
}
