//! # `q100-experiments`: the Q100 evaluation, experiment by experiment
//!
//! One module per group of tables/figures from the paper:
//!
//! * [`sensitivity`] — tile-count sensitivity (Figures 3–5) and the
//!   tiny-tile pruning table (Table 2),
//! * [`dse`] — the 150-configuration design-space exploration and
//!   LowPower/Pareto/HighPerf selection (Figure 6),
//! * [`comm`] — connection and bandwidth studies (Figures 7–18),
//! * [`sched_study`] — the scheduler comparison (Figures 19–22),
//! * [`software_cmp`] — Q100 vs. MonetDB-model comparison and the 100×
//!   scaling study (Figures 23–26),
//! * [`ablation`] — design-choice ablations: stream-buffer
//!   provisioning and the paper's suggested point-to-point links,
//! * [`runner`] — shared workload preparation (functional runs are
//!   executed once and reused across all configuration sweeps),
//! * [`pool`] — the parallel sweep executor (`--jobs N` / `Q100_JOBS`)
//!   with deterministic, job-count-independent result ordering,
//! * [`serve`] — the `serve` subcommand: multi-tenant query streams
//!   through each design behind the `q100-serve` robustness policies
//!   (admission control, deadlines, retries, circuit breaking,
//!   software fallback), swept over load level × fault rate,
//! * [`analyze`] — the `analyze` subcommand: stall-blame bottleneck
//!   attribution per query × design (`q100-blame-v1` JSON plus a
//!   top-bottlenecks table).
//!
//! Tables 1, 3, 4 are rendered from their constant models in
//! `q100-core`/`q100-dbms`. The `q100-experiments` binary exposes every
//! experiment behind a flag (see `--help`).

pub mod ablation;
pub mod analyze;
pub mod comm;
pub mod dse;
pub mod pool;
pub mod resilience;
pub mod runner;
pub mod sched_study;
pub mod sensitivity;
pub mod serve;
pub mod software_cmp;

pub use runner::{paper_designs, JumpStats, Workload, DEFAULT_SCALE};
