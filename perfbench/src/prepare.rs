//! Set-up: the generated database, every TPC-H query's Q100 graph and
//! functional run, and the software-baseline runs that both check the
//! Q100 results and, on `soak`, price the software fallback.

use q100_core::{FunctionalRun, QueryGraph};
use q100_dbms::SoftwareCost;
use q100_tpch::queries::{self, TpchQuery};
use q100_tpch::TpchData;

use crate::span::{Layer, Spans};

/// One query ready to simulate.
pub struct PreparedQuery {
    /// The query's registry entry.
    pub query: TpchQuery,
    /// Its Q100 graph, built against the database.
    pub graph: QueryGraph,
    /// Functional results and per-edge volumes.
    pub functional: FunctionalRun,
}

/// The database plus every query prepared against it, in paper order.
pub struct Prepared {
    /// The generated database.
    pub db: TpchData,
    /// The 19 queries.
    pub queries: Vec<PreparedQuery>,
}

/// Generates the database and prepares all 19 queries.
///
/// # Errors
///
/// Returns a description of the first query whose graph fails to build
/// or execute.
pub fn prepare(scale: f64, db_seed: u64, spans: &Spans) -> Result<Prepared, String> {
    let db = spans.time(Layer::Generate, || TpchData::generate_seeded(scale, db_seed));
    let mut prepared = Vec::with_capacity(queries::QUERY_NAMES.len());
    for query in queries::all() {
        let graph = spans
            .time(Layer::GraphBuild, || (query.q100)(&db))
            .map_err(|e| format!("{}: graph build failed: {e}", query.name))?;
        let functional = spans
            .time(Layer::Execute, || q100_core::execute_lean(&graph, &db))
            .map_err(|e| format!("{}: functional execution failed: {e}", query.name))?;
        prepared.push(PreparedQuery { query, graph, functional });
    }
    Ok(Prepared { db, queries: prepared })
}

/// Runs every query's software plan through `q100_dbms::run`, checks
/// that the Q100 functional result has the same canonical rows, and
/// returns each query's software cost. The returned list has one entry
/// per query; `errors` gets one line per mismatch or failure.
pub fn run_software(prep: &Prepared, spans: &Spans, errors: &mut Vec<String>) -> Vec<SoftwareCost> {
    prep.queries
        .iter()
        .map(|p| {
            let name = p.query.name;
            let software =
                spans.time(Layer::Dbms, || q100_dbms::run(&(p.query.software)(), &prep.db));
            let (expected, stats) = match software {
                Ok(run) => run,
                Err(e) => {
                    errors.push(format!("{name}: software run failed: {e}"));
                    return SoftwareCost { runtime_ms: 0.0, energy_mj: 0.0 };
                }
            };
            match p.functional.result_table(&p.graph) {
                Ok(actual) => {
                    if queries::canonical_rows(&actual) != queries::canonical_rows(&expected) {
                        errors.push(format!("{name}: Q100 result differs from the software rows"));
                    }
                }
                Err(e) => errors.push(format!("{name}: Q100 result shape: {e}")),
            }
            SoftwareCost::of(&stats)
        })
        .collect()
}
