//! Shared building blocks for the Q100 query plans.
//!
//! These encode the idioms the paper describes: `LIKE` rewritten as
//! chains of `WHERE EQ` clauses, `GROUP BY` realized as
//! partition→(sort)→aggregate→append trees, composite keys built with
//! the concatenator, and single-row "broadcast" joins for correlated
//! scalar subqueries.

use q100_columnar::{Column, Value};
use q100_core::{AggOp, AluOp, CmpOp, GraphBuilder, PortRef, SORTER_BATCH};

/// Strings from `pool` that match a simple `LIKE` pattern with at most
/// one leading and one trailing `%`. This is the paper's rewrite:
/// "because the Q100 does not currently support regular expression
/// matching ... the query is converted to use as many WHERE EQ clauses
/// as required".
#[must_use]
pub fn like_matches(pool: &[String], pattern: &str) -> Vec<String> {
    let contains = pattern.starts_with('%') && pattern.ends_with('%') && pattern.len() >= 2;
    let suffix = pattern.starts_with('%') && !contains;
    let prefix = pattern.ends_with('%') && !contains;
    let needle = pattern.trim_matches('%');
    pool.iter()
        .filter(|s| {
            if contains {
                s.contains(needle)
            } else if prefix {
                s.starts_with(needle)
            } else if suffix {
                s.ends_with(needle)
            } else {
                s.as_str() == needle
            }
        })
        .cloned()
        .collect()
}

/// `col = v1 OR col = v2 OR ...` as a BoolGen per value plus an OR
/// chain of ALUs.
///
/// # Panics
///
/// Panics if `values` is empty (a `LIKE` that matches nothing would make
/// the whole predicate constant-false; expand it at plan level instead).
pub fn or_eq_any(b: &mut GraphBuilder, col: PortRef, values: &[String]) -> PortRef {
    let values: Vec<Value> = values.iter().map(|v| Value::Str(v.clone())).collect();
    or_eq_any_values(b, col, &values)
}

/// [`or_eq_any`] for arbitrary constants (e.g. `p_size IN (49, 14, ...)`).
///
/// # Panics
///
/// Panics if `values` is empty.
pub fn or_eq_any_values(b: &mut GraphBuilder, col: PortRef, values: &[Value]) -> PortRef {
    assert!(!values.is_empty(), "or_eq_any requires at least one value");
    let mut acc: Option<PortRef> = None;
    for v in values {
        let eq = b.bool_gen_const(col, CmpOp::Eq, v.clone());
        acc = Some(match acc {
            None => eq,
            Some(prev) => b.alu(prev, AluOp::Or, eq),
        });
    }
    acc.expect("non-empty values")
}

/// Range-partition bounds that isolate every distinct value of `col` in
/// its own partition (for small group domains: each partition's group
/// column is constant, so the aggregator needs no sort).
#[must_use]
pub fn distinct_bounds(col: &Column) -> Vec<i64> {
    let mut vals: Vec<i64> = col.data().to_vec();
    vals.sort_unstable();
    vals.dedup();
    // Bounds between consecutive distinct values: partition i holds
    // exactly distinct value i.
    vals.into_iter().skip(1).collect()
}

/// Equi-depth range bounds over `values` such that no partition holds
/// more than `max_per_part` rows (up to duplicate keys, which cannot be
/// split). Used ahead of sorters, whose batch is 1024 records.
#[must_use]
pub fn quantile_bounds(values: &[i64], max_per_part: usize) -> Vec<i64> {
    if values.len() <= max_per_part {
        return Vec::new();
    }
    let mut sorted = values.to_vec();
    sorted.sort_unstable();
    let mut bounds = Vec::new();
    let mut i = max_per_part;
    while i < sorted.len() {
        let mut bound = sorted[i];
        // Nudge the bound past duplicates so ranges stay well-formed.
        if Some(&bound) == bounds.last() {
            i += 1;
            continue;
        }
        if bound == sorted[i - 1] {
            bound += 1;
        }
        bounds.push(bound);
        i += max_per_part;
    }
    bounds.dedup();
    bounds
}

/// Sorter-friendly quantile bounds. The bounds are planner *estimates*
/// (built from samples or pre-filter statistics), so they target half
/// the sorter's 1024-record batch — the safety margin a real optimizer
/// applies so that estimate error cannot overflow a hardware buffer.
#[must_use]
pub fn sorter_bounds(values: &[i64]) -> Vec<i64> {
    quantile_bounds(values, SORTER_BATCH / 2)
}

/// Range bounds over a key domain sized for an estimated *row* count:
/// splits the (deduplicated) domain into enough equal-key-count ranges
/// that `estimated_rows` uniformly-distributed rows stay within the
/// sorter's margin-adjusted batch. Used when rows carry many duplicates
/// of few keys (e.g. counting per supplier), where row-sample quantiles
/// are not available at plan time.
#[must_use]
pub fn domain_bounds(domain: &[i64], estimated_rows: usize) -> Vec<i64> {
    let mut d = domain.to_vec();
    d.sort_unstable();
    d.dedup();
    if d.len() < 2 {
        return Vec::new();
    }
    let parts = estimated_rows.div_ceil(SORTER_BATCH / 2).max(1).min(d.len());
    (1..parts).map(|i| d[i * d.len() / parts]).collect()
}

/// One aggregation over a table: `(data column, operation)`.
pub type AggSpec<'a> = (&'a str, AggOp);

/// `GROUP BY` as the paper's Figure 1/2 pattern: partition the table on
/// the group column, aggregate each partition, and append the partial
/// results. When `presort` is set, each partition is first sorted on
/// the group column (needed when the stream is not already clustered
/// and the partitions do not isolate single values).
///
/// Returns a table `[group, agg1, agg2, ...]`.
///
/// # Panics
///
/// Panics if `specs` is empty.
pub fn partitioned_aggregate(
    b: &mut GraphBuilder,
    table: PortRef,
    group: &str,
    specs: &[AggSpec<'_>],
    bounds: &[i64],
    presort: bool,
) -> PortRef {
    assert!(!specs.is_empty(), "need at least one aggregation");
    let parts =
        if bounds.is_empty() { vec![table] } else { b.partition(table, group, bounds.to_vec()) };
    let mut partials = Vec::with_capacity(parts.len());
    for part in parts {
        let part = if presort { b.sort(part, group) } else { part };
        partials.push(aggregate_table(b, part, group, specs));
    }
    b.append_all(&partials)
}

/// Aggregates one (already grouped) table into `[group, aggs...]`.
fn aggregate_table(
    b: &mut GraphBuilder,
    table: PortRef,
    group: &str,
    specs: &[AggSpec<'_>],
) -> PortRef {
    let group_col = b.col_select(table, group);
    let mut agg_tables = Vec::with_capacity(specs.len());
    for (data, op) in specs {
        let data_col = b.col_select(table, *data);
        agg_tables.push(b.aggregate(*op, data_col, group_col));
    }
    if agg_tables.len() == 1 {
        return agg_tables[0];
    }
    // Combine [group, agg_i] tables into one [group, agg1, agg2, ...]:
    // every aggregate saw the same group runs, so rows align.
    let g = b.col_select(agg_tables[0], group);
    let mut cols = vec![g];
    for (i, (data, op)) in specs.iter().enumerate() {
        let name = format!("{}_{}", op, data).to_lowercase();
        let c = b.col_select(agg_tables[i], &name);
        cols.push(c);
    }
    b.stitch(&cols)
}

/// Direct aggregation of a stream already grouped on `group` (e.g.
/// `lineitem` clustered by `l_orderkey`). Returns `[group, aggs...]`.
pub fn grouped_aggregate(
    b: &mut GraphBuilder,
    table: PortRef,
    group: &str,
    specs: &[AggSpec<'_>],
) -> PortRef {
    aggregate_table(b, table, group, specs)
}

/// A global (no `GROUP BY`) aggregation: gives every row the constant
/// group key 0 and aggregates once. Returns `[zero, aggs...]` with one
/// row.
pub fn global_aggregate(b: &mut GraphBuilder, table: PortRef, specs: &[AggSpec<'_>]) -> PortRef {
    assert!(!specs.is_empty(), "need at least one aggregation");
    let first = b.col_select(table, specs[0].0);
    let zero = b.alu_const(first, AluOp::Mul, Value::Int(0));
    b.name_output(zero, "zero");
    let mut cols = vec![zero];
    for (data, _) in specs {
        cols.push(b.col_select(table, *data));
    }
    let with_zero = b.stitch(&cols);
    aggregate_table(b, with_zero, "zero", specs)
}

/// Broadcast-joins a single-row table (keyed by a constant-zero column
/// named `key`) onto every row of `big`: a constant-zero key column is
/// stitched into `big`, then the one-row table joins as the primary-key
/// side. The result carries all of `big`'s columns plus the scalar
/// column(s).
pub fn broadcast_join(
    b: &mut GraphBuilder,
    scalar_table: PortRef,
    key: &str,
    big: PortRef,
    big_cols: &[&str],
) -> PortRef {
    let first = b.col_select(big, big_cols[0]);
    let zero = b.alu_const(first, AluOp::Mul, Value::Int(0));
    b.name_output(zero, "bzero");
    let mut cols = vec![zero];
    for c in big_cols {
        cols.push(b.col_select(big, *c));
    }
    let big_keyed = b.stitch(&cols);
    b.join(scalar_table, key, big_keyed, "bzero")
}

/// `ext * (1 - disc)` in ×100 fixed point: `ext - ext*disc/100`.
/// The identical formula appears in the software plans, so results
/// match bit-for-bit.
pub fn revenue_expr(b: &mut GraphBuilder, ext: PortRef, disc: PortRef) -> PortRef {
    let prod = b.alu(ext, AluOp::Mul, disc);
    let scaled = b.alu_const(prod, AluOp::Div, Value::Int(100));
    b.alu(ext, AluOp::Sub, scaled)
}

#[cfg(test)]
mod tests {
    use super::*;
    use q100_columnar::{MemoryCatalog, Table};
    use q100_core::{execute, QueryGraph};

    #[test]
    fn like_matches_prefix_suffix_contains() {
        let pool: Vec<String> = ["PROMO TIN", "LARGE TIN", "PROMO BRASS", "ECONOMY BRASS"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(like_matches(&pool, "PROMO%"), vec!["PROMO TIN", "PROMO BRASS"]);
        assert_eq!(like_matches(&pool, "%BRASS"), vec!["PROMO BRASS", "ECONOMY BRASS"]);
        assert_eq!(like_matches(&pool, "%O%"), vec!["PROMO TIN", "PROMO BRASS", "ECONOMY BRASS"]);
        assert_eq!(like_matches(&pool, "LARGE TIN"), vec!["LARGE TIN"]);
    }

    #[test]
    fn distinct_bounds_isolate_values() {
        let col = Column::from_ints("g", [5, 1, 5, 3, 1]);
        assert_eq!(distinct_bounds(&col), vec![3, 5]);
    }

    #[test]
    fn quantile_bounds_cap_partition_sizes() {
        let values: Vec<i64> = (0..10_000).map(|i| i % 977).collect();
        let bounds = quantile_bounds(&values, 1024);
        assert!(!bounds.is_empty());
        // No range may hold more than ~1024 + duplicate slack.
        let mut sorted = values.clone();
        sorted.sort_unstable();
        let mut lo = i64::MIN;
        for &bound in bounds.iter().chain(std::iter::once(&i64::MAX)) {
            let count = sorted.iter().filter(|&&v| v >= lo && v < bound).count();
            assert!(count <= 1024 + 16, "partition [{lo},{bound}) holds {count}");
            lo = bound;
        }
    }

    #[test]
    fn quantile_bounds_handle_heavy_duplicates() {
        let values = vec![7i64; 5000];
        let bounds = quantile_bounds(&values, 1024);
        // A single value cannot be split; bounds must stay well-formed.
        for w in bounds.windows(2) {
            assert!(w[0] < w[1]);
        }
    }

    #[test]
    fn or_eq_any_builds_or_chain() {
        let t = Table::new(vec![Column::from_strs("m", ["AIR", "SHIP", "RAIL", "AIR"])]).unwrap();
        let cat = MemoryCatalog::new(vec![("t".into(), t)]);
        let mut b = QueryGraph::builder("x");
        let m = b.col_select_base("t", "m");
        let cond = or_eq_any(&mut b, m, &["AIR".to_string(), "RAIL".to_string()]);
        let kept = b.col_filter(m, cond);
        let g = b.finish().unwrap();
        let run = execute(&g, &cat).unwrap();
        let out = run.outputs[kept.node][0].as_col(0).unwrap().clone();
        assert_eq!(out.len(), 3);
    }

    #[test]
    fn global_aggregate_single_row() {
        let t = Table::new(vec![Column::from_ints("v", [5, 6, 7])]).unwrap();
        let cat = MemoryCatalog::new(vec![("t".into(), t)]);
        let mut b = QueryGraph::builder("x");
        let v = b.col_select_base("t", "v");
        let tab = b.stitch(&[v]);
        let agg = global_aggregate(&mut b, tab, &[("v", AggOp::Sum)]);
        let g = b.finish().unwrap();
        let run = execute(&g, &cat).unwrap();
        let out = run.outputs[agg.node][0].as_tab(0).unwrap().clone();
        assert_eq!(out.row_count(), 1);
        assert_eq!(out.column("sum_v").unwrap().data(), &[18]);
    }

    #[test]
    fn partitioned_aggregate_small_domain() {
        let t = Table::new(vec![
            Column::from_ints("g", [2, 1, 2, 3, 1]),
            Column::from_ints("v", [10, 1, 20, 100, 2]),
        ])
        .unwrap();
        let cat = MemoryCatalog::new(vec![("t".into(), t.clone())]);
        let mut b = QueryGraph::builder("x");
        let gc = b.col_select_base("t", "g");
        let vc = b.col_select_base("t", "v");
        let tab = b.stitch(&[gc, vc]);
        let bounds = distinct_bounds(t.column("g").unwrap());
        let agg = partitioned_aggregate(&mut b, tab, "g", &[("v", AggOp::Sum)], &bounds, false);
        let g = b.finish().unwrap();
        let run = execute(&g, &cat).unwrap();
        let out = run.outputs[agg.node][0].as_tab(0).unwrap().clone();
        assert_eq!(out.column("g").unwrap().data(), &[1, 2, 3]);
        assert_eq!(out.column("sum_v").unwrap().data(), &[3, 30, 100]);
    }

    #[test]
    fn partitioned_aggregate_with_sort_handles_scattered_groups() {
        // Group values scattered, domain too big for distinct bounds.
        let groups: Vec<i64> = (0..500).map(|i| (i * 37) % 23).collect();
        let vals: Vec<i64> = (0..500).collect();
        let t = Table::new(vec![
            Column::from_ints("g", groups.clone()),
            Column::from_ints("v", vals.clone()),
        ])
        .unwrap();
        let cat = MemoryCatalog::new(vec![("t".into(), t)]);
        let mut b = QueryGraph::builder("x");
        let gc = b.col_select_base("t", "g");
        let vc = b.col_select_base("t", "v");
        let tab = b.stitch(&[gc, vc]);
        let bounds = quantile_bounds(&groups, 100);
        let agg = partitioned_aggregate(&mut b, tab, "g", &[("v", AggOp::Sum)], &bounds, true);
        let g = b.finish().unwrap();
        let run = execute(&g, &cat).unwrap();
        let out = run.outputs[agg.node][0].as_tab(0).unwrap().clone();
        // Expected sums by hand.
        let mut expect = std::collections::BTreeMap::new();
        for (g, v) in groups.iter().zip(&vals) {
            *expect.entry(*g).or_insert(0i64) += v;
        }
        assert_eq!(out.row_count(), expect.len());
        for r in 0..out.row_count() {
            let g = out.column("g").unwrap().get(r);
            let s = out.column("sum_v").unwrap().get(r);
            assert_eq!(expect[&g], s, "group {g}");
        }
    }

    #[test]
    fn broadcast_join_attaches_scalar() {
        let t = Table::new(vec![Column::from_ints("v", [5, 6, 7])]).unwrap();
        let cat = MemoryCatalog::new(vec![("t".into(), t)]);
        let mut b = QueryGraph::builder("x");
        let v = b.col_select_base("t", "v");
        let tab = b.stitch(&[v]);
        let total = global_aggregate(&mut b, tab, &[("v", AggOp::Sum)]);
        let joined = broadcast_join(&mut b, total, "zero", tab, &["v"]);
        let g = b.finish().unwrap();
        let run = execute(&g, &cat).unwrap();
        let out = run.outputs[joined.node][0].as_tab(0).unwrap().clone();
        assert_eq!(out.row_count(), 3);
        assert_eq!(out.column("sum_v").unwrap().data(), &[18, 18, 18]);
        assert_eq!(out.column("v").unwrap().data(), &[5, 6, 7]);
    }

    #[test]
    fn revenue_expr_matches_integer_formula() {
        let t = Table::new(vec![
            Column::from_decimals("ext", [100.0, 250.0]),
            Column::from_decimals("disc", [0.05, 0.10]),
        ])
        .unwrap();
        let cat = MemoryCatalog::new(vec![("t".into(), t)]);
        let mut b = QueryGraph::builder("x");
        let ext = b.col_select_base("t", "ext");
        let disc = b.col_select_base("t", "disc");
        let rev = revenue_expr(&mut b, ext, disc);
        let g = b.finish().unwrap();
        let run = execute(&g, &cat).unwrap();
        let out = run.outputs[rev.node][0].as_col(0).unwrap().clone();
        // 10000 - 10000*5/100 = 9500; 25000 - 25000*10/100 = 22500.
        assert_eq!(out.data(), &[9500, 22500]);
    }
}
