//! Tables: ordered collections of equal-length columns.

use std::fmt;

use crate::column::Column;
use crate::error::{ColumnarError, Result};
use crate::schema::Schema;
use crate::value::Value;

/// An ordered collection of equal-length, uniquely named columns.
///
/// Row order is significant: the Q100's streaming operators (filters,
/// aggregations over sorted runs, appends) all rely on a table's rows
/// being a well-defined sequence.
///
/// # Example
///
/// ```
/// use q100_columnar::{Column, Table};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let t = Table::new(vec![
///     Column::from_ints("id", [1, 2, 3]),
///     Column::from_strs("name", ["a", "b", "c"]),
/// ])?;
/// assert_eq!(t.row_count(), 3);
/// let narrowed = t.project(&["name"])?;
/// assert_eq!(narrowed.column_count(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Table {
    columns: Vec<Column>,
}

impl Table {
    /// Builds a table from columns.
    ///
    /// # Errors
    ///
    /// Returns [`ColumnarError::LengthMismatch`] if the columns differ in
    /// length, or [`ColumnarError::DuplicateColumn`] if two share a name.
    pub fn new(columns: Vec<Column>) -> Result<Self> {
        if let Some(first) = columns.first() {
            let expected = first.len();
            for c in &columns {
                if c.len() != expected {
                    return Err(ColumnarError::LengthMismatch {
                        column: c.name().to_string(),
                        actual: c.len(),
                        expected,
                    });
                }
            }
        }
        for (i, c) in columns.iter().enumerate() {
            if columns[..i].iter().any(|p| p.name() == c.name()) {
                return Err(ColumnarError::DuplicateColumn(c.name().to_string()));
            }
        }
        Ok(Table { columns })
    }

    /// An empty, zero-column table.
    #[must_use]
    pub fn empty() -> Self {
        Table::default()
    }

    /// Number of rows (0 for a zero-column table).
    #[must_use]
    pub fn row_count(&self) -> usize {
        self.columns.first().map_or(0, Column::len)
    }

    /// Number of columns.
    #[must_use]
    pub fn column_count(&self) -> usize {
        self.columns.len()
    }

    /// Whether the table holds no rows.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.row_count() == 0
    }

    /// Total bytes across all columns, as charged by the Q100 bandwidth
    /// models.
    #[must_use]
    pub fn bytes(&self) -> u64 {
        self.columns.iter().map(Column::bytes).sum()
    }

    /// Sum of per-row widths in bytes (the table's record width).
    #[must_use]
    pub fn record_width(&self) -> u32 {
        self.columns.iter().map(Column::width).sum()
    }

    /// The columns in order.
    #[must_use]
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// Finds a column by name.
    ///
    /// # Errors
    ///
    /// Returns [`ColumnarError::UnknownColumn`] if absent.
    pub fn column(&self, name: &str) -> Result<&Column> {
        self.columns
            .iter()
            .find(|c| c.name() == name)
            .ok_or_else(|| ColumnarError::UnknownColumn(name.to_string()))
    }

    /// The column at `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of bounds.
    #[must_use]
    pub fn column_at(&self, idx: usize) -> &Column {
        &self.columns[idx]
    }

    /// Keeps only the named columns, in the given order.
    ///
    /// # Errors
    ///
    /// Returns [`ColumnarError::UnknownColumn`] for missing names.
    pub fn project(&self, names: &[&str]) -> Result<Table> {
        let cols: Result<Vec<Column>> = names.iter().map(|n| self.column(n).cloned()).collect();
        Table::new(cols?)
    }

    /// Builds a new table whose rows are `self[indices[i]]`.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    #[must_use]
    pub fn gather(&self, indices: &[usize]) -> Table {
        Table { columns: self.columns.iter().map(|c| c.gather(indices)).collect() }
    }

    /// Keeps rows where `keep` is true.
    ///
    /// # Panics
    ///
    /// Panics if `keep.len() != self.row_count()`.
    #[must_use]
    pub fn filter(&self, keep: &[bool]) -> Table {
        Table { columns: self.columns.iter().map(|c| c.filter(keep)).collect() }
    }

    /// Appends another table with the same schema (names, types, order).
    ///
    /// # Errors
    ///
    /// Returns a [`ColumnarError`] when the schemas differ.
    pub fn append(&mut self, other: &Table) -> Result<()> {
        if self.columns.is_empty() {
            *self = other.clone();
            return Ok(());
        }
        if self.column_count() != other.column_count() {
            return Err(ColumnarError::TypeMismatch {
                expected: "same-schema",
                actual: format!("{} vs {} columns", self.column_count(), other.column_count()),
            });
        }
        for (mine, theirs) in self.columns.iter_mut().zip(other.columns()) {
            if mine.name() != theirs.name() {
                return Err(ColumnarError::UnknownColumn(theirs.name().to_string()));
            }
            mine.append(theirs)?;
        }
        Ok(())
    }

    /// The values of one row, resolved to owned [`Value`]s.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of bounds.
    #[must_use]
    pub fn row(&self, row: usize) -> Vec<Value> {
        self.columns.iter().map(|c| c.value(row)).collect()
    }

    /// The schema this table conforms to.
    #[must_use]
    pub fn schema(&self) -> Schema {
        Schema::from_table(self)
    }

    /// Renders the table as an aligned text grid (for examples and
    /// debugging; row count capped at `max_rows`).
    #[must_use]
    pub fn render(&self, max_rows: usize) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let shown = self.row_count().min(max_rows);
        let mut widths: Vec<usize> = self.columns.iter().map(|c| c.name().len()).collect();
        let mut cells: Vec<Vec<String>> = Vec::with_capacity(shown);
        for r in 0..shown {
            let row: Vec<String> = self.columns.iter().map(|c| c.value(r).to_string()).collect();
            for (w, cell) in widths.iter_mut().zip(&row) {
                *w = (*w).max(cell.len());
            }
            cells.push(row);
        }
        for (i, c) in self.columns.iter().enumerate() {
            let _ = write!(out, "{:<width$}  ", c.name(), width = widths[i]);
        }
        out.push('\n');
        for row in cells {
            for (i, cell) in row.iter().enumerate() {
                let _ = write!(out, "{:<width$}  ", cell, width = widths[i]);
            }
            out.push('\n');
        }
        if shown < self.row_count() {
            let _ = writeln!(out, "... ({} more rows)", self.row_count() - shown);
        }
        out
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Table[{} rows x {} cols, {} bytes]",
            self.row_count(),
            self.column_count(),
            self.bytes()
        )
    }
}

impl FromIterator<Column> for Table {
    /// Collects columns into a table.
    ///
    /// # Panics
    ///
    /// Panics if the columns violate table invariants; use [`Table::new`]
    /// for fallible construction.
    fn from_iter<T: IntoIterator<Item = Column>>(iter: T) -> Self {
        Table::new(iter.into_iter().collect()).expect("invalid columns for table")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        Table::new(vec![
            Column::from_ints("id", [1, 2, 3]),
            Column::from_decimals("price", [1.0, 2.5, 3.75]),
        ])
        .unwrap()
    }

    #[test]
    fn new_rejects_mismatched_lengths_and_dup_names() {
        let err = Table::new(vec![Column::from_ints("a", [1, 2]), Column::from_ints("b", [1])])
            .unwrap_err();
        assert!(matches!(err, ColumnarError::LengthMismatch { .. }));

        let err =
            Table::new(vec![Column::from_ints("a", [1]), Column::from_ints("a", [2])]).unwrap_err();
        assert!(matches!(err, ColumnarError::DuplicateColumn(_)));
    }

    #[test]
    fn projection_selects_and_reorders() {
        let t = sample();
        let p = t.project(&["price", "id"]).unwrap();
        assert_eq!(p.column_at(0).name(), "price");
        assert_eq!(p.column_at(1).name(), "id");
        assert!(t.project(&["nope"]).is_err());
    }

    #[test]
    fn gather_filter_append_roundtrip() {
        let t = sample();
        let g = t.gather(&[2, 0]);
        assert_eq!(g.column("id").unwrap().data(), &[3, 1]);
        let f = t.filter(&[true, false, true]);
        assert_eq!(f.row_count(), 2);
        let mut a = t.clone();
        a.append(&f).unwrap();
        assert_eq!(a.row_count(), 5);
    }

    #[test]
    fn append_rejects_schema_mismatch() {
        let mut t = sample();
        let other = Table::new(vec![Column::from_ints("id", [9])]).unwrap();
        assert!(t.append(&other).is_err());
    }

    #[test]
    fn record_width_sums_column_widths() {
        let t = sample();
        assert_eq!(t.record_width(), 16);
        assert_eq!(t.bytes(), 48);
    }

    #[test]
    fn render_contains_headers_and_values() {
        let text = sample().render(2);
        assert!(text.contains("id"));
        assert!(text.contains("2.50"));
        assert!(text.contains("1 more rows"));
    }
}
