//! Typed, fixed-width columns.

use std::cmp::Ordering;
use std::fmt;
use std::sync::Arc;

use crate::dict::Dictionary;
use crate::error::{ColumnarError, Result};
use crate::value::{LogicalType, Value, DECIMAL_SCALE};

/// A named column of fixed-width values.
///
/// Physically every element is an `i64` (see the crate docs for the
/// encoding); the declared [`width`](Column::width) in bytes is what all
/// Q100 bandwidth models charge per element, so it may be narrower than 8
/// (dates, booleans) or wider (fixed-width strings).
///
/// # Example
///
/// ```
/// use q100_columnar::Column;
///
/// let c = Column::from_ints("l_quantity", [17, 36, 8]);
/// assert_eq!(c.len(), 3);
/// assert_eq!(c.bytes(), 24);
/// assert_eq!(c.get(1), 36);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Column {
    name: String,
    ty: LogicalType,
    width: u32,
    data: Vec<i64>,
    dict: Option<Arc<Dictionary>>,
}

impl Column {
    /// Creates a column from raw physical values.
    ///
    /// The width defaults to [`LogicalType::default_width`]. String
    /// columns must attach their dictionary with
    /// [`with_dict`](Column::with_dict).
    #[must_use]
    pub fn from_physical(
        name: impl Into<String>,
        ty: LogicalType,
        data: impl Into<Vec<i64>>,
    ) -> Self {
        Column { name: name.into(), ty, width: ty.default_width(), data: data.into(), dict: None }
    }

    /// Creates an integer column.
    #[must_use]
    pub fn from_ints(name: impl Into<String>, data: impl IntoIterator<Item = i64>) -> Self {
        Self::from_physical(name, LogicalType::Int, data.into_iter().collect::<Vec<_>>())
    }

    /// Creates a fixed-point decimal column from floats.
    #[must_use]
    pub fn from_decimals(name: impl Into<String>, data: impl IntoIterator<Item = f64>) -> Self {
        let scaled: Vec<i64> =
            data.into_iter().map(|v| (v * DECIMAL_SCALE as f64).round() as i64).collect();
        Self::from_physical(name, LogicalType::Decimal, scaled)
    }

    /// Creates a date column from day numbers.
    #[must_use]
    pub fn from_dates(name: impl Into<String>, data: impl IntoIterator<Item = i32>) -> Self {
        let days: Vec<i64> = data.into_iter().map(i64::from).collect();
        Self::from_physical(name, LogicalType::Date, days)
    }

    /// Creates a boolean column.
    #[must_use]
    pub fn from_bools(name: impl Into<String>, data: impl IntoIterator<Item = bool>) -> Self {
        let bits: Vec<i64> = data.into_iter().map(i64::from).collect();
        Self::from_physical(name, LogicalType::Bool, bits)
    }

    /// Creates a dictionary-encoded string column, interning each value
    /// into a fresh dictionary.
    #[must_use]
    pub fn from_strs<'a>(name: impl Into<String>, data: impl IntoIterator<Item = &'a str>) -> Self {
        let mut dict = Dictionary::new();
        let codes: Vec<i64> = data.into_iter().map(|s| i64::from(dict.intern(s))).collect();
        Self::from_physical(name, LogicalType::Str, codes).with_dict(Arc::new(dict))
    }

    /// Attaches a shared dictionary (for string columns).
    #[must_use]
    pub fn with_dict(mut self, dict: Arc<Dictionary>) -> Self {
        self.dict = Some(dict);
        self
    }

    /// Overrides the declared element width in bytes.
    ///
    /// # Errors
    ///
    /// Returns [`ColumnarError::WidthExceeded`] if `width` exceeds the
    /// Q100's 32-byte column limit (Section 3.1 of the paper); callers
    /// modelling wider attributes must split them vertically, as the
    /// paper does.
    pub fn with_width(mut self, width: u32) -> Result<Self> {
        if width == 0 || width > 32 {
            return Err(ColumnarError::WidthExceeded { column: self.name.clone(), width });
        }
        self.width = width;
        Ok(self)
    }

    /// The column name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Returns a copy of this column under a new name.
    #[must_use]
    pub fn renamed(&self, name: impl Into<String>) -> Self {
        let mut c = self.clone();
        c.name = name.into();
        c
    }

    /// The logical type.
    #[must_use]
    pub fn ty(&self) -> LogicalType {
        self.ty
    }

    /// Declared element width in bytes.
    #[must_use]
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Number of elements.
    #[must_use]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the column has no elements.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Total size in bytes (elements × width) as charged by the Q100
    /// bandwidth models.
    #[must_use]
    pub fn bytes(&self) -> u64 {
        self.data.len() as u64 * u64::from(self.width)
    }

    /// The raw physical values.
    #[must_use]
    pub fn data(&self) -> &[i64] {
        &self.data
    }

    /// The physical value at `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of bounds.
    #[must_use]
    pub fn get(&self, idx: usize) -> i64 {
        self.data[idx]
    }

    /// The attached dictionary, if any.
    #[must_use]
    pub fn dict(&self) -> Option<&Arc<Dictionary>> {
        self.dict.as_ref()
    }

    /// The owned value at `idx`, resolving strings through the
    /// dictionary.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of bounds.
    #[must_use]
    pub fn value(&self, idx: usize) -> Value {
        let phys = self.data[idx];
        match self.ty {
            LogicalType::Int => Value::Int(phys),
            LogicalType::Decimal => Value::Decimal(phys),
            LogicalType::Date => Value::Date(phys as i32),
            LogicalType::Bool => Value::Bool(phys != 0),
            LogicalType::Str => Value::Str(
                self.dict
                    .as_deref()
                    .and_then(|d| d.resolve(phys as u32))
                    .unwrap_or("<unresolved>")
                    .to_string(),
            ),
        }
    }

    /// Compares the elements at `a` and `b` in value order (lexicographic
    /// for strings, numeric otherwise).
    ///
    /// # Panics
    ///
    /// Panics if either index is out of bounds, or if a string column has
    /// no dictionary.
    #[must_use]
    pub fn cmp_rows(&self, a: usize, b: usize) -> Ordering {
        self.cmp_physical(self.data[a], self.data[b])
    }

    /// Compares two physical values in this column's value order.
    #[must_use]
    pub fn cmp_physical(&self, a: i64, b: i64) -> Ordering {
        if self.ty == LogicalType::Str {
            let dict = self.dict.as_deref().expect("string column without dictionary");
            dict.cmp_codes(a as u32, b as u32)
        } else {
            a.cmp(&b)
        }
    }

    /// Builds a new column with the same name/type/width/dictionary whose
    /// elements are `self[indices[i]]`.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    #[must_use]
    pub fn gather(&self, indices: &[usize]) -> Self {
        let data: Vec<i64> = indices.iter().map(|&i| self.data[i]).collect();
        Column {
            name: self.name.clone(),
            ty: self.ty,
            width: self.width,
            data,
            dict: self.dict.clone(),
        }
    }

    /// Builds a new column keeping only elements where `keep` is true.
    ///
    /// # Panics
    ///
    /// Panics if `keep.len() != self.len()`.
    #[must_use]
    pub fn filter(&self, keep: &[bool]) -> Self {
        assert_eq!(keep.len(), self.len(), "mask length must match column length");
        let data: Vec<i64> =
            self.data.iter().zip(keep).filter_map(|(&v, &k)| k.then_some(v)).collect();
        Column {
            name: self.name.clone(),
            ty: self.ty,
            width: self.width,
            data,
            dict: self.dict.clone(),
        }
    }

    /// Replaces this column's payload, keeping name/type/width/dictionary.
    #[must_use]
    pub fn with_data(&self, data: Vec<i64>) -> Self {
        Column {
            name: self.name.clone(),
            ty: self.ty,
            width: self.width,
            data,
            dict: self.dict.clone(),
        }
    }

    /// Appends another column's elements.
    ///
    /// # Errors
    ///
    /// Returns [`ColumnarError::TypeMismatch`] when the logical types
    /// differ, and [`ColumnarError::DuplicateColumn`] is never returned
    /// here. String columns must share the same dictionary `Arc` for the
    /// codes to stay meaningful.
    pub fn append(&mut self, other: &Column) -> Result<()> {
        if self.ty != other.ty {
            return Err(ColumnarError::TypeMismatch {
                expected: "matching",
                actual: format!("{} vs {}", self.ty, other.ty),
            });
        }
        if self.ty == LogicalType::Str {
            let same = match (&self.dict, &other.dict) {
                (Some(a), Some(b)) => Arc::ptr_eq(a, b) || a == b,
                _ => false,
            };
            if !same {
                return Err(ColumnarError::TypeMismatch {
                    expected: "shared-dictionary string",
                    actual: "string columns with different dictionaries".to_string(),
                });
            }
        }
        self.data.extend_from_slice(&other.data);
        Ok(())
    }

    /// Iterates over the physical values.
    pub fn iter(&self) -> std::slice::Iter<'_, i64> {
        self.data.iter()
    }
}

impl fmt::Display for Column {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}[{}]", self.name, self.ty, self.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_set_types_and_widths() {
        assert_eq!(Column::from_ints("a", [1]).ty(), LogicalType::Int);
        assert_eq!(Column::from_decimals("a", [1.5]).get(0), 150);
        assert_eq!(Column::from_dates("a", [10]).width(), 4);
        assert_eq!(Column::from_bools("a", [true, false]).bytes(), 2);
        let s = Column::from_strs("a", ["x", "y", "x"]);
        assert_eq!(s.len(), 3);
        assert_eq!(s.get(0), s.get(2));
    }

    #[test]
    fn with_width_enforces_32_byte_cap() {
        let c = Column::from_ints("a", [1]);
        assert!(c.clone().with_width(32).is_ok());
        assert!(c.clone().with_width(33).is_err());
        assert!(c.with_width(0).is_err());
    }

    #[test]
    fn gather_and_filter_preserve_metadata() {
        let c = Column::from_strs("s", ["a", "b", "c"]).with_width(10).unwrap();
        let g = c.gather(&[2, 0]);
        assert_eq!(g.value(0), Value::Str("c".into()));
        assert_eq!(g.width(), 10);
        let f = c.filter(&[false, true, false]);
        assert_eq!(f.len(), 1);
        assert_eq!(f.value(0), Value::Str("b".into()));
    }

    #[test]
    fn append_requires_matching_type_and_dict() {
        let mut a = Column::from_ints("a", [1, 2]);
        let b = Column::from_ints("b", [3]);
        a.append(&b).unwrap();
        assert_eq!(a.data(), &[1, 2, 3]);
        let s = Column::from_strs("s", ["x"]);
        assert!(a.append(&s).is_err());

        let mut s1 = Column::from_strs("s", ["x"]);
        let s2 = Column::from_strs("s", ["y"]); // different dictionary
        assert!(s1.append(&s2).is_err());
        let shared = s1.dict().unwrap().clone();
        let s3 = Column::from_physical("s", LogicalType::Str, vec![0]).with_dict(shared);
        s1.append(&s3).unwrap();
        assert_eq!(s1.len(), 2);
    }

    #[test]
    fn cmp_rows_uses_value_order_for_strings() {
        let c = Column::from_strs("s", ["zebra", "ant"]);
        // insertion order gives zebra code 0, ant code 1; value order must
        // still say ant < zebra.
        assert_eq!(c.cmp_rows(1, 0), Ordering::Less);
    }

    #[test]
    fn display_is_compact() {
        let c = Column::from_ints("qty", [1, 2]);
        assert_eq!(c.to_string(), "qty:int[2]");
    }
}
