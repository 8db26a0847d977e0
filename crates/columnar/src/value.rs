//! Logical types and scalar values.

use std::fmt;

use crate::date::days_to_date;
use crate::dict::Dictionary;

/// Fixed-point scale for [`LogicalType::Decimal`] values.
///
/// The Q100 lacks a floating point unit; the paper multiplies SQL decimals
/// by a constant, applies integer arithmetic, and divides the result back
/// (Section 3.1). TPC-H decimals have two fractional digits, so the scale
/// is 100.
pub const DECIMAL_SCALE: i64 = 100;

/// The interpretation of a column's physical `i64` values.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum LogicalType {
    /// A signed 64-bit integer.
    Int,
    /// A fixed-point decimal scaled by [`DECIMAL_SCALE`].
    Decimal,
    /// A calendar date stored as days since 1970-01-01.
    Date,
    /// A dictionary-encoded string; the physical value indexes the
    /// column's [`Dictionary`].
    Str,
    /// A boolean stored as 0 or 1.
    Bool,
}

impl LogicalType {
    /// Default physical byte width used for bandwidth accounting when a
    /// schema does not override it.
    ///
    /// `Str` columns default to 25 bytes (the most common TPC-H `CHAR`
    /// width); schemas override this per column. The Q100 caps column
    /// width at 32 bytes and vertically splits anything wider (Section
    /// 3.1), which the schema layer enforces.
    #[must_use]
    pub fn default_width(self) -> u32 {
        match self {
            LogicalType::Int | LogicalType::Decimal => 8,
            LogicalType::Date => 4,
            LogicalType::Str => 25,
            LogicalType::Bool => 1,
        }
    }
}

impl fmt::Display for LogicalType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            LogicalType::Int => "int",
            LogicalType::Decimal => "decimal",
            LogicalType::Date => "date",
            LogicalType::Str => "str",
            LogicalType::Bool => "bool",
        };
        f.write_str(name)
    }
}

/// An owned scalar value, used at API boundaries (constants in query
/// plans, test assertions, display).
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// An integer value.
    Int(i64),
    /// A decimal carried as its scaled fixed-point representation.
    Decimal(i64),
    /// A date carried as days since 1970-01-01.
    Date(i32),
    /// An owned string.
    Str(String),
    /// A boolean.
    Bool(bool),
}

impl Value {
    /// Creates a decimal value from a float, rounding to the fixed-point
    /// grid.
    #[must_use]
    pub fn from_f64(v: f64) -> Self {
        Value::Decimal((v * DECIMAL_SCALE as f64).round() as i64)
    }

    /// The logical type this value inhabits.
    #[must_use]
    pub fn ty(&self) -> LogicalType {
        match self {
            Value::Int(_) => LogicalType::Int,
            Value::Decimal(_) => LogicalType::Decimal,
            Value::Date(_) => LogicalType::Date,
            Value::Str(_) => LogicalType::Str,
            Value::Bool(_) => LogicalType::Bool,
        }
    }

    /// The physical `i64` encoding of this value, resolving strings
    /// through `dict` (inserting if absent).
    ///
    /// # Panics
    ///
    /// Panics if the value is a string and `dict` is `None`.
    pub fn encode(&self, dict: Option<&mut Dictionary>) -> i64 {
        match self {
            Value::Int(v) | Value::Decimal(v) => *v,
            Value::Date(d) => i64::from(*d),
            Value::Bool(b) => i64::from(*b),
            Value::Str(s) => {
                let dict = dict.expect("string value requires a dictionary");
                i64::from(dict.intern(s))
            }
        }
    }

    /// The physical encoding, looking the string up read-only.
    ///
    /// Returns `None` for a string absent from `dict` (no row can match
    /// it), or when a string value is supplied without a dictionary.
    #[must_use]
    pub fn encode_lookup(&self, dict: Option<&Dictionary>) -> Option<i64> {
        match self {
            Value::Int(v) | Value::Decimal(v) => Some(*v),
            Value::Date(d) => Some(i64::from(*d)),
            Value::Bool(b) => Some(i64::from(*b)),
            Value::Str(s) => dict.and_then(|d| d.lookup(s)).map(i64::from),
        }
    }

    /// Renders a physical value of type `ty` for human consumption.
    #[must_use]
    pub fn render(physical: i64, ty: LogicalType, dict: Option<&Dictionary>) -> String {
        match ty {
            LogicalType::Int => physical.to_string(),
            LogicalType::Decimal => {
                let sign = if physical < 0 { "-" } else { "" };
                let abs = physical.unsigned_abs();
                format!("{sign}{}.{:02}", abs / DECIMAL_SCALE as u64, abs % DECIMAL_SCALE as u64)
            }
            LogicalType::Date => {
                let parts = days_to_date(physical as i32);
                format!("{:04}-{:02}-{:02}", parts.year, parts.month, parts.day)
            }
            LogicalType::Bool => (physical != 0).to_string(),
            LogicalType::Str => {
                dict.and_then(|d| d.resolve(physical as u32)).unwrap_or("<unresolved>").to_string()
            }
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(v) => write!(f, "{v}"),
            Value::Decimal(v) => f.write_str(&Value::render(*v, LogicalType::Decimal, None)),
            Value::Date(d) => f.write_str(&Value::render(i64::from(*d), LogicalType::Date, None)),
            Value::Str(s) => f.write_str(s),
            Value::Bool(b) => write!(f, "{b}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decimal_render_pads_fraction() {
        assert_eq!(Value::render(105, LogicalType::Decimal, None), "1.05");
        assert_eq!(Value::render(-105, LogicalType::Decimal, None), "-1.05");
        assert_eq!(Value::render(1, LogicalType::Decimal, None), "0.01");
        assert_eq!(Value::render(0, LogicalType::Decimal, None), "0.00");
    }

    #[test]
    fn from_f64_rounds_to_grid() {
        assert_eq!(Value::from_f64(1.05), Value::Decimal(105));
        assert_eq!(Value::from_f64(0.999), Value::Decimal(100));
    }

    #[test]
    fn default_widths_match_paper_encoding() {
        assert_eq!(LogicalType::Int.default_width(), 8);
        assert_eq!(LogicalType::Date.default_width(), 4);
        assert_eq!(LogicalType::Bool.default_width(), 1);
    }

    #[test]
    fn encode_roundtrip_through_dictionary() {
        let mut dict = Dictionary::new();
        let v = Value::Str("FURNITURE".into());
        let phys = v.encode(Some(&mut dict));
        assert_eq!(Value::render(phys, LogicalType::Str, Some(&dict)), "FURNITURE");
        assert_eq!(v.encode_lookup(Some(&dict)), Some(phys));
        assert_eq!(Value::Str("MISSING".into()).encode_lookup(Some(&dict)), None);
    }

    #[test]
    fn display_impls_are_nonempty() {
        assert_eq!(LogicalType::Decimal.to_string(), "decimal");
        assert_eq!(Value::Int(7).to_string(), "7");
        assert_eq!(Value::Bool(true).to_string(), "true");
    }
}
