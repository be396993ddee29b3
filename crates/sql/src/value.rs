//! Runtime values and column types.

use std::cmp::Ordering;
use std::fmt;

use crate::error::SqlError;

/// The SQL column types supported by the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    Int,
    Float,
    Text,
    Bool,
    /// Microseconds since the epoch (virtual time in simulations).
    Timestamp,
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DataType::Int => "INT",
            DataType::Float => "FLOAT",
            DataType::Text => "TEXT",
            DataType::Bool => "BOOL",
            DataType::Timestamp => "TIMESTAMP",
        };
        f.write_str(s)
    }
}

/// A runtime SQL value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Int(i64),
    Float(f64),
    Text(String),
    Bool(bool),
    /// Microseconds since the epoch.
    Timestamp(i64),
}

impl Value {
    pub fn data_type(&self) -> Option<DataType> {
        match self {
            Value::Null => None,
            Value::Int(_) => Some(DataType::Int),
            Value::Float(_) => Some(DataType::Float),
            Value::Text(_) => Some(DataType::Text),
            Value::Bool(_) => Some(DataType::Bool),
            Value::Timestamp(_) => Some(DataType::Timestamp),
        }
    }

    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Coerce a value to the given column type, as on INSERT/UPDATE.
    /// Int widens to Float and to Timestamp; everything else must match.
    pub fn coerce_to(self, ty: DataType) -> Result<Value, SqlError> {
        match (self, ty) {
            (Value::Null, _) => Ok(Value::Null),
            (v @ Value::Int(_), DataType::Int) => Ok(v),
            (Value::Int(i), DataType::Float) => Ok(Value::Float(i as f64)),
            (Value::Int(i), DataType::Timestamp) => Ok(Value::Timestamp(i)),
            (v @ Value::Float(_), DataType::Float) => Ok(v),
            (v @ Value::Text(_), DataType::Text) => Ok(v),
            (v @ Value::Bool(_), DataType::Bool) => Ok(v),
            (v @ Value::Timestamp(_), DataType::Timestamp) => Ok(v),
            (Value::Timestamp(t), DataType::Int) => Ok(Value::Int(t)),
            (v, ty) => Err(SqlError::TypeMismatch {
                expected: ty,
                got: v.type_name().to_string(),
            }),
        }
    }

    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Null => "NULL",
            Value::Int(_) => "INT",
            Value::Float(_) => "FLOAT",
            Value::Text(_) => "TEXT",
            Value::Bool(_) => "BOOL",
            Value::Timestamp(_) => "TIMESTAMP",
        }
    }

    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            Value::Timestamp(t) => Some(*t),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            Value::Timestamp(t) => Some(*t as f64),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// SQL three-valued comparison. `None` when either side is NULL or the
    /// types are incomparable.
    pub fn sql_cmp(&self, other: &Value) -> Option<Ordering> {
        match (self, other) {
            (Value::Null, _) | (_, Value::Null) => None,
            (Value::Int(a), Value::Int(b)) => Some(a.cmp(b)),
            (Value::Timestamp(a), Value::Timestamp(b)) => Some(a.cmp(b)),
            (Value::Int(a), Value::Timestamp(b)) | (Value::Timestamp(b), Value::Int(a)) => {
                Some(a.cmp(b))
            }
            (Value::Text(a), Value::Text(b)) => Some(a.cmp(b)),
            (Value::Bool(a), Value::Bool(b)) => Some(a.cmp(b)),
            (a, b) => {
                let (x, y) = (a.as_f64()?, b.as_f64()?);
                x.partial_cmp(&y)
            }
        }
    }

    /// Total order used for ORDER BY and index keys: NULLs sort first,
    /// then by type, then by value. Never panics (NaN sorts after all floats).
    pub fn total_cmp(&self, other: &Value) -> Ordering {
        fn rank(v: &Value) -> u8 {
            match v {
                Value::Null => 0,
                Value::Bool(_) => 1,
                Value::Int(_) | Value::Float(_) | Value::Timestamp(_) => 2,
                Value::Text(_) => 3,
            }
        }
        match (self, other) {
            (Value::Null, Value::Null) => Ordering::Equal,
            (Value::Text(a), Value::Text(b)) => a.cmp(b),
            (Value::Bool(a), Value::Bool(b)) => a.cmp(b),
            // Integer kinds compare exactly: through f64, two keys above
            // 2^53 that differ by one are the same number.
            (Value::Int(a) | Value::Timestamp(a), Value::Int(b) | Value::Timestamp(b)) => a.cmp(b),
            _ if rank(self) == 2 && rank(other) == 2 => {
                let a = self.as_f64().unwrap_or(f64::NAN);
                let b = other.as_f64().unwrap_or(f64::NAN);
                a.total_cmp(&b)
            }
            _ => rank(self).cmp(&rank(other)),
        }
    }

    /// Render the value as a SQL literal that parses back to the same value.
    /// Used for query rewriting (e.g. replacing NOW() with a constant) and
    /// for statement-based recovery logs.
    pub fn to_literal(&self) -> String {
        match self {
            Value::Null => "NULL".to_string(),
            Value::Int(i) => i.to_string(),
            Value::Float(f) => {
                if f.fract() == 0.0 && f.is_finite() {
                    format!("{f:.1}")
                } else {
                    format!("{f}")
                }
            }
            Value::Text(s) => format!("'{}'", s.replace('\'', "''")),
            Value::Bool(b) => if *b { "TRUE" } else { "FALSE" }.to_string(),
            Value::Timestamp(t) => format!("TIMESTAMP {t}"),
        }
    }

    /// Feed the value into a state checksum (for cluster divergence checks).
    pub fn hash_into(&self, h: &mut crate::checksum::Fnv64) {
        match self {
            Value::Null => h.write_u8(0),
            Value::Int(i) => {
                h.write_u8(1);
                h.write_u64(*i as u64);
            }
            Value::Float(f) => {
                h.write_u8(2);
                h.write_u64(f.to_bits());
            }
            Value::Text(s) => {
                h.write_u8(3);
                h.write_bytes(s.as_bytes());
            }
            Value::Bool(b) => {
                h.write_u8(4);
                h.write_u8(*b as u8);
            }
            Value::Timestamp(t) => {
                h.write_u8(5);
                h.write_u64(*t as u64);
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("NULL"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Text(s) => f.write_str(s),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Timestamp(t) => write!(f, "@{t}"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Text(v.to_string())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Text(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `String`'s capacity niche holds the tag, so a value is no wider than
    /// its widest payload.
    #[test]
    fn a_value_is_24_bytes() {
        assert_eq!(std::mem::size_of::<Value>(), 24);
    }

    #[test]
    fn coercion_widens_int() {
        assert_eq!(
            Value::Int(3).coerce_to(DataType::Float).unwrap(),
            Value::Float(3.0)
        );
        assert_eq!(
            Value::Int(7).coerce_to(DataType::Timestamp).unwrap(),
            Value::Timestamp(7)
        );
    }

    #[test]
    fn coercion_rejects_mismatch() {
        assert!(Value::Text("x".into()).coerce_to(DataType::Int).is_err());
        assert!(Value::Bool(true).coerce_to(DataType::Text).is_err());
    }

    #[test]
    fn null_coerces_to_anything() {
        for ty in [DataType::Int, DataType::Text, DataType::Bool] {
            assert_eq!(Value::Null.coerce_to(ty).unwrap(), Value::Null);
        }
    }

    #[test]
    fn sql_cmp_null_is_unknown() {
        assert_eq!(Value::Null.sql_cmp(&Value::Int(1)), None);
        assert_eq!(Value::Int(1).sql_cmp(&Value::Null), None);
    }

    #[test]
    fn sql_cmp_mixed_numeric() {
        assert_eq!(
            Value::Int(2).sql_cmp(&Value::Float(2.5)),
            Some(Ordering::Less)
        );
        assert_eq!(
            Value::Float(3.0).sql_cmp(&Value::Int(3)),
            Some(Ordering::Equal)
        );
    }

    #[test]
    fn total_cmp_sorts_nulls_first() {
        let mut vs = [Value::Int(1), Value::Null, Value::Text("a".into())];
        vs.sort_by(|a, b| a.total_cmp(b));
        assert_eq!(vs[0], Value::Null);
        assert_eq!(vs[2], Value::Text("a".into()));
    }

    #[test]
    fn total_cmp_is_exact_for_integers() {
        let (big, next) = (i64::MAX - 1, i64::MAX);
        assert_eq!(big as f64, next as f64, "the pair collides in f64");
        assert_eq!(Value::Int(big).total_cmp(&Value::Int(next)), Ordering::Less);
        assert_eq!(Value::Timestamp(next).total_cmp(&Value::Timestamp(big)), Ordering::Greater);
        assert_eq!(Value::Int(big).total_cmp(&Value::Timestamp(next)), Ordering::Less);
        // A pair that involves a float still compares as floats.
        assert_eq!(Value::Int(3).total_cmp(&Value::Float(3.0)), Ordering::Equal);
        assert_eq!(Value::Float(2.5).total_cmp(&Value::Int(3)), Ordering::Less);
    }

    #[test]
    fn literal_round_trip_quoting() {
        assert_eq!(Value::Text("o'brien".into()).to_literal(), "'o''brien'");
        assert_eq!(Value::Null.to_literal(), "NULL");
        assert_eq!(Value::Float(2.0).to_literal(), "2.0");
    }
}
