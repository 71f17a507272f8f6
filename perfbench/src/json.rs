//! The smallest JSON writer the engine's report needs: objects keep their
//! insertion order, numbers are written with all their digits.

use std::fmt::{self, Write};

/// A JSON value.
#[derive(Debug, Clone)]
pub enum Json {
    /// An exact count.
    Int(u64),
    /// A measured quantity; non-finite values are written as `null`.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An empty object.
    pub fn obj() -> Json {
        Json::Obj(Vec::new())
    }

    /// Appends `key: value` to an object.
    ///
    /// # Panics
    ///
    /// Panics if `self` is not an object.
    pub fn set(&mut self, key: impl Into<String>, value: Json) {
        match self {
            Json::Obj(fields) => fields.push((key.into(), value)),
            _ => panic!("Json::set on a non-object"),
        }
    }

    /// An array of exact counts.
    pub fn ints(xs: &[u64]) -> Json {
        Json::Arr(xs.iter().map(|&x| Json::Int(x)).collect())
    }

    /// An array of measured quantities.
    pub fn nums(xs: &[f64]) -> Json {
        Json::Arr(xs.iter().map(|&x| Json::Num(x)).collect())
    }
}

fn write_str(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_char('"')?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => f.write_char(c)?,
        }
    }
    f.write_char('"')
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Int(x) => write!(f, "{x}"),
            // `{:?}` prints the shortest string that reads back exactly.
            Json::Num(x) if x.is_finite() => write!(f, "{x:?}"),
            Json::Num(_) => f.write_str("null"),
            Json::Str(s) => write_str(f, s),
            Json::Arr(xs) => {
                f.write_char('[')?;
                for (i, x) in xs.iter().enumerate() {
                    if i > 0 {
                        f.write_char(',')?;
                    }
                    write!(f, "{x}")?;
                }
                f.write_char(']')
            }
            Json::Obj(fields) => {
                f.write_char('{')?;
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        f.write_char(',')?;
                    }
                    write_str(f, k)?;
                    write!(f, ":{v}")?;
                }
                f.write_char('}')
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writes_nested_values_in_order() {
        let mut o = Json::obj();
        o.set("b", Json::Int(2));
        o.set("a", Json::nums(&[0.5, f64::NAN]));
        o.set("s", Json::Str("q\"\n\\".into()));
        assert_eq!(o.to_string(), r#"{"b":2,"a":[0.5,null],"s":"q\"\n\\"}"#);
    }

    #[test]
    fn floats_keep_all_their_digits() {
        assert_eq!(Json::Num(0.1 + 0.2).to_string(), "0.30000000000000004");
        assert_eq!(Json::Num(3.0).to_string(), "3.0");
    }
}
