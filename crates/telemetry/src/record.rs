//! One JSONL codec for every per-slide telemetry stream.
//!
//! Each stream — slide events (`--metrics-out`), health (`--health-out`),
//! ingest (`--ingest-out`), alerts (`--alerts-out`) and provenance
//! (`--provenance-out`) — is one flat JSON object per line. A record type
//! states its line once, as a static table of [`Field`]s (key, [`Kind`],
//! getter, setter), and implements [`JsonlRecord`]; the trait derives the
//! writer, the validator and the parser from that table, so every stream
//! renders, checks and reads back the same way:
//!
//! * the rendering is compact, `{"key":value,...}` with the keys in table
//!   order, written into one `String`;
//! * a valid line is a JSON object holding every key of the table exactly
//!   once, each value of its field's kind, and no other key; a record may
//!   add one rule across fields ([`JsonlRecord::check`]);
//! * [`JsonlRecord::from_jsonl`] validates and then sets each field.

use crate::json::{self, Json};
use std::fmt::Write as _;

/// The value kind of one field.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// A non-negative integer, exact in an `f64` (at most 2⁵³).
    Uint,
    /// A finite number.
    Num,
    /// Any string.
    Str,
    /// One string out of a closed set.
    OneOf(&'static [&'static str]),
}

/// One field's value, as its getter reads it and its setter receives it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Value<'a> {
    /// A [`Kind::Uint`] value.
    Uint(u64),
    /// A [`Kind::Num`] value.
    Num(f64),
    /// A [`Kind::Str`] value.
    Str(&'a str),
    /// A [`Kind::OneOf`] value: the matching member of the set.
    Name(&'static str),
}

// Setters only ever receive values the validator checked against their
// field's kind; the fallbacks keep a mismatch from being a panic path.
impl<'a> Value<'a> {
    /// The integer of a `Uint` value.
    pub fn uint(self) -> u64 {
        let Value::Uint(v) = self else { return 0 };
        v
    }

    /// The number of a `Num` value.
    pub fn num(self) -> f64 {
        let Value::Num(v) = self else { return 0.0 };
        v
    }

    /// The text of a `Str` or `Name` value.
    pub fn str(self) -> &'a str {
        match self {
            Value::Str(s) | Value::Name(s) => s,
            _ => "",
        }
    }

    /// The set member of a `Name` value.
    pub fn name(self) -> &'static str {
        let Value::Name(v) = self else { return "" };
        v
    }
}

/// One key of a record's line.
pub struct Field<R> {
    /// The JSON key.
    pub key: &'static str,
    /// What the value must be.
    pub kind: Kind,
    /// Reads the field from a record.
    pub get: for<'r> fn(&'r R) -> Value<'r>,
    /// Writes a validated value into a record.
    pub set: fn(&mut R, Value<'_>),
}

/// A record that is one JSONL line, described by its field table.
pub trait JsonlRecord: Default + Sized + 'static {
    /// What messages call a line of this stream (`"slide-event"`, ...).
    const NAME: &'static str;

    /// The line's fields, in rendering order. [`from_jsonl`] sets them in
    /// this order too, so a setter may rely on the fields before it.
    ///
    /// [`from_jsonl`]: JsonlRecord::from_jsonl
    const FIELDS: &'static [Field<Self>];

    /// A rule across fields that the table cannot state, run on a line
    /// whose every field already passed; `value(key)` reads one key of the
    /// table. None by default.
    fn check<'a>(value: impl Fn(&str) -> Value<'a>) -> Result<(), String> {
        let _ = value;
        Ok(())
    }

    /// Renders the record as one JSONL line (no trailing newline).
    fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(24 * Self::FIELDS.len());
        out.push('{');
        for (i, f) in Self::FIELDS.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('"');
            out.push_str(f.key);
            out.push_str("\":");
            let _ = match (f.get)(self) {
                Value::Uint(v) => write!(out, "{v}"),
                // The validator takes finite numbers only.
                Value::Num(v) => write!(out, "{}", if v.is_finite() { v } else { 0.0 }),
                Value::Str(s) | Value::Name(s) => {
                    out.push('"');
                    json::escape_into(&mut out, s);
                    out.write_char('"')
                }
            };
        }
        out.push('}');
        out
    }

    /// Validates one line: a JSON object with every key of
    /// [`FIELDS`](JsonlRecord::FIELDS) exactly once, each of its kind, no
    /// unknown key, and [`check`](JsonlRecord::check) passing.
    fn validate_jsonl(line: &str) -> Result<(), String> {
        read_line::<Self>(&Json::parse(line)?).map(|_| ())
    }

    /// Panicking form of [`validate_jsonl`](JsonlRecord::validate_jsonl)
    /// for tests and checkers: the message names the stream and the line.
    fn assert_valid_jsonl(line: &str) {
        if let Err(e) = Self::validate_jsonl(line) {
            panic!("invalid {} JSONL line {line:?}: {e}", Self::NAME);
        }
    }

    /// Validates one line and reads it back into a record.
    fn from_jsonl(line: &str) -> Result<Self, String> {
        let doc = Json::parse(line)?;
        let mut record = Self::default();
        for (f, v) in Self::FIELDS.iter().zip(read_line::<Self>(&doc)?) {
            (f.set)(&mut record, v);
        }
        Ok(record)
    }
}

/// Checks `doc` against `R`'s table, returning its values in table order.
fn read_line<R: JsonlRecord>(doc: &Json) -> Result<Vec<Value<'_>>, String> {
    let Json::Obj(members) = doc else {
        return Err(format!("{} line is not a JSON object", R::NAME));
    };
    let index = |key: &str| R::FIELDS.iter().position(|f| f.key == key);
    let mut found: Vec<Option<Value>> = vec![None; R::FIELDS.len()];
    for (key, v) in members {
        let Some(i) = index(key) else {
            return Err(format!("unknown key {key:?}"));
        };
        if found[i].is_some() {
            return Err(format!("duplicate key {key:?}"));
        }
        found[i] = Some(read_value(R::FIELDS[i].kind, key, v)?);
    }
    let values = R::FIELDS
        .iter()
        .zip(found)
        .map(|(f, v)| v.ok_or_else(|| format!("missing key {:?}", f.key)))
        .collect::<Result<Vec<_>, _>>()?;
    R::check(|key| values[index(key).expect("check reads keys of its own table")])?;
    Ok(values)
}

fn read_value<'a>(kind: Kind, key: &str, v: &'a Json) -> Result<Value<'a>, String> {
    match (kind, v) {
        (Kind::Uint, _) => v
            .as_u64()
            .map(Value::Uint)
            .ok_or_else(|| format!("key {key:?} is not a non-negative integer")),
        (Kind::Num, Json::Num(n)) if n.is_finite() => Ok(Value::Num(*n)),
        (Kind::Num, _) => Err(format!("key {key:?} is not a finite number")),
        (Kind::Str, Json::Str(s)) => Ok(Value::Str(s)),
        (Kind::OneOf(set), Json::Str(s)) => match set.iter().find(|m| **m == s) {
            Some(m) => Ok(Value::Name(m)),
            None => Err(format!("key {key:?} is {s:?}, not one of {set:?}")),
        },
        (Kind::Str | Kind::OneOf(_), _) => Err(format!("key {key:?} is not a string")),
    }
}

/// A [`Field`] over the struct field of the same name: `uint` for an
/// integer, `num` for an `f64`, `text` for a `String`, and `one_of` for a
/// `&'static str` out of the given set.
macro_rules! field {
    (uint $f:ident) => {
        field!(@ $f, Uint, |r| Value::Uint(r.$f as u64), |r, v| r.$f = v.uint() as _)
    };
    (num $f:ident) => {
        field!(@ $f, Num, |r| Value::Num(r.$f), |r, v| r.$f = v.num())
    };
    (text $f:ident) => {
        field!(@ $f, Str, |r| Value::Str(&r.$f), |r, v| r.$f = v.str().to_string())
    };
    (one_of $f:ident, $set:expr) => {
        field!(@ $f, OneOf($set), |r| Value::Name(r.$f), |r, v| r.$f = v.name())
    };
    (@ $f:ident, $kind:expr, $get:expr, $set:expr) => {{
        use $crate::record::{Field, Kind::*, Value};
        Field { key: stringify!($f), kind: $kind, get: $get, set: $set }
    }};
}

pub(crate) use field;
