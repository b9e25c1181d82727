//! Wire schema v1: the versioned JSON encoding of the execution API, and
//! the one JSON writer of the workspace.
//!
//! `lafd serve` (see [`crate::service`]) accepts newline-delimited JSON
//! requests and answers with JSON responses; `lafd run --spec file.json`
//! reads the same request format, and `lafd sweep --remote` sends each
//! sweep row (itself a [`SpecBuilder`]) as one. This module is the single
//! encoder/decoder for that surface: a request is a serialized
//! [`SpecBuilder`], a response embeds a wire-format
//! [`FdRunReport`], and both carry an explicit
//! `"schema_version": 1`.
//!
//! Every other JSON document `lafd` emits — sweep and search reports,
//! Chrome traces, chaos reports, service metrics — is also a [`Value`]
//! written by [`Value::to_json`] (one line) or [`Value::to_document`]
//! (the document layout). The string escaper, the hex encoder and the
//! outcome encoding live here and nowhere else.
//!
//! ## Document layout
//!
//! [`Value::to_document`] writes a top-level object with each field on
//! its own line, indented two spaces. A top-level field holding a
//! non-empty array of objects puts one element per line, indented four
//! spaces. Everything else is compact (`", "` and `": "` separators),
//! and the document ends with a newline:
//!
//! ```json
//! {
//!   "link_latency": [],
//!   "rows": [
//!     {"protocol": "chain_fd", "n": 4},
//!     {"protocol": "chain_fd", "n": 7}
//!   ],
//!   "summary": {"scenarios": 2}
//! }
//! ```
//!
//! Design constraints, in order:
//!
//! * **No external dependencies.** The JSON value type, parser, and
//!   writer are hand-rolled below (integers only — floats are rejected,
//!   which is also what keeps every report byte-deterministic).
//! * **Versioned and strict.** Every request and response carries
//!   `schema_version`; decoding rejects unknown object fields (the
//!   `deny_unknown_fields` discipline), so schema drift is loud.
//! * **Byte-stable reports.** The report encoding *is*
//!   [`FdRunReport::to_json`] — the deterministic JSON the equivalence
//!   tests already compare — so a service response can be checked
//!   byte-for-byte against a local [`Cluster::run`] of the same spec.
//!   Decoding inverts it up to the fields the encoding carries
//!   (`sent_by`/`dropped_invalid` are not on the wire and decode to
//!   their empty defaults); `encode ∘ decode` is the identity on wire
//!   bytes, which the round-trip proptests assert.
//!
//! ## Request example
//!
//! ```json
//! {"schema_version": 1, "id": "r0", "protocol": "chain_fd", "n": 7,
//!  "t": 2, "seed": 1, "scheme": "tiny", "engine": "sync",
//!  "latency": "sync", "input": "76", "default_value": "64",
//!  "adversary": {"kind": "silent", "corrupt": [1]}}
//! ```
//!
//! `protocol`, `n`, and `input` are required; everything else defaults
//! (`t` to `⌊(n−1)/3⌋` clamped, `seed` to 1, `scheme` to `tiny`, engine
//! and latency to synchronous, the adversary to honest). Byte values
//! (`input`, `default_value`) are hex-encoded. Unknown fields are
//! errors. A scheme alias decodes to its canonical name (`"dsa"` →
//! `"dsa-tiny"`, via [`SpecBuilder::with_scheme`]), so aliases share
//! service shards and sessions.
//!
//! [`Cluster::run`]: crate::runner::Cluster::run
//! [`FdRunReport::to_json`]: crate::runner::FdRunReport::to_json

use crate::adversary::{AdversaryKind, AdversarySpec};
use crate::ba::Grade;
use crate::outcome::{DiscoveryReason, Outcome};
use crate::runner::{FdRunReport, Schedule};
use crate::spec::{Protocol, SpecBuilder};
use fd_simnet::{Engine, LatencySpec, LinkLatencySpec, NetStats, NodeId};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::Arc;

/// The wire schema this module speaks. Bump on incompatible change; a
/// decoder rejects every other version.
pub const SCHEMA_VERSION: i128 = 1;

/// Deepest nesting of arrays and objects [`Value::parse`] accepts. Wire-v1
/// documents nest a few levels; the bound keeps a hostile line such as
/// 20 000 `[` from overflowing the parser's stack (and the recursive drop
/// of a `Value`), and turns it into an error that names the limit.
pub const MAX_DEPTH: usize = 64;

// ---------------------------------------------------------------------
// JSON value type, parser, writer
// ---------------------------------------------------------------------

/// A JSON value restricted to what the wire format needs: no floats (the
/// whole report surface is integer-valued, and floats would break byte
/// determinism).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// An integer (floats and exponents are rejected at parse time).
    Int(i128),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, in insertion order (writing preserves it).
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Parse a JSON document. Rejects floats, duplicate object keys,
    /// nesting deeper than [`MAX_DEPTH`], and trailing garbage.
    pub fn parse(input: &str) -> Result<Value, String> {
        let mut p = Parser {
            bytes: input.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing data at byte {}", p.pos));
        }
        Ok(value)
    }

    /// An object from `&str` keys, in the given order.
    pub fn obj(fields: Vec<(&str, Value)>) -> Value {
        Value::Obj(
            fields
                .into_iter()
                .map(|(key, value)| (key.to_string(), value))
                .collect(),
        )
    }

    /// Serialize as one line of JSON (stable field order, no whitespace
    /// variation beyond `", "` / `": "` separators).
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        self.write(&mut s);
        s
    }

    /// Serialize in the document layout of the module docs: one line per
    /// top-level field, one line per object of a top-level array of
    /// objects, and a trailing newline.
    pub fn to_document(&self) -> String {
        let mut s = String::new();
        match self {
            Value::Obj(fields) if !fields.is_empty() => {
                s.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    s.push_str(if i > 0 { ",\n  " } else { "\n  " });
                    write_json_string(&mut s, key);
                    s.push_str(": ");
                    match value {
                        Value::Arr(items)
                            if !items.is_empty()
                                && items.iter().all(|item| matches!(item, Value::Obj(_))) =>
                        {
                            s.push('[');
                            for (j, item) in items.iter().enumerate() {
                                s.push_str(if j > 0 { ",\n    " } else { "\n    " });
                                item.write(&mut s);
                            }
                            s.push_str("\n  ]");
                        }
                        other => other.write(&mut s),
                    }
                }
                s.push_str("\n}");
            }
            other => other.write(&mut s),
        }
        s.push('\n');
        s
    }

    fn write(&self, s: &mut String) {
        match self {
            Value::Null => s.push_str("null"),
            Value::Bool(b) => s.push_str(if *b { "true" } else { "false" }),
            // `fmt::Write` for `String` cannot fail.
            Value::Int(i) => {
                let _ = write!(s, "{i}");
            }
            Value::Str(v) => write_json_string(s, v),
            Value::Arr(items) => {
                s.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        s.push_str(", ");
                    }
                    item.write(s);
                }
                s.push(']');
            }
            Value::Obj(fields) => {
                s.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        s.push_str(", ");
                    }
                    write_json_string(s, key);
                    s.push_str(": ");
                    value.write(s);
                }
                s.push('}');
            }
        }
    }

    /// Field lookup on an object.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The integer payload, if this is an integer.
    pub fn as_int(&self) -> Option<i128> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Whether this is the JSON `null` literal.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }
}

macro_rules! value_from {
    ($($ty:ty => |$v:ident| $value:expr),* $(,)?) => {$(
        impl From<$ty> for Value {
            fn from($v: $ty) -> Value {
                $value
            }
        }
    )*};
}

value_from! {
    bool => |b| Value::Bool(b),
    &str => |s| Value::Str(s.to_string()),
    String => |s| Value::Str(s),
    i128 => |i| Value::Int(i),
    u16 => |i| Value::Int(i.into()),
    u32 => |i| Value::Int(i.into()),
    u64 => |i| Value::Int(i.into()),
    usize => |i| Value::Int(i as i128),
    u128 => |i| Value::Int(i as i128),
}

/// `None` is `null`.
impl<T: Into<Value>> From<Option<T>> for Value {
    fn from(v: Option<T>) -> Value {
        v.map_or(Value::Null, Into::into)
    }
}

impl<T: Clone + Into<Value>> From<&[T]> for Value {
    fn from(items: &[T]) -> Value {
        Value::Arr(items.iter().cloned().map(Into::into).collect())
    }
}

/// The one JSON string escaper: runs that need no escape are copied with
/// one `push_str`.
fn write_json_string(s: &mut String, v: &str) {
    s.push('"');
    let mut run = 0;
    for (i, b) in v.bytes().enumerate() {
        let escape = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "",
            _ => continue,
        };
        // Every escaped byte is ASCII, so `i` is a char boundary.
        s.push_str(&v[run..i]);
        if escape.is_empty() {
            let _ = write!(s, "\\u{b:04x}");
        } else {
            s.push_str(escape);
        }
        run = i + 1;
    }
    s.push_str(&v[run..]);
    s.push('"');
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around `pos`.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", char::from(b), self.pos))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            None => Err("unexpected end of input".to_string()),
            Some(b'n') => self.keyword("null", Value::Null),
            Some(b't') => self.keyword("true", Value::Bool(true)),
            Some(b'f') => self.keyword("false", Value::Bool(false)),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b'[' | b'{') => self.nested(),
            Some(b'-') | Some(b'0'..=b'9') => self.number(),
            Some(other) => Err(format!(
                "unexpected byte {:?} at {}",
                char::from(other),
                self.pos
            )),
        }
    }

    fn keyword(&mut self, word: &str, value: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if matches!(self.peek(), Some(b'.') | Some(b'e') | Some(b'E')) {
            return Err(format!(
                "floating-point numbers are not part of wire schema v1 (byte {})",
                self.pos
            ));
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("digits are ascii");
        text.parse::<i128>()
            .map(Value::Int)
            .map_err(|e| format!("number {text}: {e}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let code = self.hex4()?;
                            // Surrogate pairs are rejected rather than
                            // combined: nothing on this wire emits them.
                            let c = char::from_u32(u32::from(code)).ok_or_else(|| {
                                format!("invalid \\u escape {code:04x} (surrogates unsupported)")
                            })?;
                            out.push(c);
                        }
                        other => {
                            return Err(format!("invalid escape {other:?} at byte {}", self.pos))
                        }
                    }
                    self.pos += 1;
                }
                Some(b) if b < 0x20 => {
                    return Err(format!("raw control byte {b:#04x} in string"));
                }
                Some(_) => {
                    // Consume the whole run of plain bytes up to the next
                    // quote, escape or control byte in one step. All three
                    // delimiters are ASCII, so the run ends on a scalar
                    // boundary of the (valid UTF-8) input.
                    let run = &self.bytes[self.pos..];
                    let len = run
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
                        .unwrap_or(run.len());
                    out.push_str(std::str::from_utf8(&run[..len]).map_err(|e| e.to_string())?);
                    self.pos += len;
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u16, String> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err("truncated \\u escape".to_string());
        }
        let text = std::str::from_utf8(&self.bytes[self.pos..end]).map_err(|e| e.to_string())?;
        let code = u16::from_str_radix(text, 16).map_err(|e| format!("\\u escape: {e}"))?;
        self.pos = end - 1; // caller advances past the last digit
        Ok(code)
    }

    /// An array or object, one level deeper than the caller.
    fn nested(&mut self) -> Result<Value, String> {
        if self.depth == MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} levels at byte {}",
                self.pos
            ));
        }
        self.depth += 1;
        let value = if self.peek() == Some(b'[') {
            self.array()
        } else {
            self.object()
        };
        self.depth -= 1;
        value
    }

    fn array(&mut self) -> Result<Value, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        let mut fields: Vec<(String, Value)> = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            if fields.iter().any(|(k, _)| *k == key) {
                return Err(format!("duplicate object key {key:?}"));
            }
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }
}

// ---------------------------------------------------------------------
// Decoding helpers (deny_unknown_fields discipline)
// ---------------------------------------------------------------------

/// Check an object only carries `allowed` keys — the wire-v1 analogue of
/// serde's `deny_unknown_fields`.
fn deny_unknown(obj: &Value, allowed: &[&str], what: &str) -> Result<(), String> {
    let Value::Obj(fields) = obj else {
        return Err(format!("{what}: expected an object"));
    };
    for (key, _) in fields {
        if !allowed.contains(&key.as_str()) {
            return Err(format!("{what}: unknown field {key:?}"));
        }
    }
    Ok(())
}

fn require<'v>(obj: &'v Value, key: &str, what: &str) -> Result<&'v Value, String> {
    obj.get(key)
        .ok_or_else(|| format!("{what}: missing field {key:?}"))
}

fn int_field(obj: &Value, key: &str, what: &str) -> Result<i128, String> {
    require(obj, key, what)?
        .as_int()
        .ok_or_else(|| format!("{what}: field {key:?} must be an integer"))
}

/// An integer field that fits `T`.
fn uint_field<T: TryFrom<i128>>(obj: &Value, key: &str, what: &str) -> Result<T, String> {
    T::try_from(int_field(obj, key, what)?)
        .map_err(|_| format!("{what}: field {key:?} out of range"))
}

/// An integer array entry that fits `T`.
fn uint<T: TryFrom<i128>>(value: &Value) -> Option<T> {
    value.as_int().and_then(|i| T::try_from(i).ok())
}

/// A two-element array entry `[a, b]`.
fn pair(value: &Value) -> Option<(&Value, &Value)> {
    match value.as_arr()? {
        [a, b] => Some((a, b)),
        _ => None,
    }
}

fn bool_field(obj: &Value, key: &str, what: &str) -> Result<bool, String> {
    require(obj, key, what)?
        .as_bool()
        .ok_or_else(|| format!("{what}: field {key:?} must be a boolean"))
}

/// The entries of array `value` (field `key`), each decoded by `entry`.
fn list<T>(
    value: &Value,
    key: &str,
    what: &str,
    entry: impl Fn(&Value) -> Result<T, String>,
) -> Result<Vec<T>, String> {
    value
        .as_arr()
        .ok_or_else(|| format!("{what}: field {key:?} must be an array"))?
        .iter()
        .map(entry)
        .collect()
}

/// [`list`] of a required field.
fn list_field<T>(
    obj: &Value,
    key: &str,
    what: &str,
    entry: impl Fn(&Value) -> Result<T, String>,
) -> Result<Vec<T>, String> {
    list(require(obj, key, what)?, key, what, entry)
}

fn counts_field(obj: &Value, key: &str, what: &str) -> Result<Vec<usize>, String> {
    list_field(obj, key, what, |v| {
        uint(v).ok_or_else(|| format!("{what}: {key} entries must be counts"))
    })
}

/// The optional request id a request or response carries.
fn id_field(obj: &Value, what: &str) -> Result<Option<String>, String> {
    match obj.get("id") {
        None | Some(Value::Null) => Ok(None),
        Some(v) => v
            .as_str()
            .map(|id| Some(id.to_string()))
            .ok_or_else(|| format!("{what}: id must be a string")),
    }
}

fn str_field<'v>(obj: &'v Value, key: &str, what: &str) -> Result<&'v str, String> {
    require(obj, key, what)?
        .as_str()
        .ok_or_else(|| format!("{what}: field {key:?} must be a string"))
}

fn check_schema_version(obj: &Value, what: &str) -> Result<(), String> {
    let version = int_field(obj, "schema_version", what)?;
    if version != SCHEMA_VERSION {
        return Err(format!(
            "{what}: schema_version {version} unsupported (this build speaks {SCHEMA_VERSION})"
        ));
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Hex byte values
// ---------------------------------------------------------------------

/// Lowercase hex encoding of a byte value (the request encoding of
/// `input` / `default_value`, and the report encoding of decided values).
pub fn hex_encode(bytes: &[u8]) -> String {
    let mut s = String::new();
    push_hex(&mut s, bytes);
    s
}

/// The one hex encoder: two digits per byte, appended to `s`.
fn push_hex(s: &mut String, bytes: &[u8]) {
    const DIGITS: &[u8; 16] = b"0123456789abcdef";
    s.reserve(2 * bytes.len());
    for &b in bytes {
        s.push(char::from(DIGITS[usize::from(b >> 4)]));
        s.push(char::from(DIGITS[usize::from(b & 0xf)]));
    }
}

/// Inverse of [`hex_encode`].
pub fn hex_decode(text: &str) -> Result<Vec<u8>, String> {
    if !text.len().is_multiple_of(2) {
        return Err(format!("hex value has odd length {}", text.len()));
    }
    (0..text.len() / 2)
        .map(|i| {
            u8::from_str_radix(&text[2 * i..2 * i + 2], 16).map_err(|e| format!("hex value: {e}"))
        })
        .collect()
}

// ---------------------------------------------------------------------
// AdversarySpec
// ---------------------------------------------------------------------

/// Encode an adversary spec as `{"kind": ..., "corrupt": [...]}`.
///
/// [`AdversarySpec::Custom`] carries an arbitrary closure and has no wire
/// form — encoding it is an error, mirroring how custom specs already
/// compare by identity only.
pub fn adversary_to_value(spec: &AdversarySpec) -> Result<Value, String> {
    let (kind, corrupt) = match spec {
        AdversarySpec::Honest => (AdversaryKind::None, Vec::new()),
        AdversarySpec::Scripted { kind, corrupt } => (*kind, corrupt.clone()),
        AdversarySpec::Custom(_) => {
            return Err("custom adversary closures have no wire encoding".to_string())
        }
    };
    Ok(Value::obj(vec![
        ("kind", kind.name().into()),
        (
            "corrupt",
            Value::Arr(corrupt.iter().map(|id| id.0.into()).collect()),
        ),
    ]))
}

/// Decode an adversary spec object (see [`adversary_to_value`]).
pub fn adversary_from_value(value: &Value) -> Result<AdversarySpec, String> {
    deny_unknown(value, &["kind", "corrupt"], "adversary")?;
    let kind = AdversaryKind::parse(str_field(value, "kind", "adversary")?)?;
    let corrupt = match value.get("corrupt") {
        None => Vec::new(),
        Some(nodes) => list(nodes, "corrupt", "adversary", |v| {
            uint(v)
                .map(NodeId)
                .ok_or_else(|| "adversary: corrupt entries must be node ids".to_string())
        })?,
    };
    if kind == AdversaryKind::None {
        if !corrupt.is_empty() {
            return Err("adversary: kind none takes no corrupt set".to_string());
        }
        return Ok(AdversarySpec::Honest);
    }
    if corrupt.is_empty() {
        return Ok(AdversarySpec::scripted(kind));
    }
    Ok(AdversarySpec::scripted_at(kind, corrupt))
}

// ---------------------------------------------------------------------
// Requests (serialized SpecBuilder)
// ---------------------------------------------------------------------

const REQUEST_FIELDS: [&str; 14] = [
    "schema_version",
    "id",
    "protocol",
    "n",
    "t",
    "seed",
    "scheme",
    "engine",
    "latency",
    "link_latency",
    "input",
    "default_value",
    "adversary",
    "schedule",
];

/// Encode a [`SpecBuilder`] (plus an optional request id) as a wire-v1
/// request line.
///
/// Fault plans have no wire encoding (the `FaultPlan` type is
/// write-only), so builders carrying link faults are rejected; custom
/// adversaries likewise (see [`adversary_to_value`]).
pub fn request_to_json(builder: &SpecBuilder, id: Option<&str>) -> Result<String, String> {
    if !builder.faults.is_empty() {
        return Err("link-fault plans have no wire encoding in schema v1".to_string());
    }
    let mut fields: Vec<(&str, Value)> = vec![("schema_version", SCHEMA_VERSION.into())];
    if let Some(id) = id {
        fields.push(("id", id.into()));
    }
    fields.push(("protocol", builder.protocol.name().into()));
    fields.push(("n", builder.n.into()));
    if let Some(t) = builder.t {
        fields.push(("t", t.into()));
    }
    fields.push(("seed", builder.seed.into()));
    fields.push(("scheme", builder.scheme.as_str().into()));
    fields.push(("engine", builder.engine.name().into()));
    fields.push(("latency", builder.latency.name().into()));
    if !builder.link_latency.is_empty() {
        fields.push((
            "link_latency",
            Value::Arr(
                builder
                    .link_latency
                    .iter()
                    .map(|l| l.name().into())
                    .collect(),
            ),
        ));
    }
    fields.push(("input", hex_encode(&builder.input).into()));
    fields.push(("default_value", hex_encode(&builder.default_value).into()));
    if !builder.adversary.is_honest() {
        fields.push(("adversary", adversary_to_value(&builder.adversary)?));
    }
    if let Some(schedule) = &builder.schedule {
        let mut entries: Vec<(u64, u64)> = schedule.iter().map(|(&k, &v)| (k, v)).collect();
        entries.sort_unstable();
        fields.push((
            "schedule",
            Value::Arr(
                entries
                    .into_iter()
                    .map(|(index, ticks)| Value::Arr(vec![index.into(), ticks.into()]))
                    .collect(),
            ),
        ));
    }
    Ok(Value::obj(fields).to_json())
}

/// Decode a wire-v1 request line into a [`SpecBuilder`] plus its
/// optional request id. Unknown fields and unsupported schema versions
/// are errors; the builder is *not* yet validated (call
/// [`SpecBuilder::build`] for that).
pub fn request_from_json(json: &str) -> Result<(SpecBuilder, Option<String>), String> {
    request_from_value(&Value::parse(json)?)
}

/// [`request_from_json`] on an already parsed line.
pub(crate) fn request_from_value(value: &Value) -> Result<(SpecBuilder, Option<String>), String> {
    deny_unknown(value, &REQUEST_FIELDS, "request")?;
    check_schema_version(value, "request")?;
    let id = id_field(value, "request")?;
    let protocol = Protocol::parse(str_field(value, "protocol", "request")?)?;
    let mut builder = SpecBuilder::new(protocol, uint_field(value, "n", "request")?);
    if value.get("t").is_some() {
        builder = builder.with_t(uint_field(value, "t", "request")?);
    }
    if value.get("seed").is_some() {
        builder = builder.with_seed(uint_field(value, "seed", "request")?);
    }
    if value.get("scheme").is_some() {
        builder = builder.with_scheme(str_field(value, "scheme", "request")?);
    }
    if value.get("engine").is_some() {
        builder = builder.with_engine(Engine::parse(str_field(value, "engine", "request")?)?);
    }
    if value.get("latency").is_some() {
        builder =
            builder.with_latency(LatencySpec::parse(str_field(value, "latency", "request")?)?);
    }
    if let Some(links) = value.get("link_latency") {
        builder = builder.with_link_latency(list(links, "link_latency", "request", |v| {
            v.as_str()
                .ok_or_else(|| "request: link_latency entries must be strings".to_string())
                .and_then(LinkLatencySpec::parse)
        })?);
    }
    builder = builder.with_input(hex_decode(str_field(value, "input", "request")?)?);
    if value.get("default_value").is_some() {
        builder =
            builder.with_default_value(hex_decode(str_field(value, "default_value", "request")?)?);
    }
    if let Some(adv) = value.get("adversary") {
        builder = builder.with_adversary(adversary_from_value(adv)?);
    }
    if let Some(schedule) = value.get("schedule").filter(|s| !s.is_null()) {
        let entries = list(schedule, "schedule", "request", |v| {
            pair(v)
                .and_then(|(index, ticks)| Some((uint(index)?, uint(ticks)?)))
                .ok_or_else(|| "request: schedule entries are [index, ticks]".to_string())
        })?;
        let mut map: HashMap<u64, u64> = HashMap::with_capacity(entries.len());
        for (index, ticks) in entries {
            if map.insert(index, ticks).is_some() {
                return Err(format!("request: duplicate schedule index {index}"));
            }
        }
        builder = builder.with_schedule(Some(Arc::new(map) as Schedule));
    }
    Ok((builder, id))
}

// ---------------------------------------------------------------------
// Run reports
// ---------------------------------------------------------------------

/// The report as a [`Value`]: [`FdRunReport::to_json`] writes it, so the
/// in-process comparison surface and the wire share one encoding.
pub(crate) fn report_to_value(report: &FdRunReport) -> Value {
    let delay_log = report.delay_log.as_ref().map(|log| {
        Value::Arr(
            log.iter()
                .map(|&(round, ticks)| Value::Arr(vec![round.into(), ticks.into()]))
                .collect(),
        )
    });
    Value::obj(vec![
        (
            "outcomes",
            Value::Arr(report.outcomes.iter().map(outcome_to_value).collect()),
        ),
        ("messages", report.stats.messages_total.into()),
        ("bytes", report.stats.bytes_total.into()),
        ("rounds", report.stats.rounds.into()),
        ("per_round", report.stats.per_round.as_slice().into()),
        ("used_fallback", report.used_fallback.as_slice().into()),
        (
            "grades",
            Value::Arr(report.grades.iter().map(|&g| grade_to_value(g)).collect()),
        ),
        ("delay_log", delay_log.into()),
    ])
}

/// The one outcome encoding: `faulty` for a substituted node, `pending`,
/// `decided:<hex>`, or `discovered:<reason>`.
fn outcome_to_value(outcome: &Option<Outcome>) -> Value {
    Value::Str(match outcome {
        None => "faulty".to_string(),
        Some(Outcome::Pending) => "pending".to_string(),
        Some(Outcome::Decided(v)) => {
            let mut s = String::from("decided:");
            push_hex(&mut s, v);
            s
        }
        Some(Outcome::Discovered(r)) => format!("discovered:{r}"),
    })
}

fn grade_to_value(grade: Option<Grade>) -> Value {
    match grade {
        None => Value::Null,
        Some(Grade::Zero) => Value::Int(0),
        Some(Grade::One) => Value::Int(1),
        Some(Grade::Two) => Value::Int(2),
    }
}

fn grade_from_value(value: &Value, what: &str) -> Result<Option<Grade>, String> {
    match value {
        Value::Null => Ok(None),
        Value::Int(0) => Ok(Some(Grade::Zero)),
        Value::Int(1) => Ok(Some(Grade::One)),
        Value::Int(2) => Ok(Some(Grade::Two)),
        other => Err(format!("{what}: invalid grade {other:?}")),
    }
}

fn outcome_from_wire(text: &str) -> Result<Option<Outcome>, String> {
    if text == "faulty" {
        return Ok(None);
    }
    if text == "pending" {
        return Ok(Some(Outcome::Pending));
    }
    if let Some(hex) = text.strip_prefix("decided:") {
        return Ok(Some(Outcome::Decided(hex_decode(hex)?)));
    }
    if let Some(reason) = text.strip_prefix("discovered:") {
        return Ok(Some(Outcome::Discovered(discovery_from_wire(reason)?)));
    }
    Err(format!("unknown outcome encoding {text:?}"))
}

/// Parse the report encoding of a [`DiscoveryReason`] — the stable
/// `Display` strings [`FdRunReport::to_json`] has always emitted.
pub fn discovery_from_wire(text: &str) -> Result<DiscoveryReason, String> {
    let round = |prefix: &str| -> Option<Result<u32, String>> {
        text.strip_prefix(prefix).map(|rest| {
            rest.parse::<u32>()
                .map_err(|e| format!("discovery reason {text:?}: {e}"))
        })
    };
    if let Some(round) = round("expected message missing in round ") {
        return Ok(DiscoveryReason::MissingMessage { round: round? });
    }
    if let Some(round) = round("unexpected message in round ") {
        return Ok(DiscoveryReason::UnexpectedMessage { round: round? });
    }
    Ok(match text {
        "malformed payload" => DiscoveryReason::Malformed,
        "signature failed test predicate" => DiscoveryReason::BadSignature,
        "chain layer name mismatch" => DiscoveryReason::NameMismatch,
        "no accepted key for claimed signer" => DiscoveryReason::UnknownSigner,
        "chain structure violates protocol" => DiscoveryReason::BadStructure,
        "conflicting values presented" => DiscoveryReason::Equivocation,
        other => return Err(format!("unknown discovery reason {other:?}")),
    })
}

/// Decode a wire report back into an [`FdRunReport`].
///
/// The wire format does not carry `sent_by` / `dropped_invalid` (they
/// decode to their empty defaults), so this is a right inverse of
/// [`FdRunReport::to_json`]: encoding the decoded report reproduces the
/// input bytes.
pub fn report_from_json(json: &str) -> Result<FdRunReport, String> {
    report_from_value(&Value::parse(json)?)
}

fn report_from_value(value: &Value) -> Result<FdRunReport, String> {
    deny_unknown(
        value,
        &[
            "outcomes",
            "messages",
            "bytes",
            "rounds",
            "per_round",
            "used_fallback",
            "grades",
            "delay_log",
        ],
        "report",
    )?;
    let outcomes = list_field(value, "outcomes", "report", |v| {
        v.as_str()
            .ok_or_else(|| "report: outcomes entries must be strings".to_string())
            .and_then(outcome_from_wire)
    })?;
    let used_fallback = list_field(value, "used_fallback", "report", |v| {
        v.as_bool()
            .ok_or_else(|| "report: used_fallback entries must be booleans".to_string())
    })?;
    let grades = list_field(value, "grades", "report", |v| grade_from_value(v, "report"))?;
    let delay_log = match require(value, "delay_log", "report")? {
        Value::Null => None,
        log => Some(list(log, "delay_log", "report", |v| {
            pair(v)
                .and_then(|(round, ticks)| Some((uint(round)?, uint(ticks)?)))
                .ok_or_else(|| "report: delay_log entries are [round, ticks]".to_string())
        })?),
    };
    // `sent_by` / `dropped_invalid` are not on the wire; they decode to
    // their empty defaults (see the module docs on lossy projection).
    let stats = NetStats {
        messages_total: uint_field(value, "messages", "report")?,
        bytes_total: uint_field(value, "bytes", "report")?,
        rounds: uint_field(value, "rounds", "report")?,
        per_round: counts_field(value, "per_round", "report")?,
        ..NetStats::default()
    };
    Ok(FdRunReport {
        outcomes,
        stats,
        used_fallback,
        grades,
        delay_log,
        // Phases are a local observation, never on the wire (see
        // [`crate::obs`]): decoded reports carry none.
        phases: None,
    })
}

// ---------------------------------------------------------------------
// Responses
// ---------------------------------------------------------------------

/// A decoded service response: either an executed run or an error.
#[derive(Debug)]
pub struct WireResponse {
    /// Echo of the request id, if one was given.
    pub id: Option<String>,
    /// The shard that executed the run (errors report the routed shard
    /// when known, else 0).
    pub shard: usize,
    /// Whether the run reused a pooled key distribution (always `false`
    /// for key-free protocols and fresh sessions).
    pub keydist_reused: bool,
    /// Messages of the key distribution backing the run (`None` for
    /// key-free protocols).
    pub keydist_messages: Option<usize>,
    /// Wall-clock execution time in microseconds.
    pub wall_us: u64,
    /// The run report, or the error message.
    pub report: Result<FdRunReport, String>,
    /// The raw report JSON exactly as it appeared on the wire (the
    /// byte-identity comparison surface), empty for errors.
    pub report_json: String,
}

/// The fields every response opens with: the schema version, the request
/// id (`null` when the request carried none) and `ok`.
fn envelope(id: Option<&str>, ok: bool) -> Vec<(&'static str, Value)> {
    vec![
        ("schema_version", SCHEMA_VERSION.into()),
        ("id", id.into()),
        ("ok", ok.into()),
    ]
}

/// Encode a success response. `report_json` must be the output of
/// [`FdRunReport::to_json`] for the executed run; it is appended as it
/// stands, not parsed again.
pub fn response_to_json(
    id: Option<&str>,
    shard: usize,
    keydist_reused: bool,
    keydist_messages: Option<usize>,
    wall_us: u64,
    report_json: &str,
) -> String {
    let mut fields = envelope(id, true);
    fields.push(("shard", shard.into()));
    fields.push(("keydist_reused", keydist_reused.into()));
    fields.push(("keydist_messages", keydist_messages.into()));
    fields.push(("wall_us", wall_us.into()));
    let mut s = String::with_capacity(report_json.len() + 160);
    Value::obj(fields).write(&mut s);
    // Reopen the object and close it again around the encoded report.
    s.pop();
    s.push_str(", \"report\": ");
    s.push_str(report_json);
    s.push('}');
    s
}

/// Encode an error response.
pub fn error_to_json(id: Option<&str>, error: &str) -> String {
    let mut fields = envelope(id, false);
    fields.push(("error", error.into()));
    Value::obj(fields).to_json()
}

/// Decode a response line (success or error).
pub fn response_from_json(json: &str) -> Result<WireResponse, String> {
    response_from_value(&Value::parse(json)?)
}

fn response_from_value(value: &Value) -> Result<WireResponse, String> {
    deny_unknown(
        value,
        &[
            "schema_version",
            "id",
            "ok",
            "shard",
            "keydist_reused",
            "keydist_messages",
            "wall_us",
            "report",
            "error",
        ],
        "response",
    )?;
    check_schema_version(value, "response")?;
    let id = id_field(value, "response")?;
    if !bool_field(value, "ok", "response")? {
        return Ok(WireResponse {
            id,
            shard: 0,
            keydist_reused: false,
            keydist_messages: None,
            wall_us: 0,
            report: Err(str_field(value, "error", "response")?.to_string()),
            report_json: String::new(),
        });
    }
    let keydist_messages = match require(value, "keydist_messages", "response")? {
        Value::Null => None,
        v => Some(
            uint(v)
                .ok_or_else(|| "response: keydist_messages must be null or a count".to_string())?,
        ),
    };
    let report = require(value, "report", "response")?;
    Ok(WireResponse {
        id,
        shard: uint_field(value, "shard", "response")?,
        keydist_reused: bool_field(value, "keydist_reused", "response")?,
        keydist_messages,
        wall_us: uint_field(value, "wall_us", "response")?,
        report: Ok(report_from_value(report)?),
        report_json: report.to_json(),
    })
}

// ---------------------------------------------------------------------
// Registry dialect (deployment layer)
// ---------------------------------------------------------------------

/// Per-worker result record carried through the registry at teardown:
/// everything the orchestrator needs to reassemble the standard
/// [`FdRunReport`] (protocol-phase counters and outcome) plus the
/// key-distribution phase counters for the setup summary line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerSummary {
    /// The worker's slot.
    pub node: usize,
    /// The slot's outcome (`None` — wire `"faulty"` — for a slot the
    /// adversary substituted).
    pub outcome: Option<Outcome>,
    /// Whether the node took the BA fallback (FD→BA runs only).
    pub used_fallback: bool,
    /// The node's decision grade (degradable-agreement runs only).
    pub grade: Option<Grade>,
    /// Protocol-phase rounds executed (every worker of a run must agree).
    pub rounds: u32,
    /// Protocol-phase messages this node sent.
    pub messages: usize,
    /// Protocol-phase bytes this node sent.
    pub bytes: usize,
    /// Protocol-phase sends per round, indexed by round.
    pub per_round: Vec<usize>,
    /// Protocol-phase sends to invalid destinations (dropped).
    pub dropped: usize,
    /// Key-distribution rounds executed (0 for key-free protocols).
    pub kd_rounds: u32,
    /// Key-distribution messages this node sent.
    pub kd_messages: usize,
    /// Key-distribution bytes this node sent.
    pub kd_bytes: usize,
    /// Key-distribution sends per round.
    pub kd_per_round: Vec<usize>,
    /// Anomalies the node recorded during key distribution.
    pub kd_anomalies: usize,
    /// The incarnation (restart generation) that produced this summary —
    /// the registry fences deposits from stale incarnations.
    pub incarnation: u64,
    /// Transport/registry retries this worker spent (backoff-healed
    /// transient faults; surfaced in the resilience report).
    pub retries: u64,
}

/// A request to the discovery registry (`lafd registry`), in
/// newline-delimited wire-v1, one line per request and per reply: a
/// worker registers and later tears down; the orchestrator collects.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegistryRequest {
    /// Announce `(node, addr)` for a run and block until all `n` peers
    /// have announced theirs; the reply is the full roster. This is the
    /// one wait of a run: every worker meshes up once it returns.
    Register {
        /// Run identifier (one registry serves many runs).
        run: String,
        /// The registering worker's slot.
        node: usize,
        /// Expected system size.
        n: usize,
        /// The worker's listener address (`host:port`).
        addr: String,
        /// Restart generation: the registry admits the highest
        /// incarnation seen for the run and fences lower ones.
        incarnation: u64,
    },
    /// Deposit the worker's final [`WorkerSummary`] and leave the run.
    Teardown {
        /// Run identifier.
        run: String,
        /// The departing worker's slot.
        node: usize,
        /// The worker's result record.
        summary: WorkerSummary,
        /// Restart generation (stale incarnations are fenced).
        incarnation: u64,
    },
    /// Fetch every summary deposited for the run (the orchestrator's
    /// aggregation step; does not block).
    Collect {
        /// Run identifier.
        run: String,
    },
}

/// A registry reply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegistryReply {
    /// The full roster, `(slot, addr)` in slot order — the answer to
    /// [`RegistryRequest::Register`] once all peers arrived.
    Roster {
        /// `(slot, addr)` pairs, ascending by slot.
        peers: Vec<(usize, String)>,
    },
    /// Acknowledgement of a [`RegistryRequest::Teardown`].
    Ack,
    /// Deposited summaries — the answer to [`RegistryRequest::Collect`].
    Summaries {
        /// Whatever summaries have been deposited so far, in deposit
        /// order.
        workers: Vec<WorkerSummary>,
    },
    /// The request could not be served.
    Error {
        /// Human-readable reason.
        error: String,
    },
}

/// A `u64` field that old (pre-resilience) wire-v1 peers omit: absent
/// decodes as 0, so summaries and requests from older builds stay valid.
fn opt_u64_field(obj: &Value, key: &str, what: &str) -> Result<u64, String> {
    match obj.get(key) {
        None => Ok(0),
        Some(v) => v
            .as_int()
            .and_then(|i| u64::try_from(i).ok())
            .ok_or_else(|| format!("{what}: field {key:?} must be a nonnegative integer")),
    }
}

fn summary_to_value(summary: &WorkerSummary) -> Value {
    Value::obj(vec![
        ("node", summary.node.into()),
        ("outcome", outcome_to_value(&summary.outcome)),
        ("used_fallback", summary.used_fallback.into()),
        ("grade", grade_to_value(summary.grade)),
        ("rounds", summary.rounds.into()),
        ("messages", summary.messages.into()),
        ("bytes", summary.bytes.into()),
        ("per_round", summary.per_round.as_slice().into()),
        ("dropped", summary.dropped.into()),
        ("kd_rounds", summary.kd_rounds.into()),
        ("kd_messages", summary.kd_messages.into()),
        ("kd_bytes", summary.kd_bytes.into()),
        ("kd_per_round", summary.kd_per_round.as_slice().into()),
        ("kd_anomalies", summary.kd_anomalies.into()),
        ("incarnation", summary.incarnation.into()),
        ("retries", summary.retries.into()),
    ])
}

fn summary_from_value(value: &Value) -> Result<WorkerSummary, String> {
    let what = "worker summary";
    deny_unknown(
        value,
        &[
            "node",
            "outcome",
            "used_fallback",
            "grade",
            "rounds",
            "messages",
            "bytes",
            "per_round",
            "dropped",
            "kd_rounds",
            "kd_messages",
            "kd_bytes",
            "kd_per_round",
            "kd_anomalies",
            "incarnation",
            "retries",
        ],
        what,
    )?;
    Ok(WorkerSummary {
        node: uint_field(value, "node", what)?,
        outcome: outcome_from_wire(str_field(value, "outcome", what)?)?,
        used_fallback: bool_field(value, "used_fallback", what)?,
        grade: grade_from_value(require(value, "grade", what)?, what)?,
        rounds: uint_field(value, "rounds", what)?,
        messages: uint_field(value, "messages", what)?,
        bytes: uint_field(value, "bytes", what)?,
        per_round: counts_field(value, "per_round", what)?,
        dropped: uint_field(value, "dropped", what)?,
        kd_rounds: uint_field(value, "kd_rounds", what)?,
        kd_messages: uint_field(value, "kd_messages", what)?,
        kd_bytes: uint_field(value, "kd_bytes", what)?,
        kd_per_round: counts_field(value, "kd_per_round", what)?,
        kd_anomalies: uint_field(value, "kd_anomalies", what)?,
        incarnation: opt_u64_field(value, "incarnation", what)?,
        retries: opt_u64_field(value, "retries", what)?,
    })
}

/// Encode a registry request as one wire-v1 JSON document.
pub fn registry_request_to_json(request: &RegistryRequest) -> String {
    let mut fields: Vec<(&str, Value)> = vec![("schema_version", SCHEMA_VERSION.into())];
    match request {
        RegistryRequest::Register {
            run,
            node,
            n,
            addr,
            incarnation,
        } => fields.extend([
            ("op", "register".into()),
            ("run", run.as_str().into()),
            ("node", (*node).into()),
            ("n", (*n).into()),
            ("addr", addr.as_str().into()),
            ("incarnation", (*incarnation).into()),
        ]),
        RegistryRequest::Teardown {
            run,
            node,
            summary,
            incarnation,
        } => fields.extend([
            ("op", "teardown".into()),
            ("run", run.as_str().into()),
            ("node", (*node).into()),
            ("summary", summary_to_value(summary)),
            ("incarnation", (*incarnation).into()),
        ]),
        RegistryRequest::Collect { run } => {
            fields.extend([("op", "collect".into()), ("run", run.as_str().into())])
        }
    }
    Value::obj(fields).to_json()
}

/// Decode a registry request; unknown fields and foreign schema versions
/// are errors.
pub fn registry_request_from_json(json: &str) -> Result<RegistryRequest, String> {
    let value = Value::parse(json)?;
    let what = "registry request";
    deny_unknown(
        &value,
        &[
            "schema_version",
            "op",
            "run",
            "node",
            "n",
            "addr",
            "summary",
            "incarnation",
        ],
        what,
    )?;
    check_schema_version(&value, what)?;
    let run = str_field(&value, "run", what)?.to_string();
    match str_field(&value, "op", what)? {
        "register" => Ok(RegistryRequest::Register {
            run,
            node: uint_field(&value, "node", what)?,
            n: uint_field(&value, "n", what)?,
            addr: str_field(&value, "addr", what)?.to_string(),
            incarnation: opt_u64_field(&value, "incarnation", what)?,
        }),
        "teardown" => Ok(RegistryRequest::Teardown {
            run,
            node: uint_field(&value, "node", what)?,
            summary: summary_from_value(require(&value, "summary", what)?)?,
            incarnation: opt_u64_field(&value, "incarnation", what)?,
        }),
        "collect" => Ok(RegistryRequest::Collect { run }),
        other => Err(format!("{what}: unknown op {other:?}")),
    }
}

/// Encode a registry reply as one wire-v1 JSON document.
pub fn registry_reply_to_json(reply: &RegistryReply) -> String {
    let mut fields: Vec<(&str, Value)> = vec![("schema_version", SCHEMA_VERSION.into())];
    match reply {
        RegistryReply::Roster { peers } => {
            let peers = peers
                .iter()
                .map(|(node, addr)| Value::Arr(vec![(*node).into(), addr.as_str().into()]))
                .collect();
            fields.extend([("reply", "roster".into()), ("peers", Value::Arr(peers))]);
        }
        RegistryReply::Ack => fields.push(("reply", "ack".into())),
        RegistryReply::Summaries { workers } => fields.extend([
            ("reply", "summaries".into()),
            (
                "workers",
                Value::Arr(workers.iter().map(summary_to_value).collect()),
            ),
        ]),
        RegistryReply::Error { error } => {
            fields.extend([("reply", "error".into()), ("error", error.as_str().into())])
        }
    }
    Value::obj(fields).to_json()
}

/// Decode a registry reply; unknown fields and foreign schema versions
/// are errors.
pub fn registry_reply_from_json(json: &str) -> Result<RegistryReply, String> {
    let value = Value::parse(json)?;
    let what = "registry reply";
    deny_unknown(
        &value,
        &["schema_version", "reply", "peers", "workers", "error"],
        what,
    )?;
    check_schema_version(&value, what)?;
    match str_field(&value, "reply", what)? {
        "roster" => Ok(RegistryReply::Roster {
            peers: list_field(&value, "peers", what, |v| {
                pair(v)
                    .and_then(|(node, addr)| Some((uint(node)?, addr.as_str()?.to_string())))
                    .ok_or_else(|| format!("{what}: peers entries are [node, addr]"))
            })?,
        }),
        "ack" => Ok(RegistryReply::Ack),
        "summaries" => Ok(RegistryReply::Summaries {
            workers: list_field(&value, "workers", what, summary_from_value)?,
        }),
        "error" => Ok(RegistryReply::Error {
            error: str_field(&value, "error", what)?.to_string(),
        }),
        other => Err(format!("{what}: unknown reply {other:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::Cluster;
    use crate::spec::RunSpec;
    use std::sync::Arc as StdArc;

    #[test]
    fn json_parser_round_trips_basic_documents() {
        for doc in [
            "null",
            "true",
            "[1, -2, 3]",
            "{\"a\": 1, \"b\": [\"x\", null]}",
            "{\"s\": \"quote \\\" backslash \\\\ tab \\t\"}",
        ] {
            let value = Value::parse(doc).unwrap();
            let emitted = value.to_json();
            assert_eq!(Value::parse(&emitted).unwrap(), value);
        }
    }

    #[test]
    fn json_parser_bounds_nesting_with_an_error_naming_the_limit() {
        let arrays = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        let objects = |depth: usize| format!("{}1{}", "{\"a\": ".repeat(depth), "}".repeat(depth));
        for doc in [arrays(MAX_DEPTH), objects(MAX_DEPTH)] {
            assert!(Value::parse(&doc).is_ok());
        }
        for doc in [
            arrays(MAX_DEPTH + 1),
            objects(MAX_DEPTH + 1),
            "[".repeat(200_000),
            "{\"a\": [".repeat(100_000),
        ] {
            let error = Value::parse(&doc).unwrap_err();
            assert!(error.contains("nesting deeper than 64 levels"), "{error}");
        }
    }

    #[test]
    fn json_parser_rejects_floats_duplicates_and_garbage() {
        assert!(Value::parse("1.5").is_err());
        assert!(Value::parse("1e3").is_err());
        assert!(Value::parse("{\"a\": 1, \"a\": 2}").is_err());
        assert!(Value::parse("[1] trailing").is_err());
        assert!(Value::parse("{\"a\"}").is_err());
    }

    #[test]
    fn string_runs_end_exactly_at_escapes_and_delimiters() {
        let parsed = |doc: &str| Value::parse(doc).map(|v| v.as_str().map(str::to_string));
        // Multi-byte scalars immediately before and after an escape.
        assert_eq!(parsed("\"é\\n€\""), Ok(Some("é\n€".to_string())));
        assert_eq!(parsed("\"𝄞\\\"𝄞\""), Ok(Some("𝄞\"𝄞".to_string())));
        assert_eq!(parsed("\"\\\\日本\\\\\""), Ok(Some("\\日本\\".to_string())));
        // A \u escape closing the string, and one between two runs.
        assert_eq!(parsed("\"ab\\u00e9\""), Ok(Some("abé".to_string())));
        assert_eq!(parsed("\"ü\\u0041ü\""), Ok(Some("üAü".to_string())));
        // The writer's own \u escapes (control characters) decode back.
        let control = Value::Str("a\u{1}b\u{1f}".to_string());
        assert_eq!(Value::parse(&control.to_json()), Ok(control));
        // Empty runs: adjacent escapes, the empty string.
        assert_eq!(parsed("\"\\t\\t\""), Ok(Some("\t\t".to_string())));
        assert_eq!(parsed("\"\""), Ok(Some(String::new())));
    }

    #[test]
    fn string_run_errors_are_unchanged() {
        // A raw control byte in the middle of a run.
        assert_eq!(
            Value::parse("\"abc\u{1}def\""),
            Err("raw control byte 0x01 in string".to_string())
        );
        assert_eq!(
            Value::parse("\"é\ndef\""),
            Err("raw control byte 0x0a in string".to_string())
        );
        // A run that reaches the end of input without a closing quote.
        assert_eq!(
            Value::parse("\"abc é"),
            Err("unterminated string".to_string())
        );
        assert_eq!(
            Value::parse("\"abc\\"),
            Err("invalid escape None at byte 5".to_string())
        );
        assert_eq!(
            Value::parse("\"abc\\u00e"),
            Err("truncated \\u escape".to_string())
        );
        assert!(Value::parse("\"abc\\ud800\"")
            .unwrap_err()
            .contains("surrogates unsupported"));
    }

    #[test]
    fn hex_round_trips() {
        for bytes in [vec![], vec![0u8], vec![0xde, 0xad, 0xbe, 0xef]] {
            assert_eq!(hex_decode(&hex_encode(&bytes)).unwrap(), bytes);
        }
        assert!(hex_decode("abc").is_err());
        assert!(hex_decode("zz").is_err());
    }

    #[test]
    fn request_round_trips_through_the_wire() {
        let builder = SpecBuilder::new(Protocol::ChainFd, 7)
            .with_t(2)
            .with_seed(9)
            .with_input(b"v".to_vec())
            .with_adversary(AdversarySpec::scripted(AdversaryKind::SilentRelay));
        let json = request_to_json(&builder, Some("r7")).unwrap();
        let (decoded, id) = request_from_json(&json).unwrap();
        assert_eq!(id.as_deref(), Some("r7"));
        assert_eq!(request_to_json(&decoded, id.as_deref()).unwrap(), json);
    }

    #[test]
    fn request_rejects_unknown_fields_and_wrong_versions() {
        let base = request_to_json(
            &SpecBuilder::new(Protocol::ChainFd, 5).with_input(b"v".to_vec()),
            None,
        )
        .unwrap();
        let unknown = base.replacen("{", "{\"bogus\": 1, ", 1);
        assert!(request_from_json(&unknown).unwrap_err().contains("bogus"));
        let wrong = base.replacen("\"schema_version\": 1", "\"schema_version\": 2", 1);
        assert!(request_from_json(&wrong)
            .unwrap_err()
            .contains("schema_version"));
    }

    #[test]
    fn custom_adversaries_have_no_wire_form() {
        let builder = SpecBuilder::new(Protocol::ChainFd, 5)
            .with_input(b"v".to_vec())
            .with_adversary(AdversarySpec::custom(|_| None));
        assert!(request_to_json(&builder, None).is_err());
    }

    #[test]
    fn report_wire_encoding_inverts_to_json() {
        let cluster = Cluster::new(6, 1, StdArc::new(fd_crypto::SchnorrScheme::test_tiny()), 3);
        for protocol in [Protocol::ChainFd, Protocol::FdToBa, Protocol::Degradable] {
            let spec = RunSpec::new(protocol, b"wire".to_vec());
            let report = cluster.run(&spec);
            let json = report.to_json();
            let decoded = report_from_json(&json).unwrap();
            assert_eq!(decoded.to_json(), json, "{protocol}");
        }
    }

    #[test]
    fn discovered_outcomes_survive_the_wire() {
        let cluster = Cluster::new(6, 1, StdArc::new(fd_crypto::SchnorrScheme::test_tiny()), 3);
        let spec = RunSpec::new(Protocol::ChainFd, b"v".to_vec())
            .with_adversary(AdversarySpec::scripted(AdversaryKind::SilentRelay));
        let report = cluster.run(&spec);
        assert!(report.any_discovery());
        let decoded = report_from_json(&report.to_json()).unwrap();
        assert_eq!(decoded.outcomes, report.outcomes);
        assert_eq!(decoded.to_json(), report.to_json());
    }

    #[test]
    fn every_discovery_reason_parses_back() {
        for reason in [
            DiscoveryReason::MissingMessage { round: 3 },
            DiscoveryReason::UnexpectedMessage { round: 0 },
            DiscoveryReason::Malformed,
            DiscoveryReason::BadSignature,
            DiscoveryReason::NameMismatch,
            DiscoveryReason::UnknownSigner,
            DiscoveryReason::BadStructure,
            DiscoveryReason::Equivocation,
        ] {
            assert_eq!(discovery_from_wire(&reason.to_string()).unwrap(), reason);
        }
        assert!(discovery_from_wire("made-up reason").is_err());
    }

    #[test]
    fn responses_round_trip() {
        let cluster = Cluster::new(5, 1, StdArc::new(fd_crypto::SchnorrScheme::test_tiny()), 1);
        let report = cluster.run(&RunSpec::new(Protocol::ChainFd, b"v".to_vec()));
        let line = response_to_json(Some("a"), 1, true, Some(60), 42, &report.to_json());
        let decoded = response_from_json(&line).unwrap();
        assert_eq!(decoded.id.as_deref(), Some("a"));
        assert_eq!(decoded.shard, 1);
        assert!(decoded.keydist_reused);
        assert_eq!(decoded.keydist_messages, Some(60));
        assert_eq!(decoded.report_json, report.to_json());

        let err = response_from_json(&error_to_json(None, "boom")).unwrap();
        assert_eq!(err.report.unwrap_err(), "boom");
    }

    fn sample_summary() -> WorkerSummary {
        WorkerSummary {
            node: 3,
            outcome: Some(Outcome::Decided(vec![0x76])),
            used_fallback: false,
            grade: Some(Grade::Two),
            rounds: 4,
            messages: 12,
            bytes: 340,
            per_round: vec![6, 6, 0, 0],
            dropped: 0,
            kd_rounds: 4,
            kd_messages: 18,
            kd_bytes: 912,
            kd_per_round: vec![6, 6, 6, 0],
            kd_anomalies: 1,
            incarnation: 1,
            retries: 2,
        }
    }

    #[test]
    fn registry_requests_round_trip() {
        let requests = [
            RegistryRequest::Register {
                run: "r0".to_string(),
                node: 2,
                n: 7,
                addr: "127.0.0.1:4242".to_string(),
                incarnation: 1,
            },
            RegistryRequest::Teardown {
                run: "r0".to_string(),
                node: 3,
                summary: sample_summary(),
                incarnation: 2,
            },
            RegistryRequest::Collect {
                run: "r0".to_string(),
            },
        ];
        for request in requests {
            let json = registry_request_to_json(&request);
            let decoded = registry_request_from_json(&json).unwrap();
            assert_eq!(decoded, request);
            assert_eq!(registry_request_to_json(&decoded), json);
        }
    }

    #[test]
    fn registry_replies_round_trip() {
        let replies = [
            RegistryReply::Roster {
                peers: vec![(0, "a:1".to_string()), (1, "b:2".to_string())],
            },
            RegistryReply::Ack,
            RegistryReply::Summaries {
                workers: vec![sample_summary()],
            },
            RegistryReply::Error {
                error: "no such run".to_string(),
            },
        ];
        for reply in replies {
            let json = registry_reply_to_json(&reply);
            let decoded = registry_reply_from_json(&json).unwrap();
            assert_eq!(decoded, reply);
            assert_eq!(registry_reply_to_json(&decoded), json);
        }
    }

    #[test]
    fn registry_messages_reject_unknown_fields_and_wrong_versions() {
        let request = registry_request_to_json(&RegistryRequest::Collect {
            run: "r0".to_string(),
        });
        let reply = registry_reply_to_json(&RegistryReply::Ack);
        for base in [request, reply] {
            assert!(registry_request_from_json(&base)
                .map(|_| ())
                .or(registry_reply_from_json(&base).map(|_| ()))
                .is_ok());
            let bogus = base.replacen("{", "{\"bogus\": 1, ", 1);
            assert!(registry_request_from_json(&bogus).is_err());
            assert!(registry_reply_from_json(&bogus).is_err());
            let foreign = base.replacen("\"schema_version\": 1", "\"schema_version\": 2", 1);
            assert!(registry_request_from_json(&foreign).is_err());
            assert!(registry_reply_from_json(&foreign).is_err());
        }
    }
}
