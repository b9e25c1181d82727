//! Wire schema v1: the versioned JSON encoding of the execution API.
//!
//! `lafd serve` (see [`crate::service`]) accepts newline-delimited JSON
//! requests and answers with JSON responses; `lafd run --spec file.json`
//! reads the same request format. This module is the single
//! encoder/decoder for that surface: a request is a serialized
//! [`SpecBuilder`], a response embeds a wire-format
//! [`FdRunReport`], and both carry an explicit
//! `"schema_version": 1`.
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
//! errors.
//!
//! [`Cluster::run`]: crate::runner::Cluster::run
//! [`FdRunReport::to_json`]: crate::runner::FdRunReport::to_json

use crate::adversary::{AdversaryKind, AdversarySpec};
use crate::ba::Grade;
use crate::outcome::{DiscoveryReason, Outcome};
use crate::runner::{FdRunReport, Schedule};
use crate::schedsearch::{Perturbation, ScheduleCert, SearchConfig, Strategy};
use crate::spec::{Protocol, SpecBuilder};
use crate::sweep::SchemeSpec;
use fd_simnet::{Engine, LatencySpec, LinkLatencySpec, NetStats, NodeId};
use std::collections::HashMap;
use std::sync::Arc;

/// The wire schema this module speaks. Bump on incompatible change; a
/// decoder rejects every other version.
pub const SCHEMA_VERSION: i128 = 1;

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
    /// Parse a JSON document. Rejects floats, duplicate object keys, and
    /// trailing garbage.
    pub fn parse(input: &str) -> Result<Value, String> {
        let mut p = Parser {
            bytes: input.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing data at byte {}", p.pos));
        }
        Ok(value)
    }

    /// Serialize back to JSON (stable field order, no whitespace
    /// variation beyond `", "` / `": "` separators).
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        self.write(&mut s);
        s
    }

    fn write(&self, s: &mut String) {
        match self {
            Value::Null => s.push_str("null"),
            Value::Bool(b) => s.push_str(if *b { "true" } else { "false" }),
            Value::Int(i) => s.push_str(&i.to_string()),
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

fn write_json_string(s: &mut String, v: &str) {
    s.push('"');
    for c in v.chars() {
        match c {
            '"' => s.push_str("\\\""),
            '\\' => s.push_str("\\\\"),
            '\n' => s.push_str("\\n"),
            '\r' => s.push_str("\\r"),
            '\t' => s.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                s.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => s.push(c),
        }
    }
    s.push('"');
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
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
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
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

fn usize_field(obj: &Value, key: &str, what: &str) -> Result<usize, String> {
    usize::try_from(int_field(obj, key, what)?)
        .map_err(|_| format!("{what}: field {key:?} out of range"))
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
    bytes.iter().map(|b| format!("{b:02x}")).collect()
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
    Ok(Value::Obj(vec![
        ("kind".to_string(), Value::Str(kind.name().to_string())),
        (
            "corrupt".to_string(),
            Value::Arr(
                corrupt
                    .iter()
                    .map(|id| Value::Int(i128::from(id.0)))
                    .collect(),
            ),
        ),
    ]))
}

/// Decode an adversary spec object (see [`adversary_to_value`]).
pub fn adversary_from_value(value: &Value) -> Result<AdversarySpec, String> {
    deny_unknown(value, &["kind", "corrupt"], "adversary")?;
    let kind = AdversaryKind::parse(str_field(value, "kind", "adversary")?)?;
    let corrupt = match value.get("corrupt") {
        None => Vec::new(),
        Some(list) => list
            .as_arr()
            .ok_or_else(|| "adversary: corrupt must be an array".to_string())?
            .iter()
            .map(|v| {
                v.as_int()
                    .and_then(|i| u16::try_from(i).ok())
                    .map(NodeId)
                    .ok_or_else(|| "adversary: corrupt entries must be node ids".to_string())
            })
            .collect::<Result<Vec<NodeId>, String>>()?,
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

const REQUEST_FIELDS: [&str; 13] = [
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
    // "schedule" is appended below; arrays in Rust want a fixed length.
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
    let mut fields: Vec<(String, Value)> =
        vec![("schema_version".to_string(), Value::Int(SCHEMA_VERSION))];
    if let Some(id) = id {
        fields.push(("id".to_string(), Value::Str(id.to_string())));
    }
    fields.push((
        "protocol".to_string(),
        Value::Str(builder.protocol.name().to_string()),
    ));
    fields.push(("n".to_string(), Value::Int(builder.n as i128)));
    if let Some(t) = builder.t {
        fields.push(("t".to_string(), Value::Int(t as i128)));
    }
    fields.push(("seed".to_string(), Value::Int(i128::from(builder.seed))));
    fields.push(("scheme".to_string(), Value::Str(builder.scheme.clone())));
    fields.push((
        "engine".to_string(),
        Value::Str(builder.engine.name().to_string()),
    ));
    fields.push(("latency".to_string(), Value::Str(builder.latency.name())));
    if !builder.link_latency.is_empty() {
        fields.push((
            "link_latency".to_string(),
            Value::Arr(
                builder
                    .link_latency
                    .iter()
                    .map(|l| Value::Str(l.name()))
                    .collect(),
            ),
        ));
    }
    fields.push(("input".to_string(), Value::Str(hex_encode(&builder.input))));
    fields.push((
        "default_value".to_string(),
        Value::Str(hex_encode(&builder.default_value)),
    ));
    if !builder.adversary.is_honest() {
        fields.push((
            "adversary".to_string(),
            adversary_to_value(&builder.adversary)?,
        ));
    }
    if let Some(schedule) = &builder.schedule {
        let mut entries: Vec<(u64, u64)> = schedule.iter().map(|(&k, &v)| (k, v)).collect();
        entries.sort_unstable();
        fields.push((
            "schedule".to_string(),
            Value::Arr(
                entries
                    .into_iter()
                    .map(|(index, ticks)| {
                        Value::Arr(vec![
                            Value::Int(i128::from(index)),
                            Value::Int(i128::from(ticks)),
                        ])
                    })
                    .collect(),
            ),
        ));
    }
    Ok(Value::Obj(fields).to_json())
}

/// Decode a wire-v1 request line into a [`SpecBuilder`] plus its
/// optional request id. Unknown fields and unsupported schema versions
/// are errors; the builder is *not* yet validated (call
/// [`SpecBuilder::build`] for that).
pub fn request_from_json(json: &str) -> Result<(SpecBuilder, Option<String>), String> {
    let value = Value::parse(json)?;
    let mut allowed: Vec<&str> = REQUEST_FIELDS.to_vec();
    allowed.push("schedule");
    deny_unknown(&value, &allowed, "request")?;
    check_schema_version(&value, "request")?;
    let id = match value.get("id") {
        None | Some(Value::Null) => None,
        Some(v) => Some(
            v.as_str()
                .ok_or_else(|| "request: id must be a string".to_string())?
                .to_string(),
        ),
    };
    let protocol = Protocol::parse(str_field(&value, "protocol", "request")?)?;
    let n = usize_field(&value, "n", "request")?;
    let mut builder = SpecBuilder::new(protocol, n);
    if value.get("t").is_some() {
        builder = builder.with_t(usize_field(&value, "t", "request")?);
    }
    if value.get("seed").is_some() {
        let seed = int_field(&value, "seed", "request")?;
        builder = builder
            .with_seed(u64::try_from(seed).map_err(|_| "request: seed out of range".to_string())?);
    }
    if value.get("scheme").is_some() {
        builder = builder.with_scheme(str_field(&value, "scheme", "request")?);
    }
    if value.get("engine").is_some() {
        builder = builder.with_engine(Engine::parse(str_field(&value, "engine", "request")?)?);
    }
    if value.get("latency").is_some() {
        builder = builder.with_latency(LatencySpec::parse(str_field(
            &value, "latency", "request",
        )?)?);
    }
    if let Some(links) = value.get("link_latency") {
        let links = links
            .as_arr()
            .ok_or_else(|| "request: link_latency must be an array".to_string())?
            .iter()
            .map(|v| {
                v.as_str()
                    .ok_or_else(|| "request: link_latency entries must be strings".to_string())
                    .and_then(LinkLatencySpec::parse)
            })
            .collect::<Result<Vec<LinkLatencySpec>, String>>()?;
        builder = builder.with_link_latency(links);
    }
    builder = builder.with_input(hex_decode(str_field(&value, "input", "request")?)?);
    if value.get("default_value").is_some() {
        builder =
            builder.with_default_value(hex_decode(str_field(&value, "default_value", "request")?)?);
    }
    if let Some(adv) = value.get("adversary") {
        builder = builder.with_adversary(adversary_from_value(adv)?);
    }
    if let Some(schedule) = value.get("schedule") {
        if *schedule != Value::Null {
            let entries = schedule
                .as_arr()
                .ok_or_else(|| "request: schedule must be an array".to_string())?;
            let mut map: HashMap<u64, u64> = HashMap::with_capacity(entries.len());
            for entry in entries {
                let pair = entry
                    .as_arr()
                    .filter(|p| p.len() == 2)
                    .ok_or_else(|| "request: schedule entries are [index, ticks]".to_string())?;
                let index = pair[0]
                    .as_int()
                    .and_then(|i| u64::try_from(i).ok())
                    .ok_or_else(|| "request: schedule index out of range".to_string())?;
                let ticks = pair[1]
                    .as_int()
                    .and_then(|i| u64::try_from(i).ok())
                    .ok_or_else(|| "request: schedule ticks out of range".to_string())?;
                if map.insert(index, ticks).is_some() {
                    return Err(format!("request: duplicate schedule index {index}"));
                }
            }
            builder = builder.with_schedule(Some(Arc::new(map) as Schedule));
        }
    }
    Ok((builder, id))
}

// ---------------------------------------------------------------------
// Run reports
// ---------------------------------------------------------------------

/// Encode a report exactly as [`FdRunReport::to_json`] does — one
/// encoding for the in-process comparison surface and the wire.
pub fn report_to_json(report: &FdRunReport) -> String {
    report.to_json()
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
/// [`report_to_json`]: encoding the decoded report reproduces the input
/// bytes.
pub fn report_from_json(json: &str) -> Result<FdRunReport, String> {
    let value = Value::parse(json)?;
    deny_unknown(
        &value,
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
    let outcomes = require(&value, "outcomes", "report")?
        .as_arr()
        .ok_or_else(|| "report: outcomes must be an array".to_string())?
        .iter()
        .map(|v| {
            v.as_str()
                .ok_or_else(|| "report: outcomes entries must be strings".to_string())
                .and_then(outcome_from_wire)
        })
        .collect::<Result<Vec<Option<Outcome>>, String>>()?;
    let per_round = require(&value, "per_round", "report")?
        .as_arr()
        .ok_or_else(|| "report: per_round must be an array".to_string())?
        .iter()
        .map(|v| {
            v.as_int()
                .and_then(|i| usize::try_from(i).ok())
                .ok_or_else(|| "report: per_round entries must be counts".to_string())
        })
        .collect::<Result<Vec<usize>, String>>()?;
    let used_fallback = require(&value, "used_fallback", "report")?
        .as_arr()
        .ok_or_else(|| "report: used_fallback must be an array".to_string())?
        .iter()
        .map(|v| {
            v.as_bool()
                .ok_or_else(|| "report: used_fallback entries must be booleans".to_string())
        })
        .collect::<Result<Vec<bool>, String>>()?;
    let grades = require(&value, "grades", "report")?
        .as_arr()
        .ok_or_else(|| "report: grades must be an array".to_string())?
        .iter()
        .map(|v| match v {
            Value::Null => Ok(None),
            Value::Int(0) => Ok(Some(Grade::Zero)),
            Value::Int(1) => Ok(Some(Grade::One)),
            Value::Int(2) => Ok(Some(Grade::Two)),
            other => Err(format!("report: invalid grade {other:?}")),
        })
        .collect::<Result<Vec<Option<Grade>>, String>>()?;
    let delay_log = match require(&value, "delay_log", "report")? {
        Value::Null => None,
        Value::Arr(entries) => Some(
            entries
                .iter()
                .map(|entry| {
                    let pair = entry.as_arr().filter(|p| p.len() == 2).ok_or_else(|| {
                        "report: delay_log entries are [round, ticks]".to_string()
                    })?;
                    let round = pair[0]
                        .as_int()
                        .and_then(|i| u32::try_from(i).ok())
                        .ok_or_else(|| "report: delay_log round out of range".to_string())?;
                    let ticks = pair[1]
                        .as_int()
                        .and_then(|i| u64::try_from(i).ok())
                        .ok_or_else(|| "report: delay_log ticks out of range".to_string())?;
                    Ok((round, ticks))
                })
                .collect::<Result<Vec<(u32, u64)>, String>>()?,
        ),
        _ => return Err("report: delay_log must be null or an array".to_string()),
    };
    // `sent_by` / `dropped_invalid` are not on the wire; they decode to
    // their empty defaults (see the module docs on lossy projection).
    let stats = NetStats {
        messages_total: usize_field(&value, "messages", "report")?,
        bytes_total: usize_field(&value, "bytes", "report")?,
        rounds: u32::try_from(int_field(&value, "rounds", "report")?)
            .map_err(|_| "report: rounds out of range".to_string())?,
        per_round,
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

/// Encode a success response. `report_json` must be the output of
/// [`report_to_json`] for the executed run.
pub fn response_to_json(
    id: Option<&str>,
    shard: usize,
    keydist_reused: bool,
    keydist_messages: Option<usize>,
    wall_us: u64,
    report_json: &str,
) -> String {
    let mut s = format!("{{\"schema_version\": {SCHEMA_VERSION}, ");
    match id {
        Some(id) => {
            s.push_str("\"id\": ");
            write_json_string(&mut s, id);
            s.push_str(", ");
        }
        None => s.push_str("\"id\": null, "),
    }
    s.push_str("\"ok\": true, ");
    s.push_str(&format!(
        "\"shard\": {shard}, \"keydist_reused\": {keydist_reused}, "
    ));
    match keydist_messages {
        Some(m) => s.push_str(&format!("\"keydist_messages\": {m}, ")),
        None => s.push_str("\"keydist_messages\": null, "),
    }
    s.push_str(&format!(
        "\"wall_us\": {wall_us}, \"report\": {report_json}}}"
    ));
    s
}

/// Encode an error response.
pub fn error_to_json(id: Option<&str>, error: &str) -> String {
    let mut s = format!("{{\"schema_version\": {SCHEMA_VERSION}, ");
    match id {
        Some(id) => {
            s.push_str("\"id\": ");
            write_json_string(&mut s, id);
            s.push_str(", ");
        }
        None => s.push_str("\"id\": null, "),
    }
    s.push_str("\"ok\": false, \"error\": ");
    write_json_string(&mut s, error);
    s.push('}');
    s
}

/// Decode a response line (success or error).
pub fn response_from_json(json: &str) -> Result<WireResponse, String> {
    let value = Value::parse(json)?;
    deny_unknown(
        &value,
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
    check_schema_version(&value, "response")?;
    let id = match value.get("id") {
        None | Some(Value::Null) => None,
        Some(v) => Some(
            v.as_str()
                .ok_or_else(|| "response: id must be a string".to_string())?
                .to_string(),
        ),
    };
    let ok = require(&value, "ok", "response")?
        .as_bool()
        .ok_or_else(|| "response: ok must be a boolean".to_string())?;
    if !ok {
        let error = str_field(&value, "error", "response")?.to_string();
        return Ok(WireResponse {
            id,
            shard: 0,
            keydist_reused: false,
            keydist_messages: None,
            wall_us: 0,
            report: Err(error),
            report_json: String::new(),
        });
    }
    let shard = usize_field(&value, "shard", "response")?;
    let keydist_reused = require(&value, "keydist_reused", "response")?
        .as_bool()
        .ok_or_else(|| "response: keydist_reused must be a boolean".to_string())?;
    let keydist_messages = match require(&value, "keydist_messages", "response")? {
        Value::Null => None,
        Value::Int(i) => Some(
            usize::try_from(*i)
                .map_err(|_| "response: keydist_messages out of range".to_string())?,
        ),
        _ => return Err("response: keydist_messages must be null or an integer".to_string()),
    };
    let wall_us = u64::try_from(int_field(&value, "wall_us", "response")?)
        .map_err(|_| "response: wall_us out of range".to_string())?;
    let report_json = require(&value, "report", "response")?.to_json();
    let report = report_from_json(&report_json)?;
    Ok(WireResponse {
        id,
        shard,
        keydist_reused,
        keydist_messages,
        wall_us,
        report: Ok(report),
        report_json,
    })
}

// ---------------------------------------------------------------------
// Schedule certificates
// ---------------------------------------------------------------------

/// Encode a schedule certificate (a replayable worst-case schedule — see
/// [`crate::schedsearch`]).
pub fn cert_to_json(cert: &ScheduleCert) -> String {
    let c = &cert.config;
    let mut s = format!(
        "{{\"schema_version\": {SCHEMA_VERSION}, \"config\": {{\"protocol\": \"{}\", \
         \"n\": {}, \"t\": {}, \"scheme\": \"{}\", \"seed\": {}, \"latency\": \"{}\", \
         \"adversary\": \"{}\", \"strategy\": \"{}\", \"budget\": {}}}, \"episode\": {}, \
         \"perturbations\": [",
        c.protocol.name(),
        c.n,
        c.t,
        c.scheme.name(),
        c.seed,
        c.latency.name(),
        c.adversary.name(),
        c.strategy.name(),
        c.budget,
        cert.episode,
    );
    for (i, p) in cert.perturbations.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        s.push_str(&format!("[{}, {}, {}]", p.index, p.round, p.ticks));
    }
    s.push_str("]}");
    s
}

/// Decode a schedule certificate. The decoded certificate is validated
/// against its latency envelope ([`ScheduleCert::validate`]).
pub fn cert_from_json(json: &str) -> Result<ScheduleCert, String> {
    let value = Value::parse(json)?;
    deny_unknown(
        &value,
        &["schema_version", "config", "episode", "perturbations"],
        "certificate",
    )?;
    check_schema_version(&value, "certificate")?;
    let config_value = require(&value, "config", "certificate")?;
    deny_unknown(
        config_value,
        &[
            "protocol",
            "n",
            "t",
            "scheme",
            "seed",
            "latency",
            "adversary",
            "strategy",
            "budget",
        ],
        "certificate config",
    )?;
    let what = "certificate config";
    let config = SearchConfig {
        protocol: Protocol::parse(str_field(config_value, "protocol", what)?)?,
        n: usize_field(config_value, "n", what)?,
        t: usize_field(config_value, "t", what)?,
        scheme: SchemeSpec::parse(str_field(config_value, "scheme", what)?)?,
        seed: u64::try_from(int_field(config_value, "seed", what)?)
            .map_err(|_| format!("{what}: seed out of range"))?,
        latency: LatencySpec::parse(str_field(config_value, "latency", what)?)?,
        adversary: AdversaryKind::parse(str_field(config_value, "adversary", what)?)?,
        strategy: Strategy::parse(str_field(config_value, "strategy", what)?)?,
        budget: usize_field(config_value, "budget", what)?,
    };
    let episode = usize_field(&value, "episode", "certificate")?;
    let perturbations = require(&value, "perturbations", "certificate")?
        .as_arr()
        .ok_or_else(|| "certificate: perturbations must be an array".to_string())?
        .iter()
        .map(|entry| {
            let triple = entry.as_arr().filter(|p| p.len() == 3).ok_or_else(|| {
                "certificate: perturbations are [index, round, ticks]".to_string()
            })?;
            let int = |i: usize, what: &str| {
                triple[i]
                    .as_int()
                    .ok_or_else(|| format!("certificate: perturbation {what} must be an integer"))
            };
            Ok(Perturbation {
                index: u64::try_from(int(0, "index")?)
                    .map_err(|_| "certificate: perturbation index out of range".to_string())?,
                round: u32::try_from(int(1, "round")?)
                    .map_err(|_| "certificate: perturbation round out of range".to_string())?,
                ticks: u64::try_from(int(2, "ticks")?)
                    .map_err(|_| "certificate: perturbation ticks out of range".to_string())?,
            })
        })
        .collect::<Result<Vec<Perturbation>, String>>()?;
    let cert = ScheduleCert {
        config,
        episode,
        perturbations,
    };
    cert.validate()?;
    Ok(cert)
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

/// A request to the discovery registry (`lafd registry`), one framed
/// JSON document per connection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegistryRequest {
    /// Announce `(node, addr)` for a run and block until all `n` peers
    /// have announced theirs; the reply is the full roster. This is the
    /// barrier that opens a run.
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
    /// Look up one peer's registered address.
    Lookup {
        /// Run identifier.
        run: String,
        /// The slot to look up.
        node: usize,
    },
    /// Block until all `n` workers of the run have reached `phase`.
    Barrier {
        /// Run identifier.
        run: String,
        /// The arriving worker's slot.
        node: usize,
        /// Expected system size.
        n: usize,
        /// Phase label (e.g. `"keydist-done"`).
        phase: String,
        /// Restart generation (stale incarnations are fenced).
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
    /// One peer's address — the answer to [`RegistryRequest::Lookup`].
    Addr {
        /// The looked-up slot.
        node: usize,
        /// Its registered address.
        addr: String,
    },
    /// The barrier opened — the answer to [`RegistryRequest::Barrier`].
    Released {
        /// Echo of the phase label.
        phase: String,
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

/// Encode an outcome exactly as [`FdRunReport::to_json`] does.
fn outcome_to_wire(outcome: &Option<Outcome>) -> String {
    match outcome {
        None => "faulty".to_string(),
        Some(Outcome::Pending) => "pending".to_string(),
        Some(Outcome::Decided(v)) => format!("decided:{}", hex_encode(v)),
        Some(Outcome::Discovered(r)) => format!("discovered:{r}"),
    }
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

fn counts_to_value(counts: &[usize]) -> Value {
    Value::Arr(counts.iter().map(|&c| Value::Int(c as i128)).collect())
}

fn counts_field(obj: &Value, key: &str, what: &str) -> Result<Vec<usize>, String> {
    require(obj, key, what)?
        .as_arr()
        .ok_or_else(|| format!("{what}: field {key:?} must be an array"))?
        .iter()
        .map(|v| {
            v.as_int()
                .and_then(|i| usize::try_from(i).ok())
                .ok_or_else(|| format!("{what}: {key} entries must be counts"))
        })
        .collect()
}

fn u32_field(obj: &Value, key: &str, what: &str) -> Result<u32, String> {
    u32::try_from(int_field(obj, key, what)?)
        .map_err(|_| format!("{what}: field {key:?} out of range"))
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
    Value::Obj(vec![
        ("node".to_string(), Value::Int(summary.node as i128)),
        (
            "outcome".to_string(),
            Value::Str(outcome_to_wire(&summary.outcome)),
        ),
        (
            "used_fallback".to_string(),
            Value::Bool(summary.used_fallback),
        ),
        ("grade".to_string(), grade_to_value(summary.grade)),
        ("rounds".to_string(), Value::Int(i128::from(summary.rounds))),
        ("messages".to_string(), Value::Int(summary.messages as i128)),
        ("bytes".to_string(), Value::Int(summary.bytes as i128)),
        ("per_round".to_string(), counts_to_value(&summary.per_round)),
        ("dropped".to_string(), Value::Int(summary.dropped as i128)),
        (
            "kd_rounds".to_string(),
            Value::Int(i128::from(summary.kd_rounds)),
        ),
        (
            "kd_messages".to_string(),
            Value::Int(summary.kd_messages as i128),
        ),
        ("kd_bytes".to_string(), Value::Int(summary.kd_bytes as i128)),
        (
            "kd_per_round".to_string(),
            counts_to_value(&summary.kd_per_round),
        ),
        (
            "kd_anomalies".to_string(),
            Value::Int(summary.kd_anomalies as i128),
        ),
        (
            "incarnation".to_string(),
            Value::Int(i128::from(summary.incarnation)),
        ),
        (
            "retries".to_string(),
            Value::Int(i128::from(summary.retries)),
        ),
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
        node: usize_field(value, "node", what)?,
        outcome: outcome_from_wire(str_field(value, "outcome", what)?)?,
        used_fallback: require(value, "used_fallback", what)?
            .as_bool()
            .ok_or_else(|| format!("{what}: used_fallback must be a boolean"))?,
        grade: grade_from_value(require(value, "grade", what)?, what)?,
        rounds: u32_field(value, "rounds", what)?,
        messages: usize_field(value, "messages", what)?,
        bytes: usize_field(value, "bytes", what)?,
        per_round: counts_field(value, "per_round", what)?,
        dropped: usize_field(value, "dropped", what)?,
        kd_rounds: u32_field(value, "kd_rounds", what)?,
        kd_messages: usize_field(value, "kd_messages", what)?,
        kd_bytes: usize_field(value, "kd_bytes", what)?,
        kd_per_round: counts_field(value, "kd_per_round", what)?,
        kd_anomalies: usize_field(value, "kd_anomalies", what)?,
        incarnation: opt_u64_field(value, "incarnation", what)?,
        retries: opt_u64_field(value, "retries", what)?,
    })
}

/// Encode a registry request as one wire-v1 JSON document.
pub fn registry_request_to_json(request: &RegistryRequest) -> String {
    let mut fields: Vec<(String, Value)> =
        vec![("schema_version".to_string(), Value::Int(SCHEMA_VERSION))];
    match request {
        RegistryRequest::Register {
            run,
            node,
            n,
            addr,
            incarnation,
        } => {
            fields.push(("op".to_string(), Value::Str("register".to_string())));
            fields.push(("run".to_string(), Value::Str(run.clone())));
            fields.push(("node".to_string(), Value::Int(*node as i128)));
            fields.push(("n".to_string(), Value::Int(*n as i128)));
            fields.push(("addr".to_string(), Value::Str(addr.clone())));
            fields.push((
                "incarnation".to_string(),
                Value::Int(i128::from(*incarnation)),
            ));
        }
        RegistryRequest::Lookup { run, node } => {
            fields.push(("op".to_string(), Value::Str("lookup".to_string())));
            fields.push(("run".to_string(), Value::Str(run.clone())));
            fields.push(("node".to_string(), Value::Int(*node as i128)));
        }
        RegistryRequest::Barrier {
            run,
            node,
            n,
            phase,
            incarnation,
        } => {
            fields.push(("op".to_string(), Value::Str("barrier".to_string())));
            fields.push(("run".to_string(), Value::Str(run.clone())));
            fields.push(("node".to_string(), Value::Int(*node as i128)));
            fields.push(("n".to_string(), Value::Int(*n as i128)));
            fields.push(("phase".to_string(), Value::Str(phase.clone())));
            fields.push((
                "incarnation".to_string(),
                Value::Int(i128::from(*incarnation)),
            ));
        }
        RegistryRequest::Teardown {
            run,
            node,
            summary,
            incarnation,
        } => {
            fields.push(("op".to_string(), Value::Str("teardown".to_string())));
            fields.push(("run".to_string(), Value::Str(run.clone())));
            fields.push(("node".to_string(), Value::Int(*node as i128)));
            fields.push(("summary".to_string(), summary_to_value(summary)));
            fields.push((
                "incarnation".to_string(),
                Value::Int(i128::from(*incarnation)),
            ));
        }
        RegistryRequest::Collect { run } => {
            fields.push(("op".to_string(), Value::Str("collect".to_string())));
            fields.push(("run".to_string(), Value::Str(run.clone())));
        }
    }
    Value::Obj(fields).to_json()
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
            "phase",
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
            node: usize_field(&value, "node", what)?,
            n: usize_field(&value, "n", what)?,
            addr: str_field(&value, "addr", what)?.to_string(),
            incarnation: opt_u64_field(&value, "incarnation", what)?,
        }),
        "lookup" => Ok(RegistryRequest::Lookup {
            run,
            node: usize_field(&value, "node", what)?,
        }),
        "barrier" => Ok(RegistryRequest::Barrier {
            run,
            node: usize_field(&value, "node", what)?,
            n: usize_field(&value, "n", what)?,
            phase: str_field(&value, "phase", what)?.to_string(),
            incarnation: opt_u64_field(&value, "incarnation", what)?,
        }),
        "teardown" => Ok(RegistryRequest::Teardown {
            run,
            node: usize_field(&value, "node", what)?,
            summary: summary_from_value(require(&value, "summary", what)?)?,
            incarnation: opt_u64_field(&value, "incarnation", what)?,
        }),
        "collect" => Ok(RegistryRequest::Collect { run }),
        other => Err(format!("{what}: unknown op {other:?}")),
    }
}

/// Encode a registry reply as one wire-v1 JSON document.
pub fn registry_reply_to_json(reply: &RegistryReply) -> String {
    let mut fields: Vec<(String, Value)> =
        vec![("schema_version".to_string(), Value::Int(SCHEMA_VERSION))];
    match reply {
        RegistryReply::Roster { peers } => {
            fields.push(("reply".to_string(), Value::Str("roster".to_string())));
            fields.push((
                "peers".to_string(),
                Value::Arr(
                    peers
                        .iter()
                        .map(|(node, addr)| {
                            Value::Arr(vec![Value::Int(*node as i128), Value::Str(addr.clone())])
                        })
                        .collect(),
                ),
            ));
        }
        RegistryReply::Addr { node, addr } => {
            fields.push(("reply".to_string(), Value::Str("addr".to_string())));
            fields.push(("node".to_string(), Value::Int(*node as i128)));
            fields.push(("addr".to_string(), Value::Str(addr.clone())));
        }
        RegistryReply::Released { phase } => {
            fields.push(("reply".to_string(), Value::Str("released".to_string())));
            fields.push(("phase".to_string(), Value::Str(phase.clone())));
        }
        RegistryReply::Ack => {
            fields.push(("reply".to_string(), Value::Str("ack".to_string())));
        }
        RegistryReply::Summaries { workers } => {
            fields.push(("reply".to_string(), Value::Str("summaries".to_string())));
            fields.push((
                "workers".to_string(),
                Value::Arr(workers.iter().map(summary_to_value).collect()),
            ));
        }
        RegistryReply::Error { error } => {
            fields.push(("reply".to_string(), Value::Str("error".to_string())));
            fields.push(("error".to_string(), Value::Str(error.clone())));
        }
    }
    Value::Obj(fields).to_json()
}

/// Decode a registry reply; unknown fields and foreign schema versions
/// are errors.
pub fn registry_reply_from_json(json: &str) -> Result<RegistryReply, String> {
    let value = Value::parse(json)?;
    let what = "registry reply";
    deny_unknown(
        &value,
        &[
            "schema_version",
            "reply",
            "peers",
            "node",
            "addr",
            "phase",
            "workers",
            "error",
        ],
        what,
    )?;
    check_schema_version(&value, what)?;
    match str_field(&value, "reply", what)? {
        "roster" => {
            let peers = require(&value, "peers", what)?
                .as_arr()
                .ok_or_else(|| format!("{what}: peers must be an array"))?
                .iter()
                .map(|entry| {
                    let pair = entry
                        .as_arr()
                        .filter(|p| p.len() == 2)
                        .ok_or_else(|| format!("{what}: peers entries are [node, addr]"))?;
                    let node = pair[0]
                        .as_int()
                        .and_then(|i| usize::try_from(i).ok())
                        .ok_or_else(|| format!("{what}: peer node out of range"))?;
                    let addr = pair[1]
                        .as_str()
                        .ok_or_else(|| format!("{what}: peer addr must be a string"))?
                        .to_string();
                    Ok((node, addr))
                })
                .collect::<Result<Vec<(usize, String)>, String>>()?;
            Ok(RegistryReply::Roster { peers })
        }
        "addr" => Ok(RegistryReply::Addr {
            node: usize_field(&value, "node", what)?,
            addr: str_field(&value, "addr", what)?.to_string(),
        }),
        "released" => Ok(RegistryReply::Released {
            phase: str_field(&value, "phase", what)?.to_string(),
        }),
        "ack" => Ok(RegistryReply::Ack),
        "summaries" => {
            let workers = require(&value, "workers", what)?
                .as_arr()
                .ok_or_else(|| format!("{what}: workers must be an array"))?
                .iter()
                .map(summary_from_value)
                .collect::<Result<Vec<WorkerSummary>, String>>()?;
            Ok(RegistryReply::Summaries { workers })
        }
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
            let json = report_to_json(&report);
            let decoded = report_from_json(&json).unwrap();
            assert_eq!(report_to_json(&decoded), json, "{protocol}");
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

    #[test]
    fn certificates_round_trip_and_validate() {
        let config = SearchConfig {
            latency: LatencySpec::Jitter { extra: 2 },
            ..SearchConfig::new(Protocol::ChainFd, 5, 1, 7)
        };
        let cert = ScheduleCert {
            config,
            episode: 3,
            perturbations: vec![Perturbation {
                index: 0,
                round: 0,
                ticks: 2048,
            }],
        };
        let json = cert_to_json(&cert);
        let decoded = cert_from_json(&json).unwrap();
        assert_eq!(cert_to_json(&decoded), json);
        // Out-of-envelope perturbations fail validation on decode.
        let bad = json.replace("[0, 0, 2048]", "[0, 0, 9999]");
        assert!(cert_from_json(&bad).is_err());
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
            RegistryRequest::Lookup {
                run: "r0".to_string(),
                node: 5,
            },
            RegistryRequest::Barrier {
                run: "r0".to_string(),
                node: 2,
                n: 7,
                phase: "keydist-done".to_string(),
                incarnation: 0,
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
            RegistryReply::Addr {
                node: 1,
                addr: "b:2".to_string(),
            },
            RegistryReply::Released {
                phase: "keydist-done".to_string(),
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
