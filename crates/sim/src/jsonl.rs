//! Flat JSON lines — the one codec every line the workspace writes goes
//! through: the `JsonLinesSink` telemetry stream, the sweep store's
//! journals and the `BENCH.jsonl` floors.
//!
//! [`JsonObj`] is a flat, ordered object of numbers, booleans, strings and
//! number arrays, built field by field and rendered as one line. The
//! build environment vendors no JSON dependency, so the parser accepts
//! exactly that grammar.
//!
//! Determinism contract: [`JsonObj::render`] writes fields in insertion
//! order with Rust's shortest-round-trip `f64` formatting, so equal
//! objects always produce identical bytes and `parse → render` is the
//! identity on every line this module emits. `u64` values (seeds, FNV
//! digests, journal indices) are carried as decimal *strings*: a JSON
//! number parsed through `f64` would silently lose bits above 2⁵³.
//!
//! [`interval_to_jsonl`] / [`interval_from_jsonl`] map one
//! [`IntervalStats`] onto one such line. Its counts stay JSON numbers and
//! are read back only when exactly integral and below 2⁵³, so
//! `parse → serialize` reproduces the original line byte for byte and
//! `serialize → parse` recovers every field exactly.

use std::borrow::Cow;
use std::fmt::Write as _;

use hipster_platform::{CoreConfig, Frequency, PowerBreakdown};

use crate::engine::{IntervalStats, MachineConfig};

/// Serializes one interval as a single JSON line (no trailing newline).
///
/// Key order is fixed, so equal stats always produce identical bytes.
/// Non-finite numbers (which the engine never produces, but a custom model
/// could) serialize as `null` and parse back as NaN, keeping every emitted
/// line valid JSON.
pub fn interval_to_jsonl(s: &IntervalStats) -> String {
    let mhz = |f: Frequency| f64::from(f.as_mhz());
    JsonObj::new()
        .num("index", s.index as f64)
        .num("start_s", s.start_s)
        .num("duration_s", s.duration_s)
        .num("n_big", s.config.lc.n_big as f64)
        .num("n_small", s.config.lc.n_small as f64)
        .num("lc_big_mhz", mhz(s.config.lc.big_freq))
        .num("lc_small_mhz", mhz(s.config.lc.small_freq))
        .num("big_mhz", mhz(s.config.big_freq))
        .num("small_mhz", mhz(s.config.small_freq))
        .bool("batch_enabled", s.config.batch_enabled)
        .num("offered_load_frac", s.offered_load_frac)
        .num("offered_rps", s.offered_rps)
        .num("arrivals", s.arrivals as f64)
        .num("completions", s.completions as f64)
        .num("timeouts", s.timeouts as f64)
        .num("throughput_rps", s.throughput_rps)
        .num("tail_latency_s", s.tail_latency_s)
        .num("mean_latency_s", s.mean_latency_s)
        .num("queue_len", s.queue_len as f64)
        .arr("lc_busy", &s.lc_busy)
        .num("power_big", s.power.big)
        .num("power_small", s.power.small)
        .num("power_rest", s.power.rest)
        .num("energy_j", s.energy_j)
        .num("batch_ips_big", s.batch_ips_big)
        .num("batch_ips_small", s.batch_ips_small)
        .bool("counters_valid", s.counters_valid)
        .num("migrated_cores", s.migrated_cores as f64)
        .render()
}

/// Parses a line produced by [`interval_to_jsonl`] back into stats.
///
/// Returns `None` on malformed JSON, a missing field, a value of the
/// wrong type, or a count that is not an exact integer below 2⁵³ (MHz
/// fields also ≤ `u32::MAX`) — never panics.
pub fn interval_from_jsonl(line: &str) -> Option<IntervalStats> {
    let obj = JsonObj::parse(line)?;
    let num = |k: &str| obj.get_num(k);
    let int = |k: &str| obj.get_num(k).and_then(exact_u64);
    let count = |k: &str| int(k).and_then(|x| usize::try_from(x).ok());
    let mhz = |k: &str| {
        int(k)
            .and_then(|x| u32::try_from(x).ok())
            .map(Frequency::from_mhz)
    };
    let lc = CoreConfig::new(
        count("n_big")?,
        count("n_small")?,
        mhz("lc_big_mhz")?,
        mhz("lc_small_mhz")?,
    );
    Some(IntervalStats {
        index: int("index")?,
        start_s: num("start_s")?,
        duration_s: num("duration_s")?,
        config: MachineConfig {
            lc,
            big_freq: mhz("big_mhz")?,
            small_freq: mhz("small_mhz")?,
            batch_enabled: obj.get_bool("batch_enabled")?,
        },
        offered_load_frac: num("offered_load_frac")?,
        offered_rps: num("offered_rps")?,
        arrivals: count("arrivals")?,
        completions: count("completions")?,
        timeouts: count("timeouts")?,
        throughput_rps: num("throughput_rps")?,
        tail_latency_s: num("tail_latency_s")?,
        mean_latency_s: num("mean_latency_s")?,
        queue_len: count("queue_len")?,
        lc_busy: obj.get_arr("lc_busy")?.to_vec(),
        power: PowerBreakdown {
            big: num("power_big")?,
            small: num("power_small")?,
            rest: num("power_rest")?,
        },
        energy_j: num("energy_j")?,
        batch_ips_big: num("batch_ips_big")?,
        batch_ips_small: num("batch_ips_small")?,
        counters_valid: obj.get_bool("counters_valid")?,
        migrated_cores: count("migrated_cores")?,
    })
}

/// A JSON number that is exactly a non-negative integer: finite,
/// integral and strictly below 2⁵³, the first value an `f64` cannot tell
/// from its successor (`9007199254740993` parses to 2⁵³ too).
fn exact_u64(x: f64) -> Option<u64> {
    ((0.0..9_007_199_254_740_992.0).contains(&x) && x.fract() == 0.0).then_some(x as u64)
}

/// A value in the flat-object grammar.
#[derive(Debug, Clone, PartialEq)]
enum JsonValue {
    /// A finite number, or NaN for a literal `null`.
    Num(f64),
    /// `true` / `false`.
    Bool(bool),
    /// A string (escaped on render).
    Str(String),
    /// An array of numbers.
    Arr(Vec<f64>),
}

/// A flat, ordered JSON object: one line on disk, field order fixed by
/// insertion so rendering is deterministic. Built objects borrow their
/// (literal) keys; parsed ones own them.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct JsonObj {
    fields: Vec<(Cow<'static, str>, JsonValue)>,
}

impl JsonObj {
    /// An empty object.
    pub fn new() -> Self {
        JsonObj { fields: Vec::new() }
    }

    fn push(mut self, key: &'static str, v: JsonValue) -> Self {
        self.fields.push((Cow::Borrowed(key), v));
        self
    }

    /// Appends a number field (non-finite values render as `null` and
    /// parse back as NaN).
    pub fn num(self, key: &'static str, v: f64) -> Self {
        self.push(key, JsonValue::Num(v))
    }

    /// Appends a `u64` field, carried exactly as a decimal string.
    pub fn u64(self, key: &'static str, v: u64) -> Self {
        self.push(key, JsonValue::Str(v.to_string()))
    }

    /// Appends a boolean field.
    pub fn bool(self, key: &'static str, v: bool) -> Self {
        self.push(key, JsonValue::Bool(v))
    }

    /// Appends a string field.
    pub fn str(self, key: &'static str, v: &str) -> Self {
        self.push(key, JsonValue::Str(v.to_owned()))
    }

    /// Appends a number-array field.
    pub fn arr(self, key: &'static str, vs: &[f64]) -> Self {
        self.push(key, JsonValue::Arr(vs.to_vec()))
    }

    /// Prepends a string field (used to stamp the `"cell"` envelope on an
    /// already-built payload).
    pub fn prepend_str(mut self, key: &'static str, v: &str) -> Self {
        self.fields
            .insert(0, (Cow::Borrowed(key), JsonValue::Str(v.to_owned())));
        self
    }

    /// The raw field by key (first occurrence).
    fn get(&self, key: &str) -> Option<&JsonValue> {
        self.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// A number field.
    pub fn get_num(&self, key: &str) -> Option<f64> {
        match self.get(key)? {
            JsonValue::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// A `u64` field: a decimal string, or a number that is exactly an
    /// integer below 2⁵³.
    pub fn get_u64(&self, key: &str) -> Option<u64> {
        match self.get(key)? {
            JsonValue::Str(s) => s.parse().ok(),
            JsonValue::Num(x) => exact_u64(*x),
            _ => None,
        }
    }

    /// A string field.
    pub fn get_str(&self, key: &str) -> Option<&str> {
        match self.get(key)? {
            JsonValue::Str(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// A boolean field.
    pub fn get_bool(&self, key: &str) -> Option<bool> {
        match self.get(key)? {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// A number-array field.
    pub fn get_arr(&self, key: &str) -> Option<&[f64]> {
        match self.get(key)? {
            JsonValue::Arr(xs) => Some(xs.as_slice()),
            _ => None,
        }
    }

    /// Renders the object as a single JSON line (no trailing newline).
    pub fn render(&self) -> String {
        let mut out = String::with_capacity(32 * self.fields.len() + 2);
        out.push('{');
        for (i, (k, v)) in self.fields.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('"');
            escape_into(&mut out, k);
            out.push_str("\":");
            match v {
                JsonValue::Num(x) => push_num(&mut out, *x),
                JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
                JsonValue::Str(s) => {
                    out.push('"');
                    escape_into(&mut out, s);
                    out.push('"');
                }
                JsonValue::Arr(xs) => {
                    out.push('[');
                    for (j, x) in xs.iter().enumerate() {
                        if j > 0 {
                            out.push(',');
                        }
                        push_num(&mut out, *x);
                    }
                    out.push(']');
                }
            }
        }
        out.push('}');
        out
    }

    /// Parses one line of the flat grammar. Whitespace between tokens is
    /// tolerated. Returns `None` on malformed input — never panics (torn
    /// journal tails land here).
    pub fn parse(line: &str) -> Option<JsonObj> {
        let mut p = Parser {
            bytes: line.trim().as_bytes(),
            pos: 0,
        };
        p.expect(b'{')?;
        let mut fields = Vec::new();
        p.skip_ws();
        if p.peek() == Some(b'}') {
            p.pos += 1;
        } else {
            loop {
                let key = p.string()?;
                p.expect(b':')?;
                let value = p.value()?;
                fields.push((Cow::Owned(key), value));
                p.skip_ws();
                match p.next_byte()? {
                    b',' => continue,
                    b'}' => break,
                    _ => return None,
                }
            }
        }
        p.skip_ws();
        (p.pos == p.bytes.len()).then_some(JsonObj { fields })
    }
}

/// Writes a number with shortest-round-trip formatting; Display would
/// print `NaN`/`inf`, which is not JSON, so non-finite values write
/// `null`.
fn push_num(out: &mut String, x: f64) {
    if x.is_finite() {
        let _ = write!(out, "{x}");
    } else {
        out.push_str("null");
    }
}

/// Escapes a string body for embedding between JSON quotes.
fn escape_into(out: &mut String, s: &str) {
    if !s.bytes().any(|b| b == b'"' || b == b'\\' || b < 0x20) {
        out.push_str(s);
        return;
    }
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self.peek().is_some_and(|b| b.is_ascii_whitespace()) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn next_byte(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn expect(&mut self, b: u8) -> Option<()> {
        self.skip_ws();
        (self.next_byte()? == b).then_some(())
    }

    fn string(&mut self) -> Option<String> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            // Copy the run up to the next quote or escape in one piece: a
            // multi-byte UTF-8 scalar never contains either byte.
            let rest = &self.bytes[self.pos..];
            let run = rest.iter().position(|&b| b == b'"' || b == b'\\')?;
            s.push_str(std::str::from_utf8(&rest[..run]).ok()?);
            self.pos += run + 1;
            if rest[run] == b'"' {
                return Some(s);
            }
            match self.next_byte()? {
                b'"' => s.push('"'),
                b'\\' => s.push('\\'),
                b'/' => s.push('/'),
                b'n' => s.push('\n'),
                b'r' => s.push('\r'),
                b't' => s.push('\t'),
                b'b' => s.push('\u{8}'),
                b'f' => s.push('\u{c}'),
                b'u' => {
                    let end = self.pos + 4;
                    let hex = std::str::from_utf8(self.bytes.get(self.pos..end)?).ok()?;
                    let code = u32::from_str_radix(hex, 16).ok()?;
                    s.push(char::from_u32(code)?);
                    self.pos = end;
                }
                _ => return None,
            }
        }
    }

    fn number(&mut self) -> Option<f64> {
        self.skip_ws();
        if self.peek() == Some(b'n') {
            let end = self.pos + 4;
            if self.bytes.get(self.pos..end) == Some(b"null".as_slice()) {
                self.pos = end;
                return Some(f64::NAN);
            }
            return None;
        }
        let start = self.pos;
        while self
            .peek()
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()?
            .parse()
            .ok()
    }

    fn value(&mut self) -> Option<JsonValue> {
        self.skip_ws();
        match self.peek()? {
            b'"' => Some(JsonValue::Str(self.string()?)),
            b't' | b'f' => {
                let want: &[u8] = if self.peek() == Some(b't') {
                    b"true"
                } else {
                    b"false"
                };
                let end = self.pos + want.len();
                if self.bytes.get(self.pos..end) == Some(want) {
                    self.pos = end;
                    Some(JsonValue::Bool(want == b"true"))
                } else {
                    None
                }
            }
            b'[' => {
                self.pos += 1;
                let mut xs = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Some(JsonValue::Arr(xs));
                }
                loop {
                    xs.push(self.number()?);
                    self.skip_ws();
                    match self.next_byte()? {
                        b',' => continue,
                        b']' => break,
                        _ => return None,
                    }
                }
                Some(JsonValue::Arr(xs))
            }
            _ => Some(JsonValue::Num(self.number()?)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(tail_ms: f64) -> IntervalStats {
        let f = Frequency::from_mhz(1150);
        let fs = Frequency::from_mhz(650);
        IntervalStats {
            index: 7,
            start_s: 7.0,
            duration_s: 1.0,
            config: MachineConfig {
                lc: CoreConfig::new(2, 1, f, fs),
                big_freq: f,
                small_freq: fs,
                batch_enabled: true,
            },
            offered_load_frac: 0.51234,
            offered_rps: 18_444.2,
            arrivals: 18_551,
            completions: 18_490,
            timeouts: 3,
            throughput_rps: 18_490.0,
            tail_latency_s: tail_ms / 1e3,
            mean_latency_s: tail_ms / 2.7e3,
            queue_len: 12,
            lc_busy: vec![0.81, 0.79, 0.33],
            power: PowerBreakdown {
                big: 1.701,
                small: 0.42,
                rest: 1.2,
            },
            energy_j: 3.321,
            batch_ips_big: 2.0e9,
            batch_ips_small: 8.25e8,
            counters_valid: false,
            migrated_cores: 1,
        }
    }

    /// The wire format, pinned: `interval_to_jsonl(&sample(9.87654321))`
    /// as an earlier, independent serializer rendered it, so a change that
    /// moves the writer and the parser together still fails here.
    const SAMPLE_LINE: &str = r#"{"index":7,"start_s":7,"duration_s":1,"n_big":2,"n_small":1,"lc_big_mhz":1150,"lc_small_mhz":650,"big_mhz":1150,"small_mhz":650,"batch_enabled":true,"offered_load_frac":0.51234,"offered_rps":18444.2,"arrivals":18551,"completions":18490,"timeouts":3,"throughput_rps":18490,"tail_latency_s":0.00987654321,"mean_latency_s":0.0036579789666666665,"queue_len":12,"lc_busy":[0.81,0.79,0.33],"power_big":1.701,"power_small":0.42,"power_rest":1.2,"energy_j":3.321,"batch_ips_big":2000000000,"batch_ips_small":825000000,"counters_valid":false,"migrated_cores":1}"#;

    #[test]
    fn wire_format_matches_the_pinned_line() {
        let s = sample(9.87654321);
        assert_eq!(interval_to_jsonl(&s), SAMPLE_LINE);
        assert_eq!(interval_from_jsonl(SAMPLE_LINE), Some(s));
    }

    #[test]
    fn round_trip_recovers_every_field() {
        let s = sample(9.87654321);
        let line = interval_to_jsonl(&s);
        let back = interval_from_jsonl(&line).expect("parses");
        assert_eq!(back, s);
    }

    #[test]
    fn reserialization_is_byte_identical() {
        let s = sample(3.14159);
        let line = interval_to_jsonl(&s);
        let again = interval_to_jsonl(&interval_from_jsonl(&line).unwrap());
        assert_eq!(line, again);
    }

    #[test]
    fn line_is_single_flat_json_object() {
        let line = interval_to_jsonl(&sample(1.0));
        assert!(line.starts_with('{') && line.ends_with('}'));
        assert!(!line.contains('\n'));
        assert!(line.contains("\"tail_latency_s\":"));
        assert!(line.contains("\"counters_valid\":false"));
    }

    #[test]
    fn malformed_lines_return_none() {
        for bad in [
            "",
            "{",
            "not json",
            "{\"index\":}",
            "{\"index\":1}",                        // missing fields
            "{\"index\":\"one\"}",                  // string where a number belongs
            "[1,2,3]",                              // not an object
            "{\"index\":1,\"start_s\":0.0,} extra", // trailing garbage
        ] {
            assert!(interval_from_jsonl(bad).is_none(), "{bad:?}");
        }
    }

    #[test]
    fn inexact_integers_are_rejected() {
        // Each would otherwise restore silently and re-render to other
        // bytes: 1e300 saturates, 1150.5 truncates, and 2⁵³ + 1 parses
        // as 2⁵³.
        for (good, bad) in [
            ("\"arrivals\":18551,", "\"arrivals\":1e300,"),
            ("\"big_mhz\":1150,", "\"big_mhz\":1150.5,"),
            ("\"index\":7,", "\"index\":9007199254740993,"),
            ("\"index\":7,", "\"index\":9007199254740992,"),
            ("\"queue_len\":12,", "\"queue_len\":-1,"),
            ("\"lc_big_mhz\":1150,", "\"lc_big_mhz\":4294967296,"),
        ] {
            assert!(SAMPLE_LINE.contains(good), "{good}");
            let line = SAMPLE_LINE.replacen(good, bad, 1);
            assert_eq!(interval_from_jsonl(&line), None, "{bad}");
        }
    }

    #[test]
    fn non_finite_values_stay_valid_json() {
        let mut s = sample(1.0);
        s.offered_rps = f64::INFINITY;
        s.tail_latency_s = f64::NAN;
        s.lc_busy[1] = f64::NAN;
        let line = interval_to_jsonl(&s);
        assert!(!line.contains("inf") && !line.contains("NaN"), "{line}");
        assert!(line.contains("\"offered_rps\":null"));
        let back = interval_from_jsonl(&line).expect("null parses");
        assert!(back.offered_rps.is_nan());
        assert!(back.tail_latency_s.is_nan());
        // Byte-identical re-serialization still holds (null -> NaN -> null).
        assert_eq!(interval_to_jsonl(&back), line);
    }

    #[test]
    fn tolerates_whitespace() {
        let line = interval_to_jsonl(&sample(2.0))
            .replace(":", ": ")
            .replace(",\"", ", \"");
        assert_eq!(interval_from_jsonl(&line), Some(sample(2.0)));
    }

    #[test]
    fn obj_round_trip_is_byte_identical() {
        let obj = JsonObj::new()
            .u64("seed", u64::MAX)
            .str("name", "sweep/Memcached/2B-1.15@0.63")
            .num("tail_s", 0.004123456789)
            .bool("ok", true)
            .arr("busy", &[0.5, 0.25, f64::NAN]);
        let line = obj.render();
        let back = JsonObj::parse(&line).expect("parses");
        assert_eq!(back.render(), line);
        assert_eq!(back.get_u64("seed"), Some(u64::MAX));
        assert_eq!(back.get_str("name"), Some("sweep/Memcached/2B-1.15@0.63"));
        assert_eq!(back.get_num("tail_s"), Some(0.004123456789));
        assert_eq!(back.get_bool("ok"), Some(true));
        let busy = back.get_arr("busy").unwrap();
        assert_eq!(&busy[..2], &[0.5, 0.25]);
        assert!(busy[2].is_nan());
    }

    #[test]
    fn strings_escape_and_unescape() {
        let nasty = "panic: \"boom\"\n\tat line 3 \\ {json} \u{1}é漢";
        let line = JsonObj::new().str("panic", nasty).render();
        assert!(!line.contains('\n'), "{line}");
        let back = JsonObj::parse(&line).expect("parses");
        assert_eq!(back.get_str("panic"), Some(nasty));
        assert_eq!(back.render(), line);
    }

    #[test]
    fn malformed_objects_are_none_not_panics() {
        for bad in [
            "",
            "{",
            "}",
            "{\"a\"}",
            "{\"a\":}",
            "{\"a\":1,}",
            "{\"a\":\"unterminated",
            "{\"a\":\"bad\\escape\"}",
            "{\"a\":1} trailing",
            "[1,2]",
            "{\"a\":{\"nested\":1}}",
            "not json at all",
            "{\"a\":tru}",
        ] {
            assert!(JsonObj::parse(bad).is_none(), "{bad:?}");
        }
    }

    #[test]
    fn u64_never_loses_bits() {
        for v in [0u64, 1, 2u64.pow(53) + 1, u64::MAX - 1, u64::MAX] {
            let line = JsonObj::new().u64("v", v).render();
            assert_eq!(JsonObj::parse(&line).unwrap().get_u64("v"), Some(v));
        }
        // A decimal string carries any value exactly.
        let big = JsonObj::parse("{\"v\":\"9007199254740993\"}").unwrap();
        assert_eq!(big.get_u64("v"), Some(9_007_199_254_740_993));
        // Exactly-integral numbers below 2⁵³ are accepted too (small
        // counters); 2⁵³ itself is not, since 2⁵³ + 1 parses to it.
        let obj = JsonObj::new().num("v", 42.0);
        assert_eq!(obj.get_u64("v"), Some(42));
        assert_eq!(JsonObj::new().num("v", 0.5).get_u64("v"), None);
        let below = JsonObj::parse("{\"v\":9007199254740991}").unwrap();
        assert_eq!(below.get_u64("v"), Some(9_007_199_254_740_991));
        let at = JsonObj::parse("{\"v\":9007199254740992}").unwrap();
        assert_eq!(at.get_u64("v"), None);
        let past = JsonObj::parse("{\"v\":9007199254740993}").unwrap();
        assert_eq!(past.get_u64("v"), None);
    }

    #[test]
    fn empty_object_round_trips() {
        let line = JsonObj::new().render();
        assert_eq!(line, "{}");
        assert_eq!(JsonObj::parse("{}"), Some(JsonObj::new()));
    }
}
