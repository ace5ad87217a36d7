//! `BENCH.jsonl` — the recorded floors, their writer and their check.
//!
//! Every floor the repo keeps is one flat JSON line, read and written
//! with the store's [`JsonObj`] codec:
//!
//! ```text
//! {"layer":"node","workload":"open/memcached-juno","size":"s6",
//!  "metric":"speedup_over_scan_events_per_sec","value":1.641,
//!  "oracle_value":14308770,"floor":1.382015,"better":"higher","smoke":false}
//! ```
//!
//! * `layer` — `node`, `control`, `cluster` or `faults`;
//! * `workload`, `size` — the measured cell and its scale;
//! * `value` — the measured number the floor binds; `oracle_value` — the
//!   yardstick side's raw measure (the oracle's throughput, the serial
//!   step time, the mitigation-off arm), `null` where the floor compares
//!   one side with itself;
//! * `better` — `higher` passes when `value > floor`, `lower` when
//!   `value < floor` (strict both ways);
//! * `smoke` — a seconds-long CI run: recorded, never held to its floor.
//!
//! A row's identity is `(layer, workload, metric)`. `repro bench` and
//! `repro faults` each [`Run::record`] their rows: a run replaces the
//! rows of the floors whose cells it ran (dropping one whose cells ran
//! but wrote no row) and keeps every other line. [`check`] — run by
//! `repro bench --check <file>` and the `bench_floors` test — enforces
//! every floor in a file, and that every [`REQUIRED`] floor is present.

use std::collections::HashMap;
use std::path::Path;

use hipster_core::store::json::JsonObj;

/// The results file both `repro bench` and `repro faults` write.
pub const PATH: &str = "BENCH.jsonl";

/// Which side of its floor a row's value must land on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Passes when `value > floor`.
    Higher,
    /// Passes when `value < floor`.
    Lower,
}

impl Better {
    fn name(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One line of `BENCH.jsonl`: a floor and the value it binds.
#[derive(Clone, Debug, PartialEq)]
pub struct Row {
    /// `node`, `control`, `cluster` or `faults`.
    pub layer: String,
    /// The measured cell, without its size.
    pub workload: String,
    /// The cell's scale (`s6`, `n64/n1024`, …).
    pub size: String,
    /// What `value` measures.
    pub metric: String,
    /// The number the floor binds.
    pub value: f64,
    /// The yardstick side's raw measure; NaN (`null`) where there is none.
    pub oracle_value: f64,
    /// The bound `value` must beat.
    pub floor: f64,
    /// Which side of `floor` passes.
    pub better: Better,
    /// Whether a smoke run recorded the row (never held to its floor).
    pub smoke: bool,
}

/// The identity of a row: `layer workload metric`.
fn key(layer: &str, workload: &str, metric: &str) -> String {
    format!("{layer} {workload} {metric}")
}

impl Row {
    /// A row with no value, oracle or floor yet; finish it with
    /// [`higher`](Self::higher) or [`lower`](Self::lower).
    pub fn new(layer: &str, workload: &str, size: &str, metric: &str) -> Row {
        Row {
            layer: layer.to_owned(),
            workload: workload.to_owned(),
            size: size.to_owned(),
            metric: metric.to_owned(),
            value: f64::NAN,
            oracle_value: f64::NAN,
            floor: f64::NAN,
            better: Better::Higher,
            smoke: false,
        }
    }

    /// Passes when `value > floor`.
    pub fn higher(self, value: f64, floor: f64) -> Row {
        Row {
            value,
            floor,
            better: Better::Higher,
            ..self
        }
    }

    /// Passes when `value < floor`.
    pub fn lower(self, value: f64, floor: f64) -> Row {
        Row {
            value,
            floor,
            better: Better::Lower,
            ..self
        }
    }

    /// Sets the yardstick side's raw measure.
    pub fn oracle(self, oracle_value: f64) -> Row {
        Row {
            oracle_value,
            ..self
        }
    }

    /// `layer workload metric`, the row's identity.
    pub fn key(&self) -> String {
        key(&self.layer, &self.workload, &self.metric)
    }

    /// Whether the value beats its floor (strictly).
    pub fn holds(&self) -> bool {
        match self.better {
            Better::Higher => self.value > self.floor,
            Better::Lower => self.value < self.floor,
        }
    }

    /// The row as one JSON line (no newline).
    pub fn render(&self) -> String {
        JsonObj::new()
            .str("layer", &self.layer)
            .str("workload", &self.workload)
            .str("size", &self.size)
            .str("metric", &self.metric)
            .num("value", self.value)
            .num("oracle_value", self.oracle_value)
            .num("floor", self.floor)
            .str("better", self.better.name())
            .bool("smoke", self.smoke)
            .render()
    }

    /// Parses one line; the error names the first missing or ill-typed
    /// field.
    pub fn parse(line: &str) -> Result<Row, String> {
        let obj = JsonObj::parse(line).ok_or("not a flat JSON object")?;
        let text = |k: &str| {
            obj.get_str(k)
                .map(str::to_owned)
                .ok_or(format!("missing string {k:?}"))
        };
        let num = |k: &str| obj.get_num(k).ok_or(format!("missing number {k:?}"));
        let better = match obj.get_str("better") {
            Some("higher") => Better::Higher,
            Some("lower") => Better::Lower,
            _ => return Err("better must be \"higher\" or \"lower\"".into()),
        };
        Ok(Row {
            layer: text("layer")?,
            workload: text("workload")?,
            size: text("size")?,
            metric: text("metric")?,
            value: num("value")?,
            oracle_value: num("oracle_value")?,
            floor: num("floor")?,
            better,
            smoke: obj.get_bool("smoke").ok_or("missing bool \"smoke\"")?,
        })
    }
}

/// `x` rounded to `places` decimal places, the precision a row records.
pub fn round(x: f64, places: i32) -> f64 {
    let scale = 10f64.powi(places);
    (x * scale).round() / scale
}

/// A floor every complete `BENCH.jsonl` holds.
pub struct Required {
    /// The row's `layer`.
    pub layer: &'static str,
    /// The row's `workload`.
    pub workload: &'static str,
    /// The row's `metric`.
    pub metric: &'static str,
    /// Written by full runs only: may be absent from a file holding any
    /// smoke row.
    pub full_only: bool,
}

const fn req(layer: &'static str, workload: &'static str, metric: &'static str) -> Required {
    Required {
        layer,
        workload,
        metric,
        full_only: false,
    }
}

/// Every floor `repro bench` and `repro faults` record.
pub const REQUIRED: &[Required] = &[
    req(
        "node",
        "closed/web-search",
        "speedup_over_scan_events_per_sec",
    ),
    req(
        "node",
        "open/memcached-juno",
        "speedup_over_scan_events_per_sec",
    ),
    req("node", "open/memcached", "events_per_sec_ratio"),
    req("node", "closed/web-search", "events_per_sec_ratio"),
    req(
        "control",
        "qpath/b3",
        "speedup_over_reference_intervals_per_sec",
    ),
    req(
        "control",
        "qpath/b5",
        "speedup_over_reference_intervals_per_sec",
    ),
    req(
        "control",
        "qpath/b10",
        "speedup_over_reference_intervals_per_sec",
    ),
    req("cluster", "dispatch/p2c", "ns_per_decision_ratio"),
    req(
        "cluster",
        "dispatch/least-loaded",
        "ns_per_decision_over_p2c",
    ),
    req("cluster", "interval", "speedup_over_serial_ms_per_step"),
    req("faults", "cluster/memcached-revocable", "qos_pct"),
    req("faults", "cluster/memcached-revocable", "mean_p99_ms"),
    req("faults", "cluster/memcached-revocable", "dropped_quanta"),
    Required {
        full_only: true,
        ..req("faults", "cluster/memcached-revocable", "retried_quanta")
    },
    req("faults", "cluster/memcached-straggler", "qos_pct"),
    req("faults", "cluster/memcached-straggler", "mean_p99_ms"),
    req("faults", "cluster/memcached-straggler", "dropped_quanta"),
    req("faults", "wave/memcached-zonewave", "qos_pct"),
    req("faults", "wave/memcached-zonewave", "mean_p99_ms"),
    req("faults", "wave/memcached-zonewave", "hedged_requests"),
];

/// Checks a `BENCH.jsonl` text: every line parses, no key repeats,
/// every full-run row beats its floor, and every [`REQUIRED`] floor is
/// present. Returns the row count, or one message per failure.
///
/// # Errors
///
/// Every failure found, one per line: a malformed line names its line
/// number, a floor miss, duplicate or missing row names its key.
pub fn check(text: &str) -> Result<usize, String> {
    let mut errors = Vec::new();
    let mut lines: HashMap<String, usize> = HashMap::new();
    let mut any_smoke = false;
    for (i, line) in text.lines().enumerate() {
        let n = i + 1;
        let row = match Row::parse(line) {
            Ok(row) => row,
            Err(e) => {
                errors.push(format!("line {n}: {e}: {line}"));
                continue;
            }
        };
        any_smoke |= row.smoke;
        if let Some(first) = lines.insert(row.key(), n) {
            errors.push(format!(
                "line {n}: duplicate {} (first on line {first})",
                row.key()
            ));
        }
        if !row.smoke && !row.holds() {
            errors.push(format!(
                "line {n}: {} {}: {} does not beat its floor {} ({} is better)",
                row.key(),
                row.size,
                row.value,
                row.floor,
                row.better.name()
            ));
        }
    }
    for r in REQUIRED {
        let k = key(r.layer, r.workload, r.metric);
        let excused = r.full_only && any_smoke;
        if !excused && !lines.contains_key(&k) {
            errors.push(format!("missing required row {k}"));
        }
    }
    if errors.is_empty() {
        Ok(lines.len())
    } else {
        Err(errors.join("\n"))
    }
}

/// The rows one run produced, and the key of every floor whose cells it
/// ran (a claimed floor with no row loses its old line).
#[derive(Default)]
pub struct Run {
    rows: Vec<Row>,
    claimed: Vec<String>,
}

impl Run {
    /// Claims `row`'s floor for a run whose cells ran but wrote no row:
    /// its old line is dropped.
    pub fn claim(&mut self, row: &Row) {
        self.claimed.push(row.key());
    }

    /// Adds a row (and claims its floor).
    pub fn push(&mut self, row: Row) {
        self.claimed.push(row.key());
        self.rows.push(row);
    }

    /// `old` with this run merged in: a claimed line is replaced in place
    /// by its new row, or dropped if the run wrote none; other lines are
    /// kept verbatim; new rows with no old line are appended.
    fn merge(&self, old: &str) -> String {
        let mut fresh: Vec<Option<&Row>> = self.rows.iter().map(Some).collect();
        let mut take = |k: &str| {
            fresh
                .iter_mut()
                .find(|r| r.is_some_and(|r| r.key() == k))
                .and_then(Option::take)
        };
        let mut out = String::new();
        for line in old.lines() {
            match Row::parse(line).map(|r| r.key()) {
                Ok(k) if self.claimed.contains(&k) => {
                    if let Some(row) = take(&k) {
                        out.push_str(&row.render());
                        out.push('\n');
                    }
                }
                _ => {
                    out.push_str(line);
                    out.push('\n');
                }
            }
        }
        for row in fresh.into_iter().flatten() {
            out.push_str(&row.render());
            out.push('\n');
        }
        out
    }

    /// Stamps every row with `smoke`, merges them into the file at
    /// `path`, and — on full runs — panics on any row that misses its
    /// floor (after writing, so the failing value is on record).
    pub fn record(mut self, path: &Path, smoke: bool) {
        if self.claimed.is_empty() {
            return; // --only matched no cell: leave the file alone
        }
        for row in &mut self.rows {
            row.smoke = smoke;
        }
        let old = std::fs::read_to_string(path).unwrap_or_default();
        match std::fs::write(path, self.merge(&old)) {
            Ok(()) => println!(
                "  [json] wrote {} rows to {}",
                self.rows.len(),
                path.display()
            ),
            Err(e) => panic!("write {}: {e}", path.display()),
        }
        if smoke {
            return;
        }
        let misses: Vec<String> = self
            .rows
            .iter()
            .filter(|r| !r.holds())
            .map(|r| {
                format!(
                    "{} {}: {} must be {} than {}",
                    r.key(),
                    r.size,
                    r.value,
                    r.better.name(),
                    r.floor
                )
            })
            .collect();
        assert!(misses.is_empty(), "floor missed:\n{}", misses.join("\n"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A full-run row for every required floor, each beating it.
    fn full_file() -> String {
        REQUIRED
            .iter()
            .map(|r| {
                Row::new(r.layer, r.workload, "n1", r.metric)
                    .higher(2.0, 1.0)
                    .render()
                    + "\n"
            })
            .collect()
    }

    #[test]
    fn rows_render_the_bench_schema() {
        let row = Row::new("node", "open/memcached-juno", "s6", "speedup")
            .higher(1.6543, 1.25)
            .oracle(19_876_543.0);
        let line = row.render();
        assert_eq!(
            line,
            "{\"layer\":\"node\",\"workload\":\"open/memcached-juno\",\"size\":\"s6\",\
             \"metric\":\"speedup\",\"value\":1.6543,\"oracle_value\":19876543,\
             \"floor\":1.25,\"better\":\"higher\",\"smoke\":false}"
        );
        assert_eq!(Row::parse(&line), Ok(row));
        let flat = Row::new("node", "open/memcached", "s64/s1024", "ratio").lower(1.31, 1.3);
        let line = flat.render();
        assert!(line.contains("\"oracle_value\":null"), "{line}");
        let back = Row::parse(&line).expect("parses");
        assert!(back.oracle_value.is_nan() && !back.holds());
        assert_eq!(round(4.6456, 3), 4.646);
    }

    #[test]
    fn a_full_file_meeting_every_floor_passes() {
        assert_eq!(check(&full_file()), Ok(REQUIRED.len()));
    }

    #[test]
    fn a_full_row_equal_to_its_floor_fails() {
        let text = full_file().replacen("\"value\":2", "\"value\":1", 1);
        let err = check(&text).unwrap_err();
        assert!(err.contains("does not beat its floor"), "{err}");
        let lower = Row::new("cluster", "x", "n1", "m").lower(1.3, 1.3);
        assert!(!lower.holds());
    }

    #[test]
    fn a_missing_required_row_fails_naming_its_key() {
        let text: String = full_file()
            .lines()
            .skip(1)
            .map(|l| format!("{l}\n"))
            .collect();
        let err = check(&text).unwrap_err();
        let r = &REQUIRED[0];
        assert!(
            err.contains(&format!(
                "missing required row {}",
                key(r.layer, r.workload, r.metric)
            )),
            "{err}"
        );
    }

    #[test]
    fn a_duplicate_key_fails() {
        let text = full_file();
        let first = text.lines().next().expect("non-empty");
        let err = check(&format!("{text}{first}\n")).unwrap_err();
        assert!(err.contains("duplicate"), "{err}");
    }

    #[test]
    fn a_malformed_line_fails_naming_its_line_number() {
        let text = full_file();
        let mut lines: Vec<&str> = text.lines().collect();
        lines.insert(2, "{\"layer\":\"node\"");
        let err = check(&lines.join("\n")).unwrap_err();
        assert!(err.starts_with("line 3: not a flat JSON object"), "{err}");
    }

    #[test]
    fn a_smoke_row_below_its_floor_passes() {
        let text = full_file().replacen("\"value\":2", "\"value\":0.5", 1);
        let text = text.replacen("\"smoke\":false", "\"smoke\":true", 1);
        assert_eq!(check(&text), Ok(REQUIRED.len()));
    }

    #[test]
    fn a_full_only_row_may_be_missing_beside_smoke_rows() {
        let full_only: Vec<String> = REQUIRED
            .iter()
            .filter(|r| r.full_only)
            .map(|r| key(r.layer, r.workload, r.metric))
            .collect();
        let kept: String = full_file()
            .lines()
            .filter(|l| !full_only.iter().any(|k| Row::parse(l).unwrap().key() == *k))
            .map(|l| format!("{l}\n"))
            .collect();
        assert!(check(&kept).is_err(), "a full file needs every row");
        let smoke = kept.replace("\"smoke\":false", "\"smoke\":true");
        assert_eq!(check(&smoke), Ok(REQUIRED.len() - full_only.len()));
    }

    #[test]
    fn a_run_replaces_its_claimed_rows_and_keeps_the_rest() {
        let old = "{\"layer\":\"a\"}\n".to_owned()
            + &Row::new("node", "w1", "s", "m").higher(2.0, 1.0).render()
            + "\n"
            + &Row::new("node", "w2", "s", "m").higher(2.0, 1.0).render()
            + "\n";
        let mut run = Run::default();
        run.push(Row::new("node", "w2", "s", "m").higher(3.0, 1.0));
        run.push(Row::new("node", "w3", "s", "m").higher(4.0, 1.0));
        run.claim(&Row::new("node", "w1", "s", "m"));
        let merged = run.merge(&old);
        let lines: Vec<&str> = merged.lines().collect();
        assert_eq!(lines.len(), 3, "{merged}");
        assert_eq!(lines[0], "{\"layer\":\"a\"}", "unparsed lines stay");
        assert!(lines[1].contains("\"workload\":\"w2\"") && lines[1].contains("\"value\":3"));
        assert!(lines[2].contains("\"workload\":\"w3\""));
    }
}
