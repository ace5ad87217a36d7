//! The committed `BENCH.jsonl` (written by `repro bench`) must be a full
//! run whose every value meets its floor.
//!
//! Each line is one flat JSON object in the bench schema
//! `{layer, workload, size, metric, value, oracle_value, floor, better,
//! smoke}`, read with the store's own codec. A smoke run (CI's, or a
//! local `repro bench --smoke`) rewrites the file with `"smoke":true`;
//! restore the committed one with `git checkout BENCH.jsonl`.

use hipster_core::store::json::JsonObj;

const BENCH: &str = include_str!("../../../BENCH.jsonl");

/// The `(workload, size)` of every floor a full run records.
const FLOORS: [(&str, &str); 4] = [
    ("closed/web-search", "c4096"),
    ("open/memcached-juno", "s6"),
    ("open/memcached", "s64/s1024"),
    ("closed/web-search", "c1024/c4096"),
];

#[test]
fn committed_bench_is_a_full_run_meeting_every_floor() {
    let mut seen = Vec::new();
    for (i, line) in BENCH.lines().enumerate() {
        let row = JsonObj::parse(line)
            .unwrap_or_else(|| panic!("line {}: not a flat JSON object: {line}", i + 1));
        let field = |key: &str| {
            row.get_str(key)
                .unwrap_or_else(|| panic!("line {}: missing string {key:?}", i + 1))
        };
        let num = |key: &str| {
            row.get_num(key)
                .unwrap_or_else(|| panic!("line {}: missing number {key:?}", i + 1))
        };
        let name = format!(
            "{} {} {} {}",
            field("layer"),
            field("workload"),
            field("size"),
            field("metric")
        );
        assert_eq!(
            row.get_bool("smoke"),
            Some(false),
            "{name}: the committed file must be a full run"
        );
        let (value, floor) = (num("value"), num("floor"));
        assert!(row.get("oracle_value").is_some(), "{name}: no oracle_value");
        let holds = match field("better") {
            "higher" => value >= floor,
            "lower" => value <= floor,
            other => panic!("{name}: better must be \"higher\" or \"lower\", got {other:?}"),
        };
        assert!(
            holds,
            "{name}: {value} does not meet its floor {floor} ({} is better)",
            field("better")
        );
        seen.push((field("workload").to_owned(), field("size").to_owned()));
    }
    for (workload, size) in FLOORS {
        assert!(
            seen.iter().any(|(w, s)| w == workload && s == size),
            "BENCH.jsonl lacks the {workload} {size} floor"
        );
    }
}
