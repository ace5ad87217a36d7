//! The committed `BENCH.jsonl` (written by `repro bench` and
//! `repro faults`) must be a full run whose every floor holds — the same
//! check `repro bench --check BENCH.jsonl` runs. A smoke run (CI's, or a
//! local `repro bench --smoke`) rewrites rows with `"smoke":true`;
//! restore the committed file with `git checkout BENCH.jsonl`.

use hipster_bench::floors::{check, Row};

const BENCH: &str = include_str!("../../../BENCH.jsonl");

#[test]
fn committed_bench_meets_every_floor() {
    if let Err(failures) = check(BENCH) {
        panic!("BENCH.jsonl:\n{failures}");
    }
}

#[test]
fn committed_bench_is_a_full_run() {
    for (i, line) in BENCH.lines().enumerate() {
        let row = Row::parse(line).unwrap_or_else(|e| panic!("line {}: {e}", i + 1));
        assert!(!row.smoke, "line {}: {} is a smoke row", i + 1, row.key());
    }
}
