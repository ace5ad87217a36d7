//! Experiment harness for the Hipster (HPCA 2017) reproduction.
//!
//! One module per table/figure of the paper's evaluation, each printing the
//! same rows/series the paper reports (see `DESIGN.md` §4 for the index and
//! `EXPERIMENTS.md` for paper-vs-measured results). Run them through the
//! `repro` binary:
//!
//! ```text
//! cargo run --release -p hipster-bench --bin repro -- all
//! cargo run --release -p hipster-bench --bin repro -- fig2 table3 --quick
//! ```

#![warn(missing_docs)]

pub mod experiments;
pub mod floors;
pub mod perfbench;
pub mod runner;
pub mod tablefmt;

/// Where experiment CSV dumps land (created on demand).
pub const RESULTS_DIR: &str = "results";

/// Writes a CSV artifact under [`RESULTS_DIR`], ignoring I/O errors (the
/// printed tables are the primary output; CSVs are a plotting convenience).
pub fn write_csv(name: &str, content: &str) {
    let _ = std::fs::create_dir_all(RESULTS_DIR);
    let path = format!("{RESULTS_DIR}/{name}");
    if std::fs::write(&path, content).is_ok() {
        println!("  [csv] wrote {path}");
    }
}
