//! `repro` — regenerates every table and figure of the Hipster paper.
//!
//! ```text
//! repro all            # everything (several minutes in release mode)
//! repro table2 fig2    # selected experiments
//! repro all --quick    # 4× shorter runs for a fast smoke pass
//! repro cluster        # beyond-paper 16-1024-node cluster sweep
//! repro faults         # fault injection + mitigation ablation, plus zone-wave
//!                      # cells (hedging + admission ladder) → the faults rows
//!                      # of BENCH.jsonl + waves_summary.csv
//! repro cluster --store d      # journal each cell to d/ as it finishes
//! repro cluster --store d --resume   # skip cells d/ already holds
//! repro bench          # perf floors → the node/control/cluster rows of BENCH.jsonl
//! repro bench --smoke  # same cells, seconds (CI)
//! repro bench --smoke --only open/   # just the cells matching a prefix
//! repro bench --check BENCH.jsonl    # every floor met, every required row present
//! ```
//!
//! `bench` and `faults` merge their rows into `BENCH.jsonl` in the
//! current directory; see `hipster_bench::floors` for the schema.

use hipster_bench::experiments as exp;

const EXPERIMENTS: &[(&str, fn(bool))] = &[
    ("table2", exp::table2::run),
    ("fig1", exp::fig1::run),
    ("fig2", exp::fig2::run),
    ("fig3", exp::fig3::run),
    ("fig5", exp::fig5::run),
    ("fig6", exp::fig6_7::run_fig6),
    ("fig7", exp::fig6_7::run_fig7),
    ("fig8", exp::fig8::run),
    ("fig9", exp::fig9::run),
    ("fig10", exp::fig10::run),
    ("fig11", exp::fig11::run),
    ("table3", exp::table3::run),
    ("ablation", exp::ablation::run),
];

fn usage() -> ! {
    eprintln!(
        "usage: repro [--quick] <experiment>...\n       repro [--quick] all\n       \
         repro [--quick] cluster [--store <dir>] [--resume]\n       \
         repro [--quick] faults [--store <dir>] [--resume]\n       \
         repro bench [--smoke] [--only <cell-prefix>]\n       \
         repro bench --check <file>\n\n\
         --store <dir>  journal every finished sweep cell to <dir> (fsync'd)\n\
         --resume       skip cells already in the store (requires --store)\n\
         --check <file> check a BENCH.jsonl: every floor met, every required row present\n\n\
         experiments: {} cluster faults bench",
        EXPERIMENTS
            .iter()
            .map(|(n, _)| *n)
            .collect::<Vec<_>>()
            .join(" ")
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick" || a == "-q");
    let smoke = args.iter().any(|a| a == "--smoke");
    // `--only <prefix>` restricts `bench` to cells whose name starts with
    // the prefix (the prefix itself must not be treated as an experiment).
    let only_flag_idx = args.iter().position(|a| a == "--only");
    let only: Option<&str> = only_flag_idx.map(|i| match args.get(i + 1) {
        Some(p) if !p.starts_with('-') => p.as_str(),
        _ => {
            eprintln!("--only requires a cell-name prefix");
            usage();
        }
    });
    let only_value_idx = only_flag_idx.map(|i| i + 1);
    // `--store <dir>` journals sweep cells durably; `--resume` restores
    // the cells a previous (possibly killed) run already finished.
    let store_flag_idx = args.iter().position(|a| a == "--store");
    let store: Option<&std::path::Path> = store_flag_idx.map(|i| match args.get(i + 1) {
        Some(p) if !p.starts_with('-') => std::path::Path::new(p.as_str()),
        _ => {
            eprintln!("--store requires a directory path");
            usage();
        }
    });
    let resume = args.iter().any(|a| a == "--resume");
    if resume && store.is_none() {
        eprintln!("--resume requires --store <dir>");
        usage();
    }
    let store_value_idx = store_flag_idx.map(|i| i + 1);
    // `--check <file>` makes `bench` check a results file instead of
    // running.
    let check_flag_idx = args.iter().position(|a| a == "--check");
    let check: Option<&str> = check_flag_idx.map(|i| match args.get(i + 1) {
        Some(p) if !p.starts_with('-') => p.as_str(),
        _ => {
            eprintln!("--check requires a file path");
            usage();
        }
    });
    let check_value_idx = check_flag_idx.map(|i| i + 1);
    let selected: Vec<&str> = args
        .iter()
        .enumerate()
        .filter(|(i, a)| {
            !a.starts_with('-')
                && ![only_value_idx, store_value_idx, check_value_idx].contains(&Some(*i))
        })
        .map(|(_, a)| a.as_str())
        .collect();
    if selected.is_empty() {
        usage();
    }
    // `bench` and `cluster` are not paper experiments: `bench` benchmarks
    // the event core itself and `cluster` extrapolates beyond the paper's
    // single machine. Both are deliberately excluded from `all`, which
    // reproduces the paper's tables/figures.
    let run_all = selected.contains(&"all");
    let mut matched = false;
    if let Some(path) = check {
        if selected != ["bench"] {
            eprintln!("--check goes with `bench` alone");
            usage();
        }
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("{path}: {e}");
            std::process::exit(1);
        });
        match hipster_bench::floors::check(&text) {
            Ok(rows) => println!("ok: {path}: {rows} rows, every floor met"),
            Err(failures) => {
                eprintln!("{path}: floor check failed:\n{failures}");
                std::process::exit(1);
            }
        }
        return;
    }
    if selected.contains(&"bench") {
        matched = true;
        let start = std::time::Instant::now();
        hipster_bench::perfbench::run(smoke, only);
        println!("[bench done in {:.1}s]\n", start.elapsed().as_secs_f64());
    }
    if selected.contains(&"cluster") {
        matched = true;
        let start = std::time::Instant::now();
        exp::cluster::run(quick, store, resume);
        println!("[cluster done in {:.1}s]\n", start.elapsed().as_secs_f64());
    }
    if selected.contains(&"faults") {
        matched = true;
        let start = std::time::Instant::now();
        exp::faults::run(quick, store, resume);
        println!("[faults done in {:.1}s]\n", start.elapsed().as_secs_f64());
    }
    for (name, runner) in EXPERIMENTS {
        if run_all || selected.contains(name) {
            matched = true;
            let start = std::time::Instant::now();
            runner(quick);
            println!("[{name} done in {:.1}s]\n", start.elapsed().as_secs_f64());
        }
    }
    for want in &selected {
        if *want != "all"
            && *want != "bench"
            && *want != "cluster"
            && *want != "faults"
            && !EXPERIMENTS.iter().any(|(n, _)| n == want)
        {
            eprintln!("unknown experiment: {want}");
            matched = false;
        }
    }
    if !matched {
        usage();
    }
}
