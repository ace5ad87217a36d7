//! The paper's Table 3 and the accuracy errors measured against it.
//!
//! Nishtala et al., "Hipster: Hybrid Task Manager for Latency-Critical
//! Cloud Workloads", HPCA 2017, Table 3 (HipsterIn summary): QoS
//! guarantee and energy reduction versus the static all-big-core mapping,
//! for Memcached and Web-Search under the diurnal load. The repro's own
//! copy (`experiments::table3`) is private, so the benchmark keeps one.

/// Policies in Table 3 row order (also the repro's declaration order).
pub const POLICIES: [&str; 5] = [
    "Static (all big cores)",
    "Static (all small cores)",
    "Hipster's Heuristic",
    "Octopus-Man",
    "HipsterIn",
];

/// Table 3 QoS guarantee, percent: `[workload][policy]`, Memcached first.
pub const PAPER_QOS_PCT: [[f64; 5]; 2] = [
    [99.5, 85.8, 89.9, 92.0, 99.4],
    [99.5, 78.4, 95.3, 80.0, 96.5],
];

/// Table 3 energy reduction versus Static (all big cores), percent:
/// `[workload][policy - 1]` (the baseline row has no reduction).
pub const PAPER_ENERGY_PCT: [[f64; 4]; 2] = [[48.0, 18.7, 17.2, 14.3], [31.0, 13.6, 4.3, 17.8]];

/// What `repro table3` prints at its seed 111 (one decimal), the
/// cross-check for `node-diurnal` run at the same seed.
pub const REPRO_SEED: u64 = 111;
/// `repro table3` QoS guarantee column at seed 111.
pub const REPRO_QOS_PCT: [[f64; 5]; 2] = [
    [100.0, 86.3, 93.7, 81.0, 97.3],
    [100.0, 73.8, 91.7, 87.0, 94.5],
];
/// `repro table3` energy-reduction column at seed 111.
pub const REPRO_ENERGY_PCT: [[f64; 4]; 2] = [[15.9, 4.6, 4.7, 6.0], [14.5, 9.3, 7.1, 10.2]];

fn mean_abs_err<const N: usize>(measured: &[[f64; N]; 2], paper: &[[f64; N]; 2]) -> f64 {
    let diffs: Vec<f64> = measured
        .iter()
        .flatten()
        .zip(paper.iter().flatten())
        .map(|(m, p)| (m - p).abs())
        .collect();
    diffs.iter().sum::<f64>() / diffs.len() as f64
}

/// Mean absolute error, percentage points, of the ten QoS cells.
pub fn qos_err_pp(measured: &[[f64; 5]; 2]) -> f64 {
    mean_abs_err(measured, &PAPER_QOS_PCT)
}

/// Mean absolute error, percentage points, of the eight energy cells.
pub fn energy_err_pp(measured: &[[f64; 4]; 2]) -> f64 {
    mean_abs_err(measured, &PAPER_ENERGY_PCT)
}

/// Whether `measured`, rounded as the repro prints it, equals `printed`.
pub fn matches_printed<const N: usize>(measured: &[[f64; N]; 2], printed: &[[f64; N]; 2]) -> bool {
    measured
        .iter()
        .flatten()
        .zip(printed.iter().flatten())
        .all(|(m, p)| format!("{m:.1}") == format!("{p:.1}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_vanish_on_the_papers_own_values() {
        assert_eq!(qos_err_pp(&PAPER_QOS_PCT), 0.0);
        assert_eq!(energy_err_pp(&PAPER_ENERGY_PCT), 0.0);
    }

    #[test]
    fn repro_columns_give_the_documented_errors() {
        // 35.6 pp over ten QoS cells and 98.2 pp over eight energy cells.
        assert!((qos_err_pp(&REPRO_QOS_PCT) - 3.56).abs() < 1e-9);
        assert!((energy_err_pp(&REPRO_ENERGY_PCT) - 12.275).abs() < 1e-9);
    }

    #[test]
    fn printed_match_rounds_like_the_repro() {
        let mut m = REPRO_QOS_PCT;
        m[0][4] = 97.3333;
        assert!(matches_printed(&m, &REPRO_QOS_PCT));
        m[0][4] = 97.36;
        assert!(!matches_printed(&m, &REPRO_QOS_PCT));
    }
}
