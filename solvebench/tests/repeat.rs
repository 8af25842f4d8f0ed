//! The traced run's host-independent counts and `reward_mean` repeat
//! exactly across two runs of one seed, and `reward_mean` changes with the
//! seed — so a later change can claim a count, not only a speed-up.
//!
//! Each test runs the release binary three times on one workload (about a
//! minute for anneal-fast, less for the others):
//!
//! ```sh
//! cargo test --release --manifest-path solvebench/Cargo.toml
//! ```

use std::process::Command;

/// Per-layer metrics that are counts of work, not times.
const COUNTS: [&str; 8] = [
    "thermal.cache_misses",
    "linalg.cg_solves",
    "linalg.cg_iters_per_solve",
    "chiplet.nets_recomputed_per_move",
    "sa.evals_per_solve",
    "sa.accept_ratio",
    "nn.optim_steps",
    "serve.preload_hits",
];

/// The counts (in `COUNTS` order) and the traced `reward_mean` of one
/// traced run.
fn traced_run(workload: &str, seed: u64) -> (Vec<f64>, String) {
    let output = Command::new(env!("CARGO_BIN_EXE_solvebench"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", "1", "--trace", "1"])
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8(output.stdout).expect("utf-8 output");
    assert!(
        output.status.success(),
        "{workload} seed {seed} failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let result = stdout.lines().last().expect("a result line");
    assert!(
        result.starts_with("{\"correct\": true,"),
        "{workload} seed {seed} is incorrect:\n{stdout}"
    );
    let counts = COUNTS
        .iter()
        .map(|name| {
            let key = format!("\"{name}\": {{\"value\": ");
            let start = result
                .find(&key)
                .unwrap_or_else(|| panic!("{name} missing"))
                + key.len();
            let end = start + result[start..].find(',').expect("value ends");
            result[start..end].parse().expect("numeric value")
        })
        .collect();
    let reward = stdout
        .lines()
        .find_map(|line| line.strip_prefix("note: traced reward_mean "))
        .and_then(|rest| rest.split_whitespace().next())
        .expect("a reward_mean note")
        .to_string();
    (counts, reward)
}

fn counts_repeat(workload: &str) {
    let (counts, reward) = traced_run(workload, 1);
    let (counts_again, reward_again) = traced_run(workload, 1);
    assert_eq!(
        counts, counts_again,
        "{workload}: counts differ between runs of seed 1"
    );
    assert_eq!(
        reward, reward_again,
        "{workload}: reward_mean differs between runs of seed 1"
    );
    let (_, reward_other) = traced_run(workload, 2);
    assert_ne!(
        reward, reward_other,
        "{workload}: reward_mean does not depend on the seed"
    );
}

#[test]
fn anneal_fast_counts_repeat() {
    counts_repeat("anneal-fast");
}

#[test]
fn train_rl_counts_repeat() {
    counts_repeat("train-rl");
}

#[test]
fn anneal_hotspot_counts_repeat() {
    counts_repeat("anneal-hotspot");
}

#[test]
fn serve_mixed_counts_repeat() {
    counts_repeat("serve-mixed");
}
