//! `solvebench`: the repository's end-to-end solve benchmark.
//!
//! ```text
//! solvebench --workload <anneal-fast|train-rl|anneal-hotspot|serve-mixed>
//!            --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one seeded workload through the public facade for `--seconds`,
//! checks every output, and prints each metric by name with its unit; the
//! last line of standard output is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones; with `--trace 1` they are the
//! per-layer ones, taken from a traced run of the same workload. See
//! `README.md` in this directory.

mod calib;
mod probe;
mod serve;
mod stats;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;
use trace::{Aggregate, Tracer};
use workloads::{Bench, Kind, Phase, ThermalComparison, SETUP_REPS, WORKLOADS};

/// Command-line arguments.
struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                })
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let kind = Kind::parse(&workload).ok_or_else(|| {
        format!(
            "unknown workload `{workload}`; expected one of {}",
            WORKLOADS.join(", ")
        )
    })?;
    Ok(Args {
        kind,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Everything a run prints.
#[derive(Default)]
pub struct Report {
    metrics: Vec<(String, f64, &'static str)>,
    notes: Vec<String>,
    pub attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Report {
    fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    /// Counts one failed operation.
    pub fn fail(&mut self, problem: String) {
        self.failed += 1;
        self.problems.push(problem);
    }

    fn take(&mut self, phase: &Phase) {
        self.attempted += phase.attempted;
        self.failed += phase.failed;
        self.problems.extend(phase.problems.iter().cloned());
    }

    fn print(&self) {
        for (name, value, unit) in &self.metrics {
            println!("{name:<36} {value:>16.6} {unit}");
        }
        for note in &self.notes {
            println!("note: {note}");
        }
        for problem in &self.problems {
            println!("FAILED: {problem}");
        }
        let finite = self.metrics.iter().all(|(_, v, _)| v.is_finite());
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { -1.0 };
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && finite,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        );
    }
}

/// Peak resident memory of this process in MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The timed phase's end-to-end metrics. Times are scaled by the host
/// clock (see `calib`); the notes give the measured ones beside them.
fn end_to_end(
    report: &mut Report,
    setup_s: &[f64],
    setup_measured_s: &[f64],
    phase: &Phase,
    thermal: &ThermalComparison,
) {
    let (percentile, tail) = stats::tail(&phase.latencies_ms);
    report.metric("setup_s", stats::median(setup_s), "s");
    report.metric("solves_per_s", phase.solves_per_s(), "1/s");
    report.metric("solve_p50_ms", stats::median(&phase.latencies_ms), "ms");
    report.metric("solve_tail_ms", tail, "ms");
    report.metric("reward_mean", phase.reward_mean(), "reward");
    report.metric("thermal_mae_k", thermal.mae_k(), "K");
    report.metric("peak_rss_mb", peak_rss_mb(), "MB");
    report.notes.push(format!(
        "solve_tail_ms is p{percentile:.2} of {} solves; setup_s is the median of {} set-ups {:.3?} s",
        phase.latencies_ms.len(),
        setup_s.len(),
        setup_s
    ));
    for (method, latencies) in &phase.per_method_ms {
        let (percentile, tail) = stats::tail(latencies);
        report.notes.push(format!(
            "{method}: {} solves, p50 {:.3} ms, p{percentile:.2} {tail:.3} ms",
            latencies.len(),
            stats::median(latencies),
        ));
    }
    report.notes.push(format!(
        "measured before host scaling (median factor {:.4}): solves_per_s={:.4} solve_p50_ms={:.4} \
         solve_tail_ms={:.4} setup_s={:.4}",
        phase.host_factor,
        phase.measured_latencies_ms.len() as f64 / phase.measured_elapsed_s,
        stats::median(&phase.measured_latencies_ms),
        stats::tail(&phase.measured_latencies_ms).1,
        stats::median(setup_measured_s),
    ));
}

/// Registry state captured around the first set-up of a traced run.
struct SetupTrace {
    counts: BTreeMap<String, u64>,
    characterization: Aggregate,
}

/// Registry histograms and counters captured around the traced phase.
struct PhaseTrace {
    collect: Aggregate,
    update: Aggregate,
    queue: Aggregate,
    solve: Aggregate,
    episodes: u64,
}

fn run(args: &Args) -> Result<Report, String> {
    let out_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&out_dir)
        .map_err(|e| format!("creating {}: {e}", out_dir.display()))?;
    let mut report = Report::default();
    let mut bench = Bench::new(args.kind, args.seed, out_dir.clone());

    // Set-up runs several times; the run keeps the last one. A traced run
    // reads the registry over the first.
    rlp_obs::set_metrics_enabled(args.trace);
    let before = trace::counters();
    let characterization = trace::histogram("thermal.characterization_ns");
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut setup_measured_s = Vec::with_capacity(SETUP_REPS);
    let mut setup_trace = None;
    for _ in 0..SETUP_REPS {
        let (result, scaled, measured) = calib::scaled_block(|| bench.setup());
        result?;
        setup_s.push(scaled);
        setup_measured_s.push(measured);
        if setup_trace.is_none() {
            let after = trace::counters();
            let counts = after
                .keys()
                .map(|name| (name.clone(), trace::delta(&after, &before, name)))
                .collect();
            setup_trace = Some(SetupTrace {
                counts,
                characterization: trace::since(
                    trace::histogram("thermal.characterization_ns"),
                    characterization,
                ),
            });
            rlp_obs::set_metrics_enabled(false);
        }
    }
    let setup_trace = setup_trace.expect("at least one set-up ran");

    if !args.trace {
        let phase = bench.run_phase(args.seconds, None);
        report.take(&phase);
        let thermal = bench.check(&phase, &mut report)?;
        end_to_end(&mut report, &setup_s, &setup_measured_s, &phase, &thermal);
    } else {
        // Half the time untraced, half traced: the difference is the
        // tracing overhead, and the two first passes must agree exactly.
        let untraced = bench.run_phase(args.seconds / 2.0, None);
        rlp_obs::set_metrics_enabled(true);
        let tracer = Tracer::new(Instant::now());
        let collect = trace::histogram("rl.rollout_collect_ns");
        let update = trace::histogram("rl.update_ns");
        let queue = trace::histogram("serve.job.queue_wait_ns");
        let solve = trace::histogram("serve.job.solve_ns");
        let traced = bench.run_phase(args.seconds / 2.0, Some(&tracer));
        let phase_trace = PhaseTrace {
            collect: trace::since(trace::histogram("rl.rollout_collect_ns"), collect),
            update: trace::since(trace::histogram("rl.update_ns"), update),
            queue: trace::since(trace::histogram("serve.job.queue_wait_ns"), queue),
            solve: trace::since(trace::histogram("serve.job.solve_ns"), solve),
            episodes: trace::delta(&trace::counters(), &traced.counters_start, "rl.episodes"),
        };
        report.take(&untraced);
        report.take(&traced);
        for (index, (a, b)) in untraced.first.iter().zip(&traced.first).enumerate() {
            if let (Some(a), Some(b)) = (a, b) {
                if !a.same_as(b) {
                    report.fail(format!(
                        "job {index}: the traced solve differs from the untraced one"
                    ));
                }
            }
        }
        let thermal = bench.check(&untraced, &mut report)?;
        layers(
            &bench,
            &untraced,
            &traced,
            &tracer,
            &setup_trace,
            &phase_trace,
            &thermal,
            &mut report,
        )?;
        let mut untraced_report = Report::default();
        end_to_end(
            &mut untraced_report,
            &setup_s,
            &setup_measured_s,
            &untraced,
            &thermal,
        );
        report.notes.push(format!(
            "untraced half: {}",
            untraced_report
                .metrics
                .iter()
                .map(|(n, v, u)| format!("{n}={v:.6} {u}"))
                .collect::<Vec<_>>()
                .join(", ")
        ));
        let path = out_dir.join(format!(
            "{}-seed{}.trace.jsonl",
            args.kind.name(),
            args.seed
        ));
        tracer
            .write_jsonl(&path)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        report
            .notes
            .push(format!("first-pass spans written to {}", path.display()));
        let self_times = tracer.self_times();
        report.notes.push(format!(
            "first-pass self time by span (ms): {}",
            self_times
                .iter()
                .map(|(n, ns)| format!("{n}={:.3}", *ns as f64 / 1e6))
                .collect::<Vec<_>>()
                .join(", ")
        ));
    }
    if let Some(daemon) = bench.daemon.take() {
        daemon.stop()?;
    }
    Ok(report)
}

fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator > 0.0 {
        numerator / denominator
    } else {
        0.0
    }
}

/// Every per-layer metric: measured in place where the workload's solves
/// pass through a seam, otherwise by a probe on the workload's own inputs.
#[allow(clippy::too_many_arguments)]
fn layers(
    bench: &Bench,
    untraced: &Phase,
    traced: &Phase,
    tracer: &Tracer,
    setup: &SetupTrace,
    phase: &PhaseTrace,
    thermal: &ThermalComparison,
    report: &mut Report,
) -> Result<(), String> {
    let kind = bench.kind;
    let first =
        |name: &str| trace::delta(&traced.counters_first_pass, &traced.counters_start, name);
    let setup_count = |name: &str| setup.counts.get(name).copied().unwrap_or(0);
    let items = bench.best_placements(untraced);
    let probe_policy = bench
        .out_dir
        .join(format!("{}-seed{}-probe.policy", kind.name(), bench.seed))
        .display()
        .to_string();
    let moves = probe::moves(bench, &items);
    let sa = probe::anneal(bench);
    let rl = probe::train(bench, &probe_policy)?;
    let json = probe::json(bench, untraced);
    let env_nn = probe::env_and_nn(bench);
    let serve_probe = match kind {
        Kind::ServeMixed => None,
        _ => Some(serve::probe(bench)?),
    };
    let us = |a: Aggregate| a.mean_ns() / 1e3;
    let ms = |a: Aggregate| a.mean_ns() / 1e6;

    // rlp-thermal
    report.metric(
        "thermal.characterize_s",
        setup.characterization.mean_ns() / 1e9,
        "s",
    );
    report.metric(
        "thermal.cache_misses",
        setup_count("thermal.cache.misses") as f64,
        "count",
    );
    report.metric("thermal.state_move_ns", moves.thermal.mean_ns(), "ns");
    let fast_eval = match kind {
        Kind::TrainRl => tracer.total("thermal.analyzer"),
        _ => probe::fast_eval(bench, &items),
    };
    report.metric("thermal.fast_eval_us", us(fast_eval), "us");
    report.metric(
        "thermal.gradient_us",
        us(probe::thermal_gradient(bench, &items)),
        "us",
    );
    let grid_eval = match kind {
        Kind::AnnealHotspot => tracer.total("thermal.analyzer"),
        _ => thermal.grid,
    };
    report.metric("thermal.grid_eval_ms", ms(grid_eval), "ms");
    report.metric(
        "thermal.fast_speedup",
        ratio(thermal.grid.mean_ns(), thermal.fast.mean_ns()),
        "x",
    );

    // rlp-linalg: set-up plus the first traced pass.
    let cg_solves = setup_count("linalg.cg.solves") + first("linalg.cg.solves");
    let cg_iterations = setup_count("linalg.cg.iterations") + first("linalg.cg.iterations");
    report.metric("linalg.cg_solves", cg_solves as f64, "count");
    report.metric(
        "linalg.cg_iters_per_solve",
        ratio(cg_iterations as f64, cg_solves as f64),
        "count",
    );

    // rlp-chiplet
    report.metric("chiplet.wl_move_ns", moves.wirelength.mean_ns(), "ns");
    let nets_per_move = match kind {
        Kind::AnnealFast => ratio(
            first("chiplet.incremental.nets_recomputed") as f64,
            first("sa.moves.proposed") as f64,
        ),
        _ => ratio(moves.nets_recomputed as f64, moves.moves as f64),
    };
    report.metric("chiplet.nets_recomputed_per_move", nets_per_move, "count");
    report.metric(
        "chiplet.wl_full_us",
        us(probe::wirelength_full(bench, &items)),
        "us",
    );
    report.metric(
        "chiplet.smooth_grad_us",
        us(probe::smooth_gradient(bench, &items)),
        "us",
    );

    // rlp-sa
    let sa_native = matches!(kind, Kind::AnnealFast | Kind::AnnealHotspot);
    let (evals_per_solve, accept_ratio, anneal, objective, sa_moves) = if sa_native {
        (
            ratio(
                (first("sa.evals.full") + first("sa.evals.incremental")) as f64,
                bench.jobs.len() as f64,
            ),
            ratio(
                first("sa.moves.accepted") as f64,
                first("sa.moves.proposed") as f64,
            ),
            tracer.total("sa.anneal"),
            tracer.total("sa.objective"),
            tracer.total("sa.moves").calls,
        )
    } else {
        (
            ratio(sa.evals as f64, sa.solves as f64),
            ratio(sa.accepted as f64, sa.proposed as f64),
            sa.anneal,
            sa.objective,
            sa.moves,
        )
    };
    report.metric("sa.evals_per_solve", evals_per_solve, "count");
    report.metric("sa.accept_ratio", accept_ratio, "ratio");
    report.metric(
        "sa.self_ns_per_move",
        ratio(
            anneal.ns.saturating_sub(objective.ns) as f64,
            sa_moves as f64,
        ),
        "ns",
    );
    report.metric(
        "sa.objective_share",
        ratio(objective.ns as f64, anneal.ns as f64),
        "ratio",
    );

    // rlp-nn
    report.metric("nn.forward_us", us(env_nn.forward), "us");
    report.metric("nn.backward_us", us(env_nn.backward), "us");
    let optim_steps = match kind {
        Kind::TrainRl => first("nn.optim.steps"),
        _ => rl.optim_steps,
    };
    report.metric("nn.optim_steps", optim_steps as f64, "count");

    // rlp-rl
    let (collect, update, episodes, train_s) = match kind {
        Kind::TrainRl => (
            phase.collect,
            phase.update,
            phase.episodes,
            tracer.total("solve").ns as f64 / 1e9,
        ),
        _ => (rl.collect, rl.update, rl.episodes, rl.solve_ms / 1e3),
    };
    report.metric("rl.collect_ms", ms(collect), "ms");
    report.metric("rl.update_ms", ms(update), "ms");
    report.metric(
        "rl.update_share",
        ratio(update.ns as f64, (collect.ns + update.ns) as f64),
        "ratio",
    );
    report.metric("rl.episodes_per_s", ratio(episodes as f64, train_s), "1/s");

    // rlplanner
    report.metric("rlplanner.env_step_us", us(env_nn.step), "us");
    report.metric(
        "rlplanner.reward_eval_us",
        us(probe::reward_eval(bench, &items)),
        "us",
    );
    let policy = match kind {
        Kind::ServeMixed => bench.policy_path.clone(),
        _ => probe_policy,
    };
    for method in ["sa", "sa-hotspot", "rl", "gradient", "pretrained"] {
        // serve-mixed's own latencies are daemon round trips, not facade
        // solves, so it probes every method.
        let native = match kind {
            Kind::ServeMixed => None,
            _ => untraced.per_method_ms.get(method),
        };
        let solve_ms = match native {
            Some(latencies) => stats::median(latencies),
            None if method == "rl" => rl.solve_ms,
            None => probe::method_solve(bench, method, &policy)?,
        };
        report.metric(&format!("rlplanner.solve_ms.{method}"), solve_ms, "ms");
    }
    report.metric("rlplanner.request_render_us", us(json.request_render), "us");
    report.metric("rlplanner.request_parse_us", us(json.request_parse), "us");
    report.metric("rlplanner.outcome_render_us", us(json.outcome_render), "us");
    report.metric("rlplanner.outcome_parse_us", us(json.outcome_parse), "us");

    // rlp-serve
    let (roundtrip, queue, solve, busy, preload_hits) = match &serve_probe {
        None => (
            tracer.total("serve.roundtrip"),
            phase.queue,
            phase.solve,
            untraced.busy_retries + traced.busy_retries,
            first("plan.policy_preload_hits"),
        ),
        Some(p) => (p.roundtrip, p.queue, p.solve, p.busy_retries, 0),
    };
    report.metric("serve.roundtrip_ms", ms(roundtrip), "ms");
    report.metric("serve.queue_ms", ms(queue), "ms");
    report.metric("serve.solve_ms", ms(solve), "ms");
    report.metric(
        "serve.overhead_ms",
        ms(roundtrip) - ms(queue) - ms(solve),
        "ms",
    );
    report.metric("serve.busy_retries", busy as f64, "count");
    report.metric("serve.preload_hits", preload_hits as f64, "count");

    // The trace itself: how much of the solve time named layers cover,
    // and what tracing cost.
    let solve_total = tracer.total("solve").ns as f64;
    let coverage = match kind {
        Kind::AnnealFast | Kind::AnnealHotspot => ratio(objective.ns as f64, solve_total),
        Kind::TrainRl => ratio((collect.ns + update.ns) as f64, solve_total),
        Kind::ServeMixed => ratio((queue.ns + solve.ns) as f64, roundtrip.ns as f64),
    };
    report.metric("trace.coverage", coverage, "ratio");
    report.metric(
        "trace.overhead.solves_per_s",
        traced.solves_per_s() - untraced.solves_per_s(),
        "1/s",
    );
    report.metric(
        "trace.overhead.solve_p50_ms",
        stats::median(&traced.latencies_ms) - stats::median(&untraced.latencies_ms),
        "ms",
    );
    report.metric(
        "trace.overhead.solve_tail_ms",
        stats::tail(&traced.latencies_ms).1 - stats::tail(&untraced.latencies_ms).1,
        "ms",
    );
    report.notes.push(format!(
        "traced reward_mean {:.12} == untraced {:.12}",
        traced.reward_mean(),
        untraced.reward_mean()
    ));
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("solvebench: {e}");
            eprintln!(
                "usage: solvebench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(report) => {
            report.print();
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("solvebench: {e}");
            ExitCode::FAILURE
        }
    }
}
