//! The four workloads: their systems, seeded job lists, set-up, closed
//! loops and output checks.

use crate::calib::HostClock;
use crate::serve::{self, Daemon};
use crate::trace::{self, Aggregate, CallStats, TimedAnalyzer, TimedDelta, Tracer};
use crate::Report;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use rlp_benchmarks::{ascend910_system, cpu_dram_system, multi_gpu_system, synthetic_case};
use rlp_chiplet::{ChipletSystem, Placement, PlacementGrid};
use rlp_rl::{PpoStats, TrainingObserver};
use rlp_sa::moves::random_initial_placement;
use rlp_sa::{NullAnnealObserver, SaConfig, SaPlanner};
use rlp_thermal::{
    CharacterizationOptions, GridThermalSolver, ThermalAnalyzer, ThermalBackend, ThermalConfig,
    ThermalModelCache,
};
use rlplanner::report::{outcome_json, request_json};
use rlplanner::{
    outcome_from_json, Budget, FloorplanOutcome, FloorplanRequest, Method, PrebuiltThermal,
    RewardCalculator, RlPlanner,
};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// How many times set-up runs per process; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;

/// Random legal placements added to the thermal comparison, split evenly
/// over the workload's systems.
const REFERENCE_PLACEMENTS: usize = 128;

/// Seed of those placements, fixed so every run compares the same ones.
const REFERENCE_SEED: u64 = 0x7AB1E2;

/// Training seed of serve-mixed's policy.
const POLICY_SEED: u64 = 1;

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = ["anneal-fast", "train-rl", "anneal-hotspot", "serve-mixed"];

/// The 32×32 package configuration the CLI uses.
pub fn thermal_config() -> ThermalConfig {
    ThermalConfig::with_grid(32, 32)
}

/// The CLI's fast backend.
pub fn fast_backend() -> ThermalBackend {
    ThermalBackend::Fast {
        config: thermal_config(),
        characterization: CharacterizationOptions::default(),
    }
}

/// The CLI's grid ("HotSpot") backend.
pub fn grid_backend() -> ThermalBackend {
    ThermalBackend::Grid {
        config: thermal_config(),
    }
}

/// The CLI's SA configuration (`sa-fast` and `sa-hotspot` share it).
pub fn sa_method() -> Method {
    Method::Sa {
        config: SaConfig {
            final_temperature: 1e-6,
            ..SaConfig::default()
        },
    }
}

/// Daemon workers for serve-mixed: two, or fewer on a one-core host.
pub fn daemon_workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
}

/// Which workload a run measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    AnnealFast,
    TrainRl,
    AnnealHotspot,
    ServeMixed,
}

impl Kind {
    pub fn parse(name: &str) -> Option<Kind> {
        match name {
            "anneal-fast" => Some(Kind::AnnealFast),
            "train-rl" => Some(Kind::TrainRl),
            "anneal-hotspot" => Some(Kind::AnnealHotspot),
            "serve-mixed" => Some(Kind::ServeMixed),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Kind::AnnealFast => "anneal-fast",
            Kind::TrainRl => "train-rl",
            Kind::AnnealHotspot => "anneal-hotspot",
            Kind::ServeMixed => "serve-mixed",
        }
    }

    /// The systems the workload solves.
    fn systems(self) -> Vec<ChipletSystem> {
        match self {
            Kind::AnnealFast => {
                let mut systems = vec![multi_gpu_system(), cpu_dram_system(), ascend910_system()];
                systems.extend((1..=5).map(synthetic_case));
                systems
            }
            // Three systems, so the median latency falls inside the middle
            // system's cluster instead of on the gap between two.
            Kind::TrainRl => vec![synthetic_case(1), synthetic_case(2), synthetic_case(3)],
            Kind::AnnealHotspot => vec![synthetic_case(1), synthetic_case(2)],
            Kind::ServeMixed => vec![multi_gpu_system(), cpu_dram_system(), synthetic_case(1)],
        }
    }

    /// The (method label, method, backend, budget) of every job; serve-mixed
    /// alternates two methods, the others run one.
    fn methods(self, policy: &str) -> Vec<(&'static str, Method, ThermalBackend, Budget)> {
        match self {
            Kind::AnnealFast => {
                vec![("sa", sa_method(), fast_backend(), Budget::Evaluations(1000))]
            }
            Kind::TrainRl => vec![("rl", Method::rl(), fast_backend(), Budget::Evaluations(24))],
            Kind::AnnealHotspot => vec![(
                "sa-hotspot",
                sa_method(),
                grid_backend(),
                Budget::Evaluations(8),
            )],
            Kind::ServeMixed => vec![
                (
                    "pretrained",
                    Method::pretrained(policy),
                    fast_backend(),
                    Budget::Evaluations(1),
                ),
                (
                    "gradient",
                    Method::gradient(),
                    fast_backend(),
                    Budget::Evaluations(60),
                ),
            ],
        }
    }

    /// Solve seeds per (system, method) pair: enough solves per pass that
    /// `reward_mean` and `thermal_mae_k` vary little from one workload
    /// seed to the next.
    fn seeds_per_pair(self) -> usize {
        match self {
            Kind::AnnealFast => 6,
            Kind::TrainRl => 16,
            Kind::AnnealHotspot => 24,
            Kind::ServeMixed => 8,
        }
    }
}

/// One solve of the workload's job list.
pub struct Job {
    pub sys: usize,
    pub method: &'static str,
    pub request: FloorplanRequest,
}

/// What a solve produced, in the fields every path can report.
#[derive(Debug, Clone, PartialEq)]
pub struct Solved {
    pub reward: f64,
    pub placement: Placement,
    pub evaluations: usize,
}

impl Solved {
    pub fn of(outcome: &FloorplanOutcome) -> Self {
        Solved {
            reward: outcome.breakdown.reward,
            placement: outcome.placement.clone(),
            evaluations: outcome.evaluations,
        }
    }

    /// Bit-identical reward, same placement, same evaluation count.
    pub fn same_as(&self, other: &Solved) -> bool {
        self.reward.to_bits() == other.reward.to_bits()
            && self.placement == other.placement
            && self.evaluations == other.evaluations
    }
}

/// One timed phase of a closed loop. Its latencies and elapsed time are
/// scaled by the host clock (see `calib`); the measured ones are kept for
/// the printed notes.
#[derive(Default)]
pub struct Phase {
    pub latencies_ms: Vec<f64>,
    pub per_method_ms: BTreeMap<&'static str, Vec<f64>>,
    /// Scaled time of the phase's work, without the pauses for reference
    /// timings.
    pub elapsed_s: f64,
    pub measured_latencies_ms: Vec<f64>,
    pub measured_elapsed_s: f64,
    pub host_factor: f64,
    /// `(method, from, to)` in seconds since the phase started, of every
    /// finished solve.
    timings: Vec<(&'static str, f64, f64)>,
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
    /// First-pass result of every job, by job index.
    pub first: Vec<Option<Solved>>,
    /// First-pass outcome documents (untraced facade solves only).
    pub outcomes: Vec<Option<FloorplanOutcome>>,
    /// Registry counters when the phase started and when its first pass
    /// ended (traced phases only).
    pub counters_start: BTreeMap<String, u64>,
    pub counters_first_pass: BTreeMap<String, u64>,
    pub busy_retries: u64,
}

impl Phase {
    pub fn new(jobs: usize) -> Self {
        Phase {
            first: vec![None; jobs],
            outcomes: vec![None; jobs],
            ..Phase::default()
        }
    }

    /// Records one finished solve, timed from `from` to `to` seconds since
    /// the phase started; a repeat of a job must match its first pass
    /// exactly, or it counts as failed.
    pub fn record(
        &mut self,
        index: usize,
        method: &'static str,
        (from, to): (f64, f64),
        result: Result<(Solved, Option<FloorplanOutcome>), String>,
    ) {
        self.attempted += 1;
        match result {
            Ok((solved, outcome)) => {
                self.timings.push((method, from, to));
                match &self.first[index] {
                    None => {
                        self.first[index] = Some(solved);
                        self.outcomes[index] = outcome;
                    }
                    Some(first) if first.same_as(&solved) => {}
                    Some(_) => self.fail(format!(
                        "job {index}: a repeat differs from its first solve"
                    )),
                }
            }
            Err(e) => self.fail(format!("job {index}: {e}")),
        }
    }

    pub fn fail(&mut self, problem: String) {
        self.failed += 1;
        self.problems.push(problem);
    }

    /// Scales every recorded solve and the phase's work time, which ended
    /// `end` seconds after the phase started, by the host clock.
    pub fn finish(&mut self, clock: &HostClock, end: f64) {
        for &(method, from, to) in &self.timings {
            let ms = clock.scale(from, to) * 1e3;
            self.latencies_ms.push(ms);
            self.per_method_ms.entry(method).or_default().push(ms);
            self.measured_latencies_ms.push((to - from) * 1e3);
        }
        self.elapsed_s = clock.scaled_span(end);
        self.measured_elapsed_s = end;
        self.host_factor = clock.median_factor();
    }

    pub fn solves_per_s(&self) -> f64 {
        self.latencies_ms.len() as f64 / self.elapsed_s
    }

    /// Mean best reward over the job list (every job's first solve).
    pub fn reward_mean(&self) -> f64 {
        let rewards: Vec<f64> = self.first.iter().flatten().map(|s| s.reward).collect();
        if rewards.len() == self.first.len() {
            crate::stats::mean(&rewards)
        } else {
            f64::NAN
        }
    }
}

/// A workload ready to run: its systems, fast models and job list.
pub struct Bench {
    pub kind: Kind,
    pub seed: u64,
    pub systems: Vec<ChipletSystem>,
    pub prebuilt: Vec<PrebuiltThermal>,
    pub jobs: Vec<Job>,
    /// Rendered `rlplanner.request/v1` document of every job (serve-mixed).
    pub rendered: Vec<String>,
    pub daemon: Option<Daemon>,
    pub policy_path: String,
    pub out_dir: PathBuf,
}

impl Bench {
    pub fn new(kind: Kind, seed: u64, out_dir: PathBuf) -> Self {
        let policy_path = out_dir
            .join(format!("{}-seed{seed}.policy", kind.name()))
            .display()
            .to_string();
        Bench {
            kind,
            seed,
            systems: kind.systems(),
            prebuilt: Vec::new(),
            jobs: Vec::new(),
            rendered: Vec::new(),
            daemon: None,
            policy_path,
            out_dir,
        }
    }

    /// One full set-up: characterises every interposer config the workload
    /// uses into a fresh [`ThermalModelCache`] and, for serve-mixed, trains
    /// and saves the small policy, binds the daemon with it preloaded and
    /// fills the daemon's own cache. Replaces any earlier set-up.
    pub fn setup(&mut self) -> Result<(), String> {
        if let Some(daemon) = self.daemon.take() {
            daemon.stop()?;
        }
        let cache = ThermalModelCache::new();
        let backend = fast_backend();
        self.prebuilt = self
            .systems
            .iter()
            .map(|system| {
                let (analyzer, prep) = backend
                    .build_cached(system, &cache)
                    .map_err(|e| format!("characterising `{}`: {e}", system.name()))?;
                Ok(PrebuiltThermal::new(
                    backend.clone(),
                    Arc::new(analyzer),
                    prep,
                ))
            })
            .collect::<Result<_, String>>()?;
        self.jobs = self.job_list()?;
        if self.kind == Kind::ServeMixed {
            self.train_policy()?;
            let daemon = Daemon::start(daemon_workers(), 8, Some(self.policy_path.clone()))?;
            daemon.warm(&self.systems)?;
            self.daemon = Some(daemon);
            self.rendered = self.jobs.iter().map(|j| request_json(&j.request)).collect();
        }
        Ok(())
    }

    /// The seeded job list: every (system, method) pair a fixed number of
    /// times, in an order and with solve seeds drawn from the workload seed.
    fn job_list(&self) -> Result<Vec<Job>, String> {
        let mut rng = ChaCha8Rng::seed_from_u64(self.seed);
        let mut pairs = Vec::new();
        for sys in 0..self.systems.len() {
            for (label, method, backend, budget) in self.kind.methods(&self.policy_path) {
                for _ in 0..self.kind.seeds_per_pair() {
                    pairs.push((sys, label, method.clone(), backend.clone(), budget));
                }
            }
        }
        for i in (1..pairs.len()).rev() {
            pairs.swap(i, rng.gen_range(0..=i));
        }
        pairs
            .into_iter()
            .map(|(sys, label, method, backend, budget)| {
                let builder = FloorplanRequest::builder()
                    .system(self.systems[sys].clone())
                    .method(method)
                    .budget(budget)
                    .seed(rng.gen_range(0..1_000_000u64));
                let builder = match &backend {
                    // Fast requests carry the set-up's cached model; the
                    // daemon's jobs go over the wire and use its own cache.
                    ThermalBackend::Fast { .. } if self.kind != Kind::ServeMixed => {
                        builder.prebuilt_thermal(self.prebuilt[sys].clone())
                    }
                    _ => builder,
                };
                let request = builder
                    .thermal(backend)
                    .build()
                    .map_err(|e| format!("building a `{label}` request: {e}"))?;
                Ok(Job {
                    sys,
                    method: label,
                    request,
                })
            })
            .collect()
    }

    /// Trains and saves the small policy the daemon preloads: a short PPO
    /// run on the smallest system, with a fixed seed — the policy is
    /// set-up, not a seeded input, so every workload seed serves the same
    /// weights.
    fn train_policy(&self) -> Result<(), String> {
        let sys = self.systems.len() - 1;
        FloorplanRequest::builder()
            .system(self.systems[sys].clone())
            .method(Method::rl())
            .thermal(fast_backend())
            .prebuilt_thermal(self.prebuilt[sys].clone())
            .budget(Budget::Evaluations(16))
            .seed(POLICY_SEED)
            .save_policy(self.policy_path.clone())
            .build()
            .map_err(|e| format!("policy request: {e}"))?
            .solve()
            .map(|_| ())
            .map_err(|e| format!("training the served policy: {e}"))
    }

    /// Runs the timed closed loop for `seconds`. With a tracer the solves
    /// take the seam path (the same public calls the facade makes, with the
    /// program's trait objects wrapped) and spans are kept for the first
    /// pass.
    pub fn run_phase(&self, seconds: f64, tracer: Option<&Tracer>) -> Phase {
        if let Some(daemon) = &self.daemon {
            return serve::closed_loop(daemon, self, seconds, tracer);
        }
        let mut phase = Phase::new(self.jobs.len());
        let analyzer_stats = Arc::new(CallStats::default());
        if tracer.is_some() {
            phase.counters_start = trace::counters();
        }
        let mut clock = HostClock::new(Instant::now());
        let mut pass = 0;
        'passes: loop {
            if let Some(tracer) = tracer {
                tracer.set_recording(pass == 0);
            }
            for (index, job) in self.jobs.iter().enumerate() {
                if pass > 0 && clock.now() >= seconds {
                    break 'passes;
                }
                clock.tick();
                let from = clock.now();
                let result = match tracer {
                    None => job
                        .request
                        .solve()
                        .map(|o| (Solved::of(&o), Some(o)))
                        .map_err(|e| e.to_string()),
                    Some(tracer) => tracer
                        .time("solve", || self.solve_traced(job, tracer, &analyzer_stats))
                        .map(|s| (s, None)),
                };
                phase.record(index, job.method, (from, clock.now()), result);
            }
            if pass == 0 && tracer.is_some() {
                phase.counters_first_pass = trace::counters();
            }
            pass += 1;
        }
        let end = clock.now();
        clock.sample();
        phase.finish(&clock, end);
        if let Some(tracer) = tracer {
            tracer.set_recording(false);
            let stats = analyzer_stats.aggregate();
            tracer.add("thermal.analyzer", stats.ns, stats.calls);
        }
        phase
    }

    /// The seam path of one solve: the calls the facade's planner makes,
    /// with the analyzer or the `DeltaObjective` wrapped so each layer is
    /// timed where it runs.
    fn solve_traced(
        &self,
        job: &Job,
        tracer: &Tracer,
        analyzer_stats: &Arc<CallStats>,
    ) -> Result<Solved, String> {
        let request = &job.request;
        let (analyzer, _) = request.thermal_analyzer().map_err(|e| e.to_string())?;
        let system = request.system().clone();
        match request.resolved_method() {
            Method::Sa { config } => {
                let analyzer = TimedAnalyzer::new(analyzer, Arc::clone(analyzer_stats));
                let calc =
                    RewardCalculator::new(system.clone(), analyzer, request.reward().clone());
                let planner = SaPlanner::new(system, config);
                let mut objective = TimedDelta::new(calc.delta_objective(), tracer);
                let result = tracer
                    .time("sa.anneal", || {
                        planner.run_delta_observed(&mut objective, &mut NullAnnealObserver)
                    })
                    .map_err(|e| e.to_string())?;
                let best = objective
                    .inner
                    .best_breakdown()
                    .ok_or("the anneal tracked no best breakdown")?;
                Ok(Solved {
                    reward: best.reward,
                    placement: result.best_placement,
                    evaluations: result.evaluations,
                })
            }
            Method::Rl { config } => {
                let analyzer = TimedAnalyzer::new(analyzer, Arc::clone(analyzer_stats));
                let mut planner =
                    RlPlanner::new(system, analyzer, request.reward().clone(), config)
                        .map_err(|e| e.to_string())?;
                let mut observer = RlSpans {
                    tracer,
                    mark: tracer.now_ns(),
                    collecting: true,
                };
                let result = planner
                    .train_observed(&mut observer)
                    .map_err(|e| e.to_string())?;
                Ok(Solved {
                    reward: result.best_breakdown.reward,
                    placement: result.best_placement,
                    evaluations: result.episodes_run,
                })
            }
            other => Err(format!("no seam path for method `{}`", other.label())),
        }
    }

    /// Output checks on the first pass, outside the timed phase. Returns
    /// the fast-vs-grid thermal comparison the checks compute on the way.
    pub fn check(&self, phase: &Phase, report: &mut Report) -> Result<ThermalComparison, String> {
        for (index, (job, outcome)) in self.jobs.iter().zip(&phase.outcomes).enumerate() {
            let Some(outcome) = outcome else {
                report.fail(format!("job {index}: no first-pass outcome"));
                continue;
            };
            let system = &self.systems[job.sys];
            if !outcome.placement.is_complete() {
                report.fail(format!("job {index}: incomplete placement"));
            }
            if !outcome.breakdown.reward.is_finite() {
                report.fail(format!("job {index}: non-finite reward"));
            }
            let rendered = outcome_json(system, outcome);
            match outcome_from_json(&rendered, system) {
                Ok(parsed) if outcome_json(system, &parsed) == rendered => {}
                Ok(_) => report.fail(format!("job {index}: outcome parse∘render differs")),
                Err(e) => report.fail(format!("job {index}: outcome does not parse: {e}")),
            }
            if self.kind == Kind::AnnealFast {
                // Incremental == full: re-evaluate the best placement from
                // scratch; every field must match bit for bit.
                let analyzer = self.prebuilt[job.sys].analyzer().as_ref().clone();
                let calc =
                    RewardCalculator::new(system.clone(), analyzer, job.request.reward().clone());
                match calc.evaluate(&outcome.placement) {
                    Ok(full)
                        if full.reward.to_bits() == outcome.breakdown.reward.to_bits()
                            && full.wirelength_mm.to_bits()
                                == outcome.breakdown.wirelength_mm.to_bits()
                            && full.max_temperature_c.to_bits()
                                == outcome.breakdown.max_temperature_c.to_bits() => {}
                    Ok(_) => report.fail(format!("job {index}: incremental != full evaluation")),
                    Err(e) => report.fail(format!("job {index}: full evaluation failed: {e}")),
                }
            }
        }
        if self.kind == Kind::ServeMixed {
            serve::check_against_direct(self, phase, report);
        }
        self.compare_thermal(phase)
    }

    /// The first pass's best placements, with their system indices.
    pub fn best_placements(&self, phase: &Phase) -> Vec<(usize, Placement)> {
        self.jobs
            .iter()
            .zip(&phase.first)
            .filter_map(|(job, solved)| solved.as_ref().map(|s| (job.sys, s.placement.clone())))
            .collect()
    }

    /// Evaluates placements on both thermal models — the fast model from
    /// set-up and the 32×32 grid solver: every first-pass best placement,
    /// then a fixed sample of random legal placements. The fixed
    /// sample does not depend on the workload seed; it keeps the mean from
    /// swinging with the few best placements a seed happens to produce.
    fn compare_thermal(&self, phase: &Phase) -> Result<ThermalComparison, String> {
        let grid = GridThermalSolver::try_new(thermal_config()).map_err(|e| e.to_string())?;
        let mut placements = self.best_placements(phase);
        let mut rng = ChaCha8Rng::seed_from_u64(REFERENCE_SEED);
        let cells = PlacementGrid::new(16, 16);
        let per_system = REFERENCE_PLACEMENTS.div_ceil(self.systems.len());
        for (sys, system) in self.systems.iter().enumerate() {
            let sample = (0..per_system * 4)
                .filter_map(|_| random_initial_placement(system, &cells, 0.2, &mut rng).ok())
                .take(per_system);
            placements.extend(sample.map(|p| (sys, p)));
        }
        let mut comparison = ThermalComparison::default();
        for (sys, placement) in &placements {
            let system = &self.systems[*sys];
            let fast = self.prebuilt[*sys].analyzer();
            let started = Instant::now();
            let fast_t = fast
                .max_temperature(system, placement)
                .map_err(|e| e.to_string())?;
            let fast_ns = started.elapsed().as_nanos() as u64;
            let started = Instant::now();
            let grid_t = grid
                .max_temperature(system, placement)
                .map_err(|e| e.to_string())?;
            let grid_ns = started.elapsed().as_nanos() as u64;
            comparison.abs_errors_k.push((fast_t - grid_t).abs());
            comparison.fast.ns += fast_ns;
            comparison.fast.calls += 1;
            comparison.grid.ns += grid_ns;
            comparison.grid.calls += 1;
        }
        Ok(comparison)
    }
}

/// Fast-vs-grid maximum temperature over the compared placements.
#[derive(Debug, Default)]
pub struct ThermalComparison {
    pub abs_errors_k: Vec<f64>,
    pub fast: Aggregate,
    pub grid: Aggregate,
}

impl ThermalComparison {
    pub fn mae_k(&self) -> f64 {
        crate::stats::mean(&self.abs_errors_k)
    }
}

/// Turns PPO training callbacks into `rl.collect` / `rl.update` spans: a
/// batch's episodes are reported together right after collection, and its
/// update is reported when it finishes.
struct RlSpans<'t> {
    tracer: &'t Tracer,
    mark: u64,
    collecting: bool,
}

impl TrainingObserver for RlSpans<'_> {
    fn on_episode(&mut self, _index: usize, _reward: f64, _best_reward: f64) {
        let now = self.tracer.now_ns();
        if self.collecting {
            self.tracer.record("rl.collect", self.mark, now);
            self.collecting = false;
        }
        self.mark = now;
    }

    fn on_update(&mut self, _stats: &PpoStats) {
        let now = self.tracer.now_ns();
        self.tracer.record("rl.update", self.mark, now);
        self.mark = now;
        self.collecting = true;
    }
}
