//! Layer probes for the traced run: each times one layer's public function
//! on the workload's own recorded inputs — its systems, its set-up's fast
//! models, its requests and its first pass's best placements. They cover
//! the layers the workload's solves reach with no trait seam to wrap, and
//! the layers a workload does not run at all, so every per-layer metric
//! has a measured value on every workload.

use crate::trace::{self, Aggregate, TimedDelta, Tracer};
use crate::workloads::{fast_backend, grid_backend, sa_method, Bench, Kind, Phase};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use rlp_chiplet::wirelength::bump_aware_wirelength;
use rlp_chiplet::{
    smooth::smoothed_wirelength_gradient, IncrementalWirelength, Placement, PlacementGrid, Point,
};
use rlp_nn::Tensor;
use rlp_rl::Environment;
use rlp_sa::moves::{apply_move_in_place, propose_move, undo_move};
use rlp_sa::{NullAnnealObserver, SaConfig, SaPlanner};
use rlp_thermal::{AnyThermalAnalyzer, GridThermalSolver, ThermalAnalyzer};
use rlplanner::agent::build_actor_critic;
use rlplanner::report::{outcome_json, request_json};
use rlplanner::{
    outcome_from_json, request_from_json, AgentConfig, Budget, EnvConfig, FloorplanEnv,
    FloorplanRequest, Method, RewardCalculator, RewardConfig,
};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Wall-clock a single `timed` call may spend once `f` has run once.
const PROBE_BUDGET: Duration = Duration::from_millis(20);

/// Runs `f` up to `reps` times, stopping early once [`PROBE_BUDGET`] is
/// spent, and returns the aggregate.
fn timed(reps: u64, mut f: impl FnMut()) -> Aggregate {
    let started = Instant::now();
    let mut calls = 0;
    while calls < reps && (calls == 0 || started.elapsed() < PROBE_BUDGET) {
        f();
        calls += 1;
    }
    Aggregate {
        ns: started.elapsed().as_nanos() as u64,
        calls,
    }
}

fn sum(parts: impl IntoIterator<Item = Aggregate>) -> Aggregate {
    parts
        .into_iter()
        .fold(Aggregate::default(), |a, b| Aggregate {
            ns: a.ns + b.ns,
            calls: a.calls + b.calls,
        })
}

fn fast_of(bench: &Bench, sys: usize) -> &AnyThermalAnalyzer {
    bench.prebuilt[sys].analyzer().as_ref()
}

/// Fast `ThermalAnalyzer::chiplet_temperatures` per call.
pub fn fast_eval(bench: &Bench, items: &[(usize, Placement)]) -> Aggregate {
    sum(items.iter().map(|(sys, placement)| {
        let (system, fast) = (&bench.systems[*sys], fast_of(bench, *sys));
        timed(200, || {
            black_box(fast.chiplet_temperatures(system, placement).ok());
        })
    }))
}

/// Fast `ThermalAnalyzer::thermal_gradient` per call.
pub fn thermal_gradient(bench: &Bench, items: &[(usize, Placement)]) -> Aggregate {
    sum(items.iter().map(|(sys, placement)| {
        let (system, fast) = (&bench.systems[*sys], fast_of(bench, *sys));
        timed(100, || {
            black_box(fast.thermal_gradient(system, placement, 2.0).ok());
        })
    }))
}

/// `bump_aware_wirelength` per call.
pub fn wirelength_full(bench: &Bench, items: &[(usize, Placement)]) -> Aggregate {
    let bumps = RewardConfig::default().bump_config;
    sum(items.iter().map(|(sys, placement)| {
        let system = &bench.systems[*sys];
        timed(50, || {
            black_box(bump_aware_wirelength(system, placement, &bumps).ok());
        })
    }))
}

/// `smoothed_wirelength_gradient` per call, at the gradient engine's
/// default sharpness.
pub fn smooth_gradient(bench: &Bench, items: &[(usize, Placement)]) -> Aggregate {
    sum(items.iter().map(|(sys, placement)| {
        let system = &bench.systems[*sys];
        let centers: Vec<Point> = system
            .chiplet_ids()
            .map(|id| placement.center_of(id, system).expect("complete placement"))
            .collect();
        let mut gradient = vec![Point::new(0.0, 0.0); centers.len()];
        timed(200, || {
            black_box(smoothed_wirelength_gradient(
                system,
                &centers,
                0.5,
                &mut gradient,
            ));
        })
    }))
}

/// `RewardCalculator::evaluate` per call, on the workload's own backend.
pub fn reward_eval(bench: &Bench, items: &[(usize, Placement)]) -> Aggregate {
    let grid = GridThermalSolver::try_new(crate::workloads::thermal_config()).ok();
    sum(items.iter().map(|(sys, placement)| {
        let system = bench.systems[*sys].clone();
        match (&grid, bench.kind) {
            (Some(grid), Kind::AnnealHotspot) => {
                let calc = RewardCalculator::new(system, grid.clone(), RewardConfig::default());
                timed(1, || {
                    black_box(calc.evaluate(placement).ok());
                })
            }
            _ => {
                let calc = RewardCalculator::new(
                    system,
                    fast_of(bench, *sys).clone(),
                    RewardConfig::default(),
                );
                timed(50, || {
                    black_box(calc.evaluate(placement).ok());
                })
            }
        }
    }))
}

/// Incremental move costs, replayed from each best placement: seeded SA
/// moves, each proposed to a `ThermalState` and an `IncrementalWirelength`
/// and committed when the combined reward improves.
#[derive(Debug, Default)]
pub struct MoveProbe {
    pub thermal: Aggregate,
    pub wirelength: Aggregate,
    pub moves: u64,
    pub nets_recomputed: u64,
}

pub fn moves(bench: &Bench, items: &[(usize, Placement)]) -> MoveProbe {
    const MOVES: usize = 400;
    let reward = RewardConfig::default();
    let mut rng = ChaCha8Rng::seed_from_u64(bench.seed);
    let mut probe = MoveProbe::default();
    let before = trace::counters();
    for (sys, start) in items {
        let system = &bench.systems[*sys];
        let AnyThermalAnalyzer::Fast(model) = fast_of(bench, *sys) else {
            continue;
        };
        let calc = RewardCalculator::new(system.clone(), model.clone(), reward.clone());
        let (Ok(mut thermal), Ok(mut wirelength)) = (
            model.state_for(system, start),
            IncrementalWirelength::new(system, start, reward.bump_config),
        ) else {
            continue;
        };
        let grid = PlacementGrid::new(16, 16);
        let mut placement = start.clone();
        let score = |wl: f64, t: f64| -reward.lambda * wl - calc.temperature_penalty(t);
        let mut current = score(wirelength.total(), thermal.max_temperature());
        for _ in 0..MOVES {
            let candidate = propose_move(system, &grid, &mut rng);
            let Some(undo) = apply_move_in_place(system, &grid, &mut placement, candidate, 0.2)
            else {
                continue;
            };
            let started = Instant::now();
            let t = thermal.propose(system, &placement, undo.changed());
            let thermal_ns = started.elapsed().as_nanos() as u64;
            let started = Instant::now();
            let wl = wirelength.propose(system, &placement, undo.changed());
            let wl_ns = started.elapsed().as_nanos() as u64;
            let next = score(wl, t);
            let keep = next >= current;
            let started = Instant::now();
            if keep {
                thermal.commit();
            } else {
                thermal.reject();
            }
            let thermal_ns = thermal_ns + started.elapsed().as_nanos() as u64;
            let started = Instant::now();
            if keep {
                wirelength.commit();
                current = next;
            } else {
                wirelength.reject();
                undo_move(&mut placement, &undo);
            }
            let wl_ns = wl_ns + started.elapsed().as_nanos() as u64;
            probe.thermal.ns += thermal_ns;
            probe.thermal.calls += 1;
            probe.wirelength.ns += wl_ns;
            probe.wirelength.calls += 1;
            probe.moves += 1;
        }
    }
    probe.nets_recomputed = trace::delta(
        &trace::counters(),
        &before,
        "chiplet.incremental.nets_recomputed",
    );
    probe
}

/// Request/outcome JSON render and parse, per call, on the first pass.
#[derive(Debug, Default)]
pub struct JsonProbe {
    pub request_render: Aggregate,
    pub request_parse: Aggregate,
    pub outcome_render: Aggregate,
    pub outcome_parse: Aggregate,
}

pub fn json(bench: &Bench, phase: &Phase) -> JsonProbe {
    const REPS: u64 = 20;
    let mut probe = JsonProbe::default();
    for (job, outcome) in bench.jobs.iter().zip(&phase.outcomes) {
        let request_text = request_json(&job.request);
        probe.request_render = sum([
            probe.request_render,
            timed(REPS, || {
                black_box(request_json(&job.request));
            }),
        ]);
        probe.request_parse = sum([
            probe.request_parse,
            timed(REPS, || {
                black_box(request_from_json(&request_text).ok());
            }),
        ]);
        let Some(outcome) = outcome else { continue };
        let system = &bench.systems[job.sys];
        let outcome_text = outcome_json(system, outcome);
        probe.outcome_render = sum([
            probe.outcome_render,
            timed(REPS, || {
                black_box(outcome_json(system, outcome));
            }),
        ]);
        probe.outcome_parse = sum([
            probe.outcome_parse,
            timed(REPS, || {
                black_box(outcome_from_json(&outcome_text, system).ok());
            }),
        ]);
    }
    probe
}

/// Environment steps and network passes on the workload's systems: seeded
/// random feasible actions through `FloorplanEnv::step`, and the CLI's
/// actor-critic evaluated on the observations those episodes produced.
#[derive(Debug, Default)]
pub struct EnvNnProbe {
    pub step: Aggregate,
    pub forward: Aggregate,
    pub backward: Aggregate,
}

pub fn env_and_nn(bench: &Bench) -> EnvNnProbe {
    const EPISODES: usize = 8;
    const MINIBATCH: usize = 32;
    let mut rng = ChaCha8Rng::seed_from_u64(bench.seed);
    let mut probe = EnvNnProbe::default();
    for (sys, system) in bench.systems.iter().enumerate() {
        let calc = RewardCalculator::new(
            system.clone(),
            fast_of(bench, sys).clone(),
            RewardConfig::default(),
        );
        let mut env = FloorplanEnv::new(calc, EnvConfig::default());
        let shape = env.observation_shape();
        let mut states: Vec<Tensor> = Vec::new();
        for _ in 0..EPISODES {
            let mut observation = env.reset();
            loop {
                let feasible: Vec<usize> = (0..observation.action_mask.len())
                    .filter(|&a| observation.action_mask[a])
                    .collect();
                let action = feasible[rng.gen_range(0..feasible.len())];
                states.push(observation.state.clone());
                let started = Instant::now();
                let step = env.step(action);
                probe.step.ns += started.elapsed().as_nanos() as u64;
                probe.step.calls += 1;
                match step.observation {
                    Some(next) if !step.done => observation = next,
                    _ => break,
                }
            }
        }
        let mut model = build_actor_critic(&shape, env.action_count(), &AgentConfig::default());
        for state in &states {
            let mut batch_shape = vec![1];
            batch_shape.extend_from_slice(state.shape());
            let batch = state.reshape(batch_shape);
            let started = Instant::now();
            black_box(model.evaluate(&batch, false));
            probe.forward.ns += started.elapsed().as_nanos() as u64;
            probe.forward.calls += 1;
        }
        let data: Vec<f32> = states
            .iter()
            .cycle()
            .take(MINIBATCH)
            .flat_map(|s| s.data().iter().copied())
            .collect();
        let mut batch_shape = vec![MINIBATCH];
        batch_shape.extend_from_slice(&shape);
        let batch = Tensor::from_vec(data, batch_shape);
        for _ in 0..2 {
            let (logits, values) = model.evaluate(&batch, true);
            let grad_logits = Tensor::full(logits.shape().to_vec(), 1e-3);
            let grad_values = Tensor::full(values.shape().to_vec(), 1e-3);
            let started = Instant::now();
            model.backward_heads(&grad_logits, &grad_values);
            probe.backward.ns += started.elapsed().as_nanos() as u64;
            probe.backward.calls += 1;
        }
    }
    probe
}

/// A short anneal per system through `SaPlanner` with the reward engine's
/// `DeltaObjective` wrapped, as the anneal-fast traced path runs it.
#[derive(Debug, Default)]
pub struct SaProbe {
    pub anneal: Aggregate,
    pub objective: Aggregate,
    pub moves: u64,
    pub evals: u64,
    pub proposed: u64,
    pub accepted: u64,
    pub solves: u64,
}

pub fn anneal(bench: &Bench) -> SaProbe {
    let tracer = Tracer::new(Instant::now());
    let before = trace::counters();
    let mut solves = 0;
    for (sys, system) in bench.systems.iter().enumerate() {
        let calc = RewardCalculator::new(
            system.clone(),
            fast_of(bench, sys).clone(),
            RewardConfig::default(),
        );
        let planner = SaPlanner::new(
            system.clone(),
            SaConfig {
                final_temperature: 1e-6,
                max_evaluations: Some(300),
                seed: bench.seed,
                ..SaConfig::default()
            },
        );
        let mut objective = TimedDelta::new(calc.delta_objective(), &tracer);
        if tracer
            .time("sa.anneal", || {
                planner.run_delta_observed(&mut objective, &mut NullAnnealObserver)
            })
            .is_ok()
        {
            solves += 1;
        }
    }
    let after = trace::counters();
    SaProbe {
        anneal: tracer.total("sa.anneal"),
        objective: tracer.total("sa.objective"),
        moves: tracer.total("sa.moves").calls,
        evals: trace::delta(&after, &before, "sa.evals.full")
            + trace::delta(&after, &before, "sa.evals.incremental"),
        proposed: trace::delta(&after, &before, "sa.moves.proposed"),
        accepted: trace::delta(&after, &before, "sa.moves.accepted"),
        solves,
    }
}

/// A short PPO training solve through the facade on the workload's first
/// system; it also saves the policy the pretrained probe solves from.
#[derive(Debug, Default)]
pub struct RlProbe {
    pub solve_ms: f64,
    pub collect: Aggregate,
    pub update: Aggregate,
    pub episodes: u64,
    pub optim_steps: u64,
}

pub fn train(bench: &Bench, policy_path: &str) -> Result<RlProbe, String> {
    let sys = bench.jobs[0].sys;
    let request = FloorplanRequest::builder()
        .system(bench.systems[sys].clone())
        .method(Method::rl())
        .thermal(fast_backend())
        .prebuilt_thermal(bench.prebuilt[sys].clone())
        .budget(Budget::Evaluations(16))
        .seed(bench.seed)
        .parallel_envs(1)
        .save_policy(policy_path)
        .build()
        .map_err(|e| e.to_string())?;
    let before = trace::counters();
    let collect = trace::histogram("rl.rollout_collect_ns");
    let update = trace::histogram("rl.update_ns");
    let started = Instant::now();
    request.solve().map_err(|e| format!("RL probe: {e}"))?;
    let solve_ms = started.elapsed().as_secs_f64() * 1e3;
    let after = trace::counters();
    Ok(RlProbe {
        solve_ms,
        collect: trace::since(trace::histogram("rl.rollout_collect_ns"), collect),
        update: trace::since(trace::histogram("rl.update_ns"), update),
        episodes: trace::delta(&after, &before, "rl.episodes"),
        optim_steps: trace::delta(&after, &before, "nn.optim.steps"),
    })
}

/// One facade solve of a method on the workload's first system, in ms.
pub fn method_solve(bench: &Bench, method: &str, policy_path: &str) -> Result<f64, String> {
    let sys = bench.jobs[0].sys;
    let (method_value, backend, budget) = match method {
        "sa" => (sa_method(), fast_backend(), 1000),
        "sa-hotspot" => (sa_method(), grid_backend(), 4),
        "gradient" => (Method::gradient(), fast_backend(), 60),
        "pretrained" => (Method::pretrained(policy_path), fast_backend(), 1),
        other => return Err(format!("no probe for method `{other}`")),
    };
    let mut builder = FloorplanRequest::builder()
        .system(bench.systems[sys].clone())
        .method(method_value)
        .budget(Budget::Evaluations(budget))
        .seed(bench.seed);
    if backend.label() == "fast" {
        builder = builder.prebuilt_thermal(bench.prebuilt[sys].clone());
    }
    let request = builder
        .thermal(backend)
        .build()
        .map_err(|e| e.to_string())?;
    let started = Instant::now();
    request
        .solve()
        .map_err(|e| format!("{method} probe: {e}"))?;
    Ok(started.elapsed().as_secs_f64() * 1e3)
}
