//! JSON reports for placements and run outcomes.
//!
//! Each document is built once, as a [`Value`] (`*_value`), and rendered
//! with [`Value::render_pretty`] (`*_json`); the rpc, stream and campaign
//! documents embed the same values. The schema is explicit, the field
//! order is stable (fields always appear exactly in the order documented
//! below), strings are escaped per RFC 8259, integers are exact and
//! non-finite numbers (`NaN`, `±inf`) are emitted as `null`, since JSON has
//! no representation for them (see [`rlp_obs::json`]).
//!
//! # Placement document ([`placement_json`])
//!
//! ```json
//! {
//!   "chiplets": [
//!     { "name": "cpu", "x_mm": 4, "y_mm": 16.125, "rotation": "None" }
//!   ]
//! }
//! ```
//!
//! One record per *placed* chiplet, in placement-slot order. `x_mm`/`y_mm`
//! are the lower-left corner in millimetres, rounded to four decimals;
//! `rotation` is `"None"` or `"Quarter"`.
//!
//! # Outcome document ([`outcome_json`])
//!
//! ```json
//! {
//!   "schema": "rlplanner.outcome/v1",
//!   "system": { "name": "...", "chiplets": 4, "interposer_mm": [40, 40] },
//!   "breakdown": { "reward": -1.9, "wirelength_mm": 6200, "max_temperature_c": 78.4,
//!                  "eval_mode": "full" | "incremental" },
//!   "evaluations": 600,
//!   "evaluation": { "mode": "full" | "incremental", "full_evals": 1, "incremental_evals": 599 },
//!   "training": { "episodes": 600, "parallel_envs": 4, "episodes_per_s": 48.2,
//!                 "merge_order_hash": "0x0f3a9c41d2e8b765" },
//!   "runtime_s": 12.5,
//!   "thermal_prep": { "cache_hits": 0, "cache_misses": 1, "characterization_s": 0.8 },
//!   "placement": { "chiplets": [ ... ] },
//!   "telemetry": [ { "index": 0, "reward": -2.5, "best_reward": -2.5 } ],
//!   "manifest": {
//!     "seed": 7,
//!     "method": { "kind": "rl" | "rl-rnd" | "sa" | "gradient" | "pretrained", ... },
//!     "thermal": { "kind": "grid" | "fast", ... },
//!     "reward": { "lambda": 0.0003, ... },
//!     "warm_start": false
//!   }
//! }
//! ```
//!
//! `schema` identifies this exact layout ([`OUTCOME_SCHEMA`]); consumers
//! should check it before parsing. `breakdown.eval_mode` records which
//! evaluation engine produced the best breakdown, and the `evaluation`
//! object how the run's candidates were evaluated: `"incremental"` means
//! the propose/commit/reject engine served `incremental_evals` move
//! evaluations (bit-identical to full evaluation, so results never depend
//! on the mode), `"full"` that every candidate was evaluated from scratch.
//! `training` describes how an RL run's episodes were collected —
//! `episodes` the count actually collected (the numerator of
//! `episodes_per_s`; distinct from the top-level `evaluations`, which
//! counts objective evaluations), `parallel_envs` rollout workers at
//! `episodes_per_s` throughput, with
//! `merge_order_hash` fingerprinting (as a hex string, since the value is a
//! full 64-bit hash) the order transitions entered the rollout buffer;
//! parallel collection is trajectory-invariant, so the knob changes only
//! throughput, never results. The field is `null` for SA runs, which have
//! no rollout pool. `thermal_prep` records how the run's
//! thermal analyzer was obtained — characterised from scratch
//! (`cache_misses`) or served from a shared characterisation cache
//! (`cache_hits`) — and the analyzer-construction wall-clock, so cache
//! regressions are visible in `--json` output. The `manifest` object carries the
//! fully-resolved configuration of the run — every hyper-parameter after
//! request-level overrides — so a run can be reproduced from its report
//! alone (`method.kind` selects which method fields follow, mirroring
//! [`crate::Method`]; `thermal.kind` mirrors
//! [`rlp_thermal::ThermalBackend`]; `warm_start` records whether the run
//! was seeded by the gradient presolve, which changes results and must be
//! replayed).
//!
//! # Request document ([`request_json`])
//!
//! ```json
//! {
//!   "schema": "rlplanner.request/v1",
//!   "system": {
//!     "name": "...",
//!     "interposer_mm": [40, 40],
//!     "chiplets": [ { "name": "cpu", "width_mm": 8, "height_mm": 8, "power_w": 25 } ],
//!     "nets": [ { "from": 0, "to": 1, "wires": 64 } ]
//!   },
//!   "method": { "kind": "rl" | "rl-rnd" | "sa" | "gradient" | "pretrained", ... },
//!   "thermal": { "kind": "grid" | "fast", ... },
//!   "reward": { "lambda": 0.0003, ... },
//!   "budget": null | { "evaluations": 600 } | { "time_limit_s": 30 },
//!   "seed": null | 7,
//!   "parallel_envs": null | 4,
//!   "warm_start": false
//! }
//! ```
//!
//! The wire form of a [`crate::FloorplanRequest`] — what a client sends an
//! `rlp-serve` daemon. Unlike the outcome document, the system is inlined
//! in full (chiplet footprints/powers at full precision, nets by chiplet
//! index in insertion order), so the receiver needs no out-of-band
//! benchmark registry. `method`/`thermal`/`reward` reuse the manifest
//! object shapes above; `budget`, `seed` and `parallel_envs` are the
//! *request-level overrides* (`null` when unset), not the resolved values —
//! rendering a parsed request reproduces the original document byte for
//! byte; `warm_start` asks the solver to seed its optimiser with a
//! gradient-descent presolve. A request carrying a prebuilt analyzer renders only its backend
//! description; the analyzer itself never crosses the wire (the serving
//! side re-attaches one from its own cache).

use crate::gradient::GradientConfig;
use crate::outcome::{FloorplanOutcome, RunManifest};
use crate::planner::RlPlannerConfig;
use crate::request::{Budget, FloorplanRequest, Method, PretrainedConfig};
use crate::reward::RewardConfig;
use rlp_chiplet::{ChipletSystem, Placement};
use rlp_obs::json::Value;
use rlp_obs::json_object;
use rlp_sa::SaConfig;
use rlp_thermal::ThermalBackend;
use std::time::Duration;

/// Identifier of the outcome-document layout produced by [`outcome_json`].
pub const OUTCOME_SCHEMA: &str = "rlplanner.outcome/v1";

/// Identifier of the request-document layout produced by [`request_json`].
pub const REQUEST_SCHEMA: &str = "rlplanner.request/v1";

fn secs(d: Duration) -> Value {
    Value::from(d.as_secs_f64())
}

fn pair(a: impl Into<Value>, b: impl Into<Value>) -> Value {
    Value::Arr(vec![a.into(), b.into()])
}

/// A 64-bit hash as an `0x`-prefixed, zero-padded hex string.
fn hex_hash(hash: u64) -> String {
    format!("{hash:#018x}")
}

/// A placement coordinate, rounded to four decimals (0.1 µm).
fn coordinate(mm: f64) -> Value {
    Value::from(format!("{mm:.4}").parse::<f64>().unwrap_or(f64::NAN))
}

/// The placement document (see the [module docs](self)).
fn placement_value(system: &ChipletSystem, placement: &Placement) -> Value {
    let chiplets = placement.iter_placed().map(|(id, position, rotation)| {
        json_object! {
            "name": system.chiplet(id).name(),
            "x_mm": coordinate(position.x),
            "y_mm": coordinate(position.y),
            "rotation": format!("{rotation:?}"),
        }
    });
    json_object! { "chiplets": Value::array(chiplets) }
}

/// Renders a placement as the documented placement document.
pub fn placement_json(system: &ChipletSystem, placement: &Placement) -> String {
    placement_value(system, placement).render_pretty()
}

fn thermal_value(thermal: &ThermalBackend) -> Value {
    let config = thermal.config();
    let layers = config.stack.layers().iter().map(|layer| {
        json_object! {
            "name": layer.name.as_str(),
            "thickness_mm": layer.thickness_mm,
            "conductivity_w_mk": layer.conductivity_w_mk,
        }
    });
    let mut value = json_object! {
        "kind": thermal.label(),
        "grid": pair(config.grid_nx, config.grid_ny),
        "ambient_c": config.ambient_c,
        "convection_resistance_k_per_w": config.convection_resistance_k_per_w,
        "power_layer": config.stack.power_layer(),
        "layers": Value::array(layers),
    };
    if let ThermalBackend::Fast {
        characterization: sweep,
        ..
    } = thermal
    {
        let sweep = json_object! {
            "footprint_samples_mm": Value::array(sweep.footprint_samples_mm.iter().copied()),
            "reference_power_w": sweep.reference_power_w,
            "distance_bins": sweep.distance_bins,
            "mutual_source_size_mm": sweep.mutual_source_size_mm,
        };
        value.push("characterization", sweep);
    }
    value
}

fn rl_method_value(kind: &str, config: &RlPlannerConfig) -> Value {
    let (ppo, agent) = (&config.ppo, &config.agent);
    json_object! {
        "kind": kind,
        "episodes": config.episodes,
        "episodes_per_update": config.episodes_per_update,
        "parallel_envs": config.parallel_envs,
        "use_rnd": config.use_rnd,
        "seed": config.seed,
        "time_budget_s": config.time_budget.map(secs),
        "ppo": json_object! {
            "gamma": ppo.gamma,
            "gae_lambda": ppo.gae_lambda,
            "clip_epsilon": ppo.clip_epsilon,
            "entropy_coef": ppo.entropy_coef,
            "value_coef": ppo.value_coef,
            "learning_rate": ppo.learning_rate,
            "epochs": ppo.epochs,
            "minibatch_size": ppo.minibatch_size,
            "max_grad_norm": ppo.max_grad_norm,
        },
        "agent": json_object! {
            "conv_channels": pair(agent.conv_channels.0, agent.conv_channels.1),
            "feature_dim": agent.feature_dim,
            "rnd_hidden_dim": agent.rnd_hidden_dim,
            "rnd_embedding_dim": agent.rnd_embedding_dim,
            "rnd_bonus_scale": agent.rnd_bonus_scale,
            "seed": agent.seed,
        },
        "env": json_object! {
            "grid": pair(config.env.grid.0, config.env.grid.1),
            "min_spacing_mm": config.env.min_spacing_mm,
        },
    }
}

fn sa_method_value(config: &SaConfig) -> Value {
    json_object! {
        "kind": "sa",
        "initial_temperature": config.initial_temperature,
        "final_temperature": config.final_temperature,
        "cooling_rate": config.cooling_rate,
        "moves_per_temperature": config.moves_per_temperature,
        "min_spacing_mm": config.min_spacing_mm,
        "grid": pair(config.grid.0, config.grid.1),
        "seed": config.seed,
        "time_budget_s": config.time_budget.map(secs),
        "max_evaluations": config.max_evaluations,
    }
}

fn gradient_method_value(config: &GradientConfig) -> Value {
    json_object! {
        "kind": "gradient",
        "iterations": config.iterations,
        "restarts": config.restarts,
        "learning_rate": config.learning_rate,
        "wirelength_sharpness": config.wirelength_sharpness,
        "sharpness_growth": config.sharpness_growth,
        "thermal_sharpness": config.thermal_sharpness,
        "thermal_weight": config.thermal_weight,
        "overlap_weight": config.overlap_weight,
        "boundary_weight": config.boundary_weight,
        "tolerance_mm": config.tolerance_mm,
        "min_spacing_mm": config.min_spacing_mm,
        "grid": pair(config.grid.0, config.grid.1),
        "seed": config.seed,
        "time_budget_s": config.time_budget.map(secs),
        "max_evaluations": config.max_evaluations,
    }
}

fn pretrained_method_value(config: &PretrainedConfig) -> Value {
    json_object! {
        "kind": "pretrained",
        "policy_path": config.policy_path.as_str(),
        "checksum": config.checksum.map(hex_hash),
        "seed": config.seed,
    }
}

fn method_value(method: &Method) -> Value {
    match method {
        Method::Rl { config } => rl_method_value("rl", config),
        Method::RlRnd { config } => rl_method_value("rl-rnd", config),
        Method::Sa { config } => sa_method_value(config),
        Method::Gradient { config } => gradient_method_value(config),
        Method::Pretrained { config } => pretrained_method_value(config),
    }
}

fn reward_value(reward: &RewardConfig) -> Value {
    json_object! {
        "lambda": reward.lambda,
        "mu": reward.mu,
        "temperature_limit_c": reward.temperature_limit_c,
        "alpha": reward.alpha,
        "bump_pitch_mm": reward.bump_config.pitch_mm,
        "bump_edge_margin_mm": reward.bump_config.edge_margin_mm,
        "infeasible_penalty": reward.infeasible_penalty,
    }
}

fn manifest_value(manifest: &RunManifest) -> Value {
    json_object! {
        "seed": manifest.seed,
        "method": method_value(&manifest.method),
        "thermal": thermal_value(&manifest.thermal),
        "reward": reward_value(&manifest.reward),
        "warm_start": manifest.warm_start,
    }
}

fn system_value(system: &ChipletSystem) -> Value {
    let chiplets = system.chiplet_ids().map(|id| {
        let c = system.chiplet(id);
        json_object! {
            "name": c.name(),
            "width_mm": c.width(),
            "height_mm": c.height(),
            "power_w": c.power(),
        }
    });
    let nets = system.nets().map(|n| {
        json_object! { "from": n.from.index(), "to": n.to.index(), "wires": n.wires }
    });
    json_object! {
        "name": system.name(),
        "interposer_mm": pair(system.interposer_width(), system.interposer_height()),
        "chiplets": Value::array(chiplets),
        "nets": Value::array(nets),
    }
}

fn budget_value(budget: Option<Budget>) -> Value {
    match budget {
        None => Value::Null,
        Some(Budget::Evaluations(n)) => json_object! { "evaluations": n },
        Some(Budget::TimeLimit(limit)) => json_object! { "time_limit_s": secs(limit) },
        // `Budget` is non-exhaustive for downstream code; this crate owns
        // the full variant list.
        #[allow(unreachable_patterns)]
        Some(_) => unreachable!("unrendered budget variant"),
    }
}

/// The request document (see the [module docs](self)) — the wire form an
/// `rlp-serve` client sends. [`crate::request_from_value`] is the inverse.
fn request_value(request: &FloorplanRequest) -> Value {
    json_object! {
        "schema": REQUEST_SCHEMA,
        "system": system_value(request.system()),
        "method": method_value(request.method()),
        "thermal": thermal_value(request.thermal()),
        "reward": reward_value(request.reward()),
        "budget": budget_value(request.budget()),
        "seed": request.seed(),
        "parallel_envs": request.parallel_envs(),
        "warm_start": request.warm_start(),
    }
}

/// Renders a request as the documented request document.
/// [`crate::request_from_json`] is the inverse.
pub fn request_json(request: &FloorplanRequest) -> String {
    request_value(request).render_pretty()
}

/// The outcome document (see the [module docs](self)).
/// [`crate::outcome_from_value`] is the inverse.
pub fn outcome_value(system: &ChipletSystem, outcome: &FloorplanOutcome) -> Value {
    let telemetry = outcome.telemetry.iter().map(|s| {
        json_object! { "index": s.index, "reward": s.reward, "best_reward": s.best_reward }
    });
    let training = outcome.training.map(|t| {
        json_object! {
            "episodes": t.episodes,
            "parallel_envs": t.parallel_envs,
            "episodes_per_s": t.episodes_per_s,
            "merge_order_hash": hex_hash(t.merge_order_hash),
        }
    });
    let (breakdown, evaluation, prep) = (
        &outcome.breakdown,
        &outcome.evaluation,
        &outcome.thermal_prep,
    );
    json_object! {
        "schema": OUTCOME_SCHEMA,
        "system": json_object! {
            "name": system.name(),
            "chiplets": system.chiplet_count(),
            "interposer_mm": pair(system.interposer_width(), system.interposer_height()),
        },
        "breakdown": json_object! {
            "reward": breakdown.reward,
            "wirelength_mm": breakdown.wirelength_mm,
            "max_temperature_c": breakdown.max_temperature_c,
            "eval_mode": breakdown.eval_mode.label(),
        },
        "evaluations": outcome.evaluations,
        "evaluation": json_object! {
            "mode": evaluation.mode.label(),
            "full_evals": evaluation.counts.full,
            "incremental_evals": evaluation.counts.incremental,
        },
        "training": training,
        "runtime_s": secs(outcome.runtime),
        "thermal_prep": json_object! {
            "cache_hits": prep.cache_hits,
            "cache_misses": prep.cache_misses,
            "characterization_s": secs(prep.characterization),
        },
        "placement": placement_value(system, &outcome.placement),
        "telemetry": Value::array(telemetry),
        "manifest": manifest_value(&outcome.manifest),
    }
}

/// Renders a full run outcome as the documented outcome document.
pub fn outcome_json(system: &ChipletSystem, outcome: &FloorplanOutcome) -> String {
    outcome_value(system, outcome).render_pretty()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::outcome::TelemetrySample;
    use crate::reward::RewardBreakdown;
    use rlp_chiplet::{Chiplet, Position};

    fn system_with(names: &[&str]) -> (ChipletSystem, Placement) {
        let mut sys = ChipletSystem::new("report-test", 30.0, 30.0);
        let ids: Vec<_> = names
            .iter()
            .map(|name| sys.add_chiplet(Chiplet::new(*name, 5.0, 5.0, 10.0)))
            .collect();
        let mut placement = Placement::for_system(&sys);
        for (i, id) in ids.iter().enumerate() {
            placement.place(*id, Position::new(2.0 + 7.0 * i as f64, 3.0));
        }
        (sys, placement)
    }

    fn outcome_for(system: &ChipletSystem, placement: Placement) -> FloorplanOutcome {
        FloorplanOutcome {
            placement,
            breakdown: RewardBreakdown {
                reward: -1.5,
                wirelength_mm: 120.0,
                max_temperature_c: 63.25,
                eval_mode: rlp_sa::EvalMode::Incremental,
            },
            evaluation: crate::outcome::EvalTelemetry {
                mode: rlp_sa::EvalMode::Incremental,
                counts: rlp_sa::EvalCounts {
                    full: 1,
                    incremental: 1,
                },
            },
            training: Some(crate::outcome::TrainingTelemetry {
                episodes: 33,
                parallel_envs: 2,
                episodes_per_s: 16.5,
                merge_order_hash: 0x0123_4567_89ab_cdef,
            }),
            telemetry: vec![
                TelemetrySample {
                    index: 0,
                    reward: -2.0,
                    best_reward: -2.0,
                },
                TelemetrySample {
                    index: 1,
                    reward: -1.5,
                    best_reward: -1.5,
                },
            ],
            evaluations: 2,
            runtime: Duration::from_millis(250),
            thermal_prep: rlp_thermal::ThermalPrep {
                cache_hits: 1,
                cache_misses: 0,
                characterization: Duration::ZERO,
            },
            manifest: RunManifest {
                system_name: system.name().to_string(),
                chiplet_count: system.chiplet_count(),
                method: Method::rl_rnd(),
                thermal: ThermalBackend::fast(),
                reward: RewardConfig::default(),
                seed: 7,
                warm_start: false,
            },
        }
    }

    #[test]
    fn placement_json_lists_every_placed_chiplet() {
        let (sys, placement) = system_with(&["cpu", "gpu"]);
        let json = placement_json(&sys, &placement);
        assert!(json.contains("\"name\": \"cpu\""));
        assert!(json.contains("\"name\": \"gpu\""));
        assert!(json.contains("\"rotation\": \"None\""));
        assert_eq!(json.matches("\"x_mm\"").count(), 2);
    }

    #[test]
    fn empty_placement_renders_an_empty_array() {
        let (sys, _) = system_with(&["cpu"]);
        let json = placement_json(&sys, &Placement::for_system(&sys));
        assert_eq!(json, "{\n  \"chiplets\": []\n}");
    }

    #[test]
    fn quotes_backslashes_and_control_characters_are_escaped() {
        let escaped = |s: &str| Value::from(s).render();
        assert_eq!(escaped("plain"), "\"plain\"");
        assert_eq!(escaped("a\"b"), "\"a\\\"b\"");
        assert_eq!(escaped("a\\b"), "\"a\\\\b\"");
        assert_eq!(escaped("a\nb\tc"), "\"a\\nb\\tc\"");
        assert_eq!(escaped("\u{7}"), "\"\\u0007\"");
        // A chiplet name full of hostile characters stays inside its string
        // literal.
        let (sys, placement) = system_with(&["die\"0\\\n"]);
        let json = placement_json(&sys, &placement);
        assert!(json.contains("\"name\": \"die\\\"0\\\\\\n\""));
    }

    #[test]
    fn non_finite_numbers_render_as_null() {
        assert_eq!(Value::from(f64::NAN).render(), "null");
        assert_eq!(Value::from(f64::INFINITY).render(), "null");
        assert_eq!(Value::from(-1.25).render(), "-1.25");
        let (sys, placement) = system_with(&["cpu"]);
        let mut outcome = outcome_for(&sys, placement);
        outcome.breakdown.wirelength_mm = f64::NAN;
        let json = outcome_json(&sys, &outcome);
        assert!(json.contains("\"wirelength_mm\": null"));
    }

    #[test]
    fn outcome_document_has_the_documented_shape_and_order() {
        let (sys, placement) = system_with(&["cpu", "gpu"]);
        let outcome = outcome_for(&sys, placement);
        let json = outcome_json(&sys, &outcome);

        // Every documented top-level field is present...
        let keys = [
            "\"schema\"",
            "\"system\"",
            "\"breakdown\"",
            "\"evaluations\"",
            "\"evaluation\"",
            "\"training\"",
            "\"runtime_s\"",
            "\"thermal_prep\"",
            "\"placement\"",
            "\"telemetry\"",
            "\"manifest\"",
        ];
        // ...exactly in the documented order.
        let positions: Vec<usize> = keys
            .iter()
            .map(|k| json.find(k).unwrap_or_else(|| panic!("missing key {k}")))
            .collect();
        assert!(
            positions.windows(2).all(|w| w[0] < w[1]),
            "top-level keys out of order"
        );

        assert!(json.starts_with(&format!("{{\n  \"schema\": \"{OUTCOME_SCHEMA}\"")));
        assert!(json.contains("\"eval_mode\": \"incremental\""));
        assert!(json.contains(
            "\"evaluation\": { \"mode\": \"incremental\", \"full_evals\": 1, \"incremental_evals\": 1 }"
        ));
        assert!(json.contains(
            "\"training\": { \"episodes\": 33, \"parallel_envs\": 2, \"episodes_per_s\": 16.5, \
             \"merge_order_hash\": \"0x0123456789abcdef\" }"
        ));
        // The manifest records the rollout-parallelism knob for replay.
        assert!(json.contains("\"parallel_envs\": 1"));
        assert!(json
            .contains("\"thermal_prep\": { \"cache_hits\": 1, \"cache_misses\": 0, \"characterization_s\": 0 }"));
        assert!(json.contains("\"kind\": \"rl-rnd\""));
        assert!(json.contains("\"kind\": \"fast\""));
        assert!(json.contains("\"seed\": 7"));
        assert!(json.contains("\"index\": 1"));
        // The manifest records the full PPO and agent hyper-parameters.
        assert!(json.contains("\"gamma\": 0.99"));
        assert!(json.contains("\"conv_channels\": [8, 16]"));
        assert!(json.contains("\"lambda\": 0.0003"));
    }

    #[test]
    fn field_order_is_deterministic_across_renders() {
        let (sys, placement) = system_with(&["cpu"]);
        let outcome = outcome_for(&sys, placement.clone());
        assert_eq!(outcome_json(&sys, &outcome), outcome_json(&sys, &outcome));
        // An SA manifest renders its own stable shape, and an SA outcome
        // (no rollout pool) renders a null training object.
        let mut sa_outcome = outcome_for(&sys, placement);
        sa_outcome.manifest.method = Method::sa();
        sa_outcome.training = None;
        let json = outcome_json(&sys, &sa_outcome);
        assert!(json.contains("\"training\": null"));
        let kind = json.find("\"kind\": \"sa\"").unwrap();
        let cooling = json.find("\"cooling_rate\"").unwrap();
        let max_evals = json.find("\"max_evaluations\"").unwrap();
        assert!(kind < cooling && cooling < max_evals);
    }

    #[test]
    fn gradient_manifest_renders_its_stable_shape() {
        let (sys, placement) = system_with(&["cpu"]);
        let mut outcome = outcome_for(&sys, placement);
        outcome.manifest.method = Method::gradient();
        outcome.manifest.warm_start = true;
        outcome.training = None;
        let json = outcome_json(&sys, &outcome);
        let kind = json.find("\"kind\": \"gradient\"").unwrap();
        let restarts = json.find("\"restarts\": 4").unwrap();
        let lr = json.find("\"learning_rate\"").unwrap();
        let max_evals = json.find("\"max_evaluations\"").unwrap();
        let warm = json.find("\"warm_start\": true").unwrap();
        assert!(kind < restarts && restarts < lr && lr < max_evals && max_evals < warm);
        assert!(json.contains("\"sharpness_growth\": 1.02"));
    }
}
