//! Parsing outcome and request documents back into facade values.
//!
//! [`crate::report::outcome_json`] renders a run as the documented
//! `rlplanner.outcome/v1` document; this module is the inverse, used by
//! batch drivers that resume interrupted campaign streams and need the
//! prior runs as real [`FloorplanOutcome`] values, not opaque text. The
//! document carries the fully-resolved manifest, so the reconstruction is
//! complete: every configuration field, the placement, the telemetry
//! history and the evaluation counts come back exactly as rendered.
//!
//! [`request_from_json`] is the matching inverse of
//! [`crate::report::request_json`]: it rebuilds a full
//! [`FloorplanRequest`] — system included — from an
//! `rlplanner.request/v1` document, which is how the `rlp-serve` daemon
//! receives work over a socket. Every construction contract that panics in
//! the typed API (non-positive footprints, out-of-range net endpoints,
//! zero-wire nets, invalid configurations) is surfaced as a parse error
//! here, so adversarial documents cannot crash the receiving process.
//!
//! Two encodings are lossy by design and documented here rather than
//! hidden: JSON has no non-finite numbers, so the writer emits `null` for
//! them and this parser maps `null` back to NaN (an `-inf` reward
//! round-trips as NaN); and placement coordinates are rendered with four
//! decimals, so positions come back rounded to 0.1 µm. Re-rendering a
//! parsed outcome reproduces the original document byte for byte, which is
//! the invariant the campaign resume path relies on.

use crate::gradient::GradientConfig;
use crate::outcome::{
    EvalTelemetry, FloorplanOutcome, RunManifest, TelemetrySample, TrainingTelemetry,
};
use crate::planner::RlPlannerConfig;
use crate::report::{OUTCOME_SCHEMA, REQUEST_SCHEMA};
use crate::request::{Budget, FloorplanRequest, Method, PretrainedConfig};
use crate::reward::{RewardBreakdown, RewardConfig};
use crate::{AgentConfig, EnvConfig};
use rlp_chiplet::bumps::BumpConfig;
use rlp_chiplet::{Chiplet, ChipletId, ChipletSystem, Net, Placement, Position, Rotation};
use rlp_obs::json::Value;
use rlp_rl::PpoConfig;
use rlp_sa::{EvalCounts, EvalMode, SaConfig};
use rlp_thermal::{
    CharacterizationOptions, Layer, LayerStack, ThermalBackend, ThermalConfig, ThermalPrep,
};
use std::collections::HashMap;
use std::fmt;
use std::time::Duration;

/// Why an outcome document could not be parsed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OutcomeParseError {
    /// Description of the first violation, naming the offending field.
    pub message: String,
}

impl fmt::Display for OutcomeParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid outcome document: {}", self.message)
    }
}

impl std::error::Error for OutcomeParseError {}

type Parsed<T> = Result<T, OutcomeParseError>;

fn err<T>(message: impl Into<String>) -> Parsed<T> {
    Err(OutcomeParseError {
        message: message.into(),
    })
}

fn parse_text(text: &str) -> Parsed<Value> {
    Value::parse(text).or_else(|e| err(e.to_string()))
}

/// One object of a document being read, named by its path so every error
/// message is fully qualified (`manifest.method.seed`).
struct Fields<'a> {
    value: &'a Value,
    path: String,
}

impl<'a> Fields<'a> {
    fn root(value: &'a Value) -> Self {
        Fields {
            value,
            path: String::new(),
        }
    }

    fn name(&self, key: &str) -> String {
        if self.path.is_empty() {
            key.to_string()
        } else {
            format!("{}.{key}", self.path)
        }
    }

    fn get(&self, key: &str) -> Parsed<&'a Value> {
        match self.value.get(key) {
            Some(value) => Ok(value),
            None => err(format!("missing field `{}`", self.name(key))),
        }
    }

    /// Reads `key` with `read`; a `None` is an error saying the field must
    /// be `what`.
    fn read<T>(
        &self,
        key: &str,
        what: &str,
        read: impl FnOnce(&'a Value) -> Option<T>,
    ) -> Parsed<T> {
        match read(self.get(key)?) {
            Some(value) => Ok(value),
            None => err(format!("field `{}` must be {what}", self.name(key))),
        }
    }

    /// `None` for `null`, otherwise `read(self, key)`.
    fn opt<T>(&self, key: &str, read: impl FnOnce(&Self, &str) -> Parsed<T>) -> Parsed<Option<T>> {
        match self.get(key)? {
            Value::Null => Ok(None),
            _ => read(self, key).map(Some),
        }
    }

    fn str(&self, key: &str) -> Parsed<&'a str> {
        self.read(key, "a string", Value::as_str)
    }

    fn bool(&self, key: &str) -> Parsed<bool> {
        self.read(key, "a boolean", Value::as_bool)
    }

    fn usize(&self, key: &str) -> Parsed<usize> {
        self.read(key, "a non-negative integer", Value::as_usize)
    }

    fn u64(&self, key: &str) -> Parsed<u64> {
        self.read(key, "a non-negative integer", Value::as_u64)
    }

    /// A number; `null` (the writer's encoding of NaN/±inf) maps back to
    /// NaN.
    fn f64(&self, key: &str) -> Parsed<f64> {
        self.read(key, "a number or null", |v| match v {
            Value::Null => Some(f64::NAN),
            v => v.as_f64(),
        })
    }

    fn secs(&self, key: &str) -> Parsed<Duration> {
        self.read(key, "a non-negative duration", |v| {
            let secs = v.as_f64().filter(|s| s.is_finite() && *s >= 0.0)?;
            Some(Duration::from_secs_f64(secs))
        })
    }

    fn pair(&self, key: &str) -> Parsed<(usize, usize)> {
        self.read(
            key,
            "a two-element array of non-negative integers",
            |v| match v.as_array()? {
                [a, b] => Some((a.as_usize()?, b.as_usize()?)),
                _ => None,
            },
        )
    }

    /// A 64-bit hash written as an `0x`-prefixed hex string.
    fn hex(&self, key: &str) -> Parsed<u64> {
        let hash = self.str(key)?;
        let digits = hash.strip_prefix("0x").unwrap_or(hash);
        u64::from_str_radix(digits, 16).or_else(|_| {
            err(format!(
                "field `{}` is not a hex hash: `{hash}`",
                self.name(key)
            ))
        })
    }

    fn obj(&self, key: &str) -> Parsed<Fields<'a>> {
        Ok(Fields {
            value: self.get(key)?,
            path: self.name(key),
        })
    }

    fn array(&self, key: &str) -> Parsed<Vec<Fields<'a>>> {
        let path = format!("{}[]", self.name(key));
        let items = self.read(key, "an array", Value::as_array)?;
        Ok(items
            .iter()
            .map(|value| Fields {
                value,
                path: path.clone(),
            })
            .collect())
    }
}

/// Parses an `rlplanner.outcome/v1` document against the system it was
/// solved for.
///
/// The system provides the chiplet-name-to-slot mapping the placement
/// object needs; the document's own `system` header must agree with it
/// (same name and chiplet count), which catches a stream resumed against
/// the wrong benchmark.
///
/// # Errors
///
/// Returns an [`OutcomeParseError`] naming the first malformed, missing or
/// inconsistent field (including JSON syntax errors).
pub fn outcome_from_json(text: &str, system: &ChipletSystem) -> Parsed<FloorplanOutcome> {
    outcome_from_value(&parse_text(text)?, system)
}

/// Parses an already-decoded outcome document; see [`outcome_from_json`].
///
/// # Errors
///
/// Returns an [`OutcomeParseError`] naming the first malformed, missing or
/// inconsistent field.
pub fn outcome_from_value(doc: &Value, system: &ChipletSystem) -> Parsed<FloorplanOutcome> {
    let doc = Fields::root(doc);
    let schema = doc.str("schema")?;
    if schema != OUTCOME_SCHEMA {
        return err(format!(
            "unsupported schema `{schema}` (expected `{OUTCOME_SCHEMA}`)"
        ));
    }
    let header = doc.obj("system")?;
    let name = header.str("name")?;
    if name != system.name() {
        return err(format!(
            "document is for system `{name}`, not `{}`",
            system.name()
        ));
    }
    let chiplets = header.usize("chiplets")?;
    if chiplets != system.chiplet_count() {
        return err(format!(
            "document records {chiplets} chiplets but `{}` has {}",
            system.name(),
            system.chiplet_count()
        ));
    }
    let breakdown = doc.obj("breakdown")?;
    let evaluation = doc.obj("evaluation")?;
    let prep = doc.obj("thermal_prep")?;
    Ok(FloorplanOutcome {
        breakdown: RewardBreakdown {
            reward: breakdown.f64("reward")?,
            wirelength_mm: breakdown.f64("wirelength_mm")?,
            max_temperature_c: breakdown.f64("max_temperature_c")?,
            eval_mode: eval_mode(&breakdown, "eval_mode")?,
        },
        evaluations: doc.usize("evaluations")?,
        evaluation: EvalTelemetry {
            mode: eval_mode(&evaluation, "mode")?,
            counts: EvalCounts {
                full: evaluation.usize("full_evals")?,
                incremental: evaluation.usize("incremental_evals")?,
            },
        },
        training: doc.opt("training", |doc, key| {
            let training = doc.obj(key)?;
            Ok(TrainingTelemetry {
                episodes: training.usize("episodes")?,
                parallel_envs: training.usize("parallel_envs")?,
                episodes_per_s: training.f64("episodes_per_s")?,
                merge_order_hash: training.hex("merge_order_hash")?,
            })
        })?,
        runtime: doc.secs("runtime_s")?,
        thermal_prep: ThermalPrep {
            cache_hits: prep.usize("cache_hits")?,
            cache_misses: prep.usize("cache_misses")?,
            characterization: prep.secs("characterization_s")?,
        },
        placement: placement_from(&doc.obj("placement")?, system)?,
        telemetry: doc
            .array("telemetry")?
            .iter()
            .map(|sample| {
                Ok(TelemetrySample {
                    index: sample.usize("index")?,
                    reward: sample.f64("reward")?,
                    best_reward: sample.f64("best_reward")?,
                })
            })
            .collect::<Parsed<_>>()?,
        manifest: manifest_from(&doc.obj("manifest")?, system)?,
    })
}

/// Parses an `rlplanner.request/v1` document into a ready-to-solve
/// [`FloorplanRequest`].
///
/// The document inlines the system, so no benchmark registry is needed;
/// the request comes back exactly as the sender built it (method, backend,
/// reward, and the budget/seed/parallel-envs overrides), validated through
/// [`FloorplanRequest::builder`]. Re-rendering the parsed request with
/// [`crate::report::request_json`] reproduces the document byte for byte.
///
/// # Errors
///
/// Returns an [`OutcomeParseError`] naming the first malformed, missing or
/// invalid field (including JSON syntax errors and configuration errors the
/// builder rejects).
pub fn request_from_json(text: &str) -> Parsed<FloorplanRequest> {
    request_from_value(&parse_text(text)?)
}

/// Parses an already-decoded request document; see [`request_from_json`].
///
/// # Errors
///
/// Returns an [`OutcomeParseError`] naming the first malformed, missing or
/// invalid field.
pub fn request_from_value(doc: &Value) -> Parsed<FloorplanRequest> {
    let doc = Fields::root(doc);
    let schema = doc.str("schema")?;
    if schema != REQUEST_SCHEMA {
        return err(format!(
            "unsupported schema `{schema}` (expected `{REQUEST_SCHEMA}`)"
        ));
    }
    let mut builder = FloorplanRequest::builder()
        .system(system_from(&doc.obj("system")?)?)
        .method(method_from(&doc.obj("method")?)?)
        .thermal(thermal_from(&doc.obj("thermal")?)?)
        .reward(reward_from(&doc.obj("reward")?)?);
    if let Some(budget) = doc.opt("budget", |doc, key| budget_from(&doc.obj(key)?))? {
        builder = builder.budget(budget);
    }
    if let Some(seed) = doc.opt("seed", Fields::u64)? {
        builder = builder.seed(seed);
    }
    if let Some(parallel_envs) = doc.opt("parallel_envs", Fields::usize)? {
        builder = builder.parallel_envs(parallel_envs);
    }
    builder = builder.warm_start(doc.bool("warm_start")?);
    builder
        .build()
        .or_else(|e| err(format!("invalid request configuration: {e}")))
}

fn system_from(obj: &Fields<'_>) -> Parsed<ChipletSystem> {
    let (width, height) = obj.read(
        "interposer_mm",
        "a two-element array of numbers",
        |v| match v.as_array()? {
            [w, h] => Some((w.as_f64()?, h.as_f64()?)),
            _ => None,
        },
    )?;
    // `ChipletSystem::new` panics on a non-positive outline; reject first.
    if !(width > 0.0 && height > 0.0 && width.is_finite() && height.is_finite()) {
        return err(format!(
            "field `{}` must hold positive finite dimensions",
            obj.name("interposer_mm")
        ));
    }
    let mut system = ChipletSystem::new(obj.str("name")?, width, height);
    for record in obj.array("chiplets")? {
        let name = record.str("name")?;
        let width_mm = record.f64("width_mm")?;
        let height_mm = record.f64("height_mm")?;
        let power_w = record.f64("power_w")?;
        // `Chiplet::new` panics on these contracts; turn them into errors.
        if !(width_mm > 0.0 && height_mm > 0.0 && width_mm.is_finite() && height_mm.is_finite()) {
            return err(format!(
                "chiplet `{name}` must have a positive finite footprint"
            ));
        }
        if !(power_w >= 0.0 && power_w.is_finite()) {
            return err(format!(
                "chiplet `{name}` must have non-negative finite power"
            ));
        }
        system.add_chiplet(Chiplet::new(name, width_mm, height_mm, power_w));
    }
    for record in obj.array("nets")? {
        let (from, to) = (record.usize("from")?, record.usize("to")?);
        let wires = record.usize("wires")?;
        // `Net::new`/`add_net` panic on these contracts; reject first.
        if from >= system.chiplet_count() || to >= system.chiplet_count() {
            return err(format!(
                "net endpoints ({from}, {to}) must index the system's {} chiplets",
                system.chiplet_count()
            ));
        }
        if from == to {
            return err(format!("net ({from}, {to}) must connect distinct chiplets"));
        }
        let Some(wires) = u32::try_from(wires).ok().filter(|&w| w > 0) else {
            return err(format!(
                "net ({from}, {to}) must carry between 1 and {} wires",
                u32::MAX
            ));
        };
        let (from, to) = (ChipletId::from_index(from), ChipletId::from_index(to));
        system.add_net(Net::new(from, to, wires));
    }
    Ok(system)
}

fn budget_from(obj: &Fields<'_>) -> Parsed<Budget> {
    if obj.value.get("evaluations").is_some() {
        Ok(Budget::Evaluations(obj.usize("evaluations")?))
    } else if obj.value.get("time_limit_s").is_some() {
        Ok(Budget::TimeLimit(obj.secs("time_limit_s")?))
    } else {
        err("field `budget` must be null or hold `evaluations` or `time_limit_s`")
    }
}

fn eval_mode(obj: &Fields<'_>, key: &str) -> Parsed<EvalMode> {
    match obj.str(key)? {
        "full" => Ok(EvalMode::Full),
        "incremental" => Ok(EvalMode::Incremental),
        other => err(format!(
            "field `{}` has unknown eval mode `{other}`",
            obj.name(key)
        )),
    }
}

fn placement_from(obj: &Fields<'_>, system: &ChipletSystem) -> Parsed<Placement> {
    let slots: HashMap<&str, _> = system
        .chiplet_ids()
        .map(|id| (system.chiplet(id).name(), id))
        .collect();
    let mut placement = Placement::for_system(system);
    for record in obj.array("chiplets")? {
        let name = record.str("name")?;
        let Some(&id) = slots.get(name) else {
            return err(format!(
                "placement names chiplet `{name}`, which `{}` does not contain",
                system.name()
            ));
        };
        let position = Position::new(record.f64("x_mm")?, record.f64("y_mm")?);
        let rotation = match record.str("rotation")? {
            "None" => Rotation::None,
            "Quarter" => Rotation::Quarter,
            other => {
                return err(format!(
                    "placement of `{name}` has unknown rotation `{other}`"
                ))
            }
        };
        placement.place_rotated(id, position, rotation);
    }
    Ok(placement)
}

fn manifest_from(obj: &Fields<'_>, system: &ChipletSystem) -> Parsed<RunManifest> {
    Ok(RunManifest {
        // The document's `system` header was already checked against the
        // caller's system, so the manifest identity comes from there.
        system_name: system.name().to_string(),
        chiplet_count: system.chiplet_count(),
        method: method_from(&obj.obj("method")?)?,
        thermal: thermal_from(&obj.obj("thermal")?)?,
        reward: reward_from(&obj.obj("reward")?)?,
        seed: obj.u64("seed")?,
        warm_start: obj.bool("warm_start")?,
    })
}

fn method_from(obj: &Fields<'_>) -> Parsed<Method> {
    Ok(match obj.str("kind")? {
        "rl" => Method::Rl {
            config: rl_config_from(obj)?,
        },
        "rl-rnd" => Method::RlRnd {
            config: rl_config_from(obj)?,
        },
        "sa" => Method::Sa {
            config: sa_config_from(obj)?,
        },
        "gradient" => Method::Gradient {
            config: gradient_config_from(obj)?,
        },
        "pretrained" => Method::Pretrained {
            config: PretrainedConfig {
                policy_path: obj.str("policy_path")?.to_string(),
                // Null (unpinned) or an `0x...` hex string.
                checksum: obj.opt("checksum", Fields::hex)?,
                seed: obj.u64("seed")?,
            },
        },
        other => {
            return err(format!(
                "field `{}` has unknown method `{other}`",
                obj.name("kind")
            ))
        }
    })
}

fn rl_config_from(obj: &Fields<'_>) -> Parsed<RlPlannerConfig> {
    let (ppo, agent, env) = (obj.obj("ppo")?, obj.obj("agent")?, obj.obj("env")?);
    Ok(RlPlannerConfig {
        episodes: obj.usize("episodes")?,
        episodes_per_update: obj.usize("episodes_per_update")?,
        parallel_envs: obj.usize("parallel_envs")?,
        use_rnd: obj.bool("use_rnd")?,
        seed: obj.u64("seed")?,
        time_budget: obj.opt("time_budget_s", Fields::secs)?,
        ppo: PpoConfig {
            gamma: ppo.f64("gamma")?,
            gae_lambda: ppo.f64("gae_lambda")?,
            clip_epsilon: ppo.f64("clip_epsilon")? as f32,
            entropy_coef: ppo.f64("entropy_coef")? as f32,
            value_coef: ppo.f64("value_coef")? as f32,
            learning_rate: ppo.f64("learning_rate")? as f32,
            epochs: ppo.usize("epochs")?,
            minibatch_size: ppo.usize("minibatch_size")?,
            max_grad_norm: ppo.f64("max_grad_norm")? as f32,
        },
        agent: AgentConfig {
            conv_channels: agent.pair("conv_channels")?,
            feature_dim: agent.usize("feature_dim")?,
            rnd_hidden_dim: agent.usize("rnd_hidden_dim")?,
            rnd_embedding_dim: agent.usize("rnd_embedding_dim")?,
            rnd_bonus_scale: agent.f64("rnd_bonus_scale")?,
            seed: agent.u64("seed")?,
        },
        env: EnvConfig {
            grid: env.pair("grid")?,
            min_spacing_mm: env.f64("min_spacing_mm")?,
        },
    })
}

fn sa_config_from(obj: &Fields<'_>) -> Parsed<SaConfig> {
    Ok(SaConfig {
        initial_temperature: obj.f64("initial_temperature")?,
        final_temperature: obj.f64("final_temperature")?,
        cooling_rate: obj.f64("cooling_rate")?,
        moves_per_temperature: obj.usize("moves_per_temperature")?,
        min_spacing_mm: obj.f64("min_spacing_mm")?,
        grid: obj.pair("grid")?,
        seed: obj.u64("seed")?,
        time_budget: obj.opt("time_budget_s", Fields::secs)?,
        max_evaluations: obj.opt("max_evaluations", Fields::usize)?,
    })
}

fn gradient_config_from(obj: &Fields<'_>) -> Parsed<GradientConfig> {
    Ok(GradientConfig {
        iterations: obj.usize("iterations")?,
        restarts: obj.usize("restarts")?,
        learning_rate: obj.f64("learning_rate")?,
        wirelength_sharpness: obj.f64("wirelength_sharpness")?,
        sharpness_growth: obj.f64("sharpness_growth")?,
        thermal_sharpness: obj.f64("thermal_sharpness")?,
        thermal_weight: obj.f64("thermal_weight")?,
        overlap_weight: obj.f64("overlap_weight")?,
        boundary_weight: obj.f64("boundary_weight")?,
        tolerance_mm: obj.f64("tolerance_mm")?,
        min_spacing_mm: obj.f64("min_spacing_mm")?,
        grid: obj.pair("grid")?,
        seed: obj.u64("seed")?,
        time_budget: obj.opt("time_budget_s", Fields::secs)?,
        max_evaluations: obj.opt("max_evaluations", Fields::usize)?,
    })
}

fn thermal_from(obj: &Fields<'_>) -> Parsed<ThermalBackend> {
    let (grid_nx, grid_ny) = obj.pair("grid")?;
    let mut layers = Vec::new();
    for record in obj.array("layers")? {
        let name = record.str("name")?;
        let thickness_mm = record.f64("thickness_mm")?;
        let conductivity_w_mk = record.f64("conductivity_w_mk")?;
        // `Layer::new` panics on non-positive values; turn that contract
        // into a parse error instead.
        if !(thickness_mm > 0.0 && conductivity_w_mk > 0.0) {
            return err(format!(
                "layer `{name}` must have positive thickness and conductivity"
            ));
        }
        layers.push(Layer::new(name, thickness_mm, conductivity_w_mk));
    }
    if layers.is_empty() {
        return err(format!(
            "field `{}` must hold at least one layer",
            obj.name("layers")
        ));
    }
    let power_layer = obj.usize("power_layer")?;
    if power_layer >= layers.len() {
        return err(format!(
            "field `{}` ({power_layer}) is out of range for {} layers",
            obj.name("power_layer"),
            layers.len()
        ));
    }
    let config = ThermalConfig {
        grid_nx,
        grid_ny,
        stack: LayerStack::new(layers, power_layer),
        ambient_c: obj.f64("ambient_c")?,
        convection_resistance_k_per_w: obj.f64("convection_resistance_k_per_w")?,
    };
    match obj.str("kind")? {
        "grid" => Ok(ThermalBackend::Grid { config }),
        "fast" => {
            let sweep = obj.obj("characterization")?;
            let samples = sweep.read("footprint_samples_mm", "an array of numbers", |v| {
                v.as_array()?.iter().map(Value::as_f64).collect()
            })?;
            Ok(ThermalBackend::Fast {
                config,
                characterization: CharacterizationOptions {
                    footprint_samples_mm: samples,
                    reference_power_w: sweep.f64("reference_power_w")?,
                    distance_bins: sweep.usize("distance_bins")?,
                    mutual_source_size_mm: sweep.f64("mutual_source_size_mm")?,
                },
            })
        }
        other => err(format!(
            "field `{}` has unknown backend `{other}`",
            obj.name("kind")
        )),
    }
}

fn reward_from(obj: &Fields<'_>) -> Parsed<RewardConfig> {
    Ok(RewardConfig {
        lambda: obj.f64("lambda")?,
        mu: obj.f64("mu")?,
        temperature_limit_c: obj.f64("temperature_limit_c")?,
        alpha: obj.f64("alpha")?,
        bump_config: BumpConfig {
            pitch_mm: obj.f64("bump_pitch_mm")?,
            edge_margin_mm: obj.f64("bump_edge_margin_mm")?,
        },
        infeasible_penalty: obj.f64("infeasible_penalty")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::outcome_json;
    use rlp_chiplet::{Chiplet, ChipletSystem};

    fn demo_system() -> ChipletSystem {
        let mut sys = ChipletSystem::new("parse-test", 30.0, 30.0);
        sys.add_chiplet(Chiplet::new("cpu", 8.0, 8.0, 25.0));
        sys.add_chiplet(Chiplet::new("gpu", 6.0, 6.0, 10.0));
        sys
    }

    fn rl_outcome(system: &ChipletSystem) -> FloorplanOutcome {
        let mut placement = Placement::for_system(system);
        let ids: Vec<_> = system.chiplet_ids().collect();
        placement.place(ids[0], Position::new(2.25, 3.5));
        placement.place_rotated(ids[1], Position::new(14.0, 9.75), Rotation::Quarter);
        FloorplanOutcome {
            placement,
            breakdown: RewardBreakdown {
                reward: -1.5,
                wirelength_mm: 120.0,
                max_temperature_c: 63.25,
                eval_mode: EvalMode::Full,
            },
            telemetry: vec![
                TelemetrySample {
                    index: 0,
                    reward: -2.5,
                    best_reward: -2.5,
                },
                TelemetrySample {
                    index: 1,
                    reward: -1.5,
                    best_reward: -1.5,
                },
            ],
            evaluations: 2,
            evaluation: EvalTelemetry {
                mode: EvalMode::Full,
                counts: EvalCounts {
                    full: 2,
                    incremental: 0,
                },
            },
            training: Some(TrainingTelemetry {
                episodes: 2,
                parallel_envs: 4,
                episodes_per_s: 16.5,
                merge_order_hash: 0x0123_4567_89ab_cdef,
            }),
            runtime: Duration::from_millis(250),
            thermal_prep: ThermalPrep {
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

    fn sa_outcome(system: &ChipletSystem) -> FloorplanOutcome {
        let mut outcome = rl_outcome(system);
        outcome.training = None;
        outcome.evaluation = EvalTelemetry {
            mode: EvalMode::Incremental,
            counts: EvalCounts {
                full: 1,
                incremental: 1,
            },
        };
        outcome.breakdown.eval_mode = EvalMode::Incremental;
        outcome.manifest.method = Method::Sa {
            config: SaConfig {
                max_evaluations: Some(40),
                time_budget: Some(Duration::from_secs_f64(1.5)),
                ..SaConfig::default()
            },
        };
        outcome.manifest.thermal = ThermalBackend::grid();
        outcome
    }

    #[test]
    fn rl_outcome_round_trips_byte_for_byte() {
        let sys = demo_system();
        let outcome = rl_outcome(&sys);
        let json = outcome_json(&sys, &outcome);
        let parsed = outcome_from_json(&json, &sys).expect("parses");
        assert_eq!(outcome_json(&sys, &parsed), json);
        assert_eq!(parsed.manifest.method, outcome.manifest.method);
        assert_eq!(parsed.manifest.thermal, outcome.manifest.thermal);
        assert_eq!(parsed.training, outcome.training);
        assert_eq!(parsed.runtime, outcome.runtime);
    }

    #[test]
    fn sa_outcome_round_trips_byte_for_byte() {
        let sys = demo_system();
        let outcome = sa_outcome(&sys);
        let json = outcome_json(&sys, &outcome);
        let parsed = outcome_from_json(&json, &sys).expect("parses");
        assert_eq!(outcome_json(&sys, &parsed), json);
        assert_eq!(parsed.manifest.method, outcome.manifest.method);
        assert!(parsed.training.is_none());
        assert_eq!(parsed.evaluation, outcome.evaluation);
    }

    #[test]
    fn gradient_outcome_round_trips_byte_for_byte() {
        let sys = demo_system();
        let mut outcome = rl_outcome(&sys);
        outcome.training = None;
        outcome.manifest.method = Method::Gradient {
            config: GradientConfig {
                iterations: 80,
                max_evaluations: Some(60),
                time_budget: Some(Duration::from_secs_f64(0.5)),
                ..GradientConfig::default()
            },
        };
        outcome.manifest.warm_start = true;
        let json = outcome_json(&sys, &outcome);
        let parsed = outcome_from_json(&json, &sys).expect("parses");
        assert_eq!(outcome_json(&sys, &parsed), json);
        assert_eq!(parsed.manifest.method, outcome.manifest.method);
        assert!(parsed.manifest.warm_start);
    }

    #[test]
    fn unknown_method_kinds_are_typed_errors_naming_the_string() {
        let sys = demo_system();
        let json = outcome_json(&sys, &sa_outcome(&sys));
        let doc = json.replace("\"kind\": \"sa\"", "\"kind\": \"quantum\"");
        let error = outcome_from_json(&doc, &sys).unwrap_err();
        assert!(
            error.to_string().contains("unknown method `quantum`"),
            "{error}"
        );
    }

    #[test]
    fn non_finite_rewards_come_back_as_nan_and_re_render_as_null() {
        let sys = demo_system();
        let mut outcome = rl_outcome(&sys);
        outcome.telemetry[0].reward = f64::NEG_INFINITY;
        outcome.breakdown.wirelength_mm = f64::NAN;
        let json = outcome_json(&sys, &outcome);
        let parsed = outcome_from_json(&json, &sys).expect("parses");
        assert!(parsed.telemetry[0].reward.is_nan());
        assert!(parsed.breakdown.wirelength_mm.is_nan());
        assert_eq!(outcome_json(&sys, &parsed), json);
    }

    #[test]
    fn wrong_system_and_schema_are_rejected() {
        let sys = demo_system();
        let json = outcome_json(&sys, &rl_outcome(&sys));

        let other = ChipletSystem::new("other", 30.0, 30.0);
        let error = outcome_from_json(&json, &other).unwrap_err();
        assert!(error.to_string().contains("parse-test"), "{error}");

        let bad_schema = json.replace("rlplanner.outcome/v1", "rlplanner.outcome/v0");
        let error = outcome_from_json(&bad_schema, &sys).unwrap_err();
        assert!(error.to_string().contains("unsupported schema"), "{error}");
    }

    #[test]
    fn request_round_trips_byte_for_byte() {
        use crate::report::request_json;
        let mut sys = ChipletSystem::new("req-test", 33.5, 30.25);
        let a = sys.add_chiplet(Chiplet::new("cpu", 8.125, 8.0, 25.5));
        let b = sys.add_chiplet(Chiplet::new("gpu", 6.0, 6.75, 10.0));
        sys.add_net(Net::new(a, b, 64));
        let request = FloorplanRequest::builder()
            .system(sys)
            .method(Method::sa())
            .thermal(ThermalBackend::grid())
            .budget(Budget::Evaluations(40))
            .seed(11)
            .build()
            .unwrap();
        let json = request_json(&request);
        let parsed = request_from_json(&json).expect("parses");
        assert_eq!(request_json(&parsed), json);
        assert_eq!(parsed.method(), request.method());
        assert_eq!(parsed.budget(), request.budget());
        assert_eq!(parsed.seed(), Some(11));
        assert_eq!(parsed.system().net_count(), 1);

        // A minimal RL request with no overrides round-trips too (null
        // budget/seed/parallel_envs stay unset).
        let mut sys = ChipletSystem::new("req-rl", 20.0, 20.0);
        sys.add_chiplet(Chiplet::new("solo", 5.0, 5.0, 10.0));
        let request = FloorplanRequest::builder()
            .system(sys)
            .method(Method::rl_rnd())
            .build()
            .unwrap();
        let json = request_json(&request);
        let parsed = request_from_json(&json).expect("parses");
        assert_eq!(request_json(&parsed), json);
        assert!(parsed.budget().is_none());
        assert!(parsed.seed().is_none());
        assert!(parsed.parallel_envs().is_none());
    }

    #[test]
    fn gradient_request_with_warm_start_round_trips() {
        use crate::report::request_json;
        let mut sys = ChipletSystem::new("req-g", 20.0, 20.0);
        sys.add_chiplet(Chiplet::new("solo", 5.0, 5.0, 10.0));
        let request = FloorplanRequest::builder()
            .system(sys.clone())
            .method(Method::gradient())
            .budget(Budget::Evaluations(30))
            .warm_start(true)
            .build()
            .unwrap();
        let json = request_json(&request);
        assert!(json.contains("\"kind\": \"gradient\""));
        assert!(json.contains("\"warm_start\": true"));
        let parsed = request_from_json(&json).expect("parses");
        assert_eq!(request_json(&parsed), json);
        assert_eq!(parsed.method(), request.method());
        assert!(parsed.warm_start());

        // Warm starting SA round-trips too.
        let request = FloorplanRequest::builder()
            .system(sys)
            .method(Method::sa())
            .warm_start(true)
            .build()
            .unwrap();
        let json = request_json(&request);
        let parsed = request_from_json(&json).expect("parses");
        assert_eq!(request_json(&parsed), json);
        assert!(parsed.warm_start());
    }

    #[test]
    fn pretrained_request_round_trips_byte_for_byte() {
        use crate::report::request_json;
        let mut sys = ChipletSystem::new("req-p", 20.0, 20.0);
        sys.add_chiplet(Chiplet::new("solo", 5.0, 5.0, 10.0));

        // Unpinned checksum renders as null and comes back as None.
        let request = FloorplanRequest::builder()
            .system(sys.clone())
            .method(Method::pretrained("weights/gen.policy"))
            .build()
            .unwrap();
        let json = request_json(&request);
        assert!(json.contains("\"kind\": \"pretrained\""));
        assert!(json.contains("\"policy_path\": \"weights/gen.policy\""));
        assert!(json.contains("\"checksum\": null"));
        let parsed = request_from_json(&json).expect("parses");
        assert_eq!(request_json(&parsed), json);
        assert_eq!(parsed.method(), request.method());

        // A pinned checksum round-trips through the hex-string encoding.
        let request = FloorplanRequest::builder()
            .system(sys)
            .method(Method::Pretrained {
                config: PretrainedConfig {
                    policy_path: "gen.policy".to_string(),
                    checksum: Some(0x0123_4567_89ab_cdef),
                    seed: 9,
                },
            })
            .build()
            .unwrap();
        let json = request_json(&request);
        assert!(json.contains("\"checksum\": \"0x0123456789abcdef\""));
        let parsed = request_from_json(&json).expect("parses");
        assert_eq!(request_json(&parsed), json);
        assert_eq!(parsed.method(), request.method());

        // A malformed checksum is a named error, not a panic.
        let doc = json.replace("\"0x0123456789abcdef\"", "\"0xnope\"");
        let error = request_from_json(&doc).unwrap_err();
        assert!(error.to_string().contains("not a hex hash"), "{error}");
    }

    #[test]
    fn request_time_budget_and_parallel_envs_round_trip() {
        use crate::report::request_json;
        let mut sys = ChipletSystem::new("req-t", 20.0, 20.0);
        sys.add_chiplet(Chiplet::new("solo", 5.0, 5.0, 10.0));
        let request = FloorplanRequest::builder()
            .system(sys)
            .method(Method::rl())
            .budget(Budget::TimeLimit(Duration::from_millis(1250)))
            .parallel_envs(4)
            .build()
            .unwrap();
        let json = request_json(&request);
        assert!(json.contains("\"time_limit_s\": 1.25"));
        let parsed = request_from_json(&json).expect("parses");
        assert_eq!(request_json(&parsed), json);
        assert_eq!(
            parsed.budget(),
            Some(Budget::TimeLimit(Duration::from_millis(1250)))
        );
        assert_eq!(parsed.parallel_envs(), Some(4));
    }

    #[test]
    fn hostile_request_documents_are_errors_not_panics() {
        use crate::report::request_json;
        let mut sys = ChipletSystem::new("req-h", 20.0, 20.0);
        let a = sys.add_chiplet(Chiplet::new("a", 5.0, 5.0, 10.0));
        let b = sys.add_chiplet(Chiplet::new("b", 5.0, 5.0, 10.0));
        sys.add_net(Net::new(a, b, 8));
        let request = FloorplanRequest::builder().system(sys).build().unwrap();
        let json = request_json(&request);

        // Every typed-API panic path comes back as a named parse error.
        for (needle, replacement, expect) in [
            (
                "rlplanner.request/v1",
                "rlplanner.request/v0",
                "unsupported schema",
            ),
            (
                "\"width_mm\": 5",
                "\"width_mm\": -5",
                "positive finite footprint",
            ),
            (
                "\"power_w\": 10",
                "\"power_w\": -1",
                "non-negative finite power",
            ),
            (
                "\"interposer_mm\": [20, 20]",
                "\"interposer_mm\": [0, 20]",
                "positive finite dimensions",
            ),
            ("\"wires\": 8", "\"wires\": 0", "between 1 and"),
            ("\"to\": 1", "\"to\": 7", "must index the system's"),
            (
                "\"from\": 0, \"to\": 1",
                "\"from\": 1, \"to\": 1",
                "distinct chiplets",
            ),
            (
                "\"budget\": null",
                "\"budget\": { \"moves\": 3 }",
                "`evaluations` or `time_limit_s`",
            ),
        ] {
            let doc = json.replace(needle, replacement);
            assert_ne!(doc, json, "replacement `{needle}` did not apply");
            let error = request_from_json(&doc).unwrap_err();
            assert!(
                error.to_string().contains(expect),
                "expected `{expect}` in `{error}`"
            );
        }

        // An invalid configuration is caught by the builder, not a panic.
        let doc = json.replace("\"episodes\": 600", "\"episodes\": 0");
        let error = request_from_json(&doc).unwrap_err();
        assert!(
            error.to_string().contains("invalid request configuration"),
            "{error}"
        );
    }

    #[test]
    fn missing_and_malformed_fields_are_named_in_errors() {
        let sys = demo_system();
        let error =
            outcome_from_json("{ \"schema\": \"rlplanner.outcome/v1\" }", &sys).unwrap_err();
        assert!(
            error.to_string().contains("missing field `system`"),
            "{error}"
        );

        let error = outcome_from_json("not json", &sys).unwrap_err();
        assert!(error.to_string().contains("at byte"), "{error}");

        let json = outcome_json(&sys, &rl_outcome(&sys));
        let bad_rotation = json.replace("\"Quarter\"", "\"Half\"");
        let error = outcome_from_json(&bad_rotation, &sys).unwrap_err();
        assert!(error.to_string().contains("unknown rotation"), "{error}");

        let bad_chiplet = json.replace("\"name\": \"gpu\"", "\"name\": \"npu\"");
        let error = outcome_from_json(&bad_chiplet, &sys).unwrap_err();
        assert!(error.to_string().contains("npu"), "{error}");
    }
}
