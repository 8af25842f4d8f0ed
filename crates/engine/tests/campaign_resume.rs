//! Integration tests for fail-soft streaming and resume.
//!
//! The acceptance scenario: a streamed campaign is killed mid-flight (here:
//! a sink that starts erroring after K records), restarted against the same
//! file, and the merged stream must contain the same deterministic results
//! as an uninterrupted run — record for record. Volatile telemetry
//! (runtimes, cache hit/miss splits, characterisation time) legitimately
//! differs between executions, so the comparison projects records onto
//! their deterministic fields first; everything else must match
//! byte-for-byte after the canonical re-render.

use rlp_chiplet::{Chiplet, ChipletSystem, Net};
use rlp_engine::{
    CampaignEngine, CampaignError, CampaignMethod, CampaignSpec, JsonlSink, MemorySink, RunEvent,
    RunSink,
};
use rlp_obs::json::Value;
use rlp_sa::SaConfig;
use rlp_thermal::{ThermalBackend, ThermalConfig};
use rlplanner::{Budget, Method};
use std::io;
use std::path::PathBuf;

fn tiny_system() -> ChipletSystem {
    let mut sys = ChipletSystem::new("resume-demo", 24.0, 24.0);
    let a = sys.add_chiplet(Chiplet::new("a", 6.0, 6.0, 20.0));
    let b = sys.add_chiplet(Chiplet::new("b", 5.0, 5.0, 10.0));
    let c = sys.add_chiplet(Chiplet::new("c", 4.0, 4.0, 8.0));
    sys.add_net(Net::new(a, b, 32));
    sys.add_net(Net::new(b, c, 16));
    sys
}

fn grid_backend() -> ThermalBackend {
    ThermalBackend::Grid {
        config: ThermalConfig::with_grid(8, 8),
    }
}

/// A 2-method × 2-seed serial grid (4 runs): small enough to execute many
/// times per test, serial so the stream order is the grid order.
fn serial_spec() -> CampaignSpec {
    serial_spec_with_seeds([1, 2])
}

fn serial_spec_with_seeds(seeds: [u64; 2]) -> CampaignSpec {
    CampaignSpec::builder()
        .system(tiny_system())
        .method(CampaignMethod::new("sa", Method::sa(), grid_backend()))
        .method(CampaignMethod::new(
            "sa-slow-cool",
            Method::Sa {
                config: SaConfig {
                    cooling_rate: 0.9,
                    ..SaConfig::default()
                },
            },
            grid_backend(),
        ))
        .seeds(seeds)
        .budget(Budget::Evaluations(12))
        .parallelism(1)
        .build()
        .expect("valid spec")
}

/// Simulates a campaign killed mid-flight: persists records until
/// `fail_after` have been written, then errors on every further emit.
struct FailingSink {
    inner: MemorySink,
    fail_after: usize,
}

impl RunSink for FailingSink {
    fn emit(&mut self, event: &RunEvent<'_>) -> io::Result<()> {
        if self.inner.lines().len() >= self.fail_after {
            return Err(io::Error::other("disk gone"));
        }
        self.inner.emit(event)
    }
}

/// Keys whose values are wall-clock or cache telemetry — legitimately
/// different between executions — stripped before byte-comparison.
const VOLATILE_KEYS: &[&str] = &[
    "runtime_s",
    "episodes_per_s",
    "characterization_s",
    "cache_hits",
    "cache_misses",
];

fn strip_volatile(value: &Value) -> Value {
    match value {
        Value::Obj(members) => Value::Obj(
            members
                .iter()
                .filter(|(key, _)| !VOLATILE_KEYS.contains(&key.as_str()))
                .map(|(key, inner)| (key.clone(), strip_volatile(inner)))
                .collect(),
        ),
        Value::Arr(items) => Value::Arr(items.iter().map(strip_volatile).collect()),
        other => other.clone(),
    }
}

/// The deterministic projection of one stream line: parse, strip volatile
/// telemetry, re-render canonically.
fn deterministic_projection(line: &str) -> String {
    strip_volatile(&Value::parse(line).expect("stream lines are valid JSON")).render()
}

fn temp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("rlp-engine-{}-{name}.jsonl", std::process::id()))
}

#[test]
fn sink_error_aborts_the_campaign_but_keeps_persisted_records() {
    let spec = serial_spec();
    let mut sink = FailingSink {
        inner: MemorySink::new(),
        fail_after: 2,
    };
    let err = CampaignEngine::new()
        .run_streamed(&spec, &mut sink)
        .expect_err("sink failure must abort the campaign");
    match err {
        CampaignError::Sink { index, ref reason } => {
            assert_eq!(index, 2, "the third record is the one that failed");
            assert!(reason.contains("disk gone"), "got: {reason}");
        }
        other => panic!("expected a sink error, got {other:?}"),
    }
    // Everything emitted before the failure is intact and well-formed.
    assert_eq!(sink.inner.lines().len(), 2);
    for (expected_index, line) in sink.inner.lines().iter().enumerate() {
        let value = Value::parse(line).expect("persisted lines are valid JSON");
        assert_eq!(
            value.get("schema").and_then(Value::as_str),
            Some("rlplanner.campaign-run/v1")
        );
        assert_eq!(
            value.get("index").and_then(Value::as_f64),
            Some(expected_index as f64)
        );
        assert_eq!(value.get("status").and_then(Value::as_str), Some("ok"));
    }
}

#[test]
fn truncated_stream_resumes_to_the_uninterrupted_result() {
    let spec = serial_spec();
    let engine = CampaignEngine::new();

    // The reference: one uninterrupted streamed campaign.
    let mut reference_sink = MemorySink::new();
    let reference = engine
        .run_streamed(&spec, &mut reference_sink)
        .expect("uninterrupted campaign");
    assert_eq!(reference_sink.lines().len(), 4);
    assert_eq!(reference.resumed_runs, 0);

    // The interrupted campaign: killed (sink starts failing) after two
    // records made it to disk.
    let mut dying_sink = FailingSink {
        inner: MemorySink::new(),
        fail_after: 2,
    };
    engine
        .run_streamed(&spec, &mut dying_sink)
        .expect_err("interrupted campaign aborts");
    let path = temp_path("resume");
    std::fs::write(&path, format!("{}\n", dying_sink.inner.lines().join("\n")))
        .expect("persist truncated stream");

    // Restart against the truncated file: only the missing cells execute.
    let mut resumed_sink = JsonlSink::open(&path).expect("reopen stream");
    assert_eq!(resumed_sink.prior_len(), 2);
    let resumed = engine
        .run_streamed(&spec, &mut resumed_sink)
        .expect("resumed campaign");
    assert_eq!(resumed.resumed_runs, 2);
    assert_eq!(resumed.runs.len(), 4);
    assert!(resumed.failures.is_empty());
    let executed: usize = resumed.scheduler.workers.iter().map(|w| w.runs).sum();
    assert_eq!(executed, 2, "resumed cells must not re-execute");

    // The merged file holds the whole grid and is, after stripping volatile
    // wall-clock/cache telemetry, byte-identical to the uninterrupted
    // stream — the runs that executed reproduced the reference exactly.
    let merged = std::fs::read_to_string(&path).expect("read merged stream");
    let merged_lines: Vec<&str> = merged.lines().filter(|l| !l.trim().is_empty()).collect();
    assert_eq!(merged_lines.len(), 4);
    for (line, reference_line) in merged_lines.iter().zip(reference_sink.lines()) {
        assert_eq!(
            deterministic_projection(line),
            deterministic_projection(reference_line),
        );
    }

    // The in-memory report agrees with the reference too, resumed records
    // included.
    for (a, b) in reference.runs.iter().zip(&resumed.runs) {
        assert_eq!(
            (a.index, &a.system, &a.method, a.seed),
            (b.index, &b.system, &b.method, b.seed)
        );
        assert_eq!(a.outcome.breakdown.reward, b.outcome.breakdown.reward);
        assert_eq!(a.outcome.placement, b.outcome.placement);
        assert_eq!(a.outcome.manifest, b.outcome.manifest);
        assert_eq!(a.outcome.evaluations, b.outcome.evaluations);
    }

    std::fs::remove_file(&path).ok();
}

#[test]
fn resuming_a_complete_stream_executes_nothing() {
    // The second spec's seed 2^53 + 1 has no exact f64: its records must
    // resume with the seed they were run with, not a rounded neighbour.
    for seeds in [[1, 2], [1, (1u64 << 53) + 1]] {
        resume_complete_stream(&serial_spec_with_seeds(seeds));
    }
}

fn resume_complete_stream(spec: &CampaignSpec) {
    let engine = CampaignEngine::new();
    let mut first = MemorySink::new();
    let original = engine
        .run_streamed(spec, &mut first)
        .expect("streamed campaign");

    let mut replay = MemorySink::with_prior(first.lines().to_vec());
    let resumed = engine
        .run_streamed(spec, &mut replay)
        .expect("resumed campaign");
    assert_eq!(resumed.resumed_runs, 4);
    assert!(replay.lines().is_empty(), "nothing new to emit");
    let executed: usize = resumed.scheduler.workers.iter().map(|w| w.runs).sum();
    assert_eq!(executed, 0);
    assert_eq!(resumed.runs.len(), original.runs.len());
    for (a, b) in original.runs.iter().zip(&resumed.runs) {
        assert_eq!(a.seed, b.seed);
        assert_eq!(a.outcome.manifest.seed, b.outcome.manifest.seed);
        assert_eq!(a.outcome.breakdown.reward, b.outcome.breakdown.reward);
        assert_eq!(a.outcome.placement, b.outcome.placement);
    }
    // Aggregation over reconstructed records matches the original.
    assert_eq!(original.cells.len(), resumed.cells.len());
    for (a, b) in original.cells.iter().zip(&resumed.cells) {
        assert_eq!(a.best_run, b.best_run);
        assert_eq!(a.mean_reward, b.mean_reward);
    }
}

#[test]
fn error_records_are_retried_on_resume() {
    // A stream whose only record is a failure: resuming retries that grid
    // cell instead of skipping it.
    let spec = serial_spec();
    let engine = CampaignEngine::new();
    let mut first = MemorySink::new();
    engine
        .run_streamed(&spec, &mut first)
        .expect("streamed campaign");
    let error_line = "{\"schema\":\"rlplanner.campaign-run/v1\",\"index\":0,\"status\":\"error\",\
         \"system\":\"resume-demo\",\"system_index\":0,\"method\":\"sa\",\"seed\":1,\
         \"error\":\"transient\"}";
    let mut replay = MemorySink::with_prior(vec![error_line.to_string()]);
    let resumed = engine
        .run_streamed(&spec, &mut replay)
        .expect("resumed campaign");
    assert_eq!(resumed.resumed_runs, 0);
    assert_eq!(resumed.runs.len(), 4, "the failed cell was retried");
    assert!(resumed.failures.is_empty());
    assert_eq!(replay.lines().len(), 4);
}

#[test]
fn mismatched_or_malformed_streams_are_rejected() {
    let spec = serial_spec();
    let engine = CampaignEngine::new();
    let mut first = MemorySink::new();
    engine
        .run_streamed(&spec, &mut first)
        .expect("streamed campaign");
    let lines = first.lines().to_vec();

    // A spec with a different seeds axis: record seeds no longer match.
    let other_spec = CampaignSpec::builder()
        .system(tiny_system())
        .method(CampaignMethod::new("sa", Method::sa(), grid_backend()))
        .method(CampaignMethod::new(
            "sa-slow-cool",
            Method::Sa {
                config: SaConfig {
                    cooling_rate: 0.9,
                    ..SaConfig::default()
                },
            },
            grid_backend(),
        ))
        .seeds([9, 10])
        .budget(Budget::Evaluations(12))
        .parallelism(1)
        .build()
        .unwrap();
    let mut mismatched = MemorySink::with_prior(lines.clone());
    let err = engine
        .run_streamed(&other_spec, &mut mismatched)
        .expect_err("mismatched stream must be rejected");
    assert!(
        matches!(err, CampaignError::Resume { line: 1, .. }),
        "got {err:?}"
    );

    // A truncated (half-written) final line is named by line number.
    let mut truncated_lines = lines.clone();
    let last = truncated_lines.pop().unwrap();
    truncated_lines.push(last[..last.len() / 2].to_string());
    let mut truncated = MemorySink::with_prior(truncated_lines);
    let err = engine
        .run_streamed(&spec, &mut truncated)
        .expect_err("truncated line must be rejected");
    match err {
        CampaignError::Resume { line, ref reason } => {
            assert_eq!(line, 4);
            assert!(reason.contains("invalid JSON"), "got: {reason}");
        }
        other => panic!("expected a resume error, got {other:?}"),
    }

    // A duplicate grid index is rejected rather than silently overwritten.
    let mut duplicated_lines = lines;
    duplicated_lines.push(duplicated_lines[0].clone());
    let mut duplicated = MemorySink::with_prior(duplicated_lines);
    let err = engine
        .run_streamed(&spec, &mut duplicated)
        .expect_err("duplicate record must be rejected");
    match err {
        CampaignError::Resume { line, ref reason } => {
            assert_eq!(line, 5);
            assert!(reason.contains("duplicate"), "got: {reason}");
        }
        other => panic!("expected a resume error, got {other:?}"),
    }
}
