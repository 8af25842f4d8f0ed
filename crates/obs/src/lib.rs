//! `rlp-obs`: the workspace's observability substrate — a process-wide
//! metrics registry (counters, gauges, log-scale latency histograms with
//! percentile extraction, rendered as `rlplanner.metrics/v1` JSON) plus
//! structured, levelled events and spans with pluggable sinks — and the
//! workspace's one JSON module, [`json`], which every document is built,
//! rendered and parsed with.
//!
//! Hand-rolled on `std` only: the build environment vendors its few
//! dependencies and this crate sits *beneath* every other workspace crate,
//! so it depends on nothing and instruments everything — the thermal
//! cache, the SA hot loop, RL training, campaign runs and the serving
//! daemon all report through the same registry and clock.
//!
//! # Both halves default to off
//!
//! Metrics recording and log emission are independently gated and both
//! start disabled, so a library user who never heard of observability pays
//! ~one relaxed atomic load per instrumented site (see
//! [`metrics`](self::metrics#cost-model) and [`log`](self::log#cost-model)
//! for the exact cost model; the `obs_overhead` bench in `rlp-bench` holds
//! the disabled path to within noise of uninstrumented code). Binaries opt
//! in explicitly ([`set_metrics_enabled`], [`set_max_level`]) or via the
//! environment ([`init_from_env`]: `RLP_LOG`, `RLP_METRICS`, `RLP_TRACE`).
//!
//! # Typical call sites
//!
//! ```
//! use rlp_obs::{obs_counter, obs_histogram, obs_event, obs_span, Level, Stopwatch};
//!
//! // Counting is one macro call; the handle resolves once per site.
//! obs_counter!("thermal.cache.hits").inc();
//!
//! // Timing skips the clock entirely while metrics are off.
//! let timer = Stopwatch::start();
//! // ... do the work ...
//! timer.stop(obs_histogram!("thermal.characterization_ns"));
//!
//! // Events and spans: levelled, structured, zero-cost when filtered.
//! obs_event!(Level::Info, "doc", "characterised model", grid = 64usize);
//! let _span = obs_span!(Level::Debug, "doc", "solve", job = 3u64);
//! ```

pub mod json;
pub mod log;
pub mod metrics;

pub use crate::log::{
    add_sink, emit, event, inert_span, init_from_env, log_enabled, max_level, monotonic_ns,
    set_max_level, set_sinks, span, JsonlSink, Level, LogRecord, LogSink, RecordKind, SpanGuard,
    StderrSink,
};
pub use crate::metrics::{
    metrics_enabled, registry, set_metrics_enabled, Counter, Gauge, Histogram, HistogramSnapshot,
    MetricsRegistry, MetricsSnapshot, Stopwatch, BUCKET_COUNT, METRICS_SCHEMA,
};
