//! The traced run's instruments: an in-memory span recorder, wrappers that
//! time the program's own trait objects in place, and readers for the
//! `rlp-obs` registry the program already keeps.
//!
//! Spans are recorded from the benchmark's own code, around the calls it
//! makes into each layer; nothing inside the program is instrumented anew.

use rlp_chiplet::{ChipletId, ChipletSystem, Placement};
use rlp_sa::{DeltaObjective, EvalMode};
use rlp_thermal::{ThermalAnalyzer, ThermalError, ThermalGradient, ThermalState};
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// One recorded span: a named interval and the span that caused it.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Total time and call count of one named layer call.
#[derive(Debug, Clone, Copy, Default)]
pub struct Aggregate {
    pub ns: u64,
    pub calls: u64,
}

impl Aggregate {
    /// Mean time per call in nanoseconds.
    pub fn mean_ns(&self) -> f64 {
        self.ns as f64 / self.calls.max(1) as f64
    }
}

/// Records spans on one thread. Every timed call is added to a per-name
/// aggregate; individual spans are kept only while recording is on, which
/// bounds memory on long runs.
pub struct Tracer {
    epoch: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
    recording: Cell<bool>,
    totals: RefCell<BTreeMap<&'static str, Aggregate>>,
}

impl Tracer {
    /// A tracer whose span times count from `epoch`.
    pub fn new(epoch: Instant) -> Self {
        Tracer {
            epoch,
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
            recording: Cell::new(false),
            totals: RefCell::new(BTreeMap::new()),
        }
    }

    /// The instant span times count from.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Turns keeping individual spans on or off; aggregates always run.
    pub fn set_recording(&self, on: bool) {
        self.recording.set(on);
    }

    /// Nanoseconds since the epoch.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, a child of the innermost open
    /// span.
    pub fn time<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let start = self.now_ns();
        let index = self.recording.get().then(|| {
            let mut spans = self.spans.borrow_mut();
            let parent = self.open.borrow().last().copied();
            spans.push(Span {
                name,
                parent,
                start_ns: start,
                end_ns: start,
            });
            let index = spans.len() - 1;
            self.open.borrow_mut().push(index);
            index
        });
        let result = f();
        let end = self.now_ns();
        if let Some(index) = index {
            self.spans.borrow_mut()[index].end_ns = end;
            self.open.borrow_mut().pop();
        }
        self.add(name, end - start, 1);
        result
    }

    /// Records an already-measured interval as a child of the innermost
    /// open span (for layers observed through callbacks).
    pub fn record(&self, name: &'static str, start_ns: u64, end_ns: u64) {
        if self.recording.get() {
            let parent = self.open.borrow().last().copied();
            self.spans.borrow_mut().push(Span {
                name,
                parent,
                start_ns,
                end_ns,
            });
        }
        self.add(name, end_ns.saturating_sub(start_ns), 1);
    }

    /// Adds time to a named aggregate without a span.
    pub fn add(&self, name: &'static str, ns: u64, calls: u64) {
        let mut totals = self.totals.borrow_mut();
        let entry = totals.entry(name).or_default();
        entry.ns += ns;
        entry.calls += calls;
    }

    /// The aggregate of one name (zero if never timed).
    pub fn total(&self, name: &str) -> Aggregate {
        self.totals.borrow().get(name).copied().unwrap_or_default()
    }

    /// Moves another thread's spans and aggregates into this tracer.
    pub fn absorb(&self, other: Tracer) {
        let offset = self.spans.borrow().len();
        let spans = other.spans.into_inner();
        self.spans
            .borrow_mut()
            .extend(spans.into_iter().map(|span| Span {
                parent: span.parent.map(|p| p + offset),
                ..span
            }));
        for (name, aggregate) in other.totals.into_inner() {
            self.add(name, aggregate.ns, aggregate.calls);
        }
    }

    /// Self time per span name: each span's duration minus the time its
    /// direct children cover.
    pub fn self_times(&self) -> BTreeMap<&'static str, u64> {
        let spans = self.spans.borrow();
        let mut child_ns = vec![0u64; spans.len()];
        for span in spans.iter() {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.end_ns - span.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (span, children) in spans.iter().zip(child_ns) {
            let own = (span.end_ns - span.start_ns).saturating_sub(children);
            *out.entry(span.name).or_default() += own;
        }
        out
    }

    /// Writes every kept span as one JSON line: name, start, end, parent.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, span) in self.spans.borrow().iter().enumerate() {
            let parent = span
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                span.name, span.start_ns, span.end_ns
            )?;
        }
        out.flush()
    }
}

/// Call time of a wrapped analyzer, shared by every clone (rollout workers
/// clone the analyzer into each pooled environment).
#[derive(Debug, Default)]
pub struct CallStats {
    ns: AtomicU64,
    calls: AtomicU64,
}

impl CallStats {
    fn add(&self, started: Instant) {
        self.ns
            .fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.calls.fetch_add(1, Ordering::Relaxed);
    }

    /// Total time and call count so far.
    pub fn aggregate(&self) -> Aggregate {
        Aggregate {
            ns: self.ns.load(Ordering::Relaxed),
            calls: self.calls.load(Ordering::Relaxed),
        }
    }
}

/// A [`ThermalAnalyzer`] that times every temperature evaluation of the
/// analyzer it wraps and forwards everything else unchanged, so the solve
/// it sits in takes the identical path.
#[derive(Debug, Clone)]
pub struct TimedAnalyzer<A> {
    inner: A,
    stats: Arc<CallStats>,
}

impl<A> TimedAnalyzer<A> {
    pub fn new(inner: A, stats: Arc<CallStats>) -> Self {
        TimedAnalyzer { inner, stats }
    }
}

impl<A: ThermalAnalyzer> ThermalAnalyzer for TimedAnalyzer<A> {
    fn chiplet_temperatures(
        &self,
        system: &ChipletSystem,
        placement: &Placement,
    ) -> Result<Vec<f64>, ThermalError> {
        let started = Instant::now();
        let result = self.inner.chiplet_temperatures(system, placement);
        self.stats.add(started);
        result
    }

    fn max_temperature(
        &self,
        system: &ChipletSystem,
        placement: &Placement,
    ) -> Result<f64, ThermalError> {
        let started = Instant::now();
        let result = self.inner.max_temperature(system, placement);
        self.stats.add(started);
        result
    }

    fn incremental_state(
        &self,
        system: &ChipletSystem,
        placement: &Placement,
    ) -> Result<Option<ThermalState>, ThermalError> {
        self.inner.incremental_state(system, placement)
    }

    fn thermal_gradient(
        &self,
        system: &ChipletSystem,
        placement: &Placement,
        sharpness_per_c: f64,
    ) -> Result<Option<ThermalGradient>, ThermalError> {
        self.inner
            .thermal_gradient(system, placement, sharpness_per_c)
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

/// A [`DeltaObjective`] that times each call of the objective it wraps as
/// a `sa.objective` span.
pub struct TimedDelta<'t, D> {
    pub inner: D,
    tracer: &'t Tracer,
}

impl<'t, D> TimedDelta<'t, D> {
    pub fn new(inner: D, tracer: &'t Tracer) -> Self {
        TimedDelta { inner, tracer }
    }
}

impl<D: DeltaObjective> DeltaObjective for TimedDelta<'_, D> {
    fn reset(&mut self, placement: &Placement) -> f64 {
        self.tracer
            .time("sa.objective", || self.inner.reset(placement))
    }

    fn propose(&mut self, candidate: &Placement, changed: &[ChipletId]) -> f64 {
        self.tracer.add("sa.moves", 0, 1);
        self.tracer
            .time("sa.objective", || self.inner.propose(candidate, changed))
    }

    fn commit(&mut self) {
        self.tracer.time("sa.objective", || self.inner.commit());
    }

    fn reject(&mut self) {
        self.tracer.time("sa.objective", || self.inner.reject());
    }

    fn evaluation_mode(&self) -> EvalMode {
        self.inner.evaluation_mode()
    }
}

/// Every counter of the process-wide registry, by name.
pub fn counters() -> BTreeMap<String, u64> {
    rlp_obs::registry()
        .snapshot()
        .counters
        .into_iter()
        .collect()
}

/// `after[name] - before[name]`, treating a missing counter as zero.
pub fn delta(after: &BTreeMap<String, u64>, before: &BTreeMap<String, u64>, name: &str) -> u64 {
    after.get(name).copied().unwrap_or(0) - before.get(name).copied().unwrap_or(0)
}

/// Sum (ns) and count of a registry histogram.
pub fn histogram(name: &str) -> Aggregate {
    let snapshot = rlp_obs::registry().histogram(name).snapshot();
    Aggregate {
        ns: snapshot.sum(),
        calls: snapshot.count(),
    }
}

/// `after - before` of two histogram aggregates.
pub fn since(after: Aggregate, before: Aggregate) -> Aggregate {
    Aggregate {
        ns: after.ns - before.ns,
        calls: after.calls - before.calls,
    }
}
