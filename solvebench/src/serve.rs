//! serve-mixed: an in-process `rlp-serve` daemon driven by `ServeClient`
//! connections, plus the daemon == direct output check.

use crate::calib::HostClock;
use crate::trace::{self, Aggregate, Tracer};
use crate::workloads::{fast_backend, Bench, Phase, Solved};
use crate::Report;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use rlp_chiplet::ChipletSystem;
use rlp_serve::{JobResult, ServeClient, Server, ServerConfig, Submit};
use rlp_thermal::ThermalPrep;
use rlplanner::report::{outcome_json, request_json};
use rlplanner::{outcome_from_value, Budget, FloorplanOutcome, FloorplanRequest, Method};
use std::net::SocketAddr;
use std::sync::Barrier;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Client connections of the serve-mixed closed loop.
const CLIENTS: usize = 2;

/// How many served outcomes are re-solved directly for the daemon ==
/// direct check.
const DIRECT_SAMPLE: usize = 4;

/// A daemon serving on a background thread of this process.
pub struct Daemon {
    addr: SocketAddr,
    thread: Option<JoinHandle<std::io::Result<()>>>,
}

impl Daemon {
    /// Binds a daemon on a free local port (preloading `policy`, if any)
    /// and starts serving.
    pub fn start(
        workers: usize,
        queue_capacity: usize,
        policy: Option<String>,
    ) -> Result<Daemon, String> {
        let server = Server::bind(ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers,
            queue_capacity,
            policy,
        })
        .map_err(|e| format!("binding the daemon: {e}"))?;
        let addr = server.local_addr().map_err(|e| e.to_string())?;
        let thread = thread::spawn(move || server.run());
        Ok(Daemon {
            addr,
            thread: Some(thread),
        })
    }

    /// Fills the daemon's thermal cache: one minimal gradient solve per
    /// system makes it characterise every interposer config once.
    pub fn warm(&self, systems: &[ChipletSystem]) -> Result<(), String> {
        let mut client = self.connect()?;
        for system in systems {
            let request = FloorplanRequest::builder()
                .system(system.clone())
                .method(Method::gradient())
                .thermal(fast_backend())
                .budget(Budget::Evaluations(1))
                .build()
                .map_err(|e| e.to_string())?;
            roundtrip(&mut client, &request_json(&request), &mut 0, None)?;
        }
        Ok(())
    }

    fn connect(&self) -> Result<ServeClient, String> {
        ServeClient::connect(self.addr).map_err(|e| format!("connecting to the daemon: {e}"))
    }

    /// Asks the daemon to shut down and waits for its thread to end.
    pub fn stop(mut self) -> Result<(), String> {
        self.shutdown()
    }

    fn shutdown(&mut self) -> Result<(), String> {
        let Some(thread) = self.thread.take() else {
            return Ok(());
        };
        self.connect()?
            .shutdown()
            .map_err(|e| format!("stopping the daemon: {e}"))?;
        match thread.join() {
            Ok(Ok(())) => Ok(()),
            Ok(Err(e)) => Err(format!("daemon accept loop failed: {e}")),
            Err(_) => Err("daemon thread panicked".to_string()),
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.shutdown();
    }
}

/// Submits one rendered request (retrying `busy` replies) and waits for
/// its outcome.
fn roundtrip(
    client: &mut ServeClient,
    rendered: &str,
    busy_retries: &mut u64,
    tracer: Option<&Tracer>,
) -> Result<JobResult, String> {
    let submit = |client: &mut ServeClient, busy_retries: &mut u64| loop {
        match client.submit(rendered, 0).map_err(|e| e.to_string())? {
            Submit::Accepted(job) => return Ok::<u64, String>(job),
            Submit::Busy { .. } => {
                *busy_retries += 1;
                thread::sleep(Duration::from_millis(1));
            }
        }
    };
    match tracer {
        None => {
            let job = submit(client, busy_retries)?;
            client.wait_outcome(job).map_err(|e| e.to_string())
        }
        Some(tracer) => tracer.time("serve.roundtrip", || {
            let job = tracer.time("serve.submit", || submit(client, busy_retries))?;
            tracer.time("serve.wait", || {
                client.wait_outcome(job).map_err(|e| e.to_string())
            })
        }),
    }
}

type ClientResult = (
    usize,
    &'static str,
    (f64, f64),
    Result<(Solved, Option<FloorplanOutcome>), String>,
);

/// The serve-mixed closed loop: `CLIENTS` connections, each sending its
/// share of the job list and the next request only after the previous
/// outcome arrived, until `seconds` have passed (the first pass always
/// completes). Unlike the other workloads' solves, its round trips are not
/// scaled by the host clock (see `calib`): they spend most of their time
/// waiting on the wire, not computing — the measured latency is about the
/// same for a 1-evaluation `pretrained` request as for a 60-evaluation
/// `gradient` one — so scaling them by the host's compute speed adds noise
/// instead of removing it.
pub fn closed_loop(daemon: &Daemon, bench: &Bench, seconds: f64, tracer: Option<&Tracer>) -> Phase {
    let mut phase = Phase::new(bench.jobs.len());
    let traced = tracer.is_some();
    let barrier = Barrier::new(CLIENTS + 1);
    if traced {
        phase.counters_start = trace::counters();
    }
    let start = Instant::now();
    let results = thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let barrier = &barrier;
                let epoch = tracer.map(Tracer::epoch);
                scope.spawn(move || {
                    client_loop(
                        daemon,
                        bench,
                        c,
                        start,
                        seconds,
                        epoch,
                        traced.then_some(barrier),
                    )
                })
            })
            .collect();
        if traced {
            barrier.wait();
            phase.counters_first_pass = trace::counters();
            barrier.wait();
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect::<Vec<_>>()
    });
    let clock = HostClock::new(start);
    let end = clock.now();
    for (records, busy, local) in results {
        phase.busy_retries += busy;
        for (index, method, timing, result) in records {
            phase.record(index, method, timing, result);
        }
        if let (Some(tracer), Some(local)) = (tracer, local) {
            tracer.absorb(local);
        }
    }
    phase.finish(&clock, end);
    phase
}

fn client_loop(
    daemon: &Daemon,
    bench: &Bench,
    client_index: usize,
    start: Instant,
    seconds: f64,
    epoch: Option<Instant>,
    barrier: Option<&Barrier>,
) -> (Vec<ClientResult>, u64, Option<Tracer>) {
    let tracer = epoch.map(Tracer::new);
    let mut client = daemon.connect();
    let mut records = Vec::new();
    let mut busy = 0;
    let mut pass = 0;
    'passes: loop {
        if let Some(tracer) = &tracer {
            tracer.set_recording(pass == 0);
        }
        for index in (client_index..bench.jobs.len()).step_by(CLIENTS) {
            if pass > 0 && start.elapsed().as_secs_f64() >= seconds {
                break 'passes;
            }
            let job = &bench.jobs[index];
            let from = start.elapsed().as_secs_f64();
            let result = match &mut client {
                Ok(client) => roundtrip(client, &bench.rendered[index], &mut busy, tracer.as_ref()),
                Err(e) => Err(e.clone()),
            };
            let timing = (from, start.elapsed().as_secs_f64());
            let result = result.and_then(|served| {
                let outcome = outcome_from_value(&served.outcome, &bench.systems[job.sys])
                    .map_err(|e| format!("served outcome does not parse: {e}"))?;
                Ok((Solved::of(&outcome), (pass == 0).then_some(outcome)))
            });
            records.push((index, job.method, timing, result));
        }
        if pass == 0 {
            if let Some(barrier) = barrier {
                barrier.wait();
                barrier.wait();
            }
        }
        pass += 1;
    }
    if let Some(tracer) = &tracer {
        tracer.set_recording(false);
    }
    (records, busy, tracer)
}

/// Clears the VOLATILE wall-clock fields of an outcome, so two runs of the
/// same solve render byte-identically.
fn strip_volatile(outcome: &mut FloorplanOutcome) {
    outcome.runtime = Duration::ZERO;
    outcome.thermal_prep = ThermalPrep::default();
    if let Some(training) = &mut outcome.training {
        training.episodes_per_s = 0.0;
    }
}

/// Daemon == direct: re-solves a seeded sample of served jobs through
/// `FloorplanRequest::solve` and compares every deterministic field.
pub fn check_against_direct(bench: &Bench, phase: &Phase, report: &mut Report) {
    let mut rng = ChaCha8Rng::seed_from_u64(bench.seed ^ 0x5eed_d1ec);
    let mut indices: Vec<usize> = (0..bench.jobs.len()).collect();
    for i in 0..DIRECT_SAMPLE.min(indices.len()) {
        let j = rng.gen_range(i..indices.len());
        indices.swap(i, j);
    }
    for &index in indices.iter().take(DIRECT_SAMPLE) {
        let job = &bench.jobs[index];
        let Some(served) = &phase.outcomes[index] else {
            continue;
        };
        let system = &bench.systems[job.sys];
        let mut builder = FloorplanRequest::builder()
            .system(system.clone())
            .method(job.request.method().clone())
            .thermal(job.request.thermal().clone())
            .prebuilt_thermal(bench.prebuilt[job.sys].clone());
        if let Some(budget) = job.request.budget() {
            builder = builder.budget(budget);
        }
        if let Some(seed) = job.request.seed() {
            builder = builder.seed(seed);
        }
        report.attempted += 1;
        let direct = builder
            .build()
            .map_err(|e| e.to_string())
            .and_then(|r| r.solve().map_err(|e| e.to_string()));
        match direct {
            Ok(mut direct) => {
                let mut served = served.clone();
                strip_volatile(&mut served);
                strip_volatile(&mut direct);
                if outcome_json(system, &served) != outcome_json(system, &direct) {
                    report.fail(format!("job {index}: served outcome != direct solve"));
                }
            }
            Err(e) => report.fail(format!("job {index}: direct solve failed: {e}")),
        }
    }
}

/// What the serve probe measured for a workload that does not run the
/// daemon itself.
#[derive(Debug, Default)]
pub struct ServeProbe {
    pub roundtrip: Aggregate,
    pub queue: Aggregate,
    pub solve: Aggregate,
    pub busy_retries: u64,
}

/// Serves a few of the workload's own first jobs through a one-worker
/// daemon and one connection. The first submission is untimed: it fills
/// the daemon's cache.
pub fn probe(bench: &Bench) -> Result<ServeProbe, String> {
    let daemon = Daemon::start(1, 4, None)?;
    let mut client = daemon.connect()?;
    let first_sys = bench.jobs[0].sys;
    let rendered: Vec<String> = bench
        .jobs
        .iter()
        .filter(|j| j.sys == first_sys)
        .take(3)
        .map(|j| request_json(&j.request))
        .collect();
    let mut probe = ServeProbe::default();
    roundtrip(&mut client, &rendered[0], &mut probe.busy_retries, None)?;
    let queue_before = trace::histogram("serve.job.queue_wait_ns");
    let solve_before = trace::histogram("serve.job.solve_ns");
    for text in &rendered {
        let started = Instant::now();
        roundtrip(&mut client, text, &mut probe.busy_retries, None)?;
        probe.roundtrip.ns += started.elapsed().as_nanos() as u64;
        probe.roundtrip.calls += 1;
    }
    probe.queue = trace::since(trace::histogram("serve.job.queue_wait_ns"), queue_before);
    probe.solve = trace::since(trace::histogram("serve.job.solve_ns"), solve_before);
    drop(client);
    daemon.stop()?;
    Ok(probe)
}
