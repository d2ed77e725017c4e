//! The `ingest` workload: the live `IngestRuntime` behind its TCP door.
//!
//! An open-loop client offers a seeded Poisson trace at a fixed rate
//! below the crowd's capacity, over at most `nproc` keep-alive
//! connections, one client thread each. Every request is timed from
//! the instant it was due. When the trace ends, the client polls every
//! admitted task until it is terminal, then shuts the runtime down and
//! checks the polled states against the runtime's report.

use crate::calib::{Gauge, SpeedGauge};
use crate::http::{field_bool, field_str, field_u64, Conn, Response, SocketAddr};
use crate::report::Outcome;
use crate::stats::{censored_percentile, mean, median, percentile, ratio};
use react_crowd::TaskGenerator;
use react_geo::BoundingBox;
use react_obs::{
    CounterKind, HistogramKind, Observer, ObserverHandle, RecordingObserver, SpanKind,
};
use react_runtime::{IngestConfig, IngestHandle, IngestRuntime, Stopwatch};
use react_sim::RngStreams;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Set-ups measured per run; all but the last are torn down unused.
const SETUPS: usize = 5;

/// A keep-alive connection idle this long is reopened before use: the
/// door closes connections after its 500 ms idle timeout.
const IDLE_REOPEN_S: f64 = 0.3;

/// Wall seconds between poll sweeps, and the most the polling may take.
const POLL_PAUSE_S: f64 = 0.1;
const POLL_LIMIT_S: f64 = 60.0;

/// 40 worker hosts at 100× time compression, offered 0.6 tasks per
/// crowd second with 60–120 s deadlines: about two thirds of what the
/// crowd serves.
const N_WORKERS: usize = 40;
const TIME_SCALE: f64 = 100.0;
const RATE: f64 = 0.6;
const DEADLINE_RANGE: (f64, f64) = (60.0, 120.0);

/// One submission of the trace: when it is due (wall seconds after the
/// trace starts) and its body.
struct Request {
    due_s: f64,
    body: String,
}

/// The trace: `n` tasks from `react-crowd`'s generator, with arrival
/// instants scaled so the last falls at `span` crowd seconds (a Poisson
/// stream conditioned on its count).
fn trace(seed: u64, wall_s: f64) -> Vec<Request> {
    let streams = RngStreams::new(seed);
    let mut rng = streams.stream("workload");
    let region = BoundingBox::new(37.8, 38.2, 23.5, 24.0).expect("static bounds are valid");
    let span = wall_s * TIME_SCALE;
    let n = ((RATE * span).round() as usize).max(1);
    let tasks = TaskGenerator::new(RATE, region)
        .with_deadline_range(DEADLINE_RANGE.0, DEADLINE_RANGE.1)
        .take_n(n, &mut rng);
    let last = tasks.last().map_or(1.0, |(at, _)| *at);
    tasks
        .into_iter()
        .map(|(at, task)| Request {
            due_s: at / last * wall_s,
            body: format!(
                "{{\"deadline\":{},\"reward\":{},\"lat\":{},\"lon\":{}}}",
                task.deadline,
                task.reward,
                task.location.lat(),
                task.location.lon()
            ),
        })
        .collect()
}

/// An observer that keeps only the scheduler's `tick` span, scaled to
/// the nominal host: the one timing an untraced run needs from inside
/// the runtime, whose ticks the benchmark cannot call itself.
#[derive(Debug)]
struct TickTimes {
    ticks: Mutex<Vec<f64>>,
    gauge: Gauge,
}

impl Observer for TickTimes {
    fn span(&self, kind: SpanKind, seconds: f64) {
        if kind == SpanKind::Tick {
            if let Ok(mut ticks) = self.ticks.lock() {
                ticks.push(seconds * self.gauge.factor());
            }
        }
    }

    fn incr(&self, _kind: CounterKind, _by: u64) {}

    fn observe(&self, _kind: HistogramKind, _value: f64) {}
}

/// A client connection that reopens itself after idling and retries a
/// failed request once on a fresh connection.
struct Client {
    addr: SocketAddr,
    conn: Option<Conn>,
    last_use: Stopwatch,
    opened: u64,
}

impl Client {
    fn new(addr: SocketAddr) -> Client {
        Client {
            addr,
            conn: None,
            last_use: Stopwatch::start(),
            opened: 0,
        }
    }

    fn connect(&mut self) -> std::io::Result<()> {
        // Close first: each door acceptor serves one connection at a time.
        self.conn = None;
        self.conn = Some(Conn::open(self.addr)?);
        self.opened += 1;
        Ok(())
    }

    fn request(&mut self, method: &str, path: &str, body: &str) -> Result<Response, String> {
        if self.conn.is_none() || self.last_use.elapsed_secs() > IDLE_REOPEN_S {
            self.connect().map_err(|e| format!("connect: {e}"))?;
        }
        let mut result = Err(String::new());
        for attempt in 0..2 {
            if attempt == 1 {
                self.connect().map_err(|e| format!("reconnect: {e}"))?;
            }
            let conn = self.conn.as_mut().expect("connected above");
            result = conn
                .request(method, path, body)
                .map_err(|e| format!("{method} {path}: {e}"));
            if result.is_ok() {
                break;
            }
        }
        self.last_use = Stopwatch::start();
        result
    }
}

/// What one client thread saw while offering its share of the trace.
#[derive(Default)]
struct Offered {
    accepted: Vec<u64>,
    latencies_us: Vec<f64>,
    late_ms: Vec<f64>,
    factors: Vec<f64>,
    failures: Vec<String>,
    requests: u64,
    opened: u64,
}

/// Offers requests `lane, lane + lanes, ...` on one connection.
fn offer(
    addr: SocketAddr,
    requests: &[Request],
    (lane, lanes): (usize, usize),
    start: Stopwatch,
    gauge: &Gauge,
) -> Offered {
    let mut client = Client::new(addr);
    let mut out = Offered::default();
    for req in requests.iter().skip(lane).step_by(lanes) {
        let wait = req.due_s - start.elapsed_secs();
        if wait > 0.0 {
            std::thread::sleep(Duration::from_secs_f64(wait));
        }
        out.late_ms.push((start.elapsed_secs() - req.due_s) * 1e3);
        out.requests += 1;
        let result = client.request("POST", "/tasks", &req.body);
        let factor = gauge.factor();
        out.factors.push(factor);
        out.latencies_us
            .push((start.elapsed_secs() - req.due_s) * factor * 1e6);
        match result {
            Ok(r) if r.status == 202 => match field_u64(&r.body, "task") {
                Some(id) => out.accepted.push(id),
                None => out
                    .failures
                    .push(format!("202 without a task id: {}", r.body)),
            },
            Ok(r) => out
                .failures
                .push(format!("POST /tasks answered {}: {}", r.status, r.body)),
            Err(e) => out.failures.push(e),
        }
    }
    out.opened = client.opened;
    out
}

/// Terminal states seen by polling.
#[derive(Default)]
struct Polled {
    completed: u64,
    met_deadline: u64,
    expired: u64,
    shed: u64,
    open: u64,
    requests: u64,
    latencies_ms: Vec<f64>,
    failures: Vec<String>,
    opened: u64,
}

/// Polls `ids` until each is terminal or the poll limit passes.
fn poll(addr: SocketAddr, ids: &[u64]) -> Polled {
    let mut client = Client::new(addr);
    let mut out = Polled::default();
    let mut pending: Vec<u64> = ids.to_vec();
    let clock = Stopwatch::start();
    while !pending.is_empty() && clock.elapsed_secs() < POLL_LIMIT_S {
        let mut still = Vec::new();
        for &id in &pending {
            out.requests += 1;
            let sent = Stopwatch::start();
            let result = client.request("GET", &format!("/tasks/{id}"), "");
            out.latencies_ms.push(sent.elapsed_secs() * 1e3);
            let r = match result {
                Ok(r) if r.status == 200 => r,
                Ok(r) => {
                    out.failures
                        .push(format!("GET /tasks/{id} answered {}: {}", r.status, r.body));
                    continue;
                }
                Err(e) => {
                    out.failures.push(e);
                    continue;
                }
            };
            match field_str(&r.body, "state") {
                Some("completed") => {
                    out.completed += 1;
                    out.met_deadline +=
                        u64::from(field_bool(&r.body, "met_deadline") == Some(true));
                }
                Some("expired") => out.expired += 1,
                Some("shed") => out.shed += 1,
                Some("queued") | Some("assigned") => still.push(id),
                _ => out
                    .failures
                    .push(format!("GET /tasks/{id}: unknown answer {}", r.body)),
            }
        }
        pending = still;
        if !pending.is_empty() {
            std::thread::sleep(Duration::from_secs_f64(POLL_PAUSE_S));
        }
    }
    out.open = pending.len() as u64;
    out.opened = client.opened;
    out
}

fn config(seed: u64) -> IngestConfig {
    IngestConfig {
        n_workers: N_WORKERS,
        time_scale: TIME_SCALE,
        seed,
        ..IngestConfig::default()
    }
}

/// Runs the workload: offers `seconds` of trace, drains, checks.
pub fn run(seed: u64, seconds: f64, traced: bool) -> Outcome {
    let mut outcome = Outcome::default();
    let lanes = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(IngestConfig::default().acceptors)
        .max(1);
    let speed = SpeedGauge::start();
    let gauge = speed.gauge();
    let recorder = RecordingObserver::new();
    let ticks = Arc::new(TickTimes {
        ticks: Mutex::new(Vec::new()),
        gauge: gauge.clone(),
    });
    let observer: ObserverHandle = if traced {
        Arc::new(recorder.clone())
    } else {
        ticks.clone()
    };

    // Set up several times; only the last runtime serves the trace.
    let mut setups = Vec::new();
    let mut live: Option<(IngestHandle, Vec<Request>)> = None;
    for i in 0..SETUPS {
        let clock = Stopwatch::start();
        let requests = trace(seed, seconds);
        let started = IngestRuntime::new(config(seed))
            .with_observer(if i + 1 == SETUPS {
                observer.clone()
            } else {
                react_obs::null_observer()
            })
            .start();
        let handle = match started {
            Ok(handle) => handle,
            Err(err) => {
                outcome.problem(format!("IngestRuntime::start failed: {err}"));
                speed.stop();
                return outcome;
            }
        };
        setups.push(clock.elapsed_secs() * gauge.factor());
        if i + 1 == SETUPS {
            live = Some((handle, requests));
        } else {
            let report = handle.shutdown();
            if report.offered != 0 || !report.conserved() {
                outcome.problem(format!("an unused runtime reported work: {report:?}"));
            }
        }
    }
    let (handle, requests) = live.expect("the last set-up is kept");
    let addr = handle.local_addr();

    let start = Stopwatch::start();
    let offered: Vec<Offered> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..lanes)
            .map(|lane| {
                let (requests, gauge) = (&requests, &gauge);
                scope.spawn(move || offer(addr, requests, (lane, lanes), start, gauge))
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("client thread panicked"))
            .collect()
    });
    let mut accepted: Vec<u64> = offered
        .iter()
        .flat_map(|o| o.accepted.iter().copied())
        .collect();
    accepted.sort_unstable();
    let polled: Vec<Polled> = std::thread::scope(|scope| {
        let chunk = accepted.len().div_ceil(lanes).max(1);
        let workers: Vec<_> = accepted
            .chunks(chunk)
            .map(|ids| scope.spawn(move || poll(addr, ids)))
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("poll thread panicked"))
            .collect()
    });
    let run_s = start.elapsed_secs();
    let report = handle.shutdown();
    speed.stop();

    // Failed operations: non-2xx answers, transport errors that
    // survived a reconnect, and admitted tasks left non-terminal.
    let failures: Vec<&String> = offered
        .iter()
        .flat_map(|o| &o.failures)
        .chain(polled.iter().flat_map(|p| &p.failures))
        .collect();
    let open: u64 = polled.iter().map(|p| p.open).sum();
    outcome.attempted = offered.iter().map(|o| o.requests).sum::<u64>()
        + polled.iter().map(|p| p.requests).sum::<u64>();
    outcome.failed = failures.len() as u64 + open;
    for f in failures.iter().take(10) {
        outcome.note(format!("failed: {f}"));
    }

    // Checks against the runtime's report.
    let sum = |f: fn(&Polled) -> u64| polled.iter().map(f).sum::<u64>();
    let (completed, met, expired, shed) = (
        sum(|p| p.completed),
        sum(|p| p.met_deadline),
        sum(|p| p.expired),
        sum(|p| p.shed),
    );
    if accepted.len() as u64 != report.accepted {
        outcome.problem(format!(
            "client saw {} answers 202, the door counted {} accepted",
            accepted.len(),
            report.accepted
        ));
    }
    // With tasks left open (already failed operations) the drain at
    // shutdown finishes them, so the recount only holds without them.
    if open == 0 && (completed, met) != (report.completed, report.met_deadline) {
        outcome.problem(format!(
            "polled (completed, met) = ({completed}, {met}), report says ({}, {})",
            report.completed, report.met_deadline
        ));
    }
    if open == 0 && (expired, shed) != (report.expired, report.shed_server) {
        outcome.problem(format!(
            "polled (expired, shed) = ({expired}, {shed}), report says ({}, {})",
            report.expired, report.shed_server
        ));
    }
    if !report.conserved() || report.stranded != 0 {
        outcome.problem(format!("conservation does not close: {report:?}"));
    }

    let latencies: Vec<f64> = offered
        .iter()
        .flat_map(|o| o.latencies_us.iter().copied())
        .collect();
    let late: Vec<f64> = offered
        .iter()
        .flat_map(|o| o.late_ms.iter().copied())
        .collect();
    let poll_ms: Vec<f64> = polled
        .iter()
        .flat_map(|p| p.latencies_ms.iter().copied())
        .collect();
    let censored = (report.accepted as usize).saturating_sub(report.assign_latencies.len());
    let tick_us: Vec<f64> = ticks
        .ticks
        .lock()
        .map(|t| t.iter().map(|s| s * 1e6).collect())
        .unwrap_or_default();

    outcome.rounds = 1;
    outcome.e2e.setup_s = median(&setups).unwrap_or(0.0);
    outcome.e2e.tasks_per_s = ratio((completed + expired + shed) as f64, run_s);
    outcome.e2e.tick_p50_us = percentile(&tick_us, 0.5).unwrap_or(0.0);
    outcome.e2e.tick_p99_us = percentile(&tick_us, 0.99).unwrap_or(0.0);
    outcome.e2e.deadline_met = met as f64;
    outcome.e2e.assign_p50_s = censored_percentile(&report.assign_latencies, censored, 0.5);
    outcome.e2e.assign_p99_s = censored_percentile(&report.assign_latencies, censored, 0.99);
    outcome.e2e.submit_p50_us = percentile(&latencies, 0.5).unwrap_or(0.0);
    for (name, q) in [("submit_p90_us", 0.9), ("submit_p99_us", 0.99)] {
        let v = percentile(&latencies, q).unwrap_or(0.0);
        outcome.extra.push((name, "us", v));
    }
    outcome.note(format!(
        "offered={} accepted={} completed={completed} met={met} expired={expired} shed={shed} \
         never_assigned={censored} rejected_by_door={} connections={} requests={}",
        requests.len(),
        report.accepted,
        report.rejected,
        report.connections,
        outcome.attempted
    ));

    if traced {
        // The observer's spans carry plain wall time: scale them by the
        // mean factor the client saw.
        let factors: Vec<f64> = offered
            .iter()
            .flat_map(|o| o.factors.iter().copied())
            .collect();
        let k = mean(factors.iter().sum(), factors.len() as u64);
        let span = |k: SpanKind| recorder.span_stats(k);
        let total = |kind: SpanKind| span(kind).map_or(0.0, |s| s.total_seconds * k);
        let count = |k: SpanKind| span(k).map_or(0, |s| s.count);
        let ticks = count(SpanKind::Tick);
        let batches = count(SpanKind::StageBuild);
        let stages: f64 = [
            SpanKind::StageExpire,
            SpanKind::StageRecall,
            SpanKind::StageBuild,
            SpanKind::StageMatch,
            SpanKind::StageCommit,
        ]
        .into_iter()
        .map(total)
        .sum();
        if stages > total(SpanKind::Tick) {
            outcome.problem(format!(
                "stage spans sum to {stages} s, more than the {} s of tick spans",
                total(SpanKind::Tick)
            ));
        }
        let accepted_flips = recorder.counter(CounterKind::FlipsAccepted) as f64;
        let p = &mut outcome.layers;
        p.expire_us = mean(total(SpanKind::StageExpire), ticks) * 1e6;
        p.recall_us = mean(total(SpanKind::StageRecall), ticks) * 1e6;
        p.build_us = mean(total(SpanKind::StageBuild), batches) * 1e6;
        p.match_us = mean(total(SpanKind::StageMatch), batches) * 1e6;
        p.commit_us = mean(total(SpanKind::StageCommit), batches) * 1e6;
        p.self_us = mean(total(SpanKind::Tick) - stages, ticks) * 1e6;
        p.recall_count = report.recalls as f64;
        p.rows_reused_mean = ratio(
            recorder.counter(CounterKind::BuildRowsReused) as f64,
            batches as f64,
        );
        p.cdf_memo_mean = ratio(
            recorder.counter(CounterKind::BuildCdfMemoHits) as f64,
            batches as f64,
        );
        p.refits = recorder.counter(CounterKind::ProfileRefits) as f64;
        p.cycles = recorder.counter(CounterKind::MatcherCycles) as f64;
        p.flip_accept_ratio = ratio(
            accepted_flips,
            accepted_flips + recorder.counter(CounterKind::FlipsRejected) as f64,
        );
        p.conflicts = recorder.counter(CounterKind::ConflictsResolved) as f64;
        p.batches = report.batches as f64;
        p.batch_tasks_mean = recorder
            .histogram(HistogramKind::BatchSize)
            .and_then(|h| h.mean())
            .unwrap_or(0.0);
        p.expired = report.expired as f64;
        p.shed = report.shed_server as f64;
        p.connections = report.connections as f64;
        p.queue_depth_peak = report.peak_queue_depth as f64;
        p.backlog_peak = report.peak_backlog as f64;
        let x = &mut outcome.extra;
        x.push((
            "door.request_us",
            "us",
            span(SpanKind::IngestRequest).map_or(0.0, |s| s.mean_seconds() * k * 1e6),
        ));
        x.push((
            "poll.p50_ms",
            "ms",
            percentile(&poll_ms, 0.5).unwrap_or(0.0),
        ));
        x.push((
            "load.send_late_p99_ms",
            "ms",
            percentile(&late, 0.99).unwrap_or(0.0),
        ));
        x.push((
            "door.client_connections",
            "count",
            (offered.iter().map(|o| o.opened).sum::<u64>()
                + polled.iter().map(|p| p.opened).sum::<u64>()) as f64,
        ));
    }
    outcome
}
