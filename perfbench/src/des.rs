//! The discrete-event workloads `fig5` and `churn-sharded`.
//!
//! The benchmark owns the environment: it draws the crowd with
//! `react-crowd`'s generators, the arrival trace with its
//! `TaskGenerator` and the fault timeline from a `react-faults` plan,
//! all from named streams of the command-line seed. It drives the
//! middleware only through `ServerBuilder`/`ReactServer` or `Cluster`,
//! in virtual time, and times every call into it from outside.
//!
//! One *round* replays the whole trace on a freshly built system until
//! every task is terminal. A run repeats rounds of the same seed until
//! its time is up; every round must end with the same task outcomes.

use crate::calib::HostSpeed;
use crate::ledger::{Ledger, Totals};
use crate::report::{LayerTimes, Outcome};
use crate::stats::{censored_percentile, mean, median, percentile, ratio};
use rand::Rng;
use react_cluster::{Cluster, ClusterPolicy, HandoffPolicy, RebalancePolicy, Submission};
use react_core::{
    CompletionOutcome, Config, CoreError, ReactServer, ServerBuilder, Task, TaskCategory, TaskId,
    TickOutcome, WorkerId,
};
use react_crowd::{generate_population, BehaviorParams, TaskGenerator, WorkerBehavior};
use react_faults::{BurstPlan, DropoutPlan, FaultPlan, FaultSchedule, StragglerPlan};
use react_geo::{BoundingBox, GeoPoint, RegionGrid, ServerId};
use react_obs::{null_observer, CounterKind, ObserverHandle, RecordingObserver, SpanKind};
use react_runtime::Stopwatch;
use react_sim::{splitmix64, RngStreams, SimTime, Simulator};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// Burst task ids start here, far above the trace's sequential ids.
const BURST_ID_BASE: u64 = 1 << 40;

/// Scenarios a run cycles through: sub-seeds of the command-line seed,
/// each with its own crowd, trace and fault timeline. Together they
/// average out how much one draw of the crowd shapes the readings.
const SCENARIOS: usize = 4;

/// Events between two host-speed probes.
const PROBE_EVERY: u64 = 4096;

/// A round that has not drained this long after its last arrival is
/// cut, and its open tasks count as failed.
const DRAIN_LIMIT: f64 = 20_000.0;

/// Sharded deployment of a DES workload.
#[derive(Debug, Clone, Copy)]
pub struct Sharding {
    pub rows: u32,
    pub cols: u32,
    pub policy: ClusterPolicy,
}

/// Both DES workloads share the paper's Sec. V-C crowd and arrival
/// process: 750 uniform-with-delay workers, Poisson arrivals at 9.375
/// tasks/s with 60–120 s deadlines, and the paper's middleware defaults
/// (REACT at 1000 cycles, batches above 10 unassigned tasks, matching
/// time charged), ticked every second.
const N_WORKERS: usize = 750;
const RATE: f64 = 9.375;
const DEADLINE_RANGE: (f64, f64) = (60.0, 120.0);
const TICK_INTERVAL: f64 = 1.0;

/// What sets a DES workload apart, besides its seed.
#[derive(Debug, Clone)]
pub struct DesSpec {
    pub tasks: usize,
    pub sharding: Option<Sharding>,
    pub faults: FaultPlan,
}

impl DesSpec {
    /// Sec. V-C on one server, fault-free.
    pub fn fig5() -> Self {
        DesSpec {
            tasks: 10_000,
            sharding: None,
            faults: FaultPlan::none(),
        }
    }

    /// The same crowd and arrivals on a 3×3 cluster with the coupled
    /// policy, under dropouts with rejoin, stragglers and task bursts.
    /// The handoff floor sits just under the mean shard size, so shards
    /// that lose workers hand their queue to stronger neighbours. No
    /// abandonment or completion loss: with the recovery ladder off
    /// those strand tasks.
    pub fn churn_sharded() -> Self {
        let tasks = 25_000;
        let trace_span = tasks as f64 / RATE;
        DesSpec {
            tasks,
            sharding: Some(Sharding {
                rows: 3,
                cols: 3,
                policy: ClusterPolicy {
                    handoff: Some(HandoffPolicy {
                        pool_floor: 70,
                        max_per_tick: 8,
                    }),
                    rebalance: Some(RebalancePolicy::default()),
                    ..ClusterPolicy::coupled()
                },
            }),
            faults: FaultPlan {
                dropout: Some(DropoutPlan {
                    probability: 0.6,
                    window: (30.0, 0.6 * trace_span),
                    offline_range: Some((60.0, 400.0)),
                }),
                straggler: Some(StragglerPlan {
                    fraction: 0.25,
                    factor_range: (2.0, 4.0),
                }),
                bursts: Some(BurstPlan {
                    count: 6,
                    size: 150,
                    window: (60.0, 0.6 * trace_span),
                }),
                ..FaultPlan::none()
            },
        }
    }
}

/// The round's inputs, all drawn from the seed.
struct Environment {
    behaviors: Vec<WorkerBehavior>,
    locations: Vec<GeoPoint>,
    trace: Vec<(f64, Task)>,
    bursts: Vec<(f64, Vec<Task>)>,
    schedule: FaultSchedule,
}

fn region() -> BoundingBox {
    BoundingBox::new(37.8, 38.2, 23.5, 24.0).expect("static bounds are valid")
}

fn environment(spec: &DesSpec, streams: &RngStreams) -> Environment {
    let region = region();
    let mut pop_rng = streams.stream("population");
    let behaviors = generate_population(N_WORKERS, &BehaviorParams::default(), &mut pop_rng);
    let locations = (0..N_WORKERS)
        .map(|_| region.random_point(&mut pop_rng))
        .collect();
    let mut workload_rng = streams.stream("workload");
    let trace = TaskGenerator::new(RATE, region)
        .with_deadline_range(DEADLINE_RANGE.0, DEADLINE_RANGE.1)
        .take_n(spec.tasks, &mut workload_rng);
    let schedule = if spec.faults.is_noop() {
        FaultSchedule::none()
    } else {
        spec.faults.materialize(streams, N_WORKERS)
    };
    let mut burst_rng = streams.stream("fault.burst-tasks");
    let mut next_burst_id = BURST_ID_BASE;
    let bursts = schedule
        .bursts()
        .iter()
        .map(|&(at, size)| {
            let tasks = (0..size)
                .map(|_| {
                    let id = TaskId(next_burst_id);
                    next_burst_id += 1;
                    let deadline = burst_rng.gen_range(DEADLINE_RANGE.0..DEADLINE_RANGE.1);
                    let reward = burst_rng.gen_range(0.01..0.10);
                    let location = region.random_point(&mut burst_rng);
                    Task::new(id, location, deadline, reward, TaskCategory(0), "burst")
                })
                .collect();
            (at, tasks)
        })
        .collect();
    Environment {
        behaviors,
        locations,
        trace,
        bursts,
        schedule,
    }
}

/// The system under test: one server or a cluster of them.
enum System {
    Single(Box<ReactServer>),
    Sharded {
        cluster: Box<Cluster>,
        ids: Vec<ServerId>,
        index: BTreeMap<ServerId, usize>,
    },
}

/// One control call's effect, with shards as dense indices.
#[derive(Default)]
struct Control {
    ticks: Vec<(usize, TickOutcome)>,
    handoffs: Vec<(TaskId, usize, usize)>,
    relocations: Vec<(WorkerId, usize, usize)>,
}

impl System {
    /// Builds the system and registers the crowd. Returns the system
    /// and each worker's shard.
    fn build(
        spec: &DesSpec,
        seed: u64,
        env: &Environment,
        streams: &RngStreams,
        observer: ObserverHandle,
    ) -> Result<(System, Vec<usize>), CoreError> {
        match spec.sharding {
            None => {
                let mut server = ServerBuilder::new(Config::paper_defaults())
                    .seed(seed ^ 0x5eed)
                    .observer(observer)
                    .build()?;
                for (w, &location) in env.locations.iter().enumerate() {
                    server.register_worker(WorkerId(w as u64), location);
                }
                Ok((
                    System::Single(Box::new(server)),
                    vec![0; env.locations.len()],
                ))
            }
            Some(sharding) => {
                let grid = RegionGrid::new(region(), sharding.rows, sharding.cols)
                    .expect("non-zero grid dimensions");
                let mut cluster = Cluster::new(
                    &grid,
                    Config::paper_defaults(),
                    seed,
                    sharding.policy,
                    observer,
                    streams.stream("cluster.rebalance"),
                    &env.locations,
                )?;
                let ids = cluster.server_ids();
                let index: BTreeMap<ServerId, usize> =
                    ids.iter().enumerate().map(|(i, &id)| (id, i)).collect();
                let mut shard_of = Vec::with_capacity(env.locations.len());
                for (w, &location) in env.locations.iter().enumerate() {
                    let id = cluster.register_worker(WorkerId(w as u64), location);
                    shard_of.push(id.map_or(usize::MAX, |id| index[&id]));
                }
                Ok((
                    System::Sharded {
                        cluster: Box::new(cluster),
                        ids,
                        index,
                    },
                    shard_of,
                ))
            }
        }
    }

    fn servers(&self) -> Vec<&ReactServer> {
        match self {
            System::Single(server) => vec![server.as_ref()],
            System::Sharded { cluster, ids, .. } => ids
                .iter()
                .map(|&id| cluster.server(id).expect("every listed shard exists"))
                .collect(),
        }
    }

    /// Submits a task; `None` when it was refused or unroutable.
    fn submit(&mut self, task: Task, now: f64) -> Option<usize> {
        match self {
            System::Single(server) => {
                server.submit_task(task, now);
                Some(0)
            }
            System::Sharded { cluster, index, .. } => match cluster.submit_task(task, now) {
                Submission::Accepted(id) => Some(index[&id]),
                Submission::Shed(_) | Submission::Unroutable => None,
            },
        }
    }

    /// The control step an arrival triggers on its shard.
    fn control_local(&mut self, shard: usize, now: f64) -> Control {
        match self {
            System::Single(server) => Control {
                ticks: vec![(0, server.tick(now))],
                ..Control::default()
            },
            System::Sharded { cluster, ids, .. } => Control {
                ticks: cluster
                    .tick_shard(ids[shard], now)
                    .map(|(_, outcome)| (shard, outcome))
                    .into_iter()
                    .collect(),
                ..Control::default()
            },
        }
    }

    /// The periodic control step (all shards plus the cluster passes).
    fn control(&mut self, now: f64) -> Control {
        match self {
            System::Single(server) => Control {
                ticks: vec![(0, server.tick(now))],
                ..Control::default()
            },
            System::Sharded { cluster, index, .. } => {
                let out = cluster.tick_serial(now);
                Control {
                    ticks: out
                        .shard_ticks
                        .into_iter()
                        .map(|(id, outcome)| (index[&id], outcome))
                        .collect(),
                    handoffs: out
                        .handoffs
                        .iter()
                        .map(|h| (h.task, index[&h.from], index[&h.to]))
                        .collect(),
                    relocations: out
                        .relocations
                        .iter()
                        .map(|r| (r.worker, index[&r.from], index[&r.to]))
                        .collect(),
                }
            }
        }
    }

    fn complete(
        &mut self,
        shard: usize,
        task: TaskId,
        worker: WorkerId,
        now: f64,
        quality_ok: bool,
    ) -> Result<CompletionOutcome, CoreError> {
        match self {
            System::Single(server) => server.complete_task(task, worker, now, quality_ok),
            System::Sharded { cluster, ids, .. } => {
                cluster.complete_task(ids[shard], task, worker, now, quality_ok)
            }
        }
    }

    fn worker_offline(&mut self, worker: WorkerId, now: f64) -> Vec<TaskId> {
        match self {
            System::Single(server) => server.worker_offline(worker, now),
            System::Sharded { cluster, .. } => cluster.worker_offline(worker, now),
        }
    }

    fn worker_online(&mut self, worker: WorkerId) -> Result<(), CoreError> {
        match self {
            System::Single(server) => server.worker_online(worker),
            System::Sharded { cluster, .. } => {
                cluster.worker_online(worker);
                Ok(())
            }
        }
    }

    /// Handoffs and relocations the cluster reports over the round.
    fn cluster_totals(&self) -> (u64, u64, u64, u64) {
        match self {
            System::Single(_) => (0, 0, 0, 0),
            System::Sharded { cluster, .. } => (
                cluster.handoffs_out().iter().sum(),
                cluster.handoffs_in().iter().sum(),
                cluster.workers_rebalanced(),
                cluster.admission_shed().iter().sum(),
            ),
        }
    }
}

#[derive(Debug)]
enum Event {
    Arrival(usize),
    Burst(usize),
    Tick,
    Finish {
        task: TaskId,
        worker: WorkerId,
        shard: usize,
        epoch: u32,
    },
    Offline(usize),
    Online(usize),
}

/// Per-layer tallies of one round. Cheap arithmetic on what the calls
/// return; the extra outside timings are taken in traced rounds only.
#[derive(Debug, Default, Clone)]
pub struct Layers {
    pub server_ticks: u64,
    pub expire_s: f64,
    pub recall_s: f64,
    pub build_s: f64,
    pub match_s: f64,
    pub commit_s: f64,
    pub calls: u64,
    pub self_s: f64,
    pub batches: u64,
    pub batch_rows: u64,
    pub batch_tasks: u64,
    pub batch_edges: u64,
    pub batch_pruned: u64,
    pub eq2_recalls: u64,
    pub in_flight_sum: u64,
    pub backlog_peak: u64,
    pub expired: u64,
    pub shed: u64,
    pub handoffs: u64,
    pub relocations: u64,
    pub dropouts: u64,
    pub skew_sum: f64,
    pub skew_ticks: u64,
    pub submit: LayerTimes,
    pub complete: LayerTimes,
    pub offline: LayerTimes,
    pub cluster_tick: LayerTimes,
    pub shard_local: LayerTimes,
}

/// What one round measured and found. Times are in nominal-host units
/// (see the `calib` module); the `raw_` fields are plain wall time.
#[derive(Default)]
pub struct Round {
    pub setup_s: f64,
    pub run_s: f64,
    pub tick_p50_us: f64,
    pub tick_p99_us: f64,
    pub submit_p50_us: f64,
    pub submit_p90_us: f64,
    pub raw_setup_s: f64,
    pub raw_run_s: f64,
    pub raw_tick_p50_us: f64,
    pub totals: Totals,
    pub assign: (Vec<f64>, usize),
    pub fingerprint: u64,
    pub problems: Vec<String>,
    pub problem_count: u64,
    pub layers: Layers,
}

impl Round {
    /// Tasks driven to a terminal state per second of the round.
    fn tasks_per_s(&self, run_s: f64) -> f64 {
        let t = &self.totals;
        ratio((t.completed + t.expired + t.shed) as f64, run_s)
    }
}

/// The `q` quantile, 0 for an empty sample.
fn pct(values: &[f64], q: f64) -> f64 {
    percentile(values, q).unwrap_or(0.0)
}

/// Runs one round of `spec` under `seed`, reporting to `observer`.
/// `traced` adds outside timings of the non-tick calls.
pub fn round(spec: &DesSpec, seed: u64, observer: ObserverHandle, traced: bool) -> Round {
    let mut speed = HostSpeed::start();
    let streams = RngStreams::new(seed);
    let env = environment(spec, &streams);
    let (mut system, worker_shard) = match System::build(spec, seed, &env, &streams, observer) {
        Ok(built) => built,
        Err(err) => {
            return Round {
                problems: vec![format!("building the system failed: {err}")],
                problem_count: 1,
                ..Round::default()
            }
        }
    };
    let (setup_s, raw_setup_s) = speed.booked();

    let mut ledger = Ledger::new(&worker_shard);
    let mut layers = Layers::default();
    let mut behavior_rng = streams.stream("behavior");
    let mut sim: Simulator<Event> = Simulator::new();
    for (i, (at, _)) in env.trace.iter().enumerate() {
        sim.schedule_at(SimTime::from_secs(*at), Event::Arrival(i));
    }
    for (i, (at, _)) in env.bursts.iter().enumerate() {
        sim.schedule_at(SimTime::from_secs(*at), Event::Burst(i));
    }
    for d in env.schedule.dropouts() {
        sim.schedule_at(SimTime::from_secs(d.at), Event::Offline(d.worker));
        if let Some(back) = d.rejoin_at {
            sim.schedule_at(SimTime::from_secs(back), Event::Online(d.worker));
        }
    }
    sim.schedule_at(SimTime::from_secs(TICK_INTERVAL), Event::Tick);

    let mut ticks_us = Vec::new();
    let mut raw_ticks_us = Vec::new();
    let mut submits_us = Vec::new();
    let mut index_of: HashMap<TaskId, usize> = HashMap::new();
    let mut epochs: HashMap<TaskId, u32> = HashMap::new();
    let mut arrivals_left = env.trace.len() + env.bursts.len();
    let mut last_arrival = 0.0f64;
    let mut st = RoundState {
        ledger: &mut ledger,
        layers: &mut layers,
        index_of: &mut index_of,
        epochs: &mut epochs,
        ticks_us: &mut ticks_us,
        raw_ticks_us: &mut raw_ticks_us,
        behaviors: &env.behaviors,
        schedule: &env.schedule,
        behavior_rng: &mut behavior_rng,
        sim: &mut sim,
        traced,
        factor: speed.factor(),
    };
    let mut events = 0u64;

    while let Some((at, event)) = st.sim.next_event() {
        let now = at.as_secs();
        events += 1;
        if events.is_multiple_of(PROBE_EVERY) {
            speed.probe();
            st.factor = speed.factor();
        }
        match event {
            Event::Arrival(i) => {
                arrivals_left -= 1;
                last_arrival = now;
                let task = env.trace[i].1.clone();
                if let Some(shard) = st.submit(&mut system, task, now, &mut submits_us) {
                    let control = st.timed_control(&mut system, now, Some(shard));
                    st.apply(control, now);
                }
            }
            Event::Burst(i) => {
                arrivals_left -= 1;
                last_arrival = now;
                for task in env.bursts[i].1.iter().cloned() {
                    st.submit(&mut system, task, now, &mut submits_us);
                }
            }
            Event::Tick => {
                let control = st.timed_control(&mut system, now, None);
                st.apply(control, now);
                let open = system.servers().iter().any(|s| s.tasks().open_count() > 0);
                if (arrivals_left > 0 || open) && now < last_arrival + DRAIN_LIMIT {
                    st.sim
                        .schedule_at(SimTime::from_secs(now + TICK_INTERVAL), Event::Tick);
                }
            }
            Event::Finish {
                task,
                worker,
                shard,
                epoch,
            } => {
                if st.epochs.get(&task) != Some(&epoch) {
                    continue; // recalled since: the worker's result is stale
                }
                let quality_ok =
                    env.behaviors[worker.0 as usize].sample_quality_ok(&mut *st.behavior_rng);
                let timer = traced.then(Stopwatch::start);
                let result = system.complete(shard, task, worker, now, quality_ok);
                if let Some(timer) = timer {
                    st.layers.complete.add(timer.elapsed_secs() * st.factor);
                }
                let idx = st.index_of[&task];
                match result {
                    Ok(out) => st
                        .ledger
                        .completed(idx, worker.0 as usize, now, out.met_deadline),
                    Err(err) => st
                        .ledger
                        .flag(format!("complete_task of task #{idx} failed: {err}")),
                }
            }
            Event::Offline(w) => {
                st.layers.dropouts += 1;
                let timer = traced.then(Stopwatch::start);
                let recalled = system.worker_offline(WorkerId(w as u64), now);
                if let Some(timer) = timer {
                    st.layers.offline.add(timer.elapsed_secs() * st.factor);
                }
                st.ledger.set_online(w, false);
                for task in recalled {
                    *st.epochs.entry(task).or_insert(0) += 1;
                    let idx = st.index_of[&task];
                    st.ledger.recalled(idx, w);
                }
                if let Some(held) = st.ledger.holding(w) {
                    st.ledger.flag(format!(
                        "worker {w} went offline still holding task #{held}"
                    ));
                }
            }
            Event::Online(w) => {
                if let Err(err) = system.worker_online(WorkerId(w as u64)) {
                    st.ledger.flag(format!("worker_online({w}) failed: {err}"));
                }
                st.ledger.set_online(w, true);
            }
        }
    }
    let (end_s, raw_end_s) = speed.booked();

    ledger.close();
    check_system_counts(&system, &mut ledger, &layers);
    let (problems, problem_count) = ledger.problems();
    Round {
        setup_s,
        run_s: end_s - setup_s,
        tick_p50_us: pct(&ticks_us, 0.5),
        tick_p99_us: pct(&ticks_us, 0.99),
        submit_p50_us: pct(&submits_us, 0.5),
        submit_p90_us: pct(&submits_us, 0.9),
        raw_setup_s,
        raw_run_s: raw_end_s - raw_setup_s,
        raw_tick_p50_us: pct(&raw_ticks_us, 0.5),
        totals: ledger.totals(),
        assign: ledger.assign_latencies(),
        fingerprint: ledger.fingerprint(),
        problems: problems.to_vec(),
        problem_count,
        layers,
    }
}

/// The round's mutable state, bundled so the event handlers stay short.
struct RoundState<'a> {
    ledger: &'a mut Ledger,
    layers: &'a mut Layers,
    index_of: &'a mut HashMap<TaskId, usize>,
    epochs: &'a mut HashMap<TaskId, u32>,
    ticks_us: &'a mut Vec<f64>,
    raw_ticks_us: &'a mut Vec<f64>,
    behaviors: &'a [WorkerBehavior],
    schedule: &'a FaultSchedule,
    behavior_rng: &'a mut rand::rngs::SmallRng,
    sim: &'a mut Simulator<Event>,
    traced: bool,
    /// Wall-to-nominal factor at the last host-speed probe.
    factor: f64,
}

impl RoundState<'_> {
    fn submit(
        &mut self,
        system: &mut System,
        task: Task,
        now: f64,
        submits_us: &mut Vec<f64>,
    ) -> Option<usize> {
        let id = task.id;
        let deadline = task.deadline;
        let timer = Stopwatch::start();
        let shard = system.submit(task, now);
        let secs = timer.elapsed_secs() * self.factor;
        submits_us.push(secs * 1e6);
        if self.traced {
            self.layers.submit.add(secs);
        }
        let idx = self.ledger.submit(now, deadline, shard);
        self.index_of.insert(id, idx);
        shard
    }

    /// One control call, timed from outside, with its stage budget
    /// checked: the five stage timings of every server tick inside the
    /// call must fit within the call's own wall time.
    fn timed_control(&mut self, system: &mut System, now: f64, shard: Option<usize>) -> Control {
        let servers = system.servers();
        let in_flight: usize = servers.iter().map(|s| s.tasks().assigned_count()).sum();
        let backlog: usize = servers.iter().map(|s| s.tasks().unassigned_count()).sum();
        if shard.is_none() && servers.len() > 1 {
            let open: Vec<f64> = servers
                .iter()
                .map(|s| s.tasks().open_count() as f64)
                .collect();
            let avg = open.iter().sum::<f64>() / open.len() as f64;
            if avg > 0.0 {
                let max = open.iter().copied().fold(0.0, f64::max);
                self.layers.skew_sum += max / avg;
                self.layers.skew_ticks += 1;
            }
        }
        self.layers.in_flight_sum += in_flight as u64;
        self.layers.backlog_peak = self.layers.backlog_peak.max(backlog as u64);

        let timer = Stopwatch::start();
        let control = match shard {
            Some(shard) => system.control_local(shard, now),
            None => system.control(now),
        };
        let secs = timer.elapsed_secs();
        // The tick percentiles cover `ReactServer::tick` on one server
        // and `Cluster::tick` on a cluster; a cluster's arrival-driven
        // single-shard steps are booked apart.
        match (system, shard) {
            (System::Sharded { .. }, Some(_)) => self.layers.shard_local.add(secs * self.factor),
            (System::Sharded { .. }, None) => {
                self.layers.cluster_tick.add(secs * self.factor);
                self.raw_ticks_us.push(secs * 1e6);
                self.ticks_us.push(secs * self.factor * 1e6);
            }
            (System::Single(_), _) => {
                self.raw_ticks_us.push(secs * 1e6);
                self.ticks_us.push(secs * self.factor * 1e6);
            }
        }

        let stages: f64 = control
            .ticks
            .iter()
            .map(|(_, t)| t.stage_timings.total())
            .sum();
        if stages > secs {
            self.ledger.flag(format!(
                "stage timings sum to {stages} s, more than the {secs} s control call"
            ));
        }
        self.layers.calls += 1;
        self.layers.self_s += (secs - stages) * self.factor;
        control
    }

    /// Applies a control step's outcomes to the ledger and the event
    /// queue.
    fn apply(&mut self, control: Control, now: f64) {
        let mut pairs = Vec::new();
        for (shard, tick) in &control.ticks {
            let (l, k) = (&mut *self.layers, self.factor);
            l.server_ticks += 1;
            l.expire_s += tick.stage_timings.expire * k;
            l.recall_s += tick.stage_timings.recall * k;
            if let Some(batch) = &tick.batch {
                l.batches += 1;
                l.build_s += tick.stage_timings.build * k;
                l.match_s += tick.stage_timings.matching * k;
                l.commit_s += tick.stage_timings.commit * k;
                l.batch_rows += batch.graph_shape.0 as u64;
                l.batch_tasks += batch.graph_shape.1 as u64;
                l.batch_edges += batch.graph_shape.2 as u64;
                l.batch_pruned += batch.pruned_edges as u64;
            }
            l.eq2_recalls += tick.recalls.len() as u64 - tick.timeout_recalls;
            l.expired += tick.expired.len() as u64;
            l.shed += tick.shed.len() as u64;
            for task in &tick.expired {
                self.ledger.retired(self.index_of[task], now, false);
            }
            for task in &tick.shed {
                self.ledger.retired(self.index_of[task], now, true);
            }
            for recall in &tick.recalls {
                *self.epochs.entry(recall.task).or_insert(0) += 1;
                self.ledger
                    .recalled(self.index_of[&recall.task], recall.worker.0 as usize);
            }
            for &(worker, task) in &tick.assignments {
                let idx = self.index_of[&task];
                let w = worker.0 as usize;
                pairs.push((w, idx));
                self.ledger.assigned(idx, w, *shard, tick.effective_at);
                let epoch = {
                    let e = self.epochs.entry(task).or_insert(0);
                    *e += 1;
                    *e
                };
                let exec = self.behaviors[w].sample_exec_time(&mut *self.behavior_rng)
                    * self.schedule.slowdown_factor(w);
                self.sim.schedule_at(
                    SimTime::from_secs(tick.effective_at + exec),
                    Event::Finish {
                        task,
                        worker,
                        shard: *shard,
                        epoch,
                    },
                );
            }
        }
        self.ledger.check_batch(&pairs);
        for &(task, from, to) in &control.handoffs {
            self.layers.handoffs += 1;
            self.ledger.handed_off(self.index_of[&task], from, to);
        }
        for &(worker, from, to) in &control.relocations {
            self.layers.relocations += 1;
            self.ledger.relocated(worker.0 as usize, from, to);
        }
    }
}

/// Compares the ledger's totals with the system's own records.
fn check_system_counts(system: &System, ledger: &mut Ledger, layers: &Layers) {
    let mut completed = 0u64;
    let mut met = 0u64;
    let mut retired = 0u64;
    let mut open = 0u64;
    for server in system.servers() {
        for rec in server.tasks().iter() {
            match rec.state {
                react_core::TaskState::Completed { met_deadline, .. } => {
                    completed += 1;
                    met += u64::from(met_deadline);
                }
                react_core::TaskState::Expired => retired += 1,
                _ => open += 1,
            }
        }
    }
    let t = ledger.totals();
    let own = (t.completed, t.met_deadline, t.expired + t.shed, t.open);
    let theirs = (completed, met, retired, open);
    if own != theirs {
        ledger.flag(format!(
            "ledger (completed, met, retired, open) {own:?} != system {theirs:?}"
        ));
    }
    let (out, into, moved, refused) = system.cluster_totals();
    if out != into || out != layers.handoffs || moved != layers.relocations || refused != t.refused
    {
        ledger.flag(format!(
            "cluster counts handoffs out/in {out}/{into}, relocations {moved}, refusals {refused}; \
             the benchmark saw {}, {}, {}",
            layers.handoffs, layers.relocations, t.refused
        ));
    }
}

/// Runs a DES workload for `seconds` and summarises it.
pub fn run(spec: &DesSpec, seed: u64, seconds: f64, traced: bool) -> Outcome {
    let clock = Stopwatch::start();
    let mut outcome = Outcome::default();
    let seeds: Vec<u64> = (0..SCENARIOS as u64)
        .map(|j| splitmix64(seed ^ j.wrapping_mul(0x9E37_79B9_7F4A_7C15)))
        .collect();
    // A traced run starts with one untraced round: its task outcomes
    // must equal the traced rounds', and its speed gives the tracing
    // overhead.
    let reference = traced.then(|| round(spec, seeds[0], null_observer(), false));
    let recorder = RecordingObserver::new();
    let observer: ObserverHandle = if traced {
        Arc::new(recorder.clone())
    } else {
        null_observer()
    };
    let mut rounds = Vec::new();
    while rounds.len() < SCENARIOS || clock.elapsed_secs() < seconds {
        let scenario = seeds[rounds.len() % SCENARIOS];
        let mut r = round(spec, scenario, observer.clone(), traced);
        if rounds.len() >= SCENARIOS {
            // Only the first pass's latencies are read; keeping the
            // rest would grow the process with the number of rounds.
            r.assign = (Vec::new(), 0);
        }
        rounds.push(r);
    }

    let first = &rounds[0];
    for (i, r) in rounds.iter().enumerate() {
        outcome.attempted += r.totals.submitted;
        outcome.failed += r.totals.refused + r.totals.open;
        for p in &r.problems {
            outcome.problem(format!("round {i}: {p}"));
        }
        if r.problem_count > r.problems.len() as u64 {
            outcome.problem(format!(
                "round {i}: {} more problems",
                r.problem_count - r.problems.len() as u64
            ));
        }
        let earlier = &rounds[i % SCENARIOS];
        if r.fingerprint != earlier.fingerprint {
            outcome.problem(format!(
                "round {i} ended with different task outcomes than round {}",
                i % SCENARIOS
            ));
        }
    }
    if let Some(reference) = &reference {
        if reference.fingerprint != first.fingerprint {
            outcome.problem("traced and untraced rounds ended with different task outcomes".into());
        }
    }

    // Rounds replay identical work, so each round is one sample of the
    // system's speed; medians over rounds shed the host's passing stalls.
    let per_round = |f: &dyn Fn(&Round) -> f64| {
        median(&rounds.iter().map(f).collect::<Vec<_>>()).unwrap_or(0.0)
    };
    // The virtual-time readings cover one pass over the scenarios.
    let pass = &rounds[..SCENARIOS];
    let finite: Vec<f64> = pass
        .iter()
        .flat_map(|r| r.assign.0.iter().copied())
        .collect();
    let censored: usize = pass.iter().map(|r| r.assign.1).sum();
    let totals = |f: fn(&Totals) -> u64| pass.iter().map(|r| f(&r.totals)).sum::<u64>();

    outcome.rounds = rounds.len();
    outcome.e2e.setup_s = per_round(&|r| r.setup_s);
    outcome.e2e.tasks_per_s = per_round(&|r| r.tasks_per_s(r.run_s));
    outcome.e2e.tick_p50_us = per_round(&|r| r.tick_p50_us);
    outcome.e2e.tick_p99_us = per_round(&|r| r.tick_p99_us);
    outcome.e2e.submit_p50_us = per_round(&|r| r.submit_p50_us);
    outcome
        .extra
        .push(("submit_p90_us", "us", per_round(&|r| r.submit_p90_us)));
    outcome.note(format!(
        "wall-time medians before host scaling: setup_s={} tasks_per_s={} tick_p50_us={}",
        per_round(&|r| r.raw_setup_s),
        per_round(&|r| r.tasks_per_s(r.raw_run_s)),
        per_round(&|r| r.raw_tick_p50_us),
    ));
    outcome.e2e.deadline_met = totals(|t| t.met_deadline) as f64;
    outcome.e2e.assign_p50_s = censored_percentile(&finite, censored, 0.5);
    outcome.e2e.assign_p99_s = censored_percentile(&finite, censored, 0.99);
    outcome.note(format!(
        "rounds={} over {SCENARIOS} scenarios: submitted={} completed={} met={} expired={} \
         shed={} never_assigned={censored}",
        rounds.len(),
        totals(|t| t.submitted),
        totals(|t| t.completed),
        totals(|t| t.met_deadline),
        totals(|t| t.expired),
        totals(|t| t.shed),
    ));

    if traced {
        per_layer(&mut outcome, &rounds, &recorder);
        if let Some(reference) = &reference {
            outcome.overhead = Some((
                reference.tasks_per_s(reference.run_s),
                outcome.e2e.tasks_per_s,
                reference.tick_p50_us,
                outcome.e2e.tick_p50_us,
            ));
        }
    }
    outcome
}

/// Fills the per-layer metrics of a traced run: means of the outside
/// timings and stage splits, scaled to the nominal host, per-round
/// means of the counts, and the observer's counters.
fn per_layer(outcome: &mut Outcome, rounds: &[Round], rec: &RecordingObserver) {
    let mut l = Layers::default();
    for r in rounds {
        let x = &r.layers;
        l.server_ticks += x.server_ticks;
        l.expire_s += x.expire_s;
        l.recall_s += x.recall_s;
        l.build_s += x.build_s;
        l.match_s += x.match_s;
        l.commit_s += x.commit_s;
        l.calls += x.calls;
        l.self_s += x.self_s;
        l.batches += x.batches;
        l.batch_rows += x.batch_rows;
        l.batch_tasks += x.batch_tasks;
        l.batch_edges += x.batch_edges;
        l.batch_pruned += x.batch_pruned;
        l.eq2_recalls += x.eq2_recalls;
        l.in_flight_sum += x.in_flight_sum;
        l.backlog_peak = l.backlog_peak.max(x.backlog_peak);
        l.expired += x.expired;
        l.shed += x.shed;
        l.handoffs += x.handoffs;
        l.relocations += x.relocations;
        l.dropouts += x.dropouts;
        l.skew_sum += x.skew_sum;
        l.skew_ticks += x.skew_ticks;
        l.submit.merge(&x.submit);
        l.complete.merge(&x.complete);
        l.offline.merge(&x.offline);
        l.cluster_tick.merge(&x.cluster_tick);
        l.shard_local.merge(&x.shard_local);
    }
    let n = rounds.len() as f64;
    let per_round = |v: u64| v as f64 / n;
    let admission_shed = rounds.iter().map(|r| r.totals.refused).sum::<u64>();
    let decisions = (l.batch_edges + l.batch_pruned) as f64;
    let p = &mut outcome.layers;
    p.expire_us = mean(l.expire_s, l.server_ticks) * 1e6;
    p.recall_us = mean(l.recall_s, l.server_ticks) * 1e6;
    p.build_us = mean(l.build_s, l.batches) * 1e6;
    p.match_us = mean(l.match_s, l.batches) * 1e6;
    p.commit_us = mean(l.commit_s, l.batches) * 1e6;
    p.self_us = mean(l.self_s, l.calls) * 1e6;
    p.recall_count = per_round(l.eq2_recalls);
    p.rows_reused_mean = ratio(
        rec.counter(CounterKind::BuildRowsReused) as f64,
        l.batches as f64,
    );
    p.cdf_memo_mean = ratio(
        rec.counter(CounterKind::BuildCdfMemoHits) as f64,
        l.batches as f64,
    );
    p.refits = per_round(rec.counter(CounterKind::ProfileRefits));
    p.cycles = per_round(rec.counter(CounterKind::MatcherCycles));
    let accepted = rec.counter(CounterKind::FlipsAccepted) as f64;
    p.flip_accept_ratio = ratio(
        accepted,
        accepted + rec.counter(CounterKind::FlipsRejected) as f64,
    );
    p.conflicts = per_round(rec.counter(CounterKind::ConflictsResolved));
    p.batches = per_round(l.batches);
    p.batch_tasks_mean = ratio(l.batch_tasks as f64, l.batches as f64);
    p.expired = per_round(l.expired);
    p.shed = per_round(l.shed);
    p.handoffs = per_round(l.handoffs);
    p.relocations = per_round(l.relocations);
    p.admission_shed = per_round(admission_shed);
    p.open_skew = ratio(l.skew_sum, l.skew_ticks as f64);
    p.dropouts = per_round(l.dropouts);
    p.backlog_peak = l.backlog_peak as f64;

    // Layer-specific readings that only this kind of workload has; they
    // go to the trace file.
    let shard_ticks = rec.span_stats(SpanKind::ShardTick);
    // The observer's spans carry plain wall time: scale them by the
    // rounds' overall nominal-to-wall ratio.
    let k = ratio(
        rounds.iter().map(|r| r.run_s).sum(),
        rounds.iter().map(|r| r.raw_run_s).sum(),
    );
    let x = &mut outcome.extra;
    x.push((
        "recall.in_flight_mean",
        "tasks",
        ratio(l.in_flight_sum as f64, l.calls as f64),
    ));
    x.push((
        "build.rows_reused_ratio",
        "ratio",
        ratio(
            rec.counter(CounterKind::BuildRowsReused) as f64,
            l.batch_rows as f64,
        ),
    ));
    x.push((
        "build.cdf_memo_ratio",
        "ratio",
        ratio(rec.counter(CounterKind::BuildCdfMemoHits) as f64, decisions),
    ));
    x.push((
        "batch.edges_mean",
        "count",
        ratio(l.batch_edges as f64, l.batches as f64),
    ));
    x.push((
        "batch.pruned_ratio",
        "ratio",
        ratio(l.batch_pruned as f64, decisions),
    ));
    x.push(("server.submit_us", "us", l.submit.mean_us()));
    x.push(("server.complete_us", "us", l.complete.mean_us()));
    x.push(("server.worker_offline_us", "us", l.offline.mean_us()));
    if l.shard_local.count > 0 {
        x.push(("cluster.tick_shard_us", "us", l.shard_local.mean_us()));
    }
    if let Some(s) = shard_ticks {
        x.push(("cluster.shard_tick_us", "us", s.mean_seconds() * k * 1e6));
        x.push((
            "cluster.pass_us",
            "us",
            mean(
                l.cluster_tick.sum_s - s.total_seconds * k,
                l.cluster_tick.count,
            ) * 1e6,
        ));
    }
}
