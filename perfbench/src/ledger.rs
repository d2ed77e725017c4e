//! The benchmark's own account of every task and worker in a
//! discrete-event round.
//!
//! The ledger is written from the events the benchmark itself drives
//! and observes at the public API, never from the middleware's internal
//! state, so it can check the middleware against it:
//!
//! * each submitted task ends in exactly one terminal state;
//! * no worker holds two tasks at once, and no batch names a worker or a
//!   task twice;
//! * every assignment pairs a registered online worker of the assigning
//!   shard with an open, unassigned task on that shard;
//! * a `met_deadline` verdict equals "completed at or before submission
//!   plus deadline", with the absolute deadline kept across handoffs;
//! * no task expires before its absolute deadline.
//!
//! Violations are collected as text; the round is incorrect when any
//! was recorded.

use std::collections::BTreeSet;

/// Where a task stands, as far as the benchmark has seen.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TaskState {
    /// Accepted and waiting for a worker.
    Queued,
    /// Held by `worker` since the assignment.
    Assigned { worker: usize },
    /// A completion was delivered and accepted.
    Completed { met_deadline: bool },
    /// Retired unassigned after its deadline.
    Expired,
    /// Retired unassigned by the middleware's shedding.
    Shed,
    /// Refused at admission (a failed operation).
    Refused,
}

impl TaskState {
    fn is_terminal(self) -> bool {
        !matches!(self, TaskState::Queued | TaskState::Assigned { .. })
    }

    fn code(self) -> u64 {
        match self {
            TaskState::Queued => 1,
            TaskState::Assigned { .. } => 2,
            TaskState::Completed { met_deadline: true } => 3,
            TaskState::Completed {
                met_deadline: false,
            } => 4,
            TaskState::Expired => 5,
            TaskState::Shed => 6,
            TaskState::Refused => 7,
        }
    }
}

#[derive(Debug, Clone)]
struct TaskEntry {
    submitted_at: f64,
    deadline_at: f64,
    shard: usize,
    first_assigned_at: Option<f64>,
    finished_at: f64,
    state: TaskState,
}

#[derive(Debug, Clone, Copy)]
struct WorkerEntry {
    shard: usize,
    online: bool,
    holding: Option<usize>,
}

/// Terminal-state totals of a round.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Totals {
    pub submitted: u64,
    pub completed: u64,
    pub met_deadline: u64,
    pub expired: u64,
    pub shed: u64,
    pub refused: u64,
    pub open: u64,
}

/// Ledger of one round. Tasks are indexed by a dense benchmark-side
/// index (trace position, then burst tasks), not by middleware ids.
#[derive(Debug, Clone)]
pub struct Ledger {
    tasks: Vec<TaskEntry>,
    workers: Vec<WorkerEntry>,
    problems: Vec<String>,
    problem_count: u64,
}

/// At most this many violation messages are kept verbatim.
const KEPT_PROBLEMS: usize = 20;

impl Ledger {
    /// A ledger for workers `0..worker_shard.len()`, each registered
    /// online on shard `worker_shard[w]`.
    pub fn new(worker_shard: &[usize]) -> Self {
        Ledger {
            tasks: Vec::new(),
            workers: worker_shard
                .iter()
                .map(|&shard| WorkerEntry {
                    shard,
                    online: true,
                    holding: None,
                })
                .collect(),
            problems: Vec::new(),
            problem_count: 0,
        }
    }

    fn problem(&mut self, text: String) {
        self.problem_count += 1;
        if self.problems.len() < KEPT_PROBLEMS {
            self.problems.push(text);
        }
    }

    /// Recorded violations (the first few verbatim) and their count.
    pub fn problems(&self) -> (&[String], u64) {
        (&self.problems, self.problem_count)
    }

    /// Registers a task at its first submission and returns its index.
    pub fn submit(&mut self, now: f64, deadline: f64, shard: Option<usize>) -> usize {
        let idx = self.tasks.len();
        self.tasks.push(TaskEntry {
            submitted_at: now,
            deadline_at: now + deadline,
            shard: shard.unwrap_or(usize::MAX),
            first_assigned_at: None,
            finished_at: f64::NAN,
            state: if shard.is_some() {
                TaskState::Queued
            } else {
                TaskState::Refused
            },
        });
        idx
    }

    fn entry(&mut self, task: usize, what: &str) -> Option<&mut TaskEntry> {
        if task >= self.tasks.len() {
            self.problem(format!("{what}: unknown task #{task}"));
            return None;
        }
        Some(&mut self.tasks[task])
    }

    /// Checks one batch: no worker and no task named twice.
    pub fn check_batch(&mut self, pairs: &[(usize, usize)]) {
        let mut workers = BTreeSet::new();
        let mut tasks = BTreeSet::new();
        for &(w, t) in pairs {
            if !workers.insert(w) {
                self.problem(format!("batch names worker {w} twice"));
            }
            if !tasks.insert(t) {
                self.problem(format!("batch names task #{t} twice"));
            }
        }
    }

    /// `worker` of `shard` was assigned `task` effective at `at`.
    pub fn assigned(&mut self, task: usize, worker: usize, shard: usize, at: f64) {
        match self.workers.get(worker).copied() {
            None => self.problem(format!("assignment to unregistered worker {worker}")),
            Some(w) => {
                if !w.online {
                    self.problem(format!("task #{task} assigned to offline worker {worker}"));
                }
                if w.shard != shard {
                    self.problem(format!(
                        "shard {shard} assigned worker {worker} registered on shard {}",
                        w.shard
                    ));
                }
                if let Some(held) = w.holding {
                    self.problem(format!(
                        "worker {worker} assigned task #{task} while holding #{held}"
                    ));
                }
            }
        }
        let Some(entry) = self.entry(task, "assigned") else {
            return;
        };
        let (state, on_shard) = (entry.state, entry.shard);
        if state != TaskState::Queued || on_shard != shard {
            self.problem(format!(
                "shard {shard} assigned task #{task} in state {state:?} on shard {on_shard}"
            ));
            return;
        }
        let entry = &mut self.tasks[task];
        entry.state = TaskState::Assigned { worker };
        entry.first_assigned_at.get_or_insert(at);
        if let Some(w) = self.workers.get_mut(worker) {
            w.holding = Some(task);
        }
    }

    /// `task` went back to the queue (Eq. (2) recall or a dropout).
    pub fn recalled(&mut self, task: usize, worker: usize) {
        let Some(entry) = self.entry(task, "recalled") else {
            return;
        };
        if entry.state != (TaskState::Assigned { worker }) {
            let state = entry.state;
            self.problem(format!(
                "recall of task #{task} from worker {worker} in state {state:?}"
            ));
            return;
        }
        entry.state = TaskState::Queued;
        self.release(worker, task);
    }

    fn release(&mut self, worker: usize, task: usize) {
        if let Some(w) = self.workers.get_mut(worker) {
            if w.holding == Some(task) {
                w.holding = None;
            }
        }
    }

    /// A completion of `task` by `worker` at `now` was accepted with the
    /// middleware's verdict `met_deadline`.
    pub fn completed(&mut self, task: usize, worker: usize, now: f64, met_deadline: bool) {
        let Some(entry) = self.entry(task, "completed") else {
            return;
        };
        if entry.state != (TaskState::Assigned { worker }) {
            let state = entry.state;
            self.problem(format!(
                "completion of task #{task} by worker {worker} in state {state:?}"
            ));
            return;
        }
        let own = now <= entry.deadline_at;
        entry.state = TaskState::Completed { met_deadline };
        entry.finished_at = now;
        if own != met_deadline {
            let deadline_at = entry.deadline_at;
            self.problem(format!(
                "task #{task} completed at {now} against deadline {deadline_at}: verdict {met_deadline}, expected {own}"
            ));
        }
        self.release(worker, task);
    }

    /// `task` was retired unassigned at `now`, by expiry or shedding.
    pub fn retired(&mut self, task: usize, now: f64, shed: bool) {
        let Some(entry) = self.entry(task, "retired") else {
            return;
        };
        if entry.state != TaskState::Queued {
            let state = entry.state;
            self.problem(format!("retirement of task #{task} in state {state:?}"));
            return;
        }
        entry.finished_at = now;
        if shed {
            entry.state = TaskState::Shed;
        } else {
            entry.state = TaskState::Expired;
            if now < entry.deadline_at {
                let deadline_at = entry.deadline_at;
                self.problem(format!(
                    "task #{task} expired at {now} before its deadline {deadline_at}"
                ));
            }
        }
    }

    /// A queued `task` moved from shard `from` to shard `to`.
    pub fn handed_off(&mut self, task: usize, from: usize, to: usize) {
        let Some(entry) = self.entry(task, "handoff") else {
            return;
        };
        if entry.state != TaskState::Queued || entry.shard != from {
            let (state, shard) = (entry.state, entry.shard);
            self.problem(format!(
                "handoff of task #{task} from shard {from} in state {state:?} on shard {shard}"
            ));
        }
        self.tasks[task].shard = to;
    }

    /// `worker` went offline or came back.
    pub fn set_online(&mut self, worker: usize, online: bool) {
        if let Some(w) = self.workers.get_mut(worker) {
            w.online = online;
        }
    }

    /// Whether `worker` currently holds a task, by the ledger.
    pub fn holding(&self, worker: usize) -> Option<usize> {
        self.workers.get(worker).and_then(|w| w.holding)
    }

    /// An idle `worker` was relocated from shard `from` to shard `to`.
    pub fn relocated(&mut self, worker: usize, from: usize, to: usize) {
        let Some(w) = self.workers.get(worker).copied() else {
            self.problem(format!("relocation of unregistered worker {worker}"));
            return;
        };
        if w.shard != from || w.holding.is_some() || !w.online {
            self.problem(format!(
                "relocation of worker {worker} from shard {from}: {w:?} is not idle there"
            ));
        }
        self.workers[worker].shard = to;
    }

    /// Terminal-state totals; `open` counts tasks left non-terminal.
    pub fn totals(&self) -> Totals {
        let mut t = Totals {
            submitted: self.tasks.len() as u64,
            ..Totals::default()
        };
        for e in &self.tasks {
            match e.state {
                TaskState::Queued | TaskState::Assigned { .. } => t.open += 1,
                TaskState::Completed { met_deadline } => {
                    t.completed += 1;
                    t.met_deadline += u64::from(met_deadline);
                }
                TaskState::Expired => t.expired += 1,
                TaskState::Shed => t.shed += 1,
                TaskState::Refused => t.refused += 1,
            }
        }
        t
    }

    /// Submission-to-first-assignment times of the admitted tasks that
    /// were assigned, and how many admitted tasks never were.
    pub fn assign_latencies(&self) -> (Vec<f64>, usize) {
        let mut finite = Vec::new();
        let mut censored = 0;
        for e in &self.tasks {
            if e.state == TaskState::Refused {
                continue;
            }
            match e.first_assigned_at {
                Some(at) => finite.push(at - e.submitted_at),
                None => censored += 1,
            }
        }
        (finite, censored)
    }

    /// Records a violation found outside the ledger's own transitions.
    pub fn flag(&mut self, text: String) {
        self.problem(text);
    }

    /// Closes the round: every task must be terminal.
    pub fn close(&mut self) {
        let open: Vec<usize> = (0..self.tasks.len())
            .filter(|&i| !self.tasks[i].state.is_terminal())
            .collect();
        for i in open {
            let state = self.tasks[i].state;
            self.problem(format!("task #{i} left non-terminal in state {state:?}"));
        }
    }

    /// FNV-1a digest of every task's outcome (state, first assignment
    /// and finish instants): equal digests mean identical outcomes.
    pub fn fingerprint(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut feed = |x: u64| {
            for b in x.to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for e in &self.tasks {
            feed(e.state.code());
            feed(e.first_assigned_at.map_or(u64::MAX, f64::to_bits));
            feed(e.finished_at.to_bits());
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ledger() -> Ledger {
        Ledger::new(&[0, 0, 1])
    }

    #[test]
    fn clean_lifecycle_has_no_problems() {
        let mut l = ledger();
        let a = l.submit(0.0, 60.0, Some(0));
        let b = l.submit(1.0, 60.0, Some(0));
        let c = l.submit(2.0, 10.0, Some(1));
        l.check_batch(&[(0, a), (1, b)]);
        l.assigned(a, 0, 0, 3.0);
        l.assigned(b, 1, 0, 3.0);
        l.recalled(b, 1);
        l.assigned(b, 1, 0, 5.0);
        l.completed(a, 0, 60.0, true);
        l.completed(b, 1, 70.0, false);
        l.retired(c, 12.0, false);
        l.close();
        assert_eq!(l.problems().1, 0, "{:?}", l.problems().0);
        let t = l.totals();
        assert_eq!(
            (t.completed, t.met_deadline, t.expired, t.open),
            (2, 1, 1, 0)
        );
        let (finite, censored) = l.assign_latencies();
        assert_eq!(finite, vec![3.0, 2.0]);
        assert_eq!(censored, 1);
    }

    #[test]
    fn double_booking_and_wrong_shard_are_flagged() {
        let mut l = ledger();
        let a = l.submit(0.0, 60.0, Some(0));
        let b = l.submit(0.0, 60.0, Some(0));
        l.assigned(a, 0, 0, 1.0);
        l.assigned(b, 0, 0, 1.0);
        assert_eq!(l.problems().1, 1, "worker 0 holds two tasks");
        let c = l.submit(0.0, 60.0, Some(0));
        l.assigned(c, 2, 0, 1.0);
        assert_eq!(l.problems().1, 2, "worker 2 lives on shard 1");
        l.check_batch(&[(1, a), (1, b)]);
        assert_eq!(l.problems().1, 3);
    }

    #[test]
    fn offline_workers_and_closed_tasks_cannot_be_assigned() {
        let mut l = ledger();
        let a = l.submit(0.0, 60.0, Some(0));
        l.set_online(0, false);
        l.assigned(a, 0, 0, 1.0);
        assert_eq!(l.problems().1, 1);
        let b = l.submit(0.0, 5.0, Some(0));
        l.retired(b, 6.0, false);
        l.assigned(b, 1, 0, 7.0);
        assert_eq!(l.problems().1, 2);
    }

    #[test]
    fn verdicts_and_early_expiry_are_checked_against_absolute_deadlines() {
        let mut l = ledger();
        let a = l.submit(10.0, 60.0, Some(0));
        l.handed_off(a, 0, 1);
        l.assigned(a, 2, 1, 20.0);
        // 70.0 is exactly the absolute deadline: met, inclusive.
        l.completed(a, 2, 70.0, true);
        assert_eq!(l.problems().1, 0, "{:?}", l.problems().0);
        let b = l.submit(10.0, 60.0, Some(0));
        l.assigned(b, 0, 0, 20.0);
        l.completed(b, 0, 70.5, true);
        assert_eq!(l.problems().1, 1, "late completion reported as met");
        let c = l.submit(10.0, 60.0, Some(0));
        l.retired(c, 69.0, false);
        assert_eq!(l.problems().1, 2, "expired before its deadline");
    }

    #[test]
    fn open_tasks_fail_the_close_and_refusals_are_counted() {
        let mut l = ledger();
        let _ = l.submit(0.0, 60.0, Some(0));
        let _ = l.submit(0.0, 60.0, None);
        l.close();
        assert_eq!(l.problems().1, 1);
        let t = l.totals();
        assert_eq!((t.submitted, t.refused, t.open), (2, 1, 1));
    }

    #[test]
    fn fingerprint_tracks_outcomes() {
        let run = |met: bool| {
            let mut l = ledger();
            let a = l.submit(0.0, 60.0, Some(0));
            l.assigned(a, 0, 0, 1.0);
            l.completed(a, 0, if met { 30.0 } else { 90.0 }, met);
            l.fingerprint()
        };
        assert_eq!(run(true), run(true));
        assert_ne!(run(true), run(false));
    }
}
