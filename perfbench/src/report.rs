//! Metric names, the result line, the host stamp and the trace file.

use crate::stats::mean;
use std::fmt::Write as _;

/// Sum and count of one kind of outside-timed call.
#[derive(Debug, Default, Clone, Copy)]
pub struct LayerTimes {
    pub sum_s: f64,
    pub count: u64,
}

impl LayerTimes {
    pub fn add(&mut self, secs: f64) {
        self.sum_s += secs;
        self.count += 1;
    }

    pub fn merge(&mut self, other: &LayerTimes) {
        self.sum_s += other.sum_s;
        self.count += other.count;
    }

    pub fn mean_us(&self) -> f64 {
        mean(self.sum_s, self.count) * 1e6
    }
}

/// The end-to-end readings of an untraced run.
#[derive(Debug, Default, Clone)]
pub struct EndToEnd {
    pub setup_s: f64,
    pub tasks_per_s: f64,
    pub tick_p50_us: f64,
    pub tick_p99_us: f64,
    pub deadline_met: f64,
    /// `None` when the percentile falls among never-assigned tasks.
    pub assign_p50_s: Option<f64>,
    pub assign_p99_s: Option<f64>,
    pub submit_p50_us: f64,
    pub peak_rss_mb: f64,
}

/// The per-layer readings of a traced run, defined on every workload.
/// Counts are per round; a layer a workload never reaches reads 0.
#[derive(Debug, Default, Clone)]
pub struct PerLayer {
    pub expire_us: f64,
    pub recall_us: f64,
    pub build_us: f64,
    pub match_us: f64,
    pub commit_us: f64,
    pub self_us: f64,
    pub recall_count: f64,
    pub rows_reused_mean: f64,
    pub cdf_memo_mean: f64,
    pub refits: f64,
    pub cycles: f64,
    pub flip_accept_ratio: f64,
    pub conflicts: f64,
    pub batches: f64,
    pub batch_tasks_mean: f64,
    pub expired: f64,
    pub shed: f64,
    pub handoffs: f64,
    pub relocations: f64,
    pub admission_shed: f64,
    pub open_skew: f64,
    pub dropouts: f64,
    pub connections: f64,
    pub queue_depth_peak: f64,
    pub backlog_peak: f64,
}

/// Everything a workload run produced.
#[derive(Debug, Default, Clone)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub rounds: usize,
    pub problems: Vec<String>,
    pub notes: Vec<String>,
    pub e2e: EndToEnd,
    pub layers: PerLayer,
    /// Readings only some workloads have, and tails too host-bound to
    /// gate on (run record only).
    pub extra: Vec<(&'static str, &'static str, f64)>,
    /// Tracing overhead: (untraced, traced) tasks/s, then (untraced,
    /// traced) tick p50 in µs.
    pub overhead: Option<(f64, f64, f64, f64)>,
}

impl Outcome {
    /// Records a failed correctness check.
    pub fn problem(&mut self, text: String) {
        self.problems.push(text);
    }

    /// Records a descriptive line for stderr and the trace file.
    pub fn note(&mut self, text: String) {
        self.notes.push(text);
    }

    /// The end-to-end metrics, in `BENCHMARK.json` order. A censored
    /// percentile is a failed check: the workloads are sized so that
    /// the reported ranks are always assigned tasks.
    pub fn end_to_end(&mut self) -> Vec<(&'static str, &'static str, f64)> {
        let e = self.e2e.clone();
        let mut assign = |name: &'static str, v: Option<f64>| {
            let value = v.unwrap_or_else(|| {
                self.problems
                    .push(format!("{name} falls among never-assigned tasks"));
                f64::NAN
            });
            (name, "crowd_s", value)
        };
        let p50 = assign("assign_p50_s", e.assign_p50_s);
        let p99 = assign("assign_p99_s", e.assign_p99_s);
        vec![
            ("setup_s", "s", e.setup_s),
            ("tasks_per_s", "tasks/s", e.tasks_per_s),
            ("tick_p50_us", "us", e.tick_p50_us),
            ("tick_p99_us", "us", e.tick_p99_us),
            ("deadline_met", "tasks", e.deadline_met),
            p50,
            p99,
            ("submit_p50_us", "us", e.submit_p50_us),
            ("peak_rss_mb", "MiB", e.peak_rss_mb),
        ]
    }

    /// The per-layer metrics, in `BENCHMARK.json` order.
    pub fn per_layer(&self) -> Vec<(&'static str, &'static str, f64)> {
        let p = &self.layers;
        vec![
            ("tick.expire_us", "us", p.expire_us),
            ("tick.recall_us", "us", p.recall_us),
            ("tick.build_us", "us", p.build_us),
            ("tick.match_us", "us", p.match_us),
            ("tick.commit_us", "us", p.commit_us),
            ("tick.self_us", "us", p.self_us),
            ("recall.count", "count", p.recall_count),
            ("build.rows_reused_mean", "count", p.rows_reused_mean),
            ("build.cdf_memo_mean", "count", p.cdf_memo_mean),
            ("profile.refits", "count", p.refits),
            ("matcher.cycles", "count", p.cycles),
            ("matcher.flip_accept_ratio", "ratio", p.flip_accept_ratio),
            ("matcher.conflicts", "count", p.conflicts),
            ("batch.count", "count", p.batches),
            ("batch.tasks_mean", "tasks", p.batch_tasks_mean),
            ("tasks.expired", "count", p.expired),
            ("tasks.shed", "count", p.shed),
            ("cluster.handoffs", "count", p.handoffs),
            ("cluster.relocations", "count", p.relocations),
            ("cluster.admission_shed", "count", p.admission_shed),
            ("cluster.open_skew", "ratio", p.open_skew),
            ("fault.dropouts", "count", p.dropouts),
            ("door.connections", "count", p.connections),
            ("door.queue_depth_peak", "count", p.queue_depth_peak),
            ("queue.backlog_peak", "count", p.backlog_peak),
        ]
    }
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number; non-finite values become `null`.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// The metrics object of the result line.
pub fn metrics_json(metrics: &[(&str, &str, f64)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, v)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(name),
                json_num(*v),
                json_str(unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// The last line of standard output.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, &str, f64)],
) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics_json(metrics)
    )
}

/// Peak resident set size of this process, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The host and provenance stamp, as a JSON object.
pub fn stamp(workload: &str, seed: u64, seconds: u64, traced: bool) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    format!(
        "{{\"workload\": {}, \"seed\": {seed}, \"seconds\": {seconds}, \"trace\": {traced}, \
         \"nproc\": {nproc}, \"cpu\": {}, \"rustc\": {}, \"profile\": {}, \"features\": {}, \
         \"git_rev\": {}}}",
        json_str(workload),
        json_str(&cpu),
        json_str(env!("PERFBENCH_RUSTC")),
        json_str(env!("PERFBENCH_PROFILE")),
        json_str(env!("PERFBENCH_FEATURES")),
        json_str(&git_rev()),
    )
}

/// The commit the checkout is at, read from `.git` in the working
/// directory without running git; "unknown" outside a git checkout.
fn git_rev() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(rev) = read(&format!(".git/{reference}")) {
        return rev.trim().to_string();
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|rev| rev.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Writes the run's full record — stamp, checks, notes, every metric
/// including the layer readings only this workload has, and the
/// tracing overhead — to `perfbench/out/` under the working directory.
pub fn write_trace_file(
    stamp: &str,
    workload: &str,
    seed: u64,
    traced: bool,
    outcome: &Outcome,
    metrics: &[(&str, &str, f64)],
) -> std::io::Result<String> {
    let dir = std::path::Path::new("perfbench/out");
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!(
        "{workload}-seed{seed}-trace{}.json",
        u8::from(traced)
    ));
    let list = |xs: &[String]| {
        xs.iter()
            .map(|x| json_str(x))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let mut body = format!(
        "{{\"stamp\": {stamp}, \"rounds\": {}, \"attempted\": {}, \"failed\": {}, \
         \"problems\": [{}], \"notes\": [{}], \"metrics\": {}, \"layer_extra\": {}",
        outcome.rounds,
        outcome.attempted,
        outcome.failed,
        list(&outcome.problems),
        list(&outcome.notes),
        metrics_json(metrics),
        metrics_json(&outcome.extra),
    );
    if let Some((untraced_tps, traced_tps, untraced_tick, traced_tick)) = outcome.overhead {
        let _ = write!(
            body,
            ", \"tracing_overhead\": {{\"untraced_tasks_per_s\": {}, \"traced_tasks_per_s\": {}, \
             \"untraced_tick_p50_us\": {}, \"traced_tick_p50_us\": {}}}",
            json_num(untraced_tps),
            json_num(traced_tps),
            json_num(untraced_tick),
            json_num(traced_tick)
        );
    }
    body.push_str("}\n");
    std::fs::write(&path, body)?;
    Ok(path.display().to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_four_keys() {
        let line = result_line(
            true,
            10,
            0,
            &[("a_ms", "ms", 1.5), ("b", "count", f64::NAN)],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"a_ms\": {\"value\": 1.5, \"unit\": \"ms\"}, \"b\": {\"value\": null, \"unit\": \"count\"}}}"
        );
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(json_str("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_str("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn censored_assignment_percentile_is_a_problem() {
        let mut o = Outcome::default();
        o.e2e.assign_p50_s = Some(2.0);
        let m = o.end_to_end();
        assert!(o.problems.len() == 1, "{:?}", o.problems);
        assert!(m.iter().any(|(n, _, v)| *n == "assign_p50_s" && *v > 1.0));
        assert!(m.iter().any(|(n, _, v)| *n == "assign_p99_s" && v.is_nan()));
    }
}
