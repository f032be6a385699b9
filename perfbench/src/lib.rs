//! The engine's benchmark: three workloads, end-to-end metrics measured
//! untraced, per-layer metrics from a separate traced run that is checked
//! to replay the untraced run exactly.
//!
//! * [`scale`] — one large event-driven trial at a time (`churn-1e5`,
//!   `ring-1e6`), driven either through `EventSimulator::run` or, traced,
//!   through the layers' public entry points one call at a time.
//! * [`grid`] — the campaign CLI's default grid under `sync` and `event`,
//!   streamed through `Campaign::stream_to` (`campaign-grid`).
//! * [`reference`] — the reference kernel the end-to-end times are read
//!   against.
//! * [`spans`] — the in-memory span log of the traced runs.
//!
//! `README.md` in this directory lists the workloads and every metric.

// A benchmark exists to read the wall clock.
#![allow(clippy::disallowed_methods)]

pub mod grid;
pub mod reference;
pub mod scale;
pub mod spans;

use std::fmt::Write as _;

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Adopt-min on a sparse random graph under edge churn.
    Churn,
    /// Partial-descent min-consensus on a periodically partitioned ring.
    Ring,
    /// The campaign CLI's default grid under `sync` and `event`.
    Grid,
}

impl Workload {
    /// Every workload, in the order `--workload all` runs them.
    pub const ALL: [Workload; 3] = [Workload::Churn, Workload::Ring, Workload::Grid];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Churn => "churn-1e5",
            Workload::Ring => "ring-1e6",
            Workload::Grid => "campaign-grid",
        }
    }

    /// The inverse of [`Workload::name`].
    pub fn parse(name: &str) -> Option<Self> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// How one workload run is configured.
#[derive(Clone, Copy, Debug)]
pub struct Options {
    /// The benchmark seed every input is derived from.
    pub seed: u64,
    /// How long the measured phase of the run lasts.
    pub seconds: f64,
    /// `false`: untraced, end-to-end metrics.  `true`: the traced run and
    /// its per-layer metrics.
    pub trace: bool,
    /// Small inputs (a few thousand agents, one trial per grid cell) for
    /// smoke tests; the metric set is unchanged.
    pub tiny: bool,
}

/// The end-to-end metrics, printed with `--trace 0`.
pub const END_TO_END: [(&str, &str); 3] = [
    ("setup_s", "s"),
    ("trial_ref", "ref"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics, printed with `--trace 1`.  A workload that does
/// not exercise a layer reports 0 for it.
pub const PER_LAYER: [(&str, &str); 50] = [
    ("wall.setup_s", "s"),
    ("wall.trial_s", "s"),
    ("ref.unit_s", "s"),
    ("setup.graph_s", "s"),
    ("setup.csr_s", "s"),
    ("setup.system_s", "s"),
    ("setup.env_s", "s"),
    ("env.step_delta_s", "s"),
    ("env.rng_draws", "count"),
    ("env.rng_raw_s", "s"),
    ("env.draw_cost_ratio", "ratio"),
    ("env.edges_flipped", "count"),
    ("env.deltas.changes", "count"),
    ("env.deltas.full", "count"),
    ("env.deltas.unchanged", "count"),
    ("env.deltas.all_enabled", "count"),
    ("groups.apply_changes_s", "s"),
    ("groups.apply_changes_calls", "count"),
    ("groups.ns_per_flip", "ns"),
    ("groups.reset_s", "s"),
    ("groups.reset_calls", "count"),
    ("groups.group_count_max", "count"),
    ("groups.splits", "count"),
    ("groups.merges", "count"),
    ("step.group_step_s", "s"),
    ("step.groups_run", "count"),
    ("step.groups_elided", "count"),
    ("step.agents_stepped", "count"),
    ("step.rng_draws", "count"),
    ("step.ns_per_agent", "ns"),
    ("step.changed_frac", "ratio"),
    ("objective.eval_s", "s"),
    ("objective.evals", "count"),
    ("engine.events", "count"),
    ("engine.rounds", "count"),
    ("engine.peak_queue_depth", "count"),
    ("engine.unattributed_s", "s"),
    ("trace.overhead_frac", "ratio"),
    ("campaign.trial_run_s.sync", "s"),
    ("campaign.trial_run_s.event", "s"),
    ("campaign.trials.sync", "count"),
    ("campaign.trials.event", "count"),
    ("campaign.rounds_executed", "count"),
    ("campaign.serialize_s", "s"),
    ("campaign.record_bytes", "bytes"),
    ("campaign.sink_write_s", "s"),
    ("campaign.aggregate_s", "s"),
    ("campaign.parallel_efficiency", "ratio"),
    ("pipeline.reorder_wait_s", "s"),
    ("pipeline.sink_stalls", "count"),
];

/// What one workload run measured and checked.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// Trials (or campaign trials) attempted.
    pub attempted: u64,
    /// Correctness checks that failed.
    pub failed: u64,
    /// Metric name → value; names come from [`END_TO_END`] or
    /// [`PER_LAYER`].
    pub values: Vec<(&'static str, f64)>,
    /// One line per failed check, naming what differed.
    pub failures: Vec<String>,
    /// Sample counts and ranges behind the medians, for the log.
    pub samples: Vec<String>,
}

impl Report {
    /// Records a metric value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        match self.values.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.values.push((name, value)),
        }
    }

    /// A recorded value; `None` when the run did not set it.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }

    /// Counts one failed check unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }

    /// `failed / attempted`.
    pub fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The metric table the run emits: every name of the chosen set with
    /// its unit, 0 for a metric the workload does not exercise.
    pub fn table(&self, trace: bool) -> Vec<(&'static str, f64, &'static str)> {
        let names: &[(&'static str, &'static str)] = if trace { &PER_LAYER } else { &END_TO_END };
        names
            .iter()
            .map(|&(name, unit)| (name, finite(self.get(name).unwrap_or(0.0)), unit))
            .collect()
    }

    /// The run's final stdout line: `correct`, `attempted`, `failed` and
    /// every metric of the chosen set as `{"value", "unit"}`.
    pub fn json_line(&self, trace: bool) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0,
            self.attempted,
            self.failed
        );
        for (i, (name, value, unit)) in self.table(trace).into_iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}

/// JSON has no NaN or infinity; a ratio over an empty base reads 0.
fn finite(value: f64) -> f64 {
    if value.is_finite() {
        value
    } else {
        0.0
    }
}

/// The median of `values` (mean of the middle pair for an even count); 0
/// when empty.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// A one-line account of a timing sample: count, min, median and max.
pub fn describe(what: &str, values: &[f64]) -> String {
    let min = values.iter().copied().fold(f64::INFINITY, f64::min);
    let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    format!(
        "{what}: {} samples, min {min:.6} median {:.6} max {max:.6} s",
        values.len(),
        median(values)
    )
}

/// `a / b`, 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// SplitMix64: derives the independent graph, value, run and campaign
/// seeds from the one benchmark seed.
pub fn derive_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Peak resident set size of this process in MB (`VmHWM`), 0 where
/// `/proc` is unavailable.  Monotone over the process lifetime, which is
/// why every workload runs in a child process of its own.
pub fn peak_rss_mb() -> f64 {
    status_mb("VmHWM:")
}

/// Current resident set size of this process in MB (`VmRSS`), 0 where
/// `/proc` is unavailable.
pub fn resident_mb() -> f64 {
    status_mb("VmRSS:")
}

/// A `/proc/self/status` field given in kB, in MB.
fn status_mb(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with(field))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Runs one workload in this process, recording spans into `log`.
pub fn run_workload(workload: Workload, options: &Options, log: &mut spans::SpanLog) -> Report {
    match workload {
        Workload::Churn | Workload::Ring => scale::run(workload, options, log),
        Workload::Grid => grid::run(options, log),
    }
}
