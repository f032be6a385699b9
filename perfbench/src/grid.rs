//! The `campaign-grid` workload: the `campaign` CLI's default grid
//! (minimum, second-smallest, sum, sorting × their valid topologies × six
//! environments at n = 12) under `sync` and `event`, streamed through
//! `Campaign::stream_to` into a byte-counting, hashing sink.
//!
//! Untraced, a pass is one 2-thread `stream_to` of the whole grid.
//! Traced, [`traced_pass`] runs the same trials serially through
//! `run_trial`, `TrialRecord::to_jsonl_line`, the sink and
//! `Aggregator::observe`, one span per call; its bytes must hash to what
//! the 2-thread and a 1-thread stream produced.

use std::io::Write;
use std::sync::Arc;
use std::time::Instant;

use selfsim_campaign::{
    distribute_trials, run_trial, Aggregator, Campaign, CampaignResult, EnvRegistry, ExecutionMode,
    Registry, ScenarioGrid, TopologyRegistry,
};
use selfsim_trace::MetricsRegistry;

use crate::reference::RefClock;
use crate::spans::SpanLog;
use crate::{derive_seed, describe, median, peak_rss_mb, ratio, Options, Report};

/// Passes per timed phase at the least.
const MIN_PASSES: usize = 3;
/// Reference-kernel units run between two passes: about a fifth of a
/// pass's time.
const UNITS_PER_GAP: u32 = 1;
/// Grid constructions per `setup_s` sample.  One takes well under a
/// millisecond, so a sample times this many back to back and divides.
const BUILDS_PER_SAMPLE: u32 = 32;

/// Worker threads of the streamed passes: 2, or fewer on a smaller host.
pub fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
}

/// Trials each grid cell runs per pass.
pub fn trials_per_cell(tiny: bool) -> u64 {
    if tiny {
        1
    } else {
        128
    }
}

/// Builds the campaign the way the `campaign` CLI builds its default grid,
/// with both round engines and `trials_per_cell` trials in every cell.
pub fn build(seed: u64, trials_per_cell: u64) -> Campaign {
    let algorithms = Registry::builtin();
    let envs = EnvRegistry::builtin();
    let topologies = TopologyRegistry::builtin();
    let mut scenarios = ScenarioGrid::new()
        .algorithms(
            ["minimum", "second-smallest", "sum", "sorting"]
                .iter()
                .map(|label| algorithms.resolve(label).expect("builtin algorithm")),
        )
        .topologies(
            ["ring", "complete", "random"]
                .iter()
                .map(|label| topologies.resolve(label).expect("builtin topology")),
        )
        .envs(
            [
                "static",
                "churn",
                "markov",
                "partition",
                "crash",
                "adversary",
            ]
            .iter()
            .map(|label| envs.resolve(label).expect("builtin environment")),
        )
        .modes([ExecutionMode::sync(), ExecutionMode::event()])
        .sizes([12])
        .max_rounds(200_000)
        .trials(1)
        .expand();
    let total = scenarios.len() as u64 * trials_per_cell;
    distribute_trials(&mut scenarios, total);
    Campaign::new(scenarios)
        .seed(derive_seed(seed, 4))
        .threads(threads())
}

/// A sink that counts and hashes (FNV-1a 64) the bytes written to it.
pub struct HashSink {
    /// Bytes written.
    pub bytes: u64,
    /// Running FNV-1a 64 digest of the bytes.
    pub digest: u64,
}

impl Default for HashSink {
    fn default() -> Self {
        HashSink {
            bytes: 0,
            digest: 0xcbf2_9ce4_8422_2325,
        }
    }
}

impl Write for HashSink {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.bytes += buf.len() as u64;
        for &b in buf {
            self.digest = (self.digest ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// What one streamed pass produced.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Stream {
    /// Trials the pass ran.
    pub trials: u64,
    /// Record bytes streamed.
    pub bytes: u64,
    /// Digest of the record bytes.
    pub digest: u64,
    /// Trials whose outcome missed their algorithm's expectation.
    pub missed: u64,
}

/// One `Campaign::stream_to` pass and its wall time.
pub fn stream(campaign: &Campaign) -> std::io::Result<(Stream, f64)> {
    let mut sink = HashSink::default();
    let started = Instant::now();
    let result: CampaignResult = campaign.stream_to(&mut sink)?;
    let wall = started.elapsed().as_secs_f64();
    let missed = result
        .summaries
        .iter()
        .map(|s| s.trials - s.expectation_met)
        .sum();
    Ok((
        Stream {
            trials: result.trials,
            bytes: sink.bytes,
            digest: sink.digest,
            missed,
        },
        wall,
    ))
}

/// What one traced serial pass measured.
pub struct TracedPass {
    /// The stream it reproduced.
    pub stream: Stream,
    /// Trials per round engine: `(sync, event)`.
    pub trials: (u64, u64),
    /// Rounds executed, summed over the records.
    pub rounds_executed: u64,
    /// The pass's root span in the log.
    pub root: usize,
}

/// Runs the campaign's trials serially in job order (scenario-major,
/// trial-minor) through the public per-trial entry points, one span per
/// call: `campaign.trial_run.{sync,event}`, `campaign.serialize`,
/// `campaign.sink_write`, `campaign.aggregate`.
pub fn traced_pass(campaign: &Campaign, log: &mut SpanLog) -> std::io::Result<TracedPass> {
    let mut sink = HashSink::default();
    let mut aggregator = Aggregator::new();
    let mut trials = (0, 0);
    let mut rounds_executed = 0;
    let mut missed = 0;
    let root = log.open("campaign.pass", None);
    for scenario in campaign.scenarios() {
        let event = matches!(scenario.mode, ExecutionMode::Event { .. });
        let run_span = if event {
            "campaign.trial_run.event"
        } else {
            "campaign.trial_run.sync"
        };
        for trial in 0..scenario.trials {
            let seed = campaign.trial_seed(scenario, trial);
            let record = log.time(run_span, root, || run_trial(scenario, trial, seed));
            let bytes = log.time("campaign.serialize", root, || record.to_jsonl_line())?;
            log.time("campaign.sink_write", root, || sink.write_all(&bytes))?;
            log.time("campaign.aggregate", root, || aggregator.observe(&record));
            if event {
                trials.1 += 1;
            } else {
                trials.0 += 1;
            }
            rounds_executed += record.rounds_executed as u64;
            missed += u64::from(!record.meets_expectation);
        }
    }
    log.close(root);
    Ok(TracedPass {
        stream: Stream {
            trials: trials.0 + trials.1,
            bytes: sink.bytes,
            digest: sink.digest,
            missed,
        },
        trials,
        rounds_executed,
        root,
    })
}

/// One streamed pass, counted as attempted and kept for the checks; a
/// stream error is a failed check.
fn timed(
    report: &mut Report,
    passes: &mut Vec<Stream>,
    what: &str,
    campaign: &Campaign,
) -> Option<f64> {
    match stream(campaign) {
        Ok((s, wall)) => {
            report.attempted += s.trials;
            passes.push(s);
            Some(wall)
        }
        Err(e) => {
            report.check(false, || format!("{what}: stream failed: {e}"));
            None
        }
    }
}

/// Checks one pass against the run's reference pass.
fn check_stream(report: &mut Report, what: &str, stream: &Stream, reference: &Stream) {
    report.check(stream.missed == 0, || {
        format!("{what}: {} trials missed their expectation", stream.missed)
    });
    report.check(stream == reference, || {
        format!("{what}: record bytes differ from the reference stream")
    });
}

/// Runs the workload: a timed grid construction, a warm-up pass that is
/// the reference stream, then the measured passes.
pub fn run(options: &Options, log: &mut SpanLog) -> Report {
    let mut report = Report::default();
    let per_cell = trials_per_cell(options.tiny);
    // The grid is rebuilt, and timed, before every pass, so that set-up
    // runs under the same machine load as the passes.  Each sample is the
    // mean of `BUILDS_PER_SAMPLE` back-to-back builds; `setup_s` is the
    // median sample.
    let mut clock = RefClock::new(UNITS_PER_GAP);
    let mut setup_s = Vec::new();
    let mut setup_nominal = Vec::new();
    let mut timed_build = |clock: &RefClock| {
        let started = Instant::now();
        let mut campaign = build(options.seed, per_cell);
        for _ in 1..BUILDS_PER_SAMPLE {
            campaign = build(options.seed, per_cell);
        }
        let seconds = started.elapsed().as_secs_f64() / f64::from(BUILDS_PER_SAMPLE);
        setup_s.push(seconds);
        setup_nominal.push(RefClock::nominal(seconds, clock.latest_unit()));
        campaign
    };
    let mut campaign = timed_build(&clock);
    let expected_trials = campaign.trial_count();

    let mut passes = Vec::new();
    let _ = timed(&mut report, &mut passes, "warm-up pass", &campaign);
    let Some(&reference) = passes.first() else {
        return report;
    };
    report.check(reference.trials == expected_trials, || {
        format!(
            "warm-up pass ran {} of {expected_trials} trials",
            reference.trials
        )
    });

    // Traced, every 2-thread pass is followed by a 1-thread pass (the
    // traced pass's untraced baseline and the replay reference) and a
    // traced serial pass, so all three run under the same load.
    let names = [
        ("campaign.trial_run.sync", "campaign.trial_run_s.sync"),
        ("campaign.trial_run.event", "campaign.trial_run_s.event"),
        ("campaign.serialize", "campaign.serialize_s"),
        ("campaign.sink_write", "campaign.sink_write_s"),
        ("campaign.aggregate", "campaign.aggregate_s"),
    ];
    let mut walls = Vec::new();
    let mut serial_walls = Vec::new();
    let mut layers: [Vec<f64>; 5] = Default::default();
    let mut traced_walls = Vec::new();
    let mut last = None;
    let started = Instant::now();
    while walls.len() < MIN_PASSES || started.elapsed().as_secs_f64() < options.seconds {
        campaign = timed_build(&clock);
        let Some(wall) = timed(&mut report, &mut passes, "2-thread pass", &campaign) else {
            break;
        };
        clock.after_trial(wall);
        walls.push(wall);
        if !options.trace {
            continue;
        }
        let serial = campaign.clone().threads(1);
        let Some(wall) = timed(&mut report, &mut passes, "1-thread pass", &serial) else {
            break;
        };
        serial_walls.push(wall);
        // A pass is ~50k spans; the log keeps the last one only.
        log.clear();
        let traced = match traced_pass(&campaign, log) {
            Ok(traced) => traced,
            Err(e) => {
                report.check(false, || format!("traced pass failed: {e}"));
                break;
            }
        };
        report.attempted += traced.stream.trials;
        check_stream(
            &mut report,
            "traced serial pass",
            &traced.stream,
            &reference,
        );
        traced_walls.push(log.span(traced.root).seconds());
        for (i, (span, _)) in names.iter().enumerate() {
            layers[i].push(log.child_seconds(traced.root, span));
        }
        last = Some(traced);
    }
    let wall = median(&walls);
    report.samples.push(describe("setup", &setup_s));
    report.samples.push(describe("2-thread pass", &walls));
    report
        .samples
        .push(describe("reference unit", &clock.unit_s));
    report.set("wall.setup_s", median(&setup_s));
    report.set("wall.trial_s", wall / expected_trials as f64);
    report.set("ref.unit_s", median(&clock.unit_s));

    if !options.trace {
        for s in &passes {
            check_stream(&mut report, "streamed pass", s, &reference);
        }
        report.set("setup_s", median(&setup_nominal));
        report.set("trial_ref", median(&clock.ratios) / expected_trials as f64);
        report.set("peak_rss_mb", peak_rss_mb() - clock.resident_mb());
        return report;
    }

    // `Campaign::observe` supplies the pipeline's own reorder-wait and
    // sink-stall counts.
    let registry = Arc::new(MetricsRegistry::new());
    let _ = timed(
        &mut report,
        &mut passes,
        "observed pass",
        &campaign.clone().observe(Arc::clone(&registry)),
    );
    for s in &passes {
        check_stream(&mut report, "streamed pass", s, &reference);
    }
    report
        .samples
        .push(describe("1-thread pass", &serial_walls));
    report
        .samples
        .push(describe("traced serial pass", &traced_walls));
    let Some(traced) = last else {
        return report;
    };
    let layer_sum: f64 = layers.iter().map(|l| median(l)).sum();
    for (i, (_, metric)) in names.iter().enumerate() {
        report.set(metric, median(&layers[i]));
    }
    report.set("campaign.trials.sync", traced.trials.0 as f64);
    report.set("campaign.trials.event", traced.trials.1 as f64);
    report.set("campaign.rounds_executed", traced.rounds_executed as f64);
    report.set("campaign.record_bytes", traced.stream.bytes as f64);
    report.set(
        "campaign.parallel_efficiency",
        ratio(layer_sum, wall * threads() as f64),
    );
    report.set(
        "pipeline.reorder_wait_s",
        registry.timer("pipeline/reorder-wait").total_nanos() as f64 * 1e-9,
    );
    report.set(
        "pipeline.sink_stalls",
        registry.counter("pipeline/sink-stalls").get() as f64,
    );
    report.set(
        "trace.overhead_frac",
        ratio(median(&traced_walls), median(&serial_walls)) - 1.0,
    );
    report
}
