//! The benchmark's own checks, on tiny inputs: every workload runs clean
//! traced and untraced, the replay gate holds on two seeds, the seed
//! reaches the generated inputs, every metric name is well formed and
//! listed in `BENCHMARK.json`, and the reference clock reads each trial
//! against the units around it.

use selfsim_perfbench::grid::{self, HashSink};
use selfsim_perfbench::reference::{RefClock, NOMINAL_UNIT_S};
use selfsim_perfbench::scale;
use selfsim_perfbench::spans::SpanLog;
use selfsim_perfbench::{run_workload, Options, Report, Workload, END_TO_END, PER_LAYER};

fn tiny(seed: u64, trace: bool) -> Options {
    Options {
        seed,
        seconds: 0.0,
        trace,
        tiny: true,
    }
}

fn assert_clean(workload: Workload, report: &Report) {
    assert!(
        report.attempted > 0,
        "{}: nothing attempted",
        workload.name()
    );
    assert_eq!(
        report.failed,
        0,
        "{}: failed checks: {:?}",
        workload.name(),
        report.failures
    );
}

#[test]
fn every_workload_runs_clean_untraced_and_traced() {
    for workload in Workload::ALL {
        for trace in [false, true] {
            let report = run_workload(workload, &tiny(5, trace), &mut SpanLog::new());
            assert_clean(workload, &report);
            let table = report.table(trace);
            assert_eq!(
                table.len(),
                if trace {
                    PER_LAYER.len()
                } else {
                    END_TO_END.len()
                }
            );
            if !trace {
                for (name, value, _) in &table {
                    assert!(*value > 0.0, "{}: {name} is {value}", workload.name());
                }
            }
            let json = report.json_line(trace);
            assert!(json.starts_with("{\"correct\": true, \"attempted\": "));
        }
    }
}

#[test]
fn traced_scale_runs_replay_the_untraced_run_on_two_seeds() {
    for workload in [Workload::Churn, Workload::Ring] {
        let mut finals = Vec::new();
        for seed in [1, 2] {
            let mut log = SpanLog::new();
            let inputs = scale::setup(workload, seed, true, &mut log);
            let (untraced, _) = scale::run_untraced(&inputs);
            assert!(untraced.converged(), "{} seed {seed}", workload.name());
            let traced = scale::run_traced(&inputs, &mut log);
            let mut report = Report::default();
            scale::check_replay(&mut report, &untraced, &traced);
            assert_eq!(
                report.failures,
                Vec::<String>::new(),
                "{} seed {seed}",
                workload.name()
            );
            assert!(traced.counts.groups_run > 0);
            finals.push(untraced.metrics.objective_trajectory.clone());
        }
        assert_ne!(
            finals[0],
            finals[1],
            "{}: the seed did not reach the inputs",
            workload.name()
        );
    }
}

#[test]
fn the_traced_grid_pass_reproduces_both_streams_and_the_seed_changes_the_bytes() {
    let mut digests = Vec::new();
    for seed in [1, 2] {
        let campaign = grid::build(seed, grid::trials_per_cell(true));
        let (two, _) = grid::stream(&campaign.clone().threads(2)).expect("stream");
        let (one, _) = grid::stream(&campaign.clone().threads(1)).expect("stream");
        let traced = grid::traced_pass(&campaign, &mut SpanLog::new()).expect("traced pass");
        assert_eq!(
            two, one,
            "seed {seed}: 2-thread and 1-thread streams differ"
        );
        assert_eq!(traced.stream, two, "seed {seed}: traced pass differs");
        assert_eq!(two.missed, 0);
        assert_eq!(
            traced.trials.0, traced.trials.1,
            "sync and event cells pair up"
        );
        digests.push(two.digest);
    }
    assert_ne!(
        digests[0], digests[1],
        "the seed did not reach the campaign"
    );
    assert_ne!(digests[0], HashSink::default().digest);
}

#[test]
fn metric_names_are_well_formed_and_unique() {
    let mut names: Vec<&str> = END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .map(|(name, _)| *name)
        .collect();
    for name in &names {
        // `[A-Za-z0-9_.-]+`
        assert!(
            !name.is_empty()
                && name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-')),
            "{name}"
        );
    }
    let count = names.len();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), count, "a metric name is used twice");
}

#[test]
fn benchmark_json_lists_every_metric_the_benchmark_prints() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
        let entry = format!("\"name\": \"{name}\",\n      \"unit\": \"{unit}\"");
        assert!(
            json.contains(&entry),
            "BENCHMARK.json lacks {name} in {unit}"
        );
    }
    assert_eq!(
        json.matches("\"unit\": ").count(),
        END_TO_END.len() + PER_LAYER.len(),
        "BENCHMARK.json lists a metric the benchmark does not print"
    );
}

#[test]
fn the_reference_clock_reads_each_trial_against_the_units_around_it() {
    let mut clock = RefClock::new(1);
    clock.after_trial(0.5);
    clock.after_trial(0.25);
    assert_eq!(clock.unit_s.len(), 3);
    assert_eq!(clock.ratios.len(), 2);
    for (i, wall) in [0.5, 0.25].into_iter().enumerate() {
        let unit = (clock.unit_s[i] + clock.unit_s[i + 1]) / 2.0;
        assert!(unit > 0.0);
        assert_eq!(clock.ratios[i], wall / unit);
    }
    assert_eq!(clock.latest_unit(), clock.unit_s[2]);
    assert_eq!(RefClock::nominal(0.5, 2.0 * NOMINAL_UNIT_S), 0.25);
    assert!(clock.resident_mb() >= 0.0);
}
