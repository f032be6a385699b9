//! The two scale workloads: one large event-driven min-consensus trial at
//! a time, closed loop.
//!
//! * `churn-1e5` — adopt-min on `Topology::random_connected_sparse(10⁵,
//!   16)` under `RandomChurnEnv(0.999, 1.0)`, 128 rounds, 64 cooldown.
//! * `ring-1e6` — partial descent on `Topology::ring(10⁶)` under
//!   `PeriodicPartitionEnv(2, 8)`, 64 rounds, no cooldown.
//!
//! Untraced, a trial is one `EventSimulator::run`.  Traced, [`run_traced`]
//! drives the same trial itself through the layers' public entry points —
//! `Environment::step_delta`, `GroupIndex`,
//! `SelfSimilarSystem::apply_group_step_with`, `objective_of` /
//! `is_converged_multiset` — timing each call as a span, and the run is
//! checked to reproduce the untraced report exactly.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use selfsim_algorithms::minimum;
use selfsim_core::{SelfSimilarSystem, StepScratch};
use selfsim_env::{
    AgentId, EnvDelta, EnvState, Environment, GroupIndex, PeriodicPartitionEnv, RandomChurnEnv,
    Topology,
};
use selfsim_runtime::{EventConfig, EventSimulator, SimulationReport};

use crate::reference::RefClock;
use crate::spans::SpanLog;
use crate::{derive_seed, describe, median, peak_rss_mb, ratio, Options, Report, Workload};

/// Setups per run, spread evenly over the measured loop so that set-up
/// runs under the same machine load as the trials; `setup_s` is their
/// median, each quoted at the nominal speed of the kernel units run just
/// before it.
const SETUPS: usize = 9;
/// Timed trials per phase at the least, however long they take.
const MIN_TRIALS: usize = 3;

/// Reference-kernel units run between two trials: about a tenth of a
/// trial's time.
fn units_per_gap(workload: Workload) -> u32 {
    match workload {
        Workload::Churn => 4,
        _ => 1,
    }
}

/// The inputs of one scale trial, built by [`setup`].
pub struct Inputs {
    /// The algorithm instance (values, initial multiset and target built).
    pub system: SelfSimilarSystem<i64>,
    /// The environment prototype each trial clones (O(1)).
    pub env: ScaleEnv,
    /// The run configuration, seed included.
    pub config: EventConfig,
}

/// The environment prototype of a scale workload.
#[derive(Clone)]
pub enum ScaleEnv {
    /// `churn-1e5`'s environment.
    Churn(RandomChurnEnv),
    /// `ring-1e6`'s environment.
    Ring(PeriodicPartitionEnv),
}

impl ScaleEnv {
    /// A fresh environment for one trial.
    pub fn fresh(&self) -> Box<dyn Environment> {
        match self {
            ScaleEnv::Churn(e) => Box::new(e.clone()),
            ScaleEnv::Ring(e) => Box::new(e.clone()),
        }
    }
}

/// Agent count of a scale workload.
fn agents(workload: Workload, tiny: bool) -> usize {
    match (workload, tiny) {
        (Workload::Churn, false) => 100_000,
        (Workload::Churn, true) => 2_000,
        (_, false) => 1_000_000,
        (_, true) => 4_000,
    }
}

/// Builds the inputs of `workload` for benchmark seed `seed`, recording
/// `setup.graph`, `setup.csr`, `setup.system` and `setup.env` spans under
/// a `setup` root.
pub fn setup(workload: Workload, seed: u64, tiny: bool, log: &mut SpanLog) -> Inputs {
    let n = agents(workload, tiny);
    let root = log.open("setup", None);
    let graph = log.time("setup.graph", root, || match workload {
        Workload::Churn => {
            let mut rng = StdRng::seed_from_u64(derive_seed(seed, 1));
            Topology::random_connected_sparse(n, 16.0, &mut rng)
        }
        _ => Topology::ring(n),
    });
    log.time("setup.csr", root, || graph.csr());
    let system = log.time("setup.system", root, || {
        let mut rng = StdRng::seed_from_u64(derive_seed(seed, 2));
        let values: Vec<i64> = (0..n).map(|_| rng.gen_range(1..=199)).collect();
        let system = match workload {
            Workload::Churn => minimum::system(&values, graph.clone()),
            _ => minimum::system_with_step(&values, graph.clone(), minimum::partial_descent_step()),
        };
        // Both are cached on first use; building them here keeps them out
        // of the first trial.
        let _ = system.target_ref();
        let _ = system.initial_multiset();
        system
    });
    let env = log.time("setup.env", root, || match workload {
        Workload::Churn => ScaleEnv::Churn(RandomChurnEnv::new(graph.clone(), 0.999, 1.0)),
        _ => ScaleEnv::Ring(PeriodicPartitionEnv::new(graph.clone(), 2, 8)),
    });
    log.close(root);
    let (max_rounds, cooldown_rounds) = match workload {
        Workload::Churn => (128, 64),
        _ => (64, 0),
    };
    Inputs {
        system,
        env,
        config: EventConfig {
            max_rounds,
            cooldown_rounds,
            seed: derive_seed(seed, 3),
            ..EventConfig::default()
        },
    }
}

/// One untraced trial: `EventSimulator::run` and its wall time.
pub fn run_untraced(inputs: &Inputs) -> (SimulationReport<i64>, f64) {
    let mut env = inputs.env.fresh();
    let started = Instant::now();
    let report = EventSimulator::new(inputs.config.clone()).run(&inputs.system, env.as_mut());
    (report, started.elapsed().as_secs_f64())
}

/// An RNG adapter that counts the draws passing through it.
struct CountingRng<'a> {
    inner: &'a mut StdRng,
    draws: u64,
}

impl RngCore for CountingRng<'_> {
    fn next_u32(&mut self) -> u32 {
        self.draws += 1;
        self.inner.next_u32()
    }

    fn next_u64(&mut self) -> u64 {
        self.draws += 1;
        self.inner.next_u64()
    }
}

/// The connectivity the traced run tracks, as the event engine does:
/// symbolic when fully enabled, else an incremental [`GroupIndex`].
enum Connectivity {
    Empty,
    Full(Vec<Vec<AgentId>>),
    Tracked(Box<GroupIndex>),
}

impl Connectivity {
    fn group_count(&self) -> usize {
        match self {
            Connectivity::Empty => 0,
            Connectivity::Full(groups) => groups.len(),
            Connectivity::Tracked(index) => index.group_count(),
        }
    }

    fn group(&self, i: usize) -> &[AgentId] {
        match self {
            Connectivity::Empty => &[],
            Connectivity::Full(groups) => groups.get(i).map(Vec::as_slice).unwrap_or_default(),
            Connectivity::Tracked(index) => index.group(i),
        }
    }
}

/// Work counts of one traced trial, named after the metrics they feed.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Counts {
    pub env_rng_draws: u64,
    pub edges_flipped: u64,
    pub deltas_changes: u64,
    pub deltas_full: u64,
    pub deltas_unchanged: u64,
    pub deltas_all_enabled: u64,
    pub group_count_max: u64,
    pub splits: u64,
    pub merges: u64,
    pub groups_run: u64,
    pub groups_elided: u64,
    pub groups_changed: u64,
    pub agents_stepped: u64,
    pub step_rng_draws: u64,
    pub events: u64,
    pub rounds: u64,
    pub peak_queue_depth: u64,
}

/// What one traced trial produced.
pub struct TracedRun {
    /// The final positional state.
    pub final_state: Vec<i64>,
    /// Round at which convergence was last entered, as the engine reports.
    pub rounds_to_convergence: Option<usize>,
    /// `h(S)` before the first round and after every round.
    pub objective_trajectory: Vec<f64>,
    /// The work counts.
    pub counts: Counts,
    /// The trial's root span in the log.
    pub root: usize,
}

/// Drives one trial through the layers' public entry points exactly as
/// `EventSimulator::run` does — same RNG stream, same group order, same
/// fixpoint elision — recording a span per layer call under a `trial`
/// root.  Queue events are counted, not queued: within a round the engine
/// pops the environment event, then each scheduled group, then the round
/// boundary.
pub fn run_traced(inputs: &Inputs, log: &mut SpanLog) -> TracedRun {
    let system = &inputs.system;
    let config = &inputs.config;
    let mut env = inputs.env.fresh();
    let n = system.agent_count();
    let mut c = Counts::default();
    let root = log.open("trial", None);

    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut state = system.initial_state().clone();
    let mut global = system.initial_multiset().clone();
    let mut scratch = StepScratch::new();
    let mut cached_objective = log.time("objective.eval", root, || system.objective_of(&global));
    let mut trajectory = vec![cached_objective];
    let mut cached_converged = false;
    let mut state_dirty = true;
    let mut converged_at: Option<usize> = None;
    let mut cooldown_left = config.cooldown_rounds;

    let mut connectivity = Connectivity::Empty;
    let mut at_fixpoint: Vec<bool> = Vec::new();
    let mut prev_groups = 0usize;
    c.peak_queue_depth = u64::from(config.max_rounds > 0);

    let mut round = 0usize;
    while round < config.max_rounds {
        round += 1;
        c.events += 1;
        // --- environment transition and connectivity maintenance ---
        let delta = {
            let mut counting = CountingRng {
                inner: &mut rng,
                draws: 0,
            };
            let delta = log.time("env.step_delta", root, || env.step_delta(&mut counting));
            c.env_rng_draws += counting.draws;
            delta
        };
        let topo = env.topology();
        let changed = match delta {
            EnvDelta::Unchanged => {
                c.deltas_unchanged += 1;
                false
            }
            EnvDelta::AllEnabled => {
                c.deltas_all_enabled += 1;
                if matches!(connectivity, Connectivity::Full(_)) {
                    false
                } else {
                    let groups = log.time("groups.reset", root, || topo.components());
                    connectivity = Connectivity::Full(groups);
                    true
                }
            }
            EnvDelta::Full(next) => {
                c.deltas_full += 1;
                match &mut connectivity {
                    Connectivity::Tracked(index) => log.time("groups.reset", root, || {
                        if index.same_connectivity(&next) {
                            false
                        } else {
                            index.reset_from_state(&next);
                            true
                        }
                    }),
                    Connectivity::Full(_) => {
                        let rebuilt = log.time("groups.reset", root, || {
                            let same = next.enabled_agents().len() == n
                                && next.enabled_edges().len() == topo.edge_count()
                                && EnvState::fully_enabled(topo).same_connectivity(&next);
                            (!same).then(|| {
                                let mut index = GroupIndex::new(topo);
                                index.reset_from_state(&next);
                                index
                            })
                        });
                        match rebuilt {
                            Some(index) => {
                                connectivity = Connectivity::Tracked(Box::new(index));
                                true
                            }
                            None => false,
                        }
                    }
                    Connectivity::Empty => {
                        if next.enabled_edges().is_empty() && next.enabled_agents().is_empty() {
                            false
                        } else {
                            let index = log.time("groups.reset", root, || {
                                let mut index = GroupIndex::new(topo);
                                index.reset_from_state(&next);
                                index
                            });
                            connectivity = Connectivity::Tracked(Box::new(index));
                            true
                        }
                    }
                }
            }
            EnvDelta::Changes(changes) => {
                c.deltas_changes += 1;
                c.edges_flipped += (changes.edges_up.len() + changes.edges_down.len()) as u64;
                if !matches!(connectivity, Connectivity::Tracked(_)) {
                    let was_full = matches!(connectivity, Connectivity::Full(_));
                    let index = log.time("groups.reset", root, || {
                        let mut index = GroupIndex::new(topo);
                        if was_full {
                            index.reset_all_enabled();
                        }
                        index
                    });
                    connectivity = Connectivity::Tracked(Box::new(index));
                }
                if let Connectivity::Tracked(index) = &mut connectivity {
                    log.time("groups.apply_changes", root, || {
                        index.apply_changes(&changes)
                    });
                }
                !changes.is_empty()
            }
        };
        let group_count = connectivity.group_count();
        if changed {
            at_fixpoint = vec![false; group_count];
        }
        c.group_count_max = c.group_count_max.max(group_count as u64);
        if round > 1 {
            c.splits += u64::from(group_count > prev_groups);
            c.merges += u64::from(group_count < prev_groups);
        }
        prev_groups = group_count;

        // --- one step of R per scheduled group, in partition order ---
        let scheduled = at_fixpoint.iter().filter(|done| !**done).count();
        c.groups_elided += (at_fixpoint.len() - scheduled) as u64;
        c.peak_queue_depth = c.peak_queue_depth.max(scheduled as u64 + 1);
        for (i, done) in at_fixpoint.iter_mut().enumerate() {
            if *done {
                continue;
            }
            c.events += 1;
            let group = connectivity.group(i);
            let mut counting = CountingRng {
                inner: &mut rng,
                draws: 0,
            };
            let outcome = log.time("step.group", root, || {
                system.apply_group_step_with(
                    &mut state,
                    group,
                    &mut counting,
                    &mut scratch,
                    Some(&mut global),
                )
            });
            c.groups_run += 1;
            c.agents_stepped += group.len() as u64;
            c.step_rng_draws += counting.draws;
            if outcome.positionally_fixed && counting.draws == 0 {
                *done = true;
            }
            if !outcome.positionally_fixed {
                state_dirty = true;
            }
            c.groups_changed += u64::from(outcome.multiset_changed);
        }

        // --- round boundary: objective and convergence ---
        c.events += 1;
        c.rounds = round as u64;
        if state_dirty {
            let (objective, converged) = log.time("objective.eval", root, || {
                (
                    system.objective_of(&global),
                    system.is_converged_multiset(&global),
                )
            });
            cached_objective = objective;
            cached_converged = converged;
            state_dirty = false;
        }
        trajectory.push(cached_objective);
        if cached_converged {
            converged_at.get_or_insert(round);
            if cooldown_left == 0 {
                break;
            }
            cooldown_left -= 1;
        } else {
            converged_at = None;
            cooldown_left = config.cooldown_rounds;
        }
    }
    log.close(root);
    TracedRun {
        final_state: state,
        rounds_to_convergence: converged_at,
        objective_trajectory: trajectory,
        counts: c,
        root,
    }
}

/// The replay-equivalence gate: the traced run must reproduce the
/// untraced `EventSimulator::run` exactly.
pub fn check_replay(report: &mut Report, reference: &SimulationReport<i64>, traced: &TracedRun) {
    let m = &reference.metrics;
    let c = &traced.counts;
    report.check(traced.final_state == reference.final_state, || {
        "traced run ended in a different final state".into()
    });
    report.check(c.rounds as usize == m.rounds_executed, || {
        format!(
            "traced rounds {} != untraced {}",
            c.rounds, m.rounds_executed
        )
    });
    report.check(
        c.groups_run as usize + 2 * m.rounds_executed == m.events_processed,
        || {
            format!(
                "traced group steps {} != events {} - 2 x rounds {}",
                c.groups_run, m.events_processed, m.rounds_executed
            )
        },
    );
    report.check(
        c.events as usize == m.events_processed
            && c.peak_queue_depth as usize == m.peak_queue_depth
            && (c.groups_run + c.groups_elided) as usize == m.group_steps
            && c.groups_changed as usize == m.effective_group_steps
            && traced.rounds_to_convergence == m.rounds_to_convergence
            && traced.objective_trajectory == m.objective_trajectory,
        || "traced event, queue, group-step, objective or convergence accounting differs".into(),
    );
}

/// The untraced trial's own checks: converged, every agent at the global
/// minimum, and identical to the first trial of the run.
fn check_trial(
    report: &mut Report,
    inputs: &Inputs,
    trial: &SimulationReport<i64>,
    reference: &SimulationReport<i64>,
) {
    let min = inputs.system.initial_state().iter().min().copied();
    report.check(
        trial.converged() && trial.final_state.iter().all(|v| Some(*v) == min),
        || "trial did not converge to the all-minimum state".into(),
    );
    report.check(
        trial.metrics == reference.metrics && trial.final_state == reference.final_state,
        || "a repeated trial differs from the run's first trial".into(),
    );
}

/// Runs trials with `each` (given the seconds elapsed so far) until
/// `seconds` have passed and at least [`MIN_TRIALS`] ran.
fn closed_loop(seconds: f64, mut each: impl FnMut(f64)) {
    let started = Instant::now();
    let mut done = 0;
    loop {
        let elapsed = started.elapsed().as_secs_f64();
        if done >= MIN_TRIALS && elapsed >= seconds {
            return;
        }
        each(elapsed);
        done += 1;
    }
}

/// Runs a scale workload: [`SETUPS`] setups, one warm-up trial that is
/// the run's reference, then the measured closed loop.
pub fn run(workload: Workload, options: &Options, log: &mut SpanLog) -> Report {
    let mut report = Report::default();
    let mut clock = RefClock::new(units_per_gap(workload));
    // The unit time each setup ran beside, to quote `setup_s` at.
    let mut setup_units = vec![clock.latest_unit()];
    let mut inputs = Some(setup(workload, options.seed, options.tiny, log));
    let (reference, _) = run_untraced(inputs.as_ref().expect("inputs are built"));
    report.attempted += 1;
    check_trial(
        &mut report,
        inputs.as_ref().expect("inputs are built"),
        &reference,
        &reference,
    );

    // Traced, each untraced trial is followed by a traced one, so the
    // overhead estimate compares trials that ran under the same load.
    let layer_names = [
        ("env.step_delta", "env.step_delta_s"),
        ("groups.apply_changes", "groups.apply_changes_s"),
        ("groups.reset", "groups.reset_s"),
        ("step.group", "step.group_step_s"),
        ("objective.eval", "objective.eval_s"),
    ];
    let mut walls = Vec::new();
    let mut layers: [Vec<f64>; 5] = Default::default();
    let mut traced_walls = Vec::new();
    let mut raw_rng = Vec::new();
    let mut counts = None;
    let mut last_root = 0;
    let mut setups = 1;
    closed_loop(options.seconds, |elapsed| {
        if setups < SETUPS && elapsed >= options.seconds * setups as f64 / SETUPS as f64 {
            // Rebuilt from the same seed: the trials must not notice.
            drop(inputs.take());
            setup_units.push(clock.latest_unit());
            inputs = Some(setup(workload, options.seed, options.tiny, log));
            setups += 1;
        }
        let inputs = inputs.as_ref().expect("inputs are built");
        let (trial, wall) = run_untraced(inputs);
        clock.after_trial(wall);
        report.attempted += 1;
        check_trial(&mut report, inputs, &trial, &reference);
        walls.push(wall);
        if !options.trace {
            return;
        }
        let traced = run_traced(inputs, log);
        report.attempted += 1;
        check_replay(&mut report, &reference, &traced);
        traced_walls.push(log.span(traced.root).seconds());
        for (i, (span, _)) in layer_names.iter().enumerate() {
            layers[i].push(log.child_seconds(traced.root, span));
        }
        raw_rng.push(time_raw_draws(traced.counts.env_rng_draws));
        report.check(counts.as_ref().is_none_or(|c| *c == traced.counts), || {
            "a repeated traced trial counted different work".into()
        });
        counts = Some(traced.counts);
        last_root = traced.root;
    });
    let trial_s = median(&walls);
    let setup_roots: Vec<usize> = log.roots("setup").collect();
    let setup_s: Vec<f64> = setup_roots.iter().map(|&r| log.span(r).seconds()).collect();
    report.samples.push(describe("setup", &setup_s));
    report.samples.push(describe("untraced trial", &walls));
    report
        .samples
        .push(describe("reference unit", &clock.unit_s));
    report.set("wall.setup_s", median(&setup_s));
    report.set("wall.trial_s", trial_s);
    report.set("ref.unit_s", median(&clock.unit_s));

    if !options.trace {
        let nominal: Vec<f64> = setup_s
            .iter()
            .zip(&setup_units)
            .map(|(&s, &unit)| RefClock::nominal(s, unit))
            .collect();
        report.set("setup_s", median(&nominal));
        report.set("trial_ref", median(&clock.ratios));
        report.set("peak_rss_mb", peak_rss_mb() - clock.resident_mb());
        return report;
    }

    for (span, metric) in [
        ("setup.graph", "setup.graph_s"),
        ("setup.csr", "setup.csr_s"),
        ("setup.system", "setup.system_s"),
        ("setup.env", "setup.env_s"),
    ] {
        let samples: Vec<f64> = setup_roots
            .iter()
            .map(|&r| log.child_seconds(r, span))
            .collect();
        report.set(metric, median(&samples));
    }
    report.samples.push(describe("traced trial", &traced_walls));
    let c = counts.expect("at least one traced trial ran");
    let layer = |i: usize| median(&layers[i]);
    for (i, (_, metric)) in layer_names.iter().enumerate() {
        report.set(metric, layer(i));
    }
    let rng_raw_s = median(&raw_rng);
    report.set("env.rng_draws", c.env_rng_draws as f64);
    report.set("env.rng_raw_s", rng_raw_s);
    report.set("env.draw_cost_ratio", ratio(layer(0), rng_raw_s));
    report.set("env.edges_flipped", c.edges_flipped as f64);
    report.set("env.deltas.changes", c.deltas_changes as f64);
    report.set("env.deltas.full", c.deltas_full as f64);
    report.set("env.deltas.unchanged", c.deltas_unchanged as f64);
    report.set("env.deltas.all_enabled", c.deltas_all_enabled as f64);
    report.set(
        "groups.apply_changes_calls",
        log.child_count(last_root, "groups.apply_changes") as f64,
    );
    report.set(
        "groups.ns_per_flip",
        ratio(layer(1) * 1e9, c.edges_flipped as f64),
    );
    report.set(
        "groups.reset_calls",
        log.child_count(last_root, "groups.reset") as f64,
    );
    report.set("groups.group_count_max", c.group_count_max as f64);
    report.set("groups.splits", c.splits as f64);
    report.set("groups.merges", c.merges as f64);
    report.set("step.groups_run", c.groups_run as f64);
    report.set("step.groups_elided", c.groups_elided as f64);
    report.set("step.agents_stepped", c.agents_stepped as f64);
    report.set("step.rng_draws", c.step_rng_draws as f64);
    report.set(
        "step.ns_per_agent",
        ratio(layer(3) * 1e9, c.agents_stepped as f64),
    );
    report.set(
        "step.changed_frac",
        ratio(c.groups_changed as f64, c.groups_run as f64),
    );
    report.set(
        "objective.evals",
        log.child_count(last_root, "objective.eval") as f64,
    );
    report.set("engine.events", c.events as f64);
    report.set("engine.rounds", c.rounds as f64);
    report.set("engine.peak_queue_depth", c.peak_queue_depth as f64);
    let layer_sum: f64 = (0..layer_names.len()).map(layer).sum();
    report.set("engine.unattributed_s", trial_s - layer_sum);
    report.set(
        "trace.overhead_frac",
        ratio(median(&traced_walls), trial_s) - 1.0,
    );
    report
}

/// Seconds a bare `StdRng` takes to draw `draws` `u64`s — the floor
/// `env.step_delta` is compared against.
fn time_raw_draws(draws: u64) -> f64 {
    if draws == 0 {
        return 0.0;
    }
    let mut rng = StdRng::seed_from_u64(draws);
    let started = Instant::now();
    let mut acc = 0u64;
    for _ in 0..draws {
        acc ^= rng.next_u64();
    }
    std::hint::black_box(acc);
    started.elapsed().as_secs_f64()
}
