//! The round engine: a deterministic priority queue of environment and
//! interaction events.
//!
//! [`EventSimulator`] realises the paper's transition system — one
//! environment transition followed by one agent transition per round — and
//! is the only engine that does: [`SyncSimulator`](crate::SyncSimulator)
//! runs it and reports the synchronous columns.  The dense round loop it
//! replaced survives only as the test oracle in `tests/oracle`, which the
//! engine must match exactly (metrics, final state, event order, state and
//! environment traces).
//!
//! * **Events, not rounds.**  The run is a priority queue of events keyed by
//!   `(time, tie)`, where the tie keys are derived from the seed through a
//!   SplitMix64 finalizer.  Within a round the keys order the environment
//!   transition before every group interaction and the group interactions in
//!   partition order, so the RNG stream is consumed in exactly the order a
//!   dense sweep over the partition consumes it.
//! * **Delta-based connectivity over a flat core.**  The environment is
//!   advanced through [`Environment::step_delta`]; incremental
//!   [`selfsim_env::EnvChanges`] are folded into a [`GroupIndex`] — group
//!   maintenance over the topology's CSR adjacency that merges on edge-up
//!   and, on edge-down, repairs a spanning-forest certificate by searching
//!   only the smaller side of a downed tree edge, instead of rescanning the
//!   graph.
//!   [`selfsim_env::EnvDelta::Unchanged`] costs nothing and
//!   [`selfsim_env::EnvDelta::AllEnabled`] avoids even *materialising* the
//!   full [`EnvState`]: a fully-enabled static complete graph on 10⁵ agents
//!   never allocates its ~5·10⁹ edges.
//! * **Sparse interaction scheduling.**  A group observed to map its state
//!   to itself *bit for bit while drawing no randomness* is a fixpoint
//!   group: re-running it is provably the identity on both the state and the
//!   RNG stream, so no further events are scheduled for it until
//!   connectivity changes.  Its per-round accounting (group steps, message
//!   counts, a `changed: false` group-step trace event in its partition
//!   slot) is kept identical to a dense sweep; only the work is elided.
//!   After convergence an idle system costs two events per cooldown round,
//!   independent of `n`.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

use selfsim_core::{SelfSimilarSystem, StepScratch};
use selfsim_env::{AgentId, EnvDelta, EnvState, Environment, GroupIndex};
use selfsim_temporal::Trace;
use selfsim_trace::{EventLog, RunMetrics, TraceEvent};

use crate::{SimulationReport, SyncConfig};

/// Configuration of an [`EventSimulator`] run: the same knobs as a
/// [`SyncSimulator`](crate::SyncSimulator) run, since the event queue is an
/// execution strategy, not a semantic parameter.
pub type EventConfig = SyncConfig;

/// The SplitMix64 finalizer; seeds the queue's tie keys.
fn splitmix64(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The environment transition's tie key: below every group key (which is at
/// least `tie_base + 1 > 0`) so the round always opens with it.
const ENV_TIE: u64 = 0;
/// The round boundary's tie key: above every group key (`tie_base` is
/// masked to 32 bits and partitions are far smaller than 2⁶⁴ − 2³³).
const ROUND_END_TIE: u64 = u64::MAX;

/// What a queue entry schedules.  The derived order is only a formal
/// tiebreaker — the `(time, tie)` keys are distinct by construction.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
enum EventKind {
    /// The environment transition that opens a round.
    Env,
    /// One scheduled interaction of the group at this index of the current
    /// partition.
    Group(usize),
    /// The round boundary: fold the round's accounting, run the
    /// convergence/cooldown bookkeeping, schedule the next round.
    RoundEnd,
}

/// The current connectivity, kept symbolic when the environment allows it.
enum Connectivity {
    /// Nothing enabled yet — the placeholder before the first absolute
    /// delta (the `step_delta` contract makes the first delta absolute, so
    /// this is never read as real connectivity; it just lets a
    /// contract-violating `Unchanged` first delta degrade to an empty
    /// partition instead of a panic).
    Empty,
    /// Every topology edge available and every agent enabled — represented
    /// by the topology's components, without materialising the edge set,
    /// so complete graphs stay cheap.
    Full(Vec<Vec<AgentId>>),
    /// An incrementally maintained group index over the topology's flat CSR
    /// adjacency: edge/agent deltas merge or re-split only the affected
    /// components instead of rescanning the whole graph.  Boxed: the index
    /// is ~2.5 hundred bytes of inline `Vec` headers, the other variants
    /// one `Vec` header at most.
    Tracked(Box<GroupIndex>),
}

impl Connectivity {
    /// The number of groups in the current partition.
    fn group_count(&self) -> usize {
        match self {
            Connectivity::Empty => 0,
            Connectivity::Full(groups) => groups.len(),
            Connectivity::Tracked(index) => index.group_count(),
        }
    }

    /// The members of the group at index `i` of the current partition.
    fn group(&self, i: usize) -> &[AgentId] {
        match self {
            Connectivity::Empty => &[],
            Connectivity::Full(groups) => groups.get(i).map(Vec::as_slice).unwrap_or_default(),
            Connectivity::Tracked(index) => index.group(i),
        }
    }
}

/// An RNG adapter that counts how many core draws pass through it, so a
/// group step can be proven randomness-free before its interaction is
/// elided from the queue.
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

/// Emits the `changed: false` group-step events of the elided groups in
/// `range`, which the queue skipped because they sit at a fixpoint.
fn emit_elided(
    events: &mut EventLog,
    tick: u64,
    connectivity: &Connectivity,
    range: std::ops::Range<usize>,
) {
    for i in range {
        let size = connectivity.group(i).len();
        events.emit(|| TraceEvent::GroupStep {
            tick,
            size,
            changed: false,
        });
    }
}

/// The event-driven realisation of the paper's transition system.
///
/// Each round is drained from a seed-keyed priority queue: the environment
/// transition, one interaction per group not yet at a fixpoint, and the
/// round boundary.  Its reports carry the event columns: the environment is
/// labelled `event/<name>`, and `events_processed` and `peak_queue_depth`
/// are set.
pub struct EventSimulator {
    config: EventConfig,
}

impl EventSimulator {
    /// Creates a simulator with the given configuration.
    pub fn new(config: EventConfig) -> Self {
        EventSimulator { config }
    }

    /// Creates a simulator with default configuration and the given seed.
    pub fn with_seed(seed: u64) -> Self {
        EventSimulator {
            config: EventConfig {
                seed,
                ..EventConfig::default()
            },
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &EventConfig {
        &self.config
    }

    /// Runs `system` under `environment` until it converges (plus the
    /// configured cooldown) or the round budget is exhausted.
    pub fn run<S, E>(
        &self,
        system: &SelfSimilarSystem<S>,
        environment: &mut E,
    ) -> SimulationReport<S>
    where
        S: Ord + Clone + std::fmt::Debug,
        E: Environment + ?Sized,
    {
        let n = system.agent_count();
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let mut state = system.initial_state().clone();
        let mut metrics =
            RunMetrics::new(system.name(), format!("event/{}", environment.name()), n);
        let mut env_trace = Trace::new();
        let mut state_trace = Vec::new();

        // The whole-system multiset is maintained incrementally by the
        // group steps; `h` folds it in ascending value order either way, so
        // the objective trajectory is byte-identical to recomputing the
        // multiset from the positional state every round.  `state` is still
        // `S(0)` here, so start from the instance's cached initial multiset
        // instead of re-collecting n states.
        let mut global = system.initial_multiset().clone();
        let mut scratch = StepScratch::new();
        metrics
            .objective_trajectory
            .push(system.objective_of(&global));
        if self.config.record_traces {
            state_trace.push(global.clone());
        }

        let mut converged_at: Option<usize> = None;
        let mut cooldown_left = self.config.cooldown_rounds;
        let mut events = if self.config.record_events {
            EventLog::enabled()
        } else {
            EventLog::disabled()
        };

        let tie_base = splitmix64(self.config.seed) & 0xFFFF_FFFF;
        let mut heap: BinaryHeap<Reverse<(u64, u64, EventKind)>> = BinaryHeap::new();
        let mut peak_queue_depth = 0usize;
        if self.config.max_rounds > 0 {
            heap.push(Reverse((1, ENV_TIE, EventKind::Env)));
            peak_queue_depth = peak_queue_depth.max(heap.len());
        }

        let mut connectivity = Connectivity::Empty;
        let mut at_fixpoint: Vec<bool> = Vec::new();

        // The objective and the convergence check read the state multiset,
        // so they are recomputed only when some group actually moved.
        let mut state_dirty = true;
        let mut cached_objective = metrics.objective_trajectory[0];
        let mut cached_converged = false;

        let mut round_messages = 0usize;
        let mut changed_groups = 0usize;
        // Group-step trace events go out in partition order: the elided
        // groups below this index have had theirs emitted this round.
        let mut trace_cursor = 0usize;

        while let Some(Reverse((time, _tie, kind))) = heap.pop() {
            metrics.events_processed += 1;
            let round = time as usize;
            match kind {
                EventKind::Env => {
                    round_messages = 0;
                    changed_groups = 0;
                    trace_cursor = 0;
                    let connectivity_changed = match environment.step_delta(&mut rng) {
                        EnvDelta::Unchanged => false,
                        EnvDelta::AllEnabled => {
                            if matches!(connectivity, Connectivity::Full(_)) {
                                false
                            } else {
                                let components = environment.topology().components();
                                connectivity = Connectivity::Full(components);
                                true
                            }
                        }
                        EnvDelta::Full(next) => match &mut connectivity {
                            Connectivity::Tracked(index) => {
                                if index.same_connectivity(&next) {
                                    false
                                } else {
                                    index.reset_from_state(&next);
                                    true
                                }
                            }
                            Connectivity::Full(_) => {
                                // Cheap count rejection first: the closed
                                // form avoids materialising a symbolic
                                // clique unless the counts actually match.
                                let topo = environment.topology();
                                let same = next.enabled_agents().len() == n
                                    && next.enabled_edges().len() == topo.edge_count()
                                    && EnvState::fully_enabled(topo).same_connectivity(&next);
                                if same {
                                    false
                                } else {
                                    let mut index = GroupIndex::new(topo);
                                    index.reset_from_state(&next);
                                    connectivity = Connectivity::Tracked(Box::new(index));
                                    true
                                }
                            }
                            Connectivity::Empty => {
                                if next.enabled_edges().is_empty()
                                    && next.enabled_agents().is_empty()
                                {
                                    false
                                } else {
                                    let mut index = GroupIndex::new(environment.topology());
                                    index.reset_from_state(&next);
                                    connectivity = Connectivity::Tracked(Box::new(index));
                                    true
                                }
                            }
                        },
                        EnvDelta::Changes(changes) => {
                            if !matches!(connectivity, Connectivity::Tracked(_)) {
                                let mut index = GroupIndex::new(environment.topology());
                                if matches!(connectivity, Connectivity::Full(_)) {
                                    index.reset_all_enabled();
                                }
                                connectivity = Connectivity::Tracked(Box::new(index));
                            }
                            if let Connectivity::Tracked(index) = &mut connectivity {
                                index.apply_changes(&changes);
                            }
                            !changes.is_empty()
                        }
                    };
                    if self.config.record_traces {
                        env_trace.push(match &connectivity {
                            Connectivity::Empty => EnvState::fully_disabled(n),
                            Connectivity::Full(_) => {
                                EnvState::fully_enabled(environment.topology())
                            }
                            Connectivity::Tracked(index) => index.to_env_state(),
                        });
                    }
                    events.emit(|| TraceEvent::EnvTransition {
                        tick: time,
                        edges: match &connectivity {
                            Connectivity::Empty => 0,
                            Connectivity::Full(_) => environment.topology().edge_count(),
                            Connectivity::Tracked(index) => index.usable_edge_count(),
                        },
                    });
                    if connectivity_changed {
                        at_fixpoint = vec![false; connectivity.group_count()];
                    }
                    for (i, &done) in at_fixpoint.iter().enumerate() {
                        if done {
                            // Elided interaction, round-based accounting;
                            // its trace event waits for its partition slot.
                            metrics.group_steps += 1;
                            round_messages += connectivity.group(i).len();
                        } else {
                            heap.push(Reverse((
                                time,
                                tie_base + 1 + i as u64,
                                EventKind::Group(i),
                            )));
                        }
                    }
                    heap.push(Reverse((time, ROUND_END_TIE, EventKind::RoundEnd)));
                    peak_queue_depth = peak_queue_depth.max(heap.len());
                }
                EventKind::Group(i) => {
                    if events.is_enabled() {
                        emit_elided(&mut events, time, &connectivity, trace_cursor..i);
                        trace_cursor = i + 1;
                    }
                    let group = connectivity.group(i);
                    metrics.group_steps += 1;
                    round_messages += group.len();
                    let mut counting = CountingRng {
                        inner: &mut rng,
                        draws: 0,
                    };
                    let outcome = system.apply_group_step_with(
                        &mut state,
                        group,
                        &mut counting,
                        &mut scratch,
                        Some(&mut global),
                    );
                    let changed = outcome.multiset_changed;
                    if outcome.positionally_fixed && counting.draws == 0 {
                        at_fixpoint[i] = true;
                    }
                    if !outcome.positionally_fixed {
                        state_dirty = true;
                    }
                    if changed {
                        changed_groups += 1;
                    }
                    let size = group.len();
                    events.emit(|| TraceEvent::GroupStep {
                        tick: time,
                        size,
                        changed,
                    });
                }
                EventKind::RoundEnd => {
                    if events.is_enabled() {
                        let rest = trace_cursor..at_fixpoint.len();
                        emit_elided(&mut events, time, &connectivity, rest);
                    }
                    metrics.effective_group_steps += changed_groups;
                    metrics.messages += round_messages;
                    metrics.rounds_executed = round;
                    if state_dirty {
                        cached_objective = system.objective_of(&global);
                        cached_converged = system.is_converged_multiset(&global);
                        state_dirty = false;
                    }
                    metrics.objective_trajectory.push(cached_objective);
                    if self.config.record_traces {
                        state_trace.push(global.clone());
                    }
                    if cached_converged {
                        if converged_at.is_none() {
                            converged_at = Some(round);
                            events.emit(|| TraceEvent::ConvergenceEntered { tick: time });
                        }
                        if cooldown_left == 0 {
                            break;
                        }
                        cooldown_left -= 1;
                    } else {
                        if converged_at.is_some() {
                            events.emit(|| TraceEvent::ConvergenceLeft { tick: time });
                        }
                        converged_at = None;
                        cooldown_left = self.config.cooldown_rounds;
                    }
                    if round < self.config.max_rounds {
                        heap.push(Reverse((time + 1, ENV_TIE, EventKind::Env)));
                        peak_queue_depth = peak_queue_depth.max(heap.len());
                    }
                }
            }
        }

        metrics.peak_queue_depth = peak_queue_depth;
        metrics.rounds_to_convergence = converged_at;
        SimulationReport {
            metrics,
            final_state: state,
            env_trace,
            state_trace,
            events: events.into_events(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle;
    use selfsim_algorithms::{minimum, sorting};
    use selfsim_env::{
        CrashRestartEnv, MarkovLinkEnv, PeriodicPartitionEnv, RandomChurnEnv, StaticEnv, Topology,
    };

    /// Checks the engine against the round oracle
    /// ([`oracle::assert_engine_matches`]) with traces and the event
    /// stream recorded, and returns the event run.
    fn assert_matches_oracle<S, E>(
        system: &SelfSimilarSystem<S>,
        mut make_env: impl FnMut() -> E,
        seed: u64,
        cooldown: usize,
    ) -> SimulationReport<S>
    where
        S: Ord + Clone + std::fmt::Debug,
        E: Environment,
    {
        let config = EventConfig {
            cooldown_rounds: cooldown,
            seed,
            record_traces: true,
            record_events: true,
            ..EventConfig::default()
        };
        oracle::assert_engine_matches(system, || Box::new(make_env()), &config, "")
    }

    #[test]
    fn matches_sync_on_static_environments() {
        let sys = minimum::system(&[9, 4, 7, 1, 5], Topology::line(5));
        let event = assert_matches_oracle(&sys, || StaticEnv::new(Topology::line(5)), 1, 0);
        assert!(event.converged());
    }

    #[test]
    fn matches_sync_under_incremental_and_fallback_deltas() {
        // Markov links exercise the `Changes` path, the periodic partition
        // the phase-boundary `Full`/`Unchanged` mix, crash/restart and
        // random churn the default full-rescan fallback.
        let topo = || Topology::ring(8);
        let sys = minimum::system(&[9, 4, 7, 1, 5, 14, 3, 8], topo());
        for seed in [3, 7, 11] {
            assert_matches_oracle(&sys, || MarkovLinkEnv::new(topo(), 0.4, 0.4), seed, 0);
            assert_matches_oracle(&sys, || PeriodicPartitionEnv::new(topo(), 2, 4), seed, 0);
            assert_matches_oracle(&sys, || CrashRestartEnv::new(topo(), 0.2, 0.7), seed, 0);
            assert_matches_oracle(&sys, || RandomChurnEnv::new(topo(), 0.5, 0.9), seed, 0);
        }
    }

    #[test]
    fn matches_sync_for_positional_movement_with_unchanged_multisets() {
        // Sorting permutes positions while the multiset (and hence the
        // `changed` flag) stays put: the fixpoint detector must look at
        // positions, not multisets, or it would freeze a still-sorting
        // group.
        let sys = sorting::system(&[5, 3, 1, 4, 2, 6]);
        let event = assert_matches_oracle(&sys, || StaticEnv::new(Topology::line(6)), 2, 0);
        assert!(event.converged(), "sorting converges on the static line");
        assert_matches_oracle(
            &sys,
            || MarkovLinkEnv::new(Topology::line(6), 0.5, 0.3),
            9,
            0,
        );
    }

    #[test]
    fn matches_sync_through_cooldown_rounds() {
        let topo = || Topology::complete(3);
        let sys = minimum::system(&[5, 2, 9], topo());
        let event = assert_matches_oracle(&sys, || StaticEnv::new(topo()), 4, 10);
        assert!(event.converged());
        assert!(
            event.metrics.rounds_executed > event.rounds_to_convergence().expect("run converged")
        );
    }

    #[test]
    fn traced_runs_match_sync_traces() {
        let topo = || Topology::ring(6);
        let sys = minimum::system(&[6, 5, 4, 3, 2, 1], topo());
        // Traces alone, without the event stream: the configuration the
        // auditing tests use.
        let event = oracle::assert_engine_matches(
            &sys,
            || Box::new(RandomChurnEnv::new(topo(), 0.4, 0.9)),
            &EventConfig::traced(7, 5_000),
            "traced",
        );
        assert!(event.converged());
        assert_eq!(event.env_trace.len(), event.metrics.rounds_executed);
    }

    #[test]
    fn runs_are_seed_deterministic_including_the_event_stream() {
        let topo = || Topology::ring(6);
        let sys = minimum::system(&[6, 5, 4, 3, 2, 1], topo());
        let run = || {
            EventSimulator::new(EventConfig {
                seed: 11,
                record_events: true,
                ..EventConfig::default()
            })
            .run(&sys, &mut RandomChurnEnv::new(topo(), 0.5, 1.0))
        };
        let a = run();
        let b = run();
        assert_eq!(a.metrics, b.metrics);
        assert_eq!(a.final_state, b.final_state);
        assert_eq!(a.events, b.events);
        assert!(a.metrics.events_processed > 0);
        assert!(a.metrics.peak_queue_depth > 0);
    }

    #[test]
    fn fixpoint_groups_cost_no_events_during_cooldown() {
        // Complete static graph, one group: round 1 converges, round 2
        // proves the group a randomness-free fixpoint, every later cooldown
        // round is exactly two events (env + round boundary).
        let topo = || Topology::complete(3);
        let sys = minimum::system(&[5, 2, 9], topo());
        let report = EventSimulator::new(EventConfig {
            cooldown_rounds: 10,
            seed: 4,
            ..EventConfig::default()
        })
        .run(&sys, &mut StaticEnv::new(topo()));
        assert_eq!(report.rounds_to_convergence(), Some(1));
        assert_eq!(report.metrics.rounds_executed, 11);
        // Rounds 1–2: env + group + boundary; rounds 3–11: env + boundary.
        assert_eq!(report.metrics.events_processed, 2 * 3 + 9 * 2);
        // Accounting still reports one group step per round, like sync.
        assert_eq!(report.metrics.group_steps, 11);
    }

    #[test]
    fn symbolic_complete_graphs_scale_without_materialising_edges() {
        let n = 100_000;
        let values: Vec<i64> = (0..n as i64).map(|k| (k * 7919) % 1_000_003 + 1).collect();
        let topo = Topology::complete(n);
        let sys = minimum::system(&values, topo.clone());
        let report = EventSimulator::with_seed(1).run(&sys, &mut StaticEnv::new(topo));
        assert_eq!(report.rounds_to_convergence(), Some(1));
        assert_eq!(report.metrics.messages, n);
        let min = values.iter().min().copied().expect("non-empty values");
        assert!(report.final_state.iter().all(|&v| v == min));
    }

    #[test]
    fn zero_round_budget_executes_nothing() {
        let sys = minimum::system(&[2, 1], Topology::line(2));
        let report = EventSimulator::new(EventConfig {
            max_rounds: 0,
            ..EventConfig::default()
        })
        .run(&sys, &mut StaticEnv::new(Topology::line(2)));
        assert_eq!(report.metrics.rounds_executed, 0);
        assert_eq!(report.metrics.events_processed, 0);
        assert!(!report.converged());
    }
}
