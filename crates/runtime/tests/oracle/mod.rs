//! The round oracle: the paper's transition system as a dense round loop,
//! written against public APIs only.
//!
//! Every round the environment produces a full [`EnvState`], the partition
//! is recomputed from scratch ([`EnvState::groups`], a BFS over the enabled
//! subgraph) and every group takes one step of `R` in partition order.
//! Nothing is incremental and nothing is elided, so the engine behind
//! `SyncSimulator`/`EventSimulator` — delta-driven connectivity, fixpoint
//! elision, a priority queue — must reproduce this loop's report exactly.

use rand::rngs::StdRng;
use rand::SeedableRng;

use selfsim_core::{SelfSimilarSystem, StepScratch};
use selfsim_env::{EnvState, Environment};
use selfsim_runtime::{EventSimulator, SimulationReport, SyncConfig, SyncSimulator};
use selfsim_temporal::Trace;
use selfsim_trace::{EventLog, RunMetrics, TraceEvent};

/// Runs `system` under `environment` round by round and reports the
/// synchronous columns (bare environment name, no queue counters).
pub fn run_rounds<S, E>(
    config: &SyncConfig,
    system: &SelfSimilarSystem<S>,
    environment: &mut E,
) -> SimulationReport<S>
where
    S: Ord + Clone + std::fmt::Debug,
    E: Environment + ?Sized,
{
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut state = system.initial_state().clone();
    let mut metrics = RunMetrics::new(system.name(), environment.name(), system.agent_count());
    let mut env_trace = Trace::new();
    let mut state_trace = Vec::new();
    let mut global = system.initial_multiset().clone();
    let mut scratch = StepScratch::new();
    metrics
        .objective_trajectory
        .push(system.objective_of(&global));
    if config.record_traces {
        state_trace.push(global.clone());
    }

    let mut converged_at: Option<usize> = None;
    let mut cooldown_left = config.cooldown_rounds;
    let mut events = if config.record_events {
        EventLog::enabled()
    } else {
        EventLog::disabled()
    };

    for round in 1..=config.max_rounds {
        let tick = round as u64;
        let env_state = environment.step(&mut rng);
        events.emit(|| TraceEvent::EnvTransition {
            tick,
            edges: usable_edges(&env_state),
        });
        let groups = env_state.groups();
        if config.record_traces {
            env_trace.push(env_state);
        }

        for group in &groups {
            metrics.group_steps += 1;
            // A k-agent collaborative step costs k messages.
            metrics.messages += group.len();
            let changed = system
                .apply_group_step_with(&mut state, group, &mut rng, &mut scratch, Some(&mut global))
                .multiset_changed;
            if changed {
                metrics.effective_group_steps += 1;
            }
            events.emit(|| TraceEvent::GroupStep {
                tick,
                size: group.len(),
                changed,
            });
        }
        metrics.rounds_executed = round;
        metrics
            .objective_trajectory
            .push(system.objective_of(&global));
        if config.record_traces {
            state_trace.push(global.clone());
        }

        if system.is_converged_multiset(&global) {
            if converged_at.is_none() {
                converged_at = Some(round);
                events.emit(|| TraceEvent::ConvergenceEntered { tick });
            }
            if cooldown_left == 0 {
                break;
            }
            cooldown_left -= 1;
        } else {
            if converged_at.is_some() {
                events.emit(|| TraceEvent::ConvergenceLeft { tick });
            }
            converged_at = None;
            cooldown_left = config.cooldown_rounds;
        }
    }

    metrics.rounds_to_convergence = converged_at;
    SimulationReport {
        metrics,
        final_state: state,
        env_trace,
        state_trace,
        events: events.into_events(),
    }
}

/// Edges of `state` whose endpoints can both communicate right now.
fn usable_edges(state: &EnvState) -> usize {
    state
        .enabled_edges()
        .iter()
        .filter(|edge| state.can_communicate(edge.lo(), edge.hi()))
        .count()
}

/// Asserts that `engine` reports exactly what `oracle` reports: metrics,
/// final state, event stream (in order) and both traces.
pub fn assert_same_report<S: Ord + Clone + std::fmt::Debug>(
    engine: &SimulationReport<S>,
    oracle: &SimulationReport<S>,
    context: &str,
) {
    assert_eq!(engine.metrics, oracle.metrics, "metrics: {context}");
    assert_eq!(
        engine.final_state, oracle.final_state,
        "final state: {context}"
    );
    assert_eq!(engine.events, oracle.events, "events: {context}");
    assert_eq!(
        engine.state_trace, oracle.state_trace,
        "state trace: {context}"
    );
    assert_eq!(engine.env_trace, oracle.env_trace, "env trace: {context}");
}

/// Runs both faces of the engine and the oracle, each on a fresh
/// environment from `make_env`, and asserts exact agreement:
/// `SyncSimulator` reports what the oracle reports, and `EventSimulator`
/// the same once its own columns (the `event/` environment prefix, events
/// processed, peak queue depth) are normalised.  Returns the event run.
pub fn assert_engine_matches<S, E>(
    system: &SelfSimilarSystem<S>,
    mut make_env: impl FnMut() -> Box<E>,
    config: &SyncConfig,
    context: &str,
) -> SimulationReport<S>
where
    S: Ord + Clone + std::fmt::Debug,
    E: Environment + ?Sized,
{
    let expected = run_rounds(config, system, &mut *make_env());
    let sync = SyncSimulator::new(config.clone()).run(system, &mut *make_env());
    assert_same_report(&sync, &expected, &format!("sync, {context}"));
    let event = EventSimulator::new(config.clone()).run(system, &mut *make_env());
    let mut normalized = event.clone();
    assert_eq!(
        normalized.metrics.environment,
        format!("event/{}", expected.metrics.environment),
        "{context}"
    );
    normalized.metrics.environment = expected.metrics.environment.clone();
    normalized.metrics.events_processed = 0;
    normalized.metrics.peak_queue_depth = 0;
    assert_same_report(&normalized, &expected, &format!("event, {context}"));
    event
}
