//! The synchronous simulator: the round engine under the synchronous
//! reporting conventions.

use selfsim_core::SelfSimilarSystem;
use selfsim_env::Environment;

use crate::{EventSimulator, SimulationReport};

/// Configuration of a [`SyncSimulator`] run.
#[derive(Clone, Debug)]
pub struct SyncConfig {
    /// Maximum number of rounds before giving up.
    pub max_rounds: usize,
    /// Number of extra rounds to execute *after* convergence is first
    /// detected, to exercise (and let the tests audit) the stability claim
    /// `stable (S = f(S))`.
    pub cooldown_rounds: usize,
    /// RNG seed; every run with the same seed, system and environment is
    /// identical.
    pub seed: u64,
    /// When `true`, the full environment and agent-state traces are kept in
    /// the report (needed by the auditing tests; costs memory on long runs,
    /// and forces symbolic fully-enabled states to be materialised).
    pub record_traces: bool,
    /// When `true`, the run records a structured
    /// [`TraceEvent`](selfsim_trace::TraceEvent) stream (env transitions,
    /// group steps in partition order, convergence changes) in the report.
    /// When `false` (the default) event recording is a single branch per
    /// would-be event and allocates nothing.
    pub record_events: bool,
}

impl Default for SyncConfig {
    fn default() -> Self {
        SyncConfig {
            max_rounds: 10_000,
            cooldown_rounds: 0,
            seed: 0,
            record_traces: false,
            record_events: false,
        }
    }
}

impl SyncConfig {
    /// A config with tracing enabled — what the correctness tests use.
    pub fn traced(seed: u64, max_rounds: usize) -> Self {
        SyncConfig {
            max_rounds,
            cooldown_rounds: 0,
            seed,
            record_traces: true,
            record_events: false,
        }
    }
}

/// The synchronous realisation of the paper's transition system.
///
/// Each round performs one environment transition followed by one agent
/// transition: the environment produces the next [`selfsim_env::EnvState`],
/// the partition of agents into communicating groups is read off the
/// connected components, and every group executes one step of `R`.
/// Disabled agents belong to no group and keep their state, which is the
/// paper's "a disabled process executes no actions and does not change
/// state".
///
/// The rounds run on the event engine ([`EventSimulator`]); this face only
/// reports the synchronous columns: the environment's bare name, and no
/// `events_processed` or `peak_queue_depth`.
pub struct SyncSimulator {
    config: SyncConfig,
}

impl SyncSimulator {
    /// Creates a simulator with the given configuration.
    pub fn new(config: SyncConfig) -> Self {
        SyncSimulator { config }
    }

    /// Creates a simulator with default configuration and the given seed.
    pub fn with_seed(seed: u64) -> Self {
        SyncSimulator {
            config: SyncConfig {
                seed,
                ..SyncConfig::default()
            },
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &SyncConfig {
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
        let mut report = EventSimulator::new(self.config.clone()).run(system, environment);
        report.metrics.environment = environment.name().into();
        report.metrics.events_processed = 0;
        report.metrics.peak_queue_depth = 0;
        report
    }

    /// Runs the same system/environment pair over several seeds, returning
    /// one report per seed.  Environments are re-created per run via the
    /// `make_env` closure so that their internal state does not leak across
    /// runs.
    pub fn run_many<S, E>(
        &self,
        system: &SelfSimilarSystem<S>,
        mut make_env: impl FnMut() -> E,
        seeds: impl IntoIterator<Item = u64>,
    ) -> Vec<SimulationReport<S>>
    where
        S: Ord + Clone + std::fmt::Debug,
        E: Environment,
    {
        seeds
            .into_iter()
            .map(|seed| {
                let sim = SyncSimulator::new(SyncConfig {
                    seed,
                    ..self.config.clone()
                });
                let mut env = make_env();
                sim.run(system, &mut env)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use selfsim_algorithms::minimum;
    use selfsim_env::{AdversarialEnv, RandomChurnEnv, StaticEnv, Topology};

    #[test]
    fn minimum_converges_under_static_environment() {
        let sys = minimum::system(&[9, 4, 7, 1, 5], Topology::line(5));
        let mut env = StaticEnv::new(Topology::line(5));
        let report = SyncSimulator::with_seed(1).run(&sys, &mut env);
        assert!(report.converged());
        assert_eq!(report.final_state, vec![1, 1, 1, 1, 1]);
        // On a line of 5 agents, the minimum needs a handful of rounds to
        // sweep across; it must be at least 1 and at most the diameter.
        let rounds = report.rounds_to_convergence().unwrap();
        assert!((1..=5).contains(&rounds), "rounds = {rounds}");
    }

    #[test]
    fn minimum_converges_under_churn_and_conserves_objective_monotonicity() {
        let topo = Topology::ring(8);
        let sys = minimum::system(&[9, 4, 7, 1, 5, 14, 3, 8], topo.clone());
        let mut env = RandomChurnEnv::new(topo, 0.4, 0.9);
        let config = SyncConfig::traced(7, 5_000);
        let report = SyncSimulator::new(config).run(&sys, &mut env);
        assert!(report.converged());
        assert!(report.metrics.objective_is_monotone(1e-9));
        // Conservation law holds at every recorded point.
        for ms in &report.state_trace {
            assert_eq!(sys.function().apply(ms), sys.target());
        }
    }

    #[test]
    fn minimum_converges_even_under_the_adversary() {
        let topo = Topology::line(4);
        let sys = minimum::system(&[4, 3, 2, 1], topo.clone());
        let mut env = AdversarialEnv::new(topo, 3);
        let report = SyncSimulator::with_seed(3).run(&sys, &mut env);
        assert!(report.converged());
        // The adversary activates one edge every 4 rounds, so convergence is
        // necessarily much slower than under the static environment.
        assert!(report.rounds_to_convergence().unwrap() > 4);
    }

    #[test]
    fn budget_exhaustion_reports_no_convergence() {
        let topo = Topology::line(4);
        let sys = minimum::system(&[4, 3, 2, 1], topo.clone());
        // An environment that never enables anything.
        let mut env = RandomChurnEnv::new(topo, 0.0, 0.0);
        let config = SyncConfig {
            max_rounds: 50,
            ..SyncConfig::default()
        };
        let report = SyncSimulator::new(config).run(&sys, &mut env);
        assert!(!report.converged());
        assert_eq!(report.metrics.rounds_executed, 50);
        assert_eq!(report.final_state, vec![4, 3, 2, 1]);
    }

    #[test]
    fn cooldown_keeps_running_after_convergence_and_state_stays_put() {
        let topo = Topology::complete(3);
        let sys = minimum::system(&[5, 2, 9], topo.clone());
        let mut env = StaticEnv::new(topo);
        let config = SyncConfig {
            cooldown_rounds: 10,
            record_traces: true,
            ..SyncConfig::default()
        };
        let report = SyncSimulator::new(config).run(&sys, &mut env);
        assert!(report.converged());
        assert!(report.metrics.rounds_executed > report.rounds_to_convergence().unwrap());
        // Stability: once the target is reached the trace never leaves it.
        let target = sys.target();
        let first = report
            .state_trace
            .iter()
            .position(|ms| *ms == target)
            .unwrap();
        assert!(report.state_trace[first..].iter().all(|ms| *ms == target));
    }

    #[test]
    fn run_many_produces_one_report_per_seed() {
        let topo = Topology::ring(6);
        let sys = minimum::system(&[6, 5, 4, 3, 2, 1], topo.clone());
        let reports = SyncSimulator::new(SyncConfig::default()).run_many(
            &sys,
            || RandomChurnEnv::new(Topology::ring(6), 0.5, 1.0),
            0..5,
        );
        assert_eq!(reports.len(), 5);
        assert!(reports.iter().all(|r| r.converged()));
    }

    #[test]
    fn same_seed_is_deterministic() {
        let topo = Topology::ring(6);
        let sys = minimum::system(&[6, 5, 4, 3, 2, 1], topo.clone());
        let run = |seed| {
            let mut env = RandomChurnEnv::new(Topology::ring(6), 0.5, 1.0);
            SyncSimulator::with_seed(seed).run(&sys, &mut env)
        };
        let a = run(11);
        let b = run(11);
        assert_eq!(a.rounds_to_convergence(), b.rounds_to_convergence());
        assert_eq!(a.metrics.messages, b.metrics.messages);
        assert_eq!(a.final_state, b.final_state);
        let c = run(12);
        // Different seeds are allowed to differ (and normally do).
        let _ = c;
    }
}
