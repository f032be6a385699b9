//! The engine against the dense round loop, case by generated case.
//!
//! Every builtin environment (and a composition), four topology shapes at
//! two sizes, a value-adopting and a position-permuting algorithm, several
//! seeds, with and without a cooldown: on each case `SyncSimulator` and
//! `EventSimulator` must report exactly what the oracle reports — metrics,
//! final state, event stream in order, state and environment traces.

mod oracle;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use selfsim_algorithms::{minimum, sorting};
use selfsim_core::SelfSimilarSystem;
use selfsim_env::{
    AdversarialEnv, ComposedEnv, CrashRestartEnv, Environment, MarkovLinkEnv, PeriodicPartitionEnv,
    RandomChurnEnv, StaticEnv, Topology,
};
use selfsim_runtime::SyncConfig;

type MakeEnv = fn(Topology) -> Box<dyn Environment>;

/// Every builtin environment, named for failure messages.
fn environments() -> Vec<(&'static str, MakeEnv)> {
    vec![
        ("static", |t| Box::new(StaticEnv::new(t))),
        ("churn", |t| Box::new(RandomChurnEnv::new(t, 0.5, 0.9))),
        ("markov", |t| Box::new(MarkovLinkEnv::new(t, 0.3, 0.3))),
        ("markov-all-down", |t| {
            Box::new(MarkovLinkEnv::new_all_down(t, 0.4, 0.2))
        }),
        ("partition", |t| {
            Box::new(PeriodicPartitionEnv::new(t, 3, 4))
        }),
        ("crash", |t| Box::new(CrashRestartEnv::new(t, 0.1, 0.5))),
        ("adversary", |t| Box::new(AdversarialEnv::new(t, 1))),
        ("churn+crash", |t| {
            Box::new(ComposedEnv::new(
                RandomChurnEnv::new(t.clone(), 0.6, 1.0),
                CrashRestartEnv::new(t, 0.05, 0.5),
            ))
        }),
    ]
}

/// Pairwise-distinct values `1..=n` in a seed-determined order.
fn distinct_values(n: usize, seed: u64) -> Vec<i64> {
    let mut values: Vec<i64> = (1..=n as i64).collect();
    values.shuffle(&mut StdRng::seed_from_u64(seed));
    values
}

/// Checks the engine against the oracle on every environment, seed and
/// cooldown for one system over `topology`, and audits closure: once a
/// run has converged, every later recorded state is the target.
fn sweep<S: Ord + Clone + std::fmt::Debug>(
    system: &SelfSimilarSystem<S>,
    topology: &Topology,
    label: &str,
) -> usize {
    let mut converged = 0;
    for (env_name, make_env) in environments() {
        for seed in [1, 2, 3] {
            for cooldown in [0, 3] {
                let config = SyncConfig {
                    max_rounds: 300,
                    cooldown_rounds: cooldown,
                    seed,
                    record_traces: true,
                    record_events: true,
                };
                let context = format!("{label}/{env_name}/seed={seed}/cd={cooldown}");
                let report = oracle::assert_engine_matches(
                    system,
                    || make_env(topology.clone()),
                    &config,
                    &context,
                );
                if let Some(round) = report.rounds_to_convergence() {
                    converged += 1;
                    let target = system.target();
                    assert!(
                        report.state_trace[round..].iter().all(|ms| *ms == target),
                        "closure: {context}"
                    );
                }
            }
        }
    }
    converged
}

#[test]
fn the_engine_reproduces_the_round_oracle_on_every_generated_case() {
    let mut cases = 0;
    let mut converged = 0;
    for n in [5, 12] {
        let topologies = [
            ("line", Topology::line(n)),
            ("ring", Topology::ring(n)),
            ("complete", Topology::complete(n)),
            ("star", Topology::star(n)),
        ];
        for (shape, topology) in &topologies {
            for seed in [1, 2] {
                let values = distinct_values(n, seed);
                let label = format!("minimum/{shape}/n={n}/values={seed}");
                let system = minimum::system(&values, topology.clone());
                converged += sweep(&system, topology, &label);
                let label = format!("sorting/{shape}/n={n}/values={seed}");
                converged += sweep(&sorting::system(&values), topology, &label);
                cases += 2 * environments().len() * 3 * 2;
            }
        }
    }
    // The sweep must exercise convergence and cooldown, not just budgets.
    assert!(
        converged > cases / 2,
        "{converged} of {cases} cases converged"
    );
}
