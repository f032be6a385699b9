//! The `step_delta` contract, property-tested for every builtin
//! environment: an environment advanced through [`Environment::step_delta`]
//! with the deltas folded into an [`EnvState`] must traverse exactly the
//! state sequence (and consume exactly the RNG stream) that the same
//! environment advanced through [`Environment::step`] traverses.  This is
//! what entitles the event-driven runtime to apply connectivity updates
//! incrementally.

use std::collections::BTreeSet;

use proptest::prelude::*;
use proptest::TestCaseError;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use selfsim_env::{
    AdversarialEnv, AgentId, ComposedEnv, CrashRestartEnv, Edge, EnvDelta, EnvState, Environment,
    GroupIndex, MarkovLinkEnv, PeriodicPartitionEnv, RandomChurnEnv, StaticEnv, Topology,
};

fn topology(choice: u8, n: usize) -> Topology {
    match choice % 4 {
        0 => Topology::ring(n),
        1 => Topology::line(n),
        2 => Topology::complete(n),
        _ => Topology::star(n),
    }
}

/// Every builtin environment over `topo`, parameterised from the three
/// probability-ish knobs so the proptest cases sweep their behaviours
/// (always-changing, mostly-quiet, phase-switching, fallback-only).
fn builtin_envs(topo: &Topology, p: f64, q: f64, k: usize) -> Vec<Box<dyn Environment>> {
    vec![
        Box::new(StaticEnv::new(topo.clone())),
        Box::new(RandomChurnEnv::new(topo.clone(), p, q)),
        Box::new(MarkovLinkEnv::new(topo.clone(), p, q)),
        Box::new(PeriodicPartitionEnv::new(
            topo.clone(),
            1 + k % 3,
            1 + k % 5,
        )),
        Box::new(CrashRestartEnv::new(topo.clone(), p, q)),
        Box::new(AdversarialEnv::new(topo.clone(), k % 4)),
        Box::new(ComposedEnv::new(
            MarkovLinkEnv::new(topo.clone(), p, q),
            CrashRestartEnv::new(topo.clone(), q, p),
        )),
    ]
}

/// Folds one delta into the running state; `current` is `None` before the
/// first (absolute, per the contract) delta arrives.
fn fold(current: &mut Option<EnvState>, delta: EnvDelta, topo: &Topology) {
    match delta {
        EnvDelta::Unchanged => {
            assert!(
                current.is_some(),
                "contract violation: the first delta must be absolute"
            );
        }
        EnvDelta::AllEnabled => *current = Some(EnvState::fully_enabled(topo)),
        EnvDelta::Full(state) => *current = Some(state),
        EnvDelta::Changes(changes) => current
            .as_mut()
            .expect("contract violation: the first delta must be absolute")
            .apply_changes(&changes),
    }
}

proptest! {
    /// The core property: over random topologies, parameters and seeds,
    /// the folded delta stream equals the full-rescan stream round for
    /// round, for every builtin environment.
    #[test]
    fn folded_deltas_equal_full_rescans(
        seed in 0u64..500,
        choice in 0u8..8,
        n in 3usize..10,
        p in 0.0f64..=1.0,
        q in 0.0f64..=1.0,
        k in 0usize..10,
        rounds in 1usize..30,
    ) {
        let topo = topology(choice, n);
        let stepped = builtin_envs(&topo, p, q, k);
        let delta_stepped = builtin_envs(&topo, p, q, k);
        for (mut a, mut b) in stepped.into_iter().zip(delta_stepped) {
            let name = a.name();
            let mut rng_a = StdRng::seed_from_u64(seed);
            let mut rng_b = StdRng::seed_from_u64(seed);
            let mut folded: Option<EnvState> = None;
            for round in 0..rounds {
                let full = a.step(&mut rng_a);
                fold(&mut folded, b.step_delta(&mut rng_b), &topo);
                let folded = folded.as_ref().expect("absolute after first delta");
                prop_assert!(
                    folded == &full,
                    "{} diverged at round {} (seed {})",
                    name,
                    round,
                    seed
                );
            }
            // Identical RNG streams: both copies must be at the same point.
            prop_assert!(
                rng_a.next_u64() == rng_b.next_u64(),
                "{} desynced its RNG stream",
                name
            );
        }
    }

    /// Incremental group maintenance equals a from-scratch BFS: a
    /// [`GroupIndex`] fed the delta stream of every builtin environment
    /// (merges on edge-up, forest repairs on edge-down, agent churn)
    /// reports exactly the groups — in exactly the ascending-min order —
    /// that a full rescan of the folded [`EnvState`] reports.
    #[test]
    fn group_index_equals_bfs_recompute_over_delta_streams(
        seed in 0u64..500,
        choice in 0u8..8,
        n in 3usize..10,
        p in 0.0f64..=1.0,
        q in 0.0f64..=1.0,
        k in 0usize..10,
        rounds in 1usize..30,
    ) {
        let topo = topology(choice, n);
        for mut env in builtin_envs(&topo, p, q, k) {
            check_index_against_bfs(env.as_mut(), &topo, seed, rounds)?;
        }
    }

    /// The same property on the graphs the spanning-forest certificate is
    /// built for: sparse random connected graphs of several degrees, plus
    /// random trees and rings, where (nearly) every downed edge is a tree
    /// edge.  Churn with `p` well below 1 downs many edges per round, so
    /// the batched repair — several tree edges of one group in one delta,
    /// each repaired against the final masks — is exercised throughout,
    /// and `q < 1` adds agent downs that repair the agent's tree edges.
    #[test]
    fn group_index_certificate_holds_on_sparse_graphs_under_batched_downs(
        seed in 0u64..1000,
        shape in 0u8..6,
        n in 2usize..64,
        p in 0.3f64..=1.0,
        q in 0.6f64..=1.0,
        rounds in 1usize..24,
    ) {
        let mut graph_rng = StdRng::seed_from_u64(seed ^ 0x5eed);
        let topo = match shape {
            0 => random_tree(n, &mut graph_rng),
            1 => Topology::ring(n.max(3)),
            degree => {
                let degree = [1.5, 3.0, 6.0, 12.0][usize::from(degree - 2)];
                Topology::random_connected_sparse(n, degree, &mut graph_rng)
            }
        };
        let envs: Vec<Box<dyn Environment>> = vec![
            Box::new(RandomChurnEnv::new(topo.clone(), p, q)),
            Box::new(RandomChurnEnv::new(topo.clone(), p, 1.0)),
            Box::new(MarkovLinkEnv::new(topo.clone(), p, 1.0 - p)),
        ];
        for mut env in envs {
            check_index_against_bfs(env.as_mut(), &topo, seed, rounds)?;
        }
    }
}

/// The per-item `gen_bool` loops the block draws replaced, kept as the
/// oracle: one `gen_bool` per item, in the order the environments draw.
/// Markov links and crash/restart agents carry their up sets between steps.
enum Oracle {
    Churn(f64, f64),
    Markov(f64, f64, BTreeSet<Edge>),
    Crash(f64, f64, BTreeSet<AgentId>),
}

impl Oracle {
    fn step(&mut self, topo: &Topology, rng: &mut StdRng) -> EnvState {
        let n = topo.agent_count();
        let edges = topo.edges().iter().copied();
        match self {
            Oracle::Churn(p_edge, p_agent) => {
                let edges: Vec<Edge> = edges.filter(|_| rng.gen_bool(*p_edge)).collect();
                let agents: Vec<AgentId> =
                    topo.agents().filter(|_| rng.gen_bool(*p_agent)).collect();
                EnvState::new(n, edges, agents)
            }
            Oracle::Markov(p_up, p_down, up) => {
                *up = edges
                    .filter(|e| match up.contains(e) {
                        true => !rng.gen_bool(*p_down),
                        false => rng.gen_bool(*p_up),
                    })
                    .collect();
                EnvState::new(n, up.iter().copied(), topo.agents())
            }
            Oracle::Crash(p_crash, p_restart, up) => {
                *up = topo
                    .agents()
                    .filter(|a| match up.contains(a) {
                        true => !rng.gen_bool(*p_crash),
                        false => rng.gen_bool(*p_restart),
                    })
                    .collect();
                let edges = edges.filter(|e| up.contains(&e.lo()) && up.contains(&e.hi()));
                EnvState::new(n, edges, up.iter().copied())
            }
        }
    }
}

/// The three block-drawing environments over `topo`, each beside its
/// oracle, all starting from their constructors' states.
fn with_oracles(topo: &Topology, p: f64) -> Vec<(Box<dyn Environment>, Oracle)> {
    vec![
        (
            Box::new(RandomChurnEnv::new(topo.clone(), p, p)),
            Oracle::Churn(p, p),
        ),
        (
            Box::new(MarkovLinkEnv::new(topo.clone(), p, 1.0 - p)),
            Oracle::Markov(p, 1.0 - p, topo.edges().clone()),
        ),
        (
            Box::new(CrashRestartEnv::new(topo.clone(), 1.0 - p, p)),
            Oracle::Crash(1.0 - p, p, topo.agents().collect()),
        ),
    ]
}

/// The block draws against the per-item `gen_bool` oracle, at the block
/// seams.  The proptest graphs have at most 36 edges, about one block of
/// `DRAW_BLOCK` = 32 words, so a seam bug would go unseen there: these
/// lines have 31, 32, 33 and 101 (3·32 + 5) edges and one more agent each,
/// plus a ~600-edge sparse graph.  Both `step` and `step_delta` must
/// traverse the oracle's states and leave the RNG where the oracle does.
#[test]
fn block_draws_equal_the_per_item_gen_bool_oracle_across_block_seams() {
    const BLOCK: usize = 32;
    let mut topos: Vec<Topology> = [BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 5]
        .iter()
        .map(|&edges| Topology::line(edges + 1))
        .collect();
    let mut graph_rng = StdRng::seed_from_u64(17);
    topos.push(Topology::random_connected_sparse(200, 6.0, &mut graph_rng));
    for topo in &topos {
        for p in [0.0, 0.5, 0.999, 1.0] {
            for use_delta in [false, true] {
                for (mut env, mut oracle) in with_oracles(topo, p) {
                    let label = format!(
                        "{} (p = {p}, {} edges, delta {use_delta})",
                        env.name(),
                        topo.edge_count()
                    );
                    let mut rng = StdRng::seed_from_u64(5);
                    let mut oracle_rng = StdRng::seed_from_u64(5);
                    let mut folded: Option<EnvState> = None;
                    for round in 0..6 {
                        let expected = oracle.step(topo, &mut oracle_rng);
                        let got = if use_delta {
                            fold(&mut folded, env.step_delta(&mut rng), topo);
                            folded.clone().expect("absolute after first delta")
                        } else {
                            env.step(&mut rng)
                        };
                        assert_eq!(got, expected, "{label}: round {round}");
                    }
                    let tail = (rng.next_u64(), oracle_rng.next_u64());
                    assert_eq!(tail.0, tail.1, "{label}: RNG tail differs");
                }
            }
        }
    }
}

/// A uniformly random recursive tree: agent `i > 0` hangs off a random
/// earlier agent.  Every edge of a tree topology is a tree edge of the
/// certificate, so every down is a repair.
fn random_tree(n: usize, rng: &mut StdRng) -> Topology {
    Topology::from_edges(n, (1..n).map(|i| (rng.gen_range(0..i), i)))
}

/// Feeds `env`'s delta stream into a [`GroupIndex`] the way the event
/// runtime does and checks, after every delta, that the index reports
/// exactly the groups a from-scratch BFS of the folded [`EnvState`]
/// reports, agrees on connectivity, round-trips its state, and holds a
/// valid spanning-forest certificate.
fn check_index_against_bfs(
    env: &mut dyn Environment,
    topo: &Topology,
    seed: u64,
    rounds: usize,
) -> Result<(), TestCaseError> {
    let name = env.name();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut folded: Option<EnvState> = None;
    let mut index = GroupIndex::new(topo);
    for round in 0..rounds {
        let delta = env.step_delta(&mut rng);
        // Mirror the event runtime's handling of each delta kind.
        match &delta {
            EnvDelta::Unchanged => {}
            EnvDelta::AllEnabled => index.reset_all_enabled(),
            EnvDelta::Full(state) => index.reset_from_state(state),
            EnvDelta::Changes(changes) => index.apply_changes(changes),
        }
        fold(&mut folded, delta, topo);
        let folded = folded.as_ref().expect("absolute after first delta");
        prop_assert!(
            index.groups() == folded.groups(),
            "{} group index diverged from BFS at round {} (seed {}): {:?} vs {:?}",
            name,
            round,
            seed,
            index.groups(),
            folded.groups()
        );
        prop_assert!(
            index.same_connectivity(folded),
            "{} same_connectivity disagreed at round {}",
            name,
            round
        );
        prop_assert!(
            index.to_env_state() == *folded,
            "{} to_env_state round-trip diverged at round {}",
            name,
            round
        );
        if let Err(violation) = index.check_certificate() {
            prop_assert!(
                false,
                "{} certificate broken at round {} (seed {}): {}",
                name,
                round,
                seed,
                violation
            );
        }
    }
    Ok(())
}
