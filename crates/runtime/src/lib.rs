//! Simulators that execute self-similar algorithms under dynamic environments.
//!
//! The transition system of Chandy & Charpentier (ICDCS 2007) alternates
//! environment transitions (arbitrary) with agent transitions (every group
//! of a partition takes one collaborative step).  This crate provides three
//! executable realisations of that system:
//!
//! * [`SyncSimulator`] — the round-based semantics used for all correctness
//!   claims and most experiments: at every round the environment produces
//!   a new [`selfsim_env::EnvState`], the induced partition (connected
//!   components of the enabled subgraph) is formed, and every group
//!   executes one step of the algorithm's group relation `R`.  It is the
//!   event engine below under the synchronous column conventions: the
//!   environment's bare name, and no queue counters.
//! * [`AsyncSimulator`] — a discrete-event, message-passing realisation in
//!   the spirit of the remark at the end of §4.5: agents interact pairwise
//!   when a (possibly delayed, possibly dropped) message is delivered over
//!   an edge, rather than in lockstep rounds.  Group steps are still steps
//!   of `R` restricted to the two endpoints, so all invariants carry over;
//!   what changes is *when* interactions happen — and the [`DeliveryRule`]
//!   decides what happens to a message whose edge is down when it comes
//!   due, which over environments with connectivity windows shorter than
//!   the message latency decides convergence itself (see the
//!   `delivery` module docs and experiment E14).
//! * [`EventSimulator`] — the one round engine: the synchronous semantics
//!   driven from a deterministic priority queue of environment and
//!   interaction events, with delta-based connectivity updates
//!   ([`selfsim_env::Environment::step_delta`]) and sparse interaction
//!   scheduling, so idle agents cost nothing and million-agent systems stay
//!   tractable.  Its reports carry the event columns (`event/<env>`,
//!   events processed, peak queue depth); everything else is exactly what
//!   the dense round loop in `tests/oracle` reports, event order included.
//!
//! All simulators are deterministic given a seed, record
//! [`selfsim_trace::RunMetrics`], optionally keep the full environment and
//! agent-state traces for auditing (conservation law, `□◇Q`, LTL specs),
//! and detect convergence (the state reaching — and then staying at — the
//! target `f(S(0))`).
//!
//! The simulators share an object-safe face, [`Runtime`], and a
//! declarative selector, [`ExecutionMode`], so that experiment drivers can
//! sweep the *execution model* as just another scenario dimension.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod async_sim;
mod delivery;
mod event;
mod mode;
mod report;
mod sync;

pub use async_sim::{validate_async_knobs, AsyncConfig, AsyncSimulator};
pub use delivery::{DeliveryDecision, DeliveryRule, DEFAULT_GRACE};
pub use event::{EventConfig, EventSimulator};
pub use mode::{ExecutionMode, Runtime};
pub use report::SimulationReport;
pub use sync::{SyncConfig, SyncSimulator};

// The round oracle is written against the public API, so the unit tests
// that share it name this crate the way the integration tests do.
#[cfg(test)]
extern crate self as selfsim_runtime;
#[cfg(test)]
#[path = "../tests/oracle/mod.rs"]
mod oracle;
