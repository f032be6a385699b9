//! Cross-runtime equivalence: sync and event are two faces of one round
//! engine, so on every environment, with or without a cooldown, the
//! emitted records are identical except for the mode coordinate and the
//! event runtime's own columns, and the trace streams except for the mode
//! coordinate.  This is the Rust face of the CI `event-equivalence` gate
//! (which `cmp`s the normalised JSONL bytes the same way).

use selfsim_campaign::{
    merge_shards, Campaign, EnvModel, ExecutionMode, Registry, ScenarioGrid, ShardSpec,
    TopologyFamily, TrialRecord,
};

/// A grid over the cells the equivalence claim covers: both algorithm
/// shapes (value-adopting and position-permuting), two topology families,
/// every builtin environment model.
fn grid(mode: ExecutionMode) -> Campaign {
    let registry = Registry::builtin();
    let algorithms = ["minimum", "sum", "sorting"]
        .iter()
        .map(|name| registry.get(name).expect("builtin algorithm"))
        .collect::<Vec<_>>();
    let scenarios = ScenarioGrid::new()
        .algorithms(algorithms)
        .topologies([TopologyFamily::Ring, TopologyFamily::Complete])
        .envs(
            [
                "static",
                "churn",
                "markov",
                "partition",
                "crash",
                "adversary",
                "churn+crash",
            ]
            .map(|name| EnvModel::parse(name).expect("builtin environment")),
        )
        .modes([mode])
        .sizes([8])
        .trials(3)
        .max_rounds(20_000)
        .expand();
    Campaign::new(scenarios).seed(42).threads(2)
}

/// The campaign's records, parsed, and its trace stream as text.
fn records_and_trace(campaign: &Campaign) -> (Vec<TrialRecord>, String) {
    let mut bytes = Vec::new();
    let mut trace = Vec::new();
    campaign
        .stream_with_trace(&mut bytes, &mut trace, |_, _| {})
        .expect("stream to memory");
    let records = String::from_utf8(bytes)
        .expect("JSONL is UTF-8")
        .lines()
        .map(|line| TrialRecord::from_jsonl_line(line).expect("record parses"))
        .collect();
    (records, String::from_utf8(trace).expect("JSONL is UTF-8"))
}

#[test]
fn event_records_equal_sync_records_after_mode_normalisation() {
    let (sync, sync_trace) = records_and_trace(&grid(ExecutionMode::Sync { cooldown: 3 }));
    let (event, event_trace) = records_and_trace(&grid(ExecutionMode::Event { cooldown: 3 }));
    assert_eq!(sync.len(), event.len());
    assert!(!sync.is_empty());
    // The traces differ only in the mode coordinate, event order included.
    assert!(sync_trace.contains("\"group-step\""));
    assert_eq!(
        event_trace
            .replace("/event(cd=3)\"", "/sync(cd=3)\"")
            .replace("\"mode\":\"event(cd=3)\"", "\"mode\":\"sync(cd=3)\""),
        sync_trace
    );
    for (s, e) in sync.iter().zip(&event) {
        assert_eq!(e.mode, "event(cd=3)");
        assert_eq!(e.scenario, s.scenario.replace("/sync", "/event"));
        // The seed anchoring: the event cell drew the sync cell's stream.
        assert_eq!(e.seed, s.seed, "{}", s.scenario);
        assert!(e.events_processed > 0, "{}", e.scenario);
        assert!(e.peak_queue_depth > 0, "{}", e.scenario);
        let mut normalised = e.clone();
        normalised.scenario = s.scenario.clone();
        normalised.mode = s.mode.clone();
        normalised.events_processed = 0;
        normalised.peak_queue_depth = 0;
        assert_eq!(&normalised, s, "{}", s.scenario);
    }
}

#[test]
fn event_mode_streams_are_thread_and_shard_invariant() {
    let reference = {
        let mut bytes = Vec::new();
        grid(ExecutionMode::event())
            .threads(1)
            .stream_to(&mut bytes)
            .expect("stream to memory");
        bytes
    };
    for threads in [2, 4] {
        let mut bytes = Vec::new();
        grid(ExecutionMode::event())
            .threads(threads)
            .stream_to(&mut bytes)
            .expect("stream to memory");
        assert_eq!(bytes, reference, "threads={threads}");
    }
    let mut shards: Vec<Vec<u8>> = Vec::new();
    for index in 0..3 {
        let mut bytes = Vec::new();
        grid(ExecutionMode::event())
            .shard(ShardSpec::new(index, 3).expect("valid shard"))
            .stream_to(&mut bytes)
            .expect("stream to memory");
        shards.push(bytes);
    }
    let mut merged = Vec::new();
    let mut readers: Vec<&[u8]> = shards.iter().map(|s| s.as_slice()).collect();
    merge_shards(&mut readers, |line| {
        merged.extend_from_slice(line);
        Ok(())
    })
    .expect("shards merge");
    assert_eq!(merged, reference);
}

#[test]
fn a_hundred_thousand_agent_complete_cell_is_sweepable() {
    let registry = Registry::builtin();
    let scenarios = ScenarioGrid::new()
        .algorithms([registry.get("minimum").expect("builtin algorithm")])
        .topologies([TopologyFamily::Complete])
        .envs([EnvModel::Static])
        .modes([ExecutionMode::event()])
        .sizes([100_000])
        .trials(1)
        .max_rounds(100)
        .expand();
    let collected = Campaign::new(scenarios).seed(7).threads(1).run_collect();
    let record = collected.records.first().expect("one record");
    assert_eq!(record.agents, 100_000);
    assert_eq!(record.scenario, "minimum/complete/static/n=100000/event");
    assert!(record.converged, "one round suffices on a complete graph");
    assert_eq!(record.rounds_to_convergence, Some(1));
    assert!(record.events_processed > 0);
}
