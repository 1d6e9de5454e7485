//! End-to-end cluster tests: a real coordinator fronting real
//! shard-worker daemons over Unix sockets, plus the shard-merge
//! property suite.
//!
//! The integration half exercises the distributed tier's contract: a
//! two-node cluster returns the same verdicts a single-node daemon
//! would; injected node deaths re-dispatch orphaned shards without
//! losing the job; injected result drops make duplicate deliveries,
//! which the merge absorbs; a shard that kills two node connections
//! poisons its job; and drain reports zero lost jobs.
//!
//! The property half drives [`server::MergeState`] through arbitrary
//! interleavings of shard results — duplicates from re-dispatch and
//! late refutations after resource limits included — and checks the
//! merged verdict always equals what sequential single-node
//! verification of the same shards would conclude.

use std::path::PathBuf;
use std::sync::Arc;

use charon::{Counterexample, Verdict};
use domains::Bounds;
use proptest::prelude::*;
use server::journal::{Journal, Record};
use server::{
    Client, Coordinator, CoordinatorConfig, CoordinatorHandle, MergeState, RetryPolicy, Server,
    ServerAddr, ServerConfig, ServerFaultPlanBuilder, ServerHandle, ShardResult, VerifyRequest,
};

fn unique_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("charon-cluster-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn start_node(dir: &std::path::Path, name: &str) -> ServerHandle {
    Server::start(ServerConfig {
        addr: ServerAddr::Unix(dir.join(name)),
        workers: 1,
        journal: None,
        ..ServerConfig::default()
    })
    .unwrap()
}

struct Cluster {
    coordinator: CoordinatorHandle,
    nodes: Vec<ServerHandle>,
    dir: PathBuf,
}

fn start_cluster(tag: &str, config: CoordinatorConfig) -> Cluster {
    let dir = unique_dir(tag);
    let nodes: Vec<ServerHandle> = (0..2)
        .map(|i| start_node(&dir, &format!("node{i}.sock")))
        .collect();
    let coordinator = Coordinator::start(CoordinatorConfig {
        addr: ServerAddr::Unix(dir.join("coord.sock")),
        nodes: nodes.iter().map(|n| n.addr().clone()).collect(),
        ..config
    })
    .unwrap();
    Cluster {
        coordinator,
        nodes,
        dir,
    }
}

impl Cluster {
    /// Drains the coordinator (asserting zero lost jobs) and the nodes.
    fn shutdown(self) {
        let mut client = Client::connect(self.coordinator.addr()).unwrap();
        let summary = client.request("{\"request\": \"drain\"}").unwrap();
        assert_eq!(summary.f64_field("lost").unwrap(), 0.0, "{summary:?}");
        self.coordinator.join();
        for node in self.nodes {
            let mut client = Client::connect(node.addr()).unwrap();
            let _ = client.request("{\"request\": \"drain\"}").unwrap();
            node.join();
        }
        let _ = std::fs::remove_dir_all(self.dir);
    }
}

fn xor_request(dir: &std::path::Path, id: u64, target: usize, wide: bool) -> VerifyRequest {
    let net_path = dir.join("xor.net");
    nn::serialize::save(&nn::samples::xor_network(), &net_path).unwrap();
    let region = if wide {
        Bounds::new(vec![0.0, 0.0], vec![1.0, 1.0])
    } else {
        Bounds::new(vec![0.3, 0.3], vec![0.7, 0.7])
    };
    VerifyRequest {
        id,
        network: net_path.to_str().unwrap().to_string(),
        property: charon::RobustnessProperty::new(region, target).to_text(),
        priority: 0,
        deadline_ms: None,
        timeout_ms: 30_000,
        delta: 1e-9,
        max_regions: 200_000,
        restarts: 2,
        seed: 0,
        cex_search: true,
        // Every cluster submission asks for certification: the happy
        // paths assert on the merged certificate, and the fault paths
        // check that a missing shard sub-certificate degrades to a
        // certificate-less (but still correct) verdict.
        cert: true,
        ack: true,
    }
}

fn submit(cluster: &Cluster, request: &VerifyRequest) -> charon::json::Fields {
    server::submit_reliable(
        cluster.coordinator.addr(),
        request,
        &RetryPolicy::default(),
    )
    .unwrap()
}

#[test]
fn two_node_cluster_reaches_the_single_node_verdicts() {
    let cluster = start_cluster("verdicts", CoordinatorConfig::default());

    // The narrow XOR robustness property is verified (same as the
    // single-node daemon and the in-process verifier conclude).
    let reply = submit(&cluster, &xor_request(&cluster.dir, 1, 1, false));
    assert_eq!(reply.str_field("verdict").unwrap(), "verified", "{reply:?}");
    assert!(reply.usize_field("shards").unwrap() >= 2, "{reply:?}");

    // The merged proof certificate covers the *whole* job region and
    // passes the independent directed-rounding audit.
    let net = nn::samples::xor_network();
    let cert = charon::Certificate::from_text(&reply.str_field("cert").unwrap()).unwrap();
    assert_eq!(cert.root, Bounds::new(vec![0.3, 0.3], vec![0.7, 0.7]));
    let report = charon::audit(&cert, &net, &charon::AuditOptions::default()).unwrap();
    assert!(report.verified, "{report:?}");

    // The whole-unit-square property is refuted, and the refutation
    // carries a checkable counterexample from whichever shard found it.
    let reply = submit(&cluster, &xor_request(&cluster.dir, 2, 1, true));
    assert_eq!(reply.str_field("verdict").unwrap(), "refuted", "{reply:?}");
    let point = reply.arr_field("counterexample").unwrap();
    assert_eq!(point.len(), 2, "{reply:?}");
    assert!(reply.f64_field("objective").unwrap() <= 0.0, "{reply:?}");

    // The refutation certificate is the winning shard's witness,
    // re-rooted at the job region so the audit checks containment there.
    let cert = charon::Certificate::from_text(&reply.str_field("cert").unwrap()).unwrap();
    assert_eq!(cert.root, Bounds::new(vec![0.0, 0.0], vec![1.0, 1.0]));
    let report = charon::audit(&cert, &net, &charon::AuditOptions::default()).unwrap();
    assert!(!report.verified, "{report:?}");

    // Both nodes did work: the per-node stats arrays cover two names.
    let mut client = Client::connect(cluster.coordinator.addr()).unwrap();
    let stats = client.request("{\"request\": \"stats\"}").unwrap();
    assert_eq!(stats.usize_field("nodes").unwrap(), 2, "{stats:?}");
    assert!(
        stats.usize_field("shards_completed").unwrap() >= 2,
        "{stats:?}"
    );
    cluster.shutdown();
}

#[test]
fn injected_node_death_redispatches_the_orphaned_shard() {
    let faults = Arc::new(ServerFaultPlanBuilder::new().kill_node_at_dispatch(0).build());
    let cluster = start_cluster(
        "nodekill",
        CoordinatorConfig {
            faults: Some(Arc::clone(&faults)),
            ..CoordinatorConfig::default()
        },
    );
    let reply = submit(&cluster, &xor_request(&cluster.dir, 7, 1, false));
    assert_eq!(reply.str_field("verdict").unwrap(), "verified", "{reply:?}");
    assert_eq!(faults.node_kills_fired(), 1);

    let mut client = Client::connect(cluster.coordinator.addr()).unwrap();
    let stats = client.request("{\"request\": \"stats\"}").unwrap();
    assert!(stats.usize_field("requeued").unwrap() >= 1, "{stats:?}");
    assert_eq!(stats.usize_field("quarantined").unwrap(), 0, "{stats:?}");
    cluster.shutdown();
}

#[test]
fn injected_result_drop_is_absorbed_as_a_duplicate_delivery() {
    let faults = Arc::new(ServerFaultPlanBuilder::new().drop_shard_result(0).build());
    let cluster = start_cluster(
        "sharddrop",
        CoordinatorConfig {
            faults: Some(Arc::clone(&faults)),
            ..CoordinatorConfig::default()
        },
    );
    let reply = submit(&cluster, &xor_request(&cluster.dir, 8, 1, false));
    assert_eq!(reply.str_field("verdict").unwrap(), "verified", "{reply:?}");
    assert_eq!(faults.shard_drops_fired(), 1);
    cluster.shutdown();
}

#[test]
fn a_shard_that_kills_two_connections_poisons_its_job() {
    let faults = Arc::new(
        ServerFaultPlanBuilder::new()
            .kill_node_at_dispatch(0)
            .kill_node_at_dispatch(1)
            .build(),
    );
    let cluster = start_cluster(
        "quarantine",
        CoordinatorConfig {
            shards: 1,
            retry_budget: 2,
            faults: Some(faults),
            ..CoordinatorConfig::default()
        },
    );
    let reply = submit(&cluster, &xor_request(&cluster.dir, 9, 1, false));
    assert_eq!(reply.str_field("verdict").unwrap(), "poisoned", "{reply:?}");
    assert_eq!(reply.usize_field("attempts").unwrap(), 2, "{reply:?}");
    assert!(
        reply.str_field("diagnostic").unwrap().contains("quarantined"),
        "{reply:?}"
    );
    let mut client = Client::connect(cluster.coordinator.addr()).unwrap();
    let stats = client.request("{\"request\": \"stats\"}").unwrap();
    assert_eq!(stats.usize_field("quarantined").unwrap(), 1, "{stats:?}");
    cluster.shutdown();
}

#[test]
fn duplicate_ack_submission_is_deduplicated_by_the_coordinator() {
    let cluster = start_cluster("dedup", CoordinatorConfig::default());
    let request = xor_request(&cluster.dir, 11, 1, false);
    let first = submit(&cluster, &request);
    assert_eq!(first.str_field("verdict").unwrap(), "verified");
    // Resubmitting the same id must return the stored verdict, not run
    // the job again.
    let second = submit(&cluster, &request);
    assert_eq!(second.str_field("verdict").unwrap(), "verified");
    let mut client = Client::connect(cluster.coordinator.addr()).unwrap();
    let stats = client.request("{\"request\": \"stats\"}").unwrap();
    assert_eq!(stats.usize_field("accepted").unwrap(), 1, "{stats:?}");
    assert!(stats.usize_field("duplicates").unwrap() >= 1, "{stats:?}");
    cluster.shutdown();
}

/// Polls `query` until the job's terminal result is stored.
fn query_until_terminal(addr: &ServerAddr, id: u64) -> charon::json::Fields {
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    let mut client = Client::connect(addr).unwrap();
    loop {
        let response = client.request(&VerifyRequest::query_line(id)).unwrap();
        match response.str_field("response").unwrap().as_str() {
            "pending" | "unknown" if std::time::Instant::now() < deadline => {
                std::thread::sleep(std::time::Duration::from_millis(10));
            }
            "pending" | "unknown" => panic!("job {id} never resolved: {response:?}"),
            _ => return response,
        }
    }
}

#[test]
fn coordinator_replay_answers_recovered_jobs_and_serves_stored_results() {
    // The previous coordinator life, reconstructed as its journal: job
    // 21 was accepted and never answered (its shard dispatches died with
    // the process); job 22 completed with a stored verdict.
    let dir = unique_dir("replay");
    let wal = dir.join("coord.wal");
    let stored = "{\"response\": \"verdict\", \"id\": 22, \"verdict\": \"refuted\", \"cached\": 0}";
    {
        let (mut journal, _) = Journal::open(&wal, None).unwrap();
        let request = xor_request(&dir, 21, 1, false);
        journal
            .append(&Record::Accepted { id: 21, request })
            .unwrap();
        journal
            .append(&Record::ShardDispatched {
                id: 21,
                shard: 0,
                node: "unix:/gone.sock".to_string(),
            })
            .unwrap();
        let request = xor_request(&dir, 22, 1, true);
        journal
            .append(&Record::Accepted { id: 22, request })
            .unwrap();
        let response = stored.to_string();
        journal
            .append(&Record::Completed { id: 22, response })
            .unwrap();
    }

    let cluster = start_cluster(
        "replay",
        CoordinatorConfig {
            journal: Some(wal),
            ..CoordinatorConfig::default()
        },
    );
    let addr = cluster.coordinator.addr().clone();
    let verdict = query_until_terminal(&addr, 21);
    let field = |key: &str| verdict.str_field(key).unwrap();
    assert_eq!(field("response"), "verdict", "{verdict:?}");
    assert_eq!(field("verdict"), "verified", "{verdict:?}");
    assert_eq!(verdict.usize_field("id").unwrap(), 21);

    let mut client = Client::connect(&addr).unwrap();
    let line = client.request(&VerifyRequest::query_line(22)).unwrap();
    let stored = charon::json::parse_flat_object(stored).unwrap();
    assert_eq!(format!("{line:?}"), format!("{stored:?}"));
    let stats = client.request("{\"request\": \"stats\"}").unwrap();
    assert_eq!(stats.usize_field("replayed").unwrap(), 1, "{stats:?}");
    assert_eq!(stats.usize_field("accepted").unwrap(), 1, "{stats:?}");
    cluster.shutdown();
}

// ---------------------------------------------------------------------
// Shard-merge property suite.
// ---------------------------------------------------------------------

/// A shard's final outcome in the generator's vocabulary.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Final {
    Verified,
    Refuted,
    Limited,
}

/// The verdict a shard with this outcome delivers; every refuted shard
/// reports the same witness.
fn verdict_of(outcome: Final) -> Verdict {
    match outcome {
        Final::Verified => Verdict::Verified,
        Final::Refuted => Verdict::Refuted(Counterexample {
            point: vec![0.25, 0.75],
            objective: -1.0,
        }),
        Final::Limited => Verdict::ResourceLimit,
    }
}

fn shard_result(shard: usize, outcome: Final) -> ShardResult {
    ShardResult {
        id: 42,
        shard,
        verdict: verdict_of(outcome),
        regions: 3,
        seconds: 0.01,
        limit: (outcome == Final::Limited).then(|| "timeout".to_string()),
        checkpoint: None,
        cert: None,
    }
}

/// The delivery script for one shard: what arrives on the wire, in
/// shard-local order. Re-dispatch duplicates repeat the same outcome; a
/// refuted shard may first surface as a resource limit (the first
/// execution timed out, the re-dispatched one found the witness).
fn deliveries(shard: usize, outcome: Final, dup: bool, late: bool) -> Vec<ShardResult> {
    let mut script = Vec::new();
    match outcome {
        Final::Verified | Final::Limited => script.push(shard_result(shard, outcome)),
        Final::Refuted => {
            if late {
                script.push(shard_result(shard, Final::Limited));
            }
            script.push(shard_result(shard, Final::Refuted));
        }
    }
    if dup {
        script.push(script[script.len() - 1].clone());
    }
    script
}

/// What sequential single-node verification of the same sub-regions
/// would conclude: any refutation refutes the property, all-verified
/// verifies it, anything else is a resource limit.
fn sequential_verdict(finals: &[Final]) -> Verdict {
    if finals.contains(&Final::Refuted) {
        verdict_of(Final::Refuted)
    } else if finals.iter().all(|f| *f == Final::Verified) {
        Verdict::Verified
    } else {
        Verdict::ResourceLimit
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Any interleaving of shard deliveries — duplicates from
    /// re-dispatch and late refutations after resource limits included
    /// — merges to exactly the sequential single-node verdict.
    ///
    /// Each shard's script is one integer: `v % 3` picks the final
    /// verdict, `(v / 3) % 2` whether a duplicate delivery trails it,
    /// `(v / 6) % 2` whether a refutation arrives late after a limit.
    #[test]
    fn merge_is_interleaving_invariant(
        shards in proptest::collection::vec(0u64..12, 1..6),
        order_seed in 0u64..u64::MAX,
    ) {
        let finals: Vec<Final> = shards
            .iter()
            .map(|v| match v % 3 {
                0 => Final::Verified,
                1 => Final::Refuted,
                _ => Final::Limited,
            })
            .collect();
        // Flatten every shard's delivery script, then shuffle across
        // shards with a seeded Fisher-Yates. Shard-local order is not
        // preserved by the shuffle, which is fine: the only ordered
        // pair the protocol guarantees is that a late refutation can
        // follow a limit, and the merge must cope with every order.
        let mut wire: Vec<ShardResult> = Vec::new();
        for (shard, v) in shards.iter().enumerate() {
            let dup = (v / 3) % 2 == 1;
            let late = (v / 6) % 2 == 1;
            wire.extend(deliveries(shard, finals[shard], dup, late));
        }
        let mut state = order_seed | 1;
        for i in (1..wire.len()).rev() {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            wire.swap(i, (state >> 33) as usize % (i + 1));
        }

        let mut merge = MergeState::new(finals.len());
        for result in &wire {
            prop_assert!(merge.record(result).is_ok(), "record {result:?}");
        }
        prop_assert!(merge.complete(), "every shard delivered at least once");
        prop_assert_eq!(merge.verdict(), Some(sequential_verdict(&finals)), "wire: {:?}", wire);
    }

    /// Replaying a prefix of deliveries twice (the re-dispatch storm
    /// case) never changes the final verdict.
    #[test]
    fn merge_is_idempotent_under_replay(
        shards in proptest::collection::vec(0u64..3, 1..5),
        prefix in 0usize..1024,
    ) {
        let finals: Vec<Final> = shards
            .iter()
            .map(|f| match f {
                0 => Final::Verified,
                1 => Final::Refuted,
                _ => Final::Limited,
            })
            .collect();
        let wire: Vec<ShardResult> = finals
            .iter()
            .enumerate()
            .flat_map(|(shard, f)| deliveries(shard, *f, false, false))
            .collect();
        let mut merge = MergeState::new(finals.len());
        for result in &wire {
            merge.record(result).unwrap();
        }
        let baseline = merge.verdict();
        // Replay an arbitrary prefix on top of the completed merge.
        for result in &wire[..=prefix % wire.len()] {
            merge.record(result).unwrap();
        }
        prop_assert_eq!(merge.verdict(), baseline);
    }
}
