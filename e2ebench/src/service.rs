//! The service workloads: an in-process `server::Server` and an
//! in-process `server::Coordinator` over two nodes, driven over Unix
//! sockets by closed-loop clients.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use charon::json::Fields;
use charon::Metrics;
use server::{
    Client, Coordinator, CoordinatorConfig, CoordinatorHandle, Server, ServerAddr, ServerConfig,
    ServerHandle, VerifyRequest,
};

use crate::engine::SAFETY_TIMEOUT;
use crate::outcome::{Decision, Outcome, Pass, ServiceStats};
use crate::slice::{Prop, SliceSpec};

/// Which tier a [`Service`] runs.
enum Tier {
    Serve(ServerHandle),
    Cluster {
        coordinator: CoordinatorHandle,
        nodes: Vec<ServerHandle>,
    },
}

/// A running in-process service.
pub struct Service {
    tier: Tier,
    addr: ServerAddr,
}

fn unix(dir: &Path, name: &str) -> ServerAddr {
    ServerAddr::Unix(dir.join(name))
}

fn node(dir: &Path, name: &str) -> std::io::Result<ServerHandle> {
    Server::start(ServerConfig {
        addr: unix(dir, name),
        workers: 1,
        journal: None,
        ..ServerConfig::default()
    })
}

impl Service {
    /// Starts a verification server with 2 workers and a fresh journal
    /// (the `charon-cli serve` defaults), listening on `<tag>.sock`.
    ///
    /// # Errors
    ///
    /// Bind or journal errors.
    pub fn serve(dir: &Path, tag: &str) -> std::io::Result<Service> {
        let journal = dir.join(format!("{tag}.wal"));
        let _ = std::fs::remove_file(&journal);
        let handle = Server::start(ServerConfig {
            addr: unix(dir, &format!("{tag}.sock")),
            workers: 2,
            journal: Some(journal),
            ..ServerConfig::default()
        })?;
        Ok(Service {
            addr: handle.addr().clone(),
            tier: Tier::Serve(handle),
        })
    }

    /// Starts two shard-worker nodes and a coordinator that splits each
    /// job into 2 shards, with one dispatcher connection per node so each
    /// node runs one shard at a time.
    ///
    /// # Errors
    ///
    /// Bind errors.
    pub fn cluster(dir: &Path, tag: &str) -> std::io::Result<Service> {
        let nodes = vec![
            node(dir, &format!("{tag}-n0.sock"))?,
            node(dir, &format!("{tag}-n1.sock"))?,
        ];
        let coordinator = Coordinator::start(CoordinatorConfig {
            addr: unix(dir, &format!("{tag}-c.sock")),
            nodes: nodes.iter().map(|n| n.addr().clone()).collect(),
            shards: 2,
            connections_per_node: 1,
            ..CoordinatorConfig::default()
        })?;
        Ok(Service {
            addr: coordinator.addr().clone(),
            tier: Tier::Cluster { coordinator, nodes },
        })
    }

    /// Opens `n` client connections and pings through each.
    ///
    /// # Errors
    ///
    /// Connection failures or a bad ping reply.
    pub fn connect(&self, n: usize) -> Result<Vec<Client>, String> {
        (0..n)
            .map(|_| {
                let mut client =
                    Client::connect(&self.addr).map_err(|e| format!("connect: {e}"))?;
                let pong = client
                    .request("{\"request\": \"ping\"}")
                    .map_err(|e| format!("ping: {e}"))?;
                match pong.str_field("response").as_deref() {
                    Ok("pong") => Ok(client),
                    _ => Err(format!("bad ping reply {pong:?}")),
                }
            })
            .collect()
    }

    /// Reads the service's counters and the engine metrics its workers
    /// (or, for a cluster, its nodes) accumulated.
    ///
    /// # Errors
    ///
    /// Connection or protocol errors.
    pub fn stats(&self) -> Result<(ServiceStats, Metrics), String> {
        let front = stats_of(&self.addr)?;
        let get = |f: &Fields, key: &str| f.f64_field(key).unwrap_or(0.0);
        let mut stats = ServiceStats {
            cache_hits: get(&front, "cache_hits"),
            cache_misses: get(&front, "cache_misses"),
            registry_hits: get(&front, "registry_hits"),
            registry_misses: get(&front, "registry_misses"),
            journal_appends: get(&front, "journal_appends"),
            rejected: get(&front, "rejected_full")
                + get(&front, "shed")
                + get(&front, "rejected_draining"),
            workers: get(&front, "workers"),
            shards_dispatched: get(&front, "shards_dispatched"),
            redispatched: get(&front, "shards_redispatched"),
            node_idle_s: front
                .arr_field("node_idle_seconds")
                .map(|v| v.iter().sum())
                .unwrap_or(0.0),
            node_completed: front.arr_field("node_completed").unwrap_or_default(),
        };
        let engines = match &self.tier {
            Tier::Serve(_) => vec![front],
            Tier::Cluster { nodes, .. } => {
                stats.workers = nodes.len() as f64;
                nodes
                    .iter()
                    .map(|n| stats_of(n.addr()))
                    .collect::<Result<Vec<_>, _>>()?
            }
        };
        let mut metrics = Metrics::new();
        for f in &engines {
            metrics.attack_calls += get(f, "attack_calls") as u64;
            metrics.attack_seconds += get(f, "attack_seconds");
            metrics.propagation_calls += get(f, "propagation_calls") as u64;
            metrics.propagation_seconds += get(f, "propagation_seconds");
            metrics.policy_calls += get(f, "policy_calls") as u64;
            metrics.policy_seconds += get(f, "policy_seconds");
        }
        Ok((stats, metrics))
    }

    /// Drains every tier front to back and joins its threads.
    ///
    /// # Errors
    ///
    /// A drain that reports lost jobs, or a connection error.
    pub fn shutdown(self) -> Result<(), String> {
        match self.tier {
            Tier::Serve(handle) => {
                drain(&self.addr)?;
                handle.join();
            }
            Tier::Cluster { coordinator, nodes } => {
                drain(&self.addr)?;
                coordinator.join();
                for node in nodes {
                    drain(node.addr())?;
                    node.join();
                }
            }
        }
        Ok(())
    }
}

fn stats_of(addr: &ServerAddr) -> Result<Fields, String> {
    Client::connect(addr)
        .and_then(|mut c| c.request("{\"request\": \"stats\"}"))
        .map_err(|e| format!("stats: {e}"))
}

fn drain(addr: &ServerAddr) -> Result<(), String> {
    let summary = Client::connect(addr)
        .and_then(|mut c| c.request("{\"request\": \"drain\"}"))
        .map_err(|e| format!("drain: {e}"))?;
    match summary.f64_field("lost") {
        Ok(lost) if lost != 0.0 => Err(format!("drain lost {lost} jobs")),
        _ => Ok(()),
    }
}

/// The request sequence of one pass: request `k` asks for property
/// `order[k mod order.len()]`, so every property is sent `replays`
/// times, each round after the previous one.
pub fn requests(
    props: &[Prop],
    net_paths: &[PathBuf],
    spec: &SliceSpec,
    seed: u64,
    order: &[usize],
    replays: usize,
) -> Vec<(usize, VerifyRequest)> {
    (0..order.len() * replays)
        .map(|k| {
            let i = order[k % order.len()];
            let request = VerifyRequest {
                id: k as u64 + 1,
                network: net_paths[props[i].net].to_string_lossy().into_owned(),
                property: props[i].text.clone(),
                timeout_ms: SAFETY_TIMEOUT.as_millis() as u64,
                max_regions: spec.budget,
                seed,
                ..VerifyRequest::default()
            };
            (i, request)
        })
        .collect()
}

fn outcome_of(reply: &Fields, wall_s: f64) -> Outcome {
    let kind = reply.str_field("response").unwrap_or_default();
    if kind != "verdict" {
        return Outcome::failed(format!("{kind} response: {reply:?}"), wall_s);
    }
    let decision = match reply.str_field("verdict").as_deref() {
        Ok("verified") => Decision::Verified,
        Ok("refuted") => Decision::Refuted,
        Ok("resource_limit") => Decision::Limited,
        other => return Outcome::failed(format!("unknown verdict {other:?}"), wall_s),
    };
    let timed_out = reply.opt_str("limit").ok().flatten().as_deref() == Some("timeout");
    Outcome {
        decision,
        witness: reply.arr_field("counterexample").ok(),
        regions: reply.usize_field("regions").unwrap_or(0),
        wall_s,
        failure: timed_out.then(|| "safety timeout fired".to_string()),
        cached: reply.usize_field("cached").unwrap_or(0) == 1,
        server_ms: reply.f64_field("elapsed_ms").unwrap_or(0.0),
    }
}

/// Sends `requests` through `clients` in a closed loop: each client sends
/// the next unsent request as soon as its previous one is answered.
/// Results come back in request order.
pub fn closed_loop(clients: &mut [Client], requests: &[(usize, VerifyRequest)]) -> Pass {
    let next = AtomicUsize::new(0);
    let results: Mutex<Vec<(usize, usize, Outcome)>> = Mutex::new(Vec::new());
    let started = Instant::now();
    std::thread::scope(|scope| {
        for client in clients.iter_mut() {
            let (next, results) = (&next, &results);
            scope.spawn(move || loop {
                let k = next.fetch_add(1, Ordering::Relaxed);
                let Some((i, request)) = requests.get(k) else {
                    return;
                };
                let t0 = Instant::now();
                let reply = client.request(&request.to_line());
                let wall_s = t0.elapsed().as_secs_f64();
                let outcome = match reply {
                    Ok(reply) => outcome_of(&reply, wall_s),
                    Err(e) => Outcome::failed(format!("request failed: {e}"), wall_s),
                };
                results
                    .lock()
                    .expect("results lock poisoned by a panicking client")
                    .push((k, *i, outcome));
            });
        }
    });
    let wall_s = started.elapsed().as_secs_f64();
    let mut results = results
        .into_inner()
        .expect("results lock poisoned by a panicking client");
    results.sort_by_key(|(k, _, _)| *k);
    Pass {
        results: results.into_iter().map(|(_, i, o)| (i, o)).collect(),
        wall_s,
        metrics: Metrics::new(),
        ..Pass::default()
    }
}
