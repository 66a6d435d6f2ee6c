//! `sbs loadgen`: the fleet load-generation harness.
//!
//! Drives a [`sbs_fleet::Fleet`] with seeded synthetic submit streams —
//! one deterministic workload per cluster, partitioned cluster-disjoint
//! across worker threads — and reports sustained submit throughput plus
//! latency percentiles:
//!
//! - **Submit latency** is measured around each batched submit request
//!   (wall clock, exact percentiles from the full sorted sample set).
//! - **Decision latency** comes from the daemons' always-on
//!   `sbs_decision_wall_nanos` histograms, merged fleet-wide.
//!
//! Two drive modes share the same streams: *in-process* calls
//! [`Fleet::handle_routed`] directly (measures the scheduler, not the
//! kernel), and *TCP* speaks newline-JSON to the event-driven server
//! loop over real sockets.  Everything except the timings is
//! deterministic — per-cluster job streams, admission outcomes, and the
//! final fleet state depend only on the seed and the knob values.
//!
//! The output document (written as `BENCH_service.json` by the CLI)
//! carries the [`SCHEMA`] tag so successive PRs extend one service-perf
//! trajectory.

use sbs_core::PolicySpec;
use sbs_fleet::{Fleet, FleetConfig};
use sbs_service::protocol::Request;
use sbs_service::{Server, SubmitSpec, VirtualClock};
use sbs_workload::generator::{random_workload, RandomWorkloadCfg};
use sbs_workload::time::DAY;
use serde_json::{json, Value};
use std::io::{BufRead, BufReader, Write};
use std::sync::Arc;
use std::time::Instant;

/// Schema identifier stamped into every emitted document.
pub const SCHEMA: &str = "sbs-loadgen/v1";

/// Allowed fractional slowdown of the events-enabled drive over the
/// events-disabled drive before the overhead gate fails the run.
pub const EVENTS_TOLERANCE: f64 = 0.5;

/// Absolute slack (ns) under which the overhead gate never fires: at
/// smoke scale a whole drive lasts a few milliseconds, where scheduler
/// jitter dwarfs any real instrumentation cost.
const EVENTS_ABS_SLACK_NS: u64 = 10_000_000;

/// How the generated load reaches the fleet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DriveMode {
    /// Call [`Fleet::handle_routed`] directly (no sockets).
    InProcess,
    /// Speak newline-JSON over TCP to the readiness loop.
    Tcp,
}

impl DriveMode {
    fn name(self) -> &'static str {
        match self {
            DriveMode::InProcess => "in-process",
            DriveMode::Tcp => "tcp",
        }
    }
}

/// Load-generator knobs.  The defaults are the acceptance-scale run:
/// 1,000 clusters, 32 jobs each, batched 16 at a time over 8 threads,
/// or one per core on a smaller host.
#[derive(Debug, Clone)]
pub struct LoadgenOpts {
    /// Number of tenant clusters driven.
    pub clusters: usize,
    /// Jobs submitted per cluster.
    pub jobs_per_cluster: usize,
    /// Jobs per batched submit request.
    pub batch: usize,
    /// Worker threads (clusters are partitioned across them).
    pub threads: usize,
    /// Workload seed; every per-cluster stream derives from it.
    pub seed: u64,
    /// Per-cluster machine size in nodes.
    pub capacity: u32,
    /// Shard locks in the fleet's tenant map.
    pub shards: usize,
    /// How the load reaches the fleet.
    pub mode: DriveMode,
    /// Fail the run when sustained submits/sec lands below this
    /// (0 disables the assertion).
    pub min_throughput: f64,
}

impl Default for LoadgenOpts {
    fn default() -> Self {
        LoadgenOpts {
            clusters: 1_000,
            jobs_per_cluster: 32,
            batch: 16,
            threads: host_cores().min(8),
            seed: 42,
            capacity: 64,
            shards: 64,
            mode: DriveMode::InProcess,
            min_throughput: 0.0,
        }
    }
}

impl LoadgenOpts {
    /// The smoke configuration used by `--quick` and CI.
    pub fn quick() -> Self {
        LoadgenOpts {
            clusters: 64,
            jobs_per_cluster: 8,
            threads: host_cores().min(4),
            ..Default::default()
        }
    }
}

/// Cores this process may run on.  Default client thread counts are
/// capped by it: more clients than cores would oversubscribe the host
/// and measure its scheduler rather than the fleet.
fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// One worker's tally.
#[derive(Debug, Default, Clone)]
struct WorkerTally {
    /// Wall nanoseconds per batched submit request.
    latencies_ns: Vec<u64>,
    accepted: u64,
    rejected: u64,
}

impl WorkerTally {
    fn absorb(&mut self, other: WorkerTally) {
        self.latencies_ns.extend(other.latencies_ns);
        self.accepted += other.accepted;
        self.rejected += other.rejected;
    }
}

/// The run's outcome: the JSON document plus a rendered text summary.
#[derive(Debug, Clone)]
pub struct LoadgenReport {
    /// The `sbs-loadgen/v1` document.
    pub doc: Value,
    /// Human-readable summary.
    pub text: String,
}

/// Cluster ids `c0000 ..= c{n-1}` — zero-padded so the lexicographic
/// metric-label cap picks a stable prefix.
fn cluster_id(i: usize) -> String {
    format!("c{i:04}")
}

/// FNV-1a over the cluster id: a deterministic per-cluster seed spread.
fn cluster_seed(base: u64, id: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in id.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    base ^ h
}

/// The deterministic submit stream for one cluster, already batched.
fn cluster_batches(opts: &LoadgenOpts, id: &str) -> Vec<Vec<SubmitSpec>> {
    let w = random_workload(
        RandomWorkloadCfg {
            jobs: opts.jobs_per_cluster,
            capacity: opts.capacity,
            span: DAY,
            ..Default::default()
        },
        cluster_seed(opts.seed, id),
    );
    w.jobs
        .chunks(opts.batch.max(1))
        .map(|chunk| {
            chunk
                .iter()
                .map(|j| SubmitSpec {
                    nodes: j.nodes,
                    runtime: j.runtime,
                    requested: Some(j.requested),
                    user: j.user,
                    submit: Some(j.submit),
                })
                .collect()
        })
        .collect()
}

fn fleet_config(opts: &LoadgenOpts) -> FleetConfig {
    FleetConfig::new(opts.capacity, PolicySpec::FcfsBackfill)
        .with_shards(opts.shards)
        .with_max_clusters(opts.clusters.max(1))
}

/// Exact quantile of a **sorted** sample set (nearest-rank).
fn quantile_ns(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).max(1);
    sorted.get(rank.min(sorted.len()) - 1).copied().unwrap_or(0)
}

fn tally_response(v: &Value, tally: &mut WorkerTally) {
    if let Some(results) = v.get("results").and_then(Value::as_array) {
        for r in results {
            if r.get("ok") == Some(&Value::Bool(true)) {
                tally.accepted += 1;
            } else {
                tally.rejected += 1;
            }
        }
    } else {
        tally.rejected += 1; // whole-request error
    }
}

/// Drives the fleet in-process: each worker thread owns a disjoint
/// cluster subset and calls `handle_routed` directly.
fn drive_in_process(opts: &LoadgenOpts, fleet: &Arc<Fleet>) -> WorkerTally {
    let threads = opts.threads.max(1);
    let mut total = WorkerTally::default();
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(threads);
        for tid in 0..threads {
            let fleet = Arc::clone(fleet);
            handles.push(scope.spawn(move || {
                let mut tally = WorkerTally::default();
                for i in (tid..opts.clusters).step_by(threads) {
                    let id = cluster_id(i);
                    for jobs in cluster_batches(opts, &id) {
                        let at = jobs.last().and_then(|s| s.submit).unwrap_or(0);
                        let started = Instant::now();
                        let (v, _) =
                            fleet.handle_routed(Some(&id), Request::SubmitBatch { jobs }, at);
                        let ns = started.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
                        tally.latencies_ns.push(ns);
                        // Feed the same observation into the fleet's
                        // self-scrape histogram so /statusz percentiles
                        // agree with this report (the TCP path records
                        // via the server's observe_request_ns hook).
                        fleet.record_submit_latency(ns);
                        tally_response(&v, &mut tally);
                    }
                }
                tally
            }));
        }
        for h in handles {
            if let Ok(t) = h.join() {
                total.absorb(t);
            }
        }
    });
    total
}

/// Renders one batched submit request as a protocol line.
fn batch_line(cluster: &str, jobs: &[SubmitSpec]) -> String {
    let jobs: Vec<Value> = jobs
        .iter()
        .map(|s| {
            json!({
                "nodes": s.nodes,
                "runtime": s.runtime,
                "requested": s.requested,
                "user": s.user,
                "submit": s.submit,
            })
        })
        .collect();
    json!({ "op": "submit_batch", "cluster": cluster, "jobs": jobs }).to_string()
}

/// Drives the fleet over TCP: the server runs the event-driven loop on
/// an ephemeral port; each worker holds one connection and measures
/// request round-trips.
fn drive_tcp(opts: &LoadgenOpts, fleet: Fleet) -> Result<(WorkerTally, Fleet), String> {
    let server = Server::new(fleet, VirtualClock::default());
    let handler = server.daemon();
    let listener =
        std::net::TcpListener::bind(("127.0.0.1", 0)).map_err(|e| format!("bind: {e}"))?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    let server_thread = std::thread::spawn(move || server.run(listener));

    let threads = opts.threads.max(1);
    let mut total = WorkerTally::default();
    let mut worker_err: Option<String> = None;
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(threads);
        for tid in 0..threads {
            handles.push(scope.spawn(move || -> Result<WorkerTally, String> {
                let stream =
                    std::net::TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
                // Request/response in lockstep: without nodelay, Nagle
                // + delayed ACK dominate the measured latency.
                let _ = stream.set_nodelay(true);
                let mut reader =
                    BufReader::new(stream.try_clone().map_err(|e| format!("clone: {e}"))?);
                let mut stream = stream;
                let mut tally = WorkerTally::default();
                let mut response = String::new();
                for i in (tid..opts.clusters).step_by(threads) {
                    let id = cluster_id(i);
                    for jobs in cluster_batches(opts, &id) {
                        let line = batch_line(&id, &jobs);
                        let started = Instant::now();
                        writeln!(stream, "{line}").map_err(|e| format!("write: {e}"))?;
                        response.clear();
                        reader
                            .read_line(&mut response)
                            .map_err(|e| format!("read: {e}"))?;
                        tally
                            .latencies_ns
                            .push(started.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64);
                        let v: Value = serde_json::from_str(response.trim())
                            .map_err(|e| format!("malformed response: {e}"))?;
                        tally_response(&v, &mut tally);
                    }
                }
                Ok(tally)
            }));
        }
        for h in handles {
            match h.join() {
                Ok(Ok(t)) => total.absorb(t),
                Ok(Err(e)) => worker_err = Some(e),
                Err(_) => worker_err = Some("worker panicked".into()),
            }
        }
    });
    if let Some(e) = worker_err {
        return Err(e);
    }

    // Stop the loop, then lift the fleet back out of the server's
    // handler mutex for the decision-latency report.
    let mut stream = std::net::TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    writeln!(stream, r#"{{"op":"shutdown"}}"#).map_err(|e| format!("write: {e}"))?;
    let mut response = String::new();
    BufReader::new(stream)
        .read_line(&mut response)
        .map_err(|e| format!("read: {e}"))?;
    server_thread
        .join()
        .map_err(|_| "server panicked".to_string())?
        .map_err(|e| format!("server: {e}"))?;
    let mutex = Arc::into_inner(handler).ok_or("server kept a handler reference")?;
    let fleet = mutex
        .into_inner()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    Ok((total, fleet))
}

/// Measures the cost of armed event instrumentation: the same
/// scaled-down stream driven with the journal disabled and enabled,
/// best of three repeats each.  In-process drives never reach the
/// fleet's request journal (that sits in the server loop), so this
/// isolates the per-request correlation and telemetry plumbing.
fn events_overhead(opts: &LoadgenOpts) -> Result<Value, String> {
    let probe = LoadgenOpts {
        clusters: opts.clusters.clamp(1, 64),
        jobs_per_cluster: opts.jobs_per_cluster.clamp(1, 8),
        mode: DriveMode::InProcess,
        min_throughput: 0.0,
        ..opts.clone()
    };
    let mut best = [u64::MAX; 2]; // [disabled, enabled]
    for (slot, events) in [(0usize, false), (1, true)] {
        for _ in 0..3 {
            let fleet = Arc::new(Fleet::new(fleet_config(&probe).with_events(events))?);
            let started = Instant::now();
            let _ = drive_in_process(&probe, &fleet);
            let ns = started.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
            best[slot] = best[slot].min(ns);
        }
    }
    let [disabled, enabled] = best;
    let ratio = enabled as f64 / disabled.max(1) as f64;
    let within =
        enabled <= disabled.saturating_add(EVENTS_ABS_SLACK_NS) || ratio <= 1.0 + EVENTS_TOLERANCE;
    Ok(json!({
        "disabled_ns": disabled,
        "enabled_ns": enabled,
        "ratio": ratio,
        "tolerance": EVENTS_TOLERANCE,
        "within": within,
    }))
}

/// Runs the load generator and assembles the report.
pub fn run(opts: &LoadgenOpts) -> Result<LoadgenReport, String> {
    let started = Instant::now();
    let (tally, fleet) = match opts.mode {
        DriveMode::InProcess => {
            let fleet = Arc::new(Fleet::new(fleet_config(opts))?);
            let tally = drive_in_process(opts, &fleet);
            let fleet = Arc::into_inner(fleet).ok_or("a worker kept a fleet reference")?;
            (tally, fleet)
        }
        DriveMode::Tcp => drive_tcp(opts, Fleet::new(fleet_config(opts))?)?,
    };
    let elapsed = started.elapsed().as_secs_f64().max(1e-9);

    let mut latencies = tally.latencies_ns;
    latencies.sort_unstable();
    let submitted = tally.accepted + tally.rejected;
    let throughput = submitted as f64 / elapsed;

    let scrape = fleet.submit_latency();
    let events_overhead = events_overhead(opts)?;

    let decision = fleet.decision_wall_histogram();
    let decision_p50 = decision
        .as_ref()
        .and_then(|h| h.quantile(0.50))
        .unwrap_or(0);
    let decision_p99 = decision
        .as_ref()
        .and_then(|h| h.quantile(0.99))
        .unwrap_or(0);
    let decision_count = decision.as_ref().map(|h| h.count()).unwrap_or(0);

    let doc = json!({
        "schema": SCHEMA,
        "config": json!({
            "clusters": opts.clusters,
            "jobs_per_cluster": opts.jobs_per_cluster,
            "batch": opts.batch,
            "threads": opts.threads,
            "cores": host_cores(),
            "seed": opts.seed,
            "capacity": opts.capacity,
            "shards": opts.shards,
            "mode": opts.mode.name(),
        }),
        "results": json!({
            "clusters": fleet.cluster_count(),
            "submitted": submitted,
            "accepted": tally.accepted,
            "rejected": tally.rejected,
            "elapsed_secs": elapsed,
            "throughput_submits_per_sec": throughput,
            "submit_latency_ns": json!({
                "p50": quantile_ns(&latencies, 0.50),
                "p99": quantile_ns(&latencies, 0.99),
                "p999": quantile_ns(&latencies, 0.999),
                "max": latencies.last().copied().unwrap_or(0),
                "samples": latencies.len(),
            }),
            "decision_latency_ns": json!({
                "p50": decision_p50,
                "p99": decision_p99,
                "count": decision_count,
            }),
            // The same submits as seen by the fleet's /statusz
            // self-scrape histogram (bucketed upper bounds).
            "statusz_submit_ns": json!({
                "p50": scrape.quantile(0.50).unwrap_or(0),
                "p99": scrape.quantile(0.99).unwrap_or(0),
                "p999": scrape.quantile(0.999).unwrap_or(0),
                "samples": scrape.count(),
            }),
            "events_overhead": events_overhead.clone(),
        }),
    });

    let text = format!(
        "loadgen ({}): {} clusters, {} submits in {:.3}s -> {:.0} submits/sec\n\
         accepted {} / rejected {}\n\
         submit latency  p50 {:>10} ns   p99 {:>10} ns   p999 {:>10} ns  ({} batched requests)\n\
         decision latency p50 {:>10} ns   p99 {:>10} ns  ({} decisions)\n\
         events overhead  {:.3}x (tolerance {:.0}%, {})\n",
        opts.mode.name(),
        fleet.cluster_count(),
        submitted,
        elapsed,
        throughput,
        tally.accepted,
        tally.rejected,
        quantile_ns(&latencies, 0.50),
        quantile_ns(&latencies, 0.99),
        quantile_ns(&latencies, 0.999),
        latencies.len(),
        decision_p50,
        decision_p99,
        decision_count,
        events_overhead["ratio"].as_f64().unwrap_or(0.0),
        EVENTS_TOLERANCE * 100.0,
        if events_overhead["within"] == Value::Bool(true) {
            "ok"
        } else {
            "EXCEEDED"
        },
    );

    if opts.min_throughput > 0.0 && throughput < opts.min_throughput {
        return Err(format!(
            "throughput {throughput:.0} submits/sec below the required {:.0}\n{text}",
            opts.min_throughput
        ));
    }
    if events_overhead["within"] != Value::Bool(true) {
        return Err(format!(
            "events-enabled drive {:.3}x slower than disabled, beyond the {:.0}% tolerance\n{text}",
            events_overhead["ratio"].as_f64().unwrap_or(0.0),
            EVENTS_TOLERANCE * 100.0,
        ));
    }
    Ok(LoadgenReport { doc, text })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_reports_throughput_and_percentiles() {
        let opts = LoadgenOpts::quick();
        let report = run(&opts).expect("loadgen run");
        let r = &report.doc["results"];
        assert_eq!(report.doc["schema"].as_str(), Some(SCHEMA));
        assert_eq!(r["clusters"].as_u64(), Some(64));
        assert_eq!(
            r["submitted"].as_u64(),
            Some(64 * 8),
            "every generated job reaches admission"
        );
        assert!(r["throughput_submits_per_sec"].as_f64().unwrap_or(0.0) > 0.0);
        assert!(r["submit_latency_ns"]["p99"].as_u64().unwrap_or(0) > 0);
        assert!(
            r["submit_latency_ns"]["p99"].as_u64() >= r["submit_latency_ns"]["p50"].as_u64(),
            "{r}"
        );
        assert!(r["decision_latency_ns"]["count"].as_u64().unwrap_or(0) > 0);
        assert!(
            r["submit_latency_ns"]["p999"].as_u64() >= r["submit_latency_ns"]["p99"].as_u64(),
            "{r}"
        );
        let overhead = &r["events_overhead"];
        assert!(overhead["disabled_ns"].as_u64().unwrap_or(0) > 0, "{r}");
        assert!(overhead["enabled_ns"].as_u64().unwrap_or(0) > 0, "{r}");
        assert_eq!(overhead["within"], Value::Bool(true), "{r}");
    }

    #[test]
    fn statusz_scrape_agrees_with_the_exact_percentiles() {
        let report = run(&LoadgenOpts::quick()).expect("loadgen run");
        let r = &report.doc["results"];
        let exact = &r["submit_latency_ns"];
        let scrape = &r["statusz_submit_ns"];
        assert_eq!(
            scrape["samples"], exact["samples"],
            "every batched submit reaches the self-scrape histogram: {r}"
        );
        // Identical nearest-rank definitions over the same samples:
        // the scrape percentile is the inclusive upper bound of the
        // bucket holding the exact value (unless the exact value
        // saturates past the top bucket).
        for q in ["p50", "p99", "p999"] {
            let e = exact[q].as_u64().unwrap_or(0);
            let s = scrape[q].as_u64().unwrap_or(0);
            assert!(s >= e.min(1_000_000_000), "{q}: scrape {s} < exact {e}");
            assert!(
                s <= e.saturating_mul(10).max(1_000),
                "{q}: scrape {s} beyond exact {e}'s bucket"
            );
        }
    }

    #[test]
    fn admission_outcome_is_deterministic_across_runs_and_thread_counts() {
        let a = run(&LoadgenOpts {
            threads: 4,
            ..LoadgenOpts::quick()
        })
        .expect("run a");
        let b = run(&LoadgenOpts {
            threads: 1,
            ..LoadgenOpts::quick()
        })
        .expect("run b");
        assert_eq!(a.doc["results"]["accepted"], b.doc["results"]["accepted"]);
        assert_eq!(a.doc["results"]["rejected"], b.doc["results"]["rejected"]);
        assert_eq!(
            a.doc["results"]["decision_latency_ns"]["count"],
            b.doc["results"]["decision_latency_ns"]["count"],
            "decision count depends only on the streams"
        );
    }

    #[test]
    fn tcp_mode_matches_in_process_admission() {
        let base = LoadgenOpts {
            clusters: 16,
            jobs_per_cluster: 6,
            threads: 2,
            ..LoadgenOpts::quick()
        };
        let inproc = run(&base).expect("in-process");
        let tcp = run(&LoadgenOpts {
            mode: DriveMode::Tcp,
            ..base
        })
        .expect("tcp");
        assert_eq!(
            inproc.doc["results"]["accepted"],
            tcp.doc["results"]["accepted"]
        );
        assert_eq!(tcp.doc["config"]["mode"].as_str(), Some("tcp"));
    }

    #[test]
    fn min_throughput_gate_fails_loudly() {
        let err = run(&LoadgenOpts {
            clusters: 4,
            jobs_per_cluster: 2,
            min_throughput: f64::INFINITY,
            ..LoadgenOpts::quick()
        })
        .expect_err("unreachable floor");
        assert!(err.contains("below the required"), "{err}");
    }
}
