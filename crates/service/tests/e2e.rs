//! End-to-end suites for the scheduler daemon:
//!
//! 1. **Batch parity** — a virtual-clock daemon fed a workload one job
//!    at a time produces exactly the per-job start times of
//!    [`sbs_sim::simulate`], because both drive the same
//!    [`sbs_sim::SchedulerCore`].
//! 2. **Kill and restart** — a daemon killed mid-stream and recovered
//!    from its snapshot resumes with the same queue contents and loses
//!    or duplicates no job.
//! 3. **TCP front end** — submit / queue / metrics / `GET /metrics` /
//!    shutdown over a real socket.

use sbs_core::PolicySpec;
use sbs_service::{Daemon, Server, ServiceConfig, VirtualClock};
use sbs_sim::engine::{simulate, SimConfig};
use sbs_workload::generator::{random_workload, RandomWorkloadCfg, Workload};
use sbs_workload::job::{JobId, RuntimeKnowledge};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;

/// A small workload with *strictly increasing* submit times.
///
/// The batch engine groups all arrivals at one timestamp into a single
/// decision point; a live daemon necessarily decides per submission.
/// The two are byte-identical whenever timestamps are unique, so parity
/// is asserted on that (realistic) class of workloads.
fn staggered_workload(seed: u64) -> Workload {
    let mut w = random_workload(
        RandomWorkloadCfg {
            jobs: 120,
            capacity: 16,
            ..Default::default()
        },
        seed,
    );
    let mut last = None;
    for job in &mut w.jobs {
        let submit = match last {
            Some(prev) if job.submit <= prev => prev + 1,
            _ => job.submit,
        };
        job.submit = submit;
        last = Some(submit);
    }
    w
}

/// Replays `workload` through a fresh virtual-clock daemon and returns
/// each job's start time.
fn daemon_starts(
    workload: &Workload,
    spec: PolicySpec,
    knowledge: RuntimeKnowledge,
) -> BTreeMap<u32, u64> {
    let mut cfg = ServiceConfig::new(workload.capacity, spec);
    cfg.knowledge = knowledge;
    let mut daemon = Daemon::fresh(cfg);
    for job in &workload.jobs {
        let (id, _) = daemon
            .submit_at(
                job.submit,
                job.nodes,
                job.runtime,
                Some(job.requested),
                job.user,
            )
            .expect("submit");
        assert_eq!(id, job.id, "daemon assigns ids in submission order");
    }
    let (_, leftover) = daemon.drain();
    assert_eq!(leftover, 0, "drain left jobs waiting");
    assert_eq!(daemon.records().len(), workload.jobs.len());
    daemon.records().iter().map(|r| (r.id.0, r.start)).collect()
}

/// Runs the batch simulator and returns each job's start time.
fn batch_starts(
    workload: &Workload,
    spec: PolicySpec,
    knowledge: RuntimeKnowledge,
) -> BTreeMap<u32, u64> {
    let result = simulate(
        workload,
        spec.build(),
        SimConfig {
            knowledge,
            ..Default::default()
        },
    );
    result.records.iter().map(|r| (r.id.0, r.start)).collect()
}

#[test]
fn daemon_matches_batch_simulator_for_backfill() {
    for seed in [1, 7] {
        let w = staggered_workload(seed);
        let batch = batch_starts(&w, PolicySpec::FcfsBackfill, RuntimeKnowledge::Actual);
        let live = daemon_starts(&w, PolicySpec::FcfsBackfill, RuntimeKnowledge::Actual);
        assert_eq!(batch, live, "seed {seed}: FCFS-backfill starts diverge");
    }
}

#[test]
fn daemon_matches_batch_simulator_for_search() {
    // The paper's headline policy, with the requested-runtime knowledge
    // mode for good measure.
    for knowledge in [RuntimeKnowledge::Actual, RuntimeKnowledge::Requested] {
        let w = staggered_workload(3);
        let spec = PolicySpec::dds_lxf_dynb(300);
        let batch = batch_starts(&w, spec.clone(), knowledge);
        let live = daemon_starts(&w, spec, knowledge);
        assert_eq!(batch, live, "{knowledge:?}: DDS/lxf/dynB starts diverge");
    }
}

#[test]
fn kill_and_restart_resumes_with_the_same_queue() {
    let dir = std::env::temp_dir().join("sbs-service-restart-test");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let path = dir.join("state.json");
    std::fs::remove_file(&path).ok();

    let w = staggered_workload(11);
    let cfg =
        ServiceConfig::new(w.capacity, PolicySpec::LxfBackfill).with_snapshots(path.clone(), 4);
    let mut first = Daemon::new(cfg.clone()).expect("fresh daemon");
    let killed_after = 60;
    for job in &w.jobs[..killed_after] {
        first
            .submit_at(
                job.submit,
                job.nodes,
                job.runtime,
                Some(job.requested),
                job.user,
            )
            .expect("submit");
    }
    first.save_snapshot().expect("snapshot").expect("path set");
    let pre_kill = first.snapshot();
    let completed_before: Vec<JobId> = first.records().iter().map(|r| r.id).collect();
    assert_eq!(
        completed_before.len() as u64,
        pre_kill.completed.count,
        "snapshot accounts for every pre-kill completion"
    );
    drop(first); // the "kill": no drain, no further writes

    // Restart from disk: Daemon::new finds the snapshot at the path.
    let mut second = Daemon::new(cfg).expect("recovered daemon");
    let resumed = second.snapshot();
    assert_eq!(resumed, pre_kill, "restart reproduces the exact state");
    assert_eq!(
        resumed.waiting.iter().map(|e| e.job.id).collect::<Vec<_>>(),
        pre_kill
            .waiting
            .iter()
            .map(|e| e.job.id)
            .collect::<Vec<_>>(),
    );

    // Feed the remainder and finish everything.
    for job in &w.jobs[killed_after..] {
        second
            .submit_at(
                job.submit,
                job.nodes,
                job.runtime,
                Some(job.requested),
                job.user,
            )
            .expect("submit");
    }
    let (_, leftover) = second.drain();
    assert_eq!(leftover, 0);

    // No job lost, none duplicated: pre-kill completions and post-restart
    // completions partition the workload.
    let mut all: Vec<JobId> = completed_before;
    all.extend(second.records().iter().map(|r| r.id));
    all.sort();
    let expected: Vec<JobId> = (0..w.jobs.len() as u32).map(JobId).collect();
    assert_eq!(all, expected, "every job completed exactly once");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn tcp_server_speaks_json_and_http() {
    let daemon = Daemon::fresh(ServiceConfig::new(8, PolicySpec::FcfsBackfill));
    let server = Server::new(daemon, VirtualClock::default());
    let listener = std::net::TcpListener::bind(("127.0.0.1", 0)).expect("bind");
    let addr = listener.local_addr().expect("addr");
    let handle = std::thread::spawn(move || server.run(listener));

    let send = |line: &str| -> serde_json::Value {
        let mut stream = TcpStream::connect(addr).expect("connect");
        writeln!(stream, "{line}").expect("write");
        let mut response = String::new();
        BufReader::new(stream)
            .read_line(&mut response)
            .expect("read");
        serde_json::from_str(response.trim()).expect("json response")
    };

    let v = send(r#"{"op":"submit","nodes":4,"runtime":3600,"submit":100}"#);
    assert_eq!(v["ok"], true);
    assert_eq!(v["id"].as_u64(), Some(0));
    let v = send(r#"{"op":"submit","nodes":8,"runtime":60,"submit":200}"#);
    assert_eq!(v["id"].as_u64(), Some(1));
    assert_eq!(v["started"], false, "does not fit beside job 0");

    let v = send(r#"{"op":"queue"}"#);
    assert_eq!(v["now"].as_u64(), Some(200));
    assert_eq!(v["queue"].as_array().map(Vec::len), Some(1));
    assert_eq!(v["running"].as_array().map(Vec::len), Some(1));

    let v = send(r#"{"op":"nonsense"}"#);
    assert_eq!(v["ok"], false);

    // Plain HTTP probe on the same port.
    let mut stream = TcpStream::connect(addr).expect("connect");
    write!(stream, "GET /metrics HTTP/1.0\r\n\r\n").expect("write");
    let mut body = String::new();
    stream.read_to_string(&mut body).expect("read http");
    assert!(body.starts_with("HTTP/1.0 200 OK"), "{body}");
    assert!(body.contains("sbs_queue_depth 1"), "{body}");
    assert!(body.contains("sbs_running_jobs 1"), "{body}");

    let v = send(r#"{"op":"drain"}"#);
    assert_eq!(v["completed"].as_u64(), Some(2));

    let v = send(r#"{"op":"shutdown"}"#);
    assert_eq!(v["ok"], true);
    handle.join().expect("join").expect("clean exit");
}

/// Serves a fresh virtual-clock FCFS-backfill daemon on an ephemeral
/// loopback port from a thread called `name`.
fn spawn_server(
    name: &str,
) -> (
    std::net::SocketAddr,
    std::sync::Arc<std::sync::atomic::AtomicBool>,
    std::thread::JoinHandle<std::io::Result<()>>,
) {
    let daemon = Daemon::fresh(ServiceConfig::new(8, PolicySpec::FcfsBackfill));
    let server = Server::new(daemon, VirtualClock::default());
    let stop = server.shutdown_flag();
    let listener = std::net::TcpListener::bind(("127.0.0.1", 0)).expect("bind");
    let addr = listener.local_addr().expect("addr");
    let handle = std::thread::Builder::new()
        .name(name.to_string())
        .spawn(move || server.run(listener))
        .expect("spawn");
    (addr, stop, handle)
}

/// Round trips on one connection are bounded by the server's wakeup,
/// not by a fixed idle sleep: a loop that slept 2 ms whenever a sweep
/// found nothing to do took over 400 ms for these 200 submits.
#[test]
fn sequential_round_trips_are_not_paced_by_an_idle_sleep() {
    let (addr, stop, handle) = spawn_server("round-trips");
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut response = String::new();
    let began = std::time::Instant::now();
    for i in 0..200u64 {
        let submit = 100 * (i + 1);
        writeln!(
            stream,
            r#"{{"op":"submit","nodes":1,"runtime":10,"submit":{submit}}}"#
        )
        .expect("write");
        response.clear();
        reader.read_line(&mut response).expect("read");
        let v: serde_json::Value = serde_json::from_str(response.trim()).expect("json");
        assert_eq!(v["id"].as_u64(), Some(i), "{response}");
    }
    let took = began.elapsed();
    stop.store(true, std::sync::atomic::Ordering::SeqCst);
    handle.join().expect("join").expect("clean exit");
    assert!(
        took < std::time::Duration::from_millis(150),
        "200 round trips took {took:?}"
    );
}

/// Cumulative user+system CPU ticks of the calling process's thread
/// named `name` (Linux `/proc/self/task/*/stat`, fields 14 and 15).
#[cfg(target_os = "linux")]
fn thread_cpu_ticks(name: &str) -> u64 {
    for entry in std::fs::read_dir("/proc/self/task").expect("task dir") {
        let dir = entry.expect("task entry").path();
        let comm = std::fs::read_to_string(dir.join("comm")).unwrap_or_default();
        if comm.trim() != name {
            continue;
        }
        let stat = std::fs::read_to_string(dir.join("stat")).expect("stat");
        let fields: Vec<&str> = stat
            .rsplit_once(')')
            .expect("comm field")
            .1
            .split_whitespace()
            .collect();
        return fields[11].parse::<u64>().expect("utime")
            + fields[12].parse::<u64>().expect("stime");
    }
    panic!("no thread named {name}");
}

/// An idle server stays idle: with one connected but silent client the
/// readiness wait times out instead of spinning.
#[cfg(target_os = "linux")]
#[test]
fn idle_server_with_a_silent_client_stays_off_the_cpu() {
    const NAME: &str = "idle-server";
    let (addr, stop, handle) = spawn_server(NAME);

    let _silent = TcpStream::connect(addr).expect("connect");
    std::thread::sleep(std::time::Duration::from_millis(100));
    let before = thread_cpu_ticks(NAME);
    std::thread::sleep(std::time::Duration::from_secs(1));
    let spent = thread_cpu_ticks(NAME) - before;
    stop.store(true, std::sync::atomic::Ordering::SeqCst);
    handle.join().expect("join").expect("clean exit");
    // Clock ticks are 10 ms at the usual USER_HZ of 100: 5% of one core
    // over the second is 5 ticks.
    assert!(spent < 5, "idle server used {spent} CPU ticks in 1 s");
}
