//! The repository benchmark.  See `README.md` beside `Cargo.toml` for
//! the workloads, the metric → layer → workload map and how to run it.
//!
//! ```text
//! perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`; earlier lines carry
//! the host stamp and the per-step ladder report.

mod online;
mod replay;
mod stats;

use online::{Ladder, OnlineSpec, Stream};
use replay::{LayerTally, Outcome, ReplaySpec};
use sbs_fleet::Fleet;
use sbs_workload::generator::Workload;
use sbs_workload::system::Month;
use serde_json::{json, Map, Value};
use stats::{mean, median, quantile, secs_since, Fnv, Trace};
use std::collections::BTreeMap;
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

/// The seed whose replay outcomes are recorded below.
const DEFAULT_SEED: u64 = 1;
/// Tenants in every online stream.
const TENANTS: usize = 256;
/// The offered-rate ladder, submits per second.
const RATES: [u64; 6] = [1_000, 2_000, 4_000, 8_000, 16_000, 32_000];
/// Passes up the ladder per run.
const PASSES: usize = 3;
/// The low and high reference steps.
const LO: u64 = 1_000;
const HI: u64 = 8_000;
/// Repeats of the set-up phase (its median is `setup_s`).
const SETUP_REPEATS: usize = 3;

/// `(decisions, nodes, digest)` of each trace on [`DEFAULT_SEED`].
const RECORDED_DDS: [(u64, u64, u64); 10] = [
    (6_399, 12_777_240, 12_179_962_223_469_937_951),
    (6_392, 30_572_192, 10_742_192_275_900_053_611),
    (6_389, 29_139_583, 14_071_549_820_003_926_031),
    (6_375, 24_070_861, 17_638_387_013_747_630_602),
    (6_388, 28_558_113, 4_343_650_834_755_574_092),
    (6_397, 25_528_759, 12_351_985_162_477_226_306),
    (6_389, 27_730_395, 12_010_405_341_500_453_619),
    (6_394, 25_986_424, 17_589_203_221_732_207_818),
    (6_386, 27_986_502, 8_281_204_281_950_578_725),
    (6_392, 20_595_199, 1_316_143_904_458_811_570),
];
const RECORDED_DEEP: [(u64, u64, u64); 4] = [
    (12_014, 8_436_241, 11_854_692_809_583_696_165),
    (12_005, 9_412_982, 12_517_461_821_253_699_962),
    (12_010, 7_538_777, 2_661_371_863_424_629_515),
    (12_002, 8_647_605, 1_379_765_373_032_917_138),
];

const WORKLOADS: [&str; 3] = ["replay-dds", "replay-deep-sharded", "fleet-tcp"];

/// One workload.  Every workload reports every end-to-end metric, so
/// each has a batch path (a month replay, or the fleet stream driven
/// in-process) and runs the TCP ladder; `batch_share` of `--seconds`
/// goes to the batch path and the rest to the ladder.
struct Def {
    name: &'static str,
    replay: Option<ReplaySpec>,
    recorded: &'static [(u64, u64, u64)],
    online: OnlineSpec,
    batch_share: f64,
}

fn def(name: &str, seconds: f64, nproc: usize) -> Option<Def> {
    let online = |batch_share: f64| OnlineSpec {
        tenants: TENANTS,
        rates: RATES.to_vec(),
        hi: HI,
        passes: PASSES,
        // Step durations fall as 1/sqrt(rate): one pass lasts about 3x
        // its first step (1 + 2^-1/2 + ... + 32^-1/2, with the fast steps
        // capped below).
        step_s: seconds * (1.0 - batch_share) / (3.0 * PASSES as f64),
        // 10 samples beyond each step's p99 in every pass; the fast steps
        // need no more than a few hundred milliseconds.
        min_step_submits: 1_000,
        max_step_submits: 16_000,
    };
    let dds = |month, load, budget, threads, traces| ReplaySpec {
        month,
        load,
        budget,
        threads,
        traces,
        span_scale: 1.0,
    };
    Some(match name {
        "replay-dds" => Def {
            name: "replay-dds",
            replay: Some(dds(Month::Jun03, None, 10_000, 1, RECORDED_DDS.len())),
            recorded: &RECORDED_DDS,
            online: online(0.6),
            batch_share: 0.6,
        },
        "replay-deep-sharded" => Def {
            name: "replay-deep-sharded",
            replay: Some(dds(
                Month::Oct03,
                Some(0.9),
                1_000,
                nproc,
                RECORDED_DEEP.len(),
            )),
            recorded: &RECORDED_DEEP,
            online: online(0.75),
            batch_share: 0.75,
        },
        "fleet-tcp" => Def {
            name: "fleet-tcp",
            replay: None,
            recorded: &[],
            online: online(0.2),
            batch_share: 0.2,
        },
        _ => return None,
    })
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 50.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => args.trace = value == "1",
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// Everything a run builds before it measures.
struct Prepared {
    traces: Vec<Workload>,
    stream: Stream,
    fleet: Fleet,
    listener: TcpListener,
}

fn prepare(d: &Def, seed: u64) -> Result<(Prepared, f64), String> {
    let t = Instant::now();
    let traces = d.replay.as_ref().map_or(Vec::new(), |r| r.workloads(seed));
    let stream = online::stream(&d.online, seed);
    let gen_s = secs_since(t);
    if let Some(r) = &d.replay {
        std::hint::black_box(r.policy(r.threads));
    }
    let fleet = Fleet::new(online::fleet_config())?;
    let listener = TcpListener::bind(("127.0.0.1", 0)).map_err(|e| format!("bind: {e}"))?;
    Ok((
        Prepared {
            traces,
            stream,
            fleet,
            listener,
        },
        gen_s,
    ))
}

/// Accumulates operations attempted and the checks that failed.
#[derive(Default)]
struct Checks {
    attempted: u64,
    failures: Vec<String>,
}

impl Checks {
    fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(what());
        }
    }
}

/// The metric map printed on the last line.
#[derive(Default)]
struct Metrics(BTreeMap<String, (f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.insert(name.into(), (value, unit));
    }

    fn to_value(&self) -> Value {
        let mut map = Map::new();
        for (k, (v, u)) in &self.0 {
            map.insert(k.clone(), json!({ "value": *v, "unit": *u }));
        }
        Value::Object(map)
    }
}

fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .map_or_else(|| PathBuf::from("."), Path::to_path_buf)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

fn commit(root: &Path) -> String {
    let ceiling = root.parent().unwrap_or(root);
    std::process::Command::new("git")
        .arg("-C")
        .arg(root)
        .args(["rev-parse", "HEAD"])
        .env("GIT_CEILING_DIRECTORIES", ceiling)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// FNV-1a over the sources under test (`crates/`, `shims/`), so a stamp
/// identifies the code even where no commit id is available.
fn source_digest(root: &Path) -> String {
    fn walk(dir: &Path, files: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                if p.file_name().is_some_and(|n| n != "target") {
                    walk(&p, files);
                }
            } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
                files.push(p);
            }
        }
    }
    let mut files = Vec::new();
    walk(&root.join("crates"), &mut files);
    walk(&root.join("shims"), &mut files);
    files.sort();
    let mut h = Fnv::default();
    for f in &files {
        if let (Ok(rel), Ok(bytes)) = (f.strip_prefix(root), std::fs::read(f)) {
            h.bytes(rel.to_string_lossy().as_bytes());
            h.bytes(&bytes);
        }
    }
    format!("{:016x}", h.finish())
}

fn stamp(args: &Args, d: &Def, nproc: usize) -> Value {
    let root = repo_root();
    let replay_threads = d.replay.as_ref().map_or(0, |r| r.threads);
    json!({
        "stamp": json!({
            "workload": d.name,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "nproc": nproc,
            "cpu_model": cpu_model(),
            "commit": commit(&root),
            "source_digest": source_digest(&root),
            "build_profile": if cfg!(debug_assertions) { "debug" } else { "release" },
            "replay_search_threads": replay_threads,
            "server_threads": 1,
            "load_threads": 2,
            "load_connections": 2,
        })
    })
}

/// On the default seed, every trace's outcome must equal the recorded
/// one.
fn check_recorded(checks: &mut Checks, d: &Def, seed: u64, outcomes: &[Outcome]) {
    if seed != DEFAULT_SEED {
        return;
    }
    for (k, (o, &(decisions, nodes, digest))) in outcomes.iter().zip(d.recorded).enumerate() {
        let want = Outcome {
            decisions,
            nodes,
            digest,
        };
        checks.expect(*o == want, || {
            format!("trace {k}: outcome {o:?} differs from the recorded {want:?}")
        });
    }
}

/// Runs the ladder on the prepared server and checks every reply and
/// the final queues against an in-process drive of the same prefix.
fn online_phase(
    checks: &mut Checks,
    d: &Def,
    stream: &Stream,
    fleet: Fleet,
    listener: TcpListener,
    between: &mut dyn FnMut(usize) -> Result<(), String>,
) -> Result<Ladder, String> {
    let ladder = online::run_ladder(&d.online, stream, fleet, listener, between)?;
    checks.attempted += ladder.sent as u64 + ladder.scrape_ms.len() as u64;
    checks.expect(ladder.not_ok == 0, || {
        format!("{} TCP replies were not ok", ladder.not_ok)
    });
    checks.expect(ladder.scrape_failures == 0, || {
        format!("{} scrapes failed", ladder.scrape_failures)
    });
    let reference = online::drive(&stream.lines[..ladder.sent], None)?;
    checks.expect(reference.accepted == ladder.accepted, || {
        format!(
            "TCP accepted {} submits, the in-process drive {}",
            ladder.accepted, reference.accepted
        )
    });
    checks.expect(reference.reply_digest == ladder.reply_digest, || {
        "TCP replies differ from the in-process drive's".into()
    });
    let at = reference.fleet.now().max(ladder.fleet.now());
    let (a, b) = (
        online::queue_digest(&ladder.fleet, TENANTS, at),
        online::queue_digest(&reference.fleet, TENANTS, at),
    );
    checks.expect(a == b, || {
        format!("final queues differ: TCP {a:016x}, in-process {b:016x}")
    });
    Ok(ladder)
}

fn ladder_report(ladder: &Ladder) -> Value {
    let passes: Vec<Value> = ladder
        .passes
        .iter()
        .map(|pass| {
            let steps: Vec<Value> = pass
                .iter()
                .map(|s| {
                    json!({
                        "rate": s.rate,
                        "sent": s.sent,
                        "p50_ms": s.latency(0.5),
                        "p99_ms": s.latency(0.99),
                        "late_p99_ms": s.late(0.99),
                        "late_max_ms": s.late(1.0),
                        "achieved_frac": s.achieved_frac,
                        "aborted": s.aborted,
                        "retries": s.retries,
                        "valid": s.valid(),
                        "meets_limit": s.meets_limit(),
                    })
                })
                .collect();
            Value::Array(steps)
        })
        .collect();
    json!({ "ladder": Value::Array(passes), "max_ok_rate": ladder.max_ok_rate() })
}

/// The batch path of an untraced run, measured one unit at a time (one
/// replay, or one in-process drive of the stream) so the units can be
/// spread between the ladder steps: a drifting host then weighs on both
/// paths alike.
enum Batch<'a> {
    Replay(replay::Measure<'a>),
    Drive {
        lines: &'a [String],
        walls: Vec<f64>,
        handle_us: Vec<f64>,
        not_ok: u64,
    },
}

/// A [`Batch`] and the wall time its units have taken so far.
struct Paced<'a> {
    batch: Batch<'a>,
    spent_s: f64,
}

impl Paced<'_> {
    fn unit(&mut self) -> Result<(), String> {
        let t = Instant::now();
        match &mut self.batch {
            Batch::Replay(m) => m.replay_next()?,
            Batch::Drive {
                lines,
                walls,
                handle_us,
                not_ok,
            } => {
                let dr = online::drive(lines, None)?;
                walls.push(dr.wall_s);
                handle_us.extend(dr.handle_ns.iter().map(|&ns| ns as f64 / 1e3));
                *not_ok += dr.not_ok;
            }
        }
        self.spent_s += secs_since(t);
        Ok(())
    }

    /// Runs units until they have taken `budget_s` in total.
    fn run_to(&mut self, budget_s: f64) -> Result<(), String> {
        while self.spent_s < budget_s {
            self.unit()?;
        }
        Ok(())
    }

    /// Every trace replayed, or at least three drives.
    fn covered(&self) -> bool {
        match &self.batch {
            Batch::Replay(m) => m.covered(),
            Batch::Drive { walls, .. } => walls.len() >= 3,
        }
    }
}

fn untraced(args: &Args, d: &Def, checks: &mut Checks) -> Result<Metrics, String> {
    let mut m = Metrics::default();
    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let mut prepared = None;
    for _ in 0..SETUP_REPEATS {
        let t = Instant::now();
        let (p, _) = prepare(d, args.seed)?;
        setups.push(secs_since(t));
        prepared = Some(p);
    }
    let Prepared {
        traces,
        stream,
        fleet,
        listener,
    } = prepared.ok_or("no set-up ran")?;
    m.put("setup_s", median(&setups), "s");

    // Sharded replays must equal sequential ones on every trace.
    let mut sequential = Vec::new();
    let mut paced = Paced {
        batch: match &d.replay {
            Some(spec) => {
                if spec.threads > 1 {
                    for w in &traces {
                        sequential.push(replay::replay(spec, w, 1)?.outcome);
                    }
                }
                Batch::Replay(replay::Measure::new(spec, &traces))
            }
            None => Batch::Drive {
                lines: &stream.lines[..stream.nominal],
                walls: Vec::new(),
                handle_us: Vec::new(),
                not_ok: 0,
            },
        },
        spent_s: 0.0,
    };
    let budget = args.seconds * d.batch_share;
    let slots = (PASSES * RATES.len() + 1) as f64;
    let ladder = online_phase(checks, d, &stream, fleet, listener, &mut |i| {
        paced.run_to(budget * (i + 1) as f64 / slots)
    })?;
    paced.run_to(budget)?;
    while !paced.covered() {
        paced.unit()?;
    }

    match paced.batch {
        Batch::Replay(measure) => {
            let batch = measure.finish();
            checks.attempted += batch.replays + sequential.len() as u64;
            for f in &batch.failures {
                checks.expect(false, || f.clone());
            }
            for (k, (seq, sharded)) in sequential.iter().zip(&batch.outcomes).enumerate() {
                checks.expect(seq == sharded, || {
                    format!("trace {k}: sharded {sharded:?} differs from sequential {seq:?}")
                });
            }
            check_recorded(checks, d, args.seed, &batch.outcomes);
            let nodes: u64 = batch.outcomes.iter().map(|o| o.nodes).sum();
            println!(
                "{}",
                json!({ "batch": json!({ "replays": batch.replays, "nodes": nodes }) })
            );
            m.put("replay_s", batch.replay_s, "s");
            m.put("decision_mean_us", batch.decision_mean_us, "us");
            m.put("decision_p99_us", batch.decision_p99_us, "us");
        }
        Batch::Drive {
            walls,
            handle_us,
            not_ok,
            ..
        } => {
            checks.attempted += walls.len() as u64;
            checks.expect(not_ok == 0, || {
                format!("{not_ok} in-process submits were not ok")
            });
            println!("{}", json!({ "batch": json!({ "drives": walls.len() }) }));
            m.put("replay_s", median(&walls), "s");
            m.put("decision_mean_us", mean(&handle_us), "us");
            m.put("decision_p99_us", quantile(&handle_us, 0.99), "us");
        }
    }

    println!("{}", ladder_report(&ladder));
    if !(ladder.ran(LO) && ladder.ran(HI)) {
        return Err("the ladder ended before its reference steps".into());
    }
    m.put(
        "submit_p50_ms_lo",
        ladder.best(LO, |s| s.latency(0.50)),
        "ms",
    );
    m.put(
        "submit_p99_ms_lo",
        ladder.best(LO, |s| s.latency(0.99)),
        "ms",
    );
    m.put(
        "submit_p50_ms_hi",
        ladder.best(HI, |s| s.latency(0.50)),
        "ms",
    );
    m.put(
        "submit_p99_ms_hi",
        ladder.best(HI, |s| s.latency(0.99)),
        "ms",
    );
    m.put("max_ok_rate", ladder.max_ok_rate(), "1/s");
    m.put("scrape_p90_ms", quantile(&ladder.scrape_ms, 0.90), "ms");
    m.put("peak_rss_mb", peak_rss_mb(), "MB");
    Ok(m)
}

fn frac(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn traced(args: &Args, d: &Def, nproc: usize, checks: &mut Checks) -> Result<Metrics, String> {
    let mut m = Metrics::default();
    let mut trace = Trace::default();
    let (p, gen_s) = prepare(d, args.seed)?;
    m.put("workload.gen_s", gen_s, "s");

    // Replay layers: one traced replay per trace at the workload's thread
    // count, the same decisions at one thread for the fan-out ratio, and
    // one untraced replay for the tracing overhead.
    let mut tally = LayerTally::default();
    let mut decide_us: Vec<f64> = Vec::new();
    let (mut sim_ns, mut fanout, mut overhead) = (0u64, 0.0, 0.0);
    if let Some(spec) = &d.replay {
        let mut outcomes = Vec::new();
        let mut first_wall = 0.0;
        let mut seq_decide_ns = 0u64;
        for (k, w) in p.traces.iter().enumerate() {
            let r = replay::replay_traced(spec, w, spec.threads, k as u64, &mut trace)?;
            sim_ns += (r.wall_s * 1e9) as u64;
            tally.add(&r.tally);
            decide_us.extend(r.decide_ns.iter().map(|&ns| ns as f64 / 1e3));
            if k == 0 {
                first_wall = r.wall_s;
            }
            if spec.threads > 1 {
                let seq = replay::replay_traced(spec, w, 1, k as u64, &mut trace)?;
                checks.expect(seq.outcome == r.outcome, || {
                    format!("trace {k}: sharded differs from sequential")
                });
                seq_decide_ns += seq.tally.decide_ns;
            }
            outcomes.push(r.outcome);
        }
        checks.attempted += outcomes.len() as u64;
        check_recorded(checks, d, args.seed, &outcomes);
        if spec.threads > 1 {
            fanout = frac(tally.decide_ns as f64, seq_decide_ns as f64);
        } else if nproc > 1 {
            // The workload runs sequentially; the ratio says what fanning
            // its first trace out over every core would do.
            let wide = replay::replay_traced(spec, &p.traces[0], nproc, 0, &mut trace)?;
            let narrow = replay::replay_traced(spec, &p.traces[0], 1, 0, &mut trace)?;
            checks.expect(wide.outcome == narrow.outcome, || {
                "trace 0: sharded differs from sequential".into()
            });
            fanout = frac(wide.tally.decide_ns as f64, narrow.tally.decide_ns as f64);
        }
        let plain = replay::replay(spec, &p.traces[0], spec.threads)?;
        overhead = frac(first_wall, plain.wall_s);
    }
    let self_ns = sim_ns.saturating_sub(tally.decide_ns + tally.probe_ns());
    let searched = tally.searched as f64;
    m.put("simulator.self_s", self_ns as f64 / 1e9, "s");
    m.put("simulator.decisions", tally.calls as f64, "count");
    m.put("core.decide_s", tally.decide_ns as f64 / 1e9, "s");
    m.put("core.decide_p50_us", quantile(&decide_us, 0.50), "us");
    m.put(
        "core.setup_us",
        frac(tally.probe_ns() as f64 / 1e3, searched),
        "us",
    );
    m.put(
        "core.profile_us",
        frac(tally.profile_ns as f64 / 1e3, searched),
        "us",
    );
    m.put(
        "core.order_us",
        frac(tally.order_ns as f64 / 1e3, searched),
        "us",
    );
    m.put(
        "core.problem_us",
        frac(tally.problem_ns as f64 / 1e3, searched),
        "us",
    );
    let nodes = tally.nodes as f64;
    m.put("dsearch.nodes", nodes, "count");
    m.put(
        "dsearch.ns_per_node",
        frac(tally.decide_ns as f64, nodes),
        "ns",
    );
    m.put(
        "dsearch.exhausted_frac",
        frac(tally.exhausted as f64, searched),
        "ratio",
    );
    m.put(
        "dsearch.nofit_decision_frac",
        frac(tally.nofit_decisions as f64, searched),
        "ratio",
    );
    m.put(
        "dsearch.nofit_node_frac",
        frac(tally.nofit_nodes as f64, nodes),
        "ratio",
    );
    m.put(
        "dsearch.zero_start_node_frac",
        frac(tally.zero_start_nodes as f64, nodes),
        "ratio",
    );
    m.put("dsearch.fanout_ratio", fanout, "ratio");

    // Fleet and service layers, in-process on one pass of the ladder.
    let lines = &p.stream.lines[..p.stream.nominal];
    let plain = online::drive(lines, None)?;
    let drive = online::drive(lines, Some(&mut trace))?;
    checks.expect(plain.not_ok == 0 && drive.not_ok == 0, || {
        "in-process submits were not ok".into()
    });
    checks.expect(plain.reply_digest == drive.reply_digest, || {
        "tracing changed the in-process replies".into()
    });
    if d.replay.is_none() {
        overhead = frac(drive.wall_s, plain.wall_s);
    }
    let handle_us: Vec<f64> = drive.handle_ns.iter().map(|&ns| ns as f64 / 1e3).collect();
    let parse_ns: Vec<f64> = drive.parse_ns.iter().map(|&ns| ns as f64).collect();
    let handle_p50 = quantile(&handle_us, 0.50);
    m.put("fleet.handle_p50_us", handle_p50, "us");
    m.put("fleet.handle_p99_us", quantile(&handle_us, 0.99), "us");
    m.put("service.parse_ns", median(&parse_ns), "ns");
    let one = online::drive_partitioned(&p.stream, 1)?;
    let all = online::drive_partitioned(&p.stream, nproc)?;
    m.put("fleet.shard_scaling", frac(all, one), "ratio");
    let f = &drive.fleet;
    m.put(
        "fleet.metrics_render_us",
        online::render_us(20, || f.metrics_text().len()),
        "us",
    );
    m.put(
        "fleet.statusz_render_us",
        online::render_us(20, || f.statusz_value(false).to_string().len()),
        "us",
    );

    let ladder = online_phase(checks, d, &p.stream, p.fleet, p.listener, &mut |_| Ok(()))?;
    println!("{}", ladder_report(&ladder));
    let lo_p50 = ladder.best(LO, |s| s.latency(0.5));
    m.put(
        "service.transport_share",
        1.0 - frac(handle_p50 / 1e3, lo_p50),
        "ratio",
    );
    // Medians over passes; 0 for a step no pass reached.
    for rate in RATES {
        let label = format!("{}k", rate / 1_000);
        m.put(
            format!("loadgen.late_p99_ms.{label}"),
            ladder.median(rate, |s| s.late(0.99)),
            "ms",
        );
        m.put(
            format!("loadgen.late_max_ms.{label}"),
            ladder.median(rate, |s| s.late(1.0)),
            "ms",
        );
        m.put(
            format!("loadgen.achieved_frac.{label}"),
            ladder.median(rate, |s| s.achieved_frac),
            "ratio",
        );
    }
    m.put("trace.overhead_frac", overhead, "ratio");

    let dir = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from(".bench_build"), PathBuf::from);
    let path = dir.join("perfbench-spans").join(format!("{}.tsv", d.name));
    trace
        .write(&path)
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!(
        "{}",
        json!({ "spans": trace.len(), "spans_file": path.display().to_string() })
    );
    Ok(m)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let Some(d) = def(&args.workload, args.seconds, nproc) else {
        eprintln!("perfbench: unknown workload {}", args.workload);
        return ExitCode::from(2);
    };
    println!("{}", stamp(&args, &d, nproc));
    if d.name == "replay-deep-sharded" && nproc < 2 {
        eprintln!(
            "perfbench: replay-deep-sharded is not applicable on a 1-core host (no thread column)"
        );
        return ExitCode::from(3);
    }
    let mut checks = Checks::default();
    let measured = if args.trace {
        traced(&args, &d, nproc, &mut checks)
    } else {
        untraced(&args, &d, &mut checks)
    };
    let metrics = match measured {
        Ok(m) => m,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(1);
        }
    };
    for f in &checks.failures {
        eprintln!("perfbench: check failed: {f}");
    }
    println!(
        "{}",
        json!({
            "correct": checks.failures.is_empty(),
            "attempted": checks.attempted.max(1),
            "failed": checks.failures.len(),
            "metrics": metrics.to_value(),
        })
    );
    ExitCode::SUCCESS
}
