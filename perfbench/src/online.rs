//! The online request path: seeded multi-tenant submit streams served
//! by `Server::run` over a `Fleet` on loopback, driven open loop up a
//! ladder of offered rates; plus the in-process drives of the same
//! stream that check the TCP replies and time the fleet layer alone.

use crate::stats::{derive_seed, median, ns_since, quantile, Fnv, Trace};
use sbs_core::PolicySpec;
use sbs_fleet::{Fleet, FleetConfig};
use sbs_service::protocol::{parse_routed, Request};
use sbs_service::{Server, VirtualClock};
use sbs_workload::generator::{random_workload, RandomWorkloadCfg};
use sbs_workload::time::{Time, HOUR};
use serde_json::Value;
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Submit p99 at or under this meets the latency limit.
pub const LIMIT_P99_MS: f64 = 5.0;
/// Share of the offered rate a step must achieve to meet the limit.
pub const MIN_ACHIEVED: f64 = 0.95;
/// A step whose generator ran later than this at p99 is invalid (sleep
/// overshoot alone reaches a few hundred microseconds on a busy VM).
pub const MAX_LATE_P99_MS: f64 = 2.0;
/// A step is cut short once its oldest unanswered request is this old.
const ABORT_AGE: Duration = Duration::from_millis(250);
/// Re-runs allowed for a step that missed the limit.
const MAX_RETRIES: u32 = 2;
/// Longest wait for outstanding replies before the run errors out.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(60);
/// Nodes per tenant machine (`serve-fleet`'s default).
const CAPACITY: u32 = 128;
/// Offered load of each tenant's own stream: queues stay short, so the
/// request path, not scheduling, sets the cost of a submit.
const TENANT_LOAD: f64 = 0.5;
/// Period of the `GET /metrics` scrapes.
const SCRAPE_EVERY: Duration = Duration::from_millis(50);
/// Shortest and longest runtimes of the generated jobs.
const RUNTIMES: (Time, Time) = (60, 8 * HOUR);

/// One online workload's definition.
#[derive(Debug, Clone)]
pub struct OnlineSpec {
    /// Tenants (clusters) submitting.
    pub tenants: usize,
    /// Offered submit rates, ascending (submits per second).
    pub rates: Vec<u64>,
    /// The high reference step; every step up to it always runs.
    pub hi: u64,
    /// Passes up the ladder; each step reports its best pass.
    pub passes: usize,
    /// Seconds the first step of each pass lasts (see
    /// [`OnlineSpec::step_submits`]).
    pub step_s: f64,
    /// Fewest submits per step (enough samples beyond its p99).
    pub min_step_submits: usize,
    /// Most submits per step (the fast steps need no more).
    pub max_step_submits: usize,
}

impl OnlineSpec {
    /// Submits sent by the step at `rate`.  The first step lasts
    /// `step_s`; a step `k` times faster lasts `step_s / sqrt(k)`, so the
    /// slow steps, whose tails a host stall moves most, get the longest
    /// windows while the fast ones still get the most samples.
    pub fn step_submits(&self, rate: u64) -> usize {
        let base = self.rates.first().copied().unwrap_or(rate) as f64;
        ((self.step_s * (rate as f64 * base).sqrt()).round() as usize)
            .clamp(self.min_step_submits, self.max_step_submits)
    }

    /// Submits one pass up the ladder sends.
    pub fn pass_submits(&self) -> usize {
        self.rates.iter().map(|&r| self.step_submits(r)).sum()
    }
}

/// The fleet under test: `serve-fleet --policy fcfs-bf --virtual-clock`
/// with every other setting at its default.
pub fn fleet_config() -> FleetConfig {
    FleetConfig::new(CAPACITY, PolicySpec::FcfsBackfill).with_event_mode(sbs_obs::TimeMode::Virtual)
}

/// Tenant `i`'s cluster id.
pub fn tenant_id(i: usize) -> String {
    format!("t{i:03}")
}

/// A generated submit stream, merged across tenants by submit time.
#[derive(Debug, Clone)]
pub struct Stream {
    /// One protocol line per submit.
    pub lines: Vec<String>,
    /// Lines one pass up the ladder sends.
    pub nominal: usize,
    /// The tenant index of each line.
    pub tenant: Vec<usize>,
}

/// Generates enough submits for every ladder step.  Tenant `i`'s jobs
/// are seeded from `(seed, i)`; arrivals spread over a span that gives
/// each tenant [`TENANT_LOAD`].
pub fn stream(spec: &OnlineSpec, seed: u64) -> Stream {
    // Room for every pass plus a quarter more for re-runs.
    let nominal = spec.pass_submits();
    let needed = spec.passes * nominal * 5 / 4;
    let per_tenant = needed.div_ceil(spec.tenants) + 1;
    let (lo, hi) = (RUNTIMES.0 as f64, RUNTIMES.1 as f64);
    let mean_runtime = (hi - lo) / (hi / lo).ln();
    let mean_nodes = (1.0 + f64::from(CAPACITY)) / 2.0;
    let span = (per_tenant as f64 * mean_nodes * mean_runtime / (f64::from(CAPACITY) * TENANT_LOAD))
        .ceil() as Time;
    let cfg = RandomWorkloadCfg {
        jobs: per_tenant,
        capacity: CAPACITY,
        span,
        min_runtime: RUNTIMES.0,
        max_runtime: RUNTIMES.1,
    };
    let tenants: Vec<_> = (0..spec.tenants)
        .map(|i| random_workload(cfg, derive_seed(seed, 1_000 + i as u64)).jobs)
        .collect();
    let mut order: Vec<(Time, usize, usize)> = tenants
        .iter()
        .enumerate()
        .flat_map(|(t, jobs)| {
            jobs.iter()
                .enumerate()
                .map(move |(j, job)| (job.submit, t, j))
        })
        .collect();
    order.sort_unstable();
    let mut out = Stream {
        nominal,
        lines: Vec::with_capacity(order.len()),
        tenant: Vec::with_capacity(order.len()),
    };
    for (_, t, j) in order {
        let job = &tenants[t][j];
        out.lines.push(format!(
            r#"{{"op":"submit","cluster":"{}","nodes":{},"runtime":{},"requested":{},"user":{},"submit":{}}}"#,
            tenant_id(t),
            job.nodes,
            job.runtime,
            job.requested,
            job.user,
            job.submit
        ));
        out.tenant.push(t);
    }
    out
}

/// One ladder step's measurements.
#[derive(Debug, Clone)]
pub struct Step {
    /// Offered rate, submits per second.
    pub rate: u64,
    /// Submits sent.
    pub sent: usize,
    /// Submit latencies from the intended send time, milliseconds.
    pub latency_ms: Vec<f64>,
    /// How late the generator picked each submit up, milliseconds.
    pub late_ms: Vec<f64>,
    /// Achieved over offered rate.
    pub achieved_frac: f64,
    /// Cut short because replies fell too far behind.
    pub aborted: bool,
    /// Earlier runs of this step that missed the limit and were replaced.
    pub retries: u32,
}

impl Step {
    /// Latency quantile, milliseconds.
    pub fn latency(&self, q: f64) -> f64 {
        quantile(&self.latency_ms, q)
    }

    /// Generator lateness quantile, milliseconds.
    pub fn late(&self, q: f64) -> f64 {
        quantile(&self.late_ms, q)
    }

    /// The generator kept its schedule.  Latency is timed from the
    /// intended send time, so a late generator can only make a step look
    /// worse: an invalid step that still meets the limit counts, and one
    /// that misses it says nothing about the server.
    pub fn valid(&self) -> bool {
        self.late(0.99) <= MAX_LATE_P99_MS
    }

    /// Complete, within the latency limit and the offered rate.
    pub fn meets_limit(&self) -> bool {
        !self.aborted && self.latency(0.99) <= LIMIT_P99_MS && self.achieved_frac >= MIN_ACHIEVED
    }
}

/// The TCP ladder's results.
pub struct Ladder {
    /// The steps of each pass up the ladder, in order.
    pub passes: Vec<Vec<Step>>,
    /// `GET /metrics` round trips, milliseconds.
    pub scrape_ms: Vec<f64>,
    /// Scrapes that failed or answered other than `200 OK`.
    pub scrape_failures: u64,
    /// Submits sent, discarded step runs included (a prefix of the stream).
    pub sent: usize,
    /// Replies with `"ok":true`.
    pub accepted: u64,
    /// Replies without it.
    pub not_ok: u64,
    /// FNV-1a over every reply line.
    pub reply_digest: u64,
    /// The fleet as the server left it.
    pub fleet: Fleet,
}

impl Ladder {
    /// `f` of the step at `rate` in each pass that ran it.
    fn runs(&self, rate: u64, f: impl Fn(&Step) -> f64) -> Vec<f64> {
        self.passes
            .iter()
            .filter_map(|p| p.iter().find(|s| s.rate == rate))
            .map(f)
            .collect()
    }

    /// Median over passes of `f` of the step at `rate` (`0` when no pass
    /// ran it).
    pub fn median(&self, rate: u64, f: impl Fn(&Step) -> f64) -> f64 {
        median(&self.runs(rate, f))
    }

    /// Lowest over passes of `f` of the step at `rate` (`0` when no pass
    /// ran it).  A host stall slows a pass and never speeds one up, so
    /// the least disturbed pass reads the server most closely.
    pub fn best(&self, rate: u64, f: impl Fn(&Step) -> f64) -> f64 {
        let runs = self.runs(rate, f);
        runs.iter().copied().reduce(f64::min).unwrap_or(0.0)
    }

    /// Whether any pass ran the step at `rate`.
    pub fn ran(&self, rate: u64) -> bool {
        self.passes.iter().flatten().any(|s| s.rate == rate)
    }

    /// Highest rate, over passes, such that it and every lower step of
    /// the pass met the limit (the best pass, as in [`Ladder::best`]).
    /// A step counts as missing the limit even when it ran invalid, so a
    /// host too busy to generate the load lowers the figure, never
    /// raises it.
    pub fn max_ok_rate(&self) -> f64 {
        self.passes
            .iter()
            .map(|p| {
                p.iter()
                    .take_while(|s| s.meets_limit())
                    .last()
                    .map_or(0.0, |s| s.rate as f64)
            })
            .fold(0.0, f64::max)
    }
}

/// What the reply reader shares with the generator.
struct Replies {
    /// Receive instant of each reply, in request order.
    recv: Mutex<Vec<Instant>>,
    /// `recv.len()`, readable without the lock.
    count: AtomicUsize,
}

/// The reader thread's tally.
#[derive(Debug, Default)]
struct ReaderOut {
    accepted: u64,
    not_ok: u64,
    digest: Fnv,
}

fn read_replies(stream: TcpStream, shared: &Replies) -> Result<ReaderOut, String> {
    let mut reader = BufReader::with_capacity(1 << 16, stream);
    let mut out = ReaderOut::default();
    let mut line = String::new();
    loop {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) => return Ok(out),
            Ok(_) => {
                let now = Instant::now();
                let n = {
                    let mut recv = shared.recv.lock().expect("reply log poisoned");
                    recv.push(now);
                    recv.len()
                };
                shared.count.store(n, Ordering::Release);
                if line.contains(r#""ok":true"#) {
                    out.accepted += 1;
                } else {
                    out.not_ok += 1;
                }
                out.digest.bytes(line.trim_end().as_bytes());
                out.digest.bytes(b"\n");
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(format!("reading replies: {e}")),
        }
    }
}

/// `GET /metrics` on a fresh non-blocking connection, at a fixed cadence
/// and never more than one at a time.
struct Scraper {
    addr: SocketAddr,
    next_due: Instant,
    in_flight: Option<(TcpStream, Instant, Vec<u8>)>,
    samples_ms: Vec<f64>,
    failures: u64,
}

impl Scraper {
    fn poll(&mut self, now: Instant) {
        if let Some((stream, issued, head)) = &mut self.in_flight {
            let mut buf = [0u8; 16_384];
            loop {
                match stream.read(&mut buf) {
                    Ok(0) => {
                        if head.starts_with(b"HTTP/1.0 200") {
                            self.samples_ms.push(issued.elapsed().as_secs_f64() * 1e3);
                        } else {
                            self.failures += 1;
                        }
                        self.in_flight = None;
                        break;
                    }
                    Ok(n) => {
                        if head.len() < 16 {
                            head.extend_from_slice(&buf[..n.min(16)]);
                        }
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    Err(_) => {
                        self.failures += 1;
                        self.in_flight = None;
                        break;
                    }
                }
            }
        }
        if self.in_flight.is_none() && now >= self.next_due {
            while self.next_due <= now {
                self.next_due += SCRAPE_EVERY;
            }
            let issued = Instant::now();
            let opened = TcpStream::connect(self.addr).and_then(|mut s| {
                s.set_nonblocking(true)?;
                s.write_all(b"GET /metrics HTTP/1.0\r\n\r\n")?;
                Ok(s)
            });
            match opened {
                Ok(s) => self.in_flight = Some((s, issued, Vec::new())),
                Err(_) => self.failures += 1,
            }
        }
    }

    /// Waits for the scrape in flight, if any, to finish.
    fn settle(&mut self) {
        while self.in_flight.is_some() {
            std::thread::sleep(Duration::from_micros(100));
            self.poll(Instant::now());
        }
    }

    /// When the generator must next look at the scraper.
    fn wake_by(&self, now: Instant) -> Instant {
        if self.in_flight.is_some() {
            now + Duration::from_micros(100)
        } else {
            self.next_due
        }
    }
}

/// Serves `fleet` on loopback and runs the open-loop ladder over the
/// stream: one generator thread (this one) sends on schedule and runs
/// the scrapes, one reader thread timestamps replies.  `between(i)` runs
/// on the generator thread before step `i`, with no request or scrape
/// in flight.
pub fn run_ladder(
    spec: &OnlineSpec,
    stream: &Stream,
    fleet: Fleet,
    listener: TcpListener,
    between: &mut dyn FnMut(usize) -> Result<(), String>,
) -> Result<Ladder, String> {
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    let server = Server::new(fleet, VirtualClock::starting_at(0));
    let handler = server.daemon();
    let stop = server.shutdown_flag();
    let mut conn = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    conn.set_nodelay(true).map_err(|e| e.to_string())?;
    // Writes give up after 1 ms so a stalled server never stalls the
    // generator's schedule; reads give up only on a wedged server.
    conn.set_write_timeout(Some(Duration::from_millis(1)))
        .map_err(|e| e.to_string())?;
    conn.set_read_timeout(Some(DRAIN_TIMEOUT))
        .map_err(|e| e.to_string())?;
    let read_half = conn.try_clone().map_err(|e| e.to_string())?;
    let shared = Replies {
        recv: Mutex::new(Vec::with_capacity(stream.lines.len())),
        count: AtomicUsize::new(0),
    };
    let mut scraper = Scraper {
        addr,
        next_due: Instant::now(),
        in_flight: None,
        samples_ms: Vec::new(),
        failures: 0,
    };

    let (steps, reader, served) = std::thread::scope(|s| {
        let served = s.spawn(move || server.run(listener));
        let reader = s.spawn(|| read_replies(read_half, &shared));
        let mut gen = Generator {
            stream,
            conn: &mut conn,
            replies: &shared,
            scraper: &mut scraper,
            intended: Vec::with_capacity(stream.lines.len()),
            outbuf: Vec::with_capacity(1 << 20),
        };
        let passes: Result<Vec<_>, String> = (0..spec.passes)
            .map(|pass| gen.ladder(spec, pass, &mut *between))
            .collect();
        let steps = passes.map(|p| (p, gen.intended.len()));
        // End of input lets the server close the connection, which ends
        // the reader, whether or not the ladder completed.
        let closed = conn.shutdown(Shutdown::Write);
        let reader = reader.join();
        stop.store(true, Ordering::SeqCst);
        (
            steps.and_then(|s| closed.map(|()| s).map_err(|e| e.to_string())),
            reader,
            served.join(),
        )
    });
    served
        .map_err(|_| "server thread panicked".to_string())?
        .map_err(|e| format!("server: {e}"))?;
    let reader = reader.map_err(|_| "reader thread panicked".to_string())??;
    let (passes, sent) = steps?;
    let fleet = Arc::into_inner(handler)
        .ok_or("server kept a handler reference")?
        .into_inner()
        .map_err(|_| "fleet lock poisoned")?;
    Ok(Ladder {
        sent,
        passes,
        scrape_ms: scraper.samples_ms,
        scrape_failures: scraper.failures,
        accepted: reader.accepted,
        not_ok: reader.not_ok,
        reply_digest: reader.digest.finish(),
        fleet,
    })
}

/// The sending side of the ladder: one connection, the schedule of
/// every request sent so far, and the scrapes.
struct Generator<'a> {
    stream: &'a Stream,
    conn: &'a mut TcpStream,
    replies: &'a Replies,
    scraper: &'a mut Scraper,
    /// Intended send instant of every request sent, in order.
    intended: Vec<Instant>,
    outbuf: Vec<u8>,
}

impl Generator<'_> {
    /// The ladder: every step up to `hi` runs; above it the ladder stops
    /// at the first step that misses the limit.  A step that misses the
    /// limit is run again up to [`MAX_RETRIES`] times, so one stall of a
    /// shared host does not decide it; the last run counts.
    fn ladder(
        &mut self,
        spec: &OnlineSpec,
        pass: usize,
        between: &mut dyn FnMut(usize) -> Result<(), String>,
    ) -> Result<Vec<Step>, String> {
        let mut steps = Vec::new();
        // Submits the rest of the ladder needs after the current step; a
        // re-run may only use room beyond them.
        let mut ahead = (spec.passes - pass) * spec.pass_submits();
        for (i, &rate) in spec.rates.iter().enumerate() {
            self.scraper.settle();
            between(pass * spec.rates.len() + i)?;
            self.scraper.next_due = Instant::now();
            let n = spec.step_submits(rate);
            ahead -= n;
            let mut step = self.step(rate, n)?;
            while !step.meets_limit() && step.retries < MAX_RETRIES && self.room() >= n + ahead {
                eprintln!(
                    "perfbench: re-running the {rate}/s step (valid {}, p99 {:.3} ms, achieved {:.3})",
                    step.valid(),
                    step.latency(0.99),
                    step.achieved_frac
                );
                let retries = step.retries + 1;
                step = self.step(rate, n)?;
                step.retries = retries;
            }
            let stop = rate >= spec.hi && !step.meets_limit();
            steps.push(step);
            if stop {
                break;
            }
        }
        Ok(steps)
    }

    /// Stream lines not yet sent.
    fn room(&self) -> usize {
        self.stream.lines.len() - self.intended.len()
    }

    /// Sends `n` submits at `rate` and waits for every reply.
    fn step(&mut self, rate: u64, n: usize) -> Result<Step, String> {
        let base = self.intended.len();
        let n = n.min(self.room());
        if n == 0 {
            return Err(format!("stream exhausted before the {rate}/s step"));
        }
        let period = Duration::from_secs_f64(1.0 / rate as f64);
        let t0 = Instant::now() + Duration::from_millis(2);
        let due = |i: usize| t0 + period * i as u32;
        let mut next = 0usize;
        let mut late_ms = Vec::with_capacity(n);
        let mut aborted = false;
        let mut drain_started: Option<Instant> = None;
        loop {
            let now = Instant::now();
            while next < n && !aborted && due(next) <= now {
                let d = due(next);
                self.intended.push(d);
                late_ms.push((now - d).as_secs_f64() * 1e3);
                self.outbuf
                    .extend_from_slice(self.stream.lines[base + next].as_bytes());
                self.outbuf.push(b'\n');
                next += 1;
            }
            self.flush()?;
            self.scraper.poll(now);
            let answered = self.replies.count.load(Ordering::Acquire);
            let sent = base + next;
            if answered < sent && now.saturating_duration_since(self.intended[answered]) > ABORT_AGE
            {
                aborted = true;
            }
            if next == n || aborted {
                if self.outbuf.is_empty() && answered == sent {
                    break;
                }
                let started = *drain_started.get_or_insert(now);
                if now - started > DRAIN_TIMEOUT {
                    return Err(format!(
                        "{} replies outstanding after the drain timeout",
                        sent - answered
                    ));
                }
            }
            let mut wake = now + Duration::from_millis(1);
            if next < n && !aborted {
                wake = wake.min(due(next));
            } else {
                wake = wake.min(now + Duration::from_micros(200));
            }
            wake = wake.min(self.scraper.wake_by(now));
            let now = Instant::now();
            if wake > now {
                std::thread::sleep(wake - now);
            }
        }
        let recv: Vec<Instant> =
            self.replies.recv.lock().expect("reply log poisoned")[base..base + next].to_vec();
        let latency_ms: Vec<f64> = recv
            .iter()
            .zip(&self.intended[base..])
            .map(|(r, i)| r.saturating_duration_since(*i).as_secs_f64() * 1e3)
            .collect();
        let span = recv
            .last()
            .map_or(0.0, |r| r.saturating_duration_since(t0).as_secs_f64())
            .max(1e-9);
        Ok(Step {
            rate,
            sent: next,
            latency_ms,
            late_ms,
            achieved_frac: next as f64 / span / rate as f64,
            aborted,
            retries: 0,
        })
    }

    /// Writes as much of the out-buffer as the socket takes within the
    /// write timeout.
    fn flush(&mut self) -> Result<(), String> {
        while !self.outbuf.is_empty() {
            match self.conn.write(&self.outbuf) {
                Ok(0) => return Err("server closed the submit connection".into()),
                Ok(k) => {
                    self.outbuf.drain(..k);
                }
                Err(e)
                    if matches!(
                        e.kind(),
                        ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted
                    ) =>
                {
                    break
                }
                Err(e) => return Err(format!("write: {e}")),
            }
        }
        Ok(())
    }
}

/// An in-process drive of a stream prefix through `Fleet::handle_routed`.
pub struct Drive {
    /// Wall time of the whole drive, seconds.
    pub wall_s: f64,
    /// Per-request `handle_routed` wall time.
    pub handle_ns: Vec<u64>,
    /// Per-request `parse_routed` wall time.
    pub parse_ns: Vec<u64>,
    /// Replies with `"ok":true`.
    pub accepted: u64,
    /// Replies without it.
    pub not_ok: u64,
    /// FNV-1a over every rendered reply, as the server would send it.
    pub reply_digest: u64,
    /// The fleet after the drive.
    pub fleet: Fleet,
}

/// Drives `lines` in order through a fresh fleet on one thread, exactly
/// as the server's readiness loop dispatches them (minus the sockets).
pub fn drive(lines: &[String], mut trace: Option<&mut Trace>) -> Result<Drive, String> {
    let fleet = Fleet::new(fleet_config())?;
    let mut d = Drive {
        wall_s: 0.0,
        handle_ns: Vec::with_capacity(lines.len()),
        parse_ns: Vec::with_capacity(lines.len()),
        accepted: 0,
        not_ok: 0,
        reply_digest: 0,
        fleet,
    };
    let mut digest = Fnv::default();
    let started = Instant::now();
    for (i, line) in lines.iter().enumerate() {
        let t0 = Instant::now();
        let (cluster, req) = parse_routed(line).map_err(|e| format!("generated line {i}: {e}"))?;
        let t1 = Instant::now();
        let at = d.fleet.now();
        let (v, _) = d.fleet.handle_routed(cluster.as_deref(), req, at);
        let t2 = Instant::now();
        if let Some(trace) = trace.as_deref_mut() {
            trace.push("service.parse_routed", i as u64, None, t0, t1);
            trace.push("fleet.handle_routed", i as u64, None, t1, t2);
        }
        d.parse_ns.push((t1 - t0).as_nanos() as u64);
        d.handle_ns.push((t2 - t1).as_nanos() as u64);
        if v.get("ok") == Some(&Value::Bool(true)) {
            d.accepted += 1;
        } else {
            d.not_ok += 1;
        }
        let rendered = serde_json::to_string(&v).map_err(|e| e.to_string())?;
        digest.bytes(rendered.as_bytes());
        digest.bytes(b"\n");
    }
    d.wall_s = started.elapsed().as_secs_f64();
    d.reply_digest = digest.finish();
    Ok(d)
}

/// Submits per second of a drive of one ladder pass with tenants
/// partitioned across `threads` threads (tenant `t` goes to thread
/// `t % threads`).
pub fn drive_partitioned(stream: &Stream, threads: usize) -> Result<f64, String> {
    let fleet = Fleet::new(fleet_config())?;
    let threads = threads.max(1);
    let started = Instant::now();
    let results: Vec<Result<(), String>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|k| {
                let fleet = &fleet;
                s.spawn(move || {
                    let pass = stream.lines.iter().zip(&stream.tenant).take(stream.nominal);
                    for (line, &t) in pass {
                        if t % threads != k {
                            continue;
                        }
                        let (cluster, req) = parse_routed(line)?;
                        let (v, _) = fleet.handle_routed(cluster.as_deref(), req, fleet.now());
                        if v.get("ok") != Some(&Value::Bool(true)) {
                            return Err(format!("in-process submit refused: {v}"));
                        }
                    }
                    Ok(())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("drive thread panicked".into()))
            })
            .collect()
    });
    let wall = started.elapsed().as_secs_f64().max(1e-9);
    for r in results {
        r?;
    }
    Ok(stream.nominal as f64 / wall)
}

/// FNV-1a over every tenant's queue view at scheduler time `at` (the
/// per-request correlation id is left out).
pub fn queue_digest(fleet: &Fleet, tenants: usize, at: Time) -> u64 {
    let mut h = Fnv::default();
    for i in 0..tenants {
        let (mut v, _) = fleet.handle_routed(Some(&tenant_id(i)), Request::Queue, at);
        if let Value::Object(map) = &mut v {
            map.remove("corr");
        }
        h.bytes(v.to_string().as_bytes());
        h.bytes(b"\n");
    }
    h.finish()
}

/// Median wall time of `f` over `reps` calls, microseconds.
pub fn render_us(reps: usize, mut f: impl FnMut() -> usize) -> f64 {
    let mut us = Vec::with_capacity(reps);
    let mut sink = 0usize;
    for _ in 0..reps {
        let t = Instant::now();
        sink = sink.wrapping_add(f());
        us.push(ns_since(t) as f64 / 1e3);
    }
    std::hint::black_box(sink);
    median(&us)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> OnlineSpec {
        OnlineSpec {
            tenants: 8,
            rates: vec![500, 1_000],
            hi: 1_000,
            passes: 2,
            step_s: 0.2,
            min_step_submits: 100,
            max_step_submits: 1_000,
        }
    }

    #[test]
    fn streams_follow_the_seed() {
        let spec = small();
        let a = stream(&spec, 7);
        assert_eq!(a.lines, stream(&spec, 7).lines);
        assert_ne!(a.lines, stream(&spec, 8).lines);
        assert!(a.lines.len() >= 300, "covers the ladder");
        assert!((0..spec.tenants).all(|t| a.tenant.contains(&t)));
    }

    #[test]
    fn tcp_replies_and_final_queues_match_an_in_process_drive() {
        let spec = small();
        let s = stream(&spec, 7);
        let fleet = Fleet::new(fleet_config()).expect("fleet");
        let listener = TcpListener::bind(("127.0.0.1", 0)).expect("bind");
        let mut calls = 0;
        let ladder = run_ladder(&spec, &s, fleet, listener, &mut |_| {
            calls += 1;
            Ok(())
        })
        .expect("ladder");
        assert_eq!(calls, 4, "the hook runs before every step");
        assert_eq!(ladder.passes.len(), 2);
        assert!(ladder.passes.iter().all(|p| p.len() == 2));
        assert_eq!(ladder.not_ok, 0);
        assert_eq!(ladder.accepted as usize, ladder.sent);
        assert!(!ladder.scrape_ms.is_empty() && ladder.scrape_failures == 0);
        let d = drive(&s.lines[..ladder.sent], None).expect("drive");
        assert_eq!(d.accepted, ladder.accepted);
        assert_eq!(d.reply_digest, ladder.reply_digest);
        let at = d.fleet.now().max(ladder.fleet.now());
        assert_eq!(
            queue_digest(&d.fleet, spec.tenants, at),
            queue_digest(&ladder.fleet, spec.tenants, at)
        );
        assert!(drive_partitioned(&s, 2).expect("partitioned") > 0.0);
    }
}
