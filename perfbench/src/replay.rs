//! The month-replay workloads: `sbs_sim::simulate` over synthetic NCSA
//! months under DDS/lxf/dynB, timed per replay and per decision.

use crate::stats::{derive_seed, mean, median, ns_since, quantile, Fnv, Trace};
use sbs_core::{ScheduleProblem, SearchPolicy};
use sbs_sim::engine::check_invariants;
use sbs_sim::{simulate, Policy, SchedContext, SimConfig, SimResult};
use sbs_workload::generator::{Workload, WorkloadBuilder};
use sbs_workload::job::JobId;
use sbs_workload::system::Month;
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// One replay workload's definition.
#[derive(Debug, Clone)]
pub struct ReplaySpec {
    /// The study month replayed.
    pub month: Month,
    /// Offered load `rho` (`None` = the month's original load).
    pub load: Option<f64>,
    /// Node budget `L` per decision.
    pub budget: u64,
    /// Search worker threads (1 = sequential).
    pub threads: usize,
    /// Distinct seeded traces of the month replayed per run.
    pub traces: usize,
    /// Fraction of the month's span (1.0 in the benchmark; tests shrink it).
    pub span_scale: f64,
}

impl ReplaySpec {
    /// Generates the run's traces; trace `k` is seeded from `(seed, k)`.
    pub fn workloads(&self, seed: u64) -> Vec<Workload> {
        (0..self.traces as u64)
            .map(|k| {
                let mut b = WorkloadBuilder::month(self.month).seed(derive_seed(seed, k));
                if self.span_scale < 1.0 {
                    b = b.span_scale(self.span_scale);
                }
                if let Some(rho) = self.load {
                    b = b.target_load(rho);
                }
                b.build()
            })
            .collect()
    }

    /// The policy under test at `threads` search workers.
    pub fn policy(&self, threads: usize) -> SearchPolicy {
        SearchPolicy::dds_lxf_dynb(self.budget).with_threads(threads)
    }
}

/// What a replay must reproduce exactly: the decision count, the total
/// search nodes and a digest of every job's `(id, start)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Outcome {
    /// Decision points executed.
    pub decisions: u64,
    /// Search tree nodes visited over the replay.
    pub nodes: u64,
    /// FNV-1a over `(job id, start)` in record order.
    pub digest: u64,
}

fn outcome(result: &SimResult, nodes: u64) -> Outcome {
    let mut h = Fnv::default();
    for r in &result.records {
        h.u64(u64::from(r.id.0));
        h.u64(r.start);
    }
    Outcome {
        decisions: result.decisions,
        nodes,
        digest: h.finish(),
    }
}

/// The untraced wrapper: only the wall time of each `decide` call.
struct Timed {
    inner: SearchPolicy,
    decide_ns: Vec<u64>,
}

impl Policy for Timed {
    fn name(&self) -> String {
        self.inner.name()
    }
    fn decide(&mut self, ctx: &SchedContext<'_>) -> Vec<JobId> {
        let t = Instant::now();
        let out = self.inner.decide(ctx);
        self.decide_ns.push(ns_since(t));
        out
    }
}

/// Per-layer tallies gathered by the traced wrapper.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTally {
    /// `decide` calls (every decision point).
    pub calls: u64,
    /// Calls with a non-empty queue (a search ran).
    pub searched: u64,
    /// Summed wall time inside `SearchPolicy::decide`.
    pub decide_ns: u64,
    /// Summed `SchedContext::profile` time.
    pub profile_ns: u64,
    /// Summed `Branching::order` time.
    pub order_ns: u64,
    /// Summed `ScheduleProblem::new` time.
    pub problem_ns: u64,
    /// Search nodes visited.
    pub nodes: u64,
    /// Searches that exhausted their tree.
    pub exhausted: u64,
    /// Searches where no queued job fit the free nodes.
    pub nofit_decisions: u64,
    /// Nodes spent in those searches.
    pub nofit_nodes: u64,
    /// Nodes spent in searches that started nothing.
    pub zero_start_nodes: u64,
}

impl LayerTally {
    /// Adds another tally into this one.
    pub fn add(&mut self, o: &LayerTally) {
        self.calls += o.calls;
        self.searched += o.searched;
        self.decide_ns += o.decide_ns;
        self.profile_ns += o.profile_ns;
        self.order_ns += o.order_ns;
        self.problem_ns += o.problem_ns;
        self.nodes += o.nodes;
        self.exhausted += o.exhausted;
        self.nofit_decisions += o.nofit_decisions;
        self.nofit_nodes += o.nofit_nodes;
        self.zero_start_nodes += o.zero_start_nodes;
    }

    /// Time spent in the setup probe (outside `decide`).
    pub fn probe_ns(&self) -> u64 {
        self.profile_ns + self.order_ns + self.problem_ns
    }
}

/// The traced wrapper: spans per decision plus the per-layer tallies.
/// The setup probe re-runs the decision's profile, ordering and problem
/// construction on the same context, outside the timed `decide`.
struct Probe<'t> {
    inner: SearchPolicy,
    trace: &'t mut Trace,
    parent: usize,
    tally: LayerTally,
    decide_ns: Vec<u64>,
}

impl Policy for Probe<'_> {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn decide(&mut self, ctx: &SchedContext<'_>) -> Vec<JobId> {
        let id = self.tally.calls;
        self.tally.calls += 1;
        let searched = !ctx.queue.is_empty();
        let nofit = searched && !ctx.queue.iter().any(|w| w.job.nodes <= ctx.free_nodes);
        if searched {
            let t0 = Instant::now();
            let profile = black_box(ctx.profile());
            let t1 = Instant::now();
            let order = black_box(self.inner.branching.order(ctx));
            let t2 = Instant::now();
            let omega = self.inner.bound.resolve(ctx);
            let problem = ScheduleProblem::new(
                ctx.queue,
                ctx.now,
                profile,
                order,
                omega,
                self.inner.objective(),
            );
            black_box(&problem);
            drop(problem);
            let t3 = Instant::now();
            self.tally.profile_ns += (t1 - t0).as_nanos() as u64;
            self.tally.order_ns += (t2 - t1).as_nanos() as u64;
            self.tally.problem_ns += (t3 - t2).as_nanos() as u64;
            self.trace.push("core.setup", id, Some(self.parent), t0, t3);
        }
        let before = self.inner.totals();
        let t = Instant::now();
        let out = self.inner.decide(ctx);
        let end = Instant::now();
        let after = self.inner.totals();
        self.trace
            .push("core.decide", id, Some(self.parent), t, end);
        let ns = (end - t).as_nanos() as u64;
        self.tally.decide_ns += ns;
        self.decide_ns.push(ns);
        if searched {
            let nodes = after.nodes - before.nodes;
            self.tally.searched += 1;
            self.tally.nodes += nodes;
            self.tally.exhausted += after.exhausted - before.exhausted;
            if nofit {
                self.tally.nofit_decisions += 1;
                self.tally.nofit_nodes += nodes;
            }
            if out.is_empty() {
                self.tally.zero_start_nodes += nodes;
            }
        }
        out
    }
}

/// One timed replay.
#[derive(Debug, Clone)]
pub struct Replay {
    /// Wall time of `simulate`, seconds.
    pub wall_s: f64,
    /// Per-decision `decide` wall times.
    pub decide_ns: Vec<u64>,
    /// What the replay produced.
    pub outcome: Outcome,
    /// Per-layer tallies (traced replays only).
    pub tally: LayerTally,
}

/// Runs `simulate` and the invariant check, turning a panic (a policy
/// protocol violation or a broken invariant) into an error.
fn checked_simulate<P: Policy>(w: &Workload, policy: &mut P) -> Result<(SimResult, f64), String> {
    let t = Instant::now();
    let result = catch_unwind(AssertUnwindSafe(|| {
        simulate(w, &mut *policy, SimConfig::default())
    }))
    .map_err(|_| "simulate panicked (policy protocol violation)".to_string())?;
    let wall_s = t.elapsed().as_secs_f64();
    catch_unwind(AssertUnwindSafe(|| check_invariants(&result)))
        .map_err(|_| "replay broke a schedule invariant".to_string())?;
    Ok((result, wall_s))
}

/// Replays `w` untraced at `threads` workers.
pub fn replay(spec: &ReplaySpec, w: &Workload, threads: usize) -> Result<Replay, String> {
    let mut policy = Timed {
        inner: spec.policy(threads),
        decide_ns: Vec::with_capacity(16_384),
    };
    let (result, wall_s) = checked_simulate(w, &mut policy)?;
    Ok(Replay {
        wall_s,
        outcome: outcome(&result, policy.inner.totals().nodes),
        decide_ns: policy.decide_ns,
        tally: LayerTally::default(),
    })
}

/// Replays `w` traced at `threads` workers, recording spans into `trace`.
pub fn replay_traced(
    spec: &ReplaySpec,
    w: &Workload,
    threads: usize,
    run_id: u64,
    trace: &mut Trace,
) -> Result<Replay, String> {
    let root = trace.open("simulator.simulate", run_id, None);
    let mut policy = Probe {
        inner: spec.policy(threads),
        trace: &mut *trace,
        parent: root,
        tally: LayerTally::default(),
        decide_ns: Vec::with_capacity(16_384),
    };
    let (result, wall_s) = checked_simulate(w, &mut policy)?;
    let nodes = policy.inner.totals().nodes;
    let (tally, decide_ns) = (policy.tally, policy.decide_ns);
    trace.close(root);
    Ok(Replay {
        wall_s,
        decide_ns,
        outcome: outcome(&result, nodes),
        tally,
    })
}

/// Results of the measured replays of one run.
#[derive(Debug, Default)]
pub struct BatchResult {
    /// Mean over traces of each trace's median replay wall time.
    pub replay_s: f64,
    /// Mean per-decision time, microseconds, over every replay.
    pub decision_mean_us: f64,
    /// Per-decision p99, microseconds.
    pub decision_p99_us: f64,
    /// Replays run.
    pub replays: u64,
    /// Each trace's outcome (from its first replay).
    pub outcomes: Vec<Outcome>,
    /// Mismatches found (a repeat differing from the first replay).
    pub failures: Vec<String>,
}

/// The measured replays of one run, taken one at a time so the caller
/// can spread them over the run.  Traces replay round-robin; every
/// repeat of a trace must reproduce its first outcome exactly.
pub struct Measure<'a> {
    spec: &'a ReplaySpec,
    workloads: &'a [Workload],
    walls: Vec<Vec<f64>>,
    decide_us: Vec<f64>,
    out: BatchResult,
}

impl<'a> Measure<'a> {
    /// Starts measuring `workloads` under `spec`.
    pub fn new(spec: &'a ReplaySpec, workloads: &'a [Workload]) -> Self {
        Measure {
            spec,
            workloads,
            walls: vec![Vec::new(); workloads.len()],
            decide_us: Vec::new(),
            out: BatchResult::default(),
        }
    }

    /// Replays the next trace.
    pub fn replay_next(&mut self) -> Result<(), String> {
        let k = self.out.replays as usize % self.workloads.len();
        let r = replay(self.spec, &self.workloads[k], self.spec.threads)?;
        self.out.replays += 1;
        self.walls[k].push(r.wall_s);
        self.decide_us
            .extend(r.decide_ns.iter().map(|&ns| ns as f64 / 1e3));
        match self.out.outcomes.get(k) {
            None => self.out.outcomes.push(r.outcome),
            Some(first) if *first != r.outcome => self.out.failures.push(format!(
                "trace {k}: repeat replay diverged ({first:?} vs {:?})",
                r.outcome
            )),
            Some(_) => {}
        }
        Ok(())
    }

    /// Every trace has been replayed at least once.
    pub fn covered(&self) -> bool {
        self.out.replays as usize >= self.workloads.len()
    }

    /// The run's figures.
    pub fn finish(mut self) -> BatchResult {
        let medians: Vec<f64> = self.walls.iter().map(|w| median(w)).collect();
        self.out.replay_s = medians.iter().sum::<f64>() / medians.len().max(1) as f64;
        self.out.decision_mean_us = mean(&self.decide_us);
        self.out.decision_p99_us = quantile(&self.decide_us, 0.99);
        self.out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(threads: usize) -> ReplaySpec {
        ReplaySpec {
            month: Month::Oct03,
            load: Some(0.9),
            budget: 200,
            threads,
            traces: 2,
            span_scale: 0.03,
        }
    }

    #[test]
    fn traces_follow_the_seed() {
        let spec = small(1);
        let a = spec.workloads(7);
        let b = spec.workloads(7);
        let c = spec.workloads(8);
        assert_eq!(a[0].jobs, b[0].jobs);
        assert_ne!(a[0].jobs, a[1].jobs, "traces of one run differ");
        assert_ne!(a[0].jobs, c[0].jobs, "another seed gives other inputs");
    }

    #[test]
    fn repeats_traced_and_sharded_replays_agree_on_a_non_default_seed() {
        let spec = small(2);
        let ws = spec.workloads(7);
        let mut m = Measure::new(&spec, &ws);
        while m.replay_next().is_ok() && m.out.replays < 3 {}
        assert!(m.covered());
        let batch = m.finish();
        assert!(batch.failures.is_empty(), "{:?}", batch.failures);
        assert_eq!((batch.replays, batch.outcomes.len()), (3, 2));
        assert!(batch.replay_s > 0.0 && batch.decision_p99_us >= batch.decision_mean_us);
        for (w, want) in ws.iter().zip(&batch.outcomes) {
            let seq = replay(&spec, w, 1).expect("sequential");
            assert_eq!(seq.outcome, *want, "sharded equals sequential");
            let mut trace = Trace::default();
            let traced = replay_traced(&spec, w, 1, 0, &mut trace).expect("traced");
            assert_eq!(traced.outcome, *want, "tracing changes nothing");
            assert_eq!(traced.tally.calls, want.decisions);
            assert_eq!(traced.tally.nodes, want.nodes);
            assert!(trace.len() as u64 > traced.tally.calls);
        }
    }
}
