//! The flow-sensitive rule set: lock-region and tainted-input analysis.
//!
//! These rules run the [`crate::dataflow`] fixpoint over each
//! function's [`crate::cfg::Cfg`], so they reason about *paths* — which
//! guards are live at a call, which values reach an allocation — where
//! the per-statement rules of [`crate::semrules`] cannot.  Since PR 8
//! they are also *interprocedural*: [`crate::summaries`] gives every
//! rule a per-function effect summary (may-block, locks acquired,
//! guard-returning, taint-in/taint-out), so a blocking call two hops
//! down the call graph is found at the caller's critical section, with
//! the ultimate blocking site attached as a related location.
//! `atomic-ordering` stays intentionally site-local: the policy is
//! per-field and every op names its field, so summaries add nothing.
//!
//! Guard liveness uses [`Mode::Must`] (a guard counts as held only when
//! every executed path agrees) and taint uses [`Mode::May`] (tainted if
//! any path taints it) with sanitizer kills; both directions, plus the
//! CFG's policy of dropping anything it cannot model, keep the engine's
//! contract: ambiguity degrades to false negatives, never noise.
//!
//! Per-rule knobs come from `lint.toml` list keys (see
//! [`crate::config::RuleConfig::list`]): `blocking_calls` and
//! `taint_sources` override the built-in call lists, `order` declares a
//! lock order for `double-lock`, and `relaxed` / `acquire_release`
//! declare the atomic-ordering policy.

use crate::cfg::{for_each_fn_cfg, walk_flat, Cfg, Step, StepKind};
use crate::config::RuleConfig;
use crate::dataflow::{solve, Mode, Problem, SiteSet, Solution};
use crate::parse::{Expr, File, Item, ItemKind, Stmt};
use crate::rules::{Finding, RelatedSite};
use crate::summaries::Interp;
use crate::workspace::{acquisition_of, receiver_key, Workspace};
use std::collections::BTreeSet;

/// Everything a flow rule sees for one file.
pub struct FlowCtx<'a> {
    /// Workspace-relative path of the file under analysis.
    pub rel_path: &'a str,
    /// The file's parse tree.
    pub ast: &'a File,
    /// The cross-crate index.
    pub ws: &'a Workspace,
    /// This rule's `lint.toml` section (scoping already applied by the
    /// engine; rules read their list knobs from it).
    pub rule_cfg: &'a RuleConfig,
    /// The interprocedural layer: call graph plus per-function effect
    /// summaries, built once per lint run.
    pub interp: &'a Interp<'a>,
}

/// A flow-sensitive rule: its identity plus its checker.
pub struct FlowRuleDef {
    /// The name used in `lint.toml` sections and `allow(...)`.
    pub name: &'static str,
    /// One-line description for `--list-rules` and docs.
    pub summary: &'static str,
    /// A paragraph for `--explain`: what the rule models and why.
    pub doc: &'static str,
    /// A minimal firing example for `--explain`.
    pub example: &'static str,
    /// Scans one file (with workspace context) for violations.
    pub check: fn(&FlowCtx) -> Vec<Finding>,
}

/// Every flow rule, in reporting order.
pub const FLOW_RULES: &[FlowRuleDef] = &[
    FlowRuleDef {
        name: "lock-across-blocking",
        summary: "a lock guard is live across a blocking call (I/O, accept, channel wait)",
        doc: "Holding a mutex across a call that can block (file or socket I/O, `accept`, \
              channel `recv`, `sleep`, `poll`) stalls every other thread contending for that lock \
              for the blocking call's full latency. Guard liveness is MUST dataflow: a \
              guard counts as held only where every executed path holds it, so `drop(g)` \
              on each branch silences the rule. The check is interprocedural: a call to a \
              function whose summary says it may block fires too, with the ultimate \
              blocking site attached as a related location. The blocking list comes from \
              the rule's `blocking_calls` key in lint.toml.",
        example: "let g = self.state.lock().unwrap();\n\
                  self.file.write_all(&g.bytes()); // blocks while `g` is held",
        check: check_lock_across_blocking,
    },
    FlowRuleDef {
        name: "double-lock",
        summary: "a second .lock() is reachable while a guard for the same (or order-earlier) \
                  lock is live",
        doc: "Re-locking a std::sync::Mutex on the same thread self-deadlocks; acquiring \
              locks against the order declared in lint.toml (`order` key) risks an \
              ABBA deadlock between threads. Lock identity is the receiver's field/path \
              key; an unresolvable receiver (`\"?\"`) never matches, so ambiguity stays \
              silent. Interprocedural: calling a function whose summary acquires a \
              currently-held lock fires at the call, with the callee's acquisition site \
              as a related location.",
        example: "let a = self.jobs.lock().unwrap();\n\
                  let b = self.jobs.lock().unwrap(); // same mutex, same thread",
        check: check_double_lock,
    },
    FlowRuleDef {
        name: "guard-across-loop",
        summary: "a guard bound outside a loop/while is still held at the loop's back-edge",
        doc: "A guard acquired before a `while`/`loop` and still live at the back-edge \
              keeps the lock for the loop's whole lifetime — often the daemon's main \
              loop, which starves every other thread. `for` loops are exempt: iterating \
              the locked collection is routinely intentional. Guards returned by helper \
              functions (summary `returns_guard`) are tracked the same as direct \
              `.lock()` bindings.",
        example: "let g = self.state.lock().unwrap();\n\
                  while self.running() { g.step(); } // every iteration under the lock",
        check: check_guard_across_loop,
    },
    FlowRuleDef {
        name: "tainted-alloc",
        summary: "an untrusted length reaches with_capacity/reserve or bounds a growing loop \
                  without a cap check",
        doc: "A length parsed from untrusted input that reaches `with_capacity`/`reserve` \
              or bounds a `push`/`extend` loop lets a client allocate attacker-chosen \
              memory. Taint is MAY dataflow from the sources in the rule's \
              `taint_sources` key; `.min(..)`/`.clamp(..)` and comparison guards \
              sanitize. Interprocedural: functions returning unsanitized source data \
              become sources themselves, and a callee that caps its return sanitizes.",
        example: "let n = parse_request(buf).count;\n\
                  let v: Vec<u8> = Vec::with_capacity(n); // attacker-sized",
        check: check_tainted_alloc,
    },
    FlowRuleDef {
        name: "atomic-ordering",
        summary: "atomic ops must match the per-field ordering policy declared in lint.toml",
        doc: "Every atomic field gets a declared policy in lint.toml: `relaxed` (pure \
              counters — stats that nothing reads for decisions) or `acquire_release` \
              (values whose reads justify actions elsewhere). Loads of acquire_release \
              fields must use Acquire/SeqCst, stores Release/SeqCst, RMWs AcqRel/SeqCst; \
              an undeclared field is itself a finding. Site-local by design: the policy \
              is per-field and every op names its field, so call-graph context adds \
              nothing.",
        example: "self.active_jobs.load(Ordering::Relaxed) // declared acquire_release",
        check: check_atomic_ordering,
    },
    FlowRuleDef {
        name: "shared-field-race",
        summary: "a field of a thread-shared type is accessed without the lockset that \
                  guarded its earlier accesses",
        doc: "Eraser-style lockset checking. A type is thread-shared when a method \
              passes a self-capturing closure to a spawn-like call (`spawn_fns` key, \
              default spawn/scope) or when lint.toml declares it (`shared_types` key). \
              Each mutable non-sync field's access sites are collected across all \
              `&self` methods with the MUST-held lockset at each; the rule fires where \
              the running intersection goes from non-empty to empty — discipline was \
              established, then broken. Atomic fields must instead appear in the \
              atomic-ordering policy lists. `&mut self` methods, never-mutated fields, \
              and sites under unresolvable guards are all skipped: silence over noise.",
        example: "fn work(&self) { let g = self.jobs.lock().unwrap(); self.pending += ..; }\n\
                  fn peek(&self) -> usize { self.pending } // no lock here",
        check: check_shared_field_race,
    },
    FlowRuleDef {
        name: "guard-passed-to-fn",
        summary: "a live lock guard is passed into a callee that can block",
        doc: "Passing a guard into a function hides the critical section from the \
              caller: the lock is held for the callee's whole execution. When the \
              callee's summary says it may block, that is lock-across-blocking split \
              across two functions — fired at the call site, with the callee's \
              blocking site as a related location. An unresolvable callee stays \
              silent (it may be trivial); the plain move-into-a-call case is still \
              treated as a drop by guard liveness.",
        example: "let g = self.state.lock().unwrap();\n\
                  self.flush_under(g); // flush_under() writes to disk",
        check: check_guard_passed_to_fn,
    },
];

/// Looks a flow rule up by name.
pub fn flow_rule_by_name(name: &str) -> Option<&'static FlowRuleDef> {
    FLOW_RULES.iter().find(|r| r.name == name)
}

/// Resolves a list knob: the rule's `lint.toml` value, else `default`.
pub(crate) fn knob(rc: &RuleConfig, key: &str, default: &[&str]) -> Vec<String> {
    rc.list(key)
        .map(<[String]>::to_vec)
        .unwrap_or_else(|| default.iter().map(|s| (*s).to_string()).collect())
}

/// The expression a step evaluates, if any.
pub(crate) fn step_expr<'a>(kind: &StepKind<'a>) -> Option<&'a Expr> {
    match kind {
        StepKind::Let(Stmt::Let {
            init: Some(init), ..
        }) => Some(init),
        StepKind::Eval(e) => Some(e),
        StepKind::Cond { expr, .. } => Some(expr),
        _ => None,
    }
}

/// Local names mentioned (as path expressions) anywhere in `e`'s flat
/// walk.
fn mentions(e: &Expr, out: &mut BTreeSet<String>) {
    walk_flat(e, &mut |x| {
        if let Expr::Path { segs, .. } = x {
            if let Some(last) = segs.last() {
                out.insert(last.clone());
            }
        }
    });
}

// ----- guard liveness (rules 1–3) ------------------------------------

/// One tracked lock guard: a `let`-bound acquisition.
pub(crate) struct GuardSite {
    /// The binding's name (kill target for rebinding / scope end).
    pub(crate) name: String,
    /// The lock's identity key (see [`acquisition_of`]); `"?"` when the
    /// source is unresolvable — still a guard, just unmatchable.
    pub(crate) key: String,
    /// Line of the acquisition (for messages).
    pub(crate) line: u32,
    /// The gen step's ordinal (relates the guard to loop regions).
    pub(crate) ord: u32,
}

/// Builds the guard-liveness problem for one function: sites are
/// `let`-bound lock acquisitions, bindings of calls whose summary says
/// they return a guard, or `MutexGuard`-annotated bindings; kills are
/// rebinding, scope end, and the guard's bare name moving into a call
/// (which covers `drop(g)`).  MUST mode: a guard only counts as held
/// where every executed path holds it.
pub(crate) fn guard_analysis<'a>(
    rel_path: &str,
    interp: &Interp,
    cfg: &Cfg<'a>,
) -> (Vec<GuardSite>, Problem, Solution) {
    let mut sites: Vec<GuardSite> = Vec::new();
    for (_, s) in cfg.steps_in_order() {
        if let StepKind::Let(Stmt::Let {
            name: Some(n),
            ty,
            init,
            span,
            ..
        }) = &s.kind
        {
            let mut acq = None;
            let mut from_callee: Option<(String, u32)> = None;
            if let Some(init) = init {
                walk_flat(init, &mut |e| {
                    if acq.is_none() {
                        acq = acquisition_of(e);
                    }
                    if from_callee.is_none() {
                        if let Expr::Call { span, .. } | Expr::MethodCall { span, .. } = e {
                            if let Some((_, sum)) =
                                interp.callee_summary(rel_path, span.line, span.col)
                            {
                                if let Some(key) = &sum.returns_guard {
                                    from_callee = Some((key.clone(), span.line));
                                }
                            }
                        }
                    }
                });
            }
            if let Some(a) = acq {
                sites.push(GuardSite {
                    name: n.clone(),
                    key: a.key,
                    line: a.line,
                    ord: s.ord,
                });
            } else if let Some((key, line)) = from_callee {
                // `let g = self.state_guard();` — the callee's summary
                // says it hands back a live guard for `key`.
                sites.push(GuardSite {
                    name: n.clone(),
                    key,
                    line,
                    ord: s.ord,
                });
            } else if ty.as_deref().is_some_and(|t| t.contains("MutexGuard")) {
                sites.push(GuardSite {
                    name: n.clone(),
                    key: "?".to_string(),
                    line: span.line,
                    ord: s.ord,
                });
            }
        }
    }
    let mut p = Problem::new(cfg, sites.len(), Mode::Must);
    for (i, site) in sites.iter().enumerate() {
        p.gen[site.ord as usize].push(i as u32);
    }
    for (_, s) in cfg.steps_in_order() {
        if let StepKind::ScopeEnd(names) = &s.kind {
            for (i, site) in sites.iter().enumerate() {
                if names.contains(&site.name) {
                    p.kill[s.ord as usize].push(i as u32);
                }
            }
            continue;
        }
        if let StepKind::Let(Stmt::Let { name: Some(n), .. }) = &s.kind {
            // Rebinding ends the old guard's region (kill runs before
            // this step's own gen).
            for (i, site) in sites.iter().enumerate() {
                if site.name == *n && site.ord != s.ord {
                    p.kill[s.ord as usize].push(i as u32);
                }
            }
        }
        if let Some(e) = step_expr(&s.kind) {
            // A guard's bare name as a call argument moves (or at
            // minimum last-uses) it: `drop(g)`, `consume(g)`.
            let mut moved: BTreeSet<String> = BTreeSet::new();
            walk_flat(e, &mut |x| {
                let args = match x {
                    Expr::Call { args, .. } | Expr::MethodCall { args, .. } => args,
                    _ => return,
                };
                for a in args {
                    if let Expr::Path { segs, .. } = a {
                        if segs.len() == 1 {
                            moved.insert(segs[0].clone());
                        }
                    }
                }
            });
            for (i, site) in sites.iter().enumerate() {
                if moved.contains(&site.name) && site.ord != s.ord {
                    p.kill[s.ord as usize].push(i as u32);
                }
            }
        }
    }
    let sol = solve(cfg, &p);
    (sites, p, sol)
}

/// The innermost (most recently acquired) live guard.
fn innermost<'a>(sites: &'a [GuardSite], fact: &SiteSet) -> Option<&'a GuardSite> {
    fact.iter()
        .map(|i| &sites[i as usize])
        .max_by_key(|g| g.ord)
}

/// Built-in blocking-call list for `lock-across-blocking`; override
/// with the rule's `blocking_calls` key in `lint.toml`.
pub(crate) const DEFAULT_BLOCKING: &[&str] = &[
    "accept",
    "flush",
    "poll",
    "read",
    "read_exact",
    "read_line",
    "read_to_end",
    "read_to_string",
    "recv",
    "recv_timeout",
    "save_snapshot",
    "sleep",
    "sync_all",
    "sync_data",
    "wait",
    "write",
    "write_all",
];

fn check_lock_across_blocking(ctx: &FlowCtx) -> Vec<Finding> {
    let blocking = knob(ctx.rule_cfg, "blocking_calls", DEFAULT_BLOCKING);
    let mut out = Vec::new();
    for item in &ctx.ast.items {
        for_each_fn_cfg(item, &mut |_, cfg| {
            let (sites, p, sol) = guard_analysis(ctx.rel_path, ctx.interp, cfg);
            if sites.is_empty() {
                return;
            }
            for node in 0..cfg.nodes.len() {
                sol.for_each_step(cfg, &p, node, &mut |s: &Step, fact| {
                    if fact.is_empty() {
                        return;
                    }
                    let Some(e) = step_expr(&s.kind) else { return };
                    walk_flat(e, &mut |x| {
                        let (name, args, span) = match x {
                            Expr::MethodCall {
                                name, args, span, ..
                            } => (name.as_str(), args, span),
                            Expr::Call { callee, args, span } => {
                                let Expr::Path { segs, .. } = callee.as_ref() else {
                                    return;
                                };
                                let Some(last) = segs.last() else { return };
                                (last.as_str(), args, span)
                            }
                            _ => return,
                        };
                        let Some(g) = innermost(&sites, fact) else {
                            return;
                        };
                        if blocking.iter().any(|b| b == name) {
                            out.push(Finding {
                                related: Vec::new(),
                                line: span.line,
                                col: span.col,
                                message: format!(
                                    "`{name}()` can block while lock guard `{}` (acquired line \
                                     {}) is held; drop the guard first or move the I/O outside \
                                     the critical section",
                                    g.name, g.line
                                ),
                            });
                            return;
                        }
                        // Interprocedural: the callee's summary may
                        // carry a blocking witness.  A live guard passed
                        // as an argument is guard-passed-to-fn's case,
                        // not this rule's.
                        let passes_guard = args.iter().any(|a| {
                            matches!(a, Expr::Path { segs, .. }
                                if segs.len() == 1
                                    && fact.iter().any(|i| sites[i as usize].name == segs[0]))
                        });
                        if passes_guard {
                            return;
                        }
                        let Some((idx, sum)) =
                            ctx.interp.callee_summary(ctx.rel_path, span.line, span.col)
                        else {
                            return;
                        };
                        if let Some(w) = &sum.may_block {
                            out.push(Finding {
                                related: vec![RelatedSite {
                                    path: w.file.clone(),
                                    line: w.line,
                                    col: w.col,
                                    note: format!("the blocking call {} reached here", w.what),
                                }],
                                line: span.line,
                                col: span.col,
                                message: format!(
                                    "`{}` can block ({} at {}:{}) and is called while lock \
                                     guard `{}` (acquired line {}) is held; drop the guard \
                                     first or move the blocking work outside the critical \
                                     section",
                                    ctx.interp.fn_display(idx),
                                    w.what,
                                    w.file,
                                    w.line,
                                    g.name,
                                    g.line
                                ),
                            });
                        }
                    });
                });
            }
        });
    }
    out
}

fn check_double_lock(ctx: &FlowCtx) -> Vec<Finding> {
    let order = knob(ctx.rule_cfg, "order", &[]);
    let pos = |key: &str| order.iter().position(|o| o == key);
    let mut out = Vec::new();
    for item in &ctx.ast.items {
        for_each_fn_cfg(item, &mut |_, cfg| {
            let (sites, p, sol) = guard_analysis(ctx.rel_path, ctx.interp, cfg);
            for node in 0..cfg.nodes.len() {
                sol.for_each_step(cfg, &p, node, &mut |s: &Step, fact| {
                    let Some(e) = step_expr(&s.kind) else { return };
                    // Interprocedural: calling a function whose summary
                    // acquires a currently-held lock deadlocks inside
                    // the callee.
                    walk_flat(e, &mut |x| {
                        let span = match x {
                            Expr::Call { span, .. } | Expr::MethodCall { span, .. } => span,
                            _ => return,
                        };
                        let Some((idx, sum)) =
                            ctx.interp.callee_summary(ctx.rel_path, span.line, span.col)
                        else {
                            return;
                        };
                        for li in fact.iter() {
                            let live = &sites[li as usize];
                            if live.key == "?" {
                                continue;
                            }
                            if let Some(w) = sum.acquires.get(&live.key) {
                                out.push(Finding {
                                    related: vec![RelatedSite {
                                        path: w.file.clone(),
                                        line: w.line,
                                        col: w.col,
                                        note: format!("the callee acquires `{}` here", live.key),
                                    }],
                                    line: span.line,
                                    col: span.col,
                                    message: format!(
                                        "`{}` acquires lock `{}` (at {}:{}) which is already \
                                         held here (guard `{}` since line {}); the nested \
                                         `.lock()` self-deadlocks",
                                        ctx.interp.fn_display(idx),
                                        live.key,
                                        w.file,
                                        w.line,
                                        live.name,
                                        live.line
                                    ),
                                });
                            }
                        }
                    });
                    let mut acqs = Vec::new();
                    walk_flat(e, &mut |x| acqs.extend(acquisition_of(x)));
                    for (i, a) in acqs.iter().enumerate() {
                        if a.key == "?" {
                            continue;
                        }
                        // Two acquisitions of one lock inside a single
                        // expression deadlock regardless of bindings.
                        if acqs[..i].iter().any(|b| b.key == a.key) {
                            out.push(Finding {
                                related: Vec::new(),
                                line: a.line,
                                col: a.col,
                                message: format!(
                                    "lock `{}` is acquired twice in one expression; the first \
                                     guard is still alive when the second `.lock()` blocks",
                                    a.key
                                ),
                            });
                            continue;
                        }
                        for li in fact.iter() {
                            let live = &sites[li as usize];
                            if live.key == a.key {
                                out.push(Finding {
                                    related: Vec::new(),
                                    line: a.line,
                                    col: a.col,
                                    message: format!(
                                        "lock `{}` is already held here (guard `{}` since line \
                                         {}); a second `.lock()` on the same mutex self-deadlocks",
                                        a.key, live.name, live.line
                                    ),
                                });
                            } else if let (Some(pa), Some(pl)) = (pos(&a.key), pos(&live.key)) {
                                if pa < pl {
                                    out.push(Finding {
                                        related: Vec::new(),
                                        line: a.line,
                                        col: a.col,
                                        message: format!(
                                            "acquiring `{}` while `{}` (line {}) is held inverts \
                                             the declared lock order in lint.toml \
                                             [rules.double-lock] `order`",
                                            a.key, live.key, live.line
                                        ),
                                    });
                                }
                            }
                        }
                    }
                });
            }
        });
    }
    out
}

fn check_guard_across_loop(ctx: &FlowCtx) -> Vec<Finding> {
    let mut out = Vec::new();
    for item in &ctx.ast.items {
        for_each_fn_cfg(item, &mut |_, cfg| {
            let (sites, p, sol) = guard_analysis(ctx.rel_path, ctx.interp, cfg);
            if sites.is_empty() {
                return;
            }
            let mut seen: BTreeSet<(u32, u32, usize)> = BTreeSet::new();
            for node in 0..cfg.nodes.len() {
                sol.for_each_step(cfg, &p, node, &mut |s: &Step, fact| {
                    let StepKind::LoopBack(idx) = s.kind else {
                        return;
                    };
                    let li = &cfg.loops[idx];
                    // `for` iterates a fixed collection; holding a
                    // guard over it is routinely intentional (iterating
                    // the locked data).  Stay silent there.
                    if li.kw == "for" {
                        return;
                    }
                    for i in fact.iter() {
                        let g = &sites[i as usize];
                        if g.ord < li.first_ord
                            && seen.insert((li.span.line, li.span.col, i as usize))
                        {
                            out.push(Finding {
                                related: Vec::new(),
                                line: li.span.line,
                                col: li.span.col,
                                message: format!(
                                    "lock guard `{}` (acquired line {}) is still held at this \
                                     `{}` loop's back-edge, so every iteration runs under the \
                                     lock; acquire it inside the loop or drop it before",
                                    g.name, g.line, li.kw
                                ),
                            });
                        }
                    }
                });
            }
        });
    }
    out
}

// ----- tainted-length allocation (rule 4) ----------------------------

/// Built-in taint sources for `tainted-alloc`; override with the rule's
/// `taint_sources` key in `lint.toml`.
pub(crate) const DEFAULT_TAINT_SOURCES: &[&str] = &["parse_request", "parse_routed"];

/// A binding event: a `let` or a plain `name = value` assignment.
struct TaintBind<'a> {
    ord: u32,
    name: String,
    line: u32,
    init: &'a Expr,
}

/// True when `e` contains a call to one of `sources`.
pub(crate) fn calls_source(e: &Expr, sources: &[String]) -> bool {
    let mut hit = false;
    walk_flat(e, &mut |x| match x {
        Expr::Call { callee, .. } => {
            if let Expr::Path { segs, .. } = callee.as_ref() {
                hit |= segs.last().is_some_and(|s| sources.iter().any(|t| t == s));
            }
        }
        Expr::MethodCall { name, .. } => {
            hit |= sources.iter().any(|t| t == name);
        }
        _ => {}
    });
    hit
}

/// True when `e` caps its value (`.min(..)` / `.clamp(..)`).
pub(crate) fn is_capped(e: &Expr) -> bool {
    let mut hit = false;
    walk_flat(e, &mut |x| {
        if let Expr::MethodCall { name, .. } = x {
            hit |= name == "min" || name == "clamp";
        }
    });
    hit
}

/// Names compared against something in `e` (a bounds check sanitizes
/// them).
fn compared_names(e: &Expr, out: &mut BTreeSet<String>) {
    walk_flat(e, &mut |x| {
        if let Expr::Binary { op, lhs, rhs, .. } = x {
            if matches!(op.as_str(), "<" | "<=" | ">" | ">=" | "==" | "!=") {
                mentions(lhs, out);
                mentions(rhs, out);
            }
        }
    });
}

fn check_tainted_alloc(ctx: &FlowCtx) -> Vec<Finding> {
    let mut sources = knob(ctx.rule_cfg, "taint_sources", DEFAULT_TAINT_SOURCES);
    // Interprocedural: functions whose summary returns unsanitized
    // source data are sources themselves.
    sources.extend(ctx.interp.taint_return_names());
    let mut out = Vec::new();
    for item in &ctx.ast.items {
        for_each_fn_cfg(item, &mut |_, cfg| {
            taint_one_fn(ctx, cfg, &sources, &mut out);
        });
    }
    out
}

fn taint_one_fn(ctx: &FlowCtx, cfg: &Cfg, sources: &[String], out: &mut Vec<Finding>) {
    // A value is capped syntactically (`.min`/`.clamp`) or through a
    // resolved callee whose summary sanitizes its return.
    let capped = |e: &Expr| is_capped(e) || ctx.interp.call_sanitizes(ctx.rel_path, e);
    // Binding events: `let name = init` and `name = value`.
    let mut binds: Vec<TaintBind> = Vec::new();
    for (_, s) in cfg.steps_in_order() {
        match &s.kind {
            StepKind::Let(Stmt::Let {
                name: Some(n),
                init: Some(init),
                span,
                ..
            }) => binds.push(TaintBind {
                ord: s.ord,
                name: n.clone(),
                line: span.line,
                init,
            }),
            StepKind::Eval(Expr::Binary {
                op, lhs, rhs, span, ..
            }) if op == "=" => {
                if let Expr::Path { segs, .. } = lhs.as_ref() {
                    if segs.len() == 1 {
                        binds.push(TaintBind {
                            ord: s.ord,
                            name: segs[0].clone(),
                            line: span.line,
                            init: rhs,
                        });
                    }
                }
            }
            _ => {}
        }
    }
    if binds.is_empty() {
        return;
    }

    // Static kills: rebinding, scope end, and bounds comparisons in
    // `if` conditions or binding initializers (a cap check sanitizes
    // the compared name on every outgoing path — the silence-leaning
    // over-approximation).
    let mut p = Problem::new(cfg, binds.len(), Mode::May);
    for (_, s) in cfg.steps_in_order() {
        match &s.kind {
            StepKind::ScopeEnd(names) => {
                for (i, b) in binds.iter().enumerate() {
                    if names.contains(&b.name) {
                        p.kill[s.ord as usize].push(i as u32);
                    }
                }
                continue;
            }
            StepKind::Cond { expr, kw: "if" } => {
                let mut cmp = BTreeSet::new();
                compared_names(expr, &mut cmp);
                for (i, b) in binds.iter().enumerate() {
                    if cmp.contains(&b.name) {
                        p.kill[s.ord as usize].push(i as u32);
                    }
                }
            }
            _ => {}
        }
        if let Some(bind) = binds.iter().find(|b| b.ord == s.ord) {
            let mut cmp = BTreeSet::new();
            compared_names(bind.init, &mut cmp);
            for (i, b) in binds.iter().enumerate() {
                // The new binding supersedes same-name sites (own gen
                // runs after the kill), and a comparison inside the
                // initializer sanitizes the compared names.
                if b.name == bind.name || cmp.contains(&b.name) {
                    p.kill[s.ord as usize].push(i as u32);
                }
            }
        }
    }

    // Gens, to a fixpoint: a bind is tainted when its initializer calls
    // a source, or mentions a name that is tainted just before it —
    // which depends on the solution, so iterate (monotone: gens only
    // get added; bounded by the bind count).
    let mut tainted = vec![false; binds.len()];
    for (i, b) in binds.iter().enumerate() {
        if calls_source(b.init, sources) && !capped(b.init) {
            tainted[i] = true;
            p.gen[b.ord as usize].push(i as u32);
        }
    }
    let mut sol = solve(cfg, &p);
    for _ in 0..=binds.len() {
        let mut changed = false;
        for node in 0..cfg.nodes.len() {
            let mut new_gens: Vec<(usize, u32)> = Vec::new();
            sol.for_each_step(cfg, &p, node, &mut |s: &Step, fact| {
                let Some((i, b)) = binds.iter().enumerate().find(|(_, b)| b.ord == s.ord) else {
                    return;
                };
                if tainted[i] || capped(b.init) {
                    return;
                }
                let mut used = BTreeSet::new();
                mentions(b.init, &mut used);
                let from_tainted = fact
                    .iter()
                    .any(|si| used.contains(&binds[si as usize].name));
                if from_tainted {
                    new_gens.push((i, s.ord));
                }
            });
            for (i, ord) in new_gens {
                tainted[i] = true;
                p.gen[ord as usize].push(i as u32);
                changed = true;
            }
        }
        if !changed {
            break;
        }
        sol = solve(cfg, &p);
    }

    // Sinks: with_capacity / reserve fed by a live tainted name, and
    // collection growth inside a loop bounded by one.
    let live_tainted = |fact: &SiteSet, e: &Expr| -> Option<(String, u32)> {
        let mut used = BTreeSet::new();
        mentions(e, &mut used);
        fact.iter()
            .map(|i| &binds[i as usize])
            .find(|b| used.contains(&b.name))
            .map(|b| (b.name.clone(), b.line))
    };
    let mut grow_seen: BTreeSet<(u32, u32)> = BTreeSet::new();
    for node in 0..cfg.nodes.len() {
        sol.for_each_step(cfg, &p, node, &mut |s: &Step, fact| {
            if fact.is_empty() {
                return;
            }
            if let Some(e) = step_expr(&s.kind) {
                walk_flat(e, &mut |x| {
                    let (args, span, what) = match x {
                        Expr::Call { callee, args, span } => {
                            let Expr::Path { segs, .. } = callee.as_ref() else {
                                return;
                            };
                            if segs.last().is_none_or(|s| s != "with_capacity") {
                                return;
                            }
                            (args, span, "with_capacity")
                        }
                        Expr::MethodCall {
                            name, args, span, ..
                        } if matches!(
                            name.as_str(),
                            "with_capacity" | "reserve" | "reserve_exact"
                        ) =>
                        {
                            (args, span, name.as_str())
                        }
                        _ => return,
                    };
                    for a in args {
                        if let Some((name, line)) = live_tainted(fact, a) {
                            out.push(Finding {
                                related: Vec::new(),
                                line: span.line,
                                col: span.col,
                                message: format!(
                                    "`{what}` is sized by `{name}`, untrusted input tainted at \
                                     line {line}; cap it first (`.min(LIMIT)`) or reject \
                                     oversized requests before allocating"
                                ),
                            });
                            return;
                        }
                    }
                });
            }
            // A loop whose condition/iterable is tainted: growth calls
            // inside its region are attacker-proportional.
            let StepKind::Cond { expr, kw } = s.kind else {
                return;
            };
            if !matches!(kw, "while" | "for") {
                return;
            }
            let Some(li) = cfg
                .loops
                .iter()
                .find(|l| l.kw == kw && l.cond.is_some_and(|c| std::ptr::eq(c, expr)))
            else {
                return;
            };
            let Some((name, line)) = live_tainted(fact, expr) else {
                return;
            };
            for (_, inner) in cfg.steps_in_order() {
                if inner.ord < li.first_ord || inner.ord > li.last_ord {
                    continue;
                }
                let Some(ie) = step_expr(&inner.kind) else {
                    continue;
                };
                walk_flat(ie, &mut |x| {
                    if let Expr::MethodCall { name: m, span, .. } = x {
                        if matches!(m.as_str(), "push" | "extend" | "append")
                            && grow_seen.insert((span.line, span.col))
                        {
                            out.push(Finding {
                                related: Vec::new(),
                                line: span.line,
                                col: span.col,
                                message: format!(
                                    "`{m}` grows a collection inside a loop bounded by `{name}`, \
                                     untrusted input tainted at line {line}; check it against a \
                                     limit before the loop"
                                ),
                            });
                        }
                    }
                });
            }
        });
    }
}

// ----- atomic ordering policy (rule 5) -------------------------------

const ATOMIC_OPS: &[&str] = &[
    "load",
    "store",
    "swap",
    "fetch_add",
    "fetch_sub",
    "fetch_and",
    "fetch_or",
    "fetch_xor",
    "fetch_max",
    "fetch_min",
];
const ORDERINGS: &[&str] = &["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

fn check_atomic_ordering(ctx: &FlowCtx) -> Vec<Finding> {
    let relaxed = knob(ctx.rule_cfg, "relaxed", &[]);
    let acqrel = knob(ctx.rule_cfg, "acquire_release", &[]);
    let mut out = Vec::new();
    let mut stack: Vec<&Item> = ctx.ast.items.iter().collect();
    while let Some(item) = stack.pop() {
        stack.extend(&item.items);
        if item.kind != ItemKind::Fn {
            continue;
        }
        let Some(body) = &item.body else { continue };
        body.walk_exprs(&mut |e| {
            let Expr::MethodCall {
                recv,
                name,
                args,
                span,
            } = e
            else {
                return;
            };
            if !ATOMIC_OPS.contains(&name.as_str()) {
                return;
            }
            // The ordering argument: exactly one `Ordering::X` path.
            // Zero means this isn't an atomic op (`Vec::swap`, a map
            // `load`); more than one (compare_exchange-like) is out of
            // this rule's model — silence.
            let mut ords: Vec<&str> = Vec::new();
            for a in args {
                a.walk(&mut |x| {
                    if let Expr::Path { segs, .. } = x {
                        if let Some(last) = segs.last() {
                            if let Some(o) = ORDERINGS.iter().find(|o| *o == last) {
                                ords.push(o);
                            }
                        }
                    }
                });
            }
            let [ord] = ords[..] else { return };
            let key = receiver_key(recv);
            if key == "?" {
                return;
            }
            if acqrel.contains(&key) {
                let (ok, want) = match name.as_str() {
                    "load" => (matches!(ord, "Acquire" | "SeqCst"), "Acquire"),
                    "store" => (matches!(ord, "Release" | "SeqCst"), "Release"),
                    _ => (matches!(ord, "AcqRel" | "SeqCst"), "AcqRel"),
                };
                if !ok {
                    out.push(Finding {
                        related: Vec::new(),
                        line: span.line,
                        col: span.col,
                        message: format!(
                            "atomic `{key}` is declared acquire_release in lint.toml but \
                             `{name}` uses `{ord}`; use `{want}` (or `SeqCst`) so admission \
                             reads pair with the writes they observe"
                        ),
                    });
                }
            } else if !relaxed.contains(&key) {
                out.push(Finding {
                    related: Vec::new(),
                    line: span.line,
                    col: span.col,
                    message: format!(
                        "atomic `{key}` has no declared ordering policy; add it to `relaxed` \
                         (pure counters) or `acquire_release` (read for decisions) under \
                         [rules.atomic-ordering] in lint.toml"
                    ),
                });
            }
        });
    }
    out
}

// ----- thread-shared field lockset (rule 6) --------------------------

/// The workspace-level Eraser analysis runs once in
/// [`crate::sharedstate::analyze`] (during [`Interp::build`]); this
/// check just surfaces the findings whose firing site is in this file,
/// so they flow through the normal suppression/baseline pipeline.
fn check_shared_field_race(ctx: &FlowCtx) -> Vec<Finding> {
    ctx.interp.shared_race_in(ctx.rel_path).to_vec()
}

// ----- guard escaping into a blocking callee (rule 7) ----------------

fn check_guard_passed_to_fn(ctx: &FlowCtx) -> Vec<Finding> {
    let mut out = Vec::new();
    for item in &ctx.ast.items {
        for_each_fn_cfg(item, &mut |_, cfg| {
            let (sites, p, sol) = guard_analysis(ctx.rel_path, ctx.interp, cfg);
            if sites.is_empty() {
                return;
            }
            for node in 0..cfg.nodes.len() {
                sol.for_each_step(cfg, &p, node, &mut |s: &Step, fact| {
                    if fact.is_empty() {
                        return;
                    }
                    let Some(e) = step_expr(&s.kind) else { return };
                    walk_flat(e, &mut |x| {
                        let (args, span) = match x {
                            Expr::Call { args, span, .. } | Expr::MethodCall { args, span, .. } => {
                                (args, span)
                            }
                            _ => return,
                        };
                        // Which live guards move into this call?  (The
                        // fact is pre-step, so the move itself is still
                        // visible here even though it kills the guard.)
                        let Some(g) = fact.iter().map(|i| &sites[i as usize]).find(|g| {
                            args.iter().any(|a| {
                                matches!(a, Expr::Path { segs, .. }
                                    if segs.len() == 1 && segs[0] == g.name)
                            })
                        }) else {
                            return;
                        };
                        let Some((idx, sum)) =
                            ctx.interp.callee_summary(ctx.rel_path, span.line, span.col)
                        else {
                            return; // unresolved callee: silence
                        };
                        if let Some(w) = &sum.may_block {
                            out.push(Finding {
                                related: vec![RelatedSite {
                                    path: w.file.clone(),
                                    line: w.line,
                                    col: w.col,
                                    note: format!(
                                        "the callee blocks here, with `{}` still held",
                                        g.name
                                    ),
                                }],
                                line: span.line,
                                col: span.col,
                                message: format!(
                                    "lock guard `{}` (acquired line {}) is passed into `{}`, \
                                     which can block ({} at {}:{}); the lock is held for the \
                                     callee's whole execution — do the blocking work before \
                                     locking, or pass the data instead of the guard",
                                    g.name,
                                    g.line,
                                    ctx.interp.fn_display(idx),
                                    w.what,
                                    w.file,
                                    w.line
                                ),
                            });
                        }
                    });
                });
            }
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::{mask, tokenize};
    use crate::parse::parse_file;

    fn run_rule(rule: &str, src: &str, rc: &RuleConfig) -> Vec<(u32, String)> {
        let tokens = tokenize(&mask(src).text);
        let ast = parse_file(&tokens);
        let parsed = vec![crate::workspace::ParsedFile {
            rel: "x/src/lib.rs".to_string(),
            tokens,
            ast,
        }];
        let ws = Workspace::build(&parsed, false);
        let lint_cfg = crate::config::LintConfig::default();
        let interp = Interp::build(&parsed, &ws, &lint_cfg);
        let ctx = FlowCtx {
            rel_path: "x/src/lib.rs",
            ast: &parsed[0].ast,
            ws: &ws,
            rule_cfg: rc,
            interp: &interp,
        };
        let def = flow_rule_by_name(rule).expect("rule");
        (def.check)(&ctx)
            .into_iter()
            .map(|f| (f.line, f.message))
            .collect()
    }

    fn run(rule: &str, src: &str) -> Vec<(u32, String)> {
        run_rule(rule, src, &RuleConfig::default())
    }

    #[test]
    fn blocking_call_under_guard_fires_and_drop_silences() {
        let src = "fn f(&self) {\n\
                   let g = self.state.lock().unwrap();\n\
                   self.file.write_all(&g.bytes());\n\
                   }";
        let hits = run("lock-across-blocking", src);
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert_eq!(hits[0].0, 3);
        assert!(hits[0].1.contains("`g`"), "{}", hits[0].1);

        let src = "fn f(&self) {\n\
                   let g = self.state.lock().unwrap();\n\
                   let b = g.bytes();\n\
                   drop(g);\n\
                   self.file.write_all(&b);\n\
                   }";
        assert!(run("lock-across-blocking", src).is_empty());
    }

    #[test]
    fn blocking_on_one_branch_only_is_must_silent_after_join() {
        // The guard is dropped on one path before the join; MUST
        // liveness stays silent at the post-join call.
        let src = "fn f(&self, c: bool) {\n\
                   let g = self.state.lock().unwrap();\n\
                   if c { drop(g); } else { drop(g); }\n\
                   self.file.flush();\n\
                   }";
        assert!(run("lock-across-blocking", src).is_empty());
    }

    #[test]
    fn double_lock_same_key_fires() {
        let src = "fn f(&self) {\n\
                   let a = self.jobs.lock().unwrap();\n\
                   let b = self.jobs.lock().unwrap();\n\
                   }";
        let hits = run("double-lock", src);
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert_eq!(hits[0].0, 3);
        assert!(hits[0].1.contains("self-deadlock"), "{}", hits[0].1);

        // Different keys: silent without a declared order.
        let src = "fn f(&self) {\n\
                   let a = self.jobs.lock().unwrap();\n\
                   let b = self.stats.lock().unwrap();\n\
                   }";
        assert!(run("double-lock", src).is_empty());
    }

    #[test]
    fn double_lock_declared_order_inversion_fires() {
        let mut rc = RuleConfig::default();
        rc.extra.insert(
            "order".to_string(),
            vec!["jobs".to_string(), "stats".to_string()],
        );
        let inverted = "fn f(&self) {\n\
                        let s = self.stats.lock().unwrap();\n\
                        let j = self.jobs.lock().unwrap();\n\
                        }";
        let hits = run_rule("double-lock", inverted, &rc);
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert!(hits[0].1.contains("inverts"), "{}", hits[0].1);

        let declared = "fn f(&self) {\n\
                        let j = self.jobs.lock().unwrap();\n\
                        let s = self.stats.lock().unwrap();\n\
                        }";
        assert!(run_rule("double-lock", declared, &rc).is_empty());
    }

    #[test]
    fn guard_across_loop_fires_only_for_outside_acquisitions() {
        let src = "fn f(&self) {\n\
                   let g = self.state.lock().unwrap();\n\
                   while self.running() {\n\
                   g.step();\n\
                   }\n\
                   }";
        let hits = run("guard-across-loop", src);
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert_eq!(hits[0].0, 3, "reported at the loop");

        // Re-acquired every iteration: fine.
        let src = "fn f(&self) {\n\
                   while self.running() {\n\
                   let g = self.state.lock().unwrap();\n\
                   g.step();\n\
                   }\n\
                   }";
        assert!(run("guard-across-loop", src).is_empty());
    }

    #[test]
    fn tainted_capacity_fires_and_cap_silences() {
        let src = "fn f(buf: &[u8]) {\n\
                   let req = parse_request(buf);\n\
                   let n = req.count;\n\
                   let v: Vec<u8> = Vec::with_capacity(n);\n\
                   }";
        let hits = run("tainted-alloc", src);
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert_eq!(hits[0].0, 4);
        assert!(hits[0].1.contains("`n`"), "{}", hits[0].1);

        // .min() caps the derived value.
        let src = "fn f(buf: &[u8]) {\n\
                   let req = parse_request(buf);\n\
                   let n = req.count.min(1024);\n\
                   let v: Vec<u8> = Vec::with_capacity(n);\n\
                   }";
        assert!(run("tainted-alloc", src).is_empty());

        // An if-guard comparison sanitizes on every outgoing path.
        let src = "fn f(buf: &[u8]) {\n\
                   let req = parse_request(buf);\n\
                   let n = req.count;\n\
                   if n > 1024 { return; }\n\
                   let v: Vec<u8> = Vec::with_capacity(n);\n\
                   }";
        assert!(run("tainted-alloc", src).is_empty());
    }

    #[test]
    fn tainted_push_in_loop_fires() {
        let src = "fn f(buf: &[u8]) {\n\
                   let n = parse_request(buf);\n\
                   let mut v = Vec::new();\n\
                   let mut i = 0;\n\
                   while i < n {\n\
                   v.push(i);\n\
                   i += 1;\n\
                   }\n\
                   }";
        let hits = run("tainted-alloc", src);
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert_eq!(hits[0].0, 6);
        assert!(hits[0].1.contains("loop"), "{}", hits[0].1);
    }

    #[test]
    fn atomic_policy_checks_declared_and_undeclared_fields() {
        let mut rc = RuleConfig::default();
        rc.extra
            .insert("relaxed".to_string(), vec!["submitted_total".to_string()]);
        rc.extra.insert(
            "acquire_release".to_string(),
            vec!["active_jobs".to_string()],
        );
        let src = "fn f(&self) {\n\
                   self.submitted_total.fetch_add(1, Ordering::Relaxed);\n\
                   let a = self.active_jobs.load(Ordering::Acquire);\n\
                   let b = self.active_jobs.load(Ordering::Relaxed);\n\
                   self.mystery.store(0, Ordering::SeqCst);\n\
                   }";
        let hits = run_rule("atomic-ordering", src, &rc);
        assert_eq!(hits.len(), 2, "{hits:?}");
        assert_eq!(hits[0].0, 4, "{hits:?}");
        assert!(hits[0].1.contains("Acquire"), "{}", hits[0].1);
        assert_eq!(hits[1].0, 5);
        assert!(hits[1].1.contains("no declared ordering"), "{}", hits[1].1);
    }

    #[test]
    fn non_atomic_swap_and_load_stay_silent() {
        // No Ordering argument: not an atomic op.
        let src = "fn f(&mut self) {\n\
                   self.items.swap(0, 1);\n\
                   let x = self.map.load(key);\n\
                   }";
        assert!(run("atomic-ordering", src).is_empty());
    }

    #[test]
    fn blocking_reached_through_a_callee_fires_with_the_witness() {
        let src = "fn save(d: &D) {\n\
                   d.file.sync_all();\n\
                   }\n\
                   fn f(&self) {\n\
                   let g = self.state.lock().unwrap();\n\
                   save(&g);\n\
                   }";
        let hits = run("lock-across-blocking", src);
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert_eq!(hits[0].0, 6);
        assert!(hits[0].1.contains("save"), "{}", hits[0].1);
        assert!(hits[0].1.contains("sync_all"), "{}", hits[0].1);
    }

    #[test]
    fn double_lock_through_a_callee_fires() {
        let src = "struct S { jobs: Mutex<u32> }\n\
                   impl S {\n\
                   fn f(&self) {\n\
                   let a = self.jobs.lock().unwrap();\n\
                   self.relock();\n\
                   }\n\
                   fn relock(&self) {\n\
                   let b = self.jobs.lock().unwrap();\n\
                   }\n\
                   }";
        let hits = run("double-lock", src);
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert_eq!(hits[0].0, 5);
        assert!(hits[0].1.contains("S::relock"), "{}", hits[0].1);
        assert!(hits[0].1.contains("`jobs`"), "{}", hits[0].1);
    }

    #[test]
    fn guard_returned_by_a_helper_is_tracked() {
        let src = "struct S { state: Mutex<u32>, file: F }\n\
                   impl S {\n\
                   fn hold(&self) -> MutexGuard<u32> {\n\
                   self.state.lock().unwrap()\n\
                   }\n\
                   fn f(&self) {\n\
                   let g = self.hold();\n\
                   self.file.write_all(&d);\n\
                   }\n\
                   }";
        let hits = run("lock-across-blocking", src);
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert_eq!(hits[0].0, 8);
        assert!(hits[0].1.contains("`g`"), "{}", hits[0].1);
    }

    #[test]
    fn guard_passed_to_blocking_callee_fires_there_and_only_there() {
        let src = "struct S { state: Mutex<u32>, file: F }\n\
                   impl S {\n\
                   fn flush_under(&self, g: MutexGuard<u32>) {\n\
                   self.file.sync_all();\n\
                   }\n\
                   fn f(&self) {\n\
                   let g = self.state.lock().unwrap();\n\
                   self.flush_under(g);\n\
                   }\n\
                   }";
        let hits = run("guard-passed-to-fn", src);
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert_eq!(hits[0].0, 8);
        assert!(hits[0].1.contains("flush_under"), "{}", hits[0].1);
        // The same site is guard-passed-to-fn's, not lock-across-blocking's.
        assert!(run("lock-across-blocking", src).is_empty());
        // An unresolvable callee stays silent.
        let src = "fn f(&self) {\n\
                   let g = self.state.lock().unwrap();\n\
                   consume(g);\n\
                   }";
        assert!(run("guard-passed-to-fn", src).is_empty());
    }

    #[test]
    fn shared_field_race_fires_when_lock_discipline_breaks() {
        let src = "struct Hub { jobs: Mutex<u32>, pending: usize }\n\
                   impl Hub {\n\
                   fn start(&self) { spawn(|| self.work()); }\n\
                   fn work(&self) {\n\
                   let g = self.jobs.lock().unwrap();\n\
                   let n = self.pending;\n\
                   }\n\
                   fn peek(&self) -> usize { self.pending }\n\
                   fn grow(&mut self) { self.pending += 1; }\n\
                   }";
        let hits = run("shared-field-race", src);
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert_eq!(hits[0].0, 8, "fires at the unlocked access");
        assert!(hits[0].1.contains("`pending`"), "{}", hits[0].1);
        assert!(hits[0].1.contains("`jobs`"), "{}", hits[0].1);

        // Never-mutated fields stay silent (reads cannot race).
        let src = "struct Hub { jobs: Mutex<u32>, pending: usize }\n\
                   impl Hub {\n\
                   fn start(&self) { spawn(|| self.work()); }\n\
                   fn work(&self) {\n\
                   let g = self.jobs.lock().unwrap();\n\
                   let n = self.pending;\n\
                   }\n\
                   fn peek(&self) -> usize { self.pending }\n\
                   }";
        assert!(run("shared-field-race", src).is_empty());

        // No spawn: the type never crosses a thread boundary.
        let src = "struct Hub { jobs: Mutex<u32>, pending: usize }\n\
                   impl Hub {\n\
                   fn work(&self) {\n\
                   let g = self.jobs.lock().unwrap();\n\
                   let n = self.pending;\n\
                   }\n\
                   fn peek(&self) -> usize { self.pending }\n\
                   fn grow(&mut self) { self.pending += 1; }\n\
                   }";
        assert!(run("shared-field-race", src).is_empty());
    }

    #[test]
    fn taint_flows_through_helper_returns_and_sanitizing_callees() {
        // A helper returning raw source data becomes a source.
        let src = "fn len_of(buf: &[u8]) -> usize {\n\
                   parse_request(buf)\n\
                   }\n\
                   fn f(buf: &[u8]) {\n\
                   let n = len_of(buf);\n\
                   let v: Vec<u8> = Vec::with_capacity(n);\n\
                   }";
        let hits = run("tainted-alloc", src);
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert_eq!(hits[0].0, 6);

        // A helper that caps its return is not a source.
        let src = "fn len_of(buf: &[u8]) -> usize {\n\
                   parse_request(buf).min(64)\n\
                   }\n\
                   fn f(buf: &[u8]) {\n\
                   let n = len_of(buf);\n\
                   let v: Vec<u8> = Vec::with_capacity(n);\n\
                   }";
        assert!(run("tainted-alloc", src).is_empty());

        // A capping callee sanitizes a raw source at the call site.
        let src = "fn cap(x: usize) -> usize {\n\
                   x.min(64)\n\
                   }\n\
                   fn f(buf: &[u8]) {\n\
                   let n = cap(parse_request(buf));\n\
                   let v: Vec<u8> = Vec::with_capacity(n);\n\
                   }";
        assert!(run("tainted-alloc", src).is_empty());
    }

    #[test]
    fn every_flow_rule_has_explain_content() {
        for r in FLOW_RULES {
            assert!(!r.doc.is_empty(), "{} has no doc", r.name);
            assert!(!r.example.is_empty(), "{} has no example", r.name);
        }
    }
}
