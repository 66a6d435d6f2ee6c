//! Fixture-based self-tests: every rule has a firing fixture and a
//! suppressed fixture, plus lexer edge cases that must stay silent.
//!
//! Fixtures are linted with a *bare* config (no scoping, no
//! allowlists), so every rule applies to every fixture — exactly the
//! worst case for false positives.

use sbs_analysis::{lint_source, lint_sources, Baseline, LintConfig, SourceFile};
use std::collections::BTreeMap;

fn bare_cfg() -> LintConfig {
    LintConfig {
        rules: BTreeMap::new(),
        ..LintConfig::default()
    }
}

fn fixture(name: &str) -> String {
    let path = format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// Lints a fixture and returns `(line, rule)` pairs.
fn lint_fixture(name: &str) -> Vec<(u32, String)> {
    lint_source(name, &fixture(name), &bare_cfg())
        .into_iter()
        .map(|d| (d.line, d.rule))
        .collect()
}

fn assert_silent(name: &str) {
    let d = lint_fixture(name);
    assert!(d.is_empty(), "{name}: expected no diagnostics, got {d:?}");
}

#[test]
fn wall_clock_fires() {
    assert_eq!(
        lint_fixture("wall_clock_fires.rs"),
        vec![(5, "wall-clock".to_string()), (9, "wall-clock".to_string())]
    );
}

#[test]
fn wall_clock_suppressed() {
    assert_silent("wall_clock_suppressed.rs");
}

#[test]
fn unordered_map_fires() {
    assert_eq!(
        lint_fixture("unordered_map_fires.rs"),
        vec![
            (5, "unordered-map".to_string()),
            (8, "unordered-map".to_string()),
        ]
    );
}

#[test]
fn unordered_map_suppressed() {
    assert_silent("unordered_map_suppressed.rs");
}

#[test]
fn panic_fires() {
    assert_eq!(
        lint_fixture("panic_fires.rs"),
        vec![
            (6, "panic-in-daemon".to_string()),
            (7, "panic-in-daemon".to_string()),
            (9, "panic-in-daemon".to_string()),
            (11, "panic-in-daemon".to_string()),
        ]
    );
}

#[test]
fn panic_suppressed() {
    assert_silent("panic_suppressed.rs");
}

#[test]
fn float_ordering_fires() {
    // The fixture's `partial_cmp(..).unwrap()` trips both the float rule
    // and the panic rule — both are real findings on that line.
    assert_eq!(
        lint_fixture("float_ordering_fires.rs"),
        vec![
            (5, "float-ordering".to_string()),
            (5, "panic-in-daemon".to_string()),
        ]
    );
}

#[test]
fn float_ordering_suppressed() {
    assert_silent("float_ordering_suppressed.rs");
}

#[test]
fn forbid_unsafe_fires() {
    assert_eq!(
        lint_fixture("unsafe_fires.rs"),
        vec![(4, "forbid-unsafe".to_string())]
    );
}

#[test]
fn forbid_unsafe_suppressed() {
    assert_silent("unsafe_suppressed.rs");
}

/// Lints a set of fixtures as one cross-file workspace and returns
/// `(file, line, rule)` triples.
fn lint_fixtures_cross(names: &[&str]) -> Vec<(String, u32, String)> {
    let files: Vec<SourceFile> = names
        .iter()
        .map(|n| SourceFile {
            rel: (*n).to_string(),
            source: fixture(n),
        })
        .collect();
    lint_sources(&files, &bare_cfg(), true)
        .into_iter()
        .map(|d| (d.path, d.line, d.rule))
        .collect()
}

#[test]
fn cast_truncation_fires() {
    assert_eq!(
        lint_fixture("cast_truncation_fires.rs"),
        vec![
            (5, "cast-truncation".to_string()),
            (9, "cast-truncation".to_string()),
            (13, "cast-truncation".to_string()),
        ]
    );
}

#[test]
fn cast_truncation_suppressed() {
    assert_silent("cast_truncation_suppressed.rs");
}

#[test]
fn time_arith_fires() {
    assert_eq!(
        lint_fixture("time_arith_fires.rs"),
        vec![
            (5, "unchecked-time-arith".to_string()),
            (9, "unchecked-time-arith".to_string()),
            (13, "unchecked-time-arith".to_string()),
        ]
    );
}

#[test]
fn time_arith_suppressed() {
    assert_silent("time_arith_suppressed.rs");
}

#[test]
fn lock_ordering_fires() {
    // Both sides of the inverted pair are flagged, at the inner
    // acquisition of each.
    assert_eq!(
        lint_fixture("lock_ordering_fires.rs"),
        vec![
            (12, "lock-ordering".to_string()),
            (19, "lock-ordering".to_string()),
        ]
    );
}

#[test]
fn lock_ordering_suppressed() {
    assert_silent("lock_ordering_suppressed.rs");
}

#[test]
fn result_dropped_fires() {
    assert_eq!(
        lint_fixture("result_dropped_fires.rs"),
        vec![
            (8, "result-dropped".to_string()),
            (9, "result-dropped".to_string()),
        ]
    );
}

#[test]
fn result_dropped_suppressed() {
    assert_silent("result_dropped_suppressed.rs");
}

#[test]
fn pub_dead_item_fires() {
    // `orphan` is never mentioned outside its file; `used` is kept
    // alive by the consumer half.
    assert_eq!(
        lint_fixtures_cross(&["pub_dead_fires_a.rs", "pub_dead_fires_b.rs"]),
        vec![(
            "pub_dead_fires_a.rs".to_string(),
            3,
            "pub-dead-item".to_string()
        )]
    );
}

#[test]
fn pub_dead_item_suppressed() {
    let d = lint_fixtures_cross(&["pub_dead_suppressed_a.rs", "pub_dead_fires_b.rs"]);
    assert!(d.is_empty(), "expected no diagnostics, got {d:?}");
}

// ----- flow-sensitive rules (CFG + dataflow) -------------------------

#[test]
fn lock_across_blocking_fires() {
    assert_eq!(
        lint_fixture("lock_across_blocking_fires.rs"),
        vec![
            (12, "lock-across-blocking".to_string()),
            (23, "lock-across-blocking".to_string())
        ]
    );
}

#[test]
fn lock_across_blocking_suppressed() {
    assert_silent("lock_across_blocking_suppressed.rs");
}

#[test]
fn double_lock_fires() {
    assert_eq!(
        lint_fixture("double_lock_fires.rs"),
        vec![(11, "double-lock".to_string())]
    );
}

#[test]
fn double_lock_suppressed() {
    assert_silent("double_lock_suppressed.rs");
}

#[test]
fn guard_across_loop_fires() {
    // Reported at the loop header, naming the outside acquisition.
    assert_eq!(
        lint_fixture("guard_across_loop_fires.rs"),
        vec![(13, "guard-across-loop".to_string())]
    );
}

#[test]
fn guard_across_loop_suppressed() {
    assert_silent("guard_across_loop_suppressed.rs");
}

#[test]
fn tainted_alloc_fires() {
    assert_eq!(
        lint_fixture("tainted_alloc_fires.rs"),
        vec![(6, "tainted-alloc".to_string())]
    );
}

#[test]
fn tainted_alloc_suppressed() {
    assert_silent("tainted_alloc_suppressed.rs");
}

#[test]
fn atomic_ordering_fires() {
    // Bare config declares no per-field policy, so any atomic op is an
    // undeclared-policy finding.
    assert_eq!(
        lint_fixture("atomic_ordering_fires.rs"),
        vec![(10, "atomic-ordering".to_string())]
    );
}

#[test]
fn atomic_ordering_suppressed() {
    assert_silent("atomic_ordering_suppressed.rs");
}

#[test]
fn shared_field_race_fires() {
    // `pending` is read under the `jobs` lock in `audit` and with no
    // lock in `peek`; the type is thread-shared (self-capturing closure
    // handed to `thread::spawn`) and mutated (`grow`), so the lockset
    // intersection emptying at `peek` is a finding.
    assert_eq!(
        lint_fixture("shared_field_race_fires.rs"),
        vec![(23, "shared-field-race".to_string())]
    );
}

#[test]
fn shared_field_race_suppressed() {
    assert_silent("shared_field_race_suppressed.rs");
}

#[test]
fn guard_passed_to_fn_fires() {
    // The guard for `state` is moved into `flush_under`, whose summary
    // says it blocks (`out.flush()`); the finding lands on the passing
    // call, not inside the callee.
    assert_eq!(
        lint_fixture("guard_passed_to_fn_fires.rs"),
        vec![(17, "guard-passed-to-fn".to_string())]
    );
}

#[test]
fn guard_passed_to_fn_suppressed() {
    assert_silent("guard_passed_to_fn_suppressed.rs");
}

#[test]
fn interprocedural_layer_leaves_intraprocedural_verdicts_unchanged() {
    // Differential check: the summary-aware lifts may only ADD findings
    // where a resolved callee carries an effect. On the original
    // intraprocedural flow fixtures the verdicts must stay identical —
    // same rule, same line, nothing extra, and the suppressed twins
    // stay silent.
    let cases: [(&str, &[u32], &str); 5] = [
        (
            "lock_across_blocking_fires.rs",
            &[12, 23],
            "lock-across-blocking",
        ),
        ("double_lock_fires.rs", &[11], "double-lock"),
        ("guard_across_loop_fires.rs", &[13], "guard-across-loop"),
        ("tainted_alloc_fires.rs", &[6], "tainted-alloc"),
        ("atomic_ordering_fires.rs", &[10], "atomic-ordering"),
    ];
    for (name, lines, rule) in cases {
        assert_eq!(
            lint_fixture(name),
            lines
                .iter()
                .map(|&line| (line, rule.to_string()))
                .collect::<Vec<_>>(),
            "{name}: interprocedural layer changed the verdict"
        );
    }
    for name in [
        "lock_across_blocking_suppressed.rs",
        "double_lock_suppressed.rs",
        "guard_across_loop_suppressed.rs",
        "tainted_alloc_suppressed.rs",
        "atomic_ordering_suppressed.rs",
    ] {
        assert_silent(name);
    }
}

#[test]
fn flow_findings_carry_exact_positions() {
    // The acceptance check for the seeded-bug drill: the firing
    // fixture's diagnostic renders grep-style with the exact line:col
    // of the blocking call, not of the acquisition.
    let d = lint_source(
        "lock_across_blocking_fires.rs",
        &fixture("lock_across_blocking_fires.rs"),
        &bare_cfg(),
    );
    let first = d.first().expect("fixture fires").to_string();
    assert!(
        first.starts_with("lock_across_blocking_fires.rs:12:9"),
        "unexpected rendering: {first}"
    );
}

/// Every new semantic rule can be pinned in the baseline: a pin at the
/// firing count swallows the findings, and a reintroduction (count
/// above the pin) surfaces them all again.
#[test]
fn new_rules_are_baseline_pinnable() {
    let cases: [(&[&str], &str, u32); 12] = [
        (&["cast_truncation_fires.rs"], "cast-truncation", 3),
        (&["time_arith_fires.rs"], "unchecked-time-arith", 3),
        (&["lock_ordering_fires.rs"], "lock-ordering", 2),
        (&["result_dropped_fires.rs"], "result-dropped", 2),
        (
            &["pub_dead_fires_a.rs", "pub_dead_fires_b.rs"],
            "pub-dead-item",
            1,
        ),
        (
            &["lock_across_blocking_fires.rs"],
            "lock-across-blocking",
            2,
        ),
        (&["double_lock_fires.rs"], "double-lock", 1),
        (&["guard_across_loop_fires.rs"], "guard-across-loop", 1),
        (&["tainted_alloc_fires.rs"], "tainted-alloc", 1),
        (&["atomic_ordering_fires.rs"], "atomic-ordering", 1),
        (&["shared_field_race_fires.rs"], "shared-field-race", 1),
        (&["guard_passed_to_fn_fires.rs"], "guard-passed-to-fn", 1),
    ];
    for (names, rule, count) in cases {
        let files: Vec<SourceFile> = names
            .iter()
            .map(|n| SourceFile {
                rel: (*n).to_string(),
                source: fixture(n),
            })
            .collect();
        let diags = lint_sources(&files, &bare_cfg(), true);
        assert_eq!(diags.len(), count as usize, "{rule}: unexpected findings");
        let mut pins = String::new();
        for name in names {
            let n = diags.iter().filter(|d| d.path == *name).count();
            if n > 0 {
                pins.push_str(&format!(
                    "[[pin]]\nrule = \"{rule}\"\nfile = \"{name}\"\ncount = {n}\n\
                     reason = \"pre-existing findings pinned by the fixture test\"\n\n"
                ));
            }
        }
        let baseline = Baseline::parse(&pins).expect("pin syntax");
        let outcome = baseline.apply(&diags);
        assert!(
            outcome.new.is_empty(),
            "{rule}: pinned findings must not surface, got {:?}",
            outcome.new
        );
        assert!(outcome.improved.is_empty() && outcome.stale.is_empty());

        // One finding above the pin un-pins the whole (rule, file) pair.
        let mut more = diags.clone();
        let mut extra = diags[0].clone();
        extra.line += 1000;
        more.push(extra);
        let outcome = baseline.apply(&more);
        assert!(
            !outcome.new.is_empty(),
            "{rule}: findings above the pin must surface"
        );
    }
}

#[test]
fn lexer_edge_cases_never_fire() {
    // Raw strings containing `Instant::now()`, `//` inside string
    // literals, nested `/* /* */ */` comments, tricky char literals and
    // lifetimes: all must be invisible to every rule.
    assert_silent("lexer_edge_cases.rs");
}

#[test]
fn diagnostics_carry_exact_positions() {
    // The acceptance check for "reintroduce a violation, get the right
    // file:line back": render the first wall-clock finding grep-style.
    let d = lint_source(
        "wall_clock_fires.rs",
        &fixture("wall_clock_fires.rs"),
        &bare_cfg(),
    );
    let first = d.first().expect("fixture fires").to_string();
    assert!(
        first.starts_with("wall_clock_fires.rs:5:"),
        "unexpected rendering: {first}"
    );
    assert!(first.contains("wall-clock"), "{first}");
}
