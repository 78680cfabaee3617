//! Golden-fixture self-test: the analyzer must flag exactly the
//! `//~ <lint>` marked lines in `fixtures/violations.rs`, nothing in
//! `fixtures/clean.rs` (a catalog of near-misses), and nothing in
//! `fixtures/suppressed.rs` (real findings covered by well-formed
//! suppressions). The markers live in the fixtures themselves, so the
//! expectation table cannot drift from the file it describes.

use softermax_analysis::manifest::Manifest;
use softermax_analysis::{analyze_sources, Lint};

const VIOLATIONS: &str = include_str!("../fixtures/violations.rs");
const CLEAN: &str = include_str!("../fixtures/clean.rs");
const SUPPRESSED: &str = include_str!("../fixtures/suppressed.rs");

/// A manifest aimed at the fixture files: the whole `fixtures/` prefix
/// is a lock scope, and every fixture's `hot_fn` is hot.
fn fixture_manifest() -> Manifest {
    Manifest::from_json(
        r#"{
            "hot_paths": [
                {"file": "fixtures/violations.rs", "functions": ["hot_fn"]},
                {"file": "fixtures/clean.rs", "functions": ["hot_fn"]},
                {"file": "fixtures/suppressed.rs", "functions": ["hot_fn"]}
            ],
            "lock_scopes": [
                {"scope": "fixtures", "order": ["first", "second"], "condvars": ["work"]}
            ]
        }"#,
    )
    .expect("fixture manifest parses")
}

/// Parses `//~ <lint>` markers: `(1-based line, lint name)` pairs,
/// sorted. Unknown lint names are a test bug and panic immediately.
fn expected_markers(src: &str) -> Vec<(u32, String)> {
    let mut out = Vec::new();
    for (i, line) in src.lines().enumerate() {
        let mut rest = line;
        while let Some(pos) = rest.find("//~ ") {
            let tail = &rest[pos + 4..];
            let name = tail
                .split_whitespace()
                .next()
                .expect("a `//~` marker must name a lint");
            assert!(
                Lint::all().iter().any(|l| l.name() == name),
                "fixture marker names unknown lint `{name}`"
            );
            out.push((i as u32 + 1, name.to_owned()));
            rest = tail;
        }
    }
    out.sort();
    out
}

#[test]
fn violations_fixture_flags_exactly_the_marked_lines() {
    let sources = vec![("fixtures/violations.rs".to_owned(), VIOLATIONS.to_owned())];
    let analysis = analyze_sources(&sources, &fixture_manifest());

    let mut actual: Vec<(u32, String)> = analysis
        .violations
        .iter()
        .map(|v| (v.line, v.lint.name().to_owned()))
        .collect();
    actual.sort();

    let expected = expected_markers(VIOLATIONS);
    assert!(!expected.is_empty(), "fixture must plant violations");
    assert_eq!(
        actual,
        expected,
        "analyzer findings must match the //~ markers exactly\n\
         findings:\n{}",
        analysis
            .violations
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn condvar_wait_outside_loop_is_flagged_like_the_pr8_bug() {
    // The acceptance-critical case: `if !pred { wait() }` — the exact
    // lost-wakeup shape PR 8 fixed — must be flagged...
    let wait_line = VIOLATIONS
        .lines()
        .position(|l| l.contains("shared.work.wait(guard)"))
        .expect("violations fixture plants a wait") as u32
        + 1;
    let sources = vec![("fixtures/violations.rs".to_owned(), VIOLATIONS.to_owned())];
    let analysis = analyze_sources(&sources, &fixture_manifest());
    assert!(
        analysis
            .violations
            .iter()
            .any(|v| v.lint == Lint::LockDiscipline && v.line == wait_line),
        "wait outside a predicate loop must be a lock-discipline finding"
    );

    // ...while the `while`/`loop` predicate forms in the clean fixture
    // must not be.
    let waits = CLEAN.matches(".wait(").count();
    assert!(
        waits >= 2,
        "clean fixture must exercise both predicate-loop wait forms"
    );
}

#[test]
fn clean_fixture_has_zero_findings() {
    let sources = vec![("fixtures/clean.rs".to_owned(), CLEAN.to_owned())];
    let analysis = analyze_sources(&sources, &fixture_manifest());
    assert!(
        analysis.violations.is_empty(),
        "clean fixture must produce no findings, got:\n{}",
        analysis
            .violations
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
    // The audited unsafe block is still *inventoried* — auditing is
    // not suppression.
    assert_eq!(analysis.unsafe_sites.len(), 1);
    assert!(analysis.unsafe_sites[0].rationale.is_some());
}

#[test]
fn suppressed_fixture_survives_with_zero_findings() {
    let sources = vec![("fixtures/suppressed.rs".to_owned(), SUPPRESSED.to_owned())];
    let analysis = analyze_sources(&sources, &fixture_manifest());
    assert!(
        analysis.violations.is_empty(),
        "well-formed suppressions must cover every planted finding, got:\n{}",
        analysis
            .violations
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );

    // Each suppression must be load-bearing: with the markers defused,
    // every one of them uncovers exactly one finding of the lint it
    // names, on its own line or the line below.
    let suppressions: Vec<(u32, &str)> = SUPPRESSED
        .lines()
        .enumerate()
        .filter_map(|(i, line)| {
            let (_, rest) = line.split_once("// analysis:allow(")?;
            Some((i as u32 + 1, rest.split_once(')')?.0))
        })
        .collect();
    assert_eq!(
        suppressions.len(),
        5,
        "fixture covers hot-path-alloc and lock-discipline in both forms, plus unsafe-audit"
    );
    let defused = SUPPRESSED.replace("analysis:allow(", "analysis-defused(");
    let sources = vec![("fixtures/suppressed.rs".to_owned(), defused)];
    let analysis = analyze_sources(&sources, &fixture_manifest());
    assert_eq!(analysis.violations.len(), suppressions.len());
    for (line, lint) in suppressions {
        assert!(
            analysis
                .violations
                .iter()
                .any(|v| v.lint.name() == lint && (v.line == line || v.line == line + 1)),
            "suppression `{lint}` on line {line} covers no finding"
        );
    }
}
