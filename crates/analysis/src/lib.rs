//! `softermax-analysis` — the workspace's static-analysis suite.
//!
//! The serving stack's correctness rests on invariants that `rustc`
//! and clippy cannot see: every `unsafe` needs a written justification
//! and an inventory entry, the hot per-row path must not allocate, and
//! locks must be taken in one declared order with condvar waits in
//! predicate loops. This crate lexes the workspace honestly (see
//! [`lexer`]) and enforces those as a lint catalog:
//!
//! | lint | what it denies |
//! |------|----------------|
//! | `unsafe-audit` | `unsafe` without a `// SAFETY:` comment; drift against `docs/UNSAFE_INVENTORY.md` |
//! | `hot-path-alloc` | allocating calls inside manifest-listed hot functions |
//! | `lock-discipline` | undeclared locks, out-of-order acquisition, condvar waits outside `while`/`loop` |
//! | `bad-suppression` | `analysis:allow` without a lint name and reason, or naming an unknown lint |
//!
//! What the compiler can carry, it does: the no-panic zones are
//! `#![deny(clippy::unwrap_used, …)]` in the wire, server and client
//! crate roots, and the wire contract is checked against
//! `docs/PROTOCOL.md` by `crates/wire/tests/protocol_doc.rs`.
//!
//! Findings are suppressed — one at a time, with a mandatory reason —
//! by `// analysis:allow(<lint>): <reason>` on the same line or the
//! line above. See `docs/ANALYSIS.md` for the full catalog and the
//! manifest format.

#![forbid(unsafe_code)]

pub mod hot_alloc;
pub mod inventory;
pub mod items;
pub mod lexer;
pub mod lock_discipline;
pub mod manifest;
pub mod scan;
pub mod unsafe_audit;

use std::path::Path;

use manifest::Manifest;
use scan::SourceFile;
use unsafe_audit::UnsafeSite;

/// The lint catalog.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lint {
    UnsafeAudit,
    HotPathAlloc,
    LockDiscipline,
    BadSuppression,
}

impl Lint {
    /// The stable name used in output and `analysis:allow` comments.
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            Lint::UnsafeAudit => "unsafe-audit",
            Lint::HotPathAlloc => "hot-path-alloc",
            Lint::LockDiscipline => "lock-discipline",
            Lint::BadSuppression => "bad-suppression",
        }
    }

    /// All lint names (for validating suppression comments).
    #[must_use]
    pub const fn all() -> &'static [Lint] {
        &[
            Lint::UnsafeAudit,
            Lint::HotPathAlloc,
            Lint::LockDiscipline,
            Lint::BadSuppression,
        ]
    }
}

/// One finding: a lint, a location, and what to do about it.
#[derive(Debug, Clone)]
pub struct Violation {
    pub lint: Lint,
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    pub message: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file,
            self.line,
            self.lint.name(),
            self.message
        )
    }
}

/// The result of a full analysis pass.
#[derive(Debug)]
pub struct Analysis {
    /// Surviving findings (suppressed ones removed), sorted by file
    /// then line.
    pub violations: Vec<Violation>,
    /// Every `unsafe` site found, for the inventory.
    pub unsafe_sites: Vec<UnsafeSite>,
}

/// Runs the whole catalog over pre-loaded `(rel_path, contents)`
/// sources.
#[must_use]
pub fn analyze_sources(sources: &[(String, String)], manifest: &Manifest) -> Analysis {
    let mut violations = Vec::new();
    let mut unsafe_sites = Vec::new();

    for (rel, text) in sources {
        let file = SourceFile::parse(rel, text);

        unsafe_audit::run(&file, &mut unsafe_sites, &mut violations);
        if let Some(hot) = manifest.hot_path_for(rel) {
            hot_alloc::run(&file, hot, &mut violations);
        }
        if let Some(scope) = manifest.lock_scope_for(rel) {
            lock_discipline::run(&file, scope, &mut violations);
        }

        apply_suppressions(&file, &mut violations);
    }

    violations.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    Analysis {
        violations,
        unsafe_sites,
    }
}

/// Removes findings covered by a well-formed suppression on the same
/// line or the line above, and emits `bad-suppression` findings for
/// malformed or unknown-lint suppressions in `file`.
fn apply_suppressions(file: &SourceFile, violations: &mut Vec<Violation>) {
    for s in &file.suppressions {
        if s.malformed {
            violations.push(Violation {
                lint: Lint::BadSuppression,
                file: file.rel_path.clone(),
                line: s.line,
                message: format!(
                    "malformed suppression ({}): the form is \
                     `// analysis:allow(<lint>): <reason>` and the reason is mandatory",
                    s.reason
                ),
            });
        } else if !Lint::all().iter().any(|l| l.name() == s.lint) {
            violations.push(Violation {
                lint: Lint::BadSuppression,
                file: file.rel_path.clone(),
                line: s.line,
                message: format!(
                    "suppression names unknown lint `{}` (known: {})",
                    s.lint,
                    Lint::all()
                        .iter()
                        .map(|l| l.name())
                        .collect::<Vec<_>>()
                        .join(", ")
                ),
            });
        }
    }
    violations.retain(|v| {
        if v.file != file.rel_path {
            return true;
        }
        !file.suppressions.iter().any(|s| {
            !s.malformed && s.lint == v.lint.name() && (s.line == v.line || s.line + 1 == v.line)
        })
    });
}

/// Walks `root` and runs the full catalog with the given manifest.
///
/// # Errors
///
/// Returns the first I/O error from walking or reading sources.
pub fn analyze_workspace(root: &Path, manifest: &Manifest) -> std::io::Result<Analysis> {
    let sources = scan::collect_sources(root)?;
    Ok(analyze_sources(&sources, manifest))
}

/// The workspace root this binary was built in: `crates/analysis/../..`.
#[must_use]
pub fn default_root() -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}
