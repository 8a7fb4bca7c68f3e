//! The prose points at real files: every backticked repository path in the
//! user-facing documents must exist, so a rename or deletion that leaves a
//! document pointing at nothing fails here instead of misleading a reader.
//!
//! ROADMAP.md and CHANGES.md record history (paths that existed once) and
//! are not checked.

use std::path::Path;

const DOCS: [&str; 4] = [
    "README.md",
    "DESIGN.md",
    "EXPERIMENTS.md",
    ".claude/skills/verify/SKILL.md",
];

const TOP_DIRS: [&str; 10] = [
    "crates/",
    "shims/",
    "benchmark/",
    "tests/",
    "examples/",
    "results/",
    "results_paper_scale/",
    "src/",
    ".github/",
    ".claude/",
];

const EXTENSIONS: [&str; 9] = [
    ".rs", ".toml", ".md", ".csv", ".json", ".jsonl", ".sh", ".yml", ".prom",
];

/// Whether a backticked span names a repository path: it starts in a
/// top-level directory or ends in a repository file extension, and it is a
/// path (it has a `/`), not a bare file name, a command line or a pattern.
fn is_repo_path(span: &str) -> bool {
    let shaped = TOP_DIRS.iter().any(|d| span.starts_with(d))
        || EXTENSIONS.iter().any(|e| span.ends_with(e));
    shaped
        && span.contains('/')
        && !span.contains(|c: char| c.is_whitespace() || matches!(c, '*' | '<' | '>'))
}

/// Resolve as written, then under `crates/`, then as
/// `crates/<crate>/src/<rest>` (the way the prose abbreviates module paths).
fn resolves(root: &Path, path: &str) -> bool {
    let crate_src = path
        .split_once('/')
        .map(|(krate, rest)| root.join("crates").join(krate).join("src").join(rest));
    root.join(path).exists()
        || root.join("crates").join(path).exists()
        || crate_src.is_some_and(|p| p.exists())
}

#[test]
fn documented_paths_exist() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut checked = 0;
    let mut missing = Vec::new();
    for doc in DOCS {
        let text = std::fs::read_to_string(root.join(doc))
            .unwrap_or_else(|e| panic!("reading {doc}: {e}"));
        for (n, line) in text.lines().enumerate() {
            // Odd-numbered pieces of a line split on '`' are inline code.
            for span in line.split('`').skip(1).step_by(2) {
                if is_repo_path(span) {
                    checked += 1;
                    if !resolves(root, span) {
                        missing.push(format!("{doc}:{}: `{span}`", n + 1));
                    }
                }
            }
        }
    }
    assert!(
        checked > 0,
        "no repository paths found; is the scan broken?"
    );
    assert!(
        missing.is_empty(),
        "documented paths that do not exist:\n{}",
        missing.join("\n")
    );
}

#[test]
fn path_shapes() {
    assert!(is_repo_path("crates/core/src/statics.rs"));
    assert!(is_repo_path("engine/tests/adaptive.rs"));
    assert!(is_repo_path("results/"));
    assert!(!is_repo_path("statics.rs"), "a bare file name");
    assert!(!is_repo_path("benchmark/run.sh --quick"), "a command line");
    assert!(!is_repo_path("results/*.csv"), "a pattern");
    assert!(
        !is_repo_path("fuzz-repro-<seed>-<case>.json"),
        "a placeholder"
    );
    assert!(!is_repo_path("hcq_core::PolicyKind"));
}
