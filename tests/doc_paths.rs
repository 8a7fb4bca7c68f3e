//! The prose points at real files and real benchmark cells: every
//! backticked repository path in the user-facing documents must exist,
//! every backticked bare Rust file name must name a source file, every
//! backticked benchmark cell must be declared in `BENCHMARK.json`, every
//! backticked `hcq_<crate>::…` item path must resolve segment by segment,
//! and every flag of a `repro` command line must be listed by `repro --help`,
//! so a rename or deletion that leaves a document pointing at nothing fails
//! here instead of misleading a reader.
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

/// Directories whose files a bare file name in the prose may name.
const SOURCE_DIRS: [&str; 6] = ["crates", "benchmark", "tests", "examples", "src", "shims"];

/// Whether a backticked span is a bare Rust file name: it ends in `.rs`,
/// has no `/` and no whitespace.
fn is_bare_rs(span: &str) -> bool {
    span.ends_with(".rs") && !span.contains(|c: char| c == '/' || c.is_whitespace())
}

/// The names of every file under `dir`, build output (`target/`) skipped.
fn file_names(dir: &Path, names: &mut Vec<String>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            if entry.file_name() != "target" {
                file_names(&path, names);
            }
        } else {
            names.push(entry.file_name().to_string_lossy().into_owned());
        }
    }
}

/// Every backticked bare Rust file name (`statics.rs`) names a file
/// somewhere under the source directories.
#[test]
fn documented_file_names_exist() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut names = Vec::new();
    for dir in SOURCE_DIRS {
        file_names(&root.join(dir), &mut names);
    }
    let mut checked = 0;
    let mut missing = Vec::new();
    for doc in DOCS {
        let text = std::fs::read_to_string(root.join(doc))
            .unwrap_or_else(|e| panic!("reading {doc}: {e}"));
        for (n, line) in text.lines().enumerate() {
            for span in line.split('`').skip(1).step_by(2) {
                if is_bare_rs(span) {
                    checked += 1;
                    if !names.iter().any(|name| name == span) {
                        missing.push(format!("{doc}:{}: `{span}`", n + 1));
                    }
                }
            }
        }
    }
    assert!(checked > 0, "no file names found; is the scan broken?");
    assert!(
        missing.is_empty(),
        "documented file names that no source file has:\n{}",
        missing.join("\n")
    );
}

/// The per-layer cell names `BENCHMARK.json` declares.
fn benchmark_cells(root: &Path) -> Vec<String> {
    let text =
        std::fs::read_to_string(root.join("BENCHMARK.json")).expect("reading BENCHMARK.json");
    let json = hcq_common::json::parse(&text).expect("BENCHMARK.json parses");
    let cells = json
        .get("per_layer")
        .and_then(|c| c.as_arr())
        .expect("a per_layer list");
    let name = |c: &hcq_common::json::JsonValue| c.get("name")?.as_str().map(str::to_string);
    cells
        .iter()
        .map(|c| name(c).expect("a named cell"))
        .collect()
}

/// Whether `name` matches `pattern`, in which `*` stands for any run of
/// characters.
fn glob_matches(pattern: &str, name: &str) -> bool {
    let mut parts = pattern.split('*');
    let Some(mut rest) = name.strip_prefix(parts.next().unwrap_or_default()) else {
        return false;
    };
    let parts: Vec<&str> = parts.collect();
    for (i, part) in parts.iter().enumerate() {
        if i + 1 == parts.len() {
            return rest.ends_with(part);
        }
        match rest.find(part) {
            Some(at) => rest = &rest[at + part.len()..],
            None => return false,
        }
    }
    rest.is_empty()
}

/// Every backticked span whose first dot-separated segment is a
/// `BENCHMARK.json` per-layer prefix (`core`, `runtime`, …), and which is
/// not a file name (`metrics.prom`) or a command, names a declared cell; a
/// span with `*` must match one.
#[test]
fn documented_benchmark_cells_exist() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let cells = benchmark_cells(root);
    let prefix = |name: &str| name.split_once('.').map(|(p, _)| p.to_string());
    let prefixes: Vec<String> = cells.iter().filter_map(|c| prefix(c)).collect();
    let mut checked = 0;
    let mut missing = Vec::new();
    for doc in DOCS {
        let text = std::fs::read_to_string(root.join(doc))
            .unwrap_or_else(|e| panic!("reading {doc}: {e}"));
        for (n, line) in text.lines().enumerate() {
            for span in line.split('`').skip(1).step_by(2) {
                let cell = prefix(span).is_some_and(|p| prefixes.contains(&p))
                    && !EXTENSIONS.iter().any(|e| span.ends_with(e))
                    && !span.contains(char::is_whitespace);
                if cell {
                    checked += 1;
                    if !cells.iter().any(|c| glob_matches(span, c)) {
                        missing.push(format!("{doc}:{}: `{span}`", n + 1));
                    }
                }
            }
        }
    }
    assert!(checked > 0, "no benchmark cells found; is the scan broken?");
    assert!(
        missing.is_empty(),
        "documented benchmark cells that BENCHMARK.json does not declare:\n{}",
        missing.join("\n")
    );
}

/// The items a backticked `hcq_<crate>::…` or `hcq-<crate>::…` span names,
/// as `(crate, segments after the crate)`:
/// `hcq_core::{StaticPolicy::srpt, FcfsPolicy}` names `StaticPolicy::srpt`
/// and `FcfsPolicy` in `core`, a list's prefix leads each of its items, and
/// generic arguments are dropped.
fn item_paths(span: &str) -> Vec<(&str, Vec<&str>)> {
    let crate_path = span
        .strip_prefix("hcq_")
        .or_else(|| span.strip_prefix("hcq-"));
    let Some((krate, rest)) = crate_path.and_then(|s| s.split_once("::")) else {
        return Vec::new();
    };
    let list = rest.strip_suffix('}').and_then(|r| r.split_once('{'));
    let (prefix, items) = match list {
        Some((prefix, list)) => (prefix, list.split(',').map(str::trim).collect()),
        None => ("", vec![rest]),
    };
    items
        .into_iter()
        .filter(|item| !item.contains(char::is_whitespace))
        .map(|item| {
            let item = item.split(['<', '(']).next().unwrap_or_default();
            let segments = prefix.split("::").chain(item.split("::"));
            (krate, segments.filter(|s| !s.is_empty()).collect())
        })
        .collect()
}

/// Whether an item path resolves in a crate whose root is `lib` and whose
/// whole `src/` is `source`: the first segment is reachable from the root
/// (a `mod` or item declared in `lib`, or a name its `pub use` lists),
/// every later segment but the last is declared as a module or a type, and
/// the last is declared anywhere.
fn resolves_item(lib: &str, source: &str, segments: &[&str]) -> bool {
    let Some((&last, init)) = segments.split_last() else {
        return false;
    };
    let first = segments[0];
    let reachable = declares(lib, first) || re_exports(lib).contains(&first);
    let scopes = init
        .iter()
        .skip(1)
        .all(|s| declares_as(source, s, &["mod", "struct", "enum", "trait", "type"]));
    reachable && scopes && declares(source, last)
}

/// Every word of every `pub use` statement in `source`: the names it
/// re-exports, with their paths.
fn re_exports(source: &str) -> Vec<&str> {
    source
        .split("pub use ")
        .skip(1)
        .flat_map(|s| words(s.split(';').next().unwrap_or_default()))
        .collect()
}

/// The identifier-shaped words of `text`.
fn words(text: &str) -> impl Iterator<Item = &str> {
    text.split(|c: char| !(c.is_alphanumeric() || c == '_'))
        .filter(|w| !w.is_empty())
}

/// Whether `name` is declared in `source`: a `fn`, `struct`, `enum`,
/// `trait`, `type`, `mod`, `const`, `static` or `macro_rules!` of that name,
/// or a variant of an `enum`.
fn declares(source: &str, name: &str) -> bool {
    const KEYWORDS: [&str; 9] = [
        "fn",
        "struct",
        "enum",
        "trait",
        "type",
        "mod",
        "const",
        "static",
        "macro_rules",
    ];
    declares_as(source, name, &KEYWORDS) || enum_variants(source).contains(&name)
}

/// Whether `source` declares `name` after one of `keywords`.
fn declares_as(source: &str, name: &str, keywords: &[&str]) -> bool {
    let words: Vec<&str> = words(source).collect();
    words
        .windows(2)
        .any(|w| w[1] == name && keywords.contains(&w[0]))
}

/// The variants of every `enum` in `source`, as rustfmt lays one out: an
/// `enum … {` line opens the body, and at brace depth 1 each line that is
/// not a comment, an attribute or the closing brace starts with a variant.
fn enum_variants(source: &str) -> Vec<&str> {
    let mut variants = Vec::new();
    let mut depth = 0;
    for line in source.lines() {
        let code = line.split("//").next().unwrap_or_default().trim();
        if depth == 0 {
            let opens = code.ends_with('{') && code.split_whitespace().any(|w| w == "enum");
            depth = i32::from(opens);
            continue;
        }
        if depth == 1 && code.starts_with(char::is_alphabetic) {
            let end = code
                .find(|c: char| !(c.is_alphanumeric() || c == '_'))
                .unwrap_or(code.len());
            variants.push(&code[..end]);
        }
        depth += code.matches('{').count() as i32 - code.matches('}').count() as i32;
    }
    variants
}

/// The text of every Rust file under `dir`.
fn rust_sources(dir: &Path, out: &mut String) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            rust_sources(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push_str(&std::fs::read_to_string(&path).unwrap_or_default());
            out.push('\n');
        }
    }
}

/// Every backticked `hcq_<crate>::…` or `hcq-<crate>::…` item path names a
/// crate under `crates/` and resolves there ([`resolves_item`]; a module
/// file is declared by its `mod`).
#[test]
fn documented_item_paths_exist() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut crates = std::collections::HashMap::new();
    let mut checked = 0;
    let mut missing = Vec::new();
    for doc in DOCS {
        let text = std::fs::read_to_string(root.join(doc))
            .unwrap_or_else(|e| panic!("reading {doc}: {e}"));
        for (n, line) in text.lines().enumerate() {
            for span in line.split('`').skip(1).step_by(2) {
                for (krate, segments) in item_paths(span) {
                    checked += 1;
                    let sources = crates.entry(krate.to_string()).or_insert_with(|| {
                        let src = root.join("crates").join(krate).join("src");
                        let lib = std::fs::read_to_string(src.join("lib.rs")).ok()?;
                        let mut text = String::new();
                        rust_sources(&src, &mut text);
                        Some((lib, text))
                    });
                    let found = sources
                        .as_ref()
                        .is_some_and(|(lib, source)| resolves_item(lib, source, &segments));
                    if !found {
                        missing.push(format!("{doc}:{}: `{span}`", n + 1));
                    }
                }
            }
        }
    }
    assert!(checked > 0, "no item paths found; is the scan broken?");
    assert!(
        missing.is_empty(),
        "documented items that their crate does not declare:\n{}",
        missing.join("\n")
    );
}

/// The flags of a `repro` command line (bare, or run by path as
/// `./target/release/repro`), up to the first pipe, redirect or command
/// separator; empty when `text` runs no `repro`.
fn repro_flags(text: &str) -> Vec<&str> {
    let words: Vec<&str> = text.split_whitespace().collect();
    let Some(start) = words
        .iter()
        .position(|w| *w == "repro" || w.ends_with("/repro"))
    else {
        return Vec::new();
    };
    let command = words[start + 1..]
        .iter()
        .take_while(|w| !matches!(**w, "|" | ">" | "2>" | ";" | "&&" | "||"));
    command
        .filter(|w| w.starts_with("--") && w[2..].starts_with(|c: char| c.is_ascii_lowercase()))
        .map(|w| w.trim_end_matches(|c: char| !(c.is_ascii_alphanumeric() || c == '-')))
        .collect()
}

/// Every flag of a backticked `repro` command line, inline or in a fenced
/// block, appears in the text `repro --help` prints.
#[test]
fn documented_repro_flags_exist() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let usage = hcq_repro::usage();
    let listed: Vec<&str> = usage
        .split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
        .collect();
    let mut checked = 0;
    let mut missing = Vec::new();
    for doc in DOCS {
        let text = std::fs::read_to_string(root.join(doc))
            .unwrap_or_else(|e| panic!("reading {doc}: {e}"));
        let mut fenced = false;
        for (n, line) in text.lines().enumerate() {
            if line.trim_start().starts_with("```") {
                fenced = !fenced;
                continue;
            }
            let spans: Vec<&str> = if fenced {
                vec![line]
            } else {
                line.split('`').skip(1).step_by(2).collect()
            };
            for flag in spans.into_iter().flat_map(repro_flags) {
                checked += 1;
                if !listed.contains(&flag) {
                    missing.push(format!("{doc}:{}: `{flag}`", n + 1));
                }
            }
        }
    }
    assert!(checked > 0, "no repro flags found; is the scan broken?");
    assert!(
        missing.is_empty(),
        "documented repro flags that `repro --help` does not list:\n{}",
        missing.join("\n")
    );
}

#[test]
fn repro_flag_shapes() {
    assert_eq!(
        repro_flags("repro fig12 --queries 10 --out /tmp/a"),
        ["--queries", "--out"]
    );
    assert_eq!(
        repro_flags("./target/release/repro all --jobs 2 > /dev/null --not-a-flag"),
        ["--jobs"]
    );
    assert_eq!(repro_flags("repro run --jobs N`,"), ["--jobs"]);
    assert!(repro_flags("cargo test --release --test doc_paths").is_empty());
    assert!(repro_flags("repro validate").is_empty());
}

#[test]
fn item_path_shapes() {
    assert_eq!(
        item_paths("hcq_core::PolicyKind"),
        [("core", vec!["PolicyKind"])]
    );
    assert_eq!(
        item_paths("hcq_engine::queues::UnitQueues<T>"),
        [("engine", vec!["queues", "UnitQueues"])]
    );
    assert_eq!(
        item_paths("hcq_core::{StaticPolicy::srpt, FcfsPolicy}"),
        [
            ("core", vec!["StaticPolicy", "srpt"]),
            ("core", vec!["FcfsPolicy"])
        ]
    );
    assert_eq!(
        item_paths("hcq-core::cluster::{Uniform,Logarithmic}"),
        [
            ("core", vec!["cluster", "Uniform"]),
            ("core", vec!["cluster", "Logarithmic"])
        ]
    );
    let lib = "pub mod queues;\nmod build;\npub use cluster::{ClusterConfig, \n    \
               Clustering};\npub fn run() {}";
    let source = format!(
        "{lib}\npub struct UnitQueues;\nimpl UnitQueues {{ pub fn shared() {{}} }}\n\
         pub enum Clustering {{\n    Uniform,\n}}\nimpl Config {{ pub fn paper() {{}} }}"
    );
    let resolves = |path: &[&str]| resolves_item(lib, &source, path);
    assert!(
        resolves(&["queues", "UnitQueues"]),
        "a module, then an item"
    );
    assert!(
        resolves(&["Clustering", "Uniform"]),
        "a re-export's variant"
    );
    assert!(resolves(&["run"]), "an item of the root");
    assert!(!resolves(&["UnitQueues", "shared"]), "not re-exported");
    assert!(resolves(&["queues", "UnitQueues", "shared"]), "a type's fn");
    assert!(!resolves(&["paper"]), "an associated fn is not at the root");
    assert!(!resolves(&["shared"]), "nor is this one");
    assert!(!resolves(&["build", "paper", "x"]), "a fn is not a scope");
    assert!(
        !resolves(&["queues", "Missing"]),
        "the last segment is checked"
    );
    assert!(item_paths("hcq-core").is_empty(), "a package name");
    assert!(item_paths("hcq-fuzz-v1").is_empty(), "a format name");
    assert!(item_paths("hcq_core::Policy + Send").is_empty(), "a bound");
    assert!(declares("pub(crate) fn run_cell(x: u8)", "run_cell"));
    assert!(declares("macro_rules! pin {", "pin"));
    assert!(!declares("let run_cell = 1;", "run_cell"));
    let enumeration = "pub enum Rank {\n    /// `{ doc }`\n    #[default]\n    Bsd,\n    \
                       Lp(f64),\n    Inline {\n        len: u8,\n    },\n}\nfn f() {}";
    assert_eq!(enum_variants(enumeration), ["Bsd", "Lp", "Inline"]);
    assert!(declares(enumeration, "Lp"));
    assert!(!declares(enumeration, "len"), "a field, not a variant");
    assert!(!declares(enumeration, "default"), "an attribute");
    assert!(
        !declares("struct Rank {\n    Bsd: u8,\n}", "Bsd"),
        "not an enum"
    );
}

#[test]
fn glob_shapes() {
    assert!(glob_matches("core.hnr.select_ns", "core.hnr.select_ns"));
    assert!(!glob_matches("core.hnr.select", "core.hnr.select_ns"));
    assert!(glob_matches(
        "core.*.point_ns.q100k",
        "core.bsd.point_ns.q100k"
    ));
    assert!(glob_matches("loc.*", "loc.total"));
    assert!(!glob_matches("core.*.q1m", "core.bsd.point_ns.q100k"));
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
    assert!(is_bare_rs("statics.rs"));
    assert!(!is_bare_rs("crates/core/src/statics.rs"), "a path");
    assert!(!is_bare_rs("cargo test statics.rs"), "a command line");
    assert!(!is_bare_rs("metrics.prom"));
}
