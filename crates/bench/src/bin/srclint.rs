//! `srclint` — source-convention lint for the hot path.
//!
//! Mechanical conventions the code review keeps re-litigating, checked
//! in CI instead:
//!
//! * **No bare `.unwrap()`** in hot-path files (`decisionflow`'s
//!   `server.rs` and everything under `engine/`, `store/`, and
//!   `statestore/`): a worker, shard, or WAL-appender thread panicking
//!   takes instances with it, so every panic site must be a documented
//!   `.expect(..)`.
//! * **Every `.expect(` in those files carries a `// invariant:`
//!   comment** on the same or the previous line, naming why the value
//!   is always there.
//! * **Every non-`Relaxed` atomic ordering** (`SeqCst`, `Acquire`,
//!   `Release`, `AcqRel`) anywhere in `decisionflow/src` carries a
//!   `// ordering:` comment on the same or the previous line, naming
//!   what the ordering pairs with.
//! * **Every fsync site** (`.sync_all(` / `.sync_data(`) anywhere in
//!   `decisionflow/src` carries a `// durability:` comment on the
//!   same or the previous line, naming what the sync makes durable —
//!   fsyncs are the WAL's only persistence points *and* its dominant
//!   cost, so each one must justify itself.
//! * **One scheduling driver.** Anywhere in `decisionflow/src` and
//!   `dflowperf/src`, only `engine/runtime.rs` and `engine/scheduler.rs`
//!   may call `scheduler::select`/`select_into` or build an
//!   `Event::Round` frame: every driver schedules through
//!   `InstanceRuntime::round`, so what a round is and how it is
//!   journaled lives in one place.
//! * **One fingerprint per server instance.** In `decisionflow`'s
//!   `server.rs`, `schema_fingerprint(` appears at one site only (the
//!   helper that computes an instance's value once and carries it),
//!   and the public wrappers that fingerprint internally
//!   (`InstanceSnapshot::capture(`, `plan_delta(`,
//!   `JournalWriter::new(` / `JournalWriter::streaming(`) are not
//!   called there: each would hash the schema again, tens of µs per
//!   call.
//!
//! Test modules (everything from the first `#[cfg(test)]` to end of
//! file) and comment lines are exempt — tests may unwrap freely.
//!
//! ```text
//! cargo run -p dflow-bench --bin srclint
//! ```
//!
//! Exits 0 when clean, 1 with one `file:line: message` per violation.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Repo root, computed from this crate's manifest dir (crates/bench)
/// so the lint works from any working directory.
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/bench sits two levels below the repo root")
        .to_path_buf()
}

/// Hot-path files: a panic here unwinds a shard worker or a WAL
/// appender lane.
fn hot_path_files(root: &Path) -> Vec<PathBuf> {
    let src = root.join("crates/decisionflow/src");
    // api.rs carries the per-shard event-lane hot path (publish_batch
    // runs on every completion), so it lints at hot-path strictness.
    let mut files = vec![src.join("server.rs"), src.join("api.rs")];
    for dir in ["engine", "store", "statestore"] {
        let dir = src.join(dir);
        let entries =
            std::fs::read_dir(&dir).unwrap_or_else(|e| panic!("read_dir {}: {e}", dir.display()));
        for entry in entries {
            let path = entry.expect("readable dir entry").path();
            if path.extension().is_some_and(|x| x == "rs") {
                files.push(path);
            }
        }
    }
    files.sort();
    files
}

/// Every `.rs` file under `dir`, recursively.
fn rust_files(dir: PathBuf) -> Vec<PathBuf> {
    let mut files = Vec::new();
    let mut stack = vec![dir];
    while let Some(dir) = stack.pop() {
        let entries =
            std::fs::read_dir(&dir).unwrap_or_else(|e| panic!("read_dir {}: {e}", dir.display()));
        for entry in entries {
            let path = entry.expect("readable dir entry").path();
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|x| x == "rs") {
                files.push(path);
            }
        }
    }
    files.sort();
    files
}

/// The non-test, non-comment lines of a file: `(line_number, text)`.
/// Everything from the first `#[cfg(test)]` onward is test code.
fn lintable_lines(source: &str) -> Vec<(usize, &str)> {
    source
        .lines()
        .take_while(|l| !l.trim_start().starts_with("#[cfg(test)]"))
        .enumerate()
        .map(|(i, l)| (i + 1, l))
        .filter(|(_, l)| !l.trim_start().starts_with("//"))
        .collect()
}

/// Does the annotation appear on this line (after any code) or in the
/// contiguous `//` comment block immediately above it?
fn annotated(lines: &[(usize, &str)], idx: usize, source: &str, marker: &str) -> bool {
    let (lineno, line) = lines[idx];
    if line.contains(marker) {
        return true;
    }
    // Walk the preceding comment block (comment lines were filtered
    // out of `lines`, so consult the raw text).
    let raw: Vec<&str> = source.lines().collect();
    let mut i = lineno - 1; // index of the flagged line in `raw`
    while i > 0 && raw[i - 1].trim_start().starts_with("//") {
        i -= 1;
        if raw[i].contains(marker) {
            return true;
        }
    }
    false
}

const ORDERINGS: [&str; 4] = [
    "Ordering::SeqCst",
    "Ordering::Acquire",
    "Ordering::Release",
    "Ordering::AcqRel",
];

fn lint_file(path: &Path, hot: bool, violations: &mut Vec<String>) {
    let source =
        std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    let rel = path.display();
    let lines = lintable_lines(&source);
    for (idx, &(lineno, line)) in lines.iter().enumerate() {
        if hot && line.contains(".unwrap()") {
            violations.push(format!(
                "{rel}:{lineno}: bare `.unwrap()` on the hot path — use `.expect(..)` \
                 with a `// invariant:` comment"
            ));
        }
        if hot && line.contains(".expect(") && !annotated(&lines, idx, &source, "// invariant:") {
            violations.push(format!(
                "{rel}:{lineno}: `.expect(` without a `// invariant:` comment on this \
                 or the previous line"
            ));
        }
        if ORDERINGS.iter().any(|o| line.contains(o))
            && !annotated(&lines, idx, &source, "// ordering:")
        {
            violations.push(format!(
                "{rel}:{lineno}: non-Relaxed atomic ordering without a `// ordering:` \
                 comment on this or the previous line"
            ));
        }
        if (line.contains(".sync_all(") || line.contains(".sync_data("))
            && !annotated(&lines, idx, &source, "// durability:")
        {
            violations.push(format!(
                "{rel}:{lineno}: fsync without a `// durability:` comment on this or \
                 the previous line naming what it makes durable"
            ));
        }
    }
}

/// The files that may run a scheduling round by hand: the runtime's
/// `round` step and the scheduler it calls.
const ROUND_OWNERS: [&str; 2] = [
    "crates/decisionflow/src/engine/runtime.rs",
    "crates/decisionflow/src/engine/scheduler.rs",
];

/// Flag scheduler calls and `Event::Round` literals outside
/// [`ROUND_OWNERS`]. The lintable lines are rejoined so a literal
/// spanning several lines is read whole.
fn lint_round_driver(path: &Path, violations: &mut Vec<String>) {
    let source =
        std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    let mut text = String::new();
    let mut starts = Vec::new();
    for (lineno, line) in lintable_lines(&source) {
        starts.push((text.len(), lineno));
        text.push_str(line);
        text.push('\n');
    }
    let line_at = |off: usize| starts[starts.partition_point(|&(o, _)| o <= off) - 1].1;
    let rel = path.display();
    for call in ["select(", "select_into("] {
        for (off, _) in text.match_indices(call) {
            let prev = text[..off].chars().next_back();
            if prev.is_some_and(|c| c.is_alphanumeric() || c == '_' || c == '.') {
                continue;
            }
            violations.push(format!(
                "{rel}:{}: `scheduler::{call}..)` outside the runtime — schedule through \
                 `InstanceRuntime::round`",
                line_at(off)
            ));
        }
    }
    for (off, m) in text.match_indices("Event::Round") {
        if builds_round(&text[off + m.len()..]) {
            violations.push(format!(
                "{rel}:{}: `Event::Round` built outside the runtime — rounds are journaled \
                 only by `InstanceRuntime::round`",
                line_at(off)
            ));
        }
    }
}

/// Calls that fingerprint a schema. The server may compute the
/// fingerprint at one site; the wrappers recompute it inside.
const FINGERPRINT_CALL: &str = "schema_fingerprint(";
const FINGERPRINTING_WRAPPERS: [&str; 4] = [
    "InstanceSnapshot::capture(",
    "plan_delta(",
    "JournalWriter::new(",
    "JournalWriter::streaming(",
];

/// Offsets in `text` where `call` is called as a path or free
/// function: not a method (`.call(`) and not the tail of a longer
/// identifier (`Shared` + `JournalWriter::new(`).
fn call_sites(text: &str, call: &str) -> Vec<usize> {
    text.match_indices(call)
        .map(|(off, _)| off)
        .filter(|&off| {
            let prev = text[..off].chars().next_back();
            !prev.is_some_and(|c| c.is_alphanumeric() || c == '_' || c == '.')
        })
        .collect()
}

/// Flag a second `schema_fingerprint(` site and any call of a
/// fingerprinting wrapper in the server's non-test, non-comment code.
fn lint_fingerprint_sites(path: &Path, violations: &mut Vec<String>) {
    let source =
        std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    let rel = path.display();
    let mut sites = Vec::new();
    for (lineno, line) in lintable_lines(&source) {
        sites.extend(call_sites(line, FINGERPRINT_CALL).iter().map(|_| lineno));
        for wrapper in FINGERPRINTING_WRAPPERS {
            for _ in call_sites(line, wrapper) {
                violations.push(format!(
                    "{rel}:{lineno}: `{wrapper}..)` fingerprints the schema again — pass the \
                     instance's carried fingerprint to the crate-internal variant"
                ));
            }
        }
    }
    if sites.len() > 1 {
        for lineno in sites {
            violations.push(format!(
                "{rel}:{lineno}: one of several `{FINGERPRINT_CALL}..)` sites — compute an \
                 instance's fingerprint at one site and carry it"
            ));
        }
    }
}

/// Is the `Event::Round` path followed by `rest` a struct literal that
/// builds a frame, rather than a pattern? A pattern has a bare `..`
/// field or is followed by `=>`, `|` or `=`.
fn builds_round(rest: &str) -> bool {
    let Some(body) = rest.trim_start().strip_prefix('{') else {
        return false;
    };
    let mut depth = 0usize;
    let mut field = String::new();
    let mut rest_field = false;
    for (i, c) in body.char_indices() {
        match c {
            '{' | '(' | '[' => depth += 1,
            '}' | ')' | ']' if depth > 0 => depth -= 1,
            ',' | '}' if depth == 0 => {
                rest_field |= field.trim() == "..";
                field.clear();
                if c == ',' {
                    continue;
                }
                let after = body[i + 1..].trim_start();
                let pattern = rest_field
                    || after.starts_with("=>")
                    || (after.starts_with('|') && !after.starts_with("||"))
                    || (after.starts_with('=') && !after.starts_with("=="));
                return !pattern;
            }
            _ => {}
        }
        field.push(c);
    }
    false
}

fn main() -> ExitCode {
    let root = repo_root();
    let hot: Vec<PathBuf> = hot_path_files(&root);
    let mut violations = Vec::new();
    for path in rust_files(root.join("crates/decisionflow/src")) {
        lint_file(&path, hot.contains(&path), &mut violations);
    }
    let owners: Vec<PathBuf> = ROUND_OWNERS.iter().map(|f| root.join(f)).collect();
    for dir in ["crates/decisionflow/src", "crates/dflowperf/src"] {
        for path in rust_files(root.join(dir)) {
            if !owners.contains(&path) {
                lint_round_driver(&path, &mut violations);
            }
        }
    }
    lint_fingerprint_sites(
        &root.join("crates/decisionflow/src/server.rs"),
        &mut violations,
    );
    if violations.is_empty() {
        println!("srclint: clean");
        ExitCode::SUCCESS
    } else {
        for v in &violations {
            eprintln!("{v}");
        }
        eprintln!("srclint: {} violation(s)", violations.len());
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::{builds_round, call_sites};

    #[test]
    fn fingerprint_calls_are_told_from_methods_and_longer_names() {
        assert_eq!(
            call_sites("let fp = schema_fingerprint(&s);", "schema_fingerprint("),
            [9]
        );
        assert_eq!(
            call_sites("journal::schema_fingerprint(s)", "schema_fingerprint("),
            [9]
        );
        // A method of the same name and a longer identifier are not it.
        assert!(call_sites("prior.schema_fingerprint()", "schema_fingerprint(").is_empty());
        assert!(call_sites("SharedJournalWriter::new(w)", "JournalWriter::new(").is_empty());
        assert!(call_sites("plan_delta_with(s, fp, p, v)", "plan_delta(").is_empty());
        assert!(call_sites("replan_delta(s)", "plan_delta(").is_empty());
        assert_eq!(
            call_sites("statestore::plan_delta(s)", "plan_delta(").len(),
            1
        );
    }

    #[test]
    fn round_literals_are_told_from_patterns() {
        // Constructions: the argument of a call, a `let` initializer.
        assert!(builds_round(" { round, candidates, picked: p.clone() });"));
        assert!(builds_round(
            " {\n    round: 0,\n    candidates: (0..n).collect(),\n    picked,\n};"
        ));
        // Patterns: a rest field, a match arm, an or-pattern, `let`.
        assert!(!builds_round(" { .. } => \"round\","));
        assert!(!builds_round(" { round, .. })"));
        assert!(!builds_round(
            " {\n    round,\n    candidates,\n    picked,\n} => {"
        ));
        assert!(!builds_round(
            " { round, candidates, picked } | other => {}"
        ));
        assert!(!builds_round(
            " { round, candidates, picked } = event else {"
        ));
        // A path without a brace is neither.
        assert!(!builds_round("\n"));
    }
}
