//! Workspace scanning: which files the rules apply to.
//!
//! Scope: every non-test `.rs` file under `src/` of the
//! [`SCANNED_CRATES`]; `crates/lint` audits itself only via its own tests,
//! not the workspace pass. D7 also reads the facade's `src/`, `examples/`
//! and `perfbench/src/` as consumers of the scanned crates' public items.
//! Test code is excluded twice over: `tests/` trees are never walked, and
//! `#[cfg(test)]`/`#[test]` items inside `src/` are skipped by the
//! analyzer.
//!
//! Some crates are *partially* exempt via the [`CRATE_EXEMPTIONS`] table:
//! the real-time `crates/live` runtime legitimately reads the machine
//! clock, so D1 is scoped out for that crate (and only that rule — the
//! rest of the rule set still applies to it). Exemptions are keyed on the
//! path, so they hold in both workspace and single-file mode.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::callers::{role, Callers, Role, CALLERLESS_ALLOWLIST};
use crate::rules::{analyze, lint_source, Finding};
use crate::tokenizer::{lex, Lexed};

/// Crates whose `src/` trees the workspace pass audits.
pub const SCANNED_CRATES: [&str; 9] = [
    "clock",
    "core",
    "net",
    "runtime",
    "sim",
    "adversary",
    "chaos",
    "harness",
    "live",
];

/// Path-scoped crate exemptions: `(crate dir under crates/, rule id)`.
///
/// `byzclock-live` is the real-time runtime — reading the machine's
/// monotonic clock is its entire purpose, so D1 (`wall-clock`) does not
/// apply there; the other rules (seeded RNG, ordered collections, float
/// total-ordering, hot-path unwraps) still do. Scoping the exemption to
/// the crate keeps its sources free of per-line `lint:allow` noise while
/// leaving D1 enforced everywhere determinism is the contract.
pub const CRATE_EXEMPTIONS: [(&str, &str); 1] = [("live", "d1")];

/// The `crates/<name>/…` crate directory a path belongs to, if any.
fn crate_of(path: &str) -> Option<&str> {
    for (idx, _) in path.match_indices("crates/") {
        if idx == 0 || path.as_bytes()[idx - 1] == b'/' {
            return path[idx + "crates/".len()..]
                .split('/')
                .next()
                .filter(|s| !s.is_empty());
        }
    }
    None
}

/// True when `rule` is exempted for the crate owning `path` (by the
/// [`CRATE_EXEMPTIONS`] table).
pub fn rule_exempt(path: &str, rule: &str) -> bool {
    crate_of(path).is_some_and(|krate| {
        CRATE_EXEMPTIONS
            .iter()
            .any(|&(c, r)| c == krate && r == rule)
    })
}

/// Lints one file on disk, honoring the crate-scoped exemptions (derived
/// from the path, so `crates/live/...` files skip D1 in file mode too).
pub fn lint_file(path: &Path) -> io::Result<Vec<Finding>> {
    let src = fs::read_to_string(path)?;
    let mut findings = lint_source(&path.display().to_string(), &src);
    findings.retain(|f| !rule_exempt(&f.file, f.rule));
    Ok(findings)
}

/// Lints every scanned crate under `root` (the workspace root) with
/// D1–D7; D7's consumers also include the facade's `src/`, `examples/`
/// and `perfbench/src/`. Returned findings use root-relative paths and are
/// sorted by (file, line, col).
pub fn lint_workspace(root: &Path) -> io::Result<Vec<Finding>> {
    let mut dirs = Vec::new();
    for krate in SCANNED_CRATES {
        let src_dir = root.join("crates").join(krate).join("src");
        if !src_dir.is_dir() {
            return Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!("expected crate source tree at {}", src_dir.display()),
            ));
        }
        dirs.push(src_dir);
    }
    dirs.extend(
        ["src", "examples", "perfbench/src"]
            .iter()
            .map(|d| root.join(d))
            .filter(|d| d.is_dir()),
    );
    let mut files = Vec::new();
    for dir in dirs {
        for file in rust_files(&dir)? {
            let src = fs::read_to_string(&file)?;
            let rel = file.strip_prefix(root).unwrap_or(&file);
            files.push((rel.display().to_string(), src));
        }
    }
    Ok(lint_sources(&files, CALLERLESS_ALLOWLIST))
}

/// Lints an in-memory file set of `(root-relative path, source)`: D1–D6
/// over the scanned crates' `src/` files, then D7 over the whole set (see
/// [`crate::callers`] for which paths count), with `allowlist` in the role
/// of [`CALLERLESS_ALLOWLIST`]. Findings honor the [`CRATE_EXEMPTIONS`] and
/// are sorted by (file, line, col).
pub fn lint_sources(files: &[(String, String)], allowlist: &[(&str, &str, &str)]) -> Vec<Finding> {
    let lexed: Vec<Lexed> = files.iter().map(|(_, src)| lex(src)).collect();
    let mut findings = Vec::new();
    let mut callers = Callers::new(allowlist);
    for ((path, _), lexed) in files.iter().zip(&lexed) {
        let role = role(path);
        if role == Role::Ignored {
            continue;
        }
        let (file_findings, test_spans) = analyze(path, lexed);
        if role == Role::Defines {
            findings.extend(file_findings);
        }
        callers.add(path, role, lexed, &test_spans);
    }
    findings.extend(callers.findings());
    findings.retain(|f| !rule_exempt(&f.file, f.rule));
    findings
        .sort_by(|a, b| (a.file.as_str(), a.line, a.col).cmp(&(b.file.as_str(), b.line, b.col)));
    findings
}

/// All `.rs` files under `dir`, recursively, in deterministic path order.
fn rust_files(dir: &Path) -> io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        let mut entries: Vec<PathBuf> = fs::read_dir(&d)?
            .map(|e| e.map(|e| e.path()))
            .collect::<io::Result<_>>()?;
        entries.sort();
        for path in entries {
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                out.push(path);
            }
        }
    }
    out.sort();
    Ok(out)
}

/// Locates the workspace root: `CARGO_MANIFEST_DIR/../..` when running via
/// `cargo run -p byzclock-lint`, else the current directory. Validated by
/// the presence of `crates/`.
pub fn find_workspace_root() -> io::Result<PathBuf> {
    let mut candidates = Vec::new();
    if let Ok(manifest) = std::env::var("CARGO_MANIFEST_DIR") {
        if let Some(root) = Path::new(&manifest).parent().and_then(Path::parent) {
            candidates.push(root.to_path_buf());
        }
    }
    candidates.push(std::env::current_dir()?);
    for c in &candidates {
        if c.join("crates").is_dir() && c.join("Cargo.toml").is_file() {
            return Ok(c.clone());
        }
    }
    Err(io::Error::new(
        io::ErrorKind::NotFound,
        "workspace root not found (run via `cargo run -p byzclock-lint` or from the repo root)",
    ))
}
