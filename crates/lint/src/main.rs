//! CLI for the byzclock linter.
//!
//! ```text
//! byzclock-lint --workspace [--root PATH]   lint the scanned crates (D1-D7)
//! byzclock-lint FILE...                     lint specific files (D1-D6)
//! byzclock-lint --rules                     print the rule table and the D7 allowlist
//! ```
//!
//! Exit codes: 0 clean, 1 findings, 2 usage or I/O error.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

use byzclock_lint::{
    find_workspace_root, lint_file, lint_workspace, Finding, CALLERLESS_ALLOWLIST, RULES,
    SCANNED_CRATES,
};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workspace = false;
    let mut print_rules = false;
    let mut root: Option<PathBuf> = None;
    let mut files: Vec<PathBuf> = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--workspace" => workspace = true,
            "--rules" => print_rules = true,
            "--root" => match it.next() {
                Some(p) => root = Some(PathBuf::from(p)),
                None => return usage("--root needs a path"),
            },
            "--help" | "-h" => {
                eprintln!("usage: byzclock-lint --workspace [--root PATH] | FILE... | --rules");
                return ExitCode::SUCCESS;
            }
            other if other.starts_with('-') => {
                return usage(&format!("unknown flag {other}"));
            }
            other => files.push(PathBuf::from(other)),
        }
    }
    if print_rules {
        println!("byzclock lint rules (escape: // lint:allow(<slug>)):");
        for r in RULES {
            println!("  {:>3}  {:<22} {}", r.id, r.slug, r.summary);
        }
        println!(
            "d7 allowlist (CALLERLESS_ALLOWLIST, crate/item: reason): {} entries",
            CALLERLESS_ALLOWLIST.len()
        );
        for (krate, item, reason) in CALLERLESS_ALLOWLIST {
            println!("  {krate}/{item}: {reason}");
        }
        return ExitCode::SUCCESS;
    }
    if !workspace && files.is_empty() {
        return usage("pass --workspace or at least one file");
    }
    if workspace && !files.is_empty() {
        return usage("--workspace and explicit files are mutually exclusive");
    }

    let findings: Vec<Finding> = if workspace {
        let root = match root.map(Ok).unwrap_or_else(find_workspace_root) {
            Ok(r) => r,
            Err(e) => return fail(&e.to_string()),
        };
        match lint_workspace(&root) {
            Ok(f) => {
                if f.is_empty() {
                    println!(
                        "byzclock-lint: clean — {} crates ({}) pass D1-D7",
                        SCANNED_CRATES.len(),
                        SCANNED_CRATES.join(", ")
                    );
                }
                f
            }
            Err(e) => return fail(&format!("workspace scan failed: {e}")),
        }
    } else {
        let mut all = Vec::new();
        for f in &files {
            match lint_file(f) {
                Ok(fs) => all.extend(fs),
                Err(e) => return fail(&format!("{}: {e}", f.display())),
            }
        }
        all
    };

    for f in &findings {
        println!("{f}");
    }
    if findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        println!(
            "byzclock-lint: {} finding{}",
            findings.len(),
            if findings.len() == 1 { "" } else { "s" }
        );
        ExitCode::FAILURE
    }
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("byzclock-lint: {msg}");
    eprintln!("usage: byzclock-lint --workspace [--root PATH] | FILE... | --rules");
    ExitCode::from(2)
}

fn fail(msg: &str) -> ExitCode {
    eprintln!("byzclock-lint: {msg}");
    ExitCode::from(2)
}
