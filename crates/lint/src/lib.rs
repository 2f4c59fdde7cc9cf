//! `byzclock-lint` — determinism lint pass for the byzclock workspace.
//!
//! The reproduction's value rests on bit-exact determinism: chaos-campaign
//! replay artifacts and the seq-vs-par bit-identity of the scoped-thread
//! pool are only trustworthy if no code path sneaks in wall-clock time,
//! unseeded randomness, unordered-map iteration, or NaN-sensitive float
//! comparisons. This crate enforces that mechanically — a token-level
//! static analyzer (no `syn` in the offline vendor set, and none needed)
//! with six rules:
//!
//! | rule | slug                  | forbids                                      |
//! |------|-----------------------|----------------------------------------------|
//! | D1   | `wall-clock`          | `Instant`/`SystemTime` (`live` exempt)       |
//! | D2   | `unseeded-rng`        | `thread_rng`/`from_entropy`/`OsRng`/`rand::random` |
//! | D3   | `unordered-collection`| `HashMap`/`HashSet` in sim/runtime/protocol  |
//! | D4   | `float-ord`           | `.partial_cmp(..)` calls (use `total_cmp`)   |
//! | D5   | `hot-path-unwrap`     | `.unwrap()`/`.expect()` in `impl SyncNode`/`CachedSync`/`World`/`EventQueue`/`Engine` |
//! | D6   | `hot-path-alloc`      | `.sort_by`/`.sort_unstable_by`/`.collect` in `impl SyncNode`/`CachedSync`/`ConvergenceFn` impls |
//!
//! Per-site escape: `// lint:allow(<slug>)` (or `d1`…`d6`) on the finding's
//! line or the line directly above, with a justification in the same
//! comment. Test code (`tests/` trees, `#[cfg(test)]`/`#[test]` items) is
//! out of scope. Whole-crate scoping lives in
//! [`CRATE_EXEMPTIONS`]: the real-time
//! `crates/live` runtime is exempt from D1 (reading the machine clock is
//! its purpose) without per-line annotations.
//!
//! Run: `cargo run -p byzclock-lint -- --workspace` (exit 0 = clean,
//! 1 = findings, 2 = usage/IO error). The workspace-clean invariant is also
//! asserted by this crate's test suite, so plain `cargo test` enforces it.

#![forbid(unsafe_code)]

pub mod rules;
pub mod scan;
pub mod tokenizer;

pub use rules::{lint_source, Finding, RuleInfo, RULES};
pub use scan::{
    find_workspace_root, lint_file, lint_workspace, rule_exempt, CRATE_EXEMPTIONS, SCANNED_CRATES,
};
