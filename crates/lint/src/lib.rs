//! `byzclock-lint` — determinism and dead-API lint pass for the byzclock
//! workspace.
//!
//! The reproduction's value rests on bit-exact determinism: chaos-campaign
//! replay artifacts and the seq-vs-par bit-identity of the scoped-thread
//! pool are only trustworthy if no code path sneaks in wall-clock time,
//! unseeded randomness, unordered-map iteration, or NaN-sensitive float
//! comparisons. This crate enforces that mechanically — a token-level
//! static analyzer (no `syn` in the offline vendor set, and none needed)
//! with six per-file rules, plus D7, which keeps public API from outliving
//! its last caller:
//!
//! | rule | slug                  | forbids                                      |
//! |------|-----------------------|----------------------------------------------|
//! | D1   | `wall-clock`          | `Instant`/`SystemTime` (`live` exempt)       |
//! | D2   | `unseeded-rng`        | `thread_rng`/`from_entropy`/`OsRng`/`rand::random` |
//! | D3   | `unordered-collection`| `HashMap`/`HashSet` in sim/runtime/protocol  |
//! | D4   | `float-ord`           | `.partial_cmp(..)` calls (use `total_cmp`)   |
//! | D5   | `hot-path-unwrap`     | `.unwrap()`/`.expect()` in `impl SyncNode`/`CachedSync`/`World`/`EventQueue`/`Engine` |
//! | D6   | `hot-path-alloc`      | `.sort_by`/`.sort_unstable_by`/`.collect` in `impl SyncNode`/`CachedSync`/`ConvergenceFn` impls |
//! | D7   | `callerless-pub`      | a `pub`/`pub(crate)` item that no non-test code names (workspace mode only) |
//!
//! Per-site escape: `// lint:allow(<slug>)` (or `d1`…`d7`) on the finding's
//! line or the line directly above, with a justification in the same
//! comment. Test code (`tests/` trees, `#[cfg(test)]`/`#[test]` items) is
//! out of scope. Whole-crate scoping lives in
//! [`CRATE_EXEMPTIONS`]: the real-time
//! `crates/live` runtime is exempt from D1 (reading the machine clock is
//! its purpose) without per-line annotations. D7's item-level exceptions
//! live in [`CALLERLESS_ALLOWLIST`], one reason per entry; `--rules`
//! prints it.
//!
//! D7 needs every consumer at once, so it runs only over a whole file set:
//! [`lint_workspace`] reads the scanned crates, the facade's `src/`,
//! `examples/` and `perfbench/src/`, and [`lint_sources`] lints the same
//! kind of set held in memory.
//!
//! Run: `cargo run -p byzclock-lint -- --workspace` (exit 0 = clean,
//! 1 = findings, 2 = usage/IO error). The workspace-clean invariant is also
//! asserted by this crate's test suite, so plain `cargo test` enforces it.

#![forbid(unsafe_code)]

pub mod callers;
pub mod rules;
pub mod scan;
pub mod tokenizer;

pub use callers::CALLERLESS_ALLOWLIST;
pub use rules::{lint_source, Finding, RuleInfo, RULES};
pub use scan::{
    find_workspace_root, lint_file, lint_sources, lint_workspace, rule_exempt, CRATE_EXEMPTIONS,
    SCANNED_CRATES,
};
