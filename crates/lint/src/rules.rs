//! The rule set (D1–D7) and the per-file token-stream analyzer (D1–D6).
//!
//! D1–D6 guard the property the whole reproduction rests on:
//! bit-exact determinism of simulation runs, which the chaos-campaign
//! replay artifacts and the seq-vs-par bit-identity guarantee of
//! `byzclock_sim::pool` both assume. The paper's `Sync` convergence
//! function is additionally sensitive to float total-ordering because the
//! `m`/`M` over/underestimate selection legitimately traffics in `∞`
//! sentinels (Figure 1, Theorem 5) — hence the dedicated float rule.
//!
//! The analyzer walks the lexed token stream once, skipping test code
//! (`#[cfg(test)]` / `#[test]` items) and honoring per-site
//! `// lint:allow(<rule>)` escapes on the finding's line or the line above.
//! D7 needs the whole file set, so it lives in [`crate::callers`].

use std::ops::Range;

use crate::tokenizer::{lex, Lexed, TokKind, Token};

/// Stable rule metadata: id (`d1`…`d7`), slug, and rationale.
#[derive(Debug, Clone, Copy)]
pub struct RuleInfo {
    pub id: &'static str,
    pub slug: &'static str,
    pub summary: &'static str,
}

/// The rule table, in rule order. The slug is what `lint:allow` takes
/// (the short id is accepted too).
pub const RULES: [RuleInfo; 7] = [
    RuleInfo {
        id: "d1",
        slug: "wall-clock",
        summary: "no std::time::Instant/SystemTime in the scanned crates \
                  (crates/live exempt) — simulated time must come from the \
                  engine",
    },
    RuleInfo {
        id: "d2",
        slug: "unseeded-rng",
        summary: "no thread_rng()/from_entropy()/OsRng/rand::random — every RNG \
                  must derive from the seeded stream (RngHub)",
    },
    RuleInfo {
        id: "d3",
        slug: "unordered-collection",
        summary: "no HashMap/HashSet in sim/runtime/protocol code — iteration \
                  order is nondeterministic; use BTreeMap/BTreeSet or indexed \
                  collections",
    },
    RuleInfo {
        id: "d4",
        slug: "float-ord",
        summary: "no .partial_cmp(..) method calls on floats — use total_cmp \
                  (or annotate the NaN/∞ handling), matching how on_pong \
                  rejects non-finite clocks",
    },
    RuleInfo {
        id: "d5",
        slug: "hot-path-unwrap",
        summary: "no .unwrap()/.expect() inside impl SyncNode / CachedSync / \
                  World / SimHost / Driver / EventQueue / Engine event-dispatch \
                  code — a poisoned or absent value must be handled, not crash \
                  the world mid-event",
    },
    RuleInfo {
        id: "d6",
        slug: "hot-path-alloc",
        summary: "no .sort_by/.sort_unstable_by/.collect inside impl SyncNode / \
                  CachedSync / ConvergenceFn impls — the per-round path must reuse scratch \
                  buffers and select in O(n), not allocate-and-sort",
    },
    RuleInfo {
        id: "d7",
        slug: "callerless-pub",
        summary: "every pub/pub(crate) item of a scanned crate is named by non-test \
                  code other than its definition (workspace mode only; tests/ do \
                  not count; a name two items share counts for both; \
                  CALLERLESS_ALLOWLIST holds the reasoned exceptions)",
    },
];

/// Index of D7 in [`RULES`].
pub(crate) const D7: usize = 6;

/// One lint finding at a source position.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Path as given to the analyzer (repo-relative for workspace scans).
    pub file: String,
    pub line: u32,
    pub col: u32,
    /// `d1`…`d7`.
    pub rule: &'static str,
    /// `wall-clock`, … — the `lint:allow` name.
    pub slug: &'static str,
    pub message: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}:{}: [{}/{}] {} (escape: // lint:allow({}))",
            self.file, self.line, self.col, self.rule, self.slug, self.message, self.slug
        )
    }
}

/// Lints one file's source text with D1–D6. `file` is used only for
/// reporting.
pub fn lint_source(file: &str, src: &str) -> Vec<Finding> {
    analyze(file, &lex(src)).0
}

/// Runs D1–D6 over one lexed file. Also returns the token ranges of its
/// `#[cfg(test)]`/`#[test]` items, in order, for D7.
pub(crate) fn analyze(file: &str, lexed: &Lexed) -> (Vec<Finding>, Vec<Range<usize>>) {
    let mut a = Analyzer::new(file, lexed);
    while a.i < a.toks.len() {
        a.step();
    }
    (a.findings, a.test_spans)
}

/// True when a `lint:allow` escape for `RULES[rule_idx]` sits on `line` or
/// the line above.
pub(crate) fn allowed(lexed: &Lexed, rule_idx: usize, line: u32) -> bool {
    let info = &RULES[rule_idx];
    let names = [info.id, info.slug];
    [line, line.saturating_sub(1)].iter().any(|l| {
        lexed.allows.get(l).is_some_and(|allows| {
            allows
                .iter()
                .any(|a| names.contains(&a.as_str()) || a == &format!("{}-{}", info.id, info.slug))
        })
    })
}

/// A brace scope the analyzer is inside of.
#[derive(Debug, Clone)]
struct Scope {
    /// Identifiers from an `impl` header (`impl<T> Foo for Bar` → both),
    /// empty for non-impl braces.
    impl_names: Vec<String>,
    /// Innermost `fn` name owning this brace, if the brace is a fn body.
    fn_name: Option<String>,
}

struct Analyzer<'a> {
    file: &'a str,
    lexed: &'a Lexed,
    toks: &'a [Token],
    i: usize,
    scopes: Vec<Scope>,
    /// Set when a `#[cfg(test)]`/`#[test]`-ish attribute was just seen;
    /// the next item is skipped wholesale.
    skip_next_item: bool,
    /// Pending names for the next `{`: impl-header idents or fn name.
    pending_impl: Option<Vec<String>>,
    pending_fn: Option<String>,
    findings: Vec<Finding>,
    /// Token ranges of the skipped test items.
    test_spans: Vec<Range<usize>>,
}

impl<'a> Analyzer<'a> {
    fn new(file: &'a str, lexed: &'a Lexed) -> Self {
        Analyzer {
            file,
            lexed,
            toks: &lexed.tokens,
            i: 0,
            scopes: Vec::new(),
            skip_next_item: false,
            pending_impl: None,
            pending_fn: None,
            findings: Vec::new(),
            test_spans: Vec::new(),
        }
    }

    fn tok(&self, at: usize) -> Option<&Token> {
        self.toks.get(at)
    }

    fn step(&mut self) {
        let t = &self.toks[self.i];
        match t.kind {
            TokKind::Punct('#') if self.tok(self.i + 1).is_some_and(|t| t.is_punct('[')) => {
                self.attribute();
                return;
            }
            TokKind::Punct('{') => {
                self.scopes.push(Scope {
                    impl_names: self.pending_impl.take().unwrap_or_default(),
                    fn_name: self.pending_fn.take(),
                });
                self.i += 1;
                return;
            }
            TokKind::Punct('}') => {
                self.scopes.pop();
                self.i += 1;
                return;
            }
            // A body-less declaration (`fn f();` in a trait) must not leak
            // its pending name onto the next unrelated brace.
            TokKind::Punct(';') => {
                self.pending_fn = None;
                self.pending_impl = None;
            }
            TokKind::Ident => {
                if self.skip_next_item {
                    self.skip_next_item = false;
                    let start = self.i;
                    self.skip_item();
                    self.test_spans.push(start..self.i);
                    return;
                }
                match t.text.as_str() {
                    "impl" => {
                        self.pending_impl = Some(self.collect_header_idents());
                        return;
                    }
                    "fn" => {
                        if let Some(name) = self.tok(self.i + 1) {
                            if name.kind == TokKind::Ident {
                                self.pending_fn = Some(name.text.clone());
                            }
                        }
                        self.i += 1;
                        return;
                    }
                    _ => self.check_rules(),
                }
            }
            _ => {}
        }
        self.i += 1;
    }

    /// Consumes `#[...]`; sets the skip flag when it names `test`, unless
    /// as `not(test)`, which marks code that tests never compile.
    fn attribute(&mut self) {
        self.i += 2; // past `#[`
        let mut depth = 1usize;
        let mut mentions_test = false;
        while self.i < self.toks.len() && depth > 0 {
            let t = &self.toks[self.i];
            if t.is_punct('[') {
                depth += 1;
            } else if t.is_punct(']') {
                depth -= 1;
            } else if t.is_ident("test") {
                let negated = self.i >= 2
                    && self.toks[self.i - 1].is_punct('(')
                    && self.toks[self.i - 2].is_ident("not");
                mentions_test |= !negated;
            }
            self.i += 1;
        }
        if mentions_test {
            self.skip_next_item = true;
        }
    }

    /// Skips one item (the thing a test attribute applies to): consumes
    /// further attributes, then everything up to a top-level `;` or the
    /// matching `}` of the item's first top-level `{`.
    fn skip_item(&mut self) {
        while self.i < self.toks.len() {
            let t = &self.toks[self.i];
            if t.is_punct('#') && self.tok(self.i + 1).is_some_and(|t| t.is_punct('[')) {
                let mut depth = 0usize;
                loop {
                    let Some(t) = self.tok(self.i) else { return };
                    if t.is_punct('[') {
                        depth += 1;
                    } else if t.is_punct(']') {
                        depth -= 1;
                        if depth == 0 {
                            self.i += 1;
                            break;
                        }
                    }
                    self.i += 1;
                }
            } else {
                break;
            }
        }
        let mut brace_depth = 0usize;
        while self.i < self.toks.len() {
            let t = &self.toks[self.i];
            self.i += 1;
            if t.is_punct('{') {
                brace_depth += 1;
            } else if t.is_punct('}') {
                brace_depth -= 1;
                if brace_depth == 0 {
                    return;
                }
            } else if t.is_punct(';') && brace_depth == 0 {
                return;
            }
        }
    }

    /// Collects identifiers between `impl` and its opening `{`.
    fn collect_header_idents(&mut self) -> Vec<String> {
        self.i += 1; // past `impl`
        let mut names = Vec::new();
        while let Some(t) = self.tok(self.i) {
            if t.is_punct('{') || t.is_punct(';') {
                break;
            }
            if t.kind == TokKind::Ident {
                names.push(t.text.clone());
            }
            self.i += 1;
        }
        names
    }

    fn in_impl_of(&self, names: &[&str]) -> bool {
        self.scopes
            .iter()
            .any(|s| s.impl_names.iter().any(|n| names.contains(&n.as_str())))
    }

    fn in_dispatch_impl(&self) -> bool {
        // `Driver` covers every host's effect path, whatever the host type.
        self.in_impl_of(&[
            "SyncNode",
            "CachedSync",
            "World",
            "SimHost",
            "Driver",
            "EventQueue",
            "Engine",
        ])
    }

    fn in_round_hot_path_impl(&self) -> bool {
        self.in_impl_of(&["SyncNode", "CachedSync", "ConvergenceFn"])
    }

    fn enclosing_fn(&self) -> Option<&str> {
        self.scopes.iter().rev().find_map(|s| s.fn_name.as_deref())
    }

    fn report(&mut self, rule_idx: usize, tok_at: usize, message: String) {
        let t = &self.toks[tok_at];
        if allowed(self.lexed, rule_idx, t.line) {
            return;
        }
        let info = &RULES[rule_idx];
        self.findings.push(Finding {
            file: self.file.to_string(),
            line: t.line,
            col: t.col,
            rule: info.id,
            slug: info.slug,
            message,
        });
    }

    fn check_rules(&mut self) {
        let at = self.i;
        let t = &self.toks[at];
        let prev_dot = at > 0 && self.toks[at - 1].is_punct('.');
        match t.text.as_str() {
            // D1 — wall-clock types.
            "Instant" | "SystemTime" => {
                let name = t.text.clone();
                self.report(
                    0,
                    at,
                    format!(
                        "`{name}` is wall-clock time; simulated code must take time \
                         from the engine (RealTime/LocalTime)"
                    ),
                );
            }
            // D2 — unseeded randomness.
            "thread_rng" | "from_entropy" | "OsRng" | "ThreadRng" => {
                let name = t.text.clone();
                self.report(
                    1,
                    at,
                    format!(
                        "`{name}` draws OS entropy; derive RNGs from the seeded \
                         stream (RngHub) instead"
                    ),
                );
            }
            "random" => {
                // Only the `rand::random` free function; a method named
                // `random` on our own seeded types is fine.
                let is_rand_path = at >= 3
                    && self.toks[at - 1].is_punct(':')
                    && self.toks[at - 2].is_punct(':')
                    && self.toks[at - 3].is_ident("rand");
                if is_rand_path {
                    self.report(
                        1,
                        at,
                        "`rand::random` draws OS entropy; derive values from the \
                         seeded stream (RngHub) instead"
                            .into(),
                    );
                }
            }
            // D3 — unordered collections.
            "HashMap" | "HashSet" => {
                let name = t.text.clone();
                self.report(
                    2,
                    at,
                    format!(
                        "`{name}` iteration order is nondeterministic; use \
                         BTreeMap/BTreeSet or an indexed collection (or justify \
                         a membership-only use)"
                    ),
                );
            }
            // D4 — partial float ordering.
            "partial_cmp" if prev_dot => {
                self.report(
                    3,
                    at,
                    "`.partial_cmp(..)` is NaN-unsound for sort/selection over \
                     over/underestimates containing ∞ sentinels; use `total_cmp` \
                     or document the NaN/∞ handling"
                        .into(),
                );
            }
            // D5 — unwrap/expect in SyncNode/CachedSync/World/SimHost/Driver/
            // EventQueue/Engine dispatch code.
            "unwrap" | "expect" => {
                let is_call = prev_dot && self.tok(at + 1).is_some_and(|t| t.is_punct('('));
                if is_call && self.in_dispatch_impl() {
                    let name = t.text.clone();
                    let fn_name = self.enclosing_fn().unwrap_or("?").to_string();
                    self.report(
                        4,
                        at,
                        format!(
                            "`.{name}()` in `{fn_name}` can panic mid-event-dispatch; \
                             handle the None/Err case explicitly"
                        ),
                    );
                }
            }
            // D6 — allocation/sort on the per-round hot path.
            "sort_by" | "sort_unstable_by" | "collect" => {
                let is_call = prev_dot
                    && self
                        .tok(at + 1)
                        .is_some_and(|t| t.is_punct('(') || t.is_punct(':'));
                if is_call && self.in_round_hot_path_impl() {
                    let name = t.text.clone();
                    let fn_name = self.enclosing_fn().unwrap_or("?").to_string();
                    self.report(
                        5,
                        at,
                        format!(
                            "`.{name}` in `{fn_name}` allocates or sorts on the \
                             per-round path; reuse ConvergenceScratch and \
                             select_nth_unstable_by (or justify the escape)"
                        ),
                    );
                }
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn slugs(findings: &[Finding]) -> Vec<&'static str> {
        findings.iter().map(|f| f.slug).collect()
    }

    #[test]
    fn clean_source_has_no_findings() {
        let src = r#"
            use std::collections::BTreeMap;
            pub fn f(m: &BTreeMap<u32, f64>) -> f64 {
                m.values().copied().fold(0.0, f64::max)
            }
        "#;
        assert!(lint_source("x.rs", src).is_empty());
    }

    #[test]
    fn d1_flags_instant_and_system_time() {
        let src = "fn f() { let t = std::time::Instant::now(); }";
        assert_eq!(slugs(&lint_source("x.rs", src)), ["wall-clock"]);
        let src = "use std::time::SystemTime;";
        assert_eq!(slugs(&lint_source("x.rs", src)), ["wall-clock"]);
    }

    #[test]
    fn d2_flags_thread_rng_and_rand_random_but_not_own_random_method() {
        let src = "fn f() { let mut r = rand::thread_rng(); }";
        assert_eq!(slugs(&lint_source("x.rs", src)), ["unseeded-rng"]);
        let src = "fn f() -> u64 { rand::random() }";
        assert_eq!(slugs(&lint_source("x.rs", src)), ["unseeded-rng"]);
        let src = "fn f(h: &mut RngHub) -> u64 { h.random() }";
        assert!(lint_source("x.rs", src).is_empty());
    }

    #[test]
    fn d3_flags_hash_collections() {
        let src = "use std::collections::{HashMap, HashSet};";
        assert_eq!(
            slugs(&lint_source("x.rs", src)),
            ["unordered-collection", "unordered-collection"]
        );
    }

    #[test]
    fn d4_flags_method_calls_not_trait_impls() {
        let src = "fn f(a: f64, b: f64) -> bool { a.partial_cmp(&b).unwrap().is_lt() }";
        assert_eq!(slugs(&lint_source("x.rs", src)), ["float-ord"]);
        let src = r#"
            impl PartialOrd for T {
                fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
                    Some(self.cmp(other))
                }
            }
        "#;
        assert!(lint_source("x.rs", src).is_empty());
    }

    #[test]
    fn d5_flags_unwrap_only_inside_sync_node_or_world_impls() {
        let src = r#"
            impl SyncNode {
                fn complete_round(&mut self) { let a = self.active.take().unwrap(); }
            }
        "#;
        let f = lint_source("x.rs", src);
        assert_eq!(slugs(&f), ["hot-path-unwrap"]);
        assert!(f[0].message.contains("complete_round"));
        let src = "impl Other { fn g(&self) { self.x.take().unwrap(); } }";
        assert!(lint_source("x.rs", src).is_empty());
    }

    #[test]
    fn d6_flags_sort_and_collect_only_on_the_round_hot_path() {
        let src = r#"
            impl ConvergenceFn for TrimmedMean {
                fn adjustment_scratch(&self) -> f64 {
                    scratch.lows.sort_unstable_by(f64::total_cmp);
                    0.0
                }
            }
        "#;
        let f = lint_source("x.rs", src);
        assert_eq!(slugs(&f), ["hot-path-alloc"]);
        assert!(f[0].message.contains("adjustment_scratch"));

        let src = r#"
            impl SyncNode {
                fn complete_round(&mut self) {
                    let v: Vec<f64> = self.samples.iter().map(|s| s.offset).collect();
                    v.sort_by(f64::total_cmp);
                }
            }
        "#;
        assert_eq!(
            slugs(&lint_source("x.rs", src)),
            ["hot-path-alloc", "hot-path-alloc"]
        );

        // same calls outside the hot-path impls are fine
        let src = "impl Report { fn render(&self) -> Vec<u8> { self.rows.iter().collect() } }";
        assert!(lint_source("x.rs", src).is_empty());
        // and a non-call mention (field named collect) is fine too
        let src = "impl SyncNode { fn f(&self) -> u32 { self.collect } }";
        assert!(lint_source("x.rs", src).is_empty());
    }

    #[test]
    fn d5_covers_cached_sync() {
        let src = r#"
            impl CachedSync {
                fn handle_into(&mut self) { let s = self.cache.first().expect("peer"); }
            }
        "#;
        let f = lint_source("x.rs", src);
        assert_eq!(slugs(&f), ["hot-path-unwrap"]);
        assert!(f[0].message.contains("handle_into"));
    }

    #[test]
    fn d5_covers_the_event_queue_and_engine() {
        let src = r#"
            impl<T: Copy> EventQueue<T> {
                fn min_src(&mut self) -> u8 { self.run.last().expect("min_src saw an entry") }
            }
        "#;
        let f = lint_source("x.rs", src);
        assert_eq!(slugs(&f), ["hot-path-unwrap"]);
        assert!(f[0].message.contains("min_src"));
        let src = r#"
            impl<T: Copy> Engine<T> {
                fn pop(&mut self) -> T { self.queue.pop().unwrap().1 }
            }
        "#;
        let f = lint_source("x.rs", src);
        assert_eq!(slugs(&f), ["hot-path-unwrap"]);
        assert!(f[0].message.contains("pop"));
    }

    #[test]
    fn d6_covers_cached_sync() {
        let src = r#"
            impl CachedSync {
                fn volley(&mut self) { let peers: Vec<ProcId> = self.peers().collect(); }
            }
        "#;
        let f = lint_source("x.rs", src);
        assert_eq!(slugs(&f), ["hot-path-alloc"]);
        assert!(f[0].message.contains("volley"));
    }

    #[test]
    fn d6_allow_escape_works() {
        let src = r#"
            impl ConvergenceFn for TrimmedMean {
                fn adjustment_scratch(&self) -> f64 {
                    // full in-scratch sort needed for summation order: lint:allow(hot-path-alloc)
                    scratch.lows.sort_unstable_by(f64::total_cmp);
                    0.0
                }
            }
        "#;
        assert!(lint_source("x.rs", src).is_empty());
    }

    #[test]
    fn cfg_test_items_are_skipped() {
        let src = r#"
            #[cfg(test)]
            mod tests {
                use std::collections::HashSet;
                #[test]
                fn t() { let _ = std::time::Instant::now(); }
            }
        "#;
        assert!(lint_source("x.rs", src).is_empty());
    }

    #[test]
    fn cfg_not_test_items_are_linted() {
        let src = r#"
            #[cfg(not(test))]
            fn production_only() { let _t = std::time::Instant::now(); }
        "#;
        assert_eq!(slugs(&lint_source("x.rs", src)), ["wall-clock"]);
    }

    #[test]
    fn standalone_test_fn_is_skipped() {
        let src = r#"
            #[test]
            fn t() { let mut r = rand::thread_rng(); }
            fn real() { let m: HashMap<u8, u8> = HashMap::new(); }
        "#;
        assert_eq!(
            slugs(&lint_source("x.rs", src)),
            ["unordered-collection", "unordered-collection"]
        );
    }

    #[test]
    fn allow_escape_suppresses_same_line_and_line_above() {
        let src = "use std::collections::HashSet; // lint:allow(unordered-collection)";
        assert!(lint_source("x.rs", src).is_empty());
        let src = "// membership only: lint:allow(d3)\nuse std::collections::HashSet;";
        assert!(lint_source("x.rs", src).is_empty());
        let src = "// lint:allow(wall-clock)\nuse std::collections::HashSet;";
        assert_eq!(slugs(&lint_source("x.rs", src)), ["unordered-collection"]);
    }

    #[test]
    fn strings_and_comments_do_not_trigger() {
        let src = r##"
            // HashMap thread_rng Instant partial_cmp
            /* SystemTime */
            fn f() -> &'static str { "HashMap thread_rng .partial_cmp" }
            fn g() -> &'static str { r#"Instant"# }
        "##;
        assert!(lint_source("x.rs", src).is_empty());
    }

    #[test]
    fn lifetimes_do_not_break_lexing() {
        let src = "fn f<'a>(x: &'a str) -> &'a str { let c = 'x'; let _ = c; x }";
        assert!(lint_source("x.rs", src).is_empty());
    }
}
