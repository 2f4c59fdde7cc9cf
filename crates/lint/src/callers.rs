//! Rule D7 (`callerless-pub`): every public item needs a non-test caller.
//!
//! A `pub` or `pub(crate)` fn, inherent method, struct, enum, enum variant,
//! const, static, type alias or trait in the non-test code of a scanned
//! crate's `src/` must be named by some non-test code other than its own
//! definition: any scanned crate's `src/`, the facade's `src/`,
//! `examples/` or `perfbench/src/`. Code under `tests/` does not count.
//!
//! The check is by name over the token stream. Comments, string literals
//! and `#[cfg(test)]`/`#[test]` items are not references; a name that two
//! items share counts as used for both. So D7 can miss a callerless item,
//! but it never flags a used one. A single file cannot show its consumers,
//! so D7 runs only over a whole file set ([`crate::lint_sources`]).

use std::collections::BTreeSet;
use std::ops::Range;

use crate::rules::{allowed, Finding, D7, RULES};
use crate::scan::SCANNED_CRATES;
use crate::tokenizer::{Lexed, TokKind, Token};

/// Public items that stay without a non-test caller, each with a one-line
/// reason: `(crate dir under crates/, item name, reason)`. The workspace
/// pass reads this table; no item needs an entry today.
pub const CALLERLESS_ALLOWLIST: &[(&str, &str, &str)] = &[];

/// What a file contributes to D7, decided by its root-relative path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Role {
    /// `crates/<scanned>/src/…`: its public items are checked, and its
    /// non-test code is a consumer.
    Defines,
    /// The facade's `src/`, `examples/` and `perfbench/src/`: consumers
    /// only.
    Consumes,
    /// Everything else, `tests/` trees included.
    Ignored,
}

pub(crate) fn role(path: &str) -> Role {
    if let Some(rest) = path.strip_prefix("crates/") {
        return match rest.split_once('/') {
            Some((krate, rest)) if SCANNED_CRATES.contains(&krate) && rest.starts_with("src/") => {
                Role::Defines
            }
            _ => Role::Ignored,
        };
    }
    if ["src/", "examples/", "perfbench/src/"]
        .iter()
        .any(|p| path.starts_with(p))
    {
        Role::Consumes
    } else {
        Role::Ignored
    }
}

/// One checked public item.
struct Def<'a> {
    file: &'a str,
    name: &'a str,
    kind: &'static str,
    line: u32,
    col: u32,
}

/// The public items of the file set, and every name its non-test code
/// mentions outside those items' own name tokens.
pub(crate) struct Callers<'a> {
    allowlist: &'a [(&'a str, &'a str, &'a str)],
    defs: Vec<Def<'a>>,
    refs: BTreeSet<&'a str>,
}

impl<'a> Callers<'a> {
    /// Items on `allowlist` (entries as in [`CALLERLESS_ALLOWLIST`]) are
    /// never flagged.
    pub(crate) fn new(allowlist: &'a [(&'a str, &'a str, &'a str)]) -> Self {
        Callers {
            allowlist,
            defs: Vec::new(),
            refs: BTreeSet::new(),
        }
    }

    /// Adds one lexed file that is not [`Role::Ignored`]. `test_spans` are
    /// the token ranges of its test items, in order.
    pub(crate) fn add(
        &mut self,
        file: &'a str,
        role: Role,
        lexed: &'a Lexed,
        test_spans: &[Range<usize>],
    ) {
        let toks = &lexed.tokens;
        let mut def_names = BTreeSet::new();
        let mut spans = test_spans.iter().peekable();
        let mut i = 0;
        while i < toks.len() {
            if let Some(span) = spans.peek() {
                if span.contains(&i) {
                    i = span.end;
                    spans.next();
                    continue;
                }
            }
            if role == Role::Defines && toks[i].is_ident("pub") {
                for (kind, at) in public_items(toks, i) {
                    def_names.insert(at);
                    let t = &toks[at];
                    if !allowed(lexed, D7, t.line) && !self.allowlisted(file, &t.text) {
                        self.defs.push(Def {
                            file,
                            name: &t.text,
                            kind,
                            line: t.line,
                            col: t.col,
                        });
                    }
                }
            }
            if toks[i].kind == TokKind::Ident && !def_names.contains(&i) {
                self.refs.insert(&toks[i].text);
            }
            i += 1;
        }
    }

    fn allowlisted(&self, file: &str, name: &str) -> bool {
        self.allowlist.iter().any(|&(krate, item, _)| {
            item == name
                && file
                    .strip_prefix("crates/")
                    .and_then(|rest| rest.strip_prefix(krate))
                    .is_some_and(|rest| rest.starts_with('/'))
        })
    }

    /// One finding per checked item whose name nothing else mentions.
    pub(crate) fn findings(self) -> Vec<Finding> {
        let info = &RULES[D7];
        self.defs
            .into_iter()
            .filter(|d| !self.refs.contains(d.name))
            .map(|d| Finding {
                file: d.file.to_string(),
                line: d.line,
                col: d.col,
                rule: info.id,
                slug: info.slug,
                message: format!(
                    "`{}` ({}) has no non-test caller; delete it, or make it \
                     #[cfg(test)] if only its crate's unit tests use it",
                    d.name, d.kind
                ),
            })
            .collect()
    }
}

/// The items a `pub` at `toks[at]` declares, as `(kind, name token index)`:
/// one item, plus every variant when it is an enum. A `pub` field, `pub
/// use` or `pub mod` declares none.
fn public_items(toks: &[Token], at: usize) -> Vec<(&'static str, usize)> {
    let ident = |j: usize| toks.get(j).filter(|t| t.kind == TokKind::Ident);
    let mut j = at + 1;
    if toks.get(j).is_some_and(|t| t.is_punct('(')) {
        j = close_of(toks, j) + 1;
    }
    // Qualifiers: `const fn`, `async`, `unsafe`, `extern "C"`.
    loop {
        let Some(t) = ident(j) else { return Vec::new() };
        let next_is_fn_qualifier = ident(j + 1)
            .is_some_and(|n| ["fn", "unsafe", "async", "extern"].contains(&n.text.as_str()));
        match t.text.as_str() {
            "const" if next_is_fn_qualifier => j += 1,
            "async" | "unsafe" => j += 1,
            "extern" => {
                j += 1;
                if toks.get(j).is_some_and(|t| t.kind == TokKind::Literal) {
                    j += 1;
                }
            }
            _ => break,
        }
    }
    let kind = match toks[j].text.as_str() {
        "fn" => "fn",
        "struct" => "struct",
        "enum" => "enum",
        "const" => "const",
        "static" => "static",
        "type" => "type alias",
        "trait" => "trait",
        _ => return Vec::new(),
    };
    let mut name = j + 1;
    if kind == "static" && ident(name).is_some_and(|t| t.text == "mut") {
        name += 1;
    }
    if ident(name).is_none_or(|t| t.text == "_") {
        return Vec::new();
    }
    let mut items = vec![(kind, name)];
    if kind == "enum" {
        items.extend(variants(toks, name).into_iter().map(|v| ("variant", v)));
    }
    items
}

/// Index of the bracket closing the one at `open`: the first closing
/// bracket that nothing after `open` opened, or the last token.
fn close_of(toks: &[Token], open: usize) -> usize {
    let mut depth = 0usize;
    for (k, t) in toks.iter().enumerate().skip(open) {
        match t.kind {
            TokKind::Punct('(' | '[' | '{') => depth += 1,
            TokKind::Punct(')' | ']' | '}') if depth <= 1 => return k,
            TokKind::Punct(')' | ']' | '}') => depth -= 1,
            _ => {}
        }
    }
    toks.len().saturating_sub(1)
}

/// Name token indices of the variants of the enum named at `toks[name]`.
fn variants(toks: &[Token], name: usize) -> Vec<usize> {
    let Some(open) = (name..toks.len()).find(|&k| toks[k].is_punct('{')) else {
        return Vec::new();
    };
    let close = close_of(toks, open);
    let mut out = Vec::new();
    let mut k = open + 1;
    while k < close {
        // Attributes, then the variant name, then its fields or
        // discriminant up to the next top-level `,`.
        while k < close && toks[k].is_punct('#') {
            k = close_of(toks, k + 1) + 1;
        }
        if k < close && toks[k].kind == TokKind::Ident {
            out.push(k);
        }
        while k < close && !toks[k].is_punct(',') {
            if matches!(toks[k].kind, TokKind::Punct('(' | '[' | '{')) {
                k = close_of(toks, k);
            }
            k += 1;
        }
        k += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tokenizer::lex;

    fn items(src: &str) -> Vec<String> {
        let lexed = lex(src);
        let toks = &lexed.tokens;
        (0..toks.len())
            .filter(|&i| toks[i].is_ident("pub"))
            .flat_map(|i| public_items(toks, i))
            .map(|(kind, at)| format!("{kind} {}", toks[at].text))
            .collect()
    }

    #[test]
    fn public_items_reads_qualifiers_fields_and_variants() {
        let src = r#"
            pub(crate) const fn a() {}
            pub static mut B: u8 = 0;
            pub const _: () = ();
            pub struct S { pub field: u8 }
            pub struct T(pub u8);
            pub use x::y;
            pub mod m {}
            pub enum E<T: Into<u8>> where T: Copy {
                #[serde(rename = "one, two")]
                One(T, (u8, u8)),
                Two { x: [u8; 2], y: u8 },
            }
            pub enum F { Three = 3, }
        "#;
        assert_eq!(
            items(src),
            [
                "fn a",
                "static B",
                "struct S",
                "struct T",
                "enum E",
                "variant One",
                "variant Two",
                "enum F",
                "variant Three"
            ]
        );
    }

    #[test]
    fn paths_decide_the_role() {
        assert_eq!(role("crates/core/src/node.rs"), Role::Defines);
        assert_eq!(role("crates/core/tests/node.rs"), Role::Ignored);
        assert_eq!(role("crates/lint/src/rules.rs"), Role::Ignored);
        assert_eq!(role("src/bin/byzclock.rs"), Role::Consumes);
        assert_eq!(role("examples/quickstart.rs"), Role::Consumes);
        assert_eq!(role("perfbench/src/run.rs"), Role::Consumes);
        assert_eq!(role("tests/golden_rounds.rs"), Role::Ignored);
    }
}
