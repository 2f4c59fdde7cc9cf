//! A small hand-rolled Rust lexer.
//!
//! The offline vendor set has no `syn`, and the D1–D7 rules are
//! token-pattern rules — "`Instant` named anywhere", "`.partial_cmp` method
//! call" — so full parsing is unnecessary. What *is* necessary is getting
//! lexical structure right, or strings and comments produce false
//! positives: this lexer understands line/block comments (nested), doc
//! comments, string/char/byte/raw-string literals (with `#` fences),
//! lifetimes vs. char literals, raw identifiers, and numeric literals.
//!
//! Comments are not tokens, but they are scanned for the per-site escape
//! hatch `lint:allow(rule, rule, ...)`, recorded per source line.

use std::collections::BTreeMap;

/// What a token is; only the distinctions the rules need.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (`fn`, `Instant`, `r#type` → `type`).
    Ident,
    /// Single punctuation character (`::` is two `:` tokens).
    Punct(char),
    /// String/char/byte/numeric literal (text not preserved verbatim).
    Literal,
}

/// One lexed token with its source position (1-based line and column).
#[derive(Debug, Clone)]
pub struct Token {
    pub kind: TokKind,
    pub text: String,
    pub line: u32,
    pub col: u32,
}

impl Token {
    /// True when the token is the identifier `s`.
    pub fn is_ident(&self, s: &str) -> bool {
        self.kind == TokKind::Ident && self.text == s
    }

    /// True when the token is the punctuation character `c`.
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokKind::Punct(c)
    }
}

/// Lexed file: token stream plus `lint:allow` escapes by line.
#[derive(Debug, Default)]
pub struct Lexed {
    pub tokens: Vec<Token>,
    /// Line number → rule names allowed on (or just below) that line.
    pub allows: BTreeMap<u32, Vec<String>>,
}

/// Lexes `src`. Unterminated constructs are tolerated (lexing to EOF):
/// the linter must never panic on the code it audits.
pub fn lex(src: &str) -> Lexed {
    Lexer {
        chars: src.chars().collect(),
        pos: 0,
        line: 1,
        col: 1,
        out: Lexed::default(),
    }
    .run()
}

struct Lexer {
    chars: Vec<char>,
    pos: usize,
    line: u32,
    col: u32,
    out: Lexed,
}

impl Lexer {
    fn peek(&self, ahead: usize) -> Option<char> {
        self.chars.get(self.pos + ahead).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.chars.get(self.pos).copied()?;
        self.pos += 1;
        if c == '\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(c)
    }

    fn run(mut self) -> Lexed {
        while let Some(c) = self.peek(0) {
            let (line, col) = (self.line, self.col);
            match c {
                c if c.is_whitespace() => {
                    self.bump();
                }
                '/' if self.peek(1) == Some('/') => self.line_comment(),
                '/' if self.peek(1) == Some('*') => self.block_comment(),
                '"' => self.string_literal(line, col),
                'b' if self.peek(1) == Some('"') => {
                    self.bump();
                    self.string_literal(line, col);
                }
                'r' if self.peek(1) == Some('"') || self.peek(1) == Some('#') => {
                    self.raw_string_or_raw_ident(line, col);
                }
                'b' if self.peek(1) == Some('r')
                    && (self.peek(2) == Some('"') || self.peek(2) == Some('#')) =>
                {
                    self.bump();
                    self.bump();
                    self.raw_string_body(line, col);
                }
                '\'' => self.lifetime_or_char(line, col),
                c if c.is_ascii_digit() => self.number(line, col),
                c if c.is_alphabetic() || c == '_' => self.ident(line, col),
                _ => {
                    self.bump();
                    self.push(TokKind::Punct(c), c.to_string(), line, col);
                }
            }
        }
        self.out
    }

    fn push(&mut self, kind: TokKind, text: String, line: u32, col: u32) {
        self.out.tokens.push(Token {
            kind,
            text,
            line,
            col,
        });
    }

    fn line_comment(&mut self) {
        let start_line = self.line;
        let mut text = String::new();
        while let Some(c) = self.peek(0) {
            if c == '\n' {
                break;
            }
            text.push(c);
            self.bump();
        }
        self.record_allows(&text, start_line, start_line);
    }

    fn block_comment(&mut self) {
        let start_line = self.line;
        let mut text = String::new();
        let mut depth = 0usize;
        while let Some(c) = self.peek(0) {
            if c == '/' && self.peek(1) == Some('*') {
                depth += 1;
                self.bump();
                self.bump();
                text.push_str("/*");
            } else if c == '*' && self.peek(1) == Some('/') {
                depth -= 1;
                self.bump();
                self.bump();
                text.push_str("*/");
                if depth == 0 {
                    break;
                }
            } else {
                text.push(c);
                self.bump();
            }
        }
        self.record_allows(&text, start_line, self.line);
    }

    /// Scans comment text for `lint:allow(a, b)` and records the rule names
    /// on every line the comment touches.
    fn record_allows(&mut self, text: &str, first_line: u32, last_line: u32) {
        let mut rest = text;
        while let Some(at) = rest.find("lint:allow(") {
            rest = &rest[at + "lint:allow(".len()..];
            let Some(close) = rest.find(')') else { break };
            for rule in rest[..close].split(',') {
                let rule = rule.trim().to_ascii_lowercase();
                if rule.is_empty() {
                    continue;
                }
                for line in first_line..=last_line {
                    self.out.allows.entry(line).or_default().push(rule.clone());
                }
            }
            rest = &rest[close..];
        }
    }

    fn string_literal(&mut self, line: u32, col: u32) {
        self.bump(); // opening quote
        while let Some(c) = self.bump() {
            match c {
                '\\' => {
                    self.bump();
                }
                '"' => break,
                _ => {}
            }
        }
        self.push(TokKind::Literal, String::new(), line, col);
    }

    fn raw_string_or_raw_ident(&mut self, line: u32, col: u32) {
        // `r"` / `r#"` / `r##"` … are raw strings; `r#ident` is a raw
        // identifier (lexed as the plain identifier).
        if self.peek(1) == Some('#') && self.peek(2).is_some_and(|c| c.is_alphabetic() || c == '_')
        {
            self.bump(); // r
            self.bump(); // #
            self.ident(line, col);
            return;
        }
        self.bump(); // r
        self.raw_string_body(line, col);
    }

    fn raw_string_body(&mut self, line: u32, col: u32) {
        let mut fences = 0usize;
        while self.peek(0) == Some('#') {
            fences += 1;
            self.bump();
        }
        if self.peek(0) != Some('"') {
            // Not actually a raw string (e.g. `r#` in macro position);
            // emit what we saw as punctuation and move on.
            self.push(TokKind::Punct('#'), "#".into(), line, col);
            return;
        }
        self.bump(); // opening quote
        'outer: while let Some(c) = self.bump() {
            if c == '"' {
                let mut matched = 0usize;
                while matched < fences {
                    if self.peek(0) == Some('#') {
                        self.bump();
                        matched += 1;
                    } else {
                        continue 'outer;
                    }
                }
                break;
            }
        }
        self.push(TokKind::Literal, String::new(), line, col);
    }

    fn lifetime_or_char(&mut self, line: u32, col: u32) {
        // `'a` (no closing quote) is a lifetime; `'a'`, `'\n'` are chars.
        let one = self.peek(1);
        let two = self.peek(2);
        let is_lifetime = one.is_some_and(|c| c.is_alphabetic() || c == '_') && two != Some('\'');
        self.bump(); // '
        if is_lifetime {
            while self
                .peek(0)
                .is_some_and(|c| c.is_alphanumeric() || c == '_')
            {
                self.bump();
            }
            self.push(TokKind::Literal, String::new(), line, col);
            return;
        }
        while let Some(c) = self.bump() {
            match c {
                '\\' => {
                    self.bump();
                }
                '\'' => break,
                _ => {}
            }
        }
        self.push(TokKind::Literal, String::new(), line, col);
    }

    fn number(&mut self, line: u32, col: u32) {
        // Loose: digits plus anything number-ish (hex, exponents, suffixes,
        // separators). A trailing `.` is consumed only when followed by a
        // digit so ranges (`0..10`) and method calls (`1.max(x)`) survive.
        // An exponent sign (`1e-5`) splits into two literals here, which
        // is fine — the rules never inspect literal text.
        while let Some(c) = self.peek(0) {
            let fraction_dot = c == '.' && self.peek(1).is_some_and(|d| d.is_ascii_digit());
            if c.is_ascii_alphanumeric() || c == '_' || fraction_dot {
                self.bump();
            } else {
                break;
            }
        }
        self.push(TokKind::Literal, String::new(), line, col);
    }

    fn ident(&mut self, line: u32, col: u32) {
        let mut text = String::new();
        while let Some(c) = self.peek(0) {
            if c.is_alphanumeric() || c == '_' {
                text.push(c);
                self.bump();
            } else {
                break;
            }
        }
        self.push(TokKind::Ident, text, line, col);
    }
}
