//! A small hand-rolled Rust lexer — just enough syntax awareness for the
//! lint rules: identifiers, punctuation and string/char/number literals,
//! each tagged with its 1-based source line. Comments are skipped.
//!
//! The point of lexing (rather than substring search) is that rule
//! matching runs over *code tokens only*: a `Vec::new` inside a doc
//! comment, a string literal or a `#[doc = "..."]` attribute never
//! triggers a rule. The lexer understands line and (nested)
//! block comments, regular/raw/byte string literals with escapes and
//! line continuations, char literals vs lifetimes, and loose numeric
//! literals. It does not attempt full fidelity (no float-exponent
//! special cases, no non-ASCII identifiers) — the workspace is
//! rustfmt-clean 2021-edition code and the fixtures in `tests/` pin the
//! cases the rules depend on.

/// What kind of code token this is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (`HashMap`, `as`, `pub`, ...).
    Ident,
    /// Single punctuation character (`:`, `(`, `#`, ...).
    Punct(char),
    /// String literal (regular, raw or byte); `text` holds the cooked
    /// content with common escapes resolved.
    Str,
    /// Char or byte-char literal.
    Char,
    /// Numeric literal (integers, floats, any radix/suffix).
    Num,
    /// Lifetime (`'a`) — kept distinct so char-literal logic stays honest.
    Lifetime,
}

/// One code token with its 1-based starting line.
#[derive(Debug, Clone)]
pub struct Tok {
    /// Token class.
    pub kind: TokKind,
    /// Identifier text, cooked literal content, or the punctuation char.
    pub text: String,
    /// 1-based line the token starts on.
    pub line: u32,
}

/// The result of lexing one file: code tokens, in order.
#[derive(Debug, Default)]
pub struct Lexed {
    /// Code tokens (comments excluded).
    pub toks: Vec<Tok>,
}

/// Tokenizes `src`. Never fails: unrecognised bytes become punctuation
/// tokens, unterminated literals run to end of file.
#[must_use]
pub fn lex(src: &str) -> Lexed {
    Lexer {
        chars: src.chars().collect(),
        pos: 0,
        line: 1,
        out: Lexed::default(),
    }
    .run()
}

struct Lexer {
    chars: Vec<char>,
    pos: usize,
    line: u32,
    out: Lexed,
}

impl Lexer {
    fn peek(&self, ahead: usize) -> Option<char> {
        self.chars.get(self.pos + ahead).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek(0)?;
        self.pos += 1;
        if c == '\n' {
            self.line += 1;
        }
        Some(c)
    }

    fn run(mut self) -> Lexed {
        while let Some(c) = self.peek(0) {
            let line = self.line;
            match c {
                _ if c.is_whitespace() => {
                    self.bump();
                }
                '/' if self.peek(1) == Some('/') => self.line_comment(),
                '/' if self.peek(1) == Some('*') => self.block_comment(),
                '"' => {
                    self.bump();
                    self.cooked_string(line);
                }
                '\'' => self.char_or_lifetime(line),
                'r' | 'b' if self.literal_prefix(line) => {}
                _ if c.is_ascii_alphabetic() || c == '_' => self.ident(line),
                _ if c.is_ascii_digit() => self.number(line),
                _ => {
                    self.bump();
                    self.push(TokKind::Punct(c), c.to_string(), line);
                }
            }
        }
        self.out
    }

    fn push(&mut self, kind: TokKind, text: String, line: u32) {
        self.out.toks.push(Tok { kind, text, line });
    }

    fn line_comment(&mut self) {
        while self.peek(0).is_some_and(|c| c != '\n') {
            self.bump();
        }
    }

    fn block_comment(&mut self) {
        let mut depth = 0usize;
        while let Some(c) = self.peek(0) {
            if c == '/' && self.peek(1) == Some('*') {
                depth += 1;
                self.bump();
                self.bump();
            } else if c == '*' && self.peek(1) == Some('/') {
                depth -= 1;
                self.bump();
                self.bump();
                if depth == 0 {
                    break;
                }
            } else {
                self.bump();
            }
        }
    }

    /// Handles `r"…"`, `r#"…"#`, `b"…"`, `br#"…"#`, `b'…'` and raw
    /// identifiers (`r#match`). Returns false (consuming nothing) when
    /// `r`/`b` starts a plain identifier.
    fn literal_prefix(&mut self, line: u32) -> bool {
        let c = self.peek(0);
        let mut idx = 1; // past the r/b
        let mut raw = false;
        if c == Some('b') {
            match self.peek(idx) {
                Some('\'') => {
                    self.bump(); // b
                    self.bump(); // '
                    self.char_body(line);
                    return true;
                }
                Some('r') => {
                    idx += 1;
                    raw = true;
                }
                _ => {}
            }
        } else {
            raw = true;
        }
        let mut hashes = 0usize;
        while self.peek(idx) == Some('#') {
            idx += 1;
            hashes += 1;
        }
        if raw && self.peek(idx) == Some('"') {
            for _ in 0..=idx {
                self.bump(); // prefix, hashes and opening quote
            }
            self.raw_string(hashes, line);
            return true;
        }
        if !raw && hashes == 0 && self.peek(idx) == Some('"') {
            self.bump(); // b
            self.bump(); // "
            self.cooked_string(line);
            return true;
        }
        // `r#match`: a raw identifier, one code token. The `r#` stays in
        // the text so a raw ident never impersonates the keyword to the
        // item parser — a naive split would emit a stray `r`, `#`, `enum`
        // triple and fake an enum definition.
        if c == Some('r')
            && hashes == 1
            && self
                .peek(idx)
                .is_some_and(|c| c.is_ascii_alphabetic() || c == '_')
        {
            self.bump(); // r
            self.bump(); // #
            let mut text = String::from("r#");
            while let Some(c) = self.peek(0) {
                if c.is_ascii_alphanumeric() || c == '_' {
                    text.push(c);
                    self.bump();
                } else {
                    break;
                }
            }
            self.push(TokKind::Ident, text, line);
            return true;
        }
        false
    }

    fn raw_string(&mut self, hashes: usize, line: u32) {
        let mut text = String::new();
        while let Some(c) = self.bump() {
            if c == '"' && (0..hashes).all(|i| self.peek(i) == Some('#')) {
                for _ in 0..hashes {
                    self.bump();
                }
                break;
            }
            text.push(c);
        }
        self.push(TokKind::Str, text, line);
    }

    /// Body of a non-raw string, opening quote already consumed. Cooks
    /// the common escapes so rules see `\n` as a real newline.
    fn cooked_string(&mut self, line: u32) {
        let mut text = String::new();
        while let Some(c) = self.bump() {
            match c {
                '"' => break,
                '\\' => match self.bump() {
                    Some('n') => text.push('\n'),
                    Some('t') => text.push('\t'),
                    Some('r') => text.push('\r'),
                    Some('0') => text.push('\0'),
                    Some('\\') => text.push('\\'),
                    Some('"') => text.push('"'),
                    Some('\'') => text.push('\''),
                    // \x41 / \u{1F600}: swallow, substitute a placeholder.
                    Some('x') => {
                        self.bump();
                        self.bump();
                        text.push('?');
                    }
                    Some('u') => {
                        while let Some(c) = self.bump() {
                            if c == '}' {
                                break;
                            }
                        }
                        text.push('?');
                    }
                    // Line continuation: swallow the newline and leading
                    // whitespace of the next line.
                    Some('\n') => {
                        while self.peek(0).is_some_and(|c| c.is_whitespace()) {
                            self.bump();
                        }
                    }
                    Some(other) => text.push(other),
                    None => break,
                },
                _ => text.push(c),
            }
        }
        self.push(TokKind::Str, text, line);
    }

    fn char_or_lifetime(&mut self, line: u32) {
        // `'a'` / `'\n'` are chars; `'a` (no closing quote) is a lifetime.
        let is_lifetime = self
            .peek(1)
            .is_some_and(|c| c.is_ascii_alphanumeric() || c == '_')
            && self.peek(2) != Some('\'');
        self.bump(); // '
        if is_lifetime {
            let mut text = String::from("'");
            while let Some(c) = self.peek(0) {
                if c.is_ascii_alphanumeric() || c == '_' {
                    text.push(c);
                    self.bump();
                } else {
                    break;
                }
            }
            self.push(TokKind::Lifetime, text, line);
        } else {
            self.char_body(line);
        }
    }

    /// Char-literal body, opening quote consumed.
    fn char_body(&mut self, line: u32) {
        let mut text = String::new();
        while let Some(c) = self.bump() {
            match c {
                '\'' => break,
                '\\' => {
                    if let Some(esc) = self.bump() {
                        text.push(esc);
                    }
                }
                _ => text.push(c),
            }
        }
        self.push(TokKind::Char, text, line);
    }

    fn ident(&mut self, line: u32) {
        let mut text = String::new();
        while let Some(c) = self.peek(0) {
            if c.is_ascii_alphanumeric() || c == '_' {
                text.push(c);
                self.bump();
            } else {
                break;
            }
        }
        self.push(TokKind::Ident, text, line);
    }

    fn number(&mut self, line: u32) {
        let mut text = String::new();
        let mut seen_dot = false;
        while let Some(c) = self.peek(0) {
            if c.is_ascii_alphanumeric() || c == '_' {
                text.push(c);
                self.bump();
            } else if c == '.' && !seen_dot && self.peek(1).is_some_and(|d| d.is_ascii_digit()) {
                // `1.25` but not the range in `1..4`.
                seen_dot = true;
                text.push(c);
                self.bump();
            } else {
                break;
            }
        }
        self.push(TokKind::Num, text, line);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .toks
            .into_iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text)
            .collect()
    }

    #[test]
    fn comments_and_strings_hide_idents() {
        let src = r##"
// HashMap in a comment
/* HashMap /* nested */ still comment */
let s = "HashMap in a string";
let r = r#"HashMap raw "quoted" too"#;
let real = HashMap::new();
"##;
        let ids = idents(src);
        assert_eq!(ids.iter().filter(|i| *i == "HashMap").count(), 1);
    }

    #[test]
    fn cooked_escapes_and_continuation() {
        let lexed = lex("let h = \"a,b\\n\";\nlet c = \"x,\\\n     y\\n\";");
        let strs: Vec<&str> = lexed
            .toks
            .iter()
            .filter(|t| t.kind == TokKind::Str)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(strs, ["a,b\n", "x,y\n"]);
    }

    #[test]
    fn lifetimes_are_not_chars() {
        let lexed = lex("fn f<'a>(x: &'a str) -> char { 'x' }");
        assert!(lexed
            .toks
            .iter()
            .any(|t| t.kind == TokKind::Lifetime && t.text == "'a"));
        assert!(lexed
            .toks
            .iter()
            .any(|t| t.kind == TokKind::Char && t.text == "x"));
    }

    #[test]
    fn numbers_do_not_eat_ranges() {
        let lexed = lex("for i in 1..4 { let f = 2.5; }");
        let nums: Vec<&str> = lexed
            .toks
            .iter()
            .filter(|t| t.kind == TokKind::Num)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(nums, ["1", "4", "2.5"]);
    }

    #[test]
    fn raw_identifiers_are_single_tokens() {
        // A raw ident must neither split into `r # match` (faking a
        // keyword to the item parser) nor collapse into the bare keyword.
        let lexed = lex("let r#match = r#type + other;");
        let ids = idents("let r#match = r#type + other;");
        assert_eq!(ids, ["let", "r#match", "r#type", "other"]);
        assert!(!lexed
            .toks
            .iter()
            .any(|t| matches!(t.kind, TokKind::Punct('#'))));
    }

    #[test]
    fn raw_strings_with_hashes_and_quotes() {
        let lexed = lex(r####"let a = r#"quote " hash # done"#; let b = r##"x"# y"##;"####);
        let strs: Vec<&str> = lexed
            .toks
            .iter()
            .filter(|t| t.kind == TokKind::Str)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(strs, ["quote \" hash # done", "x\"# y"]);
    }

    #[test]
    fn nested_block_comments_terminate_exactly() {
        // The ident after the comment must survive; the one inside must not.
        let src = "/* outer /* inner /* deep */ still */ done */ after";
        assert_eq!(idents(src), ["after"]);
    }

    #[test]
    fn lifetime_ticks_vs_char_literals() {
        // `'a` in generics/refs is a lifetime; `'a'`, `'\''`, `b'x'` are
        // chars; `'_'` is a char-shaped token, not an underscore lifetime.
        let src = "fn f<'de>(x: &'de str) { let c = '\\''; let b = b'x'; let u = '_'; }";
        let lexed = lex(src);
        let lifetimes: Vec<&str> = lexed
            .toks
            .iter()
            .filter(|t| t.kind == TokKind::Lifetime)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(lifetimes, ["'de", "'de"]);
        let chars: Vec<&str> = lexed
            .toks
            .iter()
            .filter(|t| t.kind == TokKind::Char)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(chars, ["'", "x", "_"]);
    }

    #[test]
    fn lines_are_tracked() {
        let lexed = lex("a\nb\n  c");
        let lines: Vec<u32> = lexed.toks.iter().map(|t| t.line).collect();
        assert_eq!(lines, [1, 2, 3]);
    }
}
