//! A complete lexer for C++ token syntax.
//!
//! The lexer never fails: bytes it cannot interpret become
//! `TokenKind::Unknown` tokens. Comments and whitespace are skipped (the
//! span-based rewriter preserves them in the output automatically);
//! preprocessor directives are folded into single `TokenKind::Directive`
//! tokens spanning the full logical line, including `\`-continuations.

use crate::source::SourceFile;
use crate::span::Span;
use crate::token::{Kw, Punct, Token, TokenKind};

/// Lex an entire source file. The final token is always `TokenKind::Eof`.
pub fn lex(file: &SourceFile) -> Vec<Token> {
    Lexer::new(file.text()).run()
}

struct Lexer<'a> {
    src: &'a [u8],
    text: &'a str,
    pos: usize,
    tokens: Vec<Token>,
    /// True when only whitespace has been seen since the last newline —
    /// a `#` in this state starts a preprocessor directive.
    at_line_start: bool,
}

impl<'a> Lexer<'a> {
    fn new(text: &'a str) -> Self {
        Lexer {
            src: text.as_bytes(),
            text,
            pos: 0,
            tokens: Vec::with_capacity(text.len() / 4),
            at_line_start: true,
        }
    }

    fn run(mut self) -> Vec<Token> {
        while self.pos < self.src.len() {
            self.next_token();
        }
        let end = self.src.len() as u32;
        self.tokens.push(Token::new(TokenKind::Eof, Span::at(end)));
        self.tokens
    }

    #[inline]
    fn peek(&self) -> u8 {
        self.src.get(self.pos).copied().unwrap_or(0)
    }

    #[inline]
    fn peek_at(&self, off: usize) -> u8 {
        self.src.get(self.pos + off).copied().unwrap_or(0)
    }

    fn emit(&mut self, kind: TokenKind, start: usize) {
        self.tokens.push(Token::new(kind, Span::new(start as u32, self.pos as u32)));
        self.at_line_start = false;
    }

    fn next_token(&mut self) {
        let c = self.peek();
        match c {
            b' ' | b'\t' | b'\r' => {
                self.pos += 1;
            }
            b'\n' => {
                self.pos += 1;
                self.at_line_start = true;
            }
            b'/' if self.peek_at(1) == b'/' => self.skip_line_comment(),
            b'/' if self.peek_at(1) == b'*' => self.skip_block_comment(),
            b'#' if self.at_line_start => self.lex_directive(),
            b'R' if self.peek_at(1) == b'"' => self.lex_raw_string(),
            b'"' => self.lex_string(),
            b'\'' => self.lex_char(),
            b'0'..=b'9' => self.lex_number(),
            b'.' if self.peek_at(1).is_ascii_digit() => self.lex_number(),
            c if c == b'_' || c.is_ascii_alphabetic() => self.lex_ident(),
            _ => self.lex_punct_or_unknown(),
        }
    }

    fn skip_line_comment(&mut self) {
        while self.pos < self.src.len() && self.peek() != b'\n' {
            // Line comments can be extended with a backslash-newline.
            if self.peek() == b'\\' && self.peek_at(1) == b'\n' {
                self.pos += 2;
                continue;
            }
            self.pos += 1;
        }
    }

    fn skip_block_comment(&mut self) {
        self.pos += 2;
        while self.pos < self.src.len() {
            if self.peek() == b'*' && self.peek_at(1) == b'/' {
                self.pos += 2;
                return;
            }
            self.pos += 1;
        }
        // Unterminated comment: consume to EOF; tolerant by design.
    }

    fn lex_directive(&mut self) {
        let start = self.pos;
        while self.pos < self.src.len() {
            match self.peek() {
                b'\\' if self.peek_at(1) == b'\n' => self.pos += 2,
                b'\\' if self.peek_at(1) == b'\r' && self.peek_at(2) == b'\n' => self.pos += 3,
                // Comments inside directives end or continue the line per
                // their own rules; a line comment runs to EOL and the
                // directive ends with it.
                b'/' if self.peek_at(1) == b'*' => self.skip_block_comment(),
                b'\n' => break,
                _ => self.pos += 1,
            }
        }
        self.emit(TokenKind::Directive, start);
        self.at_line_start = true;
    }

    /// C++11 raw string literal: `R"delim( ... )delim"`. No escapes apply
    /// inside; the literal ends at `)delim"`.
    fn lex_raw_string(&mut self) {
        let start = self.pos;
        self.pos += 2; // R"
        let delim_start = self.pos;
        while self.pos < self.src.len()
            && self.peek() != b'('
            && self.pos - delim_start < 16
            && !matches!(self.peek(), b'"' | b'\\' | b'\n' | b' ')
        {
            self.pos += 1;
        }
        if self.peek() != b'(' {
            // Not actually a raw string (e.g. `R"x"` malformed): fall back
            // to lexing `R` as an identifier by rewinding.
            self.pos = start;
            self.lex_ident();
            return;
        }
        let delim = self.src[delim_start..self.pos].to_vec();
        self.pos += 1; // (
                       // Scan for `)delim"`.
        while self.pos < self.src.len() {
            if self.peek() == b')'
                && self.src[self.pos + 1..].starts_with(&delim)
                && self.src.get(self.pos + 1 + delim.len()) == Some(&b'"')
            {
                self.pos += 1 + delim.len() + 1;
                break;
            }
            self.pos += 1;
        }
        self.emit(TokenKind::StrLit, start);
    }

    fn lex_string(&mut self) {
        let start = self.pos;
        self.pos += 1;
        while self.pos < self.src.len() {
            match self.peek() {
                b'\\' => self.pos = (self.pos + 2).min(self.src.len()),
                b'"' => {
                    self.pos += 1;
                    break;
                }
                b'\n' => break, // unterminated; stop at EOL
                _ => self.pos += 1,
            }
        }
        self.emit(TokenKind::StrLit, start);
    }

    fn lex_char(&mut self) {
        let start = self.pos;
        self.pos += 1;
        while self.pos < self.src.len() {
            match self.peek() {
                b'\\' => self.pos = (self.pos + 2).min(self.src.len()),
                b'\'' => {
                    self.pos += 1;
                    break;
                }
                b'\n' => break,
                _ => self.pos += 1,
            }
        }
        self.emit(TokenKind::CharLit, start);
    }

    fn lex_number(&mut self) {
        let start = self.pos;
        let mut is_float = false;
        // Hex / octal / binary prefixes.
        if self.peek() == b'0' && matches!(self.peek_at(1), b'x' | b'X' | b'b' | b'B') {
            self.pos += 2;
            while self.peek().is_ascii_alphanumeric() {
                self.pos += 1;
            }
        } else {
            while self.peek().is_ascii_digit() {
                self.pos += 1;
            }
            if self.peek() == b'.' && self.peek_at(1) != b'.' {
                is_float = true;
                self.pos += 1;
                while self.peek().is_ascii_digit() {
                    self.pos += 1;
                }
            }
            if matches!(self.peek(), b'e' | b'E')
                && (self.peek_at(1).is_ascii_digit()
                    || (matches!(self.peek_at(1), b'+' | b'-') && self.peek_at(2).is_ascii_digit()))
            {
                is_float = true;
                self.pos += 2;
                while self.peek().is_ascii_digit() {
                    self.pos += 1;
                }
            }
        }
        // Suffixes: u, l, f combinations.
        while matches!(self.peek(), b'u' | b'U' | b'l' | b'L' | b'f' | b'F') {
            if matches!(self.peek(), b'f' | b'F') {
                is_float = true;
            }
            self.pos += 1;
        }
        let kind = if is_float { TokenKind::FloatLit } else { TokenKind::IntLit };
        self.emit(kind, start);
    }

    fn lex_ident(&mut self) {
        let start = self.pos;
        while {
            let c = self.peek();
            c == b'_' || c.is_ascii_alphanumeric()
        } {
            self.pos += 1;
        }
        let text = &self.text[start..self.pos];
        let kind = match Kw::from_str(text) {
            Some(kw) => TokenKind::Keyword(kw),
            None => TokenKind::Ident,
        };
        self.emit(kind, start);
    }

    fn lex_punct_or_unknown(&mut self) {
        let start = self.pos;
        let rest = &self.src[self.pos..];
        // Greedy longest-match over the operator table.
        let (punct, len): (Option<Punct>, usize) = match rest {
            [b'<', b'<', b'=', ..] => (Some(Punct::LtLtEq), 3),
            [b'>', b'>', b'=', ..] => (Some(Punct::GtGtEq), 3),
            [b'-', b'>', b'*', ..] => (Some(Punct::ArrowStar), 3),
            [b'.', b'.', b'.', ..] => (Some(Punct::Ellipsis), 3),
            [b':', b':', ..] => (Some(Punct::ColonColon), 2),
            [b'-', b'>', ..] => (Some(Punct::Arrow), 2),
            [b'.', b'*', ..] => (Some(Punct::DotStar), 2),
            [b'&', b'&', ..] => (Some(Punct::AmpAmp), 2),
            [b'|', b'|', ..] => (Some(Punct::PipePipe), 2),
            [b'+', b'+', ..] => (Some(Punct::PlusPlus), 2),
            [b'-', b'-', ..] => (Some(Punct::MinusMinus), 2),
            [b'<', b'<', ..] => (Some(Punct::LtLt), 2),
            [b'>', b'>', ..] => (Some(Punct::GtGt), 2),
            [b'<', b'=', ..] => (Some(Punct::Le), 2),
            [b'>', b'=', ..] => (Some(Punct::Ge), 2),
            [b'=', b'=', ..] => (Some(Punct::EqEq), 2),
            [b'!', b'=', ..] => (Some(Punct::Ne), 2),
            [b'+', b'=', ..] => (Some(Punct::PlusEq), 2),
            [b'-', b'=', ..] => (Some(Punct::MinusEq), 2),
            [b'*', b'=', ..] => (Some(Punct::StarEq), 2),
            [b'/', b'=', ..] => (Some(Punct::SlashEq), 2),
            [b'%', b'=', ..] => (Some(Punct::PercentEq), 2),
            [b'&', b'=', ..] => (Some(Punct::AmpEq), 2),
            [b'|', b'=', ..] => (Some(Punct::PipeEq), 2),
            [b'^', b'=', ..] => (Some(Punct::CaretEq), 2),
            [b'(', ..] => (Some(Punct::LParen), 1),
            [b')', ..] => (Some(Punct::RParen), 1),
            [b'{', ..] => (Some(Punct::LBrace), 1),
            [b'}', ..] => (Some(Punct::RBrace), 1),
            [b'[', ..] => (Some(Punct::LBracket), 1),
            [b']', ..] => (Some(Punct::RBracket), 1),
            [b';', ..] => (Some(Punct::Semi), 1),
            [b',', ..] => (Some(Punct::Comma), 1),
            [b':', ..] => (Some(Punct::Colon), 1),
            [b'.', ..] => (Some(Punct::Dot), 1),
            [b'*', ..] => (Some(Punct::Star), 1),
            [b'&', ..] => (Some(Punct::Amp), 1),
            [b'|', ..] => (Some(Punct::Pipe), 1),
            [b'^', ..] => (Some(Punct::Caret), 1),
            [b'~', ..] => (Some(Punct::Tilde), 1),
            [b'!', ..] => (Some(Punct::Bang), 1),
            [b'+', ..] => (Some(Punct::Plus), 1),
            [b'-', ..] => (Some(Punct::Minus), 1),
            [b'/', ..] => (Some(Punct::Slash), 1),
            [b'%', ..] => (Some(Punct::Percent), 1),
            [b'<', ..] => (Some(Punct::Lt), 1),
            [b'>', ..] => (Some(Punct::Gt), 1),
            [b'=', ..] => (Some(Punct::Eq), 1),
            [b'?', ..] => (Some(Punct::Question), 1),
            [b'#', ..] => (None, 1), // `#` mid-line: not a directive start
            _ => (None, 1),
        };
        // Advance at least one byte (UTF-8 continuation bytes fold into
        // successive Unknown tokens; the parser treats them as raw text).
        self.pos += len;
        match punct {
            Some(p) => self.emit(TokenKind::Punct(p), start),
            None => self.emit(TokenKind::Unknown, start),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokenKind> {
        let f = SourceFile::new(src);
        lex(&f).into_iter().map(|t| t.kind).collect()
    }

    fn texts(src: &str) -> Vec<String> {
        let f = SourceFile::new(src);
        lex(&f)
            .into_iter()
            .filter(|t| t.kind != TokenKind::Eof)
            .map(|t| t.text(src).to_string())
            .collect()
    }

    #[test]
    fn keywords_and_idents() {
        assert_eq!(
            kinds("class Car"),
            vec![TokenKind::Keyword(Kw::Class), TokenKind::Ident, TokenKind::Eof]
        );
    }

    #[test]
    fn operators_greedy() {
        assert_eq!(
            texts("a->b ->* :: <<= >> >= ..."),
            vec!["a", "->", "b", "->*", "::", "<<=", ">>", ">=", "..."]
        );
    }

    #[test]
    fn comments_are_skipped() {
        assert_eq!(
            kinds("a /* x */ b // y\nc"),
            vec![TokenKind::Ident, TokenKind::Ident, TokenKind::Ident, TokenKind::Eof]
        );
    }

    #[test]
    fn unterminated_block_comment_is_tolerated() {
        assert_eq!(kinds("a /* never ends"), vec![TokenKind::Ident, TokenKind::Eof]);
    }

    #[test]
    fn directives_fold_whole_line() {
        let src = "#include <vector>\nint x;";
        let f = SourceFile::new(src);
        let toks = lex(&f);
        assert_eq!(toks[0].kind, TokenKind::Directive);
        assert_eq!(toks[0].text(src), "#include <vector>");
        assert_eq!(toks[1].kind, TokenKind::Keyword(Kw::Int));
    }

    #[test]
    fn directive_with_continuation() {
        let src = "#define FOO \\\n   bar\nint x;";
        let f = SourceFile::new(src);
        let toks = lex(&f);
        assert_eq!(toks[0].kind, TokenKind::Directive);
        assert!(toks[0].text(src).contains("bar"));
        assert_eq!(toks[1].kind, TokenKind::Keyword(Kw::Int));
    }

    #[test]
    fn hash_mid_line_is_not_directive() {
        let src = "int x; # not directive";
        let f = SourceFile::new(src);
        let toks = lex(&f);
        assert!(toks.iter().all(|t| t.kind != TokenKind::Directive));
        assert!(toks.iter().any(|t| t.kind == TokenKind::Unknown));
    }

    #[test]
    fn string_with_escapes() {
        assert_eq!(texts(r#"s = "a\"b\\";"#), vec!["s", "=", r#""a\"b\\""#, ";"]);
    }

    #[test]
    fn char_literals() {
        assert_eq!(texts(r"'a' '\n' '\''"), vec!["'a'", r"'\n'", r"'\''"]);
    }

    #[test]
    fn numbers() {
        let f = SourceFile::new("42 0xFFul 3.14 1e-9 2.5f .5 077");
        let toks = lex(&f);
        let kinds: Vec<_> = toks.iter().map(|t| t.kind).collect();
        assert_eq!(
            kinds,
            vec![
                TokenKind::IntLit,
                TokenKind::IntLit,
                TokenKind::FloatLit,
                TokenKind::FloatLit,
                TokenKind::FloatLit,
                TokenKind::FloatLit,
                TokenKind::IntLit,
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn raw_strings_lex_as_one_token() {
        let src = r###"s = R"(no "escapes" \here)";"###;
        assert_eq!(texts(src), vec!["s", "=", r###"R"(no "escapes" \here)""###, ";"]);
    }

    #[test]
    fn raw_strings_with_custom_delimiter() {
        let src = r####"x = R"ab(quote )" inside)ab";"####;
        assert_eq!(texts(src), vec!["x", "=", r####"R"ab(quote )" inside)ab""####, ";"]);
    }

    #[test]
    fn malformed_raw_string_falls_back_to_ident() {
        // `R` followed by a quote but no `(`: lex `R` as an identifier and
        // the rest as a normal string.
        let src = "R\"x\"";
        let f = SourceFile::new(src);
        let toks = lex(&f);
        assert_eq!(toks[0].kind, TokenKind::Ident);
        assert_eq!(toks[0].text(src), "R");
        assert_eq!(toks[1].kind, TokenKind::StrLit);
    }

    #[test]
    fn unterminated_raw_string_is_tolerated() {
        let f = SourceFile::new("a R\"(never ends");
        let toks = lex(&f);
        assert_eq!(*toks.last().unwrap(), Token::new(TokenKind::Eof, Span::at(15)));
    }

    #[test]
    fn unknown_bytes_do_not_stall() {
        // `@` and a UTF-8 snowman must both advance the lexer.
        let toks = kinds("a @ ☃ b");
        assert_eq!(*toks.last().unwrap(), TokenKind::Eof);
        assert!(toks.contains(&TokenKind::Unknown));
    }

    #[test]
    fn spans_are_exact() {
        let src = "ab + cd";
        let f = SourceFile::new(src);
        let toks = lex(&f);
        assert_eq!(toks[0].span, Span::new(0, 2));
        assert_eq!(toks[1].span, Span::new(3, 4));
        assert_eq!(toks[2].span, Span::new(5, 7));
    }
}
