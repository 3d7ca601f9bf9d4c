//! Token definitions for the C++ lexer.

use crate::span::Span;

/// A lexed token: a kind plus the span of its original text.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Token {
    pub(crate) kind: TokenKind,
    pub span: Span,
}

impl Token {
    pub(crate) fn new(kind: TokenKind, span: Span) -> Self {
        Token { kind, span }
    }

    /// Slice this token's text out of the source.
    #[cfg(test)]
    pub(crate) fn text<'a>(&self, src: &'a str) -> &'a str {
        self.span.slice(src)
    }
}

/// Kinds of token. Comments and whitespace are *not* emitted — the span-based
/// rewriter preserves them implicitly. Preprocessor directives are emitted as
/// a single [`TokenKind::Directive`] token covering the whole logical line so
/// the parser can record `#include`s and skip the rest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum TokenKind {
    Ident,
    Keyword(Kw),
    IntLit,
    FloatLit,
    CharLit,
    StrLit,
    Directive,
    Punct(Punct),
    /// A byte sequence the lexer could not interpret (emitted one byte at a
    /// time so the parser can resynchronize).
    Unknown,
    Eof,
}

/// C++ keywords the parser cares about. Identifiers that happen to be other
/// C++ keywords (e.g. `mutable`) simply lex as [`TokenKind::Ident`]; the
/// tolerant parser treats them as raw text.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub(crate) enum Kw {
    Class,
    Struct,
    Union,
    Enum,
    Public,
    Private,
    Protected,
    Virtual,
    Static,
    Const,
    Inline,
    Friend,
    Typedef,
    Extern,
    Template,
    Typename,
    Namespace,
    Using,
    Operator,
    New,
    Delete,
    This,
    Sizeof,
    Return,
    If,
    Else,
    While,
    For,
    Do,
    Switch,
    Case,
    Default,
    Break,
    Continue,
    Goto,
    Void,
    Bool,
    Char,
    Short,
    Int,
    Long,
    Float,
    Double,
    Signed,
    Unsigned,
    True,
    False,
    Nullptr,
}

impl Kw {
    /// Map an identifier to a keyword, if it is one. (Not `FromStr`: this
    /// is infallible-by-`Option`, not error-carrying.)
    #[allow(clippy::should_implement_trait)]
    pub(crate) fn from_str(s: &str) -> Option<Kw> {
        Some(match s {
            "class" => Kw::Class,
            "struct" => Kw::Struct,
            "union" => Kw::Union,
            "enum" => Kw::Enum,
            "public" => Kw::Public,
            "private" => Kw::Private,
            "protected" => Kw::Protected,
            "virtual" => Kw::Virtual,
            "static" => Kw::Static,
            "const" => Kw::Const,
            "inline" => Kw::Inline,
            "friend" => Kw::Friend,
            "typedef" => Kw::Typedef,
            "extern" => Kw::Extern,
            "template" => Kw::Template,
            "typename" => Kw::Typename,
            "namespace" => Kw::Namespace,
            "using" => Kw::Using,
            "operator" => Kw::Operator,
            "new" => Kw::New,
            "delete" => Kw::Delete,
            "this" => Kw::This,
            "sizeof" => Kw::Sizeof,
            "return" => Kw::Return,
            "if" => Kw::If,
            "else" => Kw::Else,
            "while" => Kw::While,
            "for" => Kw::For,
            "do" => Kw::Do,
            "switch" => Kw::Switch,
            "case" => Kw::Case,
            "default" => Kw::Default,
            "break" => Kw::Break,
            "continue" => Kw::Continue,
            "goto" => Kw::Goto,
            "void" => Kw::Void,
            "bool" => Kw::Bool,
            "char" => Kw::Char,
            "short" => Kw::Short,
            "int" => Kw::Int,
            "long" => Kw::Long,
            "float" => Kw::Float,
            "double" => Kw::Double,
            "signed" => Kw::Signed,
            "unsigned" => Kw::Unsigned,
            "true" => Kw::True,
            "false" => Kw::False,
            "nullptr" => Kw::Nullptr,
            _ => return None,
        })
    }

    /// True for keywords that can start or continue a builtin type name
    /// (`unsigned long long`, `const char`, ...).
    pub(crate) fn is_builtin_type(self) -> bool {
        matches!(
            self,
            Kw::Void
                | Kw::Bool
                | Kw::Char
                | Kw::Short
                | Kw::Int
                | Kw::Long
                | Kw::Float
                | Kw::Double
                | Kw::Signed
                | Kw::Unsigned
        )
    }
}

/// Punctuation and operators. Multi-character operators are lexed greedily.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub(crate) enum Punct {
    LParen,
    RParen,
    LBrace,
    RBrace,
    LBracket,
    RBracket,
    Semi,
    Comma,
    Colon,
    ColonColon,
    Arrow,
    ArrowStar,
    Dot,
    DotStar,
    Star,
    Amp,
    AmpAmp,
    Pipe,
    PipePipe,
    Caret,
    Tilde,
    Bang,
    Plus,
    PlusPlus,
    Minus,
    MinusMinus,
    Slash,
    Percent,
    Lt,
    LtLt,
    Le,
    Gt,
    GtGt,
    Ge,
    Eq,
    EqEq,
    Ne,
    PlusEq,
    MinusEq,
    StarEq,
    SlashEq,
    PercentEq,
    AmpEq,
    PipeEq,
    CaretEq,
    LtLtEq,
    GtGtEq,
    Question,
    Ellipsis,
}

impl Punct {
    /// The literal text of this punctuator.
    pub(crate) fn as_str(self) -> &'static str {
        use Punct::*;
        match self {
            LParen => "(",
            RParen => ")",
            LBrace => "{",
            RBrace => "}",
            LBracket => "[",
            RBracket => "]",
            Semi => ";",
            Comma => ",",
            Colon => ":",
            ColonColon => "::",
            Arrow => "->",
            ArrowStar => "->*",
            Dot => ".",
            DotStar => ".*",
            Star => "*",
            Amp => "&",
            AmpAmp => "&&",
            Pipe => "|",
            PipePipe => "||",
            Caret => "^",
            Tilde => "~",
            Bang => "!",
            Plus => "+",
            PlusPlus => "++",
            Minus => "-",
            MinusMinus => "--",
            Slash => "/",
            Percent => "%",
            Lt => "<",
            LtLt => "<<",
            Le => "<=",
            Gt => ">",
            GtGt => ">>",
            Ge => ">=",
            Eq => "=",
            EqEq => "==",
            Ne => "!=",
            PlusEq => "+=",
            MinusEq => "-=",
            StarEq => "*=",
            SlashEq => "/=",
            PercentEq => "%=",
            AmpEq => "&=",
            PipeEq => "|=",
            CaretEq => "^=",
            LtLtEq => "<<=",
            GtGtEq => ">>=",
            Question => "?",
            Ellipsis => "...",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keyword_lookup() {
        assert_eq!(Kw::from_str("class"), Some(Kw::Class));
        assert_eq!(Kw::from_str("new"), Some(Kw::New));
        assert_eq!(Kw::from_str("mutable"), None);
        assert_eq!(Kw::from_str(""), None);
    }

    #[test]
    fn builtin_type_keywords() {
        assert!(Kw::Unsigned.is_builtin_type());
        assert!(Kw::Char.is_builtin_type());
        assert!(!Kw::Class.is_builtin_type());
        assert!(!Kw::New.is_builtin_type());
    }

    #[test]
    fn punct_text_round_trip() {
        assert_eq!(Punct::Arrow.as_str(), "->");
        assert_eq!(Punct::LtLtEq.as_str(), "<<=");
        assert_eq!(Punct::Ellipsis.as_str(), "...");
    }
}
