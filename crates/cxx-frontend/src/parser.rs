//! Tolerant recursive-descent parser for the Amplify C++ subset.
//!
//! Design rules, faithful to a pattern-matching pre-processor:
//!
//! * **Never fail.** Anything outside the subset becomes a `Raw` span and is
//!   reproduced verbatim by the rewriter.
//! * **Statement-level pattern matching.** The paper's transformations
//!   trigger on statement shapes (`delete left;`,
//!   `left = new Child(...);`), so expressions only need to be structured
//!   when they match those shapes.
//! * **Brace/paren balance is sacred.** Recovery always resynchronizes on
//!   balanced delimiters so one unparsable construct cannot derail the rest
//!   of the file.

use crate::ast::*;
use crate::source::SourceFile;
use crate::span::Span;
use crate::token::{Kw, Punct, Token, TokenKind};

/// The parser. Construct with [`Parser::new`] and call
/// [`Parser::parse_unit`].
pub(crate) struct Parser {
    file: SourceFile,
    toks: Vec<Token>,
    pos: usize,
    /// Extra declarators from `T a, b, c;` field groups, drained by the
    /// class-body loop right after the member that produced them.
    pending_fields: Vec<FieldDecl>,
}

impl Parser {
    pub(crate) fn new(file: SourceFile, toks: Vec<Token>) -> Self {
        debug_assert!(matches!(toks.last(), Some(t) if t.kind == TokenKind::Eof));
        Parser { file, toks, pos: 0, pending_fields: Vec::new() }
    }

    /// Parse the whole token stream into a [`TranslationUnit`].
    pub(crate) fn parse_unit(mut self) -> TranslationUnit {
        let mut items = Vec::new();
        while !self.at_eof() {
            let before = self.pos;
            items.push(self.parse_item());
            if self.pos == before {
                // Safety net: an item that consumed nothing (e.g. a stray
                // `}` at top level) must not stall the loop.
                let t = self.bump();
                items.push(Item::Raw(t.span));
            }
        }
        TranslationUnit { file: self.file, items }
    }

    // ----- cursor helpers ---------------------------------------------------

    fn peek(&self) -> Token {
        self.toks[self.pos]
    }

    fn peek_at(&self, off: usize) -> Token {
        self.toks[(self.pos + off).min(self.toks.len() - 1)]
    }

    fn at_eof(&self) -> bool {
        self.peek().kind == TokenKind::Eof
    }

    fn bump(&mut self) -> Token {
        let t = self.toks[self.pos];
        if self.pos + 1 < self.toks.len() {
            self.pos += 1;
        }
        t
    }

    fn at_punct(&self, p: Punct) -> bool {
        self.peek().kind == TokenKind::Punct(p)
    }

    fn at_kw(&self, k: Kw) -> bool {
        self.peek().kind == TokenKind::Keyword(k)
    }

    fn eat_punct(&mut self, p: Punct) -> Option<Token> {
        if self.at_punct(p) {
            Some(self.bump())
        } else {
            None
        }
    }

    fn eat_kw(&mut self, k: Kw) -> Option<Token> {
        if self.at_kw(k) {
            Some(self.bump())
        } else {
            None
        }
    }

    fn text(&self, t: Token) -> &str {
        self.file.slice(t.span)
    }

    /// Span from `start` to the end of the previously consumed token.
    fn span_from(&self, start: u32) -> Span {
        let end = if self.pos == 0 { start } else { self.toks[self.pos - 1].span.end };
        Span::new(start, end.max(start))
    }

    /// Skip a balanced `(...)`, `[...]`, `{...}` or `<...>` group, assuming
    /// the cursor is on the opener. Returns the span including delimiters.
    /// `>>` closes two levels of `<`.
    fn skip_balanced(&mut self, open: Punct, close: Punct) -> Span {
        let start = self.peek().span.start;
        debug_assert!(self.at_punct(open));
        self.bump();
        let mut depth: i32 = 1;
        while depth > 0 && !self.at_eof() {
            match self.peek().kind {
                TokenKind::Punct(p) if p == open => depth += 1,
                TokenKind::Punct(p) if p == close => depth -= 1,
                TokenKind::Punct(Punct::GtGt) if close == Punct::Gt => depth -= 2,
                // Nested groups of other delimiter kinds are skipped
                // recursively so a stray `>` inside parens can't end a
                // template argument list.
                TokenKind::Punct(Punct::LParen) if open != Punct::LParen => {
                    self.skip_balanced(Punct::LParen, Punct::RParen);
                    continue;
                }
                TokenKind::Punct(Punct::LBrace) if open != Punct::LBrace => {
                    self.skip_balanced(Punct::LBrace, Punct::RBrace);
                    continue;
                }
                TokenKind::Punct(Punct::LBracket) if open != Punct::LBracket => {
                    self.skip_balanced(Punct::LBracket, Punct::RBracket);
                    continue;
                }
                _ => {}
            }
            self.bump();
            if depth <= 0 {
                break;
            }
        }
        self.span_from(start)
    }

    /// Consume raw tokens until a `;` at depth 0 (consumed) or a `}` at
    /// depth 0 (NOT consumed), balancing all delimiter groups on the way.
    /// If the raw run ends on a balanced `}` that directly closes a brace
    /// group we consumed (e.g. `struct S { ... };`), the optional trailing
    /// `;` is consumed too.
    fn skip_raw_statement(&mut self) -> Span {
        let start = self.peek().span.start;
        while !self.at_eof() {
            match self.peek().kind {
                TokenKind::Punct(Punct::Semi) => {
                    self.bump();
                    break;
                }
                TokenKind::Punct(Punct::RBrace) => break,
                TokenKind::Punct(Punct::LParen) => {
                    self.skip_balanced(Punct::LParen, Punct::RParen);
                }
                TokenKind::Punct(Punct::LBracket) => {
                    self.skip_balanced(Punct::LBracket, Punct::RBracket);
                }
                TokenKind::Punct(Punct::LBrace) => {
                    self.skip_balanced(Punct::LBrace, Punct::RBrace);
                    // `};` after a brace group ends the raw item.
                    self.eat_punct(Punct::Semi);
                    break;
                }
                _ => {
                    self.bump();
                }
            }
        }
        self.span_from(start)
    }

    // ----- items ------------------------------------------------------------

    fn parse_item(&mut self) -> Item {
        let t = self.peek();
        match t.kind {
            TokenKind::Directive => {
                self.bump();
                match parse_include(self.file.slice(t.span)) {
                    Some((path, system)) => {
                        Item::Include(IncludeDirective { path, system, span: t.span })
                    }
                    None => Item::Directive(t.span),
                }
            }
            TokenKind::Keyword(Kw::Namespace) => self.parse_namespace(),
            TokenKind::Keyword(Kw::Class) | TokenKind::Keyword(Kw::Struct) => {
                self.parse_class_or_raw()
            }
            TokenKind::Keyword(Kw::Template) => {
                // Template declarations are outside the amplifiable subset —
                // consume `template <...>` plus the following item verbatim.
                let start = t.span.start;
                self.bump();
                if self.at_punct(Punct::Lt) {
                    self.skip_balanced(Punct::Lt, Punct::Gt);
                }
                let inner = self.parse_item();
                Item::Raw(Span::new(start, inner.span().end))
            }
            TokenKind::Keyword(Kw::Typedef)
            | TokenKind::Keyword(Kw::Using)
            | TokenKind::Keyword(Kw::Enum)
            | TokenKind::Keyword(Kw::Union)
            | TokenKind::Keyword(Kw::Extern)
            | TokenKind::Keyword(Kw::Friend) => Item::Raw(self.skip_raw_statement()),
            TokenKind::Punct(Punct::Semi) | TokenKind::Punct(Punct::RBrace) => {
                // A stray `}` at top level is malformed input; consume it as
                // raw so parsing always makes progress.
                self.bump();
                Item::Raw(t.span)
            }
            TokenKind::Eof => Item::Raw(Span::at(t.span.start)),
            _ => self.parse_function_or_raw(),
        }
    }

    fn parse_namespace(&mut self) -> Item {
        let start = self.peek().span.start;
        self.bump(); // namespace
        let name = if self.peek().kind == TokenKind::Ident {
            let t = self.bump();
            self.text(t).to_string()
        } else {
            String::new()
        };
        if !self.at_punct(Punct::LBrace) {
            // `namespace A = B;` or similar — raw.
            let span = self.skip_raw_statement();
            return Item::Raw(Span::new(start, span.end));
        }
        self.bump(); // {
        let mut items = Vec::new();
        while !self.at_eof() && !self.at_punct(Punct::RBrace) {
            items.push(self.parse_item());
        }
        self.eat_punct(Punct::RBrace);
        Item::Namespace(NamespaceDef { name, items, span: self.span_from(start) })
    }

    fn parse_class_or_raw(&mut self) -> Item {
        let start = self.peek().span.start;
        let is_struct = self.at_kw(Kw::Struct);
        let save = self.pos;
        self.bump(); // class/struct
        let name = match self.peek().kind {
            TokenKind::Ident => {
                let t = self.bump();
                self.text(t).to_string()
            }
            _ => {
                // Anonymous struct or unparsable — raw.
                self.pos = save;
                return Item::Raw(self.skip_raw_statement());
            }
        };
        // Base clause or `{`; `class Foo;` is a forward declaration.
        let mut bases = Vec::new();
        if self.eat_punct(Punct::Colon).is_some() {
            while !self.at_eof() && !self.at_punct(Punct::LBrace) {
                match self.peek().kind {
                    TokenKind::Ident => {
                        let t = self.bump();
                        let mut base = self.text(t).to_string();
                        while self.at_punct(Punct::ColonColon) {
                            self.bump();
                            if self.peek().kind == TokenKind::Ident {
                                let seg = self.bump();
                                base.push_str("::");
                                base.push_str(self.text(seg));
                            }
                        }
                        if self.at_punct(Punct::Lt) {
                            self.skip_balanced(Punct::Lt, Punct::Gt);
                        }
                        bases.push(base);
                    }
                    TokenKind::Punct(Punct::Semi) => {
                        // `class X : tag;` — broken; treat whole thing raw.
                        self.pos = save;
                        return Item::Raw(self.skip_raw_statement());
                    }
                    _ => {
                        self.bump();
                    }
                }
            }
        }
        if !self.at_punct(Punct::LBrace) {
            // Forward declaration or variable of elaborated type.
            self.pos = save;
            return Item::Raw(self.skip_raw_statement());
        }
        let lbrace = self.peek().span.start;
        self.bump(); // {
        let mut members = Vec::new();
        while !self.at_eof() && !self.at_punct(Punct::RBrace) {
            let before = self.pos;
            let m = self.parse_member(&name);
            members.push(m);
            for extra in self.take_pending_fields() {
                members.push(Member::Field(extra));
            }
            if self.pos == before {
                let t = self.bump();
                members.push(Member::Raw(t.span));
            }
        }
        let rbrace = self.peek().span.start;
        self.eat_punct(Punct::RBrace);
        self.eat_punct(Punct::Semi);
        Item::Class(ClassDef {
            name,
            is_struct,
            bases,
            members,
            span: self.span_from(start),
            lbrace,
            rbrace,
        })
    }

    // ----- class members ----------------------------------------------------

    fn parse_member(&mut self, class_name: &str) -> Member {
        let t = self.peek();
        match t.kind {
            TokenKind::Keyword(Kw::Public)
            | TokenKind::Keyword(Kw::Private)
            | TokenKind::Keyword(Kw::Protected) => {
                let access = match t.kind {
                    TokenKind::Keyword(Kw::Public) => Access::Public,
                    TokenKind::Keyword(Kw::Private) => Access::Private,
                    _ => Access::Protected,
                };
                let start = t.span.start;
                self.bump();
                self.eat_punct(Punct::Colon);
                Member::Access(access, self.span_from(start))
            }
            TokenKind::Keyword(Kw::Friend)
            | TokenKind::Keyword(Kw::Typedef)
            | TokenKind::Keyword(Kw::Using)
            | TokenKind::Keyword(Kw::Enum)
            | TokenKind::Keyword(Kw::Union)
            | TokenKind::Keyword(Kw::Class)
            | TokenKind::Keyword(Kw::Struct)
            | TokenKind::Keyword(Kw::Template)
            | TokenKind::Directive => Member::Raw(self.skip_raw_statement_or_directive()),
            TokenKind::Punct(Punct::Semi) => {
                self.bump();
                Member::Raw(t.span)
            }
            _ => self.parse_member_decl(class_name),
        }
    }

    fn skip_raw_statement_or_directive(&mut self) -> Span {
        if self.peek().kind == TokenKind::Directive {
            let t = self.bump();
            return t.span;
        }
        if self.at_kw(Kw::Template) {
            let start = self.peek().span.start;
            self.bump();
            if self.at_punct(Punct::Lt) {
                self.skip_balanced(Punct::Lt, Punct::Gt);
            }
            let rest = self.skip_raw_statement();
            return Span::new(start, rest.end);
        }
        self.skip_raw_statement()
    }

    /// Parse a field group, method, constructor, destructor or operator.
    fn parse_member_decl(&mut self, class_name: &str) -> Member {
        let start = self.peek().span.start;
        let save = self.pos;

        let mut is_virtual = false;
        let mut is_static = false;
        loop {
            match self.peek().kind {
                TokenKind::Keyword(Kw::Virtual) => {
                    is_virtual = true;
                    self.bump();
                }
                TokenKind::Keyword(Kw::Static) => {
                    is_static = true;
                    self.bump();
                }
                TokenKind::Keyword(Kw::Inline) => {
                    self.bump();
                }
                _ => break,
            }
        }

        // Destructor: `~Name(` ...
        if self.at_punct(Punct::Tilde) {
            let tilde = self.bump();
            if self.peek().kind == TokenKind::Ident && self.text(self.peek()) == class_name {
                self.bump();
                if self.at_punct(Punct::LParen) {
                    return self.finish_method(
                        start,
                        format!("~{class_name}"),
                        MethodKind::Dtor,
                        None,
                        is_virtual,
                        is_static,
                    );
                }
            }
            self.pos = save;
            let _ = tilde;
            return Member::Raw(self.skip_raw_statement());
        }

        // Constructor: `Name(` — but not `Name x;` (a field of our own type).
        if self.peek().kind == TokenKind::Ident
            && self.text(self.peek()) == class_name
            && self.peek_at(1).kind == TokenKind::Punct(Punct::LParen)
        {
            self.bump();
            return self.finish_method(
                start,
                class_name.to_string(),
                MethodKind::Ctor,
                None,
                is_virtual,
                is_static,
            );
        }

        // Conversion operator without return type: `operator int()`.
        if self.at_kw(Kw::Operator) {
            return self.parse_operator_method(start, is_virtual, is_static, save);
        }

        // Everything else starts with a type.
        let ty = match self.parse_type_core() {
            Some(ty) => ty,
            None => {
                self.pos = save;
                return Member::Raw(self.skip_raw_statement());
            }
        };

        // Declarator-level pointers for the first declarator.
        let mut pointers = 0u8;
        while self.at_punct(Punct::Star) {
            pointers += 1;
            self.bump();
        }
        let is_ref = self.eat_punct(Punct::Amp).is_some();

        if self.at_kw(Kw::Operator) {
            return self.parse_operator_method(start, is_virtual, is_static, save);
        }

        let name_tok = match self.peek().kind {
            TokenKind::Ident => self.bump(),
            _ => {
                self.pos = save;
                return Member::Raw(self.skip_raw_statement());
            }
        };
        let name = self.text(name_tok).to_string();

        if self.at_punct(Punct::LParen) {
            return self.finish_method(
                start,
                name,
                MethodKind::Normal,
                None,
                is_virtual,
                is_static,
            );
        }

        // Field group: `T *a, b[4], *c;`
        let mut ty0 = ty.clone();
        ty0.pointers = pointers;
        ty0.is_ref = is_ref;
        let mut decls = vec![(ty0, name)];
        let mut arrays: Vec<Option<Span>> = vec![None];
        loop {
            match self.peek().kind {
                TokenKind::Punct(Punct::LBracket) => {
                    let sp = self.skip_balanced(Punct::LBracket, Punct::RBracket);
                    *arrays.last_mut().unwrap() = Some(sp);
                }
                TokenKind::Punct(Punct::Comma) => {
                    self.bump();
                    let mut ptrs = 0u8;
                    while self.at_punct(Punct::Star) {
                        ptrs += 1;
                        self.bump();
                    }
                    let r = self.eat_punct(Punct::Amp).is_some();
                    match self.peek().kind {
                        TokenKind::Ident => {
                            let t = self.bump();
                            let mut tyn = ty.clone();
                            tyn.pointers = ptrs;
                            tyn.is_ref = r;
                            decls.push((tyn, self.text(t).to_string()));
                            arrays.push(None);
                        }
                        _ => {
                            self.pos = save;
                            return Member::Raw(self.skip_raw_statement());
                        }
                    }
                }
                TokenKind::Punct(Punct::Semi) => {
                    self.bump();
                    break;
                }
                TokenKind::Punct(Punct::Eq) => {
                    // In-class initializer or bitfield-esque construct —
                    // tolerate by skipping to `;`.
                    self.skip_raw_statement();
                    break;
                }
                TokenKind::Punct(Punct::Colon) => {
                    // Bitfield — raw.
                    self.pos = save;
                    return Member::Raw(self.skip_raw_statement());
                }
                _ => {
                    self.pos = save;
                    return Member::Raw(self.skip_raw_statement());
                }
            }
        }
        let span = self.span_from(start);
        if decls.len() == 1 {
            let (ty, name) = decls.pop().unwrap();
            Member::Field(FieldDecl { ty, name, is_static, array: arrays[0], span })
        } else {
            // Multiple declarators: represent as consecutive Field members
            // sharing the same statement span. The first carries the group;
            // the rest are attached via a synthetic wrapper.
            // `T a, b, c;` — the first declarator is returned and the rest
            // are drained by the class-body loop via `pending_fields`.
            let mut fields: Vec<FieldDecl> = decls
                .into_iter()
                .zip(arrays)
                .map(|((ty, name), array)| FieldDecl { ty, name, is_static, array, span })
                .collect();
            let first = fields.remove(0);
            self.pending_fields.extend(fields);
            Member::Field(first)
        }
    }

    fn parse_operator_method(
        &mut self,
        start: u32,
        is_virtual: bool,
        is_static: bool,
        save: usize,
    ) -> Member {
        debug_assert!(self.at_kw(Kw::Operator));
        self.bump(); // operator
        let mut op = String::new();
        // Operator token(s) up to the parameter list.
        while !self.at_punct(Punct::LParen) && !self.at_eof() {
            let t = self.bump();
            match t.kind {
                TokenKind::Keyword(Kw::New) => op.push_str("new"),
                TokenKind::Keyword(Kw::Delete) => op.push_str("delete"),
                TokenKind::Punct(Punct::LBracket) => op.push('['),
                TokenKind::Punct(Punct::RBracket) => op.push(']'),
                TokenKind::Punct(p) => op.push_str(p.as_str()),
                TokenKind::Ident | TokenKind::Keyword(_) => {
                    if !op.is_empty() {
                        op.push(' ');
                    }
                    op.push_str(self.file.slice(t.span));
                }
                _ => {}
            }
            // `operator()` — the first `(` is part of the name.
            if op == "(" && self.at_punct(Punct::RParen) {
                self.bump();
                op.push(')');
            }
        }
        if !self.at_punct(Punct::LParen) {
            self.pos = save;
            return Member::Raw(self.skip_raw_statement());
        }
        let name = format!("operator {op}");
        self.finish_method(start, name, MethodKind::Operator(op), None, is_virtual, is_static)
    }

    /// Cursor is on the `(` of the parameter list.
    fn finish_method(
        &mut self,
        start: u32,
        name: String,
        kind: MethodKind,
        qualifier: Option<String>,
        is_virtual: bool,
        is_static: bool,
    ) -> Member {
        let params = self.skip_balanced(Punct::LParen, Punct::RParen);
        // Trailing qualifiers: const, throw(...), = 0.
        loop {
            match self.peek().kind {
                TokenKind::Keyword(Kw::Const) => {
                    self.bump();
                }
                TokenKind::Ident if self.text(self.peek()) == "throw" => {
                    self.bump();
                    if self.at_punct(Punct::LParen) {
                        self.skip_balanced(Punct::LParen, Punct::RParen);
                    }
                }
                TokenKind::Punct(Punct::Eq) => {
                    self.bump();
                    self.bump(); // `0` or `default`/`delete`
                }
                _ => break,
            }
        }
        // Constructor initializer list: collect `member(args)` /
        // `member{args}` entries, recognizing `member(new T(...))`
        // structurally (Amplify rewrites that shape).
        let mut init_list = None;
        let mut ctor_inits = Vec::new();
        if self.at_punct(Punct::Colon) {
            let il_start = self.peek().span.start;
            self.bump();
            while !self.at_eof() && !self.at_punct(Punct::LBrace) && !self.at_punct(Punct::Semi) {
                if self.peek().kind == TokenKind::Ident
                    && self.peek_at(1).kind == TokenKind::Punct(Punct::LParen)
                {
                    let entry_start = self.peek().span.start;
                    let name_tok = self.bump();
                    let member = self.text(name_tok).to_string();
                    let save = self.pos;
                    self.bump(); // (
                    let mut new_expr = None;
                    if self.at_kw(Kw::New) {
                        if let Some(Expr::New(n)) = self.parse_new_expr() {
                            if self.at_punct(Punct::RParen) {
                                self.bump();
                                new_expr = Some(n);
                            }
                        }
                    }
                    if new_expr.is_none() {
                        self.pos = save;
                        self.skip_balanced(Punct::LParen, Punct::RParen);
                    }
                    ctor_inits.push(CtorInit {
                        member,
                        new_expr,
                        span: self.span_from(entry_start),
                    });
                    continue;
                }
                if self.peek().kind == TokenKind::Ident
                    && self.peek_at(1).kind == TokenKind::Punct(Punct::LBrace)
                {
                    // C++11 brace initializer `member{...}` — consume it so
                    // the brace is not mistaken for the body.
                    let entry_start = self.peek().span.start;
                    let name_tok = self.bump();
                    let member = self.text(name_tok).to_string();
                    self.skip_balanced(Punct::LBrace, Punct::RBrace);
                    ctor_inits.push(CtorInit {
                        member,
                        new_expr: None,
                        span: self.span_from(entry_start),
                    });
                    continue;
                }
                match self.peek().kind {
                    TokenKind::Punct(Punct::LParen) => {
                        self.skip_balanced(Punct::LParen, Punct::RParen);
                    }
                    _ => {
                        self.bump();
                    }
                }
            }
            init_list = Some(self.span_from(il_start));
        }
        let body = if self.at_punct(Punct::LBrace) {
            Some(self.parse_block())
        } else {
            self.eat_punct(Punct::Semi);
            None
        };
        Member::Method(MethodDef {
            name,
            kind,
            qualifier,
            is_virtual,
            is_static,
            params,
            init_list,
            ctor_inits,
            body,
            span: self.span_from(start),
        })
    }

    // ----- top-level functions ----------------------------------------------

    /// Try to parse `ret [Class::]name(params) [const] [: init] { body }`.
    /// Falls back to a raw item.
    fn parse_function_or_raw(&mut self) -> Item {
        let start = self.peek().span.start;
        let save = self.pos;

        // Leading specifiers.
        while matches!(
            self.peek().kind,
            TokenKind::Keyword(Kw::Static)
                | TokenKind::Keyword(Kw::Inline)
                | TokenKind::Keyword(Kw::Virtual)
        ) {
            self.bump();
        }

        // Destructor definition `Class::~Class(...)`: handled via the path
        // logic below (name begins with `~`).
        let ty = match self.parse_type_core() {
            Some(t) => t,
            None => {
                self.pos = save;
                return Item::Raw(self.skip_raw_statement());
            }
        };
        let mut pointers = 0u8;
        while self.at_punct(Punct::Star) {
            pointers += 1;
            self.bump();
        }
        let _ = self.eat_punct(Punct::Amp);
        let _ = pointers;

        // Three layouts reach this point:
        //   A. `ret [Class::]name(...)`   — return type consumed, name next.
        //   B. `Class::Class(...)`        — ctor: the "type" we parsed is the
        //      class qualifier and the cursor sits on `::`.
        //   C. `Class::~Class(...)`       — dtor: ditto, `::` then `~`.
        let (qualifier, name, kind) = if self.at_punct(Punct::ColonColon) {
            // Cases B/C: continue the qualified name from the parsed "type".
            self.bump();
            match self.parse_qualified_fn_name(vec![ty.name.clone()]) {
                Some(x) => x,
                None => {
                    self.pos = save;
                    return Item::Raw(self.skip_raw_statement());
                }
            }
        } else if self.peek().kind == TokenKind::Ident
            || self.at_punct(Punct::Tilde)
            || self.at_kw(Kw::Operator)
        {
            match self.parse_qualified_fn_name(Vec::new()) {
                Some(x) => x,
                None => {
                    self.pos = save;
                    return Item::Raw(self.skip_raw_statement());
                }
            }
        } else {
            self.pos = save;
            return Item::Raw(self.skip_raw_statement());
        };

        if !self.at_punct(Punct::LParen) {
            self.pos = save;
            return Item::Raw(self.skip_raw_statement());
        }
        let member = self.finish_method(start, name, kind, qualifier, false, false);
        match member {
            Member::Method(m) => {
                if m.is_definition() {
                    Item::Function(m)
                } else {
                    // A declaration (prototype) — keep raw for verbatim
                    // output, no transformation applies.
                    Item::Raw(m.span)
                }
            }
            _ => {
                self.pos = save;
                Item::Raw(self.skip_raw_statement())
            }
        }
    }

    /// Parse `[Class::]name`, `Class::~Class`, `[Class::]operator X`
    /// for function definitions, continuing from any already-consumed
    /// qualifier `segments`. Returns `(qualifier, name, kind)`.
    fn parse_qualified_fn_name(
        &mut self,
        mut segments: Vec<String>,
    ) -> Option<(Option<String>, String, MethodKind)> {
        loop {
            if self.at_punct(Punct::Tilde) {
                self.bump();
                if self.peek().kind != TokenKind::Ident {
                    return None;
                }
                let t = self.bump();
                let n = format!("~{}", self.text(t));
                let qualifier = if segments.is_empty() { None } else { Some(segments.join("::")) };
                return Some((qualifier, n, MethodKind::Dtor));
            }
            if self.at_kw(Kw::Operator) {
                // Reuse operator parsing; cursor must end on `(`.
                self.bump();
                let mut op = String::new();
                while !self.at_punct(Punct::LParen) && !self.at_eof() {
                    let t = self.bump();
                    match t.kind {
                        TokenKind::Keyword(Kw::New) => op.push_str("new"),
                        TokenKind::Keyword(Kw::Delete) => op.push_str("delete"),
                        TokenKind::Punct(Punct::LBracket) => op.push('['),
                        TokenKind::Punct(Punct::RBracket) => op.push(']'),
                        TokenKind::Punct(p) => op.push_str(p.as_str()),
                        _ => op.push_str(self.file.slice(t.span)),
                    }
                }
                let qualifier = if segments.is_empty() { None } else { Some(segments.join("::")) };
                return Some((qualifier, format!("operator {op}"), MethodKind::Operator(op)));
            }
            if self.peek().kind != TokenKind::Ident {
                return None;
            }
            let t = self.bump();
            let seg = self.text(t).to_string();
            if self.at_punct(Punct::ColonColon) {
                self.bump();
                segments.push(seg);
                continue;
            }
            let qualifier = if segments.is_empty() { None } else { Some(segments.join("::")) };
            let kind = match &qualifier {
                Some(q) if q.rsplit("::").next() == Some(seg.as_str()) => MethodKind::Ctor,
                _ => MethodKind::Normal,
            };
            return Some((qualifier, seg, kind));
        }
    }

    // ----- types ------------------------------------------------------------

    /// Parse a type *core*: cv-qualifiers + (builtin keyword sequence |
    /// qualified identifier [+ template args]). Pointers/references belong
    /// to declarators and are not consumed here.
    fn parse_type_core(&mut self) -> Option<TypeRef> {
        let start = self.peek().span.start;
        let mut is_const = self.eat_kw(Kw::Const).is_some();

        let name = match self.peek().kind {
            TokenKind::Keyword(k) if k.is_builtin_type() => {
                let mut words = Vec::new();
                while let TokenKind::Keyword(k2) = self.peek().kind {
                    if !k2.is_builtin_type() {
                        break;
                    }
                    let t = self.bump();
                    words.push(self.text(t).to_string());
                }
                words.join(" ")
            }
            TokenKind::Ident => {
                let t = self.bump();
                let mut n = self.text(t).to_string();
                while self.at_punct(Punct::ColonColon)
                    && self.peek_at(1).kind == TokenKind::Ident
                    // Stop before `Class::name(params) {` — that's a
                    // qualified function name, not part of the type.
                    && !(self.peek_at(2).kind == TokenKind::Punct(Punct::LParen)
                        && self.lookahead_is_param_list(2))
                {
                    self.bump();
                    let seg = self.bump();
                    n.push_str("::");
                    n.push_str(self.text(seg));
                }
                n
            }
            _ => return None,
        };

        let mut template_args = None;
        if self.at_punct(Punct::Lt) && self.template_args_plausible() {
            template_args = Some(self.skip_balanced(Punct::Lt, Punct::Gt));
        }
        if self.eat_kw(Kw::Const).is_some() {
            is_const = true;
        }
        Some(TypeRef {
            name,
            is_const,
            pointers: 0,
            is_ref: false,
            template_args,
            span: self.span_from(start),
        })
    }

    /// Heuristic: decide whether a `<` after a type name opens template
    /// arguments (vs a comparison). We accept when the contents until the
    /// matching `>` consist of type-ish tokens.
    fn template_args_plausible(&self) -> bool {
        let mut i = self.pos + 1;
        let mut depth = 1;
        let mut steps = 0;
        while i < self.toks.len() && steps < 64 {
            match self.toks[i].kind {
                TokenKind::Punct(Punct::Lt) => depth += 1,
                TokenKind::Punct(Punct::Gt) => {
                    depth -= 1;
                    if depth == 0 {
                        return true;
                    }
                }
                TokenKind::Punct(Punct::GtGt) => {
                    depth -= 2;
                    if depth <= 0 {
                        return true;
                    }
                }
                TokenKind::Punct(Punct::Semi)
                | TokenKind::Punct(Punct::LBrace)
                | TokenKind::Punct(Punct::RBrace)
                | TokenKind::Eof => return false,
                _ => {}
            }
            i += 1;
            steps += 1;
        }
        false
    }

    /// Whether tokens starting at `self.pos + off` (which is a `(`)
    /// plausibly open a parameter list (closed before `;` on the same
    /// statement and followed by `{`, `:` or `const`).
    fn lookahead_is_param_list(&self, off: usize) -> bool {
        let mut i = self.pos + off;
        if self.toks.get(i).map(|t| t.kind) != Some(TokenKind::Punct(Punct::LParen)) {
            return false;
        }
        let mut depth = 0;
        while i < self.toks.len() {
            match self.toks[i].kind {
                TokenKind::Punct(Punct::LParen) => depth += 1,
                TokenKind::Punct(Punct::RParen) => {
                    depth -= 1;
                    if depth == 0 {
                        return matches!(
                            self.toks.get(i + 1).map(|t| t.kind),
                            Some(TokenKind::Punct(Punct::LBrace))
                                | Some(TokenKind::Punct(Punct::Colon))
                                | Some(TokenKind::Keyword(Kw::Const))
                        );
                    }
                }
                TokenKind::Eof => return false,
                _ => {}
            }
            i += 1;
        }
        false
    }

    // ----- statements ---------------------------------------------------------

    fn parse_block(&mut self) -> Block {
        let start = self.peek().span.start;
        debug_assert!(self.at_punct(Punct::LBrace));
        self.bump();
        let mut stmts = Vec::new();
        while !self.at_eof() && !self.at_punct(Punct::RBrace) {
            let before = self.pos;
            stmts.push(self.parse_stmt());
            if self.pos == before {
                let t = self.bump();
                stmts.push(Stmt::Raw(t.span));
            }
        }
        self.eat_punct(Punct::RBrace);
        Block { stmts, span: self.span_from(start) }
    }

    fn parse_stmt(&mut self) -> Stmt {
        let t = self.peek();
        match t.kind {
            TokenKind::Punct(Punct::LBrace) => Stmt::Block(self.parse_block()),
            TokenKind::Keyword(Kw::Delete) => self.parse_delete_stmt(),
            TokenKind::Keyword(Kw::Return) => {
                let start = t.span.start;
                self.bump();
                if self.eat_punct(Punct::Semi).is_some() {
                    return Stmt::Return(None, self.span_from(start));
                }
                let e = self.parse_expr_until_semi();
                self.eat_punct(Punct::Semi);
                Stmt::Return(Some(e), self.span_from(start))
            }
            TokenKind::Keyword(Kw::If) => self.parse_if_stmt(),
            TokenKind::Keyword(Kw::While) => {
                let start = t.span.start;
                self.bump();
                let header = if self.at_punct(Punct::LParen) {
                    self.skip_balanced(Punct::LParen, Punct::RParen)
                } else {
                    Span::at(self.peek().span.start)
                };
                let body = Box::new(self.parse_stmt());
                Stmt::While(LoopStmt { header, body, span: self.span_from(start) })
            }
            TokenKind::Keyword(Kw::For) => {
                let start = t.span.start;
                self.bump();
                let header = if self.at_punct(Punct::LParen) {
                    self.skip_balanced(Punct::LParen, Punct::RParen)
                } else {
                    Span::at(self.peek().span.start)
                };
                let body = Box::new(self.parse_stmt());
                Stmt::For(LoopStmt { header, body, span: self.span_from(start) })
            }
            TokenKind::Keyword(Kw::Do) => {
                let start = t.span.start;
                self.bump();
                let body = Box::new(self.parse_stmt());
                // `while (...);`
                let mut header = Span::at(self.peek().span.start);
                if self.eat_kw(Kw::While).is_some() && self.at_punct(Punct::LParen) {
                    header = self.skip_balanced(Punct::LParen, Punct::RParen);
                }
                self.eat_punct(Punct::Semi);
                Stmt::DoWhile(LoopStmt { header, body, span: self.span_from(start) })
            }
            TokenKind::Punct(Punct::Semi) => {
                self.bump();
                Stmt::Raw(t.span)
            }
            TokenKind::Keyword(Kw::Switch) => {
                let start = t.span.start;
                self.bump();
                let header = if self.at_punct(Punct::LParen) {
                    self.skip_balanced(Punct::LParen, Punct::RParen)
                } else {
                    Span::at(self.peek().span.start)
                };
                let body = Box::new(self.parse_stmt());
                Stmt::Switch(LoopStmt { header, body, span: self.span_from(start) })
            }
            TokenKind::Keyword(Kw::Case) | TokenKind::Keyword(Kw::Default) => {
                // A case label: raw up to and including the `:`, so the
                // labelled statements themselves parse structured.
                let start = t.span.start;
                while !self.at_eof() && !self.at_punct(Punct::Colon) {
                    self.bump();
                }
                self.eat_punct(Punct::Colon);
                Stmt::Raw(self.span_from(start))
            }
            TokenKind::Keyword(Kw::Break)
            | TokenKind::Keyword(Kw::Continue)
            | TokenKind::Keyword(Kw::Goto)
            | TokenKind::Directive => Stmt::Raw(self.skip_raw_statement_or_directive()),
            _ => self.parse_decl_or_expr_stmt(),
        }
    }

    fn parse_delete_stmt(&mut self) -> Stmt {
        let start = self.peek().span.start;
        let save = self.pos;
        self.bump(); // delete
        let is_array = if self.at_punct(Punct::LBracket) {
            // `delete [] x`
            self.bump();
            if self.eat_punct(Punct::RBracket).is_none() {
                self.pos = save;
                return Stmt::Raw(self.skip_raw_statement());
            }
            true
        } else {
            false
        };
        let target = self.parse_expr_until_semi();
        if self.eat_punct(Punct::Semi).is_none() {
            self.pos = save;
            return Stmt::Raw(self.skip_raw_statement());
        }
        Stmt::Delete(DeleteStmt { is_array, target, span: self.span_from(start) })
    }

    fn parse_if_stmt(&mut self) -> Stmt {
        let start = self.peek().span.start;
        self.bump(); // if
        let cond = if self.at_punct(Punct::LParen) {
            self.skip_balanced(Punct::LParen, Punct::RParen)
        } else {
            Span::at(self.peek().span.start)
        };
        let then_branch = Box::new(self.parse_stmt());
        let else_branch =
            if self.eat_kw(Kw::Else).is_some() { Some(Box::new(self.parse_stmt())) } else { None };
        Stmt::If(IfStmt { cond, then_branch, else_branch, span: self.span_from(start) })
    }

    /// Try local declaration (`T* x = init;`), else expression statement.
    fn parse_decl_or_expr_stmt(&mut self) -> Stmt {
        let start = self.peek().span.start;
        let save = self.pos;

        // Attempt a local declaration.
        if matches!(self.peek().kind, TokenKind::Ident | TokenKind::Keyword(_)) {
            if let Some(decl) = self.try_parse_local_decl(start) {
                return decl;
            }
            self.pos = save;
        }

        // Expression statement.
        let e = self.parse_expr_until_semi();
        if self.eat_punct(Punct::Semi).is_some() {
            let span = self.span_from(start);
            Stmt::Expr(e, span)
        } else {
            self.pos = save;
            Stmt::Raw(self.skip_raw_statement())
        }
    }

    fn try_parse_local_decl(&mut self, start: u32) -> Option<Stmt> {
        // const? type-core *|& ident (= expr)? ;
        if self.at_kw(Kw::Return) || self.at_kw(Kw::Delete) || self.at_kw(Kw::New) {
            return None;
        }
        let mut ty = self.parse_type_core()?;
        while self.at_punct(Punct::Star) {
            ty.pointers += 1;
            self.bump();
        }
        if self.eat_punct(Punct::Amp).is_some() {
            ty.is_ref = true;
        }
        if self.peek().kind != TokenKind::Ident {
            return None;
        }
        let name_tok = self.bump();
        let name = self.text(name_tok).to_string();
        // `x = ...` with a known type name would have pointers/ident; a bare
        // `ident ident` is a decl; `ident =` (single ident) is an
        // assignment, not a decl — the type parse above consumed one ident,
        // so reaching here with `=` next means `Type name = init`.
        let init = if self.eat_punct(Punct::Eq).is_some() {
            Some(self.parse_expr_until_semi())
        } else if self.at_punct(Punct::LParen) {
            // `Type name(args);` direct initialization — keep args raw.
            let sp = self.skip_balanced(Punct::LParen, Punct::RParen);
            Some(Expr::Raw(sp))
        } else if self.at_punct(Punct::LBracket) {
            // Local array `char buf[128];`
            self.skip_balanced(Punct::LBracket, Punct::RBracket);
            None
        } else {
            None
        };
        self.eat_punct(Punct::Semi)?;
        Some(Stmt::Decl(LocalDecl { ty, name, init, span: self.span_from(start) }))
    }

    // ----- expressions --------------------------------------------------------

    /// Parse an expression that extends at most to the next `;` at depth 0.
    /// Recognized shapes: `new ...`, `path`, `path(args)`, `path = expr`,
    /// integer literals. Anything else: raw to (not including) the `;`.
    fn parse_expr_until_semi(&mut self) -> Expr {
        let start = self.peek().span.start;
        let save = self.pos;

        let lhs = self.parse_primary_expr();
        match lhs {
            Some(e) => {
                if self.at_punct(Punct::Eq) {
                    self.bump();
                    let rhs = self.parse_expr_until_semi();
                    let span = Span::new(start, rhs.span().end);
                    return Expr::Assign(AssignExpr { lhs: Box::new(e), rhs: Box::new(rhs), span });
                }
                if self.at_punct(Punct::Semi) || self.at_punct(Punct::RParen) {
                    return e;
                }
                // Leftover tokens (e.g. `a + b`): degrade to raw.
                self.pos = save;
                Expr::Raw(self.raw_to_semi())
            }
            None => {
                self.pos = save;
                Expr::Raw(self.raw_to_semi())
            }
        }
    }

    /// Consume tokens (balancing groups) up to but NOT including the next
    /// `;` at depth 0 or `}`.
    fn raw_to_semi(&mut self) -> Span {
        let start = self.peek().span.start;
        while !self.at_eof() {
            match self.peek().kind {
                TokenKind::Punct(Punct::Semi) | TokenKind::Punct(Punct::RBrace) => break,
                TokenKind::Punct(Punct::LParen) => {
                    self.skip_balanced(Punct::LParen, Punct::RParen);
                }
                TokenKind::Punct(Punct::LBracket) => {
                    self.skip_balanced(Punct::LBracket, Punct::RBracket);
                }
                TokenKind::Punct(Punct::LBrace) => {
                    self.skip_balanced(Punct::LBrace, Punct::RBrace);
                }
                _ => {
                    self.bump();
                }
            }
        }
        self.span_from(start)
    }

    fn parse_primary_expr(&mut self) -> Option<Expr> {
        match self.peek().kind {
            TokenKind::Keyword(Kw::New) => self.parse_new_expr(),
            TokenKind::Keyword(Kw::This) | TokenKind::Ident => self.parse_path_or_call(),
            TokenKind::IntLit => {
                let t = self.bump();
                let v = parse_int(self.file.slice(t.span)).unwrap_or(0);
                Some(Expr::Int(v, t.span))
            }
            TokenKind::Keyword(Kw::Nullptr) => {
                let t = self.bump();
                Some(Expr::Int(0, t.span))
            }
            _ => None,
        }
    }

    fn parse_new_expr(&mut self) -> Option<Expr> {
        let start = self.peek().span.start;
        self.bump(); // new
        let mut placement = None;
        if self.at_punct(Punct::LParen) {
            // `new (place) T` — placement form. (The rare `new (T)` type-in-
            // parens form is not in the subset.)
            let sp = self.skip_balanced(Punct::LParen, Punct::RParen);
            placement = Some(Span::new(sp.start + 1, sp.end - 1));
        }
        let mut ty = self.parse_type_core()?;
        while self.at_punct(Punct::Star) {
            ty.pointers += 1;
            self.bump();
        }
        let mut ctor_args = None;
        let mut array_len = None;
        if self.at_punct(Punct::LBracket) {
            let sp = self.skip_balanced(Punct::LBracket, Punct::RBracket);
            array_len = Some(Span::new(sp.start + 1, sp.end - 1));
        } else if self.at_punct(Punct::LParen) {
            let sp = self.skip_balanced(Punct::LParen, Punct::RParen);
            ctor_args = Some(Span::new(sp.start + 1, sp.end - 1));
        }
        Some(Expr::New(NewExpr {
            placement,
            ty,
            ctor_args,
            array_len,
            span: self.span_from(start),
        }))
    }

    fn parse_path_or_call(&mut self) -> Option<Expr> {
        let start = self.peek().span.start;
        let mut this_prefix = false;
        if self.at_kw(Kw::This) {
            self.bump();
            self.eat_punct(Punct::Arrow)?;
            this_prefix = true;
        }
        let mut segments = Vec::new();
        loop {
            if self.peek().kind != TokenKind::Ident {
                return None;
            }
            let t = self.bump();
            segments.push(self.text(t).to_string());
            match self.peek().kind {
                TokenKind::Punct(Punct::Dot) | TokenKind::Punct(Punct::Arrow) => {
                    self.bump();
                }
                _ => break,
            }
        }
        let path = PathExpr { this_prefix, segments, span: self.span_from(start) };
        if self.at_punct(Punct::LParen) {
            let sp = self.skip_balanced(Punct::LParen, Punct::RParen);
            let args = Span::new(sp.start + 1, sp.end - 1);
            let span = self.span_from(start);
            return Some(Expr::Call(CallExpr { callee: path, args, span }));
        }
        Some(Expr::Path(path))
    }
}

impl Parser {
    fn take_pending_fields(&mut self) -> Vec<FieldDecl> {
        std::mem::take(&mut self.pending_fields)
    }
}

/// Parse `#include <...>` / `#include "..."` from a directive line.
fn parse_include(line: &str) -> Option<(String, bool)> {
    let rest = line.trim_start().strip_prefix('#')?.trim_start();
    let rest = rest.strip_prefix("include")?.trim_start();
    if let Some(r) = rest.strip_prefix('<') {
        let end = r.find('>')?;
        return Some((r[..end].to_string(), true));
    }
    if let Some(r) = rest.strip_prefix('"') {
        let end = r.find('"')?;
        return Some((r[..end].to_string(), false));
    }
    None
}

/// Parse a C++ integer literal (decimal/hex/octal, ignoring suffixes).
fn parse_int(s: &str) -> Option<i64> {
    let t = s.trim_end_matches(['u', 'U', 'l', 'L']);
    if let Some(hex) = t.strip_prefix("0x").or_else(|| t.strip_prefix("0X")) {
        return i64::from_str_radix(hex, 16).ok();
    }
    if t.len() > 1 && t.starts_with('0') {
        return i64::from_str_radix(&t[1..], 8).ok();
    }
    t.parse().ok()
}
