//! Recursive-descent parser for SAQL.
//!
//! The grammar is clause-oriented; every clause starts with a distinctive
//! keyword (`with`, `state`, `invariant`, `cluster`, `alert`, `return`) or an
//! entity-type keyword (`proc`, `file`, `ip`) for event patterns. Any other
//! leading identifier is a global constraint (`agentid = "host-1"`).
//!
//! Expression precedence, loosest to tightest:
//! `||` < `&&` < comparisons < `union`/`diff`/`intersect` < `+ -` <
//! `* / %` < unary `- !` < postfix (`[i]`, `.attr`, calls, `|e|`).
//!
//! Expressions are parsed without recursion, on explicit operator and
//! operand stacks, and bounded in depth ([`MAX_EXPR_DEPTH`]): every later
//! pass over the tree (checker, plan lowering, printer, `Drop`) recurses
//! along it, so an unbounded tree could overflow the stack of the thread
//! that registers the query.

use saql_model::{Duration, EntityType, Operation};

use crate::ast::*;
use crate::error::{LangError, Span};
use crate::token::{Tok, Token};

/// The deepest expression the parser accepts. A term is 1 deep; each
/// parenthesis, `|…|`, call argument list and unary operator adds one, and
/// a binary node is one deeper than its deeper operand, so a chain of n
/// terms is n deep. At this depth the whole register path (parse, check,
/// plan lowering, return labels, `Drop`) fits a 2 MiB thread stack in a
/// debug build with room to spare.
pub const MAX_EXPR_DEPTH: usize = 256;

/// Parser over a token stream (see [`crate::parse`] for the entry point).
pub struct Parser {
    tokens: Vec<Token>,
    pos: usize,
}

/// An operator waiting for its right operand, or a bracket waiting for its
/// closing token, on [`Parser::expr`]'s stack.
enum Pending {
    Unary(UnaryOp),
    /// A binary operator and its binding strength.
    Binary(BinOp, u8),
    Paren,
    Card,
    /// A call's `(`, with the arguments parsed so far and their depth.
    Call {
        name: String,
        span: Span,
        args: Vec<Expr>,
        depth: usize,
    },
}

impl Parser {
    pub fn new(tokens: Vec<Token>) -> Self {
        assert!(
            matches!(tokens.last(), Some(Token { tok: Tok::Eof, .. })),
            "token stream must end with Eof"
        );
        Parser { tokens, pos: 0 }
    }

    // ------------------------------------------------------------------
    // Token-stream helpers
    // ------------------------------------------------------------------

    fn peek(&self) -> &Tok {
        &self.tokens[self.pos].tok
    }

    fn peek2(&self) -> &Tok {
        &self.tokens[(self.pos + 1).min(self.tokens.len() - 1)].tok
    }

    fn span(&self) -> Span {
        self.tokens[self.pos].span
    }

    fn prev_span(&self) -> Span {
        self.tokens[self.pos.saturating_sub(1)].span
    }

    fn bump(&mut self) -> Token {
        let t = self.tokens[self.pos].clone();
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        t
    }

    fn eat(&mut self, tok: &Tok) -> bool {
        if self.peek() == tok {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, tok: Tok) -> Result<Span, LangError> {
        if self.peek() == &tok {
            Ok(self.bump().span)
        } else {
            Err(LangError::parse(
                format!(
                    "expected {}, found {}",
                    tok.describe(),
                    self.peek().describe()
                ),
                self.span(),
            ))
        }
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if self.peek().is_kw(kw) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_kw(&mut self, kw: &str) -> Result<Span, LangError> {
        if self.peek().is_kw(kw) {
            Ok(self.bump().span)
        } else {
            Err(LangError::parse(
                format!("expected `{kw}`, found {}", self.peek().describe()),
                self.span(),
            ))
        }
    }

    fn expect_ident(&mut self, what: &str) -> Result<(String, Span), LangError> {
        match self.peek().clone() {
            Tok::Ident(name) => {
                let span = self.bump().span;
                Ok((name, span))
            }
            other => Err(LangError::parse(
                format!("expected {what}, found {}", other.describe()),
                self.span(),
            )),
        }
    }

    fn expect_int(&mut self, what: &str) -> Result<(i64, Span), LangError> {
        match *self.peek() {
            Tok::Int(v) => {
                let span = self.bump().span;
                Ok((v, span))
            }
            ref other => Err(LangError::parse(
                format!("expected {what}, found {}", other.describe()),
                self.span(),
            )),
        }
    }

    fn expect_usize(&mut self, what: &str) -> Result<(usize, Span), LangError> {
        let (v, span) = self.expect_int(what)?;
        if v < 0 {
            return Err(LangError::parse(
                format!("{what} must be non-negative"),
                span,
            ));
        }
        Ok((v as usize, span))
    }

    // ------------------------------------------------------------------
    // Query / clauses
    // ------------------------------------------------------------------

    /// Parse a complete query; fails on the first malformed clause and on
    /// leftover input.
    pub fn parse_query(mut self) -> Result<Query, LangError> {
        let mut q = Query::default();
        loop {
            while self.eat(&Tok::Semi) {}
            match self.peek().clone() {
                Tok::Eof => break,
                Tok::Ident(kw) => {
                    let is_entity = EntityType::from_keyword(&kw).is_some()
                        && matches!(self.peek2(), Tok::Ident(_));
                    if is_entity {
                        q.patterns.push(self.event_pattern()?);
                    } else {
                        match kw.as_str() {
                            "from" => {
                                let f = self.parse_from_clause()?;
                                if q.from_query.replace(f).is_some() {
                                    return Err(LangError::parse(
                                        "duplicate `from` clause",
                                        self.prev_span(),
                                    ));
                                }
                            }
                            "with" => {
                                let t = self.temporal_clause()?;
                                if q.temporal.replace(t).is_some() {
                                    return Err(LangError::parse(
                                        "duplicate `with` clause",
                                        self.prev_span(),
                                    ));
                                }
                            }
                            "state" => q.states.push(self.state_block()?),
                            "invariant" => q.invariants.push(self.invariant_block()?),
                            "cluster" if matches!(self.peek2(), Tok::LParen) => {
                                let c = self.cluster_spec()?;
                                if q.cluster.replace(c).is_some() {
                                    return Err(LangError::parse(
                                        "duplicate `cluster` clause",
                                        self.prev_span(),
                                    ));
                                }
                            }
                            "alert" => {
                                self.bump();
                                let e = self.expr()?;
                                if q.alert.replace(e).is_some() {
                                    return Err(LangError::parse(
                                        "duplicate `alert` clause",
                                        self.prev_span(),
                                    ));
                                }
                            }
                            "return" => {
                                let r = self.return_clause()?;
                                if q.ret.replace(r).is_some() {
                                    return Err(LangError::parse(
                                        "duplicate `return` clause",
                                        self.prev_span(),
                                    ));
                                }
                            }
                            _ => q.globals.push(self.global_constraint()?),
                        }
                    }
                }
                other => {
                    return Err(LangError::parse(
                        format!("expected a query clause, found {}", other.describe()),
                        self.span(),
                    ))
                }
            }
        }
        Ok(q)
    }

    fn global_constraint(&mut self) -> Result<GlobalConstraint, LangError> {
        let (attr, start) = self.expect_ident("attribute name")?;
        let op = self.cmp_op("global constraint")?;
        let value = self.literal_or_bareword()?;
        Ok(GlobalConstraint {
            attr,
            op,
            value,
            span: start.to(self.prev_span()),
        })
    }

    fn cmp_op(&mut self, ctx: &str) -> Result<CmpOp, LangError> {
        let op = match self.peek() {
            Tok::Assign | Tok::EqEq => CmpOp::Eq,
            Tok::NotEq => CmpOp::Ne,
            Tok::Lt => CmpOp::Lt,
            Tok::Le => CmpOp::Le,
            Tok::Gt => CmpOp::Gt,
            Tok::Ge => CmpOp::Ge,
            other => {
                return Err(LangError::parse(
                    format!(
                        "expected comparison operator in {ctx}, found {}",
                        other.describe()
                    ),
                    self.span(),
                ))
            }
        };
        self.bump();
        Ok(op)
    }

    /// A literal, also accepting a bare identifier as a string (the paper
    /// writes `agentid = xxx` with an obfuscated bare host id).
    fn literal_or_bareword(&mut self) -> Result<Literal, LangError> {
        match self.peek().clone() {
            Tok::Int(v) => {
                self.bump();
                Ok(Literal::Int(v))
            }
            Tok::Float(v) => {
                self.bump();
                Ok(Literal::Float(v))
            }
            Tok::Str(s) => {
                self.bump();
                Ok(Literal::Str(s))
            }
            Tok::Ident(s) if s == "true" => {
                self.bump();
                Ok(Literal::Bool(true))
            }
            Tok::Ident(s) if s == "false" => {
                self.bump();
                Ok(Literal::Bool(false))
            }
            Tok::Ident(s) => {
                self.bump();
                Ok(Literal::Str(s))
            }
            other => Err(LangError::parse(
                format!("expected literal value, found {}", other.describe()),
                self.span(),
            )),
        }
    }

    // ------------------------------------------------------------------
    // Event patterns
    // ------------------------------------------------------------------

    fn event_pattern(&mut self) -> Result<EventPattern, LangError> {
        let start = self.span();
        let subject = self.entity_decl()?;
        let mut ops = vec![self.operation()?];
        while self.eat(&Tok::PipePipe) {
            ops.push(self.operation()?);
        }
        let object = self.entity_decl()?;
        self.expect_kw("as")?;
        let (alias, _) = self.expect_ident("event alias")?;
        let window = if self.peek() == &Tok::Hash {
            Some(self.window_spec()?)
        } else {
            None
        };
        Ok(EventPattern {
            subject,
            ops,
            object,
            alias,
            window,
            span: start.to(self.prev_span()),
        })
    }

    /// `from [query NAME] [#time(...)]` — pipeline input clause. The
    /// upstream name is an identifier or a quoted string (auto-generated
    /// stage names like `tiered.s0` are not identifiers); omitting `query
    /// NAME` is only legal inside a `|>` chain, where the stage splitter
    /// fills in the previous stage's name.
    fn parse_from_clause(&mut self) -> Result<crate::ast::FromClause, LangError> {
        let start = self.span();
        self.bump(); // `from`
        let name = if self.eat_kw("query") {
            match self.peek().clone() {
                Tok::Str(s) => {
                    self.bump();
                    Some(s)
                }
                _ => Some(self.expect_ident("upstream query name")?.0),
            }
        } else {
            None
        };
        let window = if self.peek() == &Tok::Hash {
            Some(self.window_spec()?)
        } else {
            None
        };
        Ok(crate::ast::FromClause {
            name,
            window,
            span: start.to(self.prev_span()),
        })
    }

    fn operation(&mut self) -> Result<Operation, LangError> {
        let (name, span) = self.expect_ident("operation (start/read/write/...)")?;
        Operation::from_keyword(&name)
            .ok_or_else(|| LangError::parse(format!("unknown operation `{name}`"), span))
    }

    fn entity_decl(&mut self) -> Result<EntityDecl, LangError> {
        let (kw, start) = self.expect_ident("entity type (proc/file/ip)")?;
        let etype = EntityType::from_keyword(&kw)
            .ok_or_else(|| LangError::parse(format!("unknown entity type `{kw}`"), start))?;
        let (var, _) = self.expect_ident("entity variable")?;
        let mut constraints = Vec::new();
        if self.eat(&Tok::LBracket) {
            loop {
                constraints.push(self.attr_constraint()?);
                if !self.eat(&Tok::AmpAmp) {
                    break;
                }
            }
            self.expect(Tok::RBracket)?;
        }
        Ok(EntityDecl {
            etype,
            var,
            constraints,
            span: start.to(self.prev_span()),
        })
    }

    fn attr_constraint(&mut self) -> Result<AttrConstraint, LangError> {
        let start = self.span();
        // Default-attribute shorthand: a lone string literal.
        if let Tok::Str(s) = self.peek().clone() {
            self.bump();
            return Ok(AttrConstraint {
                attr: None,
                op: CmpOp::Eq,
                value: Literal::Str(s),
                span: start,
            });
        }
        let (attr, _) = self.expect_ident("attribute name")?;
        let op = self.cmp_op("attribute constraint")?;
        let value = self.literal_or_bareword()?;
        Ok(AttrConstraint {
            attr: Some(attr),
            op,
            value,
            span: start.to(self.prev_span()),
        })
    }

    fn window_spec(&mut self) -> Result<WindowSpec, LangError> {
        self.expect(Tok::Hash)?;
        self.expect_kw("time")?;
        self.expect(Tok::LParen)?;
        let size = self.duration()?;
        let slide = if self.eat(&Tok::Comma) {
            self.duration()?
        } else {
            size
        };
        self.expect(Tok::RParen)?;
        if slide > size {
            return Err(LangError::parse(
                "window slide must not exceed window size",
                self.prev_span(),
            ));
        }
        Ok(WindowSpec { size, slide })
    }

    fn duration(&mut self) -> Result<Duration, LangError> {
        let (value, vspan) = self.expect_int("duration value")?;
        if value <= 0 {
            return Err(LangError::parse("duration must be positive", vspan));
        }
        let (unit, uspan) = self.expect_ident("duration unit (ms/s/min/h/day)")?;
        Duration::parse(value as u64, &unit)
            .ok_or_else(|| LangError::parse(format!("unknown duration unit `{unit}`"), uspan))
    }

    // ------------------------------------------------------------------
    // Temporal clause
    // ------------------------------------------------------------------

    fn temporal_clause(&mut self) -> Result<TemporalClause, LangError> {
        let start = self.expect_kw("with")?;
        let mut steps = Vec::new();
        let (first, fspan) = self.expect_ident("event alias")?;
        steps.push(TemporalStep {
            alias: first,
            max_gap: None,
            span: fspan,
        });
        while self.eat(&Tok::Arrow) {
            // Optional bounded gap: `->[30 s]`.
            let max_gap = if self.eat(&Tok::LBracket) {
                let d = self.duration()?;
                self.expect(Tok::RBracket)?;
                Some(d)
            } else {
                None
            };
            steps.last_mut().expect("non-empty").max_gap = max_gap;
            let (alias, aspan) = self.expect_ident("event alias")?;
            steps.push(TemporalStep {
                alias,
                max_gap: None,
                span: aspan,
            });
        }
        if steps.len() < 2 {
            return Err(LangError::parse(
                "temporal clause needs at least two events (`with e1 -> e2`)",
                start,
            ));
        }
        Ok(TemporalClause {
            steps,
            span: start.to(self.prev_span()),
        })
    }

    // ------------------------------------------------------------------
    // State block
    // ------------------------------------------------------------------

    fn state_block(&mut self) -> Result<StateBlock, LangError> {
        let start = self.expect_kw("state")?;
        let history = if self.eat(&Tok::LBracket) {
            let (h, hspan) = self.expect_usize("state history length")?;
            self.expect(Tok::RBracket)?;
            if h == 0 {
                return Err(LangError::parse("state history must be at least 1", hspan));
            }
            h
        } else {
            1
        };
        let (name, _) = self.expect_ident("state name")?;
        self.expect(Tok::LBrace)?;
        let mut fields = Vec::new();
        while self.peek() != &Tok::RBrace {
            fields.push(self.state_field()?);
            self.eat(&Tok::Semi);
        }
        self.expect(Tok::RBrace)?;
        let mut group_by = Vec::new();
        if self.eat_kw("group") {
            self.expect_kw("by")?;
            loop {
                group_by.push(self.group_key()?);
                if !self.eat(&Tok::Comma) {
                    break;
                }
            }
        }
        if fields.is_empty() {
            return Err(LangError::parse("state block has no fields", start));
        }
        Ok(StateBlock {
            history,
            name,
            fields,
            group_by,
            span: start.to(self.prev_span()),
        })
    }

    fn state_field(&mut self) -> Result<StateField, LangError> {
        let (name, start) = self.expect_ident("state field name")?;
        self.expect(Tok::Walrus)?;
        let (func, fspan) = self.expect_ident("aggregation function")?;
        self.expect(Tok::LParen)?;
        // `percentile(expr, q)` carries its rank as a second argument.
        if func == "percentile" || func == "pct" {
            let arg = self.expr()?;
            self.expect(Tok::Comma)?;
            let (q, qspan) = self.expect_int("percentile rank (0-100)")?;
            if !(0..=100).contains(&q) {
                return Err(LangError::parse(
                    "percentile rank must be in 0..=100",
                    qspan,
                ));
            }
            self.expect(Tok::RParen)?;
            return Ok(StateField {
                name,
                agg: AggFunc::Percentile(q as u8),
                arg,
                span: start.to(self.prev_span()),
            });
        }
        let agg = AggFunc::from_name(&func).ok_or_else(|| {
            LangError::parse(format!("unknown aggregation function `{func}`"), fspan)
        })?;
        // `count()` needs no argument; every value contributes 1.
        let arg = if agg == AggFunc::Count && self.peek() == &Tok::RParen {
            Expr::Lit(Literal::Int(1))
        } else {
            self.expr()?
        };
        self.expect(Tok::RParen)?;
        Ok(StateField {
            name,
            agg,
            arg,
            span: start.to(self.prev_span()),
        })
    }

    fn group_key(&mut self) -> Result<GroupKey, LangError> {
        let (var, start) = self.expect_ident("group-by key")?;
        let attr = if self.eat(&Tok::Dot) {
            Some(self.expect_ident("attribute name")?.0)
        } else {
            None
        };
        Ok(GroupKey {
            var,
            attr,
            span: start.to(self.prev_span()),
        })
    }

    // ------------------------------------------------------------------
    // Invariant block
    // ------------------------------------------------------------------

    fn invariant_block(&mut self) -> Result<InvariantBlock, LangError> {
        let start = self.expect_kw("invariant")?;
        self.expect(Tok::LBracket)?;
        let (train_windows, tspan) = self.expect_usize("training window count")?;
        self.expect(Tok::RBracket)?;
        if train_windows == 0 {
            return Err(LangError::parse(
                "invariant needs at least one training window",
                tspan,
            ));
        }
        let mode = if self.eat(&Tok::LBracket) {
            let (m, mspan) = self.expect_ident("invariant mode (offline/online)")?;
            let mode = match m.as_str() {
                "offline" => InvariantMode::Offline,
                "online" => InvariantMode::Online,
                _ => {
                    return Err(LangError::parse(
                        format!("unknown invariant mode `{m}` (expected offline/online)"),
                        mspan,
                    ))
                }
            };
            self.expect(Tok::RBracket)?;
            mode
        } else {
            InvariantMode::Offline
        };
        self.expect(Tok::LBrace)?;
        let mut stmts = Vec::new();
        while self.peek() != &Tok::RBrace {
            stmts.push(self.invariant_stmt()?);
            self.eat(&Tok::Semi);
        }
        self.expect(Tok::RBrace)?;
        if stmts.is_empty() {
            return Err(LangError::parse("invariant block has no statements", start));
        }
        Ok(InvariantBlock {
            train_windows,
            mode,
            stmts,
            span: start.to(self.prev_span()),
        })
    }

    fn invariant_stmt(&mut self) -> Result<InvariantStmt, LangError> {
        let (var, start) = self.expect_ident("invariant variable")?;
        let init = match self.peek() {
            Tok::Walrus => true,
            Tok::Assign => false,
            other => {
                return Err(LangError::parse(
                    format!(
                        "expected `:=` (init) or `=` (update), found {}",
                        other.describe()
                    ),
                    self.span(),
                ))
            }
        };
        self.bump();
        let expr = self.expr()?;
        Ok(InvariantStmt {
            var,
            init,
            expr,
            span: start.to(self.prev_span()),
        })
    }

    // ------------------------------------------------------------------
    // Cluster spec
    // ------------------------------------------------------------------

    fn cluster_spec(&mut self) -> Result<ClusterSpec, LangError> {
        let start = self.expect_kw("cluster")?;
        self.expect(Tok::LParen)?;
        self.expect_kw("points")?;
        self.expect(Tok::Assign)?;
        self.expect_kw("all")?;
        self.expect(Tok::LParen)?;
        let mut points = vec![self.expr()?];
        while self.eat(&Tok::Comma) {
            points.push(self.expr()?);
        }
        self.expect(Tok::RParen)?;
        let mut distance = None;
        let mut method = None;
        while self.eat(&Tok::Comma) {
            let (key, kspan) = self.expect_ident("cluster parameter")?;
            self.expect(Tok::Assign)?;
            let (value, vspan) = match self.peek().clone() {
                Tok::Str(s) => {
                    let sp = self.bump().span;
                    (s, sp)
                }
                other => {
                    return Err(LangError::parse(
                        format!("expected string value, found {}", other.describe()),
                        self.span(),
                    ))
                }
            };
            match key.as_str() {
                "distance" => {
                    distance = Some(match value.as_str() {
                        "ed" | "euclidean" => Distance::Euclidean,
                        "md" | "manhattan" => Distance::Manhattan,
                        _ => {
                            return Err(LangError::parse(
                                format!("unknown distance `{value}` (expected \"ed\" or \"md\")"),
                                vspan,
                            ))
                        }
                    })
                }
                "method" => method = Some(parse_method(&value, vspan)?),
                _ => {
                    return Err(LangError::parse(
                        format!("unknown cluster parameter `{key}`"),
                        kspan,
                    ))
                }
            }
        }
        let rspan = self.expect(Tok::RParen)?;
        let method = method
            .ok_or_else(|| LangError::parse("cluster spec is missing `method=...`", rspan))?;
        Ok(ClusterSpec {
            points,
            distance: distance.unwrap_or(Distance::Euclidean),
            method,
            span: start.to(self.prev_span()),
        })
    }

    // ------------------------------------------------------------------
    // Return clause
    // ------------------------------------------------------------------

    fn return_clause(&mut self) -> Result<ReturnClause, LangError> {
        let start = self.expect_kw("return")?;
        let distinct = self.eat_kw("distinct");
        let mut items = Vec::new();
        loop {
            let ispan = self.span();
            let expr = self.expr()?;
            let alias = if self.eat_kw("as") {
                Some(self.expect_ident("return alias")?.0)
            } else {
                None
            };
            items.push(ReturnItem {
                expr,
                alias,
                span: ispan.to(self.prev_span()),
            });
            if !self.eat(&Tok::Comma) {
                break;
            }
        }
        Ok(ReturnClause {
            distinct,
            items,
            span: start.to(self.prev_span()),
        })
    }

    // ------------------------------------------------------------------
    // Expressions
    // ------------------------------------------------------------------

    /// Parse an expression (public so alert conditions can be parsed alone).
    ///
    /// Precedence climbing on explicit stacks: operands wait on `vals`
    /// with their depths, operators and open brackets on `ops`, so query
    /// text of any depth costs the parser no stack. Every entry of `ops`
    /// is one more level above the operand to come, so `ops` is refused
    /// past the limit as it grows, before the text ends.
    pub fn expr(&mut self) -> Result<Expr, LangError> {
        let (mut vals, mut ops) = (Vec::new(), Vec::new());
        loop {
            // An operand: prefix operators and opening brackets wait on
            // `ops` until a leaf completes it.
            if let Some(pending) = self.opening() {
                self.push(&mut ops, pending)?;
                continue;
            }
            vals.push((self.leaf()?, 1));
            if self.after_operand(&mut vals, &mut ops)? {
                return Ok(vals.pop().expect("one operand left").0);
            }
        }
    }

    fn push(&self, ops: &mut Vec<Pending>, pending: Pending) -> Result<(), LangError> {
        self.over(ops.len() + 1)?;
        ops.push(pending);
        Ok(())
    }

    /// The prefix operator or opening bracket at the cursor, consumed.
    fn opening(&mut self) -> Option<Pending> {
        let start = self.span();
        let pending = match self.peek() {
            Tok::Minus => Pending::Unary(UnaryOp::Neg),
            Tok::Bang => Pending::Unary(UnaryOp::Not),
            Tok::LParen => Pending::Paren,
            Tok::Pipe => Pending::Card,
            // A call with arguments; `f()` is a leaf.
            Tok::Ident(name)
                if self.peek2() == &Tok::LParen
                    && self.tokens.get(self.pos + 2).map(|t| &t.tok) != Some(&Tok::RParen)
                    && !matches!(name.as_str(), "true" | "false" | "empty_set") =>
            {
                let name = name.clone();
                self.bump();
                Pending::Call {
                    name,
                    span: start,
                    args: Vec::new(),
                    depth: 1,
                }
            }
            _ => return None,
        };
        self.bump();
        Some(pending)
    }

    /// After an operand: apply its prefix operators, then either take a
    /// binary operator (`false`: an operand follows) or close brackets
    /// until one does. `true` when the expression ended, its value alone
    /// on `vals`.
    fn after_operand(
        &mut self,
        vals: &mut Vec<(Expr, usize)>,
        ops: &mut Vec<Pending>,
    ) -> Result<bool, LangError> {
        loop {
            while let Some(Pending::Unary(op)) = ops.last() {
                let (expr, depth) = vals.pop().expect("unary operand");
                let (op, expr) = (*op, Box::new(expr));
                ops.pop();
                vals.push((Expr::Unary { op, expr }, self.over(depth)?));
            }
            if let Some((op, prec)) = self.binary_op() {
                // Left-associative; a comparison takes no second comparison
                // at its level, which ends the expression there.
                let cmp = matches!(op, BinOp::Cmp(_));
                let ends = loop {
                    match ops.last() {
                        Some(&Pending::Binary(_, p)) if p > prec || (p == prec && !cmp) => {
                            self.reduce(vals, ops)?
                        }
                        Some(Pending::Binary(BinOp::Cmp(_), _)) if cmp => break true,
                        _ => break false,
                    }
                };
                if !ends {
                    self.bump();
                    self.push(ops, Pending::Binary(op, prec))?;
                    return Ok(false);
                }
            }
            // The expression ends here at this nesting level: close it.
            while let Some(Pending::Binary(..)) = ops.last() {
                self.reduce(vals, ops)?;
            }
            let Some(bracket) = ops.pop() else {
                return Ok(true);
            };
            let (expr, depth) = vals.pop().expect("bracketed operand");
            let depth = self.over(depth)?;
            let closed = match bracket {
                Pending::Paren => {
                    self.expect(Tok::RParen)?;
                    expr
                }
                Pending::Card => {
                    self.expect(Tok::Pipe)?;
                    Expr::Card(Box::new(expr))
                }
                Pending::Call {
                    name,
                    span,
                    mut args,
                    depth: deepest,
                } => {
                    args.push(expr);
                    let depth = deepest.max(depth);
                    if self.eat(&Tok::Comma) {
                        ops.push(Pending::Call {
                            name,
                            span,
                            args,
                            depth,
                        });
                        return Ok(false);
                    }
                    self.expect(Tok::RParen)?;
                    let span = span.to(self.prev_span());
                    Expr::Call { name, args, span }
                }
                Pending::Unary(_) | Pending::Binary(..) => unreachable!("reduced above"),
            };
            vals.push((closed, depth));
        }
    }

    /// Apply the binary operator on top of `ops` to the top two operands.
    fn reduce(
        &self,
        vals: &mut Vec<(Expr, usize)>,
        ops: &mut Vec<Pending>,
    ) -> Result<(), LangError> {
        let Some(Pending::Binary(op, _)) = ops.pop() else {
            unreachable!("a binary operator is on top")
        };
        let (rhs, dr) = vals.pop().expect("right operand");
        let (lhs, dl) = vals.pop().expect("left operand");
        let depth = self.over(dl.max(dr))?;
        let (lhs, rhs) = (Box::new(lhs), Box::new(rhs));
        vals.push((Expr::Binary { op, lhs, rhs }, depth));
        Ok(())
    }

    /// `depth + 1`, refused past [`MAX_EXPR_DEPTH`].
    fn over(&self, depth: usize) -> Result<usize, LangError> {
        if depth >= MAX_EXPR_DEPTH {
            return Err(LangError::parse(
                format!("expression nested too deep (the limit is {MAX_EXPR_DEPTH} levels)"),
                self.prev_span(),
            ));
        }
        Ok(depth + 1)
    }

    /// The binary operator at the cursor and its binding strength
    /// ([`BinOp::precedence`]).
    fn binary_op(&self) -> Option<(BinOp, u8)> {
        let op = match self.peek() {
            Tok::PipePipe => BinOp::Or,
            Tok::AmpAmp => BinOp::And,
            Tok::EqEq | Tok::Assign => BinOp::Cmp(CmpOp::Eq),
            Tok::NotEq => BinOp::Cmp(CmpOp::Ne),
            Tok::Lt => BinOp::Cmp(CmpOp::Lt),
            Tok::Le => BinOp::Cmp(CmpOp::Le),
            Tok::Gt => BinOp::Cmp(CmpOp::Gt),
            Tok::Ge => BinOp::Cmp(CmpOp::Ge),
            Tok::Ident(kw) => match kw.as_str() {
                "union" => BinOp::Union,
                "diff" => BinOp::Diff,
                "intersect" => BinOp::Intersect,
                _ => return None,
            },
            Tok::Plus => BinOp::Add,
            Tok::Minus => BinOp::Sub,
            Tok::Star => BinOp::Mul,
            Tok::Slash => BinOp::Div,
            Tok::Percent => BinOp::Mod,
            _ => return None,
        };
        Some((op, op.precedence()))
    }

    /// A literal, an argument-less call, or a reference (base, optional
    /// `[index]`, optional `.attr`).
    fn leaf(&mut self) -> Result<Expr, LangError> {
        let start = self.span();
        let leaf = match self.bump().tok {
            Tok::Int(v) => Expr::Lit(Literal::Int(v)),
            Tok::Float(v) => Expr::Lit(Literal::Float(v)),
            Tok::Str(s) => Expr::Lit(Literal::Str(s)),
            Tok::Ident(name) => match name.as_str() {
                "true" => Expr::Lit(Literal::Bool(true)),
                "false" => Expr::Lit(Literal::Bool(false)),
                "empty_set" => Expr::EmptySet,
                _ if self.eat(&Tok::LParen) => {
                    self.expect(Tok::RParen)?;
                    let span = start.to(self.prev_span());
                    Expr::Call {
                        name,
                        args: Vec::new(),
                        span,
                    }
                }
                _ => {
                    let index = if self.eat(&Tok::LBracket) {
                        let (i, _) = self.expect_usize("window history index")?;
                        self.expect(Tok::RBracket)?;
                        Some(i)
                    } else {
                        None
                    };
                    let attr = if self.eat(&Tok::Dot) {
                        Some(self.expect_ident("attribute name")?.0)
                    } else {
                        None
                    };
                    let span = start.to(self.prev_span());
                    Expr::Ref(Ref {
                        base: name,
                        index,
                        attr,
                        span,
                    })
                }
            },
            other => {
                return Err(LangError::parse(
                    format!("expected expression, found {}", other.describe()),
                    start,
                ))
            }
        };
        Ok(leaf)
    }
}

/// Parse a clustering-method string such as `DBSCAN(100000, 5)` or
/// `KMEANS(3)`.
fn parse_method(text: &str, span: Span) -> Result<ClusterMethod, LangError> {
    let trimmed = text.trim();
    let (name, rest) = match trimmed.find('(') {
        Some(i) => (&trimmed[..i], &trimmed[i..]),
        None => (trimmed, ""),
    };
    let args: Vec<&str> = rest
        .trim_start_matches('(')
        .trim_end_matches(')')
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .collect();
    let bad = |msg: String| LangError::parse(msg, span);
    match name.to_ascii_uppercase().as_str() {
        "DBSCAN" => {
            if args.len() != 2 {
                return Err(bad(format!(
                    "DBSCAN expects (eps, minpts), got {} args",
                    args.len()
                )));
            }
            let eps: f64 = args[0]
                .parse()
                .map_err(|_| bad(format!("bad DBSCAN eps `{}`", args[0])))?;
            let min_pts: usize = args[1]
                .parse()
                .map_err(|_| bad(format!("bad DBSCAN minpts `{}`", args[1])))?;
            if eps <= 0.0 {
                return Err(bad("DBSCAN eps must be positive".into()));
            }
            Ok(ClusterMethod::Dbscan { eps, min_pts })
        }
        "KMEANS" | "K-MEANS" => {
            if args.len() != 1 {
                return Err(bad(format!("KMEANS expects (k), got {} args", args.len())));
            }
            let k: usize = args[0]
                .parse()
                .map_err(|_| bad(format!("bad KMEANS k `{}`", args[0])))?;
            if k == 0 {
                return Err(bad("KMEANS k must be at least 1".into()));
            }
            Ok(ClusterMethod::KMeans { k })
        }
        "ZSCORE" | "Z-SCORE" => {
            if args.len() != 1 {
                return Err(bad(format!(
                    "ZSCORE expects (threshold), got {} args",
                    args.len()
                )));
            }
            let threshold: f64 = args[0]
                .parse()
                .map_err(|_| bad(format!("bad ZSCORE threshold `{}`", args[0])))?;
            if threshold <= 0.0 {
                return Err(bad("ZSCORE threshold must be positive".into()));
            }
            Ok(ClusterMethod::ZScore { threshold })
        }
        other => Err(bad(format!("unknown clustering method `{other}`"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;

    #[test]
    fn parses_paper_query_1_rule_based() {
        let q = parse(crate::corpus::QUERY1_EXFILTRATION).unwrap();
        assert_eq!(q.globals.len(), 1);
        assert_eq!(q.globals[0].attr, "agentid");
        assert_eq!(q.patterns.len(), 4);
        assert_eq!(q.patterns[0].alias, "evt1");
        assert_eq!(
            q.patterns[0].subject.constraints[0].value,
            Literal::Str("%cmd.exe".into())
        );
        // `read || write` alternation on evt4.
        assert_eq!(q.patterns[3].ops, vec![Operation::Read, Operation::Write]);
        let t = q.temporal.as_ref().unwrap();
        let order: Vec<_> = t.steps.iter().map(|s| s.alias.as_str()).collect();
        assert_eq!(order, vec!["evt1", "evt2", "evt3", "evt4"]);
        let ret = q.ret.as_ref().unwrap();
        assert!(ret.distinct);
        assert_eq!(ret.items.len(), 6);
    }

    #[test]
    fn parses_paper_query_2_time_series() {
        let q = parse(crate::corpus::QUERY2_TIME_SERIES).unwrap();
        let w = q.window().unwrap();
        assert_eq!(w.size, Duration::from_mins(10));
        assert_eq!(w.slide, Duration::from_mins(10));
        let st = &q.states[0];
        assert_eq!(st.history, 3);
        assert_eq!(st.name, "ss");
        assert_eq!(st.fields[0].name, "avg_amount");
        assert_eq!(st.fields[0].agg, AggFunc::Avg);
        assert_eq!(st.group_by.len(), 1);
        assert!(q.alert.is_some());
    }

    #[test]
    fn parses_paper_query_3_invariant() {
        let q = parse(crate::corpus::QUERY3_INVARIANT).unwrap();
        let inv = &q.invariants[0];
        assert_eq!(inv.train_windows, 10);
        assert_eq!(inv.mode, InvariantMode::Offline);
        assert_eq!(inv.stmts.len(), 2);
        assert!(inv.stmts[0].init);
        assert_eq!(inv.stmts[0].expr, Expr::EmptySet);
        assert!(!inv.stmts[1].init);
        // Alert uses set cardinality of a diff.
        match q.alert.as_ref().unwrap() {
            Expr::Binary {
                op: BinOp::Cmp(CmpOp::Gt),
                lhs,
                ..
            } => {
                assert!(matches!(**lhs, Expr::Card(_)));
            }
            other => panic!("unexpected alert shape: {other:?}"),
        }
    }

    #[test]
    fn parses_paper_query_4_outlier() {
        let q = parse(crate::corpus::QUERY4_OUTLIER).unwrap();
        let c = q.cluster.as_ref().unwrap();
        assert_eq!(c.distance, Distance::Euclidean);
        assert_eq!(
            c.method,
            ClusterMethod::Dbscan {
                eps: 100000.0,
                min_pts: 5
            }
        );
        assert_eq!(c.points.len(), 1);
        let st = &q.states[0];
        assert_eq!(st.group_by[0].var, "i");
        assert_eq!(st.group_by[0].attr.as_deref(), Some("dstip"));
    }

    #[test]
    fn window_with_slide() {
        let q = parse("proc p write ip i as e #time(10 min, 2 min)\nreturn p").unwrap();
        let w = q.window().unwrap();
        assert_eq!(w.size, Duration::from_mins(10));
        assert_eq!(w.slide, Duration::from_mins(2));
    }

    #[test]
    fn slide_larger_than_size_rejected() {
        let err = parse("proc p write ip i as e #time(1 min, 2 min)\nreturn p").unwrap_err();
        assert!(err.message.contains("slide"));
    }

    #[test]
    fn bounded_temporal_gap() {
        let q = parse(
            "proc a start proc b as e1\nproc b start proc c as e2\nwith e1 ->[30 s] e2\nreturn a",
        )
        .unwrap();
        let steps = &q.temporal.unwrap().steps;
        assert_eq!(steps[0].max_gap, Some(Duration::from_secs(30)));
        assert_eq!(steps[1].max_gap, None);
    }

    #[test]
    fn multi_constraint_entity() {
        let q = parse(
            r#"proc p read ip i[dstip="10.0.0.1" && dstport=443] as e
return p"#,
        )
        .unwrap();
        let c = &q.patterns[0].object.constraints;
        assert_eq!(c.len(), 2);
        assert_eq!(c[0].attr.as_deref(), Some("dstip"));
        assert_eq!(c[1].attr.as_deref(), Some("dstport"));
        assert_eq!(c[1].value, Literal::Int(443));
    }

    #[test]
    fn count_without_argument() {
        let q = parse("proc p start proc c as e #time(10 s)\nstate ss { n := count() } group by p\nalert ss.n > 5\nreturn p")
            .unwrap();
        assert_eq!(q.states[0].fields[0].agg, AggFunc::Count);
    }

    #[test]
    fn expression_precedence() {
        let q = parse("alert a + b * c > d && e").unwrap();
        // Shape: ((a + (b*c)) > d) && e
        match q.alert.unwrap() {
            Expr::Binary {
                op: BinOp::And,
                lhs,
                ..
            } => match *lhs {
                Expr::Binary {
                    op: BinOp::Cmp(CmpOp::Gt),
                    lhs,
                    ..
                } => match *lhs {
                    Expr::Binary {
                        op: BinOp::Add,
                        rhs,
                        ..
                    } => {
                        assert!(matches!(*rhs, Expr::Binary { op: BinOp::Mul, .. }));
                    }
                    o => panic!("bad add shape: {o:?}"),
                },
                o => panic!("bad cmp shape: {o:?}"),
            },
            o => panic!("bad and shape: {o:?}"),
        }
    }

    #[test]
    fn set_ops_bind_tighter_than_comparison() {
        let q = parse("alert |a diff b| >= 1").unwrap();
        match q.alert.unwrap() {
            Expr::Binary {
                op: BinOp::Cmp(CmpOp::Ge),
                lhs,
                ..
            } => match *lhs {
                Expr::Card(inner) => {
                    assert!(matches!(
                        *inner,
                        Expr::Binary {
                            op: BinOp::Diff,
                            ..
                        }
                    ))
                }
                o => panic!("bad card: {o:?}"),
            },
            o => panic!("bad shape: {o:?}"),
        }
    }

    #[test]
    fn duplicate_alert_rejected() {
        let err = parse("alert x > 1\nalert y > 2").unwrap_err();
        assert!(err.message.contains("duplicate `alert`"));
    }

    #[test]
    fn missing_as_alias_reports_span() {
        let err = parse("proc p start proc q evt1").unwrap_err();
        assert!(err.message.contains("expected `as`"), "{err}");
        assert_eq!(err.span.line, 1);
    }

    #[test]
    fn unknown_operation_rejected() {
        let err = parse("proc p teleport proc q as e\nreturn p").unwrap_err();
        assert!(err.message.contains("unknown operation `teleport`"));
    }

    #[test]
    fn unknown_method_rejected() {
        let err = parse(
            r#"proc p write ip i as e #time(1 min)
state ss { amt := sum(evt.amount) } group by i.dstip
cluster(points=all(ss.amt), method="OPTICS(3)")
alert cluster.outlier
return i.dstip"#,
        )
        .unwrap_err();
        assert!(err.message.contains("unknown clustering method"));
    }

    #[test]
    fn cluster_requires_method() {
        let err = parse(
            r#"proc p write ip i as e #time(1 min)
state ss { amt := sum(evt.amount) } group by i.dstip
cluster(points=all(ss.amt), distance="ed")
alert cluster.outlier
return i.dstip"#,
        )
        .unwrap_err();
        assert!(err.message.contains("missing `method"));
    }

    #[test]
    fn kmeans_method_parses() {
        let m = parse_method("KMEANS(4)", Span::default()).unwrap();
        assert_eq!(m, ClusterMethod::KMeans { k: 4 });
        assert!(parse_method("KMEANS(0)", Span::default()).is_err());
        assert!(parse_method("DBSCAN(5)", Span::default()).is_err());
        assert!(parse_method("DBSCAN(-1, 5)", Span::default()).is_err());
    }

    #[test]
    fn return_aliases() {
        let q = parse("return p1 as proc_name, ss[0].amt").unwrap();
        let r = q.ret.unwrap();
        assert_eq!(r.items[0].alias.as_deref(), Some("proc_name"));
        assert_eq!(r.items[1].alias, None);
        match &r.items[1].expr {
            Expr::Ref(rf) => {
                assert_eq!(rf.base, "ss");
                assert_eq!(rf.index, Some(0));
                assert_eq!(rf.attr.as_deref(), Some("amt"));
            }
            o => panic!("bad ref: {o:?}"),
        }
    }

    #[test]
    fn empty_state_block_rejected() {
        let err = parse("proc p start proc q as e #time(1 s)\nstate ss { } group by p\nreturn p")
            .unwrap_err();
        assert!(err.message.contains("no fields"));
    }

    #[test]
    fn negative_duration_rejected() {
        let err = parse("proc p start proc q as e #time(0 s)\nreturn p").unwrap_err();
        assert!(err.message.contains("positive"));
    }
}
