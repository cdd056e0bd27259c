//! # saql-lang
//!
//! The **S**tream-based **A**nomaly **Q**uery **L**anguage: lexer, AST,
//! parser, semantic checker and pretty-printer.
//!
//! SAQL uniquely integrates language primitives for the four major families
//! of anomaly models over system monitoring data (Gao et al., ICDE 2020):
//!
//! * **rule-based** — event patterns with attribute constraints and temporal
//!   relationships (`with evt1 -> evt2`);
//! * **time-series** — sliding windows (`#time(10 min)`) and per-group
//!   stateful aggregation with window-history access (`ss[1].avg_amount`);
//! * **invariant-based** — `invariant[N][offline] { ... }` blocks that train
//!   a value over the first N windows and detect later violations;
//! * **outlier-based** — `cluster(points=all(...), distance="ed",
//!   method="DBSCAN(eps,minpts)")` peer grouping with `cluster.outlier`.
//!
//! The original system generated its parser with ANTLR 4; this reproduction
//! uses a hand-written lexer and recursive-descent parser (no build-time
//! codegen, precise spanned errors — the paper's *error reporter* role).
//! Expressions are bounded in depth ([`parser::MAX_EXPR_DEPTH`]), so query
//! text from any client is safe to compile on any thread.
//!
//! Entry points: [`parse`] (text → [`ast::Query`]) and [`check`]
//! (AST → [`semantic::CheckedQuery`], the engine's input), or the one-shot
//! [`compile`]. This crate stops there: name resolution and lowering to
//! register programs are one pass in the engine (`saql_engine::plan`).

pub mod ast;
pub mod corpus;
pub mod error;
pub mod lexer;
pub mod parser;
pub mod pretty;
pub mod semantic;
pub mod token;

pub use ast::Query;
pub use error::{LangError, Span};
pub use semantic::CheckedQuery;

/// Parse SAQL query text into an AST.
pub fn parse(input: &str) -> Result<ast::Query, LangError> {
    let tokens = lexer::lex(input)?;
    parser::Parser::new(tokens).parse_query()
}

/// Run semantic analysis over a parsed query.
pub fn check(query: ast::Query) -> Result<semantic::CheckedQuery, LangError> {
    semantic::check(query)
}

/// Parse and check in one step.
pub fn compile(input: &str) -> Result<semantic::CheckedQuery, LangError> {
    check(parse(input)?)
}

/// One stage of a `|>` pipeline, carved out of chained source text by
/// [`split_stages`]. `source` is standalone SAQL (implicit previous-stage
/// references rewritten to explicit `from query "NAME"` clauses), so a
/// stage recompiles identically from a registry or checkpoint.
#[derive(Debug, Clone, PartialEq)]
pub struct Stage {
    /// Registered query name: the user-facing name for the final stage,
    /// `{name}.s{k}` (1-based) for intermediate ones.
    pub name: String,
    /// Standalone SAQL source for this stage.
    pub source: String,
    /// Upstream query this stage consumes (`None` for base stages reading
    /// raw events), with the `from` clause's span *within `source`*.
    pub input: Option<(String, Span)>,
}

/// Split pipelined SAQL (`stage1 |> stage2 |> ...`) into standalone,
/// individually compilable stages.
///
/// Each stage is parsed on its own; a stage after `|>` that omits
/// `from query NAME` (entirely, or via a bare `from`) is rewritten to name
/// the previous stage explicitly. A single-segment input yields one stage
/// (whose `from query` clause, if any, may reference an already-registered
/// query). Errors carry spans into the *segment* source.
pub fn split_stages(name: &str, source: &str) -> Result<Vec<Stage>, LangError> {
    let tokens = lexer::lex(source)?;
    let mut cuts: Vec<Span> = tokens
        .iter()
        .filter(|t| t.tok == token::Tok::PipeGt)
        .map(|t| t.span)
        .collect();
    cuts.push(Span::new(source.len(), source.len(), 0, 0)); // sentinel end
    let mut segments = Vec::new();
    let mut start = 0usize;
    for cut in &cuts {
        segments.push(source[start..cut.start].to_string());
        start = cut.end;
    }
    let total = segments.len();
    let mut stages = Vec::with_capacity(total);
    for (k, mut seg) in segments.into_iter().enumerate() {
        let stage_name = if k + 1 == total {
            name.to_string()
        } else {
            format!("{name}.s{}", k + 1)
        };
        if seg.trim().is_empty() {
            return Err(LangError::parse(
                format!("pipeline stage {} is empty", k + 1),
                Span::default(),
            ));
        }
        let ast = parse(&seg)?;
        let input = match &ast.from_query {
            Some(f) => match &f.name {
                Some(n) => Some((n.clone(), f.span)),
                None => {
                    if k == 0 {
                        return Err(LangError::parse(
                            "bare `from` in the first pipeline stage: there is no previous stage",
                            f.span,
                        ));
                    }
                    // Rewrite `from` → `from query "<prev>"` in the text so
                    // the stored source is standalone.
                    let prev_name = pipeline_stage_name(name, k - 1, total);
                    let insert_at = f.span.start + "from".len();
                    let injected = format!(" query \"{prev_name}\"");
                    seg.insert_str(insert_at, &injected);
                    let mut span = f.span;
                    span.end += injected.len();
                    Some((prev_name, span))
                }
            },
            None => {
                if k == 0 {
                    None
                } else {
                    let prev_name = pipeline_stage_name(name, k - 1, total);
                    let clause = format!("from query \"{prev_name}\"\n");
                    let span = Span::new(0, clause.len() - 1, 1, 1);
                    seg.insert_str(0, &clause);
                    Some((prev_name, span))
                }
            }
        };
        stages.push(Stage {
            name: stage_name,
            source: seg,
            input,
        });
    }
    Ok(stages)
}

/// Name of pipeline stage `k` (0-based) out of `total` under the pipeline
/// name `name`: intermediate stages are `{name}.s{k+1}`, the final stage is
/// `name` itself.
pub fn pipeline_stage_name(name: &str, k: usize, total: usize) -> String {
    if k + 1 == total {
        name.to_string()
    } else {
        format!("{name}.s{}", k + 1)
    }
}
