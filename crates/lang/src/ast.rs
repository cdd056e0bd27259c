//! Abstract syntax tree for SAQL queries.
//!
//! A query is a sequence of clauses in the order the paper presents them:
//! global constraints, event patterns (with an optional window), a temporal
//! clause, state blocks, invariant blocks, a cluster specification, an alert
//! condition, and a return clause. The parser is permissive about clause
//! interleaving; [`crate::semantic`] enforces the structural rules.

use saql_model::{EntityType, Operation};

use crate::error::Span;

/// A literal value in query text.
#[derive(Debug, Clone, PartialEq)]
pub enum Literal {
    Int(i64),
    Float(f64),
    Str(String),
    Bool(bool),
}

impl Literal {
    /// Convert to a runtime attribute value.
    pub fn to_attr(&self) -> saql_model::AttrValue {
        match self {
            Literal::Int(v) => saql_model::AttrValue::Int(*v),
            Literal::Float(v) => saql_model::AttrValue::Float(*v),
            Literal::Str(s) => saql_model::AttrValue::str(s),
            Literal::Bool(b) => saql_model::AttrValue::Bool(*b),
        }
    }
}

/// Comparison operators usable in constraints and expressions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

impl CmpOp {
    pub fn symbol(&self) -> &'static str {
        match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "!=",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        }
    }
}

/// A stream-wide constraint preceding the event patterns, e.g.
/// `agentid = "srv-db-01"`. Applies to every event the query sees.
#[derive(Debug, Clone, PartialEq)]
pub struct GlobalConstraint {
    pub attr: String,
    pub op: CmpOp,
    pub value: Literal,
    pub span: Span,
}

/// One attribute constraint inside an entity declaration's brackets.
///
/// `attr == None` is the *default-attribute* shorthand: `proc p["%cmd.exe"]`
/// constrains `exe_name` (see [`EntityType::default_attr`]). String equality
/// constraints whose value contains `%`/`_` match with SQL-LIKE semantics.
#[derive(Debug, Clone, PartialEq)]
pub struct AttrConstraint {
    pub attr: Option<String>,
    pub op: CmpOp,
    pub value: Literal,
    pub span: Span,
}

/// An entity occurrence in an event pattern: type, variable binding, and
/// optional attribute constraints, e.g. `ip i1[dstip="10.0.0.129"]`.
///
/// Re-using a variable name across patterns expresses an *attribute
/// relationship* (implicit join): all occurrences must bind the same entity.
#[derive(Debug, Clone, PartialEq)]
pub struct EntityDecl {
    pub etype: EntityType,
    pub var: String,
    pub constraints: Vec<AttrConstraint>,
    pub span: Span,
}

/// Sliding-window specification: `#time(10 min)` or `#time(10 min, 1 min)`
/// (size, slide). When `slide == size` the window tumbles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowSpec {
    pub size: saql_model::Duration,
    pub slide: saql_model::Duration,
}

/// An event pattern: `proc p1["%cmd.exe"] start proc p2 as evt1 #time(10 s)`.
///
/// `ops` holds the operation alternation (`read || write` ⇒ two entries).
#[derive(Debug, Clone, PartialEq)]
pub struct EventPattern {
    pub subject: EntityDecl,
    pub ops: Vec<Operation>,
    pub object: EntityDecl,
    pub alias: String,
    pub window: Option<WindowSpec>,
    pub span: Span,
}

/// One hop of a temporal clause: this event alias must be followed by the
/// next one, optionally within a bounded gap (`evt1 ->[30 s] evt2`).
#[derive(Debug, Clone, PartialEq)]
pub struct TemporalStep {
    pub alias: String,
    /// Maximum allowed gap to the *next* alias in the chain; `None` for the
    /// plain unbounded `->` and for the final step.
    pub max_gap: Option<saql_model::Duration>,
    pub span: Span,
}

/// `with evt1 -> evt2 -> evt3` — events must match in this temporal order.
#[derive(Debug, Clone, PartialEq)]
pub struct TemporalClause {
    pub steps: Vec<TemporalStep>,
    pub span: Span,
}

/// Aggregation functions available in state fields.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    Count,
    Sum,
    Avg,
    Min,
    Max,
    Stddev,
    /// Collect distinct values into a set (used by invariant models).
    Set,
    /// Number of distinct values.
    DistinctCount,
    /// Median of the window's values (buffering aggregate).
    Median,
    /// The q-th percentile (0–100) of the window's values (buffering).
    Percentile(u8),
}

impl AggFunc {
    pub fn name(&self) -> &'static str {
        match self {
            AggFunc::Count => "count",
            AggFunc::Sum => "sum",
            AggFunc::Avg => "avg",
            AggFunc::Min => "min",
            AggFunc::Max => "max",
            AggFunc::Stddev => "stddev",
            AggFunc::Set => "set",
            AggFunc::DistinctCount => "distinct_count",
            AggFunc::Median => "median",
            AggFunc::Percentile(_) => "percentile",
        }
    }

    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "count" => Some(AggFunc::Count),
            "sum" => Some(AggFunc::Sum),
            "avg" => Some(AggFunc::Avg),
            "min" => Some(AggFunc::Min),
            "max" => Some(AggFunc::Max),
            "stddev" | "std" => Some(AggFunc::Stddev),
            "set" => Some(AggFunc::Set),
            "distinct_count" | "count_distinct" => Some(AggFunc::DistinctCount),
            "median" => Some(AggFunc::Median),
            // `percentile` needs its q argument; the parser constructs it
            // from `percentile(expr, q)` directly.
            _ => None,
        }
    }
}

/// One computed field of a state block: `avg_amount := avg(evt.amount)`.
#[derive(Debug, Clone, PartialEq)]
pub struct StateField {
    pub name: String,
    pub agg: AggFunc,
    pub arg: Expr,
    pub span: Span,
}

/// A grouping key: a bare variable (`group by p` — groups by the entity's
/// identity) or an attribute path (`group by i.dstip`).
#[derive(Debug, Clone, PartialEq)]
pub struct GroupKey {
    pub var: String,
    pub attr: Option<String>,
    pub span: Span,
}

/// `state[3] ss { ... } group by p` — per-group stateful computation over
/// each sliding window, retaining `history` windows of results
/// (`history = 1` keeps only the current window; `state[3]` keeps `ss[0]`,
/// `ss[1]`, `ss[2]`).
#[derive(Debug, Clone, PartialEq)]
pub struct StateBlock {
    pub history: usize,
    pub name: String,
    pub fields: Vec<StateField>,
    pub group_by: Vec<GroupKey>,
    pub span: Span,
}

/// Invariant training mode. `Offline` freezes the invariant after the
/// training windows; `Online` keeps updating it with every non-alerting
/// window after training.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InvariantMode {
    Offline,
    Online,
}

/// One statement in an invariant block. `:=` initializes (`Init`), `=`
/// updates per training window (`Update`).
#[derive(Debug, Clone, PartialEq)]
pub struct InvariantStmt {
    pub var: String,
    pub init: bool,
    pub expr: Expr,
    pub span: Span,
}

/// `invariant[10][offline] { a := empty_set  a = a union ss.set_proc }`.
#[derive(Debug, Clone, PartialEq)]
pub struct InvariantBlock {
    pub train_windows: usize,
    pub mode: InvariantMode,
    pub stmts: Vec<InvariantStmt>,
    pub span: Span,
}

/// Distance metric for the cluster stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Distance {
    /// `"ed"` — Euclidean.
    Euclidean,
    /// `"md"` — Manhattan.
    Manhattan,
}

/// Clustering method with its parameters, parsed out of the method string
/// (`"DBSCAN(100000, 5)"`, `"KMEANS(3)"`, `"ZSCORE(3.5)"`).
#[derive(Debug, Clone, PartialEq)]
pub enum ClusterMethod {
    Dbscan {
        eps: f64,
        min_pts: usize,
    },
    KMeans {
        k: usize,
    },
    /// Robust modified-z-score outlier test over 1-D points: a point is an
    /// outlier when `0.6745·|x − median| / MAD > threshold`.
    ZScore {
        threshold: f64,
    },
}

/// `cluster(points=all(ss.amt), distance="ed", method="DBSCAN(100000,5)")`.
///
/// Each group's state contributes one point with `points.len()` dimensions.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterSpec {
    pub points: Vec<Expr>,
    pub distance: Distance,
    pub method: ClusterMethod,
    pub span: Span,
}

/// One item of the return clause, with an optional `as` alias.
#[derive(Debug, Clone, PartialEq)]
pub struct ReturnItem {
    pub expr: Expr,
    pub alias: Option<String>,
    pub span: Span,
}

/// `return distinct p1, ss[0].avg_amount`.
#[derive(Debug, Clone, PartialEq)]
pub struct ReturnClause {
    pub distinct: bool,
    pub items: Vec<ReturnItem>,
    pub span: Span,
}

/// Binary operators in expressions, in increasing precedence groups:
/// `||` < `&&` < comparisons < set ops < `+ -` < `* / %`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    Or,
    And,
    Cmp(CmpOp),
    Union,
    Diff,
    Intersect,
    Add,
    Sub,
    Mul,
    Div,
    Mod,
}

impl BinOp {
    pub fn symbol(&self) -> &'static str {
        match self {
            BinOp::Or => "||",
            BinOp::And => "&&",
            BinOp::Cmp(c) => c.symbol(),
            BinOp::Union => "union",
            BinOp::Diff => "diff",
            BinOp::Intersect => "intersect",
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Mod => "%",
        }
    }

    /// Binding strength, loosest (`||`, 1) to tightest (`* / %`, 6): the
    /// parser's precedence table, which the printer follows too.
    pub fn precedence(&self) -> u8 {
        match self {
            BinOp::Or => 1,
            BinOp::And => 2,
            BinOp::Cmp(_) => 3,
            BinOp::Union | BinOp::Diff | BinOp::Intersect => 4,
            BinOp::Add | BinOp::Sub => 5,
            BinOp::Mul | BinOp::Div | BinOp::Mod => 6,
        }
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnaryOp {
    Neg,
    Not,
}

/// A reference to a named thing, possibly with a window-history index and an
/// attribute path: `p1`, `evt.amount`, `ss[1].avg_amount`, `cluster.outlier`.
#[derive(Debug, Clone, PartialEq)]
pub struct Ref {
    pub base: String,
    pub index: Option<usize>,
    pub attr: Option<String>,
    pub span: Span,
}

/// An expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    Lit(Literal),
    /// The empty-set literal used to initialize invariants.
    EmptySet,
    Ref(Ref),
    Unary {
        op: UnaryOp,
        expr: Box<Expr>,
    },
    Binary {
        op: BinOp,
        lhs: Box<Expr>,
        rhs: Box<Expr>,
    },
    /// `|expr|` — set cardinality (or absolute value for numbers).
    Card(Box<Expr>),
    /// A function call; only aggregation functions are accepted by the
    /// semantic pass, and only inside state fields.
    Call {
        name: String,
        args: Vec<Expr>,
        span: Span,
    },
}

impl Expr {
    /// Convenience constructor for references without index/attr.
    pub fn var(name: impl Into<String>) -> Expr {
        Expr::Ref(Ref {
            base: name.into(),
            index: None,
            attr: None,
            span: Span::default(),
        })
    }

    /// Walk the expression tree, applying `f` to every node (pre-order).
    pub fn visit<'a>(&'a self, f: &mut impl FnMut(&'a Expr)) {
        f(self);
        match self {
            Expr::Unary { expr, .. } | Expr::Card(expr) => expr.visit(f),
            Expr::Binary { lhs, rhs, .. } => {
                lhs.visit(f);
                rhs.visit(f);
            }
            Expr::Call { args, .. } => {
                for a in args {
                    a.visit(f);
                }
            }
            Expr::Lit(_) | Expr::EmptySet | Expr::Ref(_) => {}
        }
    }

    /// Collect every [`Ref`] in the expression.
    pub fn refs(&self) -> Vec<&Ref> {
        let mut out = Vec::new();
        self.visit(&mut |e| {
            if let Expr::Ref(r) = e {
                out.push(r);
            }
        });
        out
    }
}

/// A pipeline input clause: `from query NAME #time(30 s)`.
///
/// Declares that this query consumes another query's *alert stream* (as
/// adapted events) instead of raw collector events. Inside a `|>` chain the
/// upstream name may be omitted (`from #time(30 s)` or no clause at all) —
/// the stage splitter fills in the previous stage's name.
#[derive(Debug, Clone, PartialEq)]
pub struct FromClause {
    /// Upstream query name; `None` until the stage splitter resolves the
    /// implicit previous-stage reference of a `|>` chain.
    pub name: Option<String>,
    /// Window applied to the injected `_in` pattern (stateful stages need
    /// one, pure rule stages do not).
    pub window: Option<WindowSpec>,
    pub span: Span,
}

/// A full SAQL query.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Query {
    /// Pipeline input (`from query NAME`): this query reads an upstream
    /// query's alert stream rather than raw events.
    pub from_query: Option<FromClause>,
    pub globals: Vec<GlobalConstraint>,
    pub patterns: Vec<EventPattern>,
    pub temporal: Option<TemporalClause>,
    pub states: Vec<StateBlock>,
    pub invariants: Vec<InvariantBlock>,
    pub cluster: Option<ClusterSpec>,
    pub alert: Option<Expr>,
    pub ret: Option<ReturnClause>,
}

impl Query {
    /// The window spec of the query, if any pattern declares one.
    pub fn window(&self) -> Option<WindowSpec> {
        self.patterns.iter().find_map(|p| p.window)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expr_refs_collects_all() {
        let e = Expr::Binary {
            op: BinOp::And,
            lhs: Box::new(Expr::var("a")),
            rhs: Box::new(Expr::Card(Box::new(Expr::Binary {
                op: BinOp::Diff,
                lhs: Box::new(Expr::var("b")),
                rhs: Box::new(Expr::var("c")),
            }))),
        };
        let names: Vec<_> = e.refs().iter().map(|r| r.base.as_str()).collect();
        assert_eq!(names, vec!["a", "b", "c"]);
    }

    #[test]
    fn agg_func_name_roundtrip() {
        for f in [
            AggFunc::Count,
            AggFunc::Sum,
            AggFunc::Avg,
            AggFunc::Min,
            AggFunc::Max,
            AggFunc::Stddev,
            AggFunc::Set,
            AggFunc::DistinctCount,
        ] {
            assert_eq!(AggFunc::from_name(f.name()), Some(f));
        }
        assert_eq!(AggFunc::from_name("median_of_medians"), None);
    }

    #[test]
    fn query_window_comes_from_any_pattern() {
        let q = Query::default();
        assert!(q.window().is_none());
    }
}
