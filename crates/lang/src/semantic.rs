//! Semantic analysis: turns a parsed [`Query`] into a [`CheckedQuery`] the
//! execution engine can compile, or a spanned semantic error.
//!
//! The checks mirror the structural rules of the SAQL paper:
//!
//! * subjects of event patterns are processes; operations must be legal for
//!   the object's entity type (no `delete` on a connection);
//! * variables are consistently typed across patterns (re-use is a join);
//! * event aliases are unique; the temporal clause references declared
//!   aliases without repetition;
//! * stateful constructs (state/invariant/cluster) require a sliding window,
//!   and at most one window spec may be declared (on any pattern);
//! * window-history indexing `ss[i]` stays below the declared
//!   `state[k]` history length, and at most 65,535 (`ss[65535]`);
//! * invariant blocks initialize variables before updating them and require
//!   a state block to read from;
//! * `cluster(...)` point expressions reference state fields, and
//!   `cluster.outlier` is only meaningful when a cluster stage exists;
//! * return/alert expressions only reference declared names.

use std::collections::{HashMap, HashSet};

use saql_model::EntityType;

use crate::ast::*;
use crate::error::{LangError, Span};

/// The deepest window-history index a query may read (`ss[65535]`): the
/// engine's compiled programs carry the index in 16 bits.
const MAX_HISTORY_INDEX: usize = u16::MAX as usize;

/// Which of the paper's four anomaly-model families a query belongs to.
/// Determines the engine pipeline stages the query needs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QueryKind {
    /// Event patterns + optional temporal clause, no windowed state.
    Rule,
    /// Windowed state + alert over (possibly historical) window states.
    TimeSeries,
    /// Windowed state + invariant training/violation detection.
    Invariant,
    /// Windowed state + cluster stage for peer outlier detection.
    Outlier,
}

impl QueryKind {
    pub fn name(&self) -> &'static str {
        match self {
            QueryKind::Rule => "rule-based",
            QueryKind::TimeSeries => "time-series",
            QueryKind::Invariant => "invariant-based",
            QueryKind::Outlier => "outlier-based",
        }
    }
}

/// A semantically validated query plus the derived facts the engine and the
/// concurrent scheduler need. Names are not resolved here: the engine's plan
/// compiler (`saql_engine::plan::QueryPlan::compile`) resolves and lowers
/// them in one pass over `ast`, which cannot fail on a checked query.
#[derive(Debug, Clone)]
pub struct CheckedQuery {
    pub ast: Query,
    /// The query's (single) window spec, if stateful.
    pub window: Option<WindowSpec>,
    pub kind: QueryKind,
    /// Entity variable → type, across all patterns.
    pub vars: HashMap<String, EntityType>,
    /// Semantic-compatibility key for the master–dependent-query scheduler:
    /// queries with equal keys match the same *shape* of events (entity
    /// types + operations per pattern, and window), so they can share one
    /// copy of the stream via a master query.
    pub compat_key: String,
    /// Pipeline input: the upstream query whose alert stream this stage
    /// consumes (`from query NAME`), with the clause span for error
    /// reporting. `None` for base queries reading raw collector events.
    pub pipeline_input: Option<(String, Span)>,
}

/// Reserved `user` value on the *object* of adapter-synthesized watermark
/// punctuation events. The injected `_in` pattern excludes it, so
/// punctuations advance a downstream stage's clock without ever matching as
/// payload.
pub const PIPELINE_WM_USER: &str = "\u{1}wm";

/// Validate a query (see [`crate::check`]).
pub fn check(mut ast: Query) -> Result<CheckedQuery, LangError> {
    let pipeline_input = inject_pipeline_input(&mut ast)?;
    let mut cx = Checker::default();
    cx.run(&ast)?;
    let kind = classify(&ast);
    let compat_key = compat_key(&ast);
    Ok(CheckedQuery {
        window: ast.window(),
        kind,
        vars: cx.vars,
        compat_key,
        ast,
        pipeline_input,
    })
}

/// Desugar a `from query NAME` clause into the reserved `_in` event
/// pattern: the stage consumes its upstream's *adapted alert events*
/// (subject = the emitting query's process identity, object = the alert's
/// group) exactly as if the user had written
/// `proc _in_src[NAME] alert proc _in_grp as _in #time(...)`.
///
/// Because injection happens at check time, recompiling the stored stage
/// source (checkpoint resume, registry introspection) reproduces the same
/// expanded plan.
fn inject_pipeline_input(ast: &mut Query) -> Result<Option<(String, Span)>, LangError> {
    use saql_model::Operation;
    let Some(from) = ast.from_query.clone() else {
        return Ok(None);
    };
    let Some(name) = from.name.clone() else {
        return Err(LangError::semantic(
            "bare `from` has no upstream query: only `|>` chain stages may omit `query NAME`",
            from.span,
        ));
    };
    if !ast.patterns.is_empty() {
        return Err(LangError::semantic(
            "a `from query` stage reads its upstream's alert stream and \
             declares no event patterns of its own",
            ast.patterns[0].span,
        ));
    }
    ast.patterns.push(EventPattern {
        subject: EntityDecl {
            etype: EntityType::Process,
            var: "_in_src".into(),
            constraints: vec![AttrConstraint {
                attr: None,
                op: CmpOp::Eq,
                value: Literal::Str(name.clone()),
                span: from.span,
            }],
            span: from.span,
        },
        ops: vec![Operation::Alert],
        object: EntityDecl {
            etype: EntityType::Process,
            var: "_in_grp".into(),
            constraints: vec![AttrConstraint {
                attr: Some("user".into()),
                op: CmpOp::Ne,
                value: Literal::Str(PIPELINE_WM_USER.into()),
                span: from.span,
            }],
            span: from.span,
        },
        alias: "_in".into(),
        window: from.window,
        span: from.span,
    });
    Ok(Some((name, from.span)))
}

fn classify(q: &Query) -> QueryKind {
    if q.cluster.is_some() {
        QueryKind::Outlier
    } else if !q.invariants.is_empty() {
        QueryKind::Invariant
    } else if !q.states.is_empty() {
        QueryKind::TimeSeries
    } else {
        QueryKind::Rule
    }
}

/// Compute the shape key used to group semantically compatible queries.
/// Attribute constraints are deliberately excluded: the master query matches
/// the shape, dependents filter by their own constraints.
fn compat_key(q: &Query) -> String {
    use std::fmt::Write;
    let mut key = String::new();
    for p in &q.patterns {
        let mut ops: Vec<&str> = p.ops.iter().map(|o| o.keyword()).collect();
        ops.sort_unstable();
        write!(
            key,
            "{}:{}:{};",
            p.subject.etype.keyword(),
            ops.join("|"),
            p.object.etype.keyword()
        )
        .unwrap();
    }
    if let Some(w) = q.window() {
        write!(key, "#{}ms/{}ms", w.size.as_millis(), w.slide.as_millis()).unwrap();
    }
    // Pipeline stages advance event time only on their own upstream's
    // adapted alerts, so stages of different upstreams are *not*
    // time-compatible: isolate their scheduler groups by upstream name.
    if let Some(n) = q.from_query.as_ref().and_then(|f| f.name.as_ref()) {
        write!(key, "<{n}").unwrap();
    }
    key
}

#[derive(Default)]
struct Checker {
    vars: HashMap<String, EntityType>,
    aliases: Vec<String>,
    state_names: HashMap<String, (usize, HashSet<String>)>, // name -> (history, fields)
    invariant_vars: HashSet<String>,
    has_cluster: bool,
}

impl Checker {
    fn run(&mut self, q: &Query) -> Result<(), LangError> {
        if q.patterns.is_empty() {
            return Err(LangError::semantic(
                "query declares no event patterns",
                Span::default(),
            ));
        }
        self.check_patterns(q)?;
        self.check_window_placement(q)?;
        self.check_temporal(q)?;
        // The engine evaluates alerts per group of *the* state block; the
        // paper's queries use at most one state and one invariant block.
        if q.states.len() > 1 {
            return Err(LangError::semantic(
                "at most one state block per query is supported",
                q.states[1].span,
            ));
        }
        if q.invariants.len() > 1 {
            return Err(LangError::semantic(
                "at most one invariant block per query is supported",
                q.invariants[1].span,
            ));
        }
        for s in &q.states {
            self.check_state(q, s)?;
        }
        for inv in &q.invariants {
            self.check_invariant(q, inv)?;
        }
        if let Some(c) = &q.cluster {
            self.check_cluster(q, c)?;
        }
        if let Some(alert) = &q.alert {
            self.check_expr(alert, ExprCtx::Alert)?;
        }
        if let Some(ret) = &q.ret {
            if ret.items.is_empty() {
                return Err(LangError::semantic("empty return clause", ret.span));
            }
            for item in &ret.items {
                self.check_expr(&item.expr, ExprCtx::Return)?;
            }
        }
        Ok(())
    }

    fn bind_var(&mut self, decl: &EntityDecl) -> Result<(), LangError> {
        match self.vars.get(&decl.var) {
            Some(&t) if t != decl.etype => Err(LangError::semantic(
                format!(
                    "variable `{}` was declared as `{}` but is re-used as `{}`",
                    decl.var,
                    t.keyword(),
                    decl.etype.keyword()
                ),
                decl.span,
            )),
            _ => {
                self.vars.insert(decl.var.clone(), decl.etype);
                Ok(())
            }
        }
    }

    fn check_patterns(&mut self, q: &Query) -> Result<(), LangError> {
        let mut seen_alias = HashSet::new();
        for p in &q.patterns {
            if p.subject.etype != EntityType::Process {
                return Err(LangError::semantic(
                    format!(
                        "event subjects must be processes, found `{}`",
                        p.subject.etype.keyword()
                    ),
                    p.subject.span,
                ));
            }
            self.bind_var(&p.subject)?;
            self.bind_var(&p.object)?;
            for op in &p.ops {
                if !op.valid_for(p.object.etype) {
                    return Err(LangError::semantic(
                        format!(
                            "operation `{}` is invalid for `{}` objects",
                            op.keyword(),
                            p.object.etype.keyword()
                        ),
                        p.span,
                    ));
                }
            }
            if !seen_alias.insert(p.alias.clone()) {
                return Err(LangError::semantic(
                    format!("duplicate event alias `{}`", p.alias),
                    p.span,
                ));
            }
            self.aliases.push(p.alias.clone());
        }
        Ok(())
    }

    fn check_window_placement(&mut self, q: &Query) -> Result<(), LangError> {
        let windows: Vec<(WindowSpec, Span)> = q
            .patterns
            .iter()
            .filter_map(|p| p.window.map(|w| (w, p.span)))
            .collect();
        if windows.len() > 1 && windows.windows(2).any(|w| w[0].0 != w[1].0) {
            return Err(LangError::semantic(
                "patterns declare conflicting window specs",
                windows[1].1,
            ));
        }
        let needs_window = !q.states.is_empty() || !q.invariants.is_empty() || q.cluster.is_some();
        if needs_window && windows.is_empty() {
            return Err(LangError::semantic(
                "stateful queries (state/invariant/cluster) require a sliding window (`#time(...)`)",
                q.patterns[0].span,
            ));
        }
        Ok(())
    }

    fn check_temporal(&mut self, q: &Query) -> Result<(), LangError> {
        let Some(t) = &q.temporal else { return Ok(()) };
        let mut seen = HashSet::new();
        for step in &t.steps {
            if !self.aliases.iter().any(|a| a == &step.alias) {
                return Err(LangError::semantic(
                    format!("temporal clause references unknown event `{}`", step.alias),
                    step.span,
                ));
            }
            if !seen.insert(step.alias.clone()) {
                return Err(LangError::semantic(
                    format!(
                        "event `{}` appears twice in the temporal clause",
                        step.alias
                    ),
                    step.span,
                ));
            }
        }
        Ok(())
    }

    fn check_state(&mut self, q: &Query, s: &StateBlock) -> Result<(), LangError> {
        if self.state_names.contains_key(&s.name) {
            return Err(LangError::semantic(
                format!("duplicate state block name `{}`", s.name),
                s.span,
            ));
        }
        let mut fields = HashSet::new();
        for f in &s.fields {
            if !fields.insert(f.name.clone()) {
                return Err(LangError::semantic(
                    format!("duplicate state field `{}`", f.name),
                    f.span,
                ));
            }
            self.check_expr(&f.arg, ExprCtx::StateField)?;
        }
        for k in &s.group_by {
            let is_alias = self.aliases.iter().any(|a| a == &k.var);
            if !self.vars.contains_key(&k.var) && !is_alias {
                return Err(LangError::semantic(
                    format!("group-by key references unknown variable `{}`", k.var),
                    k.span,
                ));
            }
            // Event aliases have no default attribute: `group by evt` is
            // ambiguous, `group by evt.agentid` is the cross-host idiom.
            if is_alias && k.attr.is_none() {
                return Err(LangError::semantic(
                    format!(
                        "grouping by event `{}` needs an attribute (e.g. `{}.agentid`)",
                        k.var, k.var
                    ),
                    k.span,
                ));
            }
        }
        // Group-by-free state blocks are legal: one global group.
        let _ = q;
        self.state_names.insert(s.name.clone(), (s.history, fields));
        Ok(())
    }

    fn check_invariant(&mut self, q: &Query, inv: &InvariantBlock) -> Result<(), LangError> {
        if q.states.is_empty() {
            return Err(LangError::semantic(
                "invariant blocks require a state block to observe",
                inv.span,
            ));
        }
        let mut defined = HashSet::new();
        for st in &inv.stmts {
            if st.init {
                if !defined.insert(st.var.clone()) {
                    return Err(LangError::semantic(
                        format!("invariant variable `{}` initialized twice", st.var),
                        st.span,
                    ));
                }
            } else if !defined.contains(&st.var) {
                return Err(LangError::semantic(
                    format!(
                        "invariant variable `{}` updated before initialization (use `:=` first)",
                        st.var
                    ),
                    st.span,
                ));
            }
            // Update expressions may reference already-defined invariant
            // vars and state fields.
            self.invariant_vars.extend(defined.iter().cloned());
            self.check_expr(&st.expr, ExprCtx::Invariant)?;
        }
        self.invariant_vars.extend(defined);
        Ok(())
    }

    fn check_cluster(&mut self, q: &Query, c: &ClusterSpec) -> Result<(), LangError> {
        if q.states.is_empty() {
            return Err(LangError::semantic(
                "cluster stage requires a state block providing the points",
                c.span,
            ));
        }
        self.has_cluster = true;
        for p in &c.points {
            self.check_expr(p, ExprCtx::ClusterPoints)?;
            // Points must involve state fields — a constant point set would
            // make every group identical.
            let touches_state = p
                .refs()
                .iter()
                .any(|r| self.state_names.contains_key(&r.base));
            if !touches_state {
                return Err(LangError::semantic(
                    "cluster point expression must reference a state field",
                    c.span,
                ));
            }
        }
        Ok(())
    }

    fn check_expr(&self, e: &Expr, ctx: ExprCtx) -> Result<(), LangError> {
        match e {
            Expr::Lit(_) | Expr::EmptySet => Ok(()),
            Expr::Ref(r) => self.check_ref(r, ctx),
            Expr::Unary { expr, .. } | Expr::Card(expr) => self.check_expr(expr, ctx),
            Expr::Binary { lhs, rhs, .. } => {
                self.check_expr(lhs, ctx)?;
                self.check_expr(rhs, ctx)
            }
            Expr::Call { name, args, span } => {
                if ctx != ExprCtx::StateField {
                    return Err(LangError::semantic(
                        format!("aggregation call `{name}(...)` is only allowed in state fields"),
                        *span,
                    ));
                }
                if AggFunc::from_name(name).is_none() {
                    return Err(LangError::semantic(
                        format!("unknown function `{name}`"),
                        *span,
                    ));
                }
                for a in args {
                    self.check_expr(a, ctx)?;
                }
                Ok(())
            }
        }
    }

    fn check_ref(&self, r: &Ref, ctx: ExprCtx) -> Result<(), LangError> {
        // `cluster.outlier` / `cluster.cluster_id` pseudo-reference.
        if r.base == "cluster" {
            if !self.has_cluster {
                return Err(LangError::semantic(
                    "`cluster.*` referenced but the query has no cluster stage",
                    r.span,
                ));
            }
            match r.attr.as_deref() {
                Some("outlier") | Some("cluster_id") | Some("size") => return Ok(()),
                other => {
                    return Err(LangError::semantic(
                        format!(
                            "unknown cluster attribute `{}` (expected outlier/cluster_id/size)",
                            other.unwrap_or("<none>")
                        ),
                        r.span,
                    ))
                }
            }
        }
        // State reference `ss[i].field` / `ss.field` / bare `ss` (set states).
        if let Some((history, fields)) = self.state_names.get(&r.base) {
            if let Some(i) = r.index {
                if i > MAX_HISTORY_INDEX {
                    let most = MAX_HISTORY_INDEX;
                    let msg = format!("window history index {i} out of range: at most {most}");
                    return Err(LangError::semantic(msg, r.span));
                }
                if i >= *history {
                    return Err(LangError::semantic(
                        format!(
                            "window history index {} out of range: `{}` retains {} window(s) (declare `state[{}]`)",
                            i, r.base, history, i + 1
                        ),
                        r.span,
                    ));
                }
            }
            if let Some(attr) = &r.attr {
                if !fields.contains(attr) {
                    return Err(LangError::semantic(
                        format!("state `{}` has no field `{}`", r.base, attr),
                        r.span,
                    ));
                }
            }
            return Ok(());
        }
        if r.index.is_some() {
            return Err(LangError::semantic(
                format!(
                    "`{}` is not a state block; `[i]` indexing is only for states",
                    r.base
                ),
                r.span,
            ));
        }
        // Entity variable or event alias.
        if self.vars.contains_key(&r.base) || self.aliases.iter().any(|a| a == &r.base) {
            return Ok(());
        }
        // Invariant variable (alert expressions compare against them).
        if self.invariant_vars.contains(&r.base) {
            return Ok(());
        }
        let _ = ctx;
        Err(LangError::semantic(
            format!("unknown name `{}`", r.base),
            r.span,
        ))
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ExprCtx {
    StateField,
    Invariant,
    ClusterPoints,
    Alert,
    Return,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile;

    #[test]
    fn classifies_paper_queries() {
        let kinds: Vec<_> = crate::corpus::PAPER_QUERIES
            .iter()
            .map(|q| compile(q).unwrap().kind)
            .collect();
        assert_eq!(
            kinds,
            vec![
                QueryKind::Rule,
                QueryKind::TimeSeries,
                QueryKind::Invariant,
                QueryKind::Outlier
            ]
        );
    }

    #[test]
    fn subject_must_be_process() {
        let err = compile("file f read file g as e\nreturn f").unwrap_err();
        assert!(err.message.contains("subjects must be processes"), "{err}");
    }

    #[test]
    fn op_object_compatibility() {
        let err = compile("proc p delete ip i as e\nreturn p").unwrap_err();
        assert!(err.message.contains("invalid for `ip`"), "{err}");
    }

    #[test]
    fn variable_type_consistency() {
        let err =
            compile("proc p start proc q as e1\nproc p read file q as e2\nreturn p").unwrap_err();
        assert!(err.message.contains("re-used"), "{err}");
    }

    #[test]
    fn variable_reuse_same_type_is_a_join() {
        // `f1` in two patterns — the Query-1 join idiom.
        compile("proc a write file f1 as e1\nproc b read file f1 as e2\nwith e1 -> e2\nreturn f1")
            .unwrap();
    }

    #[test]
    fn duplicate_alias_rejected() {
        let err =
            compile("proc p start proc q as e\nproc p start proc r as e\nreturn p").unwrap_err();
        assert!(err.message.contains("duplicate event alias"), "{err}");
    }

    #[test]
    fn temporal_unknown_alias_rejected() {
        let err = compile(
            "proc p start proc q as e1\nproc q start proc r as e2\nwith e1 -> e9\nreturn p",
        )
        .unwrap_err();
        assert!(err.message.contains("unknown event `e9`"), "{err}");
    }

    #[test]
    fn temporal_repeat_rejected() {
        let err = compile(
            "proc p start proc q as e1\nproc q start proc r as e2\nwith e1 -> e2 -> e1\nreturn p",
        )
        .unwrap_err();
        assert!(err.message.contains("appears twice"), "{err}");
    }

    #[test]
    fn stateful_requires_window() {
        let err = compile(
            "proc p write ip i as evt\nstate ss { s := sum(evt.amount) } group by p\nalert ss.s > 1\nreturn p",
        )
        .unwrap_err();
        assert!(err.message.contains("require a sliding window"), "{err}");
    }

    #[test]
    fn history_index_bounds() {
        let err = compile(
            "proc p write ip i as evt #time(1 min)\nstate[2] ss { s := sum(evt.amount) } group by p\nalert ss[2].s > 1\nreturn p",
        )
        .unwrap_err();
        assert!(err.message.contains("out of range"), "{err}");
    }

    #[test]
    fn history_index_past_u16_refused() {
        let src = |i: usize| {
            format!("proc p write ip i as evt #time(1 s)\nstate[70000] ss {{ n := count() }} group by p\nalert ss[{i}].n > 0\nreturn p")
        };
        assert!(compile(&src(65_535)).is_ok());
        let text = src(65_536);
        let err = compile(&text).unwrap_err();
        assert!(err.message.contains("out of range: at most 65535"), "{err}");
        assert_eq!(&text[err.span.start..err.span.end], "ss[65536].n", "{err}");
    }

    #[test]
    fn unknown_state_field_rejected() {
        let err = compile(
            "proc p write ip i as evt #time(1 min)\nstate ss { s := sum(evt.amount) } group by p\nalert ss.t > 1\nreturn p",
        )
        .unwrap_err();
        assert!(err.message.contains("no field `t`"), "{err}");
    }

    #[test]
    fn invariant_requires_state() {
        let err = compile(
            "proc p start proc q as evt #time(1 min)\ninvariant[5][offline] { a := empty_set }\nalert |a| > 0\nreturn p",
        )
        .unwrap_err();
        assert!(err.message.contains("require a state block"), "{err}");
    }

    #[test]
    fn invariant_update_before_init_rejected() {
        let err = compile(
            "proc p start proc q as evt #time(1 min)\nstate ss { s := set(q.exe_name) } group by p\ninvariant[5][offline] { a = a union ss.s }\nalert |ss.s diff a| > 0\nreturn p",
        )
        .unwrap_err();
        assert!(err.message.contains("before initialization"), "{err}");
    }

    #[test]
    fn cluster_outlier_requires_cluster_stage() {
        let err = compile(
            "proc p write ip i as evt #time(1 min)\nstate ss { s := sum(evt.amount) } group by p\nalert cluster.outlier\nreturn p",
        )
        .unwrap_err();
        assert!(err.message.contains("no cluster stage"), "{err}");
    }

    #[test]
    fn cluster_points_must_touch_state() {
        let err = compile(
            "proc p write ip i as evt #time(1 min)\nstate ss { s := sum(evt.amount) } group by p\ncluster(points=all(1), method=\"DBSCAN(10, 2)\")\nalert cluster.outlier\nreturn p",
        )
        .unwrap_err();
        assert!(
            err.message.contains("must reference a state field"),
            "{err}"
        );
    }

    #[test]
    fn agg_call_outside_state_rejected() {
        let err =
            compile("proc p write ip i as evt\nalert avg(evt.amount) > 5\nreturn p").unwrap_err();
        assert!(
            err.message.contains("only allowed in state fields"),
            "{err}"
        );
    }

    #[test]
    fn unknown_name_in_return_rejected() {
        let err = compile("proc p start proc q as e\nreturn z9").unwrap_err();
        assert!(err.message.contains("unknown name `z9`"), "{err}");
    }

    #[test]
    fn compat_keys_group_shape_not_constraints() {
        let a = compile("proc p1[\"%cmd.exe\"] start proc p2 as e\nreturn p1").unwrap();
        let b = compile("proc x start proc y[\"%osql.exe\"] as e\nreturn x").unwrap();
        assert_eq!(a.compat_key, b.compat_key);
        let c = compile("proc p read file f as e\nreturn p").unwrap();
        assert_ne!(a.compat_key, c.compat_key);
    }

    #[test]
    fn compat_key_includes_window() {
        let a = compile("proc p write ip i as e #time(10 min)\nstate ss { s := sum(evt.amount) } group by p\nalert ss.s > 1\nreturn p");
        // `evt` is not declared here — alias is `e`; expect semantic failure.
        assert!(a.is_err());
        let a = compile("proc p write ip i as evt #time(10 min)\nstate ss { s := sum(evt.amount) } group by p\nalert ss.s > 1\nreturn p").unwrap();
        let b = compile("proc p write ip i as evt #time(5 min)\nstate ss { s := sum(evt.amount) } group by p\nalert ss.s > 1\nreturn p").unwrap();
        assert_ne!(a.compat_key, b.compat_key);
    }

    #[test]
    fn op_alternation_order_does_not_change_compat_key() {
        let a = compile("proc p read || write ip i as e\nreturn p").unwrap();
        let b = compile("proc p write || read ip i as e\nreturn p").unwrap();
        assert_eq!(a.compat_key, b.compat_key);
    }
}
