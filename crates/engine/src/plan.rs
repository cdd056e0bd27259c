//! Compile-once query plans: name resolution and lowering in one pass.
//!
//! [`QueryPlan::compile`] walks a checked query once, at registration. It
//! builds the query's slot tables (event aliases, entity variables, pattern
//! slots, group keys, invariant variables), then lowers every expression
//! into a [`Program`] — a flat op array over virtual registers plus a
//! constant pool — answering each [`Ref`] with the load [`Op`] of its slot.
//!
//! Resolution is **context-sensitive**, mirroring the runtime scopes the
//! tree-walking interpreter builds:
//!
//! * *event contexts* — a matched event is live (rule alert/return,
//!   state-field arguments): aliases, then entity variables;
//! * *group contexts* — a window closed for one group (stateful
//!   alert/return, invariant updates, cluster points): state fields,
//!   group-key spellings, invariant variables and the `cluster` outcome;
//! * *empty contexts* — invariant initializers: only literals survive.
//!
//! A name its context cannot supply loads [`Op::Missing`], exactly what the
//! interpreter's scope probing produces for it. One deliberate
//! simplification: the interpreter retries later namespaces when a *state
//! lookup* yields a missing value (so a state block shadowing a group key
//! or invariant variable of the same name falls through during warm-up);
//! the plan commits to the state load. The corpus never names a state after
//! another binding, and the differential suite pins the equivalence on real
//! queries.
//!
//! At runtime the engine executes programs with [`crate::eval::run_program`]
//! against an [`ExecCtx`] of fixed slot arrays: no per-evaluation
//! `HashMap`s, no string probing, no AST recursion on the per-event path.
//! The tree-walking interpreter ([`crate::eval::eval`]) is the reference
//! tests compare programs against; both share one binary-op kernel
//! ([`crate::eval`]'s `combine`), so they cannot drift on operator
//! semantics.

use std::fmt::Write as _;

use saql_lang::ast::{BinOp, Expr, GroupKey, Query, Ref, UnaryOp};
use saql_lang::pretty::print_expr;
use saql_lang::semantic::CheckedQuery;
use saql_model::{AttrId, AttrNs, AttrTable, Entity, EntityType, Event};

use crate::eval::{ClusterOutcome, StateSlots};
use crate::state::KeyAtom;
use crate::value::Value;

/// A cluster pseudo-attribute (`cluster.outlier` / `.cluster_id` / `.size`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClusterField {
    Outlier,
    ClusterId,
    Size,
}

impl ClusterField {
    pub fn name(&self) -> &'static str {
        match self {
            ClusterField::Outlier => "outlier",
            ClusterField::ClusterId => "cluster_id",
            ClusterField::Size => "size",
        }
    }
}

/// How one group-by key is extracted from a matched event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KeySource {
    /// From a bound entity variable. `attr: None` means the spelled
    /// attribute does not exist for the variable's type — extraction fails
    /// on every event (as the interpreter's `Missing` did).
    Entity { slot: usize, attr: Option<AttrId> },
    /// From the matched event itself (`group by evt.agentid`).
    Event { slot: usize, attr: Option<AttrId> },
}

/// One resolved group-by key.
#[derive(Debug, Clone, PartialEq)]
pub struct ResolvedGroupKey {
    pub source: KeySource,
    /// Textual forms that refer to this key in group contexts. A bare
    /// variable binds both itself and its default-attribute spelling
    /// (`group by p` answers to `p` and `p.exe_name`).
    pub spellings: Vec<String>,
}

/// Entity-variable slot names of a query, in first-occurrence order
/// (subject before object, pattern by pattern).
///
/// This is *the* slot enumeration: the matcher and the plan both index
/// entity bindings by position in this list.
pub fn entity_slot_names(q: &Query) -> Vec<String> {
    let mut slots: Vec<String> = Vec::new();
    for p in &q.patterns {
        for var in [&p.subject.var, &p.object.var] {
            if !slots.iter().any(|s| s == var) {
                slots.push(var.clone());
            }
        }
    }
    slots
}

/// One instruction of a compiled expression program. `dst` is always a
/// fresh register (straight-line SSA), so programs need no control flow:
/// `&&`/`||` lower to an eager [`Op::Bin`] whose kernel reproduces the
/// interpreter's short-circuit *values* exactly (evaluation is total and
/// effect-free, so evaluating both sides cannot change the result).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Op {
    /// `r[dst] = consts[idx]` (literals, the empty set).
    Const { dst: u16, idx: u16 },
    /// `r[dst] = Missing` (statically unresolvable reference).
    Missing { dst: u16 },
    /// `r[dst] = id of the event in alias slot` (bare alias reference).
    EventId { dst: u16, slot: u16 },
    /// `r[dst] = event-level attribute of the event in alias slot`.
    EventAttr { dst: u16, slot: u16, attr: AttrId },
    /// `r[dst] = attribute of the entity in variable slot`.
    EntityAttr { dst: u16, slot: u16, attr: AttrId },
    /// `r[dst] = state field, `back` windows before the current one.
    State { dst: u16, back: u16, field: u16 },
    /// `r[dst] = group-key value of the group in scope`.
    GroupKey { dst: u16, slot: u16 },
    /// `r[dst] = invariant variable of the group in scope`.
    Invariant { dst: u16, slot: u16 },
    /// `r[dst] = cluster outcome field of the group in scope`.
    Cluster { dst: u16, field: ClusterField },
    /// Logical not (`Missing` propagates).
    Not { dst: u16, src: u16 },
    /// Numeric negation.
    Neg { dst: u16, src: u16 },
    /// `|x|`: set cardinality / numeric absolute value.
    Card { dst: u16, src: u16 },
    /// Binary operator through the shared kernel.
    Bin {
        dst: u16,
        op: BinOp,
        lhs: u16,
        rhs: u16,
    },
}

/// A compiled expression: op array + constant pool. The last op's `dst`
/// holds the result.
#[derive(Debug, Clone, Default)]
pub struct Program {
    pub ops: Vec<Op>,
    pub consts: Vec<Value>,
    /// Registers the program needs (callers size one reusable scratch).
    pub regs: usize,
}

impl Op {
    /// The destination register this op writes.
    pub fn dst(&self) -> u16 {
        match *self {
            Op::Const { dst, .. }
            | Op::Missing { dst }
            | Op::EventId { dst, .. }
            | Op::EventAttr { dst, .. }
            | Op::EntityAttr { dst, .. }
            | Op::State { dst, .. }
            | Op::GroupKey { dst, .. }
            | Op::Invariant { dst, .. }
            | Op::Cluster { dst, .. }
            | Op::Not { dst, .. }
            | Op::Neg { dst, .. }
            | Op::Card { dst, .. }
            | Op::Bin { dst, .. } => dst,
        }
    }
}

impl Program {
    /// Append the op `make` builds around a fresh destination register.
    fn push(&mut self, make: impl FnOnce(u16) -> Op) -> u16 {
        let dst = self.regs as u16;
        self.regs += 1;
        self.ops.push(make(dst));
        dst
    }

    fn push_const(&mut self, v: Value) -> u16 {
        // The pool is tiny; linear dedup keeps repeated literals shared.
        if let Some(i) = self.consts.iter().position(|c| match (c, &v) {
            (Value::Attr(a), Value::Attr(b)) => a.loose_eq(b) && a.type_name() == b.type_name(),
            (Value::Set(a), Value::Set(b)) => a == b,
            _ => false,
        }) {
            return i as u16;
        }
        self.consts.push(v);
        (self.consts.len() - 1) as u16
    }

    /// Program listing for `saql explain` (one op per line, indented).
    pub fn listing(&self, plan: &QueryPlan) -> String {
        let mut out = String::new();
        for op in &self.ops {
            let _ = writeln!(out, "    {}", self.render_op(op, plan));
        }
        out
    }

    fn render_op(&self, op: &Op, plan: &QueryPlan) -> String {
        let alias = |slot: u16| -> &str {
            plan.aliases
                .get(slot as usize)
                .map(String::as_str)
                .unwrap_or("?")
        };
        let var = |slot: u16| -> &str {
            plan.entity_vars
                .get(slot as usize)
                .map(|(v, _)| v.as_str())
                .unwrap_or("?")
        };
        match *op {
            Op::Const { dst, idx } => format!("r{dst} <- const {}", self.consts[idx as usize]),
            Op::Missing { dst } => format!("r{dst} <- missing"),
            Op::EventId { dst, slot } => {
                format!("r{dst} <- event[{slot}:{}].id", alias(slot))
            }
            Op::EventAttr { dst, slot, attr } => {
                format!("r{dst} <- event[{slot}:{}].{}", alias(slot), attr.name())
            }
            Op::EntityAttr { dst, slot, attr } => {
                format!("r{dst} <- entity[{slot}:{}].{}", var(slot), attr.name())
            }
            Op::State { dst, back, field } => {
                let name = plan
                    .state_field_names
                    .get(field as usize)
                    .map(String::as_str)
                    .unwrap_or("?");
                format!("r{dst} <- state[{back}].{field}:{name}")
            }
            Op::GroupKey { dst, slot } => {
                let spelled = plan
                    .group_keys
                    .get(slot as usize)
                    .and_then(|k| k.spellings.first())
                    .map(String::as_str)
                    .unwrap_or("?");
                format!("r{dst} <- group_key[{slot}:{spelled}]")
            }
            Op::Invariant { dst, slot } => {
                let name = plan
                    .invariant_vars
                    .get(slot as usize)
                    .map(String::as_str)
                    .unwrap_or("?");
                format!("r{dst} <- invariant[{slot}:{name}]")
            }
            Op::Cluster { dst, field } => format!("r{dst} <- cluster.{}", field.name()),
            Op::Not { dst, src } => format!("r{dst} <- !r{src}"),
            Op::Neg { dst, src } => format!("r{dst} <- -r{src}"),
            Op::Card { dst, src } => format!("r{dst} <- |r{src}|"),
            Op::Bin { dst, op, lhs, rhs } => {
                format!("r{dst} <- r{lhs} {} r{rhs}", op.symbol())
            }
        }
    }
}

/// The fixed slot arrays a program executes against — the compiled
/// counterpart of [`crate::eval::Scope`]. Slices a context does not supply
/// stay empty; loads from them yield `Missing`, exactly like the
/// interpreter's scope probing.
pub struct ExecCtx<'a> {
    /// Matched events by alias slot.
    pub events: &'a [Option<&'a Event>],
    /// Bound entities by variable slot.
    pub entities: &'a [Option<&'a Entity>],
    /// Group-key values by key slot (window-close contexts).
    pub group_keys: &'a [KeyAtom],
    /// State history by `(back, field)` index.
    pub states: &'a dyn StateSlots,
    /// Invariant variables by slot.
    pub invariants: &'a [Value],
    /// Cluster outcome of the group in scope.
    pub cluster: Option<ClusterOutcome>,
}

impl<'a> ExecCtx<'a> {
    /// A context that resolves nothing (invariant initializers).
    pub fn empty() -> ExecCtx<'a> {
        ExecCtx {
            events: &[],
            entities: &[],
            group_keys: &[],
            states: &crate::eval::NoSlots,
            invariants: &[],
            cluster: None,
        }
    }
}

/// The compiled execution plan of one query: slot tables plus every
/// expression lowered to a [`Program`].
#[derive(Debug, Clone, Default)]
pub struct QueryPlan {
    /// Event-alias slot table (slot = pattern index).
    pub aliases: Vec<String>,
    /// Entity-variable slot table (the matcher binds by these slots).
    pub entity_vars: Vec<(String, EntityType)>,
    /// Per pattern: (subject slot, object slot).
    pub pattern_slots: Vec<(usize, usize)>,
    /// Resolved group-by keys (sources + group-context spellings).
    pub group_keys: Vec<ResolvedGroupKey>,
    /// State-field names, in declaration order (for listings).
    pub state_field_names: Vec<String>,
    /// State-field argument programs (event context), in field order.
    pub field_programs: Vec<Program>,
    /// Invariant statements: (variable slot, is-init, program).
    pub invariant_programs: Vec<(usize, bool, Program)>,
    /// Invariant-variable names by slot.
    pub invariant_vars: Vec<String>,
    /// Cluster point programs (group context).
    pub cluster_programs: Vec<Program>,
    /// Alert-condition program.
    pub alert: Option<Program>,
    /// Return items: (label, program).
    pub ret: Vec<(String, Program)>,
    /// Largest register file any program needs (size one shared scratch).
    pub scratch_regs: usize,
}

/// The runtime scope an expression is lowered against: which names are
/// live when it runs.
#[derive(Debug, Clone, Copy)]
enum Ctx {
    /// A matched event and its bindings are live.
    Event,
    /// A closed window's group is live. `invariants`/`cluster` say whether
    /// those namespaces are populated at this point of the pipeline.
    Group { invariants: bool, cluster: bool },
    /// Nothing is live (invariant initializers).
    Empty,
}

/// A group context with every namespace live.
const GROUP: Ctx = Ctx::Group {
    invariants: true,
    cluster: true,
};

impl QueryPlan {
    /// Compile the plan of a checked query: slot tables, then every
    /// expression lowered in the context its clause runs in.
    ///
    /// Only called on queries that passed [`saql_lang::semantic::check`]:
    /// names the checker rejected never reach this pass, and anything merely
    /// *dynamic* (an attribute a context cannot supply) loads `Missing`.
    pub fn compile(checked: &CheckedQuery) -> QueryPlan {
        let q = &checked.ast;
        let names = entity_slot_names(q);
        let slot_of = |var: &str| {
            (names.iter().position(|s| s == var)).expect("slot table covers every pattern variable")
        };
        let mut plan = QueryPlan {
            aliases: q.patterns.iter().map(|p| p.alias.clone()).collect(),
            pattern_slots: (q.patterns.iter())
                .map(|p| (slot_of(&p.subject.var), slot_of(&p.object.var)))
                .collect(),
            entity_vars: names.iter().map(|n| (n.clone(), checked.vars[n])).collect(),
            ..QueryPlan::default()
        };
        let state = q.states.first();
        if let Some(s) = state {
            plan.state_field_names = s.fields.iter().map(|f| f.name.clone()).collect();
            plan.group_keys = s.group_by.iter().map(|gk| plan.group_key(gk)).collect();
        }
        let stmts = q.invariants.first().map_or(&[][..], |b| &b.stmts[..]);
        plan.invariant_vars = (stmts.iter().filter(|s| s.init))
            .map(|s| s.var.clone())
            .collect();

        let lower = Lower {
            plan: &plan,
            state: state.map(|s| s.name.as_str()),
        };
        let field_programs = (state.iter().flat_map(|s| &s.fields))
            .map(|f| lower.program(&f.arg, Ctx::Event))
            .collect();
        let invariant_programs = (stmts.iter())
            .map(|s| {
                let slot = (plan.invariant_vars.iter().position(|v| v == &s.var))
                    .expect("checker saw every invariant variable initialized");
                // Updates run at window close (the checker refuses cluster
                // refs in them).
                let ctx = if s.init { Ctx::Empty } else { GROUP };
                (slot, s.init, lower.program(&s.expr, ctx))
            })
            .collect();
        // The cluster stage runs before outcomes and invariant variables
        // are in scope: both namespaces are dark.
        let dark = Ctx::Group {
            invariants: false,
            cluster: false,
        };
        let cluster_programs = (q.cluster.iter().flat_map(|c| &c.points))
            .map(|p| lower.program(p, dark))
            .collect();
        // Rule queries evaluate alert/return over the match; stateful
        // queries over the closed group.
        let tail = if state.is_some() { GROUP } else { Ctx::Event };
        let alert = q.alert.as_ref().map(|e| lower.program(e, tail));
        let ret = (q.ret.iter().flat_map(|r| &r.items))
            .map(|item| {
                let label = (item.alias.clone()).unwrap_or_else(|| print_expr(&item.expr));
                (label, lower.program(&item.expr, tail))
            })
            .collect();
        let mut plan = QueryPlan {
            field_programs,
            invariant_programs,
            cluster_programs,
            alert,
            ret,
            ..plan
        };
        plan.scratch_regs = plan.programs().map(|p| p.regs).max().unwrap_or(0);
        plan
    }

    fn group_key(&self, gk: &GroupKey) -> ResolvedGroupKey {
        let table = AttrTable::global();
        // Aliases carry an attribute (the checker enforces it); variables
        // may use their type's default attribute, and then answer to both
        // spellings.
        let spelled = |attr: &str| format!("{}.{attr}", gk.var);
        if let Some(slot) = self.aliases.iter().position(|a| a == &gk.var) {
            let attr = gk.attr.as_deref();
            return ResolvedGroupKey {
                source: KeySource::Event {
                    slot,
                    attr: attr.and_then(|a| table.resolve(AttrNs::Event, a)),
                },
                spellings: vec![attr.map_or_else(|| gk.var.clone(), spelled)],
            };
        }
        let slot = (self.entity_vars.iter().position(|(v, _)| v == &gk.var))
            .expect("checker bound every group-by key");
        let etype = self.entity_vars[slot].1;
        let name = gk.attr.as_deref().unwrap_or_else(|| etype.default_attr());
        ResolvedGroupKey {
            source: KeySource::Entity {
                slot,
                attr: table.resolve(AttrNs::of_entity(etype), name),
            },
            spellings: match &gk.attr {
                Some(attr) => vec![spelled(attr)],
                None => vec![gk.var.clone(), spelled(name)],
            },
        }
    }

    /// Every program of the plan (for sizing and listings).
    pub fn programs(&self) -> impl Iterator<Item = &Program> {
        self.field_programs
            .iter()
            .chain(self.invariant_programs.iter().map(|(_, _, p)| p))
            .chain(self.cluster_programs.iter())
            .chain(self.alert.iter())
            .chain(self.ret.iter().map(|(_, p)| p))
    }
}

/// Lowers a plan's expressions: every [`Ref`] is answered from its slot
/// tables.
struct Lower<'a> {
    plan: &'a QueryPlan,
    /// The state block's name, if the query has one.
    state: Option<&'a str>,
}

impl Lower<'_> {
    fn program(&self, e: &Expr, ctx: Ctx) -> Program {
        let mut p = Program::default();
        let result = self.emit(e, ctx, &mut p);
        debug_assert_eq!(result as usize + 1, p.regs);
        p
    }

    fn emit(&self, e: &Expr, ctx: Ctx, p: &mut Program) -> u16 {
        match e {
            Expr::Lit(l) => {
                let idx = p.push_const(Value::Attr(l.to_attr()));
                p.push(|dst| Op::Const { dst, idx })
            }
            Expr::EmptySet => {
                let idx = p.push_const(Value::empty_set());
                p.push(|dst| Op::Const { dst, idx })
            }
            Expr::Ref(r) => p.push(|dst| self.load(r, ctx, dst).unwrap_or(Op::Missing { dst })),
            // Aggregate calls evaluate to Missing outside state-field
            // *positions* (the aggregate itself is applied by the state
            // maintainer; a nested call inside an argument is inert).
            Expr::Call { .. } => p.push(|dst| Op::Missing { dst }),
            Expr::Unary { op, expr } => {
                let src = self.emit(expr, ctx, p);
                p.push(|dst| match op {
                    UnaryOp::Not => Op::Not { dst, src },
                    UnaryOp::Neg => Op::Neg { dst, src },
                })
            }
            Expr::Card(expr) => {
                let src = self.emit(expr, ctx, p);
                p.push(|dst| Op::Card { dst, src })
            }
            Expr::Binary { op, lhs, rhs } => {
                let (lhs, rhs) = (self.emit(lhs, ctx, p), self.emit(rhs, ctx, p));
                p.push(|dst| Op::Bin {
                    dst,
                    op: *op,
                    lhs,
                    rhs,
                })
            }
        }
    }

    /// The load of `r` in `ctx`; `None` when the context cannot supply it.
    fn load(&self, r: &Ref, ctx: Ctx, dst: u16) -> Option<Op> {
        // `cluster.*` shadows every other namespace (the interpreter checks
        // it first, so even a variable named `cluster` resolves here).
        if r.base == "cluster" {
            let field = match r.attr.as_deref() {
                Some("outlier") => ClusterField::Outlier,
                Some("cluster_id") => ClusterField::ClusterId,
                Some("size") => ClusterField::Size,
                _ => return None,
            };
            let live = matches!(ctx, Ctx::Group { cluster: true, .. });
            return live.then_some(Op::Cluster { dst, field });
        }
        match ctx {
            Ctx::Empty => None,
            Ctx::Event => self.event_load(r, dst),
            Ctx::Group { invariants, .. } => self.group_load(r, invariants, dst),
        }
    }

    /// Against a matched-event scope: alias, then entity variable (the
    /// interpreter's probe order).
    fn event_load(&self, r: &Ref, dst: u16) -> Option<Op> {
        let table = AttrTable::global();
        if r.index.is_some() {
            // `x[i]` is state indexing; no states are live here.
            return None;
        }
        if let Some(slot) = self.plan.aliases.iter().position(|a| a == &r.base) {
            let slot = slot as u16;
            return match &r.attr {
                None => Some(Op::EventId { dst, slot }),
                Some(attr) => (table.resolve(AttrNs::Event, attr)).map(|attr| Op::EventAttr {
                    dst,
                    slot,
                    attr,
                }),
            };
        }
        let slot = (self.plan.entity_vars.iter()).position(|(v, _)| v == &r.base)?;
        let etype = self.plan.entity_vars[slot].1;
        let name = r.attr.as_deref().unwrap_or_else(|| etype.default_attr());
        let attr = table.resolve(AttrNs::of_entity(etype), name)?;
        Some(Op::EntityAttr {
            dst,
            slot: slot as u16,
            attr,
        })
    }

    /// Against a closed-window group scope: state, group-key spelling,
    /// then invariant variable (the interpreter's probe order with the
    /// event/entity maps empty).
    fn group_load(&self, r: &Ref, invariants_live: bool, dst: u16) -> Option<Op> {
        if self.state == Some(r.base.as_str()) {
            let fields = &self.plan.state_field_names;
            let field = match &r.attr {
                Some(f) => fields.iter().position(|n| n == f)?,
                // A bare state reference names its only field.
                None if fields.len() == 1 => 0,
                None => return None,
            };
            let back = u16::try_from(r.index.unwrap_or(0))
                .expect("the checker refuses history indexes past u16::MAX");
            return Some(Op::State {
                dst,
                back,
                field: field as u16,
            });
        }
        if r.index.is_some() {
            // Indexing anything but the state block is always missing.
            return None;
        }
        let spelled = match &r.attr {
            Some(a) => format!("{}.{}", r.base, a),
            None => r.base.clone(),
        };
        let keys = &self.plan.group_keys;
        if let Some(slot) = keys.iter().position(|k| k.spellings.contains(&spelled)) {
            return Some(Op::GroupKey {
                dst,
                slot: slot as u16,
            });
        }
        if !invariants_live || r.attr.is_some() {
            return None;
        }
        let slot = self.plan.invariant_vars.iter().position(|v| v == &r.base)?;
        Some(Op::Invariant {
            dst,
            slot: slot as u16,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::run_program;

    fn plan(src: &str) -> QueryPlan {
        QueryPlan::compile(&saql_lang::compile(src).unwrap())
    }

    /// The one op of a single-load program.
    fn load(p: &Program) -> Op {
        assert_eq!(p.ops.len(), 1, "expected one load, got {:?}", p.ops);
        p.ops[0]
    }

    #[test]
    fn literal_program_evaluates_without_context() {
        let p = plan("proc p start proc q as e\nalert 1 + 2 * 3 > 5\nreturn p");
        let alert = p.alert.as_ref().unwrap();
        let mut scratch = Vec::new();
        let v = run_program(alert, &ExecCtx::empty(), &mut scratch);
        assert!(v.truthy());
        // Constant pool deduplicates repeated literals.
        let q = plan("proc p start proc q as e\nalert 7 + 7 > 7\nreturn p");
        let alert = q.alert.as_ref().unwrap();
        assert_eq!((alert.ops.len(), alert.consts.len()), (5, 1));
    }

    #[test]
    fn slot_tables_follow_declaration_order() {
        let p = plan(
            "proc a start proc b as e1\nproc b write ip i as e2\nwith e1 -> e2\nreturn a, b, i",
        );
        assert_eq!(p.aliases, vec!["e1", "e2"]);
        assert_eq!(p.pattern_slots, vec![(0, 1), (1, 2)]);
        assert_eq!(p.scratch_regs, 1, "single-load return items");
        assert_eq!(p.ret.len(), 3);
    }

    #[test]
    fn listing_is_deterministic_and_named() {
        let p = plan(
            "proc p write ip i as evt #time(10 min)\nstate[3] ss { avg_amount := avg(evt.amount) } group by p\nalert ss[0].avg_amount > 10000\nreturn p, ss[0].avg_amount",
        );
        let alert = p.alert.as_ref().unwrap().listing(&p);
        assert!(alert.contains("state[0].0:avg_amount"), "{alert}");
        assert!(alert.contains("const 10000"), "{alert}");
        assert!(alert.contains(" > "), "{alert}");
        let key = p.ret[0].1.listing(&p);
        assert!(key.contains("group_key[0:p]"), "{key}");
    }

    #[test]
    fn rule_query_slots_and_bindings() {
        let p = plan(
            "proc p1[\"%cmd.exe\"] start proc p2 as e1\nproc p2 write ip i as e2\nwith e1 -> e2\nreturn p1, p2, i.dstip, e2.amount",
        );
        assert_eq!(p.aliases, vec!["e1", "e2"]);
        assert_eq!(
            p.entity_vars,
            vec![
                ("p1".to_string(), EntityType::Process),
                ("p2".to_string(), EntityType::Process),
                ("i".to_string(), EntityType::Network),
            ]
        );
        assert_eq!(p.pattern_slots, vec![(0, 1), (1, 2)]);
        let loads: Vec<Op> = p.ret.iter().map(|(_, prog)| load(prog)).collect();
        // Bare entity vars pre-resolve their default attribute.
        let entity = |slot, attr| Op::EntityAttr { dst: 0, slot, attr };
        assert_eq!(loads[0], entity(0, AttrId::ExeName));
        assert_eq!(loads[2], entity(2, AttrId::DstIp));
        assert_eq!(
            loads[3],
            Op::EventAttr {
                dst: 0,
                slot: 1,
                attr: AttrId::Amount
            }
        );
        assert_eq!(p.ret[3].0, "e2.amount");
    }

    #[test]
    fn stateful_query_group_bindings() {
        let p = plan(
            "proc p write ip i as evt #time(10 min)\nstate[3] ss { avg_amount := avg(evt.amount) } group by p\nalert ss[1].avg_amount > 10000\nreturn p, ss[0].avg_amount",
        );
        // Field argument resolves in event context.
        assert_eq!(
            load(&p.field_programs[0]),
            Op::EventAttr {
                dst: 0,
                slot: 0,
                attr: AttrId::Amount
            }
        );
        // Group key: bare `p` binds both spellings and extracts exe_name.
        assert_eq!(
            p.group_keys[0].source,
            KeySource::Entity {
                slot: 0,
                attr: Some(AttrId::ExeName)
            }
        );
        assert_eq!(p.group_keys[0].spellings, vec!["p", "p.exe_name"]);
        // Alert/return resolve in group context: `p` is a group key now.
        assert_eq!(load(&p.ret[0].1), Op::GroupKey { dst: 0, slot: 0 });
        // The alert's left operand is lowered first.
        let alert = p.alert.as_ref().unwrap();
        assert_eq!(
            alert.ops[0],
            Op::State {
                dst: 0,
                back: 1,
                field: 0
            }
        );
        assert!(matches!(alert.ops.last(), Some(Op::Bin { lhs: 0, .. })));
    }

    #[test]
    fn invariant_and_cluster_bindings() {
        let p = plan(
            "proc p1[\"%apache.exe\"] start proc p2 as evt #time(10 s)\nstate ss { set_proc := set(p2.exe_name) } group by p1\ninvariant[3][offline] {\n a := empty_set\n a = a union ss.set_proc\n}\nalert |ss.set_proc diff a| > 0\nreturn p1, ss.set_proc",
        );
        assert_eq!(p.invariant_vars, vec!["a"]);
        assert_eq!(p.invariant_programs.len(), 2);
        assert!(p.invariant_programs[0].1);
        // The update reads the invariant slot and the state field.
        let (slot, init, update) = &p.invariant_programs[1];
        assert_eq!((*slot, *init), (0, false));
        assert_eq!(update.ops[0], Op::Invariant { dst: 0, slot: 0 });
        let state = |dst| Op::State {
            dst,
            back: 0,
            field: 0,
        };
        assert_eq!(update.ops[1], state(1));
        assert!(matches!(update.ops[2], Op::Bin { lhs: 0, rhs: 1, .. }));

        let p = plan(
            "proc p[\"%sqlservr.exe\"] read || write ip i as evt #time(10 min)\nstate ss { amt := sum(evt.amount) } group by i.dstip\ncluster(points=all(ss.amt), distance=\"ed\", method=\"DBSCAN(100000, 5)\")\nalert cluster.outlier && ss.amt > 1000000\nreturn i.dstip, ss.amt",
        );
        let points: Vec<Op> = p.cluster_programs.iter().map(load).collect();
        assert_eq!(points, vec![state(0)]);
        assert_eq!(
            p.alert.as_ref().unwrap().ops[0],
            Op::Cluster {
                dst: 0,
                field: ClusterField::Outlier
            }
        );
        // `group by i.dstip` has the single explicit spelling.
        assert_eq!(p.group_keys[0].spellings, vec!["i.dstip"]);
    }

    #[test]
    fn dynamic_dead_ends_bind_missing() {
        // An alias attribute unknown to the event namespace.
        let p = plan("proc p start proc q as e\nreturn e.bogus_attr");
        assert_eq!(load(&p.ret[0].1), Op::Missing { dst: 0 });
        // An entity variable referenced at group scope without being a key.
        let p = plan(
            "proc p write ip i as evt #time(1 min)\nstate ss { n := count() } group by p\nreturn i.dstip, ss[0].n",
        );
        assert_eq!(load(&p.ret[0].1), Op::Missing { dst: 0 });
        // Invariant initializers resolve nothing: the empty set is a
        // constant.
        let p = plan(
            "proc p1 start proc p2 as evt #time(10 s)\nstate ss { s := set(p2.exe_name) } group by p1\ninvariant[2][offline] {\n a := empty_set\n a = a union ss.s\n}\nalert |ss.s diff a| > 0\nreturn p1",
        );
        let init = &p.invariant_programs[0].2;
        assert_eq!(load(init), Op::Const { dst: 0, idx: 0 });
        assert_eq!(
            format!("{:?}", init.consts),
            format!("{:?}", [Value::empty_set()])
        );
    }

    #[test]
    fn group_by_event_attr_key() {
        let p = plan(
            "proc p write ip i as evt #time(1 min)\nstate ss { n := count() } group by evt.agentid\nreturn evt.agentid, ss[0].n",
        );
        assert_eq!(
            p.group_keys[0].source,
            KeySource::Event {
                slot: 0,
                attr: Some(AttrId::AgentId)
            }
        );
        assert_eq!(p.group_keys[0].spellings, vec!["evt.agentid"]);
        // In the return (group context) the spelling resolves to the key.
        assert_eq!(load(&p.ret[0].1), Op::GroupKey { dst: 0, slot: 0 });
    }
}
