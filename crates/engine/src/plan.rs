//! Compile-once query plans: flat register-based expression programs.
//!
//! The resolved AST ([`saql_lang::resolve`]) says *what* every name refers
//! to; this module lowers each resolved expression into a [`Program`] — a
//! flat op array over virtual registers plus a constant pool — and bundles
//! a query's programs into its [`QueryPlan`]. At runtime the engine
//! executes programs with [`crate::eval::run_program`] against an
//! [`ExecCtx`] of fixed slot arrays: no per-evaluation `HashMap`s, no
//! string probing, no AST recursion on the per-event path.
//!
//! The tree-walking interpreter ([`crate::eval::eval`]) is the reference
//! tests compare programs against; both share one binary-op kernel
//! ([`crate::eval`]'s `combine`), so they cannot drift on operator
//! semantics.

use std::fmt::Write as _;

use saql_lang::ast::BinOp;
use saql_lang::resolve::{Binding, ClusterField, ResolvedExpr, ResolvedGroupKey, ResolvedQuery};
use saql_lang::semantic::CheckedQuery;
use saql_model::{AttrId, Entity, EntityType, Event};

use crate::eval::{ClusterOutcome, StateSlots};
use crate::state::KeyAtom;
use crate::value::Value;

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
    /// Lower one resolved expression.
    pub fn compile(expr: &ResolvedExpr) -> Program {
        let mut p = Program::default();
        let result = p.emit(expr);
        debug_assert_eq!(result as usize + 1, p.regs);
        p
    }

    fn alloc(&mut self) -> u16 {
        let r = self.regs as u16;
        self.regs += 1;
        r
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

    fn emit(&mut self, expr: &ResolvedExpr) -> u16 {
        match expr {
            ResolvedExpr::Const(v) => {
                let idx = self.push_const(Value::Attr(v.clone()));
                let dst = self.alloc();
                self.ops.push(Op::Const { dst, idx });
                dst
            }
            ResolvedExpr::EmptySet => {
                let idx = self.push_const(Value::empty_set());
                let dst = self.alloc();
                self.ops.push(Op::Const { dst, idx });
                dst
            }
            ResolvedExpr::Load(binding) => {
                let dst = self.alloc();
                self.ops.push(match *binding {
                    Binding::EventAlias { slot } => Op::EventId {
                        dst,
                        slot: slot as u16,
                    },
                    Binding::EventAttr { slot, attr } => Op::EventAttr {
                        dst,
                        slot: slot as u16,
                        attr,
                    },
                    Binding::EntityAttr { slot, attr } => Op::EntityAttr {
                        dst,
                        slot: slot as u16,
                        attr,
                    },
                    Binding::State { back, field } => Op::State {
                        dst,
                        back: u16::try_from(back)
                            .expect("the checker refuses history indexes past u16::MAX"),
                        field: field as u16,
                    },
                    Binding::GroupKey { slot } => Op::GroupKey {
                        dst,
                        slot: slot as u16,
                    },
                    Binding::Invariant { slot } => Op::Invariant {
                        dst,
                        slot: slot as u16,
                    },
                    Binding::Cluster { field } => Op::Cluster { dst, field },
                    Binding::Missing => Op::Missing { dst },
                });
                dst
            }
            ResolvedExpr::Unary { op, expr } => {
                let src = self.emit(expr);
                let dst = self.alloc();
                self.ops.push(match op {
                    saql_lang::ast::UnaryOp::Not => Op::Not { dst, src },
                    saql_lang::ast::UnaryOp::Neg => Op::Neg { dst, src },
                });
                dst
            }
            ResolvedExpr::Card(expr) => {
                let src = self.emit(expr);
                let dst = self.alloc();
                self.ops.push(Op::Card { dst, src });
                dst
            }
            ResolvedExpr::Binary { op, lhs, rhs } => {
                let l = self.emit(lhs);
                let r = self.emit(rhs);
                let dst = self.alloc();
                self.ops.push(Op::Bin {
                    dst,
                    op: *op,
                    lhs: l,
                    rhs: r,
                });
                dst
            }
        }
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

impl QueryPlan {
    /// Compile the plan of a checked query.
    pub fn compile(checked: &CheckedQuery) -> QueryPlan {
        let r: &ResolvedQuery = &checked.resolved;
        let mut plan = QueryPlan {
            aliases: r.aliases.clone(),
            entity_vars: r.entity_vars.clone(),
            pattern_slots: r.pattern_slots.clone(),
            group_keys: r.group_keys.clone(),
            state_field_names: r.state_fields.iter().map(|f| f.name.clone()).collect(),
            field_programs: r
                .state_fields
                .iter()
                .map(|f| Program::compile(&f.arg))
                .collect(),
            invariant_programs: r
                .invariant_stmts
                .iter()
                .map(|s| (s.slot, s.init, Program::compile(&s.expr)))
                .collect(),
            invariant_vars: r.invariant_vars.clone(),
            cluster_programs: r.cluster_points.iter().map(Program::compile).collect(),
            alert: r.alert.as_ref().map(Program::compile),
            ret: r
                .ret
                .iter()
                .map(|item| (item.label.clone(), Program::compile(&item.expr)))
                .collect(),
            scratch_regs: 0,
        };
        plan.scratch_regs = plan.programs().map(|p| p.regs).max().unwrap_or(0);
        plan
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::run_program;
    use saql_model::AttrValue;

    fn plan(src: &str) -> QueryPlan {
        QueryPlan::compile(&saql_lang::compile(src).unwrap())
    }

    #[test]
    fn literal_program_evaluates_without_context() {
        let p = plan("proc p start proc q as e\nalert 1 + 2 * 3 > 5\nreturn p");
        let alert = p.alert.as_ref().unwrap();
        let mut scratch = Vec::new();
        let v = run_program(alert, &ExecCtx::empty(), &mut scratch);
        assert!(v.truthy());
        // Constant pool deduplicates repeated literals.
        let q = Program::compile(&ResolvedExpr::Binary {
            op: BinOp::Add,
            lhs: Box::new(ResolvedExpr::Const(AttrValue::Int(7))),
            rhs: Box::new(ResolvedExpr::Const(AttrValue::Int(7))),
        });
        assert_eq!(q.consts.len(), 1);
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
}
