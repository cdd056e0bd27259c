//! Expression evaluation: the compiled-program loop, and the tree-walking
//! reference evaluator tests compare it against.
//!
//! The engine evaluates every expression with [`run_program`] /
//! [`run_program_batch`]: a small loop over a flat [`Program`] that loads
//! from the fixed slot arrays of an [`ExecCtx`]. The tree-walking
//! interpreter ([`eval`] over a [`Scope`]) is the oracle: no engine code
//! constructs a `Scope`; `tests/compiled_plans_differential.rs` evaluates
//! every expression of every shipped query both ways. Both dispatch binary
//! operators through one shared kernel (`combine`), so they cannot disagree
//! on operator semantics.
//!
//! A [`Scope`] assembles whatever context is live when an expression is
//! interpreted: matched events and entity bindings (rule queries), window
//! states with history (`ss[1].avg_amount`), invariant variables, and the
//! cluster outcome of the current group. Name resolution tries, in order:
//! event aliases, entity variables, state blocks, invariant variables, the
//! `cluster` pseudo-object — anything unresolved yields [`Value::Missing`].

use std::collections::HashMap;

use saql_lang::ast::{BinOp, CmpOp, Expr, UnaryOp};
use saql_lang::resolve::ClusterField;
use saql_model::{AttrValue, Entity, Event};
use saql_stream::SharedEvent;

use crate::plan::{ExecCtx, Op, Program};
use crate::value::Value;

/// Cluster outcome of a group, exposed as `cluster.outlier`,
/// `cluster.cluster_id`, and `cluster.size`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterOutcome {
    pub outlier: bool,
    /// Dense cluster id; `None` for noise points.
    pub cluster_id: Option<usize>,
    /// Population of the point's cluster (1 for noise).
    pub size: usize,
}

impl ClusterOutcome {
    /// Field access shared by both execution paths.
    fn field(self, field: ClusterField) -> Value {
        match field {
            ClusterField::Outlier => Value::bool(self.outlier),
            ClusterField::ClusterId => match self.cluster_id {
                Some(id) => Value::int(id as i64),
                None => Value::int(-1),
            },
            ClusterField::Size => Value::int(self.size as i64),
        }
    }
}

/// Resolves `ss[i].field` state references.
pub trait StateLookup {
    /// Value of `field` of state `name`, `back` windows before the current
    /// one, for the group in scope. `Missing` when out of history.
    fn state_value(&self, name: &str, back: usize, field: Option<&str>) -> Value;
}

/// Empty state lookup for rule-query scopes.
pub struct NoState;

impl StateLookup for NoState {
    fn state_value(&self, _: &str, _: usize, _: Option<&str>) -> Value {
        Value::Missing
    }
}

/// Index-based state access for compiled programs: the deploy-time
/// counterpart of [`StateLookup`] (names and field positions were resolved
/// when the plan was built).
pub trait StateSlots {
    /// Value of field `field` of the query's state block, `back` windows
    /// before the current one, for the group in scope.
    fn field(&self, back: usize, field: usize) -> Value;
}

/// Empty slot lookup for contexts without a state block.
pub struct NoSlots;

impl StateSlots for NoSlots {
    fn field(&self, _: usize, _: usize) -> Value {
        Value::Missing
    }
}

/// Evaluate a *load* op (one that reads no registers). `None` for
/// register-consuming ops.
fn load_op(op: &Op, ctx: &ExecCtx<'_>, consts: &[Value]) -> Option<Value> {
    Some(match *op {
        Op::Const { idx, .. } => consts[idx as usize].clone(),
        Op::Missing { .. } => Value::Missing,
        Op::EventId { slot, .. } => match ctx.events.get(slot as usize).copied().flatten() {
            Some(event) => Value::int(event.id as i64),
            None => Value::Missing,
        },
        Op::EventAttr { slot, attr, .. } => match ctx
            .events
            .get(slot as usize)
            .copied()
            .flatten()
            .and_then(|event| event.attr_value(attr))
        {
            Some(v) => Value::Attr(v),
            None => Value::Missing,
        },
        Op::EntityAttr { slot, attr, .. } => match ctx
            .entities
            .get(slot as usize)
            .copied()
            .flatten()
            .and_then(|entity| entity.attr_value(attr))
        {
            Some(v) => Value::Attr(v),
            None => Value::Missing,
        },
        Op::State { back, field, .. } => ctx.states.field(back as usize, field as usize),
        Op::GroupKey { slot, .. } => match ctx.group_keys.get(slot as usize) {
            Some(v) => Value::Attr(v.to_attr()),
            None => Value::Missing,
        },
        Op::Invariant { slot, .. } => ctx
            .invariants
            .get(slot as usize)
            .cloned()
            .unwrap_or(Value::Missing),
        Op::Cluster { field, .. } => match ctx.cluster {
            Some(outcome) => outcome.field(field),
            None => Value::Missing,
        },
        Op::Not { .. } | Op::Neg { .. } | Op::Card { .. } | Op::Bin { .. } => return None,
    })
}

/// Execute a compiled program against one context (rule matches,
/// window-close groups). `regs` is a caller-owned
/// scratch register file, reused across calls to keep the hot path
/// allocation-free once warm.
pub fn run_program(program: &Program, ctx: &ExecCtx<'_>, regs: &mut Vec<Value>) -> Value {
    // Single-op programs (a bare attribute load, a constant) skip the
    // register file entirely — the common shape of state-field arguments
    // and return items.
    if let [op] = program.ops.as_slice() {
        if let Some(v) = load_op(op, ctx, &program.consts) {
            return v;
        }
    }
    regs.clear();
    regs.resize(program.regs, Value::Missing);
    for op in &program.ops {
        let (dst, value) = match *op {
            Op::Not { dst, src } => (
                dst,
                match &regs[src as usize] {
                    Value::Missing => Value::Missing,
                    other => Value::bool(!other.truthy()),
                },
            ),
            Op::Neg { dst, src } => (
                dst,
                match regs[src as usize].as_f64() {
                    Some(x) => Value::float(-x),
                    None => Value::Missing,
                },
            ),
            Op::Card { dst, src } => (dst, regs[src as usize].cardinality()),
            Op::Bin { dst, op, lhs, rhs } => {
                // Straight-line registers are written once: take the
                // operands to skip refcount traffic on sets/strings.
                let l = std::mem::replace(&mut regs[lhs as usize], Value::Missing);
                let r = std::mem::replace(&mut regs[rhs as usize], Value::Missing);
                (dst, combine(op, l, r))
            }
            ref load => (
                load.dst(),
                load_op(load, ctx, &program.consts).expect("load ops carry no registers"),
            ),
        };
        regs[dst as usize] = value;
    }
    regs.pop().unwrap_or(Value::Missing)
}

/// One row of a batched *event-context* evaluation: which event of the
/// batch, and the alias/entity slots it fills. This is the whole context a
/// state-field program can see per event — everything else (states, group
/// keys, invariants, cluster) is window-close context and loads `Missing`.
/// Rows carry an index rather than a borrow so a query can keep its row
/// list as reusable scratch across batches.
#[derive(Debug, Clone, Copy)]
pub struct EventRow {
    /// Index of the event within the batch.
    pub row: u32,
    /// Alias slot this event fills (`events[ev_slot] = Some(event)`).
    pub ev_slot: usize,
    /// Entity-variable slot bound to the event's subject process.
    pub subject_slot: usize,
    /// Entity-variable slot bound to the event's object entity.
    pub object_slot: usize,
}

/// Evaluate a *load* op against `event` bound as [`EventRow`] `row`. `None`
/// for register-consuming ops. Mirrors [`load_op`] over the row's implied
/// context: the object binding is checked before the subject, so on a slot
/// collision (`proc p start proc p`) the object wins.
fn load_row(op: &Op, event: &Event, row: &EventRow, consts: &[Value]) -> Option<Value> {
    Some(match *op {
        Op::Const { idx, .. } => consts[idx as usize].clone(),
        Op::Missing { .. } => Value::Missing,
        Op::EventId { slot, .. } => {
            if slot as usize == row.ev_slot {
                Value::int(event.id as i64)
            } else {
                Value::Missing
            }
        }
        Op::EventAttr { slot, attr, .. } => {
            let v = if slot as usize == row.ev_slot {
                event.attr_value(attr)
            } else {
                None
            };
            match v {
                Some(v) => Value::Attr(v),
                None => Value::Missing,
            }
        }
        Op::EntityAttr { slot, attr, .. } => {
            let slot = slot as usize;
            let v = if slot == row.object_slot {
                event.object.attr_value(attr)
            } else if slot == row.subject_slot {
                event.subject.attr_value(attr)
            } else {
                None
            };
            match v {
                Some(v) => Value::Attr(v),
                None => Value::Missing,
            }
        }
        Op::State { .. } | Op::GroupKey { .. } | Op::Invariant { .. } | Op::Cluster { .. } => {
            Value::Missing
        }
        Op::Not { .. } | Op::Neg { .. } | Op::Card { .. } | Op::Bin { .. } => return None,
    })
}

/// Execute a compiled program across the selected rows of a batch — the
/// vectorized counterpart of [`run_program`] for event-context programs
/// (state fields). Ops run *op-major* over register **columns** (`cols`,
/// register-major: register `r`'s column occupies `cols[r*n .. (r+1)*n]`),
/// so each op's dispatch is amortized over the selection. `out` receives
/// the result column, one value per row of `rows`, identical to `n` calls
/// of `run_program` with the row's implied context.
///
/// Both scratch vectors are caller-owned and reused across batches.
pub fn run_program_batch(
    program: &Program,
    events: &[SharedEvent],
    rows: &[EventRow],
    cols: &mut Vec<Value>,
    out: &mut Vec<Value>,
) {
    out.clear();
    let n = rows.len();
    if n == 0 {
        return;
    }
    if program.ops.is_empty() || program.regs == 0 {
        out.resize(n, Value::Missing);
        return;
    }
    let event_of = |row: &EventRow| events[row.row as usize].as_ref();
    // Single-op programs (a bare attribute load, a constant) skip the
    // column file entirely — the common shape of state-field arguments.
    if let [op] = program.ops.as_slice() {
        if load_row(op, event_of(&rows[0]), &rows[0], &program.consts).is_some() {
            out.extend(
                rows.iter()
                    .map(|row| load_row(op, event_of(row), row, &program.consts).expect("load op")),
            );
            return;
        }
    }
    cols.clear();
    cols.resize(program.regs * n, Value::Missing);
    for op in &program.ops {
        match *op {
            Op::Not { dst, src } => {
                for i in 0..n {
                    let v = match &cols[src as usize * n + i] {
                        Value::Missing => Value::Missing,
                        other => Value::bool(!other.truthy()),
                    };
                    cols[dst as usize * n + i] = v;
                }
            }
            Op::Neg { dst, src } => {
                for i in 0..n {
                    let v = match cols[src as usize * n + i].as_f64() {
                        Some(x) => Value::float(-x),
                        None => Value::Missing,
                    };
                    cols[dst as usize * n + i] = v;
                }
            }
            Op::Card { dst, src } => {
                for i in 0..n {
                    let v = cols[src as usize * n + i].cardinality();
                    cols[dst as usize * n + i] = v;
                }
            }
            Op::Bin { dst, op, lhs, rhs } => {
                for i in 0..n {
                    // Straight-line registers are consumed once: take the
                    // operands, as `run_program` does.
                    let l = std::mem::replace(&mut cols[lhs as usize * n + i], Value::Missing);
                    let r = std::mem::replace(&mut cols[rhs as usize * n + i], Value::Missing);
                    cols[dst as usize * n + i] = combine(op, l, r);
                }
            }
            ref load => {
                let dst = load.dst() as usize;
                for (i, row) in rows.iter().enumerate() {
                    cols[dst * n + i] = load_row(load, event_of(row), row, &program.consts)
                        .expect("load ops carry no registers");
                }
            }
        }
    }
    let result = (program.regs - 1) * n;
    out.extend(
        cols[result..result + n]
            .iter_mut()
            .map(|v| std::mem::replace(v, Value::Missing)),
    );
}

/// The binary-operator kernel shared by the interpreter and the program
/// loop. `&&`/`||` are *eager* here: evaluation is total and effect-free,
/// so consuming both operands yields exactly the short-circuit result the
/// interpreter computes (the interpreter still short-circuits for speed).
pub(crate) fn combine(op: BinOp, l: Value, r: Value) -> Value {
    match op {
        BinOp::And => {
            if l.is_missing() {
                return Value::Missing;
            }
            if !l.truthy() {
                return Value::bool(false);
            }
            if r.is_missing() {
                return Value::Missing;
            }
            Value::bool(r.truthy())
        }
        BinOp::Or => {
            if !l.is_missing() && l.truthy() {
                return Value::bool(true);
            }
            if r.is_missing() {
                return if l.is_missing() {
                    Value::Missing
                } else {
                    Value::bool(false)
                };
            }
            if r.truthy() {
                return Value::bool(true);
            }
            if l.is_missing() {
                Value::Missing
            } else {
                Value::bool(false)
            }
        }
        BinOp::Cmp(cmp) => {
            if l.is_missing() || r.is_missing() {
                return Value::Missing;
            }
            let result = match cmp {
                CmpOp::Eq => l.loose_eq(&r),
                CmpOp::Ne => l.loose_eq(&r).map(|b| !b),
                CmpOp::Lt => l.loose_cmp(&r).map(|o| o.is_lt()),
                CmpOp::Le => l.loose_cmp(&r).map(|o| o.is_le()),
                CmpOp::Gt => l.loose_cmp(&r).map(|o| o.is_gt()),
                CmpOp::Ge => l.loose_cmp(&r).map(|o| o.is_ge()),
            };
            match result {
                Some(b) => Value::bool(b),
                None => Value::Missing,
            }
        }
        BinOp::Union => l.union(&r),
        BinOp::Diff => l.diff(&r),
        BinOp::Intersect => l.intersect(&r),
        BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Mod => {
            let (Some(a), Some(b)) = (l.as_f64(), r.as_f64()) else {
                return Value::Missing;
            };
            let x = match op {
                BinOp::Add => a + b,
                BinOp::Sub => a - b,
                BinOp::Mul => a * b,
                BinOp::Div => {
                    if b == 0.0 {
                        return Value::Missing;
                    }
                    a / b
                }
                BinOp::Mod => {
                    if b == 0.0 {
                        return Value::Missing;
                    }
                    a % b
                }
                _ => unreachable!("arithmetic arm"),
            };
            Value::float(x)
        }
    }
}

/// Evaluation scope. Build one per alert/return evaluation.
pub struct Scope<'a> {
    /// alias → matched event (rule queries; also the single pattern of
    /// stateful queries while aggregating).
    pub events: HashMap<&'a str, &'a saql_model::Event>,
    /// entity variable → bound entity.
    pub entities: HashMap<&'a str, &'a Entity>,
    /// Group-key values by `var` / `var.attr` textual form (stateful queries
    /// evaluate return/alert per group, where only group keys are bound).
    pub group_keys: HashMap<String, AttrValue>,
    /// State lookup for `ss[i].field`.
    pub states: &'a dyn StateLookup,
    /// Invariant variables of the group in scope (owned: invariant runtimes
    /// mutate while scopes are alive).
    pub invariants: HashMap<String, Value>,
    /// Cluster outcome of the group in scope.
    pub cluster: Option<ClusterOutcome>,
}

impl<'a> Scope<'a> {
    /// An empty scope (everything resolves to `Missing`).
    pub fn empty() -> Scope<'a> {
        Scope {
            events: HashMap::new(),
            entities: HashMap::new(),
            group_keys: HashMap::new(),
            states: &NoState,
            invariants: HashMap::new(),
            cluster: None,
        }
    }

    fn resolve(&self, base: &str, index: Option<usize>, attr: Option<&str>) -> Value {
        // 1. `cluster.*` pseudo-object.
        if base == "cluster" {
            let Some(c) = self.cluster else {
                return Value::Missing;
            };
            return match attr {
                Some("outlier") => Value::bool(c.outlier),
                Some("cluster_id") => match c.cluster_id {
                    Some(id) => Value::int(id as i64),
                    None => Value::int(-1),
                },
                Some("size") => Value::int(c.size as i64),
                _ => Value::Missing,
            };
        }
        // 2. State reference (with or without `[i]`).
        let state = self.states.state_value(base, index.unwrap_or(0), attr);
        if !state.is_missing() {
            return state;
        }
        if index.is_some() {
            // Indexed refs are necessarily states; don't fall through.
            return state;
        }
        // 3. Event alias attribute: `evt.amount`.
        if let Some(event) = self.events.get(base) {
            if let Some(attr) = attr {
                if let Some(v) = event.attr(attr) {
                    return Value::Attr(v);
                }
                // Fall through to subject/object resolution below via
                // entities map (aliases don't carry entity attrs).
                return Value::Missing;
            }
            return Value::int(event.id as i64);
        }
        // 4. Entity variable: `p1.exe_name`, or `p1` (default attr).
        if let Some(entity) = self.entities.get(base) {
            let attr_name = attr.unwrap_or_else(|| entity.entity_type().default_attr());
            return match entity.attr(attr_name) {
                Some(v) => Value::Attr(v),
                None => Value::Missing,
            };
        }
        // 5. Group keys (stateful queries): exact `var.attr` form first,
        // then bare `var`.
        let key = match attr {
            Some(a) => format!("{base}.{a}"),
            None => base.to_string(),
        };
        if let Some(v) = self.group_keys.get(&key) {
            return Value::Attr(v.clone());
        }
        // A bare group key may have been declared as `var` but referenced
        // with its default attribute spelled out (or vice versa); the
        // builder inserts both spellings, so no extra logic here.
        // 6. Invariant variables.
        if let Some(v) = self.invariants.get(base) {
            if attr.is_none() {
                return v.clone();
            }
        }
        Value::Missing
    }
}

/// Evaluate an expression in a scope. Total: never panics on stream data;
/// anything unresolvable is `Missing`.
pub fn eval(expr: &Expr, scope: &Scope<'_>) -> Value {
    match expr {
        Expr::Lit(l) => Value::Attr(l.to_attr()),
        Expr::EmptySet => Value::empty_set(),
        Expr::Ref(r) => scope.resolve(&r.base, r.index, r.attr.as_deref()),
        Expr::Card(e) => eval(e, scope).cardinality(),
        Expr::Unary { op, expr } => {
            let v = eval(expr, scope);
            match op {
                UnaryOp::Not => match v {
                    Value::Missing => Value::Missing,
                    other => Value::bool(!other.truthy()),
                },
                UnaryOp::Neg => match v.as_f64() {
                    Some(x) => Value::float(-x),
                    None => Value::Missing,
                },
            }
        }
        Expr::Binary { op, lhs, rhs } => eval_binary(*op, lhs, rhs, scope),
        // Aggregate calls never appear outside state fields (semantic pass
        // guarantees it); the state maintainer evaluates field *arguments*,
        // not the calls themselves.
        Expr::Call { .. } => Value::Missing,
    }
}

fn eval_binary(op: BinOp, lhs: &Expr, rhs: &Expr, scope: &Scope<'_>) -> Value {
    // Short-circuit the logical operators (the kernel's eager forms agree
    // on values; skipping the right subtree is pure speed).
    let l = eval(lhs, scope);
    match op {
        BinOp::And if l.is_missing() => return Value::Missing,
        BinOp::And if !l.truthy() => return Value::bool(false),
        BinOp::Or if !l.is_missing() && l.truthy() => return Value::bool(true),
        _ => {}
    }
    combine(op, l, eval(rhs, scope))
}

#[cfg(test)]
mod tests {
    use super::*;
    use saql_lang::parser::Parser;
    use saql_model::event::EventBuilder;
    use saql_model::{FileInfo, ProcessInfo};

    fn expr(src: &str) -> Expr {
        Parser::new(saql_lang::lexer::lex(src).unwrap())
            .expr()
            .unwrap()
    }

    fn ev() -> saql_model::Event {
        EventBuilder::new(3, "db-server", 1234)
            .subject(ProcessInfo::new(77, "sqlservr.exe", "svc"))
            .writes_file(FileInfo::new("backup1.dmp"))
            .amount(4096)
            .build()
    }

    #[test]
    fn literal_arithmetic() {
        let s = Scope::empty();
        assert_eq!(eval(&expr("1 + 2 * 3"), &s).as_f64(), Some(7.0));
        assert_eq!(eval(&expr("(1 + 2) * 3"), &s).as_f64(), Some(9.0));
        assert_eq!(eval(&expr("10 / 4"), &s).as_f64(), Some(2.5));
        assert_eq!(eval(&expr("10 % 3"), &s).as_f64(), Some(1.0));
        assert_eq!(eval(&expr("-(3)"), &s).as_f64(), Some(-3.0));
    }

    #[test]
    fn division_by_zero_is_missing() {
        let s = Scope::empty();
        assert!(eval(&expr("1 / 0"), &s).is_missing());
        assert!(eval(&expr("1 % 0"), &s).is_missing());
    }

    #[test]
    fn event_attr_resolution() {
        let event = ev();
        let mut s = Scope::empty();
        s.events.insert("evt", &event);
        assert_eq!(eval(&expr("evt.amount"), &s).as_f64(), Some(4096.0));
        assert_eq!(eval(&expr("evt.agentid"), &s).to_string(), "db-server");
        assert!(eval(&expr("evt.bogus"), &s).is_missing());
    }

    #[test]
    fn entity_default_attr_shortcut() {
        let entity = Entity::Process(ProcessInfo::new(9, "cmd.exe", "u"));
        let mut s = Scope::empty();
        s.entities.insert("p1", &entity);
        assert_eq!(eval(&expr("p1"), &s).to_string(), "cmd.exe");
        assert_eq!(eval(&expr("p1.pid"), &s).as_f64(), Some(9.0));
        assert_eq!(eval(&expr("p1.exe_name"), &s).to_string(), "cmd.exe");
    }

    #[test]
    fn comparisons_and_logic() {
        let event = ev();
        let mut s = Scope::empty();
        s.events.insert("evt", &event);
        assert!(eval(&expr("evt.amount > 1000 && evt.amount < 10000"), &s).truthy());
        assert!(!eval(&expr("evt.amount > 1000 && evt.amount > 10000"), &s).truthy());
        assert!(eval(&expr("evt.amount = 4096"), &s).truthy());
        assert!(eval(&expr("!(evt.amount = 4096)"), &s)
            .loose_eq(&Value::bool(false))
            .unwrap());
    }

    #[test]
    fn missing_propagates_and_blocks_alerts() {
        let s = Scope::empty();
        let v = eval(&expr("ss[1].avg > 10"), &s);
        assert!(v.is_missing());
        assert!(!v.truthy());
        // Short-circuit still definite when LHS is definite false.
        assert!(!eval(&expr("1 > 2 && nosuch.x > 1"), &s).truthy());
        assert!(eval(&expr("1 < 2 || nosuch.x > 1"), &s).truthy());
    }

    #[test]
    fn set_expressions() {
        let mut s = Scope::empty();
        s.invariants.insert(
            "a".to_string(),
            Value::set_from(["cmd.exe".to_string(), "php.exe".to_string()]),
        );
        assert_eq!(eval(&expr("|a|"), &s).as_f64(), Some(2.0));
        assert_eq!(eval(&expr("|a diff empty_set|"), &s).as_f64(), Some(2.0));
        assert_eq!(eval(&expr("|empty_set diff a|"), &s).as_f64(), Some(0.0));
        assert!(eval(&expr("|a| > 1"), &s).truthy());
    }

    #[test]
    fn cluster_pseudo_object() {
        let mut s = Scope::empty();
        s.cluster = Some(ClusterOutcome {
            outlier: true,
            cluster_id: None,
            size: 1,
        });
        assert!(eval(&expr("cluster.outlier"), &s).truthy());
        assert_eq!(eval(&expr("cluster.cluster_id"), &s).as_f64(), Some(-1.0));
        assert_eq!(eval(&expr("cluster.size"), &s).as_f64(), Some(1.0));
        s.cluster = None;
        assert!(eval(&expr("cluster.outlier"), &s).is_missing());
    }

    #[test]
    fn group_key_resolution() {
        let mut s = Scope::empty();
        s.group_keys
            .insert("i.dstip".into(), AttrValue::str("10.0.0.9"));
        s.group_keys.insert("p".into(), AttrValue::str("cmd.exe"));
        assert_eq!(eval(&expr("i.dstip"), &s).to_string(), "10.0.0.9");
        assert_eq!(eval(&expr("p"), &s).to_string(), "cmd.exe");
    }

    #[test]
    fn batched_programs_match_per_event_oracle() {
        use crate::plan::QueryPlan;
        // Field programs exercise loads, arithmetic, and an entity attr.
        let checked = saql_lang::compile(
            "proc p write file f as evt #time(10 min)\nstate[3] ss { scaled := sum(evt.amount * 2 + 1); name := count(f.name) } group by p\nalert ss[0].scaled > 10\nreturn p",
        )
        .unwrap();
        let plan = QueryPlan::compile(&checked);
        let events: Vec<SharedEvent> = (0..5)
            .map(|i| {
                std::sync::Arc::new(
                    EventBuilder::new(i, "db-server", 100 * i)
                        .subject(ProcessInfo::new(7, "sqlservr.exe", "svc"))
                        .writes_file(FileInfo::new(format!("f{i}.dmp")))
                        .amount(1000 * i)
                        .build(),
                )
            })
            .collect();
        // Rows select a strict subset, out of step with batch positions.
        let rows: Vec<EventRow> = [0u32, 2, 3]
            .into_iter()
            .map(|row| EventRow {
                row,
                ev_slot: 0,
                subject_slot: plan.pattern_slots[0].0,
                object_slot: plan.pattern_slots[0].1,
            })
            .collect();
        let (mut cols, mut out, mut regs) = (Vec::new(), Vec::new(), Vec::new());
        for program in plan
            .field_programs
            .iter()
            .chain(plan.ret.iter().map(|(_, p)| p))
        {
            run_program_batch(program, &events, &rows, &mut cols, &mut out);
            assert_eq!(out.len(), rows.len());
            for (row, got) in rows.iter().zip(&out) {
                let event = events[row.row as usize].as_ref();
                let events_slot = [Some(event)];
                let subject = Entity::Process(event.subject.clone());
                let entities = [Some(&subject), Some(&event.object)];
                let expected = crate::eval::run_program(
                    program,
                    &ExecCtx {
                        events: &events_slot,
                        entities: &entities,
                        group_keys: &[],
                        states: &NoSlots,
                        invariants: &[],
                        cluster: None,
                    },
                    &mut regs,
                );
                assert_eq!(format!("{got:?}"), format!("{expected:?}"));
            }
        }
    }

    #[test]
    fn query2_alert_shape_with_history() {
        struct FakeStates;
        impl StateLookup for FakeStates {
            fn state_value(&self, name: &str, back: usize, field: Option<&str>) -> Value {
                if name != "ss" || field != Some("avg_amount") {
                    return Value::Missing;
                }
                match back {
                    0 => Value::float(50_000.0),
                    1 => Value::float(1_000.0),
                    2 => Value::float(2_000.0),
                    _ => Value::Missing,
                }
            }
        }
        let mut s = Scope::empty();
        s.states = &FakeStates;
        let alert = expr(
            "(ss[0].avg_amount > (ss[0].avg_amount + ss[1].avg_amount + ss[2].avg_amount) / 3) && (ss[0].avg_amount > 10000)",
        );
        assert!(eval(&alert, &s).truthy());
    }
}
