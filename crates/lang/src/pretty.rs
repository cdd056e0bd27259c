//! Pretty-printer: renders an AST back to canonical SAQL text.
//!
//! The printer output re-parses to an identical AST (checked by unit tests
//! here and by the property tests in `tests/`), which makes it safe to use
//! for query normalization, logging, and the command-line UI's `show`
//! command.

use std::fmt::Write;

use crate::ast::*;

/// Render a query as canonical SAQL text.
pub fn print_query(q: &Query) -> String {
    let mut out = String::new();
    if let Some(f) = &q.from_query {
        out.push_str("from");
        if let Some(n) = &f.name {
            write!(out, " query \"{n}\"").unwrap();
        }
        if let Some(w) = &f.window {
            write!(out, " #time({}", w.size).unwrap();
            if w.slide != w.size {
                write!(out, ", {}", w.slide).unwrap();
            }
            out.push(')');
        }
        out.push('\n');
    }
    for g in &q.globals {
        writeln!(
            out,
            "{} {} {}",
            g.attr,
            g.op.symbol(),
            print_literal(&g.value)
        )
        .unwrap();
    }
    for p in &q.patterns {
        writeln!(out, "{}", print_pattern(p)).unwrap();
    }
    if let Some(t) = &q.temporal {
        out.push_str("with ");
        for (i, step) in t.steps.iter().enumerate() {
            // A step's bounded gap annotates the arrow that follows it.
            if i > 0 {
                match t.steps[i - 1].max_gap {
                    Some(gap) => write!(out, " ->[{gap}] ").unwrap(),
                    None => out.push_str(" -> "),
                }
            }
            out.push_str(&step.alias);
        }
        out.push('\n');
    }
    for s in &q.states {
        out.push_str(&print_state(s));
    }
    for inv in &q.invariants {
        out.push_str(&print_invariant(inv));
    }
    if let Some(c) = &q.cluster {
        out.push_str(&print_cluster(c));
    }
    if let Some(a) = &q.alert {
        writeln!(out, "alert {}", print_expr(a)).unwrap();
    }
    if let Some(r) = &q.ret {
        out.push_str("return ");
        if r.distinct {
            out.push_str("distinct ");
        }
        for (i, item) in r.items.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&print_expr(&item.expr));
            if let Some(alias) = &item.alias {
                write!(out, " as {alias}").unwrap();
            }
        }
        out.push('\n');
    }
    out
}

fn print_pattern(p: &EventPattern) -> String {
    let ops = p
        .ops
        .iter()
        .map(|o| o.keyword())
        .collect::<Vec<_>>()
        .join(" || ");
    let mut s = format!(
        "{} {} {} as {}",
        print_entity(&p.subject),
        ops,
        print_entity(&p.object),
        p.alias
    );
    if let Some(w) = p.window {
        if w.slide == w.size {
            write!(s, " #time({})", w.size).unwrap();
        } else {
            write!(s, " #time({}, {})", w.size, w.slide).unwrap();
        }
    }
    s
}

fn print_entity(e: &EntityDecl) -> String {
    let mut s = format!("{} {}", e.etype.keyword(), e.var);
    if !e.constraints.is_empty() {
        s.push('[');
        for (i, c) in e.constraints.iter().enumerate() {
            if i > 0 {
                s.push_str(" && ");
            }
            match &c.attr {
                None => s.push_str(&print_literal(&c.value)),
                Some(attr) => {
                    write!(s, "{} {} {}", attr, c.op.symbol(), print_literal(&c.value)).unwrap()
                }
            }
        }
        s.push(']');
    }
    s
}

fn print_state(s: &StateBlock) -> String {
    let mut out = String::from("state");
    if s.history != 1 {
        write!(out, "[{}]", s.history).unwrap();
    }
    writeln!(out, " {} {{", s.name).unwrap();
    for f in &s.fields {
        // `count()` prints without its implicit `1` argument;
        // `percentile` re-attaches its rank.
        let arg = if f.agg == AggFunc::Count && f.arg == Expr::Lit(Literal::Int(1)) {
            String::new()
        } else if let AggFunc::Percentile(q) = f.agg {
            format!("{}, {}", print_expr(&f.arg), q)
        } else {
            print_expr(&f.arg)
        };
        writeln!(out, "    {} := {}({})", f.name, f.agg.name(), arg).unwrap();
    }
    out.push('}');
    if !s.group_by.is_empty() {
        out.push_str(" group by ");
        for (i, k) in s.group_by.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&k.var);
            if let Some(attr) = &k.attr {
                write!(out, ".{attr}").unwrap();
            }
        }
    }
    out.push('\n');
    out
}

fn print_invariant(inv: &InvariantBlock) -> String {
    let mode = match inv.mode {
        InvariantMode::Offline => "offline",
        InvariantMode::Online => "online",
    };
    let mut out = format!("invariant[{}][{}] {{\n", inv.train_windows, mode);
    for st in &inv.stmts {
        let op = if st.init { ":=" } else { "=" };
        writeln!(out, "    {} {} {}", st.var, op, print_expr(&st.expr)).unwrap();
    }
    out.push_str("}\n");
    out
}

fn print_cluster(c: &ClusterSpec) -> String {
    let points = c
        .points
        .iter()
        .map(print_expr)
        .collect::<Vec<_>>()
        .join(", ");
    let distance = match c.distance {
        Distance::Euclidean => "ed",
        Distance::Manhattan => "md",
    };
    let method = match &c.method {
        ClusterMethod::Dbscan { eps, min_pts } => format!("DBSCAN({eps}, {min_pts})"),
        ClusterMethod::KMeans { k } => format!("KMEANS({k})"),
        ClusterMethod::ZScore { threshold } => format!("ZSCORE({threshold})"),
    };
    format!("cluster(points=all({points}), distance=\"{distance}\", method=\"{method}\")\n")
}

fn print_literal(l: &Literal) -> String {
    match l {
        Literal::Int(v) => v.to_string(),
        Literal::Float(v) => {
            if v.fract() == 0.0 {
                format!("{v:.1}")
            } else {
                v.to_string()
            }
        }
        Literal::Str(s) => format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\"")),
        Literal::Bool(b) => b.to_string(),
    }
}

/// Render an expression with parentheses only where the parser would
/// otherwise build a different tree: around a looser-binding operand, the
/// right operand of a left-associative operator of the same precedence, a
/// comparison under a comparison (they do not chain), and a binary operand
/// of a unary operator. The text parsed back is never deeper than the text
/// the tree was parsed from, so a query at the depth limit prints to one
/// that still compiles.
pub fn print_expr(e: &Expr) -> String {
    match e {
        Expr::Lit(l) => print_literal(l),
        Expr::EmptySet => "empty_set".to_string(),
        Expr::Ref(r) => {
            let mut s = r.base.clone();
            if let Some(i) = r.index {
                write!(s, "[{i}]").unwrap();
            }
            if let Some(a) = &r.attr {
                write!(s, ".{a}").unwrap();
            }
            s
        }
        Expr::Unary { op, expr } => {
            let sym = match op {
                UnaryOp::Neg => "-",
                UnaryOp::Not => "!",
            };
            // Unary operators bind tighter than every binary one.
            format!("{sym}{}", operand(expr, u8::MAX))
        }
        Expr::Binary { op, lhs, rhs } => {
            let prec = op.precedence();
            let left = if matches!(op, BinOp::Cmp(_)) {
                prec + 1
            } else {
                prec
            };
            let (lhs, rhs) = (operand(lhs, left), operand(rhs, prec + 1));
            format!("{lhs} {} {rhs}", op.symbol())
        }
        Expr::Card(inner) => format!("|{}|", print_expr(inner)),
        Expr::Call { name, args, .. } => {
            let args = args.iter().map(print_expr).collect::<Vec<_>>().join(", ");
            format!("{name}({args})")
        }
    }
}

/// `e` as an operand that must bind at least as tightly as `min`
/// ([`BinOp::precedence`]): parenthesized when it is a binary operation of
/// lower precedence.
fn operand(e: &Expr, min: u8) -> String {
    match e {
        Expr::Binary { op, .. } if op.precedence() < min => format!("({})", print_expr(e)),
        _ => print_expr(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::{DEMO_QUERIES, PAPER_QUERIES};
    use crate::parse;

    /// Strip spans so two ASTs compare structurally.
    fn reparse(q: &Query) -> Query {
        let text = print_query(q);
        parse(&text).unwrap_or_else(|e| {
            panic!(
                "printer output failed to parse: {}\n{}",
                e.render(&text),
                text
            )
        })
    }

    #[test]
    fn paper_queries_roundtrip_structurally() {
        for src in PAPER_QUERIES {
            let q1 = parse(src).unwrap();
            let q2 = reparse(&q1);
            // Compare via a second print: print(parse(print(q))) == print(q).
            assert_eq!(print_query(&q1), print_query(&q2));
        }
    }

    #[test]
    fn demo_queries_roundtrip_structurally() {
        for (name, src) in DEMO_QUERIES {
            let q1 = parse(src).unwrap();
            let q2 = reparse(&q1);
            assert_eq!(
                print_query(&q1),
                print_query(&q2),
                "roundtrip drift in {name}"
            );
        }
    }

    /// `e` with every binary node and unary operand in parentheses: its
    /// tree shape, whatever parentheses the text had.
    fn shape(e: &Expr) -> String {
        match e {
            Expr::Unary { op, expr } => format!("{op:?}({})", shape(expr)),
            Expr::Binary { op, lhs, rhs } => {
                format!("({} {} {})", shape(lhs), op.symbol(), shape(rhs))
            }
            Expr::Card(inner) => format!("|{}|", shape(inner)),
            Expr::Call { name, args, .. } => {
                let args: Vec<String> = args.iter().map(shape).collect();
                format!("{name}({})", args.join(", "))
            }
            leaf => print_expr(leaf),
        }
    }

    #[test]
    fn expr_parenthesization_preserves_shape() {
        for (src, printed) in [
            ("a + b * c > d && !e", "a + b * c > d && !e"),
            ("(a + b) * c", "(a + b) * c"),
            ("(a - b) - c", "a - b - c"),
            ("a - (b - c)", "a - (b - c)"),
            ("a / (b * c) % d", "a / (b * c) % d"),
            ("((a || b)) && (c || d)", "(a || b) && (c || d)"),
            ("a || (b && c)", "a || b && c"),
            ("(a == b) == (c < d)", "(a = b) = (c < d)"),
            (
                "(a union b) diff (c intersect d)",
                "a union b diff (c intersect d)",
            ),
            ("|ss.s diff a| > 0", "|ss.s diff a| > 0"),
            ("-(a + b) * -c", "-(a + b) * -c"),
            ("!(a && b) || !!(c)", "!(a && b) || !!c"),
            ("f((a + b), c * d) - (1)", "f(a + b, c * d) - 1"),
        ] {
            let e = parse(&format!("alert {src}")).unwrap().alert.unwrap();
            assert_eq!(print_expr(&e), printed, "{src}");
            let again = parse(&format!("alert {printed}")).unwrap().alert.unwrap();
            assert_eq!(shape(&again), shape(&e), "{src}");
        }
    }

    #[test]
    fn bounded_gap_prints() {
        let q = parse(
            "proc a start proc b as e1\nproc b start proc c as e2\nwith e1 ->[45 s] e2\nreturn a",
        )
        .unwrap();
        let text = print_query(&q);
        assert!(text.contains("->[45 s]"), "{text}");
        let q2 = parse(&text).unwrap();
        assert_eq!(text, print_query(&q2));
    }

    #[test]
    fn string_escapes_roundtrip() {
        let q = parse(r#"alert x = "a\"b\\c""#).unwrap();
        let text = print_query(&q);
        let q2 = parse(&text).unwrap();
        assert_eq!(text, print_query(&q2));
    }
}
