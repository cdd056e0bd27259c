//! Query text is hostile input: expression depth is bounded, so no query
//! text can overflow the stack of the thread that registers it.
//!
//! The parser, the checker, plan lowering, the return-label printer and the
//! AST's `Drop` all recurse along an expression. Without a bound, an
//! `alert` nested in 700 parentheses overflowed `saql serve`'s core thread
//! and aborted the process with every tenant on it; no `catch_unwind` can
//! stop a stack overflow. Each probe below sits in each expression position
//! of a query (alert, state field, invariant statement, cluster point,
//! return item) and goes through `saql_lang::compile`, `QueryPlan::compile`
//! and `RunSession::control(Register)` on a thread whose stack is [`STACK`]:
//! the probes must come back as a spanned refusal naming the limit, and
//! text exactly at the limit must register. Seeded mutants of every
//! shipped query take the same three steps and must come back `Ok` or
//! `Err`, never as a panic.

use saql::engine::plan::QueryPlan;
use saql::engine::{Control, ControlReply, Engine, EngineConfig, Scope};
use saql::lang::parser::MAX_EXPR_DEPTH;

/// Stack of the thread every text runs on. Well below std's 2 MiB default,
/// and small enough that a parser without the bound overflows on the
/// 700-level probe in a debug build.
const STACK: usize = 512 * 1024;

/// Each expression position: a query template whose `{E}` is replaced by
/// the probe, and the term the probe is built from there.
const POSITIONS: [(&str, &str, &str); 5] = [
    (
        "alert",
        "proc p write ip i as evt\nalert {E}\nreturn p",
        "1",
    ),
    (
        "state field",
        "proc p write ip i as evt #time(10 s)\n\
         state ss { n := sum({E}) } group by p\nreturn p, ss[0].n",
        "evt.amount",
    ),
    (
        "invariant statement",
        "proc p1 start proc p2 as evt #time(10 s)\n\
         state ss { s := set(p2.exe_name) } group by p1\n\
         invariant[2][offline] {\n a := empty_set\n a = {E}\n}\n\
         alert |ss.s diff a| > 0\nreturn p1",
        "a",
    ),
    (
        "cluster point",
        "proc p write ip i as evt #time(10 min)\n\
         state ss { amt := sum(evt.amount) } group by i.dstip\n\
         cluster(points=all({E}), distance=\"ed\", method=\"DBSCAN(100000, 5)\")\n\
         alert cluster.outlier\nreturn i.dstip",
        "ss.amt",
    ),
    (
        "return item",
        "proc p write ip i as evt\nreturn p, {E}",
        "i.dstip",
    ),
];

/// `term` inside `levels` parentheses: `levels + 1` deep.
fn parens(term: &str, levels: usize) -> String {
    format!("{}{term}{}", "(".repeat(levels), ")".repeat(levels))
}

/// A flat `&&` chain of `terms` terms: `terms` deep.
fn chain(term: &str, terms: usize) -> String {
    vec![term; terms].join(" && ")
}

/// Run `f` on a thread with a [`STACK`]-byte stack.
fn on_small_stack<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    std::thread::Builder::new()
        .stack_size(STACK)
        .spawn(f)
        .expect("spawn probe thread")
        .join()
        .expect("probe thread panicked")
}

/// Register `text` as `q` through the control plane of a fresh session.
fn register(text: String) -> Result<ControlReply, String> {
    let mut engine = Engine::new(EngineConfig::default());
    let mut session = engine.session();
    let op = Control::Register {
        name: "q".into(),
        text,
    };
    session.control(&Scope::UNSCOPED, op)
}

/// `text` is refused on every path with a spanned error naming the limit.
fn assert_refused(what: &str, text: String) {
    let limit = format!("the limit is {MAX_EXPR_DEPTH} levels");
    let (compiled, registered) = on_small_stack(move || {
        let compiled = saql::lang::compile(&text).map(|_| ());
        (compiled, register(text).map(|_| ()))
    });
    let err = compiled.expect_err(what);
    assert!(err.message.contains(&limit), "{what}: {err}");
    assert!(err.span.line > 0, "{what}: unspanned {err:?}");
    let err = registered.expect_err(what);
    assert!(err.contains(&limit) && err.contains('^'), "{what}: {err}");
}

/// `text` compiles, lowers and registers.
fn assert_accepted(what: &str, text: String) {
    let outcome = on_small_stack(move || {
        let checked = saql::lang::compile(&text).map_err(|e| e.to_string())?;
        let plan = QueryPlan::compile(&checked);
        register(text)?;
        Ok::<usize, String>(plan.programs().count())
    });
    let programs = outcome.unwrap_or_else(|e| panic!("{what}: {e}"));
    assert!(programs > 0, "{what}");
}

#[test]
fn deep_and_long_expressions_are_refused_in_every_position() {
    for (position, template, term) in POSITIONS {
        let probes = [
            ("700 parentheses", parens(term, 700)),
            ("5,000 parentheses", parens(term, 5_000)),
            ("a 100,000-term chain", chain(term, 100_000)),
            ("one level past the limit", parens(term, MAX_EXPR_DEPTH)),
            ("a chain one term too long", chain(term, MAX_EXPR_DEPTH + 1)),
        ];
        for (probe, expr) in probes {
            let what = format!("{probe} in the {position}");
            assert_refused(&what, template.replace("{E}", &expr));
        }
    }
}

#[test]
fn a_refusal_shows_a_bounded_window_of_a_long_line() {
    // A 100,000-term chain is one ~500 KB line: the refusal shows the part
    // of it around the span, with the caret under it, not the whole line.
    for (position, template, term) in POSITIONS {
        let text = template.replace("{E}", &chain(term, 100_000));
        let err = on_small_stack(move || register(text).map(|_| ())).expect_err(position);
        assert!(err.len() < 1024, "{position}: {} bytes", err.len());
        let lines: Vec<&str> = err.lines().collect();
        let at = lines
            .iter()
            .position(|l| l.contains('^'))
            .unwrap_or_else(|| panic!("{position}: no caret in {err}"));
        let caret = lines[at].chars().position(|c| c == '^').unwrap();
        let under = lines[at - 1].chars().nth(caret);
        assert!(under.is_some_and(|c| c != ' '), "{position}: {err}");
    }
}

/// The expressions built from `term` exactly at the depth limit.
fn at_limit(term: &str) -> [(&'static str, String); 3] {
    [
        ("parentheses", parens(term, MAX_EXPR_DEPTH - 1)),
        ("a chain", chain(term, MAX_EXPR_DEPTH)),
        (
            "unary operators",
            format!("{}{term}", "!".repeat(MAX_EXPR_DEPTH - 1)),
        ),
    ]
}

#[test]
fn expressions_exactly_at_the_limit_register_in_every_position() {
    for (position, template, term) in POSITIONS {
        for (shape, expr) in at_limit(term) {
            let what = format!("{shape} at the limit in the {position}");
            assert_accepted(&what, template.replace("{E}", &expr));
        }
    }
}

#[test]
fn expressions_at_the_limit_print_to_text_that_compiles_to_the_same_tree() {
    // The printer adds parentheses only where the tree needs them, so it
    // never prints a query deeper than the text it was parsed from.
    for (position, template, term) in POSITIONS {
        for (shape, expr) in at_limit(term) {
            let what = format!("{shape} at the limit in the {position}, printed");
            let text = template.replace("{E}", &expr);
            let trees = on_small_stack(move || {
                let parsed = saql::lang::parse(&text).map_err(|e| e.to_string())?;
                let printed = saql::lang::pretty::print_query(&parsed);
                saql::lang::compile(&printed).map_err(|e| e.to_string())?;
                let reparsed = saql::lang::parse(&printed).map_err(|e| e.to_string())?;
                Ok::<_, String>((parsed, reparsed))
            });
            let (parsed, reparsed) = trees.unwrap_or_else(|e| panic!("{what}: {e}"));
            assert_eq!(
                unspanned(&format!("{parsed:?}")),
                unspanned(&format!("{reparsed:?}")),
                "{what}"
            );
        }
    }
}

/// An AST's `{:?}` without its `span: Span { .. }` fields, which differ
/// between two layouts of one tree.
fn unspanned(debug: &str) -> String {
    let (mut out, mut rest) = (String::new(), debug);
    while let Some(at) = rest.find("span: Span {") {
        out.push_str(&rest[..at]);
        rest = &rest[at..];
        rest = &rest[rest.find('}').expect("a span closes") + 1..];
    }
    out + rest
}

#[test]
fn every_shipped_query_stays_far_below_the_limit() {
    // A query whose depth were near the limit would be one edit from a
    // refusal; the deepest shipped expression is a handful of levels.
    let family = std::fs::read_dir("benchmark/queries/family").expect("family queries");
    let mut texts: Vec<String> = family
        .map(|entry| std::fs::read_to_string(entry.unwrap().path()).unwrap())
        .collect();
    texts.extend(saql::corpus::PAPER_QUERIES.map(String::from));
    texts.extend(saql::corpus::DEMO_QUERIES.map(|(_, src)| src.to_string()));
    assert_eq!(texts.len(), 20);
    for text in texts {
        let stages = saql::lang::split_stages("q", &text).expect("shipped query parses");
        for stage in stages {
            let q = saql::lang::parse(&stage.source).unwrap();
            let fields = q.states.iter().flat_map(|s| &s.fields).map(|f| &f.arg);
            let stmts = q.invariants.iter().flat_map(|b| &b.stmts).map(|s| &s.expr);
            let points = q.cluster.iter().flat_map(|c| &c.points);
            let items = q.ret.iter().flat_map(|r| &r.items).map(|i| &i.expr);
            let depth = (fields
                .chain(stmts)
                .chain(points)
                .chain(&q.alert)
                .chain(items))
            .map(depth_of)
            .max()
            .unwrap_or(0);
            assert!(
                depth * 8 <= MAX_EXPR_DEPTH,
                "{depth} deep: {}",
                stage.source
            );
        }
    }
}

/// The depth the parser counts for `e`, less its parentheses (which the
/// tree does not keep): a lower bound of what the parser saw.
fn depth_of(e: &saql::lang::ast::Expr) -> usize {
    use saql::lang::ast::Expr;
    1 + match e {
        Expr::Unary { expr, .. } | Expr::Card(expr) => depth_of(expr),
        Expr::Binary { lhs, rhs, .. } => depth_of(lhs).max(depth_of(rhs)),
        Expr::Call { args, .. } => args.iter().map(depth_of).max().unwrap_or(0),
        Expr::Lit(_) | Expr::EmptySet | Expr::Ref(_) => 0,
    }
}

/// Tokens a mutation inserts: the language's punctuation and keywords,
/// and bytes a lexer has to refuse.
const TOKENS: [&str; 24] = [
    "(", ")", "[", "]", "{", "}", "\"", "&&", "||", "->", "|>", "#time(", "10 s", "state",
    "group by", "alert", "return", "ss[0].", "ss[1].", ",", ":=", "\n", "é", "0",
];

/// A deterministic xorshift stream: the same mutants on every run.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: usize) -> usize {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0 % n.max(1) as u64) as usize
    }
}

/// One to three random edits of `text`: delete, duplicate or move a run
/// of characters, insert a token, or overwrite a character.
fn mutate(text: &str, rng: &mut Rng) -> String {
    let mut chars: Vec<char> = text.chars().collect();
    for _ in 0..1 + rng.below(3) {
        let at = rng.below(chars.len() + 1);
        let len = (1 + rng.below(12)).min(chars.len() - at.min(chars.len()));
        match rng.below(5) {
            0 => {
                chars.drain(at..at + len);
            }
            1 => {
                let run: Vec<char> = chars[at..at + len].to_vec();
                let to = rng.below(chars.len() + 1);
                chars.splice(to..to, run);
            }
            2 => {
                let run: Vec<char> = chars.drain(at..at + len).collect();
                let to = rng.below(chars.len() + 1);
                chars.splice(to..to, run);
            }
            3 => {
                let token = TOKENS[rng.below(TOKENS.len())];
                chars.splice(at..at, token.chars());
            }
            _ => {
                if at < chars.len() {
                    chars[at] = char::from(b' ' + rng.below(95) as u8);
                }
            }
        }
    }
    chars.into_iter().collect()
}

#[test]
fn seeded_mutants_of_every_shipped_query_never_panic() {
    const MUTANTS: usize = 256;
    let family = std::fs::read_dir("benchmark/queries/family").expect("family queries");
    let mut texts: Vec<String> = family
        .map(|entry| std::fs::read_to_string(entry.unwrap().path()).unwrap())
        .collect();
    texts.sort();
    texts.extend(saql::corpus::PAPER_QUERIES.map(String::from));
    texts.extend(saql::corpus::DEMO_QUERIES.map(|(_, src)| src.to_string()));
    assert_eq!(texts.len(), 20);
    let mut registered = 0;
    for (i, text) in texts.into_iter().enumerate() {
        let (panicked, ok) = on_small_stack(move || {
            let mut rng = Rng(0x9E37_79B9_7F4A_7C15 ^ i as u64);
            let (mut panicked, mut ok) = (Vec::new(), 0);
            for _ in 0..MUTANTS {
                let mutant = mutate(&text, &mut rng);
                let steps = std::panic::catch_unwind(|| {
                    if let Ok(checked) = saql::lang::compile(&mutant) {
                        QueryPlan::compile(&checked);
                    }
                    register(mutant.clone()).is_ok()
                });
                match steps {
                    Ok(accepted) => ok += usize::from(accepted),
                    Err(_) => panicked.push(mutant),
                }
            }
            (panicked, ok)
        });
        assert!(panicked.is_empty(), "shipped query {i}: {panicked:#?}");
        registered += ok;
    }
    // Neither every mutant refused nor every one accepted: the edits reach
    // past the lexer, and they break things.
    assert!(registered > 0 && registered < 20 * MUTANTS, "{registered}");
}
