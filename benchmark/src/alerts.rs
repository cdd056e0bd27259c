//! Reading the program's alerts — the JSONL a subscriber receives and the
//! text lines `serve` and `replay` print — and checking them against the
//! oracle.

use std::collections::BTreeMap;
use std::io::BufRead;
use std::thread::JoinHandle;

use crate::clock::now_ns;
use crate::gen::ExpectedMatch;
use crate::wire::{first_str, first_u64};

#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum Origin {
    Match { event_ids: Vec<u64> },
    Window { end_ms: u64 },
}

/// One alert as a consumer saw it.
#[derive(Debug, Clone)]
pub struct Seen {
    /// When the consumer had the whole line.
    pub recv_ns: u64,
    /// Query name without tenant prefix, directory or `.saql` suffix.
    pub query: String,
    pub origin: Origin,
    /// The alert with the query name normalised: serve and replay must
    /// print the same text for the same alert.
    pub text: String,
}

/// `default/rule-1step`, `/path/to/rule-1step.saql` and `rule-1step` are
/// the same query registered through different surfaces.
pub fn bare_query_name(name: &str) -> &str {
    let name = name.rsplit('/').next().unwrap_or(name);
    name.strip_suffix(".saql").unwrap_or(name)
}

/// Parse one subscriber line (`render_alert_json` shape).
pub fn parse_json(line: &str, recv_ns: u64) -> Option<Seen> {
    let query = bare_query_name(first_str(line, "query")?).to_string();
    let origin = if line.contains("\"origin\":\"match\"") {
        let at = line.find("\"event_ids\":[")? + "\"event_ids\":[".len();
        let end = line[at..].find(']')?;
        let event_ids = line[at..at + end]
            .split(',')
            .filter_map(|v| v.trim().parse().ok())
            .collect();
        Origin::Match { event_ids }
    } else {
        Origin::Window {
            end_ms: first_u64(line, "window_end_ms")?,
        }
    };
    Some(Seen {
        recv_ns,
        query,
        origin,
        text: String::new(),
    })
}

/// Parse one printed line (`[ALERT name @123ms] events=[1, 2] ..` or
/// `.. window=[1000ms, 2000ms) group=..`); anything else is `None`.
pub fn parse_text(line: &str, recv_ns: u64) -> Option<Seen> {
    let rest = line.strip_prefix("[ALERT ")?;
    let (name, rest) = rest.split_once(" @")?;
    let (_, body) = rest.split_once("] ")?;
    let query = bare_query_name(name).to_string();
    let origin = if let Some(ids) = body.strip_prefix("events=[") {
        let (ids, _) = ids.split_once(']')?;
        Origin::Match {
            event_ids: ids
                .split(',')
                .filter_map(|v| v.trim().parse().ok())
                .collect(),
        }
    } else {
        let window = body.strip_prefix("window=[")?;
        let (_, end) = window.split_once(", ")?;
        let (end, _) = end.split_once("ms)")?;
        Origin::Window {
            end_ms: end.parse().ok()?,
        }
    };
    let text = format!("{query} {body}");
    Some(Seen {
        recv_ns,
        query,
        origin,
        text,
    })
}

/// Every alert in a file of printed lines (the stdout of `saql serve`).
pub fn read_text_file(path: &std::path::Path) -> Vec<Seen> {
    std::fs::read_to_string(path)
        .unwrap_or_default()
        .lines()
        .filter_map(|l| parse_text(l, 0))
        .collect()
}

/// Collect a subscription on its own thread until the server closes it.
pub fn collect_subscription(mut reader: impl BufRead + Send + 'static) -> JoinHandle<Vec<Seen>> {
    std::thread::spawn(move || {
        let mut seen = Vec::new();
        let mut line = String::new();
        loop {
            line.clear();
            match reader.read_line(&mut line) {
                Ok(0) | Err(_) => return seen,
                Ok(_) => {
                    let at = now_ns();
                    if let Some(alert) = parse_json(&line, at) {
                        seen.push(alert);
                    }
                }
            }
        }
    })
}

/// Outcome of comparing the match alerts a consumer saw with the oracle.
#[derive(Debug, Default)]
pub struct MatchCheck {
    /// Receive time by expected alert, `None` where it never arrived.
    pub recv_ns: Vec<Option<u64>>,
    pub missing: u64,
    /// Alerts seen more often than expected, or not expected at all.
    pub surplus: u64,
}

/// Compare as multisets: every expected `(query, event_ids)` exactly once.
pub fn check_matches(expected: &[ExpectedMatch], seen: &[Seen]) -> MatchCheck {
    let mut by_key: BTreeMap<(&str, &[u64]), Vec<u64>> = BTreeMap::new();
    for alert in seen {
        if let Origin::Match { event_ids } = &alert.origin {
            by_key
                .entry((alert.query.as_str(), event_ids.as_slice()))
                .or_default()
                .push(alert.recv_ns);
        }
    }
    let mut check = MatchCheck::default();
    for want in expected {
        match by_key.get_mut(&(want.query, want.event_ids.as_slice())) {
            Some(times) if !times.is_empty() => check.recv_ns.push(Some(times.remove(0))),
            _ => {
                check.recv_ns.push(None);
                check.missing += 1;
            }
        }
    }
    check.surplus = by_key.values().map(|times| times.len() as u64).sum();
    check
}

/// Size of the symmetric difference of two multisets of alert texts.
pub fn multiset_difference(a: &[&str], b: &[&str]) -> (u64, Vec<String>) {
    let mut counts: BTreeMap<&str, i64> = BTreeMap::new();
    for text in a {
        *counts.entry(text).or_default() += 1;
    }
    for text in b {
        *counts.entry(text).or_default() -= 1;
    }
    let differing: Vec<String> = counts
        .iter()
        .filter(|(_, n)| **n != 0)
        .map(|(text, n)| format!("{n:+} {text}"))
        .collect();
    (counts.values().map(|n| n.unsigned_abs()).sum(), differing)
}

#[cfg(test)]
fn ids_of(seen: &Seen) -> Vec<u64> {
    match &seen.origin {
        Origin::Match { event_ids } => event_ids.clone(),
        Origin::Window { end_ms } => vec![*end_ms],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_surfaces_parse_to_the_same_alert() {
        let json = r#"{"query":"default/rule-2step","query_id":1,"ts_ms":1019891,"origin":"match","event_ids":[994233,994571],"rows":{"p1":"sheet.exe"}}"#;
        let text = "[ALERT /x/queries/family/rule-2step.saql @1019891ms] events=[994233, 994571] p1=sheet.exe";
        let a = parse_json(json, 5).unwrap();
        let b = parse_text(text, 0).unwrap();
        assert_eq!(a.query, "rule-2step");
        assert_eq!(a.query, b.query);
        assert_eq!(ids_of(&a), ids_of(&b));
        assert_eq!(b.text, "rule-2step events=[994233, 994571] p1=sheet.exe");

        let json = r#"{"query":"default/ts-sma","query_id":3,"ts_ms":1020000,"origin":"window","window_start_ms":1019000,"window_end_ms":1020000,"group":"burst-3.exe","rows":{}}"#;
        let text = "[ALERT default/ts-sma @1020000ms] window=[1019000ms, 1020000ms) group=burst-3.exe p=burst-3.exe";
        assert_eq!(ids_of(&parse_json(json, 0).unwrap()), vec![1_020_000]);
        assert_eq!(ids_of(&parse_text(text, 0).unwrap()), vec![1_020_000]);
        assert!(parse_text("replayed 5 events, 0 alert(s)", 0).is_none());
    }

    #[test]
    fn match_check_counts_missing_and_surplus() {
        let want = |q, ids: &[u64]| ExpectedMatch {
            query: q,
            event_ids: ids.to_vec(),
        };
        let saw = |q: &str, ids: &[u64], at| Seen {
            recv_ns: at,
            query: q.into(),
            origin: Origin::Match {
                event_ids: ids.to_vec(),
            },
            text: String::new(),
        };
        let expected = [want("rule-1step", &[1]), want("rule-2step", &[2, 3])];
        let seen = [
            saw("rule-1step", &[1], 10),
            saw("rule-1step", &[1], 11),
            saw("rule-4step", &[9], 12),
        ];
        let check = check_matches(&expected, &seen);
        assert_eq!(check.recv_ns, vec![Some(10), None]);
        assert_eq!(check.missing, 1);
        assert_eq!(check.surplus, 2);
    }

    #[test]
    fn multiset_difference_counts_both_sides() {
        let (n, lines) = multiset_difference(&["a", "a", "b"], &["a", "c"]);
        assert_eq!(n, 3);
        assert_eq!(lines, vec!["+1 a", "+1 b", "-1 c"]);
    }
}
