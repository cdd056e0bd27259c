//! Detection alerts: what the engine reports when a query's conditions are
//! met by the event stream.

use std::fmt;

use saql_model::json::push_json_string;
use saql_model::Timestamp;

use crate::query::QueryId;

/// Where in the stream an alert fired.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AlertOrigin {
    /// A rule-based full pattern match; carries the matched event ids in
    /// pattern order.
    Match { event_ids: Vec<u64> },
    /// A stateful model fired when the window `[start, end)` closed for the
    /// given group key.
    Window {
        start: Timestamp,
        end: Timestamp,
        group: String,
    },
}

/// One detection alert.
#[derive(Debug, Clone, PartialEq)]
pub struct Alert {
    /// Name of the query that produced the alert.
    pub query: String,
    /// Control-plane id of the query that produced the alert
    /// ([`QueryId::UNASSIGNED`] when emitted by a standalone
    /// [`crate::RunningQuery`]). This is the routing key for serve's
    /// per-query subscriptions.
    pub query_id: QueryId,
    /// Event time at which the alert fired (last matched event, or window
    /// end).
    pub ts: Timestamp,
    pub origin: AlertOrigin,
    /// The `return` items: (label, rendered value).
    pub rows: Vec<(String, String)>,
}

impl Alert {
    /// Look up a returned value by its label.
    pub fn get(&self, label: &str) -> Option<&str> {
        self.rows
            .iter()
            .find(|(l, _)| l == label)
            .map(|(_, v)| v.as_str())
    }
}

impl fmt::Display for Alert {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[ALERT {} @{}]", self.query, self.ts)?;
        match &self.origin {
            AlertOrigin::Match { event_ids } => {
                write!(f, " events={event_ids:?}")?;
            }
            AlertOrigin::Window { start, end, group } => {
                write!(f, " window=[{start}, {end}) group={group}")?;
            }
        }
        for (label, value) in &self.rows {
            write!(f, " {label}={value}")?;
        }
        Ok(())
    }
}

/// Render one alert as a single-line JSON object (no trailing newline): the
/// record serve's subscribe streams write. The workspace takes no JSON
/// dependency, and alerts are flat, so this is hand-rolled.
pub fn render_alert_json(alert: &Alert) -> String {
    let mut out = String::with_capacity(160);
    out.push_str("{\"query\":");
    push_json_string(&mut out, &alert.query);
    // Standalone queries carry no id; omit the field rather than emit a
    // sentinel.
    if alert.query_id != QueryId::UNASSIGNED {
        out.push_str(",\"query_id\":");
        out.push_str(&alert.query_id.index().to_string());
    }
    out.push_str(",\"ts_ms\":");
    out.push_str(&alert.ts.as_millis().to_string());
    match &alert.origin {
        AlertOrigin::Match { event_ids } => {
            out.push_str(",\"origin\":\"match\",\"event_ids\":[");
            for (i, id) in event_ids.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&id.to_string());
            }
            out.push(']');
        }
        AlertOrigin::Window { start, end, group } => {
            out.push_str(",\"origin\":\"window\",\"window_start_ms\":");
            out.push_str(&start.as_millis().to_string());
            out.push_str(",\"window_end_ms\":");
            out.push_str(&end.as_millis().to_string());
            out.push_str(",\"group\":");
            push_json_string(&mut out, group);
        }
    }
    out.push_str(",\"rows\":{");
    for (i, (label, value)) in alert.rows.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_json_string(&mut out, label);
        out.push(':');
        push_json_string(&mut out, value);
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alert_display_and_lookup() {
        let a = Alert {
            query: "exfil".into(),
            query_id: QueryId::new(3),
            ts: Timestamp::from_secs(9),
            origin: AlertOrigin::Match {
                event_ids: vec![1, 4, 7],
            },
            rows: vec![
                ("p1".into(), "cmd.exe".into()),
                ("i1".into(), "172.16.9.129".into()),
            ],
        };
        let s = a.to_string();
        assert!(s.contains("ALERT exfil"));
        assert!(s.contains("events=[1, 4, 7]"));
        assert!(s.contains("i1=172.16.9.129"));
        assert_eq!(a.get("p1"), Some("cmd.exe"));
        assert_eq!(a.get("zz"), None);
        assert_eq!(a.query_id, QueryId::new(3));
        assert_eq!(a.query_id.to_string(), "q#3");
        assert_eq!(QueryId::UNASSIGNED.to_string(), "q#unassigned");
    }

    #[test]
    fn window_origin_display() {
        let a = Alert {
            query: "sma".into(),
            query_id: QueryId::UNASSIGNED,
            ts: Timestamp::from_secs(600),
            origin: AlertOrigin::Window {
                start: Timestamp::ZERO,
                end: Timestamp::from_secs(600),
                group: "sqlservr.exe".into(),
            },
            rows: vec![],
        };
        assert!(a.to_string().contains("group=sqlservr.exe"));
    }

    #[test]
    fn json_output_shape() {
        let window = Alert {
            query: "exfil".into(),
            query_id: QueryId::UNASSIGNED,
            ts: Timestamp::from_secs(7),
            origin: AlertOrigin::Window {
                start: Timestamp::ZERO,
                end: Timestamp::from_secs(7),
                group: "sqlservr.exe".into(),
            },
            rows: vec![
                ("p".into(), "sqlservr.exe".into()),
                ("amt".into(), "1.5".into()),
            ],
        };
        let match_alert = Alert {
            query: "rule \"q\"".into(),
            query_id: QueryId::UNASSIGNED,
            ts: Timestamp::from_millis(9),
            origin: AlertOrigin::Match {
                event_ids: vec![1, 2],
            },
            rows: vec![("f".into(), "C:\\dump\\a.bin".into())],
        };
        let lines = [render_alert_json(&window), render_alert_json(&match_alert)];
        assert!(lines.iter().all(|l| !l.contains('\n')));
        assert!(lines[0].contains("\"origin\":\"window\""), "{}", lines[0]);
        assert!(
            lines[0].contains("\"group\":\"sqlservr.exe\""),
            "{}",
            lines[0]
        );
        assert!(lines[1].contains("\"event_ids\":[1,2]"), "{}", lines[1]);
        // Quotes and backslashes escape correctly.
        assert!(lines[1].contains("rule \\\"q\\\""), "{}", lines[1]);
        assert!(lines[1].contains("C:\\\\dump\\\\a.bin"), "{}", lines[1]);
    }

    #[test]
    fn json_escapes_control_chars() {
        let mut out = String::new();
        push_json_string(&mut out, "a\nb\tc\u{1}");
        assert_eq!(out, "\"a\\nb\\tc\\u0001\"");
    }
}
