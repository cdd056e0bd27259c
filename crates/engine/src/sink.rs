//! Alert sinks: where detections go after the engine raises them.
//!
//! The demo prints alerts on the command-line UI; deployments forward them
//! to SIEM pipelines. [`AlertSink`] abstracts the destination;
//! [`ChannelSink`] fans alerts out to consumer threads and
//! [`JsonLinesSink`] writes one JSON object per alert (hand-rolled
//! serialization — alerts are flat, and the workspace takes no JSON
//! dependency).

use std::io::Write;
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};

use saql_model::json::push_json_string;

use crate::alert::{Alert, AlertOrigin};

/// A destination for alerts.
pub trait AlertSink {
    /// Deliver one alert. Failures must be absorbed (sinks never stop the
    /// stream); implementations track their own error counts.
    fn deliver(&mut self, alert: &Alert);

    /// Flush any buffering.
    fn flush(&mut self) {}
}

/// Collects alerts in memory (tests, small runs).
#[derive(Debug, Default)]
pub struct CollectSink {
    pub alerts: Vec<Alert>,
}

impl AlertSink for CollectSink {
    fn deliver(&mut self, alert: &Alert) {
        self.alerts.push(alert.clone());
    }
}

/// Forwards alerts into a bounded channel (blocking when full, dropping
/// when all receivers hung up).
pub struct ChannelSink {
    tx: SyncSender<Alert>,
    pub dropped: u64,
}

impl ChannelSink {
    /// Create a sink and its receiving half. A zero capacity clamps to one:
    /// a channel that can never buffer is a misconfiguration.
    pub fn new(capacity: usize) -> (ChannelSink, Receiver<Alert>) {
        let (tx, rx) = sync_channel(capacity.max(1));
        (ChannelSink { tx, dropped: 0 }, rx)
    }
}

impl AlertSink for ChannelSink {
    fn deliver(&mut self, alert: &Alert) {
        if self.tx.send(alert.clone()).is_err() {
            self.dropped += 1;
        }
    }
}

/// Writes one JSON object per alert to any `Write` (files, pipes).
pub struct JsonLinesSink<W: Write> {
    writer: W,
    pub write_errors: u64,
}

impl<W: Write> JsonLinesSink<W> {
    pub fn new(writer: W) -> Self {
        JsonLinesSink {
            writer,
            write_errors: 0,
        }
    }

    /// Recover the writer (flushes first).
    pub fn into_inner(mut self) -> W {
        let _ = self.writer.flush();
        self.writer
    }

    fn render(alert: &Alert) -> String {
        let mut out = render_alert_json(alert);
        out.push('\n');
        out
    }
}

/// Render one alert as a single-line JSON object (no trailing newline) —
/// the shape [`JsonLinesSink`] writes, shared with the serving layer's
/// subscribe streams so file sinks and sockets emit identical records.
pub fn render_alert_json(alert: &Alert) -> String {
    let mut out = String::with_capacity(160);
    out.push_str("{\"query\":");
    push_json_string(&mut out, &alert.query);
    // Standalone queries carry no id; omit the field rather than emit a
    // sentinel.
    if alert.query_id != crate::query::QueryId::UNASSIGNED {
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

impl<W: Write> AlertSink for JsonLinesSink<W> {
    fn deliver(&mut self, alert: &Alert) {
        if self
            .writer
            .write_all(Self::render(alert).as_bytes())
            .is_err()
        {
            self.write_errors += 1;
        }
    }

    fn flush(&mut self) {
        let _ = self.writer.flush();
    }
}

/// Fan out to several sinks.
pub struct TeeSink<'a> {
    pub sinks: Vec<&'a mut dyn AlertSink>,
}

impl AlertSink for TeeSink<'_> {
    fn deliver(&mut self, alert: &Alert) {
        for sink in &mut self.sinks {
            sink.deliver(alert);
        }
    }

    fn flush(&mut self) {
        for sink in &mut self.sinks {
            sink.flush();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use saql_model::Timestamp;

    fn sample(query: &str) -> Alert {
        Alert {
            query: query.into(),
            query_id: crate::query::QueryId::UNASSIGNED,
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
        }
    }

    #[test]
    fn collect_sink_accumulates() {
        let mut sink = CollectSink::default();
        sink.deliver(&sample("a"));
        sink.deliver(&sample("b"));
        assert_eq!(sink.alerts.len(), 2);
        assert_eq!(sink.alerts[1].query, "b");
    }

    #[test]
    fn channel_sink_delivers_cross_thread() {
        let (mut sink, rx) = ChannelSink::new(4);
        sink.deliver(&sample("x"));
        drop(sink);
        let got: Vec<Alert> = rx.into_iter().collect();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].query, "x");
    }

    #[test]
    fn channel_sink_counts_drops_after_disconnect() {
        let (mut sink, rx) = ChannelSink::new(4);
        drop(rx);
        sink.deliver(&sample("x"));
        assert_eq!(sink.dropped, 1);
    }

    #[test]
    fn json_lines_output_shape() {
        let mut sink = JsonLinesSink::new(Vec::new());
        sink.deliver(&sample("exfil"));
        let match_alert = Alert {
            query: "rule \"q\"".into(),
            query_id: crate::query::QueryId::UNASSIGNED,
            ts: Timestamp::from_millis(9),
            origin: AlertOrigin::Match {
                event_ids: vec![1, 2],
            },
            rows: vec![("f".into(), "C:\\dump\\a.bin".into())],
        };
        sink.deliver(&match_alert);
        let text = String::from_utf8(sink.into_inner()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
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

    #[test]
    fn tee_fans_out() {
        let mut a = CollectSink::default();
        let mut b = CollectSink::default();
        {
            let mut tee = TeeSink {
                sinks: vec![&mut a, &mut b],
            };
            tee.deliver(&sample("t"));
        }
        assert_eq!(a.alerts.len(), 1);
        assert_eq!(b.alerts.len(), 1);
    }
}
