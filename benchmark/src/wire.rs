//! The NDJSON TCP protocol of `saql serve`, as a client sees it: hello lines
//! for the three roles, control round-trips, the `GET /metrics` page, and
//! just enough JSON reading to pull numbers out of the server's flat replies.
//! Nothing here is shared with the server's own protocol code.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

const IO_TIMEOUT: Duration = Duration::from_secs(60);

/// Escape `s` as the inside of a JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 8);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c => out.push(c),
        }
    }
    out
}

/// Every unsigned number that follows `"key":` anywhere in `text`.
pub fn all_u64(text: &str, key: &str) -> Vec<u64> {
    let needle = format!("\"{key}\":");
    let mut out = Vec::new();
    let mut rest = text;
    while let Some(at) = rest.find(&needle) {
        rest = &rest[at + needle.len()..];
        let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
        if let Ok(v) = digits.parse() {
            out.push(v);
        }
    }
    out
}

/// The first number that follows `"key":`.
pub fn first_u64(text: &str, key: &str) -> Option<u64> {
    all_u64(text, key).first().copied()
}

/// The first string that follows `"key":"` (the server's names carry no
/// escapes, so the value ends at the next quote).
pub fn first_str<'a>(text: &'a str, key: &str) -> Option<&'a str> {
    let needle = format!("\"{key}\":\"");
    let at = text.find(&needle)? + needle.len();
    let end = text[at..].find('"')?;
    Some(&text[at..at + end])
}

fn connect(addr: &str) -> Result<TcpStream, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    stream
        .set_read_timeout(Some(IO_TIMEOUT))
        .map_err(|e| e.to_string())?;
    stream
        .set_write_timeout(Some(IO_TIMEOUT))
        .map_err(|e| e.to_string())?;
    Ok(stream)
}

/// Send a hello line and require the `{"ok":true}` ack.
fn hello(addr: &str, line: &str) -> Result<BufReader<TcpStream>, String> {
    let mut stream = connect(addr)?;
    stream
        .write_all(format!("{line}\n").as_bytes())
        .map_err(|e| format!("hello: {e}"))?;
    let mut reader = BufReader::new(stream);
    let mut ack = String::new();
    reader
        .read_line(&mut ack)
        .map_err(|e| format!("hello ack: {e}"))?;
    if !ack.contains("\"ok\":true") {
        return Err(format!("hello `{line}` refused: {}", ack.trim()));
    }
    Ok(reader)
}

/// An open ingest connection: write event lines, then [`finish`](Self::finish).
pub struct Ingest {
    reader: BufReader<TcpStream>,
}

/// The server's final per-connection accounting.
#[derive(Debug, Default, Clone)]
pub struct IngestAck {
    pub events: u64,
    pub decode_errors: u64,
    pub shed_quota: u64,
    pub shed_buffer: u64,
    pub dropped_late: u64,
    pub durable: bool,
}

impl Ingest {
    pub fn open(
        addr: &str,
        tenant: &str,
        source: &str,
        lossless: bool,
        arrival: bool,
    ) -> Result<Ingest, String> {
        let order = if arrival {
            ",\"order\":\"arrival\""
        } else {
            ""
        };
        let reader = hello(
            addr,
            &format!("{{\"role\":\"ingest\",\"tenant\":\"{tenant}\",\"source\":\"{source}\",\"lossless\":{lossless}{order}}}"),
        )?;
        Ok(Ingest { reader })
    }

    pub fn write(&mut self, bytes: &[u8]) -> Result<(), String> {
        self.reader
            .get_mut()
            .write_all(bytes)
            .map_err(|e| format!("ingest write: {e}"))
    }

    /// Half-close and wait for the drained summary line.
    pub fn finish(&mut self) -> Result<IngestAck, String> {
        self.reader
            .get_ref()
            .shutdown(std::net::Shutdown::Write)
            .map_err(|e| format!("ingest half-close: {e}"))?;
        let mut line = String::new();
        self.reader
            .read_line(&mut line)
            .map_err(|e| format!("ingest summary: {e}"))?;
        if !line.contains("\"done\":true") {
            return Err(format!("ingest summary missing: `{}`", line.trim()));
        }
        let get = |key| first_u64(&line, key).unwrap_or(0);
        Ok(IngestAck {
            events: get("events"),
            decode_errors: get("decode_errors"),
            shed_quota: get("shed_quota"),
            shed_buffer: get("shed_buffer"),
            dropped_late: get("dropped_late"),
            durable: line.contains("\"durable\":true"),
        })
    }
}

/// A control connection for one tenant.
pub struct Control {
    reader: BufReader<TcpStream>,
}

impl Control {
    pub fn open(addr: &str, tenant: &str) -> Result<Control, String> {
        let reader = hello(
            addr,
            &format!("{{\"role\":\"control\",\"tenant\":\"{tenant}\"}}"),
        )?;
        Ok(Control { reader })
    }

    /// One request/response round-trip; returns the reply and its duration.
    pub fn request(&mut self, line: &str) -> Result<(String, Duration), String> {
        let start = Instant::now();
        self.reader
            .get_mut()
            .write_all(format!("{line}\n").as_bytes())
            .map_err(|e| format!("control write: {e}"))?;
        let mut reply = String::new();
        self.reader
            .read_line(&mut reply)
            .map_err(|e| format!("control read: {e}"))?;
        let took = start.elapsed();
        if reply.is_empty() {
            return Err(format!("control connection closed on `{line}`"));
        }
        Ok((reply, took))
    }

    pub fn register(&mut self, name: &str, query: &str) -> Result<Duration, String> {
        let (reply, took) = self.request(&format!(
            "{{\"cmd\":\"register\",\"name\":\"{name}\",\"query\":\"{}\"}}",
            json_escape(query)
        ))?;
        if !reply.contains("\"ok\":true") {
            return Err(format!("register {name} refused: {}", reply.trim()));
        }
        Ok(took)
    }

    pub fn stats(&mut self) -> Result<(String, Duration), String> {
        self.request("{\"cmd\":\"stats\"}")
    }

    pub fn shutdown(&mut self) -> Result<(), String> {
        self.request("{\"cmd\":\"shutdown\"}").map(|_| ())
    }
}

/// Open a subscription to `query`; alert lines follow on the reader.
pub fn subscribe(addr: &str, tenant: &str, query: &str) -> Result<BufReader<TcpStream>, String> {
    let reader = hello(
        addr,
        &format!("{{\"role\":\"subscribe\",\"tenant\":\"{tenant}\",\"query\":\"{query}\"}}"),
    )?;
    // Alerts can be minutes apart; only a dead server ends the read.
    reader
        .get_ref()
        .set_read_timeout(None)
        .map_err(|e| e.to_string())?;
    Ok(reader)
}

/// The text body of `GET /metrics`.
pub fn scrape_metrics(addr: &str) -> Result<String, String> {
    let mut stream = connect(addr)?;
    stream
        .write_all(b"GET /metrics HTTP/1.0\r\n\r\n")
        .map_err(|e| format!("metrics request: {e}"))?;
    let mut page = String::new();
    stream
        .read_to_string(&mut page)
        .map_err(|e| format!("metrics read: {e}"))?;
    Ok(page
        .split_once("\r\n\r\n")
        .map_or(page.clone(), |(_, body)| body.to_string()))
}

/// Values of every series on the metrics page whose name starts with
/// `family` and contains `label` (empty matches all).
pub fn metric_values(page: &str, family: &str, label: &str) -> Vec<f64> {
    page.lines()
        .filter(|l| l.starts_with(family) && l.contains(label))
        .filter_map(|l| l.rsplit_once(' ')?.1.parse().ok())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pulls_numbers_and_strings_out_of_flat_replies() {
        let reply = r#"{"ok":true,"engine":{"offset":42,"frontier_ms":7},"sources":[{"name":"a","buffered":3,"lag_ms":9},{"name":"b","buffered":5,"lag_ms":1}]}"#;
        assert_eq!(first_u64(reply, "offset"), Some(42));
        assert_eq!(all_u64(reply, "buffered"), vec![3, 5]);
        assert_eq!(first_str(reply, "name"), Some("a"));
        assert_eq!(first_u64(reply, "missing"), None);
    }

    #[test]
    fn metric_lines_filter_by_family_and_label() {
        let page = "saql_alerts_delivered_total{query=\"default/a\"} 3\nsaql_alerts_delivered_total{query=\"default/b\"} 4\nother 9\n";
        assert_eq!(
            metric_values(page, "saql_alerts_delivered_total", ""),
            vec![3.0, 4.0]
        );
        assert_eq!(
            metric_values(page, "saql_alerts_delivered_total", "default/b"),
            vec![4.0]
        );
    }

    #[test]
    fn escapes_query_text_for_register() {
        assert_eq!(json_escape("a \"b\"\n\\"), "a \\\"b\\\"\\n\\\\");
    }
}
