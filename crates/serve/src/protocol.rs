//! The newline-delimited JSON wire protocol.
//!
//! Every connection opens with one **hello** line declaring its role:
//!
//! ```json
//! {"role":"ingest","tenant":"acme","source":"agent-7","lossless":true}
//! {"role":"control","tenant":"acme"}
//! {"role":"subscribe","tenant":"acme","query":"exfil"}
//! ```
//!
//! * **ingest** — every following line is one event in the
//!   `saql_model::json` schema; the server answers the hello with
//!   `{"ok":true}` and, after the client half-closes, a final summary line
//!   once the events are drained (and durably synced, when the server runs
//!   a durable store). `"order":"arrival"` trusts the connection's own
//!   ordering (no reordering, no late drops); the default is the
//!   watermarked merge under the server's lateness bound. `"lossless":true`
//!   blocks the *connection* (never the pump) on a full ingest buffer
//!   instead of shedding.
//! * **control** — request/response lines (`cmd`:
//!   `register`/`deregister`/`pause`/`resume`/`list`/`stats`/`checkpoint`/
//!   `shutdown`); query names are namespaced per tenant. The lifecycle
//!   commands parse into a [`saql_engine::Control`] ([`parse_control`])
//!   and answer its reply as JSON ([`reply_line`]); `stats` and
//!   `shutdown` are the server's own [`Request`]s.
//! * **subscribe** — after an `{"ok":true}` ack the server streams the
//!   named query's alerts as JSONL (the `JsonLinesSink` shape) until the
//!   query is gone or the client hangs up.
//!
//! A first line starting with `GET ` is answered as a minimal HTTP text
//! exposition of the metrics registry instead (so `curl` works).
//!
//! Parsing reuses [`saql_model::json::parse_json`] — the workspace's one
//! hand-rolled JSON reader — and all responses are built through the same
//! escaper the event codec uses.

use saql_engine::{Control, ControlReply};
use saql_model::json::{parse_json, push_json_string, JsonValue};

/// Tenant used when a hello omits the field.
pub const DEFAULT_TENANT: &str = "default";

/// A connection's declared role.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Hello {
    Ingest {
        tenant: String,
        source: String,
        /// Trust the connection's own event order (no late drops).
        arrival_order: bool,
        /// Block the connection on a full ingest buffer instead of
        /// shedding.
        lossless: bool,
    },
    Control {
        tenant: String,
    },
    Subscribe {
        tenant: String,
        query: String,
    },
}

/// One control-role request: a lifecycle [`Control`], or one of the
/// server's own commands.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    Control(Control),
    Stats,
    Shutdown,
}

fn field_str(v: &JsonValue, key: &str) -> Option<String> {
    v.get(key).and_then(JsonValue::as_str).map(str::to_string)
}

fn tenant_of(v: &JsonValue) -> Result<String, String> {
    let tenant = field_str(v, "tenant").unwrap_or_else(|| DEFAULT_TENANT.to_string());
    if tenant.is_empty() || tenant.contains('/') {
        return Err("tenant must be non-empty and must not contain `/`".into());
    }
    Ok(tenant)
}

/// Parse a hello line.
pub fn parse_hello(line: &str) -> Result<Hello, String> {
    let v = parse_json(line.trim()).map_err(|e| e.to_string())?;
    let role = field_str(&v, "role").ok_or("hello needs a string `role` field")?;
    let tenant = tenant_of(&v)?;
    match role.as_str() {
        "ingest" => Ok(Hello::Ingest {
            source: field_str(&v, "source").unwrap_or_else(|| "ingest".to_string()),
            arrival_order: matches!(v.get("order").and_then(JsonValue::as_str), Some("arrival")),
            lossless: v
                .get("lossless")
                .and_then(JsonValue::as_bool)
                .unwrap_or(false),
            tenant,
        }),
        "control" => Ok(Hello::Control { tenant }),
        "subscribe" => Ok(Hello::Subscribe {
            query: field_str(&v, "query").ok_or("subscribe hello needs `query`")?,
            tenant,
        }),
        other => Err(format!(
            "unknown role `{other}` (expected ingest, control, or subscribe)"
        )),
    }
}

/// Parse one control request line.
pub fn parse_control(line: &str) -> Result<Request, String> {
    let v = parse_json(line.trim()).map_err(|e| e.to_string())?;
    let cmd = field_str(&v, "cmd").ok_or("control request needs a string `cmd` field")?;
    match cmd.as_str() {
        "stats" => Ok(Request::Stats),
        "shutdown" => Ok(Request::Shutdown),
        _ => Control::parse(&cmd, field_str(&v, "name"), field_str(&v, "query"))
            .unwrap_or_else(|| Err(format!("unknown command `{cmd}`")))
            .map(Request::Control),
    }
}

/// The JSON line of a request: what [`parse_control`] reads back.
pub fn request_line(request: &Request) -> String {
    let op = match request {
        Request::Stats => return JsonObj::new().str("cmd", "stats").finish(),
        Request::Shutdown => return JsonObj::new().str("cmd", "shutdown").finish(),
        Request::Control(op) => op,
    };
    let line = JsonObj::new().str("cmd", op.verb());
    match op {
        Control::Register { name, text } => line.str("name", name).str("query", text),
        Control::Deregister { name } | Control::Pause { name } | Control::Resume { name } => {
            line.str("name", name)
        }
        Control::List | Control::Checkpoint => line,
    }
    .finish()
}

/// The response line for an applied control.
pub fn reply_line(reply: &ControlReply) -> String {
    let ok = JsonObj::new().bool("ok", true);
    match reply {
        ControlReply::Registered { name, id, stages } => ok
            .str("name", name)
            .u64("id", id.index() as u64)
            .u64("stages", stages.len() as u64),
        ControlReply::Deregistered { .. }
        | ControlReply::Paused { .. }
        | ControlReply::Resumed { .. } => ok,
        ControlReply::Listed(queries) => ok.raw(
            "queries",
            &json_array(queries.iter().map(|q| {
                JsonObj::new()
                    .str("name", &q.name)
                    .u64("id", q.id.index() as u64)
                    .bool("paused", q.paused)
                    .finish()
            })),
        ),
        ControlReply::Checkpointed(written) => ok
            .str("path", &written.path.display().to_string())
            .u64("offset", written.offset),
    }
    .finish()
}

// ---------------------------------------------------------------------
// Response building
// ---------------------------------------------------------------------

/// Incremental single-line JSON object writer (no nesting bookkeeping —
/// nested values go in through [`raw`](Self::raw)).
pub struct JsonObj {
    out: String,
    first: bool,
}

impl JsonObj {
    pub fn new() -> JsonObj {
        JsonObj {
            out: String::from("{"),
            first: true,
        }
    }

    fn key(&mut self, key: &str) {
        if !self.first {
            self.out.push(',');
        }
        self.first = false;
        push_json_string(&mut self.out, key);
        self.out.push(':');
    }

    pub fn str(mut self, key: &str, value: &str) -> Self {
        self.key(key);
        push_json_string(&mut self.out, value);
        self
    }

    pub fn u64(mut self, key: &str, value: u64) -> Self {
        self.key(key);
        self.out.push_str(&value.to_string());
        self
    }

    pub fn bool(mut self, key: &str, value: bool) -> Self {
        self.key(key);
        self.out.push_str(if value { "true" } else { "false" });
        self
    }

    /// A pre-rendered JSON value (array, object, …).
    pub fn raw(mut self, key: &str, value: &str) -> Self {
        self.key(key);
        self.out.push_str(value);
        self
    }

    /// Optional string: emits `null` when absent.
    pub fn opt_str(mut self, key: &str, value: Option<&str>) -> Self {
        self.key(key);
        match value {
            Some(s) => push_json_string(&mut self.out, s),
            None => self.out.push_str("null"),
        }
        self
    }

    pub fn finish(mut self) -> String {
        self.out.push('}');
        self.out
    }
}

impl Default for JsonObj {
    fn default() -> Self {
        JsonObj::new()
    }
}

/// Render a JSON array from pre-rendered element strings.
pub fn json_array(items: impl IntoIterator<Item = String>) -> String {
    let mut out = String::from("[");
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&item);
    }
    out.push(']');
    out
}

/// `{"ok":true}` — the plain ack.
pub fn ok_line() -> String {
    JsonObj::new().bool("ok", true).finish()
}

/// `{"ok":false,"error":...}`.
pub fn err_line(message: &str) -> String {
    JsonObj::new()
        .bool("ok", false)
        .str("error", message)
        .finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hello_roles_parse() {
        assert_eq!(
            parse_hello(r#"{"role":"ingest","tenant":"t1","source":"a","order":"arrival"}"#),
            Ok(Hello::Ingest {
                tenant: "t1".into(),
                source: "a".into(),
                arrival_order: true,
                lossless: false,
            })
        );
        assert_eq!(
            parse_hello(r#"{"role":"control"}"#),
            Ok(Hello::Control {
                tenant: DEFAULT_TENANT.into()
            })
        );
        assert_eq!(
            parse_hello(r#"{"role":"subscribe","tenant":"t","query":"q"}"#),
            Ok(Hello::Subscribe {
                tenant: "t".into(),
                query: "q".into()
            })
        );
        assert!(parse_hello(r#"{"role":"mystery"}"#).is_err());
        assert!(parse_hello(r#"{"role":"control","tenant":"a/b"}"#).is_err());
        assert!(parse_hello("not json").is_err());
    }

    #[test]
    fn control_commands_parse() {
        assert_eq!(
            parse_control(r#"{"cmd":"register","name":"q","query":"agg ..."}"#),
            Ok(Request::Control(Control::Register {
                name: "q".into(),
                text: "agg ...".into()
            }))
        );
        assert_eq!(
            parse_control(r#"{"cmd":"list"}"#),
            Ok(Request::Control(Control::List))
        );
        assert_eq!(parse_control(r#"{"cmd":"stats"}"#), Ok(Request::Stats));
        assert!(parse_control(r#"{"cmd":"pause"}"#).is_err(), "missing name");
        assert!(parse_control(r#"{"cmd":"evaporate"}"#).is_err());
    }

    #[test]
    fn request_lines_parse_back() {
        let requests = [
            Request::Control(Control::Register {
                name: "q".into(),
                text: "proc p start proc q as e\nreturn \"p\"".into(),
            }),
            Request::Control(Control::Deregister { name: "q".into() }),
            Request::Control(Control::Pause { name: "q".into() }),
            Request::Control(Control::Resume { name: "q".into() }),
            Request::Control(Control::List),
            Request::Control(Control::Checkpoint),
            Request::Stats,
            Request::Shutdown,
        ];
        for request in requests {
            assert_eq!(parse_control(&request_line(&request)), Ok(request));
        }
    }

    #[test]
    fn json_obj_builds_escaped_lines() {
        let line = JsonObj::new()
            .bool("ok", false)
            .str("error", "bad \"thing\"\n")
            .u64("at", 7)
            .opt_str("extra", None)
            .finish();
        assert_eq!(
            line,
            r#"{"ok":false,"error":"bad \"thing\"\n","at":7,"extra":null}"#
        );
        // Round-trips through the model parser.
        assert!(saql_model::json::parse_json(&line).is_ok());
    }
}
