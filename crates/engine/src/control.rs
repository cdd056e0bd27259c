//! The query control plane's one vocabulary.
//!
//! Every surface that changes the live query set — `saql serve`'s control
//! role, the repl, `saql client ctl` and the staged `--register-at` /
//! `--deregister-at` / `--pause-at` / `--resume-at` flags — parses its own
//! spelling into a [`Control`], applies it through
//! [`RunSession::control`], and renders the typed [`ControlReply`] its own
//! way. Name resolution, tenant scoping ([`Scope`]), the `|>` cascade, the
//! live-query quota and every refusal string live here.

use crate::engine::Engine;
use crate::error::EngineError;
use crate::pipeline::{deregister_pipeline, register_stages};
use crate::query::QueryId;
use crate::session::{Checkpointed, RunSession};

/// One control-plane operation, named in its [`Scope`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Control {
    /// Register SAQL `text` as `name`; a `|>` text deploys every stage
    /// (`name.s1`, ..., `name`).
    Register { name: String, text: String },
    /// Deregister `name` and the `name.sK` stages upstream of it, flushing
    /// their open windows.
    Deregister { name: String },
    /// Detach `name` from the stream until resumed.
    Pause { name: String },
    /// Re-attach a paused `name`.
    Resume { name: String },
    /// The scope's live queries, in registration order.
    List,
    /// Write a checkpoint now ([`RunSession::checkpoint_now`]).
    Checkpoint,
}

impl Control {
    /// The control spelled `verb` — `register`, `deregister`, `pause`,
    /// `resume`, `list` or `checkpoint` — on every surface, given its query
    /// `name` and, for `register`, its SAQL `text`; `None` for any other
    /// verb.
    pub fn parse(
        verb: &str,
        name: Option<String>,
        text: Option<String>,
    ) -> Option<Result<Control, String>> {
        let name = name.ok_or_else(|| format!("`{verb}` needs a query name"));
        Some(match verb {
            "register" => match text {
                Some(text) => name.map(|name| Control::Register { name, text }),
                None => Err("`register` needs a query text".to_string()),
            },
            "deregister" => name.map(|name| Control::Deregister { name }),
            "pause" => name.map(|name| Control::Pause { name }),
            "resume" => name.map(|name| Control::Resume { name }),
            "list" => Ok(Control::List),
            "checkpoint" => Ok(Control::Checkpoint),
            _ => return None,
        })
    }

    /// The verb [`parse`](Self::parse) reads this control from.
    pub fn verb(&self) -> &'static str {
        match self {
            Control::Register { .. } => "register",
            Control::Deregister { .. } => "deregister",
            Control::Pause { .. } => "pause",
            Control::Resume { .. } => "resume",
            Control::List => "list",
            Control::Checkpoint => "checkpoint",
        }
    }
}

/// The name space a [`Control`] applies in: a tenant's `prefix`
/// (`"acme/"`) and its live-query ceiling.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Scope {
    pub prefix: String,
    pub max_live: usize,
}

impl Scope {
    /// The CLI's scope: no prefix, no ceiling.
    pub const UNSCOPED: Scope = Scope {
        prefix: String::new(),
        max_live: usize::MAX,
    };

    /// The live query `name` resolves to in this scope.
    pub fn find(&self, engine: &Engine, name: &str) -> Result<QueryId, String> {
        engine
            .find(&format!("{}{name}", self.prefix))
            .ok_or_else(|| format!("no live query `{name}`"))
    }

    /// A registered name of this scope without its prefix.
    fn bare(&self, full: &str) -> String {
        full.strip_prefix(&self.prefix).unwrap_or(full).to_string()
    }
}

/// What an applied [`Control`] did. Names are bare: the scope prefix is
/// stripped.
#[derive(Debug)]
pub enum ControlReply {
    /// `id` is the named (final) stage's; `stages` lists every stage
    /// registered, upstreams first.
    Registered {
        name: String,
        id: QueryId,
        stages: Vec<String>,
    },
    /// `removed` lists the deregistered stages, downstream first; `id` is
    /// the named one's.
    Deregistered {
        removed: Vec<String>,
        id: QueryId,
    },
    Paused {
        name: String,
        id: QueryId,
    },
    Resumed {
        name: String,
        id: QueryId,
    },
    Listed(Vec<Listed>),
    Checkpointed(Checkpointed),
}

/// One live query of a [`Control::List`] reply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Listed {
    pub name: String,
    pub id: QueryId,
    pub paused: bool,
}

impl RunSession<'_> {
    /// Apply one control-plane operation at the current stream position —
    /// the only way `saql serve` and the CLI change the live query set.
    /// A refusal comes back as the message to show the caller.
    pub fn control(&mut self, scope: &Scope, op: Control) -> Result<ControlReply, String> {
        let engine = self.engine();
        match op {
            Control::Register { name, text } => register(engine, scope, name, &text),
            Control::Deregister { name } => {
                let id = scope.find(engine, &name)?;
                let removed = deregister_pipeline(engine, id).map_err(|e| match e {
                    EngineError::PipelineDependents { query, dependents } => {
                        let dependents: Vec<String> =
                            dependents.iter().map(|d| scope.bare(d)).collect();
                        dependents_refusal(&scope.bare(&query), &dependents)
                    }
                    e => e.to_string(),
                })?;
                let removed = removed.iter().map(|n| scope.bare(n)).collect();
                Ok(ControlReply::Deregistered { removed, id })
            }
            Control::Pause { name } => {
                let id = scope.find(engine, &name)?;
                engine.pause(id).map_err(|e| e.to_string())?;
                Ok(ControlReply::Paused { name, id })
            }
            Control::Resume { name } => {
                let id = scope.find(engine, &name)?;
                engine.resume(id).map_err(|e| e.to_string())?;
                Ok(ControlReply::Resumed { name, id })
            }
            Control::List => Ok(ControlReply::Listed(
                engine
                    .query_ids()
                    .into_iter()
                    .filter_map(|id| {
                        let name = engine.name_of(id)?.strip_prefix(&scope.prefix)?.to_string();
                        let paused = engine.is_paused(id);
                        Some(Listed { name, id, paused })
                    })
                    .collect(),
            )),
            Control::Checkpoint if !self.checkpointing() => {
                Err("this run has no checkpoint dir".to_string())
            }
            Control::Checkpoint => self
                .checkpoint_now()
                .map(ControlReply::Checkpointed)
                .map_err(|e| e.to_string()),
        }
    }
}

/// Register `text` as `name` in `scope`: one pass over the registry for
/// the duplicate and the quota, which counts every stage the text adds.
fn register(
    engine: &mut Engine,
    scope: &Scope,
    name: String,
    text: &str,
) -> Result<ControlReply, String> {
    if !scope.prefix.is_empty() && (name.is_empty() || name.contains('/')) {
        return Err("query name must be non-empty and must not contain `/`".to_string());
    }
    let full = format!("{}{name}", scope.prefix);
    let live = engine.query_names();
    if live.contains(&full) {
        return Err(already_registered(&name));
    }
    let stages = saql_lang::split_stages(&full, text).map_err(|e| e.render(text))?;
    let live = live.iter().filter(|n| n.starts_with(&scope.prefix)).count();
    if live + stages.len() > scope.max_live {
        return Err(format!(
            "registering `{name}` ({} stage(s)) would exceed the live-query quota \
             ({live} of {} live)",
            stages.len(),
            scope.max_live
        ));
    }
    let registered = register_stages(engine, stages, &scope.prefix).map_err(|e| e.render(text))?;
    let id = registered
        .iter()
        .find(|(stage, _)| stage.name == full)
        .map(|(_, id)| *id)
        .expect("a pipeline registers its named stage");
    let stages = registered
        .iter()
        .map(|(s, _)| scope.bare(&s.name))
        .collect();
    Ok(ControlReply::Registered { name, id, stages })
}

/// The refusal to register a second live query under `name`.
pub(crate) fn already_registered(name: &str) -> String {
    format!("query `{name}` is already registered (deregister it first, or pick another name)")
}

/// The refusal to deregister `query` while `dependents` consume its alerts.
pub(crate) fn dependents_refusal(query: &str, dependents: &[String]) -> String {
    format!(
        "cannot deregister `{query}`: pipeline stage(s) `{}` still consume its alert \
         stream (deregister them first)",
        dependents.join("`, `")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::CheckpointConfig;
    use crate::EngineConfig;

    const RULE: &str = "proc p write ip i as evt\nreturn p, i";
    const THREE_STAGES: &str = "proc p write ip i as evt #time(10 s)\n\
                                state ss { n := count() } group by evt.agentid\n\
                                alert ss[0].n >= 1\n\
                                return evt.agentid as host\n\
                                |>\n\
                                from #time(10 s)\n\
                                state s2 { n := count() }\n\
                                alert s2[0].n >= 1\n\
                                return s2[0].n as n\n\
                                |>\n\
                                from #time(10 s)\n\
                                state s3 { n := count() }\n\
                                alert s3[0].n >= 1\n\
                                return s3[0].n as n";

    fn tenant(max_live: usize) -> Scope {
        Scope {
            prefix: "t/".into(),
            max_live,
        }
    }

    fn register(name: &str, text: &str) -> Control {
        Control::Register {
            name: name.into(),
            text: text.into(),
        }
    }

    fn listed(session: &mut RunSession<'_>, scope: &Scope) -> Vec<String> {
        match session.control(scope, Control::List) {
            Ok(ControlReply::Listed(items)) => items.into_iter().map(|q| q.name).collect(),
            other => panic!("list: {other:?}"),
        }
    }

    #[test]
    fn a_pipeline_that_overshoots_the_quota_is_refused_whole() {
        let mut engine = Engine::new(EngineConfig::default());
        let mut session = engine.session();
        let scope = tenant(2);
        session.control(&scope, register("q", RULE)).unwrap();
        let err = session
            .control(&scope, register("t", THREE_STAGES))
            .unwrap_err();
        assert!(err.contains("live-query quota"), "{err}");
        assert_eq!(listed(&mut session, &scope), ["q"]);
        session.control(&scope, register("q2", RULE)).unwrap();
        let err = session.control(&scope, register("q3", RULE)).unwrap_err();
        assert!(err.contains("live-query quota"), "{err}");
    }

    #[test]
    fn names_resolve_within_the_scope_only() {
        let mut engine = Engine::new(EngineConfig::default());
        let mut session = engine.session();
        let (t, u) = (
            tenant(8),
            Scope {
                prefix: "u/".into(),
                max_live: 8,
            },
        );
        session.control(&t, register("q", RULE)).unwrap();
        let err = session
            .control(&u, Control::Pause { name: "q".into() })
            .unwrap_err();
        assert!(err.contains("no live query `q`"), "{err}");
        assert!(listed(&mut session, &u).is_empty());
        let err = session.control(&t, register("q", RULE)).unwrap_err();
        assert!(err.contains("query `q` is already registered"), "{err}");
        for bad in ["", "a/b"] {
            let err = session.control(&t, register(bad, RULE)).unwrap_err();
            assert!(err.contains("must not contain `/`"), "{err}");
        }
    }

    #[test]
    fn a_pipeline_registers_and_deregisters_every_stage() {
        let mut engine = Engine::new(EngineConfig::default());
        let mut session = engine.session();
        let scope = tenant(8);
        let reply = session.control(&scope, register("t", THREE_STAGES));
        assert!(
            matches!(&reply, Ok(ControlReply::Registered { name, stages, .. })
                if name == "t" && stages == &["t.s1", "t.s2", "t"]),
            "{reply:?}"
        );
        session
            .control(
                &scope,
                Control::Pause {
                    name: "t.s1".into(),
                },
            )
            .unwrap();
        let paused = match session.control(&scope, Control::List) {
            Ok(ControlReply::Listed(items)) => items.iter().filter(|q| q.paused).count(),
            other => panic!("{other:?}"),
        };
        assert_eq!(paused, 1);
        let reply = session.control(&scope, Control::Deregister { name: "t".into() });
        assert!(
            matches!(&reply, Ok(ControlReply::Deregistered { removed, .. })
                if removed == &["t", "t.s2", "t.s1"]),
            "{reply:?}"
        );
        assert!(listed(&mut session, &scope).is_empty());
    }

    #[test]
    fn a_stage_with_dependents_is_not_deregistered() {
        let mut engine = Engine::new(EngineConfig::default());
        let mut session = engine.session();
        let scope = tenant(8);
        session
            .control(&scope, register("t", THREE_STAGES))
            .unwrap();
        let err = session
            .control(
                &scope,
                Control::Deregister {
                    name: "t.s1".into(),
                },
            )
            .unwrap_err();
        assert_eq!(
            err,
            "cannot deregister `t.s1`: pipeline stage(s) `t.s2` still consume its \
             alert stream (deregister them first)"
        );
    }

    #[test]
    fn a_checkpoint_needs_a_checkpoint_dir() {
        let mut engine = Engine::new(EngineConfig::default());
        let mut session = engine.session();
        let err = session
            .control(&Scope::UNSCOPED, Control::Checkpoint)
            .unwrap_err();
        assert_eq!(err, "this run has no checkpoint dir");
        let dir = std::env::temp_dir().join(format!("saql-control-ck-{}", std::process::id()));
        session.enable_checkpoints(CheckpointConfig {
            dir: dir.clone(),
            every_events: 0,
        });
        let reply = session.control(&Scope::UNSCOPED, Control::Checkpoint);
        assert!(
            matches!(&reply, Ok(ControlReply::Checkpointed(c)) if c.offset == 0),
            "{reply:?}"
        );
        let _ = std::fs::remove_dir_all(dir);
    }
}
