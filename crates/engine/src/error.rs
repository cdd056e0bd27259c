//! Runtime error reporting (the paper's *error reporter* component).
//!
//! Query execution over a live stream must not abort on bad data — the
//! reporter records evaluation anomalies (type confusion in expressions,
//! partial-match overflow, division by zero) with bounded memory and exposes
//! them to the CLI and to tests.

use std::collections::VecDeque;
use std::fmt;

/// A runtime engine error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// Expression evaluation failed (message explains what and where).
    Eval(String),
    /// The multievent matcher hit its partial-match cap and evicted state;
    /// detections involving the evicted prefixes may be lost.
    PartialMatchOverflow { query: String, cap: usize },
    /// A query referenced a name that could not be resolved at runtime.
    UnresolvedName(String),
    /// A control-plane operation (deregister, pause, resume, subscribe)
    /// named a query id that is not live on this engine.
    UnknownQuery(crate::query::QueryId),
    /// A session operation named a source id that is not attached (never
    /// attached, or already detached).
    UnknownSource(saql_stream::SourceId),
    /// An event or control-plane operation arrived after `finish()` on a
    /// worker-backed engine: the worker threads have shut down, so the
    /// deployment can no longer change (create a fresh engine to run again).
    EngineFinished,
    /// Deregistration refused: the query is a pipeline upstream whose
    /// alert stream still feeds live dependent stages.
    PipelineDependents {
        query: String,
        dependents: Vec<String>,
    },
    /// Taking or restoring an engine checkpoint failed (message explains
    /// what — a dead shard with lost query state, a snapshot/registry
    /// mismatch, a query that no longer compiles).
    Checkpoint(String),
    /// A [`Deployment`](crate::Deployment) refused to open (message
    /// explains why — an initial query that does not compile, queries on
    /// resume, a checkpoint past the end of its store).
    Deploy(String),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Eval(msg) => write!(f, "evaluation error: {msg}"),
            EngineError::PartialMatchOverflow { query, cap } => write!(
                f,
                "partial-match cap ({cap}) reached in query `{query}`; oldest state evicted"
            ),
            EngineError::UnresolvedName(name) => write!(f, "unresolved name `{name}`"),
            EngineError::UnknownQuery(id) => {
                write!(f, "no live query {id} (never registered, or deregistered)")
            }
            EngineError::UnknownSource(id) => {
                write!(f, "no attached source {id} (never attached, or detached)")
            }
            EngineError::EngineFinished => write!(
                f,
                "engine already finished: the parallel workers have shut \
                 down (create a fresh engine to run again)"
            ),
            EngineError::PipelineDependents { query, dependents } => {
                f.write_str(&crate::control::dependents_refusal(query, dependents))
            }
            EngineError::Checkpoint(msg) => write!(f, "checkpoint error: {msg}"),
            EngineError::Deploy(msg) => f.write_str(msg),
        }
    }
}

impl std::error::Error for EngineError {}

/// Bounded collector of runtime errors: keeps a total count and the most
/// recent `capacity` messages.
#[derive(Debug)]
pub struct ErrorReporter {
    recent: VecDeque<EngineError>,
    capacity: usize,
    total: u64,
}

impl ErrorReporter {
    pub fn new(capacity: usize) -> Self {
        ErrorReporter {
            recent: VecDeque::with_capacity(capacity),
            capacity,
            total: 0,
        }
    }

    /// Record an error, evicting the oldest if at capacity.
    pub fn report(&mut self, err: EngineError) {
        self.total += 1;
        if self.recent.len() == self.capacity {
            self.recent.pop_front();
        }
        self.recent.push_back(err);
    }

    /// Total errors ever reported.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Recent errors, oldest first.
    pub fn recent(&self) -> impl Iterator<Item = &EngineError> {
        self.recent.iter()
    }

    pub fn is_empty(&self) -> bool {
        self.total == 0
    }
}

impl Default for ErrorReporter {
    fn default() -> Self {
        ErrorReporter::new(128)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reporter_bounds_memory() {
        let mut r = ErrorReporter::new(3);
        for i in 0..10 {
            r.report(EngineError::Eval(format!("e{i}")));
        }
        assert_eq!(r.total(), 10);
        let recent: Vec<String> = r.recent().map(|e| e.to_string()).collect();
        assert_eq!(recent.len(), 3);
        assert!(recent[0].contains("e7"));
        assert!(recent[2].contains("e9"));
    }

    #[test]
    fn display_variants() {
        let e = EngineError::PartialMatchOverflow {
            query: "q1".into(),
            cap: 10,
        };
        assert!(e.to_string().contains("q1"));
        assert!(EngineError::UnresolvedName("zz".into())
            .to_string()
            .contains("zz"));
    }

    #[test]
    fn empty_reporter() {
        let r = ErrorReporter::default();
        assert!(r.is_empty());
        assert_eq!(r.recent().count(), 0);
    }
}
