//! Invariant-based anomaly models.
//!
//! An `invariant[N][offline]` block trains per-group invariant variables
//! over each group's first `N` windows (e.g. the set of child processes
//! Apache is *allowed* to spawn), then switches to detection. In `offline`
//! mode the invariant freezes after training; in `online` mode it keeps
//! absorbing non-alerting windows, adapting to drift.
//!
//! The runtime owns *when* statements run (phases, per-group bookkeeping)
//! but not *how* they evaluate: callers supply an evaluator closure
//! `(statement index, current variables) → value`, which the engine backs
//! with either a compiled program or the interpreter oracle. Variables are
//! slot-indexed (`:=` initialization order) — the close-time contexts read
//! them as a plain slice.

use saql_lang::ast::{InvariantBlock, InvariantMode};

use crate::value::Value;

/// Training status of one group's invariant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Still absorbing training windows (no alerts fire).
    Training { seen: usize },
    /// Detection mode.
    Detecting,
}

#[derive(Debug)]
struct GroupInvariant {
    vars: Vec<Value>,
    phase: Phase,
}

/// One statement's dispatch row: which variable slot it writes and whether
/// it is an initializer.
#[derive(Debug, Clone, Copy)]
struct StmtRow {
    slot: usize,
    init: bool,
}

/// Evaluate statement `index` with the group's current variables in scope.
pub type StmtEval<'a> = dyn FnMut(usize, &[Value]) -> Value + 'a;

/// Runtime for one invariant block, tracking per-group training state.
/// Groups are keyed by their close-time labels (one lookup per group per
/// window close — never on the per-event path).
#[derive(Debug)]
pub struct InvariantRuntime {
    train_windows: usize,
    mode: InvariantMode,
    stmts: Vec<StmtRow>,
    n_vars: usize,
    groups: std::collections::HashMap<String, GroupInvariant>,
}

impl InvariantRuntime {
    /// Build from the block plus its resolved statement rows
    /// `(variable slot, is-init)` in block order (see
    /// [`saql_lang::resolve::ResolvedStmt`]).
    pub fn new(block: &InvariantBlock, stmts: Vec<(usize, bool)>, n_vars: usize) -> Self {
        InvariantRuntime {
            train_windows: block.train_windows,
            mode: block.mode,
            stmts: stmts
                .into_iter()
                .map(|(slot, init)| StmtRow { slot, init })
                .collect(),
            n_vars,
            groups: std::collections::HashMap::new(),
        }
    }

    /// Current phase of a group (groups appear on their first window).
    pub fn phase(&self, group: &str) -> Option<Phase> {
        self.groups.get(group).map(|g| g.phase)
    }

    /// Invariant variables of a group, slot-indexed. Empty while the group
    /// is unknown.
    pub fn vars(&self, group: &str) -> &[Value] {
        match self.groups.get(group) {
            Some(g) => &g.vars,
            None => &[],
        }
    }

    /// Observe one closed window for `group`, evaluating statements through
    /// `eval`.
    ///
    /// Returns `true` if the group is in detection mode **after** this
    /// window's bookkeeping — i.e. the caller should evaluate the alert
    /// condition. During training, updates run and no alert is possible.
    pub fn on_window(&mut self, group: &str, eval: &mut StmtEval<'_>) -> bool {
        let stmts = &self.stmts;
        let n_vars = self.n_vars;
        let entry = self.groups.entry(group.to_string()).or_insert_with(|| {
            // First sight of the group: run the `:=` initializers
            // (empty context — `eval` ignores the variables for them).
            let mut vars = vec![Value::Missing; n_vars];
            for (i, row) in stmts.iter().enumerate() {
                if row.init {
                    vars[row.slot] = eval(i, &vars);
                }
            }
            GroupInvariant {
                vars,
                phase: Phase::Training { seen: 0 },
            }
        });

        match entry.phase {
            Phase::Training { seen } => {
                run_updates(stmts, &mut entry.vars, eval);
                let seen = seen + 1;
                entry.phase = if seen >= self.train_windows {
                    Phase::Detecting
                } else {
                    Phase::Training { seen }
                };
                false
            }
            Phase::Detecting => true,
        }
    }

    /// In `online` mode, absorb a non-alerting detection window into the
    /// invariant (call after the alert evaluated false).
    pub fn absorb_online(&mut self, group: &str, eval: &mut StmtEval<'_>) {
        if self.mode != InvariantMode::Online {
            return;
        }
        if let Some(entry) = self.groups.get_mut(group) {
            if entry.phase == Phase::Detecting {
                run_updates(&self.stmts, &mut entry.vars, eval);
            }
        }
    }

    /// Capture per-group training state (engine checkpoints); rows sorted
    /// by group label so snapshots are deterministic. The block structure
    /// is static — recompiled from the query source.
    pub fn snapshot(&self) -> InvariantSnapshot {
        let mut groups: Vec<InvariantGroupSnapshot> = self
            .groups
            .iter()
            .map(|(label, g)| InvariantGroupSnapshot {
                label: label.clone(),
                vars: g.vars.clone(),
                phase: g.phase,
            })
            .collect();
        groups.sort_by(|a, b| a.label.cmp(&b.label));
        InvariantSnapshot { groups }
    }

    /// Restore the state captured by [`snapshot`](Self::snapshot) onto a
    /// freshly compiled runtime for the same block. A group with another
    /// number of variables than the block's is refused, and the runtime
    /// left untouched.
    pub fn restore(&mut self, snap: InvariantSnapshot) -> Result<(), String> {
        if let Some(g) = snap.groups.iter().find(|g| g.vars.len() != self.n_vars) {
            return Err(format!(
                "group `{}` has {} variables for {}",
                g.label,
                g.vars.len(),
                self.n_vars
            ));
        }
        self.groups = snap
            .groups
            .into_iter()
            .map(|g| {
                (
                    g.label,
                    GroupInvariant {
                        vars: g.vars,
                        phase: g.phase,
                    },
                )
            })
            .collect();
        Ok(())
    }
}

/// One group's invariant state in an [`InvariantSnapshot`].
#[derive(Debug, Clone)]
pub struct InvariantGroupSnapshot {
    pub label: String,
    /// Invariant variables, slot-indexed.
    pub vars: Vec<Value>,
    pub phase: Phase,
}

/// Dynamic state of an [`InvariantRuntime`], exact under snapshot → restore.
#[derive(Debug, Clone)]
pub struct InvariantSnapshot {
    pub groups: Vec<InvariantGroupSnapshot>,
}

fn run_updates(stmts: &[StmtRow], vars: &mut [Value], eval: &mut StmtEval<'_>) {
    for (i, row) in stmts.iter().enumerate() {
        if row.init {
            continue;
        }
        // Update expressions see the current invariant variables; a
        // `Missing` result keeps the previous value (bad data never
        // erases a trained invariant).
        let next = eval(i, vars);
        if !next.is_missing() {
            vars[row.slot] = next;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use saql_lang::parse;

    fn block(train: usize, mode: &str) -> InvariantBlock {
        let src = format!(
            "proc p1 start proc p2 as evt #time(10 s)\nstate ss {{ set_proc := set(p2.exe_name) }} group by p1\ninvariant[{train}][{mode}] {{\n a := empty_set\n a = a union ss.set_proc\n}}\nalert |ss.set_proc diff a| > 0\nreturn p1"
        );
        parse(&src).unwrap().invariants.remove(0)
    }

    fn runtime(train: usize, mode: &str) -> InvariantRuntime {
        // Statement rows of the block above: `a := empty_set`, `a = ...`.
        InvariantRuntime::new(&block(train, mode), vec![(0, true), (0, false)], 1)
    }

    /// Evaluator mirroring the block: init seeds the empty set, the update
    /// unions a fixed per-window set into `a`.
    fn eval_with<'a>(window_set: &'a [&'a str]) -> impl FnMut(usize, &[Value]) -> Value + 'a {
        move |stmt, vars| match stmt {
            0 => Value::empty_set(),
            _ => vars[0].union(&Value::set_from(window_set.iter().map(|s| s.to_string()))),
        }
    }

    #[test]
    fn trains_then_detects() {
        let mut inv = runtime(3, "offline");
        for i in 0..3 {
            let ready = inv.on_window("apache.exe", &mut eval_with(&["php.exe"]));
            assert!(!ready, "window {i} must still be training");
        }
        assert_eq!(inv.phase("apache.exe"), Some(Phase::Detecting));
        assert!(inv.on_window("apache.exe", &mut eval_with(&["php.exe"])));
        // The trained invariant contains the union of training windows.
        assert_eq!(inv.vars("apache.exe")[0].to_string(), "{php.exe}");
    }

    #[test]
    fn union_accumulates_across_training_windows() {
        let mut inv = runtime(2, "offline");
        inv.on_window("apache.exe", &mut eval_with(&["php.exe"]));
        inv.on_window("apache.exe", &mut eval_with(&["rotatelogs.exe"]));
        assert_eq!(
            inv.vars("apache.exe")[0].to_string(),
            "{php.exe, rotatelogs.exe}"
        );
    }

    #[test]
    fn offline_mode_freezes_after_training() {
        let mut inv = runtime(1, "offline");
        inv.on_window("g", &mut eval_with(&["php.exe"]));
        // Detection window with a new process; offline must not absorb it.
        assert!(inv.on_window("g", &mut eval_with(&["cmd.exe"])));
        inv.absorb_online("g", &mut eval_with(&["cmd.exe"]));
        assert_eq!(inv.vars("g")[0].to_string(), "{php.exe}");
    }

    #[test]
    fn online_mode_absorbs_after_training() {
        let mut inv = runtime(1, "online");
        inv.on_window("g", &mut eval_with(&["php.exe"]));
        assert!(inv.on_window("g", &mut eval_with(&["cgi.exe"])));
        inv.absorb_online("g", &mut eval_with(&["cgi.exe"]));
        assert_eq!(inv.vars("g")[0].to_string(), "{cgi.exe, php.exe}");
    }

    #[test]
    fn groups_train_independently() {
        let mut inv = runtime(2, "offline");
        inv.on_window("apache-1", &mut eval_with(&["php.exe"]));
        inv.on_window("apache-1", &mut eval_with(&["php.exe"]));
        // apache-2 appears later: still training while apache-1 detects.
        assert!(!inv.on_window("apache-2", &mut eval_with(&["perl.exe"])));
        assert!(inv.on_window("apache-1", &mut eval_with(&["php.exe"])));
        assert_eq!(inv.phase("apache-2"), Some(Phase::Training { seen: 1 }));
    }

    #[test]
    fn missing_update_keeps_previous_value() {
        let mut inv = runtime(2, "offline");
        inv.on_window("g", &mut eval_with(&["php.exe"]));
        inv.on_window("g", &mut |stmt, _| match stmt {
            0 => Value::empty_set(),
            _ => Value::Missing,
        });
        assert_eq!(inv.vars("g")[0].to_string(), "{php.exe}");
    }

    #[test]
    fn unknown_group_has_no_vars() {
        let inv = runtime(2, "offline");
        assert!(inv.vars("nobody").is_empty());
        assert_eq!(inv.phase("nobody"), None);
    }
}
