//! A compiled, running SAQL query: the per-query pipeline tying the
//! multievent matcher, window driver, state maintainer, invariant runtime,
//! cluster stage, and alert evaluator together.
//!
//! Queries compile **once at registration**: names resolve to slots
//! ([`saql_lang::resolve`]), expressions lower to register programs
//! ([`crate::plan`]), and attribute constraints bind [`saql_model::AttrId`]s.
//! Execution is batch-at-a-time and routed: per batch a query *prepares*
//! over the rows its group's master admitted and its global filter's slot
//! accepted (`GroupRouter`, `RunningQuery::prepare_batch`), then the
//! scheduler *drives* it over those rows in stream order
//! (`RunningQuery::process_row`).

use std::collections::{HashMap, HashSet};

use saql_lang::semantic::{CheckedQuery, QueryKind};
use saql_model::{AttrId, Timestamp};
use saql_stream::{BatchView, SharedEvent};

use crate::alert::{Alert, AlertOrigin};
use crate::cluster::{run_cluster_with, ClusterScratch};
use crate::error::{EngineError, ErrorReporter};
use crate::eval::{run_program, run_program_batch, ClusterOutcome, EventRow};
use crate::invariant::{InvariantRuntime, InvariantSnapshot};
use crate::matcher::{
    fnv1a, FullMatch, GlobalFilter, MatcherSnapshot, MultiMatcher, PatternMatcher, FNV_SEED,
};
use crate::plan::{ExecCtx, Op, QueryPlan};
use crate::state::{group_label, ClosedGroup, KeyAtom, StateMaintainer, StateSnapshot, StateView};
use crate::value::Value;
use crate::window::{Gate, WindowDriver, WindowSnapshot};

/// Handle to a registered query: the key of the engine's control plane.
///
/// Ids are assigned at registration ([`crate::Engine::register`]) and stay
/// valid for the engine's lifetime — they are never reused, even after the
/// query is deregistered. Every [`Alert`] carries the id of the query that
/// produced it, which is what makes per-query subscription routing possible.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct QueryId(usize);

impl QueryId {
    /// Placeholder carried by queries compiled outside an engine
    /// (standalone [`RunningQuery`]s in tests and benches).
    pub const UNASSIGNED: QueryId = QueryId(usize::MAX);

    /// An id from a raw registration index.
    pub fn new(index: usize) -> Self {
        QueryId(index)
    }

    /// The raw registration index.
    pub fn index(self) -> usize {
        self.0
    }
}

impl std::fmt::Display for QueryId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if *self == QueryId::UNASSIGNED {
            write!(f, "q#unassigned")
        } else {
            write!(f, "q#{}", self.0)
        }
    }
}

/// Tuning knobs for a running query.
#[derive(Debug, Clone, Copy)]
pub struct QueryConfig {
    /// Maximum live partial matches for the multievent matcher.
    pub partial_match_cap: usize,
    /// Out-of-order tolerance: windows stay open this long past their end
    /// so skewed agent feeds still land in their windows.
    pub allowed_lateness: saql_model::Duration,
}

impl Default for QueryConfig {
    fn default() -> Self {
        QueryConfig {
            partial_match_cap: 65_536,
            allowed_lateness: saql_model::Duration::ZERO,
        }
    }
}

/// Execution counters, exposed for the CLI and the benchmarks.
#[derive(Debug, Clone, Copy, Default)]
pub struct QueryStats {
    /// Events offered to the query (including globally filtered ones).
    pub events_seen: u64,
    /// Events that passed global constraints and matched some pattern.
    pub events_matched: u64,
    /// Windows closed.
    pub windows_closed: u64,
    /// Alerts emitted.
    pub alerts: u64,
    /// Events arriving after their windows already closed.
    pub late_events: u64,
}

/// Full dynamic state of one [`RunningQuery`], exact under
/// [`RunningQuery::snapshot`] → [`RunningQuery::restore`]. Each component
/// is present iff the query family uses it (rule queries carry a matcher,
/// stateful ones a window/state, invariant ones the training groups).
#[derive(Debug, Clone)]
pub struct QuerySnapshot {
    pub matcher: Option<MatcherSnapshot>,
    pub window: Option<WindowSnapshot>,
    pub state: Option<StateSnapshot>,
    pub invariant: Option<InvariantSnapshot>,
    /// `return distinct` dedup rows, sorted.
    pub distinct_seen: Vec<Vec<String>>,
    pub stats: QueryStats,
    /// Whether the partial-match overflow was already reported (prevents a
    /// resumed query from double-reporting).
    pub overflow_reported: bool,
}

/// Per-compatibility-group routing state: which member can want a row.
///
/// **At registration** ([`RunningQuery::attach`]) a member's
/// [`GlobalFilter`] is interned into a *slot* shared by every member with
/// the same filter fingerprint, and its patterns into that slot's pattern
/// columns (shared on [`PatternMatcher::fingerprint`]). A filter demanding
/// `attr = "value"` with a wildcard-free value
/// ([`GlobalFilter::exact_key`] — the paper's `agentid = xxx`) is indexed
/// under a hash of the attribute and the ASCII-case-folded value; every
/// other filter is a candidate on every row.
///
/// **Per batch** the scheduler selects the rows the group's shape mask
/// admits, and [`route`](Self::route) makes one pass over that selection:
/// look the row's value up, test only the candidate filters, and append the
/// row — with its pattern flags — to each accepting slot. So a row costs a
/// hash probe plus the filters that can accept it, however many members the
/// group has, and a member whose slot received no row has nothing to
/// prepare. Buffers recycle across batches.
#[derive(Debug, Default)]
pub(crate) struct GroupRouter {
    slots: Vec<FilterSlot>,
    /// Filter fingerprint → slot.
    by_filter: HashMap<u64, usize>,
    /// [`key_hash`] of a slot's exact-match predicate → the slots demanding
    /// it (colliding keys share a list; `accepts` settles it).
    keyed: HashMap<u64, Vec<usize>>,
    /// The attributes `keyed` predicates test: one probe each per row.
    key_attrs: Vec<AttrId>,
    /// Slots with no exact-match predicate: candidates on every row.
    unkeyed: Vec<usize>,
    /// Batch rows whose shape the group admits, ascending.
    sel: Vec<u32>,
    /// `(row, accepting slot)`, ascending by row: the drive loop's work list.
    hits: Vec<(u32, usize)>,
    /// Next unconsumed entry of `hits` during the drive loop.
    cursor: usize,
}

/// One interned global filter and what its members share.
#[derive(Debug)]
struct FilterSlot {
    filter: GlobalFilter,
    /// Positions in the group's member list of the members with this
    /// filter, ascending.
    members: Vec<usize>,
    /// Those members' distinct patterns, each with its match flags aligned
    /// with `rows`.
    pats: Vec<(PatternMatcher, Vec<bool>)>,
    /// Selected rows the filter accepted this batch, ascending.
    rows: Vec<u32>,
}

/// Index key of `attr = "value"`: FNV-1a over the attribute and the
/// ASCII-lowercased value, so every spelling `like_match` treats as equal
/// lands on one key.
fn key_hash(attr: AttrId, value: &str) -> u64 {
    value.bytes().fold(fnv1a(FNV_SEED, &[attr as u8]), |h, b| {
        fnv1a(h, &[b.to_ascii_lowercase()])
    })
}

impl GroupRouter {
    /// Intern a member's filter and patterns; returns its slot and, per
    /// pattern in declaration order, the pattern's column within the slot.
    fn intern(
        &mut self,
        member: usize,
        filter: &GlobalFilter,
        patterns: &[PatternMatcher],
    ) -> (usize, Vec<usize>) {
        let fresh = self.slots.len();
        let slot = *self.by_filter.entry(filter.fingerprint()).or_insert(fresh);
        if slot == fresh {
            match filter.exact_key() {
                Some((attr, value)) => {
                    self.keyed
                        .entry(key_hash(attr, value))
                        .or_default()
                        .push(slot);
                    if !self.key_attrs.contains(&attr) {
                        self.key_attrs.push(attr);
                    }
                }
                None => self.unkeyed.push(slot),
            }
            self.slots.push(FilterSlot {
                filter: filter.clone(),
                members: Vec::new(),
                pats: Vec::new(),
                rows: Vec::new(),
            });
        }
        let FilterSlot { members, pats, .. } = &mut self.slots[slot];
        members.push(member);
        let columns = patterns
            .iter()
            .map(|p| {
                let known = pats
                    .iter()
                    .position(|(q, _)| q.fingerprint() == p.fingerprint());
                known.unwrap_or_else(|| {
                    pats.push((p.clone(), Vec::new()));
                    pats.len() - 1
                })
            })
            .collect();
        (slot, columns)
    }

    /// Start a batch: drop the previous batch's selection and columns.
    pub(crate) fn clear(&mut self) {
        for &(_, slot) in &self.hits {
            let slot = &mut self.slots[slot];
            slot.rows.clear();
            slot.pats.iter_mut().for_each(|(_, flags)| flags.clear());
        }
        self.sel.clear();
        self.hits.clear();
        self.cursor = 0;
    }

    /// Select batch row `row` (the scheduler offers rows in ascending
    /// order, and only rows whose shape the group's mask admits).
    pub(crate) fn select(&mut self, row: usize) {
        self.sel.push(row as u32);
    }

    /// Number of rows selected so far this batch — zero means no member has
    /// anything to prepare.
    pub(crate) fn selected(&self) -> usize {
        self.sel.len()
    }

    /// Route the selection: one pass, each row tested against the filters
    /// that can accept it and appended to those that do.
    pub(crate) fn route(&mut self, view: &BatchView<'_>) {
        let GroupRouter {
            slots,
            keyed,
            key_attrs,
            unkeyed,
            sel,
            hits,
            ..
        } = self;
        for &row in sel.iter() {
            let event = &view.events()[row as usize];
            let demanded = key_attrs.iter().filter_map(|&attr| {
                let value = event.attr_ref(attr)?;
                keyed.get(&key_hash(attr, value.as_str()?))
            });
            for &s in unkeyed.iter().chain(demanded.flatten()) {
                let slot = &mut slots[s];
                if slot.filter.accepts(event) {
                    slot.rows.push(row);
                    for (pattern, flags) in &mut slot.pats {
                        flags.push(pattern.matches(event));
                    }
                    hits.push((row, s));
                }
            }
        }
    }

    /// Consume the hits on `row`: the range of [`hit_members`](Self::hit_members)
    /// indices of the slots that accepted it. Rows must be asked for in
    /// ascending order.
    pub(crate) fn take_hits(&mut self, row: usize) -> std::ops::Range<usize> {
        let start = self.cursor;
        while self
            .hits
            .get(self.cursor)
            .is_some_and(|h| h.0 == row as u32)
        {
            self.cursor += 1;
        }
        start..self.cursor
    }

    /// Member positions of the slot behind hit `hit`, ascending.
    pub(crate) fn hit_members(&self, hit: usize) -> &[usize] {
        &self.slots[self.hits[hit].1].members
    }

    fn rows(&self, slot: usize) -> &[u32] {
        &self.slots[slot].rows
    }

    fn flags(&self, slot: usize, column: usize) -> &[bool] {
        &self.slots[slot].pats[column].1
    }
}

/// Per-query batch state, valid for the current batch only: for stateful
/// queries, everything watermark-independent about the rows it will fold
/// (pattern dispatch, group keys, field-program values). Window assignment and
/// `state.observe` stay in the drive loop: the watermark advances
/// mid-batch, so window membership cannot be hoisted.
#[derive(Debug, Default)]
struct BatchState {
    /// Next unconsumed entry of this query's work list — its slot's rows
    /// for rule queries (every accepted row feeds the matcher), `rows` for
    /// stateful ones.
    cursor: usize,
    /// Stateful work list, ascending by row: rows the global filter
    /// accepted and some pattern matched, bound to the first matching
    /// pattern's slots.
    rows: Vec<EventRow>,
    /// Row-major group-key atoms, `n_keys` per entry of `rows` (padded when
    /// unresolvable so indexing stays aligned).
    keys: Vec<KeyAtom>,
    /// Per entry of `rows`: whether every group key resolved.
    key_ok: Vec<bool>,
    /// Row-major field-program values, `n_fields` per entry of `rows`.
    fields: Vec<Value>,
    /// Per-row pattern-hit scratch handed to the matcher.
    hits_buf: Vec<bool>,
    /// Register-column scratch for `run_program_batch`.
    cols_buf: Vec<Value>,
    /// Result-column scratch for `run_program_batch`.
    out_buf: Vec<Value>,
}

/// One running query instance.
pub struct RunningQuery {
    name: String,
    id: QueryId,
    paused: bool,
    checked: CheckedQuery,
    plan: QueryPlan,
    globals: GlobalFilter,
    /// This query's filter slot in its group's [`GroupRouter`], and its
    /// patterns' columns within that slot (declaration order) — assigned by
    /// [`attach`](Self::attach) when the scheduler hosts the query.
    slot: usize,
    pat_cols: Vec<usize>,
    matcher: Option<MultiMatcher>,
    window: Option<WindowDriver>,
    patterns: Vec<PatternMatcher>,
    state: Option<StateMaintainer>,
    invariant: Option<InvariantRuntime>,
    distinct_seen: HashSet<Vec<String>>,
    errors: ErrorReporter,
    overflow_reported: bool,
    stats: QueryStats,
    /// Reusable register file for program execution.
    scratch: Vec<Value>,
    /// Reusable buffers (window ids, key atoms) — the stateful hot path
    /// allocates nothing once warm.
    windows_buf: Vec<u64>,
    key_buf: Vec<KeyAtom>,
    /// Prepared state for the current batch.
    batch: BatchState,
    /// Cluster-stage buffers (DBSCAN working set, comparison points)
    /// recycled across window closes.
    cluster_scratch: ClusterScratch,
}

impl RunningQuery {
    /// Build a running instance from a checked query.
    pub fn new(name: impl Into<String>, checked: CheckedQuery, config: QueryConfig) -> Self {
        let plan = QueryPlan::compile(&checked);
        let plan_scratch = plan.scratch_regs;
        let globals = GlobalFilter::compile(&checked.ast.globals);
        let slot_names: Vec<String> = plan.entity_vars.iter().map(|(v, _)| v.clone()).collect();
        let patterns: Vec<PatternMatcher> = checked
            .ast
            .patterns
            .iter()
            .map(|p| PatternMatcher::compile(p, &slot_names))
            .collect();
        let matcher = (checked.kind == QueryKind::Rule)
            .then(|| MultiMatcher::compile(&checked.ast, config.partial_match_cap));
        let window = checked
            .window
            .map(|w| WindowDriver::with_lateness(w, config.allowed_lateness));
        // History only as deep as some program reads: 1 + the deepest
        // `ss[n]` of the alert, return, invariant and cluster programs.
        let depth = plan
            .programs()
            .flat_map(|p| &p.ops)
            .filter_map(|op| match op {
                Op::State { back, .. } => Some(*back as usize + 1),
                _ => None,
            })
            .max()
            .unwrap_or(1);
        let state = (checked.ast.states.first()).map(|block| StateMaintainer::new(block, depth));
        let invariant = checked.ast.invariants.first().map(|block| {
            InvariantRuntime::new(
                block,
                checked
                    .resolved
                    .invariant_stmts
                    .iter()
                    .map(|s| (s.slot, s.init))
                    .collect(),
                checked.resolved.invariant_vars.len(),
            )
        });
        RunningQuery {
            name: name.into(),
            id: QueryId::UNASSIGNED,
            paused: false,
            checked,
            plan,
            globals,
            slot: 0,
            pat_cols: Vec::new(),
            matcher,
            window,
            patterns,
            state,
            invariant,
            distinct_seen: HashSet::new(),
            errors: ErrorReporter::default(),
            overflow_reported: false,
            stats: QueryStats::default(),
            // Sized for the largest program up front (`run_program` only
            // ever resizes within this capacity).
            scratch: Vec::with_capacity(plan_scratch),
            windows_buf: Vec::new(),
            key_buf: Vec::new(),
            batch: BatchState::default(),
            cluster_scratch: ClusterScratch::default(),
        }
    }

    /// Compile SAQL text directly into a running query.
    pub fn compile(
        name: impl Into<String>,
        source: &str,
        config: QueryConfig,
    ) -> Result<Self, saql_lang::LangError> {
        Ok(RunningQuery::new(name, saql_lang::compile(source)?, config))
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    /// The engine-assigned id ([`QueryId::UNASSIGNED`] for standalone
    /// instances). Stamped onto every alert this query emits.
    pub fn id(&self) -> QueryId {
        self.id
    }

    /// Assign the control-plane id (done once, at registration).
    pub fn set_id(&mut self, id: QueryId) {
        self.id = id;
    }

    /// Whether the query is detached from the stream (sees no events, no
    /// time, emits nothing) until resumed.
    pub fn is_paused(&self) -> bool {
        self.paused
    }

    /// Pause or resume this query. While paused a query's windows do not
    /// advance; events arriving during the pause are simply never seen.
    pub fn set_paused(&mut self, paused: bool) {
        self.paused = paused;
    }

    pub fn kind(&self) -> QueryKind {
        self.checked.kind
    }

    /// The compiled execution plan (slot tables + programs).
    pub fn plan(&self) -> &QueryPlan {
        &self.plan
    }

    /// Scheduler-compatibility key (see
    /// [`saql_lang::semantic::CheckedQuery::compat_key`]).
    pub fn compat_key(&self) -> &str {
        &self.checked.compat_key
    }

    /// Upstream query whose alert stream this query consumes (`from query
    /// NAME`), if this is a pipeline stage.
    pub fn pipeline_input(&self) -> Option<&str> {
        self.checked
            .pipeline_input
            .as_ref()
            .map(|(n, _)| n.as_str())
    }

    /// Span of the `from query` clause within this query's source, for
    /// error reporting against the stage text.
    pub fn pipeline_input_span(&self) -> Option<saql_lang::Span> {
        self.checked.pipeline_input.as_ref().map(|(_, s)| *s)
    }

    pub fn stats(&self) -> QueryStats {
        self.stats
    }

    pub fn errors(&self) -> &ErrorReporter {
        &self.errors
    }

    /// Capture all of this query's dynamic state at the current stream
    /// position (engine checkpoints). Everything static — patterns, plans,
    /// programs — is recompiled from the retained query source on resume;
    /// the snapshot carries only what events have built up. Batch-transient
    /// scratch is excluded: checkpoints are taken at batch boundaries,
    /// where it is dead. Error history is intentionally not checkpointed —
    /// it is diagnostics, not stream state.
    pub fn snapshot(&self) -> QuerySnapshot {
        let mut distinct_seen: Vec<Vec<String>> = self.distinct_seen.iter().cloned().collect();
        distinct_seen.sort();
        QuerySnapshot {
            matcher: self.matcher.as_ref().map(MultiMatcher::snapshot),
            window: self.window.as_ref().map(WindowDriver::snapshot),
            state: self.state.as_ref().map(StateMaintainer::snapshot),
            invariant: self.invariant.as_ref().map(InvariantRuntime::snapshot),
            distinct_seen,
            stats: self.stats,
            overflow_reported: self.overflow_reported,
        }
    }

    /// Restore the state captured by [`snapshot`](Self::snapshot) onto a
    /// freshly compiled instance of the same query source and config. After
    /// this, feeding the stream suffix from the checkpoint position yields
    /// exactly the alerts the uninterrupted run would have produced.
    ///
    /// State that does not fit this query's plan is refused: a component
    /// (matcher, window, state, invariant) the plan lacks or lacks in the
    /// snapshot, or one whose indices the plan does not have — the next
    /// batch would otherwise index past them.
    pub fn restore(&mut self, snap: QuerySnapshot) -> Result<(), String> {
        let components = [
            ("matcher", self.matcher.is_some(), snap.matcher.is_some()),
            ("window", self.window.is_some(), snap.window.is_some()),
            ("state", self.state.is_some(), snap.state.is_some()),
            (
                "invariant",
                self.invariant.is_some(),
                snap.invariant.is_some(),
            ),
        ];
        if let Some((what, planned, _)) = components.iter().find(|(_, p, s)| p != s) {
            return Err(if *planned {
                format!("the checkpoint has no {what} state")
            } else {
                format!("the checkpoint has {what} state, the plan no {what}")
            });
        }
        if let (Some(m), Some(s)) = (self.matcher.as_mut(), snap.matcher) {
            m.restore(s).map_err(|e| format!("matcher: {e}"))?;
        }
        if let (Some(w), Some(s)) = (self.window.as_mut(), snap.window) {
            w.restore(s);
        }
        if let (Some(st), Some(s)) = (self.state.as_mut(), snap.state) {
            st.restore(s).map_err(|e| format!("state: {e}"))?;
        }
        if let (Some(inv), Some(s)) = (self.invariant.as_mut(), snap.invariant) {
            inv.restore(s).map_err(|e| format!("invariant: {e}"))?;
        }
        self.distinct_seen = snap.distinct_seen.into_iter().collect();
        self.stats = snap.stats;
        self.overflow_reported = snap.overflow_reported;
        Ok(())
    }

    /// Combined shape mask over all patterns: bit `c` set iff an event with
    /// shape code `c` matches some pattern's shape, constraints aside
    /// (dependents apply their own). The group's master check tests this
    /// against the batch's shape column.
    pub fn shape_mask(&self) -> u64 {
        self.patterns.iter().fold(0, |m, p| m | p.shape_mask())
    }

    /// When this query's earliest open window closes, if any is open (the
    /// scheduler's window gate watches the minimum over a group).
    pub(crate) fn next_close(&self) -> Option<Timestamp> {
        self.window.as_ref().and_then(WindowDriver::next_close)
    }

    /// Raise the window watermark to `now`, which the caller knows to be
    /// before [`next_close`](Self::next_close) — [`advance_time`](Self::advance_time)
    /// minus the search for due windows.
    pub(crate) fn catch_up(&mut self, now: Timestamp) {
        if let Some(driver) = &mut self.window {
            driver.catch_up(now);
        }
    }

    /// Advance event time: closes due windows, appending their alerts to
    /// `alerts`.
    pub fn advance_time(&mut self, ts: Timestamp, alerts: &mut Vec<Alert>) {
        let due = self.window.as_mut().map(|driver| driver.advance(ts));
        for k in due.into_iter().flatten() {
            self.close_window(k, alerts);
        }
    }

    // ------------------------------------------------------------------
    // Batch execution
    // ------------------------------------------------------------------

    /// Join a group: intern this query's global filter and patterns into the
    /// group's routing state as member number `member`.
    pub(crate) fn attach(&mut self, member: usize, router: &mut GroupRouter) {
        (self.slot, self.pat_cols) = router.intern(member, &self.globals, &self.patterns);
    }

    /// Prepare this query for one batch its group [routed](GroupRouter::route):
    /// for stateful queries, precompute everything watermark-independent
    /// about the rows it will fold — pattern dispatch, group keys and
    /// field-program values, evaluated column-wise over the survivors only.
    /// A query whose filter slot received no row has nothing to do.
    ///
    /// Returns the number of rows *delivered* to this query: every row its
    /// group selected.
    ///
    /// Call once per batch, after the group selected at least one row and
    /// before any [`Self::process_row`] of that batch.
    pub(crate) fn prepare_batch(&mut self, view: &BatchView<'_>, router: &GroupRouter) -> u64 {
        let batch = &mut self.batch;
        batch.cursor = 0;
        batch.rows.clear();
        let selected = router.selected() as u64;
        let accepted = router.rows(self.slot);
        self.stats.events_seen += selected;
        if self.checked.kind == QueryKind::Rule || accepted.is_empty() {
            return selected;
        }

        // Dispatch each accepted row to its first matching pattern and
        // extract its group key. Unresolvable keys are padded so row-major
        // indexing stays aligned; such rows report instead of observing.
        let plan = &self.plan;
        let events = view.events();
        let nk = plan.group_keys.len();
        batch.keys.clear();
        batch.key_ok.clear();
        for (j, &row) in accepted.iter().enumerate() {
            let hit = |&column: &usize| router.flags(self.slot, column)[j];
            let Some(idx) = self.pat_cols.iter().position(hit) else {
                continue;
            };
            let (subject_slot, object_slot) = plan.pattern_slots[idx];
            let bound = EventRow {
                row,
                ev_slot: idx,
                subject_slot,
                object_slot,
            };
            let ok = extract_keys(plan, &events[row as usize], &bound, &mut self.key_buf);
            batch.rows.push(bound);
            batch.key_ok.push(ok);
            if ok {
                batch.keys.append(&mut self.key_buf);
            } else {
                batch
                    .keys
                    .extend(std::iter::repeat_with(|| KeyAtom::Int(0)).take(nk));
            }
        }

        // Field programs, column-wise over the work list, scattered
        // row-major.
        let nf = plan.field_programs.len();
        batch.fields.clear();
        batch.fields.resize(batch.rows.len() * nf, Value::Missing);
        for (f, prog) in plan.field_programs.iter().enumerate() {
            run_program_batch(
                prog,
                events,
                &batch.rows,
                &mut batch.cols_buf,
                &mut batch.out_buf,
            );
            for (r, v) in batch.out_buf.drain(..).enumerate() {
                batch.fields[r * nf + f] = v;
            }
        }
        selected
    }

    /// Drive step: process batch row `row`, one of the rows this query's
    /// filter slot accepted in the batch it was [prepared](Self::prepare_batch)
    /// for (the scheduler offers exactly those, in ascending order). Does
    /// *not* close windows — that is the scheduler's job, through `gate`. Rows a
    /// stateful query has no work on (no pattern matched, not owned) cost
    /// one comparison.
    pub(crate) fn process_row(
        &mut self,
        event: &SharedEvent,
        row: usize,
        router: &GroupRouter,
        gate: &mut Gate,
    ) -> Vec<Alert> {
        let pos = self.batch.cursor;
        match self.checked.kind {
            QueryKind::Rule => {
                // Every accepted row feeds the matcher, hit or not: feeding
                // is also what expires idle partial matches.
                debug_assert_eq!(router.rows(self.slot)[pos], row as u32);
                self.batch.cursor += 1;
                let mut hits = std::mem::take(&mut self.batch.hits_buf);
                hits.clear();
                let flags = |&column: &usize| router.flags(self.slot, column)[pos];
                hits.extend(self.pat_cols.iter().map(flags));
                let matcher = self.matcher.as_mut().expect("rule queries have a matcher");
                let fulls = matcher.feed_with_hits(event, &hits);
                self.batch.hits_buf = hits;
                self.emit_matches(fulls)
            }
            _ => {
                if self.batch.rows.get(pos).map(|r| r.row) == Some(row as u32) {
                    self.batch.cursor += 1;
                    self.fold_row(event, pos, gate);
                }
                Vec::new()
            }
        }
    }

    /// Stateful drive step for work-list entry `pos`: window assignment and
    /// state folding off the precomputed dispatch/keys/fields. The gate
    /// supplies the clock the windows are judged late against, and learns
    /// the close time of the earliest window the event lands in.
    fn fold_row(&mut self, event: &SharedEvent, pos: usize, gate: &mut Gate) {
        self.stats.events_matched += 1;
        let Some(driver) = &mut self.window else {
            return;
        };
        driver.catch_up(gate.now);
        driver.observe_into(event.ts, &mut self.windows_buf);
        let Some(&earliest) = self.windows_buf.first() else {
            self.stats.late_events += 1;
            return;
        };
        gate.watch(Some(driver.close_at(earliest)));
        let Some(state) = &mut self.state else { return };
        let batch = &self.batch;
        if batch.key_ok[pos] {
            let nk = self.plan.group_keys.len();
            let nf = self.plan.field_programs.len();
            state.observe(
                &self.windows_buf,
                &batch.keys[pos * nk..(pos + 1) * nk],
                &batch.fields[pos * nf..(pos + 1) * nf],
            );
        } else {
            self.errors.report(EngineError::Eval(format!(
                "group key of state `{}` unresolvable for event {}",
                state.name(),
                event.id
            )));
        }
    }

    /// End of stream: close all remaining windows.
    pub fn finish(&mut self) -> Vec<Alert> {
        let mut alerts = Vec::new();
        let due = self.window.as_mut().map(WindowDriver::drain);
        for k in due.into_iter().flatten() {
            self.close_window(k, &mut alerts);
        }
        alerts
    }

    // ------------------------------------------------------------------
    // Rule pipeline
    // ------------------------------------------------------------------

    /// Everything after the matcher probe: overflow reporting, alert
    /// condition, return rows, distinct.
    fn emit_matches(&mut self, fulls: Vec<FullMatch>) -> Vec<Alert> {
        let (overflowed, live) = {
            let matcher = self.matcher.as_ref().expect("rule queries have a matcher");
            (matcher.overflowed(), matcher.live_partials())
        };
        if overflowed && !self.overflow_reported {
            self.overflow_reported = true;
            self.errors.report(EngineError::PartialMatchOverflow {
                query: self.name.clone(),
                cap: live.max(1),
            });
        }
        if fulls.is_empty() {
            return Vec::new();
        }
        self.stats.events_matched += 1;
        let mut alerts = Vec::new();
        for full in fulls {
            if let Some(alert) = self.alert_from_match(&full) {
                alerts.push(alert);
            }
        }
        self.stats.alerts += alerts.len() as u64;
        alerts
    }

    fn alert_from_match(&mut self, full: &FullMatch) -> Option<Alert> {
        let events: Vec<Option<&saql_model::Event>> =
            full.events.iter().map(|e| Some(e.as_ref())).collect();
        let entities: Vec<Option<&saql_model::Entity>> =
            full.bindings.iter().map(Option::as_ref).collect();
        let ctx = ExecCtx {
            events: &events,
            entities: &entities,
            ..ExecCtx::empty()
        };
        if let Some(prog) = &self.plan.alert {
            if !run_program(prog, &ctx, &mut self.scratch).truthy() {
                return None;
            }
        }
        let rows: Vec<(String, String)> = self
            .plan
            .ret
            .iter()
            .map(|(label, prog)| {
                (
                    label.clone(),
                    run_program(prog, &ctx, &mut self.scratch).to_string(),
                )
            })
            .collect();
        if !pass_distinct_in(
            &mut self.distinct_seen,
            self.checked.ast.ret.as_ref(),
            &rows,
        ) {
            return None;
        }
        let last_ts = full
            .events
            .iter()
            .map(|e| e.ts)
            .max()
            .unwrap_or(Timestamp::ZERO);
        Some(Alert {
            query: self.name.clone(),
            query_id: self.id,
            ts: last_ts,
            origin: AlertOrigin::Match {
                event_ids: full.events.iter().map(|e| e.id).collect(),
            },
            rows,
        })
    }

    // ------------------------------------------------------------------
    // Stateful pipeline
    // ------------------------------------------------------------------

    /// Close window `k`: one pass over its groups in map order. A label is
    /// rendered only where it is observable — a fired alert, an invariant
    /// key, a cluster point — and only the fired alerts are sorted by it,
    /// then pass `distinct` and go out in that order (label order, equal
    /// labels in map order).
    fn close_window(&mut self, k: u64, alerts: &mut Vec<Alert>) {
        self.stats.windows_closed += 1;
        let (Some(maintainer), Some(window)) = (&mut self.state, &self.window) else {
            return;
        };
        maintainer.close(k);
        let state = &*maintainer;
        let (w_start, w_end) = window.assigner().bounds(k);

        let plan = &self.plan;
        let ast = &self.checked.ast;
        let scratch = &mut self.scratch;
        let cluster_scratch = &mut self.cluster_scratch;
        let mut inv_rt = self.invariant.as_mut();

        // Cluster stage: one comparison point per group that produced all
        // dimensions, placed in label order (the order DBSCAN and k-means
        // outcomes depend on); outcomes align with `closed` by index. The
        // DBSCAN working set (visited flags, queue, neighbour lists)
        // persists in `cluster_scratch` across closes.
        let mut outcomes: Vec<Option<ClusterOutcome>> = vec![None; state.closed().len()];
        if let Some(spec) = &ast.cluster {
            let mut placed: Vec<(String, usize, Vec<f64>)> = Vec::new();
            for (i, group) in state.closed().enumerate() {
                let ge = GroupEval::new(plan, state, k, group, None);
                if let Some(p) = ge.cluster_point(scratch) {
                    placed.push((group_label(group.key), i, p));
                }
            }
            placed.sort_by(|a, b| a.0.cmp(&b.0));
            cluster_scratch.points = placed
                .iter_mut()
                .map(|(_, _, p)| std::mem::take(p))
                .collect();
            let labels = run_cluster_with(spec, k, cluster_scratch);
            for ((_, i, _), outcome) in placed.iter().zip(labels) {
                outcomes[*i] = Some(outcome);
            }
        }

        let mut fired: Vec<(Rows, String)> = Vec::new();
        for (group, outcome) in state.closed().zip(outcomes) {
            let ge = GroupEval::new(plan, state, k, group, outcome);

            // Invariant bookkeeping (training windows never alert), keyed by
            // the group's label.
            let mut label = None;
            let (ready, inv_vars): (bool, Vec<Value>) = match inv_rt.as_deref_mut() {
                Some(inv) => {
                    let key = label.insert(group_label(group.key));
                    let ready = inv.on_window(key, &mut |i, vars| ge.stmt(i, vars, scratch));
                    (ready, inv.vars(key).to_vec())
                }
                None => (true, Vec::new()),
            };
            if !ready {
                continue;
            }

            // Alert condition; a stateful query without one emits every
            // group/window (continuous monitoring).
            if !ge.alert(&inv_vars, scratch).unwrap_or(true) {
                if let (Some(inv), Some(key)) = (inv_rt.as_deref_mut(), &label) {
                    inv.absorb_online(key, &mut |i, vars| ge.stmt(i, vars, scratch));
                }
                continue;
            }
            let label = label.unwrap_or_else(|| group_label(group.key));
            fired.push((ge.ret_rows(&label, &inv_vars, scratch), label));
        }
        maintainer.release();

        fired.sort_by(|a, b| a.1.cmp(&b.1));
        for (rows, label) in fired {
            if !pass_distinct_in(&mut self.distinct_seen, ast.ret.as_ref(), &rows) {
                continue;
            }
            self.stats.alerts += 1;
            alerts.push(Alert {
                query: self.name.clone(),
                query_id: self.id,
                ts: w_end,
                origin: AlertOrigin::Window {
                    start: w_start,
                    end: w_end,
                    group: label,
                },
                rows,
            });
        }
    }

    // ------------------------------------------------------------------
    // Explain
    // ------------------------------------------------------------------

    /// Human-readable dump of the compiled plan: resolved slots, predicate
    /// sets, and program listings (`saql explain`). Deterministic — the
    /// plan-dump golden tests diff this output.
    pub fn explain(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let plan = &self.plan;
        let _ = writeln!(out, "kind: {}", self.checked.kind.name());
        if let Some((up, _)) = &self.checked.pipeline_input {
            let _ = writeln!(out, "input: alert stream of query `{up}` (as `_in`)");
        }
        let _ = writeln!(out, "compat key: {}", self.compat_key());
        if let Some(w) = self.checked.window {
            let _ = writeln!(
                out,
                "window: size={}ms slide={}ms",
                w.size.as_millis(),
                w.slide.as_millis()
            );
        }
        if !self.globals.predicates().is_empty() {
            let _ = writeln!(out, "globals:");
            for pred in self.globals.predicates() {
                let _ = writeln!(out, "  {}", pred.render());
            }
        }
        let _ = writeln!(out, "slots:");
        for (i, alias) in plan.aliases.iter().enumerate() {
            let _ = writeln!(out, "  event[{i}] = {alias}");
        }
        for (i, (var, etype)) in plan.entity_vars.iter().enumerate() {
            let _ = writeln!(out, "  entity[{i}] = {var}: {}", etype.keyword());
        }
        let _ = writeln!(out, "patterns:");
        for (i, (ast_pat, matcher)) in self
            .checked
            .ast
            .patterns
            .iter()
            .zip(&self.patterns)
            .enumerate()
        {
            let ops: Vec<&str> = ast_pat.ops.iter().map(|o| o.keyword()).collect();
            let _ = writeln!(
                out,
                "  [{i}] {}: {} {}[s{}] {} {} {}[s{}]",
                ast_pat.alias,
                ast_pat.subject.etype.keyword(),
                ast_pat.subject.var,
                matcher.subject_slot,
                ops.join("||"),
                ast_pat.object.etype.keyword(),
                ast_pat.object.var,
                matcher.object_slot,
            );
            let (subject_preds, object_preds) = matcher.predicate_sets();
            for pred in subject_preds {
                let _ = writeln!(out, "      subject: {}", pred.render());
            }
            for pred in object_preds {
                let _ = writeln!(out, "      object:  {}", pred.render());
            }
        }
        if !plan.group_keys.is_empty() {
            let _ = writeln!(out, "group keys:");
            for (i, key) in plan.group_keys.iter().enumerate() {
                let source = match key.source {
                    saql_lang::resolve::KeySource::Entity { slot, attr } => format!(
                        "entity[{slot}].{}",
                        attr.map(|a| a.name()).unwrap_or("<unresolved>")
                    ),
                    saql_lang::resolve::KeySource::Event { slot, attr } => format!(
                        "event[{slot}].{}",
                        attr.map(|a| a.name()).unwrap_or("<unresolved>")
                    ),
                };
                let _ = writeln!(out, "  [{i}] {} <- {source}", key.spellings.join(" | "));
            }
        }
        if !plan.field_programs.is_empty() {
            let state_name = self
                .state
                .as_ref()
                .map(|s| s.name().to_string())
                .unwrap_or_default();
            let _ = writeln!(out, "state {state_name}:");
            for (name, prog) in plan.state_field_names.iter().zip(&plan.field_programs) {
                let _ = writeln!(out, "  field {name}:");
                let _ = write!(out, "{}", prog.listing(plan));
            }
        }
        if !plan.invariant_programs.is_empty() {
            let _ = writeln!(out, "invariant:");
            for (slot, init, prog) in &plan.invariant_programs {
                let var = plan
                    .invariant_vars
                    .get(*slot)
                    .map(String::as_str)
                    .unwrap_or("?");
                let op = if *init { ":=" } else { "=" };
                let _ = writeln!(out, "  {var} {op}");
                let _ = write!(out, "{}", prog.listing(plan));
            }
        }
        if !plan.cluster_programs.is_empty() {
            let _ = writeln!(out, "cluster points:");
            for prog in &plan.cluster_programs {
                let _ = write!(out, "{}", prog.listing(plan));
            }
        }
        if let Some(prog) = &plan.alert {
            let _ = writeln!(out, "alert:");
            let _ = write!(out, "{}", prog.listing(plan));
        }
        if !plan.ret.is_empty() {
            let _ = writeln!(out, "return:");
            for (label, prog) in &plan.ret {
                let _ = writeln!(out, "  item {label}:");
                let _ = write!(out, "{}", prog.listing(plan));
            }
        }
        let _ = writeln!(out, "vectorized:");
        let _ = writeln!(
            out,
            "  globals: fp={:016x} (column shared across compat group)",
            self.globals.fingerprint()
        );
        for (i, pattern) in self.patterns.iter().enumerate() {
            let _ = writeln!(
                out,
                "  pattern[{i}]: fp={:016x} (column shared across compat group)",
                pattern.fingerprint()
            );
        }
        if self.checked.kind == QueryKind::Rule {
            let _ = writeln!(out, "  matcher: probes driven off pattern columns");
        } else {
            let _ = writeln!(
                out,
                "  state: group keys + {} field program(s) batch-at-a-time",
                plan.field_programs.len()
            );
        }
        out
    }
}

/// Extract the group-key values of `event`, bound as `bound`, into `out`
/// (cleared first). `false` when any key is unresolvable (unknown
/// attribute, or a key variable this pattern does not bind) — the event
/// cannot be grouped. On an entity-slot collision the object binding wins,
/// as in program loads.
fn extract_keys(
    plan: &QueryPlan,
    event: &saql_model::Event,
    bound: &EventRow,
    out: &mut Vec<KeyAtom>,
) -> bool {
    out.clear();
    for key in &plan.group_keys {
        let value = match key.source {
            saql_lang::resolve::KeySource::Entity { slot, attr } => attr.and_then(|id| {
                if slot == bound.object_slot {
                    event.object.attr_value(id)
                } else if slot == bound.subject_slot {
                    event.subject.attr_value(id)
                } else {
                    None
                }
            }),
            saql_lang::resolve::KeySource::Event { slot, attr } => attr
                .filter(|_| slot == bound.ev_slot)
                .and_then(|id| event.attr_value(id)),
        };
        match value {
            Some(v) => out.push(KeyAtom::of_owned(v)),
            None => return false,
        }
    }
    true
}

/// An alert's return rows: `(item label, rendered value)`.
type Rows = Vec<(String, String)>;

/// Close-time evaluation of one group against the compiled programs.
struct GroupEval<'a> {
    plan: &'a QueryPlan,
    view: StateView<'a>,
    cluster: Option<ClusterOutcome>,
}

impl<'a> GroupEval<'a> {
    fn new(
        plan: &'a QueryPlan,
        state: &'a StateMaintainer,
        k: u64,
        group: ClosedGroup<'a>,
        cluster: Option<ClusterOutcome>,
    ) -> GroupEval<'a> {
        GroupEval {
            plan,
            view: StateView {
                maintainer: state,
                group,
                current_window: k,
            },
            cluster,
        }
    }

    fn ctx<'b>(&'b self, invariants: &'b [Value]) -> ExecCtx<'b> {
        ExecCtx {
            events: &[],
            entities: &[],
            group_keys: self.view.group.key,
            states: &self.view,
            invariants,
            cluster: self.cluster,
        }
    }

    /// Evaluate invariant statement `i` with `vars` in scope (initializers
    /// see an empty context).
    fn stmt(&self, i: usize, vars: &[Value], scratch: &mut Vec<Value>) -> Value {
        let (_, init, prog) = &self.plan.invariant_programs[i];
        if *init {
            run_program(prog, &ExecCtx::empty(), scratch)
        } else {
            run_program(prog, &self.ctx(vars), scratch)
        }
    }

    /// Evaluate the cluster point (no invariants or outcomes in scope yet).
    fn cluster_point(&self, scratch: &mut Vec<Value>) -> Option<Vec<f64>> {
        self.plan
            .cluster_programs
            .iter()
            .map(|prog| run_program(prog, &self.ctx(&[]), scratch).as_f64())
            .collect()
    }

    /// Evaluate the alert condition; `None` when the query declares none.
    fn alert(&self, inv_vars: &[Value], scratch: &mut Vec<Value>) -> Option<bool> {
        self.plan
            .alert
            .as_ref()
            .map(|prog| run_program(prog, &self.ctx(inv_vars), scratch).truthy())
    }

    /// Evaluate the return rows (the group label when no clause exists).
    fn ret_rows(&self, label: &str, inv_vars: &[Value], scratch: &mut Vec<Value>) -> Rows {
        if self.plan.ret.is_empty() {
            return vec![("group".to_string(), label.to_string())];
        }
        let ctx = self.ctx(inv_vars);
        self.plan
            .ret
            .iter()
            .map(|(label, prog)| (label.clone(), run_program(prog, &ctx, scratch).to_string()))
            .collect()
    }
}

fn pass_distinct_in(
    seen: &mut HashSet<Vec<String>>,
    ret: Option<&saql_lang::ast::ReturnClause>,
    rows: &[(String, String)],
) -> bool {
    if !ret.map(|r| r.distinct).unwrap_or(false) {
        return true;
    }
    let key: Vec<String> = rows.iter().map(|(_, v)| v.clone()).collect();
    seen.insert(key)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::Scheduler;
    use saql_model::event::EventBuilder;
    use saql_model::{NetworkInfo, ProcessInfo};
    use std::sync::Arc;

    fn compile(name: &str, src: &str, config: QueryConfig) -> RunningQuery {
        RunningQuery::compile(name, src, config).unwrap()
    }

    /// A query driven the way the engine drives it: as the only member of
    /// a scheduler, one event per batch.
    fn solo(query: RunningQuery) -> Scheduler {
        let mut s = Scheduler::new();
        s.add(query);
        s
    }

    fn q(src: &str) -> Scheduler {
        solo(compile("test-query", src, QueryConfig::default()))
    }

    fn stats(s: &Scheduler) -> QueryStats {
        s.queries().next().unwrap().stats()
    }

    fn start(id: u64, ts: u64, host: &str, parent: (u32, &str), child: (u32, &str)) -> SharedEvent {
        Arc::new(
            EventBuilder::new(id, host, ts)
                .subject(ProcessInfo::new(parent.0, parent.1, "u"))
                .starts_process(ProcessInfo::new(child.0, child.1, "u"))
                .build(),
        )
    }

    fn send(
        id: u64,
        ts: u64,
        host: &str,
        proc_: (u32, &str),
        dst: &str,
        amount: u64,
    ) -> SharedEvent {
        Arc::new(
            EventBuilder::new(id, host, ts)
                .subject(ProcessInfo::new(proc_.0, proc_.1, "u"))
                .sends(NetworkInfo::new("10.0.0.2", 44000, dst, 443, "tcp"))
                .amount(amount)
                .build(),
        )
    }

    #[test]
    fn rule_query_emits_alert_with_rows() {
        let mut rq = q(r#"proc p1["%cmd.exe"] start proc p2["%osql.exe"] as e1
return distinct p1, p2"#);
        let alerts = rq.process(&start(1, 10, "db", (1, "cmd.exe"), (2, "osql.exe")));
        assert_eq!(alerts.len(), 1);
        assert_eq!(alerts[0].get("p1"), Some("cmd.exe"));
        assert_eq!(alerts[0].get("p2"), Some("osql.exe"));
        assert!(matches!(alerts[0].origin, AlertOrigin::Match { .. }));
    }

    /// An unexpanded environment-variable path still ends in `cmd.exe`:
    /// the pattern's leading `%` is a wildcard, not a literal that the
    /// text's own `%` can consume.
    #[test]
    fn rule_query_matches_an_unexpanded_environment_path() {
        let mut rq = q(r#"proc p["%cmd.exe"] start proc q as e
return p, q"#);
        let exe = r"%windir%\system32\cmd.exe";
        let alerts = rq.process(&start(1, 10, "db", (1, exe), (2, "osql.exe")));
        assert_eq!(alerts.len(), 1);
        assert_eq!(alerts[0].get("p"), Some(exe));
    }

    #[test]
    fn distinct_suppresses_repeat_rows() {
        let mut rq = q(r#"proc p1["%cmd.exe"] start proc p2 as e1
return distinct p1, p2"#);
        assert_eq!(
            rq.process(&start(1, 10, "db", (1, "cmd.exe"), (2, "osql.exe")))
                .len(),
            1
        );
        // Different event id, same entity names: suppressed by distinct.
        assert_eq!(
            rq.process(&start(2, 20, "db", (1, "cmd.exe"), (3, "osql.exe")))
                .len(),
            0
        );
        // New process name: new row.
        assert_eq!(
            rq.process(&start(3, 30, "db", (1, "cmd.exe"), (4, "calc.exe")))
                .len(),
            1
        );
    }

    #[test]
    fn global_constraint_filters_hosts() {
        let mut rq = q("agentid = \"db-server\"\nproc p1 start proc p2 as e1\nreturn p1");
        assert!(rq
            .process(&start(1, 10, "client-1", (1, "a"), (2, "b")))
            .is_empty());
        assert_eq!(
            rq.process(&start(2, 20, "db-server", (1, "a"), (2, "b")))
                .len(),
            1
        );
    }

    /// The paper's Query 2 (SMA spike) end to end on a synthetic stream.
    #[test]
    fn time_series_query_detects_spike() {
        let src = r#"proc p write ip i as evt #time(10 min)
state[3] ss {
    avg_amount := avg(evt.amount)
} group by p
alert (ss[0].avg_amount > (ss[0].avg_amount + ss[1].avg_amount + ss[2].avg_amount) / 3) && (ss[0].avg_amount > 10000)
return p, ss[0].avg_amount"#;
        let mut rq = q(src);
        let min = 60_000u64;
        let mut alerts = Vec::new();
        let mut id = 0;
        // Three quiet windows then a spike window for sqlservr.exe.
        for w in 0..4u64 {
            let amount = if w == 3 { 5_000_000 } else { 2_000 };
            for j in 0..5 {
                id += 1;
                alerts.extend(rq.process(&send(
                    id,
                    w * 10 * min + j * min,
                    "db",
                    (10, "sqlservr.exe"),
                    "10.0.0.9",
                    amount,
                )));
            }
        }
        alerts.extend(rq.finish());
        assert_eq!(alerts.len(), 1, "{alerts:?}");
        let a = &alerts[0];
        assert!(matches!(&a.origin, AlertOrigin::Window { group, .. } if group == "sqlservr.exe"));
        assert_eq!(a.get("p"), Some("sqlservr.exe"));
        assert_eq!(a.get("ss[0].avg_amount"), Some("5000000.0"));
    }

    #[test]
    fn time_series_stays_quiet_on_flat_traffic() {
        let mut rq = q(r#"proc p write ip i as evt #time(10 min)
state[3] ss { avg_amount := avg(evt.amount) } group by p
alert (ss[0].avg_amount > (ss[0].avg_amount + ss[1].avg_amount + ss[2].avg_amount) / 3) && (ss[0].avg_amount > 10000)
return p"#);
        let min = 60_000u64;
        let mut alerts = Vec::new();
        for w in 0..6u64 {
            for j in 0..5 {
                alerts.extend(rq.process(&send(
                    w * 100 + j,
                    w * 10 * min + j * min,
                    "db",
                    (10, "sqlservr.exe"),
                    "10.0.0.9",
                    2_000,
                )));
            }
        }
        alerts.extend(rq.finish());
        assert!(alerts.is_empty(), "{alerts:?}");
    }

    /// The paper's Query 3 (invariant) end to end.
    #[test]
    fn invariant_query_detects_unseen_child() {
        let src = r#"proc p1["%apache.exe"] start proc p2 as evt #time(10 s)
state ss { set_proc := set(p2.exe_name) } group by p1
invariant[3][offline] {
    a := empty_set
    a = a union ss.set_proc
}
alert |ss.set_proc diff a| > 0
return p1, ss.set_proc"#;
        let mut rq = q(src);
        let sec = 1_000u64;
        let mut alerts = Vec::new();
        let mut id = 0;
        // Training: 3 windows of normal children.
        for w in 0..3u64 {
            for child in ["php-cgi.exe", "rotatelogs.exe"] {
                id += 1;
                alerts.extend(rq.process(&start(
                    id,
                    w * 10 * sec + sec,
                    "web",
                    (80, "apache.exe"),
                    (100 + id as u32, child),
                )));
            }
        }
        // Detection window with a normal child: quiet.
        id += 1;
        alerts.extend(rq.process(&start(
            id,
            3 * 10 * sec + sec,
            "web",
            (80, "apache.exe"),
            (900, "php-cgi.exe"),
        )));
        // Next window: the webshell.
        id += 1;
        alerts.extend(rq.process(&start(
            id,
            4 * 10 * sec + sec,
            "web",
            (80, "apache.exe"),
            (999, "cmd.exe"),
        )));
        alerts.extend(rq.finish());
        assert_eq!(alerts.len(), 1, "{alerts:?}");
        assert!(alerts[0].get("ss.set_proc").unwrap().contains("cmd.exe"));
    }

    /// The paper's Query 4 (DBSCAN outlier) end to end.
    #[test]
    fn outlier_query_flags_exfiltration_ip() {
        let src = r#"proc p["%sqlservr.exe"] read || write ip i as evt #time(10 min)
state ss { amt := sum(evt.amount) } group by i.dstip
cluster(points=all(ss.amt), distance="ed", method="DBSCAN(100000, 5)")
alert cluster.outlier && ss.amt > 1000000
return i.dstip, ss.amt"#;
        let mut rq = q(src);
        let min = 60_000u64;
        let mut alerts = Vec::new();
        let mut id = 0;
        // 8 ordinary client ips with ~50KB each, one attacker with 2GB.
        for c in 0..8u32 {
            id += 1;
            alerts.extend(rq.process(&send(
                id,
                c as u64 * min,
                "db",
                (10, "sqlservr.exe"),
                &format!("10.0.0.{}", 50 + c),
                50_000,
            )));
        }
        id += 1;
        alerts.extend(rq.process(&send(
            id,
            9 * min,
            "db",
            (10, "sqlservr.exe"),
            "172.16.9.129",
            2_000_000_000,
        )));
        alerts.extend(rq.finish());
        assert_eq!(alerts.len(), 1, "{alerts:?}");
        assert_eq!(alerts[0].get("i.dstip"), Some("172.16.9.129"));
    }

    #[test]
    fn stateful_query_without_alert_emits_every_window() {
        let mut rq = q("proc p write ip i as evt #time(1 min)\nstate ss { n := count() } group by p\nreturn p, ss[0].n");
        let mut alerts = Vec::new();
        for w in 0..3u64 {
            alerts.extend(rq.process(&send(w, w * 60_000 + 1, "db", (1, "x.exe"), "1.1.1.1", 10)));
        }
        alerts.extend(rq.finish());
        assert_eq!(alerts.len(), 3);
        assert!(alerts.iter().all(|a| a.get("ss[0].n") == Some("1")));
    }

    #[test]
    fn allowed_lateness_recovers_out_of_order_events() {
        let config = QueryConfig {
            allowed_lateness: saql_model::Duration::from_secs(30),
            ..QueryConfig::default()
        };
        let src = "proc p write ip i as evt #time(1 min)\nstate ss { n := count() } group by p\nreturn p, ss[0].n";
        // Event at 10s, then watermark jumps to 70s, then a straggler at 50s.
        let events = [
            send(1, 10_000, "h", (1, "x.exe"), "1.1.1.1", 5),
            send(2, 70_000, "h", (1, "x.exe"), "1.1.1.1", 5),
            send(3, 50_000, "h", (1, "x.exe"), "1.1.1.1", 5),
        ];
        // Without lateness the straggler is dropped.
        let mut strict = solo(compile("strict", src, QueryConfig::default()));
        let mut strict_alerts = Vec::new();
        for e in &events {
            strict_alerts.extend(strict.process(e));
        }
        strict_alerts.extend(strict.finish());
        assert_eq!(stats(&strict).late_events, 1);
        let w0 = strict_alerts
            .iter()
            .find(|a| a.ts == Timestamp::from_secs(60))
            .unwrap();
        assert_eq!(w0.get("ss[0].n"), Some("1"));

        // With 30s lateness the first window is still open at watermark 70s.
        let mut tolerant = solo(compile("tolerant", src, config));
        let mut tolerant_alerts = Vec::new();
        for e in &events {
            tolerant_alerts.extend(tolerant.process(e));
        }
        tolerant_alerts.extend(tolerant.finish());
        assert_eq!(stats(&tolerant).late_events, 0);
        let w0 = tolerant_alerts
            .iter()
            .find(|a| a.ts == Timestamp::from_secs(60))
            .unwrap();
        assert_eq!(w0.get("ss[0].n"), Some("2"));
    }

    #[test]
    fn stats_track_pipeline() {
        let mut rq = q("agentid = \"db\"\nproc p write ip i as evt #time(1 min)\nstate ss { n := count() } group by p\nalert ss[0].n > 100\nreturn p");
        rq.process(&send(1, 10, "db", (1, "x.exe"), "1.1.1.1", 10));
        rq.process(&send(2, 20, "other", (1, "x.exe"), "1.1.1.1", 10));
        rq.finish();
        let s = stats(&rq);
        assert_eq!(s.events_seen, 2);
        assert_eq!(s.events_matched, 1);
        assert_eq!(s.windows_closed, 1);
        assert_eq!(s.alerts, 0);
    }

    #[test]
    fn shape_mask_is_constraint_free() {
        let rq = compile(
            "test-query",
            r#"proc p1["%cmd.exe"] start proc p2["%osql.exe"] as e1
return p1"#,
            QueryConfig::default(),
        );
        let admits = |e: &SharedEvent| rq.shape_mask() & (1u64 << e.shape_code()) != 0;
        // Shape (proc start proc) matches even with different names...
        assert!(admits(&start(
            1,
            1,
            "h",
            (1, "anything.exe"),
            (2, "else.exe")
        )));
        // ...but a different object type does not.
        assert!(!admits(&send(2, 2, "h", (1, "cmd.exe"), "1.1.1.1", 5)));
    }

    #[test]
    fn explain_lists_slots_predicates_and_programs() {
        let rq = compile(
            "test-query",
            r#"agentid = "db-server"
proc p write ip i as evt #time(10 min)
state[3] ss { avg_amount := avg(evt.amount) } group by p
alert ss[0].avg_amount > 10000
return p, ss[0].avg_amount"#,
            QueryConfig::default(),
        );
        let shown = rq.explain();
        assert!(shown.contains("kind: time-series"), "{shown}");
        assert!(shown.contains("agentid LIKE \"db-server\""), "{shown}");
        assert!(shown.contains("entity[0] = p: proc"), "{shown}");
        assert!(shown.contains("group keys:"), "{shown}");
        assert!(
            shown.contains("p | p.exe_name <- entity[0].exe_name"),
            "{shown}"
        );
        assert!(shown.contains("state[0].0:avg_amount"), "{shown}");
        assert!(shown.contains("const 10000"), "{shown}");
        // Deterministic output (golden tests rely on it).
        assert_eq!(shown, rq.explain());
    }
}
