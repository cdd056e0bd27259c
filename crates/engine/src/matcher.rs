//! The multievent matcher.
//!
//! Matches stream events against a query's event patterns. A single
//! [`PatternMatcher`] decides whether one event satisfies one pattern
//! (entity types, operation alternation, attribute constraints with
//! SQL-LIKE wildcards). The [`MultiMatcher`] composes patterns with the
//! temporal clause (`with evt1 -> evt2 -> ...`) and attribute joins (shared
//! variables must bind the same entity), maintaining bounded partial-match
//! state across the stream.

use std::collections::{HashMap, HashSet};

use saql_lang::ast::{AttrConstraint, CmpOp, EventPattern, GlobalConstraint, Query};
use saql_lang::resolve::entity_slot_names;
use saql_model::glob::{is_exact, like_match};
use saql_model::{
    AttrId, AttrNs, AttrRef, AttrTable, AttrValue, Duration, Entity, Event, ProcessInfo, Timestamp,
};
use saql_stream::SharedEvent;

/// FNV-1a over a byte run (fold more runs by passing the previous result).
/// Used for the sub-plan fingerprints the scheduler shares columns on:
/// deterministic across runs and platforms, unlike `DefaultHasher`, so
/// fingerprints can appear in explain output and golden fixtures.
pub(crate) fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// FNV-1a offset basis (the seed for [`fnv1a`] chains).
pub(crate) const FNV_SEED: u64 = 0xcbf2_9ce4_8422_2325;

/// The comparison a predicate performs once its attribute is loaded.
#[derive(Debug, Clone)]
enum PredTest {
    /// SQL-LIKE match on a string attribute.
    Like(String),
    /// Direct comparison against a constant.
    Cmp { op: CmpOp, value: AttrValue },
}

/// A compiled attribute constraint: attribute resolved to an [`AttrId`] at
/// compile time, checked against **borrowed** attribute views at run time —
/// the per-event path neither compares attribute names nor clones values.
#[derive(Debug, Clone)]
pub struct Predicate {
    /// Resolved attribute. `None` means the constraint names an attribute
    /// its target cannot supply; such a predicate never matches (exactly
    /// what the legacy name-probing produced).
    attr: Option<AttrId>,
    /// The attribute as spelled in the query (for explain listings).
    spelled: String,
    test: PredTest,
}

impl Predicate {
    /// Compile one AST constraint against an attribute namespace.
    /// `default_attr` fills the `proc p["%cmd.exe"]` shorthand. LIKE is
    /// chosen for string equality (wildcards or not — exact strings keep
    /// the case-insensitive semantics monitoring paths need).
    pub fn compile(c: &AttrConstraint, ns: AttrNs, default_attr: &str) -> Predicate {
        let spelled = c.attr.clone().unwrap_or_else(|| default_attr.to_string());
        let attr = AttrTable::global().resolve(ns, &spelled);
        let value = c.value.to_attr();
        let test = match (&value, c.op) {
            (AttrValue::Str(s), CmpOp::Eq) => PredTest::Like(s.to_string()),
            _ => PredTest::Cmp { op: c.op, value },
        };
        Predicate {
            attr,
            spelled,
            test,
        }
    }

    /// The resolved attribute this predicate loads, if any.
    pub fn attr(&self) -> Option<AttrId> {
        self.attr
    }

    /// Check the predicate against a borrowed attribute view. `None`
    /// (attribute absent) never matches.
    pub fn check(&self, actual: Option<AttrRef<'_>>) -> bool {
        let Some(actual) = actual else { return false };
        match &self.test {
            PredTest::Like(pattern) => match actual.as_str() {
                Some(s) => like_match(pattern, s),
                None => false,
            },
            PredTest::Cmp { op, value } => match op {
                CmpOp::Eq => actual.loose_eq(value),
                CmpOp::Ne => !actual.loose_eq(value),
                _ => match actual.loose_cmp(value) {
                    Some(ord) => match op {
                        CmpOp::Lt => ord.is_lt(),
                        CmpOp::Le => ord.is_le(),
                        CmpOp::Gt => ord.is_gt(),
                        CmpOp::Ge => ord.is_ge(),
                        CmpOp::Eq | CmpOp::Ne => unreachable!("handled above"),
                    },
                    None => false,
                },
            },
        }
    }

    /// Whether the entity satisfies this predicate (borrowed end to end).
    pub fn check_entity(&self, entity: &Entity) -> bool {
        match self.attr {
            Some(id) => self.check(entity.attr_ref(id)),
            None => false,
        }
    }

    /// Whether the event's *event-level* attributes satisfy this predicate.
    pub fn check_event(&self, event: &Event) -> bool {
        match self.attr {
            Some(id) => self.check(event.attr_ref(id)),
            None => false,
        }
    }

    /// One-line form for explain listings, e.g. `exe_name LIKE "%cmd.exe"`.
    pub fn render(&self) -> String {
        let attr = match self.attr {
            Some(id) => id.name().to_string(),
            None => format!("<unresolved:{}>", self.spelled),
        };
        match &self.test {
            PredTest::Like(pattern) => format!("{attr} LIKE {pattern:?}"),
            PredTest::Cmp { op, value } => format!("{attr} {} {value}", op.symbol()),
        }
    }
}

/// Compiled global constraints (`agentid = "db-server"`), checked against
/// event-level attributes before any pattern work.
#[derive(Debug, Clone)]
pub struct GlobalFilter {
    predicates: Vec<Predicate>,
    /// See [`fingerprint`](Self::fingerprint); fixed at compile time.
    fingerprint: u64,
}

impl GlobalFilter {
    pub fn compile(globals: &[GlobalConstraint]) -> GlobalFilter {
        let predicates: Vec<Predicate> = globals
            .iter()
            .map(|g| {
                Predicate::compile(
                    &AttrConstraint {
                        attr: Some(g.attr.clone()),
                        op: g.op,
                        value: g.value.clone(),
                        span: g.span,
                    },
                    AttrNs::Event,
                    g.attr.as_str(),
                )
            })
            .collect();
        let mut fingerprint = fnv1a(FNV_SEED, b"glob");
        for pred in &predicates {
            fingerprint = fnv1a(fingerprint, b"|");
            fingerprint = fnv1a(fingerprint, pred.render().as_bytes());
        }
        GlobalFilter {
            predicates,
            fingerprint,
        }
    }

    /// Whether the event passes every global constraint.
    pub fn accepts(&self, event: &Event) -> bool {
        self.predicates.iter().all(|pred| pred.check_event(event))
    }

    /// The first constraint of the form `attr = "value"` with a
    /// wildcard-free value, if any: the filter accepts only events whose
    /// `attr` equals `value` under ASCII case folding, so the scheduler
    /// indexes the filter under that pair instead of testing it on every
    /// row.
    pub fn exact_key(&self) -> Option<(AttrId, &str)> {
        self.predicates
            .iter()
            .find_map(|pred| match (&pred.test, pred.attr) {
                (PredTest::Like(pattern), Some(attr)) if is_exact(pattern) => {
                    Some((attr, pattern.as_str()))
                }
                _ => None,
            })
    }

    /// Deterministic fingerprint of the predicate set — equal fingerprints
    /// mean identical acceptance vectors, which is what the per-group
    /// filter slots share on.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The compiled predicates (explain listings).
    pub fn predicates(&self) -> &[Predicate] {
        &self.predicates
    }
}

/// A compiled event pattern: operations, types, and attribute predicates
/// resolved to ids, with subject/object bound to entity-variable *slots*
/// (positions in [`entity_slot_names`]) instead of names.
#[derive(Debug, Clone)]
pub struct PatternMatcher {
    /// Entity-variable slot the subject binds.
    pub subject_slot: usize,
    /// Entity-variable slot the object binds.
    pub object_slot: usize,
    pub alias: String,
    /// Bitmask over event shape codes (see `saql_model::event::shape_code`):
    /// bit `shape_code(op, object_type)` is set for every accepted `op`.
    /// `shape_matches` is a single mask test; the scheduler ANDs a group's
    /// combined mask against the batch's shape column.
    shape_mask: u64,
    subject_preds: Vec<Predicate>,
    object_preds: Vec<Predicate>,
    /// See [`fingerprint`](Self::fingerprint); fixed at compile time.
    fingerprint: u64,
}

impl PatternMatcher {
    /// Compile one pattern against the query's entity slot table.
    pub fn compile(p: &EventPattern, slots: &[String]) -> PatternMatcher {
        let slot_of = |var: &str| {
            slots
                .iter()
                .position(|s| s == var)
                .expect("slot table covers every pattern variable")
        };
        let shape_mask = p.ops.iter().fold(0u64, |mask, &op| {
            mask | 1u64 << saql_model::event::shape_code(op, p.object.etype)
        });
        let subject_preds: Vec<Predicate> = p
            .subject
            .constraints
            .iter()
            .map(|c| {
                Predicate::compile(
                    c,
                    AttrNs::Process,
                    saql_model::EntityType::Process.default_attr(),
                )
            })
            .collect();
        let object_preds: Vec<Predicate> = p
            .object
            .constraints
            .iter()
            .map(|c| {
                Predicate::compile(
                    c,
                    AttrNs::of_entity(p.object.etype),
                    p.object.etype.default_attr(),
                )
            })
            .collect();
        let mut fingerprint = fnv1a(FNV_SEED, b"pat");
        fingerprint = fnv1a(fingerprint, &[p.object.etype as u8, p.ops.len() as u8]);
        for &op in &p.ops {
            fingerprint = fnv1a(fingerprint, &[op as u8]);
        }
        for (tag, preds) in [(&b"|s:"[..], &subject_preds), (b"|o:", &object_preds)] {
            fingerprint = fnv1a(fingerprint, tag);
            for pred in preds {
                fingerprint = fnv1a(fingerprint, pred.render().as_bytes());
                fingerprint = fnv1a(fingerprint, b";");
            }
        }
        PatternMatcher {
            subject_slot: slot_of(&p.subject.var),
            object_slot: slot_of(&p.object.var),
            alias: p.alias.clone(),
            shape_mask,
            subject_preds,
            object_preds,
            fingerprint,
        }
    }

    /// Whether the event matches this pattern's *shape* only (object entity
    /// type and operation alternation), ignoring attribute constraints.
    /// This is the master query's check in the master–dependent scheme.
    pub fn shape_matches(&self, event: &Event) -> bool {
        self.shape_mask & (1u64 << event.shape_code()) != 0
    }

    /// The shape-code bitmask (group admission ANDs it against the batch's
    /// shape column; see [`saql_stream::BatchView::shape`]).
    pub fn shape_mask(&self) -> u64 {
        self.shape_mask
    }

    /// Whether the event satisfies this pattern (types, operation,
    /// constraints) — ignoring joins, which [`MultiMatcher`] enforces.
    /// Entirely allocation-free: predicates compare borrowed views.
    pub fn matches(&self, event: &Event) -> bool {
        if !self.shape_matches(event) {
            return false;
        }
        for pred in &self.subject_preds {
            let actual = pred.attr().and_then(|id| event.subject.attr_ref(id));
            if !pred.check(actual) {
                return false;
            }
        }
        for pred in &self.object_preds {
            if !pred.check_entity(&event.object) {
                return false;
            }
        }
        true
    }

    /// Deterministic fingerprint of everything [`matches`](Self::matches)
    /// depends on (shape + predicate sets; slots and alias are excluded —
    /// they don't affect the match column). Equal fingerprints across
    /// queries in a compatibility group mean the match column over the same
    /// rows can be computed once and shared.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Compiled predicate sets, `(subject, object)` (explain listings).
    pub fn predicate_sets(&self) -> (&[Predicate], &[Predicate]) {
        (&self.subject_preds, &self.object_preds)
    }
}

/// A completed multievent match: one event per pattern step plus the final
/// variable bindings.
#[derive(Debug, Clone)]
pub struct FullMatch {
    /// Matched events in *declaration* order of the patterns.
    pub events: Vec<SharedEvent>,
    /// Entity bindings by variable slot (see [`entity_slot_names`]). Every
    /// slot is bound in a full match — each variable appears in some
    /// pattern, and all patterns matched.
    pub bindings: Vec<Option<Entity>>,
}

#[derive(Debug, Clone)]
struct Partial {
    /// Insertion sequence number: total order over live partials, assigned
    /// when the partial enters the store. Candidate iteration and eviction
    /// follow ascending `seq` — exactly the insertion order the legacy
    /// per-step queues walked.
    seq: u64,
    /// Next step (index into `order`) to satisfy.
    next: usize,
    /// events[i] = event matched for `order[i]`; `None` until reached.
    events: Vec<Option<SharedEvent>>,
    /// Accumulated entity bindings by variable slot.
    bindings: Vec<Option<Entity>>,
    last_ts: Timestamp,
}

/// Live partials waiting on one step, bucketed by the *subject join key*
/// their next pattern will demand. A partial whose next pattern's subject
/// slot is already bound can only ever be extended by an event whose
/// subject **is** that process — so candidate lookup probes one bucket
/// (`keyed[process_key(event.subject)]`) plus the `unkeyed` partials whose
/// subject slot is still free, instead of scanning every live partial.
/// This is what makes unwindowed sequence queries (no TTL ⇒ partials
/// accumulate) batch-friendly: the scan that was `O(live)` per event
/// becomes `O(candidates)`.
///
/// Key collisions are harmless: `try_extend` re-checks every join.
#[derive(Debug, Clone, Default)]
struct StepPartials {
    keyed: HashMap<u64, Vec<Partial>>,
    unkeyed: Vec<Partial>,
    /// Total partials across `keyed` and `unkeyed`.
    len: usize,
}

/// Join-key hash of a process identity (pid + exe + user — the fields
/// `ProcessInfo` equality compares).
fn process_key(pi: &ProcessInfo) -> u64 {
    let mut h = fnv1a(FNV_SEED, &[0]);
    h = fnv1a(h, &pi.pid.to_le_bytes());
    h = fnv1a(h, pi.exe_name.as_bytes());
    h = fnv1a(h, &[0xff]);
    h = fnv1a(h, pi.user.as_bytes());
    h
}

/// Bucket for partials whose subject slot is bound to a *non-process*
/// entity: no event subject can ever satisfy that join, so they can sit in
/// any keyed bucket — a rare event-key collision just re-runs the join
/// check, which rejects.
const STUCK_KEY: u64 = 0x5afe_517e_dead_0000;

/// Partial-match organization strategy (the E10 ablation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MatcherMode {
    /// Partials are bucketed by their next step; each incoming event tests
    /// each step's pattern **once** and only visits partials waiting on a
    /// step it matches.
    #[default]
    Indexed,
    /// Naive scan: every live partial re-tests the event against its next
    /// pattern (how a straightforward NFA implementation behaves).
    Scan,
}

/// Multievent matcher with temporal sequencing and attribute joins.
///
/// Partial-match state is bounded by `cap`; when exceeded, the oldest
/// partials of the fullest step are evicted and
/// [`MultiMatcher::overflowed`] latches (surfaced through the error
/// reporter).
#[derive(Debug)]
pub struct MultiMatcher {
    patterns: Vec<PatternMatcher>,
    /// Entity-variable slot count (partial bindings are slot-indexed).
    n_slots: usize,
    /// Temporal sequence as indices into `patterns`.
    order: Vec<usize>,
    /// `gaps[i]` = max gap between step i and step i+1.
    gaps: Vec<Option<Duration>>,
    /// Partial-match time-to-live: partials idle longer than this are
    /// dropped (derived from the query window, if any).
    ttl: Option<Duration>,
    cap: usize,
    mode: MatcherMode,
    /// `partials[s]` = live partials whose next step is `s`
    /// (`s ∈ 1..order.len()`; index 0 is unused — step-0 extensions come
    /// from the seed). In [`MatcherMode::Scan`] everything lives in the
    /// `unkeyed` side, preserving the ablation's scan-everything cost and
    /// its deterministic insertion order.
    partials: Vec<StepPartials>,
    /// Next insertion sequence number (see [`Partial::seq`]).
    next_seq: u64,
    live: usize,
    emitted: HashSet<Vec<u64>>,
    overflowed: bool,
    /// Scratch for [`feed`](Self::feed)'s per-pattern hit vector.
    hits_buf: Vec<bool>,
}

impl MultiMatcher {
    /// Build from a checked query. `cap` bounds live partial matches.
    pub fn compile(query: &Query, cap: usize) -> MultiMatcher {
        Self::compile_with_mode(query, cap, MatcherMode::default())
    }

    /// Build with an explicit [`MatcherMode`] (benchmarks compare modes).
    pub fn compile_with_mode(query: &Query, cap: usize, mode: MatcherMode) -> MultiMatcher {
        let slots = entity_slot_names(query);
        let patterns: Vec<PatternMatcher> = query
            .patterns
            .iter()
            .map(|p| PatternMatcher::compile(p, &slots))
            .collect();
        // Temporal order: the `with` clause's sequence, else declaration
        // order. Patterns outside the clause are appended in declaration
        // order (they must still match, after the sequenced ones).
        let mut order: Vec<usize> = Vec::with_capacity(patterns.len());
        let mut gaps: Vec<Option<Duration>> = Vec::new();
        if let Some(t) = &query.temporal {
            for step in &t.steps {
                let idx = query
                    .patterns
                    .iter()
                    .position(|p| p.alias == step.alias)
                    .expect("semantic pass validated aliases");
                order.push(idx);
                gaps.push(step.max_gap);
            }
            for (i, _) in query.patterns.iter().enumerate() {
                if !order.contains(&i) {
                    order.push(i);
                    gaps.push(None);
                }
            }
        } else {
            order.extend(0..patterns.len());
            gaps.resize(patterns.len(), None);
        }
        let ttl = query.window().map(|w| w.size);
        let steps = order.len();
        MultiMatcher {
            patterns,
            n_slots: slots.len(),
            order,
            gaps,
            ttl,
            cap,
            mode,
            partials: vec![StepPartials::default(); steps],
            next_seq: 0,
            live: 0,
            emitted: HashSet::new(),
            overflowed: false,
            hits_buf: Vec::new(),
        }
    }

    /// Number of live partial matches (diagnostics / benches).
    pub fn live_partials(&self) -> usize {
        self.live
    }

    /// Whether the partial-match cap was ever hit.
    pub fn overflowed(&self) -> bool {
        self.overflowed
    }

    /// The compiled patterns, in declaration order.
    pub fn patterns(&self) -> &[PatternMatcher] {
        &self.patterns
    }

    /// Feed one event; returns any full matches it completes.
    pub fn feed(&mut self, event: &SharedEvent) -> Vec<FullMatch> {
        let mut hits = std::mem::take(&mut self.hits_buf);
        hits.clear();
        hits.extend(self.patterns.iter().map(|p| p.matches(event)));
        let completed = self.feed_with_hits(event, &hits);
        self.hits_buf = hits;
        completed
    }

    /// [`feed`](Self::feed) with the per-pattern match decisions already
    /// made: `hits[i]` must equal `self.patterns()[i].matches(event)`
    /// (declaration order). The scheduler computes those columns once per
    /// batch over the rows the query's global filter accepted — shared
    /// across a compatibility group where fingerprints agree — and drives
    /// the matcher row by row.
    pub fn feed_with_hits(&mut self, event: &SharedEvent, hits: &[bool]) -> Vec<FullMatch> {
        debug_assert_eq!(hits.len(), self.patterns.len());
        let mut completed = Vec::new();

        // Expire idle partials.
        if let Some(ttl) = self.ttl {
            let deadline = event.ts - ttl;
            let mut live = 0;
            for sp in &mut self.partials {
                sp.keyed.retain(|_, bucket| {
                    bucket.retain(|p| p.last_ts >= deadline);
                    !bucket.is_empty()
                });
                sp.unkeyed.retain(|p| p.last_ts >= deadline);
                sp.len = sp.keyed.values().map(Vec::len).sum::<usize>() + sp.unkeyed.len();
                live += sp.len;
            }
            self.live = live;
        }

        let mut new_partials: Vec<Partial> = Vec::new();
        let mut finished: Vec<Partial> = Vec::new();
        let steps = self.order.len();
        let event_key = process_key(&event.subject);

        // Extend existing partials, highest step first so an extension
        // created this round is never re-extended by the same event
        // (non-destructive: partials fork, the original stays live for
        // later occurrences).
        for step in (0..steps).rev() {
            if step > 0 {
                // Indexed mode: one match decision gates the whole step;
                // candidates are the event-key bucket merged with the
                // unkeyed partials, in insertion (seq) order. Scan mode
                // re-tests per partial, like a naive NFA (kept for the E10
                // ablation), and keeps everything unkeyed.
                if self.mode == MatcherMode::Indexed && !hits[self.order[step]] {
                    continue;
                }
                let sp = &self.partials[step];
                let keyed: &[Partial] = match self.mode {
                    MatcherMode::Indexed => {
                        sp.keyed.get(&event_key).map(Vec::as_slice).unwrap_or(&[])
                    }
                    MatcherMode::Scan => &[],
                };
                let unkeyed: &[Partial] = &sp.unkeyed;
                let (mut i, mut j) = (0usize, 0usize);
                while i < keyed.len() || j < unkeyed.len() {
                    let from_keyed = match (keyed.get(i), unkeyed.get(j)) {
                        (Some(a), Some(b)) => a.seq < b.seq,
                        (Some(_), None) => true,
                        _ => false,
                    };
                    let p = if from_keyed {
                        i += 1;
                        &keyed[i - 1]
                    } else {
                        j += 1;
                        &unkeyed[j - 1]
                    };
                    if self.mode == MatcherMode::Scan
                        && !self.patterns[self.order[step]].matches(event)
                    {
                        continue;
                    }
                    if let Some(ext) = self.try_extend(p, step, event) {
                        if ext.next == steps {
                            finished.push(ext);
                        } else {
                            new_partials.push(ext);
                        }
                    }
                }
            } else {
                // Step 0: try to start a fresh partial.
                if !hits[self.order[0]] {
                    continue;
                }
                let seed = Partial {
                    seq: 0,
                    next: 0,
                    events: vec![None; steps],
                    bindings: vec![None; self.n_slots],
                    last_ts: Timestamp::ZERO,
                };
                if let Some(ext) = self.try_extend(&seed, 0, event) {
                    if ext.next == steps {
                        finished.push(ext);
                    } else {
                        new_partials.push(ext);
                    }
                }
            }
        }

        for f in finished {
            self.complete(f, &mut completed);
        }

        for p in new_partials {
            self.push_partial(p);
        }

        completed
    }

    /// Insert one partial into its step's store (evicting first under cap
    /// pressure), bucketed by the subject join key its *next* pattern will
    /// demand — or unkeyed when that slot is still free.
    fn push_partial(&mut self, mut p: Partial) {
        if self.live >= self.cap {
            self.evict_one();
        }
        let step = p.next;
        let key = if self.mode == MatcherMode::Scan {
            None
        } else {
            let pat = &self.patterns[self.order[step]];
            match &p.bindings[pat.subject_slot] {
                Some(Entity::Process(pi)) => Some(process_key(pi)),
                Some(_) => Some(STUCK_KEY),
                None => None,
            }
        };
        p.seq = self.next_seq;
        self.next_seq += 1;
        let sp = &mut self.partials[step];
        match key {
            Some(k) => sp.keyed.entry(k).or_default().push(p),
            None => sp.unkeyed.push(p),
        }
        sp.len += 1;
        self.live += 1;
    }

    /// Drop the oldest partial of the fullest step (cap pressure).
    fn evict_one(&mut self) {
        let mut fullest = 0;
        let mut fullest_len = 0;
        for (i, sp) in self.partials.iter().enumerate() {
            if sp.len >= fullest_len {
                fullest = i;
                fullest_len = sp.len;
            }
        }
        if fullest_len == 0 {
            return;
        }
        // Oldest = minimum seq; buckets are in insertion order, so only
        // bucket fronts compete. Seqs are unique, so the winner (and the
        // eviction) is deterministic despite hash-map iteration order.
        let sp = &mut self.partials[fullest];
        let mut min_seq = u64::MAX;
        let mut in_bucket: Option<u64> = None;
        if let Some(p) = sp.unkeyed.first() {
            min_seq = p.seq;
        }
        for (&k, bucket) in &sp.keyed {
            if let Some(p) = bucket.first() {
                if p.seq < min_seq {
                    min_seq = p.seq;
                    in_bucket = Some(k);
                }
            }
        }
        match in_bucket {
            Some(k) => {
                let bucket = sp.keyed.get_mut(&k).expect("bucket just seen");
                bucket.remove(0);
                if bucket.is_empty() {
                    sp.keyed.remove(&k);
                }
            }
            None => {
                sp.unkeyed.remove(0);
            }
        }
        sp.len -= 1;
        self.live -= 1;
        self.overflowed = true;
    }

    /// Temporal/gap/join admission of `event` as `p`'s step `step`
    /// (pattern shape+constraints are checked by the caller).
    fn try_extend(&self, p: &Partial, step: usize, event: &SharedEvent) -> Option<Partial> {
        let pat = &self.patterns[self.order[step]];
        // Temporal order: strictly after the previous step's event.
        if step > 0 {
            if event.ts < p.last_ts {
                return None;
            }
            if let Some(max_gap) = self.gaps[step - 1] {
                if event.ts.delta(p.last_ts) > max_gap {
                    return None;
                }
            }
        }
        // Attribute joins via shared variables (slot-indexed, and checked
        // against borrowed views before anything is cloned).
        if let Some(bound) = &p.bindings[pat.subject_slot] {
            let same = matches!(bound, Entity::Process(pi) if *pi == event.subject);
            if !same {
                return None;
            }
        }
        if let Some(bound) = &p.bindings[pat.object_slot] {
            if *bound != event.object {
                return None;
            }
        }
        // Same variable as both subject and object of this event
        // (`proc p start proc p`) must self-join consistently.
        if pat.subject_slot == pat.object_slot
            && !matches!(&event.object, Entity::Process(pi) if *pi == event.subject)
        {
            return None;
        }
        let mut ext = p.clone();
        ext.bindings[pat.subject_slot] = Some(Entity::Process(event.subject.clone()));
        ext.bindings[pat.object_slot] = Some(event.object.clone());
        ext.events[step] = Some(event.clone());
        ext.next = step + 1;
        ext.last_ts = event.ts;
        Some(ext)
    }

    /// Capture every live partial match plus the dedup/eviction bookkeeping
    /// (engine checkpoints). Partials are flattened in ascending `seq`
    /// order; [`restore`](Self::restore) re-buckets them, and because both
    /// candidate iteration and eviction are `seq`-driven, a restored
    /// matcher replays the exact decisions the uninterrupted one makes.
    pub fn snapshot(&self) -> MatcherSnapshot {
        let snap_partial = |p: &Partial| PartialSnapshot {
            seq: p.seq,
            next: p.next,
            events: p
                .events
                .iter()
                .map(|e| e.as_ref().map(|e| (**e).clone()))
                .collect(),
            bindings: p.bindings.clone(),
            last_ts: p.last_ts,
        };
        let mut partials = Vec::with_capacity(self.live);
        for sp in &self.partials {
            for bucket in sp.keyed.values() {
                partials.extend(bucket.iter().map(snap_partial));
            }
            partials.extend(sp.unkeyed.iter().map(snap_partial));
        }
        partials.sort_by_key(|p| p.seq);
        let mut emitted: Vec<Vec<u64>> = self.emitted.iter().cloned().collect();
        emitted.sort();
        MatcherSnapshot {
            partials,
            next_seq: self.next_seq,
            emitted,
            overflowed: self.overflowed,
        }
    }

    /// Restore the state captured by [`snapshot`](Self::snapshot) onto a
    /// freshly compiled matcher for the same query and mode. Sequence
    /// numbers are preserved exactly — never reassigned — so insertion
    /// order, candidate order, and eviction order all survive the restart.
    ///
    /// A partial that does not fit this matcher's plan — waiting on a step
    /// it lacks, sized for other steps or variables, or missing an event
    /// before its step — is refused, and the matcher left untouched.
    pub fn restore(&mut self, snap: MatcherSnapshot) -> Result<(), String> {
        let steps = self.order.len();
        for p in &snap.partials {
            // Partials wait on steps 1.. (step 0 extends the seed) with
            // exactly the steps before `next` matched.
            if p.next == 0 || p.next >= steps {
                return Err(format!(
                    "partial match {} waits on step {} of a {steps}-step sequence",
                    p.seq, p.next
                ));
            }
            if p.events.len() != steps || p.bindings.len() != self.n_slots {
                return Err(format!(
                    "partial match {} has {} steps and {} variables, the plan {steps} and {}",
                    p.seq,
                    p.events.len(),
                    p.bindings.len(),
                    self.n_slots
                ));
            }
            let matched = |(i, e): (usize, &Option<Event>)| e.is_some() == (i < p.next);
            if !p.events.iter().enumerate().all(matched) {
                return Err(format!(
                    "partial match {} at step {} holds other steps' events",
                    p.seq, p.next
                ));
            }
        }
        for sp in &mut self.partials {
            *sp = StepPartials::default();
        }
        self.live = 0;
        for row in snap.partials {
            let p = Partial {
                seq: row.seq,
                next: row.next,
                events: row
                    .events
                    .into_iter()
                    .map(|e| e.map(std::sync::Arc::new))
                    .collect(),
                bindings: row.bindings,
                last_ts: row.last_ts,
            };
            // Same keying as push_partial, but keeping the snapshot's seq.
            let key = if self.mode == MatcherMode::Scan {
                None
            } else {
                let pat = &self.patterns[self.order[p.next]];
                match &p.bindings[pat.subject_slot] {
                    Some(Entity::Process(pi)) => Some(process_key(pi)),
                    Some(_) => Some(STUCK_KEY),
                    None => None,
                }
            };
            let sp = &mut self.partials[p.next];
            match key {
                Some(k) => sp.keyed.entry(k).or_default().push(p),
                None => sp.unkeyed.push(p),
            }
            sp.len += 1;
            self.live += 1;
        }
        self.next_seq = snap.next_seq;
        self.emitted = snap.emitted.into_iter().collect();
        self.overflowed = snap.overflowed;
        Ok(())
    }

    fn complete(&mut self, p: Partial, out: &mut Vec<FullMatch>) {
        // Reorder events from temporal order back to declaration order.
        let mut by_decl: Vec<Option<SharedEvent>> = vec![None; self.patterns.len()];
        for (step, ev) in p.events.iter().enumerate() {
            by_decl[self.order[step]] = ev.clone();
        }
        let events: Vec<SharedEvent> = by_decl
            .into_iter()
            .map(|e| e.expect("all steps matched"))
            .collect();
        let ids: Vec<u64> = events.iter().map(|e| e.id).collect();
        if self.emitted.insert(ids) {
            out.push(FullMatch {
                events,
                bindings: p.bindings,
            });
        }
    }
}

/// One live partial match in a [`MatcherSnapshot`]. Events are stored owned
/// (re-shared on restore); `seq` is the partial's original insertion
/// sequence number and is preserved exactly across the round trip.
#[derive(Debug, Clone)]
pub struct PartialSnapshot {
    pub seq: u64,
    /// Next temporal step to satisfy (the step store it sits in).
    pub next: usize,
    /// `events[i]` = event matched for temporal step `i`, if reached.
    pub events: Vec<Option<Event>>,
    /// Entity bindings by variable slot.
    pub bindings: Vec<Option<Entity>>,
    pub last_ts: Timestamp,
}

/// Dynamic state of a [`MultiMatcher`], exact under snapshot → restore:
/// live partials (ascending `seq`), the next sequence number, the emitted
/// dedup set, and the overflow latch.
#[derive(Debug, Clone)]
pub struct MatcherSnapshot {
    pub partials: Vec<PartialSnapshot>,
    pub next_seq: u64,
    /// Emitted full-match event-id tuples (dedup set), sorted.
    pub emitted: Vec<Vec<u64>>,
    pub overflowed: bool,
}

#[cfg(test)]
mod tests {
    use super::*;
    use saql_lang::parse;
    use saql_model::event::EventBuilder;
    use saql_model::{FileInfo, NetworkInfo, ProcessInfo};
    use std::sync::Arc;

    fn start_event(id: u64, ts: u64, parent: (u32, &str), child: (u32, &str)) -> SharedEvent {
        Arc::new(
            EventBuilder::new(id, "db-server", ts)
                .subject(ProcessInfo::new(parent.0, parent.1, "svc"))
                .starts_process(ProcessInfo::new(child.0, child.1, "svc"))
                .build(),
        )
    }

    fn write_file(id: u64, ts: u64, proc_: (u32, &str), file: &str, amount: u64) -> SharedEvent {
        Arc::new(
            EventBuilder::new(id, "db-server", ts)
                .subject(ProcessInfo::new(proc_.0, proc_.1, "svc"))
                .writes_file(FileInfo::new(file))
                .amount(amount)
                .build(),
        )
    }

    fn read_file(id: u64, ts: u64, proc_: (u32, &str), file: &str) -> SharedEvent {
        Arc::new(
            EventBuilder::new(id, "db-server", ts)
                .subject(ProcessInfo::new(proc_.0, proc_.1, "svc"))
                .reads_file(FileInfo::new(file))
                .build(),
        )
    }

    fn send_ip(id: u64, ts: u64, proc_: (u32, &str), dst: &str, amount: u64) -> SharedEvent {
        Arc::new(
            EventBuilder::new(id, "db-server", ts)
                .subject(ProcessInfo::new(proc_.0, proc_.1, "svc"))
                .sends(NetworkInfo::new("10.0.0.5", 50000, dst, 443, "tcp"))
                .amount(amount)
                .build(),
        )
    }

    fn matcher(src: &str) -> MultiMatcher {
        MultiMatcher::compile(&parse(src).unwrap(), 1024)
    }

    #[test]
    fn single_pattern_with_like() {
        let mut m = matcher(r#"proc p1["%cmd.exe"] start proc p2["%osql.exe"] as e1"#);
        let hit = start_event(
            1,
            10,
            (10, r"C:\Windows\System32\cmd.exe"),
            (11, "osql.exe"),
        );
        let miss = start_event(2, 20, (10, "powershell.exe"), (12, "osql.exe"));
        assert_eq!(m.feed(&hit).len(), 1);
        assert_eq!(m.feed(&miss).len(), 0);
    }

    #[test]
    fn operation_alternation() {
        let mut m = matcher(r#"proc p read || write ip i[dstip="172.16.9.129"] as e"#);
        let w = send_ip(1, 10, (5, "sbblv.exe"), "172.16.9.129", 100);
        let other = send_ip(2, 20, (5, "sbblv.exe"), "8.8.8.8", 100);
        assert_eq!(m.feed(&w).len(), 1);
        assert_eq!(m.feed(&other).len(), 0);
    }

    #[test]
    fn temporal_sequence_and_join_query1() {
        let src = r#"
proc p1["%cmd.exe"] start proc p2["%osql.exe"] as evt1
proc p3["%sqlservr.exe"] write file f1["%backup1.dmp"] as evt2
proc p4["%sbblv.exe"] read file f1 as evt3
proc p4 read || write ip i1[dstip="172.16.9.129"] as evt4
with evt1 -> evt2 -> evt3 -> evt4
"#;
        let mut m = matcher(src);
        assert!(m
            .feed(&start_event(1, 100, (1, "cmd.exe"), (2, "osql.exe")))
            .is_empty());
        assert!(m
            .feed(&write_file(
                2,
                200,
                (3, "sqlservr.exe"),
                "backup1.dmp",
                1 << 20
            ))
            .is_empty());
        assert!(m
            .feed(&read_file(3, 300, (4, "sbblv.exe"), "backup1.dmp"))
            .is_empty());
        let full = m.feed(&send_ip(4, 400, (4, "sbblv.exe"), "172.16.9.129", 1 << 20));
        assert_eq!(full.len(), 1);
        let ids: Vec<u64> = full[0].events.iter().map(|e| e.id).collect();
        assert_eq!(ids, vec![1, 2, 3, 4]);
        // Bound entities include the shared file variable (by slot).
        let slots = entity_slot_names(&parse(src).unwrap());
        let f1 = slots.iter().position(|s| s == "f1").unwrap();
        assert!(
            matches!(&full[0].bindings[f1], Some(Entity::File(f)) if &*f.name == "backup1.dmp")
        );
        // Every slot of a full match is bound.
        assert!(full[0].bindings.iter().all(|b| b.is_some()));
    }

    #[test]
    fn join_on_file_variable_rejects_different_file() {
        let src = r#"
proc p3["%sqlservr.exe"] write file f1["%backup1.dmp"] as evt2
proc p4["%sbblv.exe"] read file f1 as evt3
with evt2 -> evt3
"#;
        let mut m = matcher(src);
        m.feed(&write_file(1, 100, (3, "sqlservr.exe"), "backup1.dmp", 0));
        // Reads a *different* file: join must fail.
        assert!(m
            .feed(&read_file(2, 200, (4, "sbblv.exe"), "other.dmp"))
            .is_empty());
        // Reads the same file: join succeeds.
        assert_eq!(
            m.feed(&read_file(3, 300, (4, "sbblv.exe"), "backup1.dmp"))
                .len(),
            1
        );
    }

    #[test]
    fn join_on_process_variable_requires_same_pid() {
        let src = r#"
proc p1["%excel.exe"] start proc p2["%cscript.exe"] as e1
proc p2 write ip i1[dstip="172.16.9.129"] as e2
with e1 -> e2
"#;
        let mut m = matcher(src);
        m.feed(&start_event(1, 100, (40, "excel.exe"), (41, "cscript.exe")));
        // Different cscript pid: not the spawned process.
        assert!(m
            .feed(&send_ip(2, 200, (99, "cscript.exe"), "172.16.9.129", 10))
            .is_empty());
        // The spawned pid 41: join succeeds.
        assert_eq!(
            m.feed(&send_ip(3, 300, (41, "cscript.exe"), "172.16.9.129", 10))
                .len(),
            1
        );
    }

    #[test]
    fn temporal_order_enforced() {
        let src = r#"
proc a["%x.exe"] write file f["%1"] as e1
proc b["%y.exe"] read file g["%2"] as e2
with e1 -> e2
"#;
        let mut m = matcher(src);
        // e2-shaped event arrives first: no match even after e1 arrives.
        m.feed(&read_file(1, 100, (2, "y.exe"), "f2"));
        m.feed(&write_file(2, 200, (1, "x.exe"), "f1", 0));
        assert!(m.live_partials() > 0);
        // Now a later e2 completes.
        let full = m.feed(&read_file(3, 300, (2, "y.exe"), "f2"));
        assert_eq!(full.len(), 1);
        assert_eq!(full[0].events[0].id, 2);
        assert_eq!(full[0].events[1].id, 3);
    }

    #[test]
    fn bounded_gap_expires() {
        let src = r#"
proc a["%x.exe"] write file f["%1"] as e1
proc b["%y.exe"] read file g["%2"] as e2
with e1 ->[10 s] e2
"#;
        let mut m = matcher(src);
        m.feed(&write_file(1, 0, (1, "x.exe"), "f1", 0));
        // 20s later: outside the bounded gap.
        assert!(m.feed(&read_file(2, 20_000, (2, "y.exe"), "f2")).is_empty());
        // Fresh e1 then an in-window e2.
        m.feed(&write_file(3, 30_000, (1, "x.exe"), "f1", 0));
        assert_eq!(m.feed(&read_file(4, 35_000, (2, "y.exe"), "f2")).len(), 1);
    }

    #[test]
    fn duplicate_full_matches_are_suppressed() {
        let mut m = matcher(r#"proc p1["%cmd.exe"] start proc p2 as e1"#);
        let e = start_event(1, 10, (1, "cmd.exe"), (2, "osql.exe"));
        assert_eq!(m.feed(&e).len(), 1);
        assert_eq!(m.feed(&e).len(), 0, "same event id must not re-alert");
    }

    #[test]
    fn cap_evicts_and_latches_overflow() {
        let src = r#"
proc a["%x.exe"] write file f["%1"] as e1
proc b["%y.exe"] read file g["%2"] as e2
with e1 -> e2
"#;
        let mut m = MultiMatcher::compile(&parse(src).unwrap(), 4);
        for i in 0..10 {
            m.feed(&write_file(i, i * 10, (1, "x.exe"), "f1", 0));
        }
        assert!(m.live_partials() <= 4);
        assert!(m.overflowed());
    }

    #[test]
    fn global_filter() {
        let q = parse("agentid = \"db-server\"\nproc p start proc q as e").unwrap();
        let f = GlobalFilter::compile(&q.globals);
        let on_db = start_event(1, 10, (1, "a.exe"), (2, "b.exe"));
        assert!(f.accepts(&on_db));
        let elsewhere = Arc::new(
            EventBuilder::new(2, "client-1", 20)
                .subject(ProcessInfo::new(1, "a.exe", "u"))
                .starts_process(ProcessInfo::new(2, "b.exe", "u"))
                .build(),
        );
        assert!(!f.accepts(&elsewhere));
    }

    #[test]
    fn indexed_and_scan_modes_agree() {
        let src = r#"
proc a["%x.exe"] write file f as e1
proc b["%y.exe"] read file f as e2
with e1 -> e2
"#;
        let q = parse(src).unwrap();
        let mut indexed = MultiMatcher::compile_with_mode(&q, 4096, MatcherMode::Indexed);
        let mut scan = MultiMatcher::compile_with_mode(&q, 4096, MatcherMode::Scan);
        // Interleave writes/reads over a few files plus noise.
        let mut events: Vec<SharedEvent> = Vec::new();
        for i in 0..200u64 {
            let f = format!("f{}", i % 7);
            events.push(match i % 3 {
                0 => write_file(i, i * 10, (1, "x.exe"), &f, 0),
                1 => read_file(i, i * 10, (2, "y.exe"), &f),
                _ => start_event(i, i * 10, (3, "noise.exe"), (4, "child.exe")),
            });
        }
        let mut a: Vec<Vec<u64>> = Vec::new();
        let mut b: Vec<Vec<u64>> = Vec::new();
        for e in &events {
            a.extend(
                indexed
                    .feed(e)
                    .iter()
                    .map(|m| m.events.iter().map(|x| x.id).collect()),
            );
            b.extend(
                scan.feed(e)
                    .iter()
                    .map(|m| m.events.iter().map(|x| x.id).collect()),
            );
        }
        a.sort();
        b.sort();
        assert!(!a.is_empty());
        assert_eq!(a, b);
    }

    #[test]
    fn multiple_interleaved_sequences_all_found() {
        let src = r#"
proc a["%x.exe"] write file f as e1
proc b["%y.exe"] read file f as e2
with e1 -> e2
"#;
        let mut m = matcher(src);
        m.feed(&write_file(1, 10, (1, "x.exe"), "fA", 0));
        m.feed(&write_file(2, 20, (1, "x.exe"), "fB", 0));
        let a = m.feed(&read_file(3, 30, (2, "y.exe"), "fA"));
        assert_eq!(a.len(), 1);
        let b = m.feed(&read_file(4, 40, (2, "y.exe"), "fB"));
        assert_eq!(b.len(), 1);
    }
}
