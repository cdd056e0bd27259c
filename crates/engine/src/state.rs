//! The state maintainer: per-group, per-window incremental aggregation with
//! window history.
//!
//! For a block like
//!
//! ```text
//! state[3] ss { avg_amount := avg(evt.amount) } group by p
//! ```
//!
//! the maintainer folds each matching event into the accumulators of its
//! group (here: the subject process) within each window the event belongs
//! to. When a window closes, the group states are *snapshotted* into a
//! bounded history (3 windows here) that alert expressions index as
//! `ss[0].avg_amount` (current), `ss[1]...` (previous), etc.
//!
//! **Group identity is a value tuple.** On the per-event path groups are
//! keyed by a [`KeyTuple`] — the hashed tuple of interned key values — not
//! by a joined display string: no formatting, no string allocation per
//! event. The human-readable joined label survives only as a *lazy alert
//! label*, computed once per group when its window closes. (A tuple
//! distinguishes `Int(1)` from `"1"`, which the old display-string identity
//! conflated; key attributes have stable types, so real queries never see
//! the difference.)
//!
//! Key and field *evaluation* lives with the caller ([`crate::query`]),
//! which runs either compiled programs or the interpreter oracle —
//! [`StateMaintainer::observe`] is execution-mode agnostic.
//!
//! Groups absent from a past window read that field's *neutral value*
//! (0 for counts/sums/averages, the empty set for `set(...)`) once the
//! stream has produced at least that window; indexes reaching before the
//! stream began yield `Missing`, which keeps alerts quiet during warm-up.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

use saql_lang::ast::{AggFunc, StateBlock};
use saql_model::AttrValue;

use crate::eval::{StateLookup, StateSlots};
use crate::value::{SetValues, Value};

/// FNV-1a: the group maps are internal analytics state (no untrusted-key
/// DoS surface), and the per-event path hashes a group key on every fold —
/// SipHash would be the single largest cost left on it.
struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Hasher for Fnv {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        let mut h = self.0;
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
        self.0 = h;
    }
}

type GroupMap<V> = HashMap<KeyTuple, V, BuildHasherDefault<Fnv>>;

/// One hashable component of a group's identity. Strings share the event's
/// interned `Arc<str>`; floats key by bit pattern (stable identity, no Ord
/// headaches — the derived `Ord` over bit patterns is only used to make
/// checkpoint snapshots deterministic, never for value comparison).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum KeyAtom {
    Int(i64),
    Float(u64),
    Str(Arc<str>),
    Bool(bool),
}

impl KeyAtom {
    pub fn of(v: &AttrValue) -> KeyAtom {
        match v {
            AttrValue::Int(i) => KeyAtom::Int(*i),
            AttrValue::Float(f) => KeyAtom::Float(f.to_bits()),
            AttrValue::Str(s) => KeyAtom::Str(s.clone()),
            AttrValue::Bool(b) => KeyAtom::Bool(*b),
        }
    }

    /// Take ownership of an attribute value (moves the `Arc` handle — the
    /// hot path pays exactly one refcount per key).
    pub fn of_owned(v: AttrValue) -> KeyAtom {
        match v {
            AttrValue::Int(i) => KeyAtom::Int(i),
            AttrValue::Float(f) => KeyAtom::Float(f.to_bits()),
            AttrValue::Str(s) => KeyAtom::Str(s),
            AttrValue::Bool(b) => KeyAtom::Bool(b),
        }
    }

    /// Back to an attribute value (exact roundtrip; floats by bit pattern).
    pub fn to_attr(&self) -> AttrValue {
        match self {
            KeyAtom::Int(i) => AttrValue::Int(*i),
            KeyAtom::Float(bits) => AttrValue::Float(f64::from_bits(*bits)),
            KeyAtom::Str(s) => AttrValue::Str(s.clone()),
            KeyAtom::Bool(b) => AttrValue::Bool(*b),
        }
    }
}

/// A group's identity: one [`KeyAtom`] per group-by key. The empty tuple is
/// the global group of a `group by`-less state block.
pub type KeyTuple = Box<[KeyAtom]>;

/// Build the key tuple of a resolved key-value row.
pub fn key_tuple(values: &[AttrValue]) -> KeyTuple {
    values.iter().map(KeyAtom::of).collect()
}

/// The lazy alert label: key values joined by `|` with duplicate displays
/// collapsed (`group by p` shows `sqlservr.exe`, not `sqlservr.exe|...`).
pub fn group_label(values: &[AttrValue]) -> String {
    let mut parts: Vec<String> = Vec::new();
    for v in values {
        let s = v.to_string();
        if !parts.contains(&s) {
            parts.push(s);
        }
    }
    if parts.is_empty() {
        "<all>".to_string()
    } else {
        parts.join("|")
    }
}

/// One field's in-window accumulator.
#[derive(Debug, Clone)]
enum FieldAccum {
    Stats(saql_analytics::OnlineStats),
    Set(SetValues),
    /// Order-statistic aggregates (median/percentile) must buffer.
    Buffer(Vec<f64>),
}

impl FieldAccum {
    fn new(agg: AggFunc) -> FieldAccum {
        match agg {
            AggFunc::Set | AggFunc::DistinctCount => FieldAccum::Set(SetValues::new()),
            AggFunc::Median | AggFunc::Percentile(_) => FieldAccum::Buffer(Vec::new()),
            _ => FieldAccum::Stats(saql_analytics::OnlineStats::new()),
        }
    }

    fn fold(&mut self, value: &Value) {
        match self {
            FieldAccum::Stats(stats) => {
                if let Some(x) = value.as_f64() {
                    stats.push(x);
                }
            }
            FieldAccum::Buffer(buf) => {
                if let Some(x) = value.as_f64() {
                    buf.push(x);
                }
            }
            FieldAccum::Set(set) => match value {
                Value::Attr(a) => {
                    set.insert(a.to_string());
                }
                Value::Set(s) => {
                    set.extend(s.iter().cloned());
                }
                Value::Missing => {}
            },
        }
    }

    fn snapshot(&self) -> AccumSnapshot {
        match self {
            FieldAccum::Stats(s) => {
                let (count, sum, min, max, mean, m2) = s.raw_parts();
                AccumSnapshot::Stats {
                    count,
                    sum,
                    min,
                    max,
                    mean,
                    m2,
                }
            }
            FieldAccum::Set(s) => AccumSnapshot::Set(s.iter().cloned().collect()),
            FieldAccum::Buffer(b) => AccumSnapshot::Buffer(b.clone()),
        }
    }

    /// Rebuild `agg`'s accumulator from `snap`; `None` when the snapshot
    /// holds another kind of accumulator than `agg` folds into.
    fn from_snapshot(agg: AggFunc, snap: AccumSnapshot) -> Option<FieldAccum> {
        Some(match (FieldAccum::new(agg), snap) {
            (
                FieldAccum::Stats(_),
                AccumSnapshot::Stats {
                    count,
                    sum,
                    min,
                    max,
                    mean,
                    m2,
                },
            ) => FieldAccum::Stats(saql_analytics::OnlineStats::from_raw_parts(
                count, sum, min, max, mean, m2,
            )),
            (FieldAccum::Set(_), AccumSnapshot::Set(items)) => {
                FieldAccum::Set(items.into_iter().collect())
            }
            (FieldAccum::Buffer(_), AccumSnapshot::Buffer(buf)) => FieldAccum::Buffer(buf),
            _ => return None,
        })
    }

    fn finalize(self, agg: AggFunc) -> Value {
        match (agg, self) {
            (AggFunc::Count, FieldAccum::Stats(s)) => Value::int(s.count() as i64),
            (AggFunc::Sum, FieldAccum::Stats(s)) => Value::float(s.sum()),
            (AggFunc::Avg, FieldAccum::Stats(s)) => Value::float(s.mean()),
            (AggFunc::Stddev, FieldAccum::Stats(s)) => Value::float(s.stddev()),
            (AggFunc::Min, FieldAccum::Stats(s)) => match s.min() {
                Some(x) => Value::float(x),
                None => Value::Missing,
            },
            (AggFunc::Max, FieldAccum::Stats(s)) => match s.max() {
                Some(x) => Value::float(x),
                None => Value::Missing,
            },
            (AggFunc::Set, FieldAccum::Set(s)) => Value::Set(std::sync::Arc::new(s)),
            (AggFunc::DistinctCount, FieldAccum::Set(s)) => Value::int(s.len() as i64),
            (AggFunc::Median, FieldAccum::Buffer(buf)) => {
                match saql_analytics::robust::median(&buf) {
                    Some(m) => Value::float(m),
                    None => Value::Missing,
                }
            }
            (AggFunc::Percentile(q), FieldAccum::Buffer(buf)) => {
                match saql_analytics::robust::percentile(&buf, q as f64) {
                    Some(p) => Value::float(p),
                    None => Value::Missing,
                }
            }
            _ => unreachable!("accumulator kind always matches the aggregate"),
        }
    }
}

/// Neutral value of an aggregate over an empty (absent) window.
fn neutral(agg: AggFunc) -> Value {
    match agg {
        AggFunc::Count | AggFunc::DistinctCount => Value::int(0),
        AggFunc::Sum | AggFunc::Avg | AggFunc::Stddev => Value::float(0.0),
        AggFunc::Min | AggFunc::Max | AggFunc::Median | AggFunc::Percentile(_) => Value::Missing,
        AggFunc::Set => Value::empty_set(),
    }
}

#[derive(Debug, Clone)]
struct GroupAccum {
    /// Key values by group-by slot (what the close-time contexts read).
    key_vals: Vec<AttrValue>,
    accums: Vec<FieldAccum>,
}

/// One group at a window close: identity, lazily rendered label, key
/// values by slot, and finalized field values in declaration order.
#[derive(Debug, Clone)]
pub struct ClosedGroup {
    pub key: KeyTuple,
    /// The joined display label (alert origin, invariant keying).
    pub label: String,
    /// Key values by group-by slot.
    pub key_vals: Vec<AttrValue>,
    /// Field values in block declaration order.
    pub values: Vec<Value>,
}

/// The state maintainer for one `state[...]` block.
#[derive(Debug)]
pub struct StateMaintainer {
    name: String,
    history_len: usize,
    fields: Vec<(String, AggFunc)>,
    /// Accumulators for currently open windows: window id → group → accum.
    open: BTreeMap<u64, GroupMap<GroupAccum>>,
    /// Closed-window history: group → recent (window id, field values),
    /// newest at the back, holding only windows still reachable from the
    /// next close (so at most `history_len` per group).
    history: GroupMap<VecDeque<(u64, Vec<Value>)>>,
    /// First window id ever observed (warm-up boundary for neutral values).
    first_window: Option<u64>,
}

impl StateMaintainer {
    pub fn new(block: &StateBlock) -> Self {
        StateMaintainer {
            name: block.name.clone(),
            history_len: block.history,
            fields: block
                .fields
                .iter()
                .map(|f| (f.name.clone(), f.agg))
                .collect(),
            open: BTreeMap::new(),
            history: GroupMap::default(),
            first_window: None,
        }
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    /// Fold one matching event's evaluated key atoms and field arguments
    /// into the given windows. The caller evaluated both (compiled program
    /// or interpreter); this only groups and folds. Allocation-free for
    /// groups that already exist (the common case): lookups hash the key
    /// *slice*, and a boxed tuple (plus its display values) is built only
    /// when a new group appears.
    pub fn observe(&mut self, windows: &[u64], key: &[KeyAtom], folded: &[Value]) {
        for &k in windows {
            if self.first_window.is_none() || Some(k) < self.first_window {
                self.first_window = Some(match self.first_window {
                    Some(f) => f.min(k),
                    None => k,
                });
            }
            let groups = self.open.entry(k).or_default();
            let accum = match groups.get_mut(key) {
                Some(accum) => accum,
                None => groups
                    .entry(key.to_vec().into_boxed_slice())
                    .or_insert_with(|| GroupAccum {
                        key_vals: key.iter().map(KeyAtom::to_attr).collect(),
                        accums: self
                            .fields
                            .iter()
                            .map(|(_, agg)| FieldAccum::new(*agg))
                            .collect(),
                    }),
            };
            for (acc, v) in accum.accums.iter_mut().zip(folded) {
                acc.fold(v);
            }
        }
    }

    /// Close window `k`: snapshot every group that observed events in it,
    /// push the field values into history, and return the groups sorted by
    /// their (lazily rendered) labels — the only point where labels exist.
    pub fn close(&mut self, k: u64) -> Vec<ClosedGroup> {
        let groups = self.open.remove(&k).unwrap_or_default();
        let mut out: Vec<ClosedGroup> = groups
            .into_iter()
            .map(|(key, accum)| {
                let values: Vec<Value> = accum
                    .accums
                    .into_iter()
                    .zip(&self.fields)
                    .map(|(acc, (_, agg))| acc.finalize(*agg))
                    .collect();
                ClosedGroup {
                    label: group_label(&accum.key_vals),
                    key,
                    key_vals: accum.key_vals,
                    values,
                }
            })
            .collect();
        out.sort_by(|a, b| a.label.cmp(&b.label));
        // Windows close in ascending order and lookups reach back fewer than
        // `history_len` windows from the one closing, so entries older than
        // `k + 1 - history_len` can never be read again: drop them, and
        // every group left with none — else `history` keeps each group the
        // query has ever seen. (Before the push, so the map never holds the
        // dropped groups and the closing ones at once.)
        let oldest = k.saturating_add(1).saturating_sub(self.history_len as u64);
        self.history.retain(|_, hist| {
            while hist.front().is_some_and(|(wk, _)| *wk < oldest) {
                hist.pop_front();
            }
            !hist.is_empty()
        });
        for group in &out {
            let hist = self.history.entry(group.key.clone()).or_default();
            hist.push_back((k, group.values.clone()));
        }
        out
    }

    /// Resolve field `field_idx`, `back` windows before `k`, for `group`.
    pub fn lookup_idx(&self, group: &KeyTuple, k: u64, back: usize, field_idx: usize) -> Value {
        if back >= self.history_len || field_idx >= self.fields.len() {
            return Value::Missing;
        }
        let Some(target) = k.checked_sub(back as u64) else {
            return Value::Missing;
        };
        if let Some(hist) = self.history.get(group) {
            if let Some((_, values)) = hist.iter().rev().find(|(wk, _)| *wk == target) {
                return values[field_idx].clone();
            }
        }
        // Absent window: neutral value once past warm-up.
        match self.first_window {
            Some(first) if target >= first => neutral(self.fields[field_idx].1),
            _ => Value::Missing,
        }
    }

    /// Capture every group's dynamic state (engine checkpoints): open
    /// accumulators, closed-window history, and the warm-up boundary. Rows
    /// are key-sorted so snapshots are deterministic; the block structure
    /// is static and recompiled from the query source.
    pub fn snapshot(&self) -> StateSnapshot {
        let open = self
            .open
            .iter()
            .map(|(&k, groups)| {
                let mut rows: Vec<(&KeyTuple, &GroupAccum)> = groups.iter().collect();
                rows.sort_by(|a, b| a.0.cmp(b.0));
                let groups = rows
                    .into_iter()
                    .map(|(_, g)| GroupAccumSnapshot {
                        key_vals: g.key_vals.clone(),
                        accums: g.accums.iter().map(FieldAccum::snapshot).collect(),
                    })
                    .collect();
                (k, groups)
            })
            .collect();
        let mut hist: Vec<_> = self.history.iter().collect();
        hist.sort_by(|a, b| a.0.cmp(b.0));
        let history = hist
            .into_iter()
            .map(|(key, entries)| GroupHistorySnapshot {
                key_vals: key.iter().map(KeyAtom::to_attr).collect(),
                windows: entries.iter().cloned().collect(),
            })
            .collect();
        StateSnapshot {
            open,
            history,
            first_window: self.first_window,
        }
    }

    /// Restore the state captured by [`snapshot`](Self::snapshot) onto a
    /// freshly compiled maintainer for the same block. An open group's
    /// accumulators or a history row's values that do not match the
    /// block's fields, in count or in kind, are refused, and the
    /// maintainer left untouched.
    pub fn restore(&mut self, snap: StateSnapshot) -> Result<(), String> {
        let n = self.fields.len();
        let mut open = BTreeMap::new();
        for (k, groups) in snap.open {
            let mut map = GroupMap::default();
            for g in groups {
                if g.accums.len() != n {
                    return Err(format!(
                        "a group open in window {k} has {} accumulators for {n} fields",
                        g.accums.len()
                    ));
                }
                let accums = g
                    .accums
                    .into_iter()
                    .zip(&self.fields)
                    .map(|(a, (name, agg))| {
                        FieldAccum::from_snapshot(*agg, a).ok_or_else(|| {
                            format!("field `{name}` holds another aggregate's state")
                        })
                    })
                    .collect::<Result<_, _>>()?;
                let accum = GroupAccum {
                    key_vals: g.key_vals,
                    accums,
                };
                map.insert(key_tuple(&accum.key_vals), accum);
            }
            open.insert(k, map);
        }
        for (k, values) in snap.history.iter().flat_map(|g| &g.windows) {
            if values.len() != n {
                return Err(format!(
                    "a group's history for window {k} has {} values for {n} fields",
                    values.len()
                ));
            }
        }
        self.open = open;
        self.history = snap
            .history
            .into_iter()
            .map(|g| (key_tuple(&g.key_vals), g.windows.into_iter().collect()))
            .collect();
        self.first_window = snap.first_window;
        Ok(())
    }

    /// Resolve `name[back].field` by field *name* (the interpreter's view).
    /// A bare reference (`ss`) with exactly one field refers to it.
    pub fn lookup(&self, group: &KeyTuple, k: u64, back: usize, field: Option<&str>) -> Value {
        let field_idx = match field {
            Some(f) => match self.fields.iter().position(|(n, _)| n == f) {
                Some(i) => i,
                None => return Value::Missing,
            },
            None => {
                if self.fields.len() == 1 {
                    0
                } else {
                    return Value::Missing;
                }
            }
        };
        self.lookup_idx(group, k, back, field_idx)
    }
}

/// One field accumulator's contents in a [`StateSnapshot`]. `Stats` carries
/// the raw Welford parts (see [`saql_analytics::OnlineStats::raw_parts`]);
/// the round trip through restore is bit-exact.
#[derive(Debug, Clone)]
pub enum AccumSnapshot {
    Stats {
        count: u64,
        sum: f64,
        min: f64,
        max: f64,
        mean: f64,
        m2: f64,
    },
    Set(Vec<String>),
    Buffer(Vec<f64>),
}

/// One open group's accumulators in a [`StateSnapshot`]. The key tuple is
/// rebuilt from `key_vals` on restore (exact — floats key by bit pattern).
#[derive(Debug, Clone)]
pub struct GroupAccumSnapshot {
    pub key_vals: Vec<AttrValue>,
    /// Accumulators in field declaration order.
    pub accums: Vec<AccumSnapshot>,
}

/// One group's closed-window history in a [`StateSnapshot`].
#[derive(Debug, Clone)]
pub struct GroupHistorySnapshot {
    pub key_vals: Vec<AttrValue>,
    /// `(window id, finalized field values)`, oldest first.
    pub windows: Vec<(u64, Vec<Value>)>,
}

/// Dynamic state of a [`StateMaintainer`], exact under snapshot → restore.
#[derive(Debug, Clone)]
pub struct StateSnapshot {
    /// Open-window accumulators: `(window id, groups)`, windows ascending.
    pub open: Vec<(u64, Vec<GroupAccumSnapshot>)>,
    pub history: Vec<GroupHistorySnapshot>,
    pub first_window: Option<u64>,
}

/// State access for evaluating one group at the close of window `k` —
/// implements both the interpreter's name-based [`StateLookup`] and the
/// compiled plans' index-based [`StateSlots`].
pub struct StateView<'a> {
    pub maintainer: &'a StateMaintainer,
    pub group: &'a KeyTuple,
    pub current_window: u64,
}

impl StateLookup for StateView<'_> {
    fn state_value(&self, name: &str, back: usize, field: Option<&str>) -> Value {
        if name != self.maintainer.name() {
            return Value::Missing;
        }
        self.maintainer
            .lookup(self.group, self.current_window, back, field)
    }
}

impl StateSlots for StateView<'_> {
    fn field(&self, back: usize, field: usize) -> Value {
        self.maintainer
            .lookup_idx(self.group, self.current_window, back, field)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use saql_lang::parse;

    fn block(src: &str) -> StateBlock {
        parse(src).unwrap().states.remove(0)
    }

    fn keys(vals: &[&str]) -> Vec<AttrValue> {
        vals.iter().map(AttrValue::str).collect()
    }

    fn atoms(vals: &[&str]) -> Vec<KeyAtom> {
        keys(vals).iter().map(KeyAtom::of).collect()
    }

    const QUERY2_STATE: &str = "proc p write ip i as evt #time(10 min)\nstate[3] ss { avg_amount := avg(evt.amount) } group by p\nreturn p";

    #[test]
    fn per_group_average_over_one_window() {
        let mut m = StateMaintainer::new(&block(QUERY2_STATE));
        for amount in [100i64, 200, 300] {
            m.observe(&[0], &atoms(&["sqlservr.exe"]), &[Value::int(amount)]);
        }
        m.observe(&[0], &atoms(&["chrome.exe"]), &[Value::int(50)]);

        let snaps = m.close(0);
        assert_eq!(snaps.len(), 2);
        let sql = snaps.iter().find(|g| g.label == "sqlservr.exe").unwrap();
        assert_eq!(sql.values[0].as_f64(), Some(200.0));
        let chrome = snaps.iter().find(|g| g.label == "chrome.exe").unwrap();
        assert_eq!(chrome.values[0].as_f64(), Some(50.0));
    }

    #[test]
    fn history_lookup_and_warmup() {
        let mut m = StateMaintainer::new(&block(QUERY2_STATE));
        let group = key_tuple(&keys(&["sqlservr.exe"]));
        for k in 0..4u64 {
            m.observe(
                &[k],
                &atoms(&["sqlservr.exe"]),
                &[Value::int(((k + 1) * 100) as i64)],
            );
            m.close(k);
        }
        // At window 3: ss[0]=400, ss[1]=300, ss[2]=200.
        assert_eq!(
            m.lookup(&group, 3, 0, Some("avg_amount")).as_f64(),
            Some(400.0)
        );
        assert_eq!(
            m.lookup(&group, 3, 1, Some("avg_amount")).as_f64(),
            Some(300.0)
        );
        assert_eq!(
            m.lookup(&group, 3, 2, Some("avg_amount")).as_f64(),
            Some(200.0)
        );
        // Beyond declared history: Missing (by name or by index).
        assert!(m.lookup(&group, 3, 3, Some("avg_amount")).is_missing());
        assert!(m.lookup_idx(&group, 3, 3, 0).is_missing());
        assert!(m.lookup_idx(&group, 3, 0, 9).is_missing(), "bad field idx");
        // Before the stream began (window 0 is first): ss[1] at window 0.
        assert!(m.lookup(&group, 0, 1, Some("avg_amount")).is_missing());
    }

    #[test]
    fn absent_window_reads_neutral_after_warmup() {
        let mut m = StateMaintainer::new(&block(QUERY2_STATE));
        let group = key_tuple(&keys(&["sqlservr.exe"]));
        m.observe(&[0], &atoms(&["sqlservr.exe"]), &[Value::int(500)]);
        m.close(0);
        // Window 1 passes with no events for the group; window 2 has one.
        m.observe(&[2], &atoms(&["sqlservr.exe"]), &[Value::int(900)]);
        m.close(2);
        // ss[1] (window 1) is neutral 0.0, not Missing.
        assert_eq!(
            m.lookup(&group, 2, 1, Some("avg_amount")).as_f64(),
            Some(0.0)
        );
        assert_eq!(
            m.lookup(&group, 2, 2, Some("avg_amount")).as_f64(),
            Some(500.0)
        );
    }

    #[test]
    fn set_aggregation() {
        let src = "proc p1 start proc p2 as evt #time(10 s)\nstate ss { set_proc := set(p2.exe_name) } group by p1\nreturn p1";
        let mut m = StateMaintainer::new(&block(src));
        for child in ["php.exe", "rotatelogs.exe", "php.exe"] {
            m.observe(&[0], &atoms(&["apache.exe"]), &[Value::str(child)]);
        }
        let snaps = m.close(0);
        assert_eq!(snaps.len(), 1);
        assert_eq!(snaps[0].values[0].to_string(), "{php.exe, rotatelogs.exe}");
    }

    #[test]
    fn tuple_identity_and_lazy_label() {
        let mut m = StateMaintainer::new(&block(QUERY2_STATE));
        // Identical values, one group; per-event path never built a label.
        m.observe(&[0], &atoms(&["x.exe"]), &[Value::int(1)]);
        m.observe(&[0], &atoms(&["x.exe"]), &[Value::int(3)]);
        m.observe(&[0], &atoms(&["y.exe"]), &[Value::int(5)]);
        let snaps = m.close(0);
        assert_eq!(snaps.len(), 2);
        // Sorted by label.
        assert_eq!(snaps[0].label, "x.exe");
        assert_eq!(snaps[1].label, "y.exe");
        assert_eq!(snaps[0].values[0].as_f64(), Some(2.0));
        // Repeated key values collapse in the label, like the legacy
        // double-spelling join did.
        assert_eq!(group_label(&keys(&["a", "a"])), "a");
        assert_eq!(group_label(&keys(&["a", "b"])), "a|b");
        assert_eq!(group_label(&[]), "<all>");
    }

    #[test]
    fn empty_group_by_uses_global_group() {
        let src = "proc p write ip i as evt #time(10 min)\nstate ss { n := count() }\nreturn p";
        let mut m = StateMaintainer::new(&block(src));
        for _ in 0..3 {
            m.observe(&[0], &[], &[Value::int(1)]);
        }
        let snaps = m.close(0);
        assert_eq!(snaps.len(), 1);
        assert_eq!(snaps[0].label, "<all>");
        assert_eq!(snaps[0].values[0].as_f64(), Some(3.0));
    }

    /// The pruned history answers every lookup an unpruned one does, and
    /// holds no group that closed none of the last `history_len` windows.
    /// Random groups, events out of order within the lateness bound,
    /// sliding windows closed by the engine's [`WindowDriver`], `state[1]`
    /// through `state[4]`; the reference keeps every closed window forever.
    #[test]
    fn pruned_history_matches_an_unpruned_reference() {
        use crate::window::WindowDriver;
        use saql_lang::ast::WindowSpec;
        use saql_model::{Duration, Timestamp};

        for h in 1..=4usize {
            for seed in 1..=6u64 {
                let src = format!(
                    "proc p write ip i as evt #time(10 s, 4 s)\nstate[{h}] ss {{\n n := count()\n total := sum(evt.amount)\n}} group by p, i.dstip\nreturn p"
                );
                let mut m = StateMaintainer::new(&block(&src));
                let spec = WindowSpec {
                    size: Duration::from_secs(10),
                    slide: Duration::from_secs(4),
                };
                let mut clock = WindowDriver::with_lateness(spec, Duration::from_secs(3));
                let mut rng = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15);
                let mut next = |bound: u64| {
                    rng ^= rng << 13;
                    rng ^= rng >> 7;
                    rng ^= rng << 17;
                    rng % bound
                };
                // The reference: every closed (group, window) forever.
                let mut closed_log: HashMap<(KeyTuple, u64), Vec<Value>> = HashMap::new();
                let mut groups_closed: BTreeMap<u64, usize> = BTreeMap::new();
                let mut first: Option<u64> = None;
                let mut close = |m: &mut StateMaintainer, k: u64, first: Option<u64>| {
                    let closed = m.close(k);
                    groups_closed.insert(k, closed.len());
                    for g in &closed {
                        closed_log.insert((g.key.clone(), k), g.values.clone());
                    }
                    for g in &closed {
                        for back in 0..=h {
                            for f in 0..2 {
                                let expect = match k.checked_sub(back as u64) {
                                    _ if back >= h => Value::Missing,
                                    Some(t) => match closed_log.get(&(g.key.clone(), t)) {
                                        Some(values) => values[f].clone(),
                                        None if first.is_some_and(|w| t >= w) => {
                                            neutral(m.fields[f].1)
                                        }
                                        None => Value::Missing,
                                    },
                                    None => Value::Missing,
                                };
                                let got = m.lookup_idx(&g.key, k, back, f);
                                assert_eq!(
                                    format!("{got:?}"),
                                    format!("{expect:?}"),
                                    "state[{h}] seed {seed}: {}[{back}] field {f} at {k}",
                                    g.label
                                );
                            }
                        }
                    }
                    let oldest = (k + 1).saturating_sub(h as u64);
                    let reachable: usize = groups_closed.range(oldest..=k).map(|(_, n)| n).sum();
                    assert!(
                        m.history.len() <= reachable,
                        "state[{h}] seed {seed}: {} groups in history, {reachable} closed in windows {oldest}..={k}",
                        m.history.len()
                    );
                };
                for i in 0..3_000u64 {
                    // ~100 ms apart, up to 2.5 s out of order (lateness 3 s).
                    let ts = Timestamp::from_millis(10_000 + i * 100 - next(2_500));
                    for k in clock.advance(ts) {
                        close(&mut m, k, first);
                    }
                    let ks = clock.observe(ts);
                    first = ks.iter().copied().chain(first).min();
                    let (proc_no, ip_no) = (next(6), next(40));
                    let key = atoms(&[&format!("p{proc_no}.exe"), &format!("10.0.0.{ip_no}")]);
                    m.observe(&ks, &key, &[Value::int(1), Value::int(next(1000) as i64)]);
                }
                for k in clock.drain() {
                    close(&mut m, k, first);
                }
            }
        }
    }

    #[test]
    fn state_view_implements_both_lookups() {
        let mut m = StateMaintainer::new(&block(QUERY2_STATE));
        m.observe(&[0], &atoms(&["x.exe"]), &[Value::int(42)]);
        m.close(0);
        let group = key_tuple(&keys(&["x.exe"]));
        let view = StateView {
            maintainer: &m,
            group: &group,
            current_window: 0,
        };
        assert_eq!(
            view.state_value("ss", 0, Some("avg_amount")).as_f64(),
            Some(42.0)
        );
        assert!(view
            .state_value("other", 0, Some("avg_amount"))
            .is_missing());
        assert_eq!(StateSlots::field(&view, 0, 0).as_f64(), Some(42.0));
    }
}
