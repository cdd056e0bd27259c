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
//! to. When a window closes, alert expressions read the closing group's
//! finalized values as `ss[0].avg_amount` and earlier windows as
//! `ss[1]...`, `ss[2]...` from a bounded history. The history is only as
//! deep as the query reads: a block whose programs read nothing past
//! `ss[0]` (every plain `state` block) keeps none at all.
//!
//! **Group identity is a value tuple.** On the per-event path groups are
//! keyed by a [`KeyTuple`] — the hashed tuple of interned key values — not
//! by a joined display string: no formatting, no string allocation per
//! event. The human-readable joined label survives only as a *lazy alert
//! label* ([`group_label`]), rendered at close for the groups a query shows
//! it for: those that fire, key an invariant or place a cluster point. (A tuple
//! distinguishes `Int(1)` from `"1"`, which the old display-string identity
//! conflated; key attributes have stable types, so real queries never see
//! the difference.)
//!
//! **Storage is per window, flat, and recycled.** An open window keeps its
//! groups' accumulators in one column, `fields.len()` per row, behind a
//! key → row index, so a new (window, group) allocates one boxed key and
//! nothing else. [`StateMaintainer::close`] finalizes a window into one
//! reused value buffer, [`StateMaintainer::closed`] lends each group as a
//! borrowed [`ClosedGroup`] row in map order, and
//! [`StateMaintainer::release`] clears the window and keeps its storage as
//! the spare the next new window starts from. Until the release no window
//! reuses it, so events observed between a close and its release leave
//! the lent rows alone.
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

/// The group maps' hasher: it folds whole 8-byte words (a string's tail
/// word tagged with its length) by multiply-rotate and mixes once at the
/// end, where FNV-1a paid a multiply per byte. Unkeyed like FNV: the group
/// maps are internal analytics state (no untrusted-key DoS surface), and
/// the per-event path hashes a group key on every fold — SipHash would be
/// the single largest cost left on it.
#[derive(Default)]
struct WordHash(u64);

impl Hasher for WordHash {
    /// MurmurHash3's finalizer: the table indexes by the low bits, which
    /// the multiply alone leaves weak.
    fn finish(&self) -> u64 {
        let h = (self.0 ^ (self.0 >> 33)).wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^ (h >> 33)
    }

    fn write(&mut self, bytes: &[u8]) {
        let (words, tail) = bytes.as_chunks::<8>();
        let mut last = [0u8; 8];
        last[..tail.len()].copy_from_slice(tail);
        last[7] = tail.len() as u8;
        for word in words.iter().chain((!tail.is_empty()).then_some(&last)) {
            self.write_u64(u64::from_le_bytes(*word));
        }
    }

    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

type GroupMap<V> = HashMap<KeyTuple, V, BuildHasherDefault<WordHash>>;

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
    values.iter().cloned().map(KeyAtom::of_owned).collect()
}

/// The lazy alert label: key values joined by `|` with duplicate displays
/// collapsed (`group by p` shows `sqlservr.exe`, not `sqlservr.exe|...`).
pub fn group_label(key: &[KeyAtom]) -> String {
    let mut parts: Vec<String> = Vec::new();
    for atom in key {
        let s = atom.to_attr().to_string();
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

    /// The field's value; a set moves out, leaving the accumulator to be
    /// cleared with its window.
    fn finalize(&mut self, agg: AggFunc) -> Value {
        match (agg, self) {
            (AggFunc::Count, FieldAccum::Stats(s)) => Value::int(s.count() as i64),
            (AggFunc::Sum, FieldAccum::Stats(s)) => Value::float(s.sum()),
            (AggFunc::Avg, FieldAccum::Stats(s)) => Value::float(s.mean()),
            (AggFunc::Stddev, FieldAccum::Stats(s)) => Value::float(s.stddev()),
            (AggFunc::Min, FieldAccum::Stats(s)) => s.min().map_or(Value::Missing, Value::float),
            (AggFunc::Max, FieldAccum::Stats(s)) => s.max().map_or(Value::Missing, Value::float),
            (AggFunc::Set, FieldAccum::Set(s)) => Value::Set(Arc::new(std::mem::take(s))),
            (AggFunc::DistinctCount, FieldAccum::Set(s)) => Value::int(s.len() as i64),
            (AggFunc::Median, FieldAccum::Buffer(buf)) => {
                saql_analytics::robust::median(buf).map_or(Value::Missing, Value::float)
            }
            (AggFunc::Percentile(q), FieldAccum::Buffer(buf)) => {
                saql_analytics::robust::percentile(buf, q as f64)
                    .map_or(Value::Missing, Value::float)
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

/// One window's groups: a key → row index over one flat column of
/// accumulators, `fields.len()` per row in field declaration order.
#[derive(Debug, Default)]
struct OpenWindow {
    rows: GroupMap<u32>,
    accums: Vec<FieldAccum>,
}

/// One group at a window close, lent by [`StateMaintainer::closed`]: its
/// identity (the key atoms by group-by slot) and its finalized field values
/// in declaration order. Its label is rendered on demand with
/// [`group_label`]`(key)`.
#[derive(Debug, Clone, Copy)]
pub struct ClosedGroup<'a> {
    pub key: &'a [KeyAtom],
    pub values: &'a [Value],
}

/// The state maintainer for one `state[...]` block.
#[derive(Debug)]
pub struct StateMaintainer {
    name: String,
    /// The declared `state[N]`: lookups reaching further read `Missing`.
    history_len: usize,
    /// Closed windows kept per group: the query's read depth (1 + its
    /// deepest `ss[n]`), or 0 when it reads only `ss[0]`, which a
    /// [`StateView`] answers from the closing group itself.
    retained: usize,
    fields: Vec<(String, AggFunc)>,
    /// Accumulators of the open windows by window id.
    open: BTreeMap<u64, OpenWindow>,
    /// The window [`close`](Self::close) finalized, lent by
    /// [`closed`](Self::closed) until [`release`](Self::release).
    closing: OpenWindow,
    /// `closing`'s finalized values, row-major like its accumulators.
    values: Vec<Value>,
    /// A released window's cleared storage: the next new window's.
    spare: Option<OpenWindow>,
    /// Closed-window history: group → recent (window id, field values),
    /// newest at the back, holding only windows still reachable from the
    /// next close (so at most `retained` per group).
    history: GroupMap<VecDeque<(u64, Vec<Value>)>>,
    /// First window id ever observed (warm-up boundary for neutral values).
    first_window: Option<u64>,
}

impl StateMaintainer {
    /// A maintainer for `block` whose query reads `depth` windows: 1 + the
    /// deepest `ss[n]` any of its programs reads, at most the declared
    /// `state[N]`.
    pub fn new(block: &StateBlock, depth: usize) -> Self {
        let depth = depth.min(block.history);
        StateMaintainer {
            name: block.name.clone(),
            history_len: block.history,
            retained: if depth > 1 { depth } else { 0 },
            fields: block
                .fields
                .iter()
                .map(|f| (f.name.clone(), f.agg))
                .collect(),
            open: BTreeMap::new(),
            closing: OpenWindow::default(),
            values: Vec::new(),
            spare: None,
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
    /// *slice*. A new group boxes its key, the one allocation it makes, and
    /// appends its accumulators to the window's column.
    pub fn observe(&mut self, windows: &[u64], key: &[KeyAtom], folded: &[Value]) {
        let n = self.fields.len();
        for &k in windows {
            self.first_window = Some(self.first_window.map_or(k, |f| f.min(k)));
            let window =
                (self.open.entry(k)).or_insert_with(|| self.spare.take().unwrap_or_default());
            let row = match window.rows.get(key) {
                Some(&row) => row as usize,
                None => {
                    window.rows.insert(key.into(), window.rows.len() as u32);
                    (window.accums)
                        .extend(self.fields.iter().map(|(_, agg)| FieldAccum::new(*agg)));
                    window.rows.len() - 1
                }
            };
            for (acc, v) in window.accums[row * n..][..n].iter_mut().zip(folded) {
                acc.fold(v);
            }
        }
    }

    /// Close window `k`: finalize every group that observed events in it
    /// into one reused buffer, and keep their values in history if the
    /// query reads past `ss[0]`. Renders no label and sorts nothing. The
    /// groups are then lent by [`closed`](Self::closed) until
    /// [`release`](Self::release) (or the next close) recycles the window.
    pub fn close(&mut self, k: u64) {
        self.release();
        self.closing = self.open.remove(&k).unwrap_or_default();
        let fields = self.fields.iter().map(|(_, agg)| *agg).cycle();
        let accums = self.closing.accums.iter_mut().zip(fields);
        self.values.clear();
        for (acc, agg) in accums {
            self.values.push(acc.finalize(agg));
        }
        if self.retained == 0 {
            return;
        }
        // Windows close in ascending order and lookups reach back fewer than
        // `retained` windows from the one closing, so entries older than
        // `k + 1 - retained` can never be read again: drop them, and every
        // group left with none — else `history` keeps each group the query
        // has ever seen. (Before the push, so the map never holds the
        // dropped groups and the closing ones at once.)
        let oldest = k.saturating_add(1).saturating_sub(self.retained as u64);
        self.history.retain(|_, hist| {
            while hist.front().is_some_and(|(wk, _)| *wk < oldest) {
                hist.pop_front();
            }
            !hist.is_empty()
        });
        let n = self.fields.len();
        for (key, &row) in &self.closing.rows {
            let entry = (k, self.values[row as usize * n..][..n].to_vec());
            // A group with history already is looked up, not re-keyed: the
            // key is cloned only for a group's first history row.
            if let Some(hist) = self.history.get_mut(&key[..]) {
                hist.push_back(entry);
            } else {
                self.history.insert(key.clone(), VecDeque::from([entry]));
            }
        }
    }

    /// The groups of the window last closed, in map order.
    pub fn closed(&self) -> impl ExactSizeIterator<Item = ClosedGroup<'_>> {
        let n = self.fields.len();
        (self.closing.rows.iter()).map(move |(key, &row)| ClosedGroup {
            key,
            values: &self.values[row as usize * n..][..n],
        })
    }

    /// Done with the closed groups: the closed window's storage, cleared,
    /// becomes the spare the next new window starts from. Until then no
    /// window reuses it.
    pub fn release(&mut self) {
        if !self.closing.rows.is_empty() {
            self.closing.rows.clear();
            self.closing.accums.clear();
            self.spare = Some(std::mem::take(&mut self.closing));
        }
    }

    /// Resolve field `field_idx`, `back` windows before `k`, for `group`.
    pub fn lookup_idx(&self, group: &[KeyAtom], k: u64, back: usize, field_idx: usize) -> Value {
        if back >= self.history_len || field_idx >= self.fields.len() {
            return Value::Missing;
        }
        let Some(target) = k.checked_sub(back as u64) else {
            return Value::Missing;
        };
        let hist = self.history.get(group).into_iter().flatten();
        if let Some((_, values)) = hist.rev().find(|(wk, _)| *wk == target) {
            return values[field_idx].clone();
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
        let n = self.fields.len();
        let open = self
            .open
            .iter()
            .map(|(&k, window)| {
                let mut rows: Vec<_> = window.rows.iter().collect();
                rows.sort_by(|a, b| a.0.cmp(b.0));
                let groups = rows
                    .into_iter()
                    .map(|(key, &row)| GroupAccumSnapshot {
                        key_vals: key.iter().map(KeyAtom::to_attr).collect(),
                        accums: (window.accums[row as usize * n..][..n].iter())
                            .map(FieldAccum::snapshot)
                            .collect(),
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
            let mut window = OpenWindow::default();
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
                    .collect::<Result<Vec<_>, _>>()?;
                // A repeated key replaces its row, as a map insert would; a
                // new one appends (its range is the column's empty end).
                let next = window.rows.len() as u32;
                let row = *window.rows.entry(key_tuple(&g.key_vals)).or_insert(next) as usize;
                let end = window.accums.len().min(row * n + n);
                window.accums.splice(row * n..end, accums);
            }
            open.insert(k, window);
        }
        for (k, values) in snap.history.iter().flat_map(|g| &g.windows) {
            if values.len() != n {
                return Err(format!(
                    "a group's history for window {k} has {} values for {n} fields",
                    values.len()
                ));
            }
        }
        // A checkpoint may carry rows this query never reads again (one
        // written before history followed the read depth): each group keeps
        // its newest `retained`, which cover every window the next close
        // can reach.
        self.open = open;
        self.history = snap
            .history
            .into_iter()
            .filter_map(|g| {
                let skip = g.windows.len().saturating_sub(self.retained);
                let hist: VecDeque<_> = g.windows.into_iter().skip(skip).collect();
                (!hist.is_empty()).then(|| (key_tuple(&g.key_vals), hist))
            })
            .collect();
        self.first_window = snap.first_window;
        Ok(())
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
/// compiled plans' index-based [`StateSlots`], through one lookup:
/// `ss[0]` is the closing group's own values, `ss[n ≥ 1]` its history.
pub struct StateView<'a> {
    pub maintainer: &'a StateMaintainer,
    pub group: ClosedGroup<'a>,
    pub current_window: u64,
}

impl StateView<'_> {
    fn value(&self, back: usize, field: usize) -> Value {
        let ClosedGroup { key, values } = self.group;
        match back {
            0 => values.get(field).cloned().unwrap_or(Value::Missing),
            _ => (self.maintainer).lookup_idx(key, self.current_window, back, field),
        }
    }
}

impl StateLookup for StateView<'_> {
    /// A bare reference (`ss`) with exactly one field refers to it.
    fn state_value(&self, name: &str, back: usize, field: Option<&str>) -> Value {
        let fields = &self.maintainer.fields;
        let idx = match field {
            Some(f) => fields.iter().position(|(n, _)| n == f),
            None => (fields.len() == 1).then_some(0),
        };
        match idx.filter(|_| name == self.maintainer.name()) {
            Some(i) => self.value(back, i),
            None => Value::Missing,
        }
    }
}

impl StateSlots for StateView<'_> {
    fn field(&self, back: usize, field: usize) -> Value {
        self.value(back, field)
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
        keys(vals).into_iter().map(KeyAtom::of_owned).collect()
    }

    /// A maintainer keeping the whole declared history.
    fn maintainer(src: &str) -> StateMaintainer {
        let b = block(src);
        StateMaintainer::new(&b, b.history)
    }

    /// The closed groups in label order (`closed` lends map order).
    fn by_label(m: &StateMaintainer) -> Vec<ClosedGroup<'_>> {
        let mut groups: Vec<_> = m.closed().collect();
        groups.sort_by_key(|g| group_label(g.key));
        groups
    }

    const QUERY2_STATE: &str = "proc p write ip i as evt #time(10 min)\nstate[3] ss { avg_amount := avg(evt.amount) } group by p\nreturn p";

    #[test]
    fn per_group_average_over_one_window() {
        let mut m = maintainer(QUERY2_STATE);
        for amount in [100i64, 200, 300] {
            m.observe(&[0], &atoms(&["sqlservr.exe"]), &[Value::int(amount)]);
        }
        m.observe(&[0], &atoms(&["chrome.exe"]), &[Value::int(50)]);

        m.close(0);
        let snaps: Vec<_> = m.closed().collect();
        assert_eq!(snaps.len(), 2);
        let sql = snaps
            .iter()
            .find(|g| group_label(g.key) == "sqlservr.exe")
            .unwrap();
        assert_eq!(sql.values[0].as_f64(), Some(200.0));
        let chrome = snaps
            .iter()
            .find(|g| group_label(g.key) == "chrome.exe")
            .unwrap();
        assert_eq!(chrome.values[0].as_f64(), Some(50.0));
    }

    #[test]
    fn history_lookup_and_warmup() {
        let mut m = maintainer(QUERY2_STATE);
        for k in 0..4u64 {
            m.observe(
                &[k],
                &atoms(&["sqlservr.exe"]),
                &[Value::int(((k + 1) * 100) as i64)],
            );
            m.close(k);
        }
        let last: Vec<_> = m.closed().collect();
        let group = last[0].key;
        let view = StateView {
            maintainer: &m,
            group: last[0],
            current_window: 3,
        };
        let at = |back| view.state_value("ss", back, Some("avg_amount"));
        // At window 3: ss[0]=400 (the closing group), ss[1]=300, ss[2]=200.
        assert_eq!(at(0).as_f64(), Some(400.0));
        assert_eq!(at(1).as_f64(), Some(300.0));
        assert_eq!(at(2).as_f64(), Some(200.0));
        // Beyond declared history: Missing (by name or by index).
        assert!(at(3).is_missing());
        assert!(m.lookup_idx(group, 3, 3, 0).is_missing());
        assert!(m.lookup_idx(group, 3, 0, 9).is_missing(), "bad field idx");
        // Before the stream began (window 0 is first): ss[1] at window 0.
        assert!(m.lookup_idx(group, 0, 1, 0).is_missing());
    }

    #[test]
    fn absent_window_reads_neutral_after_warmup() {
        let mut m = maintainer(QUERY2_STATE);
        let group = key_tuple(&keys(&["sqlservr.exe"]));
        m.observe(&[0], &atoms(&["sqlservr.exe"]), &[Value::int(500)]);
        m.close(0);
        // Window 1 passes with no events for the group; window 2 has one.
        m.observe(&[2], &atoms(&["sqlservr.exe"]), &[Value::int(900)]);
        m.close(2);
        // ss[1] (window 1) is neutral 0.0, not Missing.
        assert_eq!(m.lookup_idx(&group, 2, 1, 0).as_f64(), Some(0.0));
        assert_eq!(m.lookup_idx(&group, 2, 2, 0).as_f64(), Some(500.0));
    }

    #[test]
    fn set_aggregation() {
        let src = "proc p1 start proc p2 as evt #time(10 s)\nstate ss { set_proc := set(p2.exe_name) } group by p1\nreturn p1";
        let mut m = maintainer(src);
        for child in ["php.exe", "rotatelogs.exe", "php.exe"] {
            m.observe(&[0], &atoms(&["apache.exe"]), &[Value::str(child)]);
        }
        m.close(0);
        let snaps: Vec<_> = m.closed().collect();
        assert_eq!(snaps.len(), 1);
        assert_eq!(snaps[0].values[0].to_string(), "{php.exe, rotatelogs.exe}");
    }

    #[test]
    fn tuple_identity_and_lazy_label() {
        let mut m = maintainer(QUERY2_STATE);
        // Identical values, one group; per-event path never built a label.
        m.observe(&[0], &atoms(&["x.exe"]), &[Value::int(1)]);
        m.observe(&[0], &atoms(&["x.exe"]), &[Value::int(3)]);
        m.observe(&[0], &atoms(&["y.exe"]), &[Value::int(5)]);
        m.close(0);
        let snaps = by_label(&m);
        assert_eq!(snaps.len(), 2);
        assert_eq!(group_label(snaps[0].key), "x.exe");
        assert_eq!(group_label(snaps[1].key), "y.exe");
        assert_eq!(snaps[0].values[0].as_f64(), Some(2.0));
        // Repeated key values collapse in the label, like the legacy
        // double-spelling join did.
        assert_eq!(group_label(&atoms(&["a", "a"])), "a");
        assert_eq!(group_label(&atoms(&["a", "b"])), "a|b");
        assert_eq!(group_label(&[]), "<all>");
    }

    #[test]
    fn empty_group_by_uses_global_group() {
        let src = "proc p write ip i as evt #time(10 min)\nstate ss { n := count() }\nreturn p";
        let mut m = maintainer(src);
        for _ in 0..3 {
            m.observe(&[0], &[], &[Value::int(1)]);
        }
        m.close(0);
        let snaps: Vec<_> = m.closed().collect();
        assert_eq!(snaps.len(), 1);
        assert_eq!(group_label(snaps[0].key), "<all>");
        assert_eq!(snaps[0].values[0].as_f64(), Some(3.0));
    }

    /// The pruned history answers every lookup an unpruned one does, up
    /// to the read depth, and holds no group that closed none of the last
    /// `depth` windows (none at all at depth 1). Random groups, events out
    /// of order within the lateness bound, sliding windows closed by the
    /// engine's [`WindowDriver`], `state[1]` through `state[4]` read at
    /// every depth up to the declared one; the reference keeps every closed
    /// window forever.
    #[test]
    fn pruned_history_matches_an_unpruned_reference() {
        use crate::window::WindowDriver;
        use saql_lang::ast::WindowSpec;
        use saql_model::{Duration, Timestamp};

        for (h, depth) in (1..=4usize).flat_map(|h| (1..=h).map(move |d| (h, d))) {
            for seed in 1..=6u64 {
                let src = format!(
                    "proc p write ip i as evt #time(10 s, 4 s)\nstate[{h}] ss {{\n n := count()\n total := sum(evt.amount)\n}} group by p, i.dstip\nreturn p"
                );
                let mut m = StateMaintainer::new(&block(&src), depth);
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
                    m.close(k);
                    let m = &*m;
                    let closed = by_label(m);
                    groups_closed.insert(k, closed.len());
                    for g in &closed {
                        closed_log.insert((g.key.into(), k), g.values.to_vec());
                    }
                    for g in &closed {
                        let view = StateView {
                            maintainer: m,
                            group: *g,
                            current_window: k,
                        };
                        // Every depth the query reads, and one past `state[h]`.
                        for back in (0..depth).chain([h]) {
                            for f in 0..2 {
                                let expect = match k.checked_sub(back as u64) {
                                    _ if back >= h => Value::Missing,
                                    Some(t) => match closed_log.get(&(g.key.into(), t)) {
                                        Some(values) => values[f].clone(),
                                        None if first.is_some_and(|w| t >= w) => {
                                            neutral(m.fields[f].1)
                                        }
                                        None => Value::Missing,
                                    },
                                    None => Value::Missing,
                                };
                                let got = StateSlots::field(&view, back, f);
                                assert_eq!(
                                    format!("{got:?}"),
                                    format!("{expect:?}"),
                                    "state[{h}] depth {depth} seed {seed}: {}[{back}] field {f} at {k}",
                                    group_label(g.key)
                                );
                            }
                        }
                    }
                    let reachable: usize = match depth {
                        1 => 0,
                        _ => {
                            let oldest = (k + 1).saturating_sub(depth as u64);
                            groups_closed.range(oldest..=k).map(|(_, n)| n).sum()
                        }
                    };
                    assert!(
                        m.history.len() <= reachable,
                        "state[{h}] depth {depth} seed {seed}: {} groups in history, {reachable} reachable at {k}",
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

    /// Every close lends exactly the groups a plain map reference folded
    /// into that window, with the same values: keys mixing `Int`, `Str` and
    /// `Float` atoms, sliding windows closed by the engine's
    /// [`WindowDriver`] with lateness, a field of every accumulator kind,
    /// snapshot → restore at random points, and events observed after a
    /// close and before its release (the lent rows must not change). Windows
    /// recycle released storage, so a group leaking from an earlier window
    /// shows as an extra row.
    #[test]
    fn closes_match_a_plain_map_reference() {
        use crate::window::WindowDriver;
        use saql_lang::ast::WindowSpec;
        use saql_model::{Duration, Timestamp};

        let src = "proc p write ip i as evt #time(10 s, 4 s)\nstate[2] ss {\n n := count()\n total := sum(evt.amount)\n mean := avg(evt.amount)\n procs := set(p.exe_name)\n kinds := distinct_count(p.exe_name)\n mid := median(evt.amount)\n} group by p, i.dstip\nreturn p";
        let b = block(src);
        let aggs: Vec<AggFunc> = b.fields.iter().map(|f| f.agg).collect();
        for seed in 1..=8u64 {
            let mut m = StateMaintainer::new(&b, 2);
            let spec = WindowSpec {
                size: Duration::from_secs(10),
                slide: Duration::from_secs(4),
            };
            let mut clock = WindowDriver::with_lateness(spec, Duration::from_secs(3));
            let mut rng = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15);
            let mut next = move |bound: u64| {
                rng ^= rng << 13;
                rng ^= rng >> 7;
                rng ^= rng << 17;
                rng % bound
            };
            let mut reference: HashMap<(u64, Vec<KeyAtom>), Vec<FieldAccum>> = HashMap::new();
            // The rows the last close lent, sorted, while they are lent, and
            // for how many more events.
            let (mut lent, mut hold): (Option<Vec<String>>, u64) = (None, 0);
            let rows = |m: &StateMaintainer| {
                let mut rows: Vec<String> = m.closed().map(|g| format!("{g:?}")).collect();
                rows.sort();
                rows
            };
            let close = |m: &mut StateMaintainer, k: u64, reference: &mut HashMap<_, _>| {
                m.close(k);
                let due: Vec<(u64, Vec<KeyAtom>)> =
                    reference.keys().filter(|(w, _)| *w == k).cloned().collect();
                let mut expect: Vec<String> = due
                    .into_iter()
                    .map(|wk| {
                        let mut accums: Vec<FieldAccum> = reference.remove(&wk).unwrap();
                        let values: Vec<Value> = (accums.iter_mut().zip(&aggs))
                            .map(|(a, agg)| a.finalize(*agg))
                            .collect();
                        format!(
                            "{:?}",
                            ClosedGroup {
                                key: &wk.1,
                                values: &values
                            }
                        )
                    })
                    .collect();
                expect.sort();
                assert_eq!(rows(m), expect, "seed {seed}: window {k}");
                expect
            };
            for i in 0..2_000u64 {
                // ~100 ms apart, up to 2.5 s out of order (lateness 3 s).
                let ts = Timestamp::from_millis(10_000 + i * 100 - next(2_500));
                for k in clock.advance(ts) {
                    lent = Some(close(&mut m, k, &mut reference));
                    hold = next(5) * 10;
                }
                // Release some closes at once; leave others lent for up to
                // 4 s of observes, which open new windows but must not
                // touch the lent rows.
                if lent.is_some() && hold == 0 {
                    m.release();
                    lent = None;
                }
                hold = hold.saturating_sub(1);
                let key: Vec<KeyAtom> = (0..1 + next(2))
                    .map(|_| match next(3) {
                        0 => KeyAtom::Int(next(8) as i64),
                        1 => KeyAtom::Str(format!("{}", next(8)).into()),
                        _ => KeyAtom::Float((next(8) as f64 * 0.5).to_bits()),
                    })
                    .collect();
                let amount = Value::int(next(1_000) as i64);
                let exe = Value::str(format!("p{}.exe", next(5)));
                let folded = [
                    Value::int(1),
                    amount.clone(),
                    amount.clone(),
                    exe.clone(),
                    exe,
                    amount,
                ];
                let ks = clock.observe(ts);
                m.observe(&ks, &key, &folded);
                for &k in &ks {
                    let accums = reference
                        .entry((k, key.clone()))
                        .or_insert_with(|| aggs.iter().map(|a| FieldAccum::new(*a)).collect());
                    for (acc, v) in accums.iter_mut().zip(&folded) {
                        acc.fold(v);
                    }
                }
                if let Some(expect) = &lent {
                    assert_eq!(&rows(&m), expect, "seed {seed}: lent rows changed");
                } else if next(50) == 0 {
                    let mut restored = StateMaintainer::new(&b, 2);
                    restored.restore(m.snapshot()).unwrap();
                    m = restored;
                }
            }
            for k in clock.drain() {
                close(&mut m, k, &mut reference);
                m.release();
            }
            assert!(reference.is_empty(), "seed {seed}: groups never closed");
        }
    }

    #[test]
    fn state_view_implements_both_lookups() {
        let mut m = maintainer(QUERY2_STATE);
        m.observe(&[0], &atoms(&["x.exe"]), &[Value::int(42)]);
        m.close(0);
        let view = StateView {
            maintainer: &m,
            group: m.closed().next().unwrap(),
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

    /// A block read only at `ss[0]` keeps no history, writes no history
    /// rows, and drops the rows of a checkpoint that carries them; a deeper
    /// read keeps each group's newest rows up to its depth.
    #[test]
    fn history_follows_the_read_depth_through_checkpoints() {
        let src = "proc p write ip i as evt #time(10 s)\nstate[3] ss { n := count() } group by p\nreturn p";
        let mut full = maintainer(src);
        let mut flat = StateMaintainer::new(&block(src), 1);
        for k in 0..5u64 {
            for m in [&mut full, &mut flat] {
                m.observe(&[k], &atoms(&["x.exe"]), &[Value::int(1)]);
                m.close(k);
            }
        }
        assert!(flat.history.is_empty());
        assert!(flat.snapshot().history.is_empty());
        let carried = full.snapshot();
        assert_eq!(carried.history[0].windows.len(), 3);

        let mut restored = StateMaintainer::new(&block(src), 1);
        restored.restore(carried.clone()).unwrap();
        assert!(restored.snapshot().history.is_empty());
        let mut restored = StateMaintainer::new(&block(src), 2);
        restored.restore(carried).unwrap();
        let kept: Vec<u64> = restored.snapshot().history[0]
            .windows
            .iter()
            .map(|(k, _)| *k)
            .collect();
        assert_eq!(kept, vec![3, 4]);
    }
}
