//! Engine checkpoints: the full dynamic state of every registered query,
//! frozen at an exact stream position and written atomically to disk.
//!
//! A checkpoint pairs with the durable event store
//! ([`saql_stream::durable`]): the store pins the event suffix, the
//! checkpoint pins the engine state at `offset` into it, and
//! [`Engine::resume_from`](crate::Engine::resume_from) +
//! [`StoreSource::open_at`](saql_stream::source::StoreSource::open_at)
//! replay the suffix so the resumed alert stream equals the uninterrupted
//! run's.
//!
//! ## File format
//!
//! One file, `checkpoint.saqlckp`, written tmp + fsync + rename so a crash
//! mid-write leaves either the previous checkpoint or none — never a torn
//! one. Layout (all integers varint unless noted, the
//! [`saql_model::codec`] wire dialect):
//!
//! ```text
//! "SAQLCKP1"                      magic, 8 bytes
//! version: u8                     CHECKPOINT_VERSION
//! offset, frontier_ms             stream position
//! partial_match_cap, lateness_ms               QueryConfig (plan identity)
//! reserved: u8 = 0                             (was the exec mode; 1 = the
//!                                              removed interpreter, rejected)
//! n_rows, then per registry row:
//!   status: u8 (0 active / 1 paused / 2 removed)
//!   name, source: string          retained SAQL text for recompilation
//!   snapshot (live rows only):    QuerySnapshot blob, see below
//! n_adapters, then per pipeline edge (v2+):
//!   upstream: string, seq         alert→event adapter position
//! ```
//!
//! Floats are stored as their IEEE-754 bit patterns (fixed 8-byte LE), so
//! accumulator state — including Welford `m2` — round-trips bit-exactly;
//! signed integers zigzag. Tombstoned rows keep their slots so resumed
//! [`QueryId`](crate::QueryId)s align with the original run's.

use std::fs::{self, File};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use bytes::{Buf, BufMut, Bytes, BytesMut};
use saql_model::codec::{
    self, decode_entity, decode_event, encode_entity, encode_event, get_string, get_u64,
    put_string, put_u64, DecodeError,
};
use saql_model::{AttrValue, Timestamp};

use crate::error::EngineError;
use crate::invariant::{InvariantGroupSnapshot, InvariantSnapshot, Phase};
use crate::matcher::{MatcherSnapshot, PartialSnapshot};
use crate::query::{QueryConfig, QuerySnapshot, QueryStats};
use crate::state::{AccumSnapshot, GroupAccumSnapshot, GroupHistorySnapshot, StateSnapshot};
use crate::value::Value;
use crate::window::WindowSnapshot;

/// Leading magic of a checkpoint file.
pub const CHECKPOINT_MAGIC: &[u8; 8] = b"SAQLCKP1";

/// Format version byte written after the magic.
pub const CHECKPOINT_VERSION: u8 = 2;

/// File name a checkpoint occupies inside its directory.
pub const CHECKPOINT_FILE: &str = "checkpoint.saqlckp";

/// Lifecycle status of one registry row inside a checkpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RowStatus {
    Active,
    Paused,
    /// Tombstone: the query was deregistered before the checkpoint. Kept so
    /// row indices — and therefore resumed [`QueryId`](crate::QueryId)s —
    /// align with the original run's.
    Removed,
}

/// One registry row: the query's identity (name + retained source) plus its
/// frozen dynamic state. `snapshot` is `Some` iff the row is live.
#[derive(Debug, Clone)]
pub struct CheckpointRow {
    pub name: String,
    pub source: String,
    pub status: RowStatus,
    pub snapshot: Option<QuerySnapshot>,
}

/// A frozen engine: stream position, plan-identity config, and every
/// registry row's state. Produced by
/// [`Engine::checkpoint`](crate::Engine::checkpoint), consumed by
/// [`Engine::resume_from`](crate::Engine::resume_from).
#[derive(Debug, Clone)]
pub struct Checkpoint {
    /// Position of the next unprocessed event in the durable store: feed
    /// the resumed engine `store.iter_from(offset)`.
    pub offset: u64,
    /// The session's merge frontier at `offset` (resumed sessions report
    /// time from here).
    pub frontier: Timestamp,
    /// The [`QueryConfig`] every query was compiled under — plan identity;
    /// resume recompiles under exactly this config.
    pub config: QueryConfig,
    pub rows: Vec<CheckpointRow>,
    /// Pipeline alert→event adapter positions: `(upstream query name,
    /// next adapted-event sequence number)` per live pipeline edge, so a
    /// resumed topology keeps minting the same deterministic derived
    /// event ids. Empty for engines without pipelines (and for version-1
    /// checkpoints). The engine itself ignores this field — the pipeline
    /// wiring layer fills and consumes it.
    pub adapters: Vec<(String, u64)>,
}

impl Checkpoint {
    /// The checkpoint file path inside `dir`.
    pub fn path_in(dir: &Path) -> PathBuf {
        dir.join(CHECKPOINT_FILE)
    }

    /// Serialize to the on-disk byte format.
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(256 + self.rows.len() * 256);
        buf.put_slice(CHECKPOINT_MAGIC);
        buf.put_u8(CHECKPOINT_VERSION);
        put_u64(&mut buf, self.offset);
        put_u64(&mut buf, self.frontier.as_millis());
        put_u64(&mut buf, self.config.partial_match_cap as u64);
        put_u64(&mut buf, self.config.allowed_lateness.as_millis());
        buf.put_u8(0); // reserved (formerly the exec mode)
        put_u64(&mut buf, self.rows.len() as u64);
        for row in &self.rows {
            buf.put_u8(match row.status {
                RowStatus::Active => 0,
                RowStatus::Paused => 1,
                RowStatus::Removed => 2,
            });
            put_string(&mut buf, &row.name);
            put_string(&mut buf, &row.source);
            if row.status != RowStatus::Removed {
                let snap = row
                    .snapshot
                    .as_ref()
                    .expect("live checkpoint rows carry state");
                put_query_snapshot(&mut buf, snap);
            }
        }
        put_u64(&mut buf, self.adapters.len() as u64);
        for (upstream, seq) in &self.adapters {
            put_string(&mut buf, upstream);
            put_u64(&mut buf, *seq);
        }
        buf.freeze()
    }

    /// Decode a checkpoint from its on-disk bytes.
    pub fn decode(data: Bytes) -> Result<Checkpoint, EngineError> {
        decode_impl(data).map_err(|e| EngineError::Checkpoint(format!("corrupt checkpoint: {e}")))
    }

    /// Write the checkpoint into `dir` (created if absent) atomically: the
    /// bytes land in a `.tmp` sibling, are fsynced, and replace
    /// [`CHECKPOINT_FILE`] via rename. A crash at any point leaves the
    /// previous checkpoint (or none) intact. Returns the final path.
    pub fn write_atomic(&self, dir: &Path) -> Result<PathBuf, EngineError> {
        let io =
            |e: std::io::Error| EngineError::Checkpoint(format!("write {}: {e}", dir.display()));
        fs::create_dir_all(dir).map_err(io)?;
        let tmp = dir.join(".checkpoint.saqlckp.tmp");
        let path = Checkpoint::path_in(dir);
        let data = self.encode();
        let mut f = File::create(&tmp).map_err(io)?;
        f.write_all(&data).map_err(io)?;
        // The rename below is only atomic-durable if the bytes it exposes
        // already reached the disk.
        f.sync_all().map_err(io)?;
        drop(f);
        fs::rename(&tmp, &path).map_err(io)?;
        if let Ok(d) = File::open(dir) {
            // Persist the rename itself; best-effort (not all platforms
            // allow fsync on directories).
            let _ = d.sync_all();
        }
        Ok(path)
    }

    /// Read a checkpoint file (as written by
    /// [`write_atomic`](Self::write_atomic); pass either the directory or
    /// the file itself).
    pub fn load(path: &Path) -> Result<Checkpoint, EngineError> {
        let file = if path.is_dir() {
            Checkpoint::path_in(path)
        } else {
            path.to_path_buf()
        };
        let data = fs::read(&file)
            .map_err(|e| EngineError::Checkpoint(format!("read {}: {e}", file.display())))?;
        Checkpoint::decode(Bytes::from(data))
    }
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

fn put_i64(buf: &mut BytesMut, v: i64) {
    // Zigzag: small magnitudes of either sign stay short.
    put_u64(buf, ((v << 1) ^ (v >> 63)) as u64);
}

fn put_f64(buf: &mut BytesMut, v: f64) {
    // Fixed-width bit pattern: exact round trip, including NaN payloads
    // and signed zeros (varints would bloat on typical mantissas anyway).
    buf.put_u64_le(v.to_bits());
}

fn put_bool(buf: &mut BytesMut, v: bool) {
    buf.put_u8(v as u8);
}

fn put_attr(buf: &mut BytesMut, v: &AttrValue) {
    match v {
        AttrValue::Int(i) => {
            buf.put_u8(0);
            put_i64(buf, *i);
        }
        AttrValue::Float(f) => {
            buf.put_u8(1);
            put_f64(buf, *f);
        }
        AttrValue::Str(s) => {
            buf.put_u8(2);
            put_string(buf, s);
        }
        AttrValue::Bool(b) => {
            buf.put_u8(3);
            put_bool(buf, *b);
        }
    }
}

fn put_value(buf: &mut BytesMut, v: &Value) {
    match v {
        Value::Attr(a) => {
            buf.put_u8(0);
            put_attr(buf, a);
        }
        Value::Set(set) => {
            buf.put_u8(1);
            put_u64(buf, set.len() as u64);
            for s in set.iter() {
                put_string(buf, s);
            }
        }
        Value::Missing => buf.put_u8(2),
    }
}

fn put_matcher(buf: &mut BytesMut, snap: &MatcherSnapshot) {
    put_u64(buf, snap.partials.len() as u64);
    for p in &snap.partials {
        put_u64(buf, p.seq);
        put_u64(buf, p.next as u64);
        put_u64(buf, p.events.len() as u64);
        for e in &p.events {
            match e {
                Some(ev) => {
                    buf.put_u8(1);
                    encode_event(buf, ev);
                }
                None => buf.put_u8(0),
            }
        }
        put_u64(buf, p.bindings.len() as u64);
        for b in &p.bindings {
            match b {
                Some(ent) => {
                    buf.put_u8(1);
                    encode_entity(buf, ent);
                }
                None => buf.put_u8(0),
            }
        }
        put_u64(buf, p.last_ts.as_millis());
    }
    put_u64(buf, snap.next_seq);
    put_u64(buf, snap.emitted.len() as u64);
    for row in &snap.emitted {
        put_u64(buf, row.len() as u64);
        for id in row {
            put_u64(buf, *id);
        }
    }
    put_bool(buf, snap.overflowed);
}

fn put_window(buf: &mut BytesMut, snap: &WindowSnapshot) {
    put_u64(buf, snap.watermark.as_millis());
    put_u64(buf, snap.open.len() as u64);
    for w in &snap.open {
        put_u64(buf, *w);
    }
    put_u64(buf, snap.closed);
}

fn put_accum(buf: &mut BytesMut, a: &AccumSnapshot) {
    match a {
        AccumSnapshot::Stats {
            count,
            sum,
            min,
            max,
            mean,
            m2,
        } => {
            buf.put_u8(0);
            put_u64(buf, *count);
            put_f64(buf, *sum);
            put_f64(buf, *min);
            put_f64(buf, *max);
            put_f64(buf, *mean);
            put_f64(buf, *m2);
        }
        AccumSnapshot::Set(items) => {
            buf.put_u8(1);
            put_u64(buf, items.len() as u64);
            for s in items {
                put_string(buf, s);
            }
        }
        AccumSnapshot::Buffer(vals) => {
            buf.put_u8(2);
            put_u64(buf, vals.len() as u64);
            for v in vals {
                put_f64(buf, *v);
            }
        }
    }
}

fn put_key_vals(buf: &mut BytesMut, key_vals: &[AttrValue]) {
    put_u64(buf, key_vals.len() as u64);
    for k in key_vals {
        put_attr(buf, k);
    }
}

fn put_state(buf: &mut BytesMut, snap: &StateSnapshot) {
    put_u64(buf, snap.open.len() as u64);
    for (window, groups) in &snap.open {
        put_u64(buf, *window);
        put_u64(buf, groups.len() as u64);
        for g in groups {
            put_key_vals(buf, &g.key_vals);
            put_u64(buf, g.accums.len() as u64);
            for a in &g.accums {
                put_accum(buf, a);
            }
        }
    }
    put_u64(buf, snap.history.len() as u64);
    for g in &snap.history {
        put_key_vals(buf, &g.key_vals);
        put_u64(buf, g.windows.len() as u64);
        for (window, values) in &g.windows {
            put_u64(buf, *window);
            put_u64(buf, values.len() as u64);
            for v in values {
                put_value(buf, v);
            }
        }
    }
    match snap.first_window {
        Some(w) => {
            buf.put_u8(1);
            put_u64(buf, w);
        }
        None => buf.put_u8(0),
    }
}

fn put_invariant(buf: &mut BytesMut, snap: &InvariantSnapshot) {
    put_u64(buf, snap.groups.len() as u64);
    for g in &snap.groups {
        put_string(buf, &g.label);
        put_u64(buf, g.vars.len() as u64);
        for v in &g.vars {
            put_value(buf, v);
        }
        match g.phase {
            Phase::Training { seen } => {
                buf.put_u8(0);
                put_u64(buf, seen as u64);
            }
            Phase::Detecting => buf.put_u8(1),
        }
    }
}

fn put_query_snapshot(buf: &mut BytesMut, snap: &QuerySnapshot) {
    match &snap.matcher {
        Some(m) => {
            buf.put_u8(1);
            put_matcher(buf, m);
        }
        None => buf.put_u8(0),
    }
    match &snap.window {
        Some(w) => {
            buf.put_u8(1);
            put_window(buf, w);
        }
        None => buf.put_u8(0),
    }
    match &snap.state {
        Some(s) => {
            buf.put_u8(1);
            put_state(buf, s);
        }
        None => buf.put_u8(0),
    }
    match &snap.invariant {
        Some(i) => {
            buf.put_u8(1);
            put_invariant(buf, i);
        }
        None => buf.put_u8(0),
    }
    put_u64(buf, snap.distinct_seen.len() as u64);
    for row in &snap.distinct_seen {
        put_u64(buf, row.len() as u64);
        for s in row {
            put_string(buf, s);
        }
    }
    put_u64(buf, snap.stats.events_seen);
    put_u64(buf, snap.stats.events_matched);
    put_u64(buf, snap.stats.windows_closed);
    put_u64(buf, snap.stats.alerts);
    put_u64(buf, snap.stats.late_events);
    put_bool(buf, snap.overflow_reported);
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

type R<T> = Result<T, DecodeError>;

fn get_u8(buf: &mut Bytes) -> R<u8> {
    if !buf.has_remaining() {
        return Err(DecodeError::Truncated);
    }
    Ok(buf.get_u8())
}

fn get_i64(buf: &mut Bytes) -> R<i64> {
    let z = get_u64(buf)?;
    Ok(((z >> 1) as i64) ^ -((z & 1) as i64))
}

fn get_f64(buf: &mut Bytes) -> R<f64> {
    if buf.remaining() < 8 {
        return Err(DecodeError::Truncated);
    }
    Ok(f64::from_bits(buf.get_u64_le()))
}

fn get_bool(buf: &mut Bytes) -> R<bool> {
    match get_u8(buf)? {
        0 => Ok(false),
        1 => Ok(true),
        t => Err(DecodeError::BadTag("bool", t)),
    }
}

/// Read a sequence count, guarded: a corrupt length must not turn into an
/// OOM `Vec::with_capacity`. Every element is ≥ 1 byte on the wire, so a
/// count beyond the remaining bytes is a truncation.
fn get_len(buf: &mut Bytes) -> R<usize> {
    let n = get_u64(buf)?;
    if n > buf.remaining() as u64 {
        return Err(DecodeError::Truncated);
    }
    Ok(n as usize)
}

fn get_attr(buf: &mut Bytes) -> R<AttrValue> {
    match get_u8(buf)? {
        0 => Ok(AttrValue::Int(get_i64(buf)?)),
        1 => Ok(AttrValue::Float(get_f64(buf)?)),
        2 => Ok(AttrValue::Str(get_string(buf)?)),
        3 => Ok(AttrValue::Bool(get_bool(buf)?)),
        t => Err(DecodeError::BadTag("attr value", t)),
    }
}

fn get_value(buf: &mut Bytes) -> R<Value> {
    match get_u8(buf)? {
        0 => Ok(Value::Attr(get_attr(buf)?)),
        1 => {
            let n = get_len(buf)?;
            let mut set = std::collections::BTreeSet::new();
            for _ in 0..n {
                set.insert(get_string(buf)?.to_string());
            }
            Ok(Value::Set(Arc::new(set)))
        }
        2 => Ok(Value::Missing),
        t => Err(DecodeError::BadTag("value", t)),
    }
}

fn get_matcher(buf: &mut Bytes) -> R<MatcherSnapshot> {
    let n = get_len(buf)?;
    let mut partials = Vec::with_capacity(n);
    for _ in 0..n {
        let seq = get_u64(buf)?;
        let next = get_u64(buf)? as usize;
        let n_events = get_len(buf)?;
        let mut events = Vec::with_capacity(n_events);
        for _ in 0..n_events {
            events.push(match get_u8(buf)? {
                0 => None,
                1 => Some(decode_event(buf)?),
                t => return Err(DecodeError::BadTag("event option", t)),
            });
        }
        let n_bindings = get_len(buf)?;
        let mut bindings = Vec::with_capacity(n_bindings);
        for _ in 0..n_bindings {
            bindings.push(match get_u8(buf)? {
                0 => None,
                1 => Some(decode_entity(buf)?),
                t => return Err(DecodeError::BadTag("entity option", t)),
            });
        }
        let last_ts = Timestamp::from_millis(get_u64(buf)?);
        partials.push(PartialSnapshot {
            seq,
            next,
            events,
            bindings,
            last_ts,
        });
    }
    let next_seq = get_u64(buf)?;
    let n_emitted = get_len(buf)?;
    let mut emitted = Vec::with_capacity(n_emitted);
    for _ in 0..n_emitted {
        let n_ids = get_len(buf)?;
        let mut row = Vec::with_capacity(n_ids);
        for _ in 0..n_ids {
            row.push(get_u64(buf)?);
        }
        emitted.push(row);
    }
    let overflowed = get_bool(buf)?;
    Ok(MatcherSnapshot {
        partials,
        next_seq,
        emitted,
        overflowed,
    })
}

fn get_window(buf: &mut Bytes) -> R<WindowSnapshot> {
    let watermark = Timestamp::from_millis(get_u64(buf)?);
    let n = get_len(buf)?;
    let mut open = Vec::with_capacity(n);
    for _ in 0..n {
        open.push(get_u64(buf)?);
    }
    let closed = get_u64(buf)?;
    Ok(WindowSnapshot {
        watermark,
        open,
        closed,
    })
}

fn get_accum(buf: &mut Bytes) -> R<AccumSnapshot> {
    match get_u8(buf)? {
        0 => Ok(AccumSnapshot::Stats {
            count: get_u64(buf)?,
            sum: get_f64(buf)?,
            min: get_f64(buf)?,
            max: get_f64(buf)?,
            mean: get_f64(buf)?,
            m2: get_f64(buf)?,
        }),
        1 => {
            let n = get_len(buf)?;
            let mut items = Vec::with_capacity(n);
            for _ in 0..n {
                items.push(get_string(buf)?.to_string());
            }
            Ok(AccumSnapshot::Set(items))
        }
        2 => {
            let n = get_len(buf)?;
            let mut vals = Vec::with_capacity(n);
            for _ in 0..n {
                vals.push(get_f64(buf)?);
            }
            Ok(AccumSnapshot::Buffer(vals))
        }
        t => Err(DecodeError::BadTag("accumulator", t)),
    }
}

fn get_key_vals(buf: &mut Bytes) -> R<Vec<AttrValue>> {
    let n = get_len(buf)?;
    let mut key_vals = Vec::with_capacity(n);
    for _ in 0..n {
        key_vals.push(get_attr(buf)?);
    }
    Ok(key_vals)
}

fn get_state(buf: &mut Bytes) -> R<StateSnapshot> {
    let n_open = get_len(buf)?;
    let mut open = Vec::with_capacity(n_open);
    for _ in 0..n_open {
        let window = get_u64(buf)?;
        let n_groups = get_len(buf)?;
        let mut groups = Vec::with_capacity(n_groups);
        for _ in 0..n_groups {
            let key_vals = get_key_vals(buf)?;
            let n_accums = get_len(buf)?;
            let mut accums = Vec::with_capacity(n_accums);
            for _ in 0..n_accums {
                accums.push(get_accum(buf)?);
            }
            groups.push(GroupAccumSnapshot { key_vals, accums });
        }
        open.push((window, groups));
    }
    let n_history = get_len(buf)?;
    let mut history = Vec::with_capacity(n_history);
    for _ in 0..n_history {
        let key_vals = get_key_vals(buf)?;
        let n_windows = get_len(buf)?;
        let mut windows = Vec::with_capacity(n_windows);
        for _ in 0..n_windows {
            let window = get_u64(buf)?;
            let n_values = get_len(buf)?;
            let mut values = Vec::with_capacity(n_values);
            for _ in 0..n_values {
                values.push(get_value(buf)?);
            }
            windows.push((window, values));
        }
        history.push(GroupHistorySnapshot { key_vals, windows });
    }
    let first_window = match get_u8(buf)? {
        0 => None,
        1 => Some(get_u64(buf)?),
        t => return Err(DecodeError::BadTag("window option", t)),
    };
    Ok(StateSnapshot {
        open,
        history,
        first_window,
    })
}

fn get_invariant(buf: &mut Bytes) -> R<InvariantSnapshot> {
    let n = get_len(buf)?;
    let mut groups = Vec::with_capacity(n);
    for _ in 0..n {
        let label = get_string(buf)?.to_string();
        let n_vars = get_len(buf)?;
        let mut vars = Vec::with_capacity(n_vars);
        for _ in 0..n_vars {
            vars.push(get_value(buf)?);
        }
        let phase = match get_u8(buf)? {
            0 => Phase::Training {
                seen: get_u64(buf)? as usize,
            },
            1 => Phase::Detecting,
            t => return Err(DecodeError::BadTag("phase", t)),
        };
        groups.push(InvariantGroupSnapshot { label, vars, phase });
    }
    Ok(InvariantSnapshot { groups })
}

fn get_query_snapshot(buf: &mut Bytes) -> R<QuerySnapshot> {
    let matcher = match get_u8(buf)? {
        0 => None,
        1 => Some(get_matcher(buf)?),
        t => return Err(DecodeError::BadTag("matcher option", t)),
    };
    let window = match get_u8(buf)? {
        0 => None,
        1 => Some(get_window(buf)?),
        t => return Err(DecodeError::BadTag("window option", t)),
    };
    let state = match get_u8(buf)? {
        0 => None,
        1 => Some(get_state(buf)?),
        t => return Err(DecodeError::BadTag("state option", t)),
    };
    let invariant = match get_u8(buf)? {
        0 => None,
        1 => Some(get_invariant(buf)?),
        t => return Err(DecodeError::BadTag("invariant option", t)),
    };
    let n_distinct = get_len(buf)?;
    let mut distinct_seen = Vec::with_capacity(n_distinct);
    for _ in 0..n_distinct {
        let n = get_len(buf)?;
        let mut row = Vec::with_capacity(n);
        for _ in 0..n {
            row.push(get_string(buf)?.to_string());
        }
        distinct_seen.push(row);
    }
    let stats = QueryStats {
        events_seen: get_u64(buf)?,
        events_matched: get_u64(buf)?,
        windows_closed: get_u64(buf)?,
        alerts: get_u64(buf)?,
        late_events: get_u64(buf)?,
    };
    let overflow_reported = get_bool(buf)?;
    Ok(QuerySnapshot {
        matcher,
        window,
        state,
        invariant,
        distinct_seen,
        stats,
        overflow_reported,
    })
}

fn decode_impl(mut buf: Bytes) -> Result<Checkpoint, String> {
    if buf.remaining() < CHECKPOINT_MAGIC.len() {
        return Err("file shorter than the magic".to_string());
    }
    let magic = &buf.chunk()[..CHECKPOINT_MAGIC.len()];
    if magic != CHECKPOINT_MAGIC {
        return Err(format!("bad magic {magic:02x?}"));
    }
    buf.advance(CHECKPOINT_MAGIC.len());
    let version = get_u8(&mut buf).map_err(|e| e.to_string())?;
    // Version 1 is version 2 without the trailing adapter table.
    if version != CHECKPOINT_VERSION && version != 1 {
        return Err(format!(
            "version {version} (this build reads {CHECKPOINT_VERSION})"
        ));
    }
    let body = |buf: &mut Bytes| -> R<Checkpoint> {
        let offset = get_u64(buf)?;
        let frontier = Timestamp::from_millis(get_u64(buf)?);
        let config = QueryConfig {
            partial_match_cap: get_u64(buf)? as usize,
            allowed_lateness: saql_model::Duration::from_millis(get_u64(buf)?),
        };
        // Reserved-zero. A `1` here was written under the interpreted
        // execution mode, which no longer exists to resume into.
        match get_u8(buf)? {
            0 => {}
            t => {
                return Err(DecodeError::BadTag(
                    "exec mode (reserved-zero: the interpreted mode was removed)",
                    t,
                ))
            }
        }
        let n_rows = get_len(buf)?;
        let mut rows = Vec::with_capacity(n_rows);
        for _ in 0..n_rows {
            let status = match get_u8(buf)? {
                0 => RowStatus::Active,
                1 => RowStatus::Paused,
                2 => RowStatus::Removed,
                t => return Err(DecodeError::BadTag("row status", t)),
            };
            let name = get_string(buf)?.to_string();
            let source = get_string(buf)?.to_string();
            let snapshot = if status == RowStatus::Removed {
                None
            } else {
                Some(get_query_snapshot(buf)?)
            };
            rows.push(CheckpointRow {
                name,
                source,
                status,
                snapshot,
            });
        }
        let mut adapters = Vec::new();
        if version >= 2 {
            let n = get_len(buf)?;
            for _ in 0..n {
                let upstream = get_string(buf)?.to_string();
                let seq = get_u64(buf)?;
                adapters.push((upstream, seq));
            }
        }
        Ok(Checkpoint {
            offset,
            frontier,
            config,
            rows,
            adapters,
        })
    };
    let ckpt = body(&mut buf).map_err(|e| e.to_string())?;
    if buf.has_remaining() {
        return Err(format!("{} trailing bytes", buf.remaining()));
    }
    Ok(ckpt)
}

// Keep the unused-import lint honest: `codec` itself is referenced for the
// doc link above.
const _: u8 = codec::FORMAT_VERSION;

#[cfg(test)]
mod tests {
    use super::*;
    use saql_model::event::EventBuilder;
    use saql_model::{Entity, ProcessInfo};

    fn sample_snapshot() -> QuerySnapshot {
        let event = EventBuilder::new(7, "h1", 1_234)
            .subject(ProcessInfo::new(10, "cmd.exe", "admin"))
            .starts_process(ProcessInfo::new(11, "osql.exe", "admin"))
            .build();
        QuerySnapshot {
            matcher: Some(MatcherSnapshot {
                partials: vec![PartialSnapshot {
                    seq: 3,
                    next: 1,
                    events: vec![Some(event), None],
                    bindings: vec![
                        Some(Entity::Process(ProcessInfo::new(10, "cmd.exe", "admin"))),
                        None,
                    ],
                    last_ts: Timestamp::from_millis(1_234),
                }],
                next_seq: 4,
                emitted: vec![vec![1, 2], vec![9]],
                overflowed: false,
            }),
            window: Some(WindowSnapshot {
                watermark: Timestamp::from_millis(60_000),
                open: vec![2, 3],
                closed: 2,
            }),
            state: Some(StateSnapshot {
                open: vec![(
                    2,
                    vec![GroupAccumSnapshot {
                        key_vals: vec![
                            AttrValue::Str("cmd.exe".into()),
                            AttrValue::Int(-5),
                            AttrValue::Float(2.5),
                            AttrValue::Bool(true),
                        ],
                        accums: vec![
                            AccumSnapshot::Stats {
                                count: 4,
                                sum: 10.0,
                                min: 1.0,
                                max: 4.0,
                                mean: 2.5,
                                m2: 5.000000000000001,
                            },
                            AccumSnapshot::Set(vec!["a".into(), "b".into()]),
                            AccumSnapshot::Buffer(vec![1.5, -0.0, f64::NAN]),
                        ],
                    }],
                )],
                history: vec![GroupHistorySnapshot {
                    key_vals: vec![AttrValue::Str("x".into())],
                    windows: vec![(
                        1,
                        vec![
                            Value::int(3),
                            Value::Missing,
                            Value::Set(Arc::new(
                                ["p", "q"].iter().map(|s| s.to_string()).collect(),
                            )),
                        ],
                    )],
                }],
                first_window: Some(1),
            }),
            invariant: Some(InvariantSnapshot {
                groups: vec![InvariantGroupSnapshot {
                    label: "host-1".into(),
                    vars: vec![Value::float(0.25)],
                    phase: Phase::Training { seen: 2 },
                }],
            }),
            distinct_seen: vec![vec!["a".into(), "b".into()]],
            stats: QueryStats {
                events_seen: 100,
                events_matched: 40,
                windows_closed: 2,
                alerts: 3,
                late_events: 1,
            },
            overflow_reported: true,
        }
    }

    fn sample_checkpoint() -> Checkpoint {
        Checkpoint {
            offset: 12_345,
            frontier: Timestamp::from_millis(98_765),
            config: QueryConfig::default(),
            adapters: vec![("burst".into(), 7)],
            rows: vec![
                CheckpointRow {
                    name: "live".into(),
                    source: "proc p start proc q as e\nreturn p".into(),
                    status: RowStatus::Active,
                    snapshot: Some(sample_snapshot()),
                },
                CheckpointRow {
                    name: "gone".into(),
                    source: "proc p start proc q as e\nreturn q".into(),
                    status: RowStatus::Removed,
                    snapshot: None,
                },
                CheckpointRow {
                    name: "held".into(),
                    source: "proc p start proc q as e\nreturn p, q".into(),
                    status: RowStatus::Paused,
                    snapshot: Some(QuerySnapshot {
                        matcher: None,
                        window: None,
                        state: None,
                        invariant: None,
                        distinct_seen: vec![],
                        stats: QueryStats::default(),
                        overflow_reported: false,
                    }),
                },
            ],
        }
    }

    fn assert_checkpoints_equal(a: &Checkpoint, b: &Checkpoint) {
        // QuerySnapshot has no PartialEq (floats, NaNs); the Debug render
        // is exhaustive and distinguishes NaN payload loss via bit dumps
        // of the derived formatting.
        assert_eq!(a.offset, b.offset);
        assert_eq!(a.frontier, b.frontier);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }

    #[test]
    fn roundtrip_exact() {
        let ckpt = sample_checkpoint();
        let back = Checkpoint::decode(ckpt.encode()).unwrap();
        assert_checkpoints_equal(&ckpt, &back);
    }

    #[test]
    fn write_atomic_then_load() {
        let dir = std::env::temp_dir().join(format!("saql-ckpt-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let ckpt = sample_checkpoint();
        let path = ckpt.write_atomic(&dir).unwrap();
        assert_eq!(path, Checkpoint::path_in(&dir));
        assert!(
            !dir.join(".checkpoint.saqlckp.tmp").exists(),
            "tmp file must be renamed away"
        );
        // Load via the directory and via the file itself.
        assert_checkpoints_equal(&ckpt, &Checkpoint::load(&dir).unwrap());
        assert_checkpoints_equal(&ckpt, &Checkpoint::load(&path).unwrap());
        // Overwrite is atomic too: a second checkpoint replaces the first.
        let mut next = sample_checkpoint();
        next.offset = 99_999;
        next.write_atomic(&dir).unwrap();
        assert_eq!(Checkpoint::load(&dir).unwrap().offset, 99_999);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncation_and_corruption_detected() {
        let data = sample_checkpoint().encode();
        // Every strict prefix fails loudly — no silent partial decode.
        for cut in [0, 4, 8, 9, data.len() / 2, data.len() - 1] {
            assert!(
                Checkpoint::decode(data.slice(..cut)).is_err(),
                "prefix of {cut} bytes must not decode"
            );
        }
        // Bad magic.
        let mut raw = data.to_vec();
        raw[0] = b'X';
        assert!(Checkpoint::decode(Bytes::from(raw)).is_err());
        // Unknown version.
        let mut raw = data.to_vec();
        raw[8] = 99;
        let err = Checkpoint::decode(Bytes::from(raw)).unwrap_err();
        assert!(err.to_string().contains("version 99"), "{err}");
        // Trailing garbage.
        let mut raw = data.to_vec();
        raw.push(0);
        assert!(Checkpoint::decode(Bytes::from(raw)).is_err());
    }

    /// The byte after the config varints used to carry the exec mode (0
    /// compiled, 1 interpreted). It is reserved-zero now: what this build
    /// writes (0) decodes and resumes; a checkpoint written under the
    /// removed interpreted mode is refused, by name, before
    /// `Engine::resume_from` could recompile it under different semantics.
    #[test]
    fn removed_exec_mode_is_refused_by_name() {
        let ckpt = sample_checkpoint();
        let mut head = BytesMut::new();
        put_u64(&mut head, ckpt.offset);
        put_u64(&mut head, ckpt.frontier.as_millis());
        put_u64(&mut head, ckpt.config.partial_match_cap as u64);
        put_u64(&mut head, ckpt.config.allowed_lateness.as_millis());
        let at = CHECKPOINT_MAGIC.len() + 1 + head.len();
        let mut raw = ckpt.encode().to_vec();
        assert_eq!(raw[at], 0, "reserved byte");
        raw[at] = 1;
        let err = Checkpoint::decode(Bytes::from(raw)).unwrap_err();
        assert!(matches!(err, EngineError::Checkpoint(_)), "{err:?}");
        assert!(err.to_string().contains("interpreted mode"), "{err}");
    }

    #[test]
    fn zigzag_and_float_bit_exactness() {
        let mut buf = BytesMut::new();
        for v in [0i64, -1, 1, i64::MIN, i64::MAX, -123_456] {
            buf.clear();
            put_i64(&mut buf, v);
            let mut data = buf.clone().freeze();
            assert_eq!(get_i64(&mut data).unwrap(), v);
        }
        for v in [0.0f64, -0.0, f64::NAN, f64::INFINITY, 1.0e-300, -2.5] {
            buf.clear();
            put_f64(&mut buf, v);
            let mut data = buf.clone().freeze();
            assert_eq!(get_f64(&mut data).unwrap().to_bits(), v.to_bits());
        }
    }
}
