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
//! One file, `checkpoint.saqlckp`, written through
//! [`replace_file`] (tmp + fsync + rename + directory fsync) so a crash
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
//!   snapshot (live rows only):    QuerySnapshot, its fields in order
//! n_adapters, then per pipeline edge:
//!   upstream: string, seq         alert→event adapter position
//! ```
//!
//! Below the row, every snapshot struct is its fields in the order its
//! `wire_struct!` line lists them (their declaration order); a sequence is
//! its count then its elements, an `Option` a 0/1 tag then the value, an
//! enum a one-byte variant tag then the variant's fields. Floats are stored
//! as their IEEE-754 bit patterns (fixed 8-byte LE), so accumulator state —
//! including Welford `m2` — round-trips bit-exactly; signed integers
//! zigzag. Tombstoned rows keep their slots so resumed
//! [`QueryId`](crate::QueryId)s align with the original run's. A version-1
//! file (no adapter table) is refused like any other unknown version.
//!
//! ## One codec
//!
//! Every type in the file writes and reads itself through one crate-private
//! trait, `Wire`, implemented once per type in this file — the encoder and
//! the decoder cannot drift apart, and the format is pinned byte for byte
//! by golden fixtures (`tests/fixtures/`). The generic sequence decode is
//! the only place a decoded count sizes an allocation, and its up-front
//! reservation never exceeds the bytes the input has left, however large
//! the element type. That bounds the reservation, not the decode: elements
//! that really are on the wire still grow the `Vec` by `size_of::<T>()`
//! each, so a crafted file of minimal elements can make one allocation up
//! to about `2 × size_of::<T>() / (smallest wire size of T)` times its own
//! length — ~200× for 3-byte tombstone rows (`CheckpointRow` is 320
//! bytes), ~300× for a run of 1-byte `None` partial-match events
//! (`Option<Event>` is 152).
//!
//! Decoding proves a file well-formed, not that it fits the queries it
//! names: [`Engine::resume_from`](crate::Engine::resume_from) checks every
//! restored index against the recompiled plan and refuses a mismatch.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use saql_model::codec::{self, DecodeError};
use saql_model::{AttrValue, Duration, Entity, Event, Timestamp};
use saql_stream::durable::replace_file;

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

/// Lifecycle status of a registry row — in the engine's registry and in
/// the checkpoints written from it.
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
    /// event ids. Empty for engines without pipelines. The engine itself
    /// ignores this field — the pipeline wiring layer fills and consumes
    /// it.
    pub adapters: Vec<(String, u64)>,
}

impl Checkpoint {
    /// The checkpoint file path inside `dir`.
    pub fn path_in(dir: &Path) -> PathBuf {
        dir.join(CHECKPOINT_FILE)
    }

    /// Serialize to the on-disk byte format.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(256 + self.rows.len() * 256);
        buf.extend_from_slice(CHECKPOINT_MAGIC);
        buf.push(CHECKPOINT_VERSION);
        self.offset.put(&mut buf);
        self.frontier.put(&mut buf);
        self.config.put(&mut buf);
        buf.push(0); // reserved (formerly the exec mode)
        self.rows.put(&mut buf);
        self.adapters.put(&mut buf);
        buf
    }

    /// Decode a checkpoint from its on-disk bytes.
    pub fn decode(data: &[u8]) -> Result<Checkpoint, EngineError> {
        decode_impl(data).map_err(|e| EngineError::Checkpoint(format!("corrupt checkpoint: {e}")))
    }

    /// Write the checkpoint into `dir` (created if absent) atomically,
    /// through [`replace_file`]: a crash at any point leaves the previous
    /// checkpoint (or none) intact. Returns the final path.
    pub fn write_atomic(&self, dir: &Path) -> Result<PathBuf, EngineError> {
        let io =
            |e: std::io::Error| EngineError::Checkpoint(format!("write {}: {e}", dir.display()));
        fs::create_dir_all(dir).map_err(io)?;
        let path = Checkpoint::path_in(dir);
        replace_file(&path, &self.encode()).map_err(io)?;
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
        Checkpoint::decode(&data)
    }
}

fn decode_impl(data: &[u8]) -> Result<Checkpoint, String> {
    let Some((magic, mut buf)) = data.split_first_chunk::<8>() else {
        return Err("file shorter than the magic".to_string());
    };
    if magic != CHECKPOINT_MAGIC {
        return Err(format!("bad magic {magic:02x?}"));
    }
    let version = u8::get(&mut buf).map_err(|e| e.to_string())?;
    if version != CHECKPOINT_VERSION {
        return Err(format!(
            "version {version} (this build reads {CHECKPOINT_VERSION})"
        ));
    }
    let body = |buf: &mut &[u8]| -> R<Checkpoint> {
        let offset = Wire::get(buf)?;
        let frontier = Wire::get(buf)?;
        let config = Wire::get(buf)?;
        // Reserved-zero. A `1` here was written under the interpreted
        // execution mode, which no longer exists to resume into.
        let reserved = u8::get(buf)?;
        if reserved != 0 {
            let what = "exec mode (reserved-zero: the interpreted mode was removed)";
            return Err(DecodeError::BadTag(what, reserved));
        }
        Ok(Checkpoint {
            offset,
            frontier,
            config,
            rows: Wire::get(buf)?,
            adapters: Wire::get(buf)?,
        })
    };
    let ckpt = body(&mut buf).map_err(|e| e.to_string())?;
    if !buf.is_empty() {
        return Err(format!("{} trailing bytes", buf.len()));
    }
    Ok(ckpt)
}

// ---------------------------------------------------------------------------
// The codec
// ---------------------------------------------------------------------------

type R<T> = Result<T, DecodeError>;

/// The one checkpoint codec: a type's bytes, written and read in one place.
trait Wire: Sized {
    fn put(&self, buf: &mut Vec<u8>);
    fn get(buf: &mut &[u8]) -> R<Self>;
}

/// Raw byte (tags, the version, the reserved byte).
impl Wire for u8 {
    fn put(&self, buf: &mut Vec<u8>) {
        buf.push(*self);
    }
    fn get(buf: &mut &[u8]) -> R<u8> {
        codec::get_u8(buf)
    }
}

impl Wire for u64 {
    fn put(&self, buf: &mut Vec<u8>) {
        codec::put_u64(buf, *self);
    }
    fn get(buf: &mut &[u8]) -> R<u64> {
        codec::get_u64(buf)
    }
}

impl Wire for usize {
    fn put(&self, buf: &mut Vec<u8>) {
        (*self as u64).put(buf);
    }
    fn get(buf: &mut &[u8]) -> R<usize> {
        u64::get(buf).map(|v| v as usize)
    }
}

impl Wire for i64 {
    // Zigzag: small magnitudes of either sign stay short.
    fn put(&self, buf: &mut Vec<u8>) {
        (((self << 1) ^ (self >> 63)) as u64).put(buf);
    }
    fn get(buf: &mut &[u8]) -> R<i64> {
        let z = u64::get(buf)?;
        Ok(((z >> 1) as i64) ^ -((z & 1) as i64))
    }
}

impl Wire for f64 {
    // Fixed-width bit pattern: exact round trip, including NaN payloads
    // and signed zeros (varints would bloat on typical mantissas anyway).
    fn put(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&self.to_bits().to_le_bytes());
    }
    fn get(buf: &mut &[u8]) -> R<f64> {
        let (&bits, rest) = buf.split_first_chunk::<8>().ok_or(DecodeError::Truncated)?;
        *buf = rest;
        Ok(f64::from_bits(u64::from_le_bytes(bits)))
    }
}

impl Wire for bool {
    fn put(&self, buf: &mut Vec<u8>) {
        (*self as u8).put(buf);
    }
    fn get(buf: &mut &[u8]) -> R<bool> {
        match u8::get(buf)? {
            0 => Ok(false),
            1 => Ok(true),
            t => Err(DecodeError::BadTag("bool", t)),
        }
    }
}

impl Wire for Arc<str> {
    fn put(&self, buf: &mut Vec<u8>) {
        codec::put_string(buf, self);
    }
    fn get(buf: &mut &[u8]) -> R<Arc<str>> {
        codec::get_string(buf)
    }
}

impl Wire for String {
    fn put(&self, buf: &mut Vec<u8>) {
        codec::put_string(buf, self);
    }
    fn get(buf: &mut &[u8]) -> R<String> {
        codec::get_string(buf).map(|s| s.to_string())
    }
}

impl Wire for Timestamp {
    fn put(&self, buf: &mut Vec<u8>) {
        self.as_millis().put(buf);
    }
    fn get(buf: &mut &[u8]) -> R<Timestamp> {
        u64::get(buf).map(Timestamp::from_millis)
    }
}

impl Wire for Duration {
    fn put(&self, buf: &mut Vec<u8>) {
        self.as_millis().put(buf);
    }
    fn get(buf: &mut &[u8]) -> R<Duration> {
        u64::get(buf).map(Duration::from_millis)
    }
}

impl Wire for Event {
    fn put(&self, buf: &mut Vec<u8>) {
        codec::encode_event(buf, self);
    }
    fn get(buf: &mut &[u8]) -> R<Event> {
        codec::decode_event(buf)
    }
}

impl Wire for Entity {
    fn put(&self, buf: &mut Vec<u8>) {
        codec::encode_entity(buf, self);
    }
    fn get(buf: &mut &[u8]) -> R<Entity> {
        codec::decode_entity(buf)
    }
}

impl<T: Wire> Wire for Option<T> {
    fn put(&self, buf: &mut Vec<u8>) {
        match self {
            Some(v) => put_tagged(buf, 1, v),
            None => buf.push(0),
        }
    }
    fn get(buf: &mut &[u8]) -> R<Option<T>> {
        match u8::get(buf)? {
            0 => Ok(None),
            1 => T::get(buf).map(Some),
            t => Err(DecodeError::BadTag("option", t)),
        }
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    fn put(&self, buf: &mut Vec<u8>) {
        self.0.put(buf);
        self.1.put(buf);
    }
    fn get(buf: &mut &[u8]) -> R<(A, B)> {
        Ok((A::get(buf)?, B::get(buf)?))
    }
}

/// An enum variant: its one-byte tag, then its payload.
fn put_tagged(buf: &mut Vec<u8>, tag: u8, payload: &impl Wire) {
    buf.push(tag);
    payload.put(buf);
}

/// A count, then the items: the layout [`Vec`]'s `get` reads.
fn put_seq<'a, T: Wire + 'a>(buf: &mut Vec<u8>, items: impl ExactSizeIterator<Item = &'a T>) {
    items.len().put(buf);
    for item in items {
        item.put(buf);
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn put(&self, buf: &mut Vec<u8>) {
        put_seq(buf, self.iter());
    }
    /// The only place a decoded count sizes an allocation. Every element is
    /// at least one byte on the wire, so a count beyond the bytes left is a
    /// truncation; and the reservation is capped at the bytes left, so a
    /// forged count cannot reserve more memory than the file holds, however
    /// large `T` is in memory. (Elements actually decoded grow the `Vec`
    /// past that; see the module doc.)
    fn get(buf: &mut &[u8]) -> R<Vec<T>> {
        let n = u64::get(buf)?;
        if n > buf.len() as u64 {
            return Err(DecodeError::Truncated);
        }
        let fits = buf.len() / std::mem::size_of::<T>().max(1);
        let mut out = Vec::with_capacity((n as usize).min(fits));
        for _ in 0..n {
            out.push(T::get(buf)?);
        }
        Ok(out)
    }
}

impl Wire for AttrValue {
    fn put(&self, buf: &mut Vec<u8>) {
        match self {
            AttrValue::Int(i) => put_tagged(buf, 0, i),
            AttrValue::Float(f) => put_tagged(buf, 1, f),
            AttrValue::Str(s) => put_tagged(buf, 2, s),
            AttrValue::Bool(b) => put_tagged(buf, 3, b),
        }
    }
    fn get(buf: &mut &[u8]) -> R<AttrValue> {
        match u8::get(buf)? {
            0 => i64::get(buf).map(AttrValue::Int),
            1 => f64::get(buf).map(AttrValue::Float),
            2 => Arc::get(buf).map(AttrValue::Str),
            3 => bool::get(buf).map(AttrValue::Bool),
            t => Err(DecodeError::BadTag("attr value", t)),
        }
    }
}

impl Wire for Value {
    fn put(&self, buf: &mut Vec<u8>) {
        match self {
            Value::Attr(a) => put_tagged(buf, 0, a),
            Value::Set(set) => {
                buf.push(1);
                put_seq(buf, set.iter());
            }
            Value::Missing => buf.push(2),
        }
    }
    fn get(buf: &mut &[u8]) -> R<Value> {
        match u8::get(buf)? {
            0 => AttrValue::get(buf).map(Value::Attr),
            1 => Ok(Value::Set(Arc::new(
                Vec::<String>::get(buf)?.into_iter().collect(),
            ))),
            2 => Ok(Value::Missing),
            t => Err(DecodeError::BadTag("value", t)),
        }
    }
}

impl Wire for AccumSnapshot {
    fn put(&self, buf: &mut Vec<u8>) {
        match self {
            AccumSnapshot::Stats {
                count,
                sum,
                min,
                max,
                mean,
                m2,
            } => {
                buf.push(0);
                count.put(buf);
                for x in [sum, min, max, mean, m2] {
                    x.put(buf);
                }
            }
            AccumSnapshot::Set(items) => put_tagged(buf, 1, items),
            AccumSnapshot::Buffer(vals) => put_tagged(buf, 2, vals),
        }
    }
    fn get(buf: &mut &[u8]) -> R<AccumSnapshot> {
        match u8::get(buf)? {
            0 => Ok(AccumSnapshot::Stats {
                count: Wire::get(buf)?,
                sum: Wire::get(buf)?,
                min: Wire::get(buf)?,
                max: Wire::get(buf)?,
                mean: Wire::get(buf)?,
                m2: Wire::get(buf)?,
            }),
            1 => Vec::get(buf).map(AccumSnapshot::Set),
            2 => Vec::get(buf).map(AccumSnapshot::Buffer),
            t => Err(DecodeError::BadTag("accumulator", t)),
        }
    }
}

impl Wire for Phase {
    fn put(&self, buf: &mut Vec<u8>) {
        match self {
            Phase::Training { seen } => put_tagged(buf, 0, seen),
            Phase::Detecting => buf.push(1),
        }
    }
    fn get(buf: &mut &[u8]) -> R<Phase> {
        match u8::get(buf)? {
            0 => Ok(Phase::Training {
                seen: Wire::get(buf)?,
            }),
            1 => Ok(Phase::Detecting),
            t => Err(DecodeError::BadTag("phase", t)),
        }
    }
}

impl Wire for RowStatus {
    fn put(&self, buf: &mut Vec<u8>) {
        buf.push(match self {
            RowStatus::Active => 0,
            RowStatus::Paused => 1,
            RowStatus::Removed => 2,
        });
    }
    fn get(buf: &mut &[u8]) -> R<RowStatus> {
        match u8::get(buf)? {
            0 => Ok(RowStatus::Active),
            1 => Ok(RowStatus::Paused),
            2 => Ok(RowStatus::Removed),
            t => Err(DecodeError::BadTag("row status", t)),
        }
    }
}

/// A row's snapshot is present iff the row is live — implied by the
/// status, so it carries no option tag.
impl Wire for CheckpointRow {
    fn put(&self, buf: &mut Vec<u8>) {
        self.status.put(buf);
        self.name.put(buf);
        self.source.put(buf);
        if self.status != RowStatus::Removed {
            let snap = self.snapshot.as_ref();
            snap.expect("live checkpoint rows carry state").put(buf);
        }
    }
    fn get(buf: &mut &[u8]) -> R<CheckpointRow> {
        let status = RowStatus::get(buf)?;
        Ok(CheckpointRow {
            name: Wire::get(buf)?,
            source: Wire::get(buf)?,
            status,
            snapshot: match status {
                RowStatus::Removed => None,
                _ => Some(Wire::get(buf)?),
            },
        })
    }
}

/// `Wire` for plain structs: the fields, in the listed order — the list is
/// the layout (struct literal fields evaluate in source order).
macro_rules! wire_struct {
    ($($ty:ident { $($field:ident),+ })+) => {$(
        impl Wire for $ty {
            fn put(&self, buf: &mut Vec<u8>) {
                $(self.$field.put(buf);)+
            }
            fn get(buf: &mut &[u8]) -> R<$ty> {
                Ok($ty { $($field: Wire::get(buf)?),+ })
            }
        }
    )+};
}

wire_struct! {
    QueryConfig { partial_match_cap, allowed_lateness }
    QuerySnapshot {
        matcher, window, state, invariant, distinct_seen, stats, overflow_reported
    }
    QueryStats { events_seen, events_matched, windows_closed, alerts, late_events }
    MatcherSnapshot { partials, next_seq, emitted, overflowed }
    PartialSnapshot { seq, next, events, bindings, last_ts }
    WindowSnapshot { watermark, open, closed }
    StateSnapshot { open, history, first_window }
    GroupAccumSnapshot { key_vals, accums }
    GroupHistorySnapshot { key_vals, windows }
    InvariantSnapshot { groups }
    InvariantGroupSnapshot { label, vars, phase }
}

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

    /// `sample_checkpoint()` — every variant, NaN, `-0.0`, negative ints —
    /// pinned byte for byte: the fixture is its `encode()` as the version-2
    /// format writes it, and changes only with a `CHECKPOINT_VERSION` bump.
    #[test]
    fn sample_checkpoint_encodes_to_its_golden_bytes() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/sample.saqlckp");
        let golden = fs::read(path).expect("golden checkpoint fixture");
        assert_eq!(sample_checkpoint().encode(), golden);
        assert_eq!(Checkpoint::decode(&golden).unwrap().encode(), golden);
    }

    #[test]
    fn roundtrip_exact() {
        let ckpt = sample_checkpoint();
        let back = Checkpoint::decode(&ckpt.encode()).unwrap();
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
            !dir.join("checkpoint.saqlckp.tmp").exists(),
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
                Checkpoint::decode(&data[..cut]).is_err(),
                "prefix of {cut} bytes must not decode"
            );
        }
        // Bad magic.
        let mut raw = data.to_vec();
        raw[0] = b'X';
        assert!(Checkpoint::decode(&raw).is_err());
        // Unknown versions, the retired version 1 among them.
        for version in [1, 99] {
            let mut raw = data.to_vec();
            raw[8] = version;
            let err = Checkpoint::decode(&raw).unwrap_err();
            let expected = format!("version {version} (this build reads 2)");
            assert!(err.to_string().contains(&expected), "{err}");
        }
        // Trailing garbage.
        let mut raw = data.to_vec();
        raw.push(0);
        assert!(Checkpoint::decode(&raw).is_err());
    }

    /// The byte after the config varints used to carry the exec mode (0
    /// compiled, 1 interpreted). It is reserved-zero now: what this build
    /// writes (0) decodes and resumes; a checkpoint written under the
    /// removed interpreted mode is refused, by name, before
    /// `Engine::resume_from` could recompile it under different semantics.
    #[test]
    fn removed_exec_mode_is_refused_by_name() {
        let ckpt = sample_checkpoint();
        let mut head = Vec::new();
        ckpt.offset.put(&mut head);
        ckpt.frontier.put(&mut head);
        ckpt.config.put(&mut head);
        let at = CHECKPOINT_MAGIC.len() + 1 + head.len();
        let mut raw = ckpt.encode();
        assert_eq!(raw[at], 0, "reserved byte");
        raw[at] = 1;
        let err = Checkpoint::decode(&raw).unwrap_err();
        assert!(matches!(err, EngineError::Checkpoint(_)), "{err:?}");
        assert!(err.to_string().contains("interpreted mode"), "{err}");
    }

    #[test]
    fn zigzag_and_float_bit_exactness() {
        let mut buf = Vec::new();
        for v in [0i64, -1, 1, i64::MIN, i64::MAX, -123_456] {
            buf.clear();
            v.put(&mut buf);
            let mut data = &buf[..];
            assert_eq!(i64::get(&mut data).unwrap(), v);
        }
        for v in [0.0f64, -0.0, f64::NAN, f64::INFINITY, 1.0e-300, -2.5] {
            buf.clear();
            v.put(&mut buf);
            let mut data = &buf[..];
            assert_eq!(f64::get(&mut data).unwrap().to_bits(), v.to_bits());
        }
    }
}
