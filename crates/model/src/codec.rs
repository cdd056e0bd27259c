//! Compact binary codec for events.
//!
//! The stream replayer (paper Fig. 4) stores collected events in a local
//! store and replays them later as a stream. This codec defines the on-disk
//! record format: little-endian fixed-width integers, length-prefixed UTF-8
//! strings, and a one-byte tag per enum. A varint encoding is used for the
//! fields that are almost always small (pid, ports, amount, string lengths),
//! which keeps typical records around 60–90 bytes.
//!
//! The format is versioned with a leading magic byte so stores written by a
//! future revision fail loudly instead of decoding garbage.

use crate::entity::{Entity, FileInfo, NetworkInfo, ProcessInfo};
use crate::event::{Event, Operation};
use crate::share::share;
use crate::time::Timestamp;

/// Format version tag written before every record.
pub const FORMAT_VERSION: u8 = 1;

/// Errors produced while decoding a stored event record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// Record began with an unknown version byte.
    BadVersion(u8),
    /// Buffer ended in the middle of a record.
    Truncated,
    /// An enum tag byte was out of range.
    BadTag(&'static str, u8),
    /// A string field was not valid UTF-8.
    BadUtf8,
    /// A varint ran past its maximum width, or its 10th byte carried bits
    /// beyond the 64th.
    BadVarint,
    /// A numeric field's value does not fit the field's type.
    OutOfRange(&'static str, u64),
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::BadVersion(v) => write!(f, "unknown record version {v}"),
            DecodeError::Truncated => write!(f, "record truncated"),
            DecodeError::BadTag(what, v) => write!(f, "invalid {what} tag {v}"),
            DecodeError::BadUtf8 => write!(f, "string field is not valid UTF-8"),
            DecodeError::BadVarint => write!(f, "varint too long"),
            DecodeError::OutOfRange(what, v) => write!(f, "{what} {v} out of range"),
        }
    }
}

impl std::error::Error for DecodeError {}

fn put_varint(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

/// The first byte of `buf`, advancing past it: the one raw-byte read
/// (tags, versions) every reader of this wire dialect shares.
pub fn get_u8(buf: &mut &[u8]) -> Result<u8, DecodeError> {
    let (&byte, rest) = buf.split_first().ok_or(DecodeError::Truncated)?;
    *buf = rest;
    Ok(byte)
}

fn get_varint(buf: &mut &[u8]) -> Result<u64, DecodeError> {
    let mut v = 0u64;
    for shift in (0..64).step_by(7) {
        let byte = get_u8(buf)?;
        // The 10th byte holds bit 63 only: anything above would be shifted
        // out silently (`put_varint(u64::MAX)` writes 0x01 here).
        if shift == 63 && byte > 1 {
            return Err(DecodeError::BadVarint);
        }
        v |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
    }
    Err(DecodeError::BadVarint)
}

/// A varint for a field narrower than `u64`, refused rather than truncated
/// when the value does not fit.
fn get_narrow<T: TryFrom<u64>>(buf: &mut &[u8], field: &'static str) -> Result<T, DecodeError> {
    let v = get_varint(buf)?;
    T::try_from(v).map_err(|_| DecodeError::OutOfRange(field, v))
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_varint(buf, s.len() as u64);
    buf.extend_from_slice(s.as_bytes());
}

fn get_str(buf: &mut &[u8]) -> Result<std::sync::Arc<str>, DecodeError> {
    let len = get_varint(buf)? as usize;
    if buf.len() < len {
        return Err(DecodeError::Truncated);
    }
    // Validate in place and share straight from the buffer.
    let (raw, rest) = buf.split_at(len);
    let s = std::str::from_utf8(raw).map_err(|_| DecodeError::BadUtf8)?;
    *buf = rest;
    Ok(share(s))
}

fn op_tag(op: Operation) -> u8 {
    Operation::ALL.iter().position(|&o| o == op).unwrap() as u8
}

fn op_from_tag(tag: u8) -> Result<Operation, DecodeError> {
    Operation::ALL
        .get(tag as usize)
        .copied()
        .ok_or(DecodeError::BadTag("operation", tag))
}

fn put_process(buf: &mut Vec<u8>, p: &ProcessInfo) {
    put_varint(buf, p.pid as u64);
    put_str(buf, &p.exe_name);
    put_str(buf, &p.user);
}

fn get_process(buf: &mut &[u8]) -> Result<ProcessInfo, DecodeError> {
    let pid = get_narrow(buf, "pid")?;
    let exe_name = get_str(buf)?;
    let user = get_str(buf)?;
    Ok(ProcessInfo {
        pid,
        exe_name,
        user,
    })
}

const ENTITY_PROCESS: u8 = 0;
const ENTITY_FILE: u8 = 1;
const ENTITY_NETWORK: u8 = 2;

fn put_entity(buf: &mut Vec<u8>, e: &Entity) {
    match e {
        Entity::Process(p) => {
            buf.push(ENTITY_PROCESS);
            put_process(buf, p);
        }
        Entity::File(f) => {
            buf.push(ENTITY_FILE);
            put_str(buf, &f.name);
        }
        Entity::Network(n) => {
            buf.push(ENTITY_NETWORK);
            put_str(buf, &n.src_ip);
            put_varint(buf, n.src_port as u64);
            put_str(buf, &n.dst_ip);
            put_varint(buf, n.dst_port as u64);
            put_str(buf, &n.protocol);
        }
    }
}

fn get_entity(buf: &mut &[u8]) -> Result<Entity, DecodeError> {
    match get_u8(buf)? {
        ENTITY_PROCESS => Ok(Entity::Process(get_process(buf)?)),
        ENTITY_FILE => Ok(Entity::File(FileInfo {
            name: get_str(buf)?,
        })),
        ENTITY_NETWORK => {
            let src_ip = get_str(buf)?;
            let src_port = get_narrow(buf, "src_port")?;
            let dst_ip = get_str(buf)?;
            let dst_port = get_narrow(buf, "dst_port")?;
            let protocol = get_str(buf)?;
            Ok(Entity::Network(NetworkInfo {
                src_ip,
                src_port,
                dst_ip,
                dst_port,
                protocol,
            }))
        }
        t => Err(DecodeError::BadTag("entity", t)),
    }
}

/// Append one varint-encoded `u64` to `buf` (7-bit little-endian groups,
/// the same encoding every record field uses). Public so higher layers —
/// the engine's checkpoint codec, the durable store's WAL — speak one wire
/// dialect instead of inventing their own.
pub fn put_u64(buf: &mut Vec<u8>, v: u64) {
    put_varint(buf, v);
}

/// Decode one varint `u64` from the front of `buf`, advancing it.
pub fn get_u64(buf: &mut &[u8]) -> Result<u64, DecodeError> {
    get_varint(buf)
}

/// Append one length-prefixed UTF-8 string to `buf`.
pub fn put_string(buf: &mut Vec<u8>, s: &str) {
    put_str(buf, s);
}

/// Decode one length-prefixed string from the front of `buf`.
pub fn get_string(buf: &mut &[u8]) -> Result<std::sync::Arc<str>, DecodeError> {
    get_str(buf)
}

/// Append one encoded entity (tag + payload) to `buf`.
pub fn encode_entity(buf: &mut Vec<u8>, e: &Entity) {
    put_entity(buf, e);
}

/// Decode one entity from the front of `buf`, advancing it.
pub fn decode_entity(buf: &mut &[u8]) -> Result<Entity, DecodeError> {
    get_entity(buf)
}

/// Append one encoded event record to `buf`.
pub fn encode_event(buf: &mut Vec<u8>, e: &Event) {
    buf.push(FORMAT_VERSION);
    put_varint(buf, e.id);
    put_str(buf, &e.agent_id);
    put_varint(buf, e.ts.as_millis());
    put_process(buf, &e.subject);
    buf.push(op_tag(e.op));
    put_entity(buf, &e.object);
    put_varint(buf, e.amount);
}

/// Decode one event record from the front of `buf`, advancing it.
pub fn decode_event(buf: &mut &[u8]) -> Result<Event, DecodeError> {
    let version = get_u8(buf)?;
    if version != FORMAT_VERSION {
        return Err(DecodeError::BadVersion(version));
    }
    let id = get_varint(buf)?;
    let agent_id = get_str(buf)?;
    let ts = Timestamp::from_millis(get_varint(buf)?);
    let subject = get_process(buf)?;
    let op = op_from_tag(get_u8(buf)?)?;
    let object = get_entity(buf)?;
    let amount = get_varint(buf)?;
    Ok(Event {
        id,
        agent_id,
        ts,
        subject,
        op,
        object,
        amount,
    })
}

/// Encode a batch of events into one buffer (records back to back).
pub fn encode_batch(events: &[Event]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(events.len() * 96);
    for e in events {
        encode_event(&mut buf, e);
    }
    buf
}

/// Decode every record in `data`.
pub fn decode_batch(data: impl AsRef<[u8]>) -> Result<Vec<Event>, DecodeError> {
    let mut buf = data.as_ref();
    let mut out = Vec::new();
    while !buf.is_empty() {
        out.push(decode_event(&mut buf)?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventBuilder;

    fn events() -> Vec<Event> {
        vec![
            EventBuilder::new(1, "client-3", 5_000)
                .subject(ProcessInfo::new(400, "outlook.exe", "victim"))
                .starts_process(ProcessInfo::new(401, "excel.exe", "victim"))
                .build(),
            EventBuilder::new(2, "db-server", 9_000)
                .subject(ProcessInfo::new(501, "sqlservr.exe", "svc"))
                .writes_file(FileInfo::new("backup1.dmp"))
                .amount(123_456_789)
                .build(),
            EventBuilder::new(3, "db-server", 9_500)
                .subject(ProcessInfo::new(502, "sbblv.exe", "svc"))
                .sends(NetworkInfo::new(
                    "10.0.0.5",
                    50000,
                    "172.16.0.129",
                    443,
                    "tcp",
                ))
                .amount(1 << 30)
                .build(),
        ]
    }

    #[test]
    fn roundtrip_single() {
        for e in events() {
            let mut buf = Vec::new();
            encode_event(&mut buf, &e);
            let mut data = &buf[..];
            let back = decode_event(&mut data).unwrap();
            assert_eq!(back, e);
            assert!(data.is_empty());
        }
    }

    #[test]
    fn roundtrip_batch() {
        let evts = events();
        let data = encode_batch(&evts);
        assert_eq!(decode_batch(data).unwrap(), evts);
    }

    #[test]
    fn truncated_record_errors() {
        let evts = events();
        let data = encode_batch(&evts[..1]);
        for cut in 1..data.len() - 1 {
            let mut short = &data[..cut];
            assert!(
                decode_event(&mut short).is_err(),
                "cut at {cut} should fail"
            );
        }
    }

    #[test]
    fn bad_version_detected() {
        let mut raw = Vec::new();
        encode_event(&mut raw, &events()[0]);
        raw[0] = 99;
        let mut data = &raw[..];
        assert_eq!(decode_event(&mut data), Err(DecodeError::BadVersion(99)));
    }

    #[test]
    fn bad_operation_tag_detected() {
        let mut raw = Vec::new();
        encode_event(&mut raw, &events()[0]);
        // Operation tag sits right after: version, id varint, agent str,
        // ts varint, subject (pid varint + 2 strings). Find it by decoding a
        // clean prefix: easier to corrupt the last byte of a known-position
        // field; instead rebuild with a direct scan for the op byte.
        // The subject's user string "victim" ends right before the op tag.
        let pos = raw.windows(6).position(|w| w == b"victim").unwrap() + 6;
        raw[pos] = 42;
        let mut data = &raw[..];
        assert_eq!(
            decode_event(&mut data),
            Err(DecodeError::BadTag("operation", 42))
        );
    }

    #[test]
    fn varint_boundaries() {
        let mut buf = Vec::new();
        for v in [0u64, 1, 127, 128, 16_383, 16_384, u32::MAX as u64, u64::MAX] {
            buf.clear();
            put_varint(&mut buf, v);
            let mut data = &buf[..];
            assert_eq!(get_varint(&mut data).unwrap(), v);
        }
    }

    #[test]
    fn varint_tenth_byte_beyond_bit_63_is_refused() {
        let mut raw = vec![0xffu8; 9];
        raw.push(0x02);
        assert_eq!(get_varint(&mut &raw[..]), Err(DecodeError::BadVarint));
        // The 10th byte `put_varint(u64::MAX)` writes stays accepted.
        let mut raw = vec![0xffu8; 9];
        raw.push(0x01);
        assert_eq!(get_varint(&mut &raw[..]), Ok(u64::MAX));
    }

    #[test]
    fn pid_beyond_u32_is_refused() {
        let mut buf = Vec::new();
        put_varint(&mut buf, (1u64 << 32) + 5);
        put_str(&mut buf, "cmd.exe");
        put_str(&mut buf, "u");
        assert_eq!(
            get_process(&mut &buf[..]),
            Err(DecodeError::OutOfRange("pid", (1 << 32) + 5))
        );
    }

    #[test]
    fn port_beyond_u16_is_refused() {
        let mut buf = Vec::new();
        buf.push(ENTITY_NETWORK);
        put_str(&mut buf, "10.0.0.5");
        put_varint(&mut buf, 50_000);
        put_str(&mut buf, "172.16.0.129");
        put_varint(&mut buf, 65_536 + 443);
        put_str(&mut buf, "tcp");
        assert_eq!(
            get_entity(&mut &buf[..]),
            Err(DecodeError::OutOfRange("dst_port", 65_536 + 443))
        );
    }

    #[test]
    fn typical_record_is_compact() {
        let mut buf = Vec::new();
        encode_event(&mut buf, &events()[0]);
        assert!(
            buf.len() < 96,
            "record unexpectedly large: {} bytes",
            buf.len()
        );
    }
}
