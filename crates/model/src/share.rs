//! Shared strings for decoded events.
//!
//! A monitoring feed draws its strings from a small vocabulary — host ids,
//! executable names, users, hot paths. The JSON and binary event decoders
//! take each string field's `Arc<str>` from [`share`], a per-thread,
//! direct-mapped table of recently decoded strings: a hit clones the
//! resident `Arc`, a miss allocates the string and replaces the slot's
//! entry. Strings longer than [`MAX_LEN`] bypass the table.
//!
//! The table is bounded whatever the input: one allocation of
//! `SLOTS × 16 B` = 64 KiB, plus at most `SLOTS` resident strings of at most
//! [`MAX_LEN`] bytes each. Input whose strings never repeat misses on every
//! lookup and evicts as it goes, so memory stays flat; strings crafted to
//! collide cost the same misses, never more work. The table is
//! thread-local, so the decoders keep their signatures, and a decode thread
//! frees what it evicts itself instead of leaving every free to the thread
//! that drops the event.

use std::cell::RefCell;
use std::sync::Arc;

const SLOT_BITS: u32 = 12;
/// Slots in one thread's table.
const SLOTS: usize = 1 << SLOT_BITS;
/// Longest string the table keeps, in bytes.
const MAX_LEN: usize = 64;

thread_local! {
    static TABLE: RefCell<Box<[Option<Arc<str>>]>> =
        RefCell::new(vec![None; SLOTS].into_boxed_slice());
}

/// `s` as an `Arc<str>`, shared with the last equal string this thread
/// decoded into the same slot.
pub(crate) fn share(s: &str) -> Arc<str> {
    if s.len() > MAX_LEN {
        return Arc::from(s);
    }
    // `try_with` fails only while the thread's locals are being torn down.
    TABLE
        .try_with(|table| {
            let slot = &mut table.borrow_mut()[slot_of(s.as_bytes())];
            match slot {
                Some(hit) if **hit == *s => hit.clone(),
                _ => slot.insert(Arc::from(s)).clone(),
            }
        })
        .unwrap_or_else(|_| Arc::from(s))
}

/// A word-at-a-time multiplicative hash, top bits kept.
fn slot_of(bytes: &[u8]) -> usize {
    const K: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut h = bytes.len() as u64;
    let mut words = bytes.chunks_exact(8);
    for word in &mut words {
        let word = word.try_into().expect("chunks_exact yields 8 bytes");
        h = (h ^ u64::from_le_bytes(word)).wrapping_mul(K);
    }
    let mut tail = [0u8; 8];
    tail[..words.remainder().len()].copy_from_slice(words.remainder());
    h = (h ^ u64::from_le_bytes(tail)).wrapping_mul(K);
    h = (h ^ (h >> 29)).wrapping_mul(K);
    (h >> (64 - SLOT_BITS)) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{decode_event, encode_event};
    use crate::entity::{Entity, FileInfo, NetworkInfo, ProcessInfo};
    use crate::event::{Event, EventBuilder};
    use crate::json::{decode_event_json, encode_event_json};

    fn samples() -> [Event; 3] {
        let subject = ProcessInfo::new(400, "outlook.exe", "victim");
        let child = EventBuilder::new(1, "client-3", 4_000)
            .subject(subject.clone())
            .starts_process(ProcessInfo::new(401, "excel.exe", "victim"))
            .build();
        let file = EventBuilder::new(2, "client-3", 5_000)
            .subject(subject.clone())
            .writes_file(FileInfo::new("C:/Users/victim/inv.xlsm"))
            .build();
        let net = EventBuilder::new(3, "client-3", 6_000)
            .subject(subject)
            .sends(NetworkInfo::new(
                "10.0.0.3",
                49_152,
                "172.16.9.9",
                443,
                "tcp",
            ))
            .build();
        [child, file, net]
    }

    /// Every string of `e`, in a fixed order.
    fn strings(e: &Event) -> Vec<Arc<str>> {
        let mut out = vec![
            e.agent_id.clone(),
            e.subject.exe_name.clone(),
            e.subject.user.clone(),
        ];
        match &e.object {
            Entity::Process(p) => out.extend([p.exe_name.clone(), p.user.clone()]),
            Entity::File(f) => out.push(f.name.clone()),
            Entity::Network(n) => {
                out.extend([n.src_ip.clone(), n.dst_ip.clone(), n.protocol.clone()])
            }
        }
        out
    }

    fn assert_shared(first: &Event, second: &Event) {
        assert_eq!(first, second);
        for (a, b) in strings(first).iter().zip(&strings(second)) {
            assert!(Arc::ptr_eq(a, b), "`{a}` is not shared");
        }
    }

    #[test]
    fn json_decoding_shares_every_string_field() {
        for e in samples() {
            let mut line = String::new();
            encode_event_json(&mut line, &e);
            let first = decode_event_json(&line).unwrap();
            assert_shared(&first, &decode_event_json(&line).unwrap());
        }
    }

    #[test]
    fn codec_decoding_shares_every_string_field() {
        for e in samples() {
            let mut buf = Vec::new();
            encode_event(&mut buf, &e);
            let first = decode_event(&mut &buf[..]).unwrap();
            assert_shared(&first, &decode_event(&mut &buf[..]).unwrap());
        }
    }

    #[test]
    fn escapes_and_long_strings_decode_to_the_same_content() {
        let long = "x".repeat(MAX_LEN + 1);
        let line = format!(
            r#"{{"id":1,"host":"a\\b","ts_ms":2,"subject":{{"pid":3,"exe":"\u00e9\ud83d\ude00","user":"{long}"}},"op":"read","object":{{"kind":"file","name":"{long}"}}}}"#
        );
        let first = decode_event_json(&line).unwrap();
        let second = decode_event_json(&line).unwrap();
        assert_eq!(&*first.agent_id, "a\\b");
        assert_eq!(&*first.subject.exe_name, "\u{e9}\u{1f600}");
        assert!(Arc::ptr_eq(&first.agent_id, &second.agent_id));
        assert!(Arc::ptr_eq(
            &first.subject.exe_name,
            &second.subject.exe_name
        ));
        assert_eq!(first.subject.user.as_ref(), long);
        assert!(!Arc::ptr_eq(&first.subject.user, &second.subject.user));
        assert_eq!(first.object, Entity::File(FileInfo::new(long.as_str())));
    }

    #[test]
    fn a_slot_collision_returns_the_string_asked_for() {
        let resident = "host-001";
        let slot = slot_of(resident.as_bytes());
        let rival = (0..)
            .map(|i| format!("host-{i}"))
            .find(|s| s != resident && slot_of(s.as_bytes()) == slot)
            .unwrap();
        let first = share(resident);
        assert!(Arc::ptr_eq(&first, &share(resident)));
        let evictor = share(&rival);
        assert_eq!(&*evictor, rival);
        let again = share(resident);
        assert_eq!(&*again, resident);
        assert!(!Arc::ptr_eq(&again, &first), "a fresh copy after eviction");
        assert!(Arc::ptr_eq(&again, &share(resident)));
    }
}
