//! Resolved attribute identifiers and borrowed attribute access.
//!
//! [`crate::Event::attr`] and [`crate::Entity::attr`] resolve attribute
//! *names* per call: a string match against every spelling, and a cloned
//! [`AttrValue`] even when the caller only wants to compare. On the
//! per-event hot path of a stream engine both costs are pure waste — the
//! set of attribute names is fixed at deployment time.
//!
//! This module is the deploy-time half of the fix:
//!
//! * [`AttrId`] — a dense identifier for every attribute the data model
//!   exposes, resolved **once** when a query is compiled;
//! * [`AttrTable`] — the name → id resolution table (one spelling → id map
//!   per namespace);
//! * [`AttrRef`] — a borrowed view of an attribute value
//!   (`attr_ref(&self, AttrId) -> Option<AttrRef<'_>>` on events and
//!   entities), so constraint checks compare in place without cloning.
//!
//! Owned values are still available where they are genuinely needed (group
//! keys, alert rows) through `attr_value(AttrId)`, which clones only the
//! shared `Arc<str>` handle, never string bytes.

use std::cmp::Ordering;
use std::collections::HashMap;
use std::sync::OnceLock;

use crate::attr::AttrValue;

/// A resolved attribute identifier.
///
/// Ids are namespaced by what they can be asked of: event-level ids resolve
/// against [`crate::Event`], entity-level ids against the matching
/// [`crate::Entity`] variant (asking a file for `Pid` yields `None`, the
/// same as asking it for an unknown name).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum AttrId {
    // --- event-level (`evt.amount`, `evt.agentid`, ...) ---
    /// Data amount in bytes (`amount`).
    Amount,
    /// Producing host (`agentid` / `agent_id` / `host`).
    AgentId,
    /// Event time in ms (`ts` / `time` / `starttime`).
    Ts,
    /// Operation keyword (`op` / `operation`).
    Op,
    /// Collection-time event id (`id`).
    EventId,
    // --- process entities ---
    /// OS process id (`pid`).
    Pid,
    /// Executable name (`exe_name` / `name` on processes).
    ExeName,
    /// Account the process runs as (`user`).
    User,
    // --- file entities ---
    /// File path (`name` / `path` on files).
    FileName,
    // --- network entities ---
    /// Source ip (`srcip` / `src_ip`).
    SrcIp,
    /// Source port (`srcport` / `src_port`).
    SrcPort,
    /// Destination ip (`dstip` / `dst_ip`).
    DstIp,
    /// Destination port (`dstport` / `dst_port`).
    DstPort,
    /// Transport protocol (`protocol` / `proto`).
    Protocol,
}

impl AttrId {
    /// Canonical spelling, as the explain output prints it.
    pub fn name(&self) -> &'static str {
        match self {
            AttrId::Amount => "amount",
            AttrId::AgentId => "agentid",
            AttrId::Ts => "ts",
            AttrId::Op => "op",
            AttrId::EventId => "id",
            AttrId::Pid => "pid",
            AttrId::ExeName => "exe_name",
            AttrId::User => "user",
            AttrId::FileName => "name",
            AttrId::SrcIp => "srcip",
            AttrId::SrcPort => "srcport",
            AttrId::DstIp => "dstip",
            AttrId::DstPort => "dstport",
            AttrId::Protocol => "protocol",
        }
    }
}

/// The namespace an attribute name is resolved in. Names overlap across
/// namespaces (`name` is `exe_name` on a process but the path on a file),
/// so resolution is always `(namespace, name) → id`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AttrNs {
    /// Event-level attributes (`evt.amount`, global constraints).
    Event,
    Process,
    File,
    Network,
}

impl AttrNs {
    /// The namespace of an entity type.
    pub fn of_entity(etype: crate::entity::EntityType) -> AttrNs {
        match etype {
            crate::entity::EntityType::Process => AttrNs::Process,
            crate::entity::EntityType::File => AttrNs::File,
            crate::entity::EntityType::Network => AttrNs::Network,
        }
    }
}

/// Every accepted spelling, with its namespace and id — the single source
/// of truth the table is built from (mirrors the legacy string matchers in
/// `event.rs` / `entity.rs`).
const SPELLINGS: &[(AttrNs, &str, AttrId)] = &[
    (AttrNs::Event, "amount", AttrId::Amount),
    (AttrNs::Event, "agentid", AttrId::AgentId),
    (AttrNs::Event, "agent_id", AttrId::AgentId),
    (AttrNs::Event, "host", AttrId::AgentId),
    (AttrNs::Event, "ts", AttrId::Ts),
    (AttrNs::Event, "time", AttrId::Ts),
    (AttrNs::Event, "starttime", AttrId::Ts),
    (AttrNs::Event, "op", AttrId::Op),
    (AttrNs::Event, "operation", AttrId::Op),
    (AttrNs::Event, "id", AttrId::EventId),
    (AttrNs::Process, "pid", AttrId::Pid),
    (AttrNs::Process, "exe_name", AttrId::ExeName),
    (AttrNs::Process, "name", AttrId::ExeName),
    (AttrNs::Process, "user", AttrId::User),
    (AttrNs::File, "name", AttrId::FileName),
    (AttrNs::File, "path", AttrId::FileName),
    (AttrNs::Network, "srcip", AttrId::SrcIp),
    (AttrNs::Network, "src_ip", AttrId::SrcIp),
    (AttrNs::Network, "srcport", AttrId::SrcPort),
    (AttrNs::Network, "src_port", AttrId::SrcPort),
    (AttrNs::Network, "dstip", AttrId::DstIp),
    (AttrNs::Network, "dst_ip", AttrId::DstIp),
    (AttrNs::Network, "dstport", AttrId::DstPort),
    (AttrNs::Network, "dst_port", AttrId::DstPort),
    (AttrNs::Network, "protocol", AttrId::Protocol),
    (AttrNs::Network, "proto", AttrId::Protocol),
];

/// The deploy-time name → [`AttrId`] resolution table: one
/// spelling → id map per namespace, built from the accepted spellings.
/// Resolving a name is one hash lookup, and it happens only at
/// query-compile time; the per-event path deals exclusively in ids.
#[derive(Debug)]
pub struct AttrTable {
    /// Indexed by [`AttrTable::column`].
    columns: [HashMap<&'static str, AttrId>; 4],
}

impl AttrTable {
    fn column(ns: AttrNs) -> usize {
        match ns {
            AttrNs::Event => 0,
            AttrNs::Process => 1,
            AttrNs::File => 2,
            AttrNs::Network => 3,
        }
    }

    /// Build the table from every accepted spelling.
    pub fn new() -> AttrTable {
        let mut columns: [HashMap<&'static str, AttrId>; 4] = Default::default();
        for &(ns, spelling, id) in SPELLINGS {
            columns[Self::column(ns)].insert(spelling, id);
        }
        AttrTable { columns }
    }

    /// The process-wide table. Resolution state is immutable after
    /// construction, so one shared instance serves every deployment.
    pub fn global() -> &'static AttrTable {
        static TABLE: OnceLock<AttrTable> = OnceLock::new();
        TABLE.get_or_init(AttrTable::new)
    }

    /// Resolve a name in a namespace. `None` for unknown names — the
    /// compiled counterpart of the legacy string matchers returning `None`.
    pub fn resolve(&self, ns: AttrNs, name: &str) -> Option<AttrId> {
        self.columns[Self::column(ns)].get(name).copied()
    }
}

impl Default for AttrTable {
    fn default() -> Self {
        AttrTable::new()
    }
}

/// A borrowed attribute value: what [`crate::Event::attr_ref`] and
/// [`crate::Entity::attr_ref`] hand out. Comparisons against owned
/// [`AttrValue`]s (the constants baked into compiled predicates) follow the
/// same loose SAQL semantics, without cloning anything.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AttrRef<'a> {
    Int(i64),
    Float(f64),
    Str(&'a str),
    Bool(bool),
}

impl<'a> AttrRef<'a> {
    /// Numeric view (see [`AttrValue::as_f64`]).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            AttrRef::Int(i) => Some(*i as f64),
            AttrRef::Float(f) => Some(*f),
            AttrRef::Bool(b) => Some(if *b { 1.0 } else { 0.0 }),
            AttrRef::Str(_) => None,
        }
    }

    /// String view (strings only).
    pub fn as_str(&self) -> Option<&'a str> {
        match self {
            AttrRef::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Loose SAQL equality against an owned value (see
    /// [`AttrValue::loose_eq`]).
    pub fn loose_eq(&self, other: &AttrValue) -> bool {
        match (self, other) {
            (AttrRef::Str(a), AttrValue::Str(b)) => *a == b.as_ref(),
            (AttrRef::Bool(a), AttrValue::Bool(b)) => a == b,
            _ => match (self.as_f64(), other.as_f64()) {
                (Some(a), Some(b)) => a == b,
                _ => false,
            },
        }
    }

    /// Loose SAQL ordering against an owned value (see
    /// [`AttrValue::loose_cmp`]).
    pub fn loose_cmp(&self, other: &AttrValue) -> Option<Ordering> {
        match (self, other) {
            (AttrRef::Str(a), AttrValue::Str(b)) => Some(a.cmp(&b.as_ref())),
            _ => {
                let (a, b) = (self.as_f64()?, other.as_f64()?);
                a.partial_cmp(&b)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entity::EntityType;

    #[test]
    fn resolves_every_spelling() {
        let t = AttrTable::global();
        for &(ns, spelling, id) in SPELLINGS {
            assert_eq!(t.resolve(ns, spelling), Some(id), "{ns:?} {spelling}");
        }
    }

    #[test]
    fn namespaces_disambiguate_name() {
        let t = AttrTable::global();
        assert_eq!(t.resolve(AttrNs::Process, "name"), Some(AttrId::ExeName));
        assert_eq!(t.resolve(AttrNs::File, "name"), Some(AttrId::FileName));
        assert_eq!(t.resolve(AttrNs::Network, "name"), None);
        assert_eq!(t.resolve(AttrNs::Event, "pid"), None);
    }

    #[test]
    fn unknown_names_resolve_to_none() {
        let t = AttrTable::global();
        assert_eq!(t.resolve(AttrNs::Event, "bogus"), None);
        assert_eq!(t.resolve(AttrNs::Network, ""), None);
    }

    #[test]
    fn entity_namespace_mapping() {
        assert_eq!(AttrNs::of_entity(EntityType::Process), AttrNs::Process);
        assert_eq!(AttrNs::of_entity(EntityType::File), AttrNs::File);
        assert_eq!(AttrNs::of_entity(EntityType::Network), AttrNs::Network);
    }

    #[test]
    fn borrowed_loose_eq_matches_owned_semantics() {
        assert!(AttrRef::Int(3).loose_eq(&AttrValue::Float(3.0)));
        assert!(!AttrRef::Str("3").loose_eq(&AttrValue::Int(3)));
        assert!(AttrRef::Str("cmd.exe").loose_eq(&AttrValue::str("cmd.exe")));
        assert!(AttrRef::Bool(true).loose_eq(&AttrValue::Bool(true)));
        assert!(!AttrRef::Bool(true).loose_eq(&AttrValue::Bool(false)));
    }

    #[test]
    fn borrowed_loose_cmp_matches_owned_semantics() {
        use std::cmp::Ordering::*;
        assert_eq!(
            AttrRef::Int(1).loose_cmp(&AttrValue::Float(2.0)),
            Some(Less)
        );
        assert_eq!(
            AttrRef::Str("b").loose_cmp(&AttrValue::str("a")),
            Some(Greater)
        );
        assert_eq!(AttrRef::Str("a").loose_cmp(&AttrValue::Int(1)), None);
    }
}
