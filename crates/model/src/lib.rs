//! # saql-model
//!
//! Data model for the SAQL anomaly query system (Gao et al., ICDE 2020).
//!
//! System monitoring observes kernel-level interactions among *system
//! entities* — processes, files, and network connections — and records them
//! as *system events* in ⟨subject, operation, object⟩ (SVO) form. Each event
//! occurs on a particular host (`agent_id`) at a particular time, exhibiting
//! the strong spatial and temporal properties the SAQL engine exploits.
//!
//! This crate defines:
//! * [`Entity`], [`ProcessInfo`], [`FileInfo`], [`NetworkInfo`] — system entities;
//! * [`Event`] and [`Operation`] — SVO events and their operation kinds;
//! * [`AttrValue`] — dynamically typed attribute values used by the query
//!   engine when evaluating constraints and expressions;
//! * [`glob`] — SQL-`LIKE` style wildcard matching (`%`, `_`) used by entity
//!   attribute patterns such as `proc p["%cmd.exe"]`;
//! * [`time`] — timestamp and duration helpers (`10 min`, `10 s`, …);
//! * [`codec`] — a compact binary codec for events, used by the event store
//!   and the stream replayer.

pub mod attr;
pub mod attr_ref;
pub mod codec;
pub mod entity;
pub mod event;
pub mod glob;
pub mod json;
mod share;
pub mod time;

pub use attr::AttrValue;
pub use attr_ref::{AttrId, AttrNs, AttrRef, AttrTable};
pub use entity::{Entity, EntityType, FileInfo, NetworkInfo, ProcessInfo};
pub use event::{Event, EventId, Operation};
pub use time::{Duration, Timestamp};
