//! # sonet-netsim
//!
//! A discrete-event, packet-level simulator of the datacenter plant built
//! by [`sonet_topology`]. This is the substrate standing in for the
//! production network the paper measured (see DESIGN.md §1 for the
//! substitution argument): workload models open TCP-like connections and
//! exchange request/response messages; the engine segments them into
//! packets, walks each packet across its ECMP route, charges serialization
//! and queueing on every link, applies shared-buffer admission at switches,
//! and feeds packet observers (the telemetry crate's port mirrors and
//! Fbflow samplers) exactly the header stream a real tap would see.
//!
//! ## Transport model
//!
//! Deliberately simplified TCP (§3.3 of the paper analyzes headers, not
//! congestion dynamics):
//!
//! * handshake: SYN / SYN-ACK, then the connection is open (the final ACK
//!   is folded into the first data segment, as with piggybacked ACKs);
//! * MSS segmentation of application messages; a fixed per-direction
//!   sending window provides ACK clocking and bounds in-flight data;
//! * delayed ACKs (one per two data segments, plus an immediate ACK at a
//!   message boundary);
//! * go-back-N retransmission on a coarse timer so that traces survive
//!   buffer-overflow drops without deadlocking.
//!
//! What is *not* modeled — congestion-window evolution, SACK, ECN — does
//! not alter any quantity the paper reports: packet sizes, arrival
//! processes, flow sizes/durations, locality, and µs-scale buffer
//! occupancy are all dominated by application behaviour at the observed
//! <10 % utilizations.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod conn;
pub mod engine;
pub mod faults;
pub mod packet;
pub mod tap;

pub use config::{BufferConfig, SimConfig};
pub use engine::{
    AuditReport, AuditViolation, BufferWindowStat, EngineCheckpoint, FidelityConfig, FidelityMode,
    LinkCounters, LiveCounters, ParallelStats, SimError, SimOutputs, Simulator, CHECKPOINT_VERSION,
};
pub use faults::{FaultEvent, FaultKind, FaultPlan, MAX_FLAP_CYCLES};
pub use packet::{ConnId, Dir, FlowKey, Packet, PacketKind};
pub use tap::{NullTap, PacketTap};
