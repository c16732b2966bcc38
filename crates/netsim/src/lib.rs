//! Slotted store-and-forward network simulator for HHC experiments.
//!
//! A deliberately simple, deterministic discrete-event model — one event
//! class (link transmission), fixed unit timestep — which is exactly what
//! the routing experiments need:
//!
//! * every **directed link** transmits at most one packet per cycle;
//! * each link has an unbounded FIFO output queue (open-loop injection,
//!   saturation shows up as unbounded queue growth / latency);
//! * packets are **source-routed**: a [`strategy::Strategy`] picks the
//!   full path at injection (single path, random one of the `m + 1`
//!   disjoint paths, or fault-adaptive);
//! * faulty nodes never carry traffic; packets that cannot be routed are
//!   counted as drops.
//!
//! [`fault`] additionally provides the *static* (queue-free) delivery
//! analysis used by experiment F3, where only connectivity matters.
//! [`scenario`] layers declarative TOML scenarios — spec, compile, run,
//! golden-trace record/replay, delta-debug shrinking — on top of
//! [`sim::Simulator`].

#![warn(missing_docs)]

pub mod fault;
pub mod faults;
pub mod flat;
pub mod net;
pub mod packet;
pub mod scenario;
pub mod sim;
pub mod stats;
pub mod strategy;

pub use faults::{FaultAction, FaultEvent, FaultFlags, FaultLookup, FaultSet};
pub use flat::{EngineConfig, Fidelity, LinkStoreMode, RouteArena};
pub use hhc_core::CacheConfig;
pub use net::{CubeNet, LinkTable, Network, RouteScratch};
pub use sim::{DeliveryRecord, SimConfig, SimError, Simulator, Switching};
pub use stats::{CycleSample, SimStats};
pub use strategy::Strategy;
