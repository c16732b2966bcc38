//! Workload generation for network experiments.
//!
//! Provides the inputs every evaluation needs, all deterministic under a
//! seed:
//!
//! * [`patterns`] — destination selection per source (uniform random,
//!   bit-complement, bit-reversal, transpose, hotspot) over the HHC
//!   address space;
//! * [`faults`] — random distinct fault sets avoiding protected nodes;
//! * [`sampling`] — random node/pair sampling over the HHC address
//!   space, shared by experiments, benches and stress tests.

pub mod faults;
pub mod patterns;
pub mod sampling;
pub mod space;

pub use faults::{adversarial_fault_set, random_fault_set};
pub use patterns::Pattern;
pub use space::AddressSpace;
