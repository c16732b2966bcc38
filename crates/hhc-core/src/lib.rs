//! # hhc-core — hierarchical hypercube networks and node-disjoint paths
//!
//! This crate implements the contribution of *"Node-disjoint paths in
//! hierarchical hypercube networks"* (IPPS/IPDPS 2006): a constructive,
//! symbolic algorithm that produces `m + 1` internally vertex-disjoint
//! paths between any two distinct nodes of the hierarchical hypercube
//! `HHC(m)` — matching the network's connectivity `m + 1`, with an explicit
//! worst-case length bound — plus everything needed to validate it
//! (topology, routing, verification, wide-diameter tooling).
//!
//! ## The network
//!
//! `HHC(m)` (Malluhi & Bayoumi, IEEE TPDS 1994) has `n = 2^m + m` address
//! bits and `2^n` nodes. A node `(X, Y)` carries an `m`-bit *node field*
//! `Y` locating it inside an `m`-dimensional *son-cube*, and a `2^m`-bit
//! *cube field* `X` identifying the son-cube. Each node has `m` internal
//! edges (flip one bit of `Y`) and exactly one external edge (flip bit
//! number `int(Y)` of `X`), so the degree is `m + 1`: the HHC keeps the
//! hypercube's recursive routing structure while growing the node count
//! doubly exponentially in `m` at constant-ish degree.
//!
//! ## Layout
//!
//! * [`topology`] — the [`Hhc`] network type: addressing, adjacency,
//!   materialisation for cross-validation;
//! * [`routing`] — single shortest-ish path routing (Gray-ordered
//!   crossings), the unicast substrate;
//! * [`disjoint`] — **the paper's construction**: `m + 1` node-disjoint
//!   paths via rotation/detour crossing plans and son-cube fans;
//! * [`bounds`] — the provable worst-case length bound and derived
//!   wide-diameter bound;
//! * [`verify`] — an independent checker used by every test and
//!   experiment (nothing in this crate is trusted unverified);
//! * [`wide`] — empirical wide-diameter search over node pairs;
//! * [`collectives`] — one-port broadcast schedules (extension feature);
//! * [`service`] — the concurrent routing service: a [`Router`] worker
//!   pool over one shared, lock-striped family cache (the L2) with a
//!   live fault feed.
//!
//! ## Example
//!
//! ```
//! use hhc_core::{Hhc, CrossingOrder};
//!
//! let net = Hhc::new(3).unwrap();          // m = 3 ⇒ n = 11, 2048 nodes
//! let u = net.node(0x00, 0b000).unwrap();
//! let v = net.node(0xA5, 0b110).unwrap();
//! let paths = net.disjoint_paths(u, v).unwrap();
//! assert_eq!(paths.len(), 4);              // m + 1
//! hhc_core::verify::verify_disjoint_paths(&net, u, v, &paths).unwrap();
//! let bound = hhc_core::bounds::length_bound(&net, u, v);
//! assert!(paths.iter().all(|p| (p.len() - 1) as u32 <= bound));
//! # let _ = CrossingOrder::Gray;
//! ```

pub mod batch;
pub mod bounds;
pub mod collectives;
pub mod disjoint;
pub mod error;
pub mod fault;
pub mod metrics;
pub mod node;
pub mod pathset;
pub mod routing;
pub mod service;
pub mod topology;
pub mod verify;
pub mod wide;

pub use batch::{construct_many, construct_many_serial, Workspace};
pub use disjoint::family_cache::{
    CacheConfig, L2Config, SharedFamilyCache, DEFAULT_FAMILY_CACHE_CAPACITY,
};
pub use disjoint::{
    disjoint_paths_avoiding, disjoint_paths_avoiding_into, disjoint_paths_into, AvoidOutcome,
    CrossingOrder, PathBuilder,
};
pub use error::HhcError;
pub use fault::{FaultOracle, FaultSet};
pub use metrics::{ConstructionMetrics, MetricsReport};
pub use node::NodeId;
pub use pathset::PathSet;
pub use service::{FamilyRef, QueryBatchResult, Router, RouterConfig};
pub use topology::Hhc;

/// A path through the network as the sequence of visited nodes,
/// endpoints inclusive.
pub type Path = Vec<NodeId>;
