//! # hhc-suite
//!
//! Umbrella crate for the reproduction of *"Node-disjoint paths in
//! hierarchical hypercube networks"* (IPPS/IPDPS 2006). It re-exports the
//! member crates so the examples and integration tests can use a single
//! dependency, and so downstream users get one obvious entry point.
//!
//! * [`hhc`] (`hhc-core`) — the paper's contribution: the hierarchical
//!   hypercube topology and the construction of `m+1` node-disjoint paths
//!   between any two nodes;
//! * [`hypercube`] — symbolic `Q_n` algorithms (routing, disjoint paths,
//!   fans, Gray codes) the construction builds upon;
//! * [`graphs`] — explicit-graph ground truth (BFS, Dinic max-flow,
//!   Menger-optimal disjoint path baseline);
//! * [`netsim`] — discrete-event store-and-forward simulator used by the
//!   routing experiments;
//! * [`workloads`] — traffic patterns, fault sets and pair sampling.
//!
//! ## Quickstart
//!
//! ```
//! use hhc_suite::hhc::{Hhc, NodeId};
//!
//! let net = Hhc::new(3).unwrap();             // m = 3, n = 11, 2^11 nodes
//! let u = net.node(0b101, 0b010).unwrap();    // (cube field X, node field Y)
//! let v = net.node(0b11011010, 0b111).unwrap();
//! let paths = net.disjoint_paths(u, v).unwrap();
//! assert_eq!(paths.len(), 4);                 // m + 1 internally disjoint paths
//! hhc_suite::hhc::verify::verify_disjoint_paths(&net, u, v, &paths).unwrap();
//! # let _ : NodeId = u;
//! ```

pub use graphs;
pub use hhc_core as hhc;
pub use hypercube;
pub use netsim;
pub use workloads;
