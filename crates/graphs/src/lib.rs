//! Explicit-graph substrate for the HHC suite.
//!
//! The paper's construction is *symbolic* (it never materialises the
//! exponential-size network), but its claims are cross-validated against
//! explicit graphs: BFS gives ground-truth distances and diameters, and a
//! vertex-split Dinic max-flow gives the ground-truth number of internally
//! vertex-disjoint paths between two nodes (Menger's theorem) together with
//! an actual set of such paths, which serves as the baseline the constructive
//! algorithm is compared against (Table T3).
//!
//! Contents:
//! * [`csr`] — compact immutable adjacency (compressed sparse row);
//! * [`bfs`] — breadth-first search, distances, eccentricity, diameter;
//! * [`dinic`] — Dinic's maximum-flow algorithm on integer capacities;
//! * [`vertex_disjoint`] — Menger baseline: max set of internally
//!   vertex-disjoint paths via vertex splitting;
//! * [`fan`] — general one-to-many vertex-disjoint fans (flow-based);
//! * [`many_to_many`] — unpaired many-to-many disjoint path covers;
//! * [`props`] — structural property checks (regularity, bipartiteness,
//!   triangle counts, girth).

pub mod bfs;
pub mod csr;
pub mod dinic;
pub mod fan;
pub mod many_to_many;
pub mod props;
pub mod vertex_disjoint;

pub use bfs::Bfs;
pub use csr::CsrGraph;
pub use dinic::{ArcId, Dinic, DinicStats};
pub use fan::fan_paths;
pub use many_to_many::many_to_many_paths;
pub use vertex_disjoint::{vertex_connectivity_between, vertex_disjoint_paths};
