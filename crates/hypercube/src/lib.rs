//! Symbolic hypercube (`Q_n`) algorithms.
//!
//! The hierarchical hypercube construction in `hhc-core` leans on four
//! classical hypercube facts, all implemented here *symbolically* (node
//! labels are `u128` bit vectors; the `2^n`-node graph is never built):
//!
//! 1. **Routing** ([`routing`]): the e-cube shortest path between `u` and
//!    `v` has length `H(u, v)` (Hamming distance).
//! 2. **One-to-one disjoint paths** ([`paths`]): between any two distinct
//!    nodes there are `n` internally vertex-disjoint paths — `H(u,v)` of
//!    length `H(u,v)` (cyclic rotations of the differing dimensions) and
//!    `n − H(u,v)` of length `H(u,v) + 2` (detours through a clean
//!    dimension). This is the Saad–Schultz construction and the template
//!    the HHC-level construction generalises.
//! 3. **Disjoint fans** ([`fan`]): from a node `s` to any `k ≤ n` distinct
//!    targets there is a fan of `k` paths, disjoint except at `s`
//!    (Menger's fan lemma). Computed exactly by unit max-flow on the
//!    vertex-split cube, with node sets as words — son-cubes have at most
//!    `2^m ≤ 64` nodes, so a BFS level is a few word operations.
//! 4. **Gray codes** ([`gray`]): the reflected Gray sequence is a
//!    Hamiltonian cycle of `Q_m`; ordering external crossings along it is
//!    what keeps HHC disjoint paths short (ablation F5).

pub mod cube;
pub mod fan;
pub mod gray;
pub mod paths;
pub mod routing;

pub use cube::{Cube, CubeError, Node};
pub use fan::{fan_paths, fan_paths_into, FanMetrics, FanScratch};
pub use paths::disjoint_paths;
pub use routing::shortest_path;
