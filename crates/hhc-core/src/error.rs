//! Error type shared across the crate.

use crate::node::NodeId;

/// Errors raised by HHC construction, addressing and path algorithms.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HhcError {
    /// `m` outside the supported range `1..=6` (node labels pack into a
    /// `u128`: `n = 2^m + m ≤ 70` bits).
    BadParameter(u32),
    /// Cube field has bits above `2^m`.
    CubeFieldOutOfRange(u128),
    /// Node field has bits above `m`.
    NodeFieldOutOfRange(u32),
    /// A node label does not belong to this network.
    NodeOutOfRange(NodeId),
    /// Operation requires two distinct nodes.
    EqualNodes,
    /// A fault-avoiding query named a faulty node as an endpoint — no
    /// fault-free path can start or end there.
    FaultyEndpoint(NodeId),
    /// Materialisation requested above the explicit-graph guard (`m ≤ 4`).
    TooLargeToMaterialize(u32),
    /// The operation is valid in principle but not supported at this
    /// parameter scale (e.g. an exhaustive sweep over a network too large
    /// to enumerate). The message names the operation and its limit.
    Unsupported(String),
    /// A [`Router`](crate::Router) worker panicked while answering the
    /// batch this query belonged to, before it reached this query. The
    /// worker goes on serving with fresh scratch.
    WorkerPanicked,
}

impl std::fmt::Display for HhcError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HhcError::BadParameter(m) => write!(f, "HHC parameter m={m} not in 1..=6"),
            HhcError::CubeFieldOutOfRange(x) => write!(f, "cube field {x:#x} out of range"),
            HhcError::NodeFieldOutOfRange(y) => write!(f, "node field {y:#x} out of range"),
            HhcError::NodeOutOfRange(v) => write!(f, "node {v:?} outside this network"),
            HhcError::EqualNodes => write!(f, "operation requires distinct nodes"),
            HhcError::FaultyEndpoint(v) => write!(f, "endpoint {v:?} is itself faulty"),
            HhcError::TooLargeToMaterialize(m) => {
                write!(f, "refusing to materialise HHC(m={m}) (> 2^20 nodes)")
            }
            HhcError::Unsupported(what) => write!(f, "unsupported: {what}"),
            HhcError::WorkerPanicked => write!(f, "a router worker panicked before this query"),
        }
    }
}

impl std::error::Error for HhcError {}
