//! The node-side context a protocol sees.

/// Immutable facts a node knows at the start of a protocol — exactly the
/// model's initial knowledge, nothing more.
/// The paper's non-uniform algorithms also receive `n` (or an upper bound).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeContext {
    /// The node's index in the graph (executor-internal addressing).
    pub node: usize,
    /// The node's unique `Θ(log n)`-bit identifier.
    pub id: u64,
    /// The node's degree (ports are `0..degree`).
    pub degree: usize,
    /// The number of nodes `n` given as input (non-uniform algorithms).
    pub n: usize,
}
