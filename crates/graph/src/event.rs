//! Core event types for continuous-time dynamic graphs (CTDG).
//!
//! Following Definition 1 of the paper, a dynamic graph is a chronological
//! list of interaction events `(i, j, t)`. Events additionally carry the
//! *field* of the interaction (the Amazon/Gowalla product or venue category)
//! because the paper's field-transfer experiments split on it.

/// Node identifier. Users and items share one id space (items are offset),
/// which is what lets pre-trained memory states flow into downstream tasks.
pub type NodeId = u32;

/// Event timestamp. Any monotone unit works; the synthetic generators emit
/// seconds-like floats.
pub type Timestamp = f64;

/// Field (category) tag used by field-transfer splits; `0` when a dataset
/// has no field structure.
pub type FieldId = u16;

/// One interaction event `(src, dst, t)` in field `field`.
///
/// `idx` is the event's position in the graph's chronological order and is
/// assigned by the graph builder; it doubles as a stable edge id.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Interaction {
    /// Source node (user in bipartite datasets).
    pub src: NodeId,
    /// Destination node (item in bipartite datasets).
    pub dst: NodeId,
    /// Event time.
    pub t: Timestamp,
    /// Field tag.
    pub field: FieldId,
    /// Chronological index / edge id within the owning graph.
    pub idx: usize,
}

/// A dynamic node-state label `(node, t, label)` — e.g. "user banned at t"
/// in Wikipedia/Reddit or "student dropped out at t" in MOOC.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LabelEvent {
    /// The labelled node.
    pub node: NodeId,
    /// When the state was observed.
    pub t: Timestamp,
    /// The binary state.
    pub label: bool,
}
