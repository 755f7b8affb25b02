//! The continuous-time dynamic graph store.
//!
//! [`DynamicGraph`] keeps the chronological event log plus a per-node,
//! time-sorted adjacency index so that the paper's temporal-neighbourhood
//! queries — `N_i^t` (neighbours before `t`, Definition 1) and `T_i^t`
//! (event times involving `i` before `t`, §IV-A) — cost one binary search
//! plus a contiguous slice scan.

use crate::event::{FieldId, Interaction, LabelEvent, NodeId, Timestamp};

/// One entry of a node's temporal adjacency list.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NeighborEntry {
    /// The neighbour node.
    pub neighbor: NodeId,
    /// Interaction time.
    pub t: Timestamp,
    /// Edge id (chronological event index).
    pub edge: usize,
}

/// An immutable continuous-time dynamic graph.
///
/// Construct with [`crate::builder::DynamicGraphBuilder`]. Events are stored
/// in chronological order; every node has a time-sorted adjacency list
/// containing both directions of each interaction (the paper's
/// neighbourhood `N_i^t` is direction-agnostic).
#[derive(Debug, Clone)]
pub struct DynamicGraph {
    pub(crate) num_nodes: usize,
    pub(crate) events: Vec<Interaction>,
    pub(crate) labels: Vec<LabelEvent>,
    /// adjacency[i] sorted ascending by time.
    pub(crate) adjacency: Vec<Vec<NeighborEntry>>,
}

impl DynamicGraph {
    /// An event-less graph over a fixed node universe — the seed of the
    /// streaming-ingestion path. Unlike
    /// [`DynamicGraphBuilder`](crate::builder::DynamicGraphBuilder) (which
    /// rejects empty logs because batch pipelines have nothing to train
    /// on), a server legitimately starts with zero events and grows by
    /// [`DynamicGraph::push_event`].
    pub fn empty(num_nodes: usize) -> Self {
        Self {
            num_nodes,
            events: Vec::new(),
            labels: Vec::new(),
            adjacency: vec![Vec::new(); num_nodes],
        }
    }

    /// Appends one interaction at the chronological tail, keeping the
    /// per-node adjacency index sorted. Returns the new event's edge id.
    ///
    /// Validation mirrors the builder (node range, finite time) plus the
    /// streaming invariant: `t` must be `>=` the latest stored event time
    /// (equal times are allowed, preserving arrival order, the same
    /// tie-break the batch builder uses).
    pub fn push_event(
        &mut self,
        src: NodeId,
        dst: NodeId,
        t: Timestamp,
        field: FieldId,
    ) -> Result<usize, crate::builder::GraphError> {
        self.validate_event(src, dst, t)?;
        let idx = self.events.len();
        self.events.push(Interaction {
            src,
            dst,
            t,
            field,
            idx,
        });
        self.adjacency[src as usize].push(NeighborEntry {
            neighbor: dst,
            t,
            edge: idx,
        });
        self.adjacency[dst as usize].push(NeighborEntry {
            neighbor: src,
            t,
            edge: idx,
        });
        Ok(idx)
    }

    /// Appends one dynamic node-state label at the chronological tail of
    /// the label list, with the builder's node-range check plus a finite,
    /// non-decreasing time (the order the builder sorts labels into).
    pub fn push_label(
        &mut self,
        node: NodeId,
        t: Timestamp,
        label: bool,
    ) -> Result<(), crate::builder::GraphError> {
        use crate::builder::GraphError;
        if node as usize >= self.num_nodes {
            return Err(GraphError::NodeOutOfRange {
                node,
                num_nodes: self.num_nodes,
            });
        }
        if !t.is_finite() {
            return Err(GraphError::NonFiniteTime);
        }
        if self.labels.last().is_some_and(|last| t < last.t) {
            return Err(GraphError::OutOfOrder);
        }
        self.labels.push(LabelEvent { node, t, label });
        Ok(())
    }

    /// Checks whether `push_event` would accept `(src, dst, t)` without
    /// mutating anything — the same node-range, finite-time, and
    /// chronological checks, in the same order. The serving engine calls
    /// this *before* appending the event to its write-ahead log, so a
    /// durably logged event can never be rejected on replay.
    pub fn validate_event(
        &self,
        src: NodeId,
        dst: NodeId,
        t: Timestamp,
    ) -> Result<(), crate::builder::GraphError> {
        use crate::builder::GraphError;
        for node in [src, dst] {
            if node as usize >= self.num_nodes {
                return Err(GraphError::NodeOutOfRange {
                    node,
                    num_nodes: self.num_nodes,
                });
            }
        }
        if !t.is_finite() {
            return Err(GraphError::NonFiniteTime);
        }
        if let Some(last) = self.events.last() {
            if t < last.t {
                return Err(GraphError::OutOfOrder);
            }
        }
        Ok(())
    }

    /// Size of the node id universe (not all ids need appear in events; a
    /// field-split subgraph keeps the parent universe so ids stay stable
    /// across transfer stages).
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Number of interaction events.
    pub fn num_events(&self) -> usize {
        self.events.len()
    }

    /// All events in chronological order.
    pub fn events(&self) -> &[Interaction] {
        &self.events
    }

    /// Dynamic node-state labels, in chronological order.
    pub fn labels(&self) -> &[LabelEvent] {
        &self.labels
    }

    /// The event with chronological index `idx`.
    pub fn event(&self, idx: usize) -> &Interaction {
        &self.events[idx]
    }

    /// Earliest event time (None for empty graphs).
    pub fn t_min(&self) -> Option<Timestamp> {
        self.events.first().map(|e| e.t)
    }

    /// Latest event time (None for empty graphs).
    pub fn t_max(&self) -> Option<Timestamp> {
        self.events.last().map(|e| e.t)
    }

    /// Full time-sorted adjacency of `node` (all times).
    pub fn neighbors_all(&self, node: NodeId) -> &[NeighborEntry] {
        &self.adjacency[node as usize]
    }

    /// The paper's `N_i^t`: neighbours of `node` with interaction time
    /// strictly before `t`, oldest first.
    pub fn neighbors_before(&self, node: NodeId, t: Timestamp) -> &[NeighborEntry] {
        let adj = &self.adjacency[node as usize];
        let cut = adj.partition_point(|e| e.t < t);
        &adj[..cut]
    }

    /// The `n` most recent neighbours of `node` strictly before `t`,
    /// *most recent first* — the selection used by the ε-DFS sampler
    /// (paper Eq. 5) and by TGN-style attention over recent neighbours.
    /// Borrows from the adjacency list; nothing is allocated.
    pub fn recent_neighbors(
        &self,
        node: NodeId,
        t: Timestamp,
        n: usize,
    ) -> impl Iterator<Item = &NeighborEntry> + '_ {
        self.neighbors_before(node, t).iter().rev().take(n)
    }

    /// Temporal degree of `node` before `t`.
    pub fn degree_before(&self, node: NodeId, t: Timestamp) -> usize {
        self.neighbors_before(node, t).len()
    }

    /// True when `node` participates in at least one event.
    pub fn is_active(&self, node: NodeId) -> bool {
        !self.adjacency[node as usize].is_empty()
    }

    /// Ids of all nodes that appear in at least one event.
    pub fn active_nodes(&self) -> Vec<NodeId> {
        (0..self.num_nodes as NodeId)
            .filter(|&n| self.is_active(n))
            .collect()
    }

    /// Distinct field tags present in the event log.
    pub fn fields(&self) -> Vec<FieldId> {
        let mut f: Vec<FieldId> = self.events.iter().map(|e| e.field).collect();
        f.sort_unstable();
        f.dedup();
        f
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::DynamicGraphBuilder;

    fn sample_graph() -> DynamicGraph {
        // Events: (0,1,@1) (0,2,@2) (1,2,@3) (0,1,@4)
        let mut b = DynamicGraphBuilder::new(3);
        b.add_interaction(0, 1, 1.0, 0);
        b.add_interaction(0, 2, 2.0, 0);
        b.add_interaction(1, 2, 3.0, 1);
        b.add_interaction(0, 1, 4.0, 1);
        b.build().unwrap()
    }

    #[test]
    fn neighbors_before_is_strict_and_sorted() {
        let g = sample_graph();
        let n = g.neighbors_before(0, 2.0);
        assert_eq!(n.len(), 1, "only the t=1 event is strictly before t=2");
        assert_eq!(n[0].neighbor, 1);

        let n = g.neighbors_before(0, 100.0);
        assert_eq!(n.len(), 3);
        assert!(n.windows(2).all(|w| w[0].t <= w[1].t));
    }

    #[test]
    fn adjacency_is_bidirectional() {
        let g = sample_graph();
        // Node 2 is dst in (0,2) and (1,2) → neighbours {0,1}.
        let n = g.neighbors_before(2, 10.0);
        let mut ids: Vec<NodeId> = n.iter().map(|e| e.neighbor).collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![0, 1]);
    }

    #[test]
    fn recent_neighbors_most_recent_first() {
        let g = sample_graph();
        let r: Vec<Timestamp> = g.recent_neighbors(0, 10.0, 2).map(|e| e.t).collect();
        assert_eq!(r, vec![4.0, 2.0]);
    }

    #[test]
    fn recent_neighbors_handles_fewer_than_requested() {
        let g = sample_graph();
        assert_eq!(g.recent_neighbors(1, 2.0, 5).count(), 1);
    }

    #[test]
    fn degree_and_activity() {
        let g = sample_graph();
        assert_eq!(g.degree_before(0, 3.5), 2);
        assert!(g.is_active(2));
        assert_eq!(g.active_nodes(), vec![0, 1, 2]);
    }

    #[test]
    fn fields_deduplicated_sorted() {
        let g = sample_graph();
        assert_eq!(g.fields(), vec![0, 1]);
    }

    #[test]
    fn empty_graph_grows_by_chronological_appends() {
        use crate::builder::GraphError;
        let mut g = DynamicGraph::empty(3);
        assert_eq!(g.num_events(), 0);
        assert_eq!(g.t_min(), None);
        assert!(g.active_nodes().is_empty());

        assert_eq!(g.push_event(0, 1, 1.0, 0).unwrap(), 0);
        assert_eq!(g.push_event(1, 2, 2.0, 0).unwrap(), 1);
        assert_eq!(
            g.push_event(0, 2, 2.0, 1).unwrap(),
            2,
            "equal times allowed"
        );
        assert_eq!(g.num_events(), 3);
        assert_eq!(g.t_max(), Some(2.0));
        // Adjacency stays time-sorted and bidirectional.
        assert_eq!(g.neighbors_before(2, 10.0).len(), 2);
        let r = g.recent_neighbors(0, 10.0, 5).next().unwrap();
        assert_eq!(r.t, 2.0, "most recent first");

        // Streaming invariants: monotone time, valid ids, finite stamps.
        assert_eq!(
            g.push_event(0, 1, 1.5, 0).unwrap_err(),
            GraphError::OutOfOrder
        );
        assert_eq!(
            g.push_event(0, 7, 3.0, 0).unwrap_err(),
            GraphError::NodeOutOfRange {
                node: 7,
                num_nodes: 3
            }
        );
        assert_eq!(
            g.push_event(0, 1, f64::NAN, 0).unwrap_err(),
            GraphError::NonFiniteTime
        );
        assert_eq!(
            g.num_events(),
            3,
            "rejected appends leave the log untouched"
        );
    }

    #[test]
    fn validate_event_mirrors_push_event_without_mutating() {
        use crate::builder::GraphError;
        let mut g = DynamicGraph::empty(3);
        g.push_event(0, 1, 2.0, 0).unwrap();
        // Accepts what push_event would accept...
        assert!(g.validate_event(1, 2, 2.0).is_ok());
        assert!(g.validate_event(0, 2, 5.0).is_ok());
        // ...rejects what it would reject, with the same errors...
        assert_eq!(
            g.validate_event(0, 3, 3.0).unwrap_err(),
            GraphError::NodeOutOfRange {
                node: 3,
                num_nodes: 3
            }
        );
        assert_eq!(
            g.validate_event(0, 1, f64::INFINITY).unwrap_err(),
            GraphError::NonFiniteTime
        );
        assert_eq!(
            g.validate_event(0, 1, 1.0).unwrap_err(),
            GraphError::OutOfOrder
        );
        // ...and never mutates.
        assert_eq!(g.num_events(), 1);
        assert!(
            g.validate_event(1, 2, 2.0).is_ok(),
            "validation is repeatable"
        );
    }

    #[test]
    fn push_label_keeps_labels_valid_and_in_time_order() {
        use crate::builder::GraphError;
        let mut g = DynamicGraph::empty(2);
        g.push_label(1, 2.0, true).unwrap();
        g.push_label(0, 2.0, false).unwrap();
        assert_eq!(
            g.push_label(2, 3.0, true).unwrap_err(),
            GraphError::NodeOutOfRange {
                node: 2,
                num_nodes: 2
            }
        );
        assert_eq!(
            g.push_label(0, f64::NAN, true).unwrap_err(),
            GraphError::NonFiniteTime
        );
        assert_eq!(
            g.push_label(0, 1.0, true).unwrap_err(),
            GraphError::OutOfOrder
        );
        let kept: Vec<_> = g.labels().iter().map(|l| (l.node, l.label)).collect();
        assert_eq!(kept, vec![(1, true), (0, false)]);
    }

    #[test]
    fn appended_graph_matches_batch_built_graph() {
        // The streaming path and the batch builder must agree exactly on
        // the resulting structure (events, ids, adjacency).
        let triples = [(0, 1, 1.0), (0, 2, 2.0), (1, 2, 3.0), (0, 1, 4.0)];
        let batch = crate::builder::graph_from_triples(3, &triples).unwrap();
        let mut streamed = DynamicGraph::empty(3);
        for &(s, d, t) in &triples {
            streamed.push_event(s, d, t, 0).unwrap();
        }
        assert_eq!(streamed.events(), batch.events());
        for n in 0..3 {
            assert_eq!(
                streamed.neighbors_all(n),
                batch.neighbors_all(n),
                "node {n}"
            );
        }
    }

    #[test]
    fn t_bounds() {
        let g = sample_graph();
        assert_eq!(g.t_min(), Some(1.0));
        assert_eq!(g.t_max(), Some(4.0));
    }
}
