//! Transfer-setting splitters (paper §V-C).
//!
//! The paper evaluates pre-training under three transfer settings: Time,
//! Field and Time+Field. [`time_transfer`] builds the first on a whole
//! stream; the experiment harness (`cpdg_bench::datasets::transfer`)
//! builds all three per field from [`subgraph_where`] and [`time_cut`].
//!
//! All splits preserve the parent graph's node-id universe, so a node keeps
//! its identity (and its pre-trained memory state) across stages — the
//! property the Evolution-Information-Enhanced fine-tuning relies on
//! (Definition 2 of the paper).

use crate::builder::DynamicGraphBuilder;
use crate::builder::GraphError;
use crate::ctdg::DynamicGraph;
use crate::event::{Interaction, Timestamp};

/// Invalid fraction sets passed to [`chrono_boundaries`].
#[derive(Debug, Clone, PartialEq)]
pub enum SplitError {
    /// The fraction slice was empty.
    Empty,
    /// A fraction was negative, NaN, or infinite.
    BadFraction(f64),
    /// The fractions sum past 1 (beyond float tolerance), which would
    /// produce overlapping partitions.
    SumExceedsOne(f64),
}

impl std::fmt::Display for SplitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SplitError::Empty => write!(f, "need at least one split fraction"),
            SplitError::BadFraction(v) => {
                write!(f, "split fraction {v} is not a finite non-negative number")
            }
            SplitError::SumExceedsOne(s) => {
                write!(f, "split fractions sum to {s}, which exceeds 1")
            }
        }
    }
}

impl std::error::Error for SplitError {}

/// A pre-train / downstream pair.
#[derive(Debug, Clone)]
pub struct TransferSplit {
    /// Events for self-supervised pre-training.
    pub pretrain: DynamicGraph,
    /// Events for downstream fine-tuning and evaluation.
    pub downstream: DynamicGraph,
}

/// Builds a subgraph containing the events selected by `keep`, preserving
/// the node universe. Labels are retained when their time falls within the
/// retained events' span (inclusive).
pub fn subgraph_where(
    graph: &DynamicGraph,
    keep: impl Fn(&Interaction) -> bool,
) -> Result<DynamicGraph, GraphError> {
    let mut b = DynamicGraphBuilder::new(graph.num_nodes());
    let mut t_lo = f64::INFINITY;
    let mut t_hi = f64::NEG_INFINITY;
    for e in graph.events() {
        if keep(e) {
            b.add_interaction(e.src, e.dst, e.t, e.field);
            t_lo = t_lo.min(e.t);
            t_hi = t_hi.max(e.t);
        }
    }
    for l in graph.labels() {
        if l.t >= t_lo && l.t <= t_hi {
            b.add_label(l.node, l.t, l.label);
        }
    }
    b.build()
}

/// The event time below which `frac` of events fall (chronological
/// quantile). `frac` is clamped to `(0, 1)`.
pub fn time_cut(graph: &DynamicGraph, frac: f64) -> Timestamp {
    let n = graph.num_events();
    let idx = ((n as f64 * frac.clamp(0.0, 1.0)) as usize).clamp(1, n - 1);
    graph.events()[idx].t
}

/// Time transfer: first `frac` of events pre-train, the rest downstream.
pub fn time_transfer(graph: &DynamicGraph, frac: f64) -> Result<TransferSplit, GraphError> {
    let cut = time_cut(graph, frac);
    Ok(TransferSplit {
        pretrain: subgraph_where(graph, |e| e.t < cut)?,
        downstream: subgraph_where(graph, |e| e.t >= cut)?,
    })
}

/// Tolerance for fraction sums: `[0.7, 0.15, 1.0 - 0.7 - 0.15]` can sum a
/// few ULPs past 1.0 in f64 and must still be accepted.
const FRAC_SUM_TOLERANCE: f64 = 1e-9;

/// Chronological boundaries for an in-graph split: given fractions summing
/// to ≤ 1 (e.g. `[0.7, 0.15, 0.15]` for train/val/test), returns the event
/// indices where each part ends. The last boundary is always `num_events`.
///
/// # Errors
/// [`SplitError`] when `fracs` is empty, contains a negative or non-finite
/// value, or sums past 1 — any of which would silently produce empty or
/// overlapping partitions.
pub fn chrono_boundaries(graph: &DynamicGraph, fracs: &[f64]) -> Result<Vec<usize>, SplitError> {
    if fracs.is_empty() {
        return Err(SplitError::Empty);
    }
    let mut sum = 0.0;
    for &f in fracs {
        if !f.is_finite() || f < 0.0 {
            return Err(SplitError::BadFraction(f));
        }
        sum += f;
    }
    if sum > 1.0 + FRAC_SUM_TOLERANCE {
        return Err(SplitError::SumExceedsOne(sum));
    }
    let n = graph.num_events();
    let mut acc = 0.0;
    let mut out: Vec<usize> = fracs
        .iter()
        .map(|f| {
            acc += f;
            ((n as f64 * acc) as usize).min(n)
        })
        .collect();
    *out.last_mut().expect("non-empty") = n;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::DynamicGraphBuilder;

    fn fielded_graph() -> DynamicGraph {
        let mut b = DynamicGraphBuilder::new(6);
        // Field 0 early, field 1 late, interleaved a bit.
        b.add_interaction(0, 3, 1.0, 0);
        b.add_interaction(1, 4, 2.0, 1);
        b.add_interaction(0, 4, 3.0, 0);
        b.add_interaction(2, 5, 4.0, 1);
        b.add_interaction(1, 3, 5.0, 0);
        b.add_interaction(2, 3, 6.0, 1);
        b.add_label(0, 1.5, false);
        b.add_label(2, 5.5, true);
        b.build().unwrap()
    }

    #[test]
    fn time_transfer_partitions_chronologically() {
        let g = fielded_graph();
        let split = time_transfer(&g, 0.5).unwrap();
        assert_eq!(
            split.pretrain.num_events() + split.downstream.num_events(),
            6
        );
        let pre_max = split.pretrain.t_max().unwrap();
        let down_min = split.downstream.t_min().unwrap();
        assert!(pre_max < down_min);
    }

    #[test]
    fn time_transfer_preserves_node_universe() {
        let g = fielded_graph();
        let split = time_transfer(&g, 0.5).unwrap();
        assert_eq!(split.pretrain.num_nodes(), 6);
        assert_eq!(split.downstream.num_nodes(), 6);
    }

    #[test]
    fn labels_follow_their_time_span() {
        let g = fielded_graph();
        let split = time_transfer(&g, 0.5).unwrap();
        // Label at t=1.5 goes to pretrain, t=5.5 to downstream.
        assert_eq!(split.pretrain.labels().len(), 1);
        assert!(!split.pretrain.labels()[0].label);
        assert_eq!(split.downstream.labels().len(), 1);
        assert!(split.downstream.labels()[0].label);
    }

    #[test]
    fn empty_side_is_an_error() {
        let g = fielded_graph();
        assert!(subgraph_where(&g, |e| e.field == 9).is_err());
    }

    #[test]
    fn chrono_boundaries_cover_all_events() {
        let g = fielded_graph();
        let b = chrono_boundaries(&g, &[0.6, 0.2, 0.1, 0.1]).unwrap();
        assert_eq!(b.len(), 4);
        assert_eq!(*b.last().unwrap(), 6);
        assert!(b.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn chrono_boundaries_rejects_bad_fraction_sets() {
        let g = fielded_graph();
        assert_eq!(chrono_boundaries(&g, &[]).unwrap_err(), SplitError::Empty);
        assert!(matches!(
            chrono_boundaries(&g, &[0.5, f64::NAN]),
            Err(SplitError::BadFraction(_))
        ));
        assert!(matches!(
            chrono_boundaries(&g, &[0.5, f64::INFINITY]),
            Err(SplitError::BadFraction(_))
        ));
        assert!(matches!(
            chrono_boundaries(&g, &[0.9, -0.1]),
            Err(SplitError::BadFraction(v)) if v < 0.0
        ));
        match chrono_boundaries(&g, &[0.7, 0.3, 0.3]) {
            Err(SplitError::SumExceedsOne(s)) => assert!((s - 1.3).abs() < 1e-12),
            other => panic!("expected SumExceedsOne, got {other:?}"),
        }
    }

    #[test]
    fn chrono_boundaries_tolerates_float_dust_at_one() {
        let g = fielded_graph();
        // 1.0 - 0.7 - 0.15 lands a few ULPs above 0.15; the trio must
        // still count as summing to 1.
        let fracs = [0.7, 0.15, 1.0 - 0.7 - 0.15];
        let b = chrono_boundaries(&g, &fracs).unwrap();
        assert_eq!(*b.last().unwrap(), 6);
        // Sums under 1 are fine (the remainder is simply unassigned).
        assert!(chrono_boundaries(&g, &[0.5, 0.2]).is_ok());
        // A single full fraction is the identity split.
        assert_eq!(chrono_boundaries(&g, &[1.0]).unwrap(), vec![6]);
    }

    #[test]
    fn subgraph_where_reindexes_edges() {
        let g = fielded_graph();
        let sub = subgraph_where(&g, |e| e.field == 1).unwrap();
        let idxs: Vec<usize> = sub.events().iter().map(|e| e.idx).collect();
        assert_eq!(idxs, vec![0, 1, 2], "edge ids are re-assigned densely");
    }
}
