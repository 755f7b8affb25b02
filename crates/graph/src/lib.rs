//! # cpdg-graph
//!
//! Continuous-time dynamic graph (CTDG) substrate for the CPDG
//! reproduction: the event-log graph store, whose per-node time-sorted
//! adjacency is the one temporal-neighbourhood structure every sampler,
//! the encoder and the serving engine read, JODIE-format CSV loading, synthetic workload generators that
//! stand in for the paper's datasets, the three transfer-setting splitters,
//! and dataset statistics.
//!
//! ```
//! use cpdg_graph::builder::graph_from_triples;
//!
//! let g = graph_from_triples(3, &[(0, 1, 1.0), (1, 2, 2.0), (0, 2, 3.0)]).unwrap();
//! assert_eq!(g.neighbors_before(1, 2.5).len(), 2);
//! assert_eq!(g.recent_neighbors(1, 2.5, 1).next().unwrap().neighbor, 2);
//! ```

#![warn(missing_docs)]
#![warn(clippy::disallowed_macros)]

pub mod builder;
pub mod ctdg;
pub mod event;
pub mod loader;
pub mod split;
pub mod stats;
pub mod synthetic;

pub use builder::{graph_from_triples, DynamicGraphBuilder, GraphError};
pub use ctdg::{DynamicGraph, NeighborEntry};
pub use event::{FieldId, Interaction, LabelEvent, NodeId, Timestamp};
pub use split::{SplitError, TransferSplit};
pub use stats::GraphStats;
pub use synthetic::{generate, SyntheticConfig, SyntheticDataset};
