//! Graph workloads and verifiers for the distributed coloring experiments.
//!
//! The paper's theorems hold for *every* graph of maximum degree `Δ`; the
//! reproduction exercises them on synthetic families with controlled `n` and
//! `Δ` ([`generators`]) and machine-checks the postconditions of every run
//! ([`verify`]):
//!
//! * proper colorings (no monochromatic edge),
//! * `d`-defective colorings (every node has at most `d` same-colored
//!   neighbours),
//! * `β`-outdegree colorings (monochromatic edges oriented with outdegree ≤ β),
//! * partitions into low-degree induced subgraphs (Theorem 1.1 (2)),
//! * independent sets and `(2, r)`-ruling sets.
//!
//! [`coloring`] holds the output types shared by the algorithm crates,
//! [`stats`] provides the degree statistics the experiment tables report,
//! and [`streaming`] builds
//! [`ShardedTopology`](dcme_congest::ShardedTopology) graphs from replayable
//! edge streams without ever materializing a global edge list (the
//! `n ≥ 10^7` path).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod coloring;
pub mod generators;
pub mod stats;
pub mod streaming;
pub mod subgraph;
pub mod verify;

pub use coloring::{Coloring, OrientedColoring, PartitionedColoring};
pub use generators::GraphFamily;
pub use stats::GraphStats;
pub use subgraph::InducedSubgraph;
