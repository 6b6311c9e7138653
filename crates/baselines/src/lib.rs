//! Baseline coloring algorithms the paper subsumes or is compared against.
//!
//! * [`greedy`] — the sequential greedy `(Δ+1)`-coloring (the color-count
//!   reference point; zero communication rounds, but inherently sequential).
//! * [`locally_iterative`] — the folklore locally-iterative reduction that
//!   maintains a proper coloring each round and lets local color maxima
//!   recolor into `[Δ+1]`; the self-stabilising style of algorithm that
//!   \[BEG18\] accelerates and that the paper's `k = 1` setting generalises.
//! * [`kuhn_wattenhofer`] — the classical iterated color-space halving
//!   \[KW06\]-style reduction (`O(Δ log(m/Δ))` rounds), built from per-block
//!   class elimination.
//! * [`luby`] — the randomized trial baseline: every uncolored node samples a
//!   random free color from `[Δ+1]` and keeps it if no neighbour picked the
//!   same; `O(log n)` rounds with high probability.
//!
//! plus the **randomized comparison-baseline subsystem** — the modern
//! randomized machinery the source paper positions itself against, running
//! on the same engine, transports and bandwidth accounting:
//!
//! * [`bitset`] — word-at-a-time [`bitset::ColorSet`] palettes: the
//!   blocked/seen-color bookkeeping of every hot path below, as popcount
//!   word scans instead of hashing;
//! * [`rand_primitives`] — shared machinery: stateless per-`(seed, node,
//!   round)` PRNG streams (executor- and transport-independent), the
//!   TryColor core, uniform free-color sampling, palette-sparsified
//!   candidate batches, slack accounting and almost-clique-style bucketing;
//! * [`ultrafast`] — the \[HNT21\] *Ultrafast Distributed Coloring of High
//!   Degree Graphs* structure (arXiv:2105.04700): slack generation →
//!   synchronized color trials → deterministic fallback for low-slack
//!   nodes;
//! * [`degree_plus_one`] — the \[HKNT22\] *Near-Optimal Distributed
//!   Degree+1 Coloring* list baseline (arXiv:2112.00604): every node's
//!   palette is its own `deg(v)+1` colors.
//!
//! These exist so the experiments can report "who wins by what factor": the
//! paper's deterministic pipeline vs. the classical deterministic baselines
//! vs. the randomized folklore vs. the modern randomized state of the art.
//! The randomized algorithms are ordinary [`dcme_congest::NodeAlgorithm`]s
//! with bit-exact [`dcme_congest::WireMessage`] encodings, so they run
//! unchanged on the sequential and sharded executors and over the socket
//! transports — bit-for-bit, for a fixed seed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bitset;
pub mod degree_plus_one;
pub mod greedy;
pub mod kw;
pub mod locally_iterative;
pub mod luby;
pub mod rand_primitives;
pub mod ultrafast;

pub use degree_plus_one::degree_plus_one_coloring;
pub use greedy::greedy_coloring;
pub use kw::kuhn_wattenhofer;
pub use locally_iterative::locally_iterative_reduction;
pub use luby::luby_coloring;
pub use ultrafast::ultrafast_coloring;
