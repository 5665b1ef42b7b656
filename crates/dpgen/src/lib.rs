#![warn(missing_docs)]

//! Synthetic datapath-intensive benchmark generator for `sdplace`.
//!
//! The paper this workspace reproduces was evaluated on datapath-heavy
//! industrial benchmarks that are not publicly available. This crate is the
//! documented substitution: it generates flat gate-level netlists containing
//! the canonical datapath blocks the paper's introduction motivates —
//! ripple-carry and carry-select **adders**, array **multipliers**, barrel
//! **shifters**, **register files**, wide **multiplexers**, and pipelined
//! **ALUs** — embedded in random control/glue logic, with a configurable
//! datapath fraction.
//!
//! Crucially, every generated design carries **ground-truth structure
//! labels** ([`GroundTruth`]): the exact `bits × stages` matrix of every
//! datapath block. This lets the evaluation measure extraction
//! precision/recall exactly, something the original paper could only
//! estimate by inspection.
//!
//! # Examples
//!
//! ```
//! use sdp_dpgen::{GenConfig, generate};
//!
//! let design = generate(&GenConfig::named("dp_tiny", 7).unwrap());
//! assert!(design.netlist.num_cells() > 100);
//! assert!(!design.truth.groups.is_empty());
//! ```

mod blocks;
mod circuit;
mod config;
mod glue;
mod ground_truth;
mod suite;
pub mod test_support;

pub use circuit::{Gate, GateId, GateKind, WireCircuit, WireId};
pub use config::{BlockSpec, GenConfig};
pub use ground_truth::GroundTruth;
pub use suite::{generate, suite_names, GeneratedDesign};
