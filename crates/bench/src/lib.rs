#![warn(missing_docs)]

//! The experiment harness: one function per table/figure of the
//! reconstructed evaluation (see `DESIGN.md` §4), plus the `serve-soak`
//! stream through the result cache.
//!
//! Every experiment returns an [`ExperimentResult`] — a rendered ASCII
//! table plus the *expected shape* the reconstructed paper evaluation
//! predicts — so the `tables` binary and `EXPERIMENTS.md` stay in sync.
//! All seeds are pinned; rerunning regenerates identical numbers.
//!
//! Performance has one harness, the crate's `benchmark` binary; the
//! `perf_gate` binary holds its output against the committed
//! `BENCH_flow.txt`.

pub mod experiments;

pub use experiments::{all_ids, run_experiment, ExperimentResult, Mode};
