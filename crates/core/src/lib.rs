#![warn(missing_docs)]

//! Structure-aware placement for datapath-intensive circuit designs.
//!
//! This is the top-level crate of the `sdplace` workspace: it combines the
//! substrates (netlist, generator, extractor, analytical placer,
//! legalizer, router, metrics) into the flow the reproduced DAC 2012 paper
//! describes:
//!
//! 1. **Extract** datapath structure from the flat netlist
//!    (`sdp-extract`);
//! 2. **Globally place** with the NTUplace3-style analytical engine
//!    (`sdp-gp`) *plus an alignment objective* ([`align::AlignTerm`]) that
//!    pulls every extracted `bits × stages` group into a regular array —
//!    bit rows on uniformly-pitched row lines, stage columns on shared
//!    x coordinates — with a per-group orientation choice revisited each
//!    outer iteration (the analogue of the group's macro "rotation
//!    force");
//! 3. **Legalize structure-first** ([`flow`]): each group's bit rows are
//!    snapped to placement rows as contiguous spans, then the remaining
//!    cells legalize around them (Tetris), and detailed placement refines
//!    the sea of cells while the arrays stay rigid.
//!
//! Running the same flow with structure-awareness off yields exactly the
//! baseline placer the paper compares against, so every table's two
//! columns come from one code path.
//!
//! # Examples
//!
//! ```
//! use sdp_core::{StructurePlacer, FlowConfig};
//! use sdp_dpgen::{generate, GenConfig};
//!
//! let d = generate(&GenConfig::named("dp_tiny", 1).unwrap());
//! let placer = StructurePlacer::new(FlowConfig::fast());
//! let out = placer.place(&d.netlist, &d.design, &d.placement);
//! assert!(out.legal_violations == 0);
//! assert!(out.report.hpwl.total > 0.0);
//! ```

pub mod align;
pub mod flow;

pub use align::{AlignConfig, AlignTerm};
pub use flow::{
    FlowConfig, FlowMode, FlowOutput, FlowReport, LegalizerKind, PhaseTimes, StructurePlacer,
    MAX_DP_NET_WEIGHT, MAX_REFINE_OUTERS,
};
// Re-exported so downstream crates (serve, bench) can name every type
// that appears in `FlowConfig`, and the flow constants its canonical form
// records — the serve crate canonicalizes the full resolved config for
// content-address hashing — without depending on `sdp-gp`/`sdp-extract`
// directly.
pub use sdp_extract::{ExtractConfig, MAX_NET_DEGREE, MIN_BITS, MIN_COVERAGE, MIN_STAGES};
pub use sdp_gp::{GpConfig, WirelengthModel, LAMBDA_FACTOR, MAX_THREADS};
pub use sdp_progress::{
    CancelToken, Cancelled, Clock, ManualClock, MonotonicClock, NullSink, Observer, Phase,
    ProgressSink, TokenSink,
};
pub use sdp_route::RouteReport;
