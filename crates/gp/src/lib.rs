#![warn(missing_docs)]
#![cfg_attr(
    not(test),
    warn(
        clippy::float_cmp,
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss
    )
)]

//! Analytical global placement substrate for `sdplace`.
//!
//! A from-scratch NTUplace3-style nonlinear placer:
//!
//! * smooth **wirelength** models — log-sum-exp (LSE) and weighted-average
//!   (WA) — with analytic gradients ([`wirelength`]);
//! * an NTUplace3 **bell-shaped density** penalty over a uniform bin grid
//!   ([`density`]);
//! * a **preconditioned Nesterov** accelerated-gradient minimizer
//!   (ePlace-style Lipschitz step prediction, per-cell diagonal
//!   preconditioner, restart on objective increase) — the inner solver
//!   ([`nesterov`]);
//! * **first-choice clustering** for a multilevel V-cycle ([`cluster`]);
//! * the **outer placement loop** with λ (density-weight) scheduling
//!   ([`placer`]);
//! * a **deterministic thread pool** ([`exec`]) that evaluates the
//!   wirelength and density kernels in parallel with bitwise-identical
//!   results at any thread count ([`GpConfig::threads`]).
//!
//! The placer is structure-oblivious by itself: it is exactly the baseline
//! the paper compares against. Structure-aware placement (`sdp-core`) plugs
//! its alignment objective in through the [`ExtraTerm`] hook without this
//! crate knowing anything about datapaths.
//!
//! # Examples
//!
//! ```
//! use sdp_gp::{GlobalPlacer, GpConfig};
//! use sdp_dpgen::{generate, GenConfig};
//!
//! let mut d = generate(&GenConfig::named("dp_tiny", 1).unwrap());
//! let placer = GlobalPlacer::new(GpConfig::fast());
//! let stats = placer.place(&d.netlist, &d.design, &mut d.placement, None);
//! assert!(stats.final_overflow < 0.5);
//! ```

pub mod cluster;
pub mod density;
pub mod exec;
pub mod nesterov;
pub mod placer;
pub mod wirelength;

pub use density::DensityModel;
pub use exec::{Executor, MAX_THREADS};
pub use nesterov::{minimize_nesterov, NesterovOptions, Objective, SolveResult};
pub use placer::{ExtraTerm, GlobalPlacer, GpConfig, IterationTrace, PlaceStats, LAMBDA_FACTOR};
pub use wirelength::{eval_wirelength_with, hpwl, WirelengthModel};
