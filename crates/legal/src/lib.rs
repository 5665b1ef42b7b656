#![warn(missing_docs)]
#![cfg_attr(
    not(test),
    warn(
        clippy::float_cmp,
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss
    )
)]

//! Legalization and detailed placement for `sdplace`.
//!
//! Global placement leaves cells at real-valued, overlapping positions.
//! This crate provides:
//!
//! * [`RowSpace`] — per-row free-interval bookkeeping with blockage
//!   support;
//! * [`legalize`] — a Tetris-style greedy legalizer that snaps every
//!   movable cell to a row and site while minimizing displacement, honouring
//!   *locked* cells (pre-placed datapath arrays, macros) as blockages;
//! * [`legalize_abacus`] — the Abacus row-clustering legalizer
//!   (displacement-optimal per row via closed-form cluster positions), a
//!   drop-in alternative with lower displacement on dense rows;
//! * [`detailed_place`] — post-legalization refinement: net-median
//!   relocation and same-width cell swapping, both strictly
//!   HPWL-improving;
//! * [`check_legal`] — an independent overlap/row/site validator used by
//!   tests and the evaluation harness.
//!
//! # Examples
//!
//! ```
//! use sdp_dpgen::{generate, GenConfig};
//! use sdp_gp::{GlobalPlacer, GpConfig};
//! use sdp_legal::{legalize, check_legal, LegalizeOptions};
//!
//! let mut d = generate(&GenConfig::named("dp_tiny", 1).unwrap());
//! GlobalPlacer::new(GpConfig::fast()).place(&d.netlist, &d.design, &mut d.placement, None);
//! legalize(&d.netlist, &d.design, &mut d.placement, &LegalizeOptions::default());
//! assert!(check_legal(&d.netlist, &d.design, &d.placement).is_empty());
//! ```

mod abacus;
mod detailed;
mod rows;
mod tetris;
mod validate;

pub use abacus::legalize_abacus;
pub use detailed::{detailed_place, DetailedOptions, DetailedStats};
pub use rows::RowSpace;
pub use tetris::{legalize, LegalStats, LegalizeOptions};
pub use validate::{check_legal, Violation};
