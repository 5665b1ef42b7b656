#![warn(missing_docs)]
#![cfg_attr(
    not(test),
    warn(
        clippy::float_cmp,
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss
    )
)]

//! Placement-quality metrics and report tables for `sdplace`.
//!
//! * [`hpwl_breakdown`] — total HPWL split into datapath nets vs the rest
//!   (the paper's headline comparison needs both);
//! * [`alignment_report`] — how geometrically regular the placed datapath
//!   groups are (bit-row y spread, stage-column x spread, aligned-row
//!   fraction);
//! * [`Table`] — the ASCII table emitter shared by the benchmark harness,
//!   so every experiment prints rows the same way the paper's tables do;
//! * [`write_placement_svg`] — renders a placement (groups coloured) for
//!   visual inspection of alignment.
//!
//! # Examples
//!
//! ```
//! use sdp_eval::Table;
//!
//! let mut t = Table::new(["design", "hpwl"]);
//! t.row(["dp_small", "12345.6"]);
//! assert!(t.to_string().contains("dp_small"));
//! ```

mod alignment;
mod hpwl;
mod svg;
mod table;

pub use alignment::{alignment_report, AlignmentReport};
pub use hpwl::{hpwl_breakdown, steiner_wl, HpwlBreakdown};
pub use svg::{write_heatmap_svg, write_placement_svg};
pub use table::Table;
