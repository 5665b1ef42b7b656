#![warn(missing_docs)]
#![cfg_attr(
    not(test),
    warn(
        clippy::float_cmp,
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss
    )
)]

//! Netlist substrate for the `sdplace` placement system.
//!
//! This crate owns the circuit representation every other crate consumes:
//!
//! * a flat, index-arena **netlist** ([`Netlist`]): library cells, cell
//!   instances, nets, and pins with geometric offsets;
//! * a **floorplan** ([`Design`]): core region, standard-cell rows and
//!   sites;
//! * a **placement** ([`Placement`]): one centre coordinate per cell,
//!   deliberately separate from the netlist so optimizers can iterate on a
//!   plain coordinate vector;
//! * **datapath group** annotations ([`DatapathGroup`]): the `bits × stages`
//!   matrices produced by extraction (and by the benchmark generator as
//!   ground truth);
//! * full **Bookshelf** (ISPD `.aux/.nodes/.nets/.pl/.scl/.wts`) reading and
//!   writing for interchange with academic placement benchmarks.
//!
//! # Examples
//!
//! Build a two-gate netlist and query it:
//!
//! ```
//! use sdp_netlist::{NetlistBuilder, PinDir};
//! use sdp_geom::Point;
//!
//! let mut b = NetlistBuilder::new();
//! let inv = b.add_lib_cell("INV", 2.0, 1.0, 1, 1);
//! let a = b.add_cell("u1", inv);
//! let c = b.add_cell("u2", inv);
//! b.add_net("n1", [(a, Point::ORIGIN, PinDir::Output),
//!                  (c, Point::ORIGIN, PinDir::Input)]);
//! let nl = b.finish().unwrap();
//! assert_eq!(nl.num_cells(), 2);
//! assert_eq!(nl.num_nets(), 1);
//! ```

mod bookshelf;
mod builder;
mod design;
mod error;
mod group;
mod ids;
mod netlist;
mod placement;
mod stats;
mod validate;

pub use bookshelf::{read_bookshelf, write_bookshelf, BookshelfCase};
pub use builder::NetlistBuilder;
pub use design::{Design, Row};
pub use error::{NetlistError, ParseError, ParseLoc};
pub use group::DatapathGroup;
pub use ids::{CellId, LibCellId, NetId, PinId};
pub use netlist::{Cell, LibCell, Net, Netlist, Pin, PinDir};
pub use placement::Placement;
pub use stats::NetlistStats;
pub use validate::{validate_netlist, NetlistIssue};
