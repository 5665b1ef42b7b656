//! Index newtypes for the netlist arenas.
//!
//! All netlist entities are stored in flat vectors; these newtypes make
//! cross-indexing type-safe ([`CellId`] cannot be used where a [`NetId`] is
//! expected) while staying `Copy` and 4 bytes wide.

use std::fmt;

macro_rules! id_type {
    ($(#[$meta:meta])* $name:ident, $tag:literal) => {
        $(#[$meta])*
        #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub struct $name(u32);

        impl $name {
            /// Creates an id from a raw index.
            ///
            /// # Panics
            ///
            /// Panics if `ix` does not fit in `u32`.
            #[inline]
            #[allow(
                clippy::cast_possible_truncation,
                reason = "asserted to fit in u32 first"
            )]
            pub fn new(ix: usize) -> Self {
                assert!(ix <= u32::MAX as usize, "index overflow");
                $name(ix as u32)
            }

            /// The raw index, for vector addressing.
            #[inline]
            pub fn ix(self) -> usize {
                self.0 as usize
            }
        }

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($tag, "{}"), self.0)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($tag, "{}"), self.0)
            }
        }

        impl From<$name> for usize {
            fn from(id: $name) -> usize {
                id.ix()
            }
        }
    };
}

id_type!(
    /// Identifier of a cell instance within a [`crate::Netlist`].
    CellId,
    "c"
);
id_type!(
    /// Identifier of a net within a [`crate::Netlist`].
    NetId,
    "n"
);
id_type!(
    /// Identifier of a pin within a [`crate::Netlist`].
    PinId,
    "p"
);
id_type!(
    /// Identifier of a library cell (master) within a [`crate::Netlist`].
    LibCellId,
    "L"
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip() {
        let c = CellId::new(42);
        assert_eq!(c.ix(), 42);
        assert_eq!(usize::from(c), 42);
        assert_eq!(format!("{c}"), "c42");
        assert_eq!(format!("{c:?}"), "c42");
    }

    #[test]
    fn ordering_and_hash() {
        use std::collections::HashSet;
        let a = NetId::new(1);
        let b = NetId::new(2);
        assert!(a < b);
        let s: HashSet<NetId> = [a, b, a].into_iter().collect();
        assert_eq!(s.len(), 2);
    }

    #[test]
    #[should_panic(expected = "index overflow")]
    fn overflow_panics() {
        let _ = PinId::new(u32::MAX as usize + 1);
    }
}
