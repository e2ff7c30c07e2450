//! Page-address newtypes.
//!
//! Logical and physical page addresses are deliberately distinct types
//! (C-NEWTYPE): wear-leveling bugs are overwhelmingly "used an LA where a
//! PA belongs" bugs, and the type system catches every one of them.

use std::fmt;

macro_rules! page_addr {
    ($(#[$doc:meta])* $name:ident, $abbr:literal) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
        pub struct $name(u64);

        impl $name {
            /// Wraps a raw page index.
            #[must_use]
            pub const fn new(index: u64) -> Self {
                Self(index)
            }

            /// The raw page index.
            #[must_use]
            pub const fn index(self) -> u64 {
                self.0
            }

            /// The raw page index as `usize` for slice indexing.
            #[must_use]
            pub const fn as_usize(self) -> usize {
                self.0 as usize
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($abbr, "{}"), self.0)
            }
        }

        impl From<u64> for $name {
            fn from(index: u64) -> Self {
                Self(index)
            }
        }

        impl From<$name> for u64 {
            fn from(addr: $name) -> u64 {
                addr.0
            }
        }
    };
}

page_addr!(
    /// A logical page address: what the CPU/OS issues.
    ///
    /// # Examples
    ///
    /// ```
    /// use twl_pcm::LogicalPageAddr;
    ///
    /// let la = LogicalPageAddr::new(12);
    /// assert_eq!(la.index(), 12);
    /// assert_eq!(la.to_string(), "LA12");
    /// ```
    LogicalPageAddr,
    "LA"
);

page_addr!(
    /// A physical page address: the frame inside the PCM array.
    ///
    /// # Examples
    ///
    /// ```
    /// use twl_pcm::PhysicalPageAddr;
    ///
    /// let pa = PhysicalPageAddr::new(3);
    /// assert_eq!(pa.to_string(), "PA3");
    /// ```
    PhysicalPageAddr,
    "PA"
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_forms() {
        assert_eq!(LogicalPageAddr::new(0).to_string(), "LA0");
        assert_eq!(PhysicalPageAddr::new(42).to_string(), "PA42");
    }

    #[test]
    fn conversions_roundtrip() {
        let la = LogicalPageAddr::from(9u64);
        assert_eq!(u64::from(la), 9);
        let pa = PhysicalPageAddr::from(10u64);
        assert_eq!(pa.as_usize(), 10);
    }

    #[test]
    fn ordering_follows_index() {
        assert!(LogicalPageAddr::new(1) < LogicalPageAddr::new(2));
    }
}
