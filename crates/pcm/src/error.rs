//! Error types for the PCM device model.

use crate::PhysicalPageAddr;
use std::error::Error;
use std::fmt;

/// Errors produced by the PCM device and its configuration.
///
/// The only runtime error a healthy simulation sees is
/// [`PcmError::PageWornOut`], which is also the *signal that defines
/// lifetime*: the lifetime simulator runs a workload until the device
/// returns it.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum PcmError {
    /// A write targeted a page whose endurance is exhausted.
    PageWornOut {
        /// The failed physical page.
        addr: PhysicalPageAddr,
        /// Total writes the page absorbed before failing.
        writes: u64,
    },
    /// An address outside the device's page range was used.
    AddrOutOfRange {
        /// The offending physical page index.
        index: u64,
        /// Number of pages in the device.
        pages: u64,
    },
    /// A page retirement found the spare pool empty — end of life under
    /// graceful degradation.
    SparesExhausted {
        /// The slot whose backing page could not be replaced.
        slot: PhysicalPageAddr,
    },
    /// A page's endurance does not fit the `u32` endurance table.
    EnduranceTooLarge {
        /// The page whose endurance was drawn or given.
        page: u64,
        /// The refused endurance.
        endurance: u64,
    },
    /// A write would push a page's wear counter past `u32::MAX` (only
    /// reachable under [`crate::WearPolicy::Unlimited`]; fail-stop
    /// wear never passes the page's endurance).
    WearOverflow {
        /// The slot whose backing page is at the counter's limit.
        addr: PhysicalPageAddr,
        /// The page's wear, `u32::MAX`.
        writes: u64,
    },
    /// The device configuration is invalid.
    InvalidConfig(String),
}

impl fmt::Display for PcmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::PageWornOut { addr, writes } => {
                write!(f, "page {addr} worn out after {writes} writes")
            }
            Self::AddrOutOfRange { index, pages } => {
                write!(
                    f,
                    "physical page index {index} outside device of {pages} pages"
                )
            }
            Self::SparesExhausted { slot } => {
                write!(f, "no spare page left to replace the page backing {slot}")
            }
            Self::EnduranceTooLarge { page, endurance } => write!(
                f,
                "endurance {endurance} of page {page} exceeds the endurance table's limit of {}",
                u32::MAX
            ),
            Self::WearOverflow { addr, writes } => write!(
                f,
                "page {addr} wear counter is at its limit of {writes} writes"
            ),
            Self::InvalidConfig(msg) => write!(f, "invalid PCM configuration: {msg}"),
        }
    }
}

impl Error for PcmError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = PcmError::PageWornOut {
            addr: PhysicalPageAddr::new(5),
            writes: 100,
        };
        assert_eq!(e.to_string(), "page PA5 worn out after 100 writes");
        let e = PcmError::AddrOutOfRange {
            index: 10,
            pages: 8,
        };
        assert!(e.to_string().contains("10"));
        let e = PcmError::InvalidConfig("pages must be even".into());
        assert!(e.to_string().contains("pages must be even"));
        let e = PcmError::SparesExhausted {
            slot: PhysicalPageAddr::new(3),
        };
        assert!(e.to_string().contains("PA3"));
        let e = PcmError::EnduranceTooLarge {
            page: 6,
            endurance: 1 << 32,
        };
        assert!(e.to_string().contains("4294967296 of page 6"));
        let e = PcmError::WearOverflow {
            addr: PhysicalPageAddr::new(2),
            writes: u64::from(u32::MAX),
        };
        assert!(e.to_string().contains("PA2") && e.to_string().contains("4294967295"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_bounds<T: std::error::Error + Send + Sync + 'static>() {}
        assert_bounds::<PcmError>();
    }
}
