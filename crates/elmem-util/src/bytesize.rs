//! Byte quantities.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A number of bytes (memory capacity, value size, transfer volume).
///
/// Memcached divides its memory into 1 MB pages ([`ByteSize::PAGE`]), so that
/// constant lives here too.
///
/// # Example
///
/// ```
/// use elmem_util::ByteSize;
///
/// let cap = ByteSize::from_mib(64);
/// assert_eq!(cap / ByteSize::PAGE, 64);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ByteSize(pub u64);

impl ByteSize {
    /// Zero bytes.
    pub const ZERO: ByteSize = ByteSize(0);
    /// A Memcached memory page: 1 MB (§II-A of the paper).
    pub const PAGE: ByteSize = ByteSize(1 << 20);

    /// Creates a size from bytes.
    pub const fn from_bytes(b: u64) -> Self {
        ByteSize(b)
    }

    /// Creates a size from kibibytes.
    pub const fn from_kib(k: u64) -> Self {
        ByteSize(k << 10)
    }

    /// Creates a size from mebibytes.
    pub const fn from_mib(m: u64) -> Self {
        ByteSize(m << 20)
    }

    /// The raw byte count.
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// The byte count as `f64` (for rate arithmetic).
    pub fn as_f64(self) -> f64 {
        self.0 as f64
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, rhs: ByteSize) -> ByteSize {
        ByteSize(self.0.saturating_sub(rhs.0))
    }
}

impl Add for ByteSize {
    type Output = ByteSize;
    fn add(self, rhs: ByteSize) -> ByteSize {
        ByteSize(self.0 + rhs.0)
    }
}

impl AddAssign for ByteSize {
    fn add_assign(&mut self, rhs: ByteSize) {
        self.0 += rhs.0;
    }
}

impl Sub for ByteSize {
    type Output = ByteSize;
    fn sub(self, rhs: ByteSize) -> ByteSize {
        ByteSize(self.0 - rhs.0)
    }
}

impl SubAssign for ByteSize {
    fn sub_assign(&mut self, rhs: ByteSize) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for ByteSize {
    type Output = ByteSize;
    fn mul(self, rhs: u64) -> ByteSize {
        ByteSize(self.0 * rhs)
    }
}

/// Integer division: how many times `rhs` fits into `self` (truncated).
impl Div<ByteSize> for ByteSize {
    type Output = u64;
    fn div(self, rhs: ByteSize) -> u64 {
        self.0 / rhs.0
    }
}

impl Sum for ByteSize {
    fn sum<I: Iterator<Item = ByteSize>>(iter: I) -> ByteSize {
        ByteSize(iter.map(|b| b.0).sum())
    }
}

impl fmt::Display for ByteSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        const KIB: u64 = 1 << 10;
        const MIB: u64 = 1 << 20;
        const GIB: u64 = 1 << 30;
        if self.0 >= GIB {
            write!(f, "{:.2}GiB", self.0 as f64 / GIB as f64)
        } else if self.0 >= MIB {
            write!(f, "{:.2}MiB", self.0 as f64 / MIB as f64)
        } else if self.0 >= KIB {
            write!(f, "{:.2}KiB", self.0 as f64 / KIB as f64)
        } else {
            write!(f, "{}B", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors() {
        assert_eq!(ByteSize::from_kib(1).as_u64(), 1024);
        assert_eq!(ByteSize::from_mib(1).as_u64(), 1 << 20);
    }

    #[test]
    fn page_is_one_mib() {
        assert_eq!(ByteSize::PAGE, ByteSize::from_mib(1));
    }

    #[test]
    fn arithmetic_and_sum() {
        let total: ByteSize = [ByteSize(1), ByteSize(2), ByteSize(3)].into_iter().sum();
        assert_eq!(total, ByteSize(6));
        assert_eq!(ByteSize(10) - ByteSize(4), ByteSize(6));
        assert_eq!(ByteSize(10).saturating_sub(ByteSize(40)), ByteSize::ZERO);
        assert_eq!(ByteSize(3) * 4, ByteSize(12));
        assert_eq!(ByteSize::from_mib(4) / ByteSize::PAGE, 4);
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(ByteSize(512).to_string(), "512B");
        assert_eq!(ByteSize::from_kib(2).to_string(), "2.00KiB");
        assert_eq!(ByteSize::from_mib(3).to_string(), "3.00MiB");
        assert_eq!(ByteSize(4 << 30).to_string(), "4.00GiB");
        assert_eq!(ByteSize::ZERO.to_string(), "0B");
    }
}
