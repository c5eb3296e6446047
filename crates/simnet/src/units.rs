//! Simulation time and unit helpers.
//!
//! Time is a plain `f64` of seconds throughout the simulator (NS2 does the
//! same). This module centralizes the unit conversions the SCDA paper's
//! parameters use — link capacities quoted in Mbps/Gbps, content sizes in
//! KB/MB, control intervals in milliseconds — so scenario code never
//! hand-multiplies powers of ten.
//!
//! Where the paper's units meet in one expression — eq. 2's
//! `α·C − β·Q/d` and a link's queue integration — the [`Seconds`],
//! [`Bytes`] and [`BytesPerSec`] newtypes carry them through the call, so
//! passing a duration where a rate belongs does not compile. They have
//! only the operations those two sites need; hot columns stay raw `f64`
//! and convert at the call.

/// Simulation time in seconds.
pub type SimTime = f64;

/// One millisecond, in seconds.
pub const MS: f64 = 1e-3;

/// One microsecond, in seconds.
pub const US: f64 = 1e-6;

/// Bits per second from a megabit-per-second figure (e.g. the paper's
/// base bandwidth `X = 500 Mbps`).
#[inline]
pub const fn mbps(x: f64) -> f64 {
    x * 1e6
}

/// Bits per second from a gigabit-per-second figure.
#[inline]
pub const fn gbps(x: f64) -> f64 {
    x * 1e9
}

/// Bytes from a kilobyte figure (decimal, as the paper's traces use:
/// control flows are "< 5KB").
#[inline]
pub const fn kb(x: f64) -> f64 {
    x * 1e3
}

/// Bytes from a megabyte figure (decimal; the paper's YouTube cap is
/// "about 30MB").
#[inline]
pub const fn mb(x: f64) -> f64 {
    x * 1e6
}

/// Convert a link capacity in bits/second to bytes/second.
#[inline]
pub const fn bits_to_bytes(bits_per_sec: f64) -> f64 {
    bits_per_sec / 8.0
}

/// Convert bytes/second to bits/second.
#[inline]
pub const fn bytes_to_bits(bytes_per_sec: f64) -> f64 {
    bytes_per_sec * 8.0
}

/// The maximum segment size used by the window models, in bytes.
///
/// Matches NS2's default TCP packet size (1000 B payload + 40 B header);
/// window growth in congestion avoidance is quantized by this.
pub const MSS: f64 = 1040.0;

/// A duration in seconds.
#[repr(transparent)]
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct Seconds(f64);

/// An amount of data in bytes.
#[repr(transparent)]
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct Bytes(f64);

/// A rate in bytes per second.
#[repr(transparent)]
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct BytesPerSec(f64);

macro_rules! unit_newtype {
    ($t:ident) => {
        impl $t {
            /// Wrap a raw value in this unit.
            #[inline]
            pub const fn new(v: f64) -> Self {
                $t(v)
            }

            /// The raw value.
            #[inline]
            pub const fn get(self) -> f64 {
                self.0
            }

            /// The smaller of two values, as `f64::min`.
            #[inline]
            pub fn min(self, other: Self) -> Self {
                $t(self.0.min(other.0))
            }

            /// The larger of two values, as `f64::max`.
            #[inline]
            pub fn max(self, other: Self) -> Self {
                $t(self.0.max(other.0))
            }
        }

        impl std::ops::Sub for $t {
            type Output = $t;
            #[inline]
            fn sub(self, rhs: $t) -> $t {
                $t(self.0 - rhs.0)
            }
        }

        /// Scaling by a dimensionless factor.
        impl std::ops::Mul<$t> for f64 {
            type Output = $t;
            #[inline]
            fn mul(self, rhs: $t) -> $t {
                $t(self * rhs.0)
            }
        }
    };
}

unit_newtype!(Seconds);
unit_newtype!(Bytes);
unit_newtype!(BytesPerSec);

impl std::ops::Mul<Seconds> for BytesPerSec {
    type Output = Bytes;
    #[inline]
    fn mul(self, rhs: Seconds) -> Bytes {
        Bytes(self.0 * rhs.0)
    }
}

impl std::ops::Div<Seconds> for Bytes {
    type Output = BytesPerSec;
    #[inline]
    fn div(self, rhs: Seconds) -> BytesPerSec {
        BytesPerSec(self.0 / rhs.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mbps_round_trip() {
        assert_eq!(mbps(500.0), 5e8);
        assert_eq!(gbps(1.0), 1e9);
    }

    #[test]
    fn byte_conversions_are_inverse() {
        let c = mbps(100.0);
        assert!((bytes_to_bits(bits_to_bytes(c)) - c).abs() < 1e-9);
    }

    #[test]
    fn size_helpers() {
        assert_eq!(kb(5.0), 5_000.0);
        assert_eq!(mb(30.0), 30_000_000.0);
    }

    #[test]
    fn time_constants() {
        assert!((10.0 * MS - 0.01).abs() < 1e-15);
        assert!((50.0 * US - 5e-5).abs() < 1e-15);
    }
}
