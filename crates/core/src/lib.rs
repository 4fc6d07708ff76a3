//! # traj-core
//!
//! Spatio-temporal geometry substrate for the EDwP / TrajTree reproduction
//! (Ranu et al., *Indexing and Matching Trajectories under Inconsistent
//! Sampling Rates*, ICDE 2015).
//!
//! This crate provides the vocabulary types every other crate builds on:
//!
//! * [`Point`] — a 2-D spatial location.
//! * [`StPoint`] — a spatio-temporal point (Definition 1 of the paper).
//! * [`Segment`] — a spatio-temporal segment with linear interpolation
//!   (Definition 3), including the *projection* operation that EDwP's
//!   `ins` edit is built on.
//! * [`Trajectory`] — a temporally ordered sequence of st-points, viewed as a
//!   sequence of segments (Definitions 1–2).
//! * [`StBox`] — a spatio-temporal bounding box (Definition 4) used by the
//!   TrajTree index.
//!
//! All geometry is `f64` and purely 2-D spatial; timestamps ride along for the
//! interpolation formula of Sec. III-A and for time-aware baselines (DISSIM).
//!
//! The [`codec`] module adds the hand-rolled binary encoding of these types
//! (little-endian, bit-exact `f64` round trips) that the durable storage
//! engine (`traj-persist`) frames, checksums and writes to disk.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
mod error;
mod point;
mod segment;
mod stbox;
mod stpoint;
mod total;
mod trajectory;

pub use codec::{ByteReader, CodecError};
pub use error::{CoreError, TrajError};
pub use point::Point;
pub use segment::{Projection, Segment};
pub use stbox::StBox;
pub use stpoint::StPoint;
pub use total::TotalF64;
pub use trajectory::Trajectory;

/// Identifier of a trajectory in a database's global id space. Ids are
/// issued by a monotone watermark in ingestion order and are **never
/// reused**: removing a trajectory retires its id forever, so an id
/// observed in any query result names the same trajectory for the
/// lifetime of the database. Lives here (rather than in `traj-index`)
/// so the storage layer's typed WAL records can name trajectories too.
pub type TrajId = u32;

/// Absolute tolerance used for floating-point comparisons in tests and
/// tie-breaking guards throughout the workspace.
pub const EPSILON: f64 = 1e-9;

/// Returns `true` when two floats are equal within [`EPSILON`] scaled by the
/// magnitude of the operands (relative-plus-absolute comparison).
#[inline]
pub fn approx_eq(a: f64, b: f64) -> bool {
    let scale = 1.0_f64.max(a.abs()).max(b.abs());
    (a - b).abs() <= EPSILON * scale
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn approx_eq_tolerates_tiny_differences() {
        assert!(approx_eq(1.0, 1.0 + 1e-12));
        assert!(!approx_eq(1.0, 1.0 + 1e-6));
    }

    #[test]
    fn approx_eq_scales_with_magnitude() {
        assert!(approx_eq(1e12, 1e12 + 1.0e2));
        assert!(!approx_eq(1e12, 1e12 + 1.0e5));
    }
}
