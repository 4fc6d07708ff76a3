//! Hand-rolled binary codec primitives for the durable storage engine.
//!
//! The build environment is offline, so persistence cannot lean on serde +
//! bincode; instead every on-disk value is encoded with the explicit
//! little-endian primitives below (see `docs/FORMAT.md` in the workspace
//! root for the full file layouts). Floats are encoded as their IEEE-754
//! bit patterns ([`f64::to_le_bytes`]), so a round trip is **bit-exact**:
//! a trajectory read back from disk compares equal to the one written,
//! and every distance computed over it is bitwise identical.
//!
//! Decoding is fallible everywhere ([`CodecError`]): inputs are untrusted
//! bytes from disk, so readers never panic on truncation, and
//! [`Trajectory::decode`] re-validates the geometry invariants (point
//! count, monotonic time, finiteness) even though the storage layer
//! checksums its frames — a corrupt record must surface as a typed error,
//! never as a poisoned in-memory trajectory.

use crate::{CoreError, Point, StPoint, Trajectory};
use std::fmt;

/// Errors raised when decoding binary-encoded values from untrusted bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The input ended before the value was complete.
    UnexpectedEof {
        /// Bytes the decoder needed to make progress.
        needed: usize,
        /// Bytes that were actually left.
        remaining: usize,
    },
    /// A length prefix exceeds the bytes that follow it (a corrupt or
    /// hostile count that would otherwise drive a huge allocation).
    BadLength {
        /// The declared element count.
        declared: u64,
        /// Upper bound implied by the remaining input.
        max: u64,
    },
    /// The decoded bytes violate a geometry invariant (e.g. a NaN
    /// coordinate or time travel) — structurally readable, semantically
    /// invalid.
    Invalid(CoreError),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::UnexpectedEof { needed, remaining } => {
                write!(
                    f,
                    "unexpected end of input: needed {needed} more bytes, {remaining} left"
                )
            }
            CodecError::BadLength { declared, max } => {
                write!(
                    f,
                    "declared element count {declared} exceeds what the input can hold ({max})"
                )
            }
            CodecError::Invalid(e) => write!(f, "decoded value violates an invariant: {e}"),
        }
    }
}

impl std::error::Error for CodecError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CodecError::Invalid(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CoreError> for CodecError {
    fn from(e: CoreError) -> Self {
        CodecError::Invalid(e)
    }
}

/// Appends a `u32` in little-endian order.
#[inline]
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a `u64` in little-endian order.
#[inline]
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends an `f64` as its IEEE-754 bit pattern (bit-exact round trip).
#[inline]
pub fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// A cursor over untrusted input bytes; every read is bounds-checked and
/// returns [`CodecError::UnexpectedEof`] instead of panicking.
#[derive(Debug, Clone)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
}

impl<'a> ByteReader<'a> {
    /// A reader over the whole of `buf`.
    #[inline]
    pub fn new(buf: &'a [u8]) -> Self {
        ByteReader { buf }
    }

    /// Bytes not yet consumed.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.buf.len()
    }

    /// `true` once every byte has been consumed — decoders use this to
    /// reject trailing garbage.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consumes and returns the next `n` bytes.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.buf.len() < n {
            return Err(CodecError::UnexpectedEof {
                needed: n,
                remaining: self.buf.len(),
            });
        }
        let (head, tail) = self.buf.split_at(n);
        self.buf = tail;
        Ok(head)
    }

    /// Consumes a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, CodecError> {
        let b = self.bytes(4)?;
        Ok(u32::from_le_bytes(b.try_into().expect("4-byte slice")))
    }

    /// Consumes a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, CodecError> {
        let b = self.bytes(8)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8-byte slice")))
    }

    /// Consumes an `f64` bit pattern.
    pub fn f64(&mut self) -> Result<f64, CodecError> {
        let b = self.bytes(8)?;
        Ok(f64::from_le_bytes(b.try_into().expect("8-byte slice")))
    }

    /// Reads a `u64` element count and guards it against the remaining
    /// input: each element needs at least `min_elem_size` bytes, so a
    /// count that could not possibly fit is rejected up front instead of
    /// driving a multi-gigabyte `Vec::with_capacity` from corrupt bytes.
    pub fn checked_count(&mut self, min_elem_size: usize) -> Result<usize, CodecError> {
        let declared = self.u64()?;
        let max = (self.remaining() / min_elem_size.max(1)) as u64;
        if declared > max {
            return Err(CodecError::BadLength { declared, max });
        }
        Ok(declared as usize)
    }
}

impl Point {
    /// Encoded size in bytes (two `f64`s).
    pub const ENCODED_SIZE: usize = 16;

    /// Appends the point's binary encoding (x, then y).
    #[inline]
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        put_f64(out, self.x);
        put_f64(out, self.y);
    }

    /// Decodes a point from the reader (no validation — a point has no
    /// invariants of its own; containers validate).
    #[inline]
    pub fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        Ok(Point::new(r.f64()?, r.f64()?))
    }
}

impl StPoint {
    /// Encoded size in bytes (three `f64`s: x, y, t).
    pub const ENCODED_SIZE: usize = 24;

    /// Appends the st-point's binary encoding (x, y, t).
    #[inline]
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        self.p.encode_into(out);
        put_f64(out, self.t);
    }

    /// Decodes an st-point from the reader.
    #[inline]
    pub fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        Ok(StPoint::at(Point::decode(r)?, r.f64()?))
    }
}

impl Trajectory {
    /// Appends the trajectory's binary encoding: a `u64` point count
    /// followed by each st-point.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        put_u64(out, self.num_points() as u64);
        for s in self.points() {
            s.encode_into(out);
        }
    }

    /// The trajectory's binary encoding as a fresh buffer.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(8 + self.num_points() * StPoint::ENCODED_SIZE);
        self.encode_into(&mut out);
        out
    }

    /// Decodes a trajectory and re-validates every construction invariant
    /// ([`Trajectory::new`]), so corrupt bytes surface as a typed
    /// [`CodecError`] instead of an invalid in-memory value.
    pub fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        let n = r.checked_count(StPoint::ENCODED_SIZE)?;
        let mut points = Vec::with_capacity(n);
        for _ in 0..n {
            points.push(StPoint::decode(r)?);
        }
        Ok(Trajectory::new(points)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trajectory_round_trip_is_bit_exact() {
        // The extremes of the coordinate domain, a subnormal, the smallest
        // normal, a negative zero and an inexact sum.
        let t = Trajectory::from_xyt(&[
            (0.1 + 0.2, -1.5e-310, 0.0),
            (1e100, f64::MIN_POSITIVE, 1.0),
            (-0.0, -1e100, 1.0),
        ]);
        let bytes = t.encode();
        let mut r = ByteReader::new(&bytes);
        let back = Trajectory::decode(&mut r).expect("round trip");
        assert!(r.is_empty());
        // Bit-exact, not just approx: compare the raw bit patterns.
        for (a, b) in t.points().iter().zip(back.points()) {
            assert_eq!(a.p.x.to_bits(), b.p.x.to_bits());
            assert_eq!(a.p.y.to_bits(), b.p.y.to_bits());
            assert_eq!(a.t.to_bits(), b.t.to_bits());
        }
    }

    #[test]
    fn truncated_input_is_a_typed_error_at_every_boundary() {
        let t = Trajectory::from_xy(&[(0.0, 0.0), (1.0, 2.0), (3.0, 1.0)]);
        let bytes = t.encode();
        for cut in 0..bytes.len() {
            let mut r = ByteReader::new(&bytes[..cut]);
            let err = Trajectory::decode(&mut r).expect_err("truncated input must fail");
            assert!(
                matches!(
                    err,
                    CodecError::UnexpectedEof { .. } | CodecError::BadLength { .. }
                ),
                "cut at {cut}: unexpected error {err:?}"
            );
        }
    }

    #[test]
    fn hostile_count_is_rejected_before_allocating() {
        let mut bytes = Vec::new();
        put_u64(&mut bytes, u64::MAX); // declares ~1.8e19 points
        let err = Trajectory::decode(&mut ByteReader::new(&bytes)).unwrap_err();
        assert!(matches!(err, CodecError::BadLength { .. }));
    }

    #[test]
    fn decoded_geometry_is_revalidated() {
        // Hand-craft an encoding whose bytes parse but whose timestamps
        // run backwards; decode must reject it like Trajectory::new.
        let mut bytes = Vec::new();
        put_u64(&mut bytes, 2);
        StPoint::new(0.0, 0.0, 5.0).encode_into(&mut bytes);
        StPoint::new(1.0, 0.0, 1.0).encode_into(&mut bytes);
        let err = Trajectory::decode(&mut ByteReader::new(&bytes)).unwrap_err();
        assert_eq!(
            err,
            CodecError::Invalid(CoreError::NonMonotonicTime { index: 1 })
        );
        // A finite coordinate past the domain is refused the same way.
        let mut bytes = Vec::new();
        put_u64(&mut bytes, 2);
        StPoint::new(0.0, 0.0, 0.0).encode_into(&mut bytes);
        StPoint::new(f64::MAX, 0.0, 1.0).encode_into(&mut bytes);
        let err = Trajectory::decode(&mut ByteReader::new(&bytes)).unwrap_err();
        assert_eq!(
            err,
            CodecError::Invalid(CoreError::OutOfDomain { index: 1 })
        );
    }
}
