use std::fmt;

/// Errors raised when constructing geometry types from invalid inputs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoreError {
    /// A trajectory needs at least two st-points to define a segment.
    TooFewPoints {
        /// Number of points that were supplied.
        got: usize,
    },
    /// Timestamps must be non-decreasing along a trajectory.
    NonMonotonicTime {
        /// Index of the first offending point.
        index: usize,
    },
    /// A coordinate or timestamp was NaN or infinite.
    NotFinite {
        /// Index of the offending point.
        index: usize,
    },
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::TooFewPoints { got } => {
                write!(f, "trajectory needs at least 2 st-points, got {got}")
            }
            CoreError::NonMonotonicTime { index } => {
                write!(
                    f,
                    "timestamp at index {index} is earlier than its predecessor"
                )
            }
            CoreError::NotFinite { index } => {
                write!(f, "coordinate or timestamp at index {index} is not finite")
            }
        }
    }
}

impl std::error::Error for CoreError {}

/// Errors surfaced by the query layer (`Session`, `TrajStore`): invalid
/// geometry bubbling up from construction, or a lookup with an identifier
/// the store never issued.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TrajError {
    /// Invalid geometry when constructing a trajectory.
    Core(CoreError),
    /// A trajectory id that was never issued by the store being queried.
    UnknownId {
        /// The offending identifier.
        id: u32,
        /// Number of trajectories the store holds (valid ids are `0..len`).
        len: usize,
    },
    /// The database has issued (or a stored id watermark claims) every
    /// `u32` trajectory id. Ids are never reused, so nothing more can be
    /// inserted; the failed call logged and published nothing.
    IdSpaceExhausted,
    /// A durability failure reported by the storage engine (WAL append,
    /// snapshot write, compaction, or recovery). Carries the rendered
    /// persistence error: the typed original (`traj_persist::PersistError`)
    /// lives downstream of this crate, so the conversion flattens it to its
    /// display form to keep `TrajError` `Clone + Eq`.
    Persist {
        /// Human-readable description of the persistence failure.
        message: String,
    },
}

impl fmt::Display for TrajError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrajError::Core(e) => e.fmt(f),
            TrajError::UnknownId { id, len } => {
                write!(f, "trajectory id {id} not in store (len {len})")
            }
            TrajError::IdSpaceExhausted => {
                write!(f, "trajectory id space exhausted: ids are never reused")
            }
            TrajError::Persist { message } => {
                write!(f, "durable storage failure: {message}")
            }
        }
    }
}

impl std::error::Error for TrajError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TrajError::Core(e) => Some(e),
            TrajError::UnknownId { .. }
            | TrajError::IdSpaceExhausted
            | TrajError::Persist { .. } => None,
        }
    }
}

impl From<CoreError> for TrajError {
    fn from(e: CoreError) -> Self {
        TrajError::Core(e)
    }
}
