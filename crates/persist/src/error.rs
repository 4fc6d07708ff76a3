//! The storage engine's typed error surface. Every failure mode of the
//! on-disk format — I/O, bad magic, an unknown format version, a checksum
//! mismatch, a truncated structure, undecodable bytes — is a distinct
//! [`PersistError`] variant, so recovery policy (and tests) can match on
//! *what* went wrong instead of parsing strings. Nothing in this crate
//! panics on an I/O path.

use std::fmt;
use std::path::PathBuf;
use traj_core::{CodecError, TrajError};

/// Everything the durable storage engine can fail with.
#[derive(Debug)]
pub enum PersistError {
    /// An operating-system I/O failure (open, read, write, fsync, rename).
    Io(std::io::Error),
    /// A file did not start with the expected magic bytes — not a snapshot
    /// / WAL at all, or one written by something else entirely.
    BadMagic {
        /// Which structure was being read (`"snapshot"` / `"wal"`).
        what: &'static str,
        /// The eight bytes actually found.
        found: [u8; 8],
    },
    /// The file's format version is not the one this build reads. A
    /// reader must refuse another revision's layout — newer or retired —
    /// rather than misread it.
    UnsupportedVersion {
        /// Which structure was being read.
        what: &'static str,
        /// Version stamped in the file.
        found: u32,
        /// The version this build reads.
        supported: u32,
    },
    /// Stored and recomputed CRC-32 disagree: the bytes rotted, were torn
    /// mid-write, or were tampered with.
    Checksum {
        /// Which structure failed (`"snapshot header"`, `"snapshot body"`,
        /// `"wal header"`, `"wal record"`).
        what: &'static str,
        /// Checksum read from disk.
        stored: u32,
        /// Checksum computed over the bytes actually present.
        computed: u32,
    },
    /// A structure ended before its declared extent — the classic torn
    /// write.
    Truncated {
        /// Which structure was cut short.
        what: &'static str,
        /// Bytes the structure declared it needs.
        needed: u64,
        /// Bytes actually available.
        got: u64,
    },
    /// Bytes whose checksum verified but which do not decode as the value
    /// they claim to be — a writer bug or a format drift, never a torn
    /// write.
    Codec(CodecError),
    /// A checksum-valid WAL record whose kind byte this build does not
    /// understand. New record kinds only ship together with a header
    /// format-version bump (which [`PersistError::UnsupportedVersion`]
    /// refuses up front), so an unknown kind inside a readable file is a
    /// writer bug or tampering — a hard error, never a torn tail.
    UnknownRecordKind {
        /// The kind byte found.
        kind: u8,
        /// Largest record kind this build understands.
        supported: u8,
    },
    /// Recovered pieces that disagree with each other (e.g. a WAL whose
    /// `base_count` does not match the snapshot it claims to extend).
    StateMismatch {
        /// Human-readable description of the disagreement.
        detail: String,
    },
    /// An earlier write or fsync on this write-ahead log failed, so the
    /// file may end in a torn frame and its tail's durability is unknown —
    /// or a compaction failed part-way, so the next recovery may already
    /// read the new snapshot instead of this log: the log refuses every
    /// further append and sync until the database directory is reopened
    /// (recovery truncates the torn tail) or a compaction replaces the log
    /// with the next generation's.
    WalPoisoned,
    /// A directory holds snapshot files but none of them loads cleanly;
    /// carries the error from the newest candidate. Starting empty here
    /// would silently discard data, so opening fails instead.
    NoUsableSnapshot {
        /// The database directory that was being opened.
        dir: PathBuf,
        /// Why the newest snapshot candidate was rejected.
        cause: Box<PersistError>,
    },
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "I/O failure: {e}"),
            PersistError::BadMagic { what, found } => {
                write!(f, "{what}: bad magic bytes {found:02x?}")
            }
            PersistError::UnsupportedVersion {
                what,
                found,
                supported,
            } => write!(
                f,
                "{what}: format version {found} is not the supported version {supported}"
            ),
            PersistError::Checksum {
                what,
                stored,
                computed,
            } => write!(
                f,
                "{what}: checksum mismatch (stored {stored:#010x}, computed {computed:#010x})"
            ),
            PersistError::Truncated { what, needed, got } => {
                write!(f, "{what}: truncated ({got} of {needed} bytes present)")
            }
            PersistError::Codec(e) => write!(f, "undecodable payload: {e}"),
            PersistError::UnknownRecordKind { kind, supported } => write!(
                f,
                "wal record kind {kind} is unknown (this build understands kinds 0..={supported})"
            ),
            PersistError::StateMismatch { detail } => {
                write!(f, "inconsistent on-disk state: {detail}")
            }
            PersistError::WalPoisoned => write!(
                f,
                "an earlier write, fsync or compaction of the write-ahead log failed; \
                 compact or reopen the database directory to resume appending"
            ),
            PersistError::NoUsableSnapshot { dir, cause } => write!(
                f,
                "no usable snapshot in {}: newest candidate failed with: {cause}",
                dir.display()
            ),
        }
    }
}

impl std::error::Error for PersistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PersistError::Io(e) => Some(e),
            PersistError::Codec(e) => Some(e),
            PersistError::NoUsableSnapshot { cause, .. } => Some(cause),
            _ => None,
        }
    }
}

impl From<std::io::Error> for PersistError {
    fn from(e: std::io::Error) -> Self {
        PersistError::Io(e)
    }
}

impl From<CodecError> for PersistError {
    fn from(e: CodecError) -> Self {
        PersistError::Codec(e)
    }
}

impl From<PersistError> for TrajError {
    /// Flattens into [`TrajError::Persist`]: the query layer's error enum
    /// stays `Clone + Eq` (an `io::Error` is neither), at the cost of
    /// carrying the rendered message rather than the typed original.
    /// Callers who need to match on the variant use `traj-persist`
    /// directly.
    fn from(e: PersistError) -> Self {
        TrajError::Persist {
            message: e.to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error as _;

    #[test]
    fn display_and_source_chain() {
        let io = PersistError::from(std::io::Error::other("disk gone"));
        assert!(io.to_string().contains("disk gone"));
        assert!(io.source().is_some());

        let nested = PersistError::NoUsableSnapshot {
            dir: PathBuf::from("/db"),
            cause: Box::new(PersistError::Checksum {
                what: "snapshot body",
                stored: 1,
                computed: 2,
            }),
        };
        let msg = nested.to_string();
        assert!(
            msg.contains("/db") && msg.contains("checksum mismatch"),
            "{msg}"
        );
        assert!(nested
            .source()
            .unwrap()
            .to_string()
            .contains("snapshot body"));
    }

    #[test]
    fn converts_into_traj_error() {
        let e = PersistError::UnsupportedVersion {
            what: "wal",
            found: 9,
            supported: 1,
        };
        let t: TrajError = e.into();
        match t {
            TrajError::Persist { message } => assert!(message.contains("version 9")),
            other => panic!("wrong variant: {other:?}"),
        }
    }
}
