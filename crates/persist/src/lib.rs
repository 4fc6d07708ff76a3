//! `traj-persist` — the durable storage engine under the trajectory index.
//!
//! One database directory holds a chain of *generations*: each generation
//! is a full snapshot of every shard's trajectories plus an append-only
//! write-ahead log of the inserts that came after it. The format is a
//! hand-rolled little-endian binary layout (see `docs/FORMAT.md` at the
//! workspace root) with magic bytes, a format version, and CRC-32
//! checksums on every header, snapshot body, and WAL record — so torn
//! writes and bit rot surface as typed [`PersistError`]s, never as
//! garbage trajectories or panics.
//!
//! Design decisions, briefly:
//!
//! * **Trees are rebuilt on open, not serialized.** Queries are exact —
//!   the TrajTree's shape only affects pruning, never results — so
//!   persisting raw trajectories and re-bulk-loading on open keeps the
//!   format small and forward-compatible while leaving every reopened
//!   session bitwise-identical to a fresh one.
//! * **Recovery truncates, it doesn't refuse.** A torn WAL tail (the
//!   expected crash artifact) is cut back to the last whole record. Only
//!   damage that implies real data loss — every snapshot corrupt, a
//!   checksum-valid record that won't decode — is a hard error.
//! * **Compaction is an atomic swap.** The next generation's snapshot is
//!   written to a temp file, fsynced, renamed into place, and the
//!   directory fsynced; old generations are pruned afterwards. A crash at
//!   any point leaves a recoverable directory.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod crc;
pub mod engine;
pub mod error;
pub mod snapshot;
pub mod tempdir;
pub mod wal;

/// Version stamped into every snapshot and WAL header — the one on-disk
/// format this build reads and writes. Readers refuse any other version,
/// older or newer, with [`PersistError::UnsupportedVersion`].
///
/// Version 2 is the trajectory lifecycle format: WAL payloads start with
/// a record kind byte (`Insert | Tombstone | Reshard`), snapshot sections
/// carry each trajectory's explicit global id, and the snapshot header
/// carries the `next_id` watermark — ids are never reused after removal.
pub const FORMAT_VERSION: u32 = 2;

pub use crc::crc32;
pub use engine::{DurabilityConfig, Recovered, StorageEngine};
pub use error::PersistError;
pub use snapshot::{
    load_snapshot, snapshot_file_name, write_snapshot, SnapshotContents, SNAPSHOT_HEADER_LEN,
};
pub use wal::{
    replay_wal, wal_file_name, FsyncPolicy, WalRecord, WalReplay, WAL_FRAME_LEN, WAL_HEADER_LEN,
};
