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
//!   corrupt snapshot whose own log holds records, a checksum-valid
//!   record that won't decode — is a hard error.
//! * **Each on-disk rule has one owner.** Both file kinds share one
//!   header codec (magic, version, CRC), every WAL record is framed by one
//!   function, and the snapshot's id discipline is one check that both
//!   loading and compaction run. A fresh directory is opened through the
//!   same recovery path as any other.
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

/// Encodes a file header — `magic`, [`FORMAT_VERSION`], the fields that
/// `fields` appends, then a CRC-32 over all of it. The one header writer
/// both file kinds share.
pub(crate) fn write_header(magic: &[u8; 8], fields: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
    let mut header = magic.to_vec();
    put_u32(&mut header, FORMAT_VERSION);
    fields(&mut header);
    let crc = crc32(&header);
    put_u32(&mut header, crc);
    header
}

/// Verifies the `len`-byte header at the start of `bytes` and returns a
/// reader over its fields (between the version and the CRC) plus the bytes
/// after the header. The checks run length → magic → version → CRC: another
/// revision's header has another layout, so its checksum would not sit
/// where this one's does. `what` names the header (`"wal header"`) in
/// length and checksum errors; magic and version errors name the file
/// (`"wal"`).
pub(crate) fn read_header<'a>(
    bytes: &'a [u8],
    magic: &[u8; 8],
    len: usize,
    what: &'static str,
) -> Result<(ByteReader<'a>, &'a [u8]), PersistError> {
    let file = what.strip_suffix(" header").unwrap_or(what);
    let Some((header, rest)) = bytes.split_at_checked(len) else {
        return Err(PersistError::Truncated {
            what,
            needed: len as u64,
            got: bytes.len() as u64,
        });
    };
    let (covered, stored) = header.split_at(len - 4);
    let mut r = ByteReader::new(covered);
    let found: [u8; 8] = r.bytes(8)?.try_into().expect("8-byte slice");
    if found != *magic {
        return Err(PersistError::BadMagic { what: file, found });
    }
    let version = r.u32()?;
    if version != FORMAT_VERSION {
        return Err(PersistError::UnsupportedVersion {
            what: file,
            found: version,
            supported: FORMAT_VERSION,
        });
    }
    let stored = u32::from_le_bytes(stored.try_into().expect("4-byte slice"));
    let computed = crc32(covered);
    if stored != computed {
        return Err(PersistError::Checksum {
            what,
            stored,
            computed,
        });
    }
    Ok((r, rest))
}

pub use crc::crc32;
pub use engine::{DurabilityConfig, Recovered, StorageEngine};
pub use error::PersistError;
pub use snapshot::{
    load_snapshot, snapshot_file_name, write_snapshot, SnapshotContents, SNAPSHOT_HEADER_LEN,
};
pub use wal::{
    replay_wal, wal_file_name, FsyncPolicy, WalRecord, WalReplay, WAL_FRAME_LEN, WAL_HEADER_LEN,
};

use traj_core::codec::{put_u32, ByteReader};
