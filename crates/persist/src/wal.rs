//! The append-only write-ahead log: every durable mutation becomes one
//! length- and checksum-framed record, so a crash can tear at most the
//! final record — and recovery detects exactly where.
//!
//! # Layout (see `docs/FORMAT.md`)
//!
//! ```text
//! offset  size  field
//! 0       8     magic "TRJWAL01"
//! 8       4     format version (u32 LE, currently 2)
//! 12      8     base count (u64 LE): live trajectories in the snapshot
//!               this WAL extends
//! 20      4     CRC-32 over bytes 0..20 (u32 LE)
//! 24      ...   records: [u32 payload len][u32 payload CRC-32][payload]
//! ```
//!
//! Every payload starts with a **kind byte**: `0` = insert (an encoded
//! `Trajectory`), `1` = tombstone (the `u32` global id being removed),
//! `2` = reshard (the `u32` new shard count). A kind byte this build does
//! not know is a hard [`PersistError::UnknownRecordKind`], because new
//! kinds only ship with a header-version bump — and a header stamped with
//! any other version is refused outright
//! ([`PersistError::UnsupportedVersion`]).
//!
//! Replay walks records until the file ends or a frame fails to verify
//! (short length field, payload shorter than declared, checksum mismatch)
//! and reports the valid prefix; recovery then **truncates** the file at
//! that boundary so subsequent appends extend intact data — a torn tail
//! costs the torn record, never the log.

use crate::crc::crc32;
use crate::error::PersistError;
use crate::snapshot::sync_dir;
use crate::{read_header, write_header};
use std::fs::{File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::Path;
use traj_core::codec::{put_u32, put_u64, ByteReader};
use traj_core::{TrajId, Trajectory};

/// First eight bytes of every WAL file.
pub(crate) const WAL_MAGIC: [u8; 8] = *b"TRJWAL01";
/// Fixed header size: magic + version + base count + header CRC.
pub const WAL_HEADER_LEN: usize = 8 + 4 + 8 + 4;
/// Per-record framing overhead: payload length + payload CRC.
pub const WAL_FRAME_LEN: usize = 4 + 4;

/// Kind byte of an insert record.
pub(crate) const KIND_INSERT: u8 = 0;
/// Kind byte of a tombstone record.
pub(crate) const KIND_TOMBSTONE: u8 = 1;
/// Kind byte of a reshard record.
pub(crate) const KIND_RESHARD: u8 = 2;
/// Largest kind byte this build understands.
pub(crate) const KIND_MAX: u8 = KIND_RESHARD;

/// One decoded WAL record — the typed mutation log that replay applies
/// over the paired snapshot, in append order.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// A new trajectory. Its global id is implicit: the snapshot's id
    /// watermark (`next_id`) plus the number of inserts replayed before
    /// it — ids are issued by append order, never reused.
    Insert(Trajectory),
    /// Removal of the trajectory with this global id. Replaying a
    /// tombstone for an id that is not live is a hard
    /// [`PersistError::StateMismatch`]: the writer validates liveness
    /// before logging, so a mismatch means the log and snapshot disagree.
    Tombstone(TrajId),
    /// The database re-dealt its live trajectories across this many
    /// shards. Affects only the layout the *next* snapshot is written
    /// in — the live set is unchanged.
    Reshard(u32),
}

/// Canonical file name of the WAL for `generation`.
pub fn wal_file_name(generation: u64) -> String {
    format!("wal-{generation:08}.wal")
}

/// When (and whether) the engine calls `fsync` on the WAL. The policy
/// trades write latency against the number of acknowledged inserts a
/// power failure can cost; an OS *crash tear* is bounded at one record by
/// the framing regardless of policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FsyncPolicy {
    /// `fsync` after every record: an acknowledged insert survives power
    /// loss. The durable default — and the slowest.
    #[default]
    Always,
    /// `fsync` once every `n` records: bounds the loss window to `n`
    /// acknowledged inserts while batching the sync cost. `EveryN(0)` is
    /// clamped to `EveryN(1)` (i.e. [`FsyncPolicy::Always`]).
    EveryN(u32),
    /// Never `fsync` explicitly; the OS page cache flushes on its own
    /// schedule. Process crashes lose nothing (the kernel holds the
    /// writes); power loss can cost everything since the last OS flush.
    OsManaged,
}

/// An open WAL positioned for appending.
#[derive(Debug)]
pub(crate) struct WalWriter {
    file: File,
    records: u64,
    unsynced: u32,
    /// Successful [`WalWriter::sync`] calls — a monotone work counter, not
    /// state: compaction carries it over to the next generation's writer.
    pub(crate) fsyncs: u64,
    policy: FsyncPolicy,
    /// Latched by the first failed write or fsync (see [`WalWriter::io`])
    /// or by a failed compaction ([`WalWriter::poison`]).
    poisoned: bool,
}

impl WalWriter {
    /// Creates a fresh WAL for `generation` with the given base count,
    /// overwriting any existing file of that name. The header and the
    /// directory entry are fsynced up front regardless of policy: records
    /// must never land in a file whose header — or name — could still
    /// vanish.
    pub(crate) fn create(
        dir: &Path,
        generation: u64,
        base_count: u64,
        policy: FsyncPolicy,
    ) -> Result<Self, PersistError> {
        let header = write_header(&WAL_MAGIC, |h| put_u64(h, base_count));
        let mut file = File::create(dir.join(wal_file_name(generation)))?;
        file.write_all(&header)?;
        file.sync_all()?;
        sync_dir(dir)?;
        Ok(Self::at_end(file, 0, policy))
    }

    /// Reopens an existing WAL for appending after replay: truncates the
    /// file to `valid_len` (discarding any torn tail) and positions the
    /// writer there.
    pub(crate) fn reopen(
        path: &Path,
        valid_len: u64,
        records: u64,
        policy: FsyncPolicy,
    ) -> Result<Self, PersistError> {
        let mut file = OpenOptions::new().write(true).open(path)?;
        file.set_len(valid_len)?;
        file.seek(SeekFrom::Start(valid_len))?;
        Ok(Self::at_end(file, records, policy))
    }

    /// A writer over `file`, positioned at its end after `records` records.
    fn at_end(file: File, records: u64, policy: FsyncPolicy) -> Self {
        WalWriter {
            file,
            records,
            unsynced: 0,
            fsyncs: 0,
            policy,
            poisoned: false,
        }
    }

    /// Appends a whole batch of inserts as one **group**: every record is
    /// framed exactly as a single append frames it (the on-disk format is
    /// unchanged — replay cannot tell a group from a run of singles), but
    /// the frames are built into one buffer, written with one `write_all`,
    /// and the fsync policy is applied once for the whole group — a single
    /// sync under [`FsyncPolicy::Always`] instead of one per record, and
    /// one `unsynced += n` step under [`FsyncPolicy::EveryN`].
    ///
    /// Crash/error exposure is the same class as a crash during a run of
    /// single appends: a *prefix* of the group may survive (each record's
    /// framing verifies independently), and the next replay truncates at
    /// the first torn frame. On `Err` nothing is logically appended and the
    /// writer is poisoned (see [`WalWriter::io`]).
    pub(crate) fn append_inserts(&mut self, batch: &[Trajectory]) -> Result<(), PersistError> {
        self.append_group(KIND_INSERT, batch, Trajectory::encode_into)
    }

    /// Appends one tombstone record per id as one group commit — deletes
    /// batch exactly like inserts: one buffered write, one application of
    /// the fsync policy.
    pub(crate) fn append_tombstones(&mut self, ids: &[TrajId]) -> Result<(), PersistError> {
        self.append_group(KIND_TOMBSTONE, ids, |&id, p| put_u32(p, id))
    }

    /// Appends one reshard record declaring the new shard count.
    pub(crate) fn append_reshard(&mut self, shards: u32) -> Result<(), PersistError> {
        self.append_group(KIND_RESHARD, &[shards], |&n, p| put_u32(p, n))
    }

    /// Frames one `kind` record per item (`body` encodes what follows the
    /// kind byte), writes the run with one `write_all` and applies the
    /// fsync policy once. The counters move only after every I/O step
    /// succeeded, so on `Err` they still describe the acknowledged records.
    fn append_group<T>(
        &mut self,
        kind: u8,
        items: &[T],
        body: impl Fn(&T, &mut Vec<u8>),
    ) -> Result<(), PersistError> {
        if items.is_empty() {
            return Ok(());
        }
        let mut group = Vec::new();
        for item in items {
            push_frame(&mut group, |p| {
                p.push(kind);
                body(item, p);
            });
        }
        self.io(|file| file.write_all(&group))?;
        let n = items.len() as u64;
        let unsynced = self.unsynced.saturating_add(n as u32);
        match self.policy {
            FsyncPolicy::Always => self.sync()?,
            FsyncPolicy::EveryN(k) if unsynced >= k.max(1) => self.sync()?,
            FsyncPolicy::EveryN(_) => self.unsynced = unsynced,
            FsyncPolicy::OsManaged => {}
        }
        self.records += n;
        Ok(())
    }

    /// Forces everything appended so far to stable storage.
    pub(crate) fn sync(&mut self) -> Result<(), PersistError> {
        self.io(|file| file.sync_data())?;
        self.unsynced = 0;
        self.fsyncs += 1;
        Ok(())
    }

    /// Runs one write or fsync — unless an earlier one failed, in which
    /// case the writer is **poisoned** and answers
    /// [`PersistError::WalPoisoned`] from then on. After a short write the
    /// file ends in a torn frame, and anything appended behind it would be
    /// acknowledged and then truncated away by the next recovery; after a
    /// failed fsync the kernel may have dropped the dirty pages, so a later
    /// "successful" fsync proves nothing. Only reopening the directory
    /// (replay truncates the torn tail) or a compaction (which starts the
    /// next generation's log) yields a writer at a known offset; like a
    /// crash mid-append, the group that failed may or may not survive a
    /// reopen, but no acknowledged record sits behind it.
    fn io(
        &mut self,
        step: impl FnOnce(&mut File) -> std::io::Result<()>,
    ) -> Result<(), PersistError> {
        if self.poisoned {
            return Err(PersistError::WalPoisoned);
        }
        step(&mut self.file).map_err(|e| {
            self.poisoned = true;
            PersistError::Io(e)
        })
    }

    /// Latches the writer poisoned without an I/O failure of its own — for
    /// a compaction that failed part-way, after which the next recovery
    /// may no longer read this log at all.
    pub(crate) fn poison(&mut self) {
        self.poisoned = true;
    }

    /// Records appended since the WAL's base snapshot.
    pub(crate) fn records(&self) -> u64 {
        self.records
    }
}

/// Appends one record frame to `group` — payload length, payload CRC-32,
/// payload — where `payload` writes the payload in place. The only place
/// frame bytes are assembled.
fn push_frame(group: &mut Vec<u8>, payload: impl FnOnce(&mut Vec<u8>)) {
    let start = group.len();
    group.extend_from_slice(&[0; WAL_FRAME_LEN]);
    payload(group);
    let written = &group[start + WAL_FRAME_LEN..];
    let (len, crc) = (written.len() as u32, crc32(written));
    group[start..start + 4].copy_from_slice(&len.to_le_bytes());
    group[start + 4..start + WAL_FRAME_LEN].copy_from_slice(&crc.to_le_bytes());
}

/// The outcome of scanning a WAL: the decoded records of the valid prefix,
/// where that prefix ends, and — when the scan stopped early — the typed
/// reason.
#[derive(Debug)]
pub struct WalReplay {
    /// Every intact record, in append order.
    pub records: Vec<WalRecord>,
    /// Base count from the header: live trajectories in the paired
    /// snapshot.
    pub base_count: u64,
    /// Byte offset of the end of the last intact record — what recovery
    /// truncates the file to.
    pub valid_len: u64,
    /// Why the scan stopped before the end of the file: `None` for a clean
    /// log, a typed [`PersistError`] ([`PersistError::Truncated`] for a
    /// torn frame, [`PersistError::Checksum`] for a corrupt payload) for a
    /// damaged tail. Recovery treats this as "truncate here"; audits can
    /// surface it.
    pub tail_error: Option<PersistError>,
}

/// Decodes one checksum-verified payload. Any failure here is a hard
/// error: the bytes are what the writer wrote, so they must decode.
fn decode_record(payload: &[u8], index: usize) -> Result<WalRecord, PersistError> {
    let Some((&kind, body)) = payload.split_first() else {
        return Err(PersistError::StateMismatch {
            detail: format!("wal record {index} has an empty payload"),
        });
    };
    let mut pr = ByteReader::new(body);
    let record = match kind {
        KIND_INSERT => WalRecord::Insert(Trajectory::decode(&mut pr)?),
        KIND_TOMBSTONE => WalRecord::Tombstone(pr.u32()?),
        KIND_RESHARD => {
            let shards = pr.u32()?;
            if shards == 0 {
                return Err(PersistError::StateMismatch {
                    detail: format!("wal record {index} declares a reshard to 0 shards"),
                });
            }
            WalRecord::Reshard(shards)
        }
        unknown => {
            return Err(PersistError::UnknownRecordKind {
                kind: unknown,
                supported: KIND_MAX,
            })
        }
    };
    if !pr.is_empty() {
        return Err(PersistError::StateMismatch {
            detail: format!(
                "wal record {index} carries {} trailing bytes",
                pr.remaining()
            ),
        });
    }
    Ok(record)
}

/// Scans the WAL at `path`. Header problems (bad magic, another format
/// version, header checksum) are hard errors — the file as a whole is not a log
/// this build can trust — while torn frames *after* the header are
/// reported as the `tail_error` of an otherwise successful replay,
/// because the valid prefix is still good data. A checksum-valid payload
/// that will not decode (or carries an unknown record kind) is a hard
/// error: that is a writer bug, never a torn write.
pub fn replay_wal(path: &Path) -> Result<WalReplay, PersistError> {
    let bytes = std::fs::read(path)?;
    let (mut r, body) = read_header(&bytes, &WAL_MAGIC, WAL_HEADER_LEN, "wal header")?;
    let base_count = r.u64()?;

    let mut records = Vec::new();
    let mut offset = 0usize; // into `body`
    let mut tail_error = None;
    while offset < body.len() {
        let rest = &body[offset..];
        if rest.len() < WAL_FRAME_LEN {
            tail_error = Some(PersistError::Truncated {
                what: "wal record frame",
                needed: WAL_FRAME_LEN as u64,
                got: rest.len() as u64,
            });
            break;
        }
        let len = u32::from_le_bytes(rest[0..4].try_into().expect("4-byte slice")) as usize;
        let stored = u32::from_le_bytes(rest[4..8].try_into().expect("4-byte slice"));
        let after_frame = &rest[WAL_FRAME_LEN..];
        if after_frame.len() < len {
            tail_error = Some(PersistError::Truncated {
                what: "wal record payload",
                needed: len as u64,
                got: after_frame.len() as u64,
            });
            break;
        }
        let payload = &after_frame[..len];
        let computed = crc32(payload);
        if stored != computed {
            tail_error = Some(PersistError::Checksum {
                what: "wal record",
                stored,
                computed,
            });
            break;
        }
        records.push(decode_record(payload, records.len())?);
        offset += WAL_FRAME_LEN + len;
    }
    Ok(WalReplay {
        records,
        base_count,
        valid_len: (WAL_HEADER_LEN + offset) as u64,
        tail_error,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tempdir::TempDir;
    use crate::FORMAT_VERSION;

    fn traj(x: f64) -> Trajectory {
        Trajectory::from_xy(&[(x, 0.0), (x + 1.0, 1.0), (x + 2.0, 0.5)])
    }

    fn inserts(trajs: &[Trajectory]) -> Vec<WalRecord> {
        trajs.iter().cloned().map(WalRecord::Insert).collect()
    }

    #[test]
    fn append_then_replay_round_trips() {
        let dir = TempDir::new("wal-roundtrip");
        let mut w = WalWriter::create(dir.path(), 0, 5, FsyncPolicy::Always).expect("create");
        let trajs: Vec<Trajectory> = (0..4).map(|i| traj(i as f64)).collect();
        for t in &trajs {
            w.append_inserts(std::slice::from_ref(t)).expect("append");
        }
        assert_eq!(w.records(), 4);
        let path = dir.path().join(wal_file_name(0));
        drop(w);
        let replay = replay_wal(&path).expect("replay");
        assert_eq!(replay.records, inserts(&trajs));
        assert_eq!(replay.base_count, 5);
        assert!(replay.tail_error.is_none());
        assert_eq!(replay.valid_len, std::fs::metadata(&path).unwrap().len());
    }

    #[test]
    fn typed_records_round_trip_in_order() {
        let dir = TempDir::new("wal-typed");
        let mut w = WalWriter::create(dir.path(), 0, 3, FsyncPolicy::Always).expect("create");
        w.append_inserts(&[traj(0.0)]).expect("insert");
        w.append_tombstones(&[1, 3]).expect("tombstones");
        w.append_reshard(4).expect("reshard");
        w.append_inserts(&[traj(1.0)]).expect("insert");
        assert_eq!(w.records(), 5);
        let path = dir.path().join(wal_file_name(0));
        drop(w);
        let replay = replay_wal(&path).expect("replay");
        assert_eq!(
            replay.records,
            vec![
                WalRecord::Insert(traj(0.0)),
                WalRecord::Tombstone(1),
                WalRecord::Tombstone(3),
                WalRecord::Reshard(4),
                WalRecord::Insert(traj(1.0)),
            ]
        );
        assert!(replay.tail_error.is_none());
    }

    #[test]
    fn group_append_is_byte_identical_to_a_run_of_singles() {
        let dir = TempDir::new("wal-group");
        let trajs: Vec<Trajectory> = (0..5).map(|i| traj(i as f64)).collect();
        let mut singles = WalWriter::create(dir.path(), 0, 0, FsyncPolicy::Always).expect("create");
        for t in &trajs {
            singles
                .append_inserts(std::slice::from_ref(t))
                .expect("append");
        }
        let mut grouped = WalWriter::create(dir.path(), 1, 0, FsyncPolicy::Always).expect("create");
        grouped.append_inserts(&trajs).expect("group append");
        assert_eq!(grouped.records(), 5);
        grouped.append_inserts(&[]).expect("empty group is a no-op");
        assert_eq!(grouped.records(), 5);
        drop(singles);
        drop(grouped);
        let a = std::fs::read(dir.path().join(wal_file_name(0))).unwrap();
        let b = std::fs::read(dir.path().join(wal_file_name(1))).unwrap();
        // Same bytes after the (generation-independent) header fields: the
        // record stream is identical, so replay cannot tell them apart.
        assert_eq!(a[WAL_HEADER_LEN..], b[WAL_HEADER_LEN..]);
        let replay = replay_wal(&dir.path().join(wal_file_name(1))).expect("replay");
        assert_eq!(replay.records, inserts(&trajs));
        assert!(replay.tail_error.is_none());
    }

    #[test]
    fn group_append_counts_toward_every_n() {
        let dir = TempDir::new("wal-group-everyn");
        let mut w = WalWriter::create(dir.path(), 0, 0, FsyncPolicy::EveryN(4)).expect("create");
        let trajs: Vec<Trajectory> = (0..3).map(|i| traj(i as f64)).collect();
        w.append_inserts(&trajs).expect("group");
        assert_eq!(w.unsynced, 3, "under the cadence: no sync yet");
        w.append_inserts(&trajs).expect("group");
        assert_eq!(w.unsynced, 0, "6 >= 4 crossed the cadence: synced");
    }

    #[test]
    fn tombstone_group_counts_toward_every_n() {
        let dir = TempDir::new("wal-tomb-everyn");
        let mut w = WalWriter::create(dir.path(), 0, 0, FsyncPolicy::EveryN(4)).expect("create");
        w.append_tombstones(&[0, 1, 2]).expect("group");
        assert_eq!(w.unsynced, 3, "under the cadence: no sync yet");
        w.append_tombstones(&[3]).expect("group");
        assert_eq!(w.unsynced, 0, "4 >= 4 crossed the cadence: synced");
        w.append_tombstones(&[]).expect("empty group is a no-op");
        assert_eq!(w.records(), 4);
    }

    #[test]
    fn every_n_policy_clamps_zero() {
        let dir = TempDir::new("wal-everyn");
        let mut w = WalWriter::create(dir.path(), 0, 0, FsyncPolicy::EveryN(0)).expect("create");
        w.append_inserts(&[traj(0.0)])
            .expect("append under EveryN(0)");
        let mut w2 = WalWriter::create(dir.path(), 1, 0, FsyncPolicy::OsManaged).expect("create");
        w2.append_inserts(&[traj(1.0)])
            .expect("append under OsManaged");
    }

    #[test]
    fn reopen_truncates_and_continues() {
        let dir = TempDir::new("wal-reopen");
        let mut w = WalWriter::create(dir.path(), 0, 0, FsyncPolicy::Always).expect("create");
        w.append_inserts(&[traj(0.0)]).expect("append");
        w.append_inserts(&[traj(1.0)]).expect("append");
        let path = dir.path().join(wal_file_name(0));
        drop(w);
        // Tear the second record by lopping off its last byte.
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..full.len() - 1]).unwrap();
        let replay = replay_wal(&path).expect("replay");
        assert_eq!(replay.records.len(), 1);
        assert!(matches!(
            replay.tail_error,
            Some(PersistError::Truncated { .. })
        ));
        let mut w = WalWriter::reopen(
            &path,
            replay.valid_len,
            replay.records.len() as u64,
            FsyncPolicy::Always,
        )
        .expect("reopen");
        w.append_inserts(&[traj(2.0)])
            .expect("append after truncation");
        assert_eq!(w.records(), 2);
        drop(w);
        let replay = replay_wal(&path).expect("replay");
        assert!(replay.tail_error.is_none());
        assert_eq!(replay.records, inserts(&[traj(0.0), traj(2.0)]));
    }

    #[test]
    fn a_failed_append_poisons_the_writer_and_loses_nothing_acknowledged() {
        let dir = TempDir::new("wal-poison");
        let path = dir.path().join(wal_file_name(0));
        let mut w = WalWriter::create(dir.path(), 0, 0, FsyncPolicy::EveryN(8)).expect("create");
        w.append_inserts(&[traj(0.0), traj(1.0)]).expect("acked");
        w.append_tombstones(&[0]).expect("acked");
        // Inject the failure: writes through a read-only handle fail the
        // way a full disk does — after the caller built the whole group.
        let healthy = std::mem::replace(&mut w.file, File::open(&path).expect("read-only handle"));
        let err = w.append_inserts(&[traj(2.0), traj(3.0)]).unwrap_err();
        assert!(matches!(err, PersistError::Io(_)), "{err:?}");
        assert_eq!((w.records(), w.unsynced), (3, 3), "counters moved on Err");
        // Even with a working handle back, the writer stays shut: the file
        // may end in a torn frame, and nothing may be acknowledged behind it.
        w.file = healthy;
        for refused in [
            w.append_inserts(&[traj(4.0)]),
            w.append_tombstones(&[1]),
            w.append_reshard(2),
            w.sync(),
        ] {
            assert!(matches!(refused, Err(PersistError::WalPoisoned)));
        }
        assert_eq!((w.records(), w.unsynced), (3, 3));
        drop(w);
        // Reopen: exactly the acknowledged records, in order — so the ids
        // replay numbers the inserts with are the ids the caller was given.
        let acked = vec![
            WalRecord::Insert(traj(0.0)),
            WalRecord::Insert(traj(1.0)),
            WalRecord::Tombstone(0),
        ];
        let replay = replay_wal(&path).expect("replay");
        assert_eq!(replay.records, acked);
        let mut w =
            WalWriter::reopen(&path, replay.valid_len, 3, FsyncPolicy::Always).expect("reopen");
        w.append_inserts(&[traj(5.0)])
            .expect("a reopened log appends");
        assert_eq!(w.records(), 4);
    }

    #[test]
    fn header_problems_are_hard_errors() {
        let dir = TempDir::new("wal-header");
        let w = WalWriter::create(dir.path(), 0, 0, FsyncPolicy::Always).expect("create");
        let path = dir.path().join(wal_file_name(0));
        drop(w);
        let good = std::fs::read(&path).unwrap();

        let mut bad = good.clone();
        bad[3] ^= 0xFF;
        std::fs::write(&path, &bad).unwrap();
        assert!(matches!(
            replay_wal(&path),
            Err(PersistError::BadMagic { what: "wal", .. })
        ));

        let mut bad = good.clone();
        bad[12] ^= 0x01; // base count — covered by the header CRC
        std::fs::write(&path, &bad).unwrap();
        assert!(matches!(
            replay_wal(&path),
            Err(PersistError::Checksum {
                what: "wal header",
                ..
            })
        ));

        std::fs::write(&path, &good[..WAL_HEADER_LEN - 1]).unwrap();
        assert!(matches!(
            replay_wal(&path),
            Err(PersistError::Truncated {
                what: "wal header",
                ..
            })
        ));

        // The retired revision 1 shared this header layout but framed
        // records without a kind byte: refused, never replayed as if its
        // payloads were typed (CRC fixed up so only the version is wrong).
        let mut bad = good;
        bad[8..12].copy_from_slice(&1u32.to_le_bytes());
        let crc = crc32(&bad[..WAL_HEADER_LEN - 4]);
        bad[WAL_HEADER_LEN - 4..].copy_from_slice(&crc.to_le_bytes());
        std::fs::write(&path, &bad).unwrap();
        assert!(matches!(
            replay_wal(&path),
            Err(PersistError::UnsupportedVersion {
                what: "wal",
                found: 1,
                supported: FORMAT_VERSION,
            })
        ));
    }

    #[test]
    fn unknown_record_kind_is_a_hard_error() {
        let dir = TempDir::new("wal-unknown-kind");
        let w = WalWriter::create(dir.path(), 0, 0, FsyncPolicy::Always).expect("create");
        let path = dir.path().join(wal_file_name(0));
        drop(w);
        // Append a checksum-valid record whose kind byte is from the
        // future. The frame verifies, so this is not a torn tail: replay
        // must refuse it outright rather than skip or misread it.
        let mut bytes = std::fs::read(&path).unwrap();
        let payload = [KIND_MAX + 1, 0xAA, 0xBB];
        put_u32(&mut bytes, payload.len() as u32);
        put_u32(&mut bytes, crc32(&payload));
        bytes.extend_from_slice(&payload);
        std::fs::write(&path, &bytes).unwrap();
        match replay_wal(&path) {
            Err(PersistError::UnknownRecordKind { kind, supported }) => {
                assert_eq!(kind, KIND_MAX + 1);
                assert_eq!(supported, KIND_MAX);
            }
            other => panic!("expected UnknownRecordKind, got {other:?}"),
        }
    }
}
