//! The storage engine: one directory = one durable trajectory database,
//! as a chain of generations. Generation `g` is a full snapshot
//! (`snapshot-g.snap`) plus the append-only WAL that extends it
//! (`wal-g.wal`); compaction folds the WAL into snapshot `g + 1` and the
//! chain moves on. Opening a directory finds the newest generation whose
//! snapshot verifies, replays its WAL — inserts numbered from the
//! snapshot's id watermark, tombstones removing live ids, reshard records
//! adjusting the layout — truncating a torn tail, and hands back the live
//! database in global-id order.

use crate::error::PersistError;
use crate::snapshot::{
    check_sections, load_snapshot, parse_generation, snapshot_file_name, write_snapshot,
};
use crate::wal::{replay_wal, wal_file_name, FsyncPolicy, WalRecord, WalReplay, WalWriter};
use std::fs;
use std::path::{Path, PathBuf};
use traj_core::{TrajId, Trajectory};

/// How the engine trades write latency against durability and when it
/// compacts. Builder-style setters so call sites read as policy:
/// `DurabilityConfig::default().fsync(FsyncPolicy::EveryN(64))`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DurabilityConfig {
    /// When the WAL fsyncs (see [`FsyncPolicy`]; default
    /// [`FsyncPolicy::Always`] — safety first, opt into speed).
    pub fsync: FsyncPolicy,
    /// Automatic compaction trigger: once the WAL holds at least this many
    /// records, the next insert folds it into a fresh snapshot. `None`
    /// disables automatic compaction (explicit `compact()` calls only).
    /// Default: 4096 records.
    pub compact_after_records: Option<u64>,
}

impl Default for DurabilityConfig {
    fn default() -> Self {
        DurabilityConfig {
            fsync: FsyncPolicy::Always,
            compact_after_records: Some(4096),
        }
    }
}

impl DurabilityConfig {
    /// Sets the fsync policy.
    pub fn fsync(mut self, policy: FsyncPolicy) -> Self {
        self.fsync = policy;
        self
    }

    /// Sets (or, with `None`, disables) the automatic compaction trigger.
    pub fn compact_after(mut self, records: Option<u64>) -> Self {
        self.compact_after_records = records;
        self
    }
}

/// Everything recovery found in a database directory.
#[derive(Debug)]
pub struct Recovered {
    /// The **live** database in ascending global-id order: the snapshot's
    /// entries with every replayed insert appended and every replayed
    /// tombstone removed. Ids carry removal holes; they are never reused.
    pub trajs: Vec<(TrajId, Trajectory)>,
    /// The shard layout in force at the end of the log: the snapshot's
    /// shard count, overridden by the last replayed `Reshard` record —
    /// what a session reopens with unless told otherwise.
    pub snapshot_shards: usize,
    /// Smallest id the database has never issued. The next insert gets it.
    pub next_id: u64,
    /// How many WAL records were replayed (inserts, tombstones and
    /// reshards alike).
    pub wal_records: u64,
    /// The torn/corrupt-tail error the WAL replay stopped on, if any; the
    /// file has already been truncated to its valid prefix.
    pub wal_tail_error: Option<PersistError>,
}

/// The open storage engine for one database directory: owns the live WAL
/// writer and drives compaction. One engine per directory — the engine
/// assumes exclusive write access (sessions serialise on their insert
/// lock).
#[derive(Debug)]
pub struct StorageEngine {
    dir: PathBuf,
    cfg: DurabilityConfig,
    generation: u64,
    live: u64,
    next_id: u64,
    wal: WalWriter,
}

impl StorageEngine {
    /// Opens (or initialises) the database in `dir`, returning the engine
    /// and everything recovery found.
    ///
    /// * An empty or missing directory is initialised as generation 0: an
    ///   empty single-shard snapshot, whose WAL recovery then creates like
    ///   any other missing log.
    /// * The newest snapshot that fully verifies wins; its WAL is replayed
    ///   (typed records applied in order) and truncated at the first torn
    ///   or corrupt record. A WAL that is missing (crash between snapshot
    ///   rename and WAL creation) or torn within its header (crash during
    ///   creation, when no record can exist yet) is replaced by a fresh
    ///   empty one.
    /// * A snapshot that fails verification — corrupt, or stamped with a
    ///   format version other than [`crate::FORMAT_VERSION`] — is skipped
    ///   for an older generation only while its own WAL provably holds no
    ///   record; otherwise, or when no snapshot verifies, opening fails
    ///   with [`PersistError::NoUsableSnapshot`]. A WAL of another version
    ///   under a valid snapshot fails with
    ///   [`PersistError::UnsupportedVersion`]. Silently starting empty, or
    ///   from a generation that misses acknowledged writes, would be data
    ///   loss.
    pub fn open(dir: &Path, cfg: DurabilityConfig) -> Result<(Recovered, Self), PersistError> {
        fs::create_dir_all(dir)?;
        let mut generations = snapshot_generations(dir)?;
        if generations.is_empty() {
            write_snapshot(dir, 0, &[Vec::new()], 0)?;
            generations.push(0);
        }

        generations.sort_unstable_by(|a, b| b.cmp(a)); // newest first
        let mut newest_err: Option<PersistError> = None;
        for &generation in &generations {
            let wal_path = dir.join(wal_file_name(generation));
            let contents = match load_snapshot(&dir.join(snapshot_file_name(generation))) {
                Ok(c) => c,
                Err(e) => {
                    // Keep the error from the *newest* candidate — that is
                    // the one whose failure explains the refusal.
                    newest_err.get_or_insert(e);
                    // Skipping a log that holds records would drop
                    // acknowledged writes, and the next compaction would
                    // recreate that log over them.
                    let log_is_empty = read_log(&wal_path)
                        .is_ok_and(|log| log.is_none_or(|replay| replay.records.is_empty()));
                    if log_is_empty {
                        continue;
                    }
                    break;
                }
            };
            let mut layout = contents.sections.len();
            // Ascending per section with pairwise-distinct residues, so a
            // plain merge-by-id reconstructs global order.
            let mut trajs: Vec<(TrajId, Trajectory)> =
                contents.sections.into_iter().flatten().collect();
            trajs.sort_unstable_by_key(|&(gid, _)| gid);
            let base_live = trajs.len() as u64;
            let mut next_id = contents.next_id;

            let (wal, wal_records, wal_tail_error) = match read_log(&wal_path)? {
                Some(replay) => {
                    if replay.base_count != base_live {
                        return Err(PersistError::StateMismatch {
                            detail: format!(
                                "wal generation {generation} extends a {}-trajectory \
                                 snapshot but the snapshot holds {base_live}",
                                replay.base_count
                            ),
                        });
                    }
                    let records = replay.records.len() as u64;
                    for (i, record) in replay.records.into_iter().enumerate() {
                        apply_record(&mut trajs, &mut next_id, &mut layout, record, i)?;
                    }
                    let writer =
                        WalWriter::reopen(&wal_path, replay.valid_len, records, cfg.fsync)?;
                    (writer, records, replay.tail_error)
                }
                None => (
                    WalWriter::create(dir, generation, base_live, cfg.fsync)?,
                    0,
                    None,
                ),
            };
            let engine = StorageEngine {
                dir: dir.to_path_buf(),
                cfg,
                generation,
                live: trajs.len() as u64,
                next_id,
                wal,
            };
            return Ok((
                Recovered {
                    trajs,
                    snapshot_shards: layout,
                    next_id,
                    wal_records,
                    wal_tail_error,
                },
                engine,
            ));
        }
        Err(PersistError::NoUsableSnapshot {
            dir: dir.to_path_buf(),
            cause: Box::new(newest_err.expect("every way out of the loop records an error")),
        })
    }

    /// Appends one insert record to the WAL under the configured fsync
    /// policy, issuing the next id from the watermark. On `Ok` the record
    /// is in the log (and as durable as the policy promises); on `Err`
    /// nothing is logically appended — a torn tail, if any, is truncated
    /// by the next recovery — and every later append or sync answers
    /// [`PersistError::WalPoisoned`] until the directory is reopened or
    /// compacted, so nothing is ever acknowledged behind a failed write.
    pub fn append(&mut self, t: &Trajectory) -> Result<(), PersistError> {
        self.append_group(std::slice::from_ref(t))
    }

    /// Appends a whole batch of inserts to the WAL as one group:
    /// identical on-disk record stream to a run of
    /// [`StorageEngine::append`] calls, but one buffered write and one
    /// application of the fsync policy for the whole group — a single
    /// `fsync` under [`FsyncPolicy::Always`] instead of one per record.
    /// On `Ok` every record of the group is in the log; on `Err` nothing
    /// is logically appended, though — exactly as with a crash mid-batch
    /// — a *prefix* of the group may survive on disk as valid records the
    /// next recovery replays.
    pub fn append_group(&mut self, batch: &[Trajectory]) -> Result<(), PersistError> {
        self.wal.append_inserts(batch)?;
        self.live += batch.len() as u64;
        self.next_id += batch.len() as u64;
        Ok(())
    }

    /// Appends one tombstone record per id as one group commit. The
    /// caller (the session, under its writer lock) must have verified
    /// every id is live and the ids are distinct — replay treats a
    /// tombstone of a non-live id as a hard state mismatch.
    pub fn append_tombstones(&mut self, ids: &[TrajId]) -> Result<(), PersistError> {
        if (ids.len() as u64) > self.live {
            return Err(PersistError::StateMismatch {
                detail: format!(
                    "tombstoning {} ids but only {} trajectories are live",
                    ids.len(),
                    self.live
                ),
            });
        }
        self.wal.append_tombstones(ids)?;
        self.live -= ids.len() as u64;
        Ok(())
    }

    /// Appends one reshard record declaring the new shard layout. The
    /// live set is untouched; the next compaction writes its snapshot in
    /// the new layout.
    pub fn append_reshard(&mut self, shards: u32) -> Result<(), PersistError> {
        if shards == 0 {
            return Err(PersistError::StateMismatch {
                detail: "cannot reshard to 0 shards".into(),
            });
        }
        self.wal.append_reshard(shards)
    }

    /// Live trajectories across snapshot + WAL (inserts minus
    /// tombstones).
    pub fn live(&self) -> u64 {
        self.live
    }

    /// Smallest id never issued — what the next insert gets. Monotone:
    /// removal retires ids forever.
    pub fn next_id(&self) -> u64 {
        self.next_id
    }

    /// Records currently in the WAL (resets to 0 on compaction).
    pub fn wal_records(&self) -> u64 {
        self.wal.records()
    }

    /// WAL `fsync`s issued since this engine was opened, by the policy or
    /// by [`StorageEngine::sync`] — monotone across compactions. The
    /// group-commit contract in counts: one per `append_group` /
    /// `append_tombstones` under [`FsyncPolicy::Always`], however large
    /// the group.
    pub fn fsyncs(&self) -> u64 {
        self.wal.fsyncs
    }

    /// The live generation number (bumps on compaction).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The engine's durability configuration.
    pub fn config(&self) -> &DurabilityConfig {
        &self.cfg
    }

    /// `true` once the WAL has grown past the configured automatic
    /// compaction trigger.
    pub fn needs_compaction(&self) -> bool {
        self.cfg
            .compact_after_records
            .is_some_and(|n| self.wal.records() >= n)
    }

    /// Forces buffered WAL records to stable storage regardless of policy.
    pub fn sync(&mut self) -> Result<(), PersistError> {
        self.wal.sync()
    }

    /// Compacts: writes the **live** database (as the given shard
    /// sections, in shard order, each entry carrying its global id) to
    /// the next generation's snapshot, atomically swaps it in (write
    /// `.tmp` + fsync + rename + directory fsync), starts that
    /// generation's empty WAL, and then prunes every older generation's
    /// files. Tombstoned trajectories are *not* handed over — compaction
    /// is where dead entries leave the disk for good.
    ///
    /// `shards` must be the engine's current live contents — everything
    /// appended minus everything tombstoned — partitioned by the id
    /// router (`gid mod n`, ids ascending per section). The count and the
    /// id discipline are verified before any byte is written: a session
    /// bug must fail the compaction, not brick the directory. A crash
    /// anywhere in this sequence is safe: until the rename lands,
    /// recovery uses the old generation (old snapshot + old WAL are
    /// untouched); after it, recovery uses the new snapshot, with a
    /// missing WAL handled as empty. Pruning old files is the last step
    /// and best-effort — a leftover older generation costs disk, not
    /// correctness, and the next compaction retries the removal.
    ///
    /// An I/O failure past the validation leaves it unknown whether the
    /// new snapshot already supersedes the current log on disk, so the
    /// current log is poisoned on the way out: every later append or sync
    /// answers [`PersistError::WalPoisoned`] until a retried compaction
    /// succeeds or the directory is reopened — nothing is acknowledged
    /// into a log the next recovery would ignore.
    pub fn compact(&mut self, shards: &[Vec<(TrajId, &Trajectory)>]) -> Result<(), PersistError> {
        let total: u64 = shards.iter().map(|s| s.len() as u64).sum();
        if total != self.live {
            return Err(PersistError::StateMismatch {
                detail: format!(
                    "compaction handed {total} trajectories but the engine holds {} live",
                    self.live
                ),
            });
        }
        check_sections(shards, self.next_id)?;
        let next = self.generation + 1;
        let mut wal = write_snapshot(&self.dir, next, shards, self.next_id)
            .and_then(|_| WalWriter::create(&self.dir, next, total, self.cfg.fsync))
            .inspect_err(|_| self.wal.poison())?;
        wal.fsyncs = self.wal.fsyncs;
        self.generation = next;
        self.live = total;
        self.wal = wal;
        self.prune_older_generations();
        Ok(())
    }

    /// Removes snapshot/WAL files of every generation older than the live
    /// one. Best-effort by design (see [`StorageEngine::compact`]).
    fn prune_older_generations(&self) {
        let Ok(entries) = fs::read_dir(&self.dir) else {
            return;
        };
        for entry in entries.flatten() {
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            let generation = parse_generation(name, "snapshot-", ".snap")
                .or_else(|| parse_generation(name, "wal-", ".wal"))
                .or_else(|| parse_generation(name, "snapshot-", ".snap.tmp"));
            if generation.is_some_and(|g| g < self.generation) {
                let _ = fs::remove_file(entry.path());
            }
        }
    }
}

/// Applies one replayed WAL record to the recovered state. `trajs` stays
/// ascending by id throughout: inserts are numbered from the watermark
/// (above every existing id), tombstones remove by binary search.
fn apply_record(
    trajs: &mut Vec<(TrajId, Trajectory)>,
    next_id: &mut u64,
    layout: &mut usize,
    record: WalRecord,
    index: usize,
) -> Result<(), PersistError> {
    match record {
        WalRecord::Insert(t) => {
            let gid = TrajId::try_from(*next_id).map_err(|_| PersistError::StateMismatch {
                detail: format!("wal record {index} overflows the trajectory id space"),
            })?;
            trajs.push((gid, t));
            *next_id += 1;
        }
        WalRecord::Tombstone(gid) => {
            match trajs.binary_search_by_key(&gid, |&(g, _)| g) {
                Ok(at) => {
                    trajs.remove(at);
                }
                Err(_) => {
                    // The writer only logs tombstones for live ids, so
                    // this log disagrees with its snapshot — hard error.
                    return Err(PersistError::StateMismatch {
                        detail: format!(
                            "wal record {index} tombstones id {gid}, which is not live"
                        ),
                    });
                }
            }
        }
        WalRecord::Reshard(n) => {
            *layout = n as usize;
        }
    }
    Ok(())
}

/// Replays the WAL at `path`, or `None` when the log provably never held a
/// record: the file is missing (crash between snapshot rename and WAL
/// creation) or torn inside its header (crash during creation — the header
/// is fsynced before any append).
fn read_log(path: &Path) -> Result<Option<WalReplay>, PersistError> {
    match replay_wal(path) {
        Ok(replay) => Ok(Some(replay)),
        Err(PersistError::Io(e)) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
        Err(PersistError::Truncated {
            what: "wal header", ..
        }) => Ok(None),
        Err(e) => Err(e),
    }
}

/// Generation numbers of every `snapshot-*.snap` in `dir`.
fn snapshot_generations(dir: &Path) -> Result<Vec<u64>, PersistError> {
    let mut generations = Vec::new();
    for entry in fs::read_dir(dir)? {
        let name = entry?.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some(g) = parse_generation(name, "snapshot-", ".snap") {
            generations.push(g);
        }
    }
    Ok(generations)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tempdir::TempDir;

    /// Deals live `(id, trajectory)` pairs (ascending) into `n` borrowed
    /// sections by the id router — the layout a session hands compaction.
    fn deal_sections(trajs: &[(TrajId, Trajectory)], n: usize) -> Vec<Vec<(TrajId, &Trajectory)>> {
        let mut sections: Vec<Vec<(TrajId, &Trajectory)>> = vec![Vec::new(); n];
        for &(gid, ref t) in trajs {
            sections[gid as usize % n].push((gid, t));
        }
        sections
    }

    fn traj(x: f64) -> Trajectory {
        Trajectory::from_xy(&[(x, 0.0), (x + 1.0, 1.0)])
    }

    fn cfg() -> DurabilityConfig {
        DurabilityConfig::default().compact_after(None)
    }

    fn dense_pairs(trajs: &[Trajectory]) -> Vec<(TrajId, Trajectory)> {
        trajs
            .iter()
            .enumerate()
            .map(|(i, t)| (i as TrajId, t.clone()))
            .collect()
    }

    #[test]
    fn initialises_an_empty_directory() {
        let dir = TempDir::new("engine-init");
        let (rec, engine) = StorageEngine::open(dir.path(), cfg()).expect("open");
        assert!(rec.trajs.is_empty());
        assert_eq!(rec.snapshot_shards, 1);
        assert_eq!(rec.next_id, 0);
        assert_eq!(engine.generation(), 0);
        assert_eq!(engine.live(), 0);
        drop(engine);
        // Reopening finds the same (still empty) generation.
        let (rec, engine) = StorageEngine::open(dir.path(), cfg()).expect("reopen");
        assert!(rec.trajs.is_empty());
        assert_eq!(engine.generation(), 0);
    }

    #[test]
    fn appends_survive_reopen() {
        let dir = TempDir::new("engine-append");
        let (_, mut engine) = StorageEngine::open(dir.path(), cfg()).expect("open");
        for i in 0..5 {
            engine.append(&traj(i as f64)).expect("append");
        }
        assert_eq!(engine.live(), 5);
        assert_eq!(engine.next_id(), 5);
        drop(engine);
        let (rec, engine) = StorageEngine::open(dir.path(), cfg()).expect("reopen");
        let want: Vec<Trajectory> = (0..5).map(|i| traj(i as f64)).collect();
        assert_eq!(rec.trajs, dense_pairs(&want));
        assert_eq!(rec.wal_records, 5);
        assert_eq!(rec.next_id, 5);
        assert_eq!(engine.live(), 5);
    }

    #[test]
    fn tombstones_and_reshards_replay_in_order() {
        let dir = TempDir::new("engine-lifecycle");
        let (_, mut engine) = StorageEngine::open(dir.path(), cfg()).expect("open");
        for i in 0..6 {
            engine.append(&traj(i as f64)).expect("append");
        }
        engine.append_tombstones(&[1, 4]).expect("tombstones");
        engine.append_reshard(3).expect("reshard");
        engine.append(&traj(6.0)).expect("append after removal");
        assert_eq!(engine.live(), 5);
        assert_eq!(engine.next_id(), 7, "removal never recycles ids");
        drop(engine);

        let (rec, engine) = StorageEngine::open(dir.path(), cfg()).expect("reopen");
        let want: Vec<(TrajId, Trajectory)> = [0u32, 2, 3, 5, 6]
            .iter()
            .map(|&g| (g, traj(g as f64)))
            .collect();
        assert_eq!(rec.trajs, want);
        assert_eq!(rec.snapshot_shards, 3, "last reshard record wins");
        assert_eq!(rec.next_id, 7);
        assert_eq!(rec.wal_records, 10);
        assert_eq!(engine.live(), 5);
        assert_eq!(engine.next_id(), 7);
    }

    #[test]
    fn tombstone_of_a_dead_id_is_a_hard_replay_error() {
        let dir = TempDir::new("engine-double-kill");
        let (_, mut engine) = StorageEngine::open(dir.path(), cfg()).expect("open");
        engine.append(&traj(0.0)).expect("append");
        engine.append(&traj(1.0)).expect("append");
        // The engine trusts its caller about *which* ids are live (it only
        // tracks the count), so a double tombstone lands in the log — and
        // replay must refuse it.
        engine.append_tombstones(&[0]).expect("first kill");
        engine
            .append_tombstones(&[0])
            .expect("second kill reaches the log");
        drop(engine);
        match StorageEngine::open(dir.path(), cfg()) {
            Err(PersistError::StateMismatch { detail }) => {
                assert!(detail.contains("tombstones id 0"), "{detail}");
            }
            other => panic!("expected StateMismatch, got {other:?}"),
        }
    }

    #[test]
    fn compaction_folds_the_wal_and_prunes() {
        let dir = TempDir::new("engine-compact");
        let (_, mut engine) = StorageEngine::open(dir.path(), cfg()).expect("open");
        let all: Vec<Trajectory> = (0..6).map(|i| traj(i as f64)).collect();
        for t in &all {
            engine.append(t).expect("append");
        }
        // Two shards, dealt by the id router, as a session would hold them.
        let pairs = dense_pairs(&all);
        let sections = deal_sections(&pairs, 2);
        engine.compact(&sections).expect("compact");
        assert_eq!(engine.generation(), 1);
        assert_eq!(engine.wal_records(), 0);
        assert_eq!(engine.live(), 6);
        assert_eq!(engine.next_id(), 6);
        // Old generation's files are gone.
        assert!(!dir.path().join(snapshot_file_name(0)).exists());
        assert!(!dir.path().join(wal_file_name(0)).exists());
        drop(engine);

        let (rec, engine) = StorageEngine::open(dir.path(), cfg()).expect("reopen");
        assert_eq!(rec.trajs, pairs, "merge must restore global order");
        assert_eq!(rec.snapshot_shards, 2);
        assert_eq!(rec.wal_records, 0);
        assert_eq!(engine.generation(), 1);
    }

    #[test]
    fn compaction_drops_tombstoned_ids_for_good() {
        let dir = TempDir::new("engine-compact-dead");
        let (_, mut engine) = StorageEngine::open(dir.path(), cfg()).expect("open");
        let all: Vec<Trajectory> = (0..4).map(|i| traj(i as f64)).collect();
        for t in &all {
            engine.append(t).expect("append");
        }
        engine.append_tombstones(&[2]).expect("tombstone");
        let live: Vec<(TrajId, Trajectory)> =
            [0u32, 1, 3].iter().map(|&g| (g, traj(g as f64))).collect();
        engine.compact(&deal_sections(&live, 2)).expect("compact");
        assert_eq!(engine.live(), 3);
        assert_eq!(engine.next_id(), 4, "the watermark survives compaction");
        drop(engine);
        let (rec, _) = StorageEngine::open(dir.path(), cfg()).expect("reopen");
        assert_eq!(rec.trajs, live);
        assert_eq!(rec.next_id, 4);
    }

    #[test]
    fn compaction_rejects_mismatched_contents() {
        let dir = TempDir::new("engine-compact-guard");
        let (_, mut engine) = StorageEngine::open(dir.path(), cfg()).expect("open");
        engine.append(&traj(0.0)).expect("append");
        // Wrong count.
        assert!(matches!(
            engine.compact(&[Vec::new()]),
            Err(PersistError::StateMismatch { .. })
        ));
        // Right count, wrong section for the id.
        let t = traj(0.0);
        let bad: Vec<Vec<(TrajId, &Trajectory)>> = vec![Vec::new(), vec![(0, &t)]];
        assert!(matches!(
            engine.compact(&bad),
            Err(PersistError::StateMismatch { .. })
        ));
        // Right count, id at the watermark.
        let bad: Vec<Vec<(TrajId, &Trajectory)>> = vec![vec![(7, &t)]];
        assert!(matches!(
            engine.compact(&bad),
            Err(PersistError::StateMismatch { .. })
        ));
    }

    /// What a crash-and-reopen right now would recover, without disturbing
    /// the live engine: the directory's regular files copied aside (a
    /// squatting directory is the injected fault, not database state) and
    /// opened there.
    fn recovered_from_a_copy(dir: &Path) -> Recovered {
        let copy = TempDir::new("engine-copy");
        for entry in fs::read_dir(dir).unwrap().flatten() {
            if entry.file_type().unwrap().is_file() {
                fs::copy(entry.path(), copy.path().join(entry.file_name())).unwrap();
            }
        }
        StorageEngine::open(copy.path(), cfg())
            .expect("copy opens")
            .0
    }

    #[test]
    fn a_failed_compaction_poisons_the_log_until_a_retry_succeeds() {
        let dir = TempDir::new("engine-compact-fail");
        let (_, mut engine) = StorageEngine::open(dir.path(), cfg()).expect("open");
        engine.append(&traj(0.0)).expect("append");
        let acked = vec![(0u32, traj(0.0))];

        // A directory squatting on the next generation's WAL name: the
        // snapshot rename lands, creating the log behind it fails.
        let squatter = dir.path().join(wal_file_name(1));
        fs::create_dir(&squatter).unwrap();
        assert!(matches!(
            engine.compact(&deal_sections(&acked, 1)),
            Err(PersistError::Io(_))
        ));
        // Recovery would now read snapshot 1 and ignore the old log, so the
        // old log must not acknowledge anything more.
        assert!(matches!(
            engine.append(&traj(1.0)),
            Err(PersistError::WalPoisoned)
        ));
        assert!(matches!(
            engine.append_group(&[traj(1.0), traj(2.0)]),
            Err(PersistError::WalPoisoned)
        ));
        assert!(matches!(
            engine.append_tombstones(&[0]),
            Err(PersistError::WalPoisoned)
        ));
        assert!(matches!(engine.sync(), Err(PersistError::WalPoisoned)));
        assert_eq!((engine.live(), engine.next_id()), (1, 1));
        let rec = recovered_from_a_copy(dir.path());
        assert_eq!((rec.trajs, rec.next_id), (acked.clone(), 1));

        // With the obstacle gone the retry installs a fresh log.
        fs::remove_dir(&squatter).unwrap();
        engine
            .compact(&deal_sections(&acked, 1))
            .expect("retried compact");
        assert_eq!(engine.generation(), 1);
        engine.append(&traj(1.0)).expect("appends flow again");
        let acked = vec![(0u32, traj(0.0)), (1, traj(1.0))];
        let rec = recovered_from_a_copy(dir.path());
        assert_eq!((rec.trajs, rec.next_id), (acked.clone(), 2));
        drop(engine);
        let (rec, engine) = StorageEngine::open(dir.path(), cfg()).expect("reopen");
        assert_eq!((rec.trajs, rec.next_id), (acked, 2));
        assert_eq!(engine.generation(), 1);
    }

    #[test]
    fn auto_compaction_trigger_counts_records() {
        let dir = TempDir::new("engine-trigger");
        let config = DurabilityConfig::default().compact_after(Some(3));
        let (_, mut engine) = StorageEngine::open(dir.path(), config).expect("open");
        for i in 0..2 {
            engine.append(&traj(i as f64)).expect("append");
            assert!(!engine.needs_compaction());
        }
        // A tombstone is a record too: the trigger counts log growth, not
        // database growth.
        engine.append_tombstones(&[1]).expect("tombstone");
        assert!(engine.needs_compaction());
    }

    #[test]
    fn fsyncs_count_groups_not_records() {
        // What group commit buys, as a count no clock can blur: the policy
        // is applied once per append call, whatever the group holds.
        let trajs: Vec<Trajectory> = (0..64).map(|i| traj(i as f64)).collect();
        let ids: Vec<TrajId> = (0..64).collect();
        let open = |name: &str, policy: FsyncPolicy| {
            let dir = TempDir::new(name);
            let (_, engine) = StorageEngine::open(dir.path(), cfg().fsync(policy)).expect("open");
            assert_eq!(engine.fsyncs(), 0);
            (dir, engine)
        };

        let (_dir, mut engine) = open("engine-fsyncs-always", FsyncPolicy::Always);
        engine.append_group(&trajs).expect("group");
        assert_eq!(engine.fsyncs(), 1, "one group of 64, one fsync");
        engine.append_tombstones(&ids).expect("tombstone group");
        assert_eq!(engine.fsyncs(), 2, "one tombstone group of 64, one fsync");
        for t in &trajs {
            engine.append(t).expect("single");
        }
        assert_eq!(engine.fsyncs(), 2 + 64, "64 singles, 64 fsyncs");
        // Monotone: a compaction swaps the writer, not the count.
        let live: Vec<(TrajId, Trajectory)> = (64..).zip(trajs.iter().cloned()).collect();
        engine.compact(&deal_sections(&live, 2)).expect("compact");
        assert_eq!(engine.fsyncs(), 2 + 64);
        engine.sync().expect("explicit barrier");
        assert_eq!(engine.fsyncs(), 2 + 64 + 1);

        let (_dir, mut engine) = open("engine-fsyncs-everyn", FsyncPolicy::EveryN(32));
        for t in &trajs {
            engine.append(t).expect("single");
        }
        assert_eq!(engine.fsyncs(), 2, "64 singles at a cadence of 32");

        let (_dir, mut engine) = open("engine-fsyncs-os", FsyncPolicy::OsManaged);
        for t in &trajs {
            engine.append(t).expect("single");
        }
        engine.append_group(&trajs).expect("group");
        assert_eq!(engine.fsyncs(), 0, "the OS flushes on its own schedule");
    }

    #[test]
    fn falls_back_to_an_older_valid_snapshot() {
        let dir = TempDir::new("engine-fallback");
        let (_, mut engine) = StorageEngine::open(dir.path(), cfg()).expect("open");
        engine.append(&traj(0.0)).expect("append");
        let live = vec![(0u32, traj(0.0))];
        engine
            .compact(&deal_sections(&live, 1))
            .expect("compact to gen 1");
        drop(engine);
        // Corrupt generation 1's snapshot body; generation 0 is pruned, so
        // plant a valid older snapshot to fall back to.
        let g1 = dir.path().join(snapshot_file_name(1));
        write_snapshot(dir.path(), 0, &[Vec::new()], 0).expect("plant gen 0");
        let mut bytes = fs::read(&g1).unwrap();
        let len = bytes.len();
        bytes[len - 10] ^= 0xFF;
        fs::write(&g1, &bytes).unwrap();

        let (rec, engine) = StorageEngine::open(dir.path(), cfg()).expect("fallback open");
        assert_eq!(engine.generation(), 0);
        assert!(rec.trajs.is_empty(), "fell back to the older snapshot");
    }

    #[test]
    fn no_fallback_past_a_log_that_holds_records() {
        let dir = TempDir::new("engine-fallback-guard");
        let (_, mut engine) = StorageEngine::open(dir.path(), cfg()).expect("open");
        engine.append(&traj(0.0)).expect("append");
        // Generation 0's files as a crash between the compaction's rename
        // and its prune leaves them.
        let gen0: Vec<(PathBuf, Vec<u8>)> = [snapshot_file_name(0), wal_file_name(0)]
            .into_iter()
            .map(|name| dir.path().join(name))
            .map(|path| (path.clone(), fs::read(&path).unwrap()))
            .collect();
        let live = vec![(0u32, traj(0.0))];
        engine
            .compact(&deal_sections(&live, 1))
            .expect("compact to gen 1");
        engine.append(&traj(1.0)).expect("acknowledged into wal 1");
        drop(engine);
        for (path, bytes) in gen0 {
            fs::write(path, bytes).unwrap();
        }
        let g1 = dir.path().join(snapshot_file_name(1));
        let mut bytes = fs::read(&g1).unwrap();
        let len = bytes.len();
        bytes[len - 10] ^= 0xFF;
        fs::write(&g1, &bytes).unwrap();

        // Generation 0 verifies, but recovering it would drop the insert
        // acknowledged into generation 1's log.
        match StorageEngine::open(dir.path(), cfg()) {
            Err(PersistError::NoUsableSnapshot { cause, .. }) => {
                assert!(matches!(*cause, PersistError::Checksum { .. }), "{cause:?}");
            }
            other => panic!("expected NoUsableSnapshot, got {other:?}"),
        }
    }

    #[test]
    fn all_snapshots_corrupt_is_a_typed_refusal() {
        let dir = TempDir::new("engine-refuse");
        let (_, engine) = StorageEngine::open(dir.path(), cfg()).expect("open");
        drop(engine);
        let path = dir.path().join(snapshot_file_name(0));
        let mut bytes = fs::read(&path).unwrap();
        let len = bytes.len();
        bytes[len - 1] ^= 0x01;
        fs::write(&path, &bytes).unwrap();
        match StorageEngine::open(dir.path(), cfg()) {
            Err(PersistError::NoUsableSnapshot { cause, .. }) => {
                assert!(matches!(*cause, PersistError::Checksum { .. }));
            }
            other => panic!("expected NoUsableSnapshot, got {other:?}"),
        }
    }

    #[test]
    fn missing_wal_after_snapshot_swap_is_recreated_empty() {
        let dir = TempDir::new("engine-missing-wal");
        let (_, mut engine) = StorageEngine::open(dir.path(), cfg()).expect("open");
        engine.append(&traj(0.0)).expect("append");
        let live = vec![(0u32, traj(0.0))];
        engine.compact(&deal_sections(&live, 1)).expect("compact");
        drop(engine);
        fs::remove_file(dir.path().join(wal_file_name(1))).unwrap();
        let (rec, engine) = StorageEngine::open(dir.path(), cfg()).expect("open");
        assert_eq!(rec.trajs, live);
        assert_eq!(rec.wal_records, 0);
        assert_eq!(engine.live(), 1);
    }

    #[test]
    fn wal_base_count_mismatch_is_detected() {
        let dir = TempDir::new("engine-base-mismatch");
        let (_, mut engine) = StorageEngine::open(dir.path(), cfg()).expect("open");
        engine.append(&traj(0.0)).expect("append");
        drop(engine);
        // Replace the WAL with one claiming a different base.
        WalWriter::create(dir.path(), 0, 7, FsyncPolicy::Always).expect("forge wal");
        assert!(matches!(
            StorageEngine::open(dir.path(), cfg()),
            Err(PersistError::StateMismatch { .. })
        ));
    }
}
