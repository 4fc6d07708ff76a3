//! Durability equivalence grid: a session reopened from disk must answer
//! every query **bitwise identically** to a fresh in-memory session over
//! the same trajectories — across shard counts 1/2/4, for k-NN, range and
//! sub-trajectory search, including after a torn WAL tail and after
//! compaction. Trees are rebuilt on open, so this is the end-to-end proof
//! that tree shape never leaks into results. Beside the grid sit the
//! error and maintenance contracts: storage failures surface as typed
//! errors, a failed compaction refuses writes until a retry succeeds, and
//! forks and in-memory sessions never touch disk. Crashes at arbitrary
//! bytes inside randomized lifecycles are the lifecycle oracle's job
//! (`tests/lifecycle_oracle.rs`).

mod common;

use common::{assert_equivalent, fleet};
use std::fs;
use traj_core::{TrajError, Trajectory};
use traj_index::{DurabilityConfig, FsyncPolicy, Session, TrajStore};
use traj_persist::tempdir::TempDir;

#[test]
fn reopened_sessions_answer_bitwise_identically_across_shard_grid() {
    let trajs = fleet(40, 42);
    let queries = fleet(4, 777);
    for shards in [1usize, 2, 4] {
        let dir = TempDir::new(&format!("durability-grid-{shards}"));
        let session = Session::builder()
            .shards(shards)
            .durability(DurabilityConfig::default().compact_after(None))
            .open(dir.path())
            .expect("open fresh");
        assert!(session.is_durable());
        for t in &trajs {
            session.insert(t.clone()).expect("durable insert");
        }
        drop(session);

        // Reopen without specifying shards: the stored count is reused.
        let reopened = Session::builder().open(dir.path()).expect("reopen");
        assert_eq!(reopened.num_shards(), shards);
        let reference = Session::builder()
            .shards(shards)
            .build(TrajStore::from(trajs.clone()));
        assert_equivalent(&reopened, &reference, &queries);
    }
}

/// The path of the database directory's one live WAL file.
fn wal_path(dir: &TempDir) -> std::path::PathBuf {
    fs::read_dir(dir.path())
        .expect("list")
        .filter_map(|e| e.ok())
        .find(|e| e.file_name().to_string_lossy().ends_with(".wal"))
        .expect("wal file")
        .path()
}

/// Chops `cut` bytes off the end of the live WAL, as a crash mid-append
/// would leave it.
fn tear_wal(dir: &TempDir, cut: usize) {
    let wal = wal_path(dir);
    let bytes = fs::read(&wal).expect("read wal");
    fs::write(&wal, &bytes[..bytes.len() - cut]).expect("tear");
}

#[test]
fn torn_wal_tail_recovers_the_prefix_and_stays_equivalent() {
    let trajs = fleet(25, 7);
    let queries = fleet(3, 99);
    let dir = TempDir::new("durability-torn");
    let session = Session::builder()
        .shards(2)
        .durability(DurabilityConfig::default().compact_after(None))
        .open(dir.path())
        .expect("open");
    for t in &trajs {
        session.insert(t.clone()).expect("insert");
    }
    drop(session);

    // Tear the last record: the final insert is half-written.
    tear_wal(&dir, 7);

    let reopened = Session::builder().open(dir.path()).expect("reopen");
    assert_eq!(reopened.len(), trajs.len() - 1, "torn insert is dropped");
    let reference = Session::builder()
        .shards(2)
        .build(TrajStore::from(trajs[..trajs.len() - 1].to_vec()));
    assert_equivalent(&reopened, &reference, &queries);

    // The recovered session keeps accepting inserts where the prefix ends.
    let id = reopened
        .insert(trajs[trajs.len() - 1].clone())
        .expect("insert after recovery");
    assert_eq!(id as usize, trajs.len() - 1);
}

#[test]
fn batched_inserts_reopen_bitwise_identical_to_singles() {
    let trajs = fleet(36, 11);
    let queries = fleet(3, 1234);
    let dir = TempDir::new("durability-batch");
    let session = Session::builder()
        .shards(3)
        .durability(DurabilityConfig::default().compact_after(None))
        .open(dir.path())
        .expect("open");
    // Two groups, so the WAL holds group boundaries a reader can't see.
    let (first, second) = trajs.split_at(20);
    let ids = session.insert_batch(first.to_vec()).expect("batch insert");
    assert_eq!(ids, (0..20).collect::<Vec<_>>());
    let ids = session.insert_batch(second.to_vec()).expect("batch insert");
    assert_eq!(ids, (20..trajs.len() as u32).collect::<Vec<_>>());
    drop(session);

    let reopened = Session::builder().open(dir.path()).expect("reopen");
    let reference = Session::builder()
        .shards(3)
        .build(TrajStore::from(trajs.clone()));
    assert_equivalent(&reopened, &reference, &queries);

    // And a session that ingested the same data one record at a time is
    // indistinguishable from the batched one after reopen.
    let single_dir = TempDir::new("durability-batch-singles");
    let singles = Session::builder()
        .shards(3)
        .durability(DurabilityConfig::default().compact_after(None))
        .open(single_dir.path())
        .expect("open");
    for t in &trajs {
        singles.insert(t.clone()).expect("insert");
    }
    drop(singles);
    let singles = Session::builder().open(single_dir.path()).expect("reopen");
    assert_equivalent(&reopened, &singles, &queries);
}

#[test]
fn torn_tail_mid_group_commit_recovers_the_group_prefix() {
    let trajs = fleet(18, 21);
    let queries = fleet(3, 404);
    let dir = TempDir::new("durability-torn-group");
    let session = Session::builder()
        .shards(2)
        .durability(DurabilityConfig::default().compact_after(None))
        .open(dir.path())
        .expect("open");
    session.insert_batch(trajs.clone()).expect("group commit");
    drop(session);

    // A crash mid-group leaves a prefix of the group's records intact and
    // the next one half-written; recovery replays exactly that prefix.
    tear_wal(&dir, 7);

    let reopened = Session::builder().open(dir.path()).expect("reopen");
    assert_eq!(reopened.len(), trajs.len() - 1, "torn record is dropped");
    let reference = Session::builder()
        .shards(2)
        .build(TrajStore::from(trajs[..trajs.len() - 1].to_vec()));
    assert_equivalent(&reopened, &reference, &queries);

    // Ingestion resumes where the surviving prefix ends.
    let id = reopened
        .insert(trajs[trajs.len() - 1].clone())
        .expect("insert after recovery");
    assert_eq!(id as usize, trajs.len() - 1);
}

#[test]
fn compaction_preserves_equivalence_and_trims_the_log() {
    let trajs = fleet(30, 3);
    let queries = fleet(3, 55);
    let dir = TempDir::new("durability-compact");
    // Auto-compact every 8 records, relaxed fsync: the torn-tail risk the
    // policy accepts must never corrupt what was already compacted.
    let session = Session::builder()
        .shards(4)
        .durability(
            DurabilityConfig::default()
                .fsync(FsyncPolicy::EveryN(4))
                .compact_after(Some(8)),
        )
        .open(dir.path())
        .expect("open");
    for t in &trajs {
        session.insert(t.clone()).expect("insert");
    }
    session.compact().expect("explicit final compaction");
    session.sync().expect("sync");
    drop(session);

    let reopened = Session::builder().open(dir.path()).expect("reopen");
    assert_eq!(reopened.num_shards(), 4);
    let reference = Session::builder()
        .shards(4)
        .build(TrajStore::from(trajs.clone()));
    assert_equivalent(&reopened, &reference, &queries);
}

#[test]
fn removals_and_reshards_survive_reopen() {
    let trajs = fleet(32, 17);
    let queries = fleet(3, 808);
    let removed: Vec<u32> = vec![0, 5, 13, 21, 30];
    let dir = TempDir::new("durability-lifecycle");
    let session = Session::builder()
        .shards(2)
        .durability(DurabilityConfig::default().compact_after(None))
        .open(dir.path())
        .expect("open");
    session.insert_batch(trajs.clone()).expect("insert");
    session.remove_batch(&removed).expect("remove");
    session.reshard(4).expect("reshard");
    drop(session);

    // Reopen without `.shards(..)`: the logged Reshard's layout is reused.
    let reopened = Session::builder().open(dir.path()).expect("reopen");
    assert_eq!(reopened.num_shards(), 4, "Reshard record sets the layout");
    assert_eq!(reopened.len(), trajs.len() - removed.len());
    for &id in &removed {
        assert!(
            reopened.snapshot().try_get(id).is_err(),
            "removed id {id} must stay dead across reopen"
        );
    }
    // Global ids are stable across remove + reshard + reopen, so an
    // in-memory session running the same ops is the bitwise reference.
    let reference = Session::builder()
        .shards(4)
        .build(TrajStore::from(trajs.clone()));
    reference.remove_batch(&removed).expect("remove in memory");
    assert_equivalent(&reopened, &reference, &queries);

    // Ingestion resumes above the watermark: removed ids are never reused.
    let id = reopened.insert(trajs[0].clone()).expect("insert");
    assert_eq!(id as usize, trajs.len());
}

#[test]
fn tombstones_survive_compaction() {
    let trajs = fleet(24, 29);
    let queries = fleet(3, 606);
    let removed: Vec<u32> = vec![2, 7, 19];
    let dir = TempDir::new("durability-tombstone-compact");
    let session = Session::builder()
        .shards(3)
        .durability(DurabilityConfig::default().compact_after(None))
        .open(dir.path())
        .expect("open");
    session.insert_batch(trajs.clone()).expect("insert");
    session.remove_batch(&removed).expect("remove");
    // Compaction rewrites the snapshot without the dead trajectories and
    // truncates the log — the removal must not resurrect.
    session.compact().expect("compact");
    drop(session);

    let reopened = Session::builder().open(dir.path()).expect("reopen");
    assert_eq!(reopened.len(), trajs.len() - removed.len());
    for &id in &removed {
        assert!(reopened.snapshot().try_get(id).is_err());
    }
    let reference = Session::builder()
        .shards(3)
        .build(TrajStore::from(trajs.clone()));
    reference.remove_batch(&removed).expect("remove in memory");
    assert_equivalent(&reopened, &reference, &queries);
    // The watermark survives compaction too: dead ids stay retired.
    let id = reopened.insert(trajs[0].clone()).expect("insert");
    assert_eq!(id as usize, trajs.len());
}

#[test]
fn torn_tombstone_tail_drops_only_the_removal() {
    let trajs = fleet(12, 31);
    let dir = TempDir::new("durability-torn-tombstone");
    let session = Session::builder()
        .shards(2)
        .durability(DurabilityConfig::default().compact_after(None))
        .open(dir.path())
        .expect("open");
    session.insert_batch(trajs.clone()).expect("insert");
    // Fold the inserts into the snapshot so the WAL holds exactly one
    // record: the tombstone about to be torn.
    session.compact().expect("compact");
    session.remove(3).expect("remove");
    drop(session);

    tear_wal(&dir, 3);

    // A removal whose record was torn simply never happened: the
    // trajectory is back, and the session keeps working.
    let reopened = Session::builder().open(dir.path()).expect("reopen");
    assert_eq!(reopened.len(), trajs.len());
    assert!(reopened.snapshot().try_get(3).is_ok());
    reopened.remove(3).expect("remove again after recovery");
    assert_eq!(reopened.len(), trajs.len() - 1);
}

#[test]
fn clones_of_durable_sessions_fork_in_memory() {
    let dir = TempDir::new("durability-clone");
    let session = Session::builder()
        .durability(DurabilityConfig::default())
        .open(dir.path())
        .expect("open");
    session
        .insert(Trajectory::from_xy(&[(0.0, 0.0), (1.0, 1.0)]))
        .expect("insert");
    let fork = session.clone();
    assert!(session.is_durable());
    assert!(!fork.is_durable(), "a database directory has one writer");
    fork.insert(Trajectory::from_xy(&[(5.0, 5.0), (6.0, 6.0)]))
        .expect("in-memory insert on the fork");
    drop(fork);
    drop(session);
    // Only the durable session's insert survives on disk.
    let reopened = Session::builder().open(dir.path()).expect("reopen");
    assert_eq!(reopened.len(), 1);
}

#[test]
fn storage_failures_surface_as_typed_traj_errors() {
    let dir = TempDir::new("durability-error");
    let session = Session::builder()
        .durability(DurabilityConfig::default())
        .open(dir.path())
        .expect("open");
    session
        .insert(Trajectory::from_xy(&[(0.0, 0.0), (1.0, 1.0)]))
        .expect("insert");
    drop(session);
    // Corrupt the only snapshot: opening must fail with TrajError::Persist,
    // not panic and not silently start empty.
    let snap = fs::read_dir(dir.path())
        .expect("list")
        .filter_map(|e| e.ok())
        .find(|e| e.file_name().to_string_lossy().ends_with(".snap"))
        .expect("snapshot file")
        .path();
    let mut bytes = fs::read(&snap).expect("read");
    let len = bytes.len();
    bytes[len - 3] ^= 0xFF;
    fs::write(&snap, &bytes).expect("corrupt");
    match Session::builder().open(dir.path()) {
        Err(TrajError::Persist { message }) => {
            assert!(message.contains("no usable snapshot"), "{message}");
        }
        other => panic!("expected TrajError::Persist, got {other:?}"),
    }
}

#[test]
fn a_failed_compaction_refuses_writes_until_a_retry_succeeds() {
    let trajs = fleet(6, 11);
    let dir = TempDir::new("durability-compact-fail");
    let session = Session::builder()
        .durability(DurabilityConfig::default().compact_after(None))
        .open(dir.path())
        .expect("open");
    session
        .insert_batch(trajs[..4].to_vec())
        .expect("durable batch");
    // A directory squatting on the next generation's log name fails the
    // compaction after its snapshot landed — from where a reopen would
    // ignore the current log.
    let squatter = dir.path().join(traj_persist::wal_file_name(1));
    fs::create_dir(&squatter).expect("squat");
    assert!(matches!(session.compact(), Err(TrajError::Persist { .. })));
    match session.insert(trajs[4].clone()) {
        Err(TrajError::Persist { message }) => {
            assert!(message.contains("compact or reopen"), "{message}")
        }
        other => panic!("expected the poisoned-log error, got {other:?}"),
    }
    assert!(session.remove(0).is_err());
    assert_eq!(session.len(), 4, "a refused write publishes nothing");

    fs::remove_dir(&squatter).expect("clear");
    session.compact().expect("retried compact");
    assert_eq!(session.insert(trajs[4].clone()), Ok(4), "ids stay monotone");
    drop(session);
    let reopened = Session::builder().open(dir.path()).expect("reopen");
    let reference = Session::build(TrajStore::from(trajs[..5].to_vec()));
    assert_equivalent(&reopened, &reference, &trajs[5..]);
    assert_eq!(reopened.insert(trajs[5].clone()), Ok(5));
}

#[test]
fn in_memory_sessions_report_non_durable_and_noop_maintenance() {
    let session = Session::build(TrajStore::new());
    assert!(!session.is_durable());
    session.compact().expect("no-op compact");
    session.sync().expect("no-op sync");
}
