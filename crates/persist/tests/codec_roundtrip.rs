//! Property tests for the on-disk codec: every encodable value must
//! round-trip bit-exactly through encode → decode, and the snapshot
//! format must round-trip whole multi-shard databases — including the
//! degenerate shapes (empty store, one long trajectory, adversarial but
//! finite float values).

use proptest::prelude::*;
use traj_core::{ByteReader, StPoint, TrajId, Trajectory};
use traj_persist::tempdir::TempDir;
use traj_persist::{
    crc32, load_snapshot, snapshot_file_name, wal_file_name, write_snapshot, DurabilityConfig,
    StorageEngine,
};

/// Finite f64s that stress the codec: boundary magnitudes, signed zero,
/// subnormals, and ordinary values picked by index. (NaN is excluded by
/// construction: `Trajectory::new` rejects non-finite input, so no NaN
/// ever reaches the encoder.)
fn edge_f64(index: usize) -> f64 {
    const EDGES: [f64; 10] = [
        0.0,
        -0.0,
        1.0,
        -1.5,
        f64::MAX,
        f64::MIN,
        f64::MIN_POSITIVE,
        5e-324, // smallest positive subnormal
        1.234_567_890_123_456_7e100,
        -9.87e-200,
    ];
    EDGES[index % EDGES.len()]
}

/// A valid trajectory whose coordinates are edge-case floats and whose
/// timestamps are the (monotone) point index.
fn edge_trajectory(len: usize, offset: usize) -> Trajectory {
    let points: Vec<StPoint> = (0..len.max(2))
        .map(|i| StPoint::new(edge_f64(offset + i), edge_f64(offset + 3 * i + 1), i as f64))
        .collect();
    Trajectory::new(points).expect("edge floats are finite and times monotone")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// encode → decode is the identity, bit for bit, for trajectories
    /// built from edge-case floats of every length.
    #[test]
    fn trajectory_codec_is_bit_exact(len in 2usize..40, offset in 0usize..10) {
        let t = edge_trajectory(len, offset);
        let bytes = t.encode();
        let mut r = ByteReader::new(&bytes);
        let back = Trajectory::decode(&mut r).expect("round trip");
        prop_assert!(r.is_empty(), "decode must consume exactly what encode wrote");
        // PartialEq on f64 would conflate 0.0 with -0.0; compare bits.
        prop_assert_eq!(t.num_points(), back.num_points());
        for (a, b) in t.points().iter().zip(back.points()) {
            prop_assert_eq!(a.p.x.to_bits(), b.p.x.to_bits());
            prop_assert_eq!(a.p.y.to_bits(), b.p.y.to_bits());
            prop_assert_eq!(a.t.to_bits(), b.t.to_bits());
        }
    }

    /// A whole multi-shard database survives the snapshot file format.
    #[test]
    fn snapshot_round_trips_sharded_stores(
        total in 0usize..30,
        shards in 1usize..5,
        offset in 0usize..10,
    ) {
        // Deal `total` trajectories by the id router, as a session stores
        // them.
        let mut sections: Vec<Vec<(TrajId, Trajectory)>> = vec![Vec::new(); shards];
        for g in 0..total {
            sections[g % shards].push((g as TrajId, edge_trajectory(2 + g % 7, offset + g)));
        }
        let dir = TempDir::new("codec-snapshot");
        let refs: Vec<Vec<(TrajId, &Trajectory)>> = sections
            .iter()
            .map(|s| s.iter().map(|&(g, ref t)| (g, t)).collect())
            .collect();
        write_snapshot(dir.path(), 3, &refs, total as u64).expect("write");
        let back = load_snapshot(&dir.path().join(snapshot_file_name(3)))
            .expect("load");
        prop_assert_eq!(back.sections, sections);
        prop_assert_eq!(back.next_id, total as u64);
    }
}

/// The empty store is a first-class database: a zero-trajectory snapshot
/// round-trips and reports its shard count.
#[test]
fn empty_store_round_trips() {
    let dir = TempDir::new("codec-empty");
    let empty: Vec<Vec<(TrajId, &Trajectory)>> = vec![Vec::new(), Vec::new(), Vec::new()];
    write_snapshot(dir.path(), 0, &empty, 0).expect("write");
    let back = load_snapshot(&dir.path().join(snapshot_file_name(0))).expect("load");
    assert_eq!(back.sections.len(), 3);
    assert!(back.sections.iter().all(|s| s.is_empty()));
    assert_eq!(back.next_id, 0);
}

/// Format rev 2, pinned byte for byte: a fixed 2-shard snapshot and a WAL
/// holding an insert group, a tombstone group and a reshard record must
/// keep the exact length and CRC-32 they had when the constants were
/// recorded. Round trips cannot catch a writer and a reader that drift
/// together; this can.
#[test]
fn format_rev_2_bytes_are_pinned() {
    let dir = TempDir::new("codec-format-pin");
    let t = |x: f64| Trajectory::from_xy(&[(x, 0.5), (x + 1.25, -2.0), (x + 3.0, 4.75)]);
    let (a, b, c) = (t(0.0), t(10.0), t(-7.5));
    // Holey ids with residues matching their sections, watermark above.
    let sections: Vec<Vec<(TrajId, &Trajectory)>> = vec![vec![(0, &a), (4, &b)], vec![(3, &c)]];
    write_snapshot(dir.path(), 0, &sections, 5).expect("write snapshot");
    let snapshot = std::fs::read(dir.path().join(snapshot_file_name(0))).expect("read snapshot");
    assert_eq!(
        (snapshot.len(), crc32(&snapshot)),
        (SNAPSHOT_PIN.0, SNAPSHOT_PIN.1),
        "snapshot bytes drifted"
    );

    // No WAL yet: opening creates generation 0's log over the 3 live
    // trajectories, and the appends below extend it.
    let cfg = DurabilityConfig::default().compact_after(None);
    let (_, mut engine) = StorageEngine::open(dir.path(), cfg).expect("open");
    engine
        .append_group(&[t(1.0), t(2.0)])
        .expect("insert group");
    engine.append_tombstones(&[4, 5]).expect("tombstone group");
    engine.append_reshard(3).expect("reshard");
    drop(engine);
    let wal = std::fs::read(dir.path().join(wal_file_name(0))).expect("read wal");
    assert_eq!(
        (wal.len(), crc32(&wal)),
        (WAL_PIN.0, WAL_PIN.1),
        "wal bytes drifted"
    );
}

/// `(length, CRC-32)` of the pinned files, recorded from the rev-2 writer.
const SNAPSHOT_PIN: (usize, u32) = (316, 0x2E3B_C3FC);
const WAL_PIN: (usize, u32) = (241, 0xC41D_A21D);

/// One very long trajectory — the per-record worst case for the length
/// prefix and checksum framing.
#[test]
fn long_trajectory_round_trips() {
    let points: Vec<StPoint> = (0..10_000)
        .map(|i| StPoint::new(i as f64 * 0.5, (i % 113) as f64, i as f64))
        .collect();
    let t = Trajectory::new(points).expect("valid");
    let bytes = t.encode();
    let mut r = ByteReader::new(&bytes);
    assert_eq!(Trajectory::decode(&mut r).expect("round trip"), t);
    assert!(r.is_empty());
}
