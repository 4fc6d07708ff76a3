//! Full-database snapshot files: one file per generation, containing one
//! section per shard, swapped in atomically (write-new + rename) by
//! compaction.
//!
//! # Layout (see `docs/FORMAT.md`)
//!
//! ```text
//! offset  size  field
//! 0       8     magic "TRJSNAP1"
//! 8       4     format version (u32 LE, currently 2)
//! 12      4     shard count n (u32 LE, >= 1)
//! 16      8     live trajectory count (u64 LE)
//! 24      8     next_id watermark (u64 LE): smallest never-issued id
//! 32      8     body length in bytes (u64 LE)
//! 40      4     CRC-32 over bytes 0..40 (u32 LE)
//! 44      ...   body: n sections, section s = u64 count_s + count_s
//!               entries; entry = u32 global id + one encoded trajectory
//! 44+body 4     CRC-32 over the body bytes (u32 LE)
//! ```
//!
//! Every entry carries its **explicit global id** (ascending within a
//! section, `≡ s (mod n)`, below the `next_id` watermark) — removals punch
//! holes in the id space, so ids cannot be derived from position.
//!
//! A snapshot is **valid** only if the magic, version and both checksums
//! verify, the declared body length matches the file's actual size, every
//! trajectory decodes, the section counts sum to the declared total, and
//! every id respects the section/ordering/watermark rules — anything less
//! (including any format version other than the current one) surfaces a
//! typed [`PersistError`], and recovery either moves on to an older
//! generation or refuses to open (see
//! [`StorageEngine::open`](crate::StorageEngine::open)). Loading never
//! panics on untrusted bytes.
//!
//! Trees are **not** serialized: on open the TrajTree of every shard is
//! rebuilt from the recovered trajectories (deterministic STR bulk-load +
//! incremental inserts for the WAL tail). Query results never depend on
//! tree shape — the index is exact at any structure — so rebuilding trades
//! a little open-time CPU for a format that cannot desynchronise from the
//! data it indexes.

use crate::crc::crc32;
use crate::error::PersistError;
use crate::{read_header, write_header};
use std::fs::{self, File};
use std::io::Write;
use std::path::{Path, PathBuf};
use traj_core::codec::{put_u32, put_u64, ByteReader};
use traj_core::{TrajId, Trajectory};

/// First eight bytes of every snapshot file.
pub(crate) const SNAPSHOT_MAGIC: [u8; 8] = *b"TRJSNAP1";
/// Fixed header size: magic + version + shard count + live count +
/// next_id watermark + body length + header CRC.
pub const SNAPSHOT_HEADER_LEN: usize = 8 + 4 + 4 + 8 + 8 + 8 + 4;

/// Canonical file name of the snapshot for `generation`.
pub fn snapshot_file_name(generation: u64) -> String {
    format!("snapshot-{generation:08}.snap")
}

/// Parses `name` as `{prefix}{generation}{suffix}`, returning the
/// generation number.
pub(crate) fn parse_generation(name: &str, prefix: &str, suffix: &str) -> Option<u64> {
    let digits = name.strip_prefix(prefix)?.strip_suffix(suffix)?;
    if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok()
}

/// Opens `dir` as a `File` handle and fsyncs it, making a just-renamed or
/// just-created directory entry durable. Directory fsync is a Unix-ism;
/// elsewhere the rename itself is the best available barrier.
pub(crate) fn sync_dir(dir: &Path) -> Result<(), PersistError> {
    #[cfg(unix)]
    File::open(dir)?.sync_all()?;
    #[cfg(not(unix))]
    let _ = dir;
    Ok(())
}

/// The verified contents of a snapshot file: per-shard sections of
/// `(global id, trajectory)` entries plus the id watermark.
#[derive(Debug, Clone, PartialEq)]
pub struct SnapshotContents {
    /// One section per shard; entries ascending by global id, every id
    /// `≡ section (mod shard count)`.
    pub sections: Vec<Vec<(TrajId, Trajectory)>>,
    /// Smallest id the database had never issued when the snapshot was
    /// written. Ids are never reused, so replayed inserts are numbered
    /// from here.
    pub next_id: u64,
}

/// Serialises the full snapshot payload for the given shard sections
/// (borrowed trajectories, so callers can hand over composite views —
/// e.g. a shard's live base chained with its delta buffer — without
/// materialising a copy).
fn encode_snapshot(shards: &[Vec<(TrajId, &Trajectory)>], next_id: u64) -> Vec<u8> {
    let total: u64 = shards.iter().map(|s| s.len() as u64).sum();
    let mut body = Vec::new();
    for section in shards {
        put_u64(&mut body, section.len() as u64);
        for (gid, t) in section {
            put_u32(&mut body, *gid);
            t.encode_into(&mut body);
        }
    }
    let header = write_header(&SNAPSHOT_MAGIC, |h| {
        put_u32(h, shards.len() as u32);
        put_u64(h, total);
        put_u64(h, next_id);
        put_u64(h, body.len() as u64);
    });
    [&header[..], &body, &crc32(&body).to_le_bytes()].concat()
}

/// Writes the snapshot for `generation` atomically: the bytes go to a
/// `.tmp` sibling first, are fsynced, and only then renamed over the final
/// name (followed by a directory fsync) — so a crash at any point leaves
/// either the complete new snapshot or no snapshot under that name, never
/// a half-written one.
pub fn write_snapshot(
    dir: &Path,
    generation: u64,
    shards: &[Vec<(TrajId, &Trajectory)>],
    next_id: u64,
) -> Result<PathBuf, PersistError> {
    let bytes = encode_snapshot(shards, next_id);
    let final_path = dir.join(snapshot_file_name(generation));
    let tmp_path = dir.join(format!("{}.tmp", snapshot_file_name(generation)));
    {
        let mut f = File::create(&tmp_path)?;
        f.write_all(&bytes)?;
        f.sync_all()?;
    }
    fs::rename(&tmp_path, &final_path)?;
    sync_dir(dir)?;
    Ok(final_path)
}

/// Loads and fully verifies the snapshot at `path`. Strict: any
/// corruption — torn tail, flipped bit, unknown version, section counts
/// or ids that disagree with the header — is a typed error, never a panic
/// and never a partial result.
pub fn load_snapshot(path: &Path) -> Result<SnapshotContents, PersistError> {
    let bytes = fs::read(path)?;
    let (mut r, rest) = read_header(
        &bytes,
        &SNAPSHOT_MAGIC,
        SNAPSHOT_HEADER_LEN,
        "snapshot header",
    )?;
    let shard_count = r.u32()?;
    let total = r.u64()?;
    let next_id = r.u64()?;
    let body_len = r.u64()?;

    let needed = body_len.checked_add(4).ok_or(PersistError::StateMismatch {
        detail: format!("snapshot body length {body_len} overflows"),
    })?;
    if (rest.len() as u64) != needed {
        return Err(PersistError::Truncated {
            what: "snapshot body",
            needed,
            got: rest.len() as u64,
        });
    }
    let (body, crc_bytes) = rest.split_at(body_len as usize);
    let stored_body_crc = u32::from_le_bytes(crc_bytes.try_into().expect("4-byte slice"));
    let computed_body_crc = crc32(body);
    if stored_body_crc != computed_body_crc {
        return Err(PersistError::Checksum {
            what: "snapshot body",
            stored: stored_body_crc,
            computed: computed_body_crc,
        });
    }

    let sections = decode_sections(body, shard_count)?;
    let seen: u64 = sections.iter().map(|s| s.len() as u64).sum();
    if seen != total {
        return Err(PersistError::StateMismatch {
            detail: format!("header declares {total} trajectories, sections hold {seen}"),
        });
    }
    check_sections(&sections, next_id)?;
    Ok(SnapshotContents { sections, next_id })
}

/// The id discipline of a snapshot's sections, which the router and replay
/// rely on: at least one section, and in section `s` of `n` every id is
/// `≡ s (mod n)`, strictly above its predecessor and below the `next_id`
/// watermark. Checked on load and, before any byte is written, on the
/// sections a compaction hands over.
pub(crate) fn check_sections<T>(
    sections: &[Vec<(TrajId, T)>],
    next_id: u64,
) -> Result<(), PersistError> {
    let n = sections.len() as u64;
    if n == 0 {
        return Err(PersistError::StateMismatch {
            detail: "a snapshot needs at least one section".into(),
        });
    }
    for (s, section) in (0..).zip(sections) {
        // Smallest id the next entry may carry.
        let mut floor = 0;
        for (gid, _) in section {
            let gid = u64::from(*gid);
            if gid % n != s || gid < floor || gid >= next_id {
                return Err(PersistError::StateMismatch {
                    detail: format!(
                        "id {gid} breaks section {s} of {n}: ids ascend, are \
                         {s} mod {n} and stay below the watermark {next_id}"
                    ),
                });
            }
            floor = gid + 1;
        }
    }
    Ok(())
}

/// Bytes every entry consumes before its points: `u32` id + `u64` count.
const ENTRY_PREFIX_LEN: usize = 4 + 8;

/// Decodes the checksum-verified body into per-shard sections — the one
/// decoder, so every malformation surfaces as the same typed error.
fn decode_sections(
    body: &[u8],
    shard_count: u32,
) -> Result<Vec<Vec<(TrajId, Trajectory)>>, PersistError> {
    let mut r = ByteReader::new(body);
    let mut sections = Vec::with_capacity(shard_count as usize);
    for _ in 0..shard_count {
        // Every entry consumes at least its prefix, which bounds plausible
        // section counts.
        let count = r.checked_count(ENTRY_PREFIX_LEN)?;
        let mut section = Vec::with_capacity(count);
        for _ in 0..count {
            section.push((r.u32()?, Trajectory::decode(&mut r)?));
        }
        sections.push(section);
    }
    if !r.is_empty() {
        return Err(PersistError::StateMismatch {
            detail: format!("{} trailing bytes after the last section", r.remaining()),
        });
    }
    Ok(sections)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tempdir::TempDir;
    use crate::FORMAT_VERSION;

    fn traj(x: f64) -> Trajectory {
        Trajectory::from_xy(&[(x, 0.0), (x + 1.0, 1.0)])
    }

    /// Borrows `sections` with the dense round-robin ids a fresh build
    /// deals: entry `j` of section `s` gets id `s + j * n`.
    fn dense<'a>(sections: &[&'a [Trajectory]]) -> Vec<Vec<(TrajId, &'a Trajectory)>> {
        let n = sections.len() as u32;
        sections
            .iter()
            .enumerate()
            .map(|(s, sec)| {
                sec.iter()
                    .enumerate()
                    .map(|(j, t)| (s as TrajId + j as TrajId * n, t))
                    .collect()
            })
            .collect()
    }

    fn owned(sections: Vec<Vec<(TrajId, &Trajectory)>>) -> Vec<Vec<(TrajId, Trajectory)>> {
        sections
            .into_iter()
            .map(|sec| sec.into_iter().map(|(g, t)| (g, t.clone())).collect())
            .collect()
    }

    #[test]
    fn round_trips_sections_bit_exactly() {
        let dir = TempDir::new("snapshot-roundtrip");
        let s0 = vec![traj(0.0), traj(2.0)];
        let s1 = vec![traj(1.0)];
        let sections = dense(&[&s0, &s1]);
        let path = write_snapshot(dir.path(), 3, &sections, 4).expect("write");
        assert!(path.ends_with("snapshot-00000003.snap"));
        let loaded = load_snapshot(&path).expect("load");
        assert_eq!(loaded.sections, owned(sections));
        assert_eq!(loaded.next_id, 4);
    }

    #[test]
    fn round_trips_holey_ids() {
        // Ids with removal holes: section residues still respected, but
        // nothing dense — exactly what a post-removal compaction writes.
        let dir = TempDir::new("snapshot-holey");
        let (a, b, c) = (traj(0.0), traj(1.0), traj(2.0));
        let sections: Vec<Vec<(TrajId, &Trajectory)>> = vec![vec![(0, &a), (6, &b)], vec![(3, &c)]];
        let path = write_snapshot(dir.path(), 0, &sections, 9).expect("write");
        let loaded = load_snapshot(&path).expect("load");
        assert_eq!(loaded.sections, owned(sections));
        assert_eq!(loaded.next_id, 9);
    }

    #[test]
    fn empty_store_snapshot_round_trips() {
        let dir = TempDir::new("snapshot-empty");
        let path = write_snapshot(dir.path(), 0, &[Vec::new()], 0).expect("write");
        let loaded = load_snapshot(&path).expect("load");
        assert_eq!(loaded.sections, vec![Vec::new()]);
        assert_eq!(loaded.next_id, 0);
    }

    #[test]
    fn rejects_id_discipline_violations() {
        let dir = TempDir::new("snapshot-ids");
        let (a, b) = (traj(0.0), traj(1.0));

        // Wrong residue: id 1 in section 0 of 2.
        let bad: Vec<Vec<(TrajId, &Trajectory)>> = vec![vec![(1, &a)], vec![]];
        let path = write_snapshot(dir.path(), 0, &bad, 2).expect("write");
        assert!(matches!(
            load_snapshot(&path),
            Err(PersistError::StateMismatch { .. })
        ));

        // Not ascending.
        let bad: Vec<Vec<(TrajId, &Trajectory)>> = vec![vec![(2, &a), (0, &b)]];
        let path = write_snapshot(dir.path(), 1, &bad, 3).expect("write");
        assert!(matches!(
            load_snapshot(&path),
            Err(PersistError::StateMismatch { .. })
        ));

        // At the watermark.
        let bad: Vec<Vec<(TrajId, &Trajectory)>> = vec![vec![(5, &a)]];
        let path = write_snapshot(dir.path(), 2, &bad, 5).expect("write");
        assert!(matches!(
            load_snapshot(&path),
            Err(PersistError::StateMismatch { .. })
        ));
    }

    #[test]
    fn large_uneven_snapshot_round_trips() {
        // Over a thousand entries in uneven sections with varied point
        // counts.
        let dir = TempDir::new("snapshot-large");
        let many: Vec<Trajectory> = (0..1324)
            .map(|i| {
                let x = i as f64;
                if i % 3 == 0 {
                    Trajectory::from_xy(&[(x, 0.0), (x + 1.0, 1.0), (x + 2.0, 0.5)])
                } else {
                    traj(x)
                }
            })
            .collect();
        let (s0, s1) = many.split_at(519);
        // Residue-respecting but holey ids: section 0 even, section 1 odd.
        let sections: Vec<Vec<(TrajId, &Trajectory)>> = vec![
            s0.iter()
                .enumerate()
                .map(|(j, t)| (2 * j as TrajId, t))
                .collect(),
            s1.iter()
                .enumerate()
                .map(|(j, t)| (2 * j as TrajId + 1, t))
                .collect(),
        ];
        let watermark = 2 * many.len() as u64;
        let path = write_snapshot(dir.path(), 0, &sections, watermark).expect("write");
        let loaded = load_snapshot(&path).expect("load");
        assert_eq!(loaded.sections, owned(sections));
        assert_eq!(loaded.next_id, watermark);
    }

    #[test]
    fn rejects_wrong_magic_and_future_version() {
        let dir = TempDir::new("snapshot-magic");
        let t = traj(0.0);
        let path = write_snapshot(dir.path(), 0, &[vec![(0, &t)]], 1).expect("write");
        let mut bytes = fs::read(&path).unwrap();
        let good = bytes.clone();

        bytes[0] = b'X';
        fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            load_snapshot(&path),
            Err(PersistError::BadMagic {
                what: "snapshot",
                ..
            })
        ));

        // Bump the version (and fix the header CRC so only the version is
        // at fault).
        let mut bytes = good;
        bytes[8..12].copy_from_slice(&(FORMAT_VERSION + 1).to_le_bytes());
        let fixed = crc32(&bytes[..SNAPSHOT_HEADER_LEN - 4]);
        bytes[SNAPSHOT_HEADER_LEN - 4..SNAPSHOT_HEADER_LEN].copy_from_slice(&fixed.to_le_bytes());
        fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            load_snapshot(&path),
            Err(PersistError::UnsupportedVersion {
                what: "snapshot",
                supported: FORMAT_VERSION,
                ..
            })
        ));
    }

    #[test]
    fn a_real_version_1_header_is_unsupported_not_misread() {
        // The retired revision-1 layout: a 36-byte header without the
        // watermark, sections without per-entry ids. Its bytes must never
        // be parsed under this revision's layout.
        let dir = TempDir::new("snapshot-v1");
        let path = dir.path().join(snapshot_file_name(0));
        let mut body = Vec::new();
        put_u64(&mut body, 1);
        traj(0.0).encode_into(&mut body);
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&SNAPSHOT_MAGIC);
        put_u32(&mut bytes, 1); // version
        put_u32(&mut bytes, 1); // shards
        put_u64(&mut bytes, 1); // total
        put_u64(&mut bytes, body.len() as u64);
        let header_crc = crc32(&bytes);
        put_u32(&mut bytes, header_crc);
        let body_crc = crc32(&body);
        bytes.extend_from_slice(&body);
        put_u32(&mut bytes, body_crc);
        fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            load_snapshot(&path),
            Err(PersistError::UnsupportedVersion {
                what: "snapshot",
                found: 1,
                supported: FORMAT_VERSION,
            })
        ));
    }

    #[test]
    fn every_truncation_is_typed() {
        let dir = TempDir::new("snapshot-trunc");
        let (a, b) = (traj(0.0), traj(1.0));
        let path = write_snapshot(dir.path(), 0, &[vec![(0, &a), (1, &b)]], 2).expect("write");
        let bytes = fs::read(&path).unwrap();
        for cut in 0..bytes.len() {
            fs::write(&path, &bytes[..cut]).unwrap();
            let err = load_snapshot(&path).expect_err("truncated snapshot must not load");
            assert!(
                matches!(
                    err,
                    PersistError::Truncated { .. } | PersistError::Checksum { .. }
                ),
                "cut {cut}: unexpected {err:?}"
            );
        }
    }

    #[test]
    fn every_body_bit_flip_is_a_checksum_error() {
        let dir = TempDir::new("snapshot-flip");
        let t = traj(0.0);
        let path = write_snapshot(dir.path(), 0, &[vec![(0, &t)]], 1).expect("write");
        let bytes = fs::read(&path).unwrap();
        for byte in SNAPSHOT_HEADER_LEN..bytes.len() - 4 {
            let mut flipped = bytes.clone();
            flipped[byte] ^= 0x10;
            fs::write(&path, &flipped).unwrap();
            assert!(
                matches!(
                    load_snapshot(&path),
                    Err(PersistError::Checksum {
                        what: "snapshot body",
                        ..
                    })
                ),
                "flip at {byte} went undetected"
            );
        }
    }

    #[test]
    fn generation_parsing() {
        assert_eq!(
            parse_generation("snapshot-00000042.snap", "snapshot-", ".snap"),
            Some(42)
        );
        assert_eq!(
            parse_generation("snapshot-00000042.snap.tmp", "snapshot-", ".snap"),
            None
        );
        assert_eq!(
            parse_generation("snapshot-.snap", "snapshot-", ".snap"),
            None
        );
        assert_eq!(parse_generation("wal-0001.wal", "snapshot-", ".snap"), None);
    }
}
