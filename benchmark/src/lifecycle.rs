//! One run of one workload: set-up, the query section, the ingest section
//! (a writer beside a reader), the recover section, and the checks after
//! each. Every call into the engine goes through the public `Session` API
//! and is timed from this file.

use crate::inputs::{self, Digest, Inputs, Kind, Op};
use crate::spec::{
    Spec, BATCH, COMPACT_AFTER, DURABLE_SHARDS, GROUP, K, REMOVE_BATCH, ROUNDS, SETUP_REPEATS,
    VERIFY_PER_KIND,
};
use crate::stats::Samples;
use crate::trace::Recorder;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;
use traj_core::{TrajError, Trajectory};
use traj_dist::EdwpScratch;
use traj_index::{
    DurabilityConfig, FsyncPolicy, Metric, Neighbor, QueryResult, Session, TrajStore,
};

/// How a run was asked to execute.
#[derive(Debug, Clone)]
pub struct RunConfig {
    pub seed: u64,
    pub trace: bool,
    /// Directory the durable sessions live in; removed when the run ends.
    pub scratch: PathBuf,
    /// Client threads a `batch()` call may use: the machine's CPU count.
    pub threads: usize,
}

/// The flush policy of every durable session: group commits fsync before
/// they are acknowledged, and the log folds into a snapshot every
/// [`COMPACT_AFTER`] records.
pub fn durability() -> DurabilityConfig {
    DurabilityConfig::default()
        .fsync(FsyncPolicy::Always)
        .compact_after(Some(COMPACT_AFTER))
}

/// Everything the sections measured, before it is reduced to metrics.
#[derive(Debug, Default)]
pub struct Measured {
    pub setup_s: Samples,
    pub knn_ms: Samples,
    pub norm_ms: Samples,
    pub sub_ms: Samples,
    pub range_ms: Samples,
    pub range_hits: usize,
    /// Milliseconds each `batch()` call of [`BATCH`] queries took.
    pub batch_ms: Samples,
    pub insert_batch_ms: Samples,
    pub insert_ms: Samples,
    pub remove_batch_ms: Samples,
    pub remove_ms: Samples,
    pub reshard_ms: Samples,
    /// Seconds the writer scripts took, over all rounds, and trajectories
    /// they inserted.
    pub script_s: f64,
    pub ingested: usize,
    pub reader_knn_ms: Samples,
    pub acquire_us: Samples,
    pub quiescent_knn_ms: Samples,
    pub compact_ms: f64,
    pub open_ms: Samples,
    pub disk_bytes: u64,
    pub user_bytes: u64,
    /// Indexed and brute-force time on the verified sample.
    pub verify_indexed_ms: f64,
    pub verify_brute_ms: f64,
    /// Traced run only: bytes the ingest script wrote, the user bytes it
    /// inserted, and the longest group commit that straddled a compaction.
    pub script_bytes_written: u64,
    pub script_user_bytes: u64,
    pub stall_ms_max: f64,
    /// Trajectories the scripts removed so far.
    pub removed: usize,
    pub attempted: u64,
    pub failed: u64,
    pub answers: Digest,
}

impl Measured {
    fn fail(&mut self, what: &str) {
        self.failed += 1;
        eprintln!("FAILED: {what}");
    }

    fn check(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.fail(what);
        }
    }
}

/// The sessions and directories one set-up produces.
pub struct World {
    pub inputs: Inputs,
    /// In-memory session the query section runs on.
    pub query: Session,
    /// Durable session the ingest section writes to.
    pub durable: Session,
    /// Durable session whose directory becomes the crash image.
    pub image: Option<Session>,
    pub dirs: Dirs,
}

#[derive(Debug, Clone)]
pub struct Dirs {
    pub root: PathBuf,
    pub durable: PathBuf,
    pub image: PathBuf,
    pub copy: PathBuf,
    pub probe: PathBuf,
}

impl Dirs {
    pub fn new(cfg: &RunConfig, workload: &str) -> Self {
        let root = cfg
            .scratch
            .join(format!("{workload}-{}-{}", cfg.seed, std::process::id()));
        Dirs {
            durable: root.join("durable"),
            image: root.join("image"),
            copy: root.join("copy"),
            probe: root.join("probe"),
            root,
        }
    }
}

fn ms(from: Instant, to: Instant) -> f64 {
    to.duration_since(from).as_secs_f64() * 1e3
}

/// Total size of the regular files in `dir`.
pub fn dir_bytes(dir: &Path) -> std::io::Result<u64> {
    let mut total = 0;
    for entry in fs::read_dir(dir)? {
        total += entry?.metadata()?.len();
    }
    Ok(total)
}

/// The one file in `dir` with this extension (a compacted directory holds
/// exactly one snapshot and one WAL).
pub fn file_with_ext(dir: &Path, ext: &str) -> std::io::Result<PathBuf> {
    let mut found: Vec<PathBuf> = fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|e| e == ext))
        .collect();
    found.sort();
    found.pop().ok_or_else(|| {
        std::io::Error::new(
            std::io::ErrorKind::NotFound,
            format!("no .{ext} file in {}", dir.display()),
        )
    })
}

pub fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    let _ = fs::remove_dir_all(to);
    fs::create_dir_all(to)?;
    for entry in fs::read_dir(from)? {
        let entry = entry?;
        fs::copy(entry.path(), to.join(entry.file_name()))?;
    }
    Ok(())
}

/// Creates a durable database holding `trajs` as one compacted snapshot,
/// through the session API: the preload lands in the delta buffers (the
/// merge threshold is out of reach), so no tree is grown one insert at a
/// time only to be thrown away. Returns the still-open session.
fn preload(dir: &Path, trajs: &[Trajectory]) -> Result<Session, TrajError> {
    let _ = fs::remove_dir_all(dir);
    let session = Session::builder()
        .shards(DURABLE_SHARDS)
        .durability(durability())
        .delta_merge_threshold(usize::MAX)
        .open(dir)?;
    session.insert_batch(trajs.to_vec())?;
    session.compact()?;
    Ok(session)
}

/// One complete set-up: generate the inputs, bulk-load the in-memory query
/// session, create and reopen the durable session, and write the crash
/// image (snapshot plus WAL tail).
pub fn set_up(spec: &Spec, cfg: &RunConfig) -> Result<World, TrajError> {
    let dirs = Dirs::new(cfg, spec.name);
    let inputs = inputs::generate(spec, cfg.seed);
    let query = Session::builder()
        .shards(spec.shards)
        .build(TrajStore::from(inputs.stored.clone()));

    drop(preload(&dirs.durable, &inputs.durable[..spec.durable_n])?);
    // Reopening bulk-loads the shard trees, as every later open will.
    let durable = Session::builder()
        .durability(durability())
        .open(&dirs.durable)?;

    let image = preload(&dirs.image, &inputs.durable[..spec.image_n])?;
    for group in inputs.tail.chunks(GROUP) {
        image.insert_batch(group.to_vec())?;
    }
    for group in inputs.tail_tombstones.chunks(REMOVE_BATCH) {
        image.remove_batch(group)?;
    }
    Ok(World {
        inputs,
        query,
        durable,
        image: Some(image),
        dirs,
    })
}

fn digest_neighbors(d: &mut Digest, ns: &[Neighbor]) {
    for n in ns {
        d.u64(u64::from(n.id));
        d.u64(n.distance.to_bits());
    }
}

fn same_answer(a: &[Neighbor], b: &[Neighbor]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.id == y.id && x.distance.to_bits() == y.distance.to_bits())
}

fn single(session: &mut Session, kind: Kind, q: &Trajectory, eps: f64, brute: bool) -> QueryResult {
    let b = session.query(q);
    let b = if brute { b.brute_force() } else { b };
    match kind {
        Kind::Knn => b.knn(K),
        Kind::Norm => b.metric(Metric::EdwpNormalized).knn(K),
        Kind::Sub => b.sub().knn(K),
        Kind::Range => b.range(eps),
    }
}

fn span_name(kind: Kind) -> &'static str {
    match kind {
        Kind::Knn => "session.query.knn",
        Kind::Norm => "session.query.knn_normalized",
        Kind::Sub => "session.query.sub_knn",
        Kind::Range => "session.query.range",
    }
}

/// What the query rounds answered, kept for the check after the last one.
#[derive(Default)]
struct QueryLog {
    /// `(latency ms, neighbours)` of every single query, in issue order.
    singles: Vec<(f64, Vec<Neighbor>)>,
    /// The first answer of every `batch()` call.
    batch_firsts: Vec<Vec<Neighbor>>,
}

/// One round of the query section: one client, closed loop, the round's
/// single queries in their fixed interleave, then its `batch()` calls.
fn query_round(
    spec: &Spec,
    cfg: &RunConfig,
    world: &mut World,
    r: usize,
    rec: &mut Recorder,
    m: &mut Measured,
    log: &mut QueryLog,
) {
    let section = rec.enter("section.query");
    let session = &mut world.query;
    let round = &world.inputs.rounds[r];
    for (kind, q) in &round.singles {
        let t0 = Instant::now();
        let r = single(session, *kind, q, spec.range_eps, false);
        let t1 = Instant::now();
        rec.record(span_name(*kind), t0, t1);
        let dt = ms(t0, t1);
        match kind {
            Kind::Knn => m.knn_ms.push(dt),
            Kind::Norm => m.norm_ms.push(dt),
            Kind::Sub => m.sub_ms.push(dt),
            Kind::Range => {
                m.range_ms.push(dt);
                m.range_hits += r.neighbors.len();
            }
        }
        digest_neighbors(&mut m.answers, &r.neighbors);
        log.singles.push((dt, r.neighbors));
    }
    m.attempted += round.singles.len() as u64;

    for batch in &round.batches {
        let t0 = Instant::now();
        let mut r = session.batch(batch).threads(cfg.threads).knn(K);
        let t1 = Instant::now();
        rec.record("session.batch.knn", t0, t1);
        m.batch_ms.push(ms(t0, t1));
        for ns in &r.neighbors {
            digest_neighbors(&mut m.answers, ns);
        }
        log.batch_firsts.push(r.neighbors.swap_remove(0));
    }
    m.attempted += round.batches.len() as u64;
    rec.exit(section);
}

/// Check of the query section: re-answer a fixed 1-in-N sample of every
/// kind by brute force and compare bitwise.
fn verify_queries(
    spec: &Spec,
    world: &mut World,
    rec: &mut Recorder,
    m: &mut Measured,
    log: &QueryLog,
) {
    let verify = rec.enter("section.query.verify");
    let session = &mut world.query;
    let singles: Vec<&(Kind, Trajectory)> = world
        .inputs
        .rounds
        .iter()
        .flat_map(|r| &r.singles)
        .collect();
    for kind in [Kind::Knn, Kind::Norm, Kind::Sub, Kind::Range] {
        let of_kind: Vec<usize> = (0..singles.len())
            .filter(|&i| singles[i].0 == kind)
            .collect();
        let stride = of_kind.len().div_ceil(VERIFY_PER_KIND).max(1);
        for &i in of_kind.iter().step_by(stride) {
            let t0 = Instant::now();
            let brute = single(session, kind, &singles[i].1, spec.range_eps, true);
            let t1 = Instant::now();
            rec.record("session.query.brute_force", t0, t1);
            m.verify_brute_ms += ms(t0, t1);
            m.verify_indexed_ms += log.singles[i].0;
            let ok = same_answer(&brute.neighbors, &log.singles[i].1);
            m.check(
                ok,
                &format!("query {i} ({kind:?}) differs from brute force"),
            );
        }
    }
    let batches = world.inputs.rounds.iter().flat_map(|r| &r.batches);
    for (batch, got) in batches.zip(&log.batch_firsts).take(VERIFY_PER_KIND) {
        let brute = single(session, Kind::Knn, &batch[0], spec.range_eps, true);
        m.check(
            same_answer(&brute.neighbors, got),
            "batch answer differs from brute force",
        );
    }
    rec.exit(verify);
}

/// Tells the reader to stop when the writer is done — or has panicked, so
/// a bug in the script cannot leave the scope waiting on the reader.
struct StopOnDrop<'a>(&'a AtomicBool);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::SeqCst);
    }
}

/// The reader beside the writer: acquire the current epoch, answer one
/// k-NN on it, until the script ends.
fn reader_loop(
    session: &Session,
    queries: &[Trajectory],
    done: &AtomicBool,
    mut rec: Recorder,
) -> (Samples, Samples, Recorder) {
    let (mut acquire_us, mut knn_ms) = (Samples::default(), Samples::default());
    let mut scratch = EdwpScratch::new();
    for q in queries.iter().cycle() {
        let t0 = Instant::now();
        let snapshot = session.snapshot();
        let t1 = Instant::now();
        let r = snapshot.query(q).scratch(&mut scratch).knn(K);
        let t2 = Instant::now();
        let _ = std::hint::black_box(r);
        rec.record("session.snapshot", t0, t1);
        rec.record("snapshot.query.knn", t1, t2);
        acquire_us.push(ms(t0, t1) * 1e3);
        knn_ms.push(ms(t1, t2));
        if done.load(Ordering::SeqCst) {
            break;
        }
    }
    (acquire_us, knn_ms, rec)
}

/// Bytes on disk after each write, from the outside: the log grows by what
/// was appended, and a new snapshot name means a compaction rewrote the
/// live set first.
struct DirWatch {
    snapshot: PathBuf,
    wal_len: u64,
}

impl DirWatch {
    fn new(dir: &Path) -> std::io::Result<Self> {
        Ok(DirWatch {
            snapshot: file_with_ext(dir, "snap")?,
            wal_len: fs::metadata(file_with_ext(dir, "wal")?)?.len(),
        })
    }

    /// `(bytes written since the last call, whether a compaction ran)`.
    fn written(&mut self, dir: &Path) -> std::io::Result<(u64, bool)> {
        let snapshot = file_with_ext(dir, "snap")?;
        let wal_len = fs::metadata(file_with_ext(dir, "wal")?)?.len();
        let compacted = snapshot != self.snapshot;
        let written = if compacted {
            fs::metadata(&snapshot)?.len() + wal_len
        } else {
            wal_len - self.wal_len
        };
        self.snapshot = snapshot;
        self.wal_len = wal_len;
        Ok((written, compacted))
    }
}

/// One round of the ingest section: the writer runs the round's script on
/// this thread while one reader thread queries the live session.
fn ingest_round(world: &World, round_index: usize, rec: &mut Recorder, m: &mut Measured) {
    let section = rec.enter("section.ingest");
    let session = &world.durable;
    let inputs = &world.inputs;
    let round = &inputs.rounds[round_index];
    let done = AtomicBool::new(false);
    let mut watch = rec
        .enabled()
        .then(|| DirWatch::new(&world.dirs.durable).expect("durable directory is readable"));
    let reader_rec = rec.fork(1 + round_index as u64);
    let mut inserted = 0usize;

    let (acquire_us, reader_knn_ms, reader_rec) = std::thread::scope(|scope| {
        let reader = scope.spawn(|| reader_loop(session, &inputs.reader, &done, reader_rec));
        let stop = StopOnDrop(&done);
        let script_start = Instant::now();
        for op in &round.script {
            let t0 = Instant::now();
            let (name, result, samples) = match op {
                Op::InsertBatch(r) => (
                    "session.insert_batch",
                    session
                        .insert_batch(inputs.feed[r.clone()].to_vec())
                        .map(|ids| inserted += ids.len()),
                    &mut m.insert_batch_ms,
                ),
                Op::Insert(i) => (
                    "session.insert",
                    session
                        .insert(inputs.feed[*i].clone())
                        .map(|_| inserted += 1),
                    &mut m.insert_ms,
                ),
                Op::RemoveBatch(ids) => (
                    "session.remove_batch",
                    session.remove_batch(ids).map(|()| m.removed += ids.len()),
                    &mut m.remove_batch_ms,
                ),
                Op::Remove(id) => (
                    "session.remove",
                    session.remove(*id).map(|()| m.removed += 1),
                    &mut m.remove_ms,
                ),
                Op::Reshard(n) => ("session.reshard", session.reshard(*n), &mut m.reshard_ms),
            };
            let t1 = Instant::now();
            rec.record(name, t0, t1);
            samples.push(ms(t0, t1));
            m.attempted += 1;
            if let Err(e) = result {
                m.failed += 1;
                eprintln!("FAILED: {name}: {e}");
            }
            if let Some(watch) = &mut watch {
                let (written, compacted) = watch
                    .written(&world.dirs.durable)
                    .expect("durable directory is readable");
                m.script_bytes_written += written;
                if compacted && matches!(op, Op::InsertBatch(_)) {
                    m.stall_ms_max = m.stall_ms_max.max(ms(t0, t1));
                }
            }
        }
        m.script_s += script_start.elapsed().as_secs_f64();
        drop(stop);
        reader.join().expect("reader thread panicked")
    });
    rec.absorb(reader_rec);
    m.attempted += reader_knn_ms.len() as u64;
    m.acquire_us.0.extend(acquire_us.0);
    m.reader_knn_ms.0.extend(reader_knn_ms.0);
    m.ingested += inserted;
    rec.exit(section);
}

/// Checks of the ingest section: the live count is what the scripts imply,
/// and the final state answers like brute force. The same queries, with
/// the writer gone, give the quiescent latency the reader's is compared
/// against.
fn verify_ingest(spec: &Spec, world: &World, rec: &mut Recorder, m: &mut Measured) {
    let verify = rec.enter("section.ingest.verify");
    let session = &world.durable;
    let expected = spec.durable_n + m.ingested - m.removed;
    m.check(session.len() == expected, "live count after the scripts");
    let snapshot = session.snapshot();
    let mut scratch = EdwpScratch::new();
    for (i, q) in world.inputs.reader.iter().enumerate() {
        let t0 = Instant::now();
        let indexed = snapshot.query(q).scratch(&mut scratch).knn(K);
        m.quiescent_knn_ms.push(ms(t0, Instant::now()));
        digest_neighbors(&mut m.answers, &indexed.neighbors);
        if i % (BATCH / VERIFY_PER_KIND) == 0 {
            let brute = snapshot.query(q).brute_force().knn(K);
            m.check(
                same_answer(&brute.neighbors, &indexed.neighbors),
                "post-script answer differs from brute force",
            );
        }
    }
    m.disk_bytes = dir_bytes(&world.dirs.durable).expect("durable directory is readable");
    m.user_bytes = encoded_bytes(snapshot.iter().map(|(_, t)| t));
    m.script_user_bytes = encoded_bytes(world.inputs.feed.iter());
    if rec.enabled() {
        let t0 = Instant::now();
        let result = session.compact();
        let t1 = Instant::now();
        rec.record("session.compact", t0, t1);
        m.compact_ms = ms(t0, t1);
        m.check(result.is_ok(), "explicit compact");
    }
    rec.exit(verify);
}

/// `Trajectory::encode` bytes of `trajs`: the user data behind a ratio.
fn encoded_bytes<'t>(trajs: impl Iterator<Item = &'t Trajectory>) -> u64 {
    trajs.map(|t| t.encode().len() as u64).sum()
}

/// What the image session answered before it "crashed".
struct PreCrash {
    live: usize,
    answers: Vec<Vec<Neighbor>>,
}

/// Records what the image session answers, then "crashes" it: drops it and
/// appends a torn half-frame to its log.
fn crash_image(world: &mut World) -> std::io::Result<PreCrash> {
    let image = world.image.take().expect("set-up built the image session");
    let snapshot = image.snapshot();
    let before = PreCrash {
        live: snapshot.len(),
        answers: world
            .inputs
            .recover
            .iter()
            .map(|q| snapshot.query(q).knn(K).neighbors)
            .collect(),
    };
    drop((snapshot, image));
    // A torn write: a frame header promising 64 payload bytes, half there.
    let mut wal = fs::OpenOptions::new()
        .append(true)
        .open(file_with_ext(&world.dirs.image, "wal")?)?;
    wal.write_all(&64u32.to_le_bytes())?;
    wal.write_all(&[0xAB; 4 + 32])?;
    wal.sync_all()?;
    Ok(before)
}

/// One round of the recover section: time `open` through the first answer
/// on fresh copies of the crash image. The check doubles as the durability
/// test: live count and answers must equal the pre-crash session's, the
/// torn tail discarded.
fn recover_round(
    opens: usize,
    world: &mut World,
    pre_crash: &PreCrash,
    rec: &mut Recorder,
    m: &mut Measured,
) -> std::io::Result<()> {
    let section = rec.enter("section.recover");
    let queries = &world.inputs.recover;
    for _ in 0..opens {
        copy_dir(&world.dirs.image, &world.dirs.copy)?;
        let t0 = Instant::now();
        let opened = Session::builder()
            .durability(durability())
            .open(&world.dirs.copy);
        let first = opened
            .as_ref()
            .ok()
            .map(|s| s.snapshot().query(&queries[0]).knn(K));
        let t1 = Instant::now();
        rec.record("session.open_to_first_answer", t0, t1);
        m.open_ms.push(ms(t0, t1));
        m.attempted += 1;
        match (opened, first) {
            (Ok(session), Some(first)) => {
                let snapshot = session.snapshot();
                let same = snapshot.len() == pre_crash.live
                    && same_answer(&first.neighbors, &pre_crash.answers[0])
                    && queries
                        .iter()
                        .zip(&pre_crash.answers)
                        .skip(1)
                        .all(|(q, want)| same_answer(&snapshot.query(q).knn(K).neighbors, want));
                m.check(same, "reopened session differs from the pre-crash session");
            }
            (Err(e), _) => m.fail(&format!("open: {e}")),
            (Ok(_), None) => unreachable!("an opened session answers"),
        }
    }
    rec.exit(section);
    Ok(())
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Runs `spec` once: the set-ups, then [`ROUNDS`] rounds of query, ingest
/// and recover work, then the checks. The returned world is what the layer
/// probes of the traced run replay.
pub fn run(
    spec: &Spec,
    cfg: &RunConfig,
    rec: &mut Recorder,
) -> Result<(World, Measured), Box<dyn std::error::Error>> {
    let mut m = Measured::default();
    let mut world = None;
    for _ in 0..SETUP_REPEATS {
        // The previous set-up's sessions and directories go first, untimed.
        drop(world.take());
        let section = rec.enter("section.setup");
        let t0 = Instant::now();
        world = Some(set_up(spec, cfg)?);
        m.setup_s.push(t0.elapsed().as_secs_f64());
        rec.exit(section);
    }
    let mut world = world.expect("SETUP_REPEATS >= 1");
    let before = crash_image(&mut world)?;
    // Untimed warm-up, so page faults and scratch growth are not sampled.
    for (kind, q) in world.inputs.rounds[0].singles.iter().take(32) {
        let _ = std::hint::black_box(single(&mut world.query, *kind, q, spec.range_eps, false));
    }

    // The sections take turns, so each metric's samples are spread over
    // the whole run and a slow spell of the machine cannot cover them all.
    let mut log = QueryLog::default();
    let opens = spec.per_round().opens;
    for r in 0..ROUNDS {
        query_round(spec, cfg, &mut world, r, rec, &mut m, &mut log);
        ingest_round(&world, r, rec, &mut m);
        recover_round(opens, &mut world, &before, rec, &mut m)?;
    }
    verify_queries(spec, &mut world, rec, &mut m, &log);
    verify_ingest(spec, &world, rec, &mut m);
    for ns in &before.answers {
        digest_neighbors(&mut m.answers, ns);
    }
    m.answers.u64(before.live as u64);
    Ok((world, m))
}

/// Every percentile the run reports, end to end or per layer, with the
/// samples it is taken over: all of the run's, pooled. The value, the count
/// printed beside it and the check of its support come from this one table.
pub fn percentiles(m: &Measured) -> [(&'static str, f64, &Samples); 14] {
    [
        ("knn_p50_ms", 0.5, &m.knn_ms),
        ("knn_p99_ms", 0.99, &m.knn_ms),
        ("sub_p50_ms", 0.5, &m.sub_ms),
        ("range_p50_ms", 0.5, &m.range_ms),
        ("batch_qps", 0.5, &m.batch_ms),
        ("insert_batch_p95_ms", 0.95, &m.insert_batch_ms),
        ("open_p50_ms", 0.5, &m.open_ms),
        ("session.knn_norm_p50_ms", 0.5, &m.norm_ms),
        ("session.insert_p50_ms", 0.5, &m.insert_ms),
        ("session.insert_batch_p50_ms", 0.5, &m.insert_batch_ms),
        ("session.remove_p50_us", 0.5, &m.remove_ms),
        // The reader takes as many samples as the writer leaves it time
        // for, a few hundred on the smallest script: enough for a p95.
        ("session.snapshot_acquire_p95_us", 0.95, &m.acquire_us),
        ("session.reader_knn_p50_ms", 0.5, &m.reader_knn_ms),
        ("session.reader_knn_p95_ms", 0.95, &m.reader_knn_ms),
    ]
}

/// The value of one row of [`percentiles`].
pub fn percentile(m: &Measured, metric: &str) -> f64 {
    let (_, p, samples) = percentiles(m)
        .into_iter()
        .find(|(name, _, _)| *name == metric)
        .unwrap_or_else(|| panic!("{metric} is not a reported percentile"));
    samples.quantile(p)
}

/// Reduces the measurements to the end-to-end metrics.
pub fn end_to_end(m: &Measured) -> Vec<(&'static str, f64)> {
    let p = |metric| (metric, percentile(m, metric));
    vec![
        ("setup_s", m.setup_s.median()),
        p("knn_p50_ms"),
        p("knn_p99_ms"),
        p("sub_p50_ms"),
        p("range_p50_ms"),
        // A batch call's latency, read as the throughput a caller gets.
        ("batch_qps", BATCH as f64 * 1e3 / percentile(m, "batch_qps")),
        ("ingest_tps", m.ingested as f64 / m.script_s),
        p("insert_batch_p95_ms"),
        p("open_p50_ms"),
        (
            "disk_bytes_per_user_byte",
            m.disk_bytes as f64 / m.user_bytes as f64,
        ),
        ("peak_rss_mb", peak_rss_mib()),
        ("ok_ops_ratio", 1.0 - m.failed as f64 / m.attempted as f64),
    ]
}
