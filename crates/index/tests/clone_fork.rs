//! `Session::clone` forks a consistent cut: taken beside a running
//! writer, a fork must never hold a trajectory whose id its own watermark
//! has not passed — the next id it issues would be a duplicate. A write
//! publishes its shards and its watermark as one epoch value, and a fork
//! copies one epoch; this bounded stress run (a race cannot be forced
//! from outside the crate) forks beside a tight insert loop and checks
//! every fork. The writer does a fixed amount of work per round and the
//! forking stops with it, so the run time is bounded however the
//! scheduler and the epoch lock interleave the two.

use traj_core::Trajectory;
use traj_index::{Session, TrajStore};

/// Many short rounds: a small database keeps the writer's inserts short,
/// so more of them race each fork.
const ROUNDS: usize = 40;
const WRITES_PER_ROUND: usize = 500;

#[test]
fn a_fork_taken_beside_a_writer_never_reissues_a_live_id() {
    let t = || Trajectory::from_xy(&[(0.0, 0.0), (1.0, 1.0)]);
    for _ in 0..ROUNDS {
        let session = Session::build(TrajStore::new());
        std::thread::scope(|s| {
            let writer = s.spawn(|| {
                for _ in 0..WRITES_PER_ROUND {
                    session.insert(t()).expect("in-memory insert");
                }
            });
            while !writer.is_finished() {
                let fork = session.clone();
                // Nothing is ever removed here, so the ids `0..live` are
                // exactly the fork's live set.
                let live = fork.len();
                let issued = fork.insert(t()).expect("in-memory insert");
                assert_eq!(
                    issued as usize, live,
                    "the fork's watermark trails an id already live in it"
                );
            }
        });
    }
}
