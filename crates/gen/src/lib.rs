//! # traj-gen
//!
//! Deterministic synthetic-trajectory generation for tests, benchmarks and
//! experiments in the EDwP / TrajTree reproduction.
//!
//! The generator produces smooth random-walk trajectories with *irregular
//! sampling intervals* — the phenomenon the paper is about — grouped into
//! spatial clusters so that index pruning has structure to exploit. It also
//! provides the two distortions the paper's experiments apply to queries:
//! [`TrajGen::resample`] (drop interior samples, simulating a lower or
//! inconsistent sampling rate) and [`TrajGen::perturb`] (GPS-style spatial
//! noise).
//!
//! Everything is seeded and deterministic: no external RNG crates, no
//! process entropy, identical output on every platform.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use traj_core::{Point, StPoint, Trajectory};

/// Splitmix64 pseudo-random generator; deterministic and portable.
#[derive(Debug, Clone)]
pub struct Rng {
    state: u64,
}

impl Rng {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> Self {
        Rng {
            state: seed ^ 0x9E37_79B9_7F4A_7C15,
        }
    }

    /// Next pseudo-random `u64`.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn uniform(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform `f64` in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + self.uniform() * (hi - lo)
    }

    /// Uniform `usize` in `[lo, hi]` (inclusive).
    pub fn usize_in(&mut self, lo: usize, hi: usize) -> usize {
        debug_assert!(lo <= hi);
        lo + (self.next_u64() % (hi - lo + 1) as u64) as usize
    }

    /// Approximately normal sample (mean 0, standard deviation 1) via the
    /// sum of uniforms (Irwin–Hall with 12 terms).
    pub fn normal(&mut self) -> f64 {
        (0..12).map(|_| self.uniform()).sum::<f64>() - 6.0
    }
}

/// Shape parameters for generated trajectories.
#[derive(Debug, Clone)]
pub struct GenConfig {
    /// Side length of the square region trajectories live in.
    pub area: f64,
    /// Number of spatial clusters start points are drawn around
    /// (`0` means uniform starts over the whole region).
    pub clusters: usize,
    /// Standard deviation of a cluster around its centre.
    pub cluster_spread: f64,
    /// Mean spatial step length between consecutive samples.
    pub step: f64,
    /// Maximum per-sample heading change in radians (walk smoothness).
    pub turn: f64,
    /// Mean time between samples; actual gaps vary by ±50% to model
    /// inconsistent sampling rates.
    pub sample_interval: f64,
}

impl Default for GenConfig {
    fn default() -> Self {
        GenConfig {
            area: 100.0,
            clusters: 4,
            cluster_spread: 3.0,
            step: 2.0,
            turn: 0.6,
            sample_interval: 1.0,
        }
    }
}

/// Deterministic trajectory generator.
#[derive(Debug, Clone)]
pub struct TrajGen {
    rng: Rng,
    config: GenConfig,
    centers: Vec<Point>,
}

impl TrajGen {
    /// Creates a generator with the default [`GenConfig`].
    pub fn new(seed: u64) -> Self {
        TrajGen::with_config(seed, GenConfig::default())
    }

    /// Creates a generator with an explicit configuration.
    pub fn with_config(seed: u64, config: GenConfig) -> Self {
        let mut rng = Rng::new(seed);
        let margin = config.area * 0.15;
        let centers = (0..config.clusters)
            .map(|_| {
                Point::new(
                    rng.range(margin, config.area - margin),
                    rng.range(margin, config.area - margin),
                )
            })
            .collect();
        TrajGen {
            rng,
            config,
            centers,
        }
    }

    /// The generator's configuration.
    pub fn config(&self) -> &GenConfig {
        &self.config
    }

    /// A random walk of `num_points` samples starting near a random cluster
    /// centre (or uniformly when the config has no clusters).
    pub fn random_walk(&mut self, num_points: usize) -> Trajectory {
        let start = self.start_point();
        self.random_walk_from(start, num_points)
    }

    /// A random walk of `num_points` samples starting at `start`.
    pub fn random_walk_from(&mut self, start: Point, num_points: usize) -> Trajectory {
        let num_points = num_points.max(2);
        let mut pts = Vec::with_capacity(num_points);
        let mut heading = self.rng.range(0.0, std::f64::consts::TAU);
        let mut pos = start;
        let mut t = 0.0;
        for _ in 0..num_points {
            pts.push(StPoint::at(pos, t));
            heading += self.rng.range(-self.config.turn, self.config.turn);
            let step = self.config.step * self.rng.range(0.5, 1.5);
            pos = Point::new(
                (pos.x + step * heading.cos()).clamp(0.0, self.config.area),
                (pos.y + step * heading.sin()).clamp(0.0, self.config.area),
            );
            // Irregular sampling: gaps vary by ±50% around the mean.
            t += self.config.sample_interval * self.rng.range(0.5, 1.5);
        }
        Trajectory::new(pts).expect("generated points are finite and time-ordered")
    }

    /// A database of `count` random walks whose sizes are drawn uniformly
    /// from `[min_pts, max_pts]`.
    pub fn database(&mut self, count: usize, min_pts: usize, max_pts: usize) -> Vec<Trajectory> {
        (0..count)
            .map(|_| {
                let n = self.rng.usize_in(min_pts, max_pts);
                self.random_walk(n)
            })
            .collect()
    }

    /// A copy of `t` with interior samples kept with probability
    /// `keep_prob` — the paper's "inconsistent sampling rate" distortion.
    /// Endpoints are always kept, so the overall shape is preserved.
    pub fn resample(&mut self, t: &Trajectory, keep_prob: f64) -> Trajectory {
        let pts = t.points();
        let last = pts.len() - 1;
        let kept: Vec<StPoint> = pts
            .iter()
            .enumerate()
            .filter(|&(i, _)| i == 0 || i == last || self.rng.uniform() < keep_prob)
            .map(|(_, &p)| p)
            .collect();
        Trajectory::new(kept).expect("endpoints kept, order preserved")
    }

    /// A copy of `t` with per-coordinate Gaussian noise of standard
    /// deviation `sigma` added to every sample (timestamps untouched).
    pub fn perturb(&mut self, t: &Trajectory, sigma: f64) -> Trajectory {
        let pts = t
            .points()
            .iter()
            .map(|s| {
                StPoint::at(
                    Point::new(
                        s.p.x + sigma * self.rng.normal(),
                        s.p.y + sigma * self.rng.normal(),
                    ),
                    s.t,
                )
            })
            .collect();
        Trajectory::new(pts).expect("noise keeps points finite, times unchanged")
    }

    fn start_point(&mut self) -> Point {
        if self.centers.is_empty() {
            return Point::new(
                self.rng.range(0.0, self.config.area),
                self.rng.range(0.0, self.config.area),
            );
        }
        let c = self.centers[self.rng.usize_in(0, self.centers.len() - 1)];
        Point::new(
            (c.x + self.config.cluster_spread * self.rng.normal()).clamp(0.0, self.config.area),
            (c.y + self.config.cluster_spread * self.rng.normal()).clamp(0.0, self.config.area),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_equal_seeds() {
        let mut a = TrajGen::new(7);
        let mut b = TrajGen::new(7);
        assert_eq!(a.database(5, 3, 9), b.database(5, 3, 9));
        let mut c = TrajGen::new(8);
        assert_ne!(a.random_walk(6), c.random_walk(6));
    }

    #[test]
    fn walks_respect_bounds_and_size() {
        let mut g = TrajGen::new(1);
        for _ in 0..50 {
            let t = g.random_walk(12);
            assert_eq!(t.num_points(), 12);
            for s in t.points() {
                assert!(s.p.x >= 0.0 && s.p.x <= g.config().area);
                assert!(s.p.y >= 0.0 && s.p.y <= g.config().area);
            }
        }
    }

    #[test]
    fn timestamps_strictly_increase() {
        let mut g = TrajGen::new(2);
        let t = g.random_walk(30);
        for w in t.points().windows(2) {
            assert!(w[1].t > w[0].t);
        }
    }

    #[test]
    fn database_sizes_in_range() {
        let mut g = TrajGen::new(3);
        for t in g.database(40, 4, 11) {
            assert!((4..=11).contains(&t.num_points()));
        }
    }

    #[test]
    fn resample_keeps_endpoints_and_subset() {
        let mut g = TrajGen::new(4);
        let t = g.random_walk(40);
        let r = g.resample(&t, 0.3);
        assert_eq!(r.first(), t.first());
        assert_eq!(r.last(), t.last());
        assert!(r.num_points() <= t.num_points());
        // Every kept sample is one of the originals.
        for s in r.points() {
            assert!(t.points().contains(s));
        }
    }

    #[test]
    fn resample_zero_prob_keeps_only_endpoints() {
        let mut g = TrajGen::new(5);
        let t = g.random_walk(25);
        let r = g.resample(&t, 0.0);
        assert_eq!(r.num_points(), 2);
    }

    #[test]
    fn perturb_moves_points_but_not_times() {
        let mut g = TrajGen::new(6);
        let t = g.random_walk(10);
        let p = g.perturb(&t, 0.5);
        assert_eq!(p.num_points(), t.num_points());
        for (a, b) in t.points().iter().zip(p.points()) {
            assert_eq!(a.t, b.t);
        }
        assert_ne!(t, p);
    }

    #[test]
    fn clustered_starts_concentrate() {
        // With tight clusters, many walks should start near few locations:
        // the spread of start points must be far below a uniform spread.
        let mut g = TrajGen::with_config(
            9,
            GenConfig {
                clusters: 2,
                cluster_spread: 0.5,
                ..GenConfig::default()
            },
        );
        let starts: Vec<Point> = (0..60).map(|_| g.random_walk(3).first().p).collect();
        // Pick the two mutually farthest starts as cluster representatives;
        // every start must sit close to one of them.
        let (mut ra, mut rb, mut far) = (starts[0], starts[0], 0.0);
        for (i, a) in starts.iter().enumerate() {
            for b in &starts[i + 1..] {
                if a.dist(*b) > far {
                    far = a.dist(*b);
                    (ra, rb) = (*a, *b);
                }
            }
        }
        for s in &starts {
            let near = s.dist(ra).min(s.dist(rb));
            assert!(near < 4.0, "start {s:?} is {near} from both clusters");
        }
    }
}
