//! Host-speed calibration.
//!
//! The hosts this benchmark runs on are shared: the same flow on the same
//! host takes anywhere from 1.4 to 3.7 s within a few minutes, because
//! other tenants load the machine, and a run of tens of seconds cannot
//! average that away. So every timed unit of work (a flow, a phase of an
//! edit cycle, a batch) is bracketed by probes. A probe is a fixed kernel
//! of the benchmark's own, run on every thread of the budget: a dependent
//! walk through a 2 MiB random cycle, an integer hash loop, and bursts of
//! allocation (a hash map of small vectors, then a sort), the kinds of
//! work a flow does. Its wall over [`REF_PROBE_S`] is the host's slowness
//! factor at that moment. A unit's factor is the median of the two probes
//! around it and the two beyond those, so one probe that a hiccup slowed
//! cannot make a unit look fast. Its normalized wall is its measured wall
//! over that factor: the wall it would have taken on the reference host in
//! a quiet period. The kernel calls nothing in the program, so a change to
//! the program moves the normalized walls and never the factors. Every run
//! prints its raw walls and factors beside the normalized figures.

use std::collections::HashMap;
use std::time::Instant;

/// Wall of one probe on the reference host (the 2-vCPU host of the
/// README's numbers) in a quiet period, s. It fixes the scale of the
/// normalized walls only: they read as seconds on that host at that speed.
pub const REF_PROBE_S: f64 = 0.045;
/// Length of each thread's cycle, 4-byte entries (2 MiB).
const CYCLE_LEN: usize = 1 << 19;
/// Steps of the dependent walk per probe and thread.
const WALK_STEPS: usize = 500_000;
/// Rounds of the hash loop per probe and thread.
const HASH_ROUNDS: u64 = 5_000_000;
/// Allocation bursts per probe and thread, and inserts per burst: small
/// bursts, so the probe adds little to the peak resident set it shares
/// with the workload.
const ALLOC_BURSTS: usize = 5;
const ALLOC_INSERTS: u64 = 30_000;

/// Probes run and dropped when a [`HostSpeed`] is made: the first probes
/// of a fresh process run slow.
const WARM_UP_PROBES: usize = 2;

/// The probe kernel's state and the factors it measured.
pub struct HostSpeed {
    cycles: Vec<Vec<u32>>,
    factors: Vec<f64>,
}

/// A timed unit: which probe preceded it.
#[derive(Debug, Clone, Copy)]
pub struct Unit(usize);

impl HostSpeed {
    /// Builds one random cycle per thread of the budget and warms up.
    pub fn new(threads: usize) -> HostSpeed {
        let mut speed = HostSpeed {
            cycles: (0..threads.max(1) as u64).map(|t| cycle(t + 1)).collect(),
            factors: Vec::new(),
        };
        for _ in 0..WARM_UP_PROBES {
            speed.probe();
        }
        speed.factors.clear();
        speed
    }

    /// Runs the probe once and returns the host's slowness factor.
    pub fn probe(&mut self) -> f64 {
        let t = Instant::now();
        std::thread::scope(|s| {
            for (k, c) in self.cycles.iter().enumerate() {
                s.spawn(move || {
                    let seed = k as u64 + 1;
                    std::hint::black_box(walk(c) ^ hash(seed) ^ allocate(seed))
                });
            }
        });
        let factor = t.elapsed().as_secs_f64() / REF_PROBE_S;
        self.factors.push(factor);
        factor
    }

    /// The latest factor, probing first if there is none yet.
    pub fn latest(&mut self) -> f64 {
        match self.factors.last() {
            Some(&f) => f,
            None => self.probe(),
        }
    }

    /// Starts a unit at the latest probe, probing first if there is none.
    /// The caller probes when the unit ends; the probe after one unit is
    /// the probe before the next.
    pub fn start(&mut self) -> Unit {
        self.latest();
        Unit(self.factors.len() - 1)
    }

    /// Runs `f` as one timed unit between two probes: its value, its raw
    /// wall and the unit, whose factor [`HostSpeed::factor`] gives once
    /// the probes after it have run.
    pub fn unit<T>(&mut self, f: impl FnOnce() -> T) -> (T, f64, Unit) {
        let unit = self.start();
        let t = Instant::now();
        let value = f();
        let wall = t.elapsed().as_secs_f64();
        self.probe();
        (value, wall, unit)
    }

    /// The factor of `unit`: the median of the probes right before and
    /// after it and of one more on either side, where the run has them.
    pub fn factor(&self, unit: Unit) -> f64 {
        let lo = unit.0.saturating_sub(1);
        let hi = (unit.0 + 3).min(self.factors.len());
        crate::stats::median(&self.factors[lo..hi]).unwrap_or(1.0)
    }

    /// Every factor measured so far.
    pub fn factors(&self) -> &[f64] {
        &self.factors
    }
}

/// A single random cycle through `CYCLE_LEN` slots (Sattolo's shuffle), so
/// the walk visits every slot instead of looping in a short cycle.
fn cycle(seed: u64) -> Vec<u32> {
    let mut next: Vec<u32> = (0..CYCLE_LEN as u32).collect();
    let mut x = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    for i in (1..CYCLE_LEN).rev() {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        next.swap(i, (x % i as u64) as usize);
    }
    next
}

fn walk(next: &[u32]) -> u64 {
    let (mut at, mut acc) = (0usize, 0u64);
    for _ in 0..WALK_STEPS {
        at = next[at] as usize;
        acc = acc.wrapping_mul(31).wrapping_add(at as u64);
    }
    acc
}

fn allocate(seed: u64) -> u64 {
    let (mut x, mut acc) = (seed | 1, 0);
    for _ in 0..ALLOC_BURSTS {
        let mut buckets: HashMap<u64, Vec<u32>> = HashMap::new();
        for i in 0..ALLOC_INSERTS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            buckets
                .entry(x % (ALLOC_INSERTS / 3))
                .or_default()
                .push(i as u32);
        }
        let mut keys: Vec<u64> = buckets
            .iter()
            .map(|(k, v)| k.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ v.len() as u64)
            .collect();
        keys.sort_unstable();
        acc ^= keys[keys.len() / 2];
    }
    acc
}

fn hash(seed: u64) -> u64 {
    let mut x = seed | 1;
    for _ in 0..HASH_ROUNDS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x = x.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }
    x
}
