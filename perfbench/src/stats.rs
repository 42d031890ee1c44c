//! Sample statistics and open-loop accounting.
//!
//! The rules follow the benchmark's reporting contract: a timing is
//! reported as a median plus the highest percentile that has at least ten
//! samples beyond it; requests that fail or are refused count as missing
//! the latency limit; open-loop latencies are measured from each
//! request's due time, so a stalled generator shows up as latency.

/// Samples beyond a percentile needed before it may be reported.
pub const TAIL_SAMPLES: usize = 10;

/// The median of `samples` (mean of the middle two for an even count), or
/// `None` when there are none.
pub fn median(samples: &[f64]) -> Option<f64> {
    let v = sorted(samples);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// The `p`-th percentile (0 < p < 100) by nearest rank, refused (`None`)
/// unless at least [`TAIL_SAMPLES`] samples lie beyond it. p90 therefore
/// needs 100 samples and p99 needs 1000.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if !(p > 0.0 && p < 100.0) || samples.len() < min_samples(p) {
        return None;
    }
    let v = sorted(samples);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    Some(v[rank.clamp(1, v.len()) - 1])
}

/// Fewest samples for which `percentile(_, p)` is reported.
pub fn min_samples(p: f64) -> usize {
    // n·(1 − p/100) ≥ TAIL_SAMPLES, computed in integer hundredths so
    // p = 90 asks for exactly 100 samples.
    let beyond = (10_000.0 - (p * 100.0).round()) as usize;
    (TAIL_SAMPLES * 10_000).div_ceil(beyond.max(1))
}

/// The highest of p50/p90/p99/p99.9 that `samples` can support, with its
/// value: the tail figure a report prints next to the median.
pub fn highest_percentile(samples: &[f64]) -> Option<(f64, f64)> {
    [99.9, 99.0, 90.0, 50.0]
        .into_iter()
        .find_map(|p| percentile(samples, p).map(|v| (p, v)))
}

/// The mean of the fastest third (at least one) of `samples`, or `None`
/// when there are none: the per-run figure of a normalized timing. Host
/// noise only ever adds time, so the fastest units are the ones closest to
/// the code's own cost; a third keeps several units in the figure.
pub fn fastest_third(samples: &[f64]) -> Option<f64> {
    let v = sorted(samples);
    let k = v.len().div_ceil(3);
    (k > 0).then(|| v[..k].iter().sum::<f64>() / k as f64)
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// What happened to one open-loop request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Fate {
    /// Completed with the expected result at this many seconds after the
    /// run's start.
    Done(f64),
    /// Completed with a wrong result or an error.
    Failed,
    /// Refused by admission.
    Refused,
}

/// One request of an open-loop schedule, with its timing on the run clock.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Request {
    /// When the schedule said to send it.
    pub due_s: f64,
    /// When the generator actually sent it.
    pub sent_s: f64,
    /// How it ended.
    pub fate: Fate,
}

/// The open-loop figures of one phase.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseStats {
    /// Requests scheduled in the phase.
    pub attempted: usize,
    /// Latencies from due time of the requests that completed correctly.
    pub latencies: Vec<f64>,
    /// Requests that missed the latency limit: late, failed, or refused.
    pub misses: usize,
    /// Requests refused by admission (already counted in `misses`).
    pub refused: usize,
    /// Requests that completed with a wrong result or an error.
    pub failed: usize,
    /// Completions within the limit per second of the phase.
    pub goodput_per_s: f64,
    /// Worst lateness of the generator: max(sent − due).
    pub gen_lag_s: f64,
}

/// Accounts a phase of `phase_s` seconds against `limit_s`.
pub fn account(requests: &[Request], limit_s: f64, phase_s: f64) -> PhaseStats {
    let mut s = PhaseStats {
        attempted: requests.len(),
        latencies: Vec::new(),
        misses: 0,
        refused: 0,
        failed: 0,
        goodput_per_s: 0.0,
        gen_lag_s: 0.0,
    };
    let mut good = 0usize;
    for r in requests {
        s.gen_lag_s = s.gen_lag_s.max(r.sent_s - r.due_s);
        match r.fate {
            Fate::Done(end_s) => {
                let lat = end_s - r.due_s;
                s.latencies.push(lat);
                if lat <= limit_s {
                    good += 1;
                } else {
                    s.misses += 1;
                }
            }
            Fate::Failed => {
                s.failed += 1;
                s.misses += 1;
            }
            Fate::Refused => {
                s.refused += 1;
                s.misses += 1;
            }
        }
    }
    s.goodput_per_s = good as f64 / phase_s.max(f64::MIN_POSITIVE);
    s
}

/// A clock the open-loop generator reads and waits on; tests substitute a
/// simulated one.
pub trait Clock {
    /// Seconds since the run started.
    fn now(&mut self) -> f64;
    /// Blocks until `t` seconds since the run started (no-op when past).
    fn sleep_until(&mut self, t: f64);
}

/// The wall clock.
pub struct WallClock(pub std::time::Instant);

impl Clock for WallClock {
    fn now(&mut self) -> f64 {
        self.0.elapsed().as_secs_f64()
    }
    fn sleep_until(&mut self, t: f64) {
        let wait = t - self.now();
        if wait > 0.0 {
            std::thread::sleep(std::time::Duration::from_secs_f64(wait));
        }
    }
}

/// Sends request `i` at `due[i]` (never earlier), whatever became of the
/// earlier ones, and returns each send time. A `send` that stalls delays
/// every later send; latencies taken from `due` then carry the stall.
pub fn drive_open_loop<C: Clock>(
    due: &[f64],
    clock: &mut C,
    mut send: impl FnMut(usize, &mut C),
) -> Vec<f64> {
    let mut sent = Vec::with_capacity(due.len());
    for (i, &t) in due.iter().enumerate() {
        clock.sleep_until(t);
        sent.push(clock.now());
        send(i, clock);
    }
    sent
}
