//! Self-tests of the benchmark's statistics and of its catalogue.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use eda::core::daemon::wire::{self, Json};
use perfbench::bench::{END_TO_END, PER_LAYER};
use perfbench::stats::{
    account, drive_open_loop, fastest_third, highest_percentile, median, min_samples, percentile,
    Clock, Fate, Request,
};

fn ramp(n: usize) -> Vec<f64> {
    (1..=n).map(|i| i as f64).collect()
}

#[test]
fn percentile_needs_ten_samples_beyond_it() {
    assert_eq!(min_samples(50.0), 20);
    assert_eq!(min_samples(90.0), 100);
    assert_eq!(min_samples(99.0), 1000);
    assert_eq!(
        percentile(&ramp(99), 90.0),
        None,
        "p90 is refused below 100 samples"
    );
    let p90 = percentile(&ramp(100), 90.0).expect("p90 is reported at 100 samples");
    assert_eq!(p90, 90.0);
    assert_eq!(ramp(100).iter().filter(|&&v| v > p90).count(), 10);
    assert_eq!(percentile(&ramp(19), 50.0), None);
    assert_eq!(median(&ramp(4)), Some(2.5));
    assert_eq!(median(&[]), None);
}

#[test]
fn highest_percentile_is_the_one_the_sample_count_supports() {
    assert_eq!(highest_percentile(&ramp(19)), None);
    assert_eq!(highest_percentile(&ramp(99)).map(|(p, _)| p), Some(50.0));
    assert_eq!(highest_percentile(&ramp(100)).map(|(p, _)| p), Some(90.0));
    assert_eq!(highest_percentile(&ramp(999)).map(|(p, _)| p), Some(90.0));
    assert_eq!(highest_percentile(&ramp(1000)).map(|(p, _)| p), Some(99.0));
    for n in [20, 150, 2500, 12_000] {
        let v = ramp(n);
        let (_, at) = highest_percentile(&v).expect("at least p50");
        assert!(v.iter().filter(|&&x| x > at).count() >= 10, "n = {n}");
    }
}

#[test]
fn fastest_third_averages_the_fastest_units() {
    assert_eq!(fastest_third(&[]), None);
    assert_eq!(fastest_third(&[4.0]), Some(4.0));
    assert_eq!(fastest_third(&[3.0, 1.0]), Some(1.0));
    assert_eq!(fastest_third(&[9.0, 2.0, 4.0, 1.0, 7.0, 8.0]), Some(1.5));
    assert_eq!(fastest_third(&[5.0, 1.0, 3.0, 2.0]), Some(1.5));
}

/// A simulated clock: sleeping jumps time forward, and a send can stall.
struct SimClock(f64);

impl Clock for SimClock {
    fn now(&mut self) -> f64 {
        self.0
    }
    fn sleep_until(&mut self, t: f64) {
        self.0 = self.0.max(t);
    }
}

/// Drives `n` requests due every 100 ms against one server that takes
/// 50 ms each; the send of request `stall_at` blocks for `stall_s`.
fn simulate(n: usize, stall_at: usize, stall_s: f64) -> Vec<Request> {
    let due: Vec<f64> = (0..n).map(|i| i as f64 * 0.1).collect();
    let mut clock = SimClock(0.0);
    let sent = drive_open_loop(&due, &mut clock, |i, c| {
        if i == stall_at {
            c.0 += stall_s;
        }
    });
    let mut free_at = 0.0f64;
    due.iter()
        .zip(&sent)
        .map(|(&due_s, &sent_s)| {
            free_at = free_at.max(sent_s) + 0.05;
            Request {
                due_s,
                sent_s,
                fate: Fate::Done(free_at),
            }
        })
        .collect()
}

#[test]
fn a_generator_stall_shows_as_latency_and_lag() {
    let calm = account(&simulate(20, 5, 0.0), 1.0, 2.0);
    let stalled = account(&simulate(20, 5, 0.5), 1.0, 2.0);
    assert!(
        calm.gen_lag_s < 1e-12,
        "an unstalled generator is never late"
    );
    // The stall ends at 1.0 s; request 6 was due at 0.6 s.
    assert!(
        (stalled.gen_lag_s - 0.4).abs() < 1e-9,
        "lag {}",
        stalled.gen_lag_s
    );
    // Requests after the stall were sent late; timed from their due time,
    // they carry the wait the stall imposed.
    for i in 0..20 {
        let (a, b) = (calm.latencies[i], stalled.latencies[i]);
        if i <= 5 {
            assert!((a - b).abs() < 1e-9, "request {i} precedes the stall");
        } else if i <= 9 {
            assert!(b > a + 0.05, "request {i}: {b} should exceed {a}");
        }
    }
    assert!(median(&stalled.latencies) >= median(&calm.latencies));
}

#[test]
fn refusals_and_failures_miss_the_latency_limit() {
    let reqs = [
        Request {
            due_s: 0.0,
            sent_s: 0.0,
            fate: Fate::Done(0.5),
        },
        Request {
            due_s: 0.0,
            sent_s: 0.0,
            fate: Fate::Done(3.0),
        },
        Request {
            due_s: 1.0,
            sent_s: 1.0,
            fate: Fate::Refused,
        },
        Request {
            due_s: 1.0,
            sent_s: 1.0,
            fate: Fate::Failed,
        },
    ];
    let s = account(&reqs, 1.0, 2.0);
    assert_eq!(s.attempted, 4);
    assert_eq!(s.misses, 3, "late, refused and failed all miss");
    assert_eq!((s.refused, s.failed), (1, 1));
    assert_eq!(s.goodput_per_s, 0.5, "one good completion over two seconds");
    assert_eq!(
        s.latencies,
        vec![0.5, 3.0],
        "only completions have a latency"
    );
}

fn metric_names(doc: &Json, key: &str) -> Vec<(String, String)> {
    match doc.get(key) {
        Some(Json::Arr(items)) => items
            .iter()
            .map(|m| {
                let name = m.get("name").and_then(Json::as_str).expect("metric name");
                let unit = m.get("unit").and_then(Json::as_str).expect("metric unit");
                (name.to_string(), unit.to_string())
            })
            .collect(),
        _ => panic!("BENCHMARK.json has no `{key}` list"),
    }
}

#[test]
fn benchmark_json_names_are_well_formed_and_match_the_catalogue() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
    let doc = wire::parse(&text).expect("BENCHMARK.json parses");
    let e2e = metric_names(&doc, "end_to_end");
    let layer = metric_names(&doc, "per_layer");
    let ok = |n: &str| {
        !n.is_empty()
            && n.bytes()
                .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
    };
    for (name, _) in e2e.iter().chain(&layer) {
        assert!(ok(name), "metric name `{name}` is outside [A-Za-z0-9_.-]+");
    }
    let own = |c: &[(&str, &str)]| {
        c.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect::<Vec<_>>()
    };
    assert_eq!(
        e2e,
        own(&END_TO_END),
        "end_to_end differs from bench::END_TO_END"
    );
    assert_eq!(
        layer,
        own(&PER_LAYER),
        "per_layer differs from bench::PER_LAYER"
    );
    if let Some(Json::Arr(ws)) = doc.get("workloads") {
        for w in ws {
            let name = w.get("name").and_then(Json::as_str).expect("workload name");
            assert!(ok(name), "workload name `{name}`");
        }
    }
}

#[test]
fn daemon_schedule_holds_its_stated_mix() {
    use perfbench::bench::SMALL_DESIGNS;
    use perfbench::daemon_mix::{schedule, Kind, EXACT_SHARE};
    for seed in 1..=5 {
        let plan = schedule(seed, 19.5, 4.0);
        for overload in [false, true] {
            let phase: Vec<_> = plan.iter().filter(|p| p.overload == overload).collect();
            let exact = phase.iter().filter(|p| p.kind == Kind::Exact).count();
            let want = (phase.len() as f64 * EXACT_SHARE).round() as usize;
            assert!(
                exact.abs_diff(want) <= 1,
                "seed {seed}: {exact} exact of {}",
                phase.len()
            );
        }
        // Each pool design's first request is its unique one, and fresh
        // flows spread over the pool evenly.
        let unique = plan.iter().filter(|p| p.kind == Kind::Unique).count();
        assert_eq!(unique, SMALL_DESIGNS.len());
        let fresh: Vec<usize> = SMALL_DESIGNS
            .iter()
            .map(|d| {
                plan.iter()
                    .filter(|p| p.spec == *d && p.kind != Kind::Exact)
                    .count()
            })
            .collect();
        let (lo, hi) = (fresh.iter().min().unwrap(), fresh.iter().max().unwrap());
        assert!(
            hi - lo <= 1,
            "seed {seed}: fresh flows per design {fresh:?}"
        );
        // An exact repeat names a pair submitted before it; a fresh one
        // names a pair never submitted before.
        for (i, p) in plan.iter().enumerate() {
            let before = plan[..i]
                .iter()
                .any(|q| q.kind != Kind::Exact && (q.spec, q.flow_seed) == (p.spec, p.flow_seed));
            assert_eq!(before, p.kind == Kind::Exact, "seed {seed}, request {i}");
        }
    }
}
