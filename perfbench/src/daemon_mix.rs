//! `daemon-mix`: open-loop traffic over a Unix socket to an in-process
//! `Daemon` with two workers and a shared store.
//!
//! A seeded arrival schedule runs two phases at fixed rates: `steady`,
//! whose fresh flows load the daemon to about 30 % of its capacity on the
//! reference host, then `overload`, whose fresh flows alone ask about twice
//! it. The generator sends each submit when it
//! is due on one connection while a reader thread timestamps every frame
//! the daemon streams back; latency runs from the due time. A second
//! connection carries the `query` and `ping` verbs through
//! `DaemonClient`.

use crate::bench::*;
use crate::calib::HostSpeed;
use crate::stats::{self, account, drive_open_loop, Fate, Request, WallClock};
use crate::trace::Tracer;
use crate::workloads::{pct_text, probe_store};
use eda::core::daemon::protocol::{parse_server_frame, ClientFrame, ServerFrame};
use eda::core::{
    Daemon, DaemonClient, DaemonConfig, Endpoint, QuerySpec, RetryPolicy, SubmitSpec, Terminal,
};
use eda::StoreConfig;
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Arrival rate of the steady phase, requests/s.
pub const STEADY_RATE: f64 = 5.2;
/// Arrival rate of the overload phase, requests/s.
pub const OVERLOAD_RATE: f64 = 36.0;
/// Share of the measurement window in the steady phase.
pub const STEADY_SHARE: f64 = 0.78;
/// Share of the measurement window in the overload phase; the rest is
/// left for the backlog to drain.
pub const OVERLOAD_SHARE: f64 = 0.16;
/// Latency limit a request must meet to count toward goodput, s.
pub const LIMIT_S: f64 = 2.0;
/// The daemon's admission high-water mark: large enough that the seed
/// commit never sheds this schedule, so every refusal is a regression.
pub const HIGH_WATER: usize = 1024;
/// Share of each phase's requests that are exact repeats of a (design,
/// flow seed) pair already submitted; the rest run a fresh flow. No
/// traffic log exists to draw this from: it is an assumption, and every
/// run prints the mix it drew and what each kind did. With it the steady
/// phase holds 100 requests, enough for its p90, while its fresh flows
/// keep queueing low enough for a steady median.
pub const EXACT_SHARE: f64 = 0.6;
/// Every this many submits, the generator also asks a `query`; an
/// assumption too.
const QUERY_EVERY: usize = 10;
/// How long to wait for the backlog after the last send before giving up.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(90);

/// The kind of one scheduled request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A pool design's first request in this run.
    Unique,
    /// A seen design at a flow seed it has not run with.
    Near,
    /// A (design, seed) pair already submitted.
    Exact,
}

/// One scheduled request.
#[derive(Debug, Clone)]
pub struct Planned {
    /// Due time, s after the schedule starts.
    pub due_s: f64,
    /// Design spec.
    pub spec: &'static str,
    /// Flow seed.
    pub flow_seed: u64,
    /// Mix kind.
    pub kind: Kind,
    /// Whether it belongs to the overload phase.
    pub overload: bool,
}

/// The seeded schedule. Each phase holds exactly `rate × length`
/// arrivals at uniformly drawn times: a Poisson process conditioned on
/// its count, so every run has the same number of samples per phase.
pub fn schedule(seed: u64, steady_s: f64, overload_s: f64) -> Vec<Planned> {
    let mut rng = Rng::new(seed, 200);
    let mut due: Vec<(f64, bool)> = Vec::new();
    for (start, len, rate, overload) in [
        (0.0, steady_s, STEADY_RATE, false),
        (steady_s, overload_s, OVERLOAD_RATE, true),
    ] {
        let n = (rate * len).round() as usize;
        let mut times: Vec<f64> = (0..n).map(|_| start + rng.unit() * len).collect();
        times.sort_by(f64::total_cmp);
        due.extend(times.into_iter().map(|t| (t, overload)));
    }
    // Each phase holds exact repeats in a fixed share, in a seeded order,
    // so runs differ in which designs come when, not in how much work.
    let mut exact: Vec<bool> = Vec::with_capacity(due.len());
    for overload in [false, true] {
        let n = due.iter().filter(|d| d.1 == overload).count();
        let repeats = (n as f64 * EXACT_SHARE).round() as usize;
        let mut phase: Vec<bool> = (0..n).map(|i| i < repeats).collect();
        for i in (1..phase.len()).rev() {
            phase.swap(i, rng.below(i + 1));
        }
        exact.extend(phase);
    }
    // Fresh requests take the pool's designs round-robin in a seeded
    // order, so every run runs each design about equally often; each takes
    // a flow seed its design has not run with.
    let mut order: Vec<&'static str> = SMALL_DESIGNS.to_vec();
    for i in (1..order.len()).rev() {
        order.swap(i, rng.below(i + 1));
    }
    let mut seen: Vec<(&'static str, u64)> = Vec::new();
    let mut fresh = 0;
    let mut out = Vec::with_capacity(due.len());
    for ((due_s, overload), exact) in due.into_iter().zip(exact) {
        let spec = order[fresh % order.len()];
        let unused: Vec<u64> = (1..=SMALL_SEEDS)
            .filter(|&s| !seen.contains(&(spec, s)))
            .collect();
        if !exact || seen.is_empty() {
            fresh += 1;
        }
        let (spec, flow_seed, kind) = if (exact && !seen.is_empty()) || unused.is_empty() {
            // A design whose seeds are used up repeats exactly instead.
            let (spec, s) = seen[rng.below(seen.len())];
            (spec, s, Kind::Exact)
        } else {
            let kind = if fresh <= order.len() {
                Kind::Unique
            } else {
                Kind::Near
            };
            let s = unused[rng.below(unused.len())];
            seen.push((spec, s));
            (spec, s, kind)
        };
        out.push(Planned {
            due_s,
            spec,
            flow_seed,
            kind,
            overload,
        });
    }
    out
}

/// Frame arrival times of one request, on the run clock.
#[derive(Debug, Clone, Default)]
struct Seen {
    accepted: Option<f64>,
    first_stage: Option<f64>,
    end: Option<f64>,
    refused: bool,
    ok: bool,
    qor_fp: Option<u64>,
}

/// Reads frames until every one of `n` requests has a terminal frame, the
/// connection closes, or the drain timeout passes.
fn read_frames(stream: UnixStream, t0: Instant, n: usize) -> HashMap<u64, Seen> {
    let mut seen: HashMap<u64, Seen> = HashMap::new();
    let mut done = 0;
    let _ = stream.set_read_timeout(Some(DRAIN_TIMEOUT));
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    while done < n {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
        let at = t0.elapsed().as_secs_f64();
        let Ok(frame) = parse_server_frame(line.trim_end()) else {
            break;
        };
        match frame {
            ServerFrame::Accepted { id, .. } => seen.entry(id).or_default().accepted = Some(at),
            ServerFrame::Stage { id, .. } => {
                seen.entry(id).or_default().first_stage.get_or_insert(at);
            }
            ServerFrame::Rejected { id, .. } => {
                let s = seen.entry(id).or_default();
                s.refused = true;
                s.end = Some(at);
                done += 1;
            }
            ServerFrame::Done { id, ok, qor_fp, .. } => {
                let s = seen.entry(id).or_default();
                s.ok = ok;
                s.qor_fp = qor_fp;
                s.end = Some(at);
                done += 1;
            }
            _ => {}
        }
    }
    seen
}

/// A daemon running on its own thread.
struct Running {
    socket: PathBuf,
    thread: JoinHandle<std::io::Result<eda::core::DaemonStats>>,
}

fn start_daemon(socket: &Path, store: &StoreConfig, threads: usize) -> std::io::Result<Running> {
    let mut cfg = DaemonConfig::new(socket);
    cfg.workers = threads.clamp(1, 2);
    cfg.threads = threads;
    cfg.queue_high_water = HIGH_WATER;
    cfg.store = Some(store.clone());
    let daemon = Daemon::bind(cfg)?;
    let thread = std::thread::spawn(move || daemon.run());
    Ok(Running {
        socket: socket.to_path_buf(),
        thread,
    })
}

impl Running {
    fn client(&self) -> std::io::Result<DaemonClient> {
        DaemonClient::connect_retry(
            &Endpoint::Unix(self.socket.clone()),
            &RetryPolicy::default(),
        )
    }

    /// Drains through `client` and joins the daemon thread.
    fn stop(self, client: &mut DaemonClient) -> Result<(), String> {
        client
            .shutdown()
            .map_err(|e| format!("daemon shutdown: {e}"))?;
        match self.thread.join() {
            Ok(Ok(_)) => Ok(()),
            Ok(Err(e)) => Err(format!("daemon exited with {e}")),
            Err(_) => Err("daemon thread panicked".to_string()),
        }
    }
}

/// `daemon-mix`: see the module docs.
pub fn daemon_mix(ctx: &mut Ctx, out: &mut Outcome) {
    let steady_s = ctx.seconds * STEADY_SHARE;
    let overload_s = ctx.seconds * OVERLOAD_SHARE;
    let plan = schedule(ctx.seed, steady_s, overload_s);
    let socket = ctx.work.join("d.sock");
    let store = StoreConfig::at(ctx.work.join("daemon.store"));
    let threads = ctx.threads;

    // Set-up: bind a daemon on a fresh store, connect, ping, drain. The
    // open loop cannot pause for set-up rounds, so all come first.
    let mut speed = HostSpeed::new(threads);
    let mut setup = SetupTimer::default();
    for _ in 0..SETUP_ROUNDS {
        let started = setup.round(speed.latest(), || -> Result<(), String> {
            let _ = std::fs::remove_file(&store.path);
            let d =
                start_daemon(&socket, &store, threads).map_err(|e| format!("daemon bind: {e}"))?;
            let mut c = d.client().map_err(|e| format!("connect: {e}"))?;
            c.ping().map_err(|e| format!("ping: {e}"))?;
            d.stop(&mut c)
        });
        if let Err(e) = started {
            return out.op(Some(e));
        }
    }
    // The open loop cannot pause for probes, so the host factor of the
    // traffic is the geometric mean of one probe before it and one after.
    let before = speed.probe();
    let _ = std::fs::remove_file(&store.path);
    let daemon = match start_daemon(&socket, &store, threads) {
        Ok(d) => d,
        Err(e) => return out.op(Some(format!("daemon bind: {e}"))),
    };
    let (mut side, stream) = match (daemon.client(), UnixStream::connect(&socket)) {
        (Ok(c), Ok(s)) => (c, s),
        (Err(e), _) | (_, Err(e)) => return out.op(Some(format!("connect: {e}"))),
    };
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(e) => return out.op(Some(format!("socket clone: {e}"))),
    };

    let t0 = Instant::now();
    let n = plan.len();
    let reader = std::thread::spawn(move || read_frames(stream, t0, n));
    let due: Vec<f64> = plan.iter().map(|p| p.due_s).collect();
    let mut queries = Vec::new();
    let mut send_errors = 0;
    let sent = drive_open_loop(&due, &mut WallClock(t0), |i, _| {
        let p = &plan[i];
        let mut spec = SubmitSpec::new(i as u64 + 1, p.spec);
        spec.seed = p.flow_seed;
        let line = format!("{}\n", ClientFrame::Submit(spec).to_line());
        if writer.write_all(line.as_bytes()).is_err() {
            send_errors += 1;
        }
        if i % QUERY_EVERY == QUERY_EVERY - 1 {
            let q = QuerySpec {
                design: Some(p.spec.to_string()),
                last: 5,
            };
            let t = Instant::now();
            queries.push(match side.query(&q) {
                Ok(_) => Ok(t.elapsed().as_secs_f64()),
                Err(e) => Err(format!("query of {}: {e}", p.spec)),
            });
        }
    });
    let frames = reader.join().unwrap_or_default();
    let factor = (before * speed.probe()).sqrt();

    // Exact repeats on the idle daemon, one at a time: the store-replay
    // path without queueing behind other flows, timed by the daemon from
    // admission to completion. Each pool design is replayed at the first
    // seed it ran with, four times.
    let mut firsts: Vec<&Planned> = Vec::new();
    for p in &plan {
        if !firsts.iter().any(|f| f.spec == p.spec) {
            firsts.push(p);
        }
    }
    let mut replays = Vec::new();
    for (k, p) in firsts.iter().cycle().take(4 * firsts.len()).enumerate() {
        let mut spec = SubmitSpec::new(k as u64 + 1, p.spec);
        spec.seed = p.flow_seed;
        let key = small_key(p.spec, p.flow_seed);
        out.op(match side.request(&spec).map(|o| o.terminal) {
            Ok(Terminal::Done {
                ok: true,
                qor_fp: Some(fp),
                wall_s,
                ..
            }) => {
                replays.push(wall_s);
                check_fp(&key, fp)
            }
            Ok(t) => Some(format!("idle repeat of {key} ended {t:?}")),
            Err(e) => Some(format!("idle repeat of {key}: {e}")),
        });
    }
    let ping_t = Instant::now();
    let pinged = side.ping().is_ok();
    let ping_s = ping_t.elapsed().as_secs_f64();
    let stopped = daemon.stop(&mut side);
    out.op(stopped.err());
    out.op((!pinged).then(|| "ping failed".to_string()));
    if send_errors > 0 {
        out.op(Some(format!("{send_errors} submits could not be written")));
    }
    let mut query_s = Vec::with_capacity(queries.len());
    for q in queries {
        match q {
            Ok(s) => {
                query_s.push(s);
                out.op(None);
            }
            Err(e) => out.op(Some(e)),
        }
    }

    // Per-request fates, checked against the pins.
    let mut requests = Vec::with_capacity(n);
    let (mut admit, mut queue_wait) = (vec![], vec![]);
    let mut run: Vec<Option<f64>> = Vec::with_capacity(n);
    for (i, p) in plan.iter().enumerate() {
        let s = frames.get(&(i as u64 + 1)).cloned().unwrap_or_default();
        let key = small_key(p.spec, p.flow_seed);
        let fate = match (s.refused, s.end, s.qor_fp) {
            (true, _, _) => Fate::Refused,
            (false, Some(end), Some(fp)) if s.ok && check_fp(&key, fp).is_none() => Fate::Done(end),
            _ => Fate::Failed,
        };
        out.op(match fate {
            Fate::Done(_) => None,
            Fate::Refused => Some(format!("request {} ({key}) refused", i + 1)),
            Fate::Failed => Some(match s.qor_fp {
                Some(fp) => check_fp(&key, fp).unwrap_or_else(|| format!("{key}: flow error")),
                None => format!("request {} ({key}) got no result", i + 1),
            }),
        });
        if let (Some(a), Some(f), Some(e)) = (s.accepted, s.first_stage, s.end) {
            admit.push(a - sent[i]);
            queue_wait.push(f - a);
            run.push(Some(e - f));
            ctx.tracer
                .record("daemon.submit->accepted", t0 + secs(sent[i]), t0 + secs(a));
            ctx.tracer
                .record("daemon.accepted->stage", t0 + secs(a), t0 + secs(f));
            ctx.tracer
                .record("daemon.stage->done", t0 + secs(f), t0 + secs(e));
        } else {
            run.push(None);
        }
        requests.push((
            p,
            Request {
                due_s: p.due_s,
                sent_s: sent[i],
                fate,
            },
        ));
    }
    let phase = |overload: bool| -> Vec<Request> {
        requests
            .iter()
            .filter(|(p, _)| p.overload == overload)
            .map(|(_, r)| *r)
            .collect()
    };
    let steady = account(&phase(false), LIMIT_S, steady_s);
    let over = account(&phase(true), LIMIT_S, overload_s);
    // Service after the first stage (queue wait excluded): fresh flows,
    // and exact repeats that replay from the store.
    let service = |exact: bool| -> Vec<f64> {
        requests
            .iter()
            .zip(&run)
            .filter(|((p, r), _)| {
                (p.kind == Kind::Exact) == exact && matches!(r.fate, Fate::Done(_))
            })
            .filter_map(|(_, s)| *s)
            .collect()
    };
    let (fresh, exact) = (service(false), service(true));
    // Completion rate under saturation: overload-phase completions over
    // the span from the phase's start to the last of them. The gated rate
    // counts fresh flows only, so it does not scale with the assumed share
    // of exact repeats, which replay from the store in milliseconds.
    let rate = |fresh_only: bool| -> f64 {
        let ends: Vec<f64> = requests
            .iter()
            .filter(|(p, _)| p.overload && !(fresh_only && p.kind == Kind::Exact))
            .filter_map(|(_, r)| match r.fate {
                Fate::Done(end) => Some(end),
                _ => None,
            })
            .collect();
        let span_s = ends.iter().copied().fold(steady_s, f64::max) - steady_s;
        ends.len() as f64 / span_s.max(f64::MIN_POSITIVE)
    };
    let (capacity, all_capacity) = (rate(true), rate(false));
    // Latency from due of the steady requests that ran a flow: exact
    // repeats form a second, much faster mode that would make a pooled
    // median jump between the two.
    let steady_fresh: Vec<f64> = requests
        .iter()
        .filter(|(p, _)| !p.overload && p.kind != Kind::Exact)
        .filter_map(|(_, r)| match r.fate {
            Fate::Done(end) => Some(end - r.due_s),
            _ => None,
        })
        .collect();
    let m = |v: &[f64]| stats::median(v).unwrap_or(0.0);

    if ctx.tracer.enabled() {
        out.set("daemon.admit_s", m(&admit));
        out.set("daemon.queue_wait_s", m(&queue_wait));
        out.set(
            "daemon.run_s",
            m(&run.iter().flatten().copied().collect::<Vec<_>>()),
        );
        out.set("daemon.shed", (steady.refused + over.refused) as f64);
        out.set("daemon.ping_s", ping_s);
        out.set("daemon.gen_lag_s", steady.gen_lag_s.max(over.gen_lag_s));
        probe_store(&mut ctx.tracer, &store, ctx.seed, out);
        let first = &plan[0];
        layer_metrics(
            ctx,
            &small_design(first.spec),
            &small_config(first.spec, first.flow_seed, ctx.threads),
            out,
        );
    } else {
        out.set("setup_s", setup.median_s());
        out.set("flow_s", m(&fresh) / factor);
        out.set("turnaround_s", m(&steady_fresh) / factor);
        out.set("throughput_per_s", capacity * factor);
        out.note("host_factor", format!("{factor:.3}"));
        out.note("raw_setup_s", format!("{:.5}", setup.raw_median_s()));
    }
    out.note(
        "requests",
        format!(
            "{} steady at {STEADY_RATE}/s, {} overload at {OVERLOAD_RATE}/s",
            steady.attempted, over.attempted
        ),
    );
    out.note("steady.p50_s", format!("{:.4}", m(&steady.latencies)));
    out.note("steady.p90_s", pct_text(&steady.latencies, 90.0));
    if let Some((p, v)) = stats::highest_percentile(&steady.latencies) {
        out.note(
            "steady.tail_s",
            format!("p{p} {v:.4} of {} samples", steady.latencies.len()),
        );
    }
    out.note(
        "overload.goodput_per_s",
        format!("{:.4}", over.goodput_per_s),
    );
    out.note("overload.p50_s", format!("{:.4}", m(&over.latencies)));
    out.note("overload.p90_s", pct_text(&over.latencies, 90.0));
    out.note("overload.misses", over.misses);
    out.note("overload.fresh_completions_per_s", format!("{capacity:.4}"));
    out.note("overload.completions_per_s", format!("{all_capacity:.4}"));
    // The mix is an assumption; print what each kind was and did, so the
    // figures above can be read against it.
    for (kind, name) in [
        (Kind::Unique, "unique"),
        (Kind::Near, "near"),
        (Kind::Exact, "exact"),
    ] {
        let of_kind: Vec<&Request> = requests
            .iter()
            .filter(|(p, _)| p.kind == kind)
            .map(|(_, r)| r)
            .collect();
        let latency: Vec<f64> = of_kind
            .iter()
            .filter_map(|r| match r.fate {
                Fate::Done(end) => Some(end - r.due_s),
                _ => None,
            })
            .collect();
        out.note(
            &format!("mix.{name}"),
            format!(
                "share {:.3} ({} of {n}), {} completed, p50 from due {:.4} s",
                of_kind.len() as f64 / n.max(1) as f64,
                of_kind.len(),
                latency.len(),
                m(&latency)
            ),
        );
    }
    out.note("exact_repeat_service_s", format!("{:.5}", m(&exact)));
    out.note("idle_repeat_s", format!("{:.5}", m(&replays)));
    out.note("query_p50_s", format!("{:.5}", m(&query_s)));
    out.note(
        "gen_lag_s",
        format!("{:.5}", steady.gen_lag_s.max(over.gen_lag_s)),
    );
}

/// Seconds of traffic in the short traced session that [`daemon_layer`]
/// runs.
pub const LAYER_TRACE_S: f64 = 8.0;

/// The `daemon.*` per-layer figures, for a workload whose traced run also
/// covers the daemon layer: a traced session of this workload's traffic,
/// [`LAYER_TRACE_S`] long, in its own scratch directory. Its operations
/// count toward `out`; only its `daemon.*` metrics are kept.
pub fn daemon_layer(ctx: &Ctx, out: &mut Outcome) {
    let mut sub = Ctx {
        seed: ctx.seed,
        seconds: LAYER_TRACE_S,
        threads: ctx.threads,
        work: ctx.work.join("daemon"),
        tracer: Tracer::new(true),
    };
    if let Err(e) = std::fs::create_dir_all(&sub.work) {
        return out.op(Some(format!("daemon scratch directory: {e}")));
    }
    let mut session = Outcome::default();
    daemon_mix(&mut sub, &mut session);
    for (name, value) in session.metrics {
        if name.starts_with("daemon.") {
            out.set(name, value);
        }
    }
    out.attempted += session.attempted;
    out.failed += session.failed;
    out.problems.extend(session.problems);
}

fn secs(s: f64) -> Duration {
    Duration::from_secs_f64(s.max(0.0))
}
