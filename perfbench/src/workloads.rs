//! The four workloads. Each fills an [`Outcome`]: end-to-end metrics when
//! untraced, per-layer metrics from a separate traced run.

use crate::bench::*;
use crate::calib::{HostSpeed, Unit};
use crate::stats::{self, fastest_third, median};
use crate::trace::Tracer;
use eda::core::{Metric, ServerReport};
use eda::netlist::generate;
use eda::{
    run_flow, FlowReport, FlowRequest, FlowServer, FlowStore, Lookup, QorQuery, Query, Store,
    StoreConfig, Table,
};
use std::os::unix::fs::MetadataExt;
use std::path::Path;
use std::time::Instant;

/// A named counter of a flow report's telemetry (0 when absent).
pub fn counter(report: &FlowReport, name: &str) -> u64 {
    match report.telemetry.metrics.get(name) {
        Some(Metric::Counter(n)) => *n,
        _ => 0,
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

fn med(v: &[f64]) -> f64 {
    median(v).unwrap_or(0.0)
}

/// Runs one flow and checks its fingerprint against `key`: the wall and
/// report when it ran, and why the operation fails, if it does.
fn flow_op(
    design: &eda::netlist::Netlist,
    cfg: &eda::FlowConfig,
    key: &str,
) -> (Option<(f64, FlowReport)>, Option<String>) {
    let t = Instant::now();
    let result = run_flow(design, cfg);
    let wall = t.elapsed().as_secs_f64();
    match result {
        Ok(r) => {
            let problem = check_fp(key, r.qor_fingerprint());
            (Some((wall, r)), problem)
        }
        Err(e) => (None, Some(format!("{key}: flow failed: {e}"))),
    }
}

// ---------------------------------------------------------------- mesh-cold

/// `mesh-cold`: one closed-loop client runs cold scale-tier flows, with
/// no store, over the mesh pool in a seeded rotation: flow `i` runs mesh
/// `(seed + i) mod MESH_SEEDS`. Every run covers the whole pool and its
/// figures weigh each design once, so they do not depend on which designs
/// the rotation reaches twice.
pub fn mesh_cold(ctx: &mut Ctx, out: &mut Outcome) {
    let first = mesh_seed(ctx.seed);
    let rotation: Vec<u64> = (0..MESH_SEEDS)
        .map(|i| 1 + (first - 1 + i) % MESH_SEEDS)
        .collect();
    let make = || {
        rotation
            .iter()
            .map(|&s| generate::scale_mesh(MESH_INSTANCES, s))
            .collect::<Result<Vec<_>, _>>()
    };
    let mut speed = HostSpeed::new(ctx.threads);
    let mut setup = SetupTimer::default();
    let designs = match setup.round(speed.latest(), &make) {
        Ok(d) => d,
        Err(e) => return out.op(Some(format!("scale_mesh({MESH_INSTANCES}): {e}"))),
    };
    let cfg = mesh_config(ctx.threads);
    out.note(
        "designs",
        format!("scale_mesh({MESH_INSTANCES}, seeds {rotation:?})"),
    );
    if ctx.tracer.enabled() {
        layer_metrics(ctx, &designs[0], &cfg, out);
        return;
    }
    let (start, spent0) = (Instant::now(), setup.spent_s());
    let busy = |setup: &SetupTimer| start.elapsed().as_secs_f64() - (setup.spent_s() - spent0);
    let (mut walls, mut units) = (Vec::new(), Vec::new());
    while walls.len() < designs.len() || room_for_another(busy(&setup), &walls, ctx.seconds) {
        let i = walls.len() % designs.len();
        let ((ran, problem), _, unit) =
            speed.unit(|| flow_op(&designs[i], &cfg, &mesh_key(rotation[i])));
        out.op(problem);
        match ran {
            Some((wall, _)) => {
                walls.push(wall);
                units.push(unit);
            }
            None => break,
        }
        if let Err(e) = setup.round(speed.latest(), &make) {
            out.op(Some(format!("scale_mesh({MESH_INSTANCES}): {e}")));
            break;
        }
    }
    let factors: Vec<f64> = units.iter().map(|&u| speed.factor(u)).collect();
    let mut per_design: Vec<Vec<f64>> = vec![Vec::new(); designs.len()];
    for (k, (wall, factor)) in walls.iter().zip(&factors).enumerate() {
        per_design[k % designs.len()].push(wall / factor);
    }
    let best: Vec<f64> = per_design.iter().filter_map(|v| fastest_third(v)).collect();
    let flow = best.iter().sum::<f64>() / best.len().max(1) as f64;
    out.set("setup_s", setup.median_s());
    out.set("flow_s", flow);
    out.set("turnaround_s", med(&best));
    out.set("throughput_per_s", 1.0 / flow);
    out.note("flows", walls.len());
    out.note("flow_walls_s", format!("{walls:.3?}"));
    out.note("host_factors", format!("{factors:.3?}"));
    out.note("design_best_s", format!("{best:.3?}"));
    out.note("raw_flow_p50_s", format!("{:.4}", med(&walls)));
    out.note("raw_setup_s", format!("{:.5}", setup.raw_median_s()));
}

// -------------------------------------------------------------- fabric-edit

/// Store bound of the edit loop: above what a cold fill writes, so the
/// warm re-run hits every stage, and below what the whole cycle writes,
/// so the edits compact the store inside the loop.
pub const FABRIC_STORE_BYTES: u64 = 1_800_000;

/// What one edit cycle measured.
struct Cycle {
    /// Cold, median warm, pass-edit and route-edit walls.
    walls: [f64; 4],
    /// The host-speed units of the cold fill, the warm re-runs and the two
    /// edits.
    units: [Unit; 3],
    sizes: [u64; 4],
    total_s: f64,
    stage_hits: u64,
    stage_lookups: u64,
    sub_hits: u64,
    sub_lookups: u64,
    compactions: u64,
}

impl Cycle {
    /// The cold, warm, pass-edit and route-edit walls, each over the host
    /// factor of its phase.
    fn normalized(&self, speed: &HostSpeed) -> [f64; 4] {
        let f = self.units.map(|u| speed.factor(u));
        [
            self.walls[0] / f[0],
            self.walls[1] / f[1],
            self.walls[2] / f[2],
            self.walls[3] / f[2],
        ]
    }
}

/// Warm re-runs per cycle; their median is the cycle's warm wall.
const WARM_RERUNS: usize = 5;

/// One designer cycle against a fresh persistent store: cold fill, warm
/// re-runs, one-AIG-pass edit, route-config edit. A probe of `speed`
/// closes each of the three phases.
fn edit_cycle(
    design: &eda::netlist::Netlist,
    base: &eda::FlowConfig,
    store: &StoreConfig,
    speed: &mut HostSpeed,
    out: &mut Outcome,
) -> Option<Cycle> {
    let _ = std::fs::remove_file(&store.path);
    let mut cfg = base.clone();
    cfg.store = Some(store.clone());
    let mut runs = vec![(cfg.clone(), fabric_key("cold"))];
    runs.extend((0..WARM_RERUNS).map(|_| (cfg.clone(), fabric_key("cold"))));
    runs.push((pass_edit(&cfg), fabric_key("pass")));
    runs.push((route_edit(&cfg), fabric_key("route")));
    let first = speed.start();
    let mut c = Cycle {
        walls: [0.0; 4],
        units: [first; 3],
        sizes: [0; 4],
        total_s: 0.0,
        stage_hits: 0,
        stage_lookups: 0,
        sub_hits: 0,
        sub_lookups: 0,
        compactions: 0,
    };
    let mut warm = Vec::new();
    let last = runs.len() - 1;
    // Compaction rewrites the store through a rename, so the file's inode
    // changes across a run that compacted.
    let inode = || {
        std::fs::metadata(&store.path)
            .map(|m| (m.ino(), m.len()))
            .unwrap_or((0, 0))
    };
    let mut ino = 0;
    for (i, (cfg, key)) in runs.iter().enumerate() {
        let (ran, mut problem) = flow_op(design, cfg, key);
        let Some((wall, report)) = ran else {
            out.op(problem);
            return None;
        };
        // Slot of this run in the cold/warm/pass/route columns.
        let slot = match i {
            0 => 0,
            _ if i == last => 3,
            _ if i == last - 1 => 2,
            _ => 1,
        };
        c.total_s += wall;
        if slot == 1 {
            warm.push(wall);
        } else {
            c.walls[slot] = wall;
        }
        let hits = counter(&report, "cache.hits");
        c.stage_hits += hits;
        c.stage_lookups += hits + counter(&report, "cache.misses");
        let sub = counter(&report, "cache.substage_hits");
        c.sub_hits += sub;
        c.sub_lookups += sub + counter(&report, "cache.substage_misses");
        let (now, len) = inode();
        c.compactions += u64::from(i > 0 && now != ino);
        c.sizes[slot] = len;
        ino = now;
        if slot == 1 && hits != eda::STAGES.len() as u64 {
            problem.get_or_insert(format!(
                "warm re-run hit {hits} of {} stages",
                eda::STAGES.len()
            ));
        }
        if i == last && c.compactions == 0 {
            problem.get_or_insert(format!(
                "the edit cycle never compacted its {FABRIC_STORE_BYTES}-byte store"
            ));
        }
        out.op(problem);
        // The probe that ends the cold fill, the warm re-runs or the cycle.
        if i == 0 || i == WARM_RERUNS || i == last {
            speed.probe();
            if i < last {
                c.units[if i == 0 { 1 } else { 2 }] = speed.start();
            }
        }
    }
    c.walls[1] = med(&warm);
    Some(c)
}

/// `fabric-edit`: the designer's edit loop on the `FABRIC` switch fabric under
/// the advanced 10 nm flow, every stage live, against a bounded store.
pub fn fabric_edit(ctx: &mut Ctx, out: &mut Outcome) {
    let store = StoreConfig::at(ctx.work.join("fabric.store")).with_max_bytes(FABRIC_STORE_BYTES);
    let make = || {
        let _ = std::fs::remove_file(&store.path);
        let opened = FlowStore::open(&store).map(|s| s.len_bytes());
        (generate::switch_fabric(FABRIC.0, FABRIC.1), opened)
    };
    let mut speed = HostSpeed::new(ctx.threads);
    let mut setup = SetupTimer::default();
    let design = match setup.round(speed.latest(), &make) {
        (Ok(d), Ok(_)) => d,
        (Err(e), _) => return out.op(Some(format!("switch_fabric: {e}"))),
        (_, Err(e)) => return out.op(Some(format!("opening the store: {e}"))),
    };
    // The design and flow are the ones the loop is about; the seed does
    // not change them.
    let cfg = fabric_config(ctx.threads);
    out.note(
        "design",
        format!(
            "switch_fabric({}, {}), advanced_2016(10nm) preset",
            FABRIC.0, FABRIC.1
        ),
    );

    if ctx.tracer.enabled() {
        let Some(c) = edit_cycle(&design, &cfg, &store, &mut speed, out) else {
            return;
        };
        out.set(
            "store.stage_hit_ratio",
            ratio(c.stage_hits, c.stage_lookups),
        );
        out.set("store.substage_hit_ratio", ratio(c.sub_hits, c.sub_lookups));
        out.set("store.evicted", c.compactions as f64);
        probe_store(&mut ctx.tracer, &store, ctx.seed, out);
        layer_metrics(ctx, &design, &cfg, out);
        return;
    }

    let (start, spent0) = (Instant::now(), setup.spent_s());
    let mut cycles: Vec<Cycle> = Vec::new();
    let mut cycle_walls = Vec::new();
    while room_for_another(
        start.elapsed().as_secs_f64() - (setup.spent_s() - spent0),
        &cycle_walls,
        ctx.seconds,
    ) {
        match edit_cycle(&design, &cfg, &store, &mut speed, out) {
            Some(c) => {
                cycle_walls.push(c.total_s);
                cycles.push(c);
            }
            None => break,
        }
        let (design, opened) = setup.round(speed.latest(), &make);
        if let Some(e) = design
            .err()
            .map(|e| e.to_string())
            .or(opened.err().map(|e| e.to_string()))
        {
            out.op(Some(format!("fabric-edit set-up: {e}")));
            break;
        }
    }
    let normalized: Vec<[f64; 4]> = cycles.iter().map(|c| c.normalized(&speed)).collect();
    let col = |i: usize| -> Vec<f64> { normalized.iter().map(|n| n[i]).collect() };
    let edits: Vec<f64> = normalized.iter().map(|n| n[2] + n[3]).collect();
    let totals: Vec<f64> = normalized
        .iter()
        .map(|n| n[0] + WARM_RERUNS as f64 * n[1] + n[2] + n[3])
        .collect();
    let fast = |v: &[f64]| fastest_third(v).unwrap_or(0.0);
    out.set("setup_s", setup.median_s());
    out.set("flow_s", fast(&col(0)));
    out.set("turnaround_s", fast(&edits));
    out.set("throughput_per_s", (WARM_RERUNS + 3) as f64 / fast(&totals));
    out.note("cycles", cycles.len());
    out.note("warm_s", format!("{:.4}", fast(&col(1))));
    out.note("edit_pass_s", format!("{:.4}", fast(&col(2))));
    out.note("edit_route_s", format!("{:.4}", fast(&col(3))));
    if let Some(c) = cycles.first() {
        out.note(
            "store_bytes",
            format!("{:?} after cold/warm/pass/route", c.sizes),
        );
    }
    out.note(
        "cycle_walls_s",
        format!("{:.3?}", cycles.iter().map(|c| c.walls).collect::<Vec<_>>()),
    );
    out.note("host_factors", format!("{:.3?}", speed.factors()));
    out.note("normalized_cold_s", format!("{:.4?}", col(0)));
    out.note("normalized_edit_s", format!("{edits:.4?}"));
    out.note(
        "raw_cold_p50_s",
        format!(
            "{:.4}",
            med(&cycles.iter().map(|c| c.walls[0]).collect::<Vec<_>>())
        ),
    );
    out.note("raw_setup_s", format!("{:.5}", setup.raw_median_s()));
    out.note(
        "compactions",
        cycles.iter().map(|c| c.compactions).sum::<u64>(),
    );
}

/// Times the store layer's public surface on a workload's store:
/// `FlowStore::open`, `Store::put`/`get` of probe records, and
/// `Query::qor_history`.
pub fn probe_store(tr: &mut Tracer, sc: &StoreConfig, seed: u64, out: &mut Outcome) {
    let store = match tr.span("store.FlowStore::open", || FlowStore::open(sc)) {
        Ok(s) => s,
        Err(e) => return out.op(Some(format!("store open: {e}"))),
    };
    out.set("store.open_s", tr.total_s("store.FlowStore::open"));
    out.set("store.bytes", store.len_bytes() as f64);
    let payload: String = "perfbench probe record ".repeat(40);
    let mut rng = Rng::new(seed, 7);
    let keys: Vec<u64> = (0..32).map(|_| rng.next_u64()).collect();
    for &k in &keys {
        if let Err(e) = tr.span("store.Store::put", || store.put(Table::Sub, k, &payload)) {
            return out.op(Some(format!("store put: {e}")));
        }
    }
    let mut misses = 0;
    for &k in &keys {
        if tr.span("store.Store::get", || store.get(Table::Sub, k)) != Lookup::Hit(payload.clone())
        {
            misses += 1;
        }
    }
    out.op(
        (misses > 0).then(|| format!("{misses} of {} probe records did not read back", keys.len()))
    );
    let rows = tr.span("store.Query::qor_history", || {
        store.qor_history(&QorQuery {
            design: None,
            stage: None,
            last: 0,
        })
    });
    out.op(rows.err().map(|e| format!("store query: {e}")));
    out.set("store.put_s", med(&tr.durations("store.Store::put")));
    out.set("store.get_s", med(&tr.durations("store.Store::get")));
    out.set("store.query_s", tr.total_s("store.Query::qor_history"));
}

// ------------------------------------------------------------- batch-serve

/// Designs per batch; each is submitted at two flow seeds.
const BATCH_DESIGNS: usize = 6;

/// The `(spec, flow seed)` requests of batch `b`: first seeds, then second.
fn batch_plan(seed: u64, b: u64) -> Vec<(&'static str, u64)> {
    let mut rng = Rng::new(seed, 100 + b);
    let mut specs: Vec<&str> = SMALL_DESIGNS.to_vec();
    let mut picks = Vec::new();
    for _ in 0..BATCH_DESIGNS {
        let spec = specs.swap_remove(rng.below(specs.len()));
        let s1 = 1 + rng.below(SMALL_SEEDS as usize) as u64;
        let s2 = 1 + (s1 + rng.below(SMALL_SEEDS as usize - 1) as u64) % SMALL_SEEDS;
        picks.push((spec, s1, s2));
    }
    let first = picks.iter().map(|&(d, s, _)| (d, s));
    let second = picks.iter().map(|&(d, _, s)| (d, s));
    first.chain(second).collect()
}

fn batch_requests(plan: &[(&str, u64)], threads: usize) -> Vec<FlowRequest> {
    plan.iter()
        .map(|&(spec, s)| FlowRequest::new(small_design(spec), small_config(spec, s, threads)))
        .collect()
}

fn server_for(store: &Path, threads: usize) -> FlowServer {
    FlowServer::builder()
        .threads(threads)
        .workers(threads.clamp(1, 2))
        .store(StoreConfig::at(store))
        .build()
}

/// Serves batch `b` against a fresh store and checks every response.
fn serve_batch(
    ctx: &mut Ctx,
    b: u64,
    out: &mut Outcome,
) -> (Vec<(&'static str, u64)>, ServerReport) {
    let plan = batch_plan(ctx.seed, b);
    let path = ctx.work.join(format!("batch-{b}.store"));
    let server = server_for(&path, ctx.threads);
    let requests = batch_requests(&plan, ctx.threads);
    let report = ctx
        .tracer
        .span("server.FlowServer::serve", || server.serve(requests));
    for r in &report.responses {
        let (spec, s) = plan[r.index];
        let key = small_key(spec, s);
        out.op(match &r.outcome {
            Ok(rep) => check_fp(&key, rep.qor_fingerprint()),
            Err(e) => Some(format!("{key}: {e}")),
        });
    }
    (plan, report)
}

/// `batch-serve`: closed batches of small designs through
/// `FlowServer::serve`, a fresh store per batch.
pub fn batch_serve(ctx: &mut Ctx, out: &mut Outcome) {
    let threads = ctx.threads;
    let work = ctx.work.clone();
    let make = || {
        let path = work.join("setup.store");
        let _ = std::fs::remove_file(&path);
        let server = server_for(&path, threads);
        // Every pool design, not one seeded batch, so that the set-up's
        // work does not depend on the seed.
        let pool: Vec<(&str, u64)> = SMALL_DESIGNS.iter().map(|&d| (d, 1)).collect();
        (batch_requests(&pool, threads), server)
    };
    let mut speed = HostSpeed::new(threads);
    let mut setup = SetupTimer::default();
    setup.round(speed.latest(), &make);
    out.note("batch", format!("{BATCH_DESIGNS} designs x 2 flow seeds"));

    if ctx.tracer.enabled() {
        let (plan, report) = serve_batch(ctx, 0, out);
        let starts: Vec<f64> = report.responses.iter().map(|r| r.start_s).collect();
        let walls: Vec<f64> = report.responses.iter().map(|r| r.wall_s).collect();
        out.set("server.queue_wait_s", med(&starts));
        out.set("server.run_s", med(&walls));
        out.set("server.steals", report.steals as f64);
        out.set("server.cross_hit_rate", report.cross_hit_rate());
        let reports: Vec<&FlowReport> =
            report.responses.iter().filter_map(|r| r.report()).collect();
        let sum = |n: &str| reports.iter().map(|r| counter(r, n)).sum::<u64>();
        out.set(
            "store.stage_hit_ratio",
            ratio(sum("cache.hits"), sum("cache.hits") + sum("cache.misses")),
        );
        out.set(
            "store.substage_hit_ratio",
            ratio(
                sum("cache.substage_hits"),
                sum("cache.substage_hits") + sum("cache.substage_misses"),
            ),
        );
        probe_store(
            &mut ctx.tracer,
            &StoreConfig::at(ctx.work.join("batch-0.store")),
            ctx.seed,
            out,
        );
        let (spec, s) = plan[0];
        layer_metrics(
            ctx,
            &small_design(spec),
            &small_config(spec, s, ctx.threads),
            out,
        );
        crate::daemon_mix::daemon_layer(ctx, out);
        return;
    }

    let (start, spent0) = (Instant::now(), setup.spent_s());
    // Per batch, each over the host factor around the batch: the median
    // first-seed run wall, the median turnaround, and the batch wall.
    let (mut firsts, mut turnarounds, mut units) = (vec![], vec![], vec![]);
    let (mut batch_walls, mut seconds) = (vec![], vec![]);
    let mut b = 0;
    while room_for_another(
        start.elapsed().as_secs_f64() - (setup.spent_s() - spent0),
        &batch_walls,
        ctx.seconds,
    ) {
        let ((_, report), _, unit) = speed.unit(|| serve_batch(ctx, b, out));
        let _ = std::fs::remove_file(ctx.work.join(format!("batch-{b}.store")));
        let (mut first, mut turnaround) = (vec![], vec![]);
        for r in &report.responses {
            if r.index < BATCH_DESIGNS {
                first.push(r.wall_s);
            } else {
                seconds.push(r.wall_s);
            }
            turnaround.push(r.start_s + r.wall_s);
        }
        firsts.push(med(&first));
        turnarounds.push(med(&turnaround));
        batch_walls.push(report.wall_s);
        units.push(unit);
        b += 1;
        setup.round(speed.latest(), &make);
    }
    let factors: Vec<f64> = units.iter().map(|&u| speed.factor(u)).collect();
    let fast = |v: &[f64]| {
        let normalized: Vec<f64> = v.iter().zip(&factors).map(|(x, f)| x / f).collect();
        fastest_third(&normalized).unwrap_or(0.0)
    };
    out.set("setup_s", setup.median_s());
    out.set("flow_s", fast(&firsts));
    out.set("turnaround_s", fast(&turnarounds));
    out.set(
        "throughput_per_s",
        (2 * BATCH_DESIGNS) as f64 / fast(&batch_walls),
    );
    out.note("batches", b);
    out.note("batch_walls_s", format!("{batch_walls:.3?}"));
    out.note("host_factors", format!("{factors:.3?}"));
    out.note("second_seed_run_s", format!("{:.4}", med(&seconds)));
    out.note("raw_setup_s", format!("{:.5}", setup.raw_median_s()));
}

/// Reports whether percentiles are available, as the report prints them.
pub fn pct_text(samples: &[f64], p: f64) -> String {
    match stats::percentile(samples, p) {
        Some(v) => format!("{v:.4}"),
        None => format!(
            "refused ({} samples < {})",
            samples.len(),
            stats::min_samples(p)
        ),
    }
}
