//! What every workload shares: the run context, the metric catalogue,
//! seeded inputs, the pinned QoR fingerprints and the result record.

use crate::replay;
use crate::trace::Tracer;
use eda::core::{flow_config_for, DesignSpec, SubmitSpec};
use eda::netlist::Netlist;
use eda::{run_flow, FlowConfig};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// How one run was asked to behave.
pub struct Ctx {
    /// Workload seed: every input derives from it.
    pub seed: u64,
    /// Measurement window, seconds.
    pub seconds: f64,
    /// Thread budget (defaults to the host's cores).
    pub threads: usize,
    /// Scratch directory for stores and sockets, inside the checkout.
    pub work: PathBuf,
    /// Span recorder; enabled for the traced run.
    pub tracer: Tracer,
}

/// End-to-end metrics: name, unit. Every workload reports each of them.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("flow_s", "s"),
    ("turnaround_s", "s"),
    ("throughput_per_s", "1/s"),
];

/// Per-layer metrics: name, unit. Every traced run reports each of them;
/// a layer the workload never calls reads 0.
pub const PER_LAYER: [(&str, &str); 45] = [
    ("logic.synth_s", "s"),
    ("logic.serial_s", "s"),
    ("logic.ec_s", "s"),
    ("logic.aig_nodes_after", "count"),
    ("logic.cells", "count"),
    ("place.s", "s"),
    ("place.cts_s", "s"),
    ("place.hpwl_um", "um"),
    ("route.s", "s"),
    ("route.serial_s", "s"),
    ("route.connections", "count"),
    ("route.cells_expanded", "count"),
    ("route.seam_conflicts", "count"),
    ("route.negotiation_waves", "count"),
    ("route.local_commit_ratio", "ratio"),
    ("route.overflow", "count"),
    ("sta.s", "s"),
    ("power.gating_s", "s"),
    ("power.analyze_s", "s"),
    ("litho.decompose_s", "s"),
    ("litho.opc_s", "s"),
    ("litho.opc_iterations", "count"),
    ("dft.scan_s", "s"),
    ("dft.fault_sim_s", "s"),
    ("dft.faults", "count"),
    ("flow.overhead_s", "s"),
    ("store.open_s", "s"),
    ("store.get_s", "s"),
    ("store.put_s", "s"),
    ("store.query_s", "s"),
    ("store.bytes", "bytes"),
    ("store.stage_hit_ratio", "ratio"),
    ("store.substage_hit_ratio", "ratio"),
    ("store.evicted", "count"),
    ("server.queue_wait_s", "s"),
    ("server.run_s", "s"),
    ("server.steals", "count"),
    ("server.cross_hit_rate", "ratio"),
    ("daemon.admit_s", "s"),
    ("daemon.queue_wait_s", "s"),
    ("daemon.run_s", "s"),
    ("daemon.shed", "count"),
    ("daemon.ping_s", "s"),
    ("daemon.gen_lag_s", "s"),
    ("trace.overhead_ratio", "ratio"),
];

/// One run's result.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (flows, requests).
    pub attempted: u64,
    /// Operations that erred, were refused, or gave an unexpected QoR.
    pub failed: u64,
    /// Why each failure counted, for the log.
    pub problems: Vec<String>,
    /// Measured metrics by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Workload-specific figures printed above the result line.
    pub detail: Vec<(String, String)>,
}

impl Outcome {
    /// Records one operation; `problem` marks it failed.
    pub fn op(&mut self, problem: Option<String>) {
        self.attempted += 1;
        if let Some(p) = problem {
            self.failed += 1;
            self.problems.push(p);
        }
    }

    /// Sets a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Adds a human-readable detail row.
    pub fn note(&mut self, key: &str, value: impl std::fmt::Display) {
        self.detail.push((key.to_string(), value.to_string()));
    }
}

/// A small seeded generator (SplitMix64): inputs depend on the seed alone.
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform index below `n` (n > 0).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in [0, 1).
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Instances of the `mesh-cold` design.
pub const MESH_INSTANCES: usize = 10_000;
/// Generator seeds of the `mesh-cold` design pool.
pub const MESH_SEEDS: u64 = 8;
/// The `fabric-edit` design, `switch_fabric(ports, width)`.
pub const FABRIC: (usize, usize) = (10, 8);
/// The small-design pool that `batch-serve` and `daemon-mix` draw from,
/// as daemon design specs.
pub const SMALL_DESIGNS: [&str; 16] = [
    "fabric:3x3",
    "fabric:4x3",
    "fabric:3x4",
    "fabric:4x4",
    "fabric:5x4",
    "fabric:6x4",
    "mult:4",
    "mult:5",
    "mult:6",
    "mult:7",
    "parity:16",
    "parity:32",
    "parity:64",
    "rand:60:1",
    "rand:90:2",
    "rand:120:3",
];
/// Flow seeds of the small-design pool.
pub const SMALL_SEEDS: u64 = 16;

/// The `mesh-cold` generator seed a workload seed selects.
pub fn mesh_seed(seed: u64) -> u64 {
    1 + seed % MESH_SEEDS
}

/// The mesh-cold flow config.
pub fn mesh_config(threads: usize) -> FlowConfig {
    let mut cfg = FlowConfig::scale_2016(eda::tech::Node::N28, MESH_INSTANCES);
    cfg.threads = threads;
    cfg
}

/// The fabric-edit flow config before any edit: the advanced preset as
/// it ships, seed included.
pub fn fabric_config(threads: usize) -> FlowConfig {
    let mut cfg = FlowConfig::advanced_2016(eda::tech::Node::N10);
    cfg.threads = threads;
    cfg
}

/// The one-pass synthesis edit of the fabric-edit loop.
pub fn pass_edit(cfg: &FlowConfig) -> FlowConfig {
    let mut c = cfg.clone();
    c.aig_rewrite_passes = cfg.aig_rewrite_passes.saturating_sub(1);
    c
}

/// The route-config edit of the fabric-edit loop.
pub fn route_edit(cfg: &FlowConfig) -> FlowConfig {
    let mut c = cfg.clone();
    c.ripup_iterations = cfg.ripup_iterations + 1;
    c
}

/// A small design as the daemon would build it from its spec.
pub fn small_design(spec: &str) -> Netlist {
    let parsed: DesignSpec = spec.parse().expect("pool specs parse");
    parsed.build().expect("pool specs build")
}

/// The flow config a daemon submit of (`spec`, `seed`) runs under; the
/// batch uses it too so both share one pin table.
pub fn small_config(spec: &str, seed: u64, threads: usize) -> FlowConfig {
    let mut sub = SubmitSpec::new(0, spec);
    sub.seed = seed;
    flow_config_for(&sub, threads, None, None).expect("pool specs make valid configs")
}

/// Pinned QoR fingerprints, recorded once with `perfbench pin`.
const PINS: &str = include_str!("../pins.txt");

/// The pinned fingerprint of `key`, if recorded.
pub fn pinned(key: &str) -> Option<u64> {
    PINS.lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| l.split_once(' '))
        .find(|(k, _)| *k == key)
        .and_then(|(_, fp)| u64::from_str_radix(fp.trim(), 16).ok())
}

/// Pin key of a mesh-cold design.
pub fn mesh_key(mesh_seed: u64) -> String {
    format!("mesh:{MESH_INSTANCES}:{mesh_seed}")
}

/// Pin key of a fabric-edit run: `phase` is `cold`, `pass` or `route`.
pub fn fabric_key(phase: &str) -> String {
    format!("fabric:{}x{}:{phase}", FABRIC.0, FABRIC.1)
}

/// Pin key of a small design at a flow seed.
pub fn small_key(spec: &str, seed: u64) -> String {
    format!("small:{spec}:{seed}")
}

/// Checks a fingerprint against its pin; the error says why it fails.
pub fn check_fp(key: &str, got: u64) -> Option<String> {
    match pinned(key) {
        Some(want) if want == got => None,
        Some(want) => Some(format!("{key}: qor_fp {got:016x}, pinned {want:016x}")),
        None => Some(format!("{key}: no pinned fingerprint")),
    }
}

/// Set-up rounds the daemon workload times before its traffic.
pub const SETUP_ROUNDS: usize = 5;
/// Shortest set-up round, s: a set-up cheaper than this repeats within
/// its round, so each round times enough work to rise above timer and
/// allocator noise.
pub const SETUP_ROUND_S: f64 = 0.1;

/// Times a workload's set-up in rounds. A round repeats the set-up until
/// it has taken `SETUP_ROUND_S` and yields the wall per repetition over
/// the host factor of the probe next to it (see [`crate::calib`]).
/// Closed-loop workloads time one round before their loop and one after
/// each unit of work, so the rounds sample the host across the whole run
/// as the other metrics do; `setup_s` is the median round.
#[derive(Debug, Default)]
pub struct SetupTimer {
    per_rep: Vec<f64>,
    raw_per_rep: Vec<f64>,
    spent_s: f64,
}

impl SetupTimer {
    /// Runs one round of the set-up `f` on a host whose latest factor is
    /// `factor`, and returns the last value it made.
    pub fn round<T>(&mut self, factor: f64, mut f: impl FnMut() -> T) -> T {
        let t = Instant::now();
        let mut reps = 0u32;
        let mut last = None;
        while reps == 0 || t.elapsed().as_secs_f64() < SETUP_ROUND_S {
            drop(last.take());
            last = Some(std::hint::black_box(f()));
            reps += 1;
        }
        let wall = t.elapsed().as_secs_f64();
        self.spent_s += wall;
        self.raw_per_rep.push(wall / f64::from(reps));
        self.per_rep.push(wall / f64::from(reps) / factor);
        last.expect("at least one repetition")
    }

    /// Median normalized wall per repetition over the rounds so far, s.
    pub fn median_s(&self) -> f64 {
        crate::stats::median(&self.per_rep).unwrap_or(0.0)
    }

    /// Median raw wall per repetition over the rounds so far, s.
    pub fn raw_median_s(&self) -> f64 {
        crate::stats::median(&self.raw_per_rep).unwrap_or(0.0)
    }

    /// Wall spent in rounds so far, s; loops subtract it from their own.
    pub fn spent_s(&self) -> f64 {
        self.spent_s
    }
}

/// Whether a closed loop with `elapsed_s` spent and units that took
/// `unit_walls` so far should start another unit inside `seconds`.
pub fn room_for_another(elapsed_s: f64, unit_walls: &[f64], seconds: f64) -> bool {
    let typical = crate::stats::median(unit_walls).unwrap_or(0.0);
    unit_walls.is_empty() || elapsed_s + typical <= seconds
}

/// Peak resident set of this process so far, MB.
pub fn peak_rss_mb() -> f64 {
    eda::core::read_peak_rss_bytes() as f64 / (1024.0 * 1024.0)
}

/// The per-layer figures of one design: an untraced `run_flow`, the traced
/// layer replay (checked against the flow's QoR), and the 1-thread
/// baselines of synthesis and routing, all added to `out`.
pub fn layer_metrics(ctx: &mut Ctx, design: &Netlist, cfg: &FlowConfig, out: &mut Outcome) {
    let mut cfg = cfg.clone();
    cfg.store = None;
    cfg.threads = ctx.threads;
    let t = Instant::now();
    let report = match run_flow(design, &cfg) {
        Ok(r) => r,
        Err(e) => {
            out.op(Some(format!("reference flow of {}: {e}", design.name())));
            return;
        }
    };
    let flow_s = t.elapsed().as_secs_f64();

    let tr = &mut ctx.tracer;
    let first = tr.spans().len();
    let t = Instant::now();
    let rep = match replay::replay(tr, design, &cfg, ctx.threads) {
        Ok(r) => r,
        Err(e) => {
            out.op(Some(format!("layer replay of {}: {e}", design.name())));
            return;
        }
    };
    let replay_s = t.elapsed().as_secs_f64();
    let flow_retries: usize = report
        .stage_status
        .values()
        .map(|s| s.attempts.saturating_sub(1))
        .sum();
    let problem = if !rep.matches(&report) {
        Some(format!(
            "layer replay of {} diverged from the flow: cells {}/{}, hpwl {}/{}, wirelength {}/{}, overflow {}/{}",
            design.name(),
            rep.cells,
            report.cells,
            rep.hpwl_um,
            report.hpwl_um,
            rep.route.wirelength,
            report.routed_wirelength,
            rep.route.overflow,
            report.overflow
        ))
    } else if rep.retries != flow_retries {
        Some(format!(
            "layer replay of {} retried {} stages, the flow {flow_retries}",
            design.name(),
            rep.retries
        ))
    } else {
        None
    };
    out.op(problem);
    let total = |name: &str| {
        tr.spans()[first..]
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_s())
            .sum::<f64>()
    };
    use replay::spans::*;
    let layer_s: f64 = ALL.iter().map(|n| total(n)).sum();
    out.set("logic.synth_s", total(SYNTH));
    out.set("logic.ec_s", total(EC));
    out.set("logic.aig_nodes_after", rep.aig_nodes_after as f64);
    out.set("logic.cells", rep.synth_cells as f64);
    out.set("place.s", total(PLACE));
    out.set("place.cts_s", total(CTS));
    out.set("place.hpwl_um", rep.hpwl_um);
    out.set("route.s", total(ROUTE));
    out.set("route.connections", rep.route.connections as f64);
    out.set("route.cells_expanded", rep.route.cells_expanded as f64);
    out.set("route.seam_conflicts", rep.route.seam_conflicts as f64);
    out.set(
        "route.negotiation_waves",
        rep.route.negotiation_waves as f64,
    );
    let commits = rep.route.local_commits + rep.route.seam_conflicts;
    out.set(
        "route.local_commit_ratio",
        if commits == 0 {
            0.0
        } else {
            rep.route.local_commits as f64 / commits as f64
        },
    );
    out.set("route.overflow", rep.route.overflow as f64);
    out.set("sta.s", total(STA));
    out.set("power.gating_s", total(GATING));
    out.set("power.analyze_s", total(ANALYZE));
    out.set("litho.decompose_s", total(DECOMPOSE));
    out.set("litho.opc_s", total(OPC));
    out.set("litho.opc_iterations", rep.opc_iterations as f64);
    out.set("dft.scan_s", total(SCAN) + total(REORDER));
    out.set("dft.fault_sim_s", total(FAULT_SIM));
    out.set("dft.faults", rep.faults as f64);
    out.set("flow.overhead_s", flow_s - layer_s);
    out.set("trace.overhead_ratio", replay_s / flow_s);

    // Named 1-thread baselines: the same calls, in the same replay, with
    // one thread; the QoR must not move.
    let mut serial = Tracer::new(true);
    let problem = match replay::replay(&mut serial, design, &cfg, 1) {
        Ok(r) if r.matches(&report) => None,
        Ok(_) => Some(format!(
            "1-thread replay of {} diverged from the flow",
            design.name()
        )),
        Err(e) => Some(format!("1-thread replay of {}: {e}", design.name())),
    };
    out.op(problem);
    out.set("logic.serial_s", serial.total_s(SYNTH));
    out.set("route.serial_s", serial.total_s(ROUTE));
    out.note("replay.flow_s", format!("{flow_s:.4}"));
    out.note("replay.layers_s", format!("{layer_s:.4}"));
    out.note("replay.retries", rep.retries);
}
