//! The traced layer replay: the flow's stages called one by one, in
//! `run_flow`'s order and with its configs, each call inside a span.
//!
//! The replay mirrors the stage bodies of the flow, without the store,
//! supervisor or checkpoints. Where the flow's supervisor would retry a
//! stage (an inconclusive equivalence check, route overflow on the dense
//! tier, illegal or unconverged litho, a stalled IR solve), the replay
//! runs the whole stage body again with the adapted settings and counts
//! the retry. Its QoR and retry count must match the flow's report, which
//! proves that the spans time the same work the flow does.

use crate::trace::Tracer;
use eda::core::FlowConfig;
use eda::dft::{
    fault_list, fault_sim_threaded, insert_scan, random_patterns, reorder_chains, CombView,
};
use eda::litho::{decompose, run_opc_stats, Layout, OpcConfig, OpticalModel};
use eda::logic::{check_equivalence, synthesize_threaded_memo, EcVerdict};
use eda::netlist::{Netlist, NetlistError, NetlistStats};
use eda::place::{
    anneal, place_global, place_multilevel, place_parallel, synthesize_clock_tree, AnnealConfig,
    CtsConfig, Die, GlobalConfig, MultilevelConfig, ParallelConfig, Placement,
};
use eda::power::{
    analyze, insert_clock_gating, insert_decaps, solve_ir_drop, Activity, ActivityConfig,
    MeshConfig, PowerConfig, PowerGrid,
};
use eda::route::{route_stats_memo, RouteConfig, RouteOutcome, RuleDeck};
use eda::sta::{TimingAnalysis, TimingConfig};
use eda::tech::PatterningPlan;
use eda::FlowReport;

/// The flow's equivalence-check budgets (first try, escalated retry).
const EC_BUDGET: usize = 1 << 19;
const EC_BUDGET_ESCALATED: usize = 1 << 22;
/// The flow's OPC convergence limit, nm rms EPE.
const OPC_RMS_EPE_LIMIT_NM: f64 = 4.0;

/// Span names of the layer calls; the per-layer metrics sum them.
pub mod spans {
    pub const SYNTH: &str = "logic.synthesize_threaded_memo";
    pub const EC: &str = "logic.check_equivalence";
    pub const GATING: &str = "power.insert_clock_gating";
    pub const SCAN: &str = "dft.insert_scan";
    pub const PLACE: &str = "place.place";
    pub const REORDER: &str = "dft.reorder_chains";
    pub const CTS: &str = "place.synthesize_clock_tree";
    pub const STA: &str = "sta.TimingAnalysis::run";
    pub const ROUTE: &str = "route.route_stats_memo";
    pub const DECOMPOSE: &str = "litho.decompose";
    pub const OPC: &str = "litho.run_opc_stats";
    pub const ANALYZE: &str = "power.analyze";
    pub const SIGNOFF: &str = "power.decaps_and_ir";
    pub const FAULT_SIM: &str = "dft.fault_sim_threaded";
    /// Every layer span, for the flow-overhead sum.
    pub const ALL: [&str; 14] = [
        SYNTH, EC, GATING, SCAN, PLACE, REORDER, CTS, STA, ROUTE, DECOMPOSE, OPC, ANALYZE, SIGNOFF,
        FAULT_SIM,
    ];
}

/// What the replay produced: the QoR it must share with the flow, plus
/// the layer counters the per-layer metrics report.
#[derive(Debug, Clone)]
pub struct Replay {
    /// Combinational cells after scan insertion.
    pub cells: usize,
    /// Placed half-perimeter wirelength of the final netlist, µm.
    pub hpwl_um: f64,
    /// The route the flow keeps.
    pub route: RouteOutcome,
    /// AIG nodes after rewriting.
    pub aig_nodes_after: usize,
    /// Cells the mapper produced.
    pub synth_cells: usize,
    /// OPC iterations (0 where litho is skipped).
    pub opc_iterations: usize,
    /// Faults simulated (0 where DFT is off).
    pub faults: usize,
    /// Stage retries the replay made, as the flow's supervisor would.
    pub retries: usize,
}

impl Replay {
    /// Whether the replay reproduces the report's cells, HPWL, routed
    /// wirelength and overflow bit for bit.
    pub fn matches(&self, report: &FlowReport) -> bool {
        self.cells == report.cells
            && self.hpwl_um.to_bits() == report.hpwl_um.to_bits()
            && self.route.wirelength == report.routed_wirelength
            && self.route.overflow == report.overflow
    }
}

/// Why a replay could not finish.
#[derive(Debug)]
pub struct ReplayError(pub String);

impl std::fmt::Display for ReplayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

fn route_config(cfg: &FlowConfig, threads: usize) -> RouteConfig {
    let plan = PatterningPlan::for_node(cfg.node);
    let deck = if plan.needs_decomposition() {
        RuleDeck::multi_patterned(cfg.layers, plan.total_exposures())
    } else {
        RuleDeck::simple(cfg.layers)
    };
    RouteConfig {
        algorithm: cfg.router,
        deck,
        grid_cells: cfg.route_grid_cells,
        ripup_iterations: cfg.ripup_iterations,
        threads,
        window_margin: cfg.route_window_margin,
        region_size: cfg.route_region_size,
    }
}

/// Routes like the flow's `7_route` stage: negotiated rip-up, then one
/// coarse-grid retry (dense tier only) keeping the lesser overflow.
/// Returns the route the flow keeps and whether it retried.
fn route_like_flow(
    tr: &mut Tracer,
    netlist: &Netlist,
    placement: &Placement,
    cfg: &FlowConfig,
    threads: usize,
) -> (RouteOutcome, bool) {
    let rcfg = route_config(cfg, threads);
    let (first, _, _) = tr.span(spans::ROUTE, || {
        route_stats_memo(netlist, placement, &rcfg, None)
    });
    if first.is_clean() || cfg.ripup_iterations == 0 || cfg.route_window_margin > 0 {
        return (first, false);
    }
    let coarse = rcfg.coarsened();
    let (second, _, _) = tr.span(spans::ROUTE, || {
        route_stats_memo(netlist, placement, &coarse, None)
    });
    if (first.overflow, first.wirelength) <= (second.overflow, second.wirelength) {
        (first, true)
    } else {
        (second, true)
    }
}

/// The flow's `1_synthesis` stage: synthesis, then the equivalence check.
/// An inconclusive first check retries the whole stage, as the flow's
/// supervisor does, with the escalated budget. Returns the outcome and
/// whether it retried.
fn synthesize_like_flow(
    tr: &mut Tracer,
    design: &Netlist,
    cfg: &FlowConfig,
    threads: usize,
) -> Result<(eda::logic::SynthesisOutcome, bool), ReplayError> {
    for adapt in 0..2 {
        let (synth, _) = tr
            .span(spans::SYNTH, || {
                synthesize_threaded_memo(
                    design,
                    cfg.library.library(),
                    cfg.synthesis,
                    cfg.map_goal,
                    threads,
                    cfg.aig_rewrite_passes,
                    None,
                )
            })
            .map_err(|e| ReplayError(format!("synthesis: {e}")))?;
        if !cfg.verify_synthesis {
            return Ok((synth, false));
        }
        let budget = if adapt == 0 {
            EC_BUDGET
        } else {
            EC_BUDGET_ESCALATED
        };
        let verdict = tr.span(spans::EC, || {
            check_equivalence(design, &synth.netlist, &[], &[], budget)
        });
        if adapt == 1 || !matches!(verdict, Ok(EcVerdict::Inconclusive)) {
            return Ok((synth, adapt == 1));
        }
    }
    unreachable!("the second attempt always returns")
}

/// Replays the whole flow of `design` under `cfg` (its thread count
/// resolved to `threads`), one span per layer call.
pub fn replay(
    tr: &mut Tracer,
    design: &Netlist,
    cfg: &FlowConfig,
    threads: usize,
) -> Result<Replay, ReplayError> {
    let nl_err = |stage: &'static str| move |e: NetlistError| ReplayError(format!("{stage}: {e}"));

    // 1: synthesis, plus the equivalence check with its one escalation.
    let (synth, retried) = synthesize_like_flow(tr, design, cfg, threads)?;
    let mut retries = usize::from(retried);
    let (aig_nodes_after, synth_cells) = (synth.aig_nodes_after, synth.cells);
    let mut netlist = synth.netlist;

    // 2: clock gating; a failure keeps the ungated netlist.
    if cfg.power.clock_gating_group > 0 {
        if let Ok(g) = tr.span(spans::GATING, || {
            insert_clock_gating(&netlist, cfg.power.clock_gating_group)
        }) {
            netlist = g.netlist;
        }
    }

    // 3: scan insertion.
    let mut chains = Vec::new();
    if let Some(scan) = cfg.scan {
        let s = tr
            .span(spans::SCAN, || insert_scan(&netlist, scan.chains))
            .map_err(nl_err("scan"))?;
        netlist = s.netlist;
        chains = s.chains;
    }
    let cells = NetlistStats::of(&netlist).combinational;

    // 4: placement, by the same effort switch as the flow.
    let die = Die::for_netlist(&netlist, cfg.utilization);
    let placement = tr.span(spans::PLACE, || {
        if cfg.place.cluster_gates > 0 {
            let ml = MultilevelConfig {
                cluster_size: cfg.place.cluster_gates,
                coarse_iterations: cfg.place.global_iterations,
                refine_moves_per_cell: cfg.place.anneal_moves_per_cell,
                seed: cfg.seed,
            };
            place_multilevel(&netlist, die, &ml).placement
        } else if cfg.place.stripes > 1 {
            let pc = ParallelConfig {
                threads,
                stripes: cfg.place.stripes,
                moves_per_cell: cfg.place.anneal_moves_per_cell,
                passes: 2,
                seed: cfg.seed,
            };
            place_parallel(&netlist, die, &pc).placement
        } else {
            let mut p = place_global(
                &netlist,
                die,
                &GlobalConfig {
                    iterations: cfg.place.global_iterations,
                    seed: cfg.seed,
                },
            );
            let ac = AnnealConfig {
                moves_per_cell: cfg.place.anneal_moves_per_cell,
                seed: cfg.seed,
                ..Default::default()
            };
            anneal(&netlist, &mut p, &ac, None, None);
            p
        }
    });

    // 5: placement-aware scan reordering.
    if cfg.scan.is_some_and(|s| s.placement_aware_reorder) && !chains.is_empty() {
        tr.span(spans::REORDER, || reorder_chains(&chains, &placement));
    }

    // 6: clock-tree synthesis, then timing.
    tr.span(spans::CTS, || {
        synthesize_clock_tree(&netlist, &placement, &CtsConfig::default())
    });
    let tcfg = TimingConfig {
        clock_period_ps: 1e6 / cfg.clock_mhz,
        ..Default::default()
    };
    tr.span(spans::STA, || TimingAnalysis::run(&netlist, &tcfg))
        .map_err(nl_err("sta"))?;

    // 7: routing.
    let (route, retried) = route_like_flow(tr, &netlist, &placement, cfg, threads);
    retries += usize::from(retried);

    // 8: decomposition and OPC of the critical layer, below the
    // single-exposure pitch only.
    let plan = PatterningPlan::for_node(cfg.node);
    let mut opc_iterations = 0;
    if plan.needs_decomposition() {
        let pitch = cfg.node.spec().metal_pitch_nm;
        let wires = (route.wirelength / 4).clamp(24, 160) as usize;
        let layout = Layout::random_wires(wires, pitch, pitch * 40.0, cfg.seed);
        let model = OpticalModel::default();
        let relaxed_pitch = pitch * plan.total_exposures() as f64;
        let target: Vec<(f64, f64)> = (0..6)
            .map(|i| {
                let x = 200.0 + i as f64 * relaxed_pitch;
                (x, x + relaxed_pitch / 2.0)
            })
            .collect();
        let extent = 400.0 + relaxed_pitch * 6.0;
        for adapt in 0..2 {
            let stitch_budget = if adapt == 0 { wires / 2 } else { wires };
            let deco = tr.span(spans::DECOMPOSE, || {
                decompose(
                    &layout,
                    plan.total_exposures(),
                    eda::tech::SINGLE_EXPOSURE_PITCH_NM,
                    stitch_budget,
                )
            });
            let ocfg = OpcConfig {
                threads,
                ..Default::default()
            };
            let ocfg = if adapt == 0 { ocfg } else { ocfg.backoff() };
            let (opc, _) = tr.span(spans::OPC, || run_opc_stats(&model, &target, extent, &ocfg));
            opc_iterations += opc.rms_epe_history.len().saturating_sub(1);
            if deco.legal && opc.converged(OPC_RMS_EPE_LIMIT_NM) {
                break;
            }
            retries += usize::from(adapt == 0);
        }
    }

    // 9: power analysis, decaps and IR-drop signoff. A stalled IR solve
    // retries the whole stage with the relaxed tolerance, as the flow does.
    let pcfg = PowerConfig {
        node: cfg.node,
        freq_mhz: cfg.clock_mhz,
        ..Default::default()
    };
    for adapt in 0..2 {
        let activity = tr
            .span(spans::ANALYZE, || -> Result<_, NetlistError> {
                let activity = Activity::estimate(&netlist, &ActivityConfig::default())?;
                analyze(&netlist, &activity, &pcfg);
                Ok(activity)
            })
            .map_err(nl_err("power"))?;
        let (powered, converged) = tr.span(spans::SIGNOFF, || {
            let mut out = netlist.clone();
            if let Some(limit) = cfg.power.decap_droop_limit_mv {
                let mut grid = PowerGrid::build(&netlist, &placement, &activity, &pcfg, 8);
                if let Ok(d) = insert_decaps(&netlist, &mut grid, cfg.node, limit) {
                    out = d.netlist;
                }
            }
            let ir_grid = PowerGrid::build(&out, &placement, &activity, &pcfg, 8);
            let mesh = if adapt == 0 {
                MeshConfig::default()
            } else {
                MeshConfig::default().relaxed()
            };
            let converged = solve_ir_drop(&ir_grid, cfg.node, &mesh).converged(&mesh);
            (out, converged)
        });
        if converged || adapt == 1 {
            netlist = powered;
            break;
        }
        retries += 1;
    }

    // 10: random-pattern fault simulation.
    let mut faults = 0;
    if cfg.scan.is_some() {
        let sim = tr
            .span(spans::FAULT_SIM, || -> Result<_, NetlistError> {
                let view = CombView::new(&netlist)?;
                let list = fault_list(&netlist);
                let pats = random_patterns(&view, 96, cfg.seed);
                Ok(fault_sim_threaded(&netlist, &view, &list, &pats, threads).0)
            })
            .map_err(nl_err("dft"))?;
        faults = sim.total;
    }

    Ok(Replay {
        cells,
        hpwl_um: placement.total_hpwl(&netlist),
        route,
        aig_nodes_after,
        synth_cells,
        opc_iterations,
        faults,
        retries,
    })
}
