//! `perfbench`: runs one workload and prints its metrics.
//!
//! ```text
//! perfbench --workload <mesh-cold|fabric-edit|batch-serve|daemon-mix|all>
//!           [--seed N] [--seconds S] [--trace 0|1] [--threads N]
//! perfbench pin        # recompute the pinned QoR fingerprints
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. With `--trace 0` the metrics are
//! the end-to-end ones; with `--trace 1` the per-layer ones. Scratch files
//! live under `.bench_work/` in the working directory and are removed on
//! exit.

use perfbench::bench::{self, Ctx, Outcome, END_TO_END, PER_LAYER};
use perfbench::host::{self, Host};
use perfbench::trace::Tracer;
use perfbench::{daemon_mix, workloads};
use std::path::PathBuf;
use std::process::{Command, ExitCode};

const WORKLOADS: [&str; 4] = ["mesh-cold", "fabric-edit", "batch-serve", "daemon-mix"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    threads: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 25.0,
        trace: false,
        threads: host::cores(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = value()?,
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => a.trace = value()? == "1",
            "--threads" => a.threads = value()?.parse().map_err(|e| format!("--threads: {e}"))?,
            "pin" => a.workload = "pin".into(),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if a.workload != "pin" && a.workload != "all" && !WORKLOADS.contains(&a.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {} or all",
            WORKLOADS.join(", ")
        ));
    }
    if a.seconds.is_nan() || a.seconds <= 0.0 || a.threads == 0 {
        return Err("--seconds and --threads must be positive".into());
    }
    Ok(a)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match args.workload.as_str() {
        "pin" => pin(args.threads),
        "all" => run_all(&args),
        _ => run_one(&args),
    }
}

fn run_one(args: &Args) -> ExitCode {
    let work = PathBuf::from(".bench_work").join(std::process::id().to_string());
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("perfbench: cannot create {}: {e}", work.display());
        return ExitCode::FAILURE;
    }
    let host = Host::probe(args.threads, args.seed);
    let mut ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        threads: args.threads,
        work: work.clone(),
        tracer: Tracer::new(args.trace),
    };
    let mut out = Outcome::default();
    match args.workload.as_str() {
        "mesh-cold" => workloads::mesh_cold(&mut ctx, &mut out),
        "fabric-edit" => workloads::fabric_edit(&mut ctx, &mut out),
        "batch-serve" => workloads::batch_serve(&mut ctx, &mut out),
        _ => daemon_mix::daemon_mix(&mut ctx, &mut out),
    }
    let _ = std::fs::remove_dir_all(&work);
    let _ = std::fs::remove_dir(".bench_work");
    // Peak RSS of this fresh process, after the workload ran.
    out.set("peak_rss_mb", bench::peak_rss_mb());

    println!(
        "workload {} seed {} threads {} trace {}",
        args.workload,
        args.seed,
        args.threads,
        u8::from(args.trace)
    );
    for (k, v) in &out.detail {
        // Workload figures carry their unit when the name implies one.
        let unit = if v.parse::<f64>().is_err() {
            ""
        } else if k.ends_with("_per_s") {
            " 1/s"
        } else if k.ends_with("_s") {
            " s"
        } else {
            ""
        };
        println!("  {k:<24} {v}{unit}");
    }
    for p in &out.problems {
        println!("  FAILED: {p}");
    }
    // The traced run's spans, summed per name.
    let mut spans: std::collections::BTreeMap<&str, (usize, f64)> = Default::default();
    for s in ctx.tracer.spans() {
        let e = spans.entry(&s.name).or_default();
        e.0 += 1;
        e.1 += s.dur_s();
    }
    for (name, (n, total)) in spans {
        println!("  span {name:<32} n={n:<6} total_s={total:.6}");
    }
    println!("host {}", host.to_json());
    println!(
        "{}",
        result_line(
            &out,
            if args.trace {
                &PER_LAYER[..]
            } else {
                &END_TO_END[..]
            }
        )
    );
    ExitCode::SUCCESS
}

/// The result line. Every catalogued metric is present; a per-layer metric
/// the workload never reached reads 0. A missing end-to-end metric makes
/// the run incorrect.
fn result_line(out: &Outcome, catalogue: &[(&str, &str)]) -> String {
    let mut correct = out.failed == 0 && out.attempted > 0;
    let mut metrics = Vec::new();
    for (name, unit) in catalogue {
        let value = match out.metrics.get(name) {
            Some(v) if v.is_finite() => *v,
            _ if catalogue.len() == PER_LAYER.len() => 0.0,
            _ => {
                correct = false;
                0.0
            }
        };
        // Adding 0.0 turns an empty sum's -0.0 into 0.
        metrics.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            value + 0.0
        ));
    }
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted.max(1),
        out.failed,
        metrics.join(", ")
    )
}

/// Runs every workload in its own process, in turn, and prints each one's
/// figures; the last line sums the counts.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let (mut attempted, mut failed, mut correct) = (0u64, 0u64, true);
    for w in WORKLOADS {
        let run = Command::new(&exe)
            .args([
                "--workload",
                w,
                "--seed",
                &args.seed.to_string(),
                "--seconds",
                &args.seconds.to_string(),
            ])
            .args([
                "--trace",
                if args.trace { "1" } else { "0" },
                "--threads",
                &args.threads.to_string(),
            ])
            .output();
        let text = match run {
            Ok(o) if o.status.success() => String::from_utf8_lossy(&o.stdout).into_owned(),
            _ => {
                println!("{w}: did not run");
                correct = false;
                continue;
            }
        };
        let mut lines: Vec<&str> = text.lines().collect();
        let last = lines.pop().unwrap_or("");
        for l in &lines {
            println!("{l}");
        }
        println!("  result {last}");
        let count = |key: &str| {
            last.split(&format!("\"{key}\": "))
                .nth(1)
                .and_then(|r| r.split(',').next())
                .and_then(|n| n.trim().parse::<u64>().ok())
        };
        attempted += count("attempted").unwrap_or(0);
        failed += count("failed").unwrap_or(1);
        correct &= last.contains("\"correct\": true");
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{}}}}",
        attempted.max(1)
    );
    ExitCode::SUCCESS
}

/// Prints the pin table: the QoR fingerprint of every workload input.
fn pin(threads: usize) -> ExitCode {
    use eda::netlist::generate;
    use eda::run_flow;
    let fp = |d: &eda::netlist::Netlist, cfg: &eda::FlowConfig| match run_flow(d, cfg) {
        Ok(r) => format!("{:016x}", r.qor_fingerprint()),
        Err(e) => format!("error {e}"),
    };
    println!("# key qor_fingerprint -- written by `perfbench pin`");
    for s in 1..=bench::MESH_SEEDS {
        let d = generate::scale_mesh(bench::MESH_INSTANCES, s).expect("mesh pool generates");
        println!(
            "{} {}",
            bench::mesh_key(s),
            fp(&d, &bench::mesh_config(threads))
        );
    }
    let fabric =
        generate::switch_fabric(bench::FABRIC.0, bench::FABRIC.1).expect("fabric generates");
    let cfg = bench::fabric_config(threads);
    println!("{} {}", bench::fabric_key("cold"), fp(&fabric, &cfg));
    println!(
        "{} {}",
        bench::fabric_key("pass"),
        fp(&fabric, &bench::pass_edit(&cfg))
    );
    println!(
        "{} {}",
        bench::fabric_key("route"),
        fp(&fabric, &bench::route_edit(&cfg))
    );
    for spec in bench::SMALL_DESIGNS {
        let d = bench::small_design(spec);
        for s in 1..=bench::SMALL_SEEDS {
            println!(
                "{} {}",
                bench::small_key(spec, s),
                fp(&d, &bench::small_config(spec, s, threads))
            );
        }
    }
    ExitCode::SUCCESS
}
