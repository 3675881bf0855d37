//! `tbd` — command-line front end of the benchmark suite.
//!
//! ```text
//! tbd suite [--gpu p4000|titanxp]             run all Table-2 implementations
//! tbd sweep <model> [--framework <fw>]        batch sweep (Fig. 4 slice)
//! tbd memory <model> [--framework <fw>]       memory breakdown (Fig. 9 slice)
//! tbd kernels <model> <framework>             kernel table (Tables 5/6 style)
//! tbd distributed                             Fig. 10 cluster sweep
//! tbd scale <model> [--sweep] [--stragglers]  event-driven scaling report
//! tbd diagnose <model> [--cluster <label>]    trace-mining bottleneck diagnosis
//! tbd watch <model> [--port <p>] [--steps N]  live observability HTTP endpoint
//! tbd serve [--port <p>] [--workers N]        capacity-planning query service
//! tbd loadgen [--mode closed|open]            load-generate against the serve engine
//! tbd report <model> [--out run.html]         self-contained HTML run report
//! tbd json <model> <framework> <batch>        one profile as a JSON object
//! tbd list                                    models, frameworks, devices
//! ```

use std::process::ExitCode;
use tbd_core::serve::{parse_batch, parse_framework, parse_model};
use tbd_core::{
    kernel_table, paper_batches, Framework, GpuSpec, Interconnect, MemoryCategory, ModelKind,
    Suite, WorkloadMetrics,
};
use tbd_distrib::{ClusterConfig, DataParallelSim};
use tbd_graph::lower::memory_footprint;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    let command = it.next().map(String::as_str).unwrap_or("help");
    let rest: Vec<&str> = it.map(String::as_str).collect();
    let result = match command {
        "suite" => cmd_suite(&rest),
        "sweep" => cmd_sweep(&rest),
        "memory" => cmd_memory(&rest),
        "kernels" => cmd_kernels(&rest),
        "distributed" => cmd_distributed(),
        "scale" => cmd_scale(&rest),
        "chaos" => cmd_chaos(&rest),
        "diagnose" => cmd_diagnose(&rest),
        "json" => cmd_json(&rest),
        "trace" => cmd_trace(&rest),
        "metrics" => cmd_metrics(&rest),
        "watch" => cmd_watch(&rest),
        "serve" => cmd_serve(&rest),
        "loadgen" => cmd_loadgen(&rest),
        "report" => cmd_report(&rest),
        "bench" => cmd_bench(&rest),
        "dot" => cmd_dot(&rest),
        "analyze" => cmd_analyze(&rest),
        "list" => cmd_list(),
        "help" | "--help" | "-h" => {
            print_help();
            Ok(())
        }
        other => Err(format!("unknown command '{other}' (try `tbd help`)")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}

/// Writes large output without panicking when the consumer (e.g. `head`)
/// closes the pipe early.
fn print_all(text: &str) {
    use std::io::Write;
    let mut stdout = std::io::stdout();
    let _ = stdout.write_all(text.as_bytes());
    let _ = stdout.write_all(b"\n");
}

fn print_help() {
    println!("tbd — Training Benchmark for DNNs (Rust reproduction of IISWC 2018)");
    println!();
    println!("commands:");
    println!("  suite [--gpu p4000|titanxp]        profile all Table-2 implementations");
    println!("  sweep <model> [--framework <fw>]   throughput/utilisation batch sweep");
    println!("  memory <model> [--framework <fw>]  Fig. 9-style memory breakdown");
    println!("  kernels <model> <framework>        Tables 5/6-style kernel table");
    println!("  distributed                        Fig. 10 cluster sweep");
    println!("  scale <model> [--framework <fw>] [--batch <n>] [--sweep] [--stragglers]");
    println!("        [--seed <n>] [--churn sweep|mild|heavy|<rate>] [--steps <n>]");
    println!("        [--format md|json] [--out <f>] [--check <snapshot>]");
    println!("        event-driven Fig. 10/11 scaling report with derived overlap;");
    println!("        --churn swaps in the elastic-membership sweep (evictions on missed");
    println!("        collective deadlines, degraded all-reduce, rejoin catch-up)");
    println!("  chaos <model> [--framework <fw>] [--batch <n>] [--steps <n>] [--seed <n>]");
    println!("        [--faults none|mild|heavy] [--policy replay-exact|default] [--threads <n>]");
    println!("        [--churn sweep|mild|heavy|<rate>] [--format md|json] [--out <f>]");
    println!("        [--check <snapshot>]");
    println!("        fault-injection run with recovery, goodput and bit-exactness verdict;");
    println!("        --churn injects node loss instead of kernel faults (elastic sweep)");
    println!("  diagnose <model> [--framework <fw>] [--batch <n>] [--cluster <label>]");
    println!("        [--stragglers] [--seed <n>] [--faults none|mild|heavy] [--steps <n>]");
    println!("        [--threads <n>] [--no-fuse] [--precision f32|f16|bf16]");
    println!("        [--format md|json] [--out <f>] [--check <snapshot>]");
    println!("        trace-mining diagnosis: ranked bottleneck classes with evidence");
    println!("  json <model> <framework> <batch>   one profile as JSON");
    println!("  trace <model> [--framework <fw>] [--batch <n>] [--threads <n>] [--out <f>]");
    println!("        [--no-fuse] [--precision f32|f16|bf16]");
    println!("        full-spine Chrome trace JSON (--summary for an nvprof-style table)");
    println!("  metrics <model> [--framework <fw>] [--batch <n>] [--threads <n>]");
    println!("        [--no-fuse] [--precision f32|f16|bf16] [--format prom|json|md]");
    println!("        streaming aggregation of a live trace into the metrics registry");
    println!("  watch <model> [--framework <fw>] [--batch <n>] [--port <p>] [--steps <n>]");
    println!("        [--interval-ms <n>] [--retain-cap <n>] [--threads <n>] [--no-fuse]");
    println!("        [--precision f32|f16|bf16]");
    println!("        live HTTP endpoint: /metrics /health /trace.json /report");
    println!("  serve [--port <p>] [--workers <n>] [--queue <n>] [--shards <n>] [--gpu <g>]");
    println!("        capacity-planning HTTP service: GET /query?model=…&cluster=… answers");
    println!("        iteration time, exposed comm, top-1 diagnosis and $/iteration from a");
    println!("        sharded single-flight cache (deterministic responses; /health for stats)");
    println!("  loadgen [--mode closed|open] [--clients <n>] [--requests <n>] [--rate <qps>]");
    println!("        [--gpu <g>] [--format md|json] [--out <f>] [--check <golden>] [--bench <f>]");
    println!("        drive the serve engine in-process, report q/s and p50/p95/p99 latency;");
    println!("        --check pins the golden query response, --bench attaches the summary");
    println!("        to an existing BENCH_<date>.json");
    println!("  report <model> [--framework <fw>] [--batch <n>] [--out <f>] [--timestamp <t>]");
    println!("        [--check <digest-file>] [--threads <n>] [--no-fuse] [--precision f32|f16|bf16]");
    println!("        self-contained HTML run report (flamegraph, memory, overlap, diagnosis)");
    println!("  bench [--matrix] [--out <dir>] [--check <snapshot>]");
    println!("        [--fuse|--no-fuse] [--precision f32|f16|bf16]");
    println!("        perf-trajectory run: writes schema-versioned BENCH_<date>.json");
    println!("  dot <model>                        model graph in Graphviz DOT format");
    println!("  analyze <model> <framework> <batch>  full Fig. 3 analysis pipeline");
    println!("  list                               available models/frameworks/devices");
}

fn parse_gpu(args: &[&str]) -> GpuSpec {
    match args.iter().position(|a| *a == "--gpu") {
        Some(i) if args.get(i + 1) == Some(&"titanxp") => GpuSpec::titan_xp(),
        _ => GpuSpec::quadro_p4000(),
    }
}

/// Parses the shared speed-tier flags: `--fuse` (default) / `--no-fuse`
/// and `--precision f32|f16|bf16` (default f32).
fn speed_flags(args: &[&str]) -> Result<(bool, tbd_tensor::Precision), String> {
    let fuse = !args.contains(&"--no-fuse");
    let precision = match args.iter().position(|a| *a == "--precision") {
        Some(i) => args.get(i + 1).ok_or("--precision needs a value")?.parse()?,
        None => tbd_tensor::Precision::F32,
    };
    Ok((fuse, precision))
}

fn framework_flag(args: &[&str], kind: ModelKind) -> Result<Framework, String> {
    match args.iter().position(|a| *a == "--framework") {
        Some(i) => {
            let name = args.get(i + 1).ok_or("--framework needs a value")?;
            parse_framework(name)
        }
        None => Framework::all()
            .into_iter()
            .find(|fw| fw.supports(kind))
            .ok_or_else(|| "no framework supports this model".to_string()),
    }
}

fn cmd_suite(args: &[&str]) -> Result<(), String> {
    let suite = Suite::new(parse_gpu(args));
    println!("TBD suite on {}", suite.gpu().name);
    for (kind, framework) in Suite::supported_pairs() {
        let batch = *paper_batches(kind).last().expect("non-empty axis");
        // Fall back to smaller batches on OOM, as the figures do.
        let mut shown = false;
        for &b in paper_batches(kind).iter().rev() {
            if let Ok(m) = suite.run(kind, framework, b) {
                print_metrics_row(&m);
                shown = true;
                break;
            }
        }
        if !shown {
            println!("{:<14} {:<11} no feasible batch (largest tried {batch})", kind.name(), framework.name());
        }
    }
    Ok(())
}

fn print_metrics_row(m: &WorkloadMetrics) {
    println!(
        "{:<14} {:<11} b{:<5} {:>8.1}/s  GPU {:>5.1}%  FP32 {:>5.1}%  CPU {:>5.1}%  {:>5.2} GB",
        m.model.name(),
        m.framework,
        m.batch,
        m.throughput,
        100.0 * m.gpu_utilization,
        100.0 * m.fp32_utilization,
        100.0 * m.cpu_utilization,
        m.memory.total() as f64 / 1e9
    );
}

fn cmd_sweep(args: &[&str]) -> Result<(), String> {
    let model = parse_model(args.first().ok_or("usage: tbd sweep <model>")?)?;
    let framework = framework_flag(args, model)?;
    let suite = Suite::new(parse_gpu(args));
    println!("{} on {} ({})", model.name(), framework.name(), suite.gpu().name);
    for (batch, metrics) in suite.sweep(model, framework) {
        match metrics {
            Some(m) => print_metrics_row(&m),
            None => println!("{:<14} {:<11} b{:<5} OOM", model.name(), framework.name(), batch),
        }
    }
    Ok(())
}

fn cmd_memory(args: &[&str]) -> Result<(), String> {
    let model = parse_model(args.first().ok_or("usage: tbd memory <model>")?)?;
    let framework = framework_flag(args, model)?;
    let suite = Suite::new(parse_gpu(args));
    println!("{} on {} — memory breakdown", model.name(), framework.name());
    for (batch, metrics) in suite.sweep(model, framework) {
        match metrics {
            Some(m) => {
                print!("  b{batch:<5} {:5.2} GB |", m.memory.total() as f64 / 1e9);
                for cat in MemoryCategory::ALL {
                    print!(" {cat} {:.2}", m.memory.peak(cat) as f64 / 1e9);
                }
                println!();
            }
            None => println!("  b{batch:<5} OOM"),
        }
    }
    // Layer-type attribution of the activations (the profiler's
    // "where does the memory go" view).
    let batch = paper_batches(model)[0];
    let built = model.build_full(batch).map_err(|e| e.to_string())?;
    let by_op = memory_footprint_by_op(&built);
    println!("activation bytes by layer type (batch {batch}):");
    let mut rows: Vec<_> = by_op.into_iter().collect();
    rows.sort_by_key(|(_, b)| std::cmp::Reverse(*b));
    for (op, bytes) in rows.into_iter().take(8) {
        println!("  {op:<16} {:>9.1} MB", bytes as f64 / 1e6);
    }
    Ok(())
}

fn memory_footprint_by_op(
    model: &tbd_core::BuiltModel,
) -> std::collections::BTreeMap<&'static str, u64> {
    tbd_graph::lower::activation_bytes_by_op(&model.graph)
}

fn cmd_kernels(args: &[&str]) -> Result<(), String> {
    let model = parse_model(args.first().ok_or("usage: tbd kernels <model> <framework>")?)?;
    let framework = parse_framework(args.get(1).ok_or("usage: tbd kernels <model> <framework>")?)?;
    let suite = Suite::new(parse_gpu(args));
    let batch = *paper_batches(model).last().expect("non-empty");
    let m = suite
        .run(model, framework, batch)
        .or_else(|_| suite.run(model, framework, paper_batches(model)[0]))
        .map_err(|e| e.to_string())?;
    println!(
        "{} on {} (b{}) — longest below-average-FP32 kernels (avg {:.1} %)",
        model.name(),
        framework.name(),
        m.batch,
        100.0 * m.fp32_utilization
    );
    for row in kernel_table(&m.profile.iteration.records, framework, 5) {
        println!(
            "  {:>6.2}%  {:>5.1}%  {}",
            100.0 * row.duration_share,
            100.0 * row.fp32_utilization,
            row.name
        );
    }
    Ok(())
}

fn cmd_distributed() -> Result<(), String> {
    let suite = Suite::new(GpuSpec::quadro_p4000());
    let m = suite
        .run(ModelKind::ResNet50, Framework::mxnet(), 16)
        .map_err(|e| e.to_string())?;
    let model = ModelKind::ResNet50.build_full(16).map_err(|e| e.to_string())?;
    let sim = DataParallelSim {
        compute_iter_s: 16.0 / m.throughput,
        gradient_bytes: memory_footprint(&model.graph).weight_grads as f64,
        per_gpu_batch: 16,
    };
    println!("ResNet-50 / MXNet / per-GPU batch 16:");
    for (label, config) in [
        ("1M1G", ClusterConfig::single_machine(1)),
        ("2M1G ethernet", ClusterConfig::multi_machine(2, Interconnect::ethernet_1g())),
        ("2M1G infiniband", ClusterConfig::multi_machine(2, Interconnect::infiniband_100g())),
        ("1M2G", ClusterConfig::single_machine(2)),
        ("1M4G", ClusterConfig::single_machine(4)),
    ] {
        let p = sim.simulate(&config);
        println!(
            "  {:<16} {:>7.1}/s  (efficiency {:>3.0} %)",
            label,
            p.throughput,
            100.0 * p.scaling_efficiency
        );
    }
    Ok(())
}

/// `tbd scale` — replay one profiled worker through the event-driven
/// data-parallel simulator across the Fig. 10 grid (or, with `--sweep`,
/// the full 1M1G→4M4G grid), optionally with seeded straggler injection.
fn cmd_scale(args: &[&str]) -> Result<(), String> {
    use tbd_core::{ScaleReport, SCALE_DRIFT_TOLERANCE};
    const USAGE: &str = "usage: tbd scale <model> [--framework <fw>] [--batch <n>] [--sweep] \
         [--stragglers] [--seed <n>] [--churn sweep|mild|heavy|<rate>] [--steps <n>] \
         [--format md|json] [--out <file>] [--check <snapshot>]";
    // `--churn` swaps the straggler sweep for the elastic-membership one.
    if args.contains(&"--churn") {
        return cmd_elastic(args);
    }
    let flag_value = |name: &str| {
        args.iter().position(|a| *a == name).and_then(|i| args.get(i + 1)).copied()
    };
    let model = parse_model(
        args.iter().find(|a| !a.starts_with("--")).copied().ok_or(USAGE)?,
    )?;
    let framework = match flag_value("--framework") {
        Some(name) => parse_framework(name)?,
        None => framework_flag(args, model)?,
    };
    let batch = match flag_value("--batch") {
        Some(text) => parse_batch(text)?,
        None => paper_batches(model)[0],
    };
    let sweep = args.contains(&"--sweep");
    let seed: Option<u64> = if args.contains(&"--stragglers") || flag_value("--seed").is_some() {
        Some(match flag_value("--seed") {
            Some(text) => text.parse().map_err(|_| "--seed must be an integer".to_string())?,
            None => 42,
        })
    } else {
        None
    };
    let gpu = parse_gpu(args);
    eprintln!(
        "scaling {}/{} b{batch} across the {} grid{}...",
        model.name(),
        framework.name(),
        if sweep { "1M1G\u{2192}4M4G" } else { "Fig. 10" },
        match seed {
            Some(s) => format!(" with stragglers (seed {s})"),
            None => String::new(),
        }
    );
    let report = ScaleReport::run(model, framework, batch, &gpu, sweep, seed)?;
    let format = flag_value("--format").unwrap_or("md");
    let rendered = match format {
        "md" => report.to_markdown(),
        "json" => report.to_json().to_string(),
        other => return Err(format!("unknown format '{other}' (md, json)")),
    };
    match flag_value("--out") {
        Some(path) => {
            std::fs::write(path, &rendered).map_err(|e| format!("writing {path}: {e}"))?;
            eprintln!(
                "wrote {} cluster points to {path} — digest {}",
                report.entries.len(),
                report.digest_hex()
            );
        }
        None => print_all(&rendered),
    }
    // Healthy runs must land where the paper's Fig. 10/11 landed
    // (Observations 12/13); a straggler-injected run is allowed to sag.
    if seed.is_none() {
        report.observations()?;
        eprintln!("observations 12/13 hold (ethernet sub-single-GPU, infiniband \u{2265}90% scaling)");
    }
    if let Some(snapshot) = flag_value("--check") {
        let text = std::fs::read_to_string(snapshot)
            .map_err(|e| format!("reading {snapshot}: {e}"))?;
        let baseline = ScaleReport::from_json_text(&text)?;
        report
            .check_drift(&baseline, SCALE_DRIFT_TOLERANCE)
            .map_err(|failures| format!("scale drift vs {snapshot}:\n{failures}"))?;
        eprintln!("drift check vs {snapshot}: deterministic sweep matches the pinned snapshot");
    }
    Ok(())
}

/// `tbd scale --churn` / `tbd chaos --churn` — the elastic-membership
/// sweep: every Fig. 10 cluster is replayed under seeded worker churn
/// (evictions on missed collective deadlines, degraded all-reduce to the
/// survivors, checkpoint catch-up on rejoin), reporting churn-adjusted
/// goodput per (cluster × rate) point.
fn cmd_elastic(args: &[&str]) -> Result<(), String> {
    use tbd_core::{ElasticReport, CHURN_RATE_LADDER, ELASTIC_DRIFT_TOLERANCE};
    const USAGE: &str = "usage: tbd scale <model> --churn sweep|mild|heavy|<rate> [--framework <fw>] \
         [--batch <n>] [--seed <n>] [--steps <n>] [--threads <n>] [--format md|json] \
         [--out <file>] [--check <snapshot>]";
    let flag_value = |name: &str| {
        args.iter().position(|a| *a == name).and_then(|i| args.get(i + 1)).copied()
    };
    let parse_u64 = |name: &str, default: u64| -> Result<u64, String> {
        match flag_value(name) {
            Some(text) => text.parse().map_err(|_| format!("{name} must be an integer")),
            None => Ok(default),
        }
    };
    let model = parse_model(
        args.iter().find(|a| !a.starts_with("--")).copied().ok_or(USAGE)?,
    )?;
    let framework = match flag_value("--framework") {
        Some(name) => parse_framework(name)?,
        None => framework_flag(args, model)?,
    };
    let batch = match flag_value("--batch") {
        Some(text) => parse_batch(text)?,
        None => paper_batches(model)[0],
    };
    let seed = parse_u64("--seed", 42)?;
    let steps = parse_u64("--steps", 32)?;
    let threads = parse_u64("--threads", 1)? as usize;
    // The spec: the full ladder, a preset, or a bare rate — presets and
    // rates keep the 0.0 control point so goodput retention is defined.
    let spec = flag_value("--churn").ok_or(USAGE)?;
    let rates: Vec<f64> = match spec {
        "sweep" | "ladder" => CHURN_RATE_LADDER.to_vec(),
        "mild" => vec![0.0, 0.3],
        "heavy" => vec![0.0, 0.6],
        text => {
            let rate: f64 =
                text.parse().map_err(|_| format!("--churn '{text}' is not sweep, mild, heavy or a rate"))?;
            if !(0.0..=1.0).contains(&rate) {
                return Err(format!("--churn rate {rate} outside [0, 1]"));
            }
            vec![0.0, rate]
        }
    };
    let gpu = parse_gpu(args);
    eprintln!(
        "elastic sweep: {}/{} b{batch}, {steps} steps, churn '{spec}' seeded {seed} \
         across the Fig. 10 grid...",
        model.name(),
        framework.name(),
    );
    let report =
        ElasticReport::run_rates(model, framework, batch, &gpu, seed, steps, threads, &rates)?;
    let format = flag_value("--format").unwrap_or("md");
    let rendered = match format {
        "md" => report.to_markdown(),
        "json" => report.to_json().to_string(),
        other => return Err(format!("unknown format '{other}' (md, json)")),
    };
    match flag_value("--out") {
        Some(path) => {
            std::fs::write(path, &rendered).map_err(|e| format!("writing {path}: {e}"))?;
            eprintln!(
                "wrote {} elastic points to {path} — digest {}",
                report.entries.len(),
                report.digest_hex()
            );
        }
        None => print_all(&rendered),
    }
    // The headline law: more churn never buys goodput, and the churn-free
    // control point retains the full healthy goodput.
    report.monotonicity()?;
    eprintln!("monotone-goodput law holds across {} points", report.entries.len());
    if let Some(snapshot) = flag_value("--check") {
        let text = std::fs::read_to_string(snapshot)
            .map_err(|e| format!("reading {snapshot}: {e}"))?;
        let baseline = ElasticReport::from_json_text(&text)?;
        report
            .check_drift(&baseline, ELASTIC_DRIFT_TOLERANCE)
            .map_err(|failures| format!("elastic drift vs {snapshot}:\n{failures}"))?;
        eprintln!("drift check vs {snapshot}: deterministic sweep matches the pinned snapshot");
    }
    Ok(())
}

/// `tbd chaos` — run the deterministic fault-injection harness (a proxy
/// trainer parameterised by the named workload's iteration cost and OOM
/// degradation ladder), report faults, recoveries, goodput and the
/// replay-exact bit-exactness verdict.
fn cmd_chaos(args: &[&str]) -> Result<(), String> {
    use tbd_core::{ChaosReport, FaultPreset, CHAOS_DRIFT_TOLERANCE};
    const USAGE: &str = "usage: tbd chaos <model> [--framework <fw>] [--batch <n>] [--steps <n>] \
         [--seed <n>] [--faults none|mild|heavy] [--policy replay-exact|default] [--threads <n>] \
         [--churn sweep|mild|heavy|<rate>] [--format md|json] [--out <file>] [--check <snapshot>]";
    // `--churn` swaps the fault-injection proxy for the elastic-membership
    // sweep: node loss instead of kernel faults.
    if args.contains(&"--churn") {
        return cmd_elastic(args);
    }
    let flag_value = |name: &str| {
        args.iter().position(|a| *a == name).and_then(|i| args.get(i + 1)).copied()
    };
    let parse_u64 = |name: &str, default: u64| -> Result<u64, String> {
        match flag_value(name) {
            Some(text) => text.parse().map_err(|_| format!("{name} must be an integer")),
            None => Ok(default),
        }
    };
    let model = parse_model(
        args.iter().find(|a| !a.starts_with("--")).copied().ok_or(USAGE)?,
    )?;
    let framework = match flag_value("--framework") {
        Some(name) => parse_framework(name)?,
        None => framework_flag(args, model)?,
    };
    // Default to the largest paper batch: for several workloads it OOMs at
    // baseline on the P4000, so the degradation ladder gets exercised.
    let batch = match flag_value("--batch") {
        Some(text) => parse_batch(text)?,
        None => *paper_batches(model).last().expect("non-empty axis"),
    };
    let steps = parse_u64("--steps", 20)?;
    let seed = parse_u64("--seed", 42)?;
    let preset = match flag_value("--faults") {
        Some(name) => FaultPreset::parse(name)?,
        None => FaultPreset::Mild,
    };
    let replay_exact = match flag_value("--policy") {
        Some("replay-exact") | None => true,
        Some("default") => false,
        Some(other) => {
            return Err(format!("unknown policy '{other}' (replay-exact, default)"))
        }
    };
    let threads = parse_u64("--threads", 1)? as usize;
    let gpu = parse_gpu(args);
    eprintln!(
        "chaos run: {}/{} b{batch}, {steps} steps, '{}' faults seeded {seed}, {} policy...",
        model.name(),
        framework.name(),
        preset.name(),
        if replay_exact { "replay-exact" } else { "default" },
    );
    let report = ChaosReport::run(
        model, framework, batch, &gpu, seed, steps, preset, replay_exact, threads,
    )?;
    let format = flag_value("--format").unwrap_or("md");
    let rendered = match format {
        "md" => report.to_markdown(),
        "json" => report.to_json().to_string(),
        other => return Err(format!("unknown format '{other}' (md, json)")),
    };
    match flag_value("--out") {
        Some(path) => {
            std::fs::write(path, &rendered).map_err(|e| format!("writing {path}: {e}"))?;
            eprintln!(
                "wrote chaos report to {path} — {} faults, {} recoveries, digest {}",
                report.faults_injected,
                report.recoveries,
                report.digest_hex()
            );
        }
        None => print_all(&rendered),
    }
    // The headline invariant: under the replay-exact policy a faulted run
    // must finish bitwise identical to its fault-free twin.
    if replay_exact && !report.replay_exact {
        return Err(format!(
            "replay-exact violated: faulted params {} != fault-free {}",
            report.param_hash, report.fault_free_hash
        ));
    }
    if replay_exact {
        eprintln!(
            "replay-exact holds: faulted and fault-free runs agree on param hash {}",
            report.param_hash
        );
    }
    if let Some(snapshot) = flag_value("--check") {
        let text = std::fs::read_to_string(snapshot)
            .map_err(|e| format!("reading {snapshot}: {e}"))?;
        let baseline = ChaosReport::from_json_text(&text)?;
        report
            .check_drift(&baseline, CHAOS_DRIFT_TOLERANCE)
            .map_err(|failures| format!("chaos drift vs {snapshot}:\n{failures}"))?;
        eprintln!("drift check vs {snapshot}: deterministic run matches the pinned snapshot");
    }
    Ok(())
}

fn cmd_diagnose(args: &[&str]) -> Result<(), String> {
    use tbd_core::{
        run_diagnose, DiagnoseOptions, DiagnosisReport, FaultPreset, DIAGNOSE_DRIFT_TOLERANCE,
    };
    const USAGE: &str = "usage: tbd diagnose <model> [--framework <fw>] [--batch <n>] \
         [--cluster <label>] [--stragglers] [--seed <n>] [--faults none|mild|heavy] \
         [--steps <n>] [--threads <n>] [--no-fuse] [--precision f32|f16|bf16] \
         [--format md|json] [--out <file>] [--check <snapshot>]";
    let flag_value = |name: &str| {
        args.iter().position(|a| *a == name).and_then(|i| args.get(i + 1)).copied()
    };
    let parse_u64 = |name: &str, default: u64| -> Result<u64, String> {
        match flag_value(name) {
            Some(text) => text.parse().map_err(|_| format!("{name} must be an integer")),
            None => Ok(default),
        }
    };
    let model = parse_model(
        args.iter().find(|a| !a.starts_with("--")).copied().ok_or(USAGE)?,
    )?;
    let framework = match flag_value("--framework") {
        Some(name) => parse_framework(name)?,
        None => framework_flag(args, model)?,
    };
    let batch = match flag_value("--batch") {
        Some(text) => parse_batch(text)?,
        None => paper_batches(model)[0],
    };
    let (fuse, precision) = speed_flags(args)?;
    let defaults = DiagnoseOptions::default();
    let opts = DiagnoseOptions {
        cluster: flag_value("--cluster").map(str::to_string),
        stragglers: args.contains(&"--stragglers"),
        seed: parse_u64("--seed", defaults.seed)?,
        faults: match flag_value("--faults") {
            Some(name) => FaultPreset::parse(name)?,
            None => FaultPreset::None,
        },
        steps: parse_u64("--steps", defaults.steps)?,
        intra_op_threads: parse_u64("--threads", defaults.intra_op_threads as u64)? as usize,
        fuse,
        precision,
    };
    let gpu = parse_gpu(args);
    eprintln!(
        "diagnosing {}/{} b{batch} on {}{}{}{}...",
        model.name(),
        framework.name(),
        gpu.name,
        match &opts.cluster {
            Some(label) => format!(", cluster '{label}'"),
            None => String::new(),
        },
        if opts.stragglers { ", stragglers on" } else { "" },
        if opts.faults == FaultPreset::None {
            String::new()
        } else {
            format!(", '{}' faults", opts.faults.name())
        },
    );
    let report = run_diagnose(model, framework, batch, &gpu, &opts)?;
    let format = flag_value("--format").unwrap_or("md");
    let rendered = match format {
        "md" => report.to_markdown(),
        "json" => report.to_json().to_string(),
        other => return Err(format!("unknown format '{other}' (md, json)")),
    };
    match flag_value("--out") {
        Some(path) => {
            std::fs::write(path, &rendered).map_err(|e| format!("writing {path}: {e}"))?;
            eprintln!(
                "wrote diagnosis to {path} — top-1 {}, digest {}",
                report.top1().class.label(),
                report.digest_hex()
            );
        }
        None => print_all(&rendered),
    }
    if let Some(snapshot) = flag_value("--check") {
        let text = std::fs::read_to_string(snapshot)
            .map_err(|e| format!("reading {snapshot}: {e}"))?;
        let baseline = DiagnosisReport::from_json_text(&text)?;
        report
            .check_drift(&baseline, DIAGNOSE_DRIFT_TOLERANCE)
            .map_err(|failures| format!("diagnosis drift vs {snapshot}:\n{failures}"))?;
        eprintln!("drift check vs {snapshot}: deterministic diagnosis matches the pinned snapshot");
    }
    Ok(())
}

fn cmd_json(args: &[&str]) -> Result<(), String> {
    let model = parse_model(args.first().ok_or("usage: tbd json <model> <framework> <batch>")?)?;
    let framework = parse_framework(args.get(1).ok_or("usage: tbd json <model> <framework> <batch>")?)?;
    let batch = parse_batch(args.get(2).ok_or("usage: tbd json <model> <framework> <batch>")?)?;
    let suite = Suite::new(parse_gpu(args));
    let m = suite.run(model, framework, batch).map_err(|e| e.to_string())?;
    print_all(&metrics_to_json(&m));
    Ok(())
}

/// Serialises the headline metrics as a stable JSON object (no external
/// dependencies; field order is fixed).
fn metrics_to_json(m: &WorkloadMetrics) -> String {
    let mem: Vec<String> = MemoryCategory::ALL
        .iter()
        .map(|&c| {
            format!(
                "\"{}\": {}",
                c.to_string().replace(' ', "_"),
                m.memory.peak(c)
            )
        })
        .collect();
    format!(
        "{{\"model\": \"{}\", \"framework\": \"{}\", \"gpu\": \"{}\", \"batch\": {}, \
         \"throughput\": {:.3}, \"gpu_utilization\": {:.4}, \"fp32_utilization\": {:.4}, \
         \"cpu_utilization\": {:.4}, \"memory_bytes\": {{{}}}, \"memory_total\": {}}}",
        m.model.name(),
        m.framework,
        m.gpu,
        m.batch,
        m.throughput,
        m.gpu_utilization,
        m.fp32_utilization,
        m.cpu_utilization,
        mem.join(", "),
        m.memory.total()
    )
}


/// `tbd trace` — record one workload through the whole trace spine
/// (executor → gpusim → framework → profiler) and export it.
///
/// Accepts both the positional form (`tbd trace resnet50 tf 32`) and the
/// flag form (`tbd trace resnet50 --framework tf --batch 32 --out t.json`).
fn cmd_trace(args: &[&str]) -> Result<(), String> {
    const USAGE: &str =
        "usage: tbd trace <model> [--framework <fw>] [--batch <n>] [--threads <n>] \
         [--out <file>] [--summary] [--no-fuse] [--precision f32|f16|bf16]";
    let positional: Vec<&str> = {
        let mut skip_next = false;
        args.iter()
            .filter(|a| {
                if skip_next {
                    skip_next = false;
                    return false;
                }
                if a.starts_with("--") {
                    skip_next = matches!(
                        **a,
                        "--framework" | "--batch" | "--threads" | "--out" | "--gpu" | "--precision"
                    );
                    return false;
                }
                true
            })
            .copied()
            .collect()
    };
    let flag_value = |name: &str| {
        args.iter().position(|a| *a == name).and_then(|i| args.get(i + 1)).copied()
    };
    let model = parse_model(positional.first().ok_or(USAGE)?)?;
    let framework = match flag_value("--framework").or_else(|| positional.get(1).copied()) {
        Some(name) => parse_framework(name)?,
        None => framework_flag(args, model)?,
    };
    let batch = match flag_value("--batch").or_else(|| positional.get(2).copied()) {
        Some(text) => parse_batch(text)?,
        None => paper_batches(model)[0],
    };
    let threads: usize = flag_value("--threads")
        .map(|t| t.parse().map_err(|_| "--threads must be an integer".to_string()))
        .transpose()?
        .unwrap_or(1);
    let (fuse, precision) = speed_flags(args)?;
    let options = tbd_profiler::TraceOptions {
        intra_op_threads: threads,
        fuse,
        precision,
        ..Default::default()
    };
    let gpu = parse_gpu(args);
    let cap = tbd_profiler::capture(model, framework, batch, &gpu, &options)
        .map_err(|e| e.to_string())?;
    if let Some(oom) = &cap.oom {
        eprintln!("note: paper-scale iteration hit OOM ({oom}); trace ends at the failing allocation");
    }
    if args.contains(&"--summary") {
        print_all(&cap.trace.nvprof_summary());
        return Ok(());
    }
    let json = cap.trace.to_chrome_json();
    match flag_value("--out") {
        Some(path) => {
            std::fs::write(path, &json).map_err(|e| format!("writing {path}: {e}"))?;
            eprintln!(
                "wrote {} events ({} bytes) to {path} — open in chrome://tracing or \
                 https://ui.perfetto.dev (digest {})",
                cap.trace.events.len(),
                json.len(),
                cap.trace.digest_hex()
            );
        }
        None => print_all(&json),
    }
    Ok(())
}

/// `tbd metrics` — capture one workload with a streaming aggregator
/// attached as a live trace sink, feed it a synthesised training run (so
/// the rolling stable-window throughput has iterations to chew on), and
/// export the resulting metrics registry.
///
/// Shares [`tbd_profiler::observe`] with `tbd watch`, so the `prom`
/// rendering here is byte-identical to what the live server answers on
/// `GET /metrics` for the same configuration.
fn cmd_metrics(args: &[&str]) -> Result<(), String> {
    use tbd_profiler::{observe, TraceOptions};
    const USAGE: &str = "usage: tbd metrics <model> [--framework <fw>] [--batch <n>] \
         [--threads <n>] [--no-fuse] [--precision f32|f16|bf16] [--format prom|json|md]";
    let flag_value = |name: &str| {
        args.iter().position(|a| *a == name).and_then(|i| args.get(i + 1)).copied()
    };
    let model = parse_model(
        args.iter().find(|a| !a.starts_with("--")).copied().ok_or(USAGE)?,
    )?;
    let framework = match flag_value("--framework") {
        Some(name) => parse_framework(name)?,
        None => framework_flag(args, model)?,
    };
    let batch = match flag_value("--batch") {
        Some(text) => parse_batch(text)?,
        None => paper_batches(model)[0],
    };
    let threads: usize = flag_value("--threads")
        .map(|t| t.parse().map_err(|_| "--threads must be an integer".to_string()))
        .transpose()?
        .unwrap_or(1);
    let (fuse, precision) = speed_flags(args)?;
    let format = flag_value("--format").unwrap_or("prom");
    let gpu = parse_gpu(args);
    let options =
        TraceOptions { intra_op_threads: threads, fuse, precision, ..TraceOptions::default() };
    let obs = observe(model, framework, batch, &gpu, &options, None).map_err(|e| e.to_string())?;
    if let Some(oom) = &obs.capture.oom {
        eprintln!("note: paper-scale iteration hit OOM ({oom}); metrics cover the partial trace");
    }
    match format {
        "prom" => print_all(&obs.registry.to_prometheus()),
        "json" => print_all(&obs.registry.to_json().to_string()),
        "md" => print_all(&obs.markdown),
        other => return Err(format!("unknown format '{other}' (prom, json, md)")),
    }
    Ok(())
}

/// `tbd watch` — run repeated observed captures in a background worker and
/// serve the latest snapshot over plain HTTP (std-only server):
/// `/metrics` (Prometheus, byte-identical to `tbd metrics --format prom`),
/// `/health` (liveness JSON with recorder overhead), `/trace.json`
/// (Chrome trace) and `/report` (self-contained HTML).
fn cmd_watch(args: &[&str]) -> Result<(), String> {
    use std::time::Duration;
    use tbd_profiler::{LiveServer, TraceOptions, WatchConfig};
    const USAGE: &str = "usage: tbd watch <model> [--framework <fw>] [--batch <n>] [--port <p>] \
         [--steps <n>] [--interval-ms <n>] [--retain-cap <n>] [--threads <n>] [--no-fuse] \
         [--precision f32|f16|bf16]";
    let flag_value = |name: &str| {
        args.iter().position(|a| *a == name).and_then(|i| args.get(i + 1)).copied()
    };
    let parse_u64 = |name: &str, default: u64| -> Result<u64, String> {
        match flag_value(name) {
            Some(text) => text.parse().map_err(|_| format!("{name} must be an integer")),
            None => Ok(default),
        }
    };
    let model = parse_model(
        args.iter().find(|a| !a.starts_with("--")).copied().ok_or(USAGE)?,
    )?;
    let framework = match flag_value("--framework") {
        Some(name) => parse_framework(name)?,
        None => framework_flag(args, model)?,
    };
    let batch = match flag_value("--batch") {
        Some(text) => parse_batch(text)?,
        None => paper_batches(model)[0],
    };
    let port = parse_u64("--port", 9898)?;
    let steps = parse_u64("--steps", 0)?;
    let interval_ms = parse_u64("--interval-ms", 1000)?;
    let threads = parse_u64("--threads", 1)? as usize;
    let retain_cap: Option<usize> = flag_value("--retain-cap")
        .map(|t| t.parse().map_err(|_| "--retain-cap must be an integer".to_string()))
        .transpose()?;
    let (fuse, precision) = speed_flags(args)?;
    let gpu = parse_gpu(args);
    let config = WatchConfig {
        options: TraceOptions {
            intra_op_threads: threads,
            fuse,
            precision,
            ..TraceOptions::default()
        },
        max_captures: steps,
        interval: Duration::from_millis(interval_ms),
        retain_cap,
        ..WatchConfig::new(model, framework, batch, gpu)
    };
    let server = LiveServer::start(config, &format!("127.0.0.1:{port}"))
        .map_err(|e| format!("binding 127.0.0.1:{port}: {e}"))?;
    let addr = server.local_addr();
    eprintln!(
        "tbd watch: {}/{} b{batch} — serving http://{addr}/",
        model.name(),
        framework.name()
    );
    eprintln!("  GET /metrics     Prometheus exposition (byte-identical to `tbd metrics --format prom`)");
    eprintln!("  GET /health      liveness JSON: uptime, captures, digests, recorder overhead");
    eprintln!("  GET /trace.json  latest Chrome trace (chrome://tracing, ui.perfetto.dev)");
    eprintln!("  GET /report      latest self-contained HTML run report");
    if steps > 0 {
        eprintln!("capture worker stops after {steps} capture(s); the server keeps answering until the process is killed");
    }
    // Serve until the process is killed; the worker and accept loop run on
    // their own threads, so this thread only has to stay alive.
    loop {
        std::thread::sleep(Duration::from_secs(3600));
    }
}

/// `tbd serve` — the capacity-planning query service: a std-only HTTP
/// front over the sharded single-flight [`tbd_core::ServeEngine`].
/// Responses are pure functions of the query (deterministic bytes; cache
/// stats live on `/health` only).
fn cmd_serve(args: &[&str]) -> Result<(), String> {
    use std::sync::Arc;
    use tbd_core::{ServeConfig, ServeEngine, ServeServer};
    let flag_value = |name: &str| {
        args.iter().position(|a| *a == name).and_then(|i| args.get(i + 1)).copied()
    };
    let parse_u64 = |name: &str, default: u64| -> Result<u64, String> {
        match flag_value(name) {
            Some(text) => text.parse().map_err(|_| format!("{name} must be an integer")),
            None => Ok(default),
        }
    };
    let defaults = ServeConfig::default();
    let port = parse_u64("--port", 7878)?;
    let config = ServeConfig {
        workers: parse_u64("--workers", defaults.workers as u64)? as usize,
        queue: parse_u64("--queue", defaults.queue as u64)? as usize,
        shards: parse_u64("--shards", defaults.shards as u64)? as usize,
    };
    let gpu = parse_gpu(args);
    let engine = Arc::new(ServeEngine::with_shards(gpu, config.shards));
    let server = ServeServer::start(engine, &format!("127.0.0.1:{port}"), config)
        .map_err(|e| format!("binding 127.0.0.1:{port}: {e}"))?;
    let addr = server.local_addr();
    eprintln!(
        "tbd serve: {} workers, queue {}, {} shards — serving http://{addr}/",
        config.workers, config.queue, config.shards
    );
    eprintln!("  GET /query?model=<m>[&framework=<fw>][&batch=<n>][&fuse=0|1]");
    eprintln!("            [&precision=f32|f16|bf16][&cluster=<label>][&stragglers=<seed>]");
    eprintln!("  GET /health      cache statistics (never part of /query bytes)");
    // Serve until the process is killed; the acceptor and pool run on
    // their own threads, so this thread only has to stay alive.
    loop {
        std::thread::sleep(std::time::Duration::from_secs(3600));
    }
}

/// `tbd loadgen` — drive the serve engine in-process (closed or open
/// loop), report throughput and tail latency, optionally pin the golden
/// query response (`--check`) or attach the summary to an existing
/// `BENCH_<date>.json` (`--bench`).
fn cmd_loadgen(args: &[&str]) -> Result<(), String> {
    use std::sync::Arc;
    use tbd_core::loadgen::{check_golden, golden_mix, run_loadgen, LoadgenConfig, LoadgenMode};
    use tbd_core::trajectory::BenchReport;
    use tbd_core::ServeEngine;
    let flag_value = |name: &str| {
        args.iter().position(|a| *a == name).and_then(|i| args.get(i + 1)).copied()
    };
    let parse_u64 = |name: &str, default: u64| -> Result<u64, String> {
        match flag_value(name) {
            Some(text) => text.parse().map_err(|_| format!("{name} must be an integer")),
            None => Ok(default),
        }
    };
    let clients = parse_u64("--clients", 4)? as usize;
    let requests = parse_u64("--requests", 10_000)?;
    let mode = match flag_value("--mode").unwrap_or("closed") {
        "closed" => LoadgenMode::Closed { clients },
        "open" => LoadgenMode::Open {
            rate_qps: match flag_value("--rate") {
                Some(text) => {
                    text.parse().map_err(|_| "--rate must be a number".to_string())?
                }
                None => 20_000.0,
            },
            workers: clients,
        },
        other => return Err(format!("unknown mode '{other}' (closed, open)")),
    };
    let gpu = parse_gpu(args);
    let engine = Arc::new(ServeEngine::new(gpu));
    if let Some(golden) = flag_value("--check") {
        check_golden(&engine, golden)?;
        eprintln!("golden check vs {golden}: serve response matches the pinned baseline");
    }
    let config = LoadgenConfig { mode, requests, mix: golden_mix(), warm: true };
    eprintln!(
        "loadgen: {} loop, {} clients, {} requests over the cache-hot golden mix...",
        mode.name(),
        clients,
        requests
    );
    let report = run_loadgen(&engine, &config)?;
    let format = flag_value("--format").unwrap_or("md");
    let rendered = match format {
        "md" => report.to_markdown(),
        "json" => report.to_json().to_string(),
        other => return Err(format!("unknown format '{other}' (md, json)")),
    };
    match flag_value("--out") {
        Some(path) => {
            std::fs::write(path, &rendered).map_err(|e| format!("writing {path}: {e}"))?;
            eprintln!(
                "wrote loadgen report to {path} — {:.0} q/s, p99 {:.0} µs",
                report.qps, report.p99_us
            );
        }
        None => print_all(&rendered),
    }
    if let Some(path) = flag_value("--bench") {
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
        let mut bench = BenchReport::from_json_text(&text)?;
        bench.loadgen = Some(report.summary());
        std::fs::write(path, bench.to_json().to_string())
            .map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!("attached loadgen summary to {path} (digest unchanged: wall clock is never digested)");
    }
    Ok(())
}

/// `tbd report` — render one observed capture as a self-contained HTML
/// run report (inline CSS/JS/SVG, no external references) and optionally
/// pin its deterministic digest against a golden baseline file.
fn cmd_report(args: &[&str]) -> Result<(), String> {
    use tbd_core::report::{parse_digest_file, run_report, ReportOptions};
    use tbd_core::trajectory::iso_date_today;
    const USAGE: &str = "usage: tbd report <model> [--framework <fw>] [--batch <n>] [--out <file>] \
         [--timestamp <text>] [--check <digest-file>] [--threads <n>] [--no-fuse] \
         [--precision f32|f16|bf16]";
    let flag_value = |name: &str| {
        args.iter().position(|a| *a == name).and_then(|i| args.get(i + 1)).copied()
    };
    let model = parse_model(
        args.iter().find(|a| !a.starts_with("--")).copied().ok_or(USAGE)?,
    )?;
    let framework = match flag_value("--framework") {
        Some(name) => parse_framework(name)?,
        None => framework_flag(args, model)?,
    };
    let batch = match flag_value("--batch") {
        Some(text) => parse_batch(text)?,
        None => paper_batches(model)[0],
    };
    let threads: usize = flag_value("--threads")
        .map(|t| t.parse().map_err(|_| "--threads must be an integer".to_string()))
        .transpose()?
        .unwrap_or(1);
    let (fuse, precision) = speed_flags(args)?;
    let gpu = parse_gpu(args);
    // The timestamp is display-only: the digest is computed over the
    // timestamp-free render, so `--timestamp` never perturbs `--check`.
    let timestamp =
        flag_value("--timestamp").map(str::to_string).unwrap_or_else(iso_date_today);
    let opts = ReportOptions { intra_op_threads: threads, fuse, precision, timestamp };
    let out = run_report(model, framework, batch, &gpu, &opts)?;
    if let Some(oom) = &out.oom {
        eprintln!("note: paper-scale iteration hit OOM ({oom}); report covers the partial trace");
    }
    match flag_value("--out") {
        Some(path) => {
            std::fs::write(path, &out.html).map_err(|e| format!("writing {path}: {e}"))?;
            eprintln!(
                "wrote {} bytes to {path} — open in any browser (digest {})",
                out.html.len(),
                out.digest_hex
            );
        }
        None => print_all(&out.html),
    }
    if let Some(snapshot) = flag_value("--check") {
        let text = std::fs::read_to_string(snapshot)
            .map_err(|e| format!("reading {snapshot}: {e}"))?;
        let want = parse_digest_file(&text)?;
        if want != out.digest_hex {
            return Err(format!(
                "report digest drift vs {snapshot}: baseline {want}, rendered {}",
                out.digest_hex
            ));
        }
        eprintln!("digest check vs {snapshot}: deterministic render matches the pinned baseline");
    }
    Ok(())
}

/// `tbd bench` — the perf-trajectory harness: run the golden pairs (or,
/// with `--matrix`, every supported pair) through the streaming metrics
/// layer and write a schema-versioned `BENCH_<iso-date>.json`.
fn cmd_bench(args: &[&str]) -> Result<(), String> {
    use tbd_core::trajectory::{iso_date_today, BenchReport, DRIFT_TOLERANCE, WALL_DRIFT_TOLERANCE};
    let flag_value = |name: &str| {
        args.iter().position(|a| *a == name).and_then(|i| args.get(i + 1)).copied()
    };
    let gpu = parse_gpu(args);
    let matrix = args.contains(&"--matrix");
    let (fuse, precision) = speed_flags(args)?;
    eprintln!(
        "benching {} on {} through the streaming aggregator ({}, {precision})...",
        if matrix { "the full supported matrix" } else { "the six golden pairs" },
        gpu.name,
        if fuse { "fused" } else { "unfused" },
    );
    let report = BenchReport::run_with_speed(&gpu, matrix, iso_date_today(), fuse, precision)?;
    for entry in &report.entries {
        eprintln!(
            "  {:<28} {:>8.1}/s  GPU {:>5.1}%  dominant memory: {}",
            entry.key(),
            entry.throughput,
            100.0 * entry.gpu_utilization,
            entry.dominant_memory
        );
    }
    if let Some(tier) = &report.speed_tier {
        eprintln!(
            "  speed tier ({}/{} b{}): fused {:.3}s vs unfused {:.3}s — {:.2}x capture speedup",
            tier.model,
            tier.framework,
            tier.batch,
            tier.fused_wall_s,
            tier.unfused_wall_s,
            tier.speedup()
        );
    }
    let dir = flag_value("--out").unwrap_or(".");
    let path = format!("{}/{}", dir.trim_end_matches('/'), report.file_name());
    let json = report.to_json().to_string();
    std::fs::write(&path, &json).map_err(|e| format!("writing {path}: {e}"))?;
    eprintln!(
        "wrote {} entries ({} bytes) to {path} — digest {}",
        report.entries.len(),
        json.len(),
        report.digest_hex()
    );
    // The snapshot is written before the gate, so a drifting run still
    // leaves its BENCH file behind for inspection (CI uploads it).
    if let Some(snapshot) = flag_value("--check") {
        let text = std::fs::read_to_string(snapshot)
            .map_err(|e| format!("reading {snapshot}: {e}"))?;
        let baseline = BenchReport::from_json_text(&text)?;
        report
            .check_drift(&baseline, DRIFT_TOLERANCE)
            .map_err(|failures| format!("throughput drift vs {snapshot}:\n{failures}"))?;
        eprintln!(
            "drift check vs {snapshot}: all {} overlapping entries within {:.0}%",
            report.entries.len(),
            100.0 * DRIFT_TOLERANCE
        );
        // Wall clock varies across machines, so its gate only warns.
        if let Err(failures) = report.check_wall_drift(&baseline, WALL_DRIFT_TOLERANCE) {
            eprintln!("warning: capture wall drift vs {snapshot} (informational):\n{failures}");
        }
    }
    Ok(())
}

fn cmd_dot(args: &[&str]) -> Result<(), String> {
    let model = parse_model(args.first().ok_or("usage: tbd dot <model>")?)?;
    let batch = paper_batches(model)[0];
    let built = model.build_full(batch).map_err(|e| e.to_string())?;
    print_all(&tbd_graph::to_dot(&built.graph, 400));
    Ok(())
}

fn cmd_analyze(args: &[&str]) -> Result<(), String> {
    let (model, framework, batch) = three_args(args, "analyze")?;
    let suite = Suite::new(parse_gpu(args));
    let built = model.build_full(batch).map_err(|e| e.to_string())?;
    let report = tbd_profiler::analyze(
        model,
        framework,
        &built,
        suite.gpu(),
        &tbd_profiler::SamplingConfig::default(),
        42,
    )
    .map_err(|e| e.to_string())?;
    println!("{} on {} (b{batch}) — Fig. 3 analysis pipeline", model.name(), framework.name());
    println!(
        "  stable window: iterations {}..{} (warm-up and autotuning excluded)",
        report.stable_window.0, report.stable_window.1
    );
    println!(
        "  throughput: sampled {:.1}/s vs simulator {:.1}/s",
        report.sampled_throughput, report.metrics.throughput
    );
    println!(
        "  GPU {:.1}%  FP32 {:.1}%  CPU {:.1}%  memory {:.2} GB (feature maps {:.0}%)",
        100.0 * report.metrics.gpu_utilization,
        100.0 * report.metrics.fp32_utilization,
        100.0 * report.metrics.cpu_utilization,
        report.metrics.memory.total() as f64 / 1e9,
        100.0 * report.metrics.memory.feature_map_fraction()
    );
    println!("  below-average-FP32 kernels:");
    for row in &report.kernel_table {
        println!(
            "    {:>6.2}%  {:>5.1}%  {}",
            100.0 * row.duration_share,
            100.0 * row.fp32_utilization,
            row.name
        );
    }
    Ok(())
}

fn three_args(args: &[&str], cmd: &str) -> Result<(ModelKind, Framework, usize), String> {
    let usage = format!("usage: tbd {cmd} <model> <framework> <batch>");
    let model = parse_model(args.first().ok_or(&usage)?)?;
    let framework = parse_framework(args.get(1).ok_or(&usage)?)?;
    let batch = parse_batch(args.get(2).ok_or(&usage)?)?;
    Ok((model, framework, batch))
}

fn cmd_list() -> Result<(), String> {
    println!("models (Table 2):");
    for kind in ModelKind::ALL {
        let frameworks: Vec<&str> = Framework::all()
            .into_iter()
            .filter(|fw| fw.supports(kind))
            .map(|fw| fw.name())
            .collect();
        println!(
            "  {:<14} {:<28} batches {:?} on {}",
            kind.name(),
            kind.application(),
            paper_batches(kind),
            frameworks.join("/")
        );
    }
    println!("frameworks: TensorFlow, MXNet, CNTK");
    println!("devices:    p4000 (default), titanxp");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_and_framework_parsing() {
        assert_eq!(parse_model("resnet-50").unwrap(), ModelKind::ResNet50);
        assert_eq!(parse_model("ResNet50").unwrap(), ModelKind::ResNet50);
        assert_eq!(parse_model("sockeye").unwrap(), ModelKind::Seq2Seq);
        assert_eq!(parse_model("ds2").unwrap(), ModelKind::DeepSpeech2);
        assert!(parse_model("alexnet").is_err());
        assert_eq!(parse_framework("tf").unwrap().name(), "TensorFlow");
        assert!(parse_framework("theano").is_err());
    }

    #[test]
    fn json_is_well_formed_enough() {
        let suite = Suite::new(GpuSpec::quadro_p4000());
        let m = suite.run(ModelKind::A3c, Framework::mxnet(), 8).unwrap();
        let json = metrics_to_json(&m);
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"model\": \"A3C\""));
        assert!(json.contains("\"feature_maps\""));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }
}
