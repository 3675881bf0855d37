//! Wall-clock benchmark of the tbd-rs workspace, timed from outside the
//! program through its public API.
//!
//! ```text
//! cargo run --release --manifest-path tbdperf/Cargo.toml -- \
//!     --workload train|analyze|serve --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the repository root (the golden files under `tests/golden`
//! are read from there). The last line of standard output is one JSON
//! object: `correct`, `attempted`, `failed` and `metrics`. `--trace 0`
//! reports the end-to-end metrics of the workload; `--trace 1` reports
//! every per-layer metric: the named workload runs for the whole budget
//! and the other two run a short pass each, so every layer is listed; a
//! `#` line per pass names the metrics it gave and its operation count.
//! `BENCHMARK.json` at the repository root lists the workloads and the
//! metric bounds; `tbdperf/README.md` says why each workload was chosen
//! and which end-to-end metric each layer metric should move.

mod analyze;
mod inputs;
mod serve;
mod stats;
mod train;

use stats::{calibrate, end_to_end, repeated_setup, Budget, Loop, Metric, Traced};

const USAGE: &str =
    "usage: tbdperf --workload train|analyze|serve --seed N --seconds S --trace 0|1";

#[derive(Debug, Clone, Copy, PartialEq)]
enum Workload {
    Train,
    Analyze,
    Serve,
}

impl Workload {
    const ALL: [Workload; 3] = [Workload::Train, Workload::Analyze, Workload::Serve];

    /// Set-ups per untraced run; the median is reported as `setup_s`.
    fn setups(self) -> usize {
        match self {
            Workload::Train => 15,
            Workload::Analyze => 11,
            Workload::Serve => 9,
        }
    }

    /// Seconds the closed loop runs before the measured window of an
    /// untraced run, left out of the metrics (the paper's §3.4 method). A
    /// `train` loop runs up to a third slower for its first 1–3 s.
    fn warmup_s(self) -> f64 {
        match self {
            Workload::Train => 3.0,
            Workload::Analyze => 0.0,
            Workload::Serve => 1.0,
        }
    }

    /// Untraced-plus-traced operation pairs a traced pass runs when it is
    /// not the named workload (per client for `serve`).
    fn short_pass(self) -> usize {
        match self {
            Workload::Train => 20,
            Workload::Analyze => 3,
            Workload::Serve => 200,
        }
    }
}

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let at = argv
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        argv.get(at + 1)
            .map(String::as_str)
            .ok_or(format!("{flag} needs a value"))
    };
    let workload = match value("--workload")? {
        "train" => Workload::Train,
        "analyze" => Workload::Analyze,
        "serve" => Workload::Serve,
        other => return Err(format!("unknown workload '{other}'")),
    };
    let seed = value("--seed")?
        .parse()
        .map_err(|_| "--seed must be a whole number")?;
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|_| "--seconds must be a number")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not '{other}'")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// The untraced run: set up several times, warm the closed loop up, then
/// measure it. Returns the set-up times, the warm-up and the measured loop.
fn untraced(args: &Args) -> Result<(Vec<f64>, Loop, Loop), String> {
    let warmup = Budget {
        seconds: args.workload.warmup_s(),
        min_ops: 0,
    };
    let budget = Budget {
        seconds: args.seconds,
        min_ops: 1,
    };
    let n = args.workload.setups();
    let seed = args.seed;
    Ok(match args.workload {
        Workload::Train => {
            let (mut train, setup_s) = repeated_setup(n, || train::setup(seed))?;
            (setup_s, train.measure(warmup), train.measure(budget))
        }
        Workload::Analyze => {
            let (mut analyze, setup_s) = repeated_setup(n, || analyze::setup(seed))?;
            println!("# analyze: {} sweep queries per round", analyze.sweep_len());
            (setup_s, analyze.measure(warmup), analyze.measure(budget))
        }
        Workload::Serve => {
            let (serve, setup_s) = repeated_setup(n, || serve::setup(seed))?;
            (setup_s, serve.measure(warmup), serve.measure(budget))
        }
    })
}

/// The traced run: the named workload for the whole budget, then a short
/// pass of each other workload.
fn traced(args: &Args) -> Result<Traced, String> {
    let mut out = Traced::default();
    let mut order = vec![args.workload];
    order.extend(Workload::ALL.into_iter().filter(|w| *w != args.workload));
    for w in order {
        let budget = if w == args.workload {
            Budget {
                seconds: args.seconds,
                min_ops: 1,
            }
        } else {
            Budget {
                seconds: 0.0,
                min_ops: w.short_pass(),
            }
        };
        let pass = match w {
            Workload::Train => train::traced(args.seed, budget),
            Workload::Analyze => analyze::traced(args.seed, budget),
            Workload::Serve => serve::traced(args.seed, budget),
        }?;
        let names: Vec<&str> = pass.metrics.iter().map(|m| m.name.as_str()).collect();
        let length = if w == args.workload { "full" } else { "short" };
        println!(
            "# {w:?}: {length} pass of {} operations gave: {}",
            pass.attempted,
            names.join(" ")
        );
        out.metrics.extend(pass.metrics);
        out.attempted += pass.attempted;
        out.failed += pass.failed;
    }
    Ok(out)
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn print_result(attempted: u64, failed: u64, metrics: &[Metric]) {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        body.join(", ")
    );
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("tbdperf: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let calib_start_ms = calibrate();
    let result = if args.trace {
        traced(&args).map(|mut t| {
            t.metrics
                .push(Metric::new("host.calib_ms", calib_start_ms, "ms"));
            t.metrics
                .push(Metric::new("host.calib_end_ms", calibrate(), "ms"));
            t
        })
    } else {
        untraced(&args).map(|(setup_s, warm, run)| {
            let (metrics, tail) = end_to_end(&setup_s, &run);
            println!(
                "# {:?}: {} warm-up ops, then {} ops in {:.3} s; tail_ms is p{} of {} samples; \
                 set-ups {:?} s; host.calib_ms {:.3} -> {:.3}",
                args.workload,
                warm.attempted(),
                run.attempted(),
                run.elapsed_s,
                tail.percentile,
                tail.samples,
                setup_s,
                calib_start_ms,
                calibrate(),
            );
            Traced {
                metrics,
                attempted: warm.attempted() + run.attempted(),
                failed: warm.failed + run.failed,
            }
        })
    };
    match result {
        Ok(t) => {
            print_result(t.attempted, t.failed, &t.metrics);
            if t.failed > 0 {
                eprintln!(
                    "tbdperf: {} of {} operations failed their output check",
                    t.failed, t.attempted
                );
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("tbdperf: {e}");
            std::process::exit(1);
        }
    }
}
