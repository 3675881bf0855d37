//! `analyze`: one operation is a round of the offline analysis of the
//! whole Table-2 suite — `observe` plus `render_report` for every pair
//! (what `tbd report` does), then a cold capacity sweep on a fresh
//! `ServeEngine`.

use crate::inputs::{self, Point, REPORT_GOLDEN};
use crate::stats::{closed_loop, median, Budget, Loop, Metric, Rng, Traced};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;
use tbd_core::serve::{ServeEngine, ServeQuery};
use tbd_distrib::{BackwardProfile, ClusterConfig, DataParallelSim, EventConfig};
use tbd_frameworks::SpeedOptions;
use tbd_gpusim::{GpuSpec, MemoryCategory};
use tbd_graph::trace::{EventKind, TraceEvent, TraceLayer, TraceRecorder, TraceSink};
use tbd_graph::Session;
use tbd_profiler::agg::StreamingAggregator;
use tbd_profiler::json;
use tbd_profiler::live::{fold_internal_metrics, render_report};
use tbd_profiler::sampling::synthesize_run;
use tbd_profiler::trace::{build_tiny, synthetic_feeds, Trace};
use tbd_profiler::{diagnose_events, observe, ReportContext, TraceOptions, DIGEST_TIMESTAMP};
use tbd_tensor::Tensor;

/// What one round produced, indexed in canonical (unpermuted) order.
#[derive(Debug, PartialEq)]
struct RoundOutput {
    /// Golden-trace digest per report pair; only filled when asked for.
    traces: Vec<String>,
    /// Report digest per report pair.
    reports: Vec<String>,
    /// Response bytes per sweep query.
    responses: Vec<Arc<String>>,
}

pub struct Analyze {
    points: Vec<Point>,
    queries: Vec<ServeQuery>,
    gpu: GpuSpec,
    rng: Rng,
    /// Output of the warm-up round of the set-up, with trace digests.
    reference: RoundOutput,
}

pub fn setup(seed: u64) -> Result<Analyze, String> {
    let golden = tbd_core::parse_digest_file(&inputs::read_golden(REPORT_GOLDEN)?)?;
    let mut analyze = Analyze {
        points: inputs::report_points(),
        queries: inputs::sweep(seed),
        gpu: inputs::gpu(),
        rng: Rng::new(seed),
        reference: RoundOutput {
            traces: Vec::new(),
            reports: Vec::new(),
            responses: Vec::new(),
        },
    };
    analyze.reference = analyze.round(true)?;
    let pinned = analyze
        .points
        .iter()
        .position(|p| {
            p.kind.name() == "ResNet-50" && p.framework.name() == "TensorFlow" && p.batch == 4
        })
        .ok_or("ResNet-50 / TensorFlow / b4 is not among the report pairs")?;
    if analyze.reference.reports[pinned] != golden {
        return Err(format!(
            "ResNet-50 / TensorFlow / b4 report digest {} differs from {REPORT_GOLDEN} ({golden})",
            analyze.reference.reports[pinned]
        ));
    }
    Ok(analyze)
}

impl Analyze {
    pub fn sweep_len(&self) -> usize {
        self.queries.len()
    }

    fn round(&mut self, with_traces: bool) -> Result<RoundOutput, String> {
        let mut out = RoundOutput {
            traces: vec![String::new(); if with_traces { self.points.len() } else { 0 }],
            reports: vec![String::new(); self.points.len()],
            responses: Vec::new(),
        };
        for i in self.rng.permutation(self.points.len()) {
            let p = self.points[i];
            let obs = observe(
                p.kind,
                p.framework,
                p.batch,
                &self.gpu,
                &TraceOptions::default(),
                None,
            )
            .map_err(|e| format!("{}: {e}", p.kind.name()))?;
            out.reports[i] = render_report(&obs, DIGEST_TIMESTAMP).digest_hex;
            if with_traces {
                out.traces[i] = obs.capture.trace.digest_hex();
            }
        }
        let engine = ServeEngine::new(self.gpu.clone());
        let mut responses = vec![None; self.queries.len()];
        for i in self.rng.permutation(self.queries.len()) {
            responses[i] = Some(engine.query(&self.queries[i])?);
        }
        out.responses = responses
            .into_iter()
            .map(|r| r.expect("every query answered"))
            .collect();
        Ok(out)
    }

    fn check(&self, out: &RoundOutput) -> bool {
        out.reports == self.reference.reports
            && out.responses == self.reference.responses
            && (out.traces.is_empty() || out.traces == self.reference.traces)
    }

    pub fn measure(&mut self, budget: Budget) -> Loop {
        closed_loop(budget, || {
            self.round(false).is_ok_and(|out| self.check(&out))
        })
    }
}

/// Forwards recorded events to the streaming aggregator and adds up the
/// wall time the fold takes. The fold runs inside the recorder calls of
/// every capture stage, so stage times below subtract it.
#[derive(Debug)]
struct TimedSink {
    inner: Arc<StreamingAggregator>,
    ns: AtomicU64,
}

impl TraceSink for TimedSink {
    fn consume(&self, events: &[TraceEvent]) {
        let t0 = Instant::now();
        self.inner.consume(events);
        self.ns
            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }
}

impl TimedSink {
    fn fold_ms(&self) -> f64 {
        self.ns.load(Ordering::Relaxed) as f64 / 1e6
    }
}

/// A stage timer that reports self time: wall time minus the fold time the
/// sink accrued meanwhile.
struct Stage<'a> {
    sink: &'a TimedSink,
    t0: Instant,
    fold0: f64,
}

impl<'a> Stage<'a> {
    fn start(sink: &'a TimedSink) -> Stage<'a> {
        Stage {
            sink,
            t0: Instant::now(),
            fold0: sink.fold_ms(),
        }
    }

    fn self_ms(&self) -> f64 {
        self.t0.elapsed().as_secs_f64() * 1e3 - (self.sink.fold_ms() - self.fold0)
    }
}

/// Per-round layer times of one traced round, milliseconds unless named.
#[derive(Debug, Default)]
struct TracedRound {
    total: f64,
    build: f64,
    exec: f64,
    lower: f64,
    profile: f64,
    replay: f64,
    fold: f64,
    diagnose: f64,
    render: f64,
    capture: f64,
    events: f64,
    cold_capture: f64,
    cold_replay: f64,
    reuses: f64,
    retries: f64,
}

fn ms(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

impl Analyze {
    /// `capture_into`, `observe` and `render_report` rebuilt from the
    /// public calls they make, each stage timed. Returns the trace and
    /// report digests.
    fn traced_report(&self, p: Point, t: &mut TracedRound) -> Result<(String, String), String> {
        let Point {
            kind,
            framework,
            batch,
        } = p;
        let err = |e: &dyn std::fmt::Display| format!("{}: {e}", kind.name());
        let options = TraceOptions::default();
        let agg = StreamingAggregator::shared();
        let sink = Arc::new(TimedSink {
            inner: Arc::clone(&agg),
            ns: AtomicU64::new(0),
        });
        let recorder = TraceRecorder::shared_with_sink(Arc::clone(&sink) as Arc<dyn TraceSink>);
        let capture_start = Instant::now();
        recorder.record(
            TraceEvent::instant("capture", TraceLayer::Profiler, EventKind::Phase, 0.0)
                .with_arg("model", kind.name())
                .with_arg("framework", framework.name())
                .with_arg("batch", batch),
        );
        // The tiny functional step.
        let stage = Stage::start(&sink);
        let model = build_tiny(kind).map_err(|e| err(&e))?;
        t.build += stage.self_ms();
        let stage = Stage::start(&sink);
        let feeds = synthetic_feeds(&model);
        let loss = model.loss();
        let mut exec = framework.host_threading();
        exec.intra_op_threads = options.intra_op_threads;
        let mut session = Session::with_exec(model.graph, options.seed, exec);
        session.set_fusion_enabled(options.fuse);
        session.set_precision(options.precision);
        session.set_tracer(Some(Arc::clone(&recorder)));
        let run = session.forward(&feeds).map_err(|e| err(&e))?;
        session
            .backward(&run, loss, Tensor::scalar(1.0))
            .map_err(|e| err(&e))?;
        tbd_tensor::par::set_max_threads(0);
        t.exec += stage.self_ms();
        // The paper-scale simulated iteration.
        let stage = Stage::start(&sink);
        let full = kind.build_full(batch).map_err(|e| err(&e))?;
        t.build += stage.self_ms();
        let hints = framework.hints(kind, batch);
        let speed = SpeedOptions {
            fuse: options.fuse,
            precision: options.precision,
        };
        let stage = Stage::start(&sink);
        let profiled =
            framework.profile_traced_with_speed(&full, &self.gpu, hints, speed, &recorder);
        t.profile += stage.self_ms();
        let (profile, oom) = match profiled {
            Ok(profile) => (Some(profile), None),
            Err(oom) => (None, Some(oom)),
        };
        if let Some(profile) = &profile {
            let sim = DataParallelSim {
                compute_iter_s: profile.iteration.wall_time_s,
                gradient_bytes: (profile.memory.peak(MemoryCategory::WeightGrads) as f64).max(1.0),
                per_gpu_batch: batch,
            };
            let grad_map: Vec<(usize, f64)> =
                tbd_graph::lower::weight_grad_bytes_by_consumer(&full.graph)
                    .into_iter()
                    .map(|(id, bytes)| (id.index(), bytes as f64))
                    .collect();
            let backward = BackwardProfile::from_records(
                profile.iteration.wall_time_s,
                &profile.iteration.records,
                &grad_map,
            );
            let stage = Stage::start(&sink);
            sim.simulate_events_traced(
                &ClusterConfig::single_machine(2),
                &backward,
                &EventConfig::default(),
                &recorder,
            );
            t.replay += stage.self_ms();
        }
        recorder.record(
            TraceEvent::instant(
                "analysis complete",
                TraceLayer::Profiler,
                EventKind::Phase,
                1.0,
            )
            .with_arg("oom", oom.is_some())
            .with_arg("events", recorder.len()),
        );
        let trace = Trace {
            model: kind,
            framework: framework.name(),
            batch,
            events: recorder.drain(),
        };
        t.capture += ms(capture_start) - sink.fold_ms();
        t.events += trace.events.len() as f64;
        // `observe`: the synthesised training run through the same sink,
        // then the registry snapshot.
        if let Some(profile) = &profile {
            let run = synthesize_run(profile.iteration.wall_time_s, 150, 200, 600, 42);
            let mut t_us = 0.0;
            let events: Vec<TraceEvent> = run
                .iteration_s
                .iter()
                .map(|&s| {
                    let e = TraceEvent::span(
                        "training iteration",
                        TraceLayer::Profiler,
                        EventKind::Iteration,
                        t_us,
                        s * 1e6,
                    )
                    .with_arg("batch", batch);
                    t_us += s * 1e6;
                    e
                })
                .collect();
            recorder.record_batch(events);
        }
        let overhead = recorder.overhead();
        let t0 = Instant::now();
        let mut registry = agg.registry();
        fold_internal_metrics(&mut registry, &overhead);
        std::hint::black_box(agg.to_markdown());
        t.fold += ms(t0) + sink.fold_ms();
        // `render_report`.
        let t0 = Instant::now();
        let diagnosis = diagnose_events(kind.name(), trace.framework, batch, &trace.events);
        t.diagnose += ms(t0);
        let t0 = Instant::now();
        let trace_digest = trace.digest_hex();
        let ctx = ReportContext {
            model: kind.name(),
            framework: trace.framework,
            batch,
            gpu: &self.gpu.name,
            trace_digest: &trace_digest,
            events: &trace.events,
            registry: &registry,
            diagnosis: &diagnosis,
            overhead,
        };
        std::hint::black_box(ctx.render(DIGEST_TIMESTAMP));
        let report_digest = ctx.digest_hex();
        t.render += ms(t0);
        // Lowering alone, outside the capture: the share of
        // `profile_traced_with_speed` that is not the simulator.
        let t0 = Instant::now();
        std::hint::black_box(framework.plan_with(&full, speed));
        t.lower += ms(t0);
        Ok((trace_digest, report_digest))
    }

    /// The same round as [`Analyze::round`], with every stage timed.
    fn traced_round(&mut self) -> Result<(RoundOutput, TracedRound), String> {
        let mut t = TracedRound::default();
        let mut out = RoundOutput {
            traces: vec![String::new(); self.points.len()],
            reports: vec![String::new(); self.points.len()],
            responses: Vec::new(),
        };
        let mut report_ms = 0.0;
        for i in self.rng.permutation(self.points.len()) {
            let t0 = Instant::now();
            (out.traces[i], out.reports[i]) = self.traced_report(self.points[i], &mut t)?;
            report_ms += ms(t0);
        }
        // The lowering probe is not part of the round.
        report_ms -= t.lower;
        let engine = ServeEngine::new(self.gpu.clone());
        let mut responses = vec![None; self.queries.len()];
        let sweep_start = Instant::now();
        for i in self.rng.permutation(self.queries.len()) {
            let computes = engine.profile_computes();
            let t0 = Instant::now();
            let response = engine.query(&self.queries[i])?;
            let dt = ms(t0);
            if engine.profile_computes() > computes {
                t.cold_capture += dt;
            } else {
                t.cold_replay += dt;
                t.reuses += 1.0;
            }
            t.retries += retries(&response)
                .ok_or_else(|| format!("response without a numeric `retries`: {response}"))?;
            responses[i] = Some(response);
        }
        t.total = report_ms + ms(sweep_start);
        out.responses = responses
            .into_iter()
            .map(|r| r.expect("every query answered"))
            .collect();
        Ok((out, t))
    }
}

/// The `retries` field of a serve response; `None` when it is missing.
fn retries(response: &str) -> Option<f64> {
    json::parse(response).ok()?.get("retries")?.as_f64()
}

/// Alternates untraced and traced rounds within `budget` and returns the
/// per-layer metrics with the tracing overhead.
pub fn traced(seed: u64, budget: Budget) -> Result<Traced, String> {
    let mut analyze = setup(seed)?;
    let mut plain = Vec::new();
    let mut rounds = Vec::new();
    let mut failed = 0;
    let start = Instant::now();
    while budget.more(start, plain.len()) {
        let t0 = Instant::now();
        let ok = analyze.round(false).is_ok_and(|out| analyze.check(&out));
        plain.push(ms(t0));
        failed += u64::from(!ok);
        match analyze.traced_round() {
            Ok((out, t)) if analyze.check(&out) => rounds.push(t),
            _ => failed += 1,
        }
    }
    let col = |f: fn(&TracedRound) -> f64| median(&rounds.iter().map(f).collect::<Vec<_>>());
    let untraced = median(&plain);
    let traced_round = col(|t| t.total);
    let profile = col(|t| t.profile);
    let lower = col(|t| t.lower);
    let sweep = analyze.sweep_len() as f64;
    let metrics = vec![
        Metric::new("models.build_ms", col(|t| t.build), "ms"),
        Metric::new("graph.exec_ms", col(|t| t.exec), "ms"),
        Metric::new("graph.lower_ms", lower, "ms"),
        Metric::new("frameworks.profile_ms", profile, "ms"),
        Metric::new("gpusim.sim_ms", profile - lower, "ms"),
        Metric::new("distrib.replay_ms", col(|t| t.replay), "ms"),
        Metric::new("profiler.fold_ms", col(|t| t.fold), "ms"),
        Metric::new("profiler.diagnose_ms", col(|t| t.diagnose), "ms"),
        Metric::new("profiler.render_ms", col(|t| t.render), "ms"),
        Metric::new("profiler.events", col(|t| t.events), "count"),
        Metric::new(
            "profiler.ns_per_event",
            col(|t| t.capture * 1e6 / t.events),
            "ns",
        ),
        Metric::new("core.cold_capture_ms", col(|t| t.cold_capture), "ms"),
        Metric::new("core.cold_replay_ms", col(|t| t.cold_replay), "ms"),
        Metric::new(
            "core.profile_reuse_ratio",
            col(|t| t.reuses) / sweep,
            "ratio",
        ),
        Metric::new("distrib.retries", col(|t| t.retries), "count"),
        Metric::new("analyze.round_ms", untraced, "ms"),
        Metric::new("analyze.traced_round_ms", traced_round, "ms"),
        Metric::new(
            "analyze.trace_overhead_pct",
            100.0 * (traced_round / untraced - 1.0),
            "%",
        ),
    ];
    Ok(Traced {
        metrics,
        attempted: (plain.len() * 2) as u64,
        failed,
    })
}
