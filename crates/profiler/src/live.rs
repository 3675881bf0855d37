//! Live telemetry: repeated captures behind a std-only HTTP endpoint
//! (DESIGN.md §5i) — the observability runtime `tbd watch` runs and the
//! future fleet-scale `tbd serve` will plug into.
//!
//! # One capture path, two front-ends
//!
//! [`observe`] is the single function both `tbd metrics` and the watch
//! worker call: it attaches a [`StreamingAggregator`] to a fresh
//! [`TraceRecorder`], runs [`capture_into`], streams the synthesised
//! training run through the same sink, and snapshots the registry —
//! augmented with the recorder's deterministic `internal_*` overhead
//! counters. Because both front-ends share this function, `GET /metrics`
//! is byte-identical to `tbd metrics --format prom` for the same
//! model/seed by construction (pinned by `tests/report.rs`).
//!
//! # Server shape
//!
//! [`LiveServer`] is deliberately boring: a nonblocking [`TcpListener`]
//! polled by one acceptor thread, plus one worker thread running
//! captures. Accepted connections are dispatched to a small
//! [`WorkerPool`] — a slow or stalled reader occupies one pool worker,
//! never the accept loop, so concurrent `/metrics` scrapes don't
//! head-of-line block each other; when the pool's bounded queue is full
//! the acceptor sheds load inline with `503`. The capture worker
//! publishes each finished capture as an immutable [`Snapshot`] behind a
//! mutex, so a `GET /metrics` racing an in-flight capture always sees
//! the last *completed* capture — never a torn one. Shutdown sets an
//! atomic flag, joins both threads, then drains the pool; the snapshot
//! mutex is only ever locked for a clone or a replace, so a dropped
//! connection or a mid-request shutdown cannot poison it.

use crate::agg::{series, MetricsRegistry, StreamingAggregator};
use crate::diagnose::diagnose_events;
use crate::pool::WorkerPool;
use crate::report::{overhead_health_json, ReportContext};
use crate::sampling::synthesize_run;
use crate::trace::{capture_into, Capture, TraceOptions};
use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use tbd_frameworks::Framework;
use tbd_gpusim::GpuSpec;
use tbd_graph::trace::{
    EventKind, RecorderOverhead, TraceEvent, TraceLayer, TraceRecorder,
};
use tbd_graph::GraphError;
use tbd_models::ModelKind;

/// Longest request line the server accepts; anything larger is answered
/// with `414 URI Too Long` before the connection is dropped.
pub const MAX_REQUEST_LINE: usize = 8 * 1024;

/// Connection-handling threads behind the watch HTTP front.
pub const HTTP_POOL_WORKERS: usize = 4;

/// Accepted-but-not-yet-handled connections the watch front queues
/// before shedding load with `503`.
pub const HTTP_POOL_QUEUE: usize = 64;

/// One observed capture: the trace, the metrics snapshot (including the
/// `internal_*` self-observability counters) and the recorder overhead.
#[derive(Debug)]
pub struct Observation {
    /// The finished capture (trace, profile, OOM verdict, wall times).
    pub capture: Capture,
    /// Metrics registry folded live from the capture's event stream.
    pub registry: MetricsRegistry,
    /// The recorder's self-observability counters.
    pub overhead: RecorderOverhead,
    /// Simulated device name the capture ran against.
    pub gpu: String,
    /// The aggregator's human-readable markdown summary.
    pub markdown: String,
}

/// Captures `kind × framework × batch` on `gpu` with a live streaming
/// aggregator attached, streams the synthesised training run through the
/// same sink (so the rolling stable-window sees warm-up, autotuning and
/// steady state), and snapshots the registry with the recorder's
/// deterministic `internal_*` counters folded in.
///
/// `retain_cap` bounds the recorder's *stored* events for long-running
/// servers; the sink still observes everything, so the registry is exact
/// either way. `None` (the CLI default) retains the full trace.
///
/// # Errors
///
/// Propagates any [`GraphError`] from the underlying capture.
pub fn observe(
    kind: ModelKind,
    framework: Framework,
    batch: usize,
    gpu: &GpuSpec,
    options: &TraceOptions,
    retain_cap: Option<usize>,
) -> Result<Observation, GraphError> {
    let agg = StreamingAggregator::shared();
    let recorder = TraceRecorder::shared_with_sink(agg.clone());
    if let Some(cap) = retain_cap {
        recorder.set_retain_cap(cap);
    }
    let capture = capture_into(kind, framework, batch, gpu, options, &recorder)?;
    // Stream a synthesised training run through the same sink: the
    // aggregator's rolling window sees warm-up, autotuning and steady
    // state exactly as a live harness would publish them.
    if let Some(profile) = &capture.profile {
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
    let mut registry = agg.registry();
    fold_internal_metrics(&mut registry, &overhead);
    let markdown = agg.to_markdown();
    Ok(Observation { capture, registry, overhead, gpu: gpu.name.clone(), markdown })
}

/// Adds the recorder's deterministic self-observability counters to a
/// registry as `internal_*` series (`tbd_internal_*` once exported). Only
/// trace-determined values are folded — wall-clock nanoseconds and the
/// sink-latency histogram stay out of every digested exporter and are
/// served on `/health` instead.
pub fn fold_internal_metrics(registry: &mut MetricsRegistry, overhead: &RecorderOverhead) {
    registry.inc("internal_events_recorded_total", overhead.events_total());
    for layer in TraceLayer::ALL {
        let count = overhead.events_by_layer[layer.index()];
        if count > 0 {
            registry
                .inc(series("internal_events_recorded_total", "layer", &layer.to_string()), count);
        }
    }
    registry.inc("internal_event_bytes_total", overhead.event_bytes_total);
    registry.inc("internal_events_dropped_total", overhead.events_dropped_total);
    registry.inc("internal_record_calls_total", overhead.record_calls_total);
}

/// The finished-capture artifact set the server publishes atomically.
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// `MetricsRegistry::to_prometheus` output for the capture.
    pub prometheus: String,
    /// Chrome-trace JSON of the capture.
    pub trace_json: String,
    /// The self-contained HTML report.
    pub html: String,
    /// Report digest (FNV over the timestamp-free render).
    pub report_digest: String,
    /// Golden-trace digest of the capture.
    pub trace_digest: String,
    /// `/health` JSON fragment with the wall-clock overhead accounting.
    pub overhead_json: String,
}

/// A rendered report plus its digest and the trace digest it shows.
#[derive(Debug, Clone)]
pub struct RenderedReport {
    /// The self-contained HTML document.
    pub html: String,
    /// FNV-1a digest of the timestamp-free render, 16 hex digits.
    pub digest_hex: String,
    /// Golden-trace digest of the observed capture (`Trace::digest_hex`).
    pub trace_digest: String,
}

/// Renders the HTML report for an observation, once. `timestamp` is
/// display-only (pass [`crate::DIGEST_TIMESTAMP`] for a reproducible page);
/// the digest always covers the timestamp-free render.
pub fn render_report(obs: &Observation, timestamp: &str) -> RenderedReport {
    let trace = &obs.capture.trace;
    let diagnosis =
        diagnose_events(trace.model.name(), trace.framework, trace.batch, &trace.events);
    let trace_digest = trace.digest_hex();
    let ctx = ReportContext {
        model: trace.model.name(),
        framework: trace.framework,
        batch: trace.batch,
        gpu: &obs.gpu,
        trace_digest: &trace_digest,
        events: &trace.events,
        registry: &obs.registry,
        diagnosis: &diagnosis,
        overhead: obs.overhead.clone(),
    };
    let (html, digest_hex) = ctx.render_with_digest(timestamp);
    RenderedReport { html, digest_hex, trace_digest }
}

fn snapshot_of(obs: &Observation, capture_index: u64) -> Snapshot {
    let rendered = render_report(obs, &format!("capture #{capture_index}"));
    Snapshot {
        prometheus: obs.registry.to_prometheus(),
        trace_json: obs.capture.trace.chrome_json(&rendered.trace_digest),
        html: rendered.html,
        report_digest: rendered.digest_hex,
        trace_digest: rendered.trace_digest,
        overhead_json: overhead_health_json(
            &obs.overhead,
            obs.capture.wall.total_s,
            obs.capture.profile.as_ref().map_or(0.0, |p| p.iteration.wall_time_s),
        ),
    }
}

/// Configuration of a [`LiveServer`].
#[derive(Debug, Clone)]
pub struct WatchConfig {
    /// Workload to capture.
    pub kind: ModelKind,
    /// Framework personality.
    pub framework: Framework,
    /// Per-GPU minibatch size.
    pub batch: usize,
    /// Simulated device.
    pub gpu: GpuSpec,
    /// Capture options (threads, fuse, precision, seed).
    pub options: TraceOptions,
    /// Stop the worker after this many captures; `0` runs until shutdown.
    pub max_captures: u64,
    /// Pause between captures.
    pub interval: Duration,
    /// Recorder retain cap for long-running processes (`None`: unbounded).
    pub retain_cap: Option<usize>,
}

impl WatchConfig {
    /// A watch over one workload with library defaults: capture forever,
    /// 1 s apart, unbounded retention.
    pub fn new(kind: ModelKind, framework: Framework, batch: usize, gpu: GpuSpec) -> Self {
        WatchConfig {
            kind,
            framework,
            batch,
            gpu,
            options: TraceOptions::default(),
            max_captures: 0,
            interval: Duration::from_secs(1),
            retain_cap: None,
        }
    }
}

#[derive(Debug)]
struct Shared {
    stop: AtomicBool,
    captures: AtomicU64,
    capture_errors: AtomicU64,
    epoch: Instant,
    snapshot: Mutex<Option<Snapshot>>,
}

impl Shared {
    fn health_json(&self) -> String {
        let snapshot = self.snapshot.lock().expect("snapshot lock");
        let (report_digest, trace_digest, overhead) = match snapshot.as_ref() {
            Some(s) => {
                (s.report_digest.clone(), s.trace_digest.clone(), s.overhead_json.clone())
            }
            None => (String::new(), String::new(), "null".to_string()),
        };
        drop(snapshot);
        format!(
            "{{\"status\":\"ok\",\"uptime_s\":{:.3},\"captures\":{},\"capture_errors\":{},\
             \"last_report_digest\":\"{report_digest}\",\
             \"last_trace_digest\":\"{trace_digest}\",\"overhead\":{overhead}}}",
            self.epoch.elapsed().as_secs_f64(),
            self.captures.load(Ordering::Relaxed),
            self.capture_errors.load(Ordering::Relaxed),
        )
    }
}

/// The `tbd watch` runtime: a capture worker plus a single-threaded-accept
/// HTTP server bound to one address, serving `GET /metrics`, `/health`,
/// `/trace.json` and `/report`.
#[derive(Debug)]
pub struct LiveServer {
    shared: Arc<Shared>,
    addr: SocketAddr,
    worker: Option<JoinHandle<()>>,
    acceptor: Option<JoinHandle<()>>,
    pool: Option<Arc<WorkerPool>>,
}

impl LiveServer {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts the
    /// worker and acceptor threads.
    ///
    /// # Errors
    ///
    /// Returns the bind error when the address is unavailable.
    pub fn start(config: WatchConfig, addr: &str) -> std::io::Result<LiveServer> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            stop: AtomicBool::new(false),
            captures: AtomicU64::new(0),
            capture_errors: AtomicU64::new(0),
            epoch: Instant::now(),
            snapshot: Mutex::new(None),
        });
        let pool = Arc::new(WorkerPool::new(HTTP_POOL_WORKERS, HTTP_POOL_QUEUE));
        let worker = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || capture_worker(&config, &shared))
        };
        let acceptor = {
            let shared = Arc::clone(&shared);
            let pool = Arc::clone(&pool);
            std::thread::spawn(move || accept_loop(&listener, &shared, &pool))
        };
        Ok(LiveServer {
            shared,
            addr,
            worker: Some(worker),
            acceptor: Some(acceptor),
            pool: Some(pool),
        })
    }

    /// The bound address (with the resolved port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Captures completed so far.
    pub fn captures_completed(&self) -> u64 {
        self.shared.captures.load(Ordering::Relaxed)
    }

    /// Capture attempts that errored.
    pub fn capture_errors(&self) -> u64 {
        self.shared.capture_errors.load(Ordering::Relaxed)
    }

    /// Blocks until at least `n` captures completed or `timeout` elapsed;
    /// returns whether the target was reached.
    pub fn wait_for_captures(&self, n: u64, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        while self.captures_completed() < n {
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        true
    }

    /// Clone of the last completed snapshot, if any capture finished.
    pub fn snapshot(&self) -> Option<Snapshot> {
        self.shared.snapshot.lock().expect("snapshot lock").clone()
    }

    /// `true` once the capture worker finished (hit `max_captures` or was
    /// stopped); the HTTP endpoints keep serving the last snapshot.
    pub fn worker_finished(&self) -> bool {
        self.worker.as_ref().is_none_or(|w| w.is_finished())
    }

    /// Signals both threads to stop and joins them — the SIGINT-equivalent
    /// graceful path. Idempotent; the snapshot survives for inspection.
    /// The connection pool is drained last, so every accepted request is
    /// still answered.
    pub fn shutdown(&mut self) {
        self.shared.stop.store(true, Ordering::Relaxed);
        if let Some(worker) = self.worker.take() {
            let _ = worker.join();
        }
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        if let Some(pool) = self.pool.take() {
            pool.shutdown();
        }
    }
}

impl Drop for LiveServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn capture_worker(config: &WatchConfig, shared: &Shared) {
    let mut done = 0u64;
    while !shared.stop.load(Ordering::Relaxed) {
        match observe(
            config.kind,
            config.framework,
            config.batch,
            &config.gpu,
            &config.options,
            config.retain_cap,
        ) {
            Ok(obs) => {
                let snapshot = snapshot_of(&obs, done + 1);
                *shared.snapshot.lock().expect("snapshot lock") = Some(snapshot);
                done += 1;
                shared.captures.store(done, Ordering::Relaxed);
            }
            Err(_) => {
                shared.capture_errors.fetch_add(1, Ordering::Relaxed);
            }
        }
        if config.max_captures > 0 && done >= config.max_captures {
            break;
        }
        // Interval sleep in short slices so shutdown stays responsive.
        let deadline = Instant::now() + config.interval;
        while Instant::now() < deadline {
            if shared.stop.load(Ordering::Relaxed) {
                return;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>, pool: &Arc<WorkerPool>) {
    while !shared.stop.load(Ordering::Relaxed) {
        match listener.accept() {
            Ok((mut stream, _)) => {
                // Dispatch to the pool: a slow reader parks one pool
                // worker, never the accept loop, so concurrent scrapes
                // proceed in parallel. The handler gets a dup of the
                // socket so a rejected submission can still answer 503
                // on the original before it drops.
                let job_shared = Arc::clone(shared);
                let rejected = match stream.try_clone() {
                    Ok(handler_stream) => pool
                        .submit(move || {
                            let _ = handle_connection(handler_stream, &job_shared);
                        })
                        .is_err(),
                    Err(_) => true,
                };
                if rejected {
                    let _ = stream.set_nonblocking(false);
                    let _ = write_response(
                        &mut stream,
                        503,
                        "text/plain; charset=utf-8",
                        "server overloaded\n",
                    );
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    }
}

/// Splits an HTTP request line into `(method, path)`, rejecting anything
/// that is not `METHOD SP PATH SP HTTP/x.y`.
pub fn parse_request_line(line: &str) -> Result<(&str, &str), u16> {
    let mut parts = line.split_ascii_whitespace();
    let (Some(method), Some(path), Some(version), None) =
        (parts.next(), parts.next(), parts.next(), parts.next())
    else {
        return Err(400);
    };
    if !version.starts_with("HTTP/") {
        return Err(400);
    }
    Ok((method, path))
}

fn status_reason(code: u16) -> &'static str {
    match code {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        414 => "URI Too Long",
        503 => "Service Unavailable",
        _ => "Error",
    }
}

/// Writes a minimal `HTTP/1.1` response (`Connection: close`) — shared by
/// the watch front and the `tbd serve` query front.
///
/// # Errors
///
/// Propagates socket write errors; callers on best-effort paths ignore
/// them.
pub fn write_response(
    stream: &mut TcpStream,
    code: u16,
    content_type: &str,
    body: &str,
) -> std::io::Result<()> {
    let head = format!(
        "HTTP/1.1 {code} {}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        status_reason(code),
        body.len(),
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

const INDEX_HTML: &str = "<!DOCTYPE html><html><head><meta charset=\"utf-8\">\
<title>tbd watch</title></head><body><h1>tbd watch</h1><ul>\
<li><a href=\"/metrics\">/metrics</a> — Prometheus exposition</li>\
<li><a href=\"/health\">/health</a> — liveness + overhead accounting</li>\
<li><a href=\"/trace.json\">/trace.json</a> — latest Chrome trace</li>\
<li><a href=\"/report\">/report</a> — latest HTML run report</li>\
</ul></body></html>";

fn handle_connection(mut stream: TcpStream, shared: &Shared) -> std::io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_secs(2)))?;
    stream.set_nonblocking(false)?;
    let mut buf = Vec::with_capacity(512);
    let mut chunk = [0u8; 512];
    let line = loop {
        if buf.len() > MAX_REQUEST_LINE {
            return write_response(&mut stream, 414, "text/plain; charset=utf-8", "request line too long\n");
        }
        match stream.read(&mut chunk) {
            Ok(0) => return Ok(()), // peer went away before sending a line
            Ok(n) => {
                buf.extend_from_slice(&chunk[..n]);
                if let Some(pos) = buf.iter().position(|&b| b == b'\n') {
                    if pos > MAX_REQUEST_LINE {
                        return write_response(
                            &mut stream,
                            414,
                            "text/plain; charset=utf-8",
                            "request line too long\n",
                        );
                    }
                    break String::from_utf8_lossy(&buf[..pos]).trim_end().to_string();
                }
            }
            Err(_) => return Ok(()), // timeout / reset: nothing to answer
        }
    };
    let (method, path) = match parse_request_line(&line) {
        Ok(parsed) => parsed,
        Err(code) => {
            return write_response(&mut stream, code, "text/plain; charset=utf-8", "bad request\n")
        }
    };
    if method != "GET" {
        return write_response(
            &mut stream,
            405,
            "text/plain; charset=utf-8",
            "only GET is supported\n",
        );
    }
    match path {
        "/" => write_response(&mut stream, 200, "text/html; charset=utf-8", INDEX_HTML),
        "/health" => write_response(
            &mut stream,
            200,
            "application/json; charset=utf-8",
            &shared.health_json(),
        ),
        "/metrics" | "/trace.json" | "/report" => {
            let snapshot = shared.snapshot.lock().expect("snapshot lock").clone();
            match snapshot {
                None => write_response(
                    &mut stream,
                    503,
                    "text/plain; charset=utf-8",
                    "no capture completed yet\n",
                ),
                Some(snap) => match path {
                    "/metrics" => write_response(
                        &mut stream,
                        200,
                        "text/plain; version=0.0.4; charset=utf-8",
                        &snap.prometheus,
                    ),
                    "/trace.json" => write_response(
                        &mut stream,
                        200,
                        "application/json; charset=utf-8",
                        &snap.trace_json,
                    ),
                    _ => write_response(&mut stream, 200, "text/html; charset=utf-8", &snap.html),
                },
            }
        }
        _ => write_response(&mut stream, 404, "text/plain; charset=utf-8", "not found\n"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_lines_parse_or_reject() {
        assert_eq!(parse_request_line("GET /metrics HTTP/1.1"), Ok(("GET", "/metrics")));
        assert_eq!(parse_request_line("POST / HTTP/1.0"), Ok(("POST", "/")));
        assert_eq!(parse_request_line(""), Err(400));
        assert_eq!(parse_request_line("GET /metrics"), Err(400));
        assert_eq!(parse_request_line("GET /metrics SPDY/3"), Err(400));
        assert_eq!(parse_request_line("GET /a b HTTP/1.1"), Err(400));
    }

    #[test]
    fn internal_metrics_fold_deterministic_counters_only() {
        let mut registry = MetricsRegistry::default();
        let overhead = RecorderOverhead {
            events_by_layer: [2, 3, 0, 1, 0],
            event_bytes_total: 420,
            record_calls_total: 4,
            events_dropped_total: 1,
            record_ns_total: 999_999, // wall clock: must NOT appear
            ..RecorderOverhead::default()
        };
        fold_internal_metrics(&mut registry, &overhead);
        assert_eq!(registry.counter("internal_events_recorded_total"), Some(6));
        assert_eq!(
            registry.counter(&series("internal_events_recorded_total", "layer", "executor")),
            Some(2)
        );
        assert_eq!(registry.counter("internal_event_bytes_total"), Some(420));
        assert_eq!(registry.counter("internal_events_dropped_total"), Some(1));
        assert_eq!(registry.counter("internal_record_calls_total"), Some(4));
        assert!(
            !registry.canonical().contains("999999"),
            "wall-clock nanoseconds stay out of the registry"
        );
    }
}
