//! `serve`: one operation is one `GET /query` over a fresh connection to a
//! `ServeServer` whose cache the set-up filled, so every request is a
//! cache hit and the HTTP front end does the work.

use crate::inputs::{self, SERVE_GOLDEN};
use crate::stats::{closed_loop, median, Budget, Loop, Metric, Rng, Traced};
use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tbd_core::serve::{ServeConfig, ServeEngine, ServeQuery, ServeServer};
use tbd_profiler::json;

/// Closed-loop clients, one connection per request each.
pub const CLIENTS: usize = 2;
/// Connection-handling workers of the server.
const SERVER_WORKERS: usize = 2;
/// A response slower than this counts as failed.
const IO_TIMEOUT: Duration = Duration::from_secs(5);

pub struct Serve {
    server: ServeServer,
    paths: Vec<String>,
    /// In-process `ServeEngine::query` answer per query.
    expected: Vec<Arc<String>>,
    queries: Vec<ServeQuery>,
    /// Seeded request order; clients take the next entry in turn.
    order: Vec<usize>,
    next: AtomicUsize,
}

pub fn setup(seed: u64) -> Result<Serve, String> {
    let engine = Arc::new(ServeEngine::new(inputs::gpu()));
    let config = ServeConfig {
        workers: SERVER_WORKERS,
        ..ServeConfig::default()
    };
    let server = ServeServer::start(Arc::clone(&engine), "127.0.0.1:0", config)
        .map_err(|e| format!("cannot start the server: {e}"))?;
    let queries = inputs::sweep(seed);
    let expected = queries
        .iter()
        .map(|q| engine.query(q))
        .collect::<Result<Vec<_>, _>>()?;
    let pinned = inputs::read_golden(SERVE_GOLDEN)?;
    let golden = engine.query(&ServeQuery::golden())?;
    if golden.trim_end() != pinned.trim_end() {
        return Err(format!(
            "golden query response differs from {SERVE_GOLDEN}:\n{golden}"
        ));
    }
    Ok(Serve {
        server,
        paths: queries.iter().map(inputs::query_path).collect(),
        expected,
        order: Rng::new(seed).permutation(queries.len()),
        queries,
        next: AtomicUsize::new(0),
    })
}

/// Wall time of the phases of one request, microseconds.
#[derive(Debug, Default, Clone, Copy)]
struct Phases {
    connect: f64,
    first_byte: f64,
    read: f64,
}

/// One `GET` over a fresh connection; returns the status and body, and
/// fills `phases` when given.
fn get(
    addr: SocketAddr,
    path: &str,
    phases: Option<&mut Phases>,
) -> std::io::Result<(u16, Vec<u8>)> {
    let t0 = phases.is_some().then(Instant::now);
    let mut stream = TcpStream::connect(addr)?;
    let t1 = phases.is_some().then(Instant::now);
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    stream.write_all(
        format!("GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n").as_bytes(),
    )?;
    let mut buf = Vec::with_capacity(2048);
    let mut chunk = [0u8; 2048];
    let n = stream.read(&mut chunk)?;
    let t2 = phases.is_some().then(Instant::now);
    buf.extend_from_slice(&chunk[..n]);
    stream.read_to_end(&mut buf)?;
    if let (Some(phases), Some(t0), Some(t1), Some(t2)) = (phases, t0, t1, t2) {
        let us = |d: Duration| d.as_secs_f64() * 1e6;
        *phases = Phases {
            connect: us(t1 - t0),
            first_byte: us(t2 - t1),
            read: us(t2.elapsed()),
        };
    }
    parse_response(&buf).ok_or_else(|| std::io::Error::other("malformed HTTP response"))
}

/// Splits a `Connection: close` response into status and body, checking
/// the body against `Content-Length`.
fn parse_response(raw: &[u8]) -> Option<(u16, Vec<u8>)> {
    let split = raw.windows(4).position(|w| w == b"\r\n\r\n")?;
    let head = std::str::from_utf8(&raw[..split]).ok()?;
    let body = &raw[split + 4..];
    let status = head.split(' ').nth(1)?.parse().ok()?;
    let length: usize = head
        .lines()
        .find_map(|l| l.strip_prefix("Content-Length:"))
        .and_then(|v| v.trim().parse().ok())?;
    (length == body.len()).then(|| (status, body.to_vec()))
}

impl Serve {
    fn addr(&self) -> SocketAddr {
        self.server.local_addr()
    }

    /// Sends the next query of the seeded order; returns the status and
    /// whether the body equals the in-process answer.
    fn request(&self, phases: Option<&mut Phases>) -> (u16, bool) {
        let i = self.order[self.next.fetch_add(1, Ordering::Relaxed) % self.order.len()];
        match get(self.addr(), &self.paths[i], phases) {
            Ok((status, body)) => (status, status == 200 && body == self.expected[i].as_bytes()),
            Err(_) => (0, false),
        }
    }

    pub fn measure(&self, budget: Budget) -> Loop {
        let loops = std::thread::scope(|s| {
            let clients: Vec<_> = (0..CLIENTS)
                .map(|_| s.spawn(|| closed_loop(budget, || self.request(None).1)))
                .collect();
            clients
                .into_iter()
                .map(|c| c.join().expect("client thread panicked"))
                .collect()
        });
        Loop::merge(loops)
    }

    /// `(hits, misses)` from `GET /health`.
    fn health(&self) -> Result<(f64, f64), String> {
        let (status, body) =
            get(self.addr(), "/health", None).map_err(|e| format!("/health: {e}"))?;
        let body = String::from_utf8_lossy(&body);
        let health = json::parse(&body).ok();
        let field = |name: &str| health.as_ref()?.get(name)?.as_f64();
        match (status, field("hits"), field("misses")) {
            (200, Some(hits), Some(misses)) => Ok((hits, misses)),
            _ => Err(format!("/health answered {status}: {body}")),
        }
    }

    /// Mean wall time of an in-process `ServeEngine::query` hit over the
    /// whole sweep, microseconds.
    fn engine_hit_us(&self) -> f64 {
        const REPS: usize = 20;
        let engine = self.server.engine();
        let t0 = Instant::now();
        for _ in 0..REPS {
            for q in &self.queries {
                std::hint::black_box(engine.query(q).expect("cached answer"));
            }
        }
        t0.elapsed().as_secs_f64() * 1e6 / (REPS * self.queries.len()) as f64
    }
}

/// Per-client record of a traced pass.
#[derive(Default)]
struct Client {
    plain_ms: Vec<f64>,
    traced_ms: Vec<f64>,
    phases: Vec<Phases>,
    shed: u64,
    failed: u64,
}

/// Each client alternates an untraced request with one whose connect,
/// first-byte and read phases are timed, within `budget`.
pub fn traced(seed: u64, budget: Budget) -> Result<Traced, String> {
    let serve = setup(seed)?;
    let (hits0, misses0) = serve.health()?;
    let clients: Vec<Client> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| {
                s.spawn(|| {
                    let mut c = Client::default();
                    let start = Instant::now();
                    while budget.more(start, c.plain_ms.len()) {
                        let t0 = Instant::now();
                        let (status, ok) = serve.request(None);
                        c.plain_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                        c.shed += u64::from(status == 503);
                        c.failed += u64::from(!ok);
                        let mut phases = Phases::default();
                        let t0 = Instant::now();
                        let (status, ok) = serve.request(Some(&mut phases));
                        c.traced_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                        c.phases.push(phases);
                        c.shed += u64::from(status == 503);
                        c.failed += u64::from(!ok);
                    }
                    c
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let (hits1, misses1) = serve.health()?;
    let all =
        |f: fn(&Client) -> &Vec<f64>| clients.iter().flat_map(f).copied().collect::<Vec<f64>>();
    let phase = |f: fn(&Phases) -> f64| {
        median(
            &clients
                .iter()
                .flat_map(|c| c.phases.iter().map(f))
                .collect::<Vec<_>>(),
        )
    };
    let plain = median(&all(|c| &c.plain_ms));
    let traced_request = median(&all(|c| &c.traced_ms));
    let hit_us = serve.engine_hit_us();
    let queries = (hits1 - hits0) + (misses1 - misses0);
    let metrics = vec![
        Metric::new("core.http_connect_us", phase(|p| p.connect), "us"),
        Metric::new("core.http_first_byte_us", phase(|p| p.first_byte), "us"),
        Metric::new("core.http_read_us", phase(|p| p.read), "us"),
        Metric::new("core.engine_hit_us", hit_us, "us"),
        Metric::new("core.http_front_us", traced_request * 1e3 - hit_us, "us"),
        Metric::new(
            "core.hit_ratio",
            if queries > 0.0 {
                (hits1 - hits0) / queries
            } else {
                0.0
            },
            "ratio",
        ),
        Metric::new(
            "core.shed_503",
            clients.iter().map(|c| c.shed as f64).sum(),
            "count",
        ),
        Metric::new("serve.request_ms", plain, "ms"),
        Metric::new("serve.traced_request_ms", traced_request, "ms"),
        Metric::new(
            "serve.trace_overhead_pct",
            100.0 * (traced_request / plain - 1.0),
            "%",
        ),
    ];
    let attempted = clients
        .iter()
        .map(|c| (c.plain_ms.len() + c.traced_ms.len()) as u64)
        .sum();
    Ok(Traced {
        metrics,
        attempted,
        failed: clients.iter().map(|c| c.failed).sum(),
    })
}
