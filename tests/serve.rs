//! Golden pin of the `tbd serve` query service (DESIGN.md §5j).
//!
//! The baseline scenario is the paper's Observation-12 headline point:
//! ResNet-50 / MXNet / batch 4 replayed over 2M1G Gigabit Ethernet. The
//! full JSON response — iteration time, exposed-communication ratio,
//! top-1 diagnosis and the TCO fields — must match
//! `tests/golden/serve-baseline.json` byte for byte; regenerate with
//! `UPDATE_GOLDEN=1 cargo test --test serve`.

use std::path::PathBuf;
use tbd_core::serve::{ProfileArtifact, ServeQuery};
use tbd_core::{paper_batches, Framework, GpuSpec, ModelKind, ServeEngine};
use tbd_distrib::BackwardProfile;
use tbd_graph::lower::weight_grad_bytes_by_consumer;
use tbd_profiler::{capture, TraceOptions};

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/serve-baseline.json")
}

fn golden_response() -> String {
    let engine = ServeEngine::new(GpuSpec::quadro_p4000());
    engine.query(&ServeQuery::golden()).expect("golden query answers").as_ref().clone()
}

#[test]
fn golden_serve_baseline_matches_byte_for_byte() {
    let response = golden_response();
    let path = golden_path();
    if std::env::var("UPDATE_GOLDEN").is_ok_and(|v| v == "1") {
        std::fs::write(&path, response + "\n").expect("write golden");
        eprintln!("updated {}", path.display());
        return;
    }
    let pinned = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("missing golden {} ({e}); run with UPDATE_GOLDEN=1", path.display())
    });
    assert_eq!(
        response,
        pinned.trim_end(),
        "serve response drifted from the pinned baseline; \
         regenerate deliberately with UPDATE_GOLDEN=1"
    );
}

#[test]
fn golden_response_carries_the_planning_fields() {
    let response = golden_response();
    for field in [
        "\"schema_version\":",
        "\"model\":\"ResNet-50\"",
        "\"framework\":\"MXNet\"",
        "\"cluster\":\"2M1G ethernet\"",
        "\"iteration_s\":",
        "\"exposed_comm_ratio\":",
        "\"diagnosis\":",
        "\"price_per_hour\":",
        "\"cost_per_iteration\":",
        "\"cost_per_1k_samples\":",
        "\"query_digest\":",
    ] {
        assert!(response.contains(field), "missing {field} in {response}");
    }
    // Observation 12: on Gigabit Ethernet the exchange is exposed, so the
    // verdict and the economics both have to reflect it.
    assert!(response.contains("exposed-communication"), "{response}");
}

#[test]
fn check_golden_accepts_the_pinned_file_and_rejects_others() {
    if std::env::var("UPDATE_GOLDEN").is_ok_and(|v| v == "1") {
        return; // regeneration run: the sibling test just rewrote the file
    }
    let engine = ServeEngine::new(GpuSpec::quadro_p4000());
    let path = golden_path();
    tbd_core::loadgen::check_golden(&engine, path.to_str().expect("utf-8 path"))
        .expect("pinned golden passes --check");
    let wrong = golden_path().with_file_name("scale-baseline.json");
    let err = tbd_core::loadgen::check_golden(&engine, wrong.to_str().expect("utf-8 path"))
        .expect_err("wrong file must fail --check");
    assert!(err.contains("drift"), "{err}");
}

/// Overload shedding under a large request body: the 503 must reach the
/// client even when its request is far bigger than one socket read. The
/// shed path drains the body (bounded) before closing, so the TCP close
/// sends FIN rather than RST — an RST would discard the 503 still sitting
/// in the client's receive buffer.
#[test]
fn overload_shed_survives_a_large_request_body() {
    use std::io::{Read, Write};
    use std::net::TcpStream;
    use std::sync::Arc;
    use std::time::Duration;
    use tbd_core::serve::ServeServer;
    use tbd_core::ServeConfig;

    let engine = Arc::new(ServeEngine::new(GpuSpec::quadro_p4000()));
    // One worker, one queue slot: two idle connections saturate the pool,
    // every further accept is shed with a 503.
    let config = ServeConfig { workers: 1, queue: 1, shards: 1 };
    let mut server = ServeServer::start(engine, "127.0.0.1:0", config).expect("bind ephemeral");
    let addr = server.local_addr();

    // Occupy the worker, then fill the queue. The handlers block in their
    // 2 s request-line read because these connections never send a byte.
    // The pauses order the dispatch: the worker must pop the first
    // connection before the second lands in the queue, otherwise the
    // second is shed instead of the probe.
    let hold_a = TcpStream::connect(addr).expect("connect");
    std::thread::sleep(Duration::from_millis(200));
    let hold_b = TcpStream::connect(addr).expect("connect");
    std::thread::sleep(Duration::from_millis(200));

    // The probe: a request with a 48 KiB body (within the shed-drain cap,
    // ~100× the old single-read scratch buffer).
    let mut probe = TcpStream::connect(addr).expect("connect");
    probe.set_read_timeout(Some(Duration::from_secs(5))).expect("timeout");
    let body = vec![b'x'; 48 * 1024];
    probe
        .write_all(b"POST /query HTTP/1.1\r\nContent-Length: 49152\r\n\r\n")
        .and_then(|()| probe.write_all(&body))
        .expect("request with large body");
    probe.shutdown(std::net::Shutdown::Write).expect("half-close");

    let mut response = String::new();
    probe.read_to_string(&mut response).expect("read full 503 (FIN, not RST)");
    assert!(response.starts_with("HTTP/1.1 503"), "{response}");
    assert!(response.contains("server overloaded"), "{response}");

    drop(hold_a);
    drop(hold_b);
    server.shutdown();
}

/// The query of one profile point, on the golden cluster.
fn point_query(model: ModelKind, framework: Framework, batch: usize) -> ServeQuery {
    ServeQuery { model, framework, batch, ..ServeQuery::golden() }
}

/// The artifact as the profile cache first filled it: a traced,
/// simulation-only `capture`, then the gradient map of a second build.
fn artifact_from_capture(q: &ServeQuery, gpu: &GpuSpec) -> Result<ProfileArtifact, String> {
    let options = TraceOptions {
        functional: false,
        fuse: q.fuse,
        precision: q.precision,
        ..TraceOptions::default()
    };
    let cap = capture(q.model, q.framework, q.batch, gpu, &options).map_err(|e| e.to_string())?;
    let profile = cap.profile.as_ref().ok_or_else(|| {
        format!("{} at batch {} does not fit {}", q.model.name(), q.batch, gpu.name)
    })?;
    let model = q.model.build_full(q.batch).map_err(|e| e.to_string())?;
    let grad_map: Vec<(usize, f64)> = weight_grad_bytes_by_consumer(&model.graph)
        .into_iter()
        .map(|(id, bytes)| (id.index(), bytes as f64))
        .collect();
    let compute_iter_s = profile.iteration.wall_time_s;
    let backward =
        BackwardProfile::from_records(compute_iter_s, &profile.iteration.records, &grad_map);
    Ok(ProfileArtifact { compute_iter_s, backward })
}

/// Every f64 of an artifact by bit pattern, with the layer labels.
fn artifact_bits(a: &ProfileArtifact) -> (u64, Vec<(&'static str, u64, u64)>) {
    let layers = a
        .backward
        .layers
        .iter()
        .map(|l| (l.label, l.bytes.to_bits(), l.finish_s.to_bits()))
        .collect();
    (a.compute_iter_s.to_bits(), layers)
}

/// The profile cache fills from an untraced profile. At every sweep point
/// (each supported pair at its first two paper batches) the artifact must
/// be bitwise the one the traced capture gives.
#[test]
fn untraced_cache_fill_matches_the_traced_capture_at_every_sweep_point() {
    let gpu = GpuSpec::quadro_p4000();
    let engine = ServeEngine::new(gpu.clone());
    let mut points = 0;
    for model in ModelKind::ALL {
        for framework in Framework::all().into_iter().filter(|fw| fw.supports(model)) {
            for batch in paper_batches(model).into_iter().take(2) {
                let q = point_query(model, framework, batch);
                let label = q.canonical();
                let filled = engine.artifact(&q).unwrap_or_else(|e| panic!("{label}: {e}"));
                let reference =
                    artifact_from_capture(&q, &gpu).unwrap_or_else(|e| panic!("{label}: {e}"));
                assert!(!filled.backward.layers.is_empty(), "{label}");
                assert_eq!(artifact_bits(&filled), artifact_bits(&reference), "{label}");
                points += 1;
            }
        }
    }
    assert_eq!(points, 26, "the sweep covers 26 profile points");
    assert_eq!(engine.profile_computes(), 26);
}

/// A point that does not fit the device answers with the same error text
/// as before, from both the cache fill and the query, and is not cached.
#[test]
fn oversized_point_keeps_its_error_text() {
    let gpu = GpuSpec::quadro_p4000();
    let q = point_query(ModelKind::ResNet50, Framework::mxnet(), 512);
    let options = TraceOptions { functional: false, ..TraceOptions::default() };
    let cap = capture(q.model, q.framework, q.batch, &gpu, &options).expect("capture runs");
    assert!(cap.oom.is_some(), "ResNet-50 at batch 512 must not fit {}", gpu.name);
    let expected = "ResNet-50 at batch 512 does not fit Quadro P4000";
    assert_eq!(artifact_from_capture(&q, &gpu).err().as_deref(), Some(expected));
    let engine = ServeEngine::new(gpu);
    assert_eq!(engine.artifact(&q).err().as_deref(), Some(expected));
    assert_eq!(engine.query(&q).err().as_deref(), Some(expected));
    assert_eq!(engine.query(&q).err().as_deref(), Some(expected), "errors are not cached");
}
