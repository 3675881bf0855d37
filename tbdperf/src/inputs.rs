//! The generated inputs shared by `analyze` and `serve`: the Table-2
//! (model, framework) pairs and the capacity sweep over them.

use crate::stats::Rng;
use tbd_core::serve::ServeQuery;
use tbd_core::{named_clusters, paper_batches};
use tbd_frameworks::Framework;
use tbd_gpusim::GpuSpec;
use tbd_models::ModelKind;
use tbd_tensor::Precision;

/// Pinned digest of the ResNet-50 / TensorFlow / b4 report.
pub const REPORT_GOLDEN: &str = "tests/golden/report-baseline.digest";
/// Pinned response of [`ServeQuery::golden`].
pub const SERVE_GOLDEN: &str = "tests/golden/serve-baseline.json";

/// The simulated device every workload plans for.
pub fn gpu() -> GpuSpec {
    GpuSpec::quadro_p4000()
}

/// One (model, framework, batch) point.
#[derive(Debug, Clone, Copy)]
pub struct Point {
    pub kind: ModelKind,
    pub framework: Framework,
    pub batch: usize,
}

/// Every supported (model, framework) pair, in Table-2 order, with its
/// first `batches` paper batches.
fn points(batches: usize) -> Vec<Point> {
    let mut out = Vec::new();
    for kind in ModelKind::ALL {
        for framework in Framework::all().into_iter().filter(|fw| fw.supports(kind)) {
            for batch in paper_batches(kind).into_iter().take(batches) {
                out.push(Point {
                    kind,
                    framework,
                    batch,
                });
            }
        }
    }
    out
}

/// The pairs `analyze` reports on, each at its first paper batch.
pub fn report_points() -> Vec<Point> {
    points(1)
}

/// The capacity sweep: every pair at its first two paper batches, over
/// every named cluster, once healthy and once with a straggler seed drawn
/// from `seed`. Returned in a fixed canonical order; callers permute it.
pub fn sweep(seed: u64) -> Vec<ServeQuery> {
    let mut rng = Rng::new(seed ^ 0x5354_5241_4747_4C45);
    let clusters = named_clusters();
    let mut out = Vec::new();
    for p in points(2) {
        for (label, _) in &clusters {
            for straggler_seed in [None, Some(rng.next_u64() >> 32)] {
                out.push(ServeQuery {
                    model: p.kind,
                    framework: p.framework,
                    batch: p.batch,
                    fuse: true,
                    precision: Precision::F32,
                    cluster: label.clone(),
                    straggler_seed,
                });
            }
        }
    }
    out
}

/// The `GET /query` target naming every field of `q` explicitly.
pub fn query_path(q: &ServeQuery) -> String {
    let enc = |s: &str| s.replace(' ', "+");
    let mut path = format!(
        "/query?model={}&framework={}&batch={}&fuse={}&precision={}&cluster={}",
        enc(q.model.name()),
        enc(q.framework.name()),
        q.batch,
        u8::from(q.fuse),
        q.precision,
        enc(&q.cluster),
    );
    if let Some(seed) = q.straggler_seed {
        path.push_str(&format!("&stragglers={seed}"));
    }
    path
}

/// Reads a golden file relative to the checkout root.
pub fn read_golden(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))
}
