//! `train`: one operation is a round of one SGD step on the tiny
//! configuration of each of the eight models, through the real `tensor`
//! kernels and the `graph` executor at one intra-op thread.

use crate::stats::{closed_loop, median, Budget, Loop, Metric, Rng, Traced};
use std::sync::Arc;
use std::time::Instant;
use tbd_graph::trace::{value_hash, EventKind, TraceRecorder};
use tbd_graph::{ExecConfig, NodeId, Session};
use tbd_models::ModelKind;
use tbd_profiler::trace::{build_tiny, synthetic_feeds};
use tbd_tensor::Tensor;
use tbd_train::{Optimizer, Sgd, Trainer};

/// Parameter-initialisation seed of every session. Fixed: the workload
/// seed only reorders the steps of a round.
const SESSION_SEED: u64 = 7;
const LEARNING_RATE: f32 = 0.01;
/// Loss bits and [`params_hash`] of the updated parameters after one step
/// from the set-up parameters, per model. They pin forward, backward and
/// the optimizer: a step that skips or breaks any of them changes the pair.
const PINNED: [(&str, u32, u64); 8] = [
    ("ResNet-50", 0x3fd3_7e5f, 0x7b16_7cf5_64e5_45a8),
    ("Inception-v3", 0x4049_8c5a, 0x0d94_9747_1789_9824),
    ("Seq2Seq", 0x401f_3238, 0x3edc_f1ab_e630_75b1),
    ("Transformer", 0x401c_bde4, 0x4e53_d423_ac50_f293),
    ("Faster R-CNN", 0x407b_c11c, 0xc1e9_f344_6b7f_f4ed),
    ("Deep Speech 2", 0x3fd1_2f61, 0xa4c2_9095_47b7_b926),
    ("WGAN", 0x3e15_3f61, 0xd563_1d4c_a3c5_2f5c),
    ("A3C", 0x3f86_af45, 0x4a5c_4ee4_5b0c_90e6),
];
/// GEMM shape of the `tensor.gemm_gflops` probe: `[M, K] · [K, N]`.
const GEMM: (usize, usize, usize) = (128, 256, 128);

struct Model {
    kind: ModelKind,
    trainer: Trainer<Sgd>,
    loss: NodeId,
    feeds: Vec<(NodeId, Tensor)>,
    snapshot: Vec<(NodeId, Tensor)>,
    /// Parameters after the warm-up round's step; empty until set-up has
    /// run that round.
    trained: Vec<(NodeId, Tensor)>,
}

impl Model {
    /// Rewinds to the post-setup parameters and dropout stream, so every
    /// round does identical arithmetic. Copies into the existing parameter
    /// buffers rather than `load_snapshot`'s clones, so the harness adds no
    /// allocations of its own to the measured round.
    fn restore(&mut self) {
        let session = self.trainer.session_mut();
        for (id, saved) in &self.snapshot {
            if let Some(param) = session.param_mut(*id) {
                param.data_mut().copy_from_slice(saved.data());
            }
        }
        session.set_step_count(0);
    }

    /// Whether the parameters after this round's step are bitwise those
    /// after the warm-up round's step, so backward and the optimizer are
    /// checked as well as the forward pass that yields the loss.
    fn trained_matches(&self) -> bool {
        let session = self.trainer.session();
        self.trained.iter().all(|(id, want)| {
            session.param(*id).is_some_and(|got| {
                got.data().len() == want.data().len()
                    && got
                        .data()
                        .iter()
                        .zip(want.data())
                        .all(|(a, b)| a.to_bits() == b.to_bits())
            })
        })
    }
}

/// What one round produced: each model's loss bits in `ModelKind::ALL`
/// order, and whether every model's updated parameters matched.
#[derive(Debug)]
struct RoundOutput {
    losses: Vec<u32>,
    trained: bool,
}

pub struct Train {
    models: Vec<Model>,
    rng: Rng,
    /// Loss bits of each model from the warm-up round of the set-up.
    reference: Vec<u32>,
}

pub fn setup(seed: u64) -> Result<Train, String> {
    // Pin kernels to one thread process-wide as well as per session: a
    // `capture` earlier in the process leaves the cap at auto.
    tbd_tensor::par::set_max_threads(1);
    let exec = ExecConfig {
        intra_op_threads: 1,
        inter_op_parallel: false,
    };
    let mut models = Vec::with_capacity(ModelKind::ALL.len());
    for kind in ModelKind::ALL {
        let model = build_tiny(kind).map_err(|e| format!("{}: {e}", kind.name()))?;
        let feeds = synthetic_feeds(&model);
        let loss = model.loss();
        let session = Session::with_exec(model.graph, SESSION_SEED, exec);
        let snapshot = session.snapshot();
        let trainer = Trainer::new(session, loss, Sgd::new(LEARNING_RATE));
        models.push(Model {
            kind,
            trainer,
            loss,
            feeds,
            snapshot,
            trained: Vec::new(),
        });
    }
    let mut train = Train {
        models,
        rng: Rng::new(seed),
        reference: Vec::new(),
    };
    train.reference = train.round()?.losses;
    for (m, &loss) in train.models.iter_mut().zip(&train.reference) {
        m.trained = m.trainer.session().snapshot();
        let name = m.kind.name();
        if !f32::from_bits(loss).is_finite() {
            return Err(format!("{name} loss is not finite"));
        }
        let got = (loss, params_hash(&m.trained));
        let pinned = PINNED
            .iter()
            .find(|(model, ..)| *model == name)
            .map(|&(_, loss, params)| (loss, params));
        if pinned != Some(got) {
            return Err(format!(
                "{name}: warm-up step gave loss bits 0x{:08x} and parameter hash 0x{:016x}, \
                 pinned {pinned:x?}",
                got.0, got.1
            ));
        }
    }
    Ok(train)
}

impl Train {
    /// One untraced round.
    fn round(&mut self) -> Result<RoundOutput, String> {
        let mut out = RoundOutput {
            losses: vec![0; self.models.len()],
            trained: true,
        };
        for i in self.rng.permutation(self.models.len()) {
            let m = &mut self.models[i];
            m.restore();
            let loss = m
                .trainer
                .step(&m.feeds)
                .map_err(|e| format!("{}: {e}", m.kind.name()))?;
            out.losses[i] = loss.to_bits();
            out.trained &= m.trained_matches();
        }
        Ok(out)
    }

    fn check(&self, out: &RoundOutput) -> bool {
        out.trained && out.losses == self.reference
    }

    pub fn measure(&mut self, budget: Budget) -> Loop {
        closed_loop(budget, || self.round().is_ok_and(|out| self.check(&out)))
    }
}

/// Per-round layer times of one traced round, milliseconds.
#[derive(Default)]
struct TracedRound {
    total: f64,
    restore: f64,
    forward: f64,
    backward: f64,
    optimizer: f64,
    node: f64,
    step: Vec<f64>,
}

impl Train {
    /// The same round as [`Train::round`], driven through `Session::forward`,
    /// `Session::backward` and `Optimizer::step` separately with the
    /// executor's `NodeExec` spans read from an attached recorder.
    fn traced_round(
        &mut self,
        recorder: &Arc<TraceRecorder>,
    ) -> Result<(RoundOutput, TracedRound), String> {
        let mut out = RoundOutput {
            losses: vec![0; self.models.len()],
            trained: true,
        };
        let mut t = TracedRound {
            step: vec![0.0; self.models.len()],
            ..TracedRound::default()
        };
        let start = Instant::now();
        for i in self.rng.permutation(self.models.len()) {
            let m = &mut self.models[i];
            let name = m.kind.name();
            let t0 = Instant::now();
            m.restore();
            t.restore += ms(t0);
            let mut sgd = *m.trainer.optimizer_mut();
            let session = m.trainer.session_mut();
            session.set_tracer(Some(Arc::clone(recorder)));
            let t0 = Instant::now();
            let run = session
                .forward(&m.feeds)
                .map_err(|e| format!("{name}: {e}"))?;
            let forward = ms(t0);
            let loss = run
                .scalar(m.loss)
                .ok_or_else(|| format!("{name}: no loss value"))?;
            let t0 = Instant::now();
            let grads = session
                .backward(&run, m.loss, Tensor::scalar(1.0))
                .map_err(|e| format!("{name}: {e}"))?;
            let backward = ms(t0);
            let t0 = Instant::now();
            sgd.step(session, &grads);
            let optimizer = ms(t0);
            session.set_tracer(None);
            t.forward += forward;
            t.backward += backward;
            t.optimizer += optimizer;
            t.step[i] = forward + backward + optimizer;
            t.node += recorder
                .drain()
                .iter()
                .filter(|e| e.kind == EventKind::NodeExec)
                .map(|e| e.dur_us / 1e3)
                .sum::<f64>();
            out.losses[i] = loss.to_bits();
            out.trained &= m.trained_matches();
        }
        t.total = ms(start);
        Ok((out, t))
    }
}

/// FNV hash of every parameter's bits, in snapshot order.
fn params_hash(params: &[(NodeId, Tensor)]) -> u64 {
    let all: Vec<f32> = params
        .iter()
        .flat_map(|(_, t)| t.data().iter().copied())
        .collect();
    value_hash(&all)
}

fn ms(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

/// `tensor.gemm_gflops`: `tbd_tensor::ops::matmul` at one fixed shape and
/// one thread, median of several timed batches.
fn gemm_gflops() -> f64 {
    const REPS: usize = 20;
    let (m, k, n) = GEMM;
    tbd_tensor::par::set_max_threads(1);
    let a = Tensor::from_fn([m, k], |i| ((i * 7 % 23) as f32 - 11.0) * 0.01);
    let b = Tensor::from_fn([k, n], |i| ((i * 5 % 19) as f32 - 9.0) * 0.01);
    let rates: Vec<f64> = (0..9)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..REPS {
                std::hint::black_box(
                    tbd_tensor::ops::matmul(std::hint::black_box(&a), &b).expect("shapes agree"),
                );
            }
            (2 * m * k * n * REPS) as f64 / t0.elapsed().as_secs_f64() / 1e9
        })
        .collect();
    median(&rates)
}

/// Alternates untraced and traced rounds within `budget` and returns the
/// per-layer metrics with the tracing overhead.
pub fn traced(seed: u64, budget: Budget) -> Result<Traced, String> {
    let mut train = setup(seed)?;
    let recorder = TraceRecorder::shared();
    let mut plain = Vec::new();
    let mut rounds = Vec::new();
    let mut failed = 0;
    let start = Instant::now();
    while budget.more(start, plain.len()) {
        let t0 = Instant::now();
        let ok = train.round().is_ok_and(|out| train.check(&out));
        plain.push(ms(t0));
        match train.traced_round(&recorder) {
            Ok((out, t)) if train.check(&out) => rounds.push(t),
            _ => failed += 1,
        }
        failed += u64::from(!ok);
    }
    let col = |f: fn(&TracedRound) -> f64| median(&rounds.iter().map(f).collect::<Vec<_>>());
    let forward = col(|t| t.forward);
    let backward = col(|t| t.backward);
    let node = col(|t| t.node);
    let untraced = median(&plain);
    let traced_round = col(|t| t.total);
    let mut metrics = vec![
        Metric::new("graph.forward_ms", forward, "ms"),
        Metric::new("graph.backward_ms", backward, "ms"),
        Metric::new("train.optimizer_ms", col(|t| t.optimizer), "ms"),
        Metric::new("train.restore_ms", col(|t| t.restore), "ms"),
        Metric::new("graph.node_ms", node, "ms"),
        Metric::new("graph.dispatch_ms", forward + backward - node, "ms"),
        Metric::new(
            "graph.nodes",
            train
                .models
                .iter()
                .map(|m| m.trainer.session().graph().len() as f64)
                .sum(),
            "count",
        ),
        Metric::new("tensor.gemm_gflops", gemm_gflops(), "GFLOP/s"),
        Metric::new("train.round_ms", untraced, "ms"),
        Metric::new("train.traced_round_ms", traced_round, "ms"),
        Metric::new(
            "train.trace_overhead_pct",
            100.0 * (traced_round / untraced - 1.0),
            "%",
        ),
    ];
    for (i, m) in train.models.iter().enumerate() {
        let steps: Vec<f64> = rounds.iter().map(|t| t.step[i]).collect();
        metrics.push(Metric::new(
            format!("train.step_ms.{}", slug(m.kind)),
            median(&steps),
            "ms",
        ));
    }
    let attempted = (plain.len() * 2) as u64;
    Ok(Traced {
        metrics,
        attempted,
        failed,
    })
}

/// A metric-name form of a model name: `Deep Speech 2` → `deep-speech-2`.
fn slug(kind: ModelKind) -> String {
    kind.name().to_lowercase().replace(' ', "-")
}
