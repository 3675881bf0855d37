//! Properties of the streaming digest paths.
//!
//! Trace digests are FNV-1a hashes streamed straight from
//! `TraceEvent::write_canonical` into an `Fnv1a` hasher, and a report's
//! digest comes from the same single render that produces its page. Both
//! must equal the plain definitions they replace: `fnv1a` over the
//! concatenated canonical text, and `fnv1a` over a second render with the
//! timestamp placeholder. The reference canonical form below is the
//! `format!`-based text the digests were first defined over.

use proptest::prelude::*;
use std::borrow::Cow;
use std::sync::OnceLock;
use tbd_frameworks::Framework;
use tbd_gpusim::GpuSpec;
use tbd_models::ModelKind;
use tbd_profiler::live::{render_report, Observation};
use tbd_profiler::trace::{
    events_digest, fnv1a, ArgValue, EventKind, Fnv1a, Trace, TraceEvent, TraceLayer,
};
use tbd_profiler::{
    diagnose_events, observe, DiagnosisReport, ReportContext, TraceOptions, DIGEST_TIMESTAMP,
};

/// The canonical line of `event`, built with `format!` piece by piece.
fn reference_canonical(event: &TraceEvent) -> String {
    let mut line = format!("{}|{}|{}", event.layer, event.kind, event.name);
    if event.deterministic {
        line += &format!(
            "|t:{:016x}+{:016x}@{}",
            event.start_us.to_bits(),
            event.dur_us.to_bits(),
            event.track
        );
    }
    for (key, value) in &event.args {
        let value = match value {
            ArgValue::Str(s) => format!("s:{s}"),
            ArgValue::F64(v) => format!("f:{:016x}", v.to_bits()),
            ArgValue::U64(v) => format!("u:{v}"),
            ArgValue::Bool(b) => format!("b:{b}"),
        };
        line += &format!("|{key}={value}");
    }
    line
}

/// Pulls decisions out of a generated word list, cycling when it runs out.
struct Words<'a> {
    words: &'a [u64],
    at: usize,
}

impl Words<'_> {
    fn next(&mut self) -> u64 {
        let word = self.words.get(self.at % self.words.len().max(1)).copied().unwrap_or(0);
        self.at += 1;
        word.rotate_left(self.at as u32 % 64)
    }

    fn pick<T: Copy>(&mut self, choices: &[T]) -> T {
        choices[(self.next() % choices.len() as u64) as usize]
    }

    fn text(&mut self) -> String {
        let len = self.next() % 12;
        (0..len)
            .map(|_| self.pick(&['|', '\n', '=', ':', 'é', '🚀', '\u{2028}', 'a', 'Z', ' ', '\0']))
            .collect()
    }

    fn f64(&mut self) -> f64 {
        let raw = self.next();
        self.pick(&[
            0.0,
            -0.0,
            f64::NAN,
            f64::from_bits(0x7FF8_0000_DEAD_BEEF), // quiet NaN with a payload
            f64::from_bits(0xFFF0_0000_0000_0001), // negative signalling NaN
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE / 4.0, // subnormal
            1.5,
            f64::from_bits(raw),
        ])
    }

    fn u64(&mut self) -> u64 {
        let raw = self.next();
        self.pick(&[0, 1, 9, 10, u64::MAX, raw])
    }

    fn arg(&mut self) -> ArgValue {
        match self.next() % 4 {
            0 => ArgValue::Str(Cow::Owned(self.text())),
            1 => ArgValue::F64(self.f64()),
            2 => ArgValue::U64(self.u64()),
            _ => ArgValue::Bool(self.next().is_multiple_of(2)),
        }
    }

    fn event(&mut self) -> TraceEvent {
        let kinds = [
            EventKind::NodeExec,
            EventKind::KernelExec,
            EventKind::Alloc,
            EventKind::AllocFail,
            EventKind::Communication,
            EventKind::Rejoin,
        ];
        let mut event = TraceEvent::span(
            self.text(),
            self.pick(&TraceLayer::ALL),
            self.pick(&kinds),
            self.f64(),
            self.f64(),
        )
        .on_track(self.pick(&[0, 1, 7, u32::MAX]));
        if self.next().is_multiple_of(3) {
            event = event.wall_clock();
        }
        for _ in 0..self.next() % 4 {
            let key = self.pick(&["bytes", "k|ey", "ключ", "a\nb", ""]);
            event.args.push((key, self.arg()));
        }
        event
    }
}

fn events_from(words: &[u64], count: usize) -> Vec<TraceEvent> {
    let mut words = Words { words, at: 0 };
    (0..count).map(|_| words.event()).collect()
}

/// The one observation the report properties render, built once.
struct Observed {
    obs: Observation,
    diagnosis: DiagnosisReport,
    trace_digest: String,
    reference_digest: String,
}

impl Observed {
    /// The context `render_report` renders, built from the same parts.
    fn context(&self) -> ReportContext<'_> {
        let trace = &self.obs.capture.trace;
        ReportContext {
            model: trace.model.name(),
            framework: trace.framework,
            batch: trace.batch,
            gpu: &self.obs.gpu,
            trace_digest: &self.trace_digest,
            events: &trace.events,
            registry: &self.obs.registry,
            diagnosis: &self.diagnosis,
            overhead: self.obs.overhead.clone(),
        }
    }
}

fn observed() -> &'static Observed {
    static OBSERVED: OnceLock<Observed> = OnceLock::new();
    OBSERVED.get_or_init(|| {
        let obs = observe(
            ModelKind::A3c,
            Framework::mxnet(),
            4,
            &GpuSpec::quadro_p4000(),
            &TraceOptions::default(),
            None,
        )
        .expect("A3C fits");
        let trace = &obs.capture.trace;
        let diagnosis =
            diagnose_events(trace.model.name(), trace.framework, trace.batch, &trace.events);
        let trace_digest = trace.digest_hex();
        let mut observed =
            Observed { obs, diagnosis, trace_digest, reference_digest: String::new() };
        let page = observed.context().render(DIGEST_TIMESTAMP);
        observed.reference_digest = format!("{:016x}", fnv1a(page.as_bytes()));
        observed
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `write_canonical` writes exactly the reference text, for every arg
    /// variant, special float and troublesome name.
    #[test]
    fn canonical_lines_match_the_reference(
        words in prop::collection::vec(0u64..u64::MAX, 1..64),
        count in 1usize..24,
    ) {
        for event in events_from(&words, count) {
            prop_assert_eq!(event.canonical(), reference_canonical(&event));
        }
    }

    /// `Trace::digest` (header, then `\n`-separated lines) equals FNV-1a
    /// over the concatenated reference text.
    #[test]
    fn trace_digest_streams_the_reference_text(
        words in prop::collection::vec(0u64..u64::MAX, 1..64),
        count in 0usize..40,
        batch in 0usize..1024,
    ) {
        let trace = Trace {
            model: ModelKind::ALL[batch % ModelKind::ALL.len()],
            framework: "TensorFlow",
            batch,
            events: events_from(&words, count),
        };
        let mut text = format!("trace|{}|{}|batch={}", trace.model.name(), trace.framework, batch);
        for event in &trace.events {
            text.push('\n');
            text.push_str(&reference_canonical(event));
        }
        prop_assert_eq!(trace.digest(), fnv1a(text.as_bytes()));
        prop_assert_eq!(trace.digest_hex(), format!("{:016x}", fnv1a(text.as_bytes())));
    }

    /// `events_digest` (`\n`-terminated lines, as the scale, chaos and
    /// elastic entries digest their drained streams) equals FNV-1a over
    /// the concatenated reference lines.
    #[test]
    fn event_stream_digest_streams_the_reference_lines(
        words in prop::collection::vec(0u64..u64::MAX, 1..64),
        count in 0usize..40,
    ) {
        let events = events_from(&words, count);
        let text: String = events.iter().map(|e| reference_canonical(e) + "\n").collect();
        prop_assert_eq!(events_digest(&events), fnv1a(text.as_bytes()));
    }

    /// Feeding a hasher in pieces gives the hash of the whole input.
    #[test]
    fn chunked_hashing_equals_one_shot(
        bytes in prop::collection::vec(0u8..255, 0..200),
        cuts in prop::collection::vec(0usize..200, 0..6),
    ) {
        let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c.min(bytes.len())).collect();
        cuts.sort_unstable();
        let mut h = Fnv1a::new();
        let mut from = 0;
        for cut in cuts.into_iter().chain([bytes.len()]) {
            h.update(&bytes[from..cut]);
            from = cut;
        }
        prop_assert_eq!(h.finish(), fnv1a(&bytes));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The single-render digest equals FNV-1a over a second render with
    /// the placeholder, whatever the displayed timestamp holds; the page
    /// is the plain render and the trace digest is the capture's.
    #[test]
    fn report_digest_from_one_render_matches_a_placeholder_render(
        picks in prop::collection::vec(0usize..10, 0..24),
    ) {
        let chars = ['<', '&', '"', '\'', '>', 'é', '🚀', '\u{2028}', 'a', ' '];
        let timestamp: String = picks.iter().map(|&i| chars[i]).collect();
        let observed = observed();
        let rendered = render_report(&observed.obs, &timestamp);
        prop_assert_eq!(&rendered.digest_hex, &observed.reference_digest);
        prop_assert_eq!(&rendered.trace_digest, &observed.trace_digest);
        let ctx = observed.context();
        prop_assert_eq!(&rendered.html, &ctx.render(&timestamp));
        prop_assert_eq!(&ctx.digest_hex(), &observed.reference_digest);
    }
}
