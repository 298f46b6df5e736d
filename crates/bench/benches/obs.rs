//! Criterion benches for the observability layer: the `ObsSink::Null`
//! fast path must be near-free, and a memory sink must stay cheap
//! enough to leave on during experiment debugging. The observer-effect
//! guard (a memory sink changes neither table) is a tier-1 test in
//! `tests/determinism.rs`.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use phishsim_core::experiment::{run_preliminary, PreliminaryConfig};
use phishsim_simnet::{ObsSink, SimTime};

fn emit_workload(sink: &ObsSink) {
    let mut at = SimTime::ZERO;
    for i in 0..64u64 {
        at += phishsim_simnet::SimDuration::from_millis(i);
        let span = sink.span_start(None, "bench.outer", "bench", at);
        sink.incr("bench.counter");
        sink.observe("bench.histogram", i);
        let inner = sink.span_start(Some(span), "bench.inner", "bench", at);
        sink.span_end(inner, at);
        sink.span_end(span, at);
    }
}

fn bench_obs(c: &mut Criterion) {
    let mut g = c.benchmark_group("obs");
    g.bench_function("null_sink_emit_64_spans", |b| {
        let sink = ObsSink::Null;
        b.iter(|| emit_workload(black_box(&sink)))
    });
    g.bench_function("memory_sink_emit_64_spans", |b| {
        b.iter(|| {
            let sink = ObsSink::memory();
            emit_workload(black_box(&sink));
            sink
        })
    });
    g.sample_size(20);
    g.bench_function("preliminary_fast_null_sink", |b| {
        b.iter(|| run_preliminary(black_box(&PreliminaryConfig::fast())))
    });
    g.bench_function("preliminary_fast_memory_sink", |b| {
        b.iter(|| {
            let mut config = PreliminaryConfig::fast();
            config.obs = ObsSink::memory();
            run_preliminary(black_box(&config))
        })
    });
    g.finish();
}

criterion_group!(benches, bench_obs);
criterion_main!(benches);
