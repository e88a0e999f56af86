//! Collective-schedule throughput: ring vs torus, fp32 vs sign-sum vs
//! one-bit payloads — the in-process cost of the communication schedules.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

use marsit_collectives::ring::{
    ring_allreduce_majority, ring_allreduce_onebit, ring_allreduce_sum, SumWire,
};
use marsit_collectives::torus::torus_allreduce_sum;
use marsit_tensor::rng::FastRng;
use marsit_tensor::SignVec;

fn payloads(m: usize, d: usize) -> Vec<Vec<f32>> {
    let mut rng = FastRng::new(1, 0);
    (0..m)
        .map(|_| (0..d).map(|_| rng.next_f64() as f32 - 0.5).collect())
        .collect()
}

fn signs(m: usize, d: usize) -> Vec<SignVec> {
    let mut rng = FastRng::new(2, 0);
    (0..m)
        .map(|_| SignVec::bernoulli_uniform(d, 0.5, &mut rng))
        .collect()
}

fn bench_ring_sum(c: &mut Criterion) {
    let mut group = c.benchmark_group("ring_allreduce_sum");
    for &m in &[4usize, 8, 16] {
        let d = 1 << 16;
        group.throughput(Throughput::Elements((m * d) as u64));
        group.bench_with_input(BenchmarkId::from_parameter(m), &m, |b, &m| {
            let base = payloads(m, d);
            b.iter(|| {
                let mut data = base.clone();
                ring_allreduce_sum(black_box(&mut data))
            });
        });
    }
    group.finish();
}

fn bench_torus_sum(c: &mut Criterion) {
    let mut group = c.benchmark_group("torus_allreduce_sum");
    let d = 1 << 16;
    group.throughput(Throughput::Elements((16 * d) as u64));
    group.bench_function("4x4", |b| {
        let base = payloads(16, d);
        b.iter(|| {
            let mut data = base.clone();
            torus_allreduce_sum(black_box(&mut data), 4, 4)
        });
    });
    group.finish();
}

fn bench_sign_payloads(c: &mut Criterion) {
    let m = 8;
    let d = 1 << 16;
    let sv = signs(m, d);
    let mut group = c.benchmark_group("ring_sign_payloads");
    group.throughput(Throughput::Elements((m * d) as u64));
    group.bench_function("majority_elias", |b| {
        b.iter(|| ring_allreduce_majority(black_box(&sv), SumWire::Elias));
    });
    group.bench_function("majority_fixed", |b| {
        b.iter(|| ring_allreduce_majority(black_box(&sv), SumWire::FixedWidth));
    });
    group.bench_function("onebit_keep_received", |b| {
        b.iter(|| ring_allreduce_onebit(black_box(&sv), |r, l, _| l.copy_from(r)));
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(15);
    targets = bench_ring_sum, bench_torus_sum, bench_sign_payloads
}
criterion_main!(benches);
