//! The per-layer probe run after a traced workload.
//!
//! Layers the traced workload already exercised report from its own spans;
//! every other per-layer metric is measured here, from spans around calls
//! into that layer on small seeded inputs, so each traced run reports the
//! full per-layer table.

use std::hint::black_box;
use std::time::Instant;

use marsit::core::{Marsit, MarsitConfig, SyncOutcome, SyncSchedule};
use marsit::models::{Mlp, Model, Workload};
use marsit::serve::JobSpec;
use marsit::simnet::wire::{Frame, FrameKind};
use marsit::simnet::Topology;
use marsit::telemetry::Telemetry;
use marsit::tensor::rng::FastRng;
use marsit::tensor::SignVec;
use marsit::trainsim::{TrainSnapshot, TrainerState};

use crate::stats::median;
use crate::sync::{self, D};
use crate::{median_secs, serve, train, Run};

/// Timed rounds per synchronizer shape in the probe.
const PROBE_ROUNDS: usize = 5;

pub fn run(run: &mut Run) {
    tensor(run);
    core(run);
    telemetry(run);
    let snapshot_json = training(run);
    wire(run, &snapshot_json);
    if !run.has("serve.submit_ms") {
        serve::probe(run);
    }
}

fn tensor(run: &mut Run) {
    let mut rng = FastRng::new(run.args.seed, 0x7E45);
    let grad: Vec<f32> = (0..D).map(|_| rng.next_f64() as f32 - 0.5).collect();
    let ns = |s: f64| s * 1e9 / D as f64;
    let pack_s = run.tracer.span("tensor.pack", 0, || {
        median_secs(9, || {
            black_box(SignVec::from_signs(black_box(&grad)));
        })
    });
    let transient = |p: f64, rng: &mut FastRng| {
        median_secs(9, || {
            black_box(SignVec::bernoulli_uniform(D, p, rng));
        })
    };
    let dyadic_s = run
        .tracer
        .span("tensor.transient", 0, || transient(0.25, &mut rng));
    let nondyadic_s = run
        .tracer
        .span("tensor.transient", 1, || transient(1.0 / 3.0, &mut rng));
    run.set("tensor.pack_ns_per_elem", ns(pack_s));
    run.set("tensor.transient_ns_per_elem", ns(dyadic_s));
    run.set("tensor.transient_nondyadic_ns_per_elem", ns(nondyadic_s));
    // Packing streams d f32 reads and d/8 bytes of packed-sign writes.
    let pack_gb_per_s = (D * 4 + D / 8) as f64 / pack_s / 1e9;
    let triad = run.get("host.triad_gb_per_s");
    run.set("tensor.pack_bw_fraction", pack_gb_per_s / triad);
}

/// Median milliseconds of `PROBE_ROUNDS` rounds after one warm-up round,
/// with their allocator calls, wire bytes and retransmits.
fn probe_rounds(
    run: &mut Run,
    name: &'static str,
    mut sync: Marsit,
    ups: &[Vec<f32>],
    topology: Topology,
) -> (f64, u64, usize, u64) {
    let mut out = SyncOutcome::default();
    sync.synchronize_into(ups, topology, &mut out);
    let (mut allocs, mut bytes, mut retransmits) = (0, 0, 0);
    for r in 0..PROBE_ROUNDS {
        let ((), n) = crate::count_allocs(|| {
            run.tracer.span(name, r as u64, || {
                sync.synchronize_into(ups, topology, &mut out)
            });
        });
        allocs += n;
        bytes += out.trace.total_bytes();
        retransmits += out.faults.retransmits;
    }
    (
        median(&run.tracer.durations_ms(name)),
        allocs,
        bytes,
        retransmits,
    )
}

fn core(run: &mut Run) {
    let seed = run.args.seed;
    let ups = sync::updates(seed, 8, D);
    if !run.has("core.sync_ring8_ms") {
        let names = [
            "core.sync_ring8_ms",
            "core.sync_torus_k_ms",
            "core.sync_ring7_ms",
            "core.sync_faulty_ms",
        ];
        let (mut allocs, mut bytes, mut retransmits) = (0, 0, 0);
        for (shape, name) in sync::shapes().iter().zip(names) {
            let m = shape.topology.workers();
            let s = sync::synchronizer(shape, seed, D);
            let (ms, a, b, r) = probe_rounds(run, shape.name, s, &ups[..m], shape.topology);
            run.set(name, ms);
            allocs += a;
            bytes += b;
            retransmits += r;
        }
        let rounds = (4 * PROBE_ROUNDS) as f64;
        run.set("core.allocs_per_round", allocs as f64 / rounds);
        run.set("collectives.wire_bytes_per_round", bytes as f64 / rounds);
        run.set(
            "collectives.retransmits_per_round",
            retransmits as f64 / rounds,
        );
    }
    let ring8 = Topology::ring(8);
    let fp = Marsit::new(MarsitConfig::new(SyncSchedule::every(1), 0.01, seed), 8, D);
    let (ms, ..) = probe_rounds(run, "sync.full_precision", fp, &ups, ring8);
    run.set("core.sync_full_precision_ms", ms);
    drop(ups);

    // The same ring at a word-aligned d (every segment a whole number of
    // words) is the control for the unaligned shapes.
    let aligned = 1 << 20;
    let ups = sync::updates(seed, 8, aligned);
    let s = Marsit::new(
        MarsitConfig::new(SyncSchedule::never(), 0.01, seed),
        8,
        aligned,
    );
    let (ms, ..) = probe_rounds(run, "sync.aligned_control", s, &ups, ring8);
    run.set("core.sync_aligned_control_ms", ms);

    // The training job's shape: the AlexNet-CIFAR10 proxy's real dimension.
    let d = Workload::AlexNetCifar10.proxy_spec().num_params();
    let ups = sync::updates(seed, 8, d);
    let s = Marsit::new(MarsitConfig::new(SyncSchedule::never(), 0.01, seed), 8, d);
    let (ms, ..) = probe_rounds(run, "sync.train_shape", s, &ups, ring8);
    run.set("core.sync_train_shape_ms", ms);
}

/// The serving mix's largest job shape: AlexNet-MNIST on ring(8) with
/// Marsit-5, 24 rounds. Served jobs record telemetry.
fn serve_job(seed: u64) -> JobSpec {
    let mut spec = JobSpec::new("probe", Workload::AlexNetMnist, Topology::ring(8));
    spec.rounds = 24;
    spec.k = Some(5);
    spec.seed = seed;
    spec
}

fn telemetry(run: &mut Run) {
    let spec = serve_job(run.args.seed);
    let run_job = |tel: Telemetry| {
        let mut state = TrainerState::new(&spec.to_train_config(tel.clone()));
        while !state.is_done() {
            state.step();
        }
        black_box(state.finish());
        tel.event_count()
    };
    let (mut on, mut off, mut events) = (Vec::new(), Vec::new(), 0);
    for rep in 0..5 {
        let t = Instant::now();
        events = run.tracer.span("telemetry.recording_job", rep, || {
            run_job(Telemetry::recording())
        });
        on.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        run.tracer.span("telemetry.disabled_job", rep, || {
            run_job(Telemetry::disabled())
        });
        off.push(t.elapsed().as_secs_f64());
    }
    run.set(
        "telemetry.events_per_round",
        events as f64 / spec.rounds as f64,
    );
    run.set(
        "telemetry.recording_overhead_ratio",
        median(&on) / median(&off),
    );
}

/// Models, datagen and trainsim; returns a serving job's snapshot JSON.
fn training(run: &mut Run) -> String {
    let seed = run.args.seed;
    let cfg = train::config(train::MARSIT, seed);
    let datasets_s = run.tracer.span("datagen.datasets", 0, || {
        median_secs(3, || drop(black_box(cfg.datasets())))
    });
    run.set("datagen.datasets_s", datasets_s);

    let (train_set, test_set) = cfg.datasets();
    let model = Mlp::new(cfg.workload.proxy_spec(), seed);
    let mut rng = FastRng::new(seed, 0xBA7C);
    let mut grad = vec![0.0f32; model.num_params()];
    let mut grad_ms = Vec::new();
    for i in 0..30 {
        let batch = train_set.sample_batch(cfg.batch_per_worker, &mut rng);
        let t = Instant::now();
        run.tracer.span("models.grad", i, || {
            black_box(model.loss_and_grad(&batch, &mut grad))
        });
        grad_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    let grad_ms = median(&grad_ms);
    run.set("models.grad_ms", grad_ms);
    let eval_s = run.tracer.span("models.eval", 0, || {
        median_secs(5, || {
            black_box(model.evaluate(&test_set));
        })
    });
    run.set("models.eval_ms", eval_s * 1e3);

    if !run.has("trainsim.step_ms") {
        let new_s = run.tracer.span("trainsim.new", 0, || {
            median_secs(3, || drop(TrainerState::new(&cfg)))
        });
        run.set("trainsim.new_s", new_s);
        let mut state = TrainerState::new(&cfg);
        // Skip round 0 (full precision) and stop before the first
        // evaluation round.
        state.step();
        let mut steps = Vec::new();
        for _ in 0..20 {
            let t = Instant::now();
            run.tracer
                .span("trainsim.step", state.round() as u64, || state.step());
            steps.push(t.elapsed().as_secs_f64() * 1e3);
        }
        run.set("trainsim.step_ms", median(&steps));
    }
    // What a step spends outside M workers' gradients and the sync call.
    // Workers compute in parallel threads, so this can be negative; it is
    // reported as measured.
    let m = cfg.topology.workers() as f64;
    let unattributed =
        run.get("trainsim.step_ms") - m * grad_ms - run.get("core.sync_train_shape_ms");
    run.set("trainsim.unattributed_ms", unattributed);

    // Snapshot and restore of a serving job half-way through its budget.
    let spec = serve_job(seed);
    let job_cfg = spec.to_train_config(Telemetry::disabled());
    let mut state = TrainerState::new(&job_cfg);
    for _ in 0..spec.rounds / 2 {
        state.step();
    }
    let mut json = String::new();
    let snap_s = run.tracer.span("trainsim.snapshot", 0, || {
        median_secs(5, || json = state.snapshot().to_json())
    });
    let restore_s = run.tracer.span("trainsim.restore", 0, || {
        median_secs(5, || {
            let snapshot = TrainSnapshot::from_json(&json).expect("own snapshot parses");
            black_box(TrainerState::restore(&job_cfg, &snapshot));
        })
    });
    run.set("trainsim.snapshot_ms", snap_s * 1e3);
    run.set("trainsim.restore_ms", restore_s * 1e3);
    run.set("trainsim.snapshot_bytes", json.len() as f64);
    json
}

/// `marsit-wire/1` frames carrying a snapshot, as the supervised runtime
/// ships them between processes.
fn wire(run: &mut Run, snapshot_json: &str) {
    // A hub-bound byte frame from shard 0, relabelled as the snapshot kind
    // shards push to their supervisor.
    let mut frame = Frame::telem(0, snapshot_json.as_bytes().to_vec());
    frame.kind = FrameKind::Snapshot;
    let mut line = String::new();
    let enc_s = run.tracer.span("simnet.encode", 0, || {
        median_secs(7, || line = frame.encode())
    });
    let mut decoded = None;
    let dec_s = run.tracer.span("simnet.decode", 0, || {
        median_secs(7, || decoded = Some(Frame::decode(&line)))
    });
    run.check(decoded.is_some_and(|d| d.as_ref() == Ok(&frame)), || {
        "marsit-wire/1 snapshot frame did not round-trip".into()
    });
    let mb = snapshot_json.len() as f64 / 1e6;
    run.set("simnet.wire_encode_mb_per_s", mb / enc_s);
    run.set("simnet.wire_decode_mb_per_s", mb / dec_s);
}
