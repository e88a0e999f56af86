//! `sync_rounds`: a closed loop of `Marsit::synchronize_into` at an
//! unaligned, beyond-L2 model dimension, rotating through four shapes.

use std::time::Instant;

use marsit::core::{Marsit, MarsitConfig, SyncOutcome, SyncSchedule};
use marsit::simnet::{FaultPlan, RateProfile, Topology};
use marsit::tensor::rng::FastRng;
use marsit::trainsim::elements_per_round;

use crate::stats::{fnv1a, median};
use crate::Run;

/// Model dimension: 125,000-element ring segments are not word-aligned,
/// and eight workers' updates (32 MB) are far beyond L2.
pub const D: usize = 1_000_000;
/// Global step size of every synchronizer.
const GLOBAL_LR: f32 = 0.01;
/// Per-transfer drop probability of the faulty shape.
const DROP: f64 = 0.01;
/// Full-precision period of the torus shape (Marsit-50).
const K: u32 = 50;
/// Fewest timed rounds per run (30 rotations), so the p90 has ten samples
/// beyond it.
const MIN_ROUNDS: usize = 120;
/// Seed of the correctness gate's fixed inputs.
const GATE_SEED: u64 = 0x6A7E_5EED;
/// FNV-1a digests of each shape's first two rounds on the gate inputs, in
/// `shapes()` order: the consensus words (`global_update` bit patterns),
/// the bytes on the wire and the retransmits of every round.
const GATE_DIGESTS: [u64; 4] = [
    0x8673_0cbf_8fb0_f49a,
    0x98e9_1abd_fede_6349,
    0xe150_243f_b0ca_68c4,
    0x8a9d_a5e5_cd72_f3dc,
];

pub struct Shape {
    pub name: &'static str,
    pub topology: Topology,
    pub k: Option<u32>,
    pub faulty: bool,
}

pub fn shapes() -> [Shape; 4] {
    [
        Shape {
            name: "ring8",
            topology: Topology::ring(8),
            k: None,
            faulty: false,
        },
        Shape {
            name: "torus_k",
            topology: Topology::torus(2, 4),
            k: Some(K),
            faulty: false,
        },
        // The ring an elastic crash of one worker leaves behind.
        Shape {
            name: "ring7",
            topology: Topology::ring(7),
            k: None,
            faulty: false,
        },
        Shape {
            name: "faulty",
            topology: Topology::ring(8),
            k: None,
            faulty: true,
        },
    ]
}

/// Eight workers' scaled local updates, uniform in ±0.005.
pub fn updates(seed: u64, m: usize, d: usize) -> Vec<Vec<f32>> {
    let mut rng = FastRng::new(seed, 0);
    (0..m)
        .map(|_| {
            (0..d)
                .map(|_| 0.01 * (rng.next_f64() as f32 - 0.5))
                .collect()
        })
        .collect()
}

pub fn synchronizer(shape: &Shape, seed: u64, d: usize) -> Marsit {
    let schedule = shape.k.map_or(SyncSchedule::never(), SyncSchedule::every);
    let mut cfg = MarsitConfig::new(schedule, GLOBAL_LR, seed);
    if shape.faulty {
        cfg = cfg.with_fault_plan(FaultPlan::seeded(seed ^ 0xFA17).with_link_drop(DROP));
    }
    Marsit::new(cfg, shape.topology.workers(), d)
}

/// Digest of a round's consensus: the bit patterns of `global_update`.
fn digest(out: &SyncOutcome) -> u64 {
    fnv1a(
        out.global_update
            .iter()
            .flat_map(|g| g.to_bits().to_le_bytes()),
    )
}

/// Share of coordinates whose one-bit consensus sign matches the sign of
/// the exact compensated mean it estimates.
fn matching_rate(out: &SyncOutcome) -> f64 {
    let agree = out
        .global_update
        .iter()
        .zip(&out.compensated_mean)
        .filter(|(g, c)| (**g >= 0.0) == (**c >= 0.0))
        .count();
    agree as f64 / out.global_update.len() as f64
}

/// Whether a one-bit round's consensus is a pure ±η_s sign vector.
fn is_sign_consensus(out: &SyncOutcome) -> bool {
    out.full_precision || out.global_update.iter().all(|g| g.abs() == GLOBAL_LR)
}

/// The gate: each shape's first two rounds on fixed inputs must reproduce
/// the recorded digests bit for bit.
fn gate(run: &mut Run) {
    let ups = updates(GATE_SEED, 8, D);
    for (shape, want) in shapes().iter().zip(GATE_DIGESTS) {
        let m = shape.topology.workers();
        let mut sync = synchronizer(shape, GATE_SEED, D);
        let mut out = SyncOutcome::default();
        let mut h = Vec::new();
        for _ in 0..2 {
            sync.synchronize_into(&ups[..m], shape.topology, &mut out);
            h.extend(digest(&out).to_le_bytes());
            h.extend(out.trace.total_bytes().to_le_bytes());
            h.extend(out.faults.retransmits.to_le_bytes());
        }
        let got = fnv1a(h);
        run.check(got == want, || {
            format!(
                "sync gate {}: digest {got:#018x}, recorded {want:#018x}",
                shape.name
            )
        });
    }
}

pub fn run(run: &mut Run) {
    gate(run);
    let seed = run.args.seed;
    let ups = updates(seed, 8, D);
    let shapes = shapes();
    let link = RateProfile::public_cloud().link;

    // Set-up: four synchronizers built and driven through their first,
    // untimed round; median of five.
    let mut syncs = Vec::new();
    let mut outs = Vec::new();
    let mut setup = Vec::new();
    for _ in 0..5 {
        syncs.clear();
        outs.clear();
        let t = Instant::now();
        for shape in &shapes {
            let mut sync = synchronizer(shape, seed, D);
            let mut out = SyncOutcome::default();
            sync.synchronize_into(&ups[..shape.topology.workers()], shape.topology, &mut out);
            syncs.push(sync);
            outs.push(out);
        }
        setup.push(t.elapsed().as_secs_f64());
    }
    let first_round_matching: Vec<f64> = outs
        .iter()
        .filter(|o| !o.full_precision)
        .map(matching_rate)
        .collect();

    // The timed closed loop. In a traced run every other rotation records
    // spans, so traced and untraced rotations can be compared.
    let mut latencies_ms = Vec::new();
    let (mut bytes, mut elems, mut retransmits, mut sim_s) = (0usize, 0usize, 0u64, 0.0f64);
    let (mut traced_rot, mut untraced_rot) = (Vec::new(), Vec::new());
    let mut allocs = 0u64;
    let mut rotations = 0u64;
    let loop_start = Instant::now();
    while loop_start.elapsed().as_secs_f64() < run.args.seconds || latencies_ms.len() < MIN_ROUNDS {
        let traced = run.tracer.enabled() && rotations % 2 == 1;
        let rot_start = Instant::now();
        let rot_span = traced.then(|| run.tracer.begin("sync.rotation", rotations));
        for (i, shape) in shapes.iter().enumerate() {
            let m = shape.topology.workers();
            let (sync, out) = (&mut syncs[i], &mut outs[i]);
            let t = Instant::now();
            let mut call = || sync.synchronize_into(&ups[..m], shape.topology, out);
            if traced {
                let ((), n) = crate::count_allocs(|| run.tracer.span(shape.name, rotations, call));
                allocs += n;
            } else {
                call();
            }
            latencies_ms.push(t.elapsed().as_secs_f64() * 1e3);
            // The deterministic metrics cover the first MIN_ROUNDS rounds
            // only, so a seed always reads the same values.
            if latencies_ms.len() <= MIN_ROUNDS {
                bytes += out.trace.total_bytes();
                elems += elements_per_round(shape.topology, D);
                retransmits += out.faults.retransmits;
                sim_s += out.trace.time(link);
            }
        }
        if let Some(open) = rot_span {
            run.tracer.end(open);
        }
        let rot_s = rot_start.elapsed().as_secs_f64();
        (if traced {
            &mut traced_rot
        } else {
            &mut untraced_rot
        })
        .push(rot_s);
        rotations += 1;
    }
    run.attempt(latencies_ms.len() as u64);

    // Correctness of the timed rounds' last outputs.
    for ((shape, out), sync) in shapes.iter().zip(&outs).zip(&syncs) {
        run.check(
            is_sign_consensus(out) && out.round + 1 == sync.round() && out.global_update.len() == D,
            || format!("{}: last round is not a ±η_s sign consensus", shape.name),
        );
    }

    // Recovery: restore the ring(7) synchronizer from a snapshot into a
    // fresh instance and run its first round; it must match the round the
    // original instance runs next.
    let r7 = 2;
    let snapshot = syncs[r7].snapshot();
    let m7 = shapes[r7].topology.workers();
    let mut reference = SyncOutcome::default();
    syncs[r7].synchronize_into(&ups[..m7], shapes[r7].topology, &mut reference);
    let want = digest(&reference);
    let mut recovery = Vec::new();
    for _ in 0..9 {
        let t = Instant::now();
        let mut fresh = synchronizer(&shapes[r7], seed, D);
        fresh.restore(&snapshot);
        let mut out = SyncOutcome::default();
        fresh.synchronize_into(&ups[..m7], shapes[r7].topology, &mut out);
        recovery.push(t.elapsed().as_secs_f64());
        let got = digest(&out);
        run.check(got == want, || {
            "ring7 restore diverged from the uninterrupted run".into()
        });
    }
    drop(syncs);

    if run.tracer.enabled() {
        for (i, name) in [
            "core.sync_ring8_ms",
            "core.sync_torus_k_ms",
            "core.sync_ring7_ms",
            "core.sync_faulty_ms",
        ]
        .into_iter()
        .enumerate()
        {
            run.set(name, median(&run.tracer.durations_ms(shapes[i].name)));
        }
        let traced_rounds = (traced_rot.len() * shapes.len()) as f64;
        run.set("core.allocs_per_round", allocs as f64 / traced_rounds);
        run.set(
            "collectives.wire_bytes_per_round",
            bytes as f64 / MIN_ROUNDS as f64,
        );
        run.set(
            "collectives.retransmits_per_round",
            retransmits as f64 / MIN_ROUNDS as f64,
        );
        run.set(
            "bench.trace_overhead_ratio",
            median(&traced_rot) / median(&untraced_rot),
        );
        return;
    }
    latencies_ms.sort_by(f64::total_cmp);
    run.set("setup_s", median(&setup));
    // Throughput per rotation (one round of every shape), median over
    // rotations, so a burst of host contention moves it less.
    let rotation_s = median(&untraced_rot);
    run.set("rounds_per_s", shapes.len() as f64 / rotation_s);
    run.set_percentile("round_p50_ms", &latencies_ms, 0.5);
    run.set_percentile("round_p90_ms", &latencies_ms, 0.9);
    run.set("jobs_per_s", 1.0 / rotation_s);
    run.set(
        "turnaround_mean_s",
        untraced_rot.iter().sum::<f64>() / untraced_rot.len() as f64,
    );
    run.set("recovery_s", median(&recovery));
    run.set(
        "sim_time_to_target_s",
        sim_s * shapes.len() as f64 / MIN_ROUNDS as f64,
    );
    run.set(
        "accuracy",
        first_round_matching.iter().sum::<f64>() / first_round_matching.len() as f64,
    );
    run.set("wire_bits_per_elem", bytes as f64 * 8.0 / elems as f64);
}
