//! `train_paper`: the AlexNet-CIFAR10 proxy trained on ring(8) twice with
//! one seed — Marsit-50 and full-precision PSGD — through `TrainerState`.

use std::time::Instant;

use marsit::models::Workload;
use marsit::serve::report_fingerprint;
use marsit::simnet::Topology;
use marsit::trainsim::{StrategyKind, TrainConfig, TrainReport, TrainSnapshot, TrainerState};

use crate::stats::{fnv1a, median};
use crate::Run;

/// Test accuracy whose simulated arrival time is the paper's metric. Every
/// seed reaches it by round 50 of 300, where the accuracy curve is steep,
/// so the crossing time varies least between seeds.
const TARGET_ACCURACY: f64 = 0.5;
/// Round at which the Marsit job is snapshotted for the recovery metric.
const SNAPSHOT_ROUND: usize = 150;
/// Seed of the correctness gate's short runs.
const GATE_SEED: u64 = 0x7EA1_5EED;
/// Rounds of each gate run.
const GATE_ROUNDS: usize = 30;
/// FNV-1a digests of `report_fingerprint` for the gate's Marsit-50 and
/// PSGD runs.
const GATE_DIGESTS: [u64; 2] = [0xf096_13e6_3c33_c397, 0x59fd_12aa_7a95_b1b8];

pub const MARSIT: StrategyKind = StrategyKind::Marsit { k: Some(50) };

/// The paper workload with every trainer default as shipped.
pub fn config(strategy: StrategyKind, seed: u64) -> TrainConfig {
    let mut cfg = TrainConfig::new(Workload::AlexNetCifar10, Topology::ring(8), strategy);
    cfg.seed = seed;
    cfg
}

fn gate(run: &mut Run) {
    for (strategy, want) in [MARSIT, StrategyKind::Psgd].into_iter().zip(GATE_DIGESTS) {
        let mut cfg = config(strategy, GATE_SEED);
        cfg.rounds = GATE_ROUNDS;
        let mut state = TrainerState::new(&cfg);
        while !state.is_done() {
            state.step();
        }
        let got = fnv1a(report_fingerprint(&state.finish()).into_bytes());
        run.check(got == want, || {
            format!(
                "train gate {strategy:?}: fingerprint digest {got:#018x}, recorded {want:#018x}"
            )
        });
    }
}

/// Simulated time at which the test accuracy, interpolated linearly between
/// evaluation rounds, first reaches `target`. The first evaluation at or
/// above it (`TrainReport::time_to_accuracy`) bounds it from above;
/// interpolating keeps the metric from jumping a whole evaluation period.
fn sim_time_to_target(report: &TrainReport, target: f64) -> Option<f64> {
    let mut before: Option<(f64, f64)> = None;
    for (record, t) in report.records.iter().zip(report.cumulative_time()) {
        let Some(eval) = record.eval else { continue };
        if eval.accuracy >= target {
            return Some(before.map_or(t, |(t0, a0)| {
                t0 + (t - t0) * (target - a0) / (eval.accuracy - a0)
            }));
        }
        before = Some((t, eval.accuracy));
    }
    None
}

/// One training job driven step by step: built and stepped once (its
/// set-up), then run to completion.
struct Job {
    state: TrainerState,
    start_s: f64,
}

/// A finished job.
struct Finished {
    report: TrainReport,
    /// Wall seconds from construction to the final report.
    wall_s: f64,
    /// Wall milliseconds of every step after the first, by round.
    steps_ms: Vec<f64>,
    snapshot_json: Option<String>,
}

impl Job {
    fn start(cfg: &TrainConfig) -> Self {
        let t = Instant::now();
        let mut state = TrainerState::new(cfg);
        state.step();
        Self {
            state,
            start_s: t.elapsed().as_secs_f64(),
        }
    }

    /// Runs every remaining step, snapshotting (untimed) before round
    /// `snapshot_at`. In a traced run odd rounds record a span.
    fn finish(self, run: &mut Run, snapshot_at: Option<usize>) -> Finished {
        let Self { mut state, start_s } = self;
        let mut wall_s = start_s;
        let mut steps_ms = Vec::new();
        let mut snapshot_json = None;
        while !state.is_done() {
            let round = state.round();
            if snapshot_at == Some(round) {
                snapshot_json = Some(state.snapshot().to_json());
            }
            let t = Instant::now();
            if run.tracer.enabled() && round % 2 == 1 {
                run.tracer
                    .span("trainsim.step", round as u64, || state.step());
            } else {
                state.step();
            }
            let s = t.elapsed().as_secs_f64();
            wall_s += s;
            steps_ms.push(s * 1e3);
        }
        let t = Instant::now();
        let report = state.finish();
        wall_s += t.elapsed().as_secs_f64();
        Finished {
            report,
            wall_s,
            steps_ms,
            snapshot_json,
        }
    }
}

pub fn run(run: &mut Run) {
    gate(run);
    let seed = run.args.seed;
    let cfg_m = config(MARSIT, seed);
    let cfg_p = config(StrategyKind::Psgd, seed);

    // Set-up: both jobs constructed and stepped once; median of five.
    let mut setup = Vec::new();
    let mut new_s = Vec::new();
    let mut jobs = None;
    for _ in 0..5 {
        drop(jobs.take());
        let t = Instant::now();
        let m = Job::start(&cfg_m);
        let p = Job::start(&cfg_p);
        setup.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        drop(TrainerState::new(&cfg_m));
        new_s.push(t.elapsed().as_secs_f64());
        jobs = Some((m, p));
    }
    let (marsit_job, psgd_job) = jobs.expect("set-up ran");

    let marsit = marsit_job.finish(run, Some(SNAPSHOT_ROUND));
    let psgd = psgd_job.finish(run, None);
    let steps = marsit.steps_ms.len() + psgd.steps_ms.len();
    let step_wall_s = marsit.steps_ms.iter().chain(&psgd.steps_ms).sum::<f64>() / 1e3;
    run.attempt(steps as u64);
    for (name, job) in [("Marsit-50", &marsit), ("PSGD", &psgd)] {
        run.check(
            !job.report.diverged && job.report.records.len() == cfg_m.rounds,
            || {
                format!(
                    "{name}: diverged or ran {} rounds",
                    job.report.records.len()
                )
            },
        );
    }

    // Recovery: resume the Marsit job from its mid-run snapshot and run one
    // round; the resumed round must equal the uninterrupted one.
    let json = marsit
        .snapshot_json
        .as_deref()
        .expect("snapshot round reached");
    let want = format!("{:?}", marsit.report.records[SNAPSHOT_ROUND]);
    let mut recovery = Vec::new();
    for _ in 0..9 {
        let t = Instant::now();
        let snapshot = TrainSnapshot::from_json(json);
        let resumed = snapshot.map(|s| {
            let mut state = TrainerState::restore(&cfg_m, &s);
            state.step();
            state
        });
        recovery.push(t.elapsed().as_secs_f64());
        let ok = resumed.is_ok_and(|s| format!("{:?}", s.records()[SNAPSHOT_ROUND]) == want);
        run.check(ok, || {
            "resumed Marsit round diverged from the uninterrupted run".into()
        });
    }
    let to_target = sim_time_to_target(&marsit.report, TARGET_ACCURACY);
    let first_eval = marsit.report.time_to_accuracy(TARGET_ACCURACY);
    run.check(
        to_target.zip(first_eval).is_some_and(|(t, e)| t <= e),
        || format!("Marsit-50 never reached accuracy {TARGET_ACCURACY}"),
    );

    if run.tracer.enabled() {
        // steps_ms[j] is round j + 1: odd rounds (even j) ran in a span.
        let every_other = |skip: usize| {
            median(
                &marsit
                    .steps_ms
                    .iter()
                    .skip(skip)
                    .step_by(2)
                    .copied()
                    .collect::<Vec<_>>(),
            )
        };
        run.set(
            "bench.trace_overhead_ratio",
            every_other(0) / every_other(1),
        );
        run.set("trainsim.new_s", median(&new_s));
        run.set("trainsim.step_ms", median(&marsit.steps_ms));
        return;
    }
    let mut marsit_ms = marsit.steps_ms.clone();
    marsit_ms.sort_by(f64::total_cmp);
    run.set("setup_s", median(&setup));
    run.set("rounds_per_s", steps as f64 / step_wall_s);
    run.set_percentile("round_p50_ms", &marsit_ms, 0.5);
    run.set_percentile("round_p90_ms", &marsit_ms, 0.9);
    run.set("jobs_per_s", 2.0 / (marsit.wall_s + psgd.wall_s));
    run.set("turnaround_mean_s", (marsit.wall_s + psgd.wall_s) / 2.0);
    run.set("recovery_s", median(&recovery));
    if let Some(t) = to_target {
        run.set("sim_time_to_target_s", t);
    }
    run.set("accuracy", marsit.report.final_eval.accuracy);
    run.set(
        "wire_bits_per_elem",
        marsit.report.avg_wire_bits_per_element,
    );
}
