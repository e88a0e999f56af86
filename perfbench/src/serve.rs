//! `serve_storm`: open-loop, seeded burst-then-Poisson storms into a
//! journaled `JobServer`, each followed by a torn-journal recovery.

use std::collections::HashSet;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use marsit::models::Workload;
use marsit::serve::{
    encode_record, plan_from_replay, replay_bytes, verify_outcome, verify_recovered, JobOutcome,
    JobServer, JobSpec, JournalWriter, MigrationPolicy, RecoveredOutcome, ServeConfig,
};
use marsit::simnet::{FaultPlan, Topology};
use marsit::telemetry::Telemetry;
use marsit::tensor::rng::FastRng;
use marsit::trainsim::{TrainSnapshot, TrainerState};

use crate::stats::{mean_turnaround, median};
use crate::Run;

/// Jobs per storm: every (shape, round budget) pair three times.
const STORM_JOBS: usize = 36;
/// Jobs due at the storm's first instant.
const BURST: usize = 8;
/// The other jobs arrive as a Poisson process conditioned on their count:
/// sorted uniform instants over this window. The offered rate (over 180
/// jobs/s) is several times what two shards serve even on a fast host, so
/// a backlog always builds and the storm never sits near the critical
/// load, where turnaround swings with small changes in host speed.
const WINDOW_S: f64 = 0.15;
const ROUND_BUDGETS: [usize; 4] = [8, 16, 24, 32];
/// Shard threads, as the host has two cores.
const SHARDS: usize = 2;
/// Share of the journal's bytes that survive the simulated crash.
const TEAR_FRACTION: f64 = 0.6;
/// Storms every run serves; the deterministic metrics cover these only,
/// so a seed always reads the same values.
const MIN_STORMS: usize = 4;
/// Completion-poll period of the client thread.
const POLL: Duration = Duration::from_millis(1);

/// The serving configuration: two shards, load-balancing migration as the
/// CLI's `--migrate balance` sets it, every other setting at its default.
fn serve_config() -> ServeConfig {
    let mut cfg = ServeConfig::new(SHARDS);
    cfg.migration = MigrationPolicy::LoadBalance { skew: 2 };
    cfg
}

/// The storm's jobs, as `bench_service` mixes them: three shapes, Marsit-5
/// and never-full-precision jobs alternating, every fourth job
/// fault-injected. The multiset of (shape, budget) pairs is fixed so every
/// storm carries the same work; the seed picks its order and job seeds.
fn job_mix(seed: u64, storm: u64) -> Vec<JobSpec> {
    let mut rng = FastRng::new(seed, 0x5707 + storm);
    let mut pairs: Vec<(usize, usize)> = (0..STORM_JOBS)
        .map(|i| (i % 3, ROUND_BUDGETS[(i / 3) % 4]))
        .collect();
    for i in (1..pairs.len()).rev() {
        pairs.swap(i, (rng.next_u64() % (i as u64 + 1)) as usize);
    }
    pairs
        .into_iter()
        .enumerate()
        .map(|(i, (shape, rounds))| {
            let (workload, topology) = match shape {
                0 => (Workload::AlexNetMnist, Topology::ring(4)),
                1 => (Workload::ResNet20Cifar10, Topology::torus(2, 2)),
                _ => (Workload::AlexNetMnist, Topology::ring(8)),
            };
            let mut spec = JobSpec::new(format!("s{storm}j{i:02}"), workload, topology);
            spec.rounds = rounds;
            spec.seed = rng.next_u64() >> 12;
            spec.k = if i % 2 == 0 { Some(5) } else { None };
            if i % 4 == 3 {
                spec.fault_plan = FaultPlan::seeded(rng.next_u64() >> 12).with_link_drop(0.05);
            }
            spec
        })
        .collect()
}

/// Due instants (seconds after the storm starts), ascending.
fn arrivals(seed: u64, storm: u64) -> Vec<f64> {
    let mut rng = FastRng::new(seed, 0xA221 + storm);
    let mut due: Vec<f64> = (0..STORM_JOBS)
        .map(|i| {
            if i < BURST {
                0.0
            } else {
                rng.next_f64() * WINDOW_S
            }
        })
        .collect();
    due.sort_by(f64::total_cmp);
    due
}

/// What one storm and its recovery measured. The served outcomes are
/// verified and dropped before the next storm.
struct Cycle {
    jobs: usize,
    job_rounds: usize,
    /// First due instant to last completion, seconds.
    span_s: f64,
    mean_turnaround_s: f64,
    submit_lags_ms: Vec<f64>,
    shard_rounds_ms: Vec<f64>,
    migrations: u32,
    migration_ms: Vec<f64>,
    pool_hits: u64,
    pool_checkouts: u64,
    /// Sums over served jobs of simulated seconds, final accuracy and
    /// wire bits per element.
    sim_s: f64,
    accuracy: f64,
    wire_bits: f64,
    journal_bytes: usize,
    recovery_s: f64,
    replay_mb_per_s: f64,
    /// A journaled resume point (spec, snapshot JSON, telemetry floor).
    resume: Option<(JobSpec, String, u64)>,
    /// Journal records re-encoded: bytes and seconds.
    encode: (usize, f64),
}

fn storm_cycle(run: &mut Run, storm: u64, traced: bool) -> Cycle {
    let seed = run.args.seed;
    let specs = job_mix(seed, storm);
    let due = arrivals(seed, storm);
    let path = run.scratch.join(format!("storm{storm}.journal"));
    let writer = JournalWriter::create(&path).expect("create journal in the scratch directory");
    let mut handle = JobServer::start_journaled(serve_config(), Arc::new(Mutex::new(writer)));

    let t0 = Instant::now();
    let mut polls = vec![(0.0, 0usize)];
    let mut lags = Vec::with_capacity(specs.len());
    let poll = |handle: &mut marsit::serve::ServerHandle, polls: &mut Vec<(f64, usize)>| {
        let done = handle.completed();
        if done > polls.last().map_or(0, |p| p.1) {
            polls.push((t0.elapsed().as_secs_f64(), done));
        }
    };
    for (i, (spec, &due_s)) in specs.iter().zip(&due).enumerate() {
        loop {
            let now = t0.elapsed().as_secs_f64();
            if now >= due_s {
                lags.push((now - due_s) * 1e3);
                break;
            }
            poll(&mut handle, &mut polls);
            std::thread::sleep(Duration::from_secs_f64(due_s - now).min(POLL));
        }
        if traced {
            run.tracer
                .span("serve.submit", i as u64, || handle.submit(spec.clone()));
        } else {
            handle.submit(spec.clone());
        }
        poll(&mut handle, &mut polls);
    }
    while polls.last().map_or(0, |p| p.1) < specs.len() {
        std::thread::sleep(POLL);
        poll(&mut handle, &mut polls);
    }
    let span_s = polls.last().map_or(0.0, |p| p.0);
    let report = handle.finish();
    let mean_turnaround_s = mean_turnaround(&due, &polls).expect("every job completed");

    // Recovery from the journal torn at a fixed share of its bytes.
    let bytes = std::fs::read(&path).expect("read journal");
    let journal_bytes = bytes.len();
    let cut = (journal_bytes as f64 * TEAR_FRACTION) as usize;
    std::fs::write(&path, &bytes[..cut]).expect("tear journal");
    drop(bytes);
    let t = Instant::now();
    let torn = std::fs::read(&path).expect("read torn journal");
    let replay_t = Instant::now();
    let replay = replay_bytes(&torn);
    let replay_s = replay_t.elapsed().as_secs_f64();
    drop(torn);
    let plan = plan_from_replay(&replay);
    let writer = JournalWriter::resume(&path, &replay).expect("resume journal");
    let mut handle = JobServer::start_journaled(serve_config(), Arc::new(Mutex::new(writer)));
    let known: HashSet<String> = plan
        .completed
        .iter()
        .map(|o| o.spec.name.clone())
        .chain(plan.resumes.iter().map(|r| r.spec.name.clone()))
        .chain(plan.fresh.iter().map(|s| s.name.clone()))
        .collect();
    let resume = plan
        .resumes
        .first()
        .map(|r| (r.spec.clone(), r.snapshot_json.clone(), r.tel_seq));
    for r in plan.resumes {
        handle.submit_resume(r);
    }
    for spec in plan.fresh {
        handle.submit(spec);
    }
    // Jobs whose submission was lost with the tail: their clients submit
    // them again.
    for spec in specs.iter().filter(|s| !known.contains(&s.name)) {
        handle.submit(spec.clone());
    }
    let rerun = handle.finish().outcomes;
    let recovery_s = t.elapsed().as_secs_f64();

    let enc_t = Instant::now();
    let encoded: usize = replay
        .records
        .iter()
        .map(|(seq, rec)| encode_record(*seq, rec).map_or(0, |l| l.len()))
        .sum();
    let encode = (encoded, enc_t.elapsed().as_secs_f64());

    verify(run, &specs, &report.outcomes, &plan.completed, &rerun);
    let outcomes = &report.outcomes;
    let sum = |f: &dyn Fn(&JobOutcome) -> f64| outcomes.iter().map(f).sum::<f64>();
    let pool = report.pool_stats();
    Cycle {
        jobs: specs.len(),
        job_rounds: specs.iter().map(|s| s.rounds).sum(),
        span_s,
        mean_turnaround_s,
        submit_lags_ms: lags,
        shard_rounds_ms: report
            .round_latencies_sorted()
            .into_iter()
            .map(|ns| ns as f64 / 1e6)
            .collect(),
        migrations: outcomes.iter().map(|o| o.migrations).sum(),
        migration_ms: report
            .migration_samples()
            .iter()
            .map(|m| (m.snapshot_ns + m.restore_ns) as f64 / 1e6)
            .collect(),
        pool_hits: pool.hits,
        pool_checkouts: pool.hits + pool.misses,
        sim_s: sum(&|o| o.report.total_time.total()),
        accuracy: sum(&|o| o.report.final_eval.accuracy),
        wire_bits: sum(&|o| o.report.avg_wire_bits_per_element),
        journal_bytes,
        recovery_s,
        replay_mb_per_s: cut as f64 / 1e6 / replay_s,
        resume,
        encode,
    }
}

/// Runs `check` on every item over two threads and returns the errors.
fn verify_all<T: Sync>(
    items: &[T],
    check: impl Fn(&T) -> Result<(), String> + Sync,
) -> Vec<String> {
    let half = items.len().div_ceil(2);
    std::thread::scope(|s| {
        let workers: Vec<_> = items
            .chunks(half.max(1))
            .map(|chunk| {
                s.spawn(|| {
                    chunk
                        .iter()
                        .filter_map(|x| check(x).err())
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("verification thread panicked"))
            .collect()
    })
}

/// The correctness gate: every served job, every job recovered from the
/// torn journal, and every job re-run after it is byte-identical to a solo
/// run of its spec, and every job is accounted for.
fn verify(
    run: &mut Run,
    specs: &[JobSpec],
    served: &[JobOutcome],
    recovered: &[RecoveredOutcome],
    rerun: &[JobOutcome],
) {
    run.check(served.len() == specs.len(), || "the storm lost jobs".into());
    run.check(recovered.len() + rerun.len() == specs.len(), || {
        format!(
            "recovery accounted for {} of {} jobs",
            recovered.len() + rerun.len(),
            specs.len()
        )
    });
    let outcomes: Vec<&JobOutcome> = served.iter().chain(rerun).collect();
    run.attempt((outcomes.len() + recovered.len()) as u64);
    for e in verify_all(&outcomes, |o| verify_outcome(o)) {
        run.fail(e);
    }
    for e in verify_all(recovered, verify_recovered) {
        run.fail(e);
    }
}

/// Time to the first resumed round: parse a journaled snapshot, rebuild
/// the trainer, and step once.
fn resume_ms(spec: &JobSpec, json: &str, tel_seq: u64) -> f64 {
    let t = Instant::now();
    let tel = Telemetry::recording();
    tel.restore_seq_floor(tel_seq);
    let cfg = spec.to_train_config(tel);
    let snapshot = TrainSnapshot::from_json(json).expect("journaled snapshot parses");
    let mut state = TrainerState::restore(&cfg, &snapshot);
    state.step();
    t.elapsed().as_secs_f64() * 1e3
}

fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// Per-layer serving metrics from finished storms.
fn set_layer_metrics(run: &mut Run, cycles: &[Cycle]) {
    let submit = run.tracer.durations_ms("serve.submit");
    run.set("serve.submit_ms", median(&submit));
    let rounds_ms = sorted(
        cycles
            .iter()
            .flat_map(|c| c.shard_rounds_ms.iter().copied())
            .collect(),
    );
    run.set_percentile("serve.shard_round_p50_ms", &rounds_ms, 0.5);
    run.set_percentile("serve.shard_round_p90_ms", &rounds_ms, 0.9);
    let migrations: u32 = cycles.iter().map(|c| c.migrations).sum();
    run.set(
        "serve.migrations",
        f64::from(migrations) / cycles.len() as f64,
    );
    let migration_ms: Vec<f64> = cycles
        .iter()
        .flat_map(|c| c.migration_ms.iter().copied())
        .collect();
    run.set(
        "serve.migration_ms",
        if migration_ms.is_empty() {
            0.0
        } else {
            median(&migration_ms)
        },
    );
    let hits: u64 = cycles.iter().map(|c| c.pool_hits).sum();
    let checkouts: u64 = cycles.iter().map(|c| c.pool_checkouts).sum();
    run.set("serve.pool_hit_rate", hits as f64 / checkouts.max(1) as f64);
    let enc_bytes: usize = cycles.iter().map(|c| c.encode.0).sum();
    let enc_s: f64 = cycles.iter().map(|c| c.encode.1).sum();
    run.set(
        "serve.journal_encode_mb_per_s",
        enc_bytes as f64 / 1e6 / enc_s,
    );
    let jobs: usize = cycles.iter().map(|c| c.jobs).sum();
    let journal: usize = cycles.iter().map(|c| c.journal_bytes).sum();
    run.set("serve.journal_bytes_per_job", journal as f64 / jobs as f64);
    run.set(
        "serve.replay_mb_per_s",
        median(&cycles.iter().map(|c| c.replay_mb_per_s).collect::<Vec<_>>()),
    );
    let resumes: Vec<f64> = cycles
        .iter()
        .filter_map(|c| c.resume.as_ref())
        .map(|(spec, json, seq)| resume_ms(spec, json, *seq))
        .collect();
    if resumes.is_empty() {
        run.fail("no storm left a resumable job in its torn journal");
    } else {
        run.set("serve.resume_ms", median(&resumes));
    }
    let lags: Vec<f64> = cycles
        .iter()
        .flat_map(|c| c.submit_lags_ms.iter().copied())
        .collect();
    run.set(
        "serve.generator_lag_ms",
        lags.iter().sum::<f64>() / lags.len() as f64,
    );
}

/// Serving per-layer metrics for a traced run of another workload: one
/// storm and its recovery.
pub fn probe(run: &mut Run) {
    let cycle = storm_cycle(run, 0, true);
    set_layer_metrics(run, &[cycle]);
}

/// Wall seconds from server start to its first finished job (a two-round
/// warm-up job), then drain.
fn setup_once(run: &Run, rep: usize) -> f64 {
    let path = run.scratch.join(format!("setup{rep}.journal"));
    let t = Instant::now();
    let writer = JournalWriter::create(&path).expect("create journal in the scratch directory");
    let mut handle = JobServer::start_journaled(serve_config(), Arc::new(Mutex::new(writer)));
    let mut warm = JobSpec::new(
        format!("warmup{rep}"),
        Workload::AlexNetMnist,
        Topology::ring(4),
    );
    warm.rounds = 2;
    handle.submit(warm);
    while handle.completed() == 0 {
        std::thread::sleep(POLL);
    }
    let s = t.elapsed().as_secs_f64();
    drop(handle.finish());
    std::fs::remove_file(&path).ok();
    s
}

pub fn run(run: &mut Run) {
    let setup: Vec<f64> = (0..21).map(|rep| setup_once(run, rep)).collect();
    let start = Instant::now();
    let mut cycles = Vec::new();
    let mut storm_s = 0.0;
    let mut traced_spans = Vec::new();
    let mut untraced_spans = Vec::new();
    while storm_s < run.args.seconds || cycles.len() < MIN_STORMS {
        let traced = run.tracer.enabled() && cycles.len() % 2 == 1;
        let cycle = storm_cycle(run, cycles.len() as u64, traced);
        storm_s += cycle.span_s;
        (if traced {
            &mut traced_spans
        } else {
            &mut untraced_spans
        })
        .push(cycle.span_s);
        cycles.push(cycle);
    }
    eprintln!(
        "perfbench: {} storms served, recovered and verified in {:.1}s",
        cycles.len(),
        start.elapsed().as_secs_f64()
    );
    if run.tracer.enabled() {
        set_layer_metrics(run, &cycles);
        run.set(
            "bench.trace_overhead_ratio",
            median(&traced_spans) / median(&untraced_spans),
        );
        return;
    }

    // Rates and turnaround per storm, median over storms, so a burst of
    // host contention during one storm moves them less.
    let per_storm = |f: &dyn Fn(&Cycle) -> f64| median(&cycles.iter().map(f).collect::<Vec<_>>());
    let first = &cycles[..MIN_STORMS];
    let jobs: usize = first.iter().map(|c| c.jobs).sum();
    let per_job = |f: &dyn Fn(&Cycle) -> f64| first.iter().map(f).sum::<f64>() / jobs as f64;
    let rounds_ms = sorted(
        cycles
            .iter()
            .flat_map(|c| c.shard_rounds_ms.iter().copied())
            .collect(),
    );
    run.set("setup_s", median(&setup));
    run.set(
        "rounds_per_s",
        per_storm(&|c| c.job_rounds as f64 / c.span_s),
    );
    run.set_percentile("round_p50_ms", &rounds_ms, 0.5);
    run.set_percentile("round_p90_ms", &rounds_ms, 0.9);
    run.set("jobs_per_s", per_storm(&|c| c.jobs as f64 / c.span_s));
    run.set("turnaround_mean_s", per_storm(&|c| c.mean_turnaround_s));
    run.set("recovery_s", per_storm(&|c| c.recovery_s));
    run.set("sim_time_to_target_s", per_job(&|c| c.sim_s));
    run.set("accuracy", per_job(&|c| c.accuracy));
    run.set("wire_bits_per_elem", per_job(&|c| c.wire_bits));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn storms_are_seeded_and_carry_fixed_work() {
        assert_eq!(job_mix(7, 0), job_mix(7, 0));
        assert_eq!(arrivals(7, 1), arrivals(7, 1));
        assert_ne!(job_mix(7, 0), job_mix(8, 0));
        let work = |specs: Vec<JobSpec>| {
            let mut w: Vec<(usize, usize)> = specs
                .iter()
                .map(|s| (s.topology.workers(), s.rounds))
                .collect();
            w.sort_unstable();
            w
        };
        assert_eq!(work(job_mix(7, 0)), work(job_mix(8, 3)));
        let due = arrivals(9, 0);
        assert_eq!(due.iter().filter(|&&d| d == 0.0).count(), BURST);
        assert!(due.windows(2).all(|w| w[0] <= w[1]) && due[STORM_JOBS - 1] < WINDOW_S);
    }
}
