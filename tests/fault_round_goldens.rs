//! Frozen per-round goldens for Marsit rounds under fault injection.
//!
//! The grid is {ring(8), torus(2,4)} × {link drop 0.3 with corruption
//! 0.05; worker 2 crashing at round 3 and rejoining at round 6} ×
//! {K = ∞, K = 4} × {simulator, threaded backend}, at the unaligned
//! d = 1037 over 10 rounds. Each fixture under
//! `tests/fixtures/fault_rounds/` pins, per round, FNV-1a digests of the
//! `global_update` and `compensated_mean` bit patterns, the trace step
//! vectors, the `FaultStats`, the `DegradedMode` and
//! `mean_compensation_norm_sq()`; then the final `snapshot()` and the
//! telemetry JSONL the whole run recorded (transport tag stripped). Both
//! backends must render a scenario to the same fixture bytes.
//!
//! The fixtures were recorded before fault rounds at full, unchanged
//! membership moved onto the clean round's fused prologue, so any drift in
//! an output bit, a counter or an event byte fails here.

use std::path::PathBuf;

use marsit::core::SyncOutcome;
use marsit::prelude::*;
use marsit::telemetry::scoped;

const M: usize = 8;
const D: usize = 1037;
const ROUNDS: usize = 10;
const SEED: u64 = 0xFA_0715;

/// 64-bit FNV-1a over a byte stream.
fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn f32_digest(v: &[f32]) -> u64 {
    fnv1a(v.iter().flat_map(|x| x.to_bits().to_le_bytes()))
}

/// Strips the transport tag from telemetry JSONL so logs from different
/// backends become comparable.
fn normalize(jsonl: &str) -> String {
    jsonl
        .replace(",\"backend\":\"threaded\",\"clock\":\"real\"", "")
        .replace(",\"backend\":\"simulator\",\"clock\":\"simulated\"", "")
}

/// Round `t`'s scaled local updates, one RNG stream per worker.
fn updates(t: usize) -> Vec<Vec<f32>> {
    (0..M)
        .map(|w| {
            let mut rng = FastRng::new(SEED ^ t as u64, w as u64);
            (0..D)
                .map(|_| 0.01 * (rng.next_f64() as f32 - 0.5))
                .collect()
        })
        .collect()
}

#[derive(Clone, Copy)]
enum Faults {
    /// Link drops and corruption at full membership.
    Lossy,
    /// Worker 2 crashes at round 3 and rejoins at round 6.
    CrashRejoin,
}

impl Faults {
    fn plan(self) -> FaultPlan {
        let plan = FaultPlan::seeded(SEED);
        match self {
            Self::Lossy => plan.with_link_drop(0.3).with_link_corruption(0.05),
            Self::CrashRejoin => plan.with_crash_event(2, 3).with_rejoin(2, 6),
        }
    }

    fn name(self) -> &'static str {
        match self {
            Self::Lossy => "drop30_corrupt5",
            Self::CrashRejoin => "crash3_rejoin6",
        }
    }
}

struct Case {
    topology: Topology,
    faults: Faults,
    k: Option<u32>,
}

impl Case {
    fn name(&self) -> String {
        let topo = match self.topology {
            Topology::Torus { rows, cols } => format!("torus{rows}x{cols}"),
            other => format!("ring{}", other.workers()),
        };
        let k = self.k.map_or("kinf".to_string(), |k| format!("k{k}"));
        format!("{topo}_{}_{k}", self.faults.name())
    }

    fn fixture(&self) -> PathBuf {
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("tests/fixtures/fault_rounds")
            .join(format!("{}.golden", self.name()))
    }

    /// Runs the case on `backend` and renders it into the fixture format.
    fn render(&self, backend: Backend) -> String {
        let schedule = self.k.map_or(SyncSchedule::never(), SyncSchedule::every);
        let cfg = MarsitConfig::new(schedule, 0.01, SEED)
            .with_fault_plan(self.faults.plan())
            .with_backend(backend);
        let mut marsit = Marsit::new(cfg, M, D);
        let mut out = SyncOutcome::default();
        let tel = Telemetry::recording();
        let mut text = scoped(&tel, || {
            let mut text = String::new();
            for t in 0..ROUNDS {
                marsit.synchronize_into(&updates(t), self.topology, &mut out);
                let steps = out.trace.steps();
                let trace = fnv1a(
                    steps
                        .iter()
                        .flat_map(|s| s.iter().chain([&usize::MAX]))
                        .flat_map(|b| (*b as u64).to_le_bytes()),
                );
                text += &format!(
                    "round {} fp={} global={:016x} mean={:016x} norm={:016x} degraded={:?}\n",
                    out.round,
                    out.full_precision,
                    f32_digest(&out.global_update),
                    f32_digest(&out.compensated_mean),
                    marsit.mean_compensation_norm_sq().to_bits(),
                    out.degraded,
                );
                text += &format!(
                    "  trace steps={} bytes={} digest={trace:016x}\n",
                    steps.len(),
                    out.trace.total_bytes()
                );
                text += &format!("  faults {:?}\n", out.faults);
            }
            text
        });
        let snap = marsit.snapshot();
        let comps = fnv1a(
            snap.compensations
                .iter()
                .flat_map(|c| c.iter().flat_map(|x| x.to_bits().to_le_bytes())),
        );
        text += &format!("snapshot round={} digest={comps:016x}\n", snap.round);
        let log = normalize(&tel.events_jsonl());
        text += &format!(
            "telemetry lines={} digest={:016x}\n",
            log.lines().count(),
            fnv1a(log.bytes())
        );
        text
    }
}

fn cases() -> Vec<Case> {
    let mut cases = Vec::new();
    for topology in [Topology::ring(M), Topology::torus(2, 4)] {
        for faults in [Faults::Lossy, Faults::CrashRejoin] {
            for k in [None, Some(4)] {
                cases.push(Case {
                    topology,
                    faults,
                    k,
                });
            }
        }
    }
    cases
}

#[test]
fn fault_rounds_match_frozen_goldens() {
    for case in cases() {
        let path = case.fixture();
        let want = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
        for backend in [Backend::Simulator, Backend::Threaded] {
            let got = case.render(backend);
            if got == want {
                continue;
            }
            let (line, a, b) = want
                .lines()
                .zip(got.lines())
                .enumerate()
                .find(|(_, (a, b))| a != b)
                .map_or((0, "<length differs>", ""), |(i, (a, b))| (i + 1, a, b));
            panic!(
                "{} on {backend:?}: diverged from {} at line {line}\n  want: {a}\n   got: {b}",
                case.name(),
                path.display()
            );
        }
    }
}
