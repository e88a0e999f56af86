//! Frozen one-bit schedule goldens shared by the integration tests.
//!
//! Each fixture under `tests/fixtures/schedules/` pins one conformance
//! [`Scenario`] completely: consensus words, `⊙` and RNG-draw counts, every
//! `Trace` step vector, the injector's `FaultStats` after the schedule's
//! fates are drawn, and the per-hop telemetry JSONL with the transport tag
//! stripped. Every backend must render a scenario to exactly the fixture's
//! bytes.

use std::path::PathBuf;

use marsit::collectives::compile_plan;
use marsit::core::transport::{RunArtifacts, Scenario, TopoKind};
use marsit::core::CombineKind;
use marsit::telemetry::{scoped, Telemetry};

const SEED: u64 = 0xD15C0;
const ROUND: u64 = 5;

fn scenario(topo: TopoKind, world: usize, d: usize, drop_p: Option<f64>) -> Scenario {
    Scenario {
        topo,
        world,
        d,
        seed: SEED,
        round: ROUND,
        drop_p,
        combine: CombineKind::Weighted,
    }
}

fn clean_and_dropped(shapes: &[(TopoKind, usize, usize)]) -> Vec<Scenario> {
    shapes
        .iter()
        .flat_map(|&(topo, world, d)| [None, Some(0.3)].map(|p| scenario(topo, world, d, p)))
        .collect()
}

/// The conformance matrix: {ring(8), torus(2,4), tree(6), segring(4, S=3)}
/// × {clean, drop 0.3} at d = 321.
#[must_use]
pub fn matrix() -> Vec<Scenario> {
    clean_and_dropped(&[
        (TopoKind::Ring, 8, 321),
        (TopoKind::Torus { rows: 2, cols: 4 }, 8, 321),
        (TopoKind::Tree, 6, 321),
        (TopoKind::SegRing { macro_segments: 3 }, 4, 321),
    ])
}

/// Edge shapes: odd ring and square torus, a non-power-of-two tree, a
/// segmented ring whose pipelines get fewer coordinates than ranks
/// (d < m·S, and d < S so one pipeline is empty), and d < m everywhere.
#[must_use]
pub fn edge_shapes() -> Vec<Scenario> {
    clean_and_dropped(&[
        (TopoKind::Ring, 7, 321),
        (TopoKind::Torus { rows: 3, cols: 3 }, 9, 321),
        (TopoKind::Tree, 5, 321),
        (TopoKind::SegRing { macro_segments: 3 }, 4, 10),
        (TopoKind::SegRing { macro_segments: 3 }, 4, 2),
        (TopoKind::Ring, 8, 5),
        (TopoKind::Torus { rows: 2, cols: 4 }, 8, 5),
        (TopoKind::Tree, 6, 3),
    ])
}

/// Fixture file of `sc`.
#[must_use]
pub fn fixture_path(sc: &Scenario) -> PathBuf {
    let topo = sc.topo.encode().replace(':', "");
    let faults = match sc.drop_p {
        None => "clean".to_string(),
        Some(p) => format!("drop{}", (p * 100.0).round()),
    };
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/schedules")
        .join(format!("{topo}_w{}_d{}_{faults}.golden", sc.world, sc.d))
}

/// Runs `f` under a fresh recording telemetry scope; returns its value plus
/// the scope's JSONL event log.
pub fn with_telemetry<R>(f: impl FnOnce() -> R) -> (R, String) {
    let tel = Telemetry::recording();
    let out = scoped(&tel, f);
    (out, tel.events_jsonl())
}

/// Strips the transport tag from telemetry JSONL so logs from different
/// backends become comparable. Tag values are pinned separately.
#[must_use]
pub fn normalize(jsonl: &str) -> String {
    let mut out = String::new();
    for line in jsonl.lines() {
        let mut line = line.to_string();
        for backend in ["simulator", "threaded", "process"] {
            for clock in ["simulated", "real"] {
                line = line.replace(
                    &format!(",\"backend\":\"{backend}\",\"clock\":\"{clock}\""),
                    "",
                );
            }
        }
        out.push_str(&line);
        out.push('\n');
    }
    out
}

/// Renders one backend's run of `sc` into the fixture format. `telemetry`
/// is the raw JSONL the run recorded.
#[must_use]
pub fn render(sc: &Scenario, run: &RunArtifacts, telemetry: &str) -> String {
    let mut inj = sc.injector();
    compile_plan(sc.topo.plan(), sc.world, sc.d, inj.as_mut()).expect("scenario compiles");
    let faults = inj.map(|mut i| i.take_stats()).unwrap_or_default();
    let words: Vec<String> = run
        .consensus_words()
        .iter()
        .map(|w| format!("{w:016x}"))
        .collect();
    let mut out = format!(
        "scenario {} world={} d={} seed={:#x} round={} drop={:?} combine={:?}\n",
        sc.topo.encode(),
        sc.world,
        sc.d,
        sc.seed,
        sc.round,
        sc.drop_p,
        sc.combine,
    );
    out += &format!("consensus {}\n", words.join(" "));
    out += &format!("combines {}\n", run.combines);
    out += &format!("rng_draws {}\n", run.rng_draws);
    out += &format!("faults {faults:?}\n");
    out += &format!("trace_steps {}\n", run.trace.num_steps());
    for step in run.trace.steps() {
        let bytes: Vec<String> = step.iter().map(usize::to_string).collect();
        out += &format!("  {}\n", bytes.join(" "));
    }
    let telemetry = normalize(telemetry);
    out += &format!("telemetry {}\n", telemetry.lines().count());
    out += &telemetry;
    out
}

/// Asserts `rendered` equals `sc`'s fixture byte for byte, reporting the
/// first differing line.
///
/// # Panics
///
/// Panics if the fixture is missing or differs.
pub fn assert_matches_fixture(label: &str, sc: &Scenario, rendered: &str) {
    let path = fixture_path(sc);
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{label}: cannot read {}: {e}", path.display()));
    if want == rendered {
        return;
    }
    let (line, a, b) = want
        .lines()
        .zip(rendered.lines())
        .enumerate()
        .find(|(_, (a, b))| a != b)
        .map_or((0, "<length differs>", ""), |(i, (a, b))| (i + 1, a, b));
    panic!(
        "{label}: diverged from {} at line {line}\n  want: {a}\n   got: {b}",
        path.display()
    );
}
