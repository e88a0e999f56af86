//! Cross-backend transport conformance suite.
//!
//! The pinned contract: a [`Scenario`] run on the threaded in-process
//! backend or the multi-process TCP backend must reproduce the frozen
//! schedule goldens under `tests/fixtures/schedules/` **byte for byte** —
//! consensus words, `⊙`/RNG-draw counts, wire trace step vectors, injector
//! statistics and per-hop telemetry (up to the `backend`/`clock` tag naming
//! the transport that produced it). `tests/schedule_goldens.rs` holds the
//! simulator backend to the same bytes.
//!
//! The matrix covers all four multi-hop paradigms the paper names — ring,
//! 2D torus, binary tree, segmented ring — each clean and under seeded
//! link-drop faults; the threaded backend also runs the edge shapes.

mod common;

use common::{assert_matches_fixture, edge_shapes, matrix, render, with_telemetry};
use marsit::core::transport::{Scenario, TopoKind};
use marsit::core::CombineKind;

fn worker_exe() -> &'static str {
    env!("CARGO_BIN_EXE_transport_worker")
}

fn label(sc: &Scenario, backend: &str) -> String {
    format!(
        "{} w={} d={} drop={:?} {backend}",
        sc.topo.encode(),
        sc.world,
        sc.d,
        sc.drop_p
    )
}

#[test]
fn threaded_backend_conforms_across_matrix() {
    for sc in matrix().into_iter().chain(edge_shapes()) {
        let label = label(&sc, "threaded");
        let (threaded, log) = with_telemetry(|| sc.run_threaded().unwrap());
        assert_matches_fixture(&label, &sc, &render(&sc, &threaded, &log));
        // The tag itself must name the backend that produced the log
        // (trees emit no hop events, so there is nothing to tag there).
        if log.contains("\"ev\":\"hop\"") {
            assert!(log.contains("\"backend\":\"threaded\""), "{label}");
        }
    }
}

#[test]
fn process_backend_conforms_across_matrix() {
    for sc in matrix() {
        let label = label(&sc, "process");
        let (process, log) = with_telemetry(|| sc.run_process(worker_exe()).unwrap());
        assert_matches_fixture(&label, &sc, &render(&sc, &process, &log));
        if log.contains("\"ev\":\"hop\"") {
            assert!(log.contains("\"backend\":\"process\""), "{label}");
        }
    }
}

#[test]
fn unweighted_ablation_conforms_too() {
    let sc = Scenario {
        topo: TopoKind::Ring,
        world: 8,
        d: 200,
        seed: 7,
        round: 0,
        drop_p: Some(0.2),
        combine: CombineKind::UnweightedAblation,
    };
    let (reference, ref_log) = with_telemetry(|| sc.run_simulator().unwrap());
    let (threaded, thr_log) = with_telemetry(|| sc.run_threaded().unwrap());
    assert_eq!(
        render(&sc, &reference, &ref_log),
        render(&sc, &threaded, &thr_log),
        "unweighted ablation diverged across backends"
    );
}

#[test]
fn process_backend_repeats_are_deterministic() {
    let sc = Scenario {
        topo: TopoKind::Ring,
        world: 4,
        d: 130,
        seed: 99,
        round: 2,
        drop_p: Some(0.25),
        combine: CombineKind::Weighted,
    };
    let a = sc.run_process(worker_exe()).unwrap();
    let b = sc.run_process(worker_exe()).unwrap();
    assert_eq!(a.consensus_words(), b.consensus_words());
    assert_eq!(a.combines, b.combines);
    assert_eq!(a.rng_draws, b.rng_draws);
}
