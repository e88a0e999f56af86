//! The simulator backend reproduces the frozen one-bit schedule goldens.
//!
//! The fixtures were recorded from the per-topology collectives (ring,
//! 2D torus, binary tree, segmented ring) before those schedules moved
//! onto the compiled engine plan. Any drift in consensus words, combine or
//! RNG-draw counts, trace step vectors, injector statistics or per-hop
//! telemetry bytes fails here.

mod common;

use common::{assert_matches_fixture, edge_shapes, matrix, render, with_telemetry};

#[test]
fn simulator_matches_frozen_schedule_goldens() {
    for sc in matrix().into_iter().chain(edge_shapes()) {
        let label = format!(
            "{} w={} d={} drop={:?}",
            sc.topo.encode(),
            sc.world,
            sc.d,
            sc.drop_p
        );
        let (run, log) = with_telemetry(|| sc.run_simulator().expect("scenario runs"));
        assert_matches_fixture(&label, &sc, &render(&sc, &run, &log));
        // The fixtures strip the transport tag; pin it here (trees emit no
        // hop events, so there is nothing to tag there).
        if log.contains("\"ev\":\"hop\"") {
            assert!(log.contains("\"backend\":\"simulator\""), "{label}");
        }
    }
}
