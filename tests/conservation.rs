//! Wire-traffic conservation laws: every one-bit collective's `Trace` must
//! account for exactly the elements its schedule moves — no phantom bytes,
//! no missing transfers — across all four paradigms (ring, torus, tree,
//! segmented ring).
//!
//! One-bit payloads are packed, so a transfer of a `k`-element range costs
//! `max(1, ⌈k/8⌉)` bytes — between `k` and `k + 7` bits for `k ≥ 1`, and
//! one padding byte for an empty range (degenerate segmentations with
//! `D < M` produce them). Summing over a schedule that moves `E` elements
//! across `T` transfers therefore bounds the trace total:
//!
//! ```text
//! max(E, 8·T) ≤ 8 · total_bytes ≤ E + 8·T
//! ```
//!
//! The per-paradigm element counts `E` are closed forms of the schedule:
//! `2(M−1)·D` for ring / tree / segmented ring, and
//! `2(C−1)·R·D + 2(R−1)·D` for an `R×C` torus (the same formula
//! `trainsim::elements_per_round` prices wire width with).
//!
//! Traces derived from a compiled [`EnginePlan`] obey the same laws, and
//! under link drops every wire attempt is accounted: the trace total is
//! `Σ bytes × attempts` over the plan's transfers.

use marsit::collectives::ring::ring_allreduce_onebit;
use marsit::collectives::torus::torus_allreduce_onebit;
use marsit::collectives::{compile_plan, CombineCtx, EnginePlan, PlanTopology, Trace};
use marsit::prelude::*;
use proptest::prelude::*;

fn random_signs(m: usize, d: usize, seed: u64) -> Vec<SignVec> {
    let mut rng = FastRng::new(seed, 0);
    (0..m)
        .map(|_| SignVec::bernoulli_uniform(d, 0.5, &mut rng))
        .collect()
}

/// Elements moved and transfer count implied by a trace of one-bit packed
/// ranges: every step lists its per-transfer byte counts.
fn transfer_count(trace: &Trace) -> usize {
    trace.steps().iter().map(Vec::len).sum()
}

/// Compiles `topology` over `m` ranks, clean or with 30% link drops drawn
/// from `drop_seed`.
fn plan(topology: PlanTopology, m: usize, d: usize, drop_seed: Option<u64>) -> EnginePlan {
    let mut inj = drop_seed.map(|seed| FaultPlan::seeded(seed).with_link_drop(0.3).injector(0));
    compile_plan(topology, m, d, inj.as_mut()).expect("valid shape")
}

/// A plan's trace carries every wire attempt of every transfer — and, for a
/// clean plan, one trace step per engine step — and obeys the packing bound
/// over the elements those attempts move.
fn assert_plan_conservation(plan: &EnginePlan, label: &str) {
    let trace = plan.trace();
    let clean = plan.transfers.iter().all(|t| t.attempts == 1);
    if clean {
        assert_eq!(plan.num_steps, trace.num_steps(), "{label}: steps");
    }
    let attempts = |t: &marsit::collectives::PlannedTransfer| t.attempts as usize;
    let bytes: usize = plan.transfers.iter().map(|t| t.bytes() * attempts(t)).sum();
    assert_eq!(trace.total_bytes(), bytes, "{label}: bytes × attempts");
    let elements: usize = plan.transfers.iter().map(|t| t.len * attempts(t)).sum();
    assert_bit_conservation(&trace, elements, label);
}

fn assert_bit_conservation(trace: &Trace, elements_moved: usize, label: &str) {
    let bits = 8 * trace.total_bytes();
    let transfers = transfer_count(trace);
    assert!(
        bits >= elements_moved.max(8 * transfers),
        "{label}: {bits} wire bits cannot carry {elements_moved} elements \
         over {transfers} transfers"
    );
    assert!(
        bits <= elements_moved + 8 * transfers,
        "{label}: {bits} wire bits exceed packing bound for \
         {elements_moved} elements over {transfers} transfers"
    );
    assert!(
        trace.critical_path_bytes() <= trace.total_bytes(),
        "{label}: critical path exceeds total traffic"
    );
}

#[test]
fn ring_onebit_wire_bytes_match_closed_form() {
    // d divisible by 8·m: every segment packs exactly, so the bound is an
    // equality: total = 2(M−1) · D/8 bytes.
    for (m, d) in [(4usize, 64usize), (5, 240), (8, 1024)] {
        let signs = random_signs(m, d, 7);
        let (_, trace) = ring_allreduce_onebit(&signs, |r, l, _ctx: CombineCtx| l.and_assign(r));
        assert_eq!(trace.num_steps(), 2 * (m - 1), "ring({m}) steps");
        assert_eq!(
            trace.total_bytes(),
            2 * (m - 1) * d / 8,
            "ring({m}, d={d}) exact packed total"
        );
        assert_bit_conservation(&trace, 2 * (m - 1) * d, &format!("ring({m}, d={d})"));
    }
}

#[test]
fn torus_onebit_wire_bytes_within_bounds() {
    for (rows, cols, d) in [(2usize, 3usize, 48usize), (2, 4, 64), (3, 3, 90)] {
        let signs = random_signs(rows * cols, d, 11);
        let (_, trace) =
            torus_allreduce_onebit(&signs, rows, cols, |r, l, _ctx: CombineCtx| l.or_assign(r));
        let elements = 2 * (cols - 1) * rows * d + 2 * (rows - 1) * d;
        assert_bit_conservation(&trace, elements, &format!("torus({rows}x{cols}, d={d})"));
    }
}

#[test]
fn tree_onebit_wire_bytes_match_closed_form() {
    // Every non-root sends its full payload up exactly once and receives
    // the result exactly once: 2(M−1) transfers of ⌈D/8⌉ bytes.
    for (m, d) in [(2usize, 32usize), (5, 80), (8, 128)] {
        let trace = plan(PlanTopology::Tree, m, d, None).trace();
        assert_eq!(transfer_count(&trace), 2 * (m - 1), "tree({m}) transfers");
        assert_eq!(
            trace.total_bytes(),
            2 * (m - 1) * d.div_ceil(8),
            "tree({m}, d={d}) exact total"
        );
        assert_bit_conservation(&trace, 2 * (m - 1) * d, &format!("tree({m}, d={d})"));
    }
}

#[test]
fn segring_onebit_wire_bytes_within_bounds() {
    // S parallel macro-segment rings each move 2(M−1)·(segment length)
    // elements; the union moves 2(M−1)·D.
    for (m, s, d) in [(4usize, 2usize, 64usize), (6, 3, 90), (5, 4, 77)] {
        let topology = PlanTopology::SegRing { macro_segments: s };
        let trace = plan(topology, m, d, None).trace();
        assert_bit_conservation(
            &trace,
            2 * (m - 1) * d,
            &format!("segring({m}, S={s}, d={d})"),
        );
    }
}

proptest! {
    /// The packing bound and the critical-path inequality hold for *every*
    /// paradigm at arbitrary worker counts and payload sizes, including
    /// sizes that do not divide evenly.
    #[test]
    fn conservation_holds_for_arbitrary_shapes(
        m in 2usize..10,
        d in 1usize..400,
        seed in any::<u64>(),
    ) {
        let signs = random_signs(m, d, seed);

        let (_, ring) = ring_allreduce_onebit(&signs, |r, l, _ctx: CombineCtx| l.and_assign(r));
        assert_bit_conservation(&ring, 2 * (m - 1) * d, "ring");

        let tree = plan(PlanTopology::Tree, m, d, None).trace();
        assert_bit_conservation(&tree, 2 * (m - 1) * d, "tree");

        let macro_segments = 1 + m % 3;
        let seg = plan(PlanTopology::SegRing { macro_segments }, m, d, None).trace();
        assert_bit_conservation(&seg, 2 * (m - 1) * d, "segring");

        // Plan-built traces, clean and under drops, at this d and at one
        // below the worker count.
        let topologies = [PlanTopology::Ring, PlanTopology::Tree, PlanTopology::SegRing { macro_segments }];
        for d in [d, 1 + d % (m - 1)] {
            for topology in topologies {
                for drop_seed in [None, Some(seed)] {
                    let label = format!("{topology:?} m={m} d={d} drops={drop_seed:?}");
                    assert_plan_conservation(&plan(topology, m, d, drop_seed), &label);
                }
            }
        }
    }

    /// Torus shapes, separately (they need a factored worker count).
    #[test]
    fn torus_conservation_holds_for_arbitrary_shapes(
        rows in 2usize..5,
        cols in 2usize..5,
        d in 1usize..300,
        seed in any::<u64>(),
    ) {
        let signs = random_signs(rows * cols, d, seed);
        let (_, trace) =
            torus_allreduce_onebit(&signs, rows, cols, |r, l, _ctx: CombineCtx| l.or_assign(r));
        let elements = 2 * (cols - 1) * rows * d + 2 * (rows - 1) * d;
        assert_bit_conservation(&trace, elements, "torus");

        let topology = PlanTopology::Torus { rows, cols };
        let clean = plan(topology, rows * cols, d, None);
        assert_eq!(clean.trace(), trace, "torus({rows}x{cols}) plan trace");
        for drop_seed in [None, Some(seed)] {
            let label = format!("{topology:?} d={d} drops={drop_seed:?}");
            assert_plan_conservation(&plan(topology, rows * cols, d, drop_seed), &label);
        }
    }
}
