//! 2D-torus all-reduce (TAR) schedules.
//!
//! The hierarchical collective of Mikami et al. that the paper evaluates
//! alongside RAR: (1) reduce-scatter along each *row* ring, (2) all-reduce
//! along each *column* ring on the chunk each worker now owns, (3)
//! all-gather along the rows. With `M = rows × cols` workers the critical
//! path shrinks from `2(M−1)` hops to `2(cols−1) + 2(rows−1)`, which is why
//! every method communicates faster under TAR in Figure 5.
//!
//! Workers are indexed row-major: `w = row·cols + col`.

use marsit_compress::SignSumVec;
use marsit_simnet::FaultInjector;
use marsit_telemetry::{Hop, HopRecorder};
use marsit_tensor::SignVec;

use crate::reconfigure::SyncError;
use crate::ring::{
    emit_attempts, ring_allreduce_onebit_counted_faulty, ring_allreduce_onebit_weighted_hooked,
    ring_allreduce_signsum_parts, segment_ranges, split_pair, CombineCtx, PlannedHop, SumWire,
};
use crate::trace::{FaultyStep, Trace};

/// Worker ids of column `c` in row-major order — the relabeling map handed
/// to [`HopRecorder::column_frame`] so a vertical sub-ring's local worker
/// `row` reports as global worker `row·cols + c`.
fn column_workers(rows: usize, cols: usize, c: usize) -> Vec<usize> {
    (0..rows).map(|row| row * cols + c).collect()
}

/// Validates torus shape against the payload count.
fn check_shape<T>(items: &[T], rows: usize, cols: usize) {
    assert!(rows >= 2 && cols >= 2, "torus needs both dimensions >= 2");
    assert_eq!(
        items.len(),
        rows * cols,
        "worker count must equal rows*cols"
    );
}

/// Merges the per-step transfers of `sub` (running on disjoint links in
/// parallel with traces from other rings) into `main`, aligning step indices
/// starting at `offset`.
fn merge_parallel(main: &mut Vec<Vec<usize>>, offset: usize, sub: &Trace) {
    for (i, step) in sub.steps().iter().enumerate() {
        while main.len() <= offset + i {
            main.push(Vec::new());
        }
        main[offset + i].extend(step.iter().copied());
    }
}

/// In-place 2D-torus all-reduce summing `f32` payloads.
///
/// On return every `data[w]` holds the elementwise sum over all workers.
///
/// # Panics
///
/// Panics if the shape is invalid or payload lengths differ.
pub fn torus_allreduce_sum(data: &mut [Vec<f32>], rows: usize, cols: usize) -> Trace {
    check_shape(data, rows, cols);
    let d = data[0].len();
    assert!(data.iter().all(|v| v.len() == d), "payload lengths differ");
    let chunks = segment_ranges(d, cols);
    let mut steps: Vec<Vec<usize>> = Vec::new();
    let mut rec = HopRecorder::begin();

    // Phase 1: horizontal reduce-scatter within each row.
    for rr in 0..cols - 1 {
        let expanded = steps.len();
        let mut step = Vec::with_capacity(rows * cols);
        for row in 0..rows {
            for c in 0..cols {
                let w = row * cols + c;
                let n = row * cols + (c + 1) % cols;
                let s = (c + cols - (rr % cols)) % cols;
                let range = chunks[s].clone();
                step.push(range.len() * 4);
                rec.hop(&Hop {
                    expanded_step: expanded,
                    step: rr,
                    phase: "reduce",
                    sender: w,
                    receiver: n,
                    segment: s,
                    elems: range.len(),
                    bytes: range.len() * 4,
                    attempt: 1,
                    delivered: true,
                });
                let sent: Vec<f32> = data[w][range.clone()].to_vec();
                for (x, y) in data[n][range].iter_mut().zip(sent) {
                    *x += y;
                }
            }
        }
        steps.push(step);
    }

    // Phase 2: vertical ring all-reduce per column on the owned chunk.
    let offset = steps.len();
    for c in 0..cols {
        let own = (c + 1) % cols;
        let range = chunks[own].clone();
        let mut column: Vec<Vec<f32>> = (0..rows)
            .map(|row| data[row * cols + c][range.clone()].to_vec())
            .collect();
        let sub = {
            let _frame = rec.column_frame(offset, column_workers(rows, cols, c));
            crate::ring::ring_allreduce_sum(&mut column)
        };
        for (row, chunk) in column.into_iter().enumerate() {
            data[row * cols + c][range.clone()].copy_from_slice(&chunk);
        }
        merge_parallel(&mut steps, offset, &sub);
    }

    // Phase 3: horizontal all-gather.
    for g in 0..cols - 1 {
        let expanded = steps.len();
        let mut step = Vec::with_capacity(rows * cols);
        for row in 0..rows {
            for c in 0..cols {
                let n_col = (c + 1) % cols;
                let w = row * cols + c;
                let n = row * cols + n_col;
                let s = (c + 1 + cols - (g % cols)) % cols;
                let range = chunks[s].clone();
                step.push(range.len() * 4);
                rec.hop(&Hop {
                    expanded_step: expanded,
                    step: g,
                    phase: "gather",
                    sender: w,
                    receiver: n,
                    segment: s,
                    elems: range.len(),
                    bytes: range.len() * 4,
                    attempt: 1,
                    delivered: true,
                });
                let sent: Vec<f32> = data[w][range.clone()].to_vec();
                data[n][range].copy_from_slice(&sent);
            }
        }
        steps.push(step);
    }

    let mut trace = Trace::new();
    for s in steps {
        trace.push_step(s);
    }
    trace
}

/// 2D-torus all-reduce of one-bit payloads with a caller-supplied combine
/// (Marsit under TAR).
///
/// Combine contexts carry the correct aggregate counts: horizontal hops fold
/// single workers, vertical hops fold whole row-aggregates of `cols` workers.
/// Every hop is one bit per coordinate; `combine(received, local, ctx)`
/// merges the incoming aggregate *into* the local chunk in place, so the hot
/// loop performs no clone of the received data. Returns the consensus sign
/// vector and the trace.
///
/// # Panics
///
/// Panics if the shape is invalid, sign lengths differ, or the combine
/// changes the local chunk's length.
pub fn torus_allreduce_onebit<F>(
    signs: &[SignVec],
    rows: usize,
    cols: usize,
    combine: F,
) -> (SignVec, Trace)
where
    F: FnMut(&SignVec, &mut SignVec, CombineCtx),
{
    torus_allreduce_onebit_hooked(signs, rows, cols, |_| {}, combine)
}

/// [`torus_allreduce_onebit`] with a *step-begin hook* (see
/// [`ring_allreduce_onebit_weighted_hooked`]): before each horizontal
/// reduce step and each vertical sub-ring step, `step_begin` receives that
/// step's hop plan so per-hop randomness can be pre-sampled in one
/// interleaved batch. Contexts in the plan are exactly those the combine
/// will see (vertical hops report sub-ring-local receivers, as the combine
/// does today).
///
/// # Panics
///
/// Panics if the shape is invalid, sign lengths differ, or the combine
/// changes the local chunk's length.
pub fn torus_allreduce_onebit_hooked<G, F>(
    signs: &[SignVec],
    rows: usize,
    cols: usize,
    mut step_begin: G,
    mut combine: F,
) -> (SignVec, Trace)
where
    G: FnMut(&[PlannedHop]),
    F: FnMut(&SignVec, &mut SignVec, CombineCtx),
{
    check_shape(signs, rows, cols);
    let d = signs[0].len();
    assert!(signs.iter().all(|v| v.len() == d), "sign lengths differ");
    let chunks = segment_ranges(d, cols);
    let mut steps: Vec<Vec<usize>> = Vec::new();
    // state[w][s]: worker w's aggregate of chunk s.
    let mut state: Vec<Vec<SignVec>> = signs
        .iter()
        .map(|v| chunks.iter().map(|r| v.slice(r.start, r.len())).collect())
        .collect();

    // Phase 1: horizontal reduce-scatter, single-worker units.
    let mut rec = HopRecorder::begin();
    let mut plan: Vec<PlannedHop> = Vec::with_capacity(rows * cols);
    for rr in 0..cols - 1 {
        plan.clear();
        for row in 0..rows {
            for c in 0..cols {
                let s = (c + cols - (rr % cols)) % cols;
                plan.push(PlannedHop {
                    ctx: CombineCtx {
                        step: rr,
                        receiver: row * cols + (c + 1) % cols,
                        segment: s,
                        received_count: rr + 1,
                        local_count: 1,
                    },
                    elems: chunks[s].len(),
                });
            }
        }
        step_begin(&plan);
        let expanded = steps.len();
        let mut step = Vec::with_capacity(rows * cols);
        for row in 0..rows {
            for c in 0..cols {
                let w = row * cols + c;
                let n = row * cols + (c + 1) % cols;
                let s = (c + cols - (rr % cols)) % cols;
                step.push(chunks[s].len().div_ceil(8).max(1));
                rec.hop(&Hop {
                    expanded_step: expanded,
                    step: rr,
                    phase: "reduce",
                    sender: w,
                    receiver: n,
                    segment: s,
                    elems: chunks[s].len(),
                    bytes: chunks[s].len().div_ceil(8).max(1),
                    attempt: 1,
                    delivered: true,
                });
                let ctx = CombineCtx {
                    step: rr,
                    receiver: n,
                    segment: s,
                    received_count: rr + 1,
                    local_count: 1,
                };
                let (src, dst) = split_pair(&mut state, w, n);
                combine(&src[s], &mut dst[s], ctx);
                assert_eq!(dst[s].len(), chunks[s].len(), "combine changed length");
            }
        }
        steps.push(step);
    }

    // Phase 2: vertical one-bit all-reduce per column, units of `cols`.
    let offset = steps.len();
    for c in 0..cols {
        let own = (c + 1) % cols;
        let column: Vec<SignVec> = (0..rows)
            .map(|row| state[row * cols + c][own].clone())
            .collect();
        let (reduced, sub) = {
            let _frame = rec.column_frame(offset, column_workers(rows, cols, c));
            ring_allreduce_onebit_weighted_hooked(&column, cols, &mut step_begin, &mut combine)
        };
        for row in 0..rows {
            state[row * cols + c][own].copy_from(&reduced);
        }
        merge_parallel(&mut steps, offset, &sub);
    }

    // Phase 3: horizontal all-gather of the final one-bit chunks.
    for g in 0..cols - 1 {
        let expanded = steps.len();
        let mut step = Vec::with_capacity(rows * cols);
        for row in 0..rows {
            for c in 0..cols {
                let w = row * cols + c;
                let n = row * cols + (c + 1) % cols;
                let s = (c + 1 + cols - (g % cols)) % cols;
                step.push(chunks[s].len().div_ceil(8).max(1));
                rec.hop(&Hop {
                    expanded_step: expanded,
                    step: g,
                    phase: "gather",
                    sender: w,
                    receiver: n,
                    segment: s,
                    elems: chunks[s].len(),
                    bytes: chunks[s].len().div_ceil(8).max(1),
                    attempt: 1,
                    delivered: true,
                });
                let (src, dst) = split_pair(&mut state, w, n);
                dst[s].copy_from(&src[s]);
            }
        }
        steps.push(step);
    }

    // All workers now agree; assemble from worker 0.
    let mut result = SignVec::zeros(d);
    for (s, range) in chunks.iter().enumerate() {
        result.splice(range.start, &state[0][s]);
    }
    let mut trace = Trace::new();
    for s in steps {
        trace.push_step(s);
    }
    (result, trace)
}

/// [`torus_allreduce_onebit`] under fault injection.
///
/// Aggregation counts are tracked per `(worker, chunk)` cell: a reduce
/// transfer that exhausts its retry budget is omitted (the receiver's
/// aggregate and count are unchanged), so every [`CombineCtx`] reports the
/// exact worker counts on both sides and `⊙` stays unbiased over what
/// arrived. The vertical phase runs
/// [`ring_allreduce_onebit_counted_faulty`] per column with the actual
/// row-aggregate counts. All-gather transfers are reliable, so every worker
/// still agrees on the result. Retransmissions appear as extra trace steps.
///
/// Every reduce step — horizontal, and each vertical sub-ring step — draws
/// its fates in issue order before any combine runs and hands its delivered
/// hops to `step_begin`, as [`ring_allreduce_onebit_counted_faulty`] does
/// (vertical hops report sub-ring-local receivers, as the combine sees
/// them).
///
/// With an inert injector this reproduces [`torus_allreduce_onebit`].
///
/// # Errors
///
/// Returns [`SyncError::BadShape`] for an invalid torus shape and
/// [`SyncError::LengthMismatch`] if sign lengths differ.
///
/// # Panics
///
/// Panics if the combine changes a chunk's length (a programmer error in
/// the closure, not a runtime condition).
pub fn torus_allreduce_onebit_faulty<G, F>(
    signs: &[SignVec],
    rows: usize,
    cols: usize,
    inj: &mut FaultInjector,
    mut step_begin: G,
    mut combine: F,
) -> Result<(SignVec, Trace), SyncError>
where
    G: FnMut(&[PlannedHop]),
    F: FnMut(&SignVec, &mut SignVec, CombineCtx),
{
    if rows < 2 || cols < 2 || signs.len() != rows * cols {
        return Err(SyncError::BadShape {
            rows,
            cols,
            workers: signs.len(),
        });
    }
    let d = signs[0].len();
    if let Some(bad) = signs.iter().find(|v| v.len() != d) {
        return Err(SyncError::LengthMismatch {
            expected: d,
            got: bad.len(),
        });
    }
    let chunks = segment_ranges(d, cols);
    let mut steps: Vec<Vec<usize>> = Vec::new();
    let mut state: Vec<Vec<SignVec>> = signs
        .iter()
        .map(|v| chunks.iter().map(|r| v.slice(r.start, r.len())).collect())
        .collect();
    // counts[w][s]: workers aggregated in worker w's copy of chunk s.
    let mut counts: Vec<Vec<usize>> = vec![vec![1; cols]; rows * cols];

    // Phase 1: horizontal reduce-scatter with per-cell counts. Hop
    // (row, c) writes cell (row, c+1, s) and the hops of one row use
    // distinct chunks, so no hop of a step reads what another writes.
    let mut rec = HopRecorder::begin();
    let mut plan: Vec<PlannedHop> = Vec::with_capacity(rows * cols);
    for rr in 0..cols - 1 {
        let step_base = steps.len();
        let mut fs = FaultyStep::new();
        plan.clear();
        for row in 0..rows {
            for c in 0..cols {
                let w = row * cols + c;
                let n = row * cols + (c + 1) % cols;
                let s = (c + cols - (rr % cols)) % cols;
                let fate = inj.transfer();
                fs.record(chunks[s].len().div_ceil(8).max(1), fate.attempts);
                emit_attempts(
                    &mut rec,
                    &Hop {
                        expanded_step: step_base,
                        step: rr,
                        phase: "reduce",
                        sender: w,
                        receiver: n,
                        segment: s,
                        elems: chunks[s].len(),
                        bytes: chunks[s].len().div_ceil(8).max(1),
                        attempt: 1,
                        delivered: true,
                    },
                    fate.attempts,
                    fate.delivered,
                );
                if fate.delivered {
                    plan.push(PlannedHop {
                        ctx: CombineCtx {
                            step: rr,
                            receiver: n,
                            segment: s,
                            received_count: counts[w][s],
                            local_count: counts[n][s],
                        },
                        elems: chunks[s].len(),
                    });
                }
            }
        }
        step_begin(&plan);
        for hop in &plan {
            let (n, s) = (hop.ctx.receiver, hop.ctx.segment);
            // The sender is the receiver's left neighbour in its row.
            let w = (n / cols) * cols + (n % cols + cols - 1) % cols;
            let (src, dst) = split_pair(&mut state, w, n);
            combine(&src[s], &mut dst[s], hop.ctx);
            assert_eq!(dst[s].len(), chunks[s].len(), "combine changed length");
            counts[n][s] += counts[w][s];
        }
        steps.extend(fs.into_steps());
    }

    // Phase 2: vertical counted one-bit all-reduce per column.
    let offset = steps.len();
    for c in 0..cols {
        let own = (c + 1) % cols;
        let column: Vec<SignVec> = (0..rows)
            .map(|row| state[row * cols + c][own].clone())
            .collect();
        let column_counts: Vec<usize> = (0..rows).map(|row| counts[row * cols + c][own]).collect();
        let (reduced, sub) = {
            let _frame = rec.column_frame(offset, column_workers(rows, cols, c));
            ring_allreduce_onebit_counted_faulty(
                &column,
                &column_counts,
                inj,
                &mut step_begin,
                &mut combine,
            )?
        };
        for row in 0..rows {
            state[row * cols + c][own].copy_from(&reduced);
        }
        merge_parallel(&mut steps, offset, &sub);
    }

    // Phase 3: horizontal all-gather, reliable.
    for g in 0..cols - 1 {
        let step_base = steps.len();
        let mut fs = FaultyStep::new();
        for row in 0..rows {
            for c in 0..cols {
                let w = row * cols + c;
                let n = row * cols + (c + 1) % cols;
                let s = (c + 1 + cols - (g % cols)) % cols;
                let fate = inj.transfer_reliable();
                fs.record(chunks[s].len().div_ceil(8).max(1), fate.attempts);
                emit_attempts(
                    &mut rec,
                    &Hop {
                        expanded_step: step_base,
                        step: g,
                        phase: "gather",
                        sender: w,
                        receiver: n,
                        segment: s,
                        elems: chunks[s].len(),
                        bytes: chunks[s].len().div_ceil(8).max(1),
                        attempt: 1,
                        delivered: true,
                    },
                    fate.attempts,
                    fate.delivered,
                );
                let (src, dst) = split_pair(&mut state, w, n);
                dst[s].copy_from(&src[s]);
            }
        }
        steps.extend(fs.into_steps());
    }

    let mut result = SignVec::zeros(d);
    for (s, range) in chunks.iter().enumerate() {
        result.splice(range.start, &state[0][s]);
    }
    let mut trace = Trace::new();
    for s in steps {
        trace.push_step(s);
    }
    Ok((result, trace))
}

/// 2D-torus all-reduce of sign vectors into a global majority vote
/// (signSGD-MV under TAR): integer sums on the reduce paths, one-bit votes
/// on the gather paths.
///
/// # Panics
///
/// Panics if the shape is invalid or sign lengths differ.
pub fn torus_allreduce_majority(
    signs: &[SignVec],
    rows: usize,
    cols: usize,
    wire: SumWire,
) -> (SignVec, Trace) {
    let (total, mut trace) = torus_reduce_sums(signs, rows, cols, wire);
    let d = signs[0].len();
    let vote = total.majority_sign();
    // Gather: vertical then horizontal, all one-bit chunks.
    let chunks = segment_ranges(d, cols);
    let sub_bits = |len: usize| len.div_ceil(8).max(1);
    for _ in 0..rows - 1 {
        let step: Vec<usize> = (0..rows * cols)
            .map(|w| sub_bits(chunks[(w % cols + 1) % cols].len().div_ceil(rows)))
            .collect();
        trace.push_step(step);
    }
    for _ in 0..cols - 1 {
        let step: Vec<usize> = (0..rows * cols)
            .map(|w| sub_bits(chunks[w % cols].len()))
            .collect();
        trace.push_step(step);
    }
    (vote, trace)
}

/// 2D-torus all-reduce of sign vectors into global sign sums (SSDM /
/// EF-signSGD under TAR).
///
/// # Panics
///
/// Panics if the shape is invalid or sign lengths differ.
pub fn torus_allreduce_signsum(
    signs: &[SignVec],
    rows: usize,
    cols: usize,
    wire: SumWire,
) -> (SignSumVec, Trace) {
    let (total, mut trace) = torus_reduce_sums(signs, rows, cols, wire);
    // Gather phases re-transmit final sums (vertical then horizontal).
    let per_worker = wire.wire_bytes(&total);
    for _ in 0..rows - 1 {
        trace.push_step(vec![per_worker.div_ceil(cols * rows); rows * cols]);
    }
    for _ in 0..cols - 1 {
        trace.push_step(vec![per_worker.div_ceil(cols); rows * cols]);
    }
    (total, trace)
}

/// Shared reduce path: horizontal reduce-scatter of sums, vertical
/// sum all-reduce. Returns the full-dimension total and the reduce trace.
fn torus_reduce_sums(
    signs: &[SignVec],
    rows: usize,
    cols: usize,
    wire: SumWire,
) -> (SignSumVec, Trace) {
    check_shape(signs, rows, cols);
    let d = signs[0].len();
    assert!(signs.iter().all(|v| v.len() == d), "sign lengths differ");
    let chunks = segment_ranges(d, cols);
    let mut steps: Vec<Vec<usize>> = Vec::new();
    let mut state: Vec<Vec<SignSumVec>> = signs
        .iter()
        .map(|v| {
            chunks
                .iter()
                .map(|r| SignSumVec::from_signs(&v.slice(r.start, r.len())))
                .collect()
        })
        .collect();

    // Phase 1: horizontal reduce-scatter of growing sums.
    for rr in 0..cols - 1 {
        let mut step = Vec::with_capacity(rows * cols);
        for row in 0..rows {
            for c in 0..cols {
                let w = row * cols + c;
                let n = row * cols + (c + 1) % cols;
                let s = (c + cols - (rr % cols)) % cols;
                step.push(wire.wire_bytes(&state[w][s]));
                let sent = state[w][s].clone();
                state[n][s].merge(&sent);
            }
        }
        steps.push(step);
    }

    // Phase 2: vertical sign-sum all-reduce per column on the owned chunk.
    let offset = steps.len();
    // Assemble the full-dimension total (identical across workers).
    let mut flat = vec![0i32; d];
    for c in 0..cols {
        let own = (c + 1) % cols;
        let column: Vec<SignSumVec> = (0..rows)
            .map(|row| state[row * cols + c][own].clone())
            .collect();
        let (reduced, sub) = ring_allreduce_signsum_parts(&column, wire);
        merge_parallel(&mut steps, offset, &sub);
        flat[chunks[own].clone()].copy_from_slice(reduced.sums());
    }
    let total = SignSumVec::from_parts(flat, (rows * cols) as u32);
    let mut trace = Trace::new();
    for s in steps {
        trace.push_step(s);
    }
    (total, trace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use marsit_tensor::rng::FastRng;

    fn random_payloads(m: usize, d: usize, seed: u64) -> Vec<Vec<f32>> {
        (0..m)
            .map(|w| {
                let mut rng = FastRng::new(seed, w as u64);
                (0..d).map(|_| rng.next_f64() as f32 * 2.0 - 1.0).collect()
            })
            .collect()
    }

    fn random_signs(m: usize, d: usize, seed: u64) -> Vec<SignVec> {
        let mut rng = FastRng::new(seed, 0);
        (0..m)
            .map(|_| SignVec::bernoulli_uniform(d, 0.5, &mut rng))
            .collect()
    }

    #[test]
    fn torus_sum_matches_reference() {
        for (rows, cols, d) in [(2, 2, 16), (2, 3, 40), (3, 3, 27), (4, 4, 128), (2, 4, 33)] {
            let m = rows * cols;
            let mut data = random_payloads(m, d, 11);
            let mut expected = vec![0.0f32; d];
            for w in &data {
                for (e, &x) in expected.iter_mut().zip(w) {
                    *e += x;
                }
            }
            let _ = torus_allreduce_sum(&mut data, rows, cols);
            for (w, payload) in data.iter().enumerate() {
                for (j, (&got, &want)) in payload.iter().zip(&expected).enumerate() {
                    assert!(
                        (got - want).abs() < 1e-3,
                        "{rows}x{cols} d={d} worker {w} coord {j}: {got} vs {want}"
                    );
                }
            }
        }
    }

    #[test]
    fn torus_sum_fewer_critical_steps_than_ring() {
        let m = 16;
        let d = 1600;
        let mut ring_data = random_payloads(m, d, 3);
        let ring_trace = crate::ring::ring_allreduce_sum(&mut ring_data);
        let mut torus_data = random_payloads(m, d, 3);
        let torus_trace = torus_allreduce_sum(&mut torus_data, 4, 4);
        // Both schedules are bandwidth-optimal (~2·D·(M−1)/M bytes on the
        // critical path); the torus advantage is latency: far fewer steps.
        assert!(torus_trace.num_steps() < ring_trace.num_steps());
        assert!(torus_trace.critical_path_bytes() <= ring_trace.critical_path_bytes());
        use marsit_simnet::LinkModel;
        let latency_bound = LinkModel::new(1e-3, 1e12);
        assert!(torus_trace.time(latency_bound) < ring_trace.time(latency_bound));
    }

    #[test]
    fn torus_majority_matches_scalar_recount() {
        let (rows, cols, d) = (2, 3, 60);
        let signs = random_signs(rows * cols, d, 21);
        let (vote, _) = torus_allreduce_majority(&signs, rows, cols, SumWire::Elias);
        for j in 0..d {
            let sum: i32 = signs.iter().map(|v| if v.get(j) { 1 } else { -1 }).sum();
            assert_eq!(vote.get(j), sum >= 0, "coord {j}");
        }
    }

    #[test]
    fn torus_signsum_totals() {
        let (rows, cols, d) = (3, 2, 31);
        let signs = random_signs(rows * cols, d, 5);
        let (total, _) = torus_allreduce_signsum(&signs, rows, cols, SumWire::Elias);
        assert_eq!(total.count(), (rows * cols) as u32);
        for j in 0..d {
            let sum: i32 = signs.iter().map(|v| if v.get(j) { 1 } else { -1 }).sum();
            assert_eq!(total.sums()[j], sum, "coord {j}");
        }
    }

    #[test]
    fn torus_onebit_counts_cover_all_workers() {
        // With a "keep received" or any combine, the ctx counts must sum the
        // full worker set by the last vertical step.
        let (rows, cols, d) = (3, 3, 90);
        let signs = random_signs(rows * cols, d, 7);
        let mut max_total = 0;
        let _ = torus_allreduce_onebit(&signs, rows, cols, |recv, local, ctx| {
            max_total = max_total.max(ctx.received_count + ctx.local_count);
            local.copy_from(recv);
        });
        assert_eq!(max_total, rows * cols);
    }

    #[test]
    fn torus_onebit_hops_are_one_bit() {
        let (rows, cols, d) = (2, 2, 64);
        let signs = random_signs(rows * cols, d, 9);
        let (_, trace) = torus_allreduce_onebit(&signs, rows, cols, |r, l, _| l.copy_from(r));
        // Horizontal chunks: d/cols = 32 coords = 4 bytes; vertical
        // subchunks: 16 coords = 2 bytes.
        for step in trace.steps() {
            for &bytes in step {
                assert!(bytes == 4 || bytes == 2, "unexpected transfer size {bytes}");
            }
        }
    }

    #[test]
    fn torus_onebit_consensus_is_deterministic_given_combine() {
        let (rows, cols, d) = (2, 2, 16);
        let signs = random_signs(4, d, 13);
        let (a, _) = torus_allreduce_onebit(&signs, rows, cols, |r, l, _| l.copy_from(r));
        let (b, _) = torus_allreduce_onebit(&signs, rows, cols, |r, l, _| l.copy_from(r));
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "rows*cols")]
    fn wrong_worker_count_panics() {
        let mut data = random_payloads(5, 8, 0);
        let _ = torus_allreduce_sum(&mut data, 2, 3);
    }

    #[test]
    fn faulty_torus_with_inert_injector_matches_clean() {
        let (rows, cols, d) = (2, 4, 64);
        let signs = random_signs(rows * cols, d, 31);
        let combine = |recv: &SignVec, local: &mut SignVec, _ctx: CombineCtx| local.or_assign(recv);
        let (clean, clean_trace) = torus_allreduce_onebit(&signs, rows, cols, combine);
        let mut inj = FaultInjector::inert();
        let (faulty, faulty_trace) =
            torus_allreduce_onebit_faulty(&signs, rows, cols, &mut inj, |_| {}, combine)
                .expect("valid inputs");
        assert_eq!(clean, faulty);
        assert_eq!(clean_trace, faulty_trace);
    }

    #[test]
    fn faulty_torus_counts_stay_exact_under_drops() {
        use marsit_simnet::FaultPlan;
        let (rows, cols, d) = (3, 3, 90);
        let m = rows * cols;
        let signs = random_signs(m, d, 37);
        let plan = FaultPlan::seeded(5)
            .with_link_drop(0.3)
            .with_retry_policy(0, 1e-4);
        let mut inj = plan.injector(0);
        let mut max_total = 0;
        let (out, _) = torus_allreduce_onebit_faulty(
            &signs,
            rows,
            cols,
            &mut inj,
            |_| {},
            |r, l, ctx| {
                assert!(ctx.received_count >= 1 && ctx.local_count >= 1);
                assert!(ctx.received_count + ctx.local_count <= m);
                max_total = max_total.max(ctx.received_count + ctx.local_count);
                l.copy_from(r);
            },
        )
        .expect("valid inputs");
        assert_eq!(out.len(), d);
        assert!(inj.stats().dropped_transfers > 0);
        assert!(max_total <= m);
        // Determinism under the same seed.
        let mut inj2 = plan.injector(0);
        let (out2, _) = torus_allreduce_onebit_faulty(
            &signs,
            rows,
            cols,
            &mut inj2,
            |_| {},
            |r, l, _| {
                l.copy_from(r);
            },
        )
        .expect("valid inputs");
        assert_eq!(out, out2);
    }

    /// The faulty torus's step hook under a 30% drop injector: one plan per
    /// horizontal reduce step and per vertical sub-ring step, each listing
    /// exactly that step's delivered hops in issue order, followed by their
    /// combines; a no-op hook changes nothing.
    #[test]
    fn faulty_step_hook_announces_delivered_hops_in_issue_order() {
        use std::cell::RefCell;

        use marsit_simnet::FaultPlan;

        use crate::ring::{expected_faulty_plans, plans_followed_by_their_combines, HookEvent};
        let (rows, cols, d) = (3, 4, 203);
        let m = rows * cols;
        let signs = random_signs(m, d, 43);
        let plan = FaultPlan::seeded(12)
            .with_link_drop(0.3)
            .with_retry_policy(0, 1e-4);
        let combine = |recv: &SignVec, local: &mut SignVec, _: CombineCtx| local.xor_assign(recv);

        let events = RefCell::new(Vec::new());
        let mut inj = plan.injector(4);
        let recorded = torus_allreduce_onebit_faulty(
            &signs,
            rows,
            cols,
            &mut inj,
            |p| events.borrow_mut().push(HookEvent::Plan(p.to_vec())),
            |recv, local, ctx| {
                events.borrow_mut().push(HookEvent::Combine(ctx));
                combine(recv, local, ctx);
            },
        )
        .expect("valid inputs");
        let plans = plans_followed_by_their_combines(&events.borrow());

        // Oracle: the sequential schedule's delivered hops, horizontal
        // steps first, then each column's sub-ring with its row counts.
        let chunks = segment_ranges(d, cols);
        let mut oracle_inj = plan.injector(4);
        let mut counts = vec![vec![1; cols]; m];
        let mut want = Vec::new();
        for rr in 0..cols - 1 {
            let mut step = Vec::new();
            for row in 0..rows {
                for c in 0..cols {
                    let (w, n) = (row * cols + c, row * cols + (c + 1) % cols);
                    let s = (c + cols - (rr % cols)) % cols;
                    if oracle_inj.transfer().delivered {
                        step.push(PlannedHop {
                            ctx: CombineCtx {
                                step: rr,
                                receiver: n,
                                segment: s,
                                received_count: counts[w][s],
                                local_count: counts[n][s],
                            },
                            elems: chunks[s].len(),
                        });
                        counts[n][s] += counts[w][s];
                    }
                }
            }
            want.push(step);
        }
        for c in 0..cols {
            let own = (c + 1) % cols;
            let column: Vec<usize> = (0..rows).map(|row| counts[row * cols + c][own]).collect();
            want.extend(expected_faulty_plans(
                &column,
                chunks[own].len(),
                &mut oracle_inj,
            ));
        }
        assert_eq!(plans, want);
        assert!(
            plans[..cols - 1].iter().any(|p| p.len() < m),
            "0.3 loss omits horizontal hops"
        );

        let mut noop_inj = plan.injector(4);
        let noop =
            torus_allreduce_onebit_faulty(&signs, rows, cols, &mut noop_inj, |_| {}, combine)
                .expect("valid inputs");
        assert_eq!(noop, recorded, "consensus and trace");
        assert_eq!(noop_inj.stats(), inj.stats());
    }
}
