//! Compiled collective schedules: the one encoding of the binary-tree and
//! segmented-ring all-reduce, and the transport-generic form of ring and
//! 2D torus.
//!
//! A schedule is handled in three independent halves:
//!
//! 1. **Compile**: [`compile_plan`] encodes a topology's schedule — hop
//!    order, segment geometry, [`CombineCtx`] values, per-`(worker,
//!    segment)` aggregation counts and transfer fates — into a flat list of
//!    [`PlannedTransfer`]s. Fates are drawn here, by consuming the
//!    [`FaultInjector`] in the schedule's canonical transfer order, so the
//!    injector's RNG stream and statistics are fixed before any payload
//!    moves.
//! 2. **Describe**: what crossed the wire depends only on the plan, never on
//!    payload bits. [`EnginePlan::trace`] lays every wire attempt out as the
//!    α–β [`Trace`] (retries ride sub-steps behind their main step), and
//!    [`EnginePlan::emit_hops`] records one telemetry `hop` event per attempt
//!    into the ambient scope.
//! 3. **Execute**: [`run_rank`] walks one rank's slice of the plan against a
//!    [`Transport`] endpoint — sends first, then combines what arrives.
//!    [`run_lockstep`] drives every rank from one thread over a simulated
//!    fabric (the simulator backend); [`run_threaded`] gives each rank an OS
//!    thread. Worker *processes* run [`run_rank`] directly over a
//!    `ProcessTransport`.
//!
//! Determinism across backends is the frozen RNG stream contract
//! (`DESIGN.md` §9): every combine's randomness is addressed by its
//! [`CombineCtx`], which is fixed at compile time, so arrival timing cannot
//! perturb the consensus. The one backend-specific output is *wall-clock
//! tracing*: when an ambient telemetry scope is active, [`run_rank`] records
//! each payload it receives as a `hop` event at the same expanded slot the
//! plan's own telemetry gives that delivery, carrying the propagated trace
//! context (round, absolute seq, sender send-time) plus its own arrival
//! time, so real-transport runs can be merged into one causally-ordered
//! cross-rank trace.

use std::ops::Range;

use marsit_simnet::transport::{Backend, ChannelFabric, Transport, TransportError};
use marsit_simnet::{FaultInjector, LinkModel, TransferFate};
use marsit_telemetry::{wall_now_ns, Hop, HopRecorder, HopTiming};
use marsit_tensor::SignVec;

use crate::reconfigure::SyncError;
use crate::ring::{emit_attempts, segment_ranges, CombineCtx};
use crate::trace::Trace;

/// The multi-hop all-reduce schedule to compile.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanTopology {
    /// Ring all-reduce over all ranks: `M−1` reduce-scatter steps, then
    /// `M−1` all-gather steps.
    Ring,
    /// 2D-torus all-reduce: horizontal reduce-scatter, one vertical ring per
    /// column (the columns run concurrently), horizontal all-gather.
    Torus {
        /// Torus rows.
        rows: usize,
        /// Torus columns.
        cols: usize,
    },
    /// Binary-tree all-reduce: `⌈log₂ M⌉` reduce levels folding pairs of
    /// aggregates up to rank 0, then the same number of broadcast levels.
    /// Every transfer carries the full payload.
    Tree,
    /// Segmented-ring all-reduce: the payload is cut into macro-segments,
    /// each all-reduced by its own ring pass, pipelined one step apart over
    /// the shared ring.
    SegRing {
        /// Number of macro-segments (the pipeline depth).
        macro_segments: usize,
    },
}

/// One scheduled point-to-point transfer.
///
/// A transfer lives in three step spaces. `step` orders execution; `slot`
/// and `seq` place its wire attempts in the [`Trace`] and in the telemetry
/// stream, where a logical step with up to `k` attempts per transfer
/// expands into `k` consecutive slots (attempt `a` rides `a − 1` slots
/// after the first). Concurrent lanes — the torus's column rings, the
/// segmented ring's pipelines — share steps and slots; each lane expands
/// its own retries. In a clean plan `slot == step` for every transfer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlannedTransfer {
    /// Engine step: all of a rank's step-`k` sends precede its step-`k`
    /// receives, and steps run in order at every rank.
    pub step: usize,
    /// Trace slot of the first wire attempt.
    pub slot: usize,
    /// Telemetry slot of the first wire attempt, relative to the
    /// collective's base `seq`. Equal to `slot` except in a segmented ring,
    /// whose pipelines claim consecutive telemetry windows.
    pub seq: usize,
    /// Phase-local logical step (ring reduce step `r`, gather step `g`,
    /// tree level), as reported in hop events.
    pub phase_step: usize,
    /// Phase-local segment index, as reported in hop events.
    pub segment: usize,
    /// Sending rank (global).
    pub sender: usize,
    /// Receiving rank (global).
    pub receiver: usize,
    /// First coordinate of the payload within the full `d`-length vector.
    pub start: usize,
    /// Payload length in coordinates.
    pub len: usize,
    /// `Some(ctx)` → the receiver combines the payload into its local
    /// range with exactly this context (a reduce hop); `None` → the
    /// receiver overwrites the range (a gather or broadcast copy).
    pub combine: Option<CombineCtx>,
    /// Wire attempts the fault layer drew, reliable transfers included
    /// (1 on a clean plan).
    pub attempts: u32,
    /// Fault fate drawn at compile time. An undelivered transfer is skipped
    /// by both endpoints — the payload never existed on the wire.
    pub delivered: bool,
}

impl PlannedTransfer {
    /// Wire bytes of one attempt: one bit per coordinate, at least a byte.
    #[must_use]
    pub fn bytes(&self) -> usize {
        self.len.div_ceil(8).max(1)
    }

    /// The hop event of this transfer's first wire attempt.
    fn hop(&self) -> Hop {
        Hop {
            expanded_step: self.seq,
            step: self.phase_step,
            phase: if self.combine.is_some() {
                "reduce"
            } else {
                "gather"
            },
            sender: self.sender,
            receiver: self.receiver,
            segment: self.segment,
            elems: self.len,
            bytes: self.bytes(),
            attempt: 1,
            delivered: true,
        }
    }

    /// The hop event of the attempt that delivered this transfer.
    fn delivery(&self) -> Hop {
        let mut hop = self.hop();
        hop.expanded_step += self.attempts as usize - 1;
        hop.attempt = self.attempts;
        hop
    }
}

/// A compiled schedule: every transfer of one collective, in canonical
/// (injector-consumption) order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EnginePlan {
    /// The schedule this plan encodes.
    pub topology: PlanTopology,
    /// Number of ranks.
    pub world: usize,
    /// Full payload length in coordinates.
    pub d: usize,
    /// Exclusive upper bound on [`PlannedTransfer::step`].
    pub num_steps: usize,
    /// All transfers, canonical order.
    pub transfers: Vec<PlannedTransfer>,
}

impl EnginePlan {
    /// Largest single-transfer payload in bytes at any step — what one
    /// lockstep tick moves on the busiest link (the α–β step price).
    #[must_use]
    pub fn max_step_bytes(&self, step: usize) -> usize {
        self.transfers
            .iter()
            .filter(|t| t.step == step && t.delivered)
            .map(PlannedTransfer::bytes)
            .max()
            .unwrap_or(0)
    }

    /// The wire trace: every attempt of every transfer, undelivered ones
    /// included, in its expanded slot. Within a slot, transfers keep
    /// canonical order.
    #[must_use]
    pub fn trace(&self) -> Trace {
        let width = self
            .transfers
            .iter()
            .map(|t| t.slot + t.attempts as usize)
            .max()
            .unwrap_or(0);
        let mut steps = vec![Vec::new(); width];
        for t in &self.transfers {
            for slot in &mut steps[t.slot..t.slot + t.attempts as usize] {
                slot.push(t.bytes());
            }
        }
        let mut trace = Trace::new();
        for step in steps {
            trace.push_step(step);
        }
        trace
    }

    /// Records one `hop` event per wire attempt into the ambient telemetry
    /// scope (a no-op without one), claiming the plan's telemetry window.
    /// Binary-tree plans record nothing: the tree has no per-hop telemetry.
    pub fn emit_hops(&self) {
        if self.topology == PlanTopology::Tree {
            return;
        }
        let mut rec = HopRecorder::begin();
        for t in &self.transfers {
            emit_attempts(&mut rec, &t.hop(), t.attempts, t.delivered);
        }
    }

    /// Telemetry slots the plan spans (one past the last attempt's `seq`).
    fn seq_width(&self) -> usize {
        self.transfers
            .iter()
            .map(|t| t.seq + t.attempts as usize)
            .max()
            .unwrap_or(0)
    }
}

/// Draws a best-effort fate: `None` injector (clean run) always delivers.
fn best_effort(inj: &mut Option<&mut FaultInjector>) -> TransferFate {
    inj.as_mut()
        .map_or_else(TransferFate::clean, |inj| inj.transfer())
}

/// Draws a reliable fate: always delivered, but the injector is still
/// consumed so its RNG stream and retry statistics advance.
fn reliable(inj: &mut Option<&mut FaultInjector>) -> TransferFate {
    let fate = inj
        .as_mut()
        .map_or_else(TransferFate::clean, |inj| inj.transfer_reliable());
    debug_assert!(fate.delivered, "reliable transfers always deliver");
    fate
}

/// Where the next logical step of one schedule lane lands in the plan's
/// three step spaces.
#[derive(Debug, Clone, Copy, Default)]
struct Lane {
    step: usize,
    slot: usize,
    seq: usize,
}

impl Lane {
    /// A transfer of this lane's current logical step; `(phase_step,
    /// segment)` label its hop events.
    fn transfer(
        self,
        (sender, receiver): (usize, usize),
        range: &Range<usize>,
        (phase_step, segment): (usize, usize),
        combine: Option<CombineCtx>,
        fate: TransferFate,
    ) -> PlannedTransfer {
        PlannedTransfer {
            step: self.step,
            slot: self.slot,
            seq: self.seq,
            phase_step,
            segment,
            sender,
            receiver,
            start: range.start,
            len: range.len(),
            combine,
            attempts: fate.attempts,
            delivered: fate.delivered,
        }
    }

    /// Closes the logical step made of `plan[first..]`: the next one starts
    /// one engine step later, behind this step's retry sub-steps.
    fn advance(&mut self, plan: &[PlannedTransfer], first: usize) {
        let width = plan[first..]
            .iter()
            .map(|t| t.attempts as usize)
            .max()
            .unwrap_or(1);
        self.step += 1;
        self.slot += width;
        self.seq += width;
    }

    /// Joins a concurrent lane: the schedule resumes after the longest one.
    fn join(&mut self, other: Lane) {
        self.step = self.step.max(other.step);
        self.slot = self.slot.max(other.slot);
        self.seq = self.seq.max(other.seq);
    }
}

/// Compiles one counted ring pass (reduce + reliable gather) into `plan`.
///
/// `ranks[i]` is the global rank at ring position `i`; `ranges[s]` the
/// global coordinate range of ring segment `s`; `init_counts[i]` how many
/// workers position `i`'s input already aggregates. `seg_shift` offsets
/// `ctx.segment` (the segmented ring namespaces its pipelines this way).
/// Contexts use ring-*positions* as receiver ids, as the torus's column
/// rings always have.
fn compile_ring_into(
    plan: &mut Vec<PlannedTransfer>,
    lane: &mut Lane,
    ranks: &[usize],
    ranges: &[Range<usize>],
    init_counts: &[usize],
    seg_shift: usize,
    inj: &mut Option<&mut FaultInjector>,
) {
    let m = ranks.len();
    debug_assert!(m >= 2 && ranges.len() == m && init_counts.len() == m);
    // counts[i][s]: workers aggregated in position i's copy of segment s.
    let mut counts: Vec<Vec<usize>> = init_counts.iter().map(|&c| vec![c; m]).collect();
    for r in 0..m - 1 {
        let first = plan.len();
        for w in 0..m {
            let n = (w + 1) % m;
            let s = (w + m - (r % m)) % m;
            let fate = best_effort(inj);
            let ctx = CombineCtx {
                step: r,
                receiver: n,
                segment: seg_shift + s,
                received_count: counts[w][s],
                local_count: counts[n][s],
            };
            plan.push(lane.transfer((ranks[w], ranks[n]), &ranges[s], (r, s), Some(ctx), fate));
            if fate.delivered {
                counts[n][s] += counts[w][s];
            }
        }
        lane.advance(plan, first);
    }
    // Gather step g circulates segment s from position (s+g+m−1) mod m.
    for g in 0..m - 1 {
        let first = plan.len();
        for (s, range) in ranges.iter().enumerate() {
            let w = (s + g + m - 1) % m;
            let fate = reliable(inj);
            plan.push(lane.transfer((ranks[w], ranks[(w + 1) % m]), range, (g, s), None, fate));
        }
        lane.advance(plan, first);
    }
}

/// Compiles a topology's full schedule over `world` ranks and a `d`-length
/// payload. Passing an injector draws faulty fates (consuming it in the
/// canonical transfer order); `None` compiles the clean schedule.
///
/// # Errors
///
/// Returns [`SyncError::TooFewWorkers`] for fewer than 2 ranks,
/// [`SyncError::BadShape`] for a torus that is not `rows × cols ≥ 2 × 2`,
/// and [`SyncError::ZeroSegments`] for a segmented ring without
/// macro-segments.
pub fn compile_plan(
    topology: PlanTopology,
    world: usize,
    d: usize,
    mut inj: Option<&mut FaultInjector>,
) -> Result<EnginePlan, SyncError> {
    let mut transfers = Vec::new();
    let mut lane = Lane::default();
    match topology {
        PlanTopology::Ring => {
            if world < 2 {
                return Err(SyncError::TooFewWorkers {
                    needed: 2,
                    got: world,
                });
            }
            let ranks: Vec<usize> = (0..world).collect();
            compile_ring_into(
                &mut transfers,
                &mut lane,
                &ranks,
                &segment_ranges(d, world),
                &vec![1; world],
                0,
                &mut inj,
            );
        }
        PlanTopology::Torus { rows, cols } => {
            if rows < 2 || cols < 2 || world != rows * cols {
                return Err(SyncError::BadShape {
                    rows,
                    cols,
                    workers: world,
                });
            }
            let chunks = segment_ranges(d, cols);
            // counts[w][s]: workers aggregated in w's copy of chunk s.
            let mut counts: Vec<Vec<usize>> = vec![vec![1; cols]; world];
            // Phase 1: horizontal reduce-scatter, global receiver ids in ctx.
            for rr in 0..cols - 1 {
                let first = transfers.len();
                for row in 0..rows {
                    for c in 0..cols {
                        let w = row * cols + c;
                        let n = row * cols + (c + 1) % cols;
                        let s = (c + cols - (rr % cols)) % cols;
                        let fate = best_effort(&mut inj);
                        let ctx = CombineCtx {
                            step: rr,
                            receiver: n,
                            segment: s,
                            received_count: counts[w][s],
                            local_count: counts[n][s],
                        };
                        transfers.push(lane.transfer((w, n), &chunks[s], (rr, s), Some(ctx), fate));
                        if fate.delivered {
                            counts[n][s] += counts[w][s];
                        }
                    }
                }
                lane.advance(&transfers, first);
            }
            // Phase 2: one vertical ring per column over its own chunk, with
            // column-local receiver ids in ctx. The columns run concurrently
            // from the same step; fates are drawn column by column.
            let start = lane;
            for c in 0..cols {
                let own = (c + 1) % cols;
                let ranks: Vec<usize> = (0..rows).map(|row| row * cols + c).collect();
                let column_counts: Vec<usize> =
                    (0..rows).map(|row| counts[row * cols + c][own]).collect();
                let sub: Vec<Range<usize>> = segment_ranges(chunks[own].len(), rows)
                    .into_iter()
                    .map(|r| chunks[own].start + r.start..chunks[own].start + r.end)
                    .collect();
                let mut column = start;
                compile_ring_into(
                    &mut transfers,
                    &mut column,
                    &ranks,
                    &sub,
                    &column_counts,
                    0,
                    &mut inj,
                );
                lane.join(column);
            }
            // Phase 3: horizontal all-gather, reliable copies.
            for g in 0..cols - 1 {
                let first = transfers.len();
                for row in 0..rows {
                    for c in 0..cols {
                        let s = (c + 1 + cols - (g % cols)) % cols;
                        let fate = reliable(&mut inj);
                        let pair = (row * cols + c, row * cols + (c + 1) % cols);
                        transfers.push(lane.transfer(pair, &chunks[s], (g, s), None, fate));
                    }
                }
                lane.advance(&transfers, first);
            }
        }
        PlanTopology::Tree => {
            if world < 2 {
                return Err(SyncError::TooFewWorkers {
                    needed: 2,
                    got: world,
                });
            }
            // counts[w]: workers aggregated in w's subtree so far. A reduce
            // transfer that exhausts its retry budget excludes the child's
            // whole subtree; the counts stay exact either way.
            let mut counts = vec![1usize; world];
            let mut levels = 0;
            while (1usize << levels) < world {
                let stride = 1usize << levels;
                let first = transfers.len();
                for w in (0..world - stride).step_by(2 * stride) {
                    let fate = best_effort(&mut inj);
                    let ctx = CombineCtx {
                        step: levels,
                        receiver: w,
                        segment: 0,
                        received_count: counts[w + stride],
                        local_count: counts[w],
                    };
                    transfers.push(lane.transfer(
                        (w + stride, w),
                        &(0..d),
                        (levels, 0),
                        Some(ctx),
                        fate,
                    ));
                    if fate.delivered {
                        counts[w] += counts[w + stride];
                    }
                }
                lane.advance(&transfers, first);
                levels += 1;
            }
            // Broadcast the root's consensus back down, top level first.
            for level in (0..levels).rev() {
                let stride = 1usize << level;
                let first = transfers.len();
                for w in (0..world - stride).step_by(2 * stride) {
                    let fate = reliable(&mut inj);
                    transfers.push(lane.transfer((w, w + stride), &(0..d), (level, 0), None, fate));
                }
                lane.advance(&transfers, first);
            }
        }
        PlanTopology::SegRing { macro_segments } => {
            if world < 2 {
                return Err(SyncError::TooFewWorkers {
                    needed: 2,
                    got: world,
                });
            }
            if macro_segments == 0 {
                return Err(SyncError::ZeroSegments);
            }
            let ranks: Vec<usize> = (0..world).collect();
            for (s, range) in segment_ranges(d, macro_segments).iter().enumerate() {
                if range.is_empty() {
                    continue;
                }
                let sub: Vec<Range<usize>> = segment_ranges(range.len(), world)
                    .into_iter()
                    .map(|r| range.start + r.start..range.start + r.end)
                    .collect();
                // Pipeline s starts s steps (and s trace slots) into the
                // shared ring; its hop telemetry claims the next window.
                let mut pipeline = Lane {
                    step: s,
                    slot: s,
                    seq: lane.seq,
                };
                compile_ring_into(
                    &mut transfers,
                    &mut pipeline,
                    &ranks,
                    &sub,
                    &vec![1; world],
                    s * world,
                    &mut inj,
                );
                lane.join(pipeline);
            }
        }
    }
    Ok(EnginePlan {
        topology,
        world,
        d,
        num_steps: lane.step,
        transfers,
    })
}

fn disconnected(e: TransportError) -> SyncError {
    match e {
        TransportError::PeerDisconnected { peer } => SyncError::PeerDisconnected { peer },
        // Wire corruption / socket errors mean the hub connection itself is
        // unusable; degrade the same way a vanished peer would.
        TransportError::Wire(_) | TransportError::Io(_) => {
            SyncError::PeerDisconnected { peer: usize::MAX }
        }
    }
}

/// Executes one rank's slice of `plan` over its transport endpoint.
///
/// Per step: this rank's sends go out first (current state of each payload
/// range), then each arriving payload is combined (or copied) into the
/// local vector with the compile-time [`CombineCtx`]. Returns the rank's
/// final full-length vector — at every rank this is the consensus once the
/// gather/broadcast copies have run.
///
/// # Errors
///
/// Returns [`SyncError::PeerDisconnected`] when a hop's peer is gone —
/// never panics on a dead peer.
///
/// # Panics
///
/// Panics if `init.len() != plan.d` or the transport's rank/world disagree
/// with the plan (programmer errors, not runtime conditions).
pub fn run_rank<T, F>(
    plan: &EnginePlan,
    init: &SignVec,
    transport: &mut T,
    mut combine: F,
) -> Result<SignVec, SyncError>
where
    T: Transport,
    F: FnMut(&SignVec, &mut SignVec, CombineCtx),
{
    let rank = transport.rank();
    assert_eq!(init.len(), plan.d, "payload length disagrees with plan");
    assert_eq!(transport.world(), plan.world, "world disagrees with plan");
    let mut rec = HopRecorder::begin();
    let mut state = init.clone();
    let mut received = SignVec::zeros(0);
    let mut mine: Vec<Vec<&PlannedTransfer>> = vec![Vec::new(); plan.num_steps];
    for t in &plan.transfers {
        if t.delivered && (t.sender == rank || t.receiver == rank) {
            mine[t.step].push(t);
        }
    }
    for step in &mine {
        for t in step.iter().filter(|t| t.sender == rank) {
            let payload = state.slice(t.start, t.len);
            let slot = t.delivery().expanded_step;
            let seq = rec.seq_of(slot).unwrap_or(slot as u64);
            transport
                .send_words_traced(t.receiver, payload.as_words(), seq)
                .map_err(disconnected)?;
        }
        for t in step.iter().filter(|t| t.receiver == rank) {
            let (words, ctx) = transport
                .recv_words_traced(t.sender)
                .map_err(disconnected)?;
            if words.len() != t.len.div_ceil(64) {
                return Err(SyncError::LengthMismatch {
                    expected: t.len,
                    got: words.len() * 64,
                });
            }
            received.assign_from_words(t.len, &words);
            match t.combine {
                Some(cctx) => {
                    let mut local = state.slice(t.start, t.len);
                    combine(&received, &mut local, cctx);
                    assert_eq!(local.len(), t.len, "combine changed segment length");
                    state.splice(t.start, &local);
                }
                None => state.splice(t.start, &received),
            }
            if rec.is_active() {
                // One hop event per delivered transfer — the final attempt of
                // the plan's own telemetry — recorded at the receiving end
                // where both clocks (sender's send_ns from the propagated
                // context, our own arrival time) are known.
                rec.hop_timed(
                    &t.delivery(),
                    HopTiming {
                        round: ctx.map(|c| c.round),
                        send_ns: ctx.map(|c| c.send_ns),
                        recv_ns: ctx.map(|_| wall_now_ns()),
                    },
                );
            }
        }
    }
    // Ranks receive on different step subsets; claim the full plan width so
    // every rank's next collective starts at the same absolute seq.
    rec.reserve_steps(plan.seq_width());
    Ok(state)
}

/// Drives every rank of `plan` from one thread in deterministic lockstep
/// over a simulated [`ChannelFabric`] — the simulator backend. The fabric's simulated clock advances by
/// the α–β price of each step's largest payload.
///
/// Returns each rank's final vector (index = rank).
///
/// # Errors
///
/// Propagates [`SyncError::PeerDisconnected`] from any rank.
///
/// # Panics
///
/// Panics if `inputs.len() != plan.world` or a payload length disagrees
/// with the plan.
pub fn run_lockstep<F>(
    plan: &EnginePlan,
    inputs: &[SignVec],
    link: LinkModel,
    mut combine: F,
) -> Result<Vec<SignVec>, SyncError>
where
    F: FnMut(&SignVec, &mut SignVec, CombineCtx),
{
    assert_eq!(inputs.len(), plan.world, "one input per rank");
    let fabric = ChannelFabric::new(plan.world, link);
    let mut endpoints: Vec<_> = (0..plan.world)
        .map(|r| fabric.endpoint(r, Backend::Simulator))
        .collect();
    let mut states: Vec<SignVec> = inputs.to_vec();
    let mut received = SignVec::zeros(0);
    for step in 0..plan.num_steps {
        let in_step: Vec<&PlannedTransfer> = plan
            .transfers
            .iter()
            .filter(|t| t.step == step && t.delivered)
            .collect();
        // All sends land in the fabric before any rank receives — the
        // lockstep barrier a single-threaded simulator gets for free.
        for t in &in_step {
            let payload = states[t.sender].slice(t.start, t.len);
            endpoints[t.sender]
                .send_words(t.receiver, payload.as_words())
                .map_err(disconnected)?;
        }
        for t in &in_step {
            let words = endpoints[t.receiver]
                .recv_words(t.sender)
                .map_err(disconnected)?;
            received.assign_from_words(t.len, &words);
            match t.combine {
                Some(ctx) => {
                    let mut local = states[t.receiver].slice(t.start, t.len);
                    combine(&received, &mut local, ctx);
                    assert_eq!(local.len(), t.len, "combine changed segment length");
                    states[t.receiver].splice(t.start, &local);
                }
                None => states[t.receiver].splice(t.start, &received),
            }
        }
        fabric.advance_sim_clock(plan.max_step_bytes(step));
    }
    Ok(states)
}

/// Drives every rank of `plan` on its own OS thread over a shared
/// [`ChannelFabric`] — real concurrency, deterministic results via the
/// ctx-addressed RNG contract. `make_combine(rank)` builds each thread's
/// combine closure.
///
/// Returns each rank's final vector (index = rank).
///
/// # Errors
///
/// Propagates the first rank's [`SyncError`] (by rank order).
///
/// # Panics
///
/// Panics if `inputs.len() != plan.world`, a payload length disagrees with
/// the plan, or a worker thread itself panics.
pub fn run_threaded<C, F>(
    plan: &EnginePlan,
    inputs: &[SignVec],
    link: LinkModel,
    make_combine: C,
) -> Result<Vec<SignVec>, SyncError>
where
    C: Fn(usize) -> F + Sync,
    F: FnMut(&SignVec, &mut SignVec, CombineCtx) + Send,
{
    assert_eq!(inputs.len(), plan.world, "one input per rank");
    let fabric = ChannelFabric::new(plan.world, link);
    let results: Vec<Result<SignVec, SyncError>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..plan.world)
            .map(|rank| {
                let mut transport = fabric.endpoint(rank, Backend::Threaded);
                let init = &inputs[rank];
                let combine = make_combine(rank);
                scope.spawn(move || run_rank(plan, init, &mut transport, combine))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker thread panicked"))
            .collect()
    });
    results.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use marsit_simnet::FaultPlan;
    use marsit_telemetry::{scoped, Telemetry};
    use marsit_tensor::rng::FastRng;

    use crate::ring::{
        ring_allreduce_onebit, ring_allreduce_onebit_faulty, ring_allreduce_onebit_weighted_hooked,
    };
    use crate::torus::{torus_allreduce_onebit, torus_allreduce_onebit_faulty};

    fn link() -> LinkModel {
        LinkModel::new(25e-6, 1.25e9)
    }

    fn signs(m: usize, d: usize, seed: u64) -> Vec<SignVec> {
        (0..m)
            .map(|w| {
                let mut rng = FastRng::new(seed, w as u64);
                SignVec::bernoulli_uniform(d, 0.5, &mut rng)
            })
            .collect()
    }

    /// The ctx-addressed majority-with-random-tiebreak combine used across
    /// the differential tests: deterministic given (seed, ctx), payload- and
    /// order-independent, like the production combine operators.
    fn ctx_combine(seed: u64) -> impl FnMut(&SignVec, &mut SignVec, CombineCtx) {
        move |recv: &SignVec, local: &mut SignVec, ctx: CombineCtx| {
            let key =
                ((ctx.receiver as u64) << 40) | ((ctx.segment as u64) << 20) | ctx.step as u64;
            let mut rng = FastRng::new(seed, key);
            let mask = SignVec::bernoulli_uniform(local.len(), 0.5, &mut rng);
            for i in 0..local.len() {
                let pick = if mask.get(i) {
                    recv.get(i)
                } else {
                    local.get(i)
                };
                local.set(i, pick);
            }
        }
    }

    /// Every `(topology, world)` shape over `m` ranks.
    fn shapes(m: usize) -> Vec<PlanTopology> {
        let mut out = vec![PlanTopology::Ring, PlanTopology::Tree];
        out.extend((1..=4).map(|macro_segments| PlanTopology::SegRing { macro_segments }));
        out.extend(
            (2..=m / 2)
                .filter(|&rows| m.is_multiple_of(rows) && m / rows >= 2)
                .map(|rows| PlanTopology::Torus {
                    rows,
                    cols: m / rows,
                }),
        );
        out
    }

    #[test]
    fn ring_lockstep_matches_legacy() {
        let (m, d, seed) = (8, 257, 11);
        let inputs = signs(m, d, seed);
        let (legacy, _) = ring_allreduce_onebit(&inputs, ctx_combine(seed));
        let plan = compile_plan(PlanTopology::Ring, m, d, None).unwrap();
        let out = run_lockstep(&plan, &inputs, link(), ctx_combine(seed)).unwrap();
        for state in &out {
            assert_eq!(state.as_words(), legacy.as_words());
        }
    }

    #[test]
    fn torus_lockstep_matches_legacy() {
        let (rows, cols, d, seed) = (2, 4, 301, 23);
        let inputs = signs(rows * cols, d, seed);
        let (legacy, _) = torus_allreduce_onebit(&inputs, rows, cols, ctx_combine(seed));
        let plan = compile_plan(PlanTopology::Torus { rows, cols }, rows * cols, d, None).unwrap();
        let out = run_lockstep(&plan, &inputs, link(), ctx_combine(seed)).unwrap();
        for state in &out {
            assert_eq!(state.as_words(), legacy.as_words());
        }
    }

    #[test]
    fn faulty_ring_matches_legacy_and_consumes_injector_identically() {
        let (m, d, seed) = (8, 193, 42);
        let inputs = signs(m, d, seed);
        let fault_plan = FaultPlan::seeded(seed).with_link_drop(0.2);
        let mut legacy_inj = fault_plan.injector(3);
        let (legacy, _) =
            ring_allreduce_onebit_faulty(&inputs, &mut legacy_inj, ctx_combine(seed)).unwrap();
        let mut engine_inj = fault_plan.injector(3);
        let plan = compile_plan(PlanTopology::Ring, m, d, Some(&mut engine_inj)).unwrap();
        let out = run_lockstep(&plan, &inputs, link(), ctx_combine(seed)).unwrap();
        for state in &out {
            assert_eq!(state.as_words(), legacy.as_words());
        }
        assert_eq!(legacy_inj.take_stats(), engine_inj.take_stats());
    }

    /// The plan's trace and hop events are the ring and torus collectives'
    /// own, retries and the torus's concurrent column rings included.
    #[test]
    fn plan_trace_and_hops_match_ring_and_torus_collectives() {
        let d = 301;
        for (topology, world) in [
            (PlanTopology::Ring, 8),
            (PlanTopology::Ring, 5),
            (PlanTopology::Torus { rows: 2, cols: 4 }, 8),
            (PlanTopology::Torus { rows: 3, cols: 3 }, 9),
        ] {
            let inputs = signs(world, d, 3);
            for drop_p in [None, Some(0.3)] {
                let injector =
                    || drop_p.map(|p| FaultPlan::seeded(9).with_link_drop(p).injector(1));
                let legacy_tel = Telemetry::recording();
                let legacy_trace = scoped(&legacy_tel, || {
                    let combine = |_: &SignVec, _: &mut SignVec, _: CombineCtx| {};
                    let (_, trace) = match (topology, injector()) {
                        (PlanTopology::Torus { rows, cols }, Some(mut inj)) => {
                            torus_allreduce_onebit_faulty(
                                &inputs,
                                rows,
                                cols,
                                &mut inj,
                                |_| {},
                                combine,
                            )
                            .unwrap()
                        }
                        (PlanTopology::Torus { rows, cols }, None) => {
                            torus_allreduce_onebit(&inputs, rows, cols, combine)
                        }
                        (_, Some(mut inj)) => {
                            ring_allreduce_onebit_faulty(&inputs, &mut inj, combine).unwrap()
                        }
                        (_, None) => {
                            ring_allreduce_onebit_weighted_hooked(&inputs, 1, |_| {}, combine)
                        }
                    };
                    trace
                });
                let plan_tel = Telemetry::recording();
                let plan_trace = scoped(&plan_tel, || {
                    let mut inj = injector();
                    let plan = compile_plan(topology, world, d, inj.as_mut()).unwrap();
                    plan.emit_hops();
                    plan.trace()
                });
                let label = format!("{topology:?} drop={drop_p:?}");
                assert_eq!(legacy_trace, plan_trace, "{label}: trace");
                assert_eq!(
                    legacy_tel.events_jsonl(),
                    plan_tel.events_jsonl(),
                    "{label}: hops"
                );
            }
        }
    }

    #[test]
    fn clean_plans_trace_one_step_per_engine_step() {
        for m in 2..=9 {
            for d in [1, 2, 3, 5, 10, m, 3 * m - 1, 100, 321] {
                for topology in shapes(m) {
                    let plan = compile_plan(topology, m, d, None).unwrap();
                    let label = format!("{topology:?} m={m} d={d}");
                    assert_eq!(plan.num_steps, plan.trace().num_steps(), "{label}");
                    assert!(plan.transfers.iter().all(|t| t.slot == t.step), "{label}");
                    let expected = match topology {
                        PlanTopology::Ring => 2 * (m - 1),
                        PlanTopology::Torus { rows, cols } => 2 * (rows - 1) + 2 * (cols - 1),
                        PlanTopology::Tree => 2 * m.next_power_of_two().trailing_zeros() as usize,
                        PlanTopology::SegRing { macro_segments } => {
                            2 * (m - 1) + macro_segments.min(d) - 1
                        }
                    };
                    assert_eq!(plan.num_steps, expected, "{label}");
                }
            }
        }
    }

    #[test]
    fn inert_injector_compiles_the_clean_plan() {
        for topology in shapes(8) {
            let clean = compile_plan(topology, 8, 77, None).unwrap();
            let mut inj = FaultInjector::inert();
            let inert = compile_plan(topology, 8, 77, Some(&mut inj)).unwrap();
            assert_eq!(clean, inert, "{topology:?}");
        }
    }

    #[test]
    fn impossible_shapes_are_typed_errors() {
        for topology in [PlanTopology::Ring, PlanTopology::Tree] {
            assert_eq!(
                compile_plan(topology, 1, 8, None),
                Err(SyncError::TooFewWorkers { needed: 2, got: 1 })
            );
        }
        let segring = PlanTopology::SegRing { macro_segments: 0 };
        assert_eq!(
            compile_plan(segring, 4, 8, None),
            Err(SyncError::ZeroSegments)
        );
        let torus = PlanTopology::Torus { rows: 2, cols: 3 };
        assert_eq!(
            compile_plan(torus, 5, 8, None),
            Err(SyncError::BadShape {
                rows: 2,
                cols: 3,
                workers: 5
            })
        );
    }

    #[test]
    fn segring_with_one_macro_segment_is_the_ring() {
        for (m, d) in [(5, 100), (4, 3)] {
            let ring = compile_plan(PlanTopology::Ring, m, d, None).unwrap();
            let seg =
                compile_plan(PlanTopology::SegRing { macro_segments: 1 }, m, d, None).unwrap();
            assert_eq!(ring.transfers, seg.transfers);
        }
    }

    #[test]
    fn segring_pipelines_keep_combine_streams_distinct() {
        let (m, d) = (3, 30);
        let plan = compile_plan(PlanTopology::SegRing { macro_segments: 2 }, m, d, None).unwrap();
        let keys: std::collections::HashSet<(usize, usize, usize)> = plan
            .transfers
            .iter()
            .filter_map(|t| t.combine)
            .map(|c| (c.segment, c.step, c.receiver))
            .collect();
        // 2 macro-segments × (m−1) steps × m combines, all distinct.
        assert_eq!(keys.len(), 2 * (m - 1) * m);
    }

    #[test]
    fn tree_plan_counts_cover_all_workers() {
        for m in [2usize, 3, 6, 8, 11] {
            let plan = compile_plan(PlanTopology::Tree, m, 24, None).unwrap();
            let root = plan
                .transfers
                .iter()
                .filter_map(|t| t.combine)
                .map(|c| c.received_count + c.local_count)
                .max();
            assert_eq!(root, Some(m), "m={m}");
            // Every transfer carries the full payload: 24 bits -> 3 bytes.
            assert!(plan.transfers.iter().all(|t| t.bytes() == 3), "m={m}");
        }
    }

    #[test]
    fn faulty_plans_are_deterministic_and_expand_retries() {
        let fault_plan = FaultPlan::seeded(2).with_link_drop(0.5);
        for topology in shapes(8) {
            let compile = || {
                let mut inj = fault_plan.injector(0);
                let plan = compile_plan(topology, 8, 64, Some(&mut inj)).unwrap();
                (plan, inj.take_stats())
            };
            let (plan, stats) = compile();
            assert_eq!((plan.clone(), stats), compile(), "{topology:?}");
            assert!(stats.retransmits > 0, "{topology:?}");
            // Dropped reduce hops exclude the sender's aggregate, so no
            // combine ever reports more than the world.
            assert!(plan
                .transfers
                .iter()
                .filter_map(|t| t.combine)
                .all(|c| c.received_count + c.local_count <= 8));
            let trace = plan.trace();
            let attempts: usize = plan.transfers.iter().map(|t| t.attempts as usize).sum();
            assert_eq!(trace.steps().iter().map(Vec::len).sum::<usize>(), attempts);
            assert!(trace.num_steps() > plan.num_steps, "{topology:?}");
        }
    }

    /// With no retries, a lost reduce hop leaves the child's whole subtree
    /// out of every count above it: the root aggregates exactly the workers
    /// whose path to it delivered.
    #[test]
    fn faulty_tree_drops_exclude_whole_subtrees() {
        let (m, d, seed) = (8, 32, 43);
        let fault_plan = FaultPlan::seeded(2)
            .with_link_drop(0.5)
            .with_retry_policy(0, 1e-4);
        let mut inj = fault_plan.injector(0);
        let plan = compile_plan(PlanTopology::Tree, m, d, Some(&mut inj)).unwrap();
        assert!(inj.stats().dropped_transfers > 0);
        let lost: usize = plan
            .transfers
            .iter()
            .filter(|t| !t.delivered)
            .map(|t| t.combine.expect("only reduce hops are best-effort"))
            .map(|c| c.received_count)
            .sum();
        assert!(lost > 0, "some reduce hop must be lost");
        let mut root_total = 1;
        run_lockstep(&plan, &signs(m, d, seed), link(), |r, l, ctx| {
            if ctx.receiver == 0 {
                root_total = root_total.max(ctx.received_count + ctx.local_count);
            }
            l.copy_from(r);
        })
        .unwrap();
        assert!(root_total < m);
        assert_eq!(root_total, m - lost);
    }

    #[test]
    fn threaded_matches_lockstep_bit_for_bit() {
        let (m, d, seed) = (8, 511, 77);
        let inputs = signs(m, d, seed);
        for topology in shapes(m) {
            let plan = compile_plan(topology, m, d, None).unwrap();
            let lock = run_lockstep(&plan, &inputs, link(), ctx_combine(seed)).unwrap();
            for _ in 0..5 {
                let thr = run_threaded(&plan, &inputs, link(), |_| ctx_combine(seed)).unwrap();
                for (a, b) in lock.iter().zip(&thr) {
                    assert_eq!(a.as_words(), b.as_words(), "{topology:?}");
                }
            }
        }
    }
}
