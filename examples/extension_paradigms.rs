//! The paper's extension claim, demonstrated: "Marsit can be easily
//! extended to other all-reduce paradigms including segmented-ring
//! all-reduce and tree all-reduce" — plus the gossip paradigm the
//! introduction rules out.
//!
//! ```text
//! cargo run --release --example extension_paradigms
//! ```

use marsit::collectives::{compile_plan, run_lockstep, PlanTopology};
use marsit::core::ominus::combine_weighted_assign;
use marsit::prelude::*;
use marsit::trainsim::train_gossip;

fn main() {
    one_bit_over_every_paradigm();
    gossip_vs_marsit();
}

/// The same worker sign vectors, all-reduced with ⊙ over three different
/// multi-hop paradigms: each stays one bit per hop and each is an unbiased
/// estimator of the mean sign.
fn one_bit_over_every_paradigm() {
    let m = 8;
    let d = 4096;
    let mut seed_rng = FastRng::new(1, 0);
    let signs: Vec<SignVec> = (0..m)
        .map(|_| SignVec::bernoulli_uniform(d, 0.5, &mut seed_rng))
        .collect();

    println!("== One-bit ⊙ all-reduce over three paradigms (M = {m}, D = {d}) ==\n");
    println!(
        "{:<18} {:>7} {:>12} {:>16}",
        "paradigm", "steps", "total bytes", "E[bit] error"
    );
    let trials = 400u64;
    let link = RateProfile::public_cloud().link;
    for (paradigm, topology) in [
        ("ring (RAR)", PlanTopology::Ring),
        (
            "segmented ring",
            PlanTopology::SegRing { macro_segments: 4 },
        ),
        ("binary tree", PlanTopology::Tree),
    ] {
        let plan = compile_plan(topology, m, d, None).expect("valid shape");
        let trace = plan.trace();
        let mut ones = vec![0u32; d];
        for trial in 0..trials {
            let mut rng = FastRng::new(100 + trial, 0);
            let combine = |r: &SignVec, l: &mut SignVec, ctx: marsit::collectives::CombineCtx| {
                combine_weighted_assign(r, ctx.received_count, l, ctx.local_count, &mut rng);
            };
            let out = run_lockstep(&plan, &signs, link, combine).expect("clean plans run");
            for (j, o) in ones.iter_mut().enumerate() {
                *o += u32::from(out[0].get(j));
            }
        }
        // Mean absolute deviation of E[bit] from the true mean sign rate.
        let mut err = 0.0;
        for (j, &o) in ones.iter().enumerate() {
            let measured = f64::from(o) / trials as f64;
            let expected = signs.iter().filter(|v| v.get(j)).count() as f64 / m as f64;
            err += (measured - expected).abs();
        }
        println!(
            "{:<18} {:>7} {:>12} {:>16.4}",
            paradigm,
            trace.num_steps(),
            trace.total_bytes(),
            err / d as f64
        );
    }
    println!(
        "\nAll three stay unbiased because the weighted ⊙ accepts merges of\n\
         arbitrary aggregate sizes — the tree merges subtrees, the torus merges\n\
         row aggregates, Eq. (2) is the chain special case.\n"
    );
}

/// Why the paper builds on all-reduce instead of gossip.
fn gossip_vs_marsit() {
    println!("== Gossip vs Marsit at the same round budget (MNIST proxy) ==\n");
    let m = 8;
    let rounds = 150;
    let mut cfg = TrainConfig::new(
        Workload::AlexNetMnist,
        Topology::ring(m),
        StrategyKind::Marsit { k: None },
    );
    cfg.rounds = rounds;
    cfg.train_examples = 4096;
    cfg.test_examples = 1024;
    cfg.batch_per_worker = 32;
    cfg.local_lr = 0.01;
    cfg.marsit_global_lr = 0.002;
    cfg.eval_every = 0;
    let marsit = train(&cfg);

    let mut gossip_cfg = cfg.clone();
    gossip_cfg.local_lr = 0.05;
    gossip_cfg.optimizer = OptimizerKind::Sgd;
    let gossip = train_gossip(&gossip_cfg);

    println!(
        "Marsit (1 bit/hop):        acc {:>6.2}%  traffic {:>7.1} MiB",
        marsit.final_eval.accuracy * 100.0,
        marsit.total_bytes as f64 / (1 << 20) as f64
    );
    println!(
        "Gossip (fp32 neighbours):  acc {:>6.2}%  consensus error {:.2e}",
        gossip.final_eval.accuracy * 100.0,
        gossip.final_consensus_error
    );
    println!(
        "\nGossip never reaches consensus (its replicas still disagree at the end)\n\
         and mixes at O(1/M²) on a ring — the introduction's reason to prefer MAR."
    );
}
