//! The parallel observation engine must be invisible in the results:
//! same seeds ⇒ same observations, for every thread count, and the
//! thin sequential wrappers must keep the documented seed schedule
//! (`child_seed(cfg.seed, 1000 + i)` for the `i`-th observation).

use poisonrec::{ActionSpaceKind, PoisonRecConfig, PoisonRecTrainer, PolicyConfig, PpoConfig};
use recsys::data::{LogView, Trajectory};
use recsys::rankers::RankerKind;
use recsys::system::{BlackBoxSystem, Observation, SystemConfig};
use runtime::WorkerPool;
use tensor::wire::Codec;

fn build_system(ranker: RankerKind, seed: u64) -> BlackBoxSystem {
    let data = datasets::PaperDataset::Phone.generate_scaled(0.03, seed);
    let boxed = ranker.build(&LogView::clean(&data), 16);
    BlackBoxSystem::build(
        data,
        boxed,
        SystemConfig {
            eval_users: 48,
            reserve_attackers: 16,
            seed,
            ..SystemConfig::default()
        },
    )
}

fn poisons(system: &BlackBoxSystem, n: usize) -> Vec<Vec<Trajectory>> {
    let info = system.public_info();
    (0..n)
        .map(|i| {
            let target = info.target_items[i % info.target_items.len()];
            let filler = (i as u32 * 7) % info.num_items;
            vec![vec![target, filler, target, target]; 1 + i % 4]
        })
        .collect()
}

#[test]
fn observe_batch_is_thread_count_invariant() {
    // Same batch, fresh identically-seeded systems, thread counts 1
    // and 8 on explicit pools: the Observation vectors must be equal
    // down to the last bit (PartialEq covers rec_num, seed, lists).
    for ranker in [RankerKind::ItemPop, RankerKind::Bpr] {
        let batch = poisons(&build_system(ranker, 7), 10);

        let sys1 = build_system(ranker, 7);
        let pool1 = WorkerPool::new(0);
        let obs1: Vec<Observation> = sys1.observe_batch_on(&pool1, &batch, 1);

        let sys8 = build_system(ranker, 7);
        let pool8 = WorkerPool::new(7);
        let obs8: Vec<Observation> = sys8.observe_batch_on(&pool8, &batch, 8);

        assert_eq!(obs1, obs8, "{ranker}: thread count changed observations");
    }
}

#[test]
fn observe_batch_matches_sequential_wrapper_stream() {
    // A batched call must consume exactly the same seed schedule as
    // the same observations made one by one through the wrapper.
    let batch = poisons(&build_system(RankerKind::ItemPop, 9), 6);

    let seq_sys = build_system(RankerKind::ItemPop, 9);
    let sequential: Vec<u32> = batch
        .iter()
        .map(|p| seq_sys.inject_and_observe(p))
        .collect();

    let batch_sys = build_system(RankerKind::ItemPop, 9);
    let batched: Vec<u32> = batch_sys
        .observe_batch(&batch, 4)
        .into_iter()
        .map(|o| o.rec_num)
        .collect();

    assert_eq!(sequential, batched);
}

#[test]
fn wrapper_rewards_follow_documented_seed_formula() {
    // The pre-batching observation contract: observation `i` of a
    // system's lifetime retrains with `child_seed(cfg.seed, 1000 + i)`.
    // The seeded wrapper replays it exactly.
    let live = build_system(RankerKind::CoVisitation, 21);
    let replay = build_system(RankerKind::CoVisitation, 21);
    let batch = poisons(&live, 5);
    for (i, poison) in batch.iter().enumerate() {
        let obs = live.observe(poison);
        let expected_seed = recsys::rankers::common::child_seed(21, 1000 + i as u64);
        assert_eq!(obs.seed, expected_seed, "observation {i} seed drifted");
        assert_eq!(
            obs.rec_num,
            replay.inject_and_observe_seeded(poison, expected_seed),
            "observation {i} not reproducible from its seed"
        );
    }
}

#[test]
fn interleaved_batches_and_singles_share_one_counter() {
    // Mixing the batched and single-observation paths must walk the
    // same global seed schedule as an all-sequential run.
    let mixed = build_system(RankerKind::ItemPop, 33);
    let sequential = build_system(RankerKind::ItemPop, 33);
    let batch = poisons(&mixed, 7);

    let mut mixed_rewards: Vec<u32> = Vec::new();
    mixed_rewards.push(mixed.observe(&batch[0]).rec_num);
    mixed_rewards.extend(
        mixed
            .observe_batch(&batch[1..4], 3)
            .into_iter()
            .map(|o| o.rec_num),
    );
    mixed_rewards.push(mixed.observe(&batch[4]).rec_num);
    mixed_rewards.extend(
        mixed
            .observe_batch(&batch[5..], 2)
            .into_iter()
            .map(|o| o.rec_num),
    );

    let sequential_rewards: Vec<u32> = batch
        .iter()
        .map(|p| sequential.inject_and_observe(p))
        .collect();

    assert_eq!(mixed_rewards, sequential_rewards);
}

#[test]
fn gradients_are_kernel_thread_count_invariant() {
    // The update path's three products (matmul forward, matmul_t
    // logits, and their backward t_matmul/matmul pairs) at shapes big
    // enough to engage the parallel kernel dispatch: parameter
    // gradients must be bit-identical at every kernel thread count.
    use tensor::{GradStore, Graph, Matrix, ParamSet};

    fn fill(rows: usize, cols: usize, seed: u64) -> Matrix {
        let mut state = seed ^ 0x9e37_79b9_7f4a_7c15;
        let data = (0..rows * cols)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((state >> 40) as f32 / (1u64 << 24) as f32) - 0.5
            })
            .collect();
        Matrix::from_vec(rows, cols, data)
    }

    let grads_at = |threads: usize| -> Vec<Vec<u32>> {
        tensor::kernel::set_threads(threads);
        let mut params = ParamSet::new();
        let w = params.add("w", fill(96, 64, 3));
        let emb = params.add("emb", fill(200, 64, 5));
        let mut grads = GradStore::zeros_like(&params);
        let mut g = Graph::new(&params);
        let x = g.input(fill(48, 96, 9));
        let wv = g.param(w);
        let h = g.matmul(x, wv); // 48 x 64
        let table = g.param(emb);
        let logits = g.matmul_t(h, table); // 48 x 200
        let lp = g.log_softmax_rows(logits);
        let idx: Vec<u32> = (0..48).map(|r| (r * 37) % 200).collect();
        let picked = g.pick_per_row(lp, &idx);
        let loss = g.sum_all(picked);
        g.backward(loss, &mut grads);
        tensor::kernel::set_threads(1);
        [w, emb]
            .iter()
            .map(|&id| grads.get(id).data().iter().map(|v| v.to_bits()).collect())
            .collect()
    };

    let g1 = grads_at(1);
    assert_eq!(g1, grads_at(4), "kernel threads=4 changed gradients");
    assert_eq!(g1, grads_at(8), "kernel threads=8 changed gradients");
}

/// A short PoisonRec run on `ranker` under action space `kind`, with
/// `threads` bounding both the scoring and the update fan-out.
fn train_cell(
    ranker: RankerKind,
    kind: ActionSpaceKind,
    threads: usize,
    steps: usize,
) -> PoisonRecTrainer {
    let system = build_system(ranker, 13);
    let cfg = PoisonRecConfig::builder()
        .seed(13)
        .threads(threads)
        .action_space(kind)
        // N · T · e = 4096: large enough that the update fans its
        // episode replays out over the pool (ppo::PAR_MIN_REPLAY_ELEMS).
        .policy(PolicyConfig {
            dim: 16,
            num_attackers: 16,
            trajectory_len: 16,
            init_scale: 0.1,
        })
        .ppo(PpoConfig {
            samples_per_step: 8,
            batch: 8,
            epochs: 2,
            ..PpoConfig::default()
        })
        .build_for(&system)
        .expect("valid config");
    let mut trainer = PoisonRecTrainer::new(cfg, &system);
    trainer.train(&system, steps);
    trainer
}

/// Fails unless some step had a learning signal: rewards that vary
/// within the step (so Eq. 8 advantages are not all zero) and a
/// non-zero mean decision weight (so the update really moved the
/// policy). Without this, bit-identity of a policy that no gradient
/// reached would prove nothing about the update.
fn assert_update_ran(trainer: &PoisonRecTrainer, what: &str) {
    let learned = trainer
        .history()
        .iter()
        .filter(|s| s.max_reward > s.mean_reward && s.ppo_signal > 0.0)
        .count();
    assert!(
        learned > 0,
        "{what}: no step had a non-zero advantage, so no update ran"
    );
}

/// The bit patterns of every policy parameter and of the Adam state
/// (step counter and both moment sets), in the checkpoint encoding.
fn update_state_bytes(trainer: &PoisonRecTrainer) -> (Vec<u8>, Vec<u8>) {
    let state = trainer.export_state();
    (state.params.to_bytes(), state.optimizer.to_bytes())
}

#[test]
fn ppo_update_is_bit_identical_at_any_thread_count() {
    // The update replays a batch's episodes on the worker pool and
    // folds their gradients in batch order. BCBT exercises the fused
    // pair-logit block; Plain exercises the flat-softmax range groups.
    // Every parameter and Adam moment must match bit for bit at every
    // thread count, and the parameters must hash to the value the
    // sequential update produced (recorded before the fan-out existed).
    for (kind, pinned) in [
        (ActionSpaceKind::BcbtPopular, PINNED_BCBT),
        (ActionSpaceKind::Plain, PINNED_PLAIN),
    ] {
        let reference = train_cell(RankerKind::CoVisitation, kind, 1, 3);
        assert_update_ran(&reference, &format!("{kind} threads=1"));
        let (params, moments) = update_state_bytes(&reference);
        assert_eq!(
            poisonrec::checkpoint::fnv1a64(&params),
            pinned,
            "{kind}: parameters after 3 steps drifted from the pinned hash"
        );
        for threads in [2, 8] {
            let trainer = train_cell(RankerKind::CoVisitation, kind, threads, 3);
            assert_update_ran(&trainer, &format!("{kind} threads={threads}"));
            let (p, m) = update_state_bytes(&trainer);
            assert!(p == params, "{kind}: threads={threads} changed parameters");
            assert!(m == moments, "{kind}: threads={threads} changed Adam state");
        }
    }
}

/// FNV-1a of the encoded parameters after 3 steps of the cells above.
const PINNED_BCBT: u64 = 4323019131784715989;
const PINNED_PLAIN: u64 = 16509247242914945773;

#[test]
fn full_training_run_is_thread_count_invariant() {
    // End-to-end: a short PoisonRec run against a real (BPR) system
    // produces identical telemetry and an identical policy whether
    // the scoring and update phases run on one thread or eight.
    let t1 = train_cell(RankerKind::Bpr, ActionSpaceKind::BcbtPopular, 1, 2);
    let t8 = train_cell(RankerKind::Bpr, ActionSpaceKind::BcbtPopular, 8, 2);
    assert_update_ran(&t1, "BPR threads=1");
    for (a, b) in t1.history().iter().zip(t8.history()) {
        assert_eq!(a.mean_reward, b.mean_reward);
        assert_eq!(a.max_reward, b.max_reward);
        assert_eq!(a.ppo_signal, b.ppo_signal);
        assert_eq!(a.target_click_ratio, b.target_click_ratio);
    }
    assert!(
        update_state_bytes(&t1) == update_state_bytes(&t8),
        "thread count changed the trained policy or its Adam state"
    );
}
