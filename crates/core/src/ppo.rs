//! PPO model solving (paper §III-D): clipped surrogate objective
//! (Eq. 7 / Eq. 9 with BCBT) over batches of sampled episodes, with
//! batch reward normalization (Eq. 8).
//!
//! Implementation note: rather than building `exp`/`min`/`clip` nodes,
//! we use the standard identity that the clipped-surrogate gradient for
//! one decision is either `0` (when the ratio is clipped against the
//! advantage sign) or `Â · ratio · ∇ log π(a|s)`. Ratios are computed
//! eagerly from replayed log-probability values, turned into constant
//! per-decision weights, and applied to the log-probability columns.
//!
//! ## Parallel update
//!
//! Every episode of a batch is replayed against the same frozen
//! parameters, so the replays (forward, decision weights, backward)
//! are independent: [`PpoUpdater::update_batch`] runs them as jobs on
//! [`runtime::global`], each on its own [`GraphArena`] (at most one per
//! pool lane) and into its own [`GradJournal`]. The journals fold into
//! the shared [`GradStore`] in batch order, each as soon as its
//! predecessors have landed, and the decision weights are summed in
//! batch order afterwards. The store thus receives exactly the `+=`
//! calls of a sequential sweep, so parameters, Adam moments and the
//! `ppo_signal` diagnostic are bit-identical at any thread count. At
//! `threads = 1`, or for replays below `PAR_MIN_REPLAY_ELEMS`, the
//! same jobs run inline on the caller.

use std::sync::Mutex;

use runtime::Job;
use tensor::optim::{Adam, Optimizer};
use tensor::util::{mean, std_dev};
use tensor::{GradJournal, GradStore, GraphArena, Matrix};

use crate::policy::{Episode, PolicyNetwork};

/// PPO hyperparameters (paper defaults in parentheses).
#[derive(Copy, Clone, Debug)]
pub struct PpoConfig {
    /// Adam learning rate α (2e-3).
    pub lr: f32,
    /// Clip range ε (0.1).
    pub clip_eps: f32,
    /// Optimization epochs per training step, `K` (3).
    pub epochs: usize,
    /// Batch size `B` (32).
    pub batch: usize,
    /// Episodes sampled per training step, `M` (32).
    pub samples_per_step: usize,
    /// Apply Eq. 8 batch reward normalization (ablatable).
    pub normalize_rewards: bool,
    /// Use the clipped surrogate; `false` degrades to REINFORCE
    /// (ablation).
    pub use_clip: bool,
    /// Global gradient-norm clip (training stability guard).
    pub max_grad_norm: f32,
}

impl Default for PpoConfig {
    fn default() -> Self {
        Self {
            lr: 2e-3,
            clip_eps: 0.1,
            epochs: 3,
            batch: 32,
            samples_per_step: 32,
            normalize_rewards: true,
            use_clip: true,
            max_grad_norm: 5.0,
        }
    }
}

/// Eq. 8: standardize a batch of rewards. A zero-variance batch maps to
/// all-zero advantages (no learning signal, no division blow-up).
pub fn normalize_rewards(rewards: &[f32]) -> Vec<f32> {
    let mu = mean(rewards);
    let sigma = std_dev(rewards);
    if sigma < 1e-6 {
        return vec![0.0; rewards.len()];
    }
    rewards.iter().map(|&r| (r - mu) / sigma).collect()
}

/// Smallest replay worth a helper lane, in recurrent activation
/// elements (`N · T · e`, which the replay tape scales with). Each
/// concurrent replay holds its own tape, journal and index vectors,
/// and a helper lane's allocations live in that thread's allocator
/// heap. On the perfbench `attack-wire` cell (`16 · 20 · 4` = 1280) a
/// second lane raised peak RSS from 8.3 to 9.9 MB (+20%) for 20% more
/// observations per second, so replays that small run on the calling
/// thread; the `attack-local` cell (`20 · 20 · 16` = 6400) fans out.
const PAR_MIN_REPLAY_ELEMS: usize = 4096;

/// A poisoned lock means a replay job panicked while holding it; the
/// pool re-raises that job's own panic once the batch settles.
const POISONED: &str = "a replay job panicked";

/// Folds per-episode [`GradJournal`]s into one [`GradStore`] in batch
/// order, whatever order the episodes finish in: a journal that lands
/// early is parked until every predecessor has been applied. The store
/// therefore receives exactly the `+=` sequence of a sequential sweep
/// over the batch.
struct OrderedFold {
    state: Mutex<FoldState>,
}

struct FoldState {
    grads: GradStore,
    /// Slot of the next journal to apply.
    next: usize,
    parked: Vec<Option<GradJournal>>,
    /// Applied (so empty) journals, reused by later replays.
    spare: Vec<GradJournal>,
}

impl OrderedFold {
    fn new(grads: GradStore, slots: usize, spare: Vec<GradJournal>) -> Self {
        Self {
            state: Mutex::new(FoldState {
                grads,
                next: 0,
                parked: (0..slots).map(|_| None).collect(),
                spare,
            }),
        }
    }

    /// An empty journal for the next replay.
    fn journal(&self) -> GradJournal {
        let mut state = self.state.lock().expect(POISONED);
        state.spare.pop().unwrap_or_default()
    }

    /// Hands in slot `slot`'s journal, then applies every journal whose
    /// predecessors have all landed.
    fn land(&self, slot: usize, journal: GradJournal) {
        let mut state = self.state.lock().expect(POISONED);
        let state = &mut *state;
        state.parked[slot] = Some(journal);
        while let Some(mut journal) = state.parked.get_mut(state.next).and_then(Option::take) {
            journal.apply(&mut state.grads);
            state.spare.push(journal);
            state.next += 1;
        }
    }

    /// The folded gradients, and the emptied journals for reuse.
    ///
    /// # Panics
    /// Panics if some slot never landed.
    fn finish(self) -> (GradStore, Vec<GradJournal>) {
        let state = self.state.into_inner().expect(POISONED);
        assert_eq!(state.next, state.parked.len(), "a journal never landed");
        (state.grads, state.spare)
    }
}

/// One episode's contribution to a PPO update: its logged gradient
/// adds and, per decision in replay order, the decision weight.
struct Replay {
    journal: GradJournal,
    weights: Vec<f32>,
}

/// Replays one episode under `policy`'s current (frozen) parameters
/// and logs the clipped-surrogate gradient into a journal; the
/// objective is averaged over the episode's decisions and the
/// `batch_len` episodes of its batch.
fn replay_episode(
    cfg: &PpoConfig,
    policy: &PolicyNetwork,
    ep: &Episode,
    adv: f32,
    batch_len: usize,
    arena: &mut GraphArena,
    mut journal: GradJournal,
) -> Replay {
    let total = ep.num_decisions().max(1) as f32;
    let mut all_weights = Vec::with_capacity(ep.num_decisions());
    let (mut g, groups) = policy.replay_logps_in(ep, arena);
    for (var, olds) in &groups {
        let col = g.value(*var); // K x 1 new logps
        let k = olds.len();
        let mut weights = Vec::with_capacity(k);
        for (r, &old) in olds.iter().enumerate() {
            let ratio = (col.at(r, 0) - old).exp();
            let w = if cfg.use_clip {
                let clipped_out = (adv > 0.0 && ratio > 1.0 + cfg.clip_eps)
                    || (adv < 0.0 && ratio < 1.0 - cfg.clip_eps);
                if clipped_out {
                    0.0
                } else {
                    adv * ratio
                }
            } else {
                adv
            };
            weights.push(w);
        }
        all_weights.extend_from_slice(&weights);
        if weights.iter().all(|&w| w == 0.0) {
            continue;
        }
        let w_in = g.input(Matrix::from_vec(k, 1, weights));
        let weighted = g.mul(*var, w_in);
        let obj = g.sum_all(weighted);
        // Maximize the surrogate: minimize its negation, averaged over
        // the episode's decisions and the batch.
        let scale = -1.0 / (total * batch_len as f32);
        g.backward_weighted(obj, scale, &mut journal);
    }
    g.retire(arena);
    Replay {
        journal,
        weights: all_weights,
    }
}

/// Stateful PPO optimizer over a [`PolicyNetwork`].
pub struct PpoUpdater {
    cfg: PpoConfig,
    opt: Adam,
    /// Replay-graph allocations recycled across `update_batch` calls,
    /// at most one per concurrently running replay (scratch only —
    /// never checkpointed, never affects results).
    arenas: Mutex<Vec<GraphArena>>,
    /// Empty journals recycled across calls, so logging a replay's
    /// gradient allocates nothing in the steady state.
    journals: Vec<GradJournal>,
    /// Gradient buffers recycled across calls (zeroed before each use).
    grads: Option<GradStore>,
}

impl PpoUpdater {
    pub fn new(cfg: PpoConfig, policy: &PolicyNetwork) -> Self {
        let opt = Adam::new(policy.params(), cfg.lr);
        Self {
            cfg,
            opt,
            arenas: Mutex::new(Vec::new()),
            journals: Vec::new(),
            grads: None,
        }
    }

    pub fn config(&self) -> &PpoConfig {
        &self.cfg
    }

    /// The Adam state (moments + step counter), for checkpointing.
    pub fn optimizer(&self) -> &Adam {
        &self.opt
    }

    /// Replaces the Adam state with one restored from a checkpoint.
    /// The caller (the checkpoint decoder) is responsible for having
    /// validated that `opt` matches the policy's parameter arity.
    pub(crate) fn restore_optimizer(&mut self, opt: Adam) {
        self.opt = opt;
    }

    /// One gradient step over a batch of `(episode, advantage)` pairs,
    /// with up to `threads` episodes replayed at once on
    /// [`runtime::global`] (one at a time when the policy's replays are
    /// too small to pay for a helper lane's memory). Returns the mean absolute decision weight
    /// (a learning-signal diagnostic: 0 means everything was clipped or
    /// advantages were 0).
    ///
    /// Every replay reads the same frozen parameters, so each logs its
    /// gradient into its own [`GradJournal`]; the journals fold into
    /// the gradient store in batch order, and weights are summed in
    /// batch order too. The step is bit-identical at any `threads`.
    pub fn update_batch(
        &mut self,
        policy: &mut PolicyNetwork,
        episodes: &[&Episode],
        advantages: &[f32],
        threads: usize,
    ) -> f32 {
        assert_eq!(episodes.len(), advantages.len());
        let grads = match self.grads.take() {
            Some(mut grads) => {
                grads.zero();
                grads
            }
            None => policy.zero_grads(),
        };
        // Zero-advantage episodes carry no gradient and no weight.
        let work: Vec<(&Episode, f32)> = episodes
            .iter()
            .zip(advantages)
            .filter(|(_, &adv)| adv != 0.0)
            .map(|(&ep, &adv)| (ep, adv))
            .collect();
        let fold = OrderedFold::new(grads, work.len(), std::mem::take(&mut self.journals));
        let (cfg, frozen, arenas) = (&self.cfg, &*policy, &self.arenas);
        let jobs: Vec<Job<'_, Vec<f32>>> = work
            .iter()
            .enumerate()
            .map(|(slot, &(ep, adv))| {
                let fold = &fold;
                Box::new(move || {
                    let mut arena = arenas.lock().expect(POISONED).pop().unwrap_or_default();
                    let journal = fold.journal();
                    let replay =
                        replay_episode(cfg, frozen, ep, adv, episodes.len(), &mut arena, journal);
                    fold.land(slot, replay.journal);
                    arenas.lock().expect(POISONED).push(arena);
                    replay.weights
                }) as Job<'_, Vec<f32>>
            })
            .collect();
        let pc = frozen.config();
        let replay_elems = pc.num_attackers * pc.trajectory_len * pc.dim;
        let lanes = if replay_elems >= PAR_MIN_REPLAY_ELEMS {
            threads
        } else {
            1
        };
        let weights = runtime::global().run(lanes, jobs);
        // Keep one arena for the next update and drop the others: that
        // measured a lower peak RSS than keeping one per lane.
        self.arenas.get_mut().expect(POISONED).truncate(1);

        let (mut grads, journals) = fold.finish();
        self.journals = journals;
        grads.clip_global_norm(self.cfg.max_grad_norm);
        self.opt.step(policy.params_mut(), &grads);
        self.grads = Some(grads);

        let mut weight_mass = 0.0f32;
        let mut n_decisions = 0usize;
        for w in weights.iter().flatten() {
            weight_mass += w.abs();
            n_decisions += 1;
        }
        if n_decisions == 0 {
            0.0
        } else {
            weight_mass / n_decisions as f32
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::{ActionSpace, ActionSpaceKind};
    use crate::policy::PolicyConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn normalization_matches_eq8() {
        let r = [1.0, 2.0, 3.0, 4.0];
        let n = normalize_rewards(&r);
        assert!((mean(&n)).abs() < 1e-6);
        assert!((std_dev(&n) - 1.0).abs() < 1e-5);
        // Order preserved.
        assert!(n[0] < n[1] && n[1] < n[2] && n[2] < n[3]);
    }

    /// Journals that land out of order (completion order 2, 0, 3, 1)
    /// must fold exactly as in batch order. The adds are chosen so f32
    /// rounding makes the sum order-sensitive: landing order would
    /// give different bits.
    #[test]
    fn fold_applies_journals_in_batch_order() {
        use tensor::{GradSink, ParamSet};

        let mut params = ParamSet::new();
        let w = params.add("w", Matrix::zeros(1, 2));
        let t = params.add("t", Matrix::zeros(3, 1));
        let values = [1.0e8f32, 1.0, -1.0e8, 1.0];
        let journal = |i: usize| {
            let mut j = GradJournal::new();
            j.add(w, &Matrix::from_vec(1, 2, vec![values[i], -values[i]]));
            let rows = Matrix::from_vec(2, 1, vec![values[i], values[(i + 1) % 4]]);
            j.add_rows(t, &[2, 0], &rows);
            j
        };
        let bits = |g: &GradStore| -> Vec<u32> {
            [w, t]
                .iter()
                .flat_map(|&id| g.get(id).data().iter().map(|v| v.to_bits()))
                .collect()
        };
        let completion = [2, 0, 3, 1];

        let mut batch_order = GradStore::zeros_like(&params);
        (0..4).for_each(|i| journal(i).apply(&mut batch_order));
        let mut landing_order = GradStore::zeros_like(&params);
        completion
            .iter()
            .for_each(|&i| journal(i).apply(&mut landing_order));
        assert_ne!(
            bits(&batch_order),
            bits(&landing_order),
            "data is order-blind"
        );

        let fold = OrderedFold::new(GradStore::zeros_like(&params), 4, Vec::new());
        for &slot in &completion {
            fold.land(slot, journal(slot));
        }
        let (folded, spare) = fold.finish();
        assert_eq!(bits(&folded), bits(&batch_order));
        assert!(spare.len() == 4 && spare.iter().all(GradJournal::is_empty));
    }

    #[test]
    fn zero_variance_rewards_give_zero_advantage() {
        assert_eq!(normalize_rewards(&[5.0, 5.0, 5.0]), vec![0.0; 3]);
    }

    fn setup() -> (PolicyNetwork, ActionSpace) {
        let popularity: Vec<u32> = (0..40).map(|i| 80 - i).collect();
        let space = ActionSpace::build(ActionSpaceKind::BcbtPopular, 40, 4, &popularity, 3);
        let cfg = PolicyConfig {
            dim: 8,
            num_attackers: 4,
            trajectory_len: 6,
            init_scale: 0.1,
        };
        let policy = PolicyNetwork::new(cfg, &space, 11);
        (policy, space)
    }

    /// Reward = number of clicks on target items. PPO must shift the
    /// policy toward targets.
    #[test]
    fn ppo_increases_rewarded_behavior() {
        let (mut policy, space) = setup();
        let ppo_cfg = PpoConfig {
            lr: 0.02,
            batch: 8,
            samples_per_step: 8,
            ..PpoConfig::default()
        };
        let mut updater = PpoUpdater::new(ppo_cfg, &policy);
        let mut rng = StdRng::seed_from_u64(4);

        let ratio_before = average_target_ratio(&policy, &space, &mut rng);
        for _ in 0..25 {
            let episodes: Vec<_> = (0..8)
                .map(|_| {
                    let mut ep = policy.sample_episode(&space, &mut rng);
                    ep.reward = ep
                        .trajectories
                        .iter()
                        .flatten()
                        .filter(|&&i| i >= 40)
                        .count() as f32;
                    ep
                })
                .collect();
            let rewards: Vec<f32> = episodes.iter().map(|e| e.reward).collect();
            let advs = normalize_rewards(&rewards);
            let refs: Vec<&Episode> = episodes.iter().collect();
            updater.update_batch(&mut policy, &refs, &advs, 2);
        }
        let ratio_after = average_target_ratio(&policy, &space, &mut rng);
        assert!(
            ratio_after > ratio_before + 0.1,
            "target ratio did not improve: {ratio_before} -> {ratio_after}"
        );
    }

    fn average_target_ratio(policy: &PolicyNetwork, space: &ActionSpace, rng: &mut StdRng) -> f64 {
        let mut total = 0.0;
        for _ in 0..10 {
            let ep = policy.sample_episode(space, rng);
            total += ep.target_click_ratio(40);
        }
        total / 10.0
    }

    #[test]
    fn clipped_update_is_bounded() {
        let (mut policy, space) = setup();
        let mut updater = PpoUpdater::new(
            PpoConfig {
                lr: 0.01,
                ..PpoConfig::default()
            },
            &policy,
        );
        let mut rng = StdRng::seed_from_u64(8);
        let mut ep = policy.sample_episode(&space, &mut rng);
        ep.reward = 100.0;
        // Repeated updates on the same episode with a huge advantage:
        // the clip must keep ratios (and thus parameters) finite.
        for _ in 0..20 {
            let signal = updater.update_batch(&mut policy, &[&ep], &[3.0], 1);
            assert!(signal.is_finite());
        }
        assert!(!policy.params().has_non_finite(), "parameters blew up");
    }
}
