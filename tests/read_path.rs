//! The served read path against reference implementations: whatever
//! hashing or caching the rankers and the evaluation protocol use to
//! read faster, the scores and lists they produce must be bit-equal to
//! a plain ordered-map model of the same definition.

use std::collections::BTreeMap;

use datasets::PaperDataset;
use recsys::data::{Dataset, ItemId, LogView, Trajectory};
use recsys::rankers::{CoVisitation, Ranker};

/// Co-visitation counts keyed `(a, b)`, built exactly as the ranker
/// defines them: adjacent distinct clicks add one in both directions.
#[derive(Default)]
struct ReferenceGraph(BTreeMap<(ItemId, ItemId), f32>);

impl ReferenceGraph {
    fn add(&mut self, seq: &[ItemId]) {
        for pair in seq.windows(2) {
            let (a, b) = (pair[0], pair[1]);
            if a != b {
                *self.0.entry((a, b)).or_insert(0.0) += 1.0;
                *self.0.entry((b, a)).or_insert(0.0) += 1.0;
            }
        }
    }

    /// The ranker's score: the sum over the last ten history items of
    /// their co-visit count with the candidate.
    fn score(&self, history: &[ItemId], candidates: &[ItemId]) -> Vec<f32> {
        let recent = &history[history.len().saturating_sub(10)..];
        candidates
            .iter()
            .map(|&c| {
                recent
                    .iter()
                    .map(|&h| self.0.get(&(h, c)).copied().unwrap_or(0.0))
                    .sum()
            })
            .collect()
    }
}

fn assert_bit_equal(ranker: &CoVisitation, reference: &ReferenceGraph, data: &Dataset) {
    let catalog: Vec<ItemId> = (0..data.catalog()).collect();
    for user in (0..data.num_users()).step_by(3) {
        let history = data.sequence(user);
        let got = ranker.score(user, history, &catalog);
        let want = reference.score(history, &catalog);
        let differing = got
            .iter()
            .zip(&want)
            .filter(|(g, w)| g.to_bits() != w.to_bits())
            .count();
        assert_eq!(
            differing, 0,
            "user {user}: scores differ from the reference"
        );
    }
}

#[test]
fn covisitation_scores_equal_an_ordered_map_reference_before_and_after_poison() {
    let data = PaperDataset::Steam.generate_scaled(0.05, 17);
    let clean = LogView::clean(&data);
    let mut ranker = CoVisitation::new();
    ranker.fit(&clean, 0);
    let mut reference = ReferenceGraph::default();
    for user in 0..clean.num_users() {
        reference.add(clean.sequence(user));
    }
    assert_eq!(ranker.num_edges(), reference.0.len());
    assert_bit_equal(&ranker, &reference, &data);

    // Alternate each target with popular items, the attack shape that
    // moves this ranker most.
    let popular = data.items_by_popularity();
    let poison: Vec<Trajectory> = data
        .target_items()
        .enumerate()
        .map(|(i, target)| {
            (0..20)
                .map(|t| {
                    if t % 2 == 0 {
                        target
                    } else {
                        popular[(i + t) % 10]
                    }
                })
                .collect()
        })
        .collect();
    ranker.fine_tune(&LogView::new(&data, &poison), 1);
    for traj in &poison {
        reference.add(traj);
    }
    assert_eq!(ranker.num_edges(), reference.0.len());
    assert_bit_equal(&ranker, &reference, &data);
}
