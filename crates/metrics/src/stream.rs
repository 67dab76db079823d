//! Cheap per-slide stream-quality signals.
//!
//! The offline measures in [`pairs`](crate::pairs) need a ground truth or
//! an oracle pass; these helpers need only consecutive engine outputs, so
//! the CLI's health auditor can compute them every slide:
//!
//! * [`label_churn`] — fraction of window-surviving points whose cluster
//!   assignment changed across a slide (up to a consistent renaming this
//!   is the slide-to-slide instability of the clustering);
//! * [`noise_fraction`] — share of the window labelled noise;
//! * [`cluster_sizes`] / [`cluster_count`] — the non-noise census the
//!   lifecycle tracker folds.
//!
//! All inputs are `(PointId, label)` slices as returned by the engines'
//! `assignments()`: sorted by id, each id at most once, noise `< 0`.
//!
//! # Cost
//!
//! Each signal is one linear pass over the slices. [`label_churn`]
//! merge-joins the two id-sorted snapshots instead of hashing one of
//! them by id; the only maps are keyed by cluster label (or label pair),
//! so they stay as small as the cluster census, not the window. Ids must
//! be unique. An input whose ids are not strictly increasing is first
//! sorted into a scratch copy, so order is a cost, never a change in the
//! result.

use disc_geom::{FxHashMap, PointId};
use std::borrow::Cow;

/// The snapshot in strictly increasing id order: borrowed when it already
/// is (the `assignments()` contract), else a sorted scratch copy.
fn id_sorted(a: &[(PointId, i64)]) -> Cow<'_, [(PointId, i64)]> {
    if a.windows(2).all(|w| w[0].0 < w[1].0) {
        Cow::Borrowed(a)
    } else {
        let mut sorted = a.to_vec();
        sorted.sort_unstable_by_key(|&(id, _)| id);
        Cow::Owned(sorted)
    }
}

/// Merge-joins two id-sorted snapshots: calls `f(old, new)` with the two
/// labels of every id present in both, in id order. Ids only one side
/// holds are skipped by binary search, so a slide's departures and
/// arrivals cost a search per gap, not a step per point.
fn for_each_survivor(
    prev: &[(PointId, i64)],
    curr: &[(PointId, i64)],
    mut f: impl FnMut(i64, i64),
) {
    let (mut i, mut j) = (0, 0);
    while i < prev.len() && j < curr.len() {
        let ((p, old), (c, new)) = (prev[i], curr[j]);
        if p < c {
            i += prev[i..].partition_point(|e| e.0 < c);
        } else if c < p {
            j += curr[j..].partition_point(|e| e.0 < p);
        } else {
            f(old, new);
            i += 1;
            j += 1;
        }
    }
}

/// Fraction of points present in both assignment snapshots whose label
/// changed, after matching each old cluster to the new cluster that
/// absorbed the plurality of its surviving members (so a pure renaming
/// scores 0). Returns 0.0 when no points survive.
///
/// ```
/// use disc_geom::PointId;
/// use disc_metrics::label_churn;
/// let id = PointId;
/// let prev = vec![(id(1), 0), (id(2), 0), (id(3), 1)];
/// // Same partition, new names: no churn.
/// let next = vec![(id(1), 9), (id(2), 9), (id(3), 4)];
/// assert_eq!(label_churn(&prev, &next), 0.0);
/// // Point 3 defects into the other cluster: 1 of 3 survivors moved.
/// let split = vec![(id(1), 9), (id(2), 9), (id(3), 9)];
/// assert!((label_churn(&prev, &split) - 1.0 / 3.0).abs() < 1e-12);
/// ```
pub fn label_churn(prev: &[(PointId, i64)], curr: &[(PointId, i64)]) -> f64 {
    let (prev, curr) = (id_sorted(prev), id_sorted(curr));
    // Joint counts over survivors: (old label, new label) → points.
    let mut joint: FxHashMap<(i64, i64), u64> = FxHashMap::default();
    let mut survivors = 0u64;
    for_each_survivor(&prev, &curr, |old, new| {
        *joint.entry((old, new)).or_insert(0) += 1;
        survivors += 1;
    });
    if survivors == 0 {
        return 0.0;
    }
    // Greedy injective matching over real clusters, largest overlap first:
    // each old cluster claims at most one new cluster and vice versa, so a
    // pure renaming is free but a merge strands the smaller constituent.
    // Noise is never a rename target — cluster→noise and noise→cluster are
    // churn, noise→noise is stable.
    let mut overlaps: Vec<(u64, i64, i64)> = joint
        .iter()
        .filter(|(&(old, new), _)| old >= 0 && new >= 0)
        .map(|(&(old, new), &count)| (count, old, new))
        .collect();
    overlaps.sort_unstable_by(|a, b| (b.0, a.1, a.2).cmp(&(a.0, b.1, b.2)));
    let mut old_taken: FxHashMap<i64, ()> = FxHashMap::default();
    let mut new_taken: FxHashMap<i64, ()> = FxHashMap::default();
    let mut stable: u64 = joint
        .iter()
        .filter(|(&(old, new), _)| old < 0 && new < 0)
        .map(|(_, &count)| count)
        .sum();
    for (count, old, new) in overlaps {
        if old_taken.contains_key(&old) || new_taken.contains_key(&new) {
            continue;
        }
        old_taken.insert(old, ());
        new_taken.insert(new, ());
        stable += count;
    }
    1.0 - stable as f64 / survivors as f64
}

/// Share of the window labelled noise (`label < 0`). Empty windows count
/// as fully clustered (0.0).
pub fn noise_fraction(assignments: &[(PointId, i64)]) -> f64 {
    if assignments.is_empty() {
        return 0.0;
    }
    let noise = assignments.iter().filter(|&&(_, l)| l < 0).count();
    noise as f64 / assignments.len() as f64
}

/// Sizes of the non-noise clusters, as `(label, size)` sorted by label —
/// the census `disc_telemetry::LifecycleAnalytics` folds each slide.
pub fn cluster_sizes(assignments: &[(PointId, i64)]) -> Vec<(i64, u64)> {
    let mut sizes: FxHashMap<i64, u64> = FxHashMap::default();
    for &(_, label) in assignments {
        if label >= 0 {
            *sizes.entry(label).or_insert(0) += 1;
        }
    }
    let mut out: Vec<(i64, u64)> = sizes.into_iter().collect();
    out.sort_unstable();
    out
}

/// Number of non-noise clusters.
pub fn cluster_count(assignments: &[(PointId, i64)]) -> u64 {
    cluster_sizes(assignments).len() as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The hash-map [`label_churn`] this module shipped before the
    /// merge-join: the bit-for-bit reference for any unique-id input.
    fn reference_label_churn(prev: &[(PointId, i64)], curr: &[(PointId, i64)]) -> f64 {
        let prev_by_id: FxHashMap<PointId, i64> = prev.iter().copied().collect();
        let mut joint: FxHashMap<(i64, i64), u64> = FxHashMap::default();
        let mut survivors = 0u64;
        for &(id, new) in curr {
            if let Some(&old) = prev_by_id.get(&id) {
                *joint.entry((old, new)).or_insert(0) += 1;
                survivors += 1;
            }
        }
        if survivors == 0 {
            return 0.0;
        }
        let mut overlaps: Vec<(u64, i64, i64)> = joint
            .iter()
            .filter(|(&(old, new), _)| old >= 0 && new >= 0)
            .map(|(&(old, new), &count)| (count, old, new))
            .collect();
        overlaps.sort_unstable_by(|a, b| (b.0, a.1, a.2).cmp(&(a.0, b.1, b.2)));
        let mut old_taken: FxHashMap<i64, ()> = FxHashMap::default();
        let mut new_taken: FxHashMap<i64, ()> = FxHashMap::default();
        let mut stable: u64 = joint
            .iter()
            .filter(|(&(old, new), _)| old < 0 && new < 0)
            .map(|(_, &count)| count)
            .sum();
        for (count, old, new) in overlaps {
            if old_taken.contains_key(&old) || new_taken.contains_key(&new) {
                continue;
            }
            old_taken.insert(old, ());
            new_taken.insert(new, ());
            stable += count;
        }
        1.0 - stable as f64 / survivors as f64
    }

    /// The hash-map [`cluster_sizes`] reference.
    fn reference_cluster_sizes(assignments: &[(PointId, i64)]) -> Vec<(i64, u64)> {
        let mut sizes: FxHashMap<i64, u64> = FxHashMap::default();
        for &(_, label) in assignments {
            if label >= 0 {
                *sizes.entry(label).or_insert(0) += 1;
            }
        }
        let mut out: Vec<(i64, u64)> = sizes.into_iter().collect();
        out.sort_unstable();
        out
    }

    /// The [`noise_fraction`] reference: a count over the slice.
    fn reference_noise_fraction(assignments: &[(PointId, i64)]) -> f64 {
        if assignments.is_empty() {
            return 0.0;
        }
        let noise = assignments.iter().filter(|&&(_, l)| l < 0).count();
        noise as f64 / assignments.len() as f64
    }

    /// A snapshot with strictly increasing ids: each entry is `(gap, label)`
    /// with `gap >= 1`, ids counted up from `start`.
    fn snapshot(gaps: &[(u64, i64)], start: u64) -> Vec<(PointId, i64)> {
        let mut id = start;
        gaps.iter()
            .map(|&(gap, label)| {
                id += gap;
                (PointId(id), label)
            })
            .collect()
    }

    /// A deterministic Fisher–Yates shuffle.
    fn shuffled(a: &[(PointId, i64)], seed: u64) -> Vec<(PointId, i64)> {
        let mut v = a.to_vec();
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
        for i in (1..v.len()).rev() {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            v.swap(i, (state >> 33) as usize % (i + 1));
        }
        v
    }

    fn assert_matches_reference(prev: &[(PointId, i64)], curr: &[(PointId, i64)]) {
        assert_eq!(
            label_churn(prev, curr).to_bits(),
            reference_label_churn(prev, curr).to_bits(),
            "churn of {prev:?} -> {curr:?}"
        );
        for a in [prev, curr] {
            assert_eq!(cluster_sizes(a), reference_cluster_sizes(a));
            assert_eq!(
                noise_fraction(a).to_bits(),
                reference_noise_fraction(a).to_bits()
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn signals_equal_the_hash_map_reference(
            a in prop::collection::vec((1u64..4, -2i64..5), 0..120),
            b in prop::collection::vec((1u64..4, -2i64..5), 0..120),
            start in 0u64..200,
            one_cluster in prop::bool::ANY,
            seed in 0u64..1_000_000,
        ) {
            let prev = snapshot(&a, 0);
            let mut curr = snapshot(&b, start);
            if one_cluster {
                for entry in &mut curr {
                    entry.1 = 7;
                }
            }
            // Sorted, as `assignments()` returns them.
            assert_matches_reference(&prev, &curr);
            // Shuffled on either side or both.
            assert_matches_reference(&shuffled(&prev, seed), &curr);
            assert_matches_reference(&prev, &shuffled(&curr, seed ^ 1));
            assert_matches_reference(&shuffled(&prev, seed ^ 2), &shuffled(&curr, seed ^ 3));
            // Disjoint id ranges, both orders.
            let far = snapshot(&b, 10_000);
            assert_matches_reference(&prev, &far);
            assert_matches_reference(&far, &prev);
            // Empty on either side.
            assert_matches_reference(&[], &curr);
            assert_matches_reference(&prev, &[]);
        }
    }

    #[test]
    fn merge_join_visits_shared_ids_in_order() {
        let prev = tag(&[(1, 0), (2, 1), (4, 2), (5, 3), (6, 4), (9, 5)]);
        let curr = tag(&[(2, 10), (3, 11), (4, 12), (5, 13), (9, 14), (10, 15)]);
        let mut pairs = Vec::new();
        for_each_survivor(&prev, &curr, |old, new| pairs.push((old, new)));
        assert_eq!(pairs, vec![(1, 10), (2, 12), (3, 13), (5, 14)]);
        for_each_survivor(&prev, &[], |_, _| panic!("no survivors"));
    }

    #[test]
    fn unsorted_input_gets_the_sorted_answer() {
        let prev = tag(&[(1, 0), (2, 0), (3, 0), (4, 1)]);
        let next = tag(&[(5, 7), (3, 7), (2, 2), (1, 2)]);
        assert!((label_churn(&prev, &next) - 1.0 / 3.0).abs() < 1e-12);
        assert!(matches!(id_sorted(&prev), Cow::Borrowed(_)));
        assert!(matches!(id_sorted(&next), Cow::Owned(_)));
    }

    fn tag(pairs: &[(u64, i64)]) -> Vec<(PointId, i64)> {
        pairs.iter().map(|&(id, l)| (PointId(id), l)).collect()
    }

    #[test]
    fn renaming_is_not_churn() {
        let prev = tag(&[(1, 0), (2, 0), (3, 1), (4, 1)]);
        let next = tag(&[(1, 5), (2, 5), (3, 8), (4, 8)]);
        assert_eq!(label_churn(&prev, &next), 0.0);
    }

    #[test]
    fn churn_counts_defectors_among_survivors_only() {
        let prev = tag(&[(1, 0), (2, 0), (3, 0), (4, 1)]);
        // Point 4 left the window; point 5 arrived (ignored — no history);
        // point 3 moved from cluster 0's successor into another cluster.
        let next = tag(&[(1, 2), (2, 2), (3, 7), (5, 7)]);
        assert!((label_churn(&prev, &next) - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn noise_transitions_are_churn() {
        let prev = tag(&[(1, 0), (2, -1)]);
        // 1 fell to noise, 2 stayed noise.
        let next = tag(&[(1, -1), (2, -1)]);
        assert_eq!(label_churn(&prev, &next), 0.5);
    }

    #[test]
    fn disjoint_windows_have_no_churn() {
        let prev = tag(&[(1, 0), (2, 0)]);
        let next = tag(&[(3, 0), (4, 1)]);
        assert_eq!(label_churn(&prev, &next), 0.0);
        assert_eq!(label_churn(&[], &[]), 0.0);
    }

    #[test]
    fn noise_fraction_counts_negative_labels() {
        assert_eq!(noise_fraction(&[]), 0.0);
        let a = tag(&[(1, 0), (2, -1), (3, 4), (4, -2)]);
        assert_eq!(noise_fraction(&a), 0.5);
    }

    #[test]
    fn census_excludes_noise_and_sorts() {
        let a = tag(&[(1, 3), (2, 0), (3, -1), (4, 3), (5, 0), (6, 0)]);
        assert_eq!(cluster_sizes(&a), vec![(0, 3), (3, 2)]);
        assert_eq!(cluster_count(&a), 2);
        assert_eq!(cluster_count(&tag(&[(1, -1)])), 0);
    }
}
