//! Fagin's algorithm, specialized to top-1 over two sorted lists (§6.2.2).
//!
//! The BSD cluster priority is the *product* of two grades: the cluster's
//! static pseudo-priority and the wait `W` of its oldest pending tuple. The
//! scheduler holds one list sorted by each grade (the pseudo-priority order
//! is precomputed; the arrival FIFO *is* the descending-`W` order), so the
//! top-1 question is exactly the middleware aggregation problem of Fagin,
//! Lotem & Naor (PODS'01) with `k = 1` and a monotone aggregation function:
//!
//! 1. **Sorted phase** — read both lists in lockstep until some object has
//!    been seen in both.
//! 2. **Random-access phase** — fetch the missing grade of every object seen
//!    so far and return the maximum aggregate.
//!
//! Monotonicity of the product guarantees the true top-1 is among the seen
//! objects, so the answer equals a full linear scan's (the paper: "FA will
//! provide the same answer as the one returned by a linear traversal").

/// Result of a top-1 search.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Top1 {
    /// The winning object.
    pub object: u32,
    /// Its aggregate grade (product of the two grades).
    pub grade: f64,
    /// Sorted + random accesses performed — the §9.2 overhead currency.
    pub accesses: u64,
}

/// Reusable working storage for [`fagin_top1`].
///
/// A scheduling point at large `m` must not allocate; callers on the hot
/// path hold one scratch and pass it to every decision. The vectors keep
/// their capacity between calls, so after warm-up the sorted/random phases
/// run allocation-free.
#[derive(Debug, Default)]
pub struct FaginScratch {
    seen_a: Vec<u32>,
    seen_b: Vec<u32>,
    graded: Vec<u32>,
}

/// Find the object maximizing `grade_a(x) · grade_b(x)`.
///
/// * `list_a` must yield `(object, grade_a)` in non-increasing `grade_a`
///   order; `list_b` likewise for `grade_b`. Both lists must enumerate the
///   same object set (every live object appears in each exactly once).
/// * `grade_a` / `grade_b` provide random access for the second phase.
/// * `scratch` is caller-owned working storage: allocation-free once its
///   capacity has warmed up, and its stale contents never change a result.
///
/// Returns `None` when the lists are empty.
pub fn fagin_top1(
    scratch: &mut FaginScratch,
    list_a: impl IntoIterator<Item = (u32, f64)>,
    list_b: impl IntoIterator<Item = (u32, f64)>,
    grade_a: impl Fn(u32) -> f64,
    grade_b: impl Fn(u32) -> f64,
) -> Option<Top1> {
    let mut a = list_a.into_iter();
    let mut b = list_b.into_iter();
    let FaginScratch {
        seen_a,
        seen_b,
        graded,
    } = scratch;
    seen_a.clear();
    seen_b.clear();
    graded.clear();
    let mut accesses = 0u64;

    // Sorted phase: lockstep until intersection is non-empty.
    'sorted: loop {
        let mut progressed = false;
        if let Some((obj, _)) = a.next() {
            accesses += 1;
            progressed = true;
            seen_a.push(obj);
            if seen_b.contains(&obj) {
                break 'sorted;
            }
        }
        if let Some((obj, _)) = b.next() {
            accesses += 1;
            progressed = true;
            seen_b.push(obj);
            if seen_a.contains(&obj) {
                break 'sorted;
            }
        }
        if !progressed {
            // Both exhausted without intersection — lists disagree on the
            // object set; with the documented contract this means "empty".
            break;
        }
    }

    // Random-access phase over the union of seen objects. An object seen in
    // both lists appears in both vectors; grade it once.
    let mut best: Option<(f64, u32)> = None;
    graded.reserve(seen_a.len() + seen_b.len());
    for &obj in seen_a.iter().chain(seen_b.iter()) {
        if graded.contains(&obj) {
            continue;
        }
        graded.push(obj);
        let grade = grade_a(obj) * grade_b(obj);
        accesses += 1;
        let better = match best {
            None => true,
            Some((g, o)) => grade > g || (grade == g && obj < o),
        };
        if better {
            best = Some((grade, obj));
        }
    }

    best.map(|(grade, object)| Top1 {
        object,
        grade,
        accesses,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Brute-force reference.
    fn naive(objects: &[(f64, f64)]) -> Option<(u32, f64)> {
        objects
            .iter()
            .enumerate()
            .map(|(i, &(a, b))| (i as u32, a * b))
            .fold(None, |best, (i, g)| match best {
                None => Some((i, g)),
                Some((bi, bg)) if g > bg || (g == bg && i < bi) => Some((i, g)),
                other => other,
            })
    }

    fn run_fagin(objects: &[(f64, f64)]) -> Option<Top1> {
        let mut by_a: Vec<(u32, f64)> = objects
            .iter()
            .enumerate()
            .map(|(i, &(a, _))| (i as u32, a))
            .collect();
        by_a.sort_by(|x, y| y.1.total_cmp(&x.1));
        let mut by_b: Vec<(u32, f64)> = objects
            .iter()
            .enumerate()
            .map(|(i, &(_, b))| (i as u32, b))
            .collect();
        by_b.sort_by(|x, y| y.1.total_cmp(&x.1));
        fagin_top1(
            &mut FaginScratch::default(),
            by_a,
            by_b,
            |o| objects[o as usize].0,
            |o| objects[o as usize].1,
        )
    }

    #[test]
    fn empty_input() {
        assert_eq!(run_fagin(&[]), None);
    }

    #[test]
    fn single_object() {
        let r = run_fagin(&[(2.0, 3.0)]).unwrap();
        assert_eq!(r.object, 0);
        assert_eq!(r.grade, 6.0);
    }

    #[test]
    fn correlated_lists_stop_after_one_step() {
        // Object 2 tops both lists: sorted phase ends after the first pulls.
        let objects = [(1.0, 1.0), (2.0, 2.0), (9.0, 9.0)];
        let r = run_fagin(&objects).unwrap();
        assert_eq!(r.object, 2);
        // 2 sorted accesses (one per list) + random accesses over 1 object.
        assert_eq!(r.accesses, 3);
    }

    #[test]
    fn anticorrelated_lists_still_correct() {
        // Best product hides mid-list in both orders.
        let objects = [(10.0, 0.1), (3.0, 3.0), (0.1, 10.0)];
        let r = run_fagin(&objects).unwrap();
        assert_eq!(r.object, 1);
        assert_eq!(r.grade, 9.0);
    }

    #[test]
    fn scratch_reuse_matches_fresh() {
        // A warm scratch (stale contents from a previous decision) must not
        // leak into the next call's answer or access count.
        let first = [(10.0, 0.1), (3.0, 3.0), (0.1, 10.0)];
        let second = [(1.0, 1.0), (2.0, 2.0), (9.0, 9.0)];
        let mut scratch = FaginScratch::default();
        for objects in [&first[..], &second[..], &first[..]] {
            let mut by_a: Vec<(u32, f64)> = objects
                .iter()
                .enumerate()
                .map(|(i, &(a, _))| (i as u32, a))
                .collect();
            by_a.sort_by(|x, y| y.1.total_cmp(&x.1));
            let mut by_b: Vec<(u32, f64)> = objects
                .iter()
                .enumerate()
                .map(|(i, &(_, b))| (i as u32, b))
                .collect();
            by_b.sort_by(|x, y| y.1.total_cmp(&x.1));
            let warm = fagin_top1(
                &mut scratch,
                by_a.clone(),
                by_b.clone(),
                |o| objects[o as usize].0,
                |o| objects[o as usize].1,
            );
            let fresh = fagin_top1(
                &mut FaginScratch::default(),
                by_a,
                by_b,
                |o| objects[o as usize].0,
                |o| objects[o as usize].1,
            );
            assert_eq!(warm, fresh);
        }
    }

    proptest! {
        #[test]
        fn matches_linear_scan(
            grades in proptest::collection::vec((0.0f64..100.0, 0.0f64..100.0), 1..40)
        ) {
            let expect = naive(&grades).unwrap();
            let got = run_fagin(&grades).unwrap();
            prop_assert_eq!(got.grade, expect.1);
            // The object may differ only on exact grade ties.
            if got.object != expect.0 {
                let g = grades[got.object as usize];
                prop_assert_eq!(g.0 * g.1, expect.1);
            }
        }

        #[test]
        fn access_count_bounded(
            grades in proptest::collection::vec((0.0f64..100.0, 0.0f64..100.0), 1..40)
        ) {
            let n = grades.len() as u64;
            let got = run_fagin(&grades).unwrap();
            // Worst case: both whole lists read + random access each object.
            prop_assert!(got.accesses <= 3 * n);
            prop_assert!(got.accesses >= 1);
        }
    }
}
