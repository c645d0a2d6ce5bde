//! The ground-truth annotator `A` (paper Figure 4 / §3.5).
//!
//! "The annotator A computes ground truth for query predicates and can be a
//! DBMS query or custom code." Here it is custom code: the vectorized,
//! zone-map-pruned engine in [`crate::engine`]. Whole predicate batches are
//! evaluated with one cache-resident pass per column per block, blocks are
//! skipped or counted outright from their zone maps, sorted columns answer
//! by binary search, and parallelism is work-stealing over blocks — so the
//! paper's observation that annotation "scans the underlying table at least
//! once" (the dominant adaptation cost, `c_gt` in §4.3) becomes a worst
//! case rather than the rule. [`count_naive`] remains the oracle: every
//! engine answer is bit-identical to a row-at-a-time scan.

use warper_storage::Table;

use crate::engine::{self, CountOutcome};
use crate::predicate::RangePredicate;

/// Exact cardinality annotator over columnar tables.
#[derive(Debug, Clone)]
pub struct Annotator {
    threads: usize,
}

impl Default for Annotator {
    fn default() -> Self {
        Self::new()
    }
}

impl Annotator {
    /// An annotator using all available parallelism.
    pub fn new() -> Self {
        let threads = warper_linalg::parallel::available_threads().unwrap_or(4);
        Self { threads }
    }

    /// An annotator restricted to `threads` worker threads (used for the
    /// single-thread cost accounting in Table 6).
    pub fn with_threads(threads: usize) -> Self {
        Self {
            threads: threads.max(1),
        }
    }

    /// Exact `COUNT(*)` of rows in `table` matching `pred`.
    pub fn count(&self, table: &Table, pred: &RangePredicate) -> u64 {
        self.count_with_cost(table, pred).count
    }

    /// Exact count plus the rows the engine actually evaluated — the
    /// latency proxy the fault ladder budgets against.
    pub fn count_with_cost(&self, table: &Table, pred: &RangePredicate) -> CountOutcome {
        let got = engine::count_batch_with_cost(table, std::slice::from_ref(pred), self.threads);
        got[0]
    }

    /// Selectivity of `pred` in [0, 1].
    pub fn selectivity(&self, table: &Table, pred: &RangePredicate) -> f64 {
        if table.num_rows() == 0 {
            return 0.0;
        }
        self.count(table, pred) as f64 / table.num_rows() as f64
    }

    /// Annotates a batch of predicates with one shared, zone-map-pruned
    /// sweep over the table's blocks.
    pub fn count_batch(&self, table: &Table, preds: &[RangePredicate]) -> Vec<u64> {
        self.count_batch_with_cost(table, preds)
            .into_iter()
            .map(|o| o.count)
            .collect()
    }

    /// Batch annotation with per-predicate evaluation costs.
    pub fn count_batch_with_cost(
        &self,
        table: &Table,
        preds: &[RangePredicate],
    ) -> Vec<CountOutcome> {
        engine::count_batch_with_cost(table, preds, self.threads)
    }
}

/// Brute-force row-at-a-time count, used as the test oracle for the
/// vectorized path.
pub fn count_naive(table: &Table, pred: &RangePredicate) -> u64 {
    (0..table.num_rows())
        .filter(|&r| pred.matches_row(table, r))
        .count() as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use warper_storage::{generate, DatasetKind};

    #[test]
    fn count_matches_naive_on_random_predicates() {
        let table = generate(DatasetKind::Prsa, 2_000, 11);
        let domains = table.domains();
        let mut rng = StdRng::seed_from_u64(21);
        let a = Annotator::new();
        for _ in 0..50 {
            let mut p = RangePredicate::unconstrained(&domains);
            // Constrain 1–3 random columns.
            for _ in 0..rng.random_range(1..=3usize) {
                let c = rng.random_range(0..domains.len());
                let (lo, hi) = domains[c];
                let a1 = rng.random_range(lo..=hi);
                let a2 = rng.random_range(lo..=hi);
                p = p.with_range(c, a1.min(a2), a1.max(a2));
            }
            assert_eq!(a.count(&table, &p), count_naive(&table, &p));
        }
    }

    #[test]
    fn selectivity_ordering_preserves_counts() {
        // A wide filter on column 0 and a narrow one on a later column: the
        // planner evaluates the narrow one first, and the answer must still
        // match the row-at-a-time oracle.
        let table = generate(DatasetKind::Higgs, 2_500, 9);
        let domains = table.domains();
        let (lo0, hi0) = domains[0];
        let c = domains.len() - 1;
        let (loc, hic) = domains[c];
        let p = RangePredicate::unconstrained(&domains)
            .with_range(0, lo0, lo0 + 0.9 * (hi0 - lo0))
            .with_range(c, loc, loc + 0.05 * (hic - loc));
        let a = Annotator::new();
        assert_eq!(a.count(&table, &p), count_naive(&table, &p));
    }

    #[test]
    fn unconstrained_counts_all_rows() {
        let table = generate(DatasetKind::Poker, 777, 1);
        let a = Annotator::new();
        let p = RangePredicate::unconstrained(&table.domains());
        assert_eq!(a.count(&table, &p), 777);
        assert_eq!(a.selectivity(&table, &p), 1.0);
    }

    #[test]
    fn empty_range_counts_zero() {
        let table = generate(DatasetKind::Poker, 100, 2);
        let a = Annotator::new();
        let p = RangePredicate::unconstrained(&table.domains()).with_range(0, 3.0, 1.0);
        assert_eq!(a.count(&table, &p), 0);
    }

    #[test]
    fn batch_matches_single() {
        let table = generate(DatasetKind::Higgs, 3_000, 3);
        let domains = table.domains();
        let mut rng = StdRng::seed_from_u64(5);
        let preds: Vec<RangePredicate> = (0..40)
            .map(|_| {
                let c = rng.random_range(0..domains.len());
                let (lo, hi) = domains[c];
                let a1 = rng.random_range(lo..=hi);
                let a2 = rng.random_range(lo..=hi);
                RangePredicate::unconstrained(&domains).with_range(c, a1.min(a2), a1.max(a2))
            })
            .collect();
        let a = Annotator::new();
        let batch = a.count_batch(&table, &preds);
        for (p, &b) in preds.iter().zip(&batch) {
            assert_eq!(a.count(&table, p), b);
        }
        // The single-thread path gives the same answers.
        let st = Annotator::with_threads(1).count_batch(&table, &preds);
        assert_eq!(batch, st);
    }

    #[test]
    fn equality_predicate_on_categorical() {
        let table = generate(DatasetKind::Poker, 5_000, 4);
        let a = Annotator::new();
        let domains = table.domains();
        let p = RangePredicate::unconstrained(&domains).with_eq(0, 2.0);
        let count = a.count(&table, &p);
        // Suits are uniform over 4 values.
        assert!((count as f64 - 1250.0).abs() < 150.0, "count {count}");
    }

    #[test]
    fn cost_reflects_pruning() {
        let table = generate(DatasetKind::Higgs, 20_000, 8);
        let a = Annotator::with_threads(1);
        let domains = table.domains();
        // A full-width scan predicate touches about one column's worth of
        // rows; an unconstrained one touches none.
        let (lo, hi) = domains[4];
        let scan = RangePredicate::unconstrained(&domains).with_range(
            4,
            lo + 0.3 * (hi - lo),
            lo + 0.6 * (hi - lo),
        );
        let cost = a.count_with_cost(&table, &scan).rows_scanned;
        assert!(cost > 0 && cost <= table.num_rows(), "cost {cost}");
        let free = RangePredicate::unconstrained(&domains);
        assert_eq!(a.count_with_cost(&table, &free).rows_scanned, 0);
    }
}
