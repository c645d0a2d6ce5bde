//! Property: readers can never observe a partially committed snapshot.
//!
//! Concurrent clients hammer a one-shard fleet while the adaptation
//! side runs supervised commit/rollback cycles — some deliberately
//! sabotaged so they *must* roll back. The publication hook records every
//! value a committed model can produce *before* it swaps the cell, so the
//! invariant is directly checkable: each served estimate equals a value
//! some committed generation produces, each published state passes
//! `validate()`, and sabotaged (rolled-back) models are never served —
//! neither mid-swap, mid-rollback, nor after.

use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

use proptest::prelude::*;
use warper_ce::{CardinalityEstimator, LabeledExample, UpdateKind};
use warper_core::detect::DataTelemetry;
use warper_core::{ArrivedQuery, Supervisor, SupervisorConfig, WarperConfig, WarperController};
use warper_serve::{
    gate_and_choose, Fleet, FleetConfig, ModelSnapshot, Precision, QuantOutcome, ServeError,
    ShardKey, ShardSpec, SnapshotCell,
};

/// The probe every reader sends; a model's identity is its answer to it.
const PROBE: [f64; 4] = [0.5; 4];

/// Snapshot-capable linear model; `sabotage` poisons the next update so the
/// supervisor's GMQ check must reject it.
#[derive(Clone)]
struct ToyModel {
    scale: f64,
    sabotage: Option<f64>,
}

impl CardinalityEstimator for ToyModel {
    fn feature_dim(&self) -> usize {
        4
    }
    fn estimate(&self, f: &[f64]) -> f64 {
        self.scale * (0.1 + f[0])
    }
    fn fit(&mut self, e: &[LabeledExample]) {
        self.update(e);
    }
    fn update(&mut self, e: &[LabeledExample]) {
        if let Some(factor) = self.sabotage {
            self.scale *= factor;
            return;
        }
        if e.is_empty() {
            return;
        }
        let target: f64 = e
            .iter()
            .map(|ex| ex.card / (0.1 + ex.features[0]))
            .sum::<f64>()
            / e.len() as f64;
        self.scale = 0.5 * self.scale + 0.5 * target;
    }
    fn update_kind(&self) -> UpdateKind {
        UpdateKind::FineTune
    }
    fn name(&self) -> &'static str {
        "toy"
    }
    fn snapshot(&self) -> Option<Box<dyn CardinalityEstimator>> {
        Some(Box::new(self.clone()))
    }
    fn restore(&mut self, snapshot: &dyn CardinalityEstimator) -> bool {
        match (snapshot as &dyn std::any::Any).downcast_ref::<Self>() {
            Some(s) => {
                *self = s.clone();
                true
            }
            None => false,
        }
    }
}

fn training_set() -> Vec<(Vec<f64>, f64)> {
    (0..60)
        .map(|i| {
            let f = vec![0.2 + 0.001 * (i % 10) as f64; 4];
            let card = 1000.0 * (0.1 + f[0]);
            (f, card)
        })
        .collect()
}

fn arrived_shifted(n: usize, jitter: usize) -> Vec<ArrivedQuery> {
    (0..n)
        .map(|i| {
            let f = vec![0.8 + 0.001 * ((i + jitter) % 5) as f64; 4];
            ArrivedQuery {
                gt: Some(90_000.0 * (0.1 + f[0])),
                features: f,
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// `sabotage_plan[k] != 0` poisons adaptation step k+1 (step 0 is always
    /// healthy so the supervisor's evaluation window is warm).
    #[test]
    fn readers_never_observe_uncommitted_snapshots(
        sabotage_plan in prop::collection::vec(0u8..2, 1..4usize),
        readers in 2usize..5,
        seed in 0u64..1_000,
    ) {
        let cfg = WarperConfig {
            embed_dim: 6,
            hidden: 16,
            n_i: 4,
            batch: 16,
            pretrain_epochs: 2,
            gamma: 100,
            n_p: 40,
            ..Default::default()
        };
        let mut ctl = WarperController::new(4, &training_set(), 1.2, cfg, 40 + seed);
        let mut model = ToyModel {
            scale: 1000.0,
            sabotage: None,
        };

        // Every value a committed model may answer the probe with. Entries
        // are added BEFORE the swap, so an estimate from a generation is
        // only ever served after its value is in the set.
        let committed: Arc<Mutex<HashSet<u64>>> = Arc::new(Mutex::new(HashSet::new()));
        committed
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(model.estimate(&PROBE).to_bits());

        let fleet = Fleet::start(
            vec![ShardSpec {
                key: ShardKey::new("toy", "main"),
                snapshot: Arc::new(ModelSnapshot::initial(
                    model.snapshot().expect("toy snapshots"),
                )),
                adapt: None,
            }],
            FleetConfig {
                workers: 2,
                per_shard_queue: 256,
                max_packed_batch: 16,
                pack_linger: std::time::Duration::from_micros(50),
                ..FleetConfig::default()
            },
        );
        let cell = Arc::clone(fleet.cell(0).expect("one-shard fleet"));
        let hook_cell = Arc::clone(&cell);
        let hook_committed = Arc::clone(&committed);
        let mut sup = Supervisor::new(SupervisorConfig::default()).with_commit_hook(Box::new(
            move |state, committed_model| {
                // Published state must be fully valid…
                assert!(state.validate().is_ok(), "invalid state at publication");
                let snap = committed_model.snapshot().expect("toy snapshots");
                // …and its probe answer registered before the swap.
                hook_committed
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .insert(snap.estimate(&PROBE).to_bits());
                let next = hook_cell.version() + 1;
                hook_cell.publish(
                    ModelSnapshot::committed(next, snap, state).expect("validated state"),
                );
            },
        ));

        let handle = fleet.handle();
        let stop = AtomicBool::new(false);

        let mut expected_commits = 1usize; // warm-up step
        let mut expected_rollbacks = 0usize;
        std::thread::scope(|s| {
            for _ in 0..readers {
                let h = handle.clone();
                let committed = Arc::clone(&committed);
                let stop = &stop;
                s.spawn(move || {
                    let mut seen = 0u32;
                    while !stop.load(Ordering::Relaxed) || seen == 0 {
                        match h.estimate(0, PROBE.to_vec()) {
                            Ok(est) => {
                                seen += 1;
                                let ok = committed
                                    .lock()
                                    .unwrap_or_else(PoisonError::into_inner)
                                    .contains(&est.value.to_bits());
                                assert!(
                                    ok,
                                    "served {} (gen {}) from an uncommitted model",
                                    est.value, est.generation
                                );
                            }
                            Err(ServeError::Shed) => {}
                            Err(e) => panic!("reader error: {e}"),
                        }
                    }
                });
            }

            // Warm-up (healthy, fills the eval window), then the plan.
            let rep = sup.invoke(
                &mut ctl,
                &mut model,
                &arrived_shifted(40, 0),
                &DataTelemetry::default(),
                &mut |qs: &[Vec<f64>]| qs.iter().map(|f| Some(90_000.0 * (0.1 + f[0]))).collect(),
            );
            assert!(rep.rollback.is_none(), "warm-up rolled back: {:?}", rep.rollback);
            for (k, &sab) in sabotage_plan.iter().enumerate() {
                model.sabotage = (sab != 0).then_some(50.0);
                let rep = sup.invoke(
                    &mut ctl,
                    &mut model,
                    &arrived_shifted(30, k + 1),
                    &DataTelemetry::default(),
                    &mut |qs: &[Vec<f64>]| {
                        qs.iter().map(|f| Some(90_000.0 * (0.1 + f[0]))).collect()
                    },
                );
                if sab != 0 {
                    assert!(rep.rollback.is_some(), "sabotaged step {k} committed");
                    expected_rollbacks += 1;
                } else {
                    assert!(rep.rollback.is_none(), "healthy step {k} rolled back");
                    expected_commits += 1;
                }
                model.sabotage = None;
            }
            stop.store(true, Ordering::Relaxed);
        });
        let (stats, _, _) = fleet.shutdown();

        // Exactly one generation per commit; rollbacks published nothing.
        prop_assert_eq!(cell.version(), expected_commits as u64);
        prop_assert_eq!(
            sup.stats().commits + sup.stats().rollbacks,
            expected_commits + expected_rollbacks
        );
        prop_assert_eq!(sup.stats().rollbacks, expected_rollbacks);
        // The cell ends on the last committed model, which still validates.
        let (v, snap) = cell.load();
        prop_assert_eq!(v, snap.generation);
        prop_assert!(snap.model.estimate(&PROBE).is_finite());
        prop_assert!(stats.served > 0);
        prop_assert_eq!(stats.rejected, 0);
    }
}

/// A "quantized" serving copy whose estimates drift from the full model by
/// a fixed factor — standing in for rounding error, with `factor` chosen by
/// the test to be inside or outside the gate budget.
#[derive(Clone)]
struct DriftedQuantToy {
    scale: f64,
    factor: f64,
}

impl CardinalityEstimator for DriftedQuantToy {
    fn feature_dim(&self) -> usize {
        4
    }
    fn estimate(&self, f: &[f64]) -> f64 {
        self.scale * self.factor * (0.1 + f[0])
    }
    fn fit(&mut self, _e: &[LabeledExample]) {}
    fn update(&mut self, _e: &[LabeledExample]) {}
    fn update_kind(&self) -> UpdateKind {
        UpdateKind::FineTune
    }
    fn name(&self) -> &'static str {
        "toy[f32]"
    }
    fn snapshot(&self) -> Option<Box<dyn CardinalityEstimator>> {
        Some(Box::new(self.clone()))
    }
    fn restore(&mut self, snapshot: &dyn CardinalityEstimator) -> bool {
        match (snapshot as &dyn std::any::Any).downcast_ref::<Self>() {
            Some(s) => {
                *self = s.clone();
                true
            }
            None => false,
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// A reader must never observe a quantized snapshot whose GMQ drift
    /// gate failed: every publication runs its candidate through
    /// [`gate_and_choose`], and a refused candidate's probe answer must
    /// never be served at any precision, while a snapshot tagged quantized
    /// must only answer with gate-passing values.
    #[test]
    fn readers_never_observe_gate_refused_quantized_snapshots(
        drift_plan in prop::collection::vec(0u16..200, 2..7usize),
        readers in 2usize..4,
    ) {
        const TOL: f64 = 0.05;
        // Probe features keep every estimate far above gmq's clamp floor,
        // so measured drift equals the injected factor exactly.
        let probes: Vec<Vec<f64>> = (0..32).map(|i| vec![0.3 + 0.01 * i as f64; 4]).collect();
        let refs: Vec<&[f64]> = probes.iter().map(Vec::as_slice).collect();

        // Values a quantized snapshot may legally answer the probe with
        // (inserted BEFORE the swap), and values of refused candidates
        // (must never be served, at any precision).
        let quant_ok: Arc<Mutex<HashSet<u64>>> = Arc::new(Mutex::new(HashSet::new()));
        let full_ok: Arc<Mutex<HashSet<u64>>> = Arc::new(Mutex::new(HashSet::new()));
        let refused: Arc<Mutex<HashSet<u64>>> = Arc::new(Mutex::new(HashSet::new()));

        let initial = ToyModel { scale: 1000.0, sabotage: None };
        full_ok
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(initial.estimate(&PROBE).to_bits());
        let cell = Arc::new(SnapshotCell::new(ModelSnapshot::initial(
            initial.snapshot().expect("toy snapshots"),
        )));

        let stop = AtomicBool::new(false);
        let mut expected_refusals = 0usize;
        std::thread::scope(|s| {
            for _ in 0..readers {
                let cell = Arc::clone(&cell);
                let quant_ok = Arc::clone(&quant_ok);
                let full_ok = Arc::clone(&full_ok);
                let refused = Arc::clone(&refused);
                let stop = &stop;
                s.spawn(move || {
                    let mut seen = 0u32;
                    while !stop.load(Ordering::Relaxed) || seen == 0 {
                        let (_, snap) = cell.load();
                        let bits = snap.model.estimate(&PROBE).to_bits();
                        seen += 1;
                        assert!(
                            !refused
                                .lock()
                                .unwrap_or_else(PoisonError::into_inner)
                                .contains(&bits),
                            "served a gate-refused quantized model (gen {})",
                            snap.generation
                        );
                        let allowed = if snap.precision == Precision::F64 {
                            &full_ok
                        } else {
                            &quant_ok
                        };
                        assert!(
                            allowed
                                .lock()
                                .unwrap_or_else(PoisonError::into_inner)
                                .contains(&bits),
                            "precision {} served an unregistered value (gen {})",
                            snap.precision,
                            snap.generation
                        );
                    }
                });
            }

            for (step, &pct) in drift_plan.iter().enumerate() {
                // The full model retrains each step; its serving copy.
                let full = ToyModel {
                    scale: 1000.0 + 9.73 * (step + 1) as f64,
                    sabotage: None,
                };
                // Candidate drift lands clearly inside or clearly outside
                // the budget — never on the boundary.
                let should_pass = pct < 100;
                let factor = if should_pass {
                    1.0 + f64::from(pct) / 2500.0 // ≤ 1.0396
                } else {
                    1.063 + f64::from(pct - 100) / 1000.0 // ≥ 1.063
                };
                let candidate = DriftedQuantToy { scale: full.scale, factor };
                let candidate_bits = candidate.estimate(&PROBE).to_bits();

                // Register legal answers BEFORE the gate decides/publishes.
                full_ok
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .insert(full.estimate(&PROBE).to_bits());
                if should_pass {
                    quant_ok
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner)
                        .insert(candidate_bits);
                }

                let (chosen, served, outcome) = gate_and_choose(
                    full.snapshot().expect("toy snapshots"),
                    Some(Box::new(candidate)),
                    Precision::F32,
                    &refs,
                    TOL,
                );
                if should_pass {
                    assert!(
                        matches!(outcome, QuantOutcome::Quantized(d) if d <= 1.0 + TOL),
                        "in-budget candidate refused: {outcome:?}"
                    );
                    assert_eq!(served, Precision::F32);
                } else {
                    assert!(
                        matches!(outcome, QuantOutcome::Refused(d) if d > 1.0 + TOL),
                        "out-of-budget candidate admitted: {outcome:?}"
                    );
                    assert_eq!(served, Precision::F64);
                    expected_refusals += 1;
                    refused
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner)
                        .insert(candidate_bits);
                }
                cell.publish(ModelSnapshot {
                    generation: step as u64 + 1,
                    model: chosen,
                    precision: served,
                });
            }
            stop.store(true, Ordering::Relaxed);
        });

        // The cell ends on the last step's choice, tagged consistently.
        let (v, snap) = cell.load();
        prop_assert_eq!(v, drift_plan.len() as u64);
        let last_pass = *drift_plan.last().expect("non-empty plan") < 100;
        prop_assert_eq!(
            snap.precision,
            if last_pass { Precision::F32 } else { Precision::F64 }
        );
        prop_assert_eq!(
            expected_refusals,
            drift_plan.iter().filter(|&&p| p >= 100).count()
        );
    }
}
