//! Hot-swappable model snapshots.
//!
//! The serving workers answer every request from an immutable
//! [`ModelSnapshot`] while the adaptation loop retrains a private copy of
//! the model in the background. Publication is a version bump on a
//! [`SnapshotCell`]: readers keep serving the `Arc` they already hold until
//! they notice the new version, so a swap never blocks an in-flight
//! estimate and a reader can never observe a half-written model.
//!
//! The cell is deliberately built from `std` primitives only (one atomic,
//! one mutex): [`SnapshotCell::version`] is a single `Acquire` load, and a
//! [`SnapshotCell::load`] clones the current `Arc` under the mutex — the
//! fleet's workers take one load per shard sub-batch, not per request.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

use warper_ce::{CardinalityEstimator, Precision};
use warper_core::{WarperError, WarperState};

/// A single-publisher, many-reader cell holding the current snapshot.
///
/// Writers go through [`SnapshotCell::publish`]; readers call
/// [`SnapshotCell::load`].
pub struct SnapshotCell<T> {
    /// Published version, bumped *after* the slot holds the new value
    /// (`Release`); readers pair it with an `Acquire` load so a version
    /// observation implies visibility of the slot update.
    version: AtomicU64,
    slot: Mutex<(u64, Arc<T>)>,
}

impl<T> SnapshotCell<T> {
    /// A cell serving `initial` as version 0.
    pub fn new(initial: T) -> Self {
        Self::new_shared(Arc::new(initial))
    }

    /// A cell serving an already-shared `initial` as version 0.
    ///
    /// Many cells constructed from clones of one `Arc` serve the *same*
    /// allocation — the fleet layer (`crate::fleet`) builds every
    /// base-model shard this way, so the cross-shard packer can group
    /// requests by `Arc` pointer identity and answer shards that still
    /// share a snapshot with a single `estimate_many` call.
    pub fn new_shared(initial: Arc<T>) -> Self {
        Self {
            version: AtomicU64::new(0),
            slot: Mutex::new((0, initial)),
        }
    }

    /// The currently published version.
    pub fn version(&self) -> u64 {
        self.version.load(Ordering::Acquire)
    }

    /// Publishes `value`, returning its version. Single-publisher: the
    /// adaptation worker is the only writer, so versions are dense.
    pub fn publish(&self, value: T) -> u64 {
        self.publish_shared(Arc::new(value))
    }

    /// [`SnapshotCell::publish`] for a value that is already shared (or
    /// must stay shared across cells — see [`SnapshotCell::new_shared`]).
    pub fn publish_shared(&self, value: Arc<T>) -> u64 {
        let mut slot = self.slot.lock().unwrap_or_else(PoisonError::into_inner);
        let next = slot.0 + 1;
        *slot = (next, value);
        // Bump only after the slot holds the new value; readers that see
        // `next` are guaranteed to load the new Arc.
        self.version.store(next, Ordering::Release);
        next
    }

    /// The current `(version, snapshot)` pair.
    pub fn load(&self) -> (u64, Arc<T>) {
        let slot = self.slot.lock().unwrap_or_else(PoisonError::into_inner);
        (slot.0, Arc::clone(&slot.1))
    }
}

/// What the serving workers answer from: an immutable, validated model
/// behind a generation number.
pub struct ModelSnapshot {
    /// Publication generation (0 = the offline-trained initial model).
    pub generation: u64,
    /// The frozen model.
    pub model: Box<dyn CardinalityEstimator>,
    /// Numeric precision `model` serves at. [`Precision::F64`] unless a
    /// quantized copy passed the GMQ drift gate (see `crate::quant`).
    pub precision: Precision,
}

impl ModelSnapshot {
    /// The initial snapshot a service starts from (generation 0, the
    /// offline-trained model).
    pub fn initial(model: Box<dyn CardinalityEstimator>) -> Self {
        Self {
            generation: 0,
            model,
            precision: Precision::F64,
        }
    }

    /// A snapshot of a *committed* adaptation step. The controller state is
    /// re-validated here so nothing structurally inconsistent can be
    /// published even if a caller bypasses the supervisor.
    pub fn committed(
        generation: u64,
        model: Box<dyn CardinalityEstimator>,
        state: &WarperState,
    ) -> Result<Self, WarperError> {
        state.validate()?;
        Ok(Self {
            generation,
            model,
            precision: Precision::F64,
        })
    }

    /// Tags the snapshot with the precision its model serves at.
    pub fn with_precision(mut self, precision: Precision) -> Self {
        self.precision = precision;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn publish_bumps_version_and_loads_catch_up() {
        let cell = SnapshotCell::new(10u32);
        assert_eq!(cell.version(), 0);
        let (v, snap) = cell.load();
        assert_eq!((v, *snap), (0, 10));

        assert_eq!(cell.publish(11), 1);
        assert_eq!(cell.publish(12), 2);
        assert_eq!(cell.version(), 2);
        let (v, snap) = cell.load();
        assert_eq!((v, *snap), (2, 12));
    }

    #[test]
    fn shared_cells_serve_one_allocation_until_a_private_publish() {
        let base = Arc::new(41u32);
        let a = SnapshotCell::new_shared(Arc::clone(&base));
        let b = SnapshotCell::new_shared(Arc::clone(&base));
        assert_eq!(Arc::as_ptr(&a.load().1), Arc::as_ptr(&b.load().1));
        // One cell diverging (its shard adapted) leaves the other on the
        // shared allocation.
        b.publish(99);
        assert_eq!(Arc::as_ptr(&a.load().1), Arc::as_ptr(&base));
        assert_ne!(Arc::as_ptr(&b.load().1), Arc::as_ptr(&base));
    }

    #[test]
    fn concurrent_readers_always_see_a_consistent_pair() {
        // The (version, value) pair must swap atomically: with values equal
        // to their versions, any mismatch is a torn read.
        let cell = Arc::new(SnapshotCell::new(0u64));
        std::thread::scope(|s| {
            for _ in 0..4 {
                let cell = Arc::clone(&cell);
                s.spawn(move || {
                    for _ in 0..20_000 {
                        let (v, snap) = cell.load();
                        assert_eq!(v, *snap);
                    }
                });
            }
            for i in 1..=500u64 {
                cell.publish(i);
            }
        });
        assert_eq!(cell.version(), 500);
    }
}
