//! The request/response types every serving path shares.
//!
//! A request enters through [`crate::FleetHandle::estimate`] — single-tenant
//! users run a one-shard [`crate::Fleet`] — and is answered through a
//! `ResponseSlot`: the fleet's worker pool fills it with an [`Estimate`]
//! or a [`ServeError`], and the blocked requester wakes.

use std::sync::{Condvar, Mutex, PoisonError};

/// A successful estimate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Estimate {
    /// The model's cardinality estimate.
    pub value: f64,
    /// Generation of the snapshot that served it (staleness = current cell
    /// version minus this).
    pub generation: u64,
    /// Size of the `estimate_many` call this request rode in.
    pub batch_size: usize,
}

/// Why a request was not answered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeError {
    /// Admission control: the shard's queue was full.
    Shed,
    /// The request was admitted but waited past
    /// [`crate::FleetConfig::queue_deadline`] before a worker reached it.
    ShedDeadline,
    /// The fleet is shutting down.
    Closed,
    /// The request's feature vector does not match the model.
    FeatureDim {
        /// The serving model's feature dimension.
        expected: usize,
        /// The request's feature count.
        got: usize,
    },
    /// The request named a shard this fleet does not have.
    UnknownShard {
        /// The shard id the request asked for.
        shard: u32,
    },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Shed => write!(f, "request shed (queue full)"),
            ServeError::ShedDeadline => write!(f, "request shed (queue deadline exceeded)"),
            ServeError::Closed => write!(f, "service closed"),
            ServeError::FeatureDim { expected, got } => {
                write!(
                    f,
                    "feature dim mismatch: model expects {expected}, got {got}"
                )
            }
            ServeError::UnknownShard { shard } => write!(f, "unknown shard {shard}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// A one-shot rendezvous the worker fills and the requester waits on.
pub(crate) struct ResponseSlot {
    result: Mutex<Option<Result<Estimate, ServeError>>>,
    ready: Condvar,
}

impl ResponseSlot {
    pub(crate) fn new() -> Self {
        Self {
            result: Mutex::new(None),
            ready: Condvar::new(),
        }
    }

    pub(crate) fn fill(&self, value: Result<Estimate, ServeError>) {
        let mut slot = self.result.lock().unwrap_or_else(PoisonError::into_inner);
        *slot = Some(value);
        drop(slot);
        self.ready.notify_one();
    }

    pub(crate) fn wait(&self) -> Result<Estimate, ServeError> {
        let mut slot = self.result.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if let Some(res) = slot.take() {
                return res;
            }
            slot = self
                .ready
                .wait(slot)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}
