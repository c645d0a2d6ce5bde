//! The serving layer: a concurrent cardinality-estimation service with
//! hot-swappable model snapshots and an online adaptation loop.
//!
//! The paper evaluates Warper as an offline replay; a deployment has to
//! answer estimation requests *while* adapting. This crate closes that gap
//! with plain `std` threads (no async runtime):
//!
//! * [`snapshot`] — epoch-style publication: workers answer from an
//!   immutable [`ModelSnapshot`] behind a [`SnapshotCell`]; the adaptation
//!   loop publishes a new generation with one atomic version bump.
//! * [`queue`] — the bounded request queue: producers shed instead of
//!   blocking (admission control), consumers drain batches for the model's
//!   one-GEMM-per-layer `estimate_many` path.
//! * [`fleet`] — the one serving core (DESIGN.md §12): one shard —
//!   snapshot cell, admission queue, adaptation worker, durable lineage —
//!   per `(tenant, table)`, a shared worker pool with deficit-round-robin
//!   fairness, and cross-shard batch packing that answers many small
//!   tenants' requests with one `estimate_many` call whenever their shards
//!   still share a snapshot `Arc`. Single-tenant serving is a one-shard
//!   fleet. [`service`] holds the request/response types.
//! * [`adapt`] — the one adaptation step, run by each shard's background
//!   worker and by the synchronous replay barriers: the supervised
//!   checkpoint → invoke → validate → commit cycle; only *committed* steps
//!   are ever published (the supervisor's commit hook is the single
//!   publication point), so a rolled-back update can never serve a request.
//! * [`quant`] — the dual-precision publication gate (DESIGN.md §10):
//!   every publication quantizes the validated f64 model's serving copy
//!   (f32 or int8 SIMD microkernels) and admits it only if its GMQ drift
//!   vs the full model stays inside budget, falling back to f64 otherwise;
//!   training, checkpoints, and the WAL stay f64 throughout.
//! * [`net`] — the networked front-end and replicated durability:
//!   a length-prefixed CRC-framed binary protocol over a `ByteStream` seam
//!   (TCP, in-memory pipes, or fault injection), streaming WAL/checkpoint
//!   shipping to a warm standby that validates everything before install
//!   and promotes only through the full recovery path, and a bounded-retry
//!   client that can fail but never hang (DESIGN.md §11).
//!
//! [`replay`] is the single-tenant measurement harness over all of it:
//! pre-generated query streams, mid-run drift events, per-client latency
//! histograms, and an order-independent estimate checksum that makes
//! replays comparable bit-for-bit (see its module docs for the determinism
//! argument). With [`replay::DurableReplay`] configured, the harness is
//! also crash-safe: annotation labels are write-ahead logged, supervisor
//! commits drive atomic checkpoints (via `warper-durable`), and a restarted
//! replay over the same state directory resumes the controller, pool, and
//! serving model with zero acknowledged-label loss. [`run_fleet_replay`] is
//! its multi-tenant counterpart.

pub mod adapt;
pub mod fleet;
pub mod net;
pub mod quant;
pub mod queue;
pub mod replay;
pub mod service;
pub mod snapshot;

pub use adapt::{AdaptConfig, AdaptStats, AdaptWorker};
pub use fleet::{
    run_fleet_replay, Fleet, FleetConfig, FleetDurable, FleetHandle, FleetReplaySpec, FleetReport,
    FleetStats, ShardAdapt, ShardKey, ShardReport, ShardSpec, ShardStats,
};
pub use net::{
    AckLevel, AckMode, EstimateClient, NetError, NetLoadReport, NetLoadSpec, NetServer,
    NetServerConfig, PrimaryNode, PrimarySpec, ReplHub, ReplicatedStore, RetryPolicy,
    StandbyApplier, StandbyConfig, StandbyNode,
};
pub use quant::{gate_and_choose, prepare_serving_model, probe_features, QuantOutcome};
pub use queue::{BatchQueue, PushError};
pub use replay::{
    run_replay, AdaptMode, DriftEvent, DriftKind, DurabilityReport, DurableReplay, ReplayReport,
    ReplaySpec,
};
pub use service::{Estimate, ServeError};
pub use snapshot::{ModelSnapshot, SnapshotCell};
pub use warper_ce::Precision;
