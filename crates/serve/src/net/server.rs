//! The connection handler and the TCP accept loop.
//!
//! Every server fronts a [`crate::Fleet`] — a single-tenant node is a
//! one-shard fleet. A v1 `EstimateReq` asks shard 0; an `EstimateReqShard`
//! names its shard, and ids outside the fleet are refused with
//! `Unavailable { UnknownShard }`.
//!
//! Backpressure discipline: a connection handler holds at most one request
//! in flight — it reads a frame, asks the shared [`FleetHandle`] (whose
//! per-shard queues shed on overflow), and writes exactly one response.
//! A full queue therefore maps *directly* to a [`Msg::Shed`] on the wire;
//! nothing on the path buffers unboundedly. Deadlines bound both
//! directions: a read or write that misses its per-connection deadline
//! trips the counter (surfaced in [`NetStats`] and
//! `FleetStats::deadline_trips`) and closes the connection — the client's
//! bounded retry owns recovery.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

use super::codec::{Msg, Refusal, Role, NET_PROTO};
use super::conn::{ByteStream, FrameConn};
use super::repl::ReplHub;
use super::tcp::Listener;
use super::NetError;
use crate::fleet::FleetHandle;
use crate::service::ServeError;

/// Per-connection tunables.
#[derive(Debug, Clone, Copy)]
pub struct NetServerConfig {
    /// Read deadline: the longest the handler waits for the next frame
    /// (doubling as the idle timeout) or for the rest of a started frame.
    pub read_deadline: Duration,
    /// Write deadline per response frame.
    pub write_deadline: Duration,
    /// Deadline for the initial `Hello`.
    pub hello_deadline: Duration,
    /// How long a replication shipper waits per hub fetch (bounds its
    /// reaction time to a stop request).
    pub repl_poll: Duration,
}

impl Default for NetServerConfig {
    fn default() -> Self {
        Self {
            read_deadline: Duration::from_secs(5),
            write_deadline: Duration::from_secs(5),
            hello_deadline: Duration::from_secs(2),
            repl_poll: Duration::from_millis(50),
        }
    }
}

#[derive(Default)]
struct NetCounters {
    connections: AtomicU64,
    requests: AtomicU64,
    responses_ok: AtomicU64,
    shed: AtomicU64,
    shed_deadline: AtomicU64,
    rejected: AtomicU64,
    unavailable: AtomicU64,
    deadline_trips: AtomicU64,
    decode_errors: AtomicU64,
    cut_connections: AtomicU64,
    standbys: AtomicU64,
}

/// A point-in-time copy of the network counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Connections accepted.
    pub connections: u64,
    /// Estimate requests received.
    pub requests: u64,
    /// `EstimateOk` responses sent.
    pub responses_ok: u64,
    /// `Shed` responses sent (queue-full backpressure on the wire).
    pub shed: u64,
    /// `ShedDeadline` responses sent (admitted but aged out before a worker
    /// picked the request up). Disjoint from [`NetStats::shed`] — the two
    /// name different pathologies: admission sheds mean the queue bound is
    /// too tight or traffic too hot, deadline sheds mean workers fell
    /// behind what they admitted.
    pub shed_deadline: u64,
    /// `Rejected` responses sent.
    pub rejected: u64,
    /// `Unavailable` responses sent (standby not promoted / draining).
    pub unavailable: u64,
    /// Connections closed because a read/write missed its deadline.
    pub deadline_trips: u64,
    /// Connections closed on undecodable bytes.
    pub decode_errors: u64,
    /// Connections that died mid-frame (peer cut).
    pub cut_connections: u64,
    /// Standby replication subscriptions accepted.
    pub standbys: u64,
}

/// Shared state every connection handler works against. Separated from the
/// TCP accept loop so tests can drive [`serve_connection`] over in-memory
/// pipes and fault injectors.
pub struct ServerCore {
    fleet: FleetHandle,
    serving: AtomicBool,
    hub: Option<Arc<ReplHub>>,
    counters: NetCounters,
    stop: AtomicBool,
}

impl ServerCore {
    /// A core answering from `fleet`. `serving = false` starts the node as
    /// a refusing standby (requests get `Unavailable { NotPrimary }` until
    /// [`ServerCore::set_serving`]). `hub` enables standby subscriptions
    /// (primary role).
    pub fn new_fleet(fleet: FleetHandle, serving: bool, hub: Option<Arc<ReplHub>>) -> Arc<Self> {
        Arc::new(Self {
            fleet,
            serving: AtomicBool::new(serving),
            hub,
            counters: NetCounters::default(),
            stop: AtomicBool::new(false),
        })
    }

    pub fn set_serving(&self, serving: bool) {
        self.serving.store(serving, Ordering::Release);
    }

    pub fn is_serving(&self) -> bool {
        self.serving.load(Ordering::Acquire)
    }

    /// Ask every handler loop to wind down at its next deadline check.
    pub fn stop(&self) {
        self.stop.store(true, Ordering::Release);
    }

    pub fn stopped(&self) -> bool {
        self.stop.load(Ordering::Acquire)
    }

    pub fn stats(&self) -> NetStats {
        let c = &self.counters;
        NetStats {
            connections: c.connections.load(Ordering::Relaxed),
            requests: c.requests.load(Ordering::Relaxed),
            responses_ok: c.responses_ok.load(Ordering::Relaxed),
            shed: c.shed.load(Ordering::Relaxed),
            shed_deadline: c.shed_deadline.load(Ordering::Relaxed),
            rejected: c.rejected.load(Ordering::Relaxed),
            unavailable: c.unavailable.load(Ordering::Relaxed),
            deadline_trips: c.deadline_trips.load(Ordering::Relaxed),
            decode_errors: c.decode_errors.load(Ordering::Relaxed),
            cut_connections: c.cut_connections.load(Ordering::Relaxed),
            standbys: c.standbys.load(Ordering::Relaxed),
        }
    }
}

/// Handle one connection to completion. Generic over the transport so the
/// failpoint suite runs the exact production handler over injected faults.
pub fn serve_connection<S: ByteStream>(stream: S, core: &Arc<ServerCore>, cfg: &NetServerConfig) {
    core.counters.connections.fetch_add(1, Ordering::Relaxed);
    let mut conn = FrameConn::new(stream);
    if conn
        .stream_mut()
        .set_read_deadline(Some(cfg.hello_deadline))
        .is_err()
        || conn
            .stream_mut()
            .set_write_deadline(Some(cfg.write_deadline))
            .is_err()
    {
        return;
    }
    let hello = match conn.recv() {
        Ok(Msg::Hello { role, proto }) if proto == NET_PROTO => role,
        Ok(_) => {
            core.counters.decode_errors.fetch_add(1, Ordering::Relaxed);
            return;
        }
        Err(e) => {
            note_recv_error(core, &e);
            return;
        }
    };
    if conn
        .stream_mut()
        .set_read_deadline(Some(cfg.read_deadline))
        .is_err()
    {
        return;
    }
    match hello {
        Role::Client => client_loop(&mut conn, core),
        Role::Standby => standby_loop(&mut conn, core, cfg),
    }
}

fn note_recv_error(core: &Arc<ServerCore>, e: &NetError) {
    match e {
        NetError::Closed => {}
        NetError::TimedOut => {
            if !core.stopped() {
                core.counters.deadline_trips.fetch_add(1, Ordering::Relaxed);
                core.fleet.note_deadline_trip();
            }
        }
        NetError::Corrupt(_) => {
            core.counters.decode_errors.fetch_add(1, Ordering::Relaxed);
        }
        NetError::Cut(_) | NetError::Io(_) => {
            core.counters
                .cut_connections
                .fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Builds the response for one estimate request against `shard` and bumps
/// the matching counter. Shared by the plain (`EstimateReq` = shard 0) and
/// shard-addressed (`EstimateReqShard`) wire forms.
fn answer_request(core: &Arc<ServerCore>, id: u64, shard: u32, features: Vec<f64>) -> Msg {
    core.counters.requests.fetch_add(1, Ordering::Relaxed);
    if !core.is_serving() {
        core.counters.unavailable.fetch_add(1, Ordering::Relaxed);
        return Msg::Unavailable {
            id,
            reason: Refusal::NotPrimary,
        };
    }
    match core.fleet.estimate(shard, features) {
        Ok(est) => {
            core.counters.responses_ok.fetch_add(1, Ordering::Relaxed);
            Msg::EstimateOk {
                id,
                value_bits: est.value.to_bits(),
                generation: est.generation,
                batch: est.batch_size as u32,
            }
        }
        // Queue full → Shed on the wire. The request is dropped here and
        // now; the server never buffers it.
        Err(ServeError::Shed) => {
            core.counters.shed.fetch_add(1, Ordering::Relaxed);
            Msg::Shed { id }
        }
        // Admitted but aged out — its own wire tag and counter, so a
        // too-tight admission bound and workers falling behind stay
        // distinguishable from the stats alone.
        Err(ServeError::ShedDeadline) => {
            core.counters.shed_deadline.fetch_add(1, Ordering::Relaxed);
            Msg::ShedDeadline { id }
        }
        Err(ServeError::FeatureDim { expected, got }) => {
            core.counters.rejected.fetch_add(1, Ordering::Relaxed);
            Msg::Rejected {
                id,
                expected: expected as u32,
                got: got as u32,
            }
        }
        Err(ServeError::UnknownShard { .. }) => {
            core.counters.unavailable.fetch_add(1, Ordering::Relaxed);
            Msg::Unavailable {
                id,
                reason: Refusal::UnknownShard,
            }
        }
        Err(ServeError::Closed) => {
            core.counters.unavailable.fetch_add(1, Ordering::Relaxed);
            Msg::Unavailable {
                id,
                reason: Refusal::ShuttingDown,
            }
        }
    }
}

fn client_loop<S: ByteStream>(conn: &mut FrameConn<S>, core: &Arc<ServerCore>) {
    loop {
        if core.stopped() {
            return;
        }
        match conn.recv() {
            Ok(Msg::EstimateReq { id, features }) => {
                let resp = answer_request(core, id, 0, features);
                if let Err(e) = conn.send(&resp) {
                    note_recv_error(core, &e);
                    return;
                }
            }
            Ok(Msg::EstimateReqShard {
                id,
                shard,
                features,
            }) => {
                let resp = answer_request(core, id, shard, features);
                if let Err(e) = conn.send(&resp) {
                    note_recv_error(core, &e);
                    return;
                }
            }
            Ok(_) => {
                core.counters.decode_errors.fetch_add(1, Ordering::Relaxed);
                return;
            }
            Err(e) => {
                note_recv_error(core, &e);
                return;
            }
        }
    }
}

/// Ship the replication stream to one standby: a writer loop fetching from
/// the hub plus a reader thread draining acks on a cloned handle.
fn standby_loop<S: ByteStream>(
    conn: &mut FrameConn<S>,
    core: &Arc<ServerCore>,
    cfg: &NetServerConfig,
) {
    let Some(hub) = core.hub.as_ref() else {
        // Not a primary: nothing to ship.
        core.counters.decode_errors.fetch_add(1, Ordering::Relaxed);
        return;
    };
    core.counters.standbys.fetch_add(1, Ordering::Relaxed);
    let Ok(mut ack_stream) = conn.stream().try_clone() else {
        return;
    };
    let hub_rd = Arc::clone(hub);
    let core_rd = Arc::clone(core);
    let cfg_rd = *cfg;
    let reader = std::thread::Builder::new()
        .name("repl-acks".into())
        .spawn(move || {
            // Acks are sparse; poll with the read deadline so a stop
            // request is honored even on a silent link.
            let _ = ack_stream.set_read_deadline(Some(cfg_rd.read_deadline));
            let mut conn = FrameConn::new(ack_stream);
            loop {
                if core_rd.stopped() {
                    return;
                }
                match conn.recv() {
                    Ok(Msg::ReplAck { watermark }) => hub_rd.record_ack(watermark),
                    Ok(_) => return,
                    Err(NetError::TimedOut) => continue,
                    Err(_) => return,
                }
            }
        });
    let mut cursor = 0u64;
    'ship: loop {
        if core.stopped() {
            break;
        }
        for (idx, event) in hub.fetch(cursor, cfg.repl_poll) {
            if conn.send(&Msg::Repl { idx, event }).is_err() {
                core.counters
                    .cut_connections
                    .fetch_add(1, Ordering::Relaxed);
                break 'ship;
            }
            cursor = cursor.max(idx);
        }
    }
    conn.stream().shutdown();
    if let Ok(r) = reader {
        let _ = r.join();
    }
}

/// The TCP server: accept loop + per-connection handler threads.
pub struct NetServer {
    core: Arc<ServerCore>,
    addr: String,
    accept: Option<JoinHandle<()>>,
    conns: Arc<Mutex<Vec<Box<dyn ByteStream>>>>,
    handlers: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl NetServer {
    /// Bind `addr` (use `:0` for an OS-assigned port) and start accepting.
    pub fn bind(addr: &str, core: Arc<ServerCore>, cfg: NetServerConfig) -> Result<Self, NetError> {
        let listener = Listener::bind(addr)?;
        let bound = listener.local_addr().to_string();
        let conns: Arc<Mutex<Vec<Box<dyn ByteStream>>>> = Arc::default();
        let handlers: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::default();
        let accept = {
            let core = Arc::clone(&core);
            let conns = Arc::clone(&conns);
            let handlers = Arc::clone(&handlers);
            std::thread::Builder::new()
                .name("net-accept".into())
                .spawn(move || loop {
                    if core.stopped() {
                        return;
                    }
                    match listener.accept_timeout(Duration::from_millis(25)) {
                        Ok(Some(stream)) => {
                            if let Ok(kill) = stream.try_clone() {
                                conns
                                    .lock()
                                    .unwrap_or_else(PoisonError::into_inner)
                                    .push(kill);
                            }
                            let core = Arc::clone(&core);
                            let spawned = std::thread::Builder::new()
                                .name("net-conn".into())
                                .spawn(move || serve_connection(stream, &core, &cfg));
                            if let Ok(h) = spawned {
                                handlers
                                    .lock()
                                    .unwrap_or_else(PoisonError::into_inner)
                                    .push(h);
                            }
                        }
                        Ok(None) => {}
                        Err(_) => return,
                    }
                })
                .map_err(|e| NetError::Io(e.to_string()))?
        };
        Ok(Self {
            core,
            addr: bound,
            accept: Some(accept),
            conns,
            handlers,
        })
    }

    /// The bound address, with the real port.
    pub fn local_addr(&self) -> &str {
        &self.addr
    }

    pub fn core(&self) -> &Arc<ServerCore> {
        &self.core
    }

    /// Abruptly sever every live connection (clients see cuts, not drains).
    /// The failover path: kill the primary mid-traffic.
    pub fn kill_connections(&self) {
        for conn in self
            .conns
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
        {
            conn.shutdown();
        }
    }

    /// Stop accepting, sever connections, join all threads.
    pub fn shutdown(mut self) -> NetStats {
        self.core.stop();
        self.kill_connections();
        if let Some(a) = self.accept.take() {
            let _ = a.join();
        }
        let handlers: Vec<JoinHandle<()>> =
            std::mem::take(&mut *self.handlers.lock().unwrap_or_else(PoisonError::into_inner));
        for h in handlers {
            let _ = h.join();
        }
        self.core.stats()
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        self.core.stop();
        self.kill_connections();
        if let Some(a) = self.accept.take() {
            let _ = a.join();
        }
    }
}
