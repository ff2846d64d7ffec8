//! The multi-tenant engine: admission control on the caller's thread,
//! a shard-per-worker pool that owns the tenants, and a watchdog.
//!
//! Tenants are sharded across workers by a stable hash of the tenant
//! id, so one tenant is always served by one worker: ingestion is
//! serial per tenant (the ordering the checker requires) and parallel
//! across tenants, with no locks around any checker. The only shared
//! mutable state is the admission ledger — a per-tenant buffered-byte
//! counter plus a global one — which [`Server::submit`] charges
//! *before* enqueueing a line and the owning worker releases when it
//! dequeues it. A line that would blow a budget is rejected on the
//! caller's thread with a `429`; queue memory is bounded by
//! construction, never by luck.

use crate::config::ServeConfig;
use crate::tenant::{IngestReply, Tenant, TenantFinal};
use crate::wire::{self, parse_request, Request, WireError};
use std::collections::HashMap;
use std::io;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Where response lines go: verdict envelopes, warnings, rejects. The
/// binary points this at stdout (or the requesting socket); tests
/// collect into a vector.
pub type Sink = Arc<dyn Fn(&str) + Send + Sync>;

/// What [`Server::submit`] decided about one line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Submitted {
    /// Accepted (enqueued) or answered inline.
    Ok,
    /// Rejected; the reject line went to the sink.
    Rejected,
    /// The line was a `shutdown` op: the service is now draining and
    /// the caller should stop feeding and call [`Server::drain`].
    Shutdown,
}

enum Msg {
    Req {
        tenant: String,
        bytes: usize,
        budget: Arc<AtomicUsize>,
        req: Request,
        sink: Sink,
    },
    Tick,
    Drain(mpsc::Sender<Vec<TenantFinal>>),
}

struct Shared {
    cfg: ServeConfig,
    global_bytes: AtomicUsize,
    registry: Mutex<HashMap<String, Arc<AtomicUsize>>>,
    draining: AtomicBool,
    default_sink: Sink,
}

/// The running service: worker threads, their mailboxes, the watchdog.
pub struct Server {
    shared: Arc<Shared>,
    senders: Vec<mpsc::Sender<Msg>>,
    workers: Vec<JoinHandle<()>>,
    watchdog: Option<JoinHandle<()>>,
}

/// FNV-1a: a stable tenant→shard hash (must not vary across runs or
/// platforms, or restart would re-shard tenants mid-history — harmless
/// for correctness, but needless churn).
fn shard_of(tenant: &str, workers: usize) -> usize {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in tenant.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    (h % workers as u64) as usize
}

impl Server {
    /// Start the service: recover every tenant found under the data
    /// directory (before any line is accepted, so recovery can't race
    /// ingestion), then spawn the worker pool and watchdog.
    /// `default_sink` receives lines with no requesting caller:
    /// watchdog-forced seal verdicts.
    pub fn start(cfg: ServeConfig, default_sink: Sink) -> io::Result<Server> {
        let workers = cfg.workers.max(1);
        let mut maps: Vec<HashMap<String, Tenant>> = (0..workers).map(|_| HashMap::new()).collect();
        let mut registry = HashMap::new();
        if let Some(root) = &cfg.data_dir {
            let tenants_dir = root.join("tenants");
            if let Ok(entries) = std::fs::read_dir(&tenants_dir) {
                let mut names: Vec<String> = entries
                    .filter_map(|e| e.ok()?.file_name().into_string().ok())
                    .filter(|n| crate::config::valid_tenant_id(n))
                    .collect();
                names.sort_unstable();
                for name in names {
                    // Replay verdicts were already persisted by the run
                    // that produced them (at-least-once); discard here.
                    // An unrecoverable tenant is skipped — it will fail
                    // again, attributed, when a request addresses it.
                    if let Ok((tenant, _replayed)) = Tenant::open(&name, &cfg) {
                        registry.insert(name.clone(), Arc::new(AtomicUsize::new(0)));
                        maps[shard_of(&name, workers)].insert(name, tenant);
                    }
                }
            }
        }
        let shared = Arc::new(Shared {
            cfg,
            global_bytes: AtomicUsize::new(0),
            registry: Mutex::new(registry),
            draining: AtomicBool::new(false),
            default_sink,
        });
        let mut senders = Vec::with_capacity(workers);
        let mut handles = Vec::with_capacity(workers);
        for map in maps {
            let (tx, rx) = mpsc::channel();
            let shared = Arc::clone(&shared);
            senders.push(tx);
            handles.push(std::thread::spawn(move || worker_loop(shared, rx, map)));
        }
        let watchdog = shared.cfg.max_epoch.map(|max| {
            let senders = senders.clone();
            std::thread::spawn(move || {
                let tick = (max / 4).max(Duration::from_millis(10));
                loop {
                    std::thread::sleep(tick);
                    if senders.iter().any(|s| s.send(Msg::Tick).is_err()) {
                        return;
                    }
                }
            })
        });
        Ok(Server {
            shared,
            senders,
            workers: handles,
            watchdog,
        })
    }

    /// Submit one request line. Admission (size, tenant validity,
    /// budgets, drain state) happens here on the caller's thread;
    /// accepted lines are enqueued to the owning worker and processed
    /// asynchronously. Every response goes through `sink`.
    pub fn submit(&self, line: &str, sink: &Sink) -> Submitted {
        if line.trim().is_empty() {
            return Submitted::Ok;
        }
        if line.len() > self.shared.cfg.max_line_bytes {
            sink(&wire::reject(
                None,
                400,
                &format!(
                    "line of {} bytes exceeds the {}-byte limit",
                    line.len(),
                    self.shared.cfg.max_line_bytes
                ),
            ));
            return Submitted::Rejected;
        }
        let req = match parse_request(line) {
            Ok(req) => req,
            Err(WireError {
                tenant,
                code,
                reason,
            }) => {
                sink(&wire::reject(tenant.as_deref(), code, &reason));
                return Submitted::Rejected;
            }
        };
        if let Request::Shutdown = req {
            self.shared.draining.store(true, Ordering::SeqCst);
            return Submitted::Shutdown;
        }
        if let Request::Status { tenant: None } = req {
            sink(&self.global_status());
            return Submitted::Ok;
        }
        let tenant = match &req {
            Request::Event { tenant, .. }
            | Request::BadEvent { tenant, .. }
            | Request::Seal { tenant }
            | Request::Close { tenant } => tenant.clone(),
            Request::Status { tenant: Some(t) } => t.clone(),
            Request::Status { tenant: None } | Request::Shutdown => unreachable!(),
        };
        if self.shared.draining.load(Ordering::SeqCst) {
            sink(&wire::reject(Some(&tenant), 503, "service is draining"));
            return Submitted::Rejected;
        }
        let budget = {
            let mut registry = self.shared.registry.lock().expect("registry poisoned");
            match registry.get(&tenant) {
                Some(b) => Arc::clone(b),
                None => {
                    if registry.len() >= self.shared.cfg.max_tenants {
                        drop(registry);
                        sink(&wire::reject(
                            Some(&tenant),
                            429,
                            &format!(
                                "tenant limit reached ({} live tenants)",
                                self.shared.cfg.max_tenants
                            ),
                        ));
                        return Submitted::Rejected;
                    }
                    let b = Arc::new(AtomicUsize::new(0));
                    registry.insert(tenant.clone(), Arc::clone(&b));
                    b
                }
            }
        };
        // Charge both ledgers, then check; on overflow refund and
        // reject. Charging first makes concurrent submits conservative
        // (they can over-reject under contention, never over-admit).
        let bytes = line.len();
        let t_after = budget.fetch_add(bytes, Ordering::SeqCst) + bytes;
        let g_after = self.shared.global_bytes.fetch_add(bytes, Ordering::SeqCst) + bytes;
        if t_after > self.shared.cfg.max_tenant_bytes || g_after > self.shared.cfg.max_total_bytes {
            budget.fetch_sub(bytes, Ordering::SeqCst);
            self.shared.global_bytes.fetch_sub(bytes, Ordering::SeqCst);
            let which = if t_after > self.shared.cfg.max_tenant_bytes {
                format!(
                    "tenant buffer budget exceeded ({t_after} > {} bytes)",
                    self.shared.cfg.max_tenant_bytes
                )
            } else {
                format!(
                    "global buffer budget exceeded ({g_after} > {} bytes)",
                    self.shared.cfg.max_total_bytes
                )
            };
            sink(&wire::reject(Some(&tenant), 429, &which));
            return Submitted::Rejected;
        }
        let shard = shard_of(&tenant, self.senders.len());
        let msg = Msg::Req {
            tenant,
            bytes,
            budget,
            req,
            sink: Arc::clone(sink),
        };
        self.senders[shard].send(msg).expect("worker died");
        Submitted::Ok
    }

    fn global_status(&self) -> String {
        let tenants = self
            .shared
            .registry
            .lock()
            .expect("registry poisoned")
            .len();
        format!(
            "{{\"status\":{{\"tenants\":{tenants},\"buffered_bytes\":{},\"draining\":{}}}}}",
            self.shared.global_bytes.load(Ordering::SeqCst),
            self.shared.draining.load(Ordering::SeqCst),
        )
    }

    /// Graceful drain: stop admitting, let every queued line finish,
    /// final-seal and checkpoint every tenant, stop the workers.
    /// Returns the final verdicts sorted by tenant id.
    pub fn drain(mut self) -> Vec<TenantFinal> {
        self.shared.draining.store(true, Ordering::SeqCst);
        let (ack_tx, ack_rx) = mpsc::channel();
        for tx in &self.senders {
            // A worker that already stopped has nothing to drain.
            let _ = tx.send(Msg::Drain(ack_tx.clone()));
        }
        drop(ack_tx);
        let mut finals: Vec<TenantFinal> = ack_rx.iter().flatten().collect();
        finals.sort_by(|a, b| a.tenant.cmp(&b.tenant));
        self.senders.clear();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
        if let Some(h) = self.watchdog.take() {
            let _ = h.join();
        }
        finals
    }

    /// Crash hook for tests: stop the workers *without* final seals or
    /// their checkpoints, as an abrupt kill would. Queued lines still
    /// drain to the journal first (a crash after processing is also a
    /// crash), which is what makes store-level crash tests
    /// deterministic.
    pub fn abort(mut self) {
        self.senders.clear();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
        if let Some(h) = self.watchdog.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // Consumed by drain()/abort() in the normal paths; this is the
        // escape hatch that keeps a panicking test from deadlocking.
        self.senders.clear();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
        if let Some(h) = self.watchdog.take() {
            let _ = h.join();
        }
    }
}

fn send_reply(sink: &Sink, tenant: &str, reply: &IngestReply) {
    if let Some(w) = &reply.warning {
        sink(&wire::warning(tenant, w));
    }
    if let Some(v) = &reply.sealed {
        sink(v);
    }
    if let Some(f) = &reply.failed {
        sink(&wire::reject(
            Some(tenant),
            422,
            &format!("tenant failed: {f}"),
        ));
    }
}

fn worker_loop(shared: Arc<Shared>, rx: mpsc::Receiver<Msg>, mut tenants: HashMap<String, Tenant>) {
    for msg in rx {
        match msg {
            Msg::Req {
                tenant: name,
                bytes,
                budget,
                req,
                sink,
            } => {
                budget.fetch_sub(bytes, Ordering::SeqCst);
                shared.global_bytes.fetch_sub(bytes, Ordering::SeqCst);
                if !tenants.contains_key(&name) {
                    match Tenant::open(&name, &shared.cfg) {
                        Ok((t, _replayed)) => {
                            tenants.insert(name.clone(), t);
                        }
                        Err(e) => {
                            shared
                                .registry
                                .lock()
                                .expect("registry poisoned")
                                .remove(&name);
                            sink(&wire::reject(
                                Some(&name),
                                500,
                                &format!("tenant store unrecoverable: {e}"),
                            ));
                            continue;
                        }
                    }
                }
                match req {
                    // Close consumes the tenant ([`Tenant::close`]
                    // itself renders the 422 form for a failed one).
                    Request::Close { .. } => {
                        let t = tenants.remove(&name).expect("just inserted");
                        shared
                            .registry
                            .lock()
                            .expect("registry poisoned")
                            .remove(&name);
                        sink(&t.close().verdict);
                    }
                    Request::Status { .. } => {
                        sink(&tenants[&name].status_line());
                    }
                    Request::Shutdown => {} // handled in submit()
                    req => {
                        let tenant = tenants.get_mut(&name).expect("just inserted");
                        if let Some(reason) = tenant.failed() {
                            sink(&wire::reject(
                                Some(&name),
                                422,
                                &format!("tenant failed: {reason}"),
                            ));
                            continue;
                        }
                        let outcome = match req {
                            Request::Event { event, .. } => tenant.ingest(&shared.cfg, &event),
                            Request::BadEvent { message, .. } => {
                                tenant.ingest_bad(&shared.cfg, &message)
                            }
                            Request::Seal { .. } => tenant.seal().map(|line| IngestReply {
                                sealed: Some(line),
                                ..IngestReply::default()
                            }),
                            _ => unreachable!("handled above"),
                        };
                        match outcome {
                            Ok(reply) => send_reply(&sink, &name, &reply),
                            Err(e) => sink(&wire::reject(
                                Some(&name),
                                500,
                                &format!("durability failure: {e}"),
                            )),
                        }
                    }
                }
            }
            Msg::Tick => {
                if let Some(max) = shared.cfg.max_epoch {
                    for tenant in tenants.values_mut() {
                        if tenant.failed().is_some() {
                            continue;
                        }
                        match tenant.maybe_force_seal(max) {
                            Ok(Some(line)) => (shared.default_sink)(&line),
                            Ok(None) => {}
                            Err(e) => (shared.default_sink)(&wire::reject(
                                Some(tenant.name()),
                                500,
                                &format!("durability failure: {e}"),
                            )),
                        }
                    }
                }
            }
            Msg::Drain(ack) => {
                let mut names: Vec<String> = tenants.keys().cloned().collect();
                names.sort_unstable();
                let finals = names
                    .into_iter()
                    .map(|n| tenants.remove(&n).expect("present").close())
                    .collect();
                let _ = ack.send(finals);
                return;
            }
        }
    }
}
