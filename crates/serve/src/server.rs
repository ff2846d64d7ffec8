//! The multi-tenant engine: admission control on the caller's thread,
//! and a shard-per-worker pool that owns the tenants.
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
//! construction, never by luck. A `status` op for a tenant the registry
//! does not hold is answered there too, with a `404`: it registers
//! nothing and writes nothing.
//!
//! A worker takes its lines in batches. It drains its mailbox; when
//! the mailbox runs dry it naps for one quantum (`NAP`, 1 ms) and
//! drains again, and it parks on the channel only after a nap found
//! nothing. While it naps no receiver is parked, so
//! [`Server::submit`]'s send wakes no one, and one wake serves every
//! line that arrived during the nap. It naps only when lines come
//! faster than one per quantum (it found work already queued, or its
//! last park was shorter than a quantum), so a sparse feed still parks
//! after every line. No line or drain waits more than one quantum
//! longer than on a worker that parks at once, and each tenant's lines
//! stay in FIFO order in its worker's one mailbox.
//!
//! With `max_epoch` set, each worker is its own watchdog: it keeps a
//! tick every quarter of `max_epoch` (at least 10 ms), force-seals its
//! stale tenants when one is due, and parks no longer than the next
//! one. Only [`Server`] holds the mailboxes' senders, so dropping them
//! stops every worker.

use crate::config::ServeConfig;
use crate::tenant::{IngestReply, Tenant, TenantFinal};
use crate::wire::{self, parse_request, Request, WireError};
use elle_history::trim_json_ws;
use std::collections::HashMap;
use std::io;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long a worker naps after its mailbox runs dry before it looks
/// again instead of parking. A fixed sleep, never a spin: polling would
/// cost CPU per line, which is what napping saves.
const NAP: Duration = Duration::from_millis(1);

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
    Drain(mpsc::Sender<Vec<TenantFinal>>),
}

struct Shared {
    cfg: ServeConfig,
    global_bytes: AtomicUsize,
    registry: Mutex<HashMap<String, Arc<AtomicUsize>>>,
    draining: AtomicBool,
    default_sink: Sink,
}

/// The running service: worker threads and their mailboxes.
pub struct Server {
    shared: Arc<Shared>,
    senders: Vec<mpsc::Sender<Msg>>,
    workers: Vec<JoinHandle<()>>,
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
    /// ingestion), then spawn the worker pool.
    /// `default_sink` receives lines with no requesting caller:
    /// the verdicts of seals `max_epoch` forced.
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
        Ok(Server {
            shared,
            senders,
            workers: handles,
        })
    }

    /// Submit one request line. Admission (size, tenant validity,
    /// budgets, drain state) happens here on the caller's thread;
    /// accepted lines are enqueued to the owning worker and processed
    /// asynchronously. Every response goes through `sink`.
    pub fn submit(&self, line: &str, sink: &Sink) -> Submitted {
        if trim_json_ws(line).is_empty() {
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
                    if let Request::Status { .. } = req {
                        drop(registry);
                        sink(&wire::reject(Some(&tenant), 404, "unknown tenant"));
                        return Submitted::Rejected;
                    }
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
        finals
    }

    /// Crash hook for tests: stop the workers *without* final seals or
    /// their checkpoints, as an abrupt kill would. Queued lines still
    /// drain to the journal first (a crash after processing is also a
    /// crash), which is what makes store-level crash tests
    /// deterministic.
    pub fn abort(self) {
        drop(self);
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // After drain() there is nothing left to stop. Otherwise this is
        // abort(), or the escape hatch that keeps a panicking test from
        // deadlocking: the workers see their mailboxes disconnect once
        // the queued lines are done, and stop without final seals.
        self.senders.clear();
        for h in self.workers.drain(..) {
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

/// Force-seal every tenant whose epoch has stayed open `max` or
/// longer; a failed tenant is skipped.
fn force_stale_seals(shared: &Shared, tenants: &mut HashMap<String, Tenant>, max: Duration) {
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

fn worker_loop(shared: Arc<Shared>, rx: mpsc::Receiver<Msg>, mut tenants: HashMap<String, Tenant>) {
    // With `max_epoch` set, the worker's watchdog tick: `max_epoch`,
    // the tick's period and when it is next due.
    let mut watchdog = shared.cfg.max_epoch.map(|max| {
        let period = (max / 4).max(Duration::from_millis(10));
        (max, period, Instant::now() + period)
    });
    // Nap when the mailbox runs dry only if lines come faster than one
    // per quantum: work was already queued, or the last park was short.
    let mut nap = false;
    loop {
        if let Some((max, period, due)) = &mut watchdog {
            let now = Instant::now();
            if now >= *due {
                *due = now + *period;
                force_stale_seals(&shared, &mut tenants, *max);
            }
        }
        let msg = match rx.try_recv() {
            Ok(msg) => {
                nap = true;
                msg
            }
            Err(mpsc::TryRecvError::Disconnected) => return,
            Err(mpsc::TryRecvError::Empty) if nap => {
                nap = false;
                std::thread::sleep(NAP);
                continue;
            }
            Err(mpsc::TryRecvError::Empty) => {
                // Park, but no longer than the next tick.
                let parked = Instant::now();
                let received = match watchdog {
                    Some((_, _, due)) => rx.recv_timeout(due.saturating_duration_since(parked)),
                    None => rx.recv().map_err(mpsc::RecvTimeoutError::from),
                };
                let msg = match received {
                    Ok(msg) => msg,
                    Err(mpsc::RecvTimeoutError::Timeout) => continue,
                    Err(mpsc::RecvTimeoutError::Disconnected) => return,
                };
                nap = parked.elapsed() < NAP;
                msg
            }
        };
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
                            Request::Event { event, .. } => {
                                tenant.ingest_owned(&shared.cfg, *event)
                            }
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
