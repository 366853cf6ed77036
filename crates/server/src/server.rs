//! The event loop's driver: the acceptor and worker threads, their
//! sockets, `poll` and clock, around the I/O-free core in `worker.rs`.
//!
//! One acceptor thread polls the listener and deals fresh connections
//! round-robin onto worker inboxes. Each worker owns its connections
//! outright — no cross-thread handoff after accept — and sweeps: poll,
//! make one read per readable connection (handed to the core stamped
//! with the clock), flush what the core has released. A sweep is a
//! *round*: if it staged a batch that owes a log force, the driver
//! re-polls, without waiting, the connections it has not served (each
//! at most once, until none is readable), calls `wait_durable` once on
//! the round's highest ticket, hands the outcome to the core and
//! flushes the replies that releases. Decoding, admission, coalescing,
//! framing and backpressure are the core's; `DESIGN.md` §10 has the
//! argument.

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use polytm_obs::{MetricsRegistry, MetricsSource};

use crate::poll::{Interest, Poller, READ};
use crate::store::ServerStore;
use crate::worker::Worker;

/// Tunables for [`Server::spawn`].
#[derive(Clone, Copy, Debug)]
pub struct ServerConfig {
    /// Event-loop worker threads (connections are partitioned across
    /// them at accept time). Defaults to available parallelism.
    pub workers: usize,
    /// Max admitted write requests per coalesced commit.
    pub batch_max_ops: usize,
    /// Byte budget (payload bytes) per coalesced commit.
    pub batch_max_bytes: usize,
    /// Unflushed response bytes above which a connection stops being
    /// read (backpressure).
    pub max_backlog: usize,
    /// Server-side cap on entries returned by one `SCAN`.
    pub scan_cap: u32,
    /// Attach CRC-32 trailers to response frames.
    pub crc: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: std::thread::available_parallelism().map_or(1, |n| n.get()),
            batch_max_ops: 64,
            batch_max_bytes: 256 << 10,
            max_backlog: 256 << 10,
            scan_cap: 4096,
            crc: false,
        }
    }
}

macro_rules! server_counters {
    ($($(#[$doc:meta])* $field:ident,)+) => {
        /// Monotonic event-loop counters; all relaxed (they are
        /// telemetry, not synchronisation). `docs/RUNBOOK.md` §4
        /// documents how to read them.
        #[derive(Debug, Default)]
        pub struct ServerStats {
            $($(#[$doc])* pub $field: AtomicU64,)+
        }

        /// Register the event-loop counters under a prefix
        /// (conventionally `server`) in the unified metrics plane. Each
        /// key is its field's name; `batch_ops_per_commit` is the
        /// derived coalescing factor.
        impl MetricsSource for ServerStats {
            fn collect(&self, out: &mut Vec<(String, f64)>) {
                $(out.push((stringify!($field).to_string(), self.$field.load(Ordering::Relaxed) as f64));)+
                out.push(("batch_ops_per_commit".to_string(), self.batch_ops_per_commit()));
            }
        }
    };
}

server_counters! {
    /// Connections accepted.
    accepted,
    /// Connections closed (any reason).
    closed,
    /// Well-formed requests decoded.
    requests,
    /// Responses released to the output (== requests on a healthy
    /// stream).
    responses,
    /// Coalesced write commits.
    batches,
    /// Write requests carried by those commits (`batched_ops /
    /// batches` = mean coalescing factor,
    /// [`ServerStats::batch_ops_per_commit`]).
    batched_ops,
    /// Bytes read off sockets.
    bytes_in,
    /// Bytes flushed to sockets.
    bytes_out,
    /// Transitions into the "backlog full, reads paused" state.
    backpressure_stalls,
    /// Total nanoseconds connections spent in that state (stall entry
    /// to read-resume, accumulated at resume or close). With the edge
    /// count above this turns "it stalled" into "it stalled for 40 ms
    /// of the run".
    backpressure_stalled_ns,
    /// Connections dropped for framing corruption.
    corrupt_conns,
    /// Error responses due to the store latching read-only.
    read_only_errors,
    /// `GET` keys handed to [`ServerStore::warm`] ahead of execution
    /// (bumped once per batch window; a window holding a single `GET`
    /// hints nothing). `hinted_keys / requests` says whether clients
    /// pipeline deeply enough for the hint to act.
    hinted_keys,
}

impl ServerStats {
    /// Mean admitted write requests per coalesced commit so far.
    pub fn batch_ops_per_commit(&self) -> f64 {
        let batches = self.batches.load(Ordering::Relaxed);
        if batches == 0 {
            0.0
        } else {
            self.batched_ops.load(Ordering::Relaxed) as f64 / batches as f64
        }
    }
}

/// A running server; dropping (or calling [`ServerHandle::shutdown`])
/// stops the acceptor and workers and closes every connection.
pub struct ServerHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    stats: Arc<ServerStats>,
    threads: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Shared counters.
    pub fn stats(&self) -> &Arc<ServerStats> {
        &self.stats
    }

    /// Stop accepting, drain the event loops, and join all threads.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.stop.store(true, Ordering::Release);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// Namespace for spawning the front end.
pub struct Server;

impl Server {
    /// Bind `addr` and spawn the acceptor + worker threads serving
    /// `store`. Returns immediately; the handle owns the threads.
    pub fn spawn(
        store: Arc<dyn ServerStore>,
        addr: &str,
        config: ServerConfig,
    ) -> std::io::Result<ServerHandle> {
        Self::spawn_inner(store, addr, config, None)
    }

    /// Like [`Server::spawn`], but attach a metrics registry: the
    /// server registers its own counters under the `server` prefix and
    /// answers `STATS` requests with snapshots of the whole registry
    /// (whatever else the embedder registered — STM, WAL, advisor,
    /// tracer).
    pub fn spawn_with_metrics(
        store: Arc<dyn ServerStore>,
        addr: &str,
        config: ServerConfig,
        registry: Arc<MetricsRegistry>,
    ) -> std::io::Result<ServerHandle> {
        Self::spawn_inner(store, addr, config, Some(registry))
    }

    fn spawn_inner(
        store: Arc<dyn ServerStore>,
        addr: &str,
        config: ServerConfig,
        registry: Option<Arc<MetricsRegistry>>,
    ) -> std::io::Result<ServerHandle> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stats = Arc::new(ServerStats::default());
        if let Some(reg) = &registry {
            reg.register("server", Arc::clone(&stats) as Arc<dyn MetricsSource>);
        }
        let workers = config.workers.max(1);

        let inboxes: Vec<Arc<Mutex<Vec<TcpStream>>>> =
            (0..workers).map(|_| Arc::new(Mutex::new(Vec::new()))).collect();

        let mut threads = Vec::with_capacity(workers + 1);
        for (i, inbox) in inboxes.iter().enumerate() {
            let inbox = Arc::clone(inbox);
            let store = Arc::clone(&store);
            let stop = Arc::clone(&stop);
            let stats = Arc::clone(&stats);
            let registry = registry.clone();
            threads.push(
                std::thread::Builder::new()
                    .name(format!("polytm-server-w{i}"))
                    .spawn(move || worker_loop(inbox, store, config, stop, stats, registry))?,
            );
        }
        {
            let stop = Arc::clone(&stop);
            let stats = Arc::clone(&stats);
            threads.push(
                std::thread::Builder::new()
                    .name("polytm-server-accept".into())
                    .spawn(move || accept_loop(listener, inboxes, stop, stats))?,
            );
        }
        Ok(ServerHandle { addr: local, stop, stats, threads })
    }
}

fn accept_loop(
    listener: TcpListener,
    inboxes: Vec<Arc<Mutex<Vec<TcpStream>>>>,
    stop: Arc<AtomicBool>,
    stats: Arc<ServerStats>,
) {
    let poller = Poller::new();
    let mut next = 0usize;
    while !stop.load(Ordering::Acquire) {
        poller.wait(
            &[Interest { fd: listener.as_raw_fd(), events: READ }],
            Duration::from_millis(25),
        );
        loop {
            match listener.accept() {
                Ok((stream, _)) => {
                    let _ = stream.set_nonblocking(true);
                    let _ = stream.set_nodelay(true);
                    stats.accepted.fetch_add(1, Ordering::Relaxed);
                    inboxes[next % inboxes.len()].lock().unwrap().push(stream);
                    next += 1;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => break,
            }
        }
        poller.idle_backoff();
    }
}

/// Bytes read per connection per sweep; bounds the batch window.
const READ_CHUNK: usize = 64 << 10;

/// The driver: owns the sockets, polls them, and feeds the worker's
/// I/O-free core ([`Worker`]) bytes, timestamps and the round's force.
fn worker_loop(
    inbox: Arc<Mutex<Vec<TcpStream>>>,
    store: Arc<dyn ServerStore>,
    config: ServerConfig,
    stop: Arc<AtomicBool>,
    stats: Arc<ServerStats>,
    registry: Option<Arc<MetricsRegistry>>,
) {
    let mut worker = Worker::new(Arc::clone(&store), config, Arc::clone(&stats), registry);
    let poller = Poller::new();
    let epoch = Instant::now();
    let clock = || epoch.elapsed().as_nanos() as u64;
    let mut streams: Vec<TcpStream> = Vec::new();
    let mut scratch = vec![0u8; READ_CHUNK];
    // Reused across sweeps and re-polls.
    let mut interests: Vec<Interest> = Vec::new();
    let mut polled: Vec<usize> = Vec::new();
    let mut served: Vec<bool> = Vec::new();

    while !stop.load(Ordering::Acquire) {
        for stream in inbox.lock().unwrap().drain(..) {
            worker.open();
            streams.push(stream);
        }

        let now = clock();
        interests.clear();
        interests.extend(
            streams
                .iter()
                .enumerate()
                .map(|(i, s)| Interest { fd: s.as_raw_fd(), events: worker.interest(i, now) }),
        );
        let ready = poller.wait(&interests, Duration::from_millis(25));
        let mut progressed = false;
        served.clear();
        served.resize(streams.len(), false);

        for (i, ready) in ready.into_iter().enumerate() {
            if ready & interests[i].events & READ != 0 {
                progressed |= fill(&mut streams[i], &mut scratch, &mut worker, i, clock());
                served[i] = true;
            }
            // Optimistic flush: fresh responses should not wait a poll
            // round; a full kernel buffer just says `WouldBlock` and the
            // WRITE interest wakes us later. Held replies are past the
            // release mark, so they stay put.
            progressed |= flush(&mut streams[i], &mut worker, i);
        }

        if worker.owes_force() {
            // Every connection whose window arrived meanwhile can stage
            // behind the same force: re-poll, without waiting, the ones
            // not served yet, each at most once, until none is readable.
            loop {
                polled.clear();
                interests.clear();
                for (i, s) in streams.iter().enumerate() {
                    if !served[i] && worker.readable(i) {
                        polled.push(i);
                        interests.push(Interest { fd: s.as_raw_fd(), events: READ });
                    }
                }
                if polled.is_empty() {
                    break;
                }
                let mut served_any = false;
                for (&i, ready) in polled.iter().zip(poller.wait(&interests, Duration::ZERO)) {
                    if ready & READ != 0 {
                        fill(&mut streams[i], &mut scratch, &mut worker, i, clock());
                        served[i] = true;
                        served_any = true;
                    }
                }
                if !served_any {
                    break;
                }
            }
        }
        if let Some(ticket) = worker.end_round() {
            // The round's one log force, then its held replies go out.
            worker.on_forced(store.wait_durable(ticket));
            for (i, stream) in streams.iter_mut().enumerate() {
                flush(stream, &mut worker, i);
            }
            progressed = true;
        }

        let mut i = 0;
        streams.retain(|_| {
            i += 1;
            !worker.finished(i - 1)
        });
        worker.reap(clock());

        if !progressed {
            poller.idle_backoff();
        }
    }
    stats.closed.fetch_add(streams.len() as u64, Ordering::Relaxed);
}

/// One read per sweep, into a buffer the size of the sweep cap, handed
/// to the worker stamped `now`; returns whether any bytes arrived. A
/// read that comes back short took everything the socket held, so
/// asking again would only be told `WouldBlock`; after a full one the
/// cap is reached. Either way what is left, or arrives later, raises the
/// (level-triggered) READ readiness again, and that is also how EOF is
/// seen once the bytes ahead of it are read.
fn fill(
    stream: &mut TcpStream,
    scratch: &mut [u8],
    worker: &mut Worker,
    i: usize,
    now: u64,
) -> bool {
    let read = loop {
        match stream.read(scratch) {
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            read => break read,
        }
    };
    match read {
        Ok(0) => worker.on_eof(i),
        Ok(n) => {
            worker.on_bytes(i, &scratch[..n], now);
            return true;
        }
        Err(e) if e.kind() == ErrorKind::WouldBlock => {}
        Err(_) => worker.on_error(i),
    }
    false
}

/// Write the worker's released output until `WouldBlock`; returns
/// whether any bytes moved.
fn flush(stream: &mut TcpStream, worker: &mut Worker, i: usize) -> bool {
    let mut moved = false;
    while !worker.output(i).is_empty() {
        match stream.write(worker.output(i)) {
            Ok(0) => {
                worker.on_error(i);
                break;
            }
            Ok(n) => {
                worker.consumed(i, n);
                moved = true;
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => {
                worker.on_error(i);
                break;
            }
        }
    }
    moved
}
