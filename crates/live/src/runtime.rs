//! The threaded UDP loopback cluster.
//!
//! One OS thread per node. Each thread owns a UDP socket bound to
//! `127.0.0.1:0` and multiplexes two event sources through a single
//! receive-with-timeout loop:
//!
//! * **datagrams** — decoded with the shared length-prefixed framing
//!   ([`byzclock_core::wire`]) into [`Input::Message`]s;
//! * **alarms** — a small in-thread deadline list over *local* clock
//!   readings, fired as [`Input::TimerFired`] when the node's logical
//!   clock passes the target (so a step adjustment moves pending alarms
//!   exactly as the simulator's exact local→real conversion does).
//!
//! Each thread hands its node a [`Driver`] of its own (`NodeIo`), and the
//! node calls it in the very same order it calls the deterministic sim
//! driver — that shared contract is what makes the simulator's behavior a
//! model of this runtime rather than a sibling implementation.
//!
//! A coordinator thread collects [`RoundSummary`]s over an mpsc channel
//! and periodically samples every node's clock at one common [`Instant`]
//! to measure observed deviation — the live analogue of the simulator's
//! `sample_now`.

use byzclock_clock::{random_rate, HardwareClock, LocalTime, LogicalClock};
use byzclock_core::wire::{self, Envelope, MAX_PAYLOAD};
use byzclock_core::{
    Driver, Input, NetworkModel, RoundScratch, RoundSummary, SyncNode, TheoremBounds, TimerKind,
};
use byzclock_harness::table::{fmt_secs, Table};
use byzclock_sim::{ProcId, RealTime, RngHub, SimDuration};
use std::io;
use std::net::{SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Longest a node thread blocks in `recv_from` before re-checking the
/// stop flag and its alarm list.
const POLL_CAP: Duration = Duration::from_millis(25);

/// Largest cluster [`run`] starts. Each node is an OS thread with its own
/// socket, and every round is all-to-all, so a loopback cluster stays
/// small.
const MAX_NODES: usize = 64;

/// Configuration of a loopback cluster run.
#[derive(Debug, Clone, Copy)]
pub struct LiveConfig {
    /// Number of nodes `n`.
    pub nodes: usize,
    /// Fault bound `f` the parameters are derived for (no live node is
    /// actually faulty; this sizes quorums and bounds).
    pub faults: usize,
    /// The model constants to derive protocol parameters from. `delta`
    /// should generously over-bound loopback latency.
    pub model: NetworkModel,
    /// Sync intervals per Δ (Theorem 5 requires `k ≥ 5`).
    pub k: u32,
    /// Half-width of the deterministic initial clock spread, seconds:
    /// node `i` starts at `(i/(n−1) − 1/2) · 2 · spread`. Must be finite
    /// and not negative.
    pub spread: f64,
    /// Stop once every node has completed this many rounds.
    pub min_rounds: u64,
    /// Hard wall-clock cap on the whole run.
    pub deadline: Duration,
    /// Root seed of the per-node drift rates and nonce streams, drawn as
    /// a simulated world with the same seed draws them.
    pub seed: u64,
}

impl LiveConfig {
    /// A configuration tuned for a quick interactive demo / smoke test:
    /// `T = Δ/K = 0.5 s`, so a round completes roughly every half second,
    /// with `δ = 10 ms` (five orders of magnitude above loopback RTT).
    pub fn quick(nodes: usize, faults: usize) -> Self {
        LiveConfig {
            nodes,
            faults,
            model: NetworkModel {
                delta: SimDuration::from_millis(10.0),
                rho: 1e-4,
                lambda: NetworkModel::natural_lambda(SimDuration::from_millis(10.0), 1e-4),
                big_delta: SimDuration::from_secs(4.0),
            },
            k: 8,
            spread: 0.05,
            min_rounds: 3,
            deadline: Duration::from_secs(30),
            seed: 42,
        }
    }
}

/// Per-node statistics accumulated by the coordinator from the nodes'
/// round records.
#[derive(Debug, Clone, Copy, Default)]
pub struct NodeStats {
    /// Rounds completed (each applies exactly one adjustment).
    pub rounds: u64,
    /// Sum of `|adjustment|` over all completed rounds, seconds.
    pub total_abs_adjustment: f64,
    /// The last round's adjustment, seconds.
    pub last_adjustment: f64,
    /// Responders in the last completed round.
    pub last_responders: usize,
    /// Datagrams that decoded, came from their claimed sender's address
    /// and were handed to the node.
    pub accepted_datagrams: u64,
    /// Datagrams dropped because they did not decode.
    pub rejected_garbage: u64,
    /// Datagrams dropped because the claimed sender's address is not the
    /// one they came from.
    pub rejected_spoofed: u64,
    /// CPU time the node's thread used over its whole run, nanoseconds,
    /// as Linux reports it in `/proc/thread-self/schedstat`; `None` where
    /// the platform does not report it.
    pub cpu_ns: Option<u64>,
}

impl NodeStats {
    /// Folds one completed round into the statistics.
    fn record(&mut self, summary: &RoundSummary) {
        self.rounds += 1;
        self.total_abs_adjustment += summary.adjustment.abs();
        self.last_adjustment = summary.adjustment;
        self.last_responders = summary.responders;
    }

    /// The node thread's CPU time per accepted datagram, microseconds, or
    /// `None` if the CPU time is unknown or no datagram was accepted.
    pub fn cpu_us_per_datagram(&self) -> Option<f64> {
        per_datagram_us(self.cpu_ns?, self.accepted_datagrams)
    }
}

/// `cpu_ns` of CPU time spread over `datagrams`, in microseconds each.
fn per_datagram_us(cpu_ns: u64, datagrams: u64) -> Option<f64> {
    (datagrams > 0).then(|| cpu_ns as f64 / 1e3 / datagrams as f64)
}

/// Renders a CPU-per-datagram figure, or "n/a" when it is unknown.
fn fmt_cpu_us(us: Option<f64>) -> String {
    us.map_or_else(|| "n/a".into(), |us| format!("{us:.1}"))
}

/// One deviation sample: max pairwise clock difference at a common instant.
#[derive(Debug, Clone, Copy)]
pub struct DeviationSample {
    /// Seconds since the cluster epoch.
    pub at: f64,
    /// Max pairwise deviation across all nodes, seconds.
    pub deviation: f64,
}

/// The outcome of a loopback run.
#[derive(Debug)]
pub struct LiveReport {
    /// The configuration the cluster ran with.
    pub config: LiveConfig,
    /// The Theorem 5 guarantees for the derived parameters.
    pub bounds: TheoremBounds,
    /// Per-node statistics.
    pub stats: Vec<NodeStats>,
    /// Deviation before any node started.
    pub initial_deviation: f64,
    /// Deviation at shutdown.
    pub final_deviation: f64,
    /// Largest deviation observed after every node had completed a round.
    pub max_deviation_synced: f64,
    /// Periodic deviation samples over the whole run.
    pub samples: Vec<DeviationSample>,
    /// Wall-clock duration of the run.
    pub elapsed: Duration,
    /// Whether every node reached `min_rounds` before the deadline.
    pub completed: bool,
}

impl LiveReport {
    /// Rounds completed per wall-clock second, summed over the nodes.
    pub fn rounds_per_sec(&self) -> f64 {
        let rounds: u64 = self.stats.iter().map(|s| s.rounds).sum();
        rounds as f64 / self.elapsed.as_secs_f64()
    }

    /// Datagrams the nodes accepted per wall-clock second, summed over the
    /// nodes.
    pub fn datagrams_per_sec(&self) -> f64 {
        let accepted: u64 = self.stats.iter().map(|s| s.accepted_datagrams).sum();
        accepted as f64 / self.elapsed.as_secs_f64()
    }

    /// CPU time per accepted datagram over the whole cluster, microseconds:
    /// every node thread's CPU time over every datagram the nodes
    /// accepted. `None` if any node's CPU time is unknown.
    pub fn cpu_us_per_datagram(&self) -> Option<f64> {
        let cpu_ns = self.stats.iter().map(|s| s.cpu_ns).sum::<Option<u64>>()?;
        per_datagram_us(
            cpu_ns,
            self.stats.iter().map(|s| s.accepted_datagrams).sum(),
        )
    }

    /// True when the cluster finished converged: every node completed its
    /// rounds and the final observed deviation is inside the Theorem 5
    /// envelope `γ`.
    pub fn converged(&self) -> bool {
        self.completed && self.final_deviation <= self.bounds.gamma
    }

    /// Renders the human-readable report tables.
    pub fn render(&self) -> String {
        let mut per_node = Table::new(
            format!(
                "live loopback: {} nodes (f = {}), {} rounds each",
                self.config.nodes, self.config.faults, self.config.min_rounds
            ),
            &[
                "node",
                "rounds",
                "sum |adj|",
                "last adj",
                "last responders",
                "datagrams accepted",
                "dropped garbage/spoofed",
                "CPU µs/datagram",
            ],
        );
        for (i, s) in self.stats.iter().enumerate() {
            per_node.row_owned(vec![
                format!("p{i}"),
                s.rounds.to_string(),
                fmt_secs(s.total_abs_adjustment),
                fmt_secs(s.last_adjustment),
                s.last_responders.to_string(),
                s.accepted_datagrams.to_string(),
                format!("{}/{}", s.rejected_garbage, s.rejected_spoofed),
                fmt_cpu_us(s.cpu_us_per_datagram()),
            ]);
        }
        let mut deviation = Table::new(
            "observed deviation vs Theorem 5 envelope",
            &["quantity", "seconds"],
        );
        deviation
            .row_owned(vec![
                "initial spread".into(),
                fmt_secs(self.initial_deviation),
            ])
            .row_owned(vec![
                "max after all synced".into(),
                fmt_secs(self.max_deviation_synced),
            ])
            .row_owned(vec!["final".into(), fmt_secs(self.final_deviation)])
            .row_owned(vec![
                "gamma (Theorem 5(i))".into(),
                fmt_secs(self.bounds.gamma),
            ])
            .row_owned(vec![
                "psi discontinuity bound".into(),
                fmt_secs(self.bounds.discontinuity),
            ]);
        format!(
            "{}\n{}\nT = {} s, K = {}, elapsed {:.2} s, {:.1} rounds/s, {:.0} datagrams/s, \
             {} CPU µs/datagram, {}\n",
            per_node.render(),
            deviation.render(),
            self.bounds.t.as_secs(),
            self.bounds.k,
            self.elapsed.as_secs_f64(),
            self.rounds_per_sec(),
            self.datagrams_per_sec(),
            fmt_cpu_us(self.cpu_us_per_datagram()),
            if self.converged() {
                "converged within gamma"
            } else if self.completed {
                "completed but OUTSIDE gamma"
            } else {
                "DID NOT complete (deadline hit)"
            }
        )
    }
}

/// Errors starting or running a cluster.
#[derive(Debug)]
pub enum LiveError {
    /// Socket setup failed.
    Io(io::Error),
    /// The model/K combination admits no valid parameters.
    Bounds(byzclock_core::BoundsError),
    /// Config asks for fewer than two nodes.
    TooFewNodes(usize),
    /// Config asks for more nodes than the cap of one thread per node
    /// allows.
    TooManyNodes(usize),
    /// Config's initial spread is NaN, infinite or negative.
    BadSpread(f64),
}

impl std::fmt::Display for LiveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LiveError::Io(e) => write!(f, "socket setup failed: {e}"),
            LiveError::Bounds(e) => write!(f, "cannot derive parameters: {e}"),
            LiveError::TooFewNodes(n) => write!(f, "need at least 2 nodes, got {n}"),
            LiveError::TooManyNodes(n) => {
                write!(f, "at most {MAX_NODES} nodes (one thread each), got {n}")
            }
            LiveError::BadSpread(s) => {
                write!(f, "initial spread must be finite and not negative, got {s}")
            }
        }
    }
}

impl std::error::Error for LiveError {}

impl From<io::Error> for LiveError {
    fn from(e: io::Error) -> Self {
        LiveError::Io(e)
    }
}

impl From<byzclock_core::BoundsError> for LiveError {
    fn from(e: byzclock_core::BoundsError) -> Self {
        LiveError::Bounds(e)
    }
}

/// Real time at `at`: seconds since the cluster `epoch`, 0 before it.
fn real_time(epoch: Instant, at: Instant) -> RealTime {
    RealTime::from_secs(at.saturating_duration_since(epoch).as_secs_f64())
}

/// Locks a clock shared between its node thread and the coordinator. A
/// clock is plain data, so one a panicking thread held is still sound.
fn lock(clock: &Mutex<LogicalClock>) -> MutexGuard<'_, LogicalClock> {
    clock.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Node `i`'s clock at the cluster epoch: the hardware rate a simulated
/// world with the same seed and ρ draws under its default constant random
/// rate, and an adjustment of the node's initial offset.
fn node_clock(config: &LiveConfig, i: usize) -> LogicalClock {
    let rate = random_rate(
        config.model.rho,
        &mut RngHub::new(config.seed).stream("drift", i as u64),
    );
    let frac = i as f64 / (config.nodes - 1) as f64;
    let offset = (frac - 0.5) * 2.0 * config.spread;
    LogicalClock::with_adjustment(HardwareClock::new(rate), SimDuration::from_secs(offset))
}

/// A pending local-time alarm.
struct Alarm {
    target: LocalTime,
    seq: u64,
    kind: TimerKind,
}

/// One node's [`Driver`]: real sockets, a drifting clock over real time,
/// in-thread deadline list.
struct NodeIo {
    id: ProcId,
    socket: UdpSocket,
    peers: Arc<Vec<SocketAddr>>,
    /// Real time 0.
    epoch: Instant,
    clock: Arc<Mutex<LogicalClock>>,
    alarms: Vec<Alarm>,
    next_seq: u64,
    /// Each completed round's record, tagged with the node, for the
    /// coordinator.
    rounds: mpsc::Sender<(ProcId, RoundSummary)>,
    /// Reused frame buffer: the steady-state send path encodes without
    /// allocating.
    wire_buf: Vec<u8>,
}

impl Driver for NodeIo {
    fn send(&mut self, from: ProcId, to: ProcId, msg: byzclock_core::WireMessage) {
        if to.index() >= self.peers.len() || to == self.id {
            return;
        }
        self.wire_buf.clear();
        wire::encode_into(&Envelope { from, msg }, &mut self.wire_buf);
        // UDP send failures are indistinguishable from in-flight loss; the
        // protocol tolerates loss, so drop silently.
        let _ = self.socket.send_to(&self.wire_buf, self.peers[to.index()]);
    }

    fn set_timer(&mut self, _node: ProcId, after: SimDuration, kind: TimerKind) {
        let target = self.local_now() + after;
        let seq = self.next_seq;
        self.next_seq += 1;
        self.alarms.push(Alarm { target, seq, kind });
    }

    fn adjust_clock(&mut self, _node: ProcId, delta: SimDuration) {
        lock(&self.clock).adjust(delta);
    }

    fn round_completed(&mut self, node: ProcId, summary: &RoundSummary) {
        let _ = self.rounds.send((node, *summary));
    }
}

impl NodeIo {
    /// Real time now.
    fn real_now(&self) -> RealTime {
        real_time(self.epoch, Instant::now())
    }

    /// The node's clock reading now.
    fn local_now(&self) -> LocalTime {
        lock(&self.clock).read(self.real_now())
    }

    /// Pops the due alarm with the earliest `(target, seq)`, if any.
    fn pop_due(&mut self, now: LocalTime) -> Option<TimerKind> {
        let due = self
            .alarms
            .iter()
            .enumerate()
            .filter(|(_, a)| a.target <= now)
            .min_by_key(|(_, a)| (a.target, a.seq))
            .map(|(i, _)| i)?;
        Some(self.alarms.swap_remove(due).kind)
    }

    /// Real time from `tau` until the node's clock reaches its earliest
    /// alarm, as the simulator converts an alarm to a real-time event.
    fn until_next_alarm(&self, tau: RealTime) -> Option<Duration> {
        let next = self.alarms.iter().map(|a| a.target).min()?;
        let due = lock(&self.clock).real_time_reaching_logical(tau, next);
        Some(Duration::from_secs_f64((due - tau).as_secs()))
    }
}

/// Datagrams a node thread received, by fate, and the CPU time the thread
/// used.
#[derive(Debug, Default)]
struct Datagrams {
    accepted: u64,
    garbage: u64,
    spoofed: u64,
    cpu_ns: Option<u64>,
}

/// The calling thread's CPU time so far, nanoseconds: the first field of
/// Linux's `/proc/thread-self/schedstat`. `None` where that file is
/// missing or unreadable.
fn thread_cpu_ns() -> Option<u64> {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// The body of one node thread; returns the count of datagrams it took
/// and dropped, and the thread's CPU time.
fn run_node(mut io: NodeIo, mut node: SyncNode, stop: Arc<AtomicBool>) -> Datagrams {
    let mut scratch = RoundScratch::with_capacity(node.params().n());
    let start = Input::Start {
        local_now: io.local_now(),
    };
    node.handle_into(start, &mut scratch, &mut io);
    // One byte past the largest frame, so that an oversized datagram
    // shows as a frame that does not span it, not as a clipped valid one.
    let mut buf = [0u8; 4 + MAX_PAYLOAD + 1];
    let mut datagrams = Datagrams::default();
    // The read timeout in force: `set_read_timeout` is a syscall, so it is
    // made only when the wait changes.
    let mut timeout = None;
    while !stop.load(Ordering::Relaxed) {
        // fire alarms one at a time: a fired timer may arm or cancel others
        let tau = io.real_now();
        let now = lock(&io.clock).read(tau);
        if let Some(kind) = io.pop_due(now) {
            let input = Input::TimerFired {
                timer: kind,
                local_now: now,
            };
            node.handle_into(input, &mut scratch, &mut io);
            continue;
        }
        let wait = io
            .until_next_alarm(tau)
            .unwrap_or(POLL_CAP)
            .clamp(Duration::from_millis(1), POLL_CAP);
        // Whole milliseconds (at most POLL_CAP's 25), rounded down so that
        // no alarm fires later, keep the wait the same across most turns.
        let wait = Duration::from_millis(wait.as_millis() as u64);
        if timeout != Some(wait) {
            if io.socket.set_read_timeout(Some(wait)).is_err() {
                break;
            }
            timeout = Some(wait);
        }
        match io.socket.recv_from(&mut buf) {
            // Garbage datagrams are dropped, like line noise on a link;
            // that includes a valid frame with bytes trailing it. So is an
            // envelope whose claimed sender is not bound to the address it
            // came from: any local process can reach these sockets, and
            // `from` is read off the wire.
            Ok((len, src)) => match wire::decode(&buf[..len]) {
                Ok((_, used)) if used != len => datagrams.garbage += 1,
                Ok((envelope, _)) if io.peers.get(envelope.from.index()) == Some(&src) => {
                    let input = Input::Message {
                        from: envelope.from,
                        msg: envelope.msg,
                        local_now: io.local_now(),
                    };
                    datagrams.accepted += 1;
                    node.handle_into(input, &mut scratch, &mut io);
                }
                Ok(_) => datagrams.spoofed += 1,
                Err(_) => datagrams.garbage += 1,
            },
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut => {
            }
            Err(_) => break,
        }
    }
    datagrams.cpu_ns = thread_cpu_ns();
    datagrams
}

/// Runs a loopback cluster to completion and reports what it observed.
///
/// # Errors
///
/// [`LiveError`] if the config is invalid or socket setup fails; a run
/// that merely fails to converge still returns a report (check
/// [`LiveReport::completed`] / [`LiveReport::converged`]).
pub fn run(config: LiveConfig) -> Result<LiveReport, LiveError> {
    if config.nodes < 2 {
        return Err(LiveError::TooFewNodes(config.nodes));
    }
    if config.nodes > MAX_NODES {
        return Err(LiveError::TooManyNodes(config.nodes));
    }
    if !(config.spread.is_finite() && config.spread >= 0.0) {
        return Err(LiveError::BadSpread(config.spread));
    }
    let sockets = (0..config.nodes)
        .map(|_| UdpSocket::bind(("127.0.0.1", 0)))
        .collect::<io::Result<Vec<_>>>()?;
    run_on(config, sockets)
}

/// [`run`] over already bound sockets, one per node.
fn run_on(config: LiveConfig, sockets: Vec<UdpSocket>) -> Result<LiveReport, LiveError> {
    let derived = config.model.derive(config.nodes, config.faults, config.k)?;
    let n = config.nodes;
    let addrs = Arc::new(
        sockets
            .iter()
            .map(UdpSocket::local_addr)
            .collect::<io::Result<Vec<_>>>()?,
    );

    let epoch = Instant::now();
    let clocks: Vec<Arc<Mutex<LogicalClock>>> = (0..n)
        .map(|i| Arc::new(Mutex::new(node_clock(&config, i))))
        .collect();

    let sample_deviation = |clocks: &[Arc<Mutex<LogicalClock>>]| {
        let tau = real_time(epoch, Instant::now());
        let reads: Vec<f64> = clocks.iter().map(|c| lock(c).read(tau).as_secs()).collect();
        let max = reads.iter().cloned().fold(f64::MIN, f64::max);
        let min = reads.iter().cloned().fold(f64::MAX, f64::min);
        (tau.as_secs(), max - min)
    };
    let (_, initial_deviation) = sample_deviation(&clocks);

    let stop = Arc::new(AtomicBool::new(false));
    let (tx, rx) = mpsc::channel();
    let hub = RngHub::new(config.seed);
    let mut handles = Vec::with_capacity(n);
    for (i, socket) in sockets.into_iter().enumerate() {
        let io = NodeIo {
            id: ProcId(i as u32),
            socket,
            peers: Arc::clone(&addrs),
            epoch,
            clock: Arc::clone(&clocks[i]),
            alarms: Vec::new(),
            next_seq: 0,
            rounds: tx.clone(),
            wire_buf: Vec::with_capacity(MAX_PAYLOAD + 4),
        };
        let node = SyncNode::new(ProcId(i as u32), derived.params)
            .with_nonce_seed(hub.stream("nonce", i as u64).bits64());
        let stop = Arc::clone(&stop);
        handles.push(std::thread::spawn(move || run_node(io, node, stop)));
    }
    drop(tx);

    let mut stats = vec![NodeStats::default(); n];
    let mut samples = Vec::new();
    let mut max_deviation_synced: f64 = 0.0;
    let deadline = epoch + config.deadline;
    let completed = loop {
        if stats.iter().all(|s| s.rounds >= config.min_rounds) {
            break true;
        }
        if Instant::now() >= deadline {
            break false;
        }
        match rx.recv_timeout(Duration::from_millis(25)) {
            Ok((node, summary)) => stats[node.index()].record(&summary),
            Err(mpsc::RecvTimeoutError::Timeout) => {}
            Err(mpsc::RecvTimeoutError::Disconnected) => break false,
        }
        let (at, deviation) = sample_deviation(&clocks);
        samples.push(DeviationSample { at, deviation });
        if stats.iter().all(|s| s.rounds >= 1) {
            max_deviation_synced = max_deviation_synced.max(deviation);
        }
    };

    stop.store(true, Ordering::Relaxed);
    for (s, handle) in stats.iter_mut().zip(handles) {
        if let Ok(datagrams) = handle.join() {
            s.accepted_datagrams = datagrams.accepted;
            s.rejected_garbage = datagrams.garbage;
            s.rejected_spoofed = datagrams.spoofed;
            s.cpu_ns = datagrams.cpu_ns;
        }
    }
    // drain events that raced the stop decision
    for (node, summary) in rx.try_iter() {
        stats[node.index()].record(&summary);
    }
    let (at, final_deviation) = sample_deviation(&clocks);
    samples.push(DeviationSample {
        at,
        deviation: final_deviation,
    });

    Ok(LiveReport {
        config,
        bounds: derived.bounds,
        stats,
        initial_deviation,
        final_deviation,
        max_deviation_synced,
        samples,
        elapsed: Instant::now().saturating_duration_since(epoch),
        completed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use byzclock_core::{ProtocolParams, WireMessage};
    use byzclock_runtime::{InitialBias, WorldBuilder};

    /// Node 0 of a four-node cluster on fresh loopback sockets, its clock
    /// reading 0 now and ticking at `rate`, with the sockets of its three
    /// peers and the parameters the node runs.
    fn node_zero(rate: f64) -> (NodeIo, impl Iterator<Item = UdpSocket>, ProtocolParams) {
        let sockets: Vec<UdpSocket> = (0..4)
            .map(|_| UdpSocket::bind(("127.0.0.1", 0)).expect("bind node socket"))
            .collect();
        let peers: Vec<SocketAddr> = sockets.iter().map(|s| s.local_addr().unwrap()).collect();
        let mut sockets = sockets.into_iter();
        let io = NodeIo {
            id: ProcId(0),
            socket: sockets.next().unwrap(),
            peers: Arc::new(peers),
            epoch: Instant::now(),
            clock: Arc::new(Mutex::new(LogicalClock::with_adjustment(
                HardwareClock::new(rate),
                SimDuration::ZERO,
            ))),
            alarms: Vec::new(),
            next_seq: 0,
            rounds: mpsc::channel().0,
            wire_buf: Vec::new(),
        };
        let params = ProtocolParams::builder(4, 1)
            .sync_int(SimDuration::from_secs(5.0))
            .max_wait(SimDuration::from_secs(1.0))
            .way_off(9.0)
            .build()
            .unwrap();
        (io, sockets, params)
    }

    /// Both node-count bounds return before any socket is bound or any
    /// thread starts.
    #[test]
    fn node_count_outside_the_bounds_is_rejected() {
        assert!(matches!(
            run(LiveConfig::quick(1, 0)),
            Err(LiveError::TooFewNodes(1))
        ));
        let over = MAX_NODES + 1;
        match run(LiveConfig::quick(over, 1)) {
            Err(e @ LiveError::TooManyNodes(n)) if n == over => {
                assert!(e.to_string().contains(&MAX_NODES.to_string()), "{e}");
            }
            other => panic!("expected TooManyNodes({over}), got {other:?}"),
        }
    }

    /// A NaN, infinite or negative spread is refused before any socket is
    /// bound, instead of arming NaN alarms that fire back to back.
    #[test]
    fn spread_that_is_not_a_finite_half_width_is_rejected() {
        for spread in [f64::NAN, f64::INFINITY, -0.01] {
            let config = LiveConfig {
                spread,
                ..LiveConfig::quick(4, 1)
            };
            match run(config) {
                Err(e @ LiveError::BadSpread(s)) if s.to_bits() == spread.to_bits() => {
                    assert!(e.to_string().contains("spread"), "{e}");
                }
                other => panic!("expected BadSpread({spread}), got {other:?}"),
            }
        }
    }

    /// Real time before the epoch reads as 0, not a panic.
    #[test]
    fn real_time_before_the_epoch_saturates() {
        let epoch = Instant::now() + Duration::from_secs(5);
        assert_eq!(real_time(epoch, Instant::now()), RealTime::ZERO);
        let later = epoch + Duration::from_millis(250);
        assert_eq!(real_time(epoch, later).as_secs(), 0.25);
    }

    /// A live node's clock is the clock a simulated world with the same
    /// seed, ρ and initial offsets gives that node: at τ = 100 µs, before
    /// any round can complete (a round trip takes at least 2 · 0.1δ), every
    /// bias agrees bit for bit, and the rates differ from node to node.
    #[test]
    fn node_clocks_match_the_simulator_bit_for_bit() {
        let config = LiveConfig::quick(7, 2);
        let n = config.nodes;
        let offsets: Vec<f64> = (0..n)
            .map(|i| (i as f64 / (n - 1) as f64 - 0.5) * 2.0 * config.spread)
            .collect();
        let mut world = WorldBuilder::new(n, config.faults)
            .seed(config.seed)
            .delta(config.model.delta)
            .rho(config.model.rho)
            .big_delta(config.model.big_delta)
            .k(config.k)
            .initial_bias(InitialBias::Explicit(offsets))
            .build()
            .unwrap();
        let tau = RealTime::from_secs(100e-6);
        world.run_until(tau);
        let mut rates = Vec::new();
        for i in 0..n {
            let mut clock = node_clock(&config, i);
            assert_eq!(
                clock.bias(tau).as_secs().to_bits(),
                world.bias_of(ProcId(i as u32)).as_secs().to_bits(),
                "p{i}"
            );
            rates.push(clock.hardware_mut().rate());
        }
        rates.sort_by(f64::total_cmp);
        rates.dedup();
        assert_eq!(rates.len(), n, "{rates:?}");
    }

    /// An alarm 1 s ahead on a clock ticking at twice real speed is due
    /// after about 0.5 s of real time, not 1 s.
    #[test]
    fn alarm_wait_follows_the_clock_rate() {
        let (mut io, _peers, _) = node_zero(2.0);
        io.set_timer(ProcId(0), SimDuration::from_secs(1.0), TimerKind::SyncDue);
        let wait = io.until_next_alarm(io.real_now()).unwrap().as_secs_f64();
        assert!((wait - 0.5).abs() < 0.05, "{wait}");
    }

    /// A started node sends one ping frame to each of its three peers over
    /// UDP and arms its round timeout.
    #[test]
    fn drive_runs_start_through_the_driver() {
        let (mut io, sockets, params) = node_zero(1.0);
        let mut node = SyncNode::new(ProcId(0), params);
        let start = Input::Start {
            local_now: io.local_now(),
        };
        node.handle_into(start, &mut RoundScratch::default(), &mut io);

        assert!(io
            .alarms
            .iter()
            .any(|a| matches!(a.kind, TimerKind::RoundTimeout { .. })));
        let mut buf = [0u8; 4 + MAX_PAYLOAD + 1];
        for peer in sockets {
            peer.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
            let (len, src) = peer.recv_from(&mut buf).expect("a ping arrives");
            assert_eq!(src, io.peers[0]);
            let (envelope, used) = wire::decode(&buf[..len]).unwrap();
            assert_eq!((envelope.from, used), (ProcId(0), len));
            assert!(matches!(envelope.msg, WireMessage::Ping { .. }));
        }
    }

    /// A valid frame with a byte trailing it, from a genuine peer, is
    /// dropped as garbage and left unanswered; the same ping sent alone is
    /// answered.
    #[test]
    fn datagram_with_trailing_bytes_is_dropped_as_garbage() {
        let (io, mut sockets, params) = node_zero(1.0);
        let node_addr = io.peers[0];
        let stop = Arc::new(AtomicBool::new(false));
        let node = {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || run_node(io, SyncNode::new(ProcId(0), params), stop))
        };
        let peer = sockets.next().unwrap();
        for (round, trailing) in [(77, &[0u8][..]), (78, &[][..])] {
            let mut frame = Vec::new();
            let msg = WireMessage::Ping { round, nonce: 1 };
            wire::encode_into(
                &Envelope {
                    from: ProcId(1),
                    msg,
                },
                &mut frame,
            );
            frame.extend_from_slice(trailing);
            peer.send_to(&frame, node_addr).unwrap();
        }
        peer.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let mut buf = [0u8; 4 + MAX_PAYLOAD + 1];
        let answered = loop {
            let (len, _) = peer.recv_from(&mut buf).expect("the node answers");
            // skip the node's own round pings
            if let Ok((
                Envelope {
                    msg: WireMessage::Pong { round, .. },
                    ..
                },
                _,
            )) = wire::decode(&buf[..len])
            {
                break round;
            }
        };
        stop.store(true, Ordering::Relaxed);
        let datagrams = node.join().unwrap();
        assert_eq!(answered, 78, "the ping with a trailing byte was answered");
        assert_eq!((datagrams.garbage, datagrams.accepted), (1, 1));
    }

    /// A foreign socket floods every node with pongs and pings forged in
    /// every node's name (and in names no node has), plus undecodable
    /// bytes. The nodes must drop all of it and still converge within γ.
    #[test]
    fn spoofed_and_garbage_datagrams_are_dropped_and_the_cluster_converges() {
        let config = LiveConfig::quick(4, 1);
        let sockets: Vec<UdpSocket> = (0..config.nodes)
            .map(|_| UdpSocket::bind(("127.0.0.1", 0)).expect("bind node socket"))
            .collect();
        let targets: Vec<SocketAddr> = sockets.iter().map(|s| s.local_addr().unwrap()).collect();
        let attacker = UdpSocket::bind(("127.0.0.1", 0)).expect("bind attacker socket");
        let stop = Arc::new(AtomicBool::new(false));
        let flood = {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut frame = Vec::new();
                let mut sent = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    for (i, &to) in targets.iter().enumerate() {
                        for from in 0..=targets.len() as u32 {
                            for msg in [
                                WireMessage::Pong {
                                    round: sent,
                                    nonce: sent,
                                    clock: LocalTime::from_secs(1e6),
                                },
                                WireMessage::Ping {
                                    round: sent,
                                    nonce: sent,
                                },
                            ] {
                                frame.clear();
                                wire::encode_into(
                                    &Envelope {
                                        from: ProcId(from),
                                        msg,
                                    },
                                    &mut frame,
                                );
                                let _ = attacker.send_to(&frame, to);
                            }
                        }
                        let _ = attacker.send_to(&[0xff; 7][..i + 1], to);
                        sent += 1;
                    }
                    std::thread::sleep(Duration::from_millis(2));
                }
            })
        };
        let report = run_on(config, sockets).expect("cluster starts");
        stop.store(true, Ordering::Relaxed);
        flood.join().unwrap();
        eprintln!("{}", report.render());

        assert!(report.converged(), "{:?}", report.stats);
        assert!(report.max_deviation_synced <= report.bounds.gamma);
        for (i, s) in report.stats.iter().enumerate() {
            assert!(s.rejected_spoofed > 0, "p{i} dropped no spoofed datagram");
            assert!(s.rejected_garbage > 0, "p{i} dropped no garbage datagram");
        }
    }
}
