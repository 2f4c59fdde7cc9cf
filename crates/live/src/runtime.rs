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
//! Every effect flows through [`apply_outputs`], i.e. the very same
//! `Output` → [`Driver`] mapping the deterministic sim driver uses —
//! that shared path is what makes the simulator's behavior a model of this
//! runtime rather than a sibling implementation.
//!
//! A coordinator thread collects [`RoundSummary`]s over an mpsc channel
//! and periodically samples every node's clock at one common [`Instant`]
//! to measure observed deviation — the live analogue of the simulator's
//! `sample_now`.

use byzclock_core::wire::{self, Envelope, MAX_PAYLOAD};
use byzclock_core::{
    apply_outputs, Driver, Input, NetworkModel, Output, RoundSummary, SyncNode, TheoremBounds,
    TimerKind,
};
use byzclock_harness::table::{fmt_secs, Table};
use byzclock_sim::{ProcId, SimDuration};
use std::io;
use std::net::{SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use crate::clock::LiveClock;

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
    /// node `i` starts at `(i/(n−1) − 1/2) · 2 · spread`.
    pub spread: f64,
    /// Stop once every node has completed this many rounds.
    pub min_rounds: u64,
    /// Hard wall-clock cap on the whole run.
    pub deadline: Duration,
    /// Nonce-stream seed (per-node streams are derived from it).
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
    /// Datagrams dropped because they did not decode.
    pub rejected_garbage: u64,
    /// Datagrams dropped because the claimed sender's address is not the
    /// one they came from.
    pub rejected_spoofed: u64,
}

impl NodeStats {
    /// Folds one completed round into the statistics.
    fn record(&mut self, summary: &RoundSummary) {
        self.rounds += 1;
        self.total_abs_adjustment += summary.adjustment.abs();
        self.last_adjustment = summary.adjustment;
        self.last_responders = summary.responders;
    }
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
                "dropped garbage/spoofed",
            ],
        );
        for (i, s) in self.stats.iter().enumerate() {
            per_node.row_owned(vec![
                format!("p{i}"),
                s.rounds.to_string(),
                fmt_secs(s.total_abs_adjustment),
                fmt_secs(s.last_adjustment),
                s.last_responders.to_string(),
                format!("{}/{}", s.rejected_garbage, s.rejected_spoofed),
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
            "{}\n{}\nT = {} s, K = {}, elapsed {:.2} s, {}\n",
            per_node.render(),
            deviation.render(),
            self.bounds.t.as_secs(),
            self.bounds.k,
            self.elapsed.as_secs_f64(),
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

/// A pending local-time alarm.
struct Alarm {
    target: byzclock_clock::LocalTime,
    seq: u64,
    kind: TimerKind,
}

/// One node's [`Driver`]: real sockets, real clock, in-thread deadline
/// list.
struct NodeIo {
    id: ProcId,
    socket: UdpSocket,
    peers: Arc<Vec<SocketAddr>>,
    clock: Arc<LiveClock>,
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
        let target = self.clock.now() + after;
        let seq = self.next_seq;
        self.next_seq += 1;
        self.alarms.push(Alarm { target, seq, kind });
    }

    fn adjust_clock(&mut self, _node: ProcId, delta: SimDuration) {
        self.clock.adjust(delta);
    }

    fn round_completed(&mut self, node: ProcId, summary: &RoundSummary) {
        let _ = self.rounds.send((node, *summary));
    }
}

impl NodeIo {
    /// Pops the due alarm with the earliest `(target, seq)`, if any.
    fn pop_due(&mut self, now: byzclock_clock::LocalTime) -> Option<TimerKind> {
        let due = self
            .alarms
            .iter()
            .enumerate()
            .filter(|(_, a)| a.target <= now)
            .min_by_key(|(_, a)| (a.target, a.seq))
            .map(|(i, _)| i)?;
        Some(self.alarms.swap_remove(due).kind)
    }

    /// Real seconds until the earliest alarm (local units map 1:1 to real
    /// ones here — the hardware rate is the host oscillator's).
    fn until_next_alarm(&self, now: byzclock_clock::LocalTime) -> Option<Duration> {
        let next = self.alarms.iter().map(|a| a.target).min()?;
        Some(Duration::from_secs_f64((next - now).as_secs().max(0.0)))
    }
}

/// Feeds one input to the node and executes its outputs through `io`;
/// `scratch` is the thread's reused output buffer.
fn drive(io: &mut NodeIo, node: &mut SyncNode, input: Input, scratch: &mut Vec<Output>) {
    scratch.clear();
    node.handle_into(input, scratch);
    apply_outputs(io, node.id(), scratch);
}

/// Datagrams a node thread dropped, by reason.
#[derive(Debug, Default)]
struct Rejected {
    garbage: u64,
    spoofed: u64,
}

/// The body of one node thread; returns what it dropped.
fn run_node(mut io: NodeIo, mut node: SyncNode, stop: Arc<AtomicBool>) -> Rejected {
    let mut scratch = Vec::new();
    let start = Input::Start {
        local_now: io.clock.now(),
    };
    drive(&mut io, &mut node, start, &mut scratch);
    let mut buf = [0u8; MAX_PAYLOAD + 4];
    let mut rejected = Rejected::default();
    while !stop.load(Ordering::Relaxed) {
        // fire alarms one at a time: a fired timer may arm or cancel others
        let now = io.clock.now();
        if let Some(kind) = io.pop_due(now) {
            let input = Input::TimerFired {
                timer: kind,
                local_now: io.clock.now(),
            };
            drive(&mut io, &mut node, input, &mut scratch);
            continue;
        }
        let wait = io
            .until_next_alarm(now)
            .unwrap_or(POLL_CAP)
            .clamp(Duration::from_millis(1), POLL_CAP);
        if io.socket.set_read_timeout(Some(wait)).is_err() {
            return rejected;
        }
        match io.socket.recv_from(&mut buf) {
            // Garbage datagrams are dropped, like line noise on a link. So
            // is an envelope whose claimed sender is not bound to the
            // address it came from: any local process can reach these
            // sockets, and `from` is read off the wire.
            Ok((len, src)) => match wire::decode(&buf[..len]) {
                Ok((envelope, _)) if io.peers.get(envelope.from.index()) == Some(&src) => {
                    let input = Input::Message {
                        from: envelope.from,
                        msg: envelope.msg,
                        local_now: io.clock.now(),
                    };
                    drive(&mut io, &mut node, input, &mut scratch);
                }
                Ok(_) => rejected.spoofed += 1,
                Err(_) => rejected.garbage += 1,
            },
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut => {
            }
            Err(_) => return rejected,
        }
    }
    rejected
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
    let clocks: Vec<Arc<LiveClock>> = (0..n)
        .map(|i| {
            let frac = if n > 1 {
                i as f64 / (n - 1) as f64
            } else {
                0.5
            };
            Arc::new(LiveClock::new(epoch, (frac - 0.5) * 2.0 * config.spread))
        })
        .collect();

    let sample_deviation = |clocks: &[Arc<LiveClock>]| {
        let at = Instant::now();
        let reads: Vec<f64> = clocks.iter().map(|c| c.read_at(at).as_secs()).collect();
        let max = reads.iter().cloned().fold(f64::MIN, f64::max);
        let min = reads.iter().cloned().fold(f64::MAX, f64::min);
        (at.saturating_duration_since(epoch).as_secs_f64(), max - min)
    };
    let (_, initial_deviation) = sample_deviation(&clocks);

    let stop = Arc::new(AtomicBool::new(false));
    let (tx, rx) = mpsc::channel();
    let mut handles = Vec::with_capacity(n);
    for (i, socket) in sockets.into_iter().enumerate() {
        let io = NodeIo {
            id: ProcId(i as u32),
            socket,
            peers: Arc::clone(&addrs),
            clock: Arc::clone(&clocks[i]),
            alarms: Vec::new(),
            next_seq: 0,
            rounds: tx.clone(),
            wire_buf: Vec::with_capacity(MAX_PAYLOAD + 4),
        };
        let node = SyncNode::new(ProcId(i as u32), derived.params).with_nonce_seed(
            config
                .seed
                .wrapping_add(i as u64)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15),
        );
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
        if let Ok(rejected) = handle.join() {
            s.rejected_garbage = rejected.garbage;
            s.rejected_spoofed = rejected.spoofed;
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
    use byzclock_clock::LocalTime;
    use byzclock_core::{ProtocolParams, WireMessage};

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

    /// A started node sends one ping frame to each of its three peers over
    /// UDP and arms its round timeout.
    #[test]
    fn drive_runs_start_through_the_driver() {
        let sockets: Vec<UdpSocket> = (0..4)
            .map(|_| UdpSocket::bind(("127.0.0.1", 0)).expect("bind node socket"))
            .collect();
        let peers: Vec<SocketAddr> = sockets.iter().map(|s| s.local_addr().unwrap()).collect();
        let mut sockets = sockets.into_iter();
        let (rounds, _rx) = mpsc::channel();
        let mut io = NodeIo {
            id: ProcId(0),
            socket: sockets.next().unwrap(),
            peers: Arc::new(peers),
            clock: Arc::new(LiveClock::new(Instant::now(), 0.0)),
            alarms: Vec::new(),
            next_seq: 0,
            rounds,
            wire_buf: Vec::new(),
        };
        let params = ProtocolParams::builder(4, 1)
            .sync_int(SimDuration::from_secs(5.0))
            .max_wait(SimDuration::from_secs(1.0))
            .way_off(9.0)
            .build()
            .unwrap();
        let mut node = SyncNode::new(ProcId(0), params);
        let start = Input::Start {
            local_now: io.clock.now(),
        };
        drive(&mut io, &mut node, start, &mut Vec::new());

        assert!(io
            .alarms
            .iter()
            .any(|a| matches!(a.kind, TimerKind::RoundTimeout { .. })));
        let mut buf = [0u8; MAX_PAYLOAD + 4];
        for peer in sockets {
            peer.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
            let (len, src) = peer.recv_from(&mut buf).expect("a ping arrives");
            assert_eq!(src, io.peers[0]);
            let (envelope, used) = wire::decode(&buf[..len]).unwrap();
            assert_eq!((envelope.from, used), (ProcId(0), len));
            assert!(matches!(envelope.msg, WireMessage::Ping { .. }));
        }
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
