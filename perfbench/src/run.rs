//! Runs one workload and turns its passes into named metrics.
//!
//! A pass runs every operation of the workload once: a seed's world for
//! the churn workloads, a plan's stages for chaos. Every timing is this
//! thread's CPU time ([`crate::clock`]).
//!
//! **Host speed.** Thread CPU time still varies by 1.4× or more with the
//! load other guests put on the shared cache ([`crate::probe`]). So each
//! pass runs a fixed reference kernel, the probe, after every window of
//! work: [`Workload::probe_every`] slices on churn, plans on chaos, about
//! 25–60 ms of work. Every time measured in a window is scaled by
//! [`crate::probe::REFERENCE_NS`] over the probe's time right after it. The
//! metrics are then times on the reference host, whatever the neighbours
//! did. The probe shares no code with the program, so a change to the
//! program moves the scaled times as much as the raw ones.
//!
//! An untraced run makes one pass and reports the end-to-end metrics. A
//! traced run makes an untraced pass and then a decorated pass over the
//! same inputs, checks that both produced the same digest, and reports
//! the per-layer metrics with the tracing overhead.

use std::panic::{catch_unwind, AssertUnwindSafe};

use byzclock_sim::RngHub;

use crate::chaos::{self, StageNanos};
use crate::churn::{self, ChurnSpec, SeedOutputs};
use crate::clock::CpuTimer;
use crate::layers::{span_floor_ns, Probes};
use crate::probe::HostProbe;
use crate::stats::{median, quantile, Digest};

/// Plans per chaos campaign.
pub const CAMPAIGN_PLANS: usize = 1000;
/// Chaos plans whose set-up time makes one `setup_s` sample: a quarter
/// campaign.
const SETUP_CHUNK_PLANS: usize = 250;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// n = 16 rotating churn over several simulated hours per seed.
    Churn16Long,
    /// n = 256 rotating churn over a few Δ per seed.
    Churn256,
    /// Sequential chaos campaigns.
    Chaos,
}

impl Workload {
    /// Every workload, in the order the benchmark lists them.
    pub const ALL: [Workload; 3] = [Workload::Churn16Long, Workload::Churn256, Workload::Chaos];

    /// The workload named `name`, if any.
    pub fn parse(name: &str) -> Option<Self> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Churn16Long => "churn16_long",
            Workload::Churn256 => "churn256",
            Workload::Chaos => "chaos",
        }
    }

    /// Seeds (churn) or campaigns (chaos) in a run of `seconds`, sized so
    /// one untraced pass, probes included, takes two thirds to all of that
    /// on the reference host (see [`crate::probe`]), depending on its load.
    pub fn count(self, seconds: u64) -> usize {
        let per_10s = match self {
            Workload::Churn16Long => 10,
            Workload::Churn256 => 6,
            Workload::Chaos => 6,
        };
        ((per_10s * seconds as usize) / 10).max(1)
    }

    /// Slices (churn) or plans (chaos) between two probe samples: 25–60
    /// ms of work.
    pub fn probe_every(self) -> usize {
        match self {
            Workload::Churn16Long => 50,
            Workload::Churn256 => 25,
            Workload::Chaos => 50,
        }
    }

    /// Operations whose set-up times are summed into one `setup_s` sample.
    fn setup_chunk(self) -> usize {
        match self {
            Workload::Chaos => SETUP_CHUNK_PLANS,
            _ => 1,
        }
    }

    fn churn_spec(self) -> Option<ChurnSpec> {
        match self {
            Workload::Churn16Long => Some(churn::CHURN16_LONG),
            Workload::Churn256 => Some(churn::CHURN256),
            Workload::Chaos => None,
        }
    }
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// The result of one benchmark run.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Operations attempted, over every pass.
    pub attempted: u64,
    /// Operations that panicked, failed a check or broke γ.
    pub failed: u64,
    /// Problems found, one line each (empty when correct).
    pub problems: Vec<String>,
    /// Digest of the workload's outputs.
    pub digest: String,
    /// The metrics, in report order.
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// True iff no operation failed and every check passed.
    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }
}

/// CPU times of one completed operation, nanoseconds.
#[derive(Debug, Default)]
struct OpTimes {
    /// The whole operation.
    total: u64,
    /// Setting its world up: building the seed's world on churn; sampling,
    /// validating and building the plan's world on chaos.
    setup: u64,
    /// Every `run_until` slice, in order.
    slices: Vec<u64>,
    /// For each slice, the index of the probe sample taken right after its
    /// window.
    slice_windows: Vec<usize>,
    /// Simulated seconds the slices covered.
    sim_secs: f64,
}

/// A pass's times scaled to the reference host, nanoseconds.
#[derive(Debug, Default)]
struct Scaled {
    op: Vec<f64>,
    setup: Vec<f64>,
    slices: Vec<f64>,
}

/// Everything one pass over a workload's operations measured.
#[derive(Debug, Default)]
struct Pass {
    ops: u64,
    failed: u64,
    problems: Vec<String>,
    digest: Digest,
    times: Vec<OpTimes>,
    sample_ns: Vec<u64>,
    max_dev: Vec<f64>,
    events: u64,
    delivered: u64,
    forged: u64,
    dropped: u64,
    duplicated: u64,
    rounds: u64,
    episodes: u64,
    build_ns: Vec<u64>,
    schedule_ns: Vec<u64>,
    stages: StageNanos,
    violating: u64,
    probe: HostProbe,
}

impl Pass {
    fn add_outputs(&mut self, o: &SeedOutputs) {
        self.events += o.events;
        self.delivered += o.delivered;
        self.forged += o.forged;
        self.dropped += o.dropped;
        self.duplicated += o.duplicated;
        self.rounds += o.rounds;
        self.episodes += o.episodes;
    }

    fn fail(&mut self, problem: String) {
        self.failed += 1;
        self.problems.push(problem);
    }

    fn sim_secs(&self) -> f64 {
        self.times.iter().map(|t| t.sim_secs).sum()
    }

    /// Scales every time of the pass by its window's probe factor (see
    /// the module docs). An operation's own times take the factor of its
    /// slices, weighted by their times.
    fn scaled(&self) -> Scaled {
        let mut out = Scaled::default();
        for t in &self.times {
            let slices: Vec<f64> = t
                .slices
                .iter()
                .zip(&t.slice_windows)
                .map(|(&s, &w)| s as f64 * self.probe.factor(w))
                .collect();
            let raw: u64 = t.slices.iter().sum();
            let factor = match raw {
                0 => 1.0,
                raw => slices.iter().sum::<f64>() / raw as f64,
            };
            out.slices.extend(slices);
            out.op.push(t.total as f64 * factor);
            out.setup.push(t.setup as f64 * factor);
        }
        out
    }
}

/// Runs `workload` with inputs drawn from `seed`, sized for `seconds`.
/// With `trace`, reports per-layer metrics instead of end-to-end ones.
pub fn run(workload: Workload, seed: u64, seconds: u64, trace: bool) -> Outcome {
    let count = workload.count(seconds);
    let every = workload.probe_every();
    let pass = |probes: Option<&Probes>| match workload.churn_spec() {
        Some(spec) => churn_pass(&spec, &churn::seeds(seed, count), every, probes),
        None => chaos_pass(&chaos_roots(seed, count), every, probes),
    };
    if !trace {
        let plain = pass(None);
        return Outcome {
            attempted: plain.ops,
            failed: plain.failed,
            problems: plain.problems.clone(),
            digest: plain.digest.hex(),
            metrics: end_to_end(workload, &plain),
        };
    }
    let plain = pass(None);
    let probes = Probes::default();
    let traced = pass(Some(&probes));
    let mut problems = plain.problems.clone();
    problems.extend(traced.problems.iter().cloned());
    if plain.digest.hex() != traced.digest.hex() {
        problems.push(format!(
            "traced digest {} differs from untraced digest {}",
            traced.digest.hex(),
            plain.digest.hex()
        ));
    }
    Outcome {
        attempted: plain.ops + traced.ops,
        failed: plain.failed + traced.failed,
        problems,
        digest: plain.digest.hex(),
        metrics: per_layer(&plain, &traced, &probes),
    }
}

/// Root seeds of the run's chaos campaigns, drawn from the benchmark seed.
fn chaos_roots(bench_seed: u64, count: usize) -> Vec<u64> {
    let hub = RngHub::new(bench_seed);
    (0..count)
        .map(|i| hub.stream("perfbench-chaos", i as u64).bits64())
        .collect()
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "panic".into())
}

fn churn_pass(spec: &ChurnSpec, seeds: &[u64], every: usize, probes: Option<&Probes>) -> Pass {
    let mut pass = Pass::default();
    let mut slices_done = 0;
    for &seed in seeds {
        pass.ops += 1;
        let probe = &mut pass.probe;
        let mut slice_windows = Vec::new();
        let mut between_slices = || {
            slice_windows.push(probe.samples.len());
            slices_done += 1;
            if slices_done % every == 0 {
                probe.sample();
            }
        };
        let start = CpuTimer::start();
        let result = catch_unwind(AssertUnwindSafe(|| {
            let (mut world, spans) = match probes {
                None => (spec.build_plain(seed), None),
                Some(p) => {
                    let traced = spec.build_traced(seed, p);
                    (traced.world, Some((traced.schedule_ns, traced.build_ns)))
                }
            };
            let setup = start.elapsed_ns();
            (spec.run(&mut world, &mut between_slices), spans, setup)
        }));
        let total = start.elapsed_ns();
        let (run, spans, setup) = match result {
            Ok(r) => r,
            Err(payload) => {
                pass.fail(format!("seed {seed}: panic: {}", panic_message(&*payload)));
                continue;
            }
        };
        if let Some((schedule_ns, build_ns)) = spans {
            pass.schedule_ns.push(schedule_ns);
            pass.build_ns.push(build_ns);
        }
        if run.max_dev_over_gamma > 1.0 {
            pass.fail(format!(
                "seed {seed}: good-set deviation {:.3}γ exceeds Theorem 5's γ",
                run.max_dev_over_gamma
            ));
        } else if run.outputs.forged == 0 || run.outputs.rounds == 0 {
            pass.fail(format!(
                "seed {seed}: no adversary traffic or no sync rounds: {:?}",
                run.outputs
            ));
        }
        run.outputs.fold_into(&mut pass.digest);
        pass.add_outputs(&run.outputs);
        pass.max_dev.push(run.max_dev_over_gamma);
        pass.sample_ns.extend(run.sample_ns);
        pass.times.push(OpTimes {
            total,
            setup,
            slices: run.slice_ns,
            slice_windows,
            sim_secs: spec.horizon_secs,
        });
    }
    pass.probe.sample();
    pass
}

fn chaos_pass(roots: &[u64], every: usize, probes: Option<&Probes>) -> Pass {
    let mut pass = Pass::default();
    let setup = |s: &StageNanos| s.sample + s.validate + s.build;
    for &root in roots {
        let mut runs = Vec::with_capacity(CAMPAIGN_PLANS);
        for index in 0..CAMPAIGN_PLANS {
            pass.ops += 1;
            let setup_before = setup(&pass.stages);
            let start = CpuTimer::start();
            let result = catch_unwind(AssertUnwindSafe(|| {
                chaos::run_plan_stages(root, index, probes, &mut pass.stages)
            }));
            let total = start.elapsed_ns();
            let window = pass.probe.samples.len();
            if pass.ops % every as u64 == 0 {
                pass.probe.sample();
            }
            let run = match result {
                Ok(Ok(run)) => run,
                Ok(Err(e)) => {
                    pass.fail(format!("campaign {root} plan {index}: invalid: {e}"));
                    continue;
                }
                Err(payload) => {
                    let msg = panic_message(&*payload);
                    pass.fail(format!("campaign {root} plan {index}: panic: {msg}"));
                    continue;
                }
            };
            if let Some(a) = &run.artifact {
                if !a.violations.iter().any(|v| v.invariant == a.invariant) {
                    pass.fail(format!(
                        "campaign {root} plan {index}: shrunk plan no longer violates {}",
                        a.invariant
                    ));
                }
            }
            pass.add_outputs(&run.outputs);
            pass.violating += u64::from(!run.verdict.violations.is_empty());
            if run.verdict.plan.within_model() {
                pass.max_dev.push(run.max_dev_over_gamma);
            }
            pass.build_ns.push(run.build_ns);
            pass.schedule_ns.extend(run.schedule_ns);
            pass.sample_ns.extend(&run.sample_ns);
            pass.times.push(OpTimes {
                total,
                setup: setup(&pass.stages) - setup_before,
                slices: run.slice_ns.clone(),
                slice_windows: vec![window; run.slice_ns.len()],
                sim_secs: run.horizon_secs,
            });
            runs.push(run);
        }
        let report = chaos::report(root, &runs);
        let json = serde_json::to_string(&report).expect("campaign reports serialize");
        pass.digest.bytes(json.as_bytes());
    }
    pass.probe.sample();
    pass
}

fn ms(values: &[f64]) -> Vec<f64> {
    values.iter().map(|v| v / 1e6).collect()
}

fn per_sec(count: f64, nanos: f64) -> f64 {
    count / (nanos.max(1.0) / 1e9)
}

fn end_to_end(workload: Workload, pass: &Pass) -> Vec<Metric> {
    let m = |name, value, unit| Metric { name, value, unit };
    let fast = pass.scaled();
    let setup_s: Vec<f64> = fast
        .setup
        .chunks(workload.setup_chunk())
        .map(|c| c.iter().sum::<f64>() / 1e9)
        .collect();
    vec![
        m("setup_s", median(&setup_s), "s"),
        m(
            "sim_s_per_wall_s",
            per_sec(pass.sim_secs(), fast.slices.iter().sum()),
            "s/s",
        ),
        m("slice_ms_p50", median(&ms(&fast.slices)), "ms"),
        m("slice_ms_p90", quantile(&ms(&fast.slices), 0.9), "ms"),
        m(
            "plans_per_s",
            per_sec(fast.op.len() as f64, fast.op.iter().sum()),
            "1/s",
        ),
        m("plan_ms_p50", median(&ms(&fast.op)), "ms"),
        m("plan_ms_p99", quantile(&ms(&fast.op), 0.99), "ms"),
        m("max_dev_over_gamma", median(&pass.max_dev), "ratio"),
        m("peak_rss_mb", peak_rss_mb(), "MB"),
    ]
}

fn per_layer(plain: &Pass, traced: &Pass, probes: &Probes) -> Vec<Metric> {
    let m = |name, value, unit| Metric { name, value, unit };
    let raw_ms = |v: &[u64]| v.iter().map(|x| *x as f64 / 1e6).collect::<Vec<_>>();
    let plain_fast = plain.scaled();
    let traced_fast = traced.scaled();
    let plain_run_ns: f64 = plain_fast.slices.iter().sum();
    let events = traced.events.max(1) as f64;
    let floor_ns = span_floor_ns();
    let self_ns = (plain_run_ns - probes.net_nanos(floor_ns)).max(0.0);
    let st = &traced.stages;
    vec![
        m(
            "core.convergence.calls",
            probes.convergence.calls() as f64,
            "count",
        ),
        m(
            "core.convergence.ns_per_call",
            probes.convergence.ns_per_call(),
            "ns",
        ),
        m(
            "adversary.reply.calls",
            probes.reply.calls() as f64,
            "count",
        ),
        m(
            "adversary.reply.ns_per_call",
            probes.reply.ns_per_call(),
            "ns",
        ),
        m("net.delay.calls", probes.delay.calls() as f64, "count"),
        m("net.delay.ns_per_call", probes.delay.ns_per_call(), "ns"),
        m(
            "runtime.observer.calls",
            probes.observer.calls() as f64,
            "count",
        ),
        m(
            "runtime.observer.ns_per_call",
            probes.observer.ns_per_call(),
            "ns",
        ),
        m("runtime.build.ms", median(&raw_ms(&traced.build_ns)), "ms"),
        m(
            "adversary.schedule.ms",
            median(&raw_ms(&traced.schedule_ns)),
            "ms",
        ),
        m(
            "runtime.run.ms",
            traced_fast.slices.iter().sum::<f64>() / 1e6,
            "ms",
        ),
        m(
            "runtime.sample_us",
            median(&raw_ms(&traced.sample_ns)) * 1e3,
            "us",
        ),
        m("chaos.sample.ms", st.sample as f64 / 1e6, "ms"),
        m("chaos.validate.ms", st.validate as f64 / 1e6, "ms"),
        m("chaos.build.ms", st.build as f64 / 1e6, "ms"),
        m("chaos.run.ms", st.run as f64 / 1e6, "ms"),
        m("chaos.shrink.ms", st.shrink as f64 / 1e6, "ms"),
        m("sim.events", traced.events as f64, "count"),
        m("sim.ns_per_event", plain_run_ns / events, "ns"),
        m("core.rounds", traced.rounds as f64, "count"),
        m("adversary.episodes", traced.episodes as f64, "count"),
        m("net.delivered", traced.delivered as f64, "count"),
        m("net.forged", traced.forged as f64, "count"),
        m("net.dropped", traced.dropped as f64, "count"),
        m("net.duplicated", traced.duplicated as f64, "count"),
        m("chaos.violating", traced.violating as f64, "count"),
        m("runtime.self_ns_per_event", self_ns / events, "ns"),
        m("trace.span_floor_ns", floor_ns, "ns"),
        m(
            "trace.overhead",
            traced_fast.op.iter().sum::<f64>() / plain_fast.op.iter().sum::<f64>().max(1.0) - 1.0,
            "ratio",
        ),
    ]
}

/// Peak resident set size of this process (`VmHWM`), MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
