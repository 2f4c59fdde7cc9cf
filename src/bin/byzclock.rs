//! The `byzclock` CLI.
//!
//! ```text
//! byzclock live [--nodes N] [--faults F] [--rounds R] [--spread-ms S] [--seed SEED]
//! ```
//!
//! `live` runs the protocol for real: N OS threads, each hosting one
//! sans-IO `SyncNode` over a UDP socket on localhost, on the simulator's
//! clock model (a hardware clock drifting within ρ over real monotonic
//! time, plus an injected initial offset), and prints per-node round
//! statistics and the observed deviation against the Theorem 5 envelope.
//! It exits 0 iff every node finished its rounds inside γ, 1 if not or if
//! the run could not start, and 2 on a usage error.
//! It is the same state machine the deterministic simulator drives — only
//! the driver differs.

use std::process::ExitCode;
use std::time::Duration;

use byzclock_live::{run, LiveConfig};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("live") => match parse_live(&args[1..]) {
            Ok(config) => live(config),
            Err(msg) => usage(&msg),
        },
        _ => {
            eprintln!(
                "usage: byzclock live [--nodes N] [--faults F] [--rounds R] [--spread-ms S] [--seed SEED]"
            );
            ExitCode::from(2)
        }
    }
}

/// Parses `live` flags on top of the quick-demo defaults.
fn parse_live(args: &[String]) -> Result<LiveConfig, String> {
    let mut nodes = 4usize;
    let mut faults: Option<usize> = None;
    let mut rounds = 3u64;
    let mut spread_ms = 50.0f64;
    let mut seed = 42u64;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--nodes" => nodes = parse_value(it.next(), "--nodes")?,
            "--faults" => faults = Some(parse_value(it.next(), "--faults")?),
            "--rounds" => rounds = parse_value(it.next(), "--rounds")?,
            "--spread-ms" => spread_ms = parse_value(it.next(), "--spread-ms")?,
            "--seed" => seed = parse_value(it.next(), "--seed")?,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    // largest f with n >= 3f+1, unless the user chose one
    let faults = faults.unwrap_or(nodes.saturating_sub(1) / 3);
    let mut config = LiveConfig::quick(nodes, faults);
    config.min_rounds = rounds;
    config.spread = spread_ms / 1000.0 / 2.0; // edge-to-edge -> half-width
    config.seed = seed;
    config.deadline = Duration::from_secs(10 + 2 * rounds);
    Ok(config)
}

fn parse_value<T: std::str::FromStr>(value: Option<&String>, flag: &str) -> Result<T, String> {
    value
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("{flag} needs a value"))
}

fn live(config: LiveConfig) -> ExitCode {
    println!(
        "starting {} nodes on UDP loopback (f = {}, {} rounds, initial spread {} ms)...",
        config.nodes,
        config.faults,
        config.min_rounds,
        config.spread * 2000.0
    );
    match run(config) {
        Ok(report) => {
            print!("{}", report.render());
            if report.converged() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("error: {msg}");
    ExitCode::from(2)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn defaults() {
        let c = parse_live(&[]).unwrap();
        assert_eq!(c.nodes, 4);
        assert_eq!(c.faults, 1);
        assert_eq!(c.min_rounds, 3);
        assert!((c.spread - 0.025).abs() < 1e-12);
    }

    #[test]
    fn flags_override_defaults() {
        let c = parse_live(&strings(&[
            "--nodes",
            "7",
            "--rounds",
            "5",
            "--spread-ms",
            "80",
            "--seed",
            "9",
        ]))
        .unwrap();
        assert_eq!(c.nodes, 7);
        assert_eq!(c.faults, 2); // floor((7-1)/3)
        assert_eq!(c.min_rounds, 5);
        assert!((c.spread - 0.040).abs() < 1e-12);
        assert_eq!(c.seed, 9);
    }

    #[test]
    fn explicit_faults_respected() {
        let c = parse_live(&strings(&["--nodes", "10", "--faults", "1"])).unwrap();
        assert_eq!(c.faults, 1);
    }

    #[test]
    fn bad_flags_rejected() {
        assert!(parse_live(&strings(&["--nodes"])).is_err());
        assert!(parse_live(&strings(&["--nodes", "many"])).is_err());
        assert!(parse_live(&strings(&["--wat"])).is_err());
    }
}
