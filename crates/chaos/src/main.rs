//! The `chaos` CLI: run campaigns, replay artifacts.
//!
//! ```text
//! chaos campaign [--plans N] [--seed S] [--workers W] [--out FILE]
//! chaos replay <artifact.json> [--workers W]
//! ```
//!
//! `campaign` samples and runs N composed fault plans (fanned across
//! `--workers` threads; default = available cores, report identical for
//! any worker count), prints a verdict line per plan, and (with `--out`)
//! writes the full report — including one replay artifact per violating
//! plan — as JSON. `replay` re-executes a single artifact and exits 0 iff
//! the recorded violations reproduce bit-identically (an artifact whose
//! plan fails validation is refused with exit code 1); with `--workers W`
//! it runs W independent replicas in parallel and requires every one of
//! them to reproduce (racing replicas are the strictest determinism
//! check).

use std::process::ExitCode;

use byzclock_chaos::{
    replay_with_workers, run_campaign_with_workers, CampaignConfig, ReplayArtifact, ReplayOutcome,
};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("campaign") => match parse_campaign(&args[1..]) {
            Ok(opts) => campaign(opts),
            Err(msg) => usage(&msg),
        },
        Some("replay") => match parse_replay(&args[1..]) {
            Ok(opts) => replay_cmd(opts),
            Err(msg) => usage(&msg),
        },
        _ => {
            eprintln!("usage: chaos campaign [--plans N] [--seed S] [--workers W] [--out FILE]");
            eprintln!("       chaos replay <artifact.json> [--workers W]");
            ExitCode::from(2)
        }
    }
}

/// Parsed `campaign` arguments.
#[derive(Debug, PartialEq)]
struct CampaignOpts {
    plans: usize,
    seed: u64,
    workers: usize,
    out: Option<String>,
}

fn parse_campaign(args: &[String]) -> Result<CampaignOpts, String> {
    let mut opts = CampaignOpts {
        plans: 50,
        seed: 0,
        workers: byzclock_sim::default_workers(),
        out: None,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--plans" => opts.plans = parse_value(it.next(), "--plans")?,
            "--seed" => opts.seed = parse_value(it.next(), "--seed")?,
            "--workers" => opts.workers = parse_value(it.next(), "--workers")?,
            "--out" => match it.next() {
                Some(v) => opts.out = Some(v.clone()),
                None => return Err("--out needs a path".into()),
            },
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(opts)
}

/// Parsed `replay` arguments.
#[derive(Debug, PartialEq)]
struct ReplayOpts {
    path: String,
    workers: usize,
}

fn parse_replay(args: &[String]) -> Result<ReplayOpts, String> {
    let mut path: Option<String> = None;
    let mut workers = 1usize;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--workers" => workers = parse_value(it.next(), "--workers")?,
            other if other.starts_with('-') => return Err(format!("unknown argument {other}")),
            other => {
                if path.replace(other.to_string()).is_some() {
                    return Err("replay takes exactly one artifact path".into());
                }
            }
        }
    }
    let path = path.ok_or("replay needs an artifact path")?;
    if workers == 0 {
        return Err("--workers must be at least 1".into());
    }
    Ok(ReplayOpts { path, workers })
}

fn parse_value<T: std::str::FromStr>(value: Option<&String>, flag: &str) -> Result<T, String> {
    value
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("{flag} needs a number"))
}

fn campaign(opts: CampaignOpts) -> ExitCode {
    let config = CampaignConfig {
        root_seed: opts.seed,
        plans: opts.plans,
    };
    let report = run_campaign_with_workers(&config, opts.workers);
    for v in &report.verdicts {
        let dims = v.plan.dimensions().join("+");
        if v.violations.is_empty() {
            println!("plan {:>3}  ok        [{dims}]", v.index);
        } else {
            println!(
                "plan {:>3}  VIOLATED  [{dims}]  {} x {}",
                v.index,
                v.violations.len(),
                v.violations[0].invariant
            );
        }
    }
    println!(
        "{} plans, {} violating, {} artifacts (seed {})",
        report.verdicts.len(),
        report.violating_count(),
        report.artifacts.len(),
        report.root_seed
    );
    if let Some(path) = opts.out {
        let json = serde_json::to_string_pretty(&report).expect("report serializes");
        if let Err(e) = std::fs::write(&path, json) {
            eprintln!("error: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("report written to {path}");
    }
    ExitCode::SUCCESS
}

fn replay_cmd(opts: ReplayOpts) -> ExitCode {
    let path = &opts.path;
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let artifact = match ReplayArtifact::from_json(&text) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {path} is not a replay artifact: {e:?}");
            return ExitCode::FAILURE;
        }
    };
    if let Err(e) = artifact.plan.validate() {
        eprintln!("error: {path} holds an invalid plan: {e}");
        return ExitCode::FAILURE;
    }
    println!(
        "replaying plan {} of campaign seed {} ({} recorded violations, invariant {}, {} replica{})",
        artifact.plan_index,
        artifact.root_seed,
        artifact.violations.len(),
        artifact.invariant,
        opts.workers,
        if opts.workers == 1 { "" } else { "s" }
    );
    match replay_with_workers(&artifact, opts.workers) {
        ReplayOutcome::Reproduced => {
            println!("reproduced bit-identically");
            ExitCode::SUCCESS
        }
        ReplayOutcome::Diverged { expected, got } => {
            eprintln!(
                "DIVERGED: recorded {} violations, replay produced {}",
                expected.len(),
                got.len()
            );
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
    fn replay_defaults_to_one_worker() {
        let opts = parse_replay(&strings(&["a.json"])).unwrap();
        assert_eq!(
            opts,
            ReplayOpts {
                path: "a.json".into(),
                workers: 1
            }
        );
    }

    #[test]
    fn replay_accepts_workers_like_campaign() {
        let opts = parse_replay(&strings(&["a.json", "--workers", "6"])).unwrap();
        assert_eq!(opts.workers, 6);
        // flag order is free, like campaign's parser
        let opts = parse_replay(&strings(&["--workers", "2", "b.json"])).unwrap();
        assert_eq!(opts.workers, 2);
        assert_eq!(opts.path, "b.json");
    }

    #[test]
    fn replay_rejects_bad_arguments() {
        assert!(parse_replay(&strings(&[])).is_err());
        assert!(parse_replay(&strings(&["--workers", "3"])).is_err());
        assert!(parse_replay(&strings(&["a.json", "--workers"])).is_err());
        assert!(parse_replay(&strings(&["a.json", "--workers", "zero"])).is_err());
        assert!(parse_replay(&strings(&["a.json", "--workers", "0"])).is_err());
        assert!(parse_replay(&strings(&["a.json", "b.json"])).is_err());
        assert!(parse_replay(&strings(&["a.json", "--wat"])).is_err());
    }

    #[test]
    fn campaign_parses_all_flags() {
        let opts = parse_campaign(&strings(&[
            "--plans",
            "10",
            "--seed",
            "3",
            "--workers",
            "2",
            "--out",
            "r.json",
        ]))
        .unwrap();
        assert_eq!(opts.plans, 10);
        assert_eq!(opts.seed, 3);
        assert_eq!(opts.workers, 2);
        assert_eq!(opts.out.as_deref(), Some("r.json"));
    }

    #[test]
    fn campaign_rejects_unknown_and_valueless_flags() {
        assert!(parse_campaign(&strings(&["--plans"])).is_err());
        assert!(parse_campaign(&strings(&["--nope"])).is_err());
    }
}
