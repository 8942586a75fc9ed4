//! Command-line entry of the round-engine benchmark: one workload, one
//! seed, one mode per process (so peak RSS is per run). `run.py` beside
//! this crate drives it; see `lib.rs` for what each mode measures.
//!
//! ```text
//! perigee-roundbench --workload NAME --seed N --mode plain|traced|smoke
//!     [--seconds S] [--rounds R] [--threads T] [--out DIR]
//! ```

use std::path::PathBuf;
use std::process::ExitCode;

use perigee_roundbench::workloads::Workload;
use perigee_roundbench::{plain_report, smoke, sys, traced_report};

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    mode: String,
    seconds: f64,
    rounds: Option<usize>,
    threads: usize,
    out: PathBuf,
}

fn number<T: std::str::FromStr>(flag: &str, v: String) -> Result<T, String> {
    v.parse().map_err(|_| format!("{flag}: bad number {v:?}"))
}

fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: Workload::PaperBlocks,
        seed: 1,
        mode: "plain".into(),
        seconds: 10.0,
        rounds: None,
        threads: sys::nproc(),
        out: PathBuf::from(".bench_out"),
    };
    let mut workload = None;
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::from_name(&v).ok_or(format!("unknown workload {v:?}"))?);
            }
            "--seed" => args.seed = number(&flag, value()?)?,
            "--mode" => args.mode = value()?,
            "--seconds" => args.seconds = number(&flag, value()?)?,
            "--rounds" => args.rounds = Some(number(&flag, value()?)?),
            "--threads" => args.threads = number(&flag, value()?)?,
            "--out" => args.out = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    args.workload = workload.ok_or("--workload is required")?;
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let nproc = sys::nproc();
    if args.threads == 0 || args.threads > nproc {
        eprintln!(
            "error: --threads {} must be between 1 and nproc = {nproc}",
            args.threads
        );
        return ExitCode::from(2);
    }
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(args.threads)
        .build()
        .expect("thread pool");
    let rounds = args.rounds.unwrap_or(args.workload.trajectory_rounds());
    pool.install(|| match args.mode.as_str() {
        "plain" => {
            println!(
                "{}",
                plain_report(args.workload, args.seed, rounds, args.seconds)
            );
            ExitCode::SUCCESS
        }
        "traced" => match traced_report(args.workload, args.seed, rounds, &args.out) {
            Ok(line) => {
                println!("{line}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("error: writing the trace to {}: {e}", args.out.display());
                ExitCode::FAILURE
            }
        },
        "smoke" => {
            let failures = smoke(args.workload, args.seed, rounds);
            for f in &failures {
                eprintln!("{}: {f}", args.workload.name());
            }
            if failures.is_empty() {
                println!("{}: smoke ok ({rounds} rounds)", args.workload.name());
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        other => {
            eprintln!("error: unknown mode {other:?}");
            ExitCode::from(2)
        }
    })
}
