//! Discovery benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Builds one of four simulated worlds from the seed, warms it up, issues
//! discoveries open-loop on a fixed sim-time schedule and measures whole
//! sim windows for `--seconds` of wall time. With `--trace 0` it prints the
//! end-to-end metrics of that run; with `--trace 1` it then replays the
//! same windows in a world whose roles are wrapped in timing spans, checks
//! that the replay's outcomes are identical, and prints per-layer metrics.
//! Every discovery's output is checked outside the timed phase; the last
//! stdout line is one JSON object, and the exit code is non-zero when any
//! check failed.

mod gate;
mod json;
mod report;
mod runner;
mod schedule;
mod speed;
mod stats;
mod trace;
mod world;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

use json::Json;
use runner::{matching_table, Runner, SetupTime, Stop};
use world::Spec;

#[global_allocator]
static ALLOC: trace::CountingAlloc = trace::CountingAlloc;

/// Set-ups per run: at least `SETUP_REPS`, and more for cheap worlds until
/// `SETUP_BUDGET` of wall time is spent, so that `setup_s` (their median)
/// rests on enough samples to ride out bursts of contention.
const SETUP_REPS: usize = 3;
const SETUP_BUDGET: Duration = Duration::from_secs(3);
const SETUP_MAX_REPS: usize = 25;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                world::WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let Some(spec) = Spec::new(&args.workload, args.seed) else {
        eprintln!("perfbench: unknown workload {}", args.workload);
        return ExitCode::from(2);
    };
    run(&spec, &args)
}

fn run(spec: &Spec, args: &Args) -> ExitCode {
    let matching = matching_table(&sds_workload::Scenario::build(spec.cfg.clone()));

    let mut setups: Vec<SetupTime> = Vec::new();
    let mut spent = Duration::ZERO;
    let mut last = None;
    while setups.len() < SETUP_REPS || (spent < SETUP_BUDGET && setups.len() < SETUP_MAX_REPS) {
        drop(last.take());
        let (d, t) = Runner::setup(spec, false, &matching);
        spent += t.build + t.warmup;
        setups.push(t);
        last = Some(d);
    }
    let d = last.expect("at least one set-up");
    let warmup_ms: Vec<Json> = d
        .warmup_walls
        .iter()
        .map(|w| Json::Num(w.run_until.as_secs_f64() * 1e3))
        .collect();
    let untraced = d.measure(Stop::After(Duration::from_secs(args.seconds)));
    let mut problems: Vec<String> = untraced.violations.clone();

    let (metrics, traced) = if args.trace {
        let (d, _) = Runner::setup(spec, true, &matching);
        let traced = d.measure(Stop::Windows(untraced.windows.len() as u64));
        problems.extend(traced.violations.iter().map(|v| format!("traced: {v}")));
        if traced.digest != untraced.digest {
            problems.push(format!(
                "traced outcome digest {:016x} differs from untraced {:016x}",
                traced.digest.0, untraced.digest.0
            ));
        }
        (report::per_layer(&traced, &untraced, &setups), Some(traced))
    } else {
        let rss = untraced
            .peak_rss_mb
            .ok_or_else(|| "no VmHWM in /proc/self/status".to_string());
        (
            rss.and_then(|rss| report::end_to_end(&untraced, &setups, rss)),
            None,
        )
    };
    let metrics = match metrics {
        Ok(m) => m,
        Err(e) => {
            problems.push(e);
            Vec::new()
        }
    };
    let correct = problems.is_empty();
    let attempted = untraced.all.offered;
    let failed = untraced.failed;

    let record = Json::obj([
        ("workload", Json::str(spec.name)),
        ("seed", Json::from(args.seed)),
        ("trace", Json::from(args.trace)),
        ("seconds", Json::from(args.seconds)),
        ("revision", revision().map_or(Json::Null, Json::Str)),
        ("source_digest", Json::str(source_digest())),
        ("nproc", Json::from(nproc())),
        ("engine_threads", Json::from(1)),
        ("window_sim_ms", Json::from(spec.window)),
        ("tick_sim_ms", Json::from(runner::TICK)),
        ("windows", Json::from(untraced.windows.len() as u64)),
        ("scored_windows", Json::from(spec.scored_windows)),
        ("attempted", Json::from(attempted)),
        ("failed", Json::from(failed)),
        ("warmup_window_run_until_ms", Json::Arr(warmup_ms)),
        ("wall_clock", report::wall_clock(&untraced, &setups)),
        (
            "traced_wall_clock",
            traced
                .as_ref()
                .map_or(Json::Null, |t| report::wall_clock(t, &[])),
        ),
        ("exact", report::exact(&untraced)),
        (
            "spans",
            traced
                .as_ref()
                .map_or(Json::Null, |t| report::spans_json(&t.book)),
        ),
        (
            "problems",
            Json::Arr(problems.iter().map(|p| Json::str(p.as_str())).collect()),
        ),
        ("metrics", report::metrics_json(&metrics)),
    ]);
    let path = results_dir().join(format!(
        "{}-seed{}-trace{}.json",
        spec.name,
        args.seed,
        u8::from(args.trace)
    ));
    match std::fs::create_dir_all(results_dir())
        .and_then(|()| std::fs::write(&path, format!("{record}\n")))
    {
        Ok(()) => println!("record: {}", path.display()),
        Err(e) => eprintln!("perfbench: could not write {}: {e}", path.display()),
    }
    for p in &problems {
        eprintln!("perfbench: check failed: {p}");
    }
    for x in &metrics {
        println!(
            "{:<48} {:>18} {}",
            x.name,
            format!("{:.6}", x.value),
            x.unit
        );
    }
    println!("attempted {attempted} failed {failed} correct {correct}");
    let result = Json::obj([
        ("correct", Json::from(correct)),
        ("attempted", Json::from(attempted)),
        ("failed", Json::from(failed)),
        ("metrics", report::metrics_json(&metrics)),
    ]);
    println!("{result}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn nproc() -> u64 {
    std::thread::available_parallelism().map_or(1, |n| n.get() as u64)
}

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..")
}

fn results_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("results")
}

/// The checked-out git commit, when the tree is a git checkout.
fn revision() -> Option<String> {
    let git = repo_root().join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(name) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = std::fs::read_to_string(git.join(name)) {
        return Some(id.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed
        .lines()
        .find(|l| l.ends_with(name))
        .and_then(|l| l.split_whitespace().next())
        .map(str::to_string)
}

/// FNV-1a over the program's sources (`crates/`, the lock file and this
/// benchmark), so a record names the code it measured even outside git.
fn source_digest() -> String {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                if p.file_name()
                    .is_some_and(|n| n != "target" && n != "results")
                {
                    walk(&p, out);
                }
            } else {
                out.push(p);
            }
        }
    }
    let root = repo_root();
    let mut files = vec![root.join("Cargo.lock")];
    walk(&root.join("crates"), &mut files);
    walk(&root.join("perfbench").join("src"), &mut files);
    files.sort();
    let mut d = stats::Digest::default();
    for f in &files {
        if let (Ok(rel), Ok(bytes)) = (f.strip_prefix(&root), std::fs::read(f)) {
            d.bytes(rel.to_string_lossy().as_bytes());
            d.bytes(&bytes);
        }
    }
    format!("{:016x}", d.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(str::to_string))
    }

    #[test]
    fn parses_the_command_line() {
        let a = args("--workload metro_query --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("metro_query", 7, 10, true)
        );
        assert!(args("--workload x --seed 1 --seconds 1 --trace 2").is_err());
        assert!(args("--seed 1 --seconds 1").is_err());
        assert!(args("--workload x --seed nope --seconds 1").is_err());
        assert!(args("--bogus 1").is_err());
    }
}
