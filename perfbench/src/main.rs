//! `geoind-perfbench`: the repository benchmark.
//!
//! ```text
//! python3 perfbench/run.py --workload protect-batch --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `run.py` builds `geoind` and this binary from source, then runs
//! `geoind-perfbench --workload W --seed N --seconds S --trace 0|1
//! --geoind PATH --work DIR`. The last stdout line is the result object
//! (`correct`, `attempted`, `failed`, `metrics`); with `--trace 0` the
//! metrics are `BENCHMARK.json`'s `end_to_end` list, with `--trace 1` its
//! `per_layer` list (read from the working directory, the checkout
//! root). See `perfbench/README.md` for what every metric means on every
//! workload.

mod http;
mod inproc;
mod json;
mod reference;
mod serve;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Parsed command line.
#[derive(Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// The release `geoind` binary the serve workload spawns.
    pub geoind: PathBuf,
    /// Scratch directory inside the checkout (bundles, ledgers, traces).
    pub work: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut flags = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        let name = a
            .strip_prefix("--")
            .ok_or_else(|| format!("expected --flag, got '{a}'"))?;
        let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
        flags.insert(name.to_string(), value.clone());
    }
    let get = |k: &str| flags.get(k).ok_or_else(|| format!("--{k} is required"));
    let workload = get("workload")?.clone();
    let num = |k: &str| -> Result<u64, String> {
        get(k)?
            .parse()
            .map_err(|_| format!("--{k}: expected a whole number"))
    };
    let seconds = num("seconds")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    let trace = match get("trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace: expected 0 or 1, got '{other}'")),
    };
    Ok(Args {
        workload,
        seed: num("seed")?,
        seconds: seconds as f64,
        trace,
        geoind: PathBuf::from(get("geoind")?),
        work: PathBuf::from(get("work")?),
    })
}

/// What a workload hands back: every metric it measured, the operation
/// tallies, and its correctness checks.
#[derive(Default)]
pub struct Outcome {
    pub metrics: BTreeMap<&'static str, f64>,
    pub attempted: u64,
    pub failed: u64,
    /// `(what, passed)` for every correctness check run.
    pub checks: Vec<(String, bool)>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    pub fn check(&mut self, what: impl Into<String>, passed: bool) {
        let what = what.into();
        eprintln!("# check {}: {what}", if passed { "ok  " } else { "FAIL" });
        self.checks.push((what, passed));
    }
}

/// Peak resident set (MB) of a process, from `/proc/<pid>/status`.
pub fn peak_rss_mb(pid: &str) -> f64 {
    std::fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// CPU seconds (user + system) a process has used, from `/proc/<pid>/stat`.
pub fn cpu_seconds(pid: &str) -> f64 {
    let Ok(stat) = std::fs::read_to_string(format!("/proc/{pid}/stat")) else {
        return 0.0;
    };
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line, in clock ticks (100 per second).
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|v| v.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks(11) + ticks(12)) / 100.0
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Filesystem type of the mount holding `dir`, from `/proc/self/mounts`.
fn filesystem_of(dir: &Path) -> String {
    let dir = std::fs::canonicalize(dir).unwrap_or_else(|_| dir.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/self/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let f: Vec<&str> = l.split_whitespace().collect();
            (f.len() >= 3 && dir.starts_with(f[1])).then(|| (f[1].len(), f[2].to_string()))
        })
        .max()
        .map_or_else(|| "unknown".into(), |(_, fs)| fs)
}

/// Median µs of a 32-byte append + `fdatasync` on the ledger's disk.
fn fsync_probe_us(dir: &Path) -> f64 {
    let path = dir.join("fsync-probe");
    let Ok(mut f) = std::fs::File::create(&path) else {
        return f64::NAN;
    };
    let mut samples = Vec::with_capacity(64);
    for _ in 0..64 {
        let start = Instant::now();
        if f.write_all(&[0u8; 32])
            .and_then(|()| f.sync_data())
            .is_err()
        {
            return f64::NAN;
        }
        samples.push(start.elapsed().as_secs_f64() * 1e6);
    }
    let _ = std::fs::remove_file(&path);
    stats::median(&samples)
}

fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// One line stamping the result with the environment it was measured in.
fn environment_stamp(args: &Args) -> String {
    format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"nproc\":{},\
         \"commit\":\"{}\",\"rustc\":\"{}\",\"profile\":\"release\",\
         \"ledger_fs\":\"{}\",\"fdatasync_probe_us\":{:.1}}}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        nproc(),
        command_line("git", &["rev-parse", "HEAD"]),
        command_line("rustc", &["--version"]),
        filesystem_of(&args.work),
        fsync_probe_us(&args.work),
    )
}

/// `(name, unit)` of every metric the run must print, from the
/// `end_to_end` or `per_layer` list of `BENCHMARK.json`.
fn metric_table(trace: bool) -> Result<Vec<(String, String)>, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("reading BENCHMARK.json: {e}"))?;
    let spec = json::Json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let key = if trace { "per_layer" } else { "end_to_end" };
    let Some(json::Json::Arr(items)) = spec.get(key) else {
        return Err(format!("BENCHMARK.json has no {key} list"));
    };
    items
        .iter()
        .map(|m| match (m.str("name"), m.str("unit")) {
            (Some(n), Some(u)) => Ok((n.to_string(), u.to_string())),
            _ => Err(format!("BENCHMARK.json: a {key} entry lacks name or unit")),
        })
        .collect()
}

/// Name prefixes of the serving layers' per-layer metrics.
const SERVING_LAYERS: [&str; 8] = [
    "server.", "wire.", "shard.", "ledger.", "journal.", "replica.", "loadgen.", "path.",
];

fn run(args: &Args) -> Result<Outcome, String> {
    match args.workload.as_str() {
        "precompute" => inproc::precompute(args),
        "protect-batch" if args.trace => {
            // `serve` is not a workload of BENCHMARK.json (its end-to-end
            // figures do not hold still on a shared host; see README), so
            // the serving layers are measured by running its traced run
            // here too.
            let mut out = inproc::protect_batch(args)?;
            let served = serve::serve(&Args {
                workload: "serve".into(),
                ..args.clone()
            })?;
            for (&name, &value) in &served.metrics {
                if name == "trace.p50_ms_delta"
                    || SERVING_LAYERS.iter().any(|p| name.starts_with(p))
                {
                    out.set(name, value);
                }
            }
            let spans = out.metrics.get("trace.spans").copied().unwrap_or(0.0);
            out.set("trace.spans", spans + served.metrics["trace.spans"]);
            out.checks.extend(served.checks);
            out.attempted += served.attempted;
            out.failed += served.failed;
            out.set(
                "failed_frac",
                out.failed as f64 / out.attempted.max(1) as f64,
            );
            Ok(out)
        }
        "protect-batch" => inproc::protect_batch(args),
        "serve" => serve::serve(args),
        other => Err(format!("unknown workload '{other}'")),
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.work) {
        eprintln!("error: creating {}: {e}", args.work.display());
        std::process::exit(1);
    }
    let table = match metric_table(args.trace) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    };
    println!("# env {}", environment_stamp(&args));
    let outcome = match run(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    };
    let mut parts = Vec::new();
    for (name, unit) in &table {
        let value = match outcome.metrics.get(name.as_str()) {
            Some(&v) => v,
            // A layer that is not on this workload's path did no work.
            None if args.trace => 0.0,
            None => {
                eprintln!("error: end-to-end metric {name} was not measured");
                std::process::exit(1);
            }
        };
        if !value.is_finite() {
            eprintln!("error: metric {name} is not finite ({value})");
            std::process::exit(1);
        }
        parts.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    let correct = outcome.checks.iter().all(|(_, ok)| *ok) && outcome.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted.max(1),
        outcome.failed,
        parts.join(", ")
    );
}
