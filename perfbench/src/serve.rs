//! The `serve` workload: `geoind serve --listen` as a separate process,
//! driven by a closed loop of keep-alive connections from this process,
//! and — in the traced run — the same request stream through each serving
//! layer's public API in-process and through a primary with a warm
//! standby.

use crate::http::{call, Conn, Relay};
use crate::inproc::{self, Config};
use crate::json::Json;
use crate::reference::{self, ServeReference};
use crate::stats;
use crate::trace::{Recorder, Trace};
use crate::{cpu_seconds, nproc, peak_rss_mb, Args, Outcome};
use geoind_core::msm::MsmMechanism;
use geoind_core::resilient::{ResilientMechanism, Tier};
use geoind_data::checkin::CheckIn;
use geoind_data::prior::GridPrior;
use geoind_data::synth::SyntheticCity;
use geoind_rng::{Rng, SeededRng};
use geoind_serve::clock::{Clock, SystemClock};
use geoind_serve::{
    Applier, Journal, LedgerConfig, Request, Response, ServeConfig, Server, ShardedLedger, Shipper,
    ShipperConfig, SpendError, SpendLedger,
};
use geoind_spatial::geom::Point;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver};
use std::sync::{Arc, Barrier, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// ε per request and the CLI's default per-user epoch cap (`--cap 1.6`):
/// every user is served ⌊CAP/EPS⌋ = 3 times, then refused
/// `budget_exhausted`.
const EPS: f64 = 0.5;
const CAP: f64 = 1.6;
const SERVES_PER_USER: u32 = 3;
const SHARDS: usize = 4;
const WORKERS: usize = 2;
const MAX_REPLICA_LAG: u64 = 64;
/// Requests per `--seconds` of run: a fixed count, so the server's state
/// at the end — and its peak RSS — does not depend on how fast this run
/// went.
const RATE_HINT: f64 = 3_000.0;
/// The load goes out in paced segments, two per `--seconds`, with a
/// pause after each. Every segment is one window of the end-to-end
/// medians (a 10 s run gives 20), and the pauses let the server's
/// snapshot writeback drain, so a slow stretch of the disk spoils some
/// segments instead of piling up behind the rest of the run.
const SEGMENTS_PER_SECOND: f64 = 2.0;
const PAUSE: Duration = Duration::from_millis(250);
/// With a host-speed reference, each segment goes out in this many equal
/// parts, each followed by a burst of [`REFERENCE_EXCHANGES`] against the
/// reference, so the reference's rate is measured across the segment.
const SUBSEGMENTS: u64 = 10;
const REFERENCE_EXCHANGES: u64 = 40;
/// Requests replayed through each in-process layer in the traced run.
const LAYER_REQUESTS: u64 = 2_000;

/// The served configuration: the CLI defaults (ε=0.5, ρ=0.8, g=4;
/// Algorithm 2 picks height 1) over the server's own synthetic city.
const SERVED: Config = Config {
    eps: EPS,
    g: 4,
    rho: 0.8,
    fixed_height: None,
    size: (80_000, 8_000),
    skewed_prior: false,
};

/// The seeded request stream: a seeded permutation of the seeded city's
/// check-ins at its default, Gowalla-Austin size (265,571 check-ins from
/// 12,155 users), each replayed as one request of its user at its
/// location. Users keep the generator's heavy-tailed activity, so the
/// share of requests refused `budget_exhausted` follows from the data
/// and the cap.
pub struct Stream {
    checkins: Vec<CheckIn>,
}

impl Stream {
    pub fn new(seed: u64) -> Self {
        let mut checkins = inproc::city(seed).generate().checkins().to_vec();
        let mut rng = SeededRng::from_seed(seed);
        for i in (1..checkins.len()).rev() {
            let j = rng.gen_u64_below(i as u64 + 1) as usize;
            checkins.swap(i, j);
        }
        Self { checkins }
    }

    /// Request `i`: `(user, point)` of the `i`-th check-in of the
    /// permutation (cycling past its end).
    pub fn get(&self, i: u64) -> (u64, Point) {
        let c = self.checkins[(i % self.checkins.len() as u64) as usize];
        (c.user, c.location)
    }
}

/// A `geoind serve --listen` child process. Dropping it kills and reaps it.
struct Proc {
    child: Child,
    addr: String,
    lines: Receiver<String>,
    reader: Option<JoinHandle<()>>,
    dir: PathBuf,
}

impl Proc {
    fn spawn(geoind: &Path, dir: &Path, seed: u64, extra: &[String]) -> Result<Self, String> {
        let _ = std::fs::remove_dir_all(dir);
        let mut child = Command::new(geoind)
            .args([
                "serve",
                "--listen",
                "127.0.0.1:0",
                "--eps",
                "0.5",
                "--rho",
                "0.8",
                "--g",
                "4",
            ])
            .args([
                "--shards",
                &SHARDS.to_string(),
                "--workers",
                &WORKERS.to_string(),
            ])
            .args(["--queue", "64", "--batch", "8", "--cap", &CAP.to_string()])
            .args(["--seed", &seed.to_string(), "--ledger-dir"])
            .arg(dir)
            .args(extra)
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", geoind.display()))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let (tx, lines) = mpsc::channel();
        let reader = std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines().map_while(Result::ok) {
                if tx.send(line).is_err() {
                    break;
                }
            }
        });
        let mut proc = Self {
            child,
            addr: String::new(),
            lines,
            reader: Some(reader),
            dir: dir.to_path_buf(),
        };
        let line = proc.wait_line("# listening on ")?;
        proc.addr = line["# listening on ".len()..].trim().to_string();
        Ok(proc)
    }

    /// Block until the child prints a line starting with `prefix`.
    fn wait_line(&mut self, prefix: &str) -> Result<String, String> {
        let deadline = Instant::now() + Duration::from_secs(120);
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            match self.lines.recv_timeout(left) {
                Ok(line) if line.starts_with(prefix) => return Ok(line),
                Ok(_) => {}
                Err(_) => return Err(format!("server never printed '{prefix}'")),
            }
        }
    }

    fn pid(&self) -> String {
        self.child.id().to_string()
    }

    fn report(&self) -> Result<Json, String> {
        let (status, body) = call(&self.addr, "GET", "/report", "")?;
        if status != 200 {
            return Err(format!("GET /report answered {status}"));
        }
        Json::parse(&body)
    }

    /// Graceful drain via `POST /shutdown`; the process must exit 0.
    fn shutdown(mut self) -> Result<(), String> {
        call(&self.addr, "POST", "/shutdown", "")?;
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            if let Some(status) = self.child.try_wait().map_err(|e| e.to_string())? {
                if let Some(r) = self.reader.take() {
                    let _ = r.join();
                }
                return if status.success() {
                    Ok(())
                } else {
                    Err(format!("server exited with {status}"))
                };
            }
            if Instant::now() > deadline {
                return Err("server did not drain within 60 s".into());
            }
            std::thread::sleep(Duration::from_millis(10));
        }
    }
}

impl Drop for Proc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(r) = self.reader.take() {
            let _ = r.join();
        }
    }
}

/// A started deployment: one server, or a primary and its warm standby.
struct Deployment {
    primary: Proc,
    standby: Option<Proc>,
}

fn deploy(args: &Args, replicated: bool, tag: &str) -> Result<(Deployment, f64), String> {
    let start = Instant::now();
    let extra: Vec<String> = if replicated {
        vec!["--max-replica-lag".into(), MAX_REPLICA_LAG.to_string()]
    } else {
        Vec::new()
    };
    let primary = Proc::spawn(
        &args.geoind,
        &args.work.join(format!("{tag}-primary")),
        args.seed,
        &extra,
    )?;
    let standby = if replicated {
        let mut standby = Proc::spawn(
            &args.geoind,
            &args.work.join(format!("{tag}-standby")),
            args.seed,
            &["--follow".to_string(), primary.addr.clone()],
        )?;
        let line = standby.wait_line("# following ")?;
        if !line.contains("registered: true") {
            return Err(format!("standby did not register: {line}"));
        }
        Some(standby)
    } else {
        None
    };
    Ok((
        Deployment { primary, standby },
        start.elapsed().as_secs_f64(),
    ))
}

impl Deployment {
    fn shutdown(self) -> Result<(), String> {
        self.primary.shutdown()?;
        match self.standby {
            Some(s) => s.shutdown(),
            None => Ok(()),
        }
    }
}

/// `reps` deployments one after another (each drained before the next
/// starts), appending each one's set-up time; returns the last, live.
fn deploy_reps(
    args: &Args,
    reps: usize,
    tag: &str,
    setup_s: &mut Vec<f64>,
) -> Result<Deployment, String> {
    let mut live: Option<Deployment> = None;
    for rep in 0..reps {
        if let Some(d) = live.take() {
            d.shutdown()?;
        }
        let (d, secs) = deploy(args, false, &format!("{tag}{rep}"))?;
        eprintln!(
            "# deploy {tag}{rep}: ready in {secs:.3}s at {}",
            d.primary.addr
        );
        setup_s.push(secs);
        live = Some(d);
    }
    live.ok_or_else(|| "no deployment ran".to_string())
}

/// `reps` in-process builds of the served configuration's bundle,
/// appending untraced build times to `bundles`. In trace mode rep 1 is
/// traced and ends the loop. Returns the last build's prior, mechanism,
/// bundle size and the traced-minus-untraced bundle time.
fn served_bundles(
    args: &Args,
    trace: &mut Trace,
    reps: u64,
    bundles: &mut Vec<f64>,
) -> Result<(GridPrior, MsmMechanism, usize, f64), String> {
    let city = SyntheticCity::austin_like();
    let mut built = None;
    for rep in 0..reps {
        let traced = trace.enabled() && rep == 1;
        let mut rec = if traced {
            trace.recorder()
        } else {
            Trace::new(false).recorder()
        };
        let (_, prior, msm) = inproc::build(&city, &SERVED, &mut rec, None, rep)?;
        let bundle =
            inproc::build_bundle(&msm, &args.work.join("bundle.bin"), &mut rec, None, rep)?;
        let delta = if traced {
            trace.merge(rec);
            bundle.secs - stats::median(bundles)
        } else {
            bundles.push(bundle.secs);
            0.0
        };
        built = Some((prior, msm, bundle.blob.len(), delta));
        if traced {
            break;
        }
    }
    built.ok_or_else(|| "no bundle was built".to_string())
}

/// Client-side books of one load phase.
#[derive(Default)]
struct Load {
    /// Per request: (segment, latency ms, 1 if served else 0).
    samples: Vec<(usize, f64, f64)>,
    /// Wall seconds of each segment, pauses and reference bursts excluded.
    segment_s: Vec<f64>,
    /// Per segment: the reference's exchanges per second over the bursts
    /// inside it (NaN without a reference).
    segment_ref: Vec<f64>,
    served: u64,
    refused: u64,
    other: u64,
    non_tier0: u64,
    loss_sum: f64,
    /// Per user: (sent, served).
    per_user: BTreeMap<u64, (u32, u32)>,
}

impl Load {
    /// Fold in the books of `other`, which ran the same segments.
    fn merge(&mut self, other: Load) {
        self.samples.extend(other.samples);
        self.served += other.served;
        self.refused += other.refused;
        self.other += other.other;
        self.non_tier0 += other.non_tier0;
        self.loss_sum += other.loss_sum;
        for (u, (s, v)) in other.per_user {
            let e = self.per_user.entry(u).or_default();
            e.0 += s;
            e.1 += v;
        }
    }

    /// Append `other`, whose segments ran after ours.
    fn append(&mut self, mut other: Load) {
        let shift = self.segment_s.len();
        for s in &mut other.samples {
            s.0 += shift;
        }
        self.segment_s.append(&mut other.segment_s);
        self.segment_ref.append(&mut other.segment_ref);
        self.merge(other);
    }

    fn total(&self) -> u64 {
        self.served + self.refused + self.other
    }

    fn p50_ms(&self) -> f64 {
        let lat: Vec<f64> = self.samples.iter().map(|s| s.1).collect();
        stats::quantile(&lat, 0.5)
    }

    /// Seconds the load was running, pauses excluded.
    fn busy_s(&self) -> f64 {
        self.segment_s.iter().sum()
    }

    /// One summary per segment: latency percentiles, requests (`count`)
    /// and serves (`weight`) over the segment's wall time.
    fn windows(&self) -> Vec<stats::WindowSummary> {
        let mut lat = vec![Vec::new(); self.segment_s.len()];
        let mut served = vec![0.0; self.segment_s.len()];
        for &(k, ms, s) in &self.samples {
            lat[k].push(ms);
            served[k] += s;
        }
        lat.iter_mut()
            .zip(served)
            .zip(&self.segment_s)
            .filter_map(|((l, w), &secs)| stats::summarize(l, w, secs))
            .collect()
    }
}

/// Closed loop: `nproc` keep-alive connections, each sending its next
/// request only after the previous answer, over stream indices `range`
/// split into `segments` equal segments. All connections start a segment
/// together and finish it before the pause that follows it. With a
/// `reference`, every segment goes out in [`SUBSEGMENTS`] parts (again
/// all connections together), each followed by a reference burst. With
/// tracing on every exchange is a `span` span.
fn drive(
    addr: &str,
    stream: &Stream,
    range: Range<u64>,
    segments: u64,
    trace: &mut Trace,
    span: &'static str,
    mut reference: Option<&mut ServeReference>,
) -> Result<Load, String> {
    let threads = nproc();
    let segments = segments.max(1);
    let parts = if reference.is_some() { SUBSEGMENTS } else { 1 };
    let subs = segments * parts;
    let ends: Vec<u64> = (1..=subs)
        .map(|k| range.start + (range.end - range.start) * k / subs)
        .collect();
    let parts = parts as usize;
    let next = AtomicU64::new(range.start);
    let barrier = Barrier::new(threads + 1);
    // A failed connection stops the others; every thread still meets
    // every barrier.
    let failed = AtomicBool::new(false);
    let error = Mutex::new(None);
    // Reference exchanges and seconds per segment.
    let mut bursts = vec![(0.0, 0.0); segments as usize];
    let (results, segment_s) = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let mut rec = trace.recorder();
                let (ends, next, barrier, failed, error) =
                    (&ends, &next, &barrier, &failed, &error);
                s.spawn(move || {
                    let mut conn = Conn::connect(addr);
                    let mut load = Load::default();
                    for (j, &end) in ends.iter().enumerate() {
                        let k = j / parts;
                        barrier.wait();
                        while !failed.load(Ordering::Relaxed) {
                            let Ok(i) =
                                next.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |i| {
                                    (i < end).then_some(i + 1)
                                })
                            else {
                                break;
                            };
                            let exchanged = conn
                                .as_mut()
                                .map_err(|e| e.clone())
                                .and_then(|c| send_one(c, stream, i, k, &mut load, &mut rec, span));
                            if let Err(e) = exchanged {
                                failed.store(true, Ordering::Relaxed);
                                error.lock().expect("error slot poisoned").get_or_insert(e);
                            }
                        }
                        barrier.wait();
                    }
                    (load, rec)
                })
            })
            .collect();
        let mut segment_s = vec![0.0; segments as usize];
        for j in 0..ends.len() {
            let k = j / parts;
            barrier.wait();
            let t0 = Instant::now();
            barrier.wait();
            segment_s[k] += t0.elapsed().as_secs_f64();
            if let Some(r) = reference.as_deref_mut() {
                match r.burst(REFERENCE_EXCHANGES) {
                    Ok(secs) => {
                        bursts[k].0 += REFERENCE_EXCHANGES as f64;
                        bursts[k].1 += secs;
                    }
                    Err(e) => eprintln!("warning: reference burst: {e}"),
                }
            }
            if (j + 1) % parts == 0 && j + 1 < ends.len() {
                std::thread::sleep(PAUSE);
            }
        }
        let results: Vec<_> = handles.into_iter().map(|h| h.join()).collect();
        (results, segment_s)
    });
    if let Some(e) = error.into_inner().expect("error slot poisoned") {
        return Err(e);
    }
    let mut load = Load {
        segment_s,
        segment_ref: bursts.iter().map(|(n, secs)| n / secs).collect(),
        ..Load::default()
    };
    for r in results {
        let (l, rec) = r.map_err(|_| "load thread panicked".to_string())?;
        load.merge(l);
        trace.merge(rec);
    }
    Ok(load)
}

/// Send request `i` (segment `k`) on `conn` and book its outcome.
fn send_one(
    conn: &mut Conn,
    stream: &Stream,
    i: u64,
    k: usize,
    load: &mut Load,
    rec: &mut Recorder,
    span: &'static str,
) -> Result<(), String> {
    let (user, p) = stream.get(i);
    let body = format!(r#"{{"user":{user},"id":{i},"x":{},"y":{}}}"#, p.x, p.y);
    let t0 = rec.now();
    let started = Instant::now();
    let (status, answer) = conn.exchange("POST", "/protect", &body)?;
    let ms = started.elapsed().as_secs_f64() * 1e3;
    rec.record(span, t0, rec.now(), None, i);
    let entry = load.per_user.entry(user).or_default();
    entry.0 += 1;
    let v = Json::parse(&answer).unwrap_or(Json::Null);
    match (status, v.str("status")) {
        (200, Some("served")) => {
            load.samples.push((k, ms, 1.0));
            load.served += 1;
            entry.1 += 1;
            if v.num("tier") != Some(0.0) {
                load.non_tier0 += 1;
            }
            let z = Point::new(
                v.num("x").unwrap_or(f64::NAN),
                v.num("y").unwrap_or(f64::NAN),
            );
            load.loss_sum += p.dist(z);
        }
        (200, Some("budget_exhausted")) => {
            load.samples.push((k, ms, 0.0));
            load.refused += 1;
        }
        _ => {
            eprintln!("warning: request {i} answered {status} {answer}");
            load.other += 1;
        }
    }
    Ok(())
}

fn write_bytes(pid: &str) -> f64 {
    std::fs::read_to_string(format!("/proc/{pid}/io"))
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("write_bytes:"))
                .and_then(|v| v.trim().parse::<f64>().ok())
        })
        .unwrap_or(0.0)
}

fn counter(report: &Json, key: &str) -> u64 {
    report.num(key).unwrap_or(f64::NAN) as u64
}

/// Client tallies must equal the server's own gate counters exactly, every
/// other outcome counter must be zero, each user must be served
/// min(sent, ⌊cap/ε⌋) times, and every serve must be tier 0. Returns the
/// number of users with a wrong served count.
fn reconcile(out: &mut Outcome, report: &Json, load: &Load, who: &str) -> u64 {
    let tiers = match report.get("served_by_tier") {
        Some(Json::Arr(t)) => t
            .iter()
            .map(|v| {
                if let Json::Num(n) = v {
                    *n as u64
                } else {
                    u64::MAX
                }
            })
            .collect(),
        _ => vec![u64::MAX; 3],
    };
    let zero_keys = [
        "expired",
        "shed",
        "journal_faults",
        "refused_shard",
        "disk_full",
        "replica_lag",
        "fenced",
        "shed_net",
        "torn",
        "unauthorized",
    ];
    let nonzero: Vec<&str> = zero_keys
        .iter()
        .copied()
        .filter(|k| counter(report, k) != 0)
        .collect();
    out.check(
        format!(
            "{who} /report reconciles: served {} = {}, refused {} = {}, total {} = {}, tier 0 {} = {}, other outcomes zero {nonzero:?}",
            counter(report, "served"),
            load.served,
            counter(report, "refused_budget"),
            load.refused,
            counter(report, "total"),
            load.total(),
            tiers.first().copied().unwrap_or(u64::MAX),
            load.served,
        ),
        counter(report, "served") == load.served
            && counter(report, "refused_budget") == load.refused
            && counter(report, "total") == load.total()
            && tiers.first() == Some(&load.served)
            && nonzero.is_empty()
            && load.other == 0,
    );
    let wrong_counts = load
        .per_user
        .values()
        .filter(|(sent, served)| *served != (*sent).min(SERVES_PER_USER))
        .count();
    out.check(
        format!(
            "{who}: each of {} users served min(sent, {SERVES_PER_USER}) times ({wrong_counts} not)",
            load.per_user.len()
        ),
        wrong_counts == 0,
    );
    out.check(
        format!("{who}: every serve is tier 0 ({} not)", load.non_tier0),
        load.non_tier0 == 0,
    );
    wrong_counts as u64
}

/// The `serve` workload. See the module docs.
pub fn serve(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut trace = Trace::new(args.trace);
    let stream = Stream::new(args.seed);

    // Set-up: spawn → "# listening". Six deployments now — the last
    // takes the load — and five after the drain, so the median samples
    // both ends of the run.
    let mut setup_s = Vec::new();
    let dep = deploy_reps(args, 6, "pre", &mut setup_s)?;

    // The served configuration's bundle, built in-process: eight builds
    // now, seven after the load (tracing off).
    let mut bundles = Vec::new();
    let (prior, msm, bundle_bytes, bundle_delta) =
        served_bundles(args, &mut trace, 8, &mut bundles)?;
    out.set("bundle_loss_km", inproc::exact_loss(&msm, &prior));
    let mut rec = trace.recorder();
    let certs = rec.time("certify.recertify", None, 0, || msm.recertify_cache());
    trace.merge(rec);
    let quarantined = certs
        .iter()
        .filter(|(_, c)| c.verdict == geoind_core::certify::Verdict::Quarantined)
        .count();
    out.check(
        format!(
            "the served bundle's {} channels re-certify ({quarantined} quarantined)",
            certs.len()
        ),
        quarantined == 0,
    );
    inproc::layer_metrics(&mut out, &trace, &msm, bundle_bytes, bundle_delta);

    // The load: closed loop over the seeded stream in paced segments. The
    // traced run sends its first half untraced and its second half traced;
    // their p50 difference is the tracing overhead.
    let pid = dep.primary.pid();
    let (cpu0, disk0, gen_cpu0) = (cpu_seconds(&pid), write_bytes(&pid), cpu_seconds("self"));
    let requests = (args.seconds * RATE_HINT) as u64;
    let segments = (args.seconds * SEGMENTS_PER_SECOND) as u64;
    let addr = dep.primary.addr.clone();
    let mut refsrv = ServeReference::start(&args.work.join("reference"), nproc())?;
    let mut untraced_p50 = 0.0;
    let load = if trace.enabled() {
        let (half, half_segments) = (requests / 2, segments / 2);
        let mut a = drive(
            &addr,
            &stream,
            0..half,
            half_segments,
            &mut Trace::new(false),
            "wire.exchange",
            Some(&mut refsrv),
        )?;
        std::thread::sleep(PAUSE);
        let b = drive(
            &addr,
            &stream,
            half..requests,
            segments - half_segments,
            &mut trace,
            "wire.exchange",
            Some(&mut refsrv),
        )?;
        untraced_p50 = a.p50_ms();
        out.set("trace.p50_ms_delta", b.p50_ms() - untraced_p50);
        a.append(b);
        a
    } else {
        drive(
            &addr,
            &stream,
            0..requests,
            segments,
            &mut trace,
            "wire.exchange",
            Some(&mut refsrv),
        )?
    };
    let n = load.total() as f64;
    out.set(
        "server.cpu_us_per_req",
        (cpu_seconds(&pid) - cpu0) * 1e6 / n,
    );
    out.set(
        "server.disk_write_bytes_per_req",
        (write_bytes(&pid) - disk0) / n,
    );
    out.set(
        "loadgen.cpu_frac",
        (cpu_seconds("self") - gen_cpu0) / load.busy_s() / nproc() as f64,
    );
    out.set("peak_rss_mb", peak_rss_mb(&pid));
    refsrv.stop();
    // Rates and percentiles: medians over the segments (each holds 1,500
    // requests, so its p99 has fifteen samples beyond it), each segment
    // normalized to the nominal host speed by the reference inside it.
    let raw = load.windows();
    let wins: Vec<stats::WindowSummary> = raw
        .iter()
        .zip(&load.segment_ref)
        .map(|(w, r)| reference::normalize(w, *r, reference::NOMINAL_EXCHANGES_PER_S))
        .collect();
    let req_per_s = stats::median_of(&wins, |w| w.count / w.secs);
    let p50 = stats::median_of(&wins, |w| w.p50);
    let p99 = stats::median_of(&wins, |w| w.p99);
    out.set("req_per_s", req_per_s);
    out.set(
        "reports_per_s",
        stats::median_of(&wins, |w| w.weight / w.secs),
    );
    out.set("report_loss_km", load.loss_sum / load.served.max(1) as f64);
    out.set("p50_ms", p50);
    out.set("p99_ms", p99);
    out.set("e2e.latency_samples", n);
    eprintln!(
        "# load: {} requests ({} served, {} refused) in {:.2}s busy; medians over {} segments: \
         {req_per_s:.0} req/s, p50 {p50:.3} ms, p99 {p99:.3} ms",
        load.total(),
        load.served,
        load.refused,
        load.busy_s(),
        wins.len()
    );
    eprintln!(
        "#   as measured: {:.0} req/s, p50 {:.3} ms, p99 {:.3} ms; reference {:.0} exchanges/s \
         (nominal {:.0})",
        stats::median_of(&raw, |w| w.count / w.secs),
        stats::median_of(&raw, |w| w.p50),
        stats::median_of(&raw, |w| w.p99),
        stats::median(&load.segment_ref),
        reference::NOMINAL_EXCHANGES_PER_S,
    );
    let per_segment = |ws: &[stats::WindowSummary]| -> String {
        ws.iter()
            .map(|w| format!("{:.1}", w.count / w.secs / 1e3))
            .collect::<Vec<_>>()
            .join(" ")
    };
    eprintln!(
        "#   k req/s per segment, as measured: {}",
        per_segment(&raw)
    );
    eprintln!(
        "#   k req/s per segment, normalized:  {}",
        per_segment(&wins)
    );
    let refs: Vec<String> = load
        .segment_ref
        .iter()
        .map(|r| format!("{:.1}", r / 1e3))
        .collect();
    eprintln!(
        "#   k reference exchanges/s per segment: {}",
        refs.join(" ")
    );

    // Correctness: the server's books against the client's.
    let report = dep.primary.report()?;
    let wrong_counts = reconcile(&mut out, &report, &load, "primary");
    for (metric, key) in [
        ("server.shed", "shed"),
        ("wire.torn", "torn"),
        ("wire.shed_net", "shed_net"),
        ("wire.retried", "retried"),
        ("wire.idem_evicted", "idem_evicted"),
    ] {
        out.set(metric, counter(&report, key) as f64);
    }

    if !trace.enabled() {
        served_bundles(args, &mut trace, 7, &mut bundles)?;
    }
    out.set("bundle_s", stats::median(&bundles));

    // The traced run: the same stream through each layer in-process, and
    // through a replicated deployment.
    if trace.enabled() {
        layers(args, &stream, &mut trace, &mut out, msm)?;
        replication(args, &stream, &mut trace, &mut out)?;
        path_table(&mut out, &trace, untraced_p50);
    }

    // Drain, then audit the durable books.
    let dir = dep.primary.dir.clone();
    dep.shutdown()?;
    books_check(&mut out, &load, &dir, None);
    deploy_reps(args, 5, "post", &mut setup_s)?.shutdown()?;
    out.set("setup_s", stats::median(&setup_s));
    out.attempted = load.total();
    out.failed = load.other + load.non_tier0 + wrong_counts;
    inproc::finish(&mut out, &trace, args);
    Ok(out)
}

/// After the drain: every user's durable spend is served × ε on the
/// primary and, with a standby, identical on the standby.
fn books_check(out: &mut Outcome, load: &Load, primary: &Path, standby: Option<&Path>) {
    let config = LedgerConfig {
        cap_per_user: CAP,
        epoch: 0,
        compact_after: 64,
    };
    let books = ShardedLedger::open(primary, config, SHARDS);
    let bad = load
        .per_user
        .iter()
        .filter(|(u, (_, served))| books.spent(**u) != Some(f64::from(*served) * EPS))
        .count();
    out.check(
        format!("ledger holds served×ε for every user ({bad} differ)"),
        bad == 0,
    );
    if let Some(dir) = standby {
        let follower = ShardedLedger::open(dir, config, SHARDS);
        let differ = load
            .per_user
            .keys()
            .filter(|u| follower.spent(**u) != books.spent(**u))
            .count();
        out.check(
            format!("standby books equal the primary's after the drain ({differ} users differ)"),
            differ == 0,
        );
    }
}

/// The replica layer (traced run): a primary with a warm standby
/// (`--max-replica-lag` / `--follow`) takes the first `LAYER_REQUESTS`
/// requests of the stream while the primary ships through a counting
/// loopback relay; then the shard ledger with a `Shipper` attached to the
/// live standby is timed in-process, and the relayed batches are replayed
/// through `Applier::handle`.
fn replication(
    args: &Args,
    stream: &Stream,
    trace: &mut Trace,
    out: &mut Outcome,
) -> Result<(), String> {
    let (dep, _) = deploy(args, true, "repl")?;
    let standby = dep
        .standby
        .as_ref()
        .ok_or("replicated deployment has no standby")?;
    let standby_addr = standby.addr.clone();
    let mut relay = Relay::start(standby_addr.clone())?;
    let (status, body) = call(
        &dep.primary.addr,
        "POST",
        "/follow",
        &format!(r#"{{"addr":"{}"}}"#, relay.addr),
    )?;
    if status != 200 {
        return Err(format!(
            "re-pointing the primary at the relay: {status} {body}"
        ));
    }
    let load = drive(
        &dep.primary.addr,
        stream,
        0..LAYER_REQUESTS,
        1,
        trace,
        "replica.exchange",
        None,
    )?;
    let report = dep.primary.report()?;
    let wrong = reconcile(out, &report, &load, "replicated primary");
    if wrong > 0 || load.non_tier0 > 0 {
        return Err("the replicated deployment served wrong counts".into());
    }
    out.set(
        "replica.lag_refusals",
        counter(&report, "replica_lag") as f64,
    );
    relay.stop();
    let ships = relay.stats.ships.load(Ordering::Relaxed) as f64;
    out.set("replica.ships", ships);
    out.set(
        "replica.records_per_ship",
        relay.stats.records.load(Ordering::Relaxed) as f64 / ships.max(1.0),
    );
    out.set(
        "replica.connects_per_ship",
        relay.stats.connects.load(Ordering::Relaxed) as f64 / ships.max(1.0),
    );
    let bodies = std::mem::take(
        &mut *relay
            .stats
            .bodies
            .lock()
            .expect("relay body store poisoned"),
    );
    replay_apply(&args.work.join("apply"), &bodies, trace, out)?;

    // The shard ledger with a shipper attached to the live standby, two
    // callers, users moved out of the load's range.
    let dir = args.work.join("replica");
    let _ = std::fs::remove_dir_all(&dir);
    let config = LedgerConfig {
        cap_per_user: CAP,
        epoch: 0,
        compact_after: 64,
    };
    let shipped = ShardedLedger::open(&dir, config, SHARDS);
    let shipper = Shipper::new(ShipperConfig {
        dir: None,
        shards: SHARDS,
        epoch: 0,
        max_lag: MAX_REPLICA_LAG,
        timeout_ms: 2_000,
        auth_token: None,
    })
    .map_err(|e| e.to_string())?;
    shipper.set_peer(&standby_addr).map_err(|e| e.to_string())?;
    shipped.attach_shipper(Arc::new(shipper));
    callers(trace, WORKERS, stream, |i, user, _, rec| {
        timed_spend(rec, i, "replica.try_spend", "replica.refuse", || {
            shipped.try_spend(user | 1 << 40, EPS)
        })
    })?;
    let q = |name: &str, p: f64| trace.quantile_us(name, p);
    out.set(
        "replica.try_spend_us.p50",
        q("replica.try_spend", 0.5) - q("shard.try_spend", 0.5),
    );
    out.set(
        "replica.try_spend_us.p99",
        q("replica.try_spend", 0.99) - q("shard.try_spend", 0.99),
    );

    let (primary_dir, standby_dir) = (dep.primary.dir.clone(), standby.dir.clone());
    dep.shutdown()?;
    books_check(out, &load, &primary_dir, Some(&standby_dir));
    Ok(())
}

/// Run `callers` threads over stream indices `[0, LAYER_REQUESTS)`, each
/// calling `op(i, user, point, recorder)`.
fn callers<F>(trace: &mut Trace, callers: usize, stream: &Stream, op: F) -> Result<(), String>
where
    F: Fn(u64, u64, Point, &mut Recorder) -> Result<(), String> + Sync,
{
    let next = AtomicU64::new(0);
    let results: Vec<Result<Recorder, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..callers)
            .map(|_| {
                let mut rec = trace.recorder();
                let (next, op) = (&next, &op);
                s.spawn(move || loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= LAYER_REQUESTS {
                        return Ok(rec);
                    }
                    let (user, p) = stream.get(i);
                    op(i, user, p, &mut rec)?;
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("caller thread panicked".into()))
            })
            .collect()
    });
    for r in results {
        trace.merge(r?);
    }
    Ok(())
}

/// Time one spend attempt: `ok_span` on success, `refuse_span` on a
/// budget refusal; anything else is an error.
fn timed_spend(
    rec: &mut Recorder,
    i: u64,
    ok_span: &'static str,
    refuse_span: &'static str,
    f: impl FnOnce() -> Result<(), SpendError>,
) -> Result<(), String> {
    let t0 = rec.now();
    let r = f();
    let t1 = rec.now();
    match r {
        Ok(()) => rec.record(ok_span, t0, t1, None, i),
        Err(SpendError::Exhausted { .. }) => rec.record(refuse_span, t0, t1, None, i),
        Err(e) => return Err(format!("spend {i}: {e}")),
    };
    Ok(())
}

/// The serving layers in-process, over the same stream: journal, ledger,
/// shard (one and two callers), sampling, and the admission server.
fn layers(
    args: &Args,
    stream: &Stream,
    trace: &mut Trace,
    out: &mut Outcome,
    msm: MsmMechanism,
) -> Result<(), String> {
    let dir = |name: &str| {
        let d = args.work.join(name);
        let _ = std::fs::remove_dir_all(&d);
        d
    };
    let config = LedgerConfig {
        cap_per_user: CAP,
        epoch: 0,
        compact_after: 64,
    };

    // Journal: append + fdatasync, compacting every 64 records as the ledger does.
    let (mut journal, _) = Journal::open(&dir("journal"), 0).map_err(|e| e.to_string())?;
    let mut rec = trace.recorder();
    let mut state = BTreeMap::new();
    let mut compactions = 0u64;
    for i in 0..LAYER_REQUESTS {
        let (user, _) = stream.get(i);
        rec.time("journal.append", None, i, || journal.append(user, EPS))
            .map_err(|e| e.to_string())?;
        *state.entry(user).or_insert(0.0) += EPS;
        if journal.records_since_snapshot() >= config.compact_after {
            rec.time("journal.snapshot", None, i, || journal.snapshot(&state))
                .map_err(|e| e.to_string())?;
            compactions += 1;
        }
    }
    trace.merge(rec);
    out.set("journal.compactions", compactions as f64);

    // Ledger: one SpendLedger, one caller.
    let mut ledger = SpendLedger::open(&dir("ledger"), config).map_err(|e| e.to_string())?;
    let mut rec = trace.recorder();
    for i in 0..LAYER_REQUESTS {
        let (user, _) = stream.get(i);
        timed_spend(&mut rec, i, "ledger.try_spend", "ledger.refuse", || {
            ledger.try_spend(user, EPS)
        })?;
    }
    trace.merge(rec);

    // Shard: the four-shard ledger with one caller, then two.
    let one = ShardedLedger::open(&dir("shard1"), config, SHARDS);
    callers(trace, 1, stream, |i, user, _, rec| {
        timed_spend(rec, i, "shard.try_spend.1", "shard.refuse.1", || {
            one.try_spend(user, EPS)
        })
    })?;
    let two = ShardedLedger::open(&dir("shard2"), config, SHARDS);
    callers(trace, WORKERS, stream, |i, user, _, rec| {
        timed_spend(rec, i, "shard.try_spend", "shard.refuse", || {
            two.try_spend(user, EPS)
        })
    })?;

    // Sampling: the server's batch shape through the in-process ladder.
    let ladder = ResilientMechanism::new(msm);
    let points: Vec<Point> = (0..LAYER_REQUESTS).map(|i| stream.get(i).1).collect();
    let mut rec = trace.recorder();
    let mut rng = SeededRng::from_seed(args.seed);
    let mut reports = 0u64;
    for (k, chunk) in points.chunks(8).enumerate() {
        let outs = rec.time("resilient.report_many", None, k as u64, || {
            ladder.report_many(chunk, &mut rng)
        });
        reports += outs.len() as u64;
        if outs.iter().any(|(_, t)| *t != Tier::Optimal) {
            return Err("in-process sampling left tier 0".into());
        }
    }
    trace.merge(rec);
    let busy: f64 = trace.durations_us("resilient.report_many").iter().sum();
    out.set("resilient.report_many_ns", busy * 1e3 / reports as f64);
    out.set(
        "resilient.tier0_flat_frac",
        ladder.sampled_flat() as f64 / reports as f64,
    );

    // Server: Server::submit until the response arrives, two callers.
    let clock: Arc<dyn Clock> = Arc::new(SystemClock);
    while clock.now_nanos() == 0 {
        std::thread::yield_now();
    }
    let server = Server::start(
        ladder,
        ShardedLedger::open(&dir("server"), config, SHARDS),
        clock,
        ServeConfig {
            workers: WORKERS,
            queue_capacity: 64,
            seed: args.seed,
            batch: 8,
        },
    );
    let submitted = callers(trace, WORKERS, stream, |i, user, point, rec| {
        let t0 = rec.now();
        let rx = server
            .submit(Request {
                user,
                point,
                deadline_nanos: None,
            })
            .map_err(|e| format!("submit {i}: {e}"))?;
        match rx.recv() {
            Ok(Response::Served { .. } | Response::BudgetExhausted { .. }) => {
                rec.record("server.submit", t0, rec.now(), None, i);
                Ok(())
            }
            Ok(other) => Err(format!("in-process request {i}: {other:?}")),
            Err(_) => Err(format!("in-process request {i} got no response")),
        }
    });
    let drained = server.shutdown();
    submitted?;
    drained
        .checkpoint
        .map_err(|e| format!("in-process checkpoint: {e}"))?;

    let q = |name: &str, p: f64| trace.quantile_us(name, p);
    out.set("journal.append_us.p50", q("journal.append", 0.5));
    out.set("journal.append_us.p99", q("journal.append", 0.99));
    out.set("ledger.try_spend_us.p50", q("ledger.try_spend", 0.5));
    out.set("ledger.try_spend_us.p99", q("ledger.try_spend", 0.99));
    out.set("ledger.refuse_us.p50", q("ledger.refuse", 0.5));
    out.set("shard.try_spend_us.p50", q("shard.try_spend", 0.5));
    out.set("shard.try_spend_us.p99", q("shard.try_spend", 0.99));
    out.set(
        "shard.lock_wait_us.p50",
        q("shard.try_spend", 0.5) - q("shard.try_spend.1", 0.5),
    );
    out.set("server.submit_us.p50", q("server.submit", 0.5));
    out.set("server.submit_us.p99", q("server.submit", 0.99));
    out.set(
        "wire.self_us.p50",
        q("wire.exchange", 0.5) - q("server.submit", 0.5),
    );
    Ok(())
}

/// `Applier::handle` on the batches the relay saw, replayed in order into
/// a fresh four-shard ledger.
fn replay_apply(
    dir: &Path,
    bodies: &[Vec<u8>],
    trace: &mut Trace,
    out: &mut Outcome,
) -> Result<(), String> {
    let _ = std::fs::remove_dir_all(dir);
    let ledger = ShardedLedger::open(
        dir,
        LedgerConfig {
            cap_per_user: CAP,
            epoch: 0,
            compact_after: 64,
        },
        SHARDS,
    );
    let applier = Applier::new(&ledger, true);
    let mut rec = trace.recorder();
    let mut nacks = 0;
    for (k, body) in bodies.iter().enumerate() {
        let ack = rec.time("replica.apply", None, k as u64, || {
            applier.handle(&ledger, body)
        });
        if !ack.contains("\"ok\":true") {
            nacks += 1;
        }
    }
    trace.merge(rec);
    out.check(
        format!(
            "{} replayed replication batches all acked ({nacks} nacks)",
            bodies.len()
        ),
        nacks == 0,
    );
    out.set(
        "replica.apply_us.p50",
        trace.quantile_us("replica.apply", 0.5),
    );
    Ok(())
}

/// Print the layer self times along the request path next to the
/// untraced end-to-end p50, with the unattributed remainder.
fn path_table(out: &mut Outcome, trace: &Trace, p50_ms: f64) {
    let q = |name: &str| trace.quantile_us(name, 0.5);
    let get = |k: &str| out.metrics.get(k).copied().unwrap_or(0.0);
    let sampling = get("resilient.report_many_ns") * 8.0 / 1e3;
    let rows = [
        ("journal.append (write + fdatasync)", q("journal.append")),
        (
            "ledger self (try_spend - journal)",
            q("ledger.try_spend") - q("journal.append"),
        ),
        (
            "shard self, 2 callers (try_spend - ledger)",
            q("shard.try_spend") - q("ledger.try_spend"),
        ),
        ("sampling (one report_many call of 8)", sampling),
        (
            "server self (submit - shard - sampling)",
            q("server.submit") - q("shard.try_spend") - sampling,
        ),
        ("wire self (exchange - submit)", get("wire.self_us.p50")),
    ];
    let attributed: f64 = rows.iter().map(|r| r.1).sum();
    let unattributed = p50_ms * 1e3 - attributed;
    eprintln!("# request path at p50 (us; each row is a difference of medians, so rows need not add exactly):");
    for (name, us) in &rows {
        eprintln!("#   {name:<46} {us:>9.1}");
    }
    eprintln!("#   {:<46} {unattributed:>9.1}", "unattributed remainder");
    eprintln!(
        "#   {:<46} {:>9.1}",
        "end-to-end p50_ms (untraced half)",
        p50_ms * 1e3
    );
    eprintln!(
        "# with a warm standby: replica (replicated - unreplicated spend) {:.1} us, \
         replicated exchange p50 {:.1} us",
        get("replica.try_spend_us.p50"),
        q("replica.exchange")
    );
    out.set("path.unattributed_us", unattributed);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_replays_a_seeded_permutation_of_the_check_ins() {
        let (a, b) = (Stream::new(3), Stream::new(3));
        let data = inproc::city(3).generate();
        let len = data.len() as u64;
        for i in [0, 1, 1_999, 123_456, len - 1] {
            assert_eq!(a.get(i), b.get(i));
            assert_eq!(a.get(i), a.get(i + len), "the stream cycles");
            let (_, p) = a.get(i);
            assert!((0.0..20.0).contains(&p.x) && (0.0..20.0).contains(&p.y));
        }
        assert_ne!(Stream::new(4).get(7), a.get(7));
        // Every check-in is replayed exactly once per cycle, with its user.
        let key = |(u, p): (u64, Point)| (u, p.x.to_bits(), p.y.to_bits());
        let mut replayed: Vec<_> = (0..len).map(|i| key(a.get(i))).collect();
        let mut original: Vec<_> = data
            .checkins()
            .iter()
            .map(|c| key((c.user, c.location)))
            .collect();
        replayed.sort_unstable();
        original.sort_unstable();
        assert_eq!(replayed, original);
    }

    #[test]
    fn segments_are_windows_and_appended_loads_follow_on() {
        let mut a = Load {
            samples: vec![(0, 1.0, 1.0), (0, 3.0, 0.0), (1, 2.0, 1.0)],
            segment_s: vec![0.5, 0.25],
            segment_ref: vec![9.0, 8.0],
            served: 2,
            refused: 1,
            ..Load::default()
        };
        let b = Load {
            samples: vec![(0, 4.0, 1.0)],
            segment_s: vec![2.0],
            segment_ref: vec![7.0],
            served: 1,
            ..Load::default()
        };
        a.append(b);
        assert_eq!(a.total(), 4);
        assert_eq!(a.busy_s(), 2.75);
        assert_eq!(a.segment_ref, [9.0, 8.0, 7.0]);
        let w = a.windows();
        assert_eq!(w.len(), 3);
        // Segment 0: two requests, one served, in 0.5 s.
        assert_eq!(
            (w[0].count / w[0].secs, w[0].weight / w[0].secs),
            (4.0, 2.0)
        );
        assert_eq!(w[0].p50, 2.0);
        assert_eq!((w[1].count, w[1].secs), (1.0, 0.25));
        // The appended load's segment 0 is segment 2 of the whole.
        assert_eq!((w[2].p50, w[2].secs), (4.0, 2.0));
    }
}
