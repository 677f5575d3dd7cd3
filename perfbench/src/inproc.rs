//! The in-process workloads (`precompute`, `protect-batch`) and the
//! library-path helpers the serve workload shares: mechanism set-up,
//! bundle build, exact expected loss, and batched sampling.

use crate::reference::{self, LocalSpeed, Reference};
use crate::stats;
use crate::trace::{Recorder, Trace};
use crate::{nproc, peak_rss_mb, Args, Outcome};
use geoind_core::alloc::AllocationStrategy;
use geoind_core::certify::Verdict;
use geoind_core::msm::MsmMechanism;
use geoind_core::resilient::{ResilientMechanism, Tier};
use geoind_data::checkin::Dataset;
use geoind_data::prior::GridPrior;
use geoind_data::synth::SyntheticCity;
use geoind_rng::{Rng, SeededRng};
use geoind_spatial::geom::Point;
use std::path::Path;
use std::time::Instant;

/// A mechanism configuration, as `geoind precompute`/`serve` build it.
#[derive(Clone, Copy)]
pub struct Config {
    pub eps: f64,
    pub g: u32,
    pub rho: f64,
    /// `None`: Algorithm 2 picks the height (the CLI default).
    pub fixed_height: Option<u32>,
    /// Check-ins and users of the synthetic city.
    pub size: (usize, usize),
    /// Use `BENCH_sample`'s deterministic skewed prior instead of the
    /// check-in histogram (see [`skewed_prior`]).
    pub skewed_prior: bool,
}

impl Config {
    /// Prior resolution: the CLI's `g³` clamped to `[g², 64]`.
    fn prior_g(&self) -> u32 {
        self.g.pow(3).clamp(self.g * self.g, 64)
    }
}

/// The workload seed, mixed into the synthetic city's generator seed
/// (seed 0 must not collapse onto a trivial stream).
pub fn city(seed: u64) -> SyntheticCity {
    SyntheticCity::austin_like()
        .with_seed(0x9E37_79B9_7F4A_7C15 ^ seed.wrapping_mul(0xA24B_AED4_963E_E407))
}

/// `bench_sample`'s mildly non-uniform, strictly positive prior on a
/// `g × g` grid over the dataset's domain. `protect-batch` uses it
/// because the height-3 tree over the check-in histogram does not
/// precompute: a per-node OPT LP reports "infeasible" (see
/// `perfbench/README.md`, findings).
fn skewed_prior(data: &Dataset, g: u32) -> GridPrior {
    let cells = (g * g) as usize;
    let weights = (0..cells)
        .map(|i| 1.0 + ((i * 37) % 101) as f64 / 25.0)
        .collect();
    GridPrior::from_weights(geoind_spatial::grid::Grid::new(data.domain(), g), weights)
}

/// Dataset, prior (span `data.prior`) and the Algorithm-2 build (span
/// `alloc.build`) under `parent`.
pub fn build(
    city: &SyntheticCity,
    cfg: &Config,
    rec: &mut Recorder,
    parent: Option<usize>,
    req: u64,
) -> Result<(Dataset, GridPrior, MsmMechanism), String> {
    let (data, prior) = rec.time("data.prior", parent, req, || {
        let data = city.generate_with_size(cfg.size.0, cfg.size.1);
        let prior = if cfg.skewed_prior {
            skewed_prior(&data, cfg.prior_g())
        } else {
            GridPrior::from_dataset(&data, cfg.prior_g())
        };
        (data, prior)
    });
    let msm = rec.time("alloc.build", parent, req, || rebuild(&data, &prior, cfg))?;
    Ok((data, prior, msm))
}

/// The mechanism of `cfg` over an already-built prior.
pub fn rebuild(data: &Dataset, prior: &GridPrior, cfg: &Config) -> Result<MsmMechanism, String> {
    let mut b = MsmMechanism::builder(data.domain(), prior.clone())
        .epsilon(cfg.eps)
        .granularity(cfg.g)
        .rho(cfg.rho);
    if let Some(h) = cfg.fixed_height {
        b = b.strategy(AllocationStrategy::FixedHeight(h));
    }
    b.build()
        .map_err(|e| format!("building the mechanism: {e}"))
}

/// A certified, flattened, exported and durably written bundle.
pub struct Bundle {
    pub nodes: usize,
    pub blob: Vec<u8>,
    pub secs: f64,
}

/// `precompute_jobs` (jobs = nproc) → `flatten` → `export_cache` → atomic
/// write, each a child span of one `bundle` span.
pub fn build_bundle(
    msm: &MsmMechanism,
    path: &Path,
    rec: &mut Recorder,
    parent: Option<usize>,
    req: u64,
) -> Result<Bundle, String> {
    let start = Instant::now();
    let root = rec.open("bundle", parent, req);
    let nodes = rec
        .time("msm.precompute", root, req, || {
            msm.precompute_jobs(100_000, nproc())
        })
        .map_err(|e| format!("precompute: {e}"))?;
    rec.time("msm.flatten", root, req, || msm.flatten())
        .map_err(|e| format!("flatten: {e}"))?;
    let mut blob = Vec::new();
    rec.time("offline.export", root, req, || msm.export_cache(&mut blob))
        .map_err(|e| format!("export: {e}"))?;
    rec.time("offline.write", root, req, || {
        geoind_serve::atomic_write(path, &blob)
    })
    .map_err(|e| format!("writing {}: {e}", path.display()))?;
    rec.close(root);
    Ok(Bundle {
        nodes,
        blob,
        secs: start.elapsed().as_secs_f64(),
    })
}

/// Exact expected loss (km) of `x`: Σ_z P(z|x)·d(x, z) over leaf centers.
fn exact_point_loss(msm: &MsmMechanism, centers: &[Point], x: Point) -> f64 {
    msm.exact_output_distribution(x)
        .iter()
        .zip(centers)
        .map(|(p, c)| p * x.dist(*c))
        .sum()
}

/// Prior-weighted exact expected loss (km) over the prior's cell centers.
pub fn exact_loss(msm: &MsmMechanism, prior: &GridPrior) -> f64 {
    let centers = msm.leaf_grid().centers();
    let grid = prior.grid();
    prior
        .probs()
        .iter()
        .enumerate()
        .filter(|(_, &p)| p > 0.0)
        .map(|(c, &p)| p * exact_point_loss(msm, &centers, grid.center_of(c)))
        .sum()
}

/// Record per-layer counts of a mechanism that has run its precompute.
pub fn solve_counts(out: &mut Outcome, msm: &MsmMechanism) {
    let mut totals = [0u64; 4];
    for (_, s) in msm.level_solve_stats() {
        totals[0] += s.solves;
        totals[1] += s.cut_rounds;
        totals[2] += s.rows_active;
        totals[3] += s.rows_total;
    }
    out.set("lp.pivots", msm.lp_pivot_count() as f64);
    out.set("opt.solves", totals[0] as f64);
    out.set("opt.cut_rounds", totals[1] as f64);
    out.set("opt.rows_active", totals[2] as f64);
    out.set("opt.rows_total", totals[3] as f64);
    out.set("msm.dedup_suppressed", msm.dedup_suppressed() as f64);
    let (primal, dual) = msm.lp_residual_watermark();
    out.set("lp.residual_max", primal.max(dual));
    let gg = (msm.granularity() * msm.granularity()) as f64;
    // Computed, not measured: fused nodes × g⁴ slots × (f64 prob + u32 alias).
    let internal = msm.cached_channels() as f64;
    out.set("flat.tree_bytes", internal * gg * gg * 12.0);
}

/// Batched sampling through the degradation ladder.
pub struct Sampling {
    pub reports: u64,
    pub wall_s: f64,
    /// Untraced calls, summarized per window (latency ms, reports, busy
    /// seconds), each call's time scaled to the nominal host speed.
    pub windows: Vec<stats::WindowSummary>,
    /// The same, as measured.
    pub raw_windows: Vec<stats::WindowSummary>,
    /// The reference's rate over the run (walks/s).
    pub reference_rate: f64,
    pub calls: u64,
    /// Reports and busy seconds of traced / untraced calls (their rates
    /// differ by the tracing overhead).
    pub traced: (u64, f64),
    pub untraced: (u64, f64),
    pub loss_sum: f64,
    pub non_optimal: u64,
    pub sampled_flat: u64,
}

/// Call `report_many` on consecutive `batch`-sized slices of `points`
/// (cycling) for `seconds`, on one thread: two threads sharing one
/// mechanism sanitize fewer points per second than one on this box (see
/// README, findings). After each call the reference kernel walks the
/// call's first [`reference::POINTS_PER_CALL`] points, timed apart, and
/// the call's time is scaled by the reference's recent rate. With tracing
/// on, one call in [`TRACE_EVERY`] is a `resilient.report_many` span.
pub fn sample(
    ladder: &ResilientMechanism,
    points: &[Point],
    batch: usize,
    seconds: f64,
    seed: u64,
    trace: &mut Trace,
) -> Sampling {
    let mut rec = trace.recorder();
    let mut rng = SeededRng::from_seed(seed);
    let flat_before = ladder.sampled_flat();
    let mut s = Sampling {
        reports: 0,
        wall_s: 0.0,
        windows: Vec::new(),
        raw_windows: Vec::new(),
        reference_rate: 0.0,
        calls: 0,
        traced: (0, 0.0),
        untraced: (0, 0.0),
        loss_sum: 0.0,
        non_optimal: 0,
        sampled_flat: 0,
    };
    let mut scratch = Vec::with_capacity(batch);
    let mut cursor = 0usize;
    let mut call = 0u64;
    let mut acc = stats::WindowAcc::new(SAMPLING_WINDOW_NS);
    let mut raw = stats::WindowAcc::new(SAMPLING_WINDOW_NS);
    let mut walk = Reference::new(points);
    let mut speed = LocalSpeed::new();
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < seconds {
        scratch.clear();
        for _ in 0..batch {
            scratch.push(points[cursor]);
            cursor = (cursor + 1) % points.len();
        }
        let traced = rec.enabled() && call % TRACE_EVERY == 1;
        let t0 = Instant::now();
        let outs = if traced {
            rec.time("resilient.report_many", None, call, || {
                ladder.report_many(&scratch, &mut rng)
            })
        } else {
            ladder.report_many(&scratch, &mut rng)
        };
        let dt = t0.elapsed().as_secs_f64();
        let n = outs.len() as u64;
        let t1 = Instant::now();
        let walks = walk.run(&scratch[..reference::POINTS_PER_CALL.min(scratch.len())]);
        speed.push(walks as f64, t1.elapsed().as_secs_f64());
        if traced {
            s.traced = (s.traced.0 + n, s.traced.1 + dt);
        } else {
            s.untraced = (s.untraced.0 + n, s.untraced.1 + dt);
            let (t, ms) = (start.elapsed().as_nanos() as u64, dt * 1e3);
            let k = speed.scale(reference::NOMINAL_WALKS_PER_S);
            acc.push(t, ms * k, n as f64);
            raw.push(t, ms, n as f64);
            s.calls += 1;
        }
        for ((z, tier), x) in outs.iter().zip(&scratch) {
            s.loss_sum += x.dist(*z);
            if *tier != Tier::Optimal {
                s.non_optimal += 1;
            }
        }
        s.reports += n;
        call += 1;
    }
    s.wall_s = start.elapsed().as_secs_f64();
    s.windows = acc.finish();
    s.raw_windows = raw.finish();
    s.reference_rate = speed.overall();
    s.sampled_flat = ladder.sampled_flat() - flat_before;
    trace.merge(rec);
    s
}

/// Sampling window for the end-to-end medians.
const SAMPLING_WINDOW_NS: u64 = 500_000_000;

/// Points per `report_many` call: the bulk shape of `BENCH_sample`
/// (`bench_sample`'s default batch).
pub const BATCH: usize = 256;

/// In the traced run, one `report_many` call in this many is a span: the
/// traced and untraced calls of one run give the tracing overhead, and
/// the trace stays ~100k spans.
const TRACE_EVERY: u64 = 16;

/// Report the sampling metrics of `s` (end to end and per layer): rates
/// (over `report_many` busy time) and latency percentiles are medians over
/// 0.5 s windows of call times normalized to the nominal host speed (see
/// [`reference`]).
fn sampling_metrics(out: &mut Outcome, s: &Sampling) {
    let (windows, raw) = (&s.windows, &s.raw_windows);
    let reports_per_s = stats::median_of(windows, |w| w.weight / w.secs);
    let p50 = stats::median_of(windows, |w| w.p50);
    let p99 = stats::median_of(windows, |w| w.p99);
    out.set("reports_per_s", reports_per_s);
    out.set("report_loss_km", s.loss_sum / s.reports as f64);
    out.set("req_per_s", stats::median_of(windows, |w| w.count / w.secs));
    out.set("p50_ms", p50);
    out.set("p99_ms", p99);
    out.set("e2e.latency_samples", s.calls as f64);
    out.set(
        "resilient.tier0_flat_frac",
        s.sampled_flat as f64 / s.reports as f64,
    );
    if s.traced.0 > 0 {
        out.set(
            "resilient.report_many_ns",
            s.traced.1 * 1e9 / s.traced.0 as f64,
        );
        let rate = |(n, t): (u64, f64)| n as f64 / t;
        out.set(
            "trace.reports_per_s_delta",
            rate(s.traced) - rate(s.untraced),
        );
    }
    eprintln!(
        "# sampling: {} reports in {:.2}s, {} untraced calls of {BATCH} in {} windows: \
         {reports_per_s:.0} reports/s, p50 {p50:.4} ms, p99 {p99:.4} ms (normalized window \
         medians); as measured {:.0} reports/s, p50 {:.4} ms, p99 {:.4} ms; reference {:.3}M \
         walks/s (nominal {:.1}M)",
        s.reports,
        s.wall_s,
        s.calls,
        s.windows.len(),
        stats::median_of(raw, |w| w.weight / w.secs),
        stats::median_of(raw, |w| w.p50),
        stats::median_of(raw, |w| w.p99),
        s.reference_rate / 1e6,
        reference::NOMINAL_WALKS_PER_S / 1e6,
    );
    let per_window = |ws: &[stats::WindowSummary]| -> String {
        ws.iter()
            .map(|w| format!("{:.2}", w.weight / w.secs / 1e6))
            .collect::<Vec<_>>()
            .join(" ")
    };
    eprintln!(
        "#   M reports/s per window, as measured: {}",
        per_window(raw)
    );
    eprintln!(
        "#   M reports/s per window, normalized:  {}",
        per_window(windows)
    );
}

/// The statistical utility check: on a seeded subsample of `points`, the
/// mean sampled loss must agree with the mean exact expected loss within
/// five standard errors of their paired difference.
fn loss_check(out: &mut Outcome, ladder: &ResilientMechanism, points: &[Point], seed: u64) {
    const M: usize = 2000;
    let mut rng = SeededRng::from_seed(seed ^ 0x10_55);
    let sub: Vec<Point> = (0..M)
        .map(|_| points[rng.gen_range(0..points.len())])
        .collect();
    let centers = ladder.msm().leaf_grid().centers();
    let draws = ladder.report_many(&sub, &mut rng);
    let diffs: Vec<f64> = sub
        .iter()
        .zip(&draws)
        .map(|(x, (z, _))| x.dist(*z) - exact_point_loss(ladder.msm(), &centers, *x))
        .collect();
    let se = stats::std_dev(&diffs) / (M as f64).sqrt();
    let z = stats::mean(&diffs) / se.max(1e-12);
    out.check(
        format!(
            "sampled loss matches exact expected loss on {M} seeded points (z = {z:.2}, |z| <= 5)"
        ),
        z.abs() <= 5.0,
    );
}

struct Built {
    data: Dataset,
    prior: GridPrior,
    msm: MsmMechanism,
    bundle: Bundle,
}

/// `reps` fresh set-ups, each with its bundle (inside the timed set-up
/// when `bundle_in_setup`). The untraced reps give the end-to-end
/// `setup_s`/`bundle_s` samples; in trace mode rep 1 is traced, gives the
/// per-layer spans, and ends the loop (its counters go with its spans).
struct Setups {
    built: Built,
    setup_s: Vec<f64>,
    bundle_s: Vec<f64>,
    /// Traced minus median untraced bundle time (0 when untraced).
    bundle_delta: f64,
}

fn setups(
    args: &Args,
    trace: &mut Trace,
    cfg: &Config,
    reps: usize,
    bundle_in_setup: bool,
    city: &SyntheticCity,
) -> Result<Setups, String> {
    let (mut setup_s, mut bundle_s) = (Vec::new(), Vec::new());
    let path = args.work.join("bundle.bin");
    for rep in 0..reps {
        let traced = trace.enabled() && rep == 1;
        let mut rec = if traced {
            trace.recorder()
        } else {
            Trace::new(false).recorder()
        };
        let req = rep as u64;
        let start = Instant::now();
        let root = rec.open("setup", None, req);
        let (data, prior, msm) = build(city, cfg, &mut rec, root, req)?;
        let early = if bundle_in_setup {
            Some(build_bundle(&msm, &path, &mut rec, root, req)?)
        } else {
            None
        };
        rec.close(root);
        let secs = start.elapsed().as_secs_f64();
        let bundle = match early {
            Some(b) => b,
            None => build_bundle(&msm, &path, &mut rec, None, req)?,
        };
        eprintln!(
            "# rep {rep}{}: setup {secs:.3}s, bundle {:.3}s ({} nodes, {} bytes)",
            if traced { " (traced)" } else { "" },
            bundle.secs,
            bundle.nodes,
            bundle.blob.len()
        );
        let built = Built {
            data,
            prior,
            msm,
            bundle,
        };
        if traced {
            trace.merge(rec);
            let bundle_delta = built.bundle.secs - stats::median(&bundle_s);
            eprintln!("# tracing overhead on bundle_s: {bundle_delta:+.4}s");
            return Ok(Setups {
                built,
                setup_s,
                bundle_s,
                bundle_delta,
            });
        }
        setup_s.push(secs);
        bundle_s.push(built.bundle.secs);
        if rep + 1 == reps {
            return Ok(Setups {
                built,
                setup_s,
                bundle_s,
                bundle_delta: 0.0,
            });
        }
    }
    Err("no set-up ran".into())
}

/// Per-layer set-up and bundle metrics of the in-process workloads.
pub fn layer_metrics(
    out: &mut Outcome,
    trace: &Trace,
    msm: &MsmMechanism,
    bundle_bytes: usize,
    delta: f64,
) {
    solve_counts(out, msm);
    for (metric, span) in [
        ("data.prior_s", "data.prior"),
        ("alloc.build_s", "alloc.build"),
        ("msm.precompute_s", "msm.precompute"),
        ("msm.flatten_s", "msm.flatten"),
        ("offline.export_s", "offline.export"),
        ("certify.recertify_s", "certify.recertify"),
    ] {
        out.set(metric, trace.self_s(span));
    }
    out.set("offline.bundle_bytes", bundle_bytes as f64);
    out.set("trace.bundle_s_delta", delta);
}

/// The bundle checks `geoind doctor` applies: it imports into a fresh
/// mechanism with zero quarantines, every channel re-certifies, the alias
/// tables match their matrices, and the LP residual watermark is ≤ 1e-6.
/// Returns the imported (and flattened) mechanism and the failures.
fn bundle_checks(
    out: &mut Outcome,
    built: &Built,
    cfg: &Config,
    rec: &mut Recorder,
) -> Result<(MsmMechanism, u64), String> {
    let fresh = rebuild(&built.data, &built.prior, cfg)?;
    let report = fresh
        .import_cache(&mut built.bundle.blob.as_slice())
        .map_err(|e| format!("importing the bundle: {e}"))?;
    let quarantined = report.quarantined.len() as u64;
    out.check(
        format!(
            "bundle imports {} of {} channels with 0 quarantines (got {quarantined})",
            report.loaded, built.bundle.nodes
        ),
        quarantined == 0 && report.loaded == built.bundle.nodes,
    );
    let certs = rec.time("certify.recertify", None, 0, || fresh.recertify_cache());
    let recert_failed = certs
        .iter()
        .filter(|(_, c)| c.verdict == Verdict::Quarantined)
        .count() as u64;
    out.check(
        format!(
            "every imported channel re-certifies ({recert_failed} of {} quarantined)",
            certs.len()
        ),
        recert_failed == 0 && certs.len() == built.bundle.nodes,
    );
    let audit = fresh.audit_flat_tables();
    out.check(
        format!(
            "alias tables match their certified matrices ({} drifted)",
            audit.failures.len()
        ),
        audit.failures.is_empty(),
    );
    let (primal, dual) = built.msm.lp_residual_watermark();
    let residual_ok = primal <= 1e-6 && dual <= 1e-6;
    out.check(
        format!("LP residual watermark {:.2e} <= 1e-6", primal.max(dual)),
        residual_ok,
    );
    fresh
        .flatten()
        .map_err(|e| format!("flattening the imported bundle: {e}"))?;
    let failed =
        quarantined + recert_failed + audit.failures.len() as u64 + u64::from(!residual_ok);
    Ok((fresh, failed))
}

/// `precompute`: the g=5, ε=0.9, ρ=0.8 bundle (Algorithm 2 → height 2,
/// 26 nodes of 25-location LPs), then the imported bundle sanitizing
/// seeded check-ins for `--seconds`.
pub fn precompute(args: &Args) -> Result<Outcome, String> {
    let cfg = Config {
        eps: 0.9,
        g: 5,
        rho: 0.8,
        fixed_height: None,
        size: (80_000, 8_000),
        skewed_prior: false,
    };
    let mut out = Outcome::default();
    let mut trace = Trace::new(args.trace);
    // Set-up is cheap here: time it many times, half before the bundle
    // and half after the probe, and report the median.
    let mut setup_s = Vec::new();
    let mut time_setups = |reps: u64| -> Result<(), String> {
        for rep in 0..reps {
            let mut rec = Trace::new(false).recorder();
            let start = Instant::now();
            build(&SyntheticCity::austin_like(), &cfg, &mut rec, None, rep)?;
            setup_s.push(start.elapsed().as_secs_f64());
        }
        Ok(())
    };
    time_setups(13)?;
    let reps = if args.trace { 2 } else { 1 };
    let Setups {
        built,
        bundle_s,
        bundle_delta,
        ..
    } = setups(
        args,
        &mut trace,
        &cfg,
        reps,
        false,
        &SyntheticCity::austin_like(),
    )?;
    out.set("bundle_s", stats::median(&bundle_s));
    eprintln!(
        "# precompute: height {}, {} nodes, bundle {:.3}s",
        built.msm.height(),
        built.bundle.nodes,
        stats::median(&bundle_s)
    );
    let mut rec = trace.recorder();
    let (imported, failed_nodes) = bundle_checks(&mut out, &built, &cfg, &mut rec)?;
    trace.merge(rec);
    out.set("bundle_loss_km", exact_loss(&imported, &built.prior));
    let ladder = ResilientMechanism::new(imported);
    // The bundle's prior is the CLI's fixed city (the LP work swings with
    // the prior; see README); the seed picks the points it sanitizes.
    let points: Vec<Point> = city(args.seed)
        .generate_with_size(cfg.size.0, cfg.size.1)
        .locations()
        .collect();
    // Twice `--seconds`: more windows for the median.
    let s = sample(
        &ladder,
        &points,
        BATCH,
        2.0 * args.seconds,
        args.seed,
        &mut trace,
    );
    time_setups(12)?;
    out.set("setup_s", stats::median(&setup_s));
    sampling_metrics(&mut out, &s);
    loss_check(&mut out, &ladder, &points, args.seed);
    out.check(
        format!("every probe report is tier 0 ({} not)", s.non_optimal),
        s.non_optimal == 0,
    );
    out.attempted = built.bundle.nodes as u64 + s.reports;
    out.failed = failed_nodes + s.non_optimal;
    layer_metrics(
        &mut out,
        &trace,
        &built.msm,
        built.bundle.blob.len(),
        bundle_delta,
    );
    finish(&mut out, &trace, args);
    Ok(out)
}

/// `protect-batch`: bulk sanitization of an Austin-scale dump through
/// `report_many` on the flattened g=4, height-3 tree (273 nodes).
pub fn protect_batch(args: &Args) -> Result<Outcome, String> {
    let cfg = Config {
        eps: 0.5,
        g: 4,
        rho: 0.8,
        fixed_height: Some(3),
        size: (265_571, 12_155),
        skewed_prior: true,
    };
    let mut out = Outcome::default();
    let mut trace = Trace::new(args.trace);
    // Two set-ups before sampling and, untraced, two after it, so the
    // medians sample both ends of the run.
    let Setups {
        built,
        mut setup_s,
        mut bundle_s,
        bundle_delta,
    } = setups(args, &mut trace, &cfg, 2, true, &city(args.seed))?;
    let mut rec = trace.recorder();
    let certs = rec.time("certify.recertify", None, 0, || built.msm.recertify_cache());
    trace.merge(rec);
    let quarantined = certs
        .iter()
        .filter(|(_, c)| c.verdict == Verdict::Quarantined)
        .count() as u64;
    out.check(
        format!(
            "all {} admitted channels re-certify ({quarantined} quarantined)",
            certs.len()
        ),
        quarantined == 0 && certs.len() == built.bundle.nodes,
    );
    out.set("bundle_loss_km", exact_loss(&built.msm, &built.prior));
    let points: Vec<Point> = built.data.locations().collect();
    let ladder = ResilientMechanism::new(built.msm);
    let s = sample(
        &ladder,
        &points,
        BATCH,
        2.0 * args.seconds,
        args.seed,
        &mut trace,
    );
    if !args.trace {
        let after = setups(args, &mut trace, &cfg, 2, true, &city(args.seed))?;
        setup_s.extend(after.setup_s);
        bundle_s.extend(after.bundle_s);
    }
    out.set("setup_s", stats::median(&setup_s));
    out.set("bundle_s", stats::median(&bundle_s));
    sampling_metrics(&mut out, &s);
    loss_check(&mut out, &ladder, &points, args.seed);
    out.check(
        format!("every report is tier 0 ({} not)", s.non_optimal),
        s.non_optimal == 0,
    );
    out.attempted = built.bundle.nodes as u64 + s.reports;
    out.failed = quarantined + s.non_optimal;
    layer_metrics(
        &mut out,
        &trace,
        ladder.msm(),
        built.bundle.blob.len(),
        bundle_delta,
    );
    finish(&mut out, &trace, args);
    Ok(out)
}

/// Common end of every workload: failure share, memory, trace output.
pub fn finish(out: &mut Outcome, trace: &Trace, args: &Args) {
    out.set(
        "failed_frac",
        out.failed as f64 / out.attempted.max(1) as f64,
    );
    if !out.metrics.contains_key("peak_rss_mb") {
        out.set("peak_rss_mb", peak_rss_mb("self"));
    }
    if trace.enabled() {
        out.set("trace.spans", trace.len() as f64);
        out.set("trace.span_cost_ns", crate::trace::span_cost_ns(200_000));
        let path = args.work.join(format!("trace-{}.jsonl", args.workload));
        match trace.write_jsonl(&path) {
            Ok(()) => eprintln!("# trace: {} spans -> {}", trace.len(), path.display()),
            Err(e) => eprintln!("warning: writing {}: {e}", path.display()),
        }
        let mut selfs: Vec<(&str, f64)> = trace.self_seconds().into_iter().collect();
        selfs.sort_by(|a, b| b.1.total_cmp(&a.1));
        for (name, s) in selfs {
            eprintln!(
                "#   self {name:<24} {s:>10.4}s  ({} spans)",
                trace.count(name)
            );
        }
    }
}
