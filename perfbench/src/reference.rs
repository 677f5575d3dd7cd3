//! Host-speed references for the end-to-end rates and latencies.
//!
//! On a shared host the same single-threaded code runs up to ~1.5× faster
//! or slower from one stretch to the next (other tenants on the socket),
//! and the stretches outlast a run, so no in-run statistic of raw rates
//! holds still over a set of runs. The sampling loop therefore runs
//! [`Reference`] after each `report_many` call and scales the call's
//! time by the reference's recent rate ([`LocalSpeed`]): the ratio of the
//! two rates holds within about ±8% while each moves by 1.5×.
//!
//! [`Reference`] is a frozen alias-table tree walk, written here so that
//! no change to the library moves it: per point a three-level descent
//! through g=4 cells — the input row from the point's position, one
//! alias draw per level whose table load depends on the previous draw —
//! then a uniform point in the leaf cell, collected into a fresh vector,
//! over fixed pseudo-random tables the size of `protect-batch`'s flat tree
//! (273 nodes of 16 × 16 slots). Of the variants tried side by side in one
//! run (this one; a xoshiro256++ copy of `FlatTree::descend` with its two
//! draws per level, with and without the two atomic counters per report),
//! this one tracked `report_many` best: their ratio moved 0.89–1.04 over
//! 0.5 s windows while `report_many` moved 4.7–7.8M reports/s; the closer
//! copies moved more than the library code itself (ratio 0.93–1.32).
//!
//! [`ServeReference`] does the same for `serve`, whose requests spend
//! their time on the loopback wire, in two processes' CPU and in
//! `fdatasync`: a frozen loopback HTTP/1.1 server in this process, one
//! thread per keep-alive connection, that appends 32 bytes and syncs them
//! for two requests in three (about `serve`'s share of spends) and
//! answers a fixed body. The load generator runs a short burst against
//! it after every tenth of a segment.

use crate::http::{read_message, Conn};
use crate::stats::WindowSummary;
use geoind_spatial::geom::Point;
use std::io::Write;
use std::net::TcpListener;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::thread::JoinHandle;
use std::time::Instant;

/// Reference walks per second taken as the nominal host speed: about the
/// reference's rate on an Intel Xeon (Sapphire Rapids) KVM guest with 2
/// vCPUs in its faster stretches. A window in which the reference ran at
/// this rate is reported as measured.
pub const NOMINAL_WALKS_PER_S: f64 = 8.0e6;

/// [`ServeReference`] exchanges per second taken as the nominal host
/// speed: about its rate on the same box and disk in their faster
/// stretches.
pub const NOMINAL_EXCHANGES_PER_S: f64 = 14_000.0;

/// Points of the reference walk run after each `report_many` call.
pub const POINTS_PER_CALL: usize = 64;

/// Reference runs a [`LocalSpeed`] averages over: the last 16, about a
/// millisecond of sampling, short against the host's changes of speed
/// (a 0.5 s window often holds two speeds, and the median of a mixed
/// window's calls jumps between them where a window-wide rate does not).
const RECENT_RUNS: usize = 16;

const G: usize = 4;
const CELLS: usize = G * G;
const NODES: usize = 1 + CELLS + CELLS * CELLS;

/// The reference kernel: fixed tables, a SplitMix64 stream and the
/// bounding square of the points it walks.
pub struct Reference {
    prob: Vec<f64>,
    alias: Vec<u32>,
    state: u64,
    origin: Point,
    side: f64,
}

impl Reference {
    /// A reference over the bounding square of `points`.
    pub fn new(points: &[Point]) -> Self {
        let (mut lo, mut hi) = (
            Point::new(f64::MAX, f64::MAX),
            Point::new(f64::MIN, f64::MIN),
        );
        for p in points {
            lo = Point::new(lo.x.min(p.x), lo.y.min(p.y));
            hi = Point::new(hi.x.max(p.x), hi.y.max(p.y));
        }
        let n = NODES * CELLS * CELLS;
        Self {
            prob: (0..n)
                .map(|i| ((i as u64 * 2_654_435_761) % 1000) as f64 / 1000.0)
                .collect(),
            alias: (0..n).map(|i| ((i * 40_503) % CELLS) as u32).collect(),
            state: 0x5EED,
            origin: lo,
            side: (hi.x - lo.x).max(hi.y - lo.y).max(1e-9),
        }
    }

    /// Walk every point of `points`; returns the number of outputs.
    pub fn run(&mut self, points: &[Point]) -> usize {
        let out: Vec<Point> = points.iter().map(|&p| self.walk(p)).collect();
        std::hint::black_box(&out).len()
    }

    fn walk(&mut self, p: Point) -> Point {
        let mut state = self.state;
        // Uniform in [0, 1) from SplitMix64.
        let mut uniform = || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            (z >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
        };
        // Position in the unit square, and the current cell's corner and
        // side in it.
        let mut u = ((p.x - self.origin.x) / self.side).clamp(0.0, 1.0);
        let mut v = ((p.y - self.origin.y) / self.side).clamp(0.0, 1.0);
        let (mut lo_u, mut lo_v, mut side) = (0.0f64, 0.0f64, 1.0f64);
        let mut node = 0usize;
        for level in 0..3 {
            let cx = (((u - lo_u) / side * G as f64) as usize).min(G - 1);
            let cy = (((v - lo_v) / side * G as f64) as usize).min(G - 1);
            let draw = uniform() * CELLS as f64;
            let slot = draw as usize;
            let i = (node * CELLS + cy * G + cx) * CELLS + slot;
            let z = if draw - (slot as f64) < self.prob[i] {
                slot
            } else {
                self.alias[i] as usize
            };
            side /= G as f64;
            lo_u += (z % G) as f64 * side;
            lo_v += (z / G) as f64 * side;
            node = if level == 0 {
                1 + z
            } else {
                1 + CELLS + (node - 1) * CELLS + z
            };
            u = u.clamp(lo_u, lo_u + side);
            v = v.clamp(lo_v, lo_v + side);
        }
        let (a, b) = (uniform(), uniform());
        self.state = state;
        Point::new(
            self.origin.x + (lo_u + a * side) * self.side,
            self.origin.y + (lo_v + b * side) * self.side,
        )
    }
}

/// The reference's rate over its most recent runs.
pub struct LocalSpeed {
    recent: [(f64, f64); RECENT_RUNS],
    next: usize,
    total: (f64, f64),
}

impl LocalSpeed {
    pub fn new() -> Self {
        Self {
            recent: [(0.0, 0.0); RECENT_RUNS],
            next: 0,
            total: (0.0, 0.0),
        }
    }

    /// One reference run: `work` units in `secs`.
    pub fn push(&mut self, work: f64, secs: f64) {
        self.recent[self.next] = (work, secs);
        self.next = (self.next + 1) % RECENT_RUNS;
        self.total = (self.total.0 + work, self.total.1 + secs);
    }

    /// The recent rate over `nominal`: times measured now, multiplied by
    /// it, read as on a host where the reference runs at `nominal`. 1
    /// before any run.
    pub fn scale(&self, nominal: f64) -> f64 {
        let (work, secs) = self
            .recent
            .iter()
            .fold((0.0, 0.0), |(w, s), &(dw, ds)| (w + dw, s + ds));
        if work > 0.0 && secs > 0.0 {
            work / secs / nominal
        } else {
            1.0
        }
    }

    /// The rate over every run.
    pub fn overall(&self) -> f64 {
        self.total.0 / self.total.1
    }
}

/// The serve path's reference: a loopback server and `conns` keep-alive
/// connections to it.
pub struct ServeReference {
    conns: Vec<Conn>,
    handlers: Vec<JoinHandle<()>>,
}

impl ServeReference {
    /// Start the server (its sync files in `dir`) and connect to it.
    pub fn start(dir: &Path, conns: usize) -> Result<Self, String> {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
        let addr = listener
            .local_addr()
            .map_err(|e| e.to_string())?
            .to_string();
        let mut out = Self {
            conns: Vec::new(),
            handlers: Vec::new(),
        };
        for i in 0..conns {
            out.conns.push(Conn::connect(&addr)?);
            let (mut stream, _) = listener.accept().map_err(|e| e.to_string())?;
            let path = dir.join(format!("reference-{i}.log"));
            let mut log =
                std::fs::File::create(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            out.handlers.push(std::thread::spawn(move || {
                let mut buf = Vec::new();
                // Until the client hangs up.
                while let Ok((_, body)) = read_message(&mut stream, &mut buf) {
                    if body == b"spend" {
                        let synced = log.write_all(&[0u8; 32]).and_then(|()| log.sync_data());
                        if synced.is_err() {
                            break;
                        }
                    }
                    let answer = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok";
                    if stream.write_all(answer).is_err() {
                        break;
                    }
                }
            }));
        }
        Ok(out)
    }

    /// `n` exchanges, a closed loop over every connection at once, two in
    /// three of them spends; returns the seconds they took.
    pub fn burst(&mut self, n: u64) -> Result<f64, String> {
        let next = AtomicU64::new(0);
        let start = Instant::now();
        let results: Vec<Result<(), String>> = std::thread::scope(|s| {
            let handles: Vec<_> = self
                .conns
                .iter_mut()
                .map(|conn| {
                    let next = &next;
                    s.spawn(move || {
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= n {
                                break;
                            }
                            let body = if i % 3 == 0 { "query" } else { "spend" };
                            let (status, _) = conn.exchange("POST", "/", body)?;
                            if status != 200 {
                                return Err(format!("reference answered {status}"));
                            }
                        }
                        Ok(())
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|_| Err("panicked".into())))
                .collect()
        });
        let secs = start.elapsed().as_secs_f64();
        results.into_iter().collect::<Result<(), String>>()?;
        Ok(secs)
    }

    /// Hang up and wait for the server's threads to end.
    pub fn stop(self) {
        drop(self.conns);
        for h in self.handlers {
            let _ = h.join();
        }
    }
}

/// `w` as it would read on a host where the reference runs at `nominal`,
/// given the reference's rate `ref_rate` measured in the same window:
/// busy time and latencies scale by `ref_rate / nominal`; counts stay. A
/// window without reference work is returned unchanged.
pub fn normalize(w: &WindowSummary, ref_rate: f64, nominal: f64) -> WindowSummary {
    if !(ref_rate.is_finite() && ref_rate > 0.0) {
        return *w;
    }
    let k = ref_rate / nominal;
    WindowSummary {
        secs: w.secs * k,
        p50: w.p50 * k,
        p99: w.p99 * k,
        ..*w
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalize_scales_times_by_the_reference_speed() {
        let w = WindowSummary {
            count: 100.0,
            weight: 25_600.0,
            p50: 0.04,
            p99: 0.08,
            secs: 0.5,
        };
        // The reference ran at half the nominal speed: the same work
        // would have taken half as long on the nominal host.
        let n = normalize(&w, NOMINAL_WALKS_PER_S / 2.0, NOMINAL_WALKS_PER_S);
        assert_eq!((n.count, n.weight), (100.0, 25_600.0));
        assert!((n.secs - 0.25).abs() < 1e-12);
        assert!((n.p50 - 0.02).abs() < 1e-12 && (n.p99 - 0.04).abs() < 1e-12);
        assert!((n.weight / n.secs - 2.0 * w.weight / w.secs).abs() < 1e-6);
        assert_eq!(normalize(&w, 3.0, 3.0), w);
        assert_eq!(normalize(&w, f64::NAN, 3.0), w);
        assert_eq!(normalize(&w, 0.0, 3.0), w);
    }

    #[test]
    fn local_speed_follows_the_recent_runs() {
        let mut speed = LocalSpeed::new();
        assert_eq!(speed.scale(2.0), 1.0);
        speed.push(10.0, 1.0);
        assert_eq!(speed.scale(5.0), 2.0);
        // Once the slow runs fill the ring, the fast one no longer counts.
        for _ in 0..RECENT_RUNS {
            speed.push(1.0, 1.0);
        }
        assert_eq!(speed.scale(2.0), 0.5);
        assert_eq!(speed.overall(), 26.0 / 17.0);
    }

    #[test]
    fn reference_walk_is_deterministic_and_stays_in_the_box() {
        let pts: Vec<Point> = (0..500)
            .map(|i| Point::new((i % 37) as f64 * 0.5, (i % 23) as f64 * 0.8))
            .collect();
        let (mut a, mut b) = (Reference::new(&pts), Reference::new(&pts));
        let wa: Vec<Point> = pts.iter().map(|&p| a.walk(p)).collect();
        let wb: Vec<Point> = pts.iter().map(|&p| b.walk(p)).collect();
        assert_eq!(wa, wb);
        assert_eq!(a.run(&pts), 500);
        // Inside the 18 km bounding square of the points.
        for z in &wa {
            assert!((0.0..=18.0).contains(&z.x) && (0.0..=18.0).contains(&z.y));
        }
    }
}
