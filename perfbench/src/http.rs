//! Keep-alive HTTP/1.1 client for the load generator and control calls,
//! and the loopback relay that observes replication traffic.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Read one HTTP message (head + `Content-Length` body) from `stream`,
/// keeping pipelined leftovers in `buf`. Returns `(head, body)`.
pub fn read_message(
    stream: &mut TcpStream,
    buf: &mut Vec<u8>,
) -> Result<(String, Vec<u8>), String> {
    let mut chunk = [0u8; 8192];
    loop {
        if let Some(end) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            let head = String::from_utf8_lossy(&buf[..end]).to_string();
            let len = head
                .lines()
                .find_map(|l| {
                    let (k, v) = l.split_once(':')?;
                    k.eq_ignore_ascii_case("content-length")
                        .then(|| v.trim().parse::<usize>().ok())?
                })
                .unwrap_or(0);
            let total = end + 4 + len;
            while buf.len() < total {
                let n = stream
                    .read(&mut chunk)
                    .map_err(|e| format!("read body: {e}"))?;
                if n == 0 {
                    return Err("connection closed mid-body".into());
                }
                buf.extend_from_slice(&chunk[..n]);
            }
            let body = buf[end + 4..total].to_vec();
            buf.drain(..total);
            return Ok((head, body));
        }
        let n = stream
            .read(&mut chunk)
            .map_err(|e| format!("read head: {e}"))?;
        if n == 0 {
            return Err("connection closed".into());
        }
        buf.extend_from_slice(&chunk[..n]);
    }
}

/// One keep-alive connection to a `geoind serve --listen` process.
pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Conn {
    pub fn connect(addr: &str) -> Result<Self, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .map_err(|e| e.to_string())?;
        Ok(Self {
            stream,
            buf: Vec::with_capacity(1024),
        })
    }

    /// One request/response exchange; returns `(status, body)`.
    pub fn exchange(
        &mut self,
        method: &str,
        path: &str,
        body: &str,
    ) -> Result<(u16, String), String> {
        let req = format!(
            "{method} {path} HTTP/1.1\r\nHost: geoind\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        self.stream
            .write_all(req.as_bytes())
            .map_err(|e| format!("write: {e}"))?;
        let (head, body) = read_message(&mut self.stream, &mut self.buf)?;
        let status = head
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| format!("bad status line: {head}"))?;
        Ok((status, String::from_utf8_lossy(&body).to_string()))
    }
}

/// One-shot exchange on a fresh connection (control traffic).
pub fn call(addr: &str, method: &str, path: &str, body: &str) -> Result<(u16, String), String> {
    Conn::connect(addr)?.exchange(method, path, body)
}

/// Counts kept by the [`Relay`].
#[derive(Default)]
pub struct RelayStats {
    pub connects: AtomicU64,
    pub ships: AtomicU64,
    pub records: AtomicU64,
    /// Replication batch bodies, in arrival order (for in-process replay).
    pub bodies: Mutex<Vec<Vec<u8>>>,
}

/// Loopback relay between a primary's shipper and its standby: the
/// standby advertises the relay's address, so every `POST /replicate`
/// passes through here and is counted (connections, batches, records).
pub struct Relay {
    pub addr: String,
    pub stats: Arc<RelayStats>,
    stop: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
}

/// Byte offset of the record count in a replication batch body (magic 8,
/// shard 4, total 4, generation 8, epoch 8, first sequence 8).
const BATCH_COUNT_OFFSET: usize = 40;

/// Bodies kept for replay; enough for a stable median.
const KEEP_BODIES: usize = 4000;

impl Relay {
    pub fn start(target: String) -> Result<Self, String> {
        let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
        let addr = listener
            .local_addr()
            .map_err(|e| e.to_string())?
            .to_string();
        let stats = Arc::new(RelayStats::default());
        let stop = Arc::new(AtomicBool::new(false));
        let acceptor = {
            let (stats, stop) = (Arc::clone(&stats), Arc::clone(&stop));
            std::thread::spawn(move || {
                let mut handlers: Vec<JoinHandle<()>> = Vec::new();
                // A blocking accept, so the relay adds no polling delay to
                // a ship; `stop` wakes it with a connection of its own.
                for inbound in listener.incoming() {
                    if stop.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(inbound) = inbound else { break };
                    stats.connects.fetch_add(1, Ordering::Relaxed);
                    let (stats, target) = (Arc::clone(&stats), target.clone());
                    handlers.push(std::thread::spawn(move || {
                        let _ = pump(inbound, &target, &stats);
                    }));
                    let (done, running): (Vec<_>, Vec<_>) =
                        handlers.into_iter().partition(|h| h.is_finished());
                    for h in done {
                        let _ = h.join();
                    }
                    handlers = running;
                }
                for h in handlers {
                    let _ = h.join();
                }
            })
        };
        Ok(Self {
            addr,
            stats,
            stop,
            acceptor: Some(acceptor),
        })
    }

    pub fn stop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.acceptor.take() {
            let _ = TcpStream::connect(&self.addr);
            let _ = h.join();
        }
    }
}

impl Drop for Relay {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Forward exchanges from one inbound connection to the target until
/// either side closes.
fn pump(mut inbound: TcpStream, target: &str, stats: &RelayStats) -> Result<(), String> {
    inbound
        .set_read_timeout(Some(Duration::from_secs(5)))
        .map_err(|e| e.to_string())?;
    inbound.set_nodelay(true).map_err(|e| e.to_string())?;
    let mut outbound = TcpStream::connect(target).map_err(|e| e.to_string())?;
    outbound.set_nodelay(true).map_err(|e| e.to_string())?;
    outbound
        .set_read_timeout(Some(Duration::from_secs(5)))
        .map_err(|e| e.to_string())?;
    let (mut in_buf, mut out_buf) = (Vec::new(), Vec::new());
    loop {
        let Ok((head, body)) = read_message(&mut inbound, &mut in_buf) else {
            return Ok(());
        };
        if head.starts_with("POST /replicate") {
            stats.ships.fetch_add(1, Ordering::Relaxed);
            if let Some(c) = body.get(BATCH_COUNT_OFFSET..BATCH_COUNT_OFFSET + 4) {
                let n = u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
                stats.records.fetch_add(u64::from(n), Ordering::Relaxed);
            }
            let mut kept = stats.bodies.lock().expect("relay body store poisoned");
            if kept.len() < KEEP_BODIES {
                kept.push(body.clone());
            }
        }
        let mut msg = head.into_bytes();
        msg.extend_from_slice(b"\r\n\r\n");
        msg.extend_from_slice(&body);
        outbound.write_all(&msg).map_err(|e| e.to_string())?;
        let (head, body) = read_message(&mut outbound, &mut out_buf)?;
        let mut msg = head.into_bytes();
        msg.extend_from_slice(b"\r\n\r\n");
        msg.extend_from_slice(&body);
        inbound.write_all(&msg).map_err(|e| e.to_string())?;
    }
}
