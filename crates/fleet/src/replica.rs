//! One backend gateway replica: its addresses, health word, and a
//! keep-alive connection pool for the data plane.
//!
//! Pooling matters here for the same reason NODELAY does on the
//! gateway: fleet traffic is request/response lines, and a fresh TCP
//! handshake per forwarded request would double every round trip. The
//! pool is a plain LIFO stack of idle sessions — the most recently
//! used connection is the least likely to have been idle-timed-out by
//! the replica. A connection that errors mid-exchange is dropped, never
//! returned; the replica's accept loop hands out fresh ones cheaply.

use std::collections::VecDeque;
use std::io::{BufRead, BufReader};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// Idle sessions kept per replica; excess check-ins are simply closed.
const POOL_CAP: usize = 16;

/// Where one replica listens.
#[derive(Debug, Clone)]
pub struct ReplicaConfig {
    /// Stable identity — the consistent-hash ring derives this
    /// replica's points from it, so it must not change across restarts.
    pub id: String,
    /// The JSON-lines TCP address (the data plane forwards here).
    pub addr: SocketAddr,
    /// The HTTP front door (the prober hits `/readyz` here).
    pub http_addr: SocketAddr,
}

/// One replica's runtime state.
pub struct Replica {
    /// Static addressing.
    pub config: ReplicaConfig,
    /// Whether the replica is on the ring. Replicas start healthy — the
    /// fleet must serve before the first probe tick completes.
    healthy: AtomicBool,
    /// Consecutive probe successes/failures, for rise/fall hysteresis.
    streak_up: AtomicU32,
    streak_down: AtomicU32,
    /// Requests this replica answered through the fleet.
    pub requests: AtomicU64,
    /// Idle keep-alive sessions.
    pool: Mutex<VecDeque<TcpStream>>,
}

/// One pooled keep-alive session, checked out for a single exchange.
struct Session {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    /// Whether this session came from the pool (a stale pooled session
    /// failing is routine; a fresh one failing means the replica is
    /// actually unreachable).
    pooled: bool,
}

impl Replica {
    /// Wraps a config with fresh runtime state.
    pub fn new(config: ReplicaConfig) -> Replica {
        Replica {
            config,
            healthy: AtomicBool::new(true),
            streak_up: AtomicU32::new(0),
            streak_down: AtomicU32::new(0),
            requests: AtomicU64::new(0),
            pool: Mutex::new(VecDeque::new()),
        }
    }

    /// Whether the replica is currently on the ring.
    pub fn is_healthy(&self) -> bool {
        // SeqCst: health flips must be totally ordered with the streak
        // counters the prober updates (see probe_success/probe_failure).
        self.healthy.load(Ordering::SeqCst)
    }

    /// Records one probe success; returns `true` when this flip crossed
    /// the rise threshold and the replica just became healthy.
    pub fn probe_success(&self, rise: u32) -> bool {
        // SeqCst throughout: streak resets, streak bumps, and the health
        // flip must appear in one total order to every observer.
        self.streak_down.store(0, Ordering::SeqCst);
        let up = self.streak_up.fetch_add(1, Ordering::SeqCst) + 1;
        if up >= rise && !self.healthy.swap(true, Ordering::SeqCst) {
            return true;
        }
        false
    }

    /// Records one probe failure; returns `true` when this flip crossed
    /// the fall threshold and the replica just got ejected.
    pub fn probe_failure(&self, fall: u32) -> bool {
        // SeqCst throughout, mirroring probe_success's ordering.
        self.streak_up.store(0, Ordering::SeqCst);
        let down = self.streak_down.fetch_add(1, Ordering::SeqCst) + 1;
        if down >= fall && self.healthy.swap(false, Ordering::SeqCst) {
            // A dead replica's pooled sessions are dead too.
            self.pool.lock().expect("pool poisoned").clear();
            return true;
        }
        false
    }

    /// Idle pooled sessions (for the `fleet` stats verb).
    pub fn pooled(&self) -> usize {
        self.pool.lock().expect("pool poisoned").len()
    }

    /// Sends one raw protocol line and reads one response line, using a
    /// pooled session when one is idle. A stale pooled session (the
    /// replica closed it while idle) is retried once on a fresh
    /// connection before the error is surfaced — that distinction keeps
    /// routine keep-alive churn from looking like replica death.
    ///
    /// # Errors
    ///
    /// Propagates connect/exchange failures on a fresh connection.
    pub fn exchange(&self, line: &str, timeout: Duration) -> std::io::Result<String> {
        let mut session = self.checkout(timeout)?;
        match exchange_on(&mut session, line) {
            Ok(response) => {
                self.checkin(session);
                Ok(response)
            }
            Err(first) => {
                if !session.pooled {
                    return Err(first);
                }
                // The pooled session went stale; one fresh retry.
                let mut fresh = self.connect(timeout)?;
                let response = exchange_on(&mut fresh, line)?;
                self.checkin(fresh);
                Ok(response)
            }
        }
    }

    fn checkout(&self, timeout: Duration) -> std::io::Result<Session> {
        let idle = self.pool.lock().expect("pool poisoned").pop_back();
        match idle {
            Some(stream) => {
                let reader = stream.try_clone().map(BufReader::new)?;
                Ok(Session {
                    reader,
                    writer: stream,
                    pooled: true,
                })
            }
            None => self.connect(timeout),
        }
    }

    fn connect(&self, timeout: Duration) -> std::io::Result<Session> {
        let stream = TcpStream::connect_timeout(&self.config.addr, timeout)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(timeout))?;
        Ok(Session {
            reader: stream.try_clone().map(BufReader::new)?,
            writer: stream,
            pooled: false,
        })
    }

    fn checkin(&self, session: Session) {
        let mut pool = self.pool.lock().expect("pool poisoned");
        if pool.len() < POOL_CAP {
            pool.push_back(session.writer);
        }
    }
}

/// One request/response exchange on a session. The request line is
/// forwarded as raw bytes and the response returned verbatim (minus the
/// newline) — the fleet never re-serializes either direction, which is
/// what makes fleet-routed responses byte-identical to direct ones.
fn exchange_on(session: &mut Session, line: &str) -> std::io::Result<String> {
    // One write: a line and its newline sent separately are two segments
    // under NODELAY, and the replica's session wakes for the first only
    // to find the line incomplete.
    let mut request = String::with_capacity(line.len() + 1);
    ccsa_serve::proto::write_line(&mut session.writer, &mut request, &line)?;
    let mut response = String::new();
    let n = session.reader.read_line(&mut response)?;
    if n == 0 {
        return Err(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            "replica closed the session",
        ));
    }
    while response.ends_with('\n') || response.ends_with('\r') {
        response.pop();
    }
    Ok(response)
}
