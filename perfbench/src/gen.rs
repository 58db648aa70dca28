//! Open-loop load generator for the ingress protocol.
//!
//! Requests leave on a seeded Poisson schedule whether or not earlier
//! ones have been answered, so a slow server receives the load it was
//! offered and its queue can grow. Every latency is timed from the
//! request's *intended* send time, which charges a stall to every
//! request queued behind it (no coordinated omission).
//!
//! Two threads do all the work:
//!
//! * the **sender** (the calling thread) sleeps until the next request
//!   is due, then writes every due request — pipelined, without waiting
//!   for replies — on the active connection. Writes never block: bytes
//!   the socket does not take wait in a user-space buffer, so a server
//!   that stops reading delays replies, not the schedule. After a fixed
//!   number of submits (once the previous connection has closed) it
//!   retires the connection and opens a fresh one, so connect time falls
//!   inside the latency of the requests that wait for it. It also sends
//!   Ack frames for durable results and resubmits requests the server
//!   refused with Retry.
//! * the **receiver** waits on `vendor/epoll` for replies, timestamps
//!   them, checks each Result byte for byte against the expected
//!   output, and closes a retired connection once its last reply is in.
//!
//! At most two connections are open at once: the active one and the one
//! being retired. Replies on a connection arrive in request order, so
//! each connection keeps a FIFO of the requests written on it and every
//! reply is matched (and its `req_id` checked) against the FIFO front.

use std::collections::{HashMap, VecDeque};
use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use pipelines::ingress::{
    encode_frame, retry_delay, FrameDecoder, FrameKind, DEFAULT_MAX_FRAME_LEN,
};
use workloads::util::SplitMix64;

use crate::trace::Tracer;

/// Seeded Poisson arrivals: send offsets in nanoseconds from the start
/// of a window of length `window`, at `rate` requests per second. The
/// same `(seed, rate, window)` always gives the same schedule.
pub fn poisson_schedule(seed: u64, rate: f64, window: Duration) -> Vec<u64> {
    let mut rng = SplitMix64::new(seed);
    let horizon = window.as_nanos() as f64;
    let mean_gap_ns = 1e9 / rate.max(1e-9);
    let mut t = 0.0f64;
    let mut out = Vec::with_capacity((rate * window.as_secs_f64() * 1.1) as usize + 8);
    loop {
        // Uniform in (0, 1]: 53 random bits, shifted off zero.
        let u = ((rng.next() >> 11) as f64 + 1.0) / (1u64 << 53) as f64;
        t += -u.ln() * mean_gap_ns;
        if t >= horizon {
            return out;
        }
        out.push(t as u64);
    }
}

/// The jobs a point draws from: request `i` carries job
/// `(offset + i) % len`, and its Result must equal that job's expected
/// bytes exactly.
pub struct JobPool {
    /// Submit bodies.
    pub payloads: Vec<Vec<u8>>,
    /// Expected Result bodies, index-aligned with `payloads`.
    pub expected: Vec<Vec<u8>>,
}

impl JobPool {
    fn job(&self, offset: usize, i: usize) -> usize {
        (offset + i) % self.payloads.len()
    }
}

/// Which request kind the generator speaks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Protocol {
    /// Submit → Result.
    Plain,
    /// SubmitDurable → Result → Ack.
    Durable,
}

/// Retry replies tolerated per request before it counts as refused:
/// with the jittered backoff below, about a second of refusals.
pub const MAX_RETRIES: u32 = 32;
/// Base of the jittered resubmit backoff after a Retry.
pub const RETRY_BACKOFF: Duration = Duration::from_micros(500);
/// How long after the last scheduled send unanswered requests are still
/// awaited before they count as failed.
pub const DRAIN_TIMEOUT: Duration = Duration::from_secs(5);

/// How one fixed-rate point is driven.
#[derive(Clone, Debug)]
pub struct PointConfig {
    /// Request kind.
    pub protocol: Protocol,
    /// Submits written on one connection before it is replaced.
    pub jobs_per_conn: usize,
    /// Request `i` uses id `id_base + i + 1` (durable job ids must be
    /// unique per journal, so callers give every point its own base).
    pub id_base: u64,
    /// Request `i` carries job `(job_offset + i) % pool size`.
    pub job_offset: usize,
}

/// What one point measured. Per-request vectors are indexed by request.
#[derive(Clone, Debug, Default)]
pub struct PointResult {
    /// Length of the schedule window.
    pub window: Duration,
    /// Requests scheduled in the window.
    pub scheduled: usize,
    /// Latency from intended send to the matching Result, µs; `None`
    /// when the request failed.
    pub latency_us: Vec<Option<f64>>,
    /// How late the generator first tried to send each request, µs.
    pub late_us: Vec<f64>,
    /// TCP connect times, µs.
    pub connect_us: Vec<f64>,
    /// Requests still refused after [`MAX_RETRIES`] Retry replies.
    pub refused: u64,
    /// Error replies.
    pub errors: u64,
    /// Results whose bytes differ from the expected output.
    pub mismatched: u64,
    /// Requests lost to connect, write or read failures or never
    /// answered within the drain timeout.
    pub transport: u64,
    /// Retry replies received (each one resubmitted or refused).
    pub retries: u64,
    /// Connections opened.
    pub connections: u64,
    /// When each successful request's Result arrived, µs after the
    /// window's start; `None` when the request failed.
    pub reply_at_us: Vec<Option<f64>>,
}

impl PointResult {
    /// Failed requests of every kind.
    pub fn failures(&self) -> u64 {
        self.refused + self.errors + self.mismatched + self.transport
    }

    /// Latencies of the successful requests, ascending, µs.
    pub fn ok_latencies(&self) -> Vec<f64> {
        crate::stats::sorted(self.latency_us.iter().flatten().copied().collect())
    }

    /// Share of the scheduled requests answered successfully no later
    /// than `grace` after the window's end: below 1 when the system falls
    /// behind the offered rate and its backlog grows.
    pub fn answered_share(&self, grace: Duration) -> f64 {
        let by = (self.window + grace).as_secs_f64() * 1e6;
        let on_time = self
            .reply_at_us
            .iter()
            .flatten()
            .filter(|&&t| t <= by)
            .count();
        on_time as f64 / self.scheduled.max(1) as f64
    }
}

/// A connection as both threads see it.
struct Conn {
    stream: TcpStream,
    /// Requests written on this connection and not yet answered, in
    /// write order.
    fifo: Mutex<VecDeque<usize>>,
    /// Set once the sender queues nothing more here; the receiver closes
    /// the connection when its FIFO is empty and nothing is unsent.
    retiring: AtomicBool,
    /// Bytes queued by the sender but not yet taken by the socket.
    unsent: AtomicUsize,
}

/// Where the receiver reports outcomes back to the sender.
struct Shared {
    poll: epoll::Epoll,
    wake: epoll::EventFd,
    conns: Mutex<HashMap<u64, Arc<Conn>>>,
    open: AtomicUsize,
    /// Durable ids whose Result arrived and which still need an Ack.
    acks: Mutex<Vec<u64>>,
    /// Refused requests to resubmit, with their due time.
    resubmit: Mutex<Vec<(usize, Instant)>>,
    /// Requests with a terminal outcome (success or failure).
    resolved: AtomicUsize,
    stop: AtomicBool,
}

const WAKE_TOKEN: u64 = u64::MAX;

/// What the receiver hands back: per-request latency and reply time,
/// failure tallies, and its spans.
struct Received {
    latency: Vec<Option<f64>>,
    reply_at: Vec<Option<f64>>,
    tally: Tally,
    tracer: Tracer,
}

/// Receiver-side tallies, merged into the [`PointResult`] at the end.
#[derive(Default)]
struct Tally {
    refused: u64,
    errors: u64,
    mismatched: u64,
    retries: u64,
}

/// Runs one open-loop point against `addr`: `schedule` (from
/// [`poisson_schedule`]) over a window of length `window`. Spans for
/// connect, send and recv calls go to `tracer` when it is enabled.
pub fn run_point(
    addr: SocketAddr,
    schedule: &[u64],
    window: Duration,
    pool: &JobPool,
    cfg: &PointConfig,
    tracer: &mut Tracer,
) -> std::io::Result<PointResult> {
    let n = schedule.len();
    let shared = Shared {
        poll: epoll::Epoll::new()?,
        wake: epoll::EventFd::new()?,
        conns: Mutex::new(HashMap::new()),
        open: AtomicUsize::new(0),
        acks: Mutex::new(Vec::new()),
        resubmit: Mutex::new(Vec::new()),
        resolved: AtomicUsize::new(0),
        stop: AtomicBool::new(false),
    };
    shared
        .poll
        .add(shared.wake.raw_fd(), WAKE_TOKEN, epoll::interest::READ)?;
    // A short lead so the first request is not already late.
    let t0 = Instant::now() + Duration::from_millis(2);
    let clock = Clock { t0, schedule };
    let mut res = PointResult {
        window,
        scheduled: n,
        late_us: vec![0.0; n],
        ..PointResult::default()
    };
    let recv_tracer = Tracer::new(tracer.enabled(), tracer.origin());
    let received = std::thread::scope(|s| {
        let receiver = s.spawn(|| receive(&shared, pool, cfg, &clock, recv_tracer));
        let mut sender = Sender {
            shared: &shared,
            addr,
            pool,
            cfg,
            res: &mut res,
            tracer,
            active: None,
            retired: None,
            next_token: 0,
        };
        sender.run(&clock);
        shared.stop.store(true, Ordering::SeqCst);
        shared.wake.notify();
        receiver.join().expect("receiver thread panicked")
    });
    let Received {
        latency,
        reply_at,
        tally,
        tracer: recv_tracer,
    } = received;
    tracer.absorb(recv_tracer);
    res.latency_us = latency;
    res.reply_at_us = reply_at;
    res.refused = tally.refused;
    res.errors = tally.errors;
    res.mismatched = tally.mismatched;
    res.retries = tally.retries;
    // Requests with neither a latency nor a counted failure were never
    // answered: lost with a dead connection or left at the drain timeout.
    let counted = res.latency_us.iter().flatten().count() as u64
        + tally.refused
        + tally.mismatched
        + tally.errors;
    res.transport = (n as u64).saturating_sub(counted);
    Ok(res)
}

/// The intended send time of each request.
struct Clock<'a> {
    t0: Instant,
    schedule: &'a [u64],
}

impl Clock<'_> {
    fn intended(&self, i: usize) -> Instant {
        self.t0 + Duration::from_nanos(self.schedule[i])
    }
}

/// A connection from the sender's side: its shared state plus the
/// bytes the socket has not taken yet.
struct Out {
    conn: Arc<Conn>,
    /// Submits queued on this connection.
    sent: usize,
    pending: Vec<u8>,
    /// Bytes of `pending` already written.
    off: usize,
}

struct Sender<'a> {
    shared: &'a Shared,
    addr: SocketAddr,
    pool: &'a JobPool,
    cfg: &'a PointConfig,
    res: &'a mut PointResult,
    tracer: &'a mut Tracer,
    active: Option<Out>,
    /// The previous connection, until its queued bytes are written.
    retired: Option<Out>,
    next_token: u64,
}

impl Sender<'_> {
    fn run(&mut self, clock: &Clock<'_>) {
        let n = clock.schedule.len();
        let give_up = match n {
            0 => Instant::now(),
            _ => clock.intended(n - 1),
        } + DRAIN_TIMEOUT;
        let kind = match self.cfg.protocol {
            Protocol::Plain => FrameKind::Submit,
            Protocol::Durable => FrameKind::SubmitDurable,
        };
        let mut next = 0usize;
        let mut due: Vec<usize> = Vec::new();
        loop {
            let now = Instant::now();
            due.clear();
            self.shared
                .resubmit
                .lock()
                .expect("resubmit lock")
                .retain(|&(i, at)| {
                    let ready = at <= now;
                    if ready {
                        due.push(i);
                    }
                    !ready
                });
            while next < n && clock.intended(next) <= now {
                let late = now.duration_since(clock.intended(next));
                self.res.late_us[next] = late.as_secs_f64() * 1e6;
                due.push(next);
                next += 1;
            }
            for &i in &due {
                let id = self.cfg.id_base + i as u64 + 1;
                let job = self.pool.job(self.cfg.job_offset, i);
                if !self.queue_submit(kind, id, job, i) {
                    // No connection: the request is lost.
                    self.shared.resolved.fetch_add(1, Ordering::SeqCst);
                }
            }
            let acks = std::mem::take(&mut *self.shared.acks.lock().expect("ack lock"));
            if !acks.is_empty() {
                if self.active.is_none() {
                    self.connect();
                }
                if let Some(out) = self.active.as_mut() {
                    for id in acks {
                        encode_frame(FrameKind::Ack, id, &[], &mut out.pending);
                    }
                }
            }
            self.flush_all();

            let unsent = self.unsent();
            let finished = next >= n
                && unsent == 0
                && self.shared.resolved.load(Ordering::SeqCst) >= n
                && self
                    .shared
                    .resubmit
                    .lock()
                    .expect("resubmit lock")
                    .is_empty()
                && self.shared.acks.lock().expect("ack lock").is_empty();
            if finished || (next >= n && now > give_up) {
                break;
            }
            // Sleep until the next send or resubmit is due, waking at
            // least every millisecond to send acks, retry unsent bytes and
            // notice the end.
            let tick = if unsent > 0 { 200 } else { 1000 };
            let mut wake = now + Duration::from_micros(tick);
            if next < n {
                wake = wake.min(clock.intended(next));
            }
            let resubmit = self.shared.resubmit.lock().expect("resubmit lock");
            if let Some(at) = resubmit.iter().map(|&(_, at)| at).min() {
                wake = wake.min(at);
            }
            drop(resubmit);
            let now = Instant::now();
            if wake > now {
                std::thread::sleep(wake - now);
            }
        }
        self.retire();
        self.drain_and_close(give_up.max(Instant::now()) + DRAIN_TIMEOUT);
    }

    /// Queues one submit on the active connection, rotating to a fresh
    /// connection once the active one has carried `jobs_per_conn` submits
    /// and the one before it has closed. False if no connection could be
    /// opened.
    fn queue_submit(&mut self, kind: FrameKind, id: u64, job: usize, i: usize) -> bool {
        let full = self
            .active
            .as_ref()
            .is_some_and(|o| o.sent >= self.cfg.jobs_per_conn.max(1));
        if full && self.shared.open.load(Ordering::SeqCst) < 2 && self.retired.is_none() {
            self.retire();
        }
        if self.active.is_none() {
            self.connect();
        }
        let Some(out) = self.active.as_mut() else {
            return false;
        };
        encode_frame(kind, id, &self.pool.payloads[job], &mut out.pending);
        out.conn.fifo.lock().expect("fifo lock").push_back(i);
        out.sent += 1;
        true
    }

    /// Opens a fresh active connection. Connect time is both a sample and
    /// a span.
    fn connect(&mut self) {
        let start = Instant::now();
        let stream = TcpStream::connect(self.addr);
        let end = Instant::now();
        self.tracer.record("connect", start, end, 0, 0);
        let Ok(stream) = stream else { return };
        self.res
            .connect_us
            .push(end.duration_since(start).as_secs_f64() * 1e6);
        self.res.connections += 1;
        stream.set_nodelay(true).ok();
        if stream.set_nonblocking(true).is_err() {
            return;
        }
        let conn = Arc::new(Conn {
            stream,
            fifo: Mutex::new(VecDeque::new()),
            retiring: AtomicBool::new(false),
            unsent: AtomicUsize::new(0),
        });
        let token = self.next_token;
        self.next_token += 1;
        self.shared
            .conns
            .lock()
            .expect("conn table lock")
            .insert(token, Arc::clone(&conn));
        self.shared.open.fetch_add(1, Ordering::SeqCst);
        let registered =
            self.shared
                .poll
                .add(conn.stream.as_raw_fd(), token, epoll::interest::READ);
        let out = Out {
            conn,
            sent: 0,
            pending: Vec::with_capacity(64 * 1024),
            off: 0,
        };
        if registered.is_err() {
            out.conn.stream.shutdown(std::net::Shutdown::Both).ok();
            out.conn.retiring.store(true, Ordering::SeqCst);
            return;
        }
        self.active = Some(out);
    }

    /// Bytes queued on any connection and not yet written.
    fn unsent(&self) -> usize {
        [&self.active, &self.retired]
            .into_iter()
            .flatten()
            .map(|o| o.pending.len() - o.off)
            .sum()
    }

    /// Writes what the sockets take without blocking.
    fn flush_all(&mut self) {
        for slot in [&mut self.active, &mut self.retired] {
            if let Some(out) = slot.as_mut() {
                flush(out, self.tracer);
            }
        }
        if self
            .retired
            .as_ref()
            .is_some_and(|o| o.off == o.pending.len())
        {
            self.retired = None;
        }
    }

    /// Stops queueing on the active connection; the receiver closes it
    /// once its last reply is in and its bytes are written.
    fn retire(&mut self) {
        if let Some(out) = self.active.take() {
            out.conn.retiring.store(true, Ordering::SeqCst);
            self.shared.wake.notify();
            if out.off < out.pending.len() {
                self.retired = Some(out);
            }
        }
    }

    /// Keeps writing retired connections' bytes until the receiver has
    /// closed every connection; past `until`, shuts the rest down so the
    /// receiver fails what they still owed.
    fn drain_and_close(&mut self, until: Instant) {
        while self.shared.open.load(Ordering::SeqCst) > 0 {
            self.flush_all();
            if Instant::now() > until {
                for conn in self.shared.conns.lock().expect("conn table lock").values() {
                    conn.stream.shutdown(std::net::Shutdown::Both).ok();
                }
                self.shared.wake.notify();
                let hard = Instant::now() + Duration::from_secs(1);
                while self.shared.open.load(Ordering::SeqCst) > 0 && Instant::now() < hard {
                    std::thread::sleep(Duration::from_micros(200));
                }
                return;
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }
}

/// Writes as much of `out`'s queued bytes as the socket takes now. A
/// write error shuts the connection; the receiver then fails its FIFO.
fn flush(out: &mut Out, tracer: &mut Tracer) {
    if out.off == out.pending.len() {
        return;
    }
    let first_req = u64::from_le_bytes(
        out.pending[out.off + 5..out.off + 13]
            .try_into()
            .expect("frame header"),
    );
    let span = tracer.open("send", 0, first_req);
    loop {
        match (&out.conn.stream).write(&out.pending[out.off..]) {
            Ok(0) => break,
            Ok(k) => {
                out.off += k;
                if out.off == out.pending.len() {
                    out.pending.clear();
                    out.off = 0;
                    break;
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => {
                out.conn.stream.shutdown(std::net::Shutdown::Both).ok();
                out.pending.clear();
                out.off = 0;
                break;
            }
        }
    }
    tracer.close(span);
    out.conn
        .unsent
        .store(out.pending.len() - out.off, Ordering::SeqCst);
}

fn receive(
    shared: &Shared,
    pool: &JobPool,
    cfg: &PointConfig,
    clock: &Clock<'_>,
    mut tracer: Tracer,
) -> Received {
    let n = clock.schedule.len();
    let mut latency: Vec<Option<f64>> = vec![None; n];
    let mut reply_at: Vec<Option<f64>> = vec![None; n];
    let mut attempts: Vec<u32> = vec![0; n];
    let mut tally = Tally::default();
    let mut decoders: HashMap<u64, FrameDecoder> = HashMap::new();
    let mut events = Vec::new();
    let mut chunk = vec![0u8; 64 * 1024];
    loop {
        events.clear();
        if shared.poll.wait(&mut events, 20).is_err() {
            break;
        }
        for ev in &events {
            if ev.token == WAKE_TOKEN {
                shared.wake.drain();
                continue;
            }
            let conn = shared
                .conns
                .lock()
                .expect("conn table lock")
                .get(&ev.token)
                .cloned();
            let Some(conn) = conn else { continue };
            let span = tracer.open("recv", 0, 0);
            let read = (&conn.stream).read(&mut chunk);
            tracer.close(span);
            let now = Instant::now();
            let dec = decoders
                .entry(ev.token)
                .or_insert_with(|| FrameDecoder::new(DEFAULT_MAX_FRAME_LEN));
            let dead = match read {
                Ok(0) => true,
                Ok(k) => {
                    dec.extend(&chunk[..k]);
                    false
                }
                Err(e) => !matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::Interrupted
                ),
            };
            while let Ok(Some(frame)) = dec.next_frame() {
                let mut fifo = conn.fifo.lock().expect("fifo lock");
                let expected_id = fifo.front().map(|&i| cfg.id_base + i as u64 + 1);
                if expected_id != Some(frame.req_id) {
                    // Not the next reply in order: an out-of-band error
                    // (one for an Ack) or a protocol violation.
                    tally.errors += 1;
                    continue;
                }
                let i = fifo.pop_front().expect("front checked");
                drop(fifo);
                match frame.kind {
                    FrameKind::Result => {
                        if frame.body == pool.expected[pool.job(cfg.job_offset, i)] {
                            let lat = now.saturating_duration_since(clock.intended(i));
                            latency[i] = Some(lat.as_secs_f64() * 1e6);
                            let at = now.saturating_duration_since(clock.t0);
                            reply_at[i] = Some(at.as_secs_f64() * 1e6);
                            if cfg.protocol == Protocol::Durable {
                                shared.acks.lock().expect("ack lock").push(frame.req_id);
                            }
                        } else {
                            tally.mismatched += 1;
                        }
                        shared.resolved.fetch_add(1, Ordering::SeqCst);
                    }
                    FrameKind::Retry => {
                        tally.retries += 1;
                        attempts[i] += 1;
                        if attempts[i] > MAX_RETRIES {
                            tally.refused += 1;
                            shared.resolved.fetch_add(1, Ordering::SeqCst);
                        } else {
                            let delay = retry_delay(RETRY_BACKOFF, frame.req_id, attempts[i] - 1);
                            let mut resubmit = shared.resubmit.lock().expect("resubmit lock");
                            resubmit.push((i, now + delay));
                        }
                    }
                    _ => {
                        tally.errors += 1;
                        shared.resolved.fetch_add(1, Ordering::SeqCst);
                    }
                }
            }
            if dead {
                // Whatever was still awaited on this connection is lost;
                // `run_point` counts it as a transport failure.
                let lost = conn.fifo.lock().expect("fifo lock").drain(..).count();
                shared.resolved.fetch_add(lost, Ordering::SeqCst);
                conn.retiring.store(true, Ordering::SeqCst);
            }
        }
        // Close retired connections whose replies are all in.
        let mut conns = shared.conns.lock().expect("conn table lock");
        conns.retain(|token, conn| {
            let done = conn.retiring.load(Ordering::SeqCst)
                && conn.unsent.load(Ordering::SeqCst) == 0
                && conn.fifo.lock().expect("fifo lock").is_empty();
            if done {
                shared.poll.delete(conn.stream.as_raw_fd()).ok();
                decoders.remove(token);
                shared.open.fetch_sub(1, Ordering::SeqCst);
            }
            !done
        });
        if shared.stop.load(Ordering::SeqCst) {
            break;
        }
    }
    Received {
        latency,
        reply_at,
        tally,
        tracer,
    }
}
