//! Closed-loop driver for the ingress protocol: each connection keeps a
//! fixed number of requests outstanding and sends the next one as soon as
//! a reply comes back, so the system runs as fast as it can and no
//! faster. Its throughput is what the system sustains at that
//! concurrency; latency is the open-loop generator's ([`crate::gen`]).
//!
//! One thread per connection; connections persist across windows, so a
//! window measures serving, not connecting. Every Result is checked byte
//! for byte against the expected output, and every durable result is
//! acked.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use pipelines::ingress::{retry_delay, FrameKind, IngressClient};

use crate::gen::{JobPool, Protocol, MAX_RETRIES, RETRY_BACKOFF};

/// What one closed-loop window did, summed over its connections.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Window {
    /// Requests sent (resubmits after a Retry not counted again).
    pub attempted: u64,
    /// Results whose bytes equal the expected output.
    pub ok: u64,
    /// Results whose bytes differ from the expected output.
    pub mismatched: u64,
    /// Error replies and replies out of request order.
    pub errors: u64,
    /// Requests still refused after [`MAX_RETRIES`] Retry replies.
    pub refused: u64,
    /// Retry replies received.
    pub retries: u64,
}

impl Window {
    /// Failed requests of every kind.
    pub fn failures(&self) -> u64 {
        self.mismatched + self.errors + self.refused
    }

    /// Adds `other`'s counts to this window's.
    pub fn add(&mut self, other: &Window) {
        self.attempted += other.attempted;
        self.ok += other.ok;
        self.mismatched += other.mismatched;
        self.errors += other.errors;
        self.refused += other.refused;
        self.retries += other.retries;
    }
}

/// Runs one window on `clients`: each keeps `depth` requests outstanding
/// until `secs` have passed, then waits for the replies still owed.
/// Request `k` of connection `c` has id `id_base + (c << 28) + k + 1`
/// (durable ids must be unique per journal) and carries job
/// `(job_offset + id) % pool size`. A connection error fails the window.
pub fn run_window(
    clients: &mut [IngressClient],
    protocol: Protocol,
    pool: &JobPool,
    id_base: u64,
    job_offset: usize,
    depth: usize,
    secs: f64,
) -> std::io::Result<Window> {
    let until = Instant::now() + Duration::from_secs_f64(secs);
    let per_conn: Vec<std::io::Result<Window>> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                let base = id_base + ((c as u64) << 28);
                s.spawn(move || drive(client, protocol, pool, base, job_offset, depth, until))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("closed-loop connection thread panicked"))
            .collect()
    });
    let mut total = Window::default();
    for w in per_conn {
        total.add(&w?);
    }
    Ok(total)
}

fn drive(
    client: &mut IngressClient,
    protocol: Protocol,
    pool: &JobPool,
    base: u64,
    job_offset: usize,
    depth: usize,
    until: Instant,
) -> std::io::Result<Window> {
    let kind = match protocol {
        Protocol::Plain => FrameKind::Submit,
        Protocol::Durable => FrameKind::SubmitDurable,
    };
    let job_of = |id: u64| (job_offset + id as usize) % pool.payloads.len();
    let mut w = Window::default();
    // Outstanding requests in send order, with their Retry count.
    let mut owed: VecDeque<(u64, u32)> = VecDeque::with_capacity(depth);
    let mut next = base;
    let mut send_new = |client: &mut IngressClient, owed: &mut VecDeque<(u64, u32)>| {
        next += 1;
        owed.push_back((next, 0));
        client.send(kind, next, &pool.payloads[job_of(next)])
    };
    for _ in 0..depth.max(1) {
        send_new(client, &mut owed)?;
        w.attempted += 1;
    }
    while let Some(&(id, tries)) = owed.front() {
        let frame = client.recv()?;
        if frame.req_id != id {
            // Not the next reply in order: an out-of-band error (one for
            // an Ack) or a protocol violation.
            w.errors += 1;
            continue;
        }
        owed.pop_front();
        match frame.kind {
            FrameKind::Result => {
                if frame.body == pool.expected[job_of(id)] {
                    w.ok += 1;
                } else {
                    w.mismatched += 1;
                }
                if protocol == Protocol::Durable {
                    client.ack(id)?;
                }
            }
            FrameKind::Retry if tries < MAX_RETRIES => {
                w.retries += 1;
                std::thread::sleep(retry_delay(RETRY_BACKOFF, id, tries));
                owed.push_back((id, tries + 1));
                client.send(kind, id, &pool.payloads[job_of(id)])?;
                continue;
            }
            FrameKind::Retry => {
                w.retries += 1;
                w.refused += 1;
            }
            _ => w.errors += 1,
        }
        if Instant::now() < until {
            send_new(client, &mut owed)?;
            w.attempted += 1;
        }
    }
    Ok(w)
}
