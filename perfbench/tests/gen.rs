//! Tests of the open-loop generator and the closed-loop driver against
//! fake in-process servers.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use perfbench::closed;
use perfbench::gen::{poisson_schedule, run_point, JobPool, PointConfig, Protocol};
use perfbench::trace::Tracer;
use pipelines::ingress::{encode_frame, FrameDecoder, FrameKind, IngressClient};

/// How the fake server answers.
#[derive(Clone, Copy)]
struct Fake {
    /// Sleep this long before answering the request with this index
    /// (counted over all connections, in arrival order).
    stall_at: usize,
    stall: Duration,
    /// Answer the request with this index with wrong bytes.
    corrupt_at: usize,
}

struct Server {
    addr: SocketAddr,
    max_open: Arc<AtomicUsize>,
}

/// A server that answers every Submit with a Result echoing its payload,
/// in order, one thread per connection.
fn fake_server(fake: Fake) -> Server {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let seen = Arc::new(AtomicUsize::new(0));
    let open = Arc::new(AtomicUsize::new(0));
    let max_open = Arc::new(AtomicUsize::new(0));
    let max_seen = Arc::clone(&max_open);
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(stream) = stream else { return };
            let (seen, open, max_open) =
                (Arc::clone(&seen), Arc::clone(&open), Arc::clone(&max_seen));
            let now_open = open.fetch_add(1, Ordering::SeqCst) + 1;
            max_open.fetch_max(now_open, Ordering::SeqCst);
            std::thread::spawn(move || {
                serve(stream, fake, &seen);
                open.fetch_sub(1, Ordering::SeqCst);
            });
        }
    });
    Server { addr, max_open }
}

fn serve(mut stream: TcpStream, fake: Fake, seen: &AtomicUsize) {
    let mut dec = FrameDecoder::new(1 << 20);
    let mut buf = vec![0u8; 64 * 1024];
    loop {
        let n = match stream.read(&mut buf) {
            Ok(0) | Err(_) => return,
            Ok(n) => n,
        };
        dec.extend(&buf[..n]);
        let mut out = Vec::new();
        while let Ok(Some(frame)) = dec.next_frame() {
            if frame.kind != FrameKind::Submit {
                continue;
            }
            let k = seen.fetch_add(1, Ordering::SeqCst);
            if k == fake.stall_at {
                stream.write_all(&out).unwrap();
                out.clear();
                std::thread::sleep(fake.stall);
            }
            let mut body = frame.body.clone();
            if k == fake.corrupt_at {
                body.push(b'!');
            }
            encode_frame(FrameKind::Result, frame.req_id, &body, &mut out);
        }
        if stream.write_all(&out).is_err() {
            return;
        }
    }
}

/// Sixteen distinct payloads of `size` bytes each.
fn echo_pool(size: usize) -> JobPool {
    let payloads: Vec<Vec<u8>> = (0..16u8)
        .map(|i| (0..size).map(|k| b'a' + (k as u8 ^ i) % 26).collect())
        .collect();
    JobPool {
        expected: payloads.clone(),
        payloads,
    }
}

fn config(jobs_per_conn: usize) -> PointConfig {
    PointConfig {
        protocol: Protocol::Plain,
        jobs_per_conn,
        id_base: 0,
        job_offset: 3,
    }
}

#[test]
fn the_schedule_is_a_function_of_the_seed() {
    let window = Duration::from_secs(2);
    let a = poisson_schedule(7, 1000.0, window);
    assert_eq!(a, poisson_schedule(7, 1000.0, window));
    assert_ne!(a, poisson_schedule(8, 1000.0, window));
    assert!(a.windows(2).all(|w| w[0] <= w[1]), "offsets ascend");
    assert!(a.iter().all(|&t| t < window.as_nanos() as u64));
    // 2000 expected arrivals; Poisson spread is about ±45.
    assert!((1800..2200).contains(&a.len()), "{} arrivals", a.len());
}

#[test]
fn a_stall_shows_in_every_request_queued_behind_it() {
    let stall = Duration::from_millis(200);
    let server = fake_server(Fake {
        stall_at: 100,
        stall,
        corrupt_at: usize::MAX,
    });
    let window = Duration::from_millis(800);
    let schedule = poisson_schedule(11, 1000.0, window);
    let mut tracer = Tracer::new(false, Instant::now());
    // 32 KiB requests: the ~200 sent during the stall overflow the socket
    // buffers while the server is not reading, so they wait unsent in the
    // generator — which must neither stall its schedule nor time them from
    // the late write.
    let r = run_point(
        server.addr,
        &schedule,
        window,
        &echo_pool(32 << 10),
        &config(usize::MAX),
        &mut tracer,
    )
    .unwrap();
    assert_eq!(r.failures(), 0);
    let late = perfbench::stats::sorted(r.late_us.clone());
    let late_p99 = perfbench::stats::quantile(&late, 0.99);
    assert!(
        late_p99 < 5e3,
        "generator fell {late_p99:.0} µs behind its schedule"
    );
    let lat: Vec<f64> = r
        .latency_us
        .iter()
        .map(|l| l.expect("every request answered"))
        .collect();
    // The stalled request is answered no earlier than `stall` after its
    // send, and so is everything sent while it was held, each timed from
    // its own intended send: a request due `d` after the stalled one
    // waits at least `stall - d`.
    let release = schedule[100] as f64 / 1e3 + stall.as_secs_f64() * 1e6;
    let mut behind = 0;
    for (i, &t) in schedule.iter().enumerate().skip(100) {
        let due = t as f64 / 1e3;
        if due >= release {
            break;
        }
        assert!(
            lat[i] >= release - due - 1e3,
            "request {i} due {:.1} ms into the stall reports only {:.1} ms",
            (due - schedule[100] as f64 / 1e3) / 1e3,
            lat[i] / 1e3
        );
        behind += 1;
    }
    // About 200 requests fall due during a 200 ms stall at 1000/s.
    assert!(
        behind > 120,
        "only {behind} requests queued behind the stall"
    );
    let slow = lat.iter().filter(|&&l| l > 50e3).count();
    assert!(slow >= behind * 3 / 4, "{slow} slow of {behind} queued");
}

#[test]
fn connections_rotate_with_at_most_two_open() {
    let server = fake_server(Fake {
        stall_at: usize::MAX,
        stall: Duration::ZERO,
        corrupt_at: usize::MAX,
    });
    let window = Duration::from_millis(500);
    let schedule = poisson_schedule(3, 2000.0, window);
    let mut tracer = Tracer::new(true, Instant::now());
    let r = run_point(
        server.addr,
        &schedule,
        window,
        &echo_pool(64),
        &config(50),
        &mut tracer,
    )
    .unwrap();
    assert_eq!(r.failures(), 0);
    assert!(r.latency_us.iter().all(Option::is_some));
    assert!(
        r.connections >= schedule.len() as u64 / 50 / 2,
        "{} connections",
        r.connections
    );
    assert_eq!(r.connect_us.len() as u64, r.connections);
    assert!(server.max_open.load(Ordering::SeqCst) <= 2);
    let connects = tracer
        .spans()
        .iter()
        .filter(|s| s.name == "connect")
        .count();
    assert_eq!(connects as u64, r.connections);
}

#[test]
fn a_wrong_result_is_counted_not_timed() {
    let server = fake_server(Fake {
        stall_at: usize::MAX,
        stall: Duration::ZERO,
        corrupt_at: 10,
    });
    let window = Duration::from_millis(200);
    let schedule = poisson_schedule(5, 500.0, window);
    let mut tracer = Tracer::new(false, Instant::now());
    let r = run_point(
        server.addr,
        &schedule,
        window,
        &echo_pool(64),
        &config(1000),
        &mut tracer,
    )
    .unwrap();
    assert_eq!(r.mismatched, 1);
    assert_eq!(r.failures(), 1);
    assert!(r.latency_us[10].is_none());
    assert_eq!(r.latency_us.iter().flatten().count(), schedule.len() - 1);
}

#[test]
fn the_closed_loop_keeps_its_depth_and_checks_every_result() {
    let server = fake_server(Fake {
        stall_at: usize::MAX,
        stall: Duration::ZERO,
        corrupt_at: 25,
    });
    let mut clients: Vec<IngressClient> = (0..2)
        .map(|_| IngressClient::connect(server.addr).unwrap())
        .collect();
    let pool = echo_pool(64);
    let w = closed::run_window(&mut clients, Protocol::Plain, &pool, 1 << 32, 3, 8, 0.2).unwrap();
    assert!(w.attempted >= 16, "{w:?}");
    assert_eq!(w.mismatched, 1);
    assert_eq!(w.failures(), 1);
    assert_eq!(w.ok + w.failures(), w.attempted, "every request answered");
    // The connections persist: a second window runs on the same two.
    let again =
        closed::run_window(&mut clients, Protocol::Plain, &pool, 2 << 32, 3, 8, 0.05).unwrap();
    assert_eq!(again.failures(), 0);
    assert_eq!(server.max_open.load(Ordering::SeqCst), 2);
}
