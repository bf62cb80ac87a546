//! The benchmark's HTTP/1.1 client over loopback: an open-loop point
//! query generator, a closed-loop pipelined window client, and plain
//! request/response calls for deltas and checks.

use crate::trace;
use pscc_graph::V;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Latency charged to a request that failed, was refused or timed out:
/// the server's own submit timeout, above any latency limit a reader
/// would set.
pub const FAILED_LATENCY_S: f64 = 5.0;

/// How long a reader waits for an outstanding response before counting
/// it as timed out.
const RESPONSE_TIMEOUT: Duration = Duration::from_secs(5);

pub fn connect(addr: SocketAddr) -> TcpStream {
    let stream = TcpStream::connect(addr).expect("connect to the server under test");
    stream.set_nodelay(true).expect("set TCP_NODELAY");
    stream.set_read_timeout(Some(Duration::from_millis(50))).expect("set read timeout");
    stream
}

/// Appends the decimal digits of `n`.
pub fn push_digits(out: &mut Vec<u8>, mut n: u64) {
    let mut digits = [0u8; 20];
    let mut i = digits.len();
    loop {
        i -= 1;
        digits[i] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.extend_from_slice(&digits[i..]);
}

/// Appends one `GET /reach/<graph>?u=&v=` request.
pub fn push_get(out: &mut Vec<u8>, graph: &str, (u, v): (V, V)) {
    out.extend_from_slice(b"GET /reach/");
    out.extend_from_slice(graph.as_bytes());
    out.extend_from_slice(b"?u=");
    push_digits(out, u as u64);
    out.extend_from_slice(b"&v=");
    push_digits(out, v as u64);
    out.extend_from_slice(b" HTTP/1.1\r\n\r\n");
}

/// Appends one request with a body.
pub fn push_post(out: &mut Vec<u8>, path: &str, body: &[u8]) {
    out.extend_from_slice(b"POST ");
    out.extend_from_slice(path.as_bytes());
    out.extend_from_slice(b" HTTP/1.1\r\nContent-Length: ");
    push_digits(out, body.len() as u64);
    out.extend_from_slice(b"\r\n\r\n");
    out.extend_from_slice(body);
}

/// Parses responses off one connection in order.
pub struct Reader {
    stream: TcpStream,
    buf: Vec<u8>,
    pos: usize,
    chunk: Vec<u8>,
    /// When the read that completed the latest response returned.
    pub read_at: Instant,
}

impl Reader {
    pub fn new(stream: TcpStream) -> Reader {
        Reader {
            stream,
            buf: Vec::with_capacity(64 * 1024),
            pos: 0,
            chunk: vec![0u8; 64 * 1024],
            read_at: Instant::now(),
        }
    }

    /// The next response's status; its body replaces `body`. Fails with
    /// `TimedOut` when nothing completes before `give_up`.
    pub fn next(&mut self, body: &mut Vec<u8>, give_up: Instant) -> std::io::Result<u16> {
        loop {
            if let Some((status, body_at, end)) = parse_response(&self.buf[self.pos..]) {
                body.clear();
                body.extend_from_slice(&self.buf[self.pos + body_at..self.pos + end]);
                self.pos += end;
                return Ok(status);
            }
            if self.pos == self.buf.len() {
                self.buf.clear();
                self.pos = 0;
            }
            if Instant::now() > give_up {
                return Err(std::io::ErrorKind::TimedOut.into());
            }
            match self.stream.read(&mut self.chunk) {
                Ok(0) => return Err(std::io::ErrorKind::UnexpectedEof.into()),
                Ok(got) => {
                    self.read_at = Instant::now();
                    self.buf.extend_from_slice(&self.chunk[..got]);
                }
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut => {}
                Err(e) => return Err(e),
            }
        }
    }
}

/// `(status, body offset, total length)` of the first complete response.
fn parse_response(buf: &[u8]) -> Option<(u16, usize, usize)> {
    const OK_PREFIX: &[u8] = b"HTTP/1.1 200 OK\r\nContent-Length: 1\r\n\r\n";
    if buf.len() > OK_PREFIX.len() && buf.starts_with(OK_PREFIX) {
        return Some((200, OK_PREFIX.len(), OK_PREFIX.len() + 1));
    }
    let head_end = buf.windows(4).position(|w| w == b"\r\n\r\n")?;
    let head = std::str::from_utf8(&buf[..head_end]).ok()?;
    let status = head.split(' ').nth(1).and_then(|s| s.parse::<u16>().ok())?;
    let length: usize = head
        .lines()
        .find_map(|l| l.strip_prefix("Content-Length: "))
        .and_then(|v| v.trim().parse().ok())?;
    let end = head_end + 4 + length;
    (buf.len() >= end).then_some((status, head_end + 4, end))
}

/// One request/response exchange; `None` if the connection failed or
/// timed out.
pub fn call(
    stream: &mut TcpStream,
    reader: &mut Reader,
    request: &[u8],
    body: &mut Vec<u8>,
) -> Option<u16> {
    stream.write_all(request).ok()?;
    reader.next(body, Instant::now() + RESPONSE_TIMEOUT).ok()
}

/// Answers a batch of point queries with one `POST /reach/<graph>`.
pub fn batch_query(addr: SocketAddr, graph: &str, queries: &[(V, V)]) -> Result<Vec<bool>, String> {
    let mut body = Vec::new();
    for &(u, v) in queries {
        push_digits(&mut body, u as u64);
        body.push(b' ');
        push_digits(&mut body, v as u64);
        body.push(b'\n');
    }
    let mut request = Vec::new();
    push_post(&mut request, &format!("/reach/{graph}"), &body);
    let mut stream = connect(addr);
    let mut reader = Reader::new(stream.try_clone().expect("clone stream"));
    let mut answer = Vec::new();
    match call(&mut stream, &mut reader, &request, &mut answer) {
        Some(200) => {}
        other => return Err(format!("batch check query failed: status {other:?}")),
    }
    let bits: Vec<bool> = answer.iter().take(queries.len()).map(|&b| b == b'1').collect();
    if bits.len() != queries.len() {
        return Err("batch check query returned too few answers".to_string());
    }
    Ok(bits)
}

/// Outcome of one open-loop phase.
pub struct OpenLoop {
    /// Every request sent, in order.
    pub pairs: Vec<(V, V)>,
    /// Per request: `Some(answer)` or `None` when it failed.
    pub answers: Vec<Option<bool>>,
    /// Seconds from when each request was due to its response;
    /// failures read [`FAILED_LATENCY_S`].
    pub latency_s: Vec<f64>,
    /// How late the generator ran behind its schedule, at worst.
    pub lateness_max_s: f64,
    pub failed: u64,
}

/// Sends point queries on one connection at a fixed `rate` until `stop`
/// is set, each timed from when it was due. A sender thread writes every
/// request whose time has come; a reader thread reads responses in order.
pub fn open_loop(
    addr: SocketAddr,
    graph: &str,
    rate: f64,
    stop: &AtomicBool,
    mut next_pair: impl FnMut() -> (V, V) + Send,
) -> OpenLoop {
    let stream = connect(addr);
    let mut reader = Reader::new(stream.try_clone().expect("clone stream"));
    let mut writer = stream;
    let sent = AtomicUsize::new(0);
    let sender_done = AtomicBool::new(false);
    let interval_ns = 1e9 / rate;
    let t0 = Instant::now();
    let t0_ns = trace::now();
    let due = move |i: usize| t0 + Duration::from_nanos((i as f64 * interval_ns) as u64);
    std::thread::scope(|scope| {
        let sender = scope.spawn(|| {
            let mut pairs = Vec::with_capacity(1 << 20);
            let mut request = Vec::with_capacity(4096);
            let mut worst = 0.0f64;
            'send: while !stop.load(Ordering::Relaxed) {
                let now = Instant::now();
                request.clear();
                while due(pairs.len()) <= now {
                    worst = worst.max((now - due(pairs.len())).as_secs_f64());
                    let pair = next_pair();
                    push_get(&mut request, graph, pair);
                    pairs.push(pair);
                }
                if !request.is_empty() {
                    if writer.write_all(&request).is_err() {
                        break 'send;
                    }
                    sent.store(pairs.len(), Ordering::Release);
                }
                let next = due(pairs.len());
                let now = Instant::now();
                if next > now {
                    std::thread::sleep(next - now);
                }
            }
            sender_done.store(true, Ordering::Release);
            (pairs, worst)
        });
        let receiver = scope.spawn(|| {
            let mut answers: Vec<Option<bool>> = Vec::new();
            let mut latency_s: Vec<f64> = Vec::new();
            let mut spans: Vec<(u64, u64)> = Vec::new();
            let mut body = Vec::new();
            let mut failed = 0u64;
            let mut last_progress = Instant::now();
            loop {
                let outstanding = sent.load(Ordering::Acquire) - answers.len();
                if outstanding == 0
                    && sender_done.load(Ordering::Acquire)
                    && sent.load(Ordering::Acquire) == answers.len()
                {
                    break;
                }
                // Block in `read` even with nothing outstanding, so a
                // response is stamped when it arrives, not when polled.
                let i = answers.len();
                match reader.next(&mut body, Instant::now() + Duration::from_millis(1)) {
                    Ok(200) if body.len() == 1 => {
                        let d = due(i);
                        let lat = reader.read_at.saturating_duration_since(d);
                        latency_s.push(lat.as_secs_f64());
                        answers.push(Some(body[0] == b'1'));
                        if trace::enabled() {
                            let start = t0_ns + (d - t0).as_nanos() as u64;
                            spans.push((start, start + lat.as_nanos() as u64));
                        }
                        last_progress = Instant::now();
                    }
                    Ok(_) => {
                        latency_s.push(FAILED_LATENCY_S);
                        answers.push(None);
                        failed += 1;
                        last_progress = Instant::now();
                    }
                    Err(e) => {
                        let stalled = outstanding > 0 && last_progress.elapsed() > RESPONSE_TIMEOUT;
                        if e.kind() == std::io::ErrorKind::TimedOut && !stalled {
                            if outstanding == 0 {
                                last_progress = Instant::now();
                            }
                            continue;
                        }
                        // Timed out or the connection died: everything
                        // still outstanding failed.
                        while !sender_done.load(Ordering::Acquire) {
                            std::thread::sleep(Duration::from_millis(1));
                        }
                        while answers.len() < sent.load(Ordering::Acquire) {
                            latency_s.push(FAILED_LATENCY_S);
                            answers.push(None);
                            failed += 1;
                        }
                        break;
                    }
                }
            }
            trace::record_many("client", "get", &spans);
            (answers, latency_s, failed)
        });
        let (pairs, lateness_max_s) = sender.join().expect("open-loop sender");
        let (answers, latency_s, failed) = receiver.join().expect("open-loop receiver");
        OpenLoop { pairs, answers, latency_s, lateness_max_s, failed }
    })
}

/// Outcome of one closed-loop phase.
#[derive(Default)]
pub struct ClosedLoop {
    pub answered: u64,
    pub failed: u64,
    pub elapsed_s: f64,
    /// Round-trip seconds of each pipelined window.
    pub window_rtt_s: Vec<f64>,
    /// The first query of every window and its answer, for checking.
    pub sampled: Vec<((V, V), bool)>,
}

/// One connection per generator, each keeping one pipelined window of
/// `window` point queries from its generator in flight until `duration`
/// has passed. A window that fails counts every query in it as failed
/// and reads [`FAILED_LATENCY_S`] as its round trip.
pub fn closed_loop<G: FnMut() -> (V, V) + Send>(
    addr: SocketAddr,
    graph: &str,
    window: usize,
    duration: Duration,
    generators: Vec<G>,
) -> ClosedLoop {
    let started = Instant::now();
    let results: Vec<ClosedLoop> = std::thread::scope(|scope| {
        let handles: Vec<_> = generators
            .into_iter()
            .map(|mut next_pair| {
                scope.spawn(move || {
                    let mut stream = connect(addr);
                    let mut reader = Reader::new(stream.try_clone().expect("clone stream"));
                    let mut request = Vec::with_capacity(window * 48);
                    let mut pairs = Vec::with_capacity(window);
                    let mut body = Vec::new();
                    let mut out = ClosedLoop::default();
                    let mut spans: Vec<(u64, u64)> = Vec::new();
                    while started.elapsed() < duration {
                        request.clear();
                        pairs.clear();
                        for _ in 0..window {
                            let pair = next_pair();
                            push_get(&mut request, graph, pair);
                            pairs.push(pair);
                        }
                        let t = Instant::now();
                        let t_ns = trace::now();
                        if stream.write_all(&request).is_err() {
                            out.failed += window as u64;
                            out.window_rtt_s.push(FAILED_LATENCY_S);
                            break;
                        }
                        let give_up = t + RESPONSE_TIMEOUT;
                        for (k, &pair) in pairs.iter().enumerate() {
                            match reader.next(&mut body, give_up) {
                                Ok(200) if body.len() == 1 => {
                                    out.answered += 1;
                                    if k == 0 {
                                        out.sampled.push((pair, body[0] == b'1'));
                                    }
                                }
                                Ok(_) => out.failed += 1,
                                Err(_) => {
                                    out.failed += (window - k) as u64;
                                    out.window_rtt_s.push(FAILED_LATENCY_S);
                                    return out;
                                }
                            }
                        }
                        out.window_rtt_s.push(t.elapsed().as_secs_f64());
                        if trace::enabled() {
                            spans.push((t_ns, trace::now()));
                        }
                    }
                    trace::record_many("client", "window", &spans);
                    out
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("closed-loop client")).collect()
    });
    let mut total = ClosedLoop { elapsed_s: started.elapsed().as_secs_f64(), ..Default::default() };
    for r in results {
        total.answered += r.answered;
        total.failed += r.failed;
        total.window_rtt_s.extend(r.window_rtt_s);
        total.sampled.extend(r.sampled);
    }
    total
}
