//! The live inspection endpoint: a std-only HTTP/1.1 server.
//!
//! [`ObsServer::start`] binds a `TcpListener` on a background thread and
//! serves four routes out of the global observability state:
//!
//! * `/metrics` — the registry snapshot in Prometheus text format
//!   ([`crate::prom`]);
//! * `/funnel` — the diagnosis funnel as JSON (stage labels and counter
//!   names are supplied by the caller, so this crate stays agnostic of
//!   pipeline metric names, matching [`crate::report::render_report`]);
//! * `/waitfor` (JSON) and `/waitfor.dot` (Graphviz) — the lock
//!   manager's live wait-for graph plus the last detected deadlock
//!   ([`crate::waitfor`]);
//! * `/` — a self-contained HTML dashboard (no external assets) that
//!   polls `/waitfor`, `/funnel`, and `/metrics` and draws the graph and
//!   funnel.
//!
//! The HTTP layer is deliberately minimal — hand-rolled request-line
//! parsing, `Connection: close`, one connection at a time — in the same
//! spirit as the store's hand-rolled JSON: no new dependencies for a
//! protocol subset a few dozen lines cover. A request head longer than
//! 16 KiB is refused with `431` instead of being buffered.
//! `reproduce --serve <addr>` starts it for the duration of a run.

use crate::snapshot::write_json_string;
use std::io::{BufRead, BufReader, Read as _, Write as _};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Duration;

/// The embedded dashboard page served at `/`.
const DASHBOARD_HTML: &str = include_str!("dashboard.html");

/// The longest request head (request line plus headers) the server reads.
const MAX_HEAD_BYTES: u64 = 16 * 1024;

/// How much of a refused request's remaining input the server discards
/// before closing (closing on unread input resets the connection, which
/// can destroy the refusal before the client reads it).
const DRAIN_BYTES: u64 = 1 << 20;

/// An application-supplied route extension for [`ObsServer::start_with`]:
/// given the request path (query string already stripped), return
/// `Some((status, content_type, body))` to serve it (`status` is the
/// status line's tail, e.g. `"200 OK"`), or `None` to fall through to the
/// built-in 404. Handlers run on the server thread, one request at a
/// time — a long-running handler (e.g. a daemon analyzing an app on
/// demand) simply holds the connection.
pub type RouteHandler = dyn Fn(&str) -> Option<(&'static str, String, String)> + Send + Sync;

/// A running observability endpoint. Dropping the handle (or calling
/// [`ObsServer::stop`]) shuts the listener thread down.
#[derive(Debug)]
pub struct ObsServer {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl ObsServer {
    /// Bind `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and start
    /// serving. `funnel` lists the diagnosis-funnel stages for `/funnel`
    /// as `(label, counter name)` pairs, outermost first.
    pub fn start(
        addr: impl ToSocketAddrs,
        funnel: &'static [(&'static str, &'static str)],
    ) -> std::io::Result<ObsServer> {
        Self::start_with(addr, funnel, None)
    }

    /// Like [`ObsServer::start`], with extra application routes: `extra`
    /// is consulted for any path the built-in routes don't claim (so a
    /// daemon can add `/analyze/<app>` and `/shards` next to `/metrics`).
    pub fn start_with(
        addr: impl ToSocketAddrs,
        funnel: &'static [(&'static str, &'static str)],
        extra: Option<Arc<RouteHandler>>,
    ) -> std::io::Result<ObsServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        // Poll for shutdown between accepts instead of blocking forever.
        listener.set_nonblocking(true)?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let flag = shutdown.clone();
        let handle = std::thread::Builder::new()
            .name("obs.serve".to_string())
            .spawn(move || {
                while !flag.load(Relaxed) {
                    match listener.accept() {
                        Ok((stream, _)) => {
                            // One request per connection; errors on a
                            // single connection must not kill the server.
                            let _ = handle_connection(stream, funnel, extra.as_deref());
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                            std::thread::sleep(Duration::from_millis(20));
                        }
                        Err(_) => break,
                    }
                }
            })
            .expect("spawn obs server thread");
        Ok(ObsServer {
            addr,
            shutdown,
            handle: Some(handle),
        })
    }

    /// The bound address (resolves port 0 to the ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop the listener thread and wait for it to exit.
    pub fn stop(mut self) {
        self.shutdown_and_join();
    }

    fn shutdown_and_join(&mut self) {
        self.shutdown.store(true, Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for ObsServer {
    fn drop(&mut self) {
        self.shutdown_and_join();
    }
}

/// The funnel JSON: `{"stages":[{"label":..,"counter":..,"value":..}..]}`
/// with `null` values for counters that have not been recorded.
fn funnel_json(funnel: &[(&str, &str)]) -> String {
    let snap = crate::snapshot();
    let mut out = String::from("{\"stages\":[");
    for (i, (label, counter)) in funnel.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"label\":");
        write_json_string(&mut out, label);
        out.push_str(",\"counter\":");
        write_json_string(&mut out, counter);
        out.push_str(",\"value\":");
        if snap.counters.contains_key(*counter) {
            out.push_str(&snap.counter(counter).to_string());
        } else {
            out.push_str("null");
        }
        out.push('}');
    }
    out.push_str("]}");
    out
}

fn handle_connection(
    stream: TcpStream,
    funnel: &[(&str, &str)],
    extra: Option<&RouteHandler>,
) -> std::io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    stream.set_write_timeout(Some(Duration::from_secs(5)))?;
    let mut reader = BufReader::new(stream.take(MAX_HEAD_BYTES));
    let mut request_line = Vec::new();
    reader.read_until(b'\n', &mut request_line)?;
    // Drain the headers; nothing in them matters to these routes.
    let mut line = request_line.clone();
    while line.ends_with(b"\n") && line != b"\r\n" && line != b"\n" {
        line.clear();
        reader.read_until(b'\n', &mut line)?;
    }
    let head = reader.into_inner();
    let out_of_room = !line.ends_with(b"\n") && head.limit() == 0;
    let stream = head.into_inner();
    if out_of_room {
        respond(
            &stream,
            "431 Request Header Fields Too Large",
            "text/plain; charset=utf-8",
            &format!("request head exceeds {MAX_HEAD_BYTES} bytes\n"),
        )?;
        stream.shutdown(Shutdown::Write)?;
        std::io::copy(&mut (&stream).take(DRAIN_BYTES), &mut std::io::sink())?;
        return Ok(());
    }

    let request_line = String::from_utf8_lossy(&request_line);
    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or("");
    let path = parts.next().unwrap_or("");
    // Ignore any query string: `/waitfor?x=1` routes like `/waitfor`.
    let route = path.split('?').next().unwrap_or("");

    let (status, content_type, body) = if method != "GET" {
        (
            "405 Method Not Allowed",
            "text/plain; charset=utf-8",
            "only GET is supported\n".to_string(),
        )
    } else {
        match route {
            "/" | "/index.html" => (
                "200 OK",
                "text/html; charset=utf-8",
                DASHBOARD_HTML.to_string(),
            ),
            "/metrics" => (
                "200 OK",
                "text/plain; version=0.0.4; charset=utf-8",
                crate::prom::render_prometheus(&crate::snapshot()),
            ),
            "/funnel" => (
                "200 OK",
                "application/json; charset=utf-8",
                funnel_json(funnel),
            ),
            "/waitfor" => (
                "200 OK",
                "application/json; charset=utf-8",
                crate::waitfor::to_json(&crate::waitfor::snapshot()),
            ),
            "/waitfor.dot" => (
                "200 OK",
                "text/vnd.graphviz; charset=utf-8",
                crate::waitfor::to_dot(&crate::waitfor::snapshot()),
            ),
            _ => match extra.and_then(|h| h(route)) {
                Some((status, content_type, body)) => {
                    return respond(&stream, status, &content_type, &body)
                }
                None => (
                    "404 Not Found",
                    "text/plain; charset=utf-8",
                    format!("no route {route}\n"),
                ),
            },
        }
    };
    respond(&stream, status, content_type, &body)
}

fn respond(
    mut stream: &TcpStream,
    status: &str,
    content_type: &str,
    body: &str,
) -> std::io::Result<()> {
    write!(
        stream,
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    )?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    const TEST_FUNNEL: &[(&str, &str)] = &[
        ("stage one", "http_test.stage1"),
        ("stage two", "http_test.stage2"),
    ];

    fn get(addr: SocketAddr, path: &str) -> (String, String) {
        let mut s = TcpStream::connect(addr).expect("connect");
        write!(s, "GET {path} HTTP/1.1\r\nHost: test\r\n\r\n").unwrap();
        let mut response = String::new();
        s.read_to_string(&mut response).unwrap();
        let (head, body) = response
            .split_once("\r\n\r\n")
            .expect("header/body separator");
        (head.to_string(), body.to_string())
    }

    #[test]
    fn serves_all_routes() {
        let _l = crate::global_test_lock();
        crate::set_enabled(true);
        crate::add("http_test.stage1", 10);
        crate::add("http_test.stage2", 3);
        crate::waitfor::reset();
        crate::waitfor::update_edges(vec![(1, 2)]);
        crate::set_enabled(false);

        let server = ObsServer::start("127.0.0.1:0", TEST_FUNNEL).expect("bind");
        let addr = server.local_addr();

        let (head, body) = get(addr, "/metrics");
        assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
        assert!(head.contains("text/plain; version=0.0.4"));
        assert!(body.contains("weseer_http_test_stage1_total 10"));

        let (head, body) = get(addr, "/funnel");
        assert!(head.contains("application/json"));
        assert!(body
            .contains("{\"label\":\"stage one\",\"counter\":\"http_test.stage1\",\"value\":10}"));

        let (_, body) = get(addr, "/waitfor");
        assert!(body.contains("{\"waiter\":1,\"holder\":2}"));

        let (head, body) = get(addr, "/waitfor.dot");
        assert!(head.contains("text/vnd.graphviz"));
        assert!(body.starts_with("digraph waitfor {"));

        let (head, body) = get(addr, "/");
        assert!(head.contains("text/html"));
        assert!(body.contains("<html"));
        assert!(body.contains("Wait-for graph"));

        let (head, _) = get(addr, "/nope");
        assert!(head.starts_with("HTTP/1.1 404"));

        // Query strings route to the bare path.
        let (head, _) = get(addr, "/waitfor?poll=1");
        assert!(head.starts_with("HTTP/1.1 200"));

        server.stop();
        crate::waitfor::reset();
    }

    #[test]
    fn oversized_request_head_is_refused_and_the_server_keeps_serving() {
        let server = ObsServer::start("127.0.0.1:0", TEST_FUNNEL).expect("bind");
        let mut s = TcpStream::connect(server.local_addr()).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        // A 64 KiB request line with no newline.
        s.write_all(&[b'a'; 64 * 1024]).unwrap();
        let mut response = String::new();
        s.read_to_string(&mut response).unwrap();
        assert!(
            response.starts_with("HTTP/1.1 431"),
            "{:?}",
            &response[..response.len().min(80)]
        );
        drop(s);

        let (head, _) = get(server.local_addr(), "/metrics");
        assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
        server.stop();
    }

    #[test]
    fn rejects_non_get() {
        let server = ObsServer::start("127.0.0.1:0", TEST_FUNNEL).expect("bind");
        let mut s = TcpStream::connect(server.local_addr()).unwrap();
        write!(s, "POST /metrics HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
        let mut response = String::new();
        s.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.1 405"));
        server.stop();
    }
}
