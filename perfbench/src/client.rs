//! A `pncheckd` in this process, listening on loopback TCP, and the
//! client side of its `pncheckd/1` framing: one request line out, one
//! header line plus exactly `bytes` payload bytes back.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::thread::{self, JoinHandle};

use pnew_detector::server::{parse_json, JsonNode, Server, ServerConfig};

/// A running daemon: a real [`Server`] behind `serve_listener`.
pub struct Daemon {
    addr: SocketAddr,
    server: Arc<Server>,
    thread: Option<JoinHandle<io::Result<()>>>,
}

impl Daemon {
    pub fn start(config: ServerConfig) -> Result<Daemon, String> {
        let server = Arc::new(Server::new(config).map_err(|e| format!("server: {e}"))?);
        let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
        let addr = listener.local_addr().map_err(|e| format!("bind: {e}"))?;
        let serving = Arc::clone(&server);
        let thread = thread::spawn(move || serving.serve_listener(listener));
        Ok(Daemon { addr, server, thread: Some(thread) })
    }

    pub fn connect(&self) -> Result<Conn, String> {
        let stream = TcpStream::connect(self.addr).map_err(|e| format!("connect: {e}"))?;
        stream.set_nodelay(true).map_err(|e| format!("nodelay: {e}"))?;
        Ok(Conn { stream, buf: Vec::new() })
    }

    /// Sends `shutdown` and waits for the serving thread to finish.
    pub fn stop(mut self) -> Result<(), String> {
        let mut conn = self.connect()?;
        conn.call(r#"{"op":"shutdown"}"#)?;
        drop(conn);
        self.join()
    }

    fn join(&mut self) -> Result<(), String> {
        match self.thread.take().map(JoinHandle::join) {
            Some(Ok(Ok(()))) | None => Ok(()),
            Some(Ok(Err(e))) => Err(format!("serve_listener: {e}")),
            Some(Err(_)) => Err("serve_listener panicked".into()),
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        // A run that bails out early must still stop its daemon.
        if self.thread.is_some() && !self.server.is_shutdown() {
            if let Ok(mut conn) = self.connect() {
                let _ = conn.call(r#"{"op":"shutdown"}"#);
            }
        }
        let _ = self.join();
    }
}

/// One framed reply.
pub struct Frame {
    pub header: JsonNode,
    pub payload: String,
}

impl Frame {
    /// The header field `key`, if present.
    pub fn get(&self, key: &str) -> Option<&JsonNode> {
        field(&self.header, key)
    }

    pub fn ok(&self) -> bool {
        matches!(self.get("ok"), Some(JsonNode::Bool(true)))
    }
}

/// Field `key` of a JSON object.
pub fn field<'a>(node: &'a JsonNode, key: &str) -> Option<&'a JsonNode> {
    match node {
        JsonNode::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

/// `text` as a JSON string literal. Only for text made of printable
/// ASCII, spaces and newlines — file paths and generated `.pnx` sources
/// — for which Rust's `{:?}` quoting is exactly JSON's.
pub fn quote(text: &str) -> Result<String, String> {
    if text.chars().all(|c| c.is_ascii_graphic() || c == ' ' || c == '\n') {
        Ok(format!("{text:?}"))
    } else {
        Err(format!("{:?} is not plain ASCII text", &text[..text.len().min(40)]))
    }
}

/// The `analysis` block of a daemon's `stats` reply: its lifetime
/// engine, tier and cache counters.
pub struct Stats(JsonNode);

impl Stats {
    pub fn fetch(conn: &mut Conn) -> Result<Stats, String> {
        let reply = conn.call(r#"{"op":"stats"}"#)?;
        let stats = parse_json(reply.payload.trim_end()).map_err(|e| format!("stats: {e}"))?;
        field(&stats, "analysis")
            .cloned()
            .map(Stats)
            .ok_or_else(|| "stats: no analysis block".into())
    }

    /// Counter `key` (0 when absent).
    pub fn get(&self, key: &str) -> f64 {
        int(&self.0, key).unwrap_or(0) as f64
    }

    /// How far counter `key` moved since `before`.
    pub fn since(&self, before: &Stats, key: &str) -> f64 {
        self.get(key) - before.get(key)
    }
}

/// Integer field `key` of a JSON object.
pub fn int(node: &JsonNode, key: &str) -> Option<i64> {
    match field(node, key) {
        Some(JsonNode::Int(n)) => Some(*n),
        _ => None,
    }
}

/// A client connection with its own receive buffer.
pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Conn {
    /// Writes one request line. Works on blocking and non-blocking
    /// sockets alike.
    pub fn send(&mut self, line: &str) -> Result<(), String> {
        let mut bytes = Vec::with_capacity(line.len() + 1);
        bytes.extend_from_slice(line.as_bytes());
        bytes.push(b'\n');
        let mut sent = 0;
        while sent < bytes.len() {
            match self.stream.write(&bytes[sent..]) {
                Ok(0) => return Err("send: connection closed".into()),
                Ok(n) => sent += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    thread::sleep(std::time::Duration::from_micros(50))
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(format!("send: {e}")),
            }
        }
        Ok(())
    }

    /// Blocks until one whole reply has arrived.
    pub fn recv(&mut self) -> Result<Frame, String> {
        loop {
            if let Some(frame) = self.take_frame()? {
                return Ok(frame);
            }
            if !self.fill()? {
                return Err("connection closed mid-reply".into());
            }
        }
    }

    /// One request, one reply.
    pub fn call(&mut self, line: &str) -> Result<Frame, String> {
        self.send(line)?;
        self.recv()
    }

    /// Makes [`fill`](Self::fill) return at once when nothing arrived.
    pub fn set_nonblocking(&self, on: bool) -> Result<(), String> {
        self.stream.set_nonblocking(on).map_err(|e| format!("nonblocking: {e}"))
    }

    /// One `read` into the buffer. `Ok(false)` on EOF; on a
    /// non-blocking socket with nothing to read, reads nothing and
    /// returns `Ok(true)`.
    pub fn fill(&mut self) -> Result<bool, String> {
        let mut chunk = [0u8; 64 * 1024];
        match self.stream.read(&mut chunk) {
            Ok(0) => Ok(false),
            Ok(n) => {
                self.buf.extend_from_slice(&chunk[..n]);
                Ok(true)
            }
            Err(e) if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) => {
                Ok(true)
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => Ok(true),
            Err(e) => Err(format!("recv: {e}")),
        }
    }

    /// Splits one complete reply off the buffer, if there is one.
    pub fn take_frame(&mut self) -> Result<Option<Frame>, String> {
        let Some(nl) = self.buf.iter().position(|&b| b == b'\n') else {
            return Ok(None);
        };
        let head = std::str::from_utf8(&self.buf[..nl]).map_err(|e| format!("header: {e}"))?;
        let header = parse_json(head).map_err(|e| format!("header {head:?}: {e}"))?;
        let bytes = int(&header, "bytes").ok_or_else(|| format!("header {head:?}: no bytes"))?;
        let end = nl + 1 + bytes as usize;
        if self.buf.len() < end {
            return Ok(None);
        }
        let payload = String::from_utf8(self.buf[nl + 1..end].to_vec())
            .map_err(|e| format!("payload: {e}"))?;
        self.buf.drain(..end);
        Ok(Some(Frame { header, payload }))
    }
}
