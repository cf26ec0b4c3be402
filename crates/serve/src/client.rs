//! Minimal blocking HTTP client.
//!
//! Used by the integration tests and the load generator — one
//! persistent keep-alive connection per `Client`, so request latency
//! measures the server, not TCP handshakes.

use serde_json::Value;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};

/// Cap on response headers: a misbehaving server must not make the
/// client buffer header lines without limit.
const MAX_RESPONSE_HEADERS: usize = 128;

/// A parsed response.
#[derive(Debug)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// Header name/value pairs in arrival order.
    pub headers: Vec<(String, String)>,
    /// Raw body bytes.
    pub body: Vec<u8>,
}

impl Response {
    /// First header value matching `name` (case-insensitive).
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// Body parsed as JSON.
    pub fn json(&self) -> Result<Value, serde_json::Error> {
        serde_json::from_slice(&self.body)
    }

    /// Body as UTF-8 text (lossy).
    pub fn text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

/// One keep-alive connection to the server.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    /// Connects.
    pub fn connect(addr: SocketAddr) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let writer = stream.try_clone()?;
        Ok(Client { reader: BufReader::new(stream), writer })
    }

    /// Sends a request and blocks for the response.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&Value>,
    ) -> std::io::Result<Response> {
        let payload = body.map(|v| v.to_string()).unwrap_or_default();
        let head = format!(
            "{method} {path} HTTP/1.1\r\nHost: nd-serve\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n",
            payload.len()
        );
        self.writer.write_all(head.as_bytes())?;
        self.writer.write_all(payload.as_bytes())?;
        self.writer.flush()?;
        self.read_response()
    }

    /// `GET path`.
    pub fn get(&mut self, path: &str) -> std::io::Result<Response> {
        self.request("GET", path, None)
    }

    /// `POST path` with a JSON body.
    pub fn post_json(&mut self, path: &str, body: &Value) -> std::io::Result<Response> {
        self.request("POST", path, Some(body))
    }

    fn read_line(&mut self) -> std::io::Result<String> {
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed mid-response",
            ));
        }
        while line.ends_with('\n') || line.ends_with('\r') {
            line.pop();
        }
        Ok(line)
    }

    fn read_response(&mut self) -> std::io::Result<Response> {
        let bad = |msg: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, msg.to_string());
        let status_line = self.read_line()?;
        let status = status_line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse::<u16>().ok())
            .ok_or_else(|| bad("bad status line"))?;
        let mut headers = Vec::new();
        loop {
            let line = self.read_line()?;
            if line.is_empty() {
                break;
            }
            let (name, value) = line.split_once(':').ok_or_else(|| bad("bad header"))?;
            if headers.len() >= MAX_RESPONSE_HEADERS {
                return Err(bad("too many headers"));
            }
            headers.push((name.trim().to_string(), value.trim().to_string()));
        }
        let content_length = headers
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case("content-length"))
            .and_then(|(_, v)| v.parse::<usize>().ok())
            .ok_or_else(|| bad("missing content-length"))?;
        let mut body = vec![0u8; content_length];
        self.reader.read_exact(&mut body)?;
        Ok(Response { status, headers, body })
    }
}
