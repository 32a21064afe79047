//! A minimal HTTP/1.1 client for the REST workload: one request per
//! connection (the gateway answers one request and closes), with the
//! client-side spans the per-layer report needs.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use crate::trace;

pub struct Response {
    pub status: u16,
    pub body: String,
}

/// Send one request and read the whole response. `req` ties the client
/// spans of this request together in the trace.
pub fn request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &[u8],
    req: u64,
) -> std::io::Result<Response> {
    let _whole = trace::span("cli.rest.request", req);
    let mut stream = {
        let _s = trace::span("cli.rest.connect", 0);
        TcpStream::connect_timeout(&addr, Duration::from_secs(5))?
    };
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(Duration::from_secs(10)))?;

    let mut msg = format!(
        "{method} {path} HTTP/1.1\r\nhost: bench\r\ncontent-length: {}\r\nconnection: close\r\n\r\n",
        body.len()
    )
    .into_bytes();
    msg.extend_from_slice(body);
    stream.write_all(&msg)?;

    let mut raw = Vec::with_capacity(2048);
    let mut buf = [0u8; 16 * 1024];
    {
        // From the request being written to the first response byte.
        let _s = trace::span("cli.rest.ttfb", 0);
        let n = stream.read(&mut buf)?;
        raw.extend_from_slice(&buf[..n]);
    }
    {
        let _s = trace::span("cli.rest.read_body", 0);
        loop {
            match stream.read(&mut buf)? {
                0 => break,
                n => raw.extend_from_slice(&buf[..n]),
            }
        }
    }

    let text = String::from_utf8_lossy(&raw);
    let status = text
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| std::io::Error::other("no status line"))?;
    let body = text
        .split_once("\r\n\r\n")
        .map_or(String::new(), |(_, b)| b.to_string());
    Ok(Response { status, body })
}
