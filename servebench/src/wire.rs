//! The load generator's side of the socket: a few keep-alive HTTP/1.1
//! connections driven by one thread. Requests are written the moment
//! they are due, whether or not earlier ones were answered (the edge
//! supports pipelining), and responses are matched to requests in order.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::time::Instant;

use crate::sys::{self, PollFd, POLLIN, POLLOUT};

/// `GET /v1/classify/{app}` as the generator sends it.
pub fn classify_request(app: u64) -> Vec<u8> {
    format!("GET /v1/classify/{app} HTTP/1.1\r\ncontent-length: 0\r\n\r\n").into_bytes()
}

/// `POST /v1/events` carrying an NDJSON body.
pub fn ingest_request(ndjson: &str) -> Vec<u8> {
    let mut out = format!(
        "POST /v1/events HTTP/1.1\r\ncontent-length: {}\r\n\r\n",
        ndjson.len()
    )
    .into_bytes();
    out.extend_from_slice(ndjson.as_bytes());
    out
}

/// A complete response at the front of `buf`: `(status, body range,
/// bytes consumed)`. `Ok(None)` means more bytes are needed.
pub fn parse_response(buf: &[u8]) -> Result<Option<(u16, std::ops::Range<usize>, usize)>, String> {
    let Some(head_len) = buf.windows(4).position(|w| w == b"\r\n\r\n").map(|i| i + 4) else {
        return Ok(None);
    };
    let head = std::str::from_utf8(&buf[..head_len - 4]).map_err(|_| "non-UTF-8 head")?;
    let mut lines = head.split("\r\n");
    let status = lines
        .next()
        .and_then(|l| l.split(' ').nth(1))
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| format!("bad status line in {head:?}"))?;
    let mut content_length = 0usize;
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value
                    .trim()
                    .parse()
                    .map_err(|_| format!("bad content-length in {head:?}"))?;
            }
        }
    }
    if buf.len() < head_len + content_length {
        return Ok(None);
    }
    Ok(Some((
        status,
        head_len..head_len + content_length,
        head_len + content_length,
    )))
}

/// A request on the wire, awaiting its response.
#[derive(Debug, Clone, Copy)]
pub struct Sent {
    /// When it was due (open loop) or issued (closed loop).
    pub due: Instant,
    /// When its bytes were handed to the socket.
    pub sent: Instant,
    /// Caller's label (an app id or a batch index).
    pub tag: u64,
}

/// One response, matched to its request.
#[derive(Debug)]
pub struct Reply {
    /// Connection index.
    pub conn: usize,
    /// The request it answers.
    pub req: Sent,
    /// HTTP status.
    pub status: u16,
    /// Body bytes.
    pub body: Vec<u8>,
    /// When the bytes were read.
    pub at: Instant,
}

struct Conn {
    stream: TcpStream,
    out: Vec<u8>,
    written: usize,
    inbuf: Vec<u8>,
    inflight: VecDeque<Sent>,
}

impl Conn {
    fn flush(&mut self) -> io::Result<()> {
        while self.written < self.out.len() {
            match self.stream.write(&self.out[self.written..]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => self.written += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        if self.written == self.out.len() {
            self.out.clear();
            self.written = 0;
        }
        Ok(())
    }

    fn read_replies(&mut self, conn: usize, replies: &mut Vec<Reply>) -> io::Result<()> {
        let mut chunk = [0u8; 64 * 1024];
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "the edge closed the connection",
                    ))
                }
                Ok(n) => self.inbuf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        let at = Instant::now();
        let mut consumed = 0;
        while let Some((status, body, used)) = parse_response(&self.inbuf[consumed..])
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?
        {
            let req = self.inflight.pop_front().ok_or_else(|| {
                io::Error::new(io::ErrorKind::InvalidData, "a response nobody asked for")
            })?;
            replies.push(Reply {
                conn,
                req,
                status,
                body: self.inbuf[consumed + body.start..consumed + body.end].to_vec(),
                at,
            });
            consumed += used;
        }
        self.inbuf.drain(..consumed);
        Ok(())
    }
}

/// Keep-alive connections to one edge, driven from the calling thread.
pub struct Generator {
    conns: Vec<Conn>,
}

impl Generator {
    /// Opens `n` connections to `addr`.
    pub fn connect(addr: SocketAddr, n: usize) -> io::Result<Generator> {
        sys::tighten_timer_slack();
        let conns = (0..n)
            .map(|_| {
                let stream = TcpStream::connect(addr)?;
                stream.set_nodelay(true)?;
                stream.set_nonblocking(true)?;
                Ok(Conn {
                    stream,
                    out: Vec::new(),
                    written: 0,
                    inbuf: Vec::new(),
                    inflight: VecDeque::new(),
                })
            })
            .collect::<io::Result<Vec<_>>>()?;
        Ok(Generator { conns })
    }

    /// Writes `request` on connection `conn` now; `due` is when it was
    /// meant to go.
    pub fn send(&mut self, conn: usize, request: &[u8], due: Instant, tag: u64) -> io::Result<()> {
        let c = &mut self.conns[conn];
        c.out.extend_from_slice(request);
        c.inflight.push_back(Sent {
            due,
            sent: Instant::now(),
            tag,
        });
        c.flush()
    }

    /// Requests not yet answered, over all connections.
    pub fn total_in_flight(&self) -> usize {
        self.conns.iter().map(|c| c.inflight.len()).sum()
    }

    /// Waits until a response arrives or `until` passes (`None`: until a
    /// response arrives), appending every complete response to `replies`.
    /// An error is a transport failure; the connection state is then
    /// unusable.
    pub fn poll(&mut self, until: Option<Instant>, replies: &mut Vec<Reply>) -> io::Result<()> {
        let mut fds: Vec<PollFd> = self
            .conns
            .iter()
            .map(|c| {
                let write = if c.out.is_empty() { 0 } else { POLLOUT };
                PollFd::new(c.stream.as_raw_fd(), POLLIN | write)
            })
            .collect();
        let timeout = until.map(|t| t.saturating_duration_since(Instant::now()));
        sys::wait(&mut fds, timeout)?;
        for (i, fd) in fds.iter().enumerate() {
            if !fd.ready() {
                continue;
            }
            let conn = &mut self.conns[i];
            if fd.writable() {
                conn.flush()?;
            }
            conn.read_replies(i, replies)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn responses_parse_in_pipeline_order() {
        let two = b"HTTP/1.1 200 OK\r\ncontent-type: application/json\r\ncontent-length: 2\r\n\r\n{}\
                    HTTP/1.1 429 Too Many Requests\r\ncontent-length: 3\r\nretry-after: 1\r\n\r\nabc";
        let (status, body, used) = parse_response(two).unwrap().unwrap();
        assert_eq!((status, &two[body]), (200, &b"{}"[..]));
        let (status, body, rest) = parse_response(&two[used..]).unwrap().unwrap();
        assert_eq!((status, &two[used..][body]), (429, &b"abc"[..]));
        assert_eq!(used + rest, two.len());
        assert_eq!(parse_response(&two[..used - 1]).unwrap(), None);
        assert!(parse_response(b"garbage\r\n\r\n").is_err());
    }

    #[test]
    fn requests_frame_their_bodies() {
        let r = ingest_request("{\"a\":1}\n{\"b\":2}");
        let text = String::from_utf8(r).unwrap();
        assert!(text.starts_with("POST /v1/events HTTP/1.1\r\ncontent-length: 15\r\n\r\n"));
        assert!(String::from_utf8(classify_request(42))
            .unwrap()
            .starts_with("GET /v1/classify/42 HTTP/1.1\r\n"));
    }
}
