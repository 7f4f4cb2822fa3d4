//! Client side of the loopback HTTP workloads: request framing and a
//! response reader that reassembles frames from arbitrarily split reads.

use std::io::{self, ErrorKind, Read};
use std::ops::Range;

/// A complete response frame located at the front of a buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Frame {
    /// Status code from the status line.
    pub status: u16,
    /// Bytes of status line plus headers, including the blank line.
    pub head_len: usize,
    /// Whole frame: head plus `Content-Length` body bytes.
    pub len: usize,
}

fn bad(what: &str) -> io::Error {
    io::Error::new(ErrorKind::InvalidData, what.to_string())
}

/// Locate the first response frame in `buf`: `Ok(None)` while it is
/// incomplete, an error when the bytes are not an HTTP/1.1 response.
pub fn parse_frame(buf: &[u8]) -> io::Result<Option<Frame>> {
    let Some(head_end) = buf.windows(4).position(|w| w == b"\r\n\r\n") else {
        return Ok(None);
    };
    let head = &buf[..head_end];
    let mut lines = head.split(|&b| b == b'\n');
    let status_line = lines.next().unwrap_or_default();
    let status = status_line
        .strip_prefix(b"HTTP/1.1 ")
        .and_then(|rest| rest.get(..3))
        .and_then(|code| std::str::from_utf8(code).ok())
        .and_then(|code| code.parse::<u16>().ok())
        .ok_or_else(|| bad("malformed status line"))?;
    let mut content_length = None;
    for line in lines {
        let line = line.strip_suffix(b"\r").unwrap_or(line);
        let Some(colon) = line.iter().position(|&b| b == b':') else {
            continue;
        };
        if line[..colon].eq_ignore_ascii_case(b"content-length") {
            let value = std::str::from_utf8(&line[colon + 1..]).map_err(|_| bad("length"))?;
            content_length = Some(value.trim().parse::<usize>().map_err(|_| bad("length"))?);
        }
    }
    let content_length = content_length.ok_or_else(|| bad("response without Content-Length"))?;
    let head_len = head_end + 4;
    let len = head_len + content_length;
    Ok((buf.len() >= len).then_some(Frame {
        status,
        head_len,
        len,
    }))
}

/// Buffers bytes from a stream and hands out one response frame at a time.
#[derive(Debug, Default)]
pub struct FrameReader {
    buf: Vec<u8>,
    start: usize,
    end: usize,
}

impl FrameReader {
    /// An empty reader.
    pub fn new() -> Self {
        Self::default()
    }

    /// Read from `src` until one whole frame is buffered; return its status
    /// and body. Bytes of later (pipelined) frames stay buffered.
    pub fn read_frame<R: Read>(&mut self, src: &mut R) -> io::Result<(u16, &[u8])> {
        loop {
            if let Some(frame) = parse_frame(&self.buf[self.start..self.end])? {
                let body: Range<usize> = self.start + frame.head_len..self.start + frame.len;
                self.start += frame.len;
                return Ok((frame.status, &self.buf[body]));
            }
            if self.start > 0 {
                self.buf.copy_within(self.start..self.end, 0);
                self.end -= self.start;
                self.start = 0;
            }
            if self.buf.len() < self.end + 16 * 1024 {
                self.buf.resize(self.end + 16 * 1024, 0);
            }
            let n = src.read(&mut self.buf[self.end..])?;
            if n == 0 {
                return Err(io::Error::new(
                    ErrorKind::UnexpectedEof,
                    "connection closed mid-response",
                ));
            }
            self.end += n;
        }
    }

    /// Bytes received but not yet handed out.
    pub fn pending(&self) -> usize {
        self.end - self.start
    }
}

/// `POST /solve` request bytes for a JSON body.
pub fn post_solve(body: &str) -> Vec<u8> {
    format!(
        "POST /solve HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// `GET` request bytes for `path`.
pub fn get(path: &str) -> Vec<u8> {
    format!("GET {path} HTTP/1.1\r\n\r\n").into_bytes()
}
