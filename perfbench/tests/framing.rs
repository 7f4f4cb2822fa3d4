//! HTTP response framing across split reads.

use perfbench::client::{parse_frame, FrameReader};
use std::io::{self, Read};

/// A reader that hands out its bytes in the given chunk sizes.
struct Chunked {
    data: Vec<u8>,
    pos: usize,
    sizes: Vec<usize>,
    next: usize,
}

impl Read for Chunked {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if self.pos == self.data.len() {
            return Ok(0);
        }
        let want = self.sizes[self.next % self.sizes.len()].max(1);
        self.next += 1;
        let n = want.min(buf.len()).min(self.data.len() - self.pos);
        buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

fn response(status: &str, body: &str) -> Vec<u8> {
    format!(
        "HTTP/1.1 {status}\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

fn stream() -> (Vec<u8>, Vec<(u16, String)>) {
    let frames = vec![
        (200, r#"{"ok": true}"#.to_string()),
        (200, format!("[{}]", "1,".repeat(20_000) + "1")),
        (404, r#"{"ok": false, "code": "unknown_route"}"#.to_string()),
        (200, String::new()),
    ];
    let mut bytes = Vec::new();
    for (status, body) in &frames {
        let line = if *status == 200 {
            "200 OK"
        } else {
            "404 Not Found"
        };
        bytes.extend(response(line, body));
    }
    (bytes, frames)
}

fn read_all(sizes: Vec<usize>) -> Vec<(u16, String)> {
    let (data, frames) = stream();
    let mut src = Chunked {
        data,
        pos: 0,
        sizes,
        next: 0,
    };
    let mut reader = FrameReader::new();
    let got: Vec<(u16, String)> = (0..frames.len())
        .map(|_| {
            let (status, body) = reader.read_frame(&mut src).expect("frame");
            (status, String::from_utf8(body.to_vec()).expect("utf-8"))
        })
        .collect();
    assert_eq!(reader.pending(), 0);
    got
}

#[test]
fn frames_survive_every_split() {
    let (_, frames) = stream();
    for sizes in [
        vec![1],
        vec![2, 3, 5, 7],
        vec![17],
        vec![4096],
        vec![1 << 20],
        vec![60, 1, 900, 3],
    ] {
        assert_eq!(read_all(sizes.clone()), frames, "chunk sizes {sizes:?}");
    }
}

#[test]
fn a_head_split_anywhere_is_incomplete_until_whole() {
    let bytes = response("200 OK", "hello");
    for cut in 0..bytes.len() {
        assert_eq!(
            parse_frame(&bytes[..cut]).expect("well formed"),
            None,
            "cut {cut}"
        );
    }
    let frame = parse_frame(&bytes).expect("well formed").expect("complete");
    assert_eq!((frame.status, frame.len), (200, bytes.len()));
}

#[test]
fn eof_mid_frame_and_garbage_are_errors() {
    let mut bytes = response("200 OK", "hello");
    bytes.truncate(bytes.len() - 2);
    let mut src = Chunked {
        data: bytes,
        pos: 0,
        sizes: vec![3],
        next: 0,
    };
    assert!(FrameReader::new().read_frame(&mut src).is_err());
    assert!(parse_frame(b"SMTP hello\r\n\r\n").is_err());
    assert!(
        parse_frame(b"HTTP/1.1 200 OK\r\n\r\n").is_err(),
        "no Content-Length"
    );
}
