// analyze: allow-file(net-boundary) the benchmark's open-loop client drives the ingest door over real TCP, as a requester would
//! A minimal HTTP/1.1 keep-alive client for the ingest door, and the
//! parsing of its JSON answers.

use std::io::{self, BufRead, BufReader, Write};
use std::net::TcpStream;

/// The door's address. Every use of `std::net` stays in this file.
pub type SocketAddr = std::net::SocketAddr;

/// One answer from the door.
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    pub status: u16,
    pub body: String,
}

/// Reads one response: status line, headers, `content-length` body.
pub fn read_response<R: BufRead>(reader: &mut R) -> io::Result<Response> {
    let bad = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_string());
    let mut line = String::new();
    if reader.read_line(&mut line)? == 0 {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "connection closed before a response",
        ));
    }
    let mut parts = line.split_whitespace();
    if !parts.next().is_some_and(|v| v.starts_with("HTTP/1.")) {
        return Err(bad("not an HTTP/1.x status line"));
    }
    let status: u16 = parts
        .next()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("bad status code"))?;
    let mut length = 0usize;
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return Err(bad("headers cut short"));
        }
        let header = line.trim_end();
        if header.is_empty() {
            break;
        }
        let (name, value) = header.split_once(':').ok_or_else(|| bad("bad header"))?;
        if name.trim().eq_ignore_ascii_case("content-length") {
            length = value
                .trim()
                .parse()
                .ok()
                .filter(|&n| n <= 1 << 20)
                .ok_or_else(|| bad("bad content-length"))?;
        }
    }
    let mut body = vec![0u8; length];
    reader.read_exact(&mut body)?;
    let body = String::from_utf8(body).map_err(|_| bad("body is not UTF-8"))?;
    Ok(Response { status, body })
}

/// The raw text of a top-level `"key":value` field of a flat JSON
/// object (the door answers with such objects only).
fn field<'a>(body: &'a str, key: &str) -> Option<&'a str> {
    let pattern = format!("\"{key}\":");
    let start = body.find(&pattern)? + pattern.len();
    let rest = body[start..].trim_start();
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    Some(rest[..end].trim())
}

/// An unsigned integer field.
pub fn field_u64(body: &str, key: &str) -> Option<u64> {
    field(body, key)?.parse().ok()
}

/// A string field, without its quotes.
pub fn field_str<'a>(body: &'a str, key: &str) -> Option<&'a str> {
    field(body, key)?.strip_prefix('"')?.strip_suffix('"')
}

/// A boolean field.
pub fn field_bool(body: &str, key: &str) -> Option<bool> {
    match field(body, key)? {
        "true" => Some(true),
        "false" => Some(false),
        _ => None,
    }
}

/// A keep-alive connection to the door.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    pub fn open(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let writer = stream.try_clone()?;
        Ok(Conn {
            reader: BufReader::new(stream),
            writer,
        })
    }

    /// Sends one request and reads its response.
    pub fn request(&mut self, method: &str, path: &str, body: &str) -> io::Result<Response> {
        let head = format!(
            "{method} {path} HTTP/1.1\r\nhost: door\r\ncontent-length: {}\r\n\r\n{body}",
            body.len()
        );
        self.writer.write_all(head.as_bytes())?;
        read_response(&mut self.reader)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(bytes: &[u8]) -> io::Result<Response> {
        read_response(&mut io::Cursor::new(bytes))
    }

    #[test]
    fn parses_accepted_and_poll_answers() {
        let r = parse(b"HTTP/1.1 202 Accepted\r\ncontent-type: application/json\r\ncontent-length: 28\r\n\r\n{\"task\":17,\"state\":\"queued\"}next")
            .unwrap();
        assert_eq!(r.status, 202);
        assert_eq!(r.body, "{\"task\":17,\"state\":\"queued\"}");
        assert_eq!(field_u64(&r.body, "task"), Some(17));
        assert_eq!(field_str(&r.body, "state"), Some("queued"));

        let poll = "{\"task\":3,\"state\":\"completed\",\"met_deadline\":false}";
        assert_eq!(field_str(poll, "state"), Some("completed"));
        assert_eq!(field_bool(poll, "met_deadline"), Some(false));
        assert_eq!(field_bool(poll, "missing"), None);
        assert_eq!(field_u64(poll, "state"), None);
    }

    #[test]
    fn reads_back_to_back_responses_on_one_stream() {
        let two = b"HTTP/1.1 429 Too Many Requests\r\nretry-after: 1\r\ncontent-length: 2\r\n\r\n{}HTTP/1.1 200 OK\r\nContent-Length: 0\r\n\r\n";
        let mut cursor = io::Cursor::new(&two[..]);
        assert_eq!(read_response(&mut cursor).unwrap().status, 429);
        let second = read_response(&mut cursor).unwrap();
        assert_eq!((second.status, second.body.as_str()), (200, ""));
    }

    #[test]
    fn rejects_broken_answers() {
        assert_eq!(parse(b"").unwrap_err().kind(), io::ErrorKind::UnexpectedEof);
        assert!(parse(b"SPDY/3 200 OK\r\n\r\n").is_err());
        assert!(parse(b"HTTP/1.1 abc OK\r\n\r\n").is_err());
        assert!(parse(b"HTTP/1.1 200 OK\r\nno-colon\r\n\r\n").is_err());
        assert!(parse(b"HTTP/1.1 200 OK\r\ncontent-length: x\r\n\r\n").is_err());
        assert!(parse(b"HTTP/1.1 200 OK\r\ncontent-length: 99999999\r\n\r\n").is_err());
        assert!(parse(b"HTTP/1.1 200 OK\r\ncontent-length: 5\r\n\r\nab").is_err());
        assert!(parse(b"HTTP/1.1 200 OK\r\ncontent-length: 0\r\n").is_err());
    }
}
