//! A tiny blocking HTTP/1.1 client — just enough to drive the job API
//! from the load-test binary and the integration tests without pulling
//! in a dependency.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Sends one request and reads the whole response (the server always
/// closes the connection after one exchange).
///
/// Returns `(status, body)`; transport failures surface as `Err` so
/// callers can count them separately from HTTP-level rejections.
pub fn http_request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> io::Result<(u16, String)> {
    let mut stream = TcpStream::connect_timeout(&addr, Duration::from_secs(5))?;
    stream.set_read_timeout(Some(Duration::from_secs(30)))?;
    stream.set_write_timeout(Some(Duration::from_secs(5)))?;
    let body = body.unwrap_or("");
    let head = format!(
        "{method} {path} HTTP/1.1\r\nhost: realm-serve\r\ncontent-length: {}\r\nconnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()?;

    let mut raw = String::new();
    stream.read_to_string(&mut raw)?;
    let (head, response_body) = raw
        .split_once("\r\n\r\n")
        .ok_or_else(|| io::Error::other("response without header terminator"))?;
    let status = head
        .split_ascii_whitespace()
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| io::Error::other("response without status code"))?;
    Ok((status, response_body.to_string()))
}

/// Polls `GET /jobs/<id>` until the job reaches a terminal state (or
/// the deadline passes), returning the final state string.
pub fn wait_terminal(addr: SocketAddr, id: u64, deadline: Duration) -> io::Result<String> {
    let start = std::time::Instant::now();
    loop {
        let (status, body) = http_request(addr, "GET", &format!("/jobs/{id}"), None)?;
        if status == 200 {
            if let Some(state) = extract_string_field(&body, "state") {
                if matches!(state.as_str(), "completed" | "failed" | "dead_letter") {
                    return Ok(state);
                }
            }
        }
        if start.elapsed() > deadline {
            return Err(io::Error::other(format!("job {id} not terminal: {body}")));
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Pulls a `"field":"value"` string member out of a flat JSON body —
/// enough for polling loops; real parsing lives in [`realm_obs::json`].
pub fn extract_string_field(body: &str, field: &str) -> Option<String> {
    let needle = format!("\"{field}\":\"");
    let start = body.find(&needle)? + needle.len();
    let end = body[start..].find('"')?;
    Some(body[start..start + end].to_string())
}

/// Pulls a `"field":123` unsigned member out of a flat JSON body.
pub fn extract_u64_field(body: &str, field: &str) -> Option<u64> {
    let needle = format!("\"{field}\":");
    let start = body.find(&needle)? + needle.len();
    let digits: String = body[start..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn field_extraction_handles_the_api_shapes() {
        let body = r#"{"id":17,"state":"queued","location":"/jobs/17"}"#;
        assert_eq!(extract_u64_field(body, "id"), Some(17));
        assert_eq!(
            extract_string_field(body, "state").as_deref(),
            Some("queued")
        );
        assert_eq!(extract_string_field(body, "missing"), None);
        assert_eq!(extract_u64_field(body, "state"), None);
    }
}
