//! A small blocking client for the `art9-service v1` protocol.
//!
//! Used by the load-test harness, the CLI and the end-to-end tests;
//! external tooling can speak the wire protocol with nothing more than
//! `nc`, but this wraps the request/reply framing for Rust callers.

use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};

/// One connection to a running service.
#[derive(Debug)]
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

/// A parsed `STATUS`/`WAIT` reply line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobStatus {
    /// Session id.
    pub id: u64,
    /// Lifecycle token (`queued`/`running`/`done`/`failed`/`cancelled`).
    pub state: String,
    /// Instructions retired so far.
    pub retired: u64,
    /// Slices executed so far.
    pub slices: u64,
    /// Worker-to-worker migrations so far.
    pub migrations: u64,
    /// Error text, for failed sessions.
    pub error: Option<String>,
}

impl JobStatus {
    /// `true` once the session can make no further progress.
    pub fn is_terminal(&self) -> bool {
        matches!(self.state.as_str(), "done" | "failed" | "cancelled")
    }
}

/// One row of a `LIST` reply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionRow {
    /// Session id.
    pub id: u64,
    /// Program name.
    pub name: String,
    /// Lifecycle token.
    pub state: String,
    /// Instructions retired so far.
    pub retired: u64,
    /// Slices executed so far.
    pub slices: u64,
    /// Migrations so far.
    pub migrations: u64,
}

fn proto_err(detail: impl std::fmt::Display) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, detail.to_string())
}

impl Client {
    /// Connects and performs the `HELLO` handshake.
    ///
    /// # Errors
    ///
    /// I/O errors, or a banner that is not `art9-service v1`.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let mut client = Client {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
        };
        let banner = client.command("HELLO")?;
        if banner != format!("OK {}", crate::PROTOCOL) {
            return Err(proto_err(format!("unexpected banner {banner:?}")));
        }
        Ok(client)
    }

    fn read_reply_line(&mut self) -> io::Result<String> {
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        Ok(line.trim_end_matches(['\r', '\n']).to_string())
    }

    /// Sends one request line and returns the single-line reply
    /// (which may start `ERR`).
    ///
    /// # Errors
    ///
    /// I/O errors only; protocol-level `ERR` replies are returned.
    pub fn command(&mut self, line: &str) -> io::Result<String> {
        writeln!(self.writer, "{line}")?;
        self.writer.flush()?;
        self.read_reply_line()
    }

    /// Reads the remaining lines of a multi-line reply up to the bare
    /// `end` terminator (exclusive).
    fn read_body(&mut self) -> io::Result<Vec<String>> {
        let mut lines = Vec::new();
        loop {
            let line = self.read_reply_line()?;
            if line == "end" {
                return Ok(lines);
            }
            lines.push(line);
        }
    }

    /// Submits an inline ART-9 program; returns the session id.
    ///
    /// # Errors
    ///
    /// I/O errors or an `ERR` reply.
    pub fn submit_inline(&mut self, assembly: &str, options: &str) -> io::Result<u64> {
        let lines: Vec<&str> = assembly.lines().collect();
        let mut request = format!("SUBMIT program=inline lines={}", lines.len());
        if !options.is_empty() {
            request.push(' ');
            request.push_str(options);
        }
        writeln!(self.writer, "{request}")?;
        for line in &lines {
            writeln!(self.writer, "{line}")?;
        }
        self.writer.flush()?;
        parse_job_id(&self.read_reply_line()?)
    }

    /// Submits a registered workload; returns the session id.
    ///
    /// # Errors
    ///
    /// I/O errors or an `ERR` reply.
    pub fn submit_workload(&mut self, name: &str, options: &str) -> io::Result<u64> {
        let mut request = format!("SUBMIT workload={name}");
        if !options.is_empty() {
            request.push(' ');
            request.push_str(options);
        }
        parse_job_id(&self.command(&request)?)
    }

    /// `STATUS <id>`, parsed.
    ///
    /// # Errors
    ///
    /// I/O errors or an `ERR` reply.
    pub fn status(&mut self, id: u64) -> io::Result<JobStatus> {
        let reply = self.command(&format!("STATUS {id}"))?;
        parse_status(&reply)
    }

    /// `WAIT <id>`: blocks until the session is terminal.
    ///
    /// # Errors
    ///
    /// I/O errors or an `ERR` reply.
    pub fn wait(&mut self, id: u64) -> io::Result<JobStatus> {
        let reply = self.command(&format!("WAIT {id}"))?;
        parse_status(&reply)
    }

    /// `RESULT <id>`: the raw body lines (`halt …`, `retired …`,
    /// `reg t0 …`, `mix …`, …).
    ///
    /// # Errors
    ///
    /// I/O errors or an `ERR` reply.
    pub fn result(&mut self, id: u64) -> io::Result<Vec<String>> {
        let head = self.command(&format!("RESULT {id}"))?;
        if head.starts_with("ERR") {
            return Err(proto_err(head));
        }
        self.read_body()
    }

    /// `EVENTS <id>`: streams `event` lines until the session is
    /// terminal; returns them (plus the final status line).
    ///
    /// # Errors
    ///
    /// I/O errors or an `ERR` reply.
    pub fn events(&mut self, id: u64) -> io::Result<Vec<String>> {
        let head = self.command(&format!("EVENTS {id}"))?;
        if head.starts_with("ERR") {
            return Err(proto_err(head));
        }
        self.read_body()
    }

    /// `LIST`, parsed into one row per session.
    ///
    /// # Errors
    ///
    /// I/O errors or a malformed reply.
    pub fn list(&mut self) -> io::Result<Vec<SessionRow>> {
        let head = self.command("LIST")?;
        if head.starts_with("ERR") {
            return Err(proto_err(head));
        }
        self.read_body()?
            .iter()
            .map(|line| parse_session_row(line))
            .collect()
    }

    /// `METRICS`, parsed into a key → value map.
    ///
    /// # Errors
    ///
    /// I/O errors or a malformed reply.
    pub fn metrics(&mut self) -> io::Result<HashMap<String, String>> {
        let head = self.command("METRICS")?;
        if head.starts_with("ERR") {
            return Err(proto_err(head));
        }
        let mut map = HashMap::new();
        for line in self.read_body()? {
            let (key, value) = line
                .split_once(' ')
                .ok_or_else(|| proto_err(format!("bad metrics line {line:?}")))?;
            map.insert(key.to_string(), value.to_string());
        }
        Ok(map)
    }

    /// `CANCEL <id>`.
    ///
    /// # Errors
    ///
    /// I/O errors or an `ERR` reply.
    pub fn cancel(&mut self, id: u64) -> io::Result<()> {
        let reply = self.command(&format!("CANCEL {id}"))?;
        if reply.starts_with("ERR") {
            return Err(proto_err(reply));
        }
        Ok(())
    }

    /// `SHUTDOWN`: stops the whole service.
    ///
    /// # Errors
    ///
    /// I/O errors.
    pub fn shutdown(&mut self) -> io::Result<()> {
        let _ = self.command("SHUTDOWN")?;
        Ok(())
    }
}

fn parse_job_id(reply: &str) -> io::Result<u64> {
    // "OK job <id>"
    let id = reply
        .strip_prefix("OK job ")
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|id| id.parse::<u64>().ok());
    id.ok_or_else(|| proto_err(reply))
}

fn parse_status(reply: &str) -> io::Result<JobStatus> {
    // "OK job <id> state=<s> retired=<n> slices=<n> migrations=<n> [… error=<text>]"
    let rest = reply
        .strip_prefix("OK job ")
        .ok_or_else(|| proto_err(reply))?;
    let mut tokens = rest.split_whitespace();
    let id = tokens
        .next()
        .and_then(|t| t.parse::<u64>().ok())
        .ok_or_else(|| proto_err(reply))?;
    let mut status = JobStatus {
        id,
        state: String::new(),
        retired: 0,
        slices: 0,
        migrations: 0,
        error: None,
    };
    let remainder: Vec<&str> = tokens.collect();
    for (i, token) in remainder.iter().enumerate() {
        let Some((key, value)) = token.split_once('=') else {
            continue;
        };
        match key {
            "state" => status.state = value.to_string(),
            "retired" => status.retired = value.parse().map_err(|_| proto_err(reply))?,
            "slices" => status.slices = value.parse().map_err(|_| proto_err(reply))?,
            "migrations" => status.migrations = value.parse().map_err(|_| proto_err(reply))?,
            // The error is free text and always last: take the rest of
            // the line verbatim.
            "error" => {
                let mut text = value.to_string();
                for extra in &remainder[i + 1..] {
                    text.push(' ');
                    text.push_str(extra);
                }
                status.error = Some(text);
                break;
            }
            _ => {}
        }
    }
    if status.state.is_empty() {
        return Err(proto_err(reply));
    }
    Ok(status)
}

fn parse_session_row(line: &str) -> io::Result<SessionRow> {
    // "session <id> <name> <state> <retired> <slices> <migrations>"
    let fields: Vec<&str> = line.split_whitespace().collect();
    let [tag, id, name, state, retired, slices, migrations] = fields.as_slice() else {
        return Err(proto_err(format!("bad session row {line:?}")));
    };
    if *tag != "session" {
        return Err(proto_err(format!("bad session row {line:?}")));
    }
    let num = |s: &str| s.parse::<u64>().map_err(|_| proto_err(line));
    Ok(SessionRow {
        id: num(id)?,
        name: (*name).to_string(),
        state: (*state).to_string(),
        retired: num(retired)?,
        slices: num(slices)?,
        migrations: num(migrations)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_lines_parse() {
        let s = parse_status("OK job 7 state=running retired=1200 slices=3 migrations=1 worker=2")
            .unwrap();
        assert_eq!(s.id, 7);
        assert_eq!(s.state, "running");
        assert_eq!(s.retired, 1200);
        assert_eq!(s.slices, 3);
        assert_eq!(s.migrations, 1);
        assert!(s.error.is_none());
        assert!(!s.is_terminal());

        let s = parse_status(
            "OK job 9 state=failed retired=10 slices=1 migrations=0 \
             error=gemm [art9-functional]: simulator timeout",
        )
        .unwrap();
        assert!(s.is_terminal());
        assert_eq!(
            s.error.as_deref(),
            Some("gemm [art9-functional]: simulator timeout")
        );

        assert!(parse_status("ERR no session 3").is_err());
    }

    #[test]
    fn session_rows_parse() {
        let row = parse_session_row("session 4 gemm queued 512 2 1").unwrap();
        assert_eq!(row.id, 4);
        assert_eq!(row.name, "gemm");
        assert_eq!(row.state, "queued");
        assert_eq!(row.retired, 512);
        assert!(parse_session_row("nonsense").is_err());
    }
}
