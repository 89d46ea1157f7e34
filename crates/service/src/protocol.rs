//! Wire protocol: `art9-service v1`.
//!
//! Line-oriented text over TCP, in the same spirit (and style) as the
//! `art9-checkpoint v1` serialization: one request per line, commands
//! in upper case, arguments as `key=value` tokens, multi-line
//! responses terminated by a bare `end` line. Replies start `OK` or
//! `ERR`. The full grammar lives in `docs/SERVICE.md`.
//!
//! ```text
//! HELLO
//! SUBMIT workload=gemm n=6 config=art9-threaded energy=1
//! SUBMIT program=inline lines=3 max-retired=100000
//! LI t3, 41
//! ADDI t3, 1
//! JAL t0, 0
//! STATUS 7 | WAIT 7 | RESULT 7 | EVENTS 7 | CANCEL 7
//! LIST | METRICS | SHUTDOWN | QUIT
//! ```

use std::collections::HashMap;

/// A parsed request line. `SUBMIT` is returned *before* any inline
/// program body is read — `lines` tells the transport how many raw
/// source lines follow.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Protocol handshake; replies with the version banner.
    Hello,
    /// Job submission: the `key=value` arguments plus the number of
    /// inline source lines that follow the request line.
    Submit {
        /// Parsed `key=value` arguments.
        args: HashMap<String, String>,
        /// Raw source lines following the request (`lines=<k>`).
        inline_lines: usize,
    },
    /// One-line status of a session.
    Status(u64),
    /// Block until the session is terminal; reply like `STATUS`.
    Wait(u64),
    /// Final machine state of a completed session (multi-line).
    Result(u64),
    /// Stream per-slice events until the session is terminal.
    Events(u64),
    /// One line per session (multi-line).
    List,
    /// Scheduler/cache counters (multi-line).
    Metrics,
    /// Request cancellation of a session.
    Cancel(u64),
    /// Stop the whole service.
    Shutdown,
    /// Close this connection.
    Quit,
}

/// Parses one request line.
///
/// # Errors
///
/// A diagnostic string suitable for an `ERR` reply.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let mut tokens = line.split_whitespace();
    let command = tokens.next().ok_or("empty request")?;
    let rest: Vec<&str> = tokens.collect();
    let no_args = |request: Request| {
        if rest.is_empty() {
            Ok(request)
        } else {
            Err(format!("{command} takes no arguments"))
        }
    };
    let id_arg = || -> Result<u64, String> {
        match rest.as_slice() {
            [id] => id
                .parse::<u64>()
                .map_err(|_| format!("{command} needs a numeric session id, got {id:?}")),
            _ => Err(format!("{command} needs exactly one session id")),
        }
    };
    match command {
        "HELLO" => no_args(Request::Hello),
        "SUBMIT" => {
            let args = parse_kv(&rest)?;
            let inline_lines = match args.get("lines") {
                None => 0,
                Some(v) => v
                    .parse::<usize>()
                    .map_err(|_| format!("lines must be a count, got {v:?}"))?,
            };
            if inline_lines > 10_000 {
                return Err("inline programs are capped at 10000 lines".into());
            }
            Ok(Request::Submit { args, inline_lines })
        }
        "STATUS" => Ok(Request::Status(id_arg()?)),
        "WAIT" => Ok(Request::Wait(id_arg()?)),
        "RESULT" => Ok(Request::Result(id_arg()?)),
        "EVENTS" => Ok(Request::Events(id_arg()?)),
        "CANCEL" => Ok(Request::Cancel(id_arg()?)),
        "LIST" => no_args(Request::List),
        "METRICS" => no_args(Request::Metrics),
        "SHUTDOWN" => no_args(Request::Shutdown),
        "QUIT" | "BYE" => no_args(Request::Quit),
        other => Err(format!("unknown command {other:?}")),
    }
}

/// Parses `key=value` tokens (duplicate keys rejected).
///
/// # Errors
///
/// A diagnostic string for tokens without `=` or repeated keys.
fn parse_kv(tokens: &[&str]) -> Result<HashMap<String, String>, String> {
    let mut map = HashMap::new();
    for token in tokens {
        let (key, value) = token
            .split_once('=')
            .ok_or_else(|| format!("expected key=value, got {token:?}"))?;
        if map.insert(key.to_string(), value.to_string()).is_some() {
            return Err(format!("duplicate key {key:?}"));
        }
    }
    Ok(map)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn commands_parse() {
        assert_eq!(parse_request("HELLO").unwrap(), Request::Hello);
        assert_eq!(parse_request("STATUS 7").unwrap(), Request::Status(7));
        assert_eq!(parse_request("WAIT 9").unwrap(), Request::Wait(9));
        assert_eq!(parse_request("LIST").unwrap(), Request::List);
        assert_eq!(parse_request("QUIT").unwrap(), Request::Quit);
        match parse_request("SUBMIT workload=gemm n=6 lines=0").unwrap() {
            Request::Submit { args, inline_lines } => {
                assert_eq!(args.get("workload").unwrap(), "gemm");
                assert_eq!(args.get("n").unwrap(), "6");
                assert_eq!(inline_lines, 0);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn malformed_requests_are_diagnosed() {
        assert!(parse_request("").is_err());
        assert!(parse_request("FROB").is_err());
        assert!(parse_request("STATUS").is_err());
        assert!(parse_request("STATUS x").is_err());
        assert!(parse_request("LIST now").is_err());
        assert!(parse_request("SUBMIT workload").is_err());
        assert!(parse_request("SUBMIT a=1 a=2").is_err());
        assert!(parse_request("SUBMIT lines=999999999").is_err());
    }
}
