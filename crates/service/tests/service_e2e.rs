//! End-to-end protocol tests: a real `Server` on an ephemeral
//! loopback port, driven through real `Client` connections.

use art9_service::loadtest::{run_against, LoadConfig};
use art9_service::{Client, SchedulerConfig, Server, ServiceConfig};

fn start_server(workers: usize, quantum: u64) -> Server {
    Server::start(ServiceConfig {
        addr: String::new(),
        scheduler: SchedulerConfig { workers, quantum },
    })
    .expect("start server")
}

const SPIN: &str = "LI t3, 20\n\
    outer:\n\
    LI t4, 10\n\
    inner:\n\
    ADDI t4, -1\n\
    MV t7, t4\n\
    COMP t7, t0\n\
    BEQ t7, +, inner\n\
    ADDI t3, -1\n\
    MV t7, t3\n\
    COMP t7, t0\n\
    BEQ t7, +, outer\n\
    JAL t0, 0\n";

/// Exact retirement of [`SPIN`]: `2 + 20 * (5 + 4 * 10)`.
const SPIN_RETIRED: u64 = 2 + 20 * 45;

#[test]
fn inline_job_lifecycle_over_tcp() {
    let mut server = start_server(2, 100);
    let addr = server.local_addr().to_string();
    let mut client = Client::connect(&addr).unwrap();

    let id = client.submit_inline(SPIN, "config=art9-threaded").unwrap();
    let status = client.wait(id).unwrap();
    assert_eq!(status.state, "done");
    assert_eq!(status.retired, SPIN_RETIRED);
    assert!(status.slices >= 2, "quantum 100 forces multiple slices");

    let result = client.result(id).unwrap();
    assert!(
        result.contains(&"halt jump-to-self".to_string()),
        "{result:?}"
    );
    assert!(
        result.contains(&format!("retired {SPIN_RETIRED}")),
        "{result:?}"
    );
    assert!(result.contains(&"reg t3 0".to_string()), "{result:?}");
    assert!(
        result.iter().any(|l| l.starts_with("mix ADDI ")),
        "{result:?}"
    );

    // A second STATUS from a *different* connection sees the same
    // session.
    let mut second = Client::connect(&addr).unwrap();
    assert_eq!(second.status(id).unwrap().state, "done");

    server.shutdown();
}

#[test]
fn workload_jobs_verify_and_stream_events() {
    let mut server = start_server(2, 200);
    let addr = server.local_addr().to_string();
    let mut client = Client::connect(&addr).unwrap();

    let id = client
        .submit_workload(
            "dot-product",
            "n=8 config=art9-functional energy=1 events=1",
        )
        .unwrap();
    let lines = client.events(id).unwrap();
    let events: Vec<&String> = lines.iter().filter(|l| l.starts_with("event ")).collect();
    assert!(!events.is_empty(), "per-slice events streamed: {lines:?}");
    // Every event carries a cumulative flip count (energy=1).
    for event in &events {
        let fields: Vec<&str> = event.split_whitespace().collect();
        assert_eq!(fields.len(), 5, "{event}");
        assert!(fields[4].parse::<u64>().is_ok(), "{event}");
    }
    // The stream ends with the terminal status line.
    assert!(
        lines
            .iter()
            .any(|l| l.contains("state=done") && l.contains("verified=ok")),
        "{lines:?}"
    );

    server.shutdown();
}

#[test]
fn nn_session_verifies_over_the_protocol() {
    let mut server = start_server(2, 150);
    let addr = server.local_addr().to_string();
    let mut client = Client::connect(&addr).unwrap();

    // The ternary-NN workload is addressable by registry name over the
    // wire like any other; a small quantum slices the inference run.
    let id = client
        .submit_workload("nn-mlp", "n=8 config=art9-threaded energy=1")
        .unwrap();
    let status = client.wait(id).unwrap();
    assert_eq!(status.state, "done");
    assert!(status.retired > 0);
    assert!(status.slices >= 2, "quantum 150 forces multiple slices");

    let result = client.result(id).unwrap();
    assert!(result.contains(&"verified ok".to_string()), "{result:?}");
    assert!(result.iter().any(|l| l.starts_with("mix ")), "{result:?}");

    // The associative-search workload rides the same registry path.
    let id = client
        .submit_workload("assoc-match", "n=32 config=art9-functional")
        .unwrap();
    let status = client.wait(id).unwrap();
    assert_eq!(status.state, "done");
    let result = client.result(id).unwrap();
    assert!(result.contains(&"verified ok".to_string()), "{result:?}");

    server.shutdown();
}

#[test]
fn protocol_errors_are_diagnosed_not_fatal() {
    let mut server = start_server(1, 1_000);
    let addr = server.local_addr().to_string();
    let mut client = Client::connect(&addr).unwrap();

    // Unknown command / bad request: ERR reply, connection stays up.
    assert!(client.command("FROBNICATE").unwrap().starts_with("ERR"));
    assert!(client.command("STATUS 999").unwrap().starts_with("ERR"));

    // Typed preparation failures surface as ERR with the WorkloadError
    // text.
    let reply = client.command("SUBMIT workload=quux").unwrap();
    assert!(reply.starts_with("ERR"), "{reply}");
    assert!(reply.contains("quux"), "{reply}");

    let reply = client
        .command("SUBMIT workload=gemm config=rv32-picorv32")
        .unwrap();
    assert!(reply.contains("batch-only"), "{reply}");

    // A size the workload's constructor rejects (gemm accepts 2..=7) is
    // an ERR reply, not a panic in the connection thread.
    let reply = client.command("SUBMIT workload=gemm n=8").unwrap();
    assert!(reply.starts_with("ERR"), "{reply}");
    assert!(reply.contains("gemm"), "{reply}");
    assert_eq!(
        client.command("HELLO").unwrap(),
        format!("OK {}", art9_service::PROTOCOL)
    );

    // Bad inline assembly: parse error names the line.
    let lines = ["SUBMIT program=inline lines=1", "NOT AN OPCODE"].join("\n");
    let reply = client.command(&lines).unwrap();
    assert!(reply.starts_with("ERR"), "{reply}");
    assert!(reply.contains("parse"), "{reply}");

    // The connection is still serviceable afterwards.
    let id = client.submit_inline(SPIN, "").unwrap();
    assert_eq!(client.wait(id).unwrap().state, "done");

    server.shutdown();
}

#[test]
fn cancel_list_and_metrics_roundtrip() {
    let mut server = start_server(1, 50);
    let addr = server.local_addr().to_string();
    let mut client = Client::connect(&addr).unwrap();

    // An endless loop only cancellation can stop.
    let endless = "loop:\nADDI t3, 1\nADDI t3, -1\nJAL t4, loop\n";
    let id = client.submit_inline(endless, "").unwrap();
    client.cancel(id).unwrap();
    assert_eq!(client.wait(id).unwrap().state, "cancelled");

    let rows = client.list().unwrap();
    assert!(rows.iter().any(|r| r.id == id && r.state == "cancelled"));

    let metrics = client.metrics().unwrap();
    assert_eq!(metrics.get("workers").map(String::as_str), Some("1"));
    assert_eq!(metrics.get("quantum").map(String::as_str), Some("50"));
    assert!(metrics.contains_key("p99-slice-us"));
    assert!(metrics.contains_key("cache-images"));

    server.shutdown();
}

#[test]
fn shutdown_command_stops_the_service() {
    let server = start_server(1, 1_000);
    let addr = server.local_addr().to_string();
    let mut client = Client::connect(&addr).unwrap();
    client.shutdown().unwrap();
    // The daemon-side wait() returns once SHUTDOWN lands.
    server.wait();
    // New connections are refused (or reset) after shutdown.
    std::thread::sleep(std::time::Duration::from_millis(50));
    assert!(Client::connect(&addr).is_err());
}

#[test]
fn concurrent_load_with_migrations_completes_exactly() {
    // A denser version of the CI load smoke: many more sessions than
    // workers so stealing + migration actually happen, every session
    // checked for exact retirement.
    let mut server = start_server(3, 100);
    let report = run_against(
        &server.local_addr().to_string(),
        &LoadConfig {
            sessions: 96,
            target_retired: 10_000,
            quantum: 100,
            connections: 6,
            ..LoadConfig::default()
        },
    )
    .unwrap();
    assert!(report.passed(), "violations: {:?}", report.violations);
    assert_eq!(report.cache_images, 4, "4 distinct spin variants interned");
    server.shutdown();
}
