//! End-to-end API tests against in-process servers: submit/poll/result,
//! validation, load-shed, retry → dead-letter, deadline enforcement,
//! and graceful drain + restart resume — all over real TCP.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use realm_serve::client::{extract_string_field, extract_u64_field, http_request, wait_terminal};
use realm_serve::{ServeConfig, Server};

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("realm-serve-api-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn start(config: ServeConfig) -> Server {
    Server::start(config).expect("server starts")
}

fn submit(server: &Server, body: &str) -> (u16, String) {
    http_request(server.addr(), "POST", "/jobs", Some(body)).expect("submit")
}

#[test]
fn submit_poll_result_roundtrip_and_result_is_byte_stable() {
    let dir = scratch("roundtrip");
    let server = start(ServeConfig {
        dir: dir.clone(),
        workers: 2,
        ..ServeConfig::default()
    });

    let body =
        r#"{"tenant":"alice","design":"realm:m=16,t=0","samples":4096,"seed":7,"chunk":512}"#;
    let (status, reply) = submit(&server, body);
    assert_eq!(status, 202, "{reply}");
    let id = extract_u64_field(&reply, "id").expect("id in 202");
    assert_eq!(
        extract_string_field(&reply, "state").as_deref(),
        Some("queued")
    );

    let state = wait_terminal(server.addr(), id, Duration::from_secs(60)).expect("terminal");
    assert_eq!(state, "completed");
    let (status, result_a) =
        http_request(server.addr(), "GET", &format!("/jobs/{id}/result"), None).expect("result");
    assert_eq!(status, 200, "{result_a}");
    assert!(
        result_a.contains("\"schema\":\"realm-serve/result/v1\""),
        "{result_a}"
    );

    // A second job with the exact same spec (different id, different
    // journal) must produce byte-identical result bytes.
    let (status, reply) = submit(&server, body);
    assert_eq!(status, 202);
    let id2 = extract_u64_field(&reply, "id").expect("id");
    assert_ne!(id, id2);
    wait_terminal(server.addr(), id2, Duration::from_secs(60)).expect("terminal");
    let (_, result_b) =
        http_request(server.addr(), "GET", &format!("/jobs/{id2}/result"), None).expect("result");
    assert_eq!(result_a, result_b, "equal specs must yield identical bytes");

    // Listing and metrics are served.
    let (status, list) = http_request(server.addr(), "GET", "/jobs", None).expect("list");
    assert_eq!(status, 200);
    assert!(list.contains("\"tenant\":\"alice\""), "{list}");
    let (status, metrics) = http_request(server.addr(), "GET", "/metrics", None).expect("metrics");
    assert_eq!(status, 200);
    assert!(metrics.contains("jobs_completed_total"), "{metrics}");

    server.shutdown().expect("shutdown");
    assert!(dir.join("metrics_summary.json").is_file());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn invalid_submissions_and_unknown_resources_are_4xx() {
    let dir = scratch("reject");
    let server = start(ServeConfig {
        dir: dir.clone(),
        workers: 1,
        ..ServeConfig::default()
    });
    for (body, needle) in [
        ("{not json", "invalid JSON"),
        (r#"{"design":"warp-core","samples":10}"#, "unknown design"),
        (r#"{"design":"accurate"}"#, "samples"),
        (
            r#"{"design":"accurate","samples":0}"#,
            "samples must be > 0",
        ),
        // Widths the design cannot build: rejected at admission, and
        // the acceptor that parsed them lives on to serve the requests
        // below (the default is four acceptors).
        (
            r#"{"design":"accurate@0","samples":10}"#,
            "invalid design configuration",
        ),
        (
            r#"{"design":"accurate@65","samples":10}"#,
            "invalid design configuration",
        ),
        (
            r#"{"design":"calm@3","samples":10}"#,
            "invalid design configuration",
        ),
        (
            r#"{"design":"implm@33","samples":10}"#,
            "invalid design configuration",
        ),
        // Exhaustive ranges past the design or past a u64 count.
        (
            r#"{"design":"realm:m=16,t=0","family":"exhaustive","a":[0,4294967295],"b":[1,5]}"#,
            "past the design's largest operand 65535",
        ),
        (
            r#"{"design":"accurate@64","family":"exhaustive","a":[1,5],"b":[0,18446744073709551615]}"#,
            "more values than a u64 counts",
        ),
    ] {
        let (status, reply) = submit(&server, body);
        assert_eq!(status, 400, "{body} -> {reply}");
        assert!(reply.contains(needle), "{body} -> {reply}");
    }
    let (status, _) = http_request(server.addr(), "GET", "/jobs/999", None).expect("get");
    assert_eq!(status, 404);
    let (status, _) = http_request(server.addr(), "GET", "/nowhere", None).expect("get");
    assert_eq!(status, 404);
    let (status, _) = http_request(server.addr(), "DELETE", "/jobs", None).expect("delete");
    assert_eq!(status, 405);
    server.shutdown().expect("shutdown");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn full_queue_sheds_with_429_and_drain_rejects_with_503() {
    let dir = scratch("shed");
    // Capacity 1, and a long job-retry backoff: a failing job parks in
    // the delay lane for seconds, deterministically holding the queue
    // at capacity while we probe the shed path.
    let server = start(ServeConfig {
        dir: dir.clone(),
        workers: 1,
        queue_capacity: 1,
        backoff_base: Duration::from_secs(5),
        backoff_max: Duration::from_secs(5),
        ..ServeConfig::default()
    });
    let body = r#"{"design":"accurate","samples":64,"chunk":64,
                   "inject_panic":[0],"persistent_panic":true,"max_retries":4}"#;
    let (status, reply) = submit(&server, body);
    assert_eq!(status, 202, "{reply}");

    // Wait until the failed attempt parks in the backoff lane.
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let (_, health) = http_request(server.addr(), "GET", "/healthz", None).expect("healthz");
        if extract_u64_field(&health, "queue_depth") == Some(1)
            && extract_u64_field(&health, "jobs_running") == Some(0)
        {
            break;
        }
        assert!(Instant::now() < deadline, "job never parked: {health}");
        std::thread::sleep(Duration::from_millis(10));
    }

    let (status, reply) = submit(&server, r#"{"design":"accurate","samples":64}"#);
    assert_eq!(status, 429, "{reply}");
    assert!(reply.contains("queue full"), "{reply}");

    // Drain: health flips to 503/draining, submissions get 503.
    server.drain();
    let (status, health) = http_request(server.addr(), "GET", "/healthz", None).expect("healthz");
    assert_eq!(status, 503);
    assert!(health.contains("\"status\":\"draining\""), "{health}");
    let (status, reply) = submit(&server, r#"{"design":"accurate","samples":64}"#);
    assert_eq!(status, 503, "{reply}");

    let metrics = server.registry().snapshot();
    let shed = metrics
        .counters
        .get("jobs_shed_total")
        .copied()
        .unwrap_or(0);
    assert!(shed >= 1, "shed counter must record the 429");
    server.shutdown().expect("shutdown");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn chunk_retries_absorb_transient_panics_but_persistent_ones_dead_letter() {
    let dir = scratch("retry");
    let server = start(ServeConfig {
        dir: dir.clone(),
        workers: 1,
        backoff_base: Duration::from_millis(10),
        backoff_max: Duration::from_millis(40),
        ..ServeConfig::default()
    });

    // Transient: the chunk panics once, the supervisor's chunk retry
    // succeeds, the job completes on its first attempt.
    let (status, reply) = submit(
        &server,
        r#"{"design":"accurate","samples":256,"chunk":64,"inject_panic":[1]}"#,
    );
    assert_eq!(status, 202, "{reply}");
    let id = extract_u64_field(&reply, "id").expect("id");
    let state = wait_terminal(server.addr(), id, Duration::from_secs(60)).expect("terminal");
    assert_eq!(state, "completed", "transient panics must be absorbed");

    // Persistent: every attempt quarantines; the job retries with
    // backoff until the budget is exhausted, then dead-letters.
    let (status, reply) = submit(
        &server,
        r#"{"design":"accurate","samples":256,"chunk":64,
            "inject_panic":[1],"persistent_panic":true,"max_retries":1}"#,
    );
    assert_eq!(status, 202, "{reply}");
    let id = extract_u64_field(&reply, "id").expect("id");
    let state = wait_terminal(server.addr(), id, Duration::from_secs(120)).expect("terminal");
    assert_eq!(state, "dead_letter");
    let (status, detail) =
        http_request(server.addr(), "GET", &format!("/jobs/{id}"), None).expect("detail");
    assert_eq!(status, 200);
    assert!(detail.contains("retries exhausted"), "{detail}");
    assert!(detail.contains("\"attempts\":2"), "{detail}");
    let (status, reply) =
        http_request(server.addr(), "GET", &format!("/jobs/{id}/result"), None).expect("result");
    assert_eq!(status, 409, "{reply}");

    let metrics = server.registry().snapshot();
    assert!(
        metrics
            .counters
            .get("jobs_retried_total")
            .copied()
            .unwrap_or(0)
            >= 1
    );
    assert_eq!(
        metrics.counters.get("jobs_dead_letter_total").copied(),
        Some(1)
    );
    server.shutdown().expect("shutdown");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn deadlines_fail_terminally_without_retry() {
    let dir = scratch("deadline");
    let server = start(ServeConfig {
        dir: dir.clone(),
        workers: 1,
        ..ServeConfig::default()
    });
    // A deadline the campaign cannot possibly meet.
    let (status, reply) = submit(
        &server,
        r#"{"design":"realm","samples":50000000,"chunk":4096,"deadline_ms":50}"#,
    );
    assert_eq!(status, 202, "{reply}");
    let id = extract_u64_field(&reply, "id").expect("id");
    let state = wait_terminal(server.addr(), id, Duration::from_secs(60)).expect("terminal");
    assert_eq!(state, "failed", "deadlines are terminal, not retried");
    let (_, detail) =
        http_request(server.addr(), "GET", &format!("/jobs/{id}"), None).expect("detail");
    assert!(detail.contains("deadline exceeded"), "{detail}");
    let metrics = server.registry().snapshot();
    assert_eq!(metrics.counters.get("jobs_retried_total").copied(), None);
    server.shutdown().expect("shutdown");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn graceful_drain_checkpoints_and_a_restart_resumes_bit_identically() {
    let dir = scratch("drain-resume");
    let body = r#"{"design":"realm:m=16,t=0","samples":2000000,"chunk":20000,"seed":3}"#;
    let id = {
        let server = start(ServeConfig {
            dir: dir.clone(),
            workers: 1,
            ..ServeConfig::default()
        });
        let (status, reply) = submit(&server, body);
        assert_eq!(status, 202, "{reply}");
        let id = extract_u64_field(&reply, "id").expect("id");
        // Let it make some progress, then drain mid-flight.
        std::thread::sleep(Duration::from_millis(150));
        server.shutdown().expect("graceful shutdown");
        id
    };

    // Restart over the same directory: the job is recovered, resumed
    // from its checkpoint, and completes.
    let server = start(ServeConfig {
        dir: dir.clone(),
        workers: 1,
        ..ServeConfig::default()
    });
    let state = wait_terminal(server.addr(), id, Duration::from_secs(120)).expect("terminal");
    assert_eq!(state, "completed");
    let (_, detail) =
        http_request(server.addr(), "GET", &format!("/jobs/{id}"), None).expect("detail");
    assert!(detail.contains("\"recovered\":true"), "{detail}");
    let (status, resumed) =
        http_request(server.addr(), "GET", &format!("/jobs/{id}/result"), None).expect("result");
    assert_eq!(status, 200);

    // Reference: the same spec, uninterrupted, on the same server.
    let (status, reply) = submit(&server, body);
    assert_eq!(status, 202, "{reply}");
    let ref_id = extract_u64_field(&reply, "id").expect("id");
    wait_terminal(server.addr(), ref_id, Duration::from_secs(120)).expect("terminal");
    let (_, reference) = http_request(
        server.addr(),
        "GET",
        &format!("/jobs/{ref_id}/result"),
        None,
    )
    .expect("result");
    assert_eq!(
        resumed, reference,
        "resumed result must be byte-identical to an uninterrupted run"
    );
    server.shutdown().expect("shutdown");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sla_jobs_bind_a_design_and_score_the_budget() {
    let dir = scratch("sla");
    let server = start(ServeConfig {
        dir: dir.clone(),
        workers: 1,
        ..ServeConfig::default()
    });

    // No design: admission asks the tenant's QoS controller to bind the
    // cheapest characterized configuration satisfying the SLA.
    let body = r#"{"tenant":"alice","samples":4096,"seed":3,"error_sla":"mean:0.05"}"#;
    let (status, reply) = submit(&server, body);
    assert_eq!(status, 202, "{reply}");
    let id = extract_u64_field(&reply, "id").expect("id in 202");

    let state = wait_terminal(server.addr(), id, Duration::from_secs(120)).expect("terminal");
    assert_eq!(state, "completed");
    let (status, result) =
        http_request(server.addr(), "GET", &format!("/jobs/{id}/result"), None).expect("result");
    assert_eq!(status, 200, "{result}");
    let design = extract_string_field(&result, "design").expect("resolved design in result");
    assert_ne!(design, "auto", "admission must record the concrete design");
    assert!(
        design.starts_with("realm:") || design == "accurate" || design.contains(':'),
        "bound design must come from the characterized zoo: {design}"
    );
    assert!(result.contains("\"error_sla\":\"mean:0.05\""), "{result}");

    // The characterization table is persisted next to the ledgers so a
    // restart loads instead of re-measuring.
    assert!(dir.join("qos_tables.json").is_file());

    // The delivered error is scored against the budget on /metrics, and
    // the tenant's rung is published.
    let (status, metrics) = http_request(server.addr(), "GET", "/metrics", None).expect("metrics");
    assert_eq!(status, 200);
    assert!(metrics.contains("\"sla_jobs_met_total\": 1"), "{metrics}");
    assert!(metrics.contains("qos_rung:alice"), "{metrics}");

    // A second job under the same SLA reuses the cached table and binds
    // the same rung (no drift was observed).
    let (status, reply) = submit(&server, body);
    assert_eq!(status, 202, "{reply}");
    let id2 = extract_u64_field(&reply, "id").expect("id");
    wait_terminal(server.addr(), id2, Duration::from_secs(120)).expect("terminal");
    let (_, result2) =
        http_request(server.addr(), "GET", &format!("/jobs/{id2}/result"), None).expect("result");
    assert_eq!(
        extract_string_field(&result2, "design").as_deref(),
        Some(design.as_str()),
        "stable SLA must keep a stable binding"
    );

    // A budget no approximate design can hold binds the exact top rung
    // (a fresh tenant gets a fresh controller).
    let (status, reply) = submit(
        &server,
        r#"{"tenant":"bob","samples":256,"error_sla":"mean:0.000000001,peak:0.000000001"}"#,
    );
    assert_eq!(status, 202, "{reply}");
    let id3 = extract_u64_field(&reply, "id").expect("id");
    wait_terminal(server.addr(), id3, Duration::from_secs(120)).expect("terminal");
    let (_, result3) =
        http_request(server.addr(), "GET", &format!("/jobs/{id3}/result"), None).expect("result");
    assert_eq!(
        extract_string_field(&result3, "design").as_deref(),
        Some("accurate"),
        "{result3}"
    );

    server.shutdown().expect("shutdown");
    let _ = std::fs::remove_dir_all(&dir);
}
