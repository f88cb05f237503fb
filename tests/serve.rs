//! Acceptance tests of the persistent TCP solver service: byte-identity
//! with the stdin transport against the committed golden report, and the
//! malformed-input guarantees — oversized lines, mid-request
//! disconnects, interleaved requests, unknown keys, admission control,
//! idle timeouts, and graceful shutdown all produce structured wire
//! responses (never a panic or hang).

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use pipeline_workflows::core::serve::{self, ServeConfig, ServeHandle, ServeState};

fn fixture(name: &str) -> String {
    format!(
        concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/{}"),
        name
    )
}

/// Starts an in-process server on an ephemeral port.
fn start(config: ServeConfig, default_instance: Option<&str>) -> (ServeHandle, Arc<ServeState>) {
    let state = Arc::new(ServeState::new(
        default_instance.map(str::to_string),
        config.cache_capacity,
    ));
    state.preload_default().expect("default instance loads");
    let handle = serve::spawn("127.0.0.1:0", Arc::clone(&state), config).expect("binds");
    (handle, state)
}

fn connect(handle: &ServeHandle) -> (BufReader<TcpStream>, TcpStream) {
    let stream =
        TcpStream::connect_timeout(&handle.local_addr(), Duration::from_secs(5)).expect("connects");
    stream
        .set_read_timeout(Some(Duration::from_secs(20)))
        .expect("read timeout settable");
    stream.set_nodelay(true).expect("nodelay settable");
    let writer = stream.try_clone().expect("socket clones");
    (BufReader::new(stream), writer)
}

fn send(writer: &mut TcpStream, line: &str) {
    writeln!(writer, "{line}").expect("request writes");
    writer.flush().expect("request flushes");
}

fn recv(reader: &mut BufReader<TcpStream>) -> String {
    let mut line = String::new();
    let n = reader.read_line(&mut line).expect("report reads");
    assert!(n > 0, "server closed instead of answering");
    line.trim_end().to_string()
}

#[test]
fn tcp_replay_matches_the_committed_golden_report() {
    let requests = std::fs::read_to_string(fixture("service_requests.txt")).expect("fixture");
    let golden = std::fs::read_to_string(fixture("service_reports.golden")).expect("golden");
    let (handle, _state) = start(
        ServeConfig::default(),
        Some(&fixture("service_instance.pw")),
    );
    let (mut reader, mut writer) = connect(&handle);
    // Lockstep replay of the *whole* file — comment and blank lines
    // included, so the server's per-connection line counter agrees with
    // the stdin transport's and the diagnostics match byte for byte.
    let mut replies = String::new();
    for line in requests.lines() {
        send(&mut writer, line);
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        replies.push_str(&recv(&mut reader));
        replies.push('\n');
    }
    assert_eq!(replies, golden, "TCP transport drifted from the golden");
    let stats = handle.shutdown();
    assert_eq!(stats.connections, 1);
    assert_eq!(stats.requests, golden.lines().count() as u64);
}

/// Lockstep replay of the wire v1.2 fixture (stats + cosched verbs)
/// against its committed golden. Unlike the v1 fixture this one is
/// replayed only here, in-process over exactly one connection: the
/// stats reports bake in `live=1 connections=1` and the running
/// request/cache counters, which a shell replay (with its port-probe
/// connections) could not reproduce. Regenerate deliberately with
/// `SERVICE_V12_REGEN=1 cargo test --test serve v12`.
#[test]
fn v12_replay_matches_the_committed_golden_report() {
    let requests = std::fs::read_to_string(fixture("service_requests_v12.txt")).expect("fixture");
    let (handle, _state) = start(
        ServeConfig::default(),
        Some(&fixture("service_instance.pw")),
    );
    let (mut reader, mut writer) = connect(&handle);
    let mut replies = String::new();
    for line in requests.lines() {
        send(&mut writer, line);
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        replies.push_str(&recv(&mut reader));
        replies.push('\n');
    }
    let golden_path = fixture("service_reports_v12.golden");
    if std::env::var_os("SERVICE_V12_REGEN").is_some() {
        std::fs::write(&golden_path, &replies).expect("golden writes");
        eprintln!("regenerated {golden_path}");
        handle.shutdown();
        return;
    }
    let golden = std::fs::read_to_string(&golden_path).expect(
        "missing tests/fixtures/service_reports_v12.golden — regenerate with \
         SERVICE_V12_REGEN=1 cargo test --test serve v12",
    );
    assert_eq!(
        replies, golden,
        "v1.2 TCP transport drifted from the golden"
    );
    handle.shutdown();
}

#[test]
fn stats_over_tcp_report_the_live_gauge_and_shared_counters() {
    let (handle, _state) = start(
        ServeConfig::default(),
        Some(&fixture("service_instance.pw")),
    );
    let (mut reader, mut writer) = connect(&handle);
    send(&mut writer, "solve id=1 objective=min-period");
    assert!(recv(&mut reader).starts_with("report id=1 status=ok"));
    // One open connection, one answered request, the preload's cache
    // miss and the solve's cache hit — all visible over the wire.
    send(&mut writer, "stats id=2");
    assert_eq!(
        recv(&mut reader),
        "report id=2 status=ok solver=stats live=1 connections=1 rejected=0 \
         requests=1 failures=0 cache-hits=1 cache-misses=1 cache-evictions=0 \
         uptime-s=0"
    );
    drop((reader, writer));
    // The live gauge drops back once the first connection's worker
    // unwinds (asynchronously — poll), while the connection total keeps
    // counting.
    let (mut reader, mut writer) = connect(&handle);
    let mut last = String::new();
    for _ in 0..200 {
        send(&mut writer, "stats id=3");
        last = recv(&mut reader);
        assert!(last.contains("connections=2"), "unexpected stats: {last}");
        if last.contains("live=1") {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(last.contains("live=1"), "live gauge never dropped: {last}");
    handle.shutdown();
}

#[test]
fn cosched_over_tcp_answers_and_fails_structurally() {
    let (handle, _state) = start(
        ServeConfig::default(),
        Some(&fixture("service_instance.pw")),
    );
    let (mut reader, mut writer) = connect(&handle);
    send(&mut writer, "cosched id=1 objective=max-min tenants=-,-");
    let reply = recv(&mut reader);
    assert!(
        reply.starts_with("report id=1 status=ok solver=cosched objective=max-min"),
        "unexpected cosched reply: {reply}"
    );
    assert!(reply.contains("partition="), "no partition: {reply}");
    // The solver keeps serving after a structured tenancy failure.
    send(
        &mut writer,
        "cosched id=2 objective=max-min tenants=-,-,-,-,-",
    );
    assert_eq!(
        recv(&mut reader),
        "report id=2 status=error code=too-few-processors"
    );
    send(&mut writer, "solve id=3 objective=min-period");
    assert!(recv(&mut reader).starts_with("report id=3 status=ok"));
    handle.shutdown();
}

#[test]
fn oversized_lines_fail_structurally_and_the_connection_survives() {
    let config = ServeConfig {
        max_line_bytes: 128,
        ..ServeConfig::default()
    };
    let (handle, _state) = start(config, Some(&fixture("service_instance.pw")));
    let (mut reader, mut writer) = connect(&handle);
    // 64 KiB of garbage on one line: answered with a bounded failure,
    // never buffered whole, and the connection keeps working.
    let huge = "x".repeat(64 * 1024);
    send(&mut writer, &huge);
    assert_eq!(
        recv(&mut reader),
        "report id=0 status=error code=line-too-long line=1"
    );
    send(&mut writer, "solve id=9 objective=min-period");
    let reply = recv(&mut reader);
    assert!(
        reply.starts_with("report id=9 status=ok"),
        "connection unusable after an oversized line: {reply}"
    );
    drop((reader, writer));
    let stats = handle.shutdown();
    assert_eq!(stats.failures, 1);
    assert_eq!(stats.requests, 2);
}

#[test]
fn mid_request_disconnect_leaves_the_server_alive() {
    let (handle, _state) = start(
        ServeConfig::default(),
        Some(&fixture("service_instance.pw")),
    );
    {
        let (_reader, mut writer) = connect(&handle);
        // A partial request with no terminating newline, then the peer
        // vanishes: the fragment is dropped, nothing is answered.
        writer
            .write_all(b"solve id=3 objective=min-per")
            .expect("partial write");
        writer.flush().expect("flushes");
    }
    // The server is still answering on fresh connections.
    let (mut reader, mut writer) = connect(&handle);
    send(&mut writer, "solve id=4 objective=min-latency");
    assert!(recv(&mut reader).starts_with("report id=4 status=ok"));
    drop((reader, writer));
    let stats = handle.shutdown();
    assert_eq!(stats.requests, 1, "the dropped fragment must not count");
    assert_eq!(stats.connections, 2);
}

#[test]
fn interleaved_requests_on_one_connection_answer_in_order() {
    let (handle, _state) = start(
        ServeConfig::default(),
        Some(&fixture("service_instance.pw")),
    );
    let (mut reader, mut writer) = connect(&handle);
    // All four requests written before any report is read: the reports
    // come back one per request, in request order.
    let batch = "solve id=1 objective=min-period\n\
                 solve id=2 objective=take-a-guess\n\
                 solve id=3 objective=min-latency\n\
                 solve id=4 objective=min-period strategy=best\n";
    writer.write_all(batch.as_bytes()).expect("batch writes");
    writer.flush().expect("batch flushes");
    let replies: Vec<String> = (0..4).map(|_| recv(&mut reader)).collect();
    assert!(replies[0].starts_with("report id=1 status=ok"));
    assert_eq!(
        replies[1],
        "report id=2 status=error code=bad-request line=2 key=objective"
    );
    assert!(replies[2].starts_with("report id=3 status=ok"));
    assert!(replies[3].starts_with("report id=4 status=ok"));
    handle.shutdown();
}

#[test]
fn unknown_keys_and_solvers_yield_structured_failures() {
    let (handle, _state) = start(
        ServeConfig::default(),
        Some(&fixture("service_instance.pw")),
    );
    let (mut reader, mut writer) = connect(&handle);
    send(&mut writer, "solve id=5 objective=min-period junk=1");
    assert_eq!(
        recv(&mut reader),
        "report id=5 status=error code=bad-request line=1 key=junk"
    );
    send(
        &mut writer,
        "solve id=6 objective=min-period strategy=hal9000",
    );
    assert_eq!(
        recv(&mut reader),
        "report id=6 status=error code=unknown-solver"
    );
    send(&mut writer, "solve id=7 objective=min-period bound=oops");
    assert_eq!(
        recv(&mut reader),
        "report id=7 status=error code=bad-request line=3 key=bound"
    );
    send(
        &mut writer,
        "solve id=8 objective=min-period instance=/no/such/file.pw",
    );
    assert_eq!(
        recv(&mut reader),
        "report id=8 status=error code=bad-instance"
    );
    drop((reader, writer));
    let stats = handle.shutdown();
    assert_eq!(stats.requests, 4);
    assert_eq!(stats.failures, 4);
}

#[test]
fn admission_limit_answers_overloaded_and_keeps_serving() {
    let config = ServeConfig {
        max_connections: 1,
        ..ServeConfig::default()
    };
    let (handle, _state) = start(config, Some(&fixture("service_instance.pw")));
    // Connection A occupies the only slot (a round-trip guarantees its
    // worker is registered before B arrives).
    let (mut reader_a, mut writer_a) = connect(&handle);
    send(&mut writer_a, "solve id=1 objective=min-period");
    assert!(recv(&mut reader_a).starts_with("report id=1 status=ok"));
    // Connection B is told, structurally, to go away.
    let (mut reader_b, _writer_b) = connect(&handle);
    assert_eq!(
        recv(&mut reader_b),
        "report id=0 status=error code=overloaded"
    );
    let mut rest = String::new();
    reader_b.read_line(&mut rest).expect("EOF after rejection");
    assert!(rest.is_empty(), "rejected connection must be closed");
    // A still works.
    send(&mut writer_a, "solve id=2 objective=min-latency");
    assert!(recv(&mut reader_a).starts_with("report id=2 status=ok"));
    drop((reader_a, writer_a));
    let stats = handle.shutdown();
    assert_eq!(stats.rejected, 1);
    assert_eq!(stats.connections, 2);
}

#[test]
fn idle_connections_time_out() {
    let config = ServeConfig {
        idle_timeout: Duration::from_millis(200),
        ..ServeConfig::default()
    };
    let (handle, _state) = start(config, Some(&fixture("service_instance.pw")));
    let (mut reader, _writer) = connect(&handle);
    // Say nothing; the server hangs up within the idle timeout (the
    // client's 20 s read timeout would fail the test on a hang).
    let mut line = String::new();
    let n = reader.read_line(&mut line).expect("EOF, not a hang");
    assert_eq!(n, 0, "expected the idle connection to be closed");
    handle.shutdown();
}

#[test]
fn trickled_bytes_do_not_defeat_the_idle_timeout() {
    let config = ServeConfig {
        idle_timeout: Duration::from_millis(300),
        ..ServeConfig::default()
    };
    let (handle, _state) = start(config, Some(&fixture("service_instance.pw")));
    let (mut reader, writer) = connect(&handle);
    // Slow-loris: one byte of an unterminated request line every 50 ms.
    // The idle clock runs per *line*, not per byte, so the trickle must
    // not keep the connection alive past the timeout.
    let trickler = std::thread::spawn(move || {
        let mut writer = writer;
        for _ in 0..60 {
            if writer
                .write_all(b"x")
                .and_then(|()| writer.flush())
                .is_err()
            {
                break; // server hung up mid-trickle — exactly the point
            }
            std::thread::sleep(Duration::from_millis(50));
        }
    });
    let t0 = std::time::Instant::now();
    let mut line = String::new();
    let n = reader.read_line(&mut line).expect("EOF, not a hang");
    let elapsed = t0.elapsed();
    assert_eq!(n, 0, "expected the trickling connection to be closed");
    assert!(
        elapsed < Duration::from_secs(2),
        "connection survived {elapsed:?} of byte trickle — the idle \
         clock is being reset per byte"
    );
    trickler.join().expect("trickler exits");
    let stats = handle.shutdown();
    assert_eq!(stats.requests, 0, "the partial line must not count");
}

#[test]
fn diagnostics_count_physical_lines_including_comments_and_blanks() {
    let (handle, _state) = start(
        ServeConfig::default(),
        Some(&fixture("service_instance.pw")),
    );
    let (mut reader, mut writer) = connect(&handle);
    // Comment and blank lines are answered with silence but still
    // advance the line counter: the bad request on physical line 3 must
    // be reported as line=3, matching what an editor shows in the
    // request file.
    send(&mut writer, "# a comment the server skips");
    send(&mut writer, "");
    send(&mut writer, "solve id=11 objective=take-a-guess");
    assert_eq!(
        recv(&mut reader),
        "report id=11 status=error code=bad-request line=3 key=objective"
    );
    handle.shutdown();
}

#[test]
fn update_requests_hot_reload_the_default_instance_over_tcp() {
    let (handle, _state) = start(
        ServeConfig::default(),
        Some(&fixture("service_instance.pw")),
    );
    let (mut reader, mut writer) = connect(&handle);
    send(&mut writer, "solve id=1 objective=min-period");
    let before = recv(&mut reader);
    assert!(before.starts_with("report id=1 status=ok"));
    // An in-place platform edit: processor 0 runs at a new speed. The
    // ack is an ordinary ok report carrying the updated instance's
    // landmarks.
    send(
        &mut writer,
        "update id=2 delta=proc-speed proc=0 speed=33.5",
    );
    let ack = recv(&mut reader);
    assert!(
        ack.starts_with("report id=2 status=ok solver=update"),
        "unexpected update ack: {ack}"
    );
    // Later solves see the drifted platform.
    send(&mut writer, "solve id=3 objective=min-period");
    let after = recv(&mut reader);
    assert!(after.starts_with("report id=3 status=ok"));
    assert_ne!(
        before.replace("id=1", "id=3"),
        after,
        "the update must change what later solves answer"
    );
    // A rejected delta is a structured failure, not a dead connection.
    send(&mut writer, "update id=4 delta=proc-speed proc=99 speed=1");
    assert_eq!(recv(&mut reader), "report id=4 status=error code=bad-delta");
    send(&mut writer, "solve id=5 objective=min-latency");
    assert!(recv(&mut reader).starts_with("report id=5 status=ok"));
    handle.shutdown();
}

#[test]
fn updates_without_a_default_instance_fail_structurally() {
    let (handle, _state) = start(ServeConfig::default(), None);
    let (mut reader, mut writer) = connect(&handle);
    send(&mut writer, "update id=7 delta=bandwidth bandwidth=5");
    assert_eq!(
        recv(&mut reader),
        "report id=7 status=error code=no-default-instance"
    );
    handle.shutdown();
}

#[test]
fn graceful_shutdown_drains_open_connections() {
    let (handle, state) = start(
        ServeConfig::default(),
        Some(&fixture("service_instance.pw")),
    );
    let (mut reader, mut writer) = connect(&handle);
    send(&mut writer, "solve id=1 objective=min-period");
    assert!(recv(&mut reader).starts_with("report id=1 status=ok"));
    let stats = handle.shutdown(); // blocks until the worker exits
    assert_eq!(stats.connections, 1);
    assert_eq!(stats.requests, 1);
    assert_eq!(stats.failures, 0);
    assert_eq!(stats, state.stats(), "handle and state agree");
    // The drained socket reads EOF rather than hanging.
    let mut rest = String::new();
    let n = reader.read_line(&mut rest).expect("EOF after shutdown");
    assert_eq!(n, 0);
}

#[test]
fn over_quota_connection_is_refused_while_a_fresh_one_succeeds() {
    let config = ServeConfig {
        request_quota: Some(2),
        ..ServeConfig::default()
    };
    let (handle, _state) = start(config, Some(&fixture("service_instance.pw")));
    let (mut reader, mut writer) = connect(&handle);
    // The first two requests fit the budget.
    send(&mut writer, "solve id=1 objective=min-period");
    assert!(recv(&mut reader).starts_with("report id=1 status=ok"));
    send(&mut writer, "solve id=2 objective=min-latency");
    assert!(recv(&mut reader).starts_with("report id=2 status=ok"));
    // The third is refused with a structured failure (line counter
    // included, like every other wire diagnostic)...
    send(&mut writer, "solve id=3 objective=min-period");
    assert_eq!(
        recv(&mut reader),
        "report id=0 status=error code=quota-exceeded line=3"
    );
    // ...and the connection is closed: EOF, not a hang.
    let mut rest = String::new();
    let n = reader.read_line(&mut rest).expect("EOF after refusal");
    assert_eq!(n, 0);

    // A fresh connection gets a fresh budget.
    let (mut reader2, mut writer2) = connect(&handle);
    send(&mut writer2, "solve id=9 objective=min-period");
    assert!(recv(&mut reader2).starts_with("report id=9 status=ok"));
    drop((reader2, writer2));

    let stats = handle.shutdown();
    assert_eq!(stats.connections, 2);
    // 4 requests reached the budgeted path; 1 was the refusal.
    assert_eq!(stats.requests, 4);
    assert_eq!(stats.failures, 1);
}

#[test]
fn blank_and_comment_lines_do_not_consume_the_quota() {
    let config = ServeConfig {
        request_quota: Some(1),
        ..ServeConfig::default()
    };
    let (handle, _state) = start(config, Some(&fixture("service_instance.pw")));
    let (mut reader, mut writer) = connect(&handle);
    send(&mut writer, "# a comment");
    send(&mut writer, "");
    send(&mut writer, "solve id=1 objective=min-period");
    assert!(recv(&mut reader).starts_with("report id=1 status=ok"));
    send(&mut writer, "solve id=2 objective=min-period");
    // Physical line 4: two skipped lines, one answered request, then
    // the refusal.
    assert_eq!(
        recv(&mut reader),
        "report id=0 status=error code=quota-exceeded line=4"
    );
    handle.shutdown();
}

#[test]
fn expired_connection_deadline_is_refused_structurally() {
    let config = ServeConfig {
        conn_deadline: Some(Duration::from_millis(50)),
        ..ServeConfig::default()
    };
    let (handle, _state) = start(config, Some(&fixture("service_instance.pw")));
    let (mut reader, mut writer) = connect(&handle);
    send(&mut writer, "solve id=1 objective=min-period");
    assert!(recv(&mut reader).starts_with("report id=1 status=ok"));
    std::thread::sleep(Duration::from_millis(120));
    send(&mut writer, "solve id=2 objective=min-period");
    assert_eq!(
        recv(&mut reader),
        "report id=0 status=error code=deadline-exceeded line=2"
    );
    let mut rest = String::new();
    let n = reader.read_line(&mut rest).expect("EOF after refusal");
    assert_eq!(n, 0);
    handle.shutdown();
}
