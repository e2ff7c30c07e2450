//! The `twl-wire/v1` robustness contract, checked once against every
//! server that speaks it: `twl-serviced`, `twl-coordinator`, and the
//! `twl-blockd` control port. Malformed, truncated, and oversized
//! frames — including proptest-generated random byte blobs — cost at
//! worst the offending connection; a frame or decode error and a
//! wrong-version `hello` earn an `error` frame and a close; a request
//! the daemon does not serve earns an error and the connection stays
//! open; idle and half-open peers are reaped; and `shutdown` is
//! answered before the daemon exits.
//!
//! Each daemon runs in process, one shared instance per configuration
//! for the whole binary, and is poked with raw TCP writes.

use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::OnceLock;
use std::thread;
use std::time::{Duration, Instant};

use proptest::prelude::*;

use twl_attacks::AttackKind;
use twl_blockdev::{BlockServer, BlockdevConfig, GatewayConfig};
use twl_fleet::{Coordinator, FleetConfig};
use twl_lifetime::{SchemeKind, SimLimits};
use twl_pcm::PcmConfig;
use twl_service::{Client, JobKind, JobSpec, Request, Server, ServiceConfig, MAX_FRAME_BYTES};
use twl_telemetry::json::Json;
use twl_telemetry::prom::parse_exposition;

/// Every server of `twl-wire/v1`.
#[derive(Clone, Copy, Debug)]
enum Daemon {
    Serviced,
    Coordinator,
    Blockd,
}

const DAEMONS: [Daemon; 3] = [Daemon::Serviced, Daemon::Coordinator, Daemon::Blockd];

/// The idle deadline of the instances the half-open tests use, short
/// enough that a reap takes milliseconds instead of the production
/// default.
const SHORT_IDLE_MS: u64 = 250;

type Run = Box<dyn FnOnce() -> io::Result<()> + Send>;

impl Daemon {
    fn name(self) -> &'static str {
        match self {
            Self::Serviced => "twl-serviced",
            Self::Coordinator => "twl-coordinator",
            Self::Blockd => "twl-blockd",
        }
    }

    /// A well-formed request this daemon does not serve.
    fn unserved_request(self) -> Request {
        match self {
            Self::Serviced => Request::RegisterWorker {
                addr: "127.0.0.1:1".to_owned(),
            },
            Self::Coordinator => Request::RunCell {
                spec: JobSpec {
                    kind: JobKind::AttackMatrix,
                    pcm: PcmConfig::scaled(64, 500, 3),
                    limits: SimLimits::default(),
                    schemes: vec![SchemeKind::Nowl.into()],
                    attacks: vec![AttackKind::Repeat.into()],
                    benchmarks: vec![],
                    fault: None,
                },
                cell: 0,
            },
            Self::Blockd => Request::Cancel { job_id: 1 },
        }
    }

    /// Binds a fresh instance on port 0; returns its `twl-wire/v1`
    /// address and the call that runs it.
    fn bind(self, idle_timeout_ms: u64) -> (String, Run) {
        match self {
            Self::Serviced => {
                let server = Server::bind(&ServiceConfig {
                    addr: "127.0.0.1:0".to_owned(),
                    workers: 1,
                    idle_timeout_ms,
                    ..ServiceConfig::default()
                })
                .expect("bind twl-serviced");
                let addr = server.local_addr().expect("local addr").to_string();
                (addr, Box::new(move || server.run()))
            }
            Self::Coordinator => {
                let coordinator = Coordinator::bind(&FleetConfig {
                    addr: "127.0.0.1:0".to_owned(),
                    idle_timeout_ms,
                    planners: 1,
                    ..FleetConfig::default()
                })
                .expect("bind twl-coordinator");
                let addr = coordinator.local_addr().expect("local addr").to_string();
                (addr, Box::new(move || coordinator.run()))
            }
            Self::Blockd => {
                let config = BlockdevConfig {
                    gateway: GatewayConfig {
                        pages: 64,
                        mean_endurance: 1_000_000,
                        ..GatewayConfig::default()
                    },
                    bytes_per_page: 512,
                    state_dir: None,
                    idle_timeout_ms,
                };
                let server = BlockServer::bind(&config, "127.0.0.1:0", "127.0.0.1:0")
                    .expect("bind twl-blockd");
                let addr = server.control_addr().to_string();
                (addr, Box::new(move || server.run()))
            }
        }
    }

    /// The shared instance for this binary: idle reaping off, or at
    /// [`SHORT_IDLE_MS`]. Its thread dies with the process.
    fn shared(self, short_idle: bool) -> &'static str {
        static ADDRS: [OnceLock<String>; 6] = [const { OnceLock::new() }; 6];
        ADDRS[self as usize * 2 + usize::from(short_idle)].get_or_init(|| {
            let (addr, run) = self.bind(if short_idle { SHORT_IDLE_MS } else { 0 });
            thread::spawn(run);
            addr
        })
    }

    fn addr(self) -> &'static str {
        self.shared(false)
    }

    /// The daemon must still complete a full handshake.
    fn assert_still_serving(self) {
        let client = Client::connect(self.addr());
        assert!(
            client.is_ok(),
            "{} stopped serving: {:?}",
            self.name(),
            client.err()
        );
    }
}

fn frame(payload: &[u8]) -> Vec<u8> {
    let mut bytes = u32::try_from(payload.len()).unwrap().to_be_bytes().to_vec();
    bytes.extend_from_slice(payload);
    bytes
}

/// Writes raw bytes, half-closes, and drains whatever the server sends
/// back before it drops the connection.
fn poke(addr: &str, bytes: &[u8]) -> Vec<u8> {
    let mut stream = TcpStream::connect(addr).expect("connect raw");
    let _ = stream.write_all(bytes);
    let _ = stream.shutdown(Shutdown::Write);
    let mut reply = Vec::new();
    let _ = stream.read_to_end(&mut reply);
    reply
}

/// Writes raw bytes and keeps the write side open: the reply ends only
/// if the server itself hangs up. Panics if it has not within 10 s.
fn send_until_closed(daemon: Daemon, bytes: &[u8]) -> Vec<u8> {
    let mut stream = TcpStream::connect(daemon.addr()).expect("connect raw");
    stream.write_all(bytes).expect("send");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("set read timeout");
    let mut reply = Vec::new();
    if let Err(e) = stream.read_to_end(&mut reply) {
        panic!("{} kept the connection open: {e}", daemon.name());
    }
    reply
}

/// Decodes the complete response frames a reply holds.
fn decode_frames(mut reply: &[u8]) -> Vec<Json> {
    let mut frames = Vec::new();
    while reply.len() >= 4 {
        let len = u32::from_be_bytes([reply[0], reply[1], reply[2], reply[3]]) as usize;
        let Some(payload) = reply.get(4..4 + len) else {
            break;
        };
        let text = std::str::from_utf8(payload).expect("UTF-8 frame");
        frames.push(Json::parse(text).expect("JSON frame"));
        reply = &reply[4 + len..];
    }
    frames
}

fn frame_type(frame: &Json) -> Option<&str> {
    frame.get("type").and_then(Json::as_str)
}

/// The reply is exactly one `error` frame; returns its message.
fn single_error(daemon: Daemon, reply: &[u8]) -> String {
    let frames = decode_frames(reply);
    assert_eq!(frames.len(), 1, "{}: {frames:?}", daemon.name());
    assert_eq!(frame_type(&frames[0]), Some("error"), "{}", daemon.name());
    frames[0]
        .get("message")
        .and_then(Json::as_str)
        .expect("error message")
        .to_owned()
}

#[test]
fn oversized_frame_is_rejected_before_allocation() {
    let declared = u32::try_from(MAX_FRAME_BYTES).unwrap() + 1;
    for daemon in DAEMONS {
        let reply = send_until_closed(daemon, &declared.to_be_bytes());
        let message = single_error(daemon, &reply);
        assert!(message.starts_with("protocol error: "), "{message}");
        daemon.assert_still_serving();
    }
}

#[test]
fn truncated_frame_closes_only_that_connection() {
    // Header promises 100 bytes; only 5 arrive before the half-close.
    let mut bytes = 100u32.to_be_bytes().to_vec();
    bytes.extend_from_slice(b"hello");
    for daemon in DAEMONS {
        let reply = poke(daemon.addr(), &bytes);
        single_error(daemon, &reply);
        daemon.assert_still_serving();
    }
}

#[test]
fn non_json_payload_gets_a_protocol_error() {
    for daemon in DAEMONS {
        let reply = send_until_closed(daemon, &frame(b"\xff\xfe not json"));
        single_error(daemon, &reply);
        daemon.assert_still_serving();
    }
}

#[test]
fn valid_json_with_unknown_type_gets_a_protocol_error() {
    for daemon in DAEMONS {
        let reply = send_until_closed(daemon, &frame(br#"{"type":"frobnicate"}"#));
        let message = single_error(daemon, &reply);
        assert!(message.starts_with("bad request: "), "{message}");
        daemon.assert_still_serving();
    }
}

#[test]
fn wrong_version_hello_gets_an_error_and_a_close() {
    for daemon in DAEMONS {
        let reply = send_until_closed(daemon, &frame(br#"{"proto":"twl-wire/v0","type":"hello"}"#));
        let message = single_error(daemon, &reply);
        assert_eq!(
            message,
            format!(
                "protocol version mismatch: {} speaks twl-wire/v1, client spoke twl-wire/v0",
                daemon.name()
            )
        );
        daemon.assert_still_serving();
    }
}

#[test]
fn unserved_request_gets_an_error_and_the_connection_stays_open() {
    let hello = frame(br#"{"proto":"twl-wire/v1","type":"hello"}"#);
    for daemon in DAEMONS {
        let request = daemon.unserved_request();
        let mut bytes = frame(request.to_json().to_compact().as_bytes());
        bytes.extend_from_slice(&hello);
        let frames = decode_frames(&poke(daemon.addr(), &bytes));
        let types: Vec<_> = frames.iter().map(frame_type).collect();
        assert_eq!(
            types,
            [Some("error"), Some("hello_ok")],
            "{}",
            daemon.name()
        );
        let message = frames[0].get("message").and_then(Json::as_str);
        let expected = format!("{} is not served by {}", request.type_name(), daemon.name());
        assert_eq!(message, Some(expected.as_str()));
    }
}

#[test]
fn protocol_errors_are_counted_under_twl_wire() {
    for daemon in DAEMONS {
        send_until_closed(daemon, &frame(b"not json"));
        let page = Client::connect(daemon.addr())
            .and_then(|mut client| client.metrics())
            .expect("metrics");
        let samples = parse_exposition(&page).expect("metrics page lints");
        for name in ["twl_wire_connections", "twl_wire_protocol_errors"] {
            let value = samples.iter().find(|s| s.name == name).map(|s| s.value);
            assert!(value >= Some(1.0), "{}: {name} = {value:?}", daemon.name());
        }
    }
}

#[test]
fn half_open_connection_is_reaped_after_the_idle_timeout() {
    // A peer that completes the handshake and then goes silent — the
    // classic half-open connection — must be closed by the daemon, not
    // pin a connection thread forever.
    for daemon in DAEMONS {
        let addr = daemon.shared(true);
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .write_all(&frame(br#"{"proto":"twl-wire/v1","type":"hello"}"#))
            .expect("send hello");

        // Do NOT half-close: keep the write side open and just stop
        // talking. The server must hang up on its own within the idle
        // window.
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .expect("set read timeout");
        let start = Instant::now();
        let mut reply = Vec::new();
        stream
            .read_to_end(&mut reply)
            .expect("server closed the connection (EOF), not a client-side timeout");
        assert!(
            start.elapsed() < Duration::from_secs(20),
            "{} took {:?} to reap an idle connection",
            daemon.name(),
            start.elapsed()
        );

        // The reply holds the hello_ok plus a best-effort idle-timeout
        // error frame; the error is advisory, so only check it when the
        // bytes made it out before the close.
        let frames = decode_frames(&reply);
        assert_eq!(frames.first().and_then(frame_type), Some("hello_ok"));
        if let Some(error) = frames.get(1) {
            assert_eq!(
                error.get("message").and_then(Json::as_str),
                Some("idle timeout: closing connection")
            );
        }

        let client = Client::connect(addr);
        assert!(
            client.is_ok(),
            "{} stopped serving: {:?}",
            daemon.name(),
            client.err()
        );
    }
}

#[test]
fn shutdown_is_answered_before_the_daemon_exits() {
    for daemon in DAEMONS {
        for round in 0..20 {
            let (addr, run) = daemon.bind(0);
            let running = thread::spawn(run);
            let mut client = Client::connect(&addr).expect("connect");
            let reply = client.shutdown();
            assert!(
                reply.is_ok(),
                "{} round {round}: shutdown reply {reply:?}",
                daemon.name()
            );
            let exit = running.join().expect("run thread panicked");
            assert!(
                exit.is_ok(),
                "{} round {round}: run {exit:?}",
                daemon.name()
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Arbitrary byte blobs — empty, partial headers, garbage payloads,
    /// wild length prefixes — never take a daemon down.
    #[test]
    fn random_byte_frames_never_kill_the_daemon(
        bytes in proptest::collection::vec(any::<u8>(), 0..256)
    ) {
        for daemon in DAEMONS {
            let _ = poke(daemon.addr(), &bytes);
            let client = Client::connect(daemon.addr());
            prop_assert!(
                client.is_ok(),
                "{} stopped serving: {:?}",
                daemon.name(),
                client.err()
            );
        }
    }

    /// Half-open connections parked mid-frame — any prefix of garbage,
    /// never closed by the client — cost exactly that connection: the
    /// idle timeout reaps each one and the daemon keeps serving.
    #[test]
    fn half_open_connections_only_cost_themselves(
        bytes in proptest::collection::vec(any::<u8>(), 0..16)
    ) {
        // The three daemons idle out side by side.
        let outcomes: Vec<(Daemon, bool, bool)> = thread::scope(|scope| {
            let parked: Vec<_> = DAEMONS
                .map(|daemon| {
                    let bytes = &bytes;
                    scope.spawn(move || {
                        let addr = daemon.shared(true);
                        let mut stream = TcpStream::connect(addr).expect("connect");
                        let _ = stream.write_all(bytes);
                        // No shutdown, no further bytes: the connection
                        // idles mid-frame until the server's timeout
                        // reaps it.
                        stream
                            .set_read_timeout(Some(Duration::from_secs(30)))
                            .expect("set read timeout");
                        let mut reply = Vec::new();
                        // EOF is a graceful close; a reset means the
                        // server closed with our unread garbage still
                        // buffered. Both count as hanging up — only a
                        // client-side timeout would mean the connection
                        // leaked.
                        let hung_up = match stream.read_to_end(&mut reply) {
                            Ok(_) => true,
                            Err(e) => !matches!(
                                e.kind(),
                                io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                            ),
                        };
                        (daemon, hung_up, Client::connect(addr).is_ok())
                    })
                })
                .into_iter()
                .collect();
            parked.into_iter().map(|h| h.join().expect("no panic")).collect()
        });
        for (daemon, hung_up, still_serving) in outcomes {
            prop_assert!(hung_up, "{} never hung up within the client timeout", daemon.name());
            prop_assert!(still_serving, "{} stopped serving", daemon.name());
        }
    }
}
