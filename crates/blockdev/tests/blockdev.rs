//! End-to-end: a live NBD session against `twl-blockd`'s server, the
//! capture it records, and the two guarantees the capture buys —
//! offline replay reproduces the wear state bit for bit, and a killed
//! daemon resumes from its snapshot without data loss.

#![forbid(unsafe_code)]

use std::fs::{self, File};
use std::path::PathBuf;
use std::thread::{self, JoinHandle};

use twl_blockdev::{
    drive_mixed, BlockServer, BlockdevConfig, GatewayConfig, NbdClient, ShutdownHandle, WearGateway,
};
use twl_service::Client;
use twl_telemetry::prom::parse_exposition;
use twl_workloads::read_trace;

fn test_config(state_dir: Option<PathBuf>) -> BlockdevConfig {
    BlockdevConfig {
        gateway: GatewayConfig {
            pages: 256,
            mean_endurance: 50_000,
            seed: 11,
            scheme: "TWL_swp".parse().expect("scheme label"),
            spare_fraction: 0.05,
            fault_seed: 0xBEEF,
        },
        bytes_per_page: 512,
        state_dir,
        idle_timeout_ms: 0,
    }
}

struct Daemon {
    data_addr: String,
    control_addr: String,
    handle: ShutdownHandle,
    thread: JoinHandle<std::io::Result<()>>,
}

fn start(config: &BlockdevConfig) -> Daemon {
    let server = BlockServer::bind(config, "127.0.0.1:0", "127.0.0.1:0").expect("bind twl-blockd");
    let data_addr = server.data_addr().to_string();
    let control_addr = server.control_addr().to_string();
    let handle = server.shutdown_handle();
    let thread = thread::spawn(move || server.run());
    Daemon {
        data_addr,
        control_addr,
        handle,
        thread,
    }
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("twl-blockdev-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

#[test]
fn live_session_capture_replays_bit_identically() {
    let dir = temp_dir("replay");
    let config = test_config(Some(dir.clone()));
    let daemon = start(&config);

    let mut client = NbdClient::connect(daemon.data_addr.as_str()).expect("connect");
    assert_eq!(client.export_bytes(), 256 * 512);
    let report = drive_mixed(&mut client, 600, 42).expect("drive");
    assert!(report.writes > 0, "the mix must contain writes");
    client.write(0, &[0xA5; 1024]).expect("direct write");
    client.flush().expect("flush");
    client.disconnect().expect("disconnect");

    // Disconnect persisted; wait for the connection thread to finish
    // by probing until the capture stops growing is unnecessary — the
    // client's DISC reply ordering guarantees the server saw it, but
    // the persist runs on the connection thread, so poll the file.
    let trace_path = dir.join("capture.trace");
    for _ in 0..200 {
        if trace_path.exists() {
            break;
        }
        thread::sleep(std::time::Duration::from_millis(10));
    }
    let live = daemon.handle.probe();
    let live_wear = daemon.handle.wear_counters();
    assert!(live.stats.logical_writes > 0);

    // Offline replay of the captured trace: bit-identical wear map and
    // WlStats.
    let cmds = read_trace(File::open(&trace_path).expect("capture.trace")).expect("trace codec");
    assert_eq!(cmds.len() as u64, live.capture_len);
    let replayed = WearGateway::replay(config.gateway.clone(), &cmds).expect("replay");
    assert_eq!(replayed.probe(), live, "replayed probe != live probe");
    assert_eq!(
        replayed.wear_counters(),
        live_wear.as_slice(),
        "replayed wear map != live wear map"
    );

    daemon.handle.shutdown();
    daemon.thread.join().expect("join").expect("run");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn killed_daemon_resumes_from_snapshot_without_data_loss() {
    let dir = temp_dir("resume");
    let config = test_config(Some(dir.clone()));
    let daemon = start(&config);

    let mut client = NbdClient::connect(daemon.data_addr.as_str()).expect("connect");
    drive_mixed(&mut client, 300, 7).expect("drive");
    let payload: Vec<u8> = (0..2048u32).map(|i| (i % 251) as u8).collect();
    client.write(4096, &payload).expect("write payload");
    client.flush().expect("flush");
    let at_flush = daemon.handle.probe();

    // "Kill": abandon the daemon without shutdown — no final persist, no
    // DISC. The state dir holds exactly the flush-time snapshot.
    drop(client);
    drop(daemon);

    let revived = start(&config);
    let mut client = NbdClient::connect(revived.data_addr.as_str()).expect("reconnect");
    assert_eq!(
        client.read(4096, 2048).expect("read back"),
        payload,
        "data written before the flush must survive the restart"
    );
    assert_eq!(
        revived.handle.probe(),
        at_flush,
        "the replayed wear pipeline must match the flush-time state"
    );

    // The revived daemon keeps serving writes and wearing the device.
    client.write(0, &[1u8; 512]).expect("write after resume");
    assert!(revived.handle.probe().stats.logical_writes > at_flush.stats.logical_writes);
    client.disconnect().expect("disconnect");
    revived.handle.shutdown();
    revived.thread.join().expect("join").expect("run");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn mismatched_state_dir_is_refused() {
    let dir = temp_dir("mismatch");
    let config = test_config(Some(dir.clone()));
    let daemon = start(&config);
    let mut client = NbdClient::connect(daemon.data_addr.as_str()).expect("connect");
    client.write(0, &[9u8; 512]).expect("write");
    client.flush().expect("flush");
    client.disconnect().expect("disconnect");
    daemon.handle.shutdown();
    daemon.thread.join().expect("join").expect("run");

    // Same dir, different geometry: the daemon must refuse, not
    // silently reinterpret the snapshot.
    let mut other = test_config(Some(dir.clone()));
    other.gateway.seed += 1;
    assert!(BlockServer::bind(&other, "127.0.0.1:0", "127.0.0.1:0").is_err());
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn control_port_speaks_twl_wire() {
    let config = test_config(None);
    let daemon = start(&config);

    let mut nbd = NbdClient::connect(daemon.data_addr.as_str()).expect("nbd connect");
    nbd.write(512, &[3u8; 512]).expect("write");

    let mut ctl = Client::connect(&daemon.control_addr).expect("twl-wire handshake");
    assert!(ctl.status(None).expect("status").is_empty());
    let page = ctl.metrics().expect("metrics");
    let samples = parse_exposition(&page).expect("metrics page must lint clean");
    let find = |name: &str| {
        samples
            .iter()
            .find(|s| s.name == name)
            .unwrap_or_else(|| panic!("missing sample {name}"))
            .value
    };
    assert_eq!(find("twl_blockdev_export_bytes"), (256 * 512) as f64);
    // Gauges are published on scrape, so each page shows up exactly.
    let first = find("twl_blockdev_wear_logical_writes");
    assert_eq!(first, 1.0);
    assert!(find("twl_blockdev_capture_cmds") >= 1.0);

    // Three more pages in one request, and a read that wears nothing.
    nbd.write(1024, &[4u8; 3 * 512]).expect("write");
    nbd.read(0, 512).expect("read");
    let page = ctl.metrics().expect("metrics");
    let samples = parse_exposition(&page).expect("metrics page must lint clean");
    let logical_writes = samples
        .iter()
        .find(|s| s.name == "twl_blockdev_wear_logical_writes")
        .expect("missing sample twl_blockdev_wear_logical_writes")
        .value;
    assert_eq!(logical_writes - first, 3.0);

    nbd.disconnect().expect("disconnect");
    ctl.shutdown().expect("shutdown");
    daemon.thread.join().expect("join").expect("run");
}
