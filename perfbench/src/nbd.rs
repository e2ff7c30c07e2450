//! `nbd-session`: two `NbdClient` connections in a closed loop send
//! seeded mixed traffic (50 % write, 30 % read, 10 % trim, 10 % FLUSH,
//! the mix of `twl_blockdev::drive_mixed`) to an in-process `twl-blockd`
//! with a state directory, which is then restarted from that directory.
//! The only path through `nbd`, `store`, `gateway` and persist/replay.

use std::path::Path;
use std::thread;
use std::time::Instant;

use twl_blockdev::{
    BlockServer, BlockStore, BlockdevConfig, GatewayConfig, NbdClient, WearGateway,
};
use twl_pcm::LogicalPageAddr;
use twl_rng::{SimRng, Xoshiro256StarStar};
use twl_workloads::{read_trace, write_trace};

use crate::stats::{median, quantile, secs};
use crate::{detail, peak_rss_mb, Outcome, RunConfig, THREADS};

/// Simulated pages behind the export (4 KiB each: a 4 MiB export). The
/// mean endurance is far above what a run can write, so no request
/// meets `ENOSPC`.
const PAGES: u64 = 1024;
const ENDURANCE: u64 = 100_000;
const ALIGN: u64 = 512;
/// Times a fresh daemon is bound per run; `setup_s` is the median.
const SETUPS: usize = 9;
/// Times the daemon is restarted from the session's state directory.
const RESTARTS: usize = 3;
/// Requests per connection in the traced, in-process mirror.
const TRACED_OPS: u64 = 3_000;

fn config(state_dir: Option<&Path>) -> BlockdevConfig {
    BlockdevConfig {
        gateway: GatewayConfig {
            pages: PAGES,
            mean_endurance: ENDURANCE,
            ..GatewayConfig::default()
        },
        state_dir: state_dir.map(Path::to_path_buf),
        ..BlockdevConfig::default()
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Kind {
    Write,
    Read,
    Trim,
    Flush,
}

/// One request of connection `conn`'s seeded stream. Each connection
/// owns its own half of the export, so its shadow copy is exact even
/// while the other connection writes.
struct Op {
    kind: Kind,
    offset: u64,
    len: u64,
    data: Vec<u8>,
}

struct OpStream {
    rng: Xoshiro256StarStar,
    base: u64,
    slots: u64,
}

impl OpStream {
    fn new(seed: u64, conn: u64, export_bytes: u64) -> Self {
        let half = export_bytes / THREADS as u64;
        Self {
            rng: Xoshiro256StarStar::seed_from(seed.wrapping_mul(0x9E37_79B9).wrapping_add(conn)),
            base: conn * half,
            slots: half / ALIGN,
        }
    }

    fn next(&mut self) -> Op {
        let kind = match self.rng.next_bounded(10) {
            0..=4 => Kind::Write,
            5..=7 => Kind::Read,
            8 => Kind::Trim,
            _ => Kind::Flush,
        };
        let slot = self.rng.next_bounded(self.slots);
        let len = (self.rng.next_bounded((self.slots - slot).min(8)) + 1) * ALIGN;
        let mut data = Vec::new();
        if kind == Kind::Write {
            data = vec![0u8; len as usize];
            for chunk in data.chunks_mut(8) {
                chunk.copy_from_slice(&self.rng.next_u64().to_le_bytes()[..chunk.len()]);
            }
        }
        Op {
            kind,
            offset: self.base + slot * ALIGN,
            len,
            data,
        }
    }
}

/// One timed request: its kind, latency in µs, and when it completed,
/// in seconds since the session started.
type Sample = (Kind, f64, f64);

/// Per-connection results: latency samples and failed checks.
#[derive(Default)]
struct Session {
    samples: Vec<Sample>,
    errors: Vec<String>,
}

/// Closed loop on one connection until `deadline`, checking every read
/// against the connection's shadow of its half of the export.
fn drive(
    addr: std::net::SocketAddr,
    seed: u64,
    conn: u64,
    start: Instant,
    deadline: Instant,
) -> Session {
    let mut s = Session::default();
    let mut client = match NbdClient::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            s.errors.push(format!("connection {conn}: connect: {e}"));
            return s;
        }
    };
    let mut ops = OpStream::new(seed, conn, client.export_bytes());
    let mut shadow = vec![0u8; (ops.slots * ALIGN) as usize];
    while Instant::now() < deadline {
        let op = ops.next();
        let at = (op.offset - ops.base) as usize..(op.offset - ops.base + op.len) as usize;
        let t = Instant::now();
        let result = match op.kind {
            Kind::Write => client.write(op.offset, &op.data),
            Kind::Read => client.read(op.offset, op.len as u32).map(|got| {
                if got != shadow[at.clone()] {
                    s.errors.push(format!(
                        "connection {conn}: read at {} returned stale bytes",
                        op.offset
                    ));
                }
            }),
            Kind::Trim => client.trim(op.offset, op.len as u32),
            Kind::Flush => client.flush(),
        };
        s.samples
            .push((op.kind, secs(t.elapsed()) * 1e6, secs(start.elapsed())));
        match result {
            Ok(()) => match op.kind {
                Kind::Write => shadow[at].copy_from_slice(&op.data),
                Kind::Trim => shadow[at].fill(0),
                _ => {}
            },
            Err(e) => s
                .errors
                .push(format!("connection {conn}: {:?}: {e}", op.kind)),
        }
    }
    if let Err(e) = client.disconnect() {
        s.errors.push(format!("connection {conn}: disconnect: {e}"));
    }
    s
}

fn latencies(samples: &[Sample], kind: Kind) -> Vec<f64> {
    samples
        .iter()
        .filter(|s| s.0 == kind)
        .map(|s| s.1)
        .collect()
}

/// Length of the windows the session is cut into for its end-to-end
/// figures: each is the median over windows, so a stall of the shared
/// host's disk in one window does not move the run's result.
const WINDOW_S: f64 = 0.5;

/// Per window: completed requests per second, and the `q` quantile of
/// their latencies in ms. Only whole windows count.
fn windows(samples: &[Sample], wall: f64, q: &[f64]) -> Vec<Vec<f64>> {
    let n = (wall / WINDOW_S).floor().max(1.0) as usize;
    let mut by_window = vec![Vec::new(); n];
    for s in samples {
        if let Some(w) = by_window.get_mut((s.2 / WINDOW_S) as usize) {
            w.push(s.1 / 1e3);
        }
    }
    by_window
        .iter()
        .map(|w| {
            std::iter::once(w.len() as f64 / WINDOW_S)
                .chain(q.iter().map(|&q| quantile(w, q)))
                .collect()
        })
        .collect()
}

/// The untraced end-to-end run.
pub fn run(cfg: &RunConfig) -> Outcome {
    println!(
        "geometry pages={PAGES} bytes_per_page=4096 export_bytes={} mean_endurance={ENDURANCE} \
         connections={THREADS} mix=write50/read30/trim10/flush10",
        PAGES * 4096
    );
    let mut out = Outcome::default();
    let mut setups = Vec::new();
    let mut server = None;
    let mut state = cfg.scratch.clone();
    for i in 0..SETUPS {
        state = cfg.dir(&format!("blockd-{i}"));
        let t = Instant::now();
        let bound = BlockServer::bind(&config(Some(&state)), "127.0.0.1:0", "127.0.0.1:0")
            .expect("bind twl-blockd");
        setups.push(secs(t.elapsed()));
        server = Some(bound);
    }
    let server = server.expect("SETUPS is positive");
    let addr = server.data_addr();
    let handle = server.shutdown_handle();
    let daemon = thread::spawn(move || server.run());

    let start = Instant::now();
    let deadline = start + cfg.budget;
    let sessions: Vec<Session> = thread::scope(|scope| {
        let conns: Vec<_> = (0..THREADS as u64)
            .map(|conn| scope.spawn(move || drive(addr, cfg.seed, conn, start, deadline)))
            .collect();
        conns
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let wall = secs(start.elapsed());
    let live = handle.probe();
    handle.shutdown();
    match daemon.join() {
        Ok(Ok(())) => {}
        Ok(Err(e)) => out.fail(format!("twl-blockd: {e}")),
        Err(_) => out.fail("twl-blockd thread panicked".to_owned()),
    }

    let mut samples = Vec::new();
    for s in sessions {
        out.attempted += s.samples.len() as u64;
        for e in s.errors {
            out.fail(e);
        }
        samples.extend(s.samples);
    }

    // The capture must replay offline to the live wear state, and a
    // restarted daemon must come back to it too.
    match std::fs::read(state.join("capture.trace"))
        .map_err(|e| e.to_string())
        .and_then(|bytes| read_trace(bytes.as_slice()).map_err(|e| e.to_string()))
        .and_then(|cmds| {
            WearGateway::replay(config(None).gateway, &cmds).map_err(|e| e.to_string())
        }) {
        Ok(replayed) if replayed.probe() == live => {}
        Ok(_) => out.fail("offline replay of the capture differs from the live probe".to_owned()),
        Err(e) => out.fail(format!("offline replay: {e}")),
    }
    let mut restarts = Vec::new();
    for _ in 0..RESTARTS {
        let t = Instant::now();
        match BlockServer::bind(&config(Some(&state)), "127.0.0.1:0", "127.0.0.1:0") {
            Ok(restarted) => {
                restarts.push(secs(t.elapsed()));
                if restarted.shutdown_handle().probe() != live {
                    out.fail("restarted daemon's probe differs from the live probe".to_owned());
                }
            }
            Err(e) => out.fail(format!("restart: {e}")),
        }
    }

    let all: Vec<f64> = samples.iter().map(|s| s.1).collect();
    let reads = latencies(&samples, Kind::Read);
    let writes = latencies(&samples, Kind::Write);
    let flushes = latencies(&samples, Kind::Flush);
    let rate = all.len() as f64 / wall;
    detail("nbd_ops_per_s", rate, "1/s", &format!("n={}", all.len()));
    for (name, v, q) in [
        ("nbd_read_p50_us", &reads, 0.5),
        ("nbd_read_p99_us", &reads, 0.99),
        ("nbd_write_p50_us", &writes, 0.5),
        ("nbd_write_p99_us", &writes, 0.99),
        ("nbd_flush_p50_us", &flushes, 0.5),
        ("nbd_flush_p90_us", &flushes, 0.9),
    ] {
        detail(name, quantile(v, q), "us", &format!("n={}", v.len()));
    }
    detail(
        "restart_s",
        median(&restarts),
        "s",
        &format!("n={}", restarts.len()),
    );
    let per_window = windows(&samples, wall, &[0.5]);
    let column = |i: usize| median(&per_window.iter().map(|w| w[i]).collect::<Vec<_>>());
    println!(
        "windows {} of {WINDOW_S} s; requests/s quartiles {:.0} {:.0} {:.0}",
        per_window.len(),
        quantile(&per_window.iter().map(|w| w[0]).collect::<Vec<_>>(), 0.25),
        column(0),
        quantile(&per_window.iter().map(|w| w[0]).collect::<Vec<_>>(), 0.75),
    );
    out.push("setup_s", median(&setups), "s");
    out.push("peak_rss_mb", peak_rss_mb(), "MB");
    out.push("throughput_per_s", column(0), "1/s");
    out.push("latency_p50_ms", column(1), "ms");
    out
}

/// The traced run: both connections' request streams applied in process
/// to a `BlockStore` and a `WearGateway` the way the daemon serves them,
/// each public call timed.
pub fn traced(cfg: &RunConfig) -> Outcome {
    println!("traced nbd-session: {TRACED_OPS} requests per connection, in process");
    let mut out = Outcome::default();
    let geometry = config(None).geometry();
    let export = geometry.export_bytes();
    let mut store = BlockStore::zeroed(export);
    let mut gateway = WearGateway::new(config(None).gateway).expect("build gateway");
    let mut streams: Vec<OpStream> = (0..THREADS as u64)
        .map(|c| OpStream::new(cfg.seed, c, export))
        .collect();
    let (mut store_write, mut store_read, mut page_write, mut probe) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut writes, mut pages) = (0u64, 0u64);
    for i in 0..TRACED_OPS * THREADS as u64 {
        let op = streams[(i % THREADS as u64) as usize].next();
        out.attempted += 1;
        match op.kind {
            Kind::Write => {
                let t = Instant::now();
                store.write(op.offset, &op.data).expect("write in range");
                store_write.push(secs(t.elapsed()) * 1e6);
                writes += 1;
                for page in geometry.pages_touched(op.offset, op.len) {
                    let t = Instant::now();
                    if let Err(e) = gateway.write_page(LogicalPageAddr::new(page)) {
                        out.fail(format!("gateway write: {e}"));
                    }
                    page_write.push(secs(t.elapsed()) * 1e6);
                    pages += 1;
                }
            }
            Kind::Read => {
                let mut buf = vec![0u8; op.len as usize];
                let t = Instant::now();
                store.read(op.offset, &mut buf).expect("read in range");
                store_read.push(secs(t.elapsed()) * 1e6);
            }
            Kind::Trim => store.trim(op.offset, op.len).expect("trim in range"),
            Kind::Flush => {}
        }
        let t = Instant::now();
        std::hint::black_box(gateway.probe());
        probe.push(secs(t.elapsed()) * 1e6);
    }

    let dir = cfg.dir("t-blockd");
    let (mut persist, mut replay) = (Vec::new(), Vec::new());
    let mut capture_bytes = 0;
    for _ in 0..RESTARTS {
        let t = Instant::now();
        store
            .persist(&dir.join("store.img"))
            .expect("persist image");
        let mut trace = Vec::new();
        write_trace(&mut trace, gateway.capture()).expect("encode capture");
        std::fs::write(dir.join("capture.trace"), &trace).expect("write capture");
        persist.push(secs(t.elapsed()) * 1e3);
        capture_bytes = trace.len();

        let t = Instant::now();
        let bytes = std::fs::read(dir.join("capture.trace")).expect("read capture");
        let cmds = read_trace(bytes.as_slice()).expect("decode capture");
        let replayed = WearGateway::replay(config(None).gateway, &cmds).expect("replay capture");
        replay.push(secs(t.elapsed()));
        if replayed.probe() != gateway.probe() {
            out.fail("in-process replay differs from the mirrored gateway".to_owned());
        }
    }
    let image = BlockStore::load(&dir.join("store.img"), export).expect("load image");
    let (mut a, mut b) = (vec![0u8; export as usize], vec![0u8; export as usize]);
    image.read(0, &mut a).expect("read image");
    store.read(0, &mut b).expect("read store");
    if a != b {
        out.fail("persisted image differs from the store".to_owned());
    }

    out.push("blockdev.store_write_us", median(&store_write), "us");
    out.push("blockdev.store_read_us", median(&store_read), "us");
    out.push("blockdev.gateway_write_page_us", median(&page_write), "us");
    out.push(
        "blockdev.pages_per_write",
        pages as f64 / writes.max(1) as f64,
        "count",
    );
    out.push("blockdev.probe_us", median(&probe), "us");
    out.push("blockdev.persist_ms", median(&persist), "ms");
    out.push("blockdev.capture_bytes", capture_bytes as f64, "count");
    out.push("blockdev.replay_s", median(&replay), "s");
    out
}
