//! The `twl-blockd` server: one NBD data port, one `twl-wire/v1`
//! control port, one wear pipeline.
//!
//! The data port speaks the NBD subset of [`crate::nbd`]; every
//! connection is handled on its own thread against a shared
//! [`BlockStore`] + [`WearGateway`] pair behind one mutex (NBD traffic
//! is request/response, so the lock hold time is one operation). The
//! control port runs the shared `twl-wire/v1` loop
//! ([`twl_service::serve`]) with the robustness contract of every
//! daemon, which makes `twl-ctl metrics --lint` and `twl-top` work
//! against a block daemon unmodified.
//!
//! Persistence: with a `--state-dir`, FLUSH, client disconnect, and
//! shutdown atomically persist the data image (`store.img`), the
//! capture stream (`capture.trace`), and the configuration
//! (`meta.json`). On restart the image restores the data and a replay
//! of the capture rebuilds the wear pipeline bit for bit — scheme
//! tables are XOR-keyed RNG state and are cheaper to re-derive than to
//! serialize.

use std::fs;
use std::io::{self, BufReader};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread;
use std::time::{Duration, Instant};

use twl_pcm::LogicalPageAddr;
use twl_service::{
    idle_deadline, is_idle_timeout, prepare_stream, serve, write_atomic, Reply, Request, Response,
    WireHandler,
};
use twl_telemetry::json::{int, str, Json};
use twl_telemetry::prom::render_exposition;
use twl_telemetry::{counter, gauge, histogram};
use twl_workloads::{read_trace, write_trace, MemCmd};

use crate::gateway::{GatewayConfig, GatewayError, GatewayProbe, WearGateway};
use crate::mapping::BlockGeometry;
use crate::nbd::{self, NbdError};
use crate::store::BlockStore;

/// Schema tag of `meta.json` in the state directory.
pub const META_SCHEMA: &str = "twl-blockdev/v1";

/// Everything `twl-blockd` needs to serve one export.
#[derive(Debug, Clone)]
pub struct BlockdevConfig {
    /// The wear pipeline behind the export.
    pub gateway: GatewayConfig,
    /// Bytes per simulated PCM page (the wear granularity); the export
    /// is the scheme's page count × `bytes_per_page` bytes.
    pub bytes_per_page: u64,
    /// Directory for `store.img` / `capture.trace` / `meta.json`;
    /// `None` disables persistence.
    pub state_dir: Option<PathBuf>,
    /// Idle timeout per connection in milliseconds; 0 disables.
    pub idle_timeout_ms: u64,
}

impl Default for BlockdevConfig {
    fn default() -> Self {
        Self {
            gateway: GatewayConfig::default(),
            bytes_per_page: 4096,
            state_dir: None,
            idle_timeout_ms: 0,
        }
    }
}

impl BlockdevConfig {
    /// The data region's geometry, which sizes the store image. The
    /// served export is sized from the built scheme instead
    /// ([`BlockServer::geometry`]); for Start-Gap it is one page
    /// smaller.
    #[must_use]
    pub fn geometry(&self) -> BlockGeometry {
        BlockGeometry {
            bytes_per_page: self.bytes_per_page,
            data_pages: self.gateway.pages,
        }
    }
}

struct DeviceState {
    store: BlockStore,
    gateway: WearGateway,
}

struct Shared {
    geometry: BlockGeometry,
    state: Mutex<DeviceState>,
    state_dir: Option<PathBuf>,
    idle: Option<Duration>,
    shutdown: AtomicBool,
}

impl Shared {
    fn lock(&self) -> MutexGuard<'_, DeviceState> {
        self.state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Pushes the wear pipeline's current shape into the
    /// `twl_blockdev_*` gauges and returns the gauge lock, so the caller
    /// can render them before another server publishes its own.
    fn refresh_gauges(&self) -> MutexGuard<'static, ()> {
        let probe = self.lock().gateway.probe();
        let gauges = GAUGES
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        publish_probe(&probe, self.geometry.export_bytes());
        gauges
    }

    /// Persists image + capture + meta atomically (each through a temp
    /// file and rename). No-op without a state dir.
    fn persist(&self) -> io::Result<()> {
        let Some(dir) = &self.state_dir else {
            return Ok(());
        };
        fs::create_dir_all(dir)?;
        let state = self.lock();
        state.store.persist(&dir.join("store.img"))?;
        let mut trace = Vec::new();
        write_trace(&mut trace, state.gateway.capture())?;
        write_atomic(&dir.join("capture.trace"), &trace)?;
        let meta = Json::obj([
            ("schema", str(META_SCHEMA)),
            ("bytes_per_page", int(self.geometry.bytes_per_page)),
            ("capture_cmds", int(state.gateway.capture().len() as u64)),
            ("gateway", state.gateway.config().to_json()),
        ]);
        write_atomic(&dir.join("meta.json"), meta.to_compact().as_bytes())?;
        counter!("twl.blockdev.persists").inc();
        Ok(())
    }
}

/// The `twl_blockdev_*` gauges live in the process-wide registry, so
/// every server in one process shares them. A metrics page publishes and
/// renders under this lock, so it shows its own daemon's probe and not
/// one that another server published in between.
static GAUGES: Mutex<()> = Mutex::new(());

/// Publishes one gateway probe as the `twl_blockdev_*` gauge family.
pub fn publish_probe(probe: &GatewayProbe, export_bytes: u64) {
    let as_i64 = |v: u64| i64::try_from(v).unwrap_or(i64::MAX);
    gauge!("twl.blockdev.export_bytes").set(as_i64(export_bytes));
    gauge!("twl.blockdev.wear_logical_writes").set(as_i64(probe.stats.logical_writes));
    gauge!("twl.blockdev.wear_device_writes").set(as_i64(probe.stats.device_writes));
    gauge!("twl.blockdev.wear_map_hash").set(as_i64(probe.wear_map_hash));
    gauge!("twl.blockdev.pages_retired").set(as_i64(probe.pages_retired));
    gauge!("twl.blockdev.spares_remaining").set(as_i64(probe.spares_remaining));
    gauge!("twl.blockdev.capture_cmds").set(as_i64(probe.capture_len));
    gauge!("twl.blockdev.end_of_life").set(i64::from(probe.end_of_life));
}

/// The running daemon: bound data + control listeners around shared
/// device state.
pub struct BlockServer {
    data: TcpListener,
    control: TcpListener,
    data_addr: SocketAddr,
    control_addr: SocketAddr,
    shared: Arc<Shared>,
}

impl BlockServer {
    /// Builds (or restores) the device state and binds both listeners.
    /// `data_addr`/`control_addr` may use port 0; the chosen ports are
    /// reported by [`BlockServer::data_addr`] / [`BlockServer::control_addr`].
    ///
    /// # Errors
    ///
    /// Propagates bind failures, state-dir I/O errors, a `meta.json`
    /// that disagrees with `config`, and gateway construction failures.
    pub fn bind(
        config: &BlockdevConfig,
        data_addr: impl ToSocketAddrs,
        control_addr: impl ToSocketAddrs,
    ) -> io::Result<Self> {
        let state = restore_or_new(config)?;
        let geometry = BlockGeometry {
            bytes_per_page: config.bytes_per_page,
            data_pages: state.gateway.pages(),
        };
        let data = TcpListener::bind(data_addr)?;
        let control = TcpListener::bind(control_addr)?;
        let data_addr = data.local_addr()?;
        let control_addr = control.local_addr()?;
        let shared = Arc::new(Shared {
            geometry,
            state: Mutex::new(state),
            state_dir: config.state_dir.clone(),
            idle: idle_deadline(config.idle_timeout_ms),
            shutdown: AtomicBool::new(false),
        });
        Ok(Self {
            data,
            control,
            data_addr,
            control_addr,
            shared,
        })
    }

    /// The served export: the built scheme's pages × bytes per page.
    #[must_use]
    pub fn geometry(&self) -> BlockGeometry {
        self.shared.geometry
    }

    /// The NBD data port.
    #[must_use]
    pub fn data_addr(&self) -> SocketAddr {
        self.data_addr
    }

    /// The `twl-wire/v1` control port.
    #[must_use]
    pub fn control_addr(&self) -> SocketAddr {
        self.control_addr
    }

    /// Serves both ports until a control-port `Shutdown` arrives, then
    /// persists and returns. Each connection gets its own thread.
    ///
    /// # Errors
    ///
    /// Propagates accept-loop failures and the final persist.
    pub fn run(self) -> io::Result<()> {
        let shared = Arc::clone(&self.shared);
        let data = self.data;
        let data_loop = thread::spawn(move || {
            for stream in data.incoming() {
                if shared.shutdown.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(stream) = stream else { continue };
                counter!("twl.blockdev.connections").inc();
                let _ = prepare_stream(&stream, shared.idle);
                let shared = Arc::clone(&shared);
                thread::spawn(move || {
                    if let Err(e) = handle_data_connection(&shared, stream) {
                        match e {
                            NbdError::Closed => {}
                            NbdError::Protocol(_) => {
                                counter!("twl.blockdev.protocol_errors").inc();
                            }
                            NbdError::Io(ref io_err) if is_idle_timeout(io_err) => {
                                counter!("twl.blockdev.idle_timeouts").inc();
                            }
                            _ => counter!("twl.blockdev.errors").inc(),
                        }
                    }
                    // A client that vanished mid-session still leaves a
                    // consistent snapshot behind.
                    let _ = shared.persist();
                });
            }
        });
        let served = serve(&self.control, self.shared.idle, &self.shared);
        // The control loop has returned (shutdown, or an error): stop
        // the data loop too.
        self.shared.shutdown.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(self.data_addr);
        let _ = data_loop.join();
        served?;
        self.shared.persist()
    }

    /// Asks a bound-but-not-yet-running server's accept loops to exit.
    /// Used by tests; the normal path is a control-port `Shutdown`.
    pub fn shutdown_handle(&self) -> ShutdownHandle {
        ShutdownHandle {
            shared: Arc::clone(&self.shared),
            data_addr: self.data_addr,
            control_addr: self.control_addr,
        }
    }
}

/// A handle that can stop a running [`BlockServer`] from another thread.
#[derive(Clone)]
pub struct ShutdownHandle {
    shared: Arc<Shared>,
    data_addr: SocketAddr,
    control_addr: SocketAddr,
}

impl ShutdownHandle {
    /// Flags shutdown and pokes both listeners so their accept loops
    /// observe it.
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(self.data_addr);
        let _ = TcpStream::connect(self.control_addr);
    }

    /// A point-in-time probe of the live wear pipeline (in-process
    /// tests compare this against an offline replay).
    #[must_use]
    pub fn probe(&self) -> GatewayProbe {
        self.shared.lock().gateway.probe()
    }

    /// The live physical wear counters, cloned.
    #[must_use]
    pub fn wear_counters(&self) -> Vec<u64> {
        self.shared.lock().gateway.wear_counters()
    }
}

/// Builds fresh state, or restores it from `config.state_dir` when a
/// `meta.json` is present: the image restores the data bytes, the
/// capture replays into a fresh wear pipeline. The image spans the
/// whole data region; an export whose scheme manages fewer pages
/// (Start-Gap) leaves its tail unused.
fn restore_or_new(config: &BlockdevConfig) -> io::Result<DeviceState> {
    let geometry = config.geometry();
    let meta_path = config.state_dir.as_ref().map(|d| d.join("meta.json"));
    let resumable = meta_path.as_ref().is_some_and(|p| p.exists());
    if !resumable {
        let gateway = WearGateway::new(config.gateway.clone()).map_err(gateway_io)?;
        return Ok(DeviceState {
            store: BlockStore::zeroed(geometry.export_bytes()),
            gateway,
        });
    }
    let dir = config.state_dir.as_ref().expect("resumable implies dir");
    let meta = Json::parse(&fs::read_to_string(dir.join("meta.json"))?)
        .map_err(|e| bad_state(format!("meta.json: {e}")))?;
    let schema = meta.get("schema").and_then(Json::as_str).unwrap_or("");
    if schema != META_SCHEMA {
        return Err(bad_state(format!(
            "meta.json schema `{schema}`, expected `{META_SCHEMA}`"
        )));
    }
    let saved = GatewayConfig::from_json(
        meta.get("gateway")
            .ok_or_else(|| bad_state("meta.json missing `gateway`".into()))?,
    )
    .map_err(bad_state)?;
    let saved_bpp = meta.get("bytes_per_page").and_then(Json::as_u64);
    if saved != config.gateway || saved_bpp != Some(config.bytes_per_page) {
        return Err(bad_state(
            "state dir was written under a different configuration".into(),
        ));
    }
    let store = BlockStore::load(&dir.join("store.img"), geometry.export_bytes())?;
    let capture = BufReader::new(fs::File::open(dir.join("capture.trace"))?);
    let cmds: Vec<MemCmd> = read_trace(capture)?;
    let gateway = WearGateway::replay(config.gateway.clone(), &cmds).map_err(gateway_io)?;
    counter!("twl.blockdev.restores").inc();
    Ok(DeviceState { store, gateway })
}

fn gateway_io(e: GatewayError) -> io::Error {
    io::Error::other(e.to_string())
}

fn bad_state(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// One NBD connection: handshake, then requests until disconnect.
fn handle_data_connection(shared: &Shared, mut stream: TcpStream) -> Result<(), NbdError> {
    if !nbd::server_handshake(&mut stream, shared.geometry.export_bytes())? {
        return Ok(()); // clean OPT_ABORT
    }
    loop {
        let req = nbd::read_request(&mut stream)?;
        let started = Instant::now();
        match req.cmd {
            nbd::CMD_READ => {
                let _span = twl_telemetry::span!("blockdev.read");
                let errno_data = serve_read(shared, req.offset, req.len);
                match errno_data {
                    Ok(data) => {
                        counter!("twl.blockdev.reads").inc();
                        counter!("twl.blockdev.bytes_read").add(u64::from(req.len));
                        nbd::write_simple_reply(&mut stream, req.handle, 0, &data)?;
                    }
                    Err(errno) => {
                        counter!("twl.blockdev.errors").inc();
                        nbd::write_simple_reply(&mut stream, req.handle, errno, &[])?;
                    }
                }
                histogram!("twl.blockdev.read_us")
                    .record(started.elapsed().as_micros().min(u128::from(u64::MAX)) as u64);
            }
            nbd::CMD_WRITE => {
                let _span = twl_telemetry::span!("blockdev.write");
                let errno = serve_write(shared, req.offset, &req.data);
                if errno == 0 {
                    counter!("twl.blockdev.writes").inc();
                    counter!("twl.blockdev.bytes_written").add(req.data.len() as u64);
                } else {
                    counter!("twl.blockdev.errors").inc();
                }
                nbd::write_simple_reply(&mut stream, req.handle, errno, &[])?;
                histogram!("twl.blockdev.write_us")
                    .record(started.elapsed().as_micros().min(u128::from(u64::MAX)) as u64);
            }
            nbd::CMD_TRIM => {
                let errno = serve_trim(shared, req.offset, req.len);
                if errno == 0 {
                    counter!("twl.blockdev.trims").inc();
                } else {
                    counter!("twl.blockdev.errors").inc();
                }
                nbd::write_simple_reply(&mut stream, req.handle, errno, &[])?;
            }
            nbd::CMD_FLUSH => {
                let errno = if shared.persist().is_ok() {
                    0
                } else {
                    nbd::EIO
                };
                counter!("twl.blockdev.flushes").inc();
                nbd::write_simple_reply(&mut stream, req.handle, errno, &[])?;
            }
            nbd::CMD_DISC => {
                let _ = shared.persist();
                return Ok(());
            }
            _ => {
                counter!("twl.blockdev.errors").inc();
                nbd::write_simple_reply(&mut stream, req.handle, nbd::EINVAL, &[])?;
            }
        }
    }
}

fn serve_read(shared: &Shared, offset: u64, len: u32) -> Result<Vec<u8>, u32> {
    if !shared.geometry.contains(offset, u64::from(len)) || len as usize > nbd::MAX_IO_BYTES {
        return Err(nbd::EINVAL);
    }
    let mut data = vec![0u8; len as usize];
    shared
        .lock()
        .store
        .read(offset, &mut data)
        .map_err(|_| nbd::EINVAL)?;
    Ok(data)
}

/// A write lands in the store first, then wears every touched page.
/// When the wear pipeline hits end of life mid-write the client gets
/// `ENOSPC` — like a real device failing a write, the data bytes that
/// already landed are not rolled back, and the capture keeps the
/// attempted page writes so a replay reproduces the same final state.
fn serve_write(shared: &Shared, offset: u64, data: &[u8]) -> u32 {
    if !shared.geometry.contains(offset, data.len() as u64) {
        return nbd::EINVAL;
    }
    let mut state = shared.lock();
    if state.gateway.end_of_life() {
        return nbd::ENOSPC;
    }
    if state.store.write(offset, data).is_err() {
        return nbd::EINVAL;
    }
    for page in shared.geometry.pages_touched(offset, data.len() as u64) {
        counter!("twl.blockdev.page_writes").inc();
        match state.gateway.write_page(LogicalPageAddr::new(page)) {
            Ok(()) => {}
            Err(GatewayError::EndOfLife) => return nbd::ENOSPC,
            Err(_) => return nbd::EIO,
        }
    }
    0
}

fn serve_trim(shared: &Shared, offset: u64, len: u32) -> u32 {
    if !shared.geometry.contains(offset, u64::from(len)) {
        return nbd::EINVAL;
    }
    match shared.lock().store.trim(offset, u64::from(len)) {
        Ok(()) => 0,
        Err(_) => nbd::EINVAL,
    }
}

/// The control port's side of the shared `twl-wire/v1` loop: an empty
/// `status`, the `twl_blockdev_*` metrics page, and a persisting
/// shutdown.
impl WireHandler for Shared {
    fn name(&self) -> &'static str {
        "twl-blockd"
    }

    fn respond(&self, request: Request) -> Option<Reply<'_>> {
        match request {
            Request::Status { .. } => Some(Reply::Frame(Response::StatusOk { jobs: Vec::new() })),
            _ => None,
        }
    }

    fn metrics(&self) -> String {
        let _gauges = self.refresh_gauges();
        render_exposition(&twl_telemetry::global().snapshot())
    }

    fn shutdown(&self) -> Response {
        let persisted = self.persist();
        self.shutdown.store(true, Ordering::SeqCst);
        match persisted {
            Ok(()) => Response::ShutdownOk,
            Err(e) => Response::Error {
                message: format!("persist failed: {e}"),
            },
        }
    }

    fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }
}
