//! The service under test, exactly as `hybridc serve --listen-unix` builds
//! it — `FleetRouter::new` + `serve_unix(.., workers, SchedPolicy::Edf)` on
//! a thread, a real unix socket — plus the closed-loop client.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use hybrid_bench::driver::DriverConfig;
use hybrid_bench::fleet::{FleetOptions, FleetRouter};
use hybrid_bench::json::Json;
use hybrid_bench::serve::{serve_unix, SchedPolicy};

use crate::workload::Op;

/// The settings every run pins explicitly and records in its `meta` block.
#[derive(Clone, Copy, Debug)]
pub struct Pinned {
    /// Worker threads per connection: `min(nproc, 2)`.
    pub workers: usize,
    /// Simulator threads per request (1: the driver's interpreter path).
    pub sim_threads: usize,
    /// Candidate-level tuning workers (0: the driver's own auto split).
    pub tune_workers: usize,
}

impl Pinned {
    pub fn for_host(nproc: usize) -> Pinned {
        Pinned {
            workers: nproc.clamp(1, 2),
            sim_threads: 1,
            tune_workers: 0,
        }
    }
}

/// A scratch directory under the harness's own `out/`, removed on drop
/// (socket, plan cache and emitted artifacts all live inside it).
pub struct TempDir(PathBuf);

impl TempDir {
    pub fn create(out_dir: &Path, tag: &str) -> std::io::Result<TempDir> {
        let dir = out_dir.join(format!("tmp-{}-{tag}", std::process::id()));
        // A previous process with the same pid may have died here.
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(TempDir(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The base configuration of the service (and of every direct call the
/// traced run makes beside it).
pub fn base_config(dir: &Path, pinned: Pinned) -> DriverConfig {
    let mut cfg = DriverConfig::new(dir.join("artifacts"));
    cfg.cache_dir = Some(dir.join("cache"));
    cfg.sim_threads = pinned.sim_threads;
    cfg.tune_workers = pinned.tune_workers;
    cfg
}

/// A running in-process `hybridd`.
pub struct Service {
    pub router: Arc<FleetRouter>,
    socket: PathBuf,
    listener: Option<JoinHandle<std::io::Result<()>>>,
    /// Declared last: the directory goes after the listener has stopped.
    dir: TempDir,
}

impl Service {
    pub fn start(out_dir: &Path, tag: &str, pinned: Pinned) -> std::io::Result<Service> {
        let dir = TempDir::create(out_dir, tag)?;
        let router = Arc::new(FleetRouter::new(
            base_config(dir.path(), pinned),
            FleetOptions::default(),
        ));
        let socket = short_path(&dir.path().join("hybridd.sock"));
        let listener = UnixListener::bind(&socket)?;
        let served = router.clone();
        let workers = pinned.workers;
        let listener = std::thread::Builder::new()
            .name("hybridd".to_string())
            .spawn(move || serve_unix(&*served, listener, workers, SchedPolicy::Edf))?;
        Ok(Service {
            router,
            socket,
            listener: Some(listener),
            dir,
        })
    }

    pub fn dir(&self) -> &Path {
        self.dir.path()
    }

    pub fn connect(&self) -> std::io::Result<Client> {
        Client::connect(&self.socket)
    }

    /// Stops the service as a `shutdown` op would and waits for the
    /// listener and every connection loop to end.
    pub fn stop(mut self) -> std::io::Result<()> {
        self.shutdown()
    }

    fn shutdown(&mut self) -> std::io::Result<()> {
        self.router.request_stop();
        match self.listener.take() {
            Some(handle) => handle
                .join()
                .unwrap_or_else(|_| Err(std::io::Error::other("hybridd listener panicked"))),
            None => Ok(()),
        }
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        let _ = self.shutdown();
    }
}

/// `sun_path` holds about a hundred bytes, so the socket is bound through
/// a path relative to the working directory whenever it lies below it.
fn short_path(path: &Path) -> PathBuf {
    std::env::current_dir()
        .ok()
        .and_then(|cwd| path.strip_prefix(cwd).ok().map(Path::to_path_buf))
        .unwrap_or_else(|| path.to_path_buf())
}

/// One answered request as the client saw it.
#[derive(Clone, Debug)]
pub struct Reply {
    pub op: Op,
    pub sent: Instant,
    pub received: Instant,
    pub response: Json,
}

impl Reply {
    pub fn latency(&self) -> Duration {
        self.received - self.sent
    }
}

/// One client connection: newline-delimited JSON over the unix socket.
pub struct Client {
    writer: UnixStream,
    reader: BufReader<UnixStream>,
}

impl Client {
    fn connect(socket: &Path) -> std::io::Result<Client> {
        let writer = UnixStream::connect(socket)?;
        // A hung service must fail the run, not hang it past the driver's
        // per-run limit.
        writer.set_read_timeout(Some(Duration::from_secs(120)))?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Client { writer, reader })
    }

    fn send(&mut self, line: &str) -> std::io::Result<()> {
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")
    }

    fn receive(&mut self) -> std::io::Result<Json> {
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "service closed the connection",
            ));
        }
        Json::parse(line.trim())
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
    }

    /// One request, one response (for `status`, `metrics` and set-up).
    pub fn call(&mut self, line: &str) -> std::io::Result<Json> {
        self.send(line)?;
        self.receive()
    }

    /// Drives `ops` to its end as a closed loop with `window` requests in
    /// flight: the next request goes out only when a response frees a
    /// slot. Responses are matched to requests by `id`.
    pub fn run_closed_loop(
        &mut self,
        ops: &mut dyn Iterator<Item = Op>,
        window: usize,
    ) -> std::io::Result<Vec<Reply>> {
        let mut inflight: HashMap<String, (Op, Instant)> = HashMap::new();
        let mut replies = Vec::new();
        loop {
            while inflight.len() < window {
                let Some(op) = ops.next() else { break };
                let sent = Instant::now();
                self.send(&op.line)?;
                inflight.insert(op.id.clone(), (op, sent));
            }
            if inflight.is_empty() {
                return Ok(replies);
            }
            let response = self.receive()?;
            let received = Instant::now();
            let id = response
                .get("id")
                .and_then(Json::as_str)
                .unwrap_or_default();
            let (op, sent) = inflight.remove(id).ok_or_else(|| {
                std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("response for unknown request id {id:?}"),
                )
            })?;
            replies.push(Reply {
                op,
                sent,
                received,
                response,
            });
        }
    }
}
