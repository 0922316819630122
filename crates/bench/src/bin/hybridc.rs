//! `hybridc` — the end-to-end compiler driver for user-supplied stencils.
//!
//! Compiles `.stencil` DSL files (see the grammar rustdoc in
//! `stencil::parse`) through the full pipeline: parse → validate → tile-
//! size planning under device budgets (with a content-addressed plan
//! cache) → CUDA + pseudo-PTX emission → simulated execution with
//! bit-exact verification against the reference oracle.
//!
//! Usage:
//!
//! ```text
//! hybridc [options] <file.stencil | directory>...
//! hybridc serve [options] [--listen ADDR] [--workers N]
//!
//!   --out DIR          artifact directory (default hybridc-out)
//!   --cache DIR        plan-cache directory (default <out>/cache)
//!   --no-cache         disable the plan cache
//!   --require-cached   exit non-zero if any plan misses the cache
//!   --autotune         score tile sizes on the simulator (default: static model)
//!   --top-k K          model-guided shortlist: only the K best candidates by
//!                      the analytical merit reach the scorer (0 = exhaustive)
//!   --tune-workers N   concurrent candidate scorers in the tuning sweep;
//!                      0 = auto-split the host thread budget (default 0).
//!                      tune-workers × sim-threads never exceeds the budget
//!   --proxy F          successive-halving fidelity ladder: score everything
//!                      on a workload scaled by F in (0,1), keep the best
//!                      fraction for full fidelity; 1 disables (default 1)
//!   --smoke            shrink the sweep space (CI mode)
//!   --device NAME      gtx470 | nvs5200m (default gtx470)
//!   --backend NAME     cuda | wgsl | hip | cpu (default cuda); selects the
//!                      code-generation backend and resets the codegen
//!                      options to that backend's defaults
//!   --threads N        simulator worker threads; 0 = auto-detect, same as
//!                      HYBRID_SIM_THREADS=0 (default HYBRID_SIM_THREADS)
//!   --jobs N           concurrent file compiles (default 1)
//!   --no-verify        skip the bit-exact oracle check
//!   --size N[,N..]     override the execution grid
//!   --steps N          override the execution step count
//!   --report PATH      write the machine-readable JSON report
//!
//! serve mode (`hybridd` / `hybridfleet`):
//!   --listen ADDR            serve TCP connections on ADDR instead of stdin
//!   --listen-unix PATH       serve unix-socket connections on PATH (no
//!                            hello handshake; may combine with --listen)
//!   --workers N              request worker threads (default --jobs, min 1)
//!   --sched fifo|edf         worker queue order (default edf: earliest
//!                            arrival-anchored deadline first)
//!   --secret S               shared secret TCP clients must present via
//!                            {"op":"hello","secret":S} before any other op
//!                            (default $HYBRID_SECRET; unset = no auth)
//!   --metrics ADDR           HTTP listener answering every request with
//!                            the Prometheus metrics text
//!   --status-out PATH        write the final aggregated status JSON to
//!                            PATH on shutdown
//!   --mem-cap-bytes N        cap each device's in-memory plan cache at N
//!                            bytes (exact LRU over the device's entries;
//!                            default unbounded)
//!   --max-devices N          per-device service states spun up lazily
//!                            (default 8)
//!   --default-deadline-ms N  deadline for requests without their own
//!                            deadline_ms (default none)
//! ```
//!
//! `serve` turns the driver into `hybridd`, a resident compile service
//! fronted by a device-sharded fleet router: newline-delimited JSON
//! requests on stdin (or per TCP connection) are routed by their
//! `device` field to per-device service states, fanned out over a worker
//! pool, answered with one compact-JSON response line each, and share
//! per-device single-flight in-memory plan caches layered above the
//! on-disk one. See `hybrid_bench::serve` and `hybrid_bench::fleet` for
//! the protocol. In serve mode stdout carries only responses;
//! diagnostics go to stderr.
//!
//! Exit status: `0` when every file compiles (and, with `--require-cached`,
//! every plan came from the cache); `1` otherwise. Serve mode exits `0`
//! at end of input or after a `shutdown` request.

use std::net::TcpListener;
use std::path::PathBuf;

use gpusim::DeviceConfig;
use hybrid_bench::driver::{
    collect_stencil_files, compile_batch, report_json, DriverConfig, TuneMode,
};
use hybrid_bench::fleet::{FleetOptions, FleetRouter};
use hybrid_bench::metrics::Id;
use hybrid_bench::serve::{serve_metrics_http, serve_tcp_with, serve_with_policy, SchedPolicy};

struct Args {
    cfg: DriverConfig,
    inputs: Vec<PathBuf>,
    report: Option<PathBuf>,
    require_cached: bool,
    /// `hybridc serve` mode: run as the resident `hybridd` service.
    serve: bool,
    listen: Option<String>,
    listen_unix: Option<PathBuf>,
    metrics_addr: Option<String>,
    status_out: Option<PathBuf>,
    sched: SchedPolicy,
    secret: Option<String>,
    workers: Option<usize>,
    fleet: FleetOptions,
}

fn usage() -> ! {
    eprintln!(
        "usage: hybridc [--out DIR] [--cache DIR | --no-cache] [--require-cached] \
         [--autotune] [--top-k K] [--tune-workers N] [--proxy F] [--smoke] \
         [--device gtx470|nvs5200m] \
         [--backend cuda|wgsl|hip|cpu] [--threads N] [--jobs N] \
         [--no-verify] [--size N[,N..]] [--steps N] [--report PATH] <file|dir>...\n\
         \n\
         hybridc serve [common options] [--listen ADDR] [--listen-unix PATH] \
         [--workers N] [--sched fifo|edf] [--secret S] [--metrics ADDR] \
         [--status-out PATH] [--mem-cap-bytes N] [--max-devices N] \
         [--default-deadline-ms N]\n\
         (reads newline-delimited JSON requests from stdin or the listeners; see README)"
    );
    std::process::exit(1);
}

/// Reports a command-line error and exits — no panics on operator input,
/// matching the abort-free discipline of the pipeline itself.
fn fail(msg: &str) -> ! {
    eprintln!("hybridc: {msg}");
    std::process::exit(1);
}

fn parse_args() -> Args {
    let mut cfg = DriverConfig::new("hybridc-out");
    cfg.sim_threads = gpusim::sim_threads();
    let mut inputs = Vec::new();
    let mut report = None;
    let mut require_cached = false;
    let mut cache_override: Option<Option<PathBuf>> = None;
    let mut size: Option<Vec<usize>> = None;
    let mut steps: Option<usize> = None;
    let mut serve = false;
    let mut listen = None;
    let mut listen_unix = None;
    let mut metrics_addr = None;
    let mut status_out = None;
    let mut sched = SchedPolicy::default();
    let mut secret = None;
    let mut workers = None;
    let mut fleet = FleetOptions::default();

    let mut it = std::env::args().skip(1).peekable();
    if it.peek().map(String::as_str) == Some("serve") {
        it.next();
        serve = true;
    }
    while let Some(a) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .unwrap_or_else(|| fail(&format!("{flag} needs a value")))
        };
        match a.as_str() {
            "--out" => cfg.out_dir = PathBuf::from(value("--out")),
            "--cache" => cache_override = Some(Some(PathBuf::from(value("--cache")))),
            "--no-cache" => cache_override = Some(None),
            "--require-cached" => require_cached = true,
            "--autotune" => cfg.tune = TuneMode::Simulated,
            "--top-k" => {
                cfg.top_k = value("--top-k").parse().unwrap_or_else(|_| {
                    fail("--top-k takes a non-negative integer (0 = exhaustive)")
                });
            }
            "--tune-workers" => {
                cfg.tune_workers = value("--tune-workers").parse().unwrap_or_else(|_| {
                    fail("--tune-workers takes a non-negative integer (0 = auto)")
                });
            }
            "--proxy" => {
                cfg.proxy = value("--proxy")
                    .parse()
                    .ok()
                    .filter(|&f: &f64| f > 0.0 && f <= 1.0)
                    .unwrap_or_else(|| fail("--proxy takes a fraction in (0, 1] (1 = off)"));
            }
            "--smoke" => cfg.smoke = true,
            "--device" => {
                cfg.device = match value("--device").as_str() {
                    "gtx470" => DeviceConfig::gtx470(),
                    "nvs5200m" => DeviceConfig::nvs5200m(),
                    other => fail(&format!("unknown device {other:?} (gtx470|nvs5200m)")),
                }
            }
            "--backend" => {
                let name = value("--backend");
                let kind = gpu_codegen::BackendKind::parse(&name).unwrap_or_else(|| {
                    fail(&format!("unknown backend {name:?} (cuda|wgsl|hip|cpu)"))
                });
                cfg.backend = kind;
                // Each backend's defaults are the strongest options it
                // supports (WGSL cannot address workgroup arrays
                // dynamically, so it clamps ReuseDynamic to ReuseStatic).
                cfg.opts = kind.backend().default_options();
            }
            "--threads" => {
                // 0 means auto-detect, the same contract as
                // HYBRID_SIM_THREADS=0 (see gpusim::resolve_sim_threads).
                cfg.sim_threads = value("--threads")
                    .parse()
                    .ok()
                    .map(gpusim::resolve_sim_threads)
                    .unwrap_or_else(|| fail("--threads takes a non-negative integer"));
            }
            "--jobs" => {
                cfg.jobs = value("--jobs")
                    .parse()
                    .ok()
                    .filter(|&n: &usize| n >= 1)
                    .unwrap_or_else(|| fail("--jobs takes a positive integer"));
            }
            "--no-verify" => cfg.verify = false,
            "--size" => {
                let parsed: Result<Vec<usize>, _> =
                    value("--size").split(',').map(str::parse).collect();
                match parsed {
                    Ok(v) if !v.is_empty() && v.iter().all(|&d| d > 0) => size = Some(v),
                    _ => fail("--size takes N[,N..] with positive extents"),
                }
            }
            "--steps" => {
                steps = Some(
                    value("--steps")
                        .parse()
                        .ok()
                        .filter(|&n: &usize| n > 0)
                        .unwrap_or_else(|| fail("--steps takes a positive integer")),
                )
            }
            "--report" => report = Some(PathBuf::from(value("--report"))),
            "--listen" if serve => listen = Some(value("--listen")),
            "--listen-unix" if serve => listen_unix = Some(PathBuf::from(value("--listen-unix"))),
            "--metrics" if serve => metrics_addr = Some(value("--metrics")),
            "--status-out" if serve => status_out = Some(PathBuf::from(value("--status-out"))),
            "--sched" if serve => {
                sched = SchedPolicy::parse(&value("--sched")).unwrap_or_else(|e| fail(&e))
            }
            "--secret" if serve => secret = Some(value("--secret")),
            "--workers" if serve => {
                workers = Some(
                    value("--workers")
                        .parse()
                        .ok()
                        .filter(|&n: &usize| n >= 1)
                        .unwrap_or_else(|| fail("--workers takes a positive integer")),
                )
            }
            "--mem-cap-bytes" if serve => {
                fleet.mem_cap_bytes = Some(
                    value("--mem-cap-bytes")
                        .parse()
                        .ok()
                        .filter(|&n: &u64| n >= 1)
                        .unwrap_or_else(|| fail("--mem-cap-bytes takes a positive byte count")),
                )
            }
            "--max-devices" if serve => {
                fleet.max_devices = value("--max-devices")
                    .parse()
                    .ok()
                    .filter(|&n: &usize| n >= 1)
                    .unwrap_or_else(|| fail("--max-devices takes a positive integer"));
            }
            "--default-deadline-ms" if serve => {
                fleet.default_deadline_ms = Some(
                    value("--default-deadline-ms")
                        .parse()
                        .ok()
                        .unwrap_or_else(|| fail("--default-deadline-ms takes a millisecond count")),
                )
            }
            "--help" | "-h" => usage(),
            other if other.starts_with('-') => {
                eprintln!("unknown option {other}");
                usage();
            }
            path => inputs.push(PathBuf::from(path)),
        }
    }
    if serve && !inputs.is_empty() {
        fail("serve mode takes requests on stdin or --listen/--listen-unix, not file arguments");
    }
    // The shared secret defaults to the environment so process listings
    // don't have to carry it.
    if serve && secret.is_none() {
        secret = std::env::var("HYBRID_SECRET")
            .ok()
            .filter(|s| !s.is_empty());
    }
    if !serve && inputs.is_empty() {
        usage();
    }
    match cache_override {
        Some(c) => cfg.cache_dir = c,
        None => cfg.cache_dir = Some(cfg.out_dir.join("cache")),
    }
    if let (Some(size), Some(steps)) = (&size, steps) {
        cfg.workload = Some((size.clone(), steps));
    } else if size.is_some() || steps.is_some() {
        fail("--size and --steps must be given together");
    }
    Args {
        cfg,
        inputs,
        report,
        require_cached,
        serve,
        listen,
        listen_unix,
        metrics_addr,
        status_out,
        sched,
        secret,
        workers,
        fleet,
    }
}

/// The resident-service mode (`hybridd` behind the `hybridfleet`
/// device-sharded router). TCP, unix-socket, and metrics listeners run
/// concurrently over one router (one shutdown stops them all); with no
/// listener, requests come from stdin.
fn run_serve(args: Args) -> ! {
    let workers = args.workers.unwrap_or(args.cfg.jobs).max(1);
    let router = FleetRouter::new(args.cfg.clone(), args.fleet.clone());
    let transports: Vec<String> = args
        .listen
        .iter()
        .map(|a| format!("tcp {a}"))
        .chain(
            args.listen_unix
                .iter()
                .map(|p| format!("unix {}", p.display())),
        )
        .collect();
    eprintln!(
        "hybridd: serving on {}, {} worker(s), sched = {}, auth = {}, metrics = {}, \
         default device = {}, tune = {}, disk cache = {}, \
         max devices = {}, mem cap = {}, default deadline = {}",
        if transports.is_empty() {
            "stdin".to_string()
        } else {
            transports.join(" + ")
        },
        workers,
        args.sched.name(),
        if args.secret.is_some() {
            "secret"
        } else {
            "off"
        },
        args.metrics_addr.as_deref().unwrap_or("off"),
        args.cfg.device.name,
        args.cfg.tune.name(),
        args.cfg
            .cache_dir
            .as_ref()
            .map_or("off".to_string(), |d| d.display().to_string()),
        args.fleet.max_devices,
        args.fleet
            .mem_cap_bytes
            .map_or("unbounded".to_string(), |b| format!("{b} B")),
        args.fleet
            .default_deadline_ms
            .map_or("none".to_string(), |ms| format!("{ms} ms")),
    );
    let policy = args.sched;
    let secret = args.secret.as_deref();
    std::thread::scope(|scope| {
        if let Some(addr) = &args.metrics_addr {
            let listener = TcpListener::bind(addr)
                .unwrap_or_else(|e| fail(&format!("cannot listen on {addr}: {e}")));
            let router = &router;
            scope.spawn(move || {
                if let Err(e) = serve_metrics_http(router, listener) {
                    eprintln!("hybridd: metrics listener error: {e}");
                }
            });
        }
        let mut have_socket = false;
        if let Some(addr) = &args.listen {
            let listener = TcpListener::bind(addr)
                .unwrap_or_else(|e| fail(&format!("cannot listen on {addr}: {e}")));
            have_socket = true;
            let router = &router;
            scope.spawn(move || {
                if let Err(e) = serve_tcp_with(router, listener, workers, policy, secret) {
                    eprintln!("hybridd: listener error: {e}");
                }
            });
        }
        #[cfg(unix)]
        if let Some(path) = &args.listen_unix {
            use hybrid_bench::serve::serve_unix;
            // A stale socket file from a previous run would make bind
            // fail; replacing it is the standard daemon move.
            let _ = std::fs::remove_file(path);
            let listener = std::os::unix::net::UnixListener::bind(path)
                .unwrap_or_else(|e| fail(&format!("cannot listen on {}: {e}", path.display())));
            have_socket = true;
            let router = &router;
            scope.spawn(move || {
                if let Err(e) = serve_unix(router, listener, workers, policy) {
                    eprintln!("hybridd: unix listener error: {e}");
                }
            });
        }
        #[cfg(not(unix))]
        if args.listen_unix.is_some() {
            fail("--listen-unix is only supported on unix platforms");
        }
        if !have_socket {
            let stdin = std::io::stdin();
            match serve_with_policy(&router, stdin.lock(), std::io::stdout(), workers, policy) {
                Ok(summary) => {
                    let members = router.members();
                    let total =
                        |id: Id| -> u64 { members.iter().map(|(_, s)| s.mem().get(id)).sum() };
                    eprintln!(
                        "hybridd: {} response(s), {} error(s), {} device(s), \
                         {} mem hit(s) (+{} coalesced) / {} miss(es), {} eviction(s)",
                        summary.responses,
                        summary.errors,
                        members.len(),
                        total(Id::MemHits),
                        total(Id::MemCoalesced),
                        total(Id::MemMisses),
                        total(Id::MemEvictions),
                    );
                }
                Err(e) => {
                    eprintln!("hybridd: stdin error: {e}");
                }
            }
            // End of stdin without a shutdown op: stop anyway so the
            // metrics listener (if any) returns and the scope joins.
            router.request_stop();
        }
    });
    if let Some(path) = &args.status_out {
        let doc = router.status_payload();
        if let Err(e) = std::fs::write(path, doc.render()) {
            eprintln!("hybridd: cannot write --status-out {}: {e}", path.display());
            std::process::exit(1);
        }
        eprintln!("hybridd: wrote {}", path.display());
    }
    #[cfg(unix)]
    if let Some(path) = &args.listen_unix {
        let _ = std::fs::remove_file(path);
    }
    std::process::exit(0);
}

fn main() {
    let args = parse_args();
    if args.serve {
        run_serve(args);
    }
    let mut files = Vec::new();
    for input in &args.inputs {
        match collect_stencil_files(input) {
            Ok(mut f) => files.append(&mut f),
            Err(e) => {
                eprintln!("hybridc: {e}");
                std::process::exit(1);
            }
        }
    }
    println!(
        "hybridc: {} file(s), device = {}, backend = {}, tune = {}, cache = {}, jobs = {}, \
         sim threads = {}",
        files.len(),
        args.cfg.device.name,
        args.cfg.backend.name(),
        args.cfg.tune.name(),
        args.cfg
            .cache_dir
            .as_ref()
            .map_or("off".to_string(), |d| d.display().to_string()),
        args.cfg.jobs,
        args.cfg.sim_threads,
    );

    let results = compile_batch(&files, &args.cfg);

    println!(
        "\n{:<16} {:>5} {:>10} {:>12} {:>10} {:>9} {:>12} {:>7}",
        "stencil", "h", "w", "GStencils/s", "smem KB", "launches", "verified", "cache"
    );
    let mut failed = 0usize;
    let mut misses = 0usize;
    for (path, result) in &results {
        match result {
            Ok(o) => {
                if !o.cache_hit {
                    misses += 1;
                }
                println!(
                    "{:<16} {:>5} {:>10} {:>12.3} {:>10.1} {:>9} {:>12} {:>7}",
                    o.name,
                    o.params.h,
                    format!("{:?}", o.params.w),
                    o.gstencils,
                    o.smem_bytes as f64 / 1024.0,
                    o.launches,
                    if o.verified { "bit-exact" } else { "skipped" },
                    o.cache.name(),
                );
            }
            Err(e) => {
                failed += 1;
                println!("{:<16} FAILED: {e}", path.display());
            }
        }
    }

    if let Some(report_path) = &args.report {
        let doc = report_json(&results, &args.cfg);
        if let Err(e) = std::fs::write(report_path, doc.render()) {
            eprintln!(
                "hybridc: cannot write report {}: {e}",
                report_path.display()
            );
            std::process::exit(1);
        }
        println!("\nwrote {}", report_path.display());
    }

    if failed > 0 {
        eprintln!("hybridc: {failed} file(s) failed");
        std::process::exit(1);
    }
    if args.require_cached && misses > 0 {
        eprintln!("hybridc: --require-cached but {misses} plan(s) missed the cache");
        std::process::exit(1);
    }
}
