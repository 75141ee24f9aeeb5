//! The job server: accept loop, bounded job queue, runner pool.
//!
//! One acceptor thread polls a non-blocking listener (Unix-domain
//! socket by default, TCP via `--listen`) and enqueues connections;
//! `--job-workers` runner threads drain the queue, each reading the
//! request frame, executing it on the shared [`Engine`], and writing
//! the two response frames (envelope, payload). Flow and campaign
//! stages already parallelise internally through `secflow-exec`, so
//! one runner saturates a machine; more runners trade per-job latency
//! for concurrent small jobs.
//!
//! A `shutdown` job acknowledges, then flips the stop flag: the
//! acceptor closes, queued jobs drain, runners exit, and (for Unix
//! sockets) the socket file is unlinked.

use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use secflow_obs as obs;

use crate::engine::{render_envelope, Engine};
use crate::proto::{canonical_json, parse_frame, read_frame, write_frame, Request};

/// Where the server listens (or a client connects).
#[derive(Debug, Clone)]
pub enum Bind {
    /// A Unix-domain socket path.
    Unix(PathBuf),
    /// A TCP address, e.g. `127.0.0.1:7457`.
    Tcp(String),
}

/// One accepted connection, unified over both transports.
pub enum Stream {
    /// Unix-domain connection.
    Unix(UnixStream),
    /// TCP connection.
    Tcp(TcpStream),
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Stream::Unix(s) => s.read(buf),
            Stream::Tcp(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Stream::Unix(s) => s.write(buf),
            Stream::Tcp(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Stream::Unix(s) => s.flush(),
            Stream::Tcp(s) => s.flush(),
        }
    }
}

impl Stream {
    fn configure(&self) -> io::Result<()> {
        // Accepted sockets must block (the listener is non-blocking),
        // but a dead client must not pin a runner forever.
        let timeout = Some(Duration::from_secs(30));
        match self {
            Stream::Unix(s) => {
                s.set_nonblocking(false)?;
                s.set_read_timeout(timeout)
            }
            Stream::Tcp(s) => {
                s.set_nonblocking(false)?;
                s.set_read_timeout(timeout)
            }
        }
    }
}

/// Connects to a server at `bind`.
///
/// # Errors
///
/// Propagates the underlying connect error.
pub fn connect(bind: &Bind) -> io::Result<Stream> {
    match bind {
        Bind::Unix(path) => UnixStream::connect(path).map(Stream::Unix),
        Bind::Tcp(addr) => TcpStream::connect(addr).map(Stream::Tcp),
    }
}

enum Listener {
    Unix(UnixListener, PathBuf),
    Tcp(TcpListener),
}

impl Listener {
    fn bind(bind: &Bind) -> io::Result<Listener> {
        match bind {
            Bind::Unix(path) => {
                // A stale socket file from a crashed server would make
                // bind fail; refuse only if something is listening.
                if path.exists() && UnixStream::connect(path).is_ok() {
                    return Err(io::Error::new(
                        io::ErrorKind::AddrInUse,
                        format!("{} already has a live server", path.display()),
                    ));
                }
                let _ = std::fs::remove_file(path);
                let l = UnixListener::bind(path)?;
                l.set_nonblocking(true)?;
                Ok(Listener::Unix(l, path.clone()))
            }
            Bind::Tcp(addr) => {
                let l = TcpListener::bind(addr)?;
                l.set_nonblocking(true)?;
                Ok(Listener::Tcp(l))
            }
        }
    }

    fn accept(&self) -> io::Result<Stream> {
        match self {
            Listener::Unix(l, _) => l.accept().map(|(s, _)| Stream::Unix(s)),
            Listener::Tcp(l) => l.accept().map(|(s, _)| Stream::Tcp(s)),
        }
    }
}

impl Drop for Listener {
    fn drop(&mut self) {
        if let Listener::Unix(_, path) = self {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServerOptions {
    /// Listen address.
    pub bind: Bind,
    /// Artifact-cache byte budget.
    pub cache_bytes: usize,
    /// On-disk spill directory for byte artifacts.
    pub cache_dir: Option<PathBuf>,
    /// Runner threads draining the job queue.
    pub job_workers: usize,
}

impl Default for ServerOptions {
    fn default() -> Self {
        ServerOptions {
            bind: Bind::Unix(PathBuf::from("secflow.sock")),
            cache_bytes: 256 << 20,
            cache_dir: None,
            job_workers: 1,
        }
    }
}

struct Queue {
    jobs: Mutex<Vec<Stream>>,
    ready: Condvar,
    stop: AtomicBool,
    depth_peak: AtomicUsize,
}

impl Queue {
    fn push(&self, s: Stream) {
        let depth = {
            let mut q = self.jobs.lock().unwrap_or_else(|e| e.into_inner());
            q.push(s);
            q.len()
        };
        self.depth_peak.fetch_max(depth, Ordering::Relaxed);
        obs::gauge_max(obs::Gauge::ServeQueuePeak, depth as u64);
        self.ready.notify_one();
    }

    /// Pops the oldest queued connection, or `None` once stopped and
    /// drained. Returns the queue depth left behind.
    fn pop(&self) -> Option<(Stream, usize)> {
        let mut q = self.jobs.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if !q.is_empty() {
                let s = q.remove(0);
                return Some((s, q.len()));
            }
            if self.stop.load(Ordering::SeqCst) {
                return None;
            }
            let (guard, _) = self
                .ready
                .wait_timeout(q, Duration::from_millis(100))
                .unwrap_or_else(|e| e.into_inner());
            q = guard;
        }
    }
}

fn handle_connection(engine: &Engine, queue: &Queue, mut stream: Stream, depth: usize) {
    if stream.configure().is_err() {
        return;
    }
    let frame = match read_frame(&mut stream) {
        Ok(f) => f,
        Err(_) => return, // client went away before sending a request
    };
    // One parse per frame: the request and the canonical text that
    // keys the response cache both come from the same `Value`.
    let parsed =
        parse_frame(&frame).and_then(|v| Ok((Request::from_value(&v)?, canonical_json(&v))));
    let before = engine.cache.stats();
    let result = match &parsed {
        Ok((req, canonical)) => engine.execute(canonical, req),
        Err(e) => Err(e.clone().into()),
    };
    let after = engine.cache.stats();
    let envelope = render_envelope(&result, before, after, depth);
    let payload: &[u8] = match &result {
        Ok(out) => &out.payload,
        Err(_) => b"",
    };
    let _ = write_frame(&mut stream, envelope.as_bytes())
        .and_then(|()| write_frame(&mut stream, payload));
    if matches!(parsed, Ok((Request::Shutdown, _))) {
        queue.stop.store(true, Ordering::SeqCst);
        queue.ready.notify_all();
    }
}

/// Runs the server until a `shutdown` job arrives.
///
/// # Errors
///
/// Returns the bind error if the listen address cannot be acquired,
/// or the spawn error if a worker thread cannot be started;
/// per-connection I/O errors are contained to their connection.
pub fn serve(opts: &ServerOptions) -> io::Result<()> {
    let listener = Listener::bind(&opts.bind)?;
    let engine = Arc::new(Engine::new(opts.cache_bytes, opts.cache_dir.clone()));
    let queue = Arc::new(Queue {
        jobs: Mutex::new(Vec::new()),
        ready: Condvar::new(),
        stop: AtomicBool::new(false),
        depth_peak: AtomicUsize::new(0),
    });

    let workers = (0..opts.job_workers.max(1))
        .map(|i| {
            let engine = Arc::clone(&engine);
            let queue = Arc::clone(&queue);
            std::thread::Builder::new()
                .name(format!("secflow-serve-{i}"))
                .spawn(move || {
                    while let Some((stream, depth)) = queue.pop() {
                        handle_connection(&engine, &queue, stream, depth);
                    }
                })
        })
        .collect::<io::Result<Vec<_>>>()?;

    while !queue.stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok(stream) => queue.push(stream),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(20));
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => {
                eprintln!("secflow serve: accept error: {e}");
                std::thread::sleep(Duration::from_millis(100));
            }
        }
    }
    queue.ready.notify_all();
    for w in workers {
        let _ = w.join();
    }
    eprintln!(
        "secflow serve: shut down after {} jobs (cache: {:?})",
        engine.jobs(),
        engine.cache.stats()
    );
    Ok(())
}
