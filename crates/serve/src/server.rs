//! The connection layer: JSONL over a Unix socket or stdio.
//!
//! Each accepted connection gets its own thread reading request lines.
//! A `submit` turns the connection into an event stream until the
//! campaign's `campaign_done` line; other ops are simple
//! request/response. A client that disconnects mid-campaign *orphans*
//! its campaign: in-flight jobs finish and checkpoint, and after the
//! configurable grace window ([`ServerConfig::orphan_grace`]) the
//! scheduler cancels the still-queued jobs — completed work stays in
//! the journal, so a resubmission replays it, which is exactly what
//! makes kill/resume work (scripts/ci/55_serve.sh) without burning
//! workers on results nobody will read.

use std::io::{BufRead, BufReader, Write};
use std::net::Shutdown;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

use mtl_sim::ArtifactCache;
use mtl_sweep::chaos::{self, StreamFate};
use mtl_sweep::Json;

use crate::protocol::{self, Request};
use crate::registry::{campaign_from_spec, SpecDefaults};
use crate::scheduler::Scheduler;

/// Severs a connection at the transport level (used by the chaos
/// socket-reset injection); stdio conversations have none.
type ResetHook = Option<Arc<dyn Fn() + Send + Sync>>;

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker-pool size; 0 means all hardware threads.
    pub workers: usize,
    /// Default result-cache directory for specs that don't pin one.
    pub cache_dir: Option<PathBuf>,
    /// Journal directory: campaigns journal to `<dir>/<name>.jsonl`
    /// unless their spec pins an explicit path.
    pub journal_dir: Option<PathBuf>,
    /// How long an orphaned campaign (its submit stream disconnected)
    /// may keep its queued jobs before the scheduler cancels them.
    pub orphan_grace: Duration,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            workers: 0,
            cache_dir: None,
            journal_dir: None,
            orphan_grace: Duration::from_secs(2),
        }
    }
}

/// The campaign server: a [`Scheduler`] plus the connection front-end.
/// Cloneable handle semantics via `Arc` — `serve_unix` can run on one
/// thread while another polls [`Server::stats`] or calls
/// [`Server::stop`].
#[derive(Clone)]
pub struct Server {
    inner: Arc<Inner>,
}

struct Inner {
    sched: Scheduler,
    defaults: SpecDefaults,
    stop: AtomicBool,
    orphan_grace: Duration,
}

impl Server {
    pub fn new(cfg: ServerConfig) -> Server {
        let workers = if cfg.workers == 0 {
            std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
        } else {
            cfg.workers
        };
        if let Some(dir) = &cfg.journal_dir {
            let _ = std::fs::create_dir_all(dir);
        }
        let sched = Scheduler::new(workers, Arc::new(ArtifactCache::new()));
        let defaults = SpecDefaults { cache_dir: cfg.cache_dir, journal_dir: cfg.journal_dir };
        Server {
            inner: Arc::new(Inner {
                sched,
                defaults,
                stop: AtomicBool::new(false),
                orphan_grace: cfg.orphan_grace,
            }),
        }
    }

    pub fn scheduler(&self) -> &Scheduler {
        &self.inner.sched
    }

    /// Asks the accept loop (unix or stdio) to return.
    pub fn stop(&self) {
        self.inner.stop.store(true, Ordering::SeqCst);
        self.inner.sched.shutdown();
    }

    pub fn stopping(&self) -> bool {
        self.inner.stop.load(Ordering::SeqCst)
    }

    /// Binds `socket` and serves connections until [`Server::stop`].
    /// A stale socket file from a killed daemon is replaced. The path
    /// appears only once the socket listens, so a client may wait for
    /// it to exist and then connect.
    ///
    /// # Errors
    ///
    /// Returns bind errors; per-connection I/O errors only end that
    /// connection.
    pub fn serve_unix(&self, socket: &Path) -> std::io::Result<()> {
        let _ = std::fs::remove_file(socket);
        // `bind` creates the file before the socket listens, and a
        // connect in between is refused: bind under a staging name and
        // rename the listening socket into place.
        let mut staging = socket.as_os_str().to_owned();
        staging.push("~");
        let _ = std::fs::remove_file(&staging);
        let listener = UnixListener::bind(&staging)?;
        std::fs::rename(&staging, socket)?;
        listener.set_nonblocking(true)?;
        let mut handlers = Vec::new();
        let mut streams: Vec<UnixStream> = Vec::new();
        while !self.stopping() {
            match listener.accept() {
                Ok((stream, _)) => {
                    if let Ok(s) = stream.try_clone() {
                        streams.push(s);
                    }
                    // The reset hook must shut the socket down, not just
                    // drop a handle: `streams` above holds a clone, so
                    // closing one fd would leave the connection open.
                    let reset: ResetHook = stream.try_clone().ok().map(|s| {
                        Arc::new(move || {
                            let _ = s.shutdown(Shutdown::Both);
                        }) as Arc<dyn Fn() + Send + Sync>
                    });
                    let server = self.clone();
                    handlers.push(std::thread::spawn(move || {
                        let reader = match stream.try_clone() {
                            Ok(s) => s,
                            Err(_) => return,
                        };
                        server.handle_connection(BufReader::new(reader), stream, reset);
                    }));
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(10));
                }
                Err(_) => break,
            }
        }
        let _ = std::fs::remove_file(socket);
        // Give in-flight submit handlers one beat to notice the stop
        // (their event-poll timeout is 100ms) and flush the clean
        // "server shutting down" goodbye — without this, the shutdown
        // below races the write and clients see a broken pipe instead
        // of a protocol error.
        std::thread::sleep(Duration::from_millis(150));
        // A handler blocked reading an idle connection only notices the
        // stop when its read returns — force that by shutting every
        // accepted stream before joining (a peer that already closed is
        // a harmless error here).
        for s in &streams {
            let _ = s.shutdown(Shutdown::Both);
        }
        for h in handlers {
            let _ = h.join();
        }
        Ok(())
    }

    /// Serves one JSONL conversation on stdin/stdout (the `--stdio`
    /// daemon mode, handy under a supervisor that owns the transport).
    pub fn serve_stdio(&self) {
        let stdin = std::io::stdin();
        let stdout = std::io::stdout();
        self.handle_connection(stdin.lock(), stdout.lock(), None);
    }

    /// One request/response conversation; returns when the peer closes
    /// or a `shutdown` op is processed.
    fn handle_connection(&self, reader: impl BufRead, mut writer: impl Write, reset: ResetHook) {
        let mut write_line = move |doc: &Json| -> std::io::Result<()> {
            writer.write_all(doc.to_compact().as_bytes())?;
            writer.write_all(b"\n")?;
            writer.flush()
        };
        for line in reader.lines() {
            let Ok(line) = line else { return };
            if line.trim().is_empty() {
                continue;
            }
            let outcome = match protocol::parse_request(&line) {
                Err(e) => write_line(&protocol::error_response(&e)),
                Ok(Request::Hello) => {
                    write_line(&protocol::hello_response(self.inner.sched.workers()))
                }
                Ok(Request::Stats) => {
                    let (artifacts, active, completed) = self.inner.sched.stats();
                    write_line(&protocol::stats_response(&artifacts, active, completed))
                }
                Ok(Request::Shutdown) => {
                    let _ = write_line(&protocol::shutdown_response());
                    self.stop();
                    return;
                }
                Ok(Request::Submit(spec)) => self.handle_submit(&spec, &mut write_line, &reset),
            };
            if outcome.is_err() {
                return;
            }
        }
    }

    /// Registers a submission and streams its events until done. The
    /// sink is an unbounded channel: the scheduler never blocks on this
    /// connection. If the stream dies mid-campaign (client disconnect,
    /// injected reset), the campaign is *orphaned* — the scheduler
    /// cancels its queued jobs after [`ServerConfig::orphan_grace`],
    /// while journalled results survive for a resubmission to replay.
    fn handle_submit(
        &self,
        spec: &Json,
        write_line: &mut impl FnMut(&Json) -> std::io::Result<()>,
        reset: &ResetHook,
    ) -> std::io::Result<()> {
        let campaign_name = spec.get("name").and_then(Json::as_str).unwrap_or_default().to_string();
        let campaign =
            match campaign_from_spec(spec, &self.inner.defaults, self.inner.sched.artifacts()) {
                Ok(c) => c,
                Err(e) => return write_line(&protocol::error_response(&e)),
            };
        let (tx, rx) = mpsc::channel::<Json>();
        let sink = Box::new(move |event: &Json| drop(tx.send(event.clone())));
        let id = match self.inner.sched.submit(campaign, sink) {
            Ok(id) => id,
            Err(e) => return write_line(&protocol::error_response(&e)),
        };
        // The sender lives in the scheduler; the stream ends with the
        // campaign (campaign_done drops the sink) or server shutdown.
        // The timeout is not a deadline — it only bounds how long a
        // stopped server keeps a stream open whose campaign will never
        // finish (workers are gone; no more events will arrive).
        loop {
            match rx.recv_timeout(Duration::from_millis(100)) {
                Ok(event) => {
                    // Chaos socket reset: sever the transport before the
                    // write, exactly as a flaky network would mid-stream.
                    if let Some(policy) = chaos::active() {
                        if policy.stream_fate(&campaign_name) == StreamFate::Reset {
                            if let Some(reset) = reset {
                                reset();
                            }
                            self.inner.sched.orphan(id, self.inner.orphan_grace);
                            return Err(std::io::Error::new(
                                std::io::ErrorKind::ConnectionReset,
                                "chaos: injected stream reset",
                            ));
                        }
                    }
                    let done = event.get("type").and_then(Json::as_str) == Some("campaign_done");
                    if let Err(e) = write_line(&event) {
                        // The client is gone; nobody will read further
                        // events. Cancel the queued remainder after the
                        // grace window.
                        self.inner.sched.orphan(id, self.inner.orphan_grace);
                        return Err(e);
                    }
                    if done {
                        break;
                    }
                }
                Err(mpsc::RecvTimeoutError::Timeout) => {
                    if self.stopping() {
                        // A clean protocol-level goodbye instead of a
                        // broken pipe: the client learns its campaign is
                        // journalled and resumable. Best-effort — the
                        // transport may already be gone.
                        let _ = write_line(&protocol::error_response(
                            "server shutting down; campaign state is journalled — \
                             resubmit to resume",
                        ));
                        break;
                    }
                }
                Err(mpsc::RecvTimeoutError::Disconnected) => break,
            }
        }
        Ok(())
    }
}
