//! [`RemoteSystem`]: the PR-1 observation API spoken **over the wire**.
//!
//! Where [`crate::system::BlackBoxSystem`] is attacked in-process,
//! `RemoteSystem` is a client for a served instance (the workspace's
//! `serve` crate): it implements [`ObservableSystem`], so
//! `PoisonRecTrainer` drives it unchanged — the realistic threat model
//! where the attacker only touches the system's query interface.
//!
//! One observation is `2 + E` requests (E = evaluation users) in
//! three round trips on one keep-alive connection:
//!
//! 1. `POST /feedback` — inject the candidate poison trajectories;
//! 2. `POST /retrain`  — the server drains the pending feedback,
//!    fine-tunes off its own observation seed stream, and publishes a
//!    new generation (the response carries the generation and seed);
//! 3. `GET /recommend/{user}?k=` per evaluation user, HTTP/1.1
//!    pipelined: the client keeps up to [`PIPELINE_WINDOW`] requests
//!    in flight and reads the responses in order, so the E polls cost
//!    about one round trip. It counts target hits itself,
//!    reconstructing `RecNum`, and checks every response against the
//!    retrain's generation.
//!
//! The window is bounded because the client does not read while it
//! writes. The requests it has written and the responses they have
//! produced sit in the socket buffers until the client reads them. At
//! 32 that is ~2 KiB of requests and ~8 KiB of `k = 10` responses, far
//! below the kernel's default buffers whatever E is. Half a window is
//! written at a time, so the server always has requests queued.
//!
//! Because the server consumes the *same* `seed_for_ordinal` stream as
//! the in-process system and serves recommendations through the same
//! snapshot read path, the observed RecNum/reward trajectories are
//! bit-identical to the in-process run (`tests/serve_attack.rs`).
//!
//! The experimenter-side knowledge an in-process attack reads directly
//! (`SystemConfig`, evaluation users, ranker name) is fetched once
//! from `GET /info` at connection time.
//!
//! Everything here is hand-rolled over [`std::net::TcpStream`] — the
//! workspace has no HTTP dependency. [`HttpClient`] is deliberately
//! public: the bench load generator and the integration tests reuse it
//! as their traffic source.

use std::collections::HashSet;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use telemetry::json::{self, Json};

use crate::data::{ItemId, Trajectory, UserId};
use crate::system::{ConfigError, ObservableSystem, Observation, PublicInfo, SystemConfig};

/// Anything that can go wrong talking to a served system.
#[derive(Debug)]
pub enum RemoteError {
    /// Socket-level failure (connect, read, write).
    Io(std::io::Error),
    /// The bytes on the wire were not the protocol we speak.
    Protocol(String),
    /// The server answered with a non-2xx status.
    Status { status: u16, body: String },
}

impl std::fmt::Display for RemoteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RemoteError::Io(err) => write!(f, "remote io error: {err}"),
            RemoteError::Protocol(msg) => write!(f, "remote protocol error: {msg}"),
            RemoteError::Status { status, body } => {
                write!(f, "remote server returned {status}: {body}")
            }
        }
    }
}

impl std::error::Error for RemoteError {}

impl From<std::io::Error> for RemoteError {
    fn from(err: std::io::Error) -> Self {
        RemoteError::Io(err)
    }
}

/// The most recommend polls an observation leaves unanswered on the
/// connection at once (see the module docs for why it is bounded).
pub const PIPELINE_WINDOW: usize = 32;

/// A minimal blocking HTTP/1.1 client: one keep-alive connection,
/// JSON bodies, `Content-Length` framing. Reconnects when the server
/// closed an idle connection ([`HttpClient::request`] says which
/// requests are retried).
pub struct HttpClient {
    addr: String,
    stream: Option<BufReader<TcpStream>>,
    read_timeout: Duration,
    /// TCP connections dialed over this client's lifetime.
    dials: u64,
    /// Requests that received a fully-framed response.
    completed: u64,
}

impl HttpClient {
    /// A client for `addr` (`host:port`). Connection is lazy: the
    /// first request dials.
    pub fn new(addr: impl Into<String>) -> Self {
        Self {
            addr: addr.into(),
            stream: None,
            read_timeout: Duration::from_secs(30),
            dials: 0,
            completed: 0,
        }
    }

    /// Connections dialed so far — with healthy keep-alive this stays
    /// at 1 no matter how many requests flow (the bench reports
    /// `completed_requests() / dials()` as requests-per-connection).
    pub fn dials(&self) -> u64 {
        self.dials
    }

    /// Requests that received a complete, well-framed response.
    pub fn completed_requests(&self) -> u64 {
        self.completed
    }

    /// Overrides the per-response read timeout (default 30 s).
    pub fn with_read_timeout(mut self, timeout: Duration) -> Self {
        self.read_timeout = timeout;
        self
    }

    fn ensure_connected(&mut self) -> Result<&mut BufReader<TcpStream>, RemoteError> {
        if self.stream.is_none() {
            let stream = TcpStream::connect(&self.addr)?;
            stream.set_nodelay(true)?;
            stream.set_read_timeout(Some(self.read_timeout))?;
            self.stream = Some(BufReader::new(stream));
            self.dials += 1;
        }
        Ok(self.stream.as_mut().expect("just connected"))
    }

    /// Sends one request and reads one response. `body` is serialized
    /// as JSON when present. Returns the status code and parsed JSON
    /// body (every endpoint of the served system answers JSON).
    ///
    /// A failure on a *reused* connection (the server may have
    /// idle-closed it) reconnects and retries once, but only when the
    /// request provably never reached the server (its write failed) or
    /// is a `GET`, which is idempotent. Any other failure is surfaced:
    /// a replayed `POST /retrain` would consume a second seed ordinal.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&Json>,
    ) -> Result<(u16, Json), RemoteError> {
        let (status, text) = self.request_text(method, path, body)?;
        Ok((status, parse_body(&text)?))
    }

    /// Like [`HttpClient::request`] but returns the response body as
    /// raw text — for endpoints that answer non-JSON payloads, e.g.
    /// `GET /metrics?format=prom` (Prometheus text exposition).
    pub fn request_text(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&Json>,
    ) -> Result<(u16, String), RemoteError> {
        let rendered = body.map(Json::render);
        let mut request = Vec::new();
        render_request(&mut request, method, path, rendered.as_deref());
        let reused = self.stream.is_some();
        let mut written = false;
        let result = self.send(&request).and_then(|()| {
            written = true;
            self.receive()
        });
        match result {
            Err(RemoteError::Io(_)) if reused && (!written || method == "GET") => {
                // Stale keep-alive connection: dial fresh and retry.
                self.send(&request)?;
                self.receive()
            }
            other => other,
        }
    }

    /// `GET`s every path on the keep-alive connection with HTTP/1.1
    /// pipelining and returns the responses in request order. At most
    /// [`PIPELINE_WINDOW`] requests are unanswered at any time: the
    /// first window goes out in one write, and each time half of it
    /// has been answered the next half-window follows in one write, so
    /// the server never waits on the client and the whole batch costs
    /// about one round trip instead of one per request.
    ///
    /// `GET` is idempotent, so an I/O failure on a reused connection
    /// resends the unanswered requests once on a fresh one. A server
    /// that answers `Connection: close` with requests still unanswered
    /// has refused them, which is a [`RemoteError::Protocol`].
    fn get_pipelined(&mut self, paths: &[String]) -> Result<Vec<(u16, Json)>, RemoteError> {
        let mut responses = Vec::with_capacity(paths.len());
        let reused = self.stream.is_some();
        match self.pipeline(paths, &mut responses) {
            Err(RemoteError::Io(_)) if reused => {
                let answered = responses.len();
                self.pipeline(&paths[answered..], &mut responses)?;
            }
            other => other?,
        }
        Ok(responses)
    }

    /// One pipelined pass over `paths`, appending each parsed response
    /// to `out`. Any error leaves the connection closed, since unread
    /// responses may still be in flight on it.
    fn pipeline(
        &mut self,
        paths: &[String],
        out: &mut Vec<(u16, Json)>,
    ) -> Result<(), RemoteError> {
        let mut request = Vec::new();
        let mut sent = 0;
        for answered in 0..paths.len() {
            if sent > answered && self.stream.is_none() {
                return Err(RemoteError::Protocol(format!(
                    "server closed the connection with {} pipelined request(s) unanswered",
                    sent - answered
                )));
            }
            if sent < paths.len() && sent - answered <= PIPELINE_WINDOW / 2 {
                let upto = paths.len().min(answered + PIPELINE_WINDOW);
                request.clear();
                for path in &paths[sent..upto] {
                    render_request(&mut request, "GET", path, None);
                }
                self.send(&request)?;
                sent = upto;
            }
            let parsed = self
                .receive()
                .and_then(|(status, text)| Ok((status, parse_body(&text)?)));
            match parsed {
                Ok(response) => out.push(response),
                Err(err) => {
                    self.stream = None;
                    return Err(err);
                }
            }
        }
        Ok(())
    }

    /// Writes already-rendered request bytes in one call, dialing
    /// first if needed. A failed write closes the connection.
    fn send(&mut self, request: &[u8]) -> Result<(), RemoteError> {
        let result = self.ensure_connected()?.get_mut().write_all(request);
        if result.is_err() {
            self.stream = None;
        }
        Ok(result?)
    }

    /// Reads the next response off the connection, closing it on a
    /// framing error or when the server asked to.
    fn receive(&mut self) -> Result<(u16, String), RemoteError> {
        let reader = self
            .stream
            .as_mut()
            .expect("receive follows a successful send");
        let result = Self::read_response(reader);
        if result.is_err() {
            // Never reuse a connection in an unknown framing state.
            self.stream = None;
        }
        let (status, close, text) = result?;
        self.completed += 1;
        if close {
            self.stream = None;
        }
        Ok((status, text))
    }

    /// Parses one `Content-Length`-framed response off the connection.
    /// Returns (status, connection-close, body text).
    fn read_response(
        reader: &mut BufReader<TcpStream>,
    ) -> Result<(u16, bool, String), RemoteError> {
        let mut line = String::new();
        if reader.read_line(&mut line)? == 0 {
            return Err(RemoteError::Io(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "connection closed before status line",
            )));
        }
        let mut parts = line.trim_end().splitn(3, ' ');
        let version = parts.next().unwrap_or("");
        if !version.starts_with("HTTP/1.") {
            return Err(RemoteError::Protocol(format!("bad status line: {line:?}")));
        }
        let status: u16 = parts
            .next()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| RemoteError::Protocol(format!("bad status line: {line:?}")))?;

        let mut content_length = 0usize;
        let mut close = false;
        loop {
            let mut header = String::new();
            if reader.read_line(&mut header)? == 0 {
                return Err(RemoteError::Protocol("truncated response headers".into()));
            }
            let header = header.trim_end();
            if header.is_empty() {
                break;
            }
            let Some((name, value)) = header.split_once(':') else {
                return Err(RemoteError::Protocol(format!("bad header: {header:?}")));
            };
            let value = value.trim();
            match name.to_ascii_lowercase().as_str() {
                "content-length" => {
                    content_length = value.parse().map_err(|_| {
                        RemoteError::Protocol(format!("bad content-length: {value:?}"))
                    })?;
                }
                "connection" => close = value.eq_ignore_ascii_case("close"),
                _ => {}
            }
        }
        let mut body = vec![0u8; content_length];
        reader.read_exact(&mut body)?;
        let text = String::from_utf8(body)
            .map_err(|_| RemoteError::Protocol("response body is not UTF-8".into()))?;
        Ok((status, close, text))
    }
}

/// Appends one HTTP/1.1 request to `buf`: head, then the JSON body
/// if any.
fn render_request(buf: &mut Vec<u8>, method: &str, path: &str, body: Option<&str>) {
    let payload = body.unwrap_or("");
    buf.reserve(96 + path.len() + payload.len());
    // Writing into a Vec cannot fail.
    let _ = write!(
        buf,
        "{method} {path} HTTP/1.1\r\nHost: localhost\r\nContent-Length: {}\r\n{}\r\n",
        payload.len(),
        if body.is_some() {
            "Content-Type: application/json\r\n"
        } else {
            ""
        }
    );
    buf.extend_from_slice(payload.as_bytes());
}

fn parse_body(text: &str) -> Result<Json, RemoteError> {
    json::parse(text)
        .map_err(|err| RemoteError::Protocol(format!("unparseable body ({err}): {text}")))
}

/// The body of a 200 response; any other status is an error.
fn require_200((status, body): (u16, Json)) -> Result<Json, RemoteError> {
    if status != 200 {
        return Err(RemoteError::Status {
            status,
            body: body.render(),
        });
    }
    Ok(body)
}

fn expect_u64(value: &Json, field: &str) -> Result<u64, RemoteError> {
    value
        .get(field)
        .and_then(Json::as_u64)
        .ok_or_else(|| RemoteError::Protocol(format!("missing numeric field {field:?}")))
}

fn expect_u32_list(value: &Json, field: &str) -> Result<Vec<u32>, RemoteError> {
    let Some(Json::Arr(items)) = value.get(field) else {
        return Err(RemoteError::Protocol(format!(
            "missing array field {field:?}"
        )));
    };
    items
        .iter()
        .map(|v| {
            v.as_u64()
                .and_then(|n| u32::try_from(n).ok())
                .ok_or_else(|| RemoteError::Protocol(format!("non-u32 entry in {field:?}")))
        })
        .collect()
}

/// A served black-box system, observed over a socket. Implements
/// [`ObservableSystem`], so the trainer cannot tell it from the
/// in-process [`crate::system::BlackBoxSystem`] — by construction it
/// returns bit-identical observations.
pub struct RemoteSystem {
    client: Mutex<HttpClient>,
    cfg: SystemConfig,
    info: PublicInfo,
    targets: HashSet<ItemId>,
    eval_users: Vec<UserId>,
    ranker: String,
    /// Serving-side shard count from `/info` (1 when the server
    /// predates sharding). Purely informational to the attack — shard
    /// layout never changes responses — but the bench load generator
    /// uses it to shape per-shard traffic.
    shards: usize,
    /// Mirror of the server's seed-stream position, advanced by each
    /// retrain response (the server is the authority; this lets
    /// `observations_spent` answer without a round trip).
    observed: AtomicU64,
}

impl RemoteSystem {
    /// Dials `addr` and fetches `GET /info` — the experimenter-side
    /// disclosure (config, evaluation users, ranker name) an
    /// in-process attack would read off the system object directly.
    pub fn connect(addr: impl Into<String>) -> Result<Self, RemoteError> {
        let mut client = HttpClient::new(addr);
        let info = require_200(client.request("GET", "/info", None)?)?;
        let Some(cfg_json) = info.get("config") else {
            return Err(RemoteError::Protocol("missing config object".into()));
        };
        let cfg = SystemConfig {
            eval_users: expect_u64(cfg_json, "eval_users")? as usize,
            top_k: expect_u64(cfg_json, "top_k")? as usize,
            n_candidates: expect_u64(cfg_json, "n_candidates")? as usize,
            seed: expect_u64(cfg_json, "seed")?,
            reserve_attackers: expect_u64(cfg_json, "reserve_attackers")? as u32,
        };
        let target_items = expect_u32_list(&info, "target_items")?;
        let public = PublicInfo {
            num_items: expect_u64(&info, "num_items")? as u32,
            target_items: target_items.clone(),
            popularity: expect_u32_list(&info, "popularity")?,
        };
        let eval_users = expect_u32_list(&info, "eval_users")?;
        let ranker = info
            .get("ranker")
            .and_then(Json::as_str)
            .ok_or_else(|| RemoteError::Protocol("missing ranker name".into()))?
            .to_string();
        let observed = expect_u64(&info, "observations_spent")?;
        let shards = info
            .get("shards")
            .and_then(Json::as_u64)
            .map_or(1, |n| n.max(1) as usize);
        Ok(Self {
            client: Mutex::new(client),
            cfg,
            info: public,
            targets: target_items.into_iter().collect(),
            eval_users,
            ranker,
            shards,
            observed: AtomicU64::new(observed),
        })
    }

    /// The users the served protocol polls (fetched from `/info`).
    pub fn eval_users(&self) -> &[UserId] {
        &self.eval_users
    }

    /// The server's shard count (1 for unsharded servers).
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// One full over-the-wire observation: feedback, retrain, poll
    /// every evaluation user (pipelined, see the module docs),
    /// count target hits.
    pub fn observe_remote(&self, poison: &[Trajectory]) -> Result<Observation, RemoteError> {
        let mut client = self.client.lock().unwrap();
        let trajectories = Json::Arr(
            poison
                .iter()
                .map(|traj| Json::Arr(traj.iter().map(|&i| Json::from(i)).collect()))
                .collect(),
        );
        let feedback = Json::obj().field("trajectories", trajectories);
        require_200(client.request("POST", "/feedback", Some(&feedback))?)?;

        let retrain = require_200(client.request("POST", "/retrain", None)?)?;
        let generation = expect_u64(&retrain, "generation")?;
        let seed = expect_u64(&retrain, "seed")?;
        self.observed.store(generation, Ordering::Relaxed);

        let k = self.cfg.top_k;
        let paths: Vec<String> = self
            .eval_users
            .iter()
            .map(|user| format!("/recommend/{user}?k={k}"))
            .collect();
        let mut rec_num = 0u32;
        for (&user, response) in self.eval_users.iter().zip(client.get_pipelined(&paths)?) {
            let list = require_200(response)?;
            let served_generation = expect_u64(&list, "generation")?;
            if served_generation != generation {
                return Err(RemoteError::Protocol(format!(
                    "snapshot superseded mid-observation: retrained generation \
                     {generation} but user {user} was served generation {served_generation}"
                )));
            }
            let items = expect_u32_list(&list, "items")?;
            rec_num += items.iter().filter(|i| self.targets.contains(i)).count() as u32;
        }
        Ok(Observation {
            rec_num,
            seed,
            recommendations: None,
        })
    }
}

impl ObservableSystem for RemoteSystem {
    fn config(&self) -> &SystemConfig {
        &self.cfg
    }

    fn public_info(&self) -> PublicInfo {
        self.info.clone()
    }

    fn ranker_name(&self) -> &str {
        &self.ranker
    }

    fn observations_spent(&self) -> u64 {
        self.observed.load(Ordering::Relaxed)
    }

    /// Resume only lines up against a server whose seed stream already
    /// sits exactly at the checkpoint: the stream lives server-side
    /// and cannot be fast-forwarded from here without consuming it.
    fn restore_observations_spent(&self, spent: u64) -> Result<(), ConfigError> {
        let current = self.observed.load(Ordering::Relaxed);
        if spent != current {
            return Err(ConfigError {
                field: "observations_spent",
                message: format!(
                    "served system has spent {current} observation(s) but the checkpoint \
                     expects {spent}; restart the server or resume elsewhere"
                ),
            });
        }
        Ok(())
    }

    /// Slots are observed **sequentially** — the served system is the
    /// single contended resource, and its seed ordinals are consumed
    /// by retrain order, so client-side fan-out would only race the
    /// stream. Still bit-identical to the in-process batched path,
    /// which pre-assigns the same seeds in the same slot order.
    ///
    /// # Panics
    ///
    /// On transport or protocol errors. The trait returns plain
    /// observations (rewards cannot be "absent" mid-attack); drivers
    /// that want to handle network failure gracefully use
    /// [`RemoteSystem::observe_remote`] directly.
    fn observe_batch(&self, batch: &[&[Trajectory]], _threads: usize) -> Vec<Observation> {
        batch
            .iter()
            .map(|poison| {
                self.observe_remote(poison)
                    .unwrap_or_else(|err| panic!("remote observation failed: {err}"))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;
    use std::thread::{self, JoinHandle};

    /// What a scripted server does with one request.
    enum Reply {
        /// Answer 200 with this JSON body.
        Json(String),
        /// Answer 200 with this JSON body and `Connection: close`,
        /// then hang up.
        Close(String),
        /// Hang up without answering.
        Drop,
    }

    /// A one-thread HTTP server that answers each request from
    /// `script` and logs its `"METHOD path"`, across any number of
    /// connections. A `GET /stop` request ends it; joining the handle
    /// returns the log.
    fn scripted(
        mut script: impl FnMut(&str) -> Reply + Send + 'static,
    ) -> (String, JoinHandle<Vec<String>>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        let handle = thread::spawn(move || {
            let mut log = Vec::new();
            for stream in listener.incoming() {
                let mut reader = BufReader::new(stream.expect("accept"));
                while let Some(line) = read_request(&mut reader) {
                    if line == "GET /stop" {
                        return log;
                    }
                    log.push(line.clone());
                    let (body, close) = match script(&line) {
                        Reply::Json(body) => (body, false),
                        Reply::Close(body) => (body, true),
                        Reply::Drop => break,
                    };
                    let response = format!(
                        "HTTP/1.1 200 OK\r\nContent-Length: {}\r\n{}\r\n{body}",
                        body.len(),
                        if close { "Connection: close\r\n" } else { "" }
                    );
                    // The client may already have hung up on an error.
                    if reader.get_mut().write_all(response.as_bytes()).is_err() || close {
                        break;
                    }
                }
            }
            log
        });
        (addr, handle)
    }

    /// Reads one request, body included; `None` at end of stream.
    fn read_request(reader: &mut BufReader<TcpStream>) -> Option<String> {
        let mut line = String::new();
        if reader.read_line(&mut line).ok()? == 0 {
            return None;
        }
        let mut content_length = 0;
        loop {
            let mut header = String::new();
            reader.read_line(&mut header).ok()?;
            let header = header.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    content_length = value.trim().parse().ok()?;
                }
            }
        }
        reader.read_exact(&mut vec![0; content_length]).ok()?;
        let mut parts = line.split_whitespace();
        Some(format!("{} {}", parts.next()?, parts.next()?))
    }

    fn stop(addr: &str, server: JoinHandle<Vec<String>>) -> Vec<String> {
        TcpStream::connect(addr)
            .and_then(|mut s| s.write_all(b"GET /stop HTTP/1.1\r\nContent-Length: 0\r\n\r\n"))
            .expect("reach the scripted server");
        server.join().expect("scripted server panicked")
    }

    /// More evaluation users than two pipeline windows.
    const E: u32 = 2 * PIPELINE_WINDOW as u32 + 7;
    /// The one target item; even users are recommended it.
    const TARGET: u32 = 9;

    fn info() -> String {
        let users: Vec<String> = (0..E).map(|u| u.to_string()).collect();
        format!(
            "{{\"config\":{{\"eval_users\":{E},\"top_k\":2,\"n_candidates\":5,\"seed\":1,\
             \"reserve_attackers\":4}},\"target_items\":[{TARGET}],\"num_items\":{TARGET},\
             \"popularity\":[],\"eval_users\":[{}],\"ranker\":\"scripted\",\
             \"observations_spent\":0}}",
            users.join(",")
        )
    }

    /// A served system whose retrain publishes generation 1 and whose
    /// recommend responses come from `recommend(user)`.
    fn scripted_system(
        mut recommend: impl FnMut(u32) -> Reply + Send + 'static,
    ) -> (String, JoinHandle<Vec<String>>) {
        scripted(move |line| match line {
            "GET /info" => Reply::Json(info()),
            "POST /feedback" => Reply::Json("{}".into()),
            "POST /retrain" => Reply::Json("{\"generation\":1,\"seed\":5}".into()),
            _ => {
                let user = line
                    .strip_prefix("GET /recommend/")
                    .and_then(|rest| rest.split('?').next())
                    .and_then(|u| u.parse().ok())
                    .expect("a recommend request");
                recommend(user)
            }
        })
    }

    fn list(user: u32, generation: u64) -> Reply {
        let item = if user.is_multiple_of(2) { TARGET } else { 1 };
        Reply::Json(format!(
            "{{\"user\":{user},\"k\":2,\"generation\":{generation},\"items\":[{item},2]}}"
        ))
    }

    #[test]
    fn pipelined_polls_are_answered_in_request_order() {
        let (addr, server) = scripted_system(|user| list(user, 1));
        let remote = RemoteSystem::connect(addr.clone()).expect("connect");
        let observation = remote.observe_remote(&[vec![1, TARGET]]).expect("observe");
        assert_eq!(observation.rec_num, E.div_ceil(2), "one hit per even user");
        assert_eq!(observation.seed, 5);
        assert_eq!(remote.observations_spent(), 1);
        drop(remote);
        let mut expected = vec!["GET /info", "POST /feedback", "POST /retrain"]
            .into_iter()
            .map(String::from)
            .collect::<Vec<_>>();
        expected.extend((0..E).map(|u| format!("GET /recommend/{u}?k=2")));
        assert_eq!(stop(&addr, server), expected, "2 + E requests, in order");
    }

    #[test]
    fn a_stale_generation_late_in_the_pipeline_is_a_protocol_error() {
        let stale = PIPELINE_WINDOW as u32 + 3;
        let (addr, server) =
            scripted_system(move |user| list(user, if user == stale { 2 } else { 1 }));
        let remote = RemoteSystem::connect(addr.clone()).expect("connect");
        match remote.observe_remote(&[vec![1, TARGET]]) {
            Err(RemoteError::Protocol(msg)) => {
                assert!(msg.contains(&format!("user {stale}")), "{msg}")
            }
            other => panic!("expected a protocol error, got {other:?}"),
        }
        drop(remote);
        stop(&addr, server);
    }

    #[test]
    fn connection_close_mid_window_is_a_typed_error() {
        let (addr, server) = scripted_system(|user| match user {
            5 => Reply::Close("{\"user\":5,\"k\":2,\"generation\":1,\"items\":[1,2]}".into()),
            _ => list(user, 1),
        });
        let remote = RemoteSystem::connect(addr.clone()).expect("connect");
        match remote.observe_remote(&[vec![1, TARGET]]) {
            Err(RemoteError::Protocol(msg)) => assert!(msg.contains("unanswered"), "{msg}"),
            other => panic!("expected a protocol error, got {other:?}"),
        }
        drop(remote);
        let log = stop(&addr, server);
        assert_eq!(
            log.iter()
                .filter(|l| l.starts_with("POST /retrain"))
                .count(),
            1,
            "the refused polls must not replay the retrain"
        );
    }

    #[test]
    fn a_connection_lost_mid_pipeline_resends_only_unanswered_polls() {
        let mut dropped = false;
        let (addr, server) = scripted_system(move |user| match user {
            10 if !dropped => {
                dropped = true;
                Reply::Drop
            }
            _ => list(user, 1),
        });
        let remote = RemoteSystem::connect(addr.clone()).expect("connect");
        let observation = remote.observe_remote(&[vec![1, TARGET]]).expect("observe");
        assert_eq!(observation.rec_num, E.div_ceil(2));
        drop(remote);
        let log = stop(&addr, server);
        assert_eq!(log.iter().filter(|l| *l == "POST /retrain").count(), 1);
        let poll = |u: u32| format!("GET /recommend/{u}?k=2");
        // The first connection served polls 0..=10 and then vanished;
        // the fresh one is asked for the unanswered suffix only (the
        // client may have lost a few buffered answers with the reset).
        assert_eq!(log[3..14], (0..=10).map(poll).collect::<Vec<_>>());
        let first = E as usize - (log.len() - 14);
        assert!(first <= 10, "resent polls the client had read: {log:?}");
        assert_eq!(log[14..], (first as u32..E).map(poll).collect::<Vec<_>>());
    }

    #[test]
    fn a_post_whose_response_is_lost_is_not_replayed() {
        let (addr, server) = scripted(|line| match line {
            "POST /retrain" => Reply::Drop,
            _ => Reply::Json("{}".into()),
        });
        let mut client = HttpClient::new(addr.clone());
        client
            .request("GET", "/healthz", None)
            .expect("warm the connection");
        let lost = client.request("POST", "/retrain", None);
        assert!(matches!(lost, Err(RemoteError::Io(_))), "{lost:?}");
        assert_eq!(
            stop(&addr, server),
            ["GET /healthz", "POST /retrain"],
            "a replayed retrain would burn a second seed ordinal"
        );
    }

    #[test]
    fn a_get_whose_response_is_lost_is_retried_once() {
        let mut dropped = false;
        let (addr, server) = scripted(move |line| match line {
            "GET /b" if !dropped => {
                dropped = true;
                Reply::Drop
            }
            _ => Reply::Json("{}".into()),
        });
        let mut client = HttpClient::new(addr.clone());
        client
            .request("GET", "/a", None)
            .expect("warm the connection");
        let (status, _) = client.request("GET", "/b", None).expect("retried");
        assert_eq!(status, 200);
        assert_eq!(client.dials(), 2);
        drop(client);
        assert_eq!(stop(&addr, server), ["GET /a", "GET /b", "GET /b"]);
    }
}
