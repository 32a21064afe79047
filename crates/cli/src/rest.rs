//! Minimal RESTful interface (paper Fig. 1, "RESTful" semantic view).
//!
//! A deliberately small HTTP/1.1 server on `std::net::TcpListener`, no
//! external dependencies. A connection carries one request and is served
//! by a pooled handler thread of the [`AcceptLoop`] the servelets run on,
//! at most 64 at once. One [`RestServer`] serves either deployment shape,
//! a single node ([`RestServer::start`]) or a [`Cluster`]
//! ([`RestServer::start_cluster`]), from one route table. Unmarked routes
//! go through [`Backend`] and answer alike on both shapes; rows marked
//! *node* or *cluster* exist on that shape only.
//!
//! ```text
//! GET  /keys                        → key list (one per line)
//! GET  /get/<key>?branch=B          → value summary + version
//! PUT  /put/<key>?branch=B          → body = string value; returns uid
//! GET  /head/<key>?branch=B         → version uid
//! GET  /v1/<key>/range?start=&end=&limit=&branch=
//!                                   → JSON page of map entries
//! …    /v1/fork…                    → fork sandboxes (see `fork_route`)
//! GET  /branches/<key>              → branch\tuid lines            node
//! POST /branch/<key>/<new>?from=B   → create branch                node
//! GET  /diff/<key>?from=A&to=B      → diff rendering               node
//! GET  /history/<key>?branch=B      → history lines                node
//! GET  /verify/<key>?branch=B       → verification result          node
//! GET  /stat                        → store statistics             node
//! GET  /v1/cluster/health           → per-servelet liveness JSON   cluster
//! GET  /v1/cluster/topology         → per-servelet placement JSON  cluster
//! GET  /v1/cluster/replication      → per-primary replication lag  cluster
//! POST /v1/cluster/restart/<id>     → supervised restart           cluster
//! ```
//!
//! Successful legacy routes answer `text/plain; charset=utf-8`; `/v1/…`
//! routes answer `application/json`. **Every** error is structured JSON —
//! `{"error":{"code":"<stable snake_case>","message":"<human text>"}}` —
//! with the code drawn from [`DbError::code`], so clients branch on
//! `error.code`, not on prose or status text (the status map is
//! `respond_error`). On a cluster, unavailability and timeout bodies
//! outside `/v1/fork` also name the failing servelet and its address.
//!
//! Load is refused at the door, never queued: a bad or oversized
//! `content-length` gets `400` before the body is read, a connection past
//! the ceiling of 64 gets `503` + `retry-after` (code `overloaded`), and
//! a configured per-peer rate limiter sheds with `429` + `retry-after`.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{IpAddr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use forkbase::{
    AcceptLoop, Backend, Cap, Cluster, DbError, DbResult, DiffSummary, ForkBase, ForkDiff,
    ForkInfo, ForkService, MapPage, PutOptions, RateLimiter, VersionSpec,
};
use forkbase_store::SweepStore;
use forkbase_types::Value;

use crate::commands::parse_uid;

/// Handler threads at once, and so connections served at once; past this
/// a new connection is shed with `503`.
const MAX_CONNECTIONS: usize = 64;

/// Largest request body accepted; a longer `content-length` is refused
/// before the body is read.
const MAX_BODY_BYTES: usize = 16 * 1024 * 1024;

/// Hard ceiling on one `/range` page. The endpoint's bounded-memory
/// promise only holds if the response body is bounded too: an
/// unauthenticated `limit=4000000000` must not make the server
/// materialize a multi-GB page.
const RANGE_LIMIT_MAX: u64 = 10_000;

/// Handle to a running REST server. Dropping it stops the server.
pub struct RestServer {
    accept: AcceptLoop,
}

impl RestServer {
    /// Start serving `db` on `127.0.0.1:port` (`port` 0 = auto-assign).
    /// `forks` is the fork registry the embedding process persists and
    /// reaps; `limiter`, when given, sheds per-peer floods with `429`.
    pub fn start<S: SweepStore + 'static>(
        db: Arc<ForkBase<S>>,
        port: u16,
        forks: Arc<ForkService>,
        limiter: Option<Arc<RateLimiter>>,
    ) -> std::io::Result<RestServer> {
        Self::spawn(db, port, forks, limiter)
    }

    /// [`Self::start`] for a cluster gateway: routed data verbs plus the
    /// fault-tolerance surface under `/v1/cluster`.
    pub fn start_cluster<S: SweepStore + Send + 'static>(
        cluster: Arc<Cluster<S>>,
        port: u16,
        forks: Arc<ForkService>,
        limiter: Option<Arc<RateLimiter>>,
    ) -> std::io::Result<RestServer> {
        Self::spawn(cluster, port, forks, limiter)
    }

    fn spawn<B: Shape>(
        backend: Arc<B>,
        port: u16,
        forks: Arc<ForkService>,
        limiter: Option<Arc<RateLimiter>>,
    ) -> std::io::Result<RestServer> {
        let listener = TcpListener::bind(("127.0.0.1", port))?;
        let cap: Cap = (MAX_CONNECTIONS, shed_connection);
        let accept = AcceptLoop::spawn(listener, Some(cap), move |stream, peer, stopping| {
            let limiter = limiter.as_deref();
            let _ = handle_connection(stream, &*backend, &forks, limiter, peer.ip(), stopping);
        })?;
        Ok(RestServer { accept })
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.accept.addr()
    }

    /// Stop serving, as [`AcceptLoop::stop`] does.
    pub fn stop(self) {
        drop(self);
    }
}

/// Read briefly and discard what arrives, so that closing does not reset
/// the connection (unread bytes make the kernel send RST) before the
/// client has read the refusal written next.
fn drain(mut stream: &TcpStream) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(200)));
    let _ = stream.read(&mut [0u8; 4096]);
}

/// Refuse a connection at the door: the gateway is at its concurrency
/// ceiling. Cheap by construction — drain, write one canned response,
/// close.
fn shed_connection(stream: &TcpStream) {
    drain(stream);
    let _ = respond(
        stream,
        503,
        JSON,
        Some(1),
        "{\"error\":{\"code\":\"overloaded\",\
          \"message\":\"gateway at its concurrent connection limit; retry shortly\"}}",
    );
}

/// What one deployment shape adds to the shared route table.
trait Shape: Backend + Send + Sync + 'static {
    /// Answer a route only this shape serves; `None` falls through to
    /// the shared table.
    fn route(&self, req: &Request, segments: &[&str]) -> Option<DbResult<String>>;

    /// Extra JSON fields (each led by `,`) for the error object.
    fn error_fields(&self, _e: &DbError) -> String {
        String::new()
    }
}

impl<S: SweepStore + 'static> Shape for ForkBase<S> {
    fn route(&self, req: &Request, segments: &[&str]) -> Option<DbResult<String>> {
        let q = |name: &str| req.param_or_master(name);
        Some(match (req.method.as_str(), segments) {
            ("GET", ["stat"]) => Ok(self.stat().to_string()),
            ("GET", ["branches", key]) => self.list_branches(&url_decode(key)).map(|bs| {
                bs.into_iter()
                    .map(|b| format!("{}\t{}", b.name, b.head))
                    .collect::<Vec<_>>()
                    .join("\n")
            }),
            ("POST", ["branch", key, new]) => self
                .branch(&url_decode(key), &q("from"), &url_decode(new))
                .map(|()| format!("created {new}")),
            ("GET", ["diff", key]) => self
                .diff(
                    &url_decode(key),
                    &VersionSpec::Branch(q("from")),
                    &VersionSpec::Branch(q("to")),
                )
                .map(|d| format!("{d:?}")),
            ("GET", ["history", key]) => self
                .history(&url_decode(key), &VersionSpec::Branch(q("branch")))
                .map(|h| {
                    h.into_iter()
                        .map(|e| format!("{}\t{}\t{}", e.uid, e.author, e.message))
                        .collect::<Vec<_>>()
                        .join("\n")
                }),
            ("GET", ["verify", key]) => self
                .verify_branch(&url_decode(key), &q("branch"))
                .map(|n| format!("OK {n}")),
            _ => return None,
        })
    }
}

impl<S: SweepStore + Send + 'static> Shape for Cluster<S> {
    fn route(&self, req: &Request, segments: &[&str]) -> Option<DbResult<String>> {
        Some(match (req.method.as_str(), segments) {
            ("GET", ["v1", "cluster", "health"]) => Ok(health_json(self)),
            ("GET", ["v1", "cluster", "topology"]) => Ok(topology_json(self)),
            ("GET", ["v1", "cluster", "replication"]) => Ok(replication_json(self)),
            ("POST", ["v1", "cluster", "restart", id]) => id
                .parse::<u64>()
                .map_err(|_| DbError::InvalidInput(format!("servelet id is not a number: {id:?}")))
                .and_then(|id| {
                    self.restart_servelet(id)
                        .map(|()| format!("{{\"restarted\":{id}}}"))
                }),
            _ => return None,
        })
    }

    /// The gateway knows which process each servelet is: name the
    /// failing servelet and its address in unavailability/timeout bodies.
    fn error_fields(&self, e: &DbError) -> String {
        match e {
            DbError::ServeletUnavailable { servelet } | DbError::ServeletTimeout { servelet } => {
                let address = match self.servelet_addr(*servelet) {
                    Some(a) => format!("\"{}\"", json_escape(&a)),
                    None => "null".to_string(),
                };
                format!(",\"servelet\":{servelet},\"address\":{address}")
            }
            _ => String::new(),
        }
    }
}

/// `GET /v1/cluster/topology`: the persisted placement record as JSON —
/// one entry per servelet with its stable id, transport, (for remote
/// servelets) the address its process listens on, and its replication
/// role. The `role` fields are additive — `id`/`transport`/`address`
/// keep their exact pre-replication shape, so existing consumers keep
/// parsing (pinned by `topology_endpoint_reports_placement`).
fn topology_json<S: SweepStore + Send + 'static>(cluster: &Cluster<S>) -> String {
    let topo = cluster.topology();
    let servelets: Vec<String> = topo
        .servelet_ids
        .iter()
        .map(|id| {
            let head = match topo.addr_of(*id) {
                Some(addr) => format!(
                    "{{\"id\":{id},\"transport\":\"tcp\",\"address\":\"{}\"",
                    json_escape(addr)
                ),
                None => format!("{{\"id\":{id},\"transport\":\"in-process\",\"address\":null"),
            };
            let role = match topo.role_of(*id) {
                Some(forkbase::TopoRole::Primary { anchor }) => {
                    format!(",\"role\":\"primary\",\"anchor\":{anchor}")
                }
                Some(forkbase::TopoRole::Replica { primary }) => {
                    format!(",\"role\":\"replica\",\"primary\":{primary}")
                }
                None => String::new(),
            };
            format!("{head}{role}}}")
        })
        .collect();
    format!(
        "{{\"servelets\":[{}],\"next_id\":{}}}",
        servelets.join(","),
        topo.next_id
    )
}

/// `GET /v1/cluster/replication`: per-primary replication status — the
/// capture sequence and, per replica, the applied sequence, staleness
/// bound (`lag`), unshipped entries, and whether a full resync is due.
fn replication_json<S: SweepStore + Send + 'static>(cluster: &Cluster<S>) -> String {
    let status = cluster.replication_status();
    let primaries: Vec<String> = status
        .primaries
        .iter()
        .map(|p| {
            let replicas: Vec<String> = p
                .replicas
                .iter()
                .map(|r| {
                    let addr = match &r.addr {
                        Some(a) => format!("\"{}\"", json_escape(a)),
                        None => "null".to_string(),
                    };
                    format!(
                        "{{\"id\":{},\"address\":{addr},\"acked_seq\":{},\"lag\":{},\
                         \"pending\":{},\"needs_full_sync\":{}}}",
                        r.id, r.acked_seq, r.lag, r.pending, r.needs_full_sync
                    )
                })
                .collect();
            format!(
                "{{\"primary\":{},\"anchor\":{},\"seq\":{},\"replicas\":[{}]}}",
                p.primary,
                p.anchor,
                p.seq,
                replicas.join(",")
            )
        })
        .collect();
    format!("{{\"primaries\":[{}]}}", primaries.join(","))
}

/// `GET /v1/cluster/health`: one record per servelet plus an overall
/// `degraded` flag, so a dashboard polls a single endpoint.
fn health_json<S: SweepStore + Send + 'static>(cluster: &Cluster<S>) -> String {
    let health = cluster.health();
    let degraded = health
        .iter()
        .any(|h| h.state != forkbase::HealthState::Alive);
    let servelets: Vec<String> = health
        .iter()
        .map(|h| {
            let last_error = match &h.last_error {
                Some(e) => format!("\"{}\"", json_escape(e)),
                None => "null".to_string(),
            };
            format!(
                "{{\"id\":{},\"state\":\"{}\",\"consecutive_failures\":{},\"last_error\":{}}}",
                h.servelet,
                h.state.as_str(),
                h.consecutive_failures,
                last_error
            )
        })
        .collect();
    format!(
        "{{\"servelets\":[{}],\"degraded\":{degraded}}}",
        servelets.join(",")
    )
}

/// One parsed HTTP request.
struct Request {
    method: String,
    path: String,
    query: String,
    body: Vec<u8>,
}

impl Request {
    fn query_param(&self, name: &str) -> Option<String> {
        self.query.split('&').find_map(|pair| {
            let (k, v) = pair.split_once('=')?;
            (k == name).then(|| url_decode(v))
        })
    }

    /// A branch-valued query parameter, `master` when absent.
    fn param_or_master(&self, name: &str) -> String {
        self.query_param(name)
            .unwrap_or_else(|| "master".to_string())
    }
}

/// Read one request off `stream`. A request refused before routing —
/// malformed request line, bad or oversized `content-length` — comes
/// back as the error to answer with.
fn read_request(stream: &TcpStream) -> std::io::Result<DbResult<Request>> {
    // A stalled client must not pin a handler thread, nor `stop`.
    let timeout = Some(Duration::from_secs(5));
    stream.set_read_timeout(timeout)?;
    stream.set_write_timeout(timeout)?;
    let mut reader = BufReader::new(stream);

    let mut request_line = String::new();
    reader.read_line(&mut request_line)?;
    let mut parts = request_line.split_whitespace();
    let (Some(method), Some(target)) = (parts.next(), parts.next()) else {
        return Ok(Err(DbError::InvalidInput("malformed request line".into())));
    };
    let method = method.to_string();
    let target = target.to_string();

    // Headers: we only need Content-Length.
    let mut content_length = Ok(0usize);
    loop {
        let mut line = String::new();
        reader.read_line(&mut line)?;
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        if let Some(v) = line.to_ascii_lowercase().strip_prefix("content-length:") {
            let v = v.trim();
            content_length = v
                .parse()
                .map_err(|_| format!("content-length is not a number: {v:?}"));
        }
    }
    let mut body = match content_length {
        Ok(n) if n <= MAX_BODY_BYTES => vec![0u8; n],
        refused => {
            drain(stream);
            let why = refused.map_or_else(
                |why| why,
                |n| format!("body of {n} bytes is over the {MAX_BODY_BYTES}-byte limit"),
            );
            return Ok(Err(DbError::InvalidInput(why)));
        }
    };
    reader.read_exact(&mut body)?;

    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), q.to_string()),
        None => (target, String::new()),
    };
    Ok(Ok(Request {
        method,
        path,
        query,
        body,
    }))
}

fn handle_connection<B: Shape>(
    stream: &TcpStream,
    backend: &B,
    forks: &ForkService,
    limiter: Option<&RateLimiter>,
    peer: IpAddr,
    stopping: &AtomicBool,
) -> std::io::Result<()> {
    let read = read_request(stream);
    // A request that arrives once `stop` has begun is not started: the
    // connection closes without a response.
    if stopping.load(Ordering::SeqCst) {
        return Ok(());
    }
    let req = match read? {
        Ok(req) => req,
        Err(e) => return respond_error(stream, &e, ""),
    };
    if let Some(Err(e)) = limiter.map(|l| l.check(peer)) {
        return respond_error(stream, &e, "");
    }
    let segments: Vec<&str> = req.path.split('/').filter(|s| !s.is_empty()).collect();
    // Fork error bodies name no servelet, on either shape.
    let (result, named) = match fork_route(forks, backend, &req, &segments) {
        Some(result) => (result, false),
        None => (
            backend
                .route(&req, &segments)
                .unwrap_or_else(|| shared_route(backend, &req, &segments)),
            true,
        ),
    };
    match result {
        // /v1 routes are JSON end to end; legacy routes stay text/plain
        // on success (errors are JSON everywhere).
        Ok(text) => {
            let ctype = if segments.first() == Some(&"v1") {
                JSON
            } else {
                TEXT
            };
            respond(stream, 200, ctype, None, &text)
        }
        Err(e) => {
            let fields = if named {
                backend.error_fields(&e)
            } else {
                String::new()
            };
            respond_error(stream, &e, &fields)
        }
    }
}

/// The routes every shape serves, through [`Backend`].
fn shared_route<B: Backend + ?Sized>(
    backend: &B,
    req: &Request,
    segments: &[&str],
) -> DbResult<String> {
    let branch = VersionSpec::Branch(req.param_or_master("branch"));
    match (req.method.as_str(), segments) {
        ("GET", ["keys"]) => backend.list_keys().map(|ks| ks.join("\n")),
        ("GET", ["get", key]) => backend
            .get_at(&url_decode(key), &branch)
            .map(|g| format!("{}\nversion: {}", g.value.summary(), g.uid)),
        ("PUT", ["put", key]) => {
            let text = String::from_utf8_lossy(&req.body).into_owned();
            let opts = PutOptions::on_branch(req.param_or_master("branch")).author("rest");
            backend
                .put_at(&url_decode(key), Value::Str(text), &opts)
                .map(|c| c.uid.to_string())
        }
        ("GET", ["head", key]) => backend
            .resolve_spec(&url_decode(key), &branch)
            .map(|u| u.to_string()),
        ("GET", ["v1", key, "range"]) => {
            let key = url_decode(key);
            range_page(req, &key, |start, end, limit| {
                backend.map_range_at(&key, &branch, start, end, limit)
            })
        }
        _ => Err(DbError::InvalidInput(format!(
            "no route for {} {}",
            req.method, req.path
        ))),
    }
}

/// Map a [`DbError`] onto its HTTP status and write the structured JSON
/// error body, with `extra_fields` (empty, or led by `,`) spliced into
/// the `error` object. One mapping for both shapes, so clients see
/// identical behavior whether they talk to a single node or a cluster.
fn respond_error(stream: &TcpStream, e: &DbError, extra_fields: &str) -> std::io::Result<()> {
    let status = match e {
        DbError::NoSuchKey(_) | DbError::NoSuchBranch { .. } | DbError::NoSuchVersion(_) => 404,
        // An expired (or reaped, or never-created — indistinguishable
        // after reaping) fork: the sandbox is gone, and so is its URL
        // namespace. Clients branch on `fork_expired` to re-create.
        DbError::ForkExpired { .. } => 404,
        DbError::InvalidInput(_) | DbError::TypeMismatch { .. } => 400,
        // Per-peer admission control said no: shed, don't queue. The
        // retry-after header carries the bucket's own refill estimate.
        DbError::RateLimited { .. } => 429,
        // A routed backend whose owning servelet is down: a supervisor
        // restart or topology change may heal it, so it maps to 503
        // rather than a client error.
        DbError::ServeletUnavailable { .. } => 503,
        // The RPC deadline elapsed with the outcome unknown — the gateway
        // timed out on its upstream, and (for writes) the request may
        // still have applied. 504 tells the client "ambiguous, check
        // before blindly retrying", distinct from 503's "down, retry".
        DbError::ServeletTimeout { .. } => 504,
        DbError::PermissionDenied(_) => 403,
        DbError::BranchExists { .. } | DbError::MergeConflicts(_) => 409,
        // Server-side faults. The match is deliberately wildcard-free
        // (forkbase-lint P5): a new DbError variant must pick its status
        // here rather than silently inheriting 500.
        DbError::Store(_)
        | DbError::Node(_)
        | DbError::Value(_)
        | DbError::NoCommonAncestor(_, _)
        | DbError::TamperDetected(_)
        | DbError::Remote { .. } => 500,
    };
    let body = format!(
        "{{\"error\":{{\"code\":\"{}\",\"message\":\"{}\"{extra_fields}}}}}",
        e.code(),
        json_escape(&e.to_string())
    );
    // 503 and 429 are the retryable ones: tell well-behaved clients when
    // to come back instead of letting them hot-loop. 429's hint comes
    // from the token bucket (rounded up to whole seconds, min 1).
    let retry_after = match e {
        DbError::RateLimited { retry_after_ms } => Some(retry_after_ms.div_ceil(1000).max(1)),
        _ if status == 503 => Some(1),
        _ => None,
    };
    respond(stream, status, JSON, retry_after, &body)
}

/// A `/range` page as JSON. `start` is inclusive, `end` exclusive;
/// `limit` caps the page (default 1000, clamped to [`RANGE_LIMIT_MAX`])
/// and `truncated` tells the client whether more entries remain.
fn range_page(
    req: &Request,
    key: &str,
    page: impl FnOnce(Option<Bytes>, Option<Bytes>, u64) -> DbResult<MapPage>,
) -> DbResult<String> {
    let limit = match req.query_param("limit") {
        None => 1000,
        Some(l) => l
            .parse::<u64>()
            .map_err(|_| DbError::InvalidInput(format!("limit is not a number: {l:?}")))?
            .min(RANGE_LIMIT_MAX),
    };
    let bound = |name: &str| req.query_param(name).map(Bytes::from);
    Ok(page_json(key, &page(bound("start"), bound("end"), limit)?))
}

/// The `/v1/fork` route family, the same on both shapes (the
/// [`ForkService`] drives any [`Backend`]). Returns `None` when
/// `segments` is not a fork route, so the caller falls through to the
/// other tables. The path prefix `/v1/fork` is reserved — a data key
/// literally named `fork` must use the legacy routes.
///
/// ```text
/// POST   /v1/fork?base=B|version=UID&ttl=SECS&id=ID   → create (O(1))
/// GET    /v1/fork                                     → registry listing
/// GET    /v1/fork/<id>                                → fork info
/// DELETE /v1/fork/<id>                                → drop now (beats the reaper)
/// POST   /v1/fork/<id>/touch?ttl=SECS                 → renew the lease
/// GET    /v1/fork/<id>/get/<key>                      → fork-scoped read
/// PUT    /v1/fork/<id>/put/<key>                      → fork-scoped write (body = value)
/// GET    /v1/fork/<id>/range/<key>?start=&end=&limit= → fork-scoped map page
/// GET    /v1/fork/<id>/diff                           → diff-vs-base, all touched keys
/// ```
fn fork_route<B: Backend + ?Sized>(
    forks: &ForkService,
    backend: &B,
    req: &Request,
    segments: &[&str],
) -> Option<DbResult<String>> {
    if segments.first() != Some(&"v1") || segments.get(1) != Some(&"fork") {
        return None;
    }
    let q = |name: &str| req.query_param(name);
    let ttl = match q("ttl").map(|t| t.parse::<u64>()) {
        None => None,
        Some(Ok(t)) => Some(t),
        Some(Err(_)) => {
            return Some(Err(DbError::InvalidInput(
                "ttl must be a number of seconds".into(),
            )))
        }
    };
    let now = forks.clock().now();
    Some(match (req.method.as_str(), &segments[2..]) {
        ("POST", []) => {
            let base = match q("version") {
                Some(v) => match parse_uid(&v) {
                    Ok(uid) => VersionSpec::Version(uid),
                    Err(e) => return Some(Err(e)),
                },
                None => VersionSpec::Branch(req.param_or_master("base")),
            };
            forks.create(base, ttl, q("id")).map(|i| fork_json(&i, now))
        }
        ("GET", []) => {
            let listed: Vec<String> = forks.list().iter().map(|i| fork_json(i, now)).collect();
            Ok(format!(
                "{{\"forks\":[{}],\"live\":{}}}",
                listed.join(","),
                forks.live_count()
            ))
        }
        ("GET", [id]) => forks.info(id).map(|i| fork_json(&i, now)),
        ("DELETE", [id]) => forks.drop_fork(backend, id).map(|n| {
            format!(
                "{{\"dropped\":\"{}\",\"branches_dropped\":{n}}}",
                json_escape(id)
            )
        }),
        ("POST", [id, "touch"]) => forks.touch(id, ttl).map(|i| fork_json(&i, now)),
        ("GET", [id, "get", key]) => forks.get(backend, id, &url_decode(key)).map(|g| {
            format!(
                "{{\"value\":\"{}\",\"version\":\"{}\"}}",
                json_escape(&g.value.summary()),
                g.uid
            )
        }),
        ("PUT", [id, "put", key]) => {
            let text = String::from_utf8_lossy(&req.body).into_owned();
            let opts = PutOptions::default().author("rest");
            forks
                .put(backend, id, &url_decode(key), Value::Str(text), &opts)
                .map(|c| {
                    format!(
                        "{{\"uid\":\"{}\",\"branch\":\"{}\"}}",
                        c.uid,
                        json_escape(&c.branch)
                    )
                })
        }
        // Served through the fork's read spec: its branch for touched
        // keys, the base for untouched ones.
        ("GET", [id, "range", key]) => {
            let key = url_decode(key);
            range_page(req, &key, |start, end, limit| {
                forks.range(backend, id, &key, start, end, limit)
            })
        }
        ("GET", [id, "diff"]) => forks.diff(backend, id).map(|d| fork_diff_json(&d)),
        _ => Err(DbError::InvalidInput(format!(
            "no fork route for {} {}",
            req.method, req.path
        ))),
    })
}

/// Render one registry entry as JSON: identity, base spec, lease window
/// (absolute unix seconds plus the remaining budget at `now`), and write
/// accounting.
fn fork_json(info: &ForkInfo, now: u64) -> String {
    let base = match &info.base {
        VersionSpec::Branch(b) => format!("{{\"branch\":\"{}\"}}", json_escape(b)),
        VersionSpec::Version(u) => format!("{{\"version\":\"{u}\"}}"),
    };
    format!(
        "{{\"id\":\"{}\",\"branch\":\"{}\",\"base\":{base},\
         \"created_at\":{},\"expires_at\":{},\"remaining_secs\":{},\"live\":{},\
         \"writes\":{},\"touched_keys\":{}}}",
        json_escape(&info.id),
        json_escape(&info.branch()),
        info.lease.created_at,
        info.lease.expires_at,
        info.lease.remaining_at(now),
        info.lease.live_at(now),
        info.writes,
        info.touched.len()
    )
}

/// Render a [`MapPage`] in the `/v1/<key>/range` response shape.
fn page_json(key: &str, page: &MapPage) -> String {
    let mut body = format!(
        "{{\"key\":\"{}\",\"version\":\"{}\",\"entries\":[",
        json_escape(key),
        page.version
    );
    for (n, (k, v)) in page.entries.iter().enumerate() {
        if n > 0 {
            body.push(',');
        }
        body.push('{');
        body.push_str(&json_bytes_field("key", k));
        body.push(',');
        body.push_str(&json_bytes_field("value", v));
        body.push('}');
    }
    body.push_str(&format!(
        "],\"count\":{},\"truncated\":{}}}",
        page.entries.len(),
        page.truncated
    ));
    body
}

/// Render a full fork diff: one entry per touched key with its pinned
/// base version, current fork head, and value-level summary (`null` for
/// keys the fork created — there is no base to diff against).
fn fork_diff_json(diff: &ForkDiff) -> String {
    let keys: Vec<String> = diff
        .keys
        .iter()
        .map(|k| {
            let base = match &k.base {
                Some(u) => format!("\"{u}\""),
                None => "null".to_string(),
            };
            let summary = match &k.summary {
                Some(s) => diff_summary_json(s),
                None => "null".to_string(),
            };
            format!(
                "{{\"key\":\"{}\",\"base\":{base},\"head\":\"{}\",\"summary\":{summary}}}",
                json_escape(&k.key),
                k.head
            )
        })
        .collect();
    format!(
        "{{\"fork\":\"{}\",\"changed_keys\":{},\"keys\":[{}]}}",
        json_escape(&diff.fork),
        diff.changed_keys(),
        keys.join(",")
    )
}

/// Render one [`DiffSummary`] as a tagged JSON object.
fn diff_summary_json(s: &DiffSummary) -> String {
    match s {
        DiffSummary::Identical => "{\"type\":\"identical\"}".to_string(),
        DiffSummary::Primitive { from, to } => format!(
            "{{\"type\":\"primitive\",\"from\":\"{}\",\"to\":\"{}\"}}",
            json_escape(&from.summary()),
            json_escape(&to.summary())
        ),
        DiffSummary::Map {
            added,
            removed,
            modified,
            entries,
        } => {
            let rendered: Vec<String> = entries
                .iter()
                .map(|e| {
                    let mut obj = String::from("{");
                    obj.push_str(&json_bytes_field("key", &e.key));
                    for (name, side) in [("from", &e.from), ("to", &e.to)] {
                        obj.push(',');
                        match side {
                            Some(v) => obj.push_str(&json_bytes_field(name, v)),
                            None => obj.push_str(&format!("\"{name}\":null")),
                        }
                    }
                    obj.push('}');
                    obj
                })
                .collect();
            format!(
                "{{\"type\":\"map\",\"added\":{added},\"removed\":{removed},\
                 \"modified\":{modified},\"entries\":[{}]}}",
                rendered.join(",")
            )
        }
        DiffSummary::Chunked {
            from_len,
            to_len,
            shared_chunks,
            shared_bytes,
            from_chunks,
            to_chunks,
        } => format!(
            "{{\"type\":\"chunked\",\"from_len\":{from_len},\"to_len\":{to_len},\
             \"shared_chunks\":{shared_chunks},\"shared_bytes\":{shared_bytes},\
             \"from_chunks\":{from_chunks},\"to_chunks\":{to_chunks}}}"
        ),
    }
}

const TEXT: &str = "text/plain; charset=utf-8";
const JSON: &str = "application/json";

/// Write one whole response; `retry_after` (seconds) becomes the
/// `retry-after` header.
fn respond(
    mut stream: &TcpStream,
    status: u16,
    content_type: &str,
    retry_after: Option<u64>,
    body: &str,
) -> std::io::Result<()> {
    let reason = match status {
        200 => "OK",
        400 => "Bad Request",
        403 => "Forbidden",
        404 => "Not Found",
        409 => "Conflict",
        429 => "Too Many Requests",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Internal Server Error",
    };
    let extra = match retry_after {
        Some(secs) => format!("retry-after: {secs}\r\n"),
        None => String::new(),
    };
    let response = format!(
        "HTTP/1.1 {status} {reason}\r\ncontent-type: {content_type}\r\n\
         content-length: {}\r\n{extra}connection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(response.as_bytes())
}

/// Render a byte string as `"name":"<lossy text>"`, adding a lossless
/// `"name_hex":"…"` companion when the bytes are not valid UTF-8 (the
/// lossy text alone would collapse distinct binary keys into the same
/// replacement-character string).
fn json_bytes_field(name: &str, bytes: &[u8]) -> String {
    match std::str::from_utf8(bytes) {
        Ok(text) => format!("\"{name}\":\"{}\"", json_escape(text)),
        Err(_) => {
            let hex: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
            format!(
                "\"{name}\":\"{}\",\"{name}_hex\":\"{hex}\"",
                json_escape(&String::from_utf8_lossy(bytes))
            )
        }
    }
}

/// Minimal JSON string escaping (quotes, backslashes, control chars).
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

fn url_decode(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'%' if i + 2 < bytes.len() => {
                let hex = std::str::from_utf8(&bytes[i + 1..i + 3]).unwrap_or("");
                match u8::from_str_radix(hex, 16) {
                    Ok(b) => {
                        out.push(b);
                        i += 3;
                    }
                    Err(_) => {
                        out.push(bytes[i]);
                        i += 1;
                    }
                }
            }
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

#[cfg(test)]
mod tests {
    use super::*;
    use forkbase_postree::TreeConfig;
    use forkbase_store::MemStore;
    use std::time::Instant;

    fn start() -> (RestServer, Arc<ForkBase<MemStore>>) {
        let db = Arc::new(ForkBase::with_config(
            MemStore::new(),
            TreeConfig::test_config(),
        ));
        let server =
            RestServer::start(Arc::clone(&db), 0, Arc::new(ForkService::new()), None).unwrap();
        (server, db)
    }

    type RefsMap = Arc<std::sync::Mutex<std::collections::HashMap<u64, String>>>;

    /// A 3-servelet in-memory cluster behind the REST gateway. The respawn
    /// factory hands back the same `Arc<MemStore>` (chunks survive a kill,
    /// as a durable backend's would) plus the last saved branch heads, so
    /// `/v1/cluster/restart` heals kills completely.
    fn start_cluster() -> (RestServer, Arc<Cluster<Arc<MemStore>>>, RefsMap) {
        let stores: Vec<(u64, Arc<MemStore>)> =
            (0..3).map(|id| (id, Arc::new(MemStore::new()))).collect();
        let by_id: std::collections::HashMap<u64, Arc<MemStore>> = stores.iter().cloned().collect();
        let cluster = Arc::new(Cluster::from_stores(stores, TreeConfig::test_config()));
        let refs: RefsMap = Arc::default();
        let respawn_refs = Arc::clone(&refs);
        cluster.set_respawn(move |id| {
            Ok(forkbase::Respawned {
                store: Arc::clone(&by_id[&id]),
                refs: respawn_refs.lock().unwrap().get(&id).cloned(),
                persist: None,
            })
        });
        let server =
            RestServer::start_cluster(Arc::clone(&cluster), 0, Arc::new(ForkService::new()), None)
                .unwrap();
        (server, cluster, refs)
    }

    /// Commit a map value under a key, built on the store owning it.
    type PutMap = Box<dyn Fn(&str, Vec<(Bytes, Bytes)>)>;

    /// One gateway under test, of either shape, with the backend it
    /// serves.
    struct Gateway {
        shape: &'static str,
        server: RestServer,
        backend: Arc<dyn Backend + Send + Sync>,
        put_map: PutMap,
    }

    fn node() -> Gateway {
        let (server, db) = start();
        let owner = Arc::clone(&db);
        Gateway {
            shape: "node",
            server,
            backend: db,
            put_map: Box::new(move |key, pairs| {
                let map = owner.new_map(pairs).unwrap();
                owner.put(key, map, &PutOptions::default()).unwrap();
            }),
        }
    }

    fn cluster() -> Gateway {
        let (server, cluster, _refs) = start_cluster();
        let router = Arc::clone(&cluster);
        Gateway {
            shape: "cluster",
            server,
            backend: cluster,
            put_map: Box::new(move |key, pairs| {
                let key = key.to_string();
                router
                    .with_key(&key.clone(), move |db| {
                        let map = db.new_map(pairs)?;
                        db.put(&key, map, &PutOptions::default())
                    })
                    .unwrap()
                    .unwrap();
            }),
        }
    }

    /// The shared routes answer alike on both shapes: their tests run
    /// once per entry.
    const SHAPES: [fn() -> Gateway; 2] = [node, cluster];

    /// Send `raw` as the whole request; the full response text back.
    fn exchange(addr: SocketAddr, raw: &str) -> String {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(raw.as_bytes()).unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        response
    }

    /// Full raw response text — status line, headers, and body.
    fn request_raw(addr: SocketAddr, method: &str, path: &str, body: &str) -> String {
        exchange(
            addr,
            &format!(
                "{method} {path} HTTP/1.1\r\nhost: test\r\ncontent-length: {}\r\n\r\n{body}",
                body.len()
            ),
        )
    }

    fn request(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
        let response = request_raw(addr, method, path, body);
        let status: u16 = response
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .unwrap_or(0);
        let body = response
            .split_once("\r\n\r\n")
            .map(|(_, b)| b.to_string())
            .unwrap_or_default();
        (status, body)
    }

    #[test]
    fn put_get_roundtrip_over_http() {
        for make in SHAPES {
            let g = make();
            let shape = g.shape;
            let addr = g.server.addr();
            let (status, uid) = request(addr, "PUT", "/put/greeting", "hello rest");
            assert_eq!(status, 200, "{shape}");
            assert!(uid.len() >= 52, "{shape}: uid is base32: {uid}");
            let (status, body) = request(addr, "GET", "/get/greeting", "");
            assert_eq!(status, 200, "{shape}");
            assert!(body.contains("hello rest"), "{shape}: {body}");
            assert!(body.contains(&uid), "{shape}: {body}");
            g.server.stop();
        }
    }

    #[test]
    fn cluster_gateway_routes_puts_and_gets() {
        let g = cluster();
        let addr = g.server.addr();
        for i in 0..9 {
            let (status, uid) =
                request(addr, "PUT", &format!("/put/key-{i}"), &format!("value-{i}"));
            assert_eq!(status, 200);
            assert!(uid.len() >= 52, "uid is base32: {uid}");
        }
        let (status, body) = request(addr, "GET", "/get/key-4", "");
        assert_eq!(status, 200);
        assert!(body.contains("value-4"), "{body}");
        let (status, keys) = request(addr, "GET", "/keys", "");
        assert_eq!(status, 200);
        assert_eq!(keys.lines().count(), 9, "{keys}");
        let (status, _) = request(addr, "GET", "/get/ghost", "");
        assert_eq!(status, 404);
        g.server.stop();
    }

    #[test]
    fn branch_and_diff_over_http() {
        let (server, _db) = start();
        request(server.addr(), "PUT", "/put/doc", "original");
        let (status, _) = request(server.addr(), "POST", "/branch/doc/dev?from=master", "");
        assert_eq!(status, 200);
        request(server.addr(), "PUT", "/put/doc?branch=dev", "changed");

        let (status, body) = request(server.addr(), "GET", "/diff/doc?from=master&to=dev", "");
        assert_eq!(status, 200);
        assert!(body.contains("original") && body.contains("changed"));

        let (status, body) = request(server.addr(), "GET", "/branches/doc", "");
        assert_eq!(status, 200);
        assert!(body.contains("dev") && body.contains("master"));
        server.stop();
    }

    #[test]
    fn history_verify_stat_keys() {
        let (server, _db) = start();
        request(server.addr(), "PUT", "/put/k", "v1");
        request(server.addr(), "PUT", "/put/k", "v2");

        let (_, hist) = request(server.addr(), "GET", "/history/k", "");
        assert_eq!(hist.lines().count(), 2);

        let (status, v) = request(server.addr(), "GET", "/verify/k", "");
        assert_eq!(status, 200);
        assert!(v.starts_with("OK"));

        let (_, keys) = request(server.addr(), "GET", "/keys", "");
        assert_eq!(keys.trim(), "k");

        let (_, stat) = request(server.addr(), "GET", "/stat", "");
        assert!(stat.contains("chunks:"));
        server.stop();
    }

    #[test]
    fn errors_map_to_http_statuses() {
        for make in SHAPES {
            let g = make();
            let shape = g.shape;
            let addr = g.server.addr();
            let (status, _) = request(addr, "GET", "/get/nope", "");
            assert_eq!(status, 404, "{shape}");
            let (status, _) = request(addr, "GET", "/no/such/route", "");
            assert_eq!(status, 400, "{shape}");
            let (status, _) = request(addr, "GET", "/head/ghost", "");
            assert_eq!(status, 404, "{shape}");
            g.server.stop();
        }
    }

    #[test]
    fn errors_are_structured_json() {
        for make in SHAPES {
            let g = make();
            let shape = g.shape;
            let addr = g.server.addr();
            let (status, body) = request(addr, "GET", "/get/nope", "");
            assert_eq!(status, 404, "{shape}");
            assert!(
                body.contains("\"error\"") && body.contains("\"code\":\"no_such_key\""),
                "{shape}: structured error body: {body}"
            );
            let (status, body) = request(addr, "GET", "/no/such/route", "");
            assert_eq!(status, 400, "{shape}");
            assert!(
                body.contains("\"code\":\"invalid_input\""),
                "{shape}: {body}"
            );
        }
    }

    /// An over-cap `content-length` is refused at once, unread, and
    /// nothing is written.
    #[test]
    fn oversized_body_is_refused_before_it_is_read() {
        for make in SHAPES {
            let g = make();
            let shape = g.shape;
            let t = Instant::now();
            let raw = exchange(
                g.server.addr(),
                &format!(
                    "PUT /put/big HTTP/1.1\r\ncontent-length: {}\r\n\r\npartial",
                    MAX_BODY_BYTES + 1
                ),
            );
            let took = t.elapsed();
            assert!(took < Duration::from_secs(1), "{shape}: took {took:?}");
            assert!(raw.starts_with("HTTP/1.1 400"), "{shape}: {raw}");
            assert!(raw.contains("\"code\":\"invalid_input\""), "{shape}: {raw}");
            assert!(!g.backend.list_keys().unwrap().contains(&"big".to_string()));
        }
    }

    /// A `content-length` that is not a number used to read as 0 and
    /// commit an empty value.
    #[test]
    fn malformed_content_length_is_refused() {
        for make in SHAPES {
            let g = make();
            let shape = g.shape;
            let raw = exchange(
                g.server.addr(),
                "PUT /put/k HTTP/1.1\r\ncontent-length: abc\r\n\r\n",
            );
            assert!(raw.starts_with("HTTP/1.1 400"), "{shape}: {raw}");
            assert!(raw.contains("\"code\":\"invalid_input\""), "{shape}: {raw}");
            assert!(g.backend.list_keys().unwrap().is_empty(), "{shape}");
        }
    }

    #[test]
    fn v1_range_pages_map_entries() {
        for make in SHAPES {
            let g = make();
            let shape = g.shape;
            let addr = g.server.addr();
            let pairs: Vec<(Bytes, Bytes)> = (0..50)
                .map(|i| {
                    (
                        Bytes::from(format!("k{i:03}")),
                        Bytes::from(format!("v{i}")),
                    )
                })
                .collect();
            (g.put_map)("table", pairs);

            // Bounded page.
            let (status, body) = request(addr, "GET", "/v1/table/range?start=k010&end=k015", "");
            assert_eq!(status, 200, "{shape}");
            assert!(body.contains("\"count\":5"), "{shape}: {body}");
            assert!(body.contains("\"truncated\":false"), "{shape}: {body}");
            assert!(
                body.contains("{\"key\":\"k010\",\"value\":\"v10\"}"),
                "{shape}: {body}"
            );
            assert!(!body.contains("k015"), "{shape}: {body}");

            // Limit + truncation marker.
            let (status, body) = request(addr, "GET", "/v1/table/range?limit=7", "");
            assert_eq!(status, 200, "{shape}");
            assert!(
                body.contains("\"count\":7") && body.contains("\"truncated\":true"),
                "{shape}: {body}"
            );

            // Absurd limits are clamped, not honored or rejected.
            let (status, body) = request(addr, "GET", "/v1/table/range?limit=4000000000", "");
            assert_eq!(status, 200, "{shape}");
            assert!(body.contains("\"count\":50"), "{shape}: {body}");

            // Binary (non-UTF-8) entries carry lossless hex companions.
            (g.put_map)(
                "bin",
                vec![(
                    Bytes::from_static(&[0xff, 0x01]),
                    Bytes::from_static(&[0xfe]),
                )],
            );
            let (status, body) = request(addr, "GET", "/v1/bin/range", "");
            assert_eq!(status, 200, "{shape}");
            assert!(
                body.contains("\"key_hex\":\"ff01\"") && body.contains("\"value_hex\":\"fe\""),
                "{shape}: {body}"
            );

            // Missing key → structured 404.
            let (status, body) = request(addr, "GET", "/v1/ghost/range", "");
            assert_eq!(status, 404, "{shape}");
            assert!(body.contains("\"code\":\"no_such_key\""), "{shape}: {body}");

            // Non-map value → type mismatch: 400 on a node. A servelet's
            // mismatch reaches the gateway as a carried `Remote` error,
            // which the status map answers with 500 (code intact).
            g.backend
                .put_at("scalar", Value::string("not a map"), &PutOptions::default())
                .unwrap();
            let (status, body) = request(addr, "GET", "/v1/scalar/range", "");
            if shape == "node" {
                assert_eq!(status, 400);
            }
            assert!(
                body.contains("\"code\":\"type_mismatch\""),
                "{shape}: {body}"
            );
            // A bad limit → 400.
            let (status, body) = request(addr, "GET", "/v1/table/range?limit=many", "");
            assert_eq!(status, 400, "{shape}");
            assert!(
                body.contains("\"code\":\"invalid_input\""),
                "{shape}: {body}"
            );
            g.server.stop();
        }
    }

    #[test]
    fn url_decoding() {
        for make in SHAPES {
            let g = make();
            let shape = g.shape;
            request(g.server.addr(), "PUT", "/put/hello%20world", "spaced");
            assert!(
                g.backend
                    .list_keys()
                    .unwrap()
                    .contains(&"hello world".to_string()),
                "{shape}"
            );
            g.server.stop();
        }
    }

    /// Snapshot every servelet's branch heads into `refs` (what the CLI's
    /// `save()` persists to each servelet's `refs` file).
    fn save_refs(cluster: &Cluster<Arc<MemStore>>, refs: &RefsMap) {
        for (slot, id) in cluster.ids().into_iter().enumerate() {
            let dump = cluster.on_node(slot, |db| db.dump_refs()).unwrap();
            refs.lock().unwrap().insert(id, dump);
        }
    }

    #[test]
    fn dead_servelet_maps_to_503_with_retry_after() {
        let (server, cluster, _refs) = start_cluster();
        request(server.addr(), "PUT", "/put/doomed", "v");
        cluster.kill_servelet(cluster.route("doomed")).unwrap();

        let raw = request_raw(server.addr(), "GET", "/get/doomed", "");
        assert!(raw.starts_with("HTTP/1.1 503"), "{raw}");
        assert!(
            raw.to_ascii_lowercase().contains("retry-after: 1"),
            "503 must carry retry-after: {raw}"
        );
        assert!(raw.contains("\"code\":\"servelet_unavailable\""), "{raw}");

        // The strict cluster-wide key list degrades the same way.
        let (status, body) = request(server.addr(), "GET", "/keys", "");
        assert_eq!(status, 503);
        assert!(body.contains("servelet_unavailable"), "{body}");
        server.stop();
    }

    #[test]
    fn missed_rpc_deadline_maps_to_504() {
        let (server, cluster, _refs) = start_cluster();
        request(server.addr(), "PUT", "/put/slow", "v");
        let mut cfg = cluster.rpc_config();
        cfg.deadline = std::time::Duration::from_millis(40);
        cfg.retry = forkbase::RetryPolicy::no_retry();
        cluster.set_rpc_config(cfg);
        // Drop every request at the RPC boundary: deterministic timeouts.
        cluster.arm_chaos(forkbase::ChaosPlan::seeded(11).drop_first(u32::MAX));

        let raw = request_raw(server.addr(), "GET", "/get/slow", "");
        assert!(raw.starts_with("HTTP/1.1 504"), "{raw}");
        assert!(raw.contains("\"code\":\"servelet_timeout\""), "{raw}");
        assert!(
            !raw.to_ascii_lowercase().contains("retry-after"),
            "504 is ambiguous — no blind-retry hint: {raw}"
        );

        cluster.disarm_chaos();
        let (status, body) = request(server.addr(), "GET", "/get/slow", "");
        assert_eq!(status, 200);
        assert!(body.contains('v'), "{body}");
        server.stop();
    }

    #[test]
    fn health_and_restart_endpoints() {
        let (server, cluster, refs) = start_cluster();
        request(server.addr(), "PUT", "/put/persist", "survives");
        save_refs(&cluster, &refs);

        let (status, body) = request(server.addr(), "GET", "/v1/cluster/health", "");
        assert_eq!(status, 200);
        assert!(body.contains("\"degraded\":false"), "{body}");
        assert_eq!(body.matches("\"state\":\"alive\"").count(), 3, "{body}");

        let victim_slot = cluster.route("persist");
        let victim_id = cluster.ids()[victim_slot];
        cluster.kill_servelet(victim_slot).unwrap();
        let (_, body) = request(server.addr(), "GET", "/v1/cluster/health", "");
        assert!(body.contains("\"degraded\":true"), "{body}");
        assert!(
            body.contains(&format!("{{\"id\":{victim_id},\"state\":\"dead\"")),
            "{body}"
        );

        let (status, body) = request(
            server.addr(),
            "POST",
            &format!("/v1/cluster/restart/{victim_id}"),
            "",
        );
        assert_eq!(status, 200, "{body}");
        assert!(
            body.contains(&format!("\"restarted\":{victim_id}")),
            "{body}"
        );

        let (_, body) = request(server.addr(), "GET", "/v1/cluster/health", "");
        assert!(body.contains("\"degraded\":false"), "{body}");
        let (status, body) = request(server.addr(), "GET", "/get/persist", "");
        assert_eq!(status, 200);
        assert!(body.contains("survives"), "{body}");

        // Garbage id → structured 400, not a panic or a 500.
        let (status, body) = request(server.addr(), "POST", "/v1/cluster/restart/nope", "");
        assert_eq!(status, 400);
        assert!(body.contains("\"code\":\"invalid_input\""), "{body}");
        server.stop();
    }

    #[test]
    fn topology_endpoint_reports_placement() {
        let (server, cluster, _refs) = start_cluster();
        let (status, body) = request(server.addr(), "GET", "/v1/cluster/topology", "");
        assert_eq!(status, 200);
        for id in cluster.ids() {
            // The pre-replication fields are pinned byte-for-byte (in this
            // exact order) so existing consumers keep parsing; the role
            // column is strictly additive after them.
            assert!(
                body.contains(&format!(
                    "{{\"id\":{id},\"transport\":\"in-process\",\"address\":null,\
                     \"role\":\"primary\",\"anchor\":{id}}}"
                )),
                "{body}"
            );
        }
        assert!(body.contains("\"next_id\":3"), "{body}");
        server.stop();
    }

    /// The replication endpoint surfaces per-primary lag, and the topology
    /// endpoint renders the replica's role, without disturbing the
    /// pre-replication fields existing consumers parse.
    #[test]
    fn replication_endpoint_reports_lag_and_roles() {
        let (server, cluster, _refs) = start_cluster();
        let pid = cluster.ids()[0];
        let rid = cluster
            .add_replica(pid, Arc::new(forkbase_store::MemStore::new()))
            .unwrap();

        // No unshipped writes yet: the replica sits at lag 0.
        let (status, body) = request(server.addr(), "GET", "/v1/cluster/replication", "");
        assert_eq!(status, 200);
        assert!(
            body.contains(&format!("\"primary\":{pid},\"anchor\":{pid}")),
            "{body}"
        );
        assert!(
            body.contains(&format!(
                "{{\"id\":{rid},\"address\":null,\"acked_seq\":0,\"lag\":0,\
                 \"pending\":0,\"needs_full_sync\":false}}"
            )),
            "{body}"
        );
        // A primary with no replicas reports an empty replica list.
        assert!(body.contains("\"replicas\":[]"), "{body}");

        // An acked write on the replicated slot raises the staleness bound
        // until the next ship pumps it across.
        let key = (0..)
            .map(|i| format!("replicated-{i}"))
            .find(|k| cluster.owner_id(k) == pid)
            .unwrap();
        request(server.addr(), "PUT", &format!("/put/{key}"), "v");
        let (_, body) = request(server.addr(), "GET", "/v1/cluster/replication", "");
        assert!(
            body.contains(&format!(
                "\"id\":{rid},\"address\":null,\"acked_seq\":0,\"lag\":1"
            )),
            "{body}"
        );
        cluster.ship_replication();
        let (_, body) = request(server.addr(), "GET", "/v1/cluster/replication", "");
        assert!(
            body.contains(&format!(
                "\"id\":{rid},\"address\":null,\"acked_seq\":1,\"lag\":0"
            )),
            "{body}"
        );

        // The topology endpoint renders the replica's role additively.
        let (_, body) = request(server.addr(), "GET", "/v1/cluster/topology", "");
        assert!(
            body.contains(&format!(
                "{{\"id\":{rid},\"transport\":\"in-process\",\"address\":null,\
                 \"role\":\"replica\",\"primary\":{pid}}}"
            )),
            "{body}"
        );
        server.stop();
    }

    #[test]
    fn unavailability_errors_carry_servelet_identity() {
        let (server, cluster, _refs) = start_cluster();
        request(server.addr(), "PUT", "/put/doomed", "v");
        let slot = cluster.route("doomed");
        let id = cluster.ids()[slot];
        cluster.kill_servelet(slot).unwrap();
        let (status, body) = request(server.addr(), "GET", "/get/doomed", "");
        assert_eq!(status, 503);
        assert!(
            body.contains(&format!("\"servelet\":{id}")),
            "error body names the servelet: {body}"
        );
        assert!(
            body.contains("\"address\":null"),
            "in-process servelets have no address: {body}"
        );
        server.stop();
    }

    /// An aborted or garbage connection must not end the accept thread
    /// (`Err(_) => break` used to, for good), and stopping or dropping a
    /// server with no request in flight must not wait out anything.
    #[test]
    fn gateways_outlive_bad_connections_and_stop_promptly() {
        fn abuse(addr: SocketAddr) {
            for _ in 0..10 {
                drop(TcpStream::connect(addr).unwrap());
            }
            let mut junk = TcpStream::connect(addr).unwrap();
            junk.write_all(&[0xff; 64]).unwrap();
        }
        fn prompt(what: &str, stop: impl FnOnce()) {
            let t = Instant::now();
            stop();
            let took = t.elapsed();
            assert!(took < Duration::from_millis(50), "{what} took {took:?}");
        }

        for make in SHAPES {
            let g = make();
            let shape = g.shape;
            let addr = g.server.addr();
            abuse(addr);
            assert_eq!(request(addr, "PUT", "/put/k", "v").0, 200, "{shape}");
            prompt(&format!("{shape} stop"), || g.server.stop());
            assert!(
                TcpStream::connect(addr).is_err(),
                "{shape}: listener is gone"
            );
            // The backend outlives the server, as a serving process's does.
            let g = make();
            let server = g.server;
            prompt(&format!("{shape} drop"), || drop(server));
        }
    }

    #[test]
    fn gateway_sheds_connections_past_the_limit() {
        for make in SHAPES {
            let g = make();
            let shape = g.shape;
            let addr = g.server.addr();
            // Fill every slot with a connection that never sends its
            // request, then observe the next connection being shed.
            let parked: Vec<TcpStream> = (0..MAX_CONNECTIONS)
                .map(|_| TcpStream::connect(addr).unwrap())
                .collect();
            // Give the accept loop time to hand the parked connections off.
            let deadline = Instant::now() + Duration::from_secs(5);
            let raw = loop {
                let raw = request_raw(addr, "GET", "/keys", "");
                if raw.starts_with("HTTP/1.1 503") || Instant::now() > deadline {
                    break raw;
                }
                std::thread::sleep(Duration::from_millis(10));
            };
            assert!(raw.starts_with("HTTP/1.1 503"), "{shape}: {raw}");
            assert!(raw.contains("\"code\":\"overloaded\""), "{shape}: {raw}");
            assert!(
                raw.to_ascii_lowercase().contains("retry-after: 1"),
                "{shape}: shed responses carry retry-after: {raw}"
            );
            drop(parked);
            // Slots released: the gateway serves again.
            let deadline = Instant::now() + Duration::from_secs(5);
            loop {
                let (status, _) = request(addr, "GET", "/keys", "");
                if status == 200 {
                    break;
                }
                assert!(
                    Instant::now() < deadline,
                    "{shape}: gateway never recovered after shedding"
                );
                std::thread::sleep(Duration::from_millis(10));
            }
            g.server.stop();
        }
    }

    /// Poll `done` until it holds or `within` passes; whether it held.
    fn eventually(within: Duration, mut done: impl FnMut() -> bool) -> bool {
        let deadline = Instant::now() + within;
        while !done() {
            if Instant::now() > deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        true
    }

    #[test]
    fn sequential_connections_reuse_a_handler_thread() {
        for make in SHAPES {
            let g = make();
            let shape = g.shape;
            let addr = g.server.addr();
            for _ in 0..200 {
                assert_eq!(request(addr, "GET", "/keys", "").0, 200, "{shape}");
            }
            let (_, spawned) = g.server.accept.threads();
            assert!(
                spawned <= 2,
                "{shape}: 200 sequential GETs spawned {spawned} threads"
            );
            g.server.stop();
        }
    }

    #[test]
    fn stopped_gateways_end_their_handler_threads() {
        for stop_by_drop in [false, true] {
            let (server, db) = start();
            let addr = server.addr();
            // Four connections in flight at once make four threads.
            let mut conns: Vec<TcpStream> =
                (0..4).map(|_| TcpStream::connect(addr).unwrap()).collect();
            assert!(eventually(Duration::from_secs(5), || server
                .accept
                .threads()
                .0
                == 4));
            for conn in &mut conns {
                conn.write_all(b"GET /keys HTTP/1.1\r\ncontent-length: 0\r\n\r\n")
                    .unwrap();
                let mut response = String::new();
                conn.read_to_string(&mut response).unwrap();
                assert!(response.starts_with("HTTP/1.1 200"), "{response}");
            }
            if stop_by_drop {
                drop(server);
            } else {
                server.stop();
            }
            // Each handler thread holds the handler, and with it the
            // backend, until it exits.
            assert_eq!(
                Arc::strong_count(&db),
                1,
                "handler threads outlived the gateway (drop: {stop_by_drop})"
            );
        }
    }

    /// Pull the string value of `"name":"…"` out of a flat JSON body.
    fn json_str(body: &str, name: &str) -> String {
        let tag = format!("\"{name}\":\"");
        let start = body.find(&tag).map(|i| i + tag.len()).unwrap_or_else(|| {
            panic!("field {name:?} missing in {body}");
        });
        body[start..].split('"').next().unwrap().to_string()
    }

    #[test]
    fn fork_sandbox_lifecycle_over_http() {
        let db = Arc::new(ForkBase::with_config(
            MemStore::new(),
            TreeConfig::test_config(),
        ));
        let forks = Arc::new(ForkService::new());
        let server = RestServer::start(Arc::clone(&db), 0, Arc::clone(&forks), None).unwrap();
        let addr = server.addr();
        request(addr, "PUT", "/put/doc", "base-value");

        // Create with an explicit ttl; the response carries the lease.
        let (status, body) = request(addr, "POST", "/v1/fork?ttl=60", "");
        assert_eq!(status, 200, "{body}");
        let id = json_str(&body, "id");
        assert_eq!(json_str(&body, "branch"), format!("fork/{id}"));
        assert!(body.contains("\"live\":true"), "{body}");

        // Untouched key: the fork reads the base live.
        let (status, body) = request(addr, "GET", &format!("/v1/fork/{id}/get/doc"), "");
        assert_eq!(status, 200);
        assert!(body.contains("base-value"), "{body}");

        // A fork write lands on the fork's branch; master is untouched.
        let (status, body) = request(addr, "PUT", &format!("/v1/fork/{id}/put/doc"), "forked");
        assert_eq!(status, 200, "{body}");
        assert_eq!(json_str(&body, "branch"), format!("fork/{id}"));
        let (_, body) = request(addr, "GET", &format!("/v1/fork/{id}/get/doc"), "");
        assert!(body.contains("forked"), "{body}");
        let (_, body) = request(addr, "GET", "/get/doc", "");
        assert!(body.contains("base-value"), "{body}");

        // Diff-vs-base is exact and structured.
        let (status, body) = request(addr, "GET", &format!("/v1/fork/{id}/diff"), "");
        assert_eq!(status, 200);
        assert!(body.contains("\"changed_keys\":1"), "{body}");
        assert!(body.contains("\"type\":\"primitive\""), "{body}");
        assert!(
            body.contains("base-value") && body.contains("forked"),
            "{body}"
        );

        // The registry listing counts it live; touch renews the lease.
        let (_, body) = request(addr, "GET", "/v1/fork", "");
        assert!(body.contains("\"live\":1"), "{body}");
        let (status, body) = request(addr, "POST", &format!("/v1/fork/{id}/touch?ttl=600"), "");
        assert_eq!(status, 200);
        assert!(body.contains("\"remaining_secs\":600"), "{body}");

        // Expiry: every fork verb 404s with the structured code.
        forks.clock().advance(601);
        let (status, body) = request(addr, "GET", &format!("/v1/fork/{id}/get/doc"), "");
        assert_eq!(status, 404);
        assert!(body.contains("\"code\":\"fork_expired\""), "{body}");
        // …but DELETE still collects it (explicit drop beats the reaper).
        let (status, body) = request(addr, "DELETE", &format!("/v1/fork/{id}"), "");
        assert_eq!(status, 200, "{body}");
        assert!(body.contains("\"branches_dropped\":1"), "{body}");
        assert!(!db
            .list_branches("doc")
            .unwrap()
            .iter()
            .any(|b| b.name.starts_with("fork/")));
        server.stop();
    }

    #[test]
    fn cluster_gateway_serves_fork_routes() {
        let stores: Vec<(u64, Arc<MemStore>)> =
            (0..3).map(|id| (id, Arc::new(MemStore::new()))).collect();
        let cluster = Arc::new(Cluster::from_stores(stores, TreeConfig::test_config()));
        let forks = Arc::new(ForkService::new());
        let server =
            RestServer::start_cluster(Arc::clone(&cluster), 0, Arc::clone(&forks), None).unwrap();
        let addr = server.addr();
        for i in 0..6 {
            request(addr, "PUT", &format!("/put/key-{i}"), &format!("v{i}"));
        }
        let (status, body) = request(addr, "POST", "/v1/fork", "");
        assert_eq!(status, 200, "{body}");
        let id = json_str(&body, "id");
        // Fork writes route to each key's owning servelet like any verb.
        for i in 0..6 {
            let (status, _) = request(
                addr,
                "PUT",
                &format!("/v1/fork/{id}/put/key-{i}"),
                &format!("fork-v{i}"),
            );
            assert_eq!(status, 200);
        }
        for i in 0..6 {
            let (_, body) = request(addr, "GET", &format!("/v1/fork/{id}/get/key-{i}"), "");
            assert!(body.contains(&format!("fork-v{i}")), "{body}");
            let (_, body) = request(addr, "GET", &format!("/get/key-{i}"), "");
            assert!(
                body.contains(&format!("v{i}")) && !body.contains("fork-"),
                "{body}"
            );
        }
        let (status, body) = request(addr, "GET", &format!("/v1/fork/{id}/diff"), "");
        assert_eq!(status, 200);
        assert!(body.contains("\"changed_keys\":6"), "{body}");
        let (status, _) = request(addr, "DELETE", &format!("/v1/fork/{id}"), "");
        assert_eq!(status, 200);
        server.stop();
    }

    #[test]
    fn rate_limited_gateway_sheds_with_429() {
        let (server, db) = start();
        drop(server);
        let limiter = Arc::new(RateLimiter::new(forkbase::RateLimit::new(5.0, 2.0)));
        let server = RestServer::start(db, 0, Arc::new(ForkService::new()), Some(limiter)).unwrap();
        let addr = server.addr();
        // The burst admits two requests; the third is shed with the
        // structured code and a whole-seconds retry-after hint.
        request(addr, "PUT", "/put/k", "v");
        let (status, _) = request(addr, "GET", "/get/k", "");
        assert_eq!(status, 200);
        let raw = request_raw(addr, "GET", "/get/k", "");
        assert!(raw.starts_with("HTTP/1.1 429"), "{raw}");
        assert!(raw.contains("\"code\":\"rate_limited\""), "{raw}");
        assert!(
            raw.to_ascii_lowercase().contains("retry-after: 1"),
            "429 carries retry-after: {raw}"
        );
        // Waiting out the hint admits again.
        std::thread::sleep(std::time::Duration::from_millis(250));
        let (status, _) = request(addr, "GET", "/get/k", "");
        assert_eq!(status, 200);
        server.stop();
    }

    #[test]
    fn concurrent_http_clients() {
        for make in SHAPES {
            let g = make();
            let shape = g.shape;
            let addr = g.server.addr();
            let mut handles = Vec::new();
            for t in 0..6 {
                handles.push(std::thread::spawn(move || {
                    for i in 0..10 {
                        let (status, _) =
                            request(addr, "PUT", &format!("/put/key-{t}-{i}"), "payload");
                        assert_eq!(status, 200);
                    }
                }));
            }
            for h in handles {
                h.join().unwrap();
            }
            assert_eq!(g.backend.list_keys().unwrap().len(), 60, "{shape}");
            g.server.stop();
        }
    }
}
