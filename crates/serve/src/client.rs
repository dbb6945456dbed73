//! A small blocking client for the NDJSON serving protocol.
//!
//! Used by the CLI, the load generator and the end-to-end tests; external
//! callers can treat it as reference documentation for the wire format.
//!
//! Every request travels in the resilience envelope: a per-request `id`
//! (echoed by the server so stale replies are detected), an `attempt`
//! counter on retries, the policy's deadline, and a seeded
//! exponential-backoff retry loop that reconnects on connection-level
//! failures. [`Client::connect`] retries nothing; [`Client::new`] takes a
//! [`RetryPolicy`]. Retries are safe for `adapt` because the server's
//! φ-cache is single-flight per `(tenant, task)` — a retried adapt lands on
//! the same settled cell instead of running a second inner loop.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

use fewner_util::{Error, Json, Result, Rng};

use crate::protocol::{Request, Response, SupportSentence};

fn io_err(what: &str, e: std::io::Error) -> Error {
    Error::Io {
        path: what.to_string(),
        detail: e.to_string(),
    }
}

/// Retry knobs for [`Client::new`]. Backoff is exponential from
/// `base_backoff_ms`, capped at `max_backoff_ms`, with ±50% jitter drawn
/// from a seeded in-tree [`Rng`] — two clients with the same seed back off
/// identically, which keeps chaos tests reproducible.
#[derive(Debug, Clone, PartialEq)]
pub struct RetryPolicy {
    /// Retries after the first attempt (default 2 → at most 3 attempts).
    pub max_retries: u32,
    /// First backoff interval in milliseconds (default 10).
    pub base_backoff_ms: u64,
    /// Backoff ceiling in milliseconds (default 500).
    pub max_backoff_ms: u64,
    /// Deadline attached to every adapt/extend/predict request, and used to
    /// size the socket timeout. `None` leaves requests unbounded.
    pub deadline_ms: Option<u64>,
    /// Seed for the jitter stream.
    pub seed: u64,
}

impl RetryPolicy {
    /// Defaults: 2 retries, 10 ms → 500 ms backoff, no deadline, seed 7.
    pub fn new() -> RetryPolicy {
        RetryPolicy {
            max_retries: 2,
            base_backoff_ms: 10,
            max_backoff_ms: 500,
            deadline_ms: None,
            seed: 7,
        }
    }

    /// Sets the retry budget (retries after the first attempt).
    pub fn max_retries(mut self, n: u32) -> RetryPolicy {
        self.max_retries = n;
        self
    }

    /// Sets the backoff range in milliseconds.
    pub fn backoff_ms(mut self, base: u64, max: u64) -> RetryPolicy {
        self.base_backoff_ms = base.max(1);
        self.max_backoff_ms = max.max(base.max(1));
        self
    }

    /// Sets the per-request deadline in milliseconds.
    pub fn deadline_ms(mut self, ms: u64) -> RetryPolicy {
        self.deadline_ms = Some(ms);
        self
    }

    /// Sets the jitter seed.
    pub fn seed(mut self, seed: u64) -> RetryPolicy {
        self.seed = seed;
        self
    }
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy::new()
    }
}

/// What a [`Client`] has been through, for load reports and tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RetryStats {
    /// Attempts beyond the first, across all requests.
    pub retries: u64,
    /// Connections re-established after an I/O or framing failure.
    pub reconnects: u64,
    /// Requests that ultimately failed with `deadline_exceeded`.
    pub deadline_misses: u64,
}

/// One open socket: one request line in, one response line out.
struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    fn open(addrs: &[SocketAddr], timeout: Option<Duration>) -> Result<Conn> {
        let stream = TcpStream::connect(addrs).map_err(|e| io_err("connect", e))?;
        stream.set_nodelay(true).ok();
        let reader = BufReader::new(stream.try_clone().map_err(|e| io_err("connect", e))?);
        let conn = Conn {
            reader,
            writer: stream,
        };
        conn.set_timeout(timeout)?;
        Ok(conn)
    }

    fn set_timeout(&self, timeout: Option<Duration>) -> Result<()> {
        self.writer
            .set_read_timeout(timeout)
            .map_err(|e| io_err("timeout", e))?;
        self.writer
            .set_write_timeout(timeout)
            .map_err(|e| io_err("timeout", e))
    }

    /// Sends one line and reads back one line (trailing newline stripped).
    fn exchange(&mut self, line: &str) -> Result<String> {
        let send = |e| io_err("send", e);
        self.writer.write_all(line.as_bytes()).map_err(send)?;
        self.writer.write_all(b"\n").map_err(send)?;
        self.writer.flush().map_err(send)?;
        let mut buf = String::new();
        let n = self
            .reader
            .read_line(&mut buf)
            .map_err(|e| io_err("recv", e))?;
        if n == 0 {
            return Err(Error::Io {
                path: "recv".into(),
                detail: "server closed the connection".into(),
            });
        }
        buf.truncate(buf.trim_end().len());
        Ok(buf)
    }
}

/// A client of a running `fewner serve` daemon.
///
/// A failed read or write, or a garbled or stale reply, drops the
/// connection; the next attempt reconnects. Transient failures are retried
/// up to the policy's budget: [`Error::Io`] (drop, timeout),
/// [`Error::Serde`] (corrupt frame, stale reply), and `overloaded` or
/// `deadline_exceeded` replies. Everything else — bad requests, unknown
/// tasks — fails fast, since retrying cannot change the answer.
pub struct Client {
    addrs: Vec<SocketAddr>,
    policy: RetryPolicy,
    io_timeout: Option<Duration>,
    rng: Rng,
    conn: Option<Conn>,
    next_id: u64,
    stats: RetryStats,
}

impl Client {
    /// Connects to a serving daemon now, with no retries and no deadline.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client> {
        let addrs = addr.to_socket_addrs().map_err(|e| io_err("connect", e))?;
        let mut client = Client::resolved(addrs.collect(), RetryPolicy::new().max_retries(0));
        client.conn = Some(Conn::open(&client.addrs, client.io_timeout)?);
        Ok(client)
    }

    /// A client for `addr` under `policy`; the connection is established
    /// lazily on the first request (an unresolvable address fails it then).
    /// With a policy deadline the socket timeout defaults to twice the
    /// deadline plus 500 ms, so a wedged server surfaces as a retryable
    /// I/O error.
    pub fn new(addr: impl ToSocketAddrs, policy: RetryPolicy) -> Client {
        let addrs = addr.to_socket_addrs().map(Iterator::collect);
        Client::resolved(addrs.unwrap_or_default(), policy)
    }

    fn resolved(addrs: Vec<SocketAddr>, policy: RetryPolicy) -> Client {
        let io_timeout = policy
            .deadline_ms
            .map(|ms| Duration::from_millis(ms.saturating_mul(2) + 500));
        Client {
            addrs,
            rng: Rng::new(policy.seed),
            policy,
            io_timeout,
            conn: None,
            next_id: 0,
            stats: RetryStats::default(),
        }
    }

    /// Bounds every socket read and write, on this connection and every
    /// reconnect. A client that sets this can never block forever on a
    /// wedged or partitioned server; the timeout surfaces as an
    /// [`Error::Io`].
    pub fn set_io_timeout(&mut self, timeout: Option<Duration>) -> Result<()> {
        self.io_timeout = timeout;
        match &self.conn {
            Some(conn) => conn.set_timeout(timeout),
            None => Ok(()),
        }
    }

    /// Retry/reconnect/deadline-miss counters so far.
    pub fn retry_stats(&self) -> RetryStats {
        self.stats
    }

    /// Sends a request through the retry loop and returns the server's
    /// reply. Error replies come back as [`Response::Error`] values once
    /// the retry budget is spent (or at once, if retrying cannot help).
    pub fn request(&mut self, req: &Request) -> Result<Response> {
        let id = format!("r{}", self.next_id);
        self.next_id += 1;
        let mut attempt: u32 = 0;
        loop {
            let outcome = self.attempt(req, &id, attempt);
            // A failed read/write or a garbled frame leaves the stream in an
            // unknown state: drop the connection so the next attempt starts
            // clean.
            if matches!(outcome, Err(Error::Io { .. } | Error::Serde(_)))
                && self.conn.take().is_some()
            {
                self.stats.reconnects += 1;
            }
            let reply_error = outcome.as_ref().ok().and_then(Response::to_error);
            let error = outcome.as_ref().err().or(reply_error.as_ref());
            let transient = matches!(
                error,
                Some(
                    Error::Io { .. }
                        | Error::Serde(_)
                        | Error::Overloaded { .. }
                        | Error::DeadlineExceeded { .. }
                )
            );
            if !transient || attempt >= self.policy.max_retries {
                if matches!(error, Some(Error::DeadlineExceeded { .. })) {
                    self.stats.deadline_misses += 1;
                }
                return outcome;
            }
            attempt += 1;
            self.stats.retries += 1;
            std::thread::sleep(self.backoff(attempt));
        }
    }

    /// One try: (re)connect if needed, send `req` in the envelope, and
    /// check that the reply answers this request and not an earlier one.
    fn attempt(&mut self, req: &Request, id: &str, attempt: u32) -> Result<Response> {
        if self.conn.is_none() {
            self.conn = Some(Conn::open(&self.addrs, self.io_timeout)?);
        }
        let conn = self.conn.as_mut().expect("connection just ensured");
        let mut json = req.to_json();
        if let Json::Obj(fields) = &mut json {
            fields.push(("id".into(), Json::Str(id.to_string())));
            if attempt > 0 {
                fields.push(("attempt".into(), Json::from(attempt as u64)));
            }
        }
        let parsed = Json::parse(&conn.exchange(&json.to_string())?)?;
        if let Some(echo) = parsed.get("id") {
            if echo.as_str().ok() != Some(id) {
                return Err(Error::Serde(format!(
                    "response id mismatch: expected `{id}`"
                )));
            }
        }
        Response::from_json(&parsed)
    }

    /// The jittered delay before retry number `attempt` (1-based).
    fn backoff(&mut self, attempt: u32) -> Duration {
        let exp = self
            .policy
            .base_backoff_ms
            .saturating_mul(1u64 << (attempt - 1).min(16));
        let capped = exp.min(self.policy.max_backoff_ms);
        let ms = (capped as f32 * self.rng.uniform(0.5, 1.5)) as u64;
        Duration::from_millis(ms.max(1))
    }

    /// Sends a request and converts error replies into typed errors
    /// (`overloaded` becomes [`Error::Overloaded`]).
    fn request_ok(&mut self, req: &Request) -> Result<Response> {
        let resp = self.request(req)?;
        match resp.to_error() {
            Some(e) => Err(e),
            None => Ok(resp),
        }
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> Result<()> {
        match self.request_ok(&Request::Ping)? {
            Response::Pong => Ok(()),
            other => Err(unexpected("pong", &other)),
        }
    }

    /// Adapts (or warms) `(tenant, task)` from a support set; returns the
    /// context source (`hot`, `warm` or `cold`). Safe to retry thanks to
    /// the server-side single-flight cache.
    pub fn adapt(
        &mut self,
        tenant: &str,
        task: &str,
        ways: usize,
        support: Vec<SupportSentence>,
    ) -> Result<String> {
        let req = Request::Adapt {
            tenant: tenant.to_string(),
            task: task.to_string(),
            ways,
            support,
            deadline_ms: self.policy.deadline_ms,
        };
        match self.request_ok(&req)? {
            Response::Adapted { source } => Ok(source),
            other => Err(unexpected("adapt ack", &other)),
        }
    }

    /// Grows `(tenant, task)` with newly arrived support (incremental
    /// online adaptation); returns the context's new revision plus how it
    /// was produced (`extended`, or `cold` when the key was unknown and a
    /// full adapt ran instead). Safe to retry: a duplicate extend after a
    /// lost reply re-runs over support the context already retains, which
    /// is idempotent in the labels it can predict (the revision may advance
    /// twice).
    pub fn extend(
        &mut self,
        tenant: &str,
        task: &str,
        ways: usize,
        support: Vec<SupportSentence>,
    ) -> Result<(u32, String)> {
        let req = Request::Extend {
            tenant: tenant.to_string(),
            task: task.to_string(),
            ways,
            support,
            deadline_ms: self.policy.deadline_ms,
        };
        match self.request_ok(&req)? {
            Response::Extended { revision, source } => Ok((revision, source)),
            other => Err(unexpected("extend ack", &other)),
        }
    }

    /// Predicts tags for query sentences under an already-adapted task.
    pub fn predict(
        &mut self,
        tenant: &str,
        task: &str,
        sentences: &[Vec<String>],
    ) -> Result<Vec<Vec<String>>> {
        self.predict_req(tenant, task, sentences, None, None)
    }

    /// Predicts with an inline support set (adapt-on-miss in one round
    /// trip).
    pub fn predict_with_support(
        &mut self,
        tenant: &str,
        task: &str,
        sentences: &[Vec<String>],
        ways: usize,
        support: Vec<SupportSentence>,
    ) -> Result<Vec<Vec<String>>> {
        self.predict_req(tenant, task, sentences, Some(ways), Some(support))
    }

    fn predict_req(
        &mut self,
        tenant: &str,
        task: &str,
        sentences: &[Vec<String>],
        ways: Option<usize>,
        support: Option<Vec<SupportSentence>>,
    ) -> Result<Vec<Vec<String>>> {
        let req = Request::Predict {
            tenant: tenant.to_string(),
            task: task.to_string(),
            sentences: sentences.to_vec(),
            ways,
            support,
            deadline_ms: self.policy.deadline_ms,
        };
        match self.request_ok(&req)? {
            Response::Predictions { tags } => Ok(tags),
            other => Err(unexpected("predictions", &other)),
        }
    }

    /// Counter snapshot (cache + queue), sorted by name.
    pub fn stats(&mut self) -> Result<Vec<(String, u64)>> {
        match self.request_ok(&Request::Stats)? {
            Response::Stats { counters } => Ok(counters),
            other => Err(unexpected("stats", &other)),
        }
    }

    /// Requests an orderly shutdown of the daemon. If a retry finds the
    /// accept loop already closed, the resulting connect error is surfaced
    /// as-is.
    pub fn shutdown(&mut self) -> Result<()> {
        match self.request_ok(&Request::Shutdown)? {
            Response::ShuttingDown => Ok(()),
            other => Err(unexpected("shutdown ack", &other)),
        }
    }
}

fn unexpected(wanted: &str, got: &Response) -> Error {
    Error::Serde(format!("expected {wanted}, got {:?}", got))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retry_policy_builders_floor_sanely() {
        let p = RetryPolicy::new().backoff_ms(0, 0);
        assert_eq!((p.base_backoff_ms, p.max_backoff_ms), (1, 1));
        let p = RetryPolicy::new().max_retries(5).deadline_ms(250).seed(9);
        assert_eq!(p.max_retries, 5);
        assert_eq!(p.deadline_ms, Some(250));
        assert_eq!(p.seed, 9);
    }

    #[test]
    fn same_seed_clients_back_off_identically() {
        let policy = RetryPolicy::new().backoff_ms(10, 200).seed(42);
        let mut a = Client::new("127.0.0.1:1", policy.clone());
        let mut b = Client::new("127.0.0.1:1", policy);
        for attempt in 1..=8 {
            let delay = a.backoff(attempt);
            assert_eq!(delay, b.backoff(attempt), "attempt {attempt}");
            // ±50% jitter around the capped exponential.
            let capped = (10u64 << (attempt - 1)).min(200);
            let ms = delay.as_millis() as u64;
            assert!(
                ms >= capped / 2 && ms <= capped * 3 / 2,
                "attempt {attempt}: {ms} ms outside the jitter band of {capped} ms"
            );
        }
    }
}
