//! The load generator: tenants, request schedules, and the open- and
//! closed-loop connection threads.
//!
//! Each connection is one synchronous NDJSON client on its own thread. In
//! the open loop a request is due at a fixed offset from the phase start
//! and is sent as soon as it is due and the connection is free; its latency
//! runs from the due time, so a stall also charges the requests queued
//! behind it, and `late` records how far behind schedule the sender was.
//! In the closed loop each connection sends back to back.

use std::sync::Barrier;
use std::time::{Duration, Instant};

use fewner_episode::EpisodeSentence;
use fewner_eval::F1Counts;
use fewner_serve::{Client, SupportSentence};
use fewner_util::{Error, Result};

use crate::check;
use crate::setup::{Daemon, TENANT};

/// One tenant: a 5-way task with its support set, later support waves, and
/// the labelled query pool its predictions are drawn from.
#[derive(Debug, Clone)]
pub struct Tenant {
    /// The task key on the wire.
    pub name: String,
    pub ways: usize,
    pub support: Vec<SupportSentence>,
    pub waves: Vec<Vec<SupportSentence>>,
    pub pool: Vec<EpisodeSentence>,
}

/// The wire form of a labelled sentence.
pub fn wire(s: &EpisodeSentence) -> SupportSentence {
    SupportSentence {
        tokens: s.tokens.clone(),
        tags: s.tags.clone(),
    }
}

/// What a request is, for latency accounting and its latency limit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A predict for a resident tenant.
    Warm,
    /// A new tenant's first predict, carrying its support set inline.
    Cold,
    /// An `extend` with a new support wave.
    Extend,
    /// A predict for an earlier tenant, likely evicted from the φ-cache.
    Return,
}

impl Kind {
    /// The fixed latency limit of this kind of request, in ms.
    pub fn limit_ms(self) -> f64 {
        match self {
            Kind::Warm => 250.0,
            Kind::Return => 500.0,
            Kind::Cold | Kind::Extend => 1000.0,
        }
    }

    pub const ALL: [Kind; 4] = [Kind::Warm, Kind::Cold, Kind::Extend, Kind::Return];

    pub fn name(self) -> &'static str {
        match self {
            Kind::Warm => "warm predict",
            Kind::Cold => "cold predict",
            Kind::Extend => "extend",
            Kind::Return => "returning predict",
        }
    }
}

/// One scheduled request.
#[derive(Debug, Clone)]
pub struct Req {
    /// Seconds after the phase start at which the request is due (ignored
    /// in the closed loop).
    pub due: f64,
    /// Index into the tenant table.
    pub tenant: usize,
    pub kind: Kind,
    /// Query-pool indices for a predict; the wave index for an extend.
    pub sents: Vec<usize>,
    pub wave: usize,
    /// Whether a closed-loop connection may stop before this request (the
    /// start of a unit of work).
    pub unit_start: bool,
    /// Whether the served tags are kept for the in-process replay check.
    pub keep: bool,
}

/// A request's result.
#[derive(Debug, Clone)]
pub enum Outcome {
    Tags(Vec<Vec<String>>),
    Extended { revision: u32, source: String },
    Shed,
    DeadlineMissed,
    Failed(String),
}

impl Outcome {
    pub fn ok(&self) -> bool {
        matches!(self, Outcome::Tags(_) | Outcome::Extended { .. })
    }
}

/// One completed request with its timestamps (seconds after phase start).
#[derive(Debug, Clone)]
pub struct Done {
    pub req: Req,
    pub sent: f64,
    pub done: f64,
    pub outcome: Outcome,
    /// Query tokens carried by a predict.
    pub tokens: usize,
}

impl Done {
    /// Latency from the due time (open loop) in ms.
    pub fn latency_ms(&self) -> f64 {
        (self.done - self.req.due) * 1e3
    }

    /// Round trip from send to reply in ms.
    pub fn service_ms(&self) -> f64 {
        (self.done - self.sent) * 1e3
    }

    /// How late the generator sent this request, in ms.
    pub fn late_ms(&self) -> f64 {
        ((self.sent - self.req.due) * 1e3).max(0.0)
    }
}

/// Requests of `dones` answered within their kind's latency limit.
pub fn slo_met(dones: &[Done]) -> usize {
    dones
        .iter()
        .filter(|d| d.outcome.ok() && d.latency_ms() <= d.req.kind.limit_ms())
        .count()
}

fn send(client: &mut Client, tenants: &[Tenant], req: &Req) -> (Outcome, usize) {
    let t = &tenants[req.tenant];
    let result = match req.kind {
        Kind::Extend => client
            .extend(TENANT, &t.name, t.ways, t.waves[req.wave].clone())
            .map(|(revision, source)| Outcome::Extended { revision, source }),
        kind => {
            let sentences: Vec<Vec<String>> = req
                .sents
                .iter()
                .map(|&i| t.pool[i].tokens.clone())
                .collect();
            let tokens = sentences.iter().map(Vec::len).sum();
            let result = if kind == Kind::Cold {
                client.predict_with_support(TENANT, &t.name, &sentences, t.ways, t.support.clone())
            } else {
                client.predict(TENANT, &t.name, &sentences)
            };
            return (classify(result.map(Outcome::Tags)), tokens);
        }
    };
    (classify(result), 0)
}

fn classify(result: Result<Outcome>) -> Outcome {
    match result {
        Ok(outcome) => outcome,
        Err(Error::Overloaded { .. }) => Outcome::Shed,
        Err(Error::DeadlineExceeded { .. }) => Outcome::DeadlineMissed,
        Err(e) => Outcome::Failed(e.to_string()),
    }
}

/// How a phase paces its requests.
#[derive(Debug, Clone, Copy)]
pub enum Mode {
    /// Each request is sent at its due time.
    Open,
    /// Back to back until `seconds` have passed (checked before each unit
    /// start); `repeat` cycles a connection's list when it runs out.
    Closed { seconds: f64, repeat: bool },
}

/// One phase's completed requests, wall-clock seconds, the entity F1 of
/// its answered predicts against gold, and failed output checks.
pub struct Phase {
    pub dones: Vec<Done>,
    pub wall: f64,
    pub f1: F1Counts,
    pub problems: Vec<String>,
}

/// Checks an answer as it arrives: predicted tags must parse with one tag
/// per token (scored against gold), and any error other than shedding or a
/// missed deadline is a failure. Served tags are then dropped unless the
/// request is kept for the in-process replay.
fn inspect(t: &Tenant, req: &Req, outcome: &mut Outcome, f1: &mut F1Counts) -> Option<String> {
    let problem = match outcome {
        Outcome::Tags(served) => {
            let gold: Vec<&EpisodeSentence> = req.sents.iter().map(|&i| &t.pool[i]).collect();
            let lengths: Vec<usize> = gold.iter().map(|s| s.tokens.len()).collect();
            match check::parse_tags(served, &lengths, t.ways) {
                Ok(pred) => {
                    for (g, p) in gold.iter().zip(&pred) {
                        f1.add_tags(&g.tags, p);
                    }
                    None
                }
                Err(e) => Some(format!("tenant {}: {e}", t.name)),
            }
        }
        Outcome::Failed(e) => Some(format!("tenant {} {}: {e}", t.name, req.kind.name())),
        _ => None,
    };
    if let (Outcome::Tags(served), false) = (outcome, req.keep) {
        *served = Vec::new();
    }
    problem
}

/// Runs one phase: a thread per connection, all starting together.
pub fn run_phase(
    daemon: &Daemon,
    tenants: &[Tenant],
    conns: &[Vec<Req>],
    mode: Mode,
) -> Result<Phase> {
    let clients = conns
        .iter()
        .map(|_| daemon.client())
        .collect::<Result<Vec<Client>>>()?;
    let barrier = Barrier::new(conns.len() + 1);
    let (per_conn, wall) = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .into_iter()
            .zip(conns)
            .map(|(mut client, reqs)| {
                let barrier = &barrier;
                s.spawn(move || {
                    let mut out = Vec::with_capacity(reqs.len());
                    let mut f1 = F1Counts::default();
                    let mut problems = Vec::new();
                    let repeat = matches!(mode, Mode::Closed { repeat: true, .. });
                    let mut schedule =
                        reqs.iter()
                            .cycle()
                            .take(if repeat { usize::MAX } else { reqs.len() });
                    barrier.wait();
                    let start = Instant::now();
                    for req in &mut schedule {
                        let now = start.elapsed().as_secs_f64();
                        match mode {
                            Mode::Closed { seconds, .. } if req.unit_start && now >= seconds => {
                                break
                            }
                            Mode::Closed { .. } => {}
                            Mode::Open => {
                                if req.due > now {
                                    std::thread::sleep(Duration::from_secs_f64(req.due - now));
                                }
                            }
                        }
                        let sent = start.elapsed().as_secs_f64();
                        let (mut outcome, tokens) = send(&mut client, tenants, req);
                        let done = start.elapsed().as_secs_f64();
                        let t = &tenants[req.tenant];
                        problems.extend(inspect(t, req, &mut outcome, &mut f1));
                        let mut req = req.clone();
                        if let Mode::Closed { .. } = mode {
                            req.due = sent;
                        }
                        out.push(Done {
                            req,
                            sent,
                            done,
                            outcome,
                            tokens,
                        });
                    }
                    (out, f1, problems)
                })
            })
            .collect();
        barrier.wait();
        let t0 = Instant::now();
        let per_conn: Vec<_> = handles
            .into_iter()
            .map(|h| {
                h.join().unwrap_or_else(|_| {
                    (
                        Vec::new(),
                        F1Counts::default(),
                        vec!["load generator thread panicked".into()],
                    )
                })
            })
            .collect();
        (per_conn, t0.elapsed().as_secs_f64())
    });
    let mut phase = Phase {
        dones: Vec::new(),
        wall,
        f1: F1Counts::default(),
        problems: Vec::new(),
    };
    for (dones, f1, problems) in per_conn {
        phase.dones.extend(dones);
        phase.f1.merge(&f1);
        phase.problems.extend(problems);
    }
    Ok(phase)
}

/// Sent / ok / shed / deadline-missed / failed counts of one phase.
#[derive(Debug, Default, Clone, Copy)]
pub struct Counts {
    pub sent: u64,
    pub ok: u64,
    pub shed: u64,
    pub deadline_missed: u64,
    pub failed: u64,
}

impl Counts {
    pub fn of(dones: &[Done]) -> Counts {
        let mut c = Counts::default();
        for d in dones {
            c.sent += 1;
            match d.outcome {
                Outcome::Tags(_) | Outcome::Extended { .. } => c.ok += 1,
                Outcome::Shed => c.shed += 1,
                Outcome::DeadlineMissed => c.deadline_missed += 1,
                Outcome::Failed(_) => c.failed += 1,
            }
        }
        c
    }

    pub fn not_ok(&self) -> u64 {
        self.sent - self.ok
    }

    pub fn print(&self, phase: &str) {
        println!(
            "  {phase:<12} sent {} ok {} shed {} deadline-missed {} failed {}",
            self.sent, self.ok, self.shed, self.deadline_missed, self.failed
        );
    }
}

/// Zipf(s) weights over `n` ranks.
pub fn zipf_weights(n: usize, s: f64) -> Vec<f64> {
    (1..=n).map(|k| 1.0 / (k as f64).powf(s)).collect()
}

/// Exponential inter-arrival gap (Poisson arrivals at `rate` per second).
pub fn exp_gap(rng: &mut fewner_util::Rng, rate: f64) -> f64 {
    -(1.0 - rng.f64()).ln() / rate
}
