//! Shared set-up: the corpus, the token encoder, a meta-trained θ reloaded
//! through its checkpoint, and the serving daemon on a loopback listener —
//! all with the conventions `fewner serve` uses (`fewner::cli`).

use std::net::{SocketAddr, TcpListener};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use fewner::cli;
use fewner_core::{CachePolicy, Checkpoint, Fewner, ServeOptions, TrainConfig, Trainer};
use fewner_corpus::{DatasetProfile, TypeSplit};
use fewner_models::TokenEncoder;
use fewner_obs::Tracer;
use fewner_serve::{Client, Server, ServerConfig};
use fewner_tensor::ParamStore;
use fewner_util::{Error, Result};

/// Corpus scale: the CLI default.
pub const SCALE: f64 = 0.05;
/// Seed of the dataset's type split: the CLI default. The split defines
/// which entity types are "unseen"; it stays fixed so that the workload
/// seed varies the traffic and the training draws, not the dataset.
pub const SPLIT_SEED: u64 = 42;
/// Ways of every task (the CLI default).
pub const WAYS: usize = 5;
/// Meta-iterations that train the served θ during set-up.
pub const THETA_ITERATIONS: usize = 30;
/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;
/// `fewner serve` defaults: worker threads, admission queue, micro-batch
/// sentence cap and φ-cache capacity.
pub const WORKERS: usize = 2;
pub const QUEUE_LIMIT: usize = 64;
pub const BATCH: usize = 32;
pub const CACHE_CAPACITY: usize = 64;
/// The tenant name every benchmark request carries (tasks are the keys).
pub const TENANT: &str = "bench";

/// The GENIA corpus, its type split and the CLI token encoder.
pub struct Corpus {
    pub split: TypeSplit,
    pub enc: TokenEncoder,
    /// Seconds spent generating the corpus.
    pub generate_s: f64,
}

impl Corpus {
    pub fn build() -> Result<Corpus> {
        let profile = DatasetProfile::genia();
        let t0 = Instant::now();
        let data = profile.generate(SCALE)?;
        let generate_s = t0.elapsed().as_secs_f64();
        let split = cli::split_for(&profile, &data, SPLIT_SEED)?;
        let enc = cli::build_encoder(&data);
        Ok(Corpus {
            split,
            enc,
            generate_s,
        })
    }
}

/// FNV-1a digest of every θ parameter's name and f32 bits, in store order.
pub fn theta_digest(theta: &ParamStore) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for (name, value) in theta.iter() {
        eat(name.as_bytes());
        for x in value.data() {
            eat(&x.to_bits().to_le_bytes());
        }
    }
    h
}

/// Meta-trains θ on the training types with `threads` workers, saves the
/// checkpoint to `path` and returns the learner reloaded from it.
pub fn train_theta(corpus: &Corpus, seed: u64, threads: usize, path: &Path) -> Result<Fewner> {
    let meta = cli::meta();
    let mut learner = Fewner::new(cli::backbone(WAYS), &corpus.enc, meta.clone())?;
    let schedule = TrainConfig::new(WAYS, 1)
        .iterations(THETA_ITERATIONS)
        .query_size(6)
        .seed(seed)
        .threads(threads);
    Trainer::new().train(
        &mut learner,
        &corpus.split.train,
        &corpus.enc,
        &meta,
        &schedule,
    )?;
    Checkpoint::capture(&learner).save(path)?;
    restore(corpus, path)
}

/// Loads a learner from a checkpoint file.
pub fn restore(corpus: &Corpus, path: &Path) -> Result<Fewner> {
    Checkpoint::load(path)?.restore(&corpus.enc)
}

/// A `fewner_serve::Server` running on its own thread.
pub struct Daemon {
    server: Arc<Server>,
    pub addr: SocketAddr,
    handle: Option<JoinHandle<Result<()>>>,
}

impl Daemon {
    /// Starts a server with the `fewner serve` defaults around `learner`.
    pub fn start(
        learner: Fewner,
        enc: TokenEncoder,
        tracer: Tracer,
        policy: CachePolicy,
    ) -> Result<Daemon> {
        let opts = ServeOptions::new()
            .tracer(tracer)
            .cache(policy)
            .batch(BATCH);
        let cfg = ServerConfig::new()
            .workers(WORKERS)
            .queue_limit(QUEUE_LIMIT);
        let server = Arc::new(Server::new(learner, enc, opts, cfg)?);
        let io = |e: std::io::Error| Error::Io {
            path: "127.0.0.1:0".into(),
            detail: e.to_string(),
        };
        let listener = TcpListener::bind("127.0.0.1:0").map_err(io)?;
        let addr = listener.local_addr().map_err(io)?;
        let running = Arc::clone(&server);
        let handle = std::thread::spawn(move || running.run(listener));
        Ok(Daemon {
            server,
            addr,
            handle: Some(handle),
        })
    }

    /// A connected client with a bounded I/O timeout.
    pub fn client(&self) -> Result<Client> {
        let mut client = Client::connect(self.addr)?;
        client.set_io_timeout(Some(Duration::from_secs(30)))?;
        Ok(client)
    }

    /// The server's `stats` counters.
    pub fn stats(&self) -> Result<Vec<(String, u64)>> {
        self.client()?.stats()
    }

    /// One counter from a `stats` snapshot (0 when absent).
    pub fn counter(stats: &[(String, u64)], name: &str) -> u64 {
        stats.iter().find(|(n, _)| n == name).map_or(0, |(_, v)| *v)
    }

    /// Shuts the server down and waits for every server thread to end.
    pub fn stop(mut self) -> Result<()> {
        self.shutdown()
    }

    fn shutdown(&mut self) -> Result<()> {
        let Some(handle) = self.handle.take() else {
            return Ok(());
        };
        self.server.begin_shutdown();
        handle.join().map_err(|_| Error::WorkerPanic {
            context: "server thread".into(),
        })?
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.shutdown().ok();
    }
}

/// A serving set-up, repeated [`SETUP_REPS`] times; the last repetition's
/// daemon serves the workload.
pub struct ServeSetup {
    pub corpus: Corpus,
    pub daemon: Daemon,
    /// The checkpoint the daemon's θ was reloaded from.
    pub checkpoint: PathBuf,
    /// Wall-clock seconds of each repetition.
    pub setup_s: Vec<f64>,
    /// θ digest of each repetition (all equal when training is
    /// deterministic).
    pub digests: Vec<u64>,
}

/// Runs the serving set-up: corpus, encoder, θ training, checkpoint reload,
/// server start, then `warm_up` against the fresh daemon. `policy` gives
/// each repetition its cache policy (e.g. its own persistence directory).
pub fn serve_setup(
    args: &crate::Args,
    tracer: &Tracer,
    policy: impl Fn(usize) -> CachePolicy,
    warm_up: impl Fn(&Daemon) -> Result<()>,
) -> Result<ServeSetup> {
    let mut setup_s = Vec::new();
    let mut digests = Vec::new();
    let mut last = None;
    for rep in 0..SETUP_REPS {
        // The previous repetition's daemon stops before this one starts.
        drop(last.take());
        let t0 = Instant::now();
        let corpus = Corpus::build()?;
        let checkpoint = args.dir.join(format!("theta-{rep}.ckpt"));
        let learner = train_theta(&corpus, args.seed, args.nproc, &checkpoint)?;
        digests.push(theta_digest(&learner.theta));
        let daemon = Daemon::start(learner, corpus.enc.clone(), tracer.clone(), policy(rep))?;
        warm_up(&daemon)?;
        setup_s.push(t0.elapsed().as_secs_f64());
        last = Some(ServeSetup {
            corpus,
            daemon,
            checkpoint,
            setup_s: Vec::new(),
            digests: Vec::new(),
        });
    }
    let mut setup = last.expect("SETUP_REPS > 0");
    setup.setup_s = setup_s;
    setup.digests = digests;
    Ok(setup)
}

/// Flags set-up repetitions whose θ digests disagree.
pub fn check_digests(report: &mut crate::report::Report, digests: &[u64], what: &str) {
    if digests.windows(2).any(|w| w[0] != w[1]) {
        report.problem(format!(
            "{what}: θ digests differ across repetitions: {digests:x?}"
        ));
    } else {
        println!(
            "  θ digest {:016x}, identical across {} {what}",
            digests[0],
            digests.len()
        );
    }
}

/// Flags a θ trained with one thread that differs from the threaded one.
pub fn check_serial_digest(
    report: &mut crate::report::Report,
    serial: u64,
    threaded: u64,
    threads: usize,
) {
    if serial != threaded {
        report.problem(format!(
            "θ trained with 1 thread ({serial:016x}) differs from {threads} threads ({threaded:016x})"
        ));
    } else {
        println!("  θ digest {serial:016x}, identical with 1 and {threads} training threads");
    }
}
