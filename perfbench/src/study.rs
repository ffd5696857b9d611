//! The end-to-end run: set-up, then whole-study passes through the
//! public API for the measuring time, every pass gated. The runner's
//! flight recorder is off, as it is by default.
//!
//! A traced pass ([`Hooks::spans`]) turns the recorder on and reads
//! chunk latency from the runner's own `chunk_classify` spans (tagged
//! with the chunk `seq`), which end when a worker has classified the
//! chunk and built its breakdown and detect payload. A chunk's due time
//! is the producer's pacing schedule on `live_tap`; on the closed-loop
//! workloads the whole capture is there when the study starts, so every
//! chunk is due at the first read.

use crate::gate::{self, Reference, METHOD, ORG};
use crate::inputs::{Inputs, CHUNK_RECORDS};
use crate::stats;
use crate::wire::{producer_side, Meter, MeteredEndpoint, ProducerLog};
use crate::{Metrics, Outcome, Request, END_TO_END};
use spoofwatch_core::detect::DetectConfig;
use spoofwatch_core::{
    serve_live_with, serve_shard, CheckpointStore, ChunkSource, Classifier, LiveServerConfig,
    LiveSession, RollupConfig, RunReport, RunnerConfig, RunnerError, RunnerObs, ShardConfig,
    ShardCoordinator, ShardPlan, ShardWorkerConfig, StudyRunner, LIVE_WIRE_MAGIC, SHARD_WIRE_MAGIC,
};
use spoofwatch_ixp::chunked::{ChunkedIpfixReader, FlowChunk};
use spoofwatch_ixp::live::{run_live_producer, LiveProducerConfig, LiveScenario};
use spoofwatch_net::{FlowRecord, ShardTransport, TrafficClass, UdsEndpoint};
use spoofwatch_obs::{Clock, EventKind, FieldValue, MetricsRegistry, RealClock, Tracer};
use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::thread::{self, ThreadId};
use std::time::{Duration, Instant};

/// Committed chunks per rollup window.
pub const WINDOW_CHUNKS: u64 = 8;
/// Shards in `month_sharded`.
pub const SHARDS: u32 = 2;
/// Partition salt in `month_sharded` (the sharded example's).
pub const SHARD_SALT: u64 = 0x1417;
/// Offered rate of the `live_tap` producer.
pub const LIVE_RECORDS_PER_S: u32 = 1_000_000;
/// Chunks per `live_tap` burst.
pub const LIVE_BURST_CHUNKS: u32 = 8;
/// Measuring segments per run. Each segment builds the classifier
/// afresh and measures a share of the run's time with it. How fast the
/// study runs drifts with the host over tens of seconds and differs
/// between builds (on a 2-vCPU guest, six builds in one process ran
/// `month_file` at 2.70 to 3.10 M records/s), so a run spreads its
/// passes over three builds and, with the builds in between, over a
/// longer stretch of time. The builds are also `setup_s`'s samples.
pub const SEGMENTS: usize = 3;
/// Each segment builds until this much wall time has gone into its
/// builds (or [`SEGMENT_MAX_BUILDS`]): one paper-scale build (4–7 s on
/// a 2-core host), several of a sub-second set-up for a steady median.
const SEGMENT_BUILD_BUDGET_S: f64 = 2.0;
/// Upper limit on classifier builds per segment.
const SEGMENT_MAX_BUILDS: usize = 8;
/// Timed passes per segment at least, however short the measuring time.
pub const MIN_PASSES: usize = 3;
/// Flight-recorder capacity of a traced pass: two events per chunk of
/// a pass with room to spare, so no span of a pass is evicted.
const TRACER_CAPACITY: usize = 1 << 17;

/// Everything a pass needs that is built before timing starts.
pub struct Setup {
    /// The classifier every pass uses.
    pub classifier: Classifier,
    /// Each `Classifier::build`.
    pub builds: Vec<Timed>,
    /// What passes are checked against.
    pub reference: Reference,
    /// Chunks in the capture.
    pub total_chunks: u64,
    /// The live producer's scenario (`live_tap` only).
    pub scenario: Option<LiveScenario>,
}

/// The cost of one call, in seconds.
#[derive(Debug, Clone, Copy)]
pub struct Timed {
    /// CPU time of all threads of the process over the call.
    pub cpu_s: f64,
    /// Wall time of the call.
    pub wall_s: f64,
}

impl Timed {
    /// Run `f` and time it.
    pub fn call<T>(f: impl FnOnce() -> T) -> (T, Timed) {
        let (wall, cpu) = (Instant::now(), crate::process_cpu_ns());
        let value = f();
        let cpu_s = (crate::process_cpu_ns() - cpu) as f64 / 1e9;
        let wall_s = wall.elapsed().as_secs_f64();
        (value, Timed { cpu_s, wall_s })
    }
}

/// `(start, end, records)` of every timed classify call, pass clock.
pub type CallLog = Mutex<Vec<(u64, u64, u64)>>;

/// The pass clock of a traced pass: real time, plus the thread that
/// took each reading, so a span's begin time names the worker that
/// opened it.
#[derive(Default)]
pub struct ThreadClock {
    inner: RealClock,
    readers: Mutex<HashMap<u64, ThreadId>>,
}

impl ThreadClock {
    /// Distinct threads that read any of `times`.
    pub fn threads_at(&self, times: impl Iterator<Item = u64>) -> usize {
        let readers = self.readers.lock().expect("clock reader log poisoned");
        times
            .filter_map(|t| readers.get(&t))
            .collect::<HashSet<_>>()
            .len()
    }
}

impl Clock for ThreadClock {
    fn now_ns(&self) -> u64 {
        let t = self.inner.now_ns();
        self.readers
            .lock()
            .expect("clock reader log poisoned")
            .insert(t, thread::current().id());
        t
    }

    fn sleep(&self, d: Duration) {
        self.inner.sleep(d);
    }
}

/// Benchmark-side hooks at the program's public seams, and the pace of
/// a live pass. All off in the end-to-end run's default pass.
#[derive(Default)]
pub struct Hooks {
    /// Turn the runner's flight recorder on and keep its
    /// `chunk_classify` spans, timed on this clock.
    pub spans: Option<Arc<ThreadClock>>,
    /// Run the live producer at line rate (credit-bound) instead of the
    /// workload's pace (`live_tap`).
    pub line_rate: bool,
    /// Time every `next_chunk` call of a file-mode source.
    pub feed: bool,
    /// Time every call of the classify function the runner is given
    /// (`month_file`, `live_tap`).
    pub classify: Option<Arc<CallLog>>,
    /// Meter the shard and live links.
    pub wire: Option<Meter>,
    /// Record the live producer's send times.
    pub producer_sends: bool,
}

/// One whole-study pass.
pub struct Pass {
    /// Records the study processed.
    pub processed: u64,
    /// Wall time of the study, ns.
    pub wall_ns: u64,
    /// Per-chunk latency samples, ns (traced passes).
    pub latencies_ns: Vec<u64>,
    /// `(begin, end)` of every worker `chunk_classify` span, pass clock
    /// (traced passes).
    pub worker_spans: Vec<(u64, u64)>,
    /// Distinct threads that opened a `chunk_classify` span (traced
    /// passes).
    pub workers_seen: usize,
    /// `(call start, call end)` of every `next_chunk`, pass clock.
    pub feed_calls: Vec<(u64, u64)>,
    /// First read (or session start) on the pass clock.
    pub start_ns: u64,
    /// The live session block (`live_tap`).
    pub session: Option<LiveSession>,
    /// Producer send times and pacing origin (`live_tap`).
    pub producer: Option<Arc<ProducerLog>>,
    /// The pass's checkpoint store directory.
    pub ckpt_dir: PathBuf,
    /// The pass's rollup ring directory.
    pub ring_dir: PathBuf,
}

/// Build the classifier until [`SEGMENT_BUILD_BUDGET_S`] of wall time
/// has gone into builds (at least once, at most [`SEGMENT_MAX_BUILDS`]
/// times) and keep the last one.
fn build_classifier(inputs: &Inputs) -> (Classifier, Vec<Timed>) {
    let mut builds: Vec<Timed> = Vec::new();
    let mut built = None;
    while builds.is_empty()
        || (builds.iter().map(|b| b.wall_s).sum::<f64>() < SEGMENT_BUILD_BUDGET_S
            && builds.len() < SEGMENT_MAX_BUILDS)
    {
        drop(built.take());
        let (c, timed) =
            Timed::call(|| Classifier::build(&inputs.net.announcements, &inputs.net.orgs_dataset));
        builds.push(timed);
        built = Some(c);
    }
    (built.expect("at least one build"), builds)
}

/// Build the classifier (see [`build_classifier`]) and compute the
/// reference.
pub fn setup(workload: &str, inputs: &Inputs, work_dir: &Path) -> Result<Setup, String> {
    let (classifier, builds) = build_classifier(inputs);
    finish_setup(workload, inputs, work_dir, classifier, builds)
}

/// Replace the set-up's classifier with a fresh build (see
/// [`build_classifier`]) and add the builds to the set-up's.
fn rebuild(setup: &mut Setup, inputs: &Inputs) {
    let (classifier, builds) = build_classifier(inputs);
    setup.classifier = classifier;
    setup.builds.extend(builds);
}

/// The rest of set-up once the classifier is built.
pub fn finish_setup(
    workload: &str,
    inputs: &Inputs,
    work_dir: &Path,
    classifier: Classifier,
    builds: Vec<Timed>,
) -> Result<Setup, String> {
    let mut reference = Reference::batch(&classifier, inputs);
    let ref_dir = work_dir.join("reference");
    match workload {
        "live_tap" => {
            let runner = StudyRunner::new(&classifier, RunnerConfig::default());
            reference = reference.with_run(&runner, inputs, &ref_dir)?;
        }
        "dirty_resume" => {
            let runner = StudyRunner::new(&classifier, dirty_config())
                .with_rollups(RollupConfig::new(ref_dir.join("ring"), WINDOW_CHUNKS));
            reference = reference.with_run(&runner, inputs, &ref_dir.join("ckpt"))?;
        }
        _ => {}
    }
    let _ = std::fs::remove_dir_all(&ref_dir);
    let mut reader = ChunkedIpfixReader::new(&inputs.bytes, CHUNK_RECORDS);
    let total_chunks = std::iter::from_fn(|| reader.next_chunk()).count() as u64;
    let scenario = (workload == "live_tap")
        .then(|| LiveScenario::from_ipfix(inputs.bytes.clone(), CHUNK_RECORDS));
    Ok(Setup {
        classifier,
        builds,
        reference,
        total_chunks,
        scenario,
    })
}

/// `dirty_resume`'s runner policy.
pub fn dirty_config() -> RunnerConfig {
    RunnerConfig {
        checkpoint_every: 1,
        track_disagreement: true,
        ..RunnerConfig::default()
    }
}

/// The runner's flight recorder during a traced pass, and the clock
/// its spans are timed on.
struct Recorder {
    tracer: Arc<Tracer>,
    clock: Arc<ThreadClock>,
}

/// The pass clock and the runner's observability bundle: disabled, as
/// by default, or with the recorder on when `hooks.spans` asks for it
/// (metrics stay disabled either way).
fn pass_obs(hooks: &Hooks) -> (Arc<dyn Clock>, Option<Recorder>, RunnerObs) {
    let Some(thread_clock) = &hooks.spans else {
        let clock: Arc<dyn Clock> = Arc::new(RealClock::new());
        return (clock, None, RunnerObs::disabled());
    };
    let clock: Arc<dyn Clock> = Arc::clone(thread_clock) as Arc<dyn Clock>;
    let tracer = Tracer::new(TRACER_CAPACITY, Arc::clone(&clock));
    let obs = RunnerObs::new(MetricsRegistry::disabled(), Arc::clone(&tracer))
        .with_clock(Arc::clone(&clock));
    let recorder = Recorder {
        tracer,
        clock: Arc::clone(thread_clock),
    };
    (clock, Some(recorder), obs)
}

/// A file-mode source that notes its first read and, when asked, the
/// span of every `next_chunk` call.
struct Fed<'a> {
    inner: ChunkedIpfixReader<'a>,
    clock: &'a dyn Clock,
    first_ns: Option<u64>,
    calls: Option<Vec<(u64, u64)>>,
}

impl<'a> Fed<'a> {
    fn new(bytes: &'a [u8], clock: &'a dyn Clock, timed: bool) -> Fed<'a> {
        Fed {
            inner: ChunkedIpfixReader::new(bytes, CHUNK_RECORDS),
            clock,
            first_ns: None,
            calls: timed.then(Vec::new),
        }
    }
}

impl ChunkSource for Fed<'_> {
    fn fingerprint(&self) -> u64 {
        self.inner.fingerprint()
    }

    fn seek(&mut self, byte_cursor: u64, seq: u64) {
        self.inner.seek(byte_cursor, seq);
    }

    fn next_chunk(&mut self) -> Option<FlowChunk> {
        let t0 = self.clock.now_ns();
        self.first_ns.get_or_insert(t0);
        let chunk = self.inner.next_chunk();
        if let Some(calls) = &mut self.calls {
            calls.push((t0, self.clock.now_ns()));
        }
        chunk
    }
}

/// The classify function `StudyRunner::run` and `serve_live` use,
/// with an optional span around each call.
fn classify_fn<'a>(
    classifier: &'a Classifier,
    clock: &'a dyn Clock,
    log: Option<&'a CallLog>,
) -> impl Fn(&[FlowRecord]) -> Vec<TrafficClass> + Sync + 'a {
    move |flows: &[FlowRecord]| {
        let Some(log) = log else {
            return classifier.classify_records_batched(flows, METHOD, ORG);
        };
        let t0 = clock.now_ns();
        let classes = classifier.classify_records_batched(flows, METHOD, ORG);
        let t1 = clock.now_ns();
        log.lock()
            .expect("classify span log poisoned")
            .push((t0, t1, flows.len() as u64));
        classes
    }
}

/// The most threads that opened a `chunk_classify` span within one run
/// of the study. `starts` holds the first read of each run in time
/// order: an interrupted and resumed study starts its workers afresh.
fn workers_seen(recorder: Option<&Recorder>, spans: &[(u64, u64, u64)], starts: &[u64]) -> usize {
    let Some(recorder) = recorder else {
        return 0;
    };
    let run_of = |begin: u64| starts.iter().filter(|&&s| s <= begin).count();
    (0..=starts.len())
        .map(|run| {
            let begins = spans.iter().map(|&(_, b, _)| b);
            recorder
                .clock
                .threads_at(begins.filter(|&b| run_of(b) == run))
        })
        .max()
        .unwrap_or(0)
}

/// Every completed `chunk_classify` span, `(seq, begin, end)`; none for
/// an untraced pass.
fn classify_spans(recorder: Option<&Recorder>) -> Result<Vec<(u64, u64, u64)>, String> {
    let Some(recorder) = recorder else {
        return Ok(Vec::new());
    };
    let (events, dropped) = recorder.tracer.events();
    if dropped > 0 {
        return Err(format!("flight recorder evicted {dropped} events"));
    }
    let mut open: HashMap<u64, (u64, u64)> = HashMap::new();
    let mut spans = Vec::new();
    for e in events.iter().filter(|e| e.name == "chunk_classify") {
        match e.kind {
            EventKind::SpanBegin => {
                let seq = e.fields.iter().find_map(|(k, v)| match (k.as_str(), v) {
                    ("seq", FieldValue::U64(s)) => Some(*s),
                    _ => None,
                });
                let seq = seq.ok_or("chunk_classify span without a seq")?;
                open.insert(e.span_id, (seq, e.ts_ns));
            }
            EventKind::SpanEnd => {
                let (seq, begin) = open
                    .remove(&e.span_id)
                    .ok_or("chunk_classify span ended before it began")?;
                spans.push((seq, begin, e.ts_ns));
            }
            EventKind::Event => {}
        }
    }
    if !open.is_empty() {
        return Err(format!("{} chunk_classify spans never ended", open.len()));
    }
    Ok(spans)
}

fn pass_dirs(dir: &Path) -> Result<(PathBuf, PathBuf, CheckpointStore), String> {
    let ckpt = dir.join("ckpt");
    let store = CheckpointStore::open(&ckpt).map_err(|e| format!("open store: {e}"))?;
    Ok((ckpt, dir.join("ring"), store))
}

/// Closed-loop pass result from the runner's spans. `starts` holds the
/// first read of each run of the study in time order (two for an
/// interrupted-and-resumed study): a chunk is due when the run that
/// classifies it starts reading.
fn closed_loop_pass(
    processed: u64,
    starts: &[u64],
    end_ns: u64,
    recorder: Option<&Recorder>,
    feed_calls: Vec<(u64, u64)>,
    (ckpt_dir, ring_dir): (PathBuf, PathBuf),
) -> Result<Pass, String> {
    let spans = classify_spans(recorder)?;
    gate::ensure(
        recorder.is_none() || !spans.is_empty() || processed == 0,
        || "the runner recorded no chunk_classify spans".to_string(),
    )?;
    let start_ns = starts.first().copied().unwrap_or(end_ns);
    let due = |begin: u64| {
        starts
            .iter()
            .copied()
            .filter(|&s| s <= begin)
            .max()
            .unwrap_or(start_ns)
    };
    Ok(Pass {
        processed,
        wall_ns: end_ns.saturating_sub(start_ns).max(1),
        latencies_ns: spans
            .iter()
            .map(|&(_, b, e)| e.saturating_sub(due(b)))
            .collect(),
        worker_spans: spans.iter().map(|&(_, b, e)| (b, e)).collect(),
        workers_seen: workers_seen(recorder, &spans, starts),
        feed_calls,
        start_ns,
        session: None,
        producer: None,
        ckpt_dir,
        ring_dir,
    })
}

/// `month_file`: the paper's study in file mode. `workers` overrides
/// the runner default (0 = available parallelism); `detect` switches
/// online detection (on in the workload, off for the single-node base
/// of the shard-layer tax).
pub fn month_file(
    setup: &Setup,
    inputs: &Inputs,
    dir: &Path,
    hooks: &Hooks,
    workers: usize,
    detect: bool,
) -> Result<Pass, String> {
    let (ckpt_dir, ring_dir, store) = pass_dirs(dir)?;
    let mut rollup = RollupConfig::new(&ring_dir, WINDOW_CHUNKS);
    rollup.detect = detect.then(DetectConfig::default);
    let (clock, recorder, obs) = pass_obs(hooks);
    let cfg = RunnerConfig {
        workers,
        ..RunnerConfig::default()
    };
    let runner = StudyRunner::new(&setup.classifier, cfg)
        .with_obs(obs)
        .with_rollups(rollup);
    let mut source = Fed::new(&inputs.bytes, clock.as_ref(), hooks.feed);
    let report = match &hooks.classify {
        None => runner.run(&mut source, &store),
        Some(log) => runner.run_with(
            &mut source,
            &store,
            classify_fn(&setup.classifier, clock.as_ref(), Some(log)),
        ),
    }
    .map_err(|e| format!("month_file run: {e}"))?;
    let end = clock.now_ns();

    gate::accounting(&report.health, &report.ingest, inputs)?;
    gate::lossless(&report, &setup.reference)?;
    gate::breakdown(&report.breakdown, &setup.reference)?;
    if detect {
        gate::incidents(&ring_dir, &setup.reference)?;
    }
    let starts: Vec<u64> = source.first_ns.into_iter().collect();
    let feed = source.calls.take().unwrap_or_default();
    closed_loop_pass(
        report.health.records.processed,
        &starts,
        end,
        recorder.as_ref(),
        feed,
        (ckpt_dir, ring_dir),
    )
}

/// `month_sharded`: 2 shard workers over a Unix socket, detection off.
pub fn month_sharded(
    setup: &Setup,
    inputs: &Inputs,
    dir: &Path,
    hooks: &Hooks,
) -> Result<Pass, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let sock = dir.join("shard.sock");
    let uds = UdsEndpoint::bind(&sock, SHARD_WIRE_MAGIC).map_err(|e| format!("bind: {e}"))?;
    let (clock, recorder, obs) = pass_obs(hooks);
    let endpoint: Box<dyn spoofwatch_net::ShardEndpoint> = match &hooks.wire {
        Some(meter) => Box::new(MeteredEndpoint {
            inner: uds,
            meter: meter.clone(),
        }),
        None => Box::new(uds),
    };
    let cfg = ShardConfig::new(ShardPlan::new(SHARDS, SHARD_SALT), CHUNK_RECORDS);
    let worker_errors: Mutex<Vec<String>> = Mutex::new(Vec::new());
    let start = clock.now_ns();
    let result = thread::scope(|s| {
        let spawn = |shard_id: u32| {
            let (sock, obs, errors) = (&sock, obs.clone(), &worker_errors);
            s.spawn(move || {
                let outcome = (|| -> Result<(), String> {
                    let transport = UdsEndpoint::connect(sock, SHARD_WIRE_MAGIC)
                        .map_err(|e| format!("connect: {e}"))?;
                    let transport = match &hooks.wire {
                        Some(meter) => meter.wrap(transport),
                        None => transport,
                    };
                    let mut wcfg = ShardWorkerConfig::new(shard_id, RunnerConfig::default());
                    wcfg.rollup = Some(RollupConfig::new(
                        dir.join(format!("ring{shard_id}")),
                        WINDOW_CHUNKS,
                    ));
                    wcfg.obs = obs;
                    let store = CheckpointStore::open(dir.join(format!("ckpt{shard_id}")))
                        .map_err(|e| format!("open shard store: {e}"))?;
                    serve_shard(&setup.classifier, &wcfg, &store, transport)
                        .map_err(|e| format!("shard {shard_id}: {e}"))
                })();
                if let Err(e) = outcome {
                    errors.lock().expect("worker error log poisoned").push(e);
                }
            });
        };
        ShardCoordinator::new(&inputs.bytes, cfg).run(endpoint.as_ref(), &spawn)
    });
    let end = clock.now_ns();
    let report = result.map_err(|e| format!("month_sharded run: {e}"))?;
    let errors = worker_errors
        .into_inner()
        .expect("worker error log poisoned");
    gate::ensure(errors.is_empty(), || {
        format!("shard workers failed: {errors:?}")
    })?;
    gate::ensure(report.reconciles() && !report.degraded(), || {
        format!(
            "sharded study degraded or unreconciled: {:?}",
            report.records
        )
    })?;
    gate::ensure(report.ingest.reconciles(), || {
        "ingest bytes do not reconcile".to_string()
    })?;
    gate::ensure(
        report.ingest.input_bytes == inputs.bytes.len() as u64,
        || "ingest does not cover the capture".to_string(),
    )?;
    gate::ensure(
        report.records.processed == setup.reference.decoded_records
            && report.records.offered == report.records.processed,
        || format!("sharded accounting {:?}", report.records),
    )?;
    gate::breakdown(&report.breakdown, &setup.reference)?;
    closed_loop_pass(
        report.records.processed,
        &[start],
        end,
        recorder.as_ref(),
        Vec::new(),
        (dir.join("ckpt0"), dir.join("ring0")),
    )
}

/// `live_tap`: the paced producer and the live consumer in process.
pub fn live_tap(setup: &Setup, dir: &Path, hooks: &Hooks) -> Result<Pass, String> {
    let scenario = setup
        .scenario
        .as_ref()
        .ok_or("live_tap set-up has no scenario")?;
    let (ckpt_dir, ring_dir, store) = pass_dirs(dir)?;
    let (clock, recorder, obs) = pass_obs(hooks);
    let (server, client) = ShardTransport::channel_pair(LIVE_WIRE_MAGIC, 64);
    let plog = Arc::new(ProducerLog::default());
    let mut client = producer_side(
        client,
        &plog,
        &clock,
        hooks.wire.as_ref(),
        hooks.producer_sends,
    );
    let server = match &hooks.wire {
        Some(meter) => meter.wrap(server),
        None => server,
    };
    let pcfg = LiveProducerConfig {
        target_records_per_sec: if hooks.line_rate {
            0
        } else {
            LIVE_RECORDS_PER_S
        },
        burst_chunks: LIVE_BURST_CHUNKS,
        ..LiveProducerConfig::default()
    };
    let mut scfg = LiveServerConfig::new(RunnerConfig::default());
    scfg.obs = obs;
    let classify = classify_fn(&setup.classifier, clock.as_ref(), hooks.classify.as_deref());
    let (study, produced) = thread::scope(|s| {
        let producer = s.spawn(|| run_live_producer(&mut client, scenario, &pcfg));
        let study = serve_live_with(&setup.classifier, &scfg, &store, server, classify);
        (study, producer.join())
    });
    let end = clock.now_ns();
    let study = study.map_err(|e| format!("live_tap session: {e}"))?;
    match produced {
        Ok(Ok(_)) => {}
        Ok(Err(e)) => return Err(format!("live producer: {e}")),
        Err(_) => return Err("live producer panicked".to_string()),
    }

    let session = &study.session;
    let reference = &setup.reference;
    gate::ensure(
        session.reconciles() && study.report.health.reconciles(),
        || format!("live accounting does not reconcile: {:?}", session.records),
    )?;
    gate::ensure(!session.producer_lost, || "live producer lost".to_string())?;
    gate::ensure(session.records.offered == reference.decoded_records, || {
        format!(
            "live session offered {} records, the capture holds {}",
            session.records.offered, reference.decoded_records
        )
    })?;
    if session.records.shed == 0 && session.records.quarantined == 0 {
        let replay = reference
            .run
            .as_ref()
            .ok_or("live_tap has no replay reference")?;
        gate::ensure(study.report.same_result(replay), || {
            "unshed live session differs from the file replay".to_string()
        })?;
        gate::breakdown(&study.report.breakdown, reference)?;
    }

    let start = plog.resume_ns.load(Ordering::Relaxed);
    gate::ensure(start > 0, || {
        "live producer never received Resume".to_string()
    })?;
    let interval_ns = (CHUNK_RECORDS as u64) * 1_000_000_000 / LIVE_RECORDS_PER_S as u64;
    let burst = LIVE_BURST_CHUNKS as u64;
    let spans = classify_spans(recorder.as_ref())?;
    gate::ensure(
        recorder.is_none() || spans.len() as u64 == session.chunks.processed,
        || {
            format!(
                "{} chunk_classify spans for {} processed chunks",
                spans.len(),
                session.chunks.processed
            )
        },
    )?;
    Ok(Pass {
        processed: session.records.processed,
        wall_ns: end.saturating_sub(start).max(1),
        latencies_ns: spans
            .iter()
            .map(|&(seq, _, end)| end.saturating_sub(start + (seq / burst) * burst * interval_ns))
            .collect(),
        worker_spans: spans.iter().map(|&(_, b, e)| (b, e)).collect(),
        workers_seen: workers_seen(recorder.as_ref(), &spans, &[start]),
        feed_calls: Vec::new(),
        start_ns: start,
        session: Some(study.session),
        producer: Some(plog),
        ckpt_dir,
        ring_dir,
    })
}

/// `dirty_resume`: the corrupted capture, interrupted at half the
/// chunks and resumed from the per-chunk checkpoint.
pub fn dirty_resume(
    setup: &Setup,
    inputs: &Inputs,
    dir: &Path,
    hooks: &Hooks,
) -> Result<Pass, String> {
    let (ckpt_dir, ring_dir, store) = pass_dirs(dir)?;
    let rollup = RollupConfig::new(&ring_dir, WINDOW_CHUNKS);
    let (clock, recorder, obs) = pass_obs(hooks);
    let half = setup.total_chunks / 2;

    let mut first = Fed::new(&inputs.bytes, clock.as_ref(), hooks.feed);
    let interrupted = StudyRunner::new(
        &setup.classifier,
        RunnerConfig {
            interrupt_after_chunks: Some(half),
            ..dirty_config()
        },
    )
    .with_obs(obs.clone())
    .with_rollups(rollup.clone())
    .run(&mut first, &store);
    match interrupted {
        Err(RunnerError::Interrupted { committed_chunks }) if committed_chunks == half => {}
        Err(e) => return Err(format!("dirty_resume first half: {e}")),
        Ok(_) => return Err("dirty_resume first half was not interrupted".to_string()),
    }
    let mut second = Fed::new(&inputs.bytes, clock.as_ref(), hooks.feed);
    let report = StudyRunner::new(&setup.classifier, dirty_config())
        .with_obs(obs)
        .with_rollups(rollup)
        .run(&mut second, &store)
        .map_err(|e| format!("dirty_resume resume: {e}"))?;
    let end = clock.now_ns();

    gate::accounting(&report.health, &report.ingest, inputs)?;
    let reference: &RunReport = setup
        .reference
        .run
        .as_ref()
        .ok_or("dirty_resume has no uninterrupted reference")?;
    gate::ensure(report.same_result(reference), || {
        "resumed run differs from the uninterrupted run".to_string()
    })?;
    gate::ensure(
        half == 0 || report.health.resumed_at_chunk == Some(half),
        || {
            format!(
                "resumed at {:?}, expected chunk {half}",
                report.health.resumed_at_chunk
            )
        },
    )?;
    gate::lossless(&report, &setup.reference)?;
    gate::breakdown(&report.breakdown, &setup.reference)?;
    let starts: Vec<u64> = first.first_ns.into_iter().chain(second.first_ns).collect();
    let mut feed = first.calls.take().unwrap_or_default();
    feed.extend(second.calls.take().unwrap_or_default());
    closed_loop_pass(
        report.health.records.processed,
        &starts,
        end,
        recorder.as_ref(),
        feed,
        (ckpt_dir, ring_dir),
    )
}

/// Run one pass of `workload` in `dir`.
pub fn pass(
    workload: &str,
    setup: &Setup,
    inputs: &Inputs,
    dir: &Path,
    hooks: &Hooks,
) -> Result<Pass, String> {
    match workload {
        "month_file" => month_file(setup, inputs, dir, hooks, 0, true),
        "month_sharded" => month_sharded(setup, inputs, dir, hooks),
        "live_tap" => live_tap(setup, dir, hooks),
        "dirty_resume" => dirty_resume(setup, inputs, dir, hooks),
        other => Err(format!("unknown workload {other}")),
    }
}

/// Run passes for `seconds` (at least [`MIN_PASSES`]) after one
/// warm-up pass, each in a fresh directory removed afterwards.
pub fn timed_passes(
    workload: &str,
    setup: &Setup,
    inputs: &Inputs,
    work_dir: &Path,
    seconds: f64,
    hooks: &Hooks,
) -> Result<Vec<Pass>, String> {
    let mut passes = Vec::new();
    let mut index = 0usize;
    let mut t0 = Instant::now();
    loop {
        let dir = work_dir.join(format!("p{index}"));
        let result = pass(workload, setup, inputs, &dir, hooks);
        let _ = std::fs::remove_dir_all(&dir);
        let p = result?;
        if index == 0 {
            t0 = Instant::now(); // the warm-up pass is not kept
        } else {
            passes.push(p);
        }
        index += 1;
        if passes.len() >= MIN_PASSES && t0.elapsed().as_secs_f64() >= seconds {
            return Ok(passes);
        }
    }
}

/// Records processed per second of study wall time over `passes`:
/// their records over their summed wall times. Pass walls fall on a
/// grid (see the README), so a mean moves with the program where a
/// median jumps from one grid step to the next.
pub fn records_per_s(passes: &[Pass]) -> f64 {
    let records: u64 = passes.iter().map(|p| p.processed).sum();
    let wall_ns: u64 = passes.iter().map(|p| p.wall_ns).sum();
    records as f64 * 1e9 / wall_ns.max(1) as f64
}

/// Median share of the encoded records that `passes` processed.
pub fn processed_fraction(passes: &[Pass], records_encoded: u64) -> f64 {
    stats::median(
        &passes
            .iter()
            .map(|p| p.processed as f64 / records_encoded.max(1) as f64)
            .collect::<Vec<_>>(),
    )
}

/// The end-to-end run: [`SEGMENTS`] segments, each with a fresh
/// classifier build and passes for its share of the measuring time. On
/// `live_tap` the passes run at the workload's pace, so a consumer
/// that falls behind shows as records shed and as a longer wall time.
pub fn run(req: &Request, inputs: &Inputs) -> Result<Outcome, String> {
    let mut setup = setup(&req.workload, inputs, &req.work_dir)?;
    let share = req.seconds / SEGMENTS as f64;
    let mut passes = Vec::new();
    let (mut peak_mb, mut segment_rates) = (0.0f64, Vec::new());
    for segment in 0..SEGMENTS {
        if segment > 0 {
            rebuild(&mut setup, inputs);
        }
        // Set-up transients (the reference decode, the builds, the
        // classifier just replaced) are priced by `setup_s`;
        // `peak_rss_mb` is the study's own high-water mark, tables
        // included, over the timed passes.
        if let Err(e) = crate::reset_peak_rss() {
            eprintln!("perfbench: {e}; peak_rss_mb includes set-up");
        }
        let timed = timed_passes(
            &req.workload,
            &setup,
            inputs,
            &req.work_dir,
            share,
            &Hooks::default(),
        )?;
        segment_rates.push(records_per_s(&timed));
        passes.extend(timed);
        peak_mb = peak_mb.max(crate::peak_rss_mb()?);
    }
    // One warm-up pass per segment.
    let attempted = passes.len() + SEGMENTS;
    let build_s = |f: fn(&Timed) -> f64| setup.builds.iter().map(f).collect::<Vec<_>>();
    eprintln!(
        "{}: {} passes, records/s by segment {:.0?}; {} builds, CPU {:.3?} s, wall {:.3?} s",
        req.workload,
        attempted,
        segment_rates,
        setup.builds.len(),
        build_s(|b| b.cpu_s),
        build_s(|b| b.wall_s),
    );

    let mut m = Metrics::default();
    m.set("records_per_s", records_per_s(&passes));
    m.set(
        "processed_record_fraction",
        processed_fraction(&passes, inputs.records_encoded),
    );
    m.set("setup_s", stats::median(&build_s(|b| b.cpu_s)));
    m.set("peak_rss_mb", peak_mb);
    Ok(Outcome {
        attempted: attempted as u64,
        metrics: m.complete(&END_TO_END)?,
    })
}
