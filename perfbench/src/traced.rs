//! The traced run: per-layer numbers from outside the program.
//!
//! 1. Set-up once, split into its two parts (`RoutedTable::build`, then
//!    the rest of `Classifier::build`).
//! 2. Untraced passes (the runner's flight recorder off, no hooks) for
//!    half the measuring time: the warm-up, and the sharded wall of the
//!    shard-layer tax.
//! 3. Traced passes of the real runner with its flight recorder on and
//!    the benchmark's hooks at its public seams: a `ChunkSource` wrapper
//!    timing each `next_chunk` (file-mode workloads), a classify closure
//!    timing each `classify_records_batched` call (`month_file` and
//!    `live_tap`, the workloads whose runner takes one), and the wire
//!    wrappers (`month_sharded`, `live_tap`). Worker busy time, chunk
//!    latency and the worker count come from the runner's own
//!    seq-tagged `chunk_classify` spans; the count is the number of
//!    distinct threads that opened one. Beside each traced pass, an
//!    untraced and a traced pass back to back (at line rate on
//!    `live_tap`, where a paced wall is the producer's) give the tracing
//!    overhead.
//! 4. A serial replay of the same chunks through each layer's public
//!    call in pipeline order, then the persistence calls on the last
//!    traced pass's real checkpoint and rollup windows.
//!
//! Metrics that a workload does not exercise read 0: the wire on
//! `month_file` and `dirty_resume`, the partition pass and layer tax
//! off `month_sharded`, the live block off `live_tap`.

use crate::inputs::{Inputs, CHUNK_RECORDS};
use crate::stats;
use crate::study::{
    self, Hooks, Pass, Setup, ThreadClock, Timed, SHARDS, SHARD_SALT, WINDOW_CHUNKS,
};
use crate::wire::{Meter, WireStats};
use crate::{Metrics, Outcome, Request, PER_LAYER};
use spoofwatch_bgp::RoutedTable;
use spoofwatch_core::detect::{DetectConfig, DetectEngine, WindowDetect};
use spoofwatch_core::runner::rollup::write_window;
use spoofwatch_core::{
    read_ring, BatchScratch, CheckpointStore, Classifier, LiveLadder, OverloadState, ShardPlan,
};
use spoofwatch_ixp::chunked::ChunkedIpfixReader;
use spoofwatch_net::{FlowBatch, FlowRecord};
use spoofwatch_obs::{Clock, RealClock};
use std::hint::black_box;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Traced passes per run; per-pass metrics are their medians.
const TRACED_PASSES: usize = 5;
/// Checkpoint saves timed in the replay.
const CHECKPOINT_SAVES: usize = 16;
/// Ladder evaluations timed in the replay.
const LADDER_EVALS: usize = 1_000_000;

fn ns(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

fn per(total_ns: u64, count: u64) -> f64 {
    total_ns as f64 / count.max(1) as f64
}

/// Run the traced run of `req.workload`.
pub fn run(req: &Request, inputs: &Inputs) -> Result<Outcome, String> {
    let w = req.workload.as_str();
    let mut m = Metrics::default();

    // CPU times, as `setup_s` is.
    let (table, table_t) =
        Timed::call(|| black_box(RoutedTable::build(inputs.net.announcements.iter())));
    drop(table);
    let (classifier, build) =
        Timed::call(|| Classifier::build(&inputs.net.announcements, &inputs.net.orgs_dataset));
    m.set("bgp.routed_table_build_s", table_t.cpu_s);
    m.set(
        "core.classifier_build_s",
        (build.cpu_s - table_t.cpu_s).max(0.0),
    );
    m.set(
        "core.classifier_memory_bytes",
        classifier.compiled().memory_bytes() as f64,
    );
    let setup = study::finish_setup(w, inputs, &req.work_dir, classifier, vec![build])?;
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    m.set("host.nproc", nproc as f64);

    let untraced = study::timed_passes(
        w,
        &setup,
        inputs,
        &req.work_dir,
        req.seconds / 2.0,
        &Hooks::default(),
    )?;

    // Single-thread baseline and the shard-layer tax's single-node base.
    let mut single = 0.0;
    let mut tax = 0.0;
    if w == "month_file" {
        single = study::records_per_s(&file_passes(&setup, inputs, &req.work_dir, 1, true)?);
    }
    if w == "month_sharded" {
        let base = stats::median(&walls(&file_passes(
            &setup,
            inputs,
            &req.work_dir,
            0,
            false,
        )?));
        tax = stats::median(&walls(&untraced)) / base;
    }
    m.set("runner.single_thread_records_per_s", single);
    m.set("runner.shard_layer_tax", tax);

    // Traced passes at the workload's pace; the last one's directory is
    // kept for the replay. Each comes with an overhead pair, an
    // untraced and a traced pass back to back, so that the host's drift
    // over the run cancels out of the overhead; at line rate on
    // `live_tap`, so that the wall time is the consumer's.
    let line_rate = w == "live_tap";
    let mut traced = Vec::new();
    let mut per_pass: Vec<Vec<(&'static str, f64)>> = Vec::new();
    let (mut base_walls, mut traced_walls) = (Vec::new(), Vec::new());
    let wall_of = |name: String, hooks: &Hooks| -> Result<f64, String> {
        let dir = req.work_dir.join(name);
        let pass = study::pass(w, &setup, inputs, &dir, hooks);
        let _ = std::fs::remove_dir_all(&dir);
        Ok(pass?.wall_ns as f64)
    };
    for i in 0..TRACED_PASSES {
        base_walls.push(wall_of(
            format!("base{i}"),
            &Hooks {
                line_rate,
                ..Hooks::default()
            },
        )?);
        if line_rate {
            traced_walls.push(wall_of(format!("traced-line{i}"), &hooks_for(w, true))?);
        }
        let dir = req.work_dir.join(format!("traced{i}"));
        let hooks = hooks_for(w, false);
        let pass = study::pass(w, &setup, inputs, &dir, &hooks)?;
        if !line_rate {
            traced_walls.push(pass.wall_ns as f64);
        }
        per_pass.push(pass_metrics(&pass, &hooks)?);
        if i + 1 == TRACED_PASSES {
            replay(&setup, inputs, &pass, w, &mut m)?;
        }
        let _ = std::fs::remove_dir_all(&dir);
        traced.push(pass);
    }
    m.set(
        "trace.overhead",
        stats::median(&traced_walls) / stats::median(&base_walls),
    );
    for (name, _) in &per_pass[0] {
        let values: Vec<f64> = per_pass
            .iter()
            .filter_map(|p| p.iter().find(|(n, _)| n == name).map(|&(_, v)| v))
            .collect();
        m.set(name, stats::median(&values));
    }
    let latency = Latency::of(&traced)?;
    m.set("chunk_latency_p50_ms", latency.p50_ns / 1e6);
    m.set("chunk_latency_tail_ms", latency.tail_ns / 1e6);
    m.set("latency.samples", latency.samples);
    m.set("latency.tail_percentile", latency.tail_percentile);
    m.set(
        "runner.lost_record_fraction",
        1.0 - study::processed_fraction(&traced, inputs.records_encoded),
    );

    m.set(
        "live.ladder_eval_ns",
        if w == "live_tap" {
            ladder_eval_ns()
        } else {
            0.0
        },
    );

    let traced_total = TRACED_PASSES * if line_rate { 3 } else { 2 };
    Ok(Outcome {
        attempted: (untraced.len() + 1 + traced_total) as u64,
        metrics: m.complete(&PER_LAYER)?,
    })
}

/// Chunk latency over traced passes. Percentiles are taken per pass (a
/// pass is one whole study) and their medians reported, so one pass hit
/// by a host stall does not become the run's tail.
struct Latency {
    p50_ns: f64,
    tail_ns: f64,
    samples: f64,
    tail_percentile: f64,
}

impl Latency {
    fn of(passes: &[Pass]) -> Result<Latency, String> {
        let tails = passes
            .iter()
            .map(|p| {
                stats::tail(&p.latencies_ns).ok_or_else(|| {
                    format!(
                        "a pass has only {} chunk latency samples",
                        p.latencies_ns.len()
                    )
                })
            })
            .collect::<Result<Vec<(f64, u64)>, String>>()?;
        let median_of =
            |f: &dyn Fn(&Pass) -> f64| stats::median(&passes.iter().map(f).collect::<Vec<_>>());
        Ok(Latency {
            p50_ns: median_of(&|p| stats::percentile(&p.latencies_ns, 50.0) as f64),
            tail_ns: stats::median(&tails.iter().map(|t| t.1 as f64).collect::<Vec<_>>()),
            samples: median_of(&|p| p.latencies_ns.len() as f64),
            tail_percentile: stats::median(&tails.iter().map(|t| t.0).collect::<Vec<_>>()),
        })
    }
}

fn walls(passes: &[Pass]) -> Vec<f64> {
    passes.iter().map(|p| p.wall_ns as f64).collect()
}

/// A warm-up and [`study::MIN_PASSES`] untraced file-mode passes.
fn file_passes(
    setup: &Setup,
    inputs: &Inputs,
    work_dir: &Path,
    workers: usize,
    detect: bool,
) -> Result<Vec<Pass>, String> {
    let mut passes = Vec::new();
    for i in 0..=study::MIN_PASSES {
        let dir = work_dir.join(format!("file{i}"));
        let p = study::month_file(setup, inputs, &dir, &Hooks::default(), workers, detect);
        let _ = std::fs::remove_dir_all(&dir);
        let p = p?;
        if i > 0 {
            passes.push(p);
        }
    }
    Ok(passes)
}

fn hooks_for(w: &str, line_rate: bool) -> Hooks {
    let meter = || Meter {
        stats: Arc::new(WireStats::default()),
        clock: Arc::new(RealClock::new()) as Arc<dyn Clock>,
    };
    Hooks {
        spans: Some(Arc::new(ThreadClock::default())),
        line_rate,
        feed: matches!(w, "month_file" | "dirty_resume"),
        classify: matches!(w, "month_file" | "live_tap").then(|| Arc::new(Mutex::new(Vec::new()))),
        wire: matches!(w, "month_sharded" | "live_tap").then(meter),
        producer_sends: w == "live_tap",
    }
}

/// Metrics of one traced pass.
fn pass_metrics(pass: &Pass, hooks: &Hooks) -> Result<Vec<(&'static str, f64)>, String> {
    let wall = pass.wall_ns as f64;
    let mut out = Vec::new();

    let decode: u64 = pass.feed_calls.iter().map(|&(a, b)| b - a).sum();
    let other: u64 = pass
        .feed_calls
        .windows(2)
        .map(|w| w[1].0.saturating_sub(w[0].1))
        .sum();
    out.push(("runner.feed_decode_fraction", decode as f64 / wall));
    out.push(("runner.feed_other_fraction", other as f64 / wall));
    out.push(("runner.workers_used", pass.workers_seen as f64));
    let busy: u64 = pass.worker_spans.iter().map(|&(a, b)| b - a).sum();
    let busy = busy as f64 / (wall * pass.workers_seen.max(1) as f64);
    out.push(("runner.worker_busy_fraction", busy));
    out.push(("runner.worker_idle_fraction", 1.0 - busy));

    let classify = match &hooks.classify {
        Some(log) => {
            let log = log.lock().expect("classify span log poisoned");
            let total: u64 = log.iter().map(|&(a, b, _)| b - a).sum();
            per(total, log.iter().map(|&(_, _, n)| n).sum())
        }
        None => 0.0,
    };
    out.push(("runner.classify_call_ns_per_record", classify));

    let (frames, bytes, send_ns, recv_ns) = hooks
        .wire
        .as_ref()
        .map_or((0, 0, 0, 0), |m| m.stats.totals());
    out.push(("net.wire_frames", frames as f64));
    out.push(("net.wire_bytes_per_record", per(bytes, pass.processed)));
    out.push(("net.wire_send_ns", send_ns as f64));
    out.push(("net.wire_recv_wait_ns", recv_ns as f64));

    let (mut late, mut buffered, mut credits, mut normal) = (0.0, 0.0, 0.0, 0.0);
    if let (Some(session), Some(producer)) = (&pass.session, &pass.producer) {
        let sends = producer.sends.lock().expect("send log poisoned").clone();
        // Hello, one frame per chunk in seq order, then Finish. A
        // go-back-N resend breaks the frame-to-seq mapping, and the
        // lateness is then approximate.
        let mut chunks = session.chunks.offered as usize;
        if sends.len() != chunks + 2 {
            eprintln!(
                "perfbench: live producer sent {} frames for {chunks} chunks (resends)",
                sends.len()
            );
            chunks = chunks.min(sends.len().saturating_sub(2));
        }
        let interval = (CHUNK_RECORDS as u64) * 1_000_000_000 / study::LIVE_RECORDS_PER_S as u64;
        let burst = study::LIVE_BURST_CHUNKS as u64;
        let lateness: Vec<u64> = sends[1..=chunks]
            .iter()
            .enumerate()
            .map(|(seq, &sent)| {
                let seq = seq as u64;
                sent.saturating_sub(pass.start_ns + (seq / burst) * burst * interval)
            })
            .collect();
        late = stats::tail(&lateness).map_or(0, |(_, v)| v) as f64 / 1e6;
        buffered = session.max_buffered_chunks as f64;
        credits = session.credits_granted as f64;
        normal = session.time_in_state_ns[OverloadState::Normal.idx()] as f64
            / session.duration_ns.max(1) as f64;
    }
    out.push(("live.generator_late_ms", late));
    out.push(("live.max_buffered_chunks", buffered));
    out.push(("live.credits_granted", credits));
    out.push(("live.time_in_normal_fraction", normal));
    Ok(out)
}

/// The serial replay through each layer's public call, in pipeline
/// order, plus the persistence calls on the traced pass's real state.
fn replay(
    setup: &Setup,
    inputs: &Inputs,
    pass: &Pass,
    w: &str,
    m: &mut Metrics,
) -> Result<(), String> {
    let c = &setup.classifier;
    let plan = ShardPlan::new(SHARDS, SHARD_SALT);
    let (method, org) = (crate::gate::METHOD, crate::gate::ORG);
    let seed = spoofwatch_core::RunnerConfig::default().seed;
    let mut scratch = BatchScratch::new();
    let mut kernel_out = Vec::new();
    let mut window = WindowDetect::new();
    let mut parts: Vec<Vec<FlowRecord>> = vec![Vec::new(); SHARDS as usize];
    let (mut decode, mut transpose, mut kernel, mut classify, mut variants) = (0, 0, 0, 0, 0);
    let (mut payload, mut merge, mut partition) = (0, 0, 0);
    let (mut records, mut chunks, mut ok_records, mut quarantined) = (0u64, 0u64, 0u64, 0u64);

    let wall = Instant::now();
    let mut reader = ChunkedIpfixReader::new(&inputs.bytes, CHUNK_RECORDS);
    loop {
        let t = Instant::now();
        let next = reader.next_chunk();
        decode += ns(t);
        let Some(chunk) = next else { break };
        chunks += 1;
        records += chunk.flows.len() as u64;
        ok_records += chunk.health.ok_records;
        quarantined += chunk.health.quarantined_bytes;

        let t = Instant::now();
        let batch = FlowBatch::from_records(&chunk.flows);
        transpose += ns(t);
        let t = Instant::now();
        c.classify_batch_into(&batch, method, org, &mut scratch, &mut kernel_out);
        kernel += ns(t);
        let t = Instant::now();
        let classes = c.classify_records_batched(&chunk.flows, method, org);
        classify += ns(t);
        let t = Instant::now();
        black_box(c.classify_variants_records_batched(&chunk.flows));
        variants += ns(t);
        let t = Instant::now();
        let chunk_detect = WindowDetect::from_chunk(&chunk.flows, &classes, seed, chunk.seq);
        payload += ns(t);
        let t = Instant::now();
        window.merge(&chunk_detect);
        if (chunk.seq + 1) % WINDOW_CHUNKS == 0 {
            black_box(std::mem::take(&mut window));
        }
        merge += ns(t);
        let t = Instant::now();
        for part in &mut parts {
            part.clear();
        }
        for f in &chunk.flows {
            parts[plan.shard_of(f) as usize].push(*f);
        }
        partition += ns(t);
        black_box((&kernel_out, &parts));
    }
    let mut timed = decode + transpose + kernel + classify + variants + payload + merge + partition;

    // Detector bank over the run's real windows.
    let (windows, _) = read_ring(&pass.ring_dir).map_err(|e| format!("read ring: {e}"))?;
    let mut engine = DetectEngine::new(DetectConfig::default());
    let t = Instant::now();
    for win in &windows {
        black_box(engine.observe(win));
    }
    let observe = ns(t);
    timed += observe;

    // Checkpoint load, encode + save on the run's real checkpoint.
    let store = CheckpointStore::open(&pass.ckpt_dir).map_err(|e| format!("open store: {e}"))?;
    let t = Instant::now();
    let (loaded, _) = store.load_latest();
    let load = ns(t);
    let (cp, _) = loaded.ok_or("the traced pass left no checkpoint")?;
    let mut saves = Vec::with_capacity(CHECKPOINT_SAVES);
    for _ in 0..CHECKPOINT_SAVES {
        let t = Instant::now();
        store
            .save(&cp)
            .map_err(|e| format!("checkpoint save: {e}"))?;
        saves.push(ns(t) as f64);
    }
    timed += load + saves.iter().sum::<f64>() as u64;

    // Rollup window writes of the run's real windows.
    let ring_copy = pass.ckpt_dir.with_file_name("ring-replay");
    std::fs::create_dir_all(&ring_copy).map_err(|e| format!("create ring copy: {e}"))?;
    let mut writes = Vec::with_capacity(windows.len());
    let mut window_bytes = 0usize;
    for win in &windows {
        let mut buf = Vec::new();
        win.encode_into(&mut buf);
        window_bytes += buf.len();
        let t = Instant::now();
        write_window(&ring_copy, win).map_err(|e| format!("write window: {e}"))?;
        writes.push(ns(t) as f64);
    }
    timed += writes.iter().sum::<f64>() as u64;
    let replay_wall = ns(wall);

    m.set("ixp.decode_ns_per_record", per(decode, records));
    m.set(
        "ixp.decode_bytes_per_s",
        inputs.bytes.len() as f64 * 1e9 / decode.max(1) as f64,
    );
    m.set(
        "ixp.recovered_fraction",
        ok_records as f64 / inputs.records_encoded.max(1) as f64,
    );
    m.set(
        "ixp.recovered_of_untouched",
        ok_records as f64 / inputs.records_untouched.max(1) as f64,
    );
    m.set("ixp.quarantined_bytes", quarantined as f64);
    m.set("net.transpose_ns_per_record", per(transpose, records));
    m.set("core.classify_ns_per_record", per(classify, records));
    m.set("core.classify_kernel_ns_per_record", per(kernel, records));
    m.set(
        "core.classify_variants_ns_per_record",
        per(variants, records),
    );
    m.set("core.detect_payload_ns_per_record", per(payload, records));
    m.set("core.detect_merge_ns_per_chunk", per(merge, chunks));
    m.set(
        "core.detect_observe_ns_per_window",
        per(observe, windows.len() as u64),
    );
    m.set(
        "runner.shard_partition_ns_per_record",
        if w == "month_sharded" {
            per(partition, records)
        } else {
            0.0
        },
    );
    m.set("runner.checkpoint_save_ns", stats::median(&saves));
    m.set("runner.checkpoint_bytes", cp.encode().len() as f64);
    m.set("runner.resume_load_ns", load as f64);
    m.set(
        "runner.rollup_write_ns",
        if writes.is_empty() {
            0.0
        } else {
            stats::median(&writes)
        },
    );
    m.set(
        "runner.rollup_window_bytes",
        window_bytes as f64 / windows.len().max(1) as f64,
    );
    m.set("trace.replay_coverage", timed as f64 / replay_wall as f64);
    Ok(())
}

/// Cost of one overload-ladder evaluation at the default window.
fn ladder_eval_ns() -> f64 {
    let ladder =
        LiveLadder::for_window(spoofwatch_core::LiveServerConfig::new(Default::default()).window);
    let mut state = OverloadState::Normal;
    let t = Instant::now();
    for i in 0..LADDER_EVALS {
        state = ladder.evaluate(state, black_box(i % 10));
    }
    black_box(state);
    per(ns(t), LADDER_EVALS as u64)
}
