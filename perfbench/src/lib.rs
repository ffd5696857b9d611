//! End-to-end benchmark of the spoofwatch study pipeline.
//!
//! One invocation runs one workload at one seed: it generates the
//! inputs from the seed, sets up the classifier, runs the study through
//! the public API for a fixed measuring time, checks every pass against
//! a reference computed outside the timed region, and prints the
//! metrics by name with their units. `--trace 1` runs the separate
//! traced run instead: the real runner with hooks at its public seams,
//! then a serial replay of the same chunks through each layer's public
//! calls (see [`traced`]).
//!
//! # Why each workload exists
//!
//! - `month_file`: the paper's study. File-mode `StudyRunner` over the
//!   default Internet (727 members, ~2000 ASes) and the default
//!   four-week trace (543,507 records, 19.6 MB at seed 7), rollups and
//!   online detection on, the rest of `RunnerConfig` at its defaults.
//!   Decode, classify and the detect payload do most of the work here.
//! - `month_sharded`: the same trace through `ShardCoordinator` with 2
//!   shards over `UdsEndpoint`, as `examples/sharded_study.rs` deploys
//!   it, detection off. The `net::wire` framing and the partition pass
//!   do real work here and none in `month_file`, so a wire-layer change
//!   shows here alone; a classify change shows in both.
//! - `live_tap`: `serve_live_with` over an in-process pair, wrapping
//!   the same `classify_records_batched` call that `serve_live` makes.
//!   The producer is open-loop, paced at a fixed 1,000,000 records/s in
//!   bursts of 8 chunks, with the default window and ladder: about half
//!   the live capacity of a 2-core host, so a slower consumer shows as
//!   latency first and as shedding after. The only arrival-driven
//!   workload.
//! - `dirty_resume`: the tiny Internet (80 members), where classify is
//!   cheap and the verdict memo mostly hits. 0.1% of the capture's
//!   bytes are bit-flipped over the whole file, header included;
//!   `checkpoint_every: 1` and `track_disagreement: true`; the run is
//!   interrupted at half the chunks and resumed. It uses ingest and
//!   persistence differently from the other three (resync and
//!   quarantine, a checkpoint write per chunk beside the reads) and
//!   runs all five classify variants where `month_file` runs one.

pub mod gate;
pub mod inputs;
pub mod stats;
pub mod study;
pub mod traced;
pub mod wire;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// The benchmark's workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 4] = ["month_file", "month_sharded", "live_tap", "dirty_resume"];

/// End-to-end metrics (`--trace 0`): name and unit.
pub const END_TO_END: [(&str, &str); 4] = [
    ("records_per_s", "records/s"),
    ("processed_record_fraction", "fraction"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (`--trace 1`): name and unit.
pub const PER_LAYER: [(&str, &str); 46] = [
    ("chunk_latency_p50_ms", "ms"),
    ("chunk_latency_tail_ms", "ms"),
    ("ixp.decode_ns_per_record", "ns"),
    ("ixp.decode_bytes_per_s", "B/s"),
    ("ixp.recovered_fraction", "fraction"),
    ("ixp.recovered_of_untouched", "fraction"),
    ("ixp.quarantined_bytes", "B"),
    ("net.transpose_ns_per_record", "ns"),
    ("net.wire_bytes_per_record", "B"),
    ("net.wire_frames", "count"),
    ("net.wire_send_ns", "ns"),
    ("net.wire_recv_wait_ns", "ns"),
    ("core.classify_ns_per_record", "ns"),
    ("core.classify_kernel_ns_per_record", "ns"),
    ("core.classify_variants_ns_per_record", "ns"),
    ("core.classifier_memory_bytes", "B"),
    ("core.detect_payload_ns_per_record", "ns"),
    ("core.detect_merge_ns_per_chunk", "ns"),
    ("core.detect_observe_ns_per_window", "ns"),
    ("runner.feed_decode_fraction", "fraction"),
    ("runner.feed_other_fraction", "fraction"),
    ("runner.worker_busy_fraction", "fraction"),
    ("runner.worker_idle_fraction", "fraction"),
    ("runner.classify_call_ns_per_record", "ns"),
    ("runner.checkpoint_save_ns", "ns"),
    ("runner.checkpoint_bytes", "B"),
    ("runner.resume_load_ns", "ns"),
    ("runner.rollup_write_ns", "ns"),
    ("runner.rollup_window_bytes", "B"),
    ("runner.shard_partition_ns_per_record", "ns"),
    ("runner.shard_layer_tax", "ratio"),
    ("runner.single_thread_records_per_s", "records/s"),
    ("runner.workers_used", "count"),
    ("runner.lost_record_fraction", "fraction"),
    ("live.generator_late_ms", "ms"),
    ("live.max_buffered_chunks", "count"),
    ("live.credits_granted", "count"),
    ("live.time_in_normal_fraction", "fraction"),
    ("live.ladder_eval_ns", "ns"),
    ("latency.samples", "count"),
    ("latency.tail_percentile", "%"),
    ("bgp.routed_table_build_s", "s"),
    ("core.classifier_build_s", "s"),
    ("host.nproc", "count"),
    ("trace.replay_coverage", "fraction"),
    ("trace.overhead", "ratio"),
];

/// Input scale: the paper-scale study, or the tiny one the benchmark's
/// own self-check runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// Default Internet and four-week trace (the measured benchmark).
    Full,
    /// Tiny Internet and trace (self-check only).
    Tiny,
}

/// What one invocation asks for.
#[derive(Debug, Clone)]
pub struct Request {
    /// One of [`WORKLOADS`].
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measuring time in seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
    /// Input scale.
    pub size: Size,
    /// Scratch directory for checkpoints, rings and sockets. Must be a
    /// short relative path: a Unix socket path is limited to ~100 bytes.
    pub work_dir: PathBuf,
}

/// The result line: `correct`, `attempted`, `failed` and the metrics.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Study passes run (the warm-up passes included).
    pub attempted: u64,
    /// Metrics in catalogue order.
    pub metrics: Vec<(&'static str, &'static str, f64)>,
}

impl Outcome {
    /// The JSON object the benchmark prints as its last line. Every
    /// pass passed its correctness gate, since a failed gate is an
    /// error and never reaches this point.
    pub fn to_json(&self) -> String {
        let mut s = format!(
            "{{\"correct\": true, \"attempted\": {}, \"failed\": 0, \"metrics\": {{",
            self.attempted
        );
        for (i, (name, unit, value)) in self.metrics.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            // `{:?}` prints the shortest form that round-trips: every digit.
            let _ = write!(
                s,
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        s.push_str("}}");
        s
    }
}

/// Collects named metric values and orders them by a catalogue,
/// refusing to emit an incomplete or unknown set.
#[derive(Debug, Default)]
pub struct Metrics {
    values: Vec<(&'static str, f64)>,
}

impl Metrics {
    /// Record `name = value`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.retain(|(n, _)| *n != name);
        self.values.push((name, value));
    }

    /// Every catalogue entry with its value, in catalogue order; an
    /// error names the first missing or extra metric.
    pub fn complete(
        &self,
        catalogue: &[(&'static str, &'static str)],
    ) -> Result<Vec<(&'static str, &'static str, f64)>, String> {
        if let Some((extra, _)) = self
            .values
            .iter()
            .find(|(n, _)| !catalogue.iter().any(|(c, _)| c == n))
        {
            return Err(format!("metric {extra} is not in the catalogue"));
        }
        catalogue
            .iter()
            .map(
                |&(name, unit)| match self.values.iter().find(|(n, _)| *n == name) {
                    Some(&(_, v)) if v.is_finite() => Ok((name, unit, v)),
                    Some(&(_, v)) => Err(format!("metric {name} measured as {v}")),
                    None => Err(format!("metric {name} was not measured")),
                },
            )
            .collect()
    }
}

/// Removes the scratch directory when the run ends, on every path, and
/// its parent if that is left empty.
struct WorkDir<'a>(&'a Path);

impl Drop for WorkDir<'_> {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(self.0);
        if let Some(parent) = self.0.parent().filter(|p| !p.as_os_str().is_empty()) {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// Run one request end to end and return the result line's content.
pub fn run(req: &Request) -> Result<Outcome, String> {
    if !WORKLOADS.contains(&req.workload.as_str()) {
        return Err(format!(
            "unknown workload {:?}; expected one of {WORKLOADS:?}",
            req.workload
        ));
    }
    let _ = std::fs::remove_dir_all(&req.work_dir);
    std::fs::create_dir_all(&req.work_dir)
        .map_err(|e| format!("create {}: {e}", req.work_dir.display()))?;
    let _cleanup = WorkDir(&req.work_dir);
    let inputs = inputs::Inputs::generate(&req.workload, req.seed, req.size);
    if req.trace {
        traced::run(req, &inputs)
    } else {
        study::run(req, &inputs)
    }
}

/// CPU time consumed so far by all threads of this process, live and
/// exited, in ns. The kernel accounts steal time separately
/// (paravirtualised steal accounting), so time the hypervisor gave to
/// other guests is not in it, where wall time on a shared host is.
pub fn process_cpu_ns() -> u64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable value laid out as the 64-bit
    // Linux `struct timespec`, and clock_gettime writes nothing else.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Restart this process's resident-memory high-water mark from its
/// current resident set.
pub fn reset_peak_rss() -> Result<(), String> {
    std::fs::write("/proc/self/clear_refs", "5").map_err(|e| format!("reset peak RSS: {e}"))
}

/// Resident-memory high-water mark of this process since the last
/// [`reset_peak_rss`], in MB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}
