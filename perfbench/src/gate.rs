//! The correctness gate every pass goes through. A failed check is an
//! error that stops the run; it never becomes a number.

use crate::inputs::{Inputs, CHUNK_RECORDS};
use spoofwatch_core::detect::{detect_over_windows, read_incident_log, DetectConfig};
use spoofwatch_core::{
    read_ring, CheckpointStore, Classifier, IngestTotals, MemberBreakdown, RunReport, RunnerHealth,
    StudyRunner,
};
use spoofwatch_ixp::chunked::ChunkedIpfixReader;
use spoofwatch_ixp::ipfix;
use spoofwatch_net::{InferenceMethod, OrgMode};
use std::path::Path;

/// The method and org mode every workload classifies under (the
/// `RunnerConfig` defaults).
pub const METHOD: InferenceMethod = InferenceMethod::FullCone;
/// See [`METHOD`].
pub const ORG: OrgMode = OrgMode::OrgAdjusted;

/// What a pass is checked against, computed before any timing.
#[derive(Debug, Clone)]
pub struct Reference {
    /// `Classifier::classify_trace` over the records the resilient
    /// decoder recovers from the capture, folded per member.
    pub breakdown: MemberBreakdown,
    /// Records the resilient decoder recovers.
    pub decoded_records: u64,
    /// A file-replay or uninterrupted run of the same study, for the
    /// workloads that are checked against one (`live_tap`,
    /// `dirty_resume`).
    pub run: Option<RunReport>,
}

impl Reference {
    /// The batch reference for `inputs`.
    pub fn batch(classifier: &Classifier, inputs: &Inputs) -> Reference {
        let (records, _health) = ipfix::decode_resilient(&inputs.bytes);
        let classes = classifier.classify_trace(&records, METHOD, ORG);
        Reference {
            breakdown: MemberBreakdown::from_classes(&records, &classes),
            decoded_records: records.len() as u64,
            run: None,
        }
    }

    /// Attach the report of `runner` over the capture, run to
    /// completion in a fresh store under `dir`.
    pub fn with_run(
        mut self,
        runner: &StudyRunner<'_>,
        inputs: &Inputs,
        dir: &Path,
    ) -> Result<Reference, String> {
        let store = CheckpointStore::open(dir).map_err(|e| format!("reference store: {e}"))?;
        let mut source = ChunkedIpfixReader::new(&inputs.bytes, CHUNK_RECORDS);
        let report = runner
            .run(&mut source, &store)
            .map_err(|e| format!("reference run: {e}"))?;
        self.run = Some(report);
        Ok(self)
    }
}

/// Fail with `what` unless `ok`.
pub fn ensure(ok: bool, what: impl FnOnce() -> String) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(format!("correctness gate: {}", what()))
    }
}

/// Runner accounting and ingest byte accounting both reconcile, and the
/// ingest covered the whole capture.
pub fn accounting(
    health: &RunnerHealth,
    ingest: &IngestTotals,
    inputs: &Inputs,
) -> Result<(), String> {
    ensure(health.reconciles(), || {
        format!("runner accounting does not reconcile: {health}")
    })?;
    ensure(ingest.reconciles(), || {
        format!("ingest bytes do not reconcile: {ingest:?}")
    })?;
    ensure(ingest.input_bytes == inputs.bytes.len() as u64, || {
        format!(
            "ingest covered {} of {} capture bytes",
            ingest.input_bytes,
            inputs.bytes.len()
        )
    })
}

/// The breakdown equals the batch reference.
pub fn breakdown(got: &MemberBreakdown, reference: &Reference) -> Result<(), String> {
    ensure(*got == reference.breakdown, || {
        "per-member breakdown differs from the classify_trace reference".to_string()
    })
}

/// The run's processed records equal the decoder's recovered records
/// (no shedding, no quarantine on a lossless run).
pub fn lossless(report: &RunReport, reference: &Reference) -> Result<(), String> {
    let r = &report.health.records;
    ensure(
        r.processed == reference.decoded_records && r.offered == r.processed,
        || {
            format!(
                "processed {} of {} offered records; the decoder recovers {}",
                r.processed, r.offered, reference.decoded_records
            )
        },
    )
}

/// The incident log the run wrote equals `detect_over_windows` over the
/// run's own rollup ring, and the ring's windows cover the breakdown.
pub fn incidents(ring: &Path, reference: &Reference) -> Result<(), String> {
    let (windows, faults) = read_ring(ring).map_err(|e| format!("read ring: {e}"))?;
    ensure(faults.is_empty(), || {
        format!("{} torn rollup windows", faults.len())
    })?;
    let (logged, log_faults) =
        read_incident_log(ring).map_err(|e| format!("read incident log: {e}"))?;
    ensure(log_faults.is_empty(), || {
        format!("{} torn incident files", log_faults.len())
    })?;
    ensure(
        logged == detect_over_windows(&windows, &DetectConfig::default()),
        || {
            format!(
                "incident log ({} incidents) differs from detect_over_windows over the ring",
                logged.len()
            )
        },
    )?;
    let mut ring_flows = [0u64; 4];
    for w in &windows {
        for (into, n) in ring_flows.iter_mut().zip(w.class_flows) {
            *into += n;
        }
    }
    let mut want = [0u64; 4];
    for rows in reference.breakdown.per_member.values() {
        for (into, cc) in want.iter_mut().zip(rows) {
            *into += cc.flows;
        }
    }
    ensure(ring_flows == want, || {
        format!("rollup windows count {ring_flows:?} flows per class, reference {want:?}")
    })
}
