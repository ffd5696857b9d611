//! The benchmark's own wrappers around the `net::wire` transport seam.
//! They time and count what crosses a link from outside the program:
//! the transports they wrap are the ones the study would use anyway.

use spoofwatch_ixp::live::Msg;
use spoofwatch_net::wire::{HEADER_LEN, TRAILER_LEN};
use spoofwatch_net::{ShardEndpoint, ShardRx, ShardTransport, ShardTx};
use spoofwatch_obs::Clock;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Totals over every wrapped link of one pass.
#[derive(Debug, Default)]
pub struct WireStats {
    /// Frames sent.
    pub frames: AtomicU64,
    /// Framed bytes sent (payload plus frame header and CRC).
    pub bytes: AtomicU64,
    /// Time spent inside `send`.
    pub send_ns: AtomicU64,
    /// Time spent inside `recv` calls that returned a frame.
    pub recv_wait_ns: AtomicU64,
}

impl WireStats {
    /// `(frames, bytes, send_ns, recv_wait_ns)`.
    pub fn totals(&self) -> (u64, u64, u64, u64) {
        (
            self.frames.load(Ordering::Relaxed),
            self.bytes.load(Ordering::Relaxed),
            self.send_ns.load(Ordering::Relaxed),
            self.recv_wait_ns.load(Ordering::Relaxed),
        )
    }
}

/// Times and counts one link's halves into shared [`WireStats`].
#[derive(Clone)]
pub struct Meter {
    /// Where the totals go.
    pub stats: Arc<WireStats>,
    /// The pass clock.
    pub clock: Arc<dyn Clock>,
}

impl Meter {
    /// Wrap both halves of `transport`.
    pub fn wrap(&self, transport: ShardTransport) -> ShardTransport {
        let (tx, rx) = transport.split();
        ShardTransport::from_halves(
            Box::new(TimedTx {
                inner: tx,
                meter: self.clone(),
                log: None,
            }),
            Box::new(TimedRx {
                inner: rx,
                meter: self.clone(),
            }),
        )
    }
}

struct TimedTx {
    inner: Box<dyn ShardTx>,
    meter: Meter,
    /// Clock time of every send, when the caller wants them.
    log: Option<Arc<Mutex<Vec<u64>>>>,
}

impl ShardTx for TimedTx {
    fn send(&mut self, payload: &[u8]) -> io::Result<()> {
        let t0 = self.meter.clock.now_ns();
        let result = self.inner.send(payload);
        let s = &self.meter.stats;
        s.send_ns
            .fetch_add(self.meter.clock.since_ns(t0), Ordering::Relaxed);
        s.frames.fetch_add(1, Ordering::Relaxed);
        s.bytes.fetch_add(
            (HEADER_LEN + payload.len() + TRAILER_LEN) as u64,
            Ordering::Relaxed,
        );
        if let Some(log) = &self.log {
            log.lock().expect("send log lock poisoned").push(t0);
        }
        result
    }
}

struct TimedRx {
    inner: Box<dyn ShardRx>,
    meter: Meter,
}

impl ShardRx for TimedRx {
    fn recv(&mut self, timeout: Duration) -> io::Result<Option<Vec<u8>>> {
        let t0 = self.meter.clock.now_ns();
        let result = self.inner.recv(timeout);
        if matches!(result, Ok(Some(_))) {
            let waited = self.meter.clock.since_ns(t0);
            self.meter
                .stats
                .recv_wait_ns
                .fetch_add(waited, Ordering::Relaxed);
        }
        result
    }

    fn wire_faults(&self) -> u64 {
        self.inner.wire_faults()
    }
}

/// A [`ShardEndpoint`] whose accepted links are metered.
pub struct MeteredEndpoint<E> {
    /// The real listener.
    pub inner: E,
    /// The meter every accepted link reports to.
    pub meter: Meter,
}

impl<E: ShardEndpoint> ShardEndpoint for MeteredEndpoint<E> {
    fn accept(&self, timeout: Duration) -> io::Result<Option<ShardTransport>> {
        Ok(self.inner.accept(timeout)?.map(|t| self.meter.wrap(t)))
    }
}

/// What the live producer's side of the link shows: when the first
/// `Resume` arrived (the producer restarts its pacing clock on it) and
/// when each frame was sent.
#[derive(Debug, Default)]
pub struct ProducerLog {
    /// Clock time of the first `Resume`, or 0 before it.
    pub resume_ns: AtomicU64,
    /// Clock time of every frame the producer sent, `Hello` first.
    pub sends: Arc<Mutex<Vec<u64>>>,
}

/// Wrap the producer's end of a live link: the receive half watches
/// for the first `Resume` (control frames only flow this way, so
/// decoding them is cheap); with `log_sends` the send half records
/// each frame's send time.
pub fn producer_side(
    transport: ShardTransport,
    log: &Arc<ProducerLog>,
    clock: &Arc<dyn Clock>,
    meter: Option<&Meter>,
    log_sends: bool,
) -> ShardTransport {
    let transport = match meter {
        Some(m) => m.wrap(transport),
        None => transport,
    };
    let (tx, rx) = transport.split();
    let tx: Box<dyn ShardTx> = if log_sends {
        Box::new(TimedTx {
            inner: tx,
            meter: Meter {
                stats: Arc::new(WireStats::default()),
                clock: Arc::clone(clock),
            },
            log: Some(Arc::clone(&log.sends)),
        })
    } else {
        tx
    };
    ShardTransport::from_halves(
        tx,
        Box::new(ResumeWatch {
            inner: rx,
            log: Arc::clone(log),
            clock: Arc::clone(clock),
        }),
    )
}

struct ResumeWatch {
    inner: Box<dyn ShardRx>,
    log: Arc<ProducerLog>,
    clock: Arc<dyn Clock>,
}

impl ShardRx for ResumeWatch {
    fn recv(&mut self, timeout: Duration) -> io::Result<Option<Vec<u8>>> {
        let result = self.inner.recv(timeout);
        if let Ok(Some(payload)) = &result {
            if self.log.resume_ns.load(Ordering::Relaxed) == 0
                && matches!(Msg::decode(payload), Some(Msg::Resume { .. }))
            {
                // The clock's epoch is the pass start, so a real
                // reading is never 0.
                let now = self.clock.now_ns().max(1);
                self.log.resume_ns.store(now, Ordering::Relaxed);
            }
        }
        result
    }

    fn wire_faults(&self) -> u64 {
        self.inner.wire_faults()
    }
}
