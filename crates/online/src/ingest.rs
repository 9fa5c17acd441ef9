//! Bounded-channel event ingestion: the parallel ingest front end
//! ([`ParallelScanner`]) feeding a consumer through an explicit
//! backpressure policy.
//!
//! A splitter thread cuts the byte stream (NDJSON or `ees.event.v1`
//! binary, sniffed from its first bytes) into independent chunks,
//! `readers` parser threads parse them, and a sequencer thread restores
//! stream order and pushes records in batches into a bounded queue.
//! When the consumer (the daemon applying plans, or a migration stalling
//! it) falls behind, the queue fills and the configured
//! [`OverflowPolicy`] decides: **block** the producer (lossless, the
//! default — correct when replaying a file) or **drop the newest** events
//! (bounded memory and latency — what a live tap must do, since blocking
//! the tapped application would defeat the point of *cooperating* with
//! it). Drops are counted per *event*, never silent. One reader is the
//! degenerate case of the same front end.
//!
//! Two input shapes, same queue, [`BatchPool`] recycling and accounting:
//!
//! * [`spawn_reader_parallel`] — any buffered byte stream (a pipe,
//!   stdin, a file the platform cannot map); transient read errors are
//!   absorbed by a [`RetryingReader`];
//! * [`spawn_reader_parallel_mapped`] — an in-memory trace, typically an
//!   mmap'd file, split zero-copy.
//!
//! Both expose **live** progress through a shared [`IngestCounters`]: the
//! consumer (or a status thread) can read accepted/dropped totals while
//! the producer is still running, not just from the join-handle stats
//! after the stream ends.

use crate::frontend::ParallelScanner;
use ees_iotrace::LogicalIoRecord;
use std::io::{BufRead, Read};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, sync_channel, Receiver, Sender, SyncSender, TrySendError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Transient-error retries before a read is declared failed.
const RETRY_ATTEMPTS: u32 = 8;
/// First retry backoff; doubles per attempt (50µs … 6.4ms ≈ 12.75ms
/// total worst case).
const RETRY_BASE: Duration = Duration::from_micros(50);

/// A [`BufRead`] adapter that absorbs transient read errors
/// (`WouldBlock` / `TimedOut` — what a live tap over a non-blocking pipe
/// or a stalling FUSE mount surfaces) with bounded exponential backoff,
/// instead of letting one stall kill the whole ingest thread. After
/// [`RETRY_ATTEMPTS`] consecutive failures the last error propagates;
/// any successful read resets the budget.
///
/// `std`'s readers auto-retry only [`ErrorKind::Interrupted`](std::io::ErrorKind::Interrupted),
/// so without this adapter a single `EAGAIN` aborts the stream.
#[derive(Debug)]
pub struct RetryingReader<R> {
    inner: R,
    /// Transient errors absorbed so far (for diagnostics).
    retried: u64,
}

impl<R: BufRead> RetryingReader<R> {
    /// Wraps `inner` with transient-error retry.
    pub fn new(inner: R) -> Self {
        RetryingReader { inner, retried: 0 }
    }

    /// Transient read errors absorbed so far.
    pub fn retries(&self) -> u64 {
        self.retried
    }

    fn with_retry<T>(
        retried: &mut u64,
        mut op: impl FnMut() -> std::io::Result<T>,
    ) -> std::io::Result<T> {
        let mut backoff = RETRY_BASE;
        let mut last_err = None;
        for attempt in 0..=RETRY_ATTEMPTS {
            match op() {
                Ok(v) => return Ok(v),
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) && attempt < RETRY_ATTEMPTS =>
                {
                    *retried += 1;
                    std::thread::sleep(backoff);
                    backoff *= 2;
                    last_err = Some(e);
                }
                Err(e) => return Err(e),
            }
        }
        Err(last_err.expect("loop exits early unless a transient error was seen"))
    }
}

impl<R: BufRead> Read for RetryingReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let inner = &mut self.inner;
        Self::with_retry(&mut self.retried, || inner.read(buf))
    }
}

impl<R: BufRead> BufRead for RetryingReader<R> {
    fn fill_buf(&mut self) -> std::io::Result<&[u8]> {
        // Polonius-shaped workaround: probe with retry (dropping the
        // borrow each round), then hand out the buffer once it is known
        // to be ready.
        Self::with_retry(&mut self.retried, || self.inner.fill_buf().map(|_| ()))?;
        self.inner.fill_buf()
    }

    fn consume(&mut self, amt: usize) {
        self.inner.consume(amt)
    }
}

/// What the producer does when the queue is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OverflowPolicy {
    /// Wait for the consumer: every event is delivered, the producer
    /// stalls.
    #[default]
    Block,
    /// Discard the incoming event(s) and count them: the producer never
    /// stalls, the consumer sees a gap.
    DropNewest,
}

/// Producer-side counters, returned when the reader thread finishes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IngestStats {
    /// Events parsed and delivered into the queue.
    pub accepted: u64,
    /// Events discarded by [`OverflowPolicy::DropNewest`].
    pub dropped: u64,
}

/// Live, shared ingest counters: the producer bumps them as events flow,
/// so any holder of the `Arc` can watch progress mid-run. The counts are
/// per **event** — a dropped batch of 64 records adds 64 to `dropped`.
#[derive(Debug, Default)]
pub struct IngestCounters {
    accepted: AtomicU64,
    dropped: AtomicU64,
    recycled: AtomicU64,
    chunks: AtomicU64,
}

impl IngestCounters {
    /// Events parsed and delivered so far.
    pub fn accepted(&self) -> u64 {
        self.accepted.load(Ordering::Relaxed)
    }

    /// Events discarded by [`OverflowPolicy::DropNewest`] so far.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Batch buffers refilled from the recycle pool instead of freshly
    /// allocated. Timing-dependent:
    /// how many returns arrive before the producer needs a buffer varies
    /// run to run, so this is diagnostics, not part of [`IngestStats`].
    pub fn recycled(&self) -> u64 {
        self.recycled.load(Ordering::Relaxed)
    }

    /// Chunks the parallel front end's sequencer has re-ordered so far —
    /// newline chunks for NDJSON, framed blocks for blocked binary,
    /// serial batches for unframed binary. Zero on socket ingest.
    pub fn chunks(&self) -> u64 {
        self.chunks.load(Ordering::Relaxed)
    }

    /// A point-in-time copy of both counters.
    pub fn snapshot(&self) -> IngestStats {
        IngestStats {
            accepted: self.accepted(),
            dropped: self.dropped(),
        }
    }

    /// Producer-side bump, shared with the net-ingest merger.
    pub(crate) fn add_accepted(&self, n: u64) {
        self.accepted.fetch_add(n, Ordering::Relaxed);
    }

    /// Recycle-pool hit bump, shared with the net-ingest merger.
    pub(crate) fn add_recycled(&self, n: u64) {
        self.recycled.fetch_add(n, Ordering::Relaxed);
    }
}

/// Consumer-side handle for returning drained batch buffers to the
/// producer spawned by [`spawn_reader_parallel`] (or its mapped and
/// socket siblings). Recycling is strictly an optimization: dropping the
/// handle (or never calling [`recycle`](Self::recycle)) just means the
/// producer allocates a fresh buffer per batch.
#[derive(Debug, Clone)]
pub struct BatchPool {
    returns: Sender<Vec<LogicalIoRecord>>,
}

impl BatchPool {
    /// Wraps a return channel (the net-ingest merger builds its own).
    pub(crate) fn new(returns: Sender<Vec<LogicalIoRecord>>) -> Self {
        BatchPool { returns }
    }

    /// Hands a drained batch buffer back for reuse. The producer clears
    /// it before refilling, so returning a non-empty buffer is safe (its
    /// leftover records are discarded, not re-delivered).
    pub fn recycle(&self, buf: Vec<LogicalIoRecord>) {
        // A closed return channel means the producer exited; the buffer
        // just deallocates.
        let _ = self.returns.send(buf);
    }
}

/// What [`spawn_reader_parallel`] hands back: the batch stream, the
/// recycle pool, the live counters, and the reader-thread handle.
pub type PooledReader = (
    Receiver<Vec<LogicalIoRecord>>,
    BatchPool,
    Arc<IngestCounters>,
    JoinHandle<std::io::Result<IngestStats>>,
);

/// Spawns the ingest front end over `input`: `readers` parser threads
/// (at least one, [`ParallelScanner`]) and a sequencer thread that
/// delivers records in stream order, in batches of up to `batch`, into a
/// queue of `capacity` **batches** under `policy` — so the queue bounds
/// memory at `capacity × batch` records. Every record the sequencer
/// pulls from the scanner ends up in exactly one counter: accepted on
/// delivery; dropped on overflow (a rejected batch counts its events,
/// not one batch), on consumer hang-up (the in-flight batch and the
/// rest of its chunk), or on a stream error (the partial batch that
/// never flushed). A partial batch at end of stream is flushed; under
/// [`OverflowPolicy::Block`] so is one left when the source goes quiet
/// (a live writer between lines), so a tap never holds records back
/// waiting for `batch` more. The
/// join handle carries the final counters or the first error, with the
/// serial reader's text (`line N: …`). `chunk_bytes == 0` selects the
/// default chunk target.
pub fn spawn_reader_parallel<R>(
    input: R,
    capacity: usize,
    batch: usize,
    policy: OverflowPolicy,
    readers: usize,
    chunk_bytes: usize,
) -> PooledReader
where
    R: BufRead + Send + 'static,
{
    let batch = batch.max(1);
    let (tx, rx) = sync_channel::<Vec<LogicalIoRecord>>(capacity.max(1));
    let (return_tx, return_rx) = channel::<Vec<LogicalIoRecord>>();
    let counters = Arc::new(IngestCounters::default());
    let live = Arc::clone(&counters);
    let handle = std::thread::spawn(move || {
        // The parser pool lives inside this thread's scope: the input
        // only needs to be `Send`, and the pool winds down when the
        // sequencer returns (clean end, error, or consumer hang-up).
        std::thread::scope(|scope| {
            let mut scanner =
                ParallelScanner::spawn(scope, RetryingReader::new(input), readers, chunk_bytes);
            sequence_batches(&mut scanner, &tx, &return_rx, &live, batch, policy)
        })
    });
    (rx, BatchPool { returns: return_tx }, counters, handle)
}

/// [`spawn_reader_parallel`] over an in-memory trace — anything that
/// derefs to `[u8]`, typically an [`Mmap`](ees_iotrace::mmap::Mmap) —
/// so the splitter hands parser threads borrowed chunks (or framed
/// binary blocks) straight out of the mapping, zero-copy. Semantics,
/// ordering, and accounting are identical to the streamed variant.
pub fn spawn_reader_parallel_mapped<B>(
    bytes: B,
    capacity: usize,
    batch: usize,
    policy: OverflowPolicy,
    readers: usize,
    chunk_bytes: usize,
) -> PooledReader
where
    B: std::ops::Deref<Target = [u8]> + Send + 'static,
{
    let batch = batch.max(1);
    let (tx, rx) = sync_channel::<Vec<LogicalIoRecord>>(capacity.max(1));
    let (return_tx, return_rx) = channel::<Vec<LogicalIoRecord>>();
    let counters = Arc::new(IngestCounters::default());
    let live = Arc::clone(&counters);
    let handle = std::thread::spawn(move || {
        // The mapping moves into this thread whole; the scope below
        // lets the parser pool borrow slices of it.
        std::thread::scope(|scope| {
            let mut scanner = ParallelScanner::spawn_slice(scope, &bytes, readers, chunk_bytes);
            sequence_batches(&mut scanner, &tx, &return_rx, &live, batch, policy)
        })
    });
    (rx, BatchPool { returns: return_tx }, counters, handle)
}

/// The sequencer half shared by the parallel reader spawns: walks the
/// re-sequenced chunk stream, batches records, and keeps the exact
/// `accepted + dropped == sequenced` accounting.
fn sequence_batches(
    scanner: &mut ParallelScanner<'_>,
    tx: &SyncSender<Vec<LogicalIoRecord>>,
    return_rx: &Receiver<Vec<LogicalIoRecord>>,
    live: &IngestCounters,
    batch: usize,
    policy: OverflowPolicy,
) -> std::io::Result<IngestStats> {
    let mut buf: Vec<LogicalIoRecord> = Vec::with_capacity(batch);
    let mut disconnected = false;
    let next_buf = || match return_rx.try_recv() {
        Ok(mut recycled) => {
            live.recycled.fetch_add(1, Ordering::Relaxed);
            recycled.clear();
            recycled
        }
        Err(_) => Vec::with_capacity(batch),
    };
    // Accepted on delivery; dropped on overflow, hang-up, or a stream
    // error that strands the partial batch.
    let flush = |buf: &mut Vec<LogicalIoRecord>, disconnected: &mut bool| {
        if buf.is_empty() {
            return;
        }
        let n = buf.len() as u64;
        if *disconnected {
            buf.clear();
            live.dropped.fetch_add(n, Ordering::Relaxed);
            return;
        }
        let full = std::mem::take(buf);
        match policy {
            OverflowPolicy::Block => {
                if tx.send(full).is_err() {
                    *disconnected = true;
                    live.dropped.fetch_add(n, Ordering::Relaxed);
                } else {
                    live.accepted.fetch_add(n, Ordering::Relaxed);
                }
            }
            OverflowPolicy::DropNewest => match tx.try_send(full) {
                Ok(()) => {
                    live.accepted.fetch_add(n, Ordering::Relaxed);
                }
                Err(TrySendError::Full(rejected)) => {
                    // The rejected buffer comes straight back — reuse
                    // it as the next batch.
                    live.dropped.fetch_add(n, Ordering::Relaxed);
                    *buf = rejected;
                    buf.clear();
                }
                Err(TrySendError::Disconnected(_)) => {
                    *disconnected = true;
                    live.dropped.fetch_add(n, Ordering::Relaxed);
                }
            },
        }
        if buf.capacity() == 0 {
            *buf = next_buf();
        }
    };
    loop {
        let chunk = match scanner.next_ordered() {
            Ok(Some(chunk)) => chunk,
            Ok(None) => break,
            Err(e) => {
                live.dropped.fetch_add(buf.len() as u64, Ordering::Relaxed);
                return Err(e);
            }
        };
        live.chunks.fetch_add(1, Ordering::Relaxed);
        let mut records = chunk.records.into_iter();
        for rec in records.by_ref() {
            buf.push(rec);
            if buf.len() >= batch {
                flush(&mut buf, &mut disconnected);
                if disconnected {
                    break;
                }
            }
        }
        if disconnected {
            // Consumer hang-up mid-chunk: the records the
            // sequencer already pulled but will never deliver
            // count dropped, like the in-flight batch.
            live.dropped
                .fetch_add(records.len() as u64, Ordering::Relaxed);
            break;
        }
        if let Some(err) = chunk.error {
            // The partial batch dies with the stream — count it.
            live.dropped.fetch_add(buf.len() as u64, Ordering::Relaxed);
            return Err(err.to_io_error());
        }
        // A live writer gone quiet: the chunk ended where the source had
        // nothing more ready and nothing further is parsed, so deliver
        // the partial batch now rather than when the writer resumes.
        // `DropNewest` keeps its exact batch boundaries.
        if policy == OverflowPolicy::Block
            && chunk.source_drained
            && !buf.is_empty()
            && !scanner.next_ready()
        {
            flush(&mut buf, &mut disconnected);
            if disconnected {
                break;
            }
        }
    }
    flush(&mut buf, &mut disconnected);
    Ok(live.snapshot())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ees_iotrace::ndjson::EventReader;
    use std::io::Cursor;
    use std::sync::mpsc::RecvTimeoutError;

    fn line(ts: u64) -> String {
        format!("{{\"ts\":{ts},\"item\":1,\"offset\":0,\"len\":4096,\"kind\":\"Read\"}}\n")
    }

    /// Spawns the front end over an in-memory copy of `input`.
    fn spawn(
        input: &str,
        capacity: usize,
        batch: usize,
        policy: OverflowPolicy,
        readers: usize,
        chunk_bytes: usize,
    ) -> PooledReader {
        spawn_reader_parallel(
            Cursor::new(input.to_string()),
            capacity,
            batch,
            policy,
            readers,
            chunk_bytes,
        )
    }

    #[test]
    fn parallel_reader_matches_serial_on_unterminated_crlf_input() {
        // CRLF endings, comments, blank lines, and no trailing newline —
        // the chunk-boundary edge cases. Every reader count must deliver
        // the records an inline `EventReader` parses, with exact
        // counters: the unterminated final line parsed exactly once,
        // never dropped or doubled.
        let mut input = String::from("# header\r\n");
        for i in 0..97 {
            input.push_str(line(i * 1000).trim_end());
            input.push_str(if i % 3 == 0 { "\r\n" } else { "\n" });
            if i % 10 == 0 {
                input.push_str("\r\n");
            }
        }
        input.push_str(line(97_000).trim_end()); // no trailing newline
        let serial: Vec<LogicalIoRecord> = EventReader::new(Cursor::new(input.clone()))
            .collect::<std::io::Result<_>>()
            .unwrap();
        for (readers, chunk) in [(1, 0), (1, 48), (2, 48), (4, 17)] {
            let (rx, pool, counters, handle) =
                spawn(&input, 64, 8, OverflowPolicy::Block, readers, chunk);
            let mut got = Vec::new();
            for mut batch in rx.iter() {
                got.append(&mut batch);
                pool.recycle(batch);
            }
            let stats = handle.join().unwrap().unwrap();
            assert_eq!(got, serial, "readers={readers} chunk={chunk}");
            assert_eq!(
                stats,
                IngestStats {
                    accepted: 98,
                    dropped: 0
                },
                "unterminated last line counted once"
            );
            assert_eq!(counters.snapshot(), stats, "live counters match finals");
        }
    }

    #[test]
    fn parallel_reader_reports_the_serial_error_line() {
        // The error line number must be absolute and identical to the
        // serial reader's, no matter how chunks split around it. The 37
        // good records fill four batches of 8; the partial fifth batch
        // dies with the stream and is counted dropped, not lost.
        let mut input: String = (0..37).map(|i| line(i * 1000)).collect();
        input.push_str("not json\n");
        input.push_str(&line(38_000));
        for (readers, chunk) in [(1, 0), (1, 16), (2, 16), (4, 64), (4, 1)] {
            let (rx, _pool, counters, handle) =
                spawn(&input, 64, 8, OverflowPolicy::Block, readers, chunk);
            let delivered = rx.iter().map(|b| b.len() as u64).sum::<u64>();
            let err = handle.join().unwrap().unwrap_err();
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
            assert!(
                err.to_string().starts_with("line 38: "),
                "readers={readers} chunk={chunk}: {err}"
            );
            assert_eq!(delivered, counters.accepted());
            assert_eq!(counters.accepted(), 32, "readers={readers} chunk={chunk}");
            assert_eq!(counters.dropped(), 5, "partial batch counted dropped");
        }
    }

    #[test]
    fn parallel_drop_newest_keeps_exact_event_accounting() {
        // Regression pin: 100 events in batches of 8 against a 4-batch
        // queue the consumer never drains. The first 4 batches (32
        // events) are accepted; the remaining 8 full batches and the
        // final partial batch of 4 are dropped — 68 *events*, which a
        // per-batch count would have reported as 9. Rejected batches
        // reuse the returned buffer, which must not perturb the count.
        // The sequencer is the only thread touching the queue, so the
        // split is deterministic at any reader count.
        let input: String = (0..100).map(|i| line(i * 1000)).collect();
        for (readers, chunk) in [(1, 0), (1, 32), (4, 32)] {
            let (rx, pool, counters, handle) =
                spawn(&input, 4, 8, OverflowPolicy::DropNewest, readers, chunk);
            let stats = handle.join().unwrap().unwrap();
            assert_eq!(stats.accepted, 32, "readers={readers}");
            assert_eq!(stats.dropped, 68, "readers={readers}");
            let mut delivered = 0;
            for batch in rx.iter() {
                delivered += batch.len();
                pool.recycle(batch);
            }
            assert_eq!(delivered, 32);
            assert_eq!(counters.accepted() + counters.dropped(), 100);
        }
    }

    #[test]
    fn parallel_consumer_hangup_counts_inflight_events_dropped() {
        // Capacity 1 and a consumer that never drains: the first batch
        // fills the queue slot, the second blocks in `send`. Dropping the
        // receiver fails that blocked send — the in-flight batch must be
        // counted dropped, not lost. One-line chunks (`chunk_bytes` 1)
        // mean the sequencer has pulled exactly the 16 records of the
        // two batches, so the invariant accepted + dropped == sequenced
        // pins both counts.
        let input: String = (0..20).map(|i| line(i * 1000)).collect();
        for readers in [1, 4] {
            let (rx, _pool, counters, handle) =
                spawn(&input, 1, 8, OverflowPolicy::Block, readers, 1);
            // Wait for batch 1 to be accepted so batch 2 is the one that
            // hits the hang-up; otherwise the outcome races with `drop`.
            while counters.accepted() < 8 {
                std::thread::yield_now();
            }
            drop(rx);
            let stats = handle.join().unwrap().unwrap();
            assert_eq!(stats.accepted, 8, "readers={readers}");
            assert_eq!(stats.dropped, 8, "in-flight batch counted, not lost");
        }
    }

    #[test]
    fn parallel_reader_recycles_buffers() {
        // Lock-step consumption: drain one batch, hand the buffer back,
        // repeat. After the first round trip the sequencer should be
        // refilling recycled buffers, and delivery must stay lossless
        // and ordered.
        let input: String = (0..400).map(|i| line(i * 1000)).collect();
        for (readers, chunk) in [(1, 256), (2, 256), (4, 256)] {
            let (rx, pool, counters, handle) =
                spawn(&input, 2, 8, OverflowPolicy::Block, readers, chunk);
            let mut got = Vec::new();
            for mut batch in rx.iter() {
                got.append(&mut batch);
                pool.recycle(batch);
            }
            assert_eq!(got.len(), 400);
            assert!(got.windows(2).all(|w| w[0].ts <= w[1].ts));
            let stats = handle.join().unwrap().unwrap();
            assert_eq!(
                stats,
                IngestStats {
                    accepted: 400,
                    dropped: 0
                }
            );
            assert!(
                counters.recycled() > 0,
                "lock-step consumer must feed the pool (readers={readers})"
            );
        }
    }

    /// A live tap: bytes arrive over a channel, and a read blocks until
    /// the next write — or returns end of input once the writer hangs up.
    struct ChannelReader {
        rx: Receiver<Vec<u8>>,
        pending: Vec<u8>,
        pos: usize,
    }

    impl Read for ChannelReader {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if self.pos == self.pending.len() {
                match self.rx.recv() {
                    Ok(bytes) => {
                        self.pending = bytes;
                        self.pos = 0;
                    }
                    Err(_) => return Ok(0),
                }
            }
            let n = buf.len().min(self.pending.len() - self.pos);
            buf[..n].copy_from_slice(&self.pending[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    #[test]
    fn live_pipe_batches_arrive_before_the_writer_finishes() {
        // A full batch (64 lines) or a partial one (5 of 64), then the
        // writer goes quiet without hanging up. A tap must see them as
        // one batch right away, not after the stream (or a full chunk
        // target, or the rest of the batch) arrives; the timeout turns a
        // stuck front end into a failure instead of a hung test.
        for (n, readers) in [(64, 1), (64, 4), (5, 1), (5, 4)] {
            let lines: String = (0..n).map(|i| line(i * 1000)).collect();
            let (tx, rx) = channel::<Vec<u8>>();
            tx.send(lines.into_bytes()).unwrap();
            let tap = ChannelReader {
                rx,
                pending: Vec::new(),
                pos: 0,
            };
            let (batches, _pool, _counters, handle) = spawn_reader_parallel(
                std::io::BufReader::new(tap),
                4,
                64,
                OverflowPolicy::Block,
                readers,
                0,
            );
            let first = batches.recv_timeout(Duration::from_secs(10));
            // Hang up the writer either way so the reader thread ends.
            drop(tx);
            let first = match first {
                Ok(batch) => batch,
                Err(RecvTimeoutError::Timeout) => {
                    panic!("n={n} readers={readers}: no batch while the writer was idle")
                }
                Err(RecvTimeoutError::Disconnected) => {
                    panic!("n={n} readers={readers}: front end ended early")
                }
            };
            assert_eq!(first.len(), n as usize, "n={n} readers={readers}");
            assert_eq!(first[n as usize - 1].ts.0, (n - 1) * 1000);
            assert_eq!(batches.iter().count(), 0, "nothing after the first batch");
            assert_eq!(handle.join().unwrap().unwrap().accepted, n);
        }
    }

    /// A reader that surfaces `WouldBlock` before every buffer refill —
    /// the shape of a live tap over a non-blocking pipe: bytes already
    /// buffered never stall, fetching fresh bytes (after a `consume`)
    /// may.
    struct StallingReader {
        inner: Cursor<String>,
        stall_next: bool,
    }

    impl std::io::Read for StallingReader {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let available = self.fill_buf()?;
            let n = available.len().min(buf.len());
            buf[..n].copy_from_slice(&available[..n]);
            self.consume(n);
            Ok(n)
        }
    }

    impl BufRead for StallingReader {
        fn fill_buf(&mut self) -> std::io::Result<&[u8]> {
            if self.stall_next {
                self.stall_next = false;
                return Err(std::io::Error::new(
                    std::io::ErrorKind::WouldBlock,
                    "injected reader stall",
                ));
            }
            self.inner.fill_buf()
        }

        fn consume(&mut self, amt: usize) {
            self.stall_next = true;
            self.inner.consume(amt)
        }
    }

    #[test]
    fn retrying_reader_absorbs_transient_stalls() {
        let input: String = (0..50).map(|i| line(i * 1000)).collect();
        for readers in [1, 4] {
            let stalling = StallingReader {
                inner: Cursor::new(input.clone()),
                stall_next: true,
            };
            let (rx, _pool, _counters, handle) =
                spawn_reader_parallel(stalling, 16, 8, OverflowPolicy::Block, readers, 0);
            assert_eq!(
                rx.iter().flatten().count(),
                50,
                "stalls must not lose events"
            );
            let stats = handle.join().unwrap().unwrap();
            assert_eq!(stats.accepted, 50);
        }
    }

    /// A reader that never becomes ready.
    struct DeadReader;

    impl std::io::Read for DeadReader {
        fn read(&mut self, _buf: &mut [u8]) -> std::io::Result<usize> {
            Err(std::io::Error::new(
                std::io::ErrorKind::WouldBlock,
                "stuck forever",
            ))
        }
    }

    impl BufRead for DeadReader {
        fn fill_buf(&mut self) -> std::io::Result<&[u8]> {
            Err(std::io::Error::new(
                std::io::ErrorKind::WouldBlock,
                "stuck forever",
            ))
        }

        fn consume(&mut self, _amt: usize) {}
    }

    #[test]
    fn retrying_reader_gives_up_after_bounded_attempts() {
        let mut r = RetryingReader::new(DeadReader);
        let err = r.fill_buf().unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::WouldBlock);
        assert_eq!(r.retries(), RETRY_ATTEMPTS as u64, "budget is bounded");
    }
}
