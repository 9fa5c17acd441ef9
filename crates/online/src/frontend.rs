//! The parallel ingest front end: format-sniffing split of the byte
//! stream, a pool of parser threads, and an in-order re-sequencer. It is
//! the only threaded NDJSON/binary ingest path; one parser thread is its
//! degenerate case.
//!
//! A front end that parses every event on one thread starves the
//! classification shards behind one parser (the `BENCH_online.json`
//! seed run measured 1.17× serial at 4 shards). This module splits the
//! work the only way that keeps plans byte-identical to the serial
//! controller:
//!
//! * a **splitter** thread sniffs the input format once
//!   ([`sniff_format`]) and cuts the stream into independent work items:
//!   newline-aligned line runs for NDJSON ([`ChunkReader`] /
//!   [`SliceChunker`]) or self-contained framed `ees.event.v1` block
//!   payloads ([`BlockSplitter`] or the streamed equivalent) — a record
//!   crossing a cut boundary is impossible by construction in both
//!   formats, so every record is parsed exactly once;
//! * `readers` **parser** threads pull work from a shared queue and run
//!   the full per-record front end — line parsing ([`parse_canonical`]
//!   on the exact `format_event` layout, else [`parse_event_borrowed`])
//!   or block decoding ([`decode_block`]) —
//!   producing a [`ParsedChunk`] each: records in stream order, plus at
//!   most one error where decoding must stop;
//! * the consumer re-sequences completed chunks by their dense `seq`
//!   through [`ParallelScanner`], so it walks records in **exact stream
//!   order** even though chunks finish out of order. Item names bound by
//!   binary Define records are resolved here, in stream order, so the
//!   interner's id assignment is a function of the event stream alone —
//!   never of parser scheduling.
//!
//! Sequencing is the consumer's whole job: the coordinator that folds
//! records decides period cuts on the re-sequenced stream, which is what
//! makes the plan sequence — and the reported error position —
//! byte-identical to a serial reader by construction. Errors
//! are carried *in-band* at their position in the stream: a parse error
//! in chunk 7 surfaces only after every record of chunks 0..=7 that
//! precedes it has been delivered, exactly as a serial reader would
//! have.
//!
//! Input arrives either as a [`Read`] stream or, zero-copy, as an
//! in-memory slice ([`ScanSource::Slice`], typically an mmap'd trace
//! file): slice chunks and block payloads are borrowed straight from the
//! mapping, so parser threads decode out of the page cache without a
//! single copy. Unframed binary streams have no parallel cut points;
//! the splitter decodes them serially and feeds the sequencer directly,
//! preserving the exact record semantics at serial-decode speed.
//!
//! During a rollover the coordinator must not fold records, but the
//! parsers should not go idle either: [`ParallelScanner::stage_one`]
//! parks on the parser channel **with a timeout** (never a spin) and
//! stages completed chunks into the reorder buffer, bounded by a record
//! cap, so the cut overlaps with parsing instead of stalling it.

use ees_iotrace::chunk::{ChunkReader, ChunkRef, RawChunk, SliceChunker, DEFAULT_CHUNK_BYTES};
use ees_iotrace::ndjson::{parse_canonical, parse_event_borrowed};
use ees_iotrace::wire::{
    decode_block, sniff_format, BinaryEventReader, BlockSplitter, NamedEvent, StreamFormat,
    WireRecord, MAX_BLOCK_BYTES, TAG_BLOCK,
};
use ees_iotrace::{DataItemId, LogicalIoRecord};
use std::cell::Cell;
use std::collections::{BTreeMap, HashMap};
use std::io::Read;
use std::sync::mpsc::{sync_channel, Receiver, RecvTimeoutError, SyncSender, TryRecvError};
use std::sync::{Arc, Mutex};
use std::thread::{Scope, ScopedJoinHandle};
use std::time::Duration;

/// Raw work items queued per parser thread (splitter → parsers).
const WORK_DEPTH_PER_READER: usize = 2;
/// Parsed chunks queued per parser thread (parsers → consumer). The
/// reorder buffer is bounded by the sum of both queue depths plus one
/// in-hand chunk per thread, so the front end's memory is
/// `O(readers × chunk)` regardless of input size.
const OUT_DEPTH_PER_READER: usize = 4;

/// Records per pseudo-chunk on the unframed-binary path, where the
/// splitter decodes serially (no parallel cut points exist) and feeds
/// the sequencer directly.
const SERIAL_BATCH: usize = 4096;

/// How long [`ParallelScanner::stage_one`] parks waiting for a parsed
/// chunk while a cut is in flight. Short enough that `rollover_ready`
/// is re-polled well under the p99 stall bar, long enough that the
/// coordinator actually sleeps instead of spinning.
pub const CUT_PARK: Duration = Duration::from_micros(50);

/// Resolves an item name bound by a binary Define record to its global
/// dense id. Called by the sequencer in exact stream order, so the id
/// table an interner builds is a function of the event stream alone.
pub type NameResolver<'a> = Box<dyn FnMut(&str) -> Result<DataItemId, String> + Send + 'a>;

/// Where the front end had to stop, carried in-band at its stream
/// position so ordering (and the reported line or record number)
/// matches a serial reader exactly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChunkError {
    /// A line failed [`parse_event_borrowed`]; surfaces as the serial
    /// reader's `line N: msg` invalid-data error.
    Parse {
        /// Absolute 1-based line number of the offending line.
        lineno: u64,
        /// The parser's error message.
        msg: String,
    },
    /// A line was not valid UTF-8; surfaces with the same message
    /// `BufRead::read_line` produces on the serial path.
    Utf8,
    /// A binary wire record failed to decode (or name resolution
    /// failed); surfaces as the serial binary reader's `record N: msg`
    /// invalid-data error. Block decoders report the record number
    /// block-relative; the sequencer renumbers it to the absolute
    /// stream position ([`ParallelScanner::next_ordered`]).
    Record {
        /// 1-based wire-record number of the offending record.
        recno: u64,
        /// The decoder's error message.
        msg: String,
    },
    /// The underlying reader failed (after the splitter's transparent
    /// `Interrupted` retry), or the block framing itself was invalid;
    /// kind and message are preserved.
    Io {
        /// The original [`std::io::ErrorKind`].
        kind: std::io::ErrorKind,
        /// The original error's display form.
        msg: String,
    },
}

impl ChunkError {
    /// Renders the error exactly as a serial reader would have surfaced
    /// it.
    pub fn to_io_error(&self) -> std::io::Error {
        match self {
            ChunkError::Parse { lineno, msg } => std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("line {lineno}: {msg}"),
            ),
            ChunkError::Utf8 => std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                "stream did not contain valid UTF-8",
            ),
            ChunkError::Record { recno, msg } => std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("record {recno}: {msg}"),
            ),
            ChunkError::Io { kind, msg } => std::io::Error::new(*kind, msg.clone()),
        }
    }
}

/// One chunk through the full front end: events in stream order, then
/// (at most) the first error, after which the chunk's remaining input
/// is dropped — the consumer aborts there, exactly like a serial
/// reader.
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedChunk {
    /// The source chunk's dense sequence number (the re-sequencing key).
    pub seq: u64,
    /// Parsed records, in stream order, up to the first error.
    pub records: Vec<LogicalIoRecord>,
    /// Binary events whose item id is a wire-local Define binding still
    /// awaiting name resolution — consumed by the sequencer, which
    /// resolves them in stream order; empty once a chunk is handed to
    /// the caller.
    pub named: Vec<NamedEvent>,
    /// Wire records consumed producing this chunk (binary only) — the
    /// sequencer's base for absolute `record N:` error accounting.
    pub wire_records: u64,
    /// The first input the front end could not get past, if any.
    pub error: Option<ChunkError>,
    /// The splitter cut this chunk right after a read that came back
    /// short — a streamed NDJSON source had nothing more ready, so a live
    /// writer may have gone quiet. Always `false` for slices and binary.
    pub source_drained: bool,
}

impl ParsedChunk {
    fn empty(seq: u64) -> Self {
        ParsedChunk {
            seq,
            records: Vec::new(),
            named: Vec::new(),
            wire_records: 0,
            error: None,
            source_drained: false,
        }
    }
}

/// Runs the per-line front end over one raw chunk: canonical fast path,
/// else UTF-8 check, trim, blank/comment skip, full parse. Stops at the
/// first failure — the records after an error are never observable
/// downstream, matching the serial reader's abort-at-first-error shape.
pub fn parse_chunk(chunk: &RawChunk) -> ParsedChunk {
    parse_lines(chunk.seq, chunk.first_lineno, &chunk.bytes)
}

/// [`parse_chunk`] over any newline-aligned byte run (owned or borrowed
/// from an mmap'd slice).
///
/// Each raw line first tries [`parse_canonical`], which accepts only the
/// exact bytes `format_event` writes — what every NDJSON writer in the
/// workspace emits — in one straight pass. Any other line falls through
/// unchanged to the general route ([`parse_event_borrowed`] after the
/// UTF-8 check and trim), which owns every error message and line
/// number (DESIGN.md §20).
pub fn parse_lines(seq: u64, first_lineno: u64, bytes: &[u8]) -> ParsedChunk {
    let chunk = ChunkRef {
        seq,
        first_lineno,
        bytes,
    };
    let mut parsed = ParsedChunk::empty(seq);
    for (lineno, raw) in chunk.lines() {
        if let Some(rec) = parse_canonical(raw) {
            parsed.records.push(rec);
            continue;
        }
        let Ok(text) = std::str::from_utf8(raw) else {
            parsed.error = Some(ChunkError::Utf8);
            break;
        };
        let trimmed = text.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        match parse_event_borrowed(trimmed) {
            Ok(rec) => parsed.records.push(rec),
            Err(msg) => {
                parsed.error = Some(ChunkError::Parse { lineno, msg });
                break;
            }
        }
    }
    parsed
}

/// Decodes one framed `ees.event.v1` block payload ([`decode_block`])
/// into a [`ParsedChunk`]. Define-bound events keep their wire-local
/// item id here; the sequencer resolves the names in stream order.
pub fn parse_block(seq: u64, payload: &[u8]) -> ParsedChunk {
    let d = decode_block(payload);
    ParsedChunk {
        seq,
        records: d.events,
        named: d.named,
        wire_records: d.wire_records,
        error: d
            .error
            .map(|(recno, msg)| ChunkError::Record { recno, msg }),
        source_drained: false,
    }
}

/// Bytes handed from the splitter to a parser thread — owned when
/// streamed from a reader, borrowed straight out of an mmap'd slice.
enum WorkBytes<'env> {
    Owned(Vec<u8>),
    Borrowed(&'env [u8]),
}

impl WorkBytes<'_> {
    fn as_slice(&self) -> &[u8] {
        match self {
            WorkBytes::Owned(v) => v,
            WorkBytes::Borrowed(b) => b,
        }
    }
}

/// One unit of parser work.
enum WorkItem<'env> {
    /// A run of whole NDJSON lines (the [`RawChunk`] contract).
    Lines {
        seq: u64,
        first_lineno: u64,
        bytes: WorkBytes<'env>,
        /// See [`ParsedChunk::source_drained`].
        drained: bool,
    },
    /// One self-contained framed block payload.
    Block { seq: u64, bytes: WorkBytes<'env> },
}

enum FrontendMsg {
    Chunk(ParsedChunk),
    /// The splitter reached end of input (or an I/O error, already sent
    /// as an in-band error chunk) after emitting `chunks` chunks; the
    /// stream is complete once the consumer has re-sequenced that many.
    End {
        chunks: u64,
    },
}

/// The input side of the parallel front end: a byte stream of unknown
/// format, or an in-memory trace (typically an [`Mmap`]) the splitter
/// can slice without copying.
///
/// [`Mmap`]: ees_iotrace::mmap::Mmap
pub enum ScanSource<'env, R> {
    /// Any byte stream; the format is sniffed from its first bytes and
    /// chunk/block bytes are copied out as they stream in.
    Reader(R),
    /// An in-memory trace; NDJSON chunks and binary block payloads are
    /// borrowed from the slice — the zero-copy path.
    Slice(&'env [u8]),
}

/// The consumer half of the parallel front end: owns the reorder buffer
/// and hands back [`ParsedChunk`]s strictly in `seq` order, however the
/// parser pool interleaved them. Spawned inside a [`std::thread::scope`]
/// so the input reader only needs to be `Send`, not `'static`.
pub struct ParallelScanner<'scope> {
    rx: Receiver<FrontendMsg>,
    pending: BTreeMap<u64, ParsedChunk>,
    pending_records: usize,
    next_seq: u64,
    total: Option<u64>,
    resolver: Option<NameResolver<'scope>>,
    /// Wire records of all chunks already handed out — the renumbering
    /// base that turns block-relative `record N` errors absolute.
    seen_wire_records: u64,
    _threads: Vec<ScopedJoinHandle<'scope, ()>>,
}

impl<'scope> ParallelScanner<'scope> {
    /// Spawns the splitter and `readers` parser threads (both clamped to
    /// at least one) over `input`, cutting chunks of roughly
    /// `chunk_bytes` (`0` → [`DEFAULT_CHUNK_BYTES`]; framed binary
    /// blocks keep their encoded size).
    pub fn spawn<'env, R>(
        scope: &'scope Scope<'scope, 'env>,
        input: R,
        readers: usize,
        chunk_bytes: usize,
    ) -> Self
    where
        R: Read + Send + 'env,
    {
        Self::spawn_source(scope, ScanSource::Reader(input), readers, chunk_bytes)
    }

    /// [`spawn`](Self::spawn) over an in-memory trace: work items borrow
    /// from `bytes`, so an mmap'd file reaches the parsers zero-copy.
    pub fn spawn_slice<'env>(
        scope: &'scope Scope<'scope, 'env>,
        bytes: &'env [u8],
        readers: usize,
        chunk_bytes: usize,
    ) -> Self {
        Self::spawn_source(
            scope,
            ScanSource::<std::io::Empty>::Slice(bytes),
            readers,
            chunk_bytes,
        )
    }

    /// The general form behind [`spawn`](Self::spawn) and
    /// [`spawn_slice`](Self::spawn_slice).
    pub fn spawn_source<'env, R>(
        scope: &'scope Scope<'scope, 'env>,
        source: ScanSource<'env, R>,
        readers: usize,
        chunk_bytes: usize,
    ) -> Self
    where
        R: Read + Send + 'env,
    {
        let readers = readers.max(1);
        let chunk_bytes = if chunk_bytes == 0 {
            DEFAULT_CHUNK_BYTES
        } else {
            chunk_bytes
        };
        // Resolve the scan-kernel dispatch (feature detection plus the
        // `EES_SCAN_ISA` override) once, here on the spawning thread:
        // the splitter's newline cuts and every parser's field scans
        // then run on a settled function-pointer table, and any
        // misconfiguration warning prints before the pool starts.
        let _ = ees_iotrace::scan::scanner();
        let (work_tx, work_rx) = sync_channel::<WorkItem<'env>>(readers * WORK_DEPTH_PER_READER);
        // One extra slot so the splitter's `End` marker never deadlocks
        // behind a full parser pool.
        let (out_tx, out_rx) = sync_channel::<FrontendMsg>(readers * OUT_DEPTH_PER_READER + 1);
        let work_rx = Arc::new(Mutex::new(work_rx));
        let mut threads = Vec::with_capacity(readers + 1);
        for _ in 0..readers {
            let work = Arc::clone(&work_rx);
            let out = out_tx.clone();
            threads.push(scope.spawn(move || parser_loop(&work, &out)));
        }
        threads.push(scope.spawn(move || splitter_loop(source, chunk_bytes, &work_tx, &out_tx)));
        ParallelScanner {
            rx: out_rx,
            pending: BTreeMap::new(),
            pending_records: 0,
            next_seq: 0,
            total: None,
            resolver: None,
            seen_wire_records: 0,
            _threads: threads,
        }
    }

    /// Installs the name resolver for binary Define bindings. Without
    /// one, a named binary event is an in-band error — the NDJSON and
    /// numeric-binary paths never need a resolver.
    pub fn with_resolver(mut self, resolver: NameResolver<'scope>) -> Self {
        self.resolver = Some(resolver);
        self
    }

    fn absorb(&mut self, msg: FrontendMsg) {
        match msg {
            FrontendMsg::Chunk(c) => {
                self.pending_records += c.records.len();
                self.pending.insert(c.seq, c);
            }
            FrontendMsg::End { chunks } => self.total = Some(chunks),
        }
    }

    fn pop_ready(&mut self) -> Option<ParsedChunk> {
        let mut chunk = self.pending.remove(&self.next_seq)?;
        self.next_seq += 1;
        self.pending_records -= chunk.records.len();
        // Binary accounting happens here, at the only point with a
        // total order: renumber the block-relative decode error and
        // resolve Define-bound names in exact stream order.
        if let Some(ChunkError::Record { recno, .. }) = &mut chunk.error {
            *recno += self.seen_wire_records;
        }
        if !chunk.named.is_empty() {
            self.resolve_names(&mut chunk);
        }
        self.seen_wire_records += chunk.wire_records;
        Some(chunk)
    }

    fn resolve_names(&mut self, chunk: &mut ParsedChunk) {
        for n in std::mem::take(&mut chunk.named) {
            let resolved = match self.resolver.as_mut() {
                Some(resolve) => resolve(&n.name),
                None => Err(format!(
                    "item name \"{}\" needs a name resolver this ingest path does not provide",
                    n.name
                )),
            };
            match resolved {
                Ok(id) => chunk.records[n.index].item = id,
                Err(msg) => {
                    // Resolution fails *at* the event: keep everything
                    // before it, surface the error in its place (any
                    // later chunk error is unreachable past this one).
                    chunk.records.truncate(n.index);
                    chunk.error = Some(ChunkError::Record {
                        recno: self.seen_wire_records + n.record,
                        msg,
                    });
                    return;
                }
            }
        }
    }

    /// Blocks for the next chunk **in stream order**; `Ok(None)` is a
    /// clean end of input. `Err` only when a front-end thread died —
    /// in-stream failures arrive in-band as [`ParsedChunk::error`].
    pub fn next_ordered(&mut self) -> std::io::Result<Option<ParsedChunk>> {
        loop {
            if let Some(chunk) = self.pop_ready() {
                return Ok(Some(chunk));
            }
            if self.total == Some(self.next_seq) {
                return Ok(None);
            }
            match self.rx.recv() {
                Ok(msg) => self.absorb(msg),
                Err(_) => {
                    return Err(std::io::Error::other(
                        "parallel ingest front end lost a thread",
                    ))
                }
            }
        }
    }

    /// Non-blocking probe: whether [`next_ordered`](Self::next_ordered)
    /// would return at once — the next chunk in stream order is staged,
    /// the stream is complete, or the front end is gone. Absorbs every
    /// parsed chunk that has already arrived.
    pub fn next_ready(&mut self) -> bool {
        loop {
            if self.pending.contains_key(&self.next_seq) || self.total == Some(self.next_seq) {
                return true;
            }
            match self.rx.try_recv() {
                Ok(msg) => self.absorb(msg),
                Err(TryRecvError::Empty) => return false,
                Err(TryRecvError::Disconnected) => return true,
            }
        }
    }

    /// Read-ahead while a cut is in flight: park on the parser channel
    /// for at most `timeout` and stage one completed chunk into the
    /// reorder buffer. Once `cap_records` records are staged (or the
    /// stream has fully drained) it sleeps `timeout` instead, so the
    /// caller's `rollover_ready` poll loop never degenerates into a
    /// spin. Returns whether a chunk was staged.
    pub fn stage_one(&mut self, timeout: Duration, cap_records: usize) -> bool {
        if self.pending_records >= cap_records || self.total.is_some() {
            std::thread::sleep(timeout);
            return false;
        }
        match self.rx.recv_timeout(timeout) {
            Ok(msg) => {
                self.absorb(msg);
                true
            }
            Err(RecvTimeoutError::Timeout) => false,
            Err(RecvTimeoutError::Disconnected) => {
                std::thread::sleep(timeout);
                false
            }
        }
    }

    /// Records currently staged in the reorder buffer.
    pub fn staged_records(&self) -> usize {
        self.pending_records
    }

    /// Chunks handed out so far — line chunks, framed blocks, or
    /// serial-decode batches, whichever the sniffed format produced.
    pub fn chunks_delivered(&self) -> u64 {
        self.next_seq
    }
}

fn parser_loop(work: &Mutex<Receiver<WorkItem<'_>>>, out: &SyncSender<FrontendMsg>) {
    loop {
        // Holding the lock across `recv` is fine: with an empty queue
        // every parser ends up waiting either on the lock or in the one
        // `recv`, and whoever holds it releases as soon as an item (or
        // the splitter's hang-up) arrives.
        let item = {
            let guard = work.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
            match guard.recv() {
                Ok(item) => item,
                Err(_) => break,
            }
        };
        let parsed = match item {
            WorkItem::Lines {
                seq,
                first_lineno,
                bytes,
                drained,
            } => ParsedChunk {
                source_drained: drained,
                ..parse_lines(seq, first_lineno, bytes.as_slice())
            },
            WorkItem::Block { seq, bytes } => parse_block(seq, bytes.as_slice()),
        };
        if out.send(FrontendMsg::Chunk(parsed)).is_err() {
            break;
        }
    }
}

fn splitter_loop<'env, R: Read>(
    source: ScanSource<'env, R>,
    chunk_bytes: usize,
    work: &SyncSender<WorkItem<'env>>,
    out: &SyncSender<FrontendMsg>,
) {
    let chunks = match source {
        ScanSource::Reader(input) => split_reader(input, chunk_bytes, work, out),
        ScanSource::Slice(bytes) => split_slice(bytes, chunk_bytes, work, out),
    };
    let _ = out.send(FrontendMsg::End { chunks });
}

/// An I/O (or framing) error ends the stream at its exact position: an
/// empty chunk carrying the error keeps it ordered after every chunk
/// that was fully read.
fn send_error_chunk(out: &SyncSender<FrontendMsg>, seq: u64, error: ChunkError) {
    let mut chunk = ParsedChunk::empty(seq);
    chunk.error = Some(error);
    let _ = out.send(FrontendMsg::Chunk(chunk));
}

fn io_error(e: &std::io::Error) -> ChunkError {
    ChunkError::Io {
        kind: e.kind(),
        msg: e.to_string(),
    }
}

/// A streamed-framing violation, phrased exactly like [`BlockSplitter`]
/// phrases the same defect on the slice path.
fn framing_error(block: u64, msg: impl std::fmt::Display) -> ChunkError {
    ChunkError::Io {
        kind: std::io::ErrorKind::InvalidData,
        msg: format!("block {}: {msg}", block + 1),
    }
}

/// Reads up to `n` bytes, short only at end of input, retrying
/// `Interrupted` transparently — however few bytes each read returns, so
/// a format sniff over a trickling pipe sees the whole prefix.
pub fn read_up_to<R: Read>(input: &mut R, n: usize) -> std::io::Result<Vec<u8>> {
    let mut buf = vec![0u8; n];
    let mut got = 0;
    while got < n {
        match input.read(&mut buf[got..]) {
            Ok(0) => break,
            Ok(k) => got += k,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    buf.truncate(got);
    Ok(buf)
}

fn split_reader<'env, R: Read>(
    mut input: R,
    chunk_bytes: usize,
    work: &SyncSender<WorkItem<'env>>,
    out: &SyncSender<FrontendMsg>,
) -> u64 {
    // Sniff the format from the first four bytes, then hand the
    // (prefix + rest) stream to the matching splitter.
    let prefix = match read_up_to(&mut input, 4) {
        Ok(p) => p,
        Err(e) => {
            send_error_chunk(out, 0, io_error(&e));
            return 1;
        }
    };
    if sniff_format(&prefix) == StreamFormat::Ndjson {
        let short = Cell::new(false);
        let rejoined = ShortReads {
            inner: std::io::Cursor::new(prefix).chain(input),
            short: &short,
        };
        return split_ndjson_reader(ChunkReader::new(rejoined, chunk_bytes), &short, work, out);
    }
    // Binary: the tag after the magic decides framed vs unframed.
    let first_tag = match read_up_to(&mut input, 1) {
        Ok(t) => t,
        Err(e) => {
            send_error_chunk(out, 0, io_error(&e));
            return 1;
        }
    };
    match first_tag.first() {
        // A bare magic is a valid, empty event stream.
        None => 0,
        Some(&TAG_BLOCK) => split_framed_reader(input, work, out),
        Some(_) => decode_unframed(std::io::Cursor::new(first_tag).chain(input), out),
    }
}

/// A [`Read`] adapter that notes whether its latest read returned fewer
/// bytes than asked for: the source had nothing more ready. A
/// [`Cursor`](std::io::Cursor) reads short only at its end, so in-memory
/// input never looks drained mid-stream.
struct ShortReads<'a, R> {
    inner: R,
    short: &'a Cell<bool>,
}

impl<R: Read> Read for ShortReads<'_, R> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.short.set(n < buf.len());
        Ok(n)
    }
}

fn split_ndjson_reader<'env, R: Read>(
    mut reader: ChunkReader<R>,
    short: &Cell<bool>,
    work: &SyncSender<WorkItem<'env>>,
    out: &SyncSender<FrontendMsg>,
) -> u64 {
    let mut chunks = 0u64;
    loop {
        match reader.next_chunk() {
            Ok(Some(chunk)) => {
                chunks = chunk.seq + 1;
                let item = WorkItem::Lines {
                    seq: chunk.seq,
                    first_lineno: chunk.first_lineno,
                    bytes: WorkBytes::Owned(chunk.bytes),
                    drained: short.get(),
                };
                if work.send(item).is_err() {
                    // Consumer hung up; no one is left to sequence.
                    return chunks;
                }
            }
            Ok(None) => return chunks,
            Err(e) => {
                send_error_chunk(out, chunks, io_error(&e));
                return chunks + 1;
            }
        }
    }
}

/// Streams framed blocks off a reader: the magic and the first block's
/// tag are already consumed. Each block payload is read whole and fanned
/// out to the parser pool; framing defects surface with the same
/// `block N:` messages [`BlockSplitter`] uses.
fn split_framed_reader<'env, R: Read>(
    mut input: R,
    work: &SyncSender<WorkItem<'env>>,
    out: &SyncSender<FrontendMsg>,
) -> u64 {
    let mut seq = 0u64;
    loop {
        let header = match read_up_to(&mut input, 4) {
            Ok(h) => h,
            Err(e) => {
                send_error_chunk(out, seq, io_error(&e));
                return seq + 1;
            }
        };
        if header.len() < 4 {
            send_error_chunk(out, seq, framing_error(seq, "truncated block header"));
            return seq + 1;
        }
        let len = u32::from_le_bytes(header.try_into().unwrap()) as usize;
        if len > MAX_BLOCK_BYTES {
            let msg = format!("block length {len} exceeds {MAX_BLOCK_BYTES}");
            send_error_chunk(out, seq, framing_error(seq, msg));
            return seq + 1;
        }
        let payload = match read_up_to(&mut input, len) {
            Ok(p) => p,
            Err(e) => {
                send_error_chunk(out, seq, io_error(&e));
                return seq + 1;
            }
        };
        if payload.len() < len {
            let msg = format!(
                "block truncated ({} of {len} payload bytes present)",
                payload.len()
            );
            send_error_chunk(out, seq, framing_error(seq, msg));
            return seq + 1;
        }
        let item = WorkItem::Block {
            seq,
            bytes: WorkBytes::Owned(payload),
        };
        if work.send(item).is_err() {
            return seq + 1;
        }
        seq += 1;
        let tag = match read_up_to(&mut input, 1) {
            Ok(t) => t,
            Err(e) => {
                send_error_chunk(out, seq, io_error(&e));
                return seq + 1;
            }
        };
        match tag.first() {
            None => return seq,
            Some(&TAG_BLOCK) => continue,
            Some(&t) => {
                let msg = format!(
                    "expected a block header, found record tag 0x{t:02x} (unframed stream?)"
                );
                send_error_chunk(out, seq, framing_error(seq, msg));
                return seq + 1;
            }
        }
    }
}

fn split_slice<'env>(
    bytes: &'env [u8],
    chunk_bytes: usize,
    work: &SyncSender<WorkItem<'env>>,
    out: &SyncSender<FrontendMsg>,
) -> u64 {
    if sniff_format(bytes) == StreamFormat::Ndjson {
        let mut chunks = 0u64;
        for c in SliceChunker::new(bytes, chunk_bytes) {
            chunks = c.seq + 1;
            let item = WorkItem::Lines {
                seq: c.seq,
                first_lineno: c.first_lineno,
                bytes: WorkBytes::Borrowed(c.bytes),
                drained: false,
            };
            if work.send(item).is_err() {
                return chunks;
            }
        }
        return chunks;
    }
    if ees_iotrace::wire::is_framed(bytes) {
        let mut splitter = match BlockSplitter::new(bytes) {
            Ok(s) => s,
            Err(e) => {
                send_error_chunk(out, 0, io_error(&e));
                return 1;
            }
        };
        let mut seq = 0u64;
        loop {
            match splitter.next() {
                None => return seq,
                Some(Ok(payload)) => {
                    let item = WorkItem::Block {
                        seq,
                        bytes: WorkBytes::Borrowed(payload),
                    };
                    if work.send(item).is_err() {
                        return seq + 1;
                    }
                    seq += 1;
                }
                Some(Err(e)) => {
                    send_error_chunk(out, seq, io_error(&e));
                    return seq + 1;
                }
            }
        }
    }
    // Unframed binary: serial decode straight to the sequencer.
    decode_unframed(&bytes[4..], out)
}

/// Serial decode of an unframed binary stream (no parallel cut points):
/// the splitter itself runs the [`BinaryEventReader`] and emits
/// pseudo-chunks of up to [`SERIAL_BATCH`] records directly to the
/// sequencer, bypassing the idle parser pool. `input` starts at the
/// first record tag (magic consumed by the sniff).
fn decode_unframed<R: Read>(input: R, out: &SyncSender<FrontendMsg>) -> u64 {
    let mut r = BinaryEventReader::after_magic(input);
    let mut names: HashMap<u32, String> = HashMap::new();
    let mut seq = 0u64;
    // Wire records consumed before the chunk being built.
    let mut base = 0u64;
    let mut chunk = ParsedChunk::empty(seq);
    loop {
        match r.next_record() {
            Ok(Some(WireRecord::Event(e))) => {
                if let Some(name) = names.get(&e.item.0) {
                    chunk.named.push(NamedEvent {
                        index: chunk.records.len(),
                        record: r.records() - base,
                        name: name.clone(),
                    });
                }
                chunk.records.push(e);
                if chunk.records.len() >= SERIAL_BATCH {
                    chunk.wire_records = r.records() - base;
                    base = r.records();
                    if out.send(FrontendMsg::Chunk(chunk)).is_err() {
                        return seq + 1;
                    }
                    seq += 1;
                    chunk = ParsedChunk::empty(seq);
                }
            }
            Ok(Some(WireRecord::Define { id, name })) => {
                names.insert(id, name);
            }
            Ok(None) => {
                chunk.wire_records = r.records() - base;
                if chunk.records.is_empty() && chunk.wire_records == 0 {
                    return seq;
                }
                // Trailing defines still advance the record count.
                let _ = out.send(FrontendMsg::Chunk(chunk));
                return seq + 1;
            }
            Err(e) => {
                chunk.wire_records = r.records() - base;
                chunk.error = Some(if e.kind() == std::io::ErrorKind::InvalidData {
                    // `bad()` always formats `record N: msg` with the
                    // absolute record number; re-base it chunk-relative
                    // so the sequencer's renumbering is uniform.
                    let recno = r.records() + 1;
                    let s = e.to_string();
                    let msg = s
                        .strip_prefix(&format!("record {recno}: "))
                        .unwrap_or(&s)
                        .to_string();
                    ChunkError::Record {
                        recno: recno - base,
                        msg,
                    }
                } else {
                    io_error(&e)
                });
                let _ = out.send(FrontendMsg::Chunk(chunk));
                return seq + 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ees_iotrace::wire::BinaryEventWriter;
    use ees_iotrace::{IoKind, Micros};
    use std::io::Cursor;

    fn line(ts: u64) -> String {
        format!("{{\"ts\":{ts},\"item\":1,\"offset\":0,\"len\":4096,\"kind\":\"Read\"}}\n")
    }

    fn scan_all(input: &str, readers: usize, chunk: usize) -> (Vec<Micros>, Option<ChunkError>) {
        std::thread::scope(|scope| {
            let mut scanner =
                ParallelScanner::spawn(scope, Cursor::new(input.to_string()), readers, chunk);
            let mut ts = Vec::new();
            let mut err = None;
            while let Some(chunk) = scanner.next_ordered().unwrap() {
                ts.extend(chunk.records.iter().map(|r| r.ts));
                if let Some(e) = chunk.error {
                    err = Some(e);
                    break;
                }
            }
            (ts, err)
        })
    }

    #[test]
    fn resequences_records_into_file_order() {
        let input: String = (0..500).map(line).collect();
        for readers in [1, 2, 4] {
            // 96-byte chunks force heavy interleaving across parsers.
            let (ts, err) = scan_all(&input, readers, 96);
            assert!(err.is_none());
            assert_eq!(ts, (0..500).map(Micros).collect::<Vec<_>>(), "r={readers}");
        }
    }

    #[test]
    fn last_line_without_newline_is_parsed_exactly_once() {
        let mut input: String = (0..10).map(line).collect();
        input.push_str(&line(10));
        input.pop(); // drop the trailing newline
        let (ts, err) = scan_all(&input, 3, 32);
        assert!(err.is_none());
        assert_eq!(ts.len(), 11, "unterminated final line must be kept");
        assert_eq!(ts.last(), Some(&Micros(10)));
    }

    #[test]
    fn crlf_blank_and_comment_lines_match_the_serial_reader() {
        let input = format!(
            "# header\r\n{}\r\n\r\n  \n{}# tail comment",
            line(1).trim_end(),
            line(2),
        );
        let (ts, err) = scan_all(&input, 2, 8);
        assert!(err.is_none());
        assert_eq!(ts, vec![Micros(1), Micros(2)]);
    }

    #[test]
    fn error_carries_the_absolute_line_number() {
        let mut input: String = (0..7).map(line).collect();
        input.push_str("not json\n");
        input.push_str(&line(8));
        for readers in [1, 4] {
            let (ts, err) = scan_all(&input, readers, 16);
            assert_eq!(ts.len(), 7, "records before the error are delivered");
            let err = err.expect("malformed line must surface");
            let io = err.to_io_error();
            assert_eq!(io.kind(), std::io::ErrorKind::InvalidData);
            assert!(io.to_string().starts_with("line 8: "), "{io}");
        }
    }

    #[test]
    fn invalid_utf8_matches_read_line_error_text() {
        let mut bytes = line(1).into_bytes();
        bytes.extend_from_slice(b"\xff\xfe\n");
        let err = std::thread::scope(|scope| {
            let mut scanner = ParallelScanner::spawn(scope, Cursor::new(bytes), 2, 8);
            let mut err = None;
            while let Some(chunk) = scanner.next_ordered().unwrap() {
                if let Some(e) = chunk.error {
                    err = Some(e);
                    break;
                }
            }
            err
        })
        .expect("invalid UTF-8 must surface");
        assert_eq!(
            err.to_io_error().to_string(),
            "stream did not contain valid UTF-8"
        );
    }

    /// The front end's line loop before the canonical fast path: the
    /// general route alone. The reference the fast path must match line
    /// for line and error for error.
    fn parse_lines_general(seq: u64, first_lineno: u64, bytes: &[u8]) -> ParsedChunk {
        let chunk = ChunkRef {
            seq,
            first_lineno,
            bytes,
        };
        let mut parsed = ParsedChunk::empty(seq);
        for (lineno, raw) in chunk.lines() {
            let Ok(text) = std::str::from_utf8(raw) else {
                parsed.error = Some(ChunkError::Utf8);
                break;
            };
            let trimmed = text.trim();
            if trimmed.is_empty() || trimmed.starts_with('#') {
                continue;
            }
            match parse_event_borrowed(trimmed) {
                Ok(rec) => parsed.records.push(rec),
                Err(msg) => {
                    parsed.error = Some(ChunkError::Parse { lineno, msg });
                    break;
                }
            }
        }
        parsed
    }

    /// One line of a mixed chunk: every shape the fast path must either
    /// take with the same result or hand to the general route untouched.
    fn mixed_line(kind: u8, ts: u64) -> Vec<u8> {
        let canonical = line(ts).trim_end().as_bytes().to_vec();
        let mut out = match kind {
            0 | 1 => canonical,
            2 => [&b"  "[..], &canonical, b"\t"].concat(),
            3 => [&canonical[..], b"\r"].concat(),
            4 => Vec::new(),
            5 => b"# a comment".to_vec(),
            6 => [&canonical[..10], b"\xff\xfe", &canonical[10..]].concat(),
            7 => b"not json".to_vec(),
            8 => format!(
                "{{\"ts\":{ts}0000000000000000000,\"item\":1,\"offset\":0,\"len\":1,\"kind\":\"Read\"}}"
            )
            .into_bytes(),
            9 => format!(
                "{{\"item\":2,\"ts\":{ts},\"offset\":0,\"len\":1,\"kind\":\"Write\"}}"
            )
            .into_bytes(),
            10 => format!("{{\"ts\":{ts},\"item\":4294967296,\"offset\":0,\"len\":1,\"kind\":\"Read\"}}")
                .into_bytes(),
            _ => [&canonical[..], b"x"].concat(),
        };
        out.push(b'\n');
        out
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(512))]

        /// Mixed chunks — canonical, padded, CRLF, blank, comment,
        /// invalid UTF-8, bad, overflowing, reordered and out-of-range
        /// lines, with or without a final newline — parse exactly like
        /// the general route: same records, same error, same line number
        /// and message.
        #[test]
        fn parse_lines_matches_the_general_route(
            kinds in proptest::collection::vec(
                proptest::prop_oneof![
                    12 => proptest::strategy::Just(0u8),
                    1 => 1u8..12,
                ],
                0..40,
            ),
            first_lineno in 1u64..1_000_000,
            unterminated in proptest::arbitrary::any::<bool>(),
        ) {
            let mut bytes: Vec<u8> = kinds
                .iter()
                .enumerate()
                .flat_map(|(i, &k)| mixed_line(k, i as u64 * 1000))
                .collect();
            if unterminated {
                bytes.pop();
            }
            proptest::prop_assert_eq!(
                parse_lines(3, first_lineno, &bytes),
                parse_lines_general(3, first_lineno, &bytes)
            );
        }
    }

    #[test]
    fn readers_outnumbering_chunks_still_terminate() {
        // Early reader EOF: 8 parsers, but the whole input is one chunk
        // (and then an empty input with zero chunks) — the idle parsers
        // must wind down and the scanner must report a clean end.
        let (ts, err) = scan_all(&line(1), 8, 1 << 20);
        assert!(err.is_none());
        assert_eq!(ts, vec![Micros(1)]);
        let (ts, err) = scan_all("", 8, 1 << 20);
        assert!(err.is_none());
        assert!(ts.is_empty());
    }

    #[test]
    fn stage_one_parks_and_buffers_without_reordering() {
        let input: String = (0..200).map(line).collect();
        std::thread::scope(|scope| {
            let mut scanner = ParallelScanner::spawn(scope, Cursor::new(input.clone()), 2, 64);
            // Stage for a while before consuming anything.
            for _ in 0..50 {
                scanner.stage_one(Duration::from_micros(200), 64);
            }
            assert!(scanner.staged_records() <= 64 + 16, "cap respected");
            let mut ts = Vec::new();
            while let Some(chunk) = scanner.next_ordered().unwrap() {
                assert!(chunk.error.is_none());
                ts.extend(chunk.records.iter().map(|r| r.ts));
            }
            assert_eq!(ts, (0..200).map(Micros).collect::<Vec<_>>());
        });
    }

    #[test]
    fn abandoning_the_scanner_mid_stream_unwinds_the_pool() {
        // Dropping the scanner early (an error-return path) must let the
        // scope join: parsers see the closed output channel, the
        // splitter sees the closed work queue.
        let input: String = (0..5_000).map(line).collect();
        std::thread::scope(|scope| {
            let mut scanner = ParallelScanner::spawn(scope, Cursor::new(input), 4, 128);
            let first = scanner.next_ordered().unwrap().unwrap();
            assert!(!first.records.is_empty());
            // scanner dropped here with most of the stream unread
        });
    }

    // ---- binary mode ----

    fn rec(ts: u64, item: u32) -> LogicalIoRecord {
        LogicalIoRecord {
            ts: Micros(ts),
            item: ees_iotrace::DataItemId(item),
            offset: u64::from(item) * 1_000,
            len: 4096,
            kind: if ts.is_multiple_of(2) {
                IoKind::Read
            } else {
                IoKind::Write
            },
        }
    }

    fn framed(records: &[LogicalIoRecord], block_bytes: usize) -> Vec<u8> {
        ees_iotrace::wire::encode_events_framed(records, block_bytes)
    }

    fn scan_stream(bytes: Vec<u8>, readers: usize) -> (Vec<LogicalIoRecord>, Option<ChunkError>) {
        std::thread::scope(|scope| {
            let mut scanner = ParallelScanner::spawn(scope, Cursor::new(bytes), readers, 0);
            drain(&mut scanner)
        })
    }

    fn scan_slice(bytes: &[u8], readers: usize) -> (Vec<LogicalIoRecord>, Option<ChunkError>) {
        std::thread::scope(|scope| {
            let mut scanner = ParallelScanner::spawn_slice(scope, bytes, readers, 0);
            drain(&mut scanner)
        })
    }

    fn drain(scanner: &mut ParallelScanner<'_>) -> (Vec<LogicalIoRecord>, Option<ChunkError>) {
        let mut records = Vec::new();
        let mut err = None;
        while let Some(chunk) = scanner.next_ordered().unwrap() {
            records.extend(chunk.records);
            if let Some(e) = chunk.error {
                err = Some(e);
                break;
            }
        }
        (records, err)
    }

    #[test]
    fn framed_blocks_resequence_identically_streamed_and_sliced() {
        let records: Vec<LogicalIoRecord> = (0..3_000).map(|i| rec(i * 3, i as u32 % 17)).collect();
        // Tiny blocks force many work items and heavy interleaving.
        let bytes = framed(&records, 256);
        for readers in [1, 2, 4] {
            let (streamed, err) = scan_stream(bytes.clone(), readers);
            assert!(err.is_none(), "streamed r={readers}: {err:?}");
            assert_eq!(streamed, records, "streamed r={readers}");
            let (sliced, err) = scan_slice(&bytes, readers);
            assert!(err.is_none(), "sliced r={readers}: {err:?}");
            assert_eq!(sliced, records, "sliced r={readers}");
        }
    }

    #[test]
    fn unframed_binary_decodes_serially_through_the_scanner() {
        let records: Vec<LogicalIoRecord> = (0..9_000).map(|i| rec(i * 2, 3)).collect();
        let bytes = ees_iotrace::wire::encode_events(&records);
        let (streamed, err) = scan_stream(bytes.clone(), 4);
        assert!(err.is_none());
        assert_eq!(streamed, records);
        let (sliced, err) = scan_slice(&bytes, 4);
        assert!(err.is_none());
        assert_eq!(sliced, records);
        // A bare magic is an empty stream, not an error.
        let (none, err) = scan_stream(ees_iotrace::wire::EVENT_MAGIC.to_vec(), 2);
        assert!(err.is_none());
        assert!(none.is_empty());
    }

    #[test]
    fn define_bound_names_resolve_in_stream_order() {
        // Two blocks, each re-binding wire id 7 to a name; the resolver
        // must see the names in stream order regardless of which parser
        // decodes which block.
        let mut w = BinaryEventWriter::with_block_bytes(Vec::new(), 64);
        for i in 0..200u64 {
            w.define(7, &format!("item-{}", i / 50)).unwrap();
            let mut r = rec(i, 7);
            r.offset = i;
            w.event(&r).unwrap();
        }
        let bytes = w.finish().unwrap();
        let seen = std::sync::Mutex::new(Vec::new());
        let records = std::thread::scope(|scope| {
            let mut scanner = ParallelScanner::spawn_slice(scope, &bytes, 4, 0).with_resolver(
                Box::new(|name: &str| {
                    let mut seen = seen.lock().unwrap();
                    seen.push(name.to_string());
                    Ok(ees_iotrace::DataItemId(
                        1000 + name.rsplit('-').next().unwrap().parse::<u32>().unwrap(),
                    ))
                }),
            );
            let (records, err) = drain(&mut scanner);
            assert!(err.is_none(), "{err:?}");
            records
        });
        assert_eq!(records.len(), 200);
        for (i, r) in records.iter().enumerate() {
            assert_eq!(r.item.0, 1000 + (i as u32 / 50), "event {i}");
        }
        let seen = seen.into_inner().unwrap();
        assert_eq!(seen.len(), 200, "every named event consults the resolver");
        assert!(
            seen.windows(2).all(|w| w[0] <= w[1]),
            "stream order: {seen:?}"
        );
    }

    #[test]
    fn named_event_without_resolver_is_an_in_band_error() {
        let mut w = BinaryEventWriter::new(Vec::new());
        w.event(&rec(1, 1)).unwrap();
        w.define(2, "alpha").unwrap();
        w.event(&rec(2, 2)).unwrap();
        let bytes = w.finish().unwrap();
        let (records, err) = scan_stream(bytes, 2);
        assert_eq!(records.len(), 1, "events before the named one survive");
        let err = err.expect("named event must not pass silently");
        let io = err.to_io_error();
        assert_eq!(io.kind(), std::io::ErrorKind::InvalidData);
        assert!(io.to_string().starts_with("record 3: "), "{io}");
    }

    #[test]
    fn binary_decode_error_carries_the_absolute_record_number() {
        let records: Vec<LogicalIoRecord> = (0..40).map(|i| rec(i, 1)).collect();
        let mut bytes = framed(&records, 128);
        // Corrupt the tag of a record deep in the last block.
        let split: Vec<&[u8]> = BlockSplitter::new(&bytes)
            .unwrap()
            .map(|b| b.unwrap())
            .collect();
        assert!(split.len() > 2, "need multiple blocks");
        let last_start = bytes.len() - split.last().unwrap().len();
        bytes[last_start] = 0x7f; // unknown tag at the first record of the last block
                                  // Every reader count must agree with the serial reader's number.
        let serial_err = {
            let mut r = BinaryEventReader::new(Cursor::new(bytes.clone()));
            loop {
                match r.next_record() {
                    Ok(Some(_)) => {}
                    Ok(None) => panic!("corruption must surface"),
                    Err(e) => break e.to_string(),
                }
            }
        };
        for readers in [1, 4] {
            let (ok, err) = scan_stream(bytes.clone(), readers);
            let err = err.expect("corrupt tag must surface").to_io_error();
            assert_eq!(err.to_string(), serial_err, "r={readers}");
            assert!(ok.len() < records.len());
            assert_eq!(ok[..], records[..ok.len()], "prefix only, r={readers}");
            let (_, err) = scan_slice(&bytes, readers);
            let err = err.expect("corrupt tag must surface").to_io_error();
            assert_eq!(err.to_string(), serial_err, "sliced r={readers}");
        }
    }

    #[test]
    fn truncated_framed_stream_reports_the_block() {
        let records: Vec<LogicalIoRecord> = (0..100).map(|i| rec(i, 2)).collect();
        let bytes = framed(&records, 128);
        let cut = bytes.len() - 7; // mid-payload of the final block
        for readers in [1, 3] {
            let (ok, err) = scan_stream(bytes[..cut].to_vec(), readers);
            let err = err.expect("truncation must surface").to_io_error();
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
            assert!(err.to_string().contains("truncated"), "{err}");
            // Never fabricate: everything delivered is a real prefix.
            assert!(ok.len() < records.len());
            assert_eq!(ok[..], records[..ok.len()]);
            let (ok2, err2) = scan_slice(&bytes[..cut], readers);
            assert_eq!(ok2[..], records[..ok2.len()]);
            assert!(err2
                .expect("truncation must surface")
                .to_io_error()
                .to_string()
                .contains("truncated"));
        }
    }
}
