//! The socket control plane (`ees online --listen`, DESIGN.md §14):
//! accept a fixed fleet of framed event connections and merge them into
//! **one deterministic record stream** for the colocated daemon.
//!
//! Each accepted connection negotiates its framing by its first four
//! bytes: [`EVENT_MAGIC`] selects the `ees.event.v1` binary codec
//! ([`BinaryEventReader`]), anything else is NDJSON (whose lines start
//! with `{`, `#`, or whitespace — never `E`). NDJSON connections may
//! write `"item"` as a string name ([`parse_event_named`]); binary
//! connections bind names with `Define` records. Either way the name is
//! resolved to a dense id by the shared [`ItemInterner`] — in **merged
//! stream order**, which is what makes the allocated ids (and therefore
//! every downstream plan byte) a function of event content alone.
//!
//! Determinism is the design driver throughout:
//!
//! * the acceptor takes **exactly `conns` connections** and the merger
//!   emits nothing until all of them are attached — a late-connecting
//!   sender may hold the globally smallest timestamps, so emitting early
//!   would tie the output to accept-order races;
//! * connections fan in through a k-way watermark merge ordered by
//!   `(ts, item, offset, len, kind)` — **never** by connection index, so
//!   two runs whose senders connect in a different order still produce
//!   the identical merged stream (equal keys are identical events, and
//!   identical events are interchangeable);
//! * a connection that ends cleanly mid-period just stops contributing —
//!   the merge continues over the survivors and rollover epochs are
//!   untouched; a connection that *fails* (I/O error, malformed line,
//!   truncated binary record) poisons the whole stream with a
//!   `conn N: …` error, exactly as a file front end fails its one input.
//!
//! Backpressure is per connection: each socket thread feeds the merger
//! through a bounded batch channel, so one fast sender cannot buffer
//! unboundedly ahead of a slow one (the merger only drains the
//! connection holding the smallest key anyway). Per-connection accepted
//! counts and the negotiated format are published live through
//! [`NetCounters`] for the `--json` ingest block.

use crate::ingest::{BatchPool, IngestCounters, IngestStats};
use ees_iotrace::ndjson::{parse_event_named, ItemField};
use ees_iotrace::wire::{sniff_format, BinaryEventReader, StreamFormat, WireRecord};
use ees_iotrace::{DataItemId, IoKind, ItemInterner, LogicalIoRecord, Micros};
use std::cmp::Ordering as CmpOrdering;
use std::collections::{BinaryHeap, HashMap};
use std::io::{self, BufRead, BufReader, Read};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::mpsc::{channel, sync_channel, Receiver, SyncSender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

/// Batches buffered per connection between its socket thread and the
/// merger. Small on purpose: the merger drains exactly one connection
/// at a time (the one holding the smallest key), so deep per-connection
/// queues would only let fast senders run ahead.
const CONN_QUEUE: usize = 4;

/// Where `ees online --listen` listens: a Unix socket path or a TCP
/// address, chosen by shape (`host:port` has a colon; a path does not).
pub enum NetListener {
    /// A Unix domain socket (`/run/ees.sock`).
    Unix(UnixListener),
    /// A TCP listener (`127.0.0.1:7070`).
    Tcp(TcpListener),
}

impl NetListener {
    /// Binds `addr`: with a colon it is a TCP `host:port`, otherwise a
    /// Unix socket path. A stale socket *file* left by a crashed
    /// previous run is removed first; anything else in the way surfaces
    /// as the bind error it causes.
    pub fn bind(addr: &str) -> io::Result<NetListener> {
        if addr.contains(':') {
            Ok(NetListener::Tcp(TcpListener::bind(addr)?))
        } else {
            let path = std::path::Path::new(addr);
            if let Ok(meta) = std::fs::symlink_metadata(path) {
                use std::os::unix::fs::FileTypeExt;
                if meta.file_type().is_socket() {
                    std::fs::remove_file(path)?;
                }
            }
            Ok(NetListener::Unix(UnixListener::bind(path)?))
        }
    }

    fn accept(&self) -> io::Result<NetStream> {
        match self {
            NetListener::Unix(l) => Ok(NetStream::Unix(l.accept()?.0)),
            NetListener::Tcp(l) => Ok(NetStream::Tcp(l.accept()?.0)),
        }
    }
}

enum NetStream {
    Unix(UnixStream),
    Tcp(TcpStream),
}

impl Read for NetStream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            NetStream::Unix(s) => s.read(buf),
            NetStream::Tcp(s) => s.read(buf),
        }
    }
}

/// Knobs for [`spawn_net_ingest`].
#[derive(Debug, Clone, Copy)]
pub struct NetOptions {
    /// Exact number of connections to accept; the merge starts only once
    /// all of them are attached (watermark correctness) and the listener
    /// closes after the last accept.
    pub conns: usize,
    /// Merged-output queue depth, in batches.
    pub capacity: usize,
    /// Records per delivered batch.
    pub batch: usize,
    /// Whether names outside the interner's existing binds may allocate
    /// fresh dense ids. The daemon CLI passes `false` — its storage
    /// harness cannot serve an item with no placement, so an unknown
    /// name must fail at the edge (with its connection and line) rather
    /// than panic the harness. Open-world embedders (the monitor
    /// pipeline, benches) pass `true`.
    pub allow_new_names: bool,
}

/// One connection's live accounting for the `--json` ingest block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConnSnapshot {
    /// Negotiated framing; `None` until the connection's first bytes
    /// arrive.
    pub format: Option<StreamFormat>,
    /// Events this connection has delivered into the merge.
    pub events: u64,
}

const FORMAT_PENDING: u8 = 0;
const FORMAT_NDJSON: u8 = 1;
const FORMAT_BINARY: u8 = 2;

struct ConnCounters {
    events: AtomicU64,
    format: AtomicU8,
}

/// Live per-connection counters, one slot per accepted connection.
pub struct NetCounters {
    conns: Vec<ConnCounters>,
}

impl NetCounters {
    fn new(conns: usize) -> Arc<Self> {
        Arc::new(NetCounters {
            conns: (0..conns)
                .map(|_| ConnCounters {
                    events: AtomicU64::new(0),
                    format: AtomicU8::new(FORMAT_PENDING),
                })
                .collect(),
        })
    }

    fn set_format(&self, idx: usize, format: StreamFormat) {
        let v = match format {
            StreamFormat::Ndjson => FORMAT_NDJSON,
            StreamFormat::Binary => FORMAT_BINARY,
        };
        self.conns[idx].format.store(v, Ordering::Relaxed);
    }

    fn bump(&self, idx: usize) {
        self.conns[idx].events.fetch_add(1, Ordering::Relaxed);
    }

    /// A point-in-time copy of every connection's counters.
    pub fn snapshot(&self) -> Vec<ConnSnapshot> {
        self.conns
            .iter()
            .map(|c| ConnSnapshot {
                format: match c.format.load(Ordering::Relaxed) {
                    FORMAT_NDJSON => Some(StreamFormat::Ndjson),
                    FORMAT_BINARY => Some(StreamFormat::Binary),
                    _ => None,
                },
                events: c.events.load(Ordering::Relaxed),
            })
            .collect()
    }
}

/// An event at the net edge: the item is a resolved id or a name whose
/// interning is deferred to merged-stream order. `Arc<str>` because one
/// binary `Define` binds a name to arbitrarily many events.
#[derive(Debug, Clone)]
struct NetEvent {
    ts: Micros,
    item: NetItem,
    offset: u64,
    len: u32,
    kind: IoKind,
}

#[derive(Debug, Clone)]
enum NetItem {
    Id(DataItemId),
    Name(Arc<str>),
}

fn kind_rank(kind: IoKind) -> u8 {
    match kind {
        IoKind::Read => 0,
        IoKind::Write => 1,
    }
}

/// Ids order before names (a name is by definition not a pre-registered
/// numeric id, so the two classes never alias one event).
fn item_cmp(a: &NetItem, b: &NetItem) -> CmpOrdering {
    match (a, b) {
        (NetItem::Id(a), NetItem::Id(b)) => a.0.cmp(&b.0),
        (NetItem::Id(_), NetItem::Name(_)) => CmpOrdering::Less,
        (NetItem::Name(_), NetItem::Id(_)) => CmpOrdering::Greater,
        (NetItem::Name(a), NetItem::Name(b)) => a.cmp(b),
    }
}

impl NetEvent {
    /// The merge key: event content only, never the connection — so the
    /// merged order (and everything downstream of it) is independent of
    /// accept-order races.
    fn key_cmp(&self, o: &NetEvent) -> CmpOrdering {
        self.ts
            .cmp(&o.ts)
            .then_with(|| item_cmp(&self.item, &o.item))
            .then(self.offset.cmp(&o.offset))
            .then(self.len.cmp(&o.len))
            .then(kind_rank(self.kind).cmp(&kind_rank(o.kind)))
    }
}

/// Heap entry: min-heap by event key; the connection index participates
/// only as a total-order tiebreak between *identical* events, where the
/// choice cannot be observed downstream.
struct Head {
    ev: NetEvent,
    conn: usize,
}

impl PartialEq for Head {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == CmpOrdering::Equal
    }
}
impl Eq for Head {}
impl PartialOrd for Head {
    fn partial_cmp(&self, other: &Self) -> Option<CmpOrdering> {
        Some(self.cmp(other))
    }
}
impl Ord for Head {
    fn cmp(&self, other: &Self) -> CmpOrdering {
        self.ev.key_cmp(&other.ev).then(self.conn.cmp(&other.conn))
    }
}

enum ConnMsg {
    Batch(Vec<NetEvent>),
    End(io::Result<u64>),
}

/// What [`spawn_net_ingest`] hands back: the merged batch stream, the
/// recycle pool, the live run-level counters, the per-connection
/// counters, and the merger handle whose result carries the final ingest
/// stats (or the first connection/accept error).
pub type NetReader = (
    Receiver<Vec<LogicalIoRecord>>,
    BatchPool,
    Arc<IngestCounters>,
    Arc<NetCounters>,
    JoinHandle<io::Result<IngestStats>>,
);

/// Spawns the accept loop, one socket thread per connection, and the
/// merger. Consume the receiver exactly like the file front end's
/// ([`crate::ingest::spawn_reader_parallel`] shape), then join the
/// handle for the final stats or first error.
pub fn spawn_net_ingest(
    listener: NetListener,
    opts: NetOptions,
    interner: Arc<Mutex<ItemInterner>>,
) -> NetReader {
    let conns = opts.conns.max(1);
    let batch = opts.batch.max(1);
    let (out_tx, out_rx) = sync_channel::<Vec<LogicalIoRecord>>(opts.capacity.max(1));
    let (ret_tx, ret_rx) = channel::<Vec<LogicalIoRecord>>();
    let counters = Arc::new(IngestCounters::default());
    let net = NetCounters::new(conns);

    let (ready_tx, ready_rx) = channel::<(usize, Receiver<ConnMsg>)>();
    {
        let net = Arc::clone(&net);
        let allow_new = opts.allow_new_names;
        let name_check = if allow_new {
            None
        } else {
            Some(Arc::clone(&interner))
        };
        std::thread::spawn(move || {
            for idx in 0..conns {
                match listener.accept() {
                    Ok(stream) => {
                        let (tx, rx) = sync_channel::<ConnMsg>(CONN_QUEUE);
                        if ready_tx.send((idx, rx)).is_err() {
                            return; // merger gone; nobody left to feed
                        }
                        let net = Arc::clone(&net);
                        let check = name_check.clone();
                        std::thread::spawn(move || {
                            let result = run_conn(idx, stream, batch, &tx, &net, check.as_deref());
                            let _ = tx.send(ConnMsg::End(result));
                        });
                    }
                    Err(e) => {
                        // An accept failure fills this slot (and every
                        // remaining one) with the error, so the merger
                        // fails fast instead of waiting forever.
                        for slot in idx..conns {
                            let (tx, rx) = sync_channel::<ConnMsg>(1);
                            let _ = tx.send(ConnMsg::End(Err(io::Error::new(
                                e.kind(),
                                format!("accept failed: {e}"),
                            ))));
                            let _ = ready_tx.send((slot, rx));
                        }
                        return;
                    }
                }
            }
            // The listener drops here: connection `conns` and later are
            // refused, so the accepted set — and the merge over it — is
            // closed.
        });
    }

    let live = Arc::clone(&counters);
    let net_out = Arc::clone(&net);
    let handle = std::thread::spawn(move || {
        merge_loop(
            conns, batch, &ready_rx, &out_tx, &ret_rx, &counters, &interner,
        )
    });
    (out_rx, BatchPool::new(ret_tx), live, net_out, handle)
}

fn conn_err(idx: usize, e: io::Error) -> io::Error {
    io::Error::new(e.kind(), format!("conn {idx}: {e}"))
}

fn conn_invalid(idx: usize, msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("conn {idx}: {msg}"))
}

fn run_conn(
    idx: usize,
    mut stream: NetStream,
    batch: usize,
    tx: &SyncSender<ConnMsg>,
    net: &NetCounters,
    name_check: Option<&Mutex<ItemInterner>>,
) -> io::Result<u64> {
    // Sniff the framing from the first (up to) four bytes.
    let mut prefix = [0u8; 4];
    let mut got = 0;
    while got < 4 {
        match stream.read(&mut prefix[got..]) {
            Ok(0) => break,
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(conn_err(idx, e)),
        }
    }
    let format = sniff_format(&prefix[..got]);
    net.set_format(idx, format);
    let mut conn = Conn {
        idx,
        batch,
        tx,
        net,
        name_check,
        buf: Vec::with_capacity(batch),
        events: 0,
    };
    match format {
        // The sniffed prefix *is* the magic: resume decoding after it.
        StreamFormat::Binary => conn.run_binary(BinaryEventReader::after_magic(stream)),
        // Re-chain the sniffed bytes in front of the stream.
        StreamFormat::Ndjson => {
            conn.run_ndjson(io::Cursor::new(prefix[..got].to_vec()).chain(stream))
        }
    }
}

struct Conn<'a> {
    idx: usize,
    batch: usize,
    tx: &'a SyncSender<ConnMsg>,
    net: &'a NetCounters,
    name_check: Option<&'a Mutex<ItemInterner>>,
    buf: Vec<NetEvent>,
    events: u64,
}

impl Conn<'_> {
    /// Closed-world name admission (`allow_new_names: false`): a name
    /// with no existing bind fails here, at its exact stream position,
    /// instead of allocating an id the daemon cannot serve.
    fn admit(&self, name: &str) -> Result<(), String> {
        if let Some(interner) = self.name_check {
            let known = interner
                .lock()
                .unwrap_or_else(|p| p.into_inner())
                .lookup(name)
                .is_some();
            if !known {
                return Err(format!("unknown item {name:?}"));
            }
        }
        Ok(())
    }

    /// Queues one event toward the merger; `false` means the merger hung
    /// up (the run is being torn down) and the connection should stop.
    fn push(&mut self, ev: NetEvent) -> bool {
        self.buf.push(ev);
        self.events += 1;
        self.net.bump(self.idx);
        if self.buf.len() >= self.batch {
            let full = std::mem::replace(&mut self.buf, Vec::with_capacity(self.batch));
            return self.tx.send(ConnMsg::Batch(full)).is_ok();
        }
        true
    }

    fn finish(&mut self) -> io::Result<u64> {
        if !self.buf.is_empty() {
            let tail = std::mem::take(&mut self.buf);
            let _ = self.tx.send(ConnMsg::Batch(tail));
        }
        Ok(self.events)
    }

    fn run_ndjson<R: Read>(&mut self, input: R) -> io::Result<u64> {
        let mut reader = BufReader::new(input);
        let mut line = String::new();
        let mut lineno = 0u64;
        loop {
            line.clear();
            let n = reader
                .read_line(&mut line)
                .map_err(|e| conn_err(self.idx, e))?;
            if n == 0 {
                return self.finish();
            }
            lineno += 1;
            let trimmed = line.trim();
            if trimmed.is_empty() || trimmed.starts_with('#') {
                continue;
            }
            let ev = parse_event_named(trimmed)
                .map_err(|msg| conn_invalid(self.idx, format!("line {lineno}: {msg}")))?;
            let item = match ev.item {
                ItemField::Id(id) => NetItem::Id(DataItemId(id)),
                ItemField::Name(name) => {
                    self.admit(&name)
                        .map_err(|msg| conn_invalid(self.idx, format!("line {lineno}: {msg}")))?;
                    NetItem::Name(Arc::from(name.as_str()))
                }
            };
            let delivered = self.push(NetEvent {
                ts: ev.ts,
                item,
                offset: ev.offset,
                len: ev.len,
                kind: ev.kind,
            });
            if !delivered {
                return self.finish();
            }
        }
    }

    fn run_binary<R: Read>(&mut self, mut reader: BinaryEventReader<R>) -> io::Result<u64> {
        // Wire-local name bindings: positional, so a re-`Define` of a
        // local id affects only the events after it.
        let mut defines: HashMap<u32, Arc<str>> = HashMap::new();
        loop {
            match reader.next_record().map_err(|e| conn_err(self.idx, e))? {
                None => return self.finish(),
                Some(WireRecord::Define { id, name }) => {
                    self.admit(&name)
                        .map_err(|msg| conn_invalid(self.idx, msg))?;
                    defines.insert(id, Arc::from(name.as_str()));
                }
                Some(WireRecord::Event(rec)) => {
                    let item = match defines.get(&rec.item.0) {
                        Some(name) => NetItem::Name(Arc::clone(name)),
                        // Identity passthrough: an undefined wire id is a
                        // plain numeric catalog id.
                        None => NetItem::Id(rec.item),
                    };
                    let delivered = self.push(NetEvent {
                        ts: rec.ts,
                        item,
                        offset: rec.offset,
                        len: rec.len,
                        kind: rec.kind,
                    });
                    if !delivered {
                        return self.finish();
                    }
                }
            }
        }
    }
}

/// Per-connection pull cursor over the bounded batch channel.
struct ConnCursor {
    rx: Receiver<ConnMsg>,
    buf: std::vec::IntoIter<NetEvent>,
    done: bool,
}

impl ConnCursor {
    fn next(&mut self) -> io::Result<Option<NetEvent>> {
        loop {
            if self.done {
                return Ok(None);
            }
            if let Some(ev) = self.buf.next() {
                return Ok(Some(ev));
            }
            match self.rx.recv() {
                Ok(ConnMsg::Batch(b)) => self.buf = b.into_iter(),
                Ok(ConnMsg::End(Ok(_))) => {
                    self.done = true;
                    return Ok(None);
                }
                Ok(ConnMsg::End(Err(e))) => {
                    self.done = true;
                    return Err(e);
                }
                Err(_) => {
                    self.done = true;
                    return Err(io::Error::other("net connection thread died"));
                }
            }
        }
    }
}

fn merge_loop(
    conns: usize,
    batch: usize,
    ready_rx: &Receiver<(usize, Receiver<ConnMsg>)>,
    out_tx: &SyncSender<Vec<LogicalIoRecord>>,
    ret_rx: &Receiver<Vec<LogicalIoRecord>>,
    counters: &IngestCounters,
    interner: &Mutex<ItemInterner>,
) -> io::Result<IngestStats> {
    // Wait for the full fleet before emitting anything: until every
    // connection is attached, the smallest outstanding key is unknowable.
    let mut cursors: Vec<Option<ConnCursor>> = (0..conns).map(|_| None).collect();
    for _ in 0..conns {
        let (idx, rx) = ready_rx
            .recv()
            .map_err(|_| io::Error::other("net acceptor died"))?;
        cursors[idx] = Some(ConnCursor {
            rx,
            buf: Vec::new().into_iter(),
            done: false,
        });
    }
    let mut cursors: Vec<ConnCursor> = cursors
        .into_iter()
        .map(|c| c.expect("every slot filled above"))
        .collect();

    let mut heap: BinaryHeap<std::cmp::Reverse<Head>> = BinaryHeap::with_capacity(conns);
    for (conn, cursor) in cursors.iter_mut().enumerate() {
        if let Some(ev) = cursor.next()? {
            heap.push(std::cmp::Reverse(Head { ev, conn }));
        }
    }

    let mut out: Vec<LogicalIoRecord> = Vec::with_capacity(batch);
    let mut accepted = 0u64;
    while let Some(std::cmp::Reverse(head)) = heap.pop() {
        let conn = head.conn;
        // Name interning happens HERE, in merged order: the id table is
        // a function of the merged event sequence, not of which socket
        // raced ahead.
        let item = match head.ev.item {
            NetItem::Id(id) => id,
            NetItem::Name(name) => interner
                .lock()
                .unwrap_or_else(|p| p.into_inner())
                .intern(&name),
        };
        out.push(LogicalIoRecord {
            ts: head.ev.ts,
            item,
            offset: head.ev.offset,
            len: head.ev.len,
            kind: head.ev.kind,
        });
        accepted += 1;
        counters.add_accepted(1);
        if out.len() >= batch {
            let next_buf = match ret_rx.try_recv() {
                Ok(mut b) => {
                    b.clear();
                    counters.add_recycled(1);
                    b
                }
                Err(_) => Vec::with_capacity(batch),
            };
            if out_tx.send(std::mem::replace(&mut out, next_buf)).is_err() {
                return Err(io::Error::other("net ingest consumer hung up"));
            }
        }
        if let Some(ev) = cursors[conn].next()? {
            heap.push(std::cmp::Reverse(Head { ev, conn }));
        }
    }
    if !out.is_empty() {
        let _ = out_tx.send(out);
    }
    Ok(IngestStats {
        accepted,
        dropped: 0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ees_iotrace::wire::BinaryEventWriter;
    use std::io::Write as _;

    fn sock_path(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("ees-net-{}-{tag}.sock", std::process::id()))
    }

    fn ndjson_line(ts: u64, item: u32) -> String {
        format!("{{\"ts\":{ts},\"item\":{item},\"offset\":0,\"len\":4096,\"kind\":\"Read\"}}\n")
    }

    fn drain(
        rx: Receiver<Vec<LogicalIoRecord>>,
        handle: JoinHandle<io::Result<IngestStats>>,
    ) -> (Vec<LogicalIoRecord>, io::Result<IngestStats>) {
        let mut all = Vec::new();
        for batch in rx {
            all.extend(batch);
        }
        (all, handle.join().expect("merger must not panic"))
    }

    #[test]
    fn four_connections_merge_into_key_order() {
        let path = sock_path("merge");
        let listener = NetListener::bind(path.to_str().unwrap()).unwrap();
        let interner = Arc::new(Mutex::new(ItemInterner::with_floor(100)));
        let (rx, _pool, live, net, handle) = spawn_net_ingest(
            listener,
            NetOptions {
                conns: 4,
                capacity: 4,
                batch: 8,
                allow_new_names: true,
            },
            interner,
        );
        // Sender c owns timestamps c, c+4, c+8, ... — striped, so the
        // merge has to interleave all four connections.
        let mut senders = Vec::new();
        for c in 0..4u64 {
            let path = path.clone();
            senders.push(std::thread::spawn(move || {
                let mut s = UnixStream::connect(&path).unwrap();
                for k in 0..50u64 {
                    s.write_all(ndjson_line(c + 4 * k, c as u32).as_bytes())
                        .unwrap();
                }
            }));
        }
        let (all, stats) = drain(rx, handle);
        for t in senders {
            t.join().unwrap();
        }
        assert_eq!(stats.unwrap().accepted, 200);
        assert_eq!(live.snapshot().accepted, 200);
        let ts: Vec<u64> = all.iter().map(|r| r.ts.0).collect();
        assert_eq!(ts, (0..200).collect::<Vec<_>>(), "globally sorted merge");
        let conns = net.snapshot();
        assert_eq!(conns.len(), 4);
        for c in &conns {
            assert_eq!(c.events, 50);
            assert_eq!(c.format, Some(StreamFormat::Ndjson));
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn binary_and_ndjson_connections_interleave_with_names() {
        let path = sock_path("mixed");
        let listener = NetListener::bind(path.to_str().unwrap()).unwrap();
        let interner = Arc::new(Mutex::new(ItemInterner::with_floor(10)));
        let (rx, _pool, _live, net, handle) = spawn_net_ingest(
            listener,
            NetOptions {
                conns: 2,
                capacity: 4,
                batch: 4,
                allow_new_names: true,
            },
            Arc::clone(&interner),
        );
        let p1 = path.clone();
        let ndjson = std::thread::spawn(move || {
            let mut s = UnixStream::connect(&p1).unwrap();
            // Even timestamps, item by name.
            for k in 0..10u64 {
                let line = format!(
                    "{{\"ts\":{},\"item\":\"vol/a\",\"offset\":0,\"len\":1,\"kind\":\"Read\"}}\n",
                    2 * k
                );
                s.write_all(line.as_bytes()).unwrap();
            }
        });
        let p2 = path.clone();
        let binary = std::thread::spawn(move || {
            let s = UnixStream::connect(&p2).unwrap();
            let mut w = BinaryEventWriter::new(s);
            w.define(7, "vol/b").unwrap();
            for k in 0..10u64 {
                w.event(&LogicalIoRecord {
                    ts: Micros(2 * k + 1),
                    item: DataItemId(7),
                    offset: 0,
                    len: 1,
                    kind: IoKind::Write,
                })
                .unwrap();
            }
            w.finish().unwrap();
        });
        let (all, stats) = drain(rx, handle);
        ndjson.join().unwrap();
        binary.join().unwrap();
        assert_eq!(stats.unwrap().accepted, 20);
        let ts: Vec<u64> = all.iter().map(|r| r.ts.0).collect();
        assert_eq!(ts, (0..20).collect::<Vec<_>>());
        // Merged order interns "vol/a" (ts 0) before "vol/b" (ts 1),
        // whatever order the sockets connected in.
        let it = interner.lock().unwrap();
        assert_eq!(it.lookup("vol/a"), Some(DataItemId(10)));
        assert_eq!(it.lookup("vol/b"), Some(DataItemId(11)));
        assert_eq!(all[0].item, DataItemId(10));
        assert_eq!(all[1].item, DataItemId(11));
        let formats: Vec<_> = net.snapshot().iter().map(|c| c.format).collect();
        assert!(formats.contains(&Some(StreamFormat::Binary)));
        assert!(formats.contains(&Some(StreamFormat::Ndjson)));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn malformed_line_poisons_the_stream_with_conn_context() {
        let path = sock_path("err");
        let listener = NetListener::bind(path.to_str().unwrap()).unwrap();
        let interner = Arc::new(Mutex::new(ItemInterner::new()));
        let (rx, _pool, _live, _net, handle) = spawn_net_ingest(
            listener,
            NetOptions {
                conns: 1,
                capacity: 4,
                batch: 4,
                allow_new_names: true,
            },
            interner,
        );
        let p = path.clone();
        let sender = std::thread::spawn(move || {
            let mut s = UnixStream::connect(&p).unwrap();
            s.write_all(ndjson_line(1, 1).as_bytes()).unwrap();
            s.write_all(b"this is not json\n").unwrap();
        });
        let (_all, stats) = drain(rx, handle);
        sender.join().unwrap();
        let err = stats.unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let msg = err.to_string();
        assert!(msg.starts_with("conn 0: line 2: "), "{msg}");
    }

    #[test]
    fn unknown_names_are_rejected_in_closed_world_mode() {
        let path = sock_path("closed");
        let listener = NetListener::bind(path.to_str().unwrap()).unwrap();
        let mut it = ItemInterner::with_floor(10);
        it.bind("known", DataItemId(3));
        let interner = Arc::new(Mutex::new(it));
        let (rx, _pool, _live, _net, handle) = spawn_net_ingest(
            listener,
            NetOptions {
                conns: 1,
                capacity: 4,
                batch: 4,
                allow_new_names: false,
            },
            Arc::clone(&interner),
        );
        let p = path.clone();
        let sender = std::thread::spawn(move || {
            let mut s = UnixStream::connect(&p).unwrap();
            // A full batch of bound names first, so they flush to the
            // merger before the unknown name poisons the stream.
            for ts in 1..=4u64 {
                let line = format!(
                    "{{\"ts\":{ts},\"item\":\"known\",\"offset\":0,\"len\":1,\"kind\":\"Read\"}}\n"
                );
                s.write_all(line.as_bytes()).unwrap();
            }
            s.write_all(
                b"{\"ts\":5,\"item\":\"mystery\",\"offset\":0,\"len\":1,\"kind\":\"Read\"}\n",
            )
            .unwrap();
        });
        let (all, stats) = drain(rx, handle);
        sender.join().unwrap();
        let err = stats.unwrap_err();
        assert!(
            err.to_string().contains("unknown item \"mystery\""),
            "{err}"
        );
        assert!(err.to_string().contains("line 5"), "{err}");
        // The known name resolved to its catalog bind, not a fresh id.
        assert_eq!(all.len(), 4);
        assert!(all.iter().all(|r| r.item == DataItemId(3)));
        assert!(interner.lock().unwrap().export().is_empty());
    }

    #[test]
    fn clean_disconnect_mid_stream_keeps_the_survivors_merging() {
        let path = sock_path("teardown");
        let listener = NetListener::bind(path.to_str().unwrap()).unwrap();
        let interner = Arc::new(Mutex::new(ItemInterner::new()));
        let (rx, _pool, _live, _net, handle) = spawn_net_ingest(
            listener,
            NetOptions {
                conns: 2,
                capacity: 4,
                batch: 4,
                allow_new_names: true,
            },
            interner,
        );
        let p1 = path.clone();
        let short = std::thread::spawn(move || {
            let mut s = UnixStream::connect(&p1).unwrap();
            // Contributes two early events, then disconnects cleanly.
            s.write_all(ndjson_line(0, 1).as_bytes()).unwrap();
            s.write_all(ndjson_line(1, 1).as_bytes()).unwrap();
        });
        let p2 = path.clone();
        let long = std::thread::spawn(move || {
            let mut s = UnixStream::connect(&p2).unwrap();
            for k in 0..20u64 {
                s.write_all(ndjson_line(2 + k, 2).as_bytes()).unwrap();
            }
        });
        let (all, stats) = drain(rx, handle);
        short.join().unwrap();
        long.join().unwrap();
        assert_eq!(stats.unwrap().accepted, 22);
        let ts: Vec<u64> = all.iter().map(|r| r.ts.0).collect();
        assert_eq!(ts, (0..22).collect::<Vec<_>>());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn tcp_listener_works_end_to_end() {
        let listener = NetListener::bind("127.0.0.1:0").unwrap();
        let addr = match &listener {
            NetListener::Tcp(l) => l.local_addr().unwrap(),
            _ => unreachable!("colon address binds TCP"),
        };
        let interner = Arc::new(Mutex::new(ItemInterner::new()));
        let (rx, _pool, _live, _net, handle) = spawn_net_ingest(
            listener,
            NetOptions {
                conns: 1,
                capacity: 4,
                batch: 4,
                allow_new_names: true,
            },
            interner,
        );
        let sender = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            for k in 0..5u64 {
                s.write_all(ndjson_line(k, 1).as_bytes()).unwrap();
            }
        });
        let (all, stats) = drain(rx, handle);
        sender.join().unwrap();
        assert_eq!(stats.unwrap().accepted, 5);
        assert_eq!(all.len(), 5);
    }
}
