//! The load generator: csag-wire v2 reads over loopback TCP and
//! csag-updates writes on the server's stdin feed.
//!
//! Every loop is closed: per connection, one thread keeps a fixed number
//! of reads in flight, sending the next read as each answer arrives; on
//! the feed, the next update line goes out as an earlier one is
//! acknowledged.

use crate::server::{Server, STALL};
use crate::workload::ReadOp;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One request as sent.
#[derive(Clone, Debug)]
pub struct Sent {
    /// Index into the run's reads (or writes).
    pub id: usize,
    /// When it was sent.
    pub at: Instant,
    /// The epoch a pinned read named.
    pub pin: Option<u64>,
}

/// One answer line as read.
#[derive(Clone, Debug)]
pub struct Answer {
    pub id: usize,
    pub at: Instant,
    pub line: String,
}

/// What one load window did.
#[derive(Debug, Default)]
pub struct LoadLog {
    pub reads: Vec<Sent>,
    pub answers: Vec<Answer>,
    pub writes: Vec<Sent>,
    /// The epoch each write's ack named, in write order.
    pub write_epochs: Vec<u64>,
    /// When each write's ack arrived, in write order.
    pub write_acks: Vec<Instant>,
    /// Seconds spent sending reads, summed over the run's read windows.
    pub busy_s: f64,
    pub connections: usize,
    pub threads: usize,
}

impl LoadLog {
    /// Adds a later part of the same run.
    pub fn append(&mut self, part: LoadLog) {
        self.reads.extend(part.reads);
        self.answers.extend(part.answers);
        self.writes.extend(part.writes);
        self.write_epochs.extend(part.write_epochs);
        self.write_acks.extend(part.write_acks);
        self.busy_s += part.busy_s;
        self.connections = part.connections;
        self.threads = part.threads;
    }
}

/// Closed loop until `window` ends: each connection keeps `depth` reads
/// in flight, sending the next unsent read (from `reads[first]` on)
/// whenever an answer arrives.
pub fn closed_loop(
    server: &Server,
    reads: &[ReadOp],
    first: usize,
    connections: usize,
    depth: usize,
    window: Duration,
) -> Result<LoadLog, String> {
    let next = AtomicUsize::new(first);
    let start = Instant::now();
    let end = start + window;
    let mut log = LoadLog {
        connections,
        threads: connections,
        ..LoadLog::default()
    };
    let streams = (0..connections)
        .map(|_| server.connect())
        .collect::<Result<Vec<_>, _>>()?;
    let per_conn = std::thread::scope(|scope| {
        let handles: Vec<_> = streams
            .into_iter()
            .map(|stream| {
                let next = &next;
                scope.spawn(move || closed_connection(stream, reads, next, depth, end, None))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread panicked"))
            .collect::<Vec<_>>()
    });
    for r in per_conn {
        let (sent, got) = r?;
        log.reads.extend(sent);
        log.answers.extend(got);
    }
    log.reads.sort_by_key(|s| s.id);
    let last = log.answers.iter().map(|a| a.at).max().unwrap_or(start);
    log.busy_s = last.saturating_duration_since(start).as_secs_f64();
    Ok(log)
}

/// One closed-loop connection: sends and reads on this thread. A pinned
/// read names the epoch in `pin_source` when it is sent.
fn closed_connection(
    stream: TcpStream,
    reads: &[ReadOp],
    next: &AtomicUsize,
    depth: usize,
    end: Instant,
    pin_source: Option<&AtomicU64>,
) -> Result<(Vec<Sent>, Vec<Answer>), String> {
    stream
        .set_read_timeout(Some(STALL))
        .map_err(|e| format!("read timeout: {e}"))?;
    let mut reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
    let mut out = &stream;
    let (mut sent, mut got) = (Vec::new(), Vec::new());
    let mut send = |sent: &mut Vec<Sent>| -> Result<bool, String> {
        let id = next.fetch_add(1, Ordering::SeqCst);
        let Some(op) = reads.get(id) else {
            return Ok(false);
        };
        let pin = if op.pinned {
            pin_source.map(|a| a.load(Ordering::SeqCst))
        } else {
            None
        };
        let mut line = op.line(id, pin);
        line.push('\n');
        let at = Instant::now();
        out.write_all(line.as_bytes())
            .map_err(|e| format!("sending read: {e}"))?;
        sent.push(Sent { id, at, pin });
        Ok(true)
    };
    let mut in_flight = 0usize;
    while in_flight < depth && send(&mut sent)? {
        in_flight += 1;
    }
    let mut buf = Vec::with_capacity(4096);
    while in_flight > 0 {
        buf.clear();
        reader
            .read_until(b'\n', &mut buf)
            .map_err(|e| format!("reading answer: {e}"))?;
        let at = Instant::now();
        let text = String::from_utf8(buf.clone()).map_err(|_| "answer is not UTF-8")?;
        got.push(Answer {
            id: answer_id(&text)?,
            at,
            line: text.trim_end().to_string(),
        });
        in_flight -= 1;
        if at < end && send(&mut sent)? {
            in_flight += 1;
        }
    }
    Ok((sent, got))
}

/// The churn loop until `window` ends: one connection keeps one read in
/// flight (a pinned read names the epoch of the last acknowledged write)
/// while this thread sends update lines on the feed, each as soon as the
/// one before it is acknowledged.
pub fn churn(
    server: &mut Server,
    reads: &[ReadOp],
    writes: &[String],
    window: Duration,
) -> Result<LoadLog, String> {
    let stream = server.connect()?;
    let acked = Arc::clone(&server.acked);
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    let end = start + window;
    let mut log = LoadLog {
        connections: 1,
        threads: 2,
        ..LoadLog::default()
    };
    let (read_side, write_side) = std::thread::scope(|scope| {
        let reader = scope.spawn(|| closed_connection(stream, reads, &next, 1, end, Some(&acked)));
        let mut feed = || -> Result<(), String> {
            for (id, line) in writes.iter().enumerate() {
                if Instant::now() >= end {
                    return Ok(());
                }
                let at = Instant::now();
                server.send_update(line)?;
                log.writes.push(Sent { id, at, pin: None });
                let (epoch, ack) = server.next_ack()?;
                log.write_epochs.push(epoch);
                log.write_acks.push(ack);
            }
            Err("the write feed ran out of update lines".into())
        };
        let fed = feed();
        (reader.join().expect("load thread panicked"), fed)
    });
    let (sent, got) = read_side?;
    write_side?;
    log.reads = sent;
    log.answers = got;
    let last = log.answers.iter().map(|a| a.at).max().unwrap_or(start);
    log.busy_s = last.saturating_duration_since(start).as_secs_f64();
    Ok(log)
}

/// Lines the write probe keeps in flight: with one queued behind the
/// one being applied, the server's feed thread never sleeps between
/// writes, so host wake-up delays do not dominate a ~1 ms write.
const PROBE_DEPTH: usize = 2;

/// Closed-loop writes on the feed (the probe after each read phase of a
/// workload without a write feed), timed from send to ack. `first` is
/// the index of `writes[0]` among the run's writes.
pub fn write_probe(
    server: &mut Server,
    writes: &[String],
    first: usize,
    log: &mut LoadLog,
) -> Result<(), String> {
    let (mut next, mut acked) = (0, 0);
    while acked < writes.len() {
        while next < writes.len() && next - acked < PROBE_DEPTH {
            let at = Instant::now();
            server.send_update(&writes[next])?;
            log.writes.push(Sent {
                id: first + next,
                at,
                pin: None,
            });
            next += 1;
        }
        let (epoch, at) = server.next_ack()?;
        log.write_epochs.push(epoch);
        log.write_acks.push(at);
        acked += 1;
    }
    Ok(())
}

/// The numeric `id` an answer line echoes.
pub fn answer_id(line: &str) -> Result<usize, String> {
    line.strip_prefix("{\"id\":")
        .and_then(|rest| rest.split([',', '}']).next())
        .and_then(|id| id.parse().ok())
        .ok_or_else(|| format!("answer without a numeric id: {}", line.trim_end()))
}
