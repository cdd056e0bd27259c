//! The NDJSON ingest stage: JSON-lines bytes in, decoded events out, in
//! line order — the one place events are decoded from text. Both ingest
//! paths run on it: a `saql serve` ingest connection (whose sink applies
//! quota and hands events to the core) and `replay --source jsonl:`
//! ([`ChannelSource::jsonl`](crate::source::ChannelSource::jsonl), whose
//! sink fills an event channel).
//!
//! ```text
//!   read loop ──chunks──► saql-decode (DECODE_WORKERS) ──chunks──► saql-apply ─► sink
//! ```
//!
//! The read loop, on the caller's thread, only appends raw lines to one
//! byte buffer per chunk of up to [`DECODE_CHUNK`] lines, flushing early
//! whenever the reader's buffer drains, so a chunk only ever groups lines
//! that are already in memory and a quiet stream is never held back
//! waiting for a full one. The decode workers split each chunk, check
//! UTF-8 and decode in parallel. The apply thread puts finished chunks
//! back in order and hands them to the sink one at a time, so what the
//! sink sees — events, failure counts, the first failure — does not
//! depend on how the lines were chunked.
//!
//! The line rules live here and nowhere else: lines are numbered from 1,
//! blank lines (whitespace only, a `\r` included) are skipped but keep
//! their number, a line that is not UTF-8 is one undecodable line, a line
//! longer than [`MAX_LINE`] is read past without being buffered and is one
//! undecodable line, and a stream's decode failures read `N undecodable
//! line(s); first at line L: msg`.

use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, Read};
use std::sync::mpsc::{sync_channel, SyncSender};
use std::sync::Arc;
use std::thread;

use saql_model::json::decode_event_json;
use saql_model::Event;

use crate::SharedEvent;

/// Lines per chunk shipped to the decode workers.
pub const DECODE_CHUNK: usize = 64;

/// The longest line read, newline included: far above any event's or
/// query's line, and it bounds what one line can make a reader buffer.
/// `saql serve` caps its hello, control and `/metrics` request lines at it
/// too.
pub const MAX_LINE: usize = 1 << 20;

/// Decode worker threads per stage: JSON decode moves off the read loop
/// (a single connection's measured ceiling was decode-bound), while the
/// sink still sees one chunk at a time in strict line order.
pub const DECODE_WORKERS: usize = 2;

/// Chunks in flight between the read loop, the workers and the apply
/// thread before the read loop backs off (and a socket's producer with it).
const DECODE_BACKLOG: usize = 8;

/// A job for a decode worker: the chunk's number, the number of its first
/// line, its raw lines, and the numbers of its over-long lines (each an
/// empty line in the raw lines).
type Job = (u64, u64, Vec<u8>, Vec<u64>);

/// What a decode worker returns for a chunk: its events, its failed lines,
/// and the first one's `line L: msg`.
type Decoded = (Vec<Event>, u64, Option<String>);

/// One chunk of input, decoded, as the stage hands it to its sink.
#[derive(Debug, Default)]
pub struct DecodedChunk {
    /// The chunk's lines that decoded, in line order.
    pub events: Vec<SharedEvent>,
    /// The chunk's lines that did not decode (blank lines are not counted).
    pub failed: u64,
    /// Set when `failed > 0`: the stream's decode failures so far,
    /// `N undecodable line(s); first at line L: msg`.
    pub failure: Option<String>,
}

/// Read JSON lines from `reader` to its end and hand them to `sink`
/// decoded, a chunk at a time in line order, on a thread named
/// `saql-apply` (the decode workers are named `saql-decode`). The sink
/// returns `false` to stop the stage early; the rest of the input is then
/// left unread.
///
/// Returns the read error that ended the input early, if any; the lines
/// read before it were all decoded and handed over, a partial line
/// excepted. Every thread has finished, and the sink has seen its last
/// chunk, by the time this returns.
pub fn decode_ndjson<R: Read>(
    reader: &mut BufReader<R>,
    mut sink: impl FnMut(DecodedChunk) -> bool + Send,
) -> io::Result<()> {
    thread::scope(|scope| {
        let (done_tx, done_rx) = sync_channel::<(u64, Decoded)>(DECODE_BACKLOG);
        // One job queue per worker, fed round-robin by chunk number and
        // splitting the backlog; the apply thread puts the chunks back in
        // order.
        let mut job_txs = Vec::with_capacity(DECODE_WORKERS);
        for _ in 0..DECODE_WORKERS {
            let (job_tx, job_rx) = sync_channel::<Job>(DECODE_BACKLOG / DECODE_WORKERS);
            job_txs.push(job_tx);
            let done_tx = done_tx.clone();
            let decoder = move || {
                while let Ok((chunk_no, first_line, bytes, long)) = job_rx.recv() {
                    let decoded = decode_chunk(first_line, &bytes, &long);
                    if done_tx.send((chunk_no, decoded)).is_err() {
                        return; // the apply thread stopped
                    }
                }
            };
            // Named, so a per-thread CPU table tells the stages apart.
            thread::Builder::new()
                .name("saql-decode".into())
                .spawn_scoped(scope, decoder)
                .expect("spawns a decoder");
        }
        drop(done_tx);

        let applier = move || {
            // The stream's failures so far: how many, and the first one.
            let (mut total, mut first) = (0, None);
            let mut pending = HashMap::new();
            let mut next_chunk: u64 = 0;
            while let Ok((chunk_no, decoded)) = done_rx.recv() {
                pending.insert(chunk_no, decoded);
                while let Some((events, failed, first_error)) = pending.remove(&next_chunk) {
                    next_chunk += 1;
                    let failure = first_error.map(|at| {
                        total += failed;
                        let first = first.get_or_insert(at);
                        format!("{total} undecodable line(s); first at {first}")
                    });
                    // Shared here, not on the workers: `Arc`s allocated
                    // there cost serve-flood ~10% of its throughput on 2
                    // cores (the engine's thread frees them, likely into
                    // contended malloc arenas). With decoded strings shared
                    // from the workers' string tables, the `Arc<Event>` is
                    // the one cross-thread free left, and building it on
                    // the workers still cost 5–9% in 3 of 4 pairs.
                    let events = events.into_iter().map(Arc::new).collect();
                    if !sink(DecodedChunk {
                        events,
                        failed,
                        failure,
                    }) {
                        // Dropping the done channel stops the workers, and
                        // with them the read loop.
                        return;
                    }
                }
            }
        };
        thread::Builder::new()
            .name("saql-apply".into())
            .spawn_scoped(scope, applier)
            .expect("spawns the apply stage");

        // Returning drops the job channels, which drains the stage: the
        // workers exit, the done channel closes, the apply thread hands
        // over the tail and returns; the scope joins them all.
        read_chunks(reader, &job_txs)
    })
}

/// The read loop: cut the input into numbered chunks of raw lines.
fn read_chunks<R: Read>(reader: &mut BufReader<R>, jobs: &[SyncSender<Job>]) -> io::Result<()> {
    let mut chunk: Vec<u8> = Vec::new();
    let mut long: Vec<u64> = Vec::new();
    let (mut chunk_no, mut first_line, mut lines): (u64, u64, u64) = (0, 1, 0);
    let send = |job: Job| jobs[job.0 as usize % jobs.len()].send(job).is_ok();
    let outcome = loop {
        let start = chunk.len();
        let read = match reader
            .by_ref()
            .take(MAX_LINE as u64)
            .read_until(b'\n', &mut chunk)
        {
            // Over the cap: read past the rest of the line unbuffered and
            // leave an empty line in its place.
            Ok(MAX_LINE) if chunk.last() != Some(&b'\n') => {
                chunk.truncate(start);
                reader.skip_until(b'\n').map(|_| {
                    chunk.push(b'\n');
                    long.push(first_line + lines);
                    MAX_LINE
                })
            }
            read => read,
        };
        match read {
            Ok(0) => break Ok(()),
            Ok(_) => lines += 1,
            Err(e) => {
                chunk.truncate(start); // a partial line is not a line
                break Err(e);
            }
        }
        if lines >= DECODE_CHUNK as u64 || reader.buffer().is_empty() {
            // A fixed guess of ~256 B a line, so one long line does not
            // size every later chunk.
            let fresh = Vec::with_capacity(DECODE_CHUNK * 256);
            let bytes = std::mem::replace(&mut chunk, fresh);
            if !send((chunk_no, first_line, bytes, std::mem::take(&mut long))) {
                return Ok(()); // the sink stopped the stage
            }
            chunk_no += 1;
            first_line += lines;
            lines = 0;
        }
    };
    if lines > 0 {
        send((chunk_no, first_line, chunk, long));
    }
    outcome
}

/// Split a chunk of raw lines, the first numbered `first_line`, and decode
/// each; the lines numbered in `long` were over [`MAX_LINE`].
fn decode_chunk(first_line: u64, bytes: &[u8], long: &[u64]) -> Decoded {
    let (mut events, mut failed, mut first_error) = (Vec::with_capacity(DECODE_CHUNK), 0, None);
    let lines = bytes.strip_suffix(b"\n").unwrap_or(bytes);
    for (line_no, line) in (first_line..).zip(lines.split(|&b| b == b'\n')) {
        let decoded = match std::str::from_utf8(line) {
            _ if long.contains(&line_no) => Err(format!("line exceeds {MAX_LINE} bytes")),
            Ok(line) if line.trim().is_empty() => continue,
            Ok(line) => decode_event_json(line.trim()).map_err(|e| e.to_string()),
            Err(_) => Err("line is not valid UTF-8".to_string()),
        };
        match decoded {
            Ok(event) => events.push(event),
            Err(e) => {
                failed += 1;
                first_error.get_or_insert_with(|| format!("line {line_no}: {e}"));
            }
        }
    }
    (events, failed, first_error)
}

#[cfg(test)]
mod tests {
    use super::*;
    use saql_model::event::EventBuilder;
    use saql_model::json::encode_event_json;
    use saql_model::ProcessInfo;
    use std::io::Cursor;

    fn ev(id: u64) -> Event {
        EventBuilder::new(id, "h", 1000 + id)
            .subject(ProcessInfo::new(1, "a.exe", "u"))
            .starts_process(ProcessInfo::new(2, "b.exe", "u"))
            .build()
    }

    /// Lines for `ids`; the ids in `bad` are not JSON.
    fn lines(ids: std::ops::Range<u64>, bad: &[u64]) -> Vec<u8> {
        let mut text = String::new();
        for id in ids {
            if bad.contains(&id) {
                text.push_str("not an event\n");
            } else {
                encode_event_json(&mut text, &ev(id));
            }
        }
        text.into_bytes()
    }

    /// Everything the stage hands its sink, read through a `buffer`-byte
    /// reader buffer: the event ids, the failure count, the last failure
    /// note, the number of chunks, and the stage's outcome.
    struct Run {
        ids: Vec<u64>,
        failed: u64,
        failure: Option<String>,
        chunks: usize,
        outcome: io::Result<()>,
    }

    fn run(input: impl Read, buffer: usize) -> Run {
        let mut reader = BufReader::with_capacity(buffer, input);
        let (mut ids, mut failed, mut failure, mut chunks) = (Vec::new(), 0, None, 0);
        let outcome = decode_ndjson(&mut reader, |chunk| {
            chunks += 1;
            ids.extend(chunk.events.iter().map(|e| e.id));
            failed += chunk.failed;
            if chunk.failure.is_some() {
                failure = chunk.failure;
            }
            true
        });
        Run {
            ids,
            failed,
            failure,
            chunks,
            outcome,
        }
    }

    #[test]
    fn decodes_skips_blank_lines_and_counts_failures() {
        let mut text = lines(1..3, &[]);
        text.extend_from_slice(b"not json\n\n");
        text.extend_from_slice(&lines(3..4, &[]));
        let out = run(Cursor::new(text), 8192);
        assert_eq!(out.ids, vec![1, 2, 3]);
        assert_eq!(out.failed, 1);
        let failure = out.failure.unwrap();
        assert!(
            failure.starts_with("1 undecodable line(s); first at line 3: invalid JSON"),
            "{failure}"
        );
        assert!(out.outcome.is_ok());
    }

    #[test]
    fn a_non_utf8_line_is_one_failure_and_reading_goes_on() {
        let mut bytes = lines(1..2, &[]);
        let mut second = lines(2..3, &[]);
        second[16] = 0xff; // the `h` of `"host":"h"`
        bytes.extend_from_slice(&second);
        bytes.extend_from_slice(b"   \r\n"); // blank, but still line 3
        bytes.extend_from_slice(&lines(3..4, &[]));
        let out = run(Cursor::new(bytes), 8192);
        assert_eq!(out.ids, vec![1, 3]);
        assert_eq!(
            out.failure.as_deref(),
            Some("1 undecodable line(s); first at line 2: line is not valid UTF-8")
        );
    }

    #[test]
    fn lines_are_numbered_across_chunks() {
        // A 512-byte read buffer cuts chunks far below 64 lines; line 70
        // (id 69) and line 100 (id 99) are bad.
        let out = run(Cursor::new(lines(0..128, &[69, 99])), 512);
        assert!(out.chunks > 2, "{} chunk(s)", out.chunks);
        assert_eq!(out.ids.len(), 126);
        assert!(out.ids.windows(2).all(|w| w[0] < w[1]), "line order");
        assert_eq!(out.failed, 2);
        let failure = out.failure.unwrap();
        assert!(
            failure.starts_with("2 undecodable line(s); first at line 70:"),
            "{failure}"
        );
    }

    #[test]
    fn crlf_endings_and_a_last_line_without_newline_decode() {
        let text = String::from_utf8(lines(1..4, &[])).unwrap();
        let crlf = text.replace('\n', "\r\n");
        let unterminated = crlf.strip_suffix("\r\n").unwrap().to_string();
        let out = run(Cursor::new(unterminated), 8192);
        assert_eq!(out.ids, vec![1, 2, 3]);
        assert_eq!(out.failed, 0);
    }

    /// Reads `data`, then fails.
    struct FailAfter {
        data: Cursor<Vec<u8>>,
    }

    impl Read for FailAfter {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            match self.data.read(buf)? {
                0 => Err(io::Error::other("disk on fire")),
                n => Ok(n),
            }
        }
    }

    #[test]
    fn a_read_error_hands_over_every_whole_line_before_it() {
        let mut data = lines(1..40, &[]);
        data.extend_from_slice(b"{\"id\":40,"); // cut mid-line
        let out = run(
            FailAfter {
                data: Cursor::new(data),
            },
            256,
        );
        assert_eq!(out.ids, (1..40).collect::<Vec<_>>());
        assert_eq!(out.failed, 0, "the partial line is dropped, not decoded");
        assert_eq!(out.outcome.unwrap_err().to_string(), "disk on fire");
    }

    #[test]
    fn a_sink_that_stops_stops_the_read_loop() {
        // Endless input: only the sink's `false` can end the stage.
        let mut reader = BufReader::new(io::repeat(b'\n'));
        let mut calls = 0;
        let outcome = decode_ndjson(&mut reader, |_| {
            calls += 1;
            false
        });
        assert!(outcome.is_ok());
        assert_eq!(calls, 1, "no chunk after the sink said stop");
    }

    #[test]
    fn an_over_long_line_is_one_failure_and_is_not_buffered() {
        // Twice the cap without a newline, then three events: the long
        // line is line 1, no chunk holds it, and reading goes on after it.
        let input = || {
            let mut bytes = vec![b'x'; 2 * MAX_LINE];
            bytes.push(b'\n');
            bytes.extend_from_slice(&lines(1..4, &[]));
            Cursor::new(bytes)
        };
        let (tx, rx) = sync_channel::<Job>(64);
        read_chunks(&mut BufReader::new(input()), &[tx]).unwrap();
        let largest = rx.try_iter().map(|(_, _, bytes, _)| bytes.len()).max();
        assert!(largest < Some(1024), "a chunk held {largest:?} bytes");
        let out = run(input(), 8192);
        assert_eq!(out.ids, vec![1, 2, 3]);
        assert_eq!(out.failed, 1);
        assert_eq!(
            out.failure.as_deref(),
            Some("1 undecodable line(s); first at line 1: line exceeds 1048576 bytes")
        );
    }
}
