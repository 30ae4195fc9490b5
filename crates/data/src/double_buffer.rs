//! Asynchronous double-buffered data input (§4.1).
//!
//! The paper: "We implemented asynchronous double buffering, i.e., we work
//! with two input buffers: one that is being processed and one that is
//! being loaded from disk." The build phase of the initial tree is I/O
//! bound, so overlapping parsing with insertion hides most of the input
//! latency.
//!
//! [`DoubleBufferedReader`] spawns one background thread that reads and
//! parses chunks of transactions into a [`TransactionDb`] buffer while the
//! consumer processes the previously filled buffer. Exactly two buffers
//! circulate between the threads, so memory stays bounded no matter how
//! large the input file is.
//!
//! # Failure model
//!
//! Failures on the reading thread never panic the consumer. An I/O error
//! (or a strict-policy parse error) is forwarded through the buffer
//! channel and surfaces as the `Err` of the next
//! [`next_chunk`](DoubleBufferedReader::next_chunk) call — chunks read
//! before the failure are still delivered in order first. Even a failed
//! thread spawn is reported this way instead of panicking.

use crate::fimi::{parse_line_with_policy, ParsePolicy, ParseStats};
use crate::types::{Item, TransactionDb};
use std::io::{self, BufRead, BufReader, Read};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

/// Default number of transactions per buffer.
pub const DEFAULT_CHUNK: usize = 8192;

enum Filled {
    Chunk(TransactionDb),
    Err(io::Error),
}

/// Streams transactions from a reader with one background parsing thread
/// and two circulating buffers.
pub struct DoubleBufferedReader {
    filled_rx: Receiver<Filled>,
    empty_tx: Option<SyncSender<TransactionDb>>,
    worker: Option<JoinHandle<()>>,
    stats: Arc<Mutex<ParseStats>>,
}

impl DoubleBufferedReader {
    /// Starts reading `input` with the default chunk size.
    pub fn new(input: impl Read + Send + 'static) -> Self {
        Self::with_chunk_size(input, DEFAULT_CHUNK)
    }

    /// Starts reading `input`, grouping `chunk` transactions per buffer.
    pub fn with_chunk_size(input: impl Read + Send + 'static, chunk: usize) -> Self {
        Self::with_policy(input, chunk, ParsePolicy::Strict)
    }

    /// Starts reading `input` under an explicit [`ParsePolicy`], grouping
    /// `chunk` transactions per buffer.
    pub fn with_policy(
        input: impl Read + Send + 'static,
        chunk: usize,
        policy: ParsePolicy,
    ) -> Self {
        assert!(chunk > 0, "chunk size must be positive");
        let (filled_tx, filled_rx) = sync_channel::<Filled>(2);
        let (empty_tx, empty_rx) = sync_channel::<TransactionDb>(2);
        // Two buffers circulate: one being filled, one being drained.
        empty_tx.send(TransactionDb::new()).expect("fresh channel");
        empty_tx.send(TransactionDb::new()).expect("fresh channel");

        let stats = Arc::new(Mutex::new(ParseStats::default()));
        let worker_stats = Arc::clone(&stats);
        let spawn_tx = filled_tx.clone();
        let worker = std::thread::Builder::new().name("cfp-data-reader".into()).spawn(move || {
            let mut reader = BufReader::new(input);
            let mut line = String::new();
            let mut items: Vec<Item> = Vec::new();
            let mut local = ParseStats::default();
            let flush = |local: &ParseStats| {
                *worker_stats.lock().unwrap_or_else(|e| e.into_inner()) = *local;
            };
            'outer: while let Ok(mut db) = empty_rx.recv() {
                db.clear(); // reuse the recycled buffer's allocation
                let mut n = 0;
                loop {
                    line.clear();
                    if cfp_fault::should_fail("data.read") {
                        flush(&local);
                        let _ = filled_tx.send(Filled::Err(io::Error::other(
                            "injected I/O failure (failpoint data.read)",
                        )));
                        break 'outer;
                    }
                    match reader.read_line(&mut line) {
                        Ok(0) => {
                            flush(&local);
                            if !db.is_empty() {
                                if cfp_trace::events::capturing() {
                                    cfp_trace::events::record(cfp_trace::EventKind::BufferSwap {
                                        rows: n as u32,
                                    });
                                }
                                let _ = filled_tx.send(Filled::Chunk(db));
                            }
                            break 'outer;
                        }
                        Ok(_) => {
                            local.lines += 1;
                            items.clear();
                            match parse_line_with_policy(
                                &line,
                                local.lines,
                                policy,
                                &mut items,
                                &mut local,
                            ) {
                                Ok(true) => {
                                    db.push(&items);
                                    n += 1;
                                    if n == chunk {
                                        flush(&local);
                                        if cfp_trace::events::capturing() {
                                            cfp_trace::events::record(
                                                cfp_trace::EventKind::BufferSwap { rows: n as u32 },
                                            );
                                        }
                                        if filled_tx.send(Filled::Chunk(db)).is_err() {
                                            break 'outer; // consumer dropped
                                        }
                                        continue 'outer;
                                    }
                                }
                                Ok(false) => {} // line skipped under ParsePolicy::Skip
                                Err(e) => {
                                    flush(&local);
                                    let _ = filled_tx.send(Filled::Err(e.into()));
                                    break 'outer;
                                }
                            }
                        }
                        Err(e) => {
                            flush(&local);
                            let _ = filled_tx.send(Filled::Err(e));
                            break 'outer;
                        }
                    }
                }
            }
        });
        let worker = match worker {
            Ok(h) => Some(h),
            Err(e) => {
                // Report the failed spawn through the normal error path
                // instead of panicking the consumer.
                let _ = spawn_tx.send(Filled::Err(e));
                None
            }
        };

        DoubleBufferedReader { filled_rx, empty_tx: Some(empty_tx), worker, stats }
    }

    /// Receives the next filled buffer, or `None` at end of input.
    ///
    /// The previous buffer should be handed back via
    /// [`recycle`](Self::recycle) to keep both buffers circulating.
    pub fn next_chunk(&mut self) -> io::Result<Option<TransactionDb>> {
        let wait_t0 = cfp_trace::hist::maybe_now();
        let received = self.filled_rx.recv();
        cfp_trace::hist::record_since(&cfp_trace::hist::DATA_BUFFER_WAIT_NANOS, wait_t0);
        match received {
            Ok(Filled::Chunk(db)) => Ok(Some(db)),
            Ok(Filled::Err(e)) => Err(e),
            Err(_) => Ok(None), // worker finished and dropped its sender
        }
    }

    /// Returns a drained buffer to the reading thread.
    pub fn recycle(&mut self, buffer: TransactionDb) {
        if let Some(tx) = &self.empty_tx {
            let _ = tx.send(buffer);
        }
    }

    /// Parse statistics observed so far. Updated at chunk boundaries and
    /// on stream end, so the value is only final once
    /// [`next_chunk`](Self::next_chunk) has returned `Ok(None)` or `Err`.
    pub fn parse_stats(&self) -> ParseStats {
        *self.stats.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Drives the whole stream through `f`, recycling buffers internally.
    pub fn for_each_transaction(mut self, mut f: impl FnMut(&[Item])) -> io::Result<()> {
        while let Some(chunk) = self.next_chunk()? {
            for t in chunk.iter() {
                f(t);
            }
            self.recycle(chunk);
        }
        Ok(())
    }

    /// Collects the entire stream into one database.
    pub fn collect(mut self) -> io::Result<TransactionDb> {
        let mut out = TransactionDb::new();
        while let Some(chunk) = self.next_chunk()? {
            for t in chunk.iter() {
                out.push(t);
            }
            self.recycle(chunk);
        }
        Ok(out)
    }
}

impl Drop for DoubleBufferedReader {
    fn drop(&mut self) {
        // Closing the empty-buffer channel tells the worker to stop.
        self.empty_tx.take();
        // Drain anything in flight so the worker's send doesn't block.
        while self.filled_rx.try_recv().is_ok() {}
        if let Some(h) = self.worker.take() {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fimi;

    fn sample_text(n: usize) -> String {
        let mut s = String::new();
        for i in 0..n {
            s.push_str(&format!("{} {} {}\n", i % 10, i % 7 + 10, i % 3 + 20));
        }
        s
    }

    #[test]
    fn collect_matches_plain_reader() {
        let text = sample_text(1000);
        let via_plain = fimi::read(text.as_bytes()).unwrap();
        let via_db =
            DoubleBufferedReader::with_chunk_size(std::io::Cursor::new(text.into_bytes()), 64)
                .collect()
                .unwrap();
        assert_eq!(via_db, via_plain);
    }

    #[test]
    fn for_each_visits_every_transaction_in_order() {
        let text = sample_text(257); // not a multiple of the chunk size
        let rdr =
            DoubleBufferedReader::with_chunk_size(std::io::Cursor::new(text.into_bytes()), 100);
        let mut seen = Vec::new();
        rdr.for_each_transaction(|t| seen.push(t.to_vec())).unwrap();
        assert_eq!(seen.len(), 257);
        assert_eq!(seen[0], vec![0, 10, 20]);
        assert_eq!(seen[256], vec![256 % 10, 256 % 7 + 10, 256 % 3 + 20]);
    }

    #[test]
    fn empty_input_yields_nothing() {
        let rdr = DoubleBufferedReader::new(std::io::Cursor::new(Vec::<u8>::new()));
        let db = rdr.collect().unwrap();
        assert!(db.is_empty());
    }

    #[test]
    fn parse_errors_propagate() {
        let rdr = DoubleBufferedReader::new(std::io::Cursor::new(b"1 2\n3 oops\n".to_vec()));
        assert!(rdr.collect().is_err());
    }

    #[test]
    fn strict_error_cites_the_line_number() {
        let mut rdr =
            DoubleBufferedReader::new(std::io::Cursor::new(b"1 2\n2 3\nbad x\n".to_vec()));
        let first = rdr.next_chunk();
        // The single chunk errors out because the bad line arrives before
        // the chunk boundary; the message names line 3.
        let err = first.expect_err("strict parse must fail");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("line 3"), "{err}");
    }

    #[test]
    fn skip_policy_drops_bad_lines_and_counts_them() {
        let text = b"1 2\nbad x\n3 4\n".to_vec();
        let mut rdr =
            DoubleBufferedReader::with_policy(std::io::Cursor::new(text), 64, ParsePolicy::Skip);
        let mut rows = Vec::new();
        while let Some(chunk) = rdr.next_chunk().unwrap() {
            for t in chunk.iter() {
                rows.push(t.to_vec());
            }
            rdr.recycle(chunk);
        }
        assert_eq!(rows, vec![vec![1, 2], vec![3, 4]]);
        let stats = rdr.parse_stats();
        assert_eq!(stats.lines, 3);
        assert_eq!(stats.skipped_lines, 1);
        assert_eq!(stats.bad_tokens, 2);
    }

    #[test]
    fn skip_policy_damage_accounting_spans_chunk_boundaries() {
        // Malformed, blank, and valid lines interleaved, with a chunk
        // size small enough that the damage spreads over many chunks —
        // the final stats must still see every line exactly once.
        let mut text = String::new();
        let mut expected_rows = 0u64;
        for i in 0..50u32 {
            text.push_str(&format!("{} {}\n", i, i + 1)); // valid
            text.push('\n'); // blank: valid empty transaction
            text.push_str("oops -3\n"); // malformed: 2 bad tokens
            expected_rows += 2;
        }
        let mut rdr = DoubleBufferedReader::with_policy(
            std::io::Cursor::new(text.into_bytes()),
            4,
            ParsePolicy::Skip,
        );
        let mut rows = 0u64;
        while let Some(chunk) = rdr.next_chunk().unwrap() {
            rows += chunk.len() as u64;
            rdr.recycle(chunk);
        }
        assert_eq!(rows, expected_rows);
        let stats = rdr.parse_stats();
        assert_eq!(stats.lines, 150);
        assert_eq!(stats.skipped_lines, 50);
        assert_eq!(stats.bad_tokens, 100);
    }

    #[cfg(feature = "trace")]
    #[test]
    fn skip_policy_trace_counters_through_double_buffer() {
        use cfp_trace::counters as tc;
        let before_lines = tc::DATA_SKIPPED_LINES.get();
        let before_tokens = tc::DATA_BAD_TOKENS.get();
        cfp_trace::set_enabled(true);
        let text = b"1 2\nbad\n\n3\nworse yet\n".to_vec();
        let mut rdr =
            DoubleBufferedReader::with_policy(std::io::Cursor::new(text), 2, ParsePolicy::Skip);
        while let Some(chunk) = rdr.next_chunk().unwrap() {
            rdr.recycle(chunk);
        }
        cfp_trace::set_enabled(false);
        let stats = rdr.parse_stats();
        assert_eq!(stats.skipped_lines, 2);
        assert_eq!(stats.bad_tokens, 3);
        // Trace counters mirror the per-read stats (>= because other
        // trace-gated tests share the global registry).
        assert!(tc::DATA_SKIPPED_LINES.get() >= before_lines + 2);
        assert!(tc::DATA_BAD_TOKENS.get() >= before_tokens + 3);
    }

    #[cfg(feature = "trace")]
    #[test]
    fn buffer_swaps_land_on_the_reader_threads_event_track() {
        cfp_trace::events::set_capture(true);
        let text = sample_text(250);
        let rdr =
            DoubleBufferedReader::with_chunk_size(std::io::Cursor::new(text.into_bytes()), 100);
        let db = rdr.collect().unwrap();
        assert_eq!(db.len(), 250);
        cfp_trace::events::set_capture(false);
        let tracks = cfp_trace::events::drain();
        // Readers of tests running alongside this one record onto tracks
        // of the same name while capture is on, so look for this
        // reader's swaps on any of them.
        let swaps: Vec<Vec<u32>> = tracks
            .iter()
            .filter(|t| t.name == "cfp-data-reader")
            .map(|t| {
                t.events
                    .iter()
                    .filter_map(|e| match e.kind {
                        cfp_trace::EventKind::BufferSwap { rows } => Some(rows),
                        _ => None,
                    })
                    .collect()
            })
            .collect();
        assert!(!swaps.is_empty(), "reader thread must have a named track");
        // 250 rows in chunks of 100: two full buffers plus the final
        // partial one at end of input.
        assert!(swaps.contains(&vec![100, 100, 50]), "{swaps:?}");
    }

    #[test]
    fn dropping_early_does_not_hang() {
        let text = sample_text(100_000);
        let mut rdr =
            DoubleBufferedReader::with_chunk_size(std::io::Cursor::new(text.into_bytes()), 128);
        let first = rdr.next_chunk().unwrap();
        assert!(first.is_some());
        drop(rdr); // must join cleanly even with data still in flight
    }
}
