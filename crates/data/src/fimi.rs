//! The FIMI text format: one transaction per line, items as ASCII decimal
//! integers separated by spaces. All datasets of the FIMI repository use
//! this format, and so do our generated datasets.

use crate::types::{Item, TransactionDb};
use cfp_fault::CfpError;
use cfp_trace::counters as tc;
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;

/// How a reader treats malformed input lines.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ParsePolicy {
    /// Reject the stream at the first malformed token, reporting the
    /// 1-based line number (the default).
    #[default]
    Strict,
    /// Discard each malformed line wholesale and keep reading. The whole
    /// line is dropped — keeping the parseable prefix of a corrupt line
    /// would silently skew supports — and the damage is recorded in
    /// [`ParseStats`] (and, under tracing, the `data.skipped_lines` /
    /// `data.bad_tokens` counters).
    Skip,
}

/// What a policy-aware read saw.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ParseStats {
    /// Total input lines read (including skipped ones).
    pub lines: u64,
    /// Lines discarded under [`ParsePolicy::Skip`].
    pub skipped_lines: u64,
    /// Malformed tokens across all skipped lines.
    pub bad_tokens: u64,
}

/// Parses one FIMI line under `policy`, appending valid items to `out`.
/// Empty lines are valid empty transactions.
///
/// Returns `Ok(true)` when the line is a transaction to keep and
/// `Ok(false)` when [`ParsePolicy::Skip`] discarded it (with `out`
/// restored and `stats` updated). Under [`ParsePolicy::Strict`] the first
/// bad token aborts with [`CfpError::Parse`] citing `line_no` (1-based).
pub fn parse_line_with_policy(
    line: &str,
    line_no: u64,
    policy: ParsePolicy,
    out: &mut Vec<Item>,
    stats: &mut ParseStats,
) -> Result<bool, CfpError> {
    let start = out.len();
    let mut bad = 0u64;
    for tok in line.split_ascii_whitespace() {
        match tok.parse::<Item>() {
            Ok(item) => out.push(item),
            Err(e) => match policy {
                ParsePolicy::Strict => {
                    return Err(CfpError::Parse {
                        line: line_no,
                        message: format!("bad item {tok:?}: {e}"),
                    });
                }
                ParsePolicy::Skip => bad += 1,
            },
        }
    }
    if bad > 0 {
        out.truncate(start);
        stats.skipped_lines += 1;
        stats.bad_tokens += bad;
        if cfp_trace::enabled() {
            tc::DATA_SKIPPED_LINES.inc();
            tc::DATA_BAD_TOKENS.add(bad);
        }
        return Ok(false);
    }
    Ok(true)
}

/// Reads a whole FIMI stream into a [`TransactionDb`].
pub fn read(reader: impl Read) -> io::Result<TransactionDb> {
    read_with_policy(reader, ParsePolicy::Strict).map(|(db, _)| db).map_err(io::Error::from)
}

/// Reads a whole FIMI stream under the given [`ParsePolicy`].
pub fn read_with_policy(
    reader: impl Read,
    policy: ParsePolicy,
) -> Result<(TransactionDb, ParseStats), CfpError> {
    let mut db = TransactionDb::new();
    let mut stats = ParseStats::default();
    let mut buf = BufReader::new(reader);
    let mut line = String::new();
    let mut items = Vec::new();
    loop {
        line.clear();
        if buf.read_line(&mut line)? == 0 {
            break;
        }
        stats.lines += 1;
        items.clear();
        if parse_line_with_policy(&line, stats.lines, policy, &mut items, &mut stats)? {
            db.push(&items);
        }
    }
    Ok((db, stats))
}

/// Reads a FIMI file from disk.
pub fn read_file(path: impl AsRef<Path>) -> io::Result<TransactionDb> {
    read(std::fs::File::open(path)?)
}

/// Reads a FIMI file from disk under the given [`ParsePolicy`].
pub fn read_file_with_policy(
    path: impl AsRef<Path>,
    policy: ParsePolicy,
) -> Result<(TransactionDb, ParseStats), CfpError> {
    read_with_policy(std::fs::File::open(path)?, policy)
}

/// Writes a database in FIMI format.
pub fn write(db: &TransactionDb, writer: impl Write) -> io::Result<()> {
    let mut w = BufWriter::new(writer);
    let mut line = String::new();
    for t in db.iter() {
        line.clear();
        for (i, item) in t.iter().enumerate() {
            if i > 0 {
                line.push(' ');
            }
            line.push_str(&item.to_string());
        }
        line.push('\n');
        w.write_all(line.as_bytes())?;
    }
    w.flush()
}

/// Writes a database to a FIMI file on disk.
pub fn write_file(db: &TransactionDb, path: impl AsRef<Path>) -> io::Result<()> {
    write(db, std::fs::File::create(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Seeded bytes biased toward the FIMI alphabet: the parser either
    /// parses them or returns an error, and never panics.
    #[test]
    fn reader_is_total_on_seeded_random_bytes() {
        use crate::rng::{Rng, StdRng};
        let mut rng = StdRng::seed_from_u64(0xF1A1);
        let alphabet = b"0123456789 \t\n\r-+x";
        for _ in 0..2000 {
            let len = rng.gen_range(0..512);
            let bytes: Vec<u8> = (0..len)
                .map(|_| {
                    if rng.gen_bool(0.8) {
                        alphabet[rng.gen_range(0..alphabet.len())]
                    } else {
                        rng.gen::<u8>()
                    }
                })
                .collect();
            let _ = read(bytes.as_slice());
        }
    }

    /// Seeded databases round-trip exactly through the text format.
    #[test]
    fn seeded_databases_round_trip_through_the_text_format() {
        use crate::rng::{Rng, StdRng};
        let mut rng = StdRng::seed_from_u64(0xF1A2);
        for _ in 0..500 {
            let rows: Vec<Vec<u32>> = (0..rng.gen_range(0..20))
                .map(|_| (0..rng.gen_range(0..12)).map(|_| rng.gen_range(0..100_000)).collect())
                .collect();
            let db = TransactionDb::from_rows(&rows);
            let mut buf = Vec::new();
            write(&db, &mut buf).unwrap();
            assert_eq!(read(buf.as_slice()).unwrap(), db, "{rows:?}");
        }
    }

    /// One line under [`ParsePolicy::Strict`] as line 1.
    fn parse_strict(line: &str) -> Result<Vec<Item>, CfpError> {
        let (mut out, mut stats) = (Vec::new(), ParseStats::default());
        let kept = parse_line_with_policy(line, 1, ParsePolicy::Strict, &mut out, &mut stats)?;
        assert!(kept, "a strict parse keeps every line it accepts");
        Ok(out)
    }

    #[test]
    fn parse_basic_line() {
        assert_eq!(parse_strict("1 25 7\n").unwrap(), vec![1, 25, 7]);
        assert_eq!(parse_strict("\n").unwrap(), vec![], "an empty line is an empty row");
    }

    #[test]
    fn parse_tolerates_extra_whitespace() {
        assert_eq!(parse_strict("  3\t 4   5 ").unwrap(), vec![3, 4, 5]);
    }

    #[test]
    fn parse_rejects_garbage() {
        for bad in ["1 x 3", "-4"] {
            match parse_strict(bad) {
                Err(CfpError::Parse { line: 1, .. }) => {}
                other => panic!("{bad:?} parsed as {other:?}"),
            }
        }
    }

    #[test]
    fn strict_rejects_item_overflow_citing_the_line() {
        // 4294967296 = 2^32 overflows the u32 item type.
        let text = "1 2\n3 4294967296 4\n";
        let err = read_with_policy(text.as_bytes(), ParsePolicy::Strict).unwrap_err();
        match err {
            CfpError::Parse { line, ref message } => {
                assert_eq!(line, 2);
                assert!(message.contains("4294967296"), "{message}");
            }
            ref other => panic!("{other:?}"),
        }
        assert_eq!(err.exit_code(), 3);
    }

    #[test]
    fn strict_rejects_negative_tokens_citing_the_line() {
        let text = "7\n8\n9\n-4 1\n";
        match read_with_policy(text.as_bytes(), ParsePolicy::Strict).unwrap_err() {
            CfpError::Parse { line, message } => {
                assert_eq!(line, 4);
                assert!(message.contains("-4"), "{message}");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn both_policies_tolerate_crlf_trailing_whitespace_and_empty_lines() {
        let text = "1 2\r\n  3 4  \t\n\n5\r\n";
        for policy in [ParsePolicy::Strict, ParsePolicy::Skip] {
            let (db, stats) = read_with_policy(text.as_bytes(), policy).unwrap();
            assert_eq!(db.len(), 4, "{policy:?}");
            assert_eq!(db.get(0), &[1, 2]);
            assert_eq!(db.get(1), &[3, 4]);
            assert_eq!(db.get(2), &[] as &[Item]);
            assert_eq!(db.get(3), &[5]);
            assert_eq!(stats.lines, 4);
            assert_eq!(stats.skipped_lines, 0);
            assert_eq!(stats.bad_tokens, 0);
        }
    }

    #[test]
    fn skip_policy_drops_whole_lines_and_counts_damage() {
        let text = "1 2\n3 x -9 4\n4294967296\n5 6\n";
        let (db, stats) = read_with_policy(text.as_bytes(), ParsePolicy::Skip).unwrap();
        // The partially-parseable line 2 is dropped wholesale: keeping
        // "3 4" would silently skew supports.
        assert_eq!(db.len(), 2);
        assert_eq!(db.get(0), &[1, 2]);
        assert_eq!(db.get(1), &[5, 6]);
        assert_eq!(stats.lines, 4);
        assert_eq!(stats.skipped_lines, 2);
        assert_eq!(stats.bad_tokens, 3); // "x", "-9", "4294967296"
    }

    #[test]
    fn skip_policy_accounts_damage_across_mixed_content() {
        // A file mixing valid transactions, blank lines (valid empty
        // transactions), whitespace-only lines, and malformed lines of
        // one and several bad tokens.
        let text = "1 2 3\n\nx y\n4 5\n   \t\n-1\n6\n";
        let (db, stats) = read_with_policy(text.as_bytes(), ParsePolicy::Skip).unwrap();
        assert_eq!(db.len(), 5, "blank lines are kept as empty transactions");
        assert_eq!(db.get(0), &[1, 2, 3]);
        assert_eq!(db.get(1), &[] as &[Item]);
        assert_eq!(db.get(2), &[4, 5]);
        assert_eq!(db.get(3), &[] as &[Item]);
        assert_eq!(db.get(4), &[6]);
        assert_eq!(stats.lines, 7, "every line is counted, skipped or not");
        assert_eq!(stats.skipped_lines, 2, "\"x y\" and \"-1\"");
        assert_eq!(stats.bad_tokens, 3, "\"x\", \"y\", \"-1\"");
    }

    #[cfg(feature = "trace")]
    #[test]
    fn skip_policy_counters_match_parse_stats_deltas() {
        use cfp_trace::counters as tc;
        let before_lines = tc::DATA_SKIPPED_LINES.get();
        let before_tokens = tc::DATA_BAD_TOKENS.get();
        cfp_trace::set_enabled(true);
        let (_, stats) =
            read_with_policy("a\n1\nb c\n\n2 3\n".as_bytes(), ParsePolicy::Skip).unwrap();
        cfp_trace::set_enabled(false);
        assert_eq!(stats.skipped_lines, 2);
        assert_eq!(stats.bad_tokens, 3);
        // Other trace-gated tests may run concurrently in this process,
        // so assert the counters advanced by at least our own damage.
        assert!(tc::DATA_SKIPPED_LINES.get() >= before_lines + 2);
        assert!(tc::DATA_BAD_TOKENS.get() >= before_tokens + 3);
    }

    #[cfg(feature = "trace")]
    #[test]
    fn skip_policy_records_trace_counters() {
        use cfp_trace::counters as tc;
        let before_lines = tc::DATA_SKIPPED_LINES.get();
        let before_tokens = tc::DATA_BAD_TOKENS.get();
        cfp_trace::set_enabled(true);
        let (_, stats) = read_with_policy("ok 1\n2 3\n".as_bytes(), ParsePolicy::Skip).unwrap();
        cfp_trace::set_enabled(false);
        assert_eq!(stats.skipped_lines, 1);
        assert!(tc::DATA_SKIPPED_LINES.get() > before_lines);
        assert!(tc::DATA_BAD_TOKENS.get() > before_tokens);
    }

    #[test]
    fn read_handles_empty_lines_and_missing_trailing_newline() {
        let text = "1 2 3\n\n4 5";
        let db = read(text.as_bytes()).unwrap();
        assert_eq!(db.len(), 3);
        assert_eq!(db.get(0), &[1, 2, 3]);
        assert_eq!(db.get(1), &[] as &[Item]);
        assert_eq!(db.get(2), &[4, 5]);
    }

    #[test]
    fn write_read_round_trip() {
        let db = TransactionDb::from_rows(&[vec![10, 20, 30], vec![7], vec![]]);
        let mut buf = Vec::new();
        write(&db, &mut buf).unwrap();
        let back = read(buf.as_slice()).unwrap();
        assert_eq!(back, db);
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join("cfp_fimi_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("rt.dat");
        let db = TransactionDb::from_rows(&[vec![1, 2], vec![3]]);
        write_file(&db, &path).unwrap();
        assert_eq!(read_file(&path).unwrap(), db);
        std::fs::remove_file(&path).ok();
    }
}
