//! Property tests of the newline-aligned chunk splitter: any input, at
//! any chunk target, is covered exactly once with consistent line
//! accounting — the foundation of the parallel ingest front end.

use ees_iotrace::chunk::{ChunkReader, RawChunk, SliceChunker};
use ees_iotrace::ndjson::count_byte;
use proptest::prelude::*;
use std::io::Cursor;

/// A line fragment: printable text, possibly empty, a comment, or CRLF.
fn arb_line() -> impl Strategy<Value = String> {
    prop_oneof![
        4 => prop::collection::vec(0x20u8..0x7f, 0..40)
            .prop_map(|v| String::from_utf8(v).unwrap()),
        1 => Just(String::new()),
        1 => Just("# comment".to_string()),
        1 => Just("payload\r".to_string()),
    ]
}

fn split(input: &str, target: usize) -> Vec<RawChunk> {
    ChunkReader::new(Cursor::new(input.to_string()), target)
        .collect::<std::io::Result<_>>()
        .unwrap()
}

/// A reader that hands out at most the next of `sizes` bytes per call
/// (cycling) — the shape of a pipe whose writer trickles data in.
struct ShortReads {
    bytes: Vec<u8>,
    pos: usize,
    sizes: Vec<usize>,
    call: usize,
}

impl std::io::Read for ShortReads {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let cap = self.sizes[self.call % self.sizes.len()];
        self.call += 1;
        let n = cap.min(buf.len()).min(self.bytes.len() - self.pos);
        buf[..n].copy_from_slice(&self.bytes[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

/// Every line of every chunk, with its absolute line number.
fn numbered_lines(chunks: &[RawChunk]) -> Vec<(u64, Vec<u8>)> {
    chunks
        .iter()
        .flat_map(|c| c.lines().map(|(n, l)| (n, l.to_vec())))
        .collect()
}

proptest! {
    /// Concatenating the chunks reproduces the input byte for byte, with
    /// dense sequence numbers, correct first-line numbers, and interior
    /// chunks ending on newline boundaries — for inputs with and without
    /// a trailing newline, at targets from one byte up.
    #[test]
    fn chunks_cover_input_exactly_once(
        lines in prop::collection::vec(arb_line(), 0..30),
        target in 1usize..200,
        trailing_newline in prop::bool::ANY,
    ) {
        let mut input = lines.join("\n");
        if trailing_newline && !input.is_empty() {
            input.push('\n');
        }
        let got = split(&input, target);
        let rejoined: Vec<u8> = got.iter().flat_map(|c| c.bytes.clone()).collect();
        prop_assert_eq!(rejoined, input.as_bytes().to_vec());

        let mut lineno = 1u64;
        for (i, c) in got.iter().enumerate() {
            prop_assert_eq!(c.seq, i as u64);
            prop_assert_eq!(c.first_lineno, lineno);
            prop_assert!(!c.bytes.is_empty(), "empty chunk emitted");
            lineno += count_byte(&c.bytes, b'\n') as u64;
        }
        for c in &got[..got.len().saturating_sub(1)] {
            prop_assert_eq!(c.bytes.last().copied(), Some(b'\n'));
        }
    }

    /// The per-chunk line iterator enumerates exactly the input's lines,
    /// in order, with absolute line numbers — every line exactly once,
    /// regardless of where the chunk cuts landed.
    #[test]
    fn chunk_lines_enumerate_each_line_exactly_once(
        lines in prop::collection::vec(arb_line(), 1..30),
        target in 1usize..100,
        trailing_newline in prop::bool::ANY,
    ) {
        let mut input = lines.join("\n");
        if trailing_newline && !input.is_empty() {
            input.push('\n');
        }
        let all = numbered_lines(&split(&input, target));
        let mut want: Vec<(u64, Vec<u8>)> = input
            .split('\n')
            .enumerate()
            .map(|(i, l)| (i as u64 + 1, l.as_bytes().to_vec()))
            .collect();
        // Empty input has no lines, and a trailing newline terminates
        // the last line; split() invents an empty line in both cases
        // that no reader would see.
        if input.is_empty() || input.ends_with('\n') {
            want.pop();
        }
        prop_assert_eq!(all, want);
    }

    /// The zero-copy slice chunker cuts an mmap'd buffer chunk-for-chunk
    /// identically to the streamed reader — same sequence numbers, line
    /// numbers, and bytes — so switching a file from streamed reads to
    /// mmap cannot move a single chunk boundary.
    #[test]
    fn slice_chunker_matches_streamed_reader_exactly(
        lines in prop::collection::vec(arb_line(), 0..30),
        target in 1usize..200,
        trailing_newline in prop::bool::ANY,
    ) {
        let mut input = lines.join("\n");
        if trailing_newline && !input.is_empty() {
            input.push('\n');
        }
        let streamed = split(&input, target);
        let sliced: Vec<_> = SliceChunker::new(input.as_bytes(), target).collect();
        prop_assert_eq!(streamed.len(), sliced.len());
        for (s, z) in streamed.iter().zip(&sliced) {
            prop_assert_eq!(s.seq, z.seq);
            prop_assert_eq!(s.first_lineno, z.first_lineno);
            prop_assert_eq!(&s.bytes[..], z.bytes);
        }
    }

    /// Short reads (a trickling pipe) may cut chunks early, but the
    /// chunks still cover the input exactly once on line boundaries and
    /// yield the same lines with the same line numbers as a full-speed
    /// read of the same bytes.
    #[test]
    fn short_reads_yield_the_same_lines(
        lines in prop::collection::vec(arb_line(), 0..30),
        target in 1usize..200,
        sizes in prop::collection::vec(1usize..64, 1..8),
        trailing_newline in prop::bool::ANY,
    ) {
        let mut input = lines.join("\n");
        if trailing_newline && !input.is_empty() {
            input.push('\n');
        }
        let reader = ShortReads { bytes: input.clone().into_bytes(), pos: 0, sizes, call: 0 };
        let trickled: Vec<RawChunk> = ChunkReader::new(reader, target)
            .collect::<std::io::Result<_>>()
            .unwrap();
        let rejoined: Vec<u8> = trickled.iter().flat_map(|c| c.bytes.clone()).collect();
        prop_assert_eq!(rejoined, input.as_bytes().to_vec());
        for (i, c) in trickled.iter().enumerate() {
            prop_assert_eq!(c.seq, i as u64);
        }
        for c in &trickled[..trickled.len().saturating_sub(1)] {
            prop_assert_eq!(c.bytes.last().copied(), Some(b'\n'));
        }
        prop_assert_eq!(numbered_lines(&trickled), numbered_lines(&split(&input, target)));
    }
}
