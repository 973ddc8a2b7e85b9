//! Edge-list I/O, including the KONECT `out.*` format.
//!
//! The paper's datasets come from the KONECT collection [5], whose files
//! look like:
//!
//! ```text
//! % bip unweighted
//! % 58595 16726 22015
//! 1 1
//! 1 2
//! ...
//! ```
//!
//! Comment lines start with `%` (or `#`), data lines are whitespace-
//! separated `u v [weight [timestamp]]` pairs with **1-based** indices.
//! [`read_konect`] parses that; [`read_edge_list`] parses the same shape
//! with 0-based indices and no header. If real KONECT files are available
//! locally they can be fed straight into the same harness that runs the
//! synthetic stand-ins.
//!
//! The accepted line rules, shared by both readers and by the `.bfly`
//! converter ([`crate::bfly_format::convert_to_bfly`]):
//!
//! * Lines end at `\n`. A trailing `\r` is whitespace, so CRLF files
//!   parse the same. The file must be valid UTF-8 (otherwise
//!   [`IoError::Io`] with kind `InvalidData`); a BOM is dropped from the
//!   first line only.
//! * Whitespace is `char::is_whitespace`: ASCII space, `\t`, `\n`,
//!   `\x0B`, `\x0C`, `\r`, and Unicode spaces such as U+00A0 and U+3000.
//!   Lines are trimmed and split on it; blank lines are skipped.
//! * A line whose first character is `%` or `#` is a comment. The first
//!   comment before any data line whose payload is exactly three
//!   unsigned integers is the `nedges nv1 nv2` size header, and the file
//!   must agree with it.
//! * Every other line is a data line. Its first two tokens are vertex
//!   ids as `u32::from_str` reads them: decimal digits, leading zeros
//!   and a leading `+` allowed, no sign `-`, at most `u32::MAX`. Further
//!   tokens are ignored. An id of 0 in a 1-based file is an error.
//!
//! Parsing is byte-level on all-ASCII data lines whose ids are plain
//! digits; every other line takes the `str` rules above, which own all
//! [`IoError::Parse`] messages.

use crate::bipartite::BipartiteGraph;
use std::io::{BufRead, BufReader, Read, Write};
use std::path::Path;

/// Errors raised while parsing edge-list files.
#[derive(Debug)]
pub enum IoError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A data line could not be parsed.
    Parse {
        /// 1-based line number.
        line: usize,
        /// Description of the problem.
        msg: String,
    },
    /// A binary `.bfly` file violated its own format contract (bad
    /// magic, checksum mismatch, corrupt varint, inconsistent index).
    Format(String),
}

impl std::fmt::Display for IoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IoError::Io(e) => write!(f, "i/o error: {e}"),
            IoError::Parse { line, msg } => write!(f, "parse error on line {line}: {msg}"),
            IoError::Format(msg) => write!(f, "invalid .bfly file: {msg}"),
        }
    }
}

impl std::error::Error for IoError {}

impl From<std::io::Error> for IoError {
    fn from(e: std::io::Error) -> Self {
        IoError::Io(e)
    }
}

/// Strip a UTF-8 byte-order mark (files saved by Windows editors often
/// lead with one; it must not poison the first token).
pub(crate) fn strip_bom(s: &str) -> &str {
    s.strip_prefix('\u{feff}').unwrap_or(s)
}

/// KONECT's `% nedges nv1 nv2` size header: the first `%`/`#` comment
/// before any data line whose payload is exactly three integers.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SizeHeader {
    /// 1-based line of the header; every contradiction is reported there.
    pub(crate) line: usize,
    /// Declared data lines (pre-dedup, so duplicate edges still count).
    pub(crate) nedges: u64,
    /// Declared `|V1|`.
    pub(crate) nv1: u64,
    /// Declared `|V2|`.
    pub(crate) nv2: u64,
}

impl SizeHeader {
    fn error(&self, msg: String) -> IoError {
        IoError::Parse {
            line: self.line,
            msg,
        }
    }

    /// The checks that need the whole file: the declared edge count
    /// against the data lines seen, then the declared sizes against u32
    /// indices.
    pub(crate) fn check_totals(&self, data_lines: u64) -> Result<(), IoError> {
        let (ne, nv1, nv2) = (self.nedges, self.nv1, self.nv2);
        if ne != data_lines {
            return Err(self.error(format!(
                "header declares {ne} edges but the file has {data_lines} data lines"
            )));
        }
        if nv1 > u32::MAX as u64 || nv2 > u32::MAX as u64 {
            return Err(self.error(format!(
                "declared vertex-set sizes {nv1}x{nv2} exceed u32 indices"
            )));
        }
        Ok(())
    }

    /// A 0-based edge must lie inside the declared vertex sets.
    pub(crate) fn check_edge(&self, u: u32, v: u32) -> Result<(), IoError> {
        let (nv1, nv2) = (self.nv1, self.nv2);
        if u as u64 >= nv1 || v as u64 >= nv2 {
            return Err(self.error(format!(
                "edge ({u}, {v}) outside the declared {nv1}x{nv2} vertex sets (0-based)"
            )));
        }
        Ok(())
    }
}

/// What a scan saw besides the edges it emitted.
pub(crate) struct ScanSummary {
    /// The size header, when the file carries one.
    pub(crate) header: Option<SizeHeader>,
    /// Data lines seen, pre-dedup (duplicate edges collapse later, so
    /// this — not the final edge count — is what the header declares).
    pub(crate) data_lines: u64,
}

/// The bytes below 0x80 that `char::is_whitespace` accepts, less the
/// `\n` that ends a line. Unlike `u8::is_ascii_whitespace`, this
/// includes `\x0B`.
fn is_inline_space(b: u8) -> bool {
    matches!(b, b'\t' | 0x0B | 0x0C | b'\r' | b' ')
}

/// A run of decimal digits at `line[start..]` that fits in u32 and ends
/// at whitespace, `\n` or the end of `line`: its value and end offset.
fn ascii_u32(line: &[u8], start: usize) -> Option<(u32, usize)> {
    let mut value = 0u64;
    let mut end = start;
    while let Some(&b) = line.get(end).filter(|b| b.is_ascii_digit()) {
        value = value * 10 + u64::from(b - b'0');
        if value > u64::from(u32::MAX) {
            return None;
        }
        end += 1;
    }
    let terminated = line
        .get(end)
        .is_none_or(|&b| b == b'\n' || is_inline_space(b));
    (end > start && terminated).then_some((value as u32, end))
}

/// Fast path for the line at the start of `bytes`, which ends at the
/// first `\n` or at the end of `bytes`. Accepts an all-ASCII line whose
/// first two tokens are pure digits fitting u32 (and nonzero in a
/// 1-based file), returning the 0-based pair and the line's length. It
/// never rejects: `None` hands the line to [`LineRules::slow_line`],
/// which owns every other case and every error, so the two paths cannot
/// disagree. One pass over the line's bytes.
fn fast_pair(bytes: &[u8], one_based: bool) -> Option<(u32, u32, usize)> {
    let skip_space = |mut i: usize| {
        while bytes.get(i).is_some_and(|&b| is_inline_space(b)) {
            i += 1;
        }
        i
    };
    let (u, end) = ascii_u32(bytes, skip_space(0))?;
    let (v, mut end) = ascii_u32(bytes, skip_space(end))?;
    // The rest of the line is ignored, but must be ASCII: anything else
    // may be invalid UTF-8, which only the slow path reports.
    while let Some(&b) = bytes.get(end).filter(|&&b| b != b'\n') {
        if !b.is_ascii() {
            return None;
        }
        end += 1;
    }
    match one_based {
        false => Some((u, v, end)),
        true if u > 0 && v > 0 => Some((u - 1, v - 1, end)),
        true => None,
    }
}

/// The per-line state of an edge-list scan.
struct LineRules {
    one_based: bool,
    header: Option<SizeHeader>,
    data_lines: u64,
}

impl LineRules {
    /// Parse line `lineno` (0-based, without its `\n`) and hand the edge
    /// of a data line to `emit`; blank lines and comments emit nothing.
    fn feed<E>(&mut self, bytes: &[u8], lineno: usize, emit: &mut E) -> Result<(), IoError>
    where
        E: FnMut(u32, u32, Option<&SizeHeader>) -> Result<(), IoError>,
    {
        let edge = match fast_pair(bytes, self.one_based) {
            Some((u, v, _)) => {
                self.data_lines += 1;
                Some((u, v))
            }
            None => {
                let line = std::str::from_utf8(bytes).map_err(|_| {
                    std::io::Error::new(
                        std::io::ErrorKind::InvalidData,
                        "stream did not contain valid UTF-8",
                    )
                })?;
                self.slow_line(line, lineno)?
            }
        };
        match edge {
            Some((u, v)) => emit(u, v, self.header.as_ref()),
            None => Ok(()),
        }
    }

    /// The `str` rules every line the fast path does not accept goes
    /// through: comments and the size header, BOM, Unicode whitespace,
    /// and every parse error.
    fn slow_line(&mut self, line: &str, lineno: usize) -> Result<Option<(u32, u32)>, IoError> {
        let line = if lineno == 0 { strip_bom(line) } else { line };
        let trimmed = line.trim();
        if trimmed.is_empty() {
            return Ok(None);
        }
        if trimmed.starts_with('%') || trimmed.starts_with('#') {
            if self.header.is_none() && self.data_lines == 0 {
                let body = trimmed.trim_start_matches(['%', '#']);
                let nums: Vec<u64> = body
                    .split_whitespace()
                    .map_while(|t| t.parse().ok())
                    .collect();
                if nums.len() == 3 && body.split_whitespace().count() == 3 {
                    self.header = Some(SizeHeader {
                        line: lineno + 1,
                        nedges: nums[0],
                        nv1: nums[1],
                        nv2: nums[2],
                    });
                }
            }
            return Ok(None);
        }
        self.data_lines += 1;
        let mut it = trimmed.split_whitespace();
        let (us, vs) = match (it.next(), it.next()) {
            (Some(u), Some(v)) => (u, v),
            _ => {
                return Err(IoError::Parse {
                    line: lineno + 1,
                    msg: format!("expected at least two fields, got {trimmed:?}"),
                })
            }
        };
        let parse = |s: &str| -> Result<u32, IoError> {
            s.parse::<u32>().map_err(|e| IoError::Parse {
                line: lineno + 1,
                msg: format!("bad vertex id {s:?}: {e}"),
            })
        };
        let (mut u, mut v) = (parse(us)?, parse(vs)?);
        if self.one_based {
            if u == 0 || v == 0 {
                return Err(IoError::Parse {
                    line: lineno + 1,
                    msg: "vertex id 0 in a 1-based file".to_string(),
                });
            }
            u -= 1;
            v -= 1;
        }
        Ok(Some((u, v)))
    }
}

/// Scan a KONECT file or edge list line by line, handing every 0-based
/// edge to `emit` together with the size header seen so far. Memory is
/// one read buffer plus the longest line: lines are cut straight out of
/// `fill_buf` slices, and only a line that straddles two slices is
/// copied. Both the in-memory readers and the `.bfly` converter parse
/// through here.
pub(crate) fn scan_edge_list<R: Read>(
    reader: R,
    one_based: bool,
    mut emit: impl FnMut(u32, u32, Option<&SizeHeader>) -> Result<(), IoError>,
) -> Result<ScanSummary, IoError> {
    let mut reader = BufReader::new(reader);
    let mut rules = LineRules {
        one_based,
        header: None,
        data_lines: 0,
    };
    let mut carry: Vec<u8> = Vec::new();
    let mut lineno = 0usize;
    loop {
        let buf = match reader.fill_buf() {
            Ok(buf) => buf,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e.into()),
        };
        let filled = buf.len();
        if filled == 0 {
            break;
        }
        let mut rest = buf;
        if !carry.is_empty() {
            // Finish the line cut at the end of the previous slice.
            let Some(nl) = rest.iter().position(|&b| b == b'\n') else {
                carry.extend_from_slice(rest);
                reader.consume(filled);
                continue;
            };
            carry.extend_from_slice(&rest[..nl]);
            rules.feed(&carry, lineno, &mut emit)?;
            carry.clear();
            lineno += 1;
            rest = &rest[nl + 1..];
        }
        loop {
            // A line the fast path accepts in full, with its `\n` inside
            // this slice, needs no separate newline search; every other
            // line is cut out first.
            let nl = match fast_pair(rest, one_based) {
                Some((u, v, len)) if len < rest.len() => {
                    rules.data_lines += 1;
                    emit(u, v, rules.header.as_ref())?;
                    len
                }
                _ => match rest.iter().position(|&b| b == b'\n') {
                    Some(nl) => {
                        rules.feed(&rest[..nl], lineno, &mut emit)?;
                        nl
                    }
                    None => break,
                },
            };
            lineno += 1;
            rest = &rest[nl + 1..];
        }
        carry.extend_from_slice(rest);
        reader.consume(filled);
    }
    if !carry.is_empty() {
        rules.feed(&carry, lineno, &mut emit)?;
    }
    Ok(ScanSummary {
        header: rules.header,
        data_lines: rules.data_lines,
    })
}

/// Scan `reader` into a graph, cross-checked against its size header.
fn read_pairs<R: Read>(reader: R, one_based: bool) -> Result<BipartiteGraph, IoError> {
    let mut edges = Vec::new();
    let scan = scan_edge_list(reader, one_based, |u, v, _| {
        edges.push((u, v));
        Ok(())
    })?;
    graph_checked_against_header(edges, &scan)
}

fn graph_from_pairs(edges: Vec<(u32, u32)>) -> BipartiteGraph {
    let m = edges
        .iter()
        .map(|&(u, _)| u as usize + 1)
        .max()
        .unwrap_or(0);
    let n = edges
        .iter()
        .map(|&(_, v)| v as usize + 1)
        .max()
        .unwrap_or(0);
    BipartiteGraph::from_edges(m, n, &edges).expect("dimensions derived from the edges")
}

/// Cross-check the parsed edges against the file's own size header (when
/// one was present) and build the graph. A header that contradicts the
/// data — wrong edge count, or a vertex id outside the declared vertex
/// sets — is a pointed [`IoError::Parse`] naming both numbers, not a
/// silently misshapen graph. With a consistent header the *declared*
/// dimensions are used, so trailing isolated vertices survive a
/// write/read roundtrip; headerless files keep the inferred dimensions.
fn graph_checked_against_header(
    edges: Vec<(u32, u32)>,
    scan: &ScanSummary,
) -> Result<BipartiteGraph, IoError> {
    let Some(header) = scan.header else {
        return Ok(graph_from_pairs(edges));
    };
    header.check_totals(scan.data_lines)?;
    for &(u, v) in &edges {
        header.check_edge(u, v)?;
    }
    BipartiteGraph::from_edges(header.nv1 as usize, header.nv2 as usize, &edges)
        .map_err(|e| header.error(format!("structural error: {e}")))
}

/// Parse a KONECT `out.*` bipartite file (1-based indices, `%` comments)
/// from any reader. Tolerates a UTF-8 BOM and CRLF line endings. When the
/// file carries KONECT's `% nedges nv1 nv2` size header it is enforced
/// (edge count and index ranges must agree — see
/// [`graph_checked_against_header`]); otherwise vertex-set sizes are
/// inferred from the maximum indices.
pub fn read_konect<R: Read>(reader: R) -> Result<BipartiteGraph, IoError> {
    read_pairs(reader, true)
}

/// Parse a 0-based whitespace edge list (comments `%`/`#` allowed, BOM
/// and CRLF tolerated, size header enforced when present).
pub fn read_edge_list<R: Read>(reader: R) -> Result<BipartiteGraph, IoError> {
    read_pairs(reader, false)
}

/// Load a KONECT file from disk.
pub fn read_konect_file<P: AsRef<Path>>(path: P) -> Result<BipartiteGraph, IoError> {
    read_konect(std::fs::File::open(path)?)
}

/// Load a 0-based edge list from disk.
pub fn read_edge_list_file<P: AsRef<Path>>(path: P) -> Result<BipartiteGraph, IoError> {
    read_edge_list(std::fs::File::open(path)?)
}

/// Write a graph as a 0-based edge list.
pub fn write_edge_list<W: Write>(g: &BipartiteGraph, mut w: W) -> Result<(), IoError> {
    writeln!(w, "% bip unweighted")?;
    writeln!(w, "% {} {} {}", g.nedges(), g.nv1(), g.nv2())?;
    for (u, v) in g.edges() {
        writeln!(w, "{u} {v}")?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn konect_format_roundtrip_semantics() {
        let file = "% bip unweighted\n% 3 2 2\n1 1\n1 2\n2 2\n";
        let g = read_konect(file.as_bytes()).unwrap();
        assert_eq!(g.nv1(), 2);
        assert_eq!(g.nv2(), 2);
        assert_eq!(g.nedges(), 3);
        assert!(g.has_edge(0, 0));
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(1, 1));
        assert!(!g.has_edge(1, 0));
    }

    #[test]
    fn zero_based_edge_list() {
        let file = "# comment\n0 0\n0 1\n2 1\n";
        let g = read_edge_list(file.as_bytes()).unwrap();
        assert_eq!(g.nv1(), 3);
        assert_eq!(g.nv2(), 2);
        assert!(g.has_edge(2, 1));
    }

    #[test]
    fn extra_columns_are_ignored() {
        let file = "1 1 1.0 1234567890\n2 1 1.0 1234567891\n";
        let g = read_konect(file.as_bytes()).unwrap();
        assert_eq!(g.nedges(), 2);
        assert!(g.has_edge(1, 0));
    }

    #[test]
    fn konect_rejects_zero_ids() {
        let file = "0 1\n";
        assert!(matches!(
            read_konect(file.as_bytes()),
            Err(IoError::Parse { line: 1, .. })
        ));
    }

    #[test]
    fn malformed_lines_error_with_location() {
        let file = "1 1\nnot-a-number 2\n";
        match read_edge_list(file.as_bytes()) {
            Err(IoError::Parse { line, .. }) => assert_eq!(line, 2),
            other => panic!("expected parse error, got {other:?}"),
        }
        let file = "1\n";
        assert!(read_edge_list(file.as_bytes()).is_err());
    }

    #[test]
    fn write_then_read_roundtrip() {
        let g = BipartiteGraph::from_edges(3, 2, &[(0, 0), (1, 1), (2, 0)]).unwrap();
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let h = read_edge_list(buf.as_slice()).unwrap();
        assert_eq!(g, h);
    }

    #[test]
    fn empty_input_gives_empty_graph() {
        let g = read_edge_list("% nothing here\n".as_bytes()).unwrap();
        assert_eq!(g.nedges(), 0);
        assert_eq!(g.nv1(), 0);
    }
}
