//! Differential battery for the KONECT / edge-list loaders.
//!
//! The loaders parse all-ASCII data lines byte by byte and hand every
//! other line to the `str` rules. The reference below is the former
//! line-at-a-time `String` parser, kept verbatim. On arbitrary bytes,
//! and through short reads, interrupts and hard read faults, both must
//! return the same graph or the same error: the same line and message
//! for a parse error, the same kind for an I/O error. The streaming
//! `.bfly` converter parses through the same scanner, so it must succeed
//! exactly when the in-memory reader does and store the same edges.

use bfly::core::testkit::FaultyReader;
use bfly::graph::io::{read_edge_list, read_konect, IoError};
use bfly::graph::{convert_to_bfly, read_bfly_file, BipartiteGraph, TextFormat};
use proptest::prelude::*;
use std::io::{BufRead, BufReader, Read};
use std::path::PathBuf;

/// The former parser: `BufRead::lines`, BOM strip on the first line,
/// Unicode `trim` / `split_whitespace`, `str::parse::<u32>`, then the
/// size-header cross-checks.
fn reference_read<R: Read>(reader: R, one_based: bool) -> Result<BipartiteGraph, IoError> {
    let reader = BufReader::new(reader);
    let mut edges = Vec::new();
    let mut header: Option<(usize, u64, u64, u64)> = None;
    let mut data_lines = 0usize;
    for (lineno, line) in reader.lines().enumerate() {
        let line = line?;
        let line = if lineno == 0 {
            line.strip_prefix('\u{feff}').unwrap_or(&line)
        } else {
            line.as_str()
        };
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        if trimmed.starts_with('%') || trimmed.starts_with('#') {
            if header.is_none() && data_lines == 0 {
                let nums: Vec<u64> = trimmed
                    .trim_start_matches(['%', '#'])
                    .split_whitespace()
                    .map_while(|t| t.parse().ok())
                    .collect();
                if nums.len() == 3
                    && trimmed
                        .trim_start_matches(['%', '#'])
                        .split_whitespace()
                        .count()
                        == 3
                {
                    header = Some((lineno + 1, nums[0], nums[1], nums[2]));
                }
            }
            continue;
        }
        data_lines += 1;
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
        let parse = |s: &str, lineno: usize| -> Result<u32, IoError> {
            s.parse::<u32>().map_err(|e| IoError::Parse {
                line: lineno + 1,
                msg: format!("bad vertex id {s:?}: {e}"),
            })
        };
        let mut u = parse(us, lineno)?;
        let mut v = parse(vs, lineno)?;
        if one_based {
            if u == 0 || v == 0 {
                return Err(IoError::Parse {
                    line: lineno + 1,
                    msg: "vertex id 0 in a 1-based file".to_string(),
                });
            }
            u -= 1;
            v -= 1;
        }
        edges.push((u, v));
    }
    let Some((line, ne, nv1, nv2)) = header else {
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
        return Ok(BipartiteGraph::from_edges(m, n, &edges).unwrap());
    };
    if ne != data_lines as u64 {
        return Err(IoError::Parse {
            line,
            msg: format!("header declares {ne} edges but the file has {data_lines} data lines"),
        });
    }
    if nv1 > u32::MAX as u64 || nv2 > u32::MAX as u64 {
        return Err(IoError::Parse {
            line,
            msg: format!("declared vertex-set sizes {nv1}x{nv2} exceed u32 indices"),
        });
    }
    for &(u, v) in &edges {
        if u as u64 >= nv1 || v as u64 >= nv2 {
            return Err(IoError::Parse {
                line,
                msg: format!(
                    "edge ({u}, {v}) outside the declared {nv1}x{nv2} vertex sets (0-based)"
                ),
            });
        }
    }
    BipartiteGraph::from_edges(nv1 as usize, nv2 as usize, &edges).map_err(|e| IoError::Parse {
        line,
        msg: format!("structural error: {e}"),
    })
}

type Loaded = Result<BipartiteGraph, IoError>;

/// Same graph, or the same parse error, or an I/O error of the same kind.
fn same_outcome(got: &Loaded, want: &Loaded) -> bool {
    match (got, want) {
        (Ok(a), Ok(b)) => a == b,
        (Err(IoError::Parse { line: l1, msg: m1 }), Err(IoError::Parse { line: l2, msg: m2 })) => {
            l1 == l2 && m1 == m2
        }
        (Err(IoError::Io(a)), Err(IoError::Io(b))) => a.kind() == b.kind(),
        _ => false,
    }
}

/// Append one input fragment: separators (ASCII and Unicode), line ends,
/// comment and header lines, well-formed data lines, and the id shapes
/// and byte sequences the parsers must reject.
fn push_fragment(out: &mut Vec<u8>, sel: u8, x: u64) {
    let small = x % 10;
    let text = match sel {
        0 => "\n".to_string(),
        1 => "\r\n".to_string(),
        2 => " ".to_string(),
        3 => "\t".to_string(),
        4 => "\x0B".to_string(),
        5 => "\x0C".to_string(),
        6 => "\u{a0}".to_string(),
        7 => "\u{3000}".to_string(),
        8 => "\u{feff}".to_string(),
        9 => "%".to_string(),
        10 => "#".to_string(),
        11 => small.to_string(),
        // Ids stay small enough to build a graph from: the loaders size
        // the vertex sets by the largest id.
        12 => (x % 100_000).to_string(),
        // Past u32, and past u64 too.
        13 if x.is_multiple_of(2) => (u64::from(u32::MAX) + 1 + x % 3).to_string(),
        13 => format!("{x}{x}"),
        14 => format!("+{small}"),
        15 => "-1".to_string(),
        16 => format!("00{small}"),
        17 => "1.5".to_string(),
        18 => "x".to_string(),
        19 => "\r".to_string(),
        20 => format!("% {} {} {}\n", x % 12, (x >> 8) % 10, (x >> 16) % 10),
        21 => [
            "% 3 2\n",
            "% 3 2 2 1\n",
            "% a 2 2\n",
            "%3 2 2\n",
            "#\t4 9 9\n",
        ][(x % 5) as usize]
            .to_string(),
        22 => "% bip unweighted\n".to_string(),
        23 => {
            out.push(0xFF);
            return;
        }
        24 => {
            // A truncated two-byte sequence.
            out.push(0xC3);
            return;
        }
        25 => {
            out.push((x % 128) as u8);
            return;
        }
        // Well-formed data lines, mostly with nonzero ids so 1-based
        // files parse too.
        _ => {
            let sep = [" ", "\t", "  ", " \x0B", "\u{a0}", " \t"][(x % 6) as usize];
            let end = ["\n", "\r\n", " 1.0\n", "\t7 1234\n"][((x >> 4) % 4) as usize];
            format!("{}{sep}{}{end}", 1 + (x >> 8) % 8, 1 + (x >> 16) % 8)
        }
    };
    out.extend_from_slice(text.as_bytes());
}

fn build_input(fragments: &[(u8, u64)]) -> Vec<u8> {
    let mut out = Vec::new();
    for &(sel, x) in fragments {
        push_fragment(&mut out, sel, x);
    }
    out
}

/// The reader configurations every input is replayed through: plain,
/// short reads, transient interrupts, and a hard fault.
fn fault_variants(bytes: &[u8], chunk: usize, at: usize) -> Vec<(String, FaultyReader)> {
    let at = at % (bytes.len() + 1);
    vec![
        ("plain".into(), FaultyReader::new(bytes)),
        (
            format!("chunk {chunk}"),
            FaultyReader::new(bytes).with_chunk(chunk),
        ),
        (
            format!("chunk {chunk}, interrupted at {at}"),
            FaultyReader::new(bytes)
                .with_chunk(chunk)
                .with_transient_at(at, 3),
        ),
        (
            format!("chunk {chunk}, hard fault at {at}"),
            FaultyReader::new(bytes)
                .with_chunk(chunk)
                .with_error_at(at, std::io::ErrorKind::ConnectionReset),
        ),
    ]
}

fn check_readers(bytes: &[u8], chunk: usize, at: usize) -> Result<(), String> {
    type Reader = fn(FaultyReader) -> Loaded;
    let readers: [(&str, bool, Reader); 2] = [
        ("read_konect", true, read_konect),
        ("read_edge_list", false, read_edge_list),
    ];
    for (name, one_based, read) in readers {
        for (label, reader) in fault_variants(bytes, chunk, at) {
            let got = read(reader.clone());
            let want = reference_read(reader, one_based);
            if !same_outcome(&got, &want) {
                return Err(format!("{name} ({label}): got {got:?}, want {want:?}"));
            }
        }
    }
    Ok(())
}

fn scratch_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bfly-loader-diff-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// `convert_to_bfly` succeeds exactly when the in-memory reader does,
/// and the `.bfly` file holds the same graph.
fn check_converter(bytes: &[u8], tag: &str) -> Result<(), String> {
    let dir = scratch_dir();
    let input = dir.join(format!("{tag}.txt"));
    std::fs::write(&input, bytes).unwrap();
    type Reader = fn(&[u8]) -> Loaded;
    let formats: [(TextFormat, Reader); 2] = [
        (TextFormat::Konect, |b| read_konect(b)),
        (TextFormat::EdgeList, |b| read_edge_list(b)),
    ];
    for (format, read) in formats {
        let out = dir.join(format!("{tag}.bfly"));
        let converted = convert_to_bfly(&input, format, &out);
        let loaded = read(bytes);
        match (&converted, &loaded) {
            (Ok(_), Ok(g)) => {
                let stored = read_bfly_file(&out).map_err(|e| format!("{format:?}: {e}"))?;
                if &stored != g {
                    return Err(format!("{format:?}: converted graph differs"));
                }
            }
            (Err(_), Err(_)) => {}
            _ => {
                return Err(format!(
                    "{format:?}: convert {converted:?} but read {:?}",
                    loaded.as_ref().map(|g| g.nedges())
                ))
            }
        }
        let _ = std::fs::remove_file(&out);
    }
    let _ = std::fs::remove_file(&input);
    Ok(())
}

#[test]
fn named_inputs_match_the_reference() {
    let cases: &[&[u8]] = &[
        b"",
        b"\n\n",
        b"% bip unweighted\n% 3 2 2\n1 1\n1 2\n2 2\n",
        "\u{feff}% bip unweighted\r\n% 3 2 2\r\n1 1\r\n1 2\r\n2 2\r\n".as_bytes(),
        "\u{feff}1 1\n".as_bytes(),
        "1 1\n\u{feff}2 2\n".as_bytes(),
        b"1\t2\n3\x0B4\n5\x0C6\r\n",
        "1\u{a0}2\n3\u{3000}4\n".as_bytes(),
        b"+5 1\n",
        b"1 +5\n",
        b"-1 2\n",
        // u32::MAX parses; the header keeps it from sizing a graph.
        b"% 1 2 2\n4294967295 1\n",
        b"% 1 2 2\n1 4294967295\n",
        b"4294967296 1\n",
        b"1 99999999999999999999999\n",
        b"00000000000000000007 1\n",
        b"0 1\n",
        b"1 0\n",
        b"1\n",
        b"1 \n",
        b"1 2",
        b"1 2\r",
        b"1 2\n% 9 9 9\n3 3\n",
        b"% 5 2 2\n1 1\n1 2\n2 2\n",
        b"% 3 2 2\n1 1\n1 2\n3 2\n",
        b"% 1 4 7\n1 1\n",
        b"% 1 4294967296 1\n1 1\n",
        b"1 2 \xff\n",
        b"1 2\n\xc3\n3 4\n",
        b"1a 2\n",
        b"1 2a\n",
        b"1,2\n",
    ];
    for (i, bytes) in cases.iter().enumerate() {
        for chunk in [1, 2, 3, 5, 64] {
            for at in [0, 1, 4, 9, bytes.len()] {
                check_readers(bytes, chunk, at).unwrap_or_else(|e| panic!("case {i}: {e}"));
            }
        }
        check_converter(bytes, &format!("named-{i}")).unwrap_or_else(|e| panic!("case {i}: {e}"));
    }
}

#[test]
fn every_ascii_byte_next_to_an_id_matches_the_reference() {
    // Pins the fast path's whitespace set to `char::is_whitespace`: each
    // byte is tried before, between and after the ids.
    for c in 0u8..128 {
        let c = c as char;
        for line in [
            format!("{c}1 2\n"),
            format!("1{c}2 3\n"),
            format!("1 2{c}\n"),
            format!("1 {c}2\n"),
        ] {
            check_readers(line.as_bytes(), 64, 0)
                .unwrap_or_else(|e| panic!("byte {:#04x}: {e}", c as u32));
        }
    }
}

#[test]
fn lines_straddling_read_buffers_match_the_reference() {
    // Larger than the 8 KiB read buffer, with line lengths coprime to it,
    // so many lines are cut across two `fill_buf` slices.
    let mut text = String::from("% bip unweighted\n");
    for i in 0..3000u32 {
        let pad = " ".repeat((i % 7) as usize);
        text.push_str(&format!(
            "{}{pad}\t{} 1.0 {i}\r\n",
            1 + i % 97,
            1 + (i * 31) % 89
        ));
    }
    let bytes = text.as_bytes();
    for chunk in [7, 4096, 8191, 100_000] {
        for at in [5000, 8192, 20_000, 50_000] {
            check_readers(bytes, chunk, at).unwrap_or_else(|e| panic!("{e}"));
        }
    }
    check_converter(bytes, "straddle").unwrap();
    let mut broken = bytes.to_vec();
    broken.extend_from_slice(b"12 x\n");
    check_readers(&broken, 8192, 0).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Arbitrary fragment soup: mostly rejected inputs, each of which
    /// must fail the same way in both parsers.
    #[test]
    fn arbitrary_bytes_match_the_reference(
        fragments in proptest::collection::vec((0u8..40, 0u64..u64::MAX), 0..40),
        chunk in 1usize..20,
        at in 0usize..400,
    ) {
        let bytes = build_input(&fragments);
        if let Err(e) = check_readers(&bytes, chunk, at) {
            prop_assert!(false, "{}", e);
        }
        if let Err(e) = check_converter(&bytes, "soup") {
            prop_assert!(false, "{}", e);
        }
    }

    /// Mostly well-formed files, so the accepted graphs are compared too:
    /// optional size header (sometimes wrong), then data lines with
    /// varied separators and line ends, rarely a stray fragment.
    #[test]
    fn well_formed_files_match_the_reference(
        header in 0u8..4,
        lines in proptest::collection::vec((0u8..64, 0u64..u64::MAX), 0..30),
        chunk in 1usize..20,
        at in 0usize..400,
    ) {
        let fragments: Vec<(u8, u64)> = lines
            .iter()
            .map(|&(sel, x)| if sel < 60 { (30, x) } else { (x as u8 % 26, x) })
            .collect();
        let body = build_input(&fragments);
        let nlines = fragments.iter().filter(|&&(sel, _)| sel == 30).count();
        let mut bytes = match header {
            0 => Vec::new(),
            1 => format!("% bip unweighted\n% {nlines} 8 8\n").into_bytes(),
            2 => format!("% {} 8 8\n", nlines + 1).into_bytes(),
            _ => format!("% {nlines} 4 4\n").into_bytes(),
        };
        bytes.extend_from_slice(&body);
        if let Err(e) = check_readers(&bytes, chunk, at) {
            prop_assert!(false, "{}", e);
        }
        if let Err(e) = check_converter(&bytes, "well-formed") {
            prop_assert!(false, "{}", e);
        }
    }
}
