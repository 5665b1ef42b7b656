//! Bookshelf (ISPD placement-contest) file I/O.
//!
//! Supports the classic UCLA Bookshelf bundle:
//!
//! * `.aux`   — manifest naming the other files
//! * `.nodes` — cell names, sizes, terminal flags
//! * `.nets`  — net membership with pin directions and centre-relative offsets
//! * `.wts`   — net weights (optional)
//! * `.pl`    — placement (lower-left corners + orientation + `/FIXED`)
//! * `.scl`   — core rows
//!
//! Reading produces a [`BookshelfCase`]; writing emits a complete bundle so
//! designs generated by `sdp-dpgen` can be consumed by external tools (and
//! round-tripped in tests).
//!
//! Every number the reader accepts is finite and inside its field's range
//! (see [`MAX_MAGNITUDE`]); anything else is a located
//! [`ParseError::OutOfRange`], so no placement stage ever sees a NaN, an
//! infinity or a non-positive size.

use crate::{
    Design, Netlist, NetlistBuilder, NetlistError, ParseError, ParseLoc, PinDir, Placement, Row,
};
use sdp_geom::Point;
use std::collections::HashMap;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// A complete placement case read from a Bookshelf bundle.
#[derive(Debug, Clone)]
pub struct BookshelfCase {
    /// The netlist.
    pub netlist: Netlist,
    /// The floorplan rows.
    pub design: Design,
    /// Cell positions from the `.pl` file (cell centres).
    pub placement: Placement,
}

fn floc(file: &Path, line: usize, col: usize) -> ParseLoc {
    ParseLoc {
        file: file.display().to_string(),
        line,
        col,
    }
}

/// 1-based column of `tok`, a slice of `line`, within the line's content
/// (0 if `tok` is not one). Slice offsets keep repeated text apart: the
/// height in `a 0 0` is column 5, not 3.
fn col_of(line: &str, tok: &str) -> usize {
    let offset = (tok.as_ptr() as usize).wrapping_sub(line.as_ptr() as usize);
    if offset < line.len() {
        offset + 1
    } else {
        0
    }
}

/// The largest magnitude any Bookshelf number may have: sizes, coordinates,
/// pin offsets, site counts and net weights. It leaves room for dies far
/// larger than any generated preset, while sums and products of a few
/// such fields stay far from `f64::MAX`.
const MAX_MAGNITUDE: f64 = 1e9;

/// The documented range of a numeric field. Every range is finite.
#[derive(Debug, Clone, Copy)]
enum Range {
    /// Cell sizes, row heights and site widths: `(0, MAX_MAGNITUDE]`.
    Size,
    /// Site counts: `[1, MAX_MAGNITUDE]`.
    Count,
    /// Net weights: `[0, MAX_MAGNITUDE]`.
    Weight,
    /// Coordinates and pin offsets: `[-MAX_MAGNITUDE, MAX_MAGNITUDE]`.
    Coordinate,
}

impl Range {
    /// Whether `v` lies in the range; NaN never does.
    fn contains(self, v: f64) -> bool {
        let above_floor = match self {
            Range::Size => v > 0.0,
            Range::Count => v >= 1.0,
            Range::Weight => v >= 0.0,
            Range::Coordinate => v >= -MAX_MAGNITUDE,
        };
        above_floor && v <= MAX_MAGNITUDE
    }

    fn describe(self) -> String {
        let max = MAX_MAGNITUDE;
        match self {
            Range::Size => format!("(0, {max:e}]"),
            Range::Count => format!("[1, {max:e}]"),
            Range::Weight => format!("[0, {max:e}]"),
            Range::Coordinate => format!("[-{max:e}, {max:e}]"),
        }
    }
}

/// Parses `tok` as a number, reporting the token and its column on failure.
fn num<T: std::str::FromStr>(
    file: &Path,
    ln: usize,
    line: &str,
    tok: &str,
    what: &str,
) -> Result<T, ParseError> {
    tok.parse().map_err(|_| ParseError::BadNumber {
        loc: floc(file, ln, col_of(line, tok)),
        what: what.into(),
        token: tok.to_string(),
    })
}

/// Parses `tok` as an `f64` field that must lie in `range`.
fn field(
    file: &Path,
    ln: usize,
    line: &str,
    tok: &str,
    what: &str,
    range: Range,
) -> Result<f64, ParseError> {
    let v: f64 = num(file, ln, line, tok, what)?;
    if range.contains(v) {
        Ok(v)
    } else {
        Err(ParseError::OutOfRange {
            loc: floc(file, ln, col_of(line, tok)),
            what: what.into(),
            token: tok.to_string(),
            range: range.describe(),
        })
    }
}

fn expected(file: &Path, ln: usize, line: &str, wanted: &str) -> ParseError {
    ParseError::Expected {
        loc: floc(file, ln, 1),
        wanted: wanted.into(),
        found: line.to_string(),
    }
}

fn missing(file: &Path, what: impl Into<String>) -> ParseError {
    ParseError::Missing {
        loc: floc(file, 0, 0),
        what: what.into(),
    }
}

/// Iterates the meaningful lines of a Bookshelf file: strips comments
/// (`#`), blank lines, and the `UCLA` header; yields `(line_no, content)`.
fn content_lines(text: &str) -> impl Iterator<Item = (usize, &str)> {
    text.lines().enumerate().filter_map(|(i, raw)| {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() || line.starts_with("UCLA") {
            None
        } else {
            Some((i + 1, line))
        }
    })
}

/// Extracts the value of a `Key : value` line, if the key matches.
fn keyed<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let rest = line.strip_prefix(key)?.trim_start();
    rest.strip_prefix(':').map(str::trim)
}

/// Reads a Bookshelf bundle starting from its `.aux` file.
///
/// # Errors
///
/// Returns [`NetlistError::Io`] if a file is missing and
/// [`NetlistError::Parse`] on malformed content, including a number
/// outside its field's range. The `.wts` file is
/// optional; all weights default to 1.0 without it.
pub fn read_bookshelf(aux_path: impl AsRef<Path>) -> Result<BookshelfCase, NetlistError> {
    let aux_path = aux_path.as_ref();
    let dir = aux_path.parent().unwrap_or(Path::new("."));
    let aux = fs::read_to_string(aux_path)?;
    let mut nodes_file = None;
    let mut nets_file = None;
    let mut wts_file = None;
    let mut pl_file = None;
    let mut scl_file = None;
    for (ln, line) in content_lines(&aux) {
        let payload = line
            .split(':')
            .nth(1)
            .ok_or_else(|| expected(aux_path, ln, line, "`RowBasedPlacement : files...`"))?;
        for tok in payload.split_whitespace() {
            let p = dir.join(tok);
            match Path::new(tok).extension().and_then(|e| e.to_str()) {
                Some("nodes") => nodes_file = Some(p),
                Some("nets") => nets_file = Some(p),
                Some("wts") => wts_file = Some(p),
                Some("pl") => pl_file = Some(p),
                Some("scl") => scl_file = Some(p),
                _ => {}
            }
        }
    }
    let nodes_file = nodes_file.ok_or_else(|| missing(aux_path, ".nodes file in aux"))?;
    let nets_file = nets_file.ok_or_else(|| missing(aux_path, ".nets file in aux"))?;
    let pl_file = pl_file.ok_or_else(|| missing(aux_path, ".pl file in aux"))?;
    let scl_file = scl_file.ok_or_else(|| missing(aux_path, ".scl file in aux"))?;

    let (netlist, order) = read_nodes_and_nets(&nodes_file, &nets_file, wts_file.as_deref())?;
    let design = read_scl(&scl_file)?;
    let placement = read_pl(&pl_file, &netlist, &order)?;
    Ok(BookshelfCase {
        netlist,
        design,
        placement,
    })
}

/// Parses `.nodes` + `.nets` (+ optional `.wts`) into a netlist. Each node
/// gets its own synthetic library cell keyed by its dimensions and terminal
/// status, since Bookshelf has no master concept.
fn read_nodes_and_nets(
    nodes_path: &Path,
    nets_path: &Path,
    wts_path: Option<&Path>,
) -> Result<(Netlist, HashMap<String, ()>), NetlistError> {
    let mut b = NetlistBuilder::new();
    let nodes_text = fs::read_to_string(nodes_path)?;
    let mut order: HashMap<String, ()> = HashMap::new();
    for (ln, line) in content_lines(&nodes_text) {
        if keyed(line, "NumNodes").is_some() || keyed(line, "NumTerminals").is_some() {
            continue;
        }
        let toks: Vec<&str> = line.split_whitespace().collect();
        let [name, w_tok, h_tok, rest @ ..] = toks.as_slice() else {
            return Err(expected(nodes_path, ln, line, "`name width height`").into());
        };
        let w = field(nodes_path, ln, line, w_tok, "width", Range::Size)?;
        let h = field(nodes_path, ln, line, h_tok, "height", Range::Size)?;
        let terminal = rest
            .first()
            .is_some_and(|t| t.eq_ignore_ascii_case("terminal"));
        let master_name = format!("BS_{}x{}{}", w, h, if terminal { "_T" } else { "" });
        let lib = b.add_lib_cell(&master_name, w, h, 0, 0);
        if terminal {
            b.add_fixed_cell(name, lib);
        } else {
            b.add_cell(name, lib);
        }
        order.insert(name.to_string(), ());
    }

    // Net weights (optional file, parsed first so add_weighted_net can use them).
    let mut weights: HashMap<String, f64> = HashMap::new();
    if let Some(wp) = wts_path {
        if wp.exists() {
            let text = fs::read_to_string(wp)?;
            for (ln, line) in content_lines(&text) {
                let toks: Vec<&str> = line.split_whitespace().collect();
                if let [name, w_tok, ..] = toks.as_slice() {
                    let w = field(wp, ln, line, w_tok, "weight", Range::Weight)?;
                    weights.insert(name.to_string(), w);
                }
            }
        }
    }

    let nets_text = fs::read_to_string(nets_path)?;
    let mut lines = content_lines(&nets_text).peekable();
    let mut net_counter = 0usize;
    while let Some((ln, line)) = lines.next() {
        if keyed(line, "NumNets").is_some() || keyed(line, "NumPins").is_some() {
            continue;
        }
        let Some(rest) = keyed(line, "NetDegree") else {
            return Err(expected(nets_path, ln, line, "`NetDegree : n [name]`").into());
        };
        let mut it = rest.split_whitespace();
        let degree_tok = it
            .next()
            .ok_or_else(|| expected(nets_path, ln, line, "`NetDegree : n [name]`"))?;
        let degree: usize = num(nets_path, ln, line, degree_tok, "NetDegree")?;
        let name = it
            .next()
            .map(str::to_string)
            .unwrap_or_else(|| format!("net{net_counter}"));
        net_counter += 1;
        // No reservation from `degree`: a huge declared degree must end
        // as a truncation error, not an allocation failure.
        let mut conns = Vec::new();
        for _ in 0..degree {
            let (pln, pline) = lines.next().ok_or_else(|| ParseError::Truncated {
                loc: floc(nets_path, ln, 0),
                what: format!("net `{name}` ({degree} pins declared)"),
            })?;
            // `cell I : dx dy` (offsets optional)
            let toks: Vec<&str> = pline.split_whitespace().collect();
            let [cell_tok, opts @ ..] = toks.as_slice() else {
                return Err(expected(nets_path, pln, pline, "`cell [dir] : dx dy`").into());
            };
            let Some(cell) = b.cell_id_by_name(cell_tok) else {
                return Err(ParseError::UnknownCell {
                    loc: floc(nets_path, pln, col_of(pline, cell_tok)),
                    name: cell_tok.to_string(),
                }
                .into());
            };
            let dir = opts
                .first()
                .map(|t| PinDir::from_bookshelf(t))
                .unwrap_or_default();
            let mut dx = 0.0;
            let mut dy = 0.0;
            if let Some(colon) = opts.iter().position(|&t| t == ":") {
                if let Some(t) = opts.get(colon + 1) {
                    dx = field(nets_path, pln, pline, t, "pin offset", Range::Coordinate)?;
                }
                if let Some(t) = opts.get(colon + 2) {
                    dy = field(nets_path, pln, pline, t, "pin offset", Range::Coordinate)?;
                }
            }
            conns.push((cell, Point::new(dx, dy), dir));
        }
        let w = weights.get(&name).copied().unwrap_or(1.0);
        b.add_weighted_net(&name, w, conns);
    }
    let nl = b.finish()?;
    Ok((nl, order))
}

fn read_scl(path: &Path) -> Result<Design, NetlistError> {
    let text = fs::read_to_string(path)?;
    let mut rows = Vec::new();
    // y, height, site width, origin, site count
    let mut cur: Option<(f64, Option<f64>, f64, f64, f64)> = None;
    for (ln, line) in content_lines(&text) {
        if keyed(line, "NumRows").is_some() {
            continue;
        }
        if line.starts_with("CoreRow") {
            cur = Some((0.0, None, 1.0, 0.0, 0.0));
        } else if line == "End" {
            let (y, h, sw, ox, ns) = cur.take().ok_or_else(|| ParseError::Expected {
                loc: floc(path, ln, 1),
                wanted: "`CoreRow` before `End`".into(),
                found: "End".into(),
            })?;
            // A row's height has no default: without one it has no extent.
            let h = h.ok_or_else(|| ParseError::Missing {
                loc: floc(path, ln, 1),
                what: "`Height` in the `CoreRow` ending here".into(),
            })?;
            rows.push(Row {
                y,
                height: h,
                x1: ox,
                x2: ox + ns * sw,
                site_width: sw,
            });
        } else if let Some(c) = cur.as_mut() {
            if let Some(v) = keyed(line, "Coordinate") {
                c.0 = field(path, ln, line, v, "Coordinate", Range::Coordinate)?;
            } else if let Some(v) = keyed(line, "Height") {
                c.1 = Some(field(path, ln, line, v, "Height", Range::Size)?);
            } else if let Some(v) = keyed(line, "Sitewidth") {
                c.2 = field(path, ln, line, v, "Sitewidth", Range::Size)?;
            } else if let Some(v) = keyed(line, "SubrowOrigin") {
                // `SubrowOrigin : 0 NumSites : 100`
                let toks: Vec<&str> = v.split_whitespace().collect();
                let origin_tok = toks
                    .first()
                    .ok_or_else(|| expected(path, ln, line, "`SubrowOrigin : x`"))?;
                c.3 = field(
                    path,
                    ln,
                    line,
                    origin_tok,
                    "SubrowOrigin",
                    Range::Coordinate,
                )?;
                if let Some(npos) = toks.iter().position(|&t| t == "NumSites") {
                    let sites_tok = toks
                        .get(npos + 2)
                        .ok_or_else(|| expected(path, ln, line, "`NumSites : n`"))?;
                    c.4 = field(path, ln, line, sites_tok, "NumSites", Range::Count)?;
                }
            }
            // Sitespacing / Siteorient / Sitesymmetry tolerated and ignored.
        }
    }
    rows.sort_by(|a, b| a.y.total_cmp(&b.y));
    let (Some(y1), Some(y2)) = (
        rows.first().map(|r| r.y),
        rows.last().map(|r| r.y + r.height),
    ) else {
        return Err(missing(path, "core rows").into());
    };
    let x1 = rows.iter().map(|r| r.x1).fold(f64::INFINITY, f64::min);
    let x2 = rows.iter().map(|r| r.x2).fold(f64::NEG_INFINITY, f64::max);
    Ok(Design::new(sdp_geom::Rect::new(x1, y1, x2, y2), rows))
}

fn read_pl(
    path: &Path,
    netlist: &Netlist,
    _order: &HashMap<String, ()>,
) -> Result<Placement, NetlistError> {
    let text = fs::read_to_string(path)?;
    let mut pl = Placement::new(netlist);
    for (ln, line) in content_lines(&text) {
        let toks: Vec<&str> = line.split_whitespace().collect();
        let [name, x_tok, y_tok, ..] = toks.as_slice() else {
            return Err(expected(path, ln, line, "`name x y ...`").into());
        };
        let Some(cell) = netlist.cell_by_name(name) else {
            return Err(ParseError::UnknownCell {
                loc: floc(path, ln, col_of(line, name)),
                name: name.to_string(),
            }
            .into());
        };
        let x = field(path, ln, line, x_tok, "x coordinate", Range::Coordinate)?;
        let y = field(path, ln, line, y_tok, "y coordinate", Range::Coordinate)?;
        // .pl stores the lower-left corner; we store centres.
        let m = netlist.master_of(cell);
        pl.set(cell, Point::new(x + m.width / 2.0, y + m.height / 2.0));
    }
    Ok(pl)
}

/// Writes a complete Bookshelf bundle `<dir>/<name>.{aux,nodes,nets,wts,pl,scl}`.
///
/// # Errors
///
/// Returns [`NetlistError::Io`] on filesystem failures.
pub fn write_bookshelf(
    dir: impl AsRef<Path>,
    name: &str,
    netlist: &Netlist,
    design: &Design,
    placement: &Placement,
) -> Result<PathBuf, NetlistError> {
    let dir = dir.as_ref();
    fs::create_dir_all(dir)?;
    let path = |ext: &str| dir.join(format!("{name}.{ext}"));

    // .aux
    let mut aux = fs::File::create(path("aux"))?;
    writeln!(
        aux,
        "RowBasedPlacement : {name}.nodes {name}.nets {name}.wts {name}.pl {name}.scl"
    )?;

    // .nodes
    let mut nodes = String::from("UCLA nodes 1.0\n\n");
    let num_fixed = netlist.num_cells() - netlist.num_movable();
    nodes.push_str(&format!("NumNodes : {}\n", netlist.num_cells()));
    nodes.push_str(&format!("NumTerminals : {num_fixed}\n"));
    for c in netlist.cell_ids() {
        let cell = netlist.cell(c);
        let m = netlist.master_of(c);
        nodes.push_str(&format!(
            "   {} {} {}{}\n",
            cell.name,
            m.width,
            m.height,
            if cell.fixed { " terminal" } else { "" }
        ));
    }
    fs::write(path("nodes"), nodes)?;

    // .nets
    let mut nets = String::from("UCLA nets 1.0\n\n");
    nets.push_str(&format!("NumNets : {}\n", netlist.num_nets()));
    nets.push_str(&format!("NumPins : {}\n", netlist.num_pins()));
    for n in netlist.net_ids() {
        let net = netlist.net(n);
        nets.push_str(&format!("NetDegree : {} {}\n", net.pins.len(), net.name));
        for &p in &net.pins {
            let pin = netlist.pin(p);
            nets.push_str(&format!(
                "   {} {} : {:.6} {:.6}\n",
                netlist.cell(pin.cell).name,
                pin.dir.bookshelf_token(),
                pin.offset.x,
                pin.offset.y
            ));
        }
    }
    fs::write(path("nets"), nets)?;

    // .wts
    let mut wts = String::from("UCLA wts 1.0\n\n");
    for n in netlist.net_ids() {
        let net = netlist.net(n);
        wts.push_str(&format!("{} {}\n", net.name, net.weight));
    }
    fs::write(path("wts"), wts)?;

    // .pl (lower-left corners)
    let mut pl = String::from("UCLA pl 1.0\n\n");
    for c in netlist.cell_ids() {
        let cell = netlist.cell(c);
        let m = netlist.master_of(c);
        let p = placement.get(c);
        pl.push_str(&format!(
            "{} {:.6} {:.6} : N{}\n",
            cell.name,
            p.x - m.width / 2.0,
            p.y - m.height / 2.0,
            if cell.fixed { " /FIXED" } else { "" }
        ));
    }
    fs::write(path("pl"), pl)?;

    // .scl
    let mut scl = String::from("UCLA scl 1.0\n\n");
    scl.push_str(&format!("NumRows : {}\n", design.rows().len()));
    for r in design.rows() {
        scl.push_str("CoreRow Horizontal\n");
        scl.push_str(&format!("  Coordinate : {}\n", r.y));
        scl.push_str(&format!("  Height : {}\n", r.height));
        scl.push_str(&format!("  Sitewidth : {}\n", r.site_width));
        scl.push_str(&format!("  Sitespacing : {}\n", r.site_width));
        scl.push_str("  Siteorient : N\n  Sitesymmetry : Y\n");
        scl.push_str(&format!(
            "  SubrowOrigin : {} NumSites : {}\n",
            r.x1,
            r.num_sites()
        ));
        scl.push_str("End\n");
    }
    fs::write(path("scl"), scl)?;

    Ok(path("aux"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NetlistBuilder;

    fn sample_case() -> (Netlist, Design, Placement) {
        let mut b = NetlistBuilder::new();
        let inv = b.add_lib_cell("INV", 2.0, 1.0, 1, 1);
        let pad = b.add_lib_cell("PAD", 1.0, 1.0, 0, 1);
        let u = b.add_cell("u0", inv);
        let v = b.add_cell("v0", inv);
        let p = b.add_fixed_cell("pad0", pad);
        b.add_net(
            "n0",
            [
                (p, Point::ORIGIN, PinDir::Output),
                (u, Point::new(-0.5, 0.0), PinDir::Input),
            ],
        );
        b.add_weighted_net(
            "n1",
            2.5,
            [
                (u, Point::new(0.5, 0.0), PinDir::Output),
                (v, Point::new(-0.5, 0.0), PinDir::Input),
            ],
        );
        let nl = b.finish().unwrap();
        let design = Design::uniform_rows(20.0, 1.0, 5, 1.0);
        let mut pl = Placement::new(&nl);
        pl.set(u, Point::new(3.0, 0.5));
        pl.set(v, Point::new(7.0, 2.5));
        pl.set(p, Point::new(0.5, 4.5));
        (nl, design, pl)
    }

    #[test]
    fn round_trip_preserves_everything() {
        let (nl, design, pl) = sample_case();
        let dir = std::env::temp_dir().join("sdp_bookshelf_roundtrip");
        let aux = write_bookshelf(&dir, "case", &nl, &design, &pl).unwrap();
        let case = read_bookshelf(&aux).unwrap();

        assert_eq!(case.netlist.num_cells(), 3);
        assert_eq!(case.netlist.num_nets(), 2);
        assert_eq!(case.netlist.num_pins(), 4);
        assert_eq!(case.netlist.num_movable(), 2);

        // Positions survive the centre↔corner conversion.
        for c in nl.cell_ids() {
            let name = &nl.cell(c).name;
            let rc = case.netlist.cell_by_name(name).unwrap();
            let orig = pl.get(c);
            let read = case.placement.get(rc);
            assert!((orig.x - read.x).abs() < 1e-9, "{name} x");
            assert!((orig.y - read.y).abs() < 1e-9, "{name} y");
        }

        // Weight survives via .wts.
        let n1 = case
            .netlist
            .net_ids()
            .find(|&n| case.netlist.net(n).name == "n1")
            .unwrap();
        assert_eq!(case.netlist.net(n1).weight, 2.5);

        // Pin offsets survive.
        let pin = case.netlist.net(n1).pins[0];
        assert!((case.netlist.pin(pin).offset.x - 0.5).abs() < 1e-9);

        // Rows survive.
        assert_eq!(case.design.rows().len(), 5);
        assert_eq!(case.design.region().width(), 20.0);

        // Fixed flag survives via `terminal`.
        let pad = case.netlist.cell_by_name("pad0").unwrap();
        assert!(case.netlist.cell(pad).fixed);
    }

    #[test]
    fn out_of_range_numbers_are_located_parse_errors() {
        let (nl, design, pl) = sample_case();
        let dir = std::env::temp_dir().join("sdp_bookshelf_range");
        let aux = write_bookshelf(&dir, "case", &nl, &design, &pl).unwrap();
        let member = |ext: &str| dir.join(format!("case.{ext}"));
        let originals: Vec<(&str, String)> = ["nodes", "nets", "wts", "pl", "scl"]
            .into_iter()
            .map(|ext| (ext, fs::read_to_string(member(ext)).unwrap()))
            .collect();
        let read_with = |ext: &str, from: &str, to: &str| {
            for (e, text) in &originals {
                let text = if *e == ext {
                    assert!(text.contains(from), "`{from}` not in .{ext}");
                    text.replacen(from, to, 1)
                } else {
                    text.clone()
                };
                fs::write(member(e), text).unwrap();
            }
            read_bookshelf(&aux)
        };
        // (member, text, replacement, the field the error names)
        let probes = [
            ("nodes", "u0 2 1", "u0 NaN 1", "width"),
            ("nodes", "u0 2 1", "u0 inf 1", "width"),
            ("nodes", "u0 2 1", "u0 -3 1", "width"),
            ("nodes", "u0 2 1", "u0 1e300 1", "width"),
            ("nodes", "u0 2 1", "u0 2 2e9", "height"),
            ("wts", "n1 2.5", "n1 inf", "weight"),
            ("wts", "n1 2.5", "n1 -1", "weight"),
            ("nets", "u0 I : -0.500000", "u0 I : NaN", "pin offset"),
            ("pl", "pad0 0.000000", "pad0 NaN", "x coordinate"),
            (
                "pl",
                "4.000000 : N /FIXED",
                "-2e9 : N /FIXED",
                "y coordinate",
            ),
            ("scl", "Coordinate : 0", "Coordinate : 1e300", "Coordinate"),
            ("scl", "Height : 1", "Height : 0", "Height"),
            ("scl", "Sitewidth : 1", "Sitewidth : -1", "Sitewidth"),
            (
                "scl",
                "SubrowOrigin : 0",
                "SubrowOrigin : NaN",
                "SubrowOrigin",
            ),
            ("scl", "NumSites : 20", "NumSites : 0", "NumSites"),
        ];
        for (ext, from, to, field) in probes {
            match read_with(ext, from, to) {
                Err(NetlistError::Parse(ParseError::OutOfRange {
                    loc, what, token, ..
                })) => {
                    assert_eq!(what, field, "{ext}: `{to}`");
                    assert!(loc.line > 0 && loc.col > 0, "{ext}: `{to}` at {loc}");
                    assert!(to.contains(&token), "{ext}: `{to}` names `{token}`");
                }
                other => panic!(".{ext} with `{to}`: expected OutOfRange, got {other:?}"),
            }
        }
        // A row with no `Height` line is missing one, not zero high.
        let r = read_with("scl", "  Height : 1\n", "");
        assert!(
            matches!(r, Err(NetlistError::Parse(ParseError::Missing { .. }))),
            "{r:?}"
        );
        // The ends of every range are inside it.
        for (ext, from, to) in [
            ("nodes", "u0 2 1", "u0 1e9 1"),
            ("wts", "n1 2.5", "n1 0"),
            ("pl", "pad0 0.000000", "pad0 -1e9"),
            ("scl", "NumSites : 20", "NumSites : 1"),
        ] {
            let r = read_with(ext, from, to);
            assert!(r.is_ok(), ".{ext} with `{to}`: {:?}", r.err());
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_aux_is_io_error() {
        let r = read_bookshelf("/nonexistent/missing.aux");
        assert!(matches!(r, Err(NetlistError::Io(_))));
    }

    #[test]
    fn malformed_nodes_is_parse_error() {
        let dir = std::env::temp_dir().join("sdp_bookshelf_bad");
        fs::create_dir_all(&dir).unwrap();
        fs::write(
            dir.join("bad.aux"),
            "RowBasedPlacement : bad.nodes bad.nets bad.pl bad.scl\n",
        )
        .unwrap();
        fs::write(dir.join("bad.nodes"), "UCLA nodes 1.0\nonly_one_token\n").unwrap();
        fs::write(dir.join("bad.nets"), "UCLA nets 1.0\n").unwrap();
        fs::write(dir.join("bad.pl"), "UCLA pl 1.0\n").unwrap();
        fs::write(dir.join("bad.scl"), "UCLA scl 1.0\n").unwrap();
        let r = read_bookshelf(dir.join("bad.aux"));
        assert!(matches!(r, Err(NetlistError::Parse(_))), "{r:?}");
    }

    #[test]
    fn truncated_net_is_a_parse_error() {
        let dir = std::env::temp_dir().join("sdp_bookshelf_trunc");
        fs::create_dir_all(&dir).unwrap();
        fs::write(
            dir.join("t.aux"),
            "RowBasedPlacement : t.nodes t.nets t.pl t.scl\n",
        )
        .unwrap();
        fs::write(dir.join("t.nodes"), "UCLA nodes 1.0\n a 1 1\n b 1 1\n").unwrap();
        // NetDegree claims 3 pins but only 2 follow.
        fs::write(
            dir.join("t.nets"),
            "UCLA nets 1.0\nNetDegree : 3 n0\n a O : 0 0\n b I : 0 0\n",
        )
        .unwrap();
        fs::write(dir.join("t.pl"), "UCLA pl 1.0\n").unwrap();
        fs::write(dir.join("t.scl"), "UCLA scl 1.0\nCoreRow Horizontal\n Coordinate : 0\n Height : 1\n Sitewidth : 1\n SubrowOrigin : 0 NumSites : 10\nEnd\n").unwrap();
        let r = read_bookshelf(dir.join("t.aux"));
        assert!(matches!(r, Err(NetlistError::Parse(_))), "{r:?}");
    }

    #[test]
    fn unknown_cell_in_net_is_a_parse_error() {
        let dir = std::env::temp_dir().join("sdp_bookshelf_unknown");
        fs::create_dir_all(&dir).unwrap();
        fs::write(
            dir.join("u.aux"),
            "RowBasedPlacement : u.nodes u.nets u.pl u.scl\n",
        )
        .unwrap();
        fs::write(dir.join("u.nodes"), "UCLA nodes 1.0\n a 1 1\n b 1 1\n").unwrap();
        fs::write(
            dir.join("u.nets"),
            "UCLA nets 1.0\nNetDegree : 2 n0\n a O : 0 0\n ghost I : 0 0\n",
        )
        .unwrap();
        fs::write(dir.join("u.pl"), "UCLA pl 1.0\n").unwrap();
        fs::write(dir.join("u.scl"), "UCLA scl 1.0\nCoreRow Horizontal\n Coordinate : 0\n Height : 1\n Sitewidth : 1\n SubrowOrigin : 0 NumSites : 10\nEnd\n").unwrap();
        let r = read_bookshelf(dir.join("u.aux"));
        match r {
            Err(NetlistError::Parse(p)) => {
                assert_eq!(p.token(), Some("ghost"));
                assert!(p.loc().line > 0, "line is reported: {p}");
                assert!(p.loc().col > 0, "column is reported: {p}");
            }
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn empty_scl_is_rejected() {
        let dir = std::env::temp_dir().join("sdp_bookshelf_noscl");
        fs::create_dir_all(&dir).unwrap();
        fs::write(
            dir.join("e.aux"),
            "RowBasedPlacement : e.nodes e.nets e.pl e.scl\n",
        )
        .unwrap();
        fs::write(dir.join("e.nodes"), "UCLA nodes 1.0\n a 1 1\n b 1 1\n").unwrap();
        fs::write(
            dir.join("e.nets"),
            "UCLA nets 1.0\nNetDegree : 2 n0\n a O : 0 0\n b I : 0 0\n",
        )
        .unwrap();
        fs::write(dir.join("e.pl"), "UCLA pl 1.0\n").unwrap();
        fs::write(dir.join("e.scl"), "UCLA scl 1.0\n").unwrap();
        let r = read_bookshelf(dir.join("e.aux"));
        assert!(matches!(r, Err(NetlistError::Parse(_))));
    }

    #[test]
    fn comments_and_blank_lines_are_tolerated() {
        let dir = std::env::temp_dir().join("sdp_bookshelf_comments");
        fs::create_dir_all(&dir).unwrap();
        fs::write(
            dir.join("c.aux"),
            "# a comment\nRowBasedPlacement : c.nodes c.nets c.pl c.scl\n",
        )
        .unwrap();
        fs::write(
            dir.join("c.nodes"),
            "UCLA nodes 1.0\n# header comment\n\nNumNodes : 2\nNumTerminals : 0\n a 2 1 # trailing comment\n b 2 1\n",
        )
        .unwrap();
        fs::write(
            dir.join("c.nets"),
            "UCLA nets 1.0\nNumNets : 1\nNumPins : 2\nNetDegree : 2 n0\n a O : 0 0\n b I : 0 0\n",
        )
        .unwrap();
        fs::write(dir.join("c.pl"), "UCLA pl 1.0\n a 0 0 : N\n b 4 0 : N\n").unwrap();
        fs::write(dir.join("c.scl"), "UCLA scl 1.0\nNumRows : 1\nCoreRow Horizontal\n Coordinate : 0\n Height : 1\n Sitewidth : 1\n Sitespacing : 1\n SubrowOrigin : 0 NumSites : 20\nEnd\n").unwrap();
        let case = read_bookshelf(dir.join("c.aux")).expect("tolerant parse");
        assert_eq!(case.netlist.num_cells(), 2);
        assert_eq!(case.design.rows().len(), 1);
        // Centre conversion: a at lower-left (0,0), width 2 → centre (1, 0.5).
        let a = case.netlist.cell_by_name("a").unwrap();
        assert_eq!(case.placement.get(a), Point::new(1.0, 0.5));
    }

    #[test]
    fn keyed_helper() {
        assert_eq!(keyed("NumNodes : 42", "NumNodes"), Some("42"));
        assert_eq!(keyed("NumNodes:42", "NumNodes"), Some("42"));
        assert_eq!(keyed("Other : 1", "NumNodes"), None);
    }
}
