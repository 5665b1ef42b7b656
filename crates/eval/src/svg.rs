//! SVG rendering of placements: the fastest way to *see* whether the
//! datapath arrays came out aligned.

use sdp_netlist::{DatapathGroup, Design, Netlist, Placement};
use std::io::{self, Write};
use std::path::Path;

/// A qualitative palette for group coloring (cycled).
const PALETTE: [&str; 10] = [
    "#4e79a7", "#f28e2b", "#e15759", "#76b7b2", "#59a14f", "#edc948", "#b07aa1", "#ff9da7",
    "#9c755f", "#bab0ac",
];

/// Writes an SVG of the placement: glue cells in light gray, each datapath
/// group in its own colour, fixed cells (pads) in dark gray, the core
/// region outlined.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn write_placement_svg(
    path: impl AsRef<Path>,
    netlist: &Netlist,
    design: &Design,
    placement: &Placement,
    groups: &[DatapathGroup],
) -> io::Result<()> {
    let mut file = std::fs::File::create(path)?;
    let region = design.region().inflated(4.0);
    let scale = 1000.0 / region.width();
    let width = 1000.0;
    let height = region.height() * scale;
    // SVG y grows downward; flip.
    let tx = |x: f64| (x - region.x1()) * scale;
    let ty = |y: f64| height - (y - region.y1()) * scale;

    writeln!(
        file,
        r#"<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0}" height="{height:.0}" viewBox="0 0 {width:.0} {height:.0}">"#
    )?;
    writeln!(
        file,
        r##"<rect width="100%" height="100%" fill="#ffffff"/>"##
    )?;
    // Core outline.
    let core = design.region();
    writeln!(
        file,
        r##"<rect x="{:.1}" y="{:.1}" width="{:.1}" height="{:.1}" fill="none" stroke="#000000" stroke-width="1"/>"##,
        tx(core.x1()),
        ty(core.y2()),
        core.width() * scale,
        core.height() * scale
    )?;

    // Group membership.
    let mut color_of = vec![None::<&str>; netlist.num_cells()];
    for (gi, g) in groups.iter().enumerate() {
        let color = PALETTE[gi % PALETTE.len()];
        for (_, _, c) in g.iter() {
            color_of[c.ix()] = Some(color);
        }
    }

    for c in netlist.cell_ids() {
        let r = placement.cell_rect(netlist, c);
        let fill = if netlist.cell(c).fixed {
            "#444444"
        } else {
            color_of[c.ix()].unwrap_or("#d8d8d8")
        };
        writeln!(
            file,
            r#"<rect x="{:.2}" y="{:.2}" width="{:.2}" height="{:.2}" fill="{fill}" stroke="none"/>"#,
            tx(r.x1()),
            ty(r.y2()),
            (r.width() * scale).max(0.5),
            (r.height() * scale).max(0.5),
        )?;
    }
    writeln!(file, "</svg>")?;
    Ok(())
}

/// Writes an SVG heat map of a per-bin scalar field (e.g. a RUDY demand
/// map): white → dark red with increasing value, normalized to the field's
/// maximum. Bin `(ix, iy)` of an `nx × ny` row-major field covers the
/// corresponding tile of `region`.
///
/// # Errors
///
/// Propagates filesystem errors.
///
/// # Panics
///
/// Panics if `field.len() != nx * ny` or `nx == 0 || ny == 0`.
pub fn write_heatmap_svg(
    path: impl AsRef<Path>,
    region: sdp_geom::Rect,
    nx: usize,
    ny: usize,
    field: &[f64],
) -> io::Result<()> {
    assert!(nx > 0 && ny > 0, "heat map needs at least one bin");
    assert_eq!(field.len(), nx * ny, "field must be nx*ny row-major");
    let mut file = std::fs::File::create(path)?;
    let scale = 1000.0 / region.width();
    let (width, height) = (1000.0, region.height() * scale);
    let max = field.iter().copied().fold(0.0f64, f64::max).max(1e-12);
    let (bw, bh) = (width / nx as f64, height / ny as f64);

    writeln!(
        file,
        r#"<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0}" height="{height:.0}" viewBox="0 0 {width:.0} {height:.0}">"#
    )?;
    for iy in 0..ny {
        for ix in 0..nx {
            let v = (field[iy * nx + ix] / max).clamp(0.0, 1.0);
            // White → red ramp.
            let g = sdp_geom::cast::saturating_u8(255.0 * (1.0 - v));
            writeln!(
                file,
                r#"<rect x="{:.1}" y="{:.1}" width="{bw:.1}" height="{bh:.1}" fill="rgb(255,{g},{g})"/>"#,
                ix as f64 * bw,
                height - (iy + 1) as f64 * bh,
            )?;
        }
    }
    writeln!(file, "</svg>")?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdp_geom::Point;
    use sdp_netlist::{NetlistBuilder, PinDir};

    #[test]
    fn heatmap_renders_and_normalizes() {
        let path = std::env::temp_dir().join("sdp_eval_heat_test.svg");
        let field = vec![0.0, 0.5, 1.0, 2.0];
        write_heatmap_svg(
            &path,
            sdp_geom::Rect::new(0.0, 0.0, 10.0, 10.0),
            2,
            2,
            &field,
        )
        .unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.matches("<rect").count(), 4);
        // The maximum bin is fully saturated, the zero bin white.
        assert!(text.contains("rgb(255,0,0)"));
        assert!(text.contains("rgb(255,255,255)"));
    }

    #[test]
    #[should_panic(expected = "nx*ny")]
    fn heatmap_rejects_bad_dims() {
        #[allow(
            clippy::let_underscore_must_use,
            reason = "the call panics before returning, which is what the test checks"
        )]
        let _ = write_heatmap_svg(
            std::env::temp_dir().join("bad.svg"),
            sdp_geom::Rect::new(0.0, 0.0, 1.0, 1.0),
            2,
            2,
            &[1.0; 3],
        );
    }

    #[test]
    fn writes_well_formed_svg() {
        let mut b = NetlistBuilder::new();
        let l = b.add_lib_cell("INV", 2.0, 1.0, 1, 1);
        let u = b.add_cell("u", l);
        let v = b.add_cell("v", l);
        let p = b.add_fixed_cell("p", l);
        b.add_net(
            "n",
            [
                (u, Point::ORIGIN, PinDir::Output),
                (v, Point::ORIGIN, PinDir::Input),
            ],
        );
        b.add_net(
            "m",
            [
                (p, Point::ORIGIN, PinDir::Output),
                (u, Point::ORIGIN, PinDir::Input),
            ],
        );
        let nl = b.finish().unwrap();
        let design = Design::uniform_rows(20.0, 1.0, 4, 1.0);
        let mut pl = Placement::new(&nl);
        pl.set(u, Point::new(3.0, 0.5));
        pl.set(v, Point::new(8.0, 1.5));
        pl.set(p, Point::new(-1.0, 2.0));
        let g = DatapathGroup::from_dense("g", vec![vec![u], vec![v]]);

        let path = std::env::temp_dir().join("sdp_eval_svg_test.svg");
        write_placement_svg(&path, &nl, &design, &pl, &[g]).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.starts_with("<svg"));
        assert!(text.trim_end().ends_with("</svg>"));
        // One rect per cell + background + core outline.
        assert_eq!(text.matches("<rect").count(), 5);
        // Group cells get palette colours, pads dark gray.
        assert!(text.contains(PALETTE[0]));
        assert!(text.contains("#444444"));
    }
}
