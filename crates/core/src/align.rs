//! The alignment objective: quadratic forces pulling each datapath group
//! into a regular `bits × stages` array during global placement.
//!
//! For a group laid out bits-vertical, the term is
//!
//! ```text
//! A(g) = Σ_b Σ_{c ∈ row b} (y_c − (α_g + b·p_g))²     row alignment
//!      + Σ_s Σ_{c ∈ col s} (x_c − (ξ_g + s·q_g))²     column coherence
//! ```
//!
//! where the row line (`α_g`, pitch `p_g`) and column line (`ξ_g`, pitch
//! `q_g`) are **re-fitted by least squares at every outer iteration** from
//! the current placement — the array follows wherever the wirelength and
//! density forces take the group as a whole, while its internal geometry is
//! squeezed toward regularity. The row pitch is snapped to a whole number
//! of placement rows (at least one) so bit rows land on distinct rows.
//!
//! The per-group **orientation** (bits-vertical vs bits-horizontal) is
//! chosen each outer iteration by comparing the least-squares residuals of
//! both layouts, with hysteresis so a group does not oscillate — the
//! analytical analogue of the rotation force from this group's mixed-size
//! placement work.
//!
//! The term's weight follows a schedule: zero while the placement is still
//! spreading (overflow above [`ACTIVATE_AT`]), then a gradient-balanced
//! base weight ramped geometrically per outer iteration ([`RAMP`], capped
//! at [`MAX_RAMP`]).

use sdp_geom::{GroupAxis, Point};
use sdp_gp::ExtraTerm;
use sdp_netlist::{DatapathGroup, Netlist};

/// Overflow level below which the term activates.
pub const ACTIVATE_AT: f64 = 0.6;

/// Geometric ramp applied to the weight each outer iteration after
/// activation.
pub const RAMP: f64 = 1.4;

/// Cap on the accumulated ramp factor.
pub const MAX_RAMP: f64 = 12.0;

/// Orientation switch hysteresis: the other axis must be better by this
/// factor to flip the group.
pub const HYSTERESIS: f64 = 0.8;

/// Tuning for the alignment term.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AlignConfig {
    /// User-facing strength multiplier (β). `0` disables alignment
    /// entirely — the F3 ablation sweeps this.
    pub beta: f64,
    /// Placement row height (sets the snapped bit-row pitch).
    pub row_height: f64,
}

impl Default for AlignConfig {
    fn default() -> Self {
        AlignConfig {
            beta: 1.0,
            row_height: 1.0,
        }
    }
}

/// Per-group fitted target lines.
#[derive(Debug, Clone, Copy)]
struct GroupFit {
    /// Row line: target for bit b is `alpha + b * pitch_rows`.
    alpha: f64,
    pitch_rows: f64,
    /// Column line: target for stage s is `xi + s * pitch_cols`.
    xi: f64,
    pitch_cols: f64,
    axis: GroupAxis,
}

/// The alignment [`ExtraTerm`] plugged into `sdp-gp`.
#[derive(Debug)]
pub struct AlignTerm {
    groups: Vec<DatapathGroup>,
    config: AlignConfig,
    fits: Vec<GroupFit>,
    /// Per-group axis feasibility, indexed `[vertical, horizontal]`;
    /// see [`AlignTerm::restrict_axes`].
    allowed: Vec<[bool; 2]>,
    weight: f64,
    ramp_accum: f64,
    active: bool,
    /// Gradient-balancing scale computed at activation.
    base_scale: Option<f64>,
}

impl AlignTerm {
    /// Creates the term for a set of extracted groups.
    pub fn new(groups: Vec<DatapathGroup>, config: AlignConfig) -> Self {
        let fits = groups
            .iter()
            .map(|g| GroupFit {
                alpha: 0.0,
                pitch_rows: config.row_height,
                xi: 0.0,
                pitch_cols: 1.0,
                axis: g.axis,
            })
            .collect();
        let allowed = vec![[true; 2]; groups.len()];
        AlignTerm {
            groups,
            config,
            fits,
            allowed,
            weight: 0.0,
            ramp_accum: 1.0,
            active: false,
            base_scale: None,
        }
    }

    /// Forbids orientations the core cannot realize: an axis is feasible
    /// only if every *physical row* it would produce (bit rows when
    /// bits-vertical, stage columns laid flat when bits-horizontal) fits
    /// within `max_row_width`. The residual comparison in refit may then
    /// only flip a group onto a feasible axis — otherwise the objective
    /// happily shapes arrays wider than any placement row, and the later
    /// row snap has no legal window to commit them to. Groups for which
    /// neither axis fits are left unrestricted (alignment stays
    /// best-effort). A group currently sitting on a forbidden axis is
    /// flipped immediately.
    pub fn restrict_axes(&mut self, netlist: &Netlist, max_row_width: f64) {
        if !max_row_width.is_finite() {
            return;
        }
        let fits_in_row = |w: f64| w <= max_row_width + 1e-9;
        for (gi, g) in self.groups.iter().enumerate() {
            let vertical = (0..g.bits())
                .all(|b| fits_in_row(g.bit_row(b).map(|c| netlist.cell_width(c)).sum()));
            let horizontal = (0..g.stages())
                .all(|s| fits_in_row(g.stage_col(s).map(|c| netlist.cell_width(c)).sum()));
            self.allowed[gi] = if vertical || horizontal {
                [vertical, horizontal]
            } else {
                [true; 2]
            };
        }
        for gi in 0..self.groups.len() {
            let axis = self.fits[gi].axis;
            if !self.axis_allowed(gi, axis) {
                self.fits[gi].axis = axis.transposed();
                self.groups[gi].axis = axis.transposed();
            }
        }
    }

    fn axis_allowed(&self, gi: usize, axis: GroupAxis) -> bool {
        self.allowed[gi][match axis {
            GroupAxis::BitsVertical => 0,
            GroupAxis::BitsHorizontal => 1,
        }]
    }

    /// The groups being aligned (with their current orientation choices).
    pub fn groups(&self) -> &[DatapathGroup] {
        &self.groups
    }

    /// Whether the term has activated yet.
    pub fn is_active(&self) -> bool {
        self.active
    }

    /// The current (already-ramped) weight.
    pub fn weight(&self) -> f64 {
        self.weight
    }

    /// Least-squares fit of `v ≈ a + i·p` over `(i, v)` samples; `p` is
    /// optionally snapped to a multiple of `snap` (minimum one unit).
    fn fit_line(samples: &[(f64, f64)], snap: Option<f64>) -> (f64, f64) {
        let n = samples.len() as f64;
        if samples.is_empty() {
            return (0.0, snap.unwrap_or(1.0));
        }
        let mean_i = samples.iter().map(|s| s.0).sum::<f64>() / n;
        let mean_v = samples.iter().map(|s| s.1).sum::<f64>() / n;
        let var_i: f64 = samples.iter().map(|s| (s.0 - mean_i).powi(2)).sum();
        let cov: f64 = samples
            .iter()
            .map(|s| (s.0 - mean_i) * (s.1 - mean_v))
            .sum();
        let mut pitch = if var_i > 1e-12 { cov / var_i } else { 0.0 };
        if let Some(unit) = snap {
            let sign = if pitch < 0.0 { -1.0 } else { 1.0 };
            let mag = (pitch.abs() / unit).round().max(1.0) * unit;
            pitch = sign * mag;
        }
        (mean_v - pitch * mean_i, pitch)
    }

    /// Fits a group under one orientation and returns `(fit, residual)`.
    /// `axis` decides which coordinate plays the row role.
    fn fit_group(&self, g: &DatapathGroup, pos: &[Point], axis: GroupAxis) -> (GroupFit, f64) {
        let row_coord = |p: Point| match axis {
            GroupAxis::BitsVertical => p.y,
            GroupAxis::BitsHorizontal => p.x,
        };
        let col_coord = |p: Point| match axis {
            GroupAxis::BitsVertical => p.x,
            GroupAxis::BitsHorizontal => p.y,
        };
        // Row samples: (bit index, mean row coordinate of the bit row).
        let mut row_samples = Vec::with_capacity(g.bits());
        for b in 0..g.bits() {
            let vals: Vec<f64> = g.bit_row(b).map(|c| row_coord(pos[c.ix()])).collect();
            if !vals.is_empty() {
                row_samples.push((b as f64, vals.iter().sum::<f64>() / vals.len() as f64));
            }
        }
        let (alpha, pitch_rows) = Self::fit_line(&row_samples, Some(self.config.row_height));
        let mut col_samples = Vec::with_capacity(g.stages());
        for s in 0..g.stages() {
            let vals: Vec<f64> = g.stage_col(s).map(|c| col_coord(pos[c.ix()])).collect();
            if !vals.is_empty() {
                col_samples.push((s as f64, vals.iter().sum::<f64>() / vals.len() as f64));
            }
        }
        let (xi, pitch_cols) = Self::fit_line(&col_samples, None);

        // Residual under this fit.
        let mut res = 0.0;
        for (b, _, c) in g.iter() {
            let t = alpha + b as f64 * pitch_rows;
            res += (row_coord(pos[c.ix()]) - t).powi(2);
        }
        for s in 0..g.stages() {
            let t = xi + s as f64 * pitch_cols;
            for c in g.stage_col(s) {
                res += (col_coord(pos[c.ix()]) - t).powi(2);
            }
        }
        (
            GroupFit {
                alpha,
                pitch_rows,
                xi,
                pitch_cols,
                axis,
            },
            res,
        )
    }

    /// Refits every group's target lines (and possibly flips orientation)
    /// from the current placement.
    fn refit(&mut self, pos: &[Point]) {
        for gi in 0..self.groups.len() {
            let g = &self.groups[gi];
            let cur_axis = self.fits[gi].axis;
            let alt_axis = cur_axis.transposed();
            let (fit_cur, res_cur) = self.fit_group(g, pos, cur_axis);
            if !self.axis_allowed(gi, alt_axis) {
                self.fits[gi] = fit_cur;
                continue;
            }
            let (fit_alt, res_alt) = self.fit_group(g, pos, alt_axis);
            if !self.axis_allowed(gi, cur_axis) || res_alt < res_cur * HYSTERESIS {
                self.fits[gi] = fit_alt;
                self.groups[gi].axis = fit_alt.axis;
            } else {
                self.fits[gi] = fit_cur;
            }
        }
    }

    /// Raw (unweighted) value and gradient of the alignment objective.
    fn raw_eval(&self, pos: &[Point], grad: &mut [Point], accumulate: bool) -> f64 {
        let mut value = 0.0;
        for (g, fit) in self.groups.iter().zip(&self.fits) {
            let vertical = fit.axis == GroupAxis::BitsVertical;
            for (b, s, c) in g.iter() {
                let p = pos[c.ix()];
                let row_t = fit.alpha + b as f64 * fit.pitch_rows;
                let col_t = fit.xi + s as f64 * fit.pitch_cols;
                let (dr, dc) = if vertical {
                    (p.y - row_t, p.x - col_t)
                } else {
                    (p.x - row_t, p.y - col_t)
                };
                value += dr * dr + dc * dc;
                if accumulate {
                    let (gx, gy) = if vertical {
                        (2.0 * dc, 2.0 * dr)
                    } else {
                        (2.0 * dr, 2.0 * dc)
                    };
                    grad[c.ix()].x += gx * self.weight;
                    grad[c.ix()].y += gy * self.weight;
                }
            }
        }
        value
    }
}

impl ExtraTerm for AlignTerm {
    fn eval(&mut self, _netlist: &Netlist, pos: &[Point], grad: &mut [Point]) -> f64 {
        if !self.active || self.weight == 0.0 {
            return 0.0;
        }
        let v = self.raw_eval(pos, grad, true);
        self.weight * v
    }

    fn begin_outer(&mut self, _outer: usize, overflow: f64, pos: &[Point]) {
        if !self.active && overflow <= ACTIVATE_AT {
            self.active = true;
        }
        if self.active {
            self.ramp_accum = (self.ramp_accum * RAMP).min(MAX_RAMP);
        }
        self.prepare(pos);
    }
}

impl AlignTerm {
    /// Refreshes fits and the gradient-balanced weight from the current
    /// positions. The flow calls this right after `begin_outer`, when it
    /// knows the positions.
    pub fn prepare(&mut self, pos: &[Point]) {
        if !self.active {
            return;
        }
        self.refit(pos);
        let base_scale = match self.base_scale {
            Some(s) => s,
            None => {
                // Balance: make Σ|align grad| ≈ cells at unit weight.
                let mut grad = vec![Point::ORIGIN; pos.len()];
                self.weight = 1.0;
                self.raw_eval(pos, &mut grad, true);
                let total: f64 = grad.iter().map(|g| g.manhattan()).sum();
                let cells: usize = self.groups.iter().map(|g| g.num_cells()).sum();
                let scale = if total > 1e-9 {
                    cells as f64 / total
                } else {
                    1.0
                };
                self.base_scale = Some(scale);
                scale
            }
        };
        self.weight = self.config.beta * base_scale * self.ramp_accum;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdp_netlist::{CellId, NetlistBuilder, PinDir};

    fn grid_netlist(n: usize) -> Netlist {
        let mut b = NetlistBuilder::new();
        let l = b.add_lib_cell("INV", 1.0, 1.0, 1, 1);
        let cells: Vec<CellId> = (0..n).map(|i| b.add_cell(&format!("u{i}"), l)).collect();
        for w in cells.windows(2) {
            b.add_net(
                &format!("n{}", w[0]),
                [
                    (w[0], Point::ORIGIN, PinDir::Output),
                    (w[1], Point::ORIGIN, PinDir::Input),
                ],
            );
        }
        b.finish().unwrap()
    }

    fn group2x3() -> DatapathGroup {
        DatapathGroup::from_dense(
            "g",
            vec![
                vec![CellId::new(0), CellId::new(1), CellId::new(2)],
                vec![CellId::new(3), CellId::new(4), CellId::new(5)],
            ],
        )
    }

    #[test]
    fn fit_line_recovers_slope_and_snaps() {
        let samples: Vec<(f64, f64)> = (0..8).map(|i| (i as f64, 3.0 + 2.2 * i as f64)).collect();
        let (a, p) = AlignTerm::fit_line(&samples, None);
        assert!((p - 2.2).abs() < 1e-9);
        assert!((a - 3.0).abs() < 1e-9);
        let (_, ps) = AlignTerm::fit_line(&samples, Some(1.0));
        assert_eq!(ps, 2.0);
        // Snap never collapses below one unit.
        let flat: Vec<(f64, f64)> = (0..4).map(|i| (i as f64, 5.0)).collect();
        let (_, pf) = AlignTerm::fit_line(&flat, Some(1.0));
        assert_eq!(pf.abs(), 1.0);
    }

    #[test]
    fn perfect_array_has_zero_value_and_gradient() {
        let nl = grid_netlist(6);
        let g = group2x3();
        let mut term = AlignTerm::new(vec![g.clone()], AlignConfig::default());
        let pos: Vec<Point> = (0..6)
            .map(|i| Point::new((i % 3) as f64 * 4.0, (i / 3) as f64))
            .collect();
        term.begin_outer(0, 0.0, &pos); // activates
        let mut grad = vec![Point::ORIGIN; 6];
        let v = term.eval(&nl, &pos, &mut grad);
        assert!(v < 1e-18, "value {v}");
        assert!(grad.iter().all(|g| g.norm() < 1e-9));
    }

    #[test]
    fn gradient_matches_finite_difference() {
        let nl = grid_netlist(6);
        let mut term = AlignTerm::new(vec![group2x3()], AlignConfig::default());
        let pos: Vec<Point> = vec![
            Point::new(0.3, 0.1),
            Point::new(4.2, -0.2),
            Point::new(8.1, 0.4),
            Point::new(0.0, 1.3),
            Point::new(3.9, 0.8),
            Point::new(8.3, 1.1),
        ];
        term.begin_outer(0, 0.0, &pos);
        let mut grad = vec![Point::ORIGIN; 6];
        term.eval(&nl, &pos, &mut grad);
        let h = 1e-6;
        for i in 0..6 {
            for axis in 0..2 {
                let mut p1 = pos.clone();
                let mut p2 = pos.clone();
                if axis == 0 {
                    p1[i].x -= h;
                    p2[i].x += h;
                } else {
                    p1[i].y -= h;
                    p2[i].y += h;
                }
                let mut scratch = vec![Point::ORIGIN; 6];
                let f1 = term.eval(&nl, &p1, &mut scratch);
                scratch.fill(Point::ORIGIN);
                let f2 = term.eval(&nl, &p2, &mut scratch);
                let fd = (f2 - f1) / (2.0 * h);
                let an = if axis == 0 { grad[i].x } else { grad[i].y };
                assert!(
                    (fd - an).abs() < 1e-4 * (1.0 + an.abs()),
                    "cell {i} axis {axis}: fd {fd} vs {an}"
                );
            }
        }
    }

    #[test]
    fn inactive_until_overflow_drops() {
        let nl = grid_netlist(6);
        let mut term = AlignTerm::new(vec![group2x3()], AlignConfig::default());
        let pos = vec![Point::new(1.0, 1.0); 6];
        term.begin_outer(0, 0.9, &pos); // overflow too high
        let mut grad = vec![Point::ORIGIN; 6];
        assert_eq!(term.eval(&nl, &pos, &mut grad), 0.0);
        assert!(!term.is_active());
        term.begin_outer(1, 0.3, &pos);
        assert!(term.is_active());
        assert!(term.weight() > 0.0);
    }

    #[test]
    fn weight_ramps_and_caps() {
        let mut term = AlignTerm::new(vec![group2x3()], AlignConfig::default());
        let pos: Vec<Point> = (0..6)
            .map(|i| Point::new(i as f64, i as f64 * 0.5))
            .collect();
        term.begin_outer(0, 0.0, &pos);
        let w1 = term.weight();
        term.begin_outer(1, 0.0, &pos);
        let w2 = term.weight();
        assert!(w2 > w1);
        for k in 2..40 {
            term.begin_outer(k, 0.0, &pos);
        }
        let w_cap = term.weight();
        assert!(w_cap <= w1 / 1.6 * 64.0 * 1.0001, "cap respected: {w_cap}");
    }

    #[test]
    fn descending_the_gradient_tightens_rows() {
        let nl = grid_netlist(6);
        let mut term = AlignTerm::new(vec![group2x3()], AlignConfig::default());
        let mut pos: Vec<Point> = vec![
            Point::new(0.0, 0.5),
            Point::new(4.0, -0.5),
            Point::new(8.0, 0.2),
            Point::new(0.2, 1.6),
            Point::new(4.1, 0.9),
            Point::new(7.9, 1.2),
        ];
        term.begin_outer(0, 0.0, &pos);
        let mut grad = vec![Point::ORIGIN; 6];
        let v0 = term.eval(&nl, &pos, &mut grad);
        // One small gradient-descent step.
        let step = 1e-3 / term.weight();
        for i in 0..6 {
            pos[i] -= grad[i] * step;
        }
        grad.fill(Point::ORIGIN);
        let v1 = term.eval(&nl, &pos, &mut grad);
        assert!(v1 < v0, "descent reduces alignment energy: {v0} -> {v1}");
    }

    #[test]
    fn hysteresis_prevents_orientation_thrash() {
        // A nearly square layout: residuals of both orientations are
        // close, so the group must keep its current axis.
        let mut term = AlignTerm::new(vec![group2x3()], AlignConfig::default());
        let pos: Vec<Point> = vec![
            Point::new(0.0, 0.0),
            Point::new(1.0, 0.1),
            Point::new(2.0, -0.1),
            Point::new(0.1, 1.0),
            Point::new(1.1, 1.1),
            Point::new(2.1, 0.9),
        ];
        let before = term.groups()[0].axis;
        term.begin_outer(0, 0.0, &pos);
        assert_eq!(term.groups()[0].axis, before, "no flip on ~equal residuals");
    }

    #[test]
    fn sparse_groups_fit_without_panicking() {
        // Rows with missing cells (None entries) must fit and evaluate.
        use sdp_netlist::CellId;
        let g = DatapathGroup::new(
            "sparse",
            vec![
                vec![Some(CellId::new(0)), None, Some(CellId::new(2))],
                vec![None, Some(CellId::new(4)), None],
            ],
        );
        let mut term = AlignTerm::new(vec![g], AlignConfig::default());
        let pos: Vec<Point> = (0..6).map(|i| Point::new(i as f64, i as f64)).collect();
        term.begin_outer(0, 0.0, &pos);
        let nl = grid_netlist(6);
        let mut grad = vec![Point::ORIGIN; 6];
        let v = term.eval(&nl, &pos, &mut grad);
        assert!(v.is_finite());
        assert!(grad.iter().all(|g| g.is_finite()));
    }

    #[test]
    fn width_restriction_blocks_infeasible_flip() {
        let nl = grid_netlist(6);
        // 3 bits x 2 stages of unit-width cells: bit rows are 2 wide,
        // stage columns laid flat would be 3 wide.
        let g = DatapathGroup::from_dense(
            "tall",
            vec![
                vec![CellId::new(0), CellId::new(1)],
                vec![CellId::new(2), CellId::new(3)],
                vec![CellId::new(4), CellId::new(5)],
            ],
        );
        let mut term = AlignTerm::new(vec![g], AlignConfig::default());
        // Rows only 2.5 wide: bits-horizontal (3-wide rows) is forbidden.
        term.restrict_axes(&nl, 2.5);
        // Bits laid out horizontally: the residual comparison alone would
        // flip the group (cf. orientation_flips_for_wide_flat_groups).
        let pos: Vec<Point> = vec![
            Point::new(0.0, 0.0),
            Point::new(0.1, 4.0),
            Point::new(6.0, 0.1),
            Point::new(6.1, 4.1),
            Point::new(12.0, -0.1),
            Point::new(12.1, 3.9),
        ];
        term.begin_outer(0, 0.0, &pos);
        assert_eq!(
            term.groups()[0].axis,
            GroupAxis::BitsVertical,
            "infeasible orientation must not be chosen"
        );
    }

    #[test]
    fn orientation_flips_for_wide_flat_groups() {
        let nl = grid_netlist(6);
        let _ = nl;
        let mut term = AlignTerm::new(vec![group2x3()], AlignConfig::default());
        // Bits laid out horizontally (bit 0 left, bit 1 right), stages
        // vertically: the transposed orientation fits far better.
        let pos: Vec<Point> = vec![
            Point::new(0.0, 0.0),
            Point::new(0.1, 4.0),
            Point::new(-0.1, 8.0),
            Point::new(6.0, 0.1),
            Point::new(6.1, 4.1),
            Point::new(5.9, 7.9),
        ];
        term.begin_outer(0, 0.0, &pos);
        assert_eq!(term.groups()[0].axis, GroupAxis::BitsHorizontal);
    }
}
