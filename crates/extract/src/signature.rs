//! Weisfeiler–Leman-style structural signatures over the fan-in cone.
//!
//! Round 0 assigns each cell a hash of its master name. Each refinement
//! round rehashes a cell together with its input-slot drivers' previous
//! signatures, so after `k` rounds two cells share a signature exactly
//! when their depth-`k` fan-in cones are isomorphic (up to hash
//! collisions). High-fanout nets (clock, tie, reset) contribute only a
//! degree token — their pin lists carry no bit-level structure — and
//! fan-out is ignored entirely (see [`signatures`]).

use sdp_netlist::{Netlist, PinDir};

/// Deterministic 64-bit mixer (splitmix64 finalizer).
#[inline]
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Combines a hash with a new token.
#[inline]
fn combine(h: u64, token: u64) -> u64 {
    mix(h ^ token.wrapping_mul(0xc2b2_ae3d_27d4_eb4f))
}

fn hash_str(s: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in s.bytes() {
        h = (h ^ b as u64).wrapping_mul(0x1000_0000_01b3);
    }
    mix(h)
}

/// Computes per-cell structural signatures after `rounds` refinements.
///
/// The returned vector is indexed by `CellId::ix()`.
///
/// Refinement deliberately propagates only through the **fan-in** side:
/// a cell's new signature hashes its master together with, per input slot
/// (in slot order), the previous signature of the slot's driver — or a
/// degree-class token when the net is high-fanout, or a pad token when the
/// driver is fixed. Fan-out is ignored because random control logic taps
/// datapath outputs non-uniformly; folding sink environments in would make
/// every bit of a bus look unique and dissolve the classes extraction
/// depends on (observed directly on the generated suite).
pub fn signatures(netlist: &Netlist, rounds: usize, max_net_degree: usize) -> Vec<u64> {
    let n = netlist.num_cells();
    let base: Vec<u64> = (0..n)
        .map(|i| {
            let c = sdp_netlist::CellId::new(i);
            let b = hash_str(&netlist.master_of(c).name);
            if netlist.cell(c).fixed {
                combine(b, 0xf1_eef)
            } else {
                b
            }
        })
        .collect();
    let mut sig = base.clone();
    let mut next = sig.clone();

    for _round in 0..rounds {
        for i in 0..n {
            let c = sdp_netlist::CellId::new(i);
            let cell = netlist.cell(c);
            if cell.fixed {
                next[i] = sig[i];
                continue;
            }
            // Input pins in slot order (by offset), matching Relations.
            let mut inputs: Vec<_> = cell
                .pins
                .iter()
                .copied()
                .filter(|&p| netlist.pin(p).dir == PinDir::Input)
                .collect();
            inputs.sort_by(|&a, &b| {
                let (oa, ob) = (netlist.pin(a).offset, netlist.pin(b).offset);
                oa.y.total_cmp(&ob.y).then(oa.x.total_cmp(&ob.x))
            });
            let mut h = base[i];
            for p in inputs {
                let pin = netlist.pin(p);
                let net = netlist.net(pin.net);
                let token = if net.pins.len() > max_net_degree {
                    // Structure-free net: degree class only.
                    combine(0xb16, net.pins.len().ilog2() as u64)
                } else {
                    match net
                        .pins
                        .iter()
                        .map(|&q| netlist.pin(q))
                        .find(|q| q.dir == PinDir::Output)
                    {
                        Some(d) if netlist.cell(d.cell).fixed => combine(0x9ad, 1),
                        Some(d) => sig[d.cell.ix()],
                        None => 0xdead,
                    }
                };
                h = combine(h, token);
            }
            next[i] = h;
        }
        std::mem::swap(&mut sig, &mut next);
    }
    sig
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdp_dpgen::{generate, test_support, GenConfig};

    #[test]
    fn mix_is_deterministic_and_spread() {
        assert_eq!(mix(1), mix(1));
        assert_ne!(mix(1), mix(2));
        assert_ne!(hash_str("INV"), hash_str("NAND2"));
    }

    #[test]
    fn interior_adder_bits_share_signature() {
        // Build a standalone 8-bit adder and check interior sum-XOR cells
        // collide while the boundary bit differs.
        let (netlist, truth) = test_support::lone_adder(8);
        let sigs = signatures(&netlist, 2, 6);
        let g = &truth[0];
        // Stage 1 = the sum XOR (see blocks::full_adder ordering).
        let interior: Vec<u64> = (3..7)
            .map(|b| sigs[g.cell_at(b, 1).unwrap().ix()])
            .collect();
        assert!(
            interior.windows(2).all(|w| w[0] == w[1]),
            "interior bits must share a signature"
        );
        let b0 = sigs[g.cell_at(0, 1).unwrap().ix()];
        assert_ne!(b0, interior[0], "boundary bit differs (cin from tie net)");
    }

    #[test]
    fn different_stages_get_different_signatures() {
        let (netlist, truth) = test_support::lone_adder(8);
        let sigs = signatures(&netlist, 2, 6);
        let g = &truth[0];
        let mid = 4;
        // xor-sum vs and-carry of the same bit must differ.
        let s_xor = sigs[g.cell_at(mid, 1).unwrap().ix()];
        let s_and = sigs[g.cell_at(mid, 2).unwrap().ix()];
        assert_ne!(s_xor, s_and);
    }

    #[test]
    fn more_rounds_refine_more() {
        let d = generate(&GenConfig::named("dp_tiny", 1).unwrap());
        let classes = |rounds: usize| {
            let sigs = signatures(&d.netlist, rounds, 6);
            let mut set = std::collections::HashSet::new();
            for s in sigs {
                set.insert(s);
            }
            set.len()
        };
        let c0 = classes(0);
        let c1 = classes(1);
        let c3 = classes(3);
        assert!(c0 <= c1 && c1 <= c3, "{c0} <= {c1} <= {c3}");
        assert!(c0 < c3, "refinement must split classes");
    }

    #[test]
    fn signatures_are_stable_across_runs() {
        let d = generate(&GenConfig::named("dp_tiny", 2).unwrap());
        assert_eq!(signatures(&d.netlist, 2, 6), signatures(&d.netlist, 2, 6));
    }
}
