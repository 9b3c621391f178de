//! Compiled pattern state machines.
//!
//! [`crate::Recipe`] trees are compiled into [`Node`] state machines by
//! [`Node::build`]. Each leaf owns a private, non-overlapping data region and
//! a private program-counter range, allocated by [`Alloc`], so that composed
//! workloads never alias each other's lines and PC-indexed predictors see a
//! stable site-to-behaviour mapping.

use simrng::{Rng, SimRng};

use crate::power_law::PowerLaw;
use crate::recipe::Recipe;
use crate::LINE_BYTES;

/// Base virtual address of the first data region.
const DATA_BASE: u64 = 0x1_0000_0000;
/// Base virtual address for large code-walk regions.
const CODE_BASE: u64 = 0x0800_0000;
/// Base program counter for per-site instruction addresses.
const PC_BASE: u64 = 0x0040_0000;
/// Alignment of data regions; also the gap keeping regions disjoint.
const REGION_ALIGN: u64 = 1 << 20;
/// Pointer-chase node cap (2^21 nodes = 128 MB footprint, 8 MB table).
const MAX_CHASE_NODES: u64 = 1 << 21;

/// One step of output from a pattern node.
#[derive(Clone, Copy, Debug)]
pub(crate) struct StepOut {
    pub pc: u64,
    pub is_store: bool,
    pub addr: u64,
    /// Compute density override set by a [`Recipe::Compute`] ancestor.
    pub leading: Option<u32>,
    /// Serially dependent access (pointer chase).
    pub dependent: bool,
}

/// Address-space and PC allocator used while compiling a recipe tree.
#[derive(Debug)]
pub(crate) struct Alloc {
    next_data: u64,
    next_code: u64,
    next_pc: u64,
}

impl Alloc {
    pub(crate) fn new() -> Self {
        Self { next_data: DATA_BASE, next_code: CODE_BASE, next_pc: PC_BASE }
    }

    fn data_region(&mut self, bytes: u64) -> u64 {
        let base = self.next_data;
        let size = bytes.max(LINE_BYTES);
        self.next_data += size.div_ceil(REGION_ALIGN) * REGION_ALIGN;
        base
    }

    fn code_region(&mut self, bytes: u64) -> u64 {
        let base = self.next_code;
        self.next_code += bytes.div_ceil(REGION_ALIGN) * REGION_ALIGN;
        base
    }

    fn pc_block(&mut self) -> u64 {
        let base = self.next_pc;
        self.next_pc += 0x1000;
        base
    }
}

/// A compiled, mutable pattern state machine.
#[derive(Debug)]
pub(crate) enum Node {
    Cyclic {
        base: u64,
        bytes: u64,
        stride: u64,
        store_ratio: f32,
        pos: u64,
        pc_base: u64,
    },
    Zipf {
        base: u64,
        line_mask: u64,
        sampler: PowerLaw,
        store_ratio: f32,
        pc_base: u64,
    },
    Random {
        base: u64,
        lines: u64,
        store_ratio: f32,
        pc_base: u64,
    },
    Chase {
        base: u64,
        next: Vec<u32>,
        cur: u32,
        pc_base: u64,
    },
    Stencil {
        base: u64,
        elems: u64,
        cols: u64,
        idx: u64,
        phase: u8,
        pc_base: u64,
    },
    Mix {
        children: Vec<Node>,
        cumulative: Vec<u32>,
        total: u32,
    },
    Phased {
        children: Vec<(u64, Node)>,
        active: usize,
        remaining: u64,
    },
    Interleave {
        children: Vec<Node>,
        turn: usize,
    },
    Compute {
        min: u32,
        max: u32,
        inner: Box<Node>,
    },
    CodeWalk {
        code_base: u64,
        bytes: u64,
        pos: u64,
        inner: Box<Node>,
    },
}

/// `(pos + step) % len` for `pos < len`, dividing only when the sum wraps.
#[inline]
fn advance(pos: u64, step: u64, len: u64) -> u64 {
    let next = pos + step;
    if next < len {
        next
    } else {
        next % len
    }
}

/// Hints the host CPU to bring `item` into its cache; no effect on results.
#[inline]
fn prefetch<T>(item: &T) {
    // SAFETY: SSE is part of the x86_64 baseline, and a prefetch neither
    // reads nor writes memory as far as the program can observe.
    #[cfg(target_arch = "x86_64")]
    unsafe {
        std::arch::x86_64::_mm_prefetch::<{ std::arch::x86_64::_MM_HINT_T0 }>(
            std::ptr::from_ref(item).cast(),
        );
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = item;
}

/// Builds a single-cycle pseudo-random permutation (Sattolo's algorithm).
fn sattolo_cycle(n: usize, rng: &mut SimRng) -> Vec<u32> {
    let mut perm: Vec<u32> = (0..n as u32).collect();
    let mut i = n;
    while i > 1 {
        i -= 1;
        let j = rng.gen_range(0..i);
        perm.swap(i, j);
    }
    // `perm` is now a cyclic order; convert to a successor table.
    let mut next = vec![0u32; n];
    for w in 0..n {
        next[perm[w] as usize] = perm[(w + 1) % n];
    }
    next
}

/// Scatters a popularity rank over the region's lines so that popular ranks
/// are not spatially adjacent (which would otherwise gift stride prefetchers
/// an unrealistic advantage). Multiplication by an odd constant is a
/// bijection modulo a power of two.
fn scatter_rank(rank: u64, line_mask: u64) -> u64 {
    rank.wrapping_mul(0x9E37_79B9_7F4A_7C15) & line_mask
}

impl Node {
    /// Compiles a recipe into a state machine, allocating regions and PCs.
    pub(crate) fn build(recipe: &Recipe, alloc: &mut Alloc, rng: &mut SimRng) -> Node {
        match recipe {
            Recipe::Cyclic { bytes, stride, store_ratio } => Node::Cyclic {
                base: alloc.data_region(*bytes),
                bytes: (*bytes).max(LINE_BYTES),
                stride: (*stride).max(1),
                store_ratio: *store_ratio,
                pos: 0,
                pc_base: alloc.pc_block(),
            },
            Recipe::Zipf { bytes, skew, store_ratio } => {
                let lines = (bytes / LINE_BYTES).max(1);
                let pow2 = 1u64 << (63 - lines.leading_zeros() as u64);
                Node::Zipf {
                    base: alloc.data_region(*bytes),
                    line_mask: pow2 - 1,
                    sampler: PowerLaw::new(pow2, *skew),
                    store_ratio: *store_ratio,
                    pc_base: alloc.pc_block(),
                }
            }
            Recipe::Random { bytes, store_ratio } => Node::Random {
                base: alloc.data_region(*bytes),
                lines: (bytes / LINE_BYTES).max(1),
                store_ratio: *store_ratio,
                pc_base: alloc.pc_block(),
            },
            Recipe::Chase { bytes } => {
                let nodes = (bytes / LINE_BYTES).clamp(2, MAX_CHASE_NODES) as usize;
                Node::Chase {
                    base: alloc.data_region(*bytes),
                    next: sattolo_cycle(nodes, rng),
                    cur: 0,
                    pc_base: alloc.pc_block(),
                }
            }
            Recipe::Stencil { rows, row_bytes } => {
                let cols = (row_bytes / 8).max(1);
                Node::Stencil {
                    base: alloc.data_region(u64::from(*rows) * row_bytes),
                    elems: u64::from(*rows) * cols,
                    cols,
                    idx: 0,
                    phase: 0,
                    pc_base: alloc.pc_block(),
                }
            }
            Recipe::Mix(children) => {
                assert!(!children.is_empty(), "Mix needs at least one child");
                let mut cumulative = Vec::with_capacity(children.len());
                let mut total = 0u32;
                let mut nodes = Vec::with_capacity(children.len());
                for (weight, child) in children {
                    assert!(*weight > 0, "Mix weights must be positive");
                    total += weight;
                    cumulative.push(total);
                    nodes.push(Node::build(child, alloc, rng));
                }
                Node::Mix { children: nodes, cumulative, total }
            }
            Recipe::Phased(children) => {
                assert!(!children.is_empty(), "Phased needs at least one child");
                let nodes: Vec<(u64, Node)> = children
                    .iter()
                    .map(|(len, child)| {
                        assert!(*len > 0, "phase lengths must be positive");
                        (*len, Node::build(child, alloc, rng))
                    })
                    .collect();
                let remaining = nodes[0].0;
                Node::Phased { children: nodes, active: 0, remaining }
            }
            Recipe::Interleave(children) => {
                assert!(!children.is_empty(), "Interleave needs at least one child");
                Node::Interleave {
                    children: children.iter().map(|c| Node::build(c, alloc, rng)).collect(),
                    turn: 0,
                }
            }
            Recipe::Compute { min, max, inner } => {
                assert!(min <= max, "Compute range must have min <= max");
                Node::Compute { min: *min, max: *max, inner: Box::new(Node::build(inner, alloc, rng)) }
            }
            Recipe::CodeWalk { bytes, inner } => Node::CodeWalk {
                code_base: alloc.code_region(*bytes),
                bytes: (*bytes).max(LINE_BYTES),
                pos: 0,
                inner: Box::new(Node::build(inner, alloc, rng)),
            },
        }
    }

    /// Emits the next access.
    pub(crate) fn step(&mut self, rng: &mut SimRng) -> StepOut {
        match self {
            Node::Cyclic { base, bytes, stride, store_ratio, pos, pc_base } => {
                let addr = *base + *pos;
                *pos = advance(*pos, *stride, *bytes);
                let is_store = rng.gen::<f32>() < *store_ratio;
                StepOut {
                    pc: *pc_base + u64::from(is_store) * 4,
                    is_store,
                    addr,
                    leading: None,
                    dependent: false,
                }
            }
            Node::Zipf { base, line_mask, sampler, store_ratio, pc_base } => {
                let rank = sampler.sample(rng);
                let line = scatter_rank(rank, *line_mask);
                let is_store = rng.gen::<f32>() < *store_ratio;
                // Popular ranks come from dedicated "hot" instruction sites,
                // giving PC-indexed predictors a realistic reuse signal.
                let hot = rank < (*line_mask + 1) / 16;
                let site = u64::from(is_store) | (u64::from(hot) << 1);
                StepOut {
                    pc: *pc_base + site * 4,
                    is_store,
                    addr: *base + line * LINE_BYTES,
                    leading: None,
                    dependent: false,
                }
            }
            Node::Random { base, lines, store_ratio, pc_base } => {
                let line = rng.gen_range(0..*lines);
                let is_store = rng.gen::<f32>() < *store_ratio;
                StepOut {
                    pc: *pc_base + u64::from(is_store) * 4,
                    is_store,
                    addr: *base + line * LINE_BYTES,
                    leading: None,
                    dependent: false,
                }
            }
            Node::Chase { base, next, cur, pc_base } => {
                *cur = next[*cur as usize];
                // The next step of this chase reads `next[cur]`, a random
                // slot of a table of up to 8 MB: start that load now, so
                // the simulation of this access hides its latency.
                prefetch(&next[*cur as usize]);
                StepOut {
                    pc: *pc_base,
                    is_store: false,
                    addr: *base + u64::from(*cur) * LINE_BYTES,
                    leading: None,
                    dependent: true,
                }
            }
            Node::Stencil { base, elems, cols, idx, phase, pc_base } => {
                let (site, is_store, elem) = match *phase {
                    // The element one row up, `(idx + elems - cols) % elems`,
                    // dividing only when the first row wraps to the last.
                    0 => {
                        let up = (*idx).checked_sub(*cols);
                        (0, false, up.unwrap_or_else(|| (*idx + *elems - *cols) % *elems))
                    }
                    1 => (1, false, *idx),
                    _ => (2, true, *idx),
                };
                let out = StepOut {
                    pc: *pc_base + site * 4,
                    is_store,
                    addr: *base + elem * 8,
                    leading: None,
                    dependent: false,
                };
                *phase += 1;
                if *phase == 3 {
                    *phase = 0;
                    *idx = advance(*idx, 1, *elems);
                }
                out
            }
            Node::Mix { children, cumulative, total } => {
                let draw = rng.gen_range(0..*total);
                let pick = cumulative.partition_point(|&c| c <= draw);
                children[pick].step(rng)
            }
            Node::Phased { children, active, remaining } => {
                if *remaining == 0 {
                    *active = (*active + 1) % children.len();
                    *remaining = children[*active].0;
                }
                *remaining -= 1;
                children[*active].1.step(rng)
            }
            Node::Interleave { children, turn } => {
                let pick = *turn;
                *turn = if pick + 1 < children.len() { pick + 1 } else { 0 };
                children[pick].step(rng)
            }
            Node::Compute { min, max, inner } => {
                let mut out = inner.step(rng);
                out.leading = Some(if min == max { *min } else { rng.gen_range(*min..=*max) });
                out
            }
            Node::CodeWalk { code_base, bytes, pos, inner } => {
                let mut out = inner.step(rng);
                out.pc = *code_base + *pos;
                *pos = advance(*pos, 8, *bytes);
                out
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn build(recipe: Recipe) -> (Node, SimRng) {
        let mut rng = SimRng::seed_from_u64(42);
        let mut alloc = Alloc::new();
        let node = Node::build(&recipe, &mut alloc, &mut rng);
        (node, rng)
    }

    #[test]
    fn cyclic_wraps_within_region() {
        let (mut node, mut rng) =
            build(Recipe::Cyclic { bytes: 256, stride: 64, store_ratio: 0.0 });
        let addrs: Vec<u64> = (0..8).map(|_| node.step(&mut rng).addr).collect();
        assert_eq!(addrs[0], addrs[4]);
        assert_eq!(addrs[1], addrs[5]);
        assert_eq!(addrs[1] - addrs[0], 64);
    }

    #[test]
    fn cyclic_matches_the_modulo_walk_when_the_stride_spans_the_region() {
        for (bytes, stride) in [(256, 256), (256, 300), (192, 1000), (4096, 4096 * 3 + 8), (64, 64)] {
            let (mut node, mut rng) = build(Recipe::Cyclic { bytes, stride, store_ratio: 0.0 });
            let mut pos = 0u64;
            for _ in 0..50 {
                assert_eq!(node.step(&mut rng).addr, DATA_BASE + pos, "bytes {bytes} stride {stride}");
                pos = (pos + stride) % bytes;
            }
        }
    }

    #[test]
    fn stencil_matches_the_modulo_walk_across_its_wrap() {
        // 3 rows of 2 columns: two full passes cover every element, the
        // first row's look-up wrap and the last element's index wrap.
        let (mut node, mut rng) = build(Recipe::Stencil { rows: 3, row_bytes: 16 });
        let (elems, cols) = (6u64, 2u64);
        for i in 0..2 * elems {
            let idx = i % elems;
            let up = node.step(&mut rng);
            assert_eq!(up.addr, DATA_BASE + (idx + elems - cols) % elems * 8, "element {i}");
            assert_eq!(node.step(&mut rng).addr, DATA_BASE + idx * 8);
            assert_eq!(node.step(&mut rng).addr, DATA_BASE + idx * 8);
        }
    }

    #[test]
    fn code_walk_wraps_like_the_modulo_walk() {
        // 100 bytes is no multiple of the 8-byte step: each wrap lands on
        // a new offset.
        let (mut node, mut rng) = build(Recipe::CodeWalk {
            bytes: 100,
            inner: Box::new(Recipe::Random { bytes: 4096, store_ratio: 0.0 }),
        });
        let mut pos = 0u64;
        for _ in 0..60 {
            assert_eq!(node.step(&mut rng).pc, CODE_BASE + pos);
            pos = (pos + 8) % 100;
        }
    }

    #[test]
    fn interleave_round_robins_its_children() {
        let child = || Recipe::Cyclic { bytes: 64, stride: 64, store_ratio: 0.0 };
        let (mut node, mut rng) = build(Recipe::Interleave(vec![child(), child(), child()]));
        for i in 0..9u64 {
            let region = (node.step(&mut rng).addr - DATA_BASE) / REGION_ALIGN;
            assert_eq!(region, i % 3);
        }
    }

    #[test]
    fn chase_visits_every_node_once_per_cycle() {
        let (mut node, mut rng) = build(Recipe::Chase { bytes: 64 * 16 });
        let mut seen = std::collections::HashSet::new();
        for _ in 0..16 {
            assert!(seen.insert(node.step(&mut rng).addr), "revisit before full cycle");
        }
        // The 17th access restarts the cycle.
        assert!(!seen.insert(node.step(&mut rng).addr));
    }

    #[test]
    fn stencil_emits_read_read_write_per_element() {
        let (mut node, mut rng) = build(Recipe::Stencil { rows: 4, row_bytes: 64 });
        let a = node.step(&mut rng);
        let b = node.step(&mut rng);
        let c = node.step(&mut rng);
        assert!(!a.is_store && !b.is_store && c.is_store);
        assert_eq!(b.addr, c.addr);
    }

    #[test]
    fn zipf_addresses_fall_in_region() {
        let (mut node, mut rng) =
            build(Recipe::Zipf { bytes: 1 << 16, skew: 1.0, store_ratio: 0.5 });
        for _ in 0..1000 {
            let out = node.step(&mut rng);
            assert!(out.addr >= DATA_BASE);
            assert!(out.addr < DATA_BASE + (1 << 16));
        }
    }

    #[test]
    fn mix_regions_are_disjoint() {
        let (mut node, mut rng) = build(Recipe::Mix(vec![
            (1, Recipe::Random { bytes: 1 << 20, store_ratio: 0.0 }),
            (1, Recipe::Random { bytes: 1 << 20, store_ratio: 0.0 }),
        ]));
        // All addresses must land in one of two disjoint 1 MB regions.
        for _ in 0..1000 {
            let a = node.step(&mut rng).addr;
            let region = (a - DATA_BASE) / (1 << 20);
            assert!(region < 2, "address outside allocated regions");
        }
    }

    #[test]
    fn phased_switches_children() {
        let (mut node, mut rng) = build(Recipe::Phased(vec![
            (4, Recipe::Cyclic { bytes: 64, stride: 64, store_ratio: 0.0 }),
            (4, Recipe::Cyclic { bytes: 64, stride: 64, store_ratio: 0.0 }),
        ]));
        let first: Vec<u64> = (0..4).map(|_| node.step(&mut rng).addr).collect();
        let second: Vec<u64> = (0..4).map(|_| node.step(&mut rng).addr).collect();
        assert_ne!(first[0], second[0], "phase 2 must use its own region");
    }

    #[test]
    fn compute_overrides_leading() {
        let (mut node, mut rng) = build(Recipe::Compute {
            min: 7,
            max: 7,
            inner: Box::new(Recipe::Random { bytes: 4096, store_ratio: 0.0 }),
        });
        assert_eq!(node.step(&mut rng).leading, Some(7));
    }

    #[test]
    fn code_walk_rewrites_pc() {
        let (mut node, mut rng) = build(Recipe::CodeWalk {
            bytes: 1 << 12,
            inner: Box::new(Recipe::Random { bytes: 4096, store_ratio: 0.0 }),
        });
        let a = node.step(&mut rng).pc;
        let b = node.step(&mut rng).pc;
        assert!((CODE_BASE..CODE_BASE + (1 << 12)).contains(&a));
        assert_eq!(b - a, 8);
    }

    #[test]
    fn sattolo_produces_single_cycle() {
        let mut rng = SimRng::seed_from_u64(9);
        let next = sattolo_cycle(100, &mut rng);
        let mut cur = 0u32;
        for _ in 0..99 {
            cur = next[cur as usize];
            assert_ne!(cur, 0, "cycle closed early");
        }
        assert_eq!(next[cur as usize], 0, "must return to start after n steps");
    }
}
