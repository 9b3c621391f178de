//! The RRIP family: SRRIP, BRRIP, and set-dueling DRRIP (Jaleel et al.,
//! ISCA 2010), the paper's strongest non-PC baseline besides KPC-R.

use cache_sim::{Access, AccessKind, CacheConfig, ReplacementPolicy};

/// Maximum re-reference prediction value for 2-bit RRPVs ("distant future").
pub(crate) const MAX_RRPV: u8 = 3;
/// "Long" re-reference interval used at insertion by SRRIP.
pub(crate) const LONG_RRPV: u8 = 2;

/// Shared RRPV bookkeeping for the RRIP family.
#[derive(Clone, Debug)]
pub(crate) struct RrpvTable {
    ways: u16,
    rrpv: Vec<u8>,
}

impl RrpvTable {
    pub(crate) fn new(config: &CacheConfig) -> Self {
        assert!(config.ways <= 32, "the victim search keeps one bit per way in a u32");
        Self { ways: config.ways, rrpv: vec![MAX_RRPV; config.lines() as usize] }
    }

    pub(crate) fn get(&self, set: u32, way: u16) -> u8 {
        self.rrpv[set as usize * self.ways as usize + way as usize]
    }

    pub(crate) fn set(&mut self, set: u32, way: u16, value: u8) {
        debug_assert!(value <= MAX_RRPV);
        self.rrpv[set as usize * self.ways as usize + way as usize] = value;
    }

    /// Standard RRIP victim search: the leftmost way at `MAX_RRPV`, aging
    /// the whole set until one exists. See [`age_to_victim`].
    pub(crate) fn find_victim(&mut self, set: u32) -> u16 {
        let ways = usize::from(self.ways);
        let base = set as usize * ways;
        age_to_victim(&mut self.rrpv[base..base + ways])
    }

    /// Metadata cost: 2 bits per line.
    pub(crate) fn overhead_bits(config: &CacheConfig) -> u64 {
        config.lines() * 2
    }
}

/// RRIP's victim search over one set's RRPV row, in closed form.
///
/// The textbook search ages the whole row by one until some way reaches
/// `MAX_RRPV`, then takes the leftmost such way. That loop runs exactly
/// `MAX_RRPV − m` times for the row's maximum `m`, and the first way to
/// reach `MAX_RRPV` is the lowest way that held `m`. So one pass takes the
/// maximum, one pass adds `MAX_RRPV − m` to every way while collecting
/// the ways that held `m` into a bitmask, and the victim is its lowest
/// bit: the same row and the same way, with no data-dependent loop.
pub(crate) fn age_to_victim(row: &mut [u8]) -> u16 {
    debug_assert!(!row.is_empty() && row.len() <= 32, "one bit per way in a u32");
    let m = row.iter().fold(0, |m, &r| m.max(r));
    let bump = MAX_RRPV - m;
    let mut at_max = 0u32;
    for (w, r) in row.iter_mut().enumerate() {
        at_max |= u32::from(*r == m) << w;
        *r += bump;
    }
    at_max.trailing_zeros() as u16
}

/// Static RRIP: insert at "long" (RRPV 2), promote to 0 on hit, evict at
/// RRPV 3. Scan-resistant but not thrash-resistant.
#[derive(Clone, Debug)]
pub struct Srrip {
    table: RrpvTable,
}

impl Srrip {
    /// Creates SRRIP for the geometry.
    pub fn new(config: &CacheConfig) -> Self {
        Self { table: RrpvTable::new(config) }
    }
}

impl ReplacementPolicy for Srrip {
    fn name(&self) -> String {
        "SRRIP".to_owned()
    }

    fn select_victim(&mut self, set: u32, _access: &Access) -> u16 {
        self.table.find_victim(set)
    }

    fn on_hit(&mut self, set: u32, way: u16, _access: &Access) {
        self.table.set(set, way, 0);
    }

    fn on_fill(&mut self, set: u32, way: u16, _access: &Access) {
        self.table.set(set, way, LONG_RRPV);
    }

    fn overhead_bits(&self, config: &CacheConfig) -> u64 {
        RrpvTable::overhead_bits(config)
    }
}

/// Bimodal RRIP: like SRRIP but inserts at "distant" (RRPV 3) most of the
/// time, and "long" (RRPV 2) with probability 1/32 — thrash-resistant.
#[derive(Clone, Debug)]
pub struct Brrip {
    table: RrpvTable,
    throttle: u32,
}

/// BRRIP inserts at LONG once per this many fills.
const BRRIP_PERIOD: u32 = 32;

impl Brrip {
    /// Creates BRRIP for the geometry.
    pub fn new(config: &CacheConfig) -> Self {
        Self { table: RrpvTable::new(config), throttle: 0 }
    }

    fn insertion_rrpv(&mut self) -> u8 {
        self.throttle = (self.throttle + 1) % BRRIP_PERIOD;
        if self.throttle == 0 {
            LONG_RRPV
        } else {
            MAX_RRPV
        }
    }
}

impl ReplacementPolicy for Brrip {
    fn name(&self) -> String {
        "BRRIP".to_owned()
    }

    fn select_victim(&mut self, set: u32, _access: &Access) -> u16 {
        self.table.find_victim(set)
    }

    fn on_hit(&mut self, set: u32, way: u16, _access: &Access) {
        self.table.set(set, way, 0);
    }

    fn on_fill(&mut self, set: u32, way: u16, _access: &Access) {
        let rrpv = self.insertion_rrpv();
        self.table.set(set, way, rrpv);
    }

    fn overhead_bits(&self, config: &CacheConfig) -> u64 {
        RrpvTable::overhead_bits(config) + 5 // throttle counter
    }
}

/// Which dueling team a set belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum DuelRole {
    LeaderA,
    LeaderB,
    Follower,
}

/// Classic set-dueling constituency assignment: a handful of leader sets
/// per team, everyone else follows the winning team.
pub(crate) fn duel_role(set: u32) -> DuelRole {
    match set % 64 {
        0 => DuelRole::LeaderA,
        33 => DuelRole::LeaderB,
        _ => DuelRole::Follower,
    }
}

/// Dynamic RRIP: set-dueling between SRRIP and BRRIP insertion with a
/// 10-bit PSEL counter (Table I: 8 KB for a 16-way 2 MB cache).
#[derive(Clone, Debug)]
pub struct Drrip {
    table: RrpvTable,
    throttle: u32,
    /// Saturating selector; high = BRRIP is losing (more leader misses).
    psel: i32,
}

/// PSEL saturation bound (10-bit counter centred on zero).
const PSEL_MAX: i32 = 511;

impl Drrip {
    /// Creates DRRIP for the geometry.
    pub fn new(config: &CacheConfig) -> Self {
        Self { table: RrpvTable::new(config), throttle: 0, psel: 0 }
    }

    fn brrip_insertion(&mut self) -> u8 {
        self.throttle = (self.throttle + 1) % BRRIP_PERIOD;
        if self.throttle == 0 {
            LONG_RRPV
        } else {
            MAX_RRPV
        }
    }
}

impl ReplacementPolicy for Drrip {
    fn name(&self) -> String {
        "DRRIP".to_owned()
    }

    fn select_victim(&mut self, set: u32, access: &Access) -> u16 {
        // Leader-set misses steer the selector (writebacks excluded, as in
        // the original proposal's demand-miss accounting).
        if access.kind != AccessKind::Writeback {
            match duel_role(set) {
                DuelRole::LeaderA => self.psel = (self.psel + 1).min(PSEL_MAX),
                DuelRole::LeaderB => self.psel = (self.psel - 1).max(-PSEL_MAX - 1),
                DuelRole::Follower => {}
            }
        }
        self.table.find_victim(set)
    }

    fn on_hit(&mut self, set: u32, way: u16, _access: &Access) {
        self.table.set(set, way, 0);
    }

    fn on_fill(&mut self, set: u32, way: u16, _access: &Access) {
        let use_srrip = match duel_role(set) {
            DuelRole::LeaderA => true,
            DuelRole::LeaderB => false,
            // psel > 0 means SRRIP leaders missed more: follow BRRIP.
            DuelRole::Follower => self.psel <= 0,
        };
        let rrpv = if use_srrip { LONG_RRPV } else { self.brrip_insertion() };
        self.table.set(set, way, rrpv);
    }

    fn overhead_bits(&self, config: &CacheConfig) -> u64 {
        RrpvTable::overhead_bits(config) + 10
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> CacheConfig {
        CacheConfig { sets: 64, ways: 4, latency: 1 }
    }

    fn access(addr: u64) -> Access {
        Access { pc: 0x400, addr, kind: AccessKind::Load, core: 0, seq: 0 }
    }

    #[test]
    fn srrip_evicts_distant_line_first() {
        let mut p = Srrip::new(&cfg());
        for w in 0..4 {
            p.on_fill(0, w, &access(0));
        }
        // Promote three lines; the fourth stays at LONG and must age out first.
        p.on_hit(0, 0, &access(0));
        p.on_hit(0, 1, &access(0));
        p.on_hit(0, 3, &access(0));
        assert_eq!(p.select_victim(0, &access(64)), 2);
    }

    #[test]
    fn srrip_aging_terminates_and_is_uniform() {
        let mut p = Srrip::new(&cfg());
        for w in 0..4 {
            p.on_fill(0, w, &access(0));
            p.on_hit(0, w, &access(0)); // everyone at RRPV 0
        }
        // Victim search must age everyone up to MAX and pick way 0.
        assert_eq!(p.select_victim(0, &access(64)), 0);
        // After aging, the others sit at MAX too.
        assert_eq!(p.table.get(0, 1), MAX_RRPV);
    }

    #[test]
    fn brrip_mostly_inserts_distant() {
        let mut p = Brrip::new(&cfg());
        let mut distant = 0;
        for i in 0..320 {
            let set = (i % 64) as u32;
            p.on_fill(set, 0, &access(0));
            if p.table.get(set, 0) == MAX_RRPV {
                distant += 1;
            }
        }
        assert_eq!(distant, 310, "10 of 320 fills (1/32) insert at LONG");
    }

    #[test]
    fn drrip_followers_switch_with_psel() {
        let mut p = Drrip::new(&cfg());
        // Hammer misses into the SRRIP leader set (set 0) to push PSEL up.
        for _ in 0..100 {
            let _ = p.select_victim(0, &access(0));
        }
        assert!(p.psel > 0);
        // Followers now use BRRIP insertion: overwhelmingly distant.
        let mut distant = 0;
        for _ in 0..64 {
            p.on_fill(5, 1, &access(0));
            if p.table.get(5, 1) == MAX_RRPV {
                distant += 1;
            }
        }
        assert!(distant >= 62);

        // Push PSEL the other way via the BRRIP leader set (set 33).
        for _ in 0..300 {
            let _ = p.select_victim(33, &access(0));
        }
        assert!(p.psel < 0);
        p.on_fill(5, 1, &access(0));
        assert_eq!(p.table.get(5, 1), LONG_RRPV, "followers now insert like SRRIP");
    }

    /// The textbook search [`age_to_victim`] replaces: age the row until
    /// some way reaches `MAX_RRPV`, then take the leftmost such way.
    fn aging_loop_victim(row: &mut [u8]) -> u16 {
        loop {
            if let Some(w) = row.iter().position(|&r| r == MAX_RRPV) {
                return w as u16;
            }
            for r in row.iter_mut() {
                *r += 1;
            }
        }
    }

    #[test]
    fn closed_form_search_matches_the_aging_loop() {
        simrng::prop::check(
            "closed_form_search_matches_the_aging_loop",
            simrng::prop::Config::with_cases(2048),
            |rng| crate::gen_rrpv_row(rng, MAX_RRPV),
            |row| {
                let (mut fast, mut slow) = (row.clone(), row.clone());
                let (victim, expected) = (age_to_victim(&mut fast), aging_loop_victim(&mut slow));
                simrng::prop_assert_eq!(victim, expected, "victim of {:?}", row);
                simrng::prop_assert_eq!(fast, slow, "row after the search of {:?}", row);
                Ok(())
            },
        );
    }

    #[test]
    fn closed_form_search_matches_the_aging_loop_on_every_small_row() {
        // Every row of up to 5 ways over every RRPV value, exhaustively.
        for ways in 1..=5u32 {
            for code in 0..4u32.pow(ways) {
                let row: Vec<u8> = (0..ways).map(|w| (code >> (2 * w) & 3) as u8).collect();
                let (mut fast, mut slow) = (row.clone(), row.clone());
                assert_eq!(age_to_victim(&mut fast), aging_loop_victim(&mut slow), "{row:?}");
                assert_eq!(fast, slow, "{row:?}");
            }
        }
    }

    #[test]
    fn duel_roles_are_sparse() {
        let leaders = (0..2048u32)
            .filter(|&s| duel_role(s) != DuelRole::Follower)
            .count();
        assert_eq!(leaders, 64, "one leader per team per 64-set group");
    }
}
