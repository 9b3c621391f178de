//! Quick ranking sanity check across the headline policies (dev tool;
//! the full evaluation lives in the `experiments` crate).
use cache_sim::{ReplacementPolicy, SingleCoreSystem, SystemConfig, TrueLru};
use policies::{Drrip, Hawkeye, KpcR, Ship, ShipPp};
use rlr::RlrPolicy;

type MakePolicy = Box<dyn Fn() -> Box<dyn ReplacementPolicy>>;

fn main() {
    let cfg = SystemConfig::paper_single_core();
    let mk: Vec<(&str, MakePolicy)> = vec![
        ("LRU", Box::new(|| Box::new(TrueLru::new(&SystemConfig::paper_single_core().llc)))),
        ("DRRIP", Box::new(|| Box::new(Drrip::new(&SystemConfig::paper_single_core().llc)))),
        ("KPC-R", Box::new(|| Box::new(KpcR::new(&SystemConfig::paper_single_core().llc)))),
        ("SHiP", Box::new(|| Box::new(Ship::new(&SystemConfig::paper_single_core().llc)))),
        ("SHiP++", Box::new(|| Box::new(ShipPp::new(&SystemConfig::paper_single_core().llc)))),
        ("Hawkeye", Box::new(|| Box::new(Hawkeye::new(&SystemConfig::paper_single_core().llc)))),
        ("RLR", Box::new(|| Box::new(RlrPolicy::optimized(&SystemConfig::paper_single_core().llc)))),
        ("RLRu", Box::new(|| Box::new(RlrPolicy::unoptimized(&SystemConfig::paper_single_core().llc)))),
    ];
    println!("{:14} {}", "bench", mk.iter().map(|(n,_)| format!("{n:>8}")).collect::<String>());
    for name in ["471.omnetpp", "483.xalancbmk", "435.gromacs", "456.hmmer", "401.bzip2", "450.soplex", "403.gcc", "429.mcf"] {
        let wl = workloads::spec2006(name).unwrap();
        let mut row = format!("{name:14}");
        let mut lru_ipc = 0.0;
        for (i, (_, f)) in mk.iter().enumerate() {
            let mut sys = SingleCoreSystem::new(&cfg, f());
            let mut s = wl.stream();
            sys.warm_up(&mut s, 2_000_000);
            let st = sys.run(s, 10_000_000);
            if i == 0 { lru_ipc = st.ipc(); }
            row += &format!("{:>8.2}", (st.ipc()/lru_ipc - 1.0) * 100.0);
        }
        println!("{row}");
    }
    println!("(IPC speedup % over LRU)");
}
