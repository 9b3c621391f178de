//! The benchmark's declared workloads and metrics. `BENCHMARK.json` at the
//! repository root must list exactly these (a test holds the two together),
//! and the result line prints exactly these: every end-to-end metric on an
//! untraced run, every per-layer metric on a traced run.

/// One declared metric.
#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    /// Metric name (`[A-Za-z0-9_.-]+`, starting with a letter or digit).
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name, unit, better }
}

/// The workloads, in the order the README describes them.
pub const WORKLOADS: [&str; 5] = [
    "sim_1core",
    "sim_4core_event",
    "llc_replay",
    "rl_train",
    "serving_tiers",
];

/// Metrics a user of the simulator sees, defined on every workload. Times
/// are host seconds scaled to the reference host speed (see `calib`).
/// `work_ref_mps` counts each workload's own unit of work: simulated
/// instructions (sim_*), replayed LLC records (llc_replay), agent decisions
/// (rl_train), object requests plus tenant accesses (serving_tiers).
pub const END_TO_END: [MetricDef; 4] = [
    m("setup_s", "s", "lower"),
    m("wall_ref_s", "s", "lower"),
    m("work_ref_mps", "M/s", "higher"),
    m("peak_rss_mb", "MiB", "lower"),
];

/// Per-layer metrics of the traced run. A layer a workload does not load
/// reads 0 on that workload.
pub const PER_LAYER: [MetricDef; 62] = [
    // workloads (stream generators)
    m("workloads.ns_per_entry", "ns", "lower"),
    m("workloads.entries", "count", "higher"),
    m("sim.workloads_share_pct", "%", "lower"),
    // cache_sim::hierarchy (L1I/L1D/L2 and prefetchers)
    m("hierarchy.ns_per_request", "ns", "lower"),
    m("hierarchy.l1d_hit_pct", "%", "higher"),
    m("hierarchy.l2_hit_pct", "%", "higher"),
    m("hierarchy.l2_requests", "count", "lower"),
    m("hierarchy.llc_prefetches", "count", "lower"),
    m("sim.hierarchy_share_pct", "%", "lower"),
    // cache_sim::cache + policies + rlr (probe, fill, victim scan)
    m("llc.lru.ns_per_access", "ns", "lower"),
    m("llc.srrip.ns_per_access", "ns", "lower"),
    m("llc.drrip.ns_per_access", "ns", "lower"),
    m("llc.shippp.ns_per_access", "ns", "lower"),
    m("llc.hawkeye.ns_per_access", "ns", "lower"),
    m("llc.rlr.ns_per_access", "ns", "lower"),
    m("llc.rlr_over_lru_ns", "ns", "lower"),
    m("llc.accesses", "count", "higher"),
    m("llc.evictions", "count", "lower"),
    m("llc.writebacks", "count", "lower"),
    m("sim.llc_share_pct", "%", "lower"),
    // trace_io (RLT1 decode)
    m("trace_io.decode_ns_per_record", "ns", "lower"),
    m("trace_io.bytes_per_record", "B", "lower"),
    m("trace_io.blocks", "count", "lower"),
    m("trace_io.stream_tax_pct", "%", "lower"),
    // cache_sim::timing / event / dram
    m("timing.event_ns_per_instr", "ns", "lower"),
    m("sim.fetch_timing_share_pct", "%", "lower"),
    m("dram.row_hit_pct", "%", "higher"),
    m("sim.cycles", "count", "lower"),
    // cache_sim::system (multicore scheduler)
    m("system.ns_per_instr", "ns", "lower"),
    m("system.useful_instr_pct", "%", "higher"),
    // experiments::runner + checkpoint
    m("runner.cells", "count", "higher"),
    m("runner.retries", "count", "lower"),
    m("checkpoint.store_ms", "ms", "lower"),
    m("checkpoint.load_ms", "ms", "lower"),
    m("checkpoint.bytes", "B", "lower"),
    // rl (DQN agent, LLC model, Belady oracle)
    m("rl.model_ns_per_record", "ns", "lower"),
    m("rl.infer_ns_per_decision", "ns", "lower"),
    m("rl.learn_ns_per_update", "ns", "lower"),
    m("rl.decisions", "count", "higher"),
    m("rl.updates", "count", "higher"),
    // objcache
    m("objcache.lru.ns_per_request", "ns", "lower"),
    m("objcache.slru.ns_per_request", "ns", "lower"),
    m("objcache.gdsf.ns_per_request", "ns", "lower"),
    m("objcache.rlr.ns_per_request", "ns", "lower"),
    m("objcache.admit_pct", "%", "higher"),
    // tenancy
    m("tenancy.bare.ns_per_access", "ns", "lower"),
    m("tenancy.shared.ns_per_access", "ns", "lower"),
    m("tenancy.way_partition.ns_per_access", "ns", "lower"),
    m("tenancy.learned_priority.ns_per_access", "ns", "lower"),
    m("tenancy.overhead_pct", "%", "lower"),
    // Per-workload throughput in the unit each workload is known by.
    m("sim_mips", "M/s", "higher"),
    m("llc_maccps", "M/s", "higher"),
    m("train_kdps", "k/s", "higher"),
    m("obj_mreqps", "M/s", "higher"),
    m("tenant_maccps", "M/s", "higher"),
    // Simulated model outputs (synthetic, unvalidated model; no error figure).
    m("model.rlr_ipc_speedup_pct", "%", "higher"),
    m("model.rlr_hit_gain_pp", "pp", "higher"),
    m("model.belady_agree_pct", "%", "higher"),
    m("model.obj_miss_byte_ratio", "ratio", "lower"),
    m("model.tenant_weighted_miss_pct", "%", "lower"),
    // The host: the untraced pass's raw time and the calibration kernel's.
    m("host.wall_s", "s", "lower"),
    m("host.kernel_ms", "ms", "lower"),
];

/// Tracing cost of the traced run, kept with the per-layer metrics.
pub const TRACE_OVERHEAD: MetricDef = m("trace.overhead_pct", "%", "lower");

/// Every per-layer name printed on a traced run, in order.
pub fn per_layer_names() -> Vec<&'static str> {
    PER_LAYER
        .iter()
        .chain([&TRACE_OVERHEAD])
        .map(|d| d.name)
        .collect()
}

/// Looks up a declared metric by name.
pub fn def(name: &str) -> Option<MetricDef> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .chain([&TRACE_OVERHEAD])
        .find(|d| d.name == name)
        .copied()
}

/// Whether `name` is a valid metric or workload name: 1 to 64 characters
/// from `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    let b = name.as_bytes();
    !b.is_empty()
        && b.len() <= 64
        && b[0].is_ascii_alphanumeric()
        && b.iter()
            .all(|&c| c.is_ascii_alphanumeric() || matches!(c, b'_' | b'.' | b'-'))
}

/// Whether `unit` is a valid unit: 1 to 16 characters from
/// `[A-Za-z0-9_/%.-]`.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .bytes()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, b'_' | b'/' | b'%' | b'.' | b'-'))
}

/// Metric values gathered during a run, kept in insertion order.
#[derive(Clone, Debug, Default)]
pub struct Metrics {
    values: Vec<(&'static str, f64)>,
}

impl Metrics {
    /// Records (or overwrites) a declared metric.
    ///
    /// # Panics
    ///
    /// Panics on an undeclared name: every printed name must be in
    /// `BENCHMARK.json`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(def(name).is_some(), "metric `{name}` is not declared");
        match self.values.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.values.push((name, value)),
        }
    }

    /// The value of `name`, if recorded.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn declared_names_and_units_are_valid_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        let all = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .chain([&TRACE_OVERHEAD]);
        for d in all {
            assert!(valid_name(d.name), "{}", d.name);
            assert!(valid_unit(d.unit), "{}", d.unit);
            assert!(matches!(d.better, "lower" | "higher"), "{}", d.name);
            assert!(seen.insert(d.name), "duplicate metric {}", d.name);
        }
        for w in WORKLOADS {
            assert!(valid_name(w) && seen.insert(w), "{w}");
        }
        assert!(END_TO_END
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s" && d.better == "lower"));
    }

    #[test]
    fn name_validation_follows_the_grammar() {
        for good in ["wall_s", "llc.rlr.ns_per_access", "sim-1", "9lives"] {
            assert!(valid_name(good), "{good}");
        }
        for bad in ["", "_x", ".x", "has space", "slash/x", "ü", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad}");
        }
        assert!(valid_unit("M/s") && valid_unit("%") && !valid_unit("m s") && !valid_unit(""));
    }

    #[test]
    #[should_panic(expected = "not declared")]
    fn undeclared_metric_is_refused() {
        Metrics::default().set("made_up", 1.0);
    }
}
