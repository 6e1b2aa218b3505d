//! Metric declarations, the result line, and the output digest.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics of an untraced run (name, unit).
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("ops_per_s", "op/s"),
    ("op_p50_ms", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// Systems of the query-mix workload, in the order each query visits them.
pub const SYSTEMS: [&str; 11] = [
    "flood_timed",
    "walk_timed",
    "ring_timed",
    "hybrid_timed",
    "dht_timed",
    "flood_queued",
    "walk_queued",
    "synopsis",
    "gia",
    "qrp",
    "advertise",
];

macro_rules! per_system {
    ($($sys:literal),*) => {
        [$(
            (concat!("search.", $sys, ".busy_s"), "s"),
            (concat!("search.", $sys, ".queries_per_s"), "1/s"),
            (concat!("search.", $sys, ".messages"), "count"),
        )*]
    };
}

const SEARCH_SYSTEMS: [(&str, &str); 33] = per_system!(
    "flood_timed",
    "walk_timed",
    "ring_timed",
    "hybrid_timed",
    "dht_timed",
    "flood_queued",
    "walk_queued",
    "synopsis",
    "gia",
    "qrp",
    "advertise"
);

const LAYERS: &[(&str, &str)] = &[
    ("op.p90_ms", "ms"),
    ("op.timed", "count"),
    ("overlay.topology.build_s", "s"),
    ("overlay.placement.generate_s", "s"),
    ("overlay.replicate.apply_s", "s"),
    ("overlay.replicate.copies", "count"),
    ("overlay.sim.sweep_clean_s", "s"),
    ("overlay.sim.sweep_repl_s", "s"),
    ("overlay.sim.sweep_faulty_s", "s"),
    ("overlay.sim.trials", "count"),
    ("overlay.sim.messages", "count"),
    ("overlay.sim.trials_per_s", "1/s"),
    ("faults.plan_build_s", "s"),
    ("faults.freeze_s", "s"),
    ("faults.capacity_build_s", "s"),
    ("faults.dropped", "count"),
    ("faults.dead_targets", "count"),
    ("faults.dead_sources", "count"),
    ("faults.retries", "count"),
    ("faults.timeouts", "count"),
    ("overlay.repair.step_s", "s"),
    ("overlay.repair.probes", "count"),
    ("overlay.repair.added", "count"),
    ("overlay.repair.pruned", "count"),
    ("overlay.repair.added_per_probe", "ratio"),
    ("dht.ring_build_s", "s"),
    ("dht.index_publish_s", "s"),
    ("dht.sync_s", "s"),
    ("dht.departs", "count"),
    ("dht.rejoins", "count"),
    ("dht.sync_messages", "count"),
    ("dht.maintain_s", "s"),
    ("dht.maintain_messages", "count"),
    ("dht.stale_entries", "count"),
    ("dht.rereplicate_s", "s"),
    ("dht.rereplicate_messages", "count"),
    ("dht.probe_s", "s"),
    ("dht.lookup_ok_ratio", "ratio"),
    ("dht.stale_misses", "count"),
    ("search.world_s", "s"),
    ("search.queries_s", "s"),
    ("search.build_s", "s"),
    ("overlay.event.delivered", "count"),
    ("vtime.deadline_misses", "count"),
    ("overlay.overload.enqueued", "count"),
    ("overlay.overload.served", "count"),
    ("overlay.overload.shed", "count"),
    ("overlay.overload.admission_rejected", "count"),
    ("overlay.overload.served_ratio", "ratio"),
    ("xpar.nproc", "count"),
    ("xpar.width", "count"),
    ("xpar.cpu_util", "ratio"),
    ("xpar.idle_s", "s"),
    ("tracegen.vocab_s", "s"),
    ("tracegen.crawl_s", "s"),
    ("tracegen.itunes_s", "s"),
    ("tracegen.queries_s", "s"),
    ("tracegen.records", "count"),
    ("tracegen.records_per_s", "1/s"),
    ("analysis.replication_s", "s"),
    ("analysis.annotations_s", "s"),
    ("analysis.file_terms_s", "s"),
    ("analysis.intervals_s", "s"),
    ("analysis.transient_s", "s"),
    ("analysis.stability_s", "s"),
    ("analysis.mismatch_s", "s"),
    ("analysis.queries_indexed", "count"),
    ("analysis.dict_terms", "count"),
    ("obs.trace_overhead", "ratio"),
    ("obs.coverage", "ratio"),
    ("overlay.sim.share", "ratio"),
    ("overlay.repair.share", "ratio"),
    ("dht.share", "ratio"),
    ("faults.share", "ratio"),
    ("search.share", "ratio"),
    ("tracegen.share", "ratio"),
    ("analysis.share", "ratio"),
    ("harness.share", "ratio"),
];

/// Every per-layer metric of a traced run (name, unit).
pub const PER_LAYER: [(&str, &str); LAYERS.len() + SEARCH_SYSTEMS.len()] = {
    let mut all = [("", ""); LAYERS.len() + SEARCH_SYSTEMS.len()];
    let mut i = 0;
    while i < LAYERS.len() {
        all[i] = LAYERS[i];
        i += 1;
    }
    let mut j = 0;
    while j < SEARCH_SYSTEMS.len() {
        all[i + j] = SEARCH_SYSTEMS[j];
        j += 1;
    }
    all
};

/// Metric values of one run, keyed by name.
#[derive(Debug, Default)]
pub struct Metrics {
    values: BTreeMap<String, (f64, &'static str)>,
}

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        self.values.insert(name.to_string(), (value, unit));
    }

    /// Records `layer`'s share of traced op wall time.
    pub fn set_share(&mut self, layer: &str, share: f64) {
        self.set(&format!("{layer}.share"), share, "ratio");
    }

    /// The value of `name`, 0 when unset.
    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).map_or(0.0, |v| v.0)
    }

    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.values.keys().map(String::as_str)
    }

    /// The result line: `correct`, `attempted`, `failed` and `metrics`.
    pub fn result_json(&self, correct: bool, attempted: u64, failed: u64) -> String {
        let mut s = format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
        );
        for (k, (name, (value, unit))) in self.values.iter().enumerate() {
            let sep = if k == 0 { "" } else { ", " };
            let v = if value.is_finite() { *value } else { 0.0 };
            let _ = write!(
                s,
                "{sep}\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
            );
        }
        s.push_str("}}");
        s
    }
}

/// FNV-1a over 64-bit words: a digest of a run's outputs.
#[derive(Debug, Clone)]
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    pub fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}
