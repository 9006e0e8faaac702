//! Per-layer metrics derived from the traced run's spans and counts.
//!
//! Spans and counts carry an operation id: [`SETUP`] for set-up (repeated
//! `setups` times), `1..=rounds` for the timed rounds, and [`PROBE`] for
//! work done once per run to measure one round's worth of a layer that the
//! timed calls hide (for example plain re-simulations next to the suite's
//! attributed ones). Every time and count is reported per round plus one
//! set-up, so a layer that only runs in set-up still shows.

use crate::trace::Span;

/// Operation id of set-up work.
pub const SETUP: u64 = 0;
/// Operation id of once-per-run probes.
pub const PROBE: u64 = u64::MAX;

/// The per-layer metric names, in output order, with their units.
pub const METRICS: [(&str, &str); 35] = [
    ("frontend.parse_ms", "ms"),
    ("frontend.codegen_ms", "ms"),
    ("frontend.interp_ms", "ms"),
    ("frontend.nodes", "count"),
    ("pipeline.optimize_ms", "ms"),
    ("pipeline.dfooo_ms", "ms"),
    ("pipeline.rewrites", "count"),
    ("pipeline.deferred_ms", "ms"),
    ("pipeline.obligations", "count"),
    ("pool.speedup", "ratio"),
    ("sem.denote_ms", "ms"),
    ("sem.check_ms", "ms"),
    ("sem.check_ms.mux-combine", "ms"),
    ("sem.check_ms.branch-combine", "ms"),
    ("sem.check_ms.loop-ooo", "ms"),
    ("sem.check_ms.op-to-pure", "ms"),
    ("sem.visited_states", "count"),
    ("sem.closures", "count"),
    ("sem.states_per_s", "1/s"),
    ("sem.exhaustive", "count"),
    ("sem.bounded", "count"),
    ("sem.vacuous", "count"),
    ("sim.place_ms", "ms"),
    ("sim.sta_ms", "ms"),
    ("sim.lower_ms", "ms"),
    ("sim.simulate_ms", "ms"),
    ("sim.ns_per_firing", "ns"),
    ("sim.cycles", "count"),
    ("sim.firings", "count"),
    ("sim.attr_ms", "ms"),
    ("sim.stall_cycles", "count"),
    ("sim.starved_cycles", "count"),
    ("staticsched.run_ms", "ms"),
    ("staticsched.cycles", "count"),
    ("trace.overhead_s", "s"),
];

/// Everything recorded by a traced run.
pub struct Recorded<'a> {
    /// The spans.
    pub spans: &'a [Span],
    /// Self time of each span (ns), aligned with `spans`.
    pub self_ns: &'a [u64],
    /// The counts: name, label, operation id, value.
    pub counts: &'a [(&'static str, String, u64, u64)],
    /// Set-up repetitions.
    pub setups: u64,
    /// Timed rounds traced.
    pub rounds: u64,
    /// Traced total − untraced total over the same rounds (s).
    pub overhead_s: f64,
}

impl Recorded<'_> {
    fn weight(&self, op: u64) -> f64 {
        match op {
            SETUP => 1.0 / self.setups.max(1) as f64,
            PROBE => 1.0,
            _ => 1.0 / self.rounds.max(1) as f64,
        }
    }

    /// Self time (ms) of the spans named `name` (and labelled `label`, if
    /// given), per round plus one set-up.
    fn ms(&self, name: &str, label: Option<&str>) -> f64 {
        self.spans
            .iter()
            .zip(self.self_ns)
            .filter(|(s, _)| s.name == name && label.is_none_or(|l| s.label == l))
            .map(|(s, &ns)| ns as f64 * self.weight(s.op))
            .sum::<f64>()
            / 1e6
    }

    /// Like [`Self::ms`] for a count. Each kind of operation is summed as an
    /// integer and divided once, so a count that repeats exactly in every
    /// round reads exactly the same whatever the number of rounds.
    fn count(&self, name: &str) -> f64 {
        let (mut setup, mut probe, mut rounds) = (0u64, 0u64, 0u64);
        for c in self.counts.iter().filter(|c| c.0 == name) {
            match c.2 {
                SETUP => setup += c.3,
                PROBE => probe += c.3,
                _ => rounds += c.3,
            }
        }
        setup as f64 / self.setups.max(1) as f64
            + probe as f64
            + rounds as f64 / self.rounds.max(1) as f64
    }

    /// Serial sum of the pooled jobs' durations ÷ wall time of the pooled
    /// sections; 0 when the run pooled nothing.
    fn speedup(&self) -> f64 {
        let total = |name: &str| -> u64 {
            self.spans.iter().filter(|s| s.name == name).map(Span::dur).sum()
        };
        let wall = total("pool.map");
        if wall == 0 {
            0.0
        } else {
            total("pool.job") as f64 / wall as f64
        }
    }

    /// Every metric of [`METRICS`], in order.
    pub fn metrics(&self) -> Vec<(&'static str, f64, &'static str)> {
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        METRICS
            .iter()
            .map(|&(name, unit)| {
                let v = match name {
                    "frontend.parse_ms" => self.ms("frontend.parse", None),
                    "frontend.codegen_ms" => self.ms("frontend.compile", None),
                    "frontend.interp_ms" => self.ms("frontend.run_program", None),
                    "pipeline.optimize_ms" => self.ms("pipeline.optimize_loop", None),
                    "pipeline.dfooo_ms" => self.ms("pipeline.dfooo_loop", None),
                    "pipeline.deferred_ms" => self.ms("pipeline.optimize_loop_deferred", None),
                    "pool.speedup" => self.speedup(),
                    "sem.denote_ms" => self.ms("sem.denote", None),
                    "sem.check_ms" => self.ms("sem.check", None),
                    "sem.states_per_s" => {
                        ratio(self.count("sem.visited_states"), self.ms("sem.check", None) / 1e3)
                    }
                    "sim.place_ms" => self.ms("sim.place", None),
                    "sim.sta_ms" => self.ms("sim.sta", None) + self.ms("sim.area", None),
                    "sim.lower_ms" => self.ms("sim.precompile", None),
                    "sim.simulate_ms" => self.ms("sim.simulate", None),
                    "sim.ns_per_firing" => {
                        ratio(self.ms("sim.simulate", None) * 1e6, self.count("sim.firings"))
                    }
                    "sim.attr_ms" => {
                        self.ms("sim.simulate_attr", None) - self.ms("sim.simulate", None)
                    }
                    "staticsched.run_ms" => self.ms("staticsched.run_static", None),
                    "trace.overhead_s" => self.overhead_s,
                    n => match n.strip_prefix("sem.check_ms.") {
                        Some(rw) => self.ms("sem.check", Some(rw)),
                        None => self.count(n),
                    },
                };
                (name, v, unit)
            })
            .collect()
    }
}
