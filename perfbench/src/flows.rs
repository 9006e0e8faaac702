//! Traced calls into the program shared by the workloads: placement with
//! timing and area, lowering, and simulation.

use crate::reference::Memory;
use crate::trace::{count, span};
use graphiti_bench::eval::CP_TARGET_NS;
use graphiti_ir::{ExprHigh, Value};
use graphiti_sim::{
    circuit_area, compile_cache_clear, elastic_clock_period, place_buffers_targeted, precompile,
    simulate, Area, SimConfig,
};
use std::collections::BTreeMap;

/// A kernel graph after buffer placement, with its timing and area.
pub struct Placed {
    /// The placed graph.
    pub graph: ExprHigh,
    /// Clock period (ns).
    pub cp: f64,
    /// LUT/FF/DSP.
    pub area: Area,
}

/// Places buffers, then models the clock period and area.
pub fn place(g: &ExprHigh, label: &str) -> Result<Placed, String> {
    let (graph, _) = span("sim.place", label, || place_buffers_targeted(g, CP_TARGET_NS));
    let cp = span("sim.sta", label, || elastic_clock_period(&graph))
        .map_err(|e| format!("{label}: clock period: {e}"))?;
    let area = span("sim.area", label, || circuit_area(&graph));
    Ok(Placed { graph, cp, area })
}

/// Lowers a placed graph for the compiled backend, from a cleared cache.
pub fn lower(g: &ExprHigh, label: &str) -> Result<(), String> {
    compile_cache_clear();
    span("sim.precompile", label, || precompile(g, &SimConfig::default()))
        .map(|_| ())
        .map_err(|e| format!("{label}: precompile: {e}"))
}

/// The outcome of simulating a program's kernels in sequence.
pub struct SimRun {
    /// Total cycles.
    pub cycles: u64,
    /// Total component firings.
    pub firings: u64,
    /// Final memory.
    pub memory: Memory,
    /// Stalled and starved node-cycles, and the sum of the cause totals
    /// (attributed runs only; zero otherwise).
    pub stalled: u64,
    /// See `stalled`.
    pub starved: u64,
    /// See `stalled`.
    pub cause_sum: u64,
}

/// Simulates `graphs` in sequence against shared memory with
/// `SimConfig::default()`, or with stall attribution (`attribute_stalls`
/// and `telemetry`) when `attributed`.
pub fn run(
    graphs: &[&ExprHigh],
    initial: Memory,
    attributed: bool,
    label: &str,
) -> Result<SimRun, String> {
    let feeds: BTreeMap<String, Vec<Value>> =
        [("start".to_string(), vec![Value::Unit])].into_iter().collect();
    let mut out =
        SimRun { cycles: 0, firings: 0, memory: initial, stalled: 0, starved: 0, cause_sum: 0 };
    for g in graphs {
        let cfg = if attributed {
            SimConfig { attribute_stalls: true, telemetry: true, ..SimConfig::default() }
        } else {
            SimConfig::default()
        };
        let name = if attributed { "sim.simulate_attr" } else { "sim.simulate" };
        let mem = std::mem::take(&mut out.memory);
        let r = span(name, label, || simulate(g, &feeds, mem, cfg))
            .map_err(|e| format!("{label}: simulate: {e}"))?;
        out.cycles += r.cycles;
        out.firings += r.firings;
        out.memory = r.memory;
        if let Some(s) = r.stalls {
            out.stalled += s.stall_cycles;
            out.starved += s.starved_cycles;
            out.cause_sum += s.cause_totals().values().sum::<u64>();
        }
    }
    if attributed {
        count("sim.stall_cycles", label, out.stalled);
        count("sim.starved_cycles", label, out.starved);
    } else {
        count("sim.cycles", label, out.cycles);
        count("sim.firings", label, out.firings);
    }
    Ok(out)
}

/// Checks the properties every attributed run must keep against the plain
/// run of the same circuit: same cycles and memory, and cause totals that
/// sum to stalled + starved.
pub fn attribution_consistent(plain: &SimRun, attr: &SimRun) -> bool {
    attr.cycles == plain.cycles
        && attr.memory == plain.memory
        && attr.cause_sum == attr.stalled + attr.starved
}
