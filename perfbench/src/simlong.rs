//! `simulate-long`: a few long simulations, where the simulator core and
//! the stall walkers do nearly all the work.
//!
//! Set-up compiles, optimises (GRAPHITI flow, unchecked) and places the
//! nine kernels at about 4–40× Table 2 work. A round then simulates each
//! circuit twice with `SimConfig::default()`: once plain, once with stall
//! attribution. One operation is one simulation; `op_ms.p50` is the median
//! wall time of a whole round, so every circuit counts by its share of it.

use crate::flows::{self, Placed, SimRun};
use crate::inputs::{self, Size};
use crate::reference::{self, Memory};
use crate::trace::{count, span};
use crate::{
    finish_trace, median, probe, quantile, run_rounds, run_traced, timed_setup, Report, Tally,
};
use graphiti_bench::eval::geomean;
use graphiti_core::{optimize_loop, PipelineOptions};
use graphiti_frontend::compile;
use graphiti_ir::ExprHigh;
use std::time::Instant;

/// One kernel program ready to simulate.
struct Circuit {
    name: &'static str,
    placed: Vec<Placed>,
    initial: Memory,
    expected: Memory,
    refused: bool,
}

fn setup(seed: u64) -> Result<Vec<Circuit>, String> {
    let inputs = span("frontend.parse", "long", || inputs::load_all(Size::Long, seed))?;
    inputs
        .iter()
        .map(|input| {
            let name = input.kernel.name;
            let compiled = span("frontend.compile", name, || compile(&input.program))
                .map_err(|e| format!("{name}: {e}"))?;
            count(
                "frontend.nodes",
                name,
                compiled.kernels.iter().map(|k| k.graph.node_count() as u64).sum(),
            );
            let mut refused = false;
            let mut placed = Vec::new();
            for k in &compiled.kernels {
                let g = match k.ooo_tags {
                    Some(tags) => {
                        let opts = PipelineOptions { tags, ..Default::default() };
                        let (g, rep) = span("pipeline.optimize_loop", name, || {
                            optimize_loop(&k.graph, &k.inner_init, &opts)
                        })
                        .map_err(|e| format!("{name}: {e}"))?;
                        count("pipeline.rewrites", name, rep.rewrites as u64);
                        refused |= !rep.transformed;
                        g
                    }
                    None => k.graph.clone(),
                };
                placed.push(flows::place(&g, name)?);
            }
            Ok(Circuit {
                name,
                placed,
                initial: input.program.arrays.clone(),
                expected: reference::expected(input),
                refused,
            })
        })
        .collect()
}

/// What one round measured.
struct Round {
    plain_ms: Vec<f64>,
    attr_ms: Vec<f64>,
    cycles: Vec<u64>,
}

fn round(circuits: &[Circuit], tally: &mut Tally) -> Result<Round, String> {
    let mut r = Round { plain_ms: Vec::new(), attr_ms: Vec::new(), cycles: Vec::new() };
    for c in circuits {
        let graphs: Vec<&ExprHigh> = c.placed.iter().map(|p| &p.graph).collect();
        let timed = |attributed| -> Result<(SimRun, f64), String> {
            let t = Instant::now();
            let run = flows::run(&graphs, c.initial.clone(), attributed, c.name)?;
            Ok((run, t.elapsed().as_secs_f64() * 1e3))
        };
        let (plain, plain_ms) = timed(false)?;
        tally.op(plain.memory == c.expected, || {
            format!("{}: memory differs from the reference", c.name)
        });
        let (attr, attr_ms) = timed(true)?;
        tally.op(flows::attribution_consistent(&plain, &attr), || {
            format!("{}: attributed run disagrees with the plain run", c.name)
        });
        r.plain_ms.push(plain_ms);
        r.attr_ms.push(attr_ms);
        r.cycles.push(plain.cycles);
    }
    Ok(r)
}

/// Runs `simulate-long`.
pub fn run(seed: u64, seconds: f64, traced: bool) -> Result<Report, String> {
    let (circuits, mut setup_times) = timed_setup(traced, || setup(seed))?;
    let setups = setup_times.len() as u64;
    let mut tally = Tally::default();
    for c in &circuits {
        tally.require(c.refused == (c.name == "bicg"), || format!("{}: wrong refusal", c.name));
    }
    let mut rounds = Vec::new();
    let budget = if traced { seconds / 2.0 } else { seconds };
    let walls = run_rounds(
        budget,
        &mut setup_times,
        || setup(seed),
        || {
            rounds.push(round(&circuits, &mut tally)?);
            Ok(())
        },
    )?;
    let first = &rounds[0];
    for r in &rounds[1..] {
        tally.require(r.cycles == first.cycles, || "cycle counts differ between rounds".into());
    }
    let mut report = Report::new(median(setup_times));
    let mut plain: Vec<f64> = rounds.iter().flat_map(|r| r.plain_ms.clone()).collect();
    let mut attr: Vec<f64> = rounds.iter().flat_map(|r| r.attr_ms.clone()).collect();
    report.op_ms = walls.iter().map(|w| w * 1e3).collect();
    let cycles: u64 = first.cycles.iter().sum();
    let plain_s: f64 = plain.iter().sum::<f64>() / 1e3;
    report.detail.push(("sim_ms.p50", quantile(&mut plain, 0.5), "ms"));
    if plain.len() >= 100 {
        report.detail.push(("sim_ms.p90", quantile(&mut plain, 0.9), "ms"));
    }
    report.detail.push(("attr_sim_ms.p50", quantile(&mut attr, 0.5), "ms"));
    report.detail.push((
        "sim_cycles_per_s",
        cycles as f64 * rounds.len() as f64 / plain_s,
        "cycles/s",
    ));
    report.design = (
        geomean(
            circuits
                .iter()
                .zip(&first.cycles)
                .map(|(c, &cy)| cy as f64 * c.placed.iter().map(|p| p.cp).fold(0.0, f64::max)),
        ),
        circuits.iter().flat_map(|c| &c.placed).map(|p| p.area.lut).sum(),
        circuits.iter().flat_map(|c| &c.placed).map(|p| p.area.ff).sum(),
    );
    for (i, c) in circuits.iter().enumerate() {
        let ms = |f: fn(&Round) -> &Vec<f64>| median(rounds.iter().map(|r| f(r)[i]).collect());
        println!(
            "{:<12} cycles {:>8}  plain {:>8.2} ms  attributed {:>8.2} ms",
            c.name,
            first.cycles[i],
            ms(|r| &r.plain_ms),
            ms(|r| &r.attr_ms)
        );
    }
    if traced {
        let traced_walls = run_traced(walls.len(), || round(&circuits, &mut tally).map(|_| ()))?;
        // The compiled backend's cold lowering of each circuit.
        probe(|| {
            for c in &circuits {
                for p in &c.placed {
                    flows::lower(&p.graph, c.name)?;
                }
            }
            Ok(())
        })?;
        report.layers = finish_trace("simulate-long", seed, setups, &walls, &traced_walls)?;
    }
    report.tally = tally;
    Ok(report)
}
