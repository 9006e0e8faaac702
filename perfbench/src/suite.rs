//! `paper-suite`: what regenerating the paper's tables costs.
//!
//! One round is one `evaluate_suite` pass over the nine kernels at Table 2
//! sizes: all four flows (DF-IO, GRAPHITI, DF-OoO, Vericert) with
//! placement, timing, area and attributed simulation. One operation is one
//! (kernel, flow) result. DF-OoO on bicg is recorded, not counted: it is the
//! unverified baseline that miscompiles there.
//!
//! `evaluate_suite` is one call, so the traced run replays its flows from
//! the public calls it makes (same pool, same jobs) with a span around
//! each, and checks the replay's figures against the untraced passes.

use crate::flows::{self, Placed};
use crate::inputs::{self, Input, Size};
use crate::reference::{self, Memory};
use crate::trace::{self, count, span, within};
use crate::{
    finish_trace, median, probe, quantile, run_rounds, run_traced, timed_setup, Report, Tally,
};
use graphiti_bench::eval::geomean;
use graphiti_bench::{evaluate_suite, BenchResult, Flow};
use graphiti_core::{dfooo_loop, optimize_loop, PipelineOptions};
use graphiti_frontend::{compile, run_program, Program};
use graphiti_ir::ExprHigh;
use graphiti_static::run_static;

const FLOWS: [Flow; 4] = [Flow::DfIo, Flow::Graphiti, Flow::DfOoo, Flow::Vericert];

/// The figures of one (kernel, flow) result that both paths produce.
#[derive(Debug, Clone, PartialEq)]
struct Cell {
    cycles: u64,
    cp: f64,
    lut: u64,
    ff: u64,
    correct: bool,
}

/// Whether a (kernel, flow) result counts as an operation.
fn counted(kernel: &str, flow: Flow) -> bool {
    !(kernel == "bicg" && flow == Flow::DfOoo)
}

/// GRAPHITI must transform every marked kernel whose body is pure and
/// refuse bicg, whose body stores.
fn refusal_expected(kernel: &str) -> bool {
    kernel == "bicg"
}

struct Setup {
    inputs: Vec<Input>,
    expected: Vec<Memory>,
    programs: Vec<Program>,
}

fn setup(seed: u64) -> Result<Setup, String> {
    let inputs = span("frontend.parse", "suite", || inputs::load_all(Size::Table2, seed))?;
    let expected = inputs.iter().map(reference::expected).collect();
    let programs = inputs.iter().map(|i| i.program.clone()).collect();
    Ok(Setup { inputs, expected, programs })
}

/// Design figures of the GRAPHITI flow: geomean of cycles × clock period,
/// summed LUTs and FFs.
fn design(cells: &[[Cell; 4]]) -> (f64, u64, u64) {
    let graphiti = || cells.iter().map(|c| &c[1]);
    (
        geomean(graphiti().map(|g| g.cycles as f64 * g.cp)),
        graphiti().map(|g| g.lut).sum(),
        graphiti().map(|g| g.ff).sum(),
    )
}

/// Counts the operations of one pass's results. `trusted[b]` says whether
/// the memory the cells were checked against is right for kernel `b`.
fn tally_pass(
    s: &Setup,
    cells: &[[Cell; 4]],
    refused: &[bool],
    trusted: &[bool],
    tally: &mut Tally,
) {
    for (b, input) in s.inputs.iter().enumerate() {
        let name = input.kernel.name;
        for (f, flow) in FLOWS.iter().enumerate() {
            if !counted(name, *flow) {
                continue;
            }
            let mut ok = cells[b][f].correct && trusted[b];
            if *flow == Flow::Graphiti {
                ok &= refused[b] == refusal_expected(name);
            }
            tally.op(ok, || format!("{name}/{flow}: incorrect or wrongly refused"));
        }
    }
}

fn cells_of(results: &[BenchResult]) -> Vec<[Cell; 4]> {
    results
        .iter()
        .map(|r| {
            FLOWS.map(|f| {
                let m = &r.flows[&f];
                // Attributed flows: cause totals must sum to stalled + starved.
                let causes_sum = m.stalls.as_ref().is_none_or(|st| {
                    st.causes.values().sum::<u64>() == st.stall_cycles + st.starved_cycles
                });
                Cell {
                    cycles: m.cycles,
                    cp: m.clock_period_ns,
                    lut: m.lut,
                    ff: m.ff,
                    correct: m.correct && causes_sum,
                }
            })
        })
        .collect()
}

/// One (kernel, flow) job of the replayed pass.
struct Job {
    cell: Cell,
    refused: bool,
    /// The simulated graphs (dataflow flows), kept for the probe.
    graphs: Vec<ExprHigh>,
}

fn dataflow(
    graphs: Vec<ExprHigh>,
    initial: &Memory,
    expected: &Memory,
    label: &str,
) -> Result<Job, String> {
    let placed: Vec<Placed> =
        graphs.iter().map(|g| flows::place(g, label)).collect::<Result<_, _>>()?;
    let refs: Vec<&ExprHigh> = placed.iter().map(|p| &p.graph).collect();
    let r = flows::run(&refs, initial.clone(), true, label)?;
    let cell = Cell {
        cycles: r.cycles,
        cp: placed.iter().map(|p| p.cp).fold(0.0, f64::max),
        lut: placed.iter().map(|p| p.area.lut).sum(),
        ff: placed.iter().map(|p| p.area.ff).sum(),
        correct: r.memory == *expected && r.cause_sum == r.stalled + r.starved,
    };
    Ok(Job { cell, refused: false, graphs: placed.into_iter().map(|p| p.graph).collect() })
}

fn replay_job(
    p: &Program,
    kernels: &[graphiti_frontend::KernelCircuit],
    expected: &Memory,
    flow: Flow,
) -> Result<Job, String> {
    let label = format!("{}/{flow}", p.name);
    match flow {
        Flow::DfIo => {
            dataflow(kernels.iter().map(|k| k.graph.clone()).collect(), &p.arrays, expected, &label)
        }
        Flow::Graphiti => {
            let mut refused = false;
            let mut graphs = Vec::new();
            for k in kernels {
                match k.ooo_tags {
                    Some(tags) => {
                        let opts = PipelineOptions { tags, ..Default::default() };
                        let (g, rep) = span("pipeline.optimize_loop", &label, || {
                            optimize_loop(&k.graph, &k.inner_init, &opts)
                        })
                        .map_err(|e| format!("{label}: {e}"))?;
                        count("pipeline.rewrites", &label, rep.rewrites as u64);
                        refused |= !rep.transformed;
                        graphs.push(g);
                    }
                    None => graphs.push(k.graph.clone()),
                }
            }
            let mut job = dataflow(graphs, &p.arrays, expected, &label)?;
            job.refused = refused;
            Ok(job)
        }
        Flow::DfOoo => {
            let mut graphs = Vec::new();
            for k in kernels {
                match k.ooo_tags {
                    Some(tags) => {
                        let opts = PipelineOptions { tags, ..Default::default() };
                        let g = span("pipeline.dfooo_loop", &label, || {
                            dfooo_loop(&k.graph, &k.inner_init, &opts)
                        })
                        .map_err(|e| format!("{label}: {e}"))?;
                        graphs.push(g);
                    }
                    None => graphs.push(k.graph.clone()),
                }
            }
            dataflow(graphs, &p.arrays, expected, &label)
        }
        Flow::Vericert => {
            let st = span("staticsched.run_static", &label, || run_static(p))
                .map_err(|e| format!("{label}: {e}"))?;
            count("staticsched.cycles", &label, st.cycles);
            let cell = Cell {
                cycles: st.cycles,
                cp: st.clock_period,
                lut: st.area.lut,
                ff: st.area.ff,
                correct: st.memory == *expected,
            };
            Ok(Job { cell, refused: false, graphs: Vec::new() })
        }
    }
}

/// One pass rebuilt from the public calls `evaluate_suite` makes.
/// Returns each kernel's cells, whether GRAPHITI refused it, and the
/// simulated graphs of every dataflow flow (by kernel index).
#[allow(clippy::type_complexity)]
fn replay(s: &Setup) -> Result<(Vec<[Cell; 4]>, Vec<bool>, Vec<(usize, Vec<ExprHigh>)>), String> {
    let mut compiled = Vec::new();
    for p in &s.programs {
        // `evaluate_suite` interprets each program for its `correct` flags;
        // the replay checks against the reference but pays the same call.
        span("frontend.run_program", &p.name, || run_program(p))
            .map_err(|e| format!("{}: {e}", p.name))?;
        let c = span("frontend.compile", &p.name, || compile(p))
            .map_err(|e| format!("{}: {e}", p.name))?;
        count(
            "frontend.nodes",
            &p.name,
            c.kernels.iter().map(|k| k.graph.node_count() as u64).sum(),
        );
        compiled.push(c.kernels);
    }
    let jobs: Vec<(usize, Flow)> =
        (0..s.programs.len()).flat_map(|b| FLOWS.into_iter().map(move |f| (b, f))).collect();
    let outs = span("pool.map", "suite", || {
        let parent = trace::current();
        graphiti_pool::parallel_map(jobs, |(b, flow)| {
            within(parent, || {
                span("pool.job", &format!("{}/{flow}", s.programs[b].name), || {
                    replay_job(&s.programs[b], &compiled[b], &s.expected[b], flow)
                })
            })
        })
    });
    let mut cells = Vec::new();
    let mut refused = Vec::new();
    let mut graphs = Vec::new();
    let mut outs = outs.into_iter();
    for b in 0..s.programs.len() {
        let jobs: Vec<Job> = outs.by_ref().take(FLOWS.len()).collect::<Result<_, _>>()?;
        refused.push(jobs[1].refused);
        cells.push([0, 1, 2, 3].map(|f| jobs[f].cell.clone()));
        graphs.extend(jobs.into_iter().filter(|j| !j.graphs.is_empty()).map(|j| (b, j.graphs)));
    }
    Ok((cells, refused, graphs))
}

/// Runs `paper-suite`.
pub fn run(seed: u64, seconds: f64, traced: bool) -> Result<Report, String> {
    let (s, mut setup_times) = timed_setup(traced, || setup(seed))?;
    let setups = setup_times.len() as u64;
    // `evaluate_suite` marks a flow correct when it matches `run_program`,
    // so its flags are only as good as the interpreter against the reference.
    let interp_ok: Vec<bool> = s
        .programs
        .iter()
        .zip(&s.expected)
        .map(|(p, expected)| run_program(p).map(|m| m == *expected))
        .collect::<Result<_, _>>()
        .map_err(|e| format!("run_program: {e}"))?;
    let mut tally = Tally::default();
    let mut passes: Vec<Vec<[Cell; 4]>> = Vec::new();
    let budget = if traced { seconds / 2.0 } else { seconds };
    let walls = run_rounds(
        budget,
        &mut setup_times,
        || setup(seed),
        || {
            let results =
                evaluate_suite(&s.programs).map_err(|e| format!("evaluate_suite: {e}"))?;
            let cells = cells_of(&results);
            let refused: Vec<bool> = results.iter().map(|r| r.refused).collect();
            tally_pass(&s, &cells, &refused, &interp_ok, &mut tally);
            passes.push(cells);
            Ok(())
        },
    )?;
    let first = passes[0].clone();
    for p in &passes[1..] {
        tally.require(*p == first, || "a pass's figures differ from the first pass's".into());
    }
    let mut report = Report::new(median(setup_times));
    report.op_ms = walls.iter().map(|w| w * 1e3).collect();
    report.design = design(&first);
    let mut ms = report.op_ms.clone();
    report.detail.push(("suite_ms.p50", quantile(&mut ms, 0.5), "ms"));
    if ms.len() >= 100 {
        report.detail.push(("suite_ms.p90", quantile(&mut ms, 0.9), "ms"));
    }
    for (input, cells) in s.inputs.iter().zip(&first) {
        let g = &cells[1];
        let dfooo = &cells[2];
        println!(
            "{:<12} GRAPHITI cycles {:>7} cp {:>6.3} ns  LUT {:>6} FF {:>6}{}",
            input.kernel.name,
            g.cycles,
            g.cp,
            g.lut,
            g.ff,
            if input.kernel.name == "bicg" {
                format!("  (DF-OoO correct: {})", dfooo.correct)
            } else {
                String::new()
            }
        );
        if let Some(row) = graphiti_bench::tables::paper_row(input.kernel.name) {
            println!(
                "{:<12} paper    cycles {:>7} cp {:>6.3} ns  LUT {:>6} FF {:>6}",
                "", row.cycles[2], row.cp[2], row.lut[2], row.ff[2]
            );
        }
    }
    if traced {
        let mut graphs = Vec::new();
        let traced_walls = run_traced(walls.len(), || {
            let (cells, refused, g) = replay(&s)?;
            tally_pass(&s, &cells, &refused, &vec![true; cells.len()], &mut tally);
            tally
                .require(cells == first, || "the replayed pass differs from evaluate_suite".into());
            if graphs.is_empty() {
                graphs = g;
            }
            Ok(())
        })?;
        // One pass's plain simulations and cold lowerings: the replay
        // simulates with attribution only, as `evaluate_suite` does.
        probe(|| {
            for (b, gs) in &graphs {
                let p = &s.programs[*b];
                let refs: Vec<&ExprHigh> = gs.iter().collect();
                flows::run(&refs, p.arrays.clone(), false, &p.name)?;
                for g in gs {
                    flows::lower(g, &p.name)?;
                }
            }
            Ok(())
        })?;
        report.layers = finish_trace("paper-suite", seed, setups, &walls, &traced_walls)?;
    }
    report.tally = tally;
    Ok(report)
}
