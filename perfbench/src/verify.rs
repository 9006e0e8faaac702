//! `verify-gcd`: the time from a parsed kernel to every refinement verdict.
//!
//! One round compiles the gcd kernel, runs `optimize_loop` in
//! `CheckMode::Deferred` at the default options, discharges the collected
//! obligations, then checks three known-false control obligations and
//! simulates the transformed circuit. Operations: one per obligation
//! verdict, one per control, and two for the circuit (its memory against
//! Euclid, and the attributed run against the plain one).

use crate::flows;
use crate::inputs::{self, Size, KERNELS};
use crate::reference::{self, Memory};
use crate::trace::{self, count, span, within};
use crate::{finish_trace, median, run_rounds, run_traced, timed_setup, Report, Tally};
use graphiti_core::{optimize_loop, PipelineOptions};
use graphiti_frontend::{compile, Program};
use graphiti_ir::{CompKind, ExprLow, Op, PureFn};
use graphiti_rewrite::verify::discharge;
use graphiti_rewrite::{CheckMode, Obligation};
use graphiti_sem::{
    check_refinement_with_stats, denote, BoundKind, Env, RefineConfig, RefineStats, Refinement,
};
use std::time::Instant;

/// Known-false obligations: each replaces a component by one that behaves
/// differently, so a sound checker must return a violating trace.
fn controls() -> Vec<Obligation> {
    let pair = |name: &str, spec: CompKind, imp: CompKind| Obligation {
        rewrite: format!("control:{name}"),
        lhs: ExprLow::base("c", spec),
        rhs: ExprLow::base("c", imp),
    };
    vec![
        pair(
            "pure-altered",
            CompKind::Pure { func: PureFn::Op(Op::NeZero) },
            CompKind::Pure { func: PureFn::Id },
        ),
        pair(
            "operator-altered",
            CompKind::Operator { op: Op::AddI },
            CompKind::Operator { op: Op::SubI },
        ),
        pair("init-flipped", CompKind::Init { initial: true }, CompKind::Init { initial: false }),
    ]
}

/// Denotes both sides and checks `⟦rhs⟧ ⊑ ⟦lhs⟧`, as `discharge` does,
/// with spans around each call and the exploration statistics.
fn check_traced(ob: &Obligation, cfg: &RefineConfig) -> (Refinement, RefineStats) {
    let env = Env::standard();
    let lhs = span("sem.denote", &ob.rewrite, || denote(&ob.lhs, &env));
    let rhs = span("sem.denote", &ob.rewrite, || denote(&ob.rhs, &env));
    span("sem.check", &ob.rewrite, || check_refinement_with_stats(&rhs, &lhs, cfg))
}

/// Whether an untraced verdict explored past the initial state. A state
/// budget, queue cap or depth bound is only reached after several input
/// steps; any other verdict is checked again for its statistics.
fn explored(ob: &Obligation, verdict: &Refinement, cfg: &RefineConfig) -> bool {
    match verdict {
        Refinement::BoundReached(hit)
            if matches!(hit.kind, BoundKind::States | BoundKind::QueueCap | BoundKind::Depth) =>
        {
            true
        }
        _ => check_traced(ob, cfg).1.visited_states > 1,
    }
}

struct Setup {
    program: Program,
    expected: Memory,
}

fn setup(seed: u64) -> Result<Setup, String> {
    let gcd = KERNELS.iter().find(|k| k.name == "gcd").expect("gcd is in the kernel table");
    let input = span("frontend.parse", "gcd", || inputs::load(gcd, Size::Long, seed))?;
    let expected = reference::expected(&input);
    Ok(Setup { program: input.program, expected })
}

/// One verdict with what the benchmark knows about it.
struct Verdict {
    rewrite: String,
    verdict: Refinement,
    /// Explored past the initial state (a verdict without is vacuous).
    explored: bool,
    /// Exploration statistics and check time (traced rounds only).
    stats: RefineStats,
    ms: f64,
}

/// What one round measured.
struct Round {
    /// Every (obligation, verdict), controls last: a traced round must
    /// return the same list as the untraced ones.
    verdicts: Vec<(String, Refinement)>,
    verify_s: f64,
    exec_ns: f64,
    lut: u64,
    ff: u64,
}

fn round(s: &Setup, tally: &mut Tally, traced: bool) -> Result<Round, String> {
    let t0 = Instant::now();
    let compiled = span("frontend.compile", "gcd", || compile(&s.program))
        .map_err(|e| format!("compile: {e}"))?;
    let k = &compiled.kernels[0];
    count("frontend.nodes", "gcd", k.graph.node_count() as u64);
    let opts = PipelineOptions {
        tags: k.ooo_tags.ok_or("the gcd kernel is not marked out-of-order")?,
        check: CheckMode::Deferred,
        ..Default::default()
    };
    let (g, report) = span("pipeline.optimize_loop_deferred", "gcd", || {
        optimize_loop(&k.graph, &k.inner_init, &opts)
    })
    .map_err(|e| format!("optimize_loop: {e}"))?;
    count("pipeline.rewrites", "gcd", report.rewrites as u64);
    count("pipeline.obligations", "gcd", report.obligations.len() as u64);
    let cfg = &opts.refine_cfg;
    let (verdicts, verify_s): (Vec<Verdict>, f64) = if traced {
        let obligations = report.obligations;
        let v = span("pool.map", "obligations", || {
            let parent = trace::current();
            graphiti_pool::parallel_map(obligations, |ob| {
                within(parent, || {
                    span("pool.job", &ob.rewrite, || {
                        let t = Instant::now();
                        let (verdict, stats) = check_traced(&ob, cfg);
                        Verdict {
                            rewrite: ob.rewrite.clone(),
                            verdict,
                            explored: stats.visited_states > 1,
                            stats,
                            ms: t.elapsed().as_secs_f64() * 1e3,
                        }
                    })
                })
            })
        });
        (v, t0.elapsed().as_secs_f64())
    } else {
        let obligations = report.obligations.clone();
        let discharged = discharge(report.obligations, cfg);
        let verify_s = t0.elapsed().as_secs_f64();
        let v = obligations
            .iter()
            .zip(discharged)
            .map(|(ob, d)| Verdict {
                explored: explored(ob, &d.verdict, cfg),
                rewrite: d.rewrite,
                verdict: d.verdict,
                stats: RefineStats::default(),
                ms: 0.0,
            })
            .collect();
        (v, verify_s)
    };
    tally.require(report.transformed, || format!("gcd was not transformed: {:?}", report.refusal));
    for v in &verdicts {
        let bounded = matches!(v.verdict, Refinement::BoundReached(_));
        count("sem.visited_states", &v.rewrite, v.stats.visited_states);
        count("sem.closures", &v.rewrite, v.stats.closures);
        count("sem.exhaustive", &v.rewrite, u64::from(v.verdict == Refinement::Holds));
        count("sem.bounded", &v.rewrite, u64::from(bounded));
        if v.verdict.is_ok() && !v.explored {
            // Accepted without exploring a single input: no evidence.
            count("sem.vacuous", &v.rewrite, 1);
            tally.fail_known(&format!("{} holds vacuously (one state visited)", v.rewrite));
        } else {
            tally.op(v.verdict.is_ok(), || format!("{}: {:?}", v.rewrite, v.verdict));
        }
        if traced {
            println!(
                "obligation {:<18} visited {:>6}  {:>9.1} ms  {:?}",
                v.rewrite, v.stats.visited_states, v.ms, v.verdict
            );
        }
    }

    let control_cfg = RefineConfig::default();
    let control_verdicts: Vec<(String, Refinement)> = if traced {
        controls().iter().map(|ob| (ob.rewrite.clone(), check_traced(ob, &control_cfg).0)).collect()
    } else {
        discharge(controls(), &control_cfg).into_iter().map(|d| (d.rewrite, d.verdict)).collect()
    };
    for (name, verdict) in &control_verdicts {
        let violated = matches!(verdict, Refinement::Fails { .. });
        tally.op(violated, || format!("{name} was not refuted: {verdict:?}"));
    }
    let all_verdicts =
        verdicts.into_iter().map(|v| (v.rewrite, v.verdict)).chain(control_verdicts).collect();

    let placed = flows::place(&g, "gcd")?;
    flows::lower(&placed.graph, "gcd")?;
    let plain = flows::run(&[&placed.graph], s.program.arrays.clone(), false, "gcd")?;
    let attr = flows::run(&[&placed.graph], s.program.arrays.clone(), true, "gcd")?;
    tally.op(plain.memory == s.expected, || "gcd circuit: memory differs from Euclid".into());
    tally.op(flows::attribution_consistent(&plain, &attr), || {
        "gcd circuit: attributed run disagrees with the plain run".into()
    });
    Ok(Round {
        verdicts: all_verdicts,
        verify_s,
        exec_ns: plain.cycles as f64 * placed.cp,
        lut: placed.area.lut,
        ff: placed.area.ff,
    })
}

/// Runs `verify-gcd`.
pub fn run(seed: u64, seconds: f64, traced: bool) -> Result<Report, String> {
    let (s, mut setup_times) = timed_setup(traced, || setup(seed))?;
    let setups = setup_times.len() as u64;
    let mut tally = Tally::default();
    let mut rounds = Vec::new();
    let budget = if traced { seconds / 2.0 } else { seconds };
    let walls = run_rounds(
        budget,
        &mut setup_times,
        || setup(seed),
        || {
            rounds.push(round(&s, &mut tally, false)?);
            Ok(())
        },
    )?;
    let first = &rounds[0];
    for r in &rounds[1..] {
        tally.require(r.verdicts == first.verdicts, || "verdicts differ between rounds".into());
    }
    let mut report = Report::new(median(setup_times));
    report.op_ms = rounds.iter().map(|r| r.verify_s * 1e3).collect();
    report.design = (first.exec_ns, first.lut, first.ff);
    report.detail.push(("verify_s", median(rounds.iter().map(|r| r.verify_s).collect()), "s"));
    if traced {
        let traced_walls = run_traced(walls.len(), || {
            let r = round(&s, &mut tally, true)?;
            tally.require(r.verdicts == first.verdicts, || {
                "the traced replay's verdicts differ from discharge's".into()
            });
            Ok(())
        })?;
        report.layers = finish_trace("verify-gcd", seed, setups, &walls, &traced_walls)?;
    }
    report.tally = tally;
    Ok(report)
}
