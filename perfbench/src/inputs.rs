//! The nine kernels, their frozen `.gsl` text, and the seeded inputs.
//!
//! The kernel *structure* is read from `kernels/<size>/<name>.gsl` through
//! `parse_program`, so an edit to the suite generators cannot change what
//! the benchmark runs. The array *contents* are drawn again from `--seed`
//! (one independent stream per kernel), so the program only ever receives
//! generated inputs. `perfbench freeze` rewrites the `.gsl` files from the
//! generators in `graphiti_bench::suite`.

use graphiti_frontend::{parse_program, print_program, Program};
use graphiti_ir::Value;
use std::path::PathBuf;

/// Which frozen copy of a kernel to read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The sizes of the evaluation's Table 2 (`suite::evaluation_suite`),
    /// plus gcd, histogram and scatter at comparable sizes.
    Table2,
    /// Roughly 4–40× the work of `Table2`: long single simulations.
    Long,
}

impl Size {
    fn dir(self) -> &'static str {
        match self {
            Size::Table2 => "table2",
            Size::Long => "long",
        }
    }
}

/// One kernel of the suite and its size parameters, in the order of the
/// matching `graphiti_bench::suite` generator's arguments (unused slots 0).
pub struct Kernel {
    /// Program name (also the file stem).
    pub name: &'static str,
    /// Parameters at [`Size::Table2`].
    pub table2: [i64; 3],
    /// Parameters at [`Size::Long`].
    pub long: [i64; 3],
}

impl Kernel {
    /// The parameters at `size`.
    pub fn args(&self, size: Size) -> [i64; 3] {
        match size {
            Size::Table2 => self.table2,
            Size::Long => self.long,
        }
    }
}

/// The six Table 2 kernels (in the paper's row order), then gcd, histogram
/// and scatter.
pub const KERNELS: [Kernel; 9] = [
    Kernel { name: "bicg", table2: [14, 0, 0], long: [40, 0, 0] },
    Kernel { name: "gemm", table2: [6, 6, 8], long: [12, 12, 24] },
    Kernel { name: "gsum-many", table2: [16, 24, 0], long: [64, 48, 0] },
    Kernel { name: "gsum-single", table2: [160, 0, 0], long: [2048, 0, 0] },
    Kernel { name: "matvec", table2: [20, 0, 0], long: [64, 0, 0] },
    Kernel { name: "mvt", table2: [14, 0, 0], long: [40, 0, 0] },
    Kernel { name: "gcd", table2: [32, 0, 0], long: [512, 0, 0] },
    Kernel { name: "histogram", table2: [8, 16, 12], long: [64, 32, 24] },
    Kernel { name: "scatter", table2: [8, 16, 24], long: [64, 32, 96] },
];

/// The generator call the frozen text was printed from.
fn generate(k: &Kernel, a: [i64; 3]) -> Program {
    use graphiti_bench::suite;
    match k.name {
        "bicg" => suite::bicg(a[0]),
        "gemm" => suite::gemm(a[0], a[1], a[2]),
        "gsum-many" => suite::gsum_many(a[0], a[1]),
        "gsum-single" => suite::gsum_single(a[0]),
        "matvec" => suite::matvec(a[0]),
        "mvt" => suite::mvt(a[0]),
        "gcd" => suite::gcd(a[0]),
        "histogram" => suite::histogram(a[0], a[1], a[2]),
        "scatter" => suite::scatter(a[0], a[1], a[2]),
        other => unreachable!("no generator for {other}"),
    }
}

fn path(size: Size, name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("kernels")
        .join(size.dir())
        .join(format!("{name}.gsl"))
}

/// Rewrites every frozen `.gsl` file from the suite generators, checking
/// that each prints and parses back to the same program.
pub fn freeze() -> Result<(), String> {
    for size in [Size::Table2, Size::Long] {
        for k in &KERNELS {
            let p = generate(k, k.args(size));
            let text = print_program(&p);
            let back = parse_program(&text).map_err(|e| format!("{}: {e}", k.name))?;
            if back != p {
                return Err(format!("{}: print_program does not round-trip", k.name));
            }
            let file = path(size, k.name);
            std::fs::write(&file, text).map_err(|e| format!("{}: {e}", file.display()))?;
            println!("wrote {}", file.display());
        }
    }
    Ok(())
}

/// SplitMix64: a small, fixed generator, so the inputs of a seed never
/// change with a dependency.
struct Rng(u64);

impl Rng {
    /// The stream for `seed`, split per `stream` name.
    fn new(seed: u64, stream: &str) -> Rng {
        let mut h = seed ^ 0x9e37_79b9_7f4a_7c15;
        for b in stream.bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
        Rng(h)
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[lo, hi)`.
    fn float(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * ((self.next() >> 11) as f64 / (1u64 << 53) as f64)
    }

    /// Uniform in `[lo, hi)`.
    fn int(&mut self, lo: i64, hi: i64) -> i64 {
        lo + (self.next() % (hi - lo) as u64) as i64
    }
}

/// How one array's contents are drawn.
enum Draw {
    /// Left as the file has it (the all-zero output arrays).
    Keep,
    /// Floats in a benign positive range.
    Positive,
    /// Floats of both signs (gsum's conditional takes both paths).
    Signed,
    /// Integers in `[lo, hi)`.
    Int(i64, i64),
    /// Integers indexing the named array (histogram bins, scatter slots).
    IndexInto(&'static str),
}

fn draw_rule(kernel: &str, array: &str) -> Option<Draw> {
    Some(match (kernel, array) {
        ("matvec", "y") | ("bicg", "s" | "q") | ("gsum-many" | "gsum-single", "out") => Draw::Keep,
        ("gcd", "result") | ("histogram", "h") | ("scatter", "out") => Draw::Keep,
        ("matvec", "A" | "x") | ("bicg", "A" | "p" | "r") | ("gemm", "A" | "B" | "C") => {
            Draw::Positive
        }
        ("mvt", "A" | "y1" | "y2" | "x1" | "x2") => Draw::Positive,
        ("gsum-many" | "gsum-single", "data") => Draw::Signed,
        ("gcd", "arr1" | "arr2") => Draw::Int(1, 2000),
        ("histogram", "data") => Draw::IndexInto("h"),
        ("scatter", "idx") => Draw::IndexInto("out"),
        ("scatter", "val") => Draw::Int(-9, 10),
        _ => return None,
    })
}

/// One kernel ready to run: its parsed program with seeded contents.
pub struct Input {
    /// The kernel's table entry.
    pub kernel: &'static Kernel,
    /// Its size parameters.
    pub args: [i64; 3],
    /// The program, arrays drawn from the seed.
    pub program: Program,
}

/// Reads one frozen kernel and draws its arrays from `seed`.
pub fn load(kernel: &'static Kernel, size: Size, seed: u64) -> Result<Input, String> {
    let file = path(size, kernel.name);
    let text = std::fs::read_to_string(&file).map_err(|e| format!("{}: {e}", file.display()))?;
    let mut program = parse_program(&text).map_err(|e| format!("{}: {e}", file.display()))?;
    let mut rng = Rng::new(seed, kernel.name);
    let lens: Vec<(String, usize)> =
        program.arrays.iter().map(|(n, v)| (n.clone(), v.len())).collect();
    let len_of = |name: &str| lens.iter().find(|(n, _)| n == name).map(|(_, l)| *l as i64);
    for (name, values) in program.arrays.iter_mut() {
        let rule = draw_rule(kernel.name, name)
            .ok_or_else(|| format!("{}: no draw rule for array {name}", kernel.name))?;
        let mut gen: Box<dyn FnMut(&mut Rng) -> Value> = match rule {
            Draw::Keep => continue,
            Draw::Positive => Box::new(|r| Value::from_f64(r.float(0.1, 4.0))),
            Draw::Signed => Box::new(|r| Value::from_f64(r.float(-2.0, 2.0))),
            Draw::Int(lo, hi) => Box::new(move |r| Value::Int(r.int(lo, hi))),
            Draw::IndexInto(target) => {
                let n =
                    len_of(target).ok_or_else(|| format!("{}: no array {target}", kernel.name))?;
                Box::new(move |r| Value::Int(r.int(0, n)))
            }
        };
        for v in values.iter_mut() {
            *v = gen(&mut rng);
        }
    }
    Ok(Input { kernel, args: kernel.args(size), program })
}

/// All nine kernels at `size`.
pub fn load_all(size: Size, seed: u64) -> Result<Vec<Input>, String> {
    KERNELS.iter().map(|k| load(k, size, seed)).collect()
}
