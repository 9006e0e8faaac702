//! Expected final memories, computed apart from the program.
//!
//! Plain loops over the seeded inputs, written from each kernel's
//! definition; nothing here calls graphiti code (not the interpreter, not
//! the simulator). Floating-point sums accumulate in program order, so
//! every result compares bit for bit with the circuits'.

use crate::inputs::Input;
use graphiti_ir::Value;
use std::collections::BTreeMap;

/// Final memory: array name → contents (the shape of `graphiti_frontend::Memory`).
pub type Memory = BTreeMap<String, Vec<Value>>;

fn floats(mem: &Memory, name: &str) -> Vec<f64> {
    mem[name].iter().map(|v| v.as_f64().expect("float array")).collect()
}

fn ints(mem: &Memory, name: &str) -> Vec<i64> {
    mem[name].iter().map(|v| v.as_int().expect("int array")).collect()
}

fn put_floats(mem: &mut Memory, name: &str, xs: Vec<f64>) {
    mem.insert(name.to_string(), xs.into_iter().map(Value::from_f64).collect());
}

fn put_ints(mem: &mut Memory, name: &str, xs: Vec<i64>) {
    mem.insert(name.to_string(), xs.into_iter().map(Value::Int).collect());
}

/// `y[i] = Σ_j a[i*n + j] * x[j]`, summed in order of `j`.
fn matvec_rows(a: &[f64], x: &[f64], n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| {
            let mut acc = 0.0;
            for j in 0..n {
                acc += a[i * n + j] * x[j];
            }
            acc
        })
        .collect()
}

/// The memory the kernel must leave behind.
pub fn expected(input: &Input) -> Memory {
    let mut mem = input.program.arrays.clone();
    let [a0, a1, a2] = input.args.map(|x| x as usize);
    match input.kernel.name {
        "matvec" => {
            let y = matvec_rows(&floats(&mem, "A"), &floats(&mem, "x"), a0);
            put_floats(&mut mem, "y", y);
        }
        "mvt" => {
            let n = a0;
            let a = floats(&mem, "A");
            let mut x1 = floats(&mem, "x1");
            let mut x2 = floats(&mem, "x2");
            let y1 = floats(&mem, "y1");
            let y2 = floats(&mem, "y2");
            let r1 = matvec_rows(&a, &y1, n);
            for i in 0..n {
                x1[i] += r1[i];
            }
            for i in 0..n {
                let mut acc = 0.0;
                for j in 0..n {
                    acc += a[j * n + i] * y2[j];
                }
                x2[i] += acc;
            }
            put_floats(&mut mem, "x1", x1);
            put_floats(&mut mem, "x2", x2);
        }
        "gemm" => {
            let (ni, nj, nk) = (a0, a1, a2);
            let a = floats(&mem, "A");
            let b = floats(&mem, "B");
            let mut c = floats(&mem, "C");
            for (io, cv) in c.iter_mut().enumerate().take(ni * nj) {
                let (row, col) = (io / nj, io % nj);
                let mut acc = 0.0;
                for k in 0..nk {
                    acc += a[row * nk + k] * b[k * nj + col];
                }
                *cv = 1.5 * acc + 0.5 * *cv;
            }
            put_floats(&mut mem, "C", c);
        }
        "bicg" => {
            let n = a0;
            let a = floats(&mem, "A");
            let p = floats(&mem, "p");
            let r = floats(&mem, "r");
            let mut s = floats(&mem, "s");
            let mut q = floats(&mem, "q");
            for i in 0..n {
                let mut acc = 0.0;
                for j in 0..n {
                    s[j] += r[i] * a[i * n + j];
                    acc += a[i * n + j] * p[j];
                }
                q[i] = acc;
            }
            put_floats(&mut mem, "s", s);
            put_floats(&mut mem, "q", q);
        }
        "gsum-many" | "gsum-single" => {
            let (k, m) = if input.kernel.name == "gsum-single" { (1, a0) } else { (a0, a1) };
            let data = floats(&mem, "data");
            let out = (0..k)
                .map(|i| {
                    let mut s = 0.0;
                    for &d in &data[i * m..(i + 1) * m] {
                        s += if d >= 0.0 { d * d + 0.25 } else { 0.0 };
                    }
                    s
                })
                .collect();
            put_floats(&mut mem, "out", out);
        }
        "gcd" => {
            let result = ints(&mem, "arr1")
                .into_iter()
                .zip(ints(&mem, "arr2"))
                .map(|(mut a, mut b)| {
                    while b != 0 {
                        (a, b) = (b, a % b);
                    }
                    a
                })
                .collect();
            put_ints(&mut mem, "result", result);
        }
        "histogram" => {
            let mut h = ints(&mem, "h");
            for bin in ints(&mem, "data") {
                h[bin as usize] += 1;
            }
            put_ints(&mut mem, "h", h);
        }
        "scatter" => {
            let (n, m) = (a0, a1);
            let idx = ints(&mem, "idx");
            let val = ints(&mem, "val");
            let mut out = ints(&mem, "out");
            for i in 0..n {
                for j in 0..m {
                    out[idx[i * m + j] as usize] = val[i * m + j];
                }
                out[i] = -1;
            }
            put_ints(&mut mem, "out", out);
        }
        other => unreachable!("no reference for {other}"),
    }
    mem
}
