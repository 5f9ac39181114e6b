//! Regenerates every table and figure of the Anaheim evaluation.
//!
//! Usage: `figures [fig1|fig2a|fig2b|fig2c|fig3|fig4a|fig4b|fig8|fig9|fig10|table3|table5|all]`
//!
//! An unknown name or an extra argument prints the usage on stderr and
//! exits with status 2.

use anaheim_bench::figures::*;

/// Every printable figure, in the order `all` prints them.
const FIGURES: [(&str, fn()); 12] = [
    ("table3", print_table3),
    ("fig1", print_fig1),
    ("fig2a", print_fig2a),
    ("fig2b", print_fig2b),
    ("fig2c", print_fig2c),
    ("fig3", print_fig3),
    ("fig4a", print_fig4a),
    ("fig4b", print_fig4b),
    ("fig8", print_fig8),
    ("fig9", print_fig9),
    ("fig10", print_fig10),
    ("table5", print_table5),
];

/// Reports a command-line problem on stderr and exits with status 2.
fn usage_error(msg: &str) -> ! {
    let names: Vec<&str> = FIGURES.iter().map(|(name, _)| *name).collect();
    eprintln!("figures: {msg}");
    eprintln!("usage: figures [{}|all]", names.join("|"));
    std::process::exit(2);
}

fn main() {
    let mut args = std::env::args().skip(1);
    let arg = args.next().unwrap_or_else(|| "all".into());
    if let Some(extra) = args.next() {
        usage_error(&format!("unexpected argument {extra:?}"));
    }
    if arg == "all" {
        FIGURES.iter().for_each(|(_, print)| print());
        return;
    }
    match FIGURES.iter().find(|(name, _)| *name == arg) {
        Some((_, print)) => print(),
        None => usage_error(&format!("unknown figure {arg:?}")),
    }
}

fn hr(title: &str) {
    println!(
        "\n=== {title} {}",
        "=".repeat(66usize.saturating_sub(title.len()))
    );
}

fn print_table3() {
    hr("Table III: Anaheim configurations");
    for (line, _) in table3() {
        println!("  {line}");
    }
}

fn print_fig1() {
    hr("Fig. 1 (table): CoeffToSlot under Base / Hoisting / MinKS");
    println!(
        "  {:10} {:>10} {:>14} {:>12} {:>12}",
        "algorithm", "evks (GB)", "plaintexts(GB)", "#(I)NTT", "keyswitches"
    );
    for r in fig1_table() {
        println!(
            "  {:10} {:>10.2} {:>14.2} {:>12} {:>12}",
            r.algorithm, r.evk_gb, r.plaintext_gb, r.ntt_limbs, r.keyswitches
        );
    }
    println!("  paper shape: hoisting cuts #(I)NTT ~2.47x; MinKS needs ~4x fewer evks");
}

fn print_fig2a() {
    hr("Fig. 2a: basic CKKS functions x libraries (A100 model)");
    println!(
        "  {:8} {:>10} {:>12} {:>12}",
        "function", "Phantom", "100x", "Cheddar"
    );
    let rows = fig2a();
    for f in ["HADD", "PMULT", "HMULT", "HROT"] {
        let t = |lib: &str| {
            rows.iter()
                .find(|r| r.function == f && r.library == lib)
                .map(|r| r.time_us)
                .unwrap_or(f64::NAN)
        };
        println!(
            "  {:8} {:>9.1}us {:>11.1}us {:>11.1}us",
            f,
            t("Phantom"),
            t("100x"),
            t("Cheddar")
        );
    }
}

fn print_fig2b() {
    hr("Fig. 2b: T_boot,eff vs decomposition number D");
    println!(
        "  {:12} {:>3} {:>14} {:>16}",
        "GPU", "D", "T_boot,eff", "elementwise"
    );
    for r in fig2b() {
        match r.t_boot_eff_ms {
            Some(t) => println!(
                "  {:12} {:>3} {:>11.2} ms {:>15.0}%",
                r.gpu,
                r.d,
                t,
                100.0 * r.elementwise_share
            ),
            None => println!("  {:12} {:>3} {:>14} {:>16}", r.gpu, r.d, "OoM", "-"),
        }
    }
    println!("  paper shape: EW 45-48% (A100), 68-69% (4090); OoM at large D on 4090");
}

fn print_fig2c() {
    hr("Fig. 2c: T_boot,eff under Base / Hoist / MinKS (A100, D=4)");
    for r in fig2c() {
        println!(
            "  {:8} {:>8.2} ms  (element-wise {:>4.0}%)",
            r.algorithm,
            r.t_boot_eff_ms,
            100.0 * r.elementwise_share
        );
    }
    println!("  paper shape: Hoist clearly fastest; MinKS ~ Base on GPUs");
}

fn print_fig3() {
    hr("Fig. 3: T_boot,eff vs fftIter (A100)");
    for r in fig3() {
        match r.t_boot_eff_ms {
            Some(t) => println!(
                "  fftIter {:?}: {:>8.2} ms  (element-wise {:>4.0}%)",
                r.fft_iter,
                t,
                100.0 * r.elementwise_share
            ),
            None => println!("  fftIter {:?}: OoM", r.fft_iter),
        }
    }
    println!("  paper shape: the default 4/3 mix wins; fftIter=6 loses via L_eff");
}

fn print_fig4a() {
    hr("Fig. 4a: linear transform (K=8) Gantt charts");
    for (name, report) in fig4a() {
        println!("\n  [{name}] {}", report.summary_line());
        print!("{}", report.render_gantt(100));
    }
}

fn print_fig4b() {
    hr("Fig. 4b: bootstrapping DRAM access & energy");
    println!(
        "  {:32} {:>10} {:>10} {:>12}",
        "config", "GPU (GB)", "PIM (GB)", "energy (J)"
    );
    for r in fig4b() {
        println!(
            "  {:32} {:>10.2} {:>10.2} {:>12.3}",
            r.config, r.gpu_dram_gb, r.pim_dram_gb, r.dram_energy_j
        );
    }
    println!("  paper shape: PIM slashes GPU-side DRAM ~6x; DRAM energy ~2.9x");
}

fn print_fig8() {
    hr("Fig. 8: workload speedup / energy / EDP gains");
    println!(
        "  {:16} {:26} {:>8} {:>8} {:>8} {:>10}",
        "workload", "config", "speedup", "energy", "EDP", "time"
    );
    for r in fig8() {
        match (r.speedup, r.energy_gain, r.edp_gain, r.time_ms) {
            (Some(s), Some(e), Some(d), Some(t)) => println!(
                "  {:16} {:26} {:>7.2}x {:>7.2}x {:>7.2}x {:>8.1}ms",
                r.workload, r.config, s, e, d, t
            ),
            _ => println!(
                "  {:16} {:26} {:>8} {:>8} {:>8} {:>10}",
                r.workload, r.config, "OoM", "-", "-", "-"
            ),
        }
    }
    println!("  paper shape: speedups 1.06-1.74x, EDP gains 1.62-3.14x, R20/R18 OoM on 4090");
}

fn print_fig9() {
    hr("Fig. 9: PIM instruction microbenchmark vs buffer size B");
    let rows = fig9();
    let devices: Vec<&str> = {
        let mut v: Vec<&str> = rows.iter().map(|r| r.device).collect();
        v.dedup();
        v
    };
    for dev in devices {
        println!("\n  [{dev}] speedup over GPU (columns: B = 4, 8, 16, 32, 64)");
        let mut seen = std::collections::BTreeSet::new();
        for r in rows.iter().filter(|r| r.device == dev) {
            if !seen.insert(r.instruction.clone()) {
                continue;
            }
            let line: Vec<String> = [4usize, 8, 16, 32, 64]
                .iter()
                .map(|b| {
                    rows.iter()
                        .find(|x| {
                            x.device == dev && x.instruction == r.instruction && x.buffer == *b
                        })
                        .and_then(|x| x.speedup)
                        .map(|s| format!("{s:5.2}x"))
                        .unwrap_or_else(|| "   n/s".into())
                })
                .collect();
            println!("    {:12} {}", r.instruction, line.join(" "));
        }
    }
    println!("\n  paper shape: 1.65-10.3x at default B; PAccum/CAccum highest; saturates with B");
}

fn print_fig10() {
    hr("Fig. 10: fusion & layout sensitivity (times in ms)");
    let rows = fig10();
    let configs: Vec<&str> = {
        let mut v: Vec<&str> = Vec::new();
        for r in &rows {
            if !v.contains(&r.config) {
                v.push(r.config);
            }
        }
        v
    };
    print!("  {:16}", "workload");
    for c in &configs {
        print!(" {c:>16}");
    }
    println!();
    let mut seen = std::collections::BTreeSet::new();
    for r in &rows {
        if !seen.insert(r.workload) {
            continue;
        }
        print!("  {:16}", r.workload);
        for c in &configs {
            let t = rows
                .iter()
                .find(|x| x.workload == r.workload && x.config == *c)
                .and_then(|x| x.time_ms);
            match t {
                Some(t) => print!(" {t:>14.1}ms"),
                None => print!(" {:>16}", "OoM"),
            }
        }
        println!();
    }
    println!("  paper shape: fusions help both sides; w/o CP roughly doubles PIM EW time");
}

fn print_table5() {
    hr("Table V: absolute workload times (ms; * = this reproduction)");
    println!(
        "  {:28} {:>10} {:>10} {:>10} {:>10}",
        "system", "Boot", "HELR", "ResNet20", "Sort"
    );
    let p = |v: Option<f64>| match v {
        Some(t) => format!("{t:.1}"),
        None => "-".into(),
    };
    for r in table5() {
        println!(
            "  {:28} {:>10} {:>10} {:>10} {:>10}",
            format!("{}{}", r.system, if r.measured { " *" } else { "" }),
            p(r.boot_ms),
            p(r.helr_ms),
            p(r.resnet20_ms),
            p(r.sort_ms)
        );
    }
}
