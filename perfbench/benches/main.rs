//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! [--mixed-rate <req/s>]`
//!
//! Runs one workload, checks every answer, prints every metric with its
//! unit, writes the full record (and, when traced, the spans) under
//! `perfbench/out/`, and prints the result as the last line of standard
//! output. Exits 0 only when every answer was correct.

use perfbench::report::{self, Metrics, Outcome, Provenance, END_TO_END, PER_LAYER};
use perfbench::workloads::{self, RunConfig};
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    workload: String,
    cfg: RunConfig,
}

fn usage() -> String {
    format!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--mixed-rate <req/s>]",
        workloads::WORKLOADS.join("|")
    )
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut cfg = RunConfig {
        seed: 0,
        seconds: 10.0,
        trace: false,
        mixed_rate: f64::NAN,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => cfg.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => cfg.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                cfg.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--mixed-rate" => cfg.mixed_rate = value.parse().map_err(|_| bad())?,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if cfg.seconds.is_nan() || cfg.seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    if workload == "mixed_http" && (cfg.mixed_rate.is_nan() || cfg.mixed_rate <= 0.0) {
        return Err("mixed_http needs a positive --mixed-rate".to_string());
    }
    Ok(Args { workload, cfg })
}

fn print_metrics(title: &str, metrics: &Metrics) {
    println!("{title}:");
    for m in metrics.all() {
        let note = if m.note.is_empty() {
            String::new()
        } else {
            format!("  [{}]", m.note)
        };
        println!(
            "  {:<30} {:>16} {:<6} ({} is better){note}",
            m.name,
            format!("{:.6}", m.value),
            m.unit,
            m.better.as_str()
        );
    }
}

/// The headline must hold exactly the metrics `BENCHMARK.json` lists.
fn check_headline(outcome: &Outcome, trace: bool) -> Result<(), String> {
    let defs = if trace { PER_LAYER } else { END_TO_END };
    let mut got: Vec<&str> = outcome
        .headline
        .all()
        .iter()
        .map(|m| m.name.as_str())
        .collect();
    let mut want: Vec<&str> = defs.iter().map(|d| d.name).collect();
    got.sort_unstable();
    want.sort_unstable();
    if got == want {
        Ok(())
    } else {
        Err(format!("reported {got:?}, defined {want:?}"))
    }
}

fn write_out(name: &str, body: &str) -> Option<PathBuf> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).ok()?;
    let path = dir.join(name);
    std::fs::write(&path, body).ok()?;
    Some(path)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--help" || a == "-h") {
        println!("{}", usage());
        return ExitCode::SUCCESS;
    }
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let prov = Provenance::collect(args.cfg.seed);
    println!(
        "perfbench workload={} seed={} seconds={} trace={} | git {} dirty={} | nproc {} | profile {} | {} | {} | unix {}",
        args.workload,
        prov.seed,
        args.cfg.seconds,
        u8::from(args.cfg.trace),
        prov.git_rev,
        prov.dirty.map_or("unknown".to_string(), |d| d.to_string()),
        prov.nproc,
        prov.profile,
        prov.features,
        prov.rustc,
        prov.unix_time,
    );
    let outcome = match workloads::run(&args.workload, &args.cfg) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    if let Err(e) = check_headline(&outcome, args.cfg.trace) {
        eprintln!("perfbench: internal error: {e}");
        return ExitCode::FAILURE;
    }
    let kind = if args.cfg.trace {
        "per-layer (traced run)"
    } else {
        "end-to-end"
    };
    print_metrics(&format!("{kind} metrics"), &outcome.headline);
    print_metrics(&format!("{} metrics", args.workload), &outcome.detail);
    for n in &outcome.notes {
        println!("{n}");
    }
    println!(
        "answers: {} attempted, {} failed (error_frac {})",
        outcome.tally.attempted,
        outcome.tally.failed,
        outcome.tally.error_frac()
    );
    for e in &outcome.tally.errors {
        println!("  mismatch: {e}");
    }
    for g in &outcome.guard_failures {
        println!("  guard: {g}");
    }
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload,
        prov.seed,
        u8::from(args.cfg.trace)
    );
    let record = report::record_json(&args.workload, args.cfg.trace, &prov, &outcome);
    if let Some(p) = write_out(&format!("{stem}.json"), &record) {
        println!("record: {}", p.display());
    }
    if let Some(tracer) = &outcome.spans {
        println!("spans by name: count, median, total and self time");
        for s in tracer.summary() {
            println!(
                "  {:<28} {:>8} {:>14.0} ns {:>12.3} ms {:>12.3} ms",
                s.name,
                s.count,
                s.median_ns,
                s.total_ns as f64 / 1e6,
                s.self_ns as f64 / 1e6
            );
        }
        if let Some(p) = write_out(&format!("{stem}-spans.json"), &tracer.to_json()) {
            println!("spans: {}", p.display());
        }
    }
    println!("{}", report::result_line(&outcome));
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
