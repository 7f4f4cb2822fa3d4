//! Regenerate the theorem-derived tables (T1–T10), figures (F1–F4) and
//! benchmark records (A1, D1, D2, P1, S1, E1, R1, H1).
//!
//! ```sh
//! cargo run -p locality-bench --release --bin experiments -- all
//! cargo run -p locality-bench --release --bin experiments -- t1 a1 f3
//! cargo run -p locality-bench --release --bin experiments -- d1 --json bench.json
//! cargo run -p locality-bench --release --bin experiments -- p1 --huge --json pipe.json
//! ```

use locality_bench::experiments;
use std::process::ExitCode;

const USAGE: &str = "usage: experiments [options] <all | t1..t10 a1 d1 d2 p1 s1 e1 r1 h1 f1..f4>...

Regenerates the theorem-derived tables (T1-T10) and figures (F1-F4), the
protocol-port accounting table (A1), the derandomizer scaling (D1),
producer matrix (D2), pipeline (P1), serving workload (S1), edit repair
(E1), chaos matrix (R1) and HTTP load (H1) benchmarks of DESIGN.md
section 3. Pass `all` or any mix of ids. A failed check exits 1.

options:
  --json <path>  write the one experiment's record to <path>: its fields and
                 tables plus a provenance header (git rev, nproc, build
                 profile, wall time, peak RSS); d1/d2/p1/s1/e1/r1/h1 write the
                 BENCH_derand/producers/pipeline/serve/edits/faults/http.json
                 schemas
  --huge         include the largest rows: n = 10^5 in D1, n = 10^5 and
                 10^6 in P1 and E1, n = 10^6 and 10^7 in D2, n = 2000 in
                 R1, 10^6 requests at the top H1 level (tens of seconds
                 to minutes of compute, GBs of memory)
  -h, --help     print this message and exit";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let mut ids: Vec<String> = Vec::new();
    let mut json_path: Option<String> = None;
    let mut huge = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--json" => match it.next() {
                Some(path) => json_path = Some(path.clone()),
                None => return usage_error("--json requires a path argument"),
            },
            "--huge" => huge = true,
            other => ids.push(other.to_lowercase()),
        }
    }
    if ids.is_empty() {
        return usage_error(USAGE);
    }
    let known = |id: &String| id == "all" || experiments::ALL.contains(&id.as_str());
    if let Some(bad) = ids.iter().find(|id| !known(id)) {
        let all = experiments::ALL.join(", ");
        return usage_error(&format!("unknown experiment id: {bad} (known: all, {all})"));
    }
    if ids.iter().any(|id| id == "all") {
        ids = experiments::ALL.iter().map(|s| s.to_string()).collect();
    }
    if json_path.is_some() && ids.len() != 1 {
        return usage_error(
            "--json records exactly one experiment per run; pass one id \
             (`all` expands to every id, so record them in separate runs)",
        );
    }
    for id in &ids {
        let record = match experiments::run(id, huge) {
            Ok(record) => record,
            Err(e) => {
                eprintln!("experiment {id} failed: {e}");
                return ExitCode::FAILURE;
            }
        };
        print!("{}", record.render_text());
        if let Some(path) = &json_path {
            if let Err(e) = std::fs::write(path, record.to_json().to_pretty()) {
                eprintln!("failed to write {path}: {e}");
                return ExitCode::FAILURE;
            }
            println!("\nwrote {path}");
        }
    }
    ExitCode::SUCCESS
}

/// Print `message` and return the usage-error exit code.
fn usage_error(message: &str) -> ExitCode {
    eprintln!("{message}");
    ExitCode::from(2)
}
