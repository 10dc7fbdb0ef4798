//! Ablation: the compiled overlay vs the bare interpreter
//! (BENCH_0007), and summary-guided compilation vs plain compilation
//! (BENCH_0008, via `--summaries`). Emits JSON on stdout; `--smoke`
//! runs a scaled-down version for CI, `--check <path>`
//! schema-validates an existing file instead of running anything —
//! dispatching on the `"bench"` tag inside the file, so one entry
//! point checks both artifacts.
//!
//! Exit codes follow the workspace contract: `0` clean, `1` findings
//! (schema violation, speedup below the bar), `2` usage/internal error.
fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--check") {
        let Some(path) = args.get(1) else {
            eprintln!("usage: ablation_compile --check <path>");
            std::process::exit(2);
        };
        let body = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("cannot read {path}: {e}");
            std::process::exit(2);
        });
        let result = if body.contains("\"bench\": \"BENCH_0008\"") {
            msgr_bench::validate_bench_0008(&body)
        } else {
            msgr_bench::validate_bench_0007(&body)
        };
        match result {
            Ok(()) => println!("{path}: ok"),
            Err(e) => {
                eprintln!("{path}: {e}");
                std::process::exit(1);
            }
        }
        return;
    }
    if let Some(bad) = args.iter().find(|a| *a != "--smoke" && *a != "--summaries") {
        eprintln!(
            "unknown flag: {bad}\nusage: ablation_compile [--smoke] [--summaries] [--check <path>]"
        );
        std::process::exit(2);
    }
    let smoke = args.iter().any(|a| a == "--smoke");
    if args.iter().any(|a| a == "--summaries") {
        println!("{}", msgr_bench::ablation_summaries(smoke));
    } else {
        println!("{}", msgr_bench::ablation_compile(smoke));
    }
}
