//! Ablation: local-move hops (BENCH_0006). Emits JSON on stdout;
//! `--smoke` runs a scaled-down version for CI, `--check <path>`
//! schema-validates an existing file instead of running anything.
//!
//! Exit codes follow the workspace contract: `0` clean, `1` findings
//! (schema violation, speedup below the bar), `2` usage/internal error.
fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--check") {
        let Some(path) = args.get(1) else {
            eprintln!("usage: ablation_move --check <path>");
            std::process::exit(2);
        };
        let body = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("cannot read {path}: {e}");
            std::process::exit(2);
        });
        match msgr_bench::validate_bench_0006(&body) {
            Ok(()) => println!("{path}: ok"),
            Err(e) => {
                eprintln!("{path}: {e}");
                std::process::exit(1);
            }
        }
        return;
    }
    if let Some(bad) = args.iter().find(|a| *a != "--smoke") {
        eprintln!("unknown flag: {bad}\nusage: ablation_move [--smoke | --check <path>]");
        std::process::exit(2);
    }
    let smoke = !args.is_empty();
    println!("{}", msgr_bench::ablation_move(smoke));
}
