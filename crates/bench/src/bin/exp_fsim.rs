//! E21 — grading-engine benchmark: fault dropping and the SoA engine on
//! the nine-design random-pattern sweep, plus the PODEM shared-context
//! headline. Prints the tables and writes `BENCH_fsim.json` next to the
//! working directory for perf tracking.

fn main() {
    hlstb_bench::tracehook::init();
    let patterns: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(1024);
    let sweep = hlstb_bench::fsim_bench::sweep(patterns);
    print!("{}", sweep.table());
    println!(
        "whole-sweep fault-phase speedup vs naive: drop {:.2}x, \
         soa {:.2}x, soa-256 {:.2}x, soa-512 {:.2}x",
        sweep.speedup("drop"),
        sweep.speedup("soa"),
        sweep.speedup("soa-256"),
        sweep.speedup("soa-512")
    );
    println!(
        "soa-512 vs drop (the committed headline): {:.2}x",
        sweep.speedup_over("drop", "soa-512")
    );
    print!("{}", sweep.atpg_table());
    println!(
        "PODEM shared context vs standalone podem() (the committed headline): {:.2}x",
        sweep.atpg_speedup()
    );
    let path = "BENCH_fsim.json";
    std::fs::write(path, sweep.to_json()).expect("write BENCH_fsim.json");
    println!("wrote {path}");
    hlstb_bench::tracehook::finish();
}
