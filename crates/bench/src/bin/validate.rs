//! Artifact-evaluation entry point: re-checks the paper's key qualitative
//! claims ([`paella_bench::claims::all`]) at reduced scale and prints
//! PASS/FAIL with the margin of each, exiting non-zero if anything
//! regressed. The full figure binaries (`fig01`…`fig15`, `table2`)
//! regenerate the complete data from the same cells. Claims are independent
//! simulation cells, so they run on the sweep harness
//! (`PAELLA_BENCH_THREADS`) with output in fixed order.
//!
//! Run with: `./target/release/validate`

use paella_bench::claims;

fn main() {
    let claims = claims::all();
    let verdicts = paella_bench::sweep::run_grid(claims.len(), |i| (claims[i].check)());
    let mut failures = 0u32;
    for (c, v) in claims.iter().zip(&verdicts) {
        let verdict = if v.ok { "PASS" } else { "FAIL" };
        println!("[{verdict}] {:8} {}\n         {}", c.id, c.text, v.detail);
        if !v.ok {
            failures += 1;
        }
    }

    println!();
    if failures == 0 {
        println!("all checks passed");
    } else {
        println!("{failures} check(s) FAILED");
        std::process::exit(1);
    }
}
