//! The paper's claims as a tier-1 test: every [`paella_bench::claims::all`]
//! entry must hold. A failure names each claim that does not, with its
//! measured numbers. `validate` prints the same verdicts.

use paella_bench::claims;
use paella_bench::sweep::run_grid;

#[test]
fn every_paper_claim_holds() {
    let claims = claims::all();
    let verdicts = run_grid(claims.len(), |i| (claims[i].check)());
    let failed: Vec<String> = claims
        .iter()
        .zip(&verdicts)
        .filter(|(_, v)| !v.ok)
        .map(|(c, v)| format!("{}: {} ({})", c.id, c.text, v.detail))
        .collect();
    assert!(
        failed.is_empty(),
        "{} claim(s) do not hold:\n{}",
        failed.len(),
        failed.join("\n")
    );
}
