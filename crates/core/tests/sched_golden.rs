//! Golden pick streams for every scheduling policy.
//!
//! One seeded stream of scheduler calls — the mix the dispatcher and the LLM
//! engine make — is driven through each policy, and every pick is folded
//! into a digest. The constants pin *which job wins, why, and out of how
//! many*; a refactor of `sched.rs` must leave them alone, and a change that
//! means to move a pick re-records them and says so.

use paella_core::sched::PickRationale;
use paella_core::{
    ClientId, FifoScheduler, JobId, JobInfo, RrScheduler, Scheduler, SjfScheduler,
    SrptDeficitScheduler,
};
use paella_sim::{SimDuration, SimTime, Xoshiro256pp};

/// FNV-1a, one 64-bit word at a time.
fn fold(h: u64, word: u64) -> u64 {
    word.to_le_bytes().iter().fold(h, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Drives `s` through `ops` seeded calls and digests `(job, rationale,
/// ready_len)` per pick; also returns how many picks were made and how many
/// of them were deficit overrides. Arrival and total are fixed for a job's
/// life, as they are in `Dispatcher` and `LlmEngine`; only the remaining
/// estimate moves. Values are quantized coarsely so arrival, total and
/// remaining all tie often and the tie-breaks are part of what is pinned.
fn pick_stream_digest(s: &mut dyn Scheduler, seed: u64, ops: usize) -> (u64, usize, usize) {
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    // Every job minted so far, and the indices of those not yet done.
    let mut jobs: Vec<JobInfo> = Vec::new();
    let mut live: Vec<usize> = Vec::new();
    let mut now_us = 0u64;
    let mut last_pick: Option<JobId> = None;
    let mut h = 0xcbf2_9ce4_8422_2325;
    let (mut picks, mut overrides) = (0usize, 0usize);
    for _ in 0..ops {
        let op = rng.next_below(16);
        let some_live = (!live.is_empty()).then(|| live[rng.index(live.len())]);
        let some_minted = (!jobs.is_empty()).then(|| rng.index(jobs.len()));
        match op {
            // A new job arrives (ids minted densely, as the engines do).
            0..=2 if live.len() < 48 => {
                now_us += rng.next_below(3) * 10;
                let total_us = (1 + rng.next_below(12)) * 50;
                let info = JobInfo {
                    job: JobId(jobs.len() as u64),
                    client: ClientId(rng.next_below(6) as u32),
                    arrival: SimTime::from_micros(now_us),
                    total_estimate: SimDuration::from_micros(total_us),
                    remaining_estimate: SimDuration::from_micros(total_us),
                };
                live.push(jobs.len());
                jobs.push(info);
                s.job_ready(info);
            }
            0..=3 => {
                if let Some(i) = some_live {
                    live.retain(|&l| l != i);
                    s.job_done(jobs[i].job);
                }
            }
            // A live job becomes ready again — whether or not it was blocked
            // in between — with less work left.
            4..=5 => {
                if let Some(i) = some_live {
                    let left = jobs[i].remaining_estimate.as_nanos() / 1_000;
                    let left = left - left.min(rng.next_below(3) * 50);
                    jobs[i].remaining_estimate = SimDuration::from_micros(left);
                    s.job_ready(jobs[i]);
                }
            }
            // Blocks any job ever minted: ready, already blocked, or done.
            6..=7 => {
                if let Some(i) = some_minted {
                    s.job_blocked(jobs[i].job);
                }
            }
            // Estimate update; a no-op for a job that is not ready.
            8..=9 => {
                if let Some(i) = some_live {
                    jobs[i].remaining_estimate = SimDuration::from_micros(rng.next_below(12) * 50);
                    s.remaining_changed(jobs[i].job, jobs[i].remaining_estimate);
                }
            }
            // The dispatcher's sequence: charge the job it just picked.
            10..=11 => {
                if let Some(job) = last_pick {
                    s.on_dispatched(job);
                }
            }
            // A charge for an arbitrary job, ready or not.
            12 => {
                if let Some(i) = some_minted {
                    s.on_dispatched(jobs[i].job);
                }
            }
            13 => s.client_idle(ClientId(rng.next_below(6) as u32)),
            _ => {
                let pick = s.pick_next_explained();
                last_pick = pick.map(|(job, _)| job);
                let (job, why) = match pick {
                    None => (u64::MAX, 0),
                    Some((job, why)) => (
                        job.0,
                        match why {
                            PickRationale::ArrivalOrder => 1,
                            PickRationale::ShortestTotal => 2,
                            PickRationale::RoundRobin => 3,
                            PickRationale::ShortestRemaining => 4,
                            PickRationale::DeficitOverride => 5,
                        },
                    ),
                };
                h = fold(h, job);
                h = fold(h, why);
                h = fold(h, s.ready_len() as u64);
                picks += 1;
                overrides += usize::from(why == 5);
            }
        }
    }
    (h, picks, overrides)
}

#[test]
fn scheduler_pick_stream_golden_digests() {
    let srpt = |threshold| Box::new(SrptDeficitScheduler::new(threshold));
    // (policy, scheduler, digest, deficit overrides among the 2,477 picks)
    let policies: [(&str, Box<dyn Scheduler>, u64, usize); 7] = [
        (
            "fifo",
            Box::new(FifoScheduler::new()),
            0x4058_dd59_ca4d_aec7,
            0,
        ),
        (
            "sjf",
            Box::new(SjfScheduler::new()),
            0x4fb6_5083_c848_2808,
            0,
        ),
        // Re-recorded when a re-readied job stopped taking a second queue
        // slot (it had been 0xdfbf_77ca_0d18_06c9).
        ("rr", Box::new(RrScheduler::new()), 0x11d9_1fce_602a_d792, 0),
        ("srpt", srpt(None), 0x66a8_8bdb_50f2_d5aa, 0),
        // Thresholds at which overrides are about half of the picks, a few
        // percent of them, and (the shipped value) none: the last must pick
        // exactly as pure SRPT does.
        (
            "srpt+deficit",
            srpt(Some(1.5)),
            0x71bc_a310_f66d_b10c,
            1_311,
        ),
        ("srpt+deficit", srpt(Some(6.0)), 0xa7b3_6f03_7e79_93c4, 101),
        (
            "srpt+deficit",
            srpt(Some(2_000.0)),
            0x66a8_8bdb_50f2_d5aa,
            0,
        ),
    ];
    let mut moved = Vec::new();
    for (name, mut s, want, want_overrides) in policies {
        assert_eq!(s.name(), name);
        let (got, picks, overrides) = pick_stream_digest(s.as_mut(), 0x5EED_5C4E_D017, 20_000);
        assert_eq!(picks, 2_477, "{name}: the op stream itself moved");
        if (got, overrides) != (want, want_overrides) {
            moved.push(format!(
                "{name}: got {got:#018x} with {overrides} overrides, \
                 want {want:#018x} with {want_overrides}"
            ));
        }
    }
    assert!(moved.is_empty(), "pick streams moved: {moved:#?}");
}
