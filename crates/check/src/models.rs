//! The interleaving checker run over the shipped `paella-channels` code.
//!
//! The notifQ and SPSC models do not re-express those algorithms: they call
//! [`NotifRing::post`] / [`NotifRing::poll`] and [`Cursors::push`] /
//! [`Cursors::pop`] / the two closes — the bodies the public handles run —
//! with `C = Ctx` and `A = VAtomic`, so every atomic access of the shipped
//! code, its cached cursors, liveness flags and `INVALID_WORD` decode
//! included, is a schedule point. A `load_fresh` there is a poll and reads
//! the latest store; a `load` is a data read and branches over every message
//! the view admits. Each harness adds only what a non-blocking call leaves
//! to its caller — the blocking between retries (`mark` / `wait_changed`),
//! the payloads and the properties — and runs the shipped ordering profile.
//! Each ordering mutant is that profile with one field downgraded: the
//! checker must produce a counterexample for every one, which is the
//! self-test proving it has teeth.
//!
//! The doorbell has no model: it is a `Mutex` and a `Condvar` from `std`,
//! with no atomic of its own to explore.
//!
//! Properties verified on the clean models, per §5 of the paper:
//! * **publication ordering** — a consumed notification's payload is the one
//!   written before it was posted, and a popped item is the one pushed;
//! * **single-reader cursor monotonicity** — the reader sees each
//!   notification exactly once;
//! * **no-overrun flow control** — with at most `CAP` outstanding posts the
//!   ring never overwrites an unconsumed slot (the overrun mutant posts
//!   `CAP + 1` and must be flagged);
//! * **clean disconnect** — the consumer sees `Disconnected` only after it
//!   has popped every item the producer pushed before closing.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use paella_channels::atomic::AtomicCell;
use paella_channels::notifq::{NotifRing, NotifqOrds};
use paella_channels::spsc::{Cursors, SpscOrds};
use paella_channels::{Notification, PopError, PushError, INVALID_WORD};

use crate::mc::{Checker, Config, Ctx, Report, VAtomic};

impl AtomicCell<Ctx> for VAtomic {
    fn load(&self, c: &mut Ctx, ord: Ordering) -> u64 {
        c.load(*self, ord)
    }

    fn load_fresh(&self, c: &mut Ctx, ord: Ordering) -> u64 {
        c.load_fresh(*self, ord)
    }

    fn store(&self, c: &mut Ctx, val: u64, ord: Ordering) {
        c.store(*self, val, ord);
    }

    fn fetch_add(&self, c: &mut Ctx, val: u64, ord: Ordering) -> u64 {
        c.rmw(*self, ord, |v| v.wrapping_add(val))
    }
}

const NOTIFQ_CAP: usize = 2;

/// Model-checks the notifQ with `writers` concurrent posters and one reader
/// over a `NOTIFQ_CAP`-slot ring. Writer `w` stores payload `100 + w` (the
/// block's work), then posts a placement from SM `w`; the reader polls until
/// it has `writers` notifications and reads each one's payload.
/// `writers > NOTIFQ_CAP` deliberately violates the flow-control
/// precondition.
pub fn notifq_check(ords: NotifqOrds, writers: usize) -> Report {
    Checker::new(Config::default()).check(move |b| {
        let ring = Arc::new(NotifRing {
            slots: (0..NOTIFQ_CAP)
                .map(|i| b.atomic(&format!("slot{i}"), INVALID_WORD))
                .collect(),
            tail: b.atomic("tail", 0),
        });
        let data: Vec<VAtomic> = (0..writers)
            .map(|w| b.atomic(&format!("data{w}"), 0))
            .collect();
        for (w, &payload) in data.iter().enumerate() {
            let ring = Arc::clone(&ring);
            b.thread(&format!("writer{w}"), move |c| {
                c.store(payload, 100 + w as u64, Ordering::Relaxed);
                ring.post(c, Notification::placement(w as u8, w as u32, 1), ords);
            });
        }
        b.thread("reader", move |c| {
            let mut head = 0;
            let mut seen = vec![false; writers];
            for _ in 0..writers {
                let n = loop {
                    let slot = ring.slots[head as usize % NOTIFQ_CAP];
                    let m = c.mark(slot);
                    if let Some(n) = ring.poll(c, &mut head, ords) {
                        break n;
                    }
                    c.wait_changed(slot, m);
                };
                let w = usize::from(n.sm_id);
                c.check(!seen[w], "reader cursor sees each notification once");
                seen[w] = true;
                let payload = c.load(data[w], Ordering::Relaxed);
                c.check(
                    payload == 100 + w as u64,
                    "payload store happens-before its notification",
                );
            }
        });
    })
}

/// Model-checks the SPSC ring with a capacity-1 buffer: the producer pushes
/// two items and closes, the consumer pops until `Disconnected` and closes.
/// That exercises the empty wait (consumer), the full wait (producer) and
/// the close handshake.
pub fn spsc_check(ords: SpscOrds) -> Report {
    const ITEMS: [u64; 2] = [41, 42];
    Checker::new(Config::default()).check(move |b| {
        let mut cells = Vec::new();
        let ring = Arc::new(Cursors::new(1, |name, init| {
            cells.push(b.atomic(name, init));
            cells[cells.len() - 1]
        }));
        // `Cursors::new` makes its cells in field order.
        let [head, tail, producer_alive, _] = cells[..] else {
            unreachable!("Cursors has four cells")
        };
        let slots = [b.atomic("slot0", 0)];
        let write = move |c: &mut Ctx, i: usize, v| c.store(slots[i], v, Ordering::Relaxed);
        let read = move |c: &mut Ctx, i: usize| c.load(slots[i], Ordering::Relaxed);
        let producer = Arc::clone(&ring);
        b.thread("producer", move |c| {
            let mut cached_head = 0;
            for item in ITEMS {
                loop {
                    let m = c.mark(head);
                    match producer.push(c, &mut cached_head, item, write, ords) {
                        Err(PushError::Full(_)) => c.wait_changed(head, m),
                        done => {
                            c.check(done.is_ok(), "the consumer outlives the producer");
                            break;
                        }
                    }
                }
            }
            producer.close_producer(c, ords);
        });
        b.thread("consumer", move |c| {
            let mut cached_tail = 0;
            let mut got = Vec::new();
            loop {
                // Until every item is in, only a push ends an empty spell;
                // after that, only the producer's close.
                let wake = if got.len() < ITEMS.len() {
                    tail
                } else {
                    producer_alive
                };
                let m = c.mark(wake);
                match ring.pop(c, &mut cached_tail, read, ords) {
                    Ok(v) => got.push(v),
                    Err(PopError::Empty) => c.wait_changed(wake, m),
                    Err(PopError::Disconnected) => break,
                }
            }
            c.check(
                got == ITEMS,
                "every pushed item is popped, in order, before Disconnected",
            );
            ring.close_consumer(c, ords);
        });
    })
}

/// A named clean-model check that must pass exhaustively.
pub struct ModelCheck {
    /// Short identifier (`notifq`, `spsc`).
    pub name: &'static str,
    /// What the model verifies.
    pub description: &'static str,
    /// Runs the exploration.
    pub run: fn() -> Report,
}

/// The clean models: every one must explore to exhaustion with no failure.
pub fn clean_models() -> Vec<ModelCheck> {
    vec![
        ModelCheck {
            name: "notifq",
            description: "2 writers / 1 reader: publication ordering, cursor \
                          monotonicity, no overrun within flow control",
            run: || notifq_check(NotifqOrds::SHIPPED, 2),
        },
        ModelCheck {
            name: "spsc",
            description: "capacity-1 ring, 2 items then close: in-order delivery \
                          through both wait paths, no Disconnected before the last item",
            run: || spsc_check(SpscOrds::SHIPPED),
        },
    ]
}

/// One seeded bug the checker must catch.
pub struct Mutant {
    /// Short identifier.
    pub id: &'static str,
    /// Bug class: `memory-ordering` or `flow-control`.
    pub class: &'static str,
    /// What was broken.
    pub description: &'static str,
    /// Runs the exploration; the report must carry a failure.
    pub run: fn() -> Report,
}

/// The mutation self-test registry. Each entry seeds one bug that the
/// repo's ordinary unit/property tests do not catch (they run on x86-strong
/// hardware and real schedulers); the checker must flag every one.
pub fn mutants() -> Vec<Mutant> {
    vec![
        Mutant {
            id: "notifq-publish-relaxed",
            class: "memory-ordering",
            description: "notifq slot publication store downgraded Release -> Relaxed \
                          (reader may see the word before the payload)",
            run: || {
                notifq_check(
                    NotifqOrds {
                        publish: Ordering::Relaxed,
                        ..NotifqOrds::SHIPPED
                    },
                    2,
                )
            },
        },
        Mutant {
            id: "notifq-scan-relaxed",
            class: "memory-ordering",
            description: "notifq reader slot scan downgraded Acquire -> Relaxed \
                          (payload read no longer ordered after the word)",
            run: || {
                notifq_check(
                    NotifqOrds {
                        scan: Ordering::Relaxed,
                        ..NotifqOrds::SHIPPED
                    },
                    2,
                )
            },
        },
        Mutant {
            id: "spsc-publish-relaxed",
            class: "memory-ordering",
            description: "spsc tail publication store downgraded Release -> Relaxed \
                          (consumer may pop a stale slot)",
            run: || {
                spsc_check(SpscOrds {
                    publish: Ordering::Relaxed,
                    ..SpscOrds::SHIPPED
                })
            },
        },
        Mutant {
            id: "spsc-tail-load-relaxed",
            class: "memory-ordering",
            description: "spsc consumer tail load downgraded Acquire -> Relaxed \
                          (slot read no longer ordered after the tail)",
            run: || {
                spsc_check(SpscOrds {
                    tail_load: Ordering::Relaxed,
                    ..SpscOrds::SHIPPED
                })
            },
        },
        Mutant {
            id: "spsc-disconnect-relaxed",
            class: "memory-ordering",
            description: "spsc producer close downgraded Release -> Relaxed \
                          (consumer sees the close, re-reads a stale tail and \
                          reports Disconnected with an item still queued)",
            run: || {
                spsc_check(SpscOrds {
                    producer_close: Ordering::Relaxed,
                    ..SpscOrds::SHIPPED
                })
            },
        },
        Mutant {
            id: "notifq-overrun",
            class: "flow-control",
            description: "3 posts into a 2-slot ring (flow-control precondition \
                          violated): a writer laps the reader and a notification \
                          is lost",
            run: || notifq_check(NotifqOrds::SHIPPED, NOTIFQ_CAP + 1),
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_notifq_exhausts_without_failure() {
        let r = notifq_check(NotifqOrds::SHIPPED, 2);
        assert!(r.passed(), "{r:?}");
    }

    #[test]
    fn clean_spsc_exhausts_without_failure() {
        let r = spsc_check(SpscOrds::SHIPPED);
        assert!(r.passed(), "{r:?}");
    }

    #[test]
    fn every_mutant_is_caught() {
        for m in mutants() {
            let r = (m.run)();
            assert!(
                r.failure.is_some(),
                "mutant {} survived ({} executions)",
                m.id,
                r.executions
            );
        }
    }
}
