//! The correctness gate every run passes through.
//!
//! A serial, single-shard `ReputationEngine` is fed the same input as the
//! engine under test — the history, then each epoch's expiry and batch,
//! regenerated from the seed — and must reproduce (a) the verdict of every
//! sampled decision on the epoch that decision was pinned to, bit for bit,
//! and (b) the digest of the final snapshot. Cache hits served at or beyond
//! their TTL fail the run too.

use crate::drive::{ClientLog, Source, WriterLog};
use crate::world::{reference_engine, World};
use std::collections::BTreeSet;

/// Sampled epochs whose decisions are re-derived (the rest are skipped:
/// each check costs a reference recompute).
const CHECKED_EPOCHS: usize = 16;

#[derive(Debug, Default)]
pub struct GateReport {
    pub checked_decisions: u64,
    pub verdict_mismatches: u64,
    pub stale_hits: u64,
    pub digest: u64,
    pub reference_digest: u64,
}

impl GateReport {
    pub fn passed(&self) -> bool {
        self.verdict_mismatches == 0 && self.stale_hits == 0 && self.digest == self.reference_digest
    }
}

/// Up to `CHECKED_EPOCHS` epochs spread over the ones decisions were
/// sampled on: the first, the last, and evenly between.
fn checked_epochs(client: &ClientLog) -> BTreeSet<u64> {
    let epochs: Vec<u64> = client
        .sampled
        .iter()
        .map(|s| s.epoch)
        .collect::<BTreeSet<_>>()
        .into_iter()
        .collect();
    if epochs.len() <= CHECKED_EPOCHS {
        return epochs.into_iter().collect();
    }
    (0..CHECKED_EPOCHS)
        .map(|i| epochs[i * (epochs.len() - 1) / (CHECKED_EPOCHS - 1)])
        .collect()
}

pub fn check(world: &World, writer: &WriterLog, client: &ClientLog) -> GateReport {
    let mut reference = reference_engine();
    for event in world.history() {
        event.apply_to(&mut reference);
    }
    let mut report = GateReport {
        stale_hits: client.stale_hits,
        ..GateReport::default()
    };
    // The writer's batches, in the order it folded them; each is applied
    // as the engine under test saw it: the expiry, then the batch.
    let mut source = Source::new(
        world.spec.writer,
        &world.trace,
        world.live_start,
        world.t0,
        world.seed,
        &world.users,
    );
    let mut feed = |reference: &mut mdrep::ReputationEngine| {
        let (batch, now) = source.next_batch().expect("the writer folded this batch");
        if source.expires() {
            reference.expire(now);
        }
        for event in &batch {
            event.apply_to(reference);
        }
        now
    };
    let mut fed = 0;
    let mut now = world.t0;
    for epoch in checked_epochs(client) {
        while fed < writer.epochs.len() && writer.epochs[fed].epoch <= epoch {
            now = feed(&mut reference);
            fed += 1;
        }
        reference.recompute(now);
        for s in client.sampled.iter().filter(|s| s.epoch == epoch) {
            report.checked_decisions += 1;
            if reference.decide_download(s.viewer, &s.owners) != s.verdict {
                report.verdict_mismatches += 1;
            }
        }
    }
    for _ in fed..writer.epochs.len() {
        now = feed(&mut reference);
    }
    reference.full_rebuild(now);
    let snapshot = world.engine.snapshot();
    report.digest = snapshot.digest();
    report.reference_digest = reference.snapshot_at(snapshot.epoch(), now).digest();
    report
}
