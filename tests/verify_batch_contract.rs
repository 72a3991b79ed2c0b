//! The batch signature contract: `KeyRegistry::verify_batch` gives every
//! record the flag that `KeyRegistry::verify` gives it alone, whatever
//! the batch size and whatever is wrong with the record.
//!
//! Batches of 0–40 records cross both the scalar threshold (8) and the
//! lane count (16) several times, and mix signed evaluation records with
//! unknown owners, flipped signature bytes, flipped file, owner and value
//! bytes, records claimed by another owner, longer messages, duplicates of
//! earlier records, and signatures under a key that was since replaced.

use mdrep_repro::crypto::{KeyRegistry, Signature, SigningKey};
use mdrep_repro::types::UserId;
use proptest::prelude::*;

/// Registered owners; ids from here to `OWNERS + 4` are unknown.
const OWNERS: u64 = 12;
/// The owner whose key is replaced after `stale` signed with it.
const REKEYED: u64 = 3;

/// A record as `verify_batch` takes it.
type Record = (UserId, Vec<u8>, Signature);

/// An evaluation record's signed bytes: file, owner, value bits.
fn message(file: u64, owner: u64, value: f64) -> Vec<u8> {
    [file, owner, value.to_bits()]
        .iter()
        .flat_map(|word| word.to_be_bytes())
        .collect()
}

struct Fixture {
    registry: KeyRegistry,
    keys: Vec<SigningKey>,
    /// `REKEYED`'s key before re-registration.
    stale: SigningKey,
}

fn fixture() -> Fixture {
    let mut registry = KeyRegistry::new();
    let mut keys: Vec<SigningKey> = (0..OWNERS)
        .map(|i| registry.register(UserId::new(i), 500 + i))
        .collect();
    let stale = keys[REKEYED as usize].clone();
    keys[REKEYED as usize] = registry.register(UserId::new(REKEYED), 9_999);
    Fixture {
        registry,
        keys,
        stale,
    }
}

/// One drawn record: `(owner, file, kind, byte)`. Returns the record and
/// whether it should verify.
fn record(
    fx: &Fixture,
    earlier: &[(Record, bool)],
    (owner, file, kind, byte): (u64, u64, u8, usize),
) -> (Record, bool) {
    let known = owner % (OWNERS + 4);
    let value = (file % 101) as f64 / 100.0;
    let mut bytes = message(file, known, value);
    let key = &fx.keys[(known % OWNERS) as usize];
    let signature = key.sign(&bytes);
    let user = UserId::new(known);
    let registered = known < OWNERS;
    match kind {
        // A record signed by its owner.
        0 => ((user, bytes, signature), registered),
        // One flipped signature bit.
        1 => {
            let mut raw = *signature.as_bytes();
            raw[byte % 32] ^= 1 << (byte % 8);
            ((user, bytes, Signature::from_bytes(raw)), false)
        }
        // One flipped file, owner or value byte.
        2 => {
            bytes[byte % 24] ^= 0x40;
            ((user, bytes, signature), false)
        }
        // The record claimed by the next owner.
        3 => {
            let other = UserId::new((known + 1) % OWNERS);
            ((other, bytes, signature), false)
        }
        // A longer message, past the one-block path.
        4 => {
            bytes.extend((0..byte as u8).map(|i| i.wrapping_mul(13)));
            let signature = key.sign(&bytes);
            ((user, bytes, signature), registered)
        }
        // A duplicate of an earlier record of the batch.
        5 if !earlier.is_empty() => earlier[byte % earlier.len()].clone(),
        // Signed under the replaced key.
        6 => {
            let user = UserId::new(REKEYED);
            let bytes = message(file, REKEYED, value);
            let signature = fx.stale.sign(&bytes);
            ((user, bytes, signature), false)
        }
        _ => ((user, bytes, signature), registered),
    }
}

fn check(fx: &Fixture, draws: &[(u64, u64, u8, usize)]) {
    let mut built: Vec<(Record, bool)> = Vec::new();
    for &draw in draws {
        let next = record(fx, &built, draw);
        built.push(next);
    }
    let (records, expected): (Vec<_>, Vec<bool>) = built.into_iter().unzip();
    let scalar: Vec<bool> = records
        .iter()
        .map(|(user, message, sig)| fx.registry.verify(*user, message, sig))
        .collect();
    assert_eq!(scalar, expected, "per-record verify on {draws:?}");
    assert_eq!(
        fx.registry.verify_batch(&records),
        scalar,
        "batch of {}",
        records.len()
    );
}

proptest! {
    #[test]
    fn batch_flags_equal_per_record_verify(
        draws in proptest::collection::vec((0u64..64, any::<u64>(), 0u8..8, 0usize..64), 0..=40),
    ) {
        check(&fixture(), &draws);
    }
}

#[test]
fn every_batch_size_up_to_40_agrees() {
    let fx = fixture();
    let mut rng = TestRng::for_test("every_batch_size_up_to_40_agrees");
    for size in 0..=40 {
        for _ in 0..4 {
            let draws: Vec<_> = (0..size)
                .map(|_| {
                    let word = rng.next_u64();
                    (
                        word % 64,
                        rng.next_u64(),
                        (word >> 8) as u8 % 8,
                        (word >> 16) as usize % 64,
                    )
                })
                .collect();
            check(&fx, &draws);
        }
    }
}
