//! Evaluation co-publication: `EvaluationInfo` records, signatures, and the
//! publish/retrieve flow of Figure 2.

use crate::dht::{Dht, DhtError};
use crate::id::Key;
use mdrep_crypto::{KeyRegistry, Signature, SigningKey};
use mdrep_types::{Evaluation, FileId, SimTime, UserId};
use std::fmt;

/// The record a user co-publishes with a file's index:
/// `<FileID, OwnerID, Evaluation, Signature>` (Section 4.1).
#[derive(Debug, Clone, PartialEq)]
pub struct EvaluationInfo {
    /// The evaluated file.
    pub file: FileId,
    /// The evaluating owner.
    pub owner: UserId,
    /// The owner's evaluation.
    pub evaluation: Evaluation,
    /// Signature over (file, owner, evaluation).
    pub signature: Signature,
}

impl EvaluationInfo {
    /// Builds and signs a record.
    #[must_use]
    pub fn signed(file: FileId, owner: UserId, evaluation: Evaluation, key: &SigningKey) -> Self {
        let signature = key.sign(&Self::message_bytes(file, owner, evaluation));
        Self {
            file,
            owner,
            evaluation,
            signature,
        }
    }

    /// Verifies the signature against the registry.
    #[must_use]
    pub fn verify(&self, registry: &KeyRegistry) -> bool {
        registry.verify(
            self.owner,
            &Self::message_bytes(self.file, self.owner, self.evaluation),
            &self.signature,
        )
    }

    /// Verifies every record against the registry in one
    /// [`KeyRegistry::verify_batch`] call: one flag per record, in order,
    /// each equal to [`verify`](Self::verify)'s.
    pub(crate) fn verify_all<'a>(
        infos: impl IntoIterator<Item = &'a Self>,
        registry: &KeyRegistry,
    ) -> Vec<bool> {
        let records: Vec<_> = infos
            .into_iter()
            .map(|info| {
                let message = Self::message_bytes(info.file, info.owner, info.evaluation);
                (info.owner, message, info.signature)
            })
            .collect();
        registry.verify_batch(&records)
    }

    /// Canonical byte encoding (also the signing message):
    /// `file:u64 | owner:u64 | eval:f64-bits | signature:32`.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(8 + 8 + 8 + 32);
        out.extend_from_slice(&Self::message_bytes(self.file, self.owner, self.evaluation));
        out.extend_from_slice(self.signature.as_bytes());
        out
    }

    /// Decodes a record from [`encode`](Self::encode)'s format. Returns
    /// `None` for malformed input (wrong length or out-of-range value).
    #[must_use]
    pub fn decode(bytes: &[u8]) -> Option<Self> {
        if bytes.len() != 8 + 8 + 8 + 32 {
            return None;
        }
        let file = FileId::new(u64::from_be_bytes(bytes[0..8].try_into().ok()?));
        let owner = UserId::new(u64::from_be_bytes(bytes[8..16].try_into().ok()?));
        let value = f64::from_bits(u64::from_be_bytes(bytes[16..24].try_into().ok()?));
        let evaluation = Evaluation::new(value).ok()?;
        let signature = Signature::from_bytes(bytes[24..56].try_into().ok()?);
        Some(Self {
            file,
            owner,
            evaluation,
            signature,
        })
    }

    fn message_bytes(file: FileId, owner: UserId, evaluation: Evaluation) -> [u8; 24] {
        let mut out = [0; 24];
        out[0..8].copy_from_slice(&file.as_u64().to_be_bytes());
        out[8..16].copy_from_slice(&owner.as_u64().to_be_bytes());
        out[16..24].copy_from_slice(&evaluation.value().to_bits().to_be_bytes());
        out
    }
}

impl fmt::Display for EvaluationInfo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} rates {} at {}",
            self.owner, self.file, self.evaluation
        )
    }
}

/// A retrieved record whose signature has been checked.
#[derive(Debug, Clone, PartialEq)]
pub struct VerifiedEvaluation {
    /// The decoded record.
    pub info: EvaluationInfo,
    /// Whether the signature verified against the registry. Consumers
    /// must drop records with `valid == false` (attack 1 of Section 4.2).
    pub valid: bool,
}

/// The full result of an evaluation retrieval under faults: the verified
/// records plus how degraded the retrieval was, so callers can compute
/// Eq. 9 file reputations from a partial owner list *knowingly*.
#[derive(Debug, Clone, PartialEq)]
pub struct RetrievalOutcome {
    /// Decoded, signature-checked records (tampered/garbage bytes that do
    /// not decode are counted in `undecodable`, not returned).
    pub records: Vec<VerifiedEvaluation>,
    /// Users owning replica nodes that never answered after retries.
    pub unreachable: Vec<UserId>,
    /// Replica nodes contacted.
    pub contacted: usize,
    /// Retry attempts the retrieval spent.
    pub retries: u64,
    /// Values that failed to decode (e.g. tampered by byzantine nodes).
    pub undecodable: usize,
}

impl RetrievalOutcome {
    /// Whether every contacted replica answered.
    #[must_use]
    pub fn is_complete(&self) -> bool {
        self.unreachable.is_empty()
    }

    /// The records that decoded *and* verified — the only ones Eq. 9 may
    /// aggregate.
    pub fn valid_records(&self) -> impl Iterator<Item = &VerifiedEvaluation> {
        self.records.iter().filter(|r| r.valid)
    }
}

/// Publishes and retrieves evaluation records through a [`Dht`], enforcing
/// signatures end to end.
///
/// # Examples
///
/// ```
/// use mdrep_crypto::KeyRegistry;
/// use mdrep_dht::{Dht, DhtConfig, EvaluationPublisher};
/// use mdrep_types::{Evaluation, FileId, SimTime, UserId};
///
/// let mut dht = Dht::new(DhtConfig::default());
/// let mut registry = KeyRegistry::new();
/// for i in 0..16 {
///     dht.join(UserId::new(i), SimTime::ZERO);
/// }
/// let alice = UserId::new(1);
/// let key = registry.register(alice, 7);
/// let publisher = EvaluationPublisher::new();
///
/// publisher
///     .publish(&mut dht, &key, alice, FileId::new(3), Evaluation::BEST, SimTime::ZERO)
///     .unwrap();
/// let records = publisher
///     .retrieve(&mut dht, &registry, UserId::new(9), FileId::new(3), SimTime::ZERO)
///     .unwrap();
/// assert_eq!(records.len(), 1);
/// assert!(records[0].valid);
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct EvaluationPublisher;

impl EvaluationPublisher {
    /// Creates the publisher façade.
    #[must_use]
    pub fn new() -> Self {
        Self
    }

    /// Fig. 2 step 1: signs and stores `owner`'s evaluation of `file` at
    /// the file's index nodes.
    ///
    /// # Errors
    ///
    /// Propagates [`DhtError`] from the underlying store.
    pub fn publish(
        &self,
        dht: &mut Dht,
        key: &SigningKey,
        owner: UserId,
        file: FileId,
        evaluation: Evaluation,
        now: SimTime,
    ) -> Result<usize, DhtError> {
        let info = EvaluationInfo::signed(file, owner, evaluation, key);
        dht.store(owner, Key::for_file(file), info.encode(), now)
    }

    /// Fig. 2 step 3: retrieves the evaluation array for `file`, decoding
    /// and signature-checking every record. Malformed records are dropped;
    /// bad-signature records are returned with `valid == false` so callers
    /// can count forgeries.
    ///
    /// # Errors
    ///
    /// Propagates [`DhtError`] from the underlying lookup.
    pub fn retrieve(
        &self,
        dht: &mut Dht,
        registry: &KeyRegistry,
        requester: UserId,
        file: FileId,
        now: SimTime,
    ) -> Result<Vec<VerifiedEvaluation>, DhtError> {
        self.retrieve_detailed(dht, registry, requester, file, now)
            .map(|outcome| outcome.records)
    }

    /// Like [`retrieve`](Self::retrieve) but also reports the degradation:
    /// which replica owners were unreachable, how many retries were spent,
    /// and how many served values failed to decode (byzantine tampering
    /// shows up here or as `valid == false` — never as an accepted
    /// record).
    ///
    /// # Errors
    ///
    /// Propagates [`DhtError`] from the underlying lookup.
    pub fn retrieve_detailed(
        &self,
        dht: &mut Dht,
        registry: &KeyRegistry,
        requester: UserId,
        file: FileId,
        now: SimTime,
    ) -> Result<RetrievalOutcome, DhtError> {
        self.retrieve_keyed(dht, registry, requester, Key::for_file(file), now)
    }

    /// [`retrieve_detailed`](Self::retrieve_detailed) under the file's
    /// index key, for a caller that has already derived it.
    pub(crate) fn retrieve_keyed(
        &self,
        dht: &mut Dht,
        registry: &KeyRegistry,
        requester: UserId,
        key: Key,
        now: SimTime,
    ) -> Result<RetrievalOutcome, DhtError> {
        let got = dht.get(requester, key, now)?;
        let mut records: Vec<VerifiedEvaluation> = got
            .values
            .iter()
            .filter_map(|bytes| EvaluationInfo::decode(bytes))
            .map(|info| VerifiedEvaluation { info, valid: false })
            .collect();
        let undecodable = got.values.len() - records.len();
        let valid = EvaluationInfo::verify_all(records.iter().map(|r| &r.info), registry);
        for (record, valid) in records.iter_mut().zip(valid) {
            record.valid = valid;
        }
        Ok(RetrievalOutcome {
            records,
            unreachable: got.unreachable,
            contacted: got.contacted,
            retries: got.retries,
            undecodable,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dht::DhtConfig;

    fn u(i: u64) -> UserId {
        UserId::new(i)
    }
    fn f(i: u64) -> FileId {
        FileId::new(i)
    }

    fn setup(n: u64) -> (Dht, KeyRegistry) {
        let mut dht = Dht::new(DhtConfig::default());
        let mut registry = KeyRegistry::new();
        for i in 0..n {
            dht.join(u(i), SimTime::ZERO);
            registry.register(u(i), 1000 + i);
        }
        (dht, registry)
    }

    #[test]
    fn encode_decode_round_trip() {
        let key = SigningKey::from_seed(5);
        let info = EvaluationInfo::signed(f(7), u(3), Evaluation::new(0.25).unwrap(), &key);
        let decoded = EvaluationInfo::decode(&info.encode()).unwrap();
        assert_eq!(decoded, info);
        assert!(info.to_string().contains("U3"));
    }

    #[test]
    fn decode_rejects_malformed() {
        assert!(EvaluationInfo::decode(&[]).is_none());
        assert!(EvaluationInfo::decode(&[0u8; 55]).is_none());
        assert!(EvaluationInfo::decode(&[0u8; 57]).is_none());
        // Out-of-range evaluation bits.
        let key = SigningKey::from_seed(1);
        let mut bytes = EvaluationInfo::signed(f(0), u(0), Evaluation::BEST, &key).encode();
        bytes[16..24].copy_from_slice(&f64::to_bits(2.5).to_be_bytes());
        assert!(EvaluationInfo::decode(&bytes).is_none());
    }

    #[test]
    fn signature_verifies_through_registry() {
        let mut registry = KeyRegistry::new();
        let key = registry.register(u(1), 9);
        let info = EvaluationInfo::signed(f(0), u(1), Evaluation::BEST, &key);
        assert!(info.verify(&registry));
        // Claiming someone else's identity fails.
        let forged = EvaluationInfo {
            owner: u(2),
            ..info.clone()
        };
        registry.register(u(2), 10);
        assert!(!forged.verify(&registry));
    }

    #[test]
    fn tampered_evaluation_fails_verification() {
        let mut registry = KeyRegistry::new();
        let key = registry.register(u(1), 9);
        let info = EvaluationInfo::signed(f(0), u(1), Evaluation::BEST, &key);
        let tampered = EvaluationInfo {
            evaluation: Evaluation::WORST,
            ..info
        };
        assert!(!tampered.verify(&registry));
    }

    #[test]
    fn publish_retrieve_round_trip() {
        let (mut dht, registry) = setup(20);
        let publisher = EvaluationPublisher::new();
        let key = registry.key_of(u(1)).unwrap().clone();
        publisher
            .publish(
                &mut dht,
                &key,
                u(1),
                f(5),
                Evaluation::new(0.9).unwrap(),
                SimTime::ZERO,
            )
            .unwrap();
        let records = publisher
            .retrieve(&mut dht, &registry, u(7), f(5), SimTime::ZERO)
            .unwrap();
        assert_eq!(records.len(), 1);
        assert!(records[0].valid);
        assert_eq!(records[0].info.owner, u(1));
        assert!((records[0].info.evaluation.value() - 0.9).abs() < 1e-12);
    }

    #[test]
    fn multiple_owners_coexist() {
        let (mut dht, registry) = setup(20);
        let publisher = EvaluationPublisher::new();
        for i in 1..4 {
            let key = registry.key_of(u(i)).unwrap().clone();
            publisher
                .publish(&mut dht, &key, u(i), f(5), Evaluation::BEST, SimTime::ZERO)
                .unwrap();
        }
        let records = publisher
            .retrieve(&mut dht, &registry, u(9), f(5), SimTime::ZERO)
            .unwrap();
        assert_eq!(records.len(), 3);
        assert!(records.iter().all(|r| r.valid));
    }

    #[test]
    fn forged_record_is_flagged_not_hidden() {
        let (mut dht, registry) = setup(20);
        let publisher = EvaluationPublisher::new();
        // User 2 signs with its own key but claims to be user 1: the record
        // decodes but fails verification.
        let key2 = registry.key_of(u(2)).unwrap().clone();
        let forged = EvaluationInfo::signed(f(5), u(1), Evaluation::BEST, &key2);
        dht.store(u(2), Key::for_file(f(5)), forged.encode(), SimTime::ZERO)
            .unwrap();
        let records = publisher
            .retrieve(&mut dht, &registry, u(9), f(5), SimTime::ZERO)
            .unwrap();
        assert_eq!(records.len(), 1);
        assert!(!records[0].valid, "forgery detected");
    }

    #[test]
    fn byzantine_index_peer_tampering_is_never_accepted() {
        use crate::fault::FaultPlan;
        // Every node is byzantine: whatever replica serves the record
        // tampers with it, so no retrieval may yield a valid evaluation.
        let mut plan = FaultPlan::none().with_seed(11);
        for i in 0..20 {
            plan = plan.with_byzantine(u(i));
        }
        let mut dht = Dht::new(DhtConfig {
            fault: plan,
            ..DhtConfig::default()
        });
        let mut registry = KeyRegistry::new();
        for i in 0..20 {
            dht.join(u(i), SimTime::ZERO);
            registry.register(u(i), 1000 + i);
        }
        let publisher = EvaluationPublisher::new();
        let key = registry.key_of(u(1)).unwrap().clone();
        publisher
            .publish(&mut dht, &key, u(1), f(5), Evaluation::BEST, SimTime::ZERO)
            .unwrap();
        let outcome = publisher
            .retrieve_detailed(&mut dht, &registry, u(9), f(5), SimTime::ZERO)
            .unwrap();
        assert_eq!(outcome.valid_records().count(), 0, "tampering detected");
        assert!(
            outcome.undecodable > 0 || outcome.records.iter().any(|r| !r.valid),
            "the tampered value surfaced as undecodable or invalid"
        );
        assert!(dht.fault_trace().tampered > 0);
    }

    #[test]
    fn garbage_values_are_dropped() {
        let (mut dht, registry) = setup(20);
        dht.store(
            u(1),
            Key::for_file(f(5)),
            b"garbage".to_vec(),
            SimTime::ZERO,
        )
        .unwrap();
        let publisher = EvaluationPublisher::new();
        let records = publisher
            .retrieve(&mut dht, &registry, u(9), f(5), SimTime::ZERO)
            .unwrap();
        assert!(records.is_empty());
    }
}
