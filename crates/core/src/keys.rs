//! Key material, per-node key stores, and the shared-allocation machinery
//! behind them.
//!
//! Under **local authentication** each node ends the key distribution
//! protocol with its own [`KeyStore`]: the set of test predicates it has
//! personally accepted. Stores of different correct nodes agree on correct
//! nodes' keys (Theorem 2 / properties G1–G2) but may *disagree* about
//! faulty nodes' keys — that is exactly the G3 gap the chain-signature
//! verification discipline closes.
//!
//! ## Allocation discipline
//!
//! Stores are *logically* private per node but *physically* share key
//! material. Every accepted entry is an `Arc<PublicKey>`, and a store's
//! table of entries is shared copy-on-write: cloning a store is one
//! reference-count increment, and [`KeyStore::accept`] on a shared table
//! copies it first, so no store ever sees another's acceptances. A
//! [`PredicateTable`] holds the cluster's true predicates once, and every
//! store holding exactly those allocations (dealer stores, and honest
//! stores after an honest key distribution) shares its one table. A store
//! holding any other predicate keeps a private table; key distribution
//! interns announcements, so even that table allocates only the keys it
//! disagrees about. Sharing never changes which bytes a store holds.
//!
//! ## Verification caching
//!
//! [`VerifyCache`] memoizes verification per run in two layers. The
//! **signature layer** memoizes the pure `scheme.verify(pk, msg, sig)`
//! by its exact input bytes, so it is sound even when shared by nodes
//! whose stores disagree (they hold different `pk` bytes). The chain
//! discipline re-checks the full chain at every hop; this layer makes hop
//! `k + 1` pay only for its one new signature.
//!
//! The **cohort layer** sits on top, and `screen` is the one path every
//! chain receiver verifies through: chain FD relays and disseminated
//! nodes, small range, FD→BA's alarms, vector FD, degradable agreement
//! and Dolev–Strong. A broadcast or a dissemination hands one shared
//! payload buffer to many receivers, so the whole screening pipeline
//! (decode, structure checks, signer extraction, verification) is judged
//! once per [`CohortKey`] — `(payload ident, sender, round)` — and the
//! resulting [`CohortVerdict`] is replayed for every other receiver whose
//! store resolves the implied signers to the same predicates: one pointer
//! compare for a store sharing the judging store's table, signer by
//! signer otherwise. A store that disagrees about a signer's key (the G3
//! gap) gets its own entry, so batching never merges genuinely different
//! verdicts. Each protocol reads the verdict with its own structure rule
//! ([`CohortVerdict::read`]). Where no cohort is shared (identical bytes
//! in distinct buffers, as a cluster worker decodes them, or
//! [`VerifyCache::without_cohorts`]) a chain is judged again, and the
//! signature layer answers each of its signatures.

use crate::chain::ChainView;
use crate::outcome::DiscoveryReason;
use fd_crypto::{PublicKey, SecretKey, Signature, SignatureScheme};
use fd_simnet::{Envelope, NodeId, Payload};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::ops::RangeInclusive;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// A node's own signing identity (`S_i`, `T_i` in the paper).
#[derive(Debug, Clone)]
pub struct Keyring {
    /// The node this keyring belongs to.
    pub me: NodeId,
    /// Secret key `S_i`.
    pub sk: SecretKey,
    /// Public test predicate `T_i`.
    pub pk: PublicKey,
}

impl Keyring {
    /// Deterministically generate node `me`'s keyring.
    ///
    /// The seed mixes the cluster seed with the node id so every node gets
    /// an independent key, reproducibly.
    pub fn generate(scheme: &dyn SignatureScheme, me: NodeId, cluster_seed: u64) -> Self {
        let seed = cluster_seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(me.0 as u64 + 1);
        let (sk, pk) = scheme.keypair_from_seed(seed);
        Keyring { me, sk, pk }
    }
}

/// A store's accepted predicates, indexed by node: `None` where nothing
/// was accepted. Shared copy-on-write between stores.
type Slots = Arc<Vec<Option<Arc<PublicKey>>>>;

/// The cluster's true test predicates, allocated once and shared by every
/// store that accepts them.
///
/// [`KeyStore::global_shared`] builds trusted-dealer stores on the table's
/// own slots. Key distribution *interns* announced predicates against it
/// — bytes matching the canonical predicate reuse its allocation,
/// anything else (a faulty announcer) gets a private one — and moves each
/// finished store that holds only canonical keys onto the shared slots
/// ([`KeyStore::share_canonical`]). The interning counters make the
/// allocation profile observable: `distinct_allocations()` is
/// `n + fresh` and stays `O(n)` in the honest case (asserted by the
/// large-`n` sharing tests).
#[derive(Debug)]
pub struct PredicateTable {
    slots: Slots,
    interned: AtomicUsize,
    fresh: AtomicUsize,
}

impl PredicateTable {
    /// Build the table from the cluster parameters (the same derivation as
    /// [`Keyring::generate`], predicate part only).
    pub fn generate(scheme: &dyn SignatureScheme, n: usize, cluster_seed: u64) -> Self {
        let keys = (0..n)
            .map(|i| Arc::new(Keyring::generate(scheme, NodeId(i as u16), cluster_seed).pk))
            .collect();
        PredicateTable::from_keys(keys)
    }

    /// Build the table from the public halves of already generated
    /// keyrings, indexed by node.
    pub fn from_rings(rings: &[Keyring]) -> Self {
        PredicateTable::from_keys(rings.iter().map(|r| Arc::new(r.pk.clone())).collect())
    }

    /// Build the table from already generated predicates.
    pub fn from_keys(keys: Vec<Arc<PublicKey>>) -> Self {
        PredicateTable {
            slots: Arc::new(keys.into_iter().map(Some).collect()),
            interned: AtomicUsize::new(0),
            fresh: AtomicUsize::new(0),
        }
    }

    /// Number of canonical predicates.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// `true` for the degenerate empty table.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// The canonical shared predicate of `node`, if in range.
    pub fn entry(&self, node: NodeId) -> Option<&Arc<PublicKey>> {
        self.slots.get(node.index()).and_then(Option::as_ref)
    }

    /// Intern predicate bytes announced by `node`: bytes equal to the
    /// canonical predicate share its allocation, anything else allocates
    /// privately. Either way the returned key holds exactly `bytes` — the
    /// table is an allocation optimization, never a semantic one.
    pub fn intern(&self, node: NodeId, bytes: Vec<u8>) -> Arc<PublicKey> {
        if let Some(canonical) = self.entry(node) {
            if canonical.as_bytes() == bytes {
                self.interned.fetch_add(1, Ordering::Relaxed);
                return Arc::clone(canonical);
            }
        }
        self.fresh.fetch_add(1, Ordering::Relaxed);
        Arc::new(PublicKey::new(bytes))
    }

    /// How many intern calls reused a shared allocation.
    pub fn interned_count(&self) -> usize {
        self.interned.load(Ordering::Relaxed)
    }

    /// How many intern calls had to allocate privately.
    pub fn fresh_count(&self) -> usize {
        self.fresh.load(Ordering::Relaxed)
    }

    /// Distinct `PublicKey` allocations attributable to this table: the
    /// `n` canonical keys plus every non-interned announcement. `O(n)` in
    /// the honest case regardless of how many stores were built.
    pub fn distinct_allocations(&self) -> usize {
        self.slots.len() + self.fresh_count()
    }

    /// How many handles currently share `node`'s canonical allocation
    /// (including the table's own). Stores sharing the table's slots hold
    /// none of their own, so this counts the private tables that hold it.
    pub fn ref_count(&self, node: NodeId) -> Option<usize> {
        self.entry(node).map(Arc::strong_count)
    }
}

/// Per-run memoization of signature-predicate evaluations.
///
/// Cloning shares the cache; a fresh one is installed per protocol run
/// (see `Cluster::dispatch`) so memory stays bounded by a single run's
/// distinct signatures. Two layers:
///
/// * **Signature level** — `(scheme, pk, msg, sig) → bool`, consulted by
///   [`KeyStore::assigns`]. Sound because the predicate is pure. The key
///   is the exact bytes of all four, each length-prefixed, so inputs that
///   differ anywhere — or only in where one part ends and the next
///   begins — never share an entry.
/// * **Cohort level** (see the module docs) — a receiver locks it for its
///   inbox (`VerifyCache::cohorts`) and screens each chain envelope
///   through `screen`, whose visitor reads the verdict in place and hands
///   back only what the receiver keeps: the common hit (an echo, or a body
///   the receiver has already extracted) takes no lock of its own, copies
///   nothing and touches no reference count. A store-dependent verdict is
///   replayed only for a store that sees its signers as the judging store
///   did, so stores disagreeing about a faulty signer (G3) still disagree
///   — loudly.
///
/// The signature map hashes with the standard library's SipHash: in
/// `lafd cluster` its key bytes arrive from other processes, and a peer
/// that chose them could otherwise aim them all at one bucket. The cohort
/// map hashes with `WordHasher`: its keys are `(payload ident, sender,
/// round)` triples the simulator makes itself, so a flooding-resistant
/// hash would buy nothing there and cost time on every lookup.
#[derive(Clone, Debug, Default)]
pub struct VerifyCache {
    sigs: Arc<Mutex<HashMap<Vec<u8>, bool>>>,
    cohorts: Arc<Mutex<CohortMap>>,
    /// Set by [`VerifyCache::without_cohorts`]: this handle bypasses the
    /// cohort layer entirely (the signature layer stays active). The
    /// unbatched reference runs of the equivalence tests use this to force
    /// per-message verification.
    cohorts_disabled: bool,
    hits: Arc<AtomicUsize>,
    misses: Arc<AtomicUsize>,
    /// Wall-clock nanoseconds spent inside signature-predicate
    /// evaluations on the miss path, accumulated only when
    /// [`VerifyCache::with_timing`] armed the accumulator. `None` (the
    /// default) keeps the hot path free of clock reads.
    verify_ns: Option<Arc<std::sync::atomic::AtomicU64>>,
}

/// The cohort verdicts, and the hits they served: counted under the
/// cohort lock a receiver holds anyway, so a hit costs no atomic add.
#[derive(Debug, Default)]
struct CohortMap {
    cohorts: WordMap<CohortKey, Cohort>,
    hits: usize,
}

/// A `HashMap` hashed by [`WordHasher`].
type WordMap<K, V> = HashMap<K, V, BuildHasherDefault<WordHasher>>;

/// The cohort map's hasher: one multiply-rotate step per machine word of
/// the key, and no per-map random state. It is fit only for keys no
/// remote peer picks (see [`VerifyCache`]); an attacker who chooses keys
/// could aim them all at one bucket.
#[derive(Clone, Copy, Debug, Default)]
struct WordHasher(u64);

impl WordHasher {
    /// Fold one word in. The odd multiplier spreads each input bit over
    /// the bits above it; the rotation carries the high bits of earlier
    /// words down into the low bits the next multiply reads.
    fn mix(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

impl Hasher for WordHasher {
    /// A cohort key hashes as integers only (the methods below); bytes
    /// take one step each.
    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.mix(u64::from(byte));
        }
    }

    fn write_u16(&mut self, i: u16) {
        self.mix(u64::from(i));
    }

    fn write_u32(&mut self, i: u32) {
        self.mix(u64::from(i));
    }

    fn write_usize(&mut self, i: usize) {
        self.mix(i as u64);
    }

    /// The multiply leaves its best-mixed bits at the top of the word;
    /// the rotation brings them down to the low bits a `HashMap` takes
    /// its bucket index from.
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

/// Cohort identity: the payload's allocation ident
/// ([`Payload::ident`]), the immediate sender, and the round the chain is
/// being validated for. A broadcast hands one shared buffer to `n − 1`
/// receivers, so all of them compute the same key with three word reads —
/// no hashing of the chain bytes.
pub type CohortKey = ((usize, usize, usize), NodeId, u32);

/// One judged cohort member: the verdict, and for a verdict that depends
/// on the store, the table of the store it was judged under. Holding the
/// table keeps it shared, so [`KeyStore::accept`] copies it instead of
/// writing to it: the entry's view of every signer stays as judged.
#[derive(Debug)]
struct CohortEntry {
    table: Option<Slots>,
    verdict: CohortVerdict,
}

impl CohortEntry {
    /// Does `store` see exactly the predicates this verdict was judged
    /// under? Table identity first (honest stores share one table, so the
    /// honest case is one pointer compare); otherwise signer by signer,
    /// pointer equality before byte equality, the correct fallback for
    /// disagreeing allocations that happen to hold the same bytes. A
    /// signer outside the tables (a chain may name any id) reads as
    /// accepted by neither.
    fn holds_for(&self, store: &KeyStore) -> bool {
        let Some(table) = &self.table else {
            return true;
        };
        Arc::ptr_eq(table, &store.accepted)
            || self.verdict.signers().iter().all(|s| {
                let judged = table.get(s.index()).and_then(Option::as_ref);
                match (store.accepted_shared(*s), judged) {
                    (None, None) => true,
                    (Some(a), Some(b)) => Arc::ptr_eq(a, b) || a == b,
                    _ => false,
                }
            })
    }
}

/// All verdicts recorded for one cohort key. `pin` keeps the payload's
/// backing buffer alive for the life of the cache, so the raw address in
/// the key can never be recycled by a new allocation — equal keys
/// therefore always mean equal bytes.
#[derive(Debug)]
struct Cohort {
    _pin: Payload,
    entries: Vec<CohortEntry>,
}

/// The batched-verification verdict on one member of a broadcast cohort.
///
/// [`CohortVerdict::judge`] runs the protocol-independent screening once
/// per `(payload buffer, sender, round, store view)` class; every other
/// receiver of the same broadcast replays the verdict from the cohort
/// cache (see `screen`). The first three variants depend only on the
/// chain bytes (any store reaches them identically); the last two also
/// depend on the receiver's accepted predicates, so they are cached
/// together with the store table they were judged under.
///
/// What a verdict *means* to a receiver still depends on the receiver
/// and its protocol: each protocol reads it through
/// [`CohortVerdict::read`] with its own structure rule, and Dolev–Strong
/// first drops an echo of a chain its receiver already signed. Those
/// rules are deliberately left out of the verdict so one verdict serves
/// the whole cohort.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CohortVerdict {
    /// The payload does not decode to a chain message.
    Malformed,
    /// Wrong claimed origin or wrong signature count for the round.
    BadChain,
    /// The signer sequence repeats a node.
    Duplicate {
        /// The implied signer sequence (origin first).
        signers: Arc<[NodeId]>,
    },
    /// The chain verified; `body` is the carried value.
    Accept {
        /// The implied signer sequence (origin first).
        signers: Arc<[NodeId]>,
        /// The chain's body bytes, shared across the cohort.
        body: Arc<[u8]>,
    },
    /// Verification discovered a failure.
    Discovered {
        /// The implied signer sequence (origin first).
        signers: Arc<[NodeId]>,
        /// The chain's body bytes, for protocols whose structure rule
        /// reads the value.
        body: Arc<[u8]>,
        /// The discovery the verification raised.
        reason: DiscoveryReason,
    },
}

impl CohortVerdict {
    /// Judge one cohort member: structural screening, then cryptographic
    /// verification through the store (and its signature cache).
    ///
    /// `chain` is `None` when the payload failed to parse — the caller
    /// parses (once per cohort, on the miss path) so this module never
    /// learns the wire framing. `origin` is the node the chain must
    /// start at (`None`: any node may originate) and `count` the
    /// signature counts a chain judged at this key may carry.
    pub fn judge(
        scheme: &dyn SignatureScheme,
        store: &KeyStore,
        chain: Option<ChainView<'_>>,
        from: NodeId,
        origin: Option<NodeId>,
        count: RangeInclusive<usize>,
    ) -> CohortVerdict {
        let Some(chain) = chain else {
            return CohortVerdict::Malformed;
        };
        if origin.is_some_and(|o| o != chain.origin) || !count.contains(&chain.signature_count()) {
            return CohortVerdict::BadChain;
        }
        let signers = chain.signer_sequence(from);
        let mut sorted = signers.clone();
        sorted.sort_unstable();
        let repeated = sorted.windows(2).any(|pair| pair[0] == pair[1]);
        let signers: Arc<[NodeId]> = signers.into();
        if repeated {
            return CohortVerdict::Duplicate { signers };
        }
        let body = Arc::from(chain.body);
        match chain.verify(scheme, store, &signers) {
            Ok(_) => CohortVerdict::Accept { signers, body },
            Err(reason) => CohortVerdict::Discovered {
                signers,
                body,
                reason,
            },
        }
    }

    /// The implied signer sequence, when the chain decoded with plausible
    /// structure (empty for [`CohortVerdict::Malformed`] and
    /// [`CohortVerdict::BadChain`], whose handling never needs it).
    pub fn signers(&self) -> &[NodeId] {
        match self {
            CohortVerdict::Malformed | CohortVerdict::BadChain => &[],
            CohortVerdict::Duplicate { signers }
            | CohortVerdict::Accept { signers, .. }
            | CohortVerdict::Discovered { signers, .. } => signers,
        }
    }

    /// The verdict as one receiver's result, structure before signature:
    /// a chain that does not decode is [`DiscoveryReason::Malformed`]; a
    /// wrong origin or count, a repeated signer, or a chain whose signers
    /// and body fail the protocol's `structure_ok` rule is
    /// [`DiscoveryReason::BadStructure`]; only then does the
    /// verification's own discovery or the accepted body count.
    pub fn read(
        &self,
        structure_ok: impl FnOnce(&[NodeId], &[u8]) -> bool,
    ) -> Result<&Arc<[u8]>, DiscoveryReason> {
        let (signers, body) = match self {
            CohortVerdict::Malformed => return Err(DiscoveryReason::Malformed),
            CohortVerdict::BadChain | CohortVerdict::Duplicate { .. } => {
                return Err(DiscoveryReason::BadStructure)
            }
            CohortVerdict::Accept { signers, body }
            | CohortVerdict::Discovered { signers, body, .. } => (signers, body),
        };
        if !structure_ok(signers, body) {
            return Err(DiscoveryReason::BadStructure);
        }
        match self {
            CohortVerdict::Discovered { reason, .. } => Err(reason.clone()),
            _ => Ok(body),
        }
    }

    /// Whether the verdict depends on the judging store's accepted
    /// predicates (and must therefore be matched against the store it was
    /// judged under).
    fn store_dependent(&self) -> bool {
        matches!(
            self,
            CohortVerdict::Accept { .. } | CohortVerdict::Discovered { .. }
        )
    }
}

/// What a receiver expects of one chain envelope: its protocol's
/// parser (the wire message's chain, read in place, or `None` when the
/// payload is not one such message;
/// [`ChainMsg::chain_of`](crate::chain::ChainMsg::chain_of) for the
/// tag-plus-chain messages), the chain's origin (`None`: any node) and
/// the signature counts it takes. All three must be functions of the cohort key — the
/// payload bytes, the sender and the round — so that every receiver
/// sharing a key would judge alike.
pub(crate) struct Expect {
    pub(crate) decode: fn(&[u8]) -> Option<ChainView<'_>>,
    pub(crate) origin: Option<NodeId>,
    pub(crate) count: RangeInclusive<usize>,
}

/// Screen one chain envelope for a receiver holding `store`: the one
/// path every chain receiver verifies through.
///
/// With the cohort layer (`cohorts` is `Some`), the verdict recorded
/// under `(payload ident, sender, round)` for this store's view of the
/// signers is replayed without decoding, hashing or copying; on a miss
/// the envelope is decoded and judged once and the verdict recorded for
/// the rest of the cohort. Without it (a store with no cache, or a
/// [`VerifyCache::without_cohorts`] handle) every envelope is judged and
/// nothing is recorded. Either way `visit` reads the verdict in place and
/// returns only what its receiver keeps.
pub(crate) fn screen<R>(
    mut cohorts: Option<&mut Cohorts<'_>>,
    scheme: &dyn SignatureScheme,
    store: &KeyStore,
    env: &Envelope,
    round: u32,
    expect: Expect,
    visit: impl FnOnce(&CohortVerdict) -> R,
) -> R {
    let key: CohortKey = (env.payload.ident(), env.from, round);
    if let Some(verdict) = cohorts.as_deref_mut().and_then(|c| c.get(&key, store)) {
        return visit(verdict);
    }
    let chain = (expect.decode)(&env.payload);
    let verdict = CohortVerdict::judge(scheme, store, chain, env.from, expect.origin, expect.count);
    let seen = visit(&verdict);
    if let Some(cohorts) = cohorts {
        cohorts.put(key, &env.payload, store, verdict);
    }
    seen
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// The signature memo's key: the scheme's name, `pk`, `msg` and `sig`,
/// each prefixed with its length.
fn sig_key(scheme: &dyn SignatureScheme, pk: &PublicKey, msg: &[u8], sig: &[u8]) -> Vec<u8> {
    let pk = pk.as_bytes();
    // Room for the four length prefixes and a name of up to 32 bytes.
    let mut key = Vec::with_capacity(64 + pk.len() + msg.len() + sig.len());
    key.extend_from_slice(&[0; 8]);
    scheme.append_name(&mut key);
    let name_len = key.len() as u64 - 8;
    key[..8].copy_from_slice(&name_len.to_le_bytes());
    for part in [pk, msg, sig] {
        key.extend_from_slice(&(part.len() as u64).to_le_bytes());
        key.extend_from_slice(part);
    }
    key
}

impl VerifyCache {
    /// Fresh empty cache.
    pub fn new() -> Self {
        VerifyCache::default()
    }

    /// Evaluate `scheme.verify(pk, msg, sig)` through the cache. The
    /// signature is borrowed: its bytes are copied into a [`Signature`]
    /// only when the memo misses.
    pub fn verify_sig(
        &self,
        scheme: &dyn SignatureScheme,
        pk: &PublicKey,
        msg: &[u8],
        sig: &[u8],
    ) -> bool {
        let key = sig_key(scheme, pk, msg, sig);
        if let Some(&cached) = lock(&self.sigs).get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return cached;
        }
        let sig = &Signature(sig.to_vec());
        let result = match &self.verify_ns {
            None => scheme.verify(pk, msg, sig),
            Some(acc) => {
                let start = std::time::Instant::now();
                let result = scheme.verify(pk, msg, sig);
                let spent = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
                acc.fetch_add(spent, Ordering::Relaxed);
                result
            }
        };
        self.misses.fetch_add(1, Ordering::Relaxed);
        lock(&self.sigs).insert(key, result);
        result
    }

    /// A handle with the cohort layer disabled (the signature layer
    /// unaffected). The flag is per-handle: cloning an enabled cache keeps
    /// cohorts on.
    #[must_use]
    pub fn without_cohorts(mut self) -> Self {
        self.cohorts_disabled = true;
        self
    }

    /// Whether this handle participates in cohort caching.
    pub fn cohorts_enabled(&self) -> bool {
        !self.cohorts_disabled
    }

    /// Lock the cohort layer for one batch of lookups (a receiver's
    /// inbox), or `None` when this handle has it disabled.
    pub(crate) fn cohorts(&self) -> Option<Cohorts<'_>> {
        (!self.cohorts_disabled).then(|| Cohorts {
            misses: &self.misses,
            map: lock(&self.cohorts),
        })
    }

    /// Cache hits so far (signature and cohort level combined).
    pub fn hits(&self) -> usize {
        self.hits.load(Ordering::Relaxed) + lock(&self.cohorts).hits
    }

    /// Cache misses: cohort judgements plus signature evaluations
    /// actually executed.
    pub fn misses(&self) -> usize {
        self.misses.load(Ordering::Relaxed)
    }

    /// Arm the wall-clock accumulator: clones of this handle (and the
    /// stores they are installed on) will time every signature-predicate
    /// evaluation executed on the miss path. Timing never changes results
    /// or cache contents — it only feeds
    /// [`VerifyCache::verify_wall_us`].
    pub fn with_timing(mut self) -> Self {
        self.verify_ns = Some(Arc::new(std::sync::atomic::AtomicU64::new(0)));
        self
    }

    /// Accumulated wall-clock microseconds of signature-predicate
    /// evaluation, or `None` when timing was never armed.
    pub fn verify_wall_us(&self) -> Option<u64> {
        self.verify_ns
            .as_ref()
            .map(|acc| acc.load(Ordering::Relaxed) / 1_000)
    }
}

/// The cohort layer of a [`VerifyCache`], locked for one batch of
/// lookups. A receiver holds it across its inbox, so the lock is taken
/// once per inbox instead of once per envelope. Judging a miss while it
/// is held is safe: verification reads only the signature map, behind its
/// own lock. Its holder must not call
/// [`VerifyCache::hits`], which reads the cohort hit count under this
/// lock.
pub(crate) struct Cohorts<'a> {
    misses: &'a AtomicUsize,
    map: MutexGuard<'a, CohortMap>,
}

impl Cohorts<'_> {
    /// The verdict recorded under `key` that holds for `store`'s view of
    /// its signers, if there is one; counts the hit.
    fn get(&mut self, key: &CohortKey, store: &KeyStore) -> Option<&CohortVerdict> {
        let map = &mut *self.map;
        let entry = map
            .cohorts
            .get(key)?
            .entries
            .iter()
            .find(|e| e.holds_for(store))?;
        map.hits += 1;
        Some(&entry.verdict)
    }

    /// Record a verdict judged under `store`, pinning `payload`'s buffer
    /// so the key's address stays live for the cache's lifetime.
    fn put(&mut self, key: CohortKey, payload: &Payload, store: &KeyStore, verdict: CohortVerdict) {
        let table = verdict
            .store_dependent()
            .then(|| Arc::clone(&store.accepted));
        self.misses.fetch_add(1, Ordering::Relaxed);
        self.map
            .cohorts
            .entry(key)
            .or_insert_with(|| Cohort {
                _pin: payload.clone(),
                entries: Vec::new(),
            })
            .entries
            .push(CohortEntry { table, verdict });
    }
}

/// The test predicates one node has accepted for its peers.
///
/// This is the *output* of the key distribution protocol (paper Fig. 1) and
/// the *input* to every authenticated protocol. Each node holds its own
/// store, logically private — but the entries are `Arc<PublicKey>` handles
/// and the table holding them is shared copy-on-write, so cloning a store
/// is one reference-count increment, stores that hold exactly the
/// canonical predicates share one [`PredicateTable`]'s table, and
/// [`KeyStore::accept`] copies the table only when another handle still
/// shares it.
#[derive(Debug, Clone)]
pub struct KeyStore {
    me: NodeId,
    accepted: Slots,
    accepted_count: usize,
    cache: Option<VerifyCache>,
}

impl KeyStore {
    /// Empty store for node `me` in an `n`-node system (nothing accepted).
    pub fn new(n: usize, me: NodeId) -> Self {
        KeyStore {
            me,
            accepted: Arc::new(vec![None; n]),
            accepted_count: 0,
            cache: None,
        }
    }

    /// Build a *globally authentic* store from the true public keys — the
    /// trusted-dealer alternative the paper contrasts with (G1–G3 all hold
    /// by construction). Used for baseline comparisons. Allocates fresh
    /// keys; use [`KeyStore::global_shared`] to share a
    /// [`PredicateTable`]'s allocations instead.
    pub fn global(me: NodeId, pks: &[PublicKey]) -> Self {
        let accepted: Vec<_> = pks.iter().cloned().map(Arc::new).map(Some).collect();
        KeyStore {
            me,
            accepted_count: accepted.len(),
            accepted: Arc::new(accepted),
            cache: None,
        }
    }

    /// Build a globally authentic store on `table`'s own slots: `n`
    /// stores over one [`PredicateTable`] share one table of `n` handles
    /// instead of holding `n` tables of `n`.
    pub fn global_shared(me: NodeId, table: &PredicateTable) -> Self {
        KeyStore {
            me,
            accepted: Arc::clone(&table.slots),
            accepted_count: table.len(),
            cache: None,
        }
    }

    /// Swap this store's table for `table`'s own slots when every slot
    /// already holds the canonical allocation; a store holding any other
    /// predicate, or none for some node, keeps its private table. The
    /// store's predicates are the same either way.
    pub fn share_canonical(&mut self, table: &PredicateTable) {
        let canonical = self.accepted.len() == table.len()
            && self
                .accepted
                .iter()
                .zip(table.slots.iter())
                .all(|(held, own)| match (held, own) {
                    (Some(a), Some(b)) => Arc::ptr_eq(a, b),
                    _ => false,
                });
        if canonical {
            self.accepted = Arc::clone(&table.slots);
        }
    }

    /// Whether this store's table is `table`'s own slots (see
    /// [`KeyStore::global_shared`] and [`KeyStore::share_canonical`]).
    pub fn shares_table(&self, table: &PredicateTable) -> bool {
        Arc::ptr_eq(&self.accepted, &table.slots)
    }

    /// Attach a per-run verification cache ([`VerifyCache`] is a shared
    /// handle; every store of one run gets a clone of the same cache).
    #[must_use]
    pub fn with_cache(mut self, cache: VerifyCache) -> Self {
        self.cache = Some(cache);
        self
    }

    /// The attached verification cache, if any.
    pub fn cache(&self) -> Option<&VerifyCache> {
        self.cache.as_ref()
    }

    /// Owner of this store.
    pub fn owner(&self) -> NodeId {
        self.me
    }

    /// Number of nodes in the system.
    pub fn len(&self) -> usize {
        self.accepted.len()
    }

    /// `true` for the degenerate empty system.
    pub fn is_empty(&self) -> bool {
        self.accepted.is_empty()
    }

    /// Record that `node`'s test predicate has been accepted. Accepts both
    /// owned keys and shared `Arc` handles (`impl Into<Arc<PublicKey>>`).
    /// On a store whose table another clone still shares, the table is
    /// copied first (`O(n)` handle bumps), so the acceptance stays private
    /// to this store.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn accept(&mut self, node: NodeId, pk: impl Into<Arc<PublicKey>>) {
        let slot = &mut Arc::make_mut(&mut self.accepted)[node.index()];
        if slot.is_none() {
            self.accepted_count += 1;
        }
        *slot = Some(pk.into());
    }

    /// The accepted test predicate for `node`, if any.
    pub fn accepted(&self, node: NodeId) -> Option<&PublicKey> {
        self.accepted.get(node.index()).and_then(|o| o.as_deref())
    }

    /// The accepted predicate of `node` as a shared handle, if any.
    pub fn accepted_shared(&self, node: NodeId) -> Option<&Arc<PublicKey>> {
        self.accepted.get(node.index()).and_then(|o| o.as_ref())
    }

    /// How many peers (including possibly `me`) have accepted keys.
    /// Maintained incrementally by [`KeyStore::accept`] — `O(1)`, not an
    /// `O(n)` rescan.
    pub fn accepted_count(&self) -> usize {
        self.accepted_count
    }

    /// Definition 1 (*assignment*): does this node assign `{msg}` with
    /// signature `sig` to `node`? True iff a test predicate was accepted
    /// for `node` and it passes. Routed through the per-run
    /// [`VerifyCache`] when one is attached.
    pub fn assigns(
        &self,
        scheme: &dyn SignatureScheme,
        node: NodeId,
        msg: &[u8],
        sig: &[u8],
    ) -> bool {
        match self.accepted(node) {
            Some(pk) => match &self.cache {
                Some(cache) => cache.verify_sig(scheme, pk, msg, sig),
                None => scheme.verify(pk, msg, &Signature(sig.to_vec())),
            },
            None => false,
        }
    }

    /// Scan all accepted predicates for one that verifies the signature.
    ///
    /// Correct protocols never need this (they always check a *claimed*
    /// signer); it exists so tests can exhibit the G3 failure mode, where
    /// two correct nodes assign the same signed message to different
    /// (faulty) nodes.
    pub fn find_assignee(
        &self,
        scheme: &dyn SignatureScheme,
        msg: &[u8],
        sig: &Signature,
    ) -> Option<NodeId> {
        (0..self.accepted.len())
            .map(|i| NodeId(i as u16))
            .find(|&node| self.assigns(scheme, node, msg, &sig.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chain::ChainMessage;
    use fd_crypto::SchnorrScheme;
    use fd_simnet::codec::Encode;

    #[test]
    fn keyring_generation_is_deterministic_and_distinct() {
        let scheme = SchnorrScheme::test_tiny();
        let a = Keyring::generate(&scheme, NodeId(0), 1);
        let b = Keyring::generate(&scheme, NodeId(0), 1);
        let c = Keyring::generate(&scheme, NodeId(1), 1);
        let d = Keyring::generate(&scheme, NodeId(0), 2);
        assert_eq!(a.pk, b.pk);
        assert_ne!(a.pk, c.pk);
        assert_ne!(a.pk, d.pk);
    }

    #[test]
    fn assignment_requires_acceptance() {
        let scheme = SchnorrScheme::test_tiny();
        let ring = Keyring::generate(&scheme, NodeId(1), 7);
        let sig = scheme.sign(&ring.sk, b"m").unwrap();

        let mut store = KeyStore::new(3, NodeId(0));
        // Not accepted yet: no assignment.
        assert!(!store.assigns(&scheme, NodeId(1), b"m", &sig.0));
        store.accept(NodeId(1), ring.pk.clone());
        assert!(store.assigns(&scheme, NodeId(1), b"m", &sig.0));
        // Wrong node: no assignment.
        assert!(!store.assigns(&scheme, NodeId(2), b"m", &sig.0));
        assert_eq!(store.accepted_count(), 1);
    }

    #[test]
    fn find_assignee_scans() {
        let scheme = SchnorrScheme::test_tiny();
        let rings: Vec<Keyring> = (0..3)
            .map(|i| Keyring::generate(&scheme, NodeId(i), 9))
            .collect();
        let store = KeyStore::global(
            NodeId(0),
            &rings.iter().map(|r| r.pk.clone()).collect::<Vec<_>>(),
        );
        let sig = scheme.sign(&rings[2].sk, b"m").unwrap();
        assert_eq!(store.find_assignee(&scheme, b"m", &sig), Some(NodeId(2)));
        assert_eq!(store.find_assignee(&scheme, b"other", &sig), None);
    }

    #[test]
    fn global_store_accepts_everyone() {
        let scheme = SchnorrScheme::test_tiny();
        let pks: Vec<_> = (0..4)
            .map(|i| Keyring::generate(&scheme, NodeId(i), 3).pk)
            .collect();
        let store = KeyStore::global(NodeId(2), &pks);
        assert_eq!(store.accepted_count(), 4);
        assert_eq!(store.owner(), NodeId(2));
        assert_eq!(store.len(), 4);
    }

    #[test]
    fn accepted_count_stays_correct_on_reaccept() {
        let scheme = SchnorrScheme::test_tiny();
        let ring = Keyring::generate(&scheme, NodeId(1), 7);
        let mut store = KeyStore::new(3, NodeId(0));
        assert_eq!(store.accepted_count(), 0);
        store.accept(NodeId(1), ring.pk.clone());
        store.accept(NodeId(1), ring.pk.clone()); // overwrite, not double-count
        assert_eq!(store.accepted_count(), 1);
        store.accept(NodeId(2), ring.pk.clone());
        assert_eq!(store.accepted_count(), 2);
        // The counter always matches a full rescan.
        let rescan = (0..store.len())
            .filter(|&i| store.accepted(NodeId(i as u16)).is_some())
            .count();
        assert_eq!(store.accepted_count(), rescan);
    }

    #[test]
    fn global_shared_stores_share_allocations() {
        let scheme = SchnorrScheme::test_tiny();
        let table = PredicateTable::generate(&scheme, 4, 11);
        let stores: Vec<KeyStore> = (0..4)
            .map(|i| KeyStore::global_shared(NodeId(i as u16), &table))
            .collect();
        // 4 stores × 4 keys, yet all four stores are the table's own
        // slots: no store holds a key handle of its own.
        assert!(stores.iter().all(|store| store.shares_table(&table)));
        for node in NodeId::all(4) {
            assert_eq!(table.ref_count(node), Some(1));
        }
        // Cloning a store shares its table: no key handle moves, however
        // many clones exist.
        let clones: Vec<KeyStore> = (0..1_000).map(|_| stores[0].clone()).collect();
        assert!(clones.iter().all(|store| store.shares_table(&table)));
        for node in NodeId::all(4) {
            assert_eq!(table.ref_count(node), Some(1));
        }
        drop(clones);
        assert_eq!(table.distinct_allocations(), 4);
    }

    #[test]
    fn accept_on_a_clone_stays_private() {
        // G3 still opens between clones: a clone that accepts a different
        // key for node 1 (and a key for node 3) leaves the original as it
        // was.
        let scheme = SchnorrScheme::test_tiny();
        let table = PredicateTable::generate(&scheme, 4, 13);
        let mut original = KeyStore::new(4, NodeId(0));
        for node in NodeId::all(3) {
            original.accept(node, Arc::clone(table.entry(node).unwrap()));
        }
        let mut clone = original.clone();
        let (_, other) = scheme.keypair_from_seed(4242);
        clone.accept(NodeId(1), other.clone());
        clone.accept(NodeId(3), Arc::clone(table.entry(NodeId(3)).unwrap()));
        assert_eq!(clone.accepted(NodeId(1)), Some(&other));
        assert_eq!(clone.accepted_count(), 4);

        let held = original.accepted_shared(NodeId(1)).unwrap();
        assert!(Arc::ptr_eq(held, table.entry(NodeId(1)).unwrap()));
        assert_eq!(original.accepted(NodeId(3)), None);
        assert_eq!(original.accepted_count(), 3);
    }

    #[test]
    fn intern_shares_only_matching_bytes() {
        let scheme = SchnorrScheme::test_tiny();
        let table = PredicateTable::generate(&scheme, 3, 5);
        let canonical = table.entry(NodeId(1)).unwrap().as_bytes().to_vec();
        let shared = table.intern(NodeId(1), canonical.clone());
        assert!(Arc::ptr_eq(&shared, table.entry(NodeId(1)).unwrap()));
        // Equivocated bytes get a private allocation holding exactly them.
        let private = table.intern(NodeId(1), b"equivocated".to_vec());
        assert_eq!(private.as_bytes(), b"equivocated");
        assert!(!Arc::ptr_eq(&private, table.entry(NodeId(1)).unwrap()));
        // Out-of-range announcers never panic.
        let stray = table.intern(NodeId(9), b"stray".to_vec());
        assert_eq!(stray.as_bytes(), b"stray");
        assert_eq!(table.interned_count(), 1);
        assert_eq!(table.fresh_count(), 2);
        assert_eq!(table.distinct_allocations(), 5);
    }

    #[test]
    fn verify_cache_memoizes_pure_predicate() {
        let scheme = SchnorrScheme::test_tiny();
        let ring = Keyring::generate(&scheme, NodeId(0), 3);
        let sig = scheme.sign(&ring.sk, b"m").unwrap();
        let cache = VerifyCache::new();
        let mut store = KeyStore::new(2, NodeId(1)).with_cache(cache.clone());
        store.accept(NodeId(0), ring.pk.clone());

        assert!(store.assigns(&scheme, NodeId(0), b"m", &sig.0));
        assert_eq!((cache.hits(), cache.misses()), (0, 1));
        // Identical query: served from the cache, same answer.
        assert!(store.assigns(&scheme, NodeId(0), b"m", &sig.0));
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        // A different message is a different entry — and still false.
        assert!(!store.assigns(&scheme, NodeId(0), b"n", &sig.0));
        assert!(!store.assigns(&scheme, NodeId(0), b"n", &sig.0));
        assert_eq!((cache.hits(), cache.misses()), (2, 2));
    }

    fn word_hash(key: &impl std::hash::Hash) -> u64 {
        let mut h = WordHasher::default();
        key.hash(&mut h);
        h.finish()
    }

    #[test]
    fn word_hasher_spreads_cache_keys_over_bucket_bits() {
        // Payload idents are nearby, 16-byte-aligned heap addresses; a
        // 1024-bucket map indexes by the low 10 bits of the hash. Random
        // hashing would fill ≈ 647 of the buckets.
        let buckets: std::collections::BTreeSet<u64> = (0..1024usize)
            .map(|i| {
                let key: CohortKey = ((0x5600_0000_0000 + 48 * i, 0, 96), NodeId(1), 1);
                word_hash(&key) & 1023
            })
            .collect();
        assert!(buckets.len() > 580, "{} buckets used", buckets.len());
        // Keys of one buffer differing only in the sender or the round
        // hash apart.
        let ident = (0x5600_0000_0000, 0, 96);
        let mut seen = std::collections::BTreeSet::new();
        for from in 0..16u16 {
            for round in 0..16u32 {
                let key: CohortKey = (ident, NodeId(from), round);
                assert!(seen.insert(word_hash(&key)), "sender {from}, round {round}");
            }
        }
    }

    fn cohort_rings(n: usize, seed: u64) -> (SchnorrScheme, Vec<Keyring>, Vec<PublicKey>) {
        let scheme = SchnorrScheme::test_tiny();
        let rings: Vec<Keyring> = (0..n)
            .map(|i| Keyring::generate(&scheme, NodeId(i as u16), seed))
            .collect();
        let pks: Vec<PublicKey> = rings.iter().map(|r| r.pk.clone()).collect();
        (scheme, rings, pks)
    }

    /// One cohort lookup under its own lock, the verdict cloned out.
    fn lookup(cache: &VerifyCache, key: &CohortKey, store: &KeyStore) -> Option<CohortVerdict> {
        cache.cohorts()?.get(key, store).cloned()
    }

    /// Record one cohort verdict under its own lock.
    fn record(
        cache: &VerifyCache,
        key: CohortKey,
        payload: &Payload,
        store: &KeyStore,
        verdict: CohortVerdict,
    ) {
        let mut cohorts = cache.cohorts().expect("cohorts enabled");
        cohorts.put(key, payload, store, verdict);
    }

    /// Judge `chain` as received from `from`, expecting origin P0 and
    /// `count` signatures.
    fn judge_at(
        scheme: &SchnorrScheme,
        store: &KeyStore,
        chain: Option<&ChainMessage>,
        from: u16,
        count: usize,
    ) -> CohortVerdict {
        let bytes = chain.map(Encode::encode_to_vec);
        CohortVerdict::judge(
            scheme,
            store,
            bytes.as_deref().map(|b| ChainView::parse(b).unwrap()),
            NodeId(from),
            Some(NodeId(0)),
            count..=count,
        )
    }

    /// A two-signature chain P0 → P1, as received from P1.
    fn two_hop_chain(scheme: &SchnorrScheme, rings: &[Keyring]) -> ChainMessage {
        ChainMessage::originate(scheme, &rings[0].sk, NodeId(0), b"v".to_vec())
            .unwrap()
            .extend(scheme, &rings[1].sk, NodeId(0))
            .unwrap()
    }

    #[test]
    fn cohort_judge_matches_per_message_verify() {
        // The batched verdict must agree with what per-message verify
        // (plus the structural screening around it) says,
        // across accept, structural-reject, and cryptographic-reject.
        let (scheme, rings, pks) = cohort_rings(4, 31);
        let store = KeyStore::global(NodeId(2), &pks).with_cache(VerifyCache::new());
        let chain = two_hop_chain(&scheme, &rings);

        // Accepted chain: verdict mirrors Ok(body).
        let v = judge_at(&scheme, &store, Some(&chain), 1, 2);
        assert_eq!(chain.verify(&scheme, &store, NodeId(1)), Ok(NodeId(1)));
        match &v {
            CohortVerdict::Accept { signers, body } => {
                assert_eq!(signers.as_ref(), &[NodeId(0), NodeId(1)]);
                assert_eq!(body.as_ref(), b"v");
            }
            other => panic!("expected Accept, got {other:?}"),
        }

        // Undecodable payload.
        assert_eq!(
            judge_at(&scheme, &store, None, 1, 2),
            CohortVerdict::Malformed
        );
        // Wrong origin and wrong count are both structural.
        assert_eq!(
            CohortVerdict::judge(
                &scheme,
                &store,
                ChainView::parse(&chain.encode_to_vec()).ok(),
                NodeId(1),
                Some(NodeId(3)),
                2..=2
            ),
            CohortVerdict::BadChain
        );
        assert_eq!(
            judge_at(&scheme, &store, Some(&chain), 1, 1),
            CohortVerdict::BadChain
        );
        // A repeated signer: P0 → P1 → P0, received from P0 again.
        let cycled = chain
            .clone()
            .extend(&scheme, &rings[0].sk, NodeId(1))
            .unwrap();
        match judge_at(&scheme, &store, Some(&cycled), 0, 3) {
            CohortVerdict::Duplicate { signers } => {
                assert_eq!(signers.as_ref(), &[NodeId(0), NodeId(1), NodeId(0)]);
            }
            other => panic!("expected Duplicate, got {other:?}"),
        }
        // A forged layer: discovered, with the same reason per-message
        // verification raises.
        let mut forged = chain.clone();
        forged.body = b"w".to_vec();
        let direct = forged.verify(&scheme, &store, NodeId(1));
        match judge_at(&scheme, &store, Some(&forged), 1, 2) {
            CohortVerdict::Discovered { reason, .. } => {
                assert_eq!(Err(reason), direct);
            }
            other => panic!("expected Discovered, got {other:?}"),
        }
    }

    #[test]
    fn cohort_cache_replays_verdicts_per_store_view() {
        // One broadcast buffer, three receivers sharing the honest key
        // material: the first judge is the only miss, the other receivers
        // replay the verdict from the cohort entry.
        let (scheme, rings, pks) = cohort_rings(5, 32);
        let cache = VerifyCache::new();
        let chain = two_hop_chain(&scheme, &rings);
        let payload = Payload::from(chain.encode_to_vec());
        let key: CohortKey = (payload.ident(), NodeId(1), 2);

        let stores: Vec<KeyStore> = [2u16, 3, 4]
            .iter()
            .map(|&i| KeyStore::global(NodeId(i), &pks).with_cache(cache.clone()))
            .collect();
        assert_eq!(lookup(&cache, &key, &stores[0]), None);
        let verdict = judge_at(&scheme, &stores[0], Some(&chain), 1, 2);
        record(&cache, key, &payload, &stores[0], verdict.clone());
        for store in &stores[1..] {
            assert_eq!(lookup(&cache, &key, store), Some(verdict.clone()));
        }
        // The receivers' stores were built by KeyStore::global (fresh
        // allocations per store), so the hits came from the byte-equality
        // fallback of the view match — sharing is an optimization, not a
        // correctness requirement.
    }

    #[test]
    fn cohort_entries_split_on_g3_store_disagreement() {
        // G3: faulty P1 equivocated its key. Store A holds the key that
        // verifies, store B a different one. The cohort must keep two
        // entries and answer each store with its own verdict.
        let (scheme, rings, pks) = cohort_rings(3, 33);
        let (sk_x, pk_x) = scheme.keypair_from_seed(2001);
        let (_, pk_y) = scheme.keypair_from_seed(2002);
        let chain = ChainMessage::originate(&scheme, &rings[0].sk, NodeId(0), b"v".to_vec())
            .unwrap()
            .extend(&scheme, &sk_x, NodeId(0))
            .unwrap();
        let payload = Payload::from(chain.encode_to_vec());
        let key: CohortKey = (payload.ident(), NodeId(1), 2);

        let cache = VerifyCache::new();
        let mut store_a = KeyStore::global(NodeId(2), &pks).with_cache(cache.clone());
        store_a.accept(NodeId(1), pk_x);
        let mut store_b = KeyStore::global(NodeId(2), &pks).with_cache(cache.clone());
        store_b.accept(NodeId(1), pk_y);

        let verdict_a = judge_at(&scheme, &store_a, Some(&chain), 1, 2);
        record(&cache, key, &payload, &store_a, verdict_a.clone());
        assert!(matches!(verdict_a, CohortVerdict::Accept { .. }));

        // Store B must NOT be served A's verdict: its view differs.
        assert_eq!(lookup(&cache, &key, &store_b), None);
        let verdict_b = judge_at(&scheme, &store_b, Some(&chain), 1, 2);
        record(&cache, key, &payload, &store_b, verdict_b.clone());
        match &verdict_b {
            CohortVerdict::Discovered { reason, .. } => {
                assert_eq!(*reason, DiscoveryReason::BadSignature);
            }
            other => panic!("expected Discovered, got {other:?}"),
        }
        // Both entries now coexist under one key; each store gets its own.
        assert_eq!(lookup(&cache, &key, &store_a), Some(verdict_a));
        assert_eq!(lookup(&cache, &key, &store_b), Some(verdict_b));
    }

    #[test]
    fn non_canonical_store_keeps_a_private_table_and_its_own_verdict() {
        // Stores on one predicate table replay each other's verdicts by
        // table identity; a store that accepted a non-canonical key for
        // the chain's signer P1 holds a private table and is judged apart.
        let (scheme, rings, _) = cohort_rings(5, 39);
        let table = PredicateTable::from_rings(&rings);
        let chain = two_hop_chain(&scheme, &rings);
        let payload = Payload::from(chain.encode_to_vec());
        let key: CohortKey = (payload.ident(), NodeId(1), 2);
        let cache = VerifyCache::new();
        let shared =
            |me: u16| KeyStore::global_shared(NodeId(me), &table).with_cache(cache.clone());
        let (judge_store, peer) = (shared(2), shared(3));
        let mut private = shared(4);
        let (_, pk_x) = scheme.keypair_from_seed(2003);
        private.accept(NodeId(1), pk_x);
        assert!(peer.shares_table(&table));
        assert!(!private.shares_table(&table));

        let accepted = judge_at(&scheme, &judge_store, Some(&chain), 1, 2);
        assert!(matches!(accepted, CohortVerdict::Accept { .. }));
        record(&cache, key, &payload, &judge_store, accepted.clone());
        assert_eq!(lookup(&cache, &key, &peer), Some(accepted.clone()));
        assert_eq!(lookup(&cache, &key, &private), None);
        let discovered = judge_at(&scheme, &private, Some(&chain), 1, 2);
        assert!(matches!(
            discovered,
            CohortVerdict::Discovered {
                reason: DiscoveryReason::BadSignature,
                ..
            }
        ));
        record(&cache, key, &payload, &private, discovered.clone());
        assert_eq!(lookup(&cache, &key, &private), Some(discovered));
        assert_eq!(lookup(&cache, &key, &peer), Some(accepted));
    }

    #[test]
    fn a_signer_outside_the_system_replays_as_unknown() {
        // A chain arriving "from" node 9 of 5 names a signer no table has a
        // slot for; its discovery is replayed for another private store
        // that also knows nothing of node 9.
        let (scheme, rings, pks) = cohort_rings(5, 40);
        let chain = two_hop_chain(&scheme, &rings);
        let payload = Payload::from(chain.encode_to_vec());
        let key: CohortKey = (payload.ident(), NodeId(9), 2);
        let cache = VerifyCache::new();
        let store_a = KeyStore::global(NodeId(2), &pks).with_cache(cache.clone());
        let store_b = KeyStore::global(NodeId(3), &pks).with_cache(cache.clone());
        let verdict = judge_at(&scheme, &store_a, Some(&chain), 9, 2);
        assert_eq!(
            verdict.read(|_, _| true),
            Err(DiscoveryReason::UnknownSigner)
        );
        record(&cache, key, &payload, &store_a, verdict.clone());
        assert_eq!(lookup(&cache, &key, &store_b), Some(verdict));
    }

    #[test]
    fn mixed_cohort_forged_member_keeps_its_own_key() {
        // Two broadcasts in flight: an honest chain and a forged sibling
        // with identical logical coordinates. Their payload buffers differ,
        // so they land in different cohorts — the forged one can never
        // borrow the honest verdict.
        let (scheme, rings, pks) = cohort_rings(4, 34);
        let cache = VerifyCache::new();
        let store = KeyStore::global(NodeId(3), &pks).with_cache(cache.clone());
        let honest = two_hop_chain(&scheme, &rings);
        let mut forged = honest.clone();
        forged.body = b"w".to_vec();

        let honest_payload = Payload::from(honest.encode_to_vec());
        let forged_payload = Payload::from(forged.encode_to_vec());
        let honest_key: CohortKey = (honest_payload.ident(), NodeId(1), 2);
        let forged_key: CohortKey = (forged_payload.ident(), NodeId(1), 2);
        assert_ne!(honest_key, forged_key);

        let hv = judge_at(&scheme, &store, Some(&honest), 1, 2);
        record(&cache, honest_key, &honest_payload, &store, hv);
        assert_eq!(lookup(&cache, &forged_key, &store), None);
        let fv = judge_at(&scheme, &store, Some(&forged), 1, 2);
        assert!(matches!(fv, CohortVerdict::Discovered { .. }));
        record(&cache, forged_key, &forged_payload, &store, fv.clone());
        assert!(matches!(
            lookup(&cache, &honest_key, &store),
            Some(CohortVerdict::Accept { .. })
        ));
        assert_eq!(lookup(&cache, &forged_key, &store), Some(fv));
    }

    #[test]
    fn structural_verdicts_are_store_independent() {
        // Malformed / BadChain / Duplicate never consult the store, so a
        // store with a completely different view still replays them.
        let (scheme, rings, pks) = cohort_rings(3, 35);
        let cache = VerifyCache::new();
        let store_full = KeyStore::global(NodeId(2), &pks).with_cache(cache.clone());
        let store_empty = KeyStore::new(3, NodeId(2)).with_cache(cache.clone());

        let chain = two_hop_chain(&scheme, &rings);
        let payload = Payload::from(chain.encode_to_vec());
        let key: CohortKey = (payload.ident(), NodeId(1), 7);
        // Wrong count for "round 7": BadChain regardless of keys.
        let v = judge_at(&scheme, &store_full, Some(&chain), 1, 7);
        assert_eq!(v, CohortVerdict::BadChain);
        record(&cache, key, &payload, &store_full, v.clone());
        assert_eq!(lookup(&cache, &key, &store_empty), Some(v));
    }

    #[test]
    fn without_cohorts_disables_only_this_handle() {
        let (scheme, rings, pks) = cohort_rings(3, 36);
        let cache = VerifyCache::new();
        let reference = cache.clone().without_cohorts();
        assert!(cache.cohorts_enabled());
        assert!(!reference.cohorts_enabled());

        let store = KeyStore::global(NodeId(2), &pks).with_cache(cache.clone());
        let chain = two_hop_chain(&scheme, &rings);
        let payload = Payload::from(chain.encode_to_vec());
        let key: CohortKey = (payload.ident(), NodeId(1), 2);
        let v = judge_at(&scheme, &store, Some(&chain), 1, 2);
        record(&cache, key, &payload, &store, v.clone());
        // The disabled handle can neither read nor write the cohort map …
        assert!(reference.cohorts().is_none());
        // … so the enabled handle still sees exactly the original verdict.
        assert_eq!(lookup(&cache, &key, &store), Some(v));
    }

    #[test]
    fn read_puts_structure_before_signature() {
        let (scheme, rings, pks) = cohort_rings(4, 37);
        let store = KeyStore::global(NodeId(2), &pks).with_cache(VerifyCache::new());
        let chain = two_hop_chain(&scheme, &rings);
        let mut forged = chain.clone();
        forged.body = b"w".to_vec();
        let judge = |c: Option<&ChainMessage>, count: usize| judge_at(&scheme, &store, c, 1, count);
        let (accept, discovered) = (judge(Some(&chain), 2), judge(Some(&forged), 2));
        let ok = |_: &[NodeId], _: &[u8]| true;
        let bad = |_: &[NodeId], _: &[u8]| false;
        assert_eq!(accept.read(ok).map(|b| b.to_vec()), Ok(b"v".to_vec()));
        assert_eq!(accept.read(bad), Err(DiscoveryReason::BadStructure));
        assert_eq!(discovered.read(ok), Err(DiscoveryReason::BadSignature));
        // A structure rule reads the body of a discovered chain too.
        assert_eq!(
            discovered.read(|_, body| body != b"w"),
            Err(DiscoveryReason::BadStructure)
        );
        assert_eq!(judge(None, 2).read(ok), Err(DiscoveryReason::Malformed));
        assert_eq!(
            judge(Some(&chain), 3).read(ok),
            Err(DiscoveryReason::BadStructure)
        );
    }

    #[test]
    fn screen_judges_once_per_cohort_and_every_envelope_without_one() {
        let (scheme, rings, pks) = cohort_rings(5, 38);
        let chain = two_hop_chain(&scheme, &rings);
        let payload = Payload::from(chain.encode_to_vec());
        let env = Envelope {
            from: NodeId(1),
            to: NodeId(2),
            round: 1,
            payload,
        };
        thread_local!(static DECODED: std::cell::Cell<usize> = const { std::cell::Cell::new(0) });
        fn decode(p: &[u8]) -> Option<ChainView<'_>> {
            DECODED.with(|d| d.set(d.get() + 1));
            ChainView::parse(p).ok()
        }
        let expect = || Expect {
            decode,
            origin: Some(NodeId(0)),
            count: 2..=2,
        };
        let body = |v: &CohortVerdict| v.read(|_, _| true).map(|b| b.to_vec());
        for cache in [VerifyCache::new(), VerifyCache::new().without_cohorts()] {
            DECODED.with(|d| d.set(0));
            for me in 2..5 {
                let store = KeyStore::global(NodeId(me), &pks).with_cache(cache.clone());
                let mut cohorts = cache.cohorts();
                let read = screen(cohorts.as_mut(), &scheme, &store, &env, 2, expect(), body);
                assert_eq!(read, Ok(b"v".to_vec()));
            }
            // With cohorts the first receiver decodes and judges, the
            // other two replay; without, every receiver judges.
            let judged = if cache.cohorts_enabled() { 1 } else { 3 };
            assert_eq!(DECODED.with(std::cell::Cell::get), judged);
        }
    }

    #[test]
    fn shared_cache_respects_store_disagreement() {
        // G3: two stores hold different predicates for the same (faulty)
        // node. A shared cache must still give each store its own answer.
        let scheme = SchnorrScheme::test_tiny();
        let (sk_a, pk_a) = scheme.keypair_from_seed(1001);
        let (_, pk_b) = scheme.keypair_from_seed(1002);
        let sig = scheme.sign(&sk_a, b"m").unwrap();
        let cache = VerifyCache::new();
        let mut store_a = KeyStore::new(2, NodeId(0)).with_cache(cache.clone());
        store_a.accept(NodeId(1), pk_a);
        let mut store_b = KeyStore::new(2, NodeId(0)).with_cache(cache.clone());
        store_b.accept(NodeId(1), pk_b);
        for _ in 0..2 {
            assert!(store_a.assigns(&scheme, NodeId(1), b"m", &sig.0));
            assert!(!store_b.assigns(&scheme, NodeId(1), b"m", &sig.0));
        }
        assert_eq!((cache.hits(), cache.misses()), (2, 2));
    }
}
