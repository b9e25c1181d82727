//! Key-store table sharing and the verify cache's signature memo,
//! through the public API: stores on one `PredicateTable` share its
//! table until one of them accepts something, and the signature memo
//! hits only on byte-identical `(scheme, pk, msg, sig)` inputs.

use fd_core::keys::{KeyStore, PredicateTable, VerifyCache};
use fd_crypto::{CryptoError, PublicKey, SchnorrScheme, SecretKey, Signature, SignatureScheme};
use fd_simnet::NodeId;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

#[test]
fn accept_on_a_shared_table_copies_it_first() {
    let scheme = SchnorrScheme::test_tiny();
    let table = PredicateTable::generate(&scheme, 4, 12);
    let mut store = KeyStore::global_shared(NodeId(0), &table);
    let other = KeyStore::global_shared(NodeId(2), &table);
    let (_, pk) = scheme.keypair_from_seed(4243);
    store.accept(NodeId(1), pk.clone());
    // The acceptance went into a copy: the table and every store still
    // on it hold the canonical key.
    assert!(!store.shares_table(&table));
    assert_eq!(store.accepted(NodeId(1)), Some(&pk));
    assert!(other.shares_table(&table));
    assert!(Arc::ptr_eq(
        other.accepted_shared(NodeId(1)).unwrap(),
        table.entry(NodeId(1)).unwrap()
    ));
    assert_ne!(table.entry(NodeId(1)).map(|k| &**k), Some(&pk));
    // The copy holds the other canonical handles, not new keys.
    assert_eq!(table.ref_count(NodeId(0)), Some(2));
    assert_eq!(table.ref_count(NodeId(1)), Some(1));
    assert_eq!(store.accepted_count(), 4);
}

#[test]
fn share_canonical_swaps_only_all_canonical_stores() {
    let scheme = SchnorrScheme::test_tiny();
    let table = PredicateTable::generate(&scheme, 3, 14);
    let built = |skip: Option<NodeId>, copy: Option<NodeId>| {
        let mut store = KeyStore::new(3, NodeId(0));
        for node in NodeId::all(3).filter(|&node| Some(node) != skip) {
            let canonical = table.entry(node).unwrap();
            if Some(node) == copy {
                store.accept(node, PublicKey::new(canonical.as_bytes().to_vec()));
            } else {
                store.accept(node, Arc::clone(canonical));
            }
        }
        store.share_canonical(&table);
        store
    };
    assert!(built(None, None).shares_table(&table));
    // A missing slot, or equal bytes in an allocation of its own, keep
    // the store private.
    assert!(!built(Some(NodeId(2)), None).shares_table(&table));
    assert!(!built(None, Some(NodeId(1))).shares_table(&table));
}

/// A scheme whose every signature verifies, counting its evaluations:
/// a memo hit that should have been a miss shows in the count.
#[derive(Debug)]
struct AlwaysValid {
    name: &'static str,
    calls: AtomicUsize,
}

impl SignatureScheme for AlwaysValid {
    fn name(&self) -> String {
        self.name.to_string()
    }

    fn keypair_from_seed(&self, _: u64) -> (SecretKey, PublicKey) {
        (SecretKey(Vec::new()), PublicKey::new(Vec::new()))
    }

    fn sign(&self, _: &SecretKey, _: &[u8]) -> Result<Signature, CryptoError> {
        Ok(Signature(Vec::new()))
    }

    fn verify(&self, _: &PublicKey, _: &[u8], _: &Signature) -> bool {
        self.calls.fetch_add(1, Ordering::Relaxed);
        true
    }

    fn public_key_len(&self) -> usize {
        0
    }

    fn signature_len(&self) -> usize {
        0
    }
}

#[test]
fn signature_memo_hits_only_on_identical_bytes() {
    let scheme = |name| AlwaysValid {
        name,
        calls: AtomicUsize::new(0),
    };
    let (a, b, ab) = (scheme("scheme-a"), scheme("scheme-b"), scheme("scheme-ab"));
    let cache = VerifyCache::new();
    let query = |scheme: &AlwaysValid, pk: &[u8], msg: &[u8], sig: &[u8]| {
        let pk = PublicKey::new(pk.to_vec());
        assert!(cache.verify_sig(scheme, &pk, msg, sig));
    };
    query(&a, b"ab", b"c", b"s");
    query(&a, b"ab", b"c", b"s");
    assert_eq!((cache.hits(), cache.misses()), (1, 1));
    // The same signature under another pk, message or scheme.
    query(&a, b"ax", b"c", b"s");
    query(&a, b"ab", b"d", b"s");
    query(&b, b"ab", b"c", b"s");
    // The same bytes split at another boundary: scheme | pk, pk | msg,
    // msg | sig.
    query(&a, b"bx", b"c", b"s");
    query(&ab, b"x", b"c", b"s");
    query(&a, b"a", b"bc", b"s");
    query(&a, b"ab", b"", b"cs");
    assert_eq!((cache.hits(), cache.misses()), (1, 8));
    let calls = [&a, &b, &ab].map(|s| s.calls.load(Ordering::Relaxed));
    assert_eq!(calls, [6, 1, 1]);
}
