//! Merkle proofs for single entries.
//!
//! The POS-Tree is a Merkle tree, so a server can hand a *light client*
//! — one that knows only a trusted root hash — a compact proof that a
//! key maps to a value (or is absent), without the client fetching the
//! tree. This is the mechanism blockchains built on ForkBase use for
//! account-state queries (the engine paper's headline application).
//!
//! A proof is the root→leaf path of raw node encodings. Verification
//! replays the *exact* descent logic of [`crate::map::PosMap::get`]:
//! each node must hash to the address its parent committed to, and the
//! child choice is forced by the split keys — so a malicious prover can
//! neither substitute nodes nor steer the path.

use bytes::Bytes;
use forkbase_crypto::{sha256, Hash};
use forkbase_store::ChunkStore;

use crate::node::{fetch_verified, Node, NodeResult};
use crate::TreeRef;

/// A membership / absence proof for one key.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MerkleProof {
    /// Raw node encodings from the root down to (and including) the leaf
    /// that decides the query. May stop early when an index node already
    /// proves absence (key beyond the maximum).
    pub nodes: Vec<Bytes>,
}

impl MerkleProof {
    /// Total proof size in bytes.
    pub fn size_bytes(&self) -> usize {
        self.nodes.iter().map(|n| n.len()).sum()
    }
}

/// Proof verification failure: the proof does not authenticate against
/// the root (tampering, truncation, or a dishonest prover).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProofError(pub String);

impl std::fmt::Display for ProofError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid proof: {}", self.0)
    }
}

impl std::error::Error for ProofError {}

/// Build a proof for `key` against the map at `tree`.
pub fn prove_key<S: ChunkStore>(store: &S, tree: TreeRef, key: &[u8]) -> NodeResult<MerkleProof> {
    let mut nodes = Vec::new();
    let mut hash = tree.root;
    loop {
        let bytes = fetch_verified(store, &hash)?;
        let node = Node::decode(&bytes)?;
        nodes.push(bytes);
        match node {
            Node::Leaf(_) => return Ok(MerkleProof { nodes }),
            Node::Index { children, .. } => {
                let idx = children.partition_point(|c| c.split_key.as_ref() < key);
                if idx == children.len() {
                    // Key beyond the maximum: this index node alone proves
                    // absence.
                    return Ok(MerkleProof { nodes });
                }
                hash = children[idx].hash;
            }
        }
    }
}

/// Verify `proof` against a trusted `root` hash. On success returns the
/// proven value (`Some`) or proven absence (`None`).
pub fn verify_proof(
    root: &Hash,
    key: &[u8],
    proof: &MerkleProof,
) -> Result<Option<Bytes>, ProofError> {
    if proof.nodes.is_empty() {
        return Err(ProofError("empty proof".into()));
    }
    let mut expected = *root;
    let mut steps = proof.nodes.iter().peekable();
    while let Some(bytes) = steps.next() {
        if sha256(bytes) != expected {
            return Err(ProofError(format!(
                "node does not hash to the committed address {expected:?}"
            )));
        }
        let node = Node::decode(bytes).map_err(|e| ProofError(format!("bad node: {e}")))?;
        match node {
            Node::Leaf(entries) => {
                if steps.peek().is_some() {
                    return Err(ProofError("trailing nodes after leaf".into()));
                }
                // Soundness of the leaf answer relies on the forced
                // descent: this leaf is the unique one whose key range
                // covers `key`.
                return Ok(entries
                    .binary_search_by(|e| e.key.as_ref().cmp(key))
                    .ok()
                    .map(|i| entries[i].value.clone()));
            }
            Node::Index { children, .. } => {
                let idx = children.partition_point(|c| c.split_key.as_ref() < key);
                if idx == children.len() {
                    // Absence proven — but only if the prover stops here.
                    if steps.peek().is_some() {
                        return Err(ProofError("prover descended past a proven absence".into()));
                    }
                    return Ok(None);
                }
                expected = children[idx].hash;
            }
        }
    }
    Err(ProofError("proof ended inside an index node".into()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::map::PosMap;
    use forkbase_chunk::ChunkerConfig;
    use forkbase_store::MemStore;

    fn cfg() -> ChunkerConfig {
        ChunkerConfig::test_small()
    }

    fn k(i: u32) -> Bytes {
        Bytes::from(format!("key-{i:08}"))
    }

    fn v(i: u32) -> Bytes {
        Bytes::from(format!("value-{i}"))
    }

    fn sample(store: &MemStore, n: u32) -> PosMap<'_, MemStore> {
        PosMap::build_from_sorted(store, cfg(), (0..n).map(|i| (k(i), v(i)))).unwrap()
    }

    #[test]
    fn membership_proof_roundtrip() {
        let store = MemStore::new();
        let m = sample(&store, 5000);
        for i in [0u32, 1, 2499, 4999] {
            let proof = prove_key(&store, m.tree(), &k(i)).unwrap();
            let got = verify_proof(&m.root(), &k(i), &proof).unwrap();
            assert_eq!(got, Some(v(i)), "key {i}");
            assert!(proof.nodes.len() >= 2, "multi-level tree path");
        }
    }

    #[test]
    fn absence_proof_roundtrip() {
        let store = MemStore::new();
        let m = sample(&store, 1000);
        // Between two keys.
        let between = Bytes::from_static(b"key-00000500x");
        let proof = prove_key(&store, m.tree(), &between).unwrap();
        assert_eq!(verify_proof(&m.root(), &between, &proof).unwrap(), None);
        // Beyond the maximum (short proof).
        let beyond = Bytes::from_static(b"zzz");
        let proof = prove_key(&store, m.tree(), &beyond).unwrap();
        assert_eq!(verify_proof(&m.root(), &beyond, &proof).unwrap(), None);
    }

    #[test]
    fn proof_is_compact() {
        let store = MemStore::new();
        let m = sample(&store, 20_000);
        let proof = prove_key(&store, m.tree(), &k(10_000)).unwrap();
        let total_bytes: u64 = {
            let mut sum = 0u64;
            store.for_each_chunk(|_, len| sum += len as u64);
            sum
        };
        assert!(
            (proof.size_bytes() as u64) < total_bytes / 50,
            "proof {} vs tree {total_bytes}",
            proof.size_bytes()
        );
    }

    #[test]
    fn wrong_root_rejected() {
        let store = MemStore::new();
        let m = sample(&store, 500);
        let proof = prove_key(&store, m.tree(), &k(250)).unwrap();
        let wrong = forkbase_crypto::sha256(b"not the root");
        assert!(verify_proof(&wrong, &k(250), &proof).is_err());
    }

    #[test]
    fn tampered_proof_rejected() {
        let store = MemStore::new();
        let m = sample(&store, 500);
        let mut proof = prove_key(&store, m.tree(), &k(250)).unwrap();
        // Flip a byte in the leaf node.
        let last = proof.nodes.len() - 1;
        let mut bytes = proof.nodes[last].to_vec();
        bytes[10] ^= 1;
        proof.nodes[last] = Bytes::from(bytes);
        assert!(verify_proof(&m.root(), &k(250), &proof).is_err());
    }

    #[test]
    fn value_substitution_rejected() {
        // A dishonest prover cannot swap in a different (valid) leaf: its
        // hash will not match the parent's commitment.
        let store = MemStore::new();
        let m = sample(&store, 500);
        let m2 = m.insert(k(250), Bytes::from_static(b"forged")).unwrap();
        let honest = prove_key(&store, m.tree(), &k(250)).unwrap();
        let forged = prove_key(&store, m2.tree(), &k(250)).unwrap();
        // Mix: forged leaf under honest path.
        let mut mixed = honest.clone();
        *mixed.nodes.last_mut().unwrap() = forged.nodes.last().unwrap().clone();
        assert!(verify_proof(&m.root(), &k(250), &mixed).is_err());
    }

    #[test]
    fn truncated_and_padded_proofs_rejected() {
        let store = MemStore::new();
        let m = sample(&store, 2000);
        let proof = prove_key(&store, m.tree(), &k(1000)).unwrap();
        // Truncated: ends inside an index node.
        let truncated = MerkleProof {
            nodes: proof.nodes[..proof.nodes.len() - 1].to_vec(),
        };
        assert!(verify_proof(&m.root(), &k(1000), &truncated).is_err());
        // Padded: junk after the leaf.
        let mut padded = proof.clone();
        padded.nodes.push(padded.nodes.last().unwrap().clone());
        assert!(verify_proof(&m.root(), &k(1000), &padded).is_err());
        // Empty.
        assert!(verify_proof(&m.root(), &k(1000), &MerkleProof { nodes: vec![] }).is_err());
    }

    #[test]
    fn proof_for_single_leaf_tree() {
        let store = MemStore::new();
        let m = sample(&store, 1);
        let proof = prove_key(&store, m.tree(), &k(0)).unwrap();
        assert_eq!(proof.nodes.len(), 1, "root is the leaf");
        assert_eq!(verify_proof(&m.root(), &k(0), &proof).unwrap(), Some(v(0)));
        // Absence in the same single-leaf tree.
        let absent = Bytes::from_static(b"nope");
        let proof = prove_key(&store, m.tree(), &absent).unwrap();
        assert_eq!(verify_proof(&m.root(), &absent, &proof).unwrap(), None);
    }
}
