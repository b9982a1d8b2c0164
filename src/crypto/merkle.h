// Merkle trees (paper §3.2.1 and §3.3.1).
//
// MerkleBuilder implements the paper's streaming algorithm: the root of a
// Merkle tree is computed while leaves arrive, in O(N) time and O(log N)
// space, by keeping at most one pending node per level. The pending-node
// state is copyable, which is exactly what enables savepoints / partial
// rollback: a savepoint snapshots the state and a rollback restores it.
//
// MerkleTree is the materialized variant, kept only where a Merkle *proof*
// of transaction inclusion is taken (paper §3.3.1 req. 4, §5.1 receipts);
// callers that need just a root (block close, verification) stream leaves
// into a MerkleBuilder. Its root always matches MerkleBuilder over the same
// leaves.
//
// Every leaf and node is one SHA-256 call: hash each input where it is
// produced with MerkleLeafHash / MerkleNodeHash.
//
// Domain separation follows RFC 6962: leaf = H(0x00 || data),
// node = H(0x01 || left || right). A lone node at the end of a level is
// promoted unchanged to the parent level, per the paper.

#ifndef SQLLEDGER_CRYPTO_MERKLE_H_
#define SQLLEDGER_CRYPTO_MERKLE_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "crypto/sha256.h"
#include "util/slice.h"

namespace sqlledger {

/// Hash of a leaf's content with leaf domain separation.
Hash256 MerkleLeafHash(Slice data);
/// Combine two child hashes with node domain separation.
Hash256 MerkleNodeHash(const Hash256& left, const Hash256& right);

/// Snapshot of a MerkleBuilder: O(log N) pending nodes plus the leaf count.
/// Stored in savepoint records so a partial rollback can restore the tree.
struct MerkleBuilderState {
  std::vector<std::optional<Hash256>> pending;
  uint64_t leaf_count = 0;
};

/// Streaming Merkle-root computation.
class MerkleBuilder {
 public:
  MerkleBuilder() = default;

  /// Append a leaf given its raw content (hashed with leaf prefix).
  void AddLeaf(Slice data) { AddLeafHash(MerkleLeafHash(data)); }
  /// Append a leaf given its already-computed leaf hash.
  void AddLeafHash(const Hash256& leaf_hash);

  uint64_t leaf_count() const { return state_.leaf_count; }
  bool empty() const { return state_.leaf_count == 0; }
  /// Number of pending nodes currently held (== space usage; <= log2(N)+1).
  size_t pending_nodes() const;

  /// Finalize and return the root. Does not modify the builder; may be
  /// called repeatedly as leaves continue to arrive. The root of an empty
  /// tree is the all-zero hash.
  Hash256 Root() const;

  /// Savepoint support (paper §3.2.1).
  MerkleBuilderState GetState() const { return state_; }
  void RestoreState(MerkleBuilderState state) { state_ = std::move(state); }
  void Reset() { state_ = MerkleBuilderState{}; }

 private:
  MerkleBuilderState state_;
};

/// One step of a Merkle proof: the sibling hash and which side it is on.
struct MerkleProofStep {
  Hash256 sibling;
  bool sibling_is_left = false;
};

/// An inclusion proof for one leaf. Levels where the node had no sibling
/// (it was promoted) contribute no step.
struct MerkleProof {
  uint64_t leaf_index = 0;
  uint64_t leaf_count = 0;
  std::vector<MerkleProofStep> steps;
};

/// Materialized Merkle tree over a list of leaf hashes; supports root and
/// proof extraction. Used when issuing transaction receipts.
class MerkleTree {
 public:
  /// `leaf_hashes` are the domain-separated leaf hashes (MerkleLeafHash).
  explicit MerkleTree(std::vector<Hash256> leaf_hashes);

  uint64_t leaf_count() const { return leaf_count_; }
  /// Root; all-zero for an empty tree (matches MerkleBuilder).
  Hash256 Root() const;
  /// Proof that leaf `index` is included. Pre-condition: index < leaf_count.
  MerkleProof Prove(uint64_t index) const;

  /// Recompute the root implied by `proof` for `leaf_hash` and compare with
  /// `root`. Also checks the index/count are consistent with the step count.
  static bool VerifyProof(const Hash256& leaf_hash, const MerkleProof& proof,
                          const Hash256& root);

 private:
  // levels_[0] = leaves, levels_.back() = {root}. Odd tail nodes are
  // promoted (copied) upward.
  std::vector<std::vector<Hash256>> levels_;
  uint64_t leaf_count_;
};

}  // namespace sqlledger

#endif  // SQLLEDGER_CRYPTO_MERKLE_H_
