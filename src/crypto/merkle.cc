#include "crypto/merkle.h"

#include <cstring>

#include "crypto/sha256_kernel.h"

namespace sqlledger {

namespace {
constexpr uint8_t kLeafPrefix = 0x00;
constexpr uint8_t kNodePrefix = 0x01;
}  // namespace

Hash256 MerkleLeafHash(Slice data) {
  return Sha256DigestWithKernel(ActiveSha256Kernel(), Slice(&kLeafPrefix, 1),
                                data);
}

Hash256 MerkleNodeHash(const Hash256& left, const Hash256& right) {
  uint8_t buf[64];
  std::memcpy(buf, left.bytes.data(), 32);
  std::memcpy(buf + 32, right.bytes.data(), 32);
  return Sha256DigestWithKernel(ActiveSha256Kernel(), Slice(&kNodePrefix, 1),
                                Slice(buf, 64));
}

void MerkleBuilder::AddLeafHash(const Hash256& leaf_hash) {
  state_.leaf_count++;
  Hash256 carry = leaf_hash;
  // Carry up: an arriving node pairs with the pending node of its level (the
  // pending node is the left child, the new node the right), and the combined
  // hash propagates to the parent level.
  for (size_t level = 0;; level++) {
    if (level == state_.pending.size()) state_.pending.emplace_back();
    if (!state_.pending[level].has_value()) {
      state_.pending[level] = carry;
      return;
    }
    carry = MerkleNodeHash(*state_.pending[level], carry);
    state_.pending[level].reset();
  }
}

size_t MerkleBuilder::pending_nodes() const {
  size_t n = 0;
  for (const auto& p : state_.pending)
    if (p.has_value()) n++;
  return n;
}

Hash256 MerkleBuilder::Root() const {
  // Fold remaining pending nodes from the bottom up. A lone node is promoted
  // unchanged; when it meets a pending node of a higher level, that node is
  // the left child (it was appended earlier).
  std::optional<Hash256> carry;
  for (const auto& p : state_.pending) {
    if (!p.has_value()) continue;
    if (carry.has_value()) {
      carry = MerkleNodeHash(*p, *carry);
    } else {
      carry = *p;
    }
  }
  return carry.value_or(Hash256{});
}

MerkleTree::MerkleTree(std::vector<Hash256> leaf_hashes)
    : leaf_count_(leaf_hashes.size()) {
  levels_.push_back(std::move(leaf_hashes));
  while (levels_.back().size() > 1) {
    const std::vector<Hash256>& cur = levels_.back();
    std::vector<Hash256> next;
    next.reserve((cur.size() + 1) / 2);
    for (size_t i = 0; i + 1 < cur.size(); i += 2)
      next.push_back(MerkleNodeHash(cur[i], cur[i + 1]));
    if (cur.size() % 2 != 0) next.push_back(cur.back());  // promote lone tail
    levels_.push_back(std::move(next));
  }
}

Hash256 MerkleTree::Root() const {
  if (leaf_count_ == 0) return Hash256{};
  return levels_.back()[0];
}

MerkleProof MerkleTree::Prove(uint64_t index) const {
  MerkleProof proof;
  proof.leaf_index = index;
  proof.leaf_count = leaf_count_;
  uint64_t i = index;
  for (size_t level = 0; level + 1 < levels_.size(); level++) {
    uint64_t sibling = i ^ 1;
    if (sibling < levels_[level].size()) {
      proof.steps.push_back(
          MerkleProofStep{levels_[level][sibling], /*sibling_is_left=*/(i & 1) != 0});
    }
    // If the node had no sibling it was promoted; no step is emitted.
    i /= 2;
  }
  return proof;
}

bool MerkleTree::VerifyProof(const Hash256& leaf_hash, const MerkleProof& proof,
                             const Hash256& root) {
  if (proof.leaf_count == 0 || proof.leaf_index >= proof.leaf_count)
    return false;
  Hash256 h = leaf_hash;
  for (const MerkleProofStep& step : proof.steps) {
    h = step.sibling_is_left ? MerkleNodeHash(step.sibling, h)
                             : MerkleNodeHash(h, step.sibling);
  }
  return ConstantTimeEqual(h, root);
}

}  // namespace sqlledger
