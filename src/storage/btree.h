// In-memory B+-tree of rows. An entry is only its row: the key is read in
// place from the row's `key_ordinals` columns (or, with no ordinals, is the
// whole entry), so leaves hold no second copy of it. A probe key and an
// internal node's separators are packed Rows of key cells (KeyTuple),
// compared cell by cell with an entry's key cells in place. Backs both
// clustered indexes (entries are full rows keyed by the primary-key
// columns) and non-clustered indexes (entries are (index columns + primary
// key) rows, keyed whole). Leaves are chained for ordered scans, which the ledger
// verifier relies on (it recomputes Merkle roots over rows in clustered-key
// order, paper §3.4.2 invariant 5).
//
// A leaf overflowing on a sequential insert (one landing right after the
// leaf's previous insert, in its upper half) splits just right of the new
// entry, so ascending and grouped-ascending appends fill leaves densely;
// every other overflow splits at the midpoint.
//
// Deletion removes entries in place and unlinks pages only when they become
// empty (the PostgreSQL approach) rather than eagerly rebalancing; ordered
// iteration and lookup costs are unaffected for the workloads at hand.
//
// Thread safety: none. Callers (the transaction layer) serialize access via
// table locks.

#ifndef SQLLEDGER_STORAGE_BTREE_H_
#define SQLLEDGER_STORAGE_BTREE_H_

#include <functional>
#include <vector>

#include "catalog/row.h"
#include "catalog/value.h"
#include "util/result.h"
#include "util/status.h"

namespace sqlledger {

class BTree {
 public:
  /// An entry's key is its `key_ordinals` columns, in that order; an empty
  /// list makes the whole entry the key. `fanout` is the max number of
  /// entries per node before a split.
  explicit BTree(std::vector<size_t> key_ordinals, size_t fanout = 64);
  ~BTree();

  BTree(const BTree&) = delete;
  BTree& operator=(const BTree&) = delete;

  /// Inserts; fails with AlreadyExists, changing nothing, if the row's key
  /// is present. On success `*entry`, when given, points at the stored row
  /// until the next mutation.
  Status Insert(Row row, const Row** entry = nullptr);
  /// Inserts or overwrites the entry with the row's key.
  void Upsert(Row row);
  /// Replaces the entry with the row's key; NotFound otherwise.
  Status Update(Row row);
  /// Removes; NotFound if absent.
  Status Delete(const KeyTuple& key);

  /// Point lookup. The returned pointer is valid until the next mutation.
  const Row* Get(const KeyTuple& key) const { return Find(key); }
  /// Mutable point lookup for in-place edits. The key is read from the row,
  /// so an edit of a key column moves the entry's key without moving the
  /// entry: the tree is out of order until the edit is undone. Only
  /// tamper simulations do that; schema evolution appends trailing cells.
  Row* MutableGet(const KeyTuple& key) { return Find(key); }
  bool Contains(const KeyTuple& key) const { return Get(key) != nullptr; }
  /// Calls `fn` on every entry in key order, under MutableGet's contract.
  void ForEach(const std::function<void(Row*)>& fn);

  /// The key of `row`: its key columns, or all of it.
  KeyTuple KeyOf(const Row& row) const {
    return key_ordinals_.empty() ? row : row.Project(key_ordinals_);
  }
  /// True if the key of `row` starts with the cells of `prefix`.
  bool KeyStartsWith(const Row& row, const KeyTuple& prefix) const;

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  void Clear();

  /// Forward iterator over entries in key order. Invalidated by any
  /// mutation.
  class Iterator {
   public:
    bool Valid() const;
    void Next();
    KeyTuple key() const;
    const Row& value() const;

   private:
    friend class BTree;
    const BTree* tree_ = nullptr;
    const void* leaf_ = nullptr;
    size_t pos_ = 0;
  };

  /// Iterator positioned at the smallest key.
  Iterator Begin() const;
  /// Iterator positioned at the first key >= `key`.
  Iterator Seek(const KeyTuple& key) const;

  /// Structural self-check used by property tests: key order, every key
  /// under children[i] < separators[i] <= every key under children[i+1],
  /// all leaves at depth height_, mirrored prev/next links, size.
  Status CheckInvariants() const;
  /// Number of leaves in the chain (fill tests).
  size_t LeafCount() const;

 private:
  struct Node;
  struct LeafNode;
  struct InternalNode;

  /// Number of key columns of `row`.
  size_t KeyLength(const Row& row) const {
    return key_ordinals_.empty() ? row.size() : key_ordinals_.size();
  }
  /// Row ordinal of key column `i`.
  size_t KeyColumn(size_t i) const {
    return key_ordinals_.empty() ? i : key_ordinals_[i];
  }
  /// Compares `row`'s key with `key` under CompareKeys' prefix and length
  /// rules, reading the key cells in place beside `key`'s.
  int CompareRow(const Row& row, const KeyTuple& key) const;
  size_t LowerBound(const LeafNode& leaf, const KeyTuple& key) const;
  Row* Find(const KeyTuple& key) const;
  /// Inserts `row`, or overwrites its entry when `overwrite`; returns the
  /// inserted entry, or nullptr if the key was already present.
  Row* Put(Row row, bool overwrite);
  LeafNode* LeftmostLeaf() const;
  Status CheckNode(const Node* node, size_t depth, const KeyTuple* lo,
                   const KeyTuple* hi, const LeafNode** last,
                   size_t* count) const;
  void SplitLeaf(LeafNode* leaf, bool sequential,
                 std::vector<InternalNode*>* path);
  void SplitInternal(InternalNode* node, std::vector<InternalNode*>* path);
  LeafNode* DescendWithPath(const KeyTuple& key,
                            std::vector<InternalNode*>* path) const;
  void RemoveEmptyLeaf(LeafNode* leaf, std::vector<InternalNode*>* path);
  void FreeNode(Node* node);

  std::vector<size_t> key_ordinals_;
  size_t fanout_;
  Node* root_;
  size_t size_;
  size_t height_;  // 1 = root is a leaf
};

}  // namespace sqlledger

#endif  // SQLLEDGER_STORAGE_BTREE_H_
