#include "storage/btree.h"

#include <algorithm>
#include <cassert>
#include <cstdint>

namespace sqlledger {

struct BTree::Node {
  bool is_leaf;
  explicit Node(bool leaf) : is_leaf(leaf) {}
};

struct BTree::LeafNode : BTree::Node {
  explicit LeafNode(size_t capacity) : Node(true) { rows.reserve(capacity); }
  std::vector<Row> rows;
  // Slot of the leaf's most recent insert (SIZE_MAX before the first).
  size_t last_insert = SIZE_MAX;
  LeafNode* prev = nullptr;
  LeafNode* next = nullptr;
};

struct BTree::InternalNode : BTree::Node {
  InternalNode() : Node(false) {}
  // children.size() == separators.size() + 1. separators[i] separates
  // children[i] (strictly less) from children[i+1] (greater or equal).
  std::vector<KeyTuple> separators;
  std::vector<Node*> children;
};

namespace {
/// Index of the first separator > `key` (child index for descent).
size_t UpperBound(const std::vector<KeyTuple>& seps, const KeyTuple& key) {
  return std::upper_bound(seps.begin(), seps.end(), key, KeyTupleLess()) -
         seps.begin();
}
}  // namespace

BTree::BTree(std::vector<size_t> key_ordinals, size_t fanout)
    : key_ordinals_(std::move(key_ordinals)), fanout_(fanout < 4 ? 4 : fanout),
      root_(new LeafNode(fanout_ + 1)), size_(0), height_(1) {}

BTree::~BTree() { FreeNode(root_); }

void BTree::FreeNode(Node* node) {
  if (!node->is_leaf) {
    auto* in = static_cast<InternalNode*>(node);
    for (Node* child : in->children) FreeNode(child);
  }
  if (node->is_leaf)
    delete static_cast<LeafNode*>(node);
  else
    delete static_cast<InternalNode*>(node);
}

void BTree::Clear() {
  FreeNode(root_);
  root_ = new LeafNode(fanout_ + 1);
  size_ = 0;
  height_ = 1;
}

int BTree::CompareRow(const Row& row, const KeyTuple& key) const {
  const size_t len = KeyLength(row), key_len = key.size();
  Row::Cursor cells(row);
  Row::Iterator k = key.begin();
  for (size_t i = 0, n = std::min(len, key_len); i < n; i++, ++k) {
    int r = cells.At(KeyColumn(i)).Compare(k);
    if (r != 0) return r;
  }
  if (len < key_len) return -1;
  return len > key_len ? 1 : 0;
}

bool BTree::KeyStartsWith(const Row& row, const KeyTuple& prefix) const {
  const size_t n = prefix.size();
  if (KeyLength(row) < n) return false;
  Row::Cursor cells(row);
  Row::Iterator p = prefix.begin();
  for (size_t i = 0; i < n; i++, ++p) {
    if (cells.At(KeyColumn(i)).Compare(p) != 0) return false;
  }
  return true;
}

/// Index of the first entry in `leaf` whose key is >= `key`.
size_t BTree::LowerBound(const LeafNode& leaf, const KeyTuple& key) const {
  return std::lower_bound(leaf.rows.begin(), leaf.rows.end(), key,
                          [this](const Row& row, const KeyTuple& k) {
                            return CompareRow(row, k) < 0;
                          }) -
         leaf.rows.begin();
}

BTree::LeafNode* BTree::DescendWithPath(
    const KeyTuple& key, std::vector<InternalNode*>* path) const {
  Node* node = root_;
  while (!node->is_leaf) {
    auto* in = static_cast<InternalNode*>(node);
    if (path) path->push_back(in);
    node = in->children[UpperBound(in->separators, key)];
  }
  return static_cast<LeafNode*>(node);
}

Row* BTree::Find(const KeyTuple& key) const {
  LeafNode* leaf = DescendWithPath(key, nullptr);
  size_t pos = LowerBound(*leaf, key);
  if (pos < leaf->rows.size() && CompareRow(leaf->rows[pos], key) == 0)
    return &leaf->rows[pos];
  return nullptr;
}

Row* BTree::Put(Row row, bool overwrite) {
  // A whole-entry key is the row itself.
  KeyTuple projected = key_ordinals_.empty() ? KeyTuple() : KeyOf(row);
  const KeyTuple& key = key_ordinals_.empty() ? row : projected;
  std::vector<InternalNode*> path;
  LeafNode* leaf = DescendWithPath(key, &path);
  size_t pos = LowerBound(*leaf, key);
  if (pos < leaf->rows.size() && CompareRow(leaf->rows[pos], key) == 0) {
    if (overwrite) leaf->rows[pos] = std::move(row);
    return nullptr;
  }
  bool sequential = pos == leaf->last_insert + 1;
  leaf->rows.insert(leaf->rows.begin() + pos, std::move(row));
  leaf->last_insert = pos;
  size_++;
  if (leaf->rows.size() > fanout_) SplitLeaf(leaf, sequential, &path);
  // A split moves the entries from the cut on into the next leaf.
  if (pos >= leaf->rows.size()) {
    pos -= leaf->rows.size();
    leaf = leaf->next;
  }
  return &leaf->rows[pos];
}

Status BTree::Insert(Row row, const Row** entry) {
  Row* stored = Put(std::move(row), /*overwrite=*/false);
  if (stored == nullptr) return Status::AlreadyExists("duplicate key");
  if (entry != nullptr) *entry = stored;
  return Status::OK();
}

void BTree::Upsert(Row row) { Put(std::move(row), /*overwrite=*/true); }

Status BTree::Update(Row row) {
  Row* entry = Find(KeyOf(row));
  if (entry == nullptr) return Status::NotFound("key not found");
  *entry = std::move(row);
  return Status::OK();
}

void BTree::SplitLeaf(LeafNode* leaf, bool sequential,
                      std::vector<InternalNode*>* path) {
  // A sequential overflow in the upper half keeps the left leaf full: cut
  // just right of the new entry, or before it when it took the last slot.
  size_t n = leaf->rows.size(), pos = leaf->last_insert;
  size_t cut = n / 2;
  if (sequential && pos >= n / 2) cut = pos + 1 == n ? pos : pos + 1;
  auto* right = new LeafNode(fanout_ + 1);
  right->rows.assign(std::make_move_iterator(leaf->rows.begin() + cut),
                     std::make_move_iterator(leaf->rows.end()));
  leaf->rows.resize(cut);
  if (pos >= cut) right->last_insert = pos - cut;

  right->next = leaf->next;
  right->prev = leaf;
  if (leaf->next) leaf->next->prev = right;
  leaf->next = right;

  KeyTuple separator = KeyOf(right->rows.front());
  if (path->empty()) {
    auto* new_root = new InternalNode();
    new_root->separators.push_back(std::move(separator));
    new_root->children.push_back(leaf);
    new_root->children.push_back(right);
    root_ = new_root;
    height_++;
    return;
  }
  InternalNode* parent = path->back();
  path->pop_back();
  size_t at = UpperBound(parent->separators, separator);
  parent->separators.insert(parent->separators.begin() + at,
                            std::move(separator));
  parent->children.insert(parent->children.begin() + at + 1, right);
  if (parent->separators.size() > fanout_) SplitInternal(parent, path);
}

void BTree::SplitInternal(InternalNode* node,
                          std::vector<InternalNode*>* path) {
  auto* right = new InternalNode();
  size_t mid = node->separators.size() / 2;
  KeyTuple separator = node->separators[mid];  // moves up, not into right

  right->separators.assign(
      std::make_move_iterator(node->separators.begin() + mid + 1),
      std::make_move_iterator(node->separators.end()));
  right->children.assign(node->children.begin() + mid + 1,
                         node->children.end());
  node->separators.resize(mid);
  node->children.resize(mid + 1);

  if (path->empty()) {
    auto* new_root = new InternalNode();
    new_root->separators.push_back(std::move(separator));
    new_root->children.push_back(node);
    new_root->children.push_back(right);
    root_ = new_root;
    height_++;
    return;
  }
  InternalNode* parent = path->back();
  path->pop_back();
  size_t pos = UpperBound(parent->separators, separator);
  parent->separators.insert(parent->separators.begin() + pos,
                            std::move(separator));
  parent->children.insert(parent->children.begin() + pos + 1, right);
  if (parent->separators.size() > fanout_) SplitInternal(parent, path);
}

Status BTree::Delete(const KeyTuple& key) {
  std::vector<InternalNode*> path;
  LeafNode* leaf = DescendWithPath(key, &path);
  size_t pos = LowerBound(*leaf, key);
  if (pos >= leaf->rows.size() || CompareRow(leaf->rows[pos], key) != 0)
    return Status::NotFound("key not found");
  leaf->rows.erase(leaf->rows.begin() + pos);
  size_--;
  if (leaf->rows.empty() && leaf != root_) RemoveEmptyLeaf(leaf, &path);
  return Status::OK();
}

void BTree::RemoveEmptyLeaf(LeafNode* leaf, std::vector<InternalNode*>* path) {
  // Unlink from the leaf chain.
  if (leaf->prev) leaf->prev->next = leaf->next;
  if (leaf->next) leaf->next->prev = leaf->prev;

  // Remove the child pointer (and its separator) from the parent chain,
  // collapsing now-childless ancestors.
  Node* child = leaf;
  while (!path->empty()) {
    InternalNode* parent = path->back();
    path->pop_back();
    size_t ci = 0;
    while (ci < parent->children.size() && parent->children[ci] != child) ci++;
    assert(ci < parent->children.size());
    parent->children.erase(parent->children.begin() + ci);
    if (!parent->separators.empty())
      parent->separators.erase(parent->separators.begin() +
                               (ci == 0 ? 0 : ci - 1));
    if (child->is_leaf)
      delete static_cast<LeafNode*>(child);
    else
      delete static_cast<InternalNode*>(child);
    if (!parent->children.empty()) {
      // A root left with one child hands over to it. A non-root node keeps
      // a single child: lifting it would leave its leaves above height_.
      if (parent == root_ && parent->children.size() == 1) {
        root_ = parent->children[0];
        height_--;
        parent->children.clear();
        delete parent;
      }
      return;
    }
    child = parent;  // parent became empty; remove it from its own parent
  }
  // The whole tree emptied out: reset to a single empty leaf root.
  root_ = new LeafNode(fanout_ + 1);
  height_ = 1;
}

bool BTree::Iterator::Valid() const {
  return leaf_ != nullptr &&
         pos_ < static_cast<const LeafNode*>(leaf_)->rows.size();
}

void BTree::Iterator::Next() {
  const auto* leaf = static_cast<const LeafNode*>(leaf_);
  pos_++;
  while (leaf != nullptr && pos_ >= leaf->rows.size()) {
    leaf = leaf->next;
    pos_ = 0;
  }
  leaf_ = leaf;
}

KeyTuple BTree::Iterator::key() const { return tree_->KeyOf(value()); }

const Row& BTree::Iterator::value() const {
  return static_cast<const LeafNode*>(leaf_)->rows[pos_];
}

BTree::LeafNode* BTree::LeftmostLeaf() const {
  Node* node = root_;
  while (!node->is_leaf)
    node = static_cast<InternalNode*>(node)->children.front();
  return static_cast<LeafNode*>(node);
}

BTree::Iterator BTree::Begin() const {
  Iterator it;
  it.tree_ = this;
  const LeafNode* leaf = LeftmostLeaf();
  // Skip an empty root leaf.
  if (!leaf->rows.empty()) it.leaf_ = leaf;
  return it;
}

BTree::Iterator BTree::Seek(const KeyTuple& key) const {
  const LeafNode* leaf = DescendWithPath(key, nullptr);
  Iterator it;
  it.tree_ = this;
  it.pos_ = LowerBound(*leaf, key);
  while (leaf != nullptr && it.pos_ >= leaf->rows.size()) {
    leaf = leaf->next;
    it.pos_ = 0;
  }
  it.leaf_ = leaf;
  return it;
}

void BTree::ForEach(const std::function<void(Row*)>& fn) {
  for (LeafNode* leaf = LeftmostLeaf(); leaf != nullptr; leaf = leaf->next)
    for (Row& row : leaf->rows) fn(&row);
}

size_t BTree::LeafCount() const {
  size_t count = 0;
  for (const LeafNode* l = LeftmostLeaf(); l != nullptr; l = l->next) count++;
  return count;
}

/// Checks the subtree at `node`, whose keys must lie in [*lo, *hi) (a null
/// bound is open). Leaves are visited in tree order: `*last` is the leaf
/// before this subtree and `*count` the entries so far.
Status BTree::CheckNode(const Node* node, size_t depth, const KeyTuple* lo,
                        const KeyTuple* hi, const LeafNode** last,
                        size_t* count) const {
  if (!node->is_leaf) {
    const auto* in = static_cast<const InternalNode*>(node);
    const std::vector<KeyTuple>& seps = in->separators;
    for (size_t i = 0; i < in->children.size(); i++) {
      SL_RETURN_IF_ERROR(CheckNode(in->children[i], depth + 1,
                                   i == 0 ? lo : &seps[i - 1],
                                   i == seps.size() ? hi : &seps[i], last,
                                   count));
    }
    return Status::OK();
  }
  const auto* leaf = static_cast<const LeafNode*>(node);
  if (depth != height_)
    return Status::Corruption("leaf at depth " + std::to_string(depth) +
                              ", height is " + std::to_string(height_));
  if (leaf->prev != *last || (*last != nullptr && (*last)->next != leaf))
    return Status::Corruption("leaf prev/next links do not mirror");
  for (size_t i = 0; i < leaf->rows.size(); i++) {
    const Row& row = leaf->rows[i];
    if ((lo != nullptr && CompareRow(row, *lo) < 0) ||
        (hi != nullptr && CompareRow(row, *hi) >= 0))
      return Status::Corruption("leaf key outside its separators");
    if (i > 0 && CompareRow(row, KeyOf(leaf->rows[i - 1])) <= 0)
      return Status::Corruption("keys out of order in leaf");
  }
  *last = leaf;
  *count += leaf->rows.size();
  return Status::OK();
}

Status BTree::CheckInvariants() const {
  // Separator bounds plus in-leaf order make keys strictly increasing in
  // tree order; the mirrored links make the chain follow tree order.
  const LeafNode* last = nullptr;
  size_t count = 0;
  SL_RETURN_IF_ERROR(CheckNode(root_, 1, nullptr, nullptr, &last, &count));
  if (last->next != nullptr)
    return Status::Corruption("leaf chain runs past the last leaf");
  if (count != size_)
    return Status::Corruption("size mismatch: counted " +
                              std::to_string(count) + ", recorded " +
                              std::to_string(size_));
  return Status::OK();
}

}  // namespace sqlledger
