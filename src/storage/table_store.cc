#include "storage/table_store.h"

namespace sqlledger {

namespace {
/// AlreadyExists if the unique index `idx` holds an entry whose indexed
/// columns equal `prefix`.
Status CheckUnique(const SecondaryIndex& idx, const KeyTuple& prefix) {
  BTree::Iterator it = idx.tree.Seek(prefix);
  if (it.Valid() && idx.tree.KeyStartsWith(it.value(), prefix))
    return Status::AlreadyExists("unique index violation on '" + idx.name +
                                 "'");
  return Status::OK();
}
}  // namespace

TableStore::TableStore(uint32_t table_id, std::string name, Schema schema)
    : table_id_(table_id), name_(std::move(name)), schema_(std::move(schema)),
      clustered_(schema_.key_ordinals()) {}

KeyTuple TableStore::IndexKeyOf(const SecondaryIndex& idx,
                                const Row& row) const {
  KeyTuple key = Schema::ExtractColumns(row, idx.ordinals);
  // Append the primary key so non-unique index entries stay distinct.
  KeyTuple pk = schema_.ExtractKey(row);
  key.insert(key.end(), pk.begin(), pk.end());
  return key;
}

Status TableStore::Insert(const Row& row) {
  WriterMutexLock latch(&latch_);
  SL_RETURN_IF_ERROR(schema_.ValidateRow(row));
  KeyTuple pk = schema_.ExtractKey(row);
  if (clustered_.Contains(pk))
    return Status::AlreadyExists("duplicate primary key in table '" + name_ +
                                 "'");
  // Check unique indexes before mutating anything.
  for (const auto& idx : indexes_) {
    if (idx->unique)
      SL_RETURN_IF_ERROR(
          CheckUnique(*idx, Schema::ExtractColumns(row, idx->ordinals)));
  }
  for (const auto& idx : indexes_) idx->tree.Upsert(IndexKeyOf(*idx, row));
  return clustered_.Insert(row);
}

Status TableStore::Update(const Row& row) {
  WriterMutexLock latch(&latch_);
  SL_RETURN_IF_ERROR(schema_.ValidateRow(row));
  Row* old_row = clustered_.MutableGet(schema_.ExtractKey(row));
  if (old_row == nullptr)
    return Status::NotFound("row not found in table '" + name_ + "'");
  // Check unique indexes before mutating anything: a changed prefix that is
  // already present belongs to another row.
  for (const auto& idx : indexes_) {
    if (!idx->unique) continue;
    KeyTuple prefix = Schema::ExtractColumns(row, idx->ordinals);
    if (CompareKeys(prefix, Schema::ExtractColumns(*old_row, idx->ordinals)) !=
        0)
      SL_RETURN_IF_ERROR(CheckUnique(*idx, prefix));
  }
  for (const auto& idx : indexes_) {
    KeyTuple old_key = IndexKeyOf(*idx, *old_row);
    KeyTuple new_key = IndexKeyOf(*idx, row);
    if (CompareKeys(old_key, new_key) != 0) {
      // The clustered row was just read, so its index entry exists.
      (void)idx->tree.Delete(old_key);
      idx->tree.Upsert(std::move(new_key));
    }
  }
  *old_row = row;
  return Status::OK();
}

Status TableStore::Delete(const KeyTuple& key) {
  WriterMutexLock latch(&latch_);
  const Row* old_row = clustered_.Get(key);
  if (old_row == nullptr)
    return Status::NotFound("row not found in table '" + name_ + "'");
  for (const auto& idx : indexes_) {
    // The clustered row was just read, so its index entry exists.
    (void)idx->tree.Delete(IndexKeyOf(*idx, *old_row));
  }
  return clustered_.Delete(key);
}

const Row* TableStore::Get(const KeyTuple& key) const {
  return clustered_.Get(key);
}

std::optional<Row> TableStore::GetCopy(const KeyTuple& key) const {
  ReaderMutexLock latch(&latch_);
  const Row* row = clustered_.Get(key);
  if (row == nullptr) return std::nullopt;
  return *row;
}

std::optional<Row> TableStore::SeekFirstCopy(const KeyTuple& prefix) const {
  ReaderMutexLock latch(&latch_);
  BTree::Iterator it = clustered_.Seek(prefix);
  if (!it.Valid() || !clustered_.KeyStartsWith(it.value(), prefix))
    return std::nullopt;
  return it.value();
}

void TableStore::ExtendRows(const Value& value) {
  WriterMutexLock latch(&latch_);
  // The new cell is trailing, never a key column, so no entry moves.
  clustered_.ForEach([&value](Row* row) { *row = row->Extended(value); });
}

Status TableStore::CreateIndex(const std::string& index_name,
                               const std::vector<size_t>& ordinals,
                               bool unique) {
  WriterMutexLock latch(&latch_);
  if (FindIndexLocked(index_name) != nullptr)
    return Status::AlreadyExists("index '" + index_name + "' already exists");
  for (size_t ord : ordinals) {
    if (ord >= schema_.num_columns())
      return Status::InvalidArgument("index column ordinal out of range");
  }
  auto idx = std::make_unique<SecondaryIndex>();
  idx->name = index_name;
  idx->ordinals = ordinals;
  idx->unique = unique;
  // Build from existing rows.
  for (BTree::Iterator it = clustered_.Begin(); it.Valid(); it.Next())
    idx->tree.Upsert(IndexKeyOf(*idx, it.value()));
  if (unique) {
    // Stored tuples carry the primary key as a suffix, so duplicates of the
    // indexed columns appear as adjacent entries sharing the prefix.
    const Row* prev = nullptr;
    for (BTree::Iterator it = idx->tree.Begin(); it.Valid(); it.Next()) {
      const Row& entry = it.value();
      bool duplicate = prev != nullptr;
      for (size_t i = 0; duplicate && i < ordinals.size(); i++)
        duplicate = (*prev)[i] == entry[i];
      if (duplicate)
        return Status::InvalidArgument(
            "cannot create unique index: duplicate values present");
      prev = &entry;
    }
  }
  indexes_.push_back(std::move(idx));
  return Status::OK();
}

Status TableStore::DropIndex(const std::string& index_name) {
  WriterMutexLock latch(&latch_);
  for (size_t i = 0; i < indexes_.size(); i++) {
    if (indexes_[i]->name == index_name) {
      indexes_.erase(indexes_.begin() + i);
      return Status::OK();
    }
  }
  return Status::NotFound("index '" + index_name + "' not found");
}

SecondaryIndex* TableStore::FindIndex(const std::string& index_name) {
  ReaderMutexLock latch(&latch_);
  return FindIndexLocked(index_name);
}

SecondaryIndex* TableStore::FindIndexLocked(const std::string& index_name) {
  for (const auto& idx : indexes_) {
    if (idx->name == index_name) return idx.get();
  }
  return nullptr;
}

}  // namespace sqlledger
