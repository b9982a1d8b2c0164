#include "storage/table_store.h"

#include <utility>

#include "util/coding.h"

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

/// A copy of `row`, or of its cells at `ordinals` when given.
Row CopyOf(const Row& row, const std::vector<size_t>* ordinals) {
  return ordinals == nullptr ? row : row.Project(*ordinals);
}
}  // namespace

TableStore::TableStore(uint32_t table_id, std::string name, Schema schema)
    : table_id_(table_id), name_(std::move(name)), schema_(std::move(schema)),
      clustered_(schema_.key_ordinals()) {}

Row TableStore::IndexEntryOf(const SecondaryIndex& idx, const Row& row) const {
  // The primary key follows the index columns so that non-unique index
  // entries stay distinct.
  const std::vector<size_t>& pk = schema_.key_ordinals();
  const size_t n = idx.ordinals.size();
  Row::Cursor cells(row);
  return Row::Pack(n + pk.size(), [&](size_t i) {
    return cells[i < n ? idx.ordinals[i] : pk[i - n]];
  });
}

Status TableStore::Insert(Row row, const Row** stored_out) {
  WriterMutexLock latch(&latch_);
  SL_RETURN_IF_ERROR(schema_.ValidateRow(row));
  // The clustered insert is the one primary-key search and changes nothing
  // on a duplicate, so that error wins over a unique violation; only a
  // unique violation pays a second search, to take the row back out.
  const Row* stored = nullptr;
  if (!clustered_.Insert(std::move(row), &stored).ok())
    return Status::AlreadyExists("duplicate primary key in table '" + name_ +
                                 "'");
  for (const auto& idx : indexes_) {
    if (!idx->unique) continue;
    Status st = CheckUnique(*idx, stored->Project(idx->ordinals));
    if (!st.ok()) {
      (void)clustered_.Delete(schema_.ExtractKey(*stored));  // just put in
      return st;
    }
  }
  for (const auto& idx : indexes_)
    idx->tree.Upsert(IndexEntryOf(*idx, *stored));
  if (stored_out != nullptr) *stored_out = stored;
  return Status::OK();
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
    KeyTuple prefix = row.Project(idx->ordinals);
    if (CompareKeys(prefix, old_row->Project(idx->ordinals)) != 0)
      SL_RETURN_IF_ERROR(CheckUnique(*idx, prefix));
  }
  for (const auto& idx : indexes_) {
    Row old_entry = IndexEntryOf(*idx, *old_row);
    Row new_entry = IndexEntryOf(*idx, row);
    if (CompareKeys(old_entry, new_entry) != 0) {
      // The clustered row was just read, so its index entry exists.
      (void)idx->tree.Delete(old_entry);
      idx->tree.Upsert(std::move(new_entry));
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
    (void)idx->tree.Delete(IndexEntryOf(*idx, *old_row));
  }
  return clustered_.Delete(key);
}

const Row* TableStore::Get(const KeyTuple& key) const {
  return clustered_.Get(key);
}

std::optional<Row> TableStore::GetCopy(
    const KeyTuple& key, const std::vector<size_t>* ordinals) const {
  ReaderMutexLock latch(&latch_);
  const Row* row = clustered_.Get(key);
  if (row == nullptr) return std::nullopt;
  return CopyOf(*row, ordinals);
}

std::optional<Row> TableStore::SeekFirstCopy(
    const KeyTuple& prefix, const std::vector<size_t>* ordinals) const {
  ReaderMutexLock latch(&latch_);
  BTree::Iterator it = clustered_.Seek(prefix);
  if (!it.Valid() || !clustered_.KeyStartsWith(it.value(), prefix))
    return std::nullopt;
  return CopyOf(it.value(), ordinals);
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
    idx->tree.Upsert(IndexEntryOf(*idx, it.value()));
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

std::vector<IndexDef> TableStore::IndexDefs() const {
  ReaderMutexLock latch(&latch_);
  std::vector<IndexDef> out;
  out.reserve(indexes_.size());
  for (const auto& idx : indexes_)
    out.push_back(IndexDef{idx->name, idx->ordinals, idx->unique});
  return out;
}

SecondaryIndex* TableStore::FindIndexLocked(const std::string& index_name) {
  for (const auto& idx : indexes_) {
    if (idx->name == index_name) return idx.get();
  }
  return nullptr;
}

// ---- Definition codec ----

void EncodeSchema(const Schema& schema, std::vector<uint8_t>* dst) {
  PutVarint32(dst, static_cast<uint32_t>(schema.num_columns()));
  for (const ColumnDef& col : schema.columns()) {
    PutVarint32(dst, col.column_id);
    PutLengthPrefixed(dst, Slice(col.name));
    dst->push_back(static_cast<uint8_t>(col.type));
    dst->push_back(col.nullable ? 1 : 0);
    PutVarint32(dst, col.max_length);
    dst->push_back(col.hidden ? 1 : 0);
    dst->push_back(col.dropped ? 1 : 0);
  }
  PutVarint32(dst, static_cast<uint32_t>(schema.key_ordinals().size()));
  for (size_t ord : schema.key_ordinals())
    PutVarint32(dst, static_cast<uint32_t>(ord));
  PutVarint32(dst, schema.next_column_id());
}

Result<Schema> DecodeSchema(Decoder* dec) {
  Schema schema;
  // A column takes at least 7 bytes: id, name length, type, nullable,
  // max length, hidden, dropped.
  auto num_cols = dec->GetVarint32();
  if (!num_cols.ok()) return num_cols.status();
  if (*num_cols > dec->remaining() / 7)
    return Status::Corruption("schema column count exceeds the input");
  for (uint32_t i = 0; i < *num_cols; i++) {
    auto id = dec->GetVarint32();
    if (!id.ok()) return id.status();
    auto name = dec->GetLengthPrefixed();
    if (!name.ok()) return name.status();
    auto type_b = dec->GetBytes(1);
    if (!type_b.ok()) return type_b.status();
    const uint8_t type = (*type_b)[0];
    if (type < static_cast<uint8_t>(DataType::kBool) ||
        type > static_cast<uint8_t>(DataType::kTimestamp))
      return Status::Corruption("bad column type in schema");
    auto nullable_b = dec->GetBytes(1);
    if (!nullable_b.ok()) return nullable_b.status();
    auto max_len = dec->GetVarint32();
    if (!max_len.ok()) return max_len.status();
    auto hidden_b = dec->GetBytes(1);
    if (!hidden_b.ok()) return hidden_b.status();
    auto dropped_b = dec->GetBytes(1);
    if (!dropped_b.ok()) return dropped_b.status();

    size_t ord = schema.AddColumn(name->ToString(),
                                  static_cast<DataType>(type),
                                  (*nullable_b)[0] != 0, *max_len,
                                  (*hidden_b)[0] != 0);
    ColumnDef* col = schema.mutable_column(ord);
    col->column_id = *id;
    col->dropped = (*dropped_b)[0] != 0;
  }
  auto num_key = dec->GetVarint32();
  if (!num_key.ok()) return num_key.status();
  if (*num_key > dec->remaining())
    return Status::Corruption("schema key count exceeds the input");
  std::vector<size_t> key_ordinals;
  key_ordinals.reserve(*num_key);
  for (uint32_t i = 0; i < *num_key; i++) {
    auto ord = dec->GetVarint32();
    if (!ord.ok()) return ord.status();
    if (*ord >= schema.num_columns())
      return Status::Corruption("schema key ordinal out of range");
    key_ordinals.push_back(*ord);
  }
  schema.SetPrimaryKey(std::move(key_ordinals));
  auto next_id = dec->GetVarint32();
  if (!next_id.ok()) return next_id.status();
  schema.set_next_column_id(*next_id);
  return schema;
}

void EncodeIndexDefs(const std::vector<IndexDef>& indexes,
                     std::vector<uint8_t>* dst) {
  PutVarint32(dst, static_cast<uint32_t>(indexes.size()));
  for (const IndexDef& idx : indexes) {
    PutLengthPrefixed(dst, Slice(idx.name));
    PutVarint32(dst, static_cast<uint32_t>(idx.ordinals.size()));
    for (size_t ord : idx.ordinals) PutVarint32(dst, static_cast<uint32_t>(ord));
    dst->push_back(idx.unique ? 1 : 0);
  }
}

Result<std::vector<IndexDef>> DecodeIndexDefs(Decoder* dec) {
  // An index takes at least 3 bytes: name length, ordinal count, unique.
  auto num_indexes = dec->GetVarint32();
  if (!num_indexes.ok()) return num_indexes.status();
  if (*num_indexes > dec->remaining() / 3)
    return Status::Corruption("index count exceeds the input");
  std::vector<IndexDef> out;
  out.reserve(*num_indexes);
  for (uint32_t i = 0; i < *num_indexes; i++) {
    IndexDef def;
    auto name = dec->GetLengthPrefixed();
    if (!name.ok()) return name.status();
    def.name = name->ToString();
    auto num_ords = dec->GetVarint32();
    if (!num_ords.ok()) return num_ords.status();
    if (*num_ords > dec->remaining())
      return Status::Corruption("index column count exceeds the input");
    def.ordinals.reserve(*num_ords);
    for (uint32_t k = 0; k < *num_ords; k++) {
      auto ord = dec->GetVarint32();
      if (!ord.ok()) return ord.status();
      def.ordinals.push_back(*ord);
    }
    auto unique_b = dec->GetBytes(1);
    if (!unique_b.ok()) return unique_b.status();
    def.unique = (*unique_b)[0] != 0;
    out.push_back(std::move(def));
  }
  return out;
}

}  // namespace sqlledger
