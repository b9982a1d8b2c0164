#include "catalog/schema.h"

#include <cstdint>

namespace sqlledger {

size_t Schema::AddColumn(const std::string& name, DataType type, bool nullable,
                         uint32_t max_length, bool hidden) {
  ColumnDef col;
  col.column_id = next_column_id_++;
  col.name = name;
  col.type = type;
  col.nullable = nullable;
  col.max_length = max_length;
  col.hidden = hidden;
  columns_.push_back(std::move(col));
  return columns_.size() - 1;
}

int Schema::FindColumn(const std::string& name) const {
  for (size_t i = 0; i < columns_.size(); i++) {
    if (!columns_[i].dropped && columns_[i].name == name)
      return static_cast<int>(i);
  }
  return -1;
}

Status Schema::ValidateRow(const Row& row) const {
  if (row.size() != columns_.size())
    return Status::InvalidArgument(
        "row has " + std::to_string(row.size()) + " values, schema has " +
        std::to_string(columns_.size()) + " columns");
  Row::Iterator cell = row.begin();
  for (size_t i = 0; i < columns_.size(); i++, ++cell) {
    const ColumnDef& col = columns_[i];
    Cell v = *cell;
    if (v.is_null()) {
      if (!col.nullable && !col.dropped)
        return Status::InvalidArgument("NULL in non-nullable column '" +
                                       col.name + "'");
      continue;
    }
    if (v.type() != col.type)
      return Status::InvalidArgument(
          "type mismatch in column '" + col.name + "': expected " +
          DataTypeName(col.type) + ", got " + DataTypeName(v.type()));
    if (col.max_length > 0 && (col.type == DataType::kVarchar ||
                               col.type == DataType::kVarbinary) &&
        v.string_value().size() > col.max_length)
      return Status::InvalidArgument("value too long for column '" +
                                     col.name + "'");
  }
  return Status::OK();
}

Result<Row> Schema::PadRow(const Row& user_row,
                           std::initializer_list<OrdinalCell> hidden) const {
  if (columns_.size() > Row::kMaxColumns)
    return Status::InvalidArgument("table has too many columns for a row");
  // Map each column to its user cell, or to kHidden for a stamp or a NULL.
  constexpr size_t kHidden = SIZE_MAX;
  std::vector<size_t> source(columns_.size(), kHidden);
  size_t next_user = 0;
  for (size_t i = 0; i < columns_.size(); i++) {
    if (columns_[i].hidden || columns_[i].dropped) continue;
    if (next_user >= user_row.size())
      return Status::InvalidArgument("too few values for visible columns");
    source[i] = next_user++;
  }
  if (next_user != user_row.size())
    return Status::InvalidArgument("too many values for visible columns");
  Row::Cursor user_cells(user_row);
  return Row::Pack(columns_.size(), [&](size_t i) -> Cell {
    if (source[i] != kHidden) return user_cells[source[i]];
    for (const OrdinalCell& stamp : hidden) {
      if (stamp.ordinal == i) return stamp.cell;
    }
    // A NULL owns no bytes, so its Cell view outlives the temporary Value.
    return Value::Null(columns_[i].type);
  });
}

std::vector<size_t> Schema::VisibleOrdinals() const {
  std::vector<size_t> out;
  for (size_t i = 0; i < columns_.size(); i++) {
    if (!columns_[i].hidden && !columns_[i].dropped) out.push_back(i);
  }
  return out;
}

}  // namespace sqlledger
