#include "clc/types.h"

#include <algorithm>

namespace clc {

const char* addressSpaceName(AddressSpace space) noexcept {
  switch (space) {
    case AddressSpace::Private: return "__private";
    case AddressSpace::Global: return "__global";
    case AddressSpace::Local: return "__local";
    case AddressSpace::Constant: return "__constant";
  }
  return "?";
}

bool isInteger(ScalarKind kind) noexcept {
  switch (kind) {
    case ScalarKind::Bool:
    case ScalarKind::I8:
    case ScalarKind::U8:
    case ScalarKind::I16:
    case ScalarKind::U16:
    case ScalarKind::I32:
    case ScalarKind::U32:
    case ScalarKind::I64:
    case ScalarKind::U64:
      return true;
    default:
      return false;
  }
}

bool isSigned(ScalarKind kind) noexcept {
  switch (kind) {
    case ScalarKind::I8:
    case ScalarKind::I16:
    case ScalarKind::I32:
    case ScalarKind::I64:
      return true;
    default:
      return false;
  }
}

bool isFloating(ScalarKind kind) noexcept {
  return kind == ScalarKind::F32 || kind == ScalarKind::F64;
}

std::size_t scalarSize(ScalarKind kind) noexcept {
  switch (kind) {
    case ScalarKind::Void: return 0;
    case ScalarKind::Bool: return 1;
    case ScalarKind::I8:
    case ScalarKind::U8: return 1;
    case ScalarKind::I16:
    case ScalarKind::U16: return 2;
    case ScalarKind::I32:
    case ScalarKind::U32:
    case ScalarKind::F32: return 4;
    case ScalarKind::I64:
    case ScalarKind::U64:
    case ScalarKind::F64: return 8;
  }
  return 0;
}

const char* scalarName(ScalarKind kind) noexcept {
  switch (kind) {
    case ScalarKind::Void: return "void";
    case ScalarKind::Bool: return "bool";
    case ScalarKind::I8: return "char";
    case ScalarKind::U8: return "uchar";
    case ScalarKind::I16: return "short";
    case ScalarKind::U16: return "ushort";
    case ScalarKind::I32: return "int";
    case ScalarKind::U32: return "uint";
    case ScalarKind::I64: return "long";
    case ScalarKind::U64: return "ulong";
    case ScalarKind::F32: return "float";
    case ScalarKind::F64: return "double";
  }
  return "?";
}

const StructField* Type::findField(const std::string& name) const noexcept {
  COMMON_CHECK(isStruct());
  for (const auto& field : fields_) {
    if (field.name == name) {
      return &field;
    }
  }
  return nullptr;
}

std::string Type::toString() const {
  switch (kind_) {
    case Kind::Scalar:
      return scalarName(scalar_);
    case Kind::Pointer:
      return std::string(addressSpaceName(addressSpace_)) + " " +
             element_->toString() + "*";
    case Kind::Struct:
      return "struct " + name_;
    case Kind::Array:
      return element_->toString() + "[" + std::to_string(arrayLength_) + "]";
  }
  return "?";
}

TypeTable::TypeTable() {
  for (int i = 0; i <= static_cast<int>(ScalarKind::F64); ++i) {
    Type* t = allocate();
    t->kind_ = Type::Kind::Scalar;
    t->scalar_ = static_cast<ScalarKind>(i);
    t->size_ = scalarSize(t->scalar_);
    t->align_ = std::max<std::size_t>(1, t->size_);
    scalars_[static_cast<std::size_t>(i)] = t;
  }
}

Type* TypeTable::allocate() {
  storage_.push_back(std::unique_ptr<Type>(new Type()));
  return storage_.back().get();
}

const Type* TypeTable::scalar(ScalarKind kind) const noexcept {
  return scalars_[static_cast<std::size_t>(kind)];
}

const Type* TypeTable::pointerTo(const Type* pointee, AddressSpace space) {
  auto& slots = pointerCache_[pointee];
  const auto idx = static_cast<std::size_t>(space);
  if (slots[idx] == nullptr) {
    Type* t = allocate();
    t->kind_ = Type::Kind::Pointer;
    t->element_ = pointee;
    t->addressSpace_ = space;
    t->size_ = 8; // pointers are 64-bit handles in the VM
    t->align_ = 8;
    slots[idx] = t;
  }
  return slots[idx];
}

const Type* TypeTable::arrayOf(const Type* element, std::uint64_t length) {
  for (const auto& [key, type] : arrayCache_) {
    if (key.first == element && key.second == length) {
      return type;
    }
  }
  Type* t = allocate();
  t->kind_ = Type::Kind::Array;
  t->element_ = element;
  t->arrayLength_ = length;
  t->size_ = element->size() * length;
  t->align_ = element->alignment();
  arrayCache_.push_back({{element, length}, t});
  return t;
}

const Type* TypeTable::declareStruct(const std::string& name,
                                     std::vector<StructField> fields) {
  const Type* t = forwardDeclareStruct(name);
  completeStruct(t, std::move(fields));
  return t;
}

const Type* TypeTable::forwardDeclareStruct(const std::string& name) {
  const auto it = structs_.find(name);
  if (it != structs_.end()) {
    if (it->second->isCompleteStruct()) {
      throw common::InvalidArgument("struct '" + name + "' redefined");
    }
    return it->second;
  }
  Type* t = allocate();
  t->kind_ = Type::Kind::Struct;
  t->name_ = name;
  structs_[name] = t;
  return t;
}

void TypeTable::completeStruct(const Type* type,
                               std::vector<StructField> fields) {
  COMMON_CHECK(type->isStruct());
  if (type->isCompleteStruct()) {
    throw common::InvalidArgument("struct '" + type->structName() +
                                  "' redefined");
  }
  auto* t = const_cast<Type*>(type);
  std::size_t offset = 0;
  std::size_t align = 1;
  for (auto& field : fields) {
    if (field.type->isStruct() && !field.type->isCompleteStruct()) {
      throw common::InvalidArgument(
          "field '" + field.name + "' has incomplete type '" +
          field.type->toString() + "'");
    }
    const std::size_t fieldAlign = field.type->alignment();
    offset = (offset + fieldAlign - 1) / fieldAlign * fieldAlign;
    field.offset = static_cast<std::uint32_t>(offset);
    offset += field.type->size();
    align = std::max(align, fieldAlign);
  }
  t->fields_ = std::move(fields);
  t->align_ = align;
  t->size_ = (offset + align - 1) / align * align;
  t->structComplete_ = true;
}

void TypeTable::aliasStruct(const std::string& name, const Type* type) {
  COMMON_CHECK(type->isStruct());
  const auto it = structs_.find(name);
  if (it != structs_.end()) {
    if (it->second != type) {
      throw common::InvalidArgument("type name '" + name +
                                    "' is already in use");
    }
    return;
  }
  structs_[name] = type;
  auto* t = const_cast<Type*>(type);
  if (t->name_.rfind("__anon_struct_", 0) == 0) {
    t->name_ = name;
  }
}

const Type* TypeTable::findStruct(const std::string& name) const noexcept {
  const auto it = structs_.find(name);
  return it == structs_.end() ? nullptr : it->second;
}

} // namespace clc
