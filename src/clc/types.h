// Type system for the clc OpenCL-C subset.
//
// Types are immutable and interned in a TypeTable owned by the translation
// unit being compiled; Type pointers compare equal iff the types are equal.
// Layout follows C rules (natural alignment, struct padding), so host
// structs declared with the same fields match byte-for-byte — that is what
// lets SkelCL pass C++ structs to kernels by value.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/error.h"

namespace clc {

enum class AddressSpace : std::uint8_t {
  Private = 0,
  Global = 1,
  Local = 2,
  Constant = 3,
};

const char* addressSpaceName(AddressSpace space) noexcept;

enum class ScalarKind : std::uint8_t {
  Void,
  Bool,
  I8,
  U8,
  I16,
  U16,
  I32,
  U32,
  I64,
  U64,
  F32,
  F64,
};

bool isInteger(ScalarKind kind) noexcept;
bool isSigned(ScalarKind kind) noexcept;
bool isFloating(ScalarKind kind) noexcept;
std::size_t scalarSize(ScalarKind kind) noexcept;
const char* scalarName(ScalarKind kind) noexcept;

class Type;

struct StructField {
  std::string name;
  const Type* type = nullptr;
  std::uint32_t offset = 0;
};

/// An interned type. Exactly one of the kinds below.
class Type {
public:
  enum class Kind : std::uint8_t { Scalar, Pointer, Struct, Array };

  Kind kind() const noexcept { return kind_; }
  bool isScalar() const noexcept { return kind_ == Kind::Scalar; }
  bool isPointer() const noexcept { return kind_ == Kind::Pointer; }
  bool isStruct() const noexcept { return kind_ == Kind::Struct; }
  bool isArray() const noexcept { return kind_ == Kind::Array; }

  bool isVoid() const noexcept {
    return isScalar() && scalar_ == ScalarKind::Void;
  }
  bool isIntegerScalar() const noexcept {
    return isScalar() && isInteger(scalar_);
  }
  bool isFloatingScalar() const noexcept {
    return isScalar() && isFloating(scalar_);
  }
  bool isArithmetic() const noexcept {
    return isScalar() && scalar_ != ScalarKind::Void;
  }

  ScalarKind scalarKind() const noexcept {
    COMMON_CHECK(isScalar());
    return scalar_;
  }

  const Type* pointee() const noexcept {
    COMMON_CHECK(isPointer());
    return element_;
  }
  AddressSpace addressSpace() const noexcept {
    COMMON_CHECK(isPointer());
    return addressSpace_;
  }

  const Type* elementType() const noexcept {
    COMMON_CHECK(isArray());
    return element_;
  }
  std::uint64_t arrayLength() const noexcept {
    COMMON_CHECK(isArray());
    return arrayLength_;
  }

  const std::string& structName() const noexcept {
    COMMON_CHECK(isStruct());
    return name_;
  }
  /// False between forwardDeclareStruct and completeStruct.
  bool isCompleteStruct() const noexcept {
    COMMON_CHECK(isStruct());
    return structComplete_;
  }
  const std::vector<StructField>& fields() const noexcept {
    COMMON_CHECK(isStruct());
    return fields_;
  }
  const StructField* findField(const std::string& name) const noexcept;

  std::size_t size() const noexcept { return size_; }
  std::size_t alignment() const noexcept { return align_; }

  /// Human-readable spelling for diagnostics, e.g. "__global float*".
  std::string toString() const;

private:
  friend class TypeTable;
  Type() = default;

  Kind kind_ = Kind::Scalar;
  ScalarKind scalar_ = ScalarKind::Void;
  const Type* element_ = nullptr;   // pointee or array element
  AddressSpace addressSpace_ = AddressSpace::Private;
  std::uint64_t arrayLength_ = 0;
  std::string name_;                // struct name
  std::vector<StructField> fields_;
  std::size_t size_ = 0;
  std::size_t align_ = 1;
  bool structComplete_ = false;
};

/// Interning table. Owns every Type it hands out; all returned pointers
/// stay valid for the table's lifetime.
class TypeTable {
public:
  TypeTable();
  TypeTable(const TypeTable&) = delete;
  TypeTable& operator=(const TypeTable&) = delete;

  const Type* scalar(ScalarKind kind) const noexcept;
  const Type* voidType() const noexcept { return scalar(ScalarKind::Void); }
  const Type* boolType() const noexcept { return scalar(ScalarKind::Bool); }
  const Type* intType() const noexcept { return scalar(ScalarKind::I32); }
  const Type* floatType() const noexcept { return scalar(ScalarKind::F32); }

  const Type* pointerTo(const Type* pointee, AddressSpace space);
  const Type* arrayOf(const Type* element, std::uint64_t length);

  /// Declares a new struct type; throws CompileError-compatible
  /// common::InvalidArgument when the name is already taken.
  const Type* declareStruct(const std::string& name,
                            std::vector<StructField> fields);

  /// Two-phase declaration, enabling self-referential structs
  /// ("struct Node { struct Node* next; }"): forward-declare, then
  /// complete with the field list. Forward-declaring an existing
  /// incomplete struct returns it; an existing complete one throws.
  const Type* forwardDeclareStruct(const std::string& name);
  void completeStruct(const Type* type, std::vector<StructField> fields);

  /// Registers an additional name for a struct (typedef). Renames
  /// anonymous structs so diagnostics use the typedef name. Throws when
  /// the name is already taken by a different struct.
  void aliasStruct(const std::string& name, const Type* type);

  /// Looks up a struct by name; nullptr when unknown.
  const Type* findStruct(const std::string& name) const noexcept;

private:
  Type* allocate();

  std::vector<std::unique_ptr<Type>> storage_;
  std::array<const Type*, 12> scalars_{};
  std::unordered_map<const Type*,
                     std::array<const Type*, 4>> pointerCache_;
  std::unordered_map<std::string, const Type*> structs_;
  std::vector<std::pair<std::pair<const Type*, std::uint64_t>, const Type*>>
      arrayCache_;
};

} // namespace clc
