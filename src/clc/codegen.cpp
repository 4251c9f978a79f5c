#include "clc/codegen.h"

#include <cstring>
#include <unordered_map>

#include "clc/builtins.h"
#include "clc/eval.h"
#include "clc/parser.h"
#include "clc/sema.h"
#include "clc/verify.h"
#include "common/hash.h"

namespace clc {

namespace {

TypeTag tagFor(const Type* type) {
  if (type->isPointer()) {
    return TypeTag::Ptr;
  }
  COMMON_CHECK_MSG(type->isScalar(), "tagFor on non-scalar type");
  switch (type->scalarKind()) {
    case ScalarKind::Bool: return TypeTag::U8;
    case ScalarKind::I8: return TypeTag::I8;
    case ScalarKind::U8: return TypeTag::U8;
    case ScalarKind::I16: return TypeTag::I16;
    case ScalarKind::U16: return TypeTag::U16;
    case ScalarKind::I32: return TypeTag::I32;
    case ScalarKind::U32: return TypeTag::U32;
    case ScalarKind::I64: return TypeTag::I64;
    case ScalarKind::U64: return TypeTag::U64;
    case ScalarKind::F32: return TypeTag::F32;
    case ScalarKind::F64: return TypeTag::F64;
    case ScalarKind::Void: break;
  }
  COMMON_CHECK_MSG(false, "tagFor(void)");
  return TypeTag::I32;
}

class CodeGen {
public:
  explicit CodeGen(const TranslationUnit& unit) : unit_(unit) {}

  Program run() {
    // Function indices: every function with a body, in declaration order.
    for (const FuncDecl* func : unit_.functions) {
      if (func->bodyStmt == nullptr) {
        continue;
      }
      funcIndex_[func] = static_cast<std::int32_t>(order_.size());
      order_.push_back(func);
    }
    for (const FuncDecl* func : order_) {
      genFunction(func);
    }
    return std::move(program_);
  }

private:
  // --- emission helpers -------------------------------------------------------

  std::int32_t emit(Op op, TypeTag tag = TypeTag::I32, std::int32_t a = 0) {
    program_.code.push_back(Instr{op, tag, a});
    return static_cast<std::int32_t>(program_.code.size() - 1);
  }

  std::int32_t here() const {
    return static_cast<std::int32_t>(program_.code.size());
  }

  void patch(std::int32_t at, std::int32_t target) {
    program_.code[static_cast<std::size_t>(at)].a = target;
  }

  std::int32_t constIndex(std::uint64_t value) {
    const auto it = constCache_.find(value);
    if (it != constCache_.end()) {
      return it->second;
    }
    const auto idx = static_cast<std::int32_t>(program_.constants.size());
    program_.constants.push_back(value);
    constCache_[value] = idx;
    return idx;
  }

  void pushConst(std::uint64_t value, TypeTag tag) {
    emit(Op::PushConst, tag, constIndex(value));
  }

  void pushConstF32(float value) {
    std::uint32_t bits;
    std::memcpy(&bits, &value, sizeof(bits));
    pushConst(bits, TypeTag::F32);
  }

  void pushConstF64(double value) {
    std::uint64_t bits;
    std::memcpy(&bits, &value, sizeof(bits));
    pushConst(bits, TypeTag::F64);
  }

  // --- frame layout ------------------------------------------------------------

  std::uint32_t allocFrame(const Type* type) {
    const auto align = static_cast<std::uint32_t>(
        std::max<std::size_t>(1, type->alignment()));
    frameTop_ = (frameTop_ + align - 1) / align * align;
    const std::uint32_t offset = frameTop_;
    frameTop_ += static_cast<std::uint32_t>(std::max<std::size_t>(
        type->size(), 1));
    return offset;
  }

  std::uint32_t allocLocal(const Type* type) {
    const auto align = static_cast<std::uint32_t>(
        std::max<std::size_t>(1, type->alignment()));
    localTop_ = (localTop_ + align - 1) / align * align;
    const std::uint32_t offset = localTop_;
    localTop_ += static_cast<std::uint32_t>(type->size());
    return offset;
  }

  /// Walks a statement tree assigning frame offsets to declarations.
  void layoutStmt(const Stmt* stmt) {
    switch (stmt->kind) {
      case StmtKind::Block:
        for (const Stmt* s : stmt->body) layoutStmt(s);
        return;
      case StmtKind::Decl:
        for (VarDecl* var : stmt->decls) {
          if (var->space == AddressSpace::Local) {
            var->frameOffset = allocLocal(var->type);
          } else {
            var->frameOffset = allocFrame(var->type);
          }
        }
        return;
      case StmtKind::If:
        layoutStmt(stmt->thenStmt);
        if (stmt->elseStmt) layoutStmt(stmt->elseStmt);
        return;
      case StmtKind::For:
        if (stmt->forInit) layoutStmt(stmt->forInit);
        layoutStmt(stmt->thenStmt);
        return;
      case StmtKind::While:
      case StmtKind::DoWhile:
        layoutStmt(stmt->thenStmt);
        return;
      default:
        return;
    }
  }

  // --- function generation ------------------------------------------------------

  void genFunction(const FuncDecl* func) {
    FunctionInfo info;
    info.name = func->name;
    info.isKernel = func->isKernel;
    info.codeStart = static_cast<std::uint32_t>(here());

    frameTop_ = 0;
    localTop_ = 0;

    const bool sret = func->returnType->isStruct();
    if (sret) {
      info.returnsStruct = true;
      info.returnSize = static_cast<std::uint32_t>(func->returnType->size());
      sretOffset_ = allocFrame(unit_.types().scalar(ScalarKind::U64));
    }
    info.returnsValue = !sret && !func->returnType->isVoid();

    for (std::size_t i = 0; i < func->paramVars.size(); ++i) {
      VarDecl* var = func->paramVars[i];
      var->frameOffset = allocFrame(var->type);
      ParamInfo param;
      param.name = var->name;
      param.frameOffset = var->frameOffset;
      param.size = static_cast<std::uint32_t>(var->type->size());
      if (var->type->isPointer()) {
        switch (var->type->addressSpace()) {
          case AddressSpace::Local:
            param.kind = ParamKind::LocalPtr;
            break;
          case AddressSpace::Global:
          case AddressSpace::Constant:
            param.kind = ParamKind::GlobalPtr;
            break;
          case AddressSpace::Private:
            param.kind = ParamKind::Scalar; // device-function-only pointers
            param.scalarTag = TypeTag::Ptr;
            break;
        }
        param.size = 8;
      } else if (var->type->isStruct()) {
        param.kind = ParamKind::Struct;
      } else {
        param.kind = ParamKind::Scalar;
        param.scalarTag = tagFor(var->type);
      }
      info.params.push_back(param);
    }

    layoutStmt(func->bodyStmt);

    currentFunc_ = func;
    genStmt(func->bodyStmt);

    // Implicit return at the end of the body.
    if (func->returnType->isVoid()) {
      emit(Op::Ret);
    } else {
      emit(Op::Trap, TypeTag::I32, 1); // fell off the end of non-void fn
    }

    info.codeEnd = static_cast<std::uint32_t>(here());
    info.frameSize = (frameTop_ + 7) / 8 * 8;
    program_.functions.push_back(info);

    if (func->isKernel) {
      KernelInfo kernel;
      kernel.name = func->name;
      kernel.functionIndex =
          static_cast<std::uint32_t>(funcIndex_.at(func));
      kernel.staticLocalSize = (localTop_ + 7) / 8 * 8;
      program_.kernels.push_back(kernel);
    }
    currentFunc_ = nullptr;
  }

  // --- statements -----------------------------------------------------------------

  struct LoopCtx {
    std::vector<std::int32_t> breakPatches;
    std::vector<std::int32_t> continuePatches;
  };

  void genStmt(const Stmt* stmt) {
    switch (stmt->kind) {
      case StmtKind::Block:
        for (const Stmt* s : stmt->body) genStmt(s);
        return;
      case StmtKind::Decl:
        for (const VarDecl* var : stmt->decls) {
          if (var->init != nullptr) {
            if (var->type->isStruct()) {
              emit(Op::PushFrameAddr, TypeTag::Ptr,
                   static_cast<std::int32_t>(var->frameOffset));
              genValue(var->init); // struct rvalue -> address
              emit(Op::MemCopy, TypeTag::U8,
                   static_cast<std::int32_t>(var->type->size()));
            } else {
              emit(Op::PushFrameAddr, TypeTag::Ptr,
                   static_cast<std::int32_t>(var->frameOffset));
              genValue(var->init);
              emit(Op::Store, tagFor(var->type));
            }
          }
        }
        return;
      case StmtKind::ExprStmt:
        genDiscarded(stmt->expr);
        return;
      case StmtKind::If: {
        genCondition(stmt->expr);
        const std::int32_t jz = emit(Op::Jz);
        genStmt(stmt->thenStmt);
        if (stmt->elseStmt != nullptr) {
          const std::int32_t jend = emit(Op::Jmp);
          patch(jz, here());
          genStmt(stmt->elseStmt);
          patch(jend, here());
        } else {
          patch(jz, here());
        }
        return;
      }
      case StmtKind::While: {
        LoopCtx loop;
        const std::int32_t condAt = here();
        genCondition(stmt->expr);
        const std::int32_t jz = emit(Op::Jz);
        loops_.push_back(&loop);
        genStmt(stmt->thenStmt);
        loops_.pop_back();
        for (const std::int32_t at : loop.continuePatches) {
          patch(at, condAt);
        }
        emit(Op::Jmp, TypeTag::I32, condAt);
        patch(jz, here());
        for (const std::int32_t at : loop.breakPatches) {
          patch(at, here());
        }
        return;
      }
      case StmtKind::DoWhile: {
        LoopCtx loop;
        const std::int32_t bodyAt = here();
        loops_.push_back(&loop);
        genStmt(stmt->thenStmt);
        loops_.pop_back();
        const std::int32_t condAt = here();
        genCondition(stmt->expr);
        emit(Op::Jnz, TypeTag::I32, bodyAt);
        for (const std::int32_t at : loop.continuePatches) {
          patch(at, condAt);
        }
        for (const std::int32_t at : loop.breakPatches) {
          patch(at, here());
        }
        return;
      }
      case StmtKind::For: {
        LoopCtx loop;
        if (stmt->forInit != nullptr) {
          genStmt(stmt->forInit);
        }
        const std::int32_t condAt = here();
        std::int32_t jz = -1;
        if (stmt->expr != nullptr) {
          genCondition(stmt->expr);
          jz = emit(Op::Jz);
        }
        loops_.push_back(&loop);
        genStmt(stmt->thenStmt);
        loops_.pop_back();
        const std::int32_t stepAt = here();
        if (stmt->forStep != nullptr) {
          genDiscarded(stmt->forStep);
        }
        emit(Op::Jmp, TypeTag::I32, condAt);
        if (jz >= 0) {
          patch(jz, here());
        }
        for (const std::int32_t at : loop.continuePatches) {
          patch(at, stepAt);
        }
        for (const std::int32_t at : loop.breakPatches) {
          patch(at, here());
        }
        return;
      }
      case StmtKind::Return:
        if (stmt->expr == nullptr) {
          emit(Op::Ret);
        } else if (currentFunc_->returnType->isStruct()) {
          genValue(stmt->expr); // address of the struct value
          emit(Op::RetStruct, TypeTag::U8,
               static_cast<std::int32_t>(currentFunc_->returnType->size()));
        } else {
          genValue(stmt->expr);
          emit(Op::RetVal, tagFor(currentFunc_->returnType));
        }
        return;
      case StmtKind::Break:
        loops_.back()->breakPatches.push_back(emit(Op::Jmp));
        return;
      case StmtKind::Continue:
        loops_.back()->continuePatches.push_back(emit(Op::Jmp));
        return;
      case StmtKind::Empty:
        return;
    }
  }

  // --- expressions: addresses ------------------------------------------------------

  /// Emits code leaving the address of `e` on the stack. Valid for lvalues
  /// and for struct-typed rvalues (call results evaluate into temps).
  void genAddr(const Expr* e) {
    switch (e->kind) {
      case ExprKind::VarRef: {
        const VarDecl* var = e->resolvedVar;
        if (var->space == AddressSpace::Local) {
          emit(Op::PushLocalAddr, TypeTag::Ptr,
               static_cast<std::int32_t>(var->frameOffset));
        } else {
          emit(Op::PushFrameAddr, TypeTag::Ptr,
               static_cast<std::int32_t>(var->frameOffset));
        }
        return;
      }
      case ExprKind::Unary:
        COMMON_CHECK(e->unaryOp == UnaryOp::Deref);
        genValue(e->lhs); // the pointer value is the address
        return;
      case ExprKind::Index: {
        const Type* base = e->lhs->type;
        std::size_t elemSize;
        if (base->isArray()) {
          genAddr(e->lhs);
          elemSize = base->elementType()->size();
        } else {
          genValue(e->lhs); // pointer value
          elemSize = base->pointee()->size();
        }
        genValue(e->rhs); // i64 index
        pushConst(elemSize, TypeTag::I64);
        emit(Op::Mul, TypeTag::I64);
        emit(Op::Add, TypeTag::U64);
        return;
      }
      case ExprKind::Member: {
        genAddr(e->lhs);
        if (e->resolvedField->offset != 0) {
          pushConst(e->resolvedField->offset, TypeTag::U64);
          emit(Op::Add, TypeTag::U64);
        }
        return;
      }
      case ExprKind::Call:
        // Struct-returning call: evaluating the value yields the address
        // of the temporary that holds the result.
        COMMON_CHECK(e->type->isStruct());
        genValue(e);
        return;
      case ExprKind::Assign: {
        // (a = b).field — generate the assignment, keep the address.
        COMMON_CHECK(e->type->isStruct());
        genStructAssign(e, /*needAddr=*/true);
        return;
      }
      default:
        COMMON_CHECK_MSG(false, "genAddr on non-addressable expression");
    }
  }

  // --- expressions: values -----------------------------------------------------------

  /// Emits code leaving the value of `e` on the stack: a scalar slot, or
  /// the address for struct/array-typed expressions.
  void genValue(const Expr* e) {
    switch (e->kind) {
      case ExprKind::IntLit:
      case ExprKind::BoolLit: {
        const TypeTag tag = tagFor(e->type);
        pushConst(eval::canon(e->intValue, tag), tag);
        return;
      }
      case ExprKind::FloatLit:
        if (e->type->scalarKind() == ScalarKind::F64) {
          pushConstF64(e->floatValue);
        } else {
          pushConstF32(static_cast<float>(e->floatValue));
        }
        return;
      case ExprKind::VarRef:
      case ExprKind::Index:
      case ExprKind::Member:
        if (e->type->isStruct() || e->type->isArray()) {
          genAddr(e);
        } else {
          genAddr(e);
          emit(Op::Load, tagFor(e->type));
        }
        return;
      case ExprKind::Unary:
        genUnary(e, /*needValue=*/true);
        return;
      case ExprKind::Binary:
        genBinary(e);
        return;
      case ExprKind::Assign:
        genAssign(e, /*needValue=*/true);
        return;
      case ExprKind::Ternary: {
        genCondition(e->lhs);
        const std::int32_t jz = emit(Op::Jz);
        genValue(e->rhs);
        const std::int32_t jend = emit(Op::Jmp);
        patch(jz, here());
        genValue(e->ternaryElse);
        patch(jend, here());
        return;
      }
      case ExprKind::Call:
        genCall(e, /*needValue=*/true);
        return;
      case ExprKind::Cast:
        genCast(e);
        return;
      case ExprKind::SizeofType:
        pushConst(e->writtenType->size(), TypeTag::U64);
        return;
    }
  }

  /// Evaluates `e` for side effects only.
  void genDiscarded(const Expr* e) {
    switch (e->kind) {
      case ExprKind::Assign:
        genAssign(e, /*needValue=*/false);
        return;
      case ExprKind::Unary:
        switch (e->unaryOp) {
          case UnaryOp::PreInc:
          case UnaryOp::PreDec:
          case UnaryOp::PostInc:
          case UnaryOp::PostDec:
            genUnary(e, /*needValue=*/false);
            return;
          default:
            break;
        }
        break;
      case ExprKind::Call:
        genCall(e, /*needValue=*/false);
        return;
      default:
        break;
    }
    genValue(e);
    if (!e->type->isVoid()) {
      emit(Op::Pop);
    }
  }

  /// Leaves a normalized i32 0/1 on the stack.
  void genCondition(const Expr* e) {
    genValue(e);
    const Type* t = e->type;
    if (t->isPointer()) {
      pushConst(0, TypeTag::U64);
      emit(Op::CmpNe, TypeTag::U64);
      return;
    }
    const TypeTag tag = tagFor(t);
    switch (tag) {
      case TypeTag::F32: pushConstF32(0.0f); break;
      case TypeTag::F64: pushConstF64(0.0); break;
      default: pushConst(0, tag); break;
    }
    emit(Op::CmpNe, tag);
  }

  void genUnary(const Expr* e, bool needValue) {
    switch (e->unaryOp) {
      case UnaryOp::Plus:
        genValue(e->lhs);
        return;
      case UnaryOp::Neg:
        genValue(e->lhs);
        emit(Op::Neg, tagFor(e->type));
        return;
      case UnaryOp::Not:
        genCondition(e->lhs);
        emit(Op::LogNot);
        return;
      case UnaryOp::BitNot:
        genValue(e->lhs);
        emit(Op::BitNot, tagFor(e->type));
        return;
      case UnaryOp::Deref:
        if (e->type->isStruct() || e->type->isArray()) {
          genValue(e->lhs);
        } else {
          genValue(e->lhs);
          emit(Op::Load, tagFor(e->type));
        }
        return;
      case UnaryOp::AddrOf:
        genAddr(e->lhs);
        return;
      case UnaryOp::PreInc:
      case UnaryOp::PreDec:
      case UnaryOp::PostInc:
      case UnaryOp::PostDec:
        genIncDec(e, needValue);
        return;
    }
  }

  void genIncDec(const Expr* e, bool needValue) {
    const bool isInc = e->unaryOp == UnaryOp::PreInc ||
                       e->unaryOp == UnaryOp::PostInc;
    const bool isPost = e->unaryOp == UnaryOp::PostInc ||
                        e->unaryOp == UnaryOp::PostDec;
    const Type* t = e->type;
    const TypeTag tag = tagFor(t);

    genAddr(e->lhs);
    emit(Op::Dup);
    emit(Op::Load, tag); // [ptr, old]

    if (isPost && needValue) {
      emit(Op::Dup); // [ptr, old, old]
      emitStepAdd(t, tag, isInc); // [ptr, old, new]
      emit(Op::Rot3);             // [old, new, ptr]
      emit(Op::Swap);             // [old, ptr, new]
      emit(Op::Store, tag);       // [old]
      return;
    }
    emitStepAdd(t, tag, isInc); // [ptr, new]
    if (needValue) {
      emit(Op::StoreKeep, tag); // [new]
    } else {
      emit(Op::Store, tag);
    }
  }

  /// Adds or subtracts "one step" (1, 1.0, or sizeof pointee).
  void emitStepAdd(const Type* t, TypeTag tag, bool isInc) {
    if (t->isPointer()) {
      pushConst(t->pointee()->size(), TypeTag::U64);
      emit(isInc ? Op::Add : Op::Sub, TypeTag::U64);
      return;
    }
    switch (tag) {
      case TypeTag::F32: pushConstF32(1.0f); break;
      case TypeTag::F64: pushConstF64(1.0); break;
      default: pushConst(1, tag); break;
    }
    emit(isInc ? Op::Add : Op::Sub, tag);
  }

  void genBinary(const Expr* e) {
    const Type* lt = e->lhs->type;
    const Type* rt = e->rhs->type;

    switch (e->binaryOp) {
      case BinaryOp::LogAnd: {
        genCondition(e->lhs);
        const std::int32_t jz1 = emit(Op::Jz);
        genCondition(e->rhs);
        const std::int32_t jz2 = emit(Op::Jz);
        pushConst(1, TypeTag::I32);
        const std::int32_t jend = emit(Op::Jmp);
        patch(jz1, here());
        patch(jz2, here());
        pushConst(0, TypeTag::I32);
        patch(jend, here());
        return;
      }
      case BinaryOp::LogOr: {
        genCondition(e->lhs);
        const std::int32_t jnz1 = emit(Op::Jnz);
        genCondition(e->rhs);
        const std::int32_t jnz2 = emit(Op::Jnz);
        pushConst(0, TypeTag::I32);
        const std::int32_t jend = emit(Op::Jmp);
        patch(jnz1, here());
        patch(jnz2, here());
        pushConst(1, TypeTag::I32);
        patch(jend, here());
        return;
      }
      default:
        break;
    }

    // Pointer arithmetic.
    if ((e->binaryOp == BinaryOp::Add || e->binaryOp == BinaryOp::Sub)) {
      if (lt->isPointer() && rt->isIntegerScalar()) {
        genValue(e->lhs);
        genValue(e->rhs);
        pushConst(lt->pointee()->size(), TypeTag::I64);
        emit(Op::Mul, TypeTag::I64);
        emit(e->binaryOp == BinaryOp::Add ? Op::Add : Op::Sub, TypeTag::U64);
        return;
      }
      if (e->binaryOp == BinaryOp::Add && lt->isIntegerScalar() &&
          rt->isPointer()) {
        genValue(e->rhs);
        genValue(e->lhs);
        pushConst(rt->pointee()->size(), TypeTag::I64);
        emit(Op::Mul, TypeTag::I64);
        emit(Op::Add, TypeTag::U64);
        return;
      }
      if (e->binaryOp == BinaryOp::Sub && lt->isPointer() &&
          rt->isPointer()) {
        genValue(e->lhs);
        genValue(e->rhs);
        emit(Op::Sub, TypeTag::I64);
        pushConst(lt->pointee()->size(), TypeTag::I64);
        emit(Op::Div, TypeTag::I64);
        return;
      }
    }

    genValue(e->lhs);
    genValue(e->rhs);
    const TypeTag opTag =
        lt->isPointer() ? TypeTag::U64 : tagFor(e->lhs->type);
    switch (e->binaryOp) {
      case BinaryOp::Add: emit(Op::Add, opTag); return;
      case BinaryOp::Sub: emit(Op::Sub, opTag); return;
      case BinaryOp::Mul: emit(Op::Mul, opTag); return;
      case BinaryOp::Div: emit(Op::Div, opTag); return;
      case BinaryOp::Rem: emit(Op::Rem, opTag); return;
      case BinaryOp::Shl: emit(Op::Shl, opTag); return;
      case BinaryOp::Shr: emit(Op::Shr, opTag); return;
      case BinaryOp::BitAnd: emit(Op::BitAnd, opTag); return;
      case BinaryOp::BitOr: emit(Op::BitOr, opTag); return;
      case BinaryOp::BitXor: emit(Op::BitXor, opTag); return;
      case BinaryOp::EqCmp: emit(Op::CmpEq, opTag); return;
      case BinaryOp::Ne: emit(Op::CmpNe, opTag); return;
      case BinaryOp::Lt: emit(Op::CmpLt, opTag); return;
      case BinaryOp::Le: emit(Op::CmpLe, opTag); return;
      case BinaryOp::Gt: emit(Op::CmpGt, opTag); return;
      case BinaryOp::Ge: emit(Op::CmpGe, opTag); return;
      case BinaryOp::LogAnd:
      case BinaryOp::LogOr:
        COMMON_CHECK(false);
        return;
    }
  }

  void genAssign(const Expr* e, bool needValue) {
    if (e->type->isStruct()) {
      genStructAssign(e, needValue);
      if (needValue) {
        // The address of the assigned-to struct is the "value".
      }
      return;
    }
    const TypeTag tag = tagFor(e->type);
    if (e->assignOp == AssignOp::None) {
      genAddr(e->lhs);
      genValue(e->rhs);
      emit(needValue ? Op::StoreKeep : Op::Store, tag);
      return;
    }
    // Compound assignment: load, operate in the common type, store back.
    const Type* common = e->rhs->type; // sema coerced rhs to the op type
    genAddr(e->lhs);
    emit(Op::Dup);
    emit(Op::Load, tag); // [ptr, cur]

    if (e->lhs->type->isPointer()) {
      genValue(e->rhs); // i64 element count
      pushConst(e->lhs->type->pointee()->size(), TypeTag::I64);
      emit(Op::Mul, TypeTag::I64);
      emit(e->assignOp == AssignOp::Add ? Op::Add : Op::Sub, TypeTag::U64);
      emit(needValue ? Op::StoreKeep : Op::Store, tag);
      return;
    }

    emitConv(e->lhs->type, common); // widen current value
    genValue(e->rhs);
    const TypeTag commonTag = tagFor(common);
    switch (e->assignOp) {
      case AssignOp::Add: emit(Op::Add, commonTag); break;
      case AssignOp::Sub: emit(Op::Sub, commonTag); break;
      case AssignOp::Mul: emit(Op::Mul, commonTag); break;
      case AssignOp::Div: emit(Op::Div, commonTag); break;
      case AssignOp::Rem: emit(Op::Rem, commonTag); break;
      case AssignOp::Shl: emit(Op::Shl, commonTag); break;
      case AssignOp::Shr: emit(Op::Shr, commonTag); break;
      case AssignOp::And: emit(Op::BitAnd, commonTag); break;
      case AssignOp::Or: emit(Op::BitOr, commonTag); break;
      case AssignOp::Xor: emit(Op::BitXor, commonTag); break;
      case AssignOp::None: COMMON_CHECK(false); break;
    }
    emitConv(common, e->lhs->type); // narrow back to the lhs type
    emit(needValue ? Op::StoreKeep : Op::Store, tag);
  }

  void genStructAssign(const Expr* e, bool needAddr) {
    COMMON_CHECK(e->assignOp == AssignOp::None);
    genAddr(e->lhs);
    if (needAddr) {
      emit(Op::Dup);
    }
    genValue(e->rhs); // source address
    emit(Op::MemCopy, TypeTag::U8,
         static_cast<std::int32_t>(e->type->size()));
  }

  void genCast(const Expr* e) {
    genValue(e->lhs);
    emitConv(e->lhs->type, e->type);
  }

  void emitConv(const Type* from, const Type* to) {
    if (from == to) {
      return;
    }
    const TypeTag fromTag = tagFor(from);
    const TypeTag toTag = tagFor(to);
    if (fromTag == toTag) {
      return;
    }
    // Pointer <-> integer reinterpretations share the U64 representation.
    const auto isPtrLike = [](TypeTag t) {
      return t == TypeTag::Ptr || t == TypeTag::U64 || t == TypeTag::I64;
    };
    if ((fromTag == TypeTag::Ptr || toTag == TypeTag::Ptr) &&
        isPtrLike(fromTag) && isPtrLike(toTag)) {
      return;
    }
    emit(Op::Conv, TypeTag::I32,
         (static_cast<std::int32_t>(fromTag) << 8) |
             static_cast<std::int32_t>(toTag));
  }

  void genCall(const Expr* e, bool needValue) {
    if (e->builtinId >= 0) {
      genBuiltinCall(e, needValue);
      return;
    }
    const FuncDecl* callee = e->resolvedFunc;
    const std::int32_t index = funcIndex_.at(callee);

    std::int32_t tempOffset = -1;
    if (callee->returnType->isStruct()) {
      tempOffset = static_cast<std::int32_t>(allocFrame(callee->returnType));
      emit(Op::PushFrameAddr, TypeTag::Ptr, tempOffset);
    }
    for (const Expr* arg : e->args) {
      genValue(arg); // scalars as values, structs as addresses
    }
    emit(Op::Call, TypeTag::I32, index);

    if (callee->returnType->isStruct()) {
      emit(Op::PushFrameAddr, TypeTag::Ptr, tempOffset);
      if (!needValue) {
        emit(Op::Pop);
      }
      return;
    }
    if (!callee->returnType->isVoid() && !needValue) {
      emit(Op::Pop);
    }
  }

  void genBuiltinCall(const Expr* e, bool needValue) {
    const auto id = static_cast<Builtin>(e->builtinId);
    if (id == Builtin::Barrier) {
      // The flags argument is a compile-time constant in every real
      // kernel; it does not affect the simulator's full barrier.
      emit(Op::Barrier);
      return;
    }
    for (const Expr* arg : e->args) {
      genValue(arg);
    }
    // The tag lets the VM pick the float width / integer signedness.
    TypeTag tag = TypeTag::I32;
    if (!e->args.empty()) {
      const Type* last = e->args.back()->type;
      tag = last->isPointer() ? tagFor(last->pointee()) : tagFor(last);
    }
    if (e->args.size() >= 1 && e->args[0]->type->isPointer()) {
      // Atomics: operand type is the pointee.
      tag = tagFor(e->args[0]->type->pointee());
    }
    emit(Op::CallBuiltin, tag, e->builtinId);
    if (!e->type->isVoid() && !needValue) {
      emit(Op::Pop);
    }
  }

  const TranslationUnit& unit_;
  Program program_;
  std::unordered_map<const FuncDecl*, std::int32_t> funcIndex_;
  std::vector<const FuncDecl*> order_;
  std::unordered_map<std::uint64_t, std::int32_t> constCache_;
  std::uint32_t frameTop_ = 0;
  std::uint32_t localTop_ = 0;
  std::uint32_t sretOffset_ = 0;
  const FuncDecl* currentFunc_ = nullptr;
  std::vector<LoopCtx*> loops_;
};

} // namespace

Program generate(const TranslationUnit& unit) {
  return CodeGen(unit).run();
}

Program compile(const std::string& source) {
  auto unit = parse(source);
  analyze(*unit);
  Program program = generate(*unit);
  program.sourceHash = common::Sha256::hexDigest(source);
  try {
    verify(program);
  } catch (const VerifyError& e) {
    throw CompileError(e.what(), SourceLoc{});
  }
  return program;
}

} // namespace clc
