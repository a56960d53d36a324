"""Semantic analysis for MiniC.

Resolves names, computes the (IR-level) type of every expression, and
rejects ill-formed programs before code generation.  Types are the IR
types themselves: MiniC ``int`` is ``i64``, ``char`` is ``i8``, and
structs/arrays/pointers map one-to-one.

The analysis produces a :class:`SemaInfo` that the code generator
consumes: expression types, lvalue-ness, resolved struct types, and
function signatures (including the modelled C library's).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..hardware.libc import LIBRARY
from ..ir.types import (
    ArrayType,
    FunctionType,
    I64,
    I8,
    IntType,
    PointerType,
    StructType,
    Type,
    VOID,
)
from . import ast_nodes as ast


class SemaError(Exception):
    """Raised on semantically invalid MiniC."""

    def __init__(self, message: str, line: int = 0):
        super().__init__(f"{message} (line {line})" if line else message)
        self.line = line


@dataclass
class SemaInfo:
    """Everything codegen needs, keyed by AST node identity."""

    expr_types: Dict[int, Type] = field(default_factory=dict)
    structs: Dict[str, StructType] = field(default_factory=dict)
    function_types: Dict[str, FunctionType] = field(default_factory=dict)
    #: names of library functions the program references
    used_library: List[str] = field(default_factory=list)

    def type_of(self, expr: ast.Expr) -> Type:
        return self.expr_types[id(expr)]


class _Scope:
    def __init__(self, parent: Optional["_Scope"] = None):
        self.parent = parent
        self.symbols: Dict[str, Type] = {}

    def declare(self, name: str, vtype: Type, line: int) -> None:
        if name in self.symbols:
            raise SemaError(f"redeclaration of {name!r}", line)
        self.symbols[name] = vtype

    def lookup(self, name: str) -> Optional[Type]:
        scope: Optional[_Scope] = self
        while scope is not None:
            if name in scope.symbols:
                return scope.symbols[name]
            scope = scope.parent
        return None


class Sema:
    """Two-pass semantic analyser."""

    def __init__(self, program: ast.Program):
        self.program = program
        self.info = SemaInfo()
        self.globals = _Scope()
        self._loop_depth = 0
        self._current_return: Type = VOID

    # -- entry point ----------------------------------------------------------------

    def analyze(self) -> SemaInfo:
        for struct in self.program.structs:
            self._declare_struct(struct)
        for gdecl in self.program.globals:
            gtype = self.resolve_type(gdecl.type_ref)
            self.globals.declare(gdecl.name, gtype, gdecl.line)
            if gdecl.initializer is not None:
                self._check_expr(gdecl.initializer, self.globals)
        for function in self.program.functions:
            self._declare_function(function)
        for function in self.program.functions:
            self._check_function(function)
        return self.info

    # -- types ----------------------------------------------------------------------

    def resolve_type(self, ref: ast.TypeRef) -> Type:
        base: Type
        if ref.base == "int":
            base = I64
        elif ref.base == "char":
            base = I8
        elif ref.base == "void":
            base = VOID
        elif ref.base.startswith("struct "):
            name = ref.base.split(" ", 1)[1]
            if name not in self.info.structs:
                raise SemaError(f"unknown struct {name!r}", ref.line)
            base = self.info.structs[name]
        else:
            raise SemaError(f"unknown type {ref.base!r}", ref.line)
        for _ in range(ref.pointer_depth):
            base = PointerType(base)
        for dim in reversed(ref.array_dims):
            base = ArrayType(base, dim)
        if base.is_void and not ref.pointer_depth:
            if ref.array_dims:
                raise SemaError("array of void", ref.line)
        return base

    def _declare_struct(self, struct: ast.StructDef) -> None:
        if struct.name in self.info.structs:
            raise SemaError(f"redefinition of struct {struct.name!r}", struct.line)
        stype = StructType(struct.name)
        self.info.structs[struct.name] = stype
        fields: List[Tuple[str, Type]] = []
        for fparam in struct.fields:
            fields.append((fparam.name, self.resolve_type(fparam.type_ref)))
        stype.set_body(fields)

    def _declare_function(self, function: ast.FunctionDef) -> None:
        if function.name in self.info.function_types:
            raise SemaError(f"redefinition of {function.name!r}", function.line)
        params = [self.resolve_type(p.type_ref) for p in function.params]
        for ptype, param in zip(params, function.params):
            if ptype.is_void:
                raise SemaError("void parameter", param.line)
        return_type = self.resolve_type(function.return_type)
        self.info.function_types[function.name] = FunctionType(return_type, params)

    # -- functions -------------------------------------------------------------------

    def _check_function(self, function: ast.FunctionDef) -> None:
        ftype = self.info.function_types[function.name]
        self._current_return = ftype.return_type
        scope = _Scope(self.globals)
        for param, ptype in zip(function.params, ftype.params):
            scope.declare(param.name, ptype, param.line)
        self._check_block(function.body, scope)

    def _check_block(self, body: List[ast.Stmt], scope: _Scope) -> None:
        inner = _Scope(scope)
        for stmt in body:
            self._check_stmt(stmt, inner)

    def _check_stmt(self, stmt: ast.Stmt, scope: _Scope) -> None:
        if isinstance(stmt, ast.DeclStmt):
            vtype = self.resolve_type(stmt.type_ref)
            if vtype.is_void:
                raise SemaError(f"variable {stmt.name!r} has void type", stmt.line)
            scope.declare(stmt.name, vtype, stmt.line)
            if stmt.initializer is not None:
                init_type = self._check_expr(stmt.initializer, scope)
                self._check_convertible(init_type, vtype, stmt.line)
        elif isinstance(stmt, ast.ExprStmt):
            if stmt.expr is not None:
                self._check_expr(stmt.expr, scope)
        elif isinstance(stmt, ast.IfStmt):
            self._check_expr(stmt.condition, scope)
            self._check_block(stmt.then_body, scope)
            self._check_block(stmt.else_body, scope)
        elif isinstance(stmt, ast.WhileStmt):
            self._check_expr(stmt.condition, scope)
            self._loop_depth += 1
            self._check_block(stmt.body, scope)
            self._loop_depth -= 1
        elif isinstance(stmt, ast.DoWhileStmt):
            self._loop_depth += 1
            self._check_block(stmt.body, scope)
            self._loop_depth -= 1
            self._check_expr(stmt.condition, scope)
        elif isinstance(stmt, ast.ForStmt):
            inner = _Scope(scope)
            if stmt.init is not None:
                self._check_stmt(stmt.init, inner)
            if stmt.condition is not None:
                self._check_expr(stmt.condition, inner)
            if stmt.step is not None:
                self._check_expr(stmt.step, inner)
            self._loop_depth += 1
            self._check_block(stmt.body, inner)
            self._loop_depth -= 1
        elif isinstance(stmt, ast.ReturnStmt):
            if stmt.value is None:
                if not self._current_return.is_void:
                    raise SemaError("return without value", stmt.line)
            else:
                if self._current_return.is_void:
                    raise SemaError("return with value in void function", stmt.line)
                vtype = self._check_expr(stmt.value, scope)
                self._check_convertible(vtype, self._current_return, stmt.line)
        elif isinstance(stmt, (ast.BreakStmt, ast.ContinueStmt)):
            if self._loop_depth == 0:
                raise SemaError("break/continue outside a loop", stmt.line)
        elif isinstance(stmt, ast.BlockStmt):
            self._check_block(stmt.body, scope)
        else:  # pragma: no cover - parser produces no other statements
            raise SemaError(f"unknown statement {type(stmt).__name__}", stmt.line)

    # -- expressions ---------------------------------------------------------------------

    def _set(self, expr: ast.Expr, vtype: Type) -> Type:
        self.info.expr_types[id(expr)] = vtype
        return vtype

    def _check_expr(self, expr: ast.Expr, scope: _Scope) -> Type:
        if isinstance(expr, ast.IntLiteral):
            return self._set(expr, I64)
        if isinstance(expr, ast.CharLiteral):
            return self._set(expr, I8)
        if isinstance(expr, ast.StringLiteral):
            return self._set(expr, PointerType(I8))
        if isinstance(expr, ast.NullLiteral):
            return self._set(expr, PointerType(I8))
        if isinstance(expr, ast.SizeofExpr):
            self.resolve_type(expr.type_ref)
            return self._set(expr, I64)
        if isinstance(expr, ast.Identifier):
            vtype = scope.lookup(expr.name)
            if vtype is None:
                raise SemaError(f"use of undeclared identifier {expr.name!r}", expr.line)
            return self._set(expr, vtype)
        if isinstance(expr, ast.UnaryOp):
            return self._check_unary(expr, scope)
        if isinstance(expr, ast.BinaryOp):
            return self._check_binary(expr, scope)
        if isinstance(expr, ast.Assignment):
            target_type = self._check_expr(expr.target, scope)
            if not self._is_lvalue(expr.target):
                raise SemaError("assignment to non-lvalue", expr.line)
            if isinstance(target_type, ArrayType):
                raise SemaError("assignment to array", expr.line)
            value_type = self._check_expr(expr.value, scope)
            self._check_convertible(value_type, target_type, expr.line)
            return self._set(expr, target_type)
        if isinstance(expr, ast.IndexExpr):
            base_type = self._check_expr(expr.base, scope)
            self._check_expr(expr.index, scope)
            if isinstance(base_type, ArrayType):
                return self._set(expr, base_type.element)
            if isinstance(base_type, PointerType):
                return self._set(expr, base_type.pointee)
            raise SemaError("indexing a non-array/pointer", expr.line)
        if isinstance(expr, ast.FieldExpr):
            base_type = self._check_expr(expr.base, scope)
            if expr.arrow:
                if not isinstance(base_type, PointerType):
                    raise SemaError("-> on non-pointer", expr.line)
                base_type = base_type.pointee
            if not isinstance(base_type, StructType):
                raise SemaError("field access on non-struct", expr.line)
            index = base_type.field_index(expr.field_name)
            return self._set(expr, base_type.field_type(index))
        if isinstance(expr, ast.TernaryExpr):
            self._check_expr(expr.condition, scope)
            then_type = self._decayed(self._check_expr(expr.then_value, scope))
            else_type = self._decayed(self._check_expr(expr.else_value, scope))
            if isinstance(then_type, PointerType) or isinstance(else_type, PointerType):
                self._check_convertible(else_type, then_type, expr.line)
                return self._set(expr, then_type)
            return self._set(expr, I64)
        if isinstance(expr, ast.CallExpr):
            return self._check_call(expr, scope)
        raise SemaError(f"unknown expression {type(expr).__name__}", expr.line)

    def _check_unary(self, expr: ast.UnaryOp, scope: _Scope) -> Type:
        operand_type = self._check_expr(expr.operand, scope)
        if expr.op == "*":
            decayed = self._decayed(operand_type)
            if not isinstance(decayed, PointerType):
                raise SemaError("dereference of non-pointer", expr.line)
            return self._set(expr, decayed.pointee)
        if expr.op == "&":
            if not self._is_lvalue(expr.operand):
                raise SemaError("address of non-lvalue", expr.line)
            return self._set(expr, PointerType(operand_type))
        if expr.op in ("-", "~"):
            if not isinstance(operand_type, IntType):
                raise SemaError(f"unary {expr.op} on non-integer", expr.line)
            return self._set(expr, I64)
        if expr.op == "!":
            return self._set(expr, I64)
        raise SemaError(f"unknown unary operator {expr.op!r}", expr.line)

    def _check_binary(self, expr: ast.BinaryOp, scope: _Scope) -> Type:
        left = self._decayed(self._check_expr(expr.left, scope))
        right = self._decayed(self._check_expr(expr.right, scope))
        op = expr.op
        if op in ("&&", "||"):
            return self._set(expr, I64)
        if op in ("==", "!=", "<", "<=", ">", ">="):
            return self._set(expr, I64)
        if op in ("+", "-"):
            if isinstance(left, PointerType) and isinstance(right, IntType):
                return self._set(expr, left)
            if (
                op == "+"
                and isinstance(right, PointerType)
                and isinstance(left, IntType)
            ):
                return self._set(expr, right)
            if (
                op == "-"
                and isinstance(left, PointerType)
                and isinstance(right, PointerType)
            ):
                return self._set(expr, I64)
        if isinstance(left, IntType) and isinstance(right, IntType):
            return self._set(expr, I64)
        raise SemaError(f"invalid operands to {op!r} ({left}, {right})", expr.line)

    def _check_call(self, expr: ast.CallExpr, scope: _Scope) -> Type:
        ftype = self.info.function_types.get(expr.name)
        if ftype is None:
            lib = LIBRARY.get(expr.name)
            if lib is None:
                raise SemaError(f"call to unknown function {expr.name!r}", expr.line)
            ftype = lib.function_type
            if expr.name not in self.info.used_library:
                self.info.used_library.append(expr.name)
        if len(expr.args) < len(ftype.params) or (
            len(expr.args) > len(ftype.params) and not ftype.varargs
        ):
            raise SemaError(
                f"{expr.name!r} expects {len(ftype.params)} argument(s), "
                f"got {len(expr.args)}",
                expr.line,
            )
        for arg, ptype in zip(expr.args, ftype.params):
            arg_type = self._check_expr(arg, scope)
            self._check_convertible(arg_type, ptype, expr.line)
        for arg in expr.args[len(ftype.params) :]:
            self._check_expr(arg, scope)
        return self._set(expr, ftype.return_type)

    # -- conversion rules ---------------------------------------------------------------

    @staticmethod
    def _decayed(vtype: Type) -> Type:
        if isinstance(vtype, ArrayType):
            return PointerType(vtype.element)
        return vtype

    def _check_convertible(self, source: Type, target: Type, line: int) -> None:
        source = self._decayed(source)
        if source == target:
            return
        if isinstance(source, IntType) and isinstance(target, IntType):
            return  # widening/narrowing handled in codegen
        if isinstance(source, PointerType) and isinstance(target, PointerType):
            return  # C-style implicit pointer conversion (bitcast)
        if isinstance(source, IntType) and isinstance(target, PointerType):
            return  # integer-to-pointer (used by the attack listings)
        if isinstance(source, PointerType) and isinstance(target, IntType):
            return
        raise SemaError(f"cannot convert {source} to {target}", line)

    @staticmethod
    def _is_lvalue(expr: ast.Expr) -> bool:
        if isinstance(expr, (ast.Identifier, ast.IndexExpr, ast.FieldExpr)):
            return True
        return isinstance(expr, ast.UnaryOp) and expr.op == "*"
