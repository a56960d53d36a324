"""Abstract syntax tree for MiniC."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple


@dataclass
class Node:
    """Base AST node carrying its source position."""

    line: int = field(default=0, kw_only=True)


# ---------------------------------------------------------------------------
# Type syntax
# ---------------------------------------------------------------------------


@dataclass
class TypeRef(Node):
    """A type as written: base name + pointer depth + array dims.

    ``base`` is ``"int"``, ``"char"``, ``"void"``, or ``"struct NAME"``.
    """

    base: str = "int"
    pointer_depth: int = 0
    array_dims: Tuple[int, ...] = ()


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


@dataclass
class Expr(Node):
    pass


@dataclass
class IntLiteral(Expr):
    value: int = 0


@dataclass
class CharLiteral(Expr):
    value: str = "\0"


@dataclass
class StringLiteral(Expr):
    value: str = ""


@dataclass
class NullLiteral(Expr):
    pass


@dataclass
class Identifier(Expr):
    name: str = ""


@dataclass
class BinaryOp(Expr):
    op: str = "+"
    left: Optional[Expr] = None
    right: Optional[Expr] = None


@dataclass
class UnaryOp(Expr):
    """``-x``, ``!x``, ``~x``, ``*p`` (deref), ``&x`` (address-of)."""

    op: str = "-"
    operand: Optional[Expr] = None


@dataclass
class Assignment(Expr):
    target: Optional[Expr] = None
    value: Optional[Expr] = None


@dataclass
class CallExpr(Expr):
    name: str = ""
    args: List[Expr] = field(default_factory=list)


@dataclass
class IndexExpr(Expr):
    """``base[index]`` on arrays or pointers."""

    base: Optional[Expr] = None
    index: Optional[Expr] = None


@dataclass
class FieldExpr(Expr):
    """``base.field`` or ``base->field`` (``arrow=True``)."""

    base: Optional[Expr] = None
    field_name: str = ""
    arrow: bool = False


@dataclass
class TernaryExpr(Expr):
    """``cond ? then_value : else_value`` with short-circuit arms."""

    condition: Optional[Expr] = None
    then_value: Optional[Expr] = None
    else_value: Optional[Expr] = None


@dataclass
class SizeofExpr(Expr):
    type_ref: Optional[TypeRef] = None


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


@dataclass
class Stmt(Node):
    pass


@dataclass
class ExprStmt(Stmt):
    expr: Optional[Expr] = None


@dataclass
class DeclStmt(Stmt):
    """A local declaration: ``int x = 3;`` / ``char buf[16];``"""

    type_ref: Optional[TypeRef] = None
    name: str = ""
    initializer: Optional[Expr] = None


@dataclass
class IfStmt(Stmt):
    condition: Optional[Expr] = None
    then_body: List[Stmt] = field(default_factory=list)
    else_body: List[Stmt] = field(default_factory=list)


@dataclass
class WhileStmt(Stmt):
    condition: Optional[Expr] = None
    body: List[Stmt] = field(default_factory=list)


@dataclass
class DoWhileStmt(Stmt):
    """``do { body } while (condition);`` -- body runs at least once."""

    condition: Optional[Expr] = None
    body: List[Stmt] = field(default_factory=list)


@dataclass
class ForStmt(Stmt):
    init: Optional[Stmt] = None
    condition: Optional[Expr] = None
    step: Optional[Expr] = None
    body: List[Stmt] = field(default_factory=list)


@dataclass
class ReturnStmt(Stmt):
    value: Optional[Expr] = None


@dataclass
class BreakStmt(Stmt):
    pass


@dataclass
class ContinueStmt(Stmt):
    pass


@dataclass
class BlockStmt(Stmt):
    body: List[Stmt] = field(default_factory=list)


# ---------------------------------------------------------------------------
# Top level
# ---------------------------------------------------------------------------


@dataclass
class Param(Node):
    type_ref: Optional[TypeRef] = None
    name: str = ""


@dataclass
class FunctionDef(Node):
    return_type: Optional[TypeRef] = None
    name: str = ""
    params: List[Param] = field(default_factory=list)
    body: List[Stmt] = field(default_factory=list)


@dataclass
class GlobalDecl(Node):
    type_ref: Optional[TypeRef] = None
    name: str = ""
    initializer: Optional[Expr] = None


@dataclass
class StructDef(Node):
    name: str = ""
    fields: List[Param] = field(default_factory=list)


@dataclass
class Program(Node):
    structs: List[StructDef] = field(default_factory=list)
    globals: List[GlobalDecl] = field(default_factory=list)
    functions: List[FunctionDef] = field(default_factory=list)
