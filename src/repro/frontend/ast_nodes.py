"""Abstract syntax tree for MiniC.

Nodes are plain ``__slots__`` classes with one explicit ``__init__``
each, not dataclasses: a cold ``repro run`` defines all 32 of them and
builds ~1,500 nodes, and ``@dataclass`` would compile generated source
for every class at import.  Each ``__init__`` takes the node's fields
in declaration order (positionally or by keyword), every field has a
default, list fields default to a fresh list per node, and ``line`` is
keyword-only.  Nodes compare by identity; sema keys its tables by
``id(node)``.
"""

from __future__ import annotations

from typing import List, Optional, Tuple


class Node:
    """Base AST node carrying its source position."""

    __slots__ = ("line",)

    def __init__(self, *, line: int = 0):
        self.line = line

    def __repr__(self) -> str:
        names = [
            name
            for cls in reversed(type(self).__mro__)
            for name in cls.__dict__.get("__slots__", ())
        ]
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in names)
        return f"{type(self).__name__}({fields})"


# ---------------------------------------------------------------------------
# Type syntax
# ---------------------------------------------------------------------------


class TypeRef(Node):
    """A type as written: base name + pointer depth + array dims.

    ``base`` is ``"int"``, ``"char"``, ``"void"``, or ``"struct NAME"``.
    """

    __slots__ = ("base", "pointer_depth", "array_dims")

    def __init__(
        self,
        base: str = "int",
        pointer_depth: int = 0,
        array_dims: Tuple[int, ...] = (),
        *,
        line: int = 0,
    ):
        self.line = line
        self.base = base
        self.pointer_depth = pointer_depth
        self.array_dims = array_dims


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


class Expr(Node):
    __slots__ = ()


class IntLiteral(Expr):
    __slots__ = ("value",)

    def __init__(self, value: int = 0, *, line: int = 0):
        self.line = line
        self.value = value


class CharLiteral(Expr):
    __slots__ = ("value",)

    def __init__(self, value: str = "\0", *, line: int = 0):
        self.line = line
        self.value = value


class StringLiteral(Expr):
    __slots__ = ("value",)

    def __init__(self, value: str = "", *, line: int = 0):
        self.line = line
        self.value = value


class NullLiteral(Expr):
    __slots__ = ()


class Identifier(Expr):
    __slots__ = ("name",)

    def __init__(self, name: str = "", *, line: int = 0):
        self.line = line
        self.name = name


class BinaryOp(Expr):
    __slots__ = ("op", "left", "right")

    def __init__(
        self,
        op: str = "+",
        left: Optional[Expr] = None,
        right: Optional[Expr] = None,
        *,
        line: int = 0,
    ):
        self.line = line
        self.op = op
        self.left = left
        self.right = right


class UnaryOp(Expr):
    """``-x``, ``!x``, ``~x``, ``*p`` (deref), ``&x`` (address-of)."""

    __slots__ = ("op", "operand")

    def __init__(self, op: str = "-", operand: Optional[Expr] = None, *, line: int = 0):
        self.line = line
        self.op = op
        self.operand = operand


class Assignment(Expr):
    __slots__ = ("target", "value")

    def __init__(
        self,
        target: Optional[Expr] = None,
        value: Optional[Expr] = None,
        *,
        line: int = 0,
    ):
        self.line = line
        self.target = target
        self.value = value


class CallExpr(Expr):
    __slots__ = ("name", "args")

    def __init__(
        self, name: str = "", args: Optional[List[Expr]] = None, *, line: int = 0
    ):
        self.line = line
        self.name = name
        self.args = [] if args is None else args


class IndexExpr(Expr):
    """``base[index]`` on arrays or pointers."""

    __slots__ = ("base", "index")

    def __init__(
        self,
        base: Optional[Expr] = None,
        index: Optional[Expr] = None,
        *,
        line: int = 0,
    ):
        self.line = line
        self.base = base
        self.index = index


class FieldExpr(Expr):
    """``base.field`` or ``base->field`` (``arrow=True``)."""

    __slots__ = ("base", "field_name", "arrow")

    def __init__(
        self,
        base: Optional[Expr] = None,
        field_name: str = "",
        arrow: bool = False,
        *,
        line: int = 0,
    ):
        self.line = line
        self.base = base
        self.field_name = field_name
        self.arrow = arrow


class TernaryExpr(Expr):
    """``cond ? then_value : else_value`` with short-circuit arms."""

    __slots__ = ("condition", "then_value", "else_value")

    def __init__(
        self,
        condition: Optional[Expr] = None,
        then_value: Optional[Expr] = None,
        else_value: Optional[Expr] = None,
        *,
        line: int = 0,
    ):
        self.line = line
        self.condition = condition
        self.then_value = then_value
        self.else_value = else_value


class SizeofExpr(Expr):
    __slots__ = ("type_ref",)

    def __init__(self, type_ref: Optional[TypeRef] = None, *, line: int = 0):
        self.line = line
        self.type_ref = type_ref


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


class Stmt(Node):
    __slots__ = ()


class ExprStmt(Stmt):
    __slots__ = ("expr",)

    def __init__(self, expr: Optional[Expr] = None, *, line: int = 0):
        self.line = line
        self.expr = expr


class DeclStmt(Stmt):
    """A local declaration: ``int x = 3;`` / ``char buf[16];``"""

    __slots__ = ("type_ref", "name", "initializer")

    def __init__(
        self,
        type_ref: Optional[TypeRef] = None,
        name: str = "",
        initializer: Optional[Expr] = None,
        *,
        line: int = 0,
    ):
        self.line = line
        self.type_ref = type_ref
        self.name = name
        self.initializer = initializer


class IfStmt(Stmt):
    __slots__ = ("condition", "then_body", "else_body")

    def __init__(
        self,
        condition: Optional[Expr] = None,
        then_body: Optional[List[Stmt]] = None,
        else_body: Optional[List[Stmt]] = None,
        *,
        line: int = 0,
    ):
        self.line = line
        self.condition = condition
        self.then_body = [] if then_body is None else then_body
        self.else_body = [] if else_body is None else else_body


class WhileStmt(Stmt):
    __slots__ = ("condition", "body")

    def __init__(
        self,
        condition: Optional[Expr] = None,
        body: Optional[List[Stmt]] = None,
        *,
        line: int = 0,
    ):
        self.line = line
        self.condition = condition
        self.body = [] if body is None else body


class DoWhileStmt(Stmt):
    """``do { body } while (condition);`` -- body runs at least once."""

    __slots__ = ("condition", "body")

    def __init__(
        self,
        condition: Optional[Expr] = None,
        body: Optional[List[Stmt]] = None,
        *,
        line: int = 0,
    ):
        self.line = line
        self.condition = condition
        self.body = [] if body is None else body


class ForStmt(Stmt):
    __slots__ = ("init", "condition", "step", "body")

    def __init__(
        self,
        init: Optional[Stmt] = None,
        condition: Optional[Expr] = None,
        step: Optional[Expr] = None,
        body: Optional[List[Stmt]] = None,
        *,
        line: int = 0,
    ):
        self.line = line
        self.init = init
        self.condition = condition
        self.step = step
        self.body = [] if body is None else body


class ReturnStmt(Stmt):
    __slots__ = ("value",)

    def __init__(self, value: Optional[Expr] = None, *, line: int = 0):
        self.line = line
        self.value = value


class BreakStmt(Stmt):
    __slots__ = ()


class ContinueStmt(Stmt):
    __slots__ = ()


class BlockStmt(Stmt):
    __slots__ = ("body",)

    def __init__(self, body: Optional[List[Stmt]] = None, *, line: int = 0):
        self.line = line
        self.body = [] if body is None else body


# ---------------------------------------------------------------------------
# Top level
# ---------------------------------------------------------------------------


class Param(Node):
    __slots__ = ("type_ref", "name")

    def __init__(
        self, type_ref: Optional[TypeRef] = None, name: str = "", *, line: int = 0
    ):
        self.line = line
        self.type_ref = type_ref
        self.name = name


class FunctionDef(Node):
    __slots__ = ("return_type", "name", "params", "body")

    def __init__(
        self,
        return_type: Optional[TypeRef] = None,
        name: str = "",
        params: Optional[List[Param]] = None,
        body: Optional[List[Stmt]] = None,
        *,
        line: int = 0,
    ):
        self.line = line
        self.return_type = return_type
        self.name = name
        self.params = [] if params is None else params
        self.body = [] if body is None else body


class GlobalDecl(Node):
    __slots__ = ("type_ref", "name", "initializer")

    def __init__(
        self,
        type_ref: Optional[TypeRef] = None,
        name: str = "",
        initializer: Optional[Expr] = None,
        *,
        line: int = 0,
    ):
        self.line = line
        self.type_ref = type_ref
        self.name = name
        self.initializer = initializer


class StructDef(Node):
    __slots__ = ("name", "fields")

    def __init__(
        self, name: str = "", fields: Optional[List[Param]] = None, *, line: int = 0
    ):
        self.line = line
        self.name = name
        self.fields = [] if fields is None else fields


class Program(Node):
    __slots__ = ("structs", "globals", "functions")

    def __init__(
        self,
        structs: Optional[List[StructDef]] = None,
        globals: Optional[List[GlobalDecl]] = None,
        functions: Optional[List[FunctionDef]] = None,
        *,
        line: int = 0,
    ):
        self.line = line
        self.structs = [] if structs is None else structs
        self.globals = [] if globals is None else globals
        self.functions = [] if functions is None else functions
