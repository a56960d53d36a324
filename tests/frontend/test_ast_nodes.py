"""The AST node contract: constructors, defaults and slots.

The nodes are plain ``__slots__`` classes with hand-written
``__init__`` methods, replacing dataclasses.  ``FIELDS`` pins what the
dataclass versions accepted: each class's fields in positional order
with their defaults; ``line`` is keyword-only everywhere.
"""

import inspect

import pytest

from repro.frontend import ast_nodes as ast

#: Fresh-list defaults (a new ``[]`` per node).
LIST = object()

FIELDS = {
    "Node": (),
    "TypeRef": (("base", "int"), ("pointer_depth", 0), ("array_dims", ())),
    "Expr": (),
    "IntLiteral": (("value", 0),),
    "CharLiteral": (("value", "\0"),),
    "StringLiteral": (("value", ""),),
    "NullLiteral": (),
    "Identifier": (("name", ""),),
    "BinaryOp": (("op", "+"), ("left", None), ("right", None)),
    "UnaryOp": (("op", "-"), ("operand", None)),
    "Assignment": (("target", None), ("value", None)),
    "CallExpr": (("name", ""), ("args", LIST)),
    "IndexExpr": (("base", None), ("index", None)),
    "FieldExpr": (("base", None), ("field_name", ""), ("arrow", False)),
    "TernaryExpr": (("condition", None), ("then_value", None), ("else_value", None)),
    "SizeofExpr": (("type_ref", None),),
    "Stmt": (),
    "ExprStmt": (("expr", None),),
    "DeclStmt": (("type_ref", None), ("name", ""), ("initializer", None)),
    "IfStmt": (("condition", None), ("then_body", LIST), ("else_body", LIST)),
    "WhileStmt": (("condition", None), ("body", LIST)),
    "DoWhileStmt": (("condition", None), ("body", LIST)),
    "ForStmt": (("init", None), ("condition", None), ("step", None), ("body", LIST)),
    "ReturnStmt": (("value", None),),
    "BreakStmt": (),
    "ContinueStmt": (),
    "BlockStmt": (("body", LIST),),
    "Param": (("type_ref", None), ("name", "")),
    "FunctionDef": (
        ("return_type", None),
        ("name", ""),
        ("params", LIST),
        ("body", LIST),
    ),
    "GlobalDecl": (("type_ref", None), ("name", ""), ("initializer", None)),
    "StructDef": (("name", ""), ("fields", LIST)),
    "Program": (("structs", LIST), ("globals", LIST), ("functions", LIST)),
}

CLASSES = sorted(FIELDS)


def node_class(name):
    return getattr(ast, name)


def test_table_covers_every_node_class():
    defined = {
        name
        for name, value in vars(ast).items()
        if isinstance(value, type) and issubclass(value, ast.Node)
    }
    assert defined == set(FIELDS)
    assert len(defined) == 32


@pytest.mark.parametrize("name", CLASSES)
def test_no_argument_construction_gives_the_defaults(name):
    node = node_class(name)()
    assert node.line == 0
    for field, default in FIELDS[name]:
        if default is LIST:
            assert getattr(node, field) == [], field
        else:
            assert getattr(node, field) == default, field


@pytest.mark.parametrize("name", CLASSES)
def test_list_fields_are_fresh_per_instance(name):
    first, second = node_class(name)(), node_class(name)()
    for field, default in FIELDS[name]:
        if default is LIST:
            assert getattr(first, field) is not getattr(second, field), field
            getattr(first, field).append(1)
            assert getattr(second, field) == [], field


@pytest.mark.parametrize("name", CLASSES)
def test_line_is_keyword_only(name):
    cls = node_class(name)
    assert cls(line=7).line == 7
    parameter = inspect.signature(cls).parameters["line"]
    assert parameter.kind is inspect.Parameter.KEYWORD_ONLY
    assert parameter.default == 0
    with pytest.raises(TypeError):
        cls(*([None] * (len(FIELDS[name]) + 1)))


@pytest.mark.parametrize("name", CLASSES)
def test_unknown_keyword_raises(name):
    with pytest.raises(TypeError):
        node_class(name)(no_such_field=1)


@pytest.mark.parametrize("name", CLASSES)
def test_positional_order_matches_the_field_order(name):
    fields = [field for field, _ in FIELDS[name]]
    values = [object() for _ in fields]
    node = node_class(name)(*values, line=3)
    assert node.line == 3
    for field, value in zip(fields, values):
        assert getattr(node, field) is value, field
    parameters = list(inspect.signature(node_class(name)).parameters)
    assert parameters == fields + ["line"]


@pytest.mark.parametrize("name", CLASSES)
def test_nodes_carry_no_instance_dict(name):
    node = node_class(name)()
    assert not hasattr(node, "__dict__")
    with pytest.raises(AttributeError):
        node.no_such_field = 1


def test_nodes_compare_by_identity():
    assert ast.IntLiteral(1) != ast.IntLiteral(1)
    literal = ast.IntLiteral(1)
    assert literal == literal
    assert len({literal, ast.IntLiteral(1)}) == 2


def test_repr_lists_line_then_fields():
    node = ast.BinaryOp("*", ast.Identifier("x", line=2), None, line=2)
    assert repr(node) == (
        "BinaryOp(line=2, op='*', left=Identifier(line=2, name='x'), right=None)"
    )
