"""Property-based fuzzing of the whole pipeline.

Hypothesis generates random (but always well-formed, always
terminating) MiniC programs and checks system-level invariants:

1. the front-end compiles them to verifiable IR;
2. execution is deterministic;
3. mem2reg preserves semantics;
4. all four defense schemes are benign-transparent: identical output
   and return value on non-attack runs.
"""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.core import protect_all
from repro.frontend import compile_source
from repro.hardware import CPU
from repro.ir import verify_module
from repro.transforms import Mem2Reg

_BINOPS = ["+", "-", "*", "&", "|", "^"]
_CMPS = ["<", "<=", ">", ">=", "==", "!="]
_VARS = ["a", "b", "c"]


@st.composite
def expressions(draw, depth=0):
    if depth >= 2 or draw(st.booleans()):
        if draw(st.booleans()):
            return str(draw(st.integers(0, 50)))
        return draw(st.sampled_from(_VARS))
    op = draw(st.sampled_from(_BINOPS))
    lhs = draw(expressions(depth=depth + 1))
    rhs = draw(expressions(depth=depth + 1))
    return f"({lhs} {op} {rhs})"


@st.composite
def conditions(draw):
    lhs = draw(expressions(depth=1))
    rhs = draw(expressions(depth=1))
    return f"{lhs} {draw(st.sampled_from(_CMPS))} {rhs}"


@st.composite
def statements(draw, depth=0):
    kind = draw(
        st.sampled_from(
            ["assign", "array", "if", "loop", "print"]
            if depth < 2
            else ["assign", "array", "print"]
        )
    )
    if kind == "assign":
        var = draw(st.sampled_from(_VARS))
        return f"{var} = {draw(expressions())};"
    if kind == "array":
        index = draw(st.integers(0, 3))
        return f"arr[{index}] = {draw(expressions())};"
    if kind == "print":
        return f'printf("%d\\n", {draw(expressions())});'
    if kind == "if":
        body = draw(st.lists(statements(depth=depth + 1), min_size=1, max_size=3))
        else_body = draw(st.lists(statements(depth=depth + 1), max_size=2))
        text = f"if ({draw(conditions())}) {{ " + " ".join(body) + " }"
        if else_body:
            text += " else { " + " ".join(else_body) + " }"
        return text
    # bounded loop: always terminates
    trips = draw(st.integers(1, 6))
    body = draw(st.lists(statements(depth=depth + 1), min_size=1, max_size=3))
    loop_var = f"i{depth}"
    return (
        f"for (int {loop_var} = 0; {loop_var} < {trips}; "
        f"{loop_var} = {loop_var} + 1) {{ " + " ".join(body) + " }"
    )


@st.composite
def programs(draw):
    body = draw(st.lists(statements(), min_size=1, max_size=6))
    return (
        "int main() {\n"
        "    int a = 1; int b = 2; int c = 3;\n"
        "    int arr[4];\n"
        "    arr[0] = 0; arr[1] = 1; arr[2] = 2; arr[3] = 3;\n"
        "    " + "\n    ".join(body) + "\n"
        "    return (a + b + c + arr[0] + arr[3]) & 1023;\n"
        "}\n"
    )


@given(programs())
@settings(max_examples=40, deadline=None)
def test_fuzz_compiles_and_verifies(source):
    module = compile_source(source)
    verify_module(module)
    result = CPU(module, max_steps=500_000).run()
    assert result.ok, (result.status, source)


@given(programs())
@settings(max_examples=25, deadline=None)
def test_fuzz_execution_deterministic(source):
    module = compile_source(source)
    a = CPU(module, seed=3).run()
    b = CPU(module, seed=3).run()
    assert (a.return_value, a.output, a.cycles) == (
        b.return_value,
        b.output,
        b.cycles,
    )


@given(programs())
@settings(max_examples=25, deadline=None)
def test_fuzz_mem2reg_preserves_semantics(source):
    plain = compile_source(source)
    before = CPU(plain).run()
    transformed = compile_source(source)
    Mem2Reg().run(transformed)
    verify_module(transformed)
    after = CPU(transformed).run()
    assert before.return_value == after.return_value, source
    assert before.output == after.output, source


@given(programs())
@settings(max_examples=12, deadline=None)
def test_fuzz_schemes_are_benign_transparent(source):
    module = compile_source(source)
    observations = set()
    for scheme, protected in protect_all(module).items():
        result = CPU(protected.module, max_steps=2_000_000).run()
        assert result.ok, (scheme, result.status, result.trap, source)
        observations.add((result.return_value, result.output))
    assert len(observations) == 1, (observations, source)
