"""repro.frontend -- the MiniC compiler front-end.

MiniC is the C subset the reproduction compiles: ``int``/``char``,
pointers, fixed arrays, structs, the usual operators and control flow,
and calls into the modelled C library.  It is rich enough to express
every attack listing in the paper.
"""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "ast_nodes": ("Program",),
        "codegen": ("CodegenError", "generate_module"),
        "driver": ("compile_source",),
        "lexer": ("LexError", "Token", "tokenize"),
        "parser": ("ParseError as CParseError", "Parser", "parse_source"),
        "sema": ("Sema", "SemaError", "SemaInfo", "analyze_program"),
    },
)

__all__ = [
    "analyze_program",
    "CodegenError",
    "compile_source",
    "CParseError",
    "generate_module",
    "LexError",
    "parse_source",
    "Parser",
    "Program",
    "Sema",
    "SemaError",
    "SemaInfo",
    "Token",
    "tokenize",
]
