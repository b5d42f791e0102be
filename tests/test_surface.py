"""Every public top-level function and class of the package has a caller.

A name counts as called when it appears in another package module (not
``__init__.py``), in its own module outside its definition, in the
acceptance gate or in the benchmark harness. Package modules are read as
code: only their NAME tokens count, so a docstring or comment naming a
function is no caller (before Python 3.12 an f-string is one STRING
token, so neither is a name used only inside one).  ``perfbench/`` and
the gate are read as text, since perfbench names the functions it wraps
in strings. A public name that only its own unit tests use fails here:
delete it, or give it a caller.  A private top-level function, class or
constant (a module-level assignment to a private name) must be used by
the package itself, in its own module outside its definition or in
another module: a helper that only tests use, or a constant left behind
by a deletion, fails.
Likewise every flag a CLI command accepts is read by the code that
command runs.
"""

import argparse
import ast
import inspect
import io
import re
import tokenize
from pathlib import Path

from glauberlab import cli

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "glauberlab"

ALLOWED = {
    # the checkpoint-resume contract: continue a chain from its .ckpt file
    "resume_chain",
    # single-vertex oracles for the whole-graph sweep, which the unit
    # tests compare it against
    "alpha_weight",
    "tree_excess",
    # the one-call form of the canonical-path bound; the canonical suite
    # calls its body, _path_congestion, on the chain it has already built
    "canonical_path_bound",
    # the paper's equivalence classes of bad vertices, which test_blocks
    # checks against a union-find oracle
    "bad_classes",
}


def words(text):
    return set(re.findall(r"[A-Za-z_]\w*", text))


def code_names(source):
    """The NAME tokens of Python source: docstrings and comments hold
    none."""
    return {tok.string for tok in
            tokenize.generate_tokens(io.StringIO(source).readline)
            if tok.type == tokenize.NAME}


def module_texts():
    return {p.stem: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}


def module_names():
    return {stem: code_names(text) for stem, text in module_texts().items()}


def defined_names(node, private):
    """The names a top-level statement defines: a function's or class's,
    and for private ones also those a plain assignment binds (dunders such
    as __version__ are not private)."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name] if node.name.startswith("_") == private else []
    if not private or not isinstance(node, (ast.Assign, ast.AnnAssign)):
        return []
    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
    return [t.id for t in targets if isinstance(t, ast.Name)
            and t.id.startswith("_") and not t.id.startswith("__")]


def definitions(private=False):
    """(module, name, module text outside the definition) per public
    function and class, or per private function, class and constant."""
    for stem, text in module_texts().items():
        lines = text.splitlines(keepends=True)
        for node in ast.parse(text).body:
            for name in defined_names(node, private):
                first = min([node.lineno] + [
                    d.lineno for d in getattr(node, "decorator_list", [])])
                outside = lines[:first - 1] + lines[node.end_lineno:]
                yield stem, name, "".join(outside)


def test_allowlist_names_exist():
    assert ALLOWED <= {name for _, name, _ in definitions()}


def test_every_public_name_has_a_caller():
    names = module_names()
    readers = sorted((ROOT / "perfbench").glob("*.py"))
    readers.append(ROOT / "tests" / "test_acceptance.py")
    called = words("\n".join(p.read_text() for p in readers))
    uncalled = []
    for stem, name, own in definitions():
        others = set().union(*(n for other, n in names.items()
                               if other not in (stem, "__init__")))
        if not (name in ALLOWED or name in called or name in code_names(own)
                or name in others):
            uncalled.append(f"{stem}.{name}")
    assert not uncalled, f"public names without a caller: {uncalled}"


def test_every_private_name_is_used_in_the_package():
    names = module_names()
    unused = []
    for stem, name, own in definitions(private=True):
        others = set().union(*(n for other, n in names.items()
                               if other != stem))
        if name not in code_names(own) and name not in others:
            unused.append(f"{stem}.{name}")
    assert not unused, f"private names the package never uses: {unused}"


def args_read(source):
    """The attributes the source reads off ``args``."""
    return set(re.findall(r"\bargs\.(\w+)", source))


def test_every_flag_is_read():
    # A flag counts as read where its command's handler reads args.<dest>,
    # where _emit does for a handler that calls it (out, format), or where
    # main does (config).  main filling a flag in from the config is not a
    # read of it.  A flag nothing reads fails here: drop it from its
    # command, or read it.
    main = inspect.getsource(cli.main)
    in_main = args_read(main) - set(re.findall(r"\bargs\.(\w+) = ", main))
    in_emit = args_read(inspect.getsource(cli._emit))
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    unread = []
    for command, parser in sub.choices.items():
        handler = inspect.getsource(parser.get_default("func"))
        read = in_main | args_read(handler)
        if "_emit(" in handler:
            read |= in_emit
        unread += [f"{command} {a.dest}" for a in parser._actions
                   if a.dest != "help" and a.dest not in read]
    assert not unread, f"flags no handler reads: {unread}"
