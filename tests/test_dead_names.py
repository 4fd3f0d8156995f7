"""Every name defined under src/dianasched/ is read somewhere in src/.

A top-level function, class or constant, a method or property, an enum
member, a dataclass field or an attribute that `__init__` sets on `self`
that no code reads is state to delete, not to keep in step.  Like
test_imports.py this uses stdlib `ast`.  A definition counts as read
where its name is loaded, as a bare name or as an attribute, in any
module under src/dianasched/ but `__init__.py` (whose imports are the
package's exports), outside the definition's own lines.  Reads are
matched by name, not by type, so a dead name spelled like a live one
goes unnoticed.  A name read only outside src/, or only through a
string, needs an entry in ROOTS.

Likewise every parameter of every function under src/dianasched/ but
`self` and `cls` is loaded in the function's body: a parameter no code
reads is an argument every caller passes for nothing.  Lambdas are not
checked.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "dianasched"

# Names that only readers outside src/ use.  Dunder methods are exempt
# as well: the language calls them.
ROOTS = {
    # The README's library section; the fuzz test's round-trip oracle.
    "serialize_scenario",
    # SchedulingDecision.alternatives: bench/spans.py counts candidates.
    "alternatives",
    # RunResult.trace, the dict view of a run's events: the README's
    # library section, the tests and bench/run.py's traced pass read it.
    "trace",
    # Job.spec, the job itself: bench/run.py's outcome_digest reads
    # `rec.spec.job_id`, written when the spec was a separate object.
    "spec",
}


def definitions(tree):
    """(qualified name, name, node) of each top-level and class-level name."""
    def targets(node):
        if isinstance(node, ast.Assign):
            return [t for t in node.targets if isinstance(t, ast.Name)]
        if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            return [node.target]
        return []

    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            yield node.name, node.name, node
        for target in targets(node):
            yield target.id, target.id, node
        if not isinstance(node, ast.ClassDef):
            continue
        for member in node.body:
            if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield f"{node.name}.{member.name}", member.name, member
            for target in targets(member):
                yield f"{node.name}.{target.id}", target.id, member
            if getattr(member, "name", None) == "__init__":
                for stmt in ast.walk(member):
                    if (isinstance(stmt, ast.Attribute)
                            and isinstance(stmt.ctx, ast.Store)
                            and isinstance(stmt.value, ast.Name)
                            and stmt.value.id == "self"):
                        yield f"{node.name}.{stmt.attr}", stmt.attr, stmt


def reads(tree):
    """(name, line) of every load of a bare name or an attribute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr, node.lineno


def dead_names(sources, roots=frozenset()):
    """`module:qualname` of each definition no module reads outside itself.

    `sources` maps module names to their source text.
    """
    trees = {module: ast.parse(text) for module, text in sources.items()}
    read_at = {}
    for module, tree in trees.items():
        for name, line in reads(tree):
            read_at.setdefault(name, []).append((module, line))
    dead = []
    for module, tree in trees.items():
        for qualname, name, node in definitions(tree):
            if name in roots or (name.startswith("__") and name.endswith("__")):
                continue
            if not any(where != module or not
                       node.lineno <= line <= node.end_lineno
                       for where, line in read_at.get(name, [])):
                dead.append(f"{module}:{qualname}")
    return sorted(dead)


def package_sources():
    return {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))
            if p.name != "__init__.py"}


def test_finds_dead_names():
    sources = {
        "a": ("from dataclasses import dataclass\n"
              "LIMIT = 3\n"
              "UNUSED = 4\n"
              "def helper():\n"
              "    return helper() + LIMIT\n"
              "def used():\n"
              "    return 1\n"
              "@dataclass\n"
              "class Rec:\n"
              "    kept: int\n"
              "    dropped: int\n"
              "    def __len__(self):\n"
              "        return 0\n"
              "    def unread(self):\n"
              "        return self.kept\n"
              "class Box:\n"
              "    def __init__(self):\n"
              "        self.size = 1\n"
              "        self.spare = 2\n"
              "    def grow(self):\n"
              "        self.size += 1\n"
              "        return self.size\n"),
        "b": ("from a import Box, Rec, used\n"
              "x = Rec(1, 2)\ny = used()\nz = Box().grow()\n"),
    }
    dead = ["a:Box.spare", "a:Rec.dropped", "a:Rec.unread", "a:UNUSED",
            "a:helper"]
    assert dead_names(sources) == dead + ["b:x", "b:y", "b:z"]
    assert dead_names(sources, roots={"x", "y", "z"}) == dead


def test_no_dead_names():
    assert dead_names(package_sources(), ROOTS) == []


def test_roots_are_defined_and_unread_in_src():
    # A root that src/ reads, or that no longer exists, is a stale entry.
    sources = package_sources()
    defined = {name for text in sources.values()
               for _, name, _ in definitions(ast.parse(text))}
    read = {name for text in sources.values()
            for name, _ in reads(ast.parse(text))}
    assert ROOTS <= defined
    assert not ROOTS & read


def unused_parameters(text):
    """`function:parameter` of each parameter its function never loads."""
    unused = []
    for node in ast.walk(ast.parse(text)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = node.args
        params = [a.arg for a in (*args.posonlyargs, *args.args,
                                  args.vararg, *args.kwonlyargs, args.kwarg)
                  if a is not None]
        loaded = {n.id for stmt in node.body for n in ast.walk(stmt)
                  if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        unused += [f"{node.name}:{p}" for p in params
                   if p not in ("self", "cls") and p not in loaded]
    return unused


def test_finds_unused_parameters():
    text = ("def pick(job, sites, *rest, key=None, **extra):\n"
            "    return min(sites, key=key)\n"
            "class Box:\n"
            "    def grow(self, by, spare):\n"
            "        def inner(step):\n"
            "            return by\n"
            "        return inner\n"
            "    @classmethod\n"
            "    def make(cls, size):\n"
            "        return size\n"
            "ignored = lambda v: True\n")
    assert unused_parameters(text) == ["pick:job", "pick:rest", "pick:extra",
                                       "grow:spare", "inner:step"]


def test_no_unused_parameters():
    assert [f"{module}:{name}"
            for module, text in package_sources().items()
            for name in unused_parameters(text)] == []
