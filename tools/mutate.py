"""Operator mutation testing of chosen functions, with the standard library only.

Each mutant changes one site inside one of the named functions: it swaps a
comparison (< and <=, > and >=, == and !=, is and is not, in and not in), an
arithmetic operator (+ and -, * and /, // and /), a bitwise operator (& and |,
^ to |, << and >>), a boolean operator (and and or), drops a `not`, negates
the condition of an if, adds 1 to an integer literal (so an index -1 becomes
-2), flips a True or False, or deletes a statement that stores into an
attribute or item or is a bare call. The source tree and the tests are copied
into a fresh temporary directory, every mutant is written there in turn and
the tests run against it with -x, so the checkout is never touched. The tests
run with the -W flags of CI's latest-numpy legs (WARNINGS), so a deprecation, a
RuntimeWarning or a file left open fails a mutant as it fails CI. The unmutated
tests run first, within TIMEOUT seconds, and are timed; a mutant is killed when
the tests fail or run SLOWDOWN times as long, so one that never ends costs a
sweep a bounded wait. A survivor is printed with its site, for a test to kill
or for a reason why it is equivalent.

    python3 tools/mutate.py src/actseg/pipeline.py:_window_labels \\
        src/actseg/classify.py:LogitsBackend.__init__ -- tests/test_pipeline.py

Targets are `file:qualified.function`, the file under src or tests, given
from the repository root or absolute; the arguments after `--` go to pytest.
With none, a target's tests are the whole suite with its module's own test file
first (tests/test_timeline.py for src/actseg/timeline.py, tests/test_kernels.py
for _kernels.py), so that a mutant which only that file kills stops within a
second or two instead of after the files collected before it; each test file
is named once, so no test runs twice.
"""

import ast
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "tools", "README.md", "pyproject.toml")
TIMEOUT = 300.0  # seconds of the unmutated tests
# a mutant's tests may run this many times as long as the unmutated ones: a survivor runs
# about as long, give or take noise, and a killed one stops early
SLOWDOWN = 3.0
# as .github/workflows/tests.yml passes them on its latest-numpy legs
WARNINGS = ("-W", "error::DeprecationWarning", "-W", "error::ResourceWarning",
            "-W", "error::pytest.PytestUnraisableExceptionWarning", "-W", "error::RuntimeWarning")

SWAPS = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Is: ast.IsNot, ast.IsNot: ast.Is,
    ast.In: ast.NotIn, ast.NotIn: ast.In,
    ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Div, ast.Div: ast.Mult,
    ast.FloorDiv: ast.Div, ast.And: ast.Or, ast.Or: ast.And,
    ast.BitAnd: ast.BitOr, ast.BitOr: ast.BitAnd, ast.BitXor: ast.BitOr,
    ast.LShift: ast.RShift, ast.RShift: ast.LShift,
}


def _find(tree, qualname):
    node, names = tree, qualname.split(".")
    for name in names:
        node = next((n for n in ast.iter_child_nodes(node)
                     if isinstance(n, (ast.FunctionDef, ast.ClassDef)) and n.name == name), None)
        if node is None:
            raise SystemExit(f"no function {qualname}")
    return node


def _sites(func):
    """(node, field index or None, description) for every mutable site in func."""
    for node in ast.walk(func):
        if isinstance(node, (ast.If, ast.IfExp, ast.While)):
            yield node, None, "negate condition"
        if (isinstance(node, (ast.Expr, ast.AugAssign))
                and not isinstance(node.value, ast.Constant) or isinstance(node, ast.Assign)
                and all(isinstance(t, (ast.Attribute, ast.Subscript)) for t in node.targets)):
            yield node, None, f"delete statement {type(node).__name__}"
        if isinstance(node, ast.Compare):
            for i, op in enumerate(node.ops):
                if type(op) in SWAPS:
                    yield node, i, f"{type(op).__name__} -> {SWAPS[type(op)].__name__}"
        elif isinstance(node, (ast.BinOp, ast.AugAssign, ast.BoolOp)) and type(node.op) in SWAPS:
            yield node, None, f"{type(node.op).__name__} -> {SWAPS[type(node.op)].__name__}"
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
            yield node, None, "drop not"
        elif isinstance(node, ast.Constant) and type(node.value) is int:
            yield node, None, f"{node.value} -> {node.value + 1}"
        elif isinstance(node, ast.Constant) and type(node.value) is bool:
            yield node, None, f"{node.value} -> {not node.value}"


class _Replace(ast.NodeTransformer):
    def __init__(self, target, replacement):
        self.target, self.replacement = target, replacement

    def visit(self, node):
        return self.replacement if node is self.target else self.generic_visit(node)


def _mutated(source, qualname, index):
    """The module source with site index of qualname mutated, and the site's line and text."""
    tree = ast.parse(source)
    node, i, what = list(_sites(_find(tree, qualname)))[index]
    line = node.lineno
    if what == "negate condition":
        node.test = ast.UnaryOp(ast.Not(), node.test)
    elif what.startswith("delete"):
        tree = _Replace(node, ast.Pass()).visit(tree)
    elif isinstance(node, ast.Compare):
        node.ops[i] = SWAPS[type(node.ops[i])]()
    elif isinstance(node, ast.UnaryOp):
        tree = _Replace(node, node.operand).visit(tree)
    elif isinstance(node, ast.Constant):
        node.value = not node.value if type(node.value) is bool else node.value + 1
    else:
        node.op = SWAPS[type(node.op)]()
    return ast.unparse(ast.fix_missing_locations(tree)), line, what


def _relative(path):
    """path, absolute or from the repository root, relative to the root; it must lie in
    src or tests, so that its mutants are written into the copy and nowhere else."""
    rel = (ROOT / path).resolve()
    if not rel.is_relative_to(ROOT / "src") and not rel.is_relative_to(ROOT / "tests"):
        raise SystemExit(f"{path} is not under {ROOT / 'src'} or {ROOT / 'tests'}")
    return rel.relative_to(ROOT)


def _suite(path):
    """Every test file, the one of path's module first, as pytest arguments from the root."""
    files = sorted(str(f.relative_to(ROOT)) for f in (ROOT / "tests").rglob("test_*.py"))
    own = f"tests/test_{path.stem.lstrip('_')}.py"
    return [own] * (own in files) + [f for f in files if f != own]


def _run_tests(copy, pytest_args, timeout):
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *WARNINGS,
           *pytest_args]
    try:
        done = subprocess.run(cmd, cwd=copy, env=env, capture_output=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return "timeout"
    return "survived" if done.returncode == 0 else "killed"


def main(argv=None):
    args = sys.argv[1:] if argv is None else argv
    split = args.index("--") if "--" in args else len(args)
    specs, pytest_args = args[:split], args[split + 1:]
    if not specs:
        raise SystemExit(__doc__)

    targets = []
    for spec in specs:
        path, _, qualname = spec.partition(":")
        path = _relative(path)
        count = len(list(_sites(_find(ast.parse((ROOT / path).read_text()), qualname))))
        args = tuple(pytest_args or _suite(path))
        targets += [(path, qualname, i, args) for i in range(count)]

    survivors = []
    with tempfile.TemporaryDirectory(prefix="mutate-") as tmp:
        copy = Path(tmp)
        for name in COPIED:
            if (ROOT / name).is_dir():
                shutil.copytree(ROOT / name, copy / name,
                                ignore=shutil.ignore_patterns("__pycache__"))
            else:
                shutil.copy(ROOT / name, copy / name)
        limits = {}  # pytest arguments -> seconds a mutant's run may take
        for args in dict.fromkeys(args for *_, args in targets):
            start = time.monotonic()
            if _run_tests(copy, args, TIMEOUT) != "survived":
                raise SystemExit(f"the tests fail or time out on the unmutated copy: {args[0]} ...")
            limits[args] = SLOWDOWN * (time.monotonic() - start)
            print(f"unmutated tests ({args[0]} first) took {limits[args] / SLOWDOWN:.1f}s;"
                  f" each mutant gets {limits[args]:.1f}s", flush=True)
        for path, qualname, i, args in targets:
            original = (ROOT / path).read_text()
            mutant, line, what = _mutated(original, qualname, i)
            (copy / path).write_text(mutant)
            start = time.monotonic()
            try:
                outcome = _run_tests(copy, args, limits[args])
            finally:
                (copy / path).write_text(original)
            print(f"{outcome:8} {time.monotonic() - start:6.1f}s {path}:{line} {qualname} {what}",
                  flush=True)
            if outcome == "survived":
                survivors.append((path, line, qualname, what))
    print(f"{len(targets)} mutants, {len(targets) - len(survivors)} killed,"
          f" {len(survivors)} survived")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
