"""tools/mutate.py, imported by path: the sites it finds in a function."""

import ast
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("mutate", ROOT / "tools" / "mutate.py")
mutate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutate)

BIT_OPS = (ast.BitAnd, ast.BitOr, ast.BitXor, ast.LShift, ast.RShift)


def test_every_bit_operation_of_levenshtein_is_a_site():
    # without bitwise swaps the tool found 14 sites here, none on the recurrence's masks
    func = mutate._find(ast.parse((ROOT / "src" / "actseg" / "_kernels.py").read_text()),
                        "levenshtein")
    bits = [n for n in ast.walk(func) if isinstance(n, ast.BinOp) and isinstance(n.op, BIT_OPS)]
    sites = list(mutate._sites(func))
    assert len(bits) == 19
    assert {id(n) for n, *_ in sites} >= {id(n) for n in bits}
    assert len(sites) == 14 + 19


@pytest.mark.parametrize("op, swapped", [("&", "|"), ("|", "&"), ("^", "|"), ("<<", ">>"),
                                         (">>", "<<")])
def test_a_bit_operator_swaps_to_its_partner(op, swapped):
    source = f"def f(a, b):\n    return a {op} b\n"
    mutant, _, _ = mutate._mutated(source, "f", 0)
    assert mutant.splitlines()[1].strip() == f"return a {swapped} b"
