"""The inventory of named runtime checks, kept in step with the source.

Every check the library raises on has a name: the clause text of an
`_invariant` call, the name of a `BoundViolation`, or the message of a bare
`InvariantViolation`. `CHECKS` lists each one with the module and function
it runs in and its kind. An AST walk over `src/trigcheck` finds every site,
so a check added, renamed or deleted without an edit here fails the test.
"""

from __future__ import annotations

import ast
from pathlib import Path

import trigcheck

PACKAGE = Path(trigcheck.__file__).resolve().parent

# (module, function, name) -> kind
CHECKS = {
    ("oracle", "pi_leibniz", "sign = (-1)^n"): "invariant",
    ("oracle", "pi_leibniz", "qp = sum of first n series terms"): "invariant",
    ("oracle", "pi_leibniz", "iterations = ceil(2/eps - 3/2)"): "invariant",
    ("oracle", "_checked_series", "sign = (-1)^n"): "invariant",
    ("oracle", "_checked_series", "ep = (-1)^n * (2n)! * eps scaled for parity"): "invariant",
    ("oracle", "_checked_series", "term = x^(2n)/(2n)! scaled for parity"): "invariant",
    ("oracle", "_checked_series", "accumulator = partial Taylor sum"): "invariant",
    ("fixtrig", "_run", "counter stays an exact factorial multiple of eps"): "invariant",
    ("fixtrig", "_run", "loop guards agree (lockstep)"): "invariant",
    ("fixtrig", "_run", "final n equals the minimal stop count"): "invariant",
    ("fixtrig", "_run", "headline"): "bound",
    ("fixtrig", "_run", "first-gap"): "bound",
    ("fixtrig", "_run", "half-gap-step"): "bound",
    ("fixtrig", "_run", "half-gap"): "bound",
    ("fixtrig", "_run", "trace holds {} records, expected n-1 = {}"): "invariant",
    ("fixtrig", "_run", "closing-chain"): "bound",
}


def _text(node: ast.expr) -> str:
    """A literal name, with each interpolated field of an f-string shown as {}."""
    if isinstance(node, ast.Constant):
        return node.value
    assert isinstance(node, ast.JoinedStr), ast.dump(node)
    return "".join(part.value if isinstance(part, ast.Constant) else "{}"
                   for part in node.values)


def _sites() -> list[tuple[tuple[str, str, str], str]]:
    """((module, function, name), kind) for every check site in the package."""
    sites = []
    for path in sorted(PACKAGE.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(fn, ast.FunctionDef) or fn.name == "_invariant":
                continue  # _invariant itself raises on behalf of its callers
            for call in ast.walk(fn):
                if not isinstance(call, ast.Call) or not isinstance(call.func, ast.Name):
                    continue
                callee = call.func.id
                if callee in ("_invariant", "InvariantViolation", "BoundViolation"):
                    name = _text(call.args[2] if callee == "_invariant" else call.args[0])
                    kind = "bound" if callee == "BoundViolation" else "invariant"
                    sites.append(((path.stem, fn.name, name), kind))
    return sites


def test_every_check_site_is_in_the_inventory():
    sites = _sites()
    unlisted = [site for site in sites if site[0] not in CHECKS]
    assert not unlisted
    assert all(CHECKS[key] == kind for key, kind in sites)


def test_every_inventory_entry_has_exactly_one_site():
    keys = [key for key, _ in _sites()]
    assert sorted(keys) == sorted(CHECKS)
    assert len(CHECKS) == 16
