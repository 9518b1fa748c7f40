"""The possible-worlds oracle: lineage formulas and their exact
probability by enumeration.

A lineage expression (paper Section III) is a Boolean formula built
from tuple identifiers and the connectives ``~`` (not), ``&`` (and),
``|`` (or). Base-tuple identifiers are independent Boolean random
variables. The TP join operators only ever *produce* formulas of three
shapes (one per window set, paper Section V), which ``repro.lineage``
renders and values in closed form:

- unmatched:    ``r``
- overlapping:  ``r & s``
- negating:     ``r & ~(s1 | s2 | ...)``

This module parses any formula of the full connective language and
values it by summing over all possible worlds, so the tests can check
those closed forms against the definition.

Serialization grammar (round-trippable via :func:`parse`)::

    formula := or_term
    or_term := and_term ("|" and_term)*
    and_term := not_term ("&" not_term)*
    not_term := "~" not_term | "(" formula ")" | VAR
    VAR := [A-Za-z_][A-Za-z0-9_:.]*

``&`` binds tighter than ``|``; ``~`` tighter than both.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import product
from typing import Iterator


class Formula:
    """Abstract base for lineage formula nodes. Nodes are immutable."""

    def variables(self) -> frozenset[str]:
        """The set of base-tuple identifiers occurring in the formula."""
        raise NotImplementedError

    def evaluate(self, assignment: dict[str, bool]) -> bool:
        """Truth value under a total assignment of the variables."""
        raise NotImplementedError

    def __and__(self, other: "Formula") -> "Formula":
        return And((self, other))

    def __or__(self, other: "Formula") -> "Formula":
        return Or((self, other))

    def __invert__(self) -> "Formula":
        return Not(self)

    def __str__(self) -> str:
        return serialize(self)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({serialize(self)!r})"


@dataclass(frozen=True, repr=False)
class Var(Formula):
    """An atomic lineage: a base-tuple identifier (a Boolean variable)."""

    name: str

    def variables(self) -> frozenset[str]:
        return frozenset({self.name})

    def evaluate(self, assignment: dict[str, bool]) -> bool:
        return assignment[self.name]


@dataclass(frozen=True, repr=False)
class Not(Formula):
    """Negation of a sub-formula."""

    child: Formula

    def variables(self) -> frozenset[str]:
        return self.child.variables()

    def evaluate(self, assignment: dict[str, bool]) -> bool:
        return not self.child.evaluate(assignment)


def _flatten(cls, children: tuple[Formula, ...]) -> tuple[Formula, ...]:
    out: list[Formula] = []
    for c in children:
        if isinstance(c, cls):
            out.extend(c.children)
        else:
            out.append(c)
    return tuple(out)


@dataclass(frozen=True, init=False, repr=False)
class And(Formula):
    """Conjunction. Nested conjunctions are flattened on construction."""

    children: tuple[Formula, ...]

    def __init__(self, children) -> None:
        children = _flatten(And, tuple(children))
        if len(children) < 2:
            raise ValueError("And requires >= 2 children")
        object.__setattr__(self, "children", children)

    def variables(self) -> frozenset[str]:
        return frozenset().union(*(c.variables() for c in self.children))

    def evaluate(self, assignment: dict[str, bool]) -> bool:
        return all(c.evaluate(assignment) for c in self.children)


@dataclass(frozen=True, init=False, repr=False)
class Or(Formula):
    """Disjunction. Nested disjunctions are flattened on construction."""

    children: tuple[Formula, ...]

    def __init__(self, children) -> None:
        children = _flatten(Or, tuple(children))
        if len(children) < 2:
            raise ValueError("Or requires >= 2 children")
        object.__setattr__(self, "children", children)

    def variables(self) -> frozenset[str]:
        return frozenset().union(*(c.variables() for c in self.children))

    def evaluate(self, assignment: dict[str, bool]) -> bool:
        return any(c.evaluate(assignment) for c in self.children)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def serialize(f: Formula) -> str:
    """Render ``f`` in the infix grammar of this module.

    Parentheses are emitted only where precedence requires them, so
    ``a & ~(b | c)`` round-trips exactly.
    """
    return _ser(f, 0)


def _ser(f: Formula, parent_prec: int) -> str:
    # precedence: Or=1, And=2, Not=3, Var=4
    if isinstance(f, Var):
        return f.name
    if isinstance(f, Not):
        return "~" + _ser(f.child, 3)
    if isinstance(f, And):
        s = " & ".join(_ser(c, 2) for c in f.children)
        return f"({s})" if parent_prec > 2 else s
    if isinstance(f, Or):
        s = " | ".join(_ser(c, 1) for c in f.children)
        return f"({s})" if parent_prec > 1 else s
    raise TypeError(f"not a Formula: {f!r}")


_TOKEN = re.compile(r"\s*(?:([A-Za-z_][A-Za-z0-9_:.]*)|([&|~()]))")


def _tokenize(text: str) -> Iterator[str]:
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos:
            rest = text[pos:].strip()
            if not rest:
                return
            raise ValueError(f"bad lineage syntax at: {rest!r}")
        pos = m.end()
        yield m.group(1) or m.group(2)


def parse(text: str) -> Formula:
    """Parse the infix serialization back into a :class:`Formula`."""
    tokens = list(_tokenize(text))
    if not tokens:
        raise ValueError("empty lineage expression")
    pos = 0

    def peek() -> str | None:
        return tokens[pos] if pos < len(tokens) else None

    def eat(tok: str) -> None:
        nonlocal pos
        if peek() != tok:
            raise ValueError(f"expected {tok!r}, got {peek()!r}")
        pos += 1

    def p_or() -> Formula:
        terms = [p_and()]
        while peek() == "|":
            eat("|")
            terms.append(p_and())
        return terms[0] if len(terms) == 1 else Or(terms)

    def p_and() -> Formula:
        terms = [p_not()]
        while peek() == "&":
            eat("&")
            terms.append(p_not())
        return terms[0] if len(terms) == 1 else And(terms)

    def p_not() -> Formula:
        nonlocal pos
        t = peek()
        if t == "~":
            eat("~")
            return Not(p_not())
        if t == "(":
            eat("(")
            f = p_or()
            eat(")")
            return f
        if t is None or t in "&|)":
            raise ValueError(f"unexpected token {t!r}")
        pos += 1
        return Var(t)

    f = p_or()
    if pos != len(tokens):
        raise ValueError(f"trailing tokens: {tokens[pos:]}")
    return f



# ---------------------------------------------------------------------------
# valuation
# ---------------------------------------------------------------------------

def probability_enumerate(f: Formula | str, probs: dict[str, float]) -> float:
    """Exact probability of an arbitrary formula by possible-worlds sum.

    Exponential in the number of variables — small formulas only.
    """
    if isinstance(f, str):
        f = parse(f)
    names = sorted(f.variables())
    total = 0.0
    for values in product((True, False), repeat=len(names)):
        assignment = dict(zip(names, values))
        if f.evaluate(assignment):
            w = 1.0
            for name, value in assignment.items():
                p = probs[name]
                w *= p if value else (1.0 - p)
            total += w
    return total
