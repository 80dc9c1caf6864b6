"""Permutation plumbing: 0-indexed image arrays with cycle notation at the boundary.

Internally a permutation on d points is a tuple ``img`` with ``img[i]`` the
image of point i.  Cycle strings use 1-indexed points, matching the usual
written notation, and are only produced or consumed at serialization and CLI
boundaries.
"""

from __future__ import annotations

import re

from .errors import BadParams, InvalidGenerator

_CYCLE_RE = re.compile(r"\(([^()]*)\)")


def identity_perm(degree: int) -> tuple[int, ...]:
    return tuple(range(degree))


def compose(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    """Product p*q acting as 'apply p, then q' (right action)."""
    return tuple(map(q.__getitem__, p))


def invert(p: tuple[int, ...]) -> tuple[int, ...]:
    out = [0] * len(p)
    for i, j in enumerate(p):
        out[j] = i
    return tuple(out)


def validate_perm(img, degree: int) -> tuple[int, ...]:
    img = tuple(int(i) for i in img)
    if len(img) != degree or sorted(img) != list(range(degree)):
        raise InvalidGenerator(f"image array {img!r} is not a bijection on {degree} points")
    return img


def parse_cycles(text: str, degree: int | None = None) -> tuple[int, ...]:
    """Parse a cycle string like "(1,2,3)(6,9,10)" into a 0-indexed image array.

    Points are 1-indexed in the string.  ``degree`` defaults to the largest
    point mentioned; "()" or "" parse to the identity (degree required then).
    """
    stripped = text.replace(" ", "")
    body = _CYCLE_RE.sub("", stripped)
    if body:
        raise BadParams(f"unparseable cycle string {text!r}")
    cycles = []
    maxpoint = 0
    for group in _CYCLE_RE.findall(stripped):
        if not group:
            continue
        try:
            points = [int(tok) for tok in group.split(",")]
        except ValueError:
            raise BadParams(f"unparseable cycle string {text!r}") from None
        if len(points) < 2 or min(points) < 1 or len(set(points)) != len(points):
            raise BadParams(f"bad cycle ({group}) in {text!r}")
        cycles.append(points)
        maxpoint = max(maxpoint, max(points))
    if degree is None:
        degree = maxpoint
    if maxpoint > degree:
        raise BadParams(f"cycle string {text!r} exceeds degree {degree}")
    img = list(range(degree))
    for points in cycles:
        for a, b in zip(points, points[1:] + points[:1]):
            img[a - 1] = b - 1
    seen = set()
    for points in cycles:
        for a in points:
            if a in seen:
                raise BadParams(f"point {a} repeated across cycles in {text!r}")
            seen.add(a)
    return tuple(img)


def format_cycles(img: tuple[int, ...]) -> str:
    """Render an image array as a 1-indexed cycle string; identity is "()"."""
    seen = [False] * len(img)
    parts = []
    for start in range(len(img)):
        if seen[start] or img[start] == start:
            seen[start] = True
            continue
        cycle = [start]
        seen[start] = True
        j = img[start]
        while j != start:
            cycle.append(j)
            seen[j] = True
            j = img[j]
        parts.append("(" + ",".join(str(p + 1) for p in cycle) + ")")
    return "".join(parts) if parts else "()"


def split_generator_list(text: str) -> list[str]:
    """Split a CLI generator list into per-generator cycle strings.

    Generators are separated by ';' or by commas that sit between cycles,
    so both "(1,2),(1,2,3)" and "(1,2);(1,2,3)" denote two generators.
    """
    if ";" in text:
        parts = [p.strip() for p in text.split(";")]
    else:
        parts = [p.strip() for p in re.split(r"(?<=\))\s*,\s*(?=\()", text.strip())]
    parts = [p for p in parts if p]
    if not parts:
        raise BadParams(f"no generators in {text!r}")
    return parts
