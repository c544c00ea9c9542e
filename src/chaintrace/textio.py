"""Plain-text files for complexes, short exact sequences and endomorphisms.

The format is line-oriented and diffable, meant for golden files and for
feeding the command line.  `#` starts a comment, blank lines and leading
whitespace are ignored, and one `ring` line must precede everything that
contains ring elements:

    ring Z/3[e]

    complex K
      degrees 1..1
      ranks 1

    complex L
      degrees 0..1
      ranks 1 1
      d 0 [[e]]

    complex M
      degrees 0..0
      ranks 1

    map j 1 [[1]]
    map q 0 [[1]]

    endo v 1 [[e]]

A file may hold a single complex, or exactly three plus `map` lines:
`j` reads as first -> second and `q` as second -> third, one line per
degree.  `endo` lines attach endomorphisms: in a three-complex file the
names must be u, v, w (acting on the first, second, third complex); in
a one-complex file any name goes.  Omitted matrix lines mean zero, so
only nonzero components need writing — the writers below do the same,
and parsing their output reproduces the original values exactly.

Ring elements are written `a`, `b*e`, `e`, or `a+b*e`; matrices as
`[[1,2],[0,e]]` row by row.  Parse failures raise ParseError carrying
the 1-based line number.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .complexes import ChainMap, PerfectComplex
from .linalg import Matrix
from .rings import RingElem, RingSpec
from .ses import EndoTriple, ShortExactSequence


class ParseError(ValueError):
    """A malformed document; `line` is 1-based, or None for file-level
    problems (missing ring line, map without its partner, ...)."""

    def __init__(self, line: Optional[int], message: str):
        self.line = line
        self.message = message
        where = f"line {line}: " if line is not None else ""
        super().__init__(where + message)


# ---------------------------------------------------------------------------
# scalars, rings, matrices
# ---------------------------------------------------------------------------

_RING = re.compile(r"^Z/(\d+)(\[e\])?$")
_INT = re.compile(r"^-?\d+$")
_EPS = re.compile(r"^(-?)(?:(\d+)\*)?e$")
_BOTH = re.compile(r"^(-?\d+)([+-])(?:(\d+)\*)?e$")


def parse_ring(text: str, *, where: Optional[int] = None) -> RingSpec:
    """Read `Z/m` or `Z/m[e]`, with 2 <= m < 2^64."""
    s = "".join(text.split())
    m = _RING.match(s)
    if not m:
        raise ParseError(where, f"cannot read ring {text.strip()!r} "
                                f"(expected Z/m or Z/m[e])")
    digits = m.group(1).lstrip("0") or "0"
    # past 20 digits a modulus is past 2^64 (and int() may refuse it)
    if len(digits) > 20 or not 2 <= int(digits) < 2 ** 64:
        raise ParseError(where, f"modulus must be at least 2 and below "
                                f"2^64, got {digits}")
    return RingSpec(int(digits), bool(m.group(2)))


def parse_element(ring: RingSpec, text: str,
                  *, where: Optional[int] = None) -> RingElem:
    """Read `a`, `b*e`, `e` or `a+b*e` (minus signs tolerated; values are
    reduced into [0, m))."""
    s = "".join(text.split())
    if _INT.match(s):
        return ring.element(int(s))
    em = _EPS.match(s)
    bm = _BOTH.match(s) if em is None else None
    if em is None and bm is None:
        raise ParseError(where, f"cannot read ring element {text.strip()!r}")
    if not ring.has_epsilon:
        raise ParseError(where, f"{ring} has no element e "
                                f"(in {text.strip()!r})")
    if em is not None:
        b = int(em.group(2) or "1")
        return ring.element(0, -b if em.group(1) else b)
    a = int(bm.group(1))
    b = int(bm.group(3) or "1")
    return ring.element(a, -b if bm.group(2) == "-" else b)


def parse_matrix(ring: RingSpec, text: str,
                 *, where: Optional[int] = None) -> Matrix:
    """Read `[[...],[...]]`; `[]` is the 0x0 matrix.  Rows must agree in
    length.  The shape is whatever was written — callers with an expected
    shape should check it (see parse_document)."""
    s = "".join(text.split())
    if not (s.startswith("[") and s.endswith("]")):
        raise ParseError(where, f"matrix must look like [[...],[...]], "
                                f"got {text.strip()!r}")
    inner = s[1:-1]
    rows: list[list[RingElem]] = []
    i = 0
    while i < len(inner):
        if inner[i] != "[":
            raise ParseError(where, f"expected '[' starting a row, got "
                                    f"{inner[i:]!r}")
        end = inner.find("]", i)
        if end < 0:
            raise ParseError(where, "unclosed row bracket")
        body = inner[i + 1:end]
        rows.append([parse_element(ring, t, where=where)
                     for t in body.split(",")] if body else [])
        i = end + 1
        if i < len(inner):
            if inner[i] != ",":
                raise ParseError(where, "rows must be separated by commas")
            i += 1
            if i == len(inner):
                raise ParseError(where, "trailing comma after the last row")
    if any(len(r) != len(rows[0]) for r in rows):
        raise ParseError(where, "rows differ in length")
    if not rows or not rows[0]:
        return Matrix.zero(ring, len(rows), 0)
    return Matrix.from_rows(ring, rows)


def format_matrix(m: Matrix) -> str:
    return str(m)


# ---------------------------------------------------------------------------
# documents
# ---------------------------------------------------------------------------


@dataclass
class Document:
    """Everything one file declared, with maps and endos fully resolved."""

    ring: RingSpec
    complexes: dict[str, PerfectComplex]
    inclusion: Optional[ChainMap] = None
    projection: Optional[ChainMap] = None
    endos: dict[str, ChainMap] = field(default_factory=dict)

    def ses(self) -> Optional[ShortExactSequence]:
        """The declared sequence, assembled but not checked for exactness
        (that is validate_ses's job)."""
        if self.inclusion is None or self.projection is None:
            return None
        first, second, third = self.complexes.values()
        return ShortExactSequence(first, second, third,
                                  self.inclusion, self.projection)

    def triple(self) -> Optional[EndoTriple]:
        if not {"u", "v", "w"} <= self.endos.keys():
            return None
        return EndoTriple(self.endos["u"], self.endos["v"], self.endos["w"])


def _shape_checked(parsed: Matrix, rows: int, cols: int, ring: RingSpec,
                   lineno: int, what: str) -> Matrix:
    if (parsed.rows, parsed.cols) == (rows, cols):
        return parsed
    if parsed.rows * parsed.cols == 0 and rows * cols == 0:
        return Matrix.zero(ring, rows, cols)
    raise ParseError(lineno, f"{what} must be {rows}x{cols}, "
                             f"got {parsed.rows}x{parsed.cols}")


class _ComplexBlock:
    def __init__(self, name: str, lineno: int):
        self.name = name
        self.lineno = lineno
        self.window: Optional[tuple[int, int]] = None
        self.ranks: Optional[list[int]] = None
        self.diffs: dict[int, tuple[int, Matrix]] = {}
        self.built: Optional[PerfectComplex] = None


_DEGREES = re.compile(r"^(-?\d+)\.\.(-?\d+)$")


class _Parser:
    def __init__(self) -> None:
        self.ring: Optional[RingSpec] = None
        self.ring_line: Optional[int] = None
        self.blocks: list[_ComplexBlock] = []
        self.block: Optional[_ComplexBlock] = None
        # name -> degree -> (lineno, matrix)
        self.maps: dict[str, dict[int, tuple[int, Matrix]]] = {}
        self.endos: dict[str, dict[int, tuple[int, Matrix]]] = {}

    # -- line handlers ------------------------------------------------------

    def _need_ring(self, lineno: int) -> RingSpec:
        if self.ring is None:
            raise ParseError(lineno, "a `ring` line must come first")
        return self.ring

    def handle(self, lineno: int, head: str, rest: str) -> None:
        if head in ("degrees", "ranks", "d"):
            if self.block is None:
                raise ParseError(lineno,
                                 f"`{head}` only makes sense inside a "
                                 f"`complex` block")
            getattr(self, "_" + head)(lineno, rest)
            return
        self._finish_block()
        if head == "ring":
            if self.ring is not None:
                raise ParseError(lineno, "second `ring` line (only one "
                                         "ring per file)")
            self.ring = parse_ring(rest, where=lineno)
            self.ring_line = lineno
        elif head == "complex":
            name = rest.strip()
            if not name or len(name.split()) != 1:
                raise ParseError(lineno, "`complex` needs a one-word name")
            if any(b.name == name for b in self.blocks):
                raise ParseError(lineno, f"complex {name!r} declared twice")
            self.block = _ComplexBlock(name, lineno)
        elif head == "map":
            self._component(lineno, rest, self.maps, "map", ("j", "q"))
        elif head == "endo":
            self._component(lineno, rest, self.endos, "endo", None)
        else:
            raise ParseError(lineno, f"unknown directive {head!r}")

    def _degrees(self, lineno: int, rest: str) -> None:
        if self.block.window is not None:
            raise ParseError(lineno, "second `degrees` line in this block")
        m = _DEGREES.match("".join(rest.split()))
        if not m:
            raise ParseError(lineno, f"expected `degrees lo..hi`, got "
                                     f"{rest.strip()!r}")
        lo, hi = int(m.group(1)), int(m.group(2))
        if lo > hi:
            raise ParseError(lineno, f"window {lo}..{hi} is empty")
        self.block.window = (lo, hi)

    def _ranks(self, lineno: int, rest: str) -> None:
        if self.block.window is None:
            raise ParseError(lineno, "`ranks` needs a `degrees` line first")
        if self.block.ranks is not None:
            raise ParseError(lineno, "second `ranks` line in this block")
        try:
            ranks = [int(t) for t in rest.split()]
        except ValueError:
            raise ParseError(lineno, f"ranks must be integers, got "
                                     f"{rest.strip()!r}") from None
        lo, hi = self.block.window
        if len(ranks) != hi - lo + 1:
            raise ParseError(lineno, f"window {lo}..{hi} needs "
                                     f"{hi - lo + 1} ranks, got {len(ranks)}")
        if any(r < 0 for r in ranks):
            raise ParseError(lineno, "ranks must be non-negative")
        self.block.ranks = ranks

    def _d(self, lineno: int, rest: str) -> None:
        ring = self._need_ring(lineno)
        if self.block.ranks is None:
            raise ParseError(lineno, "`d` needs `degrees` and `ranks` first")
        parts = rest.split(None, 1)
        if len(parts) != 2 or not _INT.match(parts[0]):
            raise ParseError(lineno, "expected `d <degree> [[...]]`")
        n = int(parts[0])
        lo, hi = self.block.window
        if not lo <= n < hi:
            raise ParseError(lineno, f"complex {self.block.name!r} has no "
                                     f"differential at degree {n} "
                                     f"(window {lo}..{hi})")
        if n in self.block.diffs:
            raise ParseError(lineno, f"differential at degree {n} given "
                                     f"twice")
        ranks = self.block.ranks
        mat = _shape_checked(parse_matrix(ring, parts[1], where=lineno),
                             ranks[n - lo + 1], ranks[n - lo], ring, lineno,
                             f"d at degree {n}")
        self.block.diffs[n] = (lineno, mat)

    def _component(self, lineno: int, rest: str,
                   store: dict[str, dict[int, tuple[int, Matrix]]],
                   kind: str, allowed: Optional[tuple[str, ...]]) -> None:
        ring = self._need_ring(lineno)
        parts = rest.split(None, 2)
        if len(parts) != 3 or not _INT.match(parts[1]):
            raise ParseError(lineno,
                             f"expected `{kind} <name> <degree> [[...]]`")
        name, deg = parts[0], int(parts[1])
        if allowed is not None and name not in allowed:
            raise ParseError(lineno, f"map name must be one of "
                                     f"{'/'.join(allowed)}, got {name!r}")
        slots = store.setdefault(name, {})
        if deg in slots:
            raise ParseError(lineno, f"{kind} {name!r} already has a "
                                     f"component at degree {deg}")
        slots[deg] = (lineno, parse_matrix(ring, parts[2], where=lineno))

    # -- assembly -----------------------------------------------------------

    def _finish_block(self) -> None:
        if self.block is None:
            return
        block, self.block = self.block, None
        if block.ranks is None:
            raise ParseError(block.lineno,
                             f"complex {block.name!r} never got its "
                             f"`degrees`/`ranks` lines")
        ring = self._need_ring(block.lineno)
        diffs = {n: mat for n, (_, mat) in block.diffs.items()}
        block.built = PerfectComplex.build(ring, block.window[0],
                                           block.ranks, diffs)
        self.blocks.append(block)

    def _chain_map(self, source: PerfectComplex, target: PerfectComplex,
                   slots: dict[int, tuple[int, Matrix]],
                   what: str) -> ChainMap:
        comps = {}
        for deg, (lineno, mat) in sorted(slots.items()):
            checked = _shape_checked(mat, target.rank(deg), source.rank(deg),
                                     self.ring, lineno,
                                     f"{what} at degree {deg}")
            if checked.rows * checked.cols:
                comps[deg] = checked
        return ChainMap.build(source, target, comps)

    def finish(self) -> Document:
        self._finish_block()
        if self.ring is None:
            raise ParseError(None, "missing `ring` line")
        complexes = {b.name: b.built for b in self.blocks}
        doc = Document(self.ring, complexes)

        if self.maps:
            if len(self.blocks) != 3:
                lineno = min(ln for c in self.maps.values()
                             for ln, _ in c.values())
                raise ParseError(lineno, f"map lines need exactly three "
                                         f"complexes, file has "
                                         f"{len(self.blocks)}")
            if set(self.maps) != {"j", "q"}:
                missing = ({"j", "q"} - set(self.maps)).pop()
                raise ParseError(None, f"map {missing!r} is missing")
            first, second, third = (b.built for b in self.blocks)
            doc.inclusion = self._chain_map(first, second, self.maps["j"],
                                            "map j")
            doc.projection = self._chain_map(second, third, self.maps["q"],
                                             "map q")

        for name, slots in self.endos.items():
            source, target = self._endo_home(name, slots)
            doc.endos[name] = self._chain_map(source, target, slots,
                                              f"endo {name!r}")
        return doc

    def _endo_home(self, name: str, slots) -> tuple[PerfectComplex,
                                                    PerfectComplex]:
        lineno = min(ln for ln, _ in slots.values())
        if len(self.blocks) == 1:
            k = self.blocks[0].built
            return k, k
        if len(self.blocks) == 3:
            position = {"u": 0, "v": 1, "w": 2}.get(name)
            if position is None:
                raise ParseError(lineno,
                                 f"in a three-complex file endo names must "
                                 f"be u, v or w, got {name!r}")
            k = self.blocks[position].built
            return k, k
        raise ParseError(lineno, f"cannot tell which complex endo {name!r} "
                                 f"acts on (file has {len(self.blocks)} "
                                 f"complexes; use one or three)")


def parse_document(text: str) -> Document:
    """Parse a whole file; see the module docstring for the grammar."""
    parser = _Parser()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, *rest = line.split(None, 1)
        parser.handle(lineno, head, "".join(rest))
    return parser.finish()


# ---------------------------------------------------------------------------
# writers
# ---------------------------------------------------------------------------


def format_complex(name: str, k: PerfectComplex) -> str:
    """One `complex` block (no ring line); zero differentials are omitted."""
    lines = [f"complex {name}",
             f"  degrees {k.lo}..{k.hi}",
             "  ranks " + " ".join(str(k.rank(n)) for n in k.degrees())]
    for n in range(k.lo, k.hi):
        d = k.diff(n)
        if d.rows * d.cols and not d.is_zero():
            lines.append(f"  d {n} {format_matrix(d)}")
    return "\n".join(lines)


def _component_lines(kind_name: str, f: ChainMap) -> list[str]:
    out = []
    for n in f.degrees():
        c = f.comp(n)
        if c.rows * c.cols and not c.is_zero():
            out.append(f"{kind_name} {n} {format_matrix(c)}")
    return out


def _required_lines(kind_name: str, f: ChainMap) -> list[str]:
    """Like _component_lines, but a map that must exist in the file (j, q,
    u, v, w) gets one explicit line even when it is zero everywhere."""
    lines = _component_lines(kind_name, f)
    if not lines:
        lo = f.source.lo
        lines = [f"{kind_name} {lo} {format_matrix(f.comp(lo))}"]
    return lines


def complex_file(k: PerfectComplex, name: str = "K",
                 endos: Optional[dict[str, ChainMap]] = None) -> str:
    """A whole single-complex document, optionally with endo lines."""
    parts = [f"ring {k.ring}", "", format_complex(name, k)]
    for endo_name, f in (endos or {}).items():
        parts.append("")
        parts.extend(_required_lines(f"endo {endo_name}", f))
    return "\n".join(parts) + "\n"


def ses_file(ses: ShortExactSequence,
             names: Sequence[str] = ("K", "L", "M"),
             triple: Optional[EndoTriple] = None) -> str:
    """A whole three-complex document with its j/q lines, and, when a
    triple is supplied, endo u/v/w lines."""
    parts = [f"ring {ses.ring}", ""]
    for name, k in zip(names, (ses.sub, ses.middle, ses.quotient)):
        parts.append(format_complex(name, k))
        parts.append("")
    body = (_required_lines("map j", ses.inclusion)
            + _required_lines("map q", ses.projection))
    if triple is not None:
        body += (_required_lines("endo u", triple.on_sub)
                 + _required_lines("endo v", triple.on_middle)
                 + _required_lines("endo w", triple.on_quotient))
    parts.extend(body)
    return "\n".join(parts) + "\n"
