"""Coxeter matrices, Coxeter graphs, and the descriptor language for standard types.

Supported descriptors:

    A5, B3, D4, E6, E7, E8, F4, H3, H4    standard finite families
    I2(7), I2(inf)                        dihedral types, by bond label
    U3                                    universal: every bond label infinite
    A2xB3                                 direct products, joined with "x"
    file:matrix.cox                       explicit Coxeter matrix file

Matrix files: the first line holds the rank n; each of the next n-1 lines
holds one row of the strict upper triangle of the Coxeter matrix,
whitespace-separated.  The entry 0 stands for an infinite bond label, which
keeps the format purely integral.  Lines starting with '#' are ignored.

Generator indices are 1-based everywhere in the public surface.
"""
from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from pathlib import Path

from .errors import InvalidMatrix, RankOutOfRange, UnknownType

INFINITY = 0  # integer encoding of an infinite bond label

_COMPONENT_RE = re.compile(r"^([ABDEFHU])(\d+)$")
_DIHEDRAL_RE = re.compile(r"^I2\((\d+|INF|OO)\)$")


@dataclass(frozen=True)
class CoxeterMatrix:
    """Symmetric matrix of bond labels m_ij; the entry 0 encodes infinity.

    Diagonal entries are 1 and off-diagonal entries are 0 or >= 2; anything
    else is rejected at construction time.
    """

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        n = len(self.rows)
        if n == 0:
            raise InvalidMatrix("matrix must have positive rank")
        for i, row in enumerate(self.rows):
            if len(row) != n:
                raise InvalidMatrix(f"row {i + 1} has {len(row)} entries, expected {n}")
            if row[i] != 1:
                raise InvalidMatrix(f"diagonal entry m[{i + 1}][{i + 1}] must be 1")
            for j, m in enumerate(row):
                if not isinstance(m, int):
                    raise InvalidMatrix(f"entry m[{i + 1}][{j + 1}] is not an integer")
                if i != j and m != INFINITY and m < 2:
                    raise InvalidMatrix(
                        f"off-diagonal entry m[{i + 1}][{j + 1}] = {m} must be 0 (infinite) or >= 2"
                    )
                if m != self.rows[j][i]:
                    raise InvalidMatrix(f"matrix is not symmetric at ({i + 1},{j + 1})")

    @property
    def n(self) -> int:
        return len(self.rows)

    def bond(self, i: int, j: int) -> int:
        """Label m_ij for 1-based generator indices (0 means infinite)."""
        return self.rows[i - 1][j - 1]

    def is_infinite(self, i: int, j: int) -> bool:
        return self.bond(i, j) == INFINITY

    @classmethod
    def from_rows(cls, rows) -> "CoxeterMatrix":
        return cls(tuple(tuple(int(m) for m in row) for row in rows))

    @classmethod
    def from_file(cls, path) -> "CoxeterMatrix":
        try:
            text = Path(path).read_text()
        except OSError as exc:
            raise InvalidMatrix(f"{path}: cannot read matrix file: {exc.strerror}") from None
        except UnicodeDecodeError:
            raise InvalidMatrix(f"{path}: matrix file is not text") from None
        lines = [
            line.strip()
            for line in text.splitlines()
            if line.strip() and not line.lstrip().startswith("#")
        ]
        if not lines:
            raise InvalidMatrix(f"{path}: empty matrix file")
        try:
            n = int(lines[0])
        except ValueError:
            raise InvalidMatrix(f"{path}: first line must be the rank") from None
        if n < 1:
            raise InvalidMatrix(f"{path}: rank must be positive")
        if len(lines) != n:
            raise InvalidMatrix(f"{path}: expected {n - 1} triangle rows, found {len(lines) - 1}")
        full = [[1 if i == j else None for j in range(n)] for i in range(n)]
        for i in range(n - 1):
            tokens = lines[i + 1].split()
            if len(tokens) != n - 1 - i:
                raise InvalidMatrix(
                    f"{path}: triangle row {i + 1} has {len(tokens)} entries, expected {n - 1 - i}"
                )
            for k, tok in enumerate(tokens):
                j = i + 1 + k
                try:
                    m = int(tok)
                except ValueError:
                    raise InvalidMatrix(f"{path}: bad entry {tok!r}") from None
                full[i][j] = m
                full[j][i] = m
        return cls.from_rows(full)


@dataclass(frozen=True)
class SystemSpec:
    """A parsed descriptor: rank plus the list of irreducible component tags."""

    descriptor: str
    rank: int
    components: tuple[str, ...]
    matrix: CoxeterMatrix | None = None  # carried for file-backed specs


@dataclass(frozen=True)
class CoxeterGraph:
    """Graph on generator indices with an edge wherever m_ij >= 3 or infinite.

    Edges are stored as sorted (i, j, label) triples with i < j; label 0 means
    an infinite bond.  Induced subgraphs keep the original vertex names, so
    vertex sets of subgraphs remain meaningful generator indices.
    """

    vertices: tuple[int, ...]
    edges: tuple[tuple[int, int, int], ...]

    @property
    def rank(self) -> int:
        return len(self.vertices)

    @functools.cached_property
    def adjacency(self) -> dict[int, frozenset[int]]:
        nbrs: dict[int, set[int]] = {v: set() for v in self.vertices}
        for i, j, _ in self.edges:
            nbrs[i].add(j)
            nbrs[j].add(i)
        return {v: frozenset(s) for v, s in nbrs.items()}

    def neighbors(self, v: int) -> frozenset[int]:
        return self.adjacency[v]

    def induced(self, keep) -> "CoxeterGraph":
        kept = frozenset(keep)
        return CoxeterGraph(
            vertices=tuple(v for v in self.vertices if v in kept),
            edges=tuple(e for e in self.edges if e[0] in kept and e[1] in kept),
        )


def _normalize_component(piece: str) -> str:
    p = piece.strip().upper().replace("∞", "INF")
    if not p:
        raise UnknownType(f"empty component in descriptor (piece {piece!r})")
    m = _DIHEDRAL_RE.match(p)
    if m:
        label = m.group(1)
        if label in ("INF", "OO") or int(label) == 0:
            return "I2(inf)"
        value = int(label)
        if value < 3:
            raise RankOutOfRange(f"I2({value}): dihedral label must be at least 3 (or infinite)")
        return f"I2({value})"
    m = _COMPONENT_RE.match(p)
    if not m:
        raise UnknownType(f"unrecognized component {piece!r}")
    letter, rank_s = m.group(1), m.group(2)
    rank = int(rank_s)
    limits = {
        "A": lambda r: r >= 1,
        "B": lambda r: r >= 2,
        "D": lambda r: r >= 4,
        "E": lambda r: r in (6, 7, 8),
        "F": lambda r: r == 4,
        "H": lambda r: r in (3, 4),
        "U": lambda r: r >= 1,
    }
    if not limits[letter](rank):
        raise RankOutOfRange(f"{letter}{rank} is not a valid type")
    return f"{letter}{rank}"


def _component_rank(tag: str) -> int:
    if tag.startswith("I2("):
        return 2
    return int(tag[1:])


def parse_spec(descriptor: str) -> SystemSpec:
    """Parse a descriptor into a SystemSpec; the result round-trips through here."""
    if descriptor is None or not descriptor.strip():
        raise UnknownType("empty descriptor")
    s = descriptor.strip()
    if s.lower().startswith("file:"):
        path = s[5:].strip()
        if not path:
            raise UnknownType("file: descriptor needs a path")
        matrix = CoxeterMatrix.from_file(path)
        tag = f"file:{path}"
        return SystemSpec(descriptor=tag, rank=matrix.n, components=(tag,), matrix=matrix)
    components = tuple(_normalize_component(p) for p in re.split(r"[xX]", s))
    rank = sum(_component_rank(t) for t in components)
    return SystemSpec(descriptor="x".join(components), rank=rank, components=components)


def _component_bonds(tag: str) -> tuple[int, dict[tuple[int, int], int]]:
    """Rank and off-diagonal bonds (1-based, within the component) for one tag."""
    if tag.startswith("I2("):
        label = tag[3:-1]
        m = INFINITY if label == "inf" else int(label)
        return 2, {(1, 2): m}
    letter, r = tag[0], int(tag[1:])
    if letter == "A":
        return r, {(i, i + 1): 3 for i in range(1, r)}
    if letter == "B":
        bonds = {(i, i + 1): 3 for i in range(1, r - 1)}
        bonds[(r - 1, r)] = 4
        return r, bonds
    if letter == "D":
        bonds = {(i, i + 1): 3 for i in range(1, r - 1)}
        bonds[(r - 2, r)] = 3
        return r, bonds
    if letter == "E":
        bonds = {(1, 3): 3, (2, 4): 3}
        bonds.update({(i, i + 1): 3 for i in range(3, r)})
        return r, bonds
    if letter == "F":
        return 4, {(1, 2): 3, (2, 3): 4, (3, 4): 3}
    if letter == "H":
        bonds = {(1, 2): 5, (2, 3): 3}
        if r == 4:
            bonds[(3, 4)] = 3
        return r, bonds
    if letter == "U":
        return r, {(i, j): INFINITY for i in range(1, r) for j in range(i + 1, r + 1)}
    raise UnknownType(tag)


def build_matrix(spec: SystemSpec) -> CoxeterMatrix:
    """Coxeter matrix of a spec; products become block-diagonal with m_ij = 2 across blocks."""
    if spec.matrix is not None:
        return spec.matrix
    n = spec.rank
    full = [[1 if i == j else 2 for j in range(n)] for i in range(n)]
    offset = 0
    for tag in spec.components:
        r, bonds = _component_bonds(tag)
        for (i, j), m in bonds.items():
            full[offset + i - 1][offset + j - 1] = m
            full[offset + j - 1][offset + i - 1] = m
        offset += r
    return CoxeterMatrix.from_rows(full)


def graph_of(matrix: CoxeterMatrix) -> CoxeterGraph:
    """Coxeter graph: vertex i ~ j exactly when m_ij >= 3 or infinite."""
    n = matrix.n
    edges = []
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            m = matrix.bond(i, j)
            if m == INFINITY or m >= 3:
                edges.append((i, j, m))
    return CoxeterGraph(vertices=tuple(range(1, n + 1)), edges=tuple(edges))


def is_finite_type(graph: CoxeterGraph) -> bool:
    """Whether the Coxeter group of the graph is finite.

    Each connected component is matched exactly against the finite types
    A_n, B_n, D_n, E6-8, F4, H3, H4 and I2(m) (Humphreys, *Reflection Groups
    and Coxeter Groups*, section 2.7): no float tolerance is involved.
    """
    adj = graph.adjacency
    left = set(graph.vertices)
    while left:
        component, stack = set(), [min(left)]
        while stack:
            v = stack.pop()
            if v not in component:
                component.add(v)
                stack.extend(adj[v])
        left -= component
        if not _is_finite_component(graph.induced(component)):
            return False
    return True


def _is_finite_component(c: CoxeterGraph) -> bool:
    adj = c.adjacency
    labels = [m for (_, _, m) in c.edges]
    if INFINITY in labels or len(labels) != c.rank - 1:  # an infinite bond or a cycle
        return False
    if c.rank <= 2:  # A1 or I2(m)
        return True
    branches = [v for v in c.vertices if len(adj[v]) > 2]
    if not branches:  # a path
        odd = [(i, j, m) for (i, j, m) in c.edges if m != 3]
        if not odd:  # A_n
            return True
        if len(odd) > 1:
            return False
        i, j, m = odd[0]
        at_end = len(adj[i]) == 1 or len(adj[j]) == 1
        if m == 4:  # B_n, or F4 with the 4 in the middle
            return at_end or c.rank == 4
        return m == 5 and at_end and c.rank <= 4  # H3, H4
    if len(branches) > 1 or len(adj[branches[0]]) > 3 or set(labels) != {3}:
        return False
    arms = sorted(_arm_length(adj, branches[0], u) for u in adj[branches[0]])
    return arms[:2] == [1, 1] or (arms[:2] == [1, 2] and arms[2] <= 4)  # D_n, E6-8


def _arm_length(adj, center: int, v: int) -> int:
    """Vertices on the path that leaves center through v."""
    length, prev = 1, center
    while len(adj[v]) == 2:
        prev, v = v, next(u for u in adj[v] if u != prev)
        length += 1
    return length
