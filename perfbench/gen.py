"""Seeded workload inputs, made with random.Random(seed) alone.

Nothing here imports coxanc: the library under test receives only what these
functions return.  Input sizes are fixed per workload and only the content
depends on the seed, so the work done per run does not drift with the seed.
"""
from __future__ import annotations

import random
from pathlib import Path

# The paper's sweep, A1-A7, B2-B6, D4-D6, E6, F4, H3, H4, I2(3)-I2(50).  It
# does not depend on the seed.
PAPER_SPECS = (
    [f"A{n}" for n in range(1, 8)]
    + [f"B{n}" for n in range(2, 7)]
    + [f"D{n}" for n in range(4, 7)]
    + ["E6", "F4", "H3", "H4"]
    + [f"I2({m})" for m in range(3, 51)]
)

D7_RANK = 7
D7_QUERIES = 300  # per iteration
# A 200-letter random word lands far into D7; 30-letter words reduce to length
# about 10, which is too easy.
D7_WORD_LETTERS = 200

TREE_SPECS = ("A9", "D9", "E8")
RANDOM_GRAPHS = 2
RANDOM_GRAPH_RANK = 9
RANDOM_GRAPH_EDGES = 18  # half of the 36 vertex pairs
RANDOM_BONDS = (3, 4, 6, 0)  # 0 is the matrix-file code for an infinite bond
# (alphabet size, repeats): (r1 r2 r3)^300 and (r1 ... r4)^300, whose
# ancestor factors are all single letters, the worst case for the prefix scan.
POWER_WORDS = ((3, 300), (4, 300))
# (letters, alphabet size) of the seeded random reduced words.
RANDOM_WORDS = ((1000, 3), (1200, 4), (1500, 5))


def d7_words(seed: int) -> list[tuple[int, ...]]:
    """D7_QUERIES random words of D7_WORD_LETTERS letters over r1 ... r7."""
    rng = random.Random(seed)
    letters = range(1, D7_RANK + 1)
    return [tuple(rng.choices(letters, k=D7_WORD_LETTERS)) for _ in range(D7_QUERIES)]


def matrix_file_text(rng: random.Random, rank: int, edges: int) -> str:
    """A Coxeter matrix file with exactly `edges` bonds above 2 (see coxanc.core)."""
    pairs = [(i, j) for i in range(rank) for j in range(i + 1, rank)]
    bonds = {pair: rng.choice(RANDOM_BONDS) for pair in rng.sample(pairs, edges)}
    rows = [
        " ".join(str(bonds.get((i, j), 2)) for j in range(i + 1, rank))
        for i in range(rank - 1)
    ]
    return "\n".join([str(rank), *rows]) + "\n"


def reduced_word(rng: random.Random, letters: int, alphabet: int) -> tuple[int, ...]:
    """Uniform random word with no two equal neighbours (reduced in the universal group)."""
    word = [rng.randint(1, alphabet)]
    while len(word) < letters:
        letter = rng.randint(1, alphabet - 1)
        word.append(letter if letter < word[-1] else letter + 1)
    return tuple(word)


def graph_word_inputs(seed: int, workdir: Path) -> dict:
    """Graph descriptors (random ones written as matrix files under workdir) and words."""
    rng = random.Random(seed)
    graphs = [(name, name) for name in TREE_SPECS]
    for k in range(RANDOM_GRAPHS):
        path = workdir / f"random{k}.cox"
        path.write_text(matrix_file_text(rng, RANDOM_GRAPH_RANK, RANDOM_GRAPH_EDGES))
        graphs.append((f"random{k}", f"file:{path}"))
    words = [(f"power{n}x{k}", tuple(range(1, n + 1)) * k) for n, k in POWER_WORDS]
    words += [
        (f"random{letters}over{alphabet}", reduced_word(rng, letters, alphabet))
        for letters, alphabet in RANDOM_WORDS
    ]
    return {"graphs": graphs, "words": words}
