"""Braid-closure PD generator for the benchmark's diagram workloads.

Letter +k / -k is the generator sigma_k / its inverse acting on strand
positions k and k+1 (1-based).  At a crossing the incoming arcs are a
(position k) and b (position k+1), the outgoing arcs c (position k) and
d (position k+1); the strands run a -> d and b -> c.  A positive letter is
written ``X b d c a`` and a negative one ``X a b d c``, so the 0-smoothing
of a positive crossing is the oriented (Seifert) smoothing.  At the last
crossing on a position, the outgoing arc takes that position's first label,
which closes the braid.  Positions that no letter touches become ``O``
lines, and every crossing's sign goes into a ``SIGNS`` header.
"""

from __future__ import annotations


def closure_pd(word, strands: int) -> str:
    """PD text of the closure of ``word`` on ``strands`` strands."""
    last = {}
    for i, letter in enumerate(word):
        k = abs(letter)
        if not 1 <= k < strands:
            raise ValueError(f"letter {letter} out of range for {strands} strands")
        last[k] = last[k + 1] = i
    first = {}
    for pos in range(1, strands + 1):
        if pos in last:
            first[pos] = len(first) + 1
    nxt = len(first) + 1
    cur = dict(first)
    lines = []
    for i, letter in enumerate(word):
        k = abs(letter)
        a, b = cur[k], cur[k + 1]
        out = []
        for pos in (k, k + 1):
            if last[pos] == i:
                out.append(first[pos])
            else:
                out.append(nxt)
                nxt += 1
        c, d = out
        cur[k], cur[k + 1] = c, d
        lines.append(f"X {b} {d} {c} {a}" if letter > 0 else f"X {a} {b} {d} {c}")
    lines += ["O"] * (strands - len(first))
    if word:
        lines.append("SIGNS " + " ".join("+" if x > 0 else "-" for x in word))
    return "\n".join(lines) + "\n"


def orient_lines(word, strands: int) -> list[str]:
    """``ORIENT`` lines for the closure, following each component's arcs in
    the braid direction.  Used only to cross-check the ``SIGNS`` header."""
    pd = closure_pd(word, strands).splitlines()
    crossings = [tuple(int(x) for x in ln.split()[1:]) for ln in pd if ln.startswith("X")]
    succ = {}
    for letter, q in zip(word, crossings):
        if letter > 0:
            b, d, c, a = q
        else:
            a, b, d, c = q
        succ[a], succ[b] = d, c
    out, seen = [], set()
    for start in sorted(succ):
        if start in seen:
            continue
        comp, x = [], start
        while x not in seen:
            seen.add(x)
            comp.append(x)
            x = succ[x]
        out.append("ORIENT " + " ".join(map(str, comp)))
    return out


def rank_profile(word, strands: int) -> list[int]:
    """Chain-group ranks r_0..r_n of the rank-2 complex of the closure:
    r_i sums 2^(circles) over the states with i one-smoothings.  Computed
    from the PD text with its own union-find, independent of the library."""
    pd = closure_pd(word, strands).splitlines()
    crossings = [tuple(int(x) for x in ln.split()[1:]) for ln in pd if ln.startswith("X")]
    loops = sum(1 for ln in pd if ln == "O")
    arcs = 2 * len(crossings)
    ranks = [0] * (len(crossings) + 1)
    for state in range(1 << len(crossings)):
        parent = list(range(arcs + 1))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        ones = 0
        for bit, (a, b, c, d) in enumerate(crossings):
            if state >> bit & 1:
                ones += 1
                pairs = ((a, d), (b, c))
            else:
                pairs = ((a, b), (c, d))
            for x, y in pairs:
                parent[find(x)] = find(y)
        circles = sum(1 for x in range(1, arcs + 1) if find(x) == x) + loops
        ranks[ones] += 2**circles
    return ranks
