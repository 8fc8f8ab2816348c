"""Seeded input generators for the benchmark workloads.

The NBFORCE source is fixed; its inputs (molecule, pairlist, expected
forces) come from the repo's own MD model through perfbench/mdgen.  The
loop-nest generators take a ``random.Random`` and return plain data
(source text, fill lists); the same seed always yields the same inputs.
Sizes and shapes are fixed per workload -- the seed only draws the values
-- so runs with different seeds cost about the same.
"""

# The paper's Figure 13 NBFORCE kernel with the force routine of its
# section 5.1 written inline: Lennard-Jones 12-6 plus Coulomb, per-kind
# parameters combined by Lorentz-Berthelot rules, the operations in the
# order of Lf_md.Force.pair so the result matches the mdgen reference.
# The pairlist is a one-dimensional CSR array (simdsim and simdbatch seed
# 1-D arrays only), and the r2 floor is the scalar r2min because flattenc
# prints 0.000001 as 1e-06, which the parser does not read back.
NBFORCE_SRC = """\
PROGRAM nbforce
  INTEGER n, npair, at1, at2, pr
  REAL r2min
  REAL fx(n)
  REAL fy(n)
  REAL fz(n)
  REAL x(n)
  REAL y(n)
  REAL z(n)
  REAL q(n)
  REAL sg(n)
  REAL ea(n)
  REAL dx, dy, dz, r2, r, sigma, eps, sr2, sr6, flj, fc, s
  INTEGER pcnt(n)
  INTEGER pstart(n)
  INTEGER partners(npair)
  DO at1 = 1, n
    DO pr = 1, pcnt(at1)
      at2 = partners(pstart(at1) + pr)
      dx = x(at1) - x(at2)
      dy = y(at1) - y(at2)
      dz = z(at1) - z(at2)
      r2 = MAX(r2min, dx * dx + dy * dy + dz * dz)
      r = SQRT(r2)
      sigma = 0.5 * (sg(at1) + sg(at2))
      eps = SQRT(ea(at1) * ea(at2))
      sr2 = sigma * sigma / r2
      sr6 = sr2 * sr2 * sr2
      flj = 24.0 * eps * (2.0 * (sr6 * sr6) - sr6) / r2
      fc = 138.935 * q(at1) * q(at2) / (r2 * r)
      s = flj + fc
      fx(at1) = fx(at1) + s * dx
      fy(at1) = fy(at1) + s * dy
      fz(at1) = fz(at1) + s * dz
    ENDDO
  ENDDO
END
"""


# -- loop nests ---------------------------------------------------------

# Nest shapes: (name, flattenc flags).  Each corpus holds the same number
# of nests of every shape, so only the drawn bodies differ between seeds.
SHAPES = [
    ("irregular", []),  # DO j = 1, cnt(i): the paper's Figure 3/13 form
    ("triangular", []),  # DO j = 1, i
    ("guarded", []),  # irregular, body under IF/ELSE
    ("tower", ["--deep", "--assume-inner-nonempty"]),  # three levels, inner bounds from arrays
]

# Default input size of the nest programs: `n` outer iterations (and
# triangular inner bounds up to `n`), irregular inner trip counts in 1..M.
NEST_N = 24
NEST_M = 6


def _expr(rng, leaves, depth):
    """A full expression tree of the given depth: its shape and size are
    fixed, the seed only picks operators, leaves and constants."""
    if depth == 0:
        if rng.random() < 0.2:
            return f"{rng.randint(1, 9)}.{rng.randint(0, 9)}"
        return rng.choice(leaves)
    a, b = _expr(rng, leaves, depth - 1), _expr(rng, leaves, depth - 1)
    return rng.choice([
        f"({a} + {b})",
        f"({a} - {b})",
        f"({a} * 0.5 + {b} * 0.25)",
        f"{a} / (1.0 + ABS({b}))",
        f"MAX({a}, {b})",
        f"MIN({a}, {b})",
    ])


def nest_program(rng, shape, idx, nstmts):
    """One program with a single two- or three-level nest whose body has
    ``nstmts`` statements in a fixed pattern: every third one assigns a
    temporary (at most four), the others accumulate into a(i) or b(i) --
    under IF/ELSE in the guarded shape.  The outer iterations are
    independent (arrays are written at subscript i only, temporaries are
    assigned before they are read), so flattenc accepts every nest."""
    leaves = ["x(i)", "y(j)", "w(i)", "(j * 0.5)"]
    if shape == "tower":
        leaves += ["y(k)", "(k * 0.5)"]
    head = [f"PROGRAM nest{idx}", "  INTEGER n, m, i, j, k"]
    head += ["  INTEGER cnt(n)", "  INTEGER cnt2(m)"]
    head += [f"  REAL {v}(n)" for v in ("a", "b", "x", "w", "y")]
    temps, body = [], []
    for s in range(nstmts):
        known = leaves + temps
        if s % 3 == 0 and len(temps) < 4:
            t = f"t{len(temps) + 1}"
            body.append(f"{t} = {_expr(rng, known, 3)}")
            temps.append(t)
        elif shape == "guarded" and s % 3 == 1:
            body += [
                f"IF ({_expr(rng, known, 1)} > {_expr(rng, known, 1)}) THEN",
                f"  a(i) = a(i) + {_expr(rng, known, 2)}",
                "ELSE",
                f"  b(i) = b(i) - {_expr(rng, known, 2)}",
                "ENDIF",
            ]
        else:
            tgt = "ab"[s % 2]
            body.append(f"{tgt}(i) = {tgt}(i) + {_expr(rng, known, 3)}")
    if temps:
        head.append("  REAL " + ", ".join(temps))
    loops = {
        "irregular": ["DO i = 1, n", "  DO j = 1, cnt(i)"],
        "guarded": ["DO i = 1, n", "  DO j = 1, cnt(i)"],
        "triangular": ["DO i = 1, n", "  DO j = 1, i"],
        "tower": ["DO i = 1, n", "  DO j = 1, cnt(i)", "    DO k = 1, cnt2(j)"],
    }[shape]
    depth = len(loops)
    lines = head + ["  " + l for l in loops]
    lines += ["  " * (depth + 1) + b for b in body]
    lines += ["  " * (depth - d) + "ENDDO" for d in range(depth)]
    lines.append("END")
    return "\n".join(lines) + "\n"


def _shuffled(rng, xs):
    rng.shuffle(xs)
    return xs


def nest_inputs(rng, n=NEST_N, m=NEST_M):
    """Scalars and array fills shared by every nest program of a corpus:
    ``n`` outer iterations, inner trip counts in 1..``m`` (a fixed
    multiset, shuffled)."""
    return {
        "set": {"n": n, "m": m},
        "fill": {
            "cnt": _shuffled(rng, [1 + k % m for k in range(n)]),
            "cnt2": _shuffled(rng, [1 + k for k in range(m)]),
            "x": [round(rng.uniform(-5, 5), 2) for _ in range(n)],
            "w": [round(rng.uniform(-5, 5), 2) for _ in range(n)],
            "y": [round(rng.uniform(-5, 5), 2) for _ in range(n)],
        },
    }


def nest_corpus(rng, per_shape, nstmts):
    """``per_shape`` programs of every shape: a list of (name, source,
    extra flattenc flags)."""
    out = []
    for rep in range(per_shape):
        for shape, flags in SHAPES:
            idx = len(out)
            out.append((f"{shape}{rep}", nest_program(rng, shape, idx, nstmts), flags))
    return out
