"""Built-in degeneration datasets.

Two non-planar degenerations are shipped:

* ``t4``  -- the tetrahedron: four planes, six edges, four inner 3-points.
* ``dt4`` -- the double tetrahedron: two tetrahedra glued along their
  (removed) bases; six planes, nine edges, two inner 3-points and three
  inner 4-points.

The dt4 entry carries relation overrides: the 4-point relations and the
projective relator.  They are dataset-supplied because they cannot be
derived from incidence data alone.
"""

from __future__ import annotations

from .complexes import DegenerationComplex, parse_complex

T4_JSON = """\
{
  "name": "T4",
  "planes": 4,
  "edges": [
    {"id": 1, "planes": [1, 3]},
    {"id": 2, "planes": [1, 2]},
    {"id": 3, "planes": [2, 4]},
    {"id": 4, "planes": [2, 3]},
    {"id": 5, "planes": [3, 4]},
    {"id": 6, "planes": [1, 4]}
  ],
  "vertices": [
    {"id": 1, "edges": [1, 2, 4]},
    {"id": 2, "edges": [1, 5, 6]},
    {"id": 3, "edges": [2, 3, 6]},
    {"id": 4, "edges": [3, 4, 5]}
  ]
}
"""

DT4_JSON = """\
{
  "name": "D(T4)",
  "planes": 6,
  "edges": [
    {"id": 1, "planes": [1, 2]},
    {"id": 2, "planes": [3, 6]},
    {"id": 3, "planes": [4, 6]},
    {"id": 4, "planes": [2, 3]},
    {"id": 5, "planes": [5, 6]},
    {"id": 6, "planes": [2, 5]},
    {"id": 7, "planes": [1, 3]},
    {"id": 8, "planes": [1, 4]},
    {"id": 9, "planes": [4, 5]}
  ],
  "vertices": [
    {"id": 1, "edges": [3, 5, 9]},
    {"id": 2, "edges": [1, 4, 7]},
    {"id": 3, "edges": [1, 6, 8, 9]},
    {"id": 4, "edges": [2, 3, 7, 8]},
    {"id": 5, "edges": [2, 4, 5, 6]}
  ],
  "overrides": {
    "extra_relators": [
      "ccomm 1 : g8 g7 g8",
      "ccomm 2 : g4 g7 g4",
      "ccomm 2 : g5 g3 g5",
      "ccomm 6 : g5 g9 g5",
      "ccomm 6 : g1 g4 g1",
      "ccomm 8 : g3 g9 g3",
      "eq: g3 g8 g7 g8 g3 = g4 g6 g5 g6 g4"
    ],
    "projective_relator": "word: g8 g7 g2 g3 g2 g7 g8 g8 g6 g5 g2 g4 g2 g5 g6 g6 g3 g8 g7 g8 g3 g2"
  }
}
"""

BUILTIN_SOURCES = {"t4": T4_JSON, "dt4": DT4_JSON}

def builtin_names() -> tuple[str, ...]:
    return tuple(sorted(BUILTIN_SOURCES))


def load_builtin(name: str) -> DegenerationComplex:
    """Parse and return a built-in dataset by name ('t4' or 'dt4')."""
    try:
        text = BUILTIN_SOURCES[name]
    except KeyError:
        raise KeyError(
            f"unknown builtin dataset {name!r}; available: {', '.join(builtin_names())}"
        ) from None
    return parse_complex(text)
