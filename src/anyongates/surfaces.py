"""Surfaces, pants decompositions, and fusion-consistent labelings.

Two surfaces are constructed programmatically: the torus with its one-curve
decomposition (a self-glued annulus, basis indexed by the label set), and the
M-punctured sphere with the standard caterpillar decomposition whose internal
curves C_1..C_{M-3} separate punctures {1..j+1} from the rest.  A basis
vector of the sphere space is a slot sequence (x_1..x_N) with

    x_1 in b_1 x b_2,  x_{j+1} in x_j x b_{j+2},  N^{dual(b_M)}_{x_N b_{M-1}} = 1.

Labelings are enumerated depth-first in increasing label-index order, so the
basis order (and every matrix built on it) is reproducible bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .models import AnyonModel, fusion_channels


class InfeasibleSurfaceError(ValueError):
    """Surface/label combination with a dimension-0 state space where a
    positive dimension is required."""


@dataclass(frozen=True)
class SurfaceSpec:
    kind: str  # "torus" | "punctured_sphere"
    punctures: int = 0
    boundary_labels: tuple[int, ...] = ()

    def __post_init__(self):
        if self.kind not in ("torus", "punctured_sphere"):
            raise ValueError(f"unknown surface kind {self.kind!r}")
        if self.kind == "torus" and self.boundary_labels:
            raise ValueError("torus has no boundary")
        if self.kind == "punctured_sphere" and len(self.boundary_labels) != self.punctures:
            raise ValueError("need one boundary label per puncture")

    def describe(self, model: AnyonModel | None = None) -> str:
        if self.kind == "torus":
            return "torus"
        if model is not None:
            names = [model.labels[b] for b in self.boundary_labels]
        else:
            names = [str(b) for b in self.boundary_labels]
        if len(set(names)) == 1 and names:
            return f"sphere:{names[0]}:{len(names)}"
        return "sphere(" + ",".join(names) + ")"


def torus_surface() -> SurfaceSpec:
    return SurfaceSpec(kind="torus")


def sphere_surface(model: AnyonModel, label: int | str, punctures: int) -> SurfaceSpec:
    """M-punctured sphere with every puncture carrying the same label."""
    z = model.label_index(label)
    return SurfaceSpec(
        kind="punctured_sphere",
        punctures=punctures,
        boundary_labels=(z,) * punctures,
    )


@dataclass(frozen=True)
class DapDecomposition:
    """Internal curves of a decomposition into discs, annuli and pants.

    ``adjacency`` maps each internal curve to the boundary circles of its
    pants neighborhood: 4-tuples of curve ids ("C1"..) or puncture ids
    ("P1"..) for sphere curves, a 2-tuple (itself, itself) for the self-glued
    torus curve.
    """

    curves: tuple[str, ...]
    adjacency: dict[str, tuple[str, ...]] = field(default_factory=dict)


def standard_dap(surface: SurfaceSpec) -> DapDecomposition:
    if surface.kind == "torus":
        return DapDecomposition(curves=("C1",), adjacency={"C1": ("C1", "C1")})
    m = surface.punctures
    if m < 3:
        # Degenerate: no decomposition object; dimension handled directly.
        return DapDecomposition(curves=(), adjacency={})
    n_curves = m - 3
    curves = tuple(f"C{j}" for j in range(1, n_curves + 1))
    adjacency = {}
    for j in range(1, n_curves + 1):
        left = f"C{j-1}" if j > 1 else "P1"
        right = f"C{j+1}" if j < n_curves else f"P{m}"
        adjacency[f"C{j}"] = (left, f"P{j+1}", f"P{j+2}", right)
    return DapDecomposition(curves=curves, adjacency=adjacency)


@dataclass
class BasisIndex:
    surface: SurfaceSpec
    dap: DapDecomposition
    labelings: tuple[tuple[int, ...], ...]
    index: dict[tuple[int, ...], int]

    @property
    def dim(self) -> int:
        return len(self.labelings)


def enumerate_labelings(
    model: AnyonModel,
    surface: SurfaceSpec,
    dap: DapDecomposition | None = None,
) -> BasisIndex:
    """All fusion-consistent labelings of the standard decomposition.

    The torus basis is the label set itself.  Sphere labelings are slot
    sequences as in the module docstring; the empty tuple is the single
    labeling of a nonzero-dimensional sphere with fewer than 4 punctures.
    """
    if dap is None:
        dap = standard_dap(surface)
    if surface.kind == "torus":
        labs = tuple((a,) for a in range(model.n_labels))
        return BasisIndex(surface, dap, labs, {l: i for i, l in enumerate(labs)})

    b = surface.boundary_labels
    m = surface.punctures
    if m == 0:
        labs: tuple = ((),)
    elif m == 1:
        labs = ((),) if b[0] == 0 else ()
    elif m == 2:
        labs = ((),) if model.dual[b[0]] == b[1] else ()
    elif m == 3:
        labs = ((),) if model.fusion[b[0], b[1], model.dual[b[2]]] else ()
    else:
        out: list[tuple[int, ...]] = []
        n_slots = m - 3
        final = model.dual[b[m - 1]]
        product = fusion_channels(model.fusion).product

        def extend(prev: int, depth: int, acc: list[int]) -> None:
            if depth == n_slots:
                if model.fusion[prev, b[m - 2], final]:
                    out.append(tuple(acc))
                return
            for x in product(prev, b[depth + 1]):
                acc.append(x)
                extend(x, depth + 1, acc)
                acc.pop()

        # x_1 ranges over b_1 x b_2, then each slot fuses in the next puncture.
        for x1 in product(b[0], b[1]):
            extend(x1, 1, [x1])
        labs = tuple(out)
    return BasisIndex(surface, dap, labs, {l: i for i, l in enumerate(labs)})

