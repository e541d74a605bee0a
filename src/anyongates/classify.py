"""Classification of monomial logical gates on torus and sphere code spaces.

The pipeline mirrors how the constraints localize.  Curve by curve, a gate
must permute the fusion labels of each decomposition curve while preserving
the dimensions of the cut surfaces; a local basis change around one curve
then pins the per-label phases to a finite set; finally the mapping class
group words veto any combination whose conjugated gate stops being
monomial.  The per-curve offsets that a global phase convention introduces
cancel in differences, so phase functions are always reported normalized to
zero on the first label.

Two sphere paths and one torus path cover the built-in models:

* factorized sphere path: every multi-label curve is isolated between
  single-label curves, so candidate gates are direct products of per-curve
  (permutation, phase function) choices; used for the Ising spheres, where
  the result is the Pauli group on the encoded qubits, and for 4-punctured
  spheres.  A braid word acts only on the window of slots its letters and
  their neighbors occupy, so each word is checked on its window matrix
  against the tuples of options of the free curves there; no dim x dim
  matrix is built for any word.
* delta-set sphere path: on any other basis the words' delta sets are
  intersected over the basis-preserving products of per-curve label
  permutations.  When every curve allows only the identity the gates are
  diagonal and the classes exact ("diagonal"); otherwise the list is an
  upper bound ("fallback").
* closed-form abelian torus path: the abelian module lists the families
  of every single-s word in one pass over the affine permutations, joining
  the words once per automorphism of the fusion group.  Every resulting
  class is decided for Clifford-star membership: one class per
  automorphism and one per translation are checked from their permutations
  and phases, and each class takes its automorphism's flag, since two
  classes of one automorphism differ by strings, which keep membership.

Every class list is in the order of its classes' compact JSON, computed
from the arrays the classes are built from (``json_order``), not from their
text.  Delta sets hold their families as arrays (permutation rows,
relative-phase rows, one shared phase-component tuple), and the classes of
a delta-set path are those rows; the logical strings are looked up among
the permutation rows.  A factorized class is its basis images, its option
on each free curve and its phases.  ``report.classes`` is a read-only
``jsonwriter.Rows`` over these arrays: the writer renders it without a dict
per class, each class dict is built only when read, and ``list(report.
classes)`` gives them all.  The verdict checks read the columns.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import abelian as _ab
from .budget import Budget, SearchBudgetError, chunk_rows
from .jsonwriter import Category, Rows, dumps, json_order
from .mcg import braid_letters, braid_slot, evaluate_on_basis
from .models import AnyonModel
from .solver import (
    DeltaSet,
    delta_set,
    intersect_delta,
    monomial_mask,
    solve_intertwiner,
)
from .surfaces import (
    BasisIndex,
    DapDecomposition,
    InfeasibleSurfaceError,
    SurfaceSpec,
    enumerate_labelings,
    standard_dap,
)
from .tolerances import (
    DEFAULT_TOL,
    PAULI_ANGLE_TOL,
    TRIVIAL_PHASE_TOL,
    WINDOW_ZERO_THRESHOLD,
    ZERO_THRESHOLD,
    check_tol,
    factor_unit_modulus_tol,
    unit_modulus_tol,
)

VERDICTS = (
    "trivial",
    "pauli_group",
    "clifford_star_subgroup",
    "finite_group",
    "upper_bound_only",
)

# The identity gate solves every constraint, so an empty class list means the
# search matched nothing (for example under a NaN tolerance), not a group.
_NO_CLASS = "no gate class survives on {}, not even the identity gate"


class ClassificationError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Step 1: per-curve label permutations


def allowed_curve_permutations(
    model: AnyonModel,
    surface: SurfaceSpec,
    dap: DapDecomposition | None = None,
    basis: BasisIndex | None = None,
) -> dict[str, list[tuple[tuple[int, int], ...]]]:
    """Per curve, the label bijections preserving all cut dimensions.

    Each permutation is returned as a sorted tuple of (label, image) pairs
    over the labels that actually occur on that curve.  A valid gate must
    act on curve labels by such a bijection: cutting along the curve splits
    the space into flux sectors whose dimensions the gate cannot change.
    The per-curve label counts (the cut dimensions) are read off ``basis``,
    the surface's labelings, in one array pass; it is enumerated when not
    given.
    """
    if dap is None:
        dap = standard_dap(surface)
    if basis is None:
        basis = enumerate_labelings(model, surface, dap)
    n_labels = model.n_labels
    n_curves = len(dap.curves)
    slots = np.array(basis.labelings, dtype=np.intp).reshape(basis.dim, n_curves)
    # counts[s, a]: labelings with label a in slot s, the slot of curve s + 1
    counts = np.bincount(
        (slots + n_labels * np.arange(n_curves)).ravel(),
        minlength=n_curves * n_labels,
    ).reshape(n_curves, n_labels).tolist()
    out: dict[str, list[tuple[tuple[int, int], ...]]] = {}
    for curve, count in zip(dap.curves, counts):
        occurring = [a for a in range(n_labels) if count[a] > 0]
        perms = []
        for images in itertools.permutations(occurring):
            if all(count[a] == count[b] for a, b in zip(occurring, images)):
                perms.append(tuple(zip(occurring, images)))
        out[curve] = perms
    return out


def curve_boundary(
    model: AnyonModel,
    surface: SurfaceSpec,
    curve_index: int,
    context: tuple[int, ...],
) -> tuple[int, int, int, int]:
    """Local 4-holed-sphere boundary (i, j, k, l) around sphere curve C_j.

    ``context`` supplies the labels of the two neighbor curves (left, right)
    where they exist; boundary punctures fill the ends, with the final
    position carrying the dual of the last puncture label.
    """
    b = surface.boundary_labels
    m = surface.punctures
    j = curve_index
    left = b[0] if j == 1 else context[0]
    right = model.dual[b[m - 1]] if j == m - 3 else context[1]
    return (left, b[j], right, b[j + 1])


@dataclass(frozen=True)
class IsoPhaseSet:
    """Discrete phase functions compatible with one curve permutation.

    ``phase_functions`` lists, for each solution family, the angle assigned
    to every curve label (in ``curve_labels`` order), normalized to zero on
    the first label.
    """

    boundary: tuple[int, int, int, int]
    curve_labels: tuple[int, ...]
    perm: tuple[tuple[int, int], ...]
    phase_functions: tuple[tuple[float, ...], ...]


def iso_phase_set(
    model: AnyonModel,
    boundary: tuple[int, int, int, int],
    perm: tuple[tuple[int, int], ...] | None = None,
    tol: float = DEFAULT_TOL,
) -> IsoPhaseSet:
    """Phases a gate may attach to curve labels, fixed curve permutation.

    The curve's labels are the middle fusion channels of the local 4-holed
    sphere; transporting the gate through the basis change that regroups
    the punctures must again give a monomial matrix, which quantizes the
    relative phases.  The returned functions are the complete solution set.
    """
    rows, _, block = model.fmove_block(*boundary)
    if not rows:
        raise ClassificationError(f"no fusion channels for boundary {boundary}")
    if perm is None:
        perm = tuple((a, a) for a in rows)
    pmap = dict(perm)
    if sorted(pmap) != list(rows) or sorted(pmap.values()) != list(rows):
        raise ClassificationError(f"{perm} is not a permutation of channels {rows}")
    pos = {a: i for i, a in enumerate(rows)}
    basis_perm = tuple(pos[pmap[a]] for a in rows)
    # Coefficient transform: the block maps row-channel kets to column-channel
    # kets, so coordinates transform by the transpose.
    d = solve_intertwiner(
        block.T, perm_in=[basis_perm], v_out=block.T, tol=tol
    ).instantiate_families()
    funcs = np.mod(np.angle(d / d[:, :1]), 2.0 * np.pi)
    return IsoPhaseSet(
        boundary=tuple(boundary),
        curve_labels=rows,
        perm=perm,
        phase_functions=tuple(sorted(set(map(tuple, funcs.tolist())))),
    )


# ---------------------------------------------------------------------------
# Reports


@dataclass
class ClassificationReport:
    """A verdict and its class list; ``classes`` is a read-only ``Rows``."""

    model: str
    surface: str
    verdict: str
    group_order: int | None
    classes: Rows
    flags: list[str] = field(default_factory=list)
    details: dict = field(default_factory=dict)

    @property
    def n_classes(self) -> int:
        return len(self.classes)

    def to_json(self) -> str:
        payload = {
            "model": self.model,
            "surface": self.surface,
            "verdict": self.verdict,
            "group_order": self.group_order,
            "n_classes": self.n_classes,
            "classes": self.classes,
            "flags": sorted(self.flags),
            "details": self.details,
        }
        return dumps(payload)

    def to_text(self) -> str:
        lines = [
            f"model:    {self.model}",
            f"surface:  {self.surface}",
            f"verdict:  {self.verdict}",
            f"classes:  {self.n_classes}"
            + (f" (group order {self.group_order})" if self.group_order else ""),
        ]
        for flag in sorted(self.flags):
            lines.append(f"flag:     {flag}")
        for i, cls in enumerate(self.classes):
            lines.append(f"  class {i}: {_class_text(cls)}")
        return "\n".join(lines)


def _class_text(cls: dict) -> str:
    if "curves" in cls:
        parts = []
        for name in sorted(cls["curves"]):
            data = cls["curves"][name]
            perm = ",".join(f"{a}->{b}" for a, b in sorted(data["perm"].items()))
            phases = ",".join(
                f"{a}:{data['phases'][a]:.4f}" for a in sorted(data["phases"])
            )
            parts.append(f"{name}[{perm}; {phases}]")
        return " ".join(parts)
    perm = cls.get("basis_perm")
    phases = cls.get("phases")
    free = cls.get("free_phases", 1)
    ptxt = ",".join(f"{a:.4f}" for a in phases) if phases else ""
    return f"perm={perm} phases=[{ptxt}] free={free}"


# ---------------------------------------------------------------------------
# Sphere classification


def classify_punctured_sphere(
    model: AnyonModel,
    surface: SurfaceSpec,
    mcg_words: list[str] | None = None,
    tol: float = DEFAULT_TOL,
) -> ClassificationReport:
    """Classify monomial gates on a punctured-sphere code space.

    The candidates come from per-curve cut-dimension-preserving label
    permutations and local basis-change phase sets; the supplied mapping
    class words (all elementary braids by default) then act as filters.
    What survives is grouped into classes modulo a global phase.  Option
    tuples, class arrays and candidate permutations are charged to one byte
    budget before they are filled (:class:`SearchBudgetError` past it).
    """
    check_tol(tol)
    if surface.kind != "punctured_sphere":
        raise ClassificationError("expected a punctured sphere surface")
    if mcg_words is None:
        mcg_words = [f"s{k}" for k in range(1, surface.punctures)]
    basis = enumerate_labelings(model, surface)
    name = model.name
    desc = surface.describe(model)
    if basis.dim == 0:
        raise InfeasibleSurfaceError(
            f"{desc} has an empty code space for model {name}"
        )
    if basis.dim == 1:
        return ClassificationReport(
            model=name,
            surface=desc,
            verdict="trivial",
            group_order=1,
            classes=Rows(1, {"basis_perm": np.zeros((1, 1), dtype=np.intp),
                             "phases": np.zeros((1, 1)), "free_phases": 1}),
            details={"reason": "code space has dimension <= 1"},
        )

    dap = standard_dap(surface)
    allowed = allowed_curve_permutations(model, surface, dap, basis)
    # Curve C_{s+1} carries slot s of every labeling; labels[s] lists the
    # labels occurring there in increasing order.
    n_curves = len(dap.curves)
    labels = [sorted({lab[s] for lab in basis.labelings}) for s in range(n_curves)]
    free = [s for s in range(n_curves) if len(labels[s]) > 1]

    def neighbors_fixed(s: int) -> bool:
        return all(len(labels[t]) == 1 for t in (s - 1, s + 1) if 0 <= t < n_curves)

    product_dim = math.prod(len(x) for x in labels)
    factorized = product_dim == basis.dim and all(neighbors_fixed(s) for s in free)

    flags: list[str] = []
    budget = Budget()

    if factorized:
        report_classes, details = _classify_factorized(
            model, surface, dap, allowed, labels, free, mcg_words, tol, budget
        )
        if surface.punctures == 4 and any(
            len(allowed[c]) > 1 for c in dap.curves
        ):
            flags.append(
                "four-puncture case: non-identity permutations excluded only "
                "by the supplied word list"
            )
    else:
        report_classes, details = _classify_delta(
            model, surface, basis, dap, allowed, mcg_words, tol, budget
        )
        if details["path"] == "fallback":
            flags.append("generic fallback path; result is an upper bound")

    if not len(report_classes):
        raise ClassificationError(_NO_CLASS.format(desc))
    verdict, order = _sphere_verdict(report_classes, details)
    return ClassificationReport(
        model=name,
        surface=desc,
        verdict=verdict,
        group_order=order,
        classes=report_classes,
        flags=flags,
        details=details,
    )


def _option_tuples(kept, curves, budget, stage, nbytes):
    """Every tuple of kept options of ``curves``, one per row, charged first."""
    budget.charge(stage, math.prod(len(kept[s]) for s in curves), nbytes)
    rows = list(itertools.product(*(kept[s] for s in curves)))
    return np.array(rows, dtype=np.intp).reshape(-1, len(curves))


def _product_action(curves, images, angles, combos):
    """Basis images and angle sums of product gates on the product of ``curves``.

    Row r of ``combos`` picks option ``combos[r, j]`` on curve ``curves[j]``,
    whose digit images and angles are rows of ``images[c]`` and ``angles[c]``.
    The product basis is lexicographic, so curve j's digit of index i is
    (i // stride_j) % size_j; angles add per curve in curve order from 0.0.
    """
    sizes = [images[c].shape[1] for c in curves]
    dim = math.prod(sizes)
    index = np.arange(dim)
    target = np.zeros((len(combos), dim), dtype=np.intp)
    angle = np.zeros((len(combos), dim))
    stride = dim
    for j, c in enumerate(curves):
        stride //= sizes[j]
        digit = (index // stride) % sizes[j]
        target += images[c][combos[:, j]][:, digit] * stride
        angle += angles[c][combos[:, j]][:, digit]
    return target, angle


def _window_matrix(model, surface, dap, labels, window, word):
    """A braid word on the slots in ``window``, the others held at their first label."""
    labelings = tuple(itertools.product(
        *(x if s in window else x[:1] for s, x in enumerate(labels))
    ))
    basis = BasisIndex(surface, dap, labelings, {l: i for i, l in enumerate(labelings)})
    return evaluate_on_basis(model, basis, word).matrix


def _classify_factorized(
    model, surface, dap, allowed, labels, free, mcg_words, tol, budget
):
    """Direct-product candidates from per-curve permutations and phases.

    Every free curve sits between single-label curves, so the basis is the
    product of the curve label sets and a candidate is a tensor product G of
    one monomial option per free curve.  A letter sigma_k acts on one slot
    with its two neighbors as context, so a word is V_W x I for its window W,
    the union of those three slots over its letters, and it keeps
    G = G_W x G_rest monomial exactly when V_W G_W V_W^dagger is monomial.
    Each word is checked once per tuple of kept options of the free curves
    in its window.  The survivors prune each curve's options, and a window
    with several free curves also leaves a relation that filters the
    products.  A window matrix that is already monomial vetoes nothing and
    is skipped.  The surviving products are ordered by ``json_order`` on the
    leaves of their classes, read from the option arrays.  The classes are
    ``Rows`` in that order, and each curve's column is categorical over its
    options' entry dicts, so classes with the same option share its entry.
    Curves with the same boundary share their phase sets, each solved once.
    """
    n_curves = len(labels)
    # Per free curve: each option's class entry, and its image digit and
    # angle for every digit of the curve.
    entries, images, angles = {}, {}, {}
    phase_set = functools.cache(lambda boundary, perm: iso_phase_set(model, boundary, perm, tol))
    for s in free:
        left = labels[s - 1][0] if s > 0 else None
        right = labels[s + 1][0] if s < n_curves - 1 else None
        boundary = curve_boundary(model, surface, s + 1, (left, right))
        digit = {a: d for d, a in enumerate(labels[s])}
        ent, img, ang = [], [], []
        for perm in allowed[dap.curves[s]]:
            iso = phase_set(boundary, perm)
            pmap = dict(perm)
            for f in iso.phase_functions:
                fmap = dict(zip(iso.curve_labels, f))
                ent.append({"perm": {model.labels[a]: model.labels[b] for a, b in perm},
                            "phases": {model.labels[a]: v for a, v in fmap.items()}})
                img.append([digit[pmap[a]] for a in labels[s]])
                ang.append([fmap[a] for a in labels[s]])
        entries[s] = ent
        images[s] = np.array(img, dtype=np.intp).reshape(-1, len(labels[s]))
        angles[s] = np.array(ang).reshape(-1, len(labels[s]))

    kept = {s: list(range(len(entries[s]))) for s in free}
    relations = []  # (columns of free curves, table over their option tuples)
    for word in mcg_words:
        letters = braid_letters(surface, word)
        slots = {braid_slot(surface.punctures, k) for k, _ in letters}
        window = {t for p in slots for t in (p - 1, p, p + 1) if 0 <= t < n_curves}
        v = _window_matrix(model, surface, dap, labels, window, word)
        if monomial_mask(v[None], factor_unit_modulus_tol(tol), WINDOW_ZERO_THRESHOLD)[0]:
            continue
        curves = [s for s in free if s in window]
        # a tuple's conjugate is one complex window matrix
        tuples = _option_tuples(kept, curves, budget, f"word {word!r}: option tuples", 16 * v.size)
        target, angle = _product_action(curves, images, angles, tuples)
        ok = np.empty(len(tuples), dtype=bool)
        step = chunk_rows(16 * v.size)
        for lo in range(0, len(tuples), step):
            # (V G)[i, c] = V[i, target[c]] * phase[c] for G[target[c], c] = phase[c]
            vg = np.swapaxes(v.T[target[lo:lo + step]], 1, 2)
            vg *= np.exp(1j * angle[lo:lo + step])[:, None, :]
            ok[lo:lo + step] = monomial_mask(
                vg @ v.conj().T, unit_modulus_tol(tol), ZERO_THRESHOLD
            )
        survivors = tuples[ok]
        if not len(survivors):  # also covers a window without free curves
            kept = {s: [] for s in free}
        for j, s in enumerate(curves):
            kept[s] = np.flatnonzero(np.bincount(survivors[:, j])).tolist()
        if len(curves) > 1:
            table = np.zeros([len(entries[s]) for s in curves], dtype=bool)
            table[tuple(survivors.T)] = True
            relations.append(([free.index(s) for s in curves], table))

    dim = math.prod(len(x) for x in labels)
    # per class and index: image, angle, phase, complex phase, sorted copies
    combos = _option_tuples(kept, free, budget, "classes", 64 * dim)
    for cols, table in relations:
        combos = combos[table[tuple(combos[:, cols].T)]]
    target, angle = _product_action(free, images, angles, combos)
    phases = np.angle(np.exp(1j * angle))
    # The leaves of a class's compact JSON: its basis images, then per curve
    # in name order the image names and the angles of its options' "perm"
    # and "phases", label names in sorted order, then its phases.
    blocks = [target]
    for j, s in sorted(enumerate(free), key=lambda js: dap.curves[js[1]]):
        names = [model.labels[a] for a in labels[s]]
        keys = sorted(range(len(names)), key=names.__getitem__)
        option = combos[:, j]
        blocks.append(np.array(names)[images[s][option][:, keys]])
        blocks.append(angles[s][option][:, keys])
    blocks.append(phases)
    order, columns = json_order(*blocks, closers="]" + "}" * (len(blocks) - 2) + "]")
    n = len(order)
    curves = {dap.curves[s]: Category(combos[order, j], entries[s]) for j, s in enumerate(free)}
    classes = Rows(n, {"basis_perm": columns[0], "curves": Rows(n, curves),
                       "phases": columns[-1]})
    details = {
        "path": "factorized",
        "free_curves": [dap.curves[s] for s in free],
        "candidates_per_curve": {dap.curves[s]: len(entries[s]) for s in free},
    }
    return classes, details


def _classify_delta(model, surface, basis, dap, allowed, mcg_words, tol, budget):
    """Intersect the words' delta sets over the products of curve permutations.

    The candidates are the products of allowed per-curve label permutations
    that map the basis onto itself.  When every curve allows the identity
    alone, the identity is the one candidate and the classes are the exact
    diagonal gates; otherwise they bound the gates from above.  Every word
    is evaluated on ``basis``.
    """
    maps = [[dict(p) for p in allowed[c]] for c in dap.curves]
    count = math.prod(len(m) for m in maps)
    # per product and index: its image, lookup key and candidate array entry
    budget.charge("curve permutation products", count, 24 * basis.dim)
    cands = set()
    for combo in itertools.product(*maps):
        perm = tuple(
            basis.index.get(tuple(m[x] for m, x in zip(combo, lab)))
            for lab in basis.labelings
        )
        if None not in perm and len(set(perm)) == basis.dim:
            cands.add(perm)
    cands = sorted(cands)
    sets = [
        delta_set(model, surface, w, restrict_perms=cands, tol=tol, basis=basis)
        for w in mcg_words
    ]
    inter = intersect_delta(sets)
    classes, _ = _family_classes(inter)
    if count == 1:
        return classes, {"path": "diagonal", "families": len(inter)}
    return classes, {"path": "fallback", "candidate_perms": len(cands)}


def _family_classes(inter: DeltaSet) -> tuple[Rows, np.ndarray]:
    """Classes of a delta set's families in the order of their compact
    JSON, and the families' instantiated phases, one row per family in set
    order.

    One batched instantiate and one np.angle over all families give the
    same floats as one call per family.  Every class has the same
    ``free_phases``, so ``json_order`` ranks the permutation rows and then
    the angle rows.
    """
    phases = inter.instantiate_families()
    angles = np.angle(phases)
    order, (perms, rows) = json_order(inter.perms, angles, closers="]]")
    classes = Rows(len(order), {"basis_perm": perms, "phases": rows,
                                "free_phases": inter.n_free})
    return classes, phases


def _is_trivial(classes: Rows) -> bool:
    """One class, the identity permutation with all phases equal to the
    first within ``TRIVIAL_PHASE_TOL``: the gate is a global phase."""
    if len(classes) != 1:
        return False
    perm, phases = (np.array(classes[0][key]) for key in ("basis_perm", "phases"))
    return bool(
        np.array_equal(perm, np.arange(len(perm)))
        and np.all(np.abs(phases - phases[0]) < TRIVIAL_PHASE_TOL)
    )


def _sphere_verdict(classes: Rows, details):
    """Name the classified group when it matches a known pattern."""
    n_cls = len(classes)
    if classes.columns.get("free_phases", 1) > 1:
        return "upper_bound_only", None
    if _is_trivial(classes):
        return "trivial", 1
    if details.get("path") == "factorized" and _classes_are_pauli(classes):
        return "pauli_group", n_cls
    if details.get("path") == "fallback":
        return "upper_bound_only", n_cls
    return "finite_group", n_cls


def _classes_are_pauli(classes: Rows) -> bool:
    """Every curve is a qubit (two labels) acted on by 1, Z, X or XZ up to phase.

    Only the class data is read, so a model is recognised by its structure,
    not by the names or the order of its labels.  Each curve's column holds
    its options' entry dicts, and each option some class takes is checked
    once.
    """
    curves = classes.columns["curves"].columns.values()
    options = [col.values[k] for col in curves for k in np.flatnonzero(np.bincount(col.codes))]
    for data in options:
        if len(data["phases"]) != 2:
            return False
        for v in data["phases"].values():
            r = v % (2.0 * np.pi)
            if min(r, abs(r - np.pi), abs(r - 2.0 * np.pi)) > PAULI_ANGLE_TOL:
                return False
    return True


# ---------------------------------------------------------------------------
# Torus classification


def classify_torus(
    model: AnyonModel,
    mcg_words: list[str] | None = None,
    tol: float = DEFAULT_TOL,
) -> ClassificationReport:
    """Classify monomial gates compatible with the given torus words.

    Abelian models route all single-s words together through the
    closed-form character enumeration (complete at any dimension), which
    joins them once per automorphism alpha = T_{pi(0)}^-1 pi: every affine
    map T_c alpha keeps what alpha keeps.  Its result takes the place of
    the first such word among the delta sets that are intersected.  Every
    other word uses the wildcard solver, which refuses a search over its
    budget with a SearchBudgetError.  An abelian model's word then searches
    the affine permutations only, flagged as an upper bound when those are
    fewer than all n! permutations.  Families are reported modulo a global
    phase.  When an abelian model's families are rigid, every class is
    decided for Clifford-star membership, so
    ``details["clifford_star_checked"]`` equals the class count.  With a
    closed-form set among the intersected ones, the classes of one
    automorphism differ only by strings, so one class per automorphism and
    one per translation are checked and the rest take their automorphism's
    flag (``clifford_star_by_automorphism``); otherwise every class is
    checked.
    """
    check_tol(tol)
    if mcg_words is None:
        mcg_words = ["s", "st"]
    surface = SurfaceSpec(kind="torus")
    n = model.n_labels
    abel = _ab.is_abelian(model)
    flags: list[str] = []
    details: dict = {"words": list(mcg_words)}

    sets: list[DeltaSet] = []
    closed_words: list[str] = []
    closed_at = 0
    for word in mcg_words:
        if abel and _ab.word_is_unconstraining(model, word):
            details.setdefault("unconstraining_words", []).append(word)
            continue
        if abel and _ab.torus_word_supported(model, word):
            if not closed_words:
                closed_at = len(sets)
            closed_words.append(word)
        else:
            try:
                sets.append(delta_set(model, surface, word, tol=tol))
            except SearchBudgetError:
                if not abel:
                    raise
                perms = _ab.affine_maps(model, Budget())
                sets.append(
                    delta_set(
                        model, surface, word,
                        restrict_perms=perms, restrict_perms_out=perms, tol=tol,
                    )
                )
                if len(perms) < math.factorial(n):
                    flags.append(
                        f"word {word!r}: permutations restricted to affine maps; "
                        "result is an upper bound"
                    )
    if closed_words:
        # Intersection order decides which coset a class keeps, down to the
        # sign of an angle at pi, so the joined set takes the first
        # single-s word's place.
        sets.insert(closed_at, _ab.torus_word_families(model, closed_words, tol=tol))
    if not sets:
        raise ClassificationError("no constraining words given")
    inter = intersect_delta(sets)

    classes, phases = _family_classes(inter)
    rigid = inter.n_free == 1
    if not len(classes):
        raise ClassificationError(_NO_CLASS.format(surface.describe(model)))

    verdict, order = "upper_bound_only", None
    if not rigid:
        flags.append("some families keep more than one free phase")
    elif _is_trivial(classes):
        verdict, order = "trivial", 1
    if verdict == "upper_bound_only" and rigid and abel:
        contains = _contains_logical_paulis(model, inter)
        if closed_words:
            member = _ab.clifford_star_by_automorphism(model, inter.perms, phases)
        else:
            member, _ = _ab.clifford_star_batch(model, inter.perms, phases)
        all_passed = bool(member.all())
        details["contains_logical_paulis"] = contains
        details["clifford_star_checked"] = len(member)
        if contains and all_passed:
            verdict, order = "clifford_star_subgroup", len(classes)
        else:
            verdict, order = "finite_group", len(classes)
        if not all_passed:
            flags.append("a family representative left the Clifford-star set")
    elif verdict == "upper_bound_only" and rigid:
        order = len(classes)
        flags.append("finite family list; no matching structure theorem applied")

    return ClassificationReport(
        model=model.name,
        surface=surface.describe(model),
        verdict=verdict,
        group_order=order,
        classes=classes,
        flags=flags,
        details=details,
    )


def _contains_logical_paulis(model, inter: DeltaSet) -> bool:
    """Every string operator on either cycle lies in some family.

    The strings are read first, so a model whose S columns are no
    monomials raises their ValueError; then all 2n strings are tested
    against the families of their permutations at once
    (``DeltaSet.contains_each``).  The strings' permutations are
    permutations of the labels, so they are given in the set's dtype.
    """
    perms, phases = _ab.string_operators(model)
    return bool(inter.contains_each(perms.astype(inter.perms.dtype), phases).all())


def classify(
    model: AnyonModel,
    surface: SurfaceSpec,
    mcg_words: list[str] | None = None,
    tol: float = DEFAULT_TOL,
) -> ClassificationReport:
    """Dispatch on surface kind."""
    check_tol(tol)
    if surface.kind == "torus":
        return classify_torus(model, mcg_words, tol)
    return classify_punctured_sphere(model, surface, mcg_words, tol)
