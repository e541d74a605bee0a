"""Classification of monomial logical gates on torus and sphere code spaces.

The pipeline mirrors how the constraints localize.  Curve by curve, a gate
must permute the fusion labels of each decomposition curve while preserving
the dimensions of the cut surfaces; a local basis change around one curve
then pins the per-label phases to a finite set; finally the mapping class
group words veto any combination whose conjugated gate stops being
monomial.  The per-curve offsets that a global phase convention introduces
cancel in differences, so phase functions are always reported normalized to
zero on the first label.

Three execution paths cover the built-in models:

* factorized path: every multi-label curve is isolated between
  single-label curves, so candidate gates are direct products of per-curve
  (permutation, phase function) choices; used for the Ising spheres, where
  the result is the Pauli group on the encoded qubits, and for 4-punctured
  spheres.  A braid generator sigma_k acts on one curve's slot only, so each
  one-letter word is checked once per curve option on that curve's local
  block, and the survivors are the product of the per-curve survivor lists;
  no dim x dim matrix is built unless a word has more than one letter, in
  which case that word conjugates each surviving product densely.
* diagonal path: when only identity curve permutations survive the
  dimension-profile test, gates are diagonal and the word constraints
  collapse them to one phase per label equivalence class.
* closed-form abelian torus path: the abelian module lists the families
  of every single-s word in one pass over the affine permutations, and every
  resulting class is checked for Clifford-star membership from its
  permutation and phases.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import abelian as _ab
from .jsonwriter import dumps, sort_by_json
from .mcg import braid_letters, braid_slot, evaluate_word, local_braid_block
from .models import AnyonModel
from .solver import (
    DeltaSet,
    delta_set,
    intersect_delta,
    is_monomial,
    monomial_from_matrix,
    solve_intertwiner,
)
from .surfaces import (
    DapDecomposition,
    InfeasibleSurfaceError,
    SurfaceSpec,
    cut_dimensions,
    enumerate_labelings,
    standard_dap,
)
from .tolerances import DEFAULT_TOL, PAULI_ANGLE_TOL, TRIVIAL_PHASE_TOL, check_tol

VERDICTS = (
    "trivial",
    "pauli_group",
    "clifford_star_subgroup",
    "finite_group",
    "upper_bound_only",
)

_FALLBACK_PERM_CAP = 4096

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
) -> dict[str, list[tuple[tuple[int, int], ...]]]:
    """Per curve, the label bijections preserving all cut dimensions.

    Each permutation is returned as a sorted tuple of (label, image) pairs
    over the labels that actually occur on that curve.  A valid gate must
    act on curve labels by such a bijection: cutting along the curve splits
    the space into flux sectors whose dimensions the gate cannot change.
    """
    if dap is None:
        dap = standard_dap(surface)
    out: dict[str, list[tuple[tuple[int, int], ...]]] = {}
    for curve in dap.curves:
        counts = cut_dimensions(model, surface, dap, curve)
        occurring = sorted(a for a, c in counts.items() if c > 0)
        perms = []
        for images in itertools.permutations(occurring):
            if all(counts[a] == counts[b] for a, b in zip(occurring, images)):
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
    targets: tuple[int, int, int, int]
    curve_labels: tuple[int, ...]
    perm: tuple[tuple[int, int], ...]
    phase_functions: tuple[tuple[float, ...], ...]


def iso_phase_set(
    model: AnyonModel,
    boundary: tuple[int, int, int, int],
    targets: tuple[int, int, int, int] | None = None,
    perm: tuple[tuple[int, int], ...] | None = None,
    tol: float = DEFAULT_TOL,
) -> IsoPhaseSet:
    """Phases a gate may attach to curve labels, fixed curve permutation.

    The curve's labels are the middle fusion channels of the local 4-holed
    sphere; transporting the gate through the basis change that regroups
    the punctures must again give a monomial matrix, which quantizes the
    relative phases.  The returned functions are the complete solution set.
    """
    if targets is None:
        targets = boundary
    rows, _, block = model.fmove_block(*boundary)
    rows_t, _, block_t = model.fmove_block(*targets)
    if not rows:
        raise ClassificationError(f"no fusion channels for boundary {boundary}")
    if perm is None:
        perm = tuple((a, a) for a in rows)
    pmap = dict(perm)
    if sorted(pmap) != list(rows) or sorted(pmap.values()) != list(rows_t):
        raise ClassificationError(
            f"permutation {perm} does not map channels {rows} onto {rows_t}"
        )
    pos_t = {a: i for i, a in enumerate(rows_t)}
    basis_perm = tuple(pos_t[pmap[a]] for a in rows)
    # Coefficient transform: the block maps row-channel kets to column-channel
    # kets, so coordinates transform by the transpose.
    sols = solve_intertwiner(
        block.T, perm_in=[basis_perm], v_out=block_t.T, tol=tol
    )
    funcs = []
    for s in sols:
        d, _ = s.instantiate()
        ang = np.angle(d / d[0])
        funcs.append(tuple(float(a) for a in np.mod(ang, 2.0 * np.pi)))
    return IsoPhaseSet(
        boundary=tuple(boundary),
        targets=tuple(targets),
        curve_labels=rows,
        perm=perm,
        phase_functions=tuple(sorted(set(funcs))),
    )


# ---------------------------------------------------------------------------
# Reports


@dataclass
class ClassificationReport:
    model: str
    surface: str
    verdict: str
    group_order: int | None
    classes: list[dict]
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


def _word_list_for_sphere(surface: SurfaceSpec) -> list[str]:
    return [f"s{k}" for k in range(1, surface.punctures)]


def _survives_words(
    gate: np.ndarray,
    word_matrices: list[np.ndarray],
    tol: float,
) -> bool:
    """Transporting the gate through every word must keep it monomial."""
    for v in word_matrices:
        if not is_monomial(v @ gate @ v.conj().T, tol):
            return False
    return True


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
    What survives is grouped into classes modulo a global phase.
    """
    check_tol(tol)
    if surface.kind != "punctured_sphere":
        raise ClassificationError("expected a punctured sphere surface")
    if mcg_words is None:
        mcg_words = _word_list_for_sphere(surface)
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
            classes=[{"basis_perm": list(range(basis.dim)),
                      "phases": [0.0] * basis.dim, "free_phases": 1}],
            details={"reason": "code space has dimension <= 1"},
        )

    dap = standard_dap(surface)
    allowed = allowed_curve_permutations(model, surface, dap)
    # Curve C_{s+1} carries slot s of every labeling; labels[s] lists the
    # labels occurring there in increasing order.
    n_curves = len(dap.curves)
    labels = [sorted({lab[s] for lab in basis.labelings}) for s in range(n_curves)]
    free = [s for s in range(n_curves) if len(labels[s]) > 1]

    def neighbors_fixed(s: int) -> bool:
        return all(len(labels[t]) == 1 for t in (s - 1, s + 1) if 0 <= t < n_curves)

    product_dim = math.prod(len(x) for x in labels)
    factorized = product_dim == basis.dim and all(neighbors_fixed(s) for s in free)
    identity_only = all(
        len(allowed[c]) == 1 and all(a == b for a, b in allowed[c][0])
        for c in dap.curves
    )

    flags: list[str] = []

    if factorized:
        report_classes, details = _classify_factorized(
            model, surface, dap, allowed, labels, free, mcg_words, tol
        )
        if surface.punctures == 4 and any(
            len(allowed[c]) > 1 for c in dap.curves
        ):
            flags.append(
                "four-puncture case: non-identity permutations excluded only "
                "by the supplied word list"
            )
    elif identity_only:
        report_classes, details = _classify_diagonal(
            model, surface, basis, mcg_words, tol
        )
    else:
        report_classes, details = _classify_fallback(
            model, surface, basis, dap, allowed, mcg_words, tol
        )
        flags.append("generic fallback path; result is an upper bound")

    if not report_classes:
        raise ClassificationError(_NO_CLASS.format(desc))
    verdict, order = _sphere_verdict(
        model, surface, basis, report_classes, details, flags
    )
    return ClassificationReport(
        model=name,
        surface=desc,
        verdict=verdict,
        group_order=order,
        classes=report_classes,
        flags=flags,
        details=details,
    )


def _generator_blocks(model, surface, labels, k):
    """The slot sigma_k acts on and its local matrices, one per context.

    On a product basis sigma_k is the identity off one slot, so it acts by
    the local block of each neighbor context that occurs there; a slot with
    one label gets 1 x 1 blocks.
    """
    z = surface.boundary_labels[0]
    slot = braid_slot(surface.punctures, k)
    lefts = labels[slot - 1] if slot > 0 else [z]
    rights = labels[slot + 1] if slot < len(labels) - 1 else [model.dual[z]]
    blocks = []
    for a, b in itertools.product(lefts, rights):
        rows, mat = local_braid_block(model, z, surface.punctures, k, a, b)
        if list(rows) != labels[slot]:
            raise AssertionError(
                f"slot {slot} labels {labels[slot]} disagree with the braid "
                f"block channels {list(rows)} in context {(a, b)}"
            )
        blocks.append(mat)
    return slot, blocks


def _classify_factorized(
    model, surface, dap, allowed, labels, free, mcg_words, tol
):
    """Direct-product candidates from per-curve permutations and phases.

    Every free curve sits between single-label curves, so the basis is the
    product of the curve label sets and a candidate is a tensor product of
    one monomial option per free curve.  A one-letter word acts on a single
    slot (see ``_generator_blocks``), and conjugating a tensor product of
    monomials changes entry moduli only in that slot's factor: a candidate
    survives the word exactly when its option there keeps every local block
    monomial.  Those words are therefore checked once per curve option, and
    the survivors are the product of the per-curve survivor lists.  Longer
    words conjugate each surviving product densely.
    """
    n_curves = len(labels)
    # Per slot: options as (class entry, permutation and angles by digit,
    # local gate); a slot with one label has the single identity option.
    options: list[list] = []
    for s in range(n_curves):
        if s not in free:
            options.append([(None, [0], [0.0], np.ones((1, 1), dtype=np.complex128))])
            continue
        left = labels[s - 1][0] if s > 0 else None
        right = labels[s + 1][0] if s < n_curves - 1 else None
        boundary = curve_boundary(model, surface, s + 1, (left, right))
        digit = {a: d for d, a in enumerate(labels[s])}
        opts = []
        for perm in allowed[dap.curves[s]]:
            iso = iso_phase_set(model, boundary, None, perm, tol)
            pmap = dict(perm)
            for f in iso.phase_functions:
                fmap = dict(zip(iso.curve_labels, f))
                entry = {
                    "perm": {model.labels[a]: model.labels[b] for a, b in perm},
                    "phases": {
                        model.labels[a]: float(v) for a, v in zip(iso.curve_labels, f)
                    },
                }
                images = [digit[pmap[a]] for a in labels[s]]
                angles = [fmap[a] for a in labels[s]]
                local = np.zeros((len(images), len(images)), dtype=np.complex128)
                local[images, range(len(images))] = np.exp(1j * np.array(angles))
                opts.append((entry, images, angles, local))
        options.append(opts)

    kept = [list(range(len(opts))) for opts in options]
    dense_words = []
    for word in mcg_words:
        letters = braid_letters(surface, word)
        if len(letters) != 1:
            dense_words.append(word)
            continue
        ((k, sign),) = letters
        slot, blocks = _generator_blocks(model, surface, labels, k)
        for blk in blocks:
            if sign < 0:
                blk = blk.conj().T
            kept[slot] = [
                i for i in kept[slot]
                if is_monomial(blk @ options[slot][i][3] @ blk.conj().T, tol)
            ]

    # Mixed-radix arithmetic over the product basis, which enumerate_labelings
    # lists in lexicographic order: slot s of basis index i has digit
    # (i // stride_s) % size_s.  Angles add per free curve in curve order.
    sizes = [len(x) for x in labels]
    dim = math.prod(sizes)
    strides = [math.prod(sizes[s + 1:]) for s in range(n_curves)]
    combos = np.array(
        list(itertools.product(*(kept[s] for s in range(n_curves)))),
        dtype=np.intp,
    ).reshape(-1, n_curves)
    index = np.arange(dim)
    target = np.zeros((len(combos), dim), dtype=np.intp)
    angle = np.zeros((len(combos), dim))
    for s in free:
        digit = (index // strides[s]) % sizes[s]
        perm_tab = np.array(
            [images for _, images, _, _ in options[s]], dtype=np.intp
        ).reshape(-1, sizes[s])
        angle_tab = np.array([angles for _, _, angles, _ in options[s]]).reshape(-1, sizes[s])
        target += perm_tab[combos[:, s]][:, digit] * strides[s]
        angle += angle_tab[combos[:, s]][:, digit]
    gate_phases = np.exp(1j * angle)

    survivors = range(len(combos))
    if dense_words:
        word_matrices = [evaluate_word(model, surface, w).matrix for w in dense_words]
        gate = np.zeros((dim, dim), dtype=np.complex128)
        dense_kept = []
        for r in survivors:
            gate[:] = 0.0
            gate[target[r], index] = gate_phases[r]
            if _survives_words(gate, word_matrices, tol):
                dense_kept.append(r)
        survivors = dense_kept

    phases = np.angle(gate_phases)
    classes = []
    for r in survivors:
        # Classes with the same option on a curve share its entry dict.
        entry = {
            "curves": {dap.curves[s]: options[s][combos[r, s]][0] for s in free}
        }
        entry["basis_perm"] = target[r].tolist()
        entry["phases"] = phases[r].tolist()
        classes.append(entry)
    sort_by_json(classes)
    details = {
        "path": "factorized",
        "free_curves": [dap.curves[s] for s in free],
        "candidates_per_curve": {dap.curves[s]: len(options[s]) for s in free},
    }
    return classes, details


def _classify_diagonal(model, surface, basis, mcg_words, tol):
    """Identity curve permutations: intersect diagonal-gate delta sets."""
    ident = [tuple(range(basis.dim))]
    sets = [
        delta_set(model, surface, w, restrict_perms=ident, tol=tol)
        for w in mcg_words
    ]
    inter = intersect_delta(sets)
    classes, _ = _family_classes(inter.families, basis.dim)
    details = {"path": "diagonal", "families": len(inter.families)}
    return classes, details


def _classify_fallback(model, surface, basis, dap, allowed, mcg_words, tol):
    """Products of per-curve permutations as explicit basis candidates."""
    per_curve_maps = []
    for cname in dap.curves:
        per_curve_maps.append([dict(p) for p in allowed[cname]])
    count = int(np.prod([len(x) for x in per_curve_maps]))
    if count > _FALLBACK_PERM_CAP:
        raise ClassificationError(
            f"{count} candidate permutations exceeds the search cap"
        )
    cand = set()
    for combo in itertools.product(*per_curve_maps):
        perm = []
        ok = True
        for lab in basis.labelings:
            target = tuple(combo[k][lab[k]] for k in range(len(lab)))
            if target not in basis.index:
                ok = False
                break
            perm.append(basis.index[target])
        if ok and sorted(perm) == list(range(basis.dim)):
            cand.add(tuple(perm))
    sets = [
        delta_set(model, surface, w, restrict_perms=sorted(cand), tol=tol)
        for w in mcg_words
    ]
    inter = intersect_delta(sets)
    classes, _ = _family_classes(inter.families, basis.dim)
    details = {"path": "fallback", "candidate_perms": len(cand)}
    return classes, details


def _family_classes(families, dim: int) -> tuple[list[dict], list[np.ndarray]]:
    """Sorted class dicts of gate families, and each family's instantiated phases.

    One np.angle over all families gives the same floats as one call per
    entry.
    """
    phases = [fam.coset.instantiate() for fam in families]
    angles = np.angle(np.array(phases, dtype=np.complex128).reshape(len(phases), dim))
    classes = [
        {"basis_perm": list(fam.perm), "phases": row, "free_phases": fam.n_free}
        for fam, row in zip(families, angles.tolist())
    ]
    sort_by_json(classes)
    return classes, phases


def _sphere_verdict(model, surface, basis, classes, details, flags):
    """Name the classified group when it matches a known pattern."""
    n_cls = len(classes)
    if any(c.get("free_phases", 1) > 1 for c in classes):
        return "upper_bound_only", None
    if n_cls == 1:
        only = classes[0]
        diag = "basis_perm" not in only or only["basis_perm"] == list(
            range(len(only["basis_perm"]))
        )
        if diag:
            return "trivial", 1
    if details.get("path") == "factorized" and _classes_are_pauli(classes):
        return "pauli_group", n_cls
    if details.get("path") == "fallback":
        return "upper_bound_only", n_cls
    return "finite_group", n_cls


def _classes_are_pauli(classes) -> bool:
    """Every curve is a qubit (two labels) acted on by 1, Z, X or XZ up to phase.

    Only the class data is read, so a model is recognised by its structure,
    not by the names or the order of its labels.
    """
    for cls in classes:
        for data in cls.get("curves", {}).values():
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
    joins them per affine permutation; its result takes the place of the
    first such word among the delta sets that are intersected.  Other words
    and models use the wildcard solver, which needs the label count to stay
    at most 8.  Families are reported modulo a global phase.  When an
    abelian model's families are rigid, every class is checked for
    Clifford-star membership, so ``details["clifford_star_checked"]`` equals
    the class count.
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
        elif n <= 8:
            sets.append(delta_set(model, surface, word, tol=tol))
        elif abel:
            perms = _ab.affine_permutations(model)
            sets.append(
                delta_set(
                    model, surface, word,
                    restrict_perms=perms, restrict_perms_out=perms, tol=tol,
                )
            )
            flags.append(
                f"word {word!r}: permutations restricted to affine maps; "
                "result is an upper bound"
            )
        else:
            raise ClassificationError(
                f"cannot search {n} labels for word {word!r}: "
                "not abelian and beyond the wildcard limit"
            )
    if closed_words:
        # Intersection order decides which coset a class keeps, down to the
        # sign of an angle at pi, so the joined set takes the first
        # single-s word's place.
        fams = _ab.torus_word_families(model, closed_words, tol=tol)
        closed = DeltaSet(dim=n, families=fams)
        sets.insert(closed_at, closed)
    if not sets:
        raise ClassificationError("no constraining words given")
    inter = intersect_delta(sets)

    classes, phases = _family_classes(inter.families, n)
    rigid = all(fam.n_free == 1 for fam in inter.families)
    if not classes:
        raise ClassificationError(_NO_CLASS.format(surface.describe(model)))

    verdict, order = "upper_bound_only", None
    if not rigid:
        flags.append("some families keep more than one free phase")
    elif len(classes) == 1 and classes[0]["basis_perm"] == list(range(n)):
        ph = classes[0]["phases"]
        if max(abs(p - ph[0]) for p in ph) < TRIVIAL_PHASE_TOL:
            verdict, order = "trivial", 1
    if verdict == "upper_bound_only" and rigid and abel:
        contains = _contains_logical_paulis(model, inter)
        member, _ = _ab.clifford_star_batch(
            model, [fam.perm for fam in inter.families], phases
        )
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

    A gate can only lie in a family with its permutation, so each string is
    tested against the families of its permutation alone.
    """
    by_perm: dict[tuple[int, ...], list] = {}
    for fam in inter.families:
        by_perm.setdefault(fam.perm, []).append(fam)
    f1, f2 = _ab.string_operator_matrices(model)
    gates = (monomial_from_matrix(f[a]) for a in range(model.n_labels) for f in (f1, f2))
    return all(
        any(fam.contains(gate) for fam in by_perm.get(gate.perm, ())) for gate in gates
    )


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
