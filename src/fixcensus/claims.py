"""Registry of encoded fixed-point counting claims and their checker.

Each claim predicts the exact fixed-point count of z -> z^d + c on
F_{p^n} from the residue class of c alone, for one family of degrees and
one slice of (p, n, ell).  The checker takes a claim at face value and
judges every residue of the field against the prediction, read from one
count_profile per family and grid point (the linear engine for d = p^ell,
a scan otherwise): a mismatch is data, reported as a witness, never
repaired.  Claims whose statements rest on an auxiliary hypothesis are
flagged conditional, and their failures are expected output, not bugs.

Residues outside a claim's stated classes are never judged; their observed
counts are reported separately as informational material.
"""

from __future__ import annotations

import functools
import math
from collections import Counter
from collections.abc import Iterable
from itertools import compress, islice
from typing import NamedTuple

from . import dynamics, ff
from .dynamics import DEFAULT_EXP_CAP, Family
from .ff import DEFAULT_FIELD_CAP, ArgumentError, CapError, _Label

__all__ = [
    "Verdict",
    "Witness",
    "PointResult",
    "ClaimSpec",
    "ClaimReport",
    "registry",
    "check_point",
    "check_all",
]


class Verdict(_Label):
    HOLDS = "HOLDS"
    FAILS = "FAILS"
    NOT_APPLICABLE = "NOT-APPLICABLE"
    SKIPPED = "SKIPPED"


class Witness(NamedTuple):
    """One concrete counterexample: a coefficient and both counts."""

    c: ff.FFElement
    predicted: int
    actual: int

    def as_dict(self) -> dict:
        return {"c": str(self.c), "predicted": self.predicted, "actual": self.actual}


class PointResult(NamedTuple):
    """Outcome of one claim at one grid point (p, n, ell)."""

    p: int
    n: int
    ell: int
    status: Verdict
    witnesses: tuple[Witness, ...] = ()
    # (observed count, how many unjudged residues showed it), sorted
    unspecified_counts: tuple[tuple[int, int], ...] = ()
    note: str = ""

    def as_dict(self) -> dict:
        out = {
            "p": self.p,
            "n": self.n,
            "ell": self.ell,
            "status": self.status.value,
            "witnesses": [w.as_dict() for w in self.witnesses],
        }
        if self.unspecified_counts:
            out["unspecified"] = {str(k): v for k, v in self.unspecified_counts}
        if self.note:
            out["note"] = self.note
        return out


class ClaimSpec(NamedTuple):
    """One counting claim: applicability slice plus per-class predictions.

    predictions maps residue classes to exact counts.  For the prime-power
    family the classes are "0" and "nonzero"; for the pminus1 family they
    are "0", "1" and "-1", with everything else unjudged.  The slice is
    three inclusive (lo, hi) ranges for p, n and ell.
    """

    id: str
    family: Family
    statement: str
    conditional: bool
    predictions: tuple[tuple[str, int], ...]
    p_range: tuple[int, float] = (2, math.inf)
    n_range: tuple[int, float] = (1, math.inf)
    ell_range: tuple[int, float] = (1, math.inf)

    def applies(self, p: int, n: int, ell: int) -> bool:
        ranges = (self.p_range, self.n_range, self.ell_range)
        return all(lo <= v <= hi for v, (lo, hi) in zip((p, n, ell), ranges))

    def expected(self, label: str) -> int | None:
        """The predicted count for a census label (see classify_residue),
        or None when the claim does not judge that label; the class
        "nonzero" covers every label but "0"."""
        for key, count in self.predictions:
            if key == label or (key == "nonzero" and label != "0"):
                return count
        return None


class ClaimReport(NamedTuple):
    claim: ClaimSpec
    points: tuple[PointResult, ...]

    def as_dict(self) -> dict:
        return {
            "claim": self.claim.id,
            "statement": self.claim.statement,
            "conditional": self.claim.conditional,
            "family": self.claim.family.value,
            "classes_checked": [k for k, _ in self.claim.predictions],
            "grid": [pt.as_dict() for pt in self.points],
        }


_N_PREDICTIONS = (("0", 3), ("nonzero", 0))
_M_PREDICTIONS = (("0", 2), ("1", 1), ("-1", 0))

_REGISTRY: tuple[ClaimSpec, ...] = (
    ClaimSpec(
        id="C-2.1",
        family=Family.PRIME_POWER,
        statement=(
            "degree-p map at p = 3 on extensions of degree n >= 2: "
            "3 fixed points when c is in the zero class, otherwise none"
        ),
        conditional=False,
        predictions=_N_PREDICTIONS,
        p_range=(3, 3),
        n_range=(2, math.inf),
        ell_range=(1, 1),
    ),
    ClaimSpec(
        id="C-2.2",
        family=Family.PRIME_POWER,
        statement=(
            "degree-p map, any odd prime p, extensions of degree n >= 2: "
            "3 fixed points when c is in the zero class, otherwise none"
        ),
        conditional=True,
        predictions=_N_PREDICTIONS,
        p_range=(3, math.inf),
        n_range=(2, math.inf),
        ell_range=(1, 1),
    ),
    ClaimSpec(
        id="C-2.3",
        family=Family.PRIME_POWER,
        statement=(
            "degree-p^ell map, any odd prime p and ell >= 1, extensions of "
            "degree n >= 2: 3 fixed points when c is in the zero class, "
            "otherwise none"
        ),
        conditional=True,
        predictions=_N_PREDICTIONS,
        p_range=(3, math.inf),
        n_range=(2, math.inf),
    ),
    ClaimSpec(
        id="C-2.4",
        family=Family.PRIME_POWER,
        statement=(
            "degree-p^ell map on the prime field itself (n = 1), any odd "
            "prime p: 3 fixed points when p divides c, otherwise none"
        ),
        conditional=True,
        predictions=_N_PREDICTIONS,
        p_range=(3, math.inf),
        n_range=(1, 1),
    ),
    ClaimSpec(
        id="C-3.1",
        family=Family.P_MINUS_ONE,
        statement=(
            "degree-4 map at p = 5 on extensions of degree n >= 2: "
            "2 fixed points on the zero class, 1 on the one class, "
            "0 on the minus-one class"
        ),
        conditional=False,
        predictions=_M_PREDICTIONS,
        p_range=(5, 5),
        n_range=(2, math.inf),
        ell_range=(1, 1),
    ),
    ClaimSpec(
        id="C-3.2",
        family=Family.P_MINUS_ONE,
        statement=(
            "degree-(p-1) map, any prime p >= 5, extensions of degree "
            "n >= 2: counts 2, 1, 0 on the classes 0, 1, -1"
        ),
        conditional=False,
        predictions=_M_PREDICTIONS,
        p_range=(5, math.inf),
        n_range=(2, math.inf),
        ell_range=(1, 1),
    ),
    ClaimSpec(
        id="C-3.3",
        family=Family.P_MINUS_ONE,
        statement=(
            "degree-(p-1)^ell map, p >= 5 and ell >= 1, extensions of "
            "degree n >= 2: counts 2, 1, 0 on the classes 0, 1, -1"
        ),
        conditional=False,
        predictions=_M_PREDICTIONS,
        p_range=(5, math.inf),
        n_range=(2, math.inf),
    ),
    ClaimSpec(
        id="C-3.4",
        family=Family.P_MINUS_ONE,
        statement=(
            "degree-(p-1)^ell map on the prime field itself (n = 1), "
            "p >= 5: counts 2, 1, 0 when c is congruent to 0, 1, -1 mod p"
        ),
        conditional=False,
        predictions=_M_PREDICTIONS,
        p_range=(5, math.inf),
        n_range=(1, 1),
    ),
)


def registry() -> list[ClaimSpec]:
    """All encoded claims, in id order."""
    return list(_REGISTRY)


@functools.lru_cache(maxsize=1)
def _profile(fs: ff.FieldSpec, d: int, field_cap: int, exp_cap: int) -> tuple[int, ...]:
    """count_profile(fs, d) under the caller's caps, kept for the next claim
    of the same family at the same grid point; a tuple, since every caller
    shares it."""
    return tuple(dynamics.count_profile(fs, d, field_cap=field_cap, exp_cap=exp_cap))


def check_point(
    claim: ClaimSpec,
    p: int,
    n: int,
    ell: int,
    *,
    field_cap: int = DEFAULT_FIELD_CAP,
    exp_cap: int = DEFAULT_EXP_CAP,
) -> PointResult:
    """Evaluate one claim at one grid point, judging every residue.

    Residues are labelled by enumeration index; an element is built only
    for a witness.  A point past a cap is SKIPPED, with the refusal of
    dynamics.capped_degree as its note."""
    if not ff.is_prime(p):
        raise ArgumentError(f"grid point has non-prime p = {p}")
    if n < 1 or ell < 1:
        raise ArgumentError(f"grid point ({p}, {n}, {ell}) needs n >= 1 and ell >= 1")
    if not claim.applies(p, n, ell):
        return PointResult(p, n, ell, Verdict.NOT_APPLICABLE, note="outside the stated hypotheses")
    try:
        d = dynamics.capped_degree(p, n, claim.family, ell, field_cap=field_cap, exp_cap=exp_cap)
    except CapError as exc:
        return PointResult(p, n, ell, Verdict.SKIPPED, note=str(exc))
    fs = ff.standard_field(p, n)
    profile = _profile(fs, d, field_cap, exp_cap)
    other = claim.expected("other")
    # the labels 0, 1 and -1 sit at indexes 0, 1 and p - 1, and the runs
    # between and after them are "other": each run is judged in bulk
    runs = {(i, i + 1): claim.expected(dynamics.classify_residue(p, i)) for i in (0, 1, p - 1)}
    runs |= {(2, p - 1): other, (p, len(profile)): other}
    witnesses, unjudged = [], Counter()
    for (lo, hi), predicted in sorted(runs.items()):
        counts = islice(profile, lo, hi)
        if predicted is None:
            unjudged.update(counts)
        else:
            misses = compress(range(lo, hi), map(predicted.__ne__, counts))
            witnesses += [Witness(fs.element_at(i), predicted, profile[i]) for i in misses]
    status = Verdict.FAILS if witnesses else Verdict.HOLDS
    return PointResult(p, n, ell, status, tuple(witnesses), tuple(sorted(unjudged.items())))


def check_all(
    grid: Iterable[tuple[int, int, int]],
    *,
    field_cap: int = DEFAULT_FIELD_CAP,
    exp_cap: int = DEFAULT_EXP_CAP,
) -> list[ClaimReport]:
    """Every registered claim over the same grid, in registry order.

    The grid is walked point first, every claim at a point before the next
    point, so the claims of one family share that point's scan; each
    report lists its points in grid order.
    """
    rows = [
        [check_point(spec, p, n, ell, field_cap=field_cap, exp_cap=exp_cap) for spec in _REGISTRY]
        for p, n, ell in grid
    ]
    return [
        ClaimReport(spec, tuple(row[k] for row in rows)) for k, spec in enumerate(_REGISTRY)
    ]
