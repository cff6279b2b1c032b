"""Mechanical audit of the impossibility argument's arithmetic backbone.

For the hub-and-grid family with parameter m, suppose a valid coloring with
t0 = m^2 + k0 colors existed (0 <= k0 <= m^3 - m^2, since t0 can never
exceed the edge count m^3). The hub has degree m^2, so its palette is an
arc of length m^2, which a color rotation moves to [1, m^2]. Two hub edges
then carry colors 1 and mid = floor(m^2 / 2). Their far endpoints are grid
vertices, and some pair vertex is adjacent to both. The union of the three palettes (sizes m, 2m,
m, overlapping in the two shared edges) has at most 4m - 2 colors, contains
colors 1 and mid, and must itself be a cyclic arc. The audit checks, for
concrete (m, k0), every numeric inequality and set containment that turns
these facts into a contradiction:

    mid-color-bounds     4m - 1 <= mid <= m^2 + k0 - 4m + 3
    gap-width            m^2 + k0 - 4m + 4 > 4m - 2
    mid-color-in-gap     mid lies strictly between 4m - 2 and t0 - 4m + 4
    palette-union-bound  4m - 2 < t0
    arc-containment      every arc of length <= 4m - 2 through color 1
                         stays inside [1, lo] union [hi, t0], the target
                         built from the gap endpoints (checked exactly,
                         including the degenerate empty-gap case)
    incompatibility      the above force mid both inside and outside the
                         same gap — impossible

The bounds step is evaluated first and is the named culprit whenever the
audit fails: its lower inequality 4m - 1 <= floor(m^2 / 2) is free of k0
and holds exactly when m >= 8, which is the whole boundary story. (The
gap-width inequality is implied by the bounds, so ordering it later loses
nothing.)

`_facts` computes every number of the argument once, with the six
verdicts; `audit` only formats statements and witnesses from that record,
and `audit_range` reads its verdicts. All arithmetic is exact integer
arithmetic; set memberships go through the interval module's
non-materializing membership test, so m up to 10^3 (t0 up to 10^9)
audits in microseconds.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import NamedTuple, Optional, Union

from .errors import BudgetError, InternalError, UsageError
from .intervals import CyclicIntervalSpec, intcyc_contains

STEP_BOUNDS = "mid-color-bounds"
STEP_GAP = "gap-width"
STEP_MEMBER = "mid-color-in-gap"
STEP_UNION = "palette-union-bound"
STEP_ARC = "arc-containment"
STEP_CLASH = "incompatibility"

STEP_ORDER = (STEP_BOUNDS, STEP_GAP, STEP_MEMBER, STEP_UNION, STEP_ARC, STEP_CLASH)

# audit_range re-sweeps every k0 as a self-check for m up to this.
EXHAUSTIVE_LIMIT = 12
# audit_range refuses a range of more m than this. Its entries are small,
# but the JSON output holds two full reports per m, about 5.8 KB (58 MB at
# the cap).
RANGE_CAP = 10_000

ASSUMPTIONS = (
    "hub palette is an arc of length m^2, rotated to [1, m^2] "
    "(color rotation preserves validity; exercised by the solver tests)",
    "hub edges carrying colors 1 and floor(m^2/2) end at two grid vertices",
    "some pair vertex is adjacent to both of those grid vertices "
    "(exhaustively tested family property)",
)

NOTES = (
    "union bound 4m-2 reads the three palettes of sizes m, 2m, m as sharing "
    "exactly the two edges from the pair vertex to the two grid vertices; "
    "this interpretation is flagged rather than assumed silently",
)


@dataclass(frozen=True)
class AuditParams:
    m: int
    k0: int

    def __post_init__(self) -> None:
        if not isinstance(self.m, int) or isinstance(self.m, bool) or self.m < 2:
            raise UsageError(f"m must be an integer >= 2, got {self.m!r}")
        if not isinstance(self.k0, int) or isinstance(self.k0, bool):
            raise UsageError(f"k0 must be an integer, got {self.k0!r}")
        if not 0 <= self.k0 <= self.m**3 - self.m**2:
            raise UsageError(
                f"k0={self.k0} outside [0, {self.m**3 - self.m**2}] for m={self.m}"
            )

    @property
    def t0(self) -> int:
        return self.m**2 + self.k0


@dataclass(frozen=True)
class AuditStep:
    name: str
    statement: str
    holds: bool
    witnesses: dict[str, Union[int, bool, str]]


@dataclass(frozen=True)
class AuditReport:
    params: AuditParams
    steps: tuple[AuditStep, ...]
    passed: bool
    failing_step: Optional[str]
    assumptions: tuple[str, ...]
    notes: tuple[str, ...]


class _Facts(NamedTuple):
    """What `_facts` finds at (m, k0): every number of the argument and the
    verdicts drawn from them. The other numbers the steps report are these
    under other names: the mid bound's upper end m^2 + k0 - 4m + 3 is
    i2 - 1; the gap width's right side, the palette-union bound and the arc
    cover's lower end are i1; and both the gap width's left side and the
    arc cover's upper end t0 - (4m - 2) + 2 are i2."""

    t0: int
    mid: int  # floor(m^2 / 2)
    lower: int  # 4m - 1
    i1: int  # 4m - 2, the gap's lower end
    i2: int  # m^2 + k0 - 4m + 4, the gap's upper end
    target_lo: int  # min(i1, i2), or 0 if the gap is not instantiable
    target_hi: int  # max(i1, i2), or 0 if the gap is not instantiable
    steps: tuple[bool, ...]  # each step's verdict, in STEP_ORDER
    lower_holds: bool  # 4m - 1 <= mid
    upper_holds: bool  # mid <= i2 - 1
    instantiable: bool  # both gap endpoints lie in [1, t0]
    interior_empty: bool  # no color lies strictly inside the gap
    in_complement: bool  # mid lies in the closed complement of the gap


def _facts(m: int, k0: int) -> _Facts:
    """Every inequality and membership of the argument at (m, k0), each
    written once here: `audit` turns the facts into statements and
    witnesses, and `audit_range` judges by the verdicts alone."""
    t0 = m**2 + k0
    mid = m**2 // 2
    lower = 4 * m - 1
    i1, i2 = 4 * m - 2, t0 - 4 * m + 4
    instantiable = 1 <= i1 <= t0 and 1 <= i2 <= t0
    target_lo, target_hi = (min(i1, i2), max(i1, i2)) if instantiable else (0, 0)
    lower_holds = lower <= mid
    upper_holds = mid <= i2 - 1
    member_ok = instantiable and intcyc_contains(
        CyclicIntervalSpec(j0=1, i1=i1, i2=i2, t=t0, closed=False), mid
    )
    union_ok = i1 < t0
    # An arc of length L <= i1 (the union bound) containing color 1 occupies
    # at most i1 - 1 colors after 1 and at most i1 - 1 before it, so the
    # union of all such arcs is exactly [1, min(i1, t0)] U [max(i2, 1), t0],
    # as t0 - i1 + 2 is i2. Containment in [1, lo] U [hi, t0] therefore fails
    # precisely when that cover meets the gap interior {lo+1, ..., hi-1}:
    # on an empty interior the target is every color and containment is
    # vacuous, and otherwise the cover must stop at lo on the left and
    # start no earlier than hi on the right. The three-way form keeps the
    # check exact rather than merely sufficient, so brute-force arc
    # enumeration agrees with it on every instantiable parameter choice.
    interior_empty = instantiable and target_hi - target_lo <= 1
    arc_ok = instantiable and (
        interior_empty or (union_ok and i1 <= target_lo and i2 >= target_hi)
    )
    # The clash: mid sits strictly inside the gap (mid-color-in-gap), yet
    # mid also sits in the union of the three palettes, which the previous
    # two steps confine to the complement of that gap's interior.
    in_complement = instantiable and intcyc_contains(
        CyclicIntervalSpec(j0=2, i1=i1, i2=i2, t=t0, closed=True), mid
    )
    clash_ok = member_ok and union_ok and arc_ok and not in_complement
    steps = (lower_holds and upper_holds, i2 > i1, member_ok, union_ok, arc_ok, clash_ok)
    # positional, in field order: keywords would cost audit_range about a
    # seventh of its time
    return _Facts(
        t0,
        mid,
        lower,
        i1,
        i2,
        target_lo,
        target_hi,
        steps,
        lower_holds,
        upper_holds,
        instantiable,
        interior_empty,
        in_complement,
    )


def audit(params: AuditParams) -> AuditReport:
    m = params.m
    f = _facts(m, params.k0)
    t0, mid, i1, i2 = f.t0, f.mid, f.i1, f.i2
    member_wit: dict[str, Union[int, bool, str]] = {"mid": mid, "i1": i1, "i2": i2}
    if f.instantiable:
        member_stmt = f"{mid} strictly between {i1} and {i2} in [1, {t0}]"
    else:
        member_stmt = f"endpoints ({i1}, {i2}) fall outside [1, {t0}]: gap not even formable"
        member_wit["instantiable"] = False
    target = f"[1, {f.target_lo}] U [{f.target_hi}, {t0}]"
    if not f.instantiable:
        arc_stmt = "target arc-pair not formable"
    elif f.interior_empty:
        arc_stmt = f"target {target} is every color; containment is vacuous"
    else:
        arc_stmt = (
            f"arcs of length <= {i1} through color 1 lie in "
            f"[1, {i1}] U [{i2}, {t0}] subset of {target}"
        )
    texts = (
        (
            f"{f.lower} <= {mid} <= {i2 - 1}",
            {
                "lower": f.lower,
                "mid": mid,
                "upper": i2 - 1,
                "lower_holds": f.lower_holds,
                "upper_holds": f.upper_holds,
            },
        ),
        (f"{i2} > {i1}", {"left": i2, "right": i1}),
        (member_stmt, member_wit),
        (
            f"|union of palettes| <= {m} + {2 * m} + {m} - 2 = {i1} < {t0}",
            {"bound": i1, "t0": t0, "shared_edges": 2},
        ),
        (
            arc_stmt,
            {
                "bound": i1,
                "cover_lo": i1,
                "cover_hi": i2,
                "target_lo": f.target_lo,
                "target_hi": f.target_hi,
                "gap_interior_empty": f.interior_empty,
                "instantiable": f.instantiable,
            },
        ),
        (
            f"color {mid} must lie inside the gap interior and inside the "
            f"palette union confined to its complement — impossible",
            {"mid": mid, "mid_in_complement": f.in_complement},
        ),
    )
    failing = next((name for name, ok in zip(STEP_ORDER, f.steps) if not ok), None)
    return AuditReport(
        params=params,
        steps=tuple(
            AuditStep(name, statement, holds, witnesses)
            for name, (statement, witnesses), holds in zip(STEP_ORDER, texts, f.steps)
        ),
        passed=failing is None,
        failing_step=failing,
        assumptions=ASSUMPTIONS,
        notes=NOTES,
    )


@dataclass(frozen=True)
class RangeEntry:
    """One m of `audit_range`. Its two reports are built by `audit` when read."""

    m: int
    k0_hi: int
    passed: bool
    failing_step: Optional[str]
    exhaustive_checked: bool

    @property
    def report_lo(self) -> AuditReport:
        return audit(AuditParams(m=self.m, k0=0))

    @property
    def report_hi(self) -> AuditReport:
        return audit(AuditParams(m=self.m, k0=self.k0_hi))


@dataclass(frozen=True)
class RangeSummary:
    m_lo: int
    m_hi: int
    entries: tuple[RangeEntry, ...]
    all_passed: bool


def audit_range(m_lo: int, m_hi: int) -> RangeSummary:
    """Audit every m in [m_lo, m_hi] at the two k0 endpoints.

    Every k0-dependent condition is nondecreasing in k0 and the decisive
    lower bound is k0-free, so the endpoints determine the whole k0 range;
    for m <= EXHAUSTIVE_LIMIT that argument is cross-checked by sweeping
    every k0 and insisting the passing set is upward-closed. Each k0 is
    judged by the steps' verdicts alone; an entry builds its two full
    reports only when they are read. A range of more than RANGE_CAP values
    of m is a BudgetError.
    """
    if not isinstance(m_lo, int) or not isinstance(m_hi, int) or not 2 <= m_lo <= m_hi:
        raise UsageError(f"need 2 <= m_lo <= m_hi, got ({m_lo!r}, {m_hi!r})")
    if m_hi - m_lo + 1 > RANGE_CAP:
        raise BudgetError(
            f"m range [{m_lo}, {m_hi}] holds {m_hi - m_lo + 1} values, past the cap {RANGE_CAP}"
        )
    entries: list[RangeEntry] = []
    for m in range(m_lo, m_hi + 1):
        k0_hi = m**3 - m**2
        lo = _facts(m, 0).steps
        passed_lo, passed_hi = all(lo), all(_facts(m, k0_hi).steps)
        if passed_lo and not passed_hi:
            raise InternalError(
                f"monotonicity violated at m={m}: k0=0 passes but k0={k0_hi} fails"
            )
        exhaustive = m <= EXHAUSTIVE_LIMIT
        if exhaustive:
            results = [all(_facts(m, k0).steps) for k0 in range(k0_hi + 1)]
            for earlier, later in zip(results, results[1:]):
                if earlier and not later:
                    raise InternalError(f"k0 sweep at m={m} is not upward-closed")
        passed = passed_lo and passed_hi
        entries.append(
            RangeEntry(
                m=m,
                k0_hi=k0_hi,
                passed=passed,
                failing_step=None if passed else STEP_ORDER[lo.index(False)],
                exhaustive_checked=exhaustive,
            )
        )
    return RangeSummary(
        m_lo=m_lo,
        m_hi=m_hi,
        entries=tuple(entries),
        all_passed=all(e.passed for e in entries),
    )


# --- serialization ------------------------------------------------------------

def step_to_dict(step: AuditStep) -> dict:
    return asdict(step)


def report_to_dict(report: AuditReport) -> dict:
    return {
        "m": report.params.m,
        "k0": report.params.k0,
        "t0": report.params.t0,
        "passed": report.passed,
        "failing_step": report.failing_step,
        "steps": [step_to_dict(s) for s in report.steps],
        "assumptions": list(report.assumptions),
        "notes": list(report.notes),
    }


def summary_to_dict(summary: RangeSummary) -> dict:
    return {
        "m_lo": summary.m_lo,
        "m_hi": summary.m_hi,
        "all_passed": summary.all_passed,
        "entries": [
            {
                "m": e.m,
                "k0_endpoints": [0, e.k0_hi],
                "passed": e.passed,
                "failing_step": e.failing_step,
                "exhaustive_k0_sweep": e.exhaustive_checked,
                "report_k0_lo": report_to_dict(e.report_lo),
                "report_k0_hi": report_to_dict(e.report_hi),
            }
            for e in summary.entries
        ],
    }
