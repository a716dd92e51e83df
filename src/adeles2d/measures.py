"""Measure calculus on adelic lattice chains and Riemann-Roch assembly.

Measures live on three ambient chains: the discrete chain A01, the compact
quotient A/A01 and the full group A.  The Fourier transform exchanges A01
with A/A01 and maps A to itself; the table `_CHAINS` states each chain's
lattices, measure families and dual once.  Relative to a chain's canonical
normalization a Haar measure is an exact power of q.  The module implements
the tag algebra of such measures, characteristic elements, their pairing
and Fourier transform, the multiplicative central extension whose
commutator reproduces intersection numbers, finite self-dual windows
realizing the residue-pairing duality at finite level, and the final
Riemann-Roch identity, each identity a `Check` of two routes.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

from .cohomology import h_vector
from .fields import FieldDesc, FieldElem, rel_trace
from .linalg import Matrix, mat_rank
from .series import LaurentSeries2, PrecisionError
from .surface import (
    ClassVector,
    Divisor,
    Flag,
    Surface,
    canonical_divisor,
    canonical_local_form,
    class_intersection,
    coordinate_lines,
    divisor_class,
    form_polynomial,
    poly_valuation_at_flag,
    smooth_flag,
)
from .symbols import (
    IdeleRule,
    commutator_pairing,
    intersection_flags,
)

WINDOW_POINT_DEGREE = 2


# ---------------------------------------------------------------------------
# divisor utilities


def divisor_zero(S: Surface) -> Divisor:
    return Divisor(S, {})


def class_representative(S: Surface, cls: ClassVector) -> Divisor:
    """A standard divisor of the given class: each degree on the class line
    of its group.  Built once per class, kept in S.memo."""
    key = ("representative", tuple(cls))
    got = S.memo.get(key)
    if got is None:
        got = S.memo[key] = Divisor(S, dict(zip(S.class_lines, cls)))
    return got


def _divisor_le(a: Divisor, b: Divisor) -> bool:
    curves = set(a.components) | set(b.components)
    return all(a.components.get(D, 0) <= b.components.get(D, 0)
               for D in curves)


def _cls_json(cls: ClassVector):
    """A class for reports: a bare int for one group, else the tuple (a JSON
    list, and `(a, b)` in text)."""
    return cls[0] if len(cls) == 1 else cls


# ---------------------------------------------------------------------------
# measure tags


class MeasureTag:
    """A measure on an ambient chain between two positions of its graded
    lattice (A1, A12 mod A1 or A12), each position a divisor.  It is also
    the chain's characteristic distribution of the lattice where it ends,
    charged from the lattice where it starts.

    The value is the exponent k of the measure's exact power q^k relative
    to the canonical normalization of the ambient chain; composition of
    adjacent tags adds values.
    """

    __slots__ = ("ambient", "family", "frm", "to", "value")

    def __init__(self, ambient: str, family: str, frm: Divisor, to: Divisor,
                 value: int):
        self.ambient = ambient
        self.family = family
        self.frm = frm
        self.to = to
        self.value = value

    def __mul__(self, other: "MeasureTag") -> "MeasureTag":
        if self.ambient != other.ambient:
            raise ValueError("measure tags live in different ambient chains")
        if self.to != other.frm:
            raise ValueError("measure tags do not compose: endpoints differ")
        family = self.family if self.family == other.family else "mixed"
        return MeasureTag(self.ambient, family, self.frm, other.to,
                          self.value + other.value)

    def __eq__(self, other):
        return (isinstance(other, MeasureTag)
                and self.ambient == other.ambient
                and self.family == other.family
                and self.frm == other.frm
                and self.to == other.to
                and self.value == other.value)

    def __repr__(self):
        return (f"MeasureTag({self.family} in {self.ambient}: {self.frm!r} "
                f"-> {self.to!r}, q^{self.value})")


class _Chain(NamedTuple):
    """One adelic chain: its global lattice (modulo `lattice_mod`), the
    counting measure family, the family adapted to the global lattice with
    the h-vector entry whose increments are its values, and the chain the
    Fourier transform maps it to."""

    lattice: str
    lattice_mod: Optional[str]
    counting: str
    adapted: str
    growth: str
    dual: str


# the three ambient chains: the discrete chain, the compact quotient, and the
# full group; the only statement of what each one holds
_CHAINS = {
    "A01": _Chain("A0", None, "delta", "A0-adapted", "h0", "A/A01"),
    "A/A01": _Chain("A02", "A0", "one", "A02-adapted", "h2", "A01"),
    "A": _Chain("A02", None, "nu", "mu", "chi", "A"),
}


def _chain(ambient: str) -> _Chain:
    if ambient not in _CHAINS:
        raise ValueError(f"unknown ambient chain {ambient!r}")
    return _CHAINS[ambient]


def counting_measure(ambient: str, P: Divisor, Q: Divisor) -> MeasureTag:
    """The chain's canonical normalization between the positions P and Q of
    its graded lattice: counting on the discrete chain, total mass one on
    the compact quotient, and their mixture on the full group."""
    return MeasureTag(ambient, _chain(ambient).counting, P, Q, 0)


def measure_mu_L(ambient: str, i: Divisor, j: Divisor) -> MeasureTag:
    """The measure adapted to the chain's global lattice L, between the
    positions i and j of its graded lattice.

    Normalized to give mass 1 to L-cosets; its value against the canonical
    normalization is q^(d(i) - d(j)), where d is the chain's growth function
    of the intersections of L with the chain (h0, h2 or chi of the class).
    """
    chain = _chain(ambient)
    return MeasureTag(ambient, chain.adapted, i, j,
                      _adapted_value(chain, i, j))


def _adapted_value(chain: _Chain, i: Divisor, j: Divisor) -> int:
    """The chain's adapted measure between the positions i and j against its
    canonical normalization: the q-exponent g(i) - g(j), g the growth entry."""
    S = i.surface
    return (getattr(h_vector(S, divisor_class(i)), chain.growth)
            - getattr(h_vector(S, divisor_class(j)), chain.growth))


# ---------------------------------------------------------------------------
# characteristic elements and their pairing


class CharElem:
    """A characteristic function: the indicator of an ambient chain's global
    lattice at a reference position.  Its lattice and modulus are the
    chain's row of `_CHAINS`.  A characteristic distribution is a
    `MeasureTag` (char_distribution)."""

    __slots__ = ("ambient", "reference")

    def __init__(self, ambient: str, reference: Divisor):
        _chain(ambient)  # rejects an unknown chain
        self.ambient = ambient
        self.reference = reference

    def __eq__(self, other):
        return (isinstance(other, CharElem)
                and self.ambient == other.ambient
                and self.reference == other.reference)

    def __repr__(self):
        chain = _CHAINS[self.ambient]
        mod = f" mod {chain.lattice_mod}" if chain.lattice_mod else ""
        return (f"CharElem({chain.lattice}{mod} in {self.ambient} at "
                f"{self.reference!r})")


def char_function(S: Surface, ambient: str, reference: Divisor) -> CharElem:
    """The indicator of the chain's global lattice, at the reference."""
    if not isinstance(reference, Divisor) or reference.surface != S:
        raise ValueError(f"the reference must be a divisor on {S!r}")
    return CharElem(ambient, reference)


def char_distribution(D: Divisor, measure: MeasureTag) -> MeasureTag:
    """The distribution of the graded lattice at D, in the chain of the
    measure: the measure itself, which must end there."""
    if measure.to != D:
        raise ValueError("measure must end at the element's lattice in the "
                         f"{measure.ambient} chain")
    return measure


def char_pairing(dL: CharElem, dA: MeasureTag) -> int:
    """Pairing of a characteristic function with a distribution, as a
    q-exponent: the distribution's measure over the adapted measure between
    the common reference and the distribution's position."""
    if not (isinstance(dL, CharElem) and isinstance(dA, MeasureTag)):
        raise ValueError("pairing takes a characteristic function and a "
                         "distribution, in that order")
    if dL.ambient != dA.ambient or dL.reference != dA.frm:
        raise ValueError("incompatible reference lattices")
    return dA.value - _adapted_value(_CHAINS[dA.ambient], dA.frm, dA.to)


# ---------------------------------------------------------------------------
# the Fourier rewrite: to the dual chain, reflected through the form


def _reflect(wdiv: Divisor, D: Divisor) -> Divisor:
    """wdiv - D, built once per pair and kept in S.memo."""
    key = ("reflect", wdiv, D)
    memo = D.surface.memo
    got = memo.get(key)
    if got is None:
        got = memo[key] = wdiv - D
    return got


def fourier_char(e: Union[CharElem, MeasureTag],
                 wdiv: Divisor) -> Union[CharElem, MeasureTag]:
    """The transform of a characteristic function or distribution.

    It moves to the dual chain, where the global lattice is replaced by the
    residue-pairing annihilator; positions reflect through the form's
    divisor, and a counting measure keeps its value along the canonical
    identification of the measure lines.  An involution on every function
    and on every distribution of the chain's counting family.
    """
    chain = _CHAINS[e.ambient]
    if isinstance(e, CharElem):
        return CharElem(chain.dual, _reflect(wdiv, e.reference))
    if e.family != chain.counting:
        raise ValueError(f"unsupported characteristic shape: measure family "
                         f"{e.family!r} has no transform")
    return MeasureTag(chain.dual, _CHAINS[chain.dual].counting,
                      _reflect(wdiv, e.frm), _reflect(wdiv, e.to), e.value)


def _pairing_and_transform(ambient: str, H: Divisor, C: Divisor,
                           wdiv: Divisor) -> Tuple[int, int]:
    """Pair the chain's indicator at H with the counting distribution from
    H to C, and pair the transforms of the two."""
    dL = char_function(C.surface, ambient, H)
    dA = char_distribution(C, counting_measure(ambient, H, C))
    return (char_pairing(dL, dA),
            char_pairing(fourier_char(dL, wdiv), fourier_char(dA, wdiv)))


# ---------------------------------------------------------------------------
# check records and the two dimension identities


class Check:
    """One verification: the values of both routes, the verdict (by default
    whether they agree) and any sub-derivations.  A
    verdict that also weighs other values names them in `witness`, for the
    summary line of a failure.  A report record holds the name, inputs,
    lhs, rhs and verdict; sub-derivations stay out of it."""

    __slots__ = ("name", "inputs", "lhs", "rhs", "passed", "subchecks",
                 "witness")

    def __init__(self, name: str, inputs: Dict, lhs, rhs,
                 passed: Optional[bool] = None,
                 subchecks: Sequence["Check"] = (), witness: str = ""):
        self.name = name
        self.inputs = inputs
        self.lhs = lhs
        self.rhs = rhs
        self.passed = lhs == rhs if passed is None else bool(passed)
        self.subchecks = tuple(subchecks)
        self.witness = witness

    def __repr__(self):
        state = "pass" if self.passed else "FAIL"
        return f"Check({self.name}: {self.lhs} vs {self.rhs}, {state})"


def derive_eq1(S: Surface, Cclass: ClassVector,
               Hclass: ClassVector) -> Check:
    """Sections-difference identity: pair the global-function indicator
    against the graded-lattice distribution, then pair the transforms; the
    two exponents agree exactly when h0 differences equal the dual h2
    differences."""
    lhs, rhs = _pairing_and_transform(
        "A01", class_representative(S, Hclass),
        class_representative(S, Cclass), canonical_divisor(S))
    return Check("serre-difference",
                 {"C": _cls_json(Cclass), "H": _cls_json(Hclass)}, lhs, rhs)


def derive_eq2(S: Surface, Sclass: ClassVector) -> Check:
    """Euler-characteristic symmetry: pair the full-chain indicator against
    the chain distribution based at the reflected position, then pair the
    transforms; agreement forces chi(S) = chi of the reflection, and the
    check reports both."""
    wdiv = canonical_divisor(S)
    Sdiv = class_representative(S, Sclass)
    Rdiv = _reflect(wdiv, Sdiv)
    lhs, rhs = _pairing_and_transform("A", Rdiv, Sdiv, wdiv)
    chiS = h_vector(S, divisor_class(Sdiv)).chi
    chiDual = h_vector(S, divisor_class(Rdiv)).chi
    return Check("chi-symmetry", {"S": _cls_json(Sclass)}, chiS, chiDual,
                 lhs == rhs and chiS == chiDual,
                 witness=f"pairing q^{lhs} vs transformed q^{rhs}")


# ---------------------------------------------------------------------------
# the central extension of the idele group


class CentralExtElem:
    """A lift of an idele: the idele with a measure of the full chain from
    the base lattice to its translate.  Multiplication transports the second
    measure by the first idele."""

    __slots__ = ("g", "phi")

    def __init__(self, g, phi: MeasureTag):
        if phi.ambient != "A" or phi.frm.components:
            raise ValueError("lift measure must start at the base lattice "
                             "of the full chain")
        self.g = g
        self.phi = phi

    def __mul__(self, other: "CentralExtElem") -> "CentralExtElem":
        moved = idele_transport(self.g, other.phi)
        return CentralExtElem(("*", self.g, other.g), self.phi * moved)


def idele_transport(g: IdeleRule, tag: MeasureTag) -> MeasureTag:
    """Translation of a measure by an idele, valid on the family the idele
    preserves: point-style ideles move A02-adapted measures, curve-style
    ideles move the canonical mixed normalization."""
    if not isinstance(g, IdeleRule):
        raise ValueError("only a pure idele can transport a measure")
    E = g.divisor
    if g.kind == "at_points" and tag.family == "mu":
        return measure_mu_L("A", tag.frm + E, tag.to + E)
    if g.kind == "along_curves" and tag.family == "nu":
        return counting_measure("A", tag.frm + E, tag.to + E)
    raise ValueError(f"unsupported idele action on measure family "
                     f"{tag.family!r}")


def central_ext_commutator(a: CentralExtElem, b: CentralExtElem) -> int:
    """The commutator scalar [a, b], the ratio of the two product lifts, as
    a q-exponent."""
    ab = a * b
    ba = b * a
    if ab.phi.frm != ba.phi.frm or ab.phi.to != ba.phi.to:
        raise ValueError("commutator requires matching product endpoints")
    return ab.phi.value - ba.phi.value


def _disjoint_representative(S: Surface, cls: ClassVector,
                             avoid: set) -> Divisor:
    """A divisor of the given class on coordinate curves outside `avoid`."""
    return Divisor(S, dict(coordinate_lines(S, cls, lambda L: L not in avoid)))


def central_commutator(C: Divisor, wdiv: Divisor) -> Check:
    """The commutator of the standard lifts two ways, as q-exponents.

    Measure route: lift the point-style idele of C with the canonical
    normalization and the curve-style idele of the reflection with the
    A02-adapted one; the commutator of the lifts is a pure measure ratio.
    Symbol route: the tame-symbol pairing of the same ideles against a
    general-position representative of the reflected class.
    """
    surf = C.surface
    H = _reflect(wdiv, C)
    z = divisor_zero(surf)
    a = CentralExtElem(IdeleRule("at_points", C), counting_measure("A", z, C))
    b = CentralExtElem(IdeleRule("along_curves", H), measure_mu_L("A", z, H))
    measure_route = central_ext_commutator(a, b)
    Hrep = _disjoint_representative(surf, divisor_class(H), set(C.components))
    symbol_route = commutator_pairing(IdeleRule("at_points", C),
                                      IdeleRule("along_curves", Hrep),
                                      intersection_flags(C, Hrep))
    return Check("commutator", {"C": _cls_json(divisor_class(C))},
                 measure_route, symbol_route)


# ---------------------------------------------------------------------------
# Riemann-Roch assembly


def rr_assemble(Cdiv: Divisor, wdiv: Divisor) -> Check:
    """The Riemann-Roch identity for O(C) with every ingredient derived.

    LHS: h0(C) - h1(C) + h0(w - C).  RHS: h0(0) - h1(0) + h0(w) minus half
    the class-level intersection of C with its reflection.  Sub-derivations
    rerun the two dimension identities and the central-extension
    commutator (whose symbol route computes the same intersection number
    adelically).
    """
    S = Cdiv.surface
    clsC = divisor_class(Cdiv)
    clsW = divisor_class(wdiv)
    clsH = S.class_add(clsW, S.class_scale(-1, clsC))
    hC = h_vector(S, clsC)
    hH = h_vector(S, clsH)
    h0 = h_vector(S, S.class_zero())
    hW = h_vector(S, clsW)
    lhs = hC.h0 - hC.h1 + hH.h0
    pairing = class_intersection(S, clsC, clsH)
    if pairing % 2:
        raise RuntimeError("intersection with the reflection must be even")
    rhs = h0.h0 - h0.h1 + hW.h0 - pairing // 2
    comm = central_commutator(Cdiv, wdiv)
    subchecks = (derive_eq1(S, clsC, S.class_zero()), derive_eq2(S, clsC),
                 comm)
    passed = (lhs == rhs and all(c.passed for c in subchecks)
              and comm.rhs == -pairing)
    inputs = {"C": _cls_json(clsC), "omega": _cls_json(clsW)}
    return Check("riemann-roch", inputs, lhs, rhs, passed, subchecks, ", ".join(
        [f"commutator {comm.rhs} vs class pairing {-pairing}"]
        + [f"{c.name} failed" for c in subchecks if not c.passed]))


# ---------------------------------------------------------------------------
# finite self-dual windows


class Window(NamedTuple):
    """A finite shadow of the chain quotient between two divisor levels.

    Monomial basis per flag: t-exponents running through the window's
    multiplicity range, u-exponents through a centered interval, and a
    residue-field power basis.  The gram matrix pairs the window against
    its reflection through the form's divisor; it must have full rank.  Its
    rows are sparse (linalg): row i maps the index of each dual monomial to
    its nonzero pairing with basis monomial i.
    """

    surface: Surface
    R: Divisor
    S: Divisor
    omega: Divisor
    flags: List[Flag]
    basis: List[Tuple[int, int, int, int]]
    dual_basis: List[Tuple[int, int, int, int]]
    gram: Matrix
    rank: int

    @property
    def dimension(self) -> int:
        return len(self.basis)

    def __repr__(self):
        return (f"Window(dim {self.dimension}, rank {self.rank}, "
                f"{len(self.flags)} flags)")


def window_build(R: Divisor, S: Divisor, u_size: int = 2) -> Window:
    """Build the window between R and S with one flag per curve, at a
    point of degree at most WINDOW_POINT_DEGREE off the other curves.

    The dual basis reflects every exponent through the local orders of the
    fixed form, so the gram pairing is square; a rank below the dimension
    means the residue pairing itself is broken, which callers check.
    """
    surf = R.surface
    if S.surface != surf:
        raise ValueError("window endpoints live on different surfaces")
    if not _divisor_le(R, S):
        raise ValueError("window requires R <= S componentwise")
    curves = [D for D in sorted(set(R.components) | set(S.components),
                                key=lambda D: D._key)
              if S.components.get(D, 0) > R.components.get(D, 0)]
    if not curves:
        raise ValueError("window is empty: S must exceed R somewhere")
    if u_size < 1:
        raise ValueError("u window must have positive size")
    wdiv = canonical_divisor(surf)
    u_lo = -(u_size // 2)
    u_exponents = list(range(u_lo, u_lo + u_size))
    flags: List[Flag] = []
    forms: List[LaurentSeries2] = []
    basis: List[Tuple[int, int, int, int]] = []
    dual_basis: List[Tuple[int, int, int, int]] = []
    for fi, D in enumerate(curves):
        avoid = [E for E in set(curves) | set(wdiv.components) if E != D]
        fl = smooth_flag(D, WINDOW_POINT_DEGREE, avoid)
        flags.append(fl)
        # the form is du^dt / P: its rank-2 valuation is minus P's
        p_t, p_u = poly_valuation_at_flag(form_polynomial(fl), fl)
        r_D = R.components.get(D, 0)
        s_D = S.components.get(D, 0)
        # the slots J[-1 - (b + bj), -1 - (a + aj)] the gram reads at fl
        # lie below t^(s_D - r_D - p_t) and u^(u_size - p_u)
        t_to, u_to = s_D - r_D - p_t, u_size - p_u
        J = canonical_local_form(fl, t_to, u_to)
        if J.t_prec < t_to or J.u_prec < u_to:
            raise PrecisionError(f"window gram at flag {fl!r} undetermined "
                                 f"on the box t < {t_to}, u < {u_to}")
        forms.append(J)
        deg = fl.point.degree
        for b in range(-s_D, -r_D):
            for a in u_exponents:
                for li in range(deg):
                    basis.append((fi, b, a, li))
                    dual_basis.append((fi, p_t - 1 - b, p_u - 1 - a, li))
    # the pairing of gen^li t^b u^a with gen^lj t^bj u^aj at a flag is
    # tr(gen^(li + lj) J[-1 - (b + bj), -1 - (a + aj)]), for J the flag's
    # form: it depends only on the flag and the sums of the exponents, so
    # each sum is read once.  Monomials at different flags pair to zero, so
    # a row holds only the same-flag columns, and of those the nonzero ones
    base = surf.base
    pairings: Dict[Tuple[int, int, int, int], int] = {}
    same_flag = [[j for j, e in enumerate(dual_basis) if e[0] == fi]
                 for fi in range(len(flags))]
    gram = []
    for fi, b, a, li in basis:
        J, kx = forms[fi], flags[fi].point.residue_field
        row = {}
        for j in same_flag[fi]:
            _fj, bj, aj, lj = dual_basis[j]
            key = (fi, b + bj, a + aj, li + lj)
            n = pairings.get(key)
            if n is None:
                n = pairings[key] = _pair_code(
                    kx, J.coeff(-1 - key[1], -1 - key[2]), key[3], base)
            if n:
                row[j] = n
        gram.append(row)
    rank = mat_rank(gram, base)
    return Window(surf, R, S, wdiv, flags, basis, dual_basis, gram, rank)


def _pair_code(kx: FieldDesc, code: int, power: int, base: FieldDesc) -> int:
    """The code of tr(gen^power * c) from kx down to the base field, for c
    the element of kx coded `code`."""
    if not code:
        return 0
    c = FieldElem(kx, code)
    if power:
        c = c * kx.gen() ** power
    return rel_trace(c, base).n


def window_annihilator_check(w: Window, C: Divisor) -> bool:
    """Whether the gram-annihilator of the C-lattice image equals the image
    of the reflected lattice: the primal monomials in the C-level lattice
    must pair with no dual monomial in the lattice of the reflection of C,
    and their rank must be that lattice's codimension."""
    if not (_divisor_le(w.R, C) and _divisor_le(C, w.S)):
        raise ValueError("divisor leaves the window bounds")
    curves = [fl.curve for fl in w.flags]
    refl = _reflect(w.omega, C)
    sub = [w.gram[i] for i, (fi, b, _a, _li) in enumerate(w.basis)
           if b >= -C.components.get(curves[fi], 0)]
    cols = {j for j, (fi, b, _a, _li) in enumerate(w.dual_basis)
            if b >= -refl.components.get(curves[fi], 0)}
    if any(not cols.isdisjoint(row) for row in sub):
        return False
    return mat_rank(sub, w.surface.base) == len(w.basis) - len(cols)
