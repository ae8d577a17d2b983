"""Nonlinear flux models A(t, x, z, xi) and their structural checks.

Every flux is one :class:`Law`: components A_a, expression trees over t, x,
y, z, xi1, xi2 (1D ones see y = xi2 = 0), and their dA_a/dxi_b and dA_a/dz
trees from :func:`expressions.derivative`, built once per flux and read by
the residual, ``constant_jacobian`` and Newton's matrix, which skips a
tree that is the number 0.  A ``custom`` flux gives its components; a
builtin kind is a template in (p, eps_reg), written m * xi at p = 2, with
s = |xi|^2 + eps_reg^2:

    p_laplacian       A = s^((p-2)/2) * xi
    linear_diffusion  A = xi                     (p = 2)
    z_modulated       A = (1 + sin(z)^2 / 2) * s^((p-2)/2) * xi

At eps_reg = 0 and p != 2 it takes its limits where s = 0: A = dA/dz = 0,
dA/dxi = 0 for p > 2, :class:`JacobianSingularError` for p < 2.  A custom
law's chain-rule terms are 0 where their tangent is (:func:`derivative`), so
a kink at xi = 0 such as (xi1^2)^0.5*xi1 has dA/dxi = 0 there.  A builtin
kind's modulation and its own structural constants are written once, in
``FluxModel.BUILTIN_KINDS``, and every path to a flux (its constructor, the
kind's constructor, the loader) takes them; a constant the caller gives is a
declared bound instead, and ``check_structure`` samples whether the declared
inequalities actually hold.
"""

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import JacobianSingularError, SlabflowError
from .expressions import Num, derivative, evaluate as eval_expr, parse_expr
from .geometry import Grid, integer_at_least

STRUCTURE_TOLERANCE = 1e-12  # slack for roundoff + O(eps_reg^(p-1)) regularisation


class Law(NamedTuple):
    """Components A_a, dA_a/dxi_b (``dxi[a][b]``) and dA_a/dz as trees, and the
    tree of s where the law takes its limits at s = 0 (None: nowhere)."""

    components: tuple
    dxi: tuple
    dz: tuple
    radius: object


def _law(components, radius=None):
    slots = ("xi1", "xi2")[:len(components)]  # one gradient slot per axis
    return Law(tuple(components), tuple(tuple(derivative(c, xi) for xi in slots) for c in components),
               tuple(derivative(c, "z") for c in components), radius)


def _template(kind, p, eps_reg, dim):
    """The law of a builtin kind (module docstring)."""
    slots = ("xi1", "xi2")[:dim]
    m = FluxModel.BUILTIN_KINDS[kind][0]
    if p == 2.0:
        return _law([parse_expr(f"{m}{xi}") for xi in slots])
    s = " + ".join([f"{xi}^2" for xi in slots] + ([repr(eps_reg**2)] if eps_reg**2 else []))
    radius = None if eps_reg**2 else parse_expr(s)
    return _law([parse_expr(f"{m}({s})^{0.5 * (p - 2.0)!r}*{xi}") for xi in slots], radius)


@dataclass(frozen=True)
class FluxModel:
    """A flux together with the constants of its structure conditions."""

    kind: str
    p: float
    dim: int = 1
    # eps_reg and the structure constants: None takes the kind's value (__post_init__)
    eps_reg: float = None
    growth_c: float = None
    coercivity_alpha: float = None
    lower_b: float = None
    lower_d: float = None
    z_lipschitz: float = None
    time_modulus: object = None  # expression in r, or None for 0
    components: tuple = ()  # custom only: expression per component

    # builtin kind -> (the modulation m(z) of its template, its own values of
    # the constants); z_modulated's m = 1 + sin(z)^2/2 lies in [1, 3/2], |m'| <= 1
    BUILTIN_KINDS = {
        "p_laplacian": ("", {}),
        "linear_diffusion": ("", {"eps_reg": 0.0}),
        "z_modulated": ("(1 + 0.5*sin(z)^2)*", {"growth_c": 1.5, "z_lipschitz": 1.0}),
    }
    KINDS = (*BUILTIN_KINDS, "custom")

    @classmethod
    def check_kind(cls, kind):
        if kind not in cls.KINDS:
            raise SlabflowError(f"unknown flux kind {kind!r}, expected one of {', '.join(cls.KINDS)}")

    def __post_init__(self):
        self.check_kind(self.kind)
        constants = {"eps_reg": 1e-8, "growth_c": 1.0, "coercivity_alpha": 1.0, "lower_b": 0.0,
                     "lower_d": 0.0, "z_lipschitz": 0.0, **self.BUILTIN_KINDS.get(self.kind, ("", {}))[1]}
        for key, value in constants.items():
            if getattr(self, key) is None:
                object.__setattr__(self, key, value)
        if not 1 < self.p < np.inf:
            raise SlabflowError(f"p must exceed 1 and be finite, got {self.p}")
        if self.kind == "linear_diffusion" and (self.p, self.eps_reg) != (2, 0):
            raise SlabflowError(
                f"linear_diffusion requires p = 2 and eps_reg = 0, got p = {self.p}, eps_reg = {self.eps_reg}")
        Grid.check_dim(self.dim)
        if not 0 <= self.eps_reg < np.inf:
            raise SlabflowError(f"eps_reg must be >= 0 and finite, got {self.eps_reg}")
        for key in ("growth_c", "coercivity_alpha", "lower_b", "lower_d", "z_lipschitz"):
            value, positive = getattr(self, key), key in ("growth_c", "coercivity_alpha")
            if not ((value > 0 if positive else value >= 0) and value < np.inf):
                sign = "> 0" if positive else ">= 0"
                raise SlabflowError(f"{key} must be {sign} and finite, got {value}")
        if len(self.components) != (needed := self.dim if self.kind == "custom" else 0):
            raise SlabflowError(
                f"{self.kind} flux needs {needed} component expression(s), got {len(self.components)}"
            )

    @cached_property
    def law(self):
        """The flux law, built once: the given components, or the kind's template."""
        if self.kind == "custom":
            return _law(self.components)
        return _template(self.kind, self.p, self.eps_reg, self.dim)

    # -- constructors -------------------------------------------------------

    @staticmethod
    def p_laplacian(p, dim=1, eps_reg=None):
        return FluxModel("p_laplacian", float(p), dim, eps_reg)

    @staticmethod
    def linear_diffusion(dim=1):
        return FluxModel("linear_diffusion", 2.0, dim)

    @staticmethod
    def z_modulated(p, dim=1, eps_reg=None):
        return FluxModel("z_modulated", float(p), dim, eps_reg)

    @staticmethod
    def custom(components, p, dim=1, **constants):
        """One expression per component; ``constants`` are the fields from eps_reg on."""
        return FluxModel("custom", float(p), dim, components=tuple(components), **constants)

    @cached_property
    def constant_jacobian(self):
        """Whether dA/d(z, xi) is one constant: every derivative tree of the law is a number."""
        return all(isinstance(tree, Num) for row in self.law.dxi for tree in row + self.law.dz)

    def modulus(self, r):
        """Continuity-in-(t, x) modulus omega(r); identically 0 by default."""
        r = np.asarray(r, dtype=float)
        if self.time_modulus is None:
            return np.zeros_like(r)
        return np.asarray(eval_expr(self.time_modulus, {"r": r}), dtype=float)


def _at_points(flux, trees, t, x, z, xi, slope=False):
    """``trees`` of the law at many points, one column each: ``x``, ``xi`` (n, dim)
    and ``z`` (n,) arrays, ``t`` scalar or (n,).  Where the law's radius is 0
    each tree takes its limit, 0; ``slope`` marks dA/dxi trees, which have none
    there for p < 2."""
    env = {"t": t, "z": z, "x": x[:, 0], "xi1": xi[:, 0], "y": 0.0, "xi2": 0.0}
    if flux.dim == 2:
        env.update(y=x[:, 1], xi2=xi[:, 1])
    out = np.zeros((len(trees), len(z)))  # one row per tree, returned as columns
    rows = slice(None)
    if flux.law.radius is not None and not np.all(s := eval_expr(flux.law.radius, env)):
        if slope and flux.p < 2.0:
            raise JacobianSingularError(f"gradient Jacobian singular at xi=0 for p={flux.p} without regularisation")
        rows = s != 0.0
        env = {k: v[rows] if np.ndim(v) else v for k, v in env.items()}
    for k, tree in enumerate(trees):
        out[k, rows] = eval_expr(tree, env)
    return out.T


def evaluate_many(flux, t, x, z, xi, axis=None):
    """A(t, x, z, xi) at many points, (n, dim), or A_axis alone, (n,), given
    ``axis`` (arguments as in :func:`_at_points`)."""
    if axis is None:
        return _at_points(flux, flux.law.components, t, x, z, xi)
    return _at_points(flux, flux.law.components[axis:axis + 1], t, x, z, xi)[:, 0]


def _diag_jacobian_many(flux, t, x, z, xi, axis):
    """d(A_axis)/d(xi_axis) at many points (used for the Newton stencil)."""
    return _at_points(flux, flux.law.dxi[axis][axis:axis + 1], t, x, z, xi, slope=True)[:, 0]


def _offdiag_jacobian_many(flux, t, x, z, xi, axis, other):
    """d(A_axis)/d(xi_other), other != axis, at many points."""
    return _at_points(flux, flux.law.dxi[axis][other:other + 1], t, x, z, xi, slope=True)[:, 0]


def _dz_many(flux, t, x, z, xi, axis):
    """d(A_axis)/dz at many points (z enters the stencil via face means)."""
    return _at_points(flux, flux.law.dz[axis:axis + 1], t, x, z, xi)[:, 0]


# ---------------------------------------------------------------------------
# Structure checking


@dataclass(frozen=True)
class ConditionResult:
    margin: float
    passed: bool


@dataclass(frozen=True)
class StructureReport:
    """Sampled worst-case margins of the flux structure conditions.

    A margin is how far the inequality held at its worst sample
    (nonnegative = satisfied); ``passed`` allows roundoff slack of
    ``STRUCTURE_TOLERANCE``.  Deterministic for a fixed seed.
    """

    kind: str
    p: float
    samples: int
    seed: int
    conditions: dict

    @property
    def passed(self):
        return all(c.passed for c in self.conditions.values())

    def summary_lines(self):
        lines = []
        for name, cond in self.conditions.items():
            status = "PASS" if cond.passed else "FAIL"
            lines.append(f"{status} {name:16s} margin={cond.margin: .6e}")
        return lines


SAMPLE_BOX = {"t": (0.0, 1.0), "x": (-1.0, 1.0), "z": (-2.0, 2.0), "xi": (-2.0, 2.0)}


def check_structure(flux, samples=10000, seed=0):
    """Sample the structure conditions over ``SAMPLE_BOX``.

    Checked, each at ``samples`` seeded draws:

    - growth:        |A| <= c |xi|^(p-1) + b
    - coercivity:    A . xi >= alpha |xi|^p - d
    - monotonicity:  (A(xi) - A(eta)) . (xi - eta) >= 0
    - continuity:    |A(t,x,z,xi) - A(s,y,w,xi)| <= (omega(|t-s| + |x-y|) + C |z-w|) |xi|^(p-1)
    - zero_at_zero:  A(.,.,.,0) = 0
    - nonneg_pairing: A . xi >= 0
    """
    for key, value, least in (("samples", samples, 1), ("seed", seed, 0)):
        if not integer_at_least(value, least):
            raise SlabflowError(f"{key} must be at least {least}, got {value!r}")
    rng = np.random.default_rng(seed)
    n, d = samples, flux.dim

    def draw(key, shape):
        lo, hi = SAMPLE_BOX[key]
        return rng.uniform(lo, hi, shape)

    t1, t2 = draw("t", n), draw("t", n)
    x1, x2 = draw("x", (n, d)), draw("x", (n, d))
    z1, z2 = draw("z", n), draw("z", n)
    xi1, xi2 = draw("xi", (n, d)), draw("xi", (n, d))

    a1 = evaluate_many(flux, t1, x1, z1, xi1)
    mag1 = np.linalg.norm(a1, axis=-1)
    nrm1 = np.linalg.norm(xi1, axis=-1)
    pairing = np.sum(a1 * xi1, axis=-1)

    conditions = {}

    def record(name, margins):
        margin = float(margins[np.argmin(margins)])  # the worst sample's value, signed zero included
        conditions[name] = ConditionResult(margin=margin, passed=margin >= -STRUCTURE_TOLERANCE)

    record(
        "growth",
        flux.growth_c * nrm1 ** (flux.p - 1.0) + flux.lower_b - mag1,
    )
    record(
        "coercivity",
        pairing - flux.coercivity_alpha * nrm1**flux.p + flux.lower_d,
    )
    a_other = evaluate_many(flux, t1, x1, z1, xi2)
    record(
        "monotonicity",
        np.sum((a1 - a_other) * (xi1 - xi2), axis=-1),
    )
    a_moved = evaluate_many(flux, t2, x2, z2, xi1)
    r = np.abs(t1 - t2) + np.linalg.norm(x1 - x2, axis=-1)
    allowance = (flux.modulus(r) + flux.z_lipschitz * np.abs(z1 - z2)) * nrm1 ** (flux.p - 1.0)
    record(
        "continuity",
        allowance - np.linalg.norm(a1 - a_moved, axis=-1),
    )
    a_zero = evaluate_many(flux, t1, x1, z1, np.zeros((n, d)))
    record("zero_at_zero", -np.linalg.norm(a_zero, axis=-1))
    record("nonneg_pairing", pairing)

    return StructureReport(kind=flux.kind, p=flux.p, samples=n, seed=seed, conditions=conditions)
