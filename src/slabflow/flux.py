"""Nonlinear flux models A(t, x, z, xi) and their structural checks.

Builtin kinds (all with the gradient regularised through
s = |xi|^2 + eps_reg^2):

    p_laplacian       A = s^((p-2)/2) * xi
    linear_diffusion  A = xi                     (p = 2)
    z_modulated       A = (1 + sin(z)^2 / 2) * s^((p-2)/2) * xi

plus ``custom`` fluxes given as one expression per component over
t, x, y, z, xi1, xi2.  Builtins carry their structural constants
(growth, coercivity, offsets, z-Lipschitz bound, time modulus); custom
fluxes declare them and ``check_structure`` samples whether the declared
inequalities actually hold.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import JacobianSingularError, SlabflowError
from .expressions import evaluate as eval_expr
from .geometry import Grid

STRUCTURE_TOLERANCE = 1e-12  # slack for roundoff + O(eps_reg^(p-1)) regularisation
FD_STEP = 1e-6  # central differences step FD_STEP * (1 + |slot|) per point


@dataclass(frozen=True)
class FluxModel:
    """A flux together with the constants of its structure conditions."""

    kind: str
    p: float
    dim: int = 1
    eps_reg: float = 1e-8
    growth_c: float = 1.0
    coercivity_alpha: float = 1.0
    lower_b: float = 0.0
    lower_d: float = 0.0
    z_lipschitz: float = 0.0
    time_modulus: object = None  # expression in r, or None for 0
    components: tuple = ()  # custom only: expression per component

    BUILTIN_KINDS = ("p_laplacian", "linear_diffusion", "z_modulated")
    KINDS = BUILTIN_KINDS + ("custom",)

    @classmethod
    def check_kind(cls, kind):
        if kind not in cls.KINDS:
            raise SlabflowError(f"unknown flux kind {kind!r}, expected one of {', '.join(cls.KINDS)}")

    def __post_init__(self):
        self.check_kind(self.kind)
        if not 1 < self.p < np.inf:
            raise SlabflowError(f"p must exceed 1 and be finite, got {self.p}")
        if self.kind == "linear_diffusion" and self.p != 2:
            raise SlabflowError(f"linear_diffusion requires p = 2, got {self.p}")
        Grid.check_dim(self.dim)
        if not 0 <= self.eps_reg < np.inf:
            raise SlabflowError(f"eps_reg must be >= 0 and finite, got {self.eps_reg}")
        for key in ("growth_c", "coercivity_alpha", "lower_b", "lower_d", "z_lipschitz"):
            value, positive = getattr(self, key), key in ("growth_c", "coercivity_alpha")
            if not ((value > 0 if positive else value >= 0) and value < np.inf):
                sign = "> 0" if positive else ">= 0"
                raise SlabflowError(f"{key} must be {sign} and finite, got {value}")
        if self.kind == "custom" and len(self.components) != self.dim:
            raise SlabflowError(
                f"custom flux needs {self.dim} component expression(s), got {len(self.components)}"
            )

    # -- constructors -------------------------------------------------------

    @staticmethod
    def p_laplacian(p, dim=1, eps_reg=1e-8):
        return FluxModel(kind="p_laplacian", p=float(p), dim=dim, eps_reg=float(eps_reg))

    @staticmethod
    def linear_diffusion(dim=1):
        return FluxModel(kind="linear_diffusion", p=2.0, dim=dim, eps_reg=0.0)

    @staticmethod
    def z_modulated(p, dim=1, eps_reg=1e-8):
        # modulation m(z) = 1 + sin(z)^2/2 in [1, 3/2], |m'| <= 1
        return FluxModel(
            kind="z_modulated", p=float(p), dim=dim, eps_reg=float(eps_reg),
            growth_c=1.5, coercivity_alpha=1.0, z_lipschitz=1.0,
        )

    @staticmethod
    def custom(components, p, dim=1, eps_reg=1e-8, growth_c=1.0, coercivity_alpha=1.0,
               lower_b=0.0, lower_d=0.0, z_lipschitz=0.0, time_modulus=None):
        return FluxModel(
            kind="custom", p=float(p), dim=dim, eps_reg=float(eps_reg),
            growth_c=float(growth_c), coercivity_alpha=float(coercivity_alpha),
            lower_b=float(lower_b), lower_d=float(lower_d),
            z_lipschitz=float(z_lipschitz), time_modulus=time_modulus,
            components=tuple(components),
        )

    @property
    def is_builtin(self):
        return self.kind != "custom"

    @property
    def couples_gradient_slots(self):
        """Whether dA_a/dxi_b (a != b) can be nonzero: not for a p = 2 builtin, A = m(z) xi."""
        return not (self.is_builtin and self.p == 2.0)

    @property
    def constant_jacobian(self):
        """Whether dA/d(z, xi) is one constant: a p = 2 builtin whose modulation ignores z, A = xi."""
        return self.is_builtin and self.p == 2.0 and self.kind != "z_modulated"

    def modulus(self, r):
        """Continuity-in-(t, x) modulus omega(r); identically 0 by default."""
        r = np.asarray(r, dtype=float)
        if self.time_modulus is None:
            return np.zeros_like(r)
        return np.asarray(eval_expr(self.time_modulus, {"r": r}), dtype=float)


def _modulation(flux, z):
    if flux.kind == "z_modulated":
        return 1.0 + 0.5 * np.sin(z) ** 2
    return np.ones_like(z)


def _custom_env(flux, t, x, z, xi):
    env = {"t": t, "x": x[..., 0], "z": z, "xi1": xi[..., 0]}
    if flux.dim == 2:
        env["y"] = x[..., 1]
        env["xi2"] = xi[..., 1]
    else:
        env["y"] = np.zeros_like(env["x"])
        env["xi2"] = np.zeros_like(env["xi1"])
    return env


def _radial(flux, xi, slope=False):
    """g(s) = s^((p-2)/2) at s = |xi|^2 + eps_reg^2 and, with ``slope``, 2 g'(s):
    A = m g xi and dA/dxi = m (g I + 2g' xi xi^T).  At s = 0 (xi = 0, no
    regularisation) both take their limits, g = 1 for p = 2 else 0 and
    2g' = 0; for p < 2 dA/dxi has none, so ``slope`` raises."""
    s = np.sum(xi * xi, axis=-1) + flux.eps_reg**2
    pos = s > 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        g = np.where(pos, s ** (0.5 * (flux.p - 2.0)), 1.0 if flux.p == 2.0 else 0.0)
        if not slope:
            return g
        if flux.p < 2.0 and not np.all(pos):
            raise JacobianSingularError(
                f"gradient Jacobian singular at xi=0 for p={flux.p} without regularisation"
            )
        return g, np.where(pos, (flux.p - 2.0) * s ** (0.5 * (flux.p - 4.0)), 0.0)


def evaluate_many(flux, t, x, z, xi):
    """Vectorised flux evaluation.

    ``x``, ``xi``: (n, dim); ``z``: (n,); ``t``: scalar or (n,).
    Returns (n, dim).  The gradient slot is total for every p > 1: at
    s = 0 the continuous extension A = 0 is used.
    """
    x = np.asarray(x, dtype=float)
    z = np.asarray(z, dtype=float)
    xi = np.asarray(xi, dtype=float)
    if flux.kind == "custom":
        out = [
            np.asarray(eval_expr(comp, _custom_env(flux, t, x, z, xi)), dtype=float)
            for comp in flux.components
        ]
        return np.stack(np.broadcast_arrays(*out, z * 0.0)[: flux.dim], axis=-1)
    if flux.kind == "linear_diffusion":
        return xi.copy()
    return (_modulation(flux, z) * _radial(flux, xi))[..., None] * xi


def _central(flux, t, x, z, xi, slot):
    """dA/d(slot) at many points, (n, dim), by central differences with the
    per-point step FD_STEP * (1 + |slot|); slot 0 is z, slot 1 + a is xi_a."""
    w = np.column_stack([z, xi])
    step = FD_STEP * (1.0 + np.abs(w[:, slot]))
    hi, lo = w.copy(), w.copy()
    hi[:, slot] += step
    lo[:, slot] -= step
    fhi, flo = (evaluate_many(flux, t, x, v[:, 0], v[:, 1:]) for v in (hi, lo))
    return (fhi - flo) / (2.0 * step)[:, None]


def _diag_jacobian_many(flux, t, x, z, xi, axis):
    """d(A_axis)/d(xi_axis) at many points (used for the Newton stencil)."""
    if flux.kind == "custom":
        return _central(flux, t, x, z, xi, 1 + axis)[:, axis]
    if flux.p == 2.0:  # m exactly: 2g' = 0, and forming s could overflow
        return _modulation(flux, z)
    g, gp2 = _radial(flux, xi, slope=True)
    return _modulation(flux, z) * (g + gp2 * xi[:, axis] ** 2)


def _offdiag_jacobian_many(flux, t, x, z, xi, axis, other):
    """d(A_axis)/d(xi_other), other != axis, at many points; exactly 0 for p = 2 builtins."""
    if flux.kind == "custom":
        return _central(flux, t, x, z, xi, 1 + other)[:, axis]
    if not flux.couples_gradient_slots:
        return np.zeros(len(xi))
    return _modulation(flux, z) * (_radial(flux, xi, slope=True)[1] * (xi[:, axis] * xi[:, other]))


def _dz_many(flux, t, x, z, xi, axis):
    """d(A_axis)/dz at many points (z enters the stencil via face means)."""
    if flux.kind == "custom":
        return _central(flux, t, x, z, xi, 0)[:, axis]
    if flux.kind != "z_modulated":
        return np.zeros(len(xi))
    return np.sin(z) * np.cos(z) * _radial(flux, xi) * xi[:, axis]


# ---------------------------------------------------------------------------
# Structure checking


@dataclass(frozen=True)
class ConditionResult:
    margin: float
    passed: bool
    worst: dict = field(compare=False, default_factory=dict)


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


def _worst(margins, idx_args):
    i = int(np.argmin(margins))
    return float(margins[i]), {k: (v[i].copy() if hasattr(v[i], "copy") else v[i]) for k, v in idx_args.items()}


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

    def record(name, margins, **args):
        margin, worst = _worst(margins, args)
        conditions[name] = ConditionResult(margin=margin, passed=margin >= -STRUCTURE_TOLERANCE, worst=worst)

    record(
        "growth",
        flux.growth_c * nrm1 ** (flux.p - 1.0) + flux.lower_b - mag1,
        t=t1, x=x1, z=z1, xi=xi1,
    )
    record(
        "coercivity",
        pairing - flux.coercivity_alpha * nrm1**flux.p + flux.lower_d,
        t=t1, x=x1, z=z1, xi=xi1,
    )
    a_other = evaluate_many(flux, t1, x1, z1, xi2)
    record(
        "monotonicity",
        np.sum((a1 - a_other) * (xi1 - xi2), axis=-1),
        t=t1, x=x1, z=z1, xi=xi1, eta=xi2,
    )
    a_moved = evaluate_many(flux, t2, x2, z2, xi1)
    r = np.abs(t1 - t2) + np.linalg.norm(x1 - x2, axis=-1)
    allowance = (flux.modulus(r) + flux.z_lipschitz * np.abs(z1 - z2)) * nrm1 ** (flux.p - 1.0)
    record(
        "continuity",
        allowance - np.linalg.norm(a1 - a_moved, axis=-1),
        t=t1, s=t2, x=x1, y_pt=x2, z=z1, w=z2, xi=xi1,
    )
    a_zero = evaluate_many(flux, t1, x1, z1, np.zeros((n, d)))
    record("zero_at_zero", -np.linalg.norm(a_zero, axis=-1), t=t1, x=x1, z=z1)
    record("nonneg_pairing", pairing, t=t1, x=x1, z=z1, xi=xi1)

    return StructureReport(kind=flux.kind, p=flux.p, samples=n, seed=seed, conditions=conditions)
