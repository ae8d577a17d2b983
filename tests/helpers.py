"""Builders shared by the test modules."""

from functools import reduce

import numpy as np

from slabflow import (
    Call,
    ImplicitRegion,
    Num,
    TimeDomain,
    bundled_scenario_paths,
    evaluate,
    interval_phi,
    parse_expr,
)

T_ = ("t",)


def interval_domain(left, right, horizon, jumps=()):
    """One moving interval [left, right] on [0, horizon]; each jump is a
    (start, left, right) triple, endpoints as expression text in t."""
    segs = [(0.0, interval_phi(parse_expr(left, T_), parse_expr(right, T_)))]
    for start, jl, jr in jumps:
        segs.append((start, interval_phi(parse_expr(jl, T_), parse_expr(jr, T_))))
    return TimeDomain(float(horizon), 1, tuple(segs))


def one_shot(expr, t, points):
    """``expr`` on (n, dim) ``points`` at time t in one unbound walk: the
    reference that :func:`slabflow.on_points` must equal bitwise."""
    return np.full(len(points), evaluate(expr, {"t": t, **dict(zip("xy", points.T))}), dtype=float)


def union_phi(*intervals):
    """The level set of a union of closed intervals (a, b): the min of their phis."""
    phis = [interval_phi(Num(a), Num(b)) for a, b in intervals]
    return reduce(lambda p, q: Call("min", (p, q)), phis)


def interval_region(*intervals):
    """The frozen 1D section made of ``intervals``."""
    return ImplicitRegion(union_phi(*intervals), 0.0)


def edited(text, edits):
    """``text`` with each ``old: new`` of ``edits`` replaced; every ``old`` must occur."""
    for old, new in edits.items():
        assert old in text, old
        text = text.replace(old, new)
    return text


def bundled_text(name, edits):
    """The text of the bundled scenario ``name``, :func:`edited`."""
    with open(bundled_scenario_paths()[name], encoding="utf-8") as fh:
        return edited(fh.read(), edits)


def disk_jump_text(r_before, r_after, u0="exp(-4*(x^2 + y^2))", psi="0.3"):
    """The bundled disk2d scenario with a disk of radius ``r_before`` that
    jumps to radius ``r_after`` at t = 0.5 (a declared 2D jump)."""
    return bundled_text("disk2d", {
        'phi = "x^2 + y^2 - (0.8 - 0.2*t)^2"':
            f'phi = "x^2 + y^2 - {r_before}^2"\njumps = "0.5: x^2 + y^2 - {r_after}^2"',
        'u0 = "exp(-4*(x^2 + y^2))"': f'u0 = "{u0}"',
        'psi = "0"': f'psi = "{psi}"',
    })
