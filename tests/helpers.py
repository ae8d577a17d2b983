"""Builders shared by the test modules."""

from slabflow import IntervalTrack, TimeDomain, TrackSegment, parse_expr

T_ = ("t",)


def interval_domain(left, right, horizon, jumps=()):
    """One moving interval [left, right] on [0, horizon]; each jump is a
    (start, left, right) triple, endpoints as expression text in t."""
    segs = [TrackSegment(0.0, parse_expr(left, T_), parse_expr(right, T_))]
    for start, jl, jr in jumps:
        segs.append(TrackSegment(start, parse_expr(jl, T_), parse_expr(jr, T_)))
    return TimeDomain.moving_intervals([IntervalTrack(segments=tuple(segs))], horizon)
