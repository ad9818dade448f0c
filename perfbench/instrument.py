"""Wrappers for the traced run: which netvec calls become spans, and the
counts recorded at each boundary.

Span names are `<layer>.<step>`, layer being the netvec module whose work the
call does; `apply_update` counts as trie work because it mutates the trie
(rewrite alignment included). Functions that other modules import by name
are wrapped in every namespace that calls them.
"""

from __future__ import annotations

import importlib

from netvec import dataset, verify as V

from spans import TOTAL

R = importlib.import_module("netvec.rectify")   # the package re-exports a function of that name


def _m_and_visits(tracer, span, args, kwargs, token, result):
    tracer.count("trie.m", result.m, span)
    tracer.count("trie.visits", args[0].trie.last_affected_visits, span)


def _session_built(tracer, span, args, kwargs, token, result):
    tracer.count("verify.session_ports", len(result.affected.p_affected), span)
    if len(args) < 2 and not kwargs:
        tracer.count("verify.root_session_us", tracer.spans[span][TOTAL] / 1000, span)


def _own_touched(args, kwargs):
    """Give the query a fresh `touched` set so its own ports can be counted."""
    session = args[0]
    saved = session.touched
    session.touched = set()
    return saved


def _touched(tracer, span, args, kwargs, saved, result):
    session = args[0]
    touched = len(session.touched)
    tracer.count("verify.ports_touched", touched, span)
    tracer.count("verify.port_use_ratio", touched / max(1, len(session.affected.p_affected)), span)
    saved |= session.touched
    session.touched = saved


def _reach(tracer, span, args, kwargs, saved, result):
    _touched(tracer, span, args, kwargs, saved, result)
    tracer.count("verify.paths_explored", result.paths_explored, span)


def install(tracer) -> None:
    w = tracer.wrap
    w(dataset, "parse_network", "dataset.parse")
    w(V.NetworkState, "from_spec", "verify.from_spec")
    w(V.NetworkState, "apply_update", "trie.apply")
    w(V.NetworkState, "affected_for", "trie.affected", after=_m_and_visits)
    w(V.NetworkState, "session", "verify.session", after=_session_built)
    for module in (V, R):
        w(module, "verify_reachability", "verify.reach", before=_own_touched, after=_reach)
        w(module, "apply_transform", "vectors.transform", aggregate=True)
    w(V, "detect_loop", "verify.loop", before=_own_touched, after=_touched)
    w(V, "detect_blackhole", "verify.blackhole", before=_own_touched, after=_touched)
    w(V, "merge_affected", "verify.merge")
    w(V, "batch_update", "verify.batch")
    w(R, "rectify", "rectify.rectify",
      after=lambda t, s, a, k, tok, res: t.count("rectify.fixes", len(res.fixes), s))
    w(R, "path_quality", "rectify.path_quality",
      after=lambda t, s, a, k, tok, res: t.count("rectify.candidates", len(res), s))
    w(R, "cover_classes", "rectify.cover_classes", aggregate=True)
    w(R, "apply_fixes", "rectify.apply_fixes")
