"""Layer tracing from outside the program.

Wraps public functions of spectral_affine in place: each wrapper replaces
the name in its defining module and in every spectral_affine module that
imported it, so `hadamard.zero_set` and `cli.find_spectrum_set` are
counted too. Self time is a call's duration minus the time of the traced
calls inside it. Functions marked hot are called up to millions of times
per round; they get counts and self time but no span records, which
keeps the spans in memory small. Everything else records a span
(name, start, end, parent span, operation id), written out at the end.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict

# (module, function, hot, result field summed into a counter)
TRACED = (
    ("cli", "parse_problem", False, None),
    ("cli", "emit", False, None),
    ("conjugacy", "spectrality_criterion", False, None),
    ("conjugacy", "make_conjugate", False, None),
    ("hadamard", "find_spectrum_set", False, "examined"),
    ("hadamard", "verify_triple", False, None),
    ("zeros", "zero_set", False, None),
    ("zeros", "is_zero_exact", True, None),
    ("zeros", "mask_eval", True, None),
    ("linalg", "coset_transversal", False, None),
    ("linalg", "is_expanding", True, None),
    ("linalg", "mat_vec", True, None),
    ("linalg", "det_and_adjugate", True, None),
    ("ortho", "zero_membership", True, None),
    ("ortho", "nstar_bounds", False, "search_nodes"),
    ("ortho", "transport_inclusion_check", False, None),
    ("ortho", "nonspectral_certificate", False, None),
    ("fourier", "completeness_scan", False, None),
    ("fourier", "mu_hat_numeric", True, None),
    ("fourier", "suggest_eta", False, None),
    ("fourier", "attractor_sample", False, None),
    ("fourier", "spectrum_candidate", False, None),
)
# counted only where they are called from: reduce_mod1 in ortho is one
# step of a membership walk
CALL_SITES = (("ortho", "reduce_mod1"),)
METHODS = (("ortho", "_Measure", "membership"), ("zeros", "ZeroSet", "__post_init__"))

ROOT = "cli.main"


class Tracer:
    def __init__(self):
        self.stack = [[0.0, None]]  # [child seconds, span id]
        self.op = None
        self.calls: Counter = Counter()
        self.fields: Counter = Counter()
        self.self_raw: defaultdict = defaultdict(float)
        self.spans: list = []

    def wrap(self, name, fn, hot=False, field=None):
        stack, calls, self_raw = self.stack, self.calls, self.self_raw
        clock = time.perf_counter

        if hot:

            def wrapper(*args, **kwargs):
                frame = [0.0, stack[-1][1]]
                stack.append(frame)
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dur = clock() - t0
                    stack.pop()
                    stack[-1][0] += dur
                    self_raw[name] += dur - frame[0]
                    calls[name] += 1

        else:
            spans, fields = self.spans, self.fields

            def wrapper(*args, **kwargs):
                parent = stack[-1][1]
                frame = [0.0, len(spans)]
                spans.append(None)
                stack.append(frame)
                t0 = clock()
                try:
                    out = fn(*args, **kwargs)
                    if field is not None:
                        fields[f"{name}.{field}"] += getattr(out, field)
                    return out
                finally:
                    t1 = clock()
                    dur = t1 - t0
                    stack.pop()
                    stack[-1][0] += dur
                    self_raw[name] += dur - frame[0]
                    calls[name] += 1
                    spans[frame[1]] = (name, t0, t1, parent, self.op)

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        """Wrap every listed function of the currently imported package."""
        mods = {
            name: mod
            for name, mod in sys.modules.items()
            if name == "spectral_affine" or name.startswith("spectral_affine.")
        }
        for mod_name, fn_name, hot, field in TRACED:
            orig = getattr(mods[f"spectral_affine.{mod_name}"], fn_name)
            wrapper = self.wrap(f"{mod_name}.{fn_name}", orig, hot, field)
            for mod in mods.values():
                if getattr(mod, fn_name, None) is orig:
                    setattr(mod, fn_name, wrapper)
        for mod_name, fn_name in CALL_SITES:
            mod = mods[f"spectral_affine.{mod_name}"]
            setattr(mod, fn_name, self.wrap(f"{mod_name}.{fn_name}", getattr(mod, fn_name), True))
        for mod_name, cls_name, meth in METHODS:
            cls = getattr(mods[f"spectral_affine.{mod_name}"], cls_name)
            setattr(cls, meth, self.wrap(f"{mod_name}.{cls_name}.{meth}", getattr(cls, meth), True))

    def take(self) -> dict:
        """Raw self seconds by name since the last take, then reset."""
        out = dict(self.self_raw)
        self.self_raw.clear()
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, span in enumerate(self.spans):
                if span is not None:
                    name, t0, t1, parent, op = span
                    fh.write(json.dumps([i, name, t0, t1, parent, op]) + "\n")

