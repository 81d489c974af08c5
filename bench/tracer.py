"""In-process span tracer for the benchmark's traced run.

The tracer wraps public functions of ``lia`` from outside the package: it
replaces each target at every module attribute that holds it, because
``from .x import y`` copies the binding into the importing module.  Every
call records a span (name, start, end, id, parent id).  Each thread keeps
its own span stack, so spans from worker threads never interleave with the
caller's; a span opened on an empty stack in another thread takes as parent
the innermost open span of the thread that created the tracer (the one
that submitted the work).  Spans and counters stay in memory until
``dump`` writes them out at the end of the run.

Run as a script it is the traced child: it times ``import lia``, installs
the tracer, runs one CLI command in-process and writes its spans.

    python3 bench/tracer.py SPANS_JSON -- CLI_ARGS...
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time


class _ThreadState:
    __slots__ = ("stack", "spans", "counters")

    def __init__(self):
        self.stack: list[int] = []
        self.spans: list[tuple] = []
        self.counters: dict[str, dict] = {}


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._registry_lock = threading.Lock()
        self._states: list[_ThreadState] = []
        self._ids = itertools.count(1)
        self._patched: list[tuple[object, str, object]] = []
        self.missing: list[str] = []
        self._owner = self._state()

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "state", None)
        if st is None:
            st = _ThreadState()
            with self._registry_lock:
                self._states.append(st)
            self._local.state = st
        return st

    def wrap(self, name: str, fn, count=None):
        """Return ``fn`` recording a span per call, plus ``count``'s counters.

        ``count(counters, args, kwargs, result)`` adds to a per-thread dict.
        """
        owner = self._owner

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            st = self._state()
            if st.stack:
                parent = st.stack[-1]
            else:
                parent = owner.stack[-1] if (st is not owner and owner.stack) else 0
            sid = next(self._ids)
            st.stack.append(sid)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                st.stack.pop()
                st.spans.append((name, t0, t1, sid, parent))
            if count is not None:
                count(st.counters.setdefault(name, {}), args, kwargs, result)
            return result

        return traced

    def install(self, package: str, targets) -> None:
        """Patch each ``(module, attr_path, name, count)`` target.

        A plain function is replaced at every attribute of every loaded
        ``package`` module that holds it; a method (``Class.method``) is
        replaced on its class.  Targets that do not exist are listed in
        ``missing`` and skipped.
        """
        modules = [m for k, m in list(sys.modules.items()) if k == package or k.startswith(package + ".")]
        for module_name, attr_path, name, count in targets:
            owner = sys.modules.get(module_name)
            *outer, attr = attr_path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.missing.append(name)
                continue
            wrapped = self.wrap(name, original, count)
            if outer:
                self._patch(owner, attr, wrapped)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapped)

    def _patch(self, obj, attr, value) -> None:
        self._patched.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def uninstall(self) -> None:
        for obj, attr, original in reversed(self._patched):
            setattr(obj, attr, original)
        self._patched.clear()

    def spans(self) -> list[tuple]:
        return [s for st in self._states for s in st.spans]

    def counters(self) -> dict[str, dict]:
        merged: dict[str, dict] = {}
        for st in self._states:
            for name, values in st.counters.items():
                into = merged.setdefault(name, {})
                for key, value in values.items():
                    if isinstance(value, set):
                        into[key] = into.get(key, set()) | value
                    else:
                        into[key] = into.get(key, 0) + value
        return merged

    def dump(self, path: str, **extra) -> None:
        counters = {
            name: {k: (len(v) if isinstance(v, set) else v) for k, v in values.items()}
            for name, values in self.counters().items()
        }
        record = dict(extra, missing=self.missing, counters=counters, spans=self.spans())
        with open(path, "w", encoding="ascii") as fh:
            json.dump(record, fh, separators=(",", ":"))


def span_stats(spans) -> dict[str, dict]:
    """Per span name: calls, total_s, self_s and the list of durations.

    Self time is a span's duration minus the part of its interval that its
    children cover; children on other threads may overlap, so the covered
    part is the union of their intervals, clipped to the parent's.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for _, t0, t1, _, parent in spans:
        if parent:
            children.setdefault(parent, []).append((t0, t1))
    stats: dict[str, dict] = {}
    for name, t0, t1, sid, _ in spans:
        covered = 0.0
        end = t0
        for a, b in sorted(children.get(sid, ())):
            a, b = max(a, end), min(b, t1)
            if b > a:
                covered += b - a
                end = b
        s = stats.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "durations": []})
        s["calls"] += 1
        s["total_s"] += t1 - t0
        s["self_s"] += (t1 - t0) - covered
        s["durations"].append(t1 - t0)
    return stats


def _add(counters: dict, key: str, value) -> None:
    counters[key] = counters.get(key, 0) + value


def lia_targets():
    """The layer boundaries traced in ``lia``; import ``lia`` first."""
    import numpy as np
    from lia.macsim import AMBIGUOUS

    def decode(c, args, kwargs, result):
        decoder = args[0]
        pairs = decoder.n_pairs
        _add(c, "pairs_scored", pairs)
        _add(c, "bytes_computed", pairs * decoder.code.n * 8)  # the pairs x n float64 differences
        _add(c, "ambiguous", int(result is AMBIGUOUS))

    def build(c, args, kwargs, result):
        _add(c, "pairs", args[0].n_pairs)
        _add(c, "table_bytes", args[0].psi.nbytes)

    def elems(c, args, kwargs, result):
        _add(c, "elems", int(np.size(args[0])))

    def trials(c, args, kwargs, result):
        _add(c, "trials", result.trials)

    def dependent(c, args, kwargs, result):
        _add(c, "dependent", int(bool(result)))

    def limits(c, args, kwargs, result):
        c.setdefault("distinct_limits", set()).add(int(args[0]))

    def delta_primes(c, args, kwargs, result):
        _add(c, "primes", int(np.size(args[1])))

    def mask(c, args, kwargs, result):
        _add(c, "primes", int(np.size(args[0])))
        _add(c, "admissible", int(np.count_nonzero(result)))

    return [
        ("lia.cli", "main", "cli.main", None),
        ("lia.macsim", "PairDecoder.__init__", "macsim.PairDecoder.build", build),
        ("lia.macsim", "PairDecoder.decode", "macsim.PairDecoder.decode", decode),
        ("lia.macsim", "estimate_error_prob", "macsim.estimate_error_prob", trials),
        ("lia.macsim", "mod_mac_channel", "macsim.mod_mac_channel", None),
        ("lia.modarith", "mod_interval", "modarith.mod_interval", elems),
        ("lia.codes", "encode", "codes.encode", None),
        ("lia.codes", "messages_dependent", "codes.messages_dependent", dependent),
        ("lia.network", "simulate_network", "network.simulate_network", trials),
        ("lia.network", "sum_rate_curves", "network.sum_rate_curves", None),
        ("lia.diophantine", "primes_up_to", "diophantine.primes_up_to", limits),
        ("lia.diophantine", "delta_for_primes", "diophantine.delta_for_primes", delta_primes),
        ("lia.diophantine", "admissible_mask", "diophantine.admissible_mask", mask),
        ("lia.rates", "theorem1_rate", "rates.theorem1_rate", None),
        ("lia.rates", "theorem2_sym_rate", "rates.theorem2_sym_rate", None),
        ("lia.powertime", "schedule_rate", "powertime.schedule_rate", None),
    ]


def main(argv: list[str]) -> int:
    spans_path, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: tracer.py SPANS_JSON -- CLI_ARGS...")
    t0 = time.perf_counter()
    import lia.cli

    import_s = time.perf_counter() - t0
    tracer = Tracer()
    tracer.install("lia", lia_targets())
    try:
        rc = lia.cli.main(cli_args)
    finally:
        sys.stdout.flush()
        tracer.uninstall()
    tracer.dump(spans_path, import_s=import_s)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
