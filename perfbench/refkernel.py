"""The reference kernel and reference-normalized timing.

The host's CPU speed drifts by tens of percent between and within runs,
without steal.  A CPU-bound kernel timed alone repeats no better than
that drift.  The benchmark therefore runs a fixed reference kernel in
the same ~100 ms-interleaved windows as the kernels it measures, and
reports each kernel's time as a multiple of the reference's time,
converted to seconds at a nominal reference speed frozen here.  Both
drift together, so the ratio holds still while each raw time moves.

The reference uses only the standard library and never imports the
program: a change to the program cannot change the yardstick.  Its work
(an ``html.parser`` pass over fixed synthetic pages) resembles the
program's hot path (HTML stripping) in kind but not in code.
"""

from __future__ import annotations

import random
import statistics
import time
from html.parser import HTMLParser

REF_PAGES = 200
# The reference pass's time at the nominal speed.  Frozen: changing it
# rescales every ``*_per_ref_s`` metric.  (About the pass time on a
# 4-CPU x86-64 VM, whose median drifted between 48 and 76 ms; any fixed
# value would serve.)
REF_NOMINAL_S = 0.050


class _Counter(HTMLParser):
    def __init__(self):
        super().__init__(convert_charrefs=True)
        self.tags = 0
        self.chars = 0

    def handle_starttag(self, tag, attrs):
        self.tags += 1

    def handle_data(self, data):
        self.chars += len(data.strip())


def _pages() -> list[str]:
    rng = random.Random(7)
    words = ("alpha beta gamma delta epsilon zeta eta theta iota kappa "
             "lambda mu nu xi omicron pi rho sigma tau upsilon").split()
    pages = []
    for _ in range(REF_PAGES):
        p = ["<html><head><title>t</title><script>var a=1;</script>"
             "</head><body><nav>"]
        p += [f'<a href="/{i}">{rng.choice(words)}</a>' for i in range(6)]
        p.append("</nav><div>")
        for _ in range(12):
            body = " ".join(rng.choice(words) for _ in range(rng.randint(8, 30)))
            p.append(f"<p>{body} &amp; <b>{rng.choice(words)}</b></p>")
        p.append("</div><footer>f</footer></body></html>")
        pages.append("".join(p))
    return pages


class Reference:
    """One call = one pass over the fixed pages; returns its seconds."""

    def __init__(self):
        self.pages = _pages()

    def __call__(self) -> float:
        t0 = time.perf_counter()
        parser = _Counter()
        for page in self.pages:
            parser.feed(page)
        parser.close()
        dt = time.perf_counter() - t0
        if parser.tags == 0:
            raise RuntimeError("reference kernel parsed nothing")
        return dt


def spread(values: list[float]) -> float:
    """Inter-quartile distance as a share of the median (0 below 2
    values)."""
    if len(values) < 2:
        return 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return (q3 - q1) / q2 if q2 else 0.0


class Interleaver:
    """Runs measured calls with a reference pass before and after each.

    ``measure(name, fn)`` times ``fn()`` and charges it against the mean
    of the reference passes on either side of it, so a kernel and its
    yardstick share a time window of a few hundred milliseconds.  The
    clock and the reference are injectable for tests.
    """

    def __init__(self, reference=None, clock=time.perf_counter):
        self.reference = reference or Reference()
        self.clock = clock
        self.ref_times: list[float] = []
        # name -> list of (kernel seconds, reference seconds)
        self.pairs: dict[str, list[tuple[float, float]]] = {}
        self._last_ref = None

    def _ref(self) -> float:
        dt = self.reference()
        self.ref_times.append(dt)
        return dt

    def measure(self, name: str, fn):
        """Run ``fn()`` between two reference passes; returns its result."""
        before = self._last_ref if self._last_ref is not None else self._ref()
        t0 = self.clock()
        out = fn()
        dt = self.clock() - t0
        after = self._ref()
        self._last_ref = after
        self.pairs.setdefault(name, []).append((dt, (before + after) / 2))
        return out

    def ref_seconds(self, name: str, first: int = 0, last: int | None = None,
                    step: int = 1) -> float:
        """Nominal seconds of the calls ``first:last:step`` under
        ``name``: their time in reference passes (summed kernel time over
        the mean reference time of their windows) times the nominal
        reference pass time."""
        pairs = self.pairs[name][first:last:step]
        return (sum(k for k, _ in pairs) / sum(r for _, r in pairs)
                * len(pairs) * REF_NOMINAL_S)

    def raw_ref_spread(self) -> float:
        """Spread of the raw reference pass time within this run."""
        return spread(self.ref_times)
