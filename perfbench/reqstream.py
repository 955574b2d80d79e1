"""Seeded request stream and percentile rule of the serve_mix workload.

Request lines use the unp_query vocabulary.  Two kinds:

* distinct predicate requests, ``1 - SECTION_SHARE`` of the stream.  Each
  carries a random time window, so no line repeats: every one misses the
  server's ResultCache and costs a store scan.
    - ``COUNT_SHARE``: ``--count`` over a window of 90 to 360 days, half of
      them narrowed to a blade, a fault class or a bit range.  Most of the
      stream is this one kind, so the median request is a count whose cost
      is mostly column decode, not a boundary between two kinds;
    - ``LISTING_SHARE``: a ``--limit 5|10|20`` row listing over a window of
      an hour to a week, narrowed the same way;
    - the rest, ``HEAVY_SHARE``: a ``--limit 100`` listing over nearly the
      whole campaign, which materializes every row (about 15 ms of decode
      and projection on one core).  These set the p99: at 1000 requests a
      phase they are about 27 of them, well over the ten beyond a p99.
* repeated section renders, ``SECTION_SHARE`` of the stream, drawn from a
  small fixed set of ``--fig N``, ``--tab1``, ``--headline`` and ``--ext
  ecc`` lines.  They recur often enough that the server's 256-entry cache
  mostly keeps them while the distinct lines churn through it.  The stream
  opens with ``HERD``: every section line twice, side by side, due
  together, so both copies miss the cold cache and render (the herd that a
  server-side single-flight would halve).
"""

import math
import random

# Campaign window of the study (2015-02-01 .. 2016-03-01 UTC), epoch seconds.
WINDOW_START = 1422748800
WINDOW_END = 1456790400
DAY = 86400
BLADES = 63
CLASSES = ("single", "double", "few", "many", "multi")

SECTIONS = ("--ext ecc", "--fig 3", "--headline", "--fig 4", "--fig 12",
            "--tab1")
SECTION_SHARE = 0.10
# Shares among the predicate requests.
COUNT_SHARE = 0.80
LISTING_SHARE = 0.17
HEAVY_SHARE = 1.0 - COUNT_SHARE - LISTING_SHARE
HERD_LINES = tuple(line for line in SECTIONS for _ in range(2))
HERD = len(HERD_LINES)


def _filter(rng):
    narrow = rng.random()
    if narrow < 0.5 / 3:
        return " --blade %d" % rng.randrange(BLADES)
    if narrow < 1.0 / 3:
        return " --class %s" % rng.choice(CLASSES)
    if narrow < 0.5:
        lo = rng.randint(1, 4)
        return " --min-bits %d --max-bits %d" % (lo, rng.randint(lo, 8))
    return ""


def _window(rng, span):
    since = rng.randrange(WINDOW_START, WINDOW_END - span)
    return "--since %d --until %d" % (since, since + span)


def predicate_line(rng):
    """One random predicate request: a count, a listing or a heavy listing."""
    kind = rng.random()
    if kind < COUNT_SHARE:
        span = rng.randrange(90 * DAY, 360 * DAY)
        return _window(rng, span) + _filter(rng) + " --count"
    if kind < COUNT_SHARE + LISTING_SHARE:
        span = rng.randrange(3600, 7 * DAY)
        return (_window(rng, span) + _filter(rng)
                + " --limit %d" % rng.choice((5, 10, 20)))
    since = WINDOW_START + rng.randrange(0, 5 * DAY)
    until = WINDOW_END - rng.randrange(0, 5 * DAY)
    return "--since %d --until %d --limit 100" % (since, until)


def is_heavy(line):
    return line.endswith("--limit 100")


class RequestStream:
    """Deterministic source of request lines for one seed.

    The first lines drawn are the herd (``started`` turns true once they
    are out); predicate lines never repeat.
    """

    def __init__(self, seed):
        self._rng = random.Random(seed)
        self._seen = set()
        self.started = False

    def _distinct(self):
        while True:
            line = predicate_line(self._rng)
            if line not in self._seen:
                self._seen.add(line)
                return line

    def lines(self, count):
        out = []
        if not self.started:
            out = list(HERD_LINES[:count])
            self.started = True
        while len(out) < count:
            if self._rng.random() < SECTION_SHARE:
                out.append(self._rng.choice(SECTIONS))
            else:
                out.append(self._distinct())
        return out


def phase_schedule(stream, phase, rate, duration_s, offset_s):
    """(due_s, phase, line) rows at a fixed ``rate`` for ``duration_s``,
    the first due at ``offset_s``.  Lines drawn before the rest of the
    stream (the herd) are all due at ``offset_s``."""
    herd = 0 if stream.started else HERD
    lines = stream.lines(int(round(rate * duration_s)))
    rows = []
    for i, line in enumerate(lines):
        due = offset_s + (0.0 if i < herd else (i - herd) / rate)
        rows.append((due, phase, line))
    return rows


def is_section(line):
    return line in SECTIONS


def nearest_rank(sorted_values, p):
    """Nearest-rank ``p``-th percentile of ascending ``sorted_values``, and
    how many samples lie beyond it."""
    n = len(sorted_values)
    rank = max(1, math.ceil(round(p / 100.0 * n, 9)))
    return sorted_values[rank - 1], n - rank


def percentile_with_tail(values, p, min_beyond=10):
    """The ``p``-th percentile if at least ``min_beyond`` samples lie beyond
    it, else None."""
    if not values:
        return None
    value, beyond = nearest_rank(sorted(values), p)
    return value if beyond >= min_beyond else None


def highest_percentile(values, candidates=(99.9, 99.0, 95.0, 90.0, 50.0),
                       min_beyond=10):
    """(p, value) for the highest candidate percentile with at least
    ``min_beyond`` samples beyond it; None when no candidate qualifies."""
    ordered = sorted(values)
    for p in candidates:
        if not ordered:
            break
        value, beyond = nearest_rank(ordered, p)
        if beyond >= min_beyond:
            return p, value
    return None
