"""The four tvspec workloads: seeded request lists and their output checks.

A workload is a list of ``Request``s.  Each request is one argv for
``tvspec.cli.main`` plus a check that reads the written output and
returns a list of problems (empty when the output is correct).  Checks
compare with an independent route where there is one (band edges with
the qpoly roots, CSV rows with the scan summary, |Z| at reported zeros)
and otherwise with facts the theory fixes (degree, the condition-class
dichotomy, no unitary energy).  Requests of
one workload reuse one output path: each output is checked before the
next request overwrites it.

A non-zero exit code is a wrong answer, with one exception: the seed
commit refuses some ``qpoly`` requests whose tuple has a multiplicity
of 4.  Aberth raises ``NonConvergenceError`` (exit 3) on some of them
at Im tau <= 0.84, and on a very few, at any Im tau, the held-out
energy check raises ``CheckError`` (exit 2); on seeded taus over 1000
seeds these were the only failures on such tuples.  ``qpoly`` puts these
tuples on fixed taus, where the seed commit refuses two requests, both
with exit 3, for every seed.  A request lists the exit codes
that are known refusals for it in ``refusals``; they count as failed
requests but not as wrong answers, as long as a pass has no more of
them than ``KNOWN_REFUSALS_MAX``.
"""

from __future__ import annotations

import csv
import json
import random
from dataclasses import dataclass, field
from itertools import product

from tvspec import cli
from tvspec.elliptic import make_lattice
from tvspec.premodular import z_n
from tvspec.spectral import condition_class, genus_of

BAND_TUPLES = ((2, 0, 0, 0), (1, 1, 1, 1))
ROUTE_TOL = 1e-8            # route_discrepancy limit, as in `qpoly --route-tol`
EDGE_TOL = 1e-5             # band edge vs polynomial root (test_08 uses it too)
MIN_ABS_N2 = 0.609684254799456   # boundary-scan minimum at the seed commit
MIN_ABS_RTOL = 1e-8
ZERO_RESIDUAL = 1e-8        # |Z^(2)| at a reported interior zero
ABERTH_B = 0.85             # Aberth refusals seen up to Im tau 0.839
HELD_OUT = "held-out energy check failed"
# known refusals in a qpoly pass at the seed commit, on the fixed taus
KNOWN_REFUSALS_MAX = 2


@dataclass
class Outcome:
    """What one request's check found."""

    problems: list = field(default_factory=list)
    unresolved: int = 0     # qpoly answers classified has_multiple


@dataclass
class Request:
    argv: list
    check: object           # (code, out_text, stdout_text) -> Outcome
    refusals: tuple = ()    # exit codes the seed commit refuses with here

    def known_refusal(self, code: int, stderr: str) -> bool:
        """Whether exit ``code`` is one of the seed commit's refusals."""
        return code in self.refusals and (code != 2 or HELD_OUT in stderr)


def _load_json(text: str, outcome: Outcome):
    try:
        return json.loads(text)
    except ValueError as exc:
        outcome.problems.append(f"output is not JSON: {exc}")
        return None


def _real_roots(doc) -> list:
    return sorted(r["re"] for r in doc["roots"])


def _fmt_tau(tau: complex) -> str:
    return f"{tau.real:.6f}{tau.imag:+.6f}i"


# ── qpoly ─────────────────────────────────────────────────────────────────

def qpoly_tuples() -> list:
    """All (n0, n1, n2, n3) with entries <= 4 and 1 <= total <= 6."""
    return [n for n in product(range(5), repeat=4) if 1 <= sum(n) <= 6]


def check_qpoly(n, on_axis: bool):
    g = genus_of(n)
    cc = condition_class(n)

    def check(code, text, _stdout) -> Outcome:
        out = Outcome()
        if code != 0:
            out.problems.append(f"exit code {code}")
            return out
        doc = _load_json(text, out)
        if doc is None:
            return out
        coeffs, roots = doc["coefficients"], doc["roots"]
        if len(coeffs) != 2 * g + 2 or len(roots) != 2 * g + 1:
            out.problems.append(
                f"degree {len(coeffs) - 1} with {len(roots)} roots, "
                f"expected {2 * g + 1}")
            return out
        # tvspec itself exits 2 beyond its --route-tol (1e-8); this
        # catches an answer written with a larger discrepancy
        disc = doc["route_discrepancy"]
        if doc["route_used"] == "both" and (disc is None or disc > ROUTE_TOL):
            out.problems.append(f"route_discrepancy {disc}")
        cls = doc["classification"]
        if cls == "has_multiple":
            out.unresolved = 1
        elif on_axis:
            want = "real_distinct" if cc == "NEITHER" else "has_complex"
            if cls != want:
                out.problems.append(f"{cc} tuple on the imaginary axis "
                                    f"classified {cls}")
        return out

    return check


def stratified(rng: random.Random, lo: float, hi: float, count: int) -> list:
    """``count`` seeded draws from [lo, hi], one in each of ``count`` equal
    slices, in seeded order: the spread of the draws, and so of the work
    they cause, varies little from seed to seed."""
    draws = [lo + (hi - lo) * (k + rng.random()) / count for k in range(count)]
    rng.shuffle(draws)
    return draws


def fixed_taus(count: int) -> list:
    """``count`` taus, the same for every seed: first ``count // 2`` at
    i*b with b evenly spaced over [0.6, 2], then the rest with b and
    Re tau evenly spaced over [0.6, 2] and [-0.5, 0.5], paired in
    opposite order."""
    half = count // 2
    rest = count - half
    on_axis = [complex(0.0, 0.6 + 1.4 * j / (half - 1)) for j in range(half)]
    generic = [complex(-0.5 + j / (rest - 1),
                       2.0 - 1.4 * j / (rest - 1)) for j in range(rest)]
    return on_axis + generic


def qpoly_requests(rng: random.Random, out: str) -> list:
    """Every tuple twice, once on the imaginary axis and once generic,
    in seeded order: 378 requests, the same tuples for every seed.  The
    tuples with a 4, where the seed commit's known refusals lie, sit on
    the fixed taus of ``fixed_taus``: their refusals, and so ``failed``,
    are the same for every seed.  The other tuples take seeded
    stratified b and Re tau."""
    tuples = qpoly_tuples()
    fours = [n for n in tuples if 4 in n]
    others = [n for n in tuples if 4 not in n]
    # a tuple low on the imaginary axis is high off it, and the reverse
    fixed = list(zip(fours + fours, fixed_taus(2 * len(fours))))
    order = rng.sample(others, len(others)) + rng.sample(others, len(others))
    half = len(others)
    bs = stratified(rng, 0.6, 2.0, half) + stratified(rng, 0.6, 2.0, half)
    res = [0.0] * half + stratified(rng, -0.5, 0.5, half)
    draws = fixed + [(order[k], complex(res[k], bs[k])) for k in range(2 * half)]
    rng.shuffle(draws)
    reqs = []
    for n, tau in draws:
        argv = ["qpoly", "--n", ",".join(map(str, n)), "--tau", _fmt_tau(tau),
                "--out", out]
        refusals = ()
        if 4 in n:
            refusals = (2, 3) if tau.imag <= ABERTH_B else (2,)
        reqs.append(Request(argv, check_qpoly(n, tau.real == 0.0), refusals))
    return reqs


# ── bands and unitary ─────────────────────────────────────────────────────

def reference_roots(n, tau_text: str, out: str) -> list:
    """Sorted real parts of Q's roots, from the qpoly subcommand."""
    code = cli.main(["qpoly", "--n", ",".join(map(str, n)), "--tau", tau_text,
                     "--out", out])
    if code != 0:
        raise RuntimeError(f"reference qpoly for {n} at {tau_text} "
                           f"exited {code}")
    with open(out) as fh:
        doc = json.load(fh)
    if doc["classification"] != "real_distinct":
        raise RuntimeError(f"reference roots for {n} at {tau_text} are "
                           f"{doc['classification']}")
    return _real_roots(doc)


def check_bands(roots):
    def check(code, text, _stdout) -> Outcome:
        out = Outcome()
        if code != 0:
            out.problems.append(f"exit code {code}")
            return out
        doc = _load_json(text, out)
        if doc is None:
            return out
        edges = sorted(doc["finite_edges"])
        semi = sum(b["open_left"] or b["open_right"] for b in doc["bands"])
        if semi != 1:
            out.problems.append(f"{semi} semi-infinite bands")
        if len(edges) != len(roots):
            out.problems.append(f"{len(edges)} edges for {len(roots)} roots")
        else:
            err = max(abs(e - r) for e, r in zip(edges, roots))
            if err > EDGE_TOL:
                out.problems.append(f"edge error {err:.2e}")
        if len(doc["rows"]) != 901:
            out.problems.append(f"{len(doc['rows'])} trace rows")
        return out

    return check


def check_unitary(points: int):
    def check(code, text, _stdout) -> Outcome:
        out = Outcome()
        if code != 0:
            out.problems.append(f"exit code {code}")
            return out
        doc = _load_json(text, out)
        if doc is None:
            return out
        if doc["points"] != points or len(doc["rows"]) != points:
            out.problems.append(f"{doc['points']} points")
        if doc["unitary_count"] != 0:
            out.problems.append(f"unitary_count {doc['unitary_count']}")
        return out

    return check


def band_draws(rng: random.Random, ref: str) -> list:
    """(tuple, tau text, sorted roots) for the band tuples at tau = i*b
    with seeded b in [1.0, 1.3]; the second b mirrors the first about
    the middle of the range, so a seed's total work varies less."""
    u = rng.random()
    draws = []
    for n, b in zip(BAND_TUPLES, (1.0 + 0.3 * u, 1.3 - 0.3 * u)):
        tau = _fmt_tau(complex(0.0, b))
        draws.append((n, tau, reference_roots(n, tau, ref)))
    return draws


def window(roots) -> str:
    return f"{roots[0] - 8.0:.6f}:{roots[-1] + 5.0:.6f}"


def bands_requests(rng: random.Random, out: str, ref: str) -> list:
    return [
        Request(["bands", "--n", ",".join(map(str, n)), "--tau", tau,
                 "--E", window(roots) + ":901", "--out", out],
                check_bands(roots))
        for n, tau, roots in band_draws(rng, ref)
    ]


def unitary_requests(rng: random.Random, out: str, ref: str) -> list:
    return [
        Request(["unitary", "--n", ",".join(map(str, n)), "--tau", tau,
                 "--re", window(roots) + ":61", "--im", "-6:6:61",
                 "--out", out],
                check_unitary(61 * 61))
        for n, tau, roots in band_draws(rng, ref)
    ]


# ── premodular ────────────────────────────────────────────────────────────

def check_boundary_scan(code, text, stdout) -> Outcome:
    out = Outcome()
    if code not in (0, 2):
        out.problems.append(f"exit code {code}")
        return out
    doc = _load_json(stdout, out)
    if doc is None:
        return out
    if code != 0 or not doc["passed"]:
        out.problems.append("boundary scan did not pass its floor")
    if doc["points"] != 24000:
        out.problems.append(f"{doc['points']} points")
    if abs(doc["min_abs"] - MIN_ABS_N2) > MIN_ABS_RTOL * MIN_ABS_N2:
        out.problems.append(f"min_abs {doc['min_abs']!r}")
    # the CSV rows must hold every sampled value and the same minimum
    rows = list(csv.DictReader(
        line for line in text.splitlines() if not line.startswith("#")))
    if len(rows) != 24000:
        out.problems.append(f"{len(rows)} CSV rows")
    elif min(float(r["abs"]) for r in rows) != doc["min_abs"]:
        out.problems.append("CSV minimum differs from min_abs")
    return out


def check_zero_find(r: float, s: float, want_zero: bool):
    def check(code, text, _stdout) -> Outcome:
        out = Outcome()
        if code != 0:
            out.problems.append(f"exit code {code}")
            return out
        doc = _load_json(text, out)
        if doc is None:
            return out
        if doc["any_interior_zero"] != want_zero:
            out.problems.append(
                f"interior zero at ({r},{s}): {doc['any_interior_zero']}")
        for t in doc["interior_zeros"]:
            tau = complex(t["re"], t["im"])
            val = abs(z_n(make_lattice(tau), r, s, 2))
            if val > ZERO_RESIDUAL:
                out.problems.append(f"|Z| = {val:.2e} at reported zero {tau}")
        return out

    return check


def premodular_requests(rng: random.Random, out: str, csv_out: str) -> list:
    """The boundary scan, then zero-find-multi with seeded starts at
    (0.15, 0.15) and at (0.3, 0.3)."""
    reqs = [Request(["premodular", "--op", "boundary-scan", "--n", "2",
                     "--format", "csv", "--out", csv_out],
                    check_boundary_scan)]
    for rs, want in (((0.15, 0.15), True), ((0.3, 0.3), False)):
        reqs.append(Request(
            ["premodular", "--op", "zero-find-multi", "--n", "2",
             "--rs", f"{rs[0]},{rs[1]}",
             "--seed", str(rng.randrange(2 ** 31)), "--out", out],
            check_zero_find(*rs, want)))
    return reqs


def make(name: str, seed: int, scratch: str) -> list:
    """The request list of workload ``name`` for ``seed``.  Outputs go to
    files inside ``scratch``."""
    rng = random.Random(f"{name}:{seed}")
    out = f"{scratch}/out.json"
    ref = f"{scratch}/ref.json"
    if name == "qpoly":
        return qpoly_requests(rng, out)
    if name == "bands":
        return bands_requests(rng, out, ref)
    if name == "unitary":
        return unitary_requests(rng, out, ref)
    if name == "premodular":
        return premodular_requests(rng, out, f"{scratch}/out.csv")
    raise ValueError(f"unknown workload {name!r}")
