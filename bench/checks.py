"""Output checks for benchmark jobs, applied outside the timed interval.

Every check reads the job's stdout through `flatten`, which turns a JSON
report and a `--table` report into the same key -> tokens mapping, so one
check serves both formats.  Checks compare against mathematics that holds for
every regular model, never against recorded output, and never depend on how
far the program truncated:

- Betti numbers of P^n are [1] * (n + 1);
- ring and restriction Hilbert entries are min(d + 1, r or k) at every
  reported degree d;
- ideal dimensions are non-decreasing and end at r - |S|;
- verdicts carry the predicted status and witness, Chern classes are members;
- Chern tuples equal the split oracle e_k(tangent weights);
- curve charts are monomials of degree d_i whose points flow back to their
  fixed point under the in-tree `exp_e` oracle;
- Poincare polynomials match Weyl-group enumeration for small groups;
- a malformed spec exits 2 with one JSON `error` line on stderr.

`check` returns None when the job passed, or a one-line reason.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import lru_cache

from borelcurve import action, rootsystems

WEYL_ORACLE_MAX_ORDER = 1200
POSITIVE_ROOTS = {"A": lambda k: k * (k + 1) // 2, "B": lambda k: k * k, "C": lambda k: k * k,
                  "D": lambda k: k * (k - 1), "G2": lambda k: 6, "F4": lambda k: 24}


class CheckFailed(Exception):
    pass


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _flatten_json(prefix: str, obj, out: dict) -> None:
    if isinstance(obj, dict):
        for key in sorted(obj):
            _flatten_json(f"{prefix}.{key}" if prefix else str(key), obj[key], out)
    elif isinstance(obj, list) and any(isinstance(x, (dict, list)) for x in obj):
        for i, item in enumerate(obj):
            _flatten_json(f"{prefix}[{i}]", item, out)
    elif isinstance(obj, list):
        out[prefix] = [str(x) for x in obj]
    else:
        out[prefix] = [str(obj)]


def flatten(stdout: str, table: bool) -> dict[str, list[str]]:
    """Map each leaf key of a report to its value as a list of tokens."""
    out: dict[str, list[str]] = {}
    if table:
        for line in stdout.splitlines():
            key, sep, value = line.partition(" = ")
            _require(sep == " = ", f"unparsable table line {line!r}")
            out[key] = value.split()
        return out
    try:
        _flatten_json("", json.loads(stdout), out)
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"stdout is not JSON: {exc}") from None
    return out


def _ints(report: dict, key: str) -> list[int]:
    _require(key in report, f"missing {key}")
    try:
        return [int(x) for x in report[key]]
    except ValueError:
        raise CheckFailed(f"{key} is not a list of integers: {report[key]}") from None


def _scalar(report: dict, key: str) -> str:
    _require(key in report and len(report[key]) == 1, f"missing scalar {key}")
    return report[key][0]


def _check_betti(report: dict, n: int) -> None:
    _require(_ints(report, "result.betti") == [1] * (n + 1),
             f"betti {report['result.betti']} != [1]*{n + 1}")


def _check_hilbert(report: dict, key: str, rank: int) -> None:
    hil = _ints(report, key)
    _require(len(hil) > 0, f"{key} is empty")
    bad = [d for d, x in enumerate(hil) if x != min(d + 1, rank)]
    _require(not bad, f"{key}[{bad[:1]}] != min(d+1, {rank})")


def _check_verdict(report: dict, prefix: str, status: str, witness) -> None:
    got = _scalar(report, f"{prefix}.status")
    _require(got == status, f"{prefix}.status {got} != {status}")
    got_w = _scalar(report, f"{prefix}.witness")
    _require(got_w == str(witness), f"{prefix}.witness {got_w} != {witness}")


def _elementary(values, k: int) -> Fraction:
    coeffs = [Fraction(1)] + [Fraction(0)] * len(values)
    for v in values:
        for i in range(len(coeffs) - 1, 0, -1):
            coeffs[i] += v * coeffs[i - 1]
    return coeffs[k]


def _check_chern(report: dict, model: dict, k: int) -> None:
    h = sorted(model["h_weights"], reverse=True)
    expected = [_elementary([h[j] - h[i] for i in range(len(h)) if i != j], k)
                for j in range(len(h))]
    got = [Fraction(x) for x in report.get("result.bundles[0].tuple.coeffs", [])]
    _require(got == expected, f"chern tuple {got} != split oracle {expected}")
    _require(_scalar(report, "result.bundles[0].tuple.degree") == str(k), "tuple degree != k")
    _require(_scalar(report, "result.bundles[0].membership") == "True", "membership is not true")


def _check_action_curve(report: dict, model_spec: dict) -> None:
    model = action.model_from_json(model_spec)
    n = model.n
    r = n + 1
    v0 = Fraction(3, 2)
    flow = action.exp_e(model, Fraction(-1) / v0)
    for j in range(r):
        base = f"result.components[{j}]"
        _require(_ints(report, f"{base}.degrees") == list(range(1, n + 1)),
                 f"{base}.degrees != 1..{n}")
        for i in range(n):
            # exp(e/v) is upper triangular: chart i of component j is nonzero iff i < j
            coeffs = [Fraction(c) for c in report.get(f"{base}.chart_coords[{i}]", ["x"])]
            nonzero = [m for m, c in enumerate(coeffs) if c != 0]
            _require(nonzero == ([i + 1] if i < j else []),
                     f"{base}.chart_coords[{i}] is not the expected monomial of degree {i + 1}")
        point = []
        for i in range(r):
            coeffs = [Fraction(c) for c in report.get(f"{base}.homogeneous_coords[{i}]", [])]
            point.append(sum((c * v0 ** m for m, c in enumerate(coeffs)), Fraction(0)))
        image = [sum((row[t] * point[t] for t in range(r)), Fraction(0)) for row in flow]
        support = [t for t, x in enumerate(image) if x != 0]
        _require(support == [j], f"{base} point does not flow back to its fixed point")


@lru_cache(maxsize=None)
def _weyl_oracle(family: str, rank: int):
    return list(rootsystems.weyl_length_genfun(family, rank).coeffs)


def _check_poincare(report: dict, family: str, rank: int) -> None:
    poly = _ints(report, "result.poly")
    order = rootsystems.weyl_order(family, rank)
    if order <= WEYL_ORACLE_MAX_ORDER:
        _require(poly == _weyl_oracle(family, rank), "poly != Weyl enumeration")
    _require(sum(poly) == order, "poly does not sum to |W|")
    _require(len(poly) == POSITIVE_ROOTS[family](rank) + 1, "poly degree != #positive roots")
    _require(poly == poly[::-1], "poly is not palindromic")
    _require(_ints(report, "result.weyl_order") == [order], "weyl_order is wrong")
    _require(len(_ints(report, "result.heights")) == POSITIVE_ROOTS[family](rank),
             "wrong number of heights")


def _check_ok(job, out: str, table: bool) -> None:
    c = job.check
    kind = c["kind"]
    report = flatten(out, table)
    model = c.get("model")
    n = model["n"] if model else None
    if kind == "ring":
        _check_betti(report, n)
        _check_hilbert(report, "result.hilbert", n + 1)
    elif kind == "betti":
        _check_betti(report, n)
    elif kind == "restrict":
        _check_hilbert(report, "result.hilbert", c["size"])
    elif kind == "ideal":
        dims = _ints(report, "result.ideal_hilbert")
        rank = n + 1 - len(c["subset"])
        _require(all(a <= b for a, b in zip(dims, dims[1:])), "ideal_hilbert decreases")
        _require(dims[-1:] == [rank], f"ideal_hilbert does not end at {rank}")
        _require(_ints(report, "result.stabilized_rank") == [rank], "stabilized_rank is wrong")
    elif kind == "principal":
        _check_verdict(report, "result.verdict", c["status"], c["witness"])
    elif kind == "chern":
        _check_chern(report, model, c["k"])
    elif kind == "chern_gkm":
        _check_verdict(report, "result.subalgebra_verdict", c["status"], c["witness"])
    elif kind == "action_validate":
        _require(_scalar(report, "result.valid") == "True", "model not reported valid")
        _require(_ints(report, "result.big_cell_degrees") == list(range(1, n + 1)),
                 "big_cell_degrees != 1..n")
        h = _ints(report, "result.model.h_weights")
        _require(all(a - b == 2 for a, b in zip(h, h[1:])), "h_weights not in step-2 order")
    elif kind == "fixed_points":
        for i in range(n + 1):
            _require(_ints(report, f"result.fixed_points[{i}]")
                     == [int(t == i) for t in range(n + 1)], f"fixed point {i} is wrong")
    elif kind == "action_curve":
        _check_action_curve(report, model)
    elif kind == "poincare":
        _check_poincare(report, c["family"], c["rank"])
    elif kind == "poincare_degrees":
        expected = c.get("expected") or _weyl_oracle(c["family"], c["rank"])
        _require(_ints(report, "result.poly") == expected, "poly != expected product")
    else:
        raise CheckFailed(f"no check for job kind {kind!r}")


def check(job, exit_code: int, stdout: str, stderr: str) -> str | None:
    """None if the job's exit code and output are right, else the reason."""
    try:
        if job.kind == "malformed":
            _require(exit_code == 2, f"{job.check['defect']}: exit code {exit_code}, expected 2")
            lines = stderr.splitlines()
            _require(len(lines) == 1, f"{job.check['defect']}: {len(lines)} stderr lines")
            _require("error" in json.loads(lines[0]), "stderr line has no error key")
            _require(stdout == "", "malformed spec printed a report")
            return None
        _require(exit_code == 0, f"exit code {exit_code}: {stderr.strip()[-200:]}")
        _check_ok(job, stdout, "--table" in job.argv)
    except CheckFailed as exc:
        return str(exc)
    except (json.JSONDecodeError, ValueError, ZeroDivisionError, KeyError, IndexError) as exc:
        return f"{type(exc).__name__} while checking: {exc}"
    return None
