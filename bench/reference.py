"""Stored reference outputs of the fdia_lab benchmark, and how they are compared.

``reference.json`` (next to this file) holds, for each builtin scenario, the
sha256 and a numeric fingerprint of each of the five artifacts that
``fdia-lab simulate`` writes, and the rows of ``estimation_study`` on
scenario1's attacked trace for each noise seed below ``STUDY_SEEDS``. The
benchmark checks every output it can against it, so an optimisation that
changes what the program computes fails the check even when it changes it
the same way on every pass.

An artifact whose bytes equal the stored sha256 matches. One whose bytes
differ matches only if its values agree with the fingerprint within
``RTOL`` (relative to the column's mean magnitude, or the value itself) plus
``ATOL``: headers, shapes, strings, booleans and integers must be equal.
That admits last-bit float differences (another libm or SIMD path): making
every RK4 step 2 ulp larger moved trace values by up to 7e-13 of their
scale, and passes. A CSV writer that keeps 9 significant digits fails. The
networked and in-process traces are compared with the fingerprint of the
matching ``trace.csv``.

Regenerate the file only when the program's outputs change on purpose, from
the root of a checkout:

    python3 bench/reference.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import sys
import tempfile
from pathlib import Path

import numpy as np

REFERENCE_FILE = Path(__file__).with_name("reference.json")
RTOL = 1e-10
ATOL = 1e-12
ROW_STRIDE = 500  # fingerprint keeps every 500th row verbatim
STUDY_SEEDS = 128  # noise seeds whose estimation_study rows are stored


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def array_fingerprint(data) -> dict:
    """Shape, column sums, cosine-weighted column sums, absolute sums and sample rows."""
    a = np.asarray(data, dtype=float)
    weights = np.cos(np.arange(len(a), dtype=float))
    return {"shape": list(a.shape), "sum": a.sum(axis=0).tolist(),
            "wsum": (weights @ a).tolist(), "abssum": np.abs(a).sum(axis=0).tolist(),
            "rows": a[::ROW_STRIDE].tolist()}


def array_mismatch(data, ref: dict) -> str | None:
    """None if ``data`` agrees with the fingerprint ``ref``, else what differs."""
    a = np.asarray(data, dtype=float)
    if list(a.shape) != ref["shape"]:
        return f"shape {list(a.shape)} != {ref['shape']}"
    got = array_fingerprint(a)
    abssum = np.asarray(ref["abssum"])
    scale = abssum / max(len(a), 1)  # mean magnitude per column
    for key, tol in (("sum", RTOL * abssum + ATOL * len(a)),
                     ("wsum", RTOL * abssum + ATOL * len(a)),
                     ("abssum", RTOL * abssum + ATOL * len(a))):
        diff = np.abs(np.asarray(got[key]) - np.asarray(ref[key]))
        if not np.all(diff <= tol):
            return f"column {key} differs by up to {float(np.max(diff)):.3g}"
    rows = np.asarray(ref["rows"])
    diff = np.abs(np.asarray(got["rows"]) - rows)
    if not np.all(diff <= RTOL * (np.abs(rows) + scale) + ATOL):
        return f"sample rows differ by up to {float(np.max(diff)):.3g}"
    return None


def study_table(rows) -> dict:
    """estimation_study rows as {"<source>@<n>": nrmse}."""
    return {f"{r.source}@{r.n}": float(r.nrmse) for r in rows}


def json_mismatch(got, ref, where: str = "") -> str | None:
    """None if two JSON values agree (floats within tolerance), else where they differ."""
    if isinstance(ref, dict):
        if not isinstance(got, dict) or sorted(got) != sorted(ref):
            return f"{where or 'top'}: keys differ"
        for key in ref:
            found = json_mismatch(got[key], ref[key], f"{where}.{key}")
            if found:
                return found
        return None
    if isinstance(ref, list):
        if not isinstance(got, list) or len(got) != len(ref):
            return f"{where}: length differs"
        for k, (g, r) in enumerate(zip(got, ref)):
            found = json_mismatch(g, r, f"{where}[{k}]")
            if found:
                return found
        return None
    if isinstance(ref, float) or isinstance(got, float):
        if (isinstance(got, (int, float)) and not isinstance(got, bool)
                and math.isfinite(got) and math.isfinite(ref)
                and abs(got - ref) <= RTOL * abs(ref) + ATOL):
            return None
        return f"{where}: {got!r} != {ref!r}"
    return None if type(got) is type(ref) and got == ref else f"{where}: {got!r} != {ref!r}"


def _read_csv(path: Path):
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n")
    return header, np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def file_fingerprint(path: Path) -> dict:
    if path.suffix == ".csv":
        header, data = _read_csv(path)
        return {"sha256": sha256(path), "header": header, "csv": array_fingerprint(data)}
    return {"sha256": sha256(path), "json": json.loads(path.read_text(encoding="utf-8"))}


def file_mismatch(path: Path, digest: str, ref: dict) -> str | None:
    """None if the artifact at ``path`` (sha256 ``digest``) matches ``ref``."""
    if digest == ref["sha256"]:
        return None
    if "csv" in ref:
        header, data = _read_csv(path)
        if header != ref["header"]:
            return f"{path.name}: header differs"
        found = array_mismatch(data, ref["csv"])
    else:
        found = json_mismatch(json.loads(path.read_text(encoding="utf-8")), ref["json"])
    return f"{path.name}: {found}" if found else None


def load() -> dict:
    return json.loads(REFERENCE_FILE.read_text(encoding="utf-8"))


def main() -> int:
    """Write reference.json from the package under ./src."""
    src = Path.cwd() / "src"
    if not (src / "fdia_lab" / "__init__.py").is_file():
        print("error: run from a checkout root holding src/fdia_lab", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import workloads

    lab = workloads.import_lab(src)
    artifacts = {}
    work_dir = Path.cwd() / ".fdiabench"
    work_dir.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work_dir) as tmp:
        for name in workloads.BUILTINS:
            out = Path(tmp) / name
            lab.tracking.reference_table.cache_clear()
            with contextlib.redirect_stdout(io.StringIO()):
                code = lab.cli.main(["simulate", "--scenario", name, "--out-dir", str(out)])
            if code != 0:
                print(f"error: simulate {name} exited {code}", file=sys.stderr)
                return 1
            artifacts[name] = {p.name: file_fingerprint(p)
                               for p in sorted(out.iterdir()) if p.is_file()}
    # the networked sessions are checked against trace.csv; it must hold run()'s trace
    for name, attacked in (("scenario1", True), ("nominal", False)):
        sc = lab.scenarios.load_scenario(name)
        attack = lab.scenarios.validate_scenario(sc) if attacked else None
        trace = lab.simloop.run(sc.sim, attack, sc.signature)
        if array_fingerprint(trace.data) != artifacts[name]["trace.csv"]["csv"]:
            print(f"error: {name} trace.csv does not hold run()'s trace", file=sys.stderr)
            return 1
        if name == "scenario1":
            study = [study_table(lab.adversary.estimation_study(trace, seed=seed))
                     for seed in range(STUDY_SEEDS)]
    REFERENCE_FILE.write_text(json.dumps({"artifacts": artifacts, "estimation_study": study},
                                         indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {REFERENCE_FILE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
