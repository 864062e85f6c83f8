"""Seeded inputs and command lists for the four benchmark workloads.

Every input file is generated from the workload seed; the seed picks
parameters (families, coefficients, nodes, noise) but never sizes, so each
seed costs about the same.  A workload is a list of ``Command`` records: the
``quasikit`` argv (paths relative to the work directory) plus what the
independent output check needs to know about the inputs.

``scale="tiny"`` shrinks every size for the self-test; the benchmark itself
always runs ``scale="full"``.
"""

from __future__ import annotations

import json
import math
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

WORKLOADS = ("seq-horizon", "cli-small", "jets-grid", "weights-gont")

# Sizes per scale.  "full" is what the benchmark measures.
SIZES = {
    "full": {
        "horizon": 30_000,
        "small_horizon": (8, 2000),
        "bang_horizon": 50_000,
        "flat_nmax": 64,
        "grid": 1024,
        "jet_nmax": 20,
        "weight_samples": 1024,
        "gont_sweep": 2000,
    },
    "tiny": {
        "horizon": 3000,
        "small_horizon": (8, 200),
        "bang_horizon": 2000,
        "flat_nmax": 16,
        "grid": 64,
        "jet_nmax": 8,
        "weight_samples": 32,
        "gont_sweep": 20,
    },
}


@dataclass
class Command:
    """One CLI invocation and the facts its output check relies on."""

    name: str
    kind: str
    argv: list[str]
    out: str
    csv: str | None = None
    facts: dict = field(default_factory=dict)


def _rng(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([zlib.crc32(workload.encode()), int(seed)])


def _write(workdir: Path, name: str, doc) -> str:
    (workdir / name).write_text(json.dumps(doc), encoding="utf-8")
    return name


def _noisy_nlogn(rng: np.random.Generator, length: int) -> list[float]:
    """n log n trend plus uniform noise, with the normalization L_0 = 0.

    The noise dwarfs the trend's curvature at large n, so the hull scan pops
    and fills, which no catalog family makes it do.
    """
    n = np.arange(length, dtype=float)
    logs = n * np.log(np.maximum(n, 1.0)) + rng.uniform(-1.0, 1.0, length)
    logs[0] = 0.0
    return logs.tolist()


def _catalog_spec(rng: np.random.Generator, horizon: int, families) -> dict:
    family = str(rng.choice(families))
    params = {}
    if family == "gevrey":
        params["s"] = float(rng.uniform(1.5, 3.0))
    elif family in ("denjoy1", "denjoy2"):
        params["C"] = float(rng.uniform(0.5, 2.0))
    return {"family": family, "params": params, "horizon": int(horizon)}


def _analyze(name, spec_file, spec, csv=False) -> Command:
    out = f"{name}.out.json"
    argv = ["seq", "analyze", "--spec", spec_file, "--out", out]
    csv_file = None
    if csv:
        csv_file = f"{name}.csv"
        argv += ["--csv", csv_file]
    return Command(name, "seq_analyze", argv, out, csv_file, {"spec": spec})


def _regularize(name, spec_file, spec) -> Command:
    out = f"{name}.out.json"
    argv = ["seq", "regularize", "--spec", spec_file, "--out", out]
    return Command(name, "seq_regularize", argv, out, None, {"spec": spec})


def _seq_horizon(rng, workdir: Path, size: dict) -> list[Command]:
    horizon = size["horizon"]
    catalog = _catalog_spec(rng, horizon, ("factorial", "gevrey", "denjoy1", "denjoy2"))
    vector = {"family": "explicit", "logs": _noisy_nlogn(rng, horizon)}
    cat_file = _write(workdir, "catalog.json", catalog)
    vec_file = _write(workdir, "vector.json", vector)
    return [
        _analyze("analyze-catalog", cat_file, catalog, csv=True),
        _analyze("analyze-vector", vec_file, vector),
        _regularize("regularize-vector", vec_file, vector),
    ]


def _bang_vector(rng, horizon: int) -> dict:
    """Zeros up to a late first nonzero n0, then entries that start below
    e^{-n0} and ramp up, so the reduction bound lands a few steps past n0."""
    n0 = int(rng.integers(200, 600))
    entries = np.zeros(horizon)
    tail = np.arange(horizon - n0, dtype=float)
    sign = rng.choice([-1.0, 1.0], size=tail.size)
    entries[n0:] = sign * rng.uniform(0.5, 1.0, tail.size) * np.exp(
        np.minimum(-(n0 + rng.uniform(2.0, 6.0)) + 0.05 * tail, 0.0)
    )
    keep = rng.random(horizon) < 0.5
    keep[0] = True
    return {"entries": entries.tolist(), "index_set": np.flatnonzero(keep).tolist()}


def _perturbed(rng, doc: dict) -> dict:
    """Same index set; entries differ by up to half their size from index n1
    on, n1 past the first nonzero, so the difference vector also starts late."""
    entries = np.array(doc["entries"])
    n1 = int(np.flatnonzero(entries)[0]) + int(rng.integers(1, 40))
    entries[n1:] *= 1.0 + rng.uniform(-0.5, 0.5, entries.size - n1)
    return {"entries": entries.tolist(), "index_set": doc["index_set"]}


def _cli_small(rng, workdir: Path, size: dict) -> list[Command]:
    lo, hi = size["small_horizon"]
    cmds: list[Command] = []
    families = ("factorial", "power_nn", "gevrey", "denjoy1", "denjoy2")
    for i in range(3):
        spec = _catalog_spec(rng, int(rng.integers(lo, hi + 1)), families)
        cmds.append(_analyze(f"analyze-cat{i}", _write(workdir, f"cat{i}.json", spec), spec))
    for i in range(2):
        spec = {"family": "explicit", "logs": _noisy_nlogn(rng, int(rng.integers(lo, hi + 1)))}
        cmds.append(_analyze(f"analyze-vec{i}", _write(workdir, f"vec{i}.json", spec), spec))
    spec = _catalog_spec(rng, int(rng.integers(lo, hi + 1)), families)
    cmds.append(_regularize("regularize-cat", _write(workdir, "cat-r.json", spec), spec))
    for i in range(2):
        spec = {"family": "explicit", "logs": _noisy_nlogn(rng, int(rng.integers(lo, hi + 1)))}
        cmds.append(_regularize(f"regularize-vec{i}", _write(workdir, f"vec-r{i}.json", spec), spec))

    horizon = size["bang_horizon"]
    for i in range(4):
        doc = _bang_vector(rng, horizon)
        vec = _write(workdir, f"bang{i}.json", doc)
        out = f"bang-norm{i}.out.json"
        argv = ["bang", "norm", "--vector", vec, "--out", out]
        facts = {"vector": vec}
        if i % 2:
            # the --pset override path: a coarser index set in its own file
            keep = rng.random(horizon) < 0.2
            keep[0] = True
            pset = np.flatnonzero(keep).tolist()
            argv[4:4] = ["--pset", _write(workdir, f"pset{i}.json", {"index_set": pset})]
            facts["pset"] = argv[5]
        cmds.append(Command(f"bang-norm{i}", "bang_norm", argv, out, None, facts))
    for i in range(4):
        doc = _bang_vector(rng, horizon)
        x = _write(workdir, f"bang-x{i}.json", doc)
        y = _write(workdir, f"bang-y{i}.json", _perturbed(rng, doc))
        out = f"bang-distance{i}.out.json"
        argv = ["bang", "distance", "--vector", x, "--other", y, "--out", out]
        cmds.append(
            Command(f"bang-distance{i}", "bang_distance", argv, out, None, {"vector": x, "other": y})
        )

    for i in range(2):
        nodes = rng.uniform(-1.0, 1.0, int(rng.integers(5, 21))).tolist()
        nfile = _write(workdir, f"nodes{i}.json", {"nodes": nodes})
        out = f"gont-build{i}.out.json"
        argv = ["gont", "build", "--nodes", nfile, "--out", out]
        cmds.append(Command(f"gont-build{i}", "gont_build", argv, out, None, {"nodes": nodes}))
        x = float(rng.uniform(-1.5, 1.5))
        out = f"gont-eval{i}.out.json"
        argv = ["gont", "eval", "--nodes", nfile, "--x", repr(x), "--out", out]
        cmds.append(
            Command(f"gont-eval{i}", "gont_eval", argv, out, None, {"nodes": nodes, "x": x})
        )
    return cmds


def _fn(expr: dict, domain) -> dict:
    return {"expr": expr, "domain": [float(domain[0]), float(domain[1])]}


def _jets_grid(rng, workdir: Path, size: dict) -> list[Command]:
    grid, nmax = size["grid"], size["jet_nmax"]
    x = {"op": "x"}
    flat = _fn(
        {"op": "exp", "arg": {"op": "neg", "arg": {"op": "div", "left": {"op": "const", "value": 1.0}, "right": x}}},
        (0.1, 2.0),
    )
    # sin(a x + b) over two periods; |a| <= 1 keeps |f^(n)| = |a|^n under M_n = n!
    a = float(rng.uniform(0.3, 1.0)) * float(rng.choice([-1.0, 1.0]))
    b = float(rng.uniform(0.0, 2.0 * math.pi))
    start = float(rng.uniform(-1.0, 1.0))
    period = 2.0 * math.pi / abs(a)
    sin_fn = _fn(
        {"op": "sin", "arg": {"op": "affine", "arg": x, "a": a, "b": b}},
        (start, start + 2.0 * period),
    )
    c = float(rng.uniform(0.5, 2.0))
    exp_fn = _fn({"op": "exp", "arg": {"op": "affine", "arg": x, "a": c, "b": 0.0}}, (0.0, 1.0))
    fact = {"family": "factorial", "params": {}, "horizon": nmax + 4}
    gevrey = {"family": "gevrey", "params": {"s": float(rng.uniform(1.0, 2.5))}, "horizon": nmax + 4}
    files = {
        "flat": _write(workdir, "flat.json", flat),
        "sin": _write(workdir, "sin.json", sin_fn),
        "exp": _write(workdir, "exp.json", exp_fn),
        "fact": _write(workdir, "fact.json", fact),
        "gevrey": _write(workdir, "gevrey.json", gevrey),
    }
    sin_facts = {"a": a, "b": b, "domain": sin_fn["domain"], "grid": grid, "nmax": nmax}
    return [
        Command(
            "envelope-flat", "lab_envelope_flat",
            ["lab", "envelope", "--fn", files["flat"], "--nmax", str(size["flat_nmax"]),
             "--grid", str(grid), "--out", "envelope-flat.out.json", "--csv", "envelope-flat.csv"],
            "envelope-flat.out.json", "envelope-flat.csv",
            {"domain": flat["domain"], "grid": grid, "nmax": size["flat_nmax"]},
        ),
        Command(
            "envelope-sin", "lab_envelope_sin",
            ["lab", "envelope", "--fn", files["sin"], "--nmax", str(nmax),
             "--grid", str(grid), "--out", "envelope-sin.out.json"],
            "envelope-sin.out.json", None, sin_facts,
        ),
        Command(
            "spacing-sin", "lab_spacing_sin",
            ["lab", "spacing", "--fn", files["sin"], "--seq", files["fact"], "--nmax", str(nmax),
             "--grid", str(grid), "--out", "spacing-sin.out.json", "--csv", "spacing-sin.csv"],
            "spacing-sin.out.json", "spacing-sin.csv", sin_facts,
        ),
        Command(
            "monotonic-exp", "lab_monotonic_exp",
            ["lab", "monotonic", "--fn", files["exp"], "--seq", files["gevrey"], "--nmax", str(nmax),
             "--grid", str(grid), "--out", "monotonic-exp.out.json"],
            "monotonic-exp.out.json", None, {"c": c, "domain": exp_fn["domain"], "grid": grid, "nmax": nmax},
        ),
    ]


def _weights_gont(rng, workdir: Path, size: dict) -> list[Command]:
    samples = size["weight_samples"]
    cmds = [
        Command(
            "weight-analyze", "weight_analyze",
            ["weight", "analyze", "--mu", "loglog", "--rmax", "1e12", "--samples", str(samples),
             "--out", "weight-analyze.out.json", "--csv", "weight-analyze.csv"],
            "weight-analyze.out.json", "weight-analyze.csv",
            {"mu": "loglog", "t0": 10.0, "rmax": 1e12, "samples": samples,
             "spot": sorted(rng.choice(samples, size=min(8, samples), replace=False).tolist())},
        )
    ]
    for mu in ("zero", "loglog", "log", "power"):
        argv = ["weight", "check", "--mu", mu]
        if mu == "power":
            argv += ["--alpha", repr(float(rng.uniform(0.2, 0.8)))]
        out = f"weight-check-{mu}.out.json"
        cmds.append(Command(f"weight-check-{mu}", "weight_check", argv + ["--out", out], out, None, {"mu": mu}))
    nodes = rng.uniform(-1.0, 1.0, 12).tolist()
    nfile = _write(workdir, "sweep-nodes.json", {"nodes": nodes})
    sweep = size["gont_sweep"]
    argv = ["gont", "check", "--nodes", nfile, "--sweep", str(sweep),
            "--seed", str(int(rng.integers(0, 2**31))), "--out", "gont-check.out.json"]
    cmds.append(Command("gont-check", "gont_check", argv, "gont-check.out.json", None, {"sweep": sweep}))
    return cmds


_BUILDERS = {
    "seq-horizon": _seq_horizon,
    "cli-small": _cli_small,
    "jets-grid": _jets_grid,
    "weights-gont": _weights_gont,
}


def generate(workload: str, seed: int, workdir: Path, scale: str = "full") -> list[Command]:
    """Write the workload's input files into ``workdir`` and return its commands."""
    workdir.mkdir(parents=True, exist_ok=True)
    return _BUILDERS[workload](_rng(workload, seed), workdir, SIZES[scale])
