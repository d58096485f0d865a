"""Byte-for-byte comparison of two cosattn trees on a fixed seeded case set.

    python tests/bitident.py <rev-or-dir>

compares the cosattn package at <rev> (its src/cosattn, unpacked with
git archive, which reads the local repository only) or in the package
directory <dir> against the src/cosattn beside this script. Both trees
run in this one process, the other one imported under its own package
name, which the package's relative imports allow.

Every case is one (n, kind, causal, storage, shape) of the lengths in
LENGTHS; the cosine, linear and softmax kinds; causal and full; float32,
float64, float32 with Q and K scaled by 1e18 (past the float32 overflow
bound, so the kernel forward computes in float64, at every n but 1, whose
one query row is zeroed) and a float32 record with a float64 d_out;
2-D and stacked inputs; each with a zeroed query row. A case gives its
forward, dQ, dK and dV; a decode gives its rows and its final state; a
seeded TRAIN_STEPS-step copy-task job per attention kind gives its loss
curve.
Two arrays are the same when np.array_equal holds and their dtypes and
shapes match. Each differing array is printed with its largest relative
difference, and the exit status is 1 if any differs.
"""

from __future__ import annotations

import importlib.util
import io
import pathlib
import subprocess
import sys
import tarfile
import tempfile

import numpy as np

REPO = pathlib.Path(__file__).resolve().parents[1]
LENGTHS = (1, 31, 32, 33, 128, 129, 256, 257, 385, 1000, 4096)
SOFTMAX_MAX_N = 1000  # the softmax reference holds n x n weights
STORAGES = ("float32", "float64", "float32e18", "float32/d_out64")
D_K, D_V = 6, 5
DECODE_N = 300
TRAIN_STEPS = 20


def unpack(source):
    """(path, keep): the cosattn package directory at a git revision or
    in a directory. A revision is unpacked into the temporary directory
    keep, which the caller holds for as long as it reads the path; for a
    directory keep is None."""
    path = pathlib.Path(source)
    if path.is_dir():
        return path, None
    tar = subprocess.run(["git", "-C", str(REPO), "archive", str(source),
                          "src/cosattn"], check=True, capture_output=True).stdout
    keep = tempfile.TemporaryDirectory()
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(keep.name, filter="data")
    return pathlib.Path(keep.name, "src", "cosattn"), keep


def load(source, name: str):
    """The cosattn package at a git revision or in a directory, imported
    as name. An unpacked revision lives as long as the package does."""
    path, keep = unpack(source)
    spec = importlib.util.spec_from_file_location(
        name, path / "__init__.py", submodule_search_locations=[str(path)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    package._bitident_unpacked = keep
    return package


def cases(lengths=LENGTHS):
    """(n, kind, causal, storage, lead) of every forward and backward case."""
    for n in lengths:
        for kind in ("cosine", "linear", "softmax"):
            for causal in (True, False):
                for storage in STORAGES:
                    if kind == "softmax" and (n > SOFTMAX_MAX_N or storage == "float32e18"):
                        continue
                    for lead in ((), (2,)):
                        yield n, kind, causal, storage, lead


def _inputs(index, n, storage, lead):
    rng = np.random.default_rng([index, n])
    Q, K, V, g = (rng.standard_normal(lead + (n, d)) for d in (D_K, D_K, D_V, D_V))
    Q[..., n // 2, :] = 0.0
    if storage == "float32e18":
        Q, K = Q * 1e18, K * 1e18
    if storage != "float64":
        Q, K, V = (X.astype(np.float32) for X in (Q, K, V))
    if storage in ("float32", "float32e18"):
        g = g.astype(np.float32)
    return Q, K, V, g


def arrays(package, lengths=LENGTHS) -> dict:
    """Every array the case set gives under package, by name."""
    got = {}
    Config = package.AttentionConfig
    for index, (n, kind, causal, storage, lead) in enumerate(cases(lengths)):
        if kind == "cosine":
            config = Config.cosformer(m=n if lead else 2 * n, causal=causal)
        elif kind == "linear":
            config = Config.linear(causal=causal)
        else:
            config = Config.softmax(causal)
        Q, K, V, g = _inputs(index, n, storage, lead)
        key = f"n={n} {kind} {'causal' if causal else 'full'} {storage} lead={lead}"
        got[key + " out"] = package.linear.attend(Q, K, V, config)
        grads = package.grad.attend_backward(Q, K, V, config, g)
        got.update((f"{key} {name}", G) for name, G in zip(("dQ", "dK", "dV"), grads))
    rng = np.random.default_rng(DECODE_N)
    Q, K, V = (rng.standard_normal((DECODE_N, d)) for d in (D_K, D_K, D_V))
    state = package.linear.causal_state_init(D_K, D_V)
    rows = np.empty((DECODE_N, D_V))
    for t in range(DECODE_N):
        state, rows[t] = package.linear.causal_state_step(state, Q[t], K[t], V[t],
                                                          DECODE_N)
    got.update({"decode rows": rows, "decode carry": state.carry,
                "decode keys": state.keys, "decode vals": state.vals})
    for kind, config in (("cosine", Config.cosformer(m=32, causal=True)),
                         ("linear", Config.linear(causal=True)),
                         ("softmax", Config.softmax(causal=True))):
        report = package.train_copy_task(config, seed=TRAIN_STEPS,
                                         max_steps=TRAIN_STEPS,
                                         eval_every=TRAIN_STEPS)
        got[f"train {kind} loss curve"] = np.array([loss for _, loss in report.loss_curve])
    return got


def differing(base: dict, new: dict) -> dict:
    """Name -> description of every array that is not the same in both."""
    found = {}
    for name in base.keys() | new.keys():
        a, b = base.get(name), new.get(name)
        if a is None or b is None:
            found[name] = "missing on one side"
        elif a.dtype != b.dtype or a.shape != b.shape:
            found[name] = f"{a.dtype}{a.shape} vs {b.dtype}{b.shape}"
        elif not np.array_equal(a, b, equal_nan=True):
            with np.errstate(invalid="ignore", over="ignore"):
                diff = np.max(np.abs(a.astype(np.float64) - b))
                rel = diff / max(np.max(np.abs(a)), np.finfo(np.float64).tiny)
            found[name] = f"largest relative difference {rel:.3e}"
    return found


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[0] + "\n\nusage: bitident.py <rev-or-dir>",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(REPO / "src"))
    import cosattn

    base = arrays(load(argv[0], "cosattn_base"))
    new = arrays(cosattn)
    found = differing(base, new)
    for name in sorted(found):
        print(f"DIFF {name}: {found[name]}")
    print(f"{len(found)} of {len(base.keys() | new.keys())} arrays differ "
          f"({argv[0]} vs {REPO / 'src' / 'cosattn'})")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
