"""Seeded inputs for the four benchmark workloads.

Each workload is a closed loop: one process runs its stages back to back.
``plan(workload, seed, work_dir)`` writes the stage configs to ``work_dir``
and returns the stage list the child process runs.  Inputs depend on the
seed only through ``variant(seed)``, one of ``VARIANTS`` input sets, so that
every run can be compared with references recorded for that variant.

Admissible (h, gamma) come from closed-form sufficient conditions below, not
from the library's threshold routines, so the inputs do not move when those
routines change.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

VARIANTS = 32
WORKLOADS = ("couple-lowd", "couple-highd", "certify-table1", "scan-grid")

# Workload sizes.  ``tiny`` shrinks every loop for the smoke test; every
# stage, output file and check stays the same.
SIZES = {
    "full": {
        "lowd_steps": 2000,
        "highd_dim": 2048,
        "highd_steps": 2000,
        "table1_gammas": 3,
        "check_h": 8,
        "check_gamma": 8,
        "gauss_gammas": 8,
        "glc_steps": 400,
        "mode_steps": 100_000,
    },
    "tiny": {
        "lowd_steps": 40,
        "highd_dim": 64,
        "highd_steps": 20,
        "table1_gammas": 1,
        "check_h": 2,
        "check_gamma": 2,
        "gauss_gammas": 1,
        "glc_steps": 20,
        "mode_steps": 100,
    },
}

CERTIFICATE_SCHEMES = ["kinetic_em", "bao", "oab", "baoab", "obabo", "ses"]
GAUSSIAN_SCHEMES = ["kinetic_em", "bao", "oab", "aob", "oba", "abo", "boa", "baoab", "obabo", "ses"]
GLC_GAMMAS = [1e1, 1e2, 1e3, 1e4, 1e6, 1e8]
# standard-normal draws per step, as in the README's scheme table
MODE_CHAIN_NOISE = {"baoab": 1, "obabo": 2}


def variant(seed: int) -> int:
    return seed % VARIANTS


def _rng(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([WORKLOADS.index(workload), variant(seed)])


def h_limit(schemes, M: float, gamma: float) -> float:
    """A stepsize below every listed scheme's hypothesis at (M, gamma).

    Uses 1 - exp(-u) >= u - u^2/2, so h < 2 (gamma - s) / gamma^2 implies
    h < (1 - exp(-gamma h)) / s for the eta-dependent restrictions
    (s = sqrt(6M) for bao/oab-type schemes, 2 sqrt(M) for baoab/obabo).
    Requires gamma >= 5 sqrt(M), which covers every friction floor.
    """
    if gamma < 5.0 * math.sqrt(M):
        raise ValueError(f"gamma={gamma} below the 5 sqrt(M) floor")
    lims = []
    for s in schemes:
        if s == "lm":
            lims.append(2.0 / M)
        elif s in ("kinetic_em", "ses"):
            lims.append(0.5 / gamma)
        else:
            slope = 2.0 * math.sqrt(M) if s in ("baoab", "obabo") else math.sqrt(6.0 * M)
            lims.append(2.0 * (gamma - slope) / gamma**2)
            if s in ("oab", "abo", "boa"):
                lims.append(0.25 / gamma)
    return min(lims)


def _write(path: Path, cfg: dict) -> str:
    path.write_text(json.dumps(cfg, indent=1))
    return str(path)


def _stage(name: str, command: str, cfg_path: str, points: int, pair_steps: int = 0, rows: int = 0) -> dict:
    return {
        "name": name,
        "kind": "cli",
        "argv": [command, "--config", cfg_path],
        "points": points,
        "pair_steps": pair_steps,
        "rows": rows,
    }


def _couple_lowd(rng, work: Path, size: dict) -> list[dict]:
    d = 4
    diag = np.sort(rng.uniform(1.0, 3.0, d))
    eps = float(rng.uniform(0.1, 0.3))
    M = float(diag[-1]) + eps
    gamma = 5.0 * math.sqrt(M) * float(rng.uniform(1.1, 1.5))
    schemes = ["kinetic_em", "bao", "baoab", "obabo", "ses", "lm"]
    n = size["lowd_steps"]
    # lm contracts about ten times faster than the kinetic schemes; keeping
    # 2 h m n <= 40 holds its coupled distance far above the rounding floor
    # (~1e-32), where verify_trace_bound, which has no floor, reports a
    # violation (NOTES.md)
    m = float(diag[0]) - eps
    hmax = min(h_limit(schemes, M, gamma), 20.0 / (m * n))
    hs = sorted(float(f) * hmax for f in rng.uniform(0.3, 0.9, 2))
    seeds = [int(s) for s in rng.integers(0, 2**31, 2)]
    # Both chains start at one velocity: the runner carries an overdamped
    # chain's velocity unchanged and the a = 1 norm still counts it, so a
    # velocity gap would never contract and lm's bound would fail (NOTES.md).
    v0 = rng.normal(0, 1, d).tolist()
    cfg = {
        "potential": {"name": "perturbed_quadratic", "diag": diag.tolist(), "eps": eps},
        "schemes": schemes,
        "params": {"h": hs, "gamma": [gamma], "n_steps": n, "seeds": seeds},
        "coupling": {
            "z0": [rng.normal(0, 2, d).tolist(), v0],
            "z0_tilde": [rng.normal(0, 2, d).tolist(), v0],
        },
    }
    runs = len(schemes) * len(hs) * len(seeds)
    return [
        _stage("couple", "couple", _write(work / "couple.json", cfg), runs, runs * n, runs * (n + 2))
    ]


def _couple_highd(rng, work: Path, size: dict) -> list[dict]:
    d = size["highd_dim"]
    m, M = float(rng.uniform(0.5, 1.0)), float(rng.uniform(3.0, 4.0))
    diag = rng.uniform(m, M, d)
    diag[rng.permutation(d)[:2]] = [m, M]
    gamma = 5.0 * math.sqrt(M) * float(rng.uniform(1.1, 1.5))
    schemes = ["kinetic_em", "baoab", "ses"]
    h = float(rng.uniform(0.5, 0.9)) * h_limit(schemes, M, gamma)
    n = size["highd_steps"]
    cfg = {
        "potential": {"name": "quadratic", "diag": diag.tolist()},
        "schemes": schemes,
        "params": {"h": [h], "gamma": [gamma], "n_steps": n, "seeds": [int(rng.integers(0, 2**31))]},
        "coupling": {
            "z0": [rng.normal(0, 1, d).tolist(), np.zeros(d).tolist()],
            "z0_tilde": [rng.normal(0, 1, d).tolist(), np.zeros(d).tolist()],
        },
    }
    runs = len(schemes)
    return [
        _stage("couple", "couple", _write(work / "couple.json", cfg), runs, runs * n, runs * (n + 2))
    ]


def _jittered(rng, lo: float, hi: float, n: int) -> list[float]:
    """n log-spaced anchors in [lo, hi], each moved by a seeded +-5%.

    Bisection work depends on where the values fall; anchoring them keeps
    the work of every seed nearly the same while the values still vary.
    """
    return [float(g) for g in np.geomspace(lo, hi, n) * np.exp(rng.uniform(-0.05, 0.05, n))]


def _certify_table1(rng, work: Path, size: dict) -> list[dict]:
    gammas = _jittered(rng, 15.0, 45.0, size["table1_gammas"])
    cfg = {
        "potential": {"name": "quadratic", "m": 1.0, "M": 4.0},
        "schemes": CERTIFICATE_SCHEMES,
        "params": {"gamma": gammas},
        "certify": {"mode": "table1"},
    }
    rows = len(CERTIFICATE_SCHEMES) * len(gammas)
    return [_stage("table1", "certify", _write(work / "table1.json", cfg), rows, rows=rows)]


def _log_grid(rng, lo: float, hi: float, n: int) -> list[float]:
    return sorted(float(x) for x in np.exp(rng.uniform(math.log(lo), math.log(hi), n)))


def _scan_grid(rng, work: Path, size: dict) -> list[dict]:
    m, M = 1.0, float(rng.uniform(2.0, 6.0))
    hs = _log_grid(rng, 1e-3, 5e-2, size["check_h"])
    gammas = _log_grid(rng, 5.0, 200.0, size["check_gamma"])
    check = {
        "potential": {"name": "quadratic", "m": m, "M": M},
        "schemes": CERTIFICATE_SCHEMES,
        "params": {"h": hs, "gamma": gammas},
        "certify": {"mode": "check"},
    }
    n_check = len(CERTIFICATE_SCHEMES) * len(hs) * len(gammas)

    g_gammas = _jittered(rng, 2.0, 200.0, size["gauss_gammas"])
    gauss = {
        "potential": {"name": "quadratic", "m": m, "M": M},
        "schemes": GAUSSIAN_SCHEMES,
        "params": {"gamma": g_gammas},
        "scan": {"h_grid": _log_grid(rng, 0.01, 1.0, 4)},
    }
    n_gauss = len(GAUSSIAN_SCHEMES) * len(g_gammas) * 4 * 2

    # M < 4 keeps gamma = 10 above every scheme's friction floor (ses: 5 sqrt(M))
    gm, gM = float(rng.uniform(0.5, 1.0)), float(rng.uniform(1.0, 3.5))
    n_glc = size["glc_steps"]
    glc_seeds = [int(s) for s in rng.integers(0, 2**31, 2)]
    glc_cfg = {
        "potential": {"name": "quadratic", "m": gm, "M": gM},
        "schemes": CERTIFICATE_SCHEMES,
        "params": {"n_steps": n_glc, "seeds": glc_seeds},
        "scan": {"gamma_grid": GLC_GAMMAS},
    }
    n_glc_rows = len(CERTIFICATE_SCHEMES) * len(GLC_GAMMAS) * len(glc_seeds)

    stages = [
        _stage("check", "certify", _write(work / "check.json", check), n_check, rows=n_check),
        _stage("gaussian", "gaussian-scan", _write(work / "gaussian.json", gauss), n_gauss, rows=n_gauss),
        _stage(
            "glc", "glc-scan", _write(work / "glc.json", glc_cfg), n_glc_rows, n_glc_rows * n_glc, n_glc_rows
        ),
    ]
    n = size["mode_steps"]
    chains = []
    for scheme, k in MODE_CHAIN_NOISE.items():
        lam = float(rng.uniform(m, M))
        # h sqrt(lam) < 2 keeps both splittings stable on the mode
        h = float(rng.uniform(0.05, 0.3))
        noise_path = work / f"mode_{scheme}.npy"
        np.save(noise_path, rng.standard_normal((n, k)))
        chains.append(
            {
                "scheme": scheme,
                "lam": lam,
                "h": h,
                "gamma": float(rng.uniform(1.0, 10.0)),
                "x0": float(rng.normal()),
                "v0": float(rng.normal()),
                "noise": str(noise_path),
            }
        )
    stages.append({"name": "mode_chain", "kind": "mode_chain", "chains": chains, "points": len(chains), "pair_steps": 0, "rows": len(chains)})
    return stages


_BUILDERS = {
    "couple-lowd": _couple_lowd,
    "couple-highd": _couple_highd,
    "certify-table1": _certify_table1,
    "scan-grid": _scan_grid,
}


def plan(workload: str, seed: int, work_dir: Path, size: str = "full") -> list[dict]:
    """Write the workload's inputs for ``seed`` under ``work_dir``; return its stages."""
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    work_dir.mkdir(parents=True, exist_ok=True)
    return _BUILDERS[workload](_rng(workload, seed), work_dir, SIZES[size])
