"""Seeded inputs of the three workloads and the finite sets they draw from.

Every input is drawn from a fixed candidate set, so each value a job can
be checked against is either exact (counts) or stored in ``refs.json``,
computed offline by ``make_refs.py``.  Candidates share denominators (odd
sixteenths for angles and points) so the cost of a job barely depends on
which candidate the seed picks.

This module imports nothing from certheat, so ``make_refs.py`` can use it
without loading the program.
"""

from __future__ import annotations

import os
import random
from fractions import Fraction as F

DISK_PL = "pl 0:0 1/2:1 1:0 3/2:-1 2:0"
DISK_TRIG = "trig const=1/2, cos1=1, sin3=-1/4"
DISK_R0 = F(9, 10)
IVL_PL = "pl 0:0 1/2:1 1:0"
IVL_SINE = "sine 1:1 3:1/2"
IVL_T0 = F(1, 4)
BALL_SPH = "sph 0:0:1 1:0:1/2 2:1:1/4 3:-2:1/8"
HB_PROFILE = "poly 0 1"
HF_TIME, HF_SPACE = "poly 1", "pl 0:1 1/2:1"
HI_DATA = "pl 2/5:0 1/2:1 3/5:0"

THETA16 = [F(2 * j + 1, 16) for j in range(16)]      # disk angles in (0, 2)
X16 = [F(2 * j + 1, 16) for j in range(8)]           # interval points in (0, 1)
DISK_R_BANDS = [(F(1, 4), F(5, 16)), (F(1, 2), F(9, 16)),
                (F(3, 4), F(13, 16)), (F(7, 8), F(9, 10))]
IVL_T = [F(1, 4), F(3, 8), F(1, 2), F(5, 8), F(3, 4), F(1)]
MIX_DISK_R = [F(1, 4), F(3, 8), F(1, 2), F(5, 8), F(3, 4), F(7, 8)]
BALL_R = [F(1, 4), F(1, 2), F(3, 4)]
BALL_THETA = [F(2 * j + 1, 8) for j in range(4)]     # polar angle in (0, 1)
BALL_PHI = [F(2 * j + 1, 8) for j in range(8)]       # azimuth in (0, 2)
# half-line times and points with one denominator each: the solvers' exact
# integer recurrences grow with the denominators of t and x^2/(4 alpha)
HALF_T = [F(3, 8), F(5, 8), F(7, 8)]
HB_X = [F(2 * j + 1, 16) for j in range(4, 12)]     # window [1/2, 3/2]
HF_X = [F(2 * j + 1, 16) for j in range(8, 12)]     # window [1, 3/2]
HI_T = F(1, 2)
HI_X = [F(2 * j + 1, 16) for j in (0, 1, 2, 5, 6, 7)]  # off the support [2/5, 3/5]

GRID_DISK_BITS = 20
GRID_IVL_BITS = (32, 64)
GRID_IVL_POINTS = 6          # per precision
COUNT_SIZES = (8, 10, 12, 14)
MIX_COUNT_ITEMS = 10


def disk_cfg(g, r, theta, bits, r0=None):
    cfg = {"problem": "disk", "g": g, "r": r, "theta": theta, "bits": bits}
    if r0 is not None:
        cfg["r0"] = r0
    return cfg


def interval_cfg(g, t, x, bits):
    return {"problem": "interval", "g": g, "t": t, "x": x, "bits": bits}


def ball_cfg(r, theta, phi, bits):
    return {"problem": "ball", "g": BALL_SPH, "r": r, "theta": theta,
            "phi": phi, "bits": bits}


def hb_cfg(t, x, bits):
    return {"problem": "halfline-boundary", "h": HB_PROFILE, "x0": F(1, 2),
            "x1": F(3, 2), "t": t, "x": x, "bits": bits}


def hf_cfg(t, x, bits, alpha=None, space=HF_SPACE, x0=F(1), x1=F(3, 2)):
    cfg = {"problem": "halfline-force", "f_time": HF_TIME, "f_space": space,
           "x0": x0, "x1": x1, "t": t, "x": x, "bits": bits}
    if alpha is not None:
        cfg["alpha"] = alpha
    return cfg


def hi_cfg(x, bits):
    return {"problem": "halfline-initial", "g0": HI_DATA, "t": HI_T, "x": x,
            "bits": bits}


def ref_key(cfg: dict) -> str:
    """The reference table's key: every input except the precision."""
    return "; ".join(f"{k} = {cfg[k]}" for k in sorted(cfg) if k != "bits")


def cfg_text(cfg: dict) -> str:
    return "".join(f"{k} = {v}\n" for k, v in cfg.items())


# ---------------------------------------------------------------------------
# per-workload draws


def grid_inputs(seed: int) -> dict:
    rng = random.Random(f"grid:{seed}")
    disk = [(rng.choice(band), rng.choice(THETA16)) for band in DISK_R_BANDS]
    ivl = {bits: [(rng.choice(IVL_T), rng.choice(X16))
                  for _ in range(GRID_IVL_POINTS)]
           for bits in GRID_IVL_BITS}
    return {"disk": disk, "interval": ivl}


def counting_instance(rng: random.Random, n_vars: int, max_weight: int = 50):
    """(weights, target) drawn as hardness.random_instance draws them."""
    weights = tuple(rng.randint(1, max_weight) for _ in range(n_vars))
    mask = rng.randrange(1, 1 << n_vars)
    return weights, sum(w for i, w in enumerate(weights) if mask >> i & 1)


def solve_mix_inputs(seed: int) -> list[tuple[str, dict]]:
    """(job name, config) for every timed solve-mix job."""
    rng = random.Random(f"solve-mix:{seed}")
    pick = rng.choice
    jobs = [
        ("disk-trig-32", disk_cfg(DISK_TRIG, pick(MIX_DISK_R), pick(THETA16), 32)),
        ("disk-pl-16", disk_cfg(DISK_PL, pick(MIX_DISK_R), pick(THETA16), 16)),
        ("ball-sph-64", ball_cfg(pick(BALL_R), pick(BALL_THETA), pick(BALL_PHI), 64)),
        ("interval-sine-64", interval_cfg(IVL_SINE, pick(IVL_T), pick(X16), 64)),
        ("interval-pl-64", interval_cfg(IVL_PL, pick(IVL_T), pick(X16), 64)),
    ]
    for bits in (8, 16, 24):
        jobs.append((f"halfline-boundary-{bits}", hb_cfg(pick(HALF_T), pick(HB_X), bits)))
    for bits in (8, 12):
        jobs.append((f"halfline-force-{bits}", hf_cfg(pick(HALF_T), pick(HF_X), bits)))
    jobs.append(("halfline-initial-64", hi_cfg(pick(HI_X), 64)))
    weights, target = counting_instance(rng, MIX_COUNT_ITEMS)
    force = "counting " + " ".join(map(str, (target,) + weights))
    jobs.append(("neumann-counting-24",
                 {"problem": "neumann", "force": force, "t": F(1), "bits": 24}))
    return jobs


# ROADMAP item 2: solves that break the 2^-n contract at the time of
# writing.  They run once after the timed passes, count in fail_ratio and
# stay out of wall_s, so a fix reads as fewer failures, not as a slowdown.
KNOWN_DEFECTS = [
    ("disk-pl-amplitude-1e8-30",
     disk_cfg("pl 0:1e8 1:-1e8 2:1e8", F(9, 10), F(0), 30)),
    ("halfline-force-alpha-1/256-20",
     hf_cfg(F(1), F(3, 4), 20, F(1, 256), "pl 0:1 1/4:1", F(1, 2), F(3, 4))),
    ("halfline-force-alpha-1/256-40",
     hf_cfg(F(1), F(3, 4), 40, F(1, 256), "pl 0:1 1/4:1", F(1, 2), F(3, 4))),
]


def counting_inputs(seed: int) -> list[tuple[tuple[int, ...], int]]:
    rng = random.Random(f"counting:{seed}")
    return [counting_instance(rng, nv) for nv in COUNT_SIZES]


# ---------------------------------------------------------------------------
# every configuration a seed can produce whose value is not an exact count


def all_reference_cfgs() -> list[dict]:
    out = []
    for band in DISK_R_BANDS:
        for r in band:
            out += [disk_cfg(DISK_PL, r, th, 0) for th in THETA16]
    out += [disk_cfg(DISK_PL, r, th, 0) for r in MIX_DISK_R for th in THETA16]
    out += [disk_cfg(DISK_TRIG, r, th, 0) for r in MIX_DISK_R for th in THETA16]
    out += [ball_cfg(r, th, ph, 0) for r in BALL_R for th in BALL_THETA
            for ph in BALL_PHI]
    for g in (IVL_PL, IVL_SINE):
        out += [interval_cfg(g, t, x, 0) for t in IVL_T for x in X16]
    out += [hb_cfg(t, x, 0) for t in HALF_T for x in HB_X]
    out += [hf_cfg(t, x, 0) for t in HALF_T for x in HF_X]
    out += [hi_cfg(x, 0) for x in HI_X]
    out += [cfg for _, cfg in KNOWN_DEFECTS]
    seen, uniq = set(), []
    for cfg in out:
        if ref_key(cfg) not in seen:
            seen.add(ref_key(cfg))
            uniq.append(cfg)
    return uniq


def write_inputs(name: str, seed: int, workdir: str) -> None:
    """Config files of the CLI jobs (solve-mix only)."""
    if name != "solve-mix":
        return
    os.makedirs(workdir, exist_ok=True)
    for job_name, cfg in solve_mix_inputs(seed) + KNOWN_DEFECTS:
        path = os.path.join(workdir, job_name.replace("/", "_") + ".cfg")
        with open(path, "w", encoding="utf-8") as f:
            f.write(cfg_text(cfg))
