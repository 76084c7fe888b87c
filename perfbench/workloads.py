"""Traffic of the three benchmark workloads.

A *cell* is one distinct ``run`` request: every field the server sees
except the request id.  Each cell has a reference checked against the
independent simulator (see ``prepare.py``); the closed loops only ever
send cells, and every response must repeat its cell's reference.

The ``--seed`` argument never reaches the server.  It only chooses where
each client starts walking its cell list (and, on ``cold_upload``, which
slice of the upload pool a run sends).
"""

from __future__ import annotations

import random
import threading

#: 10 Table-1 models plus the three extended-zoo models.
ZOO = ("AudioProcess", "Decryption", "HighPass", "HT", "Kalman", "Back",
       "Maintenance", "Maunfacture", "RunningDiff", "Simpson",
       "ImagePipeline", "BatteryMonitor", "Motivating")
GENERATORS = ("frodo", "simulink")

#: Steps per ``long_sim`` request, per model.  Sized once on a 2-CPU x86
#: host so that ``vm.run`` takes about 60 ms on either generator; equal
#: request costs keep the closed loop's throughput independent of where
#: a client starts in the cycle.  Fixed constants, never re-calibrated:
#: a faster VM must show up as lower latency, not as more steps.
NATIVE_STEPS = {
    "AudioProcess": 5500, "Decryption": 6000, "HighPass": 4600,
    "HT": 5300, "Kalman": 6200, "Back": 4900, "Maintenance": 5200,
    "Maunfacture": 5100, "RunningDiff": 4400, "Simpson": 6300,
    "ImagePipeline": 3600, "BatteryMonitor": 5600, "Motivating": 7100,
}
AUTO_STEPS = {
    "AudioProcess": 210, "Decryption": 370, "HighPass": 90, "HT": 20,
    "Kalman": 200, "Back": 500, "Maintenance": 160, "Maunfacture": 170,
    "RunningDiff": 110, "Simpson": 680, "ImagePipeline": 160,
    "BatteryMonitor": 180, "Motivating": 460,
}

#: Uploaded corpus models: block budgets and wire formats cycle with the
#: pool index (period 6), so every slice of the pool has the same mix.
COLD_SIZES = (12, 24, 48)
COLD_FORMATS = ("slx", "mdl")
#: Distinct uploads prepared per checkout.  A run that would need more
#: stops its timed phase early (and says so) rather than repeat a model.
COLD_POOL = 3000
#: Pool entries reserved for warming a freshly started server.
COLD_WARMUP = 6

#: Input seed of every request (the simulator reference uses the same).
INPUT_SEED = 0

WORKLOADS = ("hot_native", "long_sim", "cold_upload")


def zoo_cell(model: str, generator: str, backend: str, steps: int) -> dict:
    return {"op": "run", "model": model, "generator": generator,
            "backend": backend, "steps": steps, "seed": INPUT_SEED,
            "include_outputs": False}


def cold_cell(payload_b64: str, fmt: str) -> dict:
    return {"op": "run", "model_payload": payload_b64, "model_format": fmt,
            "generator": "frodo", "backend": "vector", "steps": 1,
            "seed": INPUT_SEED, "include_outputs": False}


def cell_id(cell: dict) -> str:
    """Stable identity of a cell (payloads are named by their pool index,
    which ``prepare.py`` stores in ``_pool``)."""
    model = cell.get("model") or f"pool{cell['_pool']}.{cell['model_format']}"
    return (f"{model}|{cell['generator']}|{cell['backend']}|"
            f"{cell['steps']}")


def wire(cell: dict) -> dict:
    """The request fields sent to the server (private keys dropped)."""
    return {k: v for k, v in cell.items() if not k.startswith("_")}


def hot_cells() -> list[dict]:
    return [zoo_cell(m, g, "native", 1) for m in ZOO for g in GENERATORS]


def long_cells() -> list[dict]:
    """Alternating native and auto requests over the 26 zoo keys."""
    cells = []
    for m in ZOO:
        for g in GENERATORS:
            cells.append(zoo_cell(m, g, "native", NATIVE_STEPS[m]))
            cells.append(zoo_cell(m, g, "auto", AUTO_STEPS[m]))
    return cells


def warm_cells(workload: str) -> list[dict]:
    """Cells that build every VM a zoo workload's timed phase uses, at
    one step each (the VM cache does not key on steps), so warming a
    restarted server measures start-up and VM builds, not simulation."""
    backends = ("native",) if workload == "hot_native" else ("native", "auto")
    return [zoo_cell(m, g, b, 1) for m in ZOO for g in GENERATORS
            for b in backends]


def pool_entry(index: int) -> tuple[int, str]:
    """(block budget, wire format) of upload-pool model ``index``."""
    return COLD_SIZES[index % len(COLD_SIZES)], \
        COLD_FORMATS[index % len(COLD_FORMATS)]


class Cycle:
    """One client's round-robin walk over a fixed cell list."""

    def __init__(self, cells: list[dict], start: int):
        self._cells = cells
        self._next = start % len(cells)

    def __call__(self) -> dict | None:
        cell = self._cells[self._next]
        self._next = (self._next + 1) % len(self._cells)
        return cell


class PoolWalk:
    """Consecutive upload-pool cells shared by every client; each cell
    is handed out once, and None marks an exhausted pool."""

    def __init__(self, pool: list[dict], start: int):
        self._pool = pool
        self._order = iter(range(start, start + len(pool)))
        self._lock = threading.Lock()

    def __call__(self) -> dict | None:
        with self._lock:
            index = next(self._order, None)
        return None if index is None else self._pool[index % len(self._pool)]


def client_walks(workload: str, seed: int, cells: list[dict],
                 clients: int) -> list:
    """Per-client request sources for one workload and seed.

    Zoo workloads: client ``c`` starts at a seeded offset plus ``c`` times
    an equal share of the cycle, so the two clients stay apart and rarely
    send the same cell at the same time.  ``cold_upload``: both clients
    draw from one walk over the timed pool, starting at a seeded multiple
    of the mix period.
    """
    rng = random.Random(seed)
    if workload == "cold_upload":
        period = len(COLD_SIZES) * len(COLD_FORMATS)
        start = rng.randrange(len(cells) // period) * period
        walk = PoolWalk(cells, start)
        return [walk] * clients
    offset = rng.randrange(len(cells))
    share = len(cells) // clients
    return [Cycle(cells, offset + c * share) for c in range(clients)]
