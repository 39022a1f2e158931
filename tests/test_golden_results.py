"""Golden byte-identity of simulated results.

Performance work on the simulator's hot paths must not change a single
byte of any :class:`SimResult`.  This test pins one SHA-256 over the
canonical JSON of a fixed matrix of runs:

* every profile in the catalog (sorted by name) under each of the four
  paper strategies, at ``instructions=1500, warmup=500, seed=3``;
* every ``forward_latency_mode`` on both the chain and the ring
  interconnect, for gzip, mcf and pegwit_enc under FDRT, at ``seed=5``.

The digest does not depend on ``PYTHONHASHSEED``.  If a change alters
simulated behaviour on purpose, re-record the digest and say why in the
change log.
"""

import hashlib
import json

from repro import StrategySpec, simulate
from repro.cluster.config import FORWARD_MODES, MachineConfig
from repro.workloads.profiles import all_profiles

GOLDEN_SHA256 = (
    "eac3adf74884692f7773613a53d6c546d8524762b15b4470127f8aa4109a5550"
)

STRATEGIES = ("base", "issue", "friendly", "fdrt")
INTERCONNECTS = ("chain", "ring")
MODE_BENCHMARKS = ("gzip", "mcf", "pegwit_enc")


def _canonical(result) -> bytes:
    return json.dumps(result.to_dict(), sort_keys=True).encode()


def golden_digest() -> str:
    """SHA-256 over the canonical results of the golden matrix."""
    digest = hashlib.sha256()
    for name in sorted(all_profiles()):
        for kind in STRATEGIES:
            result = simulate(name, StrategySpec(kind=kind),
                              instructions=1500, warmup=500, seed=3)
            digest.update(_canonical(result))
    for mode in FORWARD_MODES:
        for interconnect in INTERCONNECTS:
            config = MachineConfig(forward_latency_mode=mode,
                                   interconnect=interconnect)
            for name in MODE_BENCHMARKS:
                result = simulate(name, StrategySpec(kind="fdrt"),
                                  config=config, instructions=1500,
                                  warmup=500, seed=5)
                digest.update(_canonical(result))
    return digest.hexdigest()


def test_golden_matrix_is_byte_identical():
    assert golden_digest() == GOLDEN_SHA256
