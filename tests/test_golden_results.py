"""Golden byte-identity of simulated results.

Performance work on the simulator's hot paths must not change a single
byte of any :class:`SimResult`.  This test pins one SHA-256 over the
canonical JSON of a fixed matrix of runs:

* every profile in the catalog (sorted by name) under each of the four
  paper strategies, at ``instructions=1500, warmup=500, seed=3``;
* every ``forward_latency_mode`` on both the chain and the ring
  interconnect, for gzip, mcf and pegwit_enc under FDRT, at ``seed=5``.

A second digest, ``STEERING_SHA256``, pins issue-time steering on the
machines whose clusters group by distance differently from the 4-cluster
chain: the Figure 8 ring ("mesh"), fast-forwarding and two-cluster
variants plus a full crossbar, at steering latencies 0, 2 and 4, for
adpcm_enc, jpeg_enc, gzip and mcf.

Neither digest depends on ``PYTHONHASHSEED``.  If a change alters
simulated behaviour on purpose, re-record the digest and say why in the
change log.
"""

import hashlib
import json

from repro import StrategySpec, simulate
from repro.cluster.config import (
    FORWARD_MODES,
    MachineConfig,
    fast_forward_config,
    mesh_config,
    two_cluster_config,
)
from repro.workloads.profiles import all_profiles

GOLDEN_SHA256 = (
    "eac3adf74884692f7773613a53d6c546d8524762b15b4470127f8aa4109a5550"
)

STEERING_SHA256 = (
    "2e4b4250580e932d851c80ac3e85a1aa70d6866b9564733ed186d3fb69eee293"
)

STRATEGIES = ("base", "issue", "friendly", "fdrt")
INTERCONNECTS = ("chain", "ring")
MODE_BENCHMARKS = ("gzip", "mcf", "pegwit_enc")
STEER_LATENCIES = (0, 2, 4)
STEER_BENCHMARKS = ("adpcm_enc", "jpeg_enc", "gzip", "mcf")


def _steering_configs():
    return (mesh_config(), fast_forward_config(), two_cluster_config(),
            MachineConfig(interconnect="xbar"))


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


def steering_digest() -> str:
    """SHA-256 over issue-time steering on the non-chain machines."""
    digest = hashlib.sha256()
    for config in _steering_configs():
        for latency in STEER_LATENCIES:
            spec = StrategySpec(kind="issue", steer_latency=latency)
            for name in STEER_BENCHMARKS:
                result = simulate(name, spec, config=config,
                                  instructions=1500, warmup=500, seed=3)
                digest.update(_canonical(result))
    return digest.hexdigest()


def test_golden_matrix_is_byte_identical():
    assert golden_digest() == GOLDEN_SHA256


def test_steering_matrix_is_byte_identical():
    assert steering_digest() == STEERING_SHA256
