"""The three workloads: their inputs, the timed job, and its checks.

Each workload gets the graftkit package and the seed, builds its inputs
in prepare(), runs one repetition in job() by calling graftkit's public
functions with their default arguments, and checks that repetition's
outputs in check() with the independent checks of checks.py.

The jobs are fixed, so call counts repeat exactly from run to run and
from seed to seed; the seed picks the pairs the oracle check redraws.
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict, List, Tuple

import checks


class OracleSweep:
    """verify_suite("oracle", sweep=2), what `graftkit verify --suite
    oracle --range 2` runs: 256 ordered pairs of primitive classes with
    up to 8 crossings each. All of the time is in grid_oracle and torus."""

    name = "oracle_sweep"
    radius = 2
    sample_size = 16

    def prepare(self, gk, seed: int) -> None:
        self.gk = gk
        prims = checks.primitive_classes(self.radius)
        pairs = [(a, b) for a in prims for b in prims]
        self.sample = random.Random(seed).sample(pairs, self.sample_size)

    def job(self):
        return self.gk.verify_suite("oracle", sweep=self.radius)

    def check(self, report) -> List[str]:
        oracle = self.gk.grid_oracle
        problems = checks.oracle_report(report.to_json_obj(), self.radius)
        for a, b in self.sample:
            first, second = oracle.draw_pair(a, 1, b, 1)
            problems += checks.oracle_pair(
                a, b, oracle.oracle_intersection(first, second),
                oracle.oracle_resolve(first, second, self.gk.Mode.SHARP),
                oracle.oracle_resolve(first, second, self.gk.Mode.FLAT))
        return problems


class ComplexBuild:
    """What `graftkit complex --format json` does, for 1, 2 and 3 charts:
    build_complex, rank_by_kind() and to_json_bytes(). Time is in
    surface (admissibility, grafts, keys, twists) and complex_graph (BFS,
    export); most edges land on vertices already seen."""

    name = "complex_build"
    # (charts, twist bound, depth). One chart has no elementary moves.
    sizes = ((1, 8, 4), (2, 4, 3), (3, 2, 3))

    def prepare(self, gk, seed: int) -> None:
        self.gk = gk
        self.configs = [(gk.standard_configuration(c), bound, depth)
                        for c, bound, depth in self.sizes]
        self.digests: List[str] = []

    def job(self):
        out = []
        for config, bound, depth in self.configs:
            graph = self.gk.build_complex(config, bound, depth)
            out.append((graph.rank_by_kind(), graph.to_json_bytes()))
        return out

    def check(self, outputs) -> List[str]:
        problems = []
        digests = [hashlib.sha256(data).hexdigest() for _, data in outputs]
        if not self.digests:
            self.digests = digests
        for (c, bound, depth), (ranks, data), digest, first in zip(
                self.sizes, outputs, digests, self.digests):
            problems += [f"{c} charts: {p}"
                         for p in checks.complex_export(data, ranks)]
            if digest != first:
                problems.append(f"{c} charts: export differs from the first "
                                f"build of this run")
        return problems


class IdentitySuites:
    """The identity suites goldman (seeded, six charts), iterated,
    two_meridian and dehn_twist, plus standard_fan and the witness graph
    export. Wide multicurves are built by disjoint grafts and each
    structure is keyed once or twice; nothing is deduplicated."""

    name = "identity_suites"
    suites: Dict[str, dict] = {
        "goldman": {"trials": 400, "seed": 7},
        "iterated": {"l0": 1, "twist_bound": 30},
        "two_meridian": {"k_max": 10},
        "dehn_twist": {"k_max": 30},
    }
    fan = ("a", 30, 7)        # chart, fan size, m
    witness = (1, 30)         # l0, twist bound

    def prepare(self, gk, seed: int) -> None:
        self.gk = gk
        self.config = gk.standard_configuration()
        p = self.suites
        self.expected_instances = {
            "goldman": p["goldman"]["trials"] + 1,
            "iterated": 2 * p["iterated"]["twist_bound"] + 2,
            "two_meridian": p["two_meridian"]["k_max"]
            * (p["two_meridian"]["k_max"] + 1) // 2,
            "dehn_twist": 2 * p["dehn_twist"]["k_max"],
        }

    def job(self):
        reports = {name: self.gk.verify_suite(name, **params)
                   for name, params in self.suites.items()}
        fan = self.gk.standard_fan(self.config, *self.fan)
        witness = self.gk.witness_graph(self.config, *self.witness)
        return reports, fan, witness.to_json_bytes()

    def check(self, outputs: Tuple) -> List[str]:
        reports, fan, witness_export = outputs
        return checks.identity_suites(
            {name: r.to_json_obj() for name, r in reports.items()},
            self.expected_instances, (fan.common_key, fan.rows),
            self.fan[2], witness_export, self.witness[1], self.fan[0],
            {"lambda": 1})


WORKLOADS = {w.name: w for w in (OracleSweep, ComplexBuild, IdentitySuites)}
