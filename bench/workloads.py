"""The three benchmark workloads, driven through dpdelta's public API.

Each workload is built from the benchmark seed alone; dpdelta only sees the
inputs generated from it. `prepare` loads or generates the inputs and
validates them (this is what set-up time measures), and `operations` lists
one pass of work as (label, check) pairs. A check returns None when the
operation's output is correct and a description of the fault otherwise.
The references a check compares against never come from a sweep.
"""
from __future__ import annotations

import json
import random
import zlib
from fractions import Fraction
from typing import Callable

import dpdelta
import lattice

Check = Callable[[], "str | None"]


def _stored_facts(case_dir) -> int:
    """Number of values `expected.json` stores for one catalog case."""
    data = json.loads((case_dir / "expected.json").read_text(encoding="utf-8"))
    facts = 1 + 3 * sum("blowup" in entry for entry in data.get("configs", ()))
    for flag in data["flags"]:
        facts += 1 + len(flag.get("points", ())) + ("chambers" in flag)
    for bound in data.get("class_bounds", ()):
        facts += 1 + len(bound.get("covers", ()))
    return facts


def _load_catalog() -> list:
    return [dpdelta.load_case(name) for name in dpdelta.case_names()]


class CatalogVerify:
    """`dpdelta verify` traffic: one operation is verify_case on one case.

    All 19 cases (42 configurations, 95 flags, 411 rows, A7-irreducible
    included) are reloaded before every pass so per-config caches start
    cold, and the seed shuffles the case order of each pass.
    """

    name = "catalog-verify"
    fresh_per_pass = True
    min_passes = 11

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        root = dpdelta.catalog_root()
        self.facts = {name: _stored_facts(root / name) for name in dpdelta.case_names()}

    def prepare(self) -> list:
        return _load_catalog()

    def self_check(self, records: list) -> list[str]:
        return []

    def operations(self, records: list) -> list[tuple[str, Check]]:
        order = list(records)
        self.rng.shuffle(order)
        return [(record.name, self._verify(record)) for record in order]

    def _verify(self, record) -> Check:
        def check() -> str | None:
            report = dpdelta.verify_case(record)
            failed = [row.render() for row in report.rows if not row.passed]
            if failed:
                return "; ".join(failed)
            if len(report.rows) < self.facts[record.name]:
                return (
                    f"{len(report.rows)} rows for {self.facts[record.name]} stored values"
                )
            return None

        return check


class OracleGate:
    """The oracle acceptance gate: every flag at 100 trials plus quadrature.

    One operation is one flag's random_equivalence against the subset
    oracle and quadrature_check on its P^2. The trial seed is the gate's
    crc32 of the flag label mixed with the benchmark seed (seed 0 is the
    gate itself). Configurations are reloaded before every pass, so the
    subset enumerations and tables are built cold, as in one test session.
    """

    name = "oracle-gate"
    fresh_per_pass = True
    min_passes = 2
    trials = 100

    def __init__(self, seed: int):
        self.seed = seed

    def prepare(self) -> list:
        return _load_catalog()

    def self_check(self, records: list) -> list[str]:
        return []

    def operations(self, records: list) -> list[tuple[str, Check]]:
        ops = []
        for record in records:
            for spec in record.flag_specs:
                label = f"{record.name}:{spec.config_id}:{spec.flag}"
                ops.append((label, self._gate(record, spec, label)))
        return ops

    def _gate(self, record, spec, label: str) -> Check:
        def check() -> str | None:
            cfg = record.config(spec.config_id)
            decomp = dpdelta.catalog.decompose_flag(record, spec)
            report = dpdelta.random_equivalence(
                cfg,
                spec.flag,
                trials=self.trials,
                seed=zlib.crc32(label.encode()) ^ self.seed,
                decomp=decomp,
            )
            quad = dpdelta.quadrature_check(decomp.p_sq_piecewise(), tol=1e-9)
            if report.mismatches or report.ambiguous or report.trials != self.trials:
                return (
                    f"{len(report.mismatches)} mismatches, {report.ambiguous} ambiguous "
                    f"in {report.trials} trials"
                )
            if not quad.ok:
                return f"quadrature differs by {quad.error}"
            return None

        return check


# Root flags of the generated A_n configurations and the catalog row that
# stores their S: (roots, lattice flag) -> (case, configuration id, flag).
ROOT_FLAG_REFERENCES = {
    (1, "E1"): ("A1-nodal", "base", "E"),
    (2, "E1"): ("A2-nodal", "base", "E1"),
    (3, "E1"): ("A3", "base", "E1"),
    (3, "E2"): ("A3", "base", "E2"),
    (4, "E1"): ("A4", "a", "E1"),
    (4, "E2"): ("A4", "a", "E2"),
}
# S(E) for a (-1)-curve E on a smooth degree-1 del Pezzo surface:
# P^2 = 1 - 2v - v^2 on [0, 1/3], then 2(2v - 1)^2 on [1/3, 1/2].
SMOOTH_S = Fraction(2, 9)


def _stored_s(case: str, config_id: str, flag: str) -> Fraction:
    path = dpdelta.catalog_root() / case / "expected.json"
    for row in json.loads(path.read_text(encoding="utf-8"))["flags"]:
        if row["config"] == config_id and row["flag"] == flag:
            return Fraction(row["s"])
    raise LookupError(f"{case} stores no S for {flag}[{config_id}]")


class LatticeSweep:
    """Sweep plus s_flag on wide configurations generated from E8.

    Configurations: the smooth surface (240 curves) and A1-A4 root chains
    (184, 129, 86 and 55 curves). Flags: twelve (-1)-curves of the smooth
    surface picked by the seed, and the root flags whose S the catalog
    stores. The seed also permutes every configuration's curve order.
    """

    name = "lattice-sweep"
    fresh_per_pass = False
    min_passes = 6
    smooth_flags = 12

    def __init__(self, seed: int):
        rng = random.Random(seed)
        self.config_seeds = [rng.randrange(2**32) for _ in range(lattice.MAX_CHAIN + 1)]
        self.flag_seed = rng.randrange(2**32)
        self.references = {
            key: _stored_s(*where) for key, where in ROOT_FLAG_REFERENCES.items()
        }

    def prepare(self) -> list:
        """Generate every configuration, load it into dpdelta and validate it."""
        out = []
        for n_roots, seed in enumerate(self.config_seeds):
            generated = lattice.LatticeConfig(n_roots, seed)
            config = dpdelta.config_from_json(generated.to_json(), source=generated.name)
            report = dpdelta.config.validate(config)
            if not report.ok:
                raise ValueError(report.render())
            out.append((generated, config))
        return out

    def self_check(self, inputs: list) -> list[str]:
        """The generator's invariants, checked exactly on its output."""
        problems = lattice.check_classes(lattice.exceptional_classes())
        for generated, _ in inputs:
            problems += lattice.check_config(generated)
        return problems

    def operations(self, inputs: list) -> list[tuple[str, Check]]:
        ops = []
        rng = random.Random(self.flag_seed)
        for generated, config in inputs:
            if generated.n_roots == 0:
                flags = rng.sample(generated.minus_one_names, self.smooth_flags)
                refs = [SMOOTH_S] * len(flags)
            else:
                keys = [key for key in self.references if key[0] == generated.n_roots]
                flags = [flag for _, flag in keys]
                refs = [self.references[key] for key in keys]
            for flag, ref in zip(flags, refs):
                ops.append((f"{config.name}:{flag}", self._sweep(config, flag, ref)))
        return ops

    @staticmethod
    def _sweep(config, flag: str, reference: Fraction) -> Check:
        def check() -> str | None:
            decomp = dpdelta.parametric_decompose(config, flag)
            s = dpdelta.s_flag(config, flag, decomp)
            return None if s == reference else f"S = {s}, expected {reference}"

        return check


WORKLOADS = {w.name: w for w in (CatalogVerify, OracleGate, LatticeSweep)}
