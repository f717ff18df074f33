"""Every witness producer, pinned by one digest.

The CLI stdout pins cover only the witnesses the CLI prints. This digest
covers each producer on the registry products: sampled table paths, the
target searches, full-Pauli and normalizer barriers, stabilizer paths and
canonical sweeps. A change to any walk, value or ``explored`` count moves
it.
"""

import hashlib
import json
import random

from hgpbarrier.barrier import (
    BarrierResult,
    SyndromeEnergy,
    bottleneck_search,
    classical_barrier,
    classical_table,
    normalizer_barrier,
    pauli_barrier_general,
    quantum_barrier,
    sector_table,
    stabilizer_path,
    sweep_path_for_canonical,
)
from hgpbarrier.errors import NoLogicals
from hgpbarrier.f2core import BitVec, combine
from hgpbarrier.logicals import (
    PauliVec,
    canonical_x_basis,
    canonical_z_basis,
    enumerate_x_logicals,
    enumerate_z_logicals,
)
from hgpbarrier.verify import quantum_instances

# sha256 of the records below; only a deliberate change of values, witnesses
# or explored counts may move it, and such a change must say so
DIGEST = "bfb822c63d98696be978c5de0fcbaf9b20afee44bc87a3d686de7ad9fda3baf8"


def _record(label, out):
    """Label, steps, energies, states and, for a BarrierResult, value,
    explored count and target."""
    rec = {"label": label}
    if isinstance(out, BarrierResult):
        rec.update(value=out.value, explored=out.explored, target=repr(out.target))
        out = out.witness
    rec.update(
        steps=out.steps_json(),
        energies=list(out.energies),
        max_energy=out.max_energy,
        states=[repr(s) for s in out.states],
    )
    return rec


def _parents(code):
    return (code.h1, code.h2, code.h1.transpose(), code.h2.transpose())


def _records():
    rng = random.Random(2407)
    for name, code in sorted(quantum_instances().items()):
        n = code.n_qubits
        for sector in ("z", "x"):
            table = sector_table(code, sector)
            for bits in rng.sample(range(1 << n), 24):
                yield _record(f"{name}/table/{sector}/{bits}", table.path(bits))
                yield {"value": table.value(bits)}
            if code.k:
                yield _record(f"{name}/quantum/{sector}", quantum_barrier(code, sector))
        for i, parent in enumerate(_parents(code)):
            table = classical_table(parent)
            for bits in rng.sample(range(1 << parent.n), min(6, 1 << parent.n)):
                yield _record(f"{name}/classical-table/{i}/{bits}", table.path(bits))
            energy = SyndromeEnergy(parent.h.row_bits, parent.n)
            target = rng.randrange(1 << parent.n)
            yield _record(f"{name}/bottleneck/{i}", bottleneck_search(energy, parent.n, target))
            try:
                yield _record(f"{name}/classical/{i}", classical_barrier(parent))
            except NoLogicals:
                pass
        xs = [p.x for p in enumerate_x_logicals(code)] + [BitVec(n)]
        zs = [p.z for p in enumerate_z_logicals(code)] + [BitVec(n)]
        gens = code.hx.row_bits + tuple(r << n for r in code.hz.row_bits)
        for j in range(4):
            combo = rng.randrange(1 << len(gens))
            bits = combine(gens, combo)
            s = PauliVec(n, BitVec(n, bits & ((1 << n) - 1)), BitVec(n, bits >> n))
            path = stabilizer_path(code, s, BitVec(len(gens), combo))
            yield _record(f"{name}/stabilizer/{combo}", path)
            p = PauliVec(n, rng.choice(xs) ^ s.x, rng.choice(zs) ^ s.z)
            yield _record(f"{name}/normalizer/{j}", normalizer_barrier(code, p))
        for op in (canonical_z_basis(code) + canonical_x_basis(code)) if code.k else ():
            yield _record(f"{name}/sweep/{op.kind}", sweep_path_for_canonical(code, op))
        if n <= 10:
            targets = [PauliVec.z_type(z) for z in zs] + [PauliVec.x_type(x) for x in xs]
            targets += [
                PauliVec(n, BitVec(n, rng.randrange(1 << n)), BitVec(n, rng.randrange(1 << n)))
                for _ in range(40)
            ]
            for t in targets:
                yield _record(f"{name}/pauli/{t.x.bits}/{t.z.bits}", pauli_barrier_general(code, t))


def test_every_witness_matches_the_recorded_digest():
    payload = json.dumps(list(_records()), sort_keys=True).encode()
    assert hashlib.sha256(payload).hexdigest() == DIGEST
