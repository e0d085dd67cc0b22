"""Literal pins of the compile step: logical circuits, layouts, routes.

The values below were recorded while the noise-adaptive layout's
interaction graph and the QAOA-8B/10B problem graphs still came from
networkx (3.6.1).  They pin that the compile step did not move when the
runtime dropped that dependency, and they keep it from moving silently
since: store keys name workloads, not circuits, so a change here would
change stored results under unchanged keys unless ``SCHEMA_VERSION`` moves
with it.

``LOGICAL`` holds the ``circuit_fingerprint`` of each Table 4 build and of
QAOA-5.  ``COMPILED`` holds, per (device, workload) at calibration cycle 0,
the compiled physical circuit's fingerprint, the initial and final layouts
and the SWAP count.
"""

import functools

import pytest

from repro.hardware import Backend
from repro.store.keys import circuit_fingerprint
from repro.transpiler import transpile
from repro.workloads import get_benchmark

LOGICAL = {
    "BV-7": "edf36b14c276ff0e0928a3d15df9d140da274692f14412bd4e87ac3dc5d04ccd",
    "BV-8": "172a96754b1452154974ae12cfbe1de51761e43da7830afb533f19b3a78b9085",
    "QFT-6A": "667b8a9b721191a3694876165498336ce4a686d7ffdc81c1077373001d80da6d",
    "QFT-6B": "e3420f8de89716a02ceed6dd3c0ebc9a1d703bc1bcd7d845028fa3b759e0f5b5",
    "QFT-7A": "29748b58611b87805c3d68a22cc5a3d3a9ad5576905319c19d28a934b117dc21",
    "QFT-7B": "c911e40a5e660f800582518a658a62675849b0eaa2f191178a9439bede91a094",
    "QAOA-8A": "a5324f64be2678e4121e25bbf4210fd4c1540d0dce0ed558a9b768486f90b474",
    "QAOA-8B": "65c09346a9f31f41ba9a9a3775d77cfc5227e2f2a5eaf5d43750bdc5a85f901d",
    "QAOA-10A": "776aaeef666cc5d25c0934fb027d08ed3aa8a24eacf20e36553e46f5178185ac",
    "QAOA-10B": "898647c19d8f8b9e76f07c0fbc39f7959c431e3ce953c5b5c3aac20a355f3e58",
    "QPEA-5": "eff2869b898d833c509f1b60dce2a98b6dd2afa9205ef81b34a28a3b9d79d8cb",
    "QAOA-5": "e9c87196a02a59227ee64ec4a4220f36859336a3ddb54a214dd1fe0c6052248c",
}

COMPILED = {
    ("ibmq_toronto", "BV-7"): (
        "0642de890061ee9e211178e817086ea2507627ca062ab2a625c33fb2fe8e1691",
        (12, 18, 15, 17, 10, 21, 13),
        (13, 18, 15, 17, 10, 21, 12),
        1,
    ),
    ("ibmq_toronto", "BV-8"): (
        "c60ec021eeeca86d6522e950a5ca24ab443586c050bd2a0ac97acf4154c2c334",
        (14, 18, 12, 17, 15, 21, 10, 13),
        (14, 18, 13, 17, 15, 21, 10, 12),
        1,
    ),
    ("ibmq_toronto", "QFT-6A"): (
        "8ab25eb7d2f1ca949e3bae38cf821c9b5631b8666ad63f853a49d54e112bda2c",
        (15, 12, 10, 18, 17, 21),
        (18, 15, 21, 17, 12, 10),
        16,
    ),
    ("ibmq_toronto", "QFT-6B"): (
        "c530f5351444d6e4eb429a84de7c29ecde8a51def2a395a119b03151d02934a5",
        (15, 12, 10, 18, 17, 21),
        (15, 12, 10, 18, 17, 21),
        20,
    ),
    ("ibmq_toronto", "QFT-7A"): (
        "f4423a21b3205aa5a9e5b457cae8854feb958229d0af77c126570006331af0d9",
        (13, 12, 15, 21, 10, 18, 17),
        (15, 18, 12, 21, 13, 17, 10),
        23,
    ),
    ("ibmq_toronto", "QFT-7B"): (
        "c55a7f6787e6b68be6a516ea9052b9655242202a396dbd0dffbdd4c4b787871a",
        (13, 12, 15, 10, 18, 17, 21),
        (18, 15, 21, 12, 10, 17, 13),
        31,
    ),
    ("ibmq_toronto", "QAOA-8A"): (
        "449940fd357deeeb769828f24e8794d604d22cff56373ea30279cc138dd04e8c",
        (13, 14, 12, 15, 18, 17, 21, 10),
        (13, 14, 10, 18, 21, 17, 15, 12),
        5,
    ),
    ("ibmq_toronto", "QAOA-8B"): (
        "73284d43aade530dc99fbb02020a44f5dc31c3f0dd838e4858d9f7cfcb8b8ed9",
        (13, 14, 12, 15, 10, 18, 17, 21),
        (14, 10, 12, 21, 13, 18, 15, 17),
        38,
    ),
    ("ibmq_toronto", "QAOA-10A"): (
        "bb585bbf35f164e6e862cd82de41f9a80f618ada94ca11781adb1b5d49227775",
        (13, 14, 16, 11, 12, 15, 18, 17, 21, 10),
        (13, 11, 16, 14, 10, 18, 21, 17, 15, 12),
        6,
    ),
    ("ibmq_toronto", "QAOA-10B"): (
        "8d784f832d6a253499a8d2ad229b60513a5b08fab481a2e4b9d4ca9ae63d5423",
        (13, 14, 15, 12, 18, 10, 16, 17, 11, 21),
        (17, 11, 10, 15, 12, 13, 16, 21, 14, 18),
        29,
    ),
    ("ibmq_toronto", "QPEA-5"): (
        "d7968cc244a15b14a78d414e4804fdbee9ed91ed5ed9351c67bc499430adb5e9",
        (15, 12, 18, 17, 21),
        (15, 18, 12, 21, 17),
        8,
    ),
    ("ibmq_toronto", "QAOA-5"): (
        "884778df023e9cbc289d9fcc063b5012c6cff127ecacf5c0bf7a33f397d02b01",
        (15, 12, 18, 17, 21),
        (18, 12, 15, 17, 21),
        3,
    ),
    ("ibmq_paris", "BV-7"): (
        "4428a8b21a902e3221591b9176d348091772e7429f75226c51f88609bb92cc1d",
        (24, 19, 21, 22, 18, 25, 23),
        (24, 19, 18, 22, 21, 25, 23),
        1,
    ),
    ("ibmq_paris", "BV-8"): (
        "08ad4f633b6464d7d0ecbb3b3ea839ca8aac86a71b476d5e7c5227917c23eeba",
        (24, 19, 21, 22, 18, 16, 25, 23),
        (23, 19, 18, 22, 21, 16, 25, 24),
        2,
    ),
    ("ibmq_paris", "QFT-6A"): (
        "dbaba42d16a6fae0e9589a6be8e669486b6f91930fa95f3d14303a93c1deabf5",
        (23, 24, 21, 18, 25, 22),
        (24, 25, 22, 23, 21, 18),
        19,
    ),
    ("ibmq_paris", "QFT-6B"): (
        "d5c8f63744abaa119ab5928b1e4bec0fc21b2f05800346347dd673d17c033729",
        (23, 24, 21, 18, 25, 22),
        (21, 23, 18, 24, 25, 22),
        23,
    ),
    ("ibmq_paris", "QFT-7A"): (
        "1efe0fdafb713c9d6cc99a1df5f1b67219f8823f2442e54e6434cfbc753b5e52",
        (23, 24, 21, 19, 18, 25, 22),
        (24, 25, 23, 22, 21, 18, 19),
        33,
    ),
    ("ibmq_paris", "QFT-7B"): (
        "f3616feec59b5845f1b943124150ef3f4debd01064e79d26b1b688330ece7a11",
        (23, 24, 21, 18, 25, 22, 19),
        (25, 22, 24, 19, 21, 23, 18),
        47,
    ),
    ("ibmq_paris", "QAOA-8A"): (
        "a77473cc3b09501e86036d066303c2cb1abd8ed9417c506d943c049e62fa5c2b",
        (23, 24, 25, 22, 19, 16, 18, 21),
        (23, 24, 25, 22, 19, 15, 18, 21),
        4,
    ),
    ("ibmq_paris", "QAOA-8B"): (
        "2244acdce632b029ee165444f4cf5d82020ac8210ee3ceccccbd2ff2b2e5d12a",
        (23, 19, 24, 21, 22, 16, 25, 18),
        (21, 25, 23, 24, 22, 16, 14, 19),
        24,
    ),
    ("ibmq_paris", "QAOA-10A"): (
        "93564f0b56b5efc8ba0cf9ba5dc7bfff5af021edd58331438ab2e7a225956f3f",
        (14, 16, 19, 22, 25, 24, 23, 21, 18, 20),
        (16, 19, 20, 22, 25, 24, 23, 21, 13, 14),
        6,
    ),
    ("ibmq_paris", "QAOA-10B"): (
        "49aabd2973d840094189dbcc087d1094c9911e7ff1908bae38bd530b3d506d79",
        (14, 23, 19, 22, 20, 16, 24, 25, 21, 18),
        (16, 25, 19, 14, 24, 18, 23, 20, 21, 22),
        40,
    ),
    ("ibmq_paris", "QPEA-5"): (
        "19b01eb778ed57340355cfca9c53d831a5e7b0502604e30c05077e5199675fa5",
        (23, 24, 21, 18, 25),
        (24, 23, 25, 21, 18),
        9,
    ),
    ("ibmq_paris", "QAOA-5"): (
        "14c1186778703e5a09891442bf92154bc4346223f3298b99ee14b9fe95d84e13",
        (23, 24, 25, 21, 18),
        (18, 25, 24, 23, 21),
        3,
    ),
    ("ibmq_guadalupe", "BV-7"): (
        "af7cc5132a30aa4d1c3b7f6fad7db6b5067b25f6396a53cefec9da346affabd1",
        (8, 14, 11, 13, 9, 12, 5),
        (5, 14, 11, 13, 9, 12, 8),
        1,
    ),
    ("ibmq_guadalupe", "BV-8"): (
        "9f2928fcdac4e0d5e8b62815b0dc709d89dedfab2f11e2574fa107f0441a1858",
        (3, 14, 8, 13, 11, 12, 9, 5),
        (3, 14, 5, 13, 11, 12, 9, 8),
        1,
    ),
    ("ibmq_guadalupe", "QFT-6A"): (
        "bef649f64374f27226e4380ed10ea90f85df2372048c26095e7d486350773ddd",
        (14, 11, 8, 13, 9, 12),
        (11, 14, 8, 13, 9, 12),
        21,
    ),
    ("ibmq_guadalupe", "QFT-6B"): (
        "e5a67d054aace290b8e48a0a096a5e206d2325d9ba486ef2f9346c7d74d71c17",
        (14, 11, 8, 13, 9, 12),
        (11, 14, 8, 13, 9, 12),
        31,
    ),
    ("ibmq_guadalupe", "QFT-7A"): (
        "8383dd18cfacc96348806843e57b37979703c9ff840dae9195185cddf63802c0",
        (5, 8, 11, 12, 9, 14, 13),
        (14, 13, 11, 12, 8, 5, 9),
        23,
    ),
    ("ibmq_guadalupe", "QFT-7B"): (
        "efea09c3f24f6ac92c5d95c1ccd300e52686026c72646992daa20ede2a7eb880",
        (5, 8, 11, 9, 14, 13, 12),
        (8, 11, 9, 14, 5, 13, 12),
        38,
    ),
    ("ibmq_guadalupe", "QAOA-8A"): (
        "1efdaeb91b997d739c3a5197601472535d794a819931cbaf54e8d4d08e6dc5ea",
        (5, 3, 8, 11, 14, 13, 12, 9),
        (5, 3, 9, 14, 13, 12, 11, 8),
        6,
    ),
    ("ibmq_guadalupe", "QAOA-8B"): (
        "81cad6e8805104aacf5b0ff57c98435e2827142c8b558085176f4f06a7c6d8d0",
        (5, 14, 3, 8, 11, 13, 12, 9),
        (3, 12, 9, 5, 13, 11, 14, 8),
        23,
    ),
    ("ibmq_guadalupe", "QAOA-10A"): (
        "37a692852138e142918f17d5e6ebe038c1c4b4630a4030948af40be29711125d",
        (5, 3, 2, 8, 11, 14, 13, 12, 15, 9),
        (5, 2, 3, 9, 14, 13, 12, 15, 11, 8),
        8,
    ),
    ("ibmq_guadalupe", "QAOA-10B"): (
        "2936ddac3363c1b77c7dace9505ecc5b61971a830caf47463ae6e21931ecf190",
        (5, 14, 2, 11, 3, 8, 13, 9, 12, 15),
        (8, 2, 5, 11, 13, 14, 15, 3, 12, 9),
        46,
    ),
    ("ibmq_guadalupe", "QPEA-5"): (
        "ee850ddfbe3c0c29ec9295c85be2085ae7833f5601c127f35ebc71750d9acd4f",
        (14, 11, 8, 13, 12),
        (14, 13, 11, 12, 8),
        9,
    ),
    ("ibmq_guadalupe", "QAOA-5"): (
        "2368c9111e1b68c133e0f873db21e4ef2a3f03e4679100be9ac072bfd0ab18ce",
        (14, 11, 8, 13, 12),
        (12, 8, 11, 14, 13),
        3,
    ),
}


@functools.lru_cache(maxsize=None)
def _backend(device: str) -> Backend:
    return Backend.from_name(device, cycle=0)


@pytest.mark.parametrize("workload", sorted(LOGICAL))
def test_logical_circuit_fingerprint(workload):
    assert circuit_fingerprint(get_benchmark(workload).build()) == LOGICAL[workload]


@pytest.mark.parametrize("device,workload", sorted(COMPILED))
def test_compiled_program(device, workload):
    compiled = transpile(get_benchmark(workload).build(), _backend(device))
    assert (
        circuit_fingerprint(compiled.physical_circuit),
        compiled.initial_layout.logical_to_physical,
        compiled.final_layout.logical_to_physical,
        compiled.num_swaps,
    ) == COMPILED[device, workload]
