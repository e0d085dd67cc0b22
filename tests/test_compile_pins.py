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

``MIRROR`` pins three device-scale mirror points the same way, and adds the
float hex of their ``hardware_scaling_point(..., seed=7)`` record's
``flip_free_probability``, ``success_probability`` and ``fidelity``.  At 63
and 127 qubits the flip-free probability is still a normal float: it is the
product over every window op's Pauli twirl, so a bit moved anywhere in the
idle-window noise (crosstalk fold, concurrency overlaps, twirls) shows here.
At 255 qubits (the perfbench ``mirror-255`` point) it underflows to 0.0, so
that pin holds the routed circuit, both layouts, the SWAP count and the
sampled fidelity.
"""

import functools

import pytest

from repro.analysis.scaling import hardware_scaling_point
from repro.hardware import Backend, topologies
from repro.hardware.devices import synthetic_device
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


MIRROR = {
    ("heavy_hex:4", "MIRROR:63@7"): (
        "8049b0e34ac4c4cac630c2742ae3b7e30755a8729720887b7376173b134d3ee1",
        (
            19, 25, 24, 34, 43, 18, 2, 16, 8, 7, 6, 5, 15, 1, 14, 53, 60, 59, 41,
            42, 40, 39, 33, 20, 21, 22, 23, 26, 27, 28, 29, 30, 17, 12, 11, 10, 9,
            31, 32, 36, 51, 50, 49, 55, 68, 69, 70, 74, 89, 88, 66, 65, 64, 54, 45,
            46, 47, 35, 48, 67, 63, 44, 0,
        ),
        (
            15, 22, 23, 24, 34, 42, 6, 7, 16, 8, 5, 3, 2, 1, 39, 40, 60, 59, 53,
            41, 33, 19, 18, 14, 20, 21, 25, 26, 27, 28, 29, 11, 10, 9, 12, 17, 30,
            31, 32, 36, 51, 50, 55, 68, 67, 69, 70, 74, 89, 88, 87, 86, 63, 44, 43,
            46, 35, 47, 49, 48, 54, 64, 45,
        ),
        90,
        ("0x1.0d9a76be0c78ep-69", "0x0.0p+0", "0x1.8000000000000p-50"),
    ),
    ("line_127", "MIRROR:127@7"): (
        "ef75849c96ed613f6cbd52be90e9c6bd77147f61395111972fe792d34a49192f",
        (
            81, 113, 114, 115, 116, 117, 118, 119, 120, 121, 122, 123, 124, 125,
            126, 112, 111, 110, 109, 108, 107, 106, 105, 104, 103, 102, 101, 100,
            99, 98, 97, 96, 95, 94, 93, 92, 91, 90, 89, 80, 74, 31, 32, 33, 34,
            35, 36, 37, 38, 39, 40, 41, 42, 43, 44, 45, 46, 47, 48, 49, 50, 51,
            52, 75, 76, 1, 0, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16,
            17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 53, 54, 55,
            56, 57, 58, 59, 60, 61, 62, 63, 64, 65, 66, 67, 68, 69, 70, 71, 72,
            73, 77, 79, 85, 86, 87, 88, 84, 83, 82, 78,
        ),
        (
            109, 110, 111, 112, 113, 114, 115, 116, 117, 118, 119, 120, 126, 125,
            124, 123, 122, 121, 108, 107, 106, 105, 104, 103, 102, 101, 100, 99,
            98, 97, 96, 95, 94, 93, 92, 91, 90, 89, 88, 87, 53, 52, 51, 50, 32,
            33, 34, 35, 36, 37, 38, 39, 40, 41, 42, 43, 44, 45, 46, 47, 70, 71,
            72, 73, 5, 4, 3, 2, 0, 1, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17,
            18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31, 48, 49, 54,
            55, 56, 57, 58, 59, 60, 61, 62, 63, 64, 65, 66, 67, 68, 69, 74, 75,
            76, 77, 79, 80, 85, 86, 84, 83, 82, 81, 78,
        ),
        347,
        ("0x1.7aadc80bf2543p-197", "0x0.0p+0", "0x1.8000000000000p-50"),
    ),
    ("line_255", "MIRROR:255@7"): (
        "99f164c8185596d4f07d567a9355ba220aa6fe0d09c53cf5e5bcaa0b9ffbc8dc",
        (
            47, 168, 167, 166, 165, 164, 163, 162, 161, 160, 159, 46, 45, 157, 158,
            156, 155, 154, 153, 152, 151, 150, 149, 148, 147, 146, 145, 144, 143,
            142, 141, 140, 139, 44, 41, 40, 39, 38, 37, 36, 35, 34, 33, 32, 31, 30,
            29, 28, 27, 26, 25, 24, 23, 22, 21, 20, 43, 127, 128, 129, 130, 131,
            132, 133, 134, 135, 136, 137, 138, 126, 125, 124, 123, 42, 19, 121, 122,
            120, 119, 118, 117, 116, 115, 114, 113, 112, 111, 110, 109, 108, 107,
            106, 105, 104, 103, 102, 101, 100, 99, 98, 97, 96, 95, 94, 93, 92, 91,
            90, 89, 88, 87, 86, 85, 84, 83, 82, 81, 80, 79, 78, 77, 76, 75, 74, 73,
            72, 71, 18, 17, 195, 194, 193, 192, 191, 190, 189, 188, 187, 186, 185,
            184, 183, 182, 181, 180, 179, 178, 16, 15, 56, 57, 58, 59, 60, 61, 62,
            63, 64, 65, 66, 67, 68, 69, 70, 55, 54, 53, 52, 51, 14, 13, 198, 199,
            200, 201, 202, 203, 204, 205, 206, 207, 208, 209, 210, 211, 212, 213,
            12, 11, 228, 229, 230, 231, 232, 233, 234, 235, 236, 237, 10, 6, 1, 0,
            2, 3, 4, 5, 7, 9, 248, 249, 250, 251, 252, 253, 254, 247, 246, 245, 244,
            243, 242, 241, 240, 239, 238, 227, 226, 225, 224, 223, 222, 221, 220,
            219, 218, 217, 216, 215, 214, 197, 196, 177, 176, 175, 174, 173, 172,
            171, 170, 169, 50, 49, 48, 8,
        ),
        (
            155, 156, 158, 157, 154, 153, 152, 151, 150, 149, 148, 147, 143, 144,
            145, 146, 142, 141, 140, 139, 138, 137, 136, 135, 134, 133, 132, 131,
            130, 129, 128, 127, 126, 125, 29, 28, 27, 26, 25, 24, 23, 22, 21, 20,
            19, 18, 17, 16, 15, 14, 13, 12, 11, 10, 9, 8, 57, 58, 59, 60, 115, 116,
            117, 118, 119, 120, 123, 124, 122, 121, 114, 113, 112, 111, 107, 108,
            110, 109, 106, 105, 104, 103, 102, 101, 100, 99, 98, 97, 96, 95, 94, 93,
            92, 91, 90, 89, 88, 87, 86, 85, 84, 83, 82, 81, 80, 79, 78, 77, 76, 75,
            74, 73, 72, 71, 70, 69, 68, 67, 66, 65, 64, 63, 62, 61, 42, 41, 40, 39,
            173, 174, 187, 188, 186, 185, 184, 183, 182, 181, 180, 179, 178, 177,
            176, 175, 172, 171, 164, 163, 33, 34, 37, 38, 43, 44, 45, 46, 47, 48,
            49, 50, 51, 52, 55, 56, 54, 53, 36, 35, 32, 31, 191, 192, 193, 194, 195,
            196, 197, 198, 199, 200, 201, 202, 203, 204, 208, 207, 206, 205, 223,
            224, 225, 226, 229, 230, 231, 232, 234, 233, 228, 227, 3, 2, 1, 0, 4, 5,
            6, 7, 245, 246, 247, 248, 249, 250, 253, 254, 252, 251, 244, 243, 242,
            241, 240, 239, 238, 237, 236, 235, 222, 221, 220, 219, 218, 217, 216,
            215, 214, 213, 212, 211, 210, 209, 190, 189, 170, 169, 168, 167, 166,
            165, 162, 161, 160, 159, 30,
        ),
        3294,
        ("0x0.0p+0", "0x0.0p+0", "0x1.a000000000000p-50"),
    ),
}


def _mirror_backend(device: str) -> Backend:
    if device.startswith("line_"):
        width = int(device[len("line_"):])
        return Backend(
            synthetic_device(width, edges=topologies.line(width), name=device)
        )
    return Backend.from_name(device, cycle=0)


@pytest.mark.parametrize("device,workload", sorted(MIRROR))
def test_device_scale_mirror_point(device, workload):
    backend = _mirror_backend(device)
    compiled = transpile(get_benchmark(workload).build(), backend)
    record = hardware_scaling_point(backend, benchmark=workload, seed=7)
    fingerprint, initial, final, swaps, floats = MIRROR[device, workload]
    assert (
        circuit_fingerprint(compiled.physical_circuit),
        compiled.initial_layout.logical_to_physical,
        compiled.final_layout.logical_to_physical,
        compiled.num_swaps,
    ) == (fingerprint, initial, final, swaps)
    assert record.num_swaps == swaps and record.mirror_verified
    assert (
        record.flip_free_probability.hex(),
        record.success_probability.hex(),
        record.fidelity.hex(),
    ) == floats
