"""Bit identity of the library's outputs on every exact solver path.

``tests/test_golden.py`` pins the CLI's files, which print depths to 12
significant digits and use clouds of at most 8 points.  This corpus pins the
full float64 bits (``float.hex``) of ``w2_matrix``, ``wsd_all``,
``wsd_discrete``, ``wsd_empirical`` (of the first and the last cloud),
``wsd_query_family``, the lens, metric spatial and kernel spatial reports of
``compute_depths`` and the three competitor depths of the first cloud
against the rest on seeded clouds that reach every solver the pair
dispatch can pick: 1-D, point mass, reduced and unreduced assignment,
replicated assignment both ways round (one pair of 400 -> 200 points), the
ragged and the weighted transport LP, near-duplicate atoms, one d=2 case
of 300 points, and exact copies of clouds (pairs at transport distance
zero, on the assignment path and on the LP).  Every output is computed at
threads 1 and 2 and must give the same digests, recorded from a known-good
build (x86-64 Linux, NumPy 2.4, SciPy 1.17).
"""
import hashlib
from functools import lru_cache
from itertools import combinations

import numpy as np
import pytest

from wsdepth import (
    Cloud,
    compute_depths,
    kernel_spatial_depth,
    lens_depth,
    metric_spatial_depth,
    w2_matrix,
    wsd_all,
    wsd_discrete,
    wsd_empirical,
    wsd_query_family,
)

SEED = 2024


def _normal(rng, m, d, weighted=False):
    points = rng.normal(size=(m, d)) * rng.uniform(0.5, 2.0) + rng.normal(size=d)
    return Cloud(points, rng.dirichlet(np.ones(m)) if weighted else None)


def _lattice(rng, m, d):
    """Integer points: repeated coordinate values and duplicate atoms."""
    return Cloud(np.round(rng.normal(size=(m, d)) * 1.5))


def _near_duplicates(rng, m, d):
    """Half the atoms one ulp away from the other half."""
    base = rng.normal(size=(m // 2, d))
    return Cloud(rng.permutation(np.concatenate([base, np.nextafter(base, np.inf)])))


def _exact_duplicates(rng, m, d):
    base = rng.normal(size=(m // 2, d))
    return Cloud(np.concatenate([base, base]))


def _copies(rng):
    """Exact copies of clouds 0 and 1 and of a weighted cloud: pairs at
    transport distance zero on the assignment path and on the LP."""
    clouds = [_normal(rng, 8, 2) for _ in range(3)]
    weighted = _normal(rng, 8, 2, weighted=True)
    return clouds + [Cloud(clouds[0].points), Cloud(clouds[1].points)] + [
        weighted,
        Cloud(weighted.points, weighted.weights),
    ]


CASES = {
    "1-D": lambda rng: [_normal(rng, m, 1) for m in (7, 7, 9, 5)]
    + [_normal(rng, 6, 1, weighted=True)],
    "point-mass": lambda rng: [_normal(rng, 1, 2)]
    + [_normal(rng, 6, 2) for _ in range(3)]
    + [_normal(rng, 1, 2)],
    "assignment": lambda rng: [_normal(rng, 12, 3) for _ in range(6)],
    "lattice": lambda rng: [_lattice(rng, 9, 2) for _ in range(3)]
    + [_normal(rng, 9, 2)],
    "replicated": lambda rng: [_normal(rng, m, 2) for m in (6, 12, 3, 24, 6)],
    "replicated-400-200": lambda rng: [_normal(rng, m, 2) for m in (400, 200, 200)],
    "lp-ragged": lambda rng: [_normal(rng, m, 2) for m in (5, 7, 6, 8)],
    "lp-weighted": lambda rng: [_normal(rng, 6, 2, weighted=True) for _ in range(4)]
    + [_normal(rng, 6, 2)],
    "near-duplicates": lambda rng: [_near_duplicates(rng, 10, 2) for _ in range(3)]
    + [_exact_duplicates(rng, 10, 2)],
    "d2-300": lambda rng: [_normal(rng, 300, 2) for _ in range(3)],
    "copies": _copies,
}

# Cases with a pair of clouds of d > 1 that both repeat a coordinate value.
# Distinct atoms tie in cost there, the assignment block is not reduced, and
# the digests pin SciPy's own tie-break among the optimal plans: a SciPy
# upgrade that moves only these is the known dependence of ROADMAP item 5
# (depth on lattice clouds depends on atom order), not a regression.
TIE_EXPOSED = {"lattice"}


@lru_cache(maxsize=None)
def corpus(name):
    return tuple(CASES[name](np.random.default_rng([SEED, list(CASES).index(name)])))


def outputs(clouds, threads):
    q, rest = clouds[0], list(clouds[1:])
    images = [q] + [Cloud(s * q.points + c, q.weights) for s, c in ((2, 0.5), (0.25, -3))]
    return {
        "w2_matrix": w2_matrix(clouds, threads=threads).ravel().tolist(),
        "wsd_all": wsd_all(clouds, threads=threads).values.tolist(),
        "wsd_discrete": [wsd_discrete(q, rest, threads=threads)],
        "wsd_empirical": [wsd_empirical(clouds[-1], clouds[:-1], threads=threads)],
        "wsd_empirical_exclude": [wsd_empirical(q, rest, threads=threads)],
        "wsd_query_family": wsd_query_family(images, rest, threads=threads),
        **{
            method: compute_depths(clouds, method, threads=threads).values.tolist()
            for method in ("lens", "metric_spatial", "kernel_spatial")
        },
        "competitor_queries": [
            lens_depth(q, rest),
            metric_spatial_depth(q, rest),
            kernel_spatial_depth(q, rest, 1.0),
        ],
    }


def digest(values) -> str:
    return hashlib.sha256("\n".join(map(float.hex, values)).encode()).hexdigest()


DIGESTS = {
    "1-D": {
        "w2_matrix": "fe4f2206b211681e0a88fbdf3cafc59097c8e2b15f769bb40b732dad6436d393",
        "wsd_all": "aa256eae21c4ba201c7aefc459083f66fc9b523e9972b037562f326fb60b666c",
        "wsd_discrete": "c0514f79366349ff641e83f667763d786319a5520079ac81ded6b604d819060b",
        "wsd_empirical": "bd84584cd45259e86f3ad35252401b765e4c21868ab927981a61724f305f8629",
        "wsd_empirical_exclude": "c0514f79366349ff641e83f667763d786319a5520079ac81ded6b604d819060b",
        "wsd_query_family": "9bffb9305e4be3d045745c6fba0d58ded9cfcd9a4eb131c76a6f2c492077dcd3",
        "lens": "110ec4246a390a162abfc4689b3cda91cbe36372b9e31e616ce381a8489a4a3d",
        "metric_spatial": "e984a9b229b05d2f9d46e853709342ba957b9ca5dcc7285282958684ac1b5158",
        "kernel_spatial": "c0e5170ac2c7b3a962f64db582e5c143260641dcde2e71af1a46c5f038a75344",
        "competitor_queries": "8d74ea62a61150657bbb57403859777c85c0a677cd9ca5794fd57a30383a5ddb",
    },
    "point-mass": {
        "w2_matrix": "1fa539ea7141626813a34a46554602f84a8ca3d610854dd6f82c9dc23f06bc90",
        "wsd_all": "93efec016e798de8a7b0d22775fdcb7616fde3273e2d14aa3df6df8e0ac88afa",
        "wsd_discrete": "cd57ed131a88bb13d5b518eb0df04a5dcdb268a3fa68e45c7df8d8e2464d4f58",
        "wsd_empirical": "e801ab12a4cccf08f793cf3af9ef3c0143941e6249fa2b587ca7808ee5e5d657",
        "wsd_empirical_exclude": "cd57ed131a88bb13d5b518eb0df04a5dcdb268a3fa68e45c7df8d8e2464d4f58",
        "wsd_query_family": "2c0231721a4b09cf35984ca3d6bb0b9b2122feba75c4306a9ea0cdb349beda23",
        "lens": "9dca29638a694c92f51856495b7e07f29c59d5475f945c0347f014144e9693b8",
        "metric_spatial": "0bf623123f4a6277dd41dd1e40b38860b2cd83ae212f71cd9b18189f472a875d",
        "kernel_spatial": "40732357d75051b522598a0a955bbf71b28ac783db950bfe2b899816c158302c",
        "competitor_queries": "c04d8c33d0d63fee7683d9032984decea518649d08f3473fdbb21d563167cb7f",
    },
    "assignment": {
        "w2_matrix": "669a4ee88799ef46761e31114e106af600aa31b846906d4f5342568468aca667",
        "wsd_all": "84470789a566a334dd97d297062a3344368bbd37fc68dd6eeeb969ffb77ad94e",
        "wsd_discrete": "df86e0d318062d8108d87912433ded698f5324f84478b3b00a97d35704edcd6a",
        "wsd_empirical": "235d8c19f5a13607e3d632a57766ebe0ed7fa943bc71640a0caeb7d8928c3503",
        "wsd_empirical_exclude": "df86e0d318062d8108d87912433ded698f5324f84478b3b00a97d35704edcd6a",
        "wsd_query_family": "9b43e73c36de7a3f02a3aa22d9af0d89bc00175404ec0171ca160cd36512be3d",
        "lens": "714021311c996e29475e94880d6dd5c474ef40a01b5371b5bc7ecda98254f0a5",
        "metric_spatial": "f625cb7b5edd046493d4b58141f046077cd05218c24e4780285d157e08795d5f",
        "kernel_spatial": "be6c141f412d5f3bb831152cd08ab342e06a6a9520602ec76fd7ca62c4fbc982",
        "competitor_queries": "eecfc9e53e757fdbfaf92e52c3335ff00e63e275ae7131acf1496b11b7072765",
    },
    "lattice": {
        "w2_matrix": "62b02fd8b977b6e8f93b8fd3d4a996f2202a5822e3a265d80e69dd61837c05f2",
        "wsd_all": "e11b38dc1036d77f421bf99e3408e7f8c86f1f41b7751cb49abbf891c7026afd",
        "wsd_discrete": "95c011a11d3b63787dc8cb22c2cd23ca9813f43f51ba916389b630b54152b4d7",
        "wsd_empirical": "4606daac910f80bc83e621d5663872f762dddcd0ed97251c8257b49687839434",
        "wsd_empirical_exclude": "95c011a11d3b63787dc8cb22c2cd23ca9813f43f51ba916389b630b54152b4d7",
        "wsd_query_family": "3114570ef3ea8b17355ed259677180e19572fe6a4040ccbab68a1f73d59317bd",
        "lens": "3a78694ca972d4f5c414ccc20fb7c822915aca291b5df8ca6d79cbffba8d078f",
        "metric_spatial": "f052851f264fdc142d4bb493f82b447fa129ef5c677da80fb76be82994bc2a8f",
        "kernel_spatial": "5a5e70b141549b608821748d2b3d5d599abc1d21103dd501274fadf536c119fd",
        "competitor_queries": "ae0b5527dba28565a6a1fceb353c029ebcbce134eb570c9db49d467db0b2d79f",
    },
    "replicated": {
        "w2_matrix": "14a349c0cc873313c31ea577648ebf15e0020884dcd1049b823226e939d1f4a6",
        "wsd_all": "556c5d191aebf20d76976dc7d25bc6031cf3ddb2826a9b3a4cf9f23b5b08248c",
        "wsd_discrete": "64de3526491165cee7cf00484e47d710d074e025b8129097020fee8a0bfd7207",
        "wsd_empirical": "88022ec81d302541171f5eea223473b98e5094cb235b83ef07058bd32aac4d28",
        "wsd_empirical_exclude": "64de3526491165cee7cf00484e47d710d074e025b8129097020fee8a0bfd7207",
        "wsd_query_family": "fae2cca3ab69308f90810585637a0d5d8169bd5493f41d9ee690070479133e2b",
        "lens": "ff6d5684a2b47bbb65fcfc1c0e66a5a82569b2b8632f27db3b30bac64471d66e",
        "metric_spatial": "db0b071f45de66720348f8f5c8761e5e5db9d35f641a78b5b0761ff7910a90f7",
        "kernel_spatial": "8a6d4d5a0c2c0bb8b6119f4e507e581a0fa749d8fa5f67289ee6725f5d4fd472",
        "competitor_queries": "e9bcd1fc09b1d294e3970625632c64f43fd4230c3977807ac35c0534dbecf276",
    },
    "replicated-400-200": {
        "w2_matrix": "f3afa39974362ebf5beb40207ba371099b9eb321f728b5d112e37c6b0dae56be",
        "wsd_all": "3132b5a9cb211babe6b46f05bd2f960205f0bbea619b3accd5ac1eedb25b3c9b",
        "wsd_discrete": "988634db923320ad0b67ba13bf940760f4756f40aa655ffabb91ca79e2079684",
        "wsd_empirical": "7cfcd419b25f0d12423e3da454a7a7a8309ccfde633cebf6e61c9c83b58d653c",
        "wsd_empirical_exclude": "988634db923320ad0b67ba13bf940760f4756f40aa655ffabb91ca79e2079684",
        "wsd_query_family": "6389cb3d95304826a32bb47bd7078975f1db498c75257fca1f07dcc297782296",
        "lens": "539210315d055b81404084c11fe847459442dad3148fe8c1f58d81fcb1b2bfef",
        "metric_spatial": "b8cae228704d54ce0fbb3903608b08311c2617f0e891f62728ba073ce765208f",
        "kernel_spatial": "a53912f03c5ee3f247f77bd685fad15bb62e1c5c9176d74774fd98f85eac3ed5",
        "competitor_queries": "e8bdf630937a7cc38cd5cace300e2ca4fa244fd8eecfd296f0bc6d98c3fd9e17",
    },
    "lp-ragged": {
        "w2_matrix": "8332c9a865584fb149e8e36efda72bc2b4b49d60cc142f426d1a93a1cb62505b",
        "wsd_all": "b56649b7415d6ea6e648b50ee6a2cc2d56e5af47593d0fa9a5596a30892f334d",
        "wsd_discrete": "028a8d2688a348eddb5efad78aa851f6110a99367f1636a817e8a3d0d13894b7",
        "wsd_empirical": "48ab332f4c9048f259b3c8e3354b3830d365558079a8b75a9f6b5ac98452fb2c",
        "wsd_empirical_exclude": "028a8d2688a348eddb5efad78aa851f6110a99367f1636a817e8a3d0d13894b7",
        "wsd_query_family": "ea47b2657dfccffa9daaacd029dfec685b11dd5c747ba0f50627419e9b23572f",
        "lens": "37e162fd0cfba1b4b71fd2742cb8e505e98fa869be369e5ddb6417020e13c663",
        "metric_spatial": "63c1452f908a878feee6613f966e1bfcd2296c275b91168e8b9caedd2222cdc2",
        "kernel_spatial": "47a100141f03a491eb708f97ea8d3096981588cb95ff601fa8a0c8f2fce9f3dc",
        "competitor_queries": "9395847c50821736cc41413dacd62c70b18d4c4cfa88a152e9f111e0523faa7d",
    },
    "lp-weighted": {
        "w2_matrix": "e01c6445977e752accb40219d66b00aadf8e955f1370c8cbeef0c375c9a60de1",
        "wsd_all": "6e4caa24d125bd0cabd9b0cf6f203f005c10a78ea28a4c2f490d0f1767959f12",
        "wsd_discrete": "6512f7714d79ae483f391287cbb4aa572547e638789f06d2ae04b575f54dcd0e",
        "wsd_empirical": "8e7e2da20cedaba93a56e22791c815099aae140a5200cdb866147b187fe9ff85",
        "wsd_empirical_exclude": "6512f7714d79ae483f391287cbb4aa572547e638789f06d2ae04b575f54dcd0e",
        "wsd_query_family": "efc1fb4213b1d06d69ce5e2e5878360f2f9de85470152870a34d50982c4e3d27",
        "lens": "5ba503ef699cb117c710d3996370b9fd4265f2735089513ed27db6850398ca32",
        "metric_spatial": "7753acaaf3c070ef8ba4f02487f0ae91f628e9de8aae39b88f084fb86fd9b0b6",
        "kernel_spatial": "b673b85d83c09ea2e7fdd7a24bcb654cc8ddc3fc9b7032e907a1a14ed19699cf",
        "competitor_queries": "9c22383139a24110e3361865fcb1531eb5f58d1e5bea8f222918b543ef8cffc2",
    },
    "near-duplicates": {
        "w2_matrix": "6dc2287803fce3902f102edb5eca1b9e2647888c8ce5816ab40b42e7fd1033cb",
        "wsd_all": "b9e0fa4d2fb7999633ab7f5b3e1d318f33cd54c693cacd3a900de747b9ec9a2f",
        "wsd_discrete": "d1c6f8f0b23da09db2332d3fb78ea7fd7dda637a08e5806a79fc88a99c7c0e63",
        "wsd_empirical": "5034e29d6633bc048e7579128386b844c7eb170f7f2c698bb32eaf457b500b25",
        "wsd_empirical_exclude": "d1c6f8f0b23da09db2332d3fb78ea7fd7dda637a08e5806a79fc88a99c7c0e63",
        "wsd_query_family": "8d3b2a6fd7776664bad5cb47672624d197e1cf660780b536e24f19fdf8aa460c",
        "lens": "a46c83323c65157739edf18e0e2e98e72898fb45cc7d8ca695890c8294e3b5f4",
        "metric_spatial": "5eace869f5e28bd041c95fd63fac68b51b2769d7af6c9ec6b402eb6aca8ecbdc",
        "kernel_spatial": "135bedc75db85f6e7e747b696b3ac684975d5530a8d8974ef935e275a111efc8",
        "competitor_queries": "bdb7b2fef2585a8016a021cb102f0c5cbc0e3b3104adf74d148ea9808f41536a",
    },
    "d2-300": {
        "w2_matrix": "d41f1838de2509dc02bf0f457d5ba8313598af45d85aea84f5e4ecc8870de84c",
        "wsd_all": "50e9a9672b609a3f6a4d84f7a3153233a7058b98263264efe4a479e8a3378bf1",
        "wsd_discrete": "9ec52512471b8d2d5f51a45b44e8f0041b59eb7d07116442a94c32f9a7c2e9fe",
        "wsd_empirical": "3833ba85fd82d1e1f5e67a4980bdc42ee2227c13c47ecf12ea0bf6a38d292285",
        "wsd_empirical_exclude": "9ec52512471b8d2d5f51a45b44e8f0041b59eb7d07116442a94c32f9a7c2e9fe",
        "wsd_query_family": "55def0790621390dfa8f9905ec71daf47091ef43a78c0d3196a8a5b6f2217f73",
        "lens": "55e284e685c75521b719f042f11a106290c084fb40a8b484827d9890dd0b0053",
        "metric_spatial": "695f4619b0b59fcb4faacd78705791d2cb8b79e9692fc91b99eaeeab7b8dfc62",
        "kernel_spatial": "8f4d5ab7debcbbdf45e554fc01f72c879c8995ba80124f8e38892e993371c435",
        "competitor_queries": "dd81ef18ae622d70dc03a274c75a9b1d01539f1ee69321d6c5b5a6fc3d98fa37",
    },
    "copies": {
        "w2_matrix": "b611f0e65325eccc60bc0988843aa8849dfa5be486091880db9ac23130344912",
        "wsd_all": "4b1f457ad1d6e15be76bc9608d06de3d0b2025d8c411124e60e4a184e12417db",
        "wsd_discrete": "686a42e926459adf94dab99f15cc5c4873e02c1b371dd6abce9154098dab4da8",
        "wsd_empirical": "16019704b98d27c114c7da4cc28be808e6efa2164c5b2897cd7daf27adf48cb9",
        "wsd_empirical_exclude": "686a42e926459adf94dab99f15cc5c4873e02c1b371dd6abce9154098dab4da8",
        "wsd_query_family": "4bb796b4d32d5044459846021503fad638df9265c5958f2bf79b5e621e9e49ac",
        "lens": "a8fa148633a163077e21e80508dab14f99696a8f228b5a9eb1ce6c2b9f7cef84",
        "metric_spatial": "950982133c6281a6c92f688367a49318e609a0e8223cb2410e00e3926cf7699c",
        "kernel_spatial": "521a6b07f24d565d9fed91ad26de12a45a2827116fbe1258fb1fa3f9c43a9442",
        "competitor_queries": "4f0b819b1423ff2661195bd86a236fcd3bcdcea8cfb42b14f7fa4049a778f55f",
    },
}


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("name", list(CASES))
def test_outputs_keep_their_bits(name, threads):
    got = {out: digest(v) for out, v in outputs(corpus(name), threads).items()}
    note = "tie-exposed lattice case (ROADMAP item 5)" if name in TIE_EXPOSED else ""
    assert got == DIGESTS[name], note


def test_the_tie_exposed_cases_are_the_named_ones():
    exposed = {
        name
        for name in CASES
        if any(
            a.d > 1 and a.has_repeated_coordinates and b.has_repeated_coordinates
            for a, b in combinations(corpus(name), 2)
        )
    }
    assert exposed == TIE_EXPOSED
