"""Byte identity of the CLI outputs at tiny sizes.

Each test runs one ``wsdepth`` command and compares the SHA-256 digest of
every file it writes with a digest recorded from a known-good build (x86-64
Linux, NumPy 2.4, SciPy 1.17).  A refactor that keeps every output byte
keeps every digest; a change that moves one sampled coordinate, one depth
digit or one table cell breaks the test that covers it.
"""
import hashlib

import pytest

from wsdepth.cli import main

SEED = 5

# `wsdepth sample --n 4 --m 6 --seed 5` for every (experiment, case).
SAMPLE_DIGESTS = {
    ("consistency", 1): "6f66c4896e3786618af3e6ad10098d8d7f863bb8a800564d2468270f73b7cb6c",
    ("consistency", 2): "a7860a6012c30d4e06d091000a305de60f9bc5bfbd7ca209c9e5057f83a95703",
    ("consistency", 3): "0367610d85bd81d9ca17097b33717bbbab240a4b71955857128c160ab740a8aa",
    ("consistency", 4): "2997df1dd0e23717965230a12de8dfbb815ff8ecc14b5db169e7fa5ff61f1a63",
    ("location_equivalence", 1): "3ea4cf9064e8a07ea93563131e30c82bf8244d83e0e8d7892a5226c271cb4af6",
    ("location_equivalence", 2): "92e51cb2bd487aea819bc196a7d3bb855173f1b78e2d3ef5468243785c674f70",
    ("location_equivalence", 3): "4443190b2ba776608db1064b1cb3c37000307734f1a608e7d25d39beb7ec2cec",
    ("location_equivalence", 4): "bb8a4303206649e32dbce65d544973427a4bd40ca1dfc1fb51328bdfb2fc5c74",
    ("outliers", 1): "bb81abb461b081d12cb56524318a27e3ffa1ea3096aa66d7e2d1cc2322dc8324",
    ("outliers", 2): "0dc9258684a0dbe6f7e97f09ff353440b91ddd0d2001daa02fe2ce5effb00f46",
    ("kernel_comparison", 1): "e0f193b8a8a61f275fc1903a337217eea675a9a7b1c76c4d51a22895ef8afac8",
    ("kernel_comparison", 2): "483283528a6040ce84e4139eb41c1a30afcdfb0e1eac95f1bbc8973b2fe3919f",
}

# `wsdepth depth` per method on the outliers case 1 dump (ten clouds of six
# points in d=10, every pair an assignment) and on a ragged copy of the
# consistency case 3 dump (groups of 6, 5 and 4 points in d=2, so most pairs
# take the LP and their plans split mass).
DEPTH_DIGESTS = {
    ("outliers-1", "wsd"): "cee771039ae0a88384bc4125798eb66d895e79fc4221a327496977af6d814696",
    ("outliers-1", "wsd-discrete"): "cee771039ae0a88384bc4125798eb66d895e79fc4221a327496977af6d814696",
    ("outliers-1", "lens"): "1909f1c2ab546b1927b1484a0802273a39c1e584b076706d362eeb1b401bc95f",
    ("outliers-1", "metric-spatial"): "13308dffa35fdc9845d035ff212938cd811629778c539c50c217dcb044a36f65",
    ("outliers-1", "kernel-spatial"): "3e815697e31d070d10d17463dcd720869eb04c1ff90c630873886c9e69c0ff31",
    ("ragged", "wsd"): "a4962bac211460db7c48abbb06851904a98566c1343228821a97398620d08b86",
    ("ragged", "wsd-discrete"): "a4962bac211460db7c48abbb06851904a98566c1343228821a97398620d08b86",
    ("ragged", "lens"): "202e3e1f09dc0671fdffe5941d0c55ee95464c634d048e21849bbc8564567b9a",
    ("ragged", "metric-spatial"): "08f64228b46db517888bce3293f4a9143612dab6f5f807939e1f9e73809dc8ba",
    ("ragged", "kernel-spatial"): "fc53530c2bb8a9dd986bd2064a654c51f3bee1388e6052f4f97494dbf98abf81",
}

# `wsdepth experiment --n 4 --m 8 --reps 2 --seed 5`: (table, summary).
EXPERIMENT_DIGESTS = {
    ("consistency", 1): (
        "4cc9de0c87d0fcdaf80f721edcf926f33acf11101b7b1b0e92cca4affe0472b2",
        "9d9c442d8514f0da46acb2d5aa7f94c5cbead049cfa3665d4a95cd9ab6a74e6d",
    ),
    ("consistency", 2): (
        "f0d96f34917aac8f6b38f90922ebee3593218de3c5b607eedfd05bff12f9e400",
        "acf4baa50a966e67abc86e9fd52955c3e71d32f7c670c6a8072aa862aab20bad",
    ),
    ("consistency", 3): (
        "9aa8e5ab0f4184c08c2cdfd8052bd4639edb1a9bbc674411c54cc529ea7a6e62",
        "36b8369b9424c217d7106d9b97f8fc54659630bb83d6140bbb4efc4855092dfb",
    ),
    ("consistency", 4): (
        "5fd8e20323c821417de03d4c59ffc538856e5328ad6b357d2561c8c11b37b9ca",
        "650850bf31b6de40766bd6473156ea0c1754601abec0bf943c0be7019a9b6921",
    ),
    ("location_equivalence", 1): (
        "db209672805a38f118d5eea8f0ff7835e09b8eaabfbafc71b52ba0bb8053a67a",
        "ec4b137613d9cf4334216a6b8d3c7d092c2c17bc15da77bf915c503cfe70d12d",
    ),
    ("location_equivalence", 2): (
        "da5bd9ae72667a96e69a4eab3f4e5d679841ac2f0f42c7777f47659442d1009b",
        "b4a64dcc5a6eff4d9698e4a762d170a7d878a1de04eaa6a9b7b46a544dd56d6a",
    ),
    ("location_equivalence", 3): (
        "69250e46ace948ebda20c4c8f9f05c93ba0f641cf9cbff51d6ba539cb26c77b3",
        "bae462fca321fa31cd077a06f368e79efe7da3a6576c0d966b4b5b5353ac3466",
    ),
    ("location_equivalence", 4): (
        "0195c71a8a513be505b8b5aefad15a23a59e064c2e94e2f71810ea3d719258ac",
        "399b2cd69d5acecdc2eb96645d11b005e84cfb8ca1e224d8fc5a3e7a79126026",
    ),
    ("outliers", 1): (
        "fcdd0d94130bd1bcb467611527e96328ceb19c432c5de1368b98569c1d9fbd41",
        "450f4c2d4f5486fad3c4f108307ccac321a24d7161b4dffc5b9fcd347bcf28cd",
    ),
    ("outliers", 2): (
        "b4a7fc8869dc229c7b7059472413cd61098b4257328d867118394f38112c5056",
        "47fa48eaf3772e9627a6fd2e1c54c1f9991cc2ee6f3fed8f87106ebf0e975ce0",
    ),
    ("kernel_comparison", 1): (
        "022661a04198e3b735da041c24dcc1ef81f72c412b873d1bfc007d3ac3aa0de8",
        "1cb0f5082d9923228724d65e07a9d30573b9acf4b063da273316c47dcc09609c",
    ),
    ("kernel_comparison", 2): (
        "b5e165ab96af6058e295849f817eb71c0229b90db0588bcc4ec1815c11785a6f",
        "4f03c0421139abee29728186c8e4132581ea61c67375777b79faf313ec878100",
    ),
}

METHODS = ("wsd", "wsd-discrete", "lens", "metric-spatial", "kernel-spatial")


def digest(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def sample(tmp_path, experiment, case):
    out = tmp_path / f"{experiment}-{case}.csv"
    code = main(
        ["sample", "--experiment", experiment, "--case", str(case),
         "--n", "4", "--m", "6", "--seed", str(SEED), "--out", str(out)]
    )
    assert code == 0
    return out


def ragged(tmp_path):
    """Consistency case 3 dump with group g cut to ``6 - g % 3`` rows."""
    lines = sample(tmp_path, "consistency", 3).read_text().splitlines()
    kept = [lines[0]]
    seen: dict = {}
    for line in lines[1:]:
        gid = line.split(",", 1)[0]
        seen[gid] = seen.get(gid, 0) + 1
        if seen[gid] <= 6 - int(gid[1:]) % 3:
            kept.append(line)
    out = tmp_path / "ragged.csv"
    out.write_text("\n".join(kept) + "\n")
    return out


def depth_inputs(tmp_path):
    return {"outliers-1": sample(tmp_path, "outliers", 1), "ragged": ragged(tmp_path)}


@pytest.mark.parametrize("experiment,case", sorted(SAMPLE_DIGESTS))
def test_sample_dump_bytes(experiment, case, tmp_path):
    assert digest(sample(tmp_path, experiment, case)) == SAMPLE_DIGESTS[experiment, case]


@pytest.mark.parametrize("data,method", sorted(DEPTH_DIGESTS))
def test_depth_report_bytes(data, method, tmp_path):
    out = tmp_path / "report.jsonl"
    code = main(
        ["depth", "--input", str(depth_inputs(tmp_path)[data]),
         "--group-col", "group", "--method", method, "--out", str(out)]
    )
    assert code == 0
    assert digest(out) == DEPTH_DIGESTS[data, method]


@pytest.mark.parametrize("experiment,case", sorted(EXPERIMENT_DIGESTS))
def test_experiment_output_bytes(experiment, case, tmp_path):
    out = tmp_path / "table.tsv"
    code = main(
        ["experiment", "--experiment", experiment, "--case", str(case),
         "--n", "4", "--m", "8", "--reps", "2", "--seed", str(SEED),
         "--out", str(out)]
    )
    assert code == 0
    summary = tmp_path / "table.tsv.summary.json"
    assert (digest(out), digest(summary)) == EXPERIMENT_DIGESTS[experiment, case]
