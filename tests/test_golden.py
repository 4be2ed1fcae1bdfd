"""Golden digests: the trial logs and summaries of fixed searches.

Every flow must produce byte-identical logs and summaries for fixed flags
and seeds.  These literal SHA-256 digests pin that behaviour, so a change
that shifts random draws, record fields or their order fails here even when
two runs of the same build still agree with each other.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json

import pytest

import symsearch as ss
from symsearch import cli

NAS_CONFIGS = {
    "joint-regevo": ["--flow", "joint", "--algo", "regevo", "--trials", "200"],
    "joint-random": ["--flow", "joint", "--algo", "random", "--trials", "200"],
    "factorized-top5": ["--flow", "factorized", "--partition", "op", "--trials", "10",
                        "--inner-trials", "20", "--aggregator", "top5",
                        "--population", "5", "--tournament", "2"],
    "hybrid": ["--flow", "hybrid", "--partition", "op", "--trials", "8",
               "--inner-trials", "20", "--phase2-trials", "40",
               "--population", "5", "--tournament", "2"],
    "separate": ["--flow", "separate", "--partition", "op", "--trials", "100",
                 "--phase2-trials", "100"],
}

# (log, summary) SHA-256 per configuration and seed.
NAS_GOLDEN = {
    "joint-regevo/0": ("c7a6f8851619ba582cd612316f8b9229b1055d9dfa7b7a8d9743ccdf6a6b592e",
                        "01b440159681515945ec2bc2cf32f47cb61fccdd4aa956a4e0fff531cdb981ab"),
    "joint-regevo/1": ("b1fbf3c5e5ee9a0fa8adf65239a95376a373d914bac95528d6952b72d46f8f1c",
                        "e07357210a213868357cf4390f016c987c69b5e2ba457f75c8a6a1484f4869be"),
    "joint-regevo/2": ("f8de224c6a71eb965924789fcd4d061f8034babc9d76f85625eddd8865121139",
                        "789a6fda26029959d10eca717e80dfacdcdab94068aa0a08515c610cfb89affa"),
    "joint-random/0": ("ffeef741c5cdb8377477b61683897c62285117a9e758ce2bee82327e639d60fd",
                        "8ece8ff8e9347bcc7762901541e54884804ab00139c7909bda4623d5e2a8b411"),
    "joint-random/1": ("1665379f0fc6715e0eb4e519701c8ec81d8b0b48fd6f1d54d43540143a619bc2",
                        "6b2320529deb58706f68b77a000aecef708407decaa10cdd3a98af803b489ea2"),
    "joint-random/2": ("72a318ef59b86f420551a037a5c0bf6431967675600659a1f24c841c2a2147d7",
                        "0a9627b89739c967706f76e4a5d3b482fe41d6082c7dee9935133545913701bb"),
    "factorized-top5/0": ("d8aa18ad85216df0afc504cdcca45564218dba8abf58e86b0df414f446dcf669",
                           "1364abe920e709836a92550e717c5f5596399c88499f9c847af61aea6ff3a5aa"),
    "factorized-top5/1": ("89fcdf44e8852cb6afd1eef921a0cbdd00d57e1ae8390aa9ad24c6c2e499f4c2",
                           "99b2da68386bc9cbe9a79e3a31afbd834185d90ef8aac562bd6837396c78cd14"),
    "factorized-top5/2": ("2b06d460b265dc45022eaf682e9b217065788f02aadef66c219e31c15215317d",
                           "8b8e40495260eccc466840831521730a14e3dd7f42d1c721f63db7d7c26e526d"),
    "hybrid/0": ("5a3d8cb54099e54377c0666a6f471bd958a16c7e93da31e54fec8e54e430bf66",
                  "259808076f1599cb545da6a8cdbb448b36dacadb547982ef4a1c745e72a4c8d9"),
    "hybrid/1": ("1101e90ad6bfe6d9ddfaad1885ef669f6d58139d980d194e1f0867e946b37516",
                  "bf26a0fbbc2a13dc442f08a932859ecba010f9b399104a03bbdcbc871a646622"),
    "hybrid/2": ("bd02822c4dc69e3900a3e9161cec804dd732d4a78cb935c7829096c941b5a3c4",
                  "83bfc47f0ec8cf62a723009680e9cf17b7a13c89d86c239e103375cfcfd0a834"),
    "separate/0": ("7807dac0c8400d68fb59ce4581750079fd6afd0558157ff5485397279bae8e6a",
                    "effc147b0fee22d64ca8043bb310f79b710d1d9c7261efa5aa8e65c2c67564bc"),
    "separate/1": ("59342933ef8bfbe0d5b427c4a7669b8c641e882997c9912c1842217becc46a0d",
                    "dcf8805b8e04c2a67212e9a1824595e81123a425988e16c75c05fcec1d31a708"),
    "separate/2": ("c2bff06059c9256bccf16880ba97bdcff6fef4fe1c60fff9e72463d288cca068",
                    "7d973c44eb45b77c327b895c47e4f3302a39c4a8d576f3fabcc53a58106a9129"),
}

# Records SHA-256 of the two library searches below.
FACTORIZED_GOLDEN = "99445995545098bb8ec7cc250da328fc1c09518e101134dad9ac0e0132b4752a"
EAGER_GOLDEN = "18cc684a2d58996b99bcd05d328742aae72e1be3036b2255235fbee39cf99fc2"


def sha(data) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def records_digest(report) -> str:
    return sha("\n".join(json.dumps(r.to_json_obj(), separators=(",", ":"))
                         for r in report.records))


@pytest.mark.parametrize("key", sorted(NAS_GOLDEN))
def test_nasbench_cli_logs_match_golden(tmp_path, key):
    config, seed = key.split("/")
    log = tmp_path / "trials.jsonl"
    argv = ["search", "--builtin", "nasbench", "--nodes", "5", "--ops", "3",
            "--oracle", "synthetic", "--oracle-seed", seed, "--seed", seed,
            *NAS_CONFIGS[config], "--out", str(log)]
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
    observed = (sha(log.read_bytes()), sha(log.with_suffix(".summary.json").read_bytes()))
    assert observed == NAS_GOLDEN[key]


def test_factorized_typed_space_matches_golden(types):
    def layer():
        return ss.oneof([types.Conv(filters=ss.oneof([8, 16, 32]), kernel_size=ss.intv(1, 5)),
                         types.Dense(units=ss.intv(4, 64)),
                         types.Identity()], hints="op")

    space = types.Sequential(children=[layer() for _ in range(4)])

    def reward(child, dna):
        total = 0.0
        for i, node in enumerate(child["children"]):
            if node.type_name == "Conv":
                total += node["filters"].value / (1 + abs(node["kernel_size"].value - i))
            elif node.type_name == "Dense":
                total += node["units"].value / 8
        return total

    report = ss.run_factorized(
        space, lambda point: point.hints == "op",
        ss.SearchLoop(lambda s: ss.RegularizedEvolution(3, 2, seed=s), 6, seed=3),
        ss.SearchLoop(lambda s: ss.RegularizedEvolution(4, 2, seed=s), 8, seed=3),
        reward)
    assert report.oracle_calls == 48
    assert records_digest(report) == FACTORIZED_GOLDEN


def test_eager_program_matches_golden():
    def conv():
        return ("conv", ss.eager_oneof([8, 16, 32]), ss.eager_intv(1, 5))

    def program():
        layers = [ss.eager_oneof([conv, lambda: ("dense", ss.eager_intv(4, 64)), ("id",)])
                  for _ in range(4)]
        rate = ss.eager_floatv(1e-4, 1e-2)
        score = sum(layer[1] / (1 + abs(layer[2] - i)) if layer[0] == "conv"
                    else layer[1] / 8 if layer[0] == "dense" else 0.0
                    for i, layer in enumerate(layers))
        return score - 100 * abs(rate - 3e-3)

    report = ss.run_eager(program, ss.RegularizedEvolution(6, 3, seed=5), 60, seed=5)
    assert report.oracle_calls == 60
    assert records_digest(report) == EAGER_GOLDEN
