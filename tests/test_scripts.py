"""Smoke runs of the experiment scripts under scripts/, as subprocesses."""

import hashlib
import json
import os
import subprocess
import sys

import pytest

from raagdim import io_json
from raagdim.bounds import analyze, vkdim_lower
from raagdim.complexes import link
from raagdim.homology import boundary_rows, cycle_space, mod2_betti, rational_betti
from raagdim.obstruction import certify_vanishing
from raagdim.zoo import cycle

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


# "{tmp}" stands for the test's temporary directory.
@pytest.mark.parametrize("args, expected", [
    (["run_zoo.py", "--json", "{tmp}"], "random_flag_b"),
    (["find_star_violation.py"], "boundary of the covering chain is nonzero on 48 cells"),
    (["moment_oracle_sweep.py", "--samples", "2", "--doubled"], "mismatches: 0"),
    (["report_digests.py", "--count", "2"], '"random_flag(8,0.3,1)": {'),
    (["census.py", "--seed", "5", "--count", "4"], "census: seed 5, 4 complexes"),
    (["moment_oracle_sweep.py", "--samples", "2"], "mismatches: 0"),
])
def test_script_runs(args, expected, tmp_path):
    run = subprocess.run(
        [sys.executable, os.path.join(REPO, "scripts", args[0]), *(a.format(tmp=tmp_path) for a in args[1:])],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=os.path.join(REPO, "src")),
    )
    assert run.returncode == 0, run.stderr
    assert expected in run.stdout
    if args[0] == "report_digests.py":
        # The lemma suite's [complexes, checks, failures] for seeds 0-4.
        suites = {name: v for name, v in json.loads(run.stdout).items() if name.startswith("lemma-suite")}
        assert sorted(suites) == [f"lemma-suite(seed={seed})" for seed in range(5)]
        assert suites["lemma-suite(seed=0)"] == [50, 85897, 0]
        assert all(complexes == 50 and failures == 0 for complexes, _checks, failures in suites.values())
        # Every case has its three report digests, its link and homology
        # digests and the digests of its default and integral top solves; a case with a
        # certificate also has that of the certificate file, its verdicts
        # and the top solve that its reports skip.  With max_cells=0 a case without a top certificate refuses at the size
        # guard, so its report differs from the default; a case with one
        # never reaches the guard.
        digests = {name: v for name, v in json.loads(run.stdout).items() if name not in suites}
        keys = ["default", "homology", "integral", "links", "refuse", "vanishing", "vanishing-integral"]
        verdicts = ["verify", "verify-drop-first", "verify-flip-sign", "verify-repeat-first"]
        assert all(sorted(v) in (keys, sorted(["certificate-file", "top-solve"] + keys + verdicts))
                   for v in digests.values())
        # The link digest covers [v, d, bound] for every vertex and d <= 2.
        c4 = cycle(4)
        bounds = [[v, d, list(vkdim_lower(link(c4, (v,)), d))] for v in c4.vertices for d in range(3)]
        assert digests["zoo:cycle4"]["links"] == hashlib.sha256(io_json.dumps(bounds).encode()).hexdigest()
        # The homology digest covers both Betti vectors and, in every degree,
        # the boundary rows and the cycle basis, each cycle a sorted list.
        assert mod2_betti(c4) == rational_betti(c4) == (0, 1)
        homology = [[0, 1], [0, 1], [[boundary_rows(c4, d), [sorted(z) for z in cycle_space(c4, d)]] for d in range(2)]]
        assert digests["zoo:cycle4"]["homology"] == hashlib.sha256(io_json.dumps(homology).encode()).hexdigest()
        assert digests["zoo:cycle3"]["refuse"] != digests["zoo:cycle3"]["default"]
        assert digests["zoo:cycle4"]["refuse"] == digests["zoo:cycle4"]["default"]
        # A case with a certificate runs no top solve; the hollow triangle's
        # integral solve adds an integer primitive to its record.
        assert digests["zoo:cycle4"]["vanishing"] == hashlib.sha256(io_json.dumps(None).encode()).hexdigest()
        # Run on its own, that solve is obstructed, and its record holds the
        # witness.
        top = certify_vanishing(c4)
        assert top.status == "obstructed"
        assert digests["zoo:cycle4"]["top-solve"] == hashlib.sha256(
            io_json.dumps([top.status, None, top.witness_cycle, None]).encode()).hexdigest()
        assert digests["zoo:cycle3"]["vanishing"] != digests["zoo:cycle3"]["vanishing-integral"]
        # A certificate verifies after its JSON round trip, and not without
        # its first cell, with that cell's first sign flipped or with that
        # cell twice; each failure is named and worded.  A report without a
        # certificate gets no verdicts.
        verified = digests["zoo:cycle4"]
        assert verified["verify"] == [True, None, "certificate verified"]
        assert verified["certificate-file"] == hashlib.sha256(
            io_json.dumps(io_json.certificate_to_json(analyze(c4).certificate)).encode()).hexdigest()
        first = "((('c0', -1), ('c1', -1)), (('c0', 1), ('c1', 1)))"
        assert verified["verify-drop-first"] == [
            False, "omega-cycle", "stored chain has boundary, e.g. at ((('c0', -1),), (('c0', 1), ('c1', 1)))"]
        assert verified["verify-flip-sign"] == [
            False, "omega-cycle",
            "stored pair ((('c0', 1), ('c1', -1)), (('c0', 1), ('c1', 1))) is not a disjoint pair of faces of degree 2"]
        assert verified["verify-repeat-first"] == [False, "omega-cycle", f"stored pair {first} lists the cell {first} twice"]
        assert sorted(digests["zoo:cycle3"]) == keys
    # run_zoo.py writes one report per table row (less the header and its
    # rule), each with the bytes of json.dumps(..., sort_keys=True, indent=2).
    names = sorted(os.listdir(tmp_path))
    assert len(names) == (len(run.stdout.splitlines()) - 2 if "--json" in args else 0)
    for name in names:
        with open(tmp_path / name, encoding="utf-8") as fh:
            text = fh.read()
        assert text == json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n", name


# The census of the first 30 complexes of the sample.  It changes only with
# a rule that is added or changed; record each re-pin in CHANGES.md.
CENSUS_30 = """\
census: seed 0, 30 complexes
determined: 10 of 30
vkdim: 11 determined, 19 undetermined
embdim: 10 determined, 20 undetermined
actdim: 10 determined, 20 undetermined
undetermined by (dim, vkdim gap):
  (2, 0): 1
  (2, 1): 12
  (2, 2): 1
  (3, 1): 1
  (3, 2): 2
  (3, 3): 2
  (4, 3): 1
rule at each end:
  vkdim lower: covering-chain-certificate 18, star-link 12
  vkdim upper: top-cocycle-coboundary 27, top-degree 3
  embdim lower: embdim-above-vkdim 30
  embdim upper: general-position 17, vanishing-route 13
  actdim lower: classifying-space 3, obstructor 27
  actdim upper: double-geometric-dimension 17, vanishing-route 13
conjecture_status: verified 25, vacuous 5, open-here 0
"""


def test_census_of_thirty_complexes_is_pinned():
    run = subprocess.run(
        [sys.executable, os.path.join(REPO, "scripts", "census.py"), "--seed", "0", "--count", "30"],
        capture_output=True, text=True, timeout=60, env=dict(os.environ, PYTHONPATH=os.path.join(REPO, "src")),
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout == CENSUS_30
