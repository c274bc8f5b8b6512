"""The engine's records: what each one means, and that importing the engine
generates no code for them.

The frozen records, the lemma suite's failure among them, are NamedTuples,
and the suite's running result is a mutable, unhashable SimpleNamespace;
each keeps the `Name(field=value, ...)` repr that failure wording embeds,
and the frozen ones keep frozen fields, tuple equality and hash (the memo
keys rely on `hash(K)`), keyword construction and defaults."""

import json
import os
import subprocess
import sys

import pytest
from raagdim.bounds import BoundRecord, DimensionReport
from raagdim.complexes import SimplicialComplex, is_flag
from raagdim.obstruction import CycleCertificate, StarConditionReport, VanishingResult
from raagdim.octa import double_over, octahedralize
from raagdim.suite import SuiteFailure, SuiteResult
from raagdim.verify import VerificationOutcome
from raagdim.zoo import ZOO, ZooEntry, cycle
from test_acceptance import load_search

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Run in a fresh interpreter: the modules that importing the CLI adds, then
# every class defined in src/raagdim or scripts/ that dataclasses built.
COLD_START = """
import importlib, importlib.util, json, os, pkgutil, sys
root = sys.argv[1]
before = set(sys.modules)
import raagdim.cli
added = sorted({"dataclasses", "inspect"} & (set(sys.modules) - before))
modules = [importlib.import_module(f"raagdim.{m.name}") for m in pkgutil.iter_modules(raagdim.__path__)
           if m.name != "__main__"]
for name in sorted(os.listdir(os.path.join(root, "scripts"))):
    if name.endswith(".py"):
        spec = importlib.util.spec_from_file_location(name[:-3], os.path.join(root, "scripts", name))
        module = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = module
        spec.loader.exec_module(module)
        modules.append(module)
built = sorted(f"{m.__name__}.{k}" for m in modules for k, v in vars(m).items()
               if isinstance(v, type) and v.__module__ == m.__name__ and "__dataclass_fields__" in vars(v))
print(json.dumps({"added": added, "dataclasses": built}))
"""


def test_importing_the_cli_generates_no_dataclass_code():
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    run = subprocess.run([sys.executable, "-c", COLD_START, ROOT], capture_output=True, text=True, env=env,
                         timeout=120)
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout) == {"added": [], "dataclasses": []}


def _K():
    return SimplicialComplex(vertices=(0, 1), faces=frozenset({(0,), (1,), (0, 1)}))


def _frozen_examples():
    """(record, its repr as a dataclass printed it), one per frozen type,
    named by the type."""
    K = _K()
    octa = octahedralize(K)
    C4 = cycle(4)
    doubled = double_over(octahedralize(C4), C4.faces_of_dim(1), C4.faces_of_dim(1)[0])
    exhibit = load_search().ViolationExhibit(K, frozenset({(0, 1)}), (0, 1), ((0, 1), (0, 1)), (), 0)
    report = DimensionReport(vertices=1, dim=0, flag=True, missing_clique=None, gd=1, l2dim=None,
                             mod2_betti=(0,), rational_betti=(0,), vkdim=(-1, -1), embdim=(0, 0),
                             actdim=(1, 1), conjecture_status=None, records=(), certificate=None,
                             sub_certificates=(), vanishing=None)
    examples = [
        (BoundRecord("vkdim", "lower", 2, "r", "d"),
         "BoundRecord(quantity='vkdim', kind='lower', value=2, rule='r', detail='d', caveats=(), in_interval=True)"),
        (report,
         "DimensionReport(vertices=1, dim=0, flag=True, missing_clique=None, gd=1, l2dim=None, mod2_betti=(0,), "
         "rational_betti=(0,), vkdim=(-1, -1), embdim=(0, 0), actdim=(1, 1), conjecture_status=None, records=(), "
         "certificate=None, sub_certificates=(), vanishing=None, warnings=())"),
        (K, f"SimplicialComplex(vertices=(0, 1), faces={K.faces!r})"),
        (is_flag(K), "FlagWitness(missing_clique=None)"),
        (octa, f"Octahedralization(base={K!r})"),
        (doubled, f"DoubledComplex(cycle={doubled.cycle!r}, delta={doubled.delta!r}, octa={doubled.octa!r})"),
        (StarConditionReport(holds=False, violation=((0,), (1,))),
         "StarConditionReport(holds=False, violation=((0,), (1,)))"),
        (CycleCertificate(degree=0, cycle=frozenset(), delta=(0,), omega=frozenset()),
         "CycleCertificate(degree=0, cycle=frozenset(), delta=(0,), omega=frozenset())"),
        (VanishingResult("skipped", None, None, reason="r"),
         "VanishingResult(status='skipped', primitive=None, witness_cycle=None, reason='r', "
         "integral_primitive=None, integral_checked=False)"),
        (VerificationOutcome(True, None, "", ("delta-membership",)),
         "VerificationOutcome(ok=True, failed_check=None, detail='', checks_run=('delta-membership',))"),
        (ZooEntry("e", None, expected={"vkdim": (0, "r")}),
         "ZooEntry(name='e', build=None, expected={'vkdim': (0, 'r')}, flag=True)"),
        (exhibit, f"ViolationExhibit(complex={K!r}, cycle=frozenset({{(0, 1)}}), delta=(0, 1), "
                  "violating_pair=((0, 1), (0, 1)), boundary_cell=(), boundary_size=0)"),
    ]
    return [pytest.param(record, text, id=type(record).__name__) for record, text in examples]


@pytest.mark.parametrize("record, text", _frozen_examples())
def test_a_frozen_record_keeps_its_repr_and_refuses_assignment(record, text):
    assert repr(record) == text
    field = type(record)._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    assert getattr(record, field) is record[0]


def test_a_complex_hashes_and_compares_by_its_fields_and_caches_its_properties():
    K = _K()
    assert hash(K) == hash((K.vertices, K.faces))
    rebuilt = SimplicialComplex(faces=frozenset(K.faces), vertices=tuple(K.vertices))
    assert rebuilt == K and hash(rebuilt) == hash(K) and {K: 1}[rebuilt] == 1
    assert K.rank is K.rank and K.dim == 1
    octa = octahedralize(K)
    assert octa.vertices is octa.vertices and octa == octahedralize(rebuilt)


def test_the_suite_records_are_mutable_and_share_no_default():
    a, b = SuiteResult(), SuiteResult()
    assert repr(a) == "SuiteResult(complexes=0, checks=0, failures=[])"
    assert a == b and a.failures is not b.failures
    a.failures.append(SuiteFailure("pullback", ((0,),), "d"))
    assert b.failures == [] and a != b
    fail = a.failures[0]
    assert repr(fail) == "SuiteFailure(check='pullback', complex_maximal=((0,),), detail='d')"
    with pytest.raises(AttributeError):
        fail.complex_maximal = ((1,),)
    shrunk = fail._replace(complex_maximal=((1,),))
    assert shrunk == SuiteFailure("pullback", ((1,),), "d") and fail.complex_maximal == ((0,),)
    assert shrunk != SuiteFailure("pushforward", ((1,),), "d")
    with pytest.raises(TypeError):
        hash(a)


def test_zoo_entries_without_expectations_share_one_read_only_default():
    entries = {entry.name: entry for entry in ZOO}
    a, b = entries["random_flag_a"], entries["random_flag_b"]
    assert a.expected is b.expected is ZooEntry("x", None).expected
    assert not a.expected
    with pytest.raises(TypeError):
        a.expected["vkdim"] = (0, "r")
