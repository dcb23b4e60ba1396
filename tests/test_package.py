import importlib
import subprocess
import sys

import covmod


def test_cli_import_leaves_verify_and_bench_unloaded():
    code = "import sys, covmod.cli; print(sorted(m for m in sys.modules if m.startswith('covmod')))"
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    # jsonio stays eager: covbench's tracer finds it in sys.modules
    assert "'covmod.jsonio'" in res.stdout
    assert "'covmod.verify'" not in res.stdout
    assert "'covmod.bench'" not in res.stdout
    assert "'covmod.draws'" not in res.stdout


def test_every_exported_name_resolves():
    for name in covmod.__all__:
        assert getattr(covmod, name) is not None, name
    assert covmod.run_verification is sys.modules["covmod.verify"].run_verification
    assert covmod.run_bench is sys.modules["covmod.bench"].run_bench


def test_semidirect_stays_the_function_after_verify_loads():
    # covmod.semidirect is both a submodule and the function exported over it
    importlib.import_module("covmod.verify")
    from covmod import semidirect

    assert semidirect is sys.modules["covmod.semidirect"].semidirect
    assert callable(semidirect)
