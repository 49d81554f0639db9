"""The package's public surface: what the experiment and its checks use.

`vlclink` re-exports the names `tests/test_acceptance.py` imports from it,
the mode encoder the benchmark reads, the entry points and config errors of
the command line, and its submodules.  Every other name is imported from the
module that defines it, and only from there.
"""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import vlclink

ROOT = Path(__file__).resolve().parents[1]

ACCEPTANCE = {
    "MODES",
    "Mode",
    "ScenarioConfig",
    "StreamSnrs",
    "ber_theoretical",
    "channel_matrix",
    "estimate_channel",
    "make_rng",
    "qam_demap",
    "qam_map",
    "select_mode",
    "svd2",
    "write_blockage_csv",
}
BENCHMARK = {"encode_mode"}
COMMAND_LINE = {
    "parse_config",
    "load_config",
    "calibrate",
    "run_blockage_sweep",
    "run_ber_sweep",
    "write_ber_csv",
    "ParseError",
    "ValidationError",
}
EXPORTED = ACCEPTANCE | BENCHMARK | COMMAND_LINE
SUBMODULES = {"adapt", "channel", "errors", "framing", "metrics", "modem", "numerics", "receiver", "scenario"}

# Names the package exported before its surface was cut, by defining module.
MOVED = {
    "adapt": ["AdaptPolicy", "ControllerState", "controller_step", "new_controller", "parse_mode", "predicted_ber"],
    "channel": ["Geometry", "Obstacle", "apply_channel", "los_gain", "occlusion_factor"],
    "errors": ["ParameterError", "SingularMatrix", "SyncNotFound"],
    "framing": ["FrameSpec", "matched_filter_downsample", "mseq", "pilot_symbols", "rrc_taps", "synchronize"],
    "metrics": ["LinkReport", "dump_constellation", "error_free_efficiency"],
    "modem": ["Constellation", "QAM_ORDERS", "constellation"],
    "numerics": ["Svd2", "inv2", "qfunc"],
    "receiver": ["ChannelEstimate", "combine_sd_mrc", "detect_sm_zf", "stream_snrs"],
    "scenario": ["BerSweepRow", "BlockageSweepResult"],
}


def fresh_public_names() -> set[str]:
    """Public names of `vlclink` in a fresh interpreter, where no test has
    imported a submodule the package itself does not (`cli`)."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    code = "import vlclink; print(*(n for n in dir(vlclink) if not n.startswith('_')))"
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True, timeout=60)
    return set(run.stdout.split())


def acceptance_imports() -> set[str]:
    tree = ast.parse((ROOT / "tests" / "test_acceptance.py").read_text(encoding="utf-8"))
    return {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "vlclink"
        for alias in node.names
    }


def test_public_names_are_the_declared_ones_and_the_submodules():
    assert len(EXPORTED) == 22
    assert fresh_public_names() == EXPORTED | SUBMODULES


def test_acceptance_and_benchmark_names_resolve():
    assert acceptance_imports() == ACCEPTANCE
    for name in ACCEPTANCE | BENCHMARK:
        assert getattr(vlclink, name) is not None
    assert vlclink.encode_mode is vlclink.adapt.encode_mode


@pytest.mark.parametrize("module, name", [(m, n) for m, names in MOVED.items() for n in names])
def test_moved_name_imports_from_its_module_only(module, name):
    assert hasattr(importlib.import_module(f"vlclink.{module}"), name)
    assert not hasattr(vlclink, name)


def test_framing_has_one_tx_assembly_and_no_sample_rate_frame():
    # the sample-rate frame chain lives in tests/reference_chain.py
    for name in ("TxFrame", "build_frame", "build_symbols"):
        assert not hasattr(vlclink.framing, name)
        assert name not in vlclink.framing.__all__


def unread_imports(path: Path) -> list[str]:
    """Names the module at `path` imports and never reads, less those on a
    line that carries `# noqa`."""
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines()
    tree = ast.parse(text)
    imported = {}   # bound name -> line of its alias
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update({(a.asname or a.name.split(".")[0]): a.lineno for a in node.names})
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update({(a.asname or a.name): a.lineno for a in node.names})
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(name for name, line in imported.items() if name not in read and "# noqa" not in lines[line - 1])


@pytest.mark.parametrize(
    "path",
    [p for p in sorted((ROOT / "src" / "vlclink").glob("*.py")) if p.name != "__init__.py"]
    + sorted((ROOT / "demos").glob("*.py")),
    ids=lambda p: f"{p.parent.name}/{p.name}",
)
def test_every_imported_name_is_read(path):
    # `__init__.py` is left out: its imports are the package's re-exports
    assert unread_imports(path) == []
