"""The kernel-backend registry: naming, negotiation, availability
errors, and the process-default plumbing the CLI rides on."""

import subprocess
import sys
from pathlib import Path

import pytest

import repro.kernel.compiled as compiled
from repro.kernel import (
    BACKEND_NAMES,
    BackendUnavailable,
    PythonBackend,
    available_backends,
    get_backend,
    get_default_backend,
    negotiate,
    resolve_backend,
    set_default_backend,
)


@pytest.fixture(autouse=True)
def _restore_default():
    """Every test leaves the process default as it found it."""
    before = get_default_backend()
    yield
    set_default_backend(before)


def test_python_backend_always_available():
    assert "python" in available_backends()
    assert isinstance(get_backend("python"), PythonBackend)


def test_unknown_backend_name_rejected():
    with pytest.raises(ValueError, match="unknown kernel backend"):
        get_backend("fortran")


def test_negotiation_prefers_fastest_available():
    """auto must resolve to the first available name in registry order
    (compiled > python)."""
    assert BACKEND_NAMES == ("compiled", "python")
    best = negotiate()
    assert best.name == available_backends()[0]
    assert [n for n in BACKEND_NAMES if n in available_backends()] == list(
        available_backends()
    )


def test_default_backend_starts_python_and_is_settable():
    assert get_default_backend() in BACKEND_NAMES
    resolved = set_default_backend("auto")
    assert resolved == negotiate().name
    assert get_default_backend() == resolved
    set_default_backend("python")
    assert get_default_backend() == "python"


def test_resolve_backend_follows_default_and_auto():
    set_default_backend("python")
    assert resolve_backend(None).name == "python"
    assert resolve_backend("auto").name == negotiate().name
    assert resolve_backend("python").name == "python"


def test_unavailable_backend_raises_with_hint(monkeypatch):
    """Without the built extension, an explicit ``compiled`` request
    must fail loudly, carrying an actionable build hint (what the CLI
    prints), while negotiation falls back to python."""
    monkeypatch.setattr(compiled, "_hotloops", None)
    assert available_backends() == ("python",)
    with pytest.raises(BackendUnavailable) as exc_info:
        get_backend("compiled")
    assert exc_info.value.hint == "build it with: python -m repro.kernel.build_ext"
    with pytest.raises(BackendUnavailable):
        set_default_backend("compiled")
    # negotiation and auto must silently skip it, never raise
    assert negotiate().name == "python"
    assert set_default_backend("auto") == "python"


def test_set_default_rejects_unknown_and_keeps_old_value():
    set_default_backend("python")
    with pytest.raises(ValueError):
        set_default_backend("fortran")
    assert get_default_backend() == "python"


def test_cli_backend_selection_is_invocation_scoped(tmp_path, capsys):
    """``--backend`` (and the implicit ``auto`` default) applies to one
    ``main()`` invocation only: in-process callers must observe no
    lasting change to the process default."""
    from repro.cli import EXIT_OK, main

    set_default_backend("python")
    code = main(["run", "water", "--nodes", "9", "--scale", "0.002",
                 "--backend", "auto"])
    capsys.readouterr()
    assert code == EXIT_OK
    assert get_default_backend() == "python"


def test_cli_rejects_removed_vector_backend(capsys):
    from repro.cli import main

    with pytest.raises(SystemExit) as exc_info:
        main(["run", "water", "--backend", "vector"])
    assert exc_info.value.code == 2
    assert "invalid choice: 'vector'" in capsys.readouterr().err


@pytest.mark.skipif(not compiled.CompiledBackend.is_available(),
                    reason="needs the _hotloops extension")
def test_compiled_backend_never_imports_numpy():
    """Building and running a compiled-backend machine loads no numpy
    (checked in a fresh interpreter, whatever this one has imported)."""
    src = str(Path(__file__).resolve().parents[2] / "src")
    script = (
        "import sys\n"
        f"sys.path.insert(0, {src!r})\n"
        "from repro import ArchConfig, Machine, make_workload\n"
        "for app in ('water', 'mp3d', 'zipf', 'scan'):\n"
        "    wl = make_workload(app, n_procs=4, scale=0.0005, seed=1)\n"
        "    Machine(ArchConfig(n_nodes=4), wl, backend='compiled').run()\n"
        "assert 'numpy' not in sys.modules, 'numpy was imported'\n"
    )
    subprocess.run([sys.executable, "-c", script], check=True, timeout=300)
