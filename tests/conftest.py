import subprocess
import sys

from mpfkap import Matrix
from mpfkap import known_answers as ka
from mpfkap.wire import ParamSet, mirror_path, paramset_files, save_paramset


def run_cli(args, timeout=60, env=None):
    """Run the CLI in a subprocess; returns CompletedProcess."""
    return subprocess.run(
        [sys.executable, "-m", "mpfkap", *args],
        capture_output=True,
        text=True,
        timeout=timeout,
        env=env,
    )


def spawn_cli(args, env=None):
    return subprocess.Popen(
        [sys.executable, "-m", "mpfkap", *args],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
    )


def wait_cli(proc, timeout=60):
    """Wait for a spawn_cli process, drain and close its pipes; returns its exit code."""
    proc.communicate(timeout=timeout)
    return proc.returncode


def save_params(ps, path):
    """Save ps as `mpfkap setup --out path` does; returns the JSON and mirror paths."""
    with paramset_files(path) as files:
        save_paramset(ps, files)
    return path, mirror_path(path)


def write_known_rmpf_params(path, seed=None):
    ps = ParamSet(
        protocol="rmpf",
        p=ka.P,
        fields={"rows": 5, "cols": 3},
        matrices={
            "base": Matrix.from_rows(ka.RMPF_BASE, ka.P),
            "x": Matrix.from_rows(ka.RMPF_X, ka.P),
            "y": Matrix.from_rows(ka.RMPF_Y, ka.P),
        },
        seed=seed,
    )
    return save_params(ps, str(path))
