import dataclasses
import importlib
import pkgutil

import impulsesim

# the public surface: a name joins or leaves it only together with this list
PUBLIC = [
    "BrownianPath",
    "CadlagTrajectory",
    "ConvergenceReport",
    "Model",
    "SampleGrid",
    "affine_kick_map",
    "affine_kick_model",
    "build_grid",
    "fit_loglog_slope",
    "integrate_coupled",
    "integrate_deterministic",
    "kick_limit_check",
    "pendulum_model",
    "regularized_kick",
    "run_convergence_study",
    "sample_brownian",
]


def test_all_is_the_pinned_sorted_list_and_resolves():
    assert PUBLIC == sorted(PUBLIC)
    assert impulsesim.__all__ == PUBLIC
    for name in PUBLIC:
        assert getattr(impulsesim, name, None) is not None, name


def test_the_package_defines_no_exception_class():
    """Errors are built-in types: ValueError is bad input, FloatingPointError
    an overflow (a trajectory, a study table or a kick substep), and
    ChildProcessError a lost worker."""
    modules = [impulsesim] + [importlib.import_module(f"impulsesim.{info.name}")
                              for info in pkgutil.iter_modules(impulsesim.__path__)]
    for module in modules:  # the package's namespace holds every public name
        for name, value in vars(module).items():
            assert not (isinstance(value, type) and issubclass(value, BaseException)
                        and value.__module__.startswith("impulsesim")), f"{module.__name__}.{name}"


def test_model_fields():
    # a constant sigma is a diffusion that returns one (d, r) matrix, not a field
    names = [f.name for f in dataclasses.fields(impulsesim.Model)]
    assert names == ["d", "r", "drift", "diffusion", "reset", "drift_jacobian",
                     "reset_jacobian"]


def test_convergence_report_is_built_from_its_per_path_table():
    # mean, sem, slope and r2 are derived from paths, never passed in
    names = tuple(f.name for f in dataclasses.fields(impulsesim.ConvergenceReport) if f.init)
    assert names == ("eps_exponents", "paths")


def test_affine_kick_model_lives_beside_its_kick_map():
    # dynamics imports nothing from the package, so it holds no kick model
    assert impulsesim.affine_kick_model is impulsesim.kickmap.affine_kick_model
    assert not hasattr(impulsesim.dynamics, "affine_kick_model")
