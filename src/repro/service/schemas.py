"""Request validation: JSON bodies → :class:`~repro.runner.jobs.SimJob`.

The service accepts exactly the job surface the runner already defines —
a named machine, a scheme (or the sequential baseline), a regenerable
:class:`~repro.runner.jobs.WorkloadSpec`, and the cache-identity engine
options. Nothing service-specific enters the cache key: a job submitted
over HTTP lands on the same content address as the same job run from the
CLI, which is what makes the shared tier a shared corpus.

Every validation failure raises :class:`ServiceError` with an HTTP
status and a machine-readable ``code``; the HTTP layer renders it as a
structured ``{"error": {"code", "message"}}`` body.
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.errors import ReproError
from repro.runner.jobs import SimJob, WorkloadSpec

#: Upper bound on cells in one ``POST /v1/sweeps`` grid. The full paper
#: grid (3 machines x 9 schemes x 7 apps) is 189 cells; this leaves
#: generous headroom while refusing accidental combinatorial blowups.
MAX_SWEEP_CELLS = 4096

#: Guardrail on workload size: scale is a task-count multiplier, and a
#: huge one turns a request into a denial-of-service on the frontend.
MAX_SCALE = 16.0

_GRANULARITIES = ("word", "line")

#: Engine-option request fields forwarded to :class:`SimJob` verbatim
#: (all part of the cache identity).
_OPTION_FIELDS = ("high_level_patterns", "violation_granularity",
                  "check_invariants", "record_reads", "collect_metrics")


class ServiceError(ReproError):
    """A request the service refuses, carrying its HTTP rendering."""

    def __init__(self, status: int, code: str, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.code = code

    def to_dict(self) -> dict[str, Any]:
        """The structured JSON error body."""
        return {"error": {"code": self.code, "message": str(self)}}


def _bad(code: str, message: str) -> ServiceError:
    return ServiceError(400, code, message)


# ----------------------------------------------------------------------
# Field parsing
# ----------------------------------------------------------------------
def _require_object(data: Any, what: str) -> dict[str, Any]:
    if not isinstance(data, dict):
        raise _bad("bad_request", f"{what} must be a JSON object, "
                                  f"got {type(data).__name__}")
    return data


def _parse_bool(data: dict[str, Any], field: str, default: bool) -> bool:
    value = data.get(field, default)
    if not isinstance(value, bool):
        raise _bad("bad_field", f"{field!r} must be a boolean")
    return value


def _parse_number(data: dict[str, Any], field: str, default: float,
                  *, low: float, high: float) -> float:
    value = data.get(field, default)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise _bad("bad_field", f"{field!r} must be a number")
    if not low <= value <= high:
        raise _bad("bad_field",
                   f"{field!r} must be within [{low}, {high}], got {value}")
    return float(value)


def _parse_int(data: dict[str, Any], field: str, default: int,
               *, low: int, high: int) -> int:
    value = data.get(field, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise _bad("bad_field", f"{field!r} must be an integer")
    if not low <= value <= high:
        raise _bad("bad_field",
                   f"{field!r} must be within [{low}, {high}], got {value}")
    return value


def resolve_machine(name: Any) -> Any:
    """A machine config from its registry name (presets + variants).

    Accepts both the CLI preset keys (``numa16``, ``cmp8``,
    ``numa16-bigl2``) and the derived-variant display names the explore
    registry publishes (e.g. ``CC-NUMA-16~l2_size=1M``).
    """
    from repro.core.config import MACHINES
    from repro.explore import machine_registry

    if not isinstance(name, str):
        raise _bad("bad_field", "'machine' must be a string")
    if name in MACHINES:
        return MACHINES[name]
    registry = machine_registry()
    if name in registry:
        return registry[name]
    raise _bad("unknown_machine",
               f"unknown machine {name!r}; presets: "
               f"{', '.join(MACHINES)} (see 'repro-tls list' for "
               f"derived variants)")


def resolve_scheme(name: Any) -> Any:
    """A scheme from its name; ``None``/``"sequential"`` = the baseline."""
    from repro.core.taxonomy import scheme_from_name

    if name is None or name == "sequential":
        return None
    if not isinstance(name, str):
        raise _bad("bad_field", "scheme names must be strings or null")
    try:
        return scheme_from_name(name)
    except (ReproError, KeyError, ValueError) as exc:
        raise _bad("unknown_scheme", f"unknown scheme {name!r}: {exc}")


def workload_spec_from_request(data: dict[str, Any]) -> WorkloadSpec:
    """A :class:`WorkloadSpec` from the request's workload fields."""
    from repro.workloads.apps import APPLICATIONS

    app = data.get("app")
    if not isinstance(app, str):
        raise _bad("bad_field", "'app' must be an application name string")
    if app not in APPLICATIONS:
        raise _bad("unknown_app", f"unknown application {app!r}; known: "
                                  f"{', '.join(APPLICATIONS)}")
    return WorkloadSpec(
        app=app,
        seed=_parse_int(data, "seed", 0, low=0, high=2**31 - 1),
        scale=_parse_number(data, "scale", 1.0, low=0.01, high=MAX_SCALE),
        invocations=_parse_int(data, "invocations", 1, low=1, high=64),
        iterations_per_task=_parse_number(
            data, "iterations_per_task", 1.0, low=0.1, high=64.0),
    )


def _options_from_request(data: dict[str, Any]) -> dict[str, Any]:
    """The engine options shared by job and sweep requests.

    ``traced`` is refused outright: a trace recorder cannot cross the
    wire or any cache tier, so traced jobs are CLI-only — exactly the
    rule the runner itself enforces by forcing them live.
    """
    if data.get("traced"):
        raise ServiceError(
            400, "uncacheable",
            "traced jobs are refused: a trace recorder cannot cross the "
            "HTTP or cache boundary; run traced jobs locally "
            "(repro-tls run / the Python API)")
    granularity = data.get("violation_granularity", "word")
    if granularity not in _GRANULARITIES:
        raise _bad("bad_field",
                   f"'violation_granularity' must be one of "
                   f"{_GRANULARITIES}, got {granularity!r}")
    return {
        "high_level_patterns": _parse_bool(data, "high_level_patterns",
                                           False),
        "violation_granularity": granularity,
        "check_invariants": _parse_bool(data, "check_invariants", False),
        "record_reads": _parse_bool(data, "record_reads", False),
        "collect_metrics": _parse_bool(data, "collect_metrics", False),
    }


# ----------------------------------------------------------------------
# Request bodies
# ----------------------------------------------------------------------
def job_from_request(data: Any) -> SimJob:
    """``POST /v1/jobs`` body → one validated :class:`SimJob`.

    Body shape (only ``app`` is required)::

        {"machine": "numa16", "scheme": "MultiT&MV Lazy AMM",
         "app": "Apsi", "seed": 0, "scale": 1.0,
         "collect_metrics": false, ...}
    """
    data = _require_object(data, "job request")
    return SimJob(
        machine=resolve_machine(data.get("machine", "numa16")),
        scheme=resolve_scheme(data.get("scheme")),
        workload=workload_spec_from_request(data),
        **_options_from_request(data),
    )


def _name_list(data: dict[str, Any], field: str,
               default: Sequence[Any]) -> list[Any]:
    value = data.get(field)
    if value is None:
        return list(default)
    if not isinstance(value, list) or not value:
        raise _bad("bad_field", f"{field!r} must be a non-empty list")
    return value


def jobs_from_sweep_request(data: Any) -> list[SimJob]:
    """``POST /v1/sweeps`` body → the validated cartesian job grid.

    Body shape (all fields optional)::

        {"machines": ["numa16"], "schemes": ["MultiT&MV Lazy AMM", null],
         "apps": ["Euler", "Apsi"], "seed": 0, "scale": 1.0,
         "collect_metrics": false, ...}

    ``machine`` (singular) is accepted as shorthand for a one-element
    ``machines`` list; a ``null`` scheme requests the sequential
    baseline. Defaults: machine ``numa16``, the 8 evaluated schemes,
    every registered application. Grid order matches
    :meth:`SimJob.grid` — machines outermost, apps innermost.
    """
    from repro.core.taxonomy import EVALUATED_SCHEMES
    from repro.workloads.apps import APPLICATIONS

    data = _require_object(data, "sweep request")
    if "machines" in data and "machine" in data:
        raise _bad("bad_field", "give either 'machine' or 'machines', "
                                "not both")
    machine_names = _name_list(data, "machines",
                               [data.get("machine", "numa16")])
    machines = [resolve_machine(name) for name in machine_names]
    schemes = [resolve_scheme(name)
               for name in _name_list(data, "schemes",
                                      [s.name for s in EVALUATED_SCHEMES])]
    app_names = _name_list(data, "apps", list(APPLICATIONS))
    seed = _parse_int(data, "seed", 0, low=0, high=2**31 - 1)
    scale = _parse_number(data, "scale", 1.0, low=0.01, high=MAX_SCALE)
    workloads = [
        workload_spec_from_request(
            {"app": app, "seed": seed, "scale": scale})
        for app in app_names
    ]
    options = _options_from_request(data)
    cells = len(machines) * len(schemes) * len(workloads)
    if cells > MAX_SWEEP_CELLS:
        raise ServiceError(
            400, "grid_too_large",
            f"sweep grid has {cells} cells, limit {MAX_SWEEP_CELLS}; "
            f"split the request")
    return SimJob.grid(machines, schemes, workloads, **options)
