"""Span tracing of the mwgp package from outside.

Modules import each other's functions by name, so each function is
wrapped at every module attribute that calling code looks it up
through (``mwgp.windows.fit_mle_gaussian``, ``mwgp.cli.run_cv``, ...).
A span records its name, parent span, start and end; spans stay in
memory and are written once at the end.  Counts come from the values
the wrapped functions return or receive (``FitReport``,
``LaplaceState``, ``McOptions``, matrix sizes).
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import Counter, defaultdict


def _arg(args, kwargs, pos, name, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


class Tracer:
    def __init__(self):
        self.spans = []            # [id, parent id, name, start, end]
        self.stack = []
        self.active = Counter()    # open spans by name
        self.counts = Counter()
        self.samples = defaultdict(list)
        self.failures = Counter()  # (status, exception type, message)
        self.unconverged = Counter()
        self.missing = []

    # -- span bookkeeping -------------------------------------------------

    def open(self, name):
        rec = [len(self.spans), self.stack[-1] if self.stack else -1, name,
               time.perf_counter(), 0.0]
        self.spans.append(rec)
        self.stack.append(rec[0])
        self.active[name] += 1
        return rec

    def close(self, rec):
        rec[4] = time.perf_counter()
        self.stack.pop()
        self.active[rec[2]] -= 1

    def wrap(self, target, name, on_return=None, on_call=None, on_error=None):
        """Replace ``module.attr`` (given as "module:attr") by a traced wrapper."""
        mod_name, attr = target.split(":")
        module = importlib.import_module(mod_name)
        fn = getattr(module, attr, None)
        if fn is None:
            self.missing.append(target)
            return
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if on_call is not None:
                on_call(tracer, args, kwargs)
            rec = tracer.open(name)
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                tracer.close(rec)
                if on_error is not None:
                    on_error(tracer, exc, args, kwargs)
                raise
            tracer.close(rec)
            if on_return is not None:
                on_return(tracer, out, args, kwargs)
            return out

        setattr(module, attr, wrapper)

    # -- results ----------------------------------------------------------

    def summary(self):
        total = Counter()
        child = Counter()
        calls = Counter()
        for sid, parent, name, start, end in self.spans:
            total[name] += end - start
            calls[name] += 1
            if parent >= 0:
                child[self.spans[parent][2]] += end - start
        self_s = {name: total[name] - child[name] for name in total}
        return {
            "total_s": dict(total),
            "self_s": self_s,
            "calls": dict(calls),
            "counts": dict(self.counts),
            "samples": {k: v for k, v in self.samples.items()},
            "failures": [[s, t, m, n] for (s, t, m), n in
                         self.failures.most_common()],
            "unconverged": [[m, n] for m, n in self.unconverged.most_common()],
            "missing_hooks": self.missing,
            "n_spans": len(self.spans),
        }

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, name, start, end in self.spans:
                fh.write(json.dumps([sid, parent, name, start, end]) + "\n")


# -- hooks ----------------------------------------------------------------


def _count_rows(t, out, args, kwargs):
    t.counts["ingest.rows"] += sum(len(rec.levels) for rec in out)


def _count_subtract(t, out, args, kwargs):
    t.counts["ingest.subtract_obs"] += len(_arg(args, kwargs, 0, "obs"))


def _count_select(t, out, args, kwargs):
    data = _arg(args, kwargs, 0, "data")
    t.counts["windows.select_calls"] += 1
    t.counts["windows.obs_scanned"] += sum(b.m for b in data)
    t.samples["window_obs"].append(sum(b.m for b in out))


def _cell_done(t, fit, args, kwargs):
    t.counts["windows.cells"] += 1
    if fit.status != "ok":
        t.failures[(fit.status, "", fit.message)] += 1


def _cell_raised(t, exc, args, kwargs):
    t.counts["windows.cells"] += 1
    t.failures[("error", type(exc).__name__, str(exc))] += 1


def _fit_report(layer):
    def hook(t, out, args, kwargs):
        report = out[1]
        t.counts[f"{layer}.fits"] += 1
        t.counts[f"{layer}.lik_evals"] += report.n_evals
        t.counts[f"{layer}.fit_iters"] += report.n_iter
        if not report.converged:
            t.counts[f"{layer}.fit_unconverged"] += 1
            t.unconverged[f"{layer}: {report.message}"] += 1
    return hook


def _chol(t, args, kwargs):
    m = _arg(args, kwargs, 0, "mat").shape[0]
    t.counts["gaussian.chol_calls"] += 1
    t.counts["gaussian.chol_flop"] += m ** 3 / 3.0
    if t.active["validation.cv"]:
        t.counts["validation.chol_in_cv"] += 1


def _cov_matrix(t, out, args, kwargs):
    t.counts["covariance.cov_matrix_calls"] += 1
    t.counts["covariance.kernel_entries"] += out.size


def _mode_done(t, state, args, kwargs):
    t.counts["student.mode_calls"] += 1
    t.counts["student.newton_iters"] += state.iterations


def _mode_raised(t, exc, args, kwargs):
    t.counts["student.mode_calls"] += 1
    t.counts["student.mode_failures"] += 1


def _mc(pos):
    def hook(t, args, kwargs):
        mc = _arg(args, kwargs, pos, "mc")
        if mc is not None:
            t.counts["student.mc_draws"] += mc.n_samples
    return hook


def _cv_done(t, cv, args, kwargs):
    t.counts["validation.folds"] += len(cv.records)
    t.counts["validation.folds_failed"] += cv.n_failed
    t.counts["validation.folds_skipped"] += cv.n_skipped


def _calibration_call(t, args, kwargs):
    cv = _arg(args, kwargs, 0, "cv")
    t.counts["validation.calibration_records"] += sum(
        1 for r in cv.records if hasattr(r.pred, "dof"))


WRITERS = ("write_grid_csv", "write_manifest", "write_cv_records",
           "write_mean_field", "write_mean_field_gridded", "_write_metrics",
           "_write_calibration")


def install() -> Tracer:
    """Wrap the package's functions at the names its modules call them by."""
    t = Tracer()
    for attr in WRITERS:
        t.wrap(f"mwgp.cli:{attr}", "cli.write")
    t.wrap("mwgp.cli:parse_profiles", "ingest.parse", on_return=_count_rows)
    t.wrap("mwgp.cli:profiles_to_level", "ingest.level")
    t.wrap("mwgp.cli:estimate_mean_field", "ingest.mean_fit")
    t.wrap("mwgp.cli:read_mean_field", "ingest.read_mean")
    t.wrap("mwgp.cli:subtract_mean", "ingest.subtract",
           on_return=_count_subtract)
    t.wrap("mwgp.windows:fit_grid_point", "windows.fit_grid_point",
           on_return=_cell_done, on_error=_cell_raised)
    t.wrap("mwgp.windows:select_window", "windows.select",
           on_return=_count_select)
    for mod in ("mwgp.windows", "mwgp.student"):
        t.wrap(f"{mod}:fit_mle_gaussian", "gaussian.fit",
               on_return=_fit_report("gaussian"))
    t.wrap("mwgp.windows:fit_mle_student", "student.fit",
           on_return=_fit_report("student"))
    for mod in ("mwgp.windows", "mwgp.validation"):
        t.wrap(f"{mod}:predict_gaussian", "gaussian.predict")
        t.wrap(f"{mod}:predict_student", "student.predict")
    for mod in ("mwgp.gaussian", "mwgp.student"):
        t.wrap(f"{mod}:chol_spd", "gaussian.chol", on_call=_chol)
        t.wrap(f"{mod}:cov_matrix", "covariance.cov_matrix",
               on_return=_cov_matrix)
    for attr in ("rg_corr_matrix", "rg_corr_vector"):
        t.wrap(f"mwgp.windows:{attr}", "covariance.rg_corr")
    t.wrap("mwgp.student:find_mode", "student.mode", on_return=_mode_done,
           on_error=_mode_raised)
    t.wrap("mwgp.windows:student_interval", "student.interval", on_call=_mc(2))
    t.wrap("mwgp.validation:predictive_deviation_sample", "student.mc_sample",
           on_call=_mc(1))
    t.wrap("mwgp.cli:run_cv", "validation.cv", on_return=_cv_done)
    t.wrap("mwgp.cli:calibration", "validation.calibration",
           on_call=_calibration_call)
    return t
