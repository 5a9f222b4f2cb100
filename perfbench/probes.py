# Runtime wrappers around the calls into each dielscat layer.
#
# The package binds imported names into each module's own namespace
# (experiments imports assemble_and_solve, foldylax imports
# dyadic_sum_chunked, lse imports eigh and lu_factor, ...), so a wrapper must
# replace the name where it is looked up; patching only the defining module
# would record nothing.  Every wrapped call appends one span
# [name, parent index, start, end, extra] to an in-memory list.  Clocks are
# read only when timed=True: an untimed probe still records the call tree, so
# its exact counts can be compared with the timed (traced) run.

import functools
import importlib
import os
import time

# span name -> every (module, attribute) through which the package calls it;
# "module:Class" names a class whose method is replaced on the class itself
TARGETS = {
    "cli.parse_config": [("cli", "parse_config")],
    "experiments.study": [("cli", "run_convergence"), ("cli", "run_resonance"),
                          ("cli", "run_counting")],
    "reporting.emit": [("cli", "emit")],
    "reporting.plot": [("cli", "emit_plot_data")],
    "geometry.cluster": [("experiments", "generate_cluster")],
    "geometry.counting_sum": [("experiments", "max_counting_sum")],
    "geometry.boundary": [("experiments", "boundary_counting_statistic")],
    "foldylax.solve": [("experiments", "assemble_and_solve")],
    "foldylax.offdiag": [("foldylax", "_apply_offdiag")],
    "foldylax.gmres": [("foldylax", "gmres")],
    "foldylax.far_field": [("experiments", "cluster_far_field")],
    "tensors.dyadic_sum": [("foldylax", "dyadic_sum_chunked")],
    "tensors.kernel_scalars": [("foldylax", "dyadic_kernel_scalars")],
    "lse.solve": [("experiments", "solve_effective_lse"),
                  ("lse", "solve_effective_lse")],
    "lse.kernel_build": [("lse:DyadicVolumeOperator", "__init__")],
    "lse.kernel_apply": [("lse:DyadicVolumeOperator", "apply")],
    "lse.dense_blocks": [("lse:DyadicVolumeOperator", "dense_blocks")],
    "lse.lu_factor": [("lse", "lu_factor")],
    "lse.lu_solve": [("lse", "lu_solve")],
    "lse.gmres": [("lse", "gmres")],
    "lse.magnetization_matrix": [("lse", "magnetization_matrix")],
    "lse.eigh": [("lse", "eigh")],
    "lse.select_eig": [("experiments", "select_resonant_eigenvalue")],
    "lse.scan": [("lse", "resonance_amplification_scan")],
    "lse.far_field": [("experiments", "effective_far_field"),
                      ("lse", "effective_far_field")],
}


def _pairs(args, kwargs, result):
    """Kernel pairs evaluated: targets x sources."""
    return len(args[0]) * len(args[1])


def _kernel_bytes(args, kwargs, result):
    """Two cached complex C x C kernel factors."""
    return 2 * args[1].count ** 2 * 16


def _eigh_order(args, kwargs, result):
    return args[0].shape[0]


def _transversality(args, kwargs, result):
    return result.max_transversality_defect()


def _boundary_pairs(args, kwargs, result):
    """Particles x complement quadrature points, as the statistic sums them."""
    import numpy as np
    cluster = args[0]
    refine = kwargs.get("refine", args[1] if len(args) > 1 else 4)
    dom = cluster.domain
    d = cluster.d
    step = d / refine
    corner = dom.center - dom.extents / 2.0
    counts = np.ceil(dom.extents / step - 1e-12).astype(int)
    lattice = np.floor(dom.extents / d + 1e-12).astype(int)
    # both selections are per-axis conditions on a tensor grid, so the
    # complement size is a difference of two products
    in_domain = covered = 1
    for i in range(3):
        x = corner[i] + step * (np.arange(counts[i]) + 0.5)
        x = x[np.abs(x - dom.center[i]) <= dom.extents[i] / 2.0 + 1e-12]
        rel = (x - corner[i]) / d
        in_domain *= x.size
        covered *= int(np.sum((rel >= 0) & (rel < lattice[i])))
    return cluster.count * (in_domain - covered)


def _written(position):
    def bytes_written(args, kwargs, result):
        return os.path.getsize(args[position])
    return bytes_written


# computed quantities attached to a span as its extra value
EXTRAS = {
    "tensors.dyadic_sum": _pairs,
    "tensors.kernel_scalars": _pairs,
    "lse.kernel_build": _kernel_bytes,
    "lse.eigh": _eigh_order,
    "foldylax.far_field": _transversality,
    "lse.far_field": _transversality,
    "geometry.boundary": _boundary_pairs,
    "reporting.emit": _written(2),
    "reporting.plot": _written(1),
}


def _resolve(path):
    module, _, cls = path.partition(":")
    owner = importlib.import_module("dielscat." + module)
    return getattr(owner, cls) if cls else owner


class Probe:
    """Installs span wrappers on the package and restores it afterwards.

    spans: list of [name, parent index or -1, start, end, extra]; start and
    end are perf_counter seconds when timed, else 0.0.  missing lists the
    targets not present in the package (a renamed or removed function).
    """

    def __init__(self, timed):
        self.timed = timed
        self.spans = []
        self.missing = []
        self._stack = []
        self._saved = []

    def install(self, targets=TARGETS):
        for name, places in targets.items():
            for path, attr in places:
                try:
                    owner = _resolve(path)
                    original = owner.__dict__[attr]
                except (ImportError, AttributeError, KeyError):
                    self.missing.append("%s.%s" % (path, attr))
                    continue
                self._saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original))
        return self

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved = []

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    def wrap(self, name, fn):
        """Span-recording wrapper of fn."""
        extra = EXTRAS.get(name)
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter if self.timed else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, 0.0, 0.0, None]
            stack.append(len(spans))
            spans.append(span)
            if clock:
                span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                if clock:
                    span[3] = clock()
                stack.pop()
            if extra is not None:
                span[4] = extra(args, kwargs, result)
            return result

        return wrapper
