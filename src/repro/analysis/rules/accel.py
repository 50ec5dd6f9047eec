"""accel-dispatch: accelerated arithmetic flows through the dispatch seam.

The byte-parity guarantee of :mod:`repro.crypto.accel` — swap the
provider, get identical bytes — only holds if the *whole* crypto stack
reaches the ``_accelmodule`` C extension through one seam
(:mod:`repro.crypto.accel.dispatch`).  A module that imports
``_accelmodule`` directly has hard-wired an optional build product (the
repo must run without it), and one that imports it or a provider
module bypasses the probe/fallback logic and the parity gate around
it.

Mechanically, within ``repro.crypto`` (and ``repro.accumulators``,
whose key oracle sits on the same hot path):

* only :mod:`repro.crypto.accel.native` may import ``_accelmodule``;
* only :mod:`repro.crypto.accel.dispatch` may import the provider
  modules (``pure`` / ``native``; ``native`` may also import ``pure``,
  whose scalar seam it reuses) — everyone else imports ``dispatch``
  (or the package re-exports) and lets the active provider decide.
"""

from __future__ import annotations

import ast

from repro.analysis.findings import Finding
from repro.analysis.project import ProjectIndex

NAME = "accel-dispatch"
DESCRIPTION = "crypto modules reach _accelmodule only via accel.dispatch"

#: the packages that must stay provider-agnostic
SCOPES = ("repro.crypto", "repro.accumulators")

#: module -> the places allowed to import it directly.  ``pure`` is
#: also importable by ``native``: it carries no optional dependency,
#: and ``native`` reuses its scalar seam (CPython's ``pow`` is already
#: C-speed) rather than duplicating it.
_RESTRICTED = {
    "_accelmodule": frozenset({"repro.crypto.accel.native"}),
    "repro.crypto.accel._accelmodule": frozenset({"repro.crypto.accel.native"}),
    "repro.crypto.accel.pure": frozenset(
        {"repro.crypto.accel.dispatch", "repro.crypto.accel.native"}
    ),
    "repro.crypto.accel.native": frozenset({"repro.crypto.accel.dispatch"}),
}


def _imported_names(node: ast.stmt) -> list[str]:
    """Fully-qualified module names an import statement pulls in."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom):
        if node.level:  # relative: resolved against the package below
            return []
        base = node.module or ""
        names = [base] if base else []
        # ``from repro.crypto.accel import native`` names the provider
        # module through the alias list, not the ``from`` clause
        names += [f"{base}.{alias.name}" for alias in node.names if base]
        return names
    return []


def _relative_names(module_name: str, node: ast.ImportFrom) -> list[str]:
    """Resolve ``from . import native``-style imports to absolute names."""
    parts = module_name.split(".")
    # level 1 inside a module strips the module itself; each extra level
    # strips one more package (packages themselves are __init__ modules)
    base_parts = parts[: len(parts) - node.level]
    base = ".".join(base_parts + ([node.module] if node.module else []))
    if not base:
        return []
    return [base] + [f"{base}.{alias.name}" for alias in node.names]


def check(project: ProjectIndex) -> list[Finding]:
    findings: list[Finding] = []
    for module in project.iter_modules(*SCOPES):
        for node in ast.walk(module.tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            names = _imported_names(node)
            if isinstance(node, ast.ImportFrom) and node.level:
                source = module.name
                if module.is_package:
                    source += ".__init__"  # packages resolve one level up
                names = _relative_names(source, node)
            for name in names:
                allowed = _RESTRICTED.get(name)
                if allowed is None or module.name in allowed:
                    continue
                findings.append(
                    Finding(
                        rule=NAME,
                        path=module.rel,
                        line=node.lineno,
                        message=(
                            f"{module.name} imports {name} directly; only "
                            f"{', '.join(sorted(allowed))} may — route "
                            "through repro.crypto.accel.dispatch so the "
                            "provider probe and pure fallback stay in charge"
                        ),
                    )
                )
    return findings
