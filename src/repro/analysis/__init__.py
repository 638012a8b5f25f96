"""Static analysis of the repository's invariants.

- **Invariant linter** (:mod:`repro.analysis.lint`, run as
  ``python -m repro.analysis.lint src/repro``): per-file AST rules
  R001, R007 and R008 enforcing the repo's dtype discipline and the
  lock discipline of each module: an attribute touched under a lock is
  written only under it, and *every lock is a leaf* (no lock acquired
  while another is held).  The companion
  runtime sanitizer (:mod:`repro.analysis.lockcheck`) is the one check
  across modules: it raises on any nested acquire of a lock built by
  :func:`~repro.analysis.lockcheck.make_lock` when
  ``REPRO_LOCKCHECK=1``.

Candidate graphs are not screened here: the static shape sequence
LP/LCS matching reads is inferred by
:func:`repro.transfer.arch_shape_sequence`, and a candidate that
cannot be built fails at ``build_network`` and is booked as a failed
record (DESIGN.md "Pre-flight gate, retired" says why nothing screens
it first).
"""
