"""perfbench -- the repo's end-to-end benchmark (see README.md).

Four workloads (``search_pool``, ``train_dp2``, ``serve_small``,
``serve_mixed``) driven through the program's public entry points, six
end-to-end metrics measured on every one of them, and -- in a separate
traced run -- harness-side spans plus per-layer probes.  ``run.py`` is
the only entry point; ``spec.py`` holds every declared name, unit,
bound and size.
"""
