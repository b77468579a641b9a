# Convenience targets; everything is plain dune underneath.

all:
	dune build @all

test:
	dune runtest

bench:
	dune exec bench/main.exe

# Small-size engine benchmarks (E11, the E12 scaling sweep, the E15
# portfolio-vs-fixed decider race and the E24 parse split), writes
# BENCH_results.json.
# JOBS caps the E12 domain sweep, e.g. `make bench-smoke JOBS=2`.
JOBS ?= 1
bench-smoke:
	dune exec bench/main.exe -- --json --smoke --jobs $(JOBS) E11 E12 E15 E24

# Differential fuzzing across the engine matrix (DESIGN.md §8); exits
# nonzero with a shrunk repro on any cross-engine discrepancy, e.g.
# `make fuzz CASES=1000 JOBS=4`.
CASES ?= 500
fuzz:
	dune exec bin/chasectl.exe -- fuzz --cases $(CASES) --seed 42 --jobs $(JOBS)

# Golden-transcript conversation through `chasectl serve` over stdio
# (docs/SERVICE.md).  wall_ms is the only nondeterministic reply field;
# normalize it before diffing.  The script runs twice: on the default
# store backend, and with `--backend compiled` (an alias of the one
# columnar store, echoed as given) diffed against the same transcript
# with the "backend" field normalized on both sides.
WALL_MS = sed -E 's/"wall_ms": *[0-9.eE+-]+/"wall_ms": 0/g'
NO_BACKEND = sed -E 's/"backend": *"[a-z]+"/"backend": "-"/g'
serve-smoke:
	dune build bin/chasectl.exe
	./_build/default/bin/chasectl.exe serve < test/serve/script.jsonl \
	  | $(WALL_MS) | diff -u test/serve/golden.jsonl -
	$(NO_BACKEND) test/serve/golden.jsonl > _build/serve-golden-any-backend.jsonl
	./_build/default/bin/chasectl.exe serve --backend compiled < test/serve/script.jsonl \
	  | $(WALL_MS) | $(NO_BACKEND) | diff -u _build/serve-golden-any-backend.jsonl -

examples:
	dune exec examples/quickstart.exe
	dune exec examples/data_exchange.exe
	dune exec examples/ontology_reasoning.exe
	dune exec examples/termination_gallery.exe
	dune exec examples/sticky_analysis.exe
	dune exec examples/fairness_demo.exe
	dune exec examples/chase_variants.exe

gallery:
	dune exec examples/termination_gallery.exe

# API docs via odoc (warnings are fatal; see the root `dune` env stanza).
doc:
	dune build @doc

clean:
	dune clean

.PHONY: all test bench bench-smoke fuzz serve-smoke examples gallery doc clean
