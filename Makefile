# Convenience targets for the reproduction.

PYTHON ?= python

.PHONY: install test goldens bench bench-full examples results clean

install:
	$(PYTHON) -m pip install -e . --no-build-isolation || \
	$(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

# Re-pin the goldens that follow the replication LP's vertex (and only
# those); prints a before -> after line per changed number.
goldens:
	PYTHONPATH=src:. $(PYTHON) tests/regen_goldens.py

# The paper-claim checks and the timing benches; the pipeline
# benchmark (benchmarks/pipeline) has its own runner.
bench:
	$(PYTHON) -m pytest benchmarks/ --ignore=benchmarks/pipeline

bench-full:
	REPRO_SCALE=full $(PYTHON) -m pytest benchmarks/ \
		--ignore=benchmarks/pipeline

examples:
	for script in examples/*.py; do \
		echo "==== $$script ===="; \
		$(PYTHON) $$script || exit 1; \
	done

# Regenerate every paper table under benchmarks/results/; prints a
# before -> after line per changed cell (timing columns left out).
results:
	PYTHONPATH=src:. $(PYTHON) tests/regen_results.py

clean:
	rm -rf build *.egg-info src/*.egg-info .pytest_cache .benchmarks
	find . -name __pycache__ -type d -exec rm -rf {} +
