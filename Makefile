# Convenience targets for the reproduction.

PYTHON ?= python

.PHONY: install test goldens bench bench-full examples results clean

install:
	$(PYTHON) -m pip install -e . --no-build-isolation || \
	$(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

# Regenerate every paper table under benchmarks/results/ and every
# golden that follows the replication LP's vertex (and only those);
# prints a before -> after line per changed value (timing columns left
# out). One script, two names.
goldens results:
	PYTHONPATH=src:. $(PYTHON) tests/regen.py

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

clean:
	rm -rf build *.egg-info src/*.egg-info .pytest_cache .benchmarks
	find . -name __pycache__ -type d -exec rm -rf {} +
