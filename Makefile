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

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

bench-full:
	REPRO_SCALE=full $(PYTHON) -m pytest benchmarks/ --benchmark-only

examples:
	for script in examples/*.py; do \
		echo "==== $$script ===="; \
		$(PYTHON) $$script || exit 1; \
	done

results:
	$(PYTHON) -m repro experiment all

clean:
	rm -rf build *.egg-info src/*.egg-info .pytest_cache \
		benchmarks/results .benchmarks
	find . -name __pycache__ -type d -exec rm -rf {} +
