#!/bin/sh
# Build cpsrisk and the benchmark program from source, then run one
# benchmark workload:
#
#   sh perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Run it from the root of a source checkout. Build output goes to
# standard error; standard output carries only the benchmark's result lines.
set -eu
if [ ! -f dune-project ] || [ ! -d bin ] || [ ! -d lib ]; then
  echo "perfbench: run from the root of a cpsrisk source checkout" >&2
  exit 2
fi
dune build --root . ./bin/cpsrisk_cli.exe ./perfbench/pb.exe 1>&2
exec ./_build/default/perfbench/pb.exe "$@"
